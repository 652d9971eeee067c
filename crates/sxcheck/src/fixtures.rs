//! Seeded-pathology fixtures.
//!
//! Each fixture runs a small, fully deterministic scenario on the
//! simulator and returns its `sxcheck` report. The pathological ones
//! exist to prove the checker catches what it claims to catch — the bench
//! CLI's `check` subcommand fails loudly if they come back clean — and the
//! clean ones prove it stays quiet on healthy code.

use crate::report::Report;
use crate::vlint::VectorLinter;
use ncar_suite::par::lockreg::LockObservations;
use sxsim::{presets, Ftrace, Vm};

/// One fixture: a named scenario, its report, and whether the scenario is
/// a seeded pathology (so its findings are expected).
#[derive(Debug)]
pub struct Fixture {
    pub name: &'static str,
    /// Lint codes this fixture must produce; empty for clean fixtures.
    pub expect: &'static [&'static str],
    pub report: Report,
}

impl Fixture {
    /// True when the report contains exactly the expected situation: every
    /// expected code present, and no findings at all for clean fixtures.
    pub fn satisfied(&self) -> bool {
        if self.expect.is_empty() {
            return self.report.is_empty();
        }
        self.expect.iter().all(|c| self.report.has_code(c))
    }
}

/// Run every fixture against the benchmarked SX-4.
pub fn run_all() -> Vec<Fixture> {
    vec![
        stride128_copy(),
        clean_copy(),
        bank_pressure(),
        reload_reduction(),
        short_strip_remainder(),
        inverted_locks(),
        guard_across_io(),
        lock_hierarchy_clean(),
    ]
}

fn lint_vm(vm: &mut Vm) -> Report {
    let model = vm.model().clone();
    let trace = vm.take_trace().expect("fixture Vms trace from birth");
    let mut linter = VectorLinter::new();
    trace.replay(&mut linter);
    let mut report = Report::new();
    report.extend(linter.diagnostics(&model));
    report
}

/// A copy loop marching through memory at stride 128: with 1024 banks,
/// every access lands on one of 8 banks and the stream crawls. This is the
/// classic power-of-two leading-dimension mistake of §2.2.
pub fn stride128_copy() -> Fixture {
    let mut vm = Vm::new(presets::sx4_benchmarked());
    vm.start_trace();
    let mut ft = Ftrace::new();
    let n = 8_192usize;
    let src = vec![1.0f64; n * 128];
    let mut dst = vec![0.0f64; n * 128];
    ft.region("stride128-copy", &mut vm, |vm| {
        vm.copy_strided(&mut dst, 128, &src, 128, n);
    });
    // The single bad stride also drags the region's aggregate strided
    // efficiency below the SXC006 pressure bar.
    Fixture { name: "stride128-copy", expect: &["SXC004", "SXC006"], report: lint_vm(&mut vm) }
}

/// A healthy long unit-stride kernel: nothing to report.
pub fn clean_copy() -> Fixture {
    let mut vm = Vm::new(presets::sx4_benchmarked());
    vm.start_trace();
    let mut ft = Ftrace::new();
    let a = vec![1.0f64; 100_000];
    let b = vec![2.0f64; 100_000];
    let mut c = vec![0.0f64; 100_000];
    let mut d = vec![0.0f64; 100_000];
    ft.region("clean-copy", &mut vm, |vm| {
        vm.copy(&mut c, &a);
        vm.add(&mut c, &a, &b);
        vm.fma(&mut d, &a, &b, &c);
    });
    Fixture { name: "clean-copy", expect: &[], report: lint_vm(&mut vm) }
}

/// Many individually modest power-of-two strides: none moves enough to
/// trip SXC004 on its own, but together the region's strided traffic runs
/// at a quarter of the achievable rate.
pub fn bank_pressure() -> Fixture {
    let mut vm = Vm::new(presets::sx4_benchmarked());
    vm.start_trace();
    let mut ft = Ftrace::new();
    let n = 1_500usize;
    ft.region("bank-pressure", &mut vm, |vm| {
        for &stride in &[64usize, 128, 256, 512] {
            let src = vec![1.0f64; n * stride];
            let mut dst = vec![0.0f64; n * stride];
            vm.copy_strided(&mut dst, stride, &src, stride, n);
        }
    });
    Fixture { name: "bank-pressure", expect: &["SXC006"], report: lint_vm(&mut vm) }
}

/// The same reduction re-reads its operand stream every iteration with
/// nothing written in between — memory traffic a common-subexpression
/// pass (or a hoisted scalar) would eliminate.
pub fn reload_reduction() -> Fixture {
    let mut vm = Vm::new(presets::sx4_benchmarked());
    vm.start_trace();
    let mut ft = Ftrace::new();
    let a: Vec<f64> = (0..6_000).map(|i| i as f64 * 0.5).collect();
    ft.region("reload-reduction", &mut vm, |vm| {
        for _ in 0..4 {
            vm.sum(&a);
        }
    });
    Fixture { name: "reload-reduction", expect: &["SXC007"], report: lint_vm(&mut vm) }
}

/// A loop count sitting just above four full vector strips: every pass
/// pays a fifth startup charge for a 16-element remainder.
pub fn short_strip_remainder() -> Fixture {
    let mut vm = Vm::new(presets::sx4_benchmarked());
    vm.start_trace();
    let mut ft = Ftrace::new();
    let n = 256 * 4 + 16;
    let a = vec![1.0f64; n];
    let b = vec![2.0f64; n];
    let mut c = vec![0.0f64; n];
    ft.region("short-strip", &mut vm, |vm| {
        for _ in 0..20 {
            vm.add(&mut c, &a, &b);
        }
    });
    Fixture { name: "short-strip", expect: &["SXC008"], report: lint_vm(&mut vm) }
}

fn lock_report(obs: &LockObservations) -> Report {
    let mut report = Report::new();
    report.extend(crate::lockgraph::analyze(obs));
    report
}

/// Two threads take the same pair of locks in opposite orders — the
/// canonical ABBA deadlock. Observations are synthesized directly (the
/// global registry is process-wide and would cross-pollute parallel
/// tests).
pub fn inverted_locks() -> Fixture {
    let mut obs = LockObservations::new();
    obs.record_stack(&["sxd.cache", "sxd.journal"]);
    obs.record_stack(&["sxd.journal", "sxd.cache"]);
    Fixture { name: "inverted-locks", expect: &["SXC301"], report: lock_report(&obs) }
}

/// A guard held across a journal fsync: every thread wanting the cache
/// lock waits out the disk.
pub fn guard_across_io() -> Fixture {
    let mut obs = LockObservations::new();
    obs.record_crossing("sxd.journal.append", "sxd.cache");
    Fixture { name: "guard-across-io", expect: &["SXC302"], report: lock_report(&obs) }
}

/// A consistent lock hierarchy (every path takes `inflight`, then
/// `cache`, then `journal` in that order): nothing to report.
pub fn lock_hierarchy_clean() -> Fixture {
    let mut obs = LockObservations::new();
    obs.record_stack(&["sxd.inflight", "sxd.cache"]);
    obs.record_stack(&["sxd.inflight", "sxd.cache", "sxd.journal"]);
    obs.record_stack(&["sxd.cache", "sxd.journal"]);
    Fixture { name: "lock-hierarchy-clean", expect: &[], report: lock_report(&obs) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pathologies_are_caught_and_clean_fixtures_stay_clean() {
        for mut f in run_all() {
            assert!(
                f.satisfied(),
                "fixture {} unsatisfied; report:\n{}",
                f.name,
                f.report.render()
            );
        }
    }

    #[test]
    fn stride_fixture_names_the_region() {
        let mut f = stride128_copy();
        let d = f.report.diagnostics().iter().find(|d| d.code == "SXC004").unwrap();
        assert_eq!(d.region, "stride128-copy");
    }

    #[test]
    fn lock_fixtures_name_their_sites() {
        let mut f = inverted_locks();
        let r = f.report.render();
        assert!(r.contains("sxd.cache"), "{r}");
        let mut g = guard_across_io();
        assert!(g.report.render().contains("sxd.journal.append"));
    }

    #[test]
    fn fixture_reports_are_byte_identical_across_runs() {
        let once: Vec<String> = run_all().iter_mut().map(|f| f.report.render()).collect();
        let twice: Vec<String> = run_all().iter_mut().map(|f| f.report.render()).collect();
        assert_eq!(once, twice);
    }
}
