//! Cost-ledger auditing.
//!
//! The simulator's credibility rests on its accounting: every simulated
//! second must be the sum of recorded charges, and every report (PROGINF,
//! FTRACE) must partition the same ledger. The auditor cross-checks four
//! invariants over a [`Vm`] that traced its whole life:
//!
//! - **SXC201** — every recorded charge is finite and non-negative (which
//!   also makes the ledger monotone);
//! - **SXC202** — the trace's cost sum equals the lifetime ledger;
//! - **SXC203** — PROGINF's cycle partition (vector + scalar + other)
//!   equals the lifetime cycles;
//! - **SXC204** — FTRACE per-region exclusive totals never exceed the
//!   lifetime ledger (regions are disjoint windows of it).

use crate::report::{Diagnostic, Severity};
use sxsim::{Cost, Ftrace, OpTrace, Vm};

/// Relative tolerance for floating-point cycle comparisons.
const REL_TOL: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

fn err(code: &'static str, region: &str, message: String) -> Diagnostic {
    Diagnostic {
        severity: Severity::Error,
        code,
        region: region.to_string(),
        message,
        hint: "the timing model and its reports disagree — a charge path is \
               double-counting or bypassing the ledger"
            .to_string(),
    }
}

/// Audit a [`Vm`]'s ledger against the trace of its whole life (tracing
/// must have been enabled before the first charge, or SXC202 will fire
/// spuriously).
pub fn audit_vm(vm: &Vm, trace: &OpTrace) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // SXC201: each event's cost is finite and non-negative. A run of
    // identical events is one finding per event, numbered in charge order.
    let mut sum = Cost::ZERO;
    let mut i = 0;
    for (ev, reps) in trace.runs() {
        let c = ev.cost();
        let bad = !c.cycles.is_finite()
            || c.cycles < 0.0
            || !c.cray_flops.is_finite()
            || c.cray_flops < 0.0;
        for _ in 0..*reps {
            if bad {
                out.push(err(
                    "SXC201",
                    "(trace)",
                    format!("event {i} charged a non-finite or negative cost: {c:?}"),
                ));
            }
            sum.add(c);
            i += 1;
        }
    }

    // SXC202: trace sum == lifetime ledger.
    let life = vm.lifetime_cost();
    if !close(sum.cycles, life.cycles) || sum.flops != life.flops || sum.bytes != life.bytes {
        out.push(err(
            "SXC202",
            "(trace)",
            format!(
                "trace sums to {:.3} cycles / {} flops / {} bytes but the lifetime ledger \
                 holds {:.3} / {} / {}",
                sum.cycles, sum.flops, sum.bytes, life.cycles, life.flops, life.bytes
            ),
        ));
    }

    // SXC203: PROGINF's partition covers the ledger exactly.
    let s = vm.stats();
    let partition = s.vector_cycles + s.scalar_cycles + s.other_cycles;
    if !close(partition, life.cycles) {
        out.push(err(
            "SXC203",
            "(proginf)",
            format!(
                "vector {:.3} + scalar {:.3} + other {:.3} = {partition:.3} cycles, but the \
                 lifetime ledger holds {:.3}",
                s.vector_cycles, s.scalar_cycles, s.other_cycles, life.cycles
            ),
        ));
    }

    out
}

/// Audit FTRACE region totals against the [`Vm`] they were collected on.
pub fn audit_ftrace(vm: &Vm, ft: &Ftrace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let life = vm.lifetime_cost().cycles;
    let regions: f64 = ft.regions().values().map(|r| r.cost.cycles).sum();
    if regions > life * (1.0 + REL_TOL) + REL_TOL {
        out.push(err(
            "SXC204",
            "(ftrace)",
            format!(
                "exclusive region totals sum to {regions:.3} cycles, more than the lifetime \
                 ledger's {life:.3}"
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxsim::{presets, Ftrace, LocalityPattern, Vm};

    fn traced_vm() -> Vm {
        let mut vm = Vm::new(presets::sx4_benchmarked());
        vm.start_trace();
        vm
    }

    #[test]
    fn healthy_vm_audits_clean() {
        let mut vm = traced_vm();
        let mut ft = Ftrace::new();
        let a = vec![1.0f64; 10_000];
        let mut b = vec![0.0f64; 10_000];
        ft.region("copy", &mut vm, |vm| vm.copy(&mut b, &a));
        ft.region("mixed", &mut vm, |vm| {
            vm.sqrt(&mut b, &a);
            vm.charge_scalar_loop(500, 2.0, 2.0, 1.0, LocalityPattern::Streaming);
            vm.charge(Cost::cycles(123.0));
        });
        let trace = vm.take_trace().unwrap();
        assert!(audit_vm(&vm, &trace).is_empty());
        assert!(audit_ftrace(&vm, &ft).is_empty());
    }

    #[test]
    fn truncated_trace_fails_the_sum_check() {
        let mut vm = Vm::new(presets::sx4_benchmarked());
        let a = vec![1.0f64; 1000];
        let mut b = vec![0.0f64; 1000];
        vm.copy(&mut b, &a); // charged before tracing begins
        vm.start_trace();
        vm.copy(&mut b, &a);
        let trace = vm.take_trace().unwrap();
        let ds = audit_vm(&vm, &trace);
        assert!(ds.iter().any(|d| d.code == "SXC202"), "{ds:?}");
    }

    #[test]
    fn audit_catches_an_out_of_band_charge() {
        // A charge made through a second Vm (same trace spliced in) leaves
        // the audited Vm's ledger short relative to the trace.
        let mut vm = traced_vm();
        let a = vec![1.0f64; 1000];
        let mut b = vec![0.0f64; 1000];
        vm.copy(&mut b, &a);
        let mut other = traced_vm();
        other.copy(&mut b, &a);
        other.copy(&mut b, &a);
        let foreign = other.take_trace().unwrap();
        let ds = audit_vm(&vm, &foreign);
        assert!(ds.iter().any(|d| d.code == "SXC202"), "{ds:?}");
    }

    #[test]
    fn empty_vm_is_clean() {
        let mut vm = traced_vm();
        let trace = vm.take_trace().unwrap();
        assert!(audit_vm(&vm, &trace).is_empty());
    }
}
