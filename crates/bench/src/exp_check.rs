//! `ncar-bench check` — run the `sxcheck` analyzer: seeded-pathology
//! fixtures first (the checker's own self-test), then a traced run of the
//! stock kernel suite on every machine preset, each linted and put through
//! the cost-ledger audit. The lints are model-relative, so a stride that
//! is harmless on 1024 banks can collide on 256. All output is
//! byte-identical across runs.
//!
//! `--json` emits one `sxcheck-v1` document (via [`ncar_suite::Json`], so
//! it round-trips through the same parser the daemon wire protocol uses)
//! instead of the human report; `tests/golden/check.json` pins it, so a
//! new or vanished finding fails the golden test.
//!
//! Exit codes: `2` when the checker itself is broken (a seeded pathology
//! not flagged, a clean fixture flagged); `0` otherwise. Findings are
//! diagnoses, not failures.

use ncar_kernels::membw::{copy_kernel, ia_kernel, xpose_kernel};
use ncar_kernels::radabs::radabs;
use ncar_suite::{Instance, Json};
use sxcheck::fixtures::Fixture;
use sxcheck::{Diagnostic, Report};
use sxsim::{presets, Ftrace, MachineModel, Vm};

/// Trace the representative kernels of the suite under FTRACE regions on
/// the given machine. Returns the Vm (ledger + trace attached) and its
/// Ftrace.
fn stock_suite_on(model: MachineModel) -> (Vm, Ftrace) {
    let mut vm = Vm::new(model);
    vm.start_trace();
    let mut ft = Ftrace::new();
    ft.region("copy", &mut vm, |vm| {
        copy_kernel(vm, Instance { n: 100_000, m: 10 });
    });
    ft.region("ia", &mut vm, |vm| {
        ia_kernel(vm, Instance { n: 100_000, m: 10 }, 42);
    });
    ft.region("xpose", &mut vm, |vm| {
        xpose_kernel(vm, Instance { n: 1_000, m: 1_000 });
    });
    ft.region("radabs", &mut vm, |vm| {
        radabs(vm, 512, 18);
    });
    (vm, ft)
}

/// One machine's stock-suite lints and ledger audit.
struct MachineRun {
    machine: &'static str,
    report: Report,
}

/// Run, lint and audit the stock suite on every machine preset.
fn run_machines() -> Vec<MachineRun> {
    presets::PRESET_NAMES
        .iter()
        .map(|&machine| {
            let model = presets::by_name(machine).expect("preset names resolve");
            let (mut vm, ft) = stock_suite_on(model);
            let model = vm.model().clone();
            let trace = vm.take_trace().expect("stock suite runs traced");
            let mut report = sxcheck::check_trace(&model, &trace);
            report.extend(sxcheck::audit::audit_vm(&vm, &trace));
            report.extend(sxcheck::audit::audit_ftrace(&vm, &ft));
            MachineRun { machine, report }
        })
        .collect()
}

/// Run the full check with the standard fixtures.
pub fn run(json: bool) -> i32 {
    run_with(json, sxcheck::fixtures::run_all())
}

/// The engine behind [`run`], parameterized over the fixture set so the
/// exit-code test can inject a broken fixture.
fn run_with(json: bool, fixtures: Vec<Fixture>) -> i32 {
    let mut fixture_rows: Vec<(Fixture, bool)> = fixtures
        .into_iter()
        .map(|f| {
            let satisfied = f.satisfied();
            (f, satisfied)
        })
        .collect();
    let self_test_ok = fixture_rows.iter().all(|(_, satisfied)| *satisfied);
    let exit = if self_test_ok { 0 } else { 2 };
    let mut runs = run_machines();

    if json {
        println!("{}", to_json(&fixture_rows, &mut runs, self_test_ok, exit));
        return exit;
    }

    println!("==> sxcheck fixtures (seeded pathologies + clean controls)");
    for (f, satisfied) in &mut fixture_rows {
        let expect = if f.expect.is_empty() {
            "expects no findings".to_string()
        } else {
            format!("expects {}", f.expect.join(", "))
        };
        println!("[{}] {expect}", f.name);
        print!("{}", f.report.render());
        if !*satisfied {
            println!("FIXTURE FAILED: {} did not produce the expected report", f.name);
        }
    }
    for r in &mut runs {
        println!(
            "\n==> sxcheck stock suite on {} (COPY/IA/XPOSE/RADABS traced, ledger audited)",
            r.machine
        );
        print!("{}", r.report.render());
    }
    if !self_test_ok {
        println!("\nsxcheck self-test FAILED");
    }
    exit
}

fn diag_json(d: &Diagnostic) -> Json {
    Json::Obj(vec![
        ("severity".to_string(), Json::Str(d.severity.label().to_string())),
        ("code".to_string(), Json::Str(d.code.to_string())),
        ("region".to_string(), Json::Str(d.region.clone())),
        ("message".to_string(), Json::Str(d.message.clone())),
        ("hint".to_string(), Json::Str(d.hint.clone())),
    ])
}

/// The stable `sxcheck-v1` document. Field order is fixed; every value
/// goes through [`ncar_suite::Json`], so the output round-trips through
/// `Json::parse` byte-identically.
fn to_json(
    fixture_rows: &[(Fixture, bool)],
    runs: &mut [MachineRun],
    self_test_ok: bool,
    exit: i32,
) -> Json {
    let fixtures = Json::Arr(
        fixture_rows
            .iter()
            .map(|(f, satisfied)| {
                Json::Obj(vec![
                    ("name".to_string(), Json::Str(f.name.to_string())),
                    (
                        "expect".to_string(),
                        Json::Arr(f.expect.iter().map(|c| Json::Str(c.to_string())).collect()),
                    ),
                    ("satisfied".to_string(), Json::Bool(*satisfied)),
                    ("findings".to_string(), Json::Num(f.report.finding_count() as f64)),
                ])
            })
            .collect(),
    );
    let machines = Json::Arr(
        runs.iter_mut()
            .map(|r| {
                Json::Obj(vec![
                    ("machine".to_string(), Json::Str(r.machine.to_string())),
                    (
                        "findings".to_string(),
                        Json::Arr(r.report.diagnostics().iter().map(diag_json).collect()),
                    ),
                ])
            })
            .collect(),
    );
    Json::Obj(vec![
        ("schema".to_string(), Json::Str("sxcheck-v1".to_string())),
        ("self_test_ok".to_string(), Json::Bool(self_test_ok)),
        ("fixtures".to_string(), fixtures),
        ("machines".to_string(), machines),
        ("exit".to_string(), Json::Num(exit as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stock_suite_report_is_deterministic() {
        let render = || {
            let (mut vm, _ft) = stock_suite_on(presets::sx4_benchmarked());
            let model = vm.model().clone();
            let trace = vm.take_trace().unwrap();
            sxcheck::check_trace(&model, &trace).render()
        };
        assert_eq!(render(), render());
    }

    #[test]
    fn stock_suite_flags_only_the_gather_probe() {
        // IA is a gather-bandwidth probe, so SXC003 on `ia` is the expected
        // (and correct) characterization on the vector machines; nothing
        // else fires, and every ledger audits clean.
        for mut r in run_machines() {
            for d in r.report.diagnostics() {
                assert_eq!((d.code, d.region.as_str()), ("SXC003", "ia"), "{}: {d}", r.machine);
            }
        }
    }

    #[test]
    fn exit_2_when_a_fixture_is_broken() {
        // A fixture that expects a code its report does not contain means
        // the checker itself is broken.
        let broken = Fixture { name: "broken", expect: &["SXC999"], report: Report::new() };
        assert_eq!(run_with(true, vec![broken]), 2);
    }

    #[test]
    fn json_document_round_trips_through_core_json() {
        let fixture_rows: Vec<(Fixture, bool)> = sxcheck::fixtures::run_all()
            .into_iter()
            .map(|f| {
                let satisfied = f.satisfied();
                (f, satisfied)
            })
            .collect();
        let text = to_json(&fixture_rows, &mut run_machines(), true, 0).to_string();
        let reparsed = Json::parse(&text).expect("sxcheck-v1 parses");
        assert_eq!(reparsed.to_string(), text, "print -> parse -> print is a fixed point");
        // Spot-check the stable envelope.
        assert!(text.starts_with("{\"schema\":\"sxcheck-v1\""), "{}", &text[..60]);
    }

    #[test]
    fn json_is_deterministic_across_runs() {
        let build = || to_json(&[], &mut run_machines(), true, 0).to_string();
        assert_eq!(build(), build());
    }
}
