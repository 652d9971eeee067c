//! `ncar-bench check` — run the `sxcheck` analyzer: seeded-pathology
//! fixtures first (the checker's own self-test), then a traced run of the
//! stock kernel suite, then the cost-ledger audit. All output is
//! byte-identical across runs.
//!
//! Three gating surfaces stack on the base run:
//!
//! - `--json` emits one `sxcheck-v1` document (via [`ncar_suite::Json`],
//!   so it round-trips through the same parser the daemon wire protocol
//!   uses) instead of the human report;
//! - `--matrix` runs the stock suite on *every* machine preset, not just
//!   the benchmarked SX-4 — the lints are model-relative, so a stride
//!   that is harmless on 1024 banks can collide on 256;
//! - `sxcheck.baseline` (or `--baseline FILE`) suppresses *known*
//!   findings per (machine, code, region), so `--matrix --deny-warnings`
//!   fails CI only on findings that are new.
//!
//! Exit codes: `2` when the checker itself is broken (a seeded pathology
//! not flagged, a clean fixture flagged, an unreadable baseline); `1`
//! when `--deny-warnings` and gating findings exist; `0` otherwise. In
//! matrix mode the gate counts only non-baselined stock-suite findings;
//! in single mode it counts everything, fixtures included — the fixtures
//! *must* report, so plain `check --deny-warnings` always exits 1.

use std::path::Path;

use ncar_kernels::membw::{copy_kernel, ia_kernel, xpose_kernel};
use ncar_kernels::radabs::radabs;
use ncar_suite::{Instance, Json};
use sxcheck::fixtures::Fixture;
use sxcheck::{Baseline, Diagnostic};
use sxsim::{presets, Ftrace, MachineModel, Vm};

/// Default suppression file, looked for in the working directory when
/// `--matrix` runs without an explicit `--baseline`.
pub const BASELINE_FILE: &str = "sxcheck.baseline";

/// What the `check` subcommand was asked to do.
#[derive(Debug, Clone, Default)]
pub struct CheckOpts {
    /// Fail (exit 1) when gating findings exist.
    pub deny_warnings: bool,
    /// Emit the `sxcheck-v1` JSON document instead of the text report.
    pub json: bool,
    /// Run the stock suite on every machine preset.
    pub matrix: bool,
    /// Explicit suppression file (overrides the [`BASELINE_FILE`] probe).
    pub baseline_path: Option<String>,
}

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

/// The stock suite on the benchmarked SX-4 (the single-machine default).
#[cfg(test)]
fn stock_suite() -> (Vm, Ftrace) {
    stock_suite_on(presets::sx4_benchmarked())
}

/// One machine's stock-suite findings, partitioned against the baseline.
struct MachineRun {
    machine: &'static str,
    /// (diagnostic, suppressed-by-baseline).
    findings: Vec<(Diagnostic, bool)>,
    rendered: String,
}

/// Run the stock suite on each machine key and judge it. Single-machine
/// mode also runs the ledger audit (whose findings gate like the lints).
fn run_machines(keys: &[&'static str], baseline: &Baseline) -> (Vec<MachineRun>, usize) {
    let mut runs = Vec::new();
    let mut audit_findings = 0usize;
    for &key in keys {
        let model = presets::by_name(key).expect("preset names resolve");
        let (mut vm, ft) = stock_suite_on(model);
        let model = vm.model().clone();
        let trace = vm.take_trace().expect("stock suite runs traced");
        let mut report = sxcheck::check_trace(&model, &trace);
        if keys.len() == 1 {
            let before = report.len();
            report.extend(sxcheck::audit::audit_vm(&vm, &trace));
            report.extend(sxcheck::audit::audit_ftrace(&vm, &ft));
            audit_findings = report.len() - before;
        }
        let rendered = report.render();
        let findings = report
            .diagnostics()
            .iter()
            .map(|d| (d.clone(), baseline.is_suppressed(key, d)))
            .collect();
        runs.push(MachineRun { machine: key, findings, rendered });
    }
    (runs, audit_findings)
}

/// Resolve and parse the suppression baseline for this invocation.
fn load_baseline(opts: &CheckOpts) -> Result<Baseline, String> {
    let path = match (&opts.baseline_path, opts.matrix) {
        (Some(p), _) => Some(p.clone()),
        (None, true) if Path::new(BASELINE_FILE).exists() => Some(BASELINE_FILE.to_string()),
        _ => None,
    };
    let Some(path) = path else { return Ok(Baseline::empty()) };
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    Baseline::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Run the full check with the standard fixtures.
pub fn run(opts: &CheckOpts) -> i32 {
    let baseline = match load_baseline(opts) {
        Ok(b) => b,
        Err(msg) => {
            eprintln!("sxcheck: {msg}");
            return 2;
        }
    };
    run_with(opts, sxcheck::fixtures::run_all(), &baseline)
}

/// The engine behind [`run`], parameterized over the fixture set (so the
/// exit-code contract tests can inject a broken fixture) and an already
/// parsed baseline.
fn run_with(opts: &CheckOpts, fixtures: Vec<Fixture>, baseline: &Baseline) -> i32 {
    let mut self_test_ok = true;
    let mut fixture_findings = 0usize;
    let mut fixture_rows: Vec<(Fixture, bool, String)> = Vec::new();
    for mut f in fixtures {
        let satisfied = f.satisfied();
        if !satisfied {
            self_test_ok = false;
        }
        fixture_findings += f.report.len();
        let rendered = f.report.render();
        fixture_rows.push((f, satisfied, rendered));
    }

    let keys: Vec<&'static str> =
        if opts.matrix { presets::PRESET_NAMES.to_vec() } else { vec!["sx4-9.2"] };
    let (runs, audit_findings) = run_machines(&keys, baseline);

    let stock_findings: usize = runs.iter().map(|r| r.findings.len()).sum();
    let suppressed: usize =
        runs.iter().map(|r| r.findings.iter().filter(|(_, s)| *s).count()).sum();
    let fresh = stock_findings - suppressed;
    let total = fixture_findings + stock_findings;

    // What --deny-warnings gates on: in matrix mode only un-baselined
    // stock-suite findings; in single mode everything (the historical
    // contract — the fixtures are *supposed* to report).
    let gating = if opts.matrix { fresh } else { total };

    let exit = if !self_test_ok {
        2
    } else if opts.deny_warnings && gating > 0 {
        1
    } else {
        0
    };

    if opts.json {
        println!("{}", to_json(opts, &fixture_rows, &runs, self_test_ok, exit));
        return exit;
    }

    println!("==> sxcheck fixtures (seeded pathologies + clean controls)");
    for (f, satisfied, rendered) in &fixture_rows {
        let expect = if f.expect.is_empty() {
            "expects no findings".to_string()
        } else {
            format!("expects {}", f.expect.join(", "))
        };
        println!("[{}] {expect}", f.name);
        print!("{rendered}");
        if !satisfied {
            println!("FIXTURE FAILED: {} did not produce the expected report", f.name);
        }
    }

    for r in &runs {
        println!("\n==> sxcheck stock suite on {} (COPY/IA/XPOSE/RADABS traced)", r.machine);
        print!("{}", r.rendered);
        for (d, s) in &r.findings {
            if *s {
                println!("  baselined: {}", Baseline::line_for(r.machine, d));
            }
        }
    }
    if !opts.matrix {
        println!("\n==> ledger audit: {audit_findings} finding(s)");
    }

    if !self_test_ok {
        println!("\nsxcheck self-test FAILED");
    } else if opts.deny_warnings && gating > 0 {
        if opts.matrix {
            println!(
                "\n--deny-warnings: {fresh} new finding(s) not in the baseline, failing; \
                 to accept them, add:"
            );
            for r in &runs {
                for (d, s) in &r.findings {
                    if !*s {
                        println!("  {}", Baseline::line_for(r.machine, d));
                    }
                }
            }
        } else {
            println!("\n--deny-warnings: {gating} findings, failing");
        }
    } else if opts.matrix {
        println!(
            "\nmatrix clean: {stock_findings} finding(s), {suppressed} baselined, {fresh} new"
        );
    }
    exit
}

fn diag_json(d: &Diagnostic, suppressed: Option<bool>) -> Json {
    let mut fields = vec![
        ("severity".to_string(), Json::Str(d.severity.label().to_string())),
        ("code".to_string(), Json::Str(d.code.to_string())),
        ("region".to_string(), Json::Str(d.region.clone())),
        ("message".to_string(), Json::Str(d.message.clone())),
        ("hint".to_string(), Json::Str(d.hint.clone())),
    ];
    if let Some(s) = suppressed {
        fields.push(("suppressed".to_string(), Json::Bool(s)));
    }
    Json::Obj(fields)
}

/// The stable `sxcheck-v1` document. Field order is fixed; every value
/// goes through [`ncar_suite::Json`], so the output round-trips through
/// `Json::parse` byte-identically.
fn to_json(
    opts: &CheckOpts,
    fixture_rows: &[(Fixture, bool, String)],
    runs: &[MachineRun],
    self_test_ok: bool,
    exit: i32,
) -> Json {
    let fixtures = Json::Arr(
        fixture_rows
            .iter()
            .map(|(f, satisfied, _)| {
                Json::Obj(vec![
                    ("name".to_string(), Json::Str(f.name.to_string())),
                    (
                        "expect".to_string(),
                        Json::Arr(f.expect.iter().map(|c| Json::Str(c.to_string())).collect()),
                    ),
                    ("satisfied".to_string(), Json::Bool(*satisfied)),
                    ("findings".to_string(), Json::Num(f.report.len() as f64)),
                ])
            })
            .collect(),
    );
    let machines = Json::Arr(
        runs.iter()
            .map(|r| {
                let new = r.findings.iter().filter(|(_, s)| !*s).count();
                Json::Obj(vec![
                    ("machine".to_string(), Json::Str(r.machine.to_string())),
                    (
                        "findings".to_string(),
                        Json::Arr(r.findings.iter().map(|(d, s)| diag_json(d, Some(*s))).collect()),
                    ),
                    ("new".to_string(), Json::Num(new as f64)),
                    ("suppressed".to_string(), Json::Num((r.findings.len() - new) as f64)),
                ])
            })
            .collect(),
    );
    Json::Obj(vec![
        ("schema".to_string(), Json::Str("sxcheck-v1".to_string())),
        ("mode".to_string(), Json::Str(if opts.matrix { "matrix" } else { "single" }.to_string())),
        ("deny_warnings".to_string(), Json::Bool(opts.deny_warnings)),
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
            let (mut vm, _ft) = stock_suite();
            let model = vm.model().clone();
            let trace = vm.take_trace().unwrap();
            sxcheck::check_trace(&model, &trace).render()
        };
        assert_eq!(render(), render());
    }

    #[test]
    fn stock_suite_flags_only_the_gather_probe() {
        let (mut vm, _ft) = stock_suite();
        let model = vm.model().clone();
        let trace = vm.take_trace().unwrap();
        let mut report = sxcheck::check_trace(&model, &trace);
        // IA is a gather-bandwidth probe, so SXC003 on `ia` is the expected
        // (and correct) characterization; nothing else should fire.
        for d in report.diagnostics() {
            assert_eq!((d.code, d.region.as_str()), ("SXC003", "ia"), "{d}");
        }
    }

    #[test]
    fn stock_suite_ledger_audits_clean() {
        let (mut vm, ft) = stock_suite();
        let trace = vm.take_trace().unwrap();
        assert!(sxcheck::audit::audit_vm(&vm, &trace).is_empty());
        assert!(sxcheck::audit::audit_ftrace(&vm, &ft).is_empty());
    }

    // --- exit-code contract -------------------------------------------

    fn opts(deny: bool, matrix: bool) -> CheckOpts {
        CheckOpts { deny_warnings: deny, json: true, matrix, baseline_path: None }
    }

    #[test]
    fn exit_0_without_deny_even_with_findings() {
        let code = run_with(&opts(false, false), sxcheck::fixtures::run_all(), &Baseline::empty());
        assert_eq!(code, 0);
    }

    #[test]
    fn exit_1_when_deny_and_findings_exist() {
        // The seeded pathologies *must* report, so plain --deny-warnings
        // always trips: exit 1 means "findings", never "checker broken".
        let code = run_with(&opts(true, false), sxcheck::fixtures::run_all(), &Baseline::empty());
        assert_eq!(code, 1);
    }

    #[test]
    fn exit_2_when_a_fixture_is_broken() {
        // A fixture that expects a code its report does not contain means
        // the checker itself is broken — worse than findings.
        let broken =
            Fixture { name: "broken", expect: &["SXC999"], report: sxcheck::Report::new() };
        let code = run_with(&opts(false, false), vec![broken], &Baseline::empty());
        assert_eq!(code, 2);
    }

    #[test]
    fn exit_2_beats_exit_1_under_deny() {
        let broken =
            Fixture { name: "broken", expect: &["SXC999"], report: sxcheck::Report::new() };
        let code = run_with(&opts(true, false), vec![broken], &Baseline::empty());
        assert_eq!(code, 2);
    }

    #[test]
    fn unreadable_baseline_is_exit_2() {
        let o = CheckOpts {
            deny_warnings: false,
            json: true,
            matrix: true,
            baseline_path: Some("/nonexistent/sxcheck.baseline".to_string()),
        };
        assert_eq!(run(&o), 2);
    }

    // --- matrix + baseline gating -------------------------------------

    /// Baseline text accepting every current matrix finding.
    fn full_baseline() -> Baseline {
        let (runs, _) = run_machines(presets::PRESET_NAMES.as_ref(), &Baseline::empty());
        let lines: Vec<String> = runs
            .iter()
            .flat_map(|r| r.findings.iter().map(|(d, _)| Baseline::line_for(r.machine, d)))
            .collect();
        Baseline::parse(&lines.join("\n")).unwrap()
    }

    #[test]
    fn matrix_deny_passes_with_a_complete_baseline() {
        let code = run_with(&opts(true, true), sxcheck::fixtures::run_all(), &full_baseline());
        assert_eq!(code, 0, "every stock finding baselined => nothing new => clean gate");
    }

    #[test]
    fn matrix_deny_fails_without_a_baseline_iff_findings_exist() {
        let (runs, _) = run_machines(presets::PRESET_NAMES.as_ref(), &Baseline::empty());
        let any: usize = runs.iter().map(|r| r.findings.len()).sum();
        let code = run_with(&opts(true, true), sxcheck::fixtures::run_all(), &Baseline::empty());
        assert_eq!(code, if any > 0 { 1 } else { 0 });
        assert!(any > 0, "the gather probe reports on the vector machines");
    }

    #[test]
    fn committed_baseline_matches_the_current_matrix() {
        // The repo's sxcheck.baseline must stay in sync with the lints:
        // every current finding suppressed, no stale machine keys needed.
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../sxcheck.baseline");
        let text = std::fs::read_to_string(&manifest).expect("committed sxcheck.baseline");
        let baseline = Baseline::parse(&text).unwrap();
        let (runs, _) = run_machines(presets::PRESET_NAMES.as_ref(), &Baseline::empty());
        for r in &runs {
            for (d, _) in &r.findings {
                assert!(
                    baseline.is_suppressed(r.machine, d),
                    "finding missing from sxcheck.baseline: {}",
                    Baseline::line_for(r.machine, d)
                );
            }
        }
    }

    // --- sxcheck-v1 JSON ----------------------------------------------

    #[test]
    fn json_document_round_trips_through_core_json() {
        let baseline = full_baseline();
        let mut fixture_rows = Vec::new();
        for mut f in sxcheck::fixtures::run_all() {
            let satisfied = f.satisfied();
            let rendered = f.report.render();
            fixture_rows.push((f, satisfied, rendered));
        }
        let (runs, _) = run_machines(presets::PRESET_NAMES.as_ref(), &baseline);
        let doc = to_json(&opts(true, true), &fixture_rows, &runs, true, 0);
        let text = doc.to_string();
        let reparsed = Json::parse(&text).expect("sxcheck-v1 parses");
        assert_eq!(reparsed.to_string(), text, "print -> parse -> print is a fixed point");
        // Spot-check the stable envelope.
        assert!(text.starts_with("{\"schema\":\"sxcheck-v1\""), "{}", &text[..60]);
        assert!(text.contains("\"mode\":\"matrix\""));
    }

    #[test]
    fn json_is_deterministic_across_runs() {
        let build = || {
            let (runs, _) = run_machines(&["sx4-9.2"], &Baseline::empty());
            to_json(&opts(false, false), &[], &runs, true, 0).to_string()
        };
        assert_eq!(build(), build());
    }
}
