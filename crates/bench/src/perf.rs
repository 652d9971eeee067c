//! `ncar-bench perf` — the in-repo wall-clock harness that proves the
//! simulator's own hot path is fast.
//!
//! The paper's argument is about *sustained* performance; ours is too, one
//! level down: the analytic simulator must charge millions of vector ops
//! per second or the daemon serves machine models slower than the models
//! run. This subcommand times fixed macro-workloads (the Figure 5 ladder's
//! charge stream, the Figure 6 RFFT families, a short priced CCM2 run)
//! with warmup + median-of-K and writes `BENCH_<pr>.json` so every later
//! PR can compare against the trajectory. Serving is measured by the
//! standalone `servebench` package, not here.
//!
//! Schema (`ncar-bench-perf-v1`):
//!
//! ```text
//! { "schema": "ncar-bench-perf-v1", "smoke": bool, "runs": K,
//!   "machine": "sx4-9.2",
//!   "workloads": { "<name>": { "wall_ms": f, "sim_seconds": f,
//!                              "ops_charged": u, "ops_per_sec": f } } }
//! ```
//!
//! `wall_ms` is host wall-clock (median of K timed runs after one warmup;
//! for an even K the two middle samples are averaged); `sim_seconds` is
//! simulated seconds charged by one run; `ops_charged` is the number of
//! vector operations the ledger recorded; `ops_per_sec` is
//! `ops_charged / wall_ms * 1000` — the headline throughput number the
//! acceptance criteria compare across PRs. Files written before
//! `climate_t42_priced` replaced them also hold `climate_t42` (replays of
//! a recorded step) and `sxd_flood` (an in-process daemon flood whose
//! `ops_charged` counted jobs); they still validate.
//!
//! `climate_t42_priced` prices its steps ([`ccm_proxy::steady_step`]), so
//! its wall time — like the other charge-stream workloads — measures the
//! simulator's charging throughput, not the functional model arithmetic.

use std::time::Instant;

use ccm_proxy::{steady_step, Ccm2Config, Ccm2Proxy, Resolution};
use ncar_kernels::fft::{charge_transform, LoopOrder};
use ncar_suite::{constant_volume_ladder, rfft_instances, xpose_ladder, FftFamily, Json};
use sxsim::{presets, Access, MachineModel, VecOp, Vm, VopClass};

/// Machine every charge-stream workload runs on (the benchmarked SX-4).
const MACHINE: &str = "sx4-9.2";

fn machine() -> MachineModel {
    presets::by_name(MACHINE).expect("the benchmarked SX-4 preset exists")
}

/// One measured workload: median host wall time over `runs` timed
/// executions (after one warmup), plus the deterministic per-run ledger.
struct Sample {
    wall_ms: f64,
    sim_seconds: f64,
    ops_charged: u64,
    ops_per_sec: f64,
}

/// Median of the timed samples. For an even count the two middle samples
/// are averaged — indexing `len / 2` alone picks the upper-middle one,
/// which skews the reported wall time high on noisy hosts.
fn median(walls: &mut [f64]) -> f64 {
    walls.sort_by(f64::total_cmp);
    let mid = walls.len() / 2;
    if walls.len().is_multiple_of(2) {
        0.5 * (walls[mid - 1] + walls[mid])
    } else {
        walls[mid]
    }
}

fn measure(runs: usize, mut f: impl FnMut() -> (f64, u64)) -> Sample {
    f(); // warmup: page in code and data, fill allocator pools
    let mut walls = Vec::with_capacity(runs);
    let (mut sim_seconds, mut ops_charged) = (0.0, 0);
    for _ in 0..runs.max(1) {
        let t = Instant::now();
        let (s, o) = f();
        walls.push(t.elapsed().as_secs_f64() * 1e3);
        sim_seconds = s;
        ops_charged = o;
    }
    let wall_ms = median(&mut walls);
    let ops_per_sec = if wall_ms > 0.0 { ops_charged as f64 / wall_ms * 1e3 } else { 0.0 };
    Sample { wall_ms, sim_seconds, ops_charged, ops_per_sec }
}

/// Replay the Figure 5 charge stream: for every ladder instance, the COPY,
/// IA (gather + scatter) and XPOSE kernels' vector operations, with the
/// same per-op fidelity the kernels charge (`m` ops of length `n`, or
/// `m*n` stride-`n` column ops for XPOSE). Pure simulator hot path — no
/// functional data movement — so wall time is charging throughput.
fn fig5_ladder(volume: usize, xpose_max_n: usize) -> (f64, u64) {
    let mut vm = Vm::new(machine());
    for inst in constant_volume_ladder(volume) {
        let copy =
            VecOp::new(inst.n, VopClass::Logical, &[Access::Stride(1)], &[Access::Stride(1)]);
        let ia_gather =
            VecOp::new(inst.n, VopClass::Logical, &[Access::Indexed], &[Access::Stride(1)]);
        let ia_scatter =
            VecOp::new(inst.n, VopClass::Logical, &[Access::Stride(1)], &[Access::Indexed]);
        vm.charge_vector_op_repeated(&copy, inst.m);
        vm.charge_vector_op_repeated(&ia_gather, inst.m);
        vm.charge_vector_op_repeated(&ia_scatter, inst.m);
    }
    for inst in xpose_ladder(volume, xpose_max_n) {
        let column =
            VecOp::new(inst.n, VopClass::Logical, &[Access::Stride(1)], &[Access::Stride(inst.n)]);
        vm.charge_vector_op_repeated(&column, inst.m * inst.n);
    }
    (vm.lifetime_cost().seconds(vm.model().clock_ns), vm.stats().vector_ops)
}

/// The Figure 6 regime: charge the RFFT (axis-fastest) transform for every
/// length of all three families, repeated `reps` times.
fn fig6_rfft(volume: usize, reps: usize) -> (f64, u64) {
    let mut vm = Vm::new(machine());
    for _ in 0..reps.max(1) {
        for family in FftFamily::ALL {
            for inst in rfft_instances(family, volume) {
                charge_transform(&mut vm, inst.n, inst.m, LoopOrder::AxisFastest);
            }
        }
    }
    (vm.lifetime_cost().seconds(vm.model().clock_ns), vm.stats().vector_ops)
}

/// A short CCM2 run at T42 on 4 simulated processors, priced: each timed
/// run prices `steps` steps ([`steady_step`]), which charge exactly what
/// functional steps charge without computing them. The vector ops a step
/// charges come from one functional step in setup (outside the timed
/// region, like the other workloads' setup); every step charges the same.
fn climate_t42_priced(steps: usize, smoke: bool) -> impl FnMut() -> (f64, u64) {
    let config = if smoke {
        Ccm2Config::adiabatic(Resolution::T42)
    } else {
        Ccm2Config::benchmark(Resolution::T42)
    };
    let machine = machine();
    let mut model = Ccm2Proxy::new(config.clone(), machine.clone());
    model.step(4);
    let ops_per_step = model.op_stats().vector_ops;
    let steps = steps.max(1);
    move || {
        let sim_seconds = (0..steps).map(|_| steady_step(&config, &machine, 4).seconds).sum();
        (sim_seconds, ops_per_step * steps as u64)
    }
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn render(smoke: bool, runs: usize, results: &[(&str, Sample)]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"schema\":\"ncar-bench-perf-v1\",\"smoke\":{smoke},\"runs\":{runs},\
         \"machine\":\"{MACHINE}\",\"workloads\":{{"
    ));
    for (i, (name, s)) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{name}\":{{\"wall_ms\":{},\"sim_seconds\":{},\"ops_charged\":{},\
             \"ops_per_sec\":{}}}",
            json_f64(s.wall_ms),
            json_f64(s.sim_seconds),
            s.ops_charged,
            json_f64(s.ops_per_sec),
        ));
    }
    out.push_str("}}");
    out
}

/// Validate a `BENCH_*.json` file against the `ncar-bench-perf-v1` schema.
fn validate_text(text: &str) -> Result<usize, String> {
    let doc = Json::parse(text).map_err(|e| format!("not valid JSON: {e:?}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some("ncar-bench-perf-v1") => {}
        other => return Err(format!("schema must be \"ncar-bench-perf-v1\", got {other:?}")),
    }
    if doc.get("smoke").and_then(Json::as_bool).is_none() {
        return Err("missing boolean \"smoke\"".into());
    }
    if doc.get("runs").and_then(Json::as_u64).is_none() {
        return Err("missing integer \"runs\"".into());
    }
    let workloads = match doc.get("workloads") {
        Some(Json::Obj(members)) => members,
        _ => return Err("missing object \"workloads\"".into()),
    };
    if workloads.is_empty() {
        return Err("\"workloads\" is empty".into());
    }
    for (name, w) in workloads {
        for key in ["wall_ms", "sim_seconds", "ops_charged", "ops_per_sec"] {
            let v = w
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("workload {name:?} lacks numeric {key:?}"))?;
            if !v.is_finite() || v < 0.0 {
                return Err(format!("workload {name:?} has bad {key:?}: {v}"));
            }
        }
        if w.get("ops_charged").and_then(Json::as_u64).unwrap_or(0) == 0 {
            return Err(format!("workload {name:?} charged zero ops"));
        }
    }
    Ok(workloads.len())
}

/// `ncar-bench perf [--smoke] [--out FILE] [--runs K] [--validate FILE]`
pub fn cmd_perf(args: &[String]) -> i32 {
    let mut smoke = false;
    let mut out_path = "BENCH_7.json".to_string();
    let mut runs: Option<usize> = None;
    let mut validate: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => match it.next() {
                Some(v) => out_path = v.clone(),
                None => return usage("--out needs a path"),
            },
            "--runs" => match it.next().map(|v| v.parse::<usize>()) {
                Some(Ok(k)) if k > 0 => runs = Some(k),
                _ => return usage("--runs needs a positive count"),
            },
            "--validate" => match it.next() {
                Some(v) => validate = Some(v.clone()),
                None => return usage("--validate needs a path"),
            },
            other => return usage(&format!("unknown flag {other:?}")),
        }
    }

    if let Some(path) = validate {
        return match std::fs::read_to_string(&path) {
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                1
            }
            Ok(text) => match validate_text(&text) {
                Ok(n) => {
                    println!("{path}: valid ncar-bench-perf-v1 ({n} workloads)");
                    0
                }
                Err(e) => {
                    eprintln!("error: {path}: {e}");
                    1
                }
            },
        };
    }

    let runs = runs.unwrap_or(if smoke { 3 } else { 5 });
    // Workload sizes: full exercises the ladders at the paper's volumes;
    // smoke shrinks everything so CI finishes in seconds.
    let (fig5_volume, xpose_max_n) = if smoke { (20_000, 128) } else { (1_000_000, 1000) };
    let (fig6_volume, fig6_reps) = if smoke { (20_000, 2) } else { (1_000_000, 20) };
    let climate_steps = if smoke { 1 } else { 2 };

    let mut results: Vec<(&str, Sample)> = Vec::new();

    eprintln!("perf: fig5_ladder (volume {fig5_volume}, {runs} runs)...");
    results.push(("fig5_ladder", measure(runs, || fig5_ladder(fig5_volume, xpose_max_n))));

    eprintln!("perf: fig6_rfft (volume {fig6_volume} x{fig6_reps}, {runs} runs)...");
    results.push(("fig6_rfft", measure(runs, || fig6_rfft(fig6_volume, fig6_reps))));

    eprintln!("perf: climate_t42_priced ({climate_steps} steps, {runs} runs)...");
    results.push(("climate_t42_priced", measure(runs, climate_t42_priced(climate_steps, smoke))));

    let text = render(smoke, runs, &results);
    if let Err(e) = validate_text(&text) {
        eprintln!("error: emitted JSON fails its own schema: {e}");
        return 1;
    }
    if let Err(e) = std::fs::write(&out_path, format!("{text}\n")) {
        eprintln!("error: cannot write {out_path}: {e}");
        return 1;
    }

    println!(
        "{:<18} {:>12} {:>14} {:>14} {:>14}",
        "workload", "wall_ms", "sim_seconds", "ops_charged", "ops_per_sec"
    );
    for (name, s) in &results {
        println!(
            "{name:<18} {:>12.3} {:>14.4} {:>14} {:>14.0}",
            s.wall_ms, s.sim_seconds, s.ops_charged, s.ops_per_sec
        );
    }
    println!("wrote {out_path}");
    0
}

fn usage(detail: &str) -> i32 {
    eprintln!("error: {detail}");
    eprintln!("usage: ncar-bench perf [--smoke] [--out FILE] [--runs K] [--validate FILE]");
    2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_charge_and_account() {
        let (sim, ops) = fig5_ladder(512, 16);
        assert!(sim > 0.0 && ops > 0);
        let (sim, ops) = fig6_rfft(256, 1);
        assert!(sim > 0.0 && ops > 0);
        let (sim, ops) = climate_t42_priced(1, true)();
        assert!(sim > 0.0 && ops > 0);
    }

    #[test]
    fn climate_priced_runs_are_deterministic_and_account_per_run() {
        let mut f = climate_t42_priced(1, true);
        let (s1, o1) = f();
        let (s2, o2) = f();
        // Every run prices the same step on the same machine: the same
        // simulated seconds bitwise, and a per-run (not cumulative) op
        // count.
        assert_eq!(s1.to_bits(), s2.to_bits());
        assert_eq!(o1, o2);
    }

    #[test]
    fn median_averages_the_middle_pair_for_even_counts() {
        // Skewed even-length sample: upper-middle indexing would say 3.0.
        assert_eq!(median(&mut [1.0, 2.0, 3.0, 100.0]), 2.5);
        assert_eq!(median(&mut [100.0, 1.0]), 50.5);
        // Odd counts keep the true middle, regardless of input order.
        assert_eq!(median(&mut [9.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn schema_roundtrip_and_rejection() {
        let sample =
            Sample { wall_ms: 1.5, sim_seconds: 0.25, ops_charged: 42, ops_per_sec: 28_000.0 };
        let text = render(true, 3, &[("fig5_ladder", sample)]);
        assert_eq!(validate_text(&text), Ok(1));
        assert!(validate_text("{}").is_err());
        assert!(validate_text("{\"schema\":\"ncar-bench-perf-v1\"}").is_err());
        let zero = Sample { wall_ms: 1.0, sim_seconds: 0.0, ops_charged: 0, ops_per_sec: 0.0 };
        let text = render(true, 3, &[("w", zero)]);
        assert!(validate_text(&text).is_err(), "zero ops must be rejected");
    }
}
