//! `servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host, every metric by name with its unit, and as the last
//! line one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! Exits 1 when a correctness or shape gate fails, 2 on bad flags.

use servebench::daemon;
use servebench::host::{self, Host};
use servebench::run::{self, Args};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    let host = Host::probe();
    let outcome = daemon::build().and_then(|bin| {
        let cpus = host::allowed_cpus()?;
        run::run(&args, &bin, &cpus, host.nproc).map(|o| (cpus, o))
    });
    let (cpus, outcome) = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("servebench: error: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "servebench: workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    println!(
        "host: nproc={} cpus={} cpu={:?} rustc={:?} window_steal_share={}",
        host.nproc,
        format!("{cpus:?}"),
        host.cpu_model,
        host.rustc,
        outcome.steal_share
    );
    for m in &outcome.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    for v in &outcome.violations {
        eprintln!("servebench: GATE FAILED: {v}");
    }
    let correct = outcome.violations.is_empty() && outcome.failed == 0;
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}", m.name, m.unit)
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
