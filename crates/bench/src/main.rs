//! `ncar-bench` — regenerate every table and figure of the SC'96 paper
//! "Architecture and Application: The Performance of the NEC SX-4 on the
//! NCAR Benchmark Suite" on the simulated machine.
//!
//! ```text
//! ncar-bench [--json] [--jobs N] <experiment>...
//! ncar-bench all            # everything (slow: full CCM2/MOM runs)
//! ncar-bench list           # list experiment names
//! ncar-bench serve …        # daemon mode: serve suites over TCP (sxd)
//! ```

mod exp_apps;
mod exp_check;
mod exp_extra;
mod exp_kernels;
mod exp_system;
mod perf;
mod serve;

use ncar_suite::Artifact;

/// (name, description, runner)
type Experiment = (&'static str, &'static str, fn() -> Vec<Artifact>);

fn experiments() -> Vec<Experiment> {
    vec![
        ("table1", "HINT vs RADABS across four machines", exp_kernels::table1),
        ("table2", "benchmarked SX-4/32 specifications", exp_kernels::table2),
        ("table3", "ELEFUNT intrinsic throughput, SX-4/1", exp_kernels::table3),
        ("correctness", "PARANOIA + ELEFUNT accuracy (pass/fail)", exp_kernels::correctness),
        ("fig5", "COPY/IA/XPOSE memory bandwidth ladders", exp_kernels::fig5),
        ("fig6", "RFFT Mflops vs FFT length", exp_kernels::fig6),
        ("fig7", "VFFT Mflops vs vector length", exp_kernels::fig7),
        ("radabs", "RADABS Cray-equivalent Mflops headline", exp_kernels::radabs),
        ("table4", "CCM2 resolutions/grids/time steps", exp_apps::table4),
        ("fig8", "CCM2 Gflops vs processors (T42/T106/T170)", exp_apps::fig8),
        ("table5", "one-year T42/T63 simulations with history I/O", exp_apps::table5),
        ("table6", "ensemble test (1 vs 8 concurrent jobs)", exp_apps::table6),
        ("table7", "MOM 350-step scaling", exp_apps::table7),
        ("pop", "POP 2-degree Mflops (+ CSHIFT ablation)", exp_apps::pop),
        ("prodload", "production job mix (measured rates)", || {
            exp_system::prodload_experiment(true)
        }),
        ("io", "history-tape I/O benchmark", exp_system::io),
        ("hippi", "HIPPI packet-size sweep", exp_system::hippi),
        ("network", "FDDI/IP NETWORK benchmark", exp_system::network),
        ("othersuites", "LINPACK / STREAM / HINT context suites", exp_system::other_suites),
        ("projection", "8.0 ns production-clock projection (§4.7.1)", exp_extra::projection),
        ("ablations", "architecture ablations (startup/banks/gather/IXS)", exp_extra::ablations),
        ("proginf", "PROGINF summaries of contrasting workloads", exp_extra::proginf),
        ("multinode", "CCM2 across IXS-coupled nodes (extension)", exp_extra::multinode),
        ("ftrace", "FTRACE phase breakdown of a CCM2 step", exp_extra::ftrace),
    ]
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let exps = experiments();

    // Daemon/client subcommands take over argument parsing entirely.
    if let Some(sub) = args.first().map(String::as_str) {
        let rest = &args[1..];
        let code = match sub {
            "serve" => Some(serve::cmd_serve(rest, &exps)),
            "submit" => Some(serve::cmd_submit(rest)),
            "stats" => Some(serve::cmd_stats(rest)),
            "metrics" => Some(serve::cmd_metrics(rest)),
            "shutdown" => Some(serve::cmd_shutdown(rest)),
            "drain" => Some(serve::cmd_drain(rest)),
            "flood" => Some(serve::cmd_flood(rest, &exps)),
            "raw" => Some(serve::cmd_raw(rest)),
            "perf" => Some(perf::cmd_perf(rest)),
            _ => None,
        };
        if let Some(code) = code {
            std::process::exit(code);
        }
    }

    // `--jobs N` caps the worker threads every experiment's internal
    // parallel fan-out uses (core::par::par_map_with).
    if let Some(pos) = args.iter().position(|a| a == "--jobs") {
        if pos + 1 >= args.len() {
            eprintln!("--jobs needs a thread count");
            std::process::exit(2);
        }
        match args[pos + 1].parse::<usize>() {
            Ok(n) => ncar_suite::set_host_parallelism(n),
            Err(_) => {
                eprintln!("--jobs wants a number, got {:?}", args[pos + 1]);
                std::process::exit(2);
            }
        }
        args.drain(pos..pos + 2);
    }

    let json = args.iter().any(|a| a == "--json");
    let names: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();

    if names.iter().any(|n| n.as_str() == "check") {
        let baseline_path = args.iter().position(|a| a == "--baseline").map(|pos| {
            if pos + 1 >= args.len() {
                eprintln!("--baseline needs a file path");
                std::process::exit(2);
            }
            args[pos + 1].clone()
        });
        let opts = exp_check::CheckOpts {
            deny_warnings: args.iter().any(|a| a == "--deny-warnings"),
            json,
            matrix: args.iter().any(|a| a == "--matrix"),
            baseline_path,
        };
        std::process::exit(exp_check::run(&opts));
    }

    if names.is_empty() || names.iter().any(|n| n.as_str() == "list") {
        eprintln!("usage: ncar-bench [--json] [--jobs N] <experiment>... | all | list\n");
        eprintln!(
            "       ncar-bench check [--deny-warnings] [--json] [--matrix] [--baseline FILE]"
        );
        eprintln!(
            "       ncar-bench serve [--addr A] [--workers N] [--cache-cap N] \
             [--admit-timeout SECS] [--state-dir DIR] [--drain-deadline SECS] \
             [--idle-timeout SECS] [--dispatchers N] [--pipeline-depth K] \
             [--cluster N]"
        );
        eprintln!(
            "       ncar-bench submit <suite> [--addr A] [--machine M] [--param k=v]... \
             [--show-route true] [--pipeline N]"
        );
        eprintln!("       ncar-bench stats|shutdown|raw <line> [--addr A]");
        eprintln!("       ncar-bench drain [--addr A] [--deadline SECS] [--member K]");
        eprintln!("       ncar-bench metrics [--addr A] [--json true] [--watch SECS]");
        eprintln!(
            "       ncar-bench flood [--addr A] [--clients N] [--jobs M] [--suite s]... \
             [--pipeline K] [--cluster N]"
        );
        eprintln!("       ncar-bench perf [--smoke] [--out FILE] [--runs K] [--validate FILE]");
        eprintln!("experiments:");
        for (name, desc, _) in &exps {
            eprintln!("  {name:<12} {desc}");
        }
        std::process::exit(if names.is_empty() { 2 } else { 0 });
    }

    let run_all = names.iter().any(|n| n.as_str() == "all");
    let mut ran = 0;
    for (name, _desc, runner) in &exps {
        if run_all || names.iter().any(|n| n.as_str() == *name) {
            if !json {
                println!("==> {name}");
            }
            for artifact in runner() {
                if json {
                    println!("{}", artifact.to_json());
                } else {
                    println!("{}", artifact.render());
                }
            }
            ran += 1;
        }
    }
    if ran == 0 {
        eprintln!("no such experiment; try `ncar-bench list`");
        std::process::exit(2);
    }
}
