//! Run the CCM2 proxy for a simulated day at T42L18 on 8 processors of the
//! simulated SX-4/32, reporting conservation diagnostics and sustained
//! performance — the workload behind the paper's Figure 8 and Table 5.
//!
//! Run with: `cargo run --release --example climate_run`

use ncar_sx4::climate::{Ccm2Config, Ccm2Proxy, Resolution};
use ncar_sx4::sim::presets;

fn main() {
    let res = Resolution::T42;
    let procs = 8;
    let machine = presets::sx4_benchmarked();
    let clock = machine.clock_ns;
    let mut model = Ccm2Proxy::new(Ccm2Config::benchmark(res), machine);

    println!(
        "CCM2 proxy {} on {procs} processors ({} steps/day, dt = {} min)",
        res.name(),
        res.steps_per_day(),
        res.timestep_minutes()
    );
    println!(
        "{:>6} {:>14} {:>14} {:>14} {:>12} {:>10}",
        "step", "mean phi (0)", "energy (0)", "moisture", "sim s/step", "CrayGF"
    );

    let steps = res.steps_per_day(); // one model day
    let mut total_seconds = 0.0;
    for step in 1..=steps {
        let t = model.step(procs);
        total_seconds += t.seconds;
        if step % 12 == 0 || step == 1 {
            println!(
                "{step:>6} {:>14.4} {:>14.4e} {:>14.6} {:>12.4} {:>10.2}",
                model.mean_phi(0),
                model.energy(0),
                model.total_moisture(),
                t.seconds,
                t.timing.cray_gflops(clock)
            );
        }
    }
    println!(
        "\none simulated day took {total_seconds:.1} machine-seconds on the simulated SX-4 \
         ({:.1} machine-minutes per model year)",
        total_seconds * 365.0 / 60.0
    );
    println!(
        "history volume: {:.1} MB/day written through SFS",
        res.history_bytes_per_day() as f64 / 1e6
    );
}
