//! One-page suite report: run a quick instance of every NCAR benchmark on
//! the simulated SX-4, in the paper's order.
//!
//! Run with: `cargo run --release --example suite_report`

use ncar_sx4::climate::{Ccm2Config, Ccm2Proxy, Resolution};
use ncar_sx4::kernels::elefunt;
use ncar_sx4::kernels::fft::{run_fft_point, LoopOrder};
use ncar_sx4::kernels::membw::{run_point, MembwKind};
use ncar_sx4::kernels::paranoia;
use ncar_sx4::kernels::radabs::radabs_benchmark;
use ncar_sx4::ocean::{Mom, MomConfig, Pop, PopConfig};
use ncar_sx4::os::iobench::hippi_test_seconds;
use ncar_sx4::sim::presets;
use ncar_sx4::suite::Instance;

fn main() {
    let m = presets::sx4_benchmarked();
    println!("NCAR Benchmark Suite — quick pass on {}\n", m.name);

    println!("{:<10} {:<38} {:>14}", "benchmark", "what ran", "result");
    let row = |name: &str, what: &str, result: String| {
        println!("{name:<10} {what:<38} {result:>14}");
    };

    for name in [
        "PARANOIA", "ELEFUNT", "COPY", "IA", "XPOSE", "RFFT", "VFFT", "RADABS", "I/O", "HIPPI",
        "NETWORK", "PRODLOAD", "CCM2", "MOM", "POP",
    ] {
        match name {
            "PARANOIA" => row(
                "PARANOIA",
                "arithmetic battery",
                if paranoia::run().passed() { "PASSED".into() } else { "FAILED".into() },
            ),
            "ELEFUNT" => {
                let (ok, _) = elefunt::accuracy_suite();
                let exp = elefunt::mcalls_per_second(&m, ncar_sx4::sim::Intrinsic::Exp, 100_000);
                row(
                    "ELEFUNT",
                    "accuracy + EXP throughput",
                    format!("{} / {exp:.0} Mc/s", if ok { "PASS" } else { "FAIL" }),
                );
            }
            "COPY" => row(
                "COPY",
                "1 MB unit-stride copy",
                format!(
                    "{:.0} MB/s",
                    run_point(&m, MembwKind::Copy, Instance { n: 131_072, m: 8 }, 2).mb_per_s
                ),
            ),
            "IA" => row(
                "IA",
                "1 MB gather",
                format!(
                    "{:.0} MB/s",
                    run_point(&m, MembwKind::Ia, Instance { n: 131_072, m: 8 }, 2).mb_per_s
                ),
            ),
            "XPOSE" => row(
                "XPOSE",
                "512x512 transposes",
                format!(
                    "{:.0} MB/s",
                    run_point(&m, MembwKind::Xpose, Instance { n: 512, m: 4 }, 2).mb_per_s
                ),
            ),
            "RFFT" => row(
                "RFFT",
                "N=256, scalar loop order",
                format!("{:.0} Mflops", run_fft_point(&m, 256, 500, LoopOrder::AxisFastest).mflops),
            ),
            "VFFT" => row(
                "VFFT",
                "N=256, M=500, vector order",
                format!(
                    "{:.0} Mflops",
                    run_fft_point(&m, 256, 500, LoopOrder::InstanceFastest).mflops
                ),
            ),
            "RADABS" => row(
                "RADABS",
                "full-grid radiation physics",
                format!("{:.0} CrayMF", radabs_benchmark(&m)),
            ),
            "I/O" => row("I/O", "T42 history tape", "see io exp".into()),
            "HIPPI" => row("HIPPI", "packet ladder", format!("{:.0} s", hippi_test_seconds())),
            "NETWORK" => row("NETWORK", "FDDI command list", "see network".into()),
            "PRODLOAD" => row("PRODLOAD", "job-mix DES", "see prodload".into()),
            "CCM2" => {
                let mut model = Ccm2Proxy::new(Ccm2Config::benchmark(Resolution::T42), m.clone());
                model.step(8);
                let t = model.step(8);
                row("CCM2", "T42L18 step on 8 procs", format!("{:.3} sim s", t.seconds));
            }
            "MOM" => {
                let mut model = Mom::new(MomConfig::low_resolution(), m.clone());
                row("MOM", "3-deg step on 8 procs", format!("{:.3} sim s", model.step(8).seconds));
            }
            "POP" => {
                let mut model = Pop::new(PopConfig::two_degree(), m.clone());
                row(
                    "POP",
                    "2-deg Mflops (scalar CSHIFT)",
                    format!("{:.0} Mflops", model.mflops(2)),
                );
            }
            _ => {}
        }
    }
}
