//! End-to-end integration: run a small instance of every benchmark in the
//! suite, across crates, the way the harness does — and check the suite's
//! own bookkeeping.

use ncar_sx4::climate::{Ccm2Config, Ccm2Proxy, Resolution};
use ncar_sx4::kernels::elefunt;
use ncar_sx4::kernels::fft::{run_fft_point, LoopOrder};
use ncar_sx4::kernels::membw::{run_point, MembwKind};
use ncar_sx4::kernels::paranoia;
use ncar_sx4::kernels::radabs::radabs_mflops;
use ncar_sx4::ocean::{Mom, MomConfig, Pop, PopConfig};
use ncar_sx4::os::iobench::{hippi_benchmark, io_benchmark, network_table};
use ncar_sx4::os::prodload::{prodload, CcmRates};
use ncar_sx4::others::stream::stream_table;
use ncar_sx4::others::{hint_mquips, linpack};
use ncar_sx4::sim::{presets, Node};
use ncar_sx4::suite::Instance;

/// The suite's seven categories (paper §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Category {
    Correctness,
    MemoryBandwidth,
    CodingStyle,
    RawPerformance,
    InputOutput,
    ProductionMix,
    Applications,
}

/// One entry of the suite: the benchmark's name as the paper spells it.
struct SuiteEntry {
    name: &'static str,
    category: Category,
}

/// The full suite, in the paper's order: twelve kernels (the paper counts
/// PRODLOAD among its thirteen) and the three complete applications.
fn suite() -> Vec<SuiteEntry> {
    use Category::*;
    [
        ("PARANOIA", Correctness),
        ("ELEFUNT", Correctness),
        ("COPY", MemoryBandwidth),
        ("IA", MemoryBandwidth),
        ("XPOSE", MemoryBandwidth),
        ("RFFT", CodingStyle),
        ("VFFT", CodingStyle),
        ("RADABS", RawPerformance),
        ("I/O", InputOutput),
        ("HIPPI", InputOutput),
        ("NETWORK", InputOutput),
        ("PRODLOAD", ProductionMix),
        ("CCM2", Applications),
        ("MOM", Applications),
        ("POP", Applications),
    ]
    .into_iter()
    .map(|(name, category)| SuiteEntry { name, category })
    .collect()
}

/// Every benchmark in the suite's table has a runnable implementation.
#[test]
fn every_suite_entry_is_executable() {
    let m = presets::sx4_benchmarked();
    for entry in suite() {
        match entry.name {
            "PARANOIA" => assert!(paranoia::run().passed()),
            "ELEFUNT" => {
                let (ok, _) = elefunt::accuracy_suite();
                assert!(ok);
                assert!(
                    elefunt::mcalls_per_second(&m, ncar_sx4::sim::Intrinsic::Exp, 10_000) > 0.0
                );
            }
            "COPY" => assert!(
                run_point(&m, MembwKind::Copy, Instance { n: 4096, m: 4 }, 2).mb_per_s > 0.0
            ),
            "IA" => {
                assert!(run_point(&m, MembwKind::Ia, Instance { n: 4096, m: 4 }, 2).mb_per_s > 0.0)
            }
            "XPOSE" => {
                assert!(run_point(&m, MembwKind::Xpose, Instance { n: 64, m: 4 }, 2).mb_per_s > 0.0)
            }
            "RFFT" => assert!(run_fft_point(&m, 64, 100, LoopOrder::AxisFastest).mflops > 0.0),
            "VFFT" => assert!(run_fft_point(&m, 64, 100, LoopOrder::InstanceFastest).mflops > 0.0),
            "RADABS" => assert!(radabs_mflops(&m, 256, 1) > 0.0),
            "I/O" => assert_eq!(io_benchmark().len(), 5),
            "HIPPI" => assert_eq!(hippi_benchmark().len(), 2),
            "NETWORK" => assert!(!network_table().rows.is_empty()),
            "PRODLOAD" => {
                let node = Node::new(m.clone());
                assert!(prodload(&node, &CcmRates::synthetic()).total_seconds > 0.0);
            }
            "CCM2" => {
                let mut model = Ccm2Proxy::new(Ccm2Config::benchmark(Resolution::T42), m.clone());
                assert!(model.step(4).seconds > 0.0);
            }
            "MOM" => {
                let mut model = Mom::new(
                    MomConfig {
                        nlat: 16,
                        nlon: 32,
                        nlev: 4,
                        dt: 3600.0,
                        diag_every: 10,
                        jacobi_sweeps: 5,
                    },
                    m.clone(),
                );
                assert!(model.step(4).seconds > 0.0);
            }
            "POP" => {
                let mut model = Pop::new(PopConfig::tiny(), m.clone());
                assert!(model.step(2).seconds > 0.0);
            }
            other => panic!("unknown suite entry {other}"),
        }
    }
}

/// The seven categories of §4 are all populated, and three of the fifteen
/// entries are complete applications.
#[test]
fn categories_cover_section_four() {
    let s = suite();
    assert_eq!(s.len(), 15);
    assert_eq!(s.iter().filter(|e| e.category == Category::Applications).count(), 3);
    for cat in [
        Category::Correctness,
        Category::MemoryBandwidth,
        Category::CodingStyle,
        Category::RawPerformance,
        Category::InputOutput,
        Category::ProductionMix,
        Category::Applications,
    ] {
        assert!(s.iter().any(|e| e.category == cat), "{cat:?} is empty");
    }
}

/// The §3 comparison suites run on every machine model.
#[test]
fn comparison_suites_run_everywhere() {
    for m in presets::table1_machines() {
        assert!(hint_mquips(&m) > 0.0, "{}", m.name);
        assert!(linpack(&m, 50).mflops > 0.0, "{}", m.name);
        assert!(stream_table(&m).iter().all(|r| r.mb_per_s > 0.0), "{}", m.name);
    }
}

/// Simulated results are identical across repeated runs (no wall clocks,
/// fixed seeds) — the property KTRIES best-of relies on.
#[test]
fn whole_pipeline_deterministic() {
    let m = presets::sx4_benchmarked();
    let a = radabs_mflops(&m, 512, 1);
    let b = radabs_mflops(&m, 512, 1);
    assert_eq!(a, b);

    let p1 = run_fft_point(&m, 48, 20, LoopOrder::InstanceFastest);
    let p2 = run_fft_point(&m, 48, 20, LoopOrder::InstanceFastest);
    assert_eq!(p1.cost.cycles, p2.cost.cycles);

    let mut c1 = Ccm2Proxy::new(Ccm2Config::benchmark(Resolution::T42), m.clone());
    let mut c2 = Ccm2Proxy::new(Ccm2Config::benchmark(Resolution::T42), m);
    let s1 = c1.step(8);
    let s2 = c2.step(8);
    assert_eq!(s1.timing.wall_cycles, s2.timing.wall_cycles);
    assert_eq!(c1.mean_phi(0), c2.mean_phi(0));
}
