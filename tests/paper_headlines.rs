//! Integration tests pinning the paper's headline results — the
//! qualitative and quantitative shape every reproduction must preserve.

use ncar_sx4::climate::{steady_step, Ccm2Config, Resolution};
use ncar_sx4::kernels::fft::{run_fft_point, LoopOrder};
use ncar_sx4::kernels::membw::{run_point, MembwKind};
use ncar_sx4::kernels::radabs::radabs_benchmark;
use ncar_sx4::ocean::{Mom, MomConfig, Pop, PopConfig};
use ncar_sx4::others::hint_mquips;
use ncar_sx4::sim::{presets, JobDemand, Node};
use ncar_sx4::suite::Instance;

/// §4.4: "The performance demonstrated on this benchmark on the SX-4/1 is
/// 865.9 Cray Y-MP equivalent Mflops."
#[test]
fn radabs_headline_within_15_percent() {
    let got = radabs_benchmark(&presets::sx4_benchmarked());
    let rel = (got - 865.9).abs() / 865.9;
    assert!(rel < 0.15, "RADABS {got} vs 865.9 (rel {rel:.2})");
}

/// Table 1: HINT ranks both workstations above both Cray machines, while
/// RADABS reverses the ranking by an order of magnitude.
#[test]
fn table1_inversion() {
    let sparc = presets::sparc20();
    let ymp = presets::cray_ymp();
    assert!(hint_mquips(&sparc) > hint_mquips(&ymp));
    assert!(radabs_benchmark(&ymp) > 10.0 * radabs_benchmark(&sparc));
}

/// Figure 5: COPY far exceeds XPOSE and IA on the SX-4/1.
#[test]
fn fig5_copy_dominates() {
    let m = presets::sx4_benchmarked();
    let copy = run_point(&m, MembwKind::Copy, Instance { n: 262_144, m: 4 }, 2);
    let ia = run_point(&m, MembwKind::Ia, Instance { n: 262_144, m: 4 }, 2);
    let xpose = run_point(&m, MembwKind::Xpose, Instance { n: 512, m: 4 }, 2);
    assert!(copy.mb_per_s > 2.0 * ia.mb_per_s);
    assert!(copy.mb_per_s > 1.5 * xpose.mb_per_s);
}

/// Figures 6-7: "The VFFT performance results are approximately an order
/// of magnitude faster than those from RFFT."
#[test]
fn vfft_order_of_magnitude_over_rfft() {
    let m = presets::sx4_benchmarked();
    let mut ratios = Vec::new();
    for n in [64usize, 256, 512] {
        let r = run_fft_point(&m, n, 500, LoopOrder::AxisFastest);
        let v = run_fft_point(&m, n, 500, LoopOrder::InstanceFastest);
        ratios.push(v.mflops / r.mflops);
    }
    let geo_mean = ratios.iter().product::<f64>().powf(1.0 / ratios.len() as f64);
    assert!((4.0..60.0).contains(&geo_mean), "VFFT/RFFT geometric mean {geo_mean}");
}

/// Figure 8's shape: CCM2 runs faster with more processors, and the bigger
/// problem uses the machine more efficiently ("the SX-4 runs most
/// efficiently on long vector problems").
#[test]
fn fig8_shape() {
    let clock = presets::sx4_benchmarked().clock_ns;
    let gflops = |res: Resolution, procs: usize| {
        let t = steady_step(&Ccm2Config::benchmark(res), &presets::sx4_benchmarked(), procs);
        t.timing.cray_gflops(clock)
    };
    let t42_8 = gflops(Resolution::T42, 8);
    let t42_32 = gflops(Resolution::T42, 32);
    let t106_32 = gflops(Resolution::T106, 32);
    assert!(t42_32 > t42_8, "more processors, more Gflops");
    assert!(t106_32 > 1.2 * t42_32, "bigger problem scales better: {t106_32} vs {t42_32}");
}

/// Table 6: "The relative degradation of the job is only 1.89%."
#[test]
fn ensemble_degradation_small() {
    let config = Ccm2Config::benchmark(Resolution::T42);
    let t = steady_step(&config, &presets::sx4_benchmarked(), 4);
    let node = Node::new(presets::sx4_benchmarked());
    let job = JobDemand {
        solo_cycles: 0.0,
        procs: 4,
        bytes_per_cycle_per_proc: t.bytes_per_cycle_per_proc,
    };
    let stretch = node.coschedule_stretch(&[job; 8]).expect("8 x 4 procs fit a 32-processor node");
    let deg = (stretch - 1.0) * 100.0;
    assert!(deg > 0.1 && deg < 5.0, "ensemble degradation {deg:.2}% vs paper 1.89%");
}

/// Table 7's shape: MOM speedup is modest — well below linear, but still
/// several-fold at 32 CPUs.
#[test]
fn mom_scaling_modest() {
    let run = |procs: usize| {
        let mut m = Mom::new(MomConfig::low_resolution(), presets::sx4_benchmarked());
        m.run(10, procs)
    };
    let t1 = run(1);
    let t32 = run(32);
    let speedup = t1 / t32;
    assert!((4.0..14.0).contains(&speedup), "MOM speedup at 32 CPUs: {speedup} (paper: 9.06)");
}

/// §4.7.3: "we observed 537 Mflops on the 2-degree POP benchmark on one
/// processor of the SX-4" with an unvectorized CSHIFT.
#[test]
fn pop_headline_band() {
    let mut p = Pop::new(PopConfig::two_degree(), presets::sx4_benchmarked());
    let rate = p.mflops(3);
    assert!((300.0..900.0).contains(&rate), "POP {rate} Mflops vs 537");
}

/// Table 5's ratio: a T63 year costs ~2.6x a T42 year (more columns, more
/// steps/day).
#[test]
fn table5_ratio() {
    let step = |res: Resolution| {
        let t = steady_step(&Ccm2Config::benchmark(res), &presets::sx4_benchmarked(), 32);
        t.seconds * res.steps_per_day() as f64
    };
    let t42_day = step(Resolution::T42);
    let t63_day = step(Resolution::T63);
    let ratio = t63_day / t42_day;
    // Paper: 3452.48 / 1327.53 = 2.60.
    assert!((1.8..4.0).contains(&ratio), "T63/T42 yearly ratio {ratio} vs paper 2.60");
}
