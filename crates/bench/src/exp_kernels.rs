//! Kernel experiments: Tables 1-3, Figures 5-7, the RADABS headline, and
//! the §4.1 correctness battery.

use ncar_kernels::elefunt;
use ncar_kernels::fft::{price_point, run_fft_point, verify_round_trip, LoopOrder};
use ncar_kernels::membw::{sweep, MembwKind};
use ncar_kernels::paranoia;
use ncar_kernels::radabs::radabs_benchmark;
use ncar_suite::{
    constant_volume_ladder, rfft_instances, xpose_ladder, Artifact, FftFamily, Figure, Series,
    Table, KTRIES_DEFAULT, KTRIES_VFFT, VFFT_M,
};
use othersuites::hint_mquips;
use sxsim::presets;

/// Table 1: HINT MQUIPS vs RADABS Mflops across the four comparison
/// machines — the experiment that shows HINT inverting the vector-machine
/// ranking.
pub fn table1() -> Vec<Artifact> {
    let machines = presets::table1_machines();
    let mut t = Table::new(
        "Table 1: HINT (MQUIPS) vs RADABS (Cray-equivalent Mflops), single processors",
        &["Benchmark", "SUN SPARC20", "IBM RS6K 590", "CRI J90", "CRI YMP"],
    );
    let hint: Vec<String> = machines.iter().map(|m| format!("{:.1}", hint_mquips(m))).collect();
    let rad: Vec<String> = machines.iter().map(|m| format!("{:.1}", radabs_benchmark(m))).collect();
    t.row(&[vec!["HINT (MQUIPS)".to_string()], hint].concat());
    t.row(&[vec!["RADABS (MFLOPS)".to_string()], rad].concat());
    let mut paper = Table::new(
        "Paper's Table 1 (for comparison)",
        &["Benchmark", "SUN SPARC20", "IBM RS6K 590", "CRI J90", "CRI YMP"],
    );
    paper.row(&["HINT (MQUIPS)".into(), "3.5".into(), "5.2".into(), "1.7".into(), "3.1".into()]);
    paper.row(&[
        "RADABS (MFLOPS)".into(),
        "12.8".into(),
        "16.5".into(),
        "60.8".into(),
        "178.1".into(),
    ]);
    vec![Artifact::Table(t), Artifact::Table(paper)]
}

/// Table 2: the benchmarked system's specifications.
pub fn table2() -> Vec<Artifact> {
    let m = presets::sx4_benchmarked();
    let mut t = Table::new(
        "Table 2: NEC SX-4/32 system used for the benchmark results",
        &["Item", "Value"],
    );
    t.row(&["Clock Rate".into(), format!("{:.1} ns", m.clock_ns)]);
    t.row(&["Peak FLOP Rate Per Processor".into(), "2 GFLOPS (at the 8.0 ns design point)".into()]);
    t.row(&["Peak Memory Bandwidth".into(), "16 GB/sec/proc".into()]);
    t.row(&["Processors".into(), format!("{}", m.procs)]);
    t.row(&["Disk Capacity".into(), "282 GB".into()]);
    t.row(&["Main Memory".into(), "8 GB".into()]);
    t.row(&["Extended Memory".into(), "4 GB".into()]);
    t.row(&["Cooling".into(), "air cooled".into()]);
    t.row(&["Power Consumption".into(), "122.8 KVA".into()]);
    vec![Artifact::Table(t)]
}

/// Table 3: ELEFUNT intrinsic throughput on the SX-4/1.
pub fn table3() -> Vec<Artifact> {
    let m = presets::sx4_benchmarked();
    let mut t = Table::new(
        "Table 3: single-processor 64-bit intrinsic throughput (millions of calls/second), SX-4/1",
        &["Function", "Mcalls/s"],
    );
    for (f, rate) in elefunt::table3(&m) {
        t.row(&[f.name().to_string(), format!("{rate:.1}")]);
    }
    vec![Artifact::Table(t)]
}

/// §4.1: PARANOIA and ELEFUNT pass/fail.
pub fn correctness() -> Vec<Artifact> {
    let p = paranoia::run();
    let paranoia_art = Artifact::Verdict {
        title: "PARANOIA (arithmetic operation test)".into(),
        passed: p.passed(),
        details: p.log.clone(),
    };
    let (ok, reports) = elefunt::accuracy_suite();
    let elefunt_art = Artifact::Verdict {
        title: "ELEFUNT (elementary function accuracy)".into(),
        passed: ok,
        details: reports
            .iter()
            .map(|r| format!("{}: max {:.2} ULP via {}", r.function.name(), r.max_ulp, r.identity))
            .collect(),
    };
    vec![paranoia_art, elefunt_art]
}

/// Figure 5: COPY / IA / XPOSE bandwidth ladders on the SX-4/1.
pub fn fig5() -> Vec<Artifact> {
    let m = presets::sx4_benchmarked();
    let mut fig = Figure::new(
        "Figure 5: memory bandwidth (MB/sec) for COPY, IA and XPOSE on an SX-4/1 (KTRIES=20)",
    );
    let ladder = constant_volume_ladder(1_000_000);
    let xl = xpose_ladder(1_000_000, 1000);
    // The three curves are independent: sweep them host-parallel (each
    // sweep also fans out over its own ladder).
    let jobs =
        vec![(MembwKind::Copy, ladder.clone()), (MembwKind::Ia, ladder), (MembwKind::Xpose, xl)];
    for s in ncar_suite::par_map(jobs, |(kind, lad)| sweep(&m, kind, &lad, KTRIES_DEFAULT)) {
        fig.push(s);
    }
    vec![Artifact::Figure(fig)]
}

/// Figure 6: RFFT Mflops vs FFT length on the SX-4/1.
pub fn fig6() -> Vec<Artifact> {
    let m = presets::sx4_benchmarked();
    let mut fig =
        Figure::new("Figure 6: RFFT (\"scalar\" loop order) Mflops on an SX-4/1 (KTRIES=20)");
    for family in FftFamily::ALL {
        let pts: Vec<(f64, f64)> = ncar_suite::par_map(rfft_instances(family, 1_000_000), |inst| {
            let p = run_fft_point(&m, inst.n, inst.m, LoopOrder::AxisFastest);
            (inst.n as f64, p.mflops)
        });
        let mut s = Series::new(family.label(), "N", "Mflops");
        for (x, y) in pts {
            s.push(x, y);
        }
        fig.push(s);
    }
    vec![Artifact::Figure(fig)]
}

/// Figure 7: VFFT Mflops vs vector length on the SX-4/1.
pub fn fig7() -> Vec<Artifact> {
    let m = presets::sx4_benchmarked();
    let mut fig = Figure::new(format!(
        "Figure 7: VFFT (\"vector\" loop order) Mflops on an SX-4/1 (KTRIES={KTRIES_VFFT})"
    ));

    // One curve per family at its largest paper length, swept over the
    // paper's vector lengths M; the families are independent so they run
    // host-parallel. Each N is checked once: M changes the price, not the
    // transform.
    for s in ncar_suite::par_map(FftFamily::ALL.to_vec(), |family| {
        let n = *family.vfft_lengths().last().unwrap();
        verify_round_trip(n);
        let mut s =
            Series::new(format!("{} (N={n})", family.label()), "M (vector length)", "Mflops");
        for &mm in VFFT_M.iter() {
            let p = price_point(&m, n, mm, LoopOrder::InstanceFastest);
            s.push(mm as f64, p.mflops);
        }
        s
    }) {
        fig.push(s);
    }
    vec![Artifact::Figure(fig)]
}

/// §4.4: the RADABS headline number.
pub fn radabs() -> Vec<Artifact> {
    let got = radabs_benchmark(&presets::sx4_benchmarked());
    vec![
        Artifact::Scalar {
            title: "RADABS on the SX-4/1 (measured on the simulator)".into(),
            value: got,
            unit: "Cray Y-MP equivalent Mflops".into(),
        },
        Artifact::Scalar {
            title: "RADABS on the SX-4/1 (paper)".into(),
            value: 865.9,
            unit: "Cray Y-MP equivalent Mflops".into(),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_holds() {
        let arts = table1();
        let Artifact::Table(t) = &arts[0] else { panic!("expected table") };
        let hint: Vec<f64> = t.rows[0][1..].iter().map(|c| c.parse().unwrap()).collect();
        let rad: Vec<f64> = t.rows[1][1..].iter().map(|c| c.parse().unwrap()).collect();
        // HINT: workstations above vector machines.
        assert!(hint[0] > hint[2] && hint[0] > hint[3]);
        assert!(hint[1] > hint[2] && hint[1] > hint[3]);
        // RADABS: vector machines far above workstations.
        assert!(rad[3] > 5.0 * rad[0]);
        assert!(rad[2] > 2.0 * rad[0]);
    }

    #[test]
    fn correctness_passes() {
        for a in correctness() {
            let Artifact::Verdict { passed, title, .. } = &a else { panic!() };
            assert!(passed, "{title} failed");
        }
    }

    #[test]
    fn fig5_copy_dominates() {
        let arts = fig5();
        let Artifact::Figure(f) = &arts[0] else { panic!() };
        let copy_peak = f.series[0].peak();
        let ia_peak = f.series[1].peak();
        let xpose_peak = f.series[2].peak();
        assert!(copy_peak > 2.0 * ia_peak, "COPY {copy_peak} vs IA {ia_peak}");
        assert!(copy_peak > 1.5 * xpose_peak, "COPY {copy_peak} vs XPOSE {xpose_peak}");
    }

    #[test]
    fn vfft_an_order_of_magnitude_above_rfft() {
        let f6 = fig6();
        let f7 = fig7();
        let Artifact::Figure(rf) = &f6[0] else { panic!() };
        let Artifact::Figure(vf) = &f7[0] else { panic!() };
        let rfft_best = rf.series.iter().map(|s| s.peak()).fold(0.0, f64::max);
        let vfft_best = vf.series.iter().map(|s| s.peak()).fold(0.0, f64::max);
        assert!(vfft_best > 5.0 * rfft_best, "VFFT {vfft_best} vs RFFT {rfft_best}");
    }

    #[test]
    fn radabs_near_headline() {
        let arts = radabs();
        let Artifact::Scalar { value, .. } = arts[0] else { panic!() };
        assert!((600.0..1200.0).contains(&value), "{value}");
    }
}
