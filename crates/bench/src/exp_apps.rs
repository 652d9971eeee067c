//! Application experiments: Table 4, Figure 8, Table 5, Table 6 (CCM2),
//! Table 7 (MOM) and the POP Mflops headline (§4.7).

use ccm_proxy::{Ccm2Config, Resolution, StepTiming};
use ncar_suite::{Artifact, Figure, Series, Table};
use ocean_models::{Mom, MomConfig, Pop, PopConfig};
use superux::Sfs;
use sxsim::{presets, JobDemand, Node};

/// Table 4: CCM2 resolutions, grid spacings, time steps.
pub fn table4() -> Vec<Artifact> {
    let mut t = Table::new(
        "Table 4: typical CCM2 resolutions, grid spacings, and time steps",
        &["Model Resolution", "Horizontal Grid Size", "Nominal Grid Spacing", "Time Step"],
    );
    for r in Resolution::ALL {
        t.row(&[
            r.name(),
            format!("{} x {}", r.nlat(), r.nlon()),
            format!("{} degrees", r.spacing_degrees()),
            format!("{} min.", r.timestep_minutes()),
        ]);
    }
    vec![Artifact::Table(t)]
}

/// One steady-state CCM2 step of the benchmark configuration, priced
/// without computing it (every step of a model charges the same).
fn ccm2_step(res: Resolution, procs: usize) -> StepTiming {
    ccm_proxy::steady_step(&Ccm2Config::benchmark(res), &presets::sx4_benchmarked(), procs)
}

/// Figure 8: CCM2 sustained Cray-equivalent Gflops vs processors, for
/// T42, T106 and T170.
pub fn fig8() -> Vec<Artifact> {
    let mut fig = Figure::new(
        "Figure 8: CCM2 performance (Cray-equivalent Gflops) vs processors on the SX-4/32",
    );
    let clock = presets::sx4_benchmarked().clock_ns;
    for res in [Resolution::T42, Resolution::T106, Resolution::T170] {
        let mut s = Series::new(res.name(), "processors", "Cray-equivalent Gflops");
        for procs in [1usize, 2, 4, 8, 16, 32] {
            s.push(procs as f64, ccm2_step(res, procs).timing.cray_gflops(clock));
        }
        fig.push(s);
    }
    vec![
        Artifact::Figure(fig),
        Artifact::Scalar {
            title: "Paper's anchor: CCM2 T170L18 on 32 processors".into(),
            value: 24.0,
            unit: "Cray-equivalent Gflops sustained".into(),
        },
    ]
}

/// Table 5: time to simulate one year of climate at T42L18 and T63L18 on
/// the 32-processor node, including the daily history/restart writes
/// (~15 GB over the T63 year).
pub fn table5() -> Vec<Artifact> {
    let mut t = Table::new(
        "Table 5: seconds to simulate one year (32 processors, daily history writes through SFS)",
        &["Resolution", "Simulated", "Paper"],
    );
    let paper = [("T42L18", 1327.53), ("T63L18", 3452.48)];
    for (i, res) in [Resolution::T42, Resolution::T63].into_iter().enumerate() {
        let step = ccm2_step(res, 32);
        let steps_per_year = 365 * res.steps_per_day();
        let compute = steps_per_year as f64 * step.seconds;
        // 365 daily history writes; the application blocks only for the
        // XMU staging leg.
        let mut fs = Sfs::benchmarked();
        let bytes_per_day = res.history_bytes_per_day();
        let mut io_blocked = 0.0;
        let mut now = 0.0;
        for _ in 0..365 {
            now += compute / 365.0;
            let w = fs.write(now, bytes_per_day, res.nlat());
            io_blocked += w.blocked_s;
            now += w.blocked_s;
        }
        let total = compute + io_blocked;
        t.row(&[res.name(), format!("{total:.2}"), format!("{}", paper[i].1)]);
    }
    vec![Artifact::Table(t)]
}

/// Table 6: the ensemble test — one 4-processor CCM2 T42 12-day run vs
/// eight concurrent copies filling the node.
pub fn table6() -> Vec<Artifact> {
    let res = Resolution::T42;
    let step = ccm2_step(res, 4);
    let steps = 12 * res.steps_per_day();
    let single = steps as f64 * step.seconds;

    let node = Node::new(presets::sx4_benchmarked());
    let job = JobDemand {
        solo_cycles: 0.0,
        procs: 4,
        bytes_per_cycle_per_proc: step.bytes_per_cycle_per_proc,
    };
    let stretch = node.coschedule_stretch(&[job; 8]).expect("8 x 4 procs fit a 32-processor node");
    let multi = single * stretch;
    let degradation = (multi / single - 1.0) * 100.0;

    let mut t = Table::new(
        "Table 6: ensemble test — 12-day CCM2 T42L18 on 4 processors, single vs 8 concurrent copies",
        &["Case", "Wall seconds", "Degradation"],
    );
    t.row(&["single 4-proc job".into(), format!("{single:.2}"), "-".into()]);
    t.row(&["eight 4-proc jobs".into(), format!("{multi:.2}"), format!("{degradation:.2}%")]);
    t.row(&["paper".into(), "-".into(), "1.89%".into()]);
    vec![Artifact::Table(t)]
}

/// Table 7: MOM high-resolution benchmark — 350 timesteps at 1, 4, 8, 16,
/// 32 CPUs, time and speedup.
pub fn table7() -> Vec<Artifact> {
    let mut t = Table::new(
        "Table 7: MOM ocean model, 350 time steps (1-degree, 45 levels)",
        &["CPUs", "Time (s)", "Speedup", "Paper time", "Paper speedup"],
    );
    let paper: [(usize, f64, f64); 5] = [
        (1, 1861.25, 1.00),
        (4, 696.92, 2.70),
        (8, 519.74, 3.66),
        (16, 331.67, 5.88),
        (32, 226.62, 9.06),
    ];
    let mut base = None;
    for (procs, ptime, pspeed) in paper {
        // One diagnostics period, priced, scaled to 350 steps (steady
        // state).
        let block =
            Mom::priced_run(MomConfig::high_resolution(), presets::sx4_benchmarked(), 10, procs);
        let total = 35.0 * block;
        let one_cpu = *base.get_or_insert(total);
        let speedup = one_cpu / total;
        t.row(&[
            format!("{procs}"),
            format!("{total:.2}"),
            format!("{speedup:.2}"),
            format!("{ptime}"),
            format!("{pspeed}"),
        ]);
    }
    vec![Artifact::Table(t)]
}

/// §4.7.3: POP 2-degree single-processor Mflops, the tracer phase priced
/// without computing it.
pub fn pop() -> Vec<Artifact> {
    let machine = presets::sx4_benchmarked();
    let got = Pop::priced_mflops(PopConfig::two_degree(), machine.clone(), 3);
    let vec_cfg = PopConfig { cshift_vectorized: true, ..PopConfig::two_degree() };
    let vectorized = Pop::priced_mflops(vec_cfg, machine, 3);
    vec![
        Artifact::Scalar {
            title: "POP 2-degree, 1 processor, scalar CSHIFT (as benchmarked)".into(),
            value: got,
            unit: "Mflops".into(),
        },
        Artifact::Scalar {
            title: "POP 2-degree, 1 processor (paper, pre-release F90 compiler)".into(),
            value: 537.0,
            unit: "Mflops".into(),
        },
        Artifact::Scalar {
            title: "POP 2-degree, 1 processor, vectorized CSHIFT (ablation)".into(),
            value: vectorized,
            unit: "Mflops".into(),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_matches_paper_rows() {
        let arts = table4();
        let Artifact::Table(t) = &arts[0] else { panic!() };
        assert_eq!(t.rows.len(), 5);
        assert_eq!(t.rows[0][0], "T42L18");
        assert_eq!(t.rows[4][1], "256 x 512");
        assert_eq!(t.rows[3][3], "7.5 min.");
    }

    #[test]
    fn ensemble_degradation_small() {
        let arts = table6();
        let Artifact::Table(t) = &arts[0] else { panic!() };
        let deg: f64 = t.rows[1][2].trim_end_matches('%').parse().unwrap();
        assert!(deg > 0.0 && deg < 6.0, "degradation {deg}%");
    }

    #[test]
    fn pop_scalar_slower_than_vectorized() {
        let arts = pop();
        let Artifact::Scalar { value: scalar, .. } = arts[0] else { panic!() };
        let Artifact::Scalar { value: vector, .. } = arts[2] else { panic!() };
        assert!(vector > 1.2 * scalar, "{vector} vs {scalar}");
        assert!((300.0..900.0).contains(&scalar));
        // The served number is the functional model's, which the paper
        // scorecard checks.
        let functional = Pop::new(PopConfig::two_degree(), presets::sx4_benchmarked()).mflops(3);
        assert_eq!(scalar.to_bits(), functional.to_bits());
    }
}
