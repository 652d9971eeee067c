//! Application experiments: Table 4, Figure 8, Table 5, Table 6 (CCM2),
//! Table 7 (MOM) and the POP Mflops headline (§4.7).

use ccm_proxy::{Ccm2Config, Ccm2Proxy, Resolution, StepTiming};
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

/// How an experiment obtains one steady-state CCM2 step at a
/// resolution/processor count.
type StepFn = fn(Resolution, usize) -> StepTiming;

/// One steady-state CCM2 step (the second step of a fresh model), served
/// from the process-wide step memo: the first request per configuration
/// steps a model, every later one replays the recorded step.
fn ccm2_step(res: Resolution, procs: usize) -> StepTiming {
    ccm_proxy::steady_step(&Ccm2Config::benchmark(res), &presets::sx4_benchmarked(), procs)
}

/// Figure 8: CCM2 sustained Cray-equivalent Gflops vs processors, for
/// T42, T106 and T170.
pub fn fig8() -> Vec<Artifact> {
    let mut fig = Figure::new(
        "Figure 8: CCM2 performance (Cray-equivalent Gflops) vs processors on the SX-4/32",
    );
    for res in [Resolution::T42, Resolution::T106, Resolution::T170] {
        fig.push(fig8_series(res, ccm2_step));
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

/// One resolution's Figure 8 curve.
fn fig8_series(res: Resolution, step: StepFn) -> Series {
    let clock = presets::sx4_benchmarked().clock_ns;
    // Each (resolution, procs) run is an independent model: fan the six
    // processor counts out across host cores.
    let pts: Vec<(f64, f64)> = ncar_suite::par_map(vec![1usize, 2, 4, 8, 16, 32], |procs| {
        let t = step(res, procs);
        (procs as f64, t.timing.cray_gflops(clock))
    });
    let mut s = Series::new(res.name(), "processors", "Cray-equivalent Gflops");
    for (x, y) in pts {
        s.push(x, y);
    }
    s
}

/// Table 5: time to simulate one year of climate at T42L18 and T63L18 on
/// the 32-processor node, including the daily history/restart writes
/// (~15 GB over the T63 year).
pub fn table5() -> Vec<Artifact> {
    table5_with(ccm2_step)
}

fn table5_with(step: StepFn) -> Vec<Artifact> {
    let mut t = Table::new(
        "Table 5: seconds to simulate one year (32 processors, daily history writes through SFS)",
        &["Resolution", "Simulated", "Paper"],
    );
    let paper = [("T42L18", 1327.53), ("T63L18", 3452.48)];
    for (i, res) in [Resolution::T42, Resolution::T63].into_iter().enumerate() {
        let step = step(res, 32);
        let model = Ccm2Proxy::new(Ccm2Config::benchmark(res), presets::sx4_benchmarked());
        let steps_per_year = 365 * res.steps_per_day();
        let compute = steps_per_year as f64 * step.seconds;
        // 365 daily history writes; the application blocks only for the
        // XMU staging leg.
        let mut fs = Sfs::benchmarked();
        let bytes_per_day = model.history_bytes_per_day();
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
    table6_with(ccm2_step)
}

fn table6_with(step: StepFn) -> Vec<Artifact> {
    let res = Resolution::T42;
    let step = step(res, 4);
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
        let mut m = Mom::new(MomConfig::high_resolution(), presets::sx4_benchmarked());
        // One diagnostics period, scaled to 350 steps (steady state). Only
        // the period's first step and its diagnostics step run the model;
        // the rest replay a recorded charge program, bit-identically.
        let block = m.run_replayed(10, procs);
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

/// §4.7.3: POP 2-degree single-processor Mflops.
pub fn pop() -> Vec<Artifact> {
    let mut m = Pop::new(PopConfig::two_degree(), presets::sx4_benchmarked());
    let got = m.mflops(3);
    let mut vec_cfg = PopConfig::two_degree();
    vec_cfg.cshift_vectorized = true;
    let mut mv = Pop::new(vec_cfg, presets::sx4_benchmarked());
    let vectorized = mv.mflops(3);
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

    /// The stepping path the memo replaced: a fresh model's second step.
    fn two_real_steps(res: Resolution, procs: usize) -> StepTiming {
        let mut m = Ccm2Proxy::new(Ccm2Config::benchmark(res), presets::sx4_benchmarked());
        m.step(procs); // forward (spin-up) step
        m.step(procs)
    }

    fn json(artifacts: &[Artifact]) -> String {
        artifacts.iter().map(Artifact::to_json).collect::<Vec<_>>().join("\n")
    }

    #[test]
    fn memo_served_experiments_match_the_stepping_path_byte_for_byte() {
        // Twice through the memo: the first call may miss, the second
        // replays; both must print what the stepping path prints.
        for _ in 0..2 {
            assert_eq!(json(&table6()), json(&table6_with(two_real_steps)));
            assert_eq!(json(&table5()), json(&table5_with(two_real_steps)));
        }
        // Figure 8's T42 curve (the T106/T170 curves take minutes on the
        // stepping path; they share this code and the memo's key).
        for _ in 0..2 {
            let memo = fig8_series(Resolution::T42, ccm2_step);
            let direct = fig8_series(Resolution::T42, two_real_steps);
            assert_eq!(format!("{memo:?}"), format!("{direct:?}"));
        }
    }

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
    }
}
