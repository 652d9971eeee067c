//! Extension experiments beyond the paper's tables:
//!
//! - `projection`: the paper's forward-looking claim that "an additional
//!   15% performance improvement can be realized with ... an 8.0 ns clock"
//!   (§4.7.1), tested by re-running CCM2 on the production-clock model;
//! - `ablations`: which architectural features buy which results —
//!   vector-startup cost vs the RFFT/VFFT gap, bank count vs XPOSE,
//!   gather hardware vs IA, and the multi-node IXS cost of going past one
//!   node.

use ccm_proxy::{Ccm2Config, Resolution};
use ncar_kernels::fft::run_fft_point;
use ncar_kernels::fft::{charge_transform, LoopOrder};
use ncar_kernels::membw::{run_point, MembwKind};
use ncar_kernels::radabs::{radabs, BENCH_NCOL, NLEV};
use ncar_suite::{Artifact, Instance, Table};
use sxsim::{presets, Ixs, Vm};

/// The 8.0 ns projection: same machine, production clock.
pub fn projection() -> Vec<Artifact> {
    let mut t = Table::new(
        "Projection: CCM2 T42L18 on 32 processors, 9.2 ns benchmarked clock vs 8.0 ns production clock",
        &["Clock", "Sim s/step", "Speedup vs 9.2 ns"],
    );
    let step = |clock: f64| {
        ccm_proxy::steady_step(&Ccm2Config::benchmark(Resolution::T42), &presets::sx4(clock), 32)
            .seconds
    };
    let t92 = step(9.2);
    let t80 = step(8.0);
    t.row(&["9.2 ns".into(), format!("{t92:.4}"), "1.00".into()]);
    t.row(&["8.0 ns".into(), format!("{t80:.4}"), format!("{:.2}", t92 / t80)]);
    vec![
        Artifact::Table(t),
        Artifact::Scalar {
            title: "Paper's projection (clock + tuning)".into(),
            value: 15.0,
            unit: "% improvement anticipated".into(),
        },
    ]
}

/// Architecture ablations: vary one machine parameter, watch one benchmark.
pub fn ablations() -> Vec<Artifact> {
    let mut out = Vec::new();

    // 1. Vector startup vs the coding-style gap (Figures 6/7 mechanism).
    {
        let mut t = Table::new(
            "Ablation: vector startup cycles vs the VFFT/RFFT gap (N=256, M=500)",
            &["Startup cycles", "RFFT Mflops", "VFFT Mflops", "Ratio"],
        );
        for startup in [10.0, 40.0, 160.0] {
            let mut m = presets::sx4_benchmarked();
            m.vector.as_mut().unwrap().startup_cycles = startup;
            let r = run_fft_point(&m, 256, 500, LoopOrder::AxisFastest);
            let v = run_fft_point(&m, 256, 500, LoopOrder::InstanceFastest);
            t.row(&[
                format!("{startup}"),
                format!("{:.0}", r.mflops),
                format!("{:.0}", v.mflops),
                format!("{:.1}", v.mflops / r.mflops),
            ]);
        }
        out.push(Artifact::Table(t));
    }

    // 2. Bank count vs XPOSE (power-of-two stride conflicts).
    {
        let mut t = Table::new(
            "Ablation: memory banks vs XPOSE bandwidth (N=512 transpose)",
            &["Banks", "XPOSE MB/s"],
        );
        for banks in [128usize, 512, 1024, 4096] {
            let mut m = presets::sx4_benchmarked();
            m.memory.banks = banks;
            let p = run_point(&m, MembwKind::Xpose, Instance { n: 512, m: 8 }, 2);
            t.row(&[format!("{banks}"), format!("{:.0}", p.mb_per_s)]);
        }
        out.push(Artifact::Table(t));
    }

    // 3. Gather hardware vs IA.
    {
        let mut t = Table::new(
            "Ablation: gather rate (elements/cycle) vs IA bandwidth",
            &["Gather elems/cycle", "IA MB/s"],
        );
        for rate in [0.5, 1.0, 2.5, 8.0] {
            let mut m = presets::sx4_benchmarked();
            m.vector.as_mut().unwrap().gather_elems_per_cycle = rate;
            let p = run_point(&m, MembwKind::Ia, Instance { n: 262_144, m: 4 }, 2);
            t.row(&[format!("{rate}"), format!("{:.0}", p.mb_per_s)]);
        }
        out.push(Artifact::Table(t));
    }

    // 4. Multi-node spectral transpose over the IXS: what leaving the
    // single shared-memory node costs.
    {
        let mut t = Table::new(
            "Ablation: IXS all-to-all cost of a T170 spectral transpose across nodes",
            &["Nodes", "Exchange ms/step", "Barrier us"],
        );
        let res = Resolution::T170;
        let field_bytes = (res.ncols() * res.nlev() * 8) as u64;
        for nodes in [2usize, 4, 8, 16] {
            let ixs = Ixs::new(nodes);
            let per_pair = field_bytes / (nodes * nodes) as u64;
            let s = ixs.all_to_all_seconds(per_pair);
            t.row(&[
                format!("{nodes}"),
                format!("{:.2}", s * 1e3),
                format!("{:.1}", ixs.barrier_seconds() * 1e6),
            ]);
        }
        out.push(Artifact::Table(t));
    }

    out
}

/// Multi-node scaling over the IXS: the SX-4/512 direction of the paper's
/// architecture section, exercised by the CCM2 proxy. The title says
/// "first step timing"; a fresh model's first (forward) step charges
/// exactly what every later step charges, so it is also the steady step.
pub fn multinode() -> Vec<Artifact> {
    let mut t = Table::new(
        "Extension: CCM2 across IXS-coupled nodes (32 processors per node, first step timing)",
        &["Resolution", "Nodes", "Sim s/step", "Speedup vs 1 node"],
    );
    for res in [Resolution::T42, Resolution::T85] {
        let mut base = None;
        for nodes in [1usize, 2, 4] {
            let (config, machine) = (Ccm2Config::benchmark(res), presets::sx4_benchmarked());
            let s = if nodes == 1 {
                ccm_proxy::steady_step(&config, &machine, 32)
            } else {
                ccm_proxy::steady_step_multinode(&config, &machine, nodes, 32)
            };
            let one = *base.get_or_insert(s.seconds);
            t.row(&[
                res.name(),
                format!("{nodes}"),
                format!("{:.4}", s.seconds),
                format!("{:.2}", one / s.seconds),
            ]);
        }
    }
    vec![Artifact::Table(t)]
}

/// FTRACE of one CCM2 timestep: where the time goes, phase by phase —
/// the per-routine view behind the paper's Figure 8 analysis.
pub fn ftrace() -> Vec<Artifact> {
    let (config, machine) = (Ccm2Config::benchmark(Resolution::T42), presets::sx4_benchmarked());
    let (_t, ft) = ccm_proxy::steady_step_traced(&config, &machine, 4);
    let mut table = Table::new(
        "FTRACE: one CCM2 T42L18 step on processor 0 of 4 (exclusive per-phase totals)",
        &["Phase", "Calls", "Excl. ms", "Time %", "MFLOPS", "V.op %", "Avg VL"],
    );
    let clock = machine.clock_ns;
    let total: f64 = ft.regions().values().map(|r| r.cost.cycles).sum();
    let mut rows: Vec<_> = ft.regions().iter().collect();
    rows.sort_by(|a, b| b.1.cost.cycles.total_cmp(&a.1.cost.cycles));
    for (name, r) in rows {
        table.row(&[
            name.clone(),
            format!("{}", r.calls),
            format!("{:.3}", r.seconds(clock) * 1e3),
            format!("{:.1}", 100.0 * r.cost.cycles / total),
            format!("{:.0}", r.mflops(clock)),
            format!("{:.1}", r.vector_ratio_pct()),
            format!("{:.1}", r.average_vector_length()),
        ]);
    }
    vec![Artifact::Table(table)]
}

/// PROGINF reports for contrasting workloads: the vocabulary behind the
/// paper's analysis (vectorization ratio, average vector length).
pub fn proginf() -> Vec<Artifact> {
    let machine = presets::sx4_benchmarked();
    let mut t = Table::new(
        "PROGINF summaries: why each benchmark behaves as it does",
        &["Workload", "Vector op ratio %", "Avg vector length", "MFLOPS", "Cray-equiv MFLOPS"],
    );

    // RADABS: long vectors, intrinsic-heavy. Priced: the report reads
    // only the ledger and the op statistics.
    let mut vm = Vm::pricing(machine.clone());
    radabs(&mut vm, BENCH_NCOL, NLEV);
    let p = vm.proginf();
    t.row(&[
        "RADABS (8192 columns)".into(),
        format!("{:.1}", p.vector_operation_ratio_pct),
        format!("{:.0}", p.average_vector_length),
        format!("{:.0}", p.mflops),
        format!("{:.0}", p.cray_equiv_mflops),
    ]);

    // RFFT vs VFFT: same arithmetic, different vector lengths.
    for (label, order, m) in [
        ("RFFT N=256 (axis fastest)", LoopOrder::AxisFastest, 1usize),
        ("VFFT N=256, M=500 (instance fastest)", LoopOrder::InstanceFastest, 500usize),
    ] {
        let mut vm = Vm::new(machine.clone());
        charge_transform(&mut vm, 256, m, order);
        let p = vm.proginf();
        t.row(&[
            label.into(),
            format!("{:.1}", p.vector_operation_ratio_pct),
            format!("{:.1}", p.average_vector_length),
            format!("{:.0}", p.mflops),
            format!("{:.0}", p.cray_equiv_mflops),
        ]);
    }

    // HINT: scalar through and through.
    let mut vm = Vm::new(machine);
    vm.charge_scalar_loop(20_000, 40.0, 24.0, 12.0, sxsim::LocalityPattern::Streaming);
    let p = vm.proginf();
    t.row(&[
        "HINT-like adaptive subdivision".into(),
        format!("{:.1}", p.vector_operation_ratio_pct),
        format!("{:.1}", p.average_vector_length),
        format!("{:.0}", p.mflops),
        format!("{:.0}", p.cray_equiv_mflops),
    ]);

    vec![Artifact::Table(t)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proginf_contrasts_hold() {
        let arts = proginf();
        let Artifact::Table(t) = &arts[0] else { panic!() };
        let ratio = |row: usize| -> f64 { t.rows[row][1].parse().unwrap() };
        let avl = |row: usize| -> f64 { t.rows[row][2].parse().unwrap() };
        assert!(ratio(0) > 95.0, "RADABS should be highly vectorized");
        assert!(avl(2) > 5.0 * avl(1), "VFFT vectors much longer than RFFT");
        assert_eq!(ratio(3), 0.0, "HINT is scalar");
    }

    #[test]
    fn faster_clock_speeds_up_ccm2() {
        let arts = projection();
        let Artifact::Table(t) = &arts[0] else { panic!() };
        let speedup: f64 = t.rows[1][2].parse().unwrap();
        // 9.2/8.0 = 1.15: the clock alone delivers the paper's 15%.
        assert!((1.05..1.25).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn higher_startup_widens_fft_gap() {
        let arts = ablations();
        let Artifact::Table(t) = &arts[0] else { panic!() };
        let lo: f64 = t.rows[0][3].parse().unwrap();
        let hi: f64 = t.rows[2][3].parse().unwrap();
        assert!(hi > lo, "startup should widen the gap: {lo} vs {hi}");
    }

    #[test]
    fn more_banks_help_xpose() {
        let arts = ablations();
        let Artifact::Table(t) = &arts[1] else { panic!() };
        let few: f64 = t.rows[0][1].parse().unwrap();
        let many: f64 = t.rows[3][1].parse().unwrap();
        assert!(many >= few, "{few} vs {many}");
    }

    #[test]
    fn gather_rate_drives_ia() {
        let arts = ablations();
        let Artifact::Table(t) = &arts[2] else { panic!() };
        let slow: f64 = t.rows[0][1].parse().unwrap();
        let fast: f64 = t.rows[3][1].parse().unwrap();
        assert!(fast > 2.0 * slow, "{slow} vs {fast}");
    }
}
