//! RADABS: the raw-performance kernel (§4.4).
//!
//! "RADABS is intended to measure the proposed system's floating point
//! performance on the single most time consuming subroutine in NCAR's
//! CCM2. It is a computationally expensive radiation physics routine ...
//! Much of the time in RADABS is spent in intrinsic function calls (EXP,
//! LOG, PWR, SIN, and SQRT)."
//!
//! This port computes longwave absorptivities between every pair of the
//! `nlev` model levels with a Malkmus narrow-band model, Planck-weighted
//! and zenith-modulated, vectorized across a batch of columns — the
//! calculation is "embarrassingly parallel in the latitude and longitude
//! directions" and, as in the benchmark, every column holds identical
//! initial data. Performance is reported in Cray Y-MP equivalent Mflops.

use sxsim::{MachineModel, Vm};

/// Number of vertical levels in CCM2's production configuration.
pub const NLEV: usize = 18;

/// Deterministic standard-atmosphere-like column used to initialize every
/// column of the batch (level 0 = top of model).
pub(crate) fn standard_column(nlev: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut pressure = Vec::with_capacity(nlev); // hPa
    let mut temperature = Vec::with_capacity(nlev); // K
    let mut h2o_path = Vec::with_capacity(nlev); // kg/m^2 cumulative from top
    let mut cum = 0.0f64;
    for k in 0..nlev {
        let sigma = (k as f64 + 0.5) / nlev as f64;
        let p = 1000.0 * sigma.powf(1.2) + 2.0;
        let t = 216.0 + 72.0 * sigma.powf(1.5);
        // Water vapor concentrated near the surface.
        let q = 3.0e-3 * (-(1.0 - sigma) * 5.0).exp() + 3.0e-6;
        cum += q * p;
        pressure.push(p);
        temperature.push(t);
        h2o_path.push(cum);
    }
    (pressure, temperature, h2o_path)
}

/// Result of a RADABS run.
#[derive(Debug, Clone)]
pub struct RadabsResult {
    /// Simulation cost ledger.
    #[cfg(test)]
    pub(crate) cost: sxsim::Cost,
    /// Cray-equivalent Mflops achieved on the run's machine.
    pub(crate) cray_mflops: f64,
    /// Absorptivity matrix of the first column, `nlev * nlev`, for
    /// correctness checks (abs[k1*nlev + k2]). A pricing processor
    /// ([`Vm::pricing`]) computes no values: after a priced run the
    /// matrix holds zeros.
    pub absorptivity: Vec<f64>,
}

/// Band-model constants (representative mid-infrared H2O values).
const BAND_S: f64 = 8.5; // line strength
const BAND_BETA: f64 = 0.12; // line-width parameter
const STEFAN: f64 = 5.67e-8;

/// Run RADABS over a batch of `ncol` identical columns with `nlev` levels.
///
/// All arithmetic flows through the [`Vm`] facade as vectors across the
/// column batch, so the machine model prices it exactly as it would price
/// the Fortran original's column-vectorized loops.
pub fn radabs(vm: &mut Vm, ncol: usize, nlev: usize) -> RadabsResult {
    assert!(ncol > 0 && nlev >= 2);
    let (pressure, temperature, h2o_path) = standard_column(nlev);

    // One workspace of batch-length buffers, reused level after level and
    // pair after pair: the column state broadcast across the batch, and
    // the intermediates. A pricing run never reads them, so it skips the
    // broadcasts.
    let mut work = vec![0.0f64; 17 * ncol];
    let buffers: Vec<&mut [f64]> = work.chunks_exact_mut(ncol).collect();
    let buffers: [&mut [f64]; 17] = buffers.try_into().expect("the workspace holds 17 buffers");
    let [four, t, t4, p, ang, level, u, x, root, a, negs, tau, contrib, ones, pu1, pu2, zen2] =
        buffers;
    let computes = vm.computes();
    let bcast = |buf: &mut [f64], v: f64| {
        if computes {
            buf.fill(v);
        }
    };

    // Per-level precomputation: Planck emission B = sigma*T^4 via PWR,
    // log-pressure scaling, and a zenith modulation via SIN. The columns
    // are identical, so each level keeps its column-0 values.
    let (mut planck, mut logp, mut zen) = (vec![0.0; nlev], vec![0.0; nlev], vec![0.0; nlev]);
    bcast(four, 4.0);
    for k in 0..nlev {
        bcast(t, temperature[k]);
        vm.pow(t4, t, four); // PWR
        vm.scale(level, STEFAN, t4);
        planck[k] = level[0];
        bcast(p, pressure[k]);
        vm.log(level, p); // LOG
        logp[k] = level[0];
        bcast(ang, 0.3 + 0.05 * k as f64);
        vm.sin(level, ang); // SIN
        zen[k] = level[0];
    }

    // Pairwise absorptivity: Malkmus band model on the path between levels.
    let c1 = 4.0 * BAND_S / (std::f64::consts::PI * BAND_BETA);
    let c2 = 0.5 * std::f64::consts::PI * BAND_BETA;
    let mut absorptivity = vec![0.0f64; nlev * nlev];
    bcast(ones, 1.0);
    for k1 in 0..nlev {
        bcast(pu1, h2o_path[k1]);
        for k2 in (k1 + 1)..nlev {
            bcast(pu2, h2o_path[k2]);
            // Absorber path between the levels, pressure-scaled.
            vm.sub(u, pu2, pu1);
            let scale = 1.0 + 0.08 * (logp[k2] - logp[k1]).abs();
            vm.scale(x, c1 * scale, u);
            vm.add_scalar_in_place(x, 1.0);
            vm.sqrt(root, x); // SQRT
            vm.sub(a, root, ones);
            vm.scale_in_place(a, c2);
            vm.scale(negs, -1.0, a);
            vm.exp(tau, negs); // EXP

            // Absorptivity = (1 - transmission), Planck- and zenith-weighted.
            vm.sub(contrib, ones, tau);
            bcast(zen2, zen[k2]);
            vm.mul_in_place(contrib, zen2);
            let w = planck[k2] / (planck[nlev - 1] + 1e-30);
            vm.scale_in_place(contrib, w);
            let val = contrib[0];
            absorptivity[k1 * nlev + k2] = val;
            absorptivity[k2 * nlev + k1] = val;
        }
    }

    let cost = vm.cost();
    let cray_mflops = cost.cray_mflops(vm.model().clock_ns);
    RadabsResult {
        #[cfg(test)]
        cost,
        cray_mflops,
        absorptivity,
    }
}

/// Column count of the benchmark configuration: the full T42 horizontal
/// grid (64 latitudes x 128 longitudes), every column identical — "for the
/// purposes of the benchmark, the initial data is identical in each
/// vertical column."
pub const BENCH_NCOL: usize = 64 * 128;

/// Price RADABS on a fresh pricing processor of `model` over a batch of
/// `ncol` columns and return the achieved Cray-equivalent Mflops. The
/// figure depends only on vector lengths and op counts, so no absorptivity
/// is computed; `pricing_tests` holds it bit-identical to a functional run.
pub fn radabs_mflops(model: &MachineModel, ncol: usize, reps: usize) -> f64 {
    let mut vm = Vm::pricing(model.clone());
    let mut last = None;
    for _ in 0..reps.max(1) {
        last = Some(radabs(&mut vm, ncol, NLEV));
    }
    last.expect("at least one rep").cray_mflops
}

/// The paper's configuration: full grid batch on one processor.
pub fn radabs_benchmark(model: &MachineModel) -> f64 {
    radabs_mflops(model, BENCH_NCOL, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxsim::presets;

    fn run(ncol: usize) -> RadabsResult {
        let mut vm = Vm::new(presets::sx4_benchmarked());
        radabs(&mut vm, ncol, NLEV)
    }

    #[test]
    fn absorptivity_in_physical_range() {
        let r = run(32);
        for (i, &a) in r.absorptivity.iter().enumerate() {
            assert!((0.0..1.0).contains(&a), "abs[{i}] = {a} out of [0,1)");
        }
    }

    #[test]
    fn diagonal_is_zero_and_matrix_symmetric() {
        let r = run(16);
        for k in 0..NLEV {
            assert_eq!(r.absorptivity[k * NLEV + k], 0.0);
            for j in 0..NLEV {
                assert_eq!(r.absorptivity[k * NLEV + j], r.absorptivity[j * NLEV + k]);
            }
        }
    }

    #[test]
    fn absorptivity_grows_with_path_from_top() {
        // Fixing the upper level at the model top, deeper lower levels see
        // more absorber (within the same zenith/planck weights the trend
        // holds for the top row).
        let r = run(16);
        let top_row: Vec<f64> = (1..NLEV).map(|k2| r.absorptivity[k2]).collect();
        assert!(top_row.windows(2).filter(|w| w[1] >= w[0]).count() >= top_row.len() / 2);
        assert!(top_row.last().unwrap() > top_row.first().unwrap());
    }

    #[test]
    fn intrinsics_dominate_cray_flops() {
        // The paper: "Much of the time in RADABS is spent in intrinsic
        // function calls." Cray-equivalent flops should far exceed raw ops.
        let r = run(64);
        assert!(r.cost.cray_flops > 1.5 * r.cost.flops as f64);
    }

    #[test]
    fn vector_machines_crush_cache_machines() {
        // Table 1 ordering: Y-MP >> J90 >> RS6K ~ SPARC20.
        let ymp = radabs_benchmark(&presets::cray_ymp());
        let j90 = radabs_benchmark(&presets::cri_j90());
        let rs6k = radabs_benchmark(&presets::rs6000_590());
        let sparc = radabs_benchmark(&presets::sparc20());
        assert!(ymp > 2.0 * j90, "ymp {ymp} vs j90 {j90}");
        assert!(j90 > 1.5 * rs6k, "j90 {j90} vs rs6k {rs6k}");
        assert!(ymp > 8.0 * sparc, "ymp {ymp} vs sparc {sparc}");
    }

    #[test]
    fn sx4_is_fastest_machine() {
        let sx4 = radabs_benchmark(&presets::sx4_benchmarked());
        let ymp = radabs_benchmark(&presets::cray_ymp());
        assert!(sx4 > 3.0 * ymp, "sx4 {sx4} vs ymp {ymp}");
    }

    #[test]
    fn sx4_lands_near_paper_headline() {
        // §4.4: 865.9 Cray Y-MP equivalent Mflops on the 9.2 ns SX-4/1.
        let sx4 = radabs_benchmark(&presets::sx4_benchmarked());
        assert!(
            (600.0..1200.0).contains(&sx4),
            "SX-4 RADABS {sx4} Mflops outside the calibration band around 865.9"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(32);
        let b = run(32);
        assert_eq!(a.absorptivity, b.absorptivity);
        assert_eq!(a.cost.cycles, b.cost.cycles);
    }

    #[test]
    fn standard_column_monotone() {
        let (p, t, u) = standard_column(NLEV);
        assert!(p.windows(2).all(|w| w[1] > w[0]), "pressure increases downward");
        assert!(t.windows(2).all(|w| w[1] >= w[0]), "temperature increases downward");
        assert!(u.windows(2).all(|w| w[1] > w[0]), "path accumulates");
    }
}

#[cfg(test)]
mod pricing_tests {
    use super::*;
    use sxsim::presets;

    /// A pricing run charges exactly what a functional run charges: every
    /// ledger field by bits, the op statistics and the PROGINF report, on
    /// the benchmarked SX-4 and each Table 1 machine, from one column to
    /// the benchmark's full grid.
    #[test]
    fn pricing_matches_functional_runs() {
        let bits = |c: sxsim::Cost| [c.cycles.to_bits(), c.flops, c.cray_flops.to_bits(), c.bytes];
        let machines =
            std::iter::once(presets::sx4_benchmarked()).chain(presets::table1_machines());
        for model in machines {
            for ncol in [1, 64, BENCH_NCOL] {
                let mut functional = Vm::new(model.clone());
                let mut pricing = Vm::pricing(model.clone());
                let f = radabs(&mut functional, ncol, NLEV);
                let p = radabs(&mut pricing, ncol, NLEV);
                let at = format!("{} at ncol {ncol}", model.name);
                assert_eq!(bits(f.cost), bits(p.cost), "{at}");
                assert_eq!(f.cray_mflops.to_bits(), p.cray_mflops.to_bits(), "{at}");
                assert_eq!(functional.stats(), pricing.stats(), "{at}");
                assert_eq!(
                    format!("{:?}", functional.proginf()),
                    format!("{:?}", pricing.proginf()),
                    "{at}"
                );
                assert!(f.absorptivity.iter().any(|&a| a > 0.0), "{at}");
                assert!(p.absorptivity.iter().all(|&a| a == 0.0), "{at}: pricing computes nothing");
            }
        }
    }

    #[test]
    fn radabs_mflops_prices_what_a_functional_run_measures() {
        let model = presets::sx4_benchmarked();
        let functional = radabs(&mut Vm::new(model.clone()), 256, NLEV).cray_mflops;
        assert_eq!(radabs_mflops(&model, 256, 1).to_bits(), functional.to_bits());
    }
}

#[cfg(test)]
mod calibration {
    use super::*;
    use sxsim::presets;

    /// Not a test: prints the calibration table. Run with
    /// `cargo test -p ncar-kernels --release -- --ignored --nocapture calibration`.
    #[test]
    #[ignore = "calibration printout, not an assertion"]
    fn print_radabs_calibration() {
        for m in [
            presets::sx4_benchmarked(),
            presets::cray_ymp(),
            presets::cri_j90(),
            presets::sparc20(),
            presets::rs6000_590(),
        ] {
            println!("{:<22} {:>8.1} Cray-equivalent Mflops", m.name.clone(), radabs_benchmark(&m));
        }
    }
}
