//! The POP benchmark proxy: the Parallel Ocean Program's free-surface
//! formulation (paper §4.7.3) — "a stand-alone code with a free surface
//! formulation and flat bottom topography", written in Fortran 90 whose
//! array syntax leans on CSHIFT for stencils.
//!
//! The paper's headline: with a pre-release NEC F90 compiler "the CSHIFT
//! intrinsic did not vectorize. Even so, we observed 537 Mflops on the
//! 2-degree POP benchmark on one processor of the SX-4." The
//! [`PopConfig::cshift_vectorized`] switch prices the stencil shifts
//! through the scalar unit (the benchmarked situation) or the vector unit
//! (what a mature compiler does), making the compiler effect an ablation
//! you can run.
//!
//! Numerics: barotropic free-surface dynamics solved with the implicit
//! method (a CG Helmholtz solve per step, as POP does), plus a baroclinic
//! tracer leg with EOS evaluations.
//!
//! Only the barotropic solve decides what a step costs: the CG iteration
//! count depends on the free surface and transports, every other charge on
//! the grid shape alone. [`Pop::priced_mflops`] therefore computes the
//! barotropic fields and prices the tracer leg without its arithmetic.

use crate::eos::density;
use crate::poisson::{conjugate_gradient, lon_neighbours, CgOptions, Grid2};
use sxsim::node::partition;
use sxsim::{
    Access, Cost, LocalityPattern, MachineModel, Node, NodeTiming, Region, VecOp, Vm, VopClass,
};

/// POP configuration.
#[derive(Debug, Clone)]
pub struct PopConfig {
    pub nlat: usize,
    pub nlon: usize,
    pub nlev: usize,
    /// Timestep (s).
    pub dt: f64,
    /// Whether the compiler vectorizes CSHIFT (false = the paper's
    /// pre-release F90 situation).
    pub cshift_vectorized: bool,
    /// CG tolerance for the implicit free surface.
    pub cg_tol: f64,
}

impl PopConfig {
    /// "the 2-degree POP benchmark": ~2° grid, 20 levels.
    pub fn two_degree() -> PopConfig {
        PopConfig {
            nlat: 90,
            nlon: 180,
            nlev: 20,
            dt: 1800.0,
            cshift_vectorized: false,
            cg_tol: 1e-6,
        }
    }

    /// A small configuration for tests.
    pub fn tiny() -> PopConfig {
        PopConfig {
            nlat: 16,
            nlon: 32,
            nlev: 4,
            dt: 1800.0,
            cshift_vectorized: false,
            cg_tol: 1e-9,
        }
    }
}

/// The model: barotropic free surface + barotropic transport + a stack of
/// tracer levels.
pub struct Pop {
    pub config: PopConfig,
    machine: MachineModel,
    /// Free-surface height.
    pub eta: Grid2,
    /// Barotropic transports.
    pub ubar: Grid2,
    pub vbar: Grid2,
    /// Tracer (temperature) levels: `[lev][lat*nlon+lon]`.
    pub temp: Vec<Vec<f64>>,
    /// The levels a step writes before swapping them into `temp`.
    temp_next: Vec<Vec<f64>>,
    pub steps: usize,
    /// Whether the tracer phase computes the tracers (false for a pricing
    /// model, see [`Pop::priced_mflops`]).
    computes: bool,
}

/// Gravity x mean depth (wave speed squared, grid units).
const GH: f64 = 0.5;

/// Timing of one step.
#[derive(Debug, Clone, Copy)]
pub struct PopStepTiming {
    pub timing: NodeTiming,
    pub seconds: f64,
    /// CG iterations the free-surface solve needed.
    pub cg_iters: usize,
}

impl Pop {
    pub fn new(config: PopConfig, machine: MachineModel) -> Pop {
        let (nlat, nlon, nlev) = (config.nlat, config.nlon, config.nlev);
        let mut temp = vec![vec![0.0; nlat * nlon]; nlev];
        for (k, lev) in temp.iter_mut().enumerate() {
            for i in 0..nlat {
                for j in 0..nlon {
                    let lat_frac = i as f64 / (nlat - 1).max(1) as f64;
                    lev[i * nlon + j] =
                        4.0 + 20.0 * (1.0 - (2.0 * lat_frac - 1.0).powi(2)) / (1.0 + k as f64);
                }
            }
        }
        Pop {
            temp_next: vec![vec![0.0; nlat * nlon]; nlev],
            temp,
            computes: true,
            ..Pop::pricing(config, machine)
        }
    }

    /// Sustained Mflops of a `steps`-step single-processor run, with the
    /// tracer phase priced rather than computed: what [`Pop::mflops`] of a
    /// fresh functional model returns, bit for bit.
    pub fn priced_mflops(config: PopConfig, machine: MachineModel, steps: usize) -> f64 {
        Pop::pricing(config, machine).mflops(steps)
    }

    /// A model that computes the barotropic fields and prices the tracer
    /// phase. It holds no tracer levels, so only [`Pop::priced_mflops`],
    /// which returns a rate, steps it.
    fn pricing(config: PopConfig, machine: MachineModel) -> Pop {
        let (nlat, nlon) = (config.nlat, config.nlon);
        let mut eta = Grid2::zeros(nlat, nlon);
        // An initial surface bump sets the free surface in motion.
        for i in 0..nlat {
            for j in 0..nlon {
                let y = (i as f64 / nlat as f64 - 0.5) * 4.0;
                let x = (j as f64 / nlon as f64 - 0.5) * 4.0;
                eta.set(i, j, 0.3 * (-(x * x + y * y)).exp());
            }
        }
        Pop {
            eta,
            ubar: Grid2::zeros(nlat, nlon),
            vbar: Grid2::zeros(nlat, nlon),
            temp: Vec::new(),
            temp_next: Vec::new(),
            config,
            machine,
            steps: 0,
            computes: false,
        }
    }

    /// Charge a group of `count` CSHIFTs over the same `n`-element field
    /// through the configured path. F90 `CSHIFT(a, 1, dim)` touches every
    /// element once; in a stencil group the first shift streams the field
    /// through the scalar unit's cache and the remaining shifts re-read it
    /// hot, which is how the benchmarked code behaved.
    fn charge_cshift_group(&self, vm: &mut Vm, n: usize, count: usize) {
        if self.config.cshift_vectorized {
            vm.charge_vector_op_repeated(
                &VecOp::new(n, VopClass::Logical, &[Access::Stride(1)], &[Access::Stride(1)]),
                count,
            );
        } else {
            // The pre-release compiler's scalar loops.
            vm.charge_scalar_loop(n, 0.0, 1.0, 1.0, LocalityPattern::Streaming);
            for _ in 1..count {
                vm.charge_scalar_loop(
                    n,
                    0.0,
                    1.0,
                    1.0,
                    LocalityPattern::Resident { working_set_bytes: 16 * 1024 },
                );
            }
        }
    }

    /// Total mass (mean surface height) — conserved by the flux-form
    /// free-surface update.
    pub fn mass(&self) -> f64 {
        self.eta.data.iter().sum::<f64>() / self.eta.data.len() as f64
    }

    /// Advance one step on `procs` processors.
    pub fn step(&mut self, procs: usize) -> PopStepTiming {
        assert!(procs >= 1 && procs <= self.machine.procs);
        let PopConfig { nlat, nlon, nlev, dt, .. } = self.config;
        let ncol = nlat * nlon;
        let chunks = partition(nlat, procs);
        let mut regions = Vec::new();

        // ---- Baroclinic/tracer phase (parallel over latitude). -----------
        // Every point of `temp_next` is written: the chunks cover all rows.
        // A pricing model runs this phase on pricing processors and hands
        // the equation of state one zero level, which it never reads.
        let mut phase = Vec::with_capacity(procs);
        let zero_level = if self.computes { Vec::new() } else { vec![0.0; ncol] };
        let mut rho = vec![0.0f64; ncol];
        for chunk in &chunks {
            let mut vm = if self.computes {
                Vm::new(self.machine.clone())
            } else {
                Vm::pricing(self.machine.clone())
            };
            if chunk.is_empty() {
                phase.push(Cost::ZERO);
                continue;
            }
            for k in 0..nlev {
                let lo = chunk.start * nlon;
                let hi = (chunk.end * nlon).min(ncol);
                // T doubles as the salinity proxy of the same field width.
                let temp = if self.computes { &self.temp[k][lo..hi] } else { &zero_level[lo..hi] };
                density(&mut vm, &mut rho[lo..hi], temp, temp, (k as f64 + 0.5) * 150.0);
                // F90-style stencil group: 4 CSHIFTs over this processor's
                // rows.
                self.charge_cshift_group(&mut vm, chunk.len() * nlon, 4);
                if vm.computes() {
                    let (t, out) = (&self.temp[k], &mut self.temp_next[k]);
                    for i in chunk.clone() {
                        for j in 0..nlon {
                            let idx = i * nlon + j;
                            let (jm, jp) = lon_neighbours(j, nlon);
                            let (jm, jp) = (i * nlon + jm, i * nlon + jp);
                            let up = if i + 1 < nlat { t[(i + 1) * nlon + j] } else { t[idx] };
                            let dn = if i > 0 { t[(i - 1) * nlon + j] } else { t[idx] };
                            let lap = up + dn + t[jp] + t[jm] - 4.0 * t[idx];
                            out[idx] = t[idx] + 0.05 * lap - 1e-6 * rho[idx];
                        }
                    }
                }
                // Tracer + full 3-D momentum arithmetic of a POP level
                // (~200 vectorized flops per point). F90 whole-array
                // expressions vectorize over the entire 2-D slab, so the
                // vector length is the slab, not one row.
                vm.charge_vector_op_repeated(
                    &VecOp::new(
                        chunk.len() * nlon,
                        VopClass::Fma,
                        &[Access::Stride(1), Access::Stride(1)],
                        &[Access::Stride(1)],
                    ),
                    100,
                );
            }
            phase.push(vm.take_cost());
        }
        regions.push(Region::Parallel(phase));
        std::mem::swap(&mut self.temp, &mut self.temp_next);

        // ---- Implicit free surface (the POP signature move). -------------
        // Semi-implicit: (1 - GH dt'^2 lap) eta^{n+1} = eta^n - dt' div(U).
        // We solve (alpha - lap) x = rhs with alpha = 1/(GH dt'^2).
        let dtn = (dt / 3600.0).min(1.0); // grid-unit step
        let alpha = 1.0 / (GH * dtn * dtn);
        // Flux-form divergence: face transports average the cell values,
        // wall faces carry zero normal flow — so the divergence telescopes
        // to exactly zero over the domain and the free surface conserves
        // volume to solver tolerance.
        let mut rhs = Grid2::zeros(nlat, nlon);
        for i in 0..nlat {
            for j in 0..nlon {
                let (jm, jp) = lon_neighbours(j, nlon);
                let ue = 0.5 * (self.ubar.at(i, j) + self.ubar.at(i, jp));
                let uw = 0.5 * (self.ubar.at(i, jm) + self.ubar.at(i, j));
                let vn = if i + 1 < nlat {
                    0.5 * (self.vbar.at(i, j) + self.vbar.at(i + 1, j))
                } else {
                    0.0
                };
                let vs =
                    if i > 0 { 0.5 * (self.vbar.at(i - 1, j) + self.vbar.at(i, j)) } else { 0.0 };
                let div = (ue - uw) + (vn - vs);
                rhs.set(i, j, alpha * (self.eta.at(i, j) - dtn * div));
            }
        }
        let mut vm = Vm::new(self.machine.clone());
        // RHS assembly uses 4 CSHIFTs + arithmetic.
        self.charge_cshift_group(&mut vm, ncol, 4);
        vm.charge_vector_op_repeated(
            &VecOp::new(
                ncol,
                VopClass::Fma,
                &[Access::Stride(1), Access::Stride(1)],
                &[Access::Stride(1)],
            ),
            6,
        );
        let mut eta_new = self.eta.clone();
        let (iters, _res) = conjugate_gradient(
            &mut vm,
            &mut eta_new,
            &rhs,
            &CgOptions {
                alpha,
                tol: self.config.cg_tol,
                max_iter: 500,
                scalar_cshift: !self.config.cshift_vectorized,
                neumann: true,
            },
        );

        // Transport update from the new surface gradient + drag.
        for i in 0..nlat {
            for j in 0..nlon {
                let (jm, jp) = lon_neighbours(j, nlon);
                let detadx = 0.5 * (eta_new.at(i, jp) - eta_new.at(i, jm));
                let detady = if i > 0 && i + 1 < nlat {
                    0.5 * (eta_new.at(i + 1, j) - eta_new.at(i - 1, j))
                } else {
                    0.0
                };
                let drag = 0.995;
                self.ubar.set(i, j, drag * (self.ubar.at(i, j) - GH * dtn * detadx));
                self.vbar.set(i, j, drag * (self.vbar.at(i, j) - GH * dtn * detady));
            }
        }
        self.charge_cshift_group(&mut vm, ncol, 4);
        vm.charge_vector_op_repeated(
            &VecOp::new(
                ncol,
                VopClass::Fma,
                &[Access::Stride(1), Access::Stride(1)],
                &[Access::Stride(1)],
            ),
            8,
        );
        self.eta = eta_new;
        // The barotropic solve parallelizes over grid chunks in POP; on the
        // single node we model it as parallel with a barrier per CG
        // iteration (two reductions each).
        let solve_cost = vm.take_cost();
        let per_proc = Cost {
            cycles: solve_cost.cycles / procs as f64,
            flops: solve_cost.flops / procs as u64,
            cray_flops: solve_cost.cray_flops / procs as f64,
            bytes: solve_cost.bytes / procs as u64,
        };
        regions.push(Region::Parallel(vec![per_proc; procs]));
        {
            let mut sync = Vm::new(self.machine.clone());
            sync.charge(Cost::cycles(iters as f64 * 2.0 * 400.0));
            regions.push(Region::Serial(sync.take_cost()));
        }

        self.steps += 1;
        let node = Node::new(self.machine.clone());
        let timing =
            node.time_regions(&regions).expect("partitioned within the node's processor count");
        PopStepTiming { timing, seconds: timing.seconds(self.machine.clock_ns), cg_iters: iters }
    }

    /// Sustained Mflops over `steps` steps on one processor — the paper's
    /// §4.7.3 metric.
    pub fn mflops(&mut self, steps: usize) -> f64 {
        let mut work = Cost::ZERO;
        let mut wall = 0.0;
        for _ in 0..steps {
            let t = self.step(1);
            work.add(t.timing.work);
            wall += t.seconds;
        }
        work.flops as f64 / wall / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxsim::presets;

    fn model(cfg: PopConfig) -> Pop {
        Pop::new(cfg, presets::sx4_benchmarked())
    }

    #[test]
    fn free_surface_stays_bounded_and_moves() {
        let mut m = model(PopConfig::tiny());
        let peak0 = m.eta.data.iter().cloned().fold(f64::MIN, f64::max);
        for _ in 0..50 {
            m.step(2);
        }
        let peak = m.eta.data.iter().cloned().fold(f64::MIN, f64::max);
        assert!(peak.is_finite() && peak < 2.0 * peak0 + 1.0);
        // The bump should have radiated away.
        assert!(peak < peak0, "gravity waves should disperse the bump: {peak0} -> {peak}");
        let max_u = m.ubar.data.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
        assert!(max_u > 1e-9, "surface gradient must drive transport");
    }

    #[test]
    fn cg_converges_quickly() {
        let mut m = model(PopConfig::tiny());
        let t = m.step(1);
        assert!(t.cg_iters > 0 && t.cg_iters < 200, "{} iters", t.cg_iters);
    }

    #[test]
    fn unvectorized_cshift_is_slower() {
        let mut slow = model(PopConfig::tiny());
        let mut fast = model(PopConfig { cshift_vectorized: true, ..PopConfig::tiny() });
        let ts: f64 = (0..5).map(|_| slow.step(1).seconds).sum();
        let tf: f64 = (0..5).map(|_| fast.step(1).seconds).sum();
        assert!(ts > 1.3 * tf, "scalar CSHIFT {ts} vs vectorized {tf}");
    }

    #[test]
    fn two_degree_single_proc_lands_near_537_mflops() {
        let mut m = model(PopConfig::two_degree());
        let rate = m.mflops(3);
        assert!((300.0..900.0).contains(&rate), "2-degree POP {rate} Mflops vs the paper's 537");
    }

    #[test]
    fn temperature_field_remains_finite() {
        let mut m = model(PopConfig::tiny());
        for _ in 0..30 {
            m.step(1);
        }
        assert!(m.temp.iter().flat_map(|l| l.iter()).all(|v| v.is_finite()));
    }
}

#[cfg(test)]
mod conservation_tests {
    use super::*;
    use sxsim::presets;

    #[test]
    fn free_surface_mass_approximately_conserved() {
        let mut m = Pop::new(PopConfig::tiny(), presets::sx4_benchmarked());
        let m0 = m.mass();
        for _ in 0..30 {
            m.step(1);
        }
        let m1 = m.mass();
        // Flux-form divergence + Neumann walls: drift only from the CG
        // tolerance.
        assert!(
            (m1 - m0).abs() < 1e-3 * m0.abs().max(1e-3),
            "free-surface mass drifted: {m0} -> {m1}"
        );
    }

    #[test]
    fn gravity_waves_disperse_not_amplify() {
        // Waves reflecting off the walls may focus transiently, but the
        // implicit scheme + drag forbid growth beyond a modest bound and
        // force net decay of the initial bump.
        let mut m = Pop::new(PopConfig::tiny(), presets::sx4_benchmarked());
        let peak0 = m.eta.data.iter().cloned().fold(f64::MIN, f64::max);
        let mut final_peak = peak0;
        for _ in 0..40 {
            m.step(1);
            final_peak = m.eta.data.iter().cloned().fold(f64::MIN, f64::max);
            assert!(final_peak < 1.5 * peak0, "amplified: {peak0} -> {final_peak}");
        }
        assert!(final_peak < peak0, "no net decay: {peak0} -> {final_peak}");
    }
}

#[cfg(test)]
mod pricing_tests {
    use super::*;
    use sxsim::presets;

    fn bits(g: &Grid2) -> Vec<u64> {
        g.data.iter().map(|v| v.to_bits()).collect()
    }

    /// Every step of a pricing model times, charges and solves bit for bit
    /// as the functional model's step does.
    fn pricing_matches_functional(config: PopConfig, procs: usize, steps: usize) {
        let machine = presets::sx4_benchmarked();
        let mut functional = Pop::new(config.clone(), machine.clone());
        let mut pricing = Pop::pricing(config.clone(), machine);
        for n in 1..=steps {
            let (f, p) = (functional.step(procs), pricing.step(procs));
            let ctx = format!(
                "{}x{}x{} vectorized={} procs={procs} step {n}",
                config.nlat, config.nlon, config.nlev, config.cshift_vectorized
            );
            assert_eq!(f.seconds.to_bits(), p.seconds.to_bits(), "{ctx}");
            assert_eq!(f.cg_iters, p.cg_iters, "{ctx}");
            let (fw, pw) = (f.timing.work, p.timing.work);
            assert_eq!(fw.cycles.to_bits(), pw.cycles.to_bits(), "{ctx}");
            assert_eq!(fw.flops, pw.flops, "{ctx}");
            assert_eq!(fw.cray_flops.to_bits(), pw.cray_flops.to_bits(), "{ctx}");
            assert_eq!(fw.bytes, pw.bytes, "{ctx}");
            assert_eq!(bits(&functional.eta), bits(&pricing.eta), "{ctx}");
            assert_eq!(bits(&functional.ubar), bits(&pricing.ubar), "{ctx}");
            assert_eq!(bits(&functional.vbar), bits(&pricing.vbar), "{ctx}");
        }
        assert!(pricing.temp.is_empty() && pricing.temp_next.is_empty());
    }

    #[test]
    fn priced_steps_match_functional_steps() {
        for config in [PopConfig::tiny(), PopConfig::two_degree()] {
            for cshift_vectorized in [false, true] {
                for procs in [1usize, 2, 3, 4, 8, 32] {
                    let config = PopConfig { cshift_vectorized, ..config.clone() };
                    pricing_matches_functional(config, procs, 4);
                }
            }
        }
    }

    #[test]
    fn priced_mflops_match_functional_mflops() {
        let machine = presets::sx4_benchmarked();
        for config in [PopConfig::tiny(), PopConfig::two_degree()] {
            for cshift_vectorized in [false, true] {
                let config = PopConfig { cshift_vectorized, ..config.clone() };
                let priced = Pop::priced_mflops(config.clone(), machine.clone(), 3);
                let functional = Pop::new(config, machine.clone()).mflops(3);
                assert_eq!(
                    priced.to_bits(),
                    functional.to_bits(),
                    "vectorized={cshift_vectorized}"
                );
            }
        }
    }
}
