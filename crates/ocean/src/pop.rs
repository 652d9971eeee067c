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
//! the grid shape alone. A step therefore advances the barotropic fields
//! first, computing values and the solve's exit record, and then charges
//! the whole step from that record. One barotropic state thus prices a
//! step for either compiler: [`Pop::priced_mflops`] advances it once per
//! step and prices both CSHIFT modes, the tracer leg without its
//! arithmetic.

use crate::eos::{charge_density, density};
use crate::poisson::{
    charge_conjugate_gradient, conjugate_gradient, lon_neighbours, row_points, CgExit, CgOptions,
    CgScratch, Grid2,
};
use sxsim::node::partition;
use sxsim::{
    Access, Cost, LocalityPattern, MachineModel, Node, NodeTiming, Region, VecOp, Vm, VopClass,
};

/// POP configuration.
#[derive(Debug, Clone)]
pub struct PopConfig {
    pub(crate) nlat: usize,
    pub(crate) nlon: usize,
    pub(crate) nlev: usize,
    /// Timestep (s).
    pub(crate) dt: f64,
    /// Whether the compiler vectorizes CSHIFT (false = the paper's
    /// pre-release F90 situation).
    pub cshift_vectorized: bool,
    /// CG tolerance for the implicit free surface.
    pub(crate) cg_tol: f64,
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
    pub(crate) config: PopConfig,
    machine: MachineModel,
    /// Free-surface height.
    pub(crate) eta: Grid2,
    /// Barotropic transports.
    pub(crate) ubar: Grid2,
    pub(crate) vbar: Grid2,
    /// Tracer (temperature) levels: `[lev][lat*nlon+lon]`. Empty for a
    /// pricing model, whose tracer phase is charged but not computed (see
    /// [`Pop::priced_mflops`]).
    pub(crate) temp: Vec<Vec<f64>>,
    /// The levels a step writes before swapping them into `temp`.
    temp_next: Vec<Vec<f64>>,
    /// The free-surface right-hand side and the CG's work grids, rewritten
    /// every step.
    rhs: Grid2,
    cg: CgScratch,
    pub(crate) steps: usize,
}

/// Gravity x mean depth (wave speed squared, grid units).
const GH: f64 = 0.5;

/// Timing of one step.
#[derive(Debug, Clone, Copy)]
pub struct PopStepTiming {
    pub(crate) timing: NodeTiming,
    pub seconds: f64,
    /// CG iterations the free-surface solve needed.
    #[cfg(test)]
    pub(crate) cg_iters: usize,
}

/// Work and simulated wall time summed over single-processor steps.
struct Sustained {
    work: Cost,
    wall: f64,
}

impl Sustained {
    const ZERO: Sustained = Sustained { work: Cost::ZERO, wall: 0.0 };

    fn add(&mut self, t: PopStepTiming) {
        self.work.add(t.timing.work);
        self.wall += t.seconds;
    }

    fn mflops(&self) -> f64 {
        self.work.flops as f64 / self.wall / 1e6
    }
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
        Pop { temp_next: vec![vec![0.0; nlat * nlon]; nlev], temp, ..Pop::pricing(config, machine) }
    }

    /// Sustained Mflops of a `steps`-step single-processor run under each
    /// CSHIFT mode, `[scalar, vectorized]`; `config.cshift_vectorized` is
    /// not read. Each step solves the barotropic mode once and prices it
    /// for both compilers, and the tracer phase is priced rather than
    /// computed. Each rate is what [`Pop::mflops`] of a fresh functional
    /// model in that mode returns, bit for bit.
    pub fn priced_mflops(config: PopConfig, machine: MachineModel, steps: usize) -> [f64; 2] {
        let mut model = Pop::pricing(config, machine);
        let mut runs = [Sustained::ZERO, Sustained::ZERO];
        for _ in 0..steps {
            let exit = model.advance_barotropic();
            for (vectorized, run) in [false, true].into_iter().zip(&mut runs) {
                run.add(model.timed_step(1, vectorized, &exit));
            }
        }
        runs.map(|run| run.mflops())
    }

    /// A model that computes the barotropic fields and prices the tracer
    /// phase. It holds no tracer levels, so only [`Pop::priced_mflops`],
    /// which returns rates, steps it.
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
            rhs: Grid2::zeros(nlat, nlon),
            cg: CgScratch::new(nlat, nlon),
            config,
            machine,
            steps: 0,
        }
    }

    /// Total mass (mean surface height) — conserved by the flux-form
    /// free-surface update.
    #[cfg(test)]
    pub(crate) fn mass(&self) -> f64 {
        self.eta.data.iter().sum::<f64>() / self.eta.data.len() as f64
    }

    /// Advance one step on `procs` processors.
    pub fn step(&mut self, procs: usize) -> PopStepTiming {
        assert!(procs >= 1 && procs <= self.machine.procs);
        let exit = self.advance_barotropic();
        self.steps += 1;
        self.timed_step(procs, self.config.cshift_vectorized, &exit)
    }

    /// Advance the barotropic mode one step — right-hand side, implicit
    /// free-surface solve, transport update — computing values only.
    /// Returns the solve's exit record, from which [`charge_barotropic`]
    /// prices the step.
    fn advance_barotropic(&mut self) -> CgExit {
        // Semi-implicit: (1 - GH dt'^2 lap) eta^{n+1} = eta^n - dt' div(U).
        // We solve (alpha - lap) x = rhs with alpha = 1/(GH dt'^2).
        let dtn = (self.config.dt / 3600.0).min(1.0); // grid-unit step
        let alpha = 1.0 / (GH * dtn * dtn);
        free_surface_rhs(&mut self.rhs, &self.eta, &self.ubar, &self.vbar, alpha, dtn);
        // The solve starts from the old surface and leaves the new one.
        let exit = conjugate_gradient(
            &mut self.eta,
            &self.rhs,
            &CgOptions { alpha, tol: self.config.cg_tol, max_iter: 500, neumann: true },
            &mut self.cg,
        );
        update_transports(&mut self.ubar, &mut self.vbar, &self.eta, dtn);
        exit
    }

    /// Run the tracer phase and time the step whose barotropic solve `exit`
    /// records, with CSHIFT priced `vectorized` or through the scalar unit.
    fn timed_step(&mut self, procs: usize, vectorized: bool, exit: &CgExit) -> PopStepTiming {
        let tracers = self.tracer_phase(procs, vectorized);
        let mut vm = Vm::pricing(self.machine.clone());
        charge_barotropic(&mut vm, self.config.nlat, self.config.nlon, vectorized, exit);
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
        let regions = [
            tracers,
            Region::Parallel(vec![per_proc; procs]),
            Region::Serial(Cost::cycles(exit.iters as f64 * 2.0 * 400.0)),
        ];
        let node = Node::new(self.machine.clone());
        let timing =
            node.time_regions(&regions).expect("partitioned within the node's processor count");
        PopStepTiming {
            timing,
            seconds: timing.seconds(self.machine.clock_ns),
            #[cfg(test)]
            cg_iters: exit.iters,
        }
    }

    /// The baroclinic/tracer phase, parallel over latitude: the equation
    /// of state, a CSHIFT stencil group and the level's arithmetic, charged
    /// per processor. A functional model also computes the tracers; a
    /// pricing model, which holds none, only charges.
    fn tracer_phase(&mut self, procs: usize, vectorized: bool) -> Region {
        let PopConfig { nlat, nlon, nlev, .. } = self.config;
        let computes = !self.temp.is_empty();
        let mut rho = if computes { vec![0.0f64; nlat * nlon] } else { Vec::new() };
        let mut phase = Vec::with_capacity(procs);
        // Every point of `temp_next` is written: the chunks cover all rows.
        for chunk in partition(nlat, procs) {
            if chunk.is_empty() {
                phase.push(Cost::ZERO);
                continue;
            }
            let mut vm = if computes {
                Vm::new(self.machine.clone())
            } else {
                Vm::pricing(self.machine.clone())
            };
            let (lo, hi) = (chunk.start * nlon, chunk.end * nlon);
            for k in 0..nlev {
                if computes {
                    // T doubles as the salinity proxy of the same field
                    // width.
                    let t = &self.temp[k][lo..hi];
                    density(&mut vm, &mut rho[lo..hi], t, t, (k as f64 + 0.5) * 150.0);
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
                } else {
                    charge_density(&mut vm, hi - lo);
                }
                // F90-style stencil group: 4 CSHIFTs over this processor's
                // rows.
                charge_cshift_group(&mut vm, vectorized, hi - lo, 4);
                // Tracer + full 3-D momentum arithmetic of a POP level
                // (~200 vectorized flops per point). F90 whole-array
                // expressions vectorize over the entire 2-D slab, so the
                // vector length is the slab, not one row.
                vm.charge_vector_op_repeated(
                    &VecOp::new(
                        hi - lo,
                        VopClass::Fma,
                        &[Access::Stride(1), Access::Stride(1)],
                        &[Access::Stride(1)],
                    ),
                    100,
                );
            }
            phase.push(vm.take_cost());
        }
        std::mem::swap(&mut self.temp, &mut self.temp_next);
        Region::Parallel(phase)
    }

    /// Sustained Mflops over `steps` steps on one processor — the paper's
    /// §4.7.3 metric.
    pub fn mflops(&mut self, steps: usize) -> f64 {
        let mut run = Sustained::ZERO;
        for _ in 0..steps {
            run.add(self.step(1));
        }
        run.mflops()
    }
}

/// Charge a group of `count` CSHIFTs over the same `n`-element field,
/// `vectorized` or through the scalar unit. F90 `CSHIFT(a, 1, dim)` touches
/// every element once; in a stencil group the first shift streams the
/// field through the scalar unit's cache and the remaining shifts re-read
/// it hot, which is how the benchmarked code behaved.
fn charge_cshift_group(vm: &mut Vm, vectorized: bool, n: usize, count: usize) {
    if vectorized {
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

/// Charge `vm` for one barotropic step on an `nlat` x `nlon` grid whose
/// free-surface solve `exit` records, with CSHIFT priced `vectorized` or
/// through the scalar unit: RHS assembly, the CG solve, the transport
/// update, in the order a step that charges as it computes would.
fn charge_barotropic(vm: &mut Vm, nlat: usize, nlon: usize, vectorized: bool, exit: &CgExit) {
    let ncol = nlat * nlon;
    let fma = VecOp::new(
        ncol,
        VopClass::Fma,
        &[Access::Stride(1), Access::Stride(1)],
        &[Access::Stride(1)],
    );
    // RHS assembly uses 4 CSHIFTs + arithmetic.
    charge_cshift_group(vm, vectorized, ncol, 4);
    vm.charge_vector_op_repeated(&fma, 6);
    charge_conjugate_gradient(vm, nlat, nlon, !vectorized, exit);
    // So does the transport update.
    charge_cshift_group(vm, vectorized, ncol, 4);
    vm.charge_vector_op_repeated(&fma, 8);
}

/// The free surface's right-hand side `alpha (eta - dtn div(U))`, row by
/// row. Flux-form divergence: face transports average the cell values,
/// wall faces carry zero normal flow — so the divergence telescopes to
/// exactly zero over the domain and the free surface conserves volume to
/// solver tolerance.
fn free_surface_rhs(
    rhs: &mut Grid2,
    eta: &Grid2,
    ubar: &Grid2,
    vbar: &Grid2,
    alpha: f64,
    dtn: f64,
) {
    let (nlat, nlon) = (eta.nlat, eta.nlon);
    // Meridional face transports: a row's south face is the north face of
    // the row below it, and the wall faces stay zero.
    let (mut south, mut north) = (vec![0.0; nlon], vec![0.0; nlon]);
    for i in 0..nlat {
        let (e, u, v) = (eta.row(i), ubar.row(i), vbar.row(i));
        if i + 1 < nlat {
            for ((f, &v), &up) in north.iter_mut().zip(v).zip(vbar.row(i + 1)) {
                *f = 0.5 * (v + up);
            }
        } else {
            north.fill(0.0);
        }
        let out = &mut rhs.data[i * nlon..(i + 1) * nlon];
        let (vn, vs) = (&north[..], &south[..]);
        row_points(nlon, |j, jm, jp| {
            let ue = 0.5 * (u[j] + u[jp]);
            let uw = 0.5 * (u[jm] + u[j]);
            let div = (ue - uw) + (vn[j] - vs[j]);
            out[j] = alpha * (e[j] - dtn * div);
        });
        std::mem::swap(&mut south, &mut north);
    }
}

/// Transport update from the new surface gradient + drag, row by row; the
/// wall rows feel no meridional gradient.
fn update_transports(ubar: &mut Grid2, vbar: &mut Grid2, eta: &Grid2, dtn: f64) {
    let (nlat, nlon) = (eta.nlat, eta.nlon);
    let gh_dtn = GH * dtn;
    let relax = |u: &mut f64, v: &mut f64, detadx: f64, detady: f64| {
        let drag = 0.995;
        *u = drag * (*u - gh_dtn * detadx);
        *v = drag * (*v - gh_dtn * detady);
    };
    for i in 0..nlat {
        let u = &mut ubar.data[i * nlon..(i + 1) * nlon];
        let v = &mut vbar.data[i * nlon..(i + 1) * nlon];
        let e = eta.row(i);
        if i > 0 && i + 1 < nlat {
            let (n, s) = (eta.row(i + 1), eta.row(i - 1));
            row_points(nlon, |j, jm, jp| {
                relax(&mut u[j], &mut v[j], 0.5 * (e[jp] - e[jm]), 0.5 * (n[j] - s[j]))
            });
        } else {
            row_points(nlon, |j, jm, jp| relax(&mut u[j], &mut v[j], 0.5 * (e[jp] - e[jm]), 0.0));
        }
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
    use crate::poisson::pricing_tests::{
        bits, interleaved_conjugate_gradient, random_grid, LONS, SHAPES,
    };
    use ncar_suite::SmallRng;
    use sxsim::presets;

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

    /// One barotropic solve per step prices both compilers exactly as two
    /// functional runs, one per CSHIFT mode, do.
    #[test]
    fn priced_mflops_match_functional_mflops() {
        let machine = presets::sx4_benchmarked();
        for config in [PopConfig::tiny(), PopConfig::two_degree()] {
            let priced = Pop::priced_mflops(config.clone(), machine.clone(), 3);
            for cshift_vectorized in [false, true] {
                let config = PopConfig { cshift_vectorized, ..config.clone() };
                let functional = Pop::new(config, machine.clone()).mflops(3);
                assert_eq!(
                    priced[cshift_vectorized as usize].to_bits(),
                    functional.to_bits(),
                    "vectorized={cshift_vectorized}"
                );
            }
        }
    }

    /// The right-hand side as a point-wise loop over `Grid2::at`.
    fn pointwise_rhs(eta: &Grid2, ubar: &Grid2, vbar: &Grid2, alpha: f64, dtn: f64) -> Grid2 {
        let (nlat, nlon) = (eta.nlat, eta.nlon);
        let mut rhs = Grid2::zeros(nlat, nlon);
        for i in 0..nlat {
            for j in 0..nlon {
                let (jm, jp) = lon_neighbours(j, nlon);
                let ue = 0.5 * (ubar.at(i, j) + ubar.at(i, jp));
                let uw = 0.5 * (ubar.at(i, jm) + ubar.at(i, j));
                let vn = if i + 1 < nlat { 0.5 * (vbar.at(i, j) + vbar.at(i + 1, j)) } else { 0.0 };
                let vs = if i > 0 { 0.5 * (vbar.at(i - 1, j) + vbar.at(i, j)) } else { 0.0 };
                let div = (ue - uw) + (vn - vs);
                rhs.set(i, j, alpha * (eta.at(i, j) - dtn * div));
            }
        }
        rhs
    }

    /// The transport update as a point-wise loop over `Grid2::at`.
    fn pointwise_transports(ubar: &mut Grid2, vbar: &mut Grid2, eta: &Grid2, dtn: f64) {
        let (nlat, nlon) = (eta.nlat, eta.nlon);
        for i in 0..nlat {
            for j in 0..nlon {
                let (jm, jp) = lon_neighbours(j, nlon);
                let detadx = 0.5 * (eta.at(i, jp) - eta.at(i, jm));
                let detady = if i > 0 && i + 1 < nlat {
                    0.5 * (eta.at(i + 1, j) - eta.at(i - 1, j))
                } else {
                    0.0
                };
                let drag = 0.995;
                ubar.set(i, j, drag * (ubar.at(i, j) - GH * dtn * detadx));
                vbar.set(i, j, drag * (vbar.at(i, j) - GH * dtn * detady));
            }
        }
    }

    #[test]
    fn row_sliced_rhs_and_transports_match_pointwise_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(26);
        for nlat in SHAPES {
            for nlon in LONS {
                let ctx = format!("{nlat}x{nlon}");
                let eta = random_grid(&mut rng, nlat, nlon);
                let (ubar, vbar) =
                    (random_grid(&mut rng, nlat, nlon), random_grid(&mut rng, nlat, nlon));
                let dtn = 0.1 + 0.9 * rng.next_f64();
                let alpha = 1.0 / (GH * dtn * dtn);
                let mut rhs = Grid2::zeros(nlat, nlon);
                free_surface_rhs(&mut rhs, &eta, &ubar, &vbar, alpha, dtn);
                assert_eq!(
                    bits(&rhs),
                    bits(&pointwise_rhs(&eta, &ubar, &vbar, alpha, dtn)),
                    "{ctx}"
                );
                let (mut u, mut v) = (ubar.clone(), vbar.clone());
                update_transports(&mut u, &mut v, &eta, dtn);
                let (mut want_u, mut want_v) = (ubar, vbar);
                pointwise_transports(&mut want_u, &mut want_v, &eta, dtn);
                assert_eq!(bits(&u), bits(&want_u), "{ctx}");
                assert_eq!(bits(&v), bits(&want_v), "{ctx}");
            }
        }
    }

    /// A barotropic step that charges as it computes — point-wise RHS, the
    /// interleaved solver, point-wise transports — charges and computes
    /// what an advance charged from its exit record does.
    #[test]
    fn barotropic_charges_replay_the_interleaved_step() {
        let machine = presets::sx4_benchmarked();
        for config in [PopConfig::tiny(), PopConfig::two_degree()] {
            for vectorized in [false, true] {
                let mut model = Pop::pricing(config.clone(), machine.clone());
                let (mut eta, mut ubar, mut vbar) =
                    (model.eta.clone(), model.ubar.clone(), model.vbar.clone());
                for n in 1..=3 {
                    let ctx =
                        format!("{}x{} vectorized={vectorized} step {n}", config.nlat, config.nlon);
                    let (nlat, nlon) = (config.nlat, config.nlon);
                    let ncol = nlat * nlon;
                    let fma = VecOp::new(
                        ncol,
                        VopClass::Fma,
                        &[Access::Stride(1), Access::Stride(1)],
                        &[Access::Stride(1)],
                    );
                    let dtn = (config.dt / 3600.0).min(1.0);
                    let alpha = 1.0 / (GH * dtn * dtn);
                    let mut interleaved = Vm::new(machine.clone());
                    interleaved.start_trace();
                    let rhs = pointwise_rhs(&eta, &ubar, &vbar, alpha, dtn);
                    charge_cshift_group(&mut interleaved, vectorized, ncol, 4);
                    interleaved.charge_vector_op_repeated(&fma, 6);
                    let opt = CgOptions { alpha, tol: config.cg_tol, max_iter: 500, neumann: true };
                    let want = interleaved_conjugate_gradient(
                        &mut interleaved,
                        &mut eta,
                        &rhs,
                        &opt,
                        !vectorized,
                    );
                    pointwise_transports(&mut ubar, &mut vbar, &eta, dtn);
                    charge_cshift_group(&mut interleaved, vectorized, ncol, 4);
                    interleaved.charge_vector_op_repeated(&fma, 8);

                    let mut replayed = Vm::pricing(machine.clone());
                    replayed.start_trace();
                    let exit = model.advance_barotropic();
                    charge_barotropic(&mut replayed, nlat, nlon, vectorized, &exit);
                    assert_eq!(exit, want, "{ctx}");
                    assert_eq!(bits(&model.eta), bits(&eta), "{ctx}");
                    assert_eq!(bits(&model.ubar), bits(&ubar), "{ctx}");
                    assert_eq!(bits(&model.vbar), bits(&vbar), "{ctx}");
                    let (ci, cr) = (interleaved.cost(), replayed.cost());
                    assert_eq!(ci.cycles.to_bits(), cr.cycles.to_bits(), "{ctx}");
                    assert_eq!(ci.flops, cr.flops, "{ctx}");
                    assert_eq!(ci.cray_flops.to_bits(), cr.cray_flops.to_bits(), "{ctx}");
                    assert_eq!(ci.bytes, cr.bytes, "{ctx}");
                    assert_eq!(interleaved.take_trace(), replayed.take_trace(), "{ctx}");
                }
            }
        }
    }
}
