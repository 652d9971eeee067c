//! The MOM benchmark proxy: a rigid-lid, Boussinesq, finite-difference
//! ocean model in latitude-longitude-depth coordinates (paper §4.7.2).
//!
//! Matches the benchmark's structure: prognostic temperature, salinity and
//! two momentum components on a 3-D grid; density from an equation of
//! state; flux-form tracer advection with horizontal and (implicit)
//! vertical diffusion; semi-implicit Coriolis; a rigid-lid barotropic
//! streamfunction Poisson solve each step (serial, as in the F77 code);
//! convective adjustment; and the model diagnostics the benchmark prints
//! every 10 timesteps — the paper names that print as one reason Table 7's
//! scalability is modest.
//!
//! Two configurations mirror the paper: a 3° x 25-level low-resolution
//! version "for familiarization and porting verification" (used by the
//! tests) and the 1° x 45-level high-resolution benchmark (used for
//! Table 7).

use crate::eos::density;
use crate::poisson::{jacobi, lon_neighbours, Grid2};
use sxsim::node::partition;
use sxsim::{
    Access, Cost, LocalityPattern, MachineModel, Node, NodeTiming, Region, VecOp, Vm, VopClass,
};

/// Model geometry and numerics.
#[derive(Debug, Clone)]
pub struct MomConfig {
    pub nlat: usize,
    pub nlon: usize,
    pub nlev: usize,
    /// Timestep (s).
    pub dt: f64,
    /// Diagnostics cadence in steps (the benchmark prints every 10).
    pub diag_every: usize,
    /// Jacobi sweeps per barotropic solve.
    pub jacobi_sweeps: usize,
}

impl MomConfig {
    /// "nominal horizontal resolution of 3 degrees ... 25 levels" — the
    /// porting-verification configuration.
    pub fn low_resolution() -> MomConfig {
        MomConfig { nlat: 60, nlon: 120, nlev: 25, dt: 3600.0, diag_every: 10, jacobi_sweeps: 30 }
    }

    /// "nominal horizontal resolution of 1 degree ... 45 levels" — the
    /// benchmark configuration of Table 7.
    pub fn high_resolution() -> MomConfig {
        MomConfig { nlat: 180, nlon: 360, nlev: 45, dt: 2700.0, diag_every: 10, jacobi_sweeps: 70 }
    }

    pub fn points(&self) -> usize {
        self.nlat * self.nlon * self.nlev
    }
}

/// The model state. 3-D fields are `[lev][lat * nlon + lon]`.
pub struct Mom {
    pub config: MomConfig,
    machine: MachineModel,
    pub temp: Vec<Vec<f64>>,
    pub salt: Vec<Vec<f64>>,
    pub u: Vec<Vec<f64>>,
    pub v: Vec<Vec<f64>>,
    /// Barotropic streamfunction.
    pub psi: Grid2,
    pub steps: usize,
    /// Most recent every-10-steps diagnostics snapshot.
    pub last_diagnostics: Option<crate::diagnostics::Diagnostics>,
    /// Whether steps compute the fields (false for a pricing model, see
    /// [`Mom::priced_run`]).
    computes: bool,
}

/// Timing of one step.
#[derive(Debug, Clone, Copy)]
pub struct MomStepTiming {
    pub timing: NodeTiming,
    pub seconds: f64,
}

/// Horizontal eddy diffusivity/viscosity (grid units per step, kept well
/// inside the explicit stability limit).
const AH: f64 = 0.05;
/// Vertical diffusivity (implicit, unconditionally stable).
const KV: f64 = 0.3;
/// Surface wind-stress amplitude (m/s per step on the top level).
const TAU0: f64 = 1.0e-3;
/// Pressure-gradient coupling (m/s^2 per density-anomaly difference).
const PGRAD: f64 = 2.0e-6;
/// Rayleigh drag retained per step (momentum damping toward balance).
const DRAG: f64 = 0.98;

impl Mom {
    /// Initialize a stratified, motionless ocean with a meridional
    /// temperature gradient (warm equator, cold poles).
    pub fn new(config: MomConfig, machine: MachineModel) -> Mom {
        let (nlat, nlon, nlev) = (config.nlat, config.nlon, config.nlev);
        let mut temp = vec![vec![0.0; nlat * nlon]; nlev];
        let mut salt = vec![vec![35.0; nlat * nlon]; nlev];
        for (k, lev) in temp.iter_mut().enumerate() {
            let depth_frac = k as f64 / nlev as f64;
            for i in 0..nlat {
                let lat_frac = i as f64 / (nlat - 1).max(1) as f64; // 0..1 S->N
                let equatorial = 1.0 - (2.0 * lat_frac - 1.0).powi(2);
                for j in 0..nlon {
                    lev[i * nlon + j] = 2.0 + 22.0 * equatorial * (1.0 - depth_frac).powi(2);
                }
            }
        }
        for (k, lev) in salt.iter_mut().enumerate() {
            for s in lev.iter_mut() {
                *s = 34.5 + 0.5 * (k as f64 / nlev as f64);
            }
        }
        Mom {
            psi: Grid2::zeros(nlat, nlon),
            u: vec![vec![0.0; nlat * nlon]; nlev],
            v: vec![vec![0.0; nlat * nlon]; nlev],
            temp,
            salt,
            config,
            machine,
            steps: 0,
            last_diagnostics: None,
            computes: true,
        }
    }

    /// Total simulated seconds of a `steps`-step run on `procs`
    /// processors, priced without computing it: what [`Mom::run`] of a
    /// fresh functional model returns, bit for bit.
    pub fn priced_run(config: MomConfig, machine: MachineModel, steps: usize, procs: usize) -> f64 {
        Mom::pricing(config, machine).run(steps, procs)
    }

    /// A model that prices steps without computing them. A step's charges
    /// depend only on the configuration, the partitioning and the
    /// diagnostics cadence, so a model with empty fields and pricing
    /// processors takes every charge and skips the arithmetic. Its fields
    /// are empty, so only [`Mom::priced_run`], which returns a timing,
    /// steps it.
    fn pricing(config: MomConfig, machine: MachineModel) -> Mom {
        let (nlat, nlon) = (config.nlat, config.nlon);
        Mom {
            psi: Grid2 { nlat, nlon, data: Vec::new() },
            u: Vec::new(),
            v: Vec::new(),
            temp: Vec::new(),
            salt: Vec::new(),
            config,
            machine,
            steps: 0,
            last_diagnostics: None,
            computes: false,
        }
    }

    /// A processor of the model's machine: functional, or pricing for a
    /// pricing model.
    fn vm(&self) -> Vm {
        if self.computes {
            Vm::new(self.machine.clone())
        } else {
            Vm::pricing(self.machine.clone())
        }
    }

    /// Flux-form advection + horizontal diffusion tendency for one tracer
    /// level; exactly conservative (periodic in lon, no-flux walls in lat).
    #[allow(clippy::too_many_arguments)]
    fn tracer_tendency(
        &self,
        field: &[f64],
        u: &[f64],
        v: &[f64],
        out: &mut [f64],
        rows: std::ops::Range<usize>,
        nlat: usize,
        nlon: usize,
    ) {
        for i in rows {
            for j in 0..nlon {
                let idx = i * nlon + j;
                let (jm, jp) = lon_neighbours(j, nlon);
                let (jm, jp) = (i * nlon + jm, i * nlon + jp);
                // Zonal fluxes at the east/west faces.
                let ue = 0.5 * (u[idx] + u[jp]);
                let uw = 0.5 * (u[jm] + u[idx]);
                let fe = ue * 0.5 * (field[idx] + field[jp]);
                let fw = uw * 0.5 * (field[jm] + field[idx]);
                // Meridional fluxes, zero at the walls.
                let (fn_, fs) = {
                    let fn_ = if i + 1 < nlat {
                        let ip = (i + 1) * nlon + j;
                        let vn = 0.5 * (v[idx] + v[ip]);
                        vn * 0.5 * (field[idx] + field[ip])
                    } else {
                        0.0
                    };
                    let fs = if i > 0 {
                        let im = (i - 1) * nlon + j;
                        let vs = 0.5 * (v[im] + v[idx]);
                        vs * 0.5 * (field[im] + field[idx])
                    } else {
                        0.0
                    };
                    (fn_, fs)
                };
                // Diffusion (5-point).
                let up = if i + 1 < nlat { field[(i + 1) * nlon + j] } else { field[idx] };
                let dn = if i > 0 { field[(i - 1) * nlon + j] } else { field[idx] };
                let lap = up + dn + field[jp] + field[jm] - 4.0 * field[idx];
                out[idx] = -(fe - fw) - (fn_ - fs) + AH * lap;
            }
        }
    }

    /// Implicit vertical diffusion of a column-major set of levels: solves
    /// the tridiagonal system (I - KV * D2) x = b per column in place.
    fn vertical_implicit(fields: &mut [Vec<f64>], ncol: usize, cols: std::ops::Range<usize>) {
        let nlev = fields.len();
        if nlev < 2 {
            return;
        }
        let a = -KV; // sub/super diagonal
        let b = 1.0 + 2.0 * KV;
        let mut cp = vec![0.0f64; nlev];
        let mut dp = vec![0.0f64; nlev];
        for col in cols {
            debug_assert!(col < ncol);
            // Thomas algorithm with no-flux ends.
            let b0 = 1.0 + KV;
            cp[0] = a / b0;
            dp[0] = fields[0][col] / b0;
            for k in 1..nlev {
                let bk = if k + 1 == nlev { 1.0 + KV } else { b };
                let m = bk - a * cp[k - 1];
                cp[k] = a / m;
                dp[k] = (fields[k][col] - a * dp[k - 1]) / m;
            }
            let mut x = dp[nlev - 1];
            fields[nlev - 1][col] = x;
            for k in (0..nlev - 1).rev() {
                x = dp[k] - cp[k] * x;
                fields[k][col] = x;
            }
        }
    }

    /// Advance one step on `procs` processors.
    pub fn step(&mut self, procs: usize) -> MomStepTiming {
        assert!(procs >= 1 && procs <= self.machine.procs);
        let MomConfig { nlat, nlon, nlev, dt, .. } = self.config;
        let ncol = nlat * nlon;
        let chunks = partition(nlat, procs);
        let mut regions = Vec::new();
        // A pricing model skips every value loop below and hands the
        // equation of state one zero level, which it never reads.
        let computes = self.computes;
        let zero_level = if computes { Vec::new() } else { vec![0.0; ncol] };

        // ---- Baroclinic phase (parallel over latitude slabs). ------------
        let mut phase = Vec::with_capacity(procs);
        let mut new_temp = self.temp.clone();
        let mut new_salt = self.salt.clone();
        let mut new_u = self.u.clone();
        let mut new_v = self.v.clone();

        for chunk in &chunks {
            let mut vm = self.vm();
            if chunk.is_empty() {
                phase.push(Cost::ZERO);
                continue;
            }
            let rows = chunk.len();
            let mut rho = vec![0.0f64; ncol];
            let mut tend = vec![0.0f64; ncol];
            for k in 0..nlev {
                // Density for the pressure gradient (real EOS), including a
                // one-row halo so the meridional gradient at the slab edge
                // is partition-independent.
                let lo = chunk.start * nlon;
                let hi = chunk.end.min(nlat - 1).max(chunk.start) * nlon + nlon;
                let hi = hi.min(ncol);
                let (temp, salt) = if computes {
                    (&self.temp[k][lo..hi], &self.salt[k][lo..hi])
                } else {
                    (&zero_level[lo..hi], &zero_level[lo..hi])
                };
                density(&mut vm, &mut rho[lo..hi], temp, salt, (k as f64 + 0.5) * 100.0);

                // Momentum: pressure gradient + semi-implicit Coriolis +
                // friction + surface wind stress.
                let momentum_rows = if computes { chunk.clone() } else { 0..0 };
                for i in momentum_rows {
                    let f_cor = 1.0e-4 * (2.0 * i as f64 / nlat as f64 - 1.0);
                    let alpha = f_cor * dt;
                    let denom = 1.0 + alpha * alpha;
                    for j in 0..nlon {
                        let idx = i * nlon + j;
                        let jp = i * nlon + lon_neighbours(j, nlon).1;
                        let dpdx = -(rho[jp] - rho[idx]) * PGRAD;
                        let dpdy = if i + 1 < nlat {
                            -(rho[(i + 1) * nlon + j] - rho[idx]) * PGRAD
                        } else {
                            0.0
                        };
                        let taux = if k == 0 {
                            TAU0 * (i as f64 / nlat as f64 * std::f64::consts::PI).sin()
                        } else {
                            0.0
                        };
                        let fu = self.u[k][idx] + dt * dpdx + taux;
                        let fv = self.v[k][idx] + dt * dpdy;
                        // (I - dt f J)^{-1} rotation (J = [[0,-1],[1,0]]).
                        new_u[k][idx] = DRAG * (fu + alpha * fv) / denom;
                        new_v[k][idx] = DRAG * (fv - alpha * fu) / denom;
                    }
                }
                // Charge momentum arithmetic: pressure/Coriolis/friction/
                // metric terms — ~48 fused ops per row (full MOM momentum).
                vm.charge_vector_op_repeated(
                    &VecOp::new(
                        nlon,
                        VopClass::Fma,
                        &[Access::Stride(1), Access::Stride(1)],
                        &[Access::Stride(1)],
                    ),
                    rows * 72,
                );

                // Tracer advection-diffusion (flux form) for T and S.
                for tracer in 0..2 {
                    if computes {
                        let (field, out) = if tracer == 0 {
                            (&self.temp[k], &mut new_temp[k])
                        } else {
                            (&self.salt[k], &mut new_salt[k])
                        };
                        self.tracer_tendency(
                            field,
                            &self.u[k],
                            &self.v[k],
                            &mut tend,
                            chunk.clone(),
                            nlat,
                            nlon,
                        );
                        for i in chunk.clone() {
                            for j in 0..nlon {
                                let idx = i * nlon + j;
                                out[idx] = field[idx] + dt / 3600.0 * tend[idx];
                            }
                        }
                    }
                    // Fluxes + laplacian + isopycnal-style mixing terms +
                    // update: ~60 fused ops per row per tracer.
                    vm.charge_vector_op_repeated(
                        &VecOp::new(
                            nlon,
                            VopClass::Fma,
                            &[Access::Stride(1), Access::Stride(1)],
                            &[Access::Stride(1)],
                        ),
                        rows * 80,
                    );
                }
            }

            // Implicit vertical mixing (tridiagonal solve per column) for
            // all four prognostics on this slab's columns.
            let col_range = chunk.start * nlon..chunk.end * nlon;
            if computes {
                for field in [&mut new_temp, &mut new_salt, &mut new_u, &mut new_v] {
                    Self::vertical_implicit(field, ncol, col_range.clone());
                }
            }
            // The vertical solve vectorizes across columns: ~14 ops per
            // level per prognostic over the slab's columns (Thomas forward
            // + backward sweeps with coefficient setup).
            vm.charge_vector_op_repeated(
                &VecOp::new(
                    rows * nlon,
                    VopClass::Fma,
                    &[Access::Stride(1), Access::Stride(1)],
                    &[Access::Stride(1)],
                ),
                4 * nlev * 14,
            );

            // Convective adjustment: mix statically unstable adjacent
            // levels (EOS comparison per interface).
            for k in 0..nlev - 1 {
                let columns = if computes { col_range.clone() } else { 0..0 };
                for idx in columns {
                    let r_up = crate::eos::density_point(
                        new_temp[k][idx],
                        new_salt[k][idx],
                        k as f64 * 100.0,
                    );
                    let r_dn = crate::eos::density_point(
                        new_temp[k + 1][idx],
                        new_salt[k + 1][idx],
                        k as f64 * 100.0,
                    );
                    if r_up > r_dn {
                        let tm = 0.5 * (new_temp[k][idx] + new_temp[k + 1][idx]);
                        let sm = 0.5 * (new_salt[k][idx] + new_salt[k + 1][idx]);
                        new_temp[k][idx] = tm;
                        new_temp[k + 1][idx] = tm;
                        new_salt[k][idx] = sm;
                        new_salt[k + 1][idx] = sm;
                    }
                }
                vm.charge_vector_op_repeated(
                    &VecOp::new(
                        rows * nlon,
                        VopClass::Fma,
                        &[Access::Stride(1), Access::Stride(1)],
                        &[Access::Stride(1)],
                    ),
                    12,
                );
            }
            phase.push(vm.take_cost());
        }
        regions.push(Region::Parallel(phase));
        self.temp = new_temp;
        self.salt = new_salt;
        self.u = new_u;
        self.v = new_v;

        // ---- Barotropic phase (serial, as in the F77 benchmark code):
        // vorticity RHS from the vertically averaged flow, then the
        // rigid-lid Poisson solve. ------------------------------------------
        {
            let mut vm = self.vm();
            let mut rhs = Grid2::zeros(nlat, nlon);
            let rhs_rows = if computes { 1..nlat - 1 } else { 0..0 };
            for i in rhs_rows {
                for j in 0..nlon {
                    let (jm, jp) = lon_neighbours(j, nlon);
                    let mut vbar_e = 0.0;
                    let mut vbar_w = 0.0;
                    let mut ubar_n = 0.0;
                    let mut ubar_s = 0.0;
                    for k in 0..nlev {
                        vbar_e += self.v[k][i * nlon + jp];
                        vbar_w += self.v[k][i * nlon + jm];
                        ubar_n += self.u[k][(i + 1) * nlon + j];
                        ubar_s += self.u[k][(i - 1) * nlon + j];
                    }
                    let inv = 1.0 / nlev as f64;
                    rhs.set(i, j, 0.5 * ((vbar_e - vbar_w) - (ubar_n - ubar_s)) * inv);
                }
            }
            // RHS accumulation sweeps the 3-D grid (chained sum).
            vm.charge_vector_op_repeated(
                &VecOp::new(
                    ncol,
                    VopClass::Add,
                    &[Access::Stride(1), Access::Stride(1)],
                    &[Access::Stride(1)],
                ),
                nlev * 2,
            );
            let _res = jacobi(&mut vm, &mut self.psi, &rhs, self.config.jacobi_sweeps);
            regions.push(Region::Serial(vm.take_cost()));
        }

        // ---- Diagnostics every `diag_every` steps (serial print). ---------
        self.steps += 1;
        if self.steps.is_multiple_of(self.config.diag_every) {
            let mut vm = self.vm();
            // Global means/energies accumulated in unvectorized loops plus
            // formatted output — the benchmark's scaling sore spot.
            if computes {
                let diag = crate::diagnostics::compute(self);
                assert!(diag.mean_temp.is_finite() && diag.kinetic_energy.is_finite());
                self.last_diagnostics = Some(diag);
            }
            vm.charge_scalar_loop(self.config.points(), 8.0, 8.0, 0.0, LocalityPattern::Streaming);
            regions.push(Region::Serial(vm.take_cost()));
        }

        let node = Node::new(self.machine.clone());
        let timing =
            node.time_regions(&regions).expect("partitioned within the node's processor count");
        MomStepTiming { timing, seconds: timing.seconds(self.machine.clock_ns) }
    }

    /// Run `steps` steps and report total simulated seconds.
    pub fn run(&mut self, steps: usize, procs: usize) -> f64 {
        (0..steps).map(|_| self.step(procs).seconds).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxsim::presets;

    fn tiny() -> MomConfig {
        MomConfig { nlat: 16, nlon: 32, nlev: 5, dt: 3600.0, diag_every: 10, jacobi_sweeps: 10 }
    }

    fn model(cfg: MomConfig) -> Mom {
        Mom::new(cfg, presets::sx4_benchmarked())
    }

    #[test]
    fn initial_state_is_stratified_and_warm_at_equator() {
        let m = model(tiny());
        let nlon = m.config.nlon;
        let equator = m.temp[0][(m.config.nlat / 2) * nlon];
        let pole = m.temp[0][0];
        assert!(equator > pole + 10.0);
        assert!(m.temp[0][0] >= m.temp[4][0], "surface at least as warm as depth");
    }

    #[test]
    fn stable_spinup() {
        let mut m = model(tiny());
        for _ in 0..40 {
            m.step(2);
        }
        let max_u = m.u.iter().flat_map(|l| l.iter()).map(|v| v.abs()).fold(0.0f64, f64::max);
        let max_t = m.temp.iter().flat_map(|l| l.iter()).map(|v| v.abs()).fold(0.0f64, f64::max);
        assert!(max_u.is_finite() && max_u < 5.0, "velocity blew up: {max_u}");
        assert!(max_t < 40.0, "temperature blew up: {max_t}");
        // The wind actually spun up a circulation.
        assert!(max_u > 1e-6, "ocean never moved");
    }

    #[test]
    fn temperature_stays_physical() {
        let mut m = model(tiny());
        let t_max0 = m.temp.iter().flat_map(|l| l.iter()).cloned().fold(f64::MIN, f64::max);
        let t_min0 = m.temp.iter().flat_map(|l| l.iter()).cloned().fold(f64::MAX, f64::min);
        for _ in 0..30 {
            m.step(4);
        }
        let t_max = m.temp.iter().flat_map(|l| l.iter()).cloned().fold(f64::MIN, f64::max);
        let t_min = m.temp.iter().flat_map(|l| l.iter()).cloned().fold(f64::MAX, f64::min);
        // Advection+diffusion+mixing should not create new extremes beyond
        // a small tolerance.
        assert!(t_max <= t_max0 + 0.5, "{t_max0} -> {t_max}");
        assert!(t_min >= t_min0 - 0.5, "{t_min0} -> {t_min}");
    }

    #[test]
    fn step_timing_decreases_with_processors() {
        let times: Vec<f64> = [1usize, 4, 8]
            .iter()
            .map(|&p| {
                let mut m = model(tiny());
                m.step(p).seconds
            })
            .collect();
        assert!(times[1] < times[0]);
        assert!(times[2] < times[1]);
    }

    #[test]
    fn speedup_is_sublinear_due_to_serial_sections() {
        let mut m1 = model(tiny());
        let mut m8 = model(tiny());
        // Amortize over a diagnostics period.
        let t1: f64 = (0..10).map(|_| m1.step(1).seconds).sum();
        let t8: f64 = (0..10).map(|_| m8.step(8).seconds).sum();
        let speedup = t1 / t8;
        assert!(speedup > 1.5, "some speedup expected: {speedup}");
        assert!(speedup < 7.0, "serial barotropic+diagnostics must bite: {speedup}");
    }

    #[test]
    fn diagnostics_step_is_more_expensive() {
        let mut m = model(tiny());
        let mut times = Vec::new();
        for _ in 0..10 {
            times.push(m.step(4).seconds);
        }
        // Step 10 includes the serial diagnostics.
        let normal = times[..9].iter().sum::<f64>() / 9.0;
        assert!(times[9] > 1.1 * normal, "diag step {} vs normal {normal}", times[9]);
    }
}

#[cfg(test)]
mod pricing_tests {
    use super::*;
    use sxsim::presets;

    /// Every step of a pricing run, normal and diagnostics steps alike,
    /// times bit for bit as the functional model's step does.
    fn pricing_matches_functional(config: MomConfig, steps: usize, procs: usize) {
        let machine = presets::sx4_benchmarked();
        let mut functional = Mom::new(config.clone(), machine.clone());
        let mut pricing = Mom::pricing(config.clone(), machine.clone());
        let mut total = 0.0;
        for n in 1..=steps {
            let (f, p) = (functional.step(procs), pricing.step(procs));
            let ctx =
                format!("{}x{}x{} procs={procs} step {n}", config.nlat, config.nlon, config.nlev);
            assert_eq!(f.timing.wall_cycles.to_bits(), p.timing.wall_cycles.to_bits(), "{ctx}");
            assert_eq!(f.seconds.to_bits(), p.seconds.to_bits(), "{ctx}");
            assert_eq!(f.timing.work, p.timing.work, "{ctx}");
            total += f.seconds;
        }
        assert!(functional.last_diagnostics.is_some() && pricing.last_diagnostics.is_none());
        let priced = Mom::priced_run(config, machine, steps, procs);
        assert_eq!(priced.to_bits(), total.to_bits());
    }

    #[test]
    fn priced_runs_match_functional_runs_across_diagnostics_steps() {
        // 25 steps span two diagnostics prints (steps 10 and 20).
        let tiny = MomConfig {
            nlat: 16,
            nlon: 32,
            nlev: 5,
            dt: 3600.0,
            diag_every: 10,
            jacobi_sweeps: 10,
        };
        for procs in [1usize, 4, 32] {
            pricing_matches_functional(tiny.clone(), 25, procs);
        }
        pricing_matches_functional(MomConfig::low_resolution(), 25, 4);
    }
}

#[cfg(test)]
mod calibration {
    use super::*;
    use sxsim::presets;

    /// Not a test: prints the Table 7 reproduction. Run with
    /// `cargo test -p ocean-models --release -- --ignored --nocapture table7`.
    #[test]
    #[ignore = "calibration printout, not an assertion"]
    fn print_table7_calibration() {
        for procs in [1usize, 4, 8, 16, 32] {
            let mut m = Mom::new(MomConfig::high_resolution(), presets::sx4_benchmarked());
            let block: f64 = (0..10).map(|_| m.step(procs).seconds).sum();
            let total = 35.0 * block;
            println!("{procs:>3} CPUs: {total:>9.2} s for 350 steps ({:.3} s/step)", block / 10.0);
        }
    }
}
