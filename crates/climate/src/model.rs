//! The CCM2 proxy: an 18-level spectral-transform atmospheric model with
//! the cost structure of the paper's CCM2 (§4.7.1):
//!
//! - dry dynamics by the spherical-harmonic transform method
//!   (synthesis → grid-space products → analysis → spectral update);
//! - semi-implicit treatment of gravity waves (a per-coefficient Helmholtz
//!   solve), leapfrog time stepping with a Robert-Asselin filter and ∇⁴
//!   hyperdiffusion — all standard CCM2 ingredients;
//! - column physics built around the RADABS radiation kernel;
//! - shape-preserving semi-Lagrangian moisture transport (indirect
//!   addressing on the Gaussian grid).
//!
//! The dynamics are the rotating linearized shallow-water equations per
//! level (distinct equivalent depths) plus real zonal advection by the
//! model wind, which preserves the transform-dominated cost profile of the
//! full primitive-equation model while keeping the physics verifiable
//! (gravity-wave dispersion, mass and energy conservation are tested).
//! DESIGN.md records this substitution.
//!
//! Every phase runs partitioned across the processors of a simulated SX-4
//! node exactly as CCM2's latitude decomposition does, so fixed-size
//! scaling (Figure 8), the one-year runs (Table 5) and the ensemble test
//! (Table 6) all fall out of the same code.

use crate::physics::column_physics;
use crate::resolution::Resolution;
use crate::slt::advect_row;
use crate::spectral::SphericalTransform;
use ncar_kernels::fft::C64;
use sxsim::node::partition;
use sxsim::{
    Access, Cost, Ftrace, MachineModel, Node, NodeTiming, OpStats, OpTrace, Region, VecOp, Vm,
    VopClass,
};

/// Earth radius (m).
const EARTH_RADIUS: f64 = 6.371e6;
/// Rotation rate (1/s).
const OMEGA: f64 = 7.292e-5;
/// Transforms fused into each vector of the spectral transform (CCM2's
/// slab vectorization). Full 18-level fusion would make every vector ~1000
/// elements and erase Figure 8's short-vector effects; the production code
/// fused a few fields at a time.
const FUSED_TRANSFORMS: usize = 6;

/// Model configuration.
#[derive(Debug, Clone)]
pub struct Ccm2Config {
    pub resolution: Resolution,
    /// Mean zonal wind (m/s) driving advection and the SLT.
    pub u0: f64,
    /// Include rotation (Coriolis) terms.
    pub coriolis: bool,
    /// Run the column-physics package each step.
    pub physics: bool,
    /// Transport moisture with the SLT each step.
    pub slt: bool,
    /// Robert-Asselin filter coefficient (0 disables).
    pub robert: f64,
    /// ∇⁴ hyperdiffusion coefficient (m⁴/s); 0 disables.
    pub nu4: f64,
    /// Coupling of the zonal wind to the local pressure gradient
    /// (m/s per m²/s² of dΦ/dλ); 0 makes the dynamics exactly linear.
    pub wind_feedback: f64,
    /// Advect with the spectrally recovered divergent/rotational winds
    /// (the u = ∂χ/∂λ, v = ∂ψ/∂λ halves). Off in the adiabatic
    /// configuration, where the dynamics must stay exactly linear.
    pub recovered_winds: bool,
}

impl Ccm2Config {
    /// The benchmark configuration at a given resolution: everything on,
    /// standard filter/diffusion.
    pub fn benchmark(resolution: Resolution) -> Ccm2Config {
        // Scale nu4 so the smallest retained scale damps with a fixed
        // e-folding time (the standard resolution-dependent choice).
        let t = resolution.truncation() as f64;
        let l_max = t * (t + 1.0) / (EARTH_RADIUS * EARTH_RADIUS);
        let tau = 6.0 * 3600.0; // 6-hour e-folding at the truncation limit
        Ccm2Config {
            resolution,
            u0: 20.0,
            coriolis: true,
            physics: true,
            slt: true,
            robert: 0.02,
            nu4: 1.0 / (tau * l_max * l_max),
            wind_feedback: 2e-5,
            recovered_winds: true,
        }
    }

    /// Bare dynamics (no physics/SLT/filter): used by conservation tests.
    pub fn adiabatic(resolution: Resolution) -> Ccm2Config {
        Ccm2Config {
            resolution,
            u0: 0.0,
            coriolis: false,
            physics: false,
            slt: false,
            robert: 0.0,
            nu4: 0.0,
            wind_feedback: 0.0,
            recovered_winds: false,
        }
    }
}

/// Spectral state of one prognostic field across levels: `[lev][nspec]`.
pub type LevSpec = Vec<Vec<C64>>;

/// The model.
pub struct Ccm2Proxy {
    pub config: Ccm2Config,
    pub transform: SphericalTransform,
    machine: MachineModel,
    /// Equivalent depths Φ̄_k (m²/s²), decreasing with level index.
    pub phibar: Vec<f64>,
    // Leapfrog state: previous and current time levels.
    zeta_prev: LevSpec,
    zeta: LevSpec,
    delta_prev: LevSpec,
    delta: LevSpec,
    phi_prev: LevSpec,
    phi: LevSpec,
    /// Grid moisture per level: `[lev][lat*nlon + lon]`.
    pub q: Vec<Vec<f64>>,
    /// Steps taken.
    pub steps: usize,
    /// Lifetime op statistics absorbed from every internal `Vm` (the
    /// model creates one per simulated processor per phase); the pricing
    /// tests compare it, and servebench counts a step's vector ops with it.
    op_stats: OpStats,
    /// Whether steps compute the fields (false for a pricing model, see
    /// [`Ccm2Proxy::pricing`]).
    computes: bool,
}

/// Borrowed view of the full prognostic state (both leapfrog levels).
#[derive(Debug)]
pub struct Ccm2State<'a> {
    pub phi: &'a LevSpec,
    pub phi_prev: &'a LevSpec,
    pub delta: &'a LevSpec,
    pub delta_prev: &'a LevSpec,
    pub zeta: &'a LevSpec,
    pub zeta_prev: &'a LevSpec,
    pub q: &'a Vec<Vec<f64>>,
}

/// The token of a recorded step: the processor count it ran on.
///
/// A step's charges depend only on the configuration and the grid shapes,
/// never on the field values, so [`Ccm2Proxy::replay_step`] re-charges a
/// recorded step by pricing one. The token and its two methods are kept
/// for the frozen `servebench` package, which times them; nothing else
/// uses them.
#[derive(Debug, Clone, Copy)]
pub struct StepProgram {
    procs: usize,
}

/// Timing of one step on a node.
#[derive(Debug, Clone, Copy)]
pub struct StepTiming {
    pub timing: NodeTiming,
    /// Wall seconds of the step on the simulated machine.
    pub seconds: f64,
    /// Average per-processor memory demand, bytes/cycle (for co-scheduling).
    pub bytes_per_cycle_per_proc: f64,
}

impl Ccm2Proxy {
    /// Build the model on `machine` with a deterministic balanced initial
    /// state: a mid-latitude geopotential anomaly per level plus a smooth
    /// moisture distribution.
    pub fn new(config: Ccm2Config, machine: MachineModel) -> Ccm2Proxy {
        let res = config.resolution;
        let mut transform = SphericalTransform::new(res.truncation(), res.nlat(), res.nlon());
        let nspec = transform.nspec();
        let nlev = res.nlev();
        transform.fused_transforms = FUSED_TRANSFORMS;

        // Equivalent depths from the vertical normal-mode decomposition of
        // the 18-level structure operator (see `vertical`): one deep
        // external mode, successively shallower internal modes.
        let phibar = crate::vertical::equivalent_depths(nlev);

        let zeros = || vec![vec![C64::ZERO; nspec]; nlev];
        let mut phi = zeros();
        for (k, lev) in phi.iter_mut().enumerate() {
            // A large-scale anomaly in a few low modes, level-staggered.
            let amp = 120.0 / (1.0 + k as f64 * 0.3);
            lev[transform.index(0, 2)] = C64::new(amp, 0.0);
            if res.truncation() >= 4 {
                lev[transform.index(2, 3)] = C64::new(0.4 * amp, 0.25 * amp);
                lev[transform.index(1, 4)] = C64::new(-0.3 * amp, 0.1 * amp);
            }
        }

        // Moisture: wet tropics, dry poles, zonal ripple.
        let (nlat, nlon) = (res.nlat(), res.nlon());
        let mut q = vec![vec![0.0f64; nlat * nlon]; nlev];
        for (k, lev) in q.iter_mut().enumerate() {
            let scale = ((k + 1) as f64 / nlev as f64).powi(2); // moist near surface
            for l in 0..nlat {
                let mu = transform.mu[l];
                for j in 0..nlon {
                    let lambda = 2.0 * std::f64::consts::PI * j as f64 / nlon as f64;
                    lev[l * nlon + j] =
                        scale * 0.02 * (1.0 - mu * mu) * (1.0 + 0.3 * (2.0 * lambda).cos());
                }
            }
        }

        Ccm2Proxy {
            config,
            transform,
            machine,
            phibar,
            zeta_prev: zeros(),
            zeta: zeros(),
            delta_prev: zeros(),
            delta: zeros(),
            phi_prev: phi.clone(),
            phi,
            q,
            steps: 0,
            op_stats: OpStats::default(),
            computes: true,
        }
    }

    /// A model that prices steps without computing them: a shape-only
    /// transform, empty fields and pricing processors ([`Vm::pricing`]).
    /// Its steps charge exactly what a functional model's steps charge.
    /// Its fields are empty, so only the timing entry points in
    /// [`crate::steady`] and [`Ccm2Proxy::replay_step`] step it.
    pub(crate) fn pricing(config: Ccm2Config, machine: MachineModel) -> Ccm2Proxy {
        let res = config.resolution;
        let mut transform = SphericalTransform::shape(res.truncation(), res.nlat(), res.nlon());
        transform.fused_transforms = FUSED_TRANSFORMS;
        Ccm2Proxy {
            config,
            transform,
            machine,
            phibar: Vec::new(),
            zeta_prev: Vec::new(),
            zeta: Vec::new(),
            delta_prev: Vec::new(),
            delta: Vec::new(),
            phi_prev: Vec::new(),
            phi: Vec::new(),
            q: Vec::new(),
            steps: 0,
            op_stats: OpStats::default(),
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

    /// Lifetime operation statistics accumulated across every internal
    /// `Vm` of every step so far (vector ops charged, elements, cycles).
    pub fn op_stats(&self) -> OpStats {
        self.op_stats
    }

    /// Timestep in seconds.
    pub fn dt(&self) -> f64 {
        self.config.resolution.timestep_minutes() * 60.0
    }

    /// The spectral geopotential of level `k` (for diagnostics).
    pub fn phi_level(&self, k: usize) -> Vec<ncar_kernels::fft::C64> {
        self.phi[k].clone()
    }

    /// Global mean geopotential (the mass invariant), from the (0,0) mode
    /// of level `k`.
    pub fn mean_phi(&self, k: usize) -> f64 {
        // synthesize of a_00 alone: f = a_00 * P̄_0^0 = a_00 * sqrt(1/2)
        self.phi[k][self.transform.index(0, 0)].re * (0.5f64).sqrt()
    }

    /// Total gravity-wave energy of level `k`:
    /// Σ |Φ|²/Φ̄ + Σ |δ|² a²/(n(n+1)); exactly conserved by the continuous
    /// linear system when rotation, advection and forcing are off.
    pub fn energy(&self, k: usize) -> f64 {
        let t = &self.transform;
        let mut e = 0.0;
        for m in 0..=t.trunc {
            let w = if m == 0 { 1.0 } else { 2.0 }; // conjugate pairs
            for n in m..=t.trunc {
                let i = t.index(m, n);
                let phi2 = self.phi[k][i].norm_sqr();
                e += w * phi2 / self.phibar[k];
                if n > 0 {
                    let l = n as f64 * (n as f64 + 1.0) / (EARTH_RADIUS * EARTH_RADIUS);
                    e += w * self.delta[k][i].norm_sqr() / l;
                }
            }
        }
        e
    }

    /// Global moisture inventory (area-weighted mean of q over the grid).
    pub fn total_moisture(&self) -> f64 {
        let t = &self.transform;
        let mut total = 0.0;
        for lev in &self.q {
            for l in 0..t.nlat {
                let w = t.weights[l];
                let row = &lev[l * t.nlon..(l + 1) * t.nlon];
                total += w * row.iter().sum::<f64>() / t.nlon as f64;
            }
        }
        total
    }

    /// Advance one timestep on `procs` processors of the node; returns the
    /// node timing of the step.
    pub fn step(&mut self, procs: usize) -> StepTiming {
        assert!(procs >= 1 && procs <= self.machine.procs);
        self.step_inner(procs, 1, None, None)
    }

    /// [`Ccm2Proxy::step`], plus the token [`Ccm2Proxy::replay_step`]
    /// re-charges it from. Kept for `servebench` (see [`StepProgram`]).
    pub fn record_step_program(&mut self, procs: usize) -> (StepTiming, StepProgram) {
        (self.step(procs), StepProgram { procs })
    }

    /// Re-charge a recorded step by pricing one on pricing processors
    /// ([`Vm::pricing`]): bit-identical [`StepTiming`] to the recorded
    /// step, with no synthesis, physics or transport computed.
    /// Op statistics accumulate into [`Ccm2Proxy::op_stats`] exactly as a
    /// real step's would; the prognostic state and the step counter are
    /// untouched. Kept for `servebench` (see [`StepProgram`]).
    pub fn replay_step(&mut self, program: &StepProgram) -> StepTiming {
        let mut priced = Ccm2Proxy::pricing(self.config.clone(), self.machine.clone());
        let timing = priced.step(program.procs);
        self.op_stats.add(&priced.op_stats);
        timing
    }

    /// [`Ccm2Proxy::step`] with every processor chunk's charges traced:
    /// one [`OpTrace`] per chunk, phase 1 then phase 3, and an empty trace
    /// for an empty chunk.
    #[cfg(test)]
    pub(crate) fn step_chunk_traces(&mut self, procs: usize) -> (StepTiming, Vec<OpTrace>) {
        let mut traces = Vec::new();
        let timing = self.step_inner(procs, 1, None, Some(&mut traces));
        (timing, traces)
    }

    /// Advance one timestep on `procs` processors while collecting an
    /// FTRACE phase breakdown (regions are recorded on processor 0's
    /// chunk, which is representative).
    pub fn step_traced(&mut self, procs: usize) -> (StepTiming, Ftrace) {
        let mut ft = Ftrace::new();
        let t = self.step_inner(procs, 1, Some(&mut ft), None);
        (t, ft)
    }

    /// Advance one timestep on a multi-node system: `nodes` SX-4 nodes of
    /// `procs_per_node` processors each, coupled by the IXS. Between the
    /// grid-space phase and the spectral update, the partial quadrature
    /// sums cross the crossbar as an all-to-all exchange, and every
    /// barrier becomes an internode barrier — the cost structure of the
    /// SX-4/512 direction the paper's architecture section describes.
    pub fn step_multinode(&mut self, nodes: usize, procs_per_node: usize) -> StepTiming {
        assert!((1..=16).contains(&nodes));
        assert!(procs_per_node >= 1 && procs_per_node <= self.machine.procs);
        self.step_inner(nodes * procs_per_node, nodes, None, None)
    }

    fn step_inner(
        &mut self,
        procs: usize,
        nodes: usize,
        mut ftrace: Option<&mut Ftrace>,
        mut traces: Option<&mut Vec<OpTrace>>,
    ) -> StepTiming {
        let t = self.transform.clone();
        let res = self.config.resolution;
        let (nlat, nlon, nlev) = (res.nlat(), res.nlon(), res.nlev());
        let nspec = t.nspec();
        let dt = self.dt();
        let two_dt = if self.steps == 0 { dt } else { 2.0 * dt }; // forward first step
        let chunks = partition(nlat, procs);
        // A pricing model skips every value loop below and hands the
        // charged kernels zero inputs of the right shapes, which they
        // never read.
        let computes = self.computes;
        let levels = || if computes { vec![vec![C64::ZERO; nspec]; nlev] } else { Vec::new() };
        let zero_spec = if computes { Vec::new() } else { vec![C64::ZERO; nspec] };
        let zero_grid = if computes { Vec::new() } else { vec![0.0; nlat * nlon] };

        let mut regions: Vec<Region> = Vec::new();

        // ---- Phase 1 (parallel over latitude): synthesis, grid-space
        // tendencies, physics, SLT, and partial analysis. ------------------
        let mut tend_zeta: LevSpec = levels();
        let mut tend_delta: LevSpec = levels();
        let mut tend_phi: LevSpec = levels();
        let mut phase1 = Vec::with_capacity(procs);
        // Grid buffers shared by every chunk and level: a chunk writes its
        // own rows of a level before it reads them.
        let grid = || vec![0.0; nlat * nlon];
        let (mut zeta_g, mut delta_g, mut phi_g) = (grid(), grid(), grid());
        let (mut dzeta_g, mut ddelta_g, mut dphi_g) = (grid(), grid(), grid());
        let (mut u_div_g, mut v_rot_g) = (grid(), grid());
        let (mut g_zeta, mut g_delta, mut g_phi) = (grid(), grid(), grid());
        let (mut u_cells, mut v_cells) = (vec![0.0; nlon], vec![0.0; nlon]);
        let ddl = |spec: &[C64]| -> Vec<C64> {
            let mut d = vec![C64::ZERO; nspec];
            for m in 0..=t.trunc {
                for n in m..=t.trunc {
                    let i = t.index(m, n);
                    let a = spec[i];
                    d[i] = C64::new(-(m as f64) * a.im, m as f64 * a.re);
                    // i*m*a
                }
            }
            d
        };
        let invlap = |spec: &[C64]| -> Vec<C64> {
            let mut out = vec![C64::ZERO; nspec];
            for m in 0..=t.trunc {
                for n in m.max(1)..=t.trunc {
                    let i = t.index(m, n);
                    let l = n as f64 * (n as f64 + 1.0) / (EARTH_RADIUS * EARTH_RADIUS);
                    out[i] = spec[i] * (-1.0 / l);
                }
            }
            out
        };

        for (chunk_idx, chunk) in chunks.iter().enumerate() {
            let mut vm = self.vm();
            if chunk.is_empty() {
                if let Some(traces) = traces.as_deref_mut() {
                    traces.push(OpTrace::new());
                }
                phase1.push(Cost::ZERO);
                continue;
            }
            if traces.is_some() {
                vm.start_trace();
            }
            // FTRACE instruments processor 0's chunk only.
            let mut trace = if chunk_idx == 0 { ftrace.as_deref_mut() } else { None };
            let rows = chunk.start * nlon..chunk.end * nlon;
            for k in 0..nlev {
                // Synthesize the prognostic fields and their zonal
                // derivatives on this processor's latitude rows, then the
                // spectrally recovered winds (the zonal-derivative halves):
                // the divergent zonal wind from the velocity potential
                // chi = inv-Laplacian(delta), and the rotational meridional
                // wind from the streamfunction psi = inv-Laplacian(zeta).
                if let Some(ft) = trace.as_deref_mut() {
                    ft.enter("synthesis", &mut vm).expect("no region is open");
                }
                let derived = if computes {
                    let (zeta, delta, phi) = (&self.zeta[k], &self.delta[k], &self.phi[k]);
                    vec![ddl(zeta), ddl(delta), ddl(phi), ddl(&invlap(delta)), ddl(&invlap(zeta))]
                } else {
                    Vec::new()
                };
                let spectra: [&[C64]; 8] = if computes {
                    let d = &derived;
                    [&self.zeta[k], &self.delta[k], &self.phi[k], &d[0], &d[1], &d[2], &d[3], &d[4]]
                } else {
                    [&zero_spec; 8]
                };
                let grids = [
                    &mut zeta_g,
                    &mut delta_g,
                    &mut phi_g,
                    &mut dzeta_g,
                    &mut ddelta_g,
                    &mut dphi_g,
                    &mut u_div_g,
                    &mut v_rot_g,
                ];
                for (spec, grid) in spectra.into_iter().zip(grids) {
                    t.synthesize_partial(&mut vm, spec, grid, chunk.clone());
                }

                if let Some(ft) = trace.as_deref_mut() {
                    ft.exit(&mut vm).expect("region is open");
                    ft.enter("grid tendencies", &mut vm).expect("no region is open");
                }
                // Grid-space tendencies on the chunk's rows.
                for l in chunk.clone() {
                    if computes {
                        let mu = t.mu[l];
                        let cos_phi = (1.0 - mu * mu).max(1e-6).sqrt();
                        let f_cor = if self.config.coriolis { 2.0 * OMEGA * mu } else { 0.0 };
                        let row = l * nlon;
                        // State-dependent zonal wind: mean flow + a weak
                        // pressure-gradient response.
                        // The Eulerian tendencies advect with the stable
                        // mean-flow wind (leapfrog cannot take the full
                        // recovered-wind feedback); the recovered winds drive
                        // the semi-Lagrangian transport below, which is
                        // unconditionally stable.
                        for j in 0..nlon {
                            let i = row + j;
                            let inv = 1.0 / (EARTH_RADIUS * cos_phi);
                            let u =
                                self.config.u0 * cos_phi - self.config.wind_feedback * dphi_g[i];
                            g_zeta[i] = -u * dzeta_g[i] * inv - f_cor * delta_g[i];
                            g_delta[i] = -u * ddelta_g[i] * inv + f_cor * zeta_g[i];
                            g_phi[i] = -u * dphi_g[i] * inv;
                        }
                    }
                    // Charge the pointwise tendency arithmetic: the full
                    // momentum/energy product set (~24 fused ops per row).
                    vm.charge_vector_op_repeated(
                        &VecOp::new(
                            nlon,
                            VopClass::Fma,
                            &[Access::Stride(1), Access::Stride(1)],
                            &[Access::Stride(1)],
                        ),
                        24,
                    );
                }

                if let Some(ft) = trace.as_deref_mut() {
                    ft.exit(&mut vm).expect("region is open");
                    ft.enter("physics", &mut vm).expect("no region is open");
                }
                // Physics (level-mean forcing computed once, on k == 0) on
                // the chunk's columns, which are contiguous rows.
                if self.config.physics && k == 0 {
                    let (phi_cols, q_cols) = if computes {
                        (&phi_g[rows.clone()], &self.q[nlev - 1][rows.clone()])
                    } else {
                        (&zero_grid[rows.clone()], &zero_grid[rows.clone()])
                    };
                    let ph = column_physics(&mut vm, phi_cols, q_cols, nlev);
                    if computes {
                        for (c, i) in rows.clone().enumerate() {
                            g_phi[i] += ph.heating[c] / dt;
                            let q = &mut self.q[nlev - 1][i];
                            *q = (*q + ph.moistening[c]).max(0.0);
                        }
                    }
                }

                if let Some(ft) = trace.as_deref_mut() {
                    ft.exit(&mut vm).expect("region is open");
                    ft.enter("SLT transport", &mut vm).expect("no region is open");
                }
                // SLT moisture transport: a zonal pass along the chunk's
                // rows, then a (weak) meridional correction pass using the
                // recovered rotational wind — CCM2's transport is fully 2-D
                // on the sphere.
                if self.config.slt {
                    for l in chunk.clone() {
                        let cells = l * nlon..(l + 1) * nlon;
                        if computes {
                            let mu = t.mu[l];
                            let cos_phi = (1.0 - mu * mu).max(1e-6).sqrt();
                            let scale = dt * nlon as f64
                                / (2.0 * std::f64::consts::PI * EARTH_RADIUS * cos_phi);
                            // Recovered winds enter tapered by cos^2(phi),
                            // which cancels the polar 1/cos factors.
                            let wgt =
                                if self.config.recovered_winds { cos_phi * cos_phi } else { 0.0 };
                            let inv = 1.0 / (EARTH_RADIUS * cos_phi);
                            for (j, i) in cells.clone().enumerate() {
                                let u = self.config.u0 * cos_phi
                                    + (wgt * u_div_g[i] * inv).clamp(-40.0, 40.0)
                                    - self.config.wind_feedback * dphi_g[i];
                                u_cells[j] = u * scale;
                                // Meridional pass (bounded displacement along
                                // the row as a proxy for the cross-row sweep
                                // the full 2-D scheme performs; same
                                // gather/interpolate cost).
                                let v = (wgt * v_rot_g[i] / (EARTH_RADIUS * cos_phi))
                                    .clamp(-40.0, 40.0);
                                v_cells[j] = (v * dt * nlon as f64
                                    / (2.0 * std::f64::consts::PI * EARTH_RADIUS * cos_phi))
                                    .clamp(-2.0, 2.0);
                            }
                        }
                        for winds in [&u_cells, &v_cells] {
                            let row = if computes {
                                &self.q[k][cells.clone()]
                            } else {
                                &zero_grid[cells.clone()]
                            };
                            let new_row = advect_row(&mut vm, row, winds);
                            if computes {
                                self.q[k][cells.clone()].copy_from_slice(&new_row);
                            }
                        }
                    }
                }

                if let Some(ft) = trace.as_deref_mut() {
                    ft.exit(&mut vm).expect("region is open");
                    ft.enter("analysis", &mut vm).expect("no region is open");
                }
                // Partial analysis of the tendencies.
                let pz = t.analyze_partial(&mut vm, &g_zeta, chunk.clone());
                let pd = t.analyze_partial(&mut vm, &g_delta, chunk.clone());
                let pp = t.analyze_partial(&mut vm, &g_phi, chunk.clone());
                if computes {
                    for i in 0..nspec {
                        tend_zeta[k][i] = tend_zeta[k][i] + pz[i];
                        tend_delta[k][i] = tend_delta[k][i] + pd[i];
                        tend_phi[k][i] = tend_phi[k][i] + pp[i];
                    }
                }
                if let Some(ft) = trace.as_deref_mut() {
                    ft.exit(&mut vm).expect("region is open");
                }
            }
            self.op_stats.add(vm.stats());
            if let Some(traces) = traces.as_deref_mut() {
                traces.push(vm.take_trace().expect("tracing was started above"));
            }
            phase1.push(vm.take_cost());
        }
        regions.push(Region::Parallel(phase1));

        // ---- Phase 2: reduction of the partial spectral sums. ------------
        regions.extend(reduction_phase(&self.machine, procs, nlev, nspec, &mut self.op_stats));

        // ---- Phase 3 (parallel over spectral space): semi-implicit solve,
        // leapfrog update, Robert filter, hyperdiffusion. -------------------
        let spec_chunks = partition(nspec, procs);
        let mut phase3 = Vec::with_capacity(procs);
        let mut new_zeta = self.zeta_prev.clone();
        let mut new_delta = self.delta_prev.clone();
        let mut new_phi = self.phi_prev.clone();

        // n(n+1)/a² per packed index.
        let mut lap = Vec::new();
        if computes {
            lap = vec![0.0; nspec];
            for m in 0..=t.trunc {
                for n in m..=t.trunc {
                    lap[t.index(m, n)] =
                        n as f64 * (n as f64 + 1.0) / (EARTH_RADIUS * EARTH_RADIUS);
                }
            }
        }

        for (sc_idx, sc) in spec_chunks.iter().enumerate() {
            let mut vm = self.vm();
            if sc.is_empty() {
                if let Some(traces) = traces.as_deref_mut() {
                    traces.push(OpTrace::new());
                }
                phase3.push(Cost::ZERO);
                continue;
            }
            if traces.is_some() {
                vm.start_trace();
            }
            let mut trace = if sc_idx == 0 { ftrace.as_deref_mut() } else { None };
            if let Some(ft) = trace.as_deref_mut() {
                ft.enter("semi-implicit solve", &mut vm).expect("no region is open");
            }
            for k in 0..nlev {
                let coefficients = if computes { sc.clone() } else { 0..0 };
                for i in coefficients {
                    let pb = self.phibar[k];
                    let l = lap[i];
                    // Semi-implicit leapfrog (see module docs).
                    let a = self.phi_prev[k][i] + tend_phi[k][i] * two_dt
                        - self.delta_prev[k][i] * (0.5 * two_dt * pb);
                    let b = self.delta_prev[k][i]
                        + tend_delta[k][i] * two_dt
                        + self.phi_prev[k][i] * (0.5 * two_dt * l);
                    let denom = 1.0 + 0.25 * two_dt * two_dt * l * pb;
                    let d_new = (b + a * (0.5 * two_dt * l)) * (1.0 / denom);
                    let p_new = a - d_new * (0.5 * two_dt * pb);
                    let z_new = self.zeta_prev[k][i] + tend_zeta[k][i] * two_dt;

                    // Hyperdiffusion (implicit).
                    let damp = 1.0 / (1.0 + two_dt * self.config.nu4 * l * l);
                    new_zeta[k][i] = z_new * damp;
                    new_delta[k][i] = d_new * damp;
                    new_phi[k][i] = p_new * damp;
                }
                // Charge the per-coefficient update: ~24 fused ops + one
                // divide sweep over the chunk.
                vm.charge_vector_op_repeated(
                    &VecOp::new(
                        sc.len(),
                        VopClass::Fma,
                        &[Access::Stride(1), Access::Stride(1)],
                        &[Access::Stride(1)],
                    ),
                    24,
                );
                vm.charge_vector_op(&VecOp::new(
                    sc.len(),
                    VopClass::Div,
                    &[Access::Stride(1)],
                    &[Access::Stride(1)],
                ));
            }
            if let Some(ft) = trace {
                ft.exit(&mut vm).expect("region is open");
            }
            self.op_stats.add(vm.stats());
            if let Some(traces) = traces.as_deref_mut() {
                traces.push(vm.take_trace().expect("tracing was started above"));
            }
            phase3.push(vm.take_cost());
        }
        regions.push(Region::Parallel(phase3));

        // Robert-Asselin filter on the time level being retired, then shift
        // (a pricing model's levels are empty, so the loops run zero times).
        let eps = self.config.robert;
        for k in 0..self.zeta.len() {
            for i in 0..nspec {
                let filt = |prev: C64, cur: C64, next: C64| {
                    if eps == 0.0 {
                        cur
                    } else {
                        cur + (next - cur * 2.0 + prev) * eps
                    }
                };
                let zf = filt(self.zeta_prev[k][i], self.zeta[k][i], new_zeta[k][i]);
                let df = filt(self.delta_prev[k][i], self.delta[k][i], new_delta[k][i]);
                let pf = filt(self.phi_prev[k][i], self.phi[k][i], new_phi[k][i]);
                self.zeta_prev[k][i] = zf;
                self.delta_prev[k][i] = df;
                self.phi_prev[k][i] = pf;
            }
        }
        // The filter loop left the filtered time level t in *_prev; the
        // freshly computed level t+1 becomes the current state.
        self.zeta = new_zeta;
        self.delta = new_delta;
        self.phi = new_phi;

        self.steps += 1;

        time_step(&self.machine, &regions, procs, nodes, nlev, nspec)
    }

    /// Full prognostic state access for checkpoint/restart: the current
    /// and previous leapfrog time levels of each spectral field.
    pub fn state(&self) -> Ccm2State<'_> {
        Ccm2State {
            phi: &self.phi,
            phi_prev: &self.phi_prev,
            delta: &self.delta,
            delta_prev: &self.delta_prev,
            zeta: &self.zeta,
            zeta_prev: &self.zeta_prev,
            q: &self.q,
        }
    }

    /// Restore the full prognostic state (checkpoint/restart).
    #[allow(clippy::too_many_arguments)]
    pub fn set_state(
        &mut self,
        phi: LevSpec,
        phi_prev: LevSpec,
        delta: LevSpec,
        delta_prev: LevSpec,
        zeta: LevSpec,
        zeta_prev: LevSpec,
        q: Vec<Vec<f64>>,
        steps: usize,
    ) {
        let nspec = self.transform.nspec();
        let nlev = self.config.resolution.nlev();
        for f in [&phi, &phi_prev, &delta, &delta_prev, &zeta, &zeta_prev] {
            assert_eq!(f.len(), nlev);
            assert!(f.iter().all(|l| l.len() == nspec));
        }
        self.phi = phi;
        self.phi_prev = phi_prev;
        self.delta = delta;
        self.delta_prev = delta_prev;
        self.zeta = zeta;
        self.zeta_prev = zeta_prev;
        self.q = q;
        self.steps = steps;
    }

    /// History-tape bytes written per model day (see
    /// [`Resolution::history_bytes_per_day`]).
    pub fn history_bytes_per_day(&self) -> u64 {
        self.config.resolution.history_bytes_per_day()
    }
}

/// Phase 2 of a step: reduction of the partial spectral sums. Each of the
/// log2(P) rounds halves the live partials; within a round the adds are
/// spread across the processors (the coefficient range is chunked), so the
/// reduction is a short parallel phase with a barrier per round, not an
/// Amdahl wall. It is pure charging (no functional math shadows it), so a
/// pricing step issues it unchanged. `None` on one processor.
fn reduction_phase(
    machine: &MachineModel,
    procs: usize,
    nlev: usize,
    nspec: usize,
    stats: &mut OpStats,
) -> Option<Region> {
    if procs <= 1 {
        return None;
    }
    let words = 3 * nlev * nspec * 2;
    let rounds = (procs as f64).log2().ceil() as usize;
    let mut per_proc = vec![Cost::ZERO; procs];
    for round in 0..rounds {
        let live = (procs >> round).max(2);
        let adders = live / 2;
        for p in per_proc.iter_mut().take(adders) {
            let mut vm = Vm::new(machine.clone());
            vm.charge_vector_op(&VecOp::new(
                words,
                VopClass::Add,
                &[Access::Stride(1), Access::Stride(1)],
                &[Access::Stride(1)],
            ));
            stats.add(vm.stats());
            p.add(vm.take_cost());
        }
    }
    Some(Region::Parallel(per_proc))
}

/// Time a step's regions on the node. For a multi-node system each node
/// brings its own memory banks and crossbar, so capacity scales with
/// `nodes`; the IXS adds the tendency all-to-all and internode barriers.
fn time_step(
    machine: &MachineModel,
    regions: &[Region],
    procs: usize,
    nodes: usize,
    nlev: usize,
    nspec: usize,
) -> StepTiming {
    let mut timing_machine = machine.clone();
    if nodes > 1 {
        timing_machine.procs *= nodes;
        timing_machine.memory.banks *= nodes;
        timing_machine.node_bytes_per_cycle *= nodes as f64;
    }
    let clock_ns = timing_machine.clock_ns;
    let node = Node::new(timing_machine);
    let mut timing =
        node.time_regions(regions).expect("partitioned within the node's processor count");
    if nodes > 1 {
        let ixs = sxsim::Ixs::new(nodes);
        // The 3 tendency fields' partial sums cross the crossbar, split
        // evenly between node pairs, plus one internode barrier per
        // phase boundary.
        let tendency_bytes = (3 * nlev * nspec * 16) as u64;
        let per_pair = tendency_bytes / (nodes * nodes) as u64;
        let exchange_s = ixs.all_to_all_seconds(per_pair) + 2.0 * ixs.barrier_seconds();
        timing.wall_cycles += exchange_s / (clock_ns * 1e-9);
    }
    let seconds = timing.seconds(machine.clock_ns);
    let bpc = if timing.wall_cycles > 0.0 {
        timing.work.bytes as f64 / timing.wall_cycles / procs as f64
    } else {
        0.0
    };
    StepTiming { timing, seconds, bytes_per_cycle_per_proc: bpc }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxsim::presets;

    /// A tiny but alias-free test resolution wrapper: use T42 for structure
    /// tests (smallest Table 4 resolution) but few steps.
    fn small_model(config_fn: fn(Resolution) -> Ccm2Config) -> Ccm2Proxy {
        Ccm2Proxy::new(config_fn(Resolution::T42), presets::sx4_benchmarked())
    }

    #[test]
    fn mass_is_conserved_adiabatically() {
        let mut m = small_model(Ccm2Config::adiabatic);
        let before = m.mean_phi(0);
        for _ in 0..10 {
            m.step(4);
        }
        let after = m.mean_phi(0);
        assert!((after - before).abs() < 1e-9 * before.abs().max(1.0), "{before} -> {after}");
    }

    #[test]
    fn energy_conserved_by_linear_gravity_waves() {
        let mut m = small_model(Ccm2Config::adiabatic);
        let e0: f64 = (0..3).map(|k| m.energy(k)).sum();
        for _ in 0..20 {
            m.step(2);
        }
        let e1: f64 = (0..3).map(|k| m.energy(k)).sum();
        assert!((e1 - e0).abs() < 0.02 * e0, "gravity-wave energy drifted: {e0} -> {e1}");
    }

    #[test]
    fn gravity_wave_frequency_matches_dispersion() {
        // Put all signal in one mode and time the delta oscillation.
        let mut m = small_model(Ccm2Config::adiabatic);
        let t = m.transform.clone();
        let nspec = t.nspec();
        for k in 0..m.phibar.len() {
            m.phi[k] = vec![C64::ZERO; nspec];
            m.phi_prev[k] = vec![C64::ZERO; nspec];
            m.zeta[k] = vec![C64::ZERO; nspec];
            m.zeta_prev[k] = vec![C64::ZERO; nspec];
            m.delta[k] = vec![C64::ZERO; nspec];
            m.delta_prev[k] = vec![C64::ZERO; nspec];
        }
        let idx = t.index(0, 3);
        m.phi[0][idx] = C64::new(10.0, 0.0);
        m.phi_prev[0][idx] = C64::new(10.0, 0.0);

        let n = 3.0f64;
        let l = n * (n + 1.0) / (EARTH_RADIUS * EARTH_RADIUS);
        let omega = (l * m.phibar[0]).sqrt();
        let period = 2.0 * std::f64::consts::PI / omega;
        let dt = m.dt();

        // Track phi sign changes over a bit more than one period.
        let mut crossings = Vec::new();
        let mut last = m.phi[0][idx].re;
        let steps = (1.3 * period / dt) as usize;
        for s in 0..steps {
            m.step(1);
            let cur = m.phi[0][idx].re;
            if last.signum() != cur.signum() && cur != 0.0 {
                crossings.push(s);
            }
            last = cur;
        }
        assert!(crossings.len() >= 2, "no oscillation observed");
        // Half-period from successive crossings.
        let diffs: Vec<f64> = crossings.windows(2).map(|w| (w[1] - w[0]) as f64 * dt).collect();
        let mean_half: f64 = diffs.iter().sum::<f64>() / diffs.len() as f64;
        let measured_period = 2.0 * mean_half;
        let rel = (measured_period - period).abs() / period;
        assert!(rel < 0.12, "period {measured_period} vs dispersion {period} (rel {rel})");
    }

    #[test]
    fn stable_over_a_simulated_day_with_everything_on() {
        let mut m = small_model(Ccm2Config::benchmark);
        let steps = Resolution::T42.steps_per_day() / 4; // 6 hours
        for _ in 0..steps {
            m.step(8);
        }
        let max_phi = m.phi.iter().flat_map(|l| l.iter()).map(|c| c.abs()).fold(0.0f64, f64::max);
        assert!(max_phi.is_finite() && max_phi < 1e4, "model blew up: {max_phi}");
        assert!(m.q.iter().flat_map(|l| l.iter()).all(|&v| (0.0..1.0).contains(&v)));
    }

    #[test]
    fn moisture_inventory_roughly_conserved_without_physics() {
        let mut cfg = Ccm2Config::benchmark(Resolution::T42);
        cfg.physics = false; // no precipitation sink
        let mut m = Ccm2Proxy::new(cfg, presets::sx4_benchmarked());
        let before = m.total_moisture();
        for _ in 0..10 {
            m.step(4);
        }
        let after = m.total_moisture();
        assert!((after - before).abs() < 0.05 * before, "{before} -> {after}");
    }

    #[test]
    fn step_timing_independent_of_partitioning_in_total_work() {
        let mut a = small_model(Ccm2Config::benchmark);
        let mut b = small_model(Ccm2Config::benchmark);
        let ta = a.step(1);
        let tb = b.step(8);
        // Same total flops (work is partitioned, not changed)...
        let fa = ta.timing.work.flops as f64;
        let fb = tb.timing.work.flops as f64;
        assert!((fa - fb).abs() < 0.01 * fa, "{fa} vs {fb}");
        // ...but 8 processors finish the wall-clock step faster.
        assert!(tb.seconds < ta.seconds, "{} vs {}", tb.seconds, ta.seconds);
    }

    #[test]
    fn more_processors_never_slower_up_to_node_size() {
        let mut prev = f64::INFINITY;
        for procs in [1usize, 2, 4, 8] {
            let mut m = small_model(Ccm2Config::benchmark);
            m.step(procs); // spin-up (forward step)
            let t = m.step(procs);
            assert!(t.seconds < prev * 1.02, "{procs} procs took {} vs previous {prev}", t.seconds);
            prev = t.seconds;
        }
    }

    #[test]
    fn history_volume_near_15gb_per_year_at_t63() {
        let m = Ccm2Proxy::new(Ccm2Config::benchmark(Resolution::T63), presets::sx4_benchmarked());
        let per_year = m.history_bytes_per_day() * 365;
        let gb = per_year as f64 / 1e9;
        assert!((8.0..25.0).contains(&gb), "T63 yearly history {gb} GB vs paper's ~15 GB");
    }
}

#[cfg(test)]
mod program_tests {
    use super::*;
    use sxsim::presets;

    fn mk() -> Ccm2Proxy {
        Ccm2Proxy::new(Ccm2Config::benchmark(Resolution::T42), presets::sx4_benchmarked())
    }

    #[test]
    fn replay_is_bit_identical_to_the_recorded_step() {
        let mut m = mk();
        m.step(4); // forward spin-up step
        let (recorded, program) = m.record_step_program(4);
        let replayed = m.replay_step(&program);
        assert_eq!(recorded.timing.wall_cycles.to_bits(), replayed.timing.wall_cycles.to_bits());
        assert_eq!(recorded.seconds.to_bits(), replayed.seconds.to_bits());
        assert_eq!(recorded.timing.work, replayed.timing.work);
        assert_eq!(
            recorded.bytes_per_cycle_per_proc.to_bits(),
            replayed.bytes_per_cycle_per_proc.to_bits()
        );
    }

    #[test]
    fn replay_matches_a_later_real_step_of_the_same_parity() {
        // Every step charges the same, so a replay also reproduces *future*
        // steps bit-exactly.
        let mut a = mk();
        a.step(4);
        let (_, program) = a.record_step_program(4);
        let replayed = a.replay_step(&program);
        let mut b = mk();
        b.step(4);
        b.step(4);
        let t3 = b.step(4);
        assert_eq!(t3.timing.wall_cycles.to_bits(), replayed.timing.wall_cycles.to_bits());
        assert_eq!(t3.seconds.to_bits(), replayed.seconds.to_bits());
    }

    #[test]
    fn replay_accumulates_op_stats_without_advancing_state() {
        let mut m = mk();
        m.step(4);
        let (_, program) = m.record_step_program(4);
        let steps_before = m.steps;
        let phi_before = m.mean_phi(0);
        let s0 = m.op_stats();
        let s_step = {
            // The per-step op-stat delta of the recorded step, for
            // comparison against the replay's delta.
            let mut before = mk();
            before.step(4);
            let a = before.op_stats();
            before.step(4);
            let mut d = before.op_stats();
            d.vector_ops -= a.vector_ops;
            d.vector_elements -= a.vector_elements;
            d.intrinsic_calls -= a.intrinsic_calls;
            d.scalar_iters -= a.scalar_iters;
            d
        };
        m.replay_step(&program);
        assert_eq!(m.steps, steps_before, "replay must not advance the model");
        assert_eq!(m.mean_phi(0), phi_before);
        let s1 = m.op_stats();
        assert_eq!(s1.vector_ops - s0.vector_ops, s_step.vector_ops);
        assert_eq!(s1.vector_elements - s0.vector_elements, s_step.vector_elements);
        assert_eq!(s1.intrinsic_calls - s0.intrinsic_calls, s_step.intrinsic_calls);
        assert_eq!(s1.scalar_iters - s0.scalar_iters, s_step.scalar_iters);
    }
}

#[cfg(test)]
mod multinode_tests {
    use super::*;
    use sxsim::presets;

    #[test]
    fn two_nodes_beat_one_on_a_big_problem() {
        // T85 has enough latitudes (128) to feed 64 processors; comparing
        // first (forward) steps keeps the test cheap and is apples-to-apples.
        let mk =
            || Ccm2Proxy::new(Ccm2Config::benchmark(Resolution::T85), presets::sx4_benchmarked());
        let t1 = mk().step(32);
        let t2 = mk().step_multinode(2, 32);
        assert!(t2.seconds < t1.seconds, "2 nodes {} vs 1 node {}", t2.seconds, t1.seconds);
        // ...but below perfect scaling: the IXS exchange and shorter
        // per-processor vectors cost something.
        assert!(
            t2.seconds > 0.5 * t1.seconds,
            "suspiciously superlinear: {} vs {}",
            t2.seconds,
            t1.seconds
        );
    }

    #[test]
    fn big_problems_profit_more_from_a_second_node() {
        // The multi-node analogue of Figure 8: the T85 problem gains more
        // from doubling the nodes than the thin-sliced T42 does.
        let speedup = |res: Resolution| {
            let mk = || Ccm2Proxy::new(Ccm2Config::benchmark(res), presets::sx4_benchmarked());
            let t1 = mk().step(32);
            let t2 = mk().step_multinode(2, 32);
            t1.seconds / t2.seconds
        };
        let s42 = speedup(Resolution::T42);
        let s85 = speedup(Resolution::T85);
        assert!(s85 > s42, "T85 two-node speedup {s85} should beat T42's {s42}");
        assert!(s42 < 2.0 && s85 < 2.0, "nothing scales superlinearly: {s42}, {s85}");
    }

    #[test]
    fn multinode_state_matches_single_node() {
        // The decomposition must not change the answer.
        let mk =
            || Ccm2Proxy::new(Ccm2Config::benchmark(Resolution::T42), presets::sx4_benchmarked());
        let mut a = mk();
        let mut b = mk();
        for _ in 0..3 {
            a.step(8);
            b.step_multinode(2, 16);
        }
        // Partial sums accumulate in a different order across the two
        // decompositions, so agreement is to rounding, not bit-exact.
        assert!(
            (a.mean_phi(0) - b.mean_phi(0)).abs() < 1e-12 * a.mean_phi(0).abs().max(1.0),
            "{} vs {}",
            a.mean_phi(0),
            b.mean_phi(0)
        );
        assert!((a.energy(0) - b.energy(0)).abs() < 1e-9 * a.energy(0).abs().max(1.0));
    }

    #[test]
    #[should_panic(expected = "16")]
    fn too_many_nodes_rejected() {
        let mut m =
            Ccm2Proxy::new(Ccm2Config::benchmark(Resolution::T42), presets::sx4_benchmarked());
        m.step_multinode(17, 4);
    }
}

#[cfg(test)]
mod ftrace_tests {
    use super::*;
    use sxsim::presets;

    #[test]
    fn traced_step_breaks_down_the_phases() {
        let mut m =
            Ccm2Proxy::new(Ccm2Config::benchmark(Resolution::T42), presets::sx4_benchmarked());
        let (_t, ft) = m.step_traced(4);
        let regions = ft.regions();
        for name in [
            "synthesis",
            "grid tendencies",
            "physics",
            "SLT transport",
            "analysis",
            "semi-implicit solve",
        ] {
            assert!(regions.contains_key(name), "missing region {name}");
            assert!(regions[name].cost.cycles > 0.0, "{name} empty");
        }
        // The transforms dominate a spectral model's step.
        let transforms = regions["synthesis"].cost.cycles + regions["analysis"].cost.cycles;
        let total: f64 = regions.values().map(|r| r.cost.cycles).sum();
        assert!(transforms > 0.3 * total, "transforms {transforms} of {total}");
        // Synthesis ran once per level.
        assert_eq!(regions["synthesis"].calls, 18);
        // The rendered table exists and mentions the phases.
        let table = ft.render(9.2);
        assert!(table.contains("synthesis") && table.contains("MFLOPS"));
    }

    #[test]
    fn traced_and_untraced_steps_agree() {
        let mk =
            || Ccm2Proxy::new(Ccm2Config::benchmark(Resolution::T42), presets::sx4_benchmarked());
        let mut a = mk();
        let mut b = mk();
        let ta = a.step(4);
        let (tb, _) = b.step_traced(4);
        assert_eq!(ta.timing.wall_cycles, tb.timing.wall_cycles);
        assert_eq!(a.mean_phi(0), b.mean_phi(0));
    }
}

#[cfg(test)]
mod anchor_calibration {
    use super::*;
    use sxsim::presets;

    /// Not a test: prints the Figure 8 / Table 5 anchors. Run with
    /// `cargo test -p ccm-proxy --release -- --ignored --nocapture anchors`.
    #[test]
    #[ignore = "calibration printout, not an assertion"]
    fn print_fig8_anchors() {
        let clock = presets::sx4_benchmarked().clock_ns;
        for (res, procs) in
            [(Resolution::T42, 32usize), (Resolution::T106, 32), (Resolution::T170, 32)]
        {
            let mut m = Ccm2Proxy::new(Ccm2Config::benchmark(res), presets::sx4_benchmarked());
            m.step(procs);
            let t = m.step(procs);
            let year = t.seconds * (365 * res.steps_per_day()) as f64;
            println!(
                "{} on {procs} procs: {:.2} Cray-GF, {:.4} s/step, year ~ {:.0} s",
                res.name(),
                t.timing.cray_gflops(clock),
                t.seconds,
                year
            );
        }
    }
}
