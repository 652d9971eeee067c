//! Elliptic solvers for the ocean models' barotropic modes.
//!
//! MOM's rigid lid requires a Poisson solve for the barotropic
//! streamfunction every step (here: Jacobi relaxation with a fixed sweep
//! budget, the vectorizable classic); POP's implicit free surface solves
//! an SPD Helmholtz system by conjugate gradients. Both operate on a
//! periodic-in-longitude, wall-bounded-in-latitude grid and charge the
//! machine for their stencil sweeps and reductions. The CG solve computes
//! first and is charged afterwards from its exit record, so one solve can
//! be priced for several compilers.

use sxsim::{Access, VecOp, Vm, VopClass};

/// The west and east neighbours of longitude `j` on a periodic row of
/// `nlon` points: edge branches instead of a `%` per point.
#[inline]
pub(crate) fn lon_neighbours(j: usize, nlon: usize) -> (usize, usize) {
    (if j == 0 { nlon - 1 } else { j - 1 }, if j + 1 == nlon { 0 } else { j + 1 })
}

/// Visit every point of a periodic row of `nlon` points as
/// `point(j, jm, jp)`, `jm`/`jp` its west and east neighbours. The two edge
/// columns are peeled through [`lon_neighbours`] (at `nlon` 1 and 2 they
/// wrap onto the point itself or onto each other); the interior runs with
/// `jm = j - 1` and `jp = j + 1`, so a caller indexing `nlon`-long row
/// slices leaves the compiler no bounds to check there.
#[inline(always)]
pub(crate) fn row_points(nlon: usize, mut point: impl FnMut(usize, usize, usize)) {
    let (jm, jp) = lon_neighbours(0, nlon);
    point(0, jm, jp);
    for j in 1..nlon - 1 {
        point(j, j - 1, j + 1);
    }
    if nlon > 1 {
        let (jm, jp) = lon_neighbours(nlon - 1, nlon);
        point(nlon - 1, jm, jp);
    }
}

/// A 2-D field on an nlat x nlon grid, periodic in longitude.
#[derive(Debug, Clone)]
pub(crate) struct Grid2 {
    pub(crate) nlat: usize,
    pub(crate) nlon: usize,
    pub(crate) data: Vec<f64>,
}

impl Grid2 {
    pub(crate) fn zeros(nlat: usize, nlon: usize) -> Grid2 {
        Grid2 { nlat, nlon, data: vec![0.0; nlat * nlon] }
    }

    pub(crate) fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.nlon + j]
    }

    pub(crate) fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.nlon + j] = v;
    }

    /// Latitude row `i`.
    pub(crate) fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.nlon..(i + 1) * self.nlon]
    }

    /// 5-point Laplacian with periodic longitude and Dirichlet (zero)
    /// walls in latitude — the rigid-lid streamfunction boundary.
    pub(crate) fn laplacian(&self, i: usize, j: usize) -> f64 {
        let (jm, jp) = lon_neighbours(j, self.nlon);
        let up = if i == 0 { 0.0 } else { self.at(i - 1, j) };
        let dn = if i + 1 == self.nlat { 0.0 } else { self.at(i + 1, j) };
        up + dn + self.at(i, jm) + self.at(i, jp) - 4.0 * self.at(i, j)
    }

    /// 5-point Laplacian with periodic longitude and Neumann (no-flux)
    /// walls in latitude — the free-surface boundary: the wall ghost
    /// mirrors the interior value, so the operator conserves the domain
    /// integral exactly. The row-wise [`apply_helmholtz`] is what steps
    /// use; this point-wise form is the tests' reference.
    #[cfg(test)]
    pub(crate) fn laplacian_neumann(&self, i: usize, j: usize) -> f64 {
        let (jm, jp) = lon_neighbours(j, self.nlon);
        let c = self.at(i, j);
        let up = if i == 0 { c } else { self.at(i - 1, j) };
        let dn = if i + 1 == self.nlat { c } else { self.at(i + 1, j) };
        up + dn + self.at(i, jm) + self.at(i, jp) - 4.0 * c
    }
}

/// Charge one full-stencil sweep over the interior.
fn charge_sweep(vm: &mut Vm, nlat: usize, nlon: usize) {
    // Per latitude row: the 5-point update is ~6 fused ops over nlon.
    vm.charge_vector_op_repeated(
        &VecOp::new(
            nlon,
            VopClass::Fma,
            &[Access::Stride(1), Access::Stride(1)],
            &[Access::Stride(1)],
        ),
        nlat * 6,
    );
}

/// Jacobi relaxation for `lap(x) = rhs`: runs exactly `sweeps` sweeps (the
/// fixed-budget style of the rigid-lid solvers) and returns the final
/// residual norm. A pricing `vm` charges the sweeps, leaves `x` untouched
/// and returns zero.
pub(crate) fn jacobi(vm: &mut Vm, x: &mut Grid2, rhs: &Grid2, sweeps: usize) -> f64 {
    assert_eq!(x.nlat, rhs.nlat);
    assert_eq!(x.nlon, rhs.nlon);
    let (nlat, nlon) = (x.nlat, x.nlon);
    let rows = if vm.computes() { 0..nlat } else { 0..0 };
    let mut next = x.clone();
    for _ in 0..sweeps {
        for i in rows.clone() {
            for j in 0..nlon {
                let (jm, jp) = lon_neighbours(j, nlon);
                let up = if i == 0 { 0.0 } else { x.at(i - 1, j) };
                let dn = if i + 1 == nlat { 0.0 } else { x.at(i + 1, j) };
                let sum = up + dn + x.at(i, jm) + x.at(i, jp);
                next.set(i, j, 0.25 * (sum - rhs.at(i, j)));
            }
        }
        std::mem::swap(&mut x.data, &mut next.data);
        charge_sweep(vm, nlat, nlon);
    }
    residual_norm(vm, x, rhs)
}

/// ||lap(x) - rhs||_2, charged as a reduction (zero when pricing).
pub(crate) fn residual_norm(vm: &mut Vm, x: &Grid2, rhs: &Grid2) -> f64 {
    let mut s = 0.0;
    let rows = if vm.computes() { 0..x.nlat } else { 0..0 };
    for i in rows {
        for j in 0..x.nlon {
            let r = x.laplacian(i, j) - rhs.at(i, j);
            s += r * r;
        }
    }
    charge_sweep(vm, x.nlat, x.nlon);
    s.sqrt()
}

/// Options of a [`conjugate_gradient`] solve.
pub(crate) struct CgOptions {
    pub(crate) alpha: f64,
    pub(crate) tol: f64,
    pub(crate) max_iter: usize,
    /// Use no-flux (Neumann) latitude walls instead of Dirichlet — the
    /// free-surface boundary condition (conserves the domain integral).
    pub(crate) neumann: bool,
}

/// `out = (alpha - lap) x`, row by row: each row reads its `up`/`row`/`dn`
/// slices, and a wall row's missing neighbour is the row itself (Neumann)
/// or zero (Dirichlet). Every point is the expression of the point-wise
/// operators `Grid2::laplacian_neumann` / `Grid2::laplacian`, bit for bit.
pub(crate) fn apply_helmholtz(out: &mut Grid2, x: &Grid2, opt: &CgOptions) {
    let (nlat, nlon, alpha) = (x.nlat, x.nlon, opt.alpha);
    let zeros = if opt.neumann { Vec::new() } else { vec![0.0; nlon] };
    for i in 0..nlat {
        let out = &mut out.data[i * nlon..(i + 1) * nlon];
        let row = x.row(i);
        let wall = if opt.neumann { row } else { &zeros[..] };
        let up = if i == 0 { wall } else { x.row(i - 1) };
        let dn = if i + 1 == nlat { wall } else { x.row(i + 1) };
        row_points(nlon, |j, jm, jp| {
            let c = row[j];
            out[j] = alpha * c - (up[j] + dn[j] + row[jm] + row[jp] - 4.0 * c);
        });
    }
}

/// Charge one Helmholtz application: the vector stencil sweep, or four
/// CSHIFTs through the scalar unit plus a vector combine.
fn charge_helmholtz(vm: &mut Vm, nlat: usize, nlon: usize, scalar_cshift: bool) {
    if scalar_cshift {
        // The first CSHIFT streams the field, the rest re-read it from
        // cache.
        vm.charge_scalar_loop(nlat * nlon, 0.0, 1.0, 1.0, sxsim::LocalityPattern::Streaming);
        for _ in 1..4 {
            vm.charge_scalar_loop(
                nlat * nlon,
                0.0,
                1.0,
                1.0,
                sxsim::LocalityPattern::Resident { working_set_bytes: 16 * 1024 },
            );
        }
        vm.charge_vector_op_repeated(
            &VecOp::new(
                nlon,
                VopClass::Fma,
                &[Access::Stride(1), Access::Stride(1)],
                &[Access::Stride(1)],
            ),
            nlat * 2,
        );
    } else {
        charge_sweep(vm, nlat, nlon);
    }
}

/// Charge a dot product of two `n`-point grids (a vector reduction).
fn charge_dot(vm: &mut Vm, n: usize) {
    vm.charge_vector_op(&VecOp::new(
        n,
        VopClass::Fma,
        &[Access::Stride(1), Access::Stride(1)],
        &[],
    ));
}

/// Charge one `n`-point update `y = a + s * b` (an AXPY or the search
/// direction update).
fn charge_update(vm: &mut Vm, n: usize) {
    vm.charge_vector_op(&VecOp::new(
        n,
        VopClass::Fma,
        &[Access::Stride(1), Access::Stride(1)],
        &[Access::Stride(1)],
    ));
}

fn dot(a: &Grid2, b: &Grid2) -> f64 {
    a.data.iter().zip(&b.data).map(|(&x, &y)| x * y).sum()
}

/// Why a [`conjugate_gradient`] solve stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CgStop {
    /// The relative residual fell below `tol` (at iteration 0 when the
    /// first guess already solves the system).
    Converged,
    /// `p . Ap <= 0`: the operator is not SPD along `p`, so the solve
    /// stopped safely after applying it.
    NotPositive,
    /// `max_iter` iterations ran without converging.
    MaxIter,
}

/// The exit record of a [`conjugate_gradient`] solve: everything its
/// charges depend on beyond the grid shape and the options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CgExit {
    /// Completed iterations.
    pub(crate) iters: usize,
    pub(crate) stop: CgStop,
    /// Final residual norm.
    pub(crate) residual: f64,
}

/// The work grids of a [`conjugate_gradient`] solve — `A p`, the residual
/// and the search direction — kept from one solve to the next, so that a
/// model stepping one grid allocates them once.
pub(crate) struct CgScratch {
    ax: Grid2,
    r: Grid2,
    p: Grid2,
}

impl CgScratch {
    pub(crate) fn new(nlat: usize, nlon: usize) -> CgScratch {
        CgScratch {
            ax: Grid2::zeros(nlat, nlon),
            r: Grid2::zeros(nlat, nlon),
            p: Grid2::zeros(nlat, nlon),
        }
    }
}

/// Conjugate gradients for the free-surface Helmholtz operator
/// `(alpha - lap) x = rhs`, alpha > 0 (SPD), starting from `x`, with work
/// grids from `scratch`. Computes values only and returns the solve's exit
/// record; the machine is charged for the solve by
/// [`charge_conjugate_gradient`], once per compiler or machine the same
/// solve is priced for.
pub(crate) fn conjugate_gradient(
    x: &mut Grid2,
    rhs: &Grid2,
    opt: &CgOptions,
    scratch: &mut CgScratch,
) -> CgExit {
    let CgScratch { ax, r, p } = scratch;
    assert_eq!((x.nlat, x.nlon), (rhs.nlat, rhs.nlon));
    assert_eq!((x.nlat, x.nlon), (r.nlat, r.nlon));
    let exit = |iters, stop, rr: f64| CgExit { iters, stop, residual: rr.sqrt() };
    apply_helmholtz(ax, x, opt);
    for ((r, &b), &ax) in r.data.iter_mut().zip(&rhs.data).zip(&ax.data) {
        *r = b - ax;
    }
    p.data.copy_from_slice(&r.data);
    let mut rr = dot(r, r);
    let rhs_norm = dot(rhs, rhs).sqrt().max(1e-300);

    for it in 0..opt.max_iter {
        if rr.sqrt() / rhs_norm < opt.tol {
            return exit(it, CgStop::Converged, rr);
        }
        apply_helmholtz(ax, p, opt);
        let pap = dot(p, ax);
        if pap <= 0.0 {
            return exit(it, CgStop::NotPositive, rr);
        }
        let alpha = rr / pap;
        for (y, &v) in x.data.iter_mut().zip(&p.data) {
            *y += alpha * v;
        }
        for (y, &v) in r.data.iter_mut().zip(&ax.data) {
            *y += -alpha * v;
        }
        let rr_new = dot(r, r);
        let beta = rr_new / rr;
        for (p, &r) in p.data.iter_mut().zip(&r.data) {
            *p = r + beta * *p;
        }
        rr = rr_new;
    }
    exit(opt.max_iter, CgStop::MaxIter, rr)
}

/// Charge `vm` for the solve `exit` records on an `nlat` x `nlon` grid:
/// the exact charge sequence of a CG that charges as it computes. The
/// setup applies the operator and takes two dot products; each completed
/// iteration applies the operator, takes a dot product, updates `x` and
/// `r`, takes a dot product and updates `p`; a [`CgStop::NotPositive`]
/// exit adds the application and dot product it stopped after.
/// `scalar_cshift` prices the stencil shifts through the scalar unit, as
/// the pre-release NEC F90 compiler did with CSHIFT (paper §4.7.3).
pub(crate) fn charge_conjugate_gradient(
    vm: &mut Vm,
    nlat: usize,
    nlon: usize,
    scalar_cshift: bool,
    exit: &CgExit,
) {
    let n = nlat * nlon;
    charge_helmholtz(vm, nlat, nlon, scalar_cshift);
    charge_dot(vm, n);
    charge_dot(vm, n);
    for _ in 0..exit.iters {
        charge_helmholtz(vm, nlat, nlon, scalar_cshift);
        charge_dot(vm, n);
        charge_update(vm, n);
        charge_update(vm, n);
        charge_dot(vm, n);
        charge_update(vm, n);
    }
    if exit.stop == CgStop::NotPositive {
        charge_helmholtz(vm, nlat, nlon, scalar_cshift);
        charge_dot(vm, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxsim::presets;

    fn vm() -> Vm {
        Vm::new(presets::sx4_benchmarked())
    }

    /// Manufactured solution: pick x*, compute rhs = op(x*), solve, compare.
    fn manufactured(nlat: usize, nlon: usize) -> Grid2 {
        let mut x = Grid2::zeros(nlat, nlon);
        for i in 0..nlat {
            for j in 0..nlon {
                let a = (i as f64 + 1.0) / (nlat as f64 + 1.0);
                let b = 2.0 * std::f64::consts::PI * j as f64 / nlon as f64;
                x.set(i, j, (std::f64::consts::PI * a).sin() * b.cos());
            }
        }
        x
    }

    #[test]
    fn cg_solves_manufactured_problem() {
        let star = manufactured(24, 48);
        let alpha = 0.8;
        let mut rhs = Grid2::zeros(24, 48);
        for i in 0..24 {
            for j in 0..48 {
                rhs.set(i, j, alpha * star.at(i, j) - star.laplacian(i, j));
            }
        }
        let mut x = Grid2::zeros(24, 48);
        let exit = conjugate_gradient(
            &mut x,
            &rhs,
            &CgOptions { alpha, tol: 1e-10, max_iter: 2000, neumann: false },
            &mut CgScratch::new(24, 48),
        );
        assert_eq!(exit.stop, CgStop::Converged, "CG did not converge");
        assert!(exit.residual < 1e-6);
        let err = x.data.iter().zip(&star.data).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
        assert!(err < 1e-6, "max error {err}");
    }

    #[test]
    fn jacobi_reduces_residual() {
        let mut vm = vm();
        let mut rhs = Grid2::zeros(16, 32);
        rhs.set(8, 16, 1.0);
        rhs.set(4, 7, -0.5);
        let mut x = Grid2::zeros(16, 32);
        let r0 = residual_norm(&mut vm, &x, &rhs);
        let r1 = jacobi(&mut vm, &mut x, &rhs, 50);
        let r2 = jacobi(&mut vm, &mut x, &rhs, 200);
        assert!(r1 < 0.6 * r0, "{r0} -> {r1}");
        assert!(r2 < r1);
    }

    #[test]
    fn scalar_cshift_is_much_more_expensive() {
        let star = manufactured(32, 64);
        let mut rhs = Grid2::zeros(32, 64);
        for i in 0..32 {
            for j in 0..64 {
                rhs.set(i, j, star.at(i, j) - star.laplacian(i, j));
            }
        }
        let run = |scalar: bool| {
            let mut vm = vm();
            let opt = CgOptions { alpha: 1.0, tol: 1e-8, max_iter: 500, neumann: false };
            let exit = conjugate_gradient(
                &mut Grid2::zeros(32, 64),
                &rhs,
                &opt,
                &mut CgScratch::new(32, 64),
            );
            charge_conjugate_gradient(&mut vm, 32, 64, scalar, &exit);
            vm.cost().cycles
        };
        let vec_cycles = run(false);
        let scalar_cycles = run(true);
        assert!(
            scalar_cycles > 3.0 * vec_cycles,
            "scalar CSHIFT {scalar_cycles} vs vector {vec_cycles}"
        );
    }

    #[test]
    fn laplacian_of_constant_interior_is_zero_modulo_walls() {
        let mut g = Grid2::zeros(8, 16);
        for v in &mut g.data {
            *v = 3.0;
        }
        // Interior rows see 0; wall rows feel the zero boundary.
        assert_eq!(g.laplacian(4, 5), 0.0);
        assert!(g.laplacian(0, 5) < 0.0);
    }
}

#[cfg(test)]
pub(crate) mod pricing_tests {
    use super::*;
    use ncar_suite::SmallRng;
    use sxsim::presets;

    /// The solver as it was before its values and charges were split:
    /// point-wise stencils, each charge made where its arithmetic runs, and
    /// the AXPYs through the computing `vm`.
    pub(crate) fn interleaved_conjugate_gradient(
        vm: &mut Vm,
        x: &mut Grid2,
        rhs: &Grid2,
        opt: &CgOptions,
        scalar_cshift: bool,
    ) -> CgExit {
        let apply = |vm: &mut Vm, out: &mut Grid2, x: &Grid2| {
            for i in 0..x.nlat {
                for j in 0..x.nlon {
                    let lap =
                        if opt.neumann { x.laplacian_neumann(i, j) } else { x.laplacian(i, j) };
                    out.set(i, j, opt.alpha * x.at(i, j) - lap);
                }
            }
            charge_helmholtz(vm, x.nlat, x.nlon, scalar_cshift);
        };
        let grid_dot = |vm: &mut Vm, a: &Grid2, b: &Grid2| {
            vm.charge_vector_op(&VecOp::new(
                a.data.len(),
                VopClass::Fma,
                &[Access::Stride(1), Access::Stride(1)],
                &[],
            ));
            a.data.iter().zip(&b.data).map(|(&x, &y)| x * y).sum::<f64>()
        };
        let exit = |iters, stop, rr: f64| CgExit { iters, stop, residual: rr.sqrt() };
        let (nlat, nlon) = (x.nlat, x.nlon);
        let mut ax = Grid2::zeros(nlat, nlon);
        apply(vm, &mut ax, x);
        let mut r = Grid2::zeros(nlat, nlon);
        for i in 0..r.data.len() {
            r.data[i] = rhs.data[i] - ax.data[i];
        }
        let mut p = r.clone();
        let mut rr = grid_dot(vm, &r, &r);
        let rhs_norm = grid_dot(vm, rhs, rhs).sqrt().max(1e-300);
        for it in 0..opt.max_iter {
            if rr.sqrt() / rhs_norm < opt.tol {
                return exit(it, CgStop::Converged, rr);
            }
            apply(vm, &mut ax, &p);
            let pap = grid_dot(vm, &p, &ax);
            if pap <= 0.0 {
                return exit(it, CgStop::NotPositive, rr);
            }
            let alpha = rr / pap;
            vm.axpy(&mut x.data, alpha, &p.data);
            vm.axpy(&mut r.data, -alpha, &ax.data);
            let rr_new = grid_dot(vm, &r, &r);
            let beta = rr_new / rr;
            for i in 0..p.data.len() {
                p.data[i] = r.data[i] + beta * p.data[i];
            }
            vm.charge_vector_op(&VecOp::new(
                p.data.len(),
                VopClass::Fma,
                &[Access::Stride(1), Access::Stride(1)],
                &[Access::Stride(1)],
            ));
            rr = rr_new;
        }
        exit(opt.max_iter, CgStop::MaxIter, rr)
    }

    /// A grid of values in [-1, 1), with exact zeros of both signs mixed in
    /// so that a wall's `0.0 + v` cannot hide behind a plain `v`.
    pub(crate) fn random_grid(rng: &mut SmallRng, nlat: usize, nlon: usize) -> Grid2 {
        let mut g = Grid2::zeros(nlat, nlon);
        for v in &mut g.data {
            *v = match rng.next_below(16) {
                0 => 0.0,
                1 => -0.0,
                _ => 2.0 * rng.next_f64() - 1.0,
            };
        }
        g
    }

    pub(crate) fn bits(g: &Grid2) -> Vec<u64> {
        g.data.iter().map(|v| v.to_bits()).collect()
    }

    /// The grid shapes the row-sliced stencils are held to: at `nlon` 1
    /// and 2 the periodic neighbours wrap onto the point itself or onto
    /// each other, at `nlat` 1 and 2 every row is a wall row.
    pub(crate) const SHAPES: [usize; 4] = [1, 2, 3, 90];
    pub(crate) const LONS: [usize; 4] = [1, 2, 3, 180];

    #[test]
    fn row_sliced_helmholtz_matches_pointwise_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(26);
        for nlat in SHAPES {
            for nlon in LONS {
                for neumann in [false, true] {
                    let x = random_grid(&mut rng, nlat, nlon);
                    let alpha = 0.5 + 4.0 * rng.next_f64();
                    let opt = CgOptions { alpha, tol: 0.0, max_iter: 0, neumann };
                    let mut out = Grid2::zeros(nlat, nlon);
                    apply_helmholtz(&mut out, &x, &opt);
                    for i in 0..nlat {
                        for j in 0..nlon {
                            let lap =
                                if neumann { x.laplacian_neumann(i, j) } else { x.laplacian(i, j) };
                            let want = alpha * x.at(i, j) - lap;
                            assert_eq!(
                                out.at(i, j).to_bits(),
                                want.to_bits(),
                                "{nlat}x{nlon} neumann={neumann} at ({i}, {j})"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Replaying a solve's exit record charges exactly what the interleaved
    /// solver charged — trace, ledger and PROGINF statistics — and the
    /// split solver computes the same values, for every way a solve ends.
    #[test]
    fn replayed_charges_match_interleaved_for_every_exit() {
        let mut rng = SmallRng::seed_from_u64(7);
        let (nlat, nlon) = (12, 20);
        let bump = random_grid(&mut rng, nlat, nlon);
        let zeros = Grid2::zeros(nlat, nlon);
        let opt = |alpha, tol, max_iter| CgOptions { alpha, tol, max_iter, neumann: true };
        let cases = [
            ("converges", &bump, opt(2.0, 1e-9, 500), CgStop::Converged),
            ("zero rhs converges at 0", &zeros, opt(2.0, 1e-9, 500), CgStop::Converged),
            ("max_iter 1", &bump, opt(2.0, 1e-9, 1), CgStop::MaxIter),
            ("max_iter 0", &bump, opt(2.0, 1e-9, 0), CgStop::MaxIter),
            ("p.Ap = 0", &zeros, opt(2.0, 0.0, 500), CgStop::NotPositive),
            ("p.Ap < 0", &bump, opt(-8.0, 1e-9, 500), CgStop::NotPositive),
        ];
        // One scratch for every solve, as a stepping model keeps it.
        let mut scratch = CgScratch::new(nlat, nlon);
        for (name, rhs, opt, stop) in cases {
            for neumann in [false, true] {
                let opt = CgOptions { neumann, ..opt };
                for scalar_cshift in [false, true] {
                    let ctx = format!("{name} neumann={neumann} scalar_cshift={scalar_cshift}");
                    let machine = presets::sx4_benchmarked();
                    let (mut interleaved, mut replayed) =
                        (Vm::new(machine.clone()), Vm::pricing(machine));
                    interleaved.start_trace();
                    replayed.start_trace();
                    let (mut xi, mut xr) = (Grid2::zeros(nlat, nlon), Grid2::zeros(nlat, nlon));
                    let want = interleaved_conjugate_gradient(
                        &mut interleaved,
                        &mut xi,
                        rhs,
                        &opt,
                        scalar_cshift,
                    );
                    let exit = conjugate_gradient(&mut xr, rhs, &opt, &mut scratch);
                    charge_conjugate_gradient(&mut replayed, nlat, nlon, scalar_cshift, &exit);
                    assert_eq!(exit.stop, stop, "{ctx}");
                    assert_eq!((exit.iters, exit.stop), (want.iters, want.stop), "{ctx}");
                    assert_eq!(exit.residual.to_bits(), want.residual.to_bits(), "{ctx}");
                    assert_eq!(bits(&xr), bits(&xi), "{ctx}");
                    let (ci, cr) = (interleaved.cost(), replayed.cost());
                    assert_eq!(ci.cycles.to_bits(), cr.cycles.to_bits(), "{ctx}");
                    assert_eq!(ci.flops, cr.flops, "{ctx}");
                    assert_eq!(ci.cray_flops.to_bits(), cr.cray_flops.to_bits(), "{ctx}");
                    assert_eq!(ci.bytes, cr.bytes, "{ctx}");
                    assert_eq!(interleaved.stats(), replayed.stats(), "{ctx}");
                    assert_eq!(interleaved.take_trace(), replayed.take_trace(), "{ctx}");
                }
            }
        }
    }
}
