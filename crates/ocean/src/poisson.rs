//! Elliptic solvers for the ocean models' barotropic modes.
//!
//! MOM's rigid lid requires a Poisson solve for the barotropic
//! streamfunction every step (here: Jacobi relaxation with a fixed sweep
//! budget, the vectorizable classic); POP's implicit free surface solves
//! an SPD Helmholtz system by conjugate gradients. Both operate on a
//! periodic-in-longitude, wall-bounded-in-latitude grid and charge the
//! machine for their stencil sweeps and reductions.

use sxsim::{Access, VecOp, Vm, VopClass};

/// The west and east neighbours of longitude `j` on a periodic row of
/// `nlon` points: edge branches instead of a `%` per point.
#[inline]
pub(crate) fn lon_neighbours(j: usize, nlon: usize) -> (usize, usize) {
    (if j == 0 { nlon - 1 } else { j - 1 }, if j + 1 == nlon { 0 } else { j + 1 })
}

/// A 2-D field on an nlat x nlon grid, periodic in longitude.
#[derive(Debug, Clone)]
pub struct Grid2 {
    pub nlat: usize,
    pub nlon: usize,
    pub data: Vec<f64>,
}

impl Grid2 {
    pub fn zeros(nlat: usize, nlon: usize) -> Grid2 {
        Grid2 { nlat, nlon, data: vec![0.0; nlat * nlon] }
    }

    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.nlon + j]
    }

    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.nlon + j] = v;
    }

    /// 5-point Laplacian with periodic longitude and Dirichlet (zero)
    /// walls in latitude — the rigid-lid streamfunction boundary.
    pub fn laplacian(&self, i: usize, j: usize) -> f64 {
        let (jm, jp) = lon_neighbours(j, self.nlon);
        let up = if i == 0 { 0.0 } else { self.at(i - 1, j) };
        let dn = if i + 1 == self.nlat { 0.0 } else { self.at(i + 1, j) };
        up + dn + self.at(i, jm) + self.at(i, jp) - 4.0 * self.at(i, j)
    }

    /// 5-point Laplacian with periodic longitude and Neumann (no-flux)
    /// walls in latitude — the free-surface boundary: the wall ghost
    /// mirrors the interior value, so the operator conserves the domain
    /// integral exactly.
    pub fn laplacian_neumann(&self, i: usize, j: usize) -> f64 {
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
pub fn jacobi(vm: &mut Vm, x: &mut Grid2, rhs: &Grid2, sweeps: usize) -> f64 {
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
pub fn residual_norm(vm: &mut Vm, x: &Grid2, rhs: &Grid2) -> f64 {
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

/// Conjugate gradients for the free-surface Helmholtz operator
/// `(alpha - lap) x = rhs`, alpha > 0 (SPD). Returns (iterations, final
/// residual norm). Stencil applications optionally go through the
/// "unvectorized CSHIFT" path the POP benchmark hit (paper §4.7.3).
pub struct CgOptions {
    pub alpha: f64,
    pub tol: f64,
    pub max_iter: usize,
    /// Price stencil shifts through the scalar unit, as the pre-release
    /// NEC F90 compiler did with CSHIFT.
    pub scalar_cshift: bool,
    /// Use no-flux (Neumann) latitude walls instead of Dirichlet — the
    /// free-surface boundary condition (conserves the domain integral).
    pub neumann: bool,
}

/// Apply the Helmholtz operator, charging either the vector or the
/// scalar-CSHIFT path.
fn apply_helmholtz(vm: &mut Vm, out: &mut Grid2, x: &Grid2, opt: &CgOptions) {
    let (alpha, scalar_cshift) = (opt.alpha, opt.scalar_cshift);
    for i in 0..x.nlat {
        for j in 0..x.nlon {
            let lap = if opt.neumann { x.laplacian_neumann(i, j) } else { x.laplacian(i, j) };
            out.set(i, j, alpha * x.at(i, j) - lap);
        }
    }
    if scalar_cshift {
        // Four CSHIFTs through the scalar unit + vector combine; the first
        // streams the field, the rest re-read it from cache.
        vm.charge_scalar_loop(x.nlat * x.nlon, 0.0, 1.0, 1.0, sxsim::LocalityPattern::Streaming);
        for _ in 1..4 {
            vm.charge_scalar_loop(
                x.nlat * x.nlon,
                0.0,
                1.0,
                1.0,
                sxsim::LocalityPattern::Resident { working_set_bytes: 16 * 1024 },
            );
        }
        vm.charge_vector_op_repeated(
            &VecOp::new(
                x.nlon,
                VopClass::Fma,
                &[Access::Stride(1), Access::Stride(1)],
                &[Access::Stride(1)],
            ),
            x.nlat * 2,
        );
    } else {
        charge_sweep(vm, x.nlat, x.nlon);
    }
}

/// Dot product of two grids, charged as a vector reduction.
fn grid_dot(vm: &mut Vm, a: &Grid2, b: &Grid2) -> f64 {
    vm.charge_vector_op(&VecOp::new(
        a.data.len(),
        VopClass::Fma,
        &[Access::Stride(1), Access::Stride(1)],
        &[],
    ));
    a.data.iter().zip(&b.data).map(|(&x, &y)| x * y).sum()
}

/// y += s * x over grids.
fn grid_axpy(vm: &mut Vm, y: &mut Grid2, s: f64, x: &Grid2) {
    vm.axpy(&mut y.data, s, &x.data);
}

/// Solve `(alpha - lap) x = rhs` by CG.
pub fn conjugate_gradient(
    vm: &mut Vm,
    x: &mut Grid2,
    rhs: &Grid2,
    opt: &CgOptions,
) -> (usize, f64) {
    let (nlat, nlon) = (x.nlat, x.nlon);
    let mut ax = Grid2::zeros(nlat, nlon);
    apply_helmholtz(vm, &mut ax, x, opt);
    let mut r = Grid2::zeros(nlat, nlon);
    for i in 0..r.data.len() {
        r.data[i] = rhs.data[i] - ax.data[i];
    }
    let mut p = r.clone();
    let mut rr = grid_dot(vm, &r, &r);
    let rhs_norm = grid_dot(vm, rhs, rhs).sqrt().max(1e-300);

    for it in 0..opt.max_iter {
        if rr.sqrt() / rhs_norm < opt.tol {
            return (it, rr.sqrt());
        }
        apply_helmholtz(vm, &mut ax, &p, opt);
        let pap = grid_dot(vm, &p, &ax);
        if pap <= 0.0 {
            return (it, rr.sqrt()); // operator should be SPD; stop safely
        }
        let alpha = rr / pap;
        grid_axpy(vm, x, alpha, &p);
        grid_axpy(vm, &mut r, -alpha, &ax);
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
    (opt.max_iter, rr.sqrt())
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
        let mut vm = vm();
        let star = manufactured(24, 48);
        let alpha = 0.8;
        let mut rhs = Grid2::zeros(24, 48);
        for i in 0..24 {
            for j in 0..48 {
                rhs.set(i, j, alpha * star.at(i, j) - star.laplacian(i, j));
            }
        }
        let mut x = Grid2::zeros(24, 48);
        let (iters, res) = conjugate_gradient(
            &mut vm,
            &mut x,
            &rhs,
            &CgOptions { alpha, tol: 1e-10, max_iter: 2000, scalar_cshift: false, neumann: false },
        );
        assert!(iters < 2000, "CG did not converge");
        assert!(res < 1e-6);
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
            let mut x = Grid2::zeros(32, 64);
            conjugate_gradient(
                &mut vm,
                &mut x,
                &rhs,
                &CgOptions {
                    alpha: 1.0,
                    tol: 1e-8,
                    max_iter: 500,
                    scalar_cshift: scalar,
                    neumann: false,
                },
            );
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
