//! Shape-preserving semi-Lagrangian transport (SLT) of trace constituents
//! — "trace gases, including water vapor, are transported by the wind
//! fields using a shape preserving SLT scheme. This transport involves
//! indirect addressing on the Gaussian polar grid." (paper §4.7.1,
//! following Williamson & Rasch.)
//!
//! This implementation transports along latitude circles (cyclic in
//! longitude): departure points are found from the local zonal wind, the
//! field is interpolated there with a monotonicity-limited cubic Hermite
//! (the "shape preserving" part — no new extrema are created), and the
//! gathers charge the machine's list-vector hardware, which is exactly the
//! irregular-access pattern the IA benchmark isolates.

use sxsim::Vm;

/// Limited derivative estimate at node `i` of a cyclic sequence (Fritsch-
/// Carlson style): the harmonic-ish mean clipped to preserve monotonicity.
fn limited_slope(qm: f64, q0: f64, qp: f64) -> f64 {
    let d_left = q0 - qm;
    let d_right = qp - q0;
    if d_left * d_right <= 0.0 {
        return 0.0; // local extremum: flat slope preserves shape
    }
    let centered = 0.5 * (d_left + d_right);
    let bound = 2.0 * d_left.abs().min(d_right.abs());
    centered.signum() * centered.abs().min(bound)
}

/// The transported row: departure points, then a monotone Hermite
/// interpolation of the four-point stencil around each.
fn transport(q: &[f64], u_cells: &[f64]) -> Vec<f64> {
    let n = q.len();
    // Departure points and gather indices (real indirect addressing).
    let mut idx0 = vec![0usize; n];
    let mut frac = vec![0.0f64; n];
    for j in 0..n {
        let x = j as f64 - u_cells[j];
        let xf = x.floor();
        let mut i0 = (xf as i64).rem_euclid(n as i64) as usize;
        let mut f = x - xf;
        // Guard against f == 1.0 from floating point.
        if f >= 1.0 {
            i0 = (i0 + 1) % n;
            f = 0.0;
        }
        idx0[j] = i0;
        frac[j] = f;
    }

    // Gather the four-point stencils.
    let at = |i: usize| q[i % n];
    let mut out = vec![0.0f64; n];
    for j in 0..n {
        let i0 = idx0[j];
        let im = (i0 + n - 1) % n;
        let i1 = (i0 + 1) % n;
        let i2 = (i0 + 2) % n;
        let (qm, q0, q1, q2) = (at(im), at(i0), at(i1), at(i2));
        // Monotone Hermite on [i0, i1].
        let d0 = limited_slope(qm, q0, q1);
        let d1 = limited_slope(q0, q1, q2);
        let t = frac[j];
        let h00 = (1.0 + 2.0 * t) * (1.0 - t) * (1.0 - t);
        let h10 = t * (1.0 - t) * (1.0 - t);
        let h01 = t * t * (3.0 - 2.0 * t);
        let h11 = t * t * (t - 1.0);
        out[j] = h00 * q0 + h10 * d0 + h01 * q1 + h11 * d1;
    }
    out
}

/// Advect one cyclic row `q` by the (non-uniform) velocity `u_cells`
/// expressed in *cells per step* (u * dt / dx). Returns the transported
/// row, or nothing when `vm` is pricing. `vm` is charged for the
/// departure-point arithmetic, the gathers and the interpolation.
pub fn advect_row(vm: &mut Vm, q: &[f64], u_cells: &[f64]) -> Vec<f64> {
    let n = q.len();
    assert_eq!(u_cells.len(), n);
    assert!(n >= 4, "SLT needs at least 4 points");
    let out = if vm.computes() { transport(q, u_cells) } else { Vec::new() };

    // Machine charging: departure arithmetic (vectorized), four gathers
    // through the list-vector unit, and the Hermite evaluation.
    use sxsim::{Access, VecOp, VopClass};
    // departure points: ~4 ops
    vm.charge_vector_op_repeated(
        &VecOp::new(n, VopClass::Add, &[Access::Stride(1)], &[Access::Stride(1)]),
        4,
    );
    // four gathers
    vm.charge_vector_op_repeated(
        &VecOp::new(n, VopClass::Logical, &[Access::Indexed], &[Access::Stride(1)]),
        4,
    );
    // slopes + limiter (~6 ops) and Hermite (~10 fused ops)
    vm.charge_vector_op_repeated(
        &VecOp::new(
            n,
            VopClass::Add,
            &[Access::Stride(1), Access::Stride(1)],
            &[Access::Stride(1)],
        ),
        6,
    );
    vm.charge_vector_op_repeated(
        &VecOp::new(
            n,
            VopClass::Fma,
            &[Access::Stride(1), Access::Stride(1)],
            &[Access::Stride(1)],
        ),
        10,
    );

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxsim::presets;

    fn vm() -> Vm {
        Vm::new(presets::sx4_benchmarked())
    }

    fn smooth_row(n: usize) -> Vec<f64> {
        (0..n)
            .map(|j| {
                let x = 2.0 * std::f64::consts::PI * j as f64 / n as f64;
                1.0 + 0.5 * x.sin() + 0.25 * (2.0 * x).cos()
            })
            .collect()
    }

    #[test]
    fn constant_field_is_invariant() {
        let mut vm = vm();
        let q = vec![7.5f64; 64];
        let u = vec![0.37f64; 64];
        let out = advect_row(&mut vm, &q, &u);
        assert!(out.iter().all(|&v| (v - 7.5).abs() < 1e-14));
    }

    #[test]
    fn integer_shift_is_exact() {
        let mut vm = vm();
        let q = smooth_row(48);
        let u = vec![3.0f64; 48];
        let out = advect_row(&mut vm, &q, &u);
        for j in 0..48 {
            let src = (j + 48 - 3) % 48;
            assert!((out[j] - q[src]).abs() < 1e-13, "j={j}");
        }
    }

    #[test]
    fn shape_preserving_no_new_extrema() {
        let mut vm = vm();
        // A step function: transport must not overshoot.
        let n = 64;
        let q: Vec<f64> = (0..n).map(|j| if (16..32).contains(&j) { 1.0 } else { 0.0 }).collect();
        let u = vec![0.4f64; n];
        let mut cur = q.clone();
        for _ in 0..50 {
            cur = advect_row(&mut vm, &cur, &u);
            let max = cur.iter().cloned().fold(f64::MIN, f64::max);
            let min = cur.iter().cloned().fold(f64::MAX, f64::min);
            assert!(max <= 1.0 + 1e-12, "overshoot {max}");
            assert!(min >= -1e-12, "undershoot {min}");
        }
    }

    #[test]
    fn smooth_profile_advects_with_small_error() {
        let mut vm = vm();
        let n = 128;
        let q = smooth_row(n);
        let u = vec![0.5f64; n];
        let mut cur = q.clone();
        // 2n steps at half a cell per step = one full revolution.
        for _ in 0..(2 * n) {
            cur = advect_row(&mut vm, &cur, &u);
        }
        let err: f64 = cur.iter().zip(&q).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        assert!(err < 0.05, "revolution error {err}");
    }

    #[test]
    fn mean_approximately_conserved() {
        let mut vm = vm();
        let n = 96;
        let q = smooth_row(n);
        let mean0: f64 = q.iter().sum::<f64>() / n as f64;
        let u: Vec<f64> = (0..n).map(|j| 0.3 + 0.1 * (j as f64 * 0.2).sin()).collect();
        let mut cur = q;
        for _ in 0..100 {
            cur = advect_row(&mut vm, &cur, &u);
        }
        let mean1: f64 = cur.iter().sum::<f64>() / n as f64;
        assert!((mean1 - mean0).abs() < 0.02 * mean0.abs(), "{mean0} -> {mean1}");
    }

    #[test]
    fn charges_gather_traffic() {
        let mut vm = vm();
        let q = smooth_row(64);
        let u = vec![0.25f64; 64];
        let _ = advect_row(&mut vm, &q, &u);
        let c = vm.cost();
        assert!(c.cycles > 0.0);
        // The gathers should show up as indexed traffic (index words are
        // counted in the ledger's bytes).
        assert!(c.bytes > (64 * 8 * 8) as u64);
    }
}
