//! LINPACK "Toward Peak Performance": the n = 1000 entry of the LINPACK
//! report allowed any implementation, and by 1996 everyone submitted a
//! *blocked* (BLAS-3) right-looking LU. This module implements that
//! variant next to the classic BLAS-1 `dgefa` — and makes the paper's §3.1
//! point ("LINPACK tends to measure peak performance") quantitative: the
//! cache machines gain enormously from blocking (data reuse), the vector
//! machines gain much less (they were never cache-starved).

use crate::linpack::Matrix;
use sxsim::{Access, LocalityPattern, MachineModel, VecOp, Vm, VopClass};

/// Blocked right-looking LU without pivoting (the TPP test matrices are
/// diagonally dominated to make this safe; ours is constructed that way).
/// Factors in place; returns Err on a tiny pivot.
pub fn lu_blocked(vm: &mut Vm, a: &mut Matrix, block: usize) -> Result<(), String> {
    let n = a.n;
    assert!(block >= 1);
    let mut k0 = 0;
    while k0 < n {
        let kb = block.min(n - k0);
        // Factor the diagonal panel (unblocked, BLAS-1 style). On a cache
        // machine the panel's kb columns are reused within the block, so
        // when kb > 1 the sweeps run cache-resident; the kb = 1 case is the
        // classic uncached column sweep.
        let mut panel_elems = 0usize;
        for k in k0..k0 + kb {
            let pivot = a.at(k, k);
            if pivot.abs() < 1e-12 {
                return Err(format!("tiny pivot at {k}"));
            }
            let inv = 1.0 / pivot;
            for i in k + 1..n {
                a.data[i + k * n] *= inv;
            }
            let end = (k0 + kb).min(n);
            for j in k + 1..end {
                let mult = a.at(k, j);
                for i in k + 1..n {
                    a.data[i + j * n] -= mult * a.at(i, k);
                }
            }
            if vm.model().is_vector() {
                vm.charge_vector_op(&VecOp::new(
                    n - k - 1,
                    VopClass::Mul,
                    &[Access::Stride(1)],
                    &[Access::Stride(1)],
                ));
                vm.charge_vector_op_repeated(
                    &VecOp::new(
                        n - k - 1,
                        VopClass::Fma,
                        &[Access::Stride(1), Access::Stride(1)],
                        &[Access::Stride(1)],
                    ),
                    end - k - 1,
                );
            } else {
                panel_elems += (n - k - 1) * (end - k);
            }
        }
        if !vm.model().is_vector() {
            let pattern = if kb > 1 {
                LocalityPattern::Resident { working_set_bytes: 2 * kb * 8 * 64 }
            } else {
                LocalityPattern::Streaming
            };
            vm.charge_scalar_loop(panel_elems, 2.0, if kb > 1 { 1.2 } else { 3.0 }, 1.0, pattern);
        }
        let k1 = k0 + kb;
        if k1 >= n {
            break;
        }
        // Triangular solve for the row panel: U12 = L11^{-1} A12.
        for j in k1..n {
            for k in k0..k1 {
                let mult = a.at(k, j);
                for i in k + 1..k1 {
                    a.data[i + j * n] -= a.at(i, k) * mult;
                }
            }
        }
        // The kb x kb unit-lower panel stays resident during the solve.
        if vm.model().is_vector() {
            vm.charge_vector_op(&VecOp::new(
                (n - k1) * kb * kb / 2,
                VopClass::Fma,
                &[Access::Stride(1), Access::Stride(1)],
                &[Access::Stride(1)],
            ));
        } else {
            vm.charge_scalar_loop(
                (n - k1) * kb * kb / 2,
                2.0,
                0.6,
                1.0 / kb as f64,
                LocalityPattern::Resident { working_set_bytes: (kb * kb + 2 * kb) * 8 },
            );
        }
        // Trailing update: A22 -= L21 * U12 — the BLAS-3 heart. On a cache
        // machine the kb x kb panel is reused n-k1 times from cache; the
        // charge reflects that reuse with a Resident pattern.
        for j in k1..n {
            for k in k0..k1 {
                let mult = a.at(k, j);
                for i in k1..n {
                    a.data[i + j * n] -= a.at(i, k) * mult;
                }
            }
        }
        let elems = (n - k1) * (n - k1) * kb;
        if vm.model().is_vector() {
            // Long vector updates; reuse does not matter without a cache.
            let cols = (n - k1) * kb;
            vm.charge_vector_op_repeated(
                &VecOp::new(
                    n - k1,
                    VopClass::Fma,
                    &[Access::Stride(1), Access::Stride(1)],
                    &[Access::Stride(1)],
                ),
                cols,
            );
        } else if kb > 1 {
            // Cache machine: the DGEMM micro-kernel — resident panel,
            // 8-way unrolled inner loop (amortizing loop/branch overhead),
            // near-unit memory traffic. This is where TPP numbers come from.
            vm.charge_scalar_loop(
                elems / 8,
                16.0,
                4.8, // most operands come from the resident panel
                8.0 / kb as f64,
                LocalityPattern::Resident { working_set_bytes: (kb * kb + 4 * kb) * 8 },
            );
        } else {
            // kb = 1 degenerates to the classic streaming DAXPY sweep.
            vm.charge_scalar_loop(elems, 2.0, 2.0, 1.0, LocalityPattern::Streaming);
        }
        k0 = k1;
    }
    Ok(())
}

/// A diagonally dominant test matrix (safe for unpivoted LU).
pub(crate) fn dominant_matrix(n: usize, seed: u64) -> Matrix {
    let mut m = Matrix::linpack(n, seed);
    for i in 0..n {
        let row_sum: f64 = (0..n).map(|j| m.at(i, j).abs()).sum();
        m.data[i + i * n] = row_sum + 1.0;
    }
    m
}

/// TPP measurement: blocked LU Mflops on `model` for order `n`.
pub fn linpack_tpp(model: &MachineModel, n: usize, block: usize) -> f64 {
    let mut vm = Vm::new(model.clone());
    let mut a = dominant_matrix(n, 1000);
    lu_blocked(&mut vm, &mut a, block).expect("dominant matrix factors");
    let ops = 2.0 / 3.0 * (n as f64).powi(3);
    ops / vm.seconds() / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linpack::{dgesl, Matrix};
    use sxsim::presets;

    /// Factor, then solve with unit pivots and verify against a known
    /// solution (no pivoting, so pivots vector is identity).
    #[test]
    fn blocked_lu_factors_correctly() {
        let n = 24;
        let model = presets::sx4_benchmarked();
        let mut vm = Vm::new(model);
        let a0 = dominant_matrix(n, 7);
        let mut b = vec![0.0f64; n];
        for (i, bi) in b.iter_mut().enumerate() {
            for j in 0..n {
                *bi += a0.at(i, j) * (j as f64 + 1.0);
            }
        }
        let mut a = a0.clone();
        lu_blocked(&mut vm, &mut a, 8).unwrap();
        let pivots: Vec<usize> = (0..n - 1).collect(); // identity interchanges
        dgesl(&mut vm, &a, &pivots, &mut b);
        for (j, &x) in b.iter().enumerate() {
            assert!((x - (j as f64 + 1.0)).abs() < 1e-8, "x[{j}] = {x}");
        }
    }

    #[test]
    fn block_size_does_not_change_the_factors() {
        let n = 20;
        let model = presets::sx4_benchmarked();
        let factor = |block: usize| {
            let mut vm = Vm::new(model.clone());
            let mut a = dominant_matrix(n, 3);
            lu_blocked(&mut vm, &mut a, block).unwrap();
            a.data
        };
        let a1 = factor(1);
        let a8 = factor(8);
        let an = factor(n);
        for i in 0..n * n {
            assert!((a1[i] - a8[i]).abs() < 1e-9);
            assert!((a1[i] - an[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn blocking_transforms_the_cache_machine() {
        // The §3.1 point, quantified: BLAS-3 blocking multiplies the
        // RS6000's LINPACK number...
        let m = presets::rs6000_590();
        let unblocked = linpack_tpp(&m, 320, 1);
        let blocked = linpack_tpp(&m, 320, 16);
        assert!(
            blocked > 1.5 * unblocked,
            "blocking should transform a cache machine: {unblocked} -> {blocked}"
        );
    }

    #[test]
    fn blocking_barely_moves_the_vector_machine() {
        // ...while the SX-4 gains comparatively little: it was never
        // starved for cache.
        let m = presets::sx4_benchmarked();
        let unblocked = linpack_tpp(&m, 320, 1);
        let blocked = linpack_tpp(&m, 320, 16);
        let gain = blocked / unblocked;
        assert!(gain < 1.6, "a vector machine should gain little from blocking: {gain}");
    }

    #[test]
    fn singular_panel_detected() {
        let model = presets::sx4_benchmarked();
        let mut vm = Vm::new(model);
        let n = 8;
        let mut a = Matrix { n, data: vec![0.0; n * n] };
        assert!(lu_blocked(&mut vm, &mut a, 4).is_err());
    }
}
