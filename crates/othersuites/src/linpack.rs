//! LINPACK (Dongarra), §3.1 — dense LU factorization and solve.
//!
//! "The benchmark consists of solving dense systems of equations for a
//! system of order 100 and 1000. ... LINPACK tends to measure peak
//! performance of a computer and is not intended to evaluate the overall
//! performance of a computer system." The classic DGEFA/DGESL pair is
//! implemented here in its BLAS-1 column-sweep form (IDAMAX + DSCAL +
//! DAXPY), which is exactly the structure whose vector lengths shrink as
//! elimination proceeds — the reason n = 100 underestimates long-vector
//! machines and n = 1000 flatters them.

// Matrix index loops mirror the Fortran original.
#![allow(clippy::needless_range_loop)]

use ncar_suite::SmallRng;
use sxsim::{MachineModel, Vm};

/// Column-major dense matrix.
#[derive(Debug, Clone)]
pub struct Matrix {
    pub(crate) n: usize,
    /// data[i + j*n]
    pub(crate) data: Vec<f64>,
}

impl Matrix {
    /// The LINPACK random test matrix (entries in [-0.5, 0.5]), fixed seed.
    pub fn linpack(n: usize, seed: u64) -> Matrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        let data = (0..n * n).map(|_| rng.next_f64() - 0.5).collect();
        Matrix { n, data }
    }

    pub(crate) fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i + j * self.n]
    }
}

/// LU factorization with partial pivoting (DGEFA). Returns the pivot
/// vector; the factors overwrite `a`. Every inner operation flows through
/// the `Vm` so the machine model prices the shrinking column sweeps.
pub(crate) fn dgefa(vm: &mut Vm, a: &mut Matrix, pivots: &mut Vec<usize>) -> Result<(), String> {
    let n = a.n;
    pivots.clear();
    for k in 0..n - 1 {
        // IDAMAX over the pivot column below the diagonal.
        let col_start = k + k * n;
        let (rel, maxv) = {
            let col = &a.data[col_start..k * n + n];
            vm.max_abs(col)
        };
        if maxv == 0.0 {
            return Err(format!("matrix is singular at column {k}"));
        }
        let piv = k + rel;
        pivots.push(piv);
        if piv != k {
            // Swap rows k and piv across all columns (stride-n access).
            for j in 0..n {
                a.data.swap(k + j * n, piv + j * n);
            }
            vm.charge_vector_op(&sxsim::VecOp::new(
                n,
                sxsim::VopClass::Logical,
                &[sxsim::Access::Stride(n), sxsim::Access::Stride(n)],
                &[sxsim::Access::Stride(n), sxsim::Access::Stride(n)],
            ));
        }
        // DSCAL: multipliers.
        let pivot_val = a.data[k + k * n];
        {
            let col = &mut a.data[k + 1 + k * n..k * n + n];
            vm.scale_in_place(col, 1.0 / pivot_val);
            // the reciprocal itself
        }
        // DAXPY update of each trailing column.
        for j in k + 1..n {
            let mult = a.data[k + j * n];
            let (lcol, rcol) = a.data.split_at_mut(j * n);
            let src = &lcol[k + 1 + k * n..k * n + n];
            let dst = &mut rcol[k + 1..n];
            vm.axpy(dst, -mult, src);
        }
    }
    if a.data[(n - 1) + (n - 1) * n] == 0.0 {
        return Err("matrix is singular at the last column".into());
    }
    Ok(())
}

/// Solve using the factors from [`dgefa`] (DGESL): forward elimination with
/// the pivots, then back substitution.
pub(crate) fn dgesl(vm: &mut Vm, a: &Matrix, pivots: &[usize], b: &mut [f64]) {
    let n = a.n;
    // `dgefa` swaps whole rows (L part included), so apply every row
    // interchange to b first, then run clean triangular solves on P*A = L*U.
    for (k, &p) in pivots.iter().enumerate() {
        b.swap(k, p);
    }
    // Forward: solve L y = P b.
    for k in 0..n - 1 {
        let bk = b[k];
        let col = &a.data[k + 1 + k * n..k * n + n];
        vm.axpy(&mut b[k + 1..n], -bk, col);
    }
    // Back substitution: apply U.
    for k in (0..n).rev() {
        b[k] /= a.at(k, k);
        vm.charge_vector_op(&sxsim::VecOp::new(
            1,
            sxsim::VopClass::Div,
            &[sxsim::Access::Stride(1)],
            &[sxsim::Access::Stride(1)],
        ));
        let bk = b[k];
        if k > 0 {
            let col = &a.data[k * n..k * n + k];
            let (head, _) = b.split_at_mut(k);
            vm.axpy(head, -bk, col);
        }
    }
}

/// One LINPACK measurement.
#[derive(Debug, Clone, Copy)]
pub struct LinpackResult {
    pub mflops: f64,
}

/// Run the benchmark for order `n` on `model`.
pub fn linpack(model: &MachineModel, n: usize) -> LinpackResult {
    let mut vm = Vm::new(model.clone());
    let a0 = Matrix::linpack(n, 1913);
    // b = A * ones, so the exact solution is all ones.
    let mut b = vec![0.0f64; n];
    for i in 0..n {
        let mut s = 0.0;
        for j in 0..n {
            s += a0.at(i, j);
        }
        b[i] = s;
    }

    let mut a = a0.clone();
    let mut pivots = Vec::new();
    dgefa(&mut vm, &mut a, &mut pivots).expect("LINPACK matrix is nonsingular");
    dgesl(&mut vm, &a, &pivots, &mut b);

    // The LINPACK convention: 2/3 n^3 + 2 n^2 operations.
    let ops = 2.0 / 3.0 * (n as f64).powi(3) + 2.0 * (n as f64).powi(2);
    let secs = vm.seconds();
    LinpackResult { mflops: ops / secs / 1e6 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxsim::presets;

    #[test]
    fn solves_accurately() {
        // b = A * ones, so the exact solution is all ones; the normalized
        // residual ||x - 1|| / (n eps 100) must stay below 100.
        let n = 100;
        let a0 = Matrix::linpack(n, 1913);
        let mut b: Vec<f64> = (0..n).map(|i| (0..n).map(|j| a0.at(i, j)).sum()).collect();
        let mut vm = Vm::new(presets::sx4_benchmarked());
        let mut a = a0.clone();
        let mut pivots = Vec::new();
        dgefa(&mut vm, &mut a, &mut pivots).unwrap();
        dgesl(&mut vm, &a, &pivots, &mut b);
        let err = b.iter().map(|&x| (x - 1.0).abs()).fold(0.0f64, f64::max);
        let residual = err / (n as f64 * f64::EPSILON * 100.0);
        assert!(residual < 100.0, "residual {residual} too large");
    }

    #[test]
    fn n1000_much_faster_than_n100_on_vector_machine() {
        // Longer columns amortize startup: the classic LINPACK spread.
        let m = presets::sx4_benchmarked();
        let small = linpack(&m, 100);
        let large = linpack(&m, 600);
        assert!(large.mflops > 1.5 * small.mflops, "{} vs {}", large.mflops, small.mflops);
    }

    #[test]
    fn sx4_beats_ymp() {
        let a = linpack(&presets::sx4_benchmarked(), 600);
        let b = linpack(&presets::cray_ymp(), 600);
        assert!(a.mflops > 2.0 * b.mflops, "{} vs {}", a.mflops, b.mflops);
    }

    #[test]
    fn singular_matrix_detected() {
        let model = presets::sx4_benchmarked();
        let mut vm = Vm::new(model);
        let n = 8;
        let mut a = Matrix { n, data: vec![0.0; n * n] };
        // Column 3 is all zeros.
        for j in 0..n {
            for i in 0..n {
                if j != 3 {
                    a.data[i + j * n] = (i * 7 + j * 3 + 1) as f64;
                }
            }
        }
        let mut piv = Vec::new();
        assert!(dgefa(&mut vm, &mut a, &mut piv).is_err());
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let model = presets::sx4_benchmarked();
        let mut vm = Vm::new(model);
        // [[0, 1], [1, 0]] needs a row swap.
        let mut a = Matrix { n: 2, data: vec![0.0, 1.0, 1.0, 0.0] };
        let mut piv = Vec::new();
        dgefa(&mut vm, &mut a, &mut piv).unwrap();
        let mut b = vec![2.0, 3.0]; // solution x = [3, 2]
        dgesl(&mut vm, &a, &piv, &mut b);
        assert!((b[0] - 3.0).abs() < 1e-12 && (b[1] - 2.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod debug_tests {
    use super::*;
    use sxsim::presets;

    #[test]
    fn small_known_system() {
        let model = presets::sx4_benchmarked();
        let mut vm = Vm::new(model);
        let n = 3;
        // A = [[2,1,1],[4,3,3],[8,7,9]] column-major
        let mut a = Matrix { n, data: vec![2.0, 4.0, 8.0, 1.0, 3.0, 7.0, 1.0, 3.0, 9.0] };
        let a0 = a.clone();
        let mut piv = Vec::new();
        dgefa(&mut vm, &mut a, &mut piv).unwrap();
        // b = A * [1,2,3]
        let x_true = [1.0, 2.0, 3.0];
        let mut b = vec![0.0; n];
        for i in 0..n {
            for j in 0..n {
                b[i] += a0.at(i, j) * x_true[j];
            }
        }
        dgesl(&mut vm, &a, &piv, &mut b);
        for i in 0..n {
            assert!(
                (b[i] - x_true[i]).abs() < 1e-12,
                "x[{i}] = {} pivots {piv:?} lu {:?}",
                b[i],
                a.data
            );
        }
    }
}
