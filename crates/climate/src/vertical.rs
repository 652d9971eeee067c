//! Vertical normal modes of an L18 model.
//!
//! "The vertical and temporal aspects of the model are represented by
//! finite-difference approximations" (paper §4.7.1). Linearizing the
//! primitive equations about a resting stratified state decouples the
//! levels into vertical normal modes, each obeying shallow-water dynamics
//! with its own *equivalent depth*: one deep external mode plus
//! successively shallower internal modes. This module computes those
//! depths for the proxy from the discrete vertical-structure operator —
//! a symmetric tridiagonal eigenproblem solved with the classic QL
//! algorithm with implicit shifts.

/// Eigenvalues of a symmetric tridiagonal matrix (diagonal `d`,
/// off-diagonal `e`, `e.len() == d.len() - 1`), ascending.
///
/// QL with implicit (Wilkinson) shifts — the standard EISPACK `tql1`.
pub(crate) fn sym_tridiag_eigenvalues(d: &[f64], e: &[f64]) -> Vec<f64> {
    let n = d.len();
    assert!(n >= 1);
    assert_eq!(e.len(), n.saturating_sub(1));
    let mut d = d.to_vec();
    // Work array with a trailing zero, as the classic algorithm wants.
    let mut e: Vec<f64> = e.iter().copied().chain(std::iter::once(0.0)).collect();

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a small off-diagonal element to split at.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            assert!(iter < 50, "QL failed to converge");
            // Wilkinson shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let (mut s, mut c) = (1.0f64, 1.0f64);
            let mut p = 0.0f64;
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                f = 0.0;
                let _ = f;
            }
            if r == 0.0 && m > l + 1 {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    d.sort_by(f64::total_cmp);
    d
}

/// Gravity x mean depth of the external mode (m²/s²): g * 8 km.
pub(crate) const EXTERNAL_PHIBAR: f64 = 9.81 * 8000.0;

/// Equivalent depths (as geopotential Φ̄ = g·h_k, m²/s²) for an `nlev`
/// model, descending from the external mode.
///
/// The vertical-structure operator is the discrete
/// `-d/dσ (S(σ) d/dσ)` with Neumann (rigid lid / flat ground) boundaries
/// and a static-stability profile `S` that strengthens aloft, as real
/// atmospheres do. Its null mode is the external mode; the positive
/// eigenvalues map to internal-mode depths `Φ̄_k = C / λ_k`.
pub(crate) fn equivalent_depths(nlev: usize) -> Vec<f64> {
    assert!(nlev >= 1);
    if nlev == 1 {
        return vec![EXTERNAL_PHIBAR];
    }
    // Stability at interfaces: larger near the model top (stratosphere).
    let stab = |k: usize| {
        let sigma = (k as f64 + 1.0) / nlev as f64; // interface below level k
        1.0 + 3.0 * (1.0 - sigma).powi(2)
    };
    let mut diag = vec![0.0f64; nlev];
    let mut off = vec![0.0f64; nlev - 1];
    for k in 0..nlev {
        let up = if k > 0 { stab(k - 1) } else { 0.0 }; // Neumann at top
        let dn = if k + 1 < nlev { stab(k) } else { 0.0 }; // Neumann at bottom
        diag[k] = (up + dn) * (nlev * nlev) as f64;
        if k + 1 < nlev {
            off[k] = -stab(k) * (nlev * nlev) as f64;
        }
    }
    let eig = sym_tridiag_eigenvalues(&diag, &off);
    // eig[0] ~ 0 is the external mode; internal depths follow 1/lambda,
    // normalized so the first internal mode sits near 1/9 of the external
    // (the canonical ~25:1 external:first-internal phase-speed ratio
    // squared would be harsher; the proxy uses a gentler ladder so every
    // mode remains resolvable at the Table 4 time steps).
    let c = EXTERNAL_PHIBAR / 4.0 * eig[1];
    let mut depths = Vec::with_capacity(nlev);
    depths.push(EXTERNAL_PHIBAR);
    for &l in &eig[1..] {
        depths.push(c / l);
    }
    depths
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Discrete Dirichlet Laplacian has eigenvalues 2 - 2 cos(k pi / (n+1)).
    #[test]
    fn ql_matches_known_laplacian_spectrum() {
        let n = 12;
        let d = vec![2.0; n];
        let e = vec![-1.0; n - 1];
        let eig = sym_tridiag_eigenvalues(&d, &e);
        for (i, &l) in eig.iter().enumerate() {
            let exact =
                2.0 - 2.0 * ((i + 1) as f64 * std::f64::consts::PI / (n as f64 + 1.0)).cos();
            assert!((l - exact).abs() < 1e-10, "eig[{i}] = {l} vs {exact}");
        }
    }

    #[test]
    fn ql_handles_diagonal_matrix() {
        let d = vec![3.0, -1.0, 7.0, 0.5];
        let e = vec![0.0; 3];
        let eig = sym_tridiag_eigenvalues(&d, &e);
        assert_eq!(eig, vec![-1.0, 0.5, 3.0, 7.0]);
    }

    #[test]
    fn ql_2x2_analytic() {
        // [[1, 2], [2, 1]] has eigenvalues -1 and 3.
        let eig = sym_tridiag_eigenvalues(&[1.0, 1.0], &[2.0]);
        assert!((eig[0] + 1.0).abs() < 1e-12);
        assert!((eig[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn ql_trace_preserved() {
        let d = vec![1.0, 4.0, -2.0, 0.3, 5.5, 2.2];
        let e = vec![0.7, -1.1, 0.2, 2.0, -0.5];
        let eig = sym_tridiag_eigenvalues(&d, &e);
        let trace: f64 = d.iter().sum();
        let sum: f64 = eig.iter().sum();
        assert!((trace - sum).abs() < 1e-9);
    }

    #[test]
    fn depths_are_positive_descending_and_complete() {
        let depths = equivalent_depths(18);
        assert_eq!(depths.len(), 18);
        assert!(depths.iter().all(|&d| d > 0.0));
        for w in depths.windows(2) {
            assert!(w[0] > w[1], "depths must descend: {w:?}");
        }
    }

    #[test]
    fn external_mode_is_8km() {
        let depths = equivalent_depths(18);
        assert!((depths[0] - EXTERNAL_PHIBAR).abs() < 1e-9);
        // First internal mode is several times shallower.
        assert!(depths[1] < depths[0] / 2.0);
        // The shallowest mode is still dynamically meaningful.
        assert!(depths[17] > 1.0);
    }

    #[test]
    fn neumann_operator_has_a_null_mode() {
        // Rebuild the operator and check its smallest eigenvalue ~ 0.
        let nlev = 10;
        let stab = |k: usize| {
            let sigma = (k as f64 + 1.0) / nlev as f64;
            1.0 + 3.0 * (1.0 - sigma).powi(2)
        };
        let mut diag = vec![0.0f64; nlev];
        let mut off = vec![0.0f64; nlev - 1];
        for k in 0..nlev {
            let up = if k > 0 { stab(k - 1) } else { 0.0 };
            let dn = if k + 1 < nlev { stab(k) } else { 0.0 };
            diag[k] = (up + dn) * (nlev * nlev) as f64;
            if k + 1 < nlev {
                off[k] = -stab(k) * (nlev * nlev) as f64;
            }
        }
        let eig = sym_tridiag_eigenvalues(&diag, &off);
        assert!(eig[0].abs() < 1e-6 * eig[eig.len() - 1], "null mode: {}", eig[0]);
        assert!(eig[1] > 0.0);
    }
}
