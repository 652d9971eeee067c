//! Gauss-Legendre quadrature: the "Gaussian polar grid" of spectral
//! models (paper §4.7.1). The latitude points are the roots of the
//! Legendre polynomial P_nlat(mu), mu = sin(latitude), and the weights make
//! polynomial quadrature of degree 2*nlat - 1 exact — which is what makes
//! the spherical-harmonic analysis integrals exact for band-limited fields.

/// Legendre polynomial P_n(x) and its derivative, by the three-term
/// recurrence.
pub(crate) fn legendre_pn(n: usize, x: f64) -> (f64, f64) {
    let mut p0 = 1.0f64;
    if n == 0 {
        return (1.0, 0.0);
    }
    let mut p1 = x;
    for k in 2..=n {
        let kf = k as f64;
        let p2 = ((2.0 * kf - 1.0) * x * p1 - (kf - 1.0) * p0) / kf;
        p0 = p1;
        p1 = p2;
    }
    // P'_n(x) = n (x P_n - P_{n-1}) / (x^2 - 1)
    let dp = n as f64 * (x * p1 - p0) / (x * x - 1.0);
    (p1, dp)
}

/// Gauss-Legendre nodes (ascending) and weights on [-1, 1].
pub fn gauss_legendre(n: usize) -> (Vec<f64>, Vec<f64>) {
    assert!(n >= 1);
    let mut nodes = vec![0.0f64; n];
    let mut weights = vec![0.0f64; n];
    let m = n.div_ceil(2);
    for i in 0..m {
        // Chebyshev-like initial guess for the i-th positive root.
        let mut x = (std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
        // Newton iteration.
        for _ in 0..100 {
            let (p, dp) = legendre_pn(n, x);
            let dx = p / dp;
            x -= dx;
            if dx.abs() < 1e-15 {
                break;
            }
        }
        let (_, dp) = legendre_pn(n, x);
        let w = 2.0 / ((1.0 - x * x) * dp * dp);
        // x is near +1 for i = 0; store ascending.
        nodes[n - 1 - i] = x;
        nodes[i] = -x;
        weights[n - 1 - i] = w;
        weights[i] = w;
    }
    if n % 2 == 1 {
        // The middle node is exactly zero.
        nodes[n / 2] = 0.0;
        let (_, dp) = legendre_pn(n, 0.0);
        weights[n / 2] = 2.0 / (dp * dp);
    }
    (nodes, weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_two() {
        for n in [2usize, 5, 16, 64, 96, 256] {
            let (_, w) = gauss_legendre(n);
            let s: f64 = w.iter().sum();
            assert!((s - 2.0).abs() < 1e-12, "n={n}: sum {s}");
        }
    }

    #[test]
    fn nodes_symmetric_and_sorted() {
        for n in [4usize, 17, 64] {
            let (x, w) = gauss_legendre(n);
            for i in 0..n {
                assert!((x[i] + x[n - 1 - i]).abs() < 1e-13);
                assert!((w[i] - w[n - 1 - i]).abs() < 1e-13);
            }
            assert!(x.windows(2).all(|p| p[0] < p[1]));
            assert!(x.iter().all(|&v| v.abs() < 1.0));
        }
    }

    #[test]
    fn integrates_polynomials_exactly() {
        // n-point rule is exact through degree 2n-1.
        let n = 6;
        let (x, w) = gauss_legendre(n);
        // integral of x^k over [-1,1]: 0 for odd k, 2/(k+1) for even k.
        for k in 0..=(2 * n - 1) {
            let quad: f64 = x.iter().zip(&w).map(|(&xi, &wi)| wi * xi.powi(k as i32)).sum();
            let exact = if k % 2 == 1 { 0.0 } else { 2.0 / (k as f64 + 1.0) };
            assert!((quad - exact).abs() < 1e-12, "k={k}: {quad} vs {exact}");
        }
    }

    #[test]
    fn integrates_smooth_function_well() {
        let n = 20;
        let (x, w) = gauss_legendre(n);
        let quad: f64 = x.iter().zip(&w).map(|(&xi, &wi)| wi * xi.exp()).sum();
        let exact = std::f64::consts::E - 1.0 / std::f64::consts::E;
        assert!((quad - exact).abs() < 1e-13);
    }

    #[test]
    fn two_point_rule_is_analytic() {
        let (x, w) = gauss_legendre(2);
        let r = 1.0 / 3.0f64.sqrt();
        assert!((x[0] + r).abs() < 1e-14 && (x[1] - r).abs() < 1e-14);
        assert!((w[0] - 1.0).abs() < 1e-14 && (w[1] - 1.0).abs() < 1e-14);
    }

    #[test]
    fn legendre_known_values() {
        let (p2, dp2) = legendre_pn(2, 0.5);
        assert!((p2 - (1.5 * 0.25 - 0.5)).abs() < 1e-15); // P2 = (3x^2-1)/2
        assert!((dp2 - 1.5).abs() < 1e-12); // P2' = 3x
    }
}
