//! Equation of state for seawater: density as a function of potential
//! temperature, salinity and depth. Both ocean models evaluate it every
//! step at every point; like the real UNESCO polynomial it is
//! multiply/add-heavy with a few intrinsics, so it is priced through the
//! vector facade.

use sxsim::Vm;

/// Reference density (kg/m^3).
pub const RHO0: f64 = 1027.0;

/// Density anomaly (kg/m^3 minus RHO0) of one point: a simplified
/// UNESCO-style fit — linear terms, thermal-expansion curvature, a
/// pressure (depth) correction with a square root in the compressibility.
pub fn density_point(temp: f64, salt: f64, depth_m: f64) -> f64 {
    let t = temp;
    let s = salt - 35.0;
    let p = depth_m * 0.1; // ~bar
    let alpha = 0.068 + 0.011 * t - 4.0e-5 * t * t; // thermal expansion grows with T
    let beta = 0.78;
    let compress = 0.046 * p / (1.0 + 0.004 * (1.0 + p).sqrt());
    -alpha * (t - 10.0) + beta * s + compress
}

/// Vectorized density over a batch of points; real values, machine-priced
/// (a pricing `vm` leaves `out` untouched).
pub fn density(vm: &mut Vm, out: &mut [f64], temp: &[f64], salt: &[f64], depth_m: f64) {
    assert_eq!(out.len(), temp.len());
    assert_eq!(out.len(), salt.len());
    if vm.computes() {
        for ((o, &t), &s) in out.iter_mut().zip(temp).zip(salt) {
            *o = density_point(t, s, depth_m);
        }
    }
    use sxsim::{Access, VecOp, VopClass};
    // ~8 fused ops + one sqrt-class op per point.
    vm.charge_vector_op_repeated(
        &VecOp::new(
            out.len(),
            VopClass::Fma,
            &[Access::Stride(1), Access::Stride(1)],
            &[Access::Stride(1)],
        ),
        8,
    );
    vm.charge_intrinsic(sxsim::Intrinsic::Sqrt, out.len());
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxsim::presets;

    #[test]
    fn colder_water_is_denser() {
        for depth in [0.0, 1000.0, 4000.0] {
            let warm = density_point(20.0, 35.0, depth);
            let cold = density_point(2.0, 35.0, depth);
            assert!(cold > warm, "depth {depth}");
        }
    }

    #[test]
    fn saltier_water_is_denser() {
        let fresh = density_point(10.0, 33.0, 500.0);
        let salty = density_point(10.0, 37.0, 500.0);
        assert!(salty > fresh);
    }

    #[test]
    fn deeper_water_is_denser() {
        let shallow = density_point(4.0, 35.0, 0.0);
        let deep = density_point(4.0, 35.0, 4000.0);
        assert!(deep > shallow);
    }

    #[test]
    fn anomalies_are_physically_small() {
        for t in [-2.0, 5.0, 15.0, 28.0] {
            for s in [32.0, 35.0, 37.5] {
                for d in [0.0, 500.0, 5000.0] {
                    let r = density_point(t, s, d);
                    assert!(r.abs() < 50.0, "rho'({t},{s},{d}) = {r}");
                }
            }
        }
    }

    #[test]
    fn vector_form_matches_pointwise() {
        let mut vm = Vm::new(presets::sx4_benchmarked());
        let t = vec![1.0, 10.0, 25.0];
        let s = vec![34.0, 35.0, 36.0];
        let mut out = vec![0.0; 3];
        density(&mut vm, &mut out, &t, &s, 750.0);
        for i in 0..3 {
            assert_eq!(out[i], density_point(t[i], s[i], 750.0));
        }
        assert!(vm.cost().cycles > 0.0);
    }
}
