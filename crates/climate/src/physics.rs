//! Column physics: the "physics computations involve only the vertical
//! column above each grid point and are thus numerically independent of
//! each other in the horizontal direction" (paper §4.7.1).
//!
//! The dominant member is the RADABS radiation kernel (§4.4), reused
//! directly from `ncar-kernels`; around it sit a moist-adjustment sweep
//! (PWR/LOG-heavy, like CCM2's convective parameterizations) and a
//! Newtonian relaxation that feeds heating back into the dynamics so the
//! model state actually responds to its physics.

use ncar_kernels::radabs::radabs;
use sxsim::Vm;

/// Physics tendencies for one latitude band.
#[derive(Debug, Clone)]
pub(crate) struct PhysicsResult {
    /// Heating applied to the thickness/geopotential field, per column
    /// (flattened `ncol`), bounded and smooth.
    pub(crate) heating: Vec<f64>,
    /// Moisture source/sink per column.
    pub(crate) moistening: Vec<f64>,
}

/// Run the column-physics package over `ncol` columns with `nlev` levels.
///
/// `phi` is the column-mean geopotential perturbation (one value per
/// column) and `q` the column moisture; both feed back through relaxation
/// terms so physics is a real part of the model's evolution, not a
/// decoration. A pricing `vm` charges the same and leaves the tendencies
/// zero.
pub(crate) fn column_physics(vm: &mut Vm, phi: &[f64], q: &[f64], nlev: usize) -> PhysicsResult {
    let ncol = phi.len();
    assert_eq!(q.len(), ncol);
    let computes = vm.computes();

    // Radiation: CCM2 computes both longwave absorptivities and the
    // shortwave (solar) transmission — two full pairwise passes.
    let lw = radabs(vm, ncol, nlev);
    let sw = radabs(vm, ncol, nlev);
    // Column radiative forcing: longwave absorption seen by the surface
    // level, offset by the column-mean shortwave transmission.
    let col_abs: f64 =
        (0..nlev).map(|k| lw.absorptivity[(nlev - 1) * nlev + k]).sum::<f64>() / nlev as f64;
    let col_sw: f64 = (0..nlev).map(|k| sw.absorptivity[k]).sum::<f64>() / nlev as f64;
    let col_abs = 0.7 * col_abs + 0.3 * col_sw;

    // Moist adjustment: saturation humidity via a Clausius-Clapeyron EXP
    // (warm columns hold more water), precipitation of the supersaturation
    // via PWR — the intrinsic-heavy part of CCM2 physics.
    let mut qsat = vec![0.0f64; ncol];
    let mut arg = vec![0.0f64; ncol];
    // arg = 1e-4 * phi: the column geopotential as a temperature proxy.
    vm.scale(&mut arg, 1.0e-4, phi);
    if computes {
        for a in &mut arg {
            *a = a.clamp(-3.0, 3.0);
        }
    }
    vm.exp(&mut qsat, &arg);
    vm.scale_in_place(&mut qsat, 0.012);
    let mut precip = vec![0.0f64; ncol];
    let mut excess = vec![0.0f64; ncol];
    vm.sub(&mut excess, q, &qsat);
    if computes {
        for e in &mut excess {
            *e = e.max(0.0) + 1e-12;
        }
    }
    let expo = vec![0.7f64; ncol];
    vm.pow(&mut precip, &excess, &expo);

    // Newtonian relaxation toward radiative equilibrium.
    let relax = 0.05;
    let mut heating = vec![0.0f64; ncol];
    vm.scale(&mut heating, -relax, phi);
    if computes {
        for h in heating.iter_mut() {
            *h += relax * 0.1 * col_abs;
        }
    }
    let mut moistening = vec![0.0f64; ncol];
    vm.scale(&mut moistening, -0.01, &precip);

    PhysicsResult { heating, moistening }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxsim::presets;

    fn vm() -> Vm {
        Vm::new(presets::sx4_benchmarked())
    }

    #[test]
    fn heating_opposes_perturbation() {
        let mut vm = vm();
        let phi = vec![1.0, -1.0, 0.0, 2.0];
        let q = vec![0.01; 4];
        let r = column_physics(&mut vm, &phi, &q, 18);
        assert!(r.heating[0] < r.heating[1], "warm column must cool relative to cold");
        assert!(r.heating[3] < r.heating[0]);
    }

    #[test]
    fn moistening_is_a_sink_where_wet() {
        let mut vm = vm();
        let phi = vec![0.0; 4];
        // Specific-humidity-scale values around the ~0.012 saturation point.
        let q = vec![0.020, 0.035, 0.013, 0.001];
        let r = column_physics(&mut vm, &phi, &q, 18);
        // Precipitation removes moisture everywhere it exists.
        assert!(r.moistening.iter().all(|&m| m <= 0.0));
        assert!(r.moistening[1] < r.moistening[2], "wetter column rains more");
        assert!(r.moistening[0] < r.moistening[3]);
    }

    #[test]
    fn outputs_finite_and_bounded() {
        let mut vm = vm();
        let phi: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin() * 100.0).collect();
        let q: Vec<f64> = (0..64).map(|i| 0.02 * (i as f64 * 0.17).cos().abs()).collect();
        let r = column_physics(&mut vm, &phi, &q, 18);
        assert!(r.heating.iter().all(|h| h.is_finite() && h.abs() < 100.0));
        assert!(r.moistening.iter().all(|m| m.is_finite()));
    }

    #[test]
    fn physics_is_intrinsic_heavy() {
        let mut vm = vm();
        let phi = vec![0.1; 256];
        let q = vec![0.01; 256];
        column_physics(&mut vm, &phi, &q, 18);
        let cost = vm.cost();
        assert!(
            cost.cray_flops > 1.5 * cost.flops as f64,
            "physics should be dominated by intrinsics"
        );
    }

    #[test]
    fn cost_scales_with_columns() {
        // Compare stream-dominated batch sizes (small batches are pipe-fill
        // dominated on a vector machine, which is its own correct physics).
        let mut vm1 = vm();
        let mut vm2 = vm();
        column_physics(&mut vm1, &vec![0.0; 512], &vec![0.01; 512], 18);
        column_physics(&mut vm2, &vec![0.0; 4096], &vec![0.01; 4096], 18);
        assert!(vm2.cost().cycles > 4.0 * vm1.cost().cycles);
    }
}
