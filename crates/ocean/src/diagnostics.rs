//! Model diagnostics — the quantities the MOM benchmark "prints out every
//! 10 timesteps" (paper §4.7.2): global tracer means, kinetic energy, and
//! the meridional overturning streamfunction. Real reductions over the
//! model state, with conservation-law tests.

use crate::mom::Mom;

/// One diagnostics snapshot.
#[derive(Debug, Clone)]
pub struct Diagnostics {
    /// Volume-mean temperature (deg C).
    pub mean_temp: f64,
    /// Volume-mean salinity (psu).
    pub mean_salt: f64,
    /// Total kinetic energy per unit mass (m^2/s^2, grid sum).
    pub kinetic_energy: f64,
    /// Meridional overturning streamfunction psi(lat, lev): the cumulative
    /// vertical integral of the zonally-summed meridional velocity.
    pub overturning: Vec<Vec<f64>>,
    /// Peak |overturning| — the scalar modelers watch.
    pub max_overturning: f64,
}

/// Compute the snapshot from the current state.
pub fn compute(m: &Mom) -> Diagnostics {
    let (nlat, nlon, nlev) = (m.config.nlat, m.config.nlon, m.config.nlev);
    let npts = (nlat * nlon * nlev) as f64;

    let mean_temp = m.temp.iter().flat_map(|l| l.iter()).sum::<f64>() / npts;
    let mean_salt = m.salt.iter().flat_map(|l| l.iter()).sum::<f64>() / npts;

    let mut ke = 0.0;
    for k in 0..nlev {
        for i in 0..nlat * nlon {
            ke += 0.5 * (m.u[k][i] * m.u[k][i] + m.v[k][i] * m.v[k][i]);
        }
    }

    // Overturning: zonal sum of v per (lat, lev), cumulated downward.
    let mut overturning = vec![vec![0.0f64; nlev]; nlat];
    let mut max_abs = 0.0f64;
    for (i, row) in overturning.iter_mut().enumerate() {
        let mut cum = 0.0;
        for (k, cell) in row.iter_mut().enumerate() {
            let vbar: f64 = (0..nlon).map(|j| m.v[k][i * nlon + j]).sum();
            cum += vbar;
            *cell = cum;
            max_abs = max_abs.max(cum.abs());
        }
    }

    Diagnostics { mean_temp, mean_salt, kinetic_energy: ke, overturning, max_overturning: max_abs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mom::MomConfig;
    use sxsim::presets;

    fn model() -> Mom {
        Mom::new(
            MomConfig { nlat: 16, nlon: 32, nlev: 5, dt: 3600.0, diag_every: 10, jacobi_sweeps: 5 },
            presets::sx4_benchmarked(),
        )
    }

    #[test]
    fn initial_state_is_motionless() {
        let d = compute(&model());
        assert_eq!(d.kinetic_energy, 0.0);
        assert_eq!(d.max_overturning, 0.0);
        assert!(d.mean_temp > 2.0 && d.mean_temp < 25.0);
        assert!((d.mean_salt - 34.7).abs() < 0.5);
    }

    #[test]
    fn spinup_builds_energy_and_overturning() {
        let mut m = model();
        for _ in 0..20 {
            m.step(2);
        }
        let d = compute(&m);
        assert!(d.kinetic_energy > 0.0);
        assert!(d.max_overturning > 0.0);
        assert!(d.kinetic_energy.is_finite());
    }

    #[test]
    fn mean_temperature_drifts_slowly() {
        // Advection conserves the inventory; mixing/adjustment move heat
        // around but only the (weak) surface terms change the mean.
        let mut m = model();
        let before = compute(&m).mean_temp;
        for _ in 0..20 {
            m.step(4);
        }
        let after = compute(&m).mean_temp;
        assert!((after - before).abs() < 0.2, "{before} -> {after}");
    }
}
