//! The spherical-harmonic (spectral) transform: "the spectral transform
//! method is employed to compute the dry dynamics of CCM2 ... a series of
//! highly non-local operations" (paper §4.7.1).
//!
//! Analysis (grid → spectral) runs a real FFT along each latitude circle
//! followed by Gauss-Legendre quadrature in latitude against the
//! P̄ₙᵐ basis; synthesis is the reverse. Both legs support
//! latitude-range restriction so the multiprocessor model can price the
//! per-processor partial transforms exactly the way CCM2's latitude
//! decomposition does (partial quadrature sums + a reduction).

use crate::gauss::gauss_legendre;
use crate::legendre::{pack_index, pack_len, plm_at};
use ncar_kernels::fft::{charge_transform_fused, rfft_spectrum, C64};
use std::ops::Range;
use sxsim::{Access, VecOp, Vm, VopClass};

/// A transform fixed to one (truncation, grid) geometry.
#[derive(Debug, Clone)]
pub(crate) struct SphericalTransform {
    pub(crate) trunc: usize,
    pub(crate) nlat: usize,
    pub(crate) nlon: usize,
    /// Gaussian latitudes mu = sin(lat), ascending.
    pub(crate) mu: Vec<f64>,
    /// Gaussian weights.
    pub(crate) weights: Vec<f64>,
    /// How many independent transforms (levels x fields) the caller fuses
    /// into each vector operation — multilevel models set this to their
    /// level count, lengthening the charged vectors without changing the
    /// arithmetic (the CCM2 "vertical slab" vectorization). Default 1.
    pub(crate) fused_transforms: usize,
    /// plm[lat * nspec + pack_index(m, n)]
    plm: Vec<f64>,
    /// phase[lon * (trunc + 1) + m] = e^{i m lambda_lon}: the Fourier
    /// phase factors of the synthesis leg, fixed by the geometry.
    phase: Vec<C64>,
}

impl SphericalTransform {
    /// Build the transform for a triangular truncation on an
    /// nlat x nlon Gaussian grid. Requires an alias-free grid
    /// (2*nlat >= 3*trunc + 1 and nlon >= 3*trunc + 1).
    pub(crate) fn new(trunc: usize, nlat: usize, nlon: usize) -> SphericalTransform {
        let shape = SphericalTransform::shape(trunc, nlat, nlon);
        let (mu, weights) = gauss_legendre(nlat);
        let nspec = pack_len(trunc);
        let mut plm = vec![0.0f64; nlat * nspec];
        for (l, &m) in mu.iter().enumerate() {
            plm[l * nspec..(l + 1) * nspec].copy_from_slice(&plm_at(trunc, m));
        }
        let mut phase = vec![C64::ZERO; nlon * (trunc + 1)];
        for (j, prow) in phase.chunks_exact_mut(trunc + 1).enumerate() {
            let lambda = 2.0 * std::f64::consts::PI * j as f64 / nlon as f64;
            for (m, p) in prow.iter_mut().enumerate() {
                *p = C64::cis(m as f64 * lambda);
            }
        }
        SphericalTransform { mu, weights, plm, phase, ..shape }
    }

    /// The transform's geometry alone, with the same grid checks as
    /// [`SphericalTransform::new`] but no Gaussian, Legendre or phase
    /// tables. It charges exactly what the full transform charges, and
    /// only a pricing [`Vm`] may drive it: the partial transforms compute
    /// nothing there, so they never read the missing tables.
    pub(crate) fn shape(trunc: usize, nlat: usize, nlon: usize) -> SphericalTransform {
        assert!(2 * nlat > 3 * trunc, "latitude grid aliases T{trunc}");
        assert!(nlon > 2 * trunc, "longitude grid cannot hold T{trunc}");
        assert!(nlon.is_multiple_of(2), "even longitude count required by the real FFT");
        SphericalTransform {
            trunc,
            nlat,
            nlon,
            mu: Vec::new(),
            weights: Vec::new(),
            fused_transforms: 1,
            plm: Vec::new(),
            phase: Vec::new(),
        }
    }

    /// Packed spectral length.
    pub(crate) fn nspec(&self) -> usize {
        pack_len(self.trunc)
    }

    /// Packed index of (m, n).
    pub(crate) fn index(&self, m: usize, n: usize) -> usize {
        pack_index(self.trunc, m, n)
    }

    /// Fourier-analyze the latitude rows in `lats`: returns, per local row,
    /// the complex coefficients c_m for m = 0..=trunc with the 1/nlon
    /// normalization (no rows when pricing). Charges the vectorized
    /// multi-row FFT.
    fn fourier_rows(&self, vm: &mut Vm, grid: &[f64], lats: &Range<usize>) -> Vec<Vec<C64>> {
        let mut rows = Vec::new();
        if vm.computes() {
            rows = lats
                .clone()
                .map(|l| {
                    let row = &grid[l * self.nlon..(l + 1) * self.nlon];
                    let mut spec = rfft_spectrum(row);
                    spec.truncate(self.trunc + 1);
                    for c in &mut spec {
                        *c = *c * (1.0 / self.nlon as f64);
                    }
                    spec
                })
                .collect();
        }
        // One batched multi-transform, vectorized across the local rows and
        // the caller's fused level/field slab.
        charge_transform_fused(vm, self.nlon, lats.len().max(1), self.fused_transforms);
        rows
    }

    /// Partial analysis over a latitude range: quadrature contributions of
    /// those rows only. Summing the partials of a full partition equals
    /// [`SphericalTransform::analyze`] over 0..nlat. A pricing `vm` only
    /// charges, and the result is empty.
    pub(crate) fn analyze_partial(
        &self,
        vm: &mut Vm,
        grid: &[f64],
        lats: Range<usize>,
    ) -> Vec<C64> {
        assert_eq!(grid.len(), self.nlat * self.nlon);
        let nspec = self.nspec();
        let four = self.fourier_rows(vm, grid, &lats);
        let mut spec = Vec::new();
        if vm.computes() {
            spec = vec![C64::ZERO; nspec];
            for (li, l) in lats.clone().enumerate() {
                let w = self.weights[l];
                let prow = &self.plm[l * nspec..(l + 1) * nspec];
                for m in 0..=self.trunc {
                    let c = four[li][m] * w;
                    for n in m..=self.trunc {
                        let i = self.index(m, n);
                        spec[i] = spec[i] + c * prow[i];
                    }
                }
            }
        }
        // Charge: per local latitude, per m, one chained multiply-add sweep
        // over the (trunc - m + 1) target coefficients, real and imaginary.
        // The accumulator lives in a vector register; only P̄ and the
        // Fourier coefficient stream from memory.
        self.charge_legendre_leg(vm, lats.len());
        spec
    }

    /// Charge one Legendre leg over `local_lats` rows: per latitude, per
    /// m, a fused multiply-add sweep over the (trunc - m + 1) coefficients,
    /// real and imaginary, with `fused_transforms` slabs interleaved to
    /// lengthen the vectors (the arithmetic total is unchanged — op count
    /// shrinks by the same factor the length grows).
    fn charge_legendre_leg(&self, vm: &mut Vm, local_lats: usize) {
        let fused = self.fused_transforms.max(1);
        // Per latitude: real+imaginary sweeps over (trunc - m + 1)
        // coefficients for every m — 2 * pack_len(trunc) elements in all.
        let total_elems = (self.trunc + 1) * (self.trunc + 2);
        let sweeps = 2 * (self.trunc + 1);
        let len_avg = (total_elems / sweeps).max(1); // ~ (trunc + 2) / 2
        let vec_len = len_avg * fused;
        let ops = total_elems.div_ceil(vec_len).max(1);
        let op = VecOp::new(vec_len, VopClass::Fma, &[Access::Stride(1), Access::Stride(1)], &[]);
        vm.charge_vector_op_repeated(&op, local_lats * ops);
    }

    /// Full analysis: grid → packed spectral coefficients.
    #[cfg(test)]
    pub(crate) fn analyze(&self, vm: &mut Vm, grid: &[f64]) -> Vec<C64> {
        self.analyze_partial(vm, grid, 0..self.nlat)
    }

    /// Synthesize the latitude rows in `lats` from spectral coefficients
    /// into `grid` (only those rows are written; none when pricing).
    pub(crate) fn synthesize_partial(
        &self,
        vm: &mut Vm,
        spec: &[C64],
        grid: &mut [f64],
        lats: Range<usize>,
    ) {
        assert_eq!(spec.len(), self.nspec());
        assert_eq!(grid.len(), self.nlat * self.nlon);
        let nspec = self.nspec();
        let rows = if vm.computes() { lats.clone() } else { 0..0 };
        for l in rows {
            let prow = &self.plm[l * nspec..(l + 1) * nspec];
            // c_m(mu_l) = sum_n a_{mn} P̄_n^m(mu_l)
            let mut cm = vec![C64::ZERO; self.trunc + 1];
            for m in 0..=self.trunc {
                let mut acc = C64::ZERO;
                for n in m..=self.trunc {
                    let i = self.index(m, n);
                    acc = acc + spec[i] * prow[i];
                }
                cm[m] = acc;
            }
            // f(lambda_j) = c_0 + 2 Re sum_{m>=1} c_m e^{i m lambda_j},
            // with the phase factors looked up from the precomputed table.
            let row = &mut grid[l * self.nlon..(l + 1) * self.nlon];
            for (j, g) in row.iter_mut().enumerate() {
                let phases = &self.phase[j * (self.trunc + 1)..(j + 1) * (self.trunc + 1)];
                let mut v = cm[0].re;
                for (m, c) in cm.iter().enumerate().skip(1) {
                    let ph = phases[m];
                    v += 2.0 * (c.re * ph.re - c.im * ph.im);
                }
                *g = v;
            }
        }
        // Charge the Legendre leg (per latitude, per m: one fused sweep over
        // n, real and imaginary)...
        self.charge_legendre_leg(vm, lats.len());
        // ...and the inverse multi-row FFT.
        charge_transform_fused(vm, self.nlon, lats.len().max(1), self.fused_transforms);
    }

    /// Full synthesis into a fresh grid.
    #[cfg(test)]
    pub(crate) fn synthesize(&self, vm: &mut Vm, spec: &[C64]) -> Vec<f64> {
        let mut grid = vec![0.0f64; self.nlat * self.nlon];
        self.synthesize_partial(vm, spec, &mut grid, 0..self.nlat);
        grid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxsim::presets;

    fn vm() -> Vm {
        Vm::new(presets::sx4_benchmarked())
    }

    /// Small alias-free geometry for tests: T10 on 16 x 32.
    fn small() -> SphericalTransform {
        SphericalTransform::new(10, 16, 32)
    }

    #[test]
    fn roundtrip_from_random_spectrum() {
        let t = small();
        let mut vm = vm();
        // Build a band-limited field from a deterministic spectrum.
        let mut spec = vec![C64::ZERO; t.nspec()];
        for m in 0..=t.trunc {
            for n in m..=t.trunc {
                let i = t.index(m, n);
                let re = ((m * 7 + n * 3) % 11) as f64 / 11.0 - 0.5;
                let im = if m == 0 { 0.0 } else { ((m * 5 + n) % 13) as f64 / 13.0 - 0.5 };
                spec[i] = C64::new(re, im);
            }
        }
        let grid = t.synthesize(&mut vm, &spec);
        let back = t.analyze(&mut vm, &grid);
        for m in 0..=t.trunc {
            for n in m..=t.trunc {
                let i = t.index(m, n);
                let d = (back[i] - spec[i]).abs();
                assert!(d < 1e-10, "({m},{n}): {:?} vs {:?}", back[i], spec[i]);
            }
        }
    }

    #[test]
    fn constant_field_is_pure_00_mode() {
        let t = small();
        let mut vm = vm();
        let grid = vec![3.25f64; t.nlat * t.nlon];
        let spec = t.analyze(&mut vm, &grid);
        // a_00 * P̄_0^0 = mean => a_00 = 3.25 / sqrt(1/2) ... with our
        // conventions a_00 = mean / P̄00-projection: check via synthesis.
        for m in 0..=t.trunc {
            for n in m..=t.trunc {
                if (m, n) != (0, 0) {
                    assert!(spec[t.index(m, n)].abs() < 1e-10, "({m},{n}) leaked");
                }
            }
        }
        let back = t.synthesize(&mut vm, &spec);
        assert!(back.iter().all(|&v| (v - 3.25).abs() < 1e-10));
    }

    #[test]
    fn zonal_wavenumber_isolated() {
        // f = cos(2*lambda) should land entirely in m = 2.
        let t = small();
        let mut vm = vm();
        let mut grid = vec![0.0f64; t.nlat * t.nlon];
        for l in 0..t.nlat {
            for j in 0..t.nlon {
                let lambda = 2.0 * std::f64::consts::PI * j as f64 / t.nlon as f64;
                grid[l * t.nlon + j] = (2.0 * lambda).cos();
            }
        }
        let spec = t.analyze(&mut vm, &grid);
        for m in 0..=t.trunc {
            for n in m..=t.trunc {
                let a = spec[t.index(m, n)].abs();
                if m == 2 {
                    continue;
                }
                assert!(a < 1e-10, "({m},{n}) = {a}");
            }
        }
        let total: f64 = (2..=t.trunc).map(|n| spec[t.index(2, n)].norm_sqr()).sum();
        assert!(total > 1e-3, "m=2 energy missing");
    }

    #[test]
    fn partial_analysis_sums_to_full() {
        let t = small();
        let mut vm = vm();
        let grid: Vec<f64> =
            (0..t.nlat * t.nlon).map(|i| ((i * 37) % 101) as f64 / 101.0).collect();
        let full = t.analyze(&mut vm, &grid);
        let a = t.analyze_partial(&mut vm, &grid, 0..7);
        let b = t.analyze_partial(&mut vm, &grid, 7..16);
        for i in 0..t.nspec() {
            let s = a[i] + b[i];
            assert!((s - full[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn partial_synthesis_writes_only_its_rows() {
        let t = small();
        let mut vm = vm();
        let mut spec = vec![C64::ZERO; t.nspec()];
        spec[t.index(0, 0)] = C64::new(1.0, 0.0);
        let mut grid = vec![f64::NAN; t.nlat * t.nlon];
        t.synthesize_partial(&mut vm, &spec, &mut grid, 4..8);
        for l in 0..t.nlat {
            let row_ok = grid[l * t.nlon..(l + 1) * t.nlon].iter().all(|v| v.is_finite());
            assert_eq!(row_ok, (4..8).contains(&l), "row {l}");
        }
    }

    #[test]
    fn transform_charges_cycles() {
        let t = small();
        let mut vm = vm();
        let grid = vec![1.0f64; t.nlat * t.nlon];
        let _ = t.analyze(&mut vm, &grid);
        assert!(vm.cost().cycles > 0.0);
        assert!(vm.cost().flops > 0);
    }

    #[test]
    #[should_panic(expected = "aliases")]
    fn aliasing_grid_rejected() {
        SphericalTransform::new(42, 32, 128);
    }

    #[test]
    fn parseval_ties_spectrum_to_grid_variance() {
        // Pins synthesis's absolute normalisation, which a round trip
        // cannot see: the area-weighted grid variance must equal the total
        // spectral power. Conventions: the grid weights sum to 2, P̄ is
        // orthonormal with ∫ P̄² dmu = 1, and m > 0 counts twice
        // (conjugate pairs).
        let t = small();
        let mut vm = vm();
        let mut spec = vec![C64::ZERO; t.nspec()];
        let mut power = 0.0;
        for m in 0..=t.trunc {
            for n in m..=t.trunc {
                let re = ((m * 3 + n) % 7) as f64 / 7.0 - 0.4;
                let im = if m == 0 { 0.0 } else { ((m + n * 2) % 5) as f64 / 5.0 - 0.3 };
                let a = C64::new(re, im);
                spec[t.index(m, n)] = a;
                power += if m == 0 { 1.0 } else { 2.0 } * a.norm_sqr();
            }
        }
        let grid = t.synthesize(&mut vm, &spec);
        let variance: f64 = (0..t.nlat)
            .map(|l| {
                let row = &grid[l * t.nlon..(l + 1) * t.nlon];
                t.weights[l] * row.iter().map(|v| v * v).sum::<f64>() / t.nlon as f64
            })
            .sum();
        assert!(
            (variance - power).abs() < 1e-9 * power.max(1.0),
            "Parseval violated: variance {variance} vs power {power}"
        );
    }
}

#[cfg(test)]
mod derivative_tests {
    use super::*;
    use ncar_kernels::fft::C64;
    use sxsim::{presets, Vm};

    /// The zonal-derivative operator the model uses (multiply by i*m in
    /// spectral space) must agree with a centred finite difference of the
    /// synthesized field.
    #[test]
    fn spectral_ddlambda_matches_finite_difference() {
        let t = SphericalTransform::new(10, 16, 32);
        let mut vm = Vm::new(presets::sx4_benchmarked());
        // A smooth band-limited field.
        let mut spec = vec![C64::ZERO; t.nspec()];
        spec[t.index(1, 2)] = C64::new(0.7, -0.3);
        spec[t.index(3, 5)] = C64::new(-0.2, 0.5);
        spec[t.index(0, 4)] = C64::new(1.1, 0.0);
        let grid = t.synthesize(&mut vm, &spec);

        // d/dlambda in spectral space: a_{mn} -> i m a_{mn}.
        let mut dspec = vec![C64::ZERO; t.nspec()];
        for m in 0..=t.trunc {
            for n in m..=t.trunc {
                let i = t.index(m, n);
                let a = spec[i];
                dspec[i] = C64::new(-(m as f64) * a.im, m as f64 * a.re);
            }
        }
        let dgrid = t.synthesize(&mut vm, &dspec);

        // High-order centred difference on the periodic rows.
        let nlon = t.nlon;
        let dl = 2.0 * std::f64::consts::PI / nlon as f64;
        for l in 0..t.nlat {
            for j in 0..nlon {
                let g = |k: i64| grid[l * nlon + ((j as i64 + k).rem_euclid(nlon as i64)) as usize];
                let fd = (8.0 * (g(1) - g(-1)) - (g(2) - g(-2))) / (12.0 * dl);
                let an = dgrid[l * nlon + j];
                assert!(
                    (fd - an).abs() < 2e-2 * (1.0 + an.abs()),
                    "lat {l} lon {j}: fd {fd} vs spectral {an}"
                );
            }
        }
    }
}
