//! FFTPACK-style fast Fourier transforms for the RFFT/VFFT coding-style
//! benchmarks (§4.3).
//!
//! The paper's pair of kernels come from P. N. Swarztrauber's FFTPACK: the
//! same mixed-radix real-to-complex transform written in two loop orders —
//! RFFT with the FFT axis fastest (cache style) and VFFT with the instance
//! axis fastest (vector style). "The only significant difference between
//! the two benchmarks is the order of the loops."
//!
//! This module implements a genuine mixed-radix (factors 2, 3, 5)
//! Cooley-Tukey transform that really computes spectra (tested against a
//! naive DFT, round-trips, Parseval), and charges the simulator according
//! to the loop order under test: RFFT prices each instance's butterfly
//! loops at their natural (short) vector lengths, VFFT prices every
//! butterfly at vector length M across instances.

use crate::once::CheckOnce;
use sxsim::{Access, Cost, MachineModel, VecOp, Vm, VopClass};

/// A complex number; local so the workspace needs no numerics dependency.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct C64 {
    pub re: f64,
    pub im: f64,
}

impl C64 {
    pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };

    pub fn new(re: f64, im: f64) -> C64 {
        C64 { re, im }
    }

    /// e^{i theta}.
    pub fn cis(theta: f64) -> C64 {
        C64 { re: theta.cos(), im: theta.sin() }
    }

    pub(crate) fn conj(self) -> C64 {
        C64 { re: self.re, im: -self.im }
    }

    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }
}

impl std::ops::Add for C64 {
    type Output = C64;
    fn add(self, o: C64) -> C64 {
        C64 { re: self.re + o.re, im: self.im + o.im }
    }
}

impl std::ops::Sub for C64 {
    type Output = C64;
    fn sub(self, o: C64) -> C64 {
        C64 { re: self.re - o.re, im: self.im - o.im }
    }
}

impl std::ops::Mul for C64 {
    type Output = C64;
    fn mul(self, o: C64) -> C64 {
        C64 { re: self.re * o.re - self.im * o.im, im: self.re * o.im + self.im * o.re }
    }
}

impl std::ops::Mul<f64> for C64 {
    type Output = C64;
    fn mul(self, s: f64) -> C64 {
        C64 { re: self.re * s, im: self.im * s }
    }
}

/// Factor `n` into the radices FFTPACK supports, largest-length-first
/// order of application. Returns `None` if `n` has a prime factor other
/// than 2, 3 or 5.
pub fn factorize(mut n: usize) -> Option<Vec<usize>> {
    if n == 0 {
        return None;
    }
    let mut f = Vec::new();
    for &r in &[5usize, 3, 2] {
        while n.is_multiple_of(r) {
            f.push(r);
            n /= r;
        }
    }
    if n == 1 {
        Some(f)
    } else {
        None
    }
}

/// Transform direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    Forward,
    Inverse,
}

impl Direction {
    fn sign(self) -> f64 {
        match self {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        }
    }
}

/// In-place complex FFT of length `n` (must factor into 2/3/5).
///
/// Recursive decimation-in-time over the smallest remaining factor; the
/// inverse is unnormalized (scale by 1/n to invert a forward transform).
pub fn fft(x: &mut [C64], dir: Direction) {
    let n = x.len();
    if n <= 1 {
        return;
    }
    let factors =
        factorize(n).unwrap_or_else(|| panic!("FFT length {n} has a factor other than 2, 3, 5"));
    let twiddles = twiddle_tables(n, dir.sign(), &factors);
    let mut scratch = vec![C64::ZERO; n];
    fft_rec(x, &mut scratch, n, 1, &factors, &twiddles);
}

/// The twiddle factors of every recursion level, top level first: the
/// level that combines length-`len` sub-transforms reads
/// `cis(sign * 2 pi * k / len)` for `k < len`. Built once per transform,
/// so a butterfly input costs a table load instead of a `sin` and a `cos`.
fn twiddle_tables(n: usize, sign: f64, factors: &[usize]) -> Vec<Vec<C64>> {
    let mut len = n;
    factors
        .iter()
        .rev()
        .map(|&r| {
            let table = (0..len)
                .map(|k| C64::cis(sign * 2.0 * std::f64::consts::PI * k as f64 / len as f64))
                .collect();
            len /= r;
            table
        })
        .collect()
}

/// Recursive worker: transforms `x[0], x[stride], ..., x[(n-1)*stride]`
/// with `twiddles[0]` as this level's table.
fn fft_rec(
    x: &mut [C64],
    scratch: &mut [C64],
    n: usize,
    stride: usize,
    factors: &[usize],
    twiddles: &[Vec<C64>],
) {
    if n == 1 {
        return;
    }
    let r = *factors.last().expect("factors exhausted before n reached 1");
    debug_assert_eq!(n % r, 0);
    let l = n / r;
    let sub_factors = &factors[..factors.len() - 1];

    // Decimate: r interleaved subsequences, each transformed recursively.
    for j in 0..r {
        fft_rec(&mut x[j * stride..], scratch, l, r * stride, sub_factors, &twiddles[1..]);
    }

    // Combine with twiddles into scratch, then copy back.
    let w = &twiddles[0];
    for k in 0..l {
        for jo in 0..r {
            let out_idx = k + jo * l;
            let mut acc = C64::ZERO;
            for j in 0..r {
                // sub-transform j, bin k lives at x[(j + k*r) * stride]
                let v = x[(j + k * r) * stride];
                acc = acc + v * w[(out_idx * j) % n];
            }
            scratch[out_idx] = acc;
        }
    }
    for i in 0..n {
        x[i * stride] = scratch[i];
    }
}

/// Forward real-to-complex transform: returns the `n/2 + 1` non-redundant
/// bins of the spectrum of a real sequence.
pub fn rfft_spectrum(input: &[f64]) -> Vec<C64> {
    let n = input.len();
    let mut x: Vec<C64> = input.iter().map(|&v| C64::new(v, 0.0)).collect();
    fft(&mut x, Direction::Forward);
    x.truncate(n / 2 + 1);
    x
}

/// Inverse of [`rfft_spectrum`]: reconstruct the real sequence of length `n`.
pub fn irfft(spectrum: &[C64], n: usize) -> Vec<f64> {
    assert_eq!(spectrum.len(), n / 2 + 1);
    let mut x = vec![C64::ZERO; n];
    x[..spectrum.len()].copy_from_slice(spectrum);
    // Hermitian symmetry fills the upper half.
    for k in spectrum.len()..n {
        x[k] = x[n - k].conj();
    }
    fft(&mut x, Direction::Inverse);
    x.into_iter().map(|c| c.re / n as f64).collect()
}

// ---------------------------------------------------------------------------
// Timing: the two loop orders of §4.3.
// ---------------------------------------------------------------------------

/// Loop order of the benchmark variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopOrder {
    /// RFFT: array a(N, M), FFT axis fastest. Butterfly loops vectorize at
    /// their natural lengths (l = n / r per stage), separately per instance.
    AxisFastest,
    /// VFFT: array a(M, N), instance axis fastest. Every butterfly is a
    /// unit-stride vector operation of length M.
    InstanceFastest,
}

/// Real floating point operations in one radix-`r` combine stage of a
/// length-`n` transform: `l*(r-1)` complex twiddle multiplies (6 flops)
/// plus `l*r*(r-1)` complex additions (2 flops). For r = 2 this is the
/// textbook 5n per stage.
fn stage_flops(n: usize, r: usize) -> usize {
    let l = n / r;
    6 * l * (r - 1) + 2 * l * r * (r - 1)
}

/// Charge `vm` for `m` instances of a length-`n` transform executed in the
/// given loop order, and return the flops charged.
///
/// The arithmetic is identical between the orders — only the vector lengths
/// and access strides differ, which is precisely the paper's point.
pub fn charge_transform(vm: &mut Vm, n: usize, m: usize, order: LoopOrder) -> u64 {
    let factors = factorize(n).expect("length must factor into 2/3/5");
    let mut rem = n;
    let mut total_flops = 0u64;
    for &r in factors.iter().rev() {
        // This recursion level has n/rem groups, each a radix-r combine over
        // sub-length l = rem/r... walking top-down: level sizes are
        // n, n/r1, n/(r1 r2), ...
        let groups = n / rem;
        let l = rem / r;
        let flops_level = groups * stage_flops(rem, r);
        total_flops += (flops_level * m) as u64;
        match order {
            LoopOrder::AxisFastest => {
                // Per instance: the inner loop runs over the l sub-bins of a
                // group; each group issues ~r*(r-1) fused ops per complex
                // component. Strides follow the decimation (r apart).
                let ops_per_group = (stage_flops(rem, r) / 2).div_ceil(l).max(1);
                let op = VecOp::new(
                    l,
                    VopClass::Fma,
                    &[Access::Stride(r), Access::Stride(1)],
                    &[Access::Stride(1)],
                );
                vm.charge_vector_op_repeated(&op, groups * ops_per_group);
            }
            LoopOrder::InstanceFastest => {
                // All m instances advance together: each scalar operation of
                // the stage becomes one unit-stride vector op of length m.
                let ops = (flops_level / 2).max(1);
                let op = VecOp::new(
                    m,
                    VopClass::Fma,
                    &[Access::Stride(1), Access::Stride(1)],
                    &[Access::Stride(1)],
                );
                vm.charge_vector_op_repeated(&op, ops);
            }
        }
        rem = l;
    }
    total_flops
}

/// Like [`charge_transform`] with `LoopOrder::InstanceFastest`, but for a
/// caller that fuses `fused` independent transforms (levels x fields) into
/// each vector operation: the vector length grows to `m * fused` while the
/// total arithmetic stays that of `m` instances per call. This is how
/// multilevel spectral models drive their FFTs.
pub fn charge_transform_fused(vm: &mut Vm, n: usize, m: usize, fused: usize) -> u64 {
    let fused = fused.max(1);
    let factors = factorize(n).expect("length must factor into 2/3/5");
    let mut rem = n;
    let mut total_flops = 0u64;
    for &r in factors.iter().rev() {
        let groups = n / rem;
        let flops_level = groups * stage_flops(rem, r);
        total_flops += (flops_level * m) as u64;
        let ops = (flops_level / 2).div_ceil(fused).max(1);
        let op = VecOp::new(
            m * fused,
            VopClass::Fma,
            &[Access::Stride(1), Access::Stride(1)],
            &[Access::Stride(1)],
        );
        vm.charge_vector_op_repeated(&op, ops);
        rem /= r;
    }
    total_flops
}

/// Scale an axis-fastest charge across instances: the per-instance cost was
/// charged once; instances are independent repeats.
fn scale(c: Cost, m: usize) -> Cost {
    Cost {
        cycles: c.cycles * m as f64,
        flops: c.flops * m as u64,
        cray_flops: c.cray_flops * m as f64,
        bytes: c.bytes * m as u64,
    }
}

/// Result of one benchmark point.
#[derive(Debug, Clone, Copy)]
pub struct FftPoint {
    pub mflops: f64,
    pub cost: Cost,
}

/// The lengths whose round trip has passed.
static ROUND_TRIPPED: CheckOnce<usize> = CheckOnce::new();

/// The functional leg of a benchmark point: transform a deterministic real
/// signal of length `n` forward and back, and panic unless it round-trips.
/// The point's price does not depend on it, and its input depends on `n`
/// alone, so each length is checked once per process.
pub fn verify_round_trip(n: usize) {
    ROUND_TRIPPED.run(n, || {
        let signal: Vec<f64> =
            (0..n).map(|i| (i as f64 * 0.37).sin() + 0.25 * (i as f64 * 1.13).cos()).collect();
        let spec = rfft_spectrum(&signal);
        let back = irfft(&spec, n);
        let err = signal.iter().zip(&back).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
        assert!(err < 1e-9, "FFT round-trip failed for n={n}: err={err}");
    });
}

/// The timing leg of a benchmark point: charge `model` for M instances of
/// a length-`n` transform in the requested loop order, computing nothing.
pub fn price_point(model: &MachineModel, n: usize, m: usize, order: LoopOrder) -> FftPoint {
    let mut vm = Vm::pricing(model.clone());
    let cost = match order {
        LoopOrder::AxisFastest => {
            charge_transform(&mut vm, n, 1, order);
            scale(vm.take_cost(), m)
        }
        LoopOrder::InstanceFastest => {
            charge_transform(&mut vm, n, m, order);
            vm.take_cost()
        }
    };
    let mflops = cost.mflops(model.clock_ns);
    FftPoint { mflops, cost }
}

/// Run one (N, M) point of RFFT or VFFT on `model`: verify that length N
/// round-trips ([`verify_round_trip`], once per process) and charge the
/// machine for all M in the requested loop order.
pub fn run_fft_point(model: &MachineModel, n: usize, m: usize, order: LoopOrder) -> FftPoint {
    verify_round_trip(n);
    price_point(model, n, m, order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxsim::presets;

    /// Naive O(n^2) DFT used as the correctness oracle in tests.
    fn naive_dft(input: &[C64], dir: Direction) -> Vec<C64> {
        let n = input.len();
        let sign = dir.sign();
        (0..n)
            .map(|k| {
                let mut acc = C64::ZERO;
                for (j, &v) in input.iter().enumerate() {
                    acc = acc
                        + v * C64::cis(
                            sign * 2.0 * std::f64::consts::PI * (j * k % n) as f64 / n as f64,
                        );
                }
                acc
            })
            .collect()
    }

    /// Total real flops our mixed-radix transform performs for length `n`.
    fn transform_flops(n: usize) -> usize {
        let mut total = 0;
        let mut rem = n;
        // Walk the recursion top-down: level k has n/rem sub-transforms of the
        // current size, each combined with the radix the recursion applies at
        // that level (the *last* remaining factor — see `fft_rec`).
        let factors = factorize(n).expect("length must factor into 2/3/5");
        for &r in factors.iter().rev() {
            total += (n / rem) * stage_flops(rem, r);
            rem /= r;
        }
        total
    }

    fn approx(a: C64, b: C64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn factorize_235_lengths() {
        assert_eq!(factorize(1), Some(vec![]));
        assert_eq!(factorize(8), Some(vec![2, 2, 2]));
        assert_eq!(factorize(12), Some(vec![3, 2, 2]));
        assert_eq!(factorize(60), Some(vec![5, 3, 2, 2]));
        assert_eq!(factorize(7), None);
        assert_eq!(factorize(0), None);
        assert_eq!(factorize(1280), Some(vec![5, 2, 2, 2, 2, 2, 2, 2, 2]));
    }

    #[test]
    fn fft_matches_naive_dft_all_families() {
        for n in [2usize, 3, 4, 5, 6, 8, 10, 12, 15, 16, 20, 24, 30, 48, 60, 64, 80, 96] {
            let input: Vec<C64> =
                (0..n).map(|i| C64::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos())).collect();
            let mut x = input.clone();
            fft(&mut x, Direction::Forward);
            let expect = naive_dft(&input, Direction::Forward);
            for (k, (&got, &want)) in x.iter().zip(&expect).enumerate() {
                assert!(
                    approx(got, want, 1e-9 * n as f64),
                    "n={n} bin {k}: got {got:?}, want {want:?}"
                );
            }
        }
    }

    #[test]
    fn forward_inverse_roundtrip() {
        for n in [4usize, 12, 40, 120, 128, 1280] {
            let input: Vec<C64> = (0..n).map(|i| C64::new(i as f64, -(i as f64) * 0.5)).collect();
            let mut x = input.clone();
            fft(&mut x, Direction::Forward);
            fft(&mut x, Direction::Inverse);
            for (a, b) in x.iter().zip(&input) {
                let scaled = *a * (1.0 / n as f64);
                assert!(approx(scaled, *b, 1e-8 * n as f64));
            }
        }
    }

    #[test]
    fn parseval_holds() {
        let n = 240;
        let input: Vec<C64> = (0..n).map(|i| C64::new((i as f64).sin(), 0.0)).collect();
        let time_energy: f64 = input.iter().map(|c| c.norm_sqr()).sum();
        let mut x = input;
        fft(&mut x, Direction::Forward);
        let freq_energy: f64 = x.iter().map(|c| c.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy.max(1.0));
    }

    #[test]
    fn rfft_spectrum_of_cosine_peaks_at_bin() {
        let n = 64;
        let k0 = 5;
        let signal: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * k0 as f64 * i as f64 / n as f64).cos())
            .collect();
        let spec = rfft_spectrum(&signal);
        let (peak_bin, _) = spec
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
            .unwrap();
        assert_eq!(peak_bin, k0);
        assert!((spec[k0].abs() - n as f64 / 2.0).abs() < 1e-9);
    }

    #[test]
    fn irfft_inverts_rfft() {
        for n in [6usize, 20, 48, 160, 384, 640] {
            let signal: Vec<f64> =
                (0..n).map(|i| (i as f64 * 0.9).sin() * (i as f64 * 0.11).cos()).collect();
            let back = irfft(&rfft_spectrum(&signal), n);
            for (a, b) in signal.iter().zip(&back) {
                assert!((a - b).abs() < 1e-9, "n={n}");
            }
        }
    }

    #[test]
    fn a_failing_length_fails_its_round_trip_on_every_call() {
        // 112 = 7 * 16: no mixed-radix 2/3/5 transform exists, so the
        // check panics, and being checked before must not let it pass.
        for call in 1..=2 {
            let err = std::panic::catch_unwind(|| verify_round_trip(112))
                .expect_err("a length with a factor of 7 round-tripped");
            let msg = err.downcast_ref::<String>().expect("a formatted panic message");
            assert!(msg.contains("112"), "call {call}: panic does not name n: {msg:?}");
        }
    }

    #[test]
    fn transform_flops_is_5nlogn_for_pow2() {
        for n in [8usize, 64, 1024] {
            let f = transform_flops(n) as f64;
            let expect = 5.0 * n as f64 * (n as f64).log2();
            assert!((f - expect).abs() < 1e-9, "n={n}: {f} vs {expect}");
        }
    }

    #[test]
    fn vfft_order_of_magnitude_faster_than_rfft_on_sx4() {
        // The headline qualitative result of Figures 6 and 7.
        let m = presets::sx4_benchmarked();
        let r = run_fft_point(&m, 256, 500, LoopOrder::AxisFastest);
        let v = run_fft_point(&m, 256, 500, LoopOrder::InstanceFastest);
        let ratio = v.mflops / r.mflops;
        assert!(ratio > 5.0 && ratio < 60.0, "VFFT/RFFT ratio {ratio}");
    }

    #[test]
    fn vfft_mflops_grows_with_vector_length() {
        let m = presets::sx4_benchmarked();
        let short = run_fft_point(&m, 256, 1, LoopOrder::InstanceFastest);
        let long = run_fft_point(&m, 256, 500, LoopOrder::InstanceFastest);
        assert!(long.mflops > 5.0 * short.mflops);
    }

    #[test]
    fn charged_flops_match_transform_flops() {
        let model = presets::sx4_benchmarked();
        let mut vm = Vm::new(model);
        let f = charge_transform(&mut vm, 48, 7, LoopOrder::InstanceFastest);
        assert_eq!(f, (transform_flops(48) * 7) as u64);
    }
}

#[cfg(test)]
mod pricing_tests {
    use super::*;
    use ncar_suite::{rfft_instances, FftFamily, VFFT_M};
    use sxsim::presets;

    /// Reference recursion: evaluates every twiddle with `C64::cis` where a
    /// butterfly input reads it.
    fn fft_rec_cis(
        x: &mut [C64],
        scratch: &mut [C64],
        n: usize,
        stride: usize,
        sign: f64,
        factors: &[usize],
    ) {
        if n == 1 {
            return;
        }
        let r = *factors.last().unwrap();
        let l = n / r;
        let sub_factors = &factors[..factors.len() - 1];
        for j in 0..r {
            fft_rec_cis(&mut x[j * stride..], scratch, l, r * stride, sign, sub_factors);
        }
        let w = |k: usize| C64::cis(sign * 2.0 * std::f64::consts::PI * k as f64 / n as f64);
        for k in 0..l {
            for jo in 0..r {
                let out_idx = k + jo * l;
                let mut acc = C64::ZERO;
                for j in 0..r {
                    let v = x[(j + k * r) * stride];
                    acc = acc + v * w((out_idx * j) % n);
                }
                scratch[out_idx] = acc;
            }
        }
        for i in 0..n {
            x[i * stride] = scratch[i];
        }
    }

    /// Every length the RFFT and VFFT sweeps transform.
    fn sweep_lengths() -> Vec<usize> {
        let mut lengths: Vec<usize> = FftFamily::ALL
            .iter()
            .flat_map(|&f| {
                let rfft = rfft_instances(f, 1_000_000).into_iter().map(|inst| inst.n);
                f.vfft_lengths().into_iter().chain(rfft)
            })
            .collect();
        lengths.sort_unstable();
        lengths.dedup();
        lengths
    }

    #[test]
    fn twiddle_tables_reproduce_the_per_call_spectra_bit_for_bit() {
        for n in sweep_lengths() {
            for dir in [Direction::Forward, Direction::Inverse] {
                let input: Vec<C64> = (0..n)
                    .map(|i| C64::new((i as f64 * 0.37).sin(), 0.25 * (i as f64 * 1.13).cos()))
                    .collect();
                let mut tabled = input.clone();
                fft(&mut tabled, dir);
                let mut per_call = input;
                if n > 1 {
                    let mut scratch = vec![C64::ZERO; n];
                    let factors = factorize(n).unwrap();
                    fft_rec_cis(&mut per_call, &mut scratch, n, 1, dir.sign(), &factors);
                }
                for (k, (a, b)) in tabled.iter().zip(&per_call).enumerate() {
                    assert_eq!(
                        (a.re.to_bits(), a.im.to_bits()),
                        (b.re.to_bits(), b.im.to_bits()),
                        "n={n} {dir:?} bin {k}"
                    );
                }
            }
        }
    }

    /// A priced point, alone and behind `run_fft_point`, charges what a
    /// functional processor charges for the same transforms (the
    /// axis-fastest cost of one instance scaled by M).
    #[test]
    fn price_point_matches_the_functional_point() {
        let model = presets::sx4_benchmarked();
        let bits = |c: Cost| [c.cycles.to_bits(), c.flops, c.cray_flops.to_bits(), c.bytes];
        for n in sweep_lengths() {
            for &m in VFFT_M.iter().chain(&[1_000_000 / n]) {
                for order in [LoopOrder::AxisFastest, LoopOrder::InstanceFastest] {
                    let mut vm = Vm::new(model.clone());
                    let want = match order {
                        LoopOrder::AxisFastest => {
                            charge_transform(&mut vm, n, 1, order);
                            scale(vm.take_cost(), m)
                        }
                        LoopOrder::InstanceFastest => {
                            charge_transform(&mut vm, n, m, order);
                            vm.take_cost()
                        }
                    };
                    let priced = price_point(&model, n, m, order);
                    let run = run_fft_point(&model, n, m, order);
                    let at = format!("n={n} m={m} {order:?}");
                    assert_eq!(bits(priced.cost), bits(want), "{at}");
                    assert_eq!(bits(run.cost), bits(want), "{at}");
                    assert_eq!(priced.mflops.to_bits(), want.mflops(model.clock_ns).to_bits());
                }
            }
        }
    }
}
