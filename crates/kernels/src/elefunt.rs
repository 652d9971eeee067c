//! ELEFUNT: elementary function accuracy and performance (§4.1, Table 3).
//!
//! Based on W. J. Cody's Argonne test suite; the paper's version adds a
//! throughput measurement ("millions of function calls per second") for
//! EXP, LOG, PWR, SIN, and SQRT. The accuracy leg checks each intrinsic
//! against mathematical identities over deterministic sample sets and
//! reports the worst error in units of the last place (ULPs); the
//! performance leg prices the vectorized intrinsic on the machine model.

use crate::once::CheckOnce;
use sxsim::{Intrinsic, MachineModel, Vm};

/// Worst-case error of one intrinsic, in ULPs of the expected result.
#[derive(Debug, Clone, Copy)]
pub struct AccuracyReport {
    pub function: Intrinsic,
    pub max_ulp: f64,
    /// Identity used, for the report text.
    pub identity: &'static str,
}

/// ULP distance between a computed value and a reference.
fn ulp_error(got: f64, want: f64) -> f64 {
    if got == want {
        return 0.0;
    }
    if !got.is_finite() || !want.is_finite() {
        return f64::INFINITY;
    }
    let ulp = want.abs().max(f64::MIN_POSITIVE) * f64::EPSILON;
    (got - want).abs() / ulp
}

/// Deterministic sample points in `[lo, hi)`.
fn samples(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    // A low-discrepancy (golden ratio) sequence: deterministic, covers the
    // interval, and avoids the exactly-representable lattice points a
    // uniform grid would over-sample.
    let phi = 0.618_033_988_749_894_9_f64;
    (0..n)
        .map(|i| {
            let u = (i as f64 * phi).fract();
            lo + u * (hi - lo)
        })
        .collect()
}

/// Check one intrinsic against its identity; returns the worst ULP error.
pub fn check_accuracy(f: Intrinsic) -> AccuracyReport {
    let n = 4096;
    let (max_ulp, identity) = match f {
        Intrinsic::Exp => {
            // exp(x - 1/16) * exp(1/16) == exp(x): Cody's purification trick.
            let e16 = (1.0f64 / 16.0).exp();
            let worst = samples(-20.0, 20.0, n)
                .into_iter()
                .map(|x| ulp_error((x - 1.0 / 16.0).exp() * e16, x.exp()))
                .fold(0.0, f64::max);
            (worst, "exp(x-1/16)*exp(1/16) = exp(x)")
        }
        Intrinsic::Log => {
            // log(x^2) == 2 log(x), sampled away from x = 1 where the
            // identity is ill-conditioned.
            let worst = samples(2.0, 8.0, n)
                .into_iter()
                .map(|x| ulp_error((x * x).ln(), 2.0 * x.ln()))
                .fold(0.0, f64::max);
            (worst, "log(x*x) = 2*log(x), x in [2,8)")
        }
        Intrinsic::Pow => {
            // (x*x)^1.5 == x^3 for x > 0.
            let worst = samples(0.5, 8.0, n)
                .into_iter()
                .map(|x| ulp_error((x * x).powf(1.5), x.powf(3.0)))
                .fold(0.0, f64::max);
            (worst, "(x*x)^(3/2) = x^3")
        }
        Intrinsic::Sin => {
            // sin^2(x) + cos^2(x) == 1 — well-conditioned everywhere.
            let worst = samples(-6.0, 6.0, n)
                .into_iter()
                .map(|x| {
                    let (s, c) = x.sin_cos();
                    ulp_error(s * s + c * c, 1.0)
                })
                .fold(0.0, f64::max);
            (worst, "sin^2(x) + cos^2(x) = 1")
        }
        Intrinsic::Sqrt => {
            // sqrt(x)^2 == x.
            let worst = samples(0.0625, 16.0, n)
                .into_iter()
                .map(|x| {
                    let r = x.sqrt();
                    ulp_error(r * r, x)
                })
                .fold(0.0, f64::max);
            (worst, "sqrt(x)^2 = x")
        }
    };
    AccuracyReport { function: f, max_ulp, identity }
}

/// Run the full accuracy battery; the suite passes if every intrinsic is
/// accurate to within a few ULPs (identity tests compound two rounding
/// errors, so the bound is looser than 0.5).
pub fn accuracy_suite() -> (bool, Vec<AccuracyReport>) {
    let reports: Vec<AccuracyReport> = Intrinsic::ALL.iter().map(|&f| check_accuracy(f)).collect();
    let passed = reports.iter().all(|r| r.max_ulp < 8.0);
    (passed, reports)
}

/// The `(intrinsic, n)` sweeps whose spot check has passed.
static SPOT_CHECKED: CheckOnce<(Intrinsic, usize)> = CheckOnce::new();

/// The Table 3 sweep of `f` over `n` calls on a functional processor,
/// through the facade: the processor and the values it computed.
fn functional_sweep(model: &MachineModel, f: Intrinsic, n: usize) -> (Vm, Vec<f64>) {
    let mut vm = Vm::new(model.clone());
    let x: Vec<f64> = samples(0.1, 2.0, n);
    let mut y = vec![0.0f64; n];
    match f {
        Intrinsic::Exp => vm.exp(&mut y, &x),
        Intrinsic::Log => vm.log(&mut y, &x),
        Intrinsic::Sin => vm.sin(&mut y, &x),
        Intrinsic::Sqrt => vm.sqrt(&mut y, &x),
        Intrinsic::Pow => {
            let e: Vec<f64> = samples(0.5, 1.5, n);
            vm.pow(&mut y, &x, &e);
        }
    }
    (vm, y)
}

/// The same sweep on a pricing processor: every charge, no values.
fn priced_sweep(model: &MachineModel, f: Intrinsic, n: usize) -> Vm {
    let mut vm = Vm::pricing(model.clone());
    vm.charge_intrinsic(f, n);
    vm
}

/// Throughput of one intrinsic on `model`, in millions of calls per second
/// (the unit of the paper's Table 3). The rate is priced; the functional
/// spot check (every value finite) reads only constant inputs, so it runs
/// once per process for each `(f, n)`.
pub fn mcalls_per_second(model: &MachineModel, f: Intrinsic, n: usize) -> f64 {
    SPOT_CHECKED.run((f, n), || {
        let (_, y) = functional_sweep(model, f, n);
        assert!(y.iter().all(|v| v.is_finite()), "{} produced a non-finite value", f.name());
    });
    n as f64 / priced_sweep(model, f, n).seconds() / 1e6
}

/// The Table 3 measurement: all five intrinsics on `model` at the
/// benchmark's vector length.
pub fn table3(model: &MachineModel) -> Vec<(Intrinsic, f64)> {
    Intrinsic::ALL.iter().map(|&f| (f, mcalls_per_second(model, f, 100_000))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxsim::presets;

    #[test]
    fn host_libm_passes_accuracy() {
        let (passed, reports) = accuracy_suite();
        assert!(passed, "reports: {reports:?}");
        for r in &reports {
            assert!(r.max_ulp < 8.0, "{:?}: {} ULPs", r.function, r.max_ulp);
        }
    }

    #[test]
    fn ulp_error_basics() {
        assert_eq!(ulp_error(1.0, 1.0), 0.0);
        let next = f64::from_bits(1.0f64.to_bits() + 1);
        let e = ulp_error(next, 1.0);
        assert!((e - 1.0).abs() < 0.51, "one ulp apart: {e}");
        assert_eq!(ulp_error(f64::INFINITY, 1.0), f64::INFINITY);
    }

    #[test]
    fn samples_stay_in_range_and_are_distinct() {
        let s = samples(2.0, 3.0, 1000);
        assert!(s.iter().all(|&x| (2.0..3.0).contains(&x)));
        let mut sorted = s.clone();
        sorted.sort_by(f64::total_cmp);
        sorted.dedup();
        assert!(sorted.len() > 990);
    }

    #[test]
    fn sx4_throughput_tens_of_mcalls() {
        let m = presets::sx4_benchmarked();
        for (f, rate) in table3(&m) {
            assert!(rate > 20.0 && rate < 200.0, "{}: {rate} Mcalls/s", f.name());
        }
    }

    #[test]
    fn sqrt_is_fastest_pow_is_slowest_on_sx4() {
        let m = presets::sx4_benchmarked();
        let rates: Vec<(Intrinsic, f64)> = table3(&m);
        let get = |f: Intrinsic| rates.iter().find(|(g, _)| *g == f).unwrap().1;
        assert!(get(Intrinsic::Sqrt) > get(Intrinsic::Exp));
        assert!(get(Intrinsic::Pow) < get(Intrinsic::Exp));
    }

    #[test]
    fn workstations_orders_of_magnitude_slower() {
        let sx = presets::sx4_benchmarked();
        let sp = presets::sparc20();
        let a = mcalls_per_second(&sx, Intrinsic::Exp, 100_000);
        let b = mcalls_per_second(&sp, Intrinsic::Exp, 100_000);
        assert!(a > 50.0 * b, "sx4 {a} vs sparc {b}");
    }
}

#[cfg(test)]
mod pricing_tests {
    use super::*;
    use sxsim::{presets, Cost};

    /// The priced Table 3 rate is the rate of a functional run through the
    /// facade, by bits: the same seconds, every ledger field and every op
    /// statistic, for all five intrinsics on the benchmarked SX-4 and each
    /// Table 1 machine, at a short sweep and the benchmark's length.
    #[test]
    fn priced_rate_matches_the_functional_sweep() {
        let bits = |c: Cost| [c.cycles.to_bits(), c.flops, c.cray_flops.to_bits(), c.bytes];
        let machines =
            std::iter::once(presets::sx4_benchmarked()).chain(presets::table1_machines());
        for model in machines {
            for n in [10_000, 100_000] {
                for f in Intrinsic::ALL {
                    let at = format!("{} {} n={n}", model.name, f.name());
                    let (functional, _) = functional_sweep(&model, f, n);
                    let priced = priced_sweep(&model, f, n);
                    assert_eq!(functional.seconds().to_bits(), priced.seconds().to_bits(), "{at}");
                    assert_eq!(bits(functional.cost()), bits(priced.cost()), "{at}");
                    assert_eq!(bits(functional.lifetime_cost()), bits(priced.lifetime_cost()));
                    assert_eq!(functional.stats(), priced.stats(), "{at}");
                    let want = n as f64 / functional.seconds() / 1e6;
                    let rate = mcalls_per_second(&model, f, n);
                    assert_eq!(rate.to_bits(), want.to_bits(), "{at}");
                }
            }
        }
    }
}
