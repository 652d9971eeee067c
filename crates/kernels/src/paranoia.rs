//! PARANOIA: the arithmetic-operation correctness test (§4.1).
//!
//! A Rust rendering of the core checks of Kahan's PARANOIA: radix and
//! precision discovery, guard digits, rounding behaviour of the four basic
//! operations, underflow/denormal handling and overflow behaviour. As in
//! the original, findings are graded FAILURE > SERIOUS DEFECT > DEFECT >
//! FLAW; the benchmark is pass/fail ("the SX-4 passed these tests") and a
//! conforming IEEE 754 implementation — which the SX-4 provides in its
//! IEEE mode, and which Rust's `f64` is — reports no findings.
//!
//! Every probe is written against `black_box` values so a const-folding
//! compiler cannot optimize the arithmetic away.

use std::hint::black_box;

/// Severity grades, in PARANOIA's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Severity {
    Flaw,
    Defect,
    SeriousDefect,
    Failure,
}

/// Outcome of the whole battery.
#[derive(Debug, Clone)]
pub struct ParanoiaReport {
    /// Severity of each failed check (its text is in the log).
    pub(crate) findings: Vec<Severity>,
    /// Human-readable log of what was checked.
    pub log: Vec<String>,
}

impl ParanoiaReport {
    /// PARANOIA passes when nothing worse than a flaw was found.
    pub fn passed(&self) -> bool {
        self.findings.iter().all(|&f| f < Severity::Defect)
    }
}

/// Discover the radix the way PARANOIA does: grow `a` by doubling until
/// `(a + 1) - a != 1` (precision exhausted), then find the smallest `b`
/// with `(a + b) - a != 0`.
fn discover_radix() -> f64 {
    let mut a = 1.0f64;
    loop {
        a = black_box(a + a);
        let probe = black_box(black_box(a + 1.0) - a);
        if black_box(probe - 1.0) != 0.0 {
            break;
        }
    }
    let mut b = 1.0f64;
    loop {
        let radix = black_box(black_box(a + b) - a);
        if radix != 0.0 {
            return radix;
        }
        b = black_box(b + b);
    }
}

/// Count significand digits in the discovered radix.
fn discover_digits(radix: f64) -> u32 {
    let mut digits = 0u32;
    let mut a = 1.0f64;
    loop {
        digits += 1;
        a = black_box(a * radix);
        let probe = black_box(black_box(a + 1.0) - a);
        if black_box(probe - 1.0) != 0.0 {
            return digits;
        }
    }
}

/// Run the battery.
pub fn run() -> ParanoiaReport {
    let mut findings = Vec::new();
    let mut log = Vec::new();
    let mut check = |ok: bool, severity: Severity, what: &str, log: &mut Vec<String>| {
        if ok {
            log.push(format!("ok: {what}"));
        } else {
            log.push(format!("BAD: {what}"));
            findings.push(severity);
        }
    };

    let radix = discover_radix();
    log.push(format!("discovered radix = {radix}"));
    let digits = discover_digits(radix);
    log.push(format!("discovered precision = {digits} radix-{radix} digits"));
    check(radix == 2.0, Severity::Defect, "radix is 2", &mut log);
    check(digits == 53, Severity::Defect, "precision is 53 bits", &mut log);

    // Small-integer arithmetic is exact.
    let exact = (2..=10).all(|i| {
        let x = black_box(i as f64);
        black_box(x * x) == (i * i) as f64
            && black_box(black_box(x * x) / x) == x
            && black_box(black_box(x + x) - x) == x
    });
    check(exact, Severity::Failure, "small integer arithmetic exact", &mut log);

    // Guard digit in subtraction: 1 - eps/2 must not collapse to 1 - eps.
    let eps = f64::EPSILON;
    let g = black_box(1.0 - black_box(eps / 2.0));
    check(
        g == 1.0 - eps / 2.0 && g != 1.0 - eps && g < 1.0,
        Severity::SeriousDefect,
        "guard digit on subtraction",
        &mut log,
    );

    // Round-to-nearest-even on addition.
    let one_plus_half_ulp = black_box(1.0 + eps / 2.0);
    check(
        one_plus_half_ulp == 1.0,
        Severity::Defect,
        "halfway add rounds to even (1 + eps/2 == 1)",
        &mut log,
    );
    let odd = black_box(1.0 + eps); // last bit set
    let rounded = black_box(odd + eps / 2.0);
    check(
        rounded == 1.0 + 2.0 * eps,
        Severity::Defect,
        "halfway add rounds to even (odd case rounds up)",
        &mut log,
    );

    // Multiplication/division rounding: x*y within half an ULP.
    let mut mul_ok = true;
    let mut div_ok = true;
    let mut v = 0.1f64;
    for _ in 0..200 {
        v = black_box(v * 1.0000000238418579 + 1e-7);
        let w = black_box(v * 3.0);
        mul_ok &= (w / 3.0 - v).abs() <= v * eps;
        let q = black_box(v / 7.0);
        div_ok &= (q * 7.0 - v).abs() <= v * 2.0 * eps;
    }
    check(mul_ok, Severity::Defect, "multiplication correctly rounded", &mut log);
    check(div_ok, Severity::Defect, "division correctly rounded", &mut log);

    // sqrt of exact squares is exact.
    let sq_ok = (1..=100u32).all(|i| {
        let x = black_box((i * i) as f64);
        black_box(x.sqrt()) == i as f64
    });
    check(sq_ok, Severity::Defect, "sqrt of perfect squares exact", &mut log);

    // Underflow is gradual (denormals exist and are ordered).
    let tiny = black_box(f64::MIN_POSITIVE);
    let denorm = black_box(tiny / 4.0);
    check(
        denorm > 0.0 && denorm < tiny,
        Severity::Defect,
        "gradual underflow (denormals)",
        &mut log,
    );
    check(black_box(denorm * 4.0) == tiny, Severity::Flaw, "denormal scaling exact", &mut log);

    // Overflow saturates to infinity, not garbage.
    let huge = black_box(f64::MAX);
    let inf = black_box(huge * 2.0);
    check(
        inf.is_infinite() && inf > 0.0,
        Severity::SeriousDefect,
        "overflow produces +inf",
        &mut log,
    );

    // Comparisons are a total order on non-NaN values around the probe set.
    // (Probing the comparison operators themselves is the point here, so
    // the tautology lints are silenced deliberately.)
    #[allow(clippy::eq_op, clippy::neg_cmp_op_on_partial_ord)]
    let cmp_ok = {
        let a = black_box(1.0f64);
        let b = black_box(1.0 + eps);
        a < b && !(b < a) && a == a && b != a
    };
    check(cmp_ok, Severity::Failure, "comparison consistency", &mut log);

    // 0 behaviours.
    check(black_box(0.0f64) == black_box(-0.0f64), Severity::Defect, "-0 == +0", &mut log);
    check(black_box(1.0 / f64::INFINITY) == 0.0, Severity::Flaw, "1/inf == 0", &mut log);

    ParanoiaReport { findings, log }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_ieee754_passes() {
        let r = run();
        assert!(r.passed(), "findings: {:?}", r.findings);
        assert!(r.findings.is_empty(), "IEEE 754 doubles should be clean: {:?}", r.findings);
    }

    #[test]
    fn discovers_binary64() {
        assert_eq!(discover_radix(), 2.0);
        assert_eq!(discover_digits(2.0), 53);
    }

    #[test]
    fn log_mentions_every_check() {
        let r = run();
        assert!(r.log.len() >= 14);
        assert!(r
            .log
            .iter()
            .all(|l| l.starts_with("ok:") || l.starts_with("BAD:") || l.starts_with("discovered")));
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Failure > Severity::SeriousDefect);
        assert!(Severity::SeriousDefect > Severity::Defect);
        assert!(Severity::Defect > Severity::Flaw);
    }

    #[test]
    fn passed_tolerates_flaws_only() {
        let mut r = run();
        r.findings.push(Severity::Flaw);
        assert!(r.passed());
        r.findings.push(Severity::Defect);
        assert!(!r.passed());
    }
}
