//! Property test: `Report::render` is a pure function of the diagnostic
//! *set* — insertion order never leaks into the output. This is what lets
//! `tests/golden/check.json` pin `ncar-bench check` byte for byte.

use ncar_suite::SmallRng;
use sxcheck::{Diagnostic, Report, Severity};

const CODES: &[&str] = &[
    "SXC001", "SXC002", "SXC003", "SXC004", "SXC005", "SXC006", "SXC007", "SXC008", "SXC201",
    "SXC301", "SXC302",
];

/// A deterministic pool of diagnostics with deliberate near-collisions:
/// same code in different regions, same region under different codes,
/// duplicate entries, tied sort keys differing only in message.
fn pool(rng: &mut SmallRng) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for i in 0..40 {
        let code = CODES[rng.next_below(CODES.len())];
        let severity =
            if ("SXC100".."SXC300").contains(&code) { Severity::Error } else { Severity::Warning };
        let region = format!("region-{}", rng.next_below(5));
        let message = format!("finding variant {}", rng.next_below(3));
        let hint = if i % 4 == 0 { String::new() } else { format!("hint {}", i % 3) };
        out.push(Diagnostic { severity, code, region, message, hint });
    }
    // A few exact duplicates: rendering must be stable under those too.
    let dupes: Vec<Diagnostic> = out.iter().take(4).cloned().collect();
    out.extend(dupes);
    out
}

#[test]
fn render_is_byte_identical_under_shuffled_insertion_order() {
    for seed in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0x5eed_0000 + seed);
        let diags = pool(&mut rng);

        let mut reference = Report::new();
        reference.extend(diags.iter().cloned());
        let expected = reference.render();

        for round in 0..8 {
            let mut shuffled = diags.clone();
            let mut order = SmallRng::seed_from_u64(seed * 1_000 + round);
            order.shuffle(&mut shuffled);
            let mut report = Report::new();
            report.extend(shuffled);
            assert_eq!(
                report.render(),
                expected,
                "render depends on insertion order (seed {seed}, round {round})"
            );
        }
    }
}

#[test]
fn render_is_byte_identical_under_split_extend_vs_push() {
    let mut rng = SmallRng::seed_from_u64(0xdead_beef);
    let diags = pool(&mut rng);

    let mut all_at_once = Report::new();
    all_at_once.extend(diags.iter().cloned());

    let mut one_by_one = Report::new();
    for d in diags.iter().rev().cloned() {
        one_by_one.push(d);
    }

    assert_eq!(all_at_once.render(), one_by_one.render());
}
