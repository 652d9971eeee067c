//! Process-wide observability primitives: gauges and fixed-bucket latency
//! histograms, all dependency-free and cheap enough for hot paths.
//!
//! SUPER-UX explained performance with two instruments: PROGINF job
//! accounting at program exit and FTRACE per-region timers during a run.
//! The serving daemon needs the same spine — numbers that say *where* a
//! request's time went — without pulling in an external metrics stack. A
//! [`MetricsRegistry`] hands out [`Gauge`]s and [`Histogram`]s by name; every mutation is a relaxed atomic, so
//! instrumenting a stage costs nanoseconds; [`MetricsRegistry::snapshot`]
//! freezes everything into plain data the wire layer can serialize.
//!
//! Consistency: atomics are individually, not mutually, consistent. A
//! caller that needs a *reconciled* snapshot (the `sxd` METRICS verb
//! guarantees histogram totals sum to its job counters) must perform the
//! observations and the snapshot under the same external critical section
//! — the primitives stay lock-free, the consistency discipline belongs to
//! the owner of the numbers.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::Json;

/// Instantaneous level (queue depth, stretch factor). Stores an `f64` so
/// one type covers both integral depths and ratio gauges.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Default latency bucket upper bounds in seconds: a 1–2.5–5 ladder per
/// decade from 1 µs to 100 s, plus an implicit overflow bucket. Documented
/// in the README ("Observing the daemon"); change both together.
pub const LATENCY_BUCKETS: [f64; 25] = [
    1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2,
    5e-2, 1e-1, 2.5e-1, 5e-1, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
];

/// Fixed-bucket histogram. `bounds[i]` is the inclusive upper edge of
/// bucket `i`; one extra overflow bucket catches everything larger.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observed values, as f64 bits (CAS-updated).
    sum_bits: AtomicU64,
}

impl Histogram {
    /// `bounds` must be finite and strictly increasing; violations are
    /// debug-asserted and otherwise tolerated (observations still land in
    /// the first bucket whose edge admits them).
    pub fn new(bounds: &[f64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must increase");
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
        }
    }

    /// Record one observation (seconds, for latency histograms).
    pub fn observe(&self, value: f64) {
        let i = self.bounds.partition_point(|&b| b < value);
        self.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + value).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Fold another histogram's observations into this one, bucket by
    /// bucket. The histograms must share identical bounds — merging two
    /// differently-shaped histograms has no meaningful result, so a
    /// mismatch returns `false` and leaves `self` untouched. Used by the
    /// cluster router to aggregate per-member latency histograms into one
    /// cluster-wide view whose quantiles are exactly the quantiles of the
    /// concatenated observation streams' bucket counts.
    pub fn merge(&self, other: &Histogram) -> bool {
        if self.bounds != other.bounds {
            return false;
        }
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count.fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        let add = other.sum();
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + add).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Freeze this histogram into plain data.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            count: buckets.iter().sum(),
            sum: self.sum(),
            buckets,
        }
    }
}

/// Plain-data view of a [`Histogram`] at one instant. `buckets` has one
/// more entry than `bounds` (the overflow bucket). `count` is recomputed
/// from the buckets so quantiles and totals always agree.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    pub bounds: Vec<f64>,
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Fold another snapshot's buckets into this one (the plain-data twin
    /// of [`Histogram::merge`], for snapshots that arrived over the wire).
    /// Bounds must match exactly; a mismatch returns `false` and leaves
    /// `self` untouched. `count` is recomputed from the merged buckets so
    /// quantiles and totals stay mutually consistent.
    pub fn merge(&mut self, other: &HistogramSnapshot) -> bool {
        if self.bounds != other.bounds || self.buckets.len() != other.buckets.len() {
            return false;
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count = self.buckets.iter().sum();
        self.sum += other.sum;
        true
    }

    /// Rebuild a snapshot from the JSON form [`HistogramSnapshot::to_json`]
    /// emits (`le` bounds, `n` bucket counts, `sum`). The quantile members
    /// are derived, so they are recomputed rather than read back. Returns
    /// `None` when the document does not have the histogram shape.
    pub fn from_json(doc: &Json) -> Option<HistogramSnapshot> {
        let bounds: Vec<f64> =
            doc.get("le")?.as_arr()?.iter().map(Json::as_f64).collect::<Option<_>>()?;
        let buckets: Vec<u64> =
            doc.get("n")?.as_arr()?.iter().map(Json::as_u64).collect::<Option<_>>()?;
        if buckets.len() != bounds.len() + 1 {
            return None;
        }
        let sum = doc.get("sum")?.as_f64()?;
        Some(HistogramSnapshot { count: buckets.iter().sum(), bounds, buckets, sum })
    }

    /// Quantile estimate by linear interpolation inside the bucket where
    /// the rank falls. `q` in [0, 1]. Returns 0 for an empty histogram;
    /// ranks landing in the overflow bucket report the last bound (the
    /// histogram cannot resolve beyond its edges).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).max(1.0);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let before = seen as f64;
            seen += n;
            if (seen as f64) >= rank {
                let hi = match self.bounds.get(i) {
                    Some(&b) => b,
                    None => return *self.bounds.last().unwrap_or(&0.0),
                };
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let frac = (rank - before) / n as f64;
                return lo + (hi - lo) * frac;
            }
        }
        *self.bounds.last().unwrap_or(&0.0)
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    pub(crate) fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    pub(crate) fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// JSON form: `{"count":N,"sum":S,"p50":..,"p90":..,"p99":..,
    /// "le":[bounds...],"n":[counts...]}` with `n` one longer than `le`
    /// (overflow last).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::Num(self.count as f64)),
            ("sum".into(), Json::Num(self.sum)),
            ("p50".into(), Json::Num(self.p50())),
            ("p90".into(), Json::Num(self.p90())),
            ("p99".into(), Json::Num(self.p99())),
            ("le".into(), Json::Arr(self.bounds.iter().map(|&b| Json::Num(b)).collect())),
            ("n".into(), Json::Arr(self.buckets.iter().map(|&n| Json::Num(n as f64)).collect())),
        ])
    }
}

#[derive(Default)]
struct RegistryInner {
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// Named metric directory. Cloning shares the underlying metrics; the
/// registry lock guards only name resolution, never the hot-path updates.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        // Metric registration never panics while holding the lock, but a
        // poisoned registry must still serve reads: recover the data.
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Arc::clone(self.locked().gauges.entry(name.to_string()).or_default())
    }

    /// Get or create a histogram with the given bucket bounds. The bounds
    /// of the first registration win; later callers share it.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        Arc::clone(
            self.locked()
                .histograms
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new(bounds))),
        )
    }

    /// A latency histogram with the default [`LATENCY_BUCKETS`].
    pub fn latency(&self, name: &str) -> Arc<Histogram> {
        self.histogram(name, &LATENCY_BUCKETS)
    }

    /// Freeze every registered metric into plain data, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.locked();
        MetricsSnapshot {
            gauges: inner.gauges.iter().map(|(k, g)| (k.clone(), g.get())).collect(),
            histograms: inner.histograms.iter().map(|(k, h)| (k.clone(), h.snapshot())).collect(),
        }
    }
}

/// Everything a registry held at one instant.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauges_round_trip() {
        let m = MetricsRegistry::new();
        let g = m.gauge("depth");
        g.set(3.0);
        assert_eq!(g.get(), 3.0);
        // Same name, same gauge.
        assert_eq!(m.gauge("depth").get(), 3.0);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in [0.5, 0.6, 1.5, 3.0, 100.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.buckets, vec![2, 1, 1, 1]);
        assert!((s.sum - 105.6).abs() < 1e-9);
        // Median rank 2.5 falls in the first bucket (2 obs ≤ 1.0).
        assert!(s.p50() > 0.0 && s.p50() <= 2.0, "p50={}", s.p50());
        // p99 lands in the overflow bucket: reported as the last bound.
        assert_eq!(s.p99(), 4.0);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let s = Histogram::new(&LATENCY_BUCKETS).snapshot();
        assert_eq!((s.count, s.sum), (0, 0.0));
        assert_eq!(s.p50(), 0.0);
        assert_eq!(s.buckets.len(), LATENCY_BUCKETS.len() + 1);
    }

    #[test]
    fn observations_on_bucket_edges_are_inclusive() {
        let h = Histogram::new(&[1.0, 2.0]);
        h.observe(1.0); // exactly on the first edge -> bucket 0
        h.observe(2.0); // exactly on the second edge -> bucket 1
        h.observe(2.0000001); // past the last edge -> overflow
        assert_eq!(h.snapshot().buckets, vec![1, 1, 1]);
    }

    #[test]
    fn concurrent_observations_are_not_lost() {
        let m = MetricsRegistry::new();
        let h = m.latency("lat");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..1000 {
                        h.observe(i as f64 * 1e-6);
                    }
                });
            }
        });
        let snap = m.snapshot();
        assert_eq!(snap.histograms["lat"].count, 8000);
        assert_eq!(snap.histograms["lat"].buckets.iter().sum::<u64>(), 8000);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::new(&[10.0, 20.0, 30.0]);
        for _ in 0..100 {
            h.observe(15.0);
        }
        let s = h.snapshot();
        // All mass in (10, 20]: every quantile lands inside that bucket.
        for q in [0.01, 0.5, 0.9, 0.99] {
            let v = s.quantile(q);
            assert!((10.0..=20.0).contains(&v), "q={q} -> {v}");
        }
        assert!(s.quantile(0.99) > s.quantile(0.01));
    }
}
