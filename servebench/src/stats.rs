//! The benchmark's own arithmetic: percentiles over client samples, and
//! deltas and means over two METRICS snapshots of the daemon.

use ncar_suite::metrics::HistogramSnapshot;
use ncar_suite::Json;

/// Percentiles the tail rule may report, lowest first.
pub const LADDER: [f64; 4] = [0.50, 0.90, 0.99, 0.999];

/// Samples a tail percentile needs beyond it before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` among `n` samples.
pub fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(rank(n, q))
}

/// Nearest-rank percentile of ascending `sorted` samples; 0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, or `None` when even the median lacks them.
pub fn tail_quantile(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|&q| beyond(n, q) >= TAIL_MIN_BEYOND)
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Follow a path of object members.
fn at<'a>(doc: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(doc, |d, k| d.get(k))
}

/// What changed in the daemon between two METRICS documents (`metrics`
/// members, as [`sxd::Client::metrics`] returns them).
pub struct Delta<'a> {
    pub before: &'a Json,
    pub after: &'a Json,
}

impl Delta<'_> {
    /// Growth of a counter at `path`; an absent counter reads 0. A counter
    /// that shrank means the two documents are not from one daemon life.
    pub fn count(&self, path: &[&str]) -> Result<u64, String> {
        let read = |d: &Json| at(d, path).and_then(Json::as_u64).unwrap_or(0);
        let (b, a) = (read(self.before), read(self.after));
        a.checked_sub(b)
            .ok_or_else(|| format!("counter {} went backwards: {b} -> {a}", path.join(".")))
    }

    /// Bucket-wise difference of the latency histogram `name`.
    pub fn hist(&self, name: &str) -> Result<HistogramSnapshot, String> {
        let read = |d: &Json| {
            at(d, &["latency", name])
                .and_then(HistogramSnapshot::from_json)
                .ok_or_else(|| format!("METRICS lacks histogram {name}"))
        };
        let (b, a) = (read(self.before)?, read(self.after)?);
        hist_sub(&a, &b).ok_or_else(|| format!("histogram {name} shrank or changed bounds"))
    }

    /// Mean observation of histogram `name` over the delta, in its own
    /// unit (seconds for latency histograms); 0 when nothing was observed.
    pub fn mean(&self, name: &str) -> Result<f64, String> {
        let h = self.hist(name)?;
        Ok(ratio(h.sum, h.count as f64))
    }

    /// [`Delta::mean`] when the delta observed `name` at all, otherwise
    /// the mean over the daemon's whole life up to `after`: a workload that
    /// never exercises a layer in its window still reports that layer's
    /// cost from the work it did before (priming runs, observer probes).
    pub fn mean_or_lifetime(&self, name: &str) -> Result<f64, String> {
        let h = self.hist(name)?;
        if h.count > 0 {
            return Ok(h.sum / h.count as f64);
        }
        let life = at(self.after, &["latency", name])
            .and_then(HistogramSnapshot::from_json)
            .ok_or_else(|| format!("METRICS lacks histogram {name}"))?;
        Ok(ratio(life.sum, life.count as f64))
    }
}

/// `a - b` bucket-wise, or `None` when `b` is not a prefix of `a`'s life.
fn hist_sub(a: &HistogramSnapshot, b: &HistogramSnapshot) -> Option<HistogramSnapshot> {
    if a.bounds != b.bounds || a.buckets.len() != b.buckets.len() {
        return None;
    }
    let buckets: Option<Vec<u64>> =
        a.buckets.iter().zip(&b.buckets).map(|(x, y)| x.checked_sub(*y)).collect();
    let buckets = buckets?;
    Some(HistogramSnapshot {
        count: buckets.iter().sum(),
        bounds: a.bounds.clone(),
        buckets,
        sum: (a.sum - b.sum).max(0.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_the_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_quantile(0), None);
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.50));
        assert_eq!(tail_quantile(99), Some(0.50));
        assert_eq!(tail_quantile(100), Some(0.90));
        assert_eq!(tail_quantile(999), Some(0.90));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        // Exactly ten beyond the reported rank, not eleven.
        assert_eq!(beyond(100, 0.90), 10);
        assert_eq!(beyond(99, 0.90), 9);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.90), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    fn metrics(done: u64, hits: u64, job: (&[u64], f64)) -> Json {
        let n: Vec<String> = job.0.iter().map(u64::to_string).collect();
        Json::parse(&format!(
            "{{\"stats\":{{\"done\":{done},\"cache\":{{\"hits\":{hits}}}}},\
             \"latency\":{{\"job\":{{\"count\":0,\"sum\":{},\"le\":[1e-5,1e-4],\"n\":[{}]}}}}}}",
            job.1,
            n.join(",")
        ))
        .unwrap()
    }

    #[test]
    fn deltas_and_means_subtract_the_earlier_snapshot() {
        let before = metrics(10, 4, (&[2, 3, 0], 0.0004));
        let after = metrics(25, 9, (&[2, 13, 5], 0.0019));
        let d = Delta { before: &before, after: &after };
        assert_eq!(d.count(&["stats", "done"]).unwrap(), 15);
        assert_eq!(d.count(&["stats", "cache", "hits"]).unwrap(), 5);
        assert_eq!(d.count(&["absent"]).unwrap(), 0);
        let h = d.hist("job").unwrap();
        assert_eq!(h.buckets, vec![0, 10, 5]);
        assert_eq!(h.count, 15);
        assert!((d.mean("job").unwrap() - 0.0015 / 15.0).abs() < 1e-15);
        // The delta's median falls inside the (1e-5, 1e-4] bucket.
        let p50 = h.p50();
        assert!(p50 > 1e-5 && p50 <= 1e-4, "{p50}");
        // Backwards counters are an error, not a wrapped huge number.
        let back = Delta { before: &after, after: &before };
        assert!(back.count(&["stats", "done"]).is_err());
        assert!(back.hist("job").is_err());
        assert!(d.hist("missing").is_err());
    }

    #[test]
    fn lifetime_fallback_only_when_the_window_observed_nothing() {
        let before = metrics(8, 0, (&[0, 8, 0], 0.0008));
        let idle = metrics(8, 0, (&[0, 8, 0], 0.0008));
        let d = Delta { before: &before, after: &idle };
        assert_eq!(d.mean("job").unwrap(), 0.0);
        assert!((d.mean_or_lifetime("job").unwrap() - 0.0001).abs() < 1e-15);
        let busy = metrics(9, 0, (&[0, 9, 0], 0.0010));
        let d = Delta { before: &before, after: &busy };
        assert!((d.mean_or_lifetime("job").unwrap() - 0.0002).abs() < 1e-15);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
