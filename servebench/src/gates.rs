//! Correctness and shape gates. A run that breaks one reports
//! `"correct": false` and exits non-zero; none of these is a metric.

use ncar_suite::Json;

use crate::load::{Lane, Workload};
use crate::stats::Delta;

/// METRICS says `reconciled`, and its counters satisfy
/// `accepted == done + rejected + queued + running`.
pub fn reconciled(metrics: &Json, when: &str) -> Result<(), String> {
    if metrics.get("reconciled").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{when}: METRICS is not reconciled"));
    }
    let stats = metrics.get("stats").ok_or_else(|| format!("{when}: METRICS lacks stats"))?;
    let n = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or(0);
    let rhs = n("done") + n("rejected") + n("queued") + n("running");
    if n("accepted") != rhs {
        return Err(format!(
            "{when}: accepted={} but done+rejected+queued+running={rhs}",
            n("accepted")
        ));
    }
    Ok(())
}

/// What a window did, from the client and from the daemon's deltas.
#[derive(Clone, Debug, Default)]
pub struct Observed {
    /// Submits the client saw complete, and how many it saw `cached`.
    pub completed: u64,
    pub cached_replies: u64,
    /// Daemon-side deltas over the window.
    pub done: u64,
    pub hits: u64,
    pub misses: u64,
    pub coalesced: u64,
    pub fastpath_hits: u64,
    pub journal_appended: u64,
    /// Keys each cluster member owns (empty for a single daemon).
    pub keys_per_member: Vec<usize>,
}

impl Observed {
    /// Combine the lanes' view with the daemon's window delta.
    pub fn new(lanes: &[Lane], d: &Delta, keys_per_member: Vec<usize>) -> Result<Observed, String> {
        Ok(Observed {
            completed: lanes.iter().map(|l| l.completed as u64).sum(),
            cached_replies: lanes.iter().map(|l| l.cached as u64).sum(),
            done: d.count(&["stats", "done"])?,
            hits: d.count(&["stats", "cache", "hits"])?,
            misses: d.count(&["stats", "cache", "misses"])?,
            coalesced: d.count(&["stats", "coalesced"])?,
            fastpath_hits: d.count(&["stats", "fastpath_hits"])?,
            journal_appended: d.count(&["stats", "journal", "appended"])?,
            keys_per_member,
        })
    }
}

/// The workload-shape gates. Returns every violation.
pub fn shape(workload: Workload, o: &Observed) -> Vec<String> {
    let mut bad = Vec::new();
    let mut need = |ok: bool, what: String| {
        if !ok {
            bad.push(what);
        }
    };
    need(o.completed > 0, "no submit completed".into());
    need(
        o.done == o.completed,
        format!("daemon retired {} jobs but the client completed {}", o.done, o.completed),
    );
    match workload {
        Workload::HotPipelined => {
            need(o.misses == 0, format!("hot_pipelined missed the cache {} times", o.misses));
            need(
                o.fastpath_hits == o.done,
                format!("fast-path share is {}/{}, not 1", o.fastpath_hits, o.done),
            );
            need(o.cached_replies == o.completed, "a hot reply was not marked cached".into());
        }
        Workload::RoutedSerial => {
            need(o.misses == 0, format!("routed_serial missed the cache {} times", o.misses));
            need(o.cached_replies == o.completed, "a routed reply was not marked cached".into());
            need(
                o.keys_per_member.len() == 3 && o.keys_per_member.iter().all(|&k| k > 0),
                format!("every member must own a key; placement is {:?}", o.keys_per_member),
            );
        }
        Workload::ColdMix => {
            need(o.hits == 0, format!("cold_mix hit the cache {} times", o.hits));
            need(o.coalesced == 0, format!("cold_mix coalesced {} submits", o.coalesced));
            need(o.cached_replies == 0, "a cold reply was marked cached".into());
            need(
                o.journal_appended == o.completed,
                format!(
                    "journal appended {} records for {} submits",
                    o.journal_appended, o.completed
                ),
            );
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hot() -> Observed {
        Observed {
            completed: 64,
            cached_replies: 64,
            done: 64,
            hits: 64,
            fastpath_hits: 64,
            ..Default::default()
        }
    }

    #[test]
    fn each_workload_accepts_its_own_shape_only() {
        assert!(shape(Workload::HotPipelined, &hot()).is_empty());
        let mut slow = hot();
        slow.fastpath_hits = 63;
        assert_eq!(shape(Workload::HotPipelined, &slow).len(), 1);
        // A hot window is not a cold one: hits and cached replies.
        assert_eq!(shape(Workload::ColdMix, &hot()).len(), 3);

        let routed = Observed { keys_per_member: vec![3, 2, 3], ..hot() };
        assert!(shape(Workload::RoutedSerial, &routed).is_empty());
        let lopsided = Observed { keys_per_member: vec![5, 0, 3], ..routed.clone() };
        assert_eq!(shape(Workload::RoutedSerial, &lopsided).len(), 1);

        let cold = Observed {
            completed: 9,
            done: 9,
            misses: 9,
            journal_appended: 9,
            ..Default::default()
        };
        assert!(shape(Workload::ColdMix, &cold).is_empty());
        let coalesced = Observed { coalesced: 1, journal_appended: 8, ..cold.clone() };
        assert_eq!(shape(Workload::ColdMix, &coalesced).len(), 2);
        let dropped = Observed { done: 8, ..cold };
        assert_eq!(shape(Workload::ColdMix, &dropped).len(), 1);
        assert_eq!(shape(Workload::ColdMix, &Observed::default()).len(), 1);
    }

    #[test]
    fn reconciliation_needs_the_flag_and_the_identity() {
        let doc = |rec: bool, accepted: u64| {
            Json::parse(&format!(
                "{{\"reconciled\":{rec},\"stats\":{{\"accepted\":{accepted},\"done\":5,\
                 \"rejected\":1,\"queued\":1,\"running\":1}}}}"
            ))
            .unwrap()
        };
        assert!(reconciled(&doc(true, 8), "t").is_ok());
        assert!(reconciled(&doc(false, 8), "t").is_err());
        assert!(reconciled(&doc(true, 9), "t").is_err());
    }
}
