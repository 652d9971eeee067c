//! Opt-in lock-site registry: the recording substrate for `sxcheck`'s
//! lock-order analysis (SXC301/SXC302).
//!
//! A daemon built on [`plock`](super::plock) has a lock *hierarchy* that
//! lives only in comments ("`journal` before `cache`, never the reverse").
//! This module mechanizes it: callers name their lock sites via
//! [`plock_named`](super::plock_named), and — behind the `lockcheck`
//! feature — every acquisition records the current thread's held-site
//! stack and an ordering edge from each already-held site to the new one.
//! Blocking operations (file writes, fsyncs) call [`blocking_io`] so any
//! guard held across them is recorded too. The resulting
//! [`LockObservations`] snapshot is what `sxcheck::lockgraph` turns into
//! potential-deadlock (cycle) and guard-held-across-IO findings.
//!
//! Without the `lockcheck` feature every recording function compiles to an
//! empty body and [`snapshot`] returns an empty observation set, so
//! production binaries carry no registry, no thread-locals, no cost.
//!
//! The observation *types* are always compiled: analyzers consume them
//! (and fixtures synthesize them) independently of whether this process
//! recorded anything.

/// One observed acquisition ordering: some thread acquired `to` while
/// already holding `from`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    pub from: String,
    pub to: String,
    /// How many times the ordering was observed.
    pub(crate) count: u64,
    /// An example held-site stack at the moment `to` was first acquired
    /// (innermost last, `to` included).
    pub stack: Vec<String>,
}

/// One observed guard-held-across-blocking-IO crossing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoCrossing {
    /// The named blocking point (e.g. `"sxd.journal.append"`).
    pub io_point: String,
    /// The lock site that was held across it.
    pub lock: String,
    pub count: u64,
}

/// Everything the registry observed, in deterministic (sorted) order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LockObservations {
    /// Ordering edges, sorted by (from, to).
    pub edges: Vec<LockEdge>,
    /// IO crossings, sorted by (io_point, lock).
    pub io_crossings: Vec<IoCrossing>,
}

impl LockObservations {
    pub fn new() -> LockObservations {
        LockObservations::default()
    }

    /// Record that a thread acquired the sites in `stack` in order —
    /// the synthesizing entry point fixtures and tests use. Edges are
    /// added from every earlier site to every later one, deduplicated
    /// against edges already present.
    pub fn record_stack(&mut self, stack: &[&str]) {
        for (i, &to) in stack.iter().enumerate() {
            for &from in &stack[..i] {
                if from == to {
                    continue;
                }
                match self.edges.iter_mut().find(|e| e.from == from && e.to == to) {
                    Some(e) => e.count += 1,
                    None => self.edges.push(LockEdge {
                        from: from.to_string(),
                        to: to.to_string(),
                        count: 1,
                        stack: stack[..=i].iter().map(|s| s.to_string()).collect(),
                    }),
                }
            }
        }
        self.edges.sort_by(|a, b| (&a.from, &a.to).cmp(&(&b.from, &b.to)));
    }

    /// Record that `lock` was held across the blocking point `io_point`.
    pub fn record_crossing(&mut self, io_point: &str, lock: &str) {
        match self.io_crossings.iter_mut().find(|c| c.io_point == io_point && c.lock == lock) {
            Some(c) => c.count += 1,
            None => self.io_crossings.push(IoCrossing {
                io_point: io_point.to_string(),
                lock: lock.to_string(),
                count: 1,
            }),
        }
        self.io_crossings.sort_by(|a, b| (&a.io_point, &a.lock).cmp(&(&b.io_point, &b.lock)));
    }
}

#[cfg(feature = "lockcheck")]
mod rec {
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use std::sync::Mutex;

    /// Count plus example stack at first observation.
    pub(super) type EdgeInfo = (u64, Vec<&'static str>);

    /// (from, to) -> edge info.
    pub(super) static EDGES: Mutex<BTreeMap<(&'static str, &'static str), EdgeInfo>> =
        Mutex::new(BTreeMap::new());

    /// (io_point, lock) -> count.
    pub(super) static CROSSINGS: Mutex<BTreeMap<(&'static str, &'static str), u64>> =
        Mutex::new(BTreeMap::new());

    thread_local! {
        /// The stack of named sites this thread currently holds.
        pub(super) static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    }
}

/// Record that the current thread acquired `site` (called by
/// [`plock_named`](super::plock_named) after the lock is taken). Reentrant
/// holds of the same site add no self-edge.
#[cfg(feature = "lockcheck")]
pub(crate) fn acquire(site: &'static str) {
    rec::HELD.with(|h| {
        let mut held = h.borrow_mut();
        if !held.is_empty() {
            let mut edges = super::plock(&rec::EDGES);
            for &from in held.iter() {
                if from == site {
                    continue;
                }
                let e = edges.entry((from, site)).or_insert_with(|| (0, Vec::new()));
                e.0 += 1;
                if e.1.is_empty() {
                    e.1 = held.iter().copied().chain([site]).collect();
                }
            }
        }
        held.push(site);
    });
}

/// Record that the current thread released `site` (the most recent hold,
/// if nested).
#[cfg(feature = "lockcheck")]
pub(crate) fn release(site: &'static str) {
    rec::HELD.with(|h| {
        let mut held = h.borrow_mut();
        if let Some(pos) = held.iter().rposition(|&s| s == site) {
            held.remove(pos);
        }
    });
}

/// Mark a blocking operation (file write, fsync, network round-trip).
/// Every site the current thread holds — except those in `allowed`, the
/// locks that *guard* this IO resource by design — is recorded as an
/// [`IoCrossing`].
pub fn blocking_io(io_point: &'static str, allowed: &[&'static str]) {
    #[cfg(feature = "lockcheck")]
    rec::HELD.with(|h| {
        let held = h.borrow();
        let offending: Vec<&'static str> =
            held.iter().copied().filter(|s| !allowed.contains(s)).collect();
        if !offending.is_empty() {
            let mut crossings = super::plock(&rec::CROSSINGS);
            for lock in offending {
                *crossings.entry((io_point, lock)).or_insert(0) += 1;
            }
        }
    });
    #[cfg(not(feature = "lockcheck"))]
    {
        let _ = io_point;
        let _ = allowed;
    }
}

/// Snapshot everything recorded so far, in deterministic order. Empty
/// unless the `lockcheck` feature is enabled.
pub fn snapshot() -> LockObservations {
    #[cfg(feature = "lockcheck")]
    {
        let mut obs = LockObservations::new();
        for (&(from, to), &(count, ref stack)) in super::plock(&rec::EDGES).iter() {
            obs.edges.push(LockEdge {
                from: from.to_string(),
                to: to.to_string(),
                count,
                stack: stack.iter().map(|s| s.to_string()).collect(),
            });
        }
        for (&(io_point, lock), &count) in super::plock(&rec::CROSSINGS).iter() {
            obs.io_crossings.push(IoCrossing {
                io_point: io_point.to_string(),
                lock: lock.to_string(),
                count,
            });
        }
        obs
    }
    #[cfg(not(feature = "lockcheck"))]
    LockObservations::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesized_stacks_build_sorted_deduped_edges() {
        let mut obs = LockObservations::new();
        obs.record_stack(&["b", "c"]);
        obs.record_stack(&["a", "b", "c"]);
        let pairs: Vec<(&str, &str)> =
            obs.edges.iter().map(|e| (e.from.as_str(), e.to.as_str())).collect();
        assert_eq!(pairs, vec![("a", "b"), ("a", "c"), ("b", "c")]);
        let bc = obs.edges.iter().find(|e| e.from == "b" && e.to == "c").unwrap();
        assert_eq!(bc.count, 2);
        assert_eq!(bc.stack, vec!["b", "c"], "stack is from the first observation");
    }

    #[test]
    fn synthesized_crossings_dedupe_and_count() {
        let mut obs = LockObservations::new();
        obs.record_crossing("io", "lock-a");
        obs.record_crossing("io", "lock-a");
        obs.record_crossing("io", "lock-b");
        assert_eq!(obs.io_crossings.len(), 2);
        assert_eq!(obs.io_crossings[0].count, 2);
    }

    #[cfg(feature = "lockcheck")]
    #[test]
    fn recording_round_trips_through_the_global_registry() {
        use std::sync::Mutex;
        // Site names unique to this test so parallel tests cannot collide.
        let a: Mutex<i32> = Mutex::new(0);
        let b: Mutex<i32> = Mutex::new(0);
        {
            let _ga = crate::par::plock_named(&a, "lockreg-test.outer");
            let _gb = crate::par::plock_named(&b, "lockreg-test.inner");
            blocking_io("lockreg-test.io", &["lockreg-test.inner"]);
        }
        let obs = snapshot();
        let edge = obs
            .edges
            .iter()
            .find(|e| e.from == "lockreg-test.outer" && e.to == "lockreg-test.inner")
            .expect("nested acquisition recorded");
        assert_eq!(edge.stack, vec!["lockreg-test.outer", "lockreg-test.inner"]);
        let crossing = obs
            .io_crossings
            .iter()
            .find(|c| c.io_point == "lockreg-test.io")
            .expect("unallowed held lock recorded");
        assert_eq!(crossing.lock, "lockreg-test.outer", "allowed guard is exempt");
    }

    #[cfg(feature = "lockcheck")]
    #[test]
    fn release_pops_and_reacquisition_is_clean() {
        use std::sync::Mutex;
        let a: Mutex<i32> = Mutex::new(0);
        let b: Mutex<i32> = Mutex::new(0);
        // Sequential (non-nested) holds must record no ordering edge.
        drop(crate::par::plock_named(&a, "lockreg-test.seq1"));
        drop(crate::par::plock_named(&b, "lockreg-test.seq2"));
        let obs = snapshot();
        assert!(
            !obs.edges.iter().any(|e| e.from.starts_with("lockreg-test.seq")),
            "sequential holds are not an ordering: {:?}",
            obs.edges
        );
    }
}
