//! Constant-input checks, run once per process.
//!
//! Some kernel points carry a functional spot check whose inputs are
//! constants (ELEFUNT's finite-value sweep, an FFT length's round trip):
//! they depend on neither the machine nor the request, so re-running one in
//! the same binary can only repeat its answer. A [`CheckOnce`] records each
//! key whose check has passed and skips it from then on. A check that
//! panics records nothing, so the next call runs it, and panics, again.

use std::collections::BTreeSet;
use std::sync::{Mutex, PoisonError};

/// The keys whose check has passed in this process.
pub(crate) struct CheckOnce<K> {
    passed: Mutex<BTreeSet<K>>,
}

impl<K: Ord> CheckOnce<K> {
    pub(crate) const fn new() -> Self {
        CheckOnce { passed: Mutex::new(BTreeSet::new()) }
    }

    /// Run `check` unless `key` has passed before; record `key` once
    /// `check` returns. The lock is not held while `check` runs, so
    /// distinct keys check in parallel (and two threads racing on one new
    /// key may both run it, which repeats the same answer). The guard is
    /// held only by `contains` and `insert`, which leave the set valid even
    /// if they panic, so a poisoned lock is recovered.
    pub(crate) fn run(&self, key: K, check: impl FnOnce()) {
        if self.passed.lock().unwrap_or_else(PoisonError::into_inner).contains(&key) {
            return;
        }
        check();
        self.passed.lock().unwrap_or_else(PoisonError::into_inner).insert(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn a_passing_check_runs_once_per_key() {
        let once = CheckOnce::new();
        let runs = Cell::new(0);
        for _ in 0..3 {
            once.run(7, || runs.set(runs.get() + 1));
        }
        assert_eq!(runs.get(), 1);
        once.run(8, || runs.set(runs.get() + 1));
        assert_eq!(runs.get(), 2, "a new key runs its check");
        once.run(7, || runs.set(runs.get() + 1));
        assert_eq!(runs.get(), 2);
    }

    #[test]
    fn a_panicking_check_panics_on_every_call_and_is_not_recorded() {
        let once = CheckOnce::new();
        let runs = Cell::new(0);
        for call in 1..=2 {
            let r = catch_unwind(AssertUnwindSafe(|| {
                once.run(3, || {
                    runs.set(runs.get() + 1);
                    panic!("check failed");
                })
            }));
            assert!(r.is_err(), "call {call} did not panic");
            assert_eq!(runs.get(), call);
        }
        assert!(once.passed.lock().unwrap().is_empty());
        // The key still runs its check once a passing one comes along.
        once.run(3, || runs.set(runs.get() + 1));
        assert_eq!(runs.get(), 3);
        once.run(3, || runs.set(runs.get() + 1));
        assert_eq!(runs.get(), 3);
    }
}
