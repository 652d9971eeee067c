//! Named fault-injection points for the crash-safety tests.
//!
//! The SUPER-UX checkpoint/restart story (paper §2.6.2) is only worth
//! modeling if the daemon's own durability survives a crash at *any*
//! instant, not just between requests. This module plants named points in
//! the journal-write, compaction and drain paths; a test arms exactly one
//! of them through the environment and the daemon either aborts (as
//! `kill -9` would) or sees a forced IO error when execution reaches it.
//!
//! Arming: set `SXD_FAULTPOINT=<name>` (crash) or `SXD_FAULTPOINT=<name>:io`
//! (forced `std::io::Error`) before the daemon process starts. The
//! variable is read once and cached; fault points are meaningful per
//! process, matching how the kill-and-restart test spawns one daemon per
//! armed point.
//!
//! Everything here compiles to a no-op unless the crate is built with the
//! `faults` feature, so production binaries carry no injection machinery —
//! only the registry of names ([`FAULT_POINTS`]) stays available for docs
//! and test enumeration.

/// Every registered fault point, in pipeline order. The kill-and-restart
/// test iterates this list; keep it in sync with the `check`/`torn` call
/// sites.
pub const FAULT_POINTS: &[&str] = &[
    // Crash or IO-error before a result record reaches the journal.
    "journal.append",
    // Crash after half the record's bytes are written (a torn tail).
    "journal.append.torn",
    // Crash midway through writing the compaction snapshot temp file.
    "journal.compact.write",
    // Crash after the snapshot is complete but before the rename commits.
    "journal.compact.rename",
    // Crash or IO-error while persisting drain-checkpoint restart specs.
    "drain.persist",
];

/// What an armed fault point does when execution reaches it. Public
/// because only a `faults` build constructs it, while the journal matches
/// on it in every build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Abort the process on the spot (the `kill -9` model).
    Crash,
    /// Surface a forced `std::io::Error` to the caller.
    IoError,
}

#[cfg(feature = "faults")]
mod armed {
    use super::Fault;
    use std::sync::OnceLock;

    static ARMED: OnceLock<Option<(String, Fault)>> = OnceLock::new();

    pub(crate) fn armed(name: &str) -> Option<Fault> {
        let slot = ARMED.get_or_init(|| {
            let spec = std::env::var("SXD_FAULTPOINT").ok()?;
            let (point, fault) = match spec.split_once(':') {
                Some((p, "io")) => (p, Fault::IoError),
                Some((p, _)) => (p, Fault::Crash),
                None => (spec.as_str(), Fault::Crash),
            };
            Some((point.to_string(), fault))
        });
        match slot {
            Some((point, fault)) if point == name => Some(*fault),
            _ => None,
        }
    }
}

/// Is the named point armed in this process, and to do what?
#[cfg(feature = "faults")]
pub(crate) fn armed(name: &str) -> Option<Fault> {
    armed::armed(name)
}

/// Is the named point armed in this process, and to do what?
#[cfg(not(feature = "faults"))]
pub(crate) fn armed(_name: &str) -> Option<Fault> {
    None
}

/// Execute the named fault point: abort if armed to crash, return a typed
/// IO error if armed to fail, fall straight through otherwise (and always,
/// when the `faults` feature is off).
pub(crate) fn check(name: &str) -> std::io::Result<()> {
    match armed(name) {
        Some(Fault::Crash) => std::process::abort(),
        Some(Fault::IoError) => Err(std::io::Error::other(format!("fault injected at {name}"))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for p in FAULT_POINTS {
            assert!(seen.insert(*p), "duplicate fault point {p}");
        }
        assert!(FAULT_POINTS.contains(&"journal.append"));
        assert!(FAULT_POINTS.contains(&"drain.persist"));
    }

    #[test]
    fn unarmed_points_fall_through() {
        // Whatever the feature set, a point that is not armed (the test
        // runner never sets SXD_FAULTPOINT) must be a clean no-op.
        assert_eq!(armed("journal.append"), None);
        assert!(check("journal.append").is_ok());
        assert!(check("not.a.point").is_ok());
    }
}
