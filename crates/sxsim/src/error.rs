//! Typed errors for the simulator's fallible public APIs.

use std::fmt;

/// What went wrong inside the simulator.
///
/// These conditions used to panic; they are surfaced as values so callers
/// driving the simulator from user input (the bench CLI, the checker) can
/// report them instead of aborting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// `Ftrace::enter` while another region is open (regions don't nest).
    RegionAlreadyOpen { open: String, attempted: String },
    /// `Ftrace::exit` without a matching `enter`.
    NoOpenRegion,
    /// A parallel region asked for more processors than the node has.
    TooManyProcs { requested: usize, available: usize },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::RegionAlreadyOpen { open, attempted } => {
                write!(f, "FTRACE region {attempted:?} entered while {open:?} is open (regions do not nest)")
            }
            SimError::NoOpenRegion => write!(f, "FTRACE exit without a matching enter"),
            SimError::TooManyProcs { requested, available } => {
                write!(f, "parallel region wants {requested} processors; the node has {available}")
            }
        }
    }
}

impl std::error::Error for SimError {}
