//! # ocean-models — the two ocean applications of the NCAR suite
//!
//! - `mom` ([`Mom`]) — the MOM benchmark proxy (paper §4.7.2): rigid-lid
//!   finite-difference primitive-equation structure with the serial
//!   barotropic solve and every-10-steps diagnostics that shape Table 7's
//!   speedup curve;
//! - `pop` ([`Pop`]) — the POP benchmark proxy (§4.7.3): implicit
//!   free-surface solve by conjugate gradients, with the pre-release-
//!   compiler "CSHIFT does not vectorize" behaviour as a switch;
//! - `eos` — the shared equation of state;
//! - `poisson` — the elliptic solvers (Jacobi for the rigid lid, CG for
//!   the free surface).

// Index-based loops over grids read as the stencil math they implement.
#![allow(clippy::needless_range_loop)]

mod eos;
mod mom;
mod poisson;
mod pop;

pub use mom::{Mom, MomConfig, MomStepTiming};
pub use pop::{Pop, PopConfig, PopStepTiming};
