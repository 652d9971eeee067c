//! # ccm-proxy — a spectral-transform atmospheric model with CCM2's
//! cost structure
//!
//! The paper's flagship application benchmark is the NCAR Community
//! Climate Model version 2 (CCM2): ~40,000 lines of vector-optimized
//! Fortran 77 built on the spherical-harmonic transform method. This crate
//! rebuilds the pieces that determine CCM2's computational behaviour:
//!
//! - `resolution` — the T42..T170, L18 resolutions of Table 4;
//! - [`gauss`] / [`legendre`] / `spectral` — the Gaussian grid and the
//!   spherical-harmonic transform (exact round-trips, tested);
//! - `physics` — RADABS-centred column physics;
//! - [`slt`] — shape-preserving semi-Lagrangian moisture transport;
//! - [`model`] — the 18-level semi-implicit leapfrog model whose steps are
//!   priced on a simulated SX-4 node, driving Figure 8, Table 5 and
//!   Table 6;
//! - `steady` — priced steps: a step's timing without its arithmetic,
//!   which serves those experiments.

// Index-based loops over grids read as the stencil math they implement.
#![allow(clippy::needless_range_loop)]

pub mod gauss;
pub mod legendre;
pub mod model;
mod physics;
mod resolution;
pub mod slt;
mod spectral;
mod steady;
mod vertical;

pub use model::{Ccm2Config, Ccm2Proxy, StepTiming};
pub use resolution::Resolution;
pub use steady::{steady_step, steady_step_multinode, steady_step_traced};
