//! `servebench`: the repository's end-to-end serving benchmark.
//!
//! It builds `ncar-bench` from the checkout, starts `ncar-bench serve` as a
//! child process, and drives it through the public `sxd::Client` with two
//! closed-loop connections. Three workloads load different layers; see
//! `README.md` for what each measures and which metric each layer moves.

pub mod daemon;
pub mod gates;
pub mod host;
pub mod layers;
pub mod load;
pub mod run;
pub mod stats;
pub mod trace;
