//! # sxd — the benchmark-serving daemon
//!
//! The paper's SX-4 was not a workstation: it was a shared, batch-
//! scheduled machine front-ended by NQS (paper §2.6.3), taking jobs from
//! many users and multiplexing them onto Resource Blocks of a real-memory
//! node. This crate reproduces that *service* shape around the simulated
//! suite: a long-running daemon accepting benchmark jobs over a newline-
//! delimited-JSON TCP protocol, admitting them through the same Resource-
//! Block gate as [`superux::Admission`], executing them on a bounded
//! worker pool, and answering repeats from a content-addressed result
//! cache.
//!
//! - `proto` — frame reading with a hard cap, fallible request parsing,
//!   the FNV-1a cache key over (code version, suite, machine model bytes,
//!   parameter set);
//! - `cache` — the LRU result cache with hit/miss accounting;
//! - [`journal`] — the durable write-ahead result journal (checksummed
//!   records, torn-tail truncation, snapshot compaction) and the drain-
//!   checkpoint restart specs, the daemon's SUPER-UX checkpoint/restart
//!   analogue (paper §2.6.2);
//! - [`faultpoint`] — named crash/IO-error injection points (behind the
//!   `faults` feature) that the kill-and-restart tests arm one at a time;
//! - `server` — the daemon: accept loop, bounded admission wait,
//!   contention-stretched simulated seconds, single-flighted identical
//!   submits, always-consistent counters, and the `METRICS` verb serving
//!   per-stage latency histograms and level gauges (the daemon's PROGINF/
//!   FTRACE analogue, backed by `ncar_suite::metrics`);
//! - `client` — typed client, plus the `flood` load generator that
//!   reproduces the ensemble regime of Table 6 over live connections;
//! - [`cluster`] — the multi-node fabric (the paper's IXS crossbar, §1):
//!   N shard daemons behind a rendezvous-hash router with cluster-wide
//!   merged observability and keyspace hand-off on member drain;
//! - `error` — [`SxdError`]: every failure as a value; the serving path
//!   never panics on client input.

mod cache;
mod client;
pub mod cluster;
mod error;
pub mod faultpoint;
pub mod journal;
mod proto;
mod server;

pub use client::{flood, Client, FloodConfig, FloodOutcome, Submission};
pub use cluster::{Cluster, ClusterConfig, Ring, Router, RouterMember};
pub use error::SxdError;
pub use journal::Journal;
pub use proto::{cache_key, Request, MAX_REQUEST_FRAME};
pub use server::{Demand, JobEntry, Server, ServerConfig};
