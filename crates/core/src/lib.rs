//! # ncar-suite — the NCAR Benchmark Suite framework
//!
//! The paper's primary contribution is a benchmark *suite*: thirteen
//! kernels and three complete geophysical applications chosen to
//! characterize NCAR's climate-modeling workload, together with a
//! measurement discipline (KTRIES best-of repetition, constant-data-volume
//! parameter ladders, Cray-equivalent Mflops). This crate implements that
//! framework:
//!
//! - [`mod@suite`] — the suite's composition and seven categories (§4);
//! - [`ktries`] — best-of-KTRIES repetition (§4);
//! - [`sweep`] — constant-volume (M, N) ladders and the FFT length
//!   families (§4.2–4.3);
//! - [`report`] — tables, figures and JSON artifacts the harness emits;
//! - [`compare`] — paper-vs-measured anchors and the audit scorecard;
//! - [`wire`] — the hermetic big-endian codec (history tapes, cache keys);
//! - [`json`] — fallible JSON parsing for the `sxd` wire protocol;
//! - [`hash`] — FNV-1a content hashing for the result cache;
//! - [`registry`] — ordered name → value lookup for runnable benchmarks;
//! - [`par`] — host-thread fan-out, the `--jobs` cap, the bounded
//!   [`WorkerPool`] the serving daemon executes on, and (behind the
//!   `lockcheck` feature) the [`par::lockreg`] named-lock-site registry
//!   that feeds sxcheck's lock-order deadlock analysis;
//! - [`reactor`] — the hermetic epoll/poll event loop the `sxd` daemon
//!   and cluster router serve on (readiness-driven frame decoding,
//!   idle-timeout wheel, shutdown as a wake event).
//!
//! The kernels themselves live in `ncar-kernels`; applications in
//! `ccm-proxy` and `ocean-models`; the machine under test in `sxsim`.

pub mod compare;
pub mod hash;
pub mod json;
pub mod ktries;
pub mod metrics;
pub mod par;
pub mod reactor;
pub mod registry;
pub mod report;
pub mod rng;
pub mod suite;
pub mod sweep;
pub mod wire;

pub use compare::{Comparison, PaperAnchor, Scorecard, Tolerance};
pub use hash::{fnv64, Fnv64};
pub use json::{Json, JsonError};
pub use ktries::{best_of, KTRIES_DEFAULT, KTRIES_VFFT};
pub use metrics::{
    Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, LATENCY_BUCKETS,
};
pub use par::{
    host_parallelism, par_map, par_map_with, plock, plock_named, set_host_parallelism, SiteGuard,
    WorkerPool,
};
pub use reactor::{Reactor, ReactorConfig, ReactorHandle};
pub use registry::Registry;
pub use report::{Artifact, Figure, Series, Table};
pub use rng::SmallRng;
pub use suite::{suite, Category, SuiteEntry};
pub use sweep::{
    constant_volume_ladder, rfft_instances, xpose_ladder, FftFamily, Instance, VFFT_M,
};
pub use wire::{WireError, WireReader, WireWriter};
