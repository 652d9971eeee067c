//! # othersuites — the comparison benchmarks of the paper's §3
//!
//! Before describing its own suite, the paper evaluates why the existing
//! suites were inappropriate for NCAR's procurement. Implementing them
//! makes those arguments executable:
//!
//! - [`mod@linpack`] — dense LU (order 100/1000): "tends to measure peak
//!   performance";
//! - `hint` — hierarchical integration (QUIPS): "better tuned to
//!   measuring scalar processor performance than the performance of
//!   vector processors" (the famous Table 1 inversion);
//! - [`mod@stream`] — the four fixed-size long-vector bandwidth operations,
//!   against which the NCAR COPY's constant-volume *ladder* is the
//!   contrast.
//!
//! The NAS Parallel Benchmarks (§3.2) are pencil-and-paper specifications
//! the paper discusses but never runs; they are intentionally not built
//! (see DESIGN.md).

mod hint;
pub mod linpack;
pub mod linpack_tpp;
pub mod stream;

pub use hint::{hint_mquips, run_hint, HintResult};
pub use linpack::{linpack, LinpackResult};
pub use linpack_tpp::{linpack_tpp, lu_blocked};
pub use stream::{run_op, stream_table, StreamOp, StreamResult};
