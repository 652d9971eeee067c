//! # sxcheck — static hazard analysis for the simulated SX-4
//!
//! The simulator ([`sxsim`]) charges every operation an analytic cost; this
//! crate consumes the op streams a tracing [`Vm`](sxsim::Vm) records and
//! turns them into deterministic diagnostics:
//!
//! - **`vlint`** — vectorization lints per FTRACE region: short average
//!   vector length (SXC001), low vector-operation ratio (SXC002),
//!   gather/scatter-dominated traffic (SXC003), power-of-two strides
//!   colliding on the banked memory (SXC004), Amdahl warnings when too
//!   much of a region is scalar or overhead (SXC005), aggregate bank
//!   pressure (SXC006), reloads with no intervening write (SXC007) and
//!   short strip-mine remainders (SXC008);
//! - **[`lockgraph`]** — lock-order analysis over [`ncar_suite::par::lockreg`]
//!   observations: acquisition-order cycles are potential deadlocks
//!   (SXC301) and guards held across blocking IO are convoy hazards
//!   (SXC302);
//! - **[`audit`]** — a cost-ledger auditor that cross-checks the trace
//!   sum, the PROGINF cycle partition and FTRACE region totals against the
//!   lifetime ledger (SXC201–SXC204);
//! - **[`fixtures`]** — seeded pathologies (a stride-128 copy, an inverted
//!   lock pair) that must be flagged, plus clean controls that must not be.
//!
//! Reports are byte-identical across runs on the same input: aggregation
//! uses ordered maps, rendering sorts findings, and nothing reads a clock.
//!
//! ## Example
//!
//! ```
//! use sxsim::{presets, Vm};
//!
//! let mut vm = Vm::new(presets::sx4_benchmarked());
//! vm.start_trace();
//! let n = 8_192;
//! let src = vec![1.0f64; n * 128];
//! let mut dst = vec![0.0f64; n * 128];
//! vm.copy_strided(&mut dst, 128, &src, 128, n); // power-of-two stride!
//! let model = vm.model().clone();
//! let trace = vm.take_trace().unwrap();
//! let mut report = sxcheck::check_trace(&model, &trace);
//! assert!(report.has_code("SXC004"));
//! println!("{}", report.render());
//! ```

pub mod audit;
pub mod fixtures;
pub mod lockgraph;
pub mod report;
mod vlint;

pub use report::{Diagnostic, Report, Severity};
pub(crate) use vlint::VectorLinter;

use sxsim::{MachineModel, OpTrace};

/// Run the vectorization lints over a recorded trace — the one-call entry
/// point for "what would an SX-4 performance engineer say about this run".
pub fn check_trace(model: &MachineModel, trace: &OpTrace) -> Report {
    let mut linter = VectorLinter::new();
    trace.replay(&mut linter);
    let mut report = Report::new();
    report.extend(linter.diagnostics(model));
    report
}
