//! # sxsim — a functional + analytic-timing simulator of the NEC SX-4
//!
//! This crate is the hardware substrate for the NCAR Benchmark Suite
//! reproduction. The real SX-4 is long gone, so every benchmark in this
//! workspace runs against a *simulated* machine: kernels perform their real
//! computation on real data through the [`Vm`] facade, and every primitive
//! operation is charged cycles by an analytic model of the machine —
//! strip-mined vector chimes, pipe-set rates, memory-port bandwidth, bank
//! conflicts, gather/scatter hardware, scalar caches, node-level
//! contention, the XMU semiconductor disk and the IXS internode crossbar.
//!
//! ## Layout
//!
//! - [`model`] — [`MachineModel`] and its components;
//! - [`presets`] — the machines of the paper: SX-4 (8.0/9.2 ns), CRI Y-MP,
//!   CRI J90, Sun SPARC20, IBM RS6000/590;
//! - [`cost`] — the cycle/flop/byte ledger; all simulated time derives
//!   from it (no wall clocks — runs are bit-reproducible);
//! - [`timing`] — the analytic cost of vector ops, scalar loops and
//!   intrinsic calls;
//! - `vm` — the functional facade kernels program against; a pricing
//!   processor ([`Vm::pricing`]) takes every charge and skips the
//!   arithmetic, which is how the applications price a step without
//!   computing it;
//! - `error` — [`SimError`], the typed error for misuse of the facade
//!   (oversubscribed nodes, mismatched regions);
//! - [`node`] — multi-processor regions, barriers (a per-preset constant,
//!   `MachineModel::barrier_cycles`), contention, co-scheduling;
//! - `trace` — the [`Recorder`] hook and [`OpTrace`]: the one charge
//!   recorder, optional and pay-only-if-used, storing every charged
//!   operation with its exact cost as runs of identical events;
//! - [`proginf`], `ftrace` — the two SUPER-UX diagnostic reports,
//!   reproduced from the ledger (see below);
//! - `xmu`, `ixs` — extended memory and internode crossbar.
//!
//! ## Diagnostics: PROGINF, FTRACE, and sxcheck
//!
//! The real SX-4 shipped three layers of performance introspection, and so
//! does the simulator:
//!
//! - **PROGINF** ([`Proginf`]) is the whole-run summary SUPER-UX printed at
//!   job exit: vector-operation ratio, average vector length, Mflops, and
//!   the cycle partition between vector, scalar and overhead time. Here it
//!   is derived entirely from the [`Vm`]'s cost ledger.
//! - **FTRACE** ([`Ftrace`]) is the per-region profile: wrap code in
//!   [`Ftrace::region`] and each named region accumulates its own ledger
//!   slice, exactly like compiling with `f77 -ftrace`.
//! - **sxcheck** (the `sxcheck` crate) is the analyzer this workspace adds
//!   on top: call [`Vm::start_trace`] before a run, hand the recorded
//!   [`OpTrace`] to `sxcheck::check_trace`, and it replays the op stream
//!   through vectorization lints (short vector lengths, low v-op ratio,
//!   gather/scatter domination, power-of-two bank-conflict strides, Amdahl
//!   scalar fractions) and a ledger auditor that cross-checks trace,
//!   PROGINF and FTRACE totals against the lifetime ledger.
//!
//! Tracing is strictly opt-in: a [`Vm`] without a trace attached carries an
//! `Option<Box<OpTrace>>` that stays `None`, and the recording hook is a
//! closure that is never called, so untraced runs pay nothing.
//!
//! ## Example
//!
//! ```
//! use sxsim::{presets, Vm};
//!
//! let mut vm = Vm::new(presets::sx4_benchmarked());
//! let a = vec![1.0f64; 1 << 16];
//! let b = vec![2.0f64; 1 << 16];
//! let mut c = vec![0.0f64; 1 << 16];
//! vm.add(&mut c, &a, &b);          // really computes c = a + b
//! assert_eq!(c[0], 3.0);
//! let t = vm.seconds();             // simulated SX-4 time, not host time
//! assert!(t > 0.0);
//! ```

pub mod cost;
mod error;
mod ftrace;
mod inline_vec;
mod ixs;
pub mod model;
pub mod node;
pub mod presets;
pub mod proginf;
pub mod timing;
mod trace;
mod vm;
mod xmu;

pub use cost::Cost;
pub use error::SimError;
pub use ftrace::{render_analysis_list, Ftrace, FtraceRow, RegionTotals};
pub use ixs::Ixs;
pub use model::{Intrinsic, MachineModel, VopClass};
pub use node::{JobDemand, Node, NodeTiming, Region};
pub use proginf::{OpStats, Proginf};
pub use timing::{Access, LocalityPattern, VecOp, MAX_STREAMS};
pub use trace::{OpTrace, Recorder, TraceEvent};
pub use vm::Vm;
pub use xmu::Xmu;
