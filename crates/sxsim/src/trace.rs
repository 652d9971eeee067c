//! Operation tracing — the one charge recorder, and the substrate for
//! `sxcheck`.
//!
//! A [`Vm`](crate::Vm) can carry an [`OpTrace`]: when enabled (see
//! [`Vm::start_trace`](crate::Vm::start_trace)), every charge the ledger
//! sees is also appended to the trace as a [`TraceEvent`], with the exact
//! cost the timing model assigned. FTRACE region boundaries are recorded
//! too, so an analyzer can attribute hazards to the region they occur in.
//!
//! The trace stores runs: consecutive events that are bitwise identical
//! (f64 costs compared by `to_bits`, so `0.0` and `-0.0` stay apart) fold
//! into one `(event, reps)` pair, and a batched charge
//! ([`Vm::charge_vector_op_repeated`](crate::Vm::charge_vector_op_repeated),
//! [`Vm::charge_intrinsic_repeated`](crate::Vm::charge_intrinsic_repeated))
//! pushes a single run. A CCM2 step's millions of charges fold into a few
//! hundred thousand runs, and a batched charge traces exactly like the
//! loop of single charges it stands for.
//!
//! Normal runs pay nothing: the trace is an `Option<Box<OpTrace>>` that is
//! `None` unless explicitly enabled, so the recording hook in each charge
//! path is a single branch on a null pointer.
//!
//! Consumers implement [`Recorder`] and feed it via [`OpTrace::replay`],
//! which expands every run into one `record` call per charge; that is how
//! the `sxcheck` crate's lints and ledger auditor see the op stream
//! without the simulator depending on them.

use crate::cost::Cost;
use crate::model::{Intrinsic, VopClass};
use crate::timing::Access;

/// One recorded charge against a [`Vm`](crate::Vm) ledger. Equality is
/// bitwise: costs compare by the bits of their f64 fields.
#[derive(Debug, Clone)]
pub enum TraceEvent {
    /// An elementwise vector operation (or its cache-machine pricing).
    VecOp {
        class: VopClass,
        /// Elements processed.
        n: usize,
        /// Access pattern of each input stream.
        loads: Vec<Access>,
        /// Access pattern of each output stream.
        stores: Vec<Access>,
        /// Exact cost the timing model charged.
        cost: Cost,
    },
    /// A scalar loop (cache-machine path or scalar residue).
    ScalarLoop { iters: usize, cost: Cost },
    /// `n` vectorizable intrinsic calls.
    Intrinsic { f: Intrinsic, n: usize, cost: Cost },
    /// An arbitrary pre-computed charge (I/O waits, barriers, OS overhead).
    Charge { cost: Cost },
    /// An FTRACE region opened.
    EnterRegion { name: String },
    /// The open FTRACE region closed.
    ExitRegion { name: String },
}

impl TraceEvent {
    /// The cost this event charged (zero for region markers).
    pub fn cost(&self) -> Cost {
        match self {
            TraceEvent::VecOp { cost, .. }
            | TraceEvent::ScalarLoop { cost, .. }
            | TraceEvent::Intrinsic { cost, .. }
            | TraceEvent::Charge { cost } => *cost,
            TraceEvent::EnterRegion { .. } | TraceEvent::ExitRegion { .. } => Cost::ZERO,
        }
    }
}

fn cost_bits(c: &Cost) -> [u64; 4] {
    [c.cycles.to_bits(), c.flops, c.cray_flops.to_bits(), c.bytes]
}

impl PartialEq for TraceEvent {
    fn eq(&self, other: &TraceEvent) -> bool {
        use TraceEvent as E;
        let same = |a: &Cost, b: &Cost| cost_bits(a) == cost_bits(b);
        match (self, other) {
            (
                E::VecOp { class, n, loads, stores, cost },
                E::VecOp { class: c2, n: n2, loads: l2, stores: s2, cost: k2 },
            ) => class == c2 && n == n2 && loads == l2 && stores == s2 && same(cost, k2),
            (E::ScalarLoop { iters, cost }, E::ScalarLoop { iters: i2, cost: k2 }) => {
                iters == i2 && same(cost, k2)
            }
            (E::Intrinsic { f, n, cost }, E::Intrinsic { f: f2, n: n2, cost: k2 }) => {
                f == f2 && n == n2 && same(cost, k2)
            }
            (E::Charge { cost }, E::Charge { cost: k2 }) => same(cost, k2),
            (E::EnterRegion { name }, E::EnterRegion { name: n2 })
            | (E::ExitRegion { name }, E::ExitRegion { name: n2 }) => name == n2,
            _ => false,
        }
    }
}

impl Eq for TraceEvent {}

/// A consumer of recorded op streams. Implementations are driven in event
/// order by [`OpTrace::replay`].
pub trait Recorder {
    fn record(&mut self, ev: &TraceEvent);
}

/// An in-memory op stream recorded by a tracing [`Vm`](crate::Vm), stored
/// as runs of identical events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpTrace {
    runs: Vec<(TraceEvent, usize)>,
}

impl OpTrace {
    pub fn new() -> OpTrace {
        OpTrace::default()
    }

    /// Append `reps` copies of `ev`, extending the last run when it holds
    /// the same event.
    pub(crate) fn push_run(&mut self, ev: TraceEvent, reps: usize) {
        if reps == 0 {
            return;
        }
        match self.runs.last_mut() {
            Some((last, n)) if *last == ev => *n += reps,
            _ => self.runs.push((ev, reps)),
        }
    }

    /// The recorded runs, in charge order: each event with how many times
    /// in a row it was charged.
    pub fn runs(&self) -> &[(TraceEvent, usize)] {
        &self.runs
    }

    /// Every recorded event, in charge order, runs expanded.
    pub(crate) fn events(&self) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.runs.iter().flat_map(|(ev, n)| std::iter::repeat_n(ev, *n))
    }

    /// Events recorded (the sum of the run lengths).
    pub fn len(&self) -> usize {
        self.runs.iter().map(|(_, n)| n).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Drive a [`Recorder`] through the whole stream, one `record` call
    /// per event.
    pub fn replay<R: Recorder + ?Sized>(&self, r: &mut R) {
        for ev in self.events() {
            r.record(ev);
        }
    }
}

impl Recorder for OpTrace {
    fn record(&mut self, ev: &TraceEvent) {
        self.push_run(ev.clone(), 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::timing::VecOp;
    use crate::vm::Vm;

    #[test]
    fn untraced_vm_records_nothing() {
        let mut vm = Vm::new(presets::sx4_benchmarked());
        let a = vec![1.0f64; 256];
        let mut b = vec![0.0f64; 256];
        vm.copy(&mut b, &a);
        assert!(vm.take_trace().is_none());
    }

    #[test]
    fn traced_vm_records_every_charge_with_exact_costs() {
        let mut vm = Vm::new(presets::sx4_benchmarked());
        vm.start_trace();
        let a = vec![1.0f64; 256];
        let mut b = vec![0.0f64; 256];
        vm.copy(&mut b, &a);
        vm.sqrt(&mut b, &a);
        vm.charge(Cost::cycles(12.5));
        let trace = vm.take_trace().expect("trace was enabled");
        assert_eq!(trace.len(), 3);
        let total: f64 = trace.events().map(|e| e.cost().cycles).sum();
        assert!((total - vm.lifetime_cost().cycles).abs() < 1e-9);
        let events: Vec<&TraceEvent> = trace.events().collect();
        assert!(matches!(events[0], TraceEvent::VecOp { n: 256, .. }));
        assert!(matches!(events[1], TraceEvent::Intrinsic { f: Intrinsic::Sqrt, n: 256, .. }));
    }

    #[test]
    fn replay_reproduces_the_stream() {
        let mut vm = Vm::new(presets::sx4_benchmarked());
        vm.start_trace();
        let a = vec![1.0f64; 64];
        let mut b = vec![0.0f64; 64];
        vm.add(&mut b, &a, &a);
        vm.charge_vector_op_repeated(&VecOp::new(64, VopClass::Add, &[Access::Stride(1)], &[]), 4);
        let trace = vm.take_trace().unwrap();
        let mut copy = OpTrace::new();
        trace.replay(&mut copy);
        assert_eq!(trace, copy);
        assert_eq!(copy.len(), 5);
    }

    #[test]
    fn recording_coalesces_consecutive_identical_charges() {
        let op = |n| {
            VecOp::new(
                n,
                VopClass::Fma,
                &[Access::Stride(1), Access::Stride(1)],
                &[Access::Stride(1)],
            )
        };
        let mut vm = Vm::new(presets::sx4_benchmarked());
        vm.start_trace();
        vm.charge_vector_op_repeated(&op(128), 3);
        vm.charge_vector_op_repeated(&op(128), 5);
        vm.charge_vector_op_repeated(&op(64), 2);
        vm.charge_intrinsic(Intrinsic::Sqrt, 100);
        vm.charge_intrinsic(Intrinsic::Sqrt, 100);
        let t = vm.take_trace().expect("tracing was on");
        let runs = t.runs();
        assert_eq!(runs.len(), 3, "{runs:?}");
        assert_eq!(t.len(), 3 + 5 + 2 + 2);
        assert!(matches!(runs[0], (TraceEvent::VecOp { n: 128, .. }, 8)));
        assert!(matches!(runs[2], (TraceEvent::Intrinsic { .. }, 2)));
    }

    #[test]
    fn f64_costs_coalesce_by_bits() {
        let mut vm = Vm::new(presets::sx4_benchmarked());
        vm.start_trace();
        vm.charge(Cost::cycles(0.0));
        vm.charge(Cost::cycles(-0.0));
        vm.charge(Cost::cycles(-0.0));
        vm.charge(Cost::cycles(0.0));
        let t = vm.take_trace().unwrap();
        let signs: Vec<(bool, usize)> =
            t.runs().iter().map(|(ev, n)| (ev.cost().cycles.is_sign_negative(), *n)).collect();
        assert_eq!(signs, [(false, 1), (true, 2), (false, 1)]);
    }
}
