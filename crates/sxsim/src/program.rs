//! Charge programs — record a [`Vm`](crate::Vm)'s charge sequence once,
//! replay it many times.
//!
//! The applications in this workspace (the CCM2 proxy, MOM, POP) issue the
//! *same* charge sequence every timestep: which vector ops a step charges
//! depends only on the configuration and grid shapes, never on the field
//! values. The op-by-op loop therefore re-executes the whole functional
//! model just to re-derive a charge stream it has already seen — the
//! interpreter-vs-compiled-dispatch gap. A [`ChargeProgram`] is the
//! compiled form: the recorded sequence of charge descriptors with
//! run-length-coalesced repetition structure, replayable against any `Vm`
//! of the same machine in one batched pass.
//!
//! ## The bit-identity contract
//!
//! Replay goes through the exact batched charge entry points the original
//! call sites used ([`Vm::charge_vector_op_repeated`],
//! [`Vm::charge_intrinsic_repeated`], …), so the `reps`-batching contract
//! those methods guarantee extends to whole programs: after
//! [`Vm::replay_program`] every f64 in the window and lifetime ledgers,
//! every [`OpStats`](crate::OpStats) counter (including timing-memo
//! hit/miss accounting) and every trace event is **bit-identical** to a
//! `Vm` that executed the original charge calls one by one. Run-length
//! coalescing preserves this: `repeated(op, a)` directly followed by
//! `repeated(op, b)` charges and accounts exactly like `repeated(op, a+b)`
//! (the second call's single memo lookup hits the slot the first call
//! filled, matching the `a+b-1` forced hits of the fused call).
//!
//! ## Storage
//!
//! A step program runs to tens of thousands of instructions over a few
//! hundred distinct descriptors, and a [`VecOp`] with its inline access
//! lists is ~150 bytes. The program therefore interns each distinct
//! descriptor once in a table and stores every instruction as a
//! (table index, repetitions) pair of two `u32`s — what lets a process keep
//! recorded steps around ([`ChargeProgram::heap_bytes`] reports the cost).

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::cost::Cost;
use crate::model::Intrinsic;
use crate::timing::{LocalityPattern, VecOp};

/// One distinct charge descriptor of a recorded program. A program stores
/// each distinct descriptor once and refers to it by index, so a
/// descriptor's size is paid per distinct shape, not per instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgramOp {
    /// A vector operation
    /// ([`Vm::charge_vector_op_repeated`](crate::Vm::charge_vector_op_repeated)).
    Vector(VecOp),
    /// A sweep of `n` intrinsic calls
    /// ([`Vm::charge_intrinsic_repeated`](crate::Vm::charge_intrinsic_repeated)).
    Intrinsic { f: Intrinsic, n: usize },
    /// A scalar loop; `branches` is `Some` for the branchy variant
    /// ([`Vm::charge_scalar_loop_branchy`](crate::Vm::charge_scalar_loop_branchy)).
    ScalarLoop {
        iters: usize,
        flops: f64,
        loads: f64,
        stores: f64,
        branches: Option<f64>,
        pattern: LocalityPattern,
    },
    /// A raw charge ([`Vm::charge`](crate::Vm::charge)).
    Raw(Cost),
}

/// Interning key: a descriptor compared and hashed by the exact bits it
/// replays with (f64 fields by `to_bits`, so `0.0` and `-0.0` stay apart).
#[derive(Debug, Clone)]
struct Key(ProgramOp);

impl Key {
    fn cost_bits(c: &Cost) -> [u64; 4] {
        [c.cycles.to_bits(), c.flops, c.cray_flops.to_bits(), c.bytes]
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        use ProgramOp as P;
        match (&self.0, &other.0) {
            (P::Vector(a), P::Vector(b)) => a == b,
            (P::Intrinsic { f, n }, P::Intrinsic { f: g, n: m }) => f == g && n == m,
            (
                P::ScalarLoop { iters, flops, loads, stores, branches, pattern },
                P::ScalarLoop {
                    iters: i2,
                    flops: f2,
                    loads: l2,
                    stores: s2,
                    branches: b2,
                    pattern: p2,
                },
            ) => {
                iters == i2
                    && flops.to_bits() == f2.to_bits()
                    && loads.to_bits() == l2.to_bits()
                    && stores.to_bits() == s2.to_bits()
                    && branches.map(f64::to_bits) == b2.map(f64::to_bits)
                    && pattern == p2
            }
            (P::Raw(a), P::Raw(b)) => Key::cost_bits(a) == Key::cost_bits(b),
            _ => false,
        }
    }
}

impl Eq for Key {}

impl Hash for Key {
    fn hash<H: Hasher>(&self, h: &mut H) {
        std::mem::discriminant(&self.0).hash(h);
        match &self.0 {
            ProgramOp::Vector(op) => op.hash(h),
            ProgramOp::Intrinsic { f, n } => (f, n).hash(h),
            ProgramOp::ScalarLoop { iters, flops, loads, stores, branches, pattern } => {
                (iters, flops.to_bits(), loads.to_bits(), stores.to_bits()).hash(h);
                (branches.map(f64::to_bits), pattern).hash(h);
            }
            ProgramOp::Raw(c) => Key::cost_bits(c).hash(h),
        }
    }
}

/// One instruction: an index into the program's descriptor table and how
/// many times in a row that descriptor was charged.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Instr {
    op: u32,
    reps: u32,
}

/// A recorded charge sequence in compact IR form: every distinct
/// descriptor is stored once in a table, each instruction is a
/// (descriptor index, repetitions) pair of 8 bytes, and consecutive
/// identical charges are run-length coalesced into one instruction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChargeProgram {
    table: Vec<ProgramOp>,
    code: Vec<Instr>,
}

impl ChargeProgram {
    pub fn new() -> ChargeProgram {
        ChargeProgram::default()
    }

    /// The program's instructions, in charge order: each descriptor with
    /// its repetition count.
    pub fn ops(&self) -> impl Iterator<Item = (&ProgramOp, usize)> + '_ {
        self.code.iter().map(|i| (&self.table[i.op as usize], i.reps as usize))
    }

    /// Instructions after coalescing.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Total charge calls the program stands for (sum of repetitions) —
    /// `total_charges() / len()` is the compression the coalescing bought.
    pub fn total_charges(&self) -> usize {
        self.ops().map(|(_, reps)| reps).sum()
    }

    /// Heap bytes the program holds: the descriptor table and the
    /// instruction stream.
    pub fn heap_bytes(&self) -> usize {
        self.table.capacity() * std::mem::size_of::<ProgramOp>()
            + self.code.capacity() * std::mem::size_of::<Instr>()
    }
}

/// The recording side of a [`ChargeProgram`]: the program under
/// construction plus the descriptor → table index map used to intern
/// descriptors. The map is dropped when the program is taken.
#[derive(Debug, Clone, Default)]
pub(crate) struct Recorder {
    program: ChargeProgram,
    index: HashMap<Key, u32>,
}

impl Recorder {
    /// Append `reps` charges of `op`, coalescing with the previous
    /// instruction when it names the same descriptor. Counts beyond
    /// `u32::MAX` split into several instructions, which replays
    /// identically (see the module docs).
    pub(crate) fn push(&mut self, op: ProgramOp, mut reps: usize) {
        let key = Key(op);
        let next = u32::try_from(self.program.table.len())
            .expect("a program has fewer than 2^32 distinct descriptors");
        let idx = *self.index.entry(key).or_insert_with_key(|k| {
            self.program.table.push(k.0.clone());
            next
        });
        let code = &mut self.program.code;
        if let Some(last) = code.last_mut() {
            if last.op == idx {
                let room = (u32::MAX - last.reps) as usize;
                let take = room.min(reps);
                last.reps += take as u32;
                reps -= take;
            }
        }
        while reps > 0 {
            let take = reps.min(u32::MAX as usize);
            code.push(Instr { op: idx, reps: take as u32 });
            reps -= take;
        }
    }

    /// The finished program, trimmed to its exact size.
    pub(crate) fn finish(self) -> ChargeProgram {
        let mut p = self.program;
        p.table.shrink_to_fit();
        p.code.shrink_to_fit();
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::{Access, Vm, VopClass};

    fn op(n: usize) -> VecOp {
        VecOp::new(n, VopClass::Fma, &[Access::Stride(1), Access::Stride(1)], &[Access::Stride(1)])
    }

    #[test]
    fn recording_coalesces_consecutive_identical_charges() {
        let mut vm = Vm::new(presets::sx4_benchmarked());
        vm.start_program_record();
        vm.charge_vector_op_repeated(&op(128), 3);
        vm.charge_vector_op_repeated(&op(128), 5);
        vm.charge_vector_op_repeated(&op(64), 2);
        vm.charge_intrinsic(Intrinsic::Sqrt, 100);
        vm.charge_intrinsic(Intrinsic::Sqrt, 100);
        let p = vm.take_program().expect("recording was on");
        let ops: Vec<_> = p.ops().collect();
        assert_eq!(p.len(), 3, "{ops:?}");
        assert_eq!(p.total_charges(), 3 + 5 + 2 + 2);
        assert!(matches!(ops[0], (ProgramOp::Vector(_), 8)));
        assert!(matches!(ops[2], (ProgramOp::Intrinsic { .. }, 2)));
    }

    #[test]
    fn replay_is_bit_identical_to_the_original_sequence() {
        let run = |vm: &mut Vm| {
            vm.charge_vector_op_repeated(&op(200), 4);
            vm.charge_intrinsic_repeated(Intrinsic::Exp, 64, 3);
            vm.charge_scalar_loop(1000, 2.0, 2.0, 1.0, LocalityPattern::Streaming);
            vm.charge(Cost::cycles(17.5));
            vm.charge_vector_op_repeated(&op(200), 2);
        };
        let mut rec = Vm::new(presets::sx4_benchmarked());
        rec.start_program_record();
        run(&mut rec);
        let p = rec.take_program().unwrap();

        let mut direct = Vm::new(presets::sx4_benchmarked());
        run(&mut direct);
        let mut replayed = Vm::new(presets::sx4_benchmarked());
        replayed.replay_program(&p);

        assert_eq!(direct.cost().cycles.to_bits(), replayed.cost().cycles.to_bits());
        assert_eq!(direct.cost(), replayed.cost());
        assert_eq!(direct.lifetime_cost(), replayed.lifetime_cost());
        let (mut a, mut b) = (*direct.stats(), *replayed.stats());
        a.program_replays = 0;
        b.program_replays = 0;
        assert_eq!(a, b);
        assert_eq!(replayed.stats().program_replays, 1);
    }

    #[test]
    fn untaken_program_is_replaced_by_a_new_recording() {
        let mut vm = Vm::new(presets::sx4_benchmarked());
        vm.start_program_record();
        vm.charge_vector_op_repeated(&op(10), 1);
        vm.start_program_record();
        vm.charge_vector_op_repeated(&op(20), 1);
        let p = vm.take_program().unwrap();
        assert_eq!(p.len(), 1);
        assert!(matches!(p.ops().next(), Some((ProgramOp::Vector(VecOp { n: 20, .. }), 1))));
        assert!(vm.take_program().is_none());
        assert_eq!(vm.stats().program_records, 2);
    }

    #[test]
    fn descriptors_are_interned_once_per_program() {
        let mut vm = Vm::new(presets::sx4_benchmarked());
        vm.start_program_record();
        for _ in 0..50 {
            vm.charge_vector_op_repeated(&op(128), 2);
            vm.charge_intrinsic(Intrinsic::Exp, 64);
            vm.charge(Cost::cycles(3.0));
        }
        let p = vm.take_program().unwrap();
        assert_eq!(p.len(), 150, "alternating charges never coalesce");
        // 150 instructions of 8 bytes plus three descriptors.
        assert!(p.heap_bytes() <= 150 * 8 + 3 * std::mem::size_of::<ProgramOp>());
    }

    #[test]
    fn f64_descriptors_intern_by_bits() {
        let mut vm = Vm::new(presets::sx4_benchmarked());
        vm.start_program_record();
        vm.charge(Cost::cycles(0.0));
        vm.charge(Cost::cycles(-0.0));
        vm.charge(Cost::cycles(0.0));
        let p = vm.take_program().unwrap();
        let signs: Vec<bool> = p
            .ops()
            .map(|(op, _)| matches!(op, ProgramOp::Raw(c) if c.cycles.is_sign_negative()))
            .collect();
        assert_eq!(signs, [false, true, false]);
    }
}
