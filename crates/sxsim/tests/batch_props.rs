//! Property tests for the batched charging and memoized timing paths.
//!
//! The contract under test is strict: `charge_vector_op_repeated(op, k)`
//! must leave the `Vm` in a state *bit-identical* to `k` single
//! `charge_vector_op` calls — every float accumulator compared by
//! `to_bits`, every counter exactly, the coalesced trace run for run — and
//! a memo hit must return the exact `Cost` of the miss that filled its
//! slot.
//!
//! Inputs are drawn by a seeded SplitMix64 sampler (hermetic replacement
//! for proptest), so every run exercises the same deterministic case set.

use sxsim::{presets, Access, Cost, Intrinsic, LocalityPattern, MachineModel, VecOp, Vm, VopClass};

/// Deterministic sampler (SplitMix64) standing in for proptest strategies.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [lo, hi).
    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }

    fn class(&mut self) -> VopClass {
        [VopClass::Add, VopClass::Mul, VopClass::Fma, VopClass::Div, VopClass::Logical]
            [self.usize_in(0, 5)]
    }

    fn access(&mut self) -> Access {
        match self.usize_in(0, 4) {
            0 | 1 => Access::Stride(self.usize_in(1, 4096)),
            2 => Access::Indexed,
            _ => Access::None,
        }
    }

    fn vec_op(&mut self) -> VecOp {
        let n = self.usize_in(0, 50_000);
        let class = self.class();
        let loads: Vec<Access> = (0..self.usize_in(1, 3)).map(|_| self.access()).collect();
        let stores: Vec<Access> = (0..self.usize_in(0, 2)).map(|_| self.access()).collect();
        VecOp::new(n, class, &loads, &stores)
    }

    fn intrinsic(&mut self) -> Intrinsic {
        [Intrinsic::Exp, Intrinsic::Log, Intrinsic::Sin, Intrinsic::Sqrt, Intrinsic::Pow]
            [self.usize_in(0, 5)]
    }

    fn pattern(&mut self) -> LocalityPattern {
        match self.usize_in(0, 3) {
            0 => LocalityPattern::Streaming,
            1 => LocalityPattern::Resident { working_set_bytes: self.usize_in(64, 1 << 22) },
            _ => LocalityPattern::Random { working_set_bytes: self.usize_in(64, 1 << 22) },
        }
    }

    /// Small fractional per-iteration amount (flops/loads/stores/branches).
    fn amount(&mut self) -> f64 {
        self.usize_in(0, 16) as f64 * 0.5
    }

    fn charge_desc(&mut self) -> Charge {
        match self.usize_in(0, 6) {
            0 | 1 => Charge::Vector { op: self.vec_op(), reps: self.usize_in(1, 20) },
            2 => Charge::Intrinsic {
                f: self.intrinsic(),
                n: self.usize_in(1, 50_000),
                reps: self.usize_in(1, 20),
            },
            3 | 4 => Charge::Scalar {
                iters: self.usize_in(1, 10_000),
                flops: self.amount(),
                loads: self.amount(),
                stores: self.amount(),
                branches: if self.usize_in(0, 2) == 0 { None } else { Some(self.amount()) },
                pattern: self.pattern(),
            },
            _ => Charge::Raw {
                cost: Cost {
                    cycles: self.usize_in(0, 1_000_000) as f64,
                    flops: self.next() % 1_000_000,
                    cray_flops: self.usize_in(0, 1_000_000) as f64,
                    bytes: self.next() % (1 << 20),
                },
            },
        }
    }

    /// A random charge sequence, as a hot caller would issue it.
    fn sequence(&mut self) -> Vec<Charge> {
        (0..self.usize_in(1, 12)).map(|_| self.charge_desc()).collect()
    }
}

/// One charge-site invocation, replayable against any `Vm`.
#[derive(Clone)]
enum Charge {
    Vector {
        op: VecOp,
        reps: usize,
    },
    Intrinsic {
        f: Intrinsic,
        n: usize,
        reps: usize,
    },
    Scalar {
        iters: usize,
        flops: f64,
        loads: f64,
        stores: f64,
        branches: Option<f64>,
        pattern: LocalityPattern,
    },
    Raw {
        cost: Cost,
    },
}

impl Charge {
    /// Issue through the batched entry points, exactly as the converted
    /// call sites do.
    fn issue(&self, vm: &mut Vm) {
        match self {
            Charge::Vector { op, reps } => vm.charge_vector_op_repeated(op, *reps),
            Charge::Intrinsic { f, n, reps } => vm.charge_intrinsic_repeated(*f, *n, *reps),
            Charge::Scalar { iters, flops, loads, stores, branches, pattern } => match branches {
                Some(b) => {
                    vm.charge_scalar_loop_branchy(*iters, *flops, *loads, *stores, *b, *pattern)
                }
                None => vm.charge_scalar_loop(*iters, *flops, *loads, *stores, *pattern),
            },
            Charge::Raw { cost } => vm.charge(*cost),
        }
    }
}

const CASES: usize = 128;

fn machines() -> Vec<MachineModel> {
    let mut v = vec![presets::sx4_benchmarked(), presets::sx4_production()];
    v.extend(presets::table1_machines());
    v
}

fn assert_bits(a: f64, b: f64, what: &str) {
    assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} != {b}");
}

/// Every ledger surface the `Vm` exposes, compared bit-for-bit.
fn assert_ledgers_identical(batch: &Vm, single: &Vm, ctx: &str) {
    for (which, a, b) in [
        ("cost", batch.cost(), single.cost()),
        ("lifetime", batch.lifetime_cost(), single.lifetime_cost()),
    ] {
        assert_bits(a.cycles, b.cycles, &format!("{ctx}: {which}.cycles"));
        assert_bits(a.cray_flops, b.cray_flops, &format!("{ctx}: {which}.cray_flops"));
        assert_eq!(a.flops, b.flops, "{ctx}: {which}.flops");
        assert_eq!(a.bytes, b.bytes, "{ctx}: {which}.bytes");
    }
    {
        let (sa, sb) = (batch.stats(), single.stats());
        assert_eq!(sa.vector_ops, sb.vector_ops, "{ctx}: vector_ops");
        assert_eq!(sa.vector_elements, sb.vector_elements, "{ctx}: vector_elements");
        assert_eq!(sa.scalar_iters, sb.scalar_iters, "{ctx}: scalar_iters");
        assert_eq!(sa.intrinsic_calls, sb.intrinsic_calls, "{ctx}: intrinsic_calls");
        assert_eq!(sa.indexed_elements, sb.indexed_elements, "{ctx}: indexed_elements");
        assert_eq!(sa.memo_hits, sb.memo_hits, "{ctx}: memo_hits");
        assert_eq!(sa.memo_misses, sb.memo_misses, "{ctx}: memo_misses");
        assert_bits(sa.vector_cycles, sb.vector_cycles, &format!("{ctx}: vector_cycles"));
        assert_bits(sa.scalar_cycles, sb.scalar_cycles, &format!("{ctx}: scalar_cycles"));
        assert_bits(sa.other_cycles, sb.other_cycles, &format!("{ctx}: other_cycles"));
    }
    let (pa, pb) = (batch.proginf(), single.proginf());
    assert_bits(pa.real_time_s, pb.real_time_s, &format!("{ctx}: proginf.real_time_s"));
    assert_bits(pa.mflops, pb.mflops, &format!("{ctx}: proginf.mflops"));
    assert_bits(
        pa.timing_memo_hit_pct,
        pb.timing_memo_hit_pct,
        &format!("{ctx}: proginf.timing_memo_hit_pct"),
    );
}

/// The ledgers and the coalesced traces of a batched charge of `reps` and
/// the loop of single charges are identical, and the batch traced as one
/// run.
fn assert_batch_equals_loop(batch: &mut Vm, single: &mut Vm, reps: usize, ctx: &str) {
    assert_ledgers_identical(batch, single, ctx);
    let (ta, tb) = (batch.take_trace().unwrap(), single.take_trace().unwrap());
    assert_eq!(ta, tb, "{ctx}: coalesced traces");
    assert_eq!(ta.len(), reps, "{ctx}: trace length");
    assert_eq!(ta.runs().len(), usize::from(reps > 0), "{ctx}: one run per batch");
}

/// One batched charge is bit-identical to the loop of single charges, on
/// every machine, for arbitrary descriptors and repeat counts (including
/// 0 and 1).
#[test]
fn batched_vector_charge_equals_loop() {
    let mut g = Gen(11);
    for case in 0..CASES {
        let op = g.vec_op();
        let reps = g.usize_in(0, 40);
        for m in machines() {
            let ctx = format!("case {case} ({} reps={reps})", m.name);
            let mut batch = Vm::new(m.clone());
            let mut single = Vm::new(m.clone());
            batch.start_trace();
            single.start_trace();
            batch.charge_vector_op_repeated(&op, reps);
            for _ in 0..reps {
                single.charge_vector_op(&op);
            }
            assert_batch_equals_loop(&mut batch, &mut single, reps, &ctx);
        }
    }
}

/// Same invariant for the intrinsic path.
#[test]
fn batched_intrinsic_charge_equals_loop() {
    let mut g = Gen(12);
    for case in 0..CASES {
        let f = g.intrinsic();
        let n = g.usize_in(1, 100_000);
        let reps = g.usize_in(0, 40);
        for m in machines() {
            let ctx = format!("case {case} ({} reps={reps})", m.name);
            let mut batch = Vm::new(m.clone());
            let mut single = Vm::new(m.clone());
            batch.start_trace();
            single.start_trace();
            batch.charge_intrinsic_repeated(f, n, reps);
            for _ in 0..reps {
                single.charge_intrinsic(f, n);
            }
            assert_batch_equals_loop(&mut batch, &mut single, reps, &ctx);
        }
    }
}

/// A memo hit returns the exact cost the miss computed: charging the same
/// op twice advances the window ledger by bit-identical increments.
#[test]
fn memo_hit_returns_identical_cost() {
    let mut g = Gen(13);
    for case in 0..CASES {
        let op = g.vec_op();
        for m in machines() {
            let mut vm = Vm::new(m.clone());
            vm.charge_vector_op(&op);
            let miss = vm.take_cost();
            vm.charge_vector_op(&op);
            let hit = vm.take_cost();
            let ctx = format!("case {case} ({})", m.name);
            assert_bits(miss.cycles, hit.cycles, &format!("{ctx}: cycles"));
            assert_bits(miss.cray_flops, hit.cray_flops, &format!("{ctx}: cray_flops"));
            assert_eq!(miss.flops, hit.flops, "{ctx}: flops");
            assert_eq!(miss.bytes, hit.bytes, "{ctx}: bytes");
            assert_eq!(vm.stats().memo_misses, 1, "{ctx}: one miss fills the slot");
            assert_eq!(vm.stats().memo_hits, 1, "{ctx}: second charge hits");
        }
    }
}

/// Batched charging accounts memo traffic like the loop would: one
/// resolve, then `reps - 1` hits on the freshly filled slot.
#[test]
fn batched_memo_accounting_mirrors_loop() {
    let mut g = Gen(14);
    for _ in 0..CASES {
        let op = g.vec_op();
        let reps = g.usize_in(1, 200);
        let mut vm = Vm::new(presets::sx4_benchmarked());
        vm.charge_vector_op_repeated(&op, reps);
        assert_eq!(vm.stats().memo_misses, 1);
        assert_eq!(vm.stats().memo_hits, (reps - 1) as u64);
    }
}

/// `Vm::transpose` (internally a batch of `n` column ops) stays
/// bit-identical to the explicit loop of column charges it replaced.
#[test]
fn transpose_batch_matches_column_loop() {
    for n in [1usize, 7, 64, 255] {
        let a: Vec<f64> = (0..n * n).map(|i| i as f64).collect();
        let mut b = vec![0.0f64; n * n];
        let mut batch = Vm::new(presets::sx4_benchmarked());
        batch.transpose(&mut b, &a, n);

        let mut single = Vm::new(presets::sx4_benchmarked());
        let column = VecOp::new(n, VopClass::Logical, &[Access::Stride(1)], &[Access::Stride(n)]);
        for _ in 0..n {
            single.charge_vector_op(&column);
        }
        let (ca, cb) = (batch.cost(), single.cost());
        assert_bits(ca.cycles, cb.cycles, &format!("transpose n={n}: cycles"));
        assert_eq!(ca.flops, cb.flops);
        assert_eq!(ca.bytes, cb.bytes);
        assert_eq!(batch.stats().vector_ops, single.stats().vector_ops);
        // And the data really moved.
        for j in 0..n {
            for i in 0..n {
                assert_eq!(b[i + j * n], a[j + i * n]);
            }
        }
    }
}

/// Tracing is invisible to the traced `Vm`: with the recorder attached,
/// every ledger surface stays bit-identical to issuing the same batched
/// charges without one.
#[test]
fn tracing_does_not_perturb_the_vm() {
    let mut g = Gen(16);
    for case in 0..64 {
        let seq = g.sequence();
        for m in machines() {
            let ctx = format!("case {case} ({})", m.name);
            let mut plain = Vm::new(m.clone());
            for c in &seq {
                c.issue(&mut plain);
            }

            let mut traced = Vm::new(m.clone());
            traced.start_trace();
            for c in &seq {
                c.issue(&mut traced);
            }
            assert_ledgers_identical(&traced, &plain, &ctx);
            assert!(traced.take_trace().is_some_and(|t| !t.is_empty()), "{ctx}: trace captured");
        }
    }
}
