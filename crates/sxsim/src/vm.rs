//! The functional + timing execution facade.
//!
//! A [`Vm`] wraps a [`MachineModel`] and a cycle ledger. Benchmark kernels
//! call its array operations, which *really perform* the computation on the
//! supplied slices (so correctness is testable) while charging the ledger
//! the analytic cost of that operation on the modelled machine. Kernels
//! with loop structures the facade cannot express do their math natively
//! and charge via [`Vm::charge_vector_op`] / [`Vm::charge_scalar_loop`].
//!
//! A *pricing* processor ([`Vm::pricing`]) takes every charge exactly as a
//! functional one but skips the arithmetic: its array operations leave
//! their outputs untouched and its reductions return zero. Charges depend
//! on vector lengths, strides and counts, never on values, so a pricing run
//! leaves a bit-identical ledger. Kernels guard their own value loops with
//! [`Vm::computes`].

use crate::cost::Cost;
use crate::model::{Intrinsic, MachineModel, VopClass};
use crate::proginf::{OpStats, Proginf};
use crate::timing::{self, Access, LocalityPattern, VecOp};
use crate::trace::{OpTrace, TraceEvent};

/// Slots in the per-`Vm` direct-mapped timing memo. The live descriptor
/// set of any one kernel is a handful of shapes, so a small table hits
/// nearly always; collisions just recompute.
const MEMO_SLOTS: usize = 64;

/// Direct-mapped memoization of [`timing::vector_op`] results. The machine
/// model is immutable for the lifetime of a `Vm`, so entries are never
/// invalidated; a slot holds the full descriptor and is only trusted on
/// exact equality (collisions overwrite).
#[derive(Debug, Clone)]
struct CostMemo {
    slots: Vec<Option<(VecOp, Cost)>>,
}

impl CostMemo {
    fn new() -> CostMemo {
        CostMemo { slots: vec![None; MEMO_SLOTS] }
    }

    /// FNV-1a over the access signature `(class, n, loads, stores)`.
    fn slot_of(op: &VecOp) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x100_0000_01b3);
        };
        eat(op.n as u64);
        eat(op.class as u64);
        for streams in [&op.loads, &op.stores] {
            eat(0x5f5f);
            for a in streams.iter() {
                match a {
                    Access::Stride(s) => {
                        eat(1);
                        eat(*s as u64);
                    }
                    Access::Indexed => eat(2),
                    Access::None => eat(3),
                }
            }
        }
        (h % MEMO_SLOTS as u64) as usize
    }
}

/// A simulated processor executing real array operations while accounting
/// machine cycles.
#[derive(Debug, Clone)]
pub struct Vm {
    model: MachineModel,
    /// Resettable ledger window (see [`Vm::take_cost`]).
    cost: Cost,
    /// Lifetime ledger — never reset; feeds [`Vm::proginf`].
    lifetime: Cost,
    /// Lifetime operation statistics for the PROGINF report.
    stats: OpStats,
    /// Optional charge recording (for `sxcheck` and tests); `None` (free)
    /// unless enabled via [`Vm::start_trace`].
    trace: Option<Box<OpTrace>>,
    /// Timing memo for [`Vm::charge_vector_op`] (never invalidated — the
    /// model is immutable per `Vm`).
    memo: CostMemo,
    /// Whether array operations compute their results (false for a
    /// pricing processor, which only charges).
    computes: bool,
}

impl Vm {
    /// Create a processor of the given machine.
    pub fn new(model: MachineModel) -> Vm {
        Vm {
            model,
            cost: Cost::ZERO,
            lifetime: Cost::ZERO,
            stats: OpStats::default(),
            trace: None,
            memo: CostMemo::new(),
            computes: true,
        }
    }

    /// Create a pricing processor: every charge lands exactly as on
    /// [`Vm::new`], but array operations skip their arithmetic.
    pub fn pricing(model: MachineModel) -> Vm {
        Vm { computes: false, ..Vm::new(model) }
    }

    /// Whether this processor computes values (false when pricing). Code
    /// that does its own math beside the facade guards it with this.
    pub fn computes(&self) -> bool {
        self.computes
    }

    /// The analytic cost of `op`, through the memo. Hit/miss counts land
    /// in [`OpStats`] and the PROGINF report.
    fn vector_op_cost(&mut self, op: &VecOp) -> Cost {
        let slot = CostMemo::slot_of(op);
        if let Some((key, cost)) = &self.memo.slots[slot] {
            if key == op {
                self.stats.memo_hits += 1;
                return *cost;
            }
        }
        let cost = timing::vector_op(&self.model, op);
        self.memo.slots[slot] = Some((*op, cost));
        self.stats.memo_misses += 1;
        cost
    }

    /// Begin recording every subsequent charge into an [`OpTrace`]
    /// (replacing any trace recorded so far).
    pub fn start_trace(&mut self) {
        self.trace = Some(Box::default());
    }

    /// Stop recording and take the trace, if tracing was enabled.
    pub fn take_trace(&mut self) -> Option<OpTrace> {
        self.trace.take().map(|b| *b)
    }

    /// Append a run of `reps` identical events if tracing; the closure
    /// runs only when enabled.
    pub(crate) fn trace_run(&mut self, reps: usize, make: impl FnOnce() -> TraceEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.push_run(make(), reps);
        }
    }

    /// The machine this processor belongs to.
    pub fn model(&self) -> &MachineModel {
        &self.model
    }

    /// Ledger accumulated so far.
    pub fn cost(&self) -> Cost {
        self.cost
    }

    /// Lifetime operation statistics (never reset).
    pub fn stats(&self) -> &OpStats {
        &self.stats
    }

    /// Lifetime ledger (never reset; what PROGINF and FTRACE read).
    pub fn lifetime_cost(&self) -> Cost {
        self.lifetime
    }

    /// The SUPER-UX PROGINF report for everything this processor has run.
    pub fn proginf(&self) -> Proginf {
        Proginf::from_stats(&self.stats, &self.lifetime, self.model.clock_ns)
    }

    /// Simulated seconds elapsed on this processor.
    pub fn seconds(&self) -> f64 {
        self.cost.seconds(self.model.clock_ns)
    }

    /// Take the ledger, leaving it zeroed — convenient for timing a region.
    pub fn take_cost(&mut self) -> Cost {
        std::mem::take(&mut self.cost)
    }

    /// Charge an arbitrary pre-computed cost (used by substrate models:
    /// I/O waits, barriers, OS overhead).
    pub fn charge(&mut self, c: Cost) {
        self.cost.add(c);
        self.lifetime.add(c);
        self.stats.other_cycles += c.cycles;
        self.trace_run(1, || TraceEvent::Charge { cost: c });
    }

    /// Charge an elementwise vector operation without executing data
    /// movement (for kernels that run their own inner loops natively).
    pub fn charge_vector_op(&mut self, op: &VecOp) {
        self.charge_vector_op_repeated(op, 1);
    }

    /// Charge `reps` identical vector operations: the analytic cost is
    /// resolved once (through the memo) and the ledger advanced `reps`
    /// times. The result — every float accumulator, every counter, the
    /// trace — is bit-identical to calling [`Vm::charge_vector_op`] in a
    /// loop; floats are accumulated iteratively because repeated addition
    /// is not multiplication, while the exact integer fields scale.
    pub fn charge_vector_op_repeated(&mut self, op: &VecOp, reps: usize) {
        if reps == 0 {
            return;
        }
        let c = self.vector_op_cost(op);
        // The loop of single charges would hit the freshly filled slot on
        // every iteration after the first; mirror that accounting.
        self.stats.memo_hits += (reps - 1) as u64;
        for _ in 0..reps {
            self.cost.cycles += c.cycles;
            self.cost.cray_flops += c.cray_flops;
            self.lifetime.cycles += c.cycles;
            self.lifetime.cray_flops += c.cray_flops;
        }
        self.cost.flops += c.flops * reps as u64;
        self.cost.bytes += c.bytes * reps as u64;
        self.lifetime.flops += c.flops * reps as u64;
        self.lifetime.bytes += c.bytes * reps as u64;
        if self.model.is_vector() {
            self.stats.vector_ops += reps as u64;
            self.stats.vector_elements += (op.n * reps) as u64;
            for _ in 0..reps {
                self.stats.vector_cycles += c.cycles;
            }
        } else {
            self.stats.scalar_iters += (op.n * reps) as u64;
            for _ in 0..reps {
                self.stats.scalar_cycles += c.cycles;
            }
        }
        let indexed = op
            .loads
            .iter()
            .chain(op.stores.iter())
            .filter(|a| matches!(a, Access::Indexed))
            .count();
        self.stats.indexed_elements += (indexed * op.n * reps) as u64;
        self.trace_run(reps, || TraceEvent::VecOp {
            class: op.class,
            n: op.n,
            loads: op.loads.to_vec(),
            stores: op.stores.to_vec(),
            cost: c,
        });
    }

    /// Charge a scalar loop (cache-machine path or scalar residue).
    pub fn charge_scalar_loop(
        &mut self,
        iters: usize,
        flops: f64,
        loads: f64,
        stores: f64,
        pattern: LocalityPattern,
    ) {
        let c = timing::scalar_loop(&self.model, iters, flops, loads, stores, pattern);
        self.cost.add(c);
        self.lifetime.add(c);
        self.stats.scalar_cycles += c.cycles;
        self.stats.scalar_iters += iters as u64;
        self.trace_run(1, || TraceEvent::ScalarLoop { iters, cost: c });
    }

    /// Charge a control-heavy scalar loop with explicit branches per
    /// iteration (HINT, schedulers, heap maintenance).
    #[allow(clippy::too_many_arguments)]
    pub fn charge_scalar_loop_branchy(
        &mut self,
        iters: usize,
        flops: f64,
        loads: f64,
        stores: f64,
        branches: f64,
        pattern: LocalityPattern,
    ) {
        let c = timing::scalar_loop_branchy(
            &self.model,
            iters,
            flops,
            loads,
            stores,
            branches,
            pattern,
        );
        self.cost.add(c);
        self.lifetime.add(c);
        self.stats.scalar_cycles += c.cycles;
        self.stats.scalar_iters += iters as u64;
        self.trace_run(1, || TraceEvent::ScalarLoop { iters, cost: c });
    }

    /// Charge `n` vectorizable intrinsic calls without executing them.
    pub fn charge_intrinsic(&mut self, f: Intrinsic, n: usize) {
        self.charge_intrinsic_repeated(f, n, 1);
    }

    /// Charge `reps` identical intrinsic sweeps of `n` calls each: cost
    /// computed once, ledger advanced `reps` times, bit-identical to the
    /// equivalent loop of [`Vm::charge_intrinsic`] calls.
    pub fn charge_intrinsic_repeated(&mut self, f: Intrinsic, n: usize, reps: usize) {
        if reps == 0 {
            return;
        }
        let c = timing::intrinsic_op(&self.model, f, n);
        for _ in 0..reps {
            self.cost.cycles += c.cycles;
            self.cost.cray_flops += c.cray_flops;
            self.lifetime.cycles += c.cycles;
            self.lifetime.cray_flops += c.cray_flops;
        }
        self.cost.flops += c.flops * reps as u64;
        self.cost.bytes += c.bytes * reps as u64;
        self.lifetime.flops += c.flops * reps as u64;
        self.lifetime.bytes += c.bytes * reps as u64;
        self.stats.intrinsic_calls += (n * reps) as u64;
        if self.model.is_vector() {
            self.stats.vector_ops += reps as u64;
            self.stats.vector_elements += (n * reps) as u64;
            for _ in 0..reps {
                self.stats.vector_cycles += c.cycles;
            }
        } else {
            self.stats.scalar_iters += (n * reps) as u64;
            for _ in 0..reps {
                self.stats.scalar_cycles += c.cycles;
            }
        }
        self.trace_run(reps, || TraceEvent::Intrinsic { f, n, cost: c });
    }

    // ---- data movement -----------------------------------------------

    /// Unit-stride copy `dst[i] = src[i]`.
    pub fn copy(&mut self, dst: &mut [f64], src: &[f64]) {
        assert_eq!(dst.len(), src.len());
        if self.computes {
            dst.copy_from_slice(src);
        }
        self.charge_vector_op(&VecOp::new(
            src.len(),
            VopClass::Logical,
            &[Access::Stride(1)],
            &[Access::Stride(1)],
        ));
    }

    /// Strided copy of `n` elements: `dst[i*ds] = src[i*ss]`.
    ///
    /// Contract: when `n > 0`, the last touched elements — `src[(n-1)*ss]`
    /// and `dst[(n-1)*ds]` — must be in range; out-of-range stride/len
    /// combinations are a caller bug and panic up front rather than midway
    /// through the copy. `n == 0` charges a zero-length op and is free.
    pub fn copy_strided(&mut self, dst: &mut [f64], ds: usize, src: &[f64], ss: usize, n: usize) {
        if n > 0 {
            assert!(
                (n - 1) * ss < src.len(),
                "copy_strided reads past src: n={n} ss={ss} len={}",
                src.len()
            );
            assert!(
                (n - 1) * ds < dst.len(),
                "copy_strided writes past dst: n={n} ds={ds} len={}",
                dst.len()
            );
        }
        if self.computes {
            for i in 0..n {
                dst[i * ds] = src[i * ss];
            }
        }
        self.charge_vector_op(&VecOp::new(
            n,
            VopClass::Logical,
            &[Access::Stride(ss)],
            &[Access::Stride(ds)],
        ));
    }

    /// Gather `dst[i] = src[idx[i]]`.
    pub fn gather(&mut self, dst: &mut [f64], src: &[f64], idx: &[usize]) {
        assert_eq!(dst.len(), idx.len());
        if self.computes {
            for (d, &j) in dst.iter_mut().zip(idx) {
                *d = src[j];
            }
        }
        self.charge_vector_op(&VecOp::new(
            idx.len(),
            VopClass::Logical,
            &[Access::Indexed],
            &[Access::Stride(1)],
        ));
    }

    /// Scatter `dst[idx[i]] = src[i]`.
    pub fn scatter(&mut self, dst: &mut [f64], src: &[f64], idx: &[usize]) {
        assert_eq!(src.len(), idx.len());
        if self.computes {
            for (&v, &j) in src.iter().zip(idx) {
                dst[j] = v;
            }
        }
        self.charge_vector_op(&VecOp::new(
            idx.len(),
            VopClass::Logical,
            &[Access::Stride(1)],
            &[Access::Indexed],
        ));
    }

    /// Transpose one `n x n` matrix: `b[i + j*n] = a[j + i*n]` — the store
    /// side runs at stride `n`, which is what makes XPOSE interesting.
    pub fn transpose(&mut self, b: &mut [f64], a: &[f64], n: usize) {
        assert!(a.len() >= n * n && b.len() >= n * n);
        if self.computes {
            for j in 0..n {
                for i in 0..n {
                    b[i + j * n] = a[j + i * n];
                }
            }
        }
        // Vectorized along columns of `a`: unit-stride load, stride-n store,
        // n vector operations of length n — charged as one batch.
        self.charge_vector_op_repeated(
            &VecOp::new(n, VopClass::Logical, &[Access::Stride(1)], &[Access::Stride(n)]),
            n,
        );
    }

    // ---- elementwise arithmetic ----------------------------------------

    fn binary_op(
        &mut self,
        dst: &mut [f64],
        a: &[f64],
        b: &[f64],
        class: VopClass,
        f: impl Fn(f64, f64) -> f64,
    ) {
        assert_eq!(dst.len(), a.len());
        assert_eq!(dst.len(), b.len());
        if self.computes {
            for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                *d = f(x, y);
            }
        }
        self.charge_vector_op(&VecOp::new(
            dst.len(),
            class,
            &[Access::Stride(1), Access::Stride(1)],
            &[Access::Stride(1)],
        ));
    }

    /// `dst = a + b`.
    pub fn add(&mut self, dst: &mut [f64], a: &[f64], b: &[f64]) {
        self.binary_op(dst, a, b, VopClass::Add, |x, y| x + y);
    }

    /// `dst = a - b`.
    pub fn sub(&mut self, dst: &mut [f64], a: &[f64], b: &[f64]) {
        self.binary_op(dst, a, b, VopClass::Add, |x, y| x - y);
    }

    /// `dst = a * b`.
    pub fn mul(&mut self, dst: &mut [f64], a: &[f64], b: &[f64]) {
        self.binary_op(dst, a, b, VopClass::Mul, |x, y| x * y);
    }

    /// `dst = s * a` with a scalar multiplier held in a register.
    pub fn scale(&mut self, dst: &mut [f64], s: f64, a: &[f64]) {
        assert_eq!(dst.len(), a.len());
        if self.computes {
            for (d, &x) in dst.iter_mut().zip(a) {
                *d = s * x;
            }
        }
        self.charge_vector_op(&VecOp::new(
            dst.len(),
            VopClass::Mul,
            &[Access::Stride(1)],
            &[Access::Stride(1)],
        ));
    }

    /// `y = y + s * a` (AXPY; chained multiply-add).
    pub fn axpy(&mut self, y: &mut [f64], s: f64, a: &[f64]) {
        assert_eq!(y.len(), a.len());
        if self.computes {
            for (d, &x) in y.iter_mut().zip(a) {
                *d += s * x;
            }
        }
        self.charge_vector_op(&VecOp::new(
            y.len(),
            VopClass::Fma,
            &[Access::Stride(1), Access::Stride(1)],
            &[Access::Stride(1)],
        ));
    }

    /// `dst = a * b + c` (three-operand FMA).
    pub fn fma(&mut self, dst: &mut [f64], a: &[f64], b: &[f64], c: &[f64]) {
        assert_eq!(dst.len(), a.len());
        assert_eq!(dst.len(), b.len());
        assert_eq!(dst.len(), c.len());
        if self.computes {
            for i in 0..dst.len() {
                dst[i] = a[i] * b[i] + c[i];
            }
        }
        self.charge_vector_op(&VecOp::new(
            dst.len(),
            VopClass::Fma,
            &[Access::Stride(1), Access::Stride(1), Access::Stride(1)],
            &[Access::Stride(1)],
        ));
    }

    /// In-place `dst *= b`.
    pub fn mul_in_place(&mut self, dst: &mut [f64], b: &[f64]) {
        assert_eq!(dst.len(), b.len());
        if self.computes {
            for (d, &y) in dst.iter_mut().zip(b) {
                *d *= y;
            }
        }
        self.charge_vector_op(&VecOp::new(
            dst.len(),
            VopClass::Mul,
            &[Access::Stride(1), Access::Stride(1)],
            &[Access::Stride(1)],
        ));
    }

    /// In-place `dst = s * dst`.
    pub fn scale_in_place(&mut self, dst: &mut [f64], s: f64) {
        if self.computes {
            for d in dst.iter_mut() {
                *d *= s;
            }
        }
        self.charge_vector_op(&VecOp::new(
            dst.len(),
            VopClass::Mul,
            &[Access::Stride(1)],
            &[Access::Stride(1)],
        ));
    }

    /// In-place `dst = dst + s` with a scalar addend.
    pub fn add_scalar_in_place(&mut self, dst: &mut [f64], s: f64) {
        if self.computes {
            for d in dst.iter_mut() {
                *d += s;
            }
        }
        self.charge_vector_op(&VecOp::new(
            dst.len(),
            VopClass::Add,
            &[Access::Stride(1)],
            &[Access::Stride(1)],
        ));
    }

    // ---- intrinsics ------------------------------------------------------

    fn unary_intrinsic(
        &mut self,
        dst: &mut [f64],
        a: &[f64],
        f: Intrinsic,
        g: impl Fn(f64) -> f64,
    ) {
        assert_eq!(dst.len(), a.len());
        if self.computes {
            for (d, &x) in dst.iter_mut().zip(a) {
                *d = g(x);
            }
        }
        self.charge_intrinsic(f, dst.len());
    }

    /// `dst = exp(a)`.
    pub fn exp(&mut self, dst: &mut [f64], a: &[f64]) {
        self.unary_intrinsic(dst, a, Intrinsic::Exp, f64::exp);
    }

    /// `dst = ln(a)`.
    pub fn log(&mut self, dst: &mut [f64], a: &[f64]) {
        self.unary_intrinsic(dst, a, Intrinsic::Log, f64::ln);
    }

    /// `dst = sin(a)`.
    pub fn sin(&mut self, dst: &mut [f64], a: &[f64]) {
        self.unary_intrinsic(dst, a, Intrinsic::Sin, f64::sin);
    }

    /// `dst = sqrt(a)`.
    pub fn sqrt(&mut self, dst: &mut [f64], a: &[f64]) {
        self.unary_intrinsic(dst, a, Intrinsic::Sqrt, f64::sqrt);
    }

    /// `dst = a.powf(b)` elementwise.
    pub fn pow(&mut self, dst: &mut [f64], a: &[f64], b: &[f64]) {
        assert_eq!(dst.len(), a.len());
        assert_eq!(dst.len(), b.len());
        if self.computes {
            for i in 0..dst.len() {
                dst[i] = a[i].powf(b[i]);
            }
        }
        self.charge_intrinsic(Intrinsic::Pow, dst.len());
    }

    // ---- reductions ------------------------------------------------------

    /// Sum of a vector (tree reduction on the add pipes); zero when
    /// pricing.
    pub fn sum(&mut self, a: &[f64]) -> f64 {
        self.charge_vector_op(&VecOp::new(a.len(), VopClass::Add, &[Access::Stride(1)], &[]));
        if !self.computes {
            return 0.0;
        }
        a.iter().sum()
    }

    /// Maximum element and its index (vector max + scan).
    ///
    /// Contract: an empty slice is a valid (zero-cost) query and returns
    /// `(0, 0.0)` — the neutral element, matching a scan that never found
    /// anything larger than zero in magnitude. A pricing processor
    /// returns that neutral element for every input.
    pub fn max_abs(&mut self, a: &[f64]) -> (usize, f64) {
        self.charge_vector_op(&VecOp::new(a.len(), VopClass::Logical, &[Access::Stride(1)], &[]));
        let mut best = (0usize, 0.0f64);
        let scanned = if self.computes { a } else { &[] };
        for (i, &x) in scanned.iter().enumerate() {
            if x.abs() > best.1 {
                best = (i, x.abs());
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn vm() -> Vm {
        Vm::new(presets::sx4(9.2))
    }

    #[test]
    fn copy_moves_data_and_charges() {
        let mut m = vm();
        let src = vec![1.0, 2.0, 3.0];
        let mut dst = vec![0.0; 3];
        m.copy(&mut dst, &src);
        assert_eq!(dst, src);
        assert!(m.cost().cycles > 0.0);
        assert_eq!(m.cost().bytes, 6 * 8);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let mut m = vm();
        let src: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let idx: Vec<usize> = (0..16).rev().collect();
        let mut mid = vec![0.0; 16];
        let mut out = vec![0.0; 16];
        m.gather(&mut mid, &src, &idx);
        assert_eq!(mid[0], 15.0);
        m.scatter(&mut out, &mid, &idx);
        assert_eq!(out, src);
    }

    #[test]
    fn transpose_is_correct() {
        let mut m = vm();
        let n = 5;
        let a: Vec<f64> = (0..n * n).map(|i| i as f64).collect();
        let mut b = vec![0.0; n * n];
        m.transpose(&mut b, &a, n);
        for i in 0..n {
            for j in 0..n {
                assert_eq!(b[i + j * n], a[j + i * n]);
            }
        }
    }

    #[test]
    fn arithmetic_results_match_native() {
        let mut m = vm();
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![4.0, 3.0, 2.0, 1.0];
        let mut d = vec![0.0; 4];
        m.add(&mut d, &a, &b);
        assert_eq!(d, vec![5.0, 5.0, 5.0, 5.0]);
        m.mul(&mut d, &a, &b);
        assert_eq!(d, vec![4.0, 6.0, 6.0, 4.0]);
        let mut y = vec![1.0; 4];
        m.axpy(&mut y, 2.0, &a);
        assert_eq!(y, vec![3.0, 5.0, 7.0, 9.0]);
    }

    #[test]
    fn intrinsics_compute_real_values() {
        let mut m = vm();
        let a = vec![0.0, 1.0, 2.0];
        let mut d = vec![0.0; 3];
        m.exp(&mut d, &a);
        assert!((d[1] - std::f64::consts::E).abs() < 1e-15);
        let before = m.cost().cray_flops;
        m.sqrt(&mut d, &a);
        assert!((d[2] - 2.0f64.sqrt()).abs() < 1e-15);
        assert!(m.cost().cray_flops > before);
    }

    #[test]
    fn reductions() {
        let mut m = vm();
        let a = vec![1.0, 2.0, 3.0];
        assert_eq!(m.sum(&a), 6.0);
        assert_eq!(m.max_abs(&[1.0, -7.0, 3.0]), (1, 7.0));
    }

    #[test]
    fn pricing_charges_bit_identically_and_computes_nothing() {
        let run = |vm: &mut Vm| {
            let a: Vec<f64> = (0..300).map(|i| 1.0 + i as f64).collect();
            let idx: Vec<usize> = (0..300).rev().collect();
            let mut d = vec![0.0; 300];
            vm.add(&mut d, &a, &a);
            vm.axpy(&mut d, 0.5, &a);
            vm.exp(&mut d, &a);
            vm.pow(&mut d, &a, &a);
            vm.gather(&mut d, &a, &idx);
            vm.transpose(&mut d, &a, 17);
            let s = vm.sum(&a) + vm.max_abs(&a).1;
            (d, s)
        };
        let mut functional = vm();
        let mut pricing = Vm::pricing(presets::sx4(9.2));
        assert!(functional.computes() && !pricing.computes());
        let (computed, s) = run(&mut functional);
        let (untouched, zero) = run(&mut pricing);
        assert_eq!(functional.cost().cycles.to_bits(), pricing.cost().cycles.to_bits());
        assert_eq!(functional.cost(), pricing.cost());
        assert_eq!(functional.stats(), pricing.stats());
        assert!(computed.iter().any(|&x| x != 0.0) && s > 0.0);
        assert!(untouched.iter().all(|&x| x == 0.0) && zero == 0.0);
    }

    #[test]
    fn take_cost_resets() {
        let mut m = vm();
        let mut d = vec![0.0; 100];
        m.copy(&mut d, &vec![1.0; 100]);
        let c = m.take_cost();
        assert!(c.cycles > 0.0);
        assert_eq!(m.cost(), Cost::ZERO);
    }

    #[test]
    fn div_slower_than_mul() {
        let mut m1 = vm();
        let mut m2 = vm();
        let a = vec![1.0; 100_000];
        let b = vec![2.0; 100_000];
        let mut d = vec![0.0; 100_000];
        m1.mul(&mut d, &a, &b);
        m2.charge_vector_op(&VecOp::new(
            d.len(),
            VopClass::Div,
            &[Access::Stride(1), Access::Stride(1)],
            &[Access::Stride(1)],
        ));
        assert!(m2.cost().cycles > m1.cost().cycles);
    }

    #[test]
    fn seconds_consistent_with_clock() {
        let mut m = vm();
        m.charge(Cost::cycles(1e9));
        assert!((m.seconds() - 9.2).abs() < 1e-9);
    }
}
