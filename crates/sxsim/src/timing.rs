//! Analytic timing of primitive operations against a [`MachineModel`].
//!
//! The model follows the classic parallel-vector cost decomposition:
//! an N-element operation strip-mines into chimes of the register length;
//! each chime pays a fixed startup (pipe fill + issue) and then streams at
//! the slower of the arithmetic-pipe rate and the memory-port rate, the
//! latter degraded by bank conflicts for bad strides and by the
//! list-vector (gather/scatter) hardware rate for irregular access.
//!
//! Cache machines price the same operations through
//! `scalar_loop` with an analytic miss model instead.

use crate::cost::Cost;
use crate::inline_vec::InlineVec;
use crate::model::{Intrinsic, MachineModel, VectorUnit, VopClass};

/// Memory access pattern of one stream of a vector operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Access {
    /// Constant stride in words; `Stride(1)` is unit stride.
    Stride(usize),
    /// Indexed gather (load) or scatter (store) through an index vector.
    Indexed,
    /// Operand held in a register/scalar — no memory traffic.
    #[default]
    None,
}

/// Most memory streams one instruction can name (3-operand FMA loads).
pub const MAX_STREAMS: usize = 4;

/// Descriptor of an elementwise vector operation over `n` elements.
///
/// Plain old data: access lists live inline (no allocation), the whole
/// descriptor is `Copy`, and equality is structural — which is what lets
/// [`crate::Vm`] memoize timing results keyed by the descriptor itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VecOp {
    /// Elements processed.
    pub(crate) n: usize,
    /// Arithmetic class (selects the pipe set and flop count).
    pub(crate) class: VopClass,
    /// Access pattern of each input stream read from memory.
    pub(crate) loads: InlineVec<Access, MAX_STREAMS>,
    /// Access pattern of each output stream written to memory.
    pub(crate) stores: InlineVec<Access, MAX_STREAMS>,
}

impl VecOp {
    /// Convenience constructor.
    pub fn new(n: usize, class: VopClass, loads: &[Access], stores: &[Access]) -> VecOp {
        VecOp {
            n,
            class,
            loads: InlineVec::from_slice(loads),
            stores: InlineVec::from_slice(stores),
        }
    }

    /// Actual flops performed per element for the ledger.
    fn flops_per_elem(&self) -> u64 {
        match self.class {
            VopClass::Add | VopClass::Mul | VopClass::Div => 1,
            VopClass::Fma => 2,
            VopClass::Logical => 0,
        }
    }

    /// Memory words touched per element (indexed loads also fetch the index).
    fn words_per_elem(&self) -> f64 {
        let mut w = 0.0;
        for a in self.loads.iter().chain(self.stores.iter()) {
            match a {
                Access::Stride(_) => w += 1.0,
                Access::Indexed => w += 2.0, // data word + index word
                Access::None => {}
            }
        }
        w
    }
}

/// Arithmetic results per cycle for a pipe class on a vector machine.
/// The vector unit is resolved once by [`vector_op`] and passed down, so
/// this cannot be reached for a machine without one.
fn pipe_rate(v: &VectorUnit, class: VopClass) -> f64 {
    match class {
        VopClass::Add => v.pipes_add as f64,
        VopClass::Mul => v.pipes_mul as f64,
        VopClass::Logical => v.pipes_add as f64,
        VopClass::Fma => {
            if v.chaining {
                // add and multiply pipe sets run concurrently on the chained
                // stream: element rate is set by the narrower set.
                v.pipes_add.min(v.pipes_mul) as f64
            } else {
                // two passes over the data.
                (v.pipes_add.min(v.pipes_mul) as f64) / 2.0
            }
        }
        VopClass::Div => v.div_results_per_cycle,
    }
}

/// Sustained elements/cycle the memory system delivers for this op. Like
/// [`pipe_rate`], the vector unit arrives as a parameter resolved once in
/// [`vector_op`] — no panicking re-lookup on the hot path.
fn memory_rate(model: &MachineModel, v: &VectorUnit, op: &VecOp) -> f64 {
    let words_per_elem = op.words_per_elem();
    if words_per_elem == 0.0 {
        return f64::INFINITY;
    }
    let port_wpc = model.memory.port_words_per_cycle();

    // The port streams all regular accesses; each stream's bank-conflict
    // efficiency throttles the whole transfer (streams proceed in lockstep
    // with the pipes). Indexed streams are limited by the gather/scatter
    // hardware instead.
    let mut worst_regular = 1.0f64;
    let mut indexed_rate = f64::INFINITY;
    for (is_store, a) in
        op.loads.iter().map(|a| (false, a)).chain(op.stores.iter().map(|a| (true, a)))
    {
        match a {
            Access::Stride(s) => {
                let e = model.memory.stride_efficiency(*s, port_wpc);
                worst_regular = worst_regular.min(e);
            }
            Access::Indexed => {
                let r = if is_store { v.scatter_elems_per_cycle } else { v.gather_elems_per_cycle };
                indexed_rate = indexed_rate.min(r);
            }
            Access::None => {}
        }
    }
    let port_rate = port_wpc * worst_regular / words_per_elem;
    port_rate.min(indexed_rate)
}

/// Time an elementwise vector operation on a vector machine, or fall back to
/// [`scalar_loop`] on a cache machine.
pub(crate) fn vector_op(model: &MachineModel, op: &VecOp) -> Cost {
    let flops = op.flops_per_elem() * op.n as u64;
    // Round to nearest: an `as u64` cast truncates toward zero, which
    // undercounts ledger bytes for non-integral words-per-element
    // descriptors (today's accesses are whole words, so this is identical,
    // but fractional-word descriptors must not silently lose traffic).
    let bytes = (op.words_per_elem() * op.n as f64).round() as u64 * model.memory.word_bytes as u64;

    let Some(v) = model.vector.as_ref() else {
        // Cache machine: same loop priced through the scalar path.
        let pattern = scalar_pattern_of(op);
        let mut c = scalar_loop(
            model,
            op.n,
            op.flops_per_elem() as f64,
            op.loads.len() as f64,
            op.stores.len() as f64,
            pattern,
        );
        c.flops = flops;
        c.cray_flops = flops as f64;
        c.bytes = bytes;
        return c;
    };

    let n = op.n;
    if n == 0 {
        return Cost::ZERO;
    }
    let chimes = n.div_ceil(v.reg_len);
    // The first chime pays the full pipe-fill latency; strip-mine loop
    // iterations overlap their startup with the preceding chime's drain,
    // leaving only a small per-strip issue overhead.
    let startup = v.startup_cycles + (chimes - 1) as f64 * (0.1 * v.startup_cycles);
    let rate = pipe_rate(v, op.class).min(memory_rate(model, v, op));
    let stream = n as f64 / rate.max(1e-9);
    Cost { cycles: startup + stream, flops, cray_flops: flops as f64, bytes }
}

/// How a vector op's access pattern looks to a cache.
fn scalar_pattern_of(op: &VecOp) -> LocalityPattern {
    let irregular = op.loads.iter().chain(op.stores.iter()).any(|a| match a {
        Access::Indexed => true,
        Access::Stride(s) => *s > 8,
        Access::None => false,
    });
    if irregular {
        LocalityPattern::Random { working_set_bytes: usize::MAX }
    } else {
        LocalityPattern::Streaming
    }
}

/// Cache behaviour of a scalar loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LocalityPattern {
    /// Sequential sweeps: one miss per cache line per stream.
    Streaming,
    /// Repeated access within a working set: misses only beyond capacity.
    Resident { working_set_bytes: usize },
    /// Irregular access over a working set: miss probability is the
    /// fraction of the set not captured by the cache.
    Random { working_set_bytes: usize },
}

/// Time `iters` iterations of a scalar loop doing `flops` floating ops,
/// `loads` loads and `stores` stores per iteration, with the given cache
/// locality. Used both for cache machines and for the scalar residue of
/// vector machines (e.g. unvectorized CSHIFT in POP, HINT's control flow).
/// The loop's own backward branch is included; extra data-dependent
/// branches go through [`scalar_loop_branchy`].
pub(crate) fn scalar_loop(
    model: &MachineModel,
    iters: usize,
    flops: f64,
    loads: f64,
    stores: f64,
    pattern: LocalityPattern,
) -> Cost {
    scalar_loop_branchy(model, iters, flops, loads, stores, 1.0, pattern)
}

/// [`scalar_loop`] with an explicit count of conditional branches per
/// iteration (control-heavy codes: HINT's adaptive subdivision, heap
/// maintenance, the NQS scheduler's bookkeeping).
pub(crate) fn scalar_loop_branchy(
    model: &MachineModel,
    iters: usize,
    flops: f64,
    loads: f64,
    stores: f64,
    branches: f64,
    pattern: LocalityPattern,
) -> Cost {
    let s = &model.scalar;
    if iters == 0 {
        return Cost::ZERO;
    }
    let mem_ops = loads + stores;
    // Integer/control overhead: index update, compare, branches.
    let instrs_per_iter = flops + mem_ops + 1.0 + branches;
    let issue_cycles = instrs_per_iter / s.issue_per_cycle;
    let fp_cycles = if s.flops_per_cycle > 0.0 { flops / s.flops_per_cycle } else { 0.0 };

    let word = model.memory.word_bytes as f64;
    let miss_rate = match pattern {
        LocalityPattern::Streaming => word / s.line_bytes as f64,
        LocalityPattern::Resident { working_set_bytes } => {
            if working_set_bytes <= s.dcache_bytes {
                0.0
            } else {
                word / s.line_bytes as f64
            }
        }
        LocalityPattern::Random { working_set_bytes } => {
            if working_set_bytes <= s.dcache_bytes {
                0.0
            } else {
                let captured = s.dcache_bytes as f64 / working_set_bytes as f64;
                (1.0 - captured).clamp(0.0, 1.0)
            }
        }
    };
    // Misses overlap poorly with computation on these in-order-ish designs.
    let mem_cycles = mem_ops * miss_rate * s.miss_penalty_cycles;
    let branch_cycles = branches * s.branch_penalty_cycles;

    let per_iter = issue_cycles.max(fp_cycles) + mem_cycles + branch_cycles;
    let total_flops = (flops * iters as f64) as u64;
    Cost {
        cycles: per_iter * iters as f64,
        flops: total_flops,
        cray_flops: total_flops as f64,
        bytes: (mem_ops * iters as f64 * word) as u64,
    }
}

/// Time `n` calls of a vectorizable intrinsic (vector path on vector
/// machines, scalar libm otherwise). The ledger records one flop per call
/// plus the Cray-equivalent weight.
pub(crate) fn intrinsic_op(model: &MachineModel, f: Intrinsic, n: usize) -> Cost {
    if n == 0 {
        return Cost::ZERO;
    }
    let bytes = (2 * n * model.memory.word_bytes) as u64; // read x, write f(x)
    let cycles = match model.vector.as_ref() {
        Some(v) => {
            let chimes = n.div_ceil(v.reg_len);
            // The vectorized routine makes several passes (range reduction,
            // polynomial, reconstruction) => a few pipe fills on the first
            // strip, overlapped issue overhead on the rest.
            3.0 * v.startup_cycles
                + (chimes - 1) as f64 * (0.3 * v.startup_cycles)
                + n as f64 * model.intrinsics.vector_cost(f)
        }
        None => n as f64 * model.intrinsics.scalar_cost(f),
    };
    Cost { cycles, flops: n as u64, cray_flops: n as f64 * f.cray_equiv_flops(), bytes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn long_unit_stride_add_near_pipe_rate() {
        let m = presets::sx4(8.0);
        let op = VecOp::new(
            1_000_000,
            VopClass::Add,
            &[Access::Stride(1), Access::Stride(1)],
            &[Access::Stride(1)],
        );
        let c = vector_op(&m, &op);
        let elems_per_cycle = op.n as f64 / c.cycles;
        // 3 words/elem against a 16 word/cycle port => memory-bound at ~5.33,
        // below the 8-wide add pipe set.
        assert!(elems_per_cycle > 4.5 && elems_per_cycle < 5.4, "epc={elems_per_cycle}");
    }

    #[test]
    fn short_vectors_dominated_by_startup() {
        let m = presets::sx4(8.0);
        let mk = |n| VecOp::new(n, VopClass::Add, &[Access::Stride(1)], &[Access::Stride(1)]);
        let c4 = vector_op(&m, &mk(4));
        let c256 = vector_op(&m, &mk(256));
        let r4 = 4.0 / c4.cycles;
        let r256 = 256.0 / c256.cycles;
        assert!(r256 > 10.0 * r4, "startup should crush short vectors: {r4} vs {r256}");
    }

    #[test]
    fn gather_slower_than_unit_stride() {
        let m = presets::sx4(8.0);
        let copy =
            VecOp::new(100_000, VopClass::Logical, &[Access::Stride(1)], &[Access::Stride(1)]);
        let gather =
            VecOp::new(100_000, VopClass::Logical, &[Access::Indexed], &[Access::Stride(1)]);
        let tc = vector_op(&m, &copy).cycles;
        let tg = vector_op(&m, &gather).cycles;
        assert!(tg > 2.0 * tc, "gather {tg} should be well above copy {tc}");
    }

    #[test]
    fn fma_counts_two_flops() {
        let m = presets::sx4(8.0);
        let op = VecOp::new(
            1000,
            VopClass::Fma,
            &[Access::Stride(1), Access::Stride(1)],
            &[Access::Stride(1)],
        );
        let c = vector_op(&m, &op);
        assert_eq!(c.flops, 2000);
    }

    #[test]
    fn zero_length_costs_nothing() {
        let m = presets::sx4(8.0);
        let op = VecOp::new(0, VopClass::Add, &[Access::Stride(1)], &[Access::Stride(1)]);
        assert_eq!(vector_op(&m, &op), Cost::ZERO);
        assert_eq!(intrinsic_op(&m, Intrinsic::Exp, 0), Cost::ZERO);
        assert_eq!(scalar_loop(&m, 0, 1.0, 1.0, 1.0, LocalityPattern::Streaming), Cost::ZERO);
    }

    #[test]
    fn cache_machine_prices_through_scalar_path() {
        let m = presets::sparc20();
        let op = VecOp::new(
            10_000,
            VopClass::Add,
            &[Access::Stride(1), Access::Stride(1)],
            &[Access::Stride(1)],
        );
        let c = vector_op(&m, &op);
        assert!(c.cycles > 10_000.0, "one add per cycle is already optimistic for a SPARC20");
        assert_eq!(c.flops, 10_000);
    }

    #[test]
    fn intrinsic_vector_beats_scalar() {
        let sx = presets::sx4(8.0);
        let sp = presets::sparc20();
        let n = 100_000;
        let cv = intrinsic_op(&sx, Intrinsic::Exp, n);
        let cs = intrinsic_op(&sp, Intrinsic::Exp, n);
        let tv = cv.seconds(sx.clock_ns);
        let ts = cs.seconds(sp.clock_ns);
        assert!(ts > 10.0 * tv);
        assert_eq!(cv.flops, n as u64);
        assert!(cv.cray_flops > cv.flops as f64);
    }

    #[test]
    fn monotone_more_work_not_fewer_cycles() {
        let m = presets::sx4(9.2);
        let mut prev = 0.0;
        for n in [1usize, 10, 100, 1000, 10_000, 100_000] {
            let op = VecOp::new(n, VopClass::Mul, &[Access::Stride(1)], &[Access::Stride(1)]);
            let c = vector_op(&m, &op);
            assert!(c.cycles >= prev);
            prev = c.cycles;
        }
    }

    #[test]
    fn resident_working_set_avoids_misses() {
        let m = presets::sparc20();
        let hot = scalar_loop(
            &m,
            10_000,
            2.0,
            2.0,
            1.0,
            LocalityPattern::Resident { working_set_bytes: 8 * 1024 },
        );
        let cold = scalar_loop(
            &m,
            10_000,
            2.0,
            2.0,
            1.0,
            LocalityPattern::Random { working_set_bytes: 64 * 1024 * 1024 },
        );
        assert!(cold.cycles > 2.0 * hot.cycles);
    }
}
