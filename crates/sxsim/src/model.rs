//! Parameterized machine descriptions.
//!
//! A [`MachineModel`] captures everything the timing layer needs to price an
//! operation stream: clock period, vector unit geometry (if any), scalar
//! unit, banked memory system, intrinsic-function costs, and node-level
//! parameters (processor count, sustainable node bandwidth, barrier cost).
//!
//! Presets for the machines in the paper live in [`crate::presets`].

/// Classes of elementwise vector arithmetic, used to pick the pipe set that
/// serves an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VopClass {
    /// Add/subtract/shift class — served by the add/shift pipe set.
    Add,
    /// Multiply class — served by the multiply pipe set.
    Mul,
    /// Chained multiply-add — on a chaining machine the add and multiply
    /// pipe sets overlap, producing two flops per element slot.
    Fma,
    /// Divide/reciprocal — served by the divide pipe set (lower throughput).
    Div,
    /// Logical/mask operations — no flops.
    Logical,
}

/// Vectorizable intrinsic functions measured by ELEFUNT and dominating
/// RADABS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Intrinsic {
    Exp,
    Log,
    /// `x.powf(y)` — priced as roughly EXP + LOG on every machine.
    Pow,
    Sin,
    Sqrt,
}

impl Intrinsic {
    /// All intrinsics, in the order the paper's Table 3 lists them.
    pub const ALL: [Intrinsic; 5] =
        [Intrinsic::Exp, Intrinsic::Log, Intrinsic::Pow, Intrinsic::Sin, Intrinsic::Sqrt];

    /// Uppercase Fortran-style name used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Intrinsic::Exp => "EXP",
            Intrinsic::Log => "LOG",
            Intrinsic::Pow => "PWR",
            Intrinsic::Sin => "SIN",
            Intrinsic::Sqrt => "SQRT",
        }
    }

    /// Cray-hardware-counter-equivalent flops per call.
    ///
    /// The Cray performance monitor counted the real adds/multiplies executed
    /// inside the vectorized libm routine; these weights are the operation
    /// counts of the classic rational/polynomial kernels used by those
    /// libraries. They define the "Cray Y-MP equivalent Mflops" metric the
    /// paper reports for RADABS and CCM2.
    pub(crate) fn cray_equiv_flops(self) -> f64 {
        match self {
            Intrinsic::Exp => 22.0,
            Intrinsic::Log => 24.0,
            Intrinsic::Pow => 46.0,
            Intrinsic::Sin => 26.0,
            Intrinsic::Sqrt => 14.0,
        }
    }
}

/// Geometry and rates of a vector unit.
#[derive(Debug, Clone)]
pub struct VectorUnit {
    /// Elements per vector register (SX-4: 8 chips x 32 elements = 256;
    /// Cray Y-MP/J90: 64). Operations longer than this strip-mine.
    pub reg_len: usize,
    /// Parallel pipes in the add/shift set (results per cycle).
    pub(crate) pipes_add: usize,
    /// Parallel pipes in the multiply set.
    pub(crate) pipes_mul: usize,
    /// Sustained divide results per cycle across the divide pipe set.
    /// Divides are iterative, so per-pipe throughput is below one.
    pub(crate) div_results_per_cycle: f64,
    /// Fixed startup (pipe fill + instruction overhead) charged per chime.
    pub startup_cycles: f64,
    /// Whether a dependent multiply+add pair chains into one pass
    /// (Cray-style chaining / SX concurrent pipe sets).
    pub(crate) chaining: bool,
    /// Sustained gather (list-vector load) throughput, elements per cycle.
    /// Irregular addressing cannot use the conflict-free stride paths.
    pub gather_elems_per_cycle: f64,
    /// Sustained scatter throughput, elements per cycle.
    pub(crate) scatter_elems_per_cycle: f64,
}

impl VectorUnit {
    /// Peak floating point results per cycle with add and multiply pipes
    /// running concurrently (the vendor "peak Gflops" number).
    pub(crate) fn peak_flops_per_cycle(&self) -> f64 {
        (self.pipes_add + self.pipes_mul) as f64
    }
}

/// Banked main-memory system behind the processor port(s).
#[derive(Debug, Clone)]
pub struct MemorySystem {
    /// Per-processor port bandwidth in bytes per cycle
    /// (SX-4: 16 GB/s at 8 ns = 128 bytes/cycle).
    pub(crate) port_bytes_per_cycle: f64,
    /// Number of interleaved banks (SX-4: up to 1024 SSRAM banks).
    pub banks: usize,
    /// Bank busy time in cycles (SX-4 SSRAM: 2 clocks).
    pub(crate) bank_busy_cycles: f64,
    /// Word size in bytes for bandwidth accounting (the paper assumes
    /// 64-bit data everywhere).
    pub(crate) word_bytes: usize,
    /// Throughput factor (<= 1) for strided (s > 2) streams even when
    /// bank-conflict-free: strided access cannot use the port's full
    /// contiguous transfer width. Unit and stride-2 streams are exempt,
    /// matching the SX-4's guarantee.
    pub nonunit_stride_factor: f64,
}

impl MemorySystem {
    /// Sustainable words per cycle through the port.
    pub fn port_words_per_cycle(&self) -> f64 {
        self.port_bytes_per_cycle / self.word_bytes as f64
    }

    /// Throughput multiplier (<= 1) for a strided access stream.
    ///
    /// A stride-`s` stream touches `banks / gcd(s, banks)` distinct banks.
    /// Keeping `w` words per cycle in flight with a bank busy time of `t`
    /// cycles requires `w * t` banks; fewer distinct banks throttle the
    /// stream proportionally. Unit stride and stride 2 are guaranteed
    /// conflict-free on the SX-4 (the paper, section 2.2), which this model
    /// reproduces for any sane bank count.
    pub fn stride_efficiency(&self, stride: usize, words_per_cycle: f64) -> f64 {
        if stride == 0 {
            return 1.0; // broadcast of a scalar — served from a register
        }
        let base = if stride <= 2 { 1.0 } else { self.nonunit_stride_factor };
        let distinct = self.banks / gcd(stride, self.banks);
        let needed = words_per_cycle * self.bank_busy_cycles;
        if (distinct as f64) >= needed {
            base
        } else {
            base * (distinct as f64 / needed).max(1.0 / (self.bank_busy_cycles * words_per_cycle))
        }
    }
}

/// Scalar (superscalar/cache) unit parameters.
///
/// On the SX-4 this is the RISC scalar unit with 64 KB I/D caches; on the
/// SPARC20 and RS6000/590 presets it is the whole machine.
#[derive(Debug, Clone)]
pub(crate) struct ScalarUnit {
    /// Instructions issued per cycle.
    pub(crate) issue_per_cycle: f64,
    /// Peak floating point operations per cycle (RS6000/590: 4 via two FMAs).
    pub(crate) flops_per_cycle: f64,
    /// Data cache capacity in bytes.
    pub(crate) dcache_bytes: usize,
    /// Cache line size in bytes.
    pub(crate) line_bytes: usize,
    /// Cycles to fill a line from memory on a miss.
    pub(crate) miss_penalty_cycles: f64,
    /// Average cost of one conditional branch (misprediction/refill
    /// amortized). Workstations with branch prediction sit near 1; the
    /// Cray-line scalar units, which refetch through memory, are several
    /// cycles. Dominates control-heavy codes like HINT.
    pub(crate) branch_penalty_cycles: f64,
}

/// Per-machine intrinsic function costs.
#[derive(Debug, Clone)]
pub(crate) struct IntrinsicCosts {
    /// Sustained cycles per element for the *vectorized* library routine
    /// (used when the machine has a vector unit and the call site is a
    /// vectorizable loop). Indexed by [`Intrinsic::ALL`] order.
    pub(crate) vector_cycles_per_elem: [f64; 5],
    /// Cycles per call through the scalar libm path.
    pub(crate) scalar_cycles_per_call: [f64; 5],
}

impl IntrinsicCosts {
    pub(crate) fn vector_cost(&self, f: Intrinsic) -> f64 {
        self.vector_cycles_per_elem[Self::index(f)]
    }

    pub(crate) fn scalar_cost(&self, f: Intrinsic) -> f64 {
        self.scalar_cycles_per_call[Self::index(f)]
    }

    fn index(f: Intrinsic) -> usize {
        match f {
            Intrinsic::Exp => 0,
            Intrinsic::Log => 1,
            Intrinsic::Pow => 2,
            Intrinsic::Sin => 3,
            Intrinsic::Sqrt => 4,
        }
    }
}

/// A complete machine description.
#[derive(Debug, Clone)]
pub struct MachineModel {
    /// Marketing name, e.g. `"NEC SX-4/32 (9.2ns)"`.
    pub name: String,
    /// Clock period in nanoseconds.
    pub clock_ns: f64,
    /// Vector unit, if the machine has one.
    pub vector: Option<VectorUnit>,
    /// Scalar unit (always present; sole engine on cache machines).
    pub(crate) scalar: ScalarUnit,
    /// Main memory system.
    pub memory: MemorySystem,
    /// Intrinsic library costs.
    pub(crate) intrinsics: IntrinsicCosts,
    /// Processors in a node sharing [`MachineModel::node_bytes_per_cycle`].
    pub procs: usize,
    /// Sustainable node memory bandwidth, bytes per cycle, shared by all
    /// processors (SX-4/32: 512 GB/s at 8 ns = 4096 bytes/cycle).
    pub node_bytes_per_cycle: f64,
    /// Cost of a full-node barrier, cycles: a per-preset constant, not
    /// derived from a model of the communications registers.
    pub(crate) barrier_cycles: f64,
}

impl MachineModel {
    /// Clock frequency in MHz.
    pub(crate) fn clock_mhz(&self) -> f64 {
        1000.0 / self.clock_ns
    }

    /// Peak Gflops per processor (vector peak if present, else scalar peak).
    pub fn peak_gflops_per_proc(&self) -> f64 {
        let per_cycle = self
            .vector
            .as_ref()
            .map(|v| v.peak_flops_per_cycle())
            .unwrap_or(self.scalar.flops_per_cycle);
        per_cycle * self.clock_mhz() / 1000.0
    }

    /// True if this machine times loops through the vector unit.
    pub fn is_vector(&self) -> bool {
        self.vector.is_some()
    }

    /// A canonical, platform-independent byte encoding of the full model:
    /// every field, in declaration order, big-endian. Two models encode
    /// identically iff they would price identically, so content-addressed
    /// caches (the `sxd` result cache) can hash run configurations that
    /// include a machine. Floats encode as their IEEE-754 bit patterns —
    /// no formatting, no rounding.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        let put_f64 = |out: &mut Vec<u8>, x: f64| out.extend_from_slice(&x.to_be_bytes());
        let put_u64 = |out: &mut Vec<u8>, x: u64| out.extend_from_slice(&x.to_be_bytes());
        put_u64(&mut out, self.name.len() as u64);
        out.extend_from_slice(self.name.as_bytes());
        put_f64(&mut out, self.clock_ns);
        match &self.vector {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                put_u64(&mut out, v.reg_len as u64);
                put_u64(&mut out, v.pipes_add as u64);
                put_u64(&mut out, v.pipes_mul as u64);
                put_f64(&mut out, v.div_results_per_cycle);
                put_f64(&mut out, v.startup_cycles);
                out.push(v.chaining as u8);
                put_f64(&mut out, v.gather_elems_per_cycle);
                put_f64(&mut out, v.scatter_elems_per_cycle);
            }
        }
        put_f64(&mut out, self.scalar.issue_per_cycle);
        put_f64(&mut out, self.scalar.flops_per_cycle);
        put_u64(&mut out, self.scalar.dcache_bytes as u64);
        put_u64(&mut out, self.scalar.line_bytes as u64);
        put_f64(&mut out, self.scalar.miss_penalty_cycles);
        put_f64(&mut out, self.scalar.branch_penalty_cycles);
        put_f64(&mut out, self.memory.port_bytes_per_cycle);
        put_u64(&mut out, self.memory.banks as u64);
        put_f64(&mut out, self.memory.bank_busy_cycles);
        put_u64(&mut out, self.memory.word_bytes as u64);
        put_f64(&mut out, self.memory.nonunit_stride_factor);
        for x in self.intrinsics.vector_cycles_per_elem {
            put_f64(&mut out, x);
        }
        for x in self.intrinsics.scalar_cycles_per_call {
            put_f64(&mut out, x);
        }
        put_u64(&mut out, self.procs as u64);
        put_f64(&mut out, self.node_bytes_per_cycle);
        put_f64(&mut out, self.barrier_cycles);
        out
    }
}

/// Greatest common divisor (used by the bank-conflict model).
pub(crate) fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemorySystem {
        MemorySystem {
            port_bytes_per_cycle: 128.0,
            banks: 1024,
            bank_busy_cycles: 2.0,
            word_bytes: 8,
            nonunit_stride_factor: 0.55,
        }
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 8), 4);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(gcd(1024, 512), 512);
    }

    #[test]
    fn unit_and_stride2_conflict_free() {
        let m = mem();
        assert_eq!(m.stride_efficiency(1, 16.0), 1.0);
        assert_eq!(m.stride_efficiency(2, 16.0), 1.0);
    }

    #[test]
    fn power_of_two_large_stride_throttles() {
        let m = mem();
        // stride 1024 hits a single bank: at most 1 access per busy time.
        let e = m.stride_efficiency(1024, 16.0);
        assert!(e < 0.05, "expected heavy throttling, got {e}");
        // odd strides keep all banks distinct (no conflict term), but still
        // pay the non-contiguous-transfer factor.
        assert_eq!(m.stride_efficiency(1023, 16.0), 0.55);
    }

    #[test]
    fn stride_efficiency_monotone_in_conflict() {
        let m = mem();
        let e256 = m.stride_efficiency(256, 16.0);
        let e512 = m.stride_efficiency(512, 16.0);
        let e1024 = m.stride_efficiency(1024, 16.0);
        assert!(e256 >= e512 && e512 >= e1024);
    }

    #[test]
    fn intrinsic_names_and_weights() {
        assert_eq!(Intrinsic::Exp.name(), "EXP");
        assert_eq!(Intrinsic::Pow.name(), "PWR");
        for f in Intrinsic::ALL {
            assert!(f.cray_equiv_flops() > 1.0);
        }
        // POW is priced like EXP + LOG.
        assert!(
            (Intrinsic::Pow.cray_equiv_flops()
                - Intrinsic::Exp.cray_equiv_flops()
                - Intrinsic::Log.cray_equiv_flops())
            .abs()
                <= 2.0
        );
    }

    #[test]
    fn peak_flops_from_pipes() {
        let v = VectorUnit {
            reg_len: 256,
            pipes_add: 8,
            pipes_mul: 8,
            div_results_per_cycle: 2.0,
            startup_cycles: 40.0,
            chaining: true,
            gather_elems_per_cycle: 2.0,
            scatter_elems_per_cycle: 2.0,
        };
        assert_eq!(v.peak_flops_per_cycle(), 16.0);
    }
}
