//! PROGINF — the SUPER-UX program-information report.
//!
//! Real SX-4 jobs ended with a PROGINF block: real time, vector time,
//! vector operation ratio, average vector length, MOPS/MFLOPS. The same
//! quantities fall out of the simulator's op statistics, and they are the
//! vocabulary the paper's analysis speaks (e.g. why VFFT beats RFFT:
//! average vector length; why T170 scales: longer vectors).

/// Raw operation statistics accumulated by a [`crate::Vm`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpStats {
    /// Vector instructions issued (one per charged vector op / chime set).
    pub vector_ops: u64,
    /// Elements processed by vector instructions.
    pub vector_elements: u64,
    /// Cycles spent in vector work (including vectorized intrinsics).
    pub vector_cycles: f64,
    /// Cycles spent in scalar work.
    pub scalar_cycles: f64,
    /// Scalar iterations executed.
    pub scalar_iters: u64,
    /// Intrinsic function calls (vectorized or scalar).
    pub intrinsic_calls: u64,
    /// Elements moved through gather/scatter (list-vector) hardware.
    pub indexed_elements: u64,
    /// Cycles charged directly (I/O waits, barriers, OS overhead).
    pub other_cycles: f64,
    /// Vector-op timings answered from the [`crate::Vm`] memo cache.
    pub memo_hits: u64,
    /// Vector-op timings computed analytically (memo misses + fills).
    pub memo_misses: u64,
}

impl OpStats {
    pub fn add(&mut self, other: &OpStats) {
        self.vector_ops += other.vector_ops;
        self.vector_elements += other.vector_elements;
        self.vector_cycles += other.vector_cycles;
        self.scalar_cycles += other.scalar_cycles;
        self.scalar_iters += other.scalar_iters;
        self.intrinsic_calls += other.intrinsic_calls;
        self.indexed_elements += other.indexed_elements;
        self.other_cycles += other.other_cycles;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
    }
}

/// The rendered report.
#[derive(Debug, Clone)]
pub struct Proginf {
    pub real_time_s: f64,
    pub vector_time_s: f64,
    pub scalar_time_s: f64,
    /// Fraction of all "operations" executed by vector instructions, in
    /// percent — the famous vectorization ratio.
    pub vector_operation_ratio_pct: f64,
    pub average_vector_length: f64,
    pub(crate) mops: f64,
    pub mflops: f64,
    pub cray_equiv_mflops: f64,
    /// Simulator internals: fraction of vector-op timings answered from
    /// the per-`Vm` memo cache, in percent.
    pub timing_memo_hit_pct: f64,
}

impl Proginf {
    /// Build the report from a ledger and its op statistics at a clock.
    pub(crate) fn from_stats(stats: &OpStats, cost: &crate::Cost, clock_ns: f64) -> Proginf {
        let real = cost.seconds(clock_ns);
        let to_s = |c: f64| c * clock_ns * 1e-9;
        let vec_elems = stats.vector_elements as f64;
        let scalar_ops = stats.scalar_iters as f64;
        let total_ops = vec_elems + scalar_ops;
        Proginf {
            real_time_s: real,
            vector_time_s: to_s(stats.vector_cycles),
            scalar_time_s: to_s(stats.scalar_cycles),
            vector_operation_ratio_pct: if total_ops > 0.0 {
                100.0 * vec_elems / total_ops
            } else {
                0.0
            },
            average_vector_length: if stats.vector_ops > 0 {
                vec_elems / stats.vector_ops as f64
            } else {
                0.0
            },
            mops: if real > 0.0 { total_ops / real / 1e6 } else { 0.0 },
            mflops: if real > 0.0 { cost.flops as f64 / real / 1e6 } else { 0.0 },
            cray_equiv_mflops: if real > 0.0 { cost.cray_flops / real / 1e6 } else { 0.0 },
            timing_memo_hit_pct: {
                let lookups = stats.memo_hits + stats.memo_misses;
                if lookups > 0 {
                    100.0 * stats.memo_hits as f64 / lookups as f64
                } else {
                    0.0
                }
            },
        }
    }
}

impl std::fmt::Display for Proginf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "******  Program Information  ******")?;
        writeln!(f, "  Real Time (sec)            : {:>14.6}", self.real_time_s)?;
        writeln!(f, "  Vector Time (sec)          : {:>14.6}", self.vector_time_s)?;
        writeln!(f, "  Scalar Time (sec)          : {:>14.6}", self.scalar_time_s)?;
        writeln!(f, "  Vector Operation Ratio (%) : {:>14.2}", self.vector_operation_ratio_pct)?;
        writeln!(f, "  Average Vector Length      : {:>14.1}", self.average_vector_length)?;
        writeln!(f, "  MOPS                       : {:>14.1}", self.mops)?;
        writeln!(f, "  MFLOPS                     : {:>14.1}", self.mflops)?;
        writeln!(f, "  Cray-equivalent MFLOPS     : {:>14.1}", self.cray_equiv_mflops)?;
        writeln!(f, "  Timing Memo Hit Ratio (%)  : {:>14.2}", self.timing_memo_hit_pct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::Vm;

    #[test]
    fn vector_kernel_reports_high_ratio_and_long_vectors() {
        let mut vm = Vm::new(presets::sx4_benchmarked());
        let a = vec![1.0f64; 100_000];
        let b = vec![2.0f64; 100_000];
        let mut c = vec![0.0f64; 100_000];
        vm.add(&mut c, &a, &b);
        vm.mul(&mut c, &a, &b);
        let p = vm.proginf();
        assert!(p.vector_operation_ratio_pct > 99.0, "{p}");
        assert!((p.average_vector_length - 100_000.0).abs() < 1.0);
        assert!(p.mflops > 100.0);
    }

    #[test]
    fn scalar_loop_reports_low_ratio() {
        let mut vm = Vm::new(presets::sx4_benchmarked());
        vm.charge_scalar_loop(50_000, 4.0, 2.0, 1.0, crate::LocalityPattern::Streaming);
        let p = vm.proginf();
        assert_eq!(p.vector_operation_ratio_pct, 0.0);
        assert!(p.scalar_time_s > 0.0);
        assert_eq!(p.vector_time_s, 0.0);
    }

    #[test]
    fn mixed_workload_splits_time() {
        let mut vm = Vm::new(presets::sx4_benchmarked());
        let a = vec![1.0f64; 10_000];
        let mut b = vec![0.0f64; 10_000];
        vm.copy(&mut b, &a);
        vm.charge_scalar_loop(10_000, 2.0, 2.0, 1.0, crate::LocalityPattern::Streaming);
        let p = vm.proginf();
        assert!(p.vector_time_s > 0.0 && p.scalar_time_s > 0.0);
        assert!((p.real_time_s - (p.vector_time_s + p.scalar_time_s)).abs() < 1e-12);
        assert!(p.vector_operation_ratio_pct > 0.0 && p.vector_operation_ratio_pct < 100.0);
    }

    #[test]
    fn display_renders_the_block() {
        let mut vm = Vm::new(presets::sx4_benchmarked());
        let a = vec![1.0f64; 1000];
        let mut b = vec![0.0f64; 1000];
        vm.copy(&mut b, &a);
        let text = format!("{}", vm.proginf());
        assert!(text.contains("Program Information"));
        assert!(text.contains("Vector Operation Ratio"));
        assert!(text.contains("Average Vector Length"));
    }

    #[test]
    fn stats_accumulate() {
        let mut a = OpStats { vector_ops: 1, vector_elements: 10, ..Default::default() };
        let b = OpStats {
            vector_ops: 2,
            vector_elements: 30,
            intrinsic_calls: 5,
            ..Default::default()
        };
        a.add(&b);
        assert_eq!(a.vector_ops, 3);
        assert_eq!(a.vector_elements, 40);
        assert_eq!(a.intrinsic_calls, 5);
    }
}
