//! Vectorization lints over a recorded op stream.
//!
//! The [`VectorLinter`] is a [`Recorder`]: replay an [`OpTrace`] through it
//! and it aggregates per-FTRACE-region statistics, then judges each region
//! against the performance folklore of the paper — short vector lengths
//! (§4.3: why RFFT loses to VFFT), low vector-operation ratios (Amdahl on a
//! 16:1 vector:scalar machine), gather/scatter dominance, and power-of-two
//! strides colliding on the banked memory (§2.2).
//!
//! PR 6 adds three dataflow lints: aggregate bank-occupancy pressure when
//! a region's *combined* strided traffic runs well below the achievable
//! non-unit-stride rate even though no single stride crosses the SXC004
//! bar (SXC006); reloads of an identical operand stream with no
//! intervening write — a common-subexpression-elimination opportunity on
//! a machine where the memory port is the scarce resource (SXC007); and
//! strip-mining advice when loop counts leave a short final strip just
//! above a multiple of the vector register length (SXC008).
//!
//! [`OpTrace`]: sxsim::OpTrace

use crate::report::{Diagnostic, Severity};
use std::collections::BTreeMap;
use sxsim::timing::Access;
use sxsim::{MachineModel, Recorder, TraceEvent};

/// Events outside any FTRACE region are attributed to this pseudo-region.
pub(crate) const TOPLEVEL: &str = "(outside regions)";

/// Minimum average vector length before SXC001 stays quiet.
pub(crate) const SHORT_AVL: f64 = 64.0;
/// Vector ops a region must issue before average length is judged.
pub(crate) const MIN_OPS_FOR_AVL: u64 = 16;
/// Vector-operation ratio (%) below which SXC002 fires.
pub(crate) const MIN_VRATIO_PCT: f64 = 90.0;
/// Elements a region must process before its ratio is judged.
pub(crate) const MIN_ELEMENTS: u64 = 10_000;
/// Fraction of stream elements through gather/scatter that triggers SXC003.
pub(crate) const INDEXED_FRACTION: f64 = 0.30;
/// Elements a stride must move before it is judged for bank conflicts.
pub(crate) const MIN_STRIDE_ELEMS: u64 = 4_096;
/// Bank-conflict ratio (efficiency relative to the generic non-unit-stride
/// baseline) below which SXC004 fires.
pub(crate) const CONFLICT_RATIO: f64 = 0.90;
/// Fraction of region cycles outside vector work that triggers SXC005.
pub(crate) const SCALAR_FRACTION: f64 = 0.25;
/// Cycles a region must cost before its scalar fraction is judged.
pub(crate) const MIN_REGION_CYCLES: f64 = 10_000.0;
/// Aggregate strided efficiency (relative to the non-unit-stride rate)
/// below which SXC006 fires for a region's combined strided traffic.
pub(crate) const PRESSURE_RATIO: f64 = 0.75;
/// Redundant load-only operations a region must repeat before SXC007
/// fires (each repeat of an already-pending stream counts once).
pub(crate) const MIN_REDUNDANT_LOADS: u64 = 2;
/// A strip-mine remainder is "short" when it is at most `reg_len` divided
/// by this (SX-4: 256/8 = 32 elements riding a full startup charge).
pub(crate) const STRIP_REMAINDER_DIV: usize = 8;

/// Per-region aggregates accumulated during replay.
#[derive(Debug, Clone, Default)]
struct RegionAgg {
    vector_ops: u64,
    vector_elements: u64,
    short_vector_ops: u64,
    /// Elements moved per access stream (`n` per load/store of each op).
    stream_elements: u64,
    /// Of those, elements through gather/scatter hardware.
    indexed_elements: u64,
    /// Elements moved at each stride > 2 (where conflicts are possible).
    stride_elements: BTreeMap<usize, u64>,
    vector_cycles: f64,
    scalar_cycles: f64,
    other_cycles: f64,
    scalar_iters: u64,
    /// Vector-op length histogram (for strip-mining advice).
    n_counts: BTreeMap<usize, u64>,
    /// Load-only operand-stream signatures seen since the last write
    /// barrier, with the elements each moved (for reload detection).
    pending_loads: BTreeMap<String, u64>,
    /// Load-only ops that repeated a pending signature, and the elements
    /// they re-read.
    redundant_loads: u64,
    redundant_elems: u64,
}

/// Aggregates an op stream into per-region statistics and emits
/// vectorization lints.
#[derive(Debug, Default)]
pub(crate) struct VectorLinter {
    regions: BTreeMap<String, RegionAgg>,
    open: Option<String>,
}

impl VectorLinter {
    pub(crate) fn new() -> VectorLinter {
        VectorLinter::default()
    }

    fn agg(&mut self) -> &mut RegionAgg {
        let key = self.open.as_deref().unwrap_or(TOPLEVEL).to_string();
        self.regions.entry(key).or_default()
    }

    /// Judge every region seen so far against `model`. Vector-specific
    /// lints (SXC001–SXC004) only apply to vector machines.
    pub(crate) fn diagnostics(&self, model: &MachineModel) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let wpc = model.memory.port_words_per_cycle();
        for (name, a) in &self.regions {
            let diag = |code, message, hint: String| Diagnostic {
                severity: Severity::Warning,
                code,
                region: name.clone(),
                message,
                hint,
            };

            if model.is_vector() {
                // SXC001: short average vector length.
                if a.vector_ops >= MIN_OPS_FOR_AVL {
                    let avl = a.vector_elements as f64 / a.vector_ops as f64;
                    if avl < SHORT_AVL {
                        out.push(diag(
                            "SXC001",
                            format!(
                                "average vector length {avl:.1} over {} vector ops (threshold {SHORT_AVL})",
                                a.vector_ops
                            ),
                            "restructure loops so the vectorized axis is the long one \
                             (the VFFT-vs-RFFT transformation of §4.3)"
                                .to_string(),
                        ));
                    }
                }

                // SXC002: low vector-operation ratio.
                let total_ops = a.vector_elements + a.scalar_iters;
                if total_ops >= MIN_ELEMENTS {
                    let ratio = 100.0 * a.vector_elements as f64 / total_ops as f64;
                    if ratio < MIN_VRATIO_PCT {
                        out.push(diag(
                            "SXC002",
                            format!(
                                "vector operation ratio {ratio:.1}% over {total_ops} operations \
                                 (threshold {MIN_VRATIO_PCT}%)"
                            ),
                            "vectorize the residual scalar loops; on a machine with a 16:1 \
                             vector:scalar speed ratio, 90% vectorization yields only ~6x"
                                .to_string(),
                        ));
                    }
                }

                // SXC003: gather/scatter-dominated traffic.
                if a.stream_elements >= MIN_ELEMENTS {
                    let frac = a.indexed_elements as f64 / a.stream_elements as f64;
                    if frac > INDEXED_FRACTION {
                        out.push(diag(
                            "SXC003",
                            format!(
                                "{:.0}% of stream elements go through gather/scatter \
                                 (threshold {:.0}%)",
                                100.0 * frac,
                                100.0 * INDEXED_FRACTION
                            ),
                            "list-vector hardware sustains a fraction of the contiguous port \
                             rate; reorder data to recover stride access where possible"
                                .to_string(),
                        ));
                    }
                }

                // SXC004: strides colliding on the banked memory.
                for (&stride, &elems) in &a.stride_elements {
                    if elems < MIN_STRIDE_ELEMS {
                        continue;
                    }
                    let eff = model.memory.stride_efficiency(stride, wpc);
                    let base = model.memory.nonunit_stride_factor;
                    let conflict = if base > 0.0 { eff / base } else { 1.0 };
                    if conflict < CONFLICT_RATIO {
                        let banks = model.memory.banks;
                        let distinct = banks / gcd(stride, banks);
                        out.push(diag(
                            "SXC004",
                            format!(
                                "stride {stride} touches only {distinct} of {banks} banks \
                                 ({elems} elements at {:.0}% of the achievable non-unit-stride rate)",
                                100.0 * conflict
                            ),
                            format!(
                                "pad the leading dimension so the stride is odd \
                                 (e.g. {}), restoring all {banks} banks",
                                stride + 1
                            ),
                        ));
                    }
                }

                // SXC006: aggregate bank-occupancy pressure. Individually
                // small strided streams (each under the SXC004 volume bar)
                // can still add up to a region that runs far below the
                // achievable strided rate.
                let strided_total: u64 = a.stride_elements.values().sum();
                if strided_total >= MIN_ELEMENTS {
                    let base = model.memory.nonunit_stride_factor;
                    let weighted: f64 = a
                        .stride_elements
                        .iter()
                        .map(|(&stride, &elems)| {
                            let eff = model.memory.stride_efficiency(stride, wpc);
                            let conflict = if base > 0.0 { eff / base } else { 1.0 };
                            conflict * elems as f64
                        })
                        .sum();
                    let pressure = weighted / strided_total as f64;
                    if pressure < PRESSURE_RATIO {
                        out.push(diag(
                            "SXC006",
                            format!(
                                "strided traffic sustains {:.0}% of the achievable \
                                 non-unit-stride rate across {} stride(s), {} elements \
                                 (threshold {:.0}%)",
                                100.0 * pressure,
                                a.stride_elements.len(),
                                strided_total,
                                100.0 * PRESSURE_RATIO
                            ),
                            "the region's strides collectively occupy too few banks; \
                             pad leading dimensions to odd strides or transpose so the \
                             inner axis is contiguous"
                                .to_string(),
                        ));
                    }
                }

                // SXC008: strip-mining advice — loop counts that leave a
                // short final strip pay a full startup charge for a few
                // elements on every pass.
                if let Some(vu) = &model.vector {
                    let reg = vu.reg_len;
                    let max_rem = reg / STRIP_REMAINDER_DIV;
                    let mut strip_ops = 0u64;
                    let mut worst: Option<(usize, u64)> = None;
                    for (&n, &count) in &a.n_counts {
                        let rem = if n > reg { n % reg } else { 0 };
                        if rem > 0 && rem <= max_rem {
                            strip_ops += count;
                            if worst.is_none_or(|(_, c)| count > c) {
                                worst = Some((n, count));
                            }
                        }
                    }
                    if strip_ops >= MIN_OPS_FOR_AVL {
                        let (n, count) = worst.expect("strip_ops > 0 implies a worst n");
                        out.push(diag(
                            "SXC008",
                            format!(
                                "{strip_ops} vector ops leave a short strip-mine remainder \
                                 (e.g. {count} ops of length {n}: {n} mod {reg} = {} \
                                 <= {max_rem})",
                                n % reg
                            ),
                            format!(
                                "the final strip pays the full {:.0}-cycle startup for a \
                                 handful of elements; pad the loop count to a multiple of \
                                 {reg} or fold the remainder into the preceding strip",
                                vu.startup_cycles
                            ),
                        ));
                    }
                }
            }

            // SXC007: reloading an identical operand stream with no
            // intervening write — redundant memory traffic a common-
            // subexpression pass would eliminate. Applies to cache
            // machines too: the reload misses all the way to memory there.
            if a.redundant_loads >= MIN_REDUNDANT_LOADS && a.redundant_elems >= MIN_ELEMENTS {
                out.push(diag(
                    "SXC007",
                    format!(
                        "{} load-only operation(s) re-read identical operand streams \
                         ({} redundant elements) with no intervening write",
                        a.redundant_loads, a.redundant_elems
                    ),
                    "hoist the repeated reduction or load out of the loop (common-\
                     subexpression elimination); the memory port is the scarce resource"
                        .to_string(),
                ));
            }

            // SXC005: Amdahl — too much of the region is not vector work.
            let total = a.vector_cycles + a.scalar_cycles + a.other_cycles;
            if total >= MIN_REGION_CYCLES {
                let nonvec = (a.scalar_cycles + a.other_cycles) / total;
                if nonvec > SCALAR_FRACTION {
                    let cap = 1.0 / nonvec;
                    out.push(diag(
                        "SXC005",
                        format!(
                            "{:.0}% of the region's {total:.0} cycles are scalar or overhead \
                             (threshold {:.0}%)",
                            100.0 * nonvec,
                            100.0 * SCALAR_FRACTION
                        ),
                        format!(
                            "Amdahl caps any vector/parallel speedup of this region at {cap:.1}x"
                        ),
                    ));
                }
            }
        }
        out
    }
}

impl Recorder for VectorLinter {
    fn record(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::EnterRegion { name } => {
                self.open = Some(name.clone());
                // Region transitions are conservative write barriers: ops
                // inside may write what the enclosing stream read.
                self.clear_pending();
            }
            TraceEvent::ExitRegion { .. } => {
                self.open = None;
                self.clear_pending();
            }
            TraceEvent::VecOp { class, n, loads, stores, cost } => {
                let n = *n;
                let writes_memory =
                    stores.iter().any(|s| matches!(s, Access::Stride(_) | Access::Indexed));
                let reads_memory =
                    loads.iter().any(|s| matches!(s, Access::Stride(_) | Access::Indexed));
                let a = self.agg();
                a.vector_ops += 1;
                a.vector_elements += n as u64;
                if (n as f64) < SHORT_AVL {
                    a.short_vector_ops += 1;
                }
                a.vector_cycles += cost.cycles;
                *a.n_counts.entry(n).or_insert(0) += 1;
                for acc in loads.iter().chain(stores.iter()) {
                    a.stream_elements += n as u64;
                    match acc {
                        Access::Indexed => a.indexed_elements += n as u64,
                        Access::Stride(s) if *s > 2 => {
                            *a.stride_elements.entry(*s).or_insert(0) += n as u64;
                        }
                        _ => {}
                    }
                }
                if writes_memory {
                    a.pending_loads.clear();
                } else if reads_memory {
                    // Load-only op: identical (class, length, access list)
                    // with no write in between means the same streams are
                    // fetched again.
                    let sig = format!("{class:?}/{n}/{loads:?}");
                    use std::collections::btree_map::Entry;
                    match a.pending_loads.entry(sig) {
                        Entry::Occupied(_) => {
                            a.redundant_loads += 1;
                            a.redundant_elems += n as u64;
                        }
                        Entry::Vacant(v) => {
                            v.insert(n as u64);
                        }
                    }
                }
            }
            TraceEvent::ScalarLoop { iters, cost } => {
                let a = self.agg();
                a.scalar_iters += *iters as u64;
                a.scalar_cycles += cost.cycles;
                a.pending_loads.clear(); // scalar code may write anything
            }
            TraceEvent::Intrinsic { n, cost, .. } => {
                let a = self.agg();
                a.vector_ops += 1;
                a.vector_elements += *n as u64;
                a.vector_cycles += cost.cycles;
                a.pending_loads.clear(); // intrinsics write their results
            }
            TraceEvent::Charge { cost } => {
                let a = self.agg();
                a.other_cycles += cost.cycles;
                a.pending_loads.clear(); // barriers/IO publish other work
            }
        }
    }
}

impl VectorLinter {
    /// Drop every region's pending load signatures (conservative barrier).
    fn clear_pending(&mut self) {
        for a in self.regions.values_mut() {
            a.pending_loads.clear();
        }
    }
}

/// Greatest common divisor (sxsim's is private to its crate).
pub(crate) fn gcd(a: usize, b: usize) -> usize {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxsim::{presets, Ftrace, Vm};

    fn traced_vm() -> Vm {
        let mut vm = Vm::new(presets::sx4_benchmarked());
        vm.start_trace();
        vm
    }

    fn lints(vm: &mut Vm) -> Vec<Diagnostic> {
        let model = vm.model().clone();
        let trace = vm.take_trace().expect("tracing was on");
        let mut linter = VectorLinter::new();
        trace.replay(&mut linter);
        linter.diagnostics(&model)
    }

    #[test]
    fn clean_unit_stride_work_has_no_findings() {
        let mut vm = traced_vm();
        let a = vec![1.0f64; 100_000];
        let b = vec![2.0f64; 100_000];
        let mut c = vec![0.0f64; 100_000];
        vm.add(&mut c, &a, &b);
        vm.fma(&mut c, &a, &b, &a);
        assert!(lints(&mut vm).is_empty());
    }

    #[test]
    fn short_vectors_flagged() {
        let mut vm = traced_vm();
        let a = vec![1.0f64; 8];
        let mut b = vec![0.0f64; 8];
        for _ in 0..100 {
            vm.copy(&mut b, &a);
        }
        let ds = lints(&mut vm);
        assert!(ds.iter().any(|d| d.code == "SXC001"), "{ds:?}");
    }

    #[test]
    fn power_of_two_stride_flagged_with_bank_counts() {
        let mut vm = traced_vm();
        let n = 8_192usize;
        let src = vec![1.0f64; n * 128];
        let mut dst = vec![0.0f64; n * 128];
        vm.copy_strided(&mut dst, 128, &src, 128, n);
        let ds = lints(&mut vm);
        let d = ds.iter().find(|d| d.code == "SXC004").expect("bank-conflict lint");
        assert!(d.message.contains("8 of 1024 banks"), "{}", d.message);
        assert!(d.hint.contains("odd"), "{}", d.hint);
    }

    #[test]
    fn odd_stride_not_flagged_as_conflict() {
        let mut vm = traced_vm();
        let n = 8_192usize;
        let src = vec![1.0f64; n * 129];
        let mut dst = vec![0.0f64; n * 129];
        vm.copy_strided(&mut dst, 129, &src, 129, n);
        let ds = lints(&mut vm);
        assert!(!ds.iter().any(|d| d.code == "SXC004"), "{ds:?}");
    }

    #[test]
    fn gather_dominated_region_flagged() {
        let mut vm = traced_vm();
        let n = 50_000usize;
        let src: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let idx: Vec<usize> = (0..n).rev().collect();
        let mut dst = vec![0.0f64; n];
        vm.gather(&mut dst, &src, &idx);
        let ds = lints(&mut vm);
        assert!(ds.iter().any(|d| d.code == "SXC003"), "{ds:?}");
    }

    #[test]
    fn scalar_heavy_region_gets_amdahl_warning() {
        let mut vm = traced_vm();
        let mut ft = Ftrace::new();
        let a = vec![1.0f64; 1000];
        let mut b = vec![0.0f64; 1000];
        ft.region("physics", &mut vm, |vm| {
            vm.copy(&mut b, &a);
            vm.charge_scalar_loop(60_000, 2.0, 2.0, 1.0, sxsim::LocalityPattern::Streaming);
        });
        let ds = lints(&mut vm);
        let d = ds.iter().find(|d| d.code == "SXC005").expect("Amdahl warning");
        assert_eq!(d.region, "physics");
        // The scalar ratio also trips SXC002 in the same region.
        assert!(ds.iter().any(|d| d.code == "SXC002"), "{ds:?}");
    }

    #[test]
    fn findings_attribute_to_their_region() {
        let mut vm = traced_vm();
        let mut ft = Ftrace::new();
        let n = 8_192usize;
        let src = vec![1.0f64; n * 128];
        let mut dst = vec![0.0f64; n * 128];
        let long = vec![1.0f64; 100_000];
        let mut out = vec![0.0f64; 100_000];
        ft.region("bad-stride", &mut vm, |vm| vm.copy_strided(&mut dst, 128, &src, 128, n));
        ft.region("clean", &mut vm, |vm| vm.copy(&mut out, &long));
        let ds = lints(&mut vm);
        let bad: Vec<_> = ds.iter().filter(|d| d.code == "SXC004").collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].region, "bad-stride");
    }

    #[test]
    fn aggregate_stride_pressure_flagged_below_sxc004_volume() {
        let mut vm = traced_vm();
        let n = 1_500usize; // 3_000 elements per stride: under MIN_STRIDE_ELEMS
        for &stride in &[64usize, 128, 256, 512] {
            let src = vec![1.0f64; n * stride];
            let mut dst = vec![0.0f64; n * stride];
            vm.copy_strided(&mut dst, stride, &src, stride, n);
        }
        let ds = lints(&mut vm);
        assert!(!ds.iter().any(|d| d.code == "SXC004"), "no single stride crosses: {ds:?}");
        let d = ds.iter().find(|d| d.code == "SXC006").expect("aggregate pressure lint");
        assert!(d.message.contains("4 stride(s)"), "{}", d.message);
    }

    #[test]
    fn odd_strides_produce_no_pressure_finding() {
        let mut vm = traced_vm();
        let n = 3_000usize;
        for &stride in &[63usize, 129, 255, 513] {
            let src = vec![1.0f64; n * stride];
            let mut dst = vec![0.0f64; n * stride];
            vm.copy_strided(&mut dst, stride, &src, stride, n);
        }
        let ds = lints(&mut vm);
        assert!(!ds.iter().any(|d| d.code == "SXC006"), "{ds:?}");
    }

    #[test]
    fn repeated_reduction_without_write_is_a_reload() {
        let mut vm = traced_vm();
        let a: Vec<f64> = (0..6_000).map(|i| i as f64).collect();
        for _ in 0..4 {
            vm.sum(&a); // identical load-only stream, nothing written
        }
        let ds = lints(&mut vm);
        let d = ds.iter().find(|d| d.code == "SXC007").expect("reload lint");
        assert!(d.message.contains("3 load-only"), "{}", d.message);
        assert!(d.message.contains("18000 redundant elements"), "{}", d.message);
    }

    #[test]
    fn intervening_write_clears_reload_tracking() {
        let mut vm = traced_vm();
        let a: Vec<f64> = (0..6_000).map(|i| i as f64).collect();
        let mut out = vec![0.0f64; 6_000];
        for _ in 0..4 {
            vm.sum(&a);
            vm.copy(&mut out, &a); // a write barrier between the reloads
        }
        let ds = lints(&mut vm);
        assert!(!ds.iter().any(|d| d.code == "SXC007"), "{ds:?}");
    }

    #[test]
    fn short_strip_mine_remainder_flagged() {
        let mut vm = traced_vm();
        let n = 256 * 4 + 16; // remainder 16 <= 256/8
        let a = vec![1.0f64; n];
        let b = vec![2.0f64; n];
        let mut c = vec![0.0f64; n];
        for _ in 0..20 {
            vm.add(&mut c, &a, &b);
        }
        let ds = lints(&mut vm);
        let d = ds.iter().find(|d| d.code == "SXC008").expect("strip-mining lint");
        assert!(d.message.contains("1040"), "{}", d.message);
        assert!(d.hint.contains("multiple of"), "{}", d.hint);
    }

    #[test]
    fn full_strips_and_long_remainders_are_clean() {
        let mut vm = traced_vm();
        let a = vec![1.0f64; 1024]; // 4 full strips exactly
        let b = vec![2.0f64; 1024];
        let mut c = vec![0.0f64; 1024];
        for _ in 0..20 {
            vm.add(&mut c, &a, &b);
        }
        let la = vec![1.0f64; 256 * 4 + 200]; // remainder 200 > 32
        let lb = vec![2.0f64; 256 * 4 + 200];
        let mut lc = vec![0.0f64; 256 * 4 + 200];
        for _ in 0..20 {
            vm.add(&mut lc, &la, &lb);
        }
        let ds = lints(&mut vm);
        assert!(!ds.iter().any(|d| d.code == "SXC008"), "{ds:?}");
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(128, 1024), 128);
        assert_eq!(gcd(129, 1024), 1);
        assert_eq!(gcd(1000, 1024), 8);
    }
}
