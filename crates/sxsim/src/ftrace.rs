//! FTRACE — the SUPER-UX per-routine execution analyzer.
//!
//! Real SX-4 development ran with `-ftrace`, which printed a per-routine
//! table of exclusive time, MFLOPS, vector operation ratio and average
//! vector length. The same report falls out of the simulator by
//! snapshotting a [`Vm`]'s lifetime ledger and op statistics at region
//! boundaries. The CCM2 proxy uses it to show where a timestep goes
//! (synthesis / grid tendencies / physics / SLT / analysis / solve).

use crate::cost::Cost;
use crate::error::SimError;
use crate::proginf::OpStats;
use crate::program::ProgramOp;
use crate::trace::TraceEvent;
use crate::vm::Vm;
use std::collections::BTreeMap;

/// Accumulated exclusive totals for one named region.
#[derive(Debug, Clone, Default)]
pub struct RegionTotals {
    pub calls: u64,
    pub cost: Cost,
    pub stats: OpStats,
}

impl RegionTotals {
    /// Exclusive seconds at a clock.
    pub fn seconds(&self, clock_ns: f64) -> f64 {
        self.cost.seconds(clock_ns)
    }

    /// MFLOPS over the region's own time.
    pub fn mflops(&self, clock_ns: f64) -> f64 {
        self.cost.mflops(clock_ns)
    }

    /// Average vector length inside the region.
    pub fn average_vector_length(&self) -> f64 {
        if self.stats.vector_ops == 0 {
            0.0
        } else {
            self.stats.vector_elements as f64 / self.stats.vector_ops as f64
        }
    }

    /// Vector operation ratio (%) inside the region.
    pub fn vector_ratio_pct(&self) -> f64 {
        let v = self.stats.vector_elements as f64;
        let s = self.stats.scalar_iters as f64;
        if v + s == 0.0 {
            0.0
        } else {
            100.0 * v / (v + s)
        }
    }
}

/// The analyzer: wraps region entry/exit around work done on a [`Vm`].
#[derive(Debug, Default)]
pub struct Ftrace {
    regions: BTreeMap<String, RegionTotals>,
    open: Option<(String, Cost, OpStats)>,
}

impl Ftrace {
    pub fn new() -> Ftrace {
        Ftrace::default()
    }

    /// Enter a region: snapshot the Vm and mark the boundary in its op
    /// trace (if tracing). Regions may not nest (FTRACE exclusive-time
    /// semantics): entering while another region is open is an error.
    pub fn enter(&mut self, name: &str, vm: &mut Vm) -> Result<(), SimError> {
        if let Some((open, _, _)) = &self.open {
            return Err(SimError::RegionAlreadyOpen {
                open: open.clone(),
                attempted: name.to_string(),
            });
        }
        self.open = Some((name.to_string(), vm.lifetime_cost(), *vm.stats()));
        vm.trace_event(|| TraceEvent::EnterRegion { name: name.to_string() });
        vm.record_mark(|| ProgramOp::Enter(name.into()));
        Ok(())
    }

    /// Exit the open region, attributing everything charged since `enter`.
    pub fn exit(&mut self, vm: &mut Vm) -> Result<(), SimError> {
        let (name, c0, s0) = self.open.take().ok_or(SimError::NoOpenRegion)?;
        vm.trace_event(|| TraceEvent::ExitRegion { name: name.clone() });
        vm.record_mark(|| ProgramOp::Exit);
        let c1 = vm.lifetime_cost();
        let s1 = vm.stats();
        let entry = self.regions.entry(name).or_default();
        entry.calls += 1;
        entry.cost.add(Cost {
            cycles: c1.cycles - c0.cycles,
            flops: c1.flops - c0.flops,
            cray_flops: c1.cray_flops - c0.cray_flops,
            bytes: c1.bytes - c0.bytes,
        });
        entry.stats.add(&OpStats {
            vector_ops: s1.vector_ops - s0.vector_ops,
            vector_elements: s1.vector_elements - s0.vector_elements,
            vector_cycles: s1.vector_cycles - s0.vector_cycles,
            scalar_cycles: s1.scalar_cycles - s0.scalar_cycles,
            scalar_iters: s1.scalar_iters - s0.scalar_iters,
            intrinsic_calls: s1.intrinsic_calls - s0.intrinsic_calls,
            indexed_elements: s1.indexed_elements - s0.indexed_elements,
            other_cycles: s1.other_cycles - s0.other_cycles,
            memo_hits: s1.memo_hits - s0.memo_hits,
            memo_misses: s1.memo_misses - s0.memo_misses,
            program_records: s1.program_records - s0.program_records,
            program_replays: s1.program_replays - s0.program_replays,
        });
        Ok(())
    }

    /// Run `work` inside a region (the convenient form). Panics if a
    /// region is already open — use [`Ftrace::enter`]/[`Ftrace::exit`]
    /// directly to handle that as an error.
    pub fn region<R>(&mut self, name: &str, vm: &mut Vm, work: impl FnOnce(&mut Vm) -> R) -> R {
        self.enter(name, vm).expect("Ftrace::region entered while a region is open");
        let out = work(vm);
        self.exit(vm).expect("region was opened above");
        out
    }

    /// All regions, by name.
    pub fn regions(&self) -> &BTreeMap<String, RegionTotals> {
        &self.regions
    }

    /// The analysis list as data: one row per region with the classic
    /// extra columns (MFLOPS, vector operation ratio, average vector
    /// length), for programmatic consumers of the breakdown.
    pub fn rows(&self, clock_ns: f64) -> Vec<FtraceRow> {
        self.regions
            .iter()
            .map(|(name, r)| FtraceRow {
                name: name.clone(),
                calls: r.calls,
                seconds: r.seconds(clock_ns),
                extra: vec![r.mflops(clock_ns), r.vector_ratio_pct(), r.average_vector_length()],
            })
            .collect()
    }

    /// Render the classic FTRACE table, sorted by exclusive time.
    pub fn render(&self, clock_ns: f64) -> String {
        render_analysis_list(&["MFLOPS", "V.OP%", "AVG.VL"], self.rows(clock_ns))
    }
}

/// One row of an FTRACE-style analysis list: a named region, how often it
/// was entered, its exclusive seconds, and caller-defined extra columns.
///
/// [`Ftrace::rows`] produces these for simulator regions; other exclusive
/// breakdowns (the `sxd` daemon's per-suite simulated-seconds table) build
/// their own rows and share [`render_analysis_list`] so every breakdown in
/// the system reads the same way.
#[derive(Debug, Clone, PartialEq)]
pub struct FtraceRow {
    pub name: String,
    pub calls: u64,
    pub seconds: f64,
    /// Values for the caller's extra columns, matching `extra_headers`.
    pub extra: Vec<f64>,
}

/// Render rows in the FTRACE format: banner, REGION/CALLS/EXCL.TIME/TIME%
/// plus the caller's extra column headers, sorted by exclusive time with
/// TIME% computed over the rendered set.
pub fn render_analysis_list(extra_headers: &[&str], mut rows: Vec<FtraceRow>) -> String {
    rows.sort_by(|a, b| b.seconds.total_cmp(&a.seconds).then(a.name.cmp(&b.name)));
    let total: f64 = rows.iter().map(|r| r.seconds).sum();
    let mut out = String::from(
        "*----------------------*\n|  FTRACE ANALYSIS LIST |\n*----------------------*\n",
    );
    out.push_str(&format!("{:<20} {:>6} {:>12} {:>7}", "REGION", "CALLS", "EXCL.TIME(s)", "TIME%"));
    for h in extra_headers {
        out.push_str(&format!(" {h:>10}"));
    }
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:<20} {:>6} {:>12.6} {:>7.1}",
            r.name,
            r.calls,
            r.seconds,
            if total > 0.0 { 100.0 * r.seconds / total } else { 0.0 },
        ));
        for x in &r.extra {
            out.push_str(&format!(" {x:>10.1}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::timing::LocalityPattern;

    fn vm() -> Vm {
        Vm::new(presets::sx4_benchmarked())
    }

    #[test]
    fn regions_attribute_exclusive_work() {
        let mut vm = vm();
        let mut ft = Ftrace::new();
        let a = vec![1.0f64; 10_000];
        let mut b = vec![0.0f64; 10_000];
        ft.region("vector-copy", &mut vm, |vm| vm.copy(&mut b, &a));
        ft.region("scalar-loop", &mut vm, |vm| {
            vm.charge_scalar_loop(5_000, 2.0, 2.0, 1.0, LocalityPattern::Streaming)
        });
        let regions = ft.regions();
        assert_eq!(regions.len(), 2);
        let copy = &regions["vector-copy"];
        let scalar = &regions["scalar-loop"];
        assert_eq!(copy.calls, 1);
        assert!(copy.vector_ratio_pct() > 99.9);
        assert!((copy.average_vector_length() - 10_000.0).abs() < 1.0);
        assert_eq!(scalar.vector_ratio_pct(), 0.0);
        // Exclusive split: the two regions account for everything.
        let total = copy.cost.cycles + scalar.cost.cycles;
        assert!((total - vm.lifetime_cost().cycles).abs() < 1e-9);
    }

    #[test]
    fn repeated_entries_accumulate_calls() {
        let mut vm = vm();
        let mut ft = Ftrace::new();
        let a = vec![1.0f64; 64];
        let mut b = vec![0.0f64; 64];
        for _ in 0..5 {
            ft.region("copy", &mut vm, |vm| vm.copy(&mut b, &a));
        }
        assert_eq!(ft.regions()["copy"].calls, 5);
    }

    #[test]
    fn nesting_rejected() {
        let mut ft = Ftrace::new();
        let mut vm = vm();
        ft.enter("outer", &mut vm).unwrap();
        let err = ft.enter("inner", &mut vm).unwrap_err();
        assert!(matches!(err, crate::SimError::RegionAlreadyOpen { .. }), "{err}");
        assert!(ft.exit(&mut vm).is_ok());
        assert_eq!(ft.exit(&mut vm), Err(crate::SimError::NoOpenRegion));
    }

    #[test]
    fn region_markers_recorded_in_trace() {
        let mut vm = vm();
        vm.start_trace();
        let mut ft = Ftrace::new();
        let a = vec![1.0f64; 64];
        let mut b = vec![0.0f64; 64];
        ft.region("copy", &mut vm, |vm| vm.copy(&mut b, &a));
        let trace = vm.take_trace().unwrap();
        let names: Vec<String> = trace
            .events()
            .iter()
            .filter_map(|e| match e {
                crate::trace::TraceEvent::EnterRegion { name } => Some(format!("+{name}")),
                crate::trace::TraceEvent::ExitRegion { name } => Some(format!("-{name}")),
                _ => None,
            })
            .collect();
        assert_eq!(names, vec!["+copy", "-copy"]);
    }

    #[test]
    fn rows_match_render_and_custom_lists_share_the_format() {
        let mut vm = vm();
        let mut ft = Ftrace::new();
        let a = vec![1.0f64; 1000];
        let mut b = vec![0.0f64; 1000];
        ft.region("copy", &mut vm, |vm| vm.copy(&mut b, &a));
        let rows = ft.rows(9.2);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "copy");
        assert_eq!(rows[0].calls, 1);
        assert!(rows[0].seconds > 0.0);
        assert_eq!(rows[0].extra.len(), 3, "mflops, v.op%, avg.vl");
        // A foreign breakdown through the same renderer: banner + headers.
        let table = render_analysis_list(
            &["AVG.STRETCH"],
            vec![
                FtraceRow { name: "fig5".into(), calls: 3, seconds: 6.0, extra: vec![1.02] },
                FtraceRow { name: "radabs".into(), calls: 1, seconds: 1.5, extra: vec![1.0] },
            ],
        );
        assert!(table.contains("FTRACE ANALYSIS LIST"));
        assert!(table.contains("AVG.STRETCH"));
        assert!(table.find("fig5").unwrap() < table.find("radabs").unwrap());
        assert!(table.contains("80.0"), "fig5 holds 80% of the time:\n{table}");
    }

    #[test]
    fn render_sorts_by_time() {
        let mut vm = vm();
        let mut ft = Ftrace::new();
        let small = vec![1.0f64; 100];
        let big = vec![1.0f64; 100_000];
        let mut out_s = vec![0.0f64; 100];
        let mut out_b = vec![0.0f64; 100_000];
        ft.region("small", &mut vm, |vm| vm.copy(&mut out_s, &small));
        ft.region("big", &mut vm, |vm| vm.copy(&mut out_b, &big));
        let table = ft.render(9.2);
        let big_pos = table.find("big").unwrap();
        let small_pos = table.find("small").unwrap();
        assert!(big_pos < small_pos, "bigger region must print first:\n{table}");
        assert!(table.contains("FTRACE ANALYSIS LIST"));
    }
}
