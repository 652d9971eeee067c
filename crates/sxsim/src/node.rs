//! Node-level timing: parallel regions across the processors of a shared
//! memory node, a per-preset barrier cost
//! (`MachineModel::barrier_cycles`),
//! and memory-system contention between processors and between co-scheduled
//! jobs.
//!
//! The SX-4 memory system guarantees conflict-free unit-stride and
//! stride-2 access from all 32 processors simultaneously (paper §2.2), so
//! contention only appears as queueing delay when the aggregate demand
//! approaches the bank subsystem's service capacity
//! (`banks / bank_busy_cycles` words per cycle). That is what makes the
//! paper's ensemble degradation (Table 6) small but not zero.

use crate::cost::Cost;
use crate::error::SimError;
use crate::model::MachineModel;

/// One phase of an application run on a node.
#[derive(Debug, Clone)]
pub enum Region {
    /// Work executed by a single processor while the others wait.
    Serial(Cost),
    /// Work partitioned across processors; one ledger per processor.
    /// The region ends with a barrier.
    Parallel(Vec<Cost>),
}

impl Region {}

/// Result of timing a sequence of regions on a node.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeTiming {
    /// Wall-clock cycles for the whole sequence.
    pub wall_cycles: f64,
    /// Aggregate work performed (for Mflops-style metrics).
    pub work: Cost,
}

impl NodeTiming {
    /// Wall seconds at the node's clock.
    pub fn seconds(&self, clock_ns: f64) -> f64 {
        self.wall_cycles * clock_ns * 1e-9
    }

    /// Sustained Cray-equivalent Gflops over the wall time.
    pub fn cray_gflops(&self, clock_ns: f64) -> f64 {
        let s = self.seconds(clock_ns);
        if s == 0.0 {
            0.0
        } else {
            self.work.cray_flops / s / 1e9
        }
    }
}

/// Demand summary of a job for co-scheduling analysis.
#[derive(Debug, Clone, Copy)]
pub struct JobDemand {
    /// Critical-path cycles of the job when run alone.
    pub solo_cycles: f64,
    /// Processors the job occupies.
    pub procs: usize,
    /// Average memory demand per processor in bytes per cycle.
    pub bytes_per_cycle_per_proc: f64,
}

/// A shared-memory node of `model.procs` processors.
#[derive(Debug, Clone)]
pub struct Node {
    model: MachineModel,
}

impl Node {
    pub fn new(model: MachineModel) -> Node {
        Node { model }
    }

    pub fn model(&self) -> &MachineModel {
        &self.model
    }

    /// Words per cycle the bank subsystem can service node-wide.
    pub(crate) fn bank_capacity_words_per_cycle(&self) -> f64 {
        self.model.memory.banks as f64 / self.model.memory.bank_busy_cycles
    }

    /// Sustainable node bandwidth in words per cycle (crossbar limit).
    pub(crate) fn node_capacity_words_per_cycle(&self) -> f64 {
        self.model.node_bytes_per_cycle / self.model.memory.word_bytes as f64
    }

    /// Queueing stretch factor for a given aggregate memory demand.
    ///
    /// Quadratic-in-utilization delay: negligible at low load, ~a few
    /// percent as demand approaches the bank service capacity, hard wall at
    /// the crossbar limit. Calibrated so a full node of CCM2-like jobs
    /// degrades by the ~2% the paper's Table 6 reports.
    pub(crate) fn contention_stretch(&self, words_per_cycle_demand: f64) -> f64 {
        let cap = self.bank_capacity_words_per_cycle().min(self.node_capacity_words_per_cycle());
        if cap <= 0.0 {
            return 1.0;
        }
        let u = (words_per_cycle_demand / cap).max(0.0);
        if u <= 1.0 {
            1.0 + 0.02 * u * u
        } else {
            // Demand beyond capacity serializes.
            1.02 * u
        }
    }

    /// Wall-time a sequence of regions.
    ///
    /// A parallel region costs the maximum processor ledger, stretched by
    /// memory contention at the region's aggregate demand, plus one barrier
    /// (the preset's constant `barrier_cycles`).
    ///
    /// Errors if any parallel region wants more processors than the node
    /// has.
    pub fn time_regions(&self, regions: &[Region]) -> Result<NodeTiming, SimError> {
        let mut wall = 0.0f64;
        let mut work = Cost::ZERO;
        for r in regions {
            match r {
                Region::Serial(c) => {
                    wall += c.cycles;
                    work.add(*c);
                }
                Region::Parallel(per_proc) => {
                    if per_proc.len() > self.model.procs {
                        return Err(SimError::TooManyProcs {
                            requested: per_proc.len(),
                            available: self.model.procs,
                        });
                    }
                    let max_cycles = per_proc.iter().map(|c| c.cycles).fold(0.0f64, f64::max);
                    let total: Cost = per_proc.iter().copied().sum();
                    let demand = if max_cycles > 0.0 {
                        total.bytes as f64 / max_cycles / self.model.memory.word_bytes as f64
                    } else {
                        0.0
                    };
                    let stretch = self.contention_stretch(demand);
                    wall += max_cycles * stretch + self.model.barrier_cycles;
                    work.add(total);
                }
            }
        }
        Ok(NodeTiming { wall_cycles: wall, work })
    }

    /// Stretch factor experienced by each of a set of co-scheduled jobs.
    ///
    /// All jobs run concurrently; the node services their combined memory
    /// demand, and SUPER-UX pays a small per-job multiplexing overhead
    /// (scheduler slices, daemons, interrupt handling) that only shows up
    /// when several jobs share the node. Together these produce the ~2%
    /// ensemble degradation of Table 6. Used by the ensemble test and
    /// PRODLOAD.
    ///
    /// Errors if the jobs together need more processors than the node has.
    pub fn coschedule_stretch(&self, jobs: &[JobDemand]) -> Result<f64, SimError> {
        let procs: usize = jobs.iter().map(|j| j.procs).sum();
        if procs > self.model.procs {
            return Err(SimError::TooManyProcs { requested: procs, available: self.model.procs });
        }
        let demand: f64 = jobs
            .iter()
            .map(|j| {
                j.procs as f64 * j.bytes_per_cycle_per_proc / self.model.memory.word_bytes as f64
            })
            .sum();
        let os_overhead = 0.002 * jobs.len().saturating_sub(1) as f64;
        Ok(self.contention_stretch(demand) + os_overhead)
    }
}

/// Partition `n` items across `p` processors as contiguous chunks, the way
/// the benchmark codes partition latitude rows. Earlier processors get the
/// remainder, so chunk sizes differ by at most one.
pub fn partition(n: usize, p: usize) -> Vec<std::ops::Range<usize>> {
    assert!(p > 0);
    let base = n / p;
    let rem = n % p;
    let mut out = Vec::with_capacity(p);
    let mut start = 0;
    for i in 0..p {
        let len = base + usize::from(i < rem);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn node() -> Node {
        Node::new(presets::sx4(9.2))
    }

    #[test]
    fn partition_covers_everything() {
        for n in [0usize, 1, 7, 64, 100] {
            for p in [1usize, 2, 3, 8, 32] {
                let parts = partition(n, p);
                assert_eq!(parts.len(), p);
                let total: usize = parts.iter().map(|r| r.len()).sum();
                assert_eq!(total, n);
                // contiguous and ordered
                let mut expect = 0;
                for r in &parts {
                    assert_eq!(r.start, expect);
                    expect = r.end;
                }
                // balanced
                let lens: Vec<usize> = parts.iter().map(|r| r.len()).collect();
                let max = *lens.iter().max().unwrap();
                let min = *lens.iter().min().unwrap();
                assert!(max - min <= 1);
            }
        }
    }

    #[test]
    fn serial_region_costs_its_cycles() {
        let t = node().time_regions(&[Region::Serial(Cost::cycles(1000.0))]).unwrap();
        assert_eq!(t.wall_cycles, 1000.0);
    }

    #[test]
    fn parallel_region_costs_max_plus_barrier() {
        let n = node();
        let t = n
            .time_regions(&[Region::Parallel(vec![Cost::cycles(500.0), Cost::cycles(1000.0)])])
            .unwrap();
        assert!(t.wall_cycles >= 1000.0 + n.model().barrier_cycles);
        assert!(t.wall_cycles < 1100.0 + n.model().barrier_cycles);
        assert_eq!(t.work.cycles, 1500.0);
    }

    #[test]
    fn contention_grows_with_demand_and_is_small_at_low_load() {
        let n = node();
        assert_eq!(n.contention_stretch(0.0), 1.0);
        let low = n.contention_stretch(50.0);
        let mid = n.contention_stretch(300.0);
        let cap = n.bank_capacity_words_per_cycle();
        let full = n.contention_stretch(cap);
        assert!(low < mid && mid < full);
        assert!(full <= 1.07, "at capacity the stretch stays at a few percent: {full}");
        assert!(n.contention_stretch(2.0 * cap) > full);
    }

    #[test]
    fn coschedule_more_jobs_more_stretch() {
        let n = node();
        let job = JobDemand { solo_cycles: 1e9, procs: 4, bytes_per_cycle_per_proc: 40.0 };
        let one = n.coschedule_stretch(&[job]).unwrap();
        let eight = n.coschedule_stretch(&[job; 8]).unwrap();
        assert!(eight > one);
        assert!(eight < 1.10, "paper reports only ~2% degradation, got stretch {eight}");
    }

    #[test]
    fn oversubscription_is_an_error() {
        let n = node();
        let job = JobDemand { solo_cycles: 1.0, procs: 20, bytes_per_cycle_per_proc: 1.0 };
        let err = n.coschedule_stretch(&[job, job]).unwrap_err();
        assert_eq!(
            err,
            crate::error::SimError::TooManyProcs { requested: 40, available: n.model().procs }
        );
        let err = n.time_regions(&[Region::Parallel(vec![Cost::cycles(1.0); 40])]).unwrap_err();
        assert!(matches!(err, crate::error::SimError::TooManyProcs { .. }));
    }

    #[test]
    fn gflops_metric() {
        let t = NodeTiming {
            wall_cycles: 1e9,
            work: Cost { cycles: 1e9, flops: 16_000_000_000, cray_flops: 2e10, bytes: 0 },
        };
        // 2e10 Cray-equivalent flops in 8 seconds (at 8ns) => 2.5 Gflops.
        assert!((t.cray_gflops(8.0) - 2.5).abs() < 1e-9);
    }
}
