//! Live NQS admission control: the Resource-Block gate, reusable outside
//! the discrete-event scheduler.
//!
//! [`crate::nqs::Nqs`] replays a *fixed* job list to completion — fine for
//! reproducing Table 6, useless for a daemon whose jobs arrive one at a
//! time over sockets. [`Admission`] factors the admission decision out of
//! the DES: it tracks the currently co-scheduled set against the same
//! Resource-Block processor/memory limits (real-memory machine, no
//! demand paging — a job must fit whole, §2.6.4), and prices the
//! memory-contention stretch the running mix imposes, so concurrent
//! clients of the `sxd` daemon experience the paper's co-scheduling
//! semantics without a simulated clock.
//!
//! Decisions mirror NQS queue behaviour:
//! - a job that can *never* fit its block is rejected with the same typed
//!   [`NqsError`] the batch scheduler raises;
//! - a feasible job either starts now ([`Admission::try_admit`] → `true`)
//!   or must wait for a release (`false`) — queueing policy (FIFO, who
//!   wakes first) belongs to the caller.

use crate::nqs::{validate_job, JobSpec, NqsError, ResourceBlock};
use sxsim::{JobDemand, MachineModel, Node};

/// A running-set entry: what admission charged for the job.
#[derive(Debug, Clone)]
struct Running {
    name: String,
    procs: usize,
    memory_bytes: u64,
    bytes_per_cycle_per_proc: f64,
}

/// Stateful Resource-Block admission gate over one node.
#[derive(Debug)]
pub struct Admission {
    node: Node,
    block: ResourceBlock,
    running: Vec<Running>,
    /// Callers currently parked waiting for a release (the NQS queue
    /// depth an operator would watch). Maintained by the daemon around
    /// its condvar waits via [`Admission::begin_wait`]/[`Admission::end_wait`].
    waiting: usize,
}

impl Admission {
    /// One block spanning the whole node: all processors, the benchmarked
    /// 8 GB of main memory (Table 2).
    pub fn whole_node(model: MachineModel) -> Admission {
        Admission {
            block: ResourceBlock::whole_node(model.procs),
            node: Node::new(model),
            running: Vec::new(),
            waiting: 0,
        }
    }

    /// Could this job *ever* be admitted? Typed rejection if not.
    pub(crate) fn feasible(&self, job: &JobSpec) -> Result<(), NqsError> {
        validate_job(&self.block, job)
    }

    /// Admit `job` if the block currently has the processors and memory;
    /// `Ok(false)` means feasible but must wait for a release. The
    /// dependency field (`after`) is ignored — arrival order is the
    /// caller's queue discipline.
    pub fn try_admit(&mut self, job: &JobSpec) -> Result<bool, NqsError> {
        self.feasible(job)?;
        let (free_procs, free_mem) = self.free();
        if job.procs > free_procs || job.memory_bytes > free_mem {
            return Ok(false);
        }
        self.running.push(Running {
            name: job.name.clone(),
            procs: job.procs,
            memory_bytes: job.memory_bytes,
            bytes_per_cycle_per_proc: job.bytes_per_cycle_per_proc,
        });
        Ok(true)
    }

    /// Release a previously admitted job by name. Returns `false` if no
    /// such job is running (already released, or never admitted).
    pub fn release(&mut self, name: &str) -> bool {
        match self.running.iter().position(|r| r.name == name) {
            Some(i) => {
                self.running.remove(i);
                true
            }
            None => false,
        }
    }

    /// Free (processors, memory) in the block.
    pub(crate) fn free(&self) -> (usize, u64) {
        let used_procs: usize = self.running.iter().map(|r| r.procs).sum();
        let used_mem: u64 = self.running.iter().map(|r| r.memory_bytes).sum();
        (self.block.procs - used_procs, self.block.memory_bytes - used_mem)
    }

    /// Number of currently co-scheduled jobs.
    pub fn running(&self) -> usize {
        self.running.len()
    }

    /// Mark one caller as parked waiting for a release.
    pub fn begin_wait(&mut self) {
        self.waiting += 1;
    }

    /// Mark one parked caller as woken (admitted, timed out or rejected).
    pub fn end_wait(&mut self) {
        self.waiting = self.waiting.saturating_sub(1);
    }

    /// Callers currently parked between `begin_wait` and `end_wait`.
    pub fn waiting(&self) -> usize {
        self.waiting
    }

    /// Memory-contention stretch factor (≥ 1) the current co-scheduled set
    /// experiences — the quantity the ensemble test (Table 6) measures. An
    /// idle node has stretch 1.
    pub fn stretch(&self) -> f64 {
        if self.running.is_empty() {
            return 1.0;
        }
        let demands: Vec<JobDemand> = self
            .running
            .iter()
            .map(|r| JobDemand {
                solo_cycles: 0.0,
                procs: r.procs,
                bytes_per_cycle_per_proc: r.bytes_per_cycle_per_proc,
            })
            .collect();
        // Admission never oversubscribes the node, so the only error path
        // (TooManyProcs) is unreachable; a daemon must not panic, so fall
        // back to the idle stretch instead of unwrapping.
        self.node.coschedule_stretch(&demands).unwrap_or(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxsim::presets;

    fn job(name: &str, procs: usize, mem: u64) -> JobSpec {
        JobSpec {
            name: name.into(),
            procs,
            memory_bytes: mem,
            solo_seconds: 100.0,
            bytes_per_cycle_per_proc: 30.0,
            after: vec![],
        }
    }

    #[test]
    fn admit_until_full_then_wait_then_release() {
        let mut a = Admission::whole_node(presets::sx4_benchmarked());
        assert!(a.try_admit(&job("a", 24, 1 << 30)).unwrap());
        assert_eq!(a.free(), (8, (8u64 << 30) - (1 << 30)));
        // 16 procs don't fit beside 24 on a 32-proc node.
        assert!(!a.try_admit(&job("b", 16, 1 << 30)).unwrap());
        assert!(a.try_admit(&job("c", 8, 1 << 30)).unwrap());
        assert_eq!(a.running(), 2);
        assert!(a.release("a"));
        assert!(!a.release("a"), "double release must be visible");
        assert!(a.try_admit(&job("b", 16, 1 << 30)).unwrap());
        assert_eq!(a.running(), 2);
    }

    #[test]
    fn memory_limits_gate_admission_without_paging() {
        let mut a = Admission::whole_node(presets::sx4_benchmarked());
        assert!(a.try_admit(&job("big", 4, 6 << 30)).unwrap());
        // 4 GB more don't fit in the remaining 2 GB, despite free procs.
        assert!(!a.try_admit(&job("big2", 4, 4 << 30)).unwrap());
        a.release("big");
        assert!(a.try_admit(&job("big2", 4, 4 << 30)).unwrap());
    }

    #[test]
    fn infeasible_jobs_get_the_typed_batch_errors() {
        let mut a = Admission::whole_node(presets::sx4_benchmarked());
        let err = a.try_admit(&job("wide", 40, 1 << 30)).unwrap_err();
        assert!(matches!(err, NqsError::JobTooWide { .. }), "{err}");
        let err = a.feasible(&job("huge", 4, 16 << 30)).unwrap_err();
        assert!(matches!(err, NqsError::JobTooBig { .. }), "{err}");
    }

    #[test]
    fn wait_queue_depth_tracks_begin_and_end() {
        let mut a = Admission::whole_node(presets::sx4_benchmarked());
        assert_eq!(a.waiting(), 0);
        a.begin_wait();
        a.begin_wait();
        assert_eq!(a.waiting(), 2);
        a.end_wait();
        assert_eq!(a.waiting(), 1);
        a.end_wait();
        a.end_wait(); // extra end_wait saturates instead of underflowing
        assert_eq!(a.waiting(), 0);
    }

    #[test]
    fn stretch_grows_with_coscheduled_load_and_resets() {
        let mut a = Admission::whole_node(presets::sx4_benchmarked());
        assert_eq!(a.stretch(), 1.0);
        a.try_admit(&job("one", 4, 1 << 30)).unwrap();
        let solo = a.stretch();
        for i in 0..7 {
            a.try_admit(&job(&format!("j{i}"), 4, 256 << 20)).unwrap();
        }
        let packed = a.stretch();
        assert!(packed > solo, "co-scheduling must stretch: {packed} vs {solo}");
        assert!(packed < 1.1 * solo, "but only by a few percent (Table 6)");
        for i in 0..7 {
            a.release(&format!("j{i}"));
        }
        a.release("one");
        assert_eq!(a.stretch(), 1.0);
    }
}
