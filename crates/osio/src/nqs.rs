//! The NQS batch subsystem (paper §2.6.3): queued batch jobs and FIFO
//! dispatch within the processor/memory limits of the node's one
//! Resource Block (§2.6.4), which spans the whole node.
//!
//! Scheduling is a discrete-event simulation in simulated seconds: running
//! jobs progress concurrently, slowed by the node's memory-contention
//! stretch for the currently co-scheduled set — the effect the ensemble
//! test (Table 6) measures.

use sxsim::{JobDemand, Node};

/// A Resource Block: the processors and memory jobs are confined to
/// ("each Resource Block has a maximum and minimum processor count, memory
/// limits, and scheduling characteristics", §2.6.4). Every experiment and
/// the serving daemon schedule on one block spanning the whole node.
#[derive(Debug, Clone)]
pub(crate) struct ResourceBlock {
    pub(crate) procs: usize,
    /// Memory available to the block's jobs, bytes.
    pub(crate) memory_bytes: u64,
}

impl ResourceBlock {
    /// The block's name in error messages.
    const NAME: &'static str = "batch";

    /// One block spanning the whole node: all `procs` processors and the
    /// benchmarked 8 GB of main memory (Table 2).
    pub(crate) fn whole_node(procs: usize) -> ResourceBlock {
        ResourceBlock { procs, memory_bytes: 8 << 30 }
    }
}

/// A batch job description.
#[derive(Debug, Clone)]
pub struct JobSpec {
    pub name: String,
    /// Processors the job occupies while running.
    pub procs: usize,
    /// Main memory the job's load module occupies while running, bytes
    /// (the SX is a real-memory machine — no demand paging, §2.2).
    pub memory_bytes: u64,
    /// Runtime if run alone on an idle node.
    pub solo_seconds: f64,
    /// Average memory demand per processor (bytes/cycle), for contention.
    pub bytes_per_cycle_per_proc: f64,
    /// Indices of jobs that must finish before this one starts.
    pub after: Vec<usize>,
}

/// Completed-schedule record for one job.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JobRecord {
    pub(crate) start_s: f64,
    pub(crate) end_s: f64,
}

/// Result of a batch run.
#[derive(Debug, Clone)]
pub struct Schedule {
    pub(crate) records: Vec<JobRecord>,
    pub(crate) makespan_s: f64,
}

/// Why a job mix could not be scheduled. These used to be panics; they are
/// values so operators driving NQS from job files get a message, not an
/// abort.
#[derive(Debug, Clone, PartialEq)]
pub enum NqsError {
    /// A job wants more processors than its Resource Block has.
    JobTooWide { job: String, needs: usize, block: String, has: usize },
    /// A job's load module does not fit its block's memory (real-memory
    /// machine: no demand paging, the whole module must be resident).
    JobTooBig { job: String, needs: u64, block: String, has: u64 },
    /// Jobs remain but none can ever start (dependency cycle).
    Deadlock { waiting: Vec<String> },
}

impl std::fmt::Display for NqsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NqsError::JobTooWide { job, needs, block, has } => {
                write!(f, "job {job} needs {needs} procs but block {block} has {has}")
            }
            NqsError::JobTooBig { job, needs, block, has } => write!(
                f,
                "job {job} needs {needs} bytes resident but block {block} has {has} (no paging)"
            ),
            NqsError::Deadlock { waiting } => {
                write!(f, "NQS deadlock: jobs remain but none can run: {}", waiting.join(", "))
            }
        }
    }
}

impl std::error::Error for NqsError {}

/// Validate that `job` could ever run in `block`: it fits the block's
/// processor and (resident, unpaged) memory limits. Shared by the batch
/// scheduler below and the live [`crate::admission`] gate the `sxd` daemon
/// admits through.
pub(crate) fn validate_job(block: &ResourceBlock, job: &JobSpec) -> Result<(), NqsError> {
    if job.procs > block.procs {
        return Err(NqsError::JobTooWide {
            job: job.name.clone(),
            needs: job.procs,
            block: ResourceBlock::NAME.into(),
            has: block.procs,
        });
    }
    if job.memory_bytes > block.memory_bytes {
        return Err(NqsError::JobTooBig {
            job: job.name.clone(),
            needs: job.memory_bytes,
            block: ResourceBlock::NAME.into(),
            has: block.memory_bytes,
        });
    }
    Ok(())
}

/// The scheduler.
#[derive(Debug)]
pub struct Nqs<'a> {
    node: &'a Node,
    block: ResourceBlock,
}

impl<'a> Nqs<'a> {
    /// One block spanning the whole node: all processors, the benchmarked
    /// 8 GB of memory.
    pub fn whole_node(node: &'a Node) -> Nqs<'a> {
        Nqs { node, block: ResourceBlock::whole_node(node.model().procs) }
    }

    /// Run the job set to completion (FIFO, dependency-aware) and return
    /// the schedule.
    pub fn run(&self, jobs: &[JobSpec]) -> Result<Schedule, NqsError> {
        let n = jobs.len();
        for j in jobs {
            validate_job(&self.block, j)?;
        }
        let mut remaining: Vec<f64> = jobs.iter().map(|j| j.solo_seconds).collect();
        let mut records = vec![JobRecord { start_s: f64::NAN, end_s: f64::NAN }; n];
        let mut done = vec![false; n];
        let mut running: Vec<usize> = Vec::new();
        let mut now = 0.0f64;

        loop {
            // Dispatch: FIFO over submission order, processor AND memory
            // capacity (no demand paging: a job must fit whole).
            let mut free = self.block.procs;
            let mut free_mem = self.block.memory_bytes;
            for &r in &running {
                free -= jobs[r].procs;
                free_mem -= jobs[r].memory_bytes;
            }
            for (i, job) in jobs.iter().enumerate() {
                if done[i] || running.contains(&i) {
                    continue;
                }
                if !job.after.iter().all(|&d| done[d]) {
                    continue;
                }
                if job.procs <= free && job.memory_bytes <= free_mem {
                    free -= job.procs;
                    free_mem -= job.memory_bytes;
                    running.push(i);
                    if records[i].start_s.is_nan() {
                        records[i].start_s = now;
                    }
                }
            }
            if running.is_empty() {
                if done.iter().all(|&d| d) {
                    break;
                }
                // A dependency cycle would spin forever; surface it.
                return Err(NqsError::Deadlock {
                    waiting: jobs
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| !done[*i])
                        .map(|(_, j)| j.name.clone())
                        .collect(),
                });
            }

            // Current contention stretch for the co-scheduled set.
            let demands: Vec<JobDemand> = running
                .iter()
                .map(|&r| JobDemand {
                    solo_cycles: 0.0,
                    procs: jobs[r].procs,
                    bytes_per_cycle_per_proc: jobs[r].bytes_per_cycle_per_proc,
                })
                .collect();
            let stretch = self
                .node
                .coschedule_stretch(&demands)
                .expect("scheduler never oversubscribes the node");

            // Advance to the next completion.
            let (next_pos, dt) = running
                .iter()
                .enumerate()
                .map(|(pos, &r)| (pos, remaining[r] * stretch))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("running set is non-empty");
            now += dt;
            // Progress everyone by dt of wall time.
            for &r in &running {
                remaining[r] -= dt / stretch;
            }
            let finished = running.remove(next_pos);
            remaining[finished] = 0.0;
            done[finished] = true;
            records[finished].end_s = now;
        }

        Ok(Schedule { records, makespan_s: now })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxsim::presets;

    fn node() -> Node {
        Node::new(presets::sx4_benchmarked())
    }

    fn job(name: &str, procs: usize, secs: f64) -> JobSpec {
        JobSpec {
            name: name.into(),
            procs,
            memory_bytes: 256 << 20,
            solo_seconds: secs,
            bytes_per_cycle_per_proc: 30.0,
            after: vec![],
        }
    }

    #[test]
    fn independent_jobs_run_concurrently() {
        let n = node();
        let nqs = Nqs::whole_node(&n);
        let jobs = vec![job("a", 8, 100.0), job("b", 8, 100.0), job("c", 8, 100.0)];
        let s = nqs.run(&jobs).unwrap();
        // All fit at once: makespan ~ 100s (plus small contention).
        assert!(s.makespan_s < 110.0, "{}", s.makespan_s);
        for r in &s.records {
            assert_eq!(r.start_s, 0.0);
        }
    }

    #[test]
    fn oversubscription_queues_fifo() {
        let n = node();
        let nqs = Nqs::whole_node(&n);
        let jobs = vec![job("a", 24, 100.0), job("b", 24, 100.0)];
        let s = nqs.run(&jobs).unwrap();
        assert!(s.records[1].start_s >= s.records[0].end_s - 1e-9);
        assert!(s.makespan_s > 195.0);
    }

    #[test]
    fn dependencies_are_honoured() {
        let n = node();
        let nqs = Nqs::whole_node(&n);
        let mut b = job("b", 4, 50.0);
        b.after = vec![0];
        let jobs = vec![job("a", 4, 50.0), b];
        let s = nqs.run(&jobs).unwrap();
        assert!(s.records[1].start_s >= s.records[0].end_s - 1e-9);
    }

    #[test]
    fn contention_stretches_coscheduled_jobs() {
        let n = node();
        let nqs = Nqs::whole_node(&n);
        let solo = nqs.run(&[job("a", 4, 100.0)]).unwrap().makespan_s;
        let eight: Vec<JobSpec> = (0..8).map(|i| job(&format!("j{i}"), 4, 100.0)).collect();
        let packed = nqs.run(&eight).unwrap().makespan_s;
        assert!(packed > solo, "co-scheduled jobs must feel contention");
        assert!(packed < 1.1 * solo, "but only a few percent: {packed} vs {solo}");
    }

    #[test]
    fn dependency_cycle_is_a_deadlock_error() {
        let n = node();
        let nqs = Nqs::whole_node(&n);
        let mut a = job("a", 4, 10.0);
        a.after = vec![1];
        let mut b = job("b", 4, 10.0);
        b.after = vec![0];
        let err = nqs.run(&[a, b]).unwrap_err();
        assert!(matches!(err, NqsError::Deadlock { ref waiting } if waiting.len() == 2), "{err}");
    }

    #[test]
    fn deterministic_schedule() {
        let n = node();
        let nqs = Nqs::whole_node(&n);
        let jobs: Vec<JobSpec> =
            (0..6).map(|i| job(&format!("j{i}"), 12, 50.0 + i as f64)).collect();
        let a = nqs.run(&jobs).unwrap();
        let b = nqs.run(&jobs).unwrap();
        assert_eq!(a.makespan_s, b.makespan_s);
    }
}
