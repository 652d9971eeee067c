//! NQS queues and queue complexes (paper §2.6.3): "NQS queues, queue
//! complexes, and the full range of individual queue parameters ... are
//! supported."
//!
//! On top of the core dispatcher ([`crate::nqs`]) this adds the queue
//! layer: named queues with priorities, per-queue concurrent-run limits
//! and processor ceilings, grouped into complexes that cap their members'
//! aggregate running jobs — the knobs NCAR operations used to shape the
//! production mix.

use crate::nqs::{JobSpec, Nqs, Schedule};

/// One NQS queue.
#[derive(Debug, Clone)]
pub struct Queue {
    pub(crate) name: String,
    /// Higher dispatches first.
    pub(crate) priority: i32,
    /// Maximum jobs from this queue running at once.
    pub(crate) run_limit: usize,
    /// Maximum processors a single job may request here.
    pub(crate) max_procs_per_job: usize,
}

/// A queue complex: a cap on the aggregate running jobs of its members.
#[derive(Debug, Clone)]
pub struct QueueComplex {
    pub(crate) name: String,
    /// Member queue names.
    pub(crate) members: Vec<String>,
    /// Aggregate run limit across the members.
    pub(crate) run_limit: usize,
}

/// A job as submitted to a queue.
#[derive(Debug, Clone)]
pub(crate) struct QueuedJob {
    pub(crate) queue: String,
    pub(crate) spec: JobSpec,
}

/// Submission errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    NoSuchQueue(String),
    TooManyProcs { queue: String, requested: usize, limit: usize },
}

/// The queue manager: validates submissions and linearizes the mix into
/// dependency-shaped [`JobSpec`]s the dispatcher understands (priority
/// order between queues, FIFO within a queue, run limits as synthetic
/// dependencies).
#[derive(Debug)]
pub struct QueueManager {
    pub(crate) queues: Vec<Queue>,
    pub(crate) complexes: Vec<QueueComplex>,
    accepted: Vec<QueuedJob>,
}

impl QueueManager {
    pub fn new(queues: Vec<Queue>, complexes: Vec<QueueComplex>) -> QueueManager {
        for c in &complexes {
            for m in &c.members {
                assert!(
                    queues.iter().any(|q| &q.name == m),
                    "complex {} names missing queue {m}",
                    c.name
                );
            }
        }
        QueueManager { queues, complexes, accepted: Vec::new() }
    }

    /// NCAR-flavoured default: express > premium > regular > standby.
    pub fn site_default() -> QueueManager {
        let queues = vec![
            Queue { name: "express".into(), priority: 40, run_limit: 1, max_procs_per_job: 4 },
            Queue { name: "premium".into(), priority: 30, run_limit: 2, max_procs_per_job: 16 },
            Queue { name: "regular".into(), priority: 20, run_limit: 4, max_procs_per_job: 32 },
            Queue { name: "standby".into(), priority: 10, run_limit: 2, max_procs_per_job: 32 },
        ];
        let complexes = vec![QueueComplex {
            name: "batch".into(),
            members: vec!["premium".into(), "regular".into(), "standby".into()],
            run_limit: 5,
        }];
        QueueManager::new(queues, complexes)
    }

    fn queue(&self, name: &str) -> Option<&Queue> {
        self.queues.iter().find(|q| q.name == name)
    }

    /// qsub: validate and accept a job.
    pub fn submit(&mut self, queue: &str, spec: JobSpec) -> Result<(), SubmitError> {
        let q = self.queue(queue).ok_or_else(|| SubmitError::NoSuchQueue(queue.to_string()))?;
        if spec.procs > q.max_procs_per_job {
            return Err(SubmitError::TooManyProcs {
                queue: queue.to_string(),
                requested: spec.procs,
                limit: q.max_procs_per_job,
            });
        }
        self.accepted.push(QueuedJob { queue: queue.to_string(), spec });
        Ok(())
    }

    /// Linearize the accepted mix into dispatcher jobs:
    /// - between queues: higher priority first;
    /// - within a queue: submission (FIFO) order;
    /// - run limits (queue and complex): job k depends on job k - limit of
    ///   the same scope, the classic token trick.
    pub(crate) fn build_jobs(&self) -> Vec<JobSpec> {
        let mut order: Vec<usize> = (0..self.accepted.len()).collect();
        order.sort_by_key(|&i| {
            let prio = self.queue(&self.accepted[i].queue).map(|q| q.priority).unwrap_or(0);
            (-prio, i)
        });

        let mut jobs: Vec<JobSpec> = Vec::with_capacity(order.len());
        // Scope name -> indices (into `jobs`) already emitted in that scope.
        let mut per_queue: std::collections::BTreeMap<String, Vec<usize>> = Default::default();
        let mut per_complex: std::collections::BTreeMap<String, Vec<usize>> = Default::default();

        for &i in &order {
            let qj = &self.accepted[i];
            let mut spec = qj.spec.clone();
            let slot = jobs.len();

            let q = self.queue(&qj.queue).expect("validated at submit");
            let emitted = per_queue.entry(qj.queue.clone()).or_default();
            if emitted.len() >= q.run_limit {
                spec.after.push(emitted[emitted.len() - q.run_limit]);
            }
            emitted.push(slot);

            for c in &self.complexes {
                if c.members.contains(&qj.queue) {
                    let emitted = per_complex.entry(c.name.clone()).or_default();
                    if emitted.len() >= c.run_limit {
                        spec.after.push(emitted[emitted.len() - c.run_limit]);
                    }
                    emitted.push(slot);
                }
            }
            jobs.push(spec);
        }
        jobs
    }

    /// Run the accepted mix through the dispatcher.
    pub fn run(&self, nqs: &Nqs) -> Result<(Vec<JobSpec>, Schedule), crate::nqs::NqsError> {
        let jobs = self.build_jobs();
        let schedule = nqs.run(&jobs)?;
        Ok((jobs, schedule))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxsim::{presets, Node};

    fn spec(name: &str, procs: usize, secs: f64) -> JobSpec {
        JobSpec {
            name: name.into(),
            procs,
            memory_bytes: 256 << 20,
            solo_seconds: secs,
            bytes_per_cycle_per_proc: 20.0,
            after: vec![],
        }
    }

    #[test]
    fn submission_validates_queue_and_procs() {
        let mut qm = QueueManager::site_default();
        assert_eq!(
            qm.submit("nonesuch", spec("a", 1, 1.0)),
            Err(SubmitError::NoSuchQueue("nonesuch".into()))
        );
        assert!(matches!(
            qm.submit("express", spec("big", 16, 1.0)),
            Err(SubmitError::TooManyProcs { .. })
        ));
        assert!(qm.submit("express", spec("small", 2, 1.0)).is_ok());
    }

    #[test]
    fn priority_orders_queues() {
        let mut qm = QueueManager::site_default();
        qm.submit("standby", spec("low", 2, 10.0)).unwrap();
        qm.submit("express", spec("hot", 2, 10.0)).unwrap();
        let jobs = qm.build_jobs();
        assert_eq!(jobs[0].name, "hot", "express dispatches first");
        assert_eq!(jobs[1].name, "low");
    }

    #[test]
    fn run_limit_serializes_within_a_queue() {
        let mut qm = QueueManager::site_default();
        for i in 0..3 {
            qm.submit("express", spec(&format!("e{i}"), 2, 60.0)).unwrap(); // run_limit 1
        }
        let node = Node::new(presets::sx4_benchmarked());
        let nqs = Nqs::whole_node(&node);
        let (_jobs, s) = qm.run(&nqs).unwrap();
        // With run_limit 1, the three 60 s jobs run strictly one after
        // another despite ample free processors.
        assert!(s.makespan_s >= 179.0, "{}", s.makespan_s);
    }

    #[test]
    fn complex_caps_aggregate_running_jobs() {
        let queues = vec![
            Queue { name: "a".into(), priority: 1, run_limit: 10, max_procs_per_job: 4 },
            Queue { name: "b".into(), priority: 1, run_limit: 10, max_procs_per_job: 4 },
        ];
        let complexes = vec![QueueComplex {
            name: "cap".into(),
            members: vec!["a".into(), "b".into()],
            run_limit: 2,
        }];
        let mut qm = QueueManager::new(queues, complexes);
        for i in 0..4 {
            let q = if i % 2 == 0 { "a" } else { "b" };
            qm.submit(q, spec(&format!("j{i}"), 2, 100.0)).unwrap();
        }
        let node = Node::new(presets::sx4_benchmarked());
        let nqs = Nqs::whole_node(&node);
        let (_jobs, s) = qm.run(&nqs).unwrap();
        // 4 jobs, at most 2 at a time => two waves of ~100 s.
        assert!(s.makespan_s >= 199.0 && s.makespan_s < 230.0, "{}", s.makespan_s);
    }

    #[test]
    fn unconstrained_jobs_still_run_concurrently() {
        let mut qm = QueueManager::site_default();
        qm.submit("regular", spec("r0", 8, 50.0)).unwrap();
        qm.submit("regular", spec("r1", 8, 50.0)).unwrap();
        let node = Node::new(presets::sx4_benchmarked());
        let nqs = Nqs::whole_node(&node);
        let (_jobs, s) = qm.run(&nqs).unwrap();
        assert!(s.makespan_s < 60.0, "{}", s.makespan_s);
    }

    #[test]
    #[should_panic(expected = "missing queue")]
    fn complex_must_name_real_queues() {
        QueueManager::new(
            vec![],
            vec![QueueComplex { name: "c".into(), members: vec!["ghost".into()], run_limit: 1 }],
        );
    }
}
