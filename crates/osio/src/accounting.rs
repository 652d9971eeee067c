//! NQS accounting and status reporting (paper §2.6.3: "NQS queues, queue
//! complexes, and the full range of individual queue parameters and
//! accounting facilities are supported").
//!
//! Turns a completed [`crate::nqs::Schedule`] into per-job accounting
//! records (wait time, wall time, CPU-seconds, stretch relative to solo)
//! and a qstat-style summary.

use crate::nqs::{JobSpec, Schedule};
use ncar_suite::Table;

/// One job's accounting record.
#[derive(Debug, Clone)]
pub struct JobAccount {
    pub(crate) name: String,
    pub(crate) procs: usize,
    /// Seconds spent queued before dispatch.
    pub(crate) wait_s: f64,
    /// Wall seconds while running.
    pub(crate) wall_s: f64,
    /// Processor-seconds consumed (procs x wall).
    pub(crate) cpu_s: f64,
    /// Wall time relative to the job's solo runtime (>= 1; co-scheduling
    /// contention and OS multiplexing).
    pub(crate) stretch: f64,
}

/// Build accounting records from a schedule.
pub fn account(jobs: &[JobSpec], schedule: &Schedule) -> Vec<JobAccount> {
    assert_eq!(jobs.len(), schedule.records.len());
    jobs.iter()
        .zip(&schedule.records)
        .map(|(job, rec)| {
            // Wait = dispatch minus the instant the job became eligible
            // (after its dependencies finished).
            let eligible =
                job.after.iter().map(|&d| schedule.records[d].end_s).fold(0.0f64, f64::max);
            let wall = rec.end_s - rec.start_s;
            JobAccount {
                name: job.name.clone(),
                procs: job.procs,
                wait_s: (rec.start_s - eligible).max(0.0),
                wall_s: wall,
                cpu_s: wall * job.procs as f64,
                stretch: if job.solo_seconds > 0.0 { wall / job.solo_seconds } else { 1.0 },
            }
        })
        .collect()
}

/// Aggregate utilization of the node over the schedule.
pub fn utilization(jobs: &[JobSpec], schedule: &Schedule, node_procs: usize) -> f64 {
    let cpu: f64 = account(jobs, schedule).iter().map(|a| a.cpu_s).sum();
    if schedule.makespan_s == 0.0 {
        return 0.0;
    }
    cpu / (schedule.makespan_s * node_procs as f64)
}

/// Render a qacct-style table.
pub fn qacct_table(jobs: &[JobSpec], schedule: &Schedule) -> Table {
    let mut t =
        Table::new("NQS accounting", &["Job", "Procs", "Wait s", "Wall s", "CPU s", "Stretch"]);
    for a in account(jobs, schedule) {
        t.row(&[
            a.name,
            format!("{}", a.procs),
            format!("{:.1}", a.wait_s),
            format!("{:.1}", a.wall_s),
            format!("{:.1}", a.cpu_s),
            format!("{:.3}", a.stretch),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nqs::Nqs;
    use sxsim::{presets, Node};

    fn job(name: &str, procs: usize, secs: f64, after: Vec<usize>) -> JobSpec {
        JobSpec {
            name: name.into(),
            procs,
            memory_bytes: 256 << 20,
            solo_seconds: secs,
            bytes_per_cycle_per_proc: 30.0,
            after,
        }
    }

    #[test]
    fn concurrent_jobs_have_no_wait() {
        let node = Node::new(presets::sx4_benchmarked());
        let nqs = Nqs::whole_node(&node);
        let jobs = vec![job("a", 8, 100.0, vec![]), job("b", 8, 100.0, vec![])];
        let s = nqs.run(&jobs).unwrap();
        let acc = account(&jobs, &s);
        assert_eq!(acc[0].wait_s, 0.0);
        assert_eq!(acc[1].wait_s, 0.0);
        // Co-scheduled: stretch slightly above 1.
        assert!(acc[0].stretch >= 1.0 && acc[0].stretch < 1.05);
    }

    #[test]
    fn queued_job_accrues_wait_not_stretch_before_dispatch() {
        let node = Node::new(presets::sx4_benchmarked());
        let nqs = Nqs::whole_node(&node);
        let jobs = vec![job("big-a", 24, 100.0, vec![]), job("big-b", 24, 100.0, vec![])];
        let s = nqs.run(&jobs).unwrap();
        let acc = account(&jobs, &s);
        assert!(acc[1].wait_s > 90.0, "second job must queue: {}", acc[1].wait_s);
        // Once running alone, it runs at solo speed.
        assert!((acc[1].stretch - 1.0).abs() < 0.01);
    }

    #[test]
    fn dependency_wait_measured_from_eligibility() {
        let node = Node::new(presets::sx4_benchmarked());
        let nqs = Nqs::whole_node(&node);
        let jobs = vec![job("first", 4, 50.0, vec![]), job("second", 4, 50.0, vec![0])];
        let s = nqs.run(&jobs).unwrap();
        let acc = account(&jobs, &s);
        // It became eligible exactly when its dependency finished and the
        // node was free, so it never *waited*.
        assert!(acc[1].wait_s < 1e-9, "{}", acc[1].wait_s);
    }

    #[test]
    fn utilization_bounded_and_sensible() {
        let node = Node::new(presets::sx4_benchmarked());
        let nqs = Nqs::whole_node(&node);
        let jobs: Vec<JobSpec> = (0..4).map(|i| job(&format!("j{i}"), 8, 100.0, vec![])).collect();
        let s = nqs.run(&jobs).unwrap();
        let u = utilization(&jobs, &s, 32);
        assert!(u > 0.9 && u <= 1.0, "four 8-proc jobs should pack the node: {u}");
    }

    #[test]
    fn qacct_renders() {
        let node = Node::new(presets::sx4_benchmarked());
        let nqs = Nqs::whole_node(&node);
        let jobs = vec![job("render-me", 2, 10.0, vec![])];
        let s = nqs.run(&jobs).unwrap();
        let text = qacct_table(&jobs, &s).render();
        assert!(text.contains("render-me"));
        assert!(text.contains("Stretch"));
    }
}
