//! PRODLOAD — the simulated production job load (paper §4.6).
//!
//! "We define a 'job' to be composed of the HIPPI Benchmark and three
//! copies of the CCM2 executing simultaneously. The CCM2 runs are a 3-day
//! simulation at resolution T106 and two 20-day simulations at T42
//! resolution." Test one runs one sequence of four such jobs; test two,
//! two concurrent sequences; test three, four; test four runs two CCM2
//! 2-day T170 jobs concurrently. The score is the wall clock for the whole
//! benchmark — the NEC SX-4/32 finished in 93 minutes 28 seconds.
//!
//! Job durations come from measured per-step timings of the `ccm-proxy`
//! model on the simulated machine; scheduling and co-scheduling contention
//! come from the NQS model.

use crate::iobench::hippi_test_seconds;
use crate::nqs::{JobSpec, Nqs};
use ccm_proxy::{Ccm2Config, Resolution};
use sxsim::{MachineModel, Node};

/// Measured per-step rates for the CCM2 configurations PRODLOAD uses.
#[derive(Debug, Clone, Copy)]
pub struct CcmRates {
    /// Seconds per step, T42 on 4 processors.
    pub(crate) t42_4p: f64,
    /// Seconds per step, T106 on 4 processors.
    pub(crate) t106_4p: f64,
    /// Seconds per step, T170 on 16 processors.
    pub(crate) t170_16p: f64,
    /// Memory demand per processor (bytes/cycle) of a CCM2 run.
    pub bpc: f64,
}

impl CcmRates {
    /// Measure the rates from priced model steps on `machine`.
    pub fn measure(machine: &MachineModel) -> CcmRates {
        let rate = |res: Resolution, procs: usize| {
            let t = ccm_proxy::steady_step(&Ccm2Config::benchmark(res), machine, procs);
            (t.seconds, t.bytes_per_cycle_per_proc)
        };
        let (t42, bpc) = rate(Resolution::T42, 4);
        let (t106, _) = rate(Resolution::T106, 4);
        let (t170, _) = rate(Resolution::T170, 16);
        CcmRates { t42_4p: t42, t106_4p: t106, t170_16p: t170, bpc }
    }

    /// Representative fixed rates for fast tests (same orders of magnitude
    /// as [`CcmRates::measure`] on the benchmarked SX-4).
    pub fn synthetic() -> CcmRates {
        CcmRates { t42_4p: 0.11, t106_4p: 0.55, t170_16p: 0.70, bpc: 35.0 }
    }
}

/// Result of the full PRODLOAD benchmark.
#[derive(Debug, Clone)]
pub struct ProdloadResult {
    /// Wall seconds of tests 1..4 in order.
    pub test_seconds: [f64; 4],
    /// Total wall seconds (tests run back to back).
    pub total_seconds: f64,
}

impl ProdloadResult {
    /// Formatted as the paper reports it (minutes and seconds).
    pub fn formatted(&self) -> String {
        let total = self.total_seconds.round() as u64;
        format!("{} minutes {} seconds", total / 60, total % 60)
    }
}

/// Durations of the three CCM2 components of one PRODLOAD job.
fn job_components(rates: &CcmRates) -> [(&'static str, usize, f64); 3] {
    let t106_days = 3.0;
    let t42_days = 20.0;
    let t106 = t106_days * Resolution::T106.steps_per_day() as f64 * rates.t106_4p;
    let t42 = t42_days * Resolution::T42.steps_per_day() as f64 * rates.t42_4p;
    [("ccm2-T106-3day", 4, t106), ("ccm2-T42-20day-a", 4, t42), ("ccm2-T42-20day-b", 4, t42)]
}

/// Build the job list for `sequences` concurrent sequences of four jobs.
fn sequence_jobs(rates: &CcmRates, sequences: usize, hippi_s: f64) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    for seq in 0..sequences {
        let mut prev_job: Vec<usize> = Vec::new();
        for step in 0..4 {
            let mut this_job = Vec::new();
            // The HIPPI component.
            jobs.push(JobSpec {
                name: format!("s{seq}-j{step}-hippi"),
                procs: 1,
                memory_bytes: 64 << 20,
                solo_seconds: hippi_s,
                bytes_per_cycle_per_proc: 2.0,
                after: prev_job.clone(),
            });
            this_job.push(jobs.len() - 1);
            // The three CCM2 components.
            for (name, procs, secs) in job_components(rates) {
                jobs.push(JobSpec {
                    name: format!("s{seq}-j{step}-{name}"),
                    procs,
                    memory_bytes: 512 << 20,
                    solo_seconds: secs,
                    bytes_per_cycle_per_proc: rates.bpc,
                    after: prev_job.clone(),
                });
                this_job.push(jobs.len() - 1);
            }
            prev_job = this_job;
        }
    }
    jobs
}

/// Run the full PRODLOAD benchmark on `node`.
pub fn prodload(node: &Node, rates: &CcmRates) -> ProdloadResult {
    let hippi_s = hippi_test_seconds();
    let nqs = Nqs::whole_node(node);

    let mut test_seconds = [0.0f64; 4];
    for (i, sequences) in [1usize, 2, 4].into_iter().enumerate() {
        let jobs = sequence_jobs(rates, sequences, hippi_s);
        test_seconds[i] = nqs.run(&jobs).expect("PRODLOAD mix fits the node").makespan_s;
    }
    // Test four: two concurrent 2-day T170 runs.
    let t170_secs = 2.0 * Resolution::T170.steps_per_day() as f64 * rates.t170_16p;
    let t170 = |name: &str| JobSpec {
        name: name.into(),
        procs: 16,
        memory_bytes: 2 << 30,
        solo_seconds: t170_secs,
        bytes_per_cycle_per_proc: rates.bpc,
        after: vec![],
    };
    test_seconds[3] =
        nqs.run(&[t170("t170-a"), t170("t170-b")]).expect("PRODLOAD mix fits the node").makespan_s;

    ProdloadResult { test_seconds, total_seconds: test_seconds.iter().sum() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxsim::presets;

    fn node() -> Node {
        Node::new(presets::sx4_benchmarked())
    }

    #[test]
    fn four_tests_all_positive_and_ordered() {
        let r = prodload(&node(), &CcmRates::synthetic());
        for (i, &t) in r.test_seconds.iter().enumerate() {
            assert!(t > 0.0, "test {} empty", i + 1);
        }
        // More concurrent sequences on a fixed node cannot be faster than
        // fewer (same per-sequence work, shared processors).
        assert!(r.test_seconds[1] >= r.test_seconds[0] * 0.99);
        assert!(r.test_seconds[2] > r.test_seconds[1]);
    }

    #[test]
    fn two_sequences_overlap_well() {
        // 8 processors per job set: two sequences (2 x 13 procs) fit in the
        // 32-processor node, so test 2 should cost far less than 2x test 1.
        let r = prodload(&node(), &CcmRates::synthetic());
        assert!(
            r.test_seconds[1] < 1.5 * r.test_seconds[0],
            "test2 {} vs test1 {}",
            r.test_seconds[1],
            r.test_seconds[0]
        );
    }

    #[test]
    fn total_in_the_paper_ballpark() {
        // The paper's SX-4/32 finished in 93m28s = 5608 s. The proxy model
        // should land within a factor of ~2.5.
        let r = prodload(&node(), &CcmRates::synthetic());
        assert!(
            (2000.0..14000.0).contains(&r.total_seconds),
            "PRODLOAD total {} s vs paper 5608 s",
            r.total_seconds
        );
    }

    #[test]
    fn formatted_output_shape() {
        let r = ProdloadResult { test_seconds: [0.0; 4], total_seconds: 5608.0 };
        assert_eq!(r.formatted(), "93 minutes 28 seconds");
    }

    #[test]
    fn job_graph_has_right_shape() {
        let jobs = sequence_jobs(&CcmRates::synthetic(), 2, 100.0);
        // 2 sequences x 4 jobs x 4 components.
        assert_eq!(jobs.len(), 32);
        // First job of each sequence has no dependencies.
        assert!(jobs[0].after.is_empty());
        assert!(jobs[16].after.is_empty());
        // Later jobs depend on all four components of the previous job.
        assert_eq!(jobs[4].after.len(), 4);
    }
}
