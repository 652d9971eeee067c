//! Operating-software scenarios spanning crates: checkpoint/restart
//! through SFS and Resource Block partitioning — the SUPER-UX features of
//! paper §2.6 working together on real model state.

use ncar_sx4::climate::history::{checkpoint, read_checkpoint, restore};
use ncar_sx4::climate::{Ccm2Config, Ccm2Proxy, Resolution};
use ncar_sx4::os::nqs::{checkpoint_split, JobSpec, Nqs, ResourceBlock};
use ncar_sx4::os::Sfs;
use ncar_sx4::sim::{presets, Node};

/// §2.6.2: checkpoint a running CCM2, push the record through SFS, restart
/// from it, and verify the restarted run is bit-identical — while the NQS
/// schedule accounts for the I/O time.
#[test]
fn checkpoint_restart_through_sfs() {
    let machine = presets::sx4_benchmarked();
    let mut original = Ccm2Proxy::new(Ccm2Config::benchmark(Resolution::T42), machine.clone());
    for _ in 0..3 {
        original.step(4);
    }

    // Write the checkpoint through the file system.
    let record = checkpoint(&original);
    let mut fs = Sfs::benchmarked();
    let io = fs.write(0.0, record.len() as u64, 64);
    assert!(io.blocked_s < 1.0, "checkpoint write should stage quickly: {}", io.blocked_s);

    // Split the batch job around the checkpoint in the NQS schedule.
    let job = JobSpec {
        name: "ccm2-longrun".into(),
        procs: 4,
        memory_bytes: 512 << 20,
        solo_seconds: 1000.0,
        bytes_per_cycle_per_proc: 35.0,
        block: 0,
        after: vec![],
    };
    let (first, rest) = checkpoint_split(&job, 0.3, io.blocked_s, io.blocked_s).unwrap();
    let node = Node::new(machine.clone());
    let nqs = Nqs::whole_node(&node);
    let mut rest_dep = rest.clone();
    rest_dep.after = vec![0];
    let schedule = nqs.run(&[first, rest_dep]).unwrap();
    assert!(schedule.makespan_s >= 1000.0, "split job still does all its work");

    // Restore into a fresh model and verify bit-exact continuation.
    let parsed = read_checkpoint(&record, original.transform.nspec()).unwrap();
    let mut resumed = Ccm2Proxy::new(Ccm2Config::benchmark(Resolution::T42), machine);
    restore(&mut resumed, &parsed);
    original.step(4);
    resumed.step(4);
    assert_eq!(original.mean_phi(0), resumed.mean_phi(0));
    assert_eq!(original.energy(3), resumed.energy(3));
}

/// §2.6.4: an interactive Resource Block keeps short work responsive while
/// the batch block grinds a long job.
#[test]
fn resource_blocks_protect_interactive_work() {
    let node = Node::new(presets::sx4_benchmarked());
    let nqs = Nqs::with_blocks(
        &node,
        vec![
            ResourceBlock { name: "interactive".into(), procs: 4, memory_bytes: 4 << 30 },
            ResourceBlock { name: "batch".into(), procs: 28, memory_bytes: 4 << 30 },
        ],
    )
    .unwrap();
    let big = JobSpec {
        name: "mom-highres".into(),
        procs: 28,
        memory_bytes: 4 << 30,
        solo_seconds: 10_000.0,
        bytes_per_cycle_per_proc: 40.0,
        block: 1,
        after: vec![],
    };
    let quick: Vec<JobSpec> = (0..5)
        .map(|i| JobSpec {
            name: format!("edit-{i}"),
            procs: 2,
            memory_bytes: 64 << 20,
            solo_seconds: 10.0,
            bytes_per_cycle_per_proc: 5.0,
            block: 0,
            after: vec![],
        })
        .collect();
    let mut jobs = vec![big];
    jobs.extend(quick);
    let s = nqs.run(&jobs).unwrap();
    // The interactive jobs all finish in well under a minute despite the
    // 10,000-second batch job, because they never queue behind it.
    for r in &s.records[1..] {
        assert!(r.end_s < 60.0, "interactive job delayed to {}", r.end_s);
    }
}
