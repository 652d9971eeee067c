//! A day in the SX-4 machine room: submit a batch mix through NQS with
//! Resource Blocks, then checkpoint a long run mid-flight, write the
//! record through SFS and restart from it — the SUPER-UX scheduling and
//! checkpoint features of paper §2.6 as one program.
//!
//! Run with: `cargo run --release --example operations_day`

use ncar_sx4::climate::history::{checkpoint, read_checkpoint, restore};
use ncar_sx4::climate::{Ccm2Config, Ccm2Proxy, Resolution};
use ncar_sx4::os::nqs::{JobSpec, Nqs, ResourceBlock};
use ncar_sx4::os::Sfs;
use ncar_sx4::sim::{presets, Node};

fn main() {
    let machine = presets::sx4_benchmarked();
    let node = Node::new(machine.clone());

    // --- morning: configure Resource Blocks and submit the batch mix -----
    let nqs = Nqs::with_blocks(
        &node,
        vec![
            ResourceBlock { name: "interactive".into(), procs: 4, memory_bytes: 4 << 30 },
            ResourceBlock { name: "batch".into(), procs: 28, memory_bytes: 4 << 30 },
        ],
    )
    .expect("4 + 28 processors fit the node");
    let mut jobs = vec![JobSpec {
        name: "ccm2-production".into(),
        procs: 16,
        memory_bytes: 2 << 30,
        solo_seconds: 3600.0,
        bytes_per_cycle_per_proc: 35.0,
        block: 1,
        after: vec![],
    }];
    for i in 0..3 {
        jobs.push(JobSpec {
            name: format!("mom-test-{i}"),
            procs: 8,
            memory_bytes: 1 << 30,
            solo_seconds: 600.0,
            bytes_per_cycle_per_proc: 40.0,
            block: 1,
            after: vec![],
        });
    }
    jobs.push(JobSpec {
        name: "analysis-session".into(),
        procs: 4,
        memory_bytes: 256 << 20,
        solo_seconds: 120.0,
        bytes_per_cycle_per_proc: 10.0,
        block: 0,
        after: vec![],
    });
    let schedule = nqs.run(&jobs).expect("the day's mix is schedulable");
    println!("NQS schedule (32-processor node, 4-proc interactive block):");
    for (job, rec) in jobs.iter().zip(&schedule.records) {
        println!(
            "  {:<18} {:>3} procs   start {:>8.1}s   end {:>8.1}s",
            job.name, job.procs, rec.start_s, rec.end_s
        );
    }
    println!("  makespan: {:.1} s\n", schedule.makespan_s);

    // --- midday: checkpoint the climate run and restart it ---------------
    let mut model = Ccm2Proxy::new(Ccm2Config::benchmark(Resolution::T42), machine.clone());
    for _ in 0..3 {
        model.step(16);
    }
    let record = checkpoint(&model);
    let mut fs = Sfs::benchmarked();
    let io = fs.write(0.0, record.len() as u64, 64);
    println!(
        "checkpoint: {:.1} MB written through SFS, application blocked {:.0} ms (durable after {:.2} s)",
        record.len() as f64 / 1e6,
        io.blocked_s * 1e3,
        io.durable_s
    );
    let parsed = read_checkpoint(&record, model.transform.nspec()).unwrap();
    let mut resumed = Ccm2Proxy::new(Ccm2Config::benchmark(Resolution::T42), machine);
    restore(&mut resumed, &parsed);
    model.step(16);
    resumed.step(16);
    println!(
        "restart check: mean phi original {:.10} == resumed {:.10}",
        model.mean_phi(0),
        resumed.mean_phi(0)
    );
}
