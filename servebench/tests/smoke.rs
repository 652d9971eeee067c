//! The shape gates on a tiny smoke configuration: the real load lanes and
//! gates against in-process daemons whose eight suites are instant toys
//! named like the served ones.

use std::collections::BTreeMap;
use std::time::Instant;

use ncar_suite::{Artifact, Registry};
use servebench::gates::{self, Observed};
use servebench::load::{self, WindowConfig, Workload, SUITES};
use servebench::stats::Delta;
use sxd::cluster::{spawn as spawn_cluster, ClusterConfig};
use sxd::{Client, Demand, JobEntry, Server, ServerConfig};

fn toys() -> Registry<JobEntry> {
    let mut reg = Registry::new();
    for (i, name) in SUITES.iter().enumerate() {
        reg.register(
            *name,
            JobEntry::new(Demand::light(1.0), "toy", move |_m, _p| {
                Ok(vec![Artifact::Scalar {
                    title: "toy".into(),
                    value: i as f64,
                    unit: "u".into(),
                }])
            }),
        );
    }
    reg
}

/// Drive one small window against `addr` and return what the gates see.
fn window(w: Workload, addr: &str, reference: Option<&[String]>, keys: Vec<usize>) -> Observed {
    let mut observer = Client::connect(addr).unwrap();
    let before = observer.metrics().unwrap();
    let cfg = WindowConfig {
        addr,
        seconds: 0.05,
        min_samples: 16,
        trace: true,
        epoch: Instant::now(),
        cpus: &[],
        daemon_pid: std::process::id(),
        reference,
    };
    let lanes = load::run_window(&cfg, w.plans(7));
    let after = observer.metrics().unwrap();
    gates::reconciled(&after, "smoke").unwrap();
    for lane in &lanes {
        assert!(lane.errors.is_empty(), "{:?}", lane.errors);
        assert_eq!(lane.failed, 0);
        assert!(!lane.spans.is_empty(), "traced windows record client spans");
    }
    Observed::new(&lanes, &Delta { before: &before, after: &after }, keys).unwrap()
}

fn serve(config: ServerConfig) -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind(toys(), config).unwrap();
    let addr = server.local_addr().to_string();
    (addr, std::thread::spawn(move || server.run().unwrap()))
}

#[test]
fn hot_window_passes_only_the_hot_gates() {
    let (addr, daemon) = serve(ServerConfig { pipeline_depth: 8, ..ServerConfig::default() });
    let reference = load::prime(&addr).unwrap();
    let seen = window(Workload::HotPipelined, &addr, Some(&reference), Vec::new());
    assert!(gates::shape(Workload::HotPipelined, &seen).is_empty(), "{seen:?}");
    assert!(!gates::shape(Workload::ColdMix, &seen).is_empty());
    Client::connect(&addr).unwrap().shutdown().unwrap();
    daemon.join().unwrap();
}

#[test]
fn cold_window_misses_every_time_and_journals_every_submit() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-cold");
    let _ = std::fs::remove_dir_all(&dir);
    let (addr, daemon) = serve(ServerConfig {
        cache_cap: 2,
        state_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let seen = window(Workload::ColdMix, &addr, None, Vec::new());
    assert!(gates::shape(Workload::ColdMix, &seen).is_empty(), "{seen:?}");
    assert!(!gates::shape(Workload::HotPipelined, &seen).is_empty());
    Client::connect(&addr).unwrap().shutdown().unwrap();
    daemon.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn routed_window_spreads_keys_over_three_members() {
    let cluster = spawn_cluster(
        toys(),
        ClusterConfig {
            shards: 3,
            addr: "127.0.0.1:0".into(),
            state_dir: None,
            server: ServerConfig::default(),
        },
    )
    .unwrap();
    let addr = cluster.addr().to_string();
    let reference = load::prime(&addr).unwrap();
    let mut observer = Client::connect(&addr).unwrap();
    let mut keys = vec![0; 3];
    for suite in SUITES {
        let route = observer.route(suite, load::MACHINE, &BTreeMap::new()).unwrap();
        keys[route.get("member").and_then(ncar_suite::Json::as_u64).unwrap() as usize] += 1;
    }
    let seen = window(Workload::RoutedSerial, &addr, Some(&reference), keys);
    assert!(gates::shape(Workload::RoutedSerial, &seen).is_empty(), "{seen:?}");
    observer.shutdown().unwrap();
    cluster.join().unwrap();
}
