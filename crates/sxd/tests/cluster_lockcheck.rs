//! Lock-order audit of a live *cluster* (the router half of the
//! SXC301/SXC302 acceptance criteria).
//!
//! The router's discipline is stricter than the daemon's: its five named
//! locks (`sxd.router.members`, `.handles`, `.counters`, `.reactor` and
//! the per-member `.conns` pools) are all leaves — never nested inside
//! each other or inside a member daemon's locks, and never held across
//! the shard-forwarding I/O crossings (`sxd.router.dial` / `.forward` /
//! `.drain` / `.join` / `.handoff`). This test
//! drives a durable 3-shard cluster through the full verb surface — routed
//! floods, fan-out stats/metrics, a member drain with keyspace hand-off,
//! cluster shutdown — then runs `sxcheck::lockgraph` over the process-wide
//! snapshot: member edges and router observations together must produce no
//! findings.
//!
//! This lives in its own test binary (not `lockcheck.rs`) because the
//! lockreg registry is process-global: a separate binary gives the cluster
//! a clean snapshot that is still a *superset* check — member daemons run
//! in-process, so their lock graph is re-audited here under router load.
#![cfg(feature = "lockcheck")]

use std::collections::BTreeMap;

use ncar_suite::par::lockreg;
use ncar_suite::{Artifact, Registry};
use sxd::cluster::{spawn, ClusterConfig};
use sxd::{flood, Client, Demand, FloodConfig, JobEntry};

fn toy_registry() -> Registry<JobEntry> {
    let mut r = Registry::new();
    r.register(
        "shallow",
        JobEntry::new(Demand::light(3.0), "shallow-water proxy", |m, p| {
            let n = p.get("n").map(String::as_str).unwrap_or("64").to_string();
            Ok(vec![Artifact::Scalar {
                title: format!("{} shallow n={n}", m.name),
                value: 1000.0,
                unit: "mflops".into(),
            }])
        }),
    );
    r.register(
        "radabs",
        JobEntry::new(Demand::light(1.5), "radiation-absorption proxy", |m, _p| {
            Ok(vec![Artifact::Scalar {
                title: format!("{} radabs", m.name),
                value: 500.0,
                unit: "mflops".into(),
            }])
        }),
    );
    r
}

#[test]
fn cluster_lock_graph_has_no_findings() {
    let dir = std::env::temp_dir().join(format!("sxd-cluster-lockcheck-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let cluster = spawn(
        toy_registry(),
        ClusterConfig { shards: 3, state_dir: Some(dir.clone()), ..ClusterConfig::default() },
    )
    .expect("cluster spawns");
    let addr = cluster.addr().to_string();

    // Routed flood: concurrent handlers exercise the members/conns/
    // counters locks against each other while member daemons take their
    // own inflight→cache and journal→cache orderings underneath.
    let outcome = flood(&FloodConfig {
        addr: addr.clone(),
        clients: 8,
        jobs: 48,
        suites: vec!["shallow".into(), "radabs".into()],
        machine: "sx4-9.2".into(),
        pipeline: 4,
    })
    .unwrap();
    assert!(outcome.ok(), "flood problems: {:?}", outcome.problems);

    // Distinct submits so every member journals, then the drain hand-off
    // (journal read + put forwarding + restart-spec resubmit) runs with
    // warm caches on the survivors.
    let mut client = Client::connect(&addr).unwrap();
    for i in 0..16 {
        let mut params = BTreeMap::new();
        params.insert("n".to_string(), format!("{}", 64 + i));
        client.submit("shallow", "sx4-9.2", &params).unwrap();
    }
    let _ = client.metrics().unwrap();
    client.drain_member(1, Some(2_000)).unwrap();
    let _ = client.metrics().unwrap();
    client.shutdown().unwrap();
    cluster.join().expect("cluster exits cleanly");

    let obs = lockreg::snapshot();
    // Sanity: the member daemons really were instrumented under this load.
    assert!(
        obs.edges.iter().any(|e| e.from == "sxd.inflight" && e.to == "sxd.cache"),
        "member daemons must have recorded their hierarchy: {:?}",
        obs.edges
    );
    // The router's leaf discipline: none of its locks ever appears as the
    // *outer* side of an ordering edge.
    for e in &obs.edges {
        assert!(
            !e.from.starts_with("sxd.router."),
            "router locks are leaves, but {} was held while taking {}",
            e.from,
            e.to
        );
    }

    let findings = sxcheck::lockgraph::analyze(&obs);
    assert!(
        findings.is_empty(),
        "no SXC301/SXC302 findings on the cluster lock graph:\n{}",
        findings.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
    );

    let _ = std::fs::remove_dir_all(&dir);
}
