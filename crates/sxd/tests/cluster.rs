//! Cluster acceptance tests: the multi-node fabric behind the router must
//! behave exactly like one daemon — same wire protocol, same byte-stable
//! cache replies, same reconciled counters — while a membership change
//! (one shard draining out) loses no acknowledged work.

use std::collections::BTreeMap;

use ncar_suite::{Artifact, Json, Registry};
use sxd::cluster::{spawn, ClusterConfig};
use sxd::{flood, Client, Demand, FloodConfig, JobEntry, ServerConfig};

fn toy_registry() -> Registry<JobEntry> {
    let mut r = Registry::new();
    r.register(
        "shallow",
        JobEntry::new(Demand::light(3.0), "shallow-water proxy", |m, p| {
            let n = p.get("n").map(String::as_str).unwrap_or("64").to_string();
            Ok(vec![Artifact::Scalar {
                title: format!("{} shallow n={n}", m.name),
                value: 1000.0 + n.len() as f64,
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

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sxd-cluster-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn params_n(n: usize) -> BTreeMap<String, String> {
    let mut p = BTreeMap::new();
    p.insert("n".to_string(), n.to_string());
    p
}

/// Assert the merged counters satisfy the cluster reconciliation
/// invariant and return (accepted, done, absorbed, cache_hits).
fn reconciled_counters(metrics: &Json) -> (u64, u64, u64, u64) {
    assert_eq!(
        metrics.get("reconciled").and_then(Json::as_bool),
        Some(true),
        "cluster metrics must be reconciled: {metrics}"
    );
    let stats = metrics.get("stats").expect("metrics embeds stats");
    let n = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or(0);
    assert_eq!(
        n("accepted"),
        n("done") + n("rejected") + n("queued") + n("running"),
        "summed counters must reconcile: {stats}"
    );
    let hits = stats.get("cache").and_then(|c| c.get("hits")).and_then(Json::as_u64).unwrap_or(0);
    (n("accepted"), n("done"), n("absorbed"), hits)
}

#[test]
fn flood_through_the_router_passes_the_single_node_acceptance_checks() {
    let cluster = spawn(toy_registry(), ClusterConfig { shards: 3, ..ClusterConfig::default() })
        .expect("cluster spawns");
    let addr = cluster.addr().to_string();

    let outcome = flood(&FloodConfig {
        addr: addr.clone(),
        clients: 6,
        jobs: 36,
        suites: vec!["shallow".into(), "radabs".into()],
        machine: "sx4-9.2".into(),
        pipeline: 4,
    })
    .expect("flood runs");
    assert!(outcome.ok(), "flood through the router: {:?}", outcome.problems);
    assert!(outcome.cache_hits > 0, "repeat configs must hit some member's cache");

    let mut client = Client::connect(&addr).unwrap();
    client.shutdown().unwrap();
    cluster.join().expect("cluster exits cleanly");
}

#[test]
fn routing_is_deterministic_and_single_node_verbs_stay_typed() {
    let cluster =
        spawn(toy_registry(), ClusterConfig { shards: 3, ..ClusterConfig::default() }).unwrap();
    let addr = cluster.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // `route` answers without running anything: same config, same owner.
    let a = client.route("shallow", "sx4-9.2", &params_n(1)).unwrap();
    let b = client.route("shallow", "sx4-9.2", &params_n(1)).unwrap();
    assert_eq!(a.get("member").and_then(Json::as_u64), b.get("member").and_then(Json::as_u64));
    assert!(a.get("shard").and_then(Json::as_str).unwrap_or("").starts_with("shard-"));
    let (_, done, _, _) = reconciled_counters(&client.metrics().unwrap());
    assert_eq!(done, 0, "route must not execute work");

    // A submit's reply carries the key that `route` predicted.
    let sub = client.submit("shallow", "sx4-9.2", &params_n(1)).unwrap();
    assert_eq!(Some(sub.key.as_str()), a.get("key").and_then(Json::as_str));

    // Unknown machine is rejected at the router, typed like a daemon.
    let err = client.route("shallow", "cray-2", &BTreeMap::new()).unwrap_err();
    assert_eq!(err.kind(), "unknown_machine");

    // A plain daemon (a cluster member, dialed directly) rejects the
    // cluster-only verbs with typed errors.
    let member = cluster.member_addrs()[0].to_string();
    let mut direct = Client::connect(&member).unwrap();
    let err = direct.drain_member(0, None).unwrap_err();
    assert_eq!(err.kind(), "bad_request", "{err}");
    let err = direct.route("shallow", "sx4-9.2", &BTreeMap::new()).unwrap_err();
    assert_eq!(err.kind(), "bad_request", "{err}");

    client.shutdown().unwrap();
    cluster.join().unwrap();
}

/// The acceptance-criteria test: 3 durable shards, N distinct configs,
/// one member drains out of the ring. Nothing acknowledged is lost,
/// repeat submits of the drained member's keys hit the successors'
/// caches byte-identically, and the merged counters reconcile on both
/// sides of the membership change.
#[test]
fn draining_a_member_hands_its_keyspace_off_byte_identically() {
    let dir = temp_dir("handoff");
    let cluster = spawn(
        toy_registry(),
        ClusterConfig {
            shards: 3,
            state_dir: Some(dir.clone()),
            server: ServerConfig::default(),
            ..ClusterConfig::default()
        },
    )
    .unwrap();
    let addr = cluster.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    // Flood N distinct configs and remember each first reply.
    const N: usize = 12;
    let mut first = Vec::new();
    let mut owners = Vec::new();
    for i in 0..N {
        let sub = client.submit("shallow", "sx4-9.2", &params_n(i)).unwrap();
        assert!(!sub.cached, "config {i} is distinct");
        let route = client.route("shallow", "sx4-9.2", &params_n(i)).unwrap();
        owners.push(route.get("member").and_then(Json::as_u64).unwrap() as usize);
        first.push(sub.raw);
    }

    // Counters reconcile before the membership change.
    let (accepted_before, done_before, _, _) = reconciled_counters(&client.metrics().unwrap());
    assert_eq!((accepted_before, done_before), (N as u64, N as u64));

    // Drain the member that owns config 0. Synchronous: when the reply
    // arrives, the hand-off has completed.
    let victim = owners[0];
    let victim_jobs = owners.iter().filter(|&&o| o == victim).count();
    client.drain_member(victim, Some(2_000)).unwrap();

    // Its keyspace moved: config 0 now routes to a different member.
    let rerouted = client.route("shallow", "sx4-9.2", &params_n(0)).unwrap();
    assert_ne!(rerouted.get("member").and_then(Json::as_u64).unwrap() as usize, victim);

    // Every config — the drained member's included — replays its exact
    // first bytes from some surviving member's cache.
    for (i, original) in first.iter().enumerate() {
        let sub = client.submit("shallow", "sx4-9.2", &params_n(i)).unwrap();
        assert!(sub.cached, "config {i} must be served from cache after the drain");
        assert_eq!(
            sub.raw,
            original.replace("\"cached\":false", "\"cached\":true"),
            "config {i} must replay byte-identically across the membership change"
        );
    }

    // Counters reconcile after: the N repeats all retired as done, the
    // hand-off absorbed the victim's journal into its successors, and
    // the repeats of the victim's keys were cache hits there.
    let m = client.metrics().unwrap();
    let (accepted_after, done_after, absorbed, hits) = reconciled_counters(&m);
    // The drained member's counters left the merged view with it; the
    // survivors saw the N repeat submits.
    assert_eq!(accepted_after, (N - victim_jobs) as u64 + N as u64);
    assert_eq!(done_after, accepted_after);
    assert_eq!(absorbed as usize, victim_jobs, "every journaled result was handed off");
    assert!(hits >= N as u64, "repeats must hit surviving caches, got {hits}");

    // The router's own stats member reports the hand-off.
    let stats_reply = client.raw("{\"op\":\"stats\"}").unwrap();
    let doc = Json::parse(&stats_reply).unwrap();
    let router = doc.get("stats").and_then(|s| s.get("router")).expect("router tallies");
    assert_eq!(router.get("handoff_entries").and_then(Json::as_u64), Some(victim_jobs as u64));
    assert_eq!(router.get("members_alive").and_then(Json::as_u64), Some(2));

    client.shutdown().unwrap();
    cluster.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cluster-wide drain retires every member then the router, like a
/// single daemon's drain — and a second cluster over the same state root
/// recovers each shard's journal, so the keyspace survives a full
/// restart.
#[test]
fn full_cluster_drain_then_respawn_recovers_every_shard() {
    let dir = temp_dir("restart");
    let config =
        ClusterConfig { shards: 3, state_dir: Some(dir.clone()), ..ClusterConfig::default() };
    let cluster = spawn(toy_registry(), config.clone()).unwrap();
    let addr = cluster.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let mut first = Vec::new();
    for i in 0..6 {
        first.push(client.submit("shallow", "sx4-9.2", &params_n(i)).unwrap().raw);
    }
    client.drain(Some(2_000)).unwrap();
    cluster.join().unwrap();

    let cluster = spawn(toy_registry(), config).unwrap();
    let mut client = Client::connect(&cluster.addr().to_string()).unwrap();
    for (i, original) in first.iter().enumerate() {
        let sub = client.submit("shallow", "sx4-9.2", &params_n(i)).unwrap();
        assert!(sub.cached, "config {i} must survive the full-cluster restart");
        assert_eq!(sub.raw, original.replace("\"cached\":false", "\"cached\":true"));
    }
    client.shutdown().unwrap();
    cluster.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A member that goes down without draining: the router answers its keys
/// with a typed `shard_unavailable` and counts it, keeps serving the other
/// members' keys, and still shuts down cleanly.
#[test]
fn a_dead_member_is_typed_unavailable_while_the_others_still_serve() {
    let cluster =
        spawn(toy_registry(), ClusterConfig { shards: 3, ..ClusterConfig::default() }).unwrap();
    let addr = cluster.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let mut owner = |i: usize| {
        let route = client.route("shallow", "sx4-9.2", &params_n(i)).unwrap();
        route.get("member").and_then(Json::as_u64).unwrap() as usize
    };
    let victim = owner(0);
    let other = (1..64).find(|&i| owner(i) != victim).expect("some key lives elsewhere");

    // Warm the router's connection to the victim, then take the victim
    // down behind the router's back and wait until it refuses connects.
    client.submit("shallow", "sx4-9.2", &params_n(0)).unwrap();
    let victim_addr = cluster.member_addrs()[victim].to_string();
    Client::connect(&victim_addr).unwrap().shutdown().unwrap();
    let t0 = std::time::Instant::now();
    while std::net::TcpStream::connect(&victim_addr).is_ok() {
        assert!(t0.elapsed() < std::time::Duration::from_secs(10), "victim never went down");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    let err = client.submit("shallow", "sx4-9.2", &params_n(0)).unwrap_err();
    assert_eq!(err.kind(), "shard_unavailable", "{err}");
    let sub = client.submit("shallow", "sx4-9.2", &params_n(other)).unwrap();
    assert!(!sub.cached);
    // Fan-out verbs refuse a partial view rather than under-count.
    let err = client.stats().unwrap_err();
    assert_eq!(err.kind(), "shard_unavailable", "{err}");

    // Draining the dead member tolerates it being gone; its keys then
    // route to a survivor, and the router's tallies show both refusals.
    client.drain_member(victim, Some(100)).unwrap();
    assert!(!client.submit("shallow", "sx4-9.2", &params_n(0)).unwrap().cached);
    let doc = Json::parse(&client.raw("{\"op\":\"stats\"}").unwrap()).unwrap();
    let router = doc.get("stats").and_then(|s| s.get("router")).expect("router tallies");
    assert_eq!(router.get("unavailable").and_then(Json::as_u64), Some(2), "{router}");
    assert_eq!(router.get("members_alive").and_then(Json::as_u64), Some(2));

    client.shutdown().unwrap();
    cluster.join().expect("the router shuts down cleanly with a member gone");
}
