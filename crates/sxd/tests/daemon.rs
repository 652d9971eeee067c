//! End-to-end tests over real TCP: a daemon on an ephemeral port, typed
//! clients, hostile frames, contended floods, graceful shutdown.

use std::collections::BTreeMap;
use std::net::TcpStream;
use std::sync::Arc;
use std::thread::JoinHandle;

use ncar_suite::{Artifact, Json, Registry};
use sxd::{flood, Client, Demand, FloodConfig, JobEntry, Server, ServerConfig, SxdError};

/// Fast toy suites so tests measure the daemon, not the simulations.
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
    // Holds the run slot long enough that a barrier-synchronized herd of
    // identical submits reliably overlaps the leader, even on a loaded
    // machine — the coalescing test needs the window, not the speed.
    r.register(
        "herd",
        JobEntry::new(Demand::light(1.0), "slow-enough-to-coalesce proxy", |m, _p| {
            std::thread::sleep(std::time::Duration::from_millis(50));
            Ok(vec![Artifact::Scalar {
                title: format!("{} herd", m.name),
                value: 1.0,
                unit: "runs".into(),
            }])
        }),
    );
    r
}

/// Start a daemon on an ephemeral port; returns (addr, server thread).
fn spawn_daemon(registry: Registry<JobEntry>) -> (String, JoinHandle<()>) {
    spawn_configured(registry, ServerConfig::default())
}

fn spawn_configured(
    registry: Registry<JobEntry>,
    config: ServerConfig,
) -> (String, JoinHandle<()>) {
    let server = Server::bind(registry, config).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("daemon run"));
    (addr, handle)
}

/// Regression: `Client::raw` sent a frame and its newline as two writes,
/// so Nagle held the one-byte tail until the daemon's delayed ACK fired
/// and every serial request took ~40 ms. A loopback cache hit is
/// microseconds of work; the median of 50 serial hits must show it.
#[test]
fn serial_cache_hits_are_not_held_back_by_delayed_acks() {
    let (addr, handle) = spawn_daemon(toy_registry());
    let mut client = Client::connect(&addr).unwrap();
    let params = BTreeMap::new();
    assert!(!client.submit("radabs", "sx4-9.2", &params).unwrap().cached);
    let mut latencies: Vec<std::time::Duration> = (0..50)
        .map(|_| {
            let t0 = std::time::Instant::now();
            assert!(client.submit("radabs", "sx4-9.2", &params).unwrap().cached);
            t0.elapsed()
        })
        .collect();
    latencies.sort();
    let median = latencies[latencies.len() / 2];
    assert!(
        median < std::time::Duration::from_millis(5),
        "median serial cache hit took {median:?}: a delayed-ACK stall"
    );
    client.shutdown().unwrap();
    handle.join().expect("daemon exits");
}

fn shut_down(addr: &str, handle: JoinHandle<()>) {
    Client::connect(addr).unwrap().shutdown().unwrap();
    handle.join().expect("daemon thread exits cleanly");
}

#[test]
fn repeat_submit_hits_cache_with_byte_identical_result() {
    let (addr, handle) = spawn_daemon(toy_registry());
    let mut client = Client::connect(&addr).unwrap();
    let mut params = BTreeMap::new();
    params.insert("n".to_string(), "128".to_string());

    let first = client.submit("shallow", "sx4-9.2", &params).unwrap();
    let second = client.submit("shallow", "sx4-9.2", &params).unwrap();
    assert!(!first.cached);
    assert!(second.cached);
    assert_eq!(first.key, second.key);
    // Byte identity: the raw reply lines differ only in the cached flag.
    assert_eq!(second.raw, first.raw.replace("\"cached\":false", "\"cached\":true"));
    assert_eq!(first.result.to_string(), second.result.to_string());

    // A different parameter set is a different content address.
    let third = client.submit("shallow", "sx4-9.2", &BTreeMap::new()).unwrap();
    assert!(!third.cached);
    assert_ne!(third.key, first.key);

    shut_down(&addr, handle);
}

#[test]
fn garbage_truncated_and_oversized_frames_yield_typed_errors() {
    let (addr, handle) = spawn_daemon(toy_registry());

    // Garbage and truncated JSON: typed reply, connection stays usable.
    let mut client = Client::connect(&addr).unwrap();
    for (frame, want) in [
        ("not json at all", "bad_json"),
        ("{\"op\":\"submit\"", "bad_json"),
        ("{\"op\":\"submit\",\"suite\":7}", "bad_request"),
    ] {
        let reply = client.raw(frame).unwrap();
        let doc = Json::parse(&reply).expect("error replies are valid JSON");
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(false));
        let kind = doc.get("error").unwrap().get("kind").unwrap().as_str();
        assert_eq!(kind, Some(want), "frame {frame:?} got {reply}");
    }
    // ... and the same connection still serves good requests afterwards.
    assert!(!client.submit("radabs", "sx4", &BTreeMap::new()).unwrap().cached);

    // Unknown suite is typed.
    let err = client.submit("does-not-exist", "sx4", &BTreeMap::new()).unwrap_err();
    assert!(matches!(&err, SxdError::Remote { kind, .. } if kind == "unknown_suite"), "{err}");

    // An oversized frame gets a frame_too_long reply, then the server
    // closes (framing is unrecoverable mid-line).
    let mut hostile = Client::connect(&addr).unwrap();
    let big = "x".repeat(sxd::MAX_REQUEST_FRAME + 100);
    let reply = hostile.raw(&big).unwrap();
    let doc = Json::parse(&reply).unwrap();
    assert_eq!(doc.get("error").unwrap().get("kind").unwrap().as_str(), Some("frame_too_long"));

    shut_down(&addr, handle);
}

#[test]
fn infeasible_jobs_are_rejected_and_reconciled() {
    let mut registry = toy_registry();
    registry.register(
        "toowide",
        JobEntry::new(
            Demand {
                procs: 4096,
                memory_bytes: 1 << 20,
                solo_seconds: 1.0,
                bytes_per_cycle_per_proc: 8.0,
            },
            "wider than any node",
            |_m, _p| Ok(vec![]),
        ),
    );
    let (addr, handle) = spawn_daemon(registry);
    let mut client = Client::connect(&addr).unwrap();
    let err = client.submit("toowide", "sx4", &BTreeMap::new()).unwrap_err();
    assert!(matches!(&err, SxdError::Remote { kind, .. } if kind == "rejected"), "{err}");
    let stats = client.stats().unwrap();
    let n = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap();
    assert_eq!(n("accepted"), 1);
    assert_eq!(n("rejected"), 1);
    assert_eq!(n("accepted"), n("done") + n("rejected") + n("queued") + n("running"));
    shut_down(&addr, handle);
}

/// Serial and pipelined floods, the pipelined one against a durable
/// daemon. Pipelined replies must stay in order and byte-identical (the
/// flood checks each reply's key), and on both rows repeat configurations
/// are answered inline on the reactor thread.
#[test]
fn flood_completes_with_zero_drops_and_reconciled_counters() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("pipelined-flood");
    let _ = std::fs::remove_dir_all(&dir);
    // (server pipeline depth, frames each client keeps in flight, jobs, state dir)
    for (depth, pipeline, jobs, state_dir) in [(1, 1, 64, None), (8, 8, 256, Some(dir.clone()))] {
        let config = ServerConfig { pipeline_depth: depth, state_dir, ..ServerConfig::default() };
        let (addr, handle) = spawn_configured(toy_registry(), config);
        let outcome = flood(&FloodConfig {
            addr: addr.clone(),
            clients: 8,
            jobs,
            suites: vec!["shallow".into(), "radabs".into()],
            machine: "sx4-9.2".into(),
            pipeline,
        })
        .unwrap();
        assert!(outcome.ok(), "depth {depth}: flood problems: {:?}", outcome.problems);
        assert_eq!(outcome.completed, jobs);
        assert!(outcome.reconciled, "depth {depth}: metrics snapshot must reconcile");
        assert!(outcome.cache_hits > 0, "repeated configs must hit the cache");
        assert!(outcome.fastpath_hits > 0, "depth {depth}: cache hits must be answered inline");
        assert_eq!(
            outcome.accepted,
            outcome.done + outcome.rejected + outcome.queued + outcome.running
        );

        // Simulated seconds accumulated for both suites (stretch >= 1).
        let mut client = Client::connect(&addr).unwrap();
        let stats = client.stats().unwrap();
        let secs = stats.get("suite_seconds").unwrap();
        assert!(secs.get("shallow").unwrap().as_f64().unwrap() >= 3.0);
        assert!(secs.get("radabs").unwrap().as_f64().unwrap() >= 1.5);

        shut_down(&addr, handle);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_drains_and_refuses_new_work() {
    let (addr, handle) = spawn_daemon(toy_registry());
    let mut client = Client::connect(&addr).unwrap();
    client.submit("radabs", "sx4", &BTreeMap::new()).unwrap();
    client.shutdown().unwrap();
    handle.join().expect("daemon exits cleanly after shutdown");
    // The port is closed: new connections fail (or are refused instantly).
    std::thread::sleep(std::time::Duration::from_millis(50));
    assert!(TcpStream::connect(&addr).is_err(), "listener must be closed after graceful shutdown");
}

#[test]
fn metrics_verb_serves_a_reconciled_snapshot_over_tcp() {
    let (addr, handle) = spawn_daemon(toy_registry());
    let mut client = Client::connect(&addr).unwrap();
    let params = BTreeMap::new();
    client.submit("shallow", "sx4-9.2", &params).unwrap(); // run
    client.submit("shallow", "sx4-9.2", &params).unwrap(); // cache hit
    client.submit("radabs", "sx4-9.2", &params).unwrap(); // second run

    let m = client.metrics().unwrap();
    assert_eq!(m.get("reconciled").unwrap().as_bool(), Some(true));

    // The embedded stats match what STATS reports.
    let stats = m.get("stats").unwrap();
    let n = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap();
    assert_eq!(n("accepted"), 3);
    assert_eq!(n("done"), 3);

    // The job histogram reconciles exactly against the embedded stats.
    let job = m.get("latency").unwrap().get("job").unwrap();
    assert_eq!(job.get("count").unwrap().as_u64().unwrap(), n("done") + n("rejected"));
    // Bucket counts sum to the count, and bounds come with them.
    let le = job.get("le").unwrap().as_arr().unwrap();
    let buckets = job.get("n").unwrap().as_arr().unwrap();
    assert_eq!(buckets.len(), le.len() + 1, "one overflow bucket past the last bound");
    let total: u64 = buckets.iter().map(|v| v.as_u64().unwrap()).sum();
    assert_eq!(total, job.get("count").unwrap().as_u64().unwrap());

    // Stage histograms cover the pipeline; only the misses ran.
    for stage in ["frame_parse", "cache_lookup", "admission_wait", "run", "render"] {
        assert!(m.get("latency").unwrap().get(stage).is_some(), "missing stage {stage}");
    }
    let runs = m.get("latency").unwrap().get("run").unwrap();
    assert_eq!(runs.get("count").unwrap().as_u64(), Some(2));

    // The per-suite FTRACE-style breakdown counts executions.
    let suites = m.get("suites").unwrap();
    assert_eq!(suites.get("shallow").unwrap().get("runs").unwrap().as_u64(), Some(1));
    assert!(suites.get("shallow").unwrap().get("avg_stretch").unwrap().as_f64().unwrap() >= 1.0);

    // Gauges exist (levels, so values depend on timing; names must not).
    let gauges = m.get("gauges").unwrap();
    for g in [
        "admission_waiting",
        "admission_running",
        "admission_stretch",
        "pool_queue_depth",
        "pool_busy_workers",
        "cache_entries",
    ] {
        assert!(gauges.get(g).is_some(), "missing gauge {g}");
    }
    shut_down(&addr, handle);
}

#[test]
fn flood_coalesces_identical_submits_and_reconciles_metrics() {
    // One suite, many simultaneous clients: the barrier-synchronized first
    // wave must coalesce onto a single run rather than run 8 times.
    let (addr, handle) = spawn_daemon(toy_registry());
    let outcome = flood(&FloodConfig {
        addr: addr.clone(),
        clients: 8,
        jobs: 64,
        suites: vec!["herd".into()],
        machine: "sx4-9.2".into(),
        pipeline: 1,
    })
    .unwrap();
    assert!(outcome.ok(), "flood problems: {:?}", outcome.problems);
    assert!(outcome.reconciled, "metrics snapshot must reconcile");
    assert!(outcome.coalesced > 0, "simultaneous identical submits must coalesce");

    // Exactly one simulation ran for the single unique configuration.
    let mut client = Client::connect(&addr).unwrap();
    let m = client.metrics().unwrap();
    let herd = m.get("suites").unwrap().get("herd").unwrap();
    assert_eq!(herd.get("runs").unwrap().as_u64(), Some(1));
    shut_down(&addr, handle);
}

#[test]
fn concurrent_identical_submits_from_shared_registry_are_safe() {
    // Several clients racing the same config: all succeed, later ones hit.
    let (addr, handle) = spawn_daemon(toy_registry());
    let addr = Arc::new(addr);
    let mut joins = Vec::new();
    for _ in 0..4 {
        let addr = Arc::clone(&addr);
        joins.push(std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            for _ in 0..4 {
                c.submit("shallow", "sx4", &BTreeMap::new()).unwrap();
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let mut c = Client::connect(&addr).unwrap();
    let stats = c.stats().unwrap();
    let cache = stats.get("cache").unwrap();
    assert!(cache.get("hits").unwrap().as_u64().unwrap() > 0);
    shut_down(&addr, handle);
}
