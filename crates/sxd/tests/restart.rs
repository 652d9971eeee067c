//! Durability tests over real TCP: journal replay across restarts, drain
//! checkpointing, and the frame-cap boundary contract between client and
//! server. (The kill -9 crash tests live in `ncar-bench`'s
//! `crash_recovery` suite, which spawns the real binary; these tests
//! restart the server in-process.)

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ncar_suite::{Artifact, Json, Registry};
use sxd::journal::load_restart_specs;
use sxd::{Client, Demand, JobEntry, Request, Server, ServerConfig, SxdError, MAX_REQUEST_FRAME};
use sxsim::presets;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sxd-restart-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn toy_registry(slow_ms: u64) -> Registry<JobEntry> {
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
        "slow",
        JobEntry::new(Demand::light(3.0), "deliberately slow", move |_m, _p| {
            std::thread::sleep(Duration::from_millis(slow_ms));
            Ok(vec![Artifact::Scalar { title: "slow".into(), value: 1.0, unit: "u".into() }])
        }),
    );
    r
}

fn spawn_durable(registry: Registry<JobEntry>, dir: &Path) -> (String, JoinHandle<()>) {
    let config = ServerConfig { state_dir: Some(dir.to_path_buf()), ..ServerConfig::default() };
    let server = Server::bind(registry, config).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("daemon run"));
    (addr, handle)
}

#[test]
fn journal_replays_results_byte_identically_across_restart() {
    let dir = scratch("replay");
    let mut params = BTreeMap::new();
    params.insert("n".to_string(), "96".to_string());

    // Boot 1: run two configurations, remember their exact reply bytes.
    let (addr, handle) = spawn_durable(toy_registry(1), &dir);
    let mut client = Client::connect(&addr).unwrap();
    let first = client.submit("shallow", "sx4-9.2", &params).unwrap();
    let plain = client.submit("shallow", "sx4-9.2", &BTreeMap::new()).unwrap();
    assert!(!first.cached && !plain.cached);
    client.shutdown().unwrap();
    handle.join().unwrap();

    // Boot 2, same state dir: both configurations answer from the
    // replayed journal — cached, and byte-identical to the original runs.
    let (addr, handle) = spawn_durable(toy_registry(1), &dir);
    let mut client = Client::connect(&addr).unwrap();
    let again = client.submit("shallow", "sx4-9.2", &params).unwrap();
    assert!(again.cached, "replayed journal must serve the repeat from cache");
    assert_eq!(again.raw, first.raw.replace("\"cached\":false", "\"cached\":true"));
    let again2 = client.submit("shallow", "sx4-9.2", &BTreeMap::new()).unwrap();
    assert!(again2.cached);
    assert_eq!(again2.raw, plain.raw.replace("\"cached\":false", "\"cached\":true"));

    // The stats surface the journal's recovery accounting.
    let stats = client.stats().unwrap();
    let journal = stats.get("journal").expect("durable daemon must report journal stats");
    assert_eq!(journal.get("replayed").unwrap().as_u64(), Some(2));
    assert_eq!(journal.get("truncated_bytes").unwrap().as_u64(), Some(0));
    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_checkpoints_stragglers_and_the_next_boot_completes_them() {
    let dir = scratch("drain");

    // Boot 1: a slow job is mid-run when a zero-deadline drain arrives.
    let (addr, handle) = spawn_durable(toy_registry(400), &dir);
    let submit_addr = addr.clone();
    let straggler = std::thread::spawn(move || {
        let mut c = Client::connect(&submit_addr).unwrap();
        c.submit("slow", "sx4-9.2", &BTreeMap::new())
    });
    std::thread::sleep(Duration::from_millis(120)); // let it reach running
    Client::connect(&addr).unwrap().drain(Some(0)).unwrap();

    // The straggler's client gets the typed checkpointed error: its work
    // is persisted, not lost, and will not also be served this boot.
    let err = straggler.join().unwrap().unwrap_err();
    assert!(matches!(&err, SxdError::Remote { kind, .. } if kind == "checkpointed"), "{err}");
    handle.join().unwrap();

    // The restart spec survived the shutdown, naming the machine as the
    // request spelled it, so the next boot can resolve it.
    let specs = load_restart_specs(&dir);
    assert_eq!(specs.len(), 1, "exactly the one straggler was checkpointed");
    assert_eq!(specs[0].suite, "slow");
    assert!(presets::by_name(&specs[0].machine).is_some(), "{:?}", specs[0].machine);

    // Boot 2: the spec is re-admitted on its own. Nobody submits until the
    // spec file is cleared, so only the re-admission can have run the job.
    let (addr, handle) = spawn_durable(toy_registry(50), &dir);
    let t0 = Instant::now();
    while !load_restart_specs(&dir).is_empty() {
        assert!(t0.elapsed() < Duration::from_secs(10), "readmission never cleared the spec");
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut client = Client::connect(&addr).unwrap();
    let stats = client.stats().unwrap();
    let n = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap();
    assert_eq!(n("done"), 1, "the readmitted job ran to completion: {stats}");
    assert_eq!(n("bad_requests"), 0, "the readmitted spec resolved: {stats}");
    assert_eq!(n("accepted"), n("done") + n("rejected") + n("queued") + n("running"));

    // The first client submit hits the readmitted run's result, and it is
    // byte for byte what a fresh run of the same configuration replies.
    let sub = client.submit("slow", "sx4-9.2", &BTreeMap::new()).unwrap();
    assert!(sub.cached, "the readmitted run must have cached its result");
    let fresh = Server::bind(toy_registry(1), ServerConfig::default()).unwrap();
    let fresh_addr = fresh.local_addr().to_string();
    let fresh_handle = std::thread::spawn(move || fresh.run().expect("fresh daemon run"));
    let mut fresh_client = Client::connect(&fresh_addr).unwrap();
    let want = fresh_client.submit("slow", "sx4-9.2", &BTreeMap::new()).unwrap();
    assert!(!want.cached);
    assert_eq!(sub.raw, want.raw.replace("\"cached\":false", "\"cached\":true"));
    fresh_client.shutdown().unwrap();
    fresh_handle.join().unwrap();

    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn frame_cap_boundary_agrees_between_client_and_server() {
    let dir = scratch("boundary");
    let (addr, handle) = spawn_durable(toy_registry(1), &dir);
    let mut client = Client::connect(&addr).unwrap();

    // Build a submit line of exactly MAX_REQUEST_FRAME bytes by sizing a
    // padding parameter to the byte.
    let line_len = |pad: usize| {
        let mut params = BTreeMap::new();
        params.insert("pad".to_string(), "a".repeat(pad));
        Request::Submit { suite: "shallow".into(), machine: "sx4-9.2".into(), params }
            .to_line()
            .len()
    };
    let base = line_len(0);
    let pad_exact = MAX_REQUEST_FRAME - base;
    assert_eq!(line_len(pad_exact), MAX_REQUEST_FRAME);

    // Exactly at the cap: accepted end to end.
    let mut params = BTreeMap::new();
    params.insert("pad".to_string(), "a".repeat(pad_exact));
    let sub = client.submit("shallow", "sx4-9.2", &params).unwrap();
    assert!(!sub.cached);

    // One byte past the cap: rejected before a byte is sent, with the
    // same kind the server would use — and the connection stays usable.
    params.insert("pad".to_string(), "a".repeat(pad_exact + 1));
    let err = client.submit("shallow", "sx4-9.2", &params).unwrap_err();
    assert!(
        matches!(err, SxdError::FrameTooLong { len, max }
            if len == MAX_REQUEST_FRAME + 1 && max == MAX_REQUEST_FRAME),
        "{err}"
    );
    assert!(!client.submit("shallow", "sx4-9.2", &BTreeMap::new()).unwrap().key.is_empty());

    // The server enforces the identical boundary on a raw oversized line
    // (no newline reaches it within the cap): typed reply, then close.
    let mut hostile = Client::connect(&addr).unwrap();
    let reply = hostile.raw(&"y".repeat(MAX_REQUEST_FRAME + 1)).unwrap();
    let doc = Json::parse(&reply).unwrap();
    assert_eq!(doc.get("error").unwrap().get("kind").unwrap().as_str(), Some("frame_too_long"));

    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
