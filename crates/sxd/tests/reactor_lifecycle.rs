//! Connection-lifecycle regression tests for the reactor serving loop.
//!
//! Each test pins one of the thread-per-connection era's bugs shut:
//! handler-thread/JoinHandle accumulation under churn, unbounded silent
//! connections (no read deadline), shutdown that only completed after
//! *another* client connected, and fd leakage under a concurrent flood.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ncar_suite::{Artifact, Json, Registry};
use sxd::{flood, Client, Demand, FloodConfig, JobEntry, Server, ServerConfig};

/// One lock for the whole file. The churn and fd tests assert on
/// process-wide `/proc/self` counts, and every test here starts daemons
/// (or a 1000-thread flood) in this same process, so a test that runs
/// beside another measures the other's threads and sockets. Every test
/// holds the lock for its whole body; a failed test's poison is ignored
/// so the rest still run.
static PROCESS_GLOBALS: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    PROCESS_GLOBALS.lock().unwrap_or_else(PoisonError::into_inner)
}

fn toy_registry() -> Registry<JobEntry> {
    let mut r = Registry::new();
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

fn spawn_daemon(config: ServerConfig) -> (String, JoinHandle<()>) {
    let server = Server::bind(toy_registry(), config).expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("daemon run"));
    (addr, handle)
}

/// `Threads:` from /proc/self/status — the whole test process, daemon
/// included, since the daemon runs in-process.
#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

#[cfg(target_os = "linux")]
fn fd_count() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("/proc/self/fd").count()
}

fn conns_stat(stats: &Json, key: &str) -> u64 {
    stats.get("conns").and_then(|c| c.get(key)).and_then(Json::as_u64).unwrap_or(u64::MAX)
}

/// Poll STATS until every connection except the observer's own is closed.
fn await_quiescent(client: &mut Client, deadline: Duration) -> Json {
    let t0 = Instant::now();
    loop {
        let stats = client.stats().expect("stats");
        if conns_stat(&stats, "open") <= 1 {
            return stats;
        }
        assert!(t0.elapsed() < deadline, "connections never quiesced: {stats}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Bugfix regression: `Server::run` used to spawn one handler thread per
/// accepted connection and push every `JoinHandle` into a Vec it only
/// drained at shutdown. 500 connections of churn must leave the process
/// at its baseline thread count, with nothing accumulated — and while
/// 100 of those connections are open *concurrently*, the serving side
/// must not have grown a thread per connection.
#[cfg(target_os = "linux")]
#[test]
fn connection_churn_leaves_no_accumulated_threads_or_handles() {
    let _serial = serialize();
    let (addr, handle) = spawn_daemon(ServerConfig::default());
    let params = BTreeMap::new();

    // Warm up: the reactor and worker pool are fully spun up after one
    // round-trip, so this baseline includes every long-lived thread.
    Client::connect(&addr).unwrap().submit("radabs", "sx4-9.2", &params).unwrap();
    let baseline = thread_count();

    // Phase 1: 100 concurrent connections, all held open mid-session.
    let mut held: Vec<Client> = (0..100).map(|_| Client::connect(&addr).unwrap()).collect();
    for c in &mut held {
        c.submit("radabs", "sx4-9.2", &params).unwrap();
    }
    let during = thread_count();
    assert!(
        during <= baseline + 4,
        "serving 100 open connections grew threads {baseline} -> {during}; \
         the reactor must not be thread-per-connection"
    );
    drop(held);

    // Phase 2: 400 more connections of open/submit/close churn.
    for _ in 0..400 {
        Client::connect(&addr).unwrap().submit("radabs", "sx4-9.2", &params).unwrap();
    }

    let mut observer = Client::connect(&addr).unwrap();
    let stats = await_quiescent(&mut observer, Duration::from_secs(10));
    assert!(conns_stat(&stats, "accepted") >= 501, "all churned connections counted: {stats}");
    let after = thread_count();
    assert!(
        after <= baseline + 2,
        "500-connection churn left thread residue: {baseline} -> {after}"
    );

    drop(observer);
    Client::connect(&addr).unwrap().shutdown().unwrap();
    handle.join().expect("daemon exits");
}

/// Bugfix regression: accepted sockets had no read deadline, so a client
/// that connected and sent nothing — or trickled half a frame and
/// stalled — held its handler forever. The reactor's timeout wheel must
/// close both shapes, count them under `conns.idle_closed`, and keep the
/// job counters reconciled.
#[test]
fn silent_and_slowloris_connections_are_idle_closed() {
    let _serial = serialize();
    let (addr, handle) = spawn_daemon(ServerConfig {
        idle_timeout: Some(Duration::from_millis(150)),
        ..ServerConfig::default()
    });

    let mut silent = TcpStream::connect(&addr).unwrap();
    silent.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut slowloris = TcpStream::connect(&addr).unwrap();
    slowloris.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // Half a frame, no newline: enough bytes to look alive, never a job.
    slowloris.write_all(b"{\"cmd\":\"submit\",").unwrap();

    // Both must be closed server-side (EOF, not a reply, not a hang).
    let mut buf = [0u8; 64];
    assert_eq!(silent.read(&mut buf).expect("idle close, not timeout"), 0);
    assert_eq!(slowloris.read(&mut buf).expect("idle close, not timeout"), 0);

    let mut client = Client::connect(&addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(conns_stat(&stats, "idle_closed"), 2, "both idle shapes counted: {stats}");
    // No phantom jobs: idle closes touch no admission counter, so the
    // reconciliation invariant must hold with everything at zero.
    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.get("reconciled").and_then(Json::as_bool), Some(true), "{metrics}");

    client.shutdown().unwrap();
    handle.join().expect("daemon exits");
}

/// Bugfix regression: `initiate_shutdown` flipped a flag the accept loop
/// only observed after `listener.incoming()` yielded — i.e. after one
/// *more* client happened to connect. Shutdown is now a reactor wake
/// event: with zero other clients in flight it must complete promptly,
/// and the listener must refuse new connections afterwards.
#[test]
fn shutdown_with_zero_inflight_clients_completes_within_deadline() {
    let _serial = serialize();
    let (addr, handle) = spawn_daemon(ServerConfig::default());

    Client::connect(&addr).unwrap().shutdown().unwrap();

    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        handle.join().expect("daemon exits");
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(10))
        .expect("shutdown must not wait for another connection to arrive");
    assert!(TcpStream::connect(&addr).is_err(), "listener must be gone after shutdown");
}

/// FD hygiene under real load: 1000 concurrent connections' worth of
/// flood, then the process file-descriptor count returns to baseline —
/// no leaked sockets on either side — with the counters reconciled.
#[cfg(target_os = "linux")]
#[test]
fn flood_at_1000_connections_returns_fd_count_to_baseline() {
    let _serial = serialize();
    let (addr, handle) = spawn_daemon(ServerConfig::default());
    Client::connect(&addr).unwrap().submit("radabs", "sx4-9.2", &BTreeMap::new()).unwrap();
    let baseline = fd_count();

    let outcome = flood(&FloodConfig {
        addr: addr.clone(),
        clients: 1000,
        jobs: 2000,
        suites: vec!["radabs".into()],
        machine: "sx4-9.2".into(),
        pipeline: 1,
    })
    .expect("flood");
    assert!(outcome.ok(), "flood problems: {:?}", outcome.problems);
    assert!(outcome.reconciled, "counters must reconcile after the flood");

    let mut observer = Client::connect(&addr).unwrap();
    let stats = await_quiescent(&mut observer, Duration::from_secs(30));
    assert!(conns_stat(&stats, "accepted") >= 1000, "{stats}");
    drop(observer);
    // Client sockets are joined and dropped by `flood`; the server side
    // is quiescent; every fd beyond the baseline must be gone.
    let after = fd_count();
    assert!(after <= baseline + 4, "flood leaked file descriptors: {baseline} -> {after}");

    Client::connect(&addr).unwrap().shutdown().unwrap();
    handle.join().expect("daemon exits");
}
