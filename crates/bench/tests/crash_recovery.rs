//! Kill-and-restart crash tests against the real `ncar-bench serve`
//! binary: SIGKILL mid-service, then — behind the `faults` feature — a
//! crash injected at every registered fault point. After each crash the
//! daemon must come back with no cache corruption (replayed results are
//! byte-identical), no double-counted jobs, and counters that reconcile.
//! One more test drives each client subcommand of the CLI against a
//! served cluster.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::Receiver;
use std::time::Duration;
#[cfg(feature = "faults")]
use std::time::Instant;

use ncar_suite::Json;
use sxd::Client;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sxd-crash-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct Daemon {
    child: Child,
    addr: String,
    /// The stdout lines printed after the listening address.
    stdout: Receiver<String>,
}

/// A test that panics before reaping its daemon must not leave it serving.
impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawn the real binary on an ephemeral port, optionally with a fault
/// point armed, and wait for it to report its listening address.
fn spawn_daemon(state_dir: &Path, extra: &[&str], fault: Option<&str>) -> Daemon {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ncar-bench"));
    cmd.arg("serve")
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--state-dir")
        .arg(state_dir)
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    match fault {
        Some(point) => {
            cmd.env("SXD_FAULTPOINT", point);
        }
        None => {
            cmd.env_remove("SXD_FAULTPOINT");
        }
    }
    let mut child = cmd.spawn().expect("spawn ncar-bench serve");
    let stdout = child.stdout.take().unwrap();
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        match lines.next() {
            Some(Ok(line)) => {
                if let Some(a) = line.strip_prefix("sxd listening on ") {
                    break a.to_string();
                }
            }
            _ => panic!("daemon exited before reporting a listening address"),
        }
    };
    // Keep draining stdout so the daemon can never block on a full pipe.
    let (tx, stdout) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for line in lines.map_while(Result::ok) {
            let _ = tx.send(line);
        }
    });
    Daemon { child, addr, stdout }
}

/// Run `ncar-bench <args> --addr <addr>`, require exit 0, return stdout.
fn cli(addr: &str, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ncar-bench"))
        .args(args)
        .args(["--addr", addr])
        .output()
        .expect("run ncar-bench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "ncar-bench {args:?} failed: {stderr}");
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

fn tagged(tag: &str) -> BTreeMap<String, String> {
    let mut p = BTreeMap::new();
    p.insert("tag".to_string(), tag.to_string());
    p
}

fn assert_reconciled(stats: &Json) {
    let n = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or(0);
    assert_eq!(
        n("accepted"),
        n("done") + n("rejected") + n("queued") + n("running"),
        "counters must reconcile: {stats}"
    );
}

#[test]
fn sigkill_then_restart_serves_prior_results_byte_identically() {
    let dir = scratch("sigkill");
    let mut d = spawn_daemon(&dir, &[], None);
    let mut client = Client::connect(&d.addr).unwrap();
    let mut runs = Vec::new();
    for (suite, tag) in [("radabs", "a"), ("table3", "b"), ("radabs", "c")] {
        let sub = client.submit(suite, "sx4-9.2", &tagged(tag)).unwrap();
        assert!(!sub.cached);
        runs.push((suite, tag, sub.raw));
    }
    assert!(client.submit("radabs", "sx4-9.2", &tagged("a")).unwrap().cached);
    // SIGKILL: no drain, no compaction — only the write-ahead appends.
    d.child.kill().unwrap();
    d.child.wait().unwrap();

    let mut d = spawn_daemon(&dir, &[], None);
    let mut client = Client::connect(&d.addr).unwrap();
    for (suite, tag, raw) in &runs {
        let sub = client.submit(suite, "sx4-9.2", &tagged(tag)).unwrap();
        assert!(sub.cached, "{suite}/{tag} must be served from the replayed journal");
        assert_eq!(&sub.raw, &raw.replace("\"cached\":false", "\"cached\":true"));
    }
    let stats = client.stats().unwrap();
    let journal = stats.get("journal").expect("journal stats");
    assert_eq!(journal.get("replayed").unwrap().as_u64(), Some(3));
    assert_eq!(journal.get("truncated_bytes").unwrap().as_u64(), Some(0));
    assert_reconciled(&stats);
    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.get("reconciled").and_then(Json::as_bool), Some(true), "{metrics}");
    client.shutdown().unwrap();
    assert!(d.child.wait().unwrap().success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every client subcommand against `serve --cluster 3`: each exits 0 and
/// prints what a script would look for. The typed checks behind these
/// lines live in the `sxd` tests; this pins the CLI glue around them.
#[test]
fn cli_subcommands_drive_a_served_cluster() {
    let dir = scratch("cli");
    let mut d = spawn_daemon(&dir, &["--cluster", "3"], None);
    let banner = d.stdout.recv_timeout(Duration::from_secs(30)).expect("cluster banner");
    assert!(banner.starts_with("sxd cluster: 3 shards on "), "{banner}");
    let addr = d.addr.clone();

    let first = cli(&addr, &["submit", "radabs", "--json", "true"]);
    let second = cli(&addr, &["submit", "radabs", "--json", "true"]);
    assert!(first.contains("\"cached\":false"), "{first}");
    assert_eq!(second, first.replace("\"cached\":false", "\"cached\":true"));

    let garbage = cli(&addr, &["raw", "not json at all"]);
    assert!(garbage.starts_with("{\"ok\":false,\"error\":{\"kind\":\"bad_json\""), "{garbage}");

    let routed = cli(&addr, &["submit", "radabs", "--show-route", "true"]);
    assert!(routed.starts_with("route: member="), "{routed}");

    let flooded = cli(&addr, &["flood", "--clients", "4", "--jobs", "24"]);
    assert!(flooded.contains("flood: all acceptance checks passed"), "{flooded}");
    let metrics = cli(&addr, &["metrics", "--json", "true"]);
    assert!(metrics.contains("\"reconciled\":true"), "{metrics}");
    // Both FTRACE-style tables: per-stage latency and per-suite runs.
    let rendered = cli(&addr, &["metrics"]);
    assert_eq!(rendered.matches("FTRACE ANALYSIS LIST").count(), 2, "{rendered}");
    assert!(rendered.contains("P50(us)") && rendered.contains("AVG.STRETCH"), "{rendered}");

    let drained = cli(&addr, &["drain", "--member", "0", "--deadline", "5"]);
    assert!(drained.starts_with("sxd drained member 0"), "{drained}");
    let stats = cli(&addr, &["stats"]);
    assert!(stats.contains("\"members_alive\":2"), "{stats}");

    assert!(cli(&addr, &["shutdown"]).starts_with("sxd acknowledged shutdown"));
    assert!(d.child.wait().unwrap().success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// An armed `journal.append` IO fault (the `:io` flavour) must degrade
/// durability, not service: the submit still completes and the daemon
/// counts the failed append.
#[cfg(feature = "faults")]
#[test]
fn append_io_fault_degrades_durability_not_service() {
    let dir = scratch("append-io");
    let mut d = spawn_daemon(&dir, &[], Some("journal.append:io"));
    let mut client = Client::connect(&d.addr).unwrap();
    let sub = client.submit("radabs", "sx4-9.2", &tagged("io")).unwrap();
    assert!(!sub.cached);
    // Same boot: served from the in-memory cache despite the failed append.
    assert!(client.submit("radabs", "sx4-9.2", &tagged("io")).unwrap().cached);
    let stats = client.stats().unwrap();
    let io_errors = stats.get("journal").unwrap().get("io_errors").unwrap().as_u64();
    assert_eq!(io_errors, Some(1), "the failed append must be counted");
    assert_reconciled(&stats);
    client.shutdown().unwrap();
    assert!(d.child.wait().unwrap().success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash at every registered fault point, restart, and audit the
/// recovered state. Each point gets the scenario that actually reaches
/// it; a point this match does not know is a test failure, so the
/// registry and this audit can never drift apart.
#[cfg(feature = "faults")]
#[test]
fn crash_at_every_fault_point_recovers_cleanly() {
    for &point in sxd::faultpoint::FAULT_POINTS {
        match point {
            "journal.append" | "journal.append.torn" => crash_during_append(point),
            "journal.compact.write" | "journal.compact.rename" => crash_during_compaction(point),
            "drain.persist" => crash_during_drain_persist(point),
            other => panic!("fault point {other:?} has no crash scenario in this test"),
        }
    }
}

/// A result completed before the crash must survive it; the result whose
/// append crashed was never acknowledged, so it may simply be recomputed.
#[cfg(feature = "faults")]
fn crash_during_append(point: &str) {
    let dir = scratch(&format!("fault-{}", point.replace('.', "-")));
    // Clean prelude boot: one durable keeper result.
    let mut d = spawn_daemon(&dir, &[], None);
    let mut client = Client::connect(&d.addr).unwrap();
    let keeper = client.submit("radabs", "sx4-9.2", &tagged("keeper")).unwrap();
    client.shutdown().unwrap();
    assert!(d.child.wait().unwrap().success());

    // Faulted boot: the victim submit crashes the daemon mid-append.
    let mut d = spawn_daemon(&dir, &[], Some(point));
    let mut client = Client::connect(&d.addr).unwrap();
    let err = client.submit("radabs", "sx4-9.2", &tagged("victim"));
    assert!(err.is_err(), "{point}: the crash must sever the victim's connection");
    assert!(!d.child.wait().unwrap().success(), "{point}: the daemon must have aborted");

    // Recovery boot: keeper intact and byte-identical, victim recomputable.
    let mut d = spawn_daemon(&dir, &[], None);
    let mut client = Client::connect(&d.addr).unwrap();
    let again = client.submit("radabs", "sx4-9.2", &tagged("keeper")).unwrap();
    assert!(again.cached, "{point}: the pre-crash result must survive");
    assert_eq!(again.raw, keeper.raw.replace("\"cached\":false", "\"cached\":true"));
    let victim = client.submit("radabs", "sx4-9.2", &tagged("victim")).unwrap();
    assert!(!victim.cached, "{point}: the unacknowledged victim was never persisted");
    let stats = client.stats().unwrap();
    let journal = stats.get("journal").unwrap();
    assert_eq!(journal.get("replayed").unwrap().as_u64(), Some(1), "{point}");
    let truncated = journal.get("truncated_bytes").unwrap().as_u64().unwrap();
    if point == "journal.append.torn" {
        assert!(truncated > 0, "{point}: the torn half-record must be truncated, got 0");
    } else {
        assert_eq!(truncated, 0, "{point}: crash fires before any bytes hit the file");
    }
    assert_reconciled(&stats);
    client.shutdown().unwrap();
    assert!(d.child.wait().unwrap().success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash inside compaction (tmp write or the final rename) must leave
/// the pre-compaction journal authoritative: every append replays.
#[cfg(feature = "faults")]
fn crash_during_compaction(point: &str) {
    let dir = scratch(&format!("fault-{}", point.replace('.', "-")));
    // cache-cap 1 arms the compaction trigger at 8 appends; the 8th
    // submit's append trips compaction, which crashes at the fault point.
    let mut d = spawn_daemon(&dir, &["--cache-cap", "1"], Some(point));
    let mut client = Client::connect(&d.addr).unwrap();
    for i in 0..7 {
        let sub = client.submit("radabs", "sx4-9.2", &tagged(&format!("c{i}"))).unwrap();
        assert!(!sub.cached);
    }
    let err = client.submit("radabs", "sx4-9.2", &tagged("c7"));
    assert!(err.is_err(), "{point}: the 8th append must trip the crashing compaction");
    assert!(!d.child.wait().unwrap().success(), "{point}: the daemon must have aborted");

    // Recovery: all 8 appends replay (the 8th hit the journal before its
    // compaction crashed); the stale tmp is discarded, never trusted.
    let mut d = spawn_daemon(&dir, &["--cache-cap", "1"], None);
    let mut client = Client::connect(&d.addr).unwrap();
    let stats = client.stats().unwrap();
    let journal = stats.get("journal").unwrap();
    assert_eq!(journal.get("replayed").unwrap().as_u64(), Some(8), "{point}");
    assert_eq!(journal.get("truncated_bytes").unwrap().as_u64(), Some(0), "{point}");
    // Cap 1 keeps only the most recent replayed entry.
    assert!(client.submit("radabs", "sx4-9.2", &tagged("c7")).unwrap().cached, "{point}");
    assert_reconciled(&client.stats().unwrap());
    client.shutdown().unwrap();
    assert!(d.child.wait().unwrap().success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash while persisting drain checkpoints must not fabricate restart
/// work: the specs never became durable, the straggler's client saw its
/// connection die unacknowledged, and the next boot starts clean.
#[cfg(feature = "faults")]
fn crash_during_drain_persist(point: &str) {
    let dir = scratch("fault-drain-persist");
    let mut d = spawn_daemon(&dir, &[], Some(point));
    let addr = d.addr.clone();
    let straggler = std::thread::spawn(move || {
        let mut c = Client::connect(&addr).unwrap();
        c.submit("fig5", "sx4-9.2", &BTreeMap::new())
    });
    // Wait until the job is observably in flight before draining.
    let mut observer = Client::connect(&d.addr).unwrap();
    let t0 = Instant::now();
    loop {
        let stats = observer.stats().unwrap();
        let n = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or(0);
        if n("running") + n("queued") >= 1 {
            break;
        }
        assert!(t0.elapsed() < Duration::from_secs(10), "{point}: job never reached the daemon");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Zero deadline: the running job is a straggler immediately, and
    // persisting its restart spec crashes at the fault point. The drain
    // reply races the abort, so either outcome is acceptable.
    let _ = Client::connect(&d.addr).unwrap().drain(Some(0));
    assert!(straggler.join().unwrap().is_err(), "{point}: the straggler saw the crash");
    assert!(!d.child.wait().unwrap().success(), "{point}: the daemon must have aborted");

    // Recovery: no restart specs were fabricated from the torn persist.
    assert!(sxd::journal::load_restart_specs(&dir).is_empty(), "{point}");
    let mut d = spawn_daemon(&dir, &[], None);
    let mut client = Client::connect(&d.addr).unwrap();
    let sub = client.submit("fig5", "sx4-9.2", &BTreeMap::new()).unwrap();
    assert!(!sub.cached, "{point}: the un-acknowledged job must recompute, not double-count");
    assert_reconciled(&client.stats().unwrap());
    client.shutdown().unwrap();
    assert!(d.child.wait().unwrap().success());
    let _ = std::fs::remove_dir_all(&dir);
}
