//! The serving subcommands: `serve`, `submit`, `stats`, `shutdown`,
//! `drain`, `flood` and `raw` — the client/daemon face of the harness
//! (see the `sxd` crate for the protocol itself).
//!
//! Every experiment of the batch CLI is also a servable suite. Each gets
//! an NQS [`Demand`] sized after what the paper says the workload needs:
//! application runs occupy several processors and real memory for
//! simulated minutes, kernels are one-processor sprints.

use std::collections::BTreeMap;
use std::time::Duration;

use ncar_suite::{Json, Registry};
use sxsim::{render_analysis_list, FtraceRow};

use crate::Experiment;
use sxd::cluster::{spawn as spawn_cluster, ClusterConfig};
use sxd::{flood, Client, Demand, FloodConfig, JobEntry, Server, ServerConfig};

/// Default daemon endpoint when `--addr` is not given.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7464";

/// NQS demand for one experiment, sized after the paper's workloads.
fn demand_for(name: &str, solo_seconds: f64) -> Demand {
    match name {
        // Multi-processor application runs: CCM2 scaling, one-year
        // simulations, the ensemble test, MOM, the production mix.
        "fig8" | "table5" | "table6" | "table7" | "multinode" | "prodload" => {
            Demand { procs: 8, memory_bytes: 2 << 30, solo_seconds, bytes_per_cycle_per_proc: 16.0 }
        }
        // I/O and network benchmarks hold a few processors and buffers.
        "pop" | "io" | "hippi" | "network" => {
            Demand { procs: 4, memory_bytes: 1 << 30, solo_seconds, bytes_per_cycle_per_proc: 12.0 }
        }
        // Kernels, accuracy checks and analyses: one processor.
        _ => Demand::light(solo_seconds),
    }
}

/// Simulated solo wall seconds charged per suite (what the paper reports
/// where it reports one; modest placeholders elsewhere).
fn solo_seconds_for(name: &str) -> f64 {
    match name {
        "prodload" => 5608.0, // 93 minutes 28 seconds (§4.6)
        "table5" => 3600.0,   // one-year CCM2 simulations with history I/O
        "table6" => 900.0,    // ensemble test, 8 concurrent copies
        "fig8" | "table7" | "multinode" => 600.0,
        "pop" | "io" | "hippi" | "network" => 120.0,
        _ => 30.0,
    }
}

/// Wrap the batch experiments as servable suites.
pub fn registry(experiments: &[Experiment]) -> Registry<JobEntry> {
    let mut reg = Registry::new();
    for (name, desc, runner) in experiments {
        let runner = *runner;
        reg.register(
            *name,
            JobEntry::new(
                demand_for(name, solo_seconds_for(name)),
                *desc,
                move |_machine, _params| Ok(runner()),
            ),
        );
    }
    reg
}

/// Tiny flag parser: `--key value` pairs plus positionals.
struct Args {
    flags: Vec<(String, String)>,
    positionals: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut positionals = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = it.next().ok_or_else(|| format!("flag --{key} needs a value"))?.clone();
                flags.push((key.to_string(), value));
            } else {
                positionals.push(a.clone());
            }
        }
        Ok(Args { flags, positionals })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} wants a number, got {v:?}")),
        }
    }

    fn get_f64(&self, key: &str) -> Result<Option<f64>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{key} wants seconds as a number, got {v:?}")),
        }
    }

    fn params(&self) -> BTreeMap<String, String> {
        let mut out = BTreeMap::new();
        for (k, v) in &self.flags {
            if k == "param" {
                match v.split_once('=') {
                    Some((pk, pv)) => out.insert(pk.to_string(), pv.to_string()),
                    None => out.insert(v.clone(), "true".to_string()),
                };
            }
        }
        out
    }

    fn addr(&self) -> String {
        self.get("addr").unwrap_or(DEFAULT_ADDR).to_string()
    }
}

fn fail(detail: &str) -> i32 {
    eprintln!("error: {detail}");
    1
}

/// `ncar-bench serve [--addr A] [--workers N] [--cache-cap N]
/// [--admit-timeout SECS] [--state-dir DIR] [--drain-deadline SECS]
/// [--idle-timeout SECS] [--dispatchers N] [--pipeline-depth K]
/// [--cluster N]`
///
/// `--idle-timeout SECS` bounds how long a silent connection may hold a
/// socket before the reactor closes it (counted under `conns.idle_closed`
/// in STATS); `0` disables the bound. The reactor thread classifies every
/// frame once, answering cache hits, STATS and typed errors inline;
/// `--dispatchers N` sizes the pool that finishes the rest (`0` auto-sizes
/// from the worker count).
///
/// `--pipeline-depth K` lets each connection keep up to K decoded frames
/// in flight at once (default 1, strictly serial); replies always come
/// back in request order either way.
///
/// With `--cluster N` (N ≥ 2) the public address is a rendezvous-hash
/// router in front of N shard daemons on ephemeral loopback ports; every
/// other flag configures each member. `--state-dir DIR` becomes the
/// cluster state root (member `i` journals under `DIR/shard-i`).
pub fn cmd_serve(args: &[String], experiments: &[Experiment]) -> i32 {
    let args = match Args::parse(args) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let mut config = ServerConfig { addr: args.addr(), ..ServerConfig::default() };
    config.workers = match args.get_usize("workers", config.workers) {
        Ok(n) => n,
        Err(e) => return fail(&e),
    };
    config.cache_cap = match args.get_usize("cache-cap", config.cache_cap) {
        Ok(n) => n,
        Err(e) => return fail(&e),
    };
    match args.get_f64("admit-timeout") {
        Ok(Some(secs)) if secs > 0.0 => config.admit_timeout = Duration::from_secs_f64(secs),
        Ok(Some(_)) => return fail("--admit-timeout wants a positive number of seconds"),
        Ok(None) => {}
        Err(e) => return fail(&e),
    }
    // --state-dir turns on the durable journal: results survive restarts,
    // and a drain past its deadline checkpoints stragglers there.
    if let Some(dir) = args.get("state-dir") {
        config.state_dir = Some(std::path::PathBuf::from(dir));
    }
    match args.get_f64("drain-deadline") {
        Ok(Some(secs)) if secs >= 0.0 => config.drain_deadline = Duration::from_secs_f64(secs),
        Ok(Some(_)) => return fail("--drain-deadline wants a non-negative number of seconds"),
        Ok(None) => {}
        Err(e) => return fail(&e),
    }
    match args.get_f64("idle-timeout") {
        Ok(Some(0.0)) => config.idle_timeout = None,
        Ok(Some(secs)) if secs > 0.0 => config.idle_timeout = Some(Duration::from_secs_f64(secs)),
        Ok(Some(_)) => return fail("--idle-timeout wants a non-negative number of seconds"),
        Ok(None) => {}
        Err(e) => return fail(&e),
    }
    config.dispatchers = match args.get_usize("dispatchers", config.dispatchers) {
        Ok(n) => n,
        Err(e) => return fail(&e),
    };
    config.pipeline_depth = match args.get_usize("pipeline-depth", config.pipeline_depth) {
        Ok(0) => return fail("--pipeline-depth wants at least 1"),
        Ok(n) => n,
        Err(e) => return fail(&e),
    };
    let shards = match args.get_usize("cluster", 1) {
        Ok(n) => n,
        Err(e) => return fail(&e),
    };
    if shards > 1 {
        let cluster_config = ClusterConfig {
            shards,
            addr: config.addr.clone(),
            state_dir: config.state_dir.take(),
            server: config,
        };
        let cluster = match spawn_cluster(registry(experiments), cluster_config) {
            Ok(c) => c,
            Err(e) => return fail(&e.to_string()),
        };
        println!("sxd listening on {}", cluster.addr());
        let members: Vec<String> = cluster.member_addrs().iter().map(|a| a.to_string()).collect();
        println!("sxd cluster: {shards} shards on {}", members.join(" "));
        return match cluster.join() {
            Ok(()) => {
                println!("sxd cluster drained; exiting");
                0
            }
            Err(e) => fail(&e.to_string()),
        };
    }
    let server = match Server::bind(registry(experiments), config) {
        Ok(s) => s,
        Err(e) => return fail(&e.to_string()),
    };
    println!("sxd listening on {}", server.local_addr());
    match server.run() {
        Ok(()) => {
            println!("sxd drained; exiting");
            0
        }
        Err(e) => fail(&e.to_string()),
    }
}

/// `ncar-bench submit <suite> [--addr A] [--machine M] [--param k=v]...
/// [--json j] [--show-route true] [--pipeline N]`
///
/// `--show-route true` first asks the endpoint which shard owns the
/// configuration (the cluster `route` verb) and prints the placement
/// before submitting. Against a single daemon the route probe reports
/// that the endpoint is not a router and the submit proceeds anyway.
///
/// `--pipeline N` sends the same submit N times in one pipelined batch —
/// all N frames leave before the first reply is read, and each reply is
/// verified to be the one its request hashes to (strict order). Handy for
/// watching a cold entry warm up: reply 0 says `cached=false`, the rest
/// `cached=true`.
pub fn cmd_submit(args: &[String]) -> i32 {
    let args = match Args::parse(args) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let Some(suite) = args.positionals.first() else {
        return fail("submit needs a suite name (try `ncar-bench list`)");
    };
    let machine = args.get("machine").unwrap_or("sx4-9.2");
    let mut client = match Client::connect(&args.addr()) {
        Ok(c) => c,
        Err(e) => return fail(&e.to_string()),
    };
    if args.get("show-route") == Some("true") {
        match client.route(suite, machine, &args.params()) {
            Ok(route) => {
                let member = route.get("member").and_then(Json::as_u64).unwrap_or(0);
                let shard = route.get("shard").and_then(Json::as_str).unwrap_or("?");
                let key = route.get("key").and_then(Json::as_str).unwrap_or("?");
                println!("route: member={member} shard={shard} key={key}");
            }
            Err(e) => println!("route: unavailable ({e})"),
        }
    }
    let pipeline = match args.get_usize("pipeline", 1) {
        Ok(n) => n,
        Err(e) => return fail(&e),
    };
    if pipeline > 1 {
        let batch: Vec<_> = (0..pipeline)
            .map(|_| (suite.to_string(), machine.to_string(), args.params()))
            .collect();
        return match client.submit_pipelined(&batch) {
            Ok(subs) => {
                for (i, sub) in subs.iter().enumerate() {
                    if args.get("json") == Some("true") {
                        println!("{}", sub.raw);
                    } else {
                        println!("reply {i}: key={} cached={}", sub.key, sub.cached);
                    }
                }
                0
            }
            Err(e) => fail(&e.to_string()),
        };
    }
    match client.submit(suite, machine, &args.params()) {
        Ok(sub) => {
            if args.get("json") == Some("true") {
                println!("{}", sub.raw);
            } else {
                println!("key={} cached={}", sub.key, sub.cached);
                if let Some(rendered) =
                    sub.result.get("rendered").and_then(ncar_suite::Json::as_str)
                {
                    print!("{rendered}");
                }
            }
            0
        }
        Err(e) => fail(&e.to_string()),
    }
}

/// `ncar-bench stats [--addr A]`
pub fn cmd_stats(args: &[String]) -> i32 {
    let args = match Args::parse(args) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let mut client = match Client::connect(&args.addr()) {
        Ok(c) => c,
        Err(e) => return fail(&e.to_string()),
    };
    match client.stats() {
        Ok(stats) => {
            println!("{stats}");
            0
        }
        Err(e) => fail(&e.to_string()),
    }
}

/// Render one metrics snapshot the way SUPER-UX renders FTRACE: a stats
/// summary line, the gauges, a per-stage latency analysis list (quantiles
/// in microseconds) and the per-suite simulated-seconds breakdown.
fn render_metrics(m: &Json) -> String {
    let mut out = String::new();
    let stats = m.get("stats").cloned().unwrap_or(Json::Null);
    let n = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or(0);
    let reconciled = m.get("reconciled").and_then(Json::as_bool).unwrap_or(false);
    out.push_str(&format!(
        "jobs: accepted={} done={} rejected={} queued={} running={} \
         coalesced={} bad_requests={}  reconciled={}\n",
        n("accepted"),
        n("done"),
        n("rejected"),
        n("queued"),
        n("running"),
        n("coalesced"),
        n("bad_requests"),
        reconciled,
    ));
    let cache = stats.get("cache").cloned().unwrap_or(Json::Null);
    let cn = |k: &str| cache.get(k).and_then(Json::as_u64).unwrap_or(0);
    out.push_str(&format!(
        "cache: hits={} misses={} evictions={} entries={}/{}\n",
        cn("hits"),
        cn("misses"),
        cn("evictions"),
        cn("entries"),
        cn("cap"),
    ));
    if let Some(Json::Obj(gauges)) = m.get("gauges") {
        out.push_str("gauges:");
        for (k, v) in gauges {
            out.push_str(&format!(" {k}={}", v.as_f64().unwrap_or(0.0)));
        }
        out.push('\n');
    }

    if let Some(Json::Obj(latency)) = m.get("latency") {
        let us = |h: &Json, k: &str| h.get(k).and_then(Json::as_f64).unwrap_or(0.0) * 1e6;
        let rows: Vec<FtraceRow> = latency
            .iter()
            .map(|(stage, h)| FtraceRow {
                name: stage.clone(),
                calls: h.get("count").and_then(Json::as_u64).unwrap_or(0),
                seconds: h.get("sum").and_then(Json::as_f64).unwrap_or(0.0),
                extra: vec![us(h, "p50"), us(h, "p90"), us(h, "p99")],
            })
            .collect();
        out.push('\n');
        out.push_str(&render_analysis_list(&["P50(us)", "P90(us)", "P99(us)"], rows));
    }

    if let Some(Json::Obj(suites)) = m.get("suites") {
        if !suites.is_empty() {
            let rows: Vec<FtraceRow> = suites
                .iter()
                .map(|(name, s)| FtraceRow {
                    name: name.clone(),
                    calls: s.get("runs").and_then(Json::as_u64).unwrap_or(0),
                    seconds: s.get("sim_seconds").and_then(Json::as_f64).unwrap_or(0.0),
                    extra: vec![s.get("avg_stretch").and_then(Json::as_f64).unwrap_or(0.0)],
                })
                .collect();
            out.push('\n');
            out.push_str(&render_analysis_list(&["AVG.STRETCH"], rows));
        }
    }
    out
}

/// `ncar-bench metrics [--addr A] [--json true] [--watch SECS]`
pub fn cmd_metrics(args: &[String]) -> i32 {
    let args = match Args::parse(args) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let watch = match args.get_f64("watch") {
        Ok(w) => w,
        Err(e) => return fail(&e),
    };
    if watch.is_some_and(|w| w <= 0.0) {
        return fail("--watch wants a positive number of seconds");
    }
    let mut client = match Client::connect(&args.addr()) {
        Ok(c) => c,
        Err(e) => return fail(&e.to_string()),
    };
    loop {
        match client.metrics() {
            Ok(m) => {
                if args.get("json") == Some("true") {
                    println!("{m}");
                } else {
                    print!("{}", render_metrics(&m));
                }
            }
            Err(e) => return fail(&e.to_string()),
        }
        match watch {
            None => return 0,
            Some(secs) => {
                println!();
                std::thread::sleep(Duration::from_secs_f64(secs));
            }
        }
    }
}

/// `ncar-bench shutdown [--addr A]`
pub fn cmd_shutdown(args: &[String]) -> i32 {
    let args = match Args::parse(args) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let mut client = match Client::connect(&args.addr()) {
        Ok(c) => c,
        Err(e) => return fail(&e.to_string()),
    };
    match client.shutdown() {
        Ok(()) => {
            println!("sxd acknowledged shutdown");
            0
        }
        Err(e) => fail(&e.to_string()),
    }
}

/// `ncar-bench drain [--addr A] [--deadline SECS] [--member K]` —
/// graceful drain: the daemon stops admission, gives in-flight jobs the
/// deadline to finish, checkpoints the stragglers to restart specs (when
/// it has a state dir) and exits. Without `--deadline` the server's
/// configured default applies. `--member K` targets a cluster router:
/// only shard K drains, and the router hands its durable keyspace to the
/// ring successors before acknowledging.
pub fn cmd_drain(args: &[String]) -> i32 {
    let args = match Args::parse(args) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let deadline_ms = match args.get_f64("deadline") {
        Ok(Some(secs)) if secs >= 0.0 => Some((secs * 1000.0) as u64),
        Ok(Some(_)) => return fail("--deadline wants a non-negative number of seconds"),
        Ok(None) => None,
        Err(e) => return fail(&e),
    };
    let member = match args.get("member") {
        None => None,
        Some(v) => match v.parse::<usize>() {
            Ok(m) => Some(m),
            Err(_) => return fail(&format!("--member wants a shard index, got {v:?}")),
        },
    };
    let mut client = match Client::connect(&args.addr()) {
        Ok(c) => c,
        Err(e) => return fail(&e.to_string()),
    };
    let drained = match member {
        Some(m) => client.drain_member(m, deadline_ms),
        None => client.drain(deadline_ms),
    };
    match drained {
        Ok(()) => {
            match member {
                Some(m) => println!("sxd drained member {m}; keyspace handed off"),
                None => println!("sxd acknowledged drain"),
            }
            0
        }
        Err(e) => fail(&e.to_string()),
    }
}

/// `ncar-bench raw <line> [--addr A]` — send one raw frame, print the raw
/// reply. The CI smoke test uses this to feed the daemon garbage.
pub fn cmd_raw(args: &[String]) -> i32 {
    let args = match Args::parse(args) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let Some(line) = args.positionals.first() else {
        return fail("raw needs the frame to send as an argument");
    };
    let mut client = match Client::connect(&args.addr()) {
        Ok(c) => c,
        Err(e) => return fail(&e.to_string()),
    };
    match client.raw(line) {
        Ok(reply) => {
            println!("{reply}");
            0
        }
        Err(e) => fail(&e.to_string()),
    }
}

/// `ncar-bench flood [--addr A] [--clients N] [--jobs M] [--suite s]...
/// [--pipeline K] [--cluster N]`
///
/// `--pipeline K` makes each client keep K submits in flight per
/// connection (batched writes, strict in-order reply verification); the
/// summary line reports throughput as jobs/s either way.
///
/// With `--cluster N` the flood stands up an ephemeral in-process
/// N-shard cluster (memory-only members, ephemeral ports), aims the load
/// at its router, and tears it down afterwards — a one-command shard-
/// scaling measurement; `--addr` is ignored. Without it the flood targets
/// an already-running endpoint, daemon or router alike.
pub fn cmd_flood(args: &[String], experiments: &[Experiment]) -> i32 {
    let args = match Args::parse(args) {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    let clients = match args.get_usize("clients", 8) {
        Ok(n) => n,
        Err(e) => return fail(&e),
    };
    let jobs = match args.get_usize("jobs", 64) {
        Ok(n) => n,
        Err(e) => return fail(&e),
    };
    let shards = match args.get_usize("cluster", 0) {
        Ok(n) => n,
        Err(e) => return fail(&e),
    };
    let pipeline = match args.get_usize("pipeline", 1) {
        Ok(n) => n,
        Err(e) => return fail(&e),
    };
    let mut suites: Vec<String> =
        args.flags.iter().filter(|(k, _)| k == "suite").map(|(_, v)| v.clone()).collect();
    if suites.is_empty() {
        // Fast kernel suites by default so the flood measures the daemon.
        suites = vec!["fig5".into(), "radabs".into(), "table3".into()];
    }
    let cluster = if shards > 0 {
        let cluster_config = ClusterConfig {
            shards,
            addr: "127.0.0.1:0".into(),
            state_dir: None,
            server: ServerConfig::default(),
        };
        match spawn_cluster(registry(experiments), cluster_config) {
            Ok(c) => {
                println!("flood: ephemeral {shards}-shard cluster on {}", c.addr());
                Some(c)
            }
            Err(e) => return fail(&e.to_string()),
        }
    } else {
        None
    };
    let config = FloodConfig {
        addr: cluster.as_ref().map_or_else(|| args.addr(), |c| c.addr().to_string()),
        clients,
        jobs,
        suites,
        machine: args.get("machine").unwrap_or("sx4-9.2").to_string(),
        pipeline,
    };
    let flooded = flood(&config);
    if let Some(cluster) = cluster {
        let down = Client::connect(&config.addr)
            .and_then(|mut c| c.shutdown())
            .and_then(|()| cluster.join());
        if let Err(e) = down {
            return fail(&format!("cluster teardown: {e}"));
        }
    }
    match flooded {
        Ok(outcome) => {
            println!(
                "flood: {}/{} jobs completed in {:.3}s ({:.1} jobs/s, pipeline {}), \
                 {} cached replies; cache {}h/{}m; counters accepted={} done={} rejected={} \
                 queued={} running={} coalesced={} fastpath_hits={} reconciled={}",
                outcome.completed,
                outcome.submitted,
                outcome.wall,
                outcome.jobs_per_sec,
                pipeline.max(1),
                outcome.cached_replies,
                outcome.cache_hits,
                outcome.cache_misses,
                outcome.accepted,
                outcome.done,
                outcome.rejected,
                outcome.queued,
                outcome.running,
                outcome.coalesced,
                outcome.fastpath_hits,
                outcome.reconciled,
            );
            if outcome.ok() {
                println!("flood: all acceptance checks passed");
                0
            } else {
                for p in &outcome.problems {
                    eprintln!("flood problem: {p}");
                }
                1
            }
        }
        Err(e) => fail(&e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The eight suites servebench's `cold_mix` workload cycles through.
    const SERVED: [&str; 8] =
        ["table6", "ftrace", "table3", "fig6", "fig7", "radabs", "proginf", "pop"];

    /// A fresh daemon serving the harness registry answers a default
    /// submit of each suite with exactly the reply line pinned in
    /// `tests/golden/served/<suite>.reply`: every byte a client sees, the
    /// cache flag, content key, ledger seconds and rendering included.
    /// To regenerate one on purpose, send that submit to a fresh
    /// `ncar-bench serve` with `ncar-bench raw` and redirect the reply
    /// into the file.
    #[test]
    fn served_replies_match_their_golden_files() {
        let dir =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/served");
        let server = Server::bind(registry(&crate::experiments()), ServerConfig::default())
            .expect("bind an ephemeral port");
        let addr = server.local_addr().to_string();
        let daemon = std::thread::spawn(move || server.run().expect("daemon run"));
        let mut client = Client::connect(&addr).expect("connect");
        let mut moved = Vec::new();
        for suite in SERVED {
            let line = format!(
                "{{\"op\":\"submit\",\"suite\":\"{suite}\",\"machine\":\"sx4-9.2\",\"params\":{{}}}}"
            );
            let got = client.raw(&line).expect("submit reply");
            let want = std::fs::read_to_string(dir.join(format!("{suite}.reply")))
                .expect("golden reply readable");
            if got != want.trim_end_matches('\n') {
                moved.push(format!("{suite}:\nwant {}\ngot  {got}", want.trim_end()));
            }
        }
        client.shutdown().expect("shutdown");
        daemon.join().expect("daemon thread");
        assert!(moved.is_empty(), "served replies moved:\n{}", moved.join("\n"));
    }
}
