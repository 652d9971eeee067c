//! One benchmark run: set the daemon up (several times, for a median),
//! drive one timed window, read the daemon's deltas, check the gates and
//! compute every metric. A traced run adds the direct layer calls.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ncar_suite::Json;
use sxd::Client;

use crate::daemon::{self, Daemon};
use crate::gates::{self, Observed};
use crate::host::{self, CpuTimes};
use crate::layers;
use crate::load::{self, Lane, WindowConfig, Workload, SUITES, TRACE_SLICE};
use crate::stats::{median, percentile, ratio, tail_quantile, Delta};
use crate::trace::{write_spans, Tracer};

/// Boots on each side of the window; `setup_s` is the median of all
/// their times. A boot, spawn until the first STATS reply, takes
/// milliseconds; half of them run after the window, so the median spans
/// the run rather than its first second.
const BOOTS: usize = 10;

/// On the primed workloads, the last this many boots before the window
/// are also primed; `peak_rss_mb` is the median over them,
/// `setup.prime_s` the median of their priming times.
const PRIMED: usize = 3;

/// Submits a window completes at least, so that p90 has ten beyond it.
pub const MIN_SAMPLES: usize = 100;

/// Rounds of router-hop probes over the probe keys.
const HOP_ROUNDS: usize = 25;

/// Values that must read the same on every run, on every host.
const INVARIANTS: &str = include_str!("../invariants.txt");

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args =
            Args { workload: Workload::HotPipelined, seed: 1, seconds: 10.0, trace: false };
        let mut workload = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|_| bad())?;
                    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        args.workload =
            workload.ok_or("--workload is required (hot_pipelined, routed_serial, cold_mix)")?;
        Ok(args)
    }
}

/// One metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// Every gate violation; empty when the run is correct.
    pub violations: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Steal share of host CPU time during the window.
    pub steal_share: f64,
}

/// The daemon after set-up, with what set-up learned.
struct Ready {
    daemon: Daemon,
    /// Each suite's payload from priming (primed workloads only).
    reference: Option<Vec<String>>,
    /// Spawn until the first STATS reply, per boot.
    setup_s: Vec<f64>,
    /// Time to prime the eight configs, per primed boot.
    prime_s: Vec<f64>,
    /// Peak RSS of each primed daemon set-up stopped, in MiB.
    primed_rss_mb: Vec<f64>,
    state_dir: Option<PathBuf>,
}

/// Spawn a daemon for `w` and wait for its first STATS reply. Returns the
/// daemon, how long that took, and its fresh state dir (`cold_mix` only).
fn boot(
    w: Workload,
    bin: &Path,
    out: &Path,
    cpus: &[usize],
    i: usize,
) -> Result<(Daemon, f64, Option<PathBuf>), String> {
    // Boots take turns on the allowed CPUs, so the median spans them (see
    // `WindowConfig::cpus`); the daemon inherits the pin.
    host::pin(0, cpus[i % cpus.len()])?;
    let state_dir = (!w.primed()).then(|| out.join(format!("state-{}-{i}", std::process::id())));
    if let Some(dir) = &state_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let t0 = Instant::now();
    let daemon = Daemon::spawn(bin, &w.serve_args(state_dir.as_deref()))?;
    Client::connect(&daemon.addr)
        .and_then(|mut c| c.stats())
        .map_err(|e| format!("first STATS: {e}"))?;
    Ok((daemon, t0.elapsed().as_secs_f64(), state_dir))
}

/// Shut a daemon down and remove its state dir.
fn retire(daemon: Daemon, state_dir: Option<PathBuf>) -> Result<(), String> {
    daemon.stop()?;
    if let Some(dir) = &state_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok(())
}

fn set_up(
    w: Workload,
    bin: &Path,
    out: &Path,
    cpus: &[usize],
    violations: &mut Vec<String>,
) -> Result<Ready, String> {
    let mut setup_s = Vec::with_capacity(2 * BOOTS);
    let mut prime_s = Vec::new();
    let mut primed_rss_mb = Vec::new();
    let mut first_reference: Option<Vec<String>> = None;
    for i in 0..BOOTS {
        let (daemon, took, state_dir) = boot(w, bin, out, cpus, i)?;
        setup_s.push(took);
        let primed = w.primed() && i + PRIMED >= BOOTS;
        let reference = if primed {
            let t0 = Instant::now();
            let reference = load::prime(&daemon.addr)?;
            prime_s.push(t0.elapsed().as_secs_f64());
            Some(reference)
        } else {
            None
        };
        let metrics = Client::connect(&daemon.addr)
            .and_then(|mut c| c.metrics())
            .map_err(|e| e.to_string())?;
        if let Err(e) = gates::reconciled(&metrics, "after set-up") {
            violations.push(e);
        }
        match (&first_reference, &reference) {
            (None, Some(r)) => first_reference = Some(r.clone()),
            (Some(a), Some(b)) if a != b => {
                violations.push("priming replies differ between daemons".into())
            }
            _ => {}
        }
        if i + 1 == BOOTS {
            return Ok(Ready { daemon, reference, setup_s, prime_s, primed_rss_mb, state_dir });
        }
        if primed {
            primed_rss_mb.push(daemon.peak_rss_mb()?);
        }
        retire(daemon, state_dir)?;
    }
    unreachable!("the loop returns on its last boot")
}

/// Time spent in untraced and traced slices of a lane that ran `d` seconds.
pub fn slice_split(d: f64, slice: f64) -> (f64, f64) {
    let whole = (d / slice).floor();
    let rest = d - whole * slice;
    let pairs = (whole / 2.0).floor();
    let (mut untraced, mut traced) = (pairs * slice, pairs * slice);
    if whole as u64 % 2 == 1 {
        untraced += slice;
        traced += rest;
    } else {
        untraced += rest;
    }
    (untraced, traced)
}

/// Parse `name value` lines of the invariants file.
fn invariants() -> BTreeMap<&'static str, &'static str> {
    INVARIANTS
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.trim(), v.trim()))
        .collect()
}

fn check_invariant(violations: &mut Vec<String>, name: &str, got: f64) {
    let want = invariants().get(name).and_then(|v| v.parse::<f64>().ok());
    match want {
        Some(w) if w.to_bits() == got.to_bits() => {}
        Some(w) => violations.push(format!("invariant {name} moved: {got:?}, expected {w:?}")),
        None => {
            violations.push(format!("invariant {name} is not in invariants.txt (measured {got:?})"))
        }
    }
}

/// Run `args` against the daemon binary `bin`, on `cpus`, the CPUs the
/// caller may use out of the host's `nproc`.
pub fn run(args: &Args, bin: &Path, cpus: &[usize], nproc: usize) -> Result<Outcome, String> {
    let w = args.workload;
    let out = daemon::target_dir().join("servebench");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let epoch = Instant::now();
    let mut violations = Vec::new();
    let ready = set_up(w, bin, &out, cpus, &mut violations)?;
    let addr = ready.daemon.addr.clone();
    let mut observer = Client::connect(&addr).map_err(|e| e.to_string())?;

    // Placement of every key, and each member's done count, for the router.
    let mut owners: Vec<String> = vec![addr.clone(); SUITES.len()];
    let mut keys_per_member = Vec::new();
    if w == Workload::RoutedSerial {
        keys_per_member = vec![0; ready.daemon.members.len()];
        for (suite, owner) in SUITES.iter().zip(owners.iter_mut()) {
            let route = observer
                .route(suite, load::MACHINE, &BTreeMap::new())
                .map_err(|e| e.to_string())?;
            let m =
                route.get("member").and_then(Json::as_u64).ok_or("route reply lacks a member")?
                    as usize;
            *keys_per_member.get_mut(m).ok_or("route names an unknown member")? += 1;
            *owner = ready.daemon.members[m].clone();
        }
    }
    let member_done = |members: &[String]| -> Result<Vec<u64>, String> {
        members
            .iter()
            .map(|m| {
                let stats =
                    Client::connect(m).and_then(|mut c| c.stats()).map_err(|e| e.to_string())?;
                Ok(stats.get("done").and_then(Json::as_u64).unwrap_or(0))
            })
            .collect()
    };

    let plans = w.plans(args.seed);
    if w == Workload::ColdMix {
        let hits = load::warm_up(&addr, &plans[0])?;
        if hits > 0 {
            violations.push(format!("cold_mix warm-up hit the cache {hits} times"));
        }
    }
    let cfg = WindowConfig {
        addr: &addr,
        seconds: args.seconds,
        min_samples: MIN_SAMPLES,
        trace: args.trace,
        epoch,
        // Two lanes stay where the last boot left them, with the daemon.
        cpus: if plans.len() == 1 { cpus } else { &[] },
        daemon_pid: ready.daemon.pid(),
        reference: ready.reference.as_deref(),
    };
    let done_before = member_done(&ready.daemon.members)?;
    let before = observer.metrics().map_err(|e| e.to_string())?;
    let stat0 = CpuTimes::now("cpu");
    let lanes = load::run_window(&cfg, plans);
    let stat1 = CpuTimes::now("cpu");

    let after = observer.metrics().map_err(|e| e.to_string())?;
    if let Err(e) = gates::reconciled(&after, "after the window") {
        violations.push(e);
    }
    let done_after = member_done(&ready.daemon.members)?;
    // A primed daemon's peak is set while priming, and which worker
    // threads the runs land on moves it by a few MiB: report the median
    // over every primed daemon of the run.
    let mut rss = ready.primed_rss_mb.clone();
    rss.push(ready.daemon.peak_rss_mb()?);
    let peak_rss_mb = median(&rss);
    // A broken reply repeats on every submit of its key: report each
    // distinct failure once, with how often it happened.
    let mut errors: BTreeMap<&str, usize> = BTreeMap::new();
    for e in lanes.iter().flat_map(|l| &l.errors) {
        *errors.entry(e).or_default() += 1;
    }
    violations.extend(errors.into_iter().map(|(e, n)| format!("{e} ({n} times)")));

    let d = Delta { before: &before, after: &after };
    let observed = Observed::new(&lanes, &d, keys_per_member)?;
    violations.extend(gates::shape(w, &observed));

    // Each suite's stable payload: from priming, or the window's first.
    let mut stable: BTreeMap<usize, String> = BTreeMap::new();
    match &ready.reference {
        Some(reference) => stable.extend(reference.iter().map(|p| load::stable(p)).enumerate()),
        None => lanes.iter().for_each(|l| stable.extend(l.stable.clone())),
    }
    for (suite, name) in SUITES.iter().enumerate() {
        match stable.get(&suite) {
            Some(p) => check_invariant(
                &mut violations,
                &format!("suite.{name}.reply_bytes"),
                p.len() as f64,
            ),
            None => violations.push(format!("no reply from {name} in the window")),
        }
    }

    let attempted: usize = lanes.iter().map(|l| l.attempted).sum();
    let failed: usize = lanes.iter().map(|l| l.failed).sum();
    let start = lanes.iter().map(|l| l.start).min().expect("a lane");
    let end = lanes.iter().map(|l| l.end).max().expect("a lane");
    let wall = (end - start).as_secs_f64();
    let mut lat: Vec<f64> =
        lanes.iter().flat_map(|l| l.samples.iter().map(|s| s.latency * 1e6)).collect();
    lat.sort_by(f64::total_cmp);
    if tail_quantile(lat.len()).is_none_or(|q| q < 0.90) {
        violations.push(format!("{} samples leave fewer than ten beyond p90", lat.len()));
    }

    // The second half of the boots, after the window (untraced runs only:
    // setup_s is an end-to-end metric).
    let mut setup_s = ready.setup_s.clone();
    if !args.trace {
        for i in BOOTS..2 * BOOTS {
            let (daemon, took, state_dir) = boot(w, bin, &out, cpus, i)?;
            setup_s.push(took);
            retire(daemon, state_dir)?;
        }
    }

    let mut metrics = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric { name: name.to_string(), value, unit });
    };
    if !args.trace {
        put("jobs_per_s", ratio(observed.completed as f64, wall), "1/s");
        put("latency_p50_us", percentile(&lat, 0.50), "us");
        put("latency_p90_us", percentile(&lat, 0.90), "us");
        put("setup_s", median(&setup_s), "s");
        put("peak_rss_mb", peak_rss_mb, "MiB");
    } else {
        let mut tracer = Tracer::new(true, epoch, 0);
        let probes: Vec<(usize, String)> = match w {
            Workload::ColdMix => {
                // The last completed miss is still cached: at most one
                // insert (the other lane's last) can have followed it.
                let last = lanes
                    .iter()
                    .filter_map(|l| l.last)
                    .max_by_key(|&(_, t)| t)
                    .ok_or("no submit completed")?;
                vec![(last.0, addr.clone())]
            }
            _ => owners.iter().cloned().enumerate().collect(),
        };
        let hop_us = layers::router_hop(&mut tracer, &addr, &probes, HOP_ROUNDS)?;
        let member_share_max = if done_before.is_empty() {
            1.0
        } else {
            let per: Vec<u64> = done_after.iter().zip(&done_before).map(|(a, b)| a - b).collect();
            ratio(*per.iter().max().unwrap_or(&0) as f64, per.iter().sum::<u64>() as f64)
        };
        let journal_dir = out.join(format!("journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&journal_dir);
        let fed: Vec<String> = stable.values().cloned().collect();
        let (append_us, compact_us) = layers::journal(&mut tracer, &journal_dir, &fed)?;
        let _ = std::fs::remove_dir_all(&journal_dir);
        let climate = layers::climate(&mut tracer)?;
        let pop_ms = layers::ocean(&mut tracer);
        check_invariant(&mut violations, "sxsim.t42_vector_ops", climate.vector_ops as f64);
        check_invariant(&mut violations, "sxsim.t42_sim_seconds", climate.sim_seconds);

        let ok_lat: Vec<f64> = lat.iter().copied().filter(|x| x.is_finite()).collect();
        let client_mean_us = ok_lat.iter().sum::<f64>() / ok_lat.len().max(1) as f64;
        let reply_bytes: u64 = lanes.iter().map(|l| l.reply_bytes).sum();
        let (mut slices, mut counts) = ((0.0, 0.0), (0usize, 0usize));
        for lane in &lanes {
            let (u, t) =
                slice_split((lane.end - lane.start).as_secs_f64(), TRACE_SLICE.as_secs_f64());
            slices = (slices.0 + u, slices.1 + t);
            for s in lane.samples.iter().filter(|s| s.latency.is_finite()) {
                if s.traced {
                    counts.1 += 1;
                } else {
                    counts.0 += 1;
                }
            }
        }
        let (untraced_rate, traced_rate) =
            (ratio(counts.0 as f64, slices.0), ratio(counts.1 as f64, slices.1));
        let job = d.hist("job")?;
        let done = observed.done as f64;
        let journal_compactions = d.count(&["stats", "journal", "compactions"])? as f64;

        put("client.offserver_us_mean", client_mean_us - d.mean("job")? * 1e6, "us");
        put(
            "client.reply_bytes_mean",
            ratio(reply_bytes as f64, observed.completed as f64),
            "bytes",
        );
        put("reactor.frame_parse_us_mean", d.mean_or_lifetime("frame_parse")? * 1e6, "us");
        put("reactor.flush_batch_mean", d.mean_or_lifetime("flush_batch")?, "count");
        put("server.fastpath_share", ratio(observed.fastpath_hits as f64, done), "ratio");
        put("server.fastpath_us_mean", d.mean_or_lifetime("fastpath")? * 1e6, "us");
        put("server.job_us_p50", job.p50() * 1e6, "us");
        put("server.admission_wait_us_mean", d.mean_or_lifetime("admission_wait")? * 1e6, "us");
        put("server.run_ms_mean", d.mean_or_lifetime("run")? * 1e3, "ms");
        put("server.render_us_mean", d.mean_or_lifetime("render")? * 1e6, "us");
        put(
            "cache.hit_ratio",
            ratio(observed.hits as f64, (observed.hits + observed.misses) as f64),
            "ratio",
        );
        put(
            "cache.evictions_per_job",
            ratio(d.count(&["stats", "cache", "evictions"])? as f64, done),
            "ratio",
        );
        put("journal.compactions_per_job", ratio(journal_compactions, done), "ratio");
        put("journal.append_us_mean", append_us, "us");
        put("journal.compact_us_mean", compact_us, "us");
        put("router.hop_us_p50", hop_us, "us");
        put("router.member_share_max", member_share_max, "ratio");
        for (suite, name) in SUITES.iter().enumerate() {
            let mut v: Vec<f64> = lanes
                .iter()
                .flat_map(|l| {
                    l.samples.iter().filter(|s| s.suite == suite).map(|s| s.latency * 1e6)
                })
                .collect();
            v.sort_by(f64::total_cmp);
            put(&format!("suite.{name}.latency_p50_us"), percentile(&v, 0.5), "us");
        }
        for (suite, name) in SUITES.iter().enumerate() {
            put(
                &format!("suite.{name}.reply_bytes"),
                stable.get(&suite).map_or(0, String::len) as f64,
                "bytes",
            );
        }
        put("setup.prime_s", median(&ready.prime_s), "s");
        put("climate.t42_new_ms", climate.new_ms, "ms");
        put("climate.t42_step_ms", climate.step_ms, "ms");
        put("climate.t42_replay_ms", climate.replay_ms, "ms");
        put("ocean.pop_step_ms", pop_ms, "ms");
        put("sxsim.t42_vector_ops", climate.vector_ops as f64, "count");
        put("sxsim.t42_sim_seconds", climate.sim_seconds, "s");
        put("host.nproc", nproc as f64, "count");
        put("host.steal_share", stat0.steal_share(&stat1), "ratio");
        put("trace.overhead_pct", ratio(untraced_rate - traced_rate, untraced_rate) * 100.0, "%");

        let mut spans: Vec<_> = lanes.into_iter().flat_map(|l: Lane| l.spans).collect();
        spans.extend(tracer.spans);
        let path = out.join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
        write_spans(&path, &mut spans).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("servebench: {} spans written to {}", spans.len(), path.display());
    }

    retire(ready.daemon, ready.state_dir)?;
    for m in &metrics {
        if !m.value.is_finite() {
            violations.push(format!("metric {} is not finite", m.name));
        }
    }
    Ok(Outcome { attempted, failed, violations, metrics, steal_share: stat0.steal_share(&stat1) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_alternate_starting_untraced() {
        assert_eq!(slice_split(0.25, 0.5), (0.25, 0.0));
        assert_eq!(slice_split(0.75, 0.5), (0.5, 0.25));
        assert_eq!(slice_split(1.25, 0.5), (0.75, 0.5));
        assert_eq!(slice_split(2.0, 0.5), (1.0, 1.0));
    }

    #[test]
    fn flags_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = Args::parse(&argv("--workload cold_mix --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::ColdMix, 7, 12.0, true));
        assert!(Args::parse(&argv("--seed 7")).is_err());
        assert!(Args::parse(&argv("--workload warm")).is_err());
        assert!(Args::parse(&argv("--workload cold_mix --trace 2")).is_err());
        assert!(Args::parse(&argv("--workload cold_mix --seconds 0")).is_err());
        assert!(Args::parse(&argv("--workload cold_mix --seed")).is_err());
    }

    #[test]
    fn invariants_file_names_every_suite() {
        let inv = invariants();
        for s in SUITES {
            assert!(inv.contains_key(format!("suite.{s}.reply_bytes").as_str()), "{s}");
        }
        assert!(inv.contains_key("sxsim.t42_vector_ops"));
        assert!(inv.contains_key("sxsim.t42_sim_seconds"));
    }
}
