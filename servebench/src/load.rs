//! The three workloads — what each connection sends, in which seeded
//! order — and the closed-loop window that times them through the public
//! `sxd::Client`.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use ncar_suite::SmallRng;
use sxd::{Client, Submission};

use crate::trace::{Span, Tracer};

/// The eight served suites every workload draws on: `table6` and `ftrace`
/// run the climate layer, `pop` the ocean layer, the other five the
/// kernels and the sxsim charging layer.
pub const SUITES: [&str; 8] =
    ["table6", "ftrace", "table3", "fig6", "fig7", "radabs", "proginf", "pop"];

/// Machine every submit names.
pub const MACHINE: &str = "sx4-9.2";

/// A single-lane window moves to the next CPU at its first cycle boundary
/// this long after the last move (see [`WindowConfig::cpus`]).
pub const MOVE_EVERY: Duration = Duration::from_secs(1);

/// In a traced run the window alternates untraced and traced slices of
/// this length, so the tracing overhead is measured on interleaved time.
pub const TRACE_SLICE: Duration = Duration::from_millis(100);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HotPipelined,
    RoutedSerial,
    ColdMix,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::HotPipelined, Workload::RoutedSerial, Workload::ColdMix];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotPipelined => "hot_pipelined",
            Workload::RoutedSerial => "routed_serial",
            Workload::ColdMix => "cold_mix",
        }
    }

    /// `ncar-bench serve` flags beyond `--addr`.
    pub fn serve_args(self, state_dir: Option<&Path>) -> Vec<String> {
        match self {
            Workload::HotPipelined => vec!["--pipeline-depth".into(), "8".into()],
            Workload::RoutedSerial => vec!["--cluster".into(), "3".into()],
            Workload::ColdMix => vec![
                "--cache-cap".into(),
                "2".into(),
                "--state-dir".into(),
                state_dir.expect("cold_mix needs a state dir").display().to_string(),
            ],
        }
    }

    /// Whether set-up primes all eight configs into the cache.
    pub fn primed(self) -> bool {
        self != Workload::ColdMix
    }

    /// Connections that carry load. The daemon and the benchmark share one
    /// CPU, so on the CPU-bound workloads a second closed loop would only
    /// make each round trip wait on the other's at the scheduler's whim;
    /// `routed_serial` is timed by the delayed ACK, not the CPU, and keeps
    /// two.
    pub fn lanes(self) -> usize {
        match self {
            Workload::RoutedSerial => 2,
            Workload::HotPipelined | Workload::ColdMix => 1,
        }
    }

    /// Each lane's request plan for `seed`: a seeded order of the eight
    /// suites. `cold_mix`'s lane keeps its order for the whole window and
    /// sends [`COLD_TWICE`] a second time, four places after the first
    /// (see [`cold_cycle`]).
    pub fn plans(self, seed: u64) -> Vec<Plan> {
        (0..self.lanes())
            .map(|lane| {
                let mut rng = SmallRng::seed_from_u64(
                    seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(lane as u64 + 1)),
                );
                let mut cycle: Vec<usize> = (0..SUITES.len()).collect();
                rng.shuffle(&mut cycle);
                if self == Workload::ColdMix {
                    cycle = cold_cycle(&cycle);
                }
                Plan {
                    cycle,
                    pipelined: self == Workload::HotPipelined,
                    one_write: self == Workload::ColdMix,
                    rng,
                }
            })
            .collect()
    }
}

/// The suite `cold_mix` sends twice per cycle: `fig6`, the quickest.
pub const COLD_TWICE: usize = 3;

/// `cold_mix`'s cycle from a permutation of the eight suites: the other
/// seven in their permuted order, with [`COLD_TWICE`] before the first and
/// after the third. Nine submits per cycle put the median inside one
/// suite's run of samples, not on the edge between two (with eight, it
/// would be the slowest sample of the fourth-quickest suite). The two
/// `fig6` submits have three and four others between them, and any other
/// suite seven: every submit misses the two-entry cache.
pub fn cold_cycle(order: &[usize]) -> Vec<usize> {
    let rest: Vec<usize> = order.iter().copied().filter(|&s| s != COLD_TWICE).collect();
    let mut cycle = vec![COLD_TWICE];
    cycle.extend_from_slice(&rest[..3]);
    cycle.push(COLD_TWICE);
    cycle.extend_from_slice(&rest[3..]);
    cycle
}

/// One lane's request sequence. A serial lane repeats its seeded cycle;
/// a pipelined lane sends each cycle as one batch, re-permuted per batch.
pub struct Plan {
    pub cycle: Vec<usize>,
    pub pipelined: bool,
    /// Serial submits leave in one write ([`submit_once`]) rather than
    /// through [`Client::submit`]'s two.
    pub one_write: bool,
    rng: SmallRng,
}

impl Plan {
    fn next_cycle(&mut self) -> &[usize] {
        if self.pipelined {
            self.rng.shuffle(&mut self.cycle);
        }
        &self.cycle
    }
}

/// The result object of a submit reply: the bytes after `"result":`.
pub fn payload(raw: &str) -> Result<&str, String> {
    let at = raw.find(",\"result\":").ok_or("submit reply lacks a result")?;
    raw[at + 10..].strip_suffix('}').ok_or_else(|| "submit reply is not an object".into())
}

/// A payload without its `sim_seconds` and `stretch` members, which carry
/// the contention stretch of whatever ran beside the job and so vary with
/// the interleaving of concurrent misses. What remains is the run's result.
pub fn stable(payload: &str) -> String {
    match (payload.find("\"sim_seconds\":"), payload.find("\"artifacts\":")) {
        (Some(a), Some(b)) if a < b => format!("{}{}", &payload[..a], &payload[b..]),
        _ => payload.to_string(),
    }
}

fn one(suite: usize) -> [(String, String, BTreeMap<String, String>); 1] {
    [(SUITES[suite].to_string(), MACHINE.to_string(), BTreeMap::new())]
}

/// Submit `suite` in one write (a pipelined batch of one), so the request
/// does not wait on the split-write delayed ACK that [`Client::submit`]
/// meets. Set-up priming, `cold_mix` and the router-hop probes use it.
pub fn submit_once(client: &mut Client, suite: usize) -> Result<Submission, String> {
    let mut subs = client.submit_pipelined(&one(suite)).map_err(|e| e.to_string())?;
    subs.pop().ok_or_else(|| "empty pipelined reply".into())
}

/// Prime every suite once, serially, into a fresh daemon. Returns each
/// suite's payload, the reference every later reply must equal.
pub fn prime(addr: &str) -> Result<Vec<String>, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut payloads = Vec::with_capacity(SUITES.len());
    for (suite, name) in SUITES.iter().enumerate() {
        let sub = submit_once(&mut client, suite)?;
        if sub.cached {
            return Err(format!("priming {name} hit a cache that should be empty"));
        }
        payloads.push(payload(&sub.raw)?.to_string());
    }
    Ok(payloads)
}

/// Send one cycle of `plan` untimed, each submit in one write, so the
/// window does not time the daemon's first run of each suite. Returns how
/// many replies were cached (none should be, on `cold_mix`).
pub fn warm_up(addr: &str, plan: &Plan) -> Result<usize, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut cached = 0;
    for &suite in &plan.cycle {
        cached += usize::from(submit_once(&mut client, suite)?.cached);
    }
    Ok(cached)
}

/// One submit as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub suite: usize,
    /// Seconds from the lane's start to the submit's send.
    pub start: f64,
    /// Round trip in seconds; infinite for a failed submit, which misses
    /// any latency limit.
    pub latency: f64,
    pub traced: bool,
}

/// What one connection did during the window.
pub struct Lane {
    pub samples: Vec<Sample>,
    pub attempted: usize,
    pub failed: usize,
    pub completed: usize,
    /// Replies the daemon marked `cached`.
    pub cached: usize,
    pub reply_bytes: u64,
    pub start: Instant,
    pub end: Instant,
    /// Failures and reply mismatches, in order.
    pub errors: Vec<String>,
    /// Each suite's first stable payload this lane saw.
    pub stable: BTreeMap<usize, String>,
    /// The last completed submit (suite, completion time).
    pub last: Option<(usize, Instant)>,
    pub spans: Vec<Span>,
}

/// How the window runs.
pub struct WindowConfig<'a> {
    pub addr: &'a str,
    /// Minimum measured time; lanes stop at their first cycle boundary
    /// past it once `min_samples` submits have completed.
    pub seconds: f64,
    pub min_samples: usize,
    /// Alternate untraced and traced slices (see [`TRACE_SLICE`]).
    pub trace: bool,
    pub epoch: Instant,
    /// CPUs a single-lane window moves between, daemon and client
    /// together, at cycle boundaries [`MOVE_EVERY`] apart; with fewer than
    /// two it stays. On a shared guest each vCPU's speed follows whatever
    /// else runs on its host core, for minutes at a time and independently
    /// of the other vCPU, so a CPU-bound window held on one vCPU measures
    /// that vCPU's luck.
    pub cpus: &'a [usize],
    /// The daemon process that moves with the lane.
    pub daemon_pid: u32,
    /// Full payload each suite must reply with (from priming); `None` for
    /// `cold_mix`, whose lanes compare stable payloads to their first.
    pub reference: Option<&'a [String]>,
}

/// The timed window: the lanes cross a barrier, then run closed loops.
pub fn run_window(cfg: &WindowConfig, plans: Vec<Plan>) -> Vec<Lane> {
    let barrier = Barrier::new(plans.len());
    let completed = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = plans
            .into_iter()
            .enumerate()
            .map(|(i, plan)| {
                let (barrier, completed) = (&barrier, &completed);
                s.spawn(move || run_lane(cfg, i as u64 + 1, plan, barrier, completed))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a load lane panicked")).collect()
    })
}

fn run_lane(
    cfg: &WindowConfig,
    lane_id: u64,
    mut plan: Plan,
    barrier: &Barrier,
    completed: &AtomicUsize,
) -> Lane {
    let connected = Client::connect(cfg.addr);
    barrier.wait();
    let start = Instant::now();
    let mut lane = Lane {
        samples: Vec::new(),
        attempted: 0,
        failed: 0,
        completed: 0,
        cached: 0,
        reply_bytes: 0,
        start,
        end: start,
        errors: Vec::new(),
        stable: BTreeMap::new(),
        last: None,
        spans: Vec::new(),
    };
    let mut client = match connected {
        Ok(c) => c,
        Err(e) => {
            lane.attempted = 1;
            let sample = Sample { suite: plan.cycle[0], start: 0.0, latency: 0.0, traced: false };
            lane.fail([sample], format!("connect: {e}"));
            return lane;
        }
    };
    let mut tracer = Tracer::new(cfg.trace, cfg.epoch, lane_id);
    let window = tracer.open(start);
    let deadline = start + Duration::from_secs_f64(cfg.seconds);
    let slice = TRACE_SLICE.as_secs_f64();
    let mut req = lane_id << 40;
    let lines: Vec<String> = (0..SUITES.len())
        .map(|s| {
            let (suite, machine, params) = one(s)[0].clone();
            sxd::Request::Submit { suite, machine, params }.to_line()
        })
        .collect();
    let (mut moves, mut moved) = (0, None::<Instant>);
    'window: loop {
        if Instant::now() >= deadline && completed.load(Ordering::SeqCst) >= cfg.min_samples {
            break;
        }
        if cfg.cpus.len() > 1 && moved.is_none_or(|t| t.elapsed() >= MOVE_EVERY) {
            let cpu = cfg.cpus[moves % cfg.cpus.len()];
            if let Err(e) = crate::host::move_to(cfg.daemon_pid, cpu) {
                lane.errors.push(format!("moving to cpu {cpu}: {e}"));
                break;
            }
            (moves, moved) = (moves + 1, Some(Instant::now()));
        }
        let cycle = plan.next_cycle().to_vec();
        if plan.pipelined {
            let batch: Vec<String> = cycle.iter().map(|&s| lines[s].clone()).collect();
            let t0 = Instant::now();
            let at = (t0 - start).as_secs_f64();
            let traced = cfg.trace && (at / slice) as u64 % 2 == 1;
            tracer.set(traced);
            req += 1;
            let (res, _) =
                tracer.span("client.raw_pipelined", window.0, req, || client.raw_pipelined(&batch));
            let latency = t0.elapsed().as_secs_f64();
            lane.attempted += batch.len();
            let sample = |suite| Sample { suite, start: at, latency, traced };
            let replies = match res {
                Ok(replies) => replies,
                Err(e) => {
                    lane.fail(cycle.iter().map(|&s| sample(s)), format!("pipelined batch: {e}"));
                    break 'window;
                }
            };
            let mut refused = false;
            for (&suite, raw) in cycle.iter().zip(&replies) {
                if raw.starts_with("{\"ok\":true,") {
                    let cached = raw.starts_with("{\"ok\":true,\"cached\":true,");
                    lane.record(cfg, sample(suite), raw, cached);
                    completed.fetch_add(1, Ordering::SeqCst);
                } else {
                    lane.fail([sample(suite)], format!("{} replied {raw}", SUITES[suite]));
                    refused = true;
                }
            }
            if refused {
                break 'window;
            }
        } else {
            let params = BTreeMap::new();
            for &suite in &cycle {
                let t0 = Instant::now();
                let at = (t0 - start).as_secs_f64();
                let traced = cfg.trace && (at / slice) as u64 % 2 == 1;
                tracer.set(traced);
                req += 1;
                let (res, _) = if plan.one_write {
                    tracer.span("client.submit_once", window.0, req, || {
                        submit_once(&mut client, suite)
                    })
                } else {
                    tracer.span("client.submit", window.0, req, || {
                        client.submit(SUITES[suite], MACHINE, &params).map_err(|e| e.to_string())
                    })
                };
                let latency = t0.elapsed().as_secs_f64();
                lane.attempted += 1;
                let sample = Sample { suite, start: at, latency, traced };
                match res {
                    Ok(sub) => {
                        lane.record(cfg, sample, &sub.raw, sub.cached);
                        completed.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(e) => {
                        lane.fail([sample], format!("submit {}: {e}", SUITES[suite]));
                        break 'window;
                    }
                }
            }
        }
    }
    lane.end = Instant::now();
    tracer.set(cfg.trace);
    tracer.close(window, "window.lane", crate::trace::ROOT);
    lane.spans = tracer.spans;
    lane
}

impl Lane {
    fn record(&mut self, cfg: &WindowConfig, sample: Sample, raw: &str, cached: bool) {
        let suite = sample.suite;
        self.completed += 1;
        self.cached += usize::from(cached);
        self.reply_bytes += raw.len() as u64;
        self.samples.push(sample);
        self.last = Some((suite, Instant::now()));
        let got = match payload(raw) {
            Ok(p) => p,
            Err(e) => return self.errors.push(format!("{}: {e}", SUITES[suite])),
        };
        let same = match cfg.reference {
            Some(reference) => got == reference[suite],
            None => {
                let got = stable(got);
                self.stable.entry(suite).or_insert_with(|| got.clone()) == &got
            }
        };
        if !same {
            self.errors.push(format!(
                "{} replied with bytes that differ from its first reply",
                SUITES[suite]
            ));
        }
    }

    /// Count `samples` as failed: infinite latency, missing any limit.
    fn fail(&mut self, samples: impl IntoIterator<Item = Sample>, error: String) {
        for sample in samples {
            self.failed += 1;
            self.samples.push(Sample { latency: f64::INFINITY, ..sample });
        }
        self.errors.push(error);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_permute_cycles_but_keep_their_contents() {
        let a = Workload::RoutedSerial.plans(1);
        let b = Workload::RoutedSerial.plans(1);
        let c = Workload::RoutedSerial.plans(2);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].cycle, b[0].cycle, "same seed, same order");
        assert_ne!(a[0].cycle, a[1].cycle, "lanes draw distinct streams");
        assert_ne!((&a[0].cycle, &a[1].cycle), (&c[0].cycle, &c[1].cycle));
        for p in a.iter().chain(&c) {
            let mut s = p.cycle.clone();
            s.sort();
            assert_eq!(s, (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn hot_batches_are_fresh_permutations_of_all_eight() {
        let mut plans = Workload::HotPipelined.plans(5);
        assert_eq!(plans.len(), 1);
        let first = plans[0].next_cycle().to_vec();
        let second = plans[0].next_cycle().to_vec();
        assert_ne!(first, second);
        let mut s = second.clone();
        s.sort();
        assert_eq!(s, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn the_cold_lane_keeps_its_order_and_no_suite_recurs_within_the_cache() {
        let mut plans = Workload::ColdMix.plans(3);
        assert_eq!(plans.len(), 1);
        let first = plans[0].next_cycle().to_vec();
        assert_eq!(plans[0].next_cycle(), first.as_slice());
        assert_ne!(Workload::ColdMix.plans(4)[0].cycle, first, "the seed picks the order");
        assert_eq!(first.len(), 9);
        let mut s = first.clone();
        s.sort();
        s.dedup();
        assert_eq!(s, (0..8).collect::<Vec<_>>());
        // Repeated forever, every submit has at least two distinct others
        // since its suite last ran, so a two-entry cache never holds it.
        let stream: Vec<usize> = first.iter().cycle().take(3 * first.len()).copied().collect();
        for (i, suite) in stream.iter().enumerate().skip(first.len()) {
            let last = stream[..i].iter().rposition(|x| x == suite).unwrap();
            let mut between = stream[last + 1..i].to_vec();
            between.sort();
            between.dedup();
            assert!(between.len() >= 2, "{suite} recurs at {i} after {between:?}");
        }
    }

    #[test]
    fn payload_and_stable_cut_exactly() {
        let raw = "{\"ok\":true,\"cached\":false,\"key\":\"00\",\"result\":{\"suite\":\"x\",\
                   \"sim_seconds\":30.5,\"stretch\":1.01,\"artifacts\":[1],\"rendered\":\"r\"}}";
        let p = payload(raw).unwrap();
        assert_eq!(p, "{\"suite\":\"x\",\"sim_seconds\":30.5,\"stretch\":1.01,\"artifacts\":[1],\"rendered\":\"r\"}");
        assert_eq!(stable(p), "{\"suite\":\"x\",\"artifacts\":[1],\"rendered\":\"r\"}");
        assert!(payload("{\"ok\":false}").is_err());
    }
}
