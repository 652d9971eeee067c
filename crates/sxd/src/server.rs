//! The daemon: an epoll-reactor serving loop feeding an NQS-admitted,
//! pool-bounded, cache-fronted job executor.
//!
//! Serving runs on [`ncar_suite::reactor`]: one event-loop thread owns
//! every socket (no thread per connection), decoded frames are dispatched
//! to a bounded dispatcher pool, and replies flush as write-readiness
//! allows. Connection counts are therefore bounded by fds, not stacks;
//! idle clients are closed by the reactor's timeout wheel
//! ([`ServerConfig::idle_timeout`]) and counted in the `conns.idle_closed`
//! stat; shutdown and drain complete by waking the reactor, not by hoping
//! another client connects.
//!
//! Jobs are admitted through the same Resource-Block gate NQS applies on
//! the real machine (paper §2.6.3): a submit that cannot fit its block is
//! *rejected* with a typed error, one that could fit but finds the node
//! busy *waits* (bounded by [`ServerConfig::admit_timeout`]), and admitted
//! jobs run with their simulated time stretched by the memory-contention
//! model of Table 6. Every state transition updates the [`Counters`]
//! inside a single critical section, so the invariant
//! `accepted == done + rejected + queued + running` holds at every
//! instant, not just at quiescence.
//!
//! Concurrent identical submits are *single-flighted*: the first miss for
//! a cache key becomes the leader and runs the job; followers arriving
//! while it is in flight park on its slot and replay the leader's payload
//! (counted in `coalesced`), so a thundering herd of one configuration
//! costs one simulation.
//!
//! Observability mirrors SUPER-UX's own instruments: PROGINF-style job
//! accounting (the counters) and FTRACE-style breakdowns (per-stage
//! latency histograms, the per-suite simulated-seconds table), served by
//! the `METRICS` verb. The `job` histogram is observed inside the same
//! counters critical sections that retire a job, so a METRICS snapshot is
//! internally reconciled: `latency.job.count == done + rejected`, exactly.
//!
//! With [`ServerConfig::state_dir`] set the daemon is *durable*: every
//! completed result is appended to the write-ahead [`crate::journal`] and
//! replayed into the cache on the next boot, so repeat configurations hit
//! the cache — byte-identically — across a crash. The `drain` verb stops
//! admission and lets in-flight jobs finish; past its deadline each
//! straggler's submission — the machine as the request spelled it — is
//! persisted as a restart spec, and the next boot re-admits it as a plain
//! submit (SUPER-UX's NQS checkpoint/restart, paper §2.6.2, taken at
//! fraction zero: a runner reports no progress, so the job reruns whole
//! and its reply matches a fresh run's byte for byte). A checkpointed job
//! retires as `rejected` (kind `checkpointed`), so the counters invariant
//! holds unchanged on both sides of the restart boundary.
//!
//! Lock order, where nested: `inflight` before `cache`, and `journal`
//! before `cache`. Nothing acquires `journal` or `inflight` while holding
//! `cache`, so the hierarchy is acyclic. The `reactor` handle slot is a
//! leaf: it is taken and released in its own scope, never while another
//! named lock is held and never holding one while acquiring another.
//!
//! Each frame takes one request path: [`Daemon::classify`] parses it once
//! on the reactor thread and answers inline whatever cannot block —
//! parse errors, cluster verbs, `stats`, shutting-down refusals, unknown
//! suites and machines, and cache hits. Everything else becomes a [`Job`]
//! that [`Daemon::handle`] finishes on a dispatcher. The inline hit probe
//! takes the same `inflight` -> `cache` pair as a dispatched lookup and
//! `counters` alone to retire, so classifying adds no lock-graph edges;
//! the one caveat is that the `stats` arm reads the `journal` slot and
//! can ride out a concurrent append (bounded file IO, exempted as
//! `sxd.journal.append`). Frames answered inline count `fastpath_hits`
//! and observe the `fastpath` latency histogram.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use ncar_suite::metrics::{Gauge, Histogram, MetricsRegistry};
use ncar_suite::par::lockreg;
use ncar_suite::reactor::{
    Classified, DecodeError, Reactor, ReactorConfig, ReactorHandle, Reply, Service,
};
use ncar_suite::report::{json_escape, json_f64};
use ncar_suite::{plock, plock_named, Artifact, Json, Registry, WorkerPool};
use superux::{Admission, JobSpec};
use sxsim::{presets, MachineModel};

use crate::cache::ResultCache;
use crate::error::SxdError;
use crate::journal::{self, Journal, RestartSpec};
use crate::proto::{cache_key, submit_reply, Request, MAX_REQUEST_FRAME};

/// Worker threads executing simulations. The admission gate always
/// models the benchmarked SX-4's node.
const WORKERS: usize = 4;

/// Grace period a `drain` request without its own `deadline_ms` gives
/// in-flight jobs before checkpointing them.
pub(crate) const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// What one job asks of the node, in NQS Resource-Block terms.
#[derive(Debug, Clone, Copy)]
pub struct Demand {
    pub procs: usize,
    pub memory_bytes: u64,
    /// Simulated wall seconds the job takes when it has the node alone.
    pub solo_seconds: f64,
    /// Memory traffic per processor, for the contention stretch model.
    pub bytes_per_cycle_per_proc: f64,
}

impl Demand {
    /// A light single-processor job (kernels, accuracy checks).
    pub fn light(solo_seconds: f64) -> Demand {
        Demand { procs: 1, memory_bytes: 256 << 20, solo_seconds, bytes_per_cycle_per_proc: 8.0 }
    }
}

/// How a runner produces a result: pure function of the requested machine
/// and the canonicalized parameters. Determinism here is what makes the
/// result cache sound.
pub type RunFn = Arc<
    dyn Fn(&MachineModel, &BTreeMap<String, String>) -> Result<Vec<Artifact>, String> + Send + Sync,
>;

/// A runnable suite as the daemon sees it.
#[derive(Clone)]
pub struct JobEntry {
    pub demand: Demand,
    pub description: String,
    pub runner: RunFn,
}

impl JobEntry {
    pub fn new(
        demand: Demand,
        description: impl Into<String>,
        runner: impl Fn(&MachineModel, &BTreeMap<String, String>) -> Result<Vec<Artifact>, String>
            + Send
            + Sync
            + 'static,
    ) -> JobEntry {
        JobEntry { demand, description: description.into(), runner: Arc::new(runner) }
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Result-cache capacity in entries.
    pub cache_cap: usize,
    /// How long a feasible job may wait for the node to free capacity
    /// before it is rejected with a typed error. Without this bound a job
    /// parked on the admission condvar waits forever if capacity never
    /// frees (a wedged runner, a leak), holding its connection hostage.
    pub admit_timeout: Duration,
    /// Directory for the durable result journal and drain-checkpoint
    /// restart specs. `None` (the default) serves from memory only, as
    /// before.
    pub state_dir: Option<PathBuf>,
    /// Close connections that send nothing for this long (the reactor's
    /// timeout wheel; `None` disables it). Bounds slowloris clients — the
    /// old thread-per-connection model held a thread for them forever.
    pub idle_timeout: Option<Duration>,
    /// Decoded frames allowed in flight per connection before the reactor
    /// stops reading from it ([`ReactorConfig::pipeline_depth`]). Replies
    /// always leave in request order whatever the completion order, so a
    /// depth above 1 changes throughput, never bytes. `1` (the default)
    /// serves strictly request-by-request, the pre-pipelining behavior.
    pub pipeline_depth: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            cache_cap: 256,
            admit_timeout: Duration::from_secs(30),
            state_dir: None,
            idle_timeout: Some(Duration::from_secs(300)),
            pipeline_depth: 1,
        }
    }
}

/// Per-suite serving totals (the FTRACE-style breakdown's raw data).
#[derive(Debug, Default, Clone)]
pub struct SuiteStat {
    /// Actual simulations executed (cache hits and coalesced followers
    /// replay a payload without running).
    pub runs: u64,
    /// Simulated seconds charged, contention stretch included.
    pub sim_seconds: f64,
    /// Sum of the stretch factors seen, for the average.
    pub stretch_sum: f64,
}

/// Job counters. All transitions happen under one lock (see module docs).
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub accepted: u64,
    pub rejected: u64,
    pub queued: u64,
    pub running: u64,
    pub done: u64,
    /// Frames that never became jobs (garbage, unknown suite/machine).
    pub bad_requests: u64,
    /// Submits that coalesced onto another in-flight identical run.
    pub coalesced: u64,
    /// Jobs a drain deadline checkpointed to restart specs instead of
    /// finishing. Informational: every checkpointed job is also counted in
    /// `rejected` (its client got a typed `checkpointed` error), so the
    /// `accepted == done + rejected + queued + running` invariant is
    /// untouched.
    pub checkpointed: u64,
    /// Results absorbed via the cluster hand-off `put` verb. Informational:
    /// puts never enter the job pipeline, so the counters invariant is
    /// untouched.
    pub absorbed: u64,
    /// Frames [`Daemon::classify`] answered inline on the reactor thread:
    /// cache hits, `stats`, typed bad requests and shutting-down refusals.
    /// Informational: an inline hit retires through the same
    /// `accepted`/`done` transition as a dispatched one, so the counters
    /// invariant is untouched.
    pub fastpath_hits: u64,
    /// Per-suite serving totals, keyed by lowercased suite name.
    pub suites: BTreeMap<String, SuiteStat>,
}

/// Bucket edges for the `sim_throughput` histogram: simulated seconds
/// produced per wall-clock second of runner time. The analytic simulator
/// runs far faster than real time, so the ladder is log-spaced up to 1e6x.
const SIM_THROUGHPUT_BUCKETS: [f64; 16] =
    [0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1e3, 1e4, 1e5, 1e6];

/// Bucket edges for the `flush_batch` histogram: replies per vectored
/// write syscall. Powers of two up to the reactor's per-syscall slice cap.
const FLUSH_BATCH_BUCKETS: [f64; 7] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// The latency histograms and level gauges the daemon maintains. Stage
/// histograms are named after the serving pipeline; the `job` histogram is
/// the reconciled end-to-end one (see module docs). `sim_throughput` is
/// dimensionless (simulated seconds per runner wall second), not a latency.
struct DaemonMetrics {
    registry: MetricsRegistry,
    frame_parse: Arc<Histogram>,
    cache_lookup: Arc<Histogram>,
    admission_wait: Arc<Histogram>,
    run: Arc<Histogram>,
    render: Arc<Histogram>,
    job: Arc<Histogram>,
    /// Inline reactor-thread answers, decode to flush-queue (see
    /// [`Daemon::classify`]).
    fastpath: Arc<Histogram>,
    /// Replies per vectored write syscall — not a latency; counts how well
    /// pipelined replies coalesce on the wire.
    flush_batch: Arc<Histogram>,
    sim_throughput: Arc<Histogram>,
    admission_waiting: Arc<Gauge>,
    admission_running: Arc<Gauge>,
    admission_stretch: Arc<Gauge>,
    pool_queue_depth: Arc<Gauge>,
    pool_busy_workers: Arc<Gauge>,
    cache_entries: Arc<Gauge>,
}

impl DaemonMetrics {
    fn new() -> DaemonMetrics {
        let registry = MetricsRegistry::new();
        DaemonMetrics {
            frame_parse: registry.latency("frame_parse"),
            cache_lookup: registry.latency("cache_lookup"),
            admission_wait: registry.latency("admission_wait"),
            run: registry.latency("run"),
            render: registry.latency("render"),
            job: registry.latency("job"),
            fastpath: registry.latency("fastpath"),
            flush_batch: registry.histogram("flush_batch", &FLUSH_BATCH_BUCKETS),
            sim_throughput: registry.histogram("sim_throughput", &SIM_THROUGHPUT_BUCKETS),
            admission_waiting: registry.gauge("admission_waiting"),
            admission_running: registry.gauge("admission_running"),
            admission_stretch: registry.gauge("admission_stretch"),
            pool_queue_depth: registry.gauge("pool_queue_depth"),
            pool_busy_workers: registry.gauge("pool_busy_workers"),
            cache_entries: registry.gauge("cache_entries"),
            registry,
        }
    }
}

/// Where followers of an in-flight run park until the leader publishes.
///
/// `state` stays on plain [`plock`] rather than the lockcheck-instrumented
/// [`plock_named`]: `Condvar::wait` needs the raw `MutexGuard`, and a wait
/// *releases* the mutex while parked, so site tracking would misreport the
/// hold. The same applies to the admission lock below.
#[derive(Default)]
struct InflightSlot {
    state: Mutex<Option<Result<String, SxdError>>>,
    cv: Condvar,
}

impl InflightSlot {
    /// Publish the leader's outcome (first publish wins) and wake waiters.
    fn publish(&self, outcome: Result<String, SxdError>) {
        let mut s = plock(&self.state);
        if s.is_none() {
            *s = Some(outcome);
        }
        drop(s);
        self.cv.notify_all();
    }

    /// Park until the leader publishes; returns a clone of its outcome.
    fn wait(&self) -> Result<String, SxdError> {
        let mut s = plock(&self.state);
        loop {
            match &*s {
                Some(outcome) => return outcome.clone(),
                None => s = self.cv.wait(s).unwrap_or_else(PoisonError::into_inner),
            }
        }
    }
}

struct Daemon {
    registry: Registry<JobEntry>,
    addr: SocketAddr,
    /// Guarded by `admit_cv` waits, so uninstrumented (see [`InflightSlot`]).
    admission: Mutex<Admission>,
    admit_cv: Condvar,
    admit_timeout: Duration,
    cache: Mutex<ResultCache>,
    counters: Mutex<Counters>,
    /// Single-flight table: cache key -> the slot of its in-flight run.
    inflight: Mutex<HashMap<u64, Arc<InflightSlot>>>,
    metrics: DaemonMetrics,
    pool: WorkerPool,
    shutting_down: AtomicBool,
    seq: AtomicU64,
    /// Handle of the running reactor, installed by [`Server::run`]. A
    /// leaf lock: taken in its own scope, never nested with any other
    /// named lock (see module docs).
    reactor: Mutex<Option<ReactorHandle>>,
    idle_timeout: Option<Duration>,
    pipeline_depth: usize,
    /// The write-ahead result journal (`None` without a state dir).
    /// Lock order: `journal` before `cache`, never the reverse.
    journal: Mutex<Option<Journal>>,
    state_dir: Option<PathBuf>,
    /// Set by the `drain` verb: admission refuses new submits while
    /// in-flight work winds down.
    draining: AtomicBool,
    /// Every leader currently queued or running, by cache key, as the
    /// restart spec a drain deadline would checkpoint it to.
    pending: Mutex<HashMap<u64, RestartSpec>>,
    /// Keys whose restart specs have been durably persisted; their leaders
    /// retire as `checkpointed` instead of completing.
    ckpt: Mutex<HashSet<u64>>,
    /// Journal appends that failed with an IO error (the result stayed
    /// served from memory; only durability was lost).
    journal_io_errors: AtomicU64,
}

/// A bound, not-yet-running daemon. [`Server::run`] blocks until a client
/// sends `shutdown` (or a `drain` completes) and the queue drains.
pub struct Server {
    listener: TcpListener,
    daemon: Arc<Daemon>,
    /// Restart specs a previous boot's drain checkpointed, re-admitted by
    /// [`Server::run`] before the accept loop opens for business.
    restarts: Vec<RestartSpec>,
}

impl Server {
    /// Bind the listener and stand up the shared state. With a state dir
    /// configured this is also recovery: the result journal is opened
    /// (truncating any torn tail), its surviving records are replayed into
    /// the cache oldest-first so LRU order carries across the restart, and
    /// any drain-checkpointed restart specs are loaded for re-admission.
    pub fn bind(registry: Registry<JobEntry>, config: ServerConfig) -> Result<Server, SxdError> {
        let listener = TcpListener::bind(&config.addr).map_err(SxdError::io)?;
        let addr = listener.local_addr().map_err(SxdError::io)?;

        let mut cache = ResultCache::new(config.cache_cap);
        let (journal_slot, restarts) = match &config.state_dir {
            Some(dir) => {
                let (j, replay) = Journal::open(dir).map_err(SxdError::io)?;
                for (key, payload) in replay {
                    cache.insert(key, payload);
                }
                (Some(j), journal::load_restart_specs(dir))
            }
            None => (None, Vec::new()),
        };

        let daemon = Arc::new(Daemon {
            registry,
            addr,
            admission: Mutex::new(Admission::whole_node(presets::sx4_benchmarked())),
            admit_cv: Condvar::new(),
            admit_timeout: config.admit_timeout,
            cache: Mutex::new(cache),
            counters: Mutex::new(Counters::default()),
            inflight: Mutex::new(HashMap::new()),
            metrics: DaemonMetrics::new(),
            pool: WorkerPool::new(WORKERS),
            shutting_down: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            reactor: Mutex::new(None),
            idle_timeout: config.idle_timeout,
            pipeline_depth: config.pipeline_depth.max(1),
            journal: Mutex::new(journal_slot),
            state_dir: config.state_dir.clone(),
            draining: AtomicBool::new(false),
            pending: Mutex::new(HashMap::new()),
            ckpt: Mutex::new(HashSet::new()),
            journal_io_errors: AtomicU64::new(0),
        });
        Ok(Server { listener, daemon, restarts })
    }

    /// Where the daemon is actually listening (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.daemon.addr
    }

    /// Serve on the reactor until shutdown completes, then return. One
    /// event-loop thread owns every socket; no thread is ever spawned per
    /// connection, so a connection churn of any size accumulates no join
    /// handles and no stacks.
    pub fn run(mut self) -> Result<(), SxdError> {
        // Re-admit work a previous boot's drain checkpointed. This runs
        // beside the serving loop — clients can connect immediately — and
        // the spec file is deleted only after every spec has been retired,
        // so a crash mid-readmission re-loads the file next boot and the
        // result cache dedupes whatever already completed.
        let restarts = std::mem::take(&mut self.restarts);
        let readmit = (!restarts.is_empty()).then(|| {
            let d = Arc::clone(&self.daemon);
            std::thread::spawn(move || {
                for spec in &restarts {
                    let params: BTreeMap<String, String> = spec.params.iter().cloned().collect();
                    let _ = d.submit(&spec.suite, &spec.machine, &params);
                }
                if let Some(dir) = &d.state_dir {
                    let _ = journal::clear_restart_specs(dir);
                }
            })
        });

        let reactor = Reactor::new(
            self.listener,
            DaemonService { daemon: Arc::clone(&self.daemon) },
            ReactorConfig {
                max_frame: MAX_REQUEST_FRAME,
                idle_timeout: self.daemon.idle_timeout,
                pipeline_depth: self.daemon.pipeline_depth,
                flush_batch: Some(Arc::clone(&self.daemon.metrics.flush_batch)),
            },
        )
        .map_err(SxdError::io)?;
        let handle = reactor.handle();
        *plock_named(&self.daemon.reactor, "sxd.reactor") = Some(handle.clone());
        // A shutdown (or drain completion) that raced bind-to-run must
        // still wake the loop — it checks the handle slot before we
        // published it.
        if self.daemon.shutting_down.load(Ordering::SeqCst) {
            handle.shutdown();
        }
        let res = reactor.run().map_err(SxdError::io);
        *plock_named(&self.daemon.reactor, "sxd.reactor") = None;
        if let Some(h) = readmit {
            let _ = h.join();
        }
        // Dropping the daemon drops the worker pool, which drains any
        // still-queued jobs before its threads exit.
        res
    }
}

/// The daemon as the reactor sees it: stateless per connection (every
/// frame is self-contained). [`Daemon::classify`] sees each frame on the
/// reactor thread; [`Daemon::handle`] finishes the ones it dispatches.
struct DaemonService {
    daemon: Arc<Daemon>,
}

impl Service for DaemonService {
    type Job = Job;

    fn classify(&self, frame: String) -> Classified<Job> {
        self.daemon.classify(&frame)
    }

    fn handle(&self, job: Job) -> Reply {
        Reply::send(self.daemon.handle(job))
    }

    /// Framing is lost (oversized or non-UTF-8 line): a typed error, then
    /// close.
    fn decode_error_reply(&self, err: &DecodeError) -> String {
        SxdError::from(err).to_reply()
    }
}

/// A submit resolved against the registry and the machine presets, with
/// its cache key: everything a dispatcher needs to run it.
struct Submit {
    suite: String,
    /// The machine as the request spelled it (`model` is what it resolved to).
    machine: String,
    demand: Demand,
    runner: RunFn,
    model: MachineModel,
    params: BTreeMap<String, String>,
    key: u64,
    /// Start of the `job` histogram's interval.
    t_job: Instant,
}

/// A frame [`Daemon::classify`] could not answer without blocking, on its
/// way to a dispatcher.
enum Job {
    Submit(Box<Submit>),
    Put { key: u64, payload: String },
    Metrics,
    Shutdown,
    Drain { deadline_ms: Option<u64> },
}

/// How one submit resolved against the cache and the in-flight table.
enum SubmitPath {
    /// Served from the result cache.
    Hit(String),
    /// This submit runs the job and publishes for any followers.
    Leader(Arc<InflightSlot>),
    /// An identical run is in flight; park and replay its payload.
    Follower(Arc<InflightSlot>),
}

impl Daemon {
    /// Parse one frame and answer it inline when that cannot block (see
    /// the module docs for the inline set); anything that could run, wait,
    /// park or write — misses, followers, `metrics`, drains, shutdown,
    /// puts — becomes a [`Job`]. `frame_parse` is observed here, once per
    /// frame; the `fastpath` histogram covers inline answers, decode to
    /// flush queue.
    fn classify(&self, frame: &str) -> Classified<Job> {
        let t0 = Instant::now();
        let parsed = Request::parse(frame);
        self.metrics.frame_parse.observe(t0.elapsed().as_secs_f64());
        let line = match parsed {
            Err(e) => self.bad_request(e),
            Ok(Request::Stats) => self.stats_reply(),
            Ok(Request::Route { .. }) => self.bad_request(SxdError::BadRequest {
                detail: "\"route\" is a cluster verb; this daemon is not a router".into(),
            }),
            Ok(Request::Drain { member: Some(_), .. }) => self.bad_request(SxdError::BadRequest {
                detail: "\"member\" targets a cluster router; this is a single daemon".into(),
            }),
            Ok(Request::Drain { deadline_ms, member: None }) => {
                return Classified::Dispatch(Job::Drain { deadline_ms })
            }
            Ok(Request::Metrics) => return Classified::Dispatch(Job::Metrics),
            Ok(Request::Shutdown) => return Classified::Dispatch(Job::Shutdown),
            Ok(Request::Put { key, payload }) => {
                return Classified::Dispatch(Job::Put { key, payload })
            }
            Ok(Request::Submit { suite, machine, params }) => {
                match self.resolve(suite, &machine, params, t0) {
                    Err(e) => e.to_reply(),
                    Ok(sub) => match self.probe_hit(&sub) {
                        Some(line) => line,
                        None => return Classified::Dispatch(Job::Submit(Box::new(sub))),
                    },
                }
            }
        };
        plock_named(&self.counters, "sxd.counters").fastpath_hits += 1;
        self.metrics.fastpath.observe(t0.elapsed().as_secs_f64());
        Classified::Inline(Reply::send(line))
    }

    /// Finish a dispatched [`Job`] on a dispatcher thread.
    fn handle(self: &Arc<Self>, job: Job) -> String {
        match job {
            Job::Submit(sub) => self.run_submit(*sub),
            Job::Put { key, payload } => self.handle_put(key, &payload),
            Job::Metrics => Ok(self.metrics_reply()),
            Job::Shutdown => {
                self.initiate_shutdown();
                Ok("{\"ok\":true,\"shutting_down\":true}".into())
            }
            Job::Drain { deadline_ms } => {
                let deadline = deadline_ms.map(Duration::from_millis).unwrap_or(DRAIN_DEADLINE);
                self.start_drain(deadline);
                let ms = deadline.as_millis();
                Ok(format!("{{\"ok\":true,\"draining\":true,\"deadline_ms\":{ms}}}"))
            }
        }
        .unwrap_or_else(|e| e.to_reply())
    }

    /// Count a frame that never became a job and render its typed error.
    fn bad_request(&self, e: SxdError) -> String {
        plock_named(&self.counters, "sxd.counters").bad_requests += 1;
        e.to_reply()
    }

    /// `Err(ShuttingDown)` once a shutdown or drain has stopped admission.
    fn admitting(&self) -> Result<(), SxdError> {
        if self.shutting_down.load(Ordering::SeqCst) || self.draining.load(Ordering::SeqCst) {
            return Err(SxdError::ShuttingDown);
        }
        Ok(())
    }

    /// The typed refusals every submit shares — admission closed, unknown
    /// suite, unknown machine — then the cache key.
    fn resolve(
        &self,
        suite: String,
        machine: &str,
        params: BTreeMap<String, String>,
        t_job: Instant,
    ) -> Result<Submit, SxdError> {
        self.admitting()?;
        let Some(entry) = self.registry.get(&suite) else {
            plock_named(&self.counters, "sxd.counters").bad_requests += 1;
            return Err(SxdError::UnknownSuite { suite });
        };
        let Some(model) = presets::by_name(machine) else {
            plock_named(&self.counters, "sxd.counters").bad_requests += 1;
            return Err(SxdError::UnknownMachine { machine: machine.into() });
        };
        let key = cache_key(&suite, &model, &params);
        let (demand, runner) = (entry.demand, Arc::clone(&entry.runner));
        Ok(Submit { suite, machine: machine.into(), demand, runner, model, params, key, t_job })
    }

    /// The inline half of a submit: `Some` only for a clean cache hit,
    /// probed under the same `inflight` -> `cache` pair as
    /// [`Daemon::run_submit`]. The probe is hit-only, so a miss leaves no
    /// trace and the dispatcher's own lookup counts it exactly once. There
    /// is no pre-count into `queued`: the hit retires in one counters
    /// critical section (`accepted`, `done` and the `job` observation
    /// together), so `accepted == done + rejected + queued + running`
    /// holds at every instant on this path too.
    fn probe_hit(&self, sub: &Submit) -> Option<String> {
        let payload = {
            let _inflight = plock_named(&self.inflight, "sxd.inflight");
            plock_named(&self.cache, "sxd.cache").probe(sub.key)?
        };
        let mut c = plock_named(&self.counters, "sxd.counters");
        c.accepted += 1;
        c.done += 1;
        self.metrics.job.observe(sub.t_job.elapsed().as_secs_f64());
        drop(c);
        Some(submit_reply(true, sub.key, &payload))
    }

    /// Absorb an already-rendered result under its content address — the
    /// cluster hand-off path replicating a drained member's journal into
    /// its keyspace successor. The payload is inserted verbatim (and
    /// journaled when durable), so repeat submits of the key replay the
    /// original member's exact bytes. Refused while draining: a handed-off
    /// entry would be lost when this member's own journal moves on.
    fn handle_put(&self, key: u64, payload: &str) -> Result<String, SxdError> {
        self.admitting()?;
        plock_named(&self.cache, "sxd.cache").insert(key, payload.to_string());
        self.persist_result(key, payload);
        plock_named(&self.counters, "sxd.counters").absorbed += 1;
        Ok(format!("{{\"ok\":true,\"absorbed\":true,\"key\":\"{key:016x}\"}}"))
    }

    /// One submission from outside the reactor (restart re-admission):
    /// resolve, then run, exactly as a client's submit would.
    fn submit(
        &self,
        suite: &str,
        machine: &str,
        params: &BTreeMap<String, String>,
    ) -> Result<String, SxdError> {
        let sub = self.resolve(suite.into(), machine, params.clone(), Instant::now())?;
        self.run_submit(sub)
    }

    /// Run one resolved submit to its reply: a cache hit, a follower of an
    /// identical in-flight run, or that run's leader.
    fn run_submit(&self, sub: Submit) -> Result<String, SxdError> {
        // Admission may have closed while the job waited for a dispatcher.
        self.admitting()?;
        let (key, t_job) = (sub.key, sub.t_job);

        {
            let mut c = plock_named(&self.counters, "sxd.counters");
            c.accepted += 1;
            c.queued += 1;
        }

        // Cache lookup and single-flight resolution are one atomic
        // decision under the inflight lock: a submit either sees the
        // cached payload, joins the in-flight run, or becomes its leader.
        // Leaders insert into the cache *before* retiring their slot, so
        // no identical submit can slip between the two tables and re-run.
        let t_lookup = Instant::now();
        let path = {
            let mut inflight = plock_named(&self.inflight, "sxd.inflight");
            if let Some(payload) = plock_named(&self.cache, "sxd.cache").get(key) {
                SubmitPath::Hit(payload)
            } else if let Some(slot) = inflight.get(&key) {
                SubmitPath::Follower(Arc::clone(slot))
            } else {
                let slot = Arc::new(InflightSlot::default());
                inflight.insert(key, Arc::clone(&slot));
                SubmitPath::Leader(slot)
            }
        };
        self.metrics.cache_lookup.observe(t_lookup.elapsed().as_secs_f64());

        match path {
            SubmitPath::Hit(payload) => {
                let mut c = plock_named(&self.counters, "sxd.counters");
                c.queued -= 1;
                c.done += 1;
                self.metrics.job.observe(t_job.elapsed().as_secs_f64());
                drop(c);
                Ok(submit_reply(true, key, &payload))
            }
            SubmitPath::Follower(slot) => {
                let outcome = slot.wait();
                let mut c = plock_named(&self.counters, "sxd.counters");
                c.queued -= 1;
                c.coalesced += 1;
                match &outcome {
                    Ok(_) => c.done += 1,
                    Err(e) => {
                        c.rejected += 1;
                        if matches!(e, SxdError::Checkpointed { .. }) {
                            c.checkpointed += 1;
                        }
                    }
                }
                self.metrics.job.observe(t_job.elapsed().as_secs_f64());
                drop(c);
                outcome.map(|payload| submit_reply(true, key, &payload))
            }
            SubmitPath::Leader(slot) => {
                let outcome = self.run_as_leader(&sub);
                // Retire the slot (the cache was populated first on
                // success) and publish so followers wake with the result.
                plock_named(&self.inflight, "sxd.inflight").remove(&key);
                slot.publish(outcome.clone());
                outcome.map(|payload| submit_reply(false, key, &payload))
            }
        }
    }

    /// Admit, execute and render one job, returning its payload. Every
    /// early return retires the job in the counters (and observes the
    /// reconciled `job` histogram) before surfacing the error. A drain
    /// deadline can checkpoint the job while it is queued (it retires
    /// without running) or while it is running (its result is discarded —
    /// the persisted restart spec owns the work now, and completing both
    /// would double-count it on the next boot).
    fn run_as_leader(&self, sub: &Submit) -> Result<String, SxdError> {
        let Submit { ref suite, ref machine, demand, ref model, ref params, key, t_job, .. } = *sub;
        let spec = RestartSpec {
            suite: suite.clone(),
            machine: machine.clone(),
            params: params.iter().map(|(k, v)| (k.clone(), v.clone())).collect(),
        };
        plock_named(&self.pending, "sxd.pending").insert(key, spec);
        let job = JobSpec {
            name: format!("sxd-{}", self.seq.fetch_add(1, Ordering::SeqCst)),
            procs: demand.procs,
            memory_bytes: demand.memory_bytes,
            solo_seconds: demand.solo_seconds,
            bytes_per_cycle_per_proc: demand.bytes_per_cycle_per_proc,
            block: 0,
            after: Vec::new(),
        };
        let reject = |detail: String| {
            let mut c = plock_named(&self.counters, "sxd.counters");
            c.queued -= 1;
            c.rejected += 1;
            self.metrics.job.observe(t_job.elapsed().as_secs_f64());
            drop(c);
            plock_named(&self.pending, "sxd.pending").remove(&key);
            Err(SxdError::Rejected { detail })
        };

        let t_adm = Instant::now();
        let deadline = t_adm + self.admit_timeout;
        let stretch = {
            let mut adm = plock(&self.admission);
            loop {
                // A drain may have checkpointed this job while it sat in
                // the queue: its remaining work is durably persisted, so it
                // retires here without ever running.
                if plock_named(&self.ckpt, "sxd.ckpt").remove(&key) {
                    drop(adm);
                    self.metrics.admission_wait.observe(t_adm.elapsed().as_secs_f64());
                    return self.retire_checkpointed(key, t_job, false);
                }
                match adm.try_admit(&job) {
                    Err(e) => {
                        drop(adm);
                        self.metrics.admission_wait.observe(t_adm.elapsed().as_secs_f64());
                        return reject(e.to_string());
                    }
                    Ok(true) => break adm.stretch(),
                    Ok(false) => {
                        let now = Instant::now();
                        if now >= deadline {
                            drop(adm);
                            self.metrics.admission_wait.observe(t_adm.elapsed().as_secs_f64());
                            return reject(format!(
                                "admission wait exceeded {:.3}s with the node still full",
                                self.admit_timeout.as_secs_f64()
                            ));
                        }
                        adm.begin_wait();
                        let (mut woken, _timeout) = self
                            .admit_cv
                            .wait_timeout(adm, deadline - now)
                            .unwrap_or_else(PoisonError::into_inner);
                        woken.end_wait();
                        adm = woken;
                    }
                }
            }
        };
        self.metrics.admission_wait.observe(t_adm.elapsed().as_secs_f64());
        {
            let mut c = plock_named(&self.counters, "sxd.counters");
            c.queued -= 1;
            c.running += 1;
        }

        let runner = Arc::clone(&sub.runner);
        let run_params = params.clone();
        let run_model = model.clone();
        let t_run = Instant::now();
        let outcome = self.pool.run(move || {
            catch_unwind(AssertUnwindSafe(|| runner(&run_model, &run_params)))
                .unwrap_or_else(|_| Err("runner panicked".into()))
        });
        let run_wall = t_run.elapsed().as_secs_f64();
        self.metrics.run.observe(run_wall);

        plock(&self.admission).release(&job.name);
        self.admit_cv.notify_all();

        // A drain deadline may have checkpointed this job mid-run. The
        // restart spec is already durable, so the next boot re-runs the
        // work; serving this result too would double-count it. Discard it
        // and retire as checkpointed, whatever the runner returned.
        if plock_named(&self.ckpt, "sxd.ckpt").remove(&key) {
            return self.retire_checkpointed(key, t_job, true);
        }

        match outcome {
            Err(detail) => {
                let mut c = plock_named(&self.counters, "sxd.counters");
                c.running -= 1;
                c.rejected += 1;
                self.metrics.job.observe(t_job.elapsed().as_secs_f64());
                drop(c);
                plock_named(&self.pending, "sxd.pending").remove(&key);
                Err(SxdError::RunFailed { detail })
            }
            Ok(artifacts) => {
                let sim_seconds = demand.solo_seconds * stretch;
                if run_wall > 0.0 {
                    self.metrics.sim_throughput.observe(sim_seconds / run_wall);
                }
                let t_render = Instant::now();
                let payload =
                    render_payload(suite, params, sim_seconds, stretch, &artifacts, &model.name);
                self.metrics.render.observe(t_render.elapsed().as_secs_f64());
                {
                    let mut c = plock_named(&self.counters, "sxd.counters");
                    c.running -= 1;
                    c.done += 1;
                    let s = c.suites.entry(suite.to_ascii_lowercase()).or_default();
                    s.runs += 1;
                    s.sim_seconds += sim_seconds;
                    s.stretch_sum += stretch;
                    self.metrics.job.observe(t_job.elapsed().as_secs_f64());
                }
                // Memory first, then disk: the cache is the source of
                // truth this boot; the journal makes it the source of
                // truth for the *next* boot. The compaction snapshot is
                // taken after the insert so it can never lose the entry
                // whose append it supersedes.
                plock_named(&self.cache, "sxd.cache").insert(key, payload.clone());
                self.persist_result(key, &payload);
                plock_named(&self.pending, "sxd.pending").remove(&key);
                Ok(payload)
            }
        }
    }

    /// Append one completed result to the journal (when durable) and
    /// compact once enough appends have stacked up. Journal IO failures
    /// are counted, not fatal: the client still gets its in-memory result,
    /// only durability for this record is lost.
    fn persist_result(&self, key: u64, payload: &str) {
        let mut slot = plock_named(&self.journal, "sxd.journal");
        let Some(j) = slot.as_mut() else { return };
        // The journal lock *is* the designated guard of the journal file:
        // appends and compactions must serialize, so holding it across
        // this IO is by design and exempt from SXC302.
        lockreg::blocking_io("sxd.journal.append", &["sxd.journal"]);
        if j.append(key, payload).is_err() {
            self.journal_io_errors.fetch_add(1, Ordering::SeqCst);
        }
        if j.should_compact(plock_named(&self.cache, "sxd.cache").cap()) {
            // Lock order: journal (held) -> cache. The snapshot is the
            // cache's live LRU view, so replay rebuilds identical state.
            let entries = plock_named(&self.cache, "sxd.cache").entries_lru();
            lockreg::blocking_io("sxd.journal.compact", &["sxd.journal"]);
            if j.compact(&entries).is_err() {
                self.journal_io_errors.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    /// Retire a checkpointed leader: counted as `rejected` (the invariant
    /// is untouched) plus the informational `checkpointed`, with the `job`
    /// histogram observed in the same critical section as every other
    /// retirement.
    fn retire_checkpointed(
        &self,
        key: u64,
        t_job: Instant,
        was_running: bool,
    ) -> Result<String, SxdError> {
        {
            let mut c = plock_named(&self.counters, "sxd.counters");
            if was_running {
                c.running -= 1;
            } else {
                c.queued -= 1;
            }
            c.rejected += 1;
            c.checkpointed += 1;
            self.metrics.job.observe(t_job.elapsed().as_secs_f64());
        }
        plock_named(&self.pending, "sxd.pending").remove(&key);
        Err(SxdError::Checkpointed {
            detail: "drain deadline checkpointed this job; it restarts on the next boot".into(),
        })
    }

    /// The `stats` member both STATS and METRICS replies embed.
    fn stats_json(&self, snap: &Counters, cache: (u64, u64, u64, usize, usize)) -> String {
        let (hits, misses, evictions, entries, cap) = cache;
        let suite_seconds = Json::Obj(
            snap.suites.iter().map(|(k, s)| (k.clone(), Json::Num(s.sim_seconds))).collect(),
        );
        // Leaf lock, released before the journal lock below is taken —
        // `sxd.reactor` must never appear in a lock-graph edge.
        let (conns_open, conns_accepted, conns_idle_closed) = {
            match plock_named(&self.reactor, "sxd.reactor").as_ref() {
                Some(h) => (h.open(), h.accepted(), h.idle_closed()),
                None => (0, 0, 0),
            }
        };
        let journal = match plock_named(&self.journal, "sxd.journal").as_ref() {
            Some(j) => format!(
                "{{\"appended\":{},\"replayed\":{},\"compactions\":{},\
                 \"truncated_bytes\":{},\"io_errors\":{}}}",
                j.appended(),
                j.replayed(),
                j.compactions(),
                j.truncated_bytes(),
                self.journal_io_errors.load(Ordering::SeqCst),
            ),
            None => "null".into(),
        };
        format!(
            "{{\"accepted\":{},\"rejected\":{},\"queued\":{},\
             \"running\":{},\"done\":{},\"bad_requests\":{},\"coalesced\":{},\
             \"checkpointed\":{},\"absorbed\":{},\"fastpath_hits\":{},\
             \"cache\":{{\"hits\":{hits},\"misses\":{misses},\
             \"evictions\":{evictions},\"entries\":{entries},\"cap\":{cap}}},\
             \"conns\":{{\"open\":{conns_open},\"accepted\":{conns_accepted},\
             \"idle_closed\":{conns_idle_closed}}},\
             \"suite_seconds\":{},\"workers\":{},\"journal\":{},\
             \"draining\":{},\"shutting_down\":{}}}",
            snap.accepted,
            snap.rejected,
            snap.queued,
            snap.running,
            snap.done,
            snap.bad_requests,
            snap.coalesced,
            snap.checkpointed,
            snap.absorbed,
            snap.fastpath_hits,
            suite_seconds,
            WORKERS,
            journal,
            self.draining.load(Ordering::SeqCst),
            self.shutting_down.load(Ordering::SeqCst),
        )
    }

    fn cache_stats(&self) -> (u64, u64, u64, usize, usize) {
        let c = plock_named(&self.cache, "sxd.cache");
        (c.hits(), c.misses(), c.evictions(), c.len(), c.cap())
    }

    fn stats_reply(&self) -> String {
        let cache = self.cache_stats();
        let snap = plock_named(&self.counters, "sxd.counters").clone();
        format!("{{\"ok\":true,\"stats\":{}}}", self.stats_json(&snap, cache))
    }

    /// The METRICS reply: counters, gauges, per-stage latency histograms
    /// and the per-suite breakdown, with the reconciliation guarantee that
    /// `latency.job.count == stats.done + stats.rejected` (both captured
    /// under one counters lock; `job` is only observed inside it).
    fn metrics_reply(&self) -> String {
        // Refresh level gauges from their live sources (separate locks;
        // gauges are instantaneous readings, not part of the guarantee).
        {
            let adm = plock(&self.admission);
            self.metrics.admission_waiting.set(adm.waiting() as f64);
            self.metrics.admission_running.set(adm.running() as f64);
            self.metrics.admission_stretch.set(adm.stretch());
        }
        self.metrics.pool_queue_depth.set(self.pool.queue_depth() as f64);
        self.metrics.pool_busy_workers.set(self.pool.busy_workers() as f64);
        let cache = self.cache_stats();
        self.metrics.cache_entries.set(cache.3 as f64);

        let (snap, reg) = {
            let c = plock_named(&self.counters, "sxd.counters");
            // Histograms snapshotted while the counters are frozen: every
            // `job` observation happens under this same lock.
            (c.clone(), self.metrics.registry.snapshot())
        };
        let reconciled =
            reg.histograms.get("job").is_some_and(|h| h.count == snap.done + snap.rejected);
        let gauges = Json::Obj(
            reg.gauges.iter().map(|(k, &v)| (k.clone(), Json::Num(v))).collect::<Vec<_>>(),
        );
        let latency = Json::Obj(
            reg.histograms.iter().map(|(k, h)| (k.clone(), h.to_json())).collect::<Vec<_>>(),
        );
        let suites = Json::Obj(
            snap.suites
                .iter()
                .map(|(k, s)| {
                    (
                        k.clone(),
                        Json::Obj(vec![
                            ("runs".into(), Json::Num(s.runs as f64)),
                            ("sim_seconds".into(), Json::Num(s.sim_seconds)),
                            (
                                "avg_stretch".into(),
                                Json::Num(if s.runs > 0 {
                                    s.stretch_sum / s.runs as f64
                                } else {
                                    0.0
                                }),
                            ),
                        ]),
                    )
                })
                .collect::<Vec<_>>(),
        );
        format!(
            "{{\"ok\":true,\"metrics\":{{\"stats\":{},\"gauges\":{},\"latency\":{},\
             \"suites\":{},\"reconciled\":{}}}}}",
            self.stats_json(&snap, cache),
            gauges,
            latency,
            suites,
            reconciled,
        )
    }

    /// Begin a graceful drain: stop admitting, give in-flight jobs
    /// `deadline` to finish, checkpoint the stragglers, shut down.
    /// Idempotent — the first drain wins.
    fn start_drain(self: &Arc<Self>, deadline: Duration) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        let d = Arc::clone(self);
        std::thread::spawn(move || d.drain_worker(deadline));
    }

    /// The drain state machine. Phase 1: poll until every pending leader
    /// retires or the deadline passes. Phase 2: persist each straggler's
    /// submission as a restart spec — only once the specs are durably on
    /// disk are the keys marked checkpointed, so a crash or IO fault
    /// during persistence leaves the jobs to finish normally instead of
    /// vanishing. Phase 3: wait for the stragglers to retire
    /// (queued ones retire on the next condvar wake; running ones when the
    /// runner returns), then shut the daemon down.
    fn drain_worker(&self, deadline: Duration) {
        let t0 = Instant::now();
        while t0.elapsed() < deadline && !plock_named(&self.pending, "sxd.pending").is_empty() {
            std::thread::sleep(Duration::from_millis(5));
        }
        let (keys, specs): (Vec<u64>, Vec<RestartSpec>) = plock_named(&self.pending, "sxd.pending")
            .iter()
            .map(|(k, spec)| (*k, spec.clone()))
            .unzip();
        if !keys.is_empty() {
            if let Some(dir) = &self.state_dir {
                // The runner is a black box — the daemon has no progress
                // signal for it — so a checkpointed job restarts from the
                // beginning: nothing is lost, merely recomputed.
                if journal::write_restart_specs(dir, &specs).is_ok() {
                    let mut ck = plock_named(&self.ckpt, "sxd.ckpt");
                    ck.extend(&keys);
                    drop(ck);
                    // Wake queued leaders so they observe their checkpoint.
                    self.admit_cv.notify_all();
                }
                // On persist failure the stragglers stay un-checkpointed
                // and run to completion below — slower, but nothing lost.
            }
            while !plock_named(&self.pending, "sxd.pending").is_empty() {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        self.initiate_shutdown();
    }

    /// Flip the shutdown flag and wake the reactor. Idempotent. Shutdown
    /// is a first-class event: the loop stops accepting immediately,
    /// closes idle connections, and flushes in-flight replies — no
    /// follow-on client needed, no self-connect poke, no half-closing
    /// sockets behind the event loop's back.
    fn initiate_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        let handle = plock_named(&self.reactor, "sxd.reactor").clone();
        if let Some(h) = handle {
            h.shutdown();
        }
    }
}

/// Serialize one run result. Deterministic: key order is fixed, floats use
/// the shortest round-trip form, artifacts serialize themselves. Cache
/// hits replay these exact bytes.
fn render_payload(
    suite: &str,
    params: &BTreeMap<String, String>,
    sim_seconds: f64,
    stretch: f64,
    artifacts: &[Artifact],
    machine: &str,
) -> String {
    let params_json =
        Json::Obj(params.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone()))).collect())
            .to_string();
    let arts: Vec<String> = artifacts.iter().map(Artifact::to_json).collect();
    let rendered: String = artifacts.iter().map(Artifact::render).collect();
    format!(
        "{{\"suite\":\"{}\",\"machine\":\"{}\",\"params\":{},\"sim_seconds\":{},\
         \"stretch\":{},\"artifacts\":[{}],\"rendered\":\"{}\"}}",
        json_escape(suite),
        json_escape(machine),
        params_json,
        json_f64(sim_seconds),
        json_f64(stretch),
        arts.join(","),
        json_escape(&rendered)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn toy_registry() -> Registry<JobEntry> {
        let mut r = Registry::new();
        r.register(
            "toy",
            JobEntry::new(Demand::light(2.0), "toy scalar", |_m, p| {
                let n = p.get("n").map(String::as_str).unwrap_or("1");
                Ok(vec![Artifact::Scalar {
                    title: format!("toy n={n}"),
                    value: 42.0,
                    unit: "mflops".into(),
                }])
            }),
        );
        r
    }

    fn metrics_doc(d: &Daemon) -> Json {
        let reply = d.metrics_reply();
        let doc = Json::parse(&reply).expect("metrics reply must be valid JSON");
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));
        doc.get("metrics").unwrap().clone()
    }

    #[test]
    fn payload_is_deterministic_for_equal_inputs() {
        let mut p = BTreeMap::new();
        p.insert("n".to_string(), "4".to_string());
        let a = vec![Artifact::Scalar { title: "t".into(), value: 1.5, unit: "u".into() }];
        let one = render_payload("toy", &p, 2.25, 1.125, &a, "sx4-9.2");
        let two = render_payload("toy", &p, 2.25, 1.125, &a, "sx4-9.2");
        assert_eq!(one, two);
        Json::parse(&one).expect("payload must be valid JSON");
    }

    #[test]
    fn submit_path_counts_and_caches_without_tcp() {
        let server = Server::bind(toy_registry(), ServerConfig::default()).unwrap();
        let d = &server.daemon;
        let params = BTreeMap::new();
        let first = d.submit("toy", "sx4", &params).unwrap();
        let second = d.submit("TOY", "sx4-9.2", &params).unwrap();
        assert!(first.contains("\"cached\":false"));
        assert!(second.contains("\"cached\":true"));
        // Byte-identical modulo the cached flag.
        assert_eq!(second, first.replace("\"cached\":false", "\"cached\":true"));
        let c = plock(&d.counters);
        assert_eq!((c.accepted, c.done, c.rejected, c.queued, c.running), (2, 2, 0, 0, 0));
        let toy = c.suites.get("toy").unwrap();
        assert!(toy.sim_seconds > 0.0);
        assert_eq!(toy.runs, 1, "the cache hit must not count as a run");
    }

    /// The classification table over every verb: where each frame is
    /// answered, and what it does to `fastpath_hits`, `bad_requests` and
    /// the cache-miss count. Each frame is parsed exactly once, whether it
    /// is answered inline or dispatched.
    #[test]
    fn classify_answers_every_non_blocking_verb_inline_and_parses_once() {
        let server = Server::bind(toy_registry(), ServerConfig::default()).unwrap();
        let d = &server.daemon;
        let submit = "{\"op\":\"submit\",\"suite\":\"toy\",\"machine\":\"sx4\"}";
        let put = format!("{{\"op\":\"put\",\"key\":\"{:016x}\",\"result\":{{}}}}", 7u64);
        // (frame, inline, fastpath_hits delta, bad_requests delta, miss delta)
        let table: &[(&str, bool, u64, u64, u64)] = &[
            (submit, false, 0, 0, 1), // cold: dispatched, the miss counted once
            (submit, true, 1, 0, 0),  // warm: an inline hit
            ("{\"op\":\"stats\"}", true, 1, 0, 0),
            ("not json", true, 1, 1, 0),
            ("{\"op\":\"route\",\"suite\":\"toy\"}", true, 1, 1, 0),
            ("{\"op\":\"drain\",\"member\":0}", true, 1, 1, 0),
            ("{\"op\":\"submit\",\"suite\":\"nope\"}", true, 1, 1, 0),
            ("{\"op\":\"submit\",\"suite\":\"toy\",\"machine\":\"cray-2\"}", true, 1, 1, 0),
            ("{\"op\":\"metrics\"}", false, 0, 0, 0),
            (&put, false, 0, 0, 0),
            ("{\"op\":\"drain\",\"deadline_ms\":0}", false, 0, 0, 0),
            (submit, true, 1, 0, 0), // admission closed: refused inline
            ("{\"op\":\"shutdown\"}", false, 0, 0, 0),
        ];
        let mut replies = Vec::new();
        for &(frame, inline, hits, bad, misses) in table {
            let before = (plock(&d.counters).clone(), plock(&d.cache).misses());
            // A dispatched frame is finished the way a dispatcher would.
            let (reply, was_inline) = match d.classify(frame) {
                Classified::Inline(reply) => (reply.line, true),
                Classified::Dispatch(job) => (d.handle(job), false),
            };
            let c = plock(&d.counters).clone();
            assert_eq!(was_inline, inline, "{frame}: {reply}");
            assert_eq!(c.fastpath_hits - before.0.fastpath_hits, hits, "{frame}");
            assert_eq!(c.bad_requests - before.0.bad_requests, bad, "{frame}");
            assert_eq!(plock(&d.cache).misses() - before.1, misses, "{frame}");
            assert_eq!(c.accepted, c.done + c.rejected + c.queued + c.running, "{frame}");
            replies.push(reply);
        }
        // The inline hit is byte-identical to the run that populated it.
        assert_eq!(replies[1], replies[0].replace("\"cached\":false", "\"cached\":true"));
        assert_eq!(SxdError::ShuttingDown.to_reply(), replies[11]);
        let m = metrics_doc(d);
        assert_eq!(m.get("reconciled").unwrap().as_bool(), Some(true));
        let parse = m.get("latency").unwrap().get("frame_parse").unwrap();
        assert_eq!(parse.get("count").unwrap().as_u64(), Some(table.len() as u64));
        let fastpath = m.get("latency").unwrap().get("fastpath").unwrap();
        let inline = table.iter().filter(|row| row.1).count() as u64;
        assert_eq!(fastpath.get("count").unwrap().as_u64(), Some(inline));
    }

    #[test]
    fn unknown_suite_and_machine_are_typed_not_accepted() {
        let server = Server::bind(toy_registry(), ServerConfig::default()).unwrap();
        let d = &server.daemon;
        let params = BTreeMap::new();
        let e1 = d.submit("nope", "sx4", &params).unwrap_err();
        assert_eq!(e1.kind(), "unknown_suite");
        let e2 = d.submit("toy", "cray-2", &params).unwrap_err();
        assert_eq!(e2.kind(), "unknown_machine");
        let c = plock(&d.counters);
        assert_eq!(c.accepted, 0);
        assert_eq!(c.bad_requests, 2);
    }

    #[test]
    fn infeasible_demand_is_rejected_with_counters_reconciled() {
        let mut r = toy_registry();
        r.register(
            "wide",
            JobEntry::new(
                Demand {
                    procs: 4096,
                    memory_bytes: 1 << 20,
                    solo_seconds: 1.0,
                    bytes_per_cycle_per_proc: 8.0,
                },
                "asks for more processors than the node has",
                |_m, _p| Ok(vec![]),
            ),
        );
        let server = Server::bind(r, ServerConfig::default()).unwrap();
        let d = &server.daemon;
        let err = d.submit("wide", "sx4", &BTreeMap::new()).unwrap_err();
        assert_eq!(err.kind(), "rejected");
        let c = plock(&d.counters);
        assert_eq!((c.accepted, c.rejected, c.done, c.queued, c.running), (1, 1, 0, 0, 0));
    }

    #[test]
    fn runner_panic_becomes_run_failed_not_a_crash() {
        let mut r = Registry::new();
        r.register(
            "boom",
            JobEntry::new(
                Demand::light(1.0),
                "always panics",
                |_m, _p| -> Result<Vec<Artifact>, String> { panic!("kaboom") },
            ),
        );
        let server = Server::bind(r, ServerConfig::default()).unwrap();
        let err = server.daemon.submit("boom", "sx4", &BTreeMap::new()).unwrap_err();
        assert_eq!(err.kind(), "run_failed");
        let c = plock(&server.daemon.counters);
        assert_eq!((c.accepted, c.rejected, c.running), (1, 1, 0));
    }

    #[test]
    fn concurrent_identical_submits_run_once_and_coalesce() {
        // The thundering-herd regression: a herd of identical cache-missing
        // submits must execute the runner exactly once.
        let runs = Arc::new(AtomicUsize::new(0));
        let mut r = Registry::new();
        let runs_in_runner = Arc::clone(&runs);
        r.register(
            "slow",
            JobEntry::new(Demand::light(1.0), "slow runner", move |_m, _p| {
                runs_in_runner.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(100));
                Ok(vec![Artifact::Scalar { title: "s".into(), value: 1.0, unit: "u".into() }])
            }),
        );
        let server = Server::bind(r, ServerConfig::default()).unwrap();
        let d = Arc::clone(&server.daemon);

        const HERD: usize = 8;
        let replies: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..HERD)
                .map(|_| {
                    let d = Arc::clone(&d);
                    s.spawn(move || d.submit("slow", "sx4", &BTreeMap::new()).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        assert_eq!(runs.load(Ordering::SeqCst), 1, "one run per unique key");
        // Exactly one leader replied uncached; every follower replayed.
        let uncached = replies.iter().filter(|r| r.contains("\"cached\":false")).count();
        assert_eq!(uncached, 1);
        // All replies carry byte-identical payloads.
        let canon = replies[0].replace("\"cached\":false", "\"cached\":true");
        for r in &replies {
            assert_eq!(r.replace("\"cached\":false", "\"cached\":true"), canon);
        }
        let c = plock(&d.counters);
        assert_eq!(c.coalesced, (HERD - 1) as u64);
        assert_eq!((c.accepted, c.done, c.queued, c.running), (HERD as u64, HERD as u64, 0, 0));
        assert_eq!(c.suites.get("slow").unwrap().runs, 1);
    }

    #[test]
    fn followers_share_the_leaders_failure() {
        let runs = Arc::new(AtomicUsize::new(0));
        let mut r = Registry::new();
        let runs_in_runner = Arc::clone(&runs);
        r.register(
            "failing",
            JobEntry::new(Demand::light(1.0), "always fails slowly", move |_m, _p| {
                runs_in_runner.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(80));
                Err("deliberate failure".into())
            }),
        );
        let server = Server::bind(r, ServerConfig::default()).unwrap();
        let d = Arc::clone(&server.daemon);
        let errs: Vec<SxdError> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let d = Arc::clone(&d);
                    s.spawn(move || d.submit("failing", "sx4", &BTreeMap::new()).unwrap_err())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1, "failures are not retried by followers");
        for e in &errs {
            assert_eq!(e.kind(), "run_failed", "{e}");
        }
        let c = plock(&d.counters);
        assert_eq!((c.accepted, c.rejected, c.done), (4, 4, 0));
        assert_eq!(c.coalesced, 3);
        // Failures are not cached: a later submit runs again.
        drop(c);
        let _ = d.submit("failing", "sx4", &BTreeMap::new()).unwrap_err();
        assert_eq!(runs.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn admission_wait_times_out_with_a_typed_rejection() {
        let mut r = Registry::new();
        // Occupies every processor of the node for 300 ms of host time.
        r.register(
            "hog",
            JobEntry::new(
                Demand {
                    procs: 32,
                    memory_bytes: 1 << 30,
                    solo_seconds: 1.0,
                    bytes_per_cycle_per_proc: 8.0,
                },
                "whole-node job",
                |_m, _p| {
                    std::thread::sleep(Duration::from_millis(300));
                    Ok(vec![])
                },
            ),
        );
        r.register(
            "wants-in",
            JobEntry::new(
                Demand {
                    procs: 32,
                    memory_bytes: 1 << 30,
                    solo_seconds: 1.0,
                    bytes_per_cycle_per_proc: 8.0,
                },
                "cannot fit beside the hog",
                |_m, _p| Ok(vec![]),
            ),
        );
        let config =
            ServerConfig { admit_timeout: Duration::from_millis(50), ..ServerConfig::default() };
        let server = Server::bind(r, config).unwrap();
        let d = Arc::clone(&server.daemon);

        let hog = {
            let d = Arc::clone(&d);
            std::thread::spawn(move || d.submit("hog", "sx4", &BTreeMap::new()))
        };
        // Let the hog take the node before the second job arrives.
        std::thread::sleep(Duration::from_millis(60));
        let err = d.submit("wants-in", "sx4", &BTreeMap::new()).unwrap_err();
        assert_eq!(err.kind(), "rejected");
        assert!(err.detail().contains("admission wait exceeded"), "{err}");
        {
            let c = plock(&d.counters);
            assert_eq!(c.rejected, 1);
            assert_eq!(
                c.accepted,
                c.done + c.rejected + c.queued + c.running,
                "invariant must hold with the hog still in flight"
            );
        }
        hog.join().unwrap().unwrap();
        let c = plock(&d.counters);
        assert_eq!((c.accepted, c.done, c.rejected, c.queued, c.running), (2, 1, 1, 0, 0));
    }

    #[test]
    fn stats_stay_serviceable_after_a_panic_poisons_the_counters() {
        let server = Server::bind(toy_registry(), ServerConfig::default()).unwrap();
        let d = Arc::clone(&server.daemon);
        d.submit("toy", "sx4", &BTreeMap::new()).unwrap();
        // Poison the counters mutex the way a bug would: panic mid-section.
        {
            let d = Arc::clone(&d);
            let _ = std::thread::spawn(move || {
                let _guard = d.counters.lock().unwrap();
                panic!("simulated bug while holding the counters lock");
            })
            .join();
        }
        assert!(d.counters.lock().is_err(), "the mutex really is poisoned");
        // STATS, METRICS and new submits all still work.
        let stats = d.stats_reply();
        assert!(stats.contains("\"accepted\":1"), "{stats}");
        let m = metrics_doc(&d);
        assert_eq!(m.get("reconciled").unwrap().as_bool(), Some(true));
        let reply = d.submit("toy", "sx4", &BTreeMap::new()).unwrap();
        assert!(reply.contains("\"cached\":true"));
    }

    #[test]
    fn metrics_reconcile_job_histogram_with_counters() {
        let server = Server::bind(toy_registry(), ServerConfig::default()).unwrap();
        let d = &server.daemon;
        let mut p = BTreeMap::new();
        d.submit("toy", "sx4", &p).unwrap(); // miss -> run
        d.submit("toy", "sx4", &p).unwrap(); // hit
        p.insert("n".into(), "2".into());
        d.submit("toy", "sx4", &p).unwrap(); // second distinct run
        let _ = d.submit("missing", "sx4", &p).unwrap_err(); // not accepted

        let m = metrics_doc(d);
        assert_eq!(m.get("reconciled").unwrap().as_bool(), Some(true));
        let stats = m.get("stats").unwrap();
        let job = m.get("latency").unwrap().get("job").unwrap();
        let done = stats.get("done").unwrap().as_u64().unwrap();
        let rejected = stats.get("rejected").unwrap().as_u64().unwrap();
        assert_eq!(job.get("count").unwrap().as_u64().unwrap(), done + rejected);
        assert_eq!(done, 3);
        // Bucket counts sum to the histogram count (overflow included).
        let n: u64 =
            job.get("n").unwrap().as_arr().unwrap().iter().map(|v| v.as_u64().unwrap()).sum();
        assert_eq!(n, done + rejected);
        // Stage histograms saw the two real runs.
        let run = m.get("latency").unwrap().get("run").unwrap();
        assert_eq!(run.get("count").unwrap().as_u64(), Some(2));
        let render = m.get("latency").unwrap().get("render").unwrap();
        assert_eq!(render.get("count").unwrap().as_u64(), Some(2));
        // The per-suite breakdown counts runs, not serves.
        let toy = m.get("suites").unwrap().get("toy").unwrap();
        assert_eq!(toy.get("runs").unwrap().as_u64(), Some(2));
        assert!(toy.get("avg_stretch").unwrap().as_f64().unwrap() >= 1.0);
        // Gauges exist and are quiescent. `WorkerPool::run` returns when
        // the job's result is delivered, a hair before the worker's busy
        // guard drops, so give the gauge a moment to settle.
        let deadline = Instant::now() + Duration::from_secs(5);
        while d.pool.busy_workers() > 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        let m = metrics_doc(d);
        let g = m.get("gauges").unwrap();
        assert_eq!(g.get("pool_busy_workers").unwrap().as_f64(), Some(0.0));
        assert_eq!(g.get("admission_running").unwrap().as_f64(), Some(0.0));
    }
}
