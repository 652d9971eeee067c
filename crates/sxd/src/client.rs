//! Client side of the protocol: one-request/one-reply over a persistent
//! connection, plus the `flood` load generator used by the acceptance
//! gate (`ncar-bench flood --clients 8 --jobs 64`).

use std::collections::BTreeMap;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use ncar_suite::Json;
use sxsim::presets;

use crate::error::SxdError;
use crate::proto::{cache_key, read_frame, Request, MAX_REPLY_FRAME, MAX_REQUEST_FRAME};

/// A connected protocol client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// A successful submit, decoded.
#[derive(Debug, Clone)]
pub struct Submission {
    pub cached: bool,
    /// Content address of the run, as the server printed it (16 hex digits).
    pub key: String,
    /// The result object. Its `to_string()` reproduces the server's bytes
    /// (both sides share the same deterministic JSON printer).
    pub result: Json,
    /// The raw reply line, for byte-level comparisons.
    pub raw: String,
}

impl Client {
    pub fn connect(addr: &str) -> Result<Client, SxdError> {
        let writer = TcpStream::connect(addr).map_err(SxdError::io)?;
        // Every request is one complete frame sent in one write; Nagle
        // could only hold a frame back until the peer's delayed ACK.
        writer.set_nodelay(true).map_err(SxdError::io)?;
        let reader = BufReader::new(writer.try_clone().map_err(SxdError::io)?);
        Ok(Client { reader, writer })
    }

    /// [`Client::connect`] with bounded exponential backoff: up to
    /// `attempts` tries, sleeping `base`, `2·base`, `4·base`, … (capped at
    /// one second) between failures. Exists for startup races — a router
    /// dialing members that are still binding, `flood` aimed at a daemon
    /// whose listener is not up yet. Exhaustion is the *terminal* typed
    /// error [`SxdError::Retries`]: the caller has already waited through
    /// the whole schedule, so there is no point retrying the error itself.
    pub fn connect_with_retry(
        addr: &str,
        attempts: usize,
        base: Duration,
    ) -> Result<Client, SxdError> {
        let attempts = attempts.max(1);
        let mut delay = base;
        let mut last = String::new();
        for attempt in 0..attempts {
            match Client::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) => last = e.detail(),
            }
            if attempt + 1 < attempts {
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_secs(1));
            }
        }
        Err(SxdError::Retries { attempts, detail: format!("{addr}: {last}") })
    }

    /// Send one raw line and return the raw reply line. The building block
    /// for everything else, and what the CI smoke test uses to throw
    /// malformed frames at the daemon.
    ///
    /// The frame and its newline leave in one `write`: sent as two, the
    /// one-byte tail waited out the daemon's delayed ACK (~40 ms on Linux)
    /// behind Nagle on every serial request.
    pub fn raw(&mut self, line: &str) -> Result<String, SxdError> {
        let mut frame = String::with_capacity(line.len() + 1);
        frame.push_str(line);
        frame.push('\n');
        self.writer.write_all(frame.as_bytes()).map_err(SxdError::io)?;
        read_frame(&mut self.reader, MAX_REPLY_FRAME)?
            .ok_or_else(|| SxdError::Io { detail: "server closed the connection".into() })
    }

    /// Send `lines` back-to-back — one buffered write, so the whole batch
    /// leaves in a single syscall burst — then read exactly one raw reply
    /// per line, in order. This is the client half of frame pipelining:
    /// it only pays off against a server whose `pipeline_depth` covers the
    /// batch, but it is *correct* against any server, because replies are
    /// always delivered in request order.
    pub fn raw_pipelined(&mut self, lines: &[String]) -> Result<Vec<String>, SxdError> {
        let mut buf = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in lines {
            buf.push_str(line);
            buf.push('\n');
        }
        self.writer.write_all(buf.as_bytes()).map_err(SxdError::io)?;
        let mut replies = Vec::with_capacity(lines.len());
        for _ in 0..lines.len() {
            replies.push(read_frame(&mut self.reader, MAX_REPLY_FRAME)?.ok_or_else(|| {
                SxdError::Io { detail: "server closed the connection mid-pipeline".into() }
            })?);
        }
        Ok(replies)
    }

    /// Pipeline a batch of submits and verify strict reply order: every
    /// request leaves the socket before any reply is read, and each
    /// decoded reply's `key` must equal the content address its own
    /// request hashes to — so a server answering out of order is caught
    /// as a typed error, never silently interleaved.
    pub fn submit_pipelined(
        &mut self,
        batch: &[(String, String, BTreeMap<String, String>)],
    ) -> Result<Vec<Submission>, SxdError> {
        let mut lines = Vec::with_capacity(batch.len());
        let mut expected: Vec<Option<u64>> = Vec::with_capacity(batch.len());
        for (suite, machine, params) in batch {
            let req = Request::Submit {
                suite: suite.clone(),
                machine: machine.clone(),
                params: params.clone(),
            };
            let line = req.to_line();
            if line.len() > MAX_REQUEST_FRAME {
                return Err(SxdError::FrameTooLong { len: line.len(), max: MAX_REQUEST_FRAME });
            }
            lines.push(line);
            // An unknown machine has no client-side key; its reply is a
            // typed error and skips the order check.
            expected.push(presets::by_name(machine).map(|m| cache_key(suite, &m, params)));
        }
        let replies = self.raw_pipelined(&lines)?;
        let mut out = Vec::with_capacity(replies.len());
        for (i, raw) in replies.into_iter().enumerate() {
            let doc = Json::parse(&raw)
                .map_err(|e| SxdError::BadJson { detail: format!("reply {i}: {e}") })?;
            match doc.get("ok").and_then(Json::as_bool) {
                Some(true) => {}
                _ => {
                    let err = doc.get("error").cloned().unwrap_or(Json::Null);
                    return Err(SxdError::Remote {
                        kind: err
                            .get("kind")
                            .and_then(Json::as_str)
                            .unwrap_or("unknown")
                            .to_string(),
                        detail: err.get("detail").and_then(Json::as_str).unwrap_or("").to_string(),
                    });
                }
            }
            let key = doc.get("key").and_then(Json::as_str).unwrap_or("").to_string();
            if let Some(want) = expected[i] {
                let want = format!("{want:016x}");
                if key != want {
                    return Err(SxdError::BadJson {
                        detail: format!(
                            "pipelined reply {i} is out of order: key {key} but request \
                             hashes to {want}"
                        ),
                    });
                }
            }
            let cached = doc.get("cached").and_then(Json::as_bool).ok_or_else(|| {
                SxdError::BadJson { detail: "submit reply lacks \"cached\"".into() }
            })?;
            let result = doc.get("result").cloned().ok_or_else(|| SxdError::BadJson {
                detail: "submit reply lacks \"result\"".into(),
            })?;
            out.push(Submission { cached, key, result, raw });
        }
        Ok(out)
    }

    /// Send a line, parse the reply, surface `ok:false` as a typed error.
    ///
    /// Preflights the frame cap before writing a byte: the server would
    /// reject an oversized line with the same `frame_too_long` kind *and
    /// then close the connection* (there is no resync point inside an
    /// unterminated frame), so catching it client-side keeps the
    /// connection usable. [`Client::raw`] deliberately skips this check —
    /// it exists to throw hostile frames at the server.
    fn roundtrip(&mut self, line: &str) -> Result<(Json, String), SxdError> {
        if line.len() > MAX_REQUEST_FRAME {
            return Err(SxdError::FrameTooLong { len: line.len(), max: MAX_REQUEST_FRAME });
        }
        let raw = self.raw(line)?;
        let doc =
            Json::parse(&raw).map_err(|e| SxdError::BadJson { detail: format!("reply: {e}") })?;
        match doc.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok((doc, raw)),
            Some(false) => {
                let err = doc.get("error").cloned().unwrap_or(Json::Null);
                Err(SxdError::Remote {
                    kind: err.get("kind").and_then(Json::as_str).unwrap_or("unknown").to_string(),
                    detail: err.get("detail").and_then(Json::as_str).unwrap_or("").to_string(),
                })
            }
            None => Err(SxdError::BadJson { detail: "reply lacks a boolean \"ok\"".into() }),
        }
    }

    pub fn submit(
        &mut self,
        suite: &str,
        machine: &str,
        params: &BTreeMap<String, String>,
    ) -> Result<Submission, SxdError> {
        let req = Request::Submit {
            suite: suite.to_string(),
            machine: machine.to_string(),
            params: params.clone(),
        };
        let (doc, raw) = self.roundtrip(&req.to_line())?;
        let cached = doc
            .get("cached")
            .and_then(Json::as_bool)
            .ok_or_else(|| SxdError::BadJson { detail: "submit reply lacks \"cached\"".into() })?;
        let key = doc
            .get("key")
            .and_then(Json::as_str)
            .ok_or_else(|| SxdError::BadJson { detail: "submit reply lacks \"key\"".into() })?
            .to_string();
        let result = doc
            .get("result")
            .cloned()
            .ok_or_else(|| SxdError::BadJson { detail: "submit reply lacks \"result\"".into() })?;
        Ok(Submission { cached, key, result, raw })
    }

    /// Fetch the daemon's counters as a JSON object (the `stats` member).
    pub fn stats(&mut self) -> Result<Json, SxdError> {
        let (doc, _) = self.roundtrip(&Request::Stats.to_line())?;
        doc.get("stats")
            .cloned()
            .ok_or_else(|| SxdError::BadJson { detail: "stats reply lacks \"stats\"".into() })
    }

    /// Fetch the full observability snapshot (the `metrics` member:
    /// embedded stats, gauges, per-stage latency histograms, per-suite
    /// breakdown and the `reconciled` flag).
    pub fn metrics(&mut self) -> Result<Json, SxdError> {
        let (doc, _) = self.roundtrip(&Request::Metrics.to_line())?;
        doc.get("metrics")
            .cloned()
            .ok_or_else(|| SxdError::BadJson { detail: "metrics reply lacks \"metrics\"".into() })
    }

    /// Ask the daemon to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), SxdError> {
        self.roundtrip(&Request::Shutdown.to_line()).map(|_| ())
    }

    /// Ask the daemon to drain gracefully: stop admission, give in-flight
    /// jobs `deadline_ms` to finish (the server's configured default when
    /// `None`), checkpoint the stragglers to restart specs, then exit.
    pub fn drain(&mut self, deadline_ms: Option<u64>) -> Result<(), SxdError> {
        self.roundtrip(&Request::Drain { deadline_ms, member: None }.to_line()).map(|_| ())
    }

    /// Ask a cluster router to drain one shard member and hand its
    /// keyspace to the ring successor. A single-node daemon rejects this
    /// with `bad_request`.
    pub fn drain_member(
        &mut self,
        member: usize,
        deadline_ms: Option<u64>,
    ) -> Result<(), SxdError> {
        self.roundtrip(&Request::Drain { deadline_ms, member: Some(member) }.to_line()).map(|_| ())
    }

    /// Ask a cluster router which member owns a configuration. Returns the
    /// routing reply (`member`, `shard`, `key` fields) without running
    /// anything.
    pub fn route(
        &mut self,
        suite: &str,
        machine: &str,
        params: &BTreeMap<String, String>,
    ) -> Result<Json, SxdError> {
        let req = Request::Route {
            suite: suite.to_string(),
            machine: machine.to_string(),
            params: params.clone(),
        };
        self.roundtrip(&req.to_line()).map(|(doc, _)| doc)
    }

    /// Insert an already-rendered result under its content address (the
    /// hand-off path). `payload` must be the result object's exact bytes.
    pub fn put(&mut self, key: u64, payload: &str) -> Result<(), SxdError> {
        let req = Request::Put { key, payload: payload.to_string() };
        self.roundtrip(&req.to_line()).map(|_| ())
    }
}

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct FloodConfig {
    pub addr: String,
    pub clients: usize,
    pub jobs: usize,
    /// Suites cycled through round-robin; repeats are what exercises the
    /// cache (Table 6's ensemble regime: many copies of the same code).
    pub suites: Vec<String>,
    pub machine: String,
    /// Frames each client keeps in flight: `0`/`1` submits serially (one
    /// round trip per job, the classic shape); above 1, jobs go out in
    /// pipelined batches of this size with strict reply-order checking.
    pub pipeline: usize,
}

/// What the flood observed, checked against the acceptance criteria.
#[derive(Debug, Clone)]
pub struct FloodOutcome {
    pub submitted: usize,
    pub completed: usize,
    pub cached_replies: usize,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub accepted: u64,
    pub done: u64,
    pub rejected: u64,
    pub queued: u64,
    pub running: u64,
    /// Submits that coalesced onto an identical in-flight run instead of
    /// executing again (the single-flight dedup at work).
    pub coalesced: u64,
    /// Frames the daemon answered inline on its reactor thread.
    pub fastpath_hits: u64,
    /// The daemon's own snapshot-consistency verdict: the `job` latency
    /// histogram count equals `done + rejected` in the same snapshot.
    pub reconciled: bool,
    /// Wall seconds from the submit barrier dropping to the last client
    /// finishing (connect time excluded).
    pub wall: f64,
    /// `completed / wall` — the number BENCH_7's `sxd_flood` reports.
    pub jobs_per_sec: f64,
    /// Empty when every acceptance criterion held.
    pub problems: Vec<String>,
}

impl FloodOutcome {
    pub fn ok(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Hammer the daemon: `clients` concurrent connections submitting `jobs`
/// jobs round-robin, then reconcile the STATS counters. Fails (via
/// `problems`) on any dropped job, a zero cache hit-rate, or counters
/// that do not satisfy `accepted == done + rejected + queued + running`.
pub fn flood(config: &FloodConfig) -> Result<FloodOutcome, SxdError> {
    let suites =
        if config.suites.is_empty() { vec!["toy".to_string()] } else { config.suites.clone() };
    let clients = config.clients.max(1);
    let per_client: Vec<Vec<String>> = (0..clients)
        .map(|c| {
            (0..config.jobs)
                .filter(|j| j % clients == c)
                .map(|j| suites[j % suites.len()].clone())
                .collect()
        })
        .collect();

    // Clients connect first, then cross a barrier before submitting, so
    // the first wave hits the daemon simultaneously — the regime where
    // single-flight coalescing (rather than the cache) must dedup.
    let start = std::sync::Arc::new(std::sync::Barrier::new(clients));
    let pipeline = config.pipeline.max(1);
    let mut handles = Vec::new();
    for assigned in per_client {
        let addr = config.addr.clone();
        let machine = config.machine.clone();
        let start = std::sync::Arc::clone(&start);
        handles.push(std::thread::spawn(move || -> Result<(usize, usize, f64), SxdError> {
            // Retry the connect: the daemon may still be binding when the
            // flood starts (CI boots both in one script).
            let mut client = Client::connect_with_retry(&addr, 6, Duration::from_millis(25))?;
            start.wait();
            let t0 = Instant::now();
            let params = BTreeMap::new();
            let mut completed = 0;
            let mut cached = 0;
            if pipeline > 1 {
                for chunk in assigned.chunks(pipeline) {
                    let batch: Vec<_> = chunk
                        .iter()
                        .map(|s| (s.clone(), machine.clone(), params.clone()))
                        .collect();
                    for sub in client.submit_pipelined(&batch)? {
                        completed += 1;
                        if sub.cached {
                            cached += 1;
                        }
                    }
                }
            } else {
                for suite in &assigned {
                    let sub = client.submit(suite, &machine, &params)?;
                    completed += 1;
                    if sub.cached {
                        cached += 1;
                    }
                }
            }
            Ok((completed, cached, t0.elapsed().as_secs_f64()))
        }));
    }

    let mut completed = 0;
    let mut cached_replies = 0;
    let mut wall = 0.0f64;
    let mut problems = Vec::new();
    for h in handles {
        match h.join() {
            Ok(Ok((c, hit, secs))) => {
                completed += c;
                cached_replies += hit;
                // The barrier synchronises every client's start, so the
                // flood's wall time is the slowest client's elapsed time.
                wall = wall.max(secs);
            }
            Ok(Err(e)) => problems.push(format!("client failed: {e}")),
            Err(_) => problems.push("client thread panicked".into()),
        }
    }
    if completed != config.jobs {
        problems.push(format!("dropped jobs: {completed}/{} completed", config.jobs));
    }

    // One connection reads both views; METRICS embeds its own stats and
    // the daemon's reconciliation verdict over a single atomic snapshot.
    let mut observer = Client::connect(&config.addr)?;
    let metrics = observer.metrics()?;
    let stats = metrics.get("stats").cloned().unwrap_or(Json::Null);
    let n = |k: &str| stats.get(k).and_then(Json::as_u64).unwrap_or(0);
    let cache = stats.get("cache").cloned().unwrap_or(Json::Null);
    let cn = |k: &str| cache.get(k).and_then(Json::as_u64).unwrap_or(0);
    let mut outcome = FloodOutcome {
        submitted: config.jobs,
        completed,
        cached_replies,
        cache_hits: cn("hits"),
        cache_misses: cn("misses"),
        accepted: n("accepted"),
        done: n("done"),
        rejected: n("rejected"),
        queued: n("queued"),
        running: n("running"),
        coalesced: n("coalesced"),
        fastpath_hits: n("fastpath_hits"),
        reconciled: metrics.get("reconciled").and_then(Json::as_bool).unwrap_or(false),
        wall,
        jobs_per_sec: if wall > 0.0 { completed as f64 / wall } else { 0.0 },
        problems,
    };
    if outcome.cache_hits == 0 && config.jobs > suites.len() {
        outcome.problems.push("cache hit-rate is zero despite repeated configs".into());
    }
    let recon = outcome.done + outcome.rejected + outcome.queued + outcome.running;
    if outcome.accepted != recon {
        outcome.problems.push(format!(
            "counters do not reconcile: accepted={} but done+rejected+queued+running={recon}",
            outcome.accepted
        ));
    }
    if !outcome.reconciled {
        outcome
            .problems
            .push("metrics snapshot is not reconciled: job histogram != done+rejected".into());
    }
    Ok(outcome)
}
