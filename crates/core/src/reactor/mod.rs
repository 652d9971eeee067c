//! Hermetic readiness-driven serving: the epoll/poll reactor from ROADMAP
//! item 1, with no external crates (no tokio — the workspace builds
//! `--offline`).
//!
//! The previous serving model spawned one OS thread per accepted
//! connection; at the connection counts the paper's PRODLOAD scenario
//! implies ("millions of users"), thread stacks alone blow past memory,
//! and the accept loop hid three real lifecycle bugs (join-handle leaks,
//! unbounded idle clients, shutdown racing `accept`). The reactor
//! replaces that model with one event loop and a small *bounded*
//! dispatcher pool:
//!
//! ```text
//!            epoll/poll readiness                 bounded WorkerPool
//!  sockets ──────────────► reactor thread ───job───► dispatchers ──┐
//!     ▲                      │    ▲                                │
//!     └──────── replies ─────┘    └────── completions + waker ─────┘
//! ```
//!
//! Per connection the reactor runs a pipelined sequence-window protocol:
//!
//! - **Decode**: read-readiness drains the socket into a `LineDecoder`
//!   (same accept/reject semantics as the blocking frame reader). Each
//!   complete frame is assigned the connection's next sequence number.
//! - **Classify**: every frame goes once through [`Service::classify`]
//!   *on the reactor thread*, which parses it and either answers inline
//!   ([`Classified::Inline`]: cache hits, stats snapshots, typed protocol
//!   errors — anything cheap and non-blocking) or hands the parsed
//!   [`Service::Job`] to the pool ([`Classified::Dispatch`]), where
//!   [`Service::handle`] finishes it. No frame is parsed twice.
//! - **Dispatch window**: up to [`ReactorConfig::pipeline_depth`] frames
//!   may be in flight per connection (consumed but not yet replied).
//!   Dispatcher threads may block (NQS admission, journal writes) without
//!   stalling the event loop; once the window is full, read interest is
//!   disarmed so level-triggered polling cannot spin, and further
//!   pipelined bytes wait in the kernel socket buffer (backpressure).
//! - **Ordered release**: completions can arrive in any order; replies
//!   park in a per-connection reorder buffer and are released strictly in
//!   sequence, so the byte stream a client sees is identical to the
//!   unpipelined path. A terminal reply (or a decode error, which is
//!   assigned a sequence number like any frame) pins the close point:
//!   earlier in-flight frames still answer in order, later ones are
//!   dropped with the connection.
//! - **Vectored flush**: released replies render into pooled buffers and
//!   leave via `writev`-style vectored writes, so N pipelined replies
//!   coalesce into one syscall. [`ReactorConfig::flush_batch`] can
//!   observe the per-syscall batch size. Successful writes count as
//!   activity for the idle wheel — a client slowly draining a large reply
//!   while making progress is never idle-closed mid-flush.
//!
//! Shutdown is a first-class wake event: [`ReactorHandle::shutdown`]
//! flips a flag and writes the self-pipe, the loop closes the listener
//! immediately (new connects are refused rather than silently queued),
//! drops idle connections, and gives in-flight work a short grace window
//! to flush its replies. Idle connections are bounded by a
//! `TimerWheel`: a client that connects and sends nothing (or
//! drip-feeds a frame forever) is closed after the configured idle
//! timeout and counted in the `idle_closed` stat.

mod decode;
mod poller;
mod wheel;

pub use decode::DecodeError;
pub(crate) use decode::LineDecoder;
pub(crate) use poller::{Event, Interest, Poller};
pub(crate) use wheel::TimerWheel;

use crate::metrics::Histogram;
use crate::par::WorkerPool;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Accept-queue length set on every reactor's listener: room for the
/// 1000-connection connect bursts the serving tests and `flood` throw at
/// one daemon.
const LISTEN_BACKLOG: i32 = 1024;

const TOK_LISTENER: u64 = 0;
const TOK_WAKER: u64 = 1;
const TOK_BASE: u64 = 2;

/// Most reply buffers a connection's flush will hand to one vectored
/// write. Far below any platform IOV_MAX; past this, batching returns
/// are flat anyway.
const MAX_FLUSH_VEC: usize = 64;

/// Render buffers are recycled through a reactor-owned freelist instead
/// of reallocated per reply; oversized buffers (a giant rendered figure)
/// are dropped rather than hoarded.
const BUF_POOL_CAP: usize = 64;
const BUF_POOL_MAX_CAPACITY: usize = 64 * 1024;

/// Grace window for flushing in-flight replies at shutdown.
const SHUTDOWN_FLUSH: Duration = Duration::from_secs(2);

/// What a [`Service`] wants sent back for one frame.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Reply line, written with a trailing newline. Empty means "send
    /// nothing" (used with `close` when there is no meaningful reply,
    /// e.g. after a handler panic).
    pub line: String,
    /// Close the connection once the reply is flushed.
    pub(crate) close: bool,
}

impl Reply {
    pub fn send(line: String) -> Reply {
        Reply { line, close: false }
    }

    pub(crate) fn send_and_close(line: String) -> Reply {
        Reply { line, close: true }
    }
}

/// How [`Service::classify`] disposed of one frame.
pub enum Classified<J> {
    /// Answered on the reactor thread; no dispatcher handoff.
    Inline(Reply),
    /// Finish on a dispatcher: [`Service::handle`] gets the job.
    Dispatch(J),
}

/// The application half of the reactor: frame in, reply out, in one of
/// two places.
///
/// `classify` sees every frame, on the reactor thread, and must not
/// block: no waits, no runs, at most short leaf-lock critical sections.
/// It either answers inline or returns the job a dispatcher should run.
/// `handle` runs that job on a dispatcher thread and may block
/// (admission waits, journal writes); the reactor thread never calls it.
pub trait Service: Send + Sync + 'static {
    /// A classified frame on its way to a dispatcher.
    type Job: Send + 'static;

    /// Decide one decoded frame on the reactor thread: answer it inline
    /// or hand it to a dispatcher.
    fn classify(&self, frame: String) -> Classified<Self::Job>;

    /// Finish a dispatched job. Runs on a dispatcher thread.
    fn handle(&self, job: Self::Job) -> Reply;

    /// Render the reply line for a frame that could not be decoded. The
    /// connection always closes after this reply (there is no resync
    /// point inside a lost frame).
    fn decode_error_reply(&self, err: &DecodeError) -> String;
}

/// Dispatcher threads running [`Service::handle`]. This bounds
/// job-handling concurrency, not connections. Eight is enough that a
/// daemon's herd followers parking in its single-flight table never starve
/// their leader, which always occupies a dispatcher of its own; a router's
/// dispatchers only hold blocking forward I/O.
const DISPATCHERS: usize = 8;

/// Reactor tuning. `Default` matches the daemon's protocol limits.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Frame content cap in bytes (the decoder rejects longer frames).
    pub max_frame: usize,
    /// Close connections idle longer than this; `None` disables the
    /// timeout wheel entirely.
    pub idle_timeout: Option<Duration>,
    /// Frames that may be in flight (consumed but unanswered) per
    /// connection. 1 preserves the strict request/reply lockstep of the
    /// unpipelined reactor; higher values let a pipelining client keep
    /// the dispatchers busy. Replies always leave in request order.
    pub pipeline_depth: usize,
    /// Observes the number of reply buffers handed to each vectored
    /// write — the coalescing win of pipelining, measured per syscall.
    pub flush_batch: Option<Arc<Histogram>>,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            max_frame: 64 * 1024,
            idle_timeout: Some(Duration::from_secs(300)),
            pipeline_depth: 1,
            flush_batch: None,
        }
    }
}

#[derive(Debug, Default)]
struct ReactorStats {
    accepted: AtomicU64,
    closed: AtomicU64,
    idle_closed: AtomicU64,
    frames: AtomicU64,
    open: AtomicU64,
}

struct Shared {
    shutdown: AtomicBool,
    stats: ReactorStats,
    /// Write end of the self-pipe; any thread can nudge the loop.
    waker: UnixStream,
}

/// Cloneable remote control for a running reactor: wake it, shut it
/// down, read its connection counters.
#[derive(Clone)]
pub struct ReactorHandle {
    shared: Arc<Shared>,
}

impl ReactorHandle {
    /// Nudge the event loop (used by dispatchers delivering completions).
    pub(crate) fn wake(&self) {
        // A full pipe already guarantees a pending wake: WouldBlock is
        // success here, and both ends are non-blocking so this never
        // stalls the caller.
        let _ = (&self.shared.waker).write(&[1u8]);
    }

    /// Request shutdown and wake the loop. Idempotent; returns
    /// immediately (the reactor drains in its own thread).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.wake();
    }

    /// Connections accepted over the reactor's lifetime.
    pub fn accepted(&self) -> u64 {
        self.shared.stats.accepted.load(Ordering::Relaxed)
    }

    /// Connections fully closed (all causes, idle included).
    #[cfg(test)]
    pub(crate) fn closed(&self) -> u64 {
        self.shared.stats.closed.load(Ordering::Relaxed)
    }

    /// Connections closed by the idle-timeout wheel.
    pub fn idle_closed(&self) -> u64 {
        self.shared.stats.idle_closed.load(Ordering::Relaxed)
    }

    /// Frames decoded, whether answered inline or dispatched.
    #[cfg(test)]
    pub(crate) fn frames(&self) -> u64 {
        self.shared.stats.frames.load(Ordering::Relaxed)
    }

    /// Currently open connections.
    pub fn open(&self) -> u64 {
        self.shared.stats.open.load(Ordering::Relaxed)
    }
}

struct Conn {
    stream: TcpStream,
    decoder: LineDecoder,
    /// Rendered replies awaiting the socket, oldest first; the front
    /// buffer's first `outpos` bytes are already written.
    out: VecDeque<Vec<u8>>,
    outpos: usize,
    /// Sequence number the next consumed frame will get.
    next_seq: u64,
    /// Sequence number of the next reply to release into `out`; frames
    /// with `next_reply <= seq < next_seq` are in flight.
    next_reply: u64,
    /// Out-of-order completions parked until their turn.
    pending: BTreeMap<u64, Reply>,
    /// Set when the reply at this seq was terminal: it closes the
    /// connection once flushed, and replies past it are dropped.
    close_at: Option<u64>,
    /// No further frames will ever be pulled from the decoder (clean
    /// EOF, or a decode error already queued as the final reply).
    input_done: bool,
    last_activity: Instant,
    /// Peer half-closed its write side (read returned 0).
    eof: bool,
    /// An idle-wheel entry currently points at this connection.
    timer_armed: bool,
    /// Interest currently registered with the poller (skip redundant
    /// `epoll_ctl` calls — under pipelining, most advances keep it).
    interest: Interest,
}

impl Conn {
    /// Frames consumed but not yet released as replies.
    fn in_flight(&self) -> u64 {
        self.next_seq - self.next_reply
    }
}

struct Completion {
    id: u64,
    seq: u64,
    reply: Reply,
}

/// What the frame pump decided while the connection was borrowed.
enum Step {
    Frame(String),
    DecodeErr(DecodeError),
    Hold,
}

/// The event loop. Build with [`Reactor::new`], grab a
/// [`ReactorHandle`], then give the loop its thread with
/// [`Reactor::run`].
pub struct Reactor<S: Service> {
    listener: Option<TcpListener>,
    poller: Poller,
    service: Arc<S>,
    config: ReactorConfig,
    shared: Arc<Shared>,
    waker_rx: UnixStream,
    conns: HashMap<u64, Conn>,
    next_id: u64,
    in_flight: usize,
    wheel: Option<TimerWheel>,
    tx: Sender<Completion>,
    rx: Receiver<Completion>,
    winding_down: bool,
    flush_deadline: Option<Instant>,
    /// Cleared render buffers awaiting reuse.
    buf_pool: Vec<Vec<u8>>,
}

impl<S: Service> Reactor<S> {
    pub fn new(listener: TcpListener, service: S, config: ReactorConfig) -> io::Result<Reactor<S>> {
        poller::set_listen_backlog(&listener, LISTEN_BACKLOG)?;
        listener.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        let (waker_rx, waker_tx) = poller::waker_pair()?;
        poller.register(poller::raw_fd(&listener), TOK_LISTENER, Interest::READ)?;
        poller.register(poller::raw_fd(&waker_rx), TOK_WAKER, Interest::READ)?;
        let now = Instant::now();
        let (tx, rx) = std::sync::mpsc::channel();
        Ok(Reactor {
            listener: Some(listener),
            poller,
            service: Arc::new(service),
            shared: Arc::new(Shared {
                shutdown: AtomicBool::new(false),
                stats: ReactorStats::default(),
                waker: waker_tx,
            }),
            waker_rx,
            conns: HashMap::new(),
            next_id: TOK_BASE,
            in_flight: 0,
            wheel: config.idle_timeout.map(|idle| TimerWheel::for_horizon(idle, now)),
            config,
            tx,
            rx,
            winding_down: false,
            flush_deadline: None,
            buf_pool: Vec::new(),
        })
    }

    pub fn handle(&self) -> ReactorHandle {
        ReactorHandle { shared: Arc::clone(&self.shared) }
    }

    /// Run the event loop until shutdown completes. Consumes the
    /// reactor; on return every connection is closed and every
    /// dispatched frame has either flushed its reply or overstayed the
    /// flush grace window.
    pub fn run(mut self) -> io::Result<()> {
        let pool = WorkerPool::new(DISPATCHERS);
        let mut events: Vec<Event> = Vec::new();
        loop {
            while let Ok(done) = self.rx.try_recv() {
                self.in_flight -= 1;
                self.apply_completion(done, &pool);
            }

            if self.shared.shutdown.load(Ordering::SeqCst) {
                self.wind_down();
                if self.in_flight == 0 {
                    let flushed = self.conns.is_empty();
                    let expired = self.flush_deadline.is_some_and(|d| Instant::now() >= d);
                    if flushed || expired {
                        break;
                    }
                }
            }

            let now = Instant::now();
            if let Some(idle) = self.config.idle_timeout {
                let mut due: Vec<u64> = Vec::new();
                if let Some(wheel) = self.wheel.as_mut() {
                    wheel.expire(now, &mut due);
                }
                for token in due {
                    self.check_idle(token, idle, now);
                }
            }

            let mut timeout = self.wheel.as_ref().and_then(|w| w.next_tick(now));
            if self.winding_down {
                // Re-check the flush deadline even if no fd turns ready.
                let cap = Duration::from_millis(20);
                timeout = Some(timeout.map_or(cap, |t| t.min(cap)));
            }
            events.clear();
            self.poller.wait(timeout, &mut events)?;

            let batch = std::mem::take(&mut events);
            for ev in &batch {
                match ev.token {
                    TOK_LISTENER => self.accept_ready(),
                    TOK_WAKER => self.drain_waker(),
                    token => self.conn_ready(token, *ev, &pool),
                }
            }
            events = batch;
        }

        // Teardown: every surviving connection counts as closed.
        self.shared.stats.closed.fetch_add(self.conns.len() as u64, Ordering::Relaxed);
        self.conns.clear();
        self.shared.stats.open.store(0, Ordering::Relaxed);
        // Dropping the pool joins the dispatchers; the completion
        // channel outlives it (`self.rx`), so a late send is dropped,
        // never a panic.
        drop(pool);
        Ok(())
    }

    /// First shutdown observation: stop accepting *now* (close the
    /// listener so new connects are refused, not queued), drop idle
    /// connections, start the flush grace window for the rest.
    fn wind_down(&mut self) {
        if self.winding_down {
            return;
        }
        self.winding_down = true;
        self.flush_deadline = Some(Instant::now() + SHUTDOWN_FLUSH);
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(poller::raw_fd(&listener));
        }
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.in_flight() == 0 && c.out.is_empty())
            .map(|(&id, _)| id)
            .collect();
        for id in idle {
            self.close_conn(id, false);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let res = match self.listener.as_ref() {
                Some(listener) => listener.accept(),
                None => return,
            };
            match res {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let id = self.next_id;
                    self.next_id += 1;
                    if self.poller.register(poller::raw_fd(&stream), id, Interest::READ).is_err() {
                        continue;
                    }
                    let now = Instant::now();
                    self.shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
                    self.shared.stats.open.fetch_add(1, Ordering::Relaxed);
                    self.conns.insert(
                        id,
                        Conn {
                            stream,
                            decoder: LineDecoder::new(self.config.max_frame),
                            out: VecDeque::new(),
                            outpos: 0,
                            next_seq: 0,
                            next_reply: 0,
                            pending: BTreeMap::new(),
                            close_at: None,
                            input_done: false,
                            last_activity: now,
                            eof: false,
                            timer_armed: false,
                            interest: Interest::READ,
                        },
                    );
                    self.arm_idle_timer(id, now);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept failures (ECONNABORTED, EMFILE...):
                // stop for this readiness round; level-triggered polling
                // re-reports the listener if connections still wait.
                Err(_) => return,
            }
        }
    }

    fn drain_waker(&mut self) {
        let mut sink = [0u8; 64];
        loop {
            match (&self.waker_rx).read(&mut sink) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return, // WouldBlock: drained
            }
        }
    }

    fn conn_ready(&mut self, token: u64, ev: Event, pool: &WorkerPool) {
        if !self.conns.contains_key(&token) {
            return; // closed earlier in this event batch
        }
        if ev.readable && !self.read_ready(token) {
            return; // connection broke and was closed
        }
        // Write readiness, newly decoded frames, and EOF all funnel into
        // the same driver: pump, release, flush, close or re-arm.
        self.advance(token, pool);
    }

    /// Drain the socket into the decoder. Returns false when the
    /// connection broke (and was closed).
    fn read_ready(&mut self, token: u64) -> bool {
        let max_frame = self.config.max_frame;
        let mut broken = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else { return false };
            if !conn.interest.read {
                // Stale readiness from an earlier batch: the window is
                // full; the kernel buffer keeps the backpressure.
                return true;
            }
            let mut buf = [0u8; 16 * 1024];
            loop {
                let res = conn.stream.read(&mut buf);
                match res {
                    Ok(0) => {
                        conn.eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.decoder.push(&buf[..n]);
                        conn.last_activity = Instant::now();
                        // Once at least one frame (or an oversize error)
                        // is surely buffered, let the kernel hold the
                        // rest (backpressure against pipelining floods).
                        if conn.decoder.buffered() > max_frame {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        broken = true;
                        break;
                    }
                }
            }
        }
        if broken {
            self.close_conn(token, false);
            return false;
        }
        true
    }

    /// The per-connection driver: classify decoded frames into inline
    /// replies or the dispatch window, release in-order replies, flush them
    /// vectored, then decide between closing and re-arming interest.
    fn advance(&mut self, token: u64, pool: &WorkerPool) {
        let depth = self.config.pipeline_depth.max(1) as u64;
        loop {
            // Release first so inline replies free their window slot
            // before the next frame is considered.
            if !self.release_ready(token) {
                return;
            }
            let step = {
                let Some(conn) = self.conns.get_mut(&token) else { return };
                if conn.close_at.is_some() || conn.input_done || conn.in_flight() >= depth {
                    Step::Hold
                } else {
                    match conn.decoder.next_frame() {
                        Ok(Some(frame)) => Step::Frame(frame),
                        Ok(None) if conn.eof => match conn.decoder.finish() {
                            // A final unterminated frame still gets
                            // served; the EOF closes the connection once
                            // everything in flight has flushed.
                            Ok(Some(frame)) => Step::Frame(frame),
                            Ok(None) => {
                                conn.input_done = true;
                                Step::Hold
                            }
                            Err(e) => Step::DecodeErr(e),
                        },
                        Ok(None) => Step::Hold,
                        Err(e) => Step::DecodeErr(e),
                    }
                }
            };
            match step {
                Step::Frame(frame) => {
                    self.shared.stats.frames.fetch_add(1, Ordering::Relaxed);
                    let Some(conn) = self.conns.get_mut(&token) else { return };
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    match self.service.classify(frame) {
                        Classified::Inline(reply) => {
                            conn.pending.insert(seq, reply);
                        }
                        Classified::Dispatch(job) => self.dispatch(token, seq, job, pool),
                    }
                }
                Step::DecodeErr(e) => {
                    // The error reply is an ordinary terminal reply with
                    // the next sequence number: frames already in flight
                    // still answer, in order, before it.
                    let line = self.service.decode_error_reply(&e);
                    let Some(conn) = self.conns.get_mut(&token) else { return };
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    conn.pending.insert(seq, Reply::send_and_close(line));
                    conn.input_done = true;
                }
                Step::Hold => break,
            }
        }
        self.finish_advance(token);
    }

    /// Move consecutively-sequenced replies from the reorder buffer into
    /// rendered output buffers. Returns false if the connection is gone.
    fn release_ready(&mut self, token: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else { return false };
        while conn.close_at.is_none() {
            let Some(reply) = conn.pending.remove(&conn.next_reply) else { break };
            if !reply.line.is_empty() {
                let mut buf = self.buf_pool.pop().unwrap_or_default();
                buf.extend_from_slice(reply.line.as_bytes());
                buf.push(b'\n');
                conn.out.push_back(buf);
            }
            if reply.close {
                conn.close_at = Some(conn.next_reply);
                // Later replies will never be sent; drop them now.
                conn.pending.clear();
            }
            conn.next_reply += 1;
        }
        true
    }

    /// Flush, then close or recompute poller interest.
    fn finish_advance(&mut self, token: u64) {
        enum Decision {
            Close,
            Keep(Interest),
        }
        if !self.flush_conn(token) {
            return; // broken (closed) or already gone
        }
        let depth = self.config.pipeline_depth.max(1) as u64;
        let max_frame = self.config.max_frame;
        let decision = {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            let drained = conn.out.is_empty();
            let quiescent = conn.in_flight() == 0;
            let closing = conn.close_at.is_some_and(|c| conn.next_reply > c);
            if drained && (closing || (quiescent && (conn.input_done || self.winding_down))) {
                Decision::Close
            } else {
                let want = Interest {
                    read: !conn.eof
                        && conn.close_at.is_none()
                        && conn.in_flight() < depth
                        && conn.decoder.buffered() <= max_frame,
                    write: !drained,
                };
                Decision::Keep(want)
            }
        };
        match decision {
            Decision::Close => self.close_conn(token, false),
            Decision::Keep(want) => {
                if self.update_interest(token, want) {
                    self.arm_idle_timer(token, Instant::now());
                }
            }
        }
    }

    fn dispatch(&mut self, token: u64, seq: u64, job: S::Job, pool: &WorkerPool) {
        self.in_flight += 1;
        let service = Arc::clone(&self.service);
        let tx = self.tx.clone();
        let wake = self.handle();
        pool.submit(move || {
            // A panicking handler must not kill the dispatcher's worker
            // loop or strand the connection: turn it into "no reply,
            // close". The daemon's own panic accounting happens inside
            // `handle` (its job runner has its own catch_unwind).
            let reply = match catch_unwind(AssertUnwindSafe(|| service.handle(job))) {
                Ok(reply) => reply,
                Err(_) => Reply { line: String::new(), close: true },
            };
            let _ = tx.send(Completion { id: token, seq, reply });
            wake.wake();
        });
    }

    fn apply_completion(&mut self, done: Completion, pool: &WorkerPool) {
        let Completion { id, seq, reply } = done;
        let Some(conn) = self.conns.get_mut(&id) else {
            // Closed while the frame was in flight: the reply is dropped.
            return;
        };
        conn.pending.insert(seq, reply);
        self.advance(id, pool);
    }

    /// Write as much of the output queue as the socket accepts, handing
    /// up to [`MAX_FLUSH_VEC`] reply buffers to each vectored write.
    /// Returns false when the connection broke (and was closed) or does
    /// not exist. Successful writes refresh `last_activity`, so the idle
    /// wheel never closes a peer that is draining a large reply slowly
    /// but steadily.
    fn flush_conn(&mut self, token: u64) -> bool {
        enum Outcome {
            Clean,
            Blocked,
            Broken,
        }
        let outcome = {
            let Some(conn) = self.conns.get_mut(&token) else { return false };
            loop {
                if conn.out.is_empty() {
                    conn.outpos = 0;
                    break Outcome::Clean;
                }
                let mut slices: Vec<IoSlice<'_>> =
                    Vec::with_capacity(conn.out.len().min(MAX_FLUSH_VEC));
                let mut iter = conn.out.iter();
                if let Some(front) = iter.next() {
                    slices.push(IoSlice::new(&front[conn.outpos..]));
                }
                for buf in iter.take(MAX_FLUSH_VEC - 1) {
                    slices.push(IoSlice::new(buf));
                }
                match (&conn.stream).write_vectored(&slices) {
                    Ok(0) => break Outcome::Broken,
                    Ok(mut n) => {
                        if let Some(h) = &self.config.flush_batch {
                            h.observe(slices.len() as f64);
                        }
                        drop(slices);
                        conn.last_activity = Instant::now();
                        while n > 0 {
                            let rem = conn.out[0].len() - conn.outpos;
                            if n < rem {
                                conn.outpos += n;
                                break;
                            }
                            n -= rem;
                            conn.outpos = 0;
                            let mut buf = conn.out.pop_front().expect("front buffer exists");
                            if self.buf_pool.len() < BUF_POOL_CAP
                                && buf.capacity() <= BUF_POOL_MAX_CAPACITY
                            {
                                buf.clear();
                                self.buf_pool.push(buf);
                            }
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Outcome::Blocked,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break Outcome::Broken,
                }
            }
        };
        match outcome {
            Outcome::Clean | Outcome::Blocked => true,
            Outcome::Broken => {
                self.close_conn(token, false);
                false
            }
        }
    }

    /// An idle-wheel entry fired: close the connection if it has truly
    /// been idle past the horizon, else re-arm at its live deadline.
    fn check_idle(&mut self, token: u64, idle: Duration, now: Instant) {
        let deadline = {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            conn.timer_armed = false;
            if conn.in_flight() > 0 {
                // A blocked dispatch (e.g. admission wait) is work, not
                // idleness; the completion's advance re-arms.
                return;
            }
            let deadline = conn.last_activity + idle;
            if now >= deadline {
                None
            } else {
                Some(deadline)
            }
        };
        match deadline {
            None => self.close_conn(token, true),
            Some(deadline) => {
                if let Some(wheel) = self.wheel.as_mut() {
                    wheel.schedule(token, deadline, now);
                }
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.timer_armed = true;
                }
            }
        }
    }

    /// Ensure exactly one idle-wheel entry points at the connection.
    fn arm_idle_timer(&mut self, token: u64, now: Instant) {
        let Some(idle) = self.config.idle_timeout else { return };
        let deadline = {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            if conn.timer_armed {
                return;
            }
            conn.timer_armed = true;
            conn.last_activity + idle
        };
        if let Some(wheel) = self.wheel.as_mut() {
            wheel.schedule(token, deadline, now);
        }
    }

    /// Update poller interest if it changed; on failure the connection
    /// is closed and `false` returned.
    fn update_interest(&mut self, token: u64, want: Interest) -> bool {
        let fd = {
            let Some(conn) = self.conns.get(&token) else { return false };
            if conn.interest == want {
                return true;
            }
            poller::raw_fd(&conn.stream)
        };
        if self.poller.modify(fd, token, want).is_err() {
            self.close_conn(token, false);
            return false;
        }
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.interest = want;
        }
        true
    }

    fn close_conn(&mut self, token: u64, idle: bool) {
        let Some(conn) = self.conns.remove(&token) else { return };
        let _ = self.poller.deregister(poller::raw_fd(&conn.stream));
        self.shared.stats.closed.fetch_add(1, Ordering::Relaxed);
        self.shared.stats.open.fetch_sub(1, Ordering::Relaxed);
        if idle {
            self.shared.stats.idle_closed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SmallRng;
    use std::io::BufRead;
    use std::net::Shutdown;
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    struct Echo {
        fast_hits: Arc<AtomicUsize>,
    }

    impl Echo {
        fn new() -> Echo {
            Echo { fast_hits: Arc::new(AtomicUsize::new(0)) }
        }
    }

    impl Service for Echo {
        type Job = String;

        fn classify(&self, frame: String) -> Classified<String> {
            if frame.starts_with("fast:") {
                self.fast_hits.fetch_add(1, Ordering::SeqCst);
                return Classified::Inline(Reply::send(frame));
            }
            Classified::Dispatch(frame)
        }

        fn handle(&self, frame: String) -> Reply {
            match frame.as_str() {
                "quit" => Reply::send_and_close("bye".into()),
                "boom" => panic!("handler exploded (expected by test)"),
                "big" => Reply::send("B".repeat(96 * 1024 * 1024)),
                f => Reply::send(format!("echo:{f}")),
            }
        }

        fn decode_error_reply(&self, err: &DecodeError) -> String {
            match err {
                DecodeError::FrameTooLong { len, max } => format!("err:too_long:{len}:{max}"),
                DecodeError::NotUtf8 => "err:not_utf8".into(),
            }
        }
    }

    struct Running {
        addr: std::net::SocketAddr,
        handle: ReactorHandle,
        thread: std::thread::JoinHandle<io::Result<()>>,
    }

    fn start(config: ReactorConfig) -> Running {
        start_with(Echo::new(), config)
    }

    fn start_with<S: Service>(service: S, config: ReactorConfig) -> Running {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reactor = Reactor::new(listener, service, config).unwrap();
        let handle = reactor.handle();
        let thread = std::thread::spawn(move || reactor.run());
        Running { addr, handle, thread }
    }

    fn finish(r: Running) {
        r.handle.shutdown();
        r.thread.join().unwrap().unwrap();
    }

    fn read_line(reader: &mut impl BufRead) -> Option<String> {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(line.trim_end().to_string()),
            Err(e) => panic!("read_line: {e}"),
        }
    }

    #[test]
    fn echo_roundtrips_and_pipelined_frames_reply_in_order() {
        let r = start(ReactorConfig::default());
        let sock = TcpStream::connect(r.addr).unwrap();
        let mut reader = io::BufReader::new(sock.try_clone().unwrap());

        // Three pipelined frames in one write: replies must come back in
        // order even though each dispatch is a separate pool job.
        (&sock).write_all(b"a\nb\nc\n").unwrap();
        assert!(read_line(&mut reader).unwrap().ends_with(":a"));
        assert!(read_line(&mut reader).unwrap().ends_with(":b"));
        assert!(read_line(&mut reader).unwrap().ends_with(":c"));

        (&sock).write_all(b"quit\n").unwrap();
        assert_eq!(read_line(&mut reader).unwrap(), "bye");
        assert_eq!(read_line(&mut reader), None, "terminal reply closes");
        assert_eq!(r.handle.frames(), 4);
        finish(r);
    }

    #[test]
    fn unterminated_final_frame_is_served_before_the_close() {
        let r = start(ReactorConfig::default());
        let sock = TcpStream::connect(r.addr).unwrap();
        let mut reader = io::BufReader::new(sock.try_clone().unwrap());
        (&sock).write_all(b"last-words").unwrap();
        sock.shutdown(Shutdown::Write).unwrap();
        assert!(read_line(&mut reader).unwrap().ends_with(":last-words"));
        assert_eq!(read_line(&mut reader), None);
        finish(r);
    }

    #[test]
    fn oversized_frame_gets_a_typed_reply_then_close() {
        let config = ReactorConfig { max_frame: 64, ..ReactorConfig::default() };
        let r = start(config);
        let sock = TcpStream::connect(r.addr).unwrap();
        let mut reader = io::BufReader::new(sock.try_clone().unwrap());
        (&sock).write_all(&[b'x'; 200]).unwrap();
        assert_eq!(read_line(&mut reader).unwrap(), "err:too_long:65:64");
        assert_eq!(read_line(&mut reader), None, "no resync inside a lost frame");
        finish(r);
    }

    #[test]
    fn silent_connection_is_idle_closed_and_counted() {
        let config =
            ReactorConfig { idle_timeout: Some(Duration::from_millis(150)), ..Default::default() };
        let r = start(config);
        let sock = TcpStream::connect(r.addr).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = io::BufReader::new(sock.try_clone().unwrap());
        // Never send a byte: the wheel must close us.
        assert_eq!(read_line(&mut reader), None);
        assert_eq!(r.handle.idle_closed(), 1);

        // A half-fed frame (slowloris) is idle too.
        let sock = TcpStream::connect(r.addr).unwrap();
        (&sock).write_all(b"{\"op\":").unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut reader = io::BufReader::new(sock.try_clone().unwrap());
        assert_eq!(read_line(&mut reader), None);
        assert_eq!(r.handle.idle_closed(), 2);
        assert_eq!(r.handle.open(), 0);
        finish(r);
    }

    /// Satellite bugfix regression: a client draining a reply much larger
    /// than the socket buffers, slowly but with steady progress, must
    /// never be idle-closed mid-flush — successful writes are activity.
    /// The drain takes several idle horizons end to end; only the
    /// write-progress refresh keeps the connection alive through it.
    #[test]
    fn slow_draining_client_with_write_progress_is_not_idle_closed() {
        let config = ReactorConfig {
            idle_timeout: Some(Duration::from_millis(400)),
            ..ReactorConfig::default()
        };
        let r = start(config);
        let sock = TcpStream::connect(r.addr).unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        (&sock).write_all(b"big\n").unwrap();

        let total = 96 * 1024 * 1024 + 1; // reply body + newline
        let mut seen = 0usize;
        let mut buf = vec![0u8; 1024 * 1024];
        let t0 = Instant::now();
        while seen < total {
            let n = (&sock).read(&mut buf).expect("reply must keep flowing");
            assert!(n > 0, "connection closed after {seen}/{total} bytes");
            seen += n;
            std::thread::sleep(Duration::from_millis(8));
        }
        assert!(
            t0.elapsed() > Duration::from_millis(400),
            "drain finished inside one idle horizon; the test lost its teeth"
        );
        assert_eq!(seen, total);
        assert_eq!(r.handle.idle_closed(), 0, "write progress must count as activity");
        finish(r);
    }

    #[test]
    fn a_panicking_handler_closes_only_its_connection() {
        let r = start(ReactorConfig::default());
        let sock = TcpStream::connect(r.addr).unwrap();
        let mut reader = io::BufReader::new(sock.try_clone().unwrap());
        (&sock).write_all(b"boom\n").unwrap();
        assert_eq!(read_line(&mut reader), None, "panic closes with no reply");

        // The reactor and its dispatchers are still alive.
        let sock = TcpStream::connect(r.addr).unwrap();
        let mut reader = io::BufReader::new(sock.try_clone().unwrap());
        (&sock).write_all(b"still-here\n").unwrap();
        assert!(read_line(&mut reader).unwrap().ends_with(":still-here"));
        finish(r);
    }

    #[test]
    fn shutdown_with_zero_clients_completes_promptly() {
        let r = start(ReactorConfig::default());
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let handle = r.handle.clone();
        let thread = r.thread;
        std::thread::spawn(move || {
            handle.shutdown();
            let _ = done_tx.send(thread.join().unwrap());
        });
        let res = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("shutdown must not wait for a follow-on client");
        res.unwrap();
        // New connections are refused once the listener is gone.
        assert!(TcpStream::connect(r.addr).is_err());
    }

    #[test]
    fn connection_churn_leaves_nothing_behind() {
        let r = start(ReactorConfig::default());
        for i in 0..100 {
            let sock = TcpStream::connect(r.addr).unwrap();
            let mut reader = io::BufReader::new(sock.try_clone().unwrap());
            (&sock).write_all(format!("req-{i}\n").as_bytes()).unwrap();
            assert!(read_line(&mut reader).unwrap().ends_with(&format!(":req-{i}")));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while r.handle.open() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(r.handle.open(), 0, "all churned connections reaped");
        assert_eq!(r.handle.accepted(), 100);
        assert_eq!(r.handle.closed(), 100);
        finish(r);
    }

    /// A service whose handler latency is a deterministic hash of the
    /// frame, so adjacent pipelined frames complete on the dispatchers in
    /// thoroughly shuffled order.
    struct Jitter;

    impl Service for Jitter {
        type Job = String;

        fn classify(&self, frame: String) -> Classified<String> {
            Classified::Dispatch(frame)
        }

        fn handle(&self, frame: String) -> Reply {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in frame.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            std::thread::sleep(Duration::from_micros(h % 2500));
            Reply::send(format!("ok:{frame}"))
        }

        fn decode_error_reply(&self, _err: &DecodeError) -> String {
            "err:decode".into()
        }
    }

    /// Pipelined-ordering property: N frames written in randomly sized
    /// chunks, completed by the dispatchers in shuffled order, must come
    /// back byte-identical and in request order.
    #[test]
    fn shuffled_dispatcher_completions_release_replies_in_request_order() {
        let mut rng = SmallRng::seed_from_u64(0x5049_5045); // "PIPE"
        for trial in 0..4 {
            let r =
                start_with(Jitter, ReactorConfig { pipeline_depth: 8, ..ReactorConfig::default() });
            let sock = TcpStream::connect(r.addr).unwrap();
            sock.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            let mut reader = io::BufReader::new(sock.try_clone().unwrap());

            let n = 40;
            let wire: Vec<u8> =
                (0..n).flat_map(|i| format!("t{trial}-f{i}\n").into_bytes()).collect();
            // Deliver the stream in random-size chunks so frames split at
            // arbitrary byte boundaries across reads.
            let mut off = 0;
            while off < wire.len() {
                let take = rng.range(1, 17).min(wire.len() - off);
                (&sock).write_all(&wire[off..off + take]).unwrap();
                off += take;
            }
            for i in 0..n {
                assert_eq!(
                    read_line(&mut reader).unwrap(),
                    format!("ok:t{trial}-f{i}"),
                    "reply {i} out of order (trial {trial})"
                );
            }
            assert_eq!(r.handle.frames(), n);
            finish(r);
        }
    }

    /// Inline replies interleave with dispatched ones without breaking
    /// request order, and skip the pool entirely.
    #[test]
    fn fast_path_replies_inline_and_preserve_order_with_dispatched_frames() {
        let echo = Echo::new();
        let fast_hits = Arc::clone(&echo.fast_hits);
        let r = start_with(echo, ReactorConfig { pipeline_depth: 4, ..ReactorConfig::default() });
        let sock = TcpStream::connect(r.addr).unwrap();
        let mut reader = io::BufReader::new(sock.try_clone().unwrap());

        (&sock).write_all(b"slow-1\nfast:x\nslow-2\nfast:y\n").unwrap();
        assert_eq!(read_line(&mut reader).unwrap(), "echo:slow-1");
        assert_eq!(read_line(&mut reader).unwrap(), "fast:x");
        assert_eq!(read_line(&mut reader).unwrap(), "echo:slow-2");
        assert_eq!(read_line(&mut reader).unwrap(), "fast:y");
        assert_eq!(r.handle.frames(), 4, "inline frames count too");
        assert_eq!(fast_hits.load(Ordering::SeqCst), 2);
        finish(r);
    }

    /// Write coalescing: a burst of inline replies leaves in far fewer
    /// vectored writes than replies, and the batch histogram sees it.
    #[test]
    fn pipelined_replies_coalesce_into_vectored_writes() {
        let hist = Arc::new(Histogram::new(&[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]));
        let r = start_with(
            Echo::new(),
            ReactorConfig {
                pipeline_depth: 8,
                flush_batch: Some(Arc::clone(&hist)),
                ..ReactorConfig::default()
            },
        );
        let sock = TcpStream::connect(r.addr).unwrap();
        let mut reader = io::BufReader::new(sock.try_clone().unwrap());
        // Eight inline-answerable frames sent in one write: when they
        // arrive in one read the reactor answers them in one advance pass
        // and flushes them together. The kernel may split the burst
        // across reads on a loaded machine, so retry until a burst lands
        // intact — coalescing must happen on at least one of them.
        let burst: String = (0..8).map(|i| format!("fast:{i}\n")).collect();
        let mut coalesced = false;
        for _ in 0..20 {
            let before = hist.snapshot();
            (&sock).write_all(burst.as_bytes()).unwrap();
            for i in 0..8 {
                assert_eq!(read_line(&mut reader).unwrap(), format!("fast:{i}"));
            }
            // The histogram is observed on the reactor thread just after
            // the write syscall, so the client can read the replies
            // before the observation lands — wait for it.
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut after = hist.snapshot();
            while after.sum - before.sum < 8.0 && Instant::now() < deadline {
                thread::sleep(Duration::from_millis(1));
                after = hist.snapshot();
            }
            assert!(
                after.sum - before.sum >= 8.0,
                "all eight reply buffers must pass through vectored writes, saw {}",
                after.sum - before.sum
            );
            if after.count - before.count <= 4 {
                coalesced = true;
                break;
            }
        }
        assert!(coalesced, "no burst of eight pipelined replies ever coalesced its flushes");
        finish(r);
    }
}
