//! The shard router: one front end speaking the daemon's own NDJSON/TCP
//! protocol, fanning work out over N member daemons.
//!
//! This is the harness-side analogue of the SX-4's IXS crossbar (paper
//! §1): clients talk to one address; each `submit` is routed by the
//! rendezvous [`Ring`] over its content-addressed cache key to the member
//! that owns the keyspace, so identical configurations always land on the
//! same shard and its cache/single-flight machinery dedupes cluster-wide.
//! `stats` and `metrics` fan out to every live member and merge (see
//! [`super::aggregate`]); `drain` with a `member` retires one shard and
//! hands its durable results to the keyspace successors, so repeat
//! submits of the drained member's keys still hit — byte-identically.
//!
//! The router serves on the same [`ncar_suite::reactor`] event loop as
//! the member daemons. Forwarding rides *multiplexed* member connections:
//! one socket per member, shared by every client request, with a reader
//! thread per member pairing replies to requests in wire order. A forward
//! registers its reply waiter and writes its frame in one atomic step
//! under the member's `sxd.router.mux` lock, then awaits the reply off
//! every lock — so N concurrent forwards to one member pipeline into a
//! single socket instead of paying one connection (and one serial round
//! trip) each. Fan-out verbs (`stats`/`metrics`) and the drain hand-off's
//! `put` replication use the same machinery in two phases: send
//! everything, then collect everything, turning N round trips into one
//! send burst plus one collect sweep.
//!
//! Each frame is parsed once, by [`classify`] on the reactor thread.
//! `route` and parse errors are pure ring math — no member I/O — so they
//! are answered inline there (counted in `fastpath_hits`); everything else
//! dispatches with the parsed request and its original frame, so forwards
//! stay byte-identical.
//!
//! The router's long-lived locks (`sxd.router.members`,
//! `sxd.router.handles`, `sxd.router.counters`, `sxd.router.reactor`,
//! and the per-member `sxd.router.mux` slots) are all leaves: none is
//! ever held while acquiring another. Dials, joins and reply waits are
//! declared via `lockreg::blocking_io` with no lock held; the one
//! exemption is the mux frame write itself, which — like the journal's
//! append — holds exactly the lock that *is* the wire-order guard.

use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use ncar_suite::par::lockreg;
use ncar_suite::reactor::{
    Classified, DecodeError, Reactor, ReactorConfig, ReactorHandle, Reply, Service,
};
use ncar_suite::{plock_named, Json};
use sxsim::presets;

use super::aggregate;
use super::ring::Ring;
use crate::client::Client;
use crate::error::SxdError;
use crate::journal::{self, Journal};
use crate::proto::{cache_key, read_frame, Request, MAX_REPLY_FRAME, MAX_REQUEST_FRAME};

/// How the router dials a member: a few quick retries so member startup
/// races (the member thread is still binding) resolve without failing the
/// client's request.
const CONNECT_ATTEMPTS: usize = 5;
const CONNECT_BACKOFF: Duration = Duration::from_millis(20);

/// Join handle for an in-process member daemon, `None` for shards this
/// process does not own. A hand-off joins the handle so the drained
/// member's journal is final before replication starts.
pub type MemberHandle = Option<JoinHandle<Result<(), SxdError>>>;

/// One shard as the router addresses it.
#[derive(Debug, Clone)]
pub struct RouterMember {
    /// Ring name (`shard-i` by default); feeds the rendezvous scores.
    pub name: String,
    /// Wire address of the member daemon.
    pub addr: String,
    /// The member's durable state directory, read at hand-off time.
    pub state_dir: Option<PathBuf>,
}

/// Live membership state, guarded by `sxd.router.members`.
struct MemberSlot {
    addr: String,
    state_dir: Option<PathBuf>,
    alive: bool,
}

/// Router-side tallies, guarded by `sxd.router.counters`.
#[derive(Debug, Default, Clone)]
struct RouterCounters {
    forwarded: u64,
    bad_requests: u64,
    /// Journal entries replicated to successors by hand-offs.
    handoff_entries: u64,
    /// Hand-off entries skipped (oversized for a request frame); their
    /// keys recompute on the successor instead of replaying.
    handoff_skipped: u64,
    /// Checkpointed restart specs re-submitted across the ring.
    handoff_resubmits: u64,
    unavailable: u64,
    /// Frames [`classify`] answered inline on the reactor thread (`route`,
    /// parse errors): pure ring math, no member I/O.
    fastpath_hits: u64,
}

/// One multiplexed member connection: the shared writer half, plus the
/// queue handing each request's reply waiter to the reader thread. Reply
/// pairing is positional — waiters are registered in the same order their
/// frames hit the wire (both under the `sxd.router.mux` lock), and the
/// member answers each connection strictly in request order.
struct MuxState {
    writer: TcpStream,
    waiters: mpsc::Sender<ReplyTx>,
}

type ReplyTx = mpsc::Sender<Result<String, SxdError>>;
type ReplyRx = mpsc::Receiver<Result<String, SxdError>>;

struct RouterInner {
    ring: Ring,
    members: Mutex<Vec<MemberSlot>>,
    /// Multiplexed member connections, one slot per member, each guarded
    /// by its own `sxd.router.mux` lock (a leaf; see module docs).
    muxes: Vec<Mutex<Option<MuxState>>>,
    /// Join handles for in-process members, one slot per member.
    handles: Mutex<Vec<MemberHandle>>,
    counters: Mutex<RouterCounters>,
    /// Handle of the running reactor, installed by [`Router::run`]. A
    /// leaf lock, like every router lock (see module docs).
    reactor: Mutex<Option<ReactorHandle>>,
    addr: SocketAddr,
    shutting_down: AtomicBool,
    drain_deadline: Duration,
    idle_timeout: Option<Duration>,
    dispatchers: usize,
    pipeline_depth: usize,
}

/// A bound, not-yet-running router. [`Router::run`] blocks until a
/// `shutdown` (or a full-cluster `drain`) retires every member and the
/// router itself.
pub struct Router {
    listener: TcpListener,
    inner: Arc<RouterInner>,
}

impl Router {
    /// Bind the router over `members`. `handles` pairs with `members` by
    /// index; pass `None` for shards this process does not own.
    /// `dispatchers == 0` auto-sizes (the router does no compute of its
    /// own — dispatchers only hold blocking forward I/O).
    /// `pipeline_depth` is the per-client-connection frame window, as on
    /// the member daemons ([`crate::ServerConfig::pipeline_depth`]).
    #[allow(clippy::too_many_arguments)]
    pub fn bind(
        members: Vec<RouterMember>,
        handles: Vec<MemberHandle>,
        addr: &str,
        drain_deadline: Duration,
        idle_timeout: Option<Duration>,
        dispatchers: usize,
        pipeline_depth: usize,
    ) -> Result<Router, SxdError> {
        assert_eq!(members.len(), handles.len(), "one handle slot per member");
        let dispatchers = if dispatchers == 0 { 8 } else { dispatchers };
        let listener = TcpListener::bind(addr).map_err(SxdError::io)?;
        let local = listener.local_addr().map_err(SxdError::io)?;
        let ring = Ring::new(members.iter().map(|m| m.name.clone()).collect::<Vec<_>>());
        let muxes = members.iter().map(|_| Mutex::new(None)).collect();
        let slots = members
            .into_iter()
            .map(|m| MemberSlot { addr: m.addr, state_dir: m.state_dir, alive: true })
            .collect();
        Ok(Router {
            listener,
            inner: Arc::new(RouterInner {
                ring,
                members: Mutex::new(slots),
                muxes,
                handles: Mutex::new(handles),
                counters: Mutex::new(RouterCounters::default()),
                reactor: Mutex::new(None),
                addr: local,
                shutting_down: AtomicBool::new(false),
                drain_deadline,
                idle_timeout,
                dispatchers,
                pipeline_depth: pipeline_depth.max(1),
            }),
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Serve on the reactor event loop until a `shutdown` (or a
    /// full-cluster `drain`) retires every member and the router itself.
    /// A frame's forwarding I/O runs on a dispatcher thread, never on the
    /// event loop; `route` and parse errors answer inline ([`classify`]).
    pub fn run(self) -> Result<(), SxdError> {
        let inner = Arc::clone(&self.inner);
        let reactor = Reactor::new(
            self.listener,
            RouterService { inner: Arc::clone(&self.inner) },
            ReactorConfig {
                max_frame: MAX_REQUEST_FRAME,
                idle_timeout: inner.idle_timeout,
                dispatchers: inner.dispatchers,
                pipeline_depth: inner.pipeline_depth,
                ..ReactorConfig::default()
            },
        )
        .map_err(SxdError::io)?;
        let handle = reactor.handle();
        *plock_named(&inner.reactor, "sxd.router.reactor") = Some(handle.clone());
        // Cover a shutdown that raced with startup: the flag flip may have
        // happened before the handle was installed.
        if inner.shutting_down.load(Ordering::SeqCst) {
            handle.shutdown();
        }
        let res = reactor.run().map_err(SxdError::io);
        *plock_named(&inner.reactor, "sxd.router.reactor") = None;
        // Retire the member muxes (their reader threads exit on the
        // socket shutdown), then join whatever member threads a shutdown
        // fan-out left running.
        for idx in 0..inner.ring.len() {
            kill_mux(&inner, idx);
        }
        for h in drain_handles(&inner) {
            let _ = h.join();
        }
        res
    }
}

/// The router as a [`Service`]: connections carry no per-connection state
/// (member sockets are multiplexed router-wide), so `Conn` is `()`.
struct RouterService {
    inner: Arc<RouterInner>,
}

impl Service for RouterService {
    type Conn = ();
    /// The parsed request and the frame it came from.
    type Job = (Request, String);

    fn open(&self, _id: u64) {}

    fn classify(&self, _conn: &(), frame: String) -> Classified<(Request, String)> {
        classify(&self.inner, frame)
    }

    fn handle(&self, _conn: &(), (req, frame): (Request, String)) -> Reply {
        Reply::send(handle(&self.inner, req, &frame))
    }

    fn decode_error_reply(&self, err: &DecodeError) -> String {
        SxdError::from(err).to_reply()
    }
}

/// Take every remaining member join handle out of the registry.
fn drain_handles(inner: &RouterInner) -> Vec<JoinHandle<Result<(), SxdError>>> {
    plock_named(&inner.handles, "sxd.router.handles").iter_mut().filter_map(Option::take).collect()
}

/// The reader half of one member mux: pairs replies to waiters in wire
/// order. Exits on member EOF or a read error; dropping the waiter queue
/// Receiver then disconnects every parked or future waiter (their channel
/// recv/send errors), so nothing can wait forever on a dead connection.
fn mux_reader(sock: TcpStream, waiters: mpsc::Receiver<ReplyTx>) {
    let mut reader = BufReader::new(sock);
    while let Ok(waiter) = waiters.recv() {
        match read_frame(&mut reader, MAX_REPLY_FRAME) {
            Ok(Some(line)) => {
                let _ = waiter.send(Ok(line));
            }
            Ok(None) => {
                let _ = waiter.send(Err(SxdError::Io {
                    detail: "member closed the multiplexed connection".into(),
                }));
                break;
            }
            Err(e) => {
                let _ = waiter.send(Err(e));
                break;
            }
        }
    }
}

/// Dial a member with the standard retry schedule (no lock held).
fn dial(addr: &str) -> Result<TcpStream, SxdError> {
    let mut delay = CONNECT_BACKOFF;
    let mut last = String::new();
    for attempt in 0..CONNECT_ATTEMPTS {
        match TcpStream::connect(addr) {
            Ok(s) => {
                // Forwards are small frames pipelined back-to-back; never
                // let Nagle hold one hostage to the previous one's ACK.
                let _ = s.set_nodelay(true);
                return Ok(s);
            }
            Err(e) => last = e.to_string(),
        }
        if attempt + 1 < CONNECT_ATTEMPTS {
            std::thread::sleep(delay);
            delay = (delay * 2).min(Duration::from_secs(1));
        }
    }
    Err(SxdError::Retries { attempts: CONNECT_ATTEMPTS, detail: format!("{addr}: {last}") })
}

/// Stand a freshly dialed socket up as member `idx`'s mux. If a
/// concurrent dialer won the race, its state stays and ours retires (the
/// dropped waiter Sender exits our reader thread).
fn install_mux(inner: &RouterInner, idx: usize, sock: TcpStream) -> Result<(), SxdError> {
    let reader_sock = sock.try_clone().map_err(SxdError::io)?;
    let (wtx, wrx) = mpsc::channel();
    std::thread::spawn(move || mux_reader(reader_sock, wrx));
    let mut slot = plock_named(&inner.muxes[idx], "sxd.router.mux");
    if slot.is_none() {
        *slot = Some(MuxState { writer: sock, waiters: wtx });
    }
    Ok(())
}

/// Retire member `idx`'s mux. The explicit shutdown matters: the reader
/// thread shares the socket via `try_clone`, so only a shutdown (not a
/// drop of our half) wakes it out of a blocked read.
fn kill_mux(inner: &RouterInner, idx: usize) {
    let state = plock_named(&inner.muxes[idx], "sxd.router.mux").take();
    if let Some(s) = state {
        let _ = s.writer.shutdown(Shutdown::Both);
    }
}

/// Try to enqueue one frame on member `idx`'s existing mux. `Ok(None)`
/// means there is no usable mux (none installed, or its reader exited) —
/// dial and retry. `Err` means the write itself failed; the slot is
/// cleared so the next attempt redials.
fn try_enqueue(inner: &RouterInner, idx: usize, line: &str) -> Result<Option<ReplyRx>, SxdError> {
    let mut slot = plock_named(&inner.muxes[idx], "sxd.router.mux");
    let Some(state) = slot.as_mut() else { return Ok(None) };
    let (tx, rx) = mpsc::channel();
    if state.waiters.send(tx).is_err() {
        // The reader noticed the socket die first and exited.
        *slot = None;
        return Ok(None);
    }
    // Waiter registration and the frame write are one atomic step under
    // the mux lock: that is what pairs replies with requests in wire
    // order when forwards interleave. Holding the mux lock across this
    // write is therefore by design — the lock *is* the wire-order guard —
    // and exempted the same way as the journal's append lock.
    lockreg::blocking_io("sxd.router.mux.send", &["sxd.router.mux"]);
    let mut buf = Vec::with_capacity(line.len() + 1);
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    if let Err(e) = state.writer.write_all(&buf) {
        *slot = None;
        return Err(SxdError::io(e));
    }
    Ok(Some(rx))
}

/// Put one frame on member `idx`'s wire and return the receiver its reply
/// will arrive on. Dials (outside every lock) when no mux is up. This is
/// the *send phase*; pair it with [`mux_recv`] — possibly after sending
/// more frames first, which is exactly how forwards pipeline.
fn mux_send(inner: &RouterInner, idx: usize, line: &str) -> Result<ReplyRx, SxdError> {
    let (addr, alive) = {
        let members = plock_named(&inner.members, "sxd.router.members");
        (members[idx].addr.clone(), members[idx].alive)
    };
    if !alive {
        return Err(SxdError::ShardUnavailable {
            member: inner.ring.name(idx).to_string(),
            detail: "member has left the ring".into(),
        });
    }
    if let Some(rx) = try_enqueue(inner, idx, line)? {
        return Ok(rx);
    }
    lockreg::blocking_io("sxd.router.dial", &[]);
    let sock = dial(&addr)?;
    install_mux(inner, idx, sock)?;
    match try_enqueue(inner, idx, line)? {
        Some(rx) => Ok(rx),
        None => Err(SxdError::ShardUnavailable {
            member: inner.ring.name(idx).to_string(),
            detail: "member closed the multiplexed connection while dialing".into(),
        }),
    }
}

/// The *collect phase*: await one reply off every lock.
fn mux_recv(rx: ReplyRx) -> Result<String, SxdError> {
    lockreg::blocking_io("sxd.router.recv", &[]);
    rx.recv().unwrap_or_else(|_| {
        Err(SxdError::Io { detail: "multiplexed member connection closed".into() })
    })
}

/// Forward one raw frame to member `idx` and return the raw reply. The
/// line goes through verbatim, so a member's reply — including a cache
/// hit's exact payload bytes — passes back unmodified. One failed round
/// retires the mux and retries on a fresh dial.
fn forward(inner: &RouterInner, idx: usize, line: &str) -> Result<String, SxdError> {
    let mut last = String::new();
    for _attempt in 0..2 {
        let outcome = mux_send(inner, idx, line).and_then(mux_recv);
        match outcome {
            Ok(reply) => {
                plock_named(&inner.counters, "sxd.router.counters").forwarded += 1;
                return Ok(reply);
            }
            Err(e) => {
                kill_mux(inner, idx);
                last = e.detail();
            }
        }
    }
    plock_named(&inner.counters, "sxd.router.counters").unavailable += 1;
    Err(SxdError::ShardUnavailable { member: inner.ring.name(idx).to_string(), detail: last })
}

/// Resolve the key's owner among live members, or the typed reason there
/// is none.
fn owner_of(inner: &RouterInner, key: u64) -> Result<usize, SxdError> {
    let members = plock_named(&inner.members, "sxd.router.members");
    inner.ring.owner_among(key, |m| members[m].alive).ok_or_else(|| SxdError::ShardUnavailable {
        member: "(none)".into(),
        detail: "no live shard members remain".into(),
    })
}

/// Answer a `route` request: ring math only. Counts its own `bad_requests`.
fn route_reply(
    inner: &RouterInner,
    suite: &str,
    machine: &str,
    params: &std::collections::BTreeMap<String, String>,
) -> String {
    let Some(model) = presets::by_name(machine) else {
        plock_named(&inner.counters, "sxd.router.counters").bad_requests += 1;
        return SxdError::UnknownMachine { machine: machine.to_string() }.to_reply();
    };
    let key = cache_key(suite, &model, params);
    match owner_of(inner, key) {
        Ok(owner) => format!(
            "{{\"ok\":true,\"member\":{owner},\"shard\":\"{}\",\"key\":\"{key:016x}\"}}",
            inner.ring.name(owner)
        ),
        Err(e) => e.to_reply(),
    }
}

/// Forward `frame` to the live owner of `key`, rendering any failure.
fn forward_to_owner(inner: &RouterInner, key: u64, frame: &str) -> String {
    owner_of(inner, key)
        .and_then(|owner| forward(inner, owner, frame))
        .unwrap_or_else(|e| e.to_reply())
}

/// Parse one frame on the reactor thread. Frames that need no member
/// I/O — `route` and parse errors — answer inline; everything else
/// dispatches with its original frame.
fn classify(inner: &RouterInner, frame: String) -> Classified<(Request, String)> {
    let line = match Request::parse(&frame) {
        Err(e) => {
            plock_named(&inner.counters, "sxd.router.counters").bad_requests += 1;
            e.to_reply()
        }
        Ok(Request::Route { suite, machine, params }) => {
            route_reply(inner, &suite, &machine, &params)
        }
        Ok(req) => return Classified::Dispatch((req, frame)),
    };
    plock_named(&inner.counters, "sxd.router.counters").fastpath_hits += 1;
    Classified::Inline(Reply::send(line))
}

/// Finish a dispatched request on a dispatcher thread. `frame` is the
/// client's own line, forwarded verbatim.
fn handle(inner: &Arc<RouterInner>, req: Request, frame: &str) -> String {
    match req {
        Request::Submit { suite, machine, params } => {
            let Some(model) = presets::by_name(&machine) else {
                plock_named(&inner.counters, "sxd.router.counters").bad_requests += 1;
                return SxdError::UnknownMachine { machine }.to_reply();
            };
            forward_to_owner(inner, cache_key(&suite, &model, &params), frame)
        }
        Request::Put { key, .. } => forward_to_owner(inner, key, frame),
        Request::Route { .. } => unreachable!("classify answers route inline"),
        Request::Stats => match fanout_docs(inner, &Request::Stats.to_line(), "stats") {
            Ok(docs) => {
                // Splice the router's own tallies into the merged stats
                // object as an extra `router` member.
                let mut merged = aggregate::merge_stats(&docs);
                merged.pop(); // drop the closing brace
                let router = router_json(inner);
                format!("{{\"ok\":true,\"stats\":{merged},\"router\":{router}}}}}")
            }
            Err(e) => e.to_reply(),
        },
        Request::Metrics => match fanout_docs(inner, &Request::Metrics.to_line(), "metrics") {
            Ok(docs) => {
                let merged = aggregate::merge_metrics(&docs);
                format!("{{\"ok\":true,\"metrics\":{merged}}}")
            }
            Err(e) => e.to_reply(),
        },
        Request::Shutdown => {
            shutdown_cluster(inner);
            "{\"ok\":true,\"shutting_down\":true}".into()
        }
        Request::Drain { deadline_ms, member: Some(idx) } => {
            let deadline = deadline_ms.map(Duration::from_millis).unwrap_or(inner.drain_deadline);
            match drain_member(inner, idx, deadline) {
                Ok(reply) => reply,
                Err(e) => e.to_reply(),
            }
        }
        Request::Drain { deadline_ms, member: None } => {
            // Cluster-wide graceful drain: every member drains (each
            // checkpointing its own stragglers), then the router follows.
            let deadline = deadline_ms.map(Duration::from_millis).unwrap_or(inner.drain_deadline);
            let alive: Vec<usize> = {
                let members = plock_named(&inner.members, "sxd.router.members");
                (0..members.len()).filter(|&m| members[m].alive).collect()
            };
            let ms = Some(deadline.as_millis() as u64);
            let line = Request::Drain { deadline_ms: ms, member: None }.to_line();
            for idx in alive {
                let _ = forward(inner, idx, &line);
            }
            let inner2 = Arc::clone(inner);
            std::thread::spawn(move || {
                for h in drain_handles(&inner2) {
                    let _ = h.join();
                }
                initiate_shutdown(&inner2);
            });
            format!("{{\"ok\":true,\"draining\":true,\"deadline_ms\":{}}}", deadline.as_millis())
        }
    }
}

/// The router's own counters, for the `router` member of a stats reply.
fn router_json(inner: &RouterInner) -> String {
    let c = plock_named(&inner.counters, "sxd.router.counters").clone();
    let alive =
        plock_named(&inner.members, "sxd.router.members").iter().filter(|m| m.alive).count();
    // Leaf lock, read and released before formatting; never nested.
    let (conns_open, conns_accepted, conns_idle_closed) = {
        match plock_named(&inner.reactor, "sxd.router.reactor").as_ref() {
            Some(h) => (h.open(), h.accepted(), h.idle_closed()),
            None => (0, 0, 0),
        }
    };
    format!(
        "{{\"forwarded\":{},\"bad_requests\":{},\"handoff_entries\":{},\
         \"handoff_skipped\":{},\"handoff_resubmits\":{},\"unavailable\":{},\
         \"fastpath_hits\":{},\
         \"conns\":{{\"open\":{conns_open},\"accepted\":{conns_accepted},\
         \"idle_closed\":{conns_idle_closed}}},\
         \"members_alive\":{alive},\"members_total\":{}}}",
        c.forwarded,
        c.bad_requests,
        c.handoff_entries,
        c.handoff_skipped,
        c.handoff_resubmits,
        c.unavailable,
        c.fastpath_hits,
        inner.ring.len(),
    )
}

/// Send `line` to every live member and collect the named reply member
/// from each — pipelined: every member gets the frame before any reply is
/// awaited, so the fan-out costs one round trip, not one per member. A
/// member whose mux round fails is retried once on a fresh connection via
/// [`forward`]; a member that stays unreachable fails the whole fan-out —
/// a partial stats view would silently break the reconciliation sums.
fn fanout_docs(inner: &RouterInner, line: &str, member_key: &str) -> Result<Vec<Json>, SxdError> {
    let alive: Vec<usize> = {
        let members = plock_named(&inner.members, "sxd.router.members");
        (0..members.len()).filter(|&m| members[m].alive).collect()
    };
    let sends: Vec<(usize, Result<ReplyRx, SxdError>)> =
        alive.into_iter().map(|idx| (idx, mux_send(inner, idx, line))).collect();
    let mut docs = Vec::with_capacity(sends.len());
    for (idx, sent) in sends {
        let reply = match sent.and_then(mux_recv) {
            Ok(r) => {
                plock_named(&inner.counters, "sxd.router.counters").forwarded += 1;
                r
            }
            Err(_) => {
                kill_mux(inner, idx);
                forward(inner, idx, line)?
            }
        };
        let doc = Json::parse(&reply)
            .map_err(|e| SxdError::BadJson { detail: format!("{} reply: {e}", member_key) })?;
        let member = doc.get(member_key).cloned().ok_or_else(|| SxdError::BadJson {
            detail: format!("member reply lacks \"{member_key}\""),
        })?;
        docs.push(member);
    }
    Ok(docs)
}

/// Fan `shutdown` out to every live member, then retire the router once
/// the member threads exit (asynchronously — the client gets its ack
/// immediately, like a single daemon's shutdown).
fn shutdown_cluster(inner: &Arc<RouterInner>) {
    let alive: Vec<usize> = {
        let members = plock_named(&inner.members, "sxd.router.members");
        (0..members.len()).filter(|&m| members[m].alive).collect()
    };
    for idx in alive {
        let _ = forward(inner, idx, &Request::Shutdown.to_line());
    }
    let inner2 = Arc::clone(inner);
    std::thread::spawn(move || {
        for h in drain_handles(&inner2) {
            let _ = h.join();
        }
        initiate_shutdown(&inner2);
    });
}

/// Flip the shutdown flag and wake the reactor. Idempotent (mirrors the
/// daemon's shutdown): the reactor stops accepting immediately, flushes
/// in-flight replies within its grace window, and exits.
fn initiate_shutdown(inner: &RouterInner) {
    if inner.shutting_down.swap(true, Ordering::SeqCst) {
        return;
    }
    let handle = plock_named(&inner.reactor, "sxd.router.reactor").clone();
    if let Some(h) = handle {
        h.shutdown();
    }
}

/// Drain one member and hand its keyspace off: mark it out of the ring,
/// let it drain (checkpointing its own stragglers), wait for it to exit,
/// then replicate its journal to the keys' new owners and re-submit its
/// checkpointed restart specs across the ring. Synchronous by design —
/// when the reply arrives, repeat submits of the drained member's keys
/// already hit their successors' caches byte-identically.
///
/// The journal replication is *batched*: every surviving entry's `put`
/// goes on its successor's wire first (the send phase), then the acks are
/// collected (the collect phase) — N entries cost one send burst plus one
/// sweep instead of N serial round trips. An entry whose mux round fails
/// is retried once on a fresh connection before failing the hand-off.
fn drain_member(inner: &RouterInner, idx: usize, deadline: Duration) -> Result<String, SxdError> {
    let (addr, state_dir) = {
        let mut members = plock_named(&inner.members, "sxd.router.members");
        let Some(slot) = members.get_mut(idx) else {
            return Err(SxdError::BadRequest {
                detail: format!("no member {idx}; the cluster has {}", inner.ring.len()),
            });
        };
        if !slot.alive {
            return Err(SxdError::ShardUnavailable {
                member: inner.ring.name(idx).to_string(),
                detail: "member already left the ring".into(),
            });
        }
        // Out of the ring first: new submits route to successors from
        // this instant, so nothing new lands on the draining member.
        slot.alive = false;
        (slot.addr.clone(), slot.state_dir.clone())
    };
    // The member is gone from the ring; its mux is dead weight now.
    kill_mux(inner, idx);

    // Ask the member to drain. Dial directly (not through the mux) so a
    // dead member is tolerated: it may have crashed, and hand-off of its
    // durable journal is exactly what recovers its keyspace.
    lockreg::blocking_io("sxd.router.drain", &[]);
    if let Ok(mut c) = Client::connect_with_retry(&addr, 2, CONNECT_BACKOFF) {
        let _ = c.drain(Some(deadline.as_millis() as u64));
    }

    // Wait for the member to finish draining so its journal is final.
    let handle =
        plock_named(&inner.handles, "sxd.router.handles").get_mut(idx).and_then(Option::take);
    lockreg::blocking_io("sxd.router.join", &[]);
    match handle {
        Some(h) => {
            let _ = h.join();
        }
        None => {
            // Externally-managed member: poll until its listener is gone.
            let t0 = std::time::Instant::now();
            while t0.elapsed() < deadline + Duration::from_secs(30) {
                if TcpStream::connect(&addr).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }

    // Replicate the drained member's durable results to each key's new
    // owner, newest append winning, and re-submit its checkpointed
    // stragglers. Without a state dir there is nothing durable to move —
    // the keyspace reassigns and recomputes on demand.
    let mut handed_off = 0u64;
    let mut skipped = 0u64;
    let mut resubmitted = 0u64;
    if let Some(dir) = state_dir {
        lockreg::blocking_io("sxd.router.handoff", &[]);
        if let Ok((_journal, entries)) = Journal::open(&dir) {
            let mut newest: Vec<(u64, String)> = Vec::new();
            for (key, payload) in entries {
                if let Some(slot) = newest.iter_mut().find(|(k, _)| *k == key) {
                    slot.1 = payload;
                } else {
                    newest.push((key, payload));
                }
            }
            // Send phase: pipeline every put onto its owner's wire.
            let mut batch: Vec<(usize, String, Result<ReplyRx, SxdError>)> = Vec::new();
            for (key, payload) in newest {
                let line = Request::Put { key, payload }.to_line();
                if line.len() > MAX_REQUEST_FRAME {
                    skipped += 1; // the successor recomputes this key on demand
                    continue;
                }
                let owner = owner_of(inner, key)?;
                let sent = mux_send(inner, owner, &line);
                batch.push((owner, line, sent));
            }
            // Collect phase: one ack per entry, retrying stragglers once.
            for (owner, line, sent) in batch {
                match sent.and_then(mux_recv) {
                    Ok(_) => {
                        plock_named(&inner.counters, "sxd.router.counters").forwarded += 1;
                    }
                    Err(_) => {
                        kill_mux(inner, owner);
                        forward(inner, owner, &line)?;
                    }
                }
                handed_off += 1;
            }
        }
        for spec in journal::load_restart_specs(&dir) {
            let Some(model) = presets::by_name(&spec.machine) else { continue };
            let params: std::collections::BTreeMap<String, String> =
                spec.params.iter().cloned().collect();
            let key = cache_key(&spec.suite, &model, &params);
            let owner = owner_of(inner, key)?;
            // A restart spec is full recompute anyway (fraction 0), so it
            // re-enters the cluster as a fresh submit at its new owner.
            let req = Request::Submit {
                suite: spec.suite.clone(),
                machine: spec.machine.clone(),
                params,
            };
            forward(inner, owner, &req.to_line())?;
            resubmitted += 1;
        }
        let _ = journal::clear_restart_specs(&dir);
    }
    {
        let mut c = plock_named(&inner.counters, "sxd.router.counters");
        c.handoff_entries += handed_off;
        c.handoff_skipped += skipped;
        c.handoff_resubmits += resubmitted;
    }
    Ok(format!(
        "{{\"ok\":true,\"drained\":{idx},\"shard\":\"{}\",\"handed_off\":{handed_off},\
         \"skipped\":{skipped},\"resubmitted\":{resubmitted}}}",
        inner.ring.name(idx)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The router's classification table over every verb: only `route`
    /// and parse errors answer inline; everything else dispatches with
    /// the client's frame byte-for-byte, so forwards stay identical.
    #[test]
    fn classify_answers_route_and_parse_errors_inline_only() {
        let members = (0..3)
            .map(|i| RouterMember {
                name: format!("shard-{i}"),
                addr: "127.0.0.1:1".into(),
                state_dir: None,
            })
            .collect();
        let handles = vec![None, None, None];
        let router =
            Router::bind(members, handles, "127.0.0.1:0", Duration::from_secs(1), None, 0, 1)
                .unwrap();
        let inner = &router.inner;
        let put = format!("{{\"op\":\"put\",\"key\":\"{:016x}\",\"result\":{{}}}}", 7u64);
        // (frame, inline, fastpath_hits delta, bad_requests delta)
        let table: &[(&str, bool, u64, u64)] = &[
            ("{\"op\":\"route\",\"suite\":\"fig5\"}", true, 1, 0),
            ("{\"op\":\"route\",\"suite\":\"fig5\",\"machine\":\"cray-2\"}", true, 1, 1),
            ("not json", true, 1, 1),
            ("{\"op\":\"nope\"}", true, 1, 1),
            ("{\"op\":\"submit\",\"suite\":\"fig5\",\"params\":{\"n\":3}}", false, 0, 0),
            (&put, false, 0, 0),
            ("{\"op\":\"stats\"}", false, 0, 0),
            ("{\"op\":\"metrics\"}", false, 0, 0),
            ("{\"op\":\"drain\",\"member\":1}", false, 0, 0),
            ("{\"op\":\"drain\"}", false, 0, 0),
            ("{\"op\":\"shutdown\"}", false, 0, 0),
        ];
        let mut replies = Vec::new();
        for &(frame, inline, hits, bad) in table {
            let before = plock_named(&inner.counters, "sxd.router.counters").clone();
            let reply = match classify(inner, frame.to_string()) {
                Classified::Inline(reply) => Some(reply.line),
                Classified::Dispatch((req, line)) => {
                    assert_eq!(line, frame, "a dispatched frame must travel verbatim");
                    assert_eq!(Request::parse(frame).unwrap(), req);
                    None
                }
            };
            let c = plock_named(&inner.counters, "sxd.router.counters").clone();
            assert_eq!(reply.is_some(), inline, "{frame}");
            assert_eq!(c.fastpath_hits - before.fastpath_hits, hits, "{frame}");
            assert_eq!(c.bad_requests - before.bad_requests, bad, "{frame}");
            replies.push(reply);
        }
        // `route` names the member a submit of the same config goes to.
        let key = cache_key("fig5", &presets::by_name("sx4").unwrap(), &Default::default());
        let owner = owner_of(inner, key).unwrap();
        assert!(replies[0].as_ref().unwrap().contains(&format!("\"member\":{owner},")));
    }
}
