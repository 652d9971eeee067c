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
//! the member daemons. Each forward is one [`Client::raw`] round trip on a
//! member connection no other forward is using: it pops an idle
//! [`Client`] from that member's pool, or dials a fresh one, and pushes it
//! back only after a clean reply. N concurrent forwards to one member ride
//! N connections, each strictly one request, one reply, so a reply can
//! only ever reach the forward that asked for it. A failed round clears
//! the member's pool and retries once on a fresh dial. Fan-out verbs
//! (`stats`/`metrics`) and the drain hand-off's `put` replication are
//! plain forwards, one per member or entry.
//!
//! Each frame is parsed once, by [`classify`] on the reactor thread.
//! `route` and parse errors are pure ring math — no member I/O — so they
//! are answered inline there (counted in `fastpath_hits`); everything else
//! dispatches with the parsed request and its original frame, so forwards
//! stay byte-identical.
//!
//! The router's long-lived locks (`sxd.router.members`,
//! `sxd.router.handles`, `sxd.router.counters`, `sxd.router.reactor`,
//! and the per-member `sxd.router.conns` pools) are all leaves: none is
//! ever held while acquiring another, and none across I/O — a pool lock
//! is held only to pop or push a client. Dials, round trips, joins and
//! the hand-off are declared via `lockreg::blocking_io` with no lock held
//! (`sxd.router.{dial,forward,drain,join,handoff}`). The
//! `cluster_lockcheck` test keeps this inventory edge-free.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
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
use crate::proto::{cache_key, Request, MAX_REQUEST_FRAME};
use crate::server::DRAIN_DEADLINE;

/// How the router dials a member: a few quick retries so member startup
/// races (the member thread is still binding) resolve without failing the
/// client's request.
const CONNECT_ATTEMPTS: usize = 5;
const CONNECT_BACKOFF: Duration = Duration::from_millis(20);

/// Join handle for an in-process member daemon, `None` for shards this
/// process does not own. A hand-off joins the handle so the drained
/// member's journal is final before replication starts.
pub(crate) type MemberHandle = Option<JoinHandle<Result<(), SxdError>>>;

/// One shard as the router addresses it.
#[derive(Debug, Clone)]
pub struct RouterMember {
    /// Ring name (`shard-i` by default); feeds the rendezvous scores.
    pub(crate) name: String,
    /// Wire address of the member daemon.
    pub(crate) addr: String,
    /// The member's durable state directory, read at hand-off time.
    pub(crate) state_dir: Option<PathBuf>,
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

struct RouterInner {
    ring: Ring,
    members: Mutex<Vec<MemberSlot>>,
    /// Idle member connections, one pool per member, each guarded by its
    /// own `sxd.router.conns` lock (a leaf; see module docs).
    conns: Vec<Mutex<Vec<Client>>>,
    /// Join handles for in-process members, one slot per member.
    handles: Mutex<Vec<MemberHandle>>,
    counters: Mutex<RouterCounters>,
    /// Handle of the running reactor, installed by [`Router::run`]. A
    /// leaf lock, like every router lock (see module docs).
    reactor: Mutex<Option<ReactorHandle>>,
    addr: SocketAddr,
    shutting_down: AtomicBool,
    idle_timeout: Option<Duration>,
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
    /// `pipeline_depth` is the per-client-connection frame window, as on
    /// the member daemons ([`crate::ServerConfig::pipeline_depth`]).
    pub fn bind(
        members: Vec<RouterMember>,
        handles: Vec<MemberHandle>,
        addr: &str,
        idle_timeout: Option<Duration>,
        pipeline_depth: usize,
    ) -> Result<Router, SxdError> {
        assert_eq!(members.len(), handles.len(), "one handle slot per member");
        let listener = TcpListener::bind(addr).map_err(SxdError::io)?;
        let local = listener.local_addr().map_err(SxdError::io)?;
        let ring = Ring::new(members.iter().map(|m| m.name.clone()).collect::<Vec<_>>());
        let conns = members.iter().map(|_| Mutex::new(Vec::new())).collect();
        let slots = members
            .into_iter()
            .map(|m| MemberSlot { addr: m.addr, state_dir: m.state_dir, alive: true })
            .collect();
        Ok(Router {
            listener,
            inner: Arc::new(RouterInner {
                ring,
                members: Mutex::new(slots),
                conns,
                handles: Mutex::new(handles),
                counters: Mutex::new(RouterCounters::default()),
                reactor: Mutex::new(None),
                addr: local,
                shutting_down: AtomicBool::new(false),
                idle_timeout,
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
    /// event loop; `route` and parse errors answer inline (`classify`).
    pub fn run(self) -> Result<(), SxdError> {
        let inner = Arc::clone(&self.inner);
        let reactor = Reactor::new(
            self.listener,
            RouterService { inner: Arc::clone(&self.inner) },
            ReactorConfig {
                max_frame: MAX_REQUEST_FRAME,
                idle_timeout: inner.idle_timeout,
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
        // Close the pooled member connections, then join whatever member
        // threads a shutdown fan-out left running.
        for idx in 0..inner.ring.len() {
            clear_conns(&inner, idx);
        }
        for h in drain_handles(&inner) {
            let _ = h.join();
        }
        res
    }
}

/// The router as a [`Service`]. Member connections are pooled
/// router-wide, so client connections carry no state of their own.
struct RouterService {
    inner: Arc<RouterInner>,
}

impl Service for RouterService {
    /// The parsed request and the frame it came from.
    type Job = (Request, String);

    fn classify(&self, frame: String) -> Classified<(Request, String)> {
        classify(&self.inner, frame)
    }

    fn handle(&self, (req, frame): (Request, String)) -> Reply {
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

/// Close member `idx`'s idle connections, so the next forward dials.
fn clear_conns(inner: &RouterInner, idx: usize) {
    plock_named(&inner.conns[idx], "sxd.router.conns").clear();
}

/// One round trip on a member connection no other forward is using: an
/// idle pooled client, or a fresh dial. The client returns to the pool
/// only after a clean reply; one that failed mid-round is dropped.
fn round_trip(inner: &RouterInner, idx: usize, line: &str) -> Result<String, SxdError> {
    if !plock_named(&inner.members, "sxd.router.members")[idx].alive {
        return Err(SxdError::ShardUnavailable {
            member: inner.ring.name(idx).to_string(),
            detail: "member has left the ring".into(),
        });
    }
    let idle = plock_named(&inner.conns[idx], "sxd.router.conns").pop();
    let mut client = match idle {
        Some(client) => client,
        None => {
            let addr = plock_named(&inner.members, "sxd.router.members")[idx].addr.clone();
            lockreg::blocking_io("sxd.router.dial", &[]);
            Client::connect_with_retry(&addr, CONNECT_ATTEMPTS, CONNECT_BACKOFF)?
        }
    };
    lockreg::blocking_io("sxd.router.forward", &[]);
    let reply = client.raw(line)?;
    plock_named(&inner.conns[idx], "sxd.router.conns").push(client);
    Ok(reply)
}

/// Forward one raw frame to member `idx` and return the raw reply. The
/// line goes through verbatim, so a member's reply — including a cache
/// hit's exact payload bytes — passes back unmodified. One failed round
/// clears the member's pool and retries on a fresh dial.
fn forward(inner: &RouterInner, idx: usize, line: &str) -> Result<String, SxdError> {
    let mut last = String::new();
    for _attempt in 0..2 {
        match round_trip(inner, idx, line) {
            Ok(reply) => {
                plock_named(&inner.counters, "sxd.router.counters").forwarded += 1;
                return Ok(reply);
            }
            Err(e) => {
                clear_conns(inner, idx);
                last = e.detail();
            }
        }
    }
    plock_named(&inner.counters, "sxd.router.counters").unavailable += 1;
    Err(SxdError::ShardUnavailable { member: inner.ring.name(idx).to_string(), detail: last })
}

/// Indices of the members still in the ring.
fn live_members(inner: &RouterInner) -> Vec<usize> {
    let members = plock_named(&inner.members, "sxd.router.members");
    (0..members.len()).filter(|&m| members[m].alive).collect()
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
            let deadline = deadline_ms.map(Duration::from_millis).unwrap_or(DRAIN_DEADLINE);
            match drain_member(inner, idx, deadline) {
                Ok(reply) => reply,
                Err(e) => e.to_reply(),
            }
        }
        Request::Drain { deadline_ms, member: None } => {
            // Cluster-wide graceful drain: every member drains (each
            // checkpointing its own stragglers), then the router follows.
            let deadline = deadline_ms.map(Duration::from_millis).unwrap_or(DRAIN_DEADLINE);
            let ms = Some(deadline.as_millis() as u64);
            let line = Request::Drain { deadline_ms: ms, member: None }.to_line();
            for idx in live_members(inner) {
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
/// from each. A member that stays unreachable through [`forward`]'s retry
/// fails the whole fan-out — a partial stats view would silently break
/// the reconciliation sums.
fn fanout_docs(inner: &RouterInner, line: &str, member_key: &str) -> Result<Vec<Json>, SxdError> {
    live_members(inner)
        .into_iter()
        .map(|idx| {
            let reply = forward(inner, idx, line)?;
            let doc = Json::parse(&reply)
                .map_err(|e| SxdError::BadJson { detail: format!("{member_key} reply: {e}") })?;
            doc.get(member_key).cloned().ok_or_else(|| SxdError::BadJson {
                detail: format!("member reply lacks \"{member_key}\""),
            })
        })
        .collect()
}

/// Fan `shutdown` out to every live member, then retire the router once
/// the member threads exit (asynchronously — the client gets its ack
/// immediately, like a single daemon's shutdown).
fn shutdown_cluster(inner: &Arc<RouterInner>) {
    for idx in live_members(inner) {
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
    // The member is gone from the ring; its idle connections are dead
    // weight now.
    clear_conns(inner, idx);

    // Ask the member to drain. Dial directly (not through the pool) so a
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
            for (key, payload) in newest {
                let line = Request::Put { key, payload }.to_line();
                if line.len() > MAX_REQUEST_FRAME {
                    skipped += 1; // the successor recomputes this key on demand
                    continue;
                }
                forward(inner, owner_of(inner, key)?, &line)?;
                handed_off += 1;
            }
        }
        for spec in journal::load_restart_specs(&dir) {
            let Some(model) = presets::by_name(&spec.machine) else { continue };
            let params: std::collections::BTreeMap<String, String> =
                spec.params.iter().cloned().collect();
            let key = cache_key(&spec.suite, &model, &params);
            let owner = owner_of(inner, key)?;
            // A restart spec is the client's submission, so it re-enters
            // the cluster as a fresh submit at its new owner.
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
        let router = Router::bind(members, handles, "127.0.0.1:0", None, 1).unwrap();
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
