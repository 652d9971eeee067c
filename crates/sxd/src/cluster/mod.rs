//! Multi-node sxd: a shard fabric behind one protocol endpoint.
//!
//! The paper's SX-4 scales past one node over the IXS inter-node crossbar
//! (§1, 8 GB/s per node); this module is the daemon's version of that
//! move. A [`Cluster`] is N member daemons — each a full [`Server`] with
//! its own NQS admission gate, worker pool, result cache and journal —
//! plus a [`Router`] front end speaking the identical wire protocol:
//!
//! ```text
//!                         ┌──────────┐
//!   clients ── NDJSON ──► │  router  │  rendezvous ring over cache keys
//!                         └─┬──┬──┬──┘
//!                     ┌─────┘  │  └─────┐
//!                ┌────▼───┐┌───▼────┐┌──▼─────┐
//!                │shard-0 ││shard-1 ││shard-2 │   each: admission, pool,
//!                │ [sxd]  ││ [sxd]  ││ [sxd]  │   cache, journal
//!                └────────┘└────────┘└────────┘
//! ```
//!
//! - `ring` — rendezvous placement: key → member, minimal disruption on
//!   membership change;
//! - `router` — the forwarding front end, fan-out verbs, and the drain
//!   hand-off that moves a leaving member's durable keyspace to its
//!   successors;
//! - `aggregate` — merging member STATS/METRICS into one cluster view
//!   that preserves the reconciliation invariant.
//!
//! [`spawn`] stands the whole fabric up in one process tree (the
//! `ncar-bench serve --cluster N` shape): member listeners on ephemeral
//! ports, the router on the public address.

pub(crate) mod aggregate;
pub(crate) mod ring;
pub(crate) mod router;

use std::net::SocketAddr;
use std::path::PathBuf;
use std::thread::JoinHandle;

use ncar_suite::Registry;

pub use ring::Ring;
pub use router::{Router, RouterMember};

use crate::error::SxdError;
use crate::server::{JobEntry, Server, ServerConfig};

/// How to stand up a cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Shard member count (at least 1).
    pub shards: usize,
    /// Router bind address (port 0 picks an ephemeral port). Members
    /// always bind ephemeral loopback ports of their own.
    pub addr: String,
    /// Root state directory; member `i` journals under `<root>/shard-i`.
    /// `None` runs every member memory-only (no hand-off on drain).
    pub state_dir: Option<PathBuf>,
    /// Template for each member daemon (its `addr` and `state_dir` are
    /// overridden per member).
    pub server: ServerConfig,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            shards: 3,
            addr: "127.0.0.1:0".into(),
            state_dir: None,
            server: ServerConfig::default(),
        }
    }
}

/// A running cluster: the router thread plus its member threads (owned by
/// the router for drain hand-off).
pub struct Cluster {
    addr: SocketAddr,
    member_addrs: Vec<SocketAddr>,
    router: JoinHandle<Result<(), SxdError>>,
}

impl Cluster {
    /// The router's address — the only one clients need.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Member addresses, by shard index (useful for tests that poke one
    /// member directly).
    pub fn member_addrs(&self) -> &[SocketAddr] {
        &self.member_addrs
    }

    /// Block until the cluster shuts down (a `shutdown` to the router, or
    /// a full-cluster `drain` completing).
    pub fn join(self) -> Result<(), SxdError> {
        self.router.join().map_err(|_| SxdError::Io { detail: "router thread panicked".into() })?
    }
}

/// Stand up `config.shards` member daemons plus the router, all in this
/// process. Every member gets the same suite registry; durable members
/// get `<state_dir>/shard-i`, created if missing, so a re-spawned cluster
/// recovers each shard's journal exactly as a single daemon would.
pub fn spawn(registry: Registry<JobEntry>, config: ClusterConfig) -> Result<Cluster, SxdError> {
    let n = config.shards.max(1);
    let names = Ring::default_names(n);
    let mut members = Vec::with_capacity(n);
    let mut member_addrs = Vec::with_capacity(n);
    let mut handles = Vec::with_capacity(n);
    for name in &names {
        let mut sc = config.server.clone();
        sc.addr = "127.0.0.1:0".into();
        sc.state_dir = config.state_dir.as_ref().map(|root| root.join(name));
        if let Some(dir) = &sc.state_dir {
            std::fs::create_dir_all(dir).map_err(SxdError::io)?;
        }
        let server = Server::bind(registry.clone(), sc.clone())?;
        let addr = server.local_addr();
        member_addrs.push(addr);
        members.push(RouterMember {
            name: name.clone(),
            addr: addr.to_string(),
            state_dir: sc.state_dir,
        });
        handles.push(Some(std::thread::spawn(move || server.run())));
    }
    let router = Router::bind(
        members,
        handles,
        &config.addr,
        config.server.idle_timeout,
        config.server.pipeline_depth,
    )?;
    let addr = router.local_addr();
    let router = std::thread::spawn(move || router.run());
    Ok(Cluster { addr, member_addrs, router })
}
