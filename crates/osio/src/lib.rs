//! # superux — the SUPER-UX operating-software substrate
//!
//! The paper's benchmarks do not run on bare hardware: they run under
//! SUPER-UX (paper §2.6), whose pieces shape the I/O and production-mix
//! results. This crate models them:
//!
//! - [`chan`] — IOP, HIPPI, SCSI disk strings and the FDDI/IP network;
//! - [`sfs`] — the SFS file system with XMU-backed write-back caching;
//! - [`nqs`] — the NQS batch subsystem, Resource Blocks and
//!   checkpoint/restart, as a discrete-event scheduler with memory-
//!   contention-aware co-scheduling;
//! - [`admission`] — the same Resource-Block gate as a live, stateful
//!   admission controller (jobs arriving one at a time, e.g. from the
//!   `sxd` serving daemon) rather than a replayed batch;
//! - [`iobench`] — the I/O, HIPPI and NETWORK benchmarks of §4.5;
//! - [`mod@prodload`] — the PRODLOAD production-mix benchmark of §4.6
//!   (paper headline: 93 minutes 28 seconds on the SX-4/32).

pub mod accounting;
pub mod admission;
pub mod chan;
pub mod iobench;
pub mod nqs;
pub mod prodload;
pub mod queues;
pub mod sfs;

pub use accounting::{account, qacct_table, utilization, JobAccount};
pub use admission::Admission;
pub use chan::{Channel, DiskArray};
pub use nqs::{JobSpec, Nqs, NqsError, ResourceBlock, Schedule};
pub use prodload::{prodload, CcmRates, ProdloadResult};
pub use queues::{Queue, QueueComplex, QueueManager, SubmitError};
pub use sfs::{Sfs, WriteBack};
