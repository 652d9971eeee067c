//! SFS — the SUPER-UX native file system (paper §2.6.5) — with its
//! XMU-backed cache: "a flexible file system level caching scheme
//! utilizing XMU space; numerous parameters can be set including write
//! back method, staging unit, and allocation cluster size. Individual
//! files can exceed 2 terabytes."
//!
//! Writes land in the XMU at 16 GB/s and drain to the disk array
//! asynchronously; a write only stalls the application when the staging
//! space is full. Reads hit the XMU cache or go to disk.

use crate::chan::DiskArray;
use sxsim::Xmu;

/// An SFS instance: XMU staging in front of a disk array.
#[derive(Debug)]
pub struct Sfs {
    pub(crate) xmu: Xmu,
    pub(crate) disks: DiskArray,
    /// Simulated time at which the background drain finishes.
    drain_done_s: f64,
    /// Bytes currently staged and not yet drained.
    staged_bytes: u64,
    /// Total bytes written since creation.
    pub(crate) total_written: u64,
}

/// Result of one file operation.
#[derive(Debug, Clone, Copy)]
pub struct IoOutcome {
    /// Seconds the *application* was blocked.
    pub blocked_s: f64,
    /// Seconds until the data is durable on disk.
    pub(crate) durable_s: f64,
}

impl Sfs {
    /// The benchmarked configuration: 4 GB XMU, 282 GB disk.
    pub fn benchmarked() -> Sfs {
        Sfs {
            xmu: Xmu::benchmarked(),
            disks: DiskArray::benchmarked(),
            drain_done_s: 0.0,
            staged_bytes: 0,
            total_written: 0,
        }
    }

    /// Write `bytes` in `records` direct-access records starting at
    /// simulated time `now_s`. Returns how long the application blocks and
    /// when the data is durable.
    pub fn write(&mut self, now_s: f64, bytes: u64, records: usize) -> IoOutcome {
        self.total_written += bytes;
        let disk_s = self.disks.write_seconds(bytes, records);
        // Stage in the XMU and drain to disk in the background: catch up
        // the drain first.
        if now_s >= self.drain_done_s {
            self.staged_bytes = 0;
        }
        let mut blocked = self.xmu.transfer_seconds(bytes);
        // If staging would overflow the XMU, the application waits for
        // enough drain to make room.
        if self.staged_bytes + bytes > self.xmu.capacity_bytes {
            let overflow = self.staged_bytes + bytes - self.xmu.capacity_bytes;
            let frac = overflow as f64 / self.staged_bytes.max(1) as f64;
            let wait = (self.drain_done_s - now_s).max(0.0) * frac.min(1.0);
            blocked += wait;
            self.staged_bytes = self.staged_bytes.saturating_sub(overflow);
        }
        self.staged_bytes += bytes;
        let drain_start = self.drain_done_s.max(now_s + blocked);
        self.drain_done_s = drain_start + disk_s;
        IoOutcome { blocked_s: blocked, durable_s: self.drain_done_s - now_s }
    }

    /// Read `bytes`; `cached` says whether it is still staged in the XMU.
    pub(crate) fn read(&mut self, bytes: u64, records: usize, cached: bool) -> f64 {
        if cached {
            self.xmu.transfer_seconds(bytes)
        } else {
            self.disks.write_seconds(bytes, records) // symmetric disk path
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn async_write_blocks_only_for_xmu() {
        let mut fs = Sfs::benchmarked();
        let out = fs.write(0.0, 1 << 30, 64);
        // 1 GB at 16 GB/s ~ 62 ms blocked; durable only after disk drain.
        assert!(out.blocked_s < 0.1, "blocked {}", out.blocked_s);
        assert!(out.durable_s > 2.0, "durable {}", out.durable_s);
    }

    #[test]
    fn staging_overflow_stalls() {
        let mut fs = Sfs::benchmarked();
        // Two back-to-back 3 GB writes overflow the 4 GB XMU.
        let a = fs.write(0.0, 3 << 30, 16);
        let b = fs.write(a.blocked_s, 3 << 30, 16);
        assert!(b.blocked_s > 5.0 * a.blocked_s, "{} vs {}", a.blocked_s, b.blocked_s);
    }

    #[test]
    fn drain_catches_up_when_idle() {
        let mut fs = Sfs::benchmarked();
        let a = fs.write(0.0, 3 << 30, 16);
        // Come back long after the drain finished: no stall.
        let later = a.durable_s + 100.0;
        let b = fs.write(later, 3 << 30, 16);
        assert!((b.blocked_s - a.blocked_s).abs() < 0.05);
    }

    #[test]
    fn cached_read_is_xmu_fast() {
        let mut fs = Sfs::benchmarked();
        let hot = fs.read(1 << 30, 64, true);
        let cold = fs.read(1 << 30, 64, false);
        assert!(cold > 10.0 * hot);
    }

    #[test]
    fn accounting_tracks_total() {
        let mut fs = Sfs::benchmarked();
        fs.write(0.0, 100, 1);
        fs.write(1.0, 200, 1);
        assert_eq!(fs.total_written, 300);
    }
}
