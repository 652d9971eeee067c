//! I/O channel models: the IOP's disk strings, HIPPI channels, and the
//! FDDI/IP external network (paper §2.4, §4.5).
//!
//! Each SX-4 IOP sustains 1.6 GB/s and fans out to HIPPI (the Mass Storage
//! System path) and fast-wide SCSI-2 disk strings. Channels are modelled
//! with a fixed per-operation latency plus byte-rate service.

/// A byte channel with setup latency and finite bandwidth.
#[derive(Debug, Clone)]
pub(crate) struct Channel {
    /// Sustained bandwidth, bytes/second.
    pub(crate) bytes_per_s: f64,
    /// Per-transfer setup latency, seconds.
    pub(crate) latency_s: f64,
}

impl Channel {
    /// SX-4 IOP aggregate: 1.6 GB/s.
    pub(crate) fn iop() -> Channel {
        Channel { bytes_per_s: 1.6e9, latency_s: 20e-6 }
    }

    /// One HIPPI channel: 800 Mbit/s line rate, ~92 MB/s usable after
    /// framing overhead.
    pub(crate) fn hippi() -> Channel {
        Channel { bytes_per_s: 92e6, latency_s: 250e-6 }
    }

    /// A fast-wide SCSI-2 disk string: ~14 MB/s sustained, seek-dominated
    /// latency.
    pub(crate) fn scsi_disk() -> Channel {
        Channel { bytes_per_s: 14e6, latency_s: 9e-3 }
    }

    /// The FDDI external network interface: 100 Mbit/s line rate, ~9 MB/s
    /// of IP throughput after protocol overhead.
    pub(crate) fn fddi() -> Channel {
        Channel { bytes_per_s: 9e6, latency_s: 1.2e-3 }
    }

    /// Seconds to move `bytes` split into `ops` operations (e.g. one
    /// direct-access record per latitude): each operation pays latency.
    pub(crate) fn transfer_seconds_ops(&self, bytes: u64, ops: usize) -> f64 {
        let ops = ops.max(1);
        ops as f64 * self.latency_s + bytes as f64 / self.bytes_per_s
    }
}

/// A striped disk array behind one IOP: `n` independent strings.
#[derive(Debug, Clone)]
pub(crate) struct DiskArray {
    pub(crate) string: Channel,
    pub(crate) strings: usize,
    /// The IOP in front of the array caps the aggregate.
    pub(crate) iop: Channel,
}

impl DiskArray {
    /// The benchmarked system's 282 GB of disk (Table 2) as 24 strings.
    pub(crate) fn benchmarked() -> DiskArray {
        DiskArray { string: Channel::scsi_disk(), strings: 24, iop: Channel::iop() }
    }

    /// Aggregate streaming bandwidth (bytes/s).
    pub(crate) fn aggregate_bytes_per_s(&self) -> f64 {
        (self.string.bytes_per_s * self.strings as f64).min(self.iop.bytes_per_s)
    }

    /// Seconds to write `bytes` striped across the array in `ops` records.
    pub(crate) fn write_seconds(&self, bytes: u64, ops: usize) -> f64 {
        let per_string_ops = ops.div_ceil(self.strings);
        per_string_ops as f64 * self.string.latency_s + bytes as f64 / self.aggregate_bytes_per_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mb_per_s(c: &Channel, bytes: u64) -> f64 {
        bytes as f64 / c.transfer_seconds_ops(bytes, 1) / 1e6
    }

    #[test]
    fn hippi_rate_near_92_mb_s() {
        let h = Channel::hippi();
        // Large single transfer approaches line rate.
        let eff = mb_per_s(&h, 1 << 30);
        assert!(eff > 90.0 && eff <= 92.0, "{eff}");
    }

    #[test]
    fn small_packets_are_latency_bound() {
        let h = Channel::hippi();
        let small = mb_per_s(&h, 4096);
        let large = mb_per_s(&h, 16 << 20);
        assert!(large > 5.0 * small, "{small} vs {large}");
    }

    #[test]
    fn many_ops_pay_many_latencies() {
        let d = Channel::scsi_disk();
        let one = d.transfer_seconds_ops(100 << 20, 1);
        let many = d.transfer_seconds_ops(100 << 20, 1000);
        assert!(many > one + 8.0, "{one} vs {many}");
    }

    #[test]
    fn disk_array_striping_beats_single_string() {
        let arr = DiskArray::benchmarked();
        let single = Channel::scsi_disk().transfer_seconds_ops(1 << 30, 64);
        let striped = arr.write_seconds(1 << 30, 64);
        assert!(striped < single / 8.0, "{striped} vs {single}");
    }

    #[test]
    fn array_capped_by_iop() {
        let mut arr = DiskArray::benchmarked();
        arr.strings = 10_000;
        assert_eq!(arr.aggregate_bytes_per_s(), Channel::iop().bytes_per_s);
    }
}
