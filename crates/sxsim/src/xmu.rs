//! Extended Memory Unit (XMU) model.
//!
//! The XMU is the SX-4's semiconductor disk: 60 ns DRAM behind a 16 GB/s
//! path, up to 32 GB per node (paper §2.3). SUPER-UX uses it for
//! direct-mapped Fortran arrays, file-system caching, swap and /tmp; the
//! SFS model in the `superux` crate stages history-tape traffic through it.

/// An XMU configuration attached to one node.
#[derive(Debug, Clone)]
pub struct Xmu {
    /// Capacity in bytes (benchmarked system: 4 GB, Table 2).
    pub capacity_bytes: u64,
    /// Transfer bandwidth in bytes per second (16 GB/s).
    pub(crate) bandwidth_bytes_per_s: f64,
    /// Access latency per transfer in seconds (DRAM + controller).
    pub(crate) latency_s: f64,
}

impl Xmu {
    /// The benchmarked configuration from Table 2: 4 GB at 16 GB/s.
    pub fn benchmarked() -> Xmu {
        Xmu::new(4 << 30)
    }

    /// An XMU of the given capacity at the architectural 16 GB/s.
    pub fn new(capacity_bytes: u64) -> Xmu {
        Xmu { capacity_bytes, bandwidth_bytes_per_s: 16e9, latency_s: 2e-6 }
    }

    /// Seconds to move `bytes` between main memory and the XMU.
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth_bytes_per_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmarked_capacity_is_4gb() {
        let x = Xmu::benchmarked();
        assert_eq!(x.capacity_bytes, 4 << 30);
    }

    #[test]
    fn transfer_rate_is_16gb_per_s() {
        let x = Xmu::benchmarked();
        let s = x.transfer_seconds(16_000_000_000);
        assert!((s - 1.0).abs() < 1e-3, "16 GB at 16 GB/s should take ~1s, got {s}");
    }

    #[test]
    fn latency_dominates_tiny_transfers() {
        let x = Xmu::benchmarked();
        let small = x.transfer_seconds(8);
        assert!(small >= x.latency_s);
        assert!(small < 2.0 * x.latency_s);
    }
}
