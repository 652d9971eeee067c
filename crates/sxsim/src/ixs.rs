//! Internode Crossbar (IXS) model.
//!
//! Up to 16 SX-4 nodes connect through a non-blocking fibre-channel
//! crossbar: 8 GB/s per node in each direction (independent input and
//! output channels), 128 GB/s bisection bandwidth for a full 16-node
//! system, plus global communications registers for internode
//! synchronization (paper §2.5). Every result in the paper is single-node,
//! but the model is here so multi-node experiments can be expressed; the
//! quickstart example exercises it.

/// An IXS connecting `nodes` SX-4 nodes.
#[derive(Debug, Clone)]
pub struct Ixs {
    /// Number of nodes attached (1..=16).
    pub(crate) nodes: usize,
    /// Per-node, per-direction channel bandwidth in bytes/second (8 GB/s).
    pub(crate) channel_bytes_per_s: f64,
    /// Aggregate bisection bandwidth in bytes/second (128 GB/s full system).
    pub(crate) bisection_bytes_per_s: f64,
    /// One-way message latency through the crossbar, seconds.
    pub(crate) latency_s: f64,
}

impl Ixs {
    /// An IXS with the architectural rates for the given node count.
    pub fn new(nodes: usize) -> Ixs {
        assert!((1..=16).contains(&nodes), "the IXS connects up to 16 nodes");
        Ixs {
            nodes,
            channel_bytes_per_s: 8e9,
            // The 128 GB/s figure is for the full 16-node system; smaller
            // systems are limited by their own channels.
            bisection_bytes_per_s: 128e9 * (nodes as f64 / 16.0).min(1.0),
            latency_s: 5e-6,
        }
    }

    /// Seconds for an all-to-all exchange where every node sends `bytes`
    /// to every other node (the transpose step of a multi-node spectral
    /// model). Limited by the per-node channels and by bisection.
    pub fn all_to_all_seconds(&self, bytes_per_pair: u64) -> f64 {
        if self.nodes < 2 {
            return 0.0;
        }
        let per_node_out = bytes_per_pair as f64 * (self.nodes - 1) as f64;
        let channel_time = per_node_out / self.channel_bytes_per_s;
        // Half the traffic crosses the bisection.
        let total = bytes_per_pair as f64 * (self.nodes * (self.nodes - 1)) as f64;
        let bisection_time = (total / 2.0) / self.bisection_bytes_per_s;
        self.latency_s + channel_time.max(bisection_time)
    }

    /// Seconds for a global barrier through the internode communications
    /// registers (log-depth over the crossbar).
    pub fn barrier_seconds(&self) -> f64 {
        let rounds = (self.nodes as f64).log2().ceil().max(1.0);
        rounds * self.latency_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_system_bisection_is_128_gb() {
        let ixs = Ixs::new(16);
        assert!((ixs.bisection_bytes_per_s - 128e9).abs() < 1.0);
    }

    #[test]
    fn single_node_all_to_all_is_free() {
        let ixs = Ixs::new(1);
        assert_eq!(ixs.all_to_all_seconds(1 << 20), 0.0);
    }

    #[test]
    fn all_to_all_grows_with_nodes() {
        let t2 = Ixs::new(2).all_to_all_seconds(1 << 20);
        let t8 = Ixs::new(8).all_to_all_seconds(1 << 20);
        let t16 = Ixs::new(16).all_to_all_seconds(1 << 20);
        assert!(t2 < t8 && t8 < t16);
    }

    #[test]
    fn barrier_is_log_depth() {
        let b2 = Ixs::new(2).barrier_seconds();
        let b16 = Ixs::new(16).barrier_seconds();
        assert!(b16 > b2);
        assert!((b16 / b2 - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "16 nodes")]
    fn too_many_nodes_panics() {
        Ixs::new(17);
    }
}
