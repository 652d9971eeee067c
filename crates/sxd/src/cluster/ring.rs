//! Rendezvous (highest-random-weight) hashing over the shard members.
//!
//! Each member's claim on a key is an independent pseudo-random score
//! mixed from the key and the member's name hash; the highest score owns
//! the key. This is the IXS-fabric analogue of the paper's multi-node
//! SX-4 (§1): any front end can compute the owner with no shared state,
//! and — the property the hand-off story rests on — removing a member
//! only remaps the keys *that member* owned, because every other key's
//! argmax is untouched. No virtual-node table, no rebalancing protocol.
//!
//! Scores use the splitmix64 finalizer over `key ^ fnv64(name)`: the
//! cache key is itself an FNV-1a digest, whose avalanche alone is too
//! weak for an argmax across members (member hashes differ in few bits
//! for similar names); the finalizer's two xor-shift-multiply rounds make
//! the per-member score streams statistically independent, which is what
//! the 15%-uniformity placement test actually measures.

use ncar_suite::fnv64;

/// The immutable member list and its score seeds. Membership *state*
/// (who is alive) lives with the router; the ring answers pure placement
/// questions over any alive-subset of the original members.
#[derive(Debug, Clone)]
pub struct Ring {
    names: Vec<String>,
    seeds: Vec<u64>,
}

/// The splitmix64 finalizer: full-avalanche 64-bit mixing.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Ring {
    pub fn new<S: Into<String>>(names: Vec<S>) -> Ring {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        let seeds = names.iter().map(|n| fnv64(n.as_bytes())).collect();
        Ring { names, seeds }
    }

    /// Member names for a cluster of `n` shards: `shard-0` .. `shard-n-1`.
    pub fn default_names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("shard-{i}")).collect()
    }

    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }

    pub fn name(&self, member: usize) -> &str {
        &self.names[member]
    }

    /// One member's claim on one key. Deterministic, stateless.
    pub(crate) fn score(&self, key: u64, member: usize) -> u64 {
        mix64(key ^ self.seeds[member])
    }

    /// The member owning `key` among all members.
    pub fn owner(&self, key: u64) -> Option<usize> {
        self.owner_among(key, |_| true)
    }

    /// The member owning `key` among those `alive` admits. Ties (score
    /// collisions) break toward the lower index, deterministically on
    /// every front end. This *is* the successor function: after a member
    /// leaves, the owner among the survivors is where its keys land.
    pub fn owner_among<F: Fn(usize) -> bool>(&self, key: u64, alive: F) -> Option<usize> {
        let mut best: Option<(u64, usize)> = None;
        for m in 0..self.names.len() {
            if !alive(m) {
                continue;
            }
            let s = self.score(key, m);
            if best.is_none_or(|(bs, _)| s > bs) {
                best = Some((s, m));
            }
        }
        best.map(|(_, m)| m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_names_are_stable() {
        assert_eq!(Ring::default_names(3), vec!["shard-0", "shard-1", "shard-2"]);
    }

    #[test]
    fn empty_ring_owns_nothing() {
        let ring = Ring::new(Vec::<String>::new());
        assert_eq!(ring.len(), 0);
        assert_eq!(ring.owner(42), None);
    }

    #[test]
    fn single_member_owns_everything() {
        let ring = Ring::new(vec!["only"]);
        for key in [0u64, 1, u64::MAX, 0xdead_beef] {
            assert_eq!(ring.owner(key), Some(0));
        }
    }

    #[test]
    fn owner_ignores_dead_members() {
        let ring = Ring::new(Ring::default_names(4));
        let key = 0x1234_5678_9abc_def0;
        let full = ring.owner(key).unwrap();
        let without = ring.owner_among(key, |m| m != full).unwrap();
        assert_ne!(without, full);
        // A key not owned by the excluded member keeps its owner.
        let other = (0..4).find(|&m| ring.owner(key ^ 1) == Some(m)).unwrap();
        if other != full {
            assert_eq!(ring.owner_among(key ^ 1, |m| m != full), Some(other));
        }
    }
}
