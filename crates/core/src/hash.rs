//! Content hashing for the result cache: 64-bit FNV-1a.
//!
//! The `sxd` daemon addresses cached suite reports by a digest of the full
//! run configuration (suite name, machine preset bytes, parameter set,
//! code version). The hash only has to be *stable* and well-distributed —
//! it keys an in-memory map, not a security boundary — so FNV-1a keeps the
//! workspace hermetic (no external crates) and the digests reproducible
//! across platforms and runs.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher over byte streams.
#[derive(Debug, Clone)]
pub(crate) struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    pub(crate) fn new() -> Fnv64 {
        Fnv64 { state: FNV_OFFSET }
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

/// One-shot digest of a byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut h = Fnv64::new();
        h.write(b"fig5|sx4-9.2|");
        h.write(b"ktries=3");
        assert_eq!(h.finish(), fnv64(b"fig5|sx4-9.2|ktries=3"));
    }

    #[test]
    fn small_perturbations_change_the_digest() {
        assert_ne!(fnv64(b"fig5"), fnv64(b"fig6"));
        assert_ne!(fnv64(b"ab"), fnv64(b"ba"));
    }
}
