//! FNV-1a (64-bit): the workspace's one stable, platform-independent hash.
//!
//! Answer checksums, benchmark fingerprints, the golden digests of the pin
//! suites and the property harness's per-name base seeds all fold through
//! this type, so every digest they pin depends on these two constants only.

/// FNV-1a over a stream of bytes; `u64`s fold as their little-endian bytes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv(Self::OFFSET_BASIS)
    }

    /// Folds one word into the hash, little-endian byte order.
    #[inline]
    pub fn push(&mut self, v: u64) {
        self.push_bytes(&v.to_le_bytes());
    }

    /// Folds every byte of `bytes` into the hash, in order.
    #[inline]
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(Self::PRIME);
        }
        self.0 = h;
    }

    /// The current hash value.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}
