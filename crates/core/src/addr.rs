//! Word-granularity heap addresses spanning both heaps.
//!
//! TeraHeap presents the abstraction of a single managed heap (§3.1): the
//! mutator and collector see one address space and a reference range check
//! (a single compare against [`H2_BASE_WORDS`]) tells them which heap an
//! object lives in. That check is precisely what the paper adds to the
//! post-write barriers and GC scan loops (§4).
//!
//! Addresses are *word*-indexed (one word = 8 bytes), matching the
//! word-oriented object model of the runtime.

/// Bytes per heap word.
pub const WORD_BYTES: usize = 8;

/// First word address belonging to H2. Everything below is H1 (or null).
pub const H2_BASE_WORDS: u64 = 1 << 40;

/// The null reference.
pub const NULL: Addr = Addr(0);

/// A word-granularity address into the unified H1 + H2 address space.
///
/// `Addr(0)` is the null reference; H1 spaces are allocated in
/// `[1, H2_BASE_WORDS)` and H2 occupies `[H2_BASE_WORDS, ...)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw word index.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Creates an H2 address from a word offset within H2.
    pub const fn h2_at(offset_words: u64) -> Self {
        Addr(H2_BASE_WORDS + offset_words)
    }

    /// The raw word index.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Whether this is the null reference.
    pub const fn is_null(self) -> bool {
        self.0 == 0
    }

    /// The reference range check: whether the address is in H2.
    ///
    /// This is the single-compare fence the paper adds to barriers and GC.
    pub const fn is_h2(self) -> bool {
        self.0 >= H2_BASE_WORDS
    }

    /// Whether the address is a (non-null) H1 address.
    pub const fn is_h1(self) -> bool {
        self.0 != 0 && self.0 < H2_BASE_WORDS
    }

    /// Word offset within H2.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the address is not in H2.
    pub fn h2_offset(self) -> u64 {
        debug_assert!(self.is_h2(), "h2_offset on non-H2 address {self:?}");
        self.0 - H2_BASE_WORDS
    }

    /// Byte offset within H2 (for device/page-cache accounting).
    pub fn h2_byte_offset(self) -> usize {
        (self.h2_offset() as usize) * WORD_BYTES
    }

    /// The address `words` words past this one.
    #[allow(clippy::should_implement_trait)] // word-offset arithmetic, not `ops::Add`
    pub fn add(self, words: u64) -> Addr {
        Addr(self.0 + words)
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_null() {
            write!(f, "null")
        } else if self.is_h2() {
            write!(f, "H2+{:#x}", self.h2_offset())
        } else {
            write!(f, "H1@{:#x}", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_is_neither_heap() {
        assert!(NULL.is_null());
        assert!(!NULL.is_h1());
        assert!(!NULL.is_h2());
    }

    #[test]
    fn range_check_partitions_space() {
        let h1 = Addr::new(0x1000);
        assert!(h1.is_h1() && !h1.is_h2());
        let h2 = Addr::h2_at(0);
        assert!(h2.is_h2() && !h2.is_h1());
        assert_eq!(h2.raw(), H2_BASE_WORDS);
    }

    #[test]
    fn h2_offsets_round_trip() {
        let a = Addr::h2_at(12345);
        assert_eq!(a.h2_offset(), 12345);
        assert_eq!(a.h2_byte_offset(), 12345 * WORD_BYTES);
    }

    #[test]
    fn arithmetic() {
        let a = Addr::new(100);
        let b = a.add(28);
        assert_eq!(b.raw(), 128);
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{NULL}"), "null");
        assert_eq!(format!("{}", Addr::new(16)), "H1@0x10");
        assert_eq!(format!("{}", Addr::h2_at(16)), "H2+0x10");
    }
}
