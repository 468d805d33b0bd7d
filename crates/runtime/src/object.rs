//! Object header layout and accessors.
//!
//! Objects occupy contiguous words. The first two words are the header:
//!
//! ```text
//! word 0:  [63] forwarded  [48..52] age  [45] candidate
//!          [16..40] size in words          [0..16] class id
//!          (when forwarded: [0..44] hold the forwarding address)
//! word 1:  H2 label (0 = untagged) — the 8-byte field TeraHeap adds to the
//!          object header for hint-based tagging (§3.2)
//! ```
//!
//! The major collector's mark is not a header bit: it lives in the cycle's
//! side bitmap (`gc::units::LiveMap`), one bit per H1 word.
//!
//! * plain object:     `[hdr, label, ref fields..., prim words...]`
//! * reference array:  `[hdr, label, len, refs...]`
//! * primitive array:  `[hdr, label, len, words...]`

use crate::class::ClassId;

/// Words of header preceding every object's payload.
pub const HEADER_WORDS: usize = 2;

/// Extra word holding the element count of arrays.
pub const ARRAY_LEN_WORDS: usize = 1;

const CLASS_SHIFT: u32 = 0;
const CLASS_BITS: u64 = 0xFFFF;
const SIZE_SHIFT: u32 = 16;
const SIZE_BITS: u64 = 0xFF_FFFF;
const CANDIDATE_BIT: u64 = 1 << 45;
const AGE_SHIFT: u32 = 48;
const AGE_BITS: u64 = 0xF;
const FORWARD_BIT: u64 = 1 << 63;
const FORWARD_ADDR_BITS: u64 = (1 << 44) - 1;

/// Maximum object size encodable in the header.
pub const MAX_OBJECT_WORDS: usize = SIZE_BITS as usize;

/// Maximum object age before tenuring saturates.
pub const MAX_AGE: u8 = 15;

/// Packs a fresh header word for an object of `class` and `size_words`.
///
/// # Panics
///
/// Panics if `size_words` exceeds [`MAX_OBJECT_WORDS`].
pub fn pack_header(class: ClassId, size_words: usize) -> u64 {
    assert!(size_words <= MAX_OBJECT_WORDS, "object too large for header");
    ((class.0 as u64) << CLASS_SHIFT) | ((size_words as u64 & SIZE_BITS) << SIZE_SHIFT)
}

/// The class id stored in `header`.
pub fn class_of(header: u64) -> ClassId {
    ClassId(((header >> CLASS_SHIFT) & CLASS_BITS) as u16)
}

/// The object size in words stored in `header`.
pub fn size_of(header: u64) -> usize {
    ((header >> SIZE_SHIFT) & SIZE_BITS) as usize
}

/// Whether the H2-candidate bit is set (object selected for the move).
pub fn is_candidate(header: u64) -> bool {
    header & CANDIDATE_BIT != 0
}

/// Returns `header` with the H2-candidate bit set.
pub fn with_candidate(header: u64) -> u64 {
    header | CANDIDATE_BIT
}

/// Returns `header` with the H2-candidate bit cleared.
pub fn without_candidate(header: u64) -> u64 {
    header & !CANDIDATE_BIT
}

/// The object's age (number of minor GCs survived).
pub fn age_of(header: u64) -> u8 {
    ((header >> AGE_SHIFT) & AGE_BITS) as u8
}

/// Returns `header` with age incremented (saturating at [`MAX_AGE`]).
pub fn with_incremented_age(header: u64) -> u64 {
    let age = age_of(header).saturating_add(1).min(MAX_AGE) as u64;
    (header & !(AGE_BITS << AGE_SHIFT)) | (age << AGE_SHIFT)
}

/// Whether the header encodes a forwarding pointer (object was copied).
pub fn is_forwarded(header: u64) -> bool {
    header & FORWARD_BIT != 0
}

/// Encodes a forwarding pointer to word address `to`.
///
/// # Panics
///
/// Panics in debug builds if `to` does not fit the forwarding field.
pub fn forwarding_header(to: u64) -> u64 {
    debug_assert!(to <= FORWARD_ADDR_BITS, "forwarding address out of range");
    FORWARD_BIT | to
}

/// Decodes the forwarding destination from a forwarded header.
pub fn forwarded_to(header: u64) -> u64 {
    debug_assert!(is_forwarded(header));
    header & FORWARD_ADDR_BITS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_and_unpack_round_trip() {
        let h = pack_header(ClassId(7), 1234);
        assert_eq!(class_of(h), ClassId(7));
        assert_eq!(size_of(h), 1234);
        assert!(!is_candidate(h));
        assert!(!is_forwarded(h));
        assert_eq!(age_of(h), 0);
    }

    #[test]
    fn flags_are_independent() {
        let h = pack_header(ClassId(3), 10);
        let h = with_incremented_age(with_candidate(h));
        assert!(is_candidate(h) && age_of(h) == 1);
        assert_eq!(class_of(h), ClassId(3));
        assert_eq!(size_of(h), 10);
        let h = without_candidate(h);
        assert!(!is_candidate(h));
    }

    #[test]
    fn age_increments_and_saturates() {
        let mut h = pack_header(ClassId(1), 4);
        for expected in 1..=MAX_AGE {
            h = with_incremented_age(h);
            assert_eq!(age_of(h), expected);
        }
        h = with_incremented_age(h);
        assert_eq!(age_of(h), MAX_AGE, "age saturates");
        assert_eq!(size_of(h), 4, "size preserved across aging");
    }

    #[test]
    fn forwarding_round_trip() {
        let f = forwarding_header(0xABCDE);
        assert!(is_forwarded(f));
        assert_eq!(forwarded_to(f), 0xABCDE);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn oversized_object_panics() {
        let _ = pack_header(ClassId(1), MAX_OBJECT_WORDS + 1);
    }
}
