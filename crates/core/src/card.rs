//! The extended H2 card table tracking backward (H2→H1) references (§3.4).
//!
//! Fencing GC scans out of H2 requires knowing which H1 objects are
//! referenced *from* H2 — the collector must neither reclaim nor fail to
//! relocate them. Scanning H2 itself would incur device I/O, so TeraHeap
//! keeps a DRAM card table with one byte per fixed-size H2 segment, with
//! four states instead of the vanilla two:
//!
//! * `Clean` — no backward references in the segment;
//! * `Dirty` — a mutator updated an object in the segment (post-write
//!   barrier) and it has not been re-examined;
//! * `YoungGen` — the segment's objects reference young-generation H1
//!   objects (and possibly old);
//! * `OldGen` — the segment's objects reference only old-generation H1
//!   objects, which minor GC can skip entirely (old objects don't move in
//!   minor GC).
//!
//! Minor GC scans `Dirty` and `YoungGen` cards; major GC also scans
//! `OldGen`. Card segments are larger than H1's 512 B (the paper sweeps
//! 512 B–16 KB; larger segments shrink the table and the scan, at the cost
//! of more object scanning per dirty card — Figure 11a).
//!
//! The paper scans H2 cards in parallel by *stripes* of region size (Figure
//! 3): objects never span regions, so no two GC threads ever share a
//! boundary card (the vanilla JVM's forever-dirty boundary-card problem,
//! which would be disastrous with large device-backed segments). Here the
//! collector hands the card scan out as `H2CardChunk` work units instead
//! (DESIGN.md §11); the table keeps only the constraint that makes the
//! stripes contention-free — a stripe boundary is a card boundary.

use crate::addr::Addr;

/// State of one H2 card (one byte in the real implementation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CardState {
    /// No backward references in the segment.
    Clean = 0,
    /// Mutator updated the segment since the last examination.
    Dirty = 1,
    /// Segment references young-generation H1 objects (and possibly old).
    YoungGen = 2,
    /// Segment references only old-generation H1 objects.
    OldGen = 3,
}

/// The H2 card table: a DRAM byte array with one entry per H2 segment.
///
/// In addition to the byte array, the table maintains an incremental index
/// of cards that may be non-`Clean` (`noted` + a `listed` membership flag
/// per card): the write barrier and `set_state` append to it, and the GC
/// scan-list queries ([`H2CardTable::minor_scan_cards`],
/// [`H2CardTable::major_scan_cards`]) walk only the noted cards instead of
/// sweeping the whole table — the table is sized for all of H2 while the
/// working set of interesting cards is usually tiny.
///
/// Invariant: every non-`Clean` card is in `noted`. Cards that went back to
/// `Clean` stay listed until the next scan-list query reconciles the index
/// (lazy deletion). Scan order is ascending card index, identical to the
/// full sweep it replaces.
#[derive(Debug, Clone)]
pub struct H2CardTable {
    seg_words: usize,
    cards: Vec<CardState>,
    noted: Vec<u32>,
    listed: Vec<bool>,
}

impl H2CardTable {
    /// Creates a card table covering `h2_words` words of H2 with
    /// `seg_words`-word card segments and `stripe_words`-word stripes
    /// (TeraHeap uses stripe size = region size).
    ///
    /// # Panics
    ///
    /// Panics if `seg_words` is zero or `stripe_words` is not a multiple of
    /// `seg_words` (a stripe boundary must also be a card boundary, which is
    /// what makes stripe-aligned scanning contention-free).
    pub fn new(h2_words: usize, seg_words: usize, stripe_words: usize) -> Self {
        assert!(seg_words > 0, "card segment size must be non-zero");
        assert!(
            stripe_words.is_multiple_of(seg_words),
            "stripe size must be a multiple of the card segment size"
        );
        let n = h2_words.div_ceil(seg_words);
        H2CardTable {
            seg_words,
            cards: vec![CardState::Clean; n],
            noted: Vec::new(),
            listed: vec![false; n],
        }
    }

    /// Adds card `idx` to the incremental non-`Clean` index.
    fn note(&mut self, idx: usize) {
        if !self.listed[idx] {
            self.listed[idx] = true;
            self.noted.push(idx as u32);
        }
    }

    /// Card segment size in words.
    pub fn seg_words(&self) -> usize {
        self.seg_words
    }

    /// Number of cards (the DRAM footprint in bytes).
    pub fn card_count(&self) -> usize {
        self.cards.len()
    }

    /// Index of the card covering `addr`.
    pub fn card_of(&self, addr: Addr) -> usize {
        (addr.h2_offset() as usize) / self.seg_words
    }

    /// First H2 address covered by card `idx`.
    pub fn card_base(&self, idx: usize) -> Addr {
        Addr::h2_at((idx * self.seg_words) as u64)
    }

    /// State of card `idx`.
    pub fn state(&self, idx: usize) -> CardState {
        self.cards[idx]
    }

    /// Sets card `idx` to `state` (GC re-examination outcome).
    pub fn set_state(&mut self, idx: usize, state: CardState) {
        self.cards[idx] = state;
        if state != CardState::Clean {
            self.note(idx);
        }
    }

    /// Post-write-barrier entry: marks the card covering `addr` dirty.
    pub fn mark_dirty(&mut self, addr: Addr) {
        let idx = self.card_of(addr);
        self.cards[idx] = CardState::Dirty;
        self.note(idx);
    }

    /// Cards that minor GC must scan: `Dirty` or `YoungGen`.
    pub fn minor_scan_cards(&mut self) -> Vec<usize> {
        self.collect(|s| matches!(s, CardState::Dirty | CardState::YoungGen))
    }

    /// Cards that major GC must scan: everything except `Clean`.
    pub fn major_scan_cards(&mut self) -> Vec<usize> {
        self.collect(|s| s != CardState::Clean)
    }

    /// Walks the noted-card index in ascending order, dropping entries that
    /// went back to `Clean` (lazy deletion) and returning those matching
    /// `pred` — same output as a full table sweep would produce.
    fn collect(&mut self, pred: impl Fn(CardState) -> bool) -> Vec<usize> {
        self.noted.sort_unstable();
        self.noted.dedup();
        let mut out = Vec::new();
        let cards = &self.cards;
        let listed = &mut self.listed;
        self.noted.retain(|&i| {
            let s = cards[i as usize];
            if s == CardState::Clean {
                listed[i as usize] = false;
                return false;
            }
            if pred(s) {
                out.push(i as usize);
            }
            true
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> H2CardTable {
        // 64-word segments, 256-word stripes, 4096 words of H2.
        H2CardTable::new(4096, 64, 256)
    }

    #[test]
    fn card_count_covers_h2() {
        let t = table();
        assert_eq!(t.card_count(), 64);
    }

    #[test]
    fn card_of_and_base_are_inverse() {
        let t = table();
        let addr = Addr::h2_at(130);
        let c = t.card_of(addr);
        assert_eq!(c, 2);
        assert_eq!(t.card_base(c), Addr::h2_at(128));
    }

    #[test]
    fn barrier_marks_dirty() {
        let mut t = table();
        assert_eq!(t.state(5), CardState::Clean);
        t.mark_dirty(Addr::h2_at(5 * 64 + 3));
        assert_eq!(t.state(5), CardState::Dirty);
    }

    #[test]
    fn minor_scan_skips_oldgen_cards() {
        let mut t = table();
        t.set_state(1, CardState::Dirty);
        t.set_state(2, CardState::YoungGen);
        t.set_state(3, CardState::OldGen);
        assert_eq!(t.minor_scan_cards(), vec![1, 2]);
        assert_eq!(t.major_scan_cards(), vec![1, 2, 3]);
    }

    #[test]
    fn larger_segments_shrink_table() {
        let small = H2CardTable::new(1 << 20, 64, 1 << 15); // 512 B segments
        let large = H2CardTable::new(1 << 20, 2048, 1 << 15); // 16 KB segments
        assert_eq!(small.card_count() / large.card_count(), 32);
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn misaligned_stripe_panics() {
        let _ = H2CardTable::new(4096, 64, 100);
    }
}
