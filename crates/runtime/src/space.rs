//! Bump-allocated heap spaces and the H1 card table.

use teraheap_core::Addr;

/// A contiguous bump-allocated space within H1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Space {
    base: u64,
    limit: u64,
    top: u64,
}

impl Space {
    /// Creates a space covering word addresses `[base, base + words)`.
    pub fn new(base: u64, words: usize) -> Self {
        Space { base, limit: base + words as u64, top: base }
    }

    /// First word address of the space.
    pub fn base(&self) -> Addr {
        Addr::new(self.base)
    }

    /// One past the last word address.
    pub fn limit(&self) -> Addr {
        Addr::new(self.limit)
    }

    /// Current allocation pointer.
    pub fn top(&self) -> Addr {
        Addr::new(self.top)
    }

    /// Capacity in words.
    pub fn capacity_words(&self) -> usize {
        (self.limit - self.base) as usize
    }

    /// Words allocated so far.
    pub fn used_words(&self) -> usize {
        (self.top - self.base) as usize
    }

    /// Words remaining.
    pub fn free_words(&self) -> usize {
        (self.limit - self.top) as usize
    }

    /// Whether `addr` lies within the space's bounds.
    pub fn contains(&self, addr: Addr) -> bool {
        let a = addr.raw();
        a >= self.base && a < self.limit
    }

    /// Bump-allocates `words`, or `None` if the space is full.
    pub fn alloc(&mut self, words: usize) -> Option<Addr> {
        if self.top + words as u64 > self.limit {
            return None;
        }
        let addr = Addr::new(self.top);
        self.top += words as u64;
        Some(addr)
    }

    /// Resets the allocation pointer (the space's objects become garbage).
    pub fn reset(&mut self) {
        self.top = self.base;
    }

    /// Sets the allocation pointer to `addr` (used after compaction).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `addr` is outside the space.
    pub fn set_top(&mut self, addr: Addr) {
        debug_assert!(addr.raw() >= self.base && addr.raw() <= self.limit);
        self.top = addr.raw();
    }
}

/// The H1 card table: one dirty bit per 512-byte (64-word) segment of the
/// old generation, marking old→young references for minor-GC root scanning.
///
/// Dirty bits are word-packed (64 cards per `u64`), and a maintained list of
/// touched bitmap words (`dirty_words`, with a `listed` membership flag per
/// word) makes [`H1CardTable::dirty_cards`] proportional to the number of
/// dirty cards rather than the table size — minor GC no longer sweeps every
/// card of a mostly-clean old generation.
///
/// Invariant: every bitmap word with a set bit appears in `dirty_words`
/// (entries whose bits have all been cleared are dropped lazily at the next
/// `dirty_cards` call). The scan order is ascending card index, identical to
/// the full sweep it replaces.
#[derive(Debug, Clone)]
pub struct H1CardTable {
    base: u64,
    seg_words: usize,
    n_cards: usize,
    bits: Vec<u64>,
    dirty_words: Vec<u32>,
    listed: Vec<bool>,
}

impl H1CardTable {
    /// The heap's card segment size, the vanilla JVM's: 512 bytes = 64 words.
    pub const SEG_WORDS: usize = 64;

    /// Creates a card table over the old generation `[base, base + words)`.
    pub fn new(base: Addr, words: usize, seg_words: usize) -> Self {
        assert!(seg_words > 0);
        let n_cards = words.div_ceil(seg_words);
        let n_words = n_cards.div_ceil(64);
        H1CardTable {
            base: base.raw(),
            seg_words,
            n_cards,
            bits: vec![0; n_words],
            dirty_words: Vec::new(),
            listed: vec![false; n_words],
        }
    }

    /// Number of cards.
    pub fn card_count(&self) -> usize {
        self.n_cards
    }

    /// Card segment size in words.
    pub fn seg_words(&self) -> usize {
        self.seg_words
    }

    /// Index of the card covering `addr`.
    pub fn card_of(&self, addr: Addr) -> usize {
        ((addr.raw() - self.base) as usize) / self.seg_words
    }

    /// First address covered by card `idx`.
    pub fn card_base(&self, idx: usize) -> Addr {
        Addr::new(self.base + (idx * self.seg_words) as u64)
    }

    /// Marks the card covering `addr` dirty (post-write barrier).
    pub fn mark_dirty(&mut self, addr: Addr) {
        let idx = self.card_of(addr);
        debug_assert!(idx < self.n_cards);
        let w = idx / 64;
        self.bits[w] |= 1u64 << (idx % 64);
        if !self.listed[w] {
            self.listed[w] = true;
            self.dirty_words.push(w as u32);
        }
    }

    /// Whether card `idx` is dirty.
    pub fn is_dirty(&self, idx: usize) -> bool {
        self.bits[idx / 64] >> (idx % 64) & 1 != 0
    }

    /// Clears card `idx`. The bitmap word stays listed until the next
    /// `dirty_cards` call reconciles the list.
    pub fn clear(&mut self, idx: usize) {
        self.bits[idx / 64] &= !(1u64 << (idx % 64));
    }

    /// Clears every card (after a major GC rebuilds precise state).
    pub fn clear_all(&mut self) {
        for &w in &self.dirty_words {
            self.bits[w as usize] = 0;
            self.listed[w as usize] = false;
        }
        self.dirty_words.clear();
    }

    /// Indices of all dirty cards, ascending. Also compacts the dirty-word
    /// list, dropping words whose cards have all been cleared.
    pub fn dirty_cards(&mut self) -> Vec<usize> {
        self.dirty_words.sort_unstable();
        let mut cards = Vec::new();
        let bits = &mut self.bits;
        let listed = &mut self.listed;
        self.dirty_words.retain(|&w| {
            let mut word = bits[w as usize];
            if word == 0 {
                listed[w as usize] = false;
                return false;
            }
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                cards.push(w as usize * 64 + bit);
                word &= word - 1;
            }
            true
        });
        cards
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_allocation_is_contiguous() {
        let mut s = Space::new(16, 100);
        let a = s.alloc(10).unwrap();
        let b = s.alloc(5).unwrap();
        assert_eq!(a.raw(), 16);
        assert_eq!(b.raw(), 26);
        assert_eq!(s.used_words(), 15);
        assert_eq!(s.free_words(), 85);
    }

    #[test]
    fn alloc_fails_when_full() {
        let mut s = Space::new(0, 8);
        assert!(s.alloc(8).is_some());
        assert!(s.alloc(1).is_none());
        s.reset();
        assert!(s.alloc(1).is_some());
    }

    #[test]
    fn contains_respects_bounds() {
        let s = Space::new(10, 10);
        assert!(!s.contains(Addr::new(9)));
        assert!(s.contains(Addr::new(10)));
        assert!(s.contains(Addr::new(19)));
        assert!(!s.contains(Addr::new(20)));
    }

    #[test]
    fn cards_cover_old_gen() {
        let mut t = H1CardTable::new(Addr::new(1000), 640, 64);
        assert_eq!(t.card_count(), 10);
        t.mark_dirty(Addr::new(1000 + 65));
        assert!(t.is_dirty(1));
        assert!(!t.is_dirty(0));
        assert_eq!(t.dirty_cards(), vec![1]);
        assert_eq!(t.card_base(1), Addr::new(1064));
        t.clear(1);
        assert!(t.dirty_cards().is_empty());
    }

    #[test]
    fn clear_all_resets() {
        let mut t = H1CardTable::new(Addr::new(0), 128, 64);
        t.mark_dirty(Addr::new(0));
        t.mark_dirty(Addr::new(64));
        t.clear_all();
        assert!(t.dirty_cards().is_empty());
    }
}
