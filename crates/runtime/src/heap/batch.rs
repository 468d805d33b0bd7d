//! Word batches: runs of mutator word accesses charged as one
//! `SimClock::charge_batched` — the same nanoseconds and the same number of
//! charges the per-word accessors make (DESIGN.md §9).
//!
//! A batch addresses only [`H1Prims`]: primitive arrays resolved in H1. A
//! batch borrows the whole heap, so nothing can
//! allocate, collect or touch the page cache while it is open; H1 word
//! accesses emit no events, so landing their sum at the end is
//! indistinguishable from charging word by word.

use super::{Heap, Pin};
use crate::config::H1Price;
use teraheap_core::Addr;
use teraheap_storage::{Category, SimClock};

/// A primitive array's words in H1, as of the heap's move epoch when it was
/// resolved ([`Heap::h1_prims`]). Stale after any collection: a batch
/// refuses it then.
#[derive(Debug, Clone, Copy)]
pub struct H1Prims {
    /// First primitive slot and the slot count.
    base: usize,
    len: usize,
    /// The array-length word (0 for a plain object).
    len_slot: usize,
    epoch: u64,
}

/// An open run of H1 word accesses ([`Heap::word_batch`]). Each access
/// costs what the per-word accessor charges for that word, Memory-mode and
/// Panthera-NVM premiums included, and counts as one charge; the sum lands
/// on the clock when the batch is dropped.
#[derive(Debug)]
pub struct WordBatch<'h> {
    mem: &'h mut [u64],
    clock: &'h SimClock,
    epoch: u64,
    price: H1Price,
    /// Accesses so far, and how many of them were past the NVM boundary.
    charges: u64,
    nvm_charges: u64,
}

impl WordBatch<'_> {
    /// Charges one access of the H1 word at `slot`.
    #[inline(always)]
    fn charge(&mut self, slot: usize) {
        self.charges += 1;
        if self.price.in_nvm(slot as u64) {
            self.nvm_charges += 1;
        }
    }

    /// The word of primitive slot `idx` of `a`, bounds- and epoch-checked.
    #[inline(always)]
    fn slot(&self, a: &H1Prims, idx: usize) -> usize {
        let len = a.len;
        assert!(a.epoch == self.epoch, "H1Prims resolved before a collection");
        assert!(idx < len, "prim index {idx} out of bounds ({len})");
        a.base + idx
    }

    /// [`Heap::read_prim_at`] of slot `idx`.
    #[inline]
    pub fn read(&mut self, a: &H1Prims, idx: usize) -> u64 {
        let s = self.slot(a, idx);
        self.charge(s);
        self.mem[s]
    }

    /// [`Heap::write_prim_at`] of slot `idx`.
    #[inline]
    pub fn write(&mut self, a: &H1Prims, idx: usize, val: u64) {
        let s = self.slot(a, idx);
        self.charge(s);
        self.mem[s] = val;
    }

    /// [`Heap::array_len_at`]: a charged load of the length word.
    #[inline]
    pub fn array_len(&mut self, a: &H1Prims) -> usize {
        assert!(a.epoch == self.epoch, "H1Prims resolved before a collection");
        assert!(a.len_slot != 0, "array_len on non-array");
        self.charge(a.len_slot);
        self.mem[a.len_slot] as usize
    }

    /// Writes the `n` slots from `start` through `fill` (which must
    /// overwrite all of them), charged as `n` single writes — unlike
    /// [`Heap::fill_prims_at`], whose H1 run is one charge.
    pub fn fill(&mut self, a: &H1Prims, start: usize, n: usize, fill: impl FnOnce(&mut [u64])) {
        if n == 0 {
            return;
        }
        let len = a.len;
        assert!(a.epoch == self.epoch, "H1Prims resolved before a collection");
        assert!(n <= len && start <= len - n, "prim range {start}+{n} out of bounds ({len})");
        let s = a.base + start;
        self.charges += n as u64;
        self.nvm_charges += self.price.nvm_words(s as u64, n as u64);
        fill(&mut self.mem[s..s + n]);
    }
}

impl Drop for WordBatch<'_> {
    fn drop(&mut self) {
        if self.charges > 0 {
            let ns = self.price.accesses(self.charges, self.nvm_charges);
            self.clock.charge_batched(Category::Mutator, ns, self.charges);
        }
    }
}

impl Heap {
    /// `pin`'s primitive slots for a [`WordBatch`], when the object is in
    /// H1; `None` otherwise.
    #[inline]
    pub fn h1_prims(&mut self, pin: &mut Pin) -> Option<H1Prims> {
        self.refresh(pin);
        let (obj, base, len, array) = pin.prim_window();
        (!obj.is_h2()).then(|| H1Prims {
            base: base as usize,
            len,
            len_slot: if array { obj.raw() as usize + crate::object::HEADER_WORDS } else { 0 },
            epoch: self.move_epoch,
        })
    }

    /// Whether `a` still addresses its object: no collection since it was
    /// resolved.
    #[inline]
    pub fn h1_prims_current(&self, a: &H1Prims) -> bool {
        a.epoch == self.move_epoch
    }

    /// Opens a [`WordBatch`] over this heap's H1 words.
    #[inline]
    pub fn word_batch(&mut self) -> WordBatch<'_> {
        WordBatch {
            mem: &mut self.mem,
            clock: &self.clock,
            epoch: self.move_epoch,
            price: self.h1_price,
            charges: 0,
            nvm_charges: 0,
        }
    }

    /// How many primitive slots of `pin` from `idx` on a per-word
    /// [`Heap::read_prim_at`] (or `write_prim_at`) loop touches as one
    /// [`Heap::view_prims_at`] (or `fill_prims_at`) run, whatever the loop
    /// charges between words: [`teraheap_core::H2::run_words_at`] in H2,
    /// one word in H1, where such a run is one charge and the loop one a
    /// word (a [`WordBatch`] runs H1 words charge for charge).
    pub fn prim_run_at(&mut self, pin: &mut Pin, idx: usize) -> usize {
        self.refresh(pin);
        let (obj, base, len, _) = pin.prim_window();
        let rest = len.saturating_sub(idx);
        if obj.is_h2() {
            rest.min(self.attached_h2().run_words_at(Addr::new(base + idx as u64)))
        } else {
            rest.min(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{GcVariant, Heap, HeapConfig};

    /// Reads, writes, a length load and a fill through a batch cost what the
    /// per-word accessors do, charge for charge, on an array straddling
    /// Panthera's NVM boundary and under Memory mode.
    #[test]
    fn batches_charge_what_the_per_word_accessors_charge() {
        let base = HeapConfig::with_words(16 << 10, 64 << 10);
        let panthera = GcVariant::Panthera { old_dram_words: 512 };
        for config in
            [HeapConfig { variant: panthera, ..base }, HeapConfig { memory_mode: true, ..base }]
        {
            let run = |batched: bool| {
                let mut heap = Heap::new(config);
                let h = heap.alloc_prim_array(1024).expect("fits");
                let mut pin = heap.pin(h);
                if batched {
                    let a = heap.h1_prims(&mut pin).expect("in H1");
                    let mut batch = heap.word_batch();
                    batch.fill(&a, 100, 800, |slots| slots.fill(7));
                    for i in (0..batch.array_len(&a)).step_by(3) {
                        let v = batch.read(&a, i);
                        batch.write(&a, i, v + 1);
                    }
                } else {
                    for i in 100..900 {
                        heap.write_prim_at(&mut pin, i, 7);
                    }
                    for i in (0..heap.array_len_at(&mut pin)).step_by(3) {
                        let v = heap.read_prim_at(&mut pin, i);
                        heap.write_prim_at(&mut pin, i, v + 1);
                    }
                }
                let words: Vec<u64> = heap.view_prims(h, 0, 1024).to_vec();
                (heap.clock().breakdown(), heap.clock().tracer().charge_counts(), words)
            };
            assert_eq!(run(true), run(false), "{config:?}");
        }
    }
}
