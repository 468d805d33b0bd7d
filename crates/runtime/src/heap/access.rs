//! Mutator field access: the one header decode ([`Layout`]), the resolved
//! handle ([`Pin`]), every handle and `*_at` accessor, the bulk view/fill
//! runs and the post-write barrier.

use super::{Handle, Heap};
use crate::class::{ClassId, OBJ_ARRAY_CLASS, PRIM_ARRAY_CLASS};
use crate::object;
use teraheap_core::{Addr, NULL};
use teraheap_storage::Category;

/// Where one object's fields are: the single decode of header, class and
/// array length that every field access — mutator or collector — starts
/// from ([`Heap::layout`]). Reference slots are always contiguous (plain
/// objects store references before primitives; arrays are homogeneous), and
/// so are primitive slots.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layout {
    class: ClassId,
    /// The object's (physical) address.
    obj: Addr,
    /// First reference slot, as a raw word address, and the slot count.
    ref_base: u64,
    ref_len: usize,
    /// First primitive slot and the slot count.
    prim_base: u64,
    prim_len: usize,
}

impl Layout {
    #[inline]
    fn is_array(&self) -> bool {
        self.class == OBJ_ARRAY_CLASS || self.class == PRIM_ARRAY_CLASS
    }

    // The slot helpers copy the length out before asserting: a panic message
    // that borrowed the field would pin the whole layout in memory, and the
    // handle accessors rely on the unused half being optimized away.

    #[inline]
    fn ref_slot(&self, idx: usize) -> Addr {
        let len = self.ref_len;
        assert!(idx < len, "ref index {idx} out of bounds ({len})");
        Addr::new(self.ref_base + idx as u64)
    }

    #[inline]
    fn prim_slot(&self, idx: usize) -> Addr {
        let len = self.prim_len;
        assert!(idx < len, "prim index {idx} out of bounds ({len})");
        Addr::new(self.prim_base + idx as u64)
    }

    /// First slot of the `n`-slot primitive range starting at `start`, the
    /// bounds checked once for the whole range.
    #[inline]
    fn prim_range(&self, start: usize, n: usize) -> Addr {
        let len = self.prim_len;
        assert!(n <= len && start <= len - n, "prim range {start}+{n} out of bounds ({len})");
        Addr::new(self.prim_base + start as u64)
    }

    /// The slot holding an array's element count.
    #[inline]
    fn len_slot(&self) -> Addr {
        assert!(self.is_array(), "array_len on non-array");
        self.obj.add(object::HEADER_WORDS as u64)
    }
}

/// A handle with its object's `Layout` resolved: the host-side half of a
/// field access (root lookup, header decode, class lookup, array length)
/// done once by [`Heap::pin`] instead of once per word. The `*_at`
/// accessors ([`Heap::read_prim_at`], ...) bounds-check against it and then
/// make the same charged load or store the handle accessors make, so a
/// pinned loop is indistinguishable from the handle loop in everything the
/// simulation observes (DESIGN.md §9).
///
/// A pin stays valid for as long as its handle does. It remembers the
/// heap's move epoch — bumped by every collection — and re-resolves through
/// the handle when the epoch has moved on. Pins are only meaningful on the
/// heap that made them.
#[derive(Debug, Clone, Copy)]
pub struct Pin {
    handle: Handle,
    /// [`Heap::move_epoch`] when `at` was resolved.
    epoch: u64,
    at: Layout,
}

impl Pin {
    /// The pinned handle.
    pub fn handle(&self) -> Handle {
        self.handle
    }

    /// The object's class (it never changes, so this needs no heap).
    pub fn class(&self) -> ClassId {
        self.at.class
    }

    /// `(object, first primitive slot, primitive slot count, is an array)`
    /// as of the last resolution.
    #[inline]
    pub(super) fn prim_window(&self) -> (Addr, u64, usize, bool) {
        (self.at.obj, self.at.prim_base, self.at.prim_len, self.at.is_array())
    }
}

impl Heap {
    pub(crate) fn object_size(&self, addr: Addr) -> usize {
        object::size_of(self.word(addr))
    }

    pub(crate) fn object_class(&self, addr: Addr) -> ClassId {
        object::class_of(self.word(addr))
    }

    /// Decodes the object at `addr` into its [`Layout`] — the one place a
    /// header is interpreted for field access.
    ///
    /// Valid for both H1 and H2 objects, and free: the header and array
    /// length are read through [`Heap::word`], which dispatches to the
    /// uncharged, page-cache-silent H2 read for device-resident objects
    /// (mutator accesses charge the field load itself; tracing charges its
    /// costs in bulk).
    #[inline(always)]
    pub(crate) fn layout(&self, addr: Addr) -> Layout {
        let class = self.object_class(addr);
        let fields = addr.raw() + object::HEADER_WORDS as u64;
        if class == OBJ_ARRAY_CLASS || class == PRIM_ARRAY_CLASS {
            let len = self.word(Addr::new(fields)) as usize;
            let first = fields + object::ARRAY_LEN_WORDS as u64;
            let (ref_len, prim_len) = if class == OBJ_ARRAY_CLASS { (len, 0) } else { (0, len) };
            return Layout {
                class,
                obj: addr,
                ref_base: first,
                ref_len,
                prim_base: first,
                prim_len,
            };
        }
        let desc = self.classes.get(class);
        Layout {
            class,
            obj: addr,
            ref_base: fields,
            ref_len: desc.ref_fields,
            prim_base: fields + desc.ref_fields as u64,
            prim_len: desc.prim_fields,
        }
    }

    /// The contiguous reference-slot range `[start, end)` of the object at
    /// `addr`, as raw word addresses, which GC tracing iterates in place.
    pub(crate) fn ref_slot_range(&self, addr: Addr) -> (u64, u64) {
        let at = self.layout(addr);
        (at.ref_base, at.ref_base + at.ref_len as u64)
    }

    /// The sub-range of `addr`'s reference slots falling within `[lo, hi)` —
    /// used by card scans to visit only the portion of an object overlapping
    /// one card segment. May be empty (`start >= end`).
    pub(crate) fn ref_slot_range_in(&self, addr: Addr, lo: u64, hi: u64) -> (u64, u64) {
        let (start, end) = self.ref_slot_range(addr);
        (start.max(lo), end.min(hi))
    }

    /// Resolves `h` to a [`Pin`]: root lookup and header decode. Charges
    /// nothing and touches no page cache.
    #[inline(always)]
    pub fn pin(&self, h: Handle) -> Pin {
        Pin { handle: h, epoch: self.move_epoch, at: self.layout(self.root_of(h)) }
    }

    /// Brings `pin` up to date: re-resolves it if a collection ran since.
    #[inline]
    pub(super) fn refresh(&self, pin: &mut Pin) {
        if pin.epoch != self.move_epoch {
            self.repin(pin);
        }
    }

    #[cold]
    #[inline(never)]
    fn repin(&self, pin: &mut Pin) {
        *pin = self.pin(pin.handle);
    }

    /// Reads reference field/element `idx`, returning a rooted handle (or
    /// `None` for null). Release the handle when done.
    pub fn read_ref(&mut self, h: Handle, idx: usize) -> Option<Handle> {
        let pin = self.pin(h);
        self.ref_at(&pin, idx)
    }

    /// [`Heap::read_ref`] through a pin.
    pub fn read_ref_at(&mut self, pin: &mut Pin, idx: usize) -> Option<Handle> {
        self.refresh(pin);
        self.ref_at(pin, idx)
    }

    fn ref_at(&mut self, pin: &Pin, idx: usize) -> Option<Handle> {
        let val = self.load(pin.at.ref_slot(idx), Category::Mutator);
        if val == 0 {
            None
        } else {
            Some(self.make_root(Addr::new(val)))
        }
    }

    /// Stores `val` into reference field/element `idx` of `h`, running the
    /// post-write barrier (with TeraHeap's reference range check).
    pub fn write_ref(&mut self, h: Handle, idx: usize, val: Handle) {
        let v = self.root_of(val);
        let at = self.pin(h).at;
        self.write_ref_at(at.obj, at.ref_slot(idx), v);
    }

    /// Stores null into reference field/element `idx`.
    pub fn write_ref_null(&mut self, h: Handle, idx: usize) {
        let at = self.pin(h).at;
        self.write_ref_at(at.obj, at.ref_slot(idx), NULL);
    }

    /// The store and post-write barrier of every reference write.
    pub(crate) fn write_ref_at(&mut self, obj: Addr, slot: Addr, val: Addr) {
        self.store(slot, val.raw(), Category::Mutator);
        // Post-write barrier (§4): base card-mark cost, plus the reference
        // range check TeraHeap adds (zero overhead when disabled).
        let mut barrier_ns = self.config.cost.write_barrier_ns;
        if self.h2.is_some() {
            barrier_ns += self.config.cost.h2_range_check_ns;
        }
        self.clock.charge(Category::Mutator, barrier_ns);
        if slot.is_h2() {
            // Mutator updated an H2 object: dirty the H2 card.
            self.attached_h2_mut().cards_mut().mark_dirty(slot);
        } else if self.old.contains(obj) && !val.is_null() && self.in_young(val) {
            self.h1_cards.mark_dirty(slot);
        }
    }

    /// Reads primitive field/element `idx`.
    pub fn read_prim(&mut self, h: Handle, idx: usize) -> u64 {
        let slot = self.pin(h).at.prim_slot(idx);
        self.load(slot, Category::Mutator)
    }

    /// [`Heap::read_prim`] through a pin: the same charged load, with the
    /// object resolved once per pin instead of once per word.
    #[inline]
    pub fn read_prim_at(&mut self, pin: &mut Pin, idx: usize) -> u64 {
        self.refresh(pin);
        self.load(pin.at.prim_slot(idx), Category::Mutator)
    }

    /// Writes primitive field/element `idx`.
    pub fn write_prim(&mut self, h: Handle, idx: usize, val: u64) {
        let slot = self.pin(h).at.prim_slot(idx);
        self.store(slot, val, Category::Mutator);
    }

    /// [`Heap::write_prim`] through a pin.
    #[inline]
    pub fn write_prim_at(&mut self, pin: &mut Pin, idx: usize, val: u64) {
        self.refresh(pin);
        self.store(pin.at.prim_slot(idx), val, Category::Mutator);
    }

    /// Bulk [`Heap::read_prim`] without the copy: charges a read of the `n`
    /// consecutive primitive fields/elements starting at `start` — exactly
    /// what the equivalent per-element loop would, with the layout lookup
    /// and bounds check done once — and returns them in place, on either
    /// heap. The borrow ends before the next heap call, so a view never
    /// outlives a collection. An empty range charges nothing and is not
    /// bounds-checked. [`Heap::read_prims`] is this plus a copy.
    pub fn view_prims(&mut self, h: Handle, start: usize, n: usize) -> &[u64] {
        if n == 0 {
            return &[];
        }
        let base = self.pin(h).at.prim_range(start, n);
        self.view_run(base, n)
    }

    /// [`Heap::view_prims`] through a pin.
    #[inline]
    pub fn view_prims_at(&mut self, pin: &mut Pin, start: usize, n: usize) -> &[u64] {
        if n == 0 {
            return &[];
        }
        self.refresh(pin);
        self.view_run(pin.at.prim_range(start, n), n)
    }

    /// The one implementation of bulk read charging: a charged view of the
    /// `n > 0` bounds-checked words at `base`.
    #[inline(always)]
    fn view_run(&mut self, base: Addr, n: usize) -> &[u64] {
        if base.is_h2() {
            // Device-resident object: one touch_run over the range charges
            // exactly what the per-word loop did (DESIGN.md §9).
            return self.attached_h2_mut().view_words(base, n, Category::Mutator);
        }
        self.clock.charge(Category::Mutator, self.h1_price.words(base.raw(), n as u64));
        let s = base.raw() as usize;
        &self.mem[s..s + n]
    }

    /// [`Heap::view_prims`] without the charge: the same bounds-checked
    /// words in place, on either heap, but through `&self`, so it charges
    /// no clock, emits nothing and touches no page cache. For host work the
    /// cost model does not price, such as searching a frozen index run
    /// whose chunk the caller reads through a charged view anyway.
    pub fn peek_prims(&self, h: Handle, start: usize, n: usize) -> &[u64] {
        if n == 0 {
            return &[];
        }
        let base = self.pin(h).at.prim_range(start, n);
        if base.is_h2() {
            return self.attached_h2().peek_words(base, n);
        }
        let s = base.raw() as usize;
        &self.mem[s..s + n]
    }

    /// [`Heap::view_prims`] copied into `out`, for callers that need the
    /// values to outlive the borrow.
    pub fn read_prims(&mut self, h: Handle, start: usize, out: &mut [u64]) {
        out.copy_from_slice(self.view_prims(h, start, out.len()));
    }

    /// Bulk [`Heap::write_prim`]: writes `vals` into the consecutive
    /// primitive fields/elements starting at `start`. Charge-equivalent to
    /// the per-element loop, like [`Heap::read_prims`].
    pub fn write_prims(&mut self, h: Handle, start: usize, vals: &[u64]) {
        if vals.is_empty() {
            return;
        }
        let base = self.pin(h).at.prim_range(start, vals.len());
        self.fill_run(base, vals.len(), |slots| slots.copy_from_slice(vals));
    }

    /// The write twin of [`Heap::view_prims_at`]: charges a write of the `n`
    /// consecutive primitive fields/elements starting at `start`, then hands
    /// the slots themselves to `fill`, on either heap — a producer (a
    /// decoder, an iterator) writes its words where they will live instead
    /// of into a buffer [`Heap::write_prims`] then copies. `fill` sees the
    /// old values and must overwrite all `n`. An empty range charges
    /// nothing, is not bounds-checked and never calls `fill`.
    #[inline]
    pub fn fill_prims_at(
        &mut self,
        pin: &mut Pin,
        start: usize,
        n: usize,
        fill: impl FnOnce(&mut [u64]),
    ) {
        if n == 0 {
            return;
        }
        self.refresh(pin);
        self.fill_run(pin.at.prim_range(start, n), n, fill);
    }

    /// The one implementation of bulk write charging: charges a write of
    /// the `n > 0` bounds-checked words at `base`, then lets `fill` produce
    /// them in place.
    #[inline(always)]
    fn fill_run(&mut self, base: Addr, n: usize, fill: impl FnOnce(&mut [u64])) {
        if base.is_h2() {
            self.attached_h2_mut().fill_words(base, n, Category::Mutator, fill);
            return;
        }
        self.clock.charge(Category::Mutator, self.h1_price.words(base.raw(), n as u64));
        let s = base.raw() as usize;
        fill(&mut self.mem[s..s + n]);
    }

    /// Length of the (reference or primitive) array behind `h`.
    pub fn array_len(&mut self, h: Handle) -> usize {
        let slot = self.pin(h).at.len_slot();
        self.load(slot, Category::Mutator) as usize
    }

    /// [`Heap::array_len`] through a pin: still a charged load of the
    /// length word, as the handle accessor is.
    pub fn array_len_at(&mut self, pin: &mut Pin) -> usize {
        self.refresh(pin);
        self.load(pin.at.len_slot(), Category::Mutator) as usize
    }
}
