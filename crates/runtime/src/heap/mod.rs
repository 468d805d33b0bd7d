//! The managed heap: H1 spaces, handles, barriers and the TeraHeap hooks.
//!
//! Mutator code (frameworks) manipulates objects exclusively through this
//! API using GC-safe [`Handle`]s. Every access charges simulated time; the
//! post-write barrier implements the paper's reference range check (§4) to
//! pick the H1 or H2 card table. One file per mechanism:
//!
//! * this file — the [`Heap`] struct, its constructors, the root table and
//!   the uncharged and charged word load/store everything else goes through;
//! * `alloc` — allocation and the GC entry points;
//! * `access` — [`Pin`], the field accessors and the write barrier;
//! * `batch` — [`WordBatch`], runs of H1 word accesses charged in one step;
//! * `hints` — attaching H2, the placement hints and the charge/span hooks.

mod access;
mod alloc;
mod batch;
mod hints;

pub use access::Pin;
pub use batch::{H1Prims, WordBatch};

use crate::class::{ClassDesc, ClassId, ClassRegistry};
use crate::config::{H1Price, HeapConfig, VariantPolicy};
use crate::gc;
use crate::space::{H1CardTable, Space};
use crate::stats::GcStats;
use std::sync::Arc;
use teraheap_core::{Addr, H2, NULL};
use teraheap_storage::{spare, Category, SimClock};

/// Reserved low words so that address 0 stays the null reference.
const RESERVED_WORDS: usize = 16;

const UNATTACHED: &str = "an H2 address, slot, card or candidate exists only after attach_h2";

/// A GC-safe reference to a heap object.
///
/// Handles index a root table that every collection updates, so they remain
/// valid across object motion (including motion into H2 — the "illusion of a
/// single managed heap", §3.1). Release handles you no longer need with
/// [`Heap::release`], or the objects they pin stay live forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Handle(pub(crate) u32);

/// The managed heap.
#[derive(Debug)]
pub struct Heap {
    pub(crate) mem: Vec<u64>,
    pub(crate) eden: Space,
    pub(crate) from: Space,
    pub(crate) to: Space,
    pub(crate) old: Space,
    pub(crate) h1_cards: H1CardTable,
    pub(crate) roots: Vec<Addr>,
    pub(crate) free_roots: Vec<u32>,
    /// Bumped wherever a root can be rewritten (every minor and major GC):
    /// a [`Pin`] resolved under an older epoch is stale.
    pub(crate) move_epoch: u64,
    pub(crate) classes: ClassRegistry,
    pub(crate) h2: Option<H2>,
    pub(crate) clock: Arc<SimClock>,
    pub(crate) config: HeapConfig,
    /// `config.variant` as the numbers the collector reads.
    pub(crate) policy: VariantPolicy,
    pub(crate) stats: GcStats,
    /// Sorted start addresses of objects in the old generation (the card
    /// offset table analogue, letting dirty-card scans find object starts).
    pub(crate) old_starts: Vec<u64>,
    /// What an H1 word access costs, premiums included.
    pub(crate) h1_price: H1Price,
    /// When true, major GC runs an uncharged full trace through H2 to
    /// collect the per-region live-object statistics of Figure 10.
    pub(crate) track_h2_liveness: bool,
    /// GCs requested while one is already running would be re-entrant;
    /// guarded for debugging.
    pub(crate) in_gc: bool,
    /// Collection buffers between collections, the major cycle's mark
    /// bitmap among them, recycled instead of reallocated per GC.
    pub(crate) gc_scratch: gc::GcScratch,
    /// Run [`Heap::heap_check`] at every GC boundary (config flag or
    /// `TERAHEAP_HEAP_CHECK=1`), panicking on the first violated invariant.
    pub(crate) check_enabled: bool,
}

impl Heap {
    /// Creates a heap with a fresh clock and no second heap.
    pub fn new(config: HeapConfig) -> Self {
        Self::with_clock(config, Arc::new(SimClock::new()))
    }

    /// Creates a heap sharing `clock` with other simulation components.
    ///
    /// Applies the configuration's flight-recorder overrides (`obs_level`,
    /// `obs_events`) to the clock's tracer.
    pub fn with_clock(config: HeapConfig, clock: Arc<SimClock>) -> Self {
        if let Some(level) = config.obs_level {
            clock.tracer().set_level(level);
        }
        if config.obs_events != 0 {
            clock.tracer().set_capacity(config.obs_events);
        }
        let eden_words = config.young_words * 8 / 10;
        let surv_words = (config.young_words - eden_words) / 2;
        let eden = Space::new(RESERVED_WORDS as u64, eden_words);
        let from = Space::new(eden.limit().raw(), surv_words);
        let to = Space::new(from.limit().raw(), surv_words);
        let old = Space::new(to.limit().raw(), config.old_words);
        let total = old.limit().raw() as usize;
        let h1_cards = H1CardTable::new(old.base(), config.old_words, H1CardTable::SEG_WORDS);
        let policy = config.variant.policy();
        Heap {
            mem: spare::zeroed(total),
            eden,
            from,
            to,
            old,
            h1_cards,
            roots: Vec::new(),
            free_roots: Vec::new(),
            move_epoch: 0,
            classes: ClassRegistry::new(),
            h2: None,
            clock,
            config,
            policy,
            stats: GcStats::new(),
            old_starts: Vec::new(),
            h1_price: H1Price::new(&config, &policy, old.base().raw()),
            track_h2_liveness: false,
            in_gc: false,
            gc_scratch: gc::GcScratch::default(),
            check_enabled: config.heap_check
                || std::env::var("TERAHEAP_HEAP_CHECK").is_ok_and(|v| v == "1"),
        }
    }

    /// The simulated clock shared by this heap.
    pub fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }

    /// The heap configuration.
    pub fn config(&self) -> &HeapConfig {
        &self.config
    }

    /// Cumulative GC statistics.
    pub fn stats(&self) -> &GcStats {
        &self.stats
    }

    /// The second heap, if enabled.
    pub fn h2(&self) -> Option<&H2> {
        self.h2.as_ref()
    }

    /// Mutable access to the second heap, if enabled.
    pub fn h2_mut(&mut self) -> Option<&mut H2> {
        self.h2.as_mut()
    }

    /// The second heap behind an H2 address, slot, card or candidate: none
    /// of those exists before [`Heap::attach_h2`], so the collector and the
    /// barriers reach H2 through this pair, never through the `Option`.
    #[inline]
    pub(crate) fn attached_h2(&self) -> &H2 {
        self.h2.as_ref().expect(UNATTACHED)
    }

    /// Mutable [`Heap::attached_h2`].
    #[inline]
    pub(crate) fn attached_h2_mut(&mut self) -> &mut H2 {
        self.h2.as_mut().expect(UNATTACHED)
    }

    /// Old-generation occupancy in words.
    pub fn old_used_words(&self) -> usize {
        self.old.used_words()
    }

    /// Eden occupancy in words.
    pub fn eden_used_words(&self) -> usize {
        self.eden.used_words()
    }

    /// Registers a data class with `ref_fields` references then `prim_fields`
    /// primitive words.
    pub fn register_class(&mut self, name: &str, ref_fields: usize, prim_fields: usize) -> ClassId {
        self.classes.register(name, ref_fields, prim_fields)
    }

    /// The descriptor of `class`.
    pub fn class_desc(&self, class: ClassId) -> &ClassDesc {
        self.classes.get(class)
    }

    #[inline]
    pub(crate) fn root_of(&self, h: Handle) -> Addr {
        let a = self.roots[h.0 as usize];
        debug_assert!(!a.is_null(), "use of released handle");
        a
    }

    /// Creates a handle rooting `addr`.
    #[inline]
    pub(crate) fn make_root(&mut self, addr: Addr) -> Handle {
        if let Some(i) = self.free_roots.pop() {
            self.roots[i as usize] = addr;
            Handle(i)
        } else {
            self.roots.push(addr);
            Handle((self.roots.len() - 1) as u32)
        }
    }

    /// Creates a second, independently-released handle to the same object.
    pub fn dup(&mut self, h: Handle) -> Handle {
        let addr = self.root_of(h);
        self.make_root(addr)
    }

    /// Releases a handle; the object may become unreachable.
    pub fn release(&mut self, h: Handle) {
        debug_assert!(!self.roots[h.0 as usize].is_null(), "double release");
        self.roots[h.0 as usize] = NULL;
        self.free_roots.push(h.0);
    }

    /// Number of live root handles (diagnostics).
    pub fn live_roots(&self) -> usize {
        self.roots.iter().filter(|a| !a.is_null()).count()
    }

    /// Total root-table slots, live or free (diagnostics): stays bounded
    /// under alloc/release churn because released slots are recycled.
    pub fn root_table_len(&self) -> usize {
        self.roots.len()
    }

    /// Whether the object behind `h` currently resides in H2.
    pub fn is_in_h2(&self, h: Handle) -> bool {
        self.root_of(h).is_h2()
    }

    /// The current address of the object behind `h`.
    ///
    /// Only stable until the next collection; intended for diagnostics,
    /// region-level assertions and ordering hints, not for storing. Sorting
    /// objects by address gives the order a scan of their storage meets
    /// them in (ascending H2 offsets ride the page cache's readahead); the
    /// order holds until the next collection moves something.
    pub fn handle_addr(&self, h: Handle) -> Addr {
        self.root_of(h)
    }

    #[inline]
    pub(crate) fn in_young(&self, addr: Addr) -> bool {
        self.eden.contains(addr) || self.from.contains(addr) || self.to.contains(addr)
    }

    /// Uncharged word load (GC-internal; phase costs are charged in bulk).
    #[inline]
    pub(crate) fn word(&self, addr: Addr) -> u64 {
        if addr.is_h2() {
            self.attached_h2().read_word_free(addr)
        } else {
            self.mem[addr.raw() as usize]
        }
    }

    /// Uncharged word store (GC-internal).
    #[inline]
    pub(crate) fn set_word(&mut self, addr: Addr, value: u64) {
        if addr.is_h2() {
            self.attached_h2_mut().write_word_free(addr, value);
        } else {
            self.mem[addr.raw() as usize] = value;
        }
    }

    /// Charged mutator word load: DRAM cost for H1 (plus Memory-mode or
    /// Panthera-NVM penalties), page-fault/DAX cost for H2.
    #[inline]
    pub(crate) fn load(&mut self, addr: Addr, cat: Category) -> u64 {
        if addr.is_h2() {
            self.attached_h2_mut().read_word(addr, cat)
        } else {
            self.clock.charge(cat, self.h1_price.word(addr.raw()));
            self.mem[addr.raw() as usize]
        }
    }

    /// Charged mutator word store.
    #[inline]
    pub(crate) fn store(&mut self, addr: Addr, value: u64, cat: Category) {
        if addr.is_h2() {
            self.attached_h2_mut().write_word(addr, value, cat);
        } else {
            self.clock.charge(cat, self.h1_price.word(addr.raw()));
            self.mem[addr.raw() as usize] = value;
        }
    }

    /// Runs [`Heap::heap_check`] if checking is enabled, panicking with the
    /// violated invariant. GC entry/exit points call this so a fault-injection
    /// run trips loudly at the first corrupted boundary instead of producing
    /// silently wrong results. Zero work when checking is off (the default).
    pub(crate) fn maybe_heap_check(&self, when: &'static str) {
        if !self.check_enabled {
            return;
        }
        if let Err(e) = self.heap_check() {
            panic!("heap_check failed {when}: {e}");
        }
    }
}

impl Drop for Heap {
    /// Inside a server run the H1 words go back to the spare pool, zeroed
    /// page by page where they were written (DESIGN.md §12); otherwise they
    /// are simply freed. An attached H2 hands its store back as it drops.
    fn drop(&mut self) {
        spare::give_back(&mut self.mem, spare::zero_written_pages);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teraheap_core::Label;

    fn heap() -> Heap {
        Heap::new(HeapConfig::small())
    }

    #[test]
    fn alloc_and_field_round_trip() {
        let mut h = heap();
        let c = h.register_class("Node", 1, 2);
        let a = h.alloc(c).unwrap();
        h.write_prim(a, 0, 11);
        h.write_prim(a, 1, 22);
        assert_eq!(h.read_prim(a, 0), 11);
        assert_eq!(h.read_prim(a, 1), 22);
        assert!(h.read_ref(a, 0).is_none());
    }

    #[test]
    fn ref_fields_link_objects() {
        let mut h = heap();
        let c = h.register_class("Node", 1, 1);
        let a = h.alloc(c).unwrap();
        let b = h.alloc(c).unwrap();
        h.write_prim(b, 0, 99);
        h.write_ref(a, 0, b);
        let b2 = h.read_ref(a, 0).unwrap();
        assert_eq!(h.handle_addr(b), h.handle_addr(b2));
        assert_eq!(h.read_prim(b2, 0), 99);
        h.write_ref_null(a, 0);
        assert!(h.read_ref(a, 0).is_none());
    }

    #[test]
    fn arrays_store_elements() {
        let mut h = heap();
        let c = h.register_class("Elem", 0, 1);
        let arr = h.alloc_ref_array(4).unwrap();
        assert_eq!(h.array_len(arr), 4);
        let e = h.alloc(c).unwrap();
        h.write_prim(e, 0, 7);
        h.write_ref(arr, 2, e);
        h.release(e);
        let e2 = h.read_ref(arr, 2).unwrap();
        assert_eq!(h.read_prim(e2, 0), 7);
        assert!(h.read_ref(arr, 0).is_none());

        let pa = h.alloc_prim_array(3).unwrap();
        h.write_prim(pa, 1, 42);
        assert_eq!(h.read_prim(pa, 1), 42);
        assert_eq!(h.array_len(pa), 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn array_bounds_are_checked() {
        let mut h = heap();
        let arr = h.alloc_prim_array(2).unwrap();
        h.write_prim(arr, 2, 1);
    }

    #[test]
    fn allocation_charges_time() {
        let mut h = heap();
        let c = h.register_class("X", 0, 1);
        let t0 = h.clock().total_ns();
        let _ = h.alloc(c).unwrap();
        assert!(h.clock().total_ns() > t0);
    }

    #[test]
    fn release_recycles_handle_slots() {
        let mut h = heap();
        let c = h.register_class("X", 0, 1);
        let a = h.alloc(c).unwrap();
        h.release(a);
        let b = h.alloc(c).unwrap();
        assert_eq!(a.0, b.0, "slot recycled");
    }

    #[test]
    fn h1_words_dropped_in_a_server_run_come_back_all_zero() {
        let churn = |h: &mut Heap| {
            let c = h.register_class("Node", 1, 6);
            let keep = h.alloc(c).unwrap();
            for i in 0..2_000 {
                let a = h.alloc(c).unwrap();
                h.write_prim(a, 0, i);
                h.write_ref(keep, 0, a);
                h.release(a);
            }
            h.gc_major().unwrap();
        };
        let scope = spare::Recycling::begin();
        let mut h = heap();
        churn(&mut h);
        let (len, ptr) = (h.mem.len(), h.mem.as_ptr());
        drop(h);
        assert_eq!(spare::parked(), 1);
        let words = spare::zeroed(len);
        assert_eq!(words.as_ptr(), ptr, "the next heap of its size reuses them");
        assert!(words.iter().all(|&w| w == 0));
        drop(scope);
        assert_eq!(spare::parked(), 0, "the pool dies with the run");

        let mut outside = heap();
        churn(&mut outside);
        drop(outside);
        assert_eq!(spare::parked(), 0, "outside a run the words are freed");
    }

    #[test]
    fn h2_tagging_sets_label() {
        let mut h = heap();
        let c = h.register_class("Part", 0, 1);
        let a = h.alloc(c).unwrap();
        assert_eq!(h.h2_label_of(a), 0);
        h.h2_tag_root(a, Label::new(9));
        assert_eq!(h.h2_label_of(a), 9);
    }
}
