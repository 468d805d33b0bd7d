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
//! * `hints` — attaching H2, the placement hints and the charge/span hooks.

mod access;
mod alloc;
mod hints;

pub use access::Pin;

use crate::class::{ClassDesc, ClassId, ClassRegistry};
use crate::config::{HeapConfig, OomError, VariantPolicy};
use crate::gc;
use crate::space::{H1CardTable, Space};
use crate::stats::GcStats;
use std::sync::Arc;
use teraheap_core::{Addr, H2, NULL};
use teraheap_storage::obs::EventKind;
use teraheap_storage::{Category, SimClock};

/// Reserved low words so that address 0 stays the null reference.
const RESERVED_WORDS: usize = 16;

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
    /// Bumped wherever a root can be rewritten (minor GC, every major
    /// slice): a [`Pin`] resolved under an older epoch is stale.
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
    /// Extra nanoseconds per H1 word access (NVM Memory mode).
    pub(crate) h1_extra_ns: u64,
    /// Extra nanoseconds per word for the NVM part of a Panthera old gen.
    pub(crate) panthera_extra_ns: u64,
    /// First old-generation address backed by NVM under Panthera.
    pub(crate) panthera_nvm_base: u64,
    /// When true, major GC runs an uncharged full trace through H2 to
    /// collect the per-region live-object statistics of Figure 10.
    pub(crate) track_h2_liveness: bool,
    /// DRAM-side index of object start addresses per H2 region (the card
    /// offset table analogue for H2), so card scans can find object starts
    /// without walking the device-resident region. Indexed by region id;
    /// empty for a region holding nothing.
    pub(crate) h2_starts: Vec<Vec<u64>>,
    /// GCs requested while one is already running would be re-entrant;
    /// guarded for debugging.
    pub(crate) in_gc: bool,
    /// The major cycle's mark bitmap between collections (all-zero, which
    /// the heap checker verifies), recycled instead of reallocated per GC.
    pub(crate) mark_scratch: gc::LiveMap,
    /// The in-flight major cycle, if one is parked between pause slices
    /// (DESIGN.md §11). Boxed: the cycle state is large and only ever
    /// outlives a collection when slicing is armed.
    pub(crate) cycle: Option<Box<gc::major::MajorCycle>>,
    /// OOM hit by a major cycle, possibly inside a slice running under an
    /// infallible charge path; surfaced at the next fallible call
    /// (allocation or explicit GC).
    pub(crate) pending_oom: Option<OomError>,
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
        let h1_extra_ns = config.memory_mode.map(|m| m.extra_ns_per_word()).unwrap_or(0);
        let policy = config.variant.policy();
        let (panthera_nvm_base, panthera_extra_ns) = policy
            .panthera_nvm
            .map_or((u64::MAX, 0), |(offset, ns)| (old.base().raw() + offset as u64, ns));
        Heap {
            mem: vec![0; total],
            eden,
            from,
            to,
            old,
            h1_cards,
            roots: Vec::new(),
            free_roots: Vec::new(),
            move_epoch: access::UNCACHED + 1,
            classes: ClassRegistry::new(),
            h2: None,
            clock,
            config,
            policy,
            stats: GcStats::new(),
            old_starts: Vec::new(),
            h1_extra_ns,
            panthera_extra_ns,
            panthera_nvm_base,
            track_h2_liveness: false,
            h2_starts: Vec::new(),
            in_gc: false,
            mark_scratch: gc::LiveMap::default(),
            cycle: None,
            pending_oom: None,
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
        let a = self.roots[h.0 as usize];
        self.roots[h.0 as usize] = NULL;
        self.free_roots.push(h.0);
        // SATB: a root released mid-marking was reachable at cycle start.
        if let Some(cyc) = self.cycle.as_deref_mut() {
            if cyc.marking() && !a.is_null() {
                if a.is_h2() {
                    self.h2.as_mut().expect("H2 root without H2").note_forward_ref(a);
                } else {
                    cyc.mutator.remembered.push(a.raw());
                }
                self.clock.emit(EventKind::WriteBarrierRemember { root: true });
                self.stats.write_barrier_remembered += 1;
            }
        }
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

    /// Whether two handles refer to the same object.
    pub fn same_object(&self, a: Handle, b: Handle) -> bool {
        self.root_of(a) == self.root_of(b)
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

    #[inline]
    pub(crate) fn h1_word_extra_ns(&self, addr: Addr) -> u64 {
        let mut extra = self.h1_extra_ns;
        if addr.raw() >= self.panthera_nvm_base {
            extra += self.panthera_extra_ns;
        }
        extra
    }

    /// Uncharged word load (GC-internal; phase costs are charged in bulk).
    #[inline]
    pub(crate) fn word(&self, addr: Addr) -> u64 {
        if addr.is_h2() {
            self.h2.as_ref().expect("H2 address without H2").read_word_free(addr)
        } else {
            self.mem[addr.raw() as usize]
        }
    }

    /// Uncharged word store (GC-internal).
    #[inline]
    pub(crate) fn set_word(&mut self, addr: Addr, value: u64) {
        if addr.is_h2() {
            self.h2.as_mut().expect("H2 address without H2").write_word_free(addr, value);
        } else {
            self.mem[addr.raw() as usize] = value;
        }
    }

    /// Charged mutator word load: DRAM cost for H1 (plus Memory-mode or
    /// Panthera-NVM penalties), page-fault/DAX cost for H2.
    #[inline]
    pub(crate) fn load(&mut self, addr: Addr, cat: Category) -> u64 {
        if addr.is_h2() {
            self.h2.as_mut().expect("H2 address without H2").read_word(addr, cat)
        } else {
            self.clock.charge(cat, self.config.cost.dram_word_ns + self.h1_word_extra_ns(addr));
            self.mem[addr.raw() as usize]
        }
    }

    /// Charged mutator word store.
    #[inline]
    pub(crate) fn store(&mut self, addr: Addr, value: u64, cat: Category) {
        if addr.is_h2() {
            self.h2.as_mut().expect("H2 address without H2").write_word(addr, value, cat);
        } else {
            self.clock.charge(cat, self.config.cost.dram_word_ns + self.h1_word_extra_ns(addr));
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
        assert!(h.same_object(b, b2));
        assert_eq!(h.read_prim(b2, 0), 99);
        h.write_ref_null(a, 0);
        assert!(h.ref_is_null(a, 0));
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
    fn h2_tagging_sets_label() {
        let mut h = heap();
        let c = h.register_class("Part", 0, 1);
        let a = h.alloc(c).unwrap();
        assert_eq!(h.h2_label_of(a), 0);
        h.h2_tag_root(a, Label::new(9));
        assert_eq!(h.h2_label_of(a), 9);
    }
}
