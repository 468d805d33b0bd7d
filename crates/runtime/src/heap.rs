//! The managed heap: H1 spaces, handles, barriers and the TeraHeap hooks.
//!
//! Mutator code (frameworks) manipulates objects exclusively through this
//! API using GC-safe [`Handle`]s. Every access charges simulated time; the
//! post-write barrier implements the paper's reference range check (§4) to
//! pick the H1 or H2 card table.

use crate::class::{ClassDesc, ClassId, ClassRegistry, OBJ_ARRAY_CLASS, PRIM_ARRAY_CLASS};
use crate::config::{HeapConfig, OomError, VariantPolicy};
use crate::gc;
use crate::object;
use crate::space::{H1CardTable, Space};
use crate::stats::GcStats;
use std::sync::Arc;
use teraheap_core::{Addr, H2Config, Label, LifetimeProfiles, RegionGroups, RegionId, H2, NULL};
use teraheap_storage::obs::{EventKind, GcCause, SpanKind};
use teraheap_storage::{AttachError, Category, SharedDevice, SimClock, TraceSpan};

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

/// A handle with its object's [`Layout`] resolved: the host-side half of a
/// field access (root lookup, header decode, class lookup, array length)
/// done once by [`Heap::pin`] instead of once per word. The `*_at`
/// accessors ([`Heap::read_prim_at`], ...) bounds-check against it and then
/// make the same charged load or store the handle accessors make, so a
/// pinned loop is indistinguishable from the handle loop in everything the
/// simulation observes (DESIGN.md §9).
///
/// A pin stays valid for as long as its handle does. It remembers the
/// heap's move epoch — bumped wherever a collection can rewrite a root —
/// and re-resolves through the handle when the epoch has moved on; while a
/// sliced major cycle is in flight it re-resolves on every access. Pins are
/// only meaningful on the heap that made them.
#[derive(Debug, Clone, Copy)]
pub struct Pin {
    handle: Handle,
    /// [`Heap::move_epoch`] when `at` was resolved, or `UNCACHED`.
    epoch: u64,
    /// The object is un-relocated behind the flip of an in-flight cycle: its
    /// reference slots hold pre-compaction values. Only ever set on a pin
    /// that is not cached.
    raw_slots: bool,
    at: Layout,
}

/// The epoch of a pin resolved under an in-flight major cycle; no heap ever
/// has it, so the pin re-resolves on every access.
const UNCACHED: u64 = 0;

impl Pin {
    /// The pinned handle.
    pub fn handle(&self) -> Handle {
        self.handle
    }

    /// The object's class (it never changes, so this needs no heap).
    pub fn class(&self) -> ClassId {
        self.at.class
    }
}

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
    /// slice, crash recovery): a [`Pin`] resolved under an older epoch is
    /// stale.
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
    /// Per-allocation-site lifetime profiles (adaptive placement plane).
    /// Disabled by default, so the static-policy goldens stay bit-identical.
    pub(crate) lifetimes: LifetimeProfiles,
    /// The allocation-site label subsequent allocations belong to, set by
    /// the framework around partition construction ([`Heap::set_alloc_site`]).
    pub(crate) alloc_site: Option<Label>,
    /// Union-find over H2 regions: regions receiving pretenured data from
    /// one site merge into a group whose liveness is decided as a unit.
    /// Present only while adaptive placement is on.
    pub(crate) site_groups: Option<RegionGroups>,
    /// `(label id, last region)` per pretenuring site, sorted by label id —
    /// consecutive regions of one site are merged in `site_groups`.
    pub(crate) site_last_region: Vec<(u64, u32)>,
    /// Reusable scratch for composing pretenured object images (zero
    /// allocation on the pretenure path once its capacity warms up).
    pub(crate) pretenure_scratch: Vec<u64>,
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
        let h1_cards = H1CardTable::new(old.base(), config.old_words, config.card_seg_words);
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
            move_epoch: UNCACHED + 1,
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
            lifetimes: LifetimeProfiles::new(),
            alloc_site: None,
            site_groups: None,
            site_last_region: Vec::new(),
            pretenure_scratch: Vec::new(),
        }
    }

    /// Attaches a TeraHeap second heap over a tenant partition of `device`.
    ///
    /// Corresponds to launching the JVM with `EnableTeraHeap`. The heap must
    /// have been registered as a tenant of the device beforehand (via
    /// [`SharedDevice::new`] or [`SharedDevice::add_tenant`]) **with this
    /// heap's clock**: tenant identity *is* clock identity, so a heap and its
    /// device partition structurally share one [`SimClock`] — the invariant
    /// every simulated-time comparison in the repo depends on. Attachment
    /// fails if the clock is unknown to the device, if the partition is
    /// already attached, or if the configured H2 footprint
    /// ([`H2Config::footprint_bytes`]) exceeds the tenant's quota — quota
    /// violations surface here, not at first I/O.
    pub fn attach_h2(&mut self, h2_config: H2Config, device: &SharedDevice) -> Result<(), AttachError> {
        let h2 = H2::attach(h2_config, device, self.clock.clone())?;
        self.h2_starts = vec![Vec::new(); h2.regions().region_count()];
        self.h2 = Some(h2);
        Ok(())
    }

    /// Enables the uncharged H2 liveness tracing that Figure 10 needs.
    pub fn track_h2_liveness(&mut self, on: bool) {
        self.track_h2_liveness = on;
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

    /// Old-generation capacity in words.
    pub fn old_capacity_words(&self) -> usize {
        self.old.capacity_words()
    }

    /// Eden occupancy in words.
    pub fn eden_used_words(&self) -> usize {
        self.eden.used_words()
    }

    // ----- classes ---------------------------------------------------------

    /// Registers a data class with `ref_fields` references then `prim_fields`
    /// primitive words.
    pub fn register_class(&mut self, name: &str, ref_fields: usize, prim_fields: usize) -> ClassId {
        self.classes.register(name, ref_fields, prim_fields)
    }

    /// The descriptor of `class`.
    pub fn class_desc(&self, class: ClassId) -> &ClassDesc {
        self.classes.get(class)
    }

    // ----- handles ---------------------------------------------------------

    pub(crate) fn root_of(&self, h: Handle) -> Addr {
        let a = self.roots[h.0 as usize];
        debug_assert!(!a.is_null(), "use of released handle");
        a
    }

    /// Creates a handle rooting `addr`.
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
    /// Only stable until the next collection; intended for diagnostics and
    /// region-level assertions, not for storing.
    pub fn handle_addr(&self, h: Handle) -> Addr {
        self.root_of(h)
    }

    // ----- allocation ------------------------------------------------------

    /// Allocates an instance of `class`. Fields start zeroed/null.
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] if the allocation cannot be satisfied even after
    /// garbage collection.
    pub fn alloc(&mut self, class: ClassId) -> Result<Handle, OomError> {
        let words = self.classes.get(class).instance_words();
        let addr = self.alloc_raw(class, words, 0)?;
        Ok(self.make_root(addr))
    }

    /// Allocates a reference array of `len` elements (all null).
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] on exhaustion.
    pub fn alloc_ref_array(&mut self, len: usize) -> Result<Handle, OomError> {
        let words = object::HEADER_WORDS + object::ARRAY_LEN_WORDS + len;
        let addr = self.alloc_raw(OBJ_ARRAY_CLASS, words, len as u64)?;
        Ok(self.make_root(addr))
    }

    /// Allocates a primitive array of `len` words (zeroed).
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] on exhaustion.
    pub fn alloc_prim_array(&mut self, len: usize) -> Result<Handle, OomError> {
        let words = object::HEADER_WORDS + object::ARRAY_LEN_WORDS + len;
        let addr = self.alloc_raw(PRIM_ARRAY_CLASS, words, len as u64)?;
        Ok(self.make_root(addr))
    }

    /// Allocates a primitive array as a member of the labeled object group
    /// `site`: the allocation is attributed to `site` for lifetime
    /// profiling / pretenuring (so, with adaptive placement on, later
    /// chunks of a long-lived group allocate straight into its
    /// region-grouped H2 storage), and the object header is tagged with
    /// `site` so a subsequent [`Heap::h2_move`] promotes the whole group
    /// into contiguous same-label regions. The query plane allocates every
    /// column chunk through this, one label per (table, column), so whole
    /// columns move and die together at region granularity.
    ///
    /// The surrounding allocation-site bracket (if any) is preserved.
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] on exhaustion.
    pub fn alloc_prim_array_labeled(&mut self, len: usize, site: Label) -> Result<Handle, OomError> {
        let prev = self.alloc_site;
        self.alloc_site = Some(site);
        let r = self.alloc_prim_array(len);
        self.alloc_site = prev;
        let h = r?;
        // Pretenured arrays already carry the label in their H2 header.
        if !self.is_in_h2(h) {
            self.h2_tag_root(h, site);
        }
        Ok(h)
    }

    fn alloc_raw(&mut self, class: ClassId, words: usize, array_len: u64) -> Result<Addr, OomError> {
        if let Some(e) = self.pending_oom.take() {
            return Err(e);
        }
        self.clock.charge(Category::Mutator, self.config.cost.alloc_ns);
        self.incr_poll();
        // Lifetime-profiled pretenuring: when the current allocation site's
        // profile crossed the tenure threshold, place the object straight
        // into region-grouped H2 storage, skipping survivor copying. Falls
        // through to the normal H1 path when H2 is absent, degraded or full.
        if let Some(label) = self.alloc_site {
            if self.lifetimes.should_pretenure(label) {
                if let Some(addr) = self.pretenure(label, class, words, array_len) {
                    return Ok(addr);
                }
            }
        }
        let addr = self.alloc_words(words)?;
        let i = addr.raw() as usize;
        self.mem[i..i + words].fill(0);
        self.mem[i] = object::pack_header(class, words);
        if class == OBJ_ARRAY_CLASS || class == PRIM_ARRAY_CLASS {
            self.mem[i + object::HEADER_WORDS] = array_len;
        }
        if let Some(cyc) = self.cycle.as_deref_mut() {
            cyc.note_alloc(addr, words);
        }
        Ok(addr)
    }

    fn alloc_words(&mut self, words: usize) -> Result<Addr, OomError> {
        // Large objects bypass eden and go straight to the old generation
        // (PS behaviour; Panthera additionally pretenures all big objects).
        let big = words > self.eden.capacity_words() / self.policy.big_object_eden_divisor;
        if big {
            // Old-gen placement must not race the in-flight cycle's plan.
            gc::major::finish(self)?;
            if let Some(a) = self.alloc_old(words) {
                return Ok(a);
            }
            gc::major::major_gc(self, GcCause::LargeAlloc)?;
            return self.alloc_old(words).ok_or_else(|| {
                self.note_oom(OomError {
                    requested_words: words,
                    context: "large allocation does not fit the old generation".to_string(),
                })
            });
        }
        if let Some(a) = self.eden.alloc(words) {
            return Ok(a);
        }
        self.collect_for(words)?;
        self.eden.alloc(words).ok_or_else(|| {
            self.note_oom(OomError {
                requested_words: words,
                context: "eden exhausted after garbage collection".to_string(),
            })
        })
    }

    /// Allocates a pretenured object directly in H2 under `label`,
    /// returning `None` (caller falls back to H1) when H2 is absent,
    /// degraded, or cannot fit the object. The object image — header,
    /// label word, array length — is composed in a reusable scratch buffer
    /// and written through the promotion buffer, so device costs are
    /// batched exactly like major-GC promotion, but charged to the mutator.
    fn pretenure(&mut self, label: Label, class: ClassId, words: usize, array_len: u64) -> Option<Addr> {
        let h2 = self.h2.as_mut()?;
        if h2.is_degraded() {
            return None;
        }
        let dest = h2.alloc(label, words).ok()?;
        let mut scratch = std::mem::take(&mut self.pretenure_scratch);
        scratch.clear();
        scratch.resize(words, 0);
        scratch[0] = object::pack_header(class, words);
        scratch[1] = label.id();
        if class == OBJ_ARRAY_CLASS || class == PRIM_ARRAY_CLASS {
            scratch[object::HEADER_WORDS] = array_len;
        }
        let h2 = self.h2.as_mut().expect("checked above");
        h2.write_promoted(dest, &scratch, Category::Mutator);
        // Fence the region live immediately: an in-flight incremental cycle
        // must not sweep a region that just received a rooted allocation.
        h2.note_forward_ref(dest);
        let region = h2.regions().region_of(dest).0;
        self.pretenure_scratch = scratch;
        // Bump allocation within a region is monotone, so appending keeps
        // the per-region start index sorted (the PR 2 invariant card scans
        // rely on).
        self.h2_starts[region as usize].push(dest.raw());
        self.note_site_region(label, region);
        self.lifetimes.record_pretenure(label, words as u64);
        self.stats.pretenured_objects += 1;
        self.stats.pretenured_words += words as u64;
        self.clock.emit(EventKind::Pretenure { label: label.id(), words: words as u64 });
        Some(dest)
    }

    /// Records that `label`'s site placed an object in `region`, merging
    /// the site's regions into one union-find group.
    pub(crate) fn note_site_region(&mut self, label: Label, region: u32) {
        let Some(groups) = self.site_groups.as_mut() else { return };
        match self.site_last_region.binary_search_by_key(&label.id(), |&(k, _)| k) {
            Ok(i) => {
                let prev = self.site_last_region[i].1;
                if prev != region {
                    groups.merge(RegionId(prev), RegionId(region));
                    self.site_last_region[i].1 = region;
                }
            }
            Err(i) => self.site_last_region.insert(i, (label.id(), region)),
        }
    }

    /// Propagates liveness across pretenure site groups before the H2
    /// sweep: if any region of a group is referenced, the whole group
    /// stays live (one site's partition data references itself freely, so
    /// the group lives or dies as a unit). No-op with adaptive placement
    /// off, keeping the static-policy goldens untouched.
    pub(crate) fn propagate_site_groups(&mut self) {
        let Some(groups) = self.site_groups.as_mut() else { return };
        let Some(h2) = self.h2.as_mut() else { return };
        let n = h2.config().n_regions;
        let referenced: Vec<bool> =
            (0..n).map(|r| h2.regions().is_live(RegionId(r as u32))).collect();
        let live = groups.group_liveness(&referenced);
        for (r, &keep) in live.iter().enumerate() {
            if keep && !referenced[r] {
                let base = h2.regions().region_base(RegionId(r as u32));
                h2.regions_mut().mark_live(base);
            }
        }
    }

    /// Records an OOM in the flight recorder and fires the crash-dump hook
    /// (`TERAHEAP_OBS_DUMP`), returning the error for propagation.
    pub(crate) fn note_oom(&self, e: OomError) -> OomError {
        self.clock.emit(EventKind::Oom);
        self.clock.tracer().crash_dump(&e.to_string());
        e
    }

    /// Allocates in the old generation, applying G1 humongous-region
    /// rounding when configured.
    pub(crate) fn alloc_old(&mut self, words: usize) -> Option<Addr> {
        let footprint = self.g1_footprint(words);
        // Reserve the rounded footprint but place the object at its start.
        let addr = self.old.alloc(footprint)?;
        if footprint > words {
            self.stats.g1_humongous_waste_words += (footprint - words) as u64;
        }
        self.old_starts.push(addr.raw());
        Some(addr)
    }

    /// The old-generation footprint of an object of `words` words: rounded
    /// up to whole G1 regions when the object is humongous.
    pub(crate) fn g1_footprint(&self, words: usize) -> usize {
        match self.policy.g1_region_words {
            Some(region_words) if words >= region_words / 2 => {
                words.div_ceil(region_words) * region_words
            }
            _ => words,
        }
    }

    /// Worst-case words a minor GC could promote: everything live in the
    /// collected young spaces, doubled under G1 because humongous-object
    /// region rounding can inflate a footprint by up to 2x.
    fn worst_case_promotion(&self) -> usize {
        (self.eden.used_words() + self.from.used_words()) * self.policy.worst_promotion_factor
    }

    fn collect_for(&mut self, words: usize) -> Result<(), OomError> {
        // A minor GC would evacuate objects out from under the in-flight
        // major cycle's mark stack and live set: finish it first
        // (normally already done — the cycle completes well within one
        // eden refill at the default pacing).
        gc::major::finish(self)?;
        // Promotion guarantee: a minor GC may promote everything in the
        // young generation, so fall back to a full GC when the old
        // generation cannot absorb that worst case.
        let worst_promo = self.worst_case_promotion();
        if self.old.free_words() < worst_promo {
            gc::major::major_gc(self, GcCause::PromotionGuarantee)?;
        } else {
            gc::minor::minor_gc(self, GcCause::AllocFailure);
            gc::major::maybe_start(self);
        }
        if self.eden.free_words() < words {
            gc::major::finish(self)?;
            gc::major::major_gc(self, GcCause::EdenFullAfterGc)?;
        }
        Ok(())
    }

    /// Runs a minor (young-generation) collection now.
    pub fn gc_minor(&mut self) -> Result<(), OomError> {
        gc::major::finish(self)?;
        let worst_promo = self.worst_case_promotion();
        if self.old.free_words() < worst_promo {
            gc::major::major_gc(self, GcCause::PromotionGuarantee)
        } else {
            gc::minor::minor_gc(self, GcCause::Explicit);
            gc::major::maybe_start(self);
            Ok(())
        }
    }

    /// Runs a major (full) collection now.
    ///
    /// With a sliced cycle in flight, running it to completion *is* the
    /// requested major collection; otherwise a fresh cycle runs whole.
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] if live data exceeds the old generation.
    pub fn gc_major(&mut self) -> Result<(), OomError> {
        let had_cycle = self.cycle.is_some();
        gc::major::finish(self)?;
        if had_cycle {
            return Ok(());
        }
        gc::major::major_gc(self, GcCause::Explicit)
    }

    // ----- sliced major cycle hooks ----------------------------------------

    /// Runs the next pause slice of the in-flight major cycle once
    /// enough mutator time has elapsed since the last one
    /// (`pause_budget_ns / PACE_DIVISOR` — the clock delta captures every
    /// mutator charge, including accessor costs).
    pub(crate) fn incr_poll(&mut self) {
        if self.in_gc {
            return;
        }
        let Some(cyc) = self.cycle.as_deref() else { return };
        let pace = (self.config.pause_budget_ns / gc::major::PACE_DIVISOR).max(1);
        if self.clock.total_ns() - cyc.last_slice_end_ns >= pace {
            gc::major::run_slice(self, self.config.pause_budget_ns);
        }
    }

    /// Resolves a mutator-held object address against the in-flight cycle:
    /// `(physical address, raw_slots)`. See [`gc::major::MajorCycle::view`].
    pub(crate) fn mutator_view(&self, a: Addr) -> (Addr, bool) {
        match self.cycle.as_deref() {
            Some(cyc) => cyc.view(a),
            None => (a, false),
        }
    }

    /// The pre-store half of the write barrier while a major cycle is in
    /// flight: SATB-remember the overwritten value during marking, fence H2
    /// targets live, and track mutator-dirtied H2 slots for the flip's card
    /// re-derivation.
    fn incr_ref_write_hook(&mut self, slot: Addr, val: Addr) {
        let Some(mut cyc) = self.cycle.take() else { return };
        if cyc.pre_flip() {
            if cyc.marking() {
                // Deletion barrier: read (charged) and remember the value
                // being overwritten, so snapshot reachability survives.
                let old = if slot.is_h2() {
                    self.h2.as_mut().expect("H2 slot without H2").read_word(slot, Category::Mutator)
                } else {
                    self.clock.charge(
                        Category::Mutator,
                        self.config.cost.dram_word_ns + self.h1_word_extra_ns(slot),
                    );
                    self.mem[slot.raw() as usize]
                };
                if old != 0 {
                    let old_addr = Addr::new(old);
                    if old_addr.is_h2() {
                        self.h2.as_mut().expect("H2 ref without H2").note_forward_ref(old_addr);
                    } else {
                        cyc.mutator.remembered.push(old);
                    }
                    self.clock.emit(EventKind::WriteBarrierRemember { root: false });
                    self.stats.write_barrier_remembered += 1;
                }
                // Insertion fence: a black H1 object may now point at this
                // H2 target; region liveness must see it.
                if val.is_h2() {
                    self.h2.as_mut().expect("H2 ref without H2").note_forward_ref(val);
                }
            }
            if slot.is_h2() {
                // The incremental card scan may already have passed this
                // card; replay the dirt after the flip re-derives states,
                // and record what the scan can no longer discover.
                cyc.mutator.h2_dirty.push(slot);
                if val.is_h1() {
                    cyc.mutator.extra_backward.push(slot);
                } else if val.is_h2() {
                    self.note_h2_dependency(slot, val);
                }
            }
        }
        self.cycle = Some(cyc);
    }

    /// Records the directional cross-region dependency of an H2→H2
    /// reference from `from` to `to` (§4).
    pub(crate) fn note_h2_dependency(&mut self, from: Addr, to: Addr) {
        let h2 = self.h2.as_mut().expect("H2 reference without H2");
        let (from, to) = (h2.regions().region_of(from), h2.regions().region_of(to));
        if from != to {
            h2.regions_mut().add_dependency(from, to);
        }
    }

    // ----- memory access ---------------------------------------------------

    pub(crate) fn in_young(&self, addr: Addr) -> bool {
        self.eden.contains(addr) || self.from.contains(addr) || self.to.contains(addr)
    }

    pub(crate) fn h1_word_extra_ns(&self, addr: Addr) -> u64 {
        let mut extra = self.h1_extra_ns;
        if addr.raw() >= self.panthera_nvm_base {
            extra += self.panthera_extra_ns;
        }
        extra
    }

    /// Uncharged word load (GC-internal; phase costs are charged in bulk).
    pub(crate) fn word(&self, addr: Addr) -> u64 {
        if addr.is_h2() {
            self.h2.as_ref().expect("H2 address without H2").read_word_free(addr)
        } else {
            self.mem[addr.raw() as usize]
        }
    }

    /// Uncharged word store (GC-internal).
    pub(crate) fn set_word(&mut self, addr: Addr, value: u64) {
        if addr.is_h2() {
            self.h2
                .as_mut()
                .expect("H2 address without H2")
                .write_word_free(addr, value);
        } else {
            self.mem[addr.raw() as usize] = value;
        }
    }

    /// Charged mutator word load: DRAM cost for H1 (plus Memory-mode or
    /// Panthera-NVM penalties), page-fault/DAX cost for H2.
    pub(crate) fn load(&mut self, addr: Addr, cat: Category) -> u64 {
        if addr.is_h2() {
            self.h2.as_mut().expect("H2 address without H2").read_word(addr, cat)
        } else {
            self.clock
                .charge(cat, self.config.cost.dram_word_ns + self.h1_word_extra_ns(addr));
            self.mem[addr.raw() as usize]
        }
    }

    /// Charged mutator word store.
    pub(crate) fn store(&mut self, addr: Addr, value: u64, cat: Category) {
        if addr.is_h2() {
            self.h2
                .as_mut()
                .expect("H2 address without H2")
                .write_word(addr, value, cat);
        } else {
            self.clock
                .charge(cat, self.config.cost.dram_word_ns + self.h1_word_extra_ns(addr));
            self.mem[addr.raw() as usize] = value;
        }
    }

    // ----- object layout helpers ------------------------------------------

    pub(crate) fn header(&self, addr: Addr) -> u64 {
        self.word(addr)
    }

    pub(crate) fn object_size(&self, addr: Addr) -> usize {
        object::size_of(self.header(addr))
    }

    pub(crate) fn object_class(&self, addr: Addr) -> ClassId {
        object::class_of(self.header(addr))
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
            return Layout { class, obj: addr, ref_base: first, ref_len, prim_base: first, prim_len };
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
    /// `addr`, as raw word addresses: GC tracing iterates this range
    /// directly instead of materializing a `Vec<Addr>` per visited object.
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

    // ----- mutator field access --------------------------------------------

    /// Resolves `h` to a [`Pin`]: root lookup, in-flight-cycle view, header
    /// decode. Charges nothing and touches no page cache.
    #[inline(always)]
    pub fn pin(&self, h: Handle) -> Pin {
        let (obj, raw_slots) = self.mutator_view(self.root_of(h));
        let epoch = if self.cycle.is_some() { UNCACHED } else { self.move_epoch };
        Pin { handle: h, epoch, raw_slots, at: self.layout(obj) }
    }

    /// Brings `pin` up to date. Every change of `cycle` from or to `None`
    /// happens inside a slice, which bumps the epoch, so the epoch compare
    /// alone decides.
    #[inline]
    fn refresh(&self, pin: &mut Pin) {
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
        let mut val = self.load(pin.at.ref_slot(idx), Category::Mutator);
        if pin.raw_slots && val != 0 {
            // Un-relocated object: the slot still holds a pre-compaction
            // address; canonicalize before rooting.
            val = self.cycle.as_deref().expect("raw view without cycle").canon(val);
        }
        if val == 0 {
            None
        } else {
            Some(self.make_root(Addr::new(val)))
        }
    }

    /// Whether reference field/element `idx` is null.
    pub fn ref_is_null(&mut self, h: Handle, idx: usize) -> bool {
        let slot = self.pin(h).at.ref_slot(idx);
        self.load(slot, Category::Mutator) == 0
    }

    /// Stores `val` into reference field/element `idx` of `h`, running the
    /// post-write barrier (with TeraHeap's reference range check).
    pub fn write_ref(&mut self, h: Handle, idx: usize, val: Handle) {
        let v = self.root_of(val);
        let pin = self.pin(h);
        let v = if pin.raw_slots {
            // Un-relocated object: keep the slot in pre-compaction terms so
            // the fused adjust pass rewrites it exactly once.
            Addr::new(self.cycle.as_deref().expect("raw view without cycle").decanon(v.raw()))
        } else {
            v
        };
        self.write_ref_at(pin.at.obj, pin.at.ref_slot(idx), v);
    }

    /// Stores null into reference field/element `idx`.
    pub fn write_ref_null(&mut self, h: Handle, idx: usize) {
        let at = self.pin(h).at;
        self.write_ref_at(at.obj, at.ref_slot(idx), NULL);
    }

    pub(crate) fn write_ref_at(&mut self, obj: Addr, slot: Addr, val: Addr) {
        if self.cycle.is_some() {
            self.incr_ref_write_hook(slot, val);
        }
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
            self.h2
                .as_mut()
                .expect("H2 slot without H2")
                .cards_mut()
                .mark_dirty(slot);
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
            return self
                .h2
                .as_mut()
                .expect("H2 address without H2")
                .view_words(base, n, Category::Mutator);
        }
        self.charge_h1_words(base, n as u64, Category::Mutator);
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
            self.h2
                .as_mut()
                .expect("H2 address without H2")
                .fill_words(base, n, Category::Mutator, fill);
            return;
        }
        self.charge_h1_words(base, n as u64, Category::Mutator);
        let s = base.raw() as usize;
        fill(&mut self.mem[s..s + n]);
    }

    /// Charges `n` H1 mutator word accesses in one step: the exact integer
    /// sum of the per-word charges, including the Panthera-NVM premium for
    /// the words at or above the NVM boundary.
    fn charge_h1_words(&self, base: Addr, n: u64, cat: Category) {
        let mut total = n * (self.config.cost.dram_word_ns + self.h1_extra_ns);
        let end = base.raw() + n;
        if end > self.panthera_nvm_base {
            let nvm_words = end - self.panthera_nvm_base.max(base.raw());
            total += nvm_words * self.panthera_extra_ns;
        }
        self.clock.charge(cat, total);
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

    /// The class id of the object behind `h`.
    pub fn class_of(&self, h: Handle) -> ClassId {
        self.object_class(self.mutator_view(self.root_of(h)).0)
    }

    // ----- TeraHeap hint interface (§3.2) -----------------------------------

    /// `h2_tag_root(obj, label)`: tags a root key-object for H2 placement by
    /// writing the label into the object header's label field.
    ///
    /// With adaptive placement on, tagging doubles as the lifetime
    /// profiler's allocation sample: the tagged words are the denominator
    /// of the site's survival ratio. Recording charges nothing.
    pub fn h2_tag_root(&mut self, h: Handle, label: Label) {
        let (obj, _) = self.mutator_view(self.root_of(h));
        self.set_word(obj.add(1), label.id());
        if self.lifetimes.is_enabled() && obj.is_h1() {
            let words = self.object_size(obj) as u64;
            self.lifetimes.record_tag(label, words);
        }
    }

    // ----- adaptive placement (lifetime-profiled pretenuring) ---------------

    /// Turns the adaptive placement plane on or off: the per-site lifetime
    /// profiler, H2 pretenuring, site region grouping, and the transfer
    /// policy's dynamic threshold controller. Off by default — every
    /// simulated-ns golden is pinned with this off.
    pub fn set_adaptive_placement(&mut self, on: bool) {
        self.lifetimes.set_enabled(on);
        if on {
            if self.site_groups.is_none() {
                let n = self.h2.as_ref().map(|h| h.config().n_regions).unwrap_or(0);
                self.site_groups = Some(RegionGroups::new(n));
            }
        } else {
            self.site_groups = None;
            self.site_last_region.clear();
            self.alloc_site = None;
        }
        if let Some(h2) = self.h2.as_mut() {
            h2.policy_mut().set_adaptive(on);
        }
    }

    /// Sets (or clears) the allocation-site label for subsequent
    /// allocations. Frameworks bracket partition construction with this so
    /// the profiler can attribute allocations — and pretenure decisions —
    /// to the partition's site.
    pub fn set_alloc_site(&mut self, site: Option<Label>) {
        self.alloc_site = site;
    }

    /// `h2_move(label)`: advises TeraHeap to move all objects tagged with
    /// `label` to H2 during the next major GC. No-op without TeraHeap.
    pub fn h2_move(&mut self, label: Label) {
        if let Some(h2) = self.h2.as_mut() {
            h2.h2_move(label);
        }
    }

    /// The label tagged on the object behind `h` (0 = untagged).
    pub fn h2_label_of(&self, h: Handle) -> u64 {
        self.word(self.mutator_view(self.root_of(h)).0.add(1))
    }

    // ----- tracer charge/span API (workload cost hooks) ---------------------

    /// Charges `ops` element-operations of mutator compute, divided across
    /// the configured mutator threads. The charge routes through the
    /// clock's tracer, so the flight recorder attributes it per category.
    pub fn charge_ops(&mut self, ops: u64) {
        let ns = ops * self.config.cost.mutator_op_ns / self.config.mutator_threads.max(1) as u64;
        self.clock.charge(Category::Mutator, ns);
        self.incr_poll();
    }

    /// Charges `ns` nanoseconds directly to a category, divided across
    /// mutator threads (frameworks use this for S/D work).
    pub fn charge_ns(&mut self, cat: Category, ns: u64) {
        self.clock
            .charge(cat, ns / self.config.mutator_threads.max(1) as u64);
        self.incr_poll();
    }

    /// Opens a mutator-side flight-recorder span (stage, shuffle, ...); the
    /// returned guard records the span end when dropped. The guard holds the
    /// clock, not the heap, so it can live across `&mut self` calls.
    pub fn span(&self, kind: SpanKind) -> TraceSpan {
        self.clock.span(kind)
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
