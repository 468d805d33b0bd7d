//! The composite H2 facade driven by the runtime's garbage collector.
//!
//! [`H2`] owns everything on the far side of the reference range check: the
//! backing word store for the second heap, the [`MmapSim`] cost model for
//! its file-backed mapping, the [`RegionManager`], the [`H2CardTable`], the
//! [`TransferPolicy`] and the [`Promoter`]. The runtime's collector calls
//! into it at the integration points §4 describes (barrier marking, minor-GC
//! card scans, the five extra marking-phase tasks, promotion during
//! compaction, region sweeping).

use crate::addr::{Addr, WORD_BYTES};
use crate::card::{CardState, H2CardTable};
use crate::policy::{Label, TransferPolicy};
use crate::promo::Promoter;
use crate::region::{RegionError, RegionId, RegionManager};
use std::sync::Arc;
use teraheap_storage::obs::EventKind;
use teraheap_storage::{
    fault, spare, AttachError, Category, ChargeScope, DeviceSpec, FaultPlan, FaultPlane, MmapSim,
    SharedDevice, SimClock,
};

/// Configuration of the second heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct H2Config {
    /// Region size in words (paper sweeps 1–256 MB; Table 5).
    pub region_words: usize,
    /// Number of regions; capacity = `region_words * n_regions`.
    pub n_regions: usize,
    /// Card segment size in words (paper sweeps 512 B–16 KB; Figure 11a).
    pub card_seg_words: usize,
    /// Page-cache resident budget in bytes (the DR2 DRAM share).
    pub resident_budget_bytes: usize,
    /// Page size for the mapping (4096, or `2 << 20` for HugeMap).
    pub page_size: usize,
    /// Promotion buffer size in bytes (2 MB in the paper).
    pub promo_buffer_bytes: usize,
    /// Fault-injection plan. [`FaultPlan::none`] (the default) arms nothing
    /// and keeps the fault plane entirely out of the hot paths; the
    /// `TERAHEAP_FAULTS` environment variable overrides this field at
    /// [`H2::new`] time.
    pub faults: FaultPlan,
}

impl Default for H2Config {
    /// A laptop-scale default: 64 regions of 1 MB, 8 KB card segments,
    /// 16 MB resident budget, regular pages, 2 MB promotion buffers.
    fn default() -> Self {
        H2Config {
            region_words: (1 << 20) / WORD_BYTES,
            n_regions: 64,
            card_seg_words: (8 << 10) / WORD_BYTES,
            resident_budget_bytes: 16 << 20,
            page_size: 4096,
            promo_buffer_bytes: 2 << 20,
            faults: FaultPlan::none(),
        }
    }
}

impl H2Config {
    /// Total H2 capacity in words.
    pub fn capacity_words(&self) -> usize {
        self.region_words * self.n_regions
    }

    /// Bytes of device space the H2 mapping needs — what a tenant's
    /// partition quota must cover ([`H2::attach`] validates this at attach
    /// time, not at first I/O).
    pub fn footprint_bytes(&self) -> usize {
        self.capacity_words() * WORD_BYTES
    }

    /// Starts a builder seeded with [`H2Config::default`].
    pub fn builder() -> H2ConfigBuilder {
        H2ConfigBuilder { config: H2Config::default() }
    }

    /// Checks the structural invariants the simulator relies on.
    ///
    /// # Errors
    ///
    /// Returns the first violated [`H2ConfigError`].
    pub fn validate(&self) -> Result<(), H2ConfigError> {
        if self.region_words == 0 {
            return Err(H2ConfigError::ZeroRegionSize);
        }
        if self.n_regions == 0 {
            return Err(H2ConfigError::ZeroRegionCount);
        }
        if self.card_seg_words == 0 || !self.region_words.is_multiple_of(self.card_seg_words) {
            return Err(H2ConfigError::CardSegment {
                card_seg_words: self.card_seg_words,
                region_words: self.region_words,
            });
        }
        if !self.page_size.is_power_of_two() {
            return Err(H2ConfigError::PageSize { page_size: self.page_size });
        }
        if self.promo_buffer_bytes == 0 {
            return Err(H2ConfigError::ZeroPromoBuffer);
        }
        Ok(())
    }
}

/// Builder for [`H2Config`]: the only supported construction path outside
/// this crate. `build` validates region sizing, card-segment divisibility
/// and page-size constraints up front, so a bad configuration is a typed
/// error instead of a panic (or silent nonsense) mid-run.
#[derive(Debug, Clone)]
pub struct H2ConfigBuilder {
    config: H2Config,
}

impl H2ConfigBuilder {
    /// Region size in words.
    pub fn region_words(mut self, words: usize) -> Self {
        self.config.region_words = words;
        self
    }

    /// Number of regions.
    pub fn n_regions(mut self, n: usize) -> Self {
        self.config.n_regions = n;
        self
    }

    /// Card segment size in words (must divide the region size).
    pub fn card_seg_words(mut self, words: usize) -> Self {
        self.config.card_seg_words = words;
        self
    }

    /// Page-cache resident budget in bytes (the DR2 DRAM share).
    pub fn resident_budget_bytes(mut self, bytes: usize) -> Self {
        self.config.resident_budget_bytes = bytes;
        self
    }

    /// Page size for the mapping (4096, or `2 << 20` for HugeMap).
    pub fn page_size(mut self, bytes: usize) -> Self {
        self.config.page_size = bytes;
        self
    }

    /// Promotion buffer size in bytes.
    pub fn promo_buffer_bytes(mut self, bytes: usize) -> Self {
        self.config.promo_buffer_bytes = bytes;
        self
    }

    /// Fault-injection plan (overridden by `TERAHEAP_FAULTS` when set).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.config.faults = plan;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// See [`H2Config::validate`].
    pub fn build(self) -> Result<H2Config, H2ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// A structurally invalid [`H2Config`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum H2ConfigError {
    /// `region_words` was zero.
    ZeroRegionSize,
    /// `n_regions` was zero.
    ZeroRegionCount,
    /// The card segment size is zero or does not divide the region size.
    CardSegment { card_seg_words: usize, region_words: usize },
    /// The page size is not a power of two.
    PageSize { page_size: usize },
    /// The promotion buffer size was zero.
    ZeroPromoBuffer,
}

impl std::fmt::Display for H2ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            H2ConfigError::ZeroRegionSize => write!(f, "H2 region size must be non-zero"),
            H2ConfigError::ZeroRegionCount => write!(f, "H2 must have at least one region"),
            H2ConfigError::CardSegment { card_seg_words, region_words } => write!(
                f,
                "card segment of {card_seg_words} words must be non-zero and divide \
                 the region size ({region_words} words)"
            ),
            H2ConfigError::PageSize { page_size } => {
                write!(f, "page size {page_size} is not a power of two")
            }
            H2ConfigError::ZeroPromoBuffer => {
                write!(f, "promotion buffer must be non-zero")
            }
        }
    }
}

impl std::error::Error for H2ConfigError {}

/// Errors surfaced by H2 operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum H2Error {
    /// H2 ran out of free regions.
    OutOfSpace,
    /// An object exceeds the region size (objects may not span regions).
    ObjectTooLarge {
        /// Requested object size.
        words: usize,
        /// Configured region size.
        region_words: usize,
    },
}

impl From<RegionError> for H2Error {
    fn from(e: RegionError) -> Self {
        match e {
            RegionError::OutOfRegions => H2Error::OutOfSpace,
            RegionError::ObjectTooLarge { words, region_words } => {
                H2Error::ObjectTooLarge { words, region_words }
            }
        }
    }
}

impl std::fmt::Display for H2Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            H2Error::OutOfSpace => write!(f, "H2 out of space"),
            H2Error::ObjectTooLarge { words, region_words } => {
                write!(f, "object of {words} words exceeds H2 region size {region_words}")
            }
        }
    }
}

impl std::error::Error for H2Error {}

/// The second heap: word store + region allocator + card table + policy +
/// promotion buffers + device cost model.
#[derive(Debug)]
pub struct H2 {
    clock: Arc<SimClock>,
    data: Vec<u64>,
    mmap: MmapSim,
    regions: RegionManager,
    cards: H2CardTable,
    policy: TransferPolicy,
    promoter: Promoter,
    objects_promoted: u64,
    words_promoted: u64,
    /// The armed fault plane; `None` on the fault-free fast path.
    faults: Option<Arc<FaultPlane>>,
    /// Set when H2 gave up (retry-exhausted flush or injected ENOSPC): the
    /// collector stops promoting, matching the paper's no-H2 baseline.
    degraded: bool,
}

impl H2 {
    /// Creates a second heap over a private device described by `spec`: a
    /// one-tenant [`SharedDevice`] whose sole tenant is `clock`.
    ///
    /// When `TERAHEAP_FAULTS` is set (or `config.faults` is enabled), a
    /// fault plane is armed; otherwise every fault-path branch stays `None`
    /// and the heap behaves bit-identically to a build without the fault
    /// plane.
    pub fn new(config: H2Config, spec: DeviceSpec, clock: Arc<SimClock>) -> Self {
        let len = config.capacity_words() * WORD_BYTES;
        let mmap =
            MmapSim::new(spec, len, config.resident_budget_bytes, config.page_size, clock.clone());
        H2::over(config, mmap, clock)
    }

    /// Creates a second heap attached to a tenant partition of a
    /// [`SharedDevice`] — the server-plane constructor (DESIGN.md §12).
    ///
    /// The tenant is identified by `clock` (`Arc::ptr_eq` with the clock it
    /// registered with), the config's [`H2Config::footprint_bytes`] is
    /// validated against the tenant's quota here rather than at first I/O,
    /// and the mapping is built over the tenant's lease, so every device
    /// service goes through the device's arbiter. With a sole tenant the
    /// arbiter never delays, so this is bit-identical to [`H2::new`].
    ///
    /// # Errors
    ///
    /// See [`SharedDevice::attach`].
    pub fn attach(
        config: H2Config,
        device: &SharedDevice,
        clock: Arc<SimClock>,
    ) -> Result<Self, AttachError> {
        let lease = device.attach(&clock, config.footprint_bytes())?;
        let len = config.capacity_words() * WORD_BYTES;
        let mmap = MmapSim::leased(lease, len, config.resident_budget_bytes, config.page_size);
        Ok(H2::over(config, mmap, clock))
    }

    /// A second heap over `mmap`, whose services are charged to `clock`.
    fn over(config: H2Config, mut mmap: MmapSim, clock: Arc<SimClock>) -> Self {
        let capacity_words = config.capacity_words();
        let plan = FaultPlan::from_env().unwrap_or(config.faults);
        let faults = plan.enabled.then(|| {
            let plane = FaultPlane::new(plan);
            mmap.set_fault_plane(plane.clone());
            plane
        });
        H2 {
            regions: RegionManager::new(config.region_words, config.n_regions),
            cards: H2CardTable::new(capacity_words, config.card_seg_words, config.region_words),
            policy: TransferPolicy::new(),
            promoter: Promoter::new(config.promo_buffer_bytes),
            data: spare::zeroed(capacity_words),
            mmap,
            clock,
            objects_promoted: 0,
            words_promoted: 0,
            faults,
            degraded: false,
        }
    }

    /// The device model backing the heap.
    pub fn device_spec(&self) -> &DeviceSpec {
        self.mmap.spec()
    }

    /// The region manager (liveness, dependency lists, statistics).
    pub fn regions(&self) -> &RegionManager {
        &self.regions
    }

    /// Mutable access to the region manager (GC integration).
    pub fn regions_mut(&mut self) -> &mut RegionManager {
        &mut self.regions
    }

    /// The H2 card table.
    pub fn cards(&self) -> &H2CardTable {
        &self.cards
    }

    /// Mutable access to the card table (barriers and GC re-examination).
    pub fn cards_mut(&mut self) -> &mut H2CardTable {
        &mut self.cards
    }

    /// The transfer policy (hints and thresholds).
    pub fn policy(&self) -> &TransferPolicy {
        &self.policy
    }

    /// Mutable access to the transfer policy.
    pub fn policy_mut(&mut self) -> &mut TransferPolicy {
        &mut self.policy
    }

    /// The page-cache model of the H2 mapping.
    pub fn mmap(&self) -> &MmapSim {
        &self.mmap
    }

    /// The armed fault plane, if any.
    pub fn fault_plane(&self) -> Option<&Arc<FaultPlane>> {
        self.faults.as_ref()
    }

    /// Whether H2 has degraded (retry-exhausted flush or injected ENOSPC).
    /// A degraded H2 accepts no more promotions: the runtime parks would-be
    /// promotees in the old generation, i.e. the paper's no-H2 baseline.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Objects moved to H2 so far.
    pub fn objects_promoted(&self) -> u64 {
        self.objects_promoted
    }

    /// Words moved to H2 so far.
    pub fn words_promoted(&self) -> u64 {
        self.words_promoted
    }

    /// Registers an `h2_move(label)` hint.
    pub fn h2_move(&mut self, label: Label) {
        self.policy.request_move(label);
    }

    /// Allocates `words` in the region group for `label` without writing
    /// data (used by tests and by promotion).
    ///
    /// # Errors
    ///
    /// [`H2Error::OutOfSpace`] or [`H2Error::ObjectTooLarge`].
    pub fn alloc(&mut self, label: Label, words: usize) -> Result<Addr, H2Error> {
        if let Some(plane) = &self.faults {
            if self.regions.would_open(label, words)
                && plane.deny_growth(self.regions.allocated_total())
            {
                // Injected ENOSPC: the backing file cannot grow. Degrade
                // instead of erroring every caller forever.
                if !self.degraded {
                    self.degraded = true;
                    self.clock.emit(EventKind::H2Degraded { enospc: true });
                }
                return Err(H2Error::OutOfSpace);
            }
        }
        Ok(self.regions.alloc(label, words)?)
    }

    /// Reads the word at `addr`, charging page-fault/DAX cost to `cat`.
    pub fn read_word(&mut self, addr: Addr, cat: Category) -> u64 {
        self.mmap.touch_read(addr.h2_byte_offset(), WORD_BYTES, cat);
        self.data[addr.h2_offset() as usize]
    }

    /// Writes the word at `addr`, charging cost to `cat`.
    ///
    /// Note: the caller (runtime post-write barrier) is responsible for
    /// marking the card dirty when the write stores a reference.
    pub fn write_word(&mut self, addr: Addr, value: u64, cat: Category) {
        self.mmap.touch_write(addr.h2_byte_offset(), WORD_BYTES, cat);
        self.data[addr.h2_offset() as usize] = value;
    }

    /// Charges a read of the `n` consecutive words starting at `addr`
    /// through the bulk access plane — one [`MmapSim::touch_run`] for the
    /// whole range, bit-identical in cost to the per-word loop (DESIGN.md
    /// §9) — and returns the words in place: H2 objects are read with
    /// loads, not copied out first. This is the one implementation of bulk
    /// read charging; [`H2::read_words`] is this plus a copy.
    ///
    /// [`MmapSim::touch_run`]: teraheap_storage::MmapSim::touch_run
    pub fn view_words(&mut self, addr: Addr, n: usize, cat: Category) -> &[u64] {
        if n == 0 {
            return &[];
        }
        self.mmap.touch_run(addr.h2_byte_offset(), n * WORD_BYTES, false, cat);
        let base = addr.h2_offset() as usize;
        &self.data[base..base + n]
    }

    /// [`H2::view_words`] copied into `out`, for callers that need the
    /// words to outlive the borrow.
    pub fn read_words(&mut self, addr: Addr, out: &mut [u64], cat: Category) {
        out.copy_from_slice(self.view_words(addr, out.len(), cat));
    }

    /// Charges a write of the `n` consecutive words starting at `addr`
    /// through the bulk access plane, then lets `fill` produce them in
    /// place (it must overwrite all `n`). This is the one implementation of
    /// bulk write charging; card marking stays the caller's job, as for
    /// [`H2::write_word`]. An empty range charges nothing and never calls
    /// `fill`.
    pub fn fill_words(
        &mut self,
        addr: Addr,
        n: usize,
        cat: Category,
        fill: impl FnOnce(&mut [u64]),
    ) {
        if n == 0 {
            return;
        }
        self.mmap.touch_run(addr.h2_byte_offset(), n * WORD_BYTES, true, cat);
        let base = addr.h2_offset() as usize;
        fill(&mut self.data[base..base + n]);
    }

    /// Words per page of the backing mapping — the chunk size at which a
    /// bulk read over monotonically advancing addresses stays bit-identical
    /// to the per-word loop (DESIGN.md §9). Unbounded in DAX mode, where
    /// there are no pages.
    pub fn page_run_words(&self) -> usize {
        if self.mmap.is_dax() {
            usize::MAX
        } else {
            self.mmap.page_size() / WORD_BYTES
        }
    }

    /// How many words from `addr` on a per-word mutator loop touches as one
    /// [`H2::view_words`] run, even when the loop charges the clock between
    /// words: to the end of the page when paged (only the page's first
    /// touch can fault, emit or reach the arbiter), one word in DAX mode
    /// (each word is its own arbitrated command, and its arrival is the
    /// clock at that word).
    pub fn run_words_at(&self, addr: Addr) -> usize {
        if self.mmap.is_dax() {
            return 1;
        }
        let page_words = self.mmap.page_size() / WORD_BYTES;
        page_words - addr.h2_offset() as usize % page_words
    }

    /// Reads a word without charging any cost (GC internal bookkeeping that
    /// the phase-level cost model already accounts for).
    pub fn read_word_free(&self, addr: Addr) -> u64 {
        self.data[addr.h2_offset() as usize]
    }

    /// The `n` consecutive words at `addr` in place, without charging or
    /// touching the page cache: a host-side look at bytes a charged read
    /// already paid for, or whose search the cost model counts as host
    /// work (a frozen index run's key half).
    pub fn peek_words(&self, addr: Addr, n: usize) -> &[u64] {
        let base = addr.h2_offset() as usize;
        &self.data[base..base + n]
    }

    /// Writes a word without charging (pointer adjustment; the adjust phase
    /// charges per-reference CPU cost separately).
    pub fn write_word_free(&mut self, addr: Addr, value: u64) {
        self.data[addr.h2_offset() as usize] = value;
    }

    /// Moves one object's words into H2 under `label`: an [`H2::alloc`]
    /// (so an injected ENOSPC fails it like a full H2) and then
    /// [`H2::write_promoted`]. Returns the object's H2 address.
    ///
    /// Device write costs are charged to `cat` (normally
    /// [`Category::MajorGc`]) at each 2 MB batch flush.
    ///
    /// # Errors
    ///
    /// [`H2Error::OutOfSpace`] or [`H2Error::ObjectTooLarge`].
    pub fn promote(&mut self, label: Label, words: &[u64], cat: Category) -> Result<Addr, H2Error> {
        let addr = self.alloc(label, words.len())?;
        self.write_promoted(addr, words, cat);
        Ok(addr)
    }

    /// Writes an already-reserved promoted object's words (two-phase form:
    /// the major GC's pre-compaction phase reserves addresses with
    /// [`H2::alloc`] and its compaction phase writes the data here) and
    /// indexes its start in its region.
    ///
    /// Device write costs go through the promotion buffer, charged to `cat`.
    pub fn write_promoted(&mut self, addr: Addr, words: &[u64], cat: Category) {
        let base = addr.h2_offset() as usize;
        self.data[base..base + words.len()].copy_from_slice(words);
        self.regions.record_start(addr);
        let region = self.regions.region_of(addr);
        let flushed = self.promoter.stage(region, words.len() * WORD_BYTES);
        self.charge_flush(flushed, cat);
        self.objects_promoted += 1;
        self.words_promoted += words.len() as u64;
        if flushed > 0 {
            self.roll_flush_fault(&[(region, flushed)], cat);
        }
    }

    /// Flushes all partially-filled promotion buffers (end of compaction)
    /// and sorts the start lists the promotions appended to, so card scans
    /// can binary-search them again.
    pub fn finish_promotion(&mut self, cat: Category) {
        self.regions.sort_starts();
        let pending =
            if self.faults.is_some() { self.promoter.pending_regions() } else { Vec::new() };
        let flushed = self.promoter.flush_all();
        self.charge_flush(flushed, cat);
        if flushed > 0 {
            self.roll_flush_fault(&pending, cat);
        }
    }

    /// A promotion flush of `batches` (`(region, bytes)` each) reached the
    /// device. With a plane armed, rolls one injected write fault for it (a
    /// flush is one batched I/O submission). On retry exhaustion the
    /// batches are un-staged — their bytes are only in DRAM — and H2
    /// degrades.
    fn roll_flush_fault(&mut self, batches: &[(RegionId, usize)], cat: Category) {
        let Some(plane) = &self.faults else {
            return;
        };
        let mut scope = ChargeScope::new(cat);
        let out = fault::inject_scoped(plane, &self.clock, &mut scope, true);
        scope.flush(&self.clock);
        if !out.ok {
            for &(region, bytes) in batches {
                self.promoter.unstage(region, bytes);
            }
            self.degrade();
        }
    }

    /// Flips to degraded mode once, with its Tracer event.
    fn degrade(&mut self) {
        if !self.degraded {
            self.degraded = true;
            self.clock.emit(EventKind::H2Degraded { enospc: false });
        }
    }

    /// Writes every dirty page of the mapping back (the `msync(2)`
    /// analogue), charging `cat`.
    pub fn msync(&mut self, cat: Category) {
        self.mmap.flush(cat);
    }

    fn charge_flush(&self, flushed_bytes: usize, cat: Category) {
        if flushed_bytes > 0 {
            // The promotion buffer writes straight to the device file, so
            // the flush is one arbitrated device command.
            self.mmap.charge_device(cat, self.mmap.spec().write_cost_ns(flushed_bytes));
            self.clock.emit(EventKind::H2PromoFlush { bytes: flushed_bytes as u64 });
        }
    }

    /// Marking-phase task 1 (§4): reset all region live bits and statistics.
    pub fn begin_major_marking(&mut self) {
        self.regions.clear_live_bits();
    }

    /// Marking-phase fence: an H1→H2 reference was found; set the region's
    /// live bit (the collector does *not* follow the reference).
    pub fn note_forward_ref(&mut self, target: Addr) {
        self.regions.mark_live(target);
    }

    /// Marking-phase task 5 precursor + sweep: propagate liveness through
    /// dependency lists and free every dead region with everything it holds:
    /// its metadata and start list, its resident pages (discarded without
    /// write-back), its words and its cards. Returns the freed regions.
    pub fn propagate_and_sweep(&mut self) -> Vec<RegionId> {
        self.regions.propagate_liveness();
        let freed = self.regions.sweep_dead();
        let words = self.regions.region_words();
        let stats = self.regions.reclaimed_stats();
        for (&rid, dead) in freed.iter().zip(&stats[stats.len() - freed.len()..]) {
            let base = self.regions.region_base(rid);
            self.mmap.discard(base.h2_byte_offset(), words * WORD_BYTES);
            // Zero the store so stale data can never be misread as objects.
            zero_used(&mut self.data, base, dead.used_words);
            debug_assert!(
                self.data[base.h2_offset() as usize..][..words].iter().all(|&w| w == 0),
                "a region's words past its top were written"
            );
            let first = self.cards.card_of(base);
            for card in first..first + words / self.cards.seg_words() {
                self.cards.set_state(card, CardState::Clean);
            }
        }
        freed
    }
}

/// Zeroes a region's words in use, `[base, base + used)`: every word its
/// objects were written to, and no page past them.
fn zero_used(data: &mut [u64], base: Addr, used: usize) {
    let base = base.h2_offset() as usize;
    data[base..base + used].fill(0);
}

impl Drop for H2 {
    /// Inside a server run the store goes back to the spare pool zeroed
    /// region by region (DESIGN.md §12); otherwise it is simply freed.
    fn drop(&mut self) {
        let regions = &self.regions;
        spare::give_back(&mut self.data, |data| {
            for rid in (0..regions.region_count() as u32).map(RegionId) {
                zero_used(data, regions.region_base(rid), regions.used_words(rid));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h2() -> (H2, Arc<SimClock>) {
        h2_with(FaultPlan::none())
    }

    fn h2_with(faults: FaultPlan) -> (H2, Arc<SimClock>) {
        let clock = Arc::new(SimClock::new());
        let config = H2Config::builder()
            .region_words(1024)
            .n_regions(8)
            .card_seg_words(128)
            .resident_budget_bytes(64 << 10)
            .page_size(4096)
            .promo_buffer_bytes(4096)
            .faults(faults)
            .build()
            .unwrap();
        (H2::new(config, DeviceSpec::nvme_ssd(), clock.clone()), clock)
    }

    #[test]
    fn default_config_is_consistent() {
        let c = H2Config::default();
        assert_eq!(c.capacity_words(), c.region_words * c.n_regions);
    }

    #[test]
    fn words_round_trip_through_store() {
        let (mut h2, _clock) = h2();
        let a = h2.alloc(Label::new(1), 4).unwrap();
        h2.write_word(a, 0xdead, Category::Mutator);
        assert_eq!(h2.read_word(a, Category::Mutator), 0xdead);
        assert_eq!(h2.read_word_free(a), 0xdead);
    }

    #[test]
    fn reads_charge_page_faults() {
        let (mut h2, clock) = h2();
        let a = h2.alloc(Label::new(1), 4).unwrap();
        h2.read_word(a, Category::Mutator);
        assert!(clock.category_ns(Category::Mutator) > 0, "first touch faults");
        assert_eq!(h2.mmap().stats().page_faults(), 1);
    }

    #[test]
    fn promote_batches_device_writes() {
        let (mut h2, clock) = h2();
        let label = Label::new(1);
        let obj = vec![7u64; 64]; // 512 bytes; buffer is 4096
        for _ in 0..7 {
            h2.promote(label, &obj, Category::MajorGc).unwrap();
        }
        assert_eq!(clock.category_ns(Category::MajorGc), 0, "buffer not yet full");
        h2.promote(label, &obj, Category::MajorGc).unwrap();
        assert!(clock.category_ns(Category::MajorGc) > 0, "8th object flushes 4 KB");
        assert_eq!(h2.objects_promoted(), 8);
        assert_eq!(h2.words_promoted(), 8 * 64);
    }

    #[test]
    fn promote_under_injected_enospc_is_out_of_space() {
        let (mut h2, _clock) = h2_with(FaultPlan::zero_rate(1).with_enospc_after(0));
        assert_eq!(
            h2.promote(Label::new(1), &[1, 2, 3], Category::MajorGc),
            Err(H2Error::OutOfSpace)
        );
        assert!(h2.is_degraded());
        assert_eq!(h2.objects_promoted(), 0);
        assert_eq!(h2.regions().allocated_total(), 0, "no region was opened");
    }

    #[test]
    fn finish_promotion_flushes_remainder() {
        let (mut h2, clock) = h2();
        h2.promote(Label::new(1), &[1, 2, 3], Category::MajorGc).unwrap();
        assert_eq!(clock.category_ns(Category::MajorGc), 0);
        h2.finish_promotion(Category::MajorGc);
        assert!(clock.category_ns(Category::MajorGc) > 0);
    }

    #[test]
    fn promoted_data_is_readable() {
        let (mut h2, _clock) = h2();
        let a = h2.promote(Label::new(1), &[10, 20, 30], Category::MajorGc).unwrap();
        assert_eq!(h2.read_word_free(a), 10);
        assert_eq!(h2.read_word_free(a.add(2)), 30);
    }

    #[test]
    fn full_gc_cycle_reclaims_dead_region() {
        let (mut h2, _clock) = h2();
        let a = h2.promote(Label::new(1), &[1; 16], Category::MajorGc).unwrap();
        let b = h2.promote(Label::new(2), &[2; 16], Category::MajorGc).unwrap();
        h2.begin_major_marking();
        h2.note_forward_ref(a); // only label-1's region is referenced from H1
        let freed = h2.propagate_and_sweep();
        assert_eq!(freed.len(), 1);
        assert_eq!(freed[0], h2.regions().region_of(b));
        // The freed region's store is zeroed.
        assert_eq!(h2.read_word_free(b), 0);
    }

    #[test]
    fn a_store_dropped_in_a_server_run_comes_back_all_zero() {
        let scope = spare::Recycling::begin();
        let (mut store, _clock) = h2();
        let a = store.promote(Label::new(1), &[1; 16], Category::MajorGc).unwrap();
        store.promote(Label::new(2), &[2; 900], Category::MajorGc).unwrap();
        store.begin_major_marking();
        store.note_forward_ref(a);
        assert_eq!(store.propagate_and_sweep().len(), 1, "label 2's region is reclaimed");
        store.promote(Label::new(3), &[3; 40], Category::MajorGc).unwrap();
        let (len, ptr) = (store.data.len(), store.data.as_ptr());
        drop(store);
        assert_eq!(spare::parked(), 1);
        let fresh = spare::zeroed(len);
        assert_eq!(fresh.as_ptr(), ptr, "the next store of its length reuses it");
        assert!(fresh.iter().all(|&w| w == 0));
        drop(scope);
        assert_eq!(spare::parked(), 0, "the pool dies with the run");

        let (mut outside, _clock) = h2();
        outside.promote(Label::new(1), &[1; 16], Category::MajorGc).unwrap();
        drop(outside);
        assert_eq!(spare::parked(), 0, "outside a run a store is freed");
    }

    #[test]
    fn start_lists_sort_at_finish_promotion_and_die_with_their_region() {
        let (mut h2, _clock) = h2();
        let (kept, dead) = (Label::new(1), Label::new(2));
        let k = h2.promote(kept, &[1; 8], Category::MajorGc).unwrap();
        // Reserved in address order, written in the reverse order.
        let (a, b) = (h2.alloc(dead, 200).unwrap(), h2.alloc(dead, 4).unwrap());
        h2.write_promoted(b, &[2; 4], Category::MajorGc);
        h2.write_promoted(a, &[3; 200], Category::MajorGc);
        let rid = h2.regions().region_of(a);
        assert_eq!(h2.regions().starts(rid), [b.raw(), a.raw()], "unsorted until durable");
        h2.finish_promotion(Category::MajorGc);
        assert_eq!(h2.regions().starts(rid), [a.raw(), b.raw()]);

        let seg = h2.cards().seg_words();
        let first = h2.cards().card_of(a);
        h2.cards_mut().mark_dirty(b);
        h2.cards_mut().set_state(first + 1, CardState::OldGen);
        h2.cards_mut().mark_dirty(k);
        h2.begin_major_marking();
        h2.note_forward_ref(k);
        assert_eq!(h2.propagate_and_sweep(), vec![rid]);
        assert!(h2.regions().starts(rid).is_empty());
        let cards = first..first + h2.regions().region_words() / seg;
        assert!(cards.clone().all(|c| h2.cards().state(c) == CardState::Clean));
        assert_eq!(h2.cards_mut().major_scan_cards(), vec![h2.cards().card_of(k)]);
        assert_eq!(h2.regions().starts(h2.regions().region_of(k)), [k.raw()]);
    }

    #[test]
    fn dependency_keeps_region_alive_across_sweep() {
        let (mut h2, _clock) = h2();
        let a = h2.promote(Label::new(1), &[1; 8], Category::MajorGc).unwrap();
        let b = h2.promote(Label::new(2), &[2; 8], Category::MajorGc).unwrap();
        let (ra, rb) = (h2.regions().region_of(a), h2.regions().region_of(b));
        h2.regions_mut().add_dependency(ra, rb);
        h2.begin_major_marking();
        h2.note_forward_ref(a);
        assert!(h2.propagate_and_sweep().is_empty(), "b is kept via a's dep list");
    }

    #[test]
    fn builder_rejects_invalid_configs() {
        assert_eq!(H2Config::builder().region_words(0).build(), Err(H2ConfigError::ZeroRegionSize));
        assert_eq!(H2Config::builder().n_regions(0).build(), Err(H2ConfigError::ZeroRegionCount));
        // 100 does not divide the default 1 MB region.
        let err = H2Config::builder().card_seg_words(100).build().unwrap_err();
        assert!(matches!(err, H2ConfigError::CardSegment { card_seg_words: 100, .. }));
        assert_eq!(
            H2Config::builder().page_size(1000).build(),
            Err(H2ConfigError::PageSize { page_size: 1000 })
        );
        assert_eq!(
            H2Config::builder().promo_buffer_bytes(0).build(),
            Err(H2ConfigError::ZeroPromoBuffer)
        );
        assert!(H2Config::builder().build().is_ok(), "default config is valid");
    }

    #[test]
    fn out_of_space_is_reported() {
        let clock = Arc::new(SimClock::new());
        let config = H2Config::builder()
            .region_words(16)
            .n_regions(1)
            .card_seg_words(16)
            .resident_budget_bytes(4096)
            .page_size(4096)
            .promo_buffer_bytes(4096)
            .build()
            .unwrap();
        let mut h2 = H2::new(config, DeviceSpec::nvme_ssd(), clock);
        h2.alloc(Label::new(1), 16).unwrap();
        assert_eq!(h2.alloc(Label::new(2), 1), Err(H2Error::OutOfSpace));
        assert_eq!(
            h2.alloc(Label::new(2), 17),
            Err(H2Error::ObjectTooLarge { words: 17, region_words: 16 })
        );
    }
}
