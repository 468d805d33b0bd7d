//! `teraheap-obs` — a JFR-style flight recorder for the TeraHeap simulator.
//!
//! Every component that shares a `SimClock` (the heap, both GC paths, the H2
//! promotion pipeline, `MmapSim`, the device layer and the framework shims)
//! reports what it is doing through one [`Tracer`]: a fixed-capacity ring
//! buffer of typed, timestamped [`Event`]s plus per-class event counts and
//! per-category charge counts.
//!
//! The recorder *observes* simulated time, it never advances it: emitting an
//! event reads the clock that the caller already charged, so enabling or
//! disabling tracing cannot change a single simulated nanosecond. That is the
//! PR 2 determinism invariant and it is pinned by
//! `crates/runtime/tests/trace_equivalence.rs`.
//!
//! Layers:
//! - [`Event`] / [`EventKind`]: the typed taxonomy (GC begin/end with cause,
//!   GC phases, card scans, H2 promotion flushes, page faults/evictions/
//!   write-backs, device reads/writes, mutator spans, OOM).
//! - [`Tracer`]: level-gated sink. `Off` drops everything, `Full` (the
//!   default) records every event into the ring and every charge into its
//!   category's counter.
//! - [`timeline`]: the deterministic JSONL exporter and the
//!   [`timeline::gc_cycles`] pairing used by `fig7_timeline`.
//! - [`Tracer::crash_dump`]: writes the last events as JSONL when the runtime
//!   hits an OOM, gated by `TERAHEAP_OBS_DUMP` so default runs stay quiet.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use teraheap_util::sync::Mutex;

pub mod timeline;

/// Simulated-time cost categories.
///
/// This is the unit of accounting for the whole simulator: `SimClock` keeps
/// one counter per category and the figure drivers collapse them into the
/// paper's four-component breakdown. It lives here (rather than in
/// `teraheap-storage`, which re-exports it) so that events and charge
/// counters can name categories without a dependency cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Application work: graph traversal, joins, ML kernels.
    Mutator,
    /// Serialization/deserialization CPU cost (the S/D component).
    SerDe,
    /// Block-device transfer and page-cache management time.
    Io,
    /// Young-generation collections.
    MinorGc,
    /// Full-heap collections (and H2 promotion CPU cost).
    MajorGc,
}

impl Category {
    /// Number of categories (array dimension for per-category state).
    pub const COUNT: usize = 5;

    /// All categories, in fixed order (matches [`Category::index`]).
    pub const ALL: [Category; Category::COUNT] = [
        Category::Mutator,
        Category::SerDe,
        Category::Io,
        Category::MinorGc,
        Category::MajorGc,
    ];

    /// Dense index of this category, `0..COUNT`.
    pub fn index(self) -> usize {
        match self {
            Category::Mutator => 0,
            Category::SerDe => 1,
            Category::Io => 2,
            Category::MinorGc => 3,
            Category::MajorGc => 4,
        }
    }

    /// Short lowercase name used by exporters.
    pub fn name(self) -> &'static str {
        match self {
            Category::Mutator => "mutator",
            Category::SerDe => "serde",
            Category::Io => "io",
            Category::MinorGc => "minor_gc",
            Category::MajorGc => "major_gc",
        }
    }
}

/// Whether the tracer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Record nothing; every emit is a cheap early return.
    Off,
    /// Ring events, per-class counts and charge counts (the default).
    Full,
}

impl Level {
    /// Parses `TERAHEAP_OBS`: `off` or `0` mean [`Level::Off`]; unset or any
    /// other value means [`Level::Full`]. Tracing is on by default, which
    /// is exactly what the determinism suite exercises.
    pub fn from_env() -> Level {
        match std::env::var("TERAHEAP_OBS").as_deref() {
            Ok("off") | Ok("0") => Level::Off,
            _ => Level::Full,
        }
    }
}

/// Which collection a GC event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcKind {
    Minor,
    Major,
}

impl GcKind {
    pub fn name(self) -> &'static str {
        match self {
            GcKind::Minor => "minor",
            GcKind::Major => "major",
        }
    }
}

/// Why a collection was triggered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcCause {
    /// Eden could not satisfy an ordinary allocation.
    AllocFailure,
    /// An allocation too large for eden went straight to the old generation.
    LargeAlloc,
    /// The old generation could not guarantee a worst-case minor promotion.
    PromotionGuarantee,
    /// Eden was still too full after a collection, forcing a full GC.
    EdenFullAfterGc,
    /// An explicit `gc_minor`/`gc_major` request (tests, benchmarks).
    Explicit,
    /// The incremental collector started a cycle early, on old-gen occupancy,
    /// so marking can finish before the promotion guarantee would force a
    /// stop-world collection.
    Incremental,
}

impl GcCause {
    pub fn name(self) -> &'static str {
        match self {
            GcCause::AllocFailure => "alloc_failure",
            GcCause::LargeAlloc => "large_alloc",
            GcCause::PromotionGuarantee => "promotion_guarantee",
            GcCause::EdenFullAfterGc => "eden_full_after_gc",
            GcCause::Explicit => "explicit",
            GcCause::Incremental => "incremental",
        }
    }
}

/// The four phases of the mark-compact major collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcPhase {
    Mark,
    Precompact,
    Adjust,
    Compact,
}

impl GcPhase {
    pub fn name(self) -> &'static str {
        match self {
            GcPhase::Mark => "mark",
            GcPhase::Precompact => "precompact",
            GcPhase::Adjust => "adjust",
            GcPhase::Compact => "compact",
        }
    }

    fn index(self) -> usize {
        match self {
            GcPhase::Mark => 0,
            GcPhase::Precompact => 1,
            GcPhase::Adjust => 2,
            GcPhase::Compact => 3,
        }
    }
}

/// Mutator-side spans opened through the heap/clock span API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One framework stage / superstep / iteration of application work.
    Stage,
    /// A shuffle exchange (serialization + transfer accounting).
    Shuffle,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Stage => "stage",
            SpanKind::Shuffle => "shuffle",
        }
    }

    fn index(self) -> usize {
        match self {
            SpanKind::Stage => 0,
            SpanKind::Shuffle => 1,
        }
    }
}

/// Which card table a card-scan event covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CardTableKind {
    /// H1 old-generation dirty cards (old→young refs, minor GC).
    H1,
    /// H2 cards scanned during minor GC (H2→H1 refs into the young gen).
    H2Minor,
    /// H2 cards scanned during major-GC marking.
    H2Major,
}

impl CardTableKind {
    pub fn name(self) -> &'static str {
        match self {
            CardTableKind::H1 => "h1",
            CardTableKind::H2Minor => "h2_minor",
            CardTableKind::H2Major => "h2_major",
        }
    }
}

/// The kinds of schedulable GC work units the work-unit plane dispatches
/// (DESIGN.md §11). Minor GC uses the scavenge kinds, major GC the
/// mark/compact kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkUnitKind {
    /// A strip of GC roots scanned during scavenge or marking.
    RootStrip,
    /// A stripe of dirty H1 old-gen cards scanned for old→young refs.
    H1CardStripe,
    /// A chunk of H2 cards scanned for H2→H1 refs (minor or major).
    H2CardChunk,
    /// A packet drained from the gray worklist (Cheney scan or mark stack).
    GrayPacket,
    /// The serial H2-candidate selection step at the end of marking.
    CandidateSelect,
    /// The serial H2 address-assignment step of precompaction.
    H2Assign,
    /// A chunk of live objects assigned forwarding addresses (precompact).
    PlanChunk,
    /// A chunk of live objects whose reference slots are rewritten (adjust).
    AdjustChunk,
    /// A chunk of recorded backward (H2→H1) slots re-pointed after adjust.
    BackwardFix,
    /// A chunk of live objects copied/promoted during compaction.
    CompactChunk,
}

impl WorkUnitKind {
    pub fn name(self) -> &'static str {
        match self {
            WorkUnitKind::RootStrip => "root_strip",
            WorkUnitKind::H1CardStripe => "h1_card_stripe",
            WorkUnitKind::H2CardChunk => "h2_card_chunk",
            WorkUnitKind::GrayPacket => "gray_packet",
            WorkUnitKind::CandidateSelect => "candidate_select",
            WorkUnitKind::H2Assign => "h2_assign",
            WorkUnitKind::PlanChunk => "plan_chunk",
            WorkUnitKind::AdjustChunk => "adjust_chunk",
            WorkUnitKind::BackwardFix => "backward_fix",
            WorkUnitKind::CompactChunk => "compact_chunk",
        }
    }
}

/// The typed event taxonomy. Every variant is a coarse operation — there are
/// deliberately no per-word or per-page-hit events, so a full trace of a
/// figure run stays in the tens of thousands of entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A collection starts. `old_used_words` is the old-gen occupancy before.
    GcBegin {
        gc: GcKind,
        cause: GcCause,
        old_used_words: u64,
    },
    /// A collection finished. `promoted_h2_words` is the H2 growth during it.
    GcEnd {
        gc: GcKind,
        old_used_words: u64,
        old_capacity_words: u64,
        promoted_h2_words: u64,
    },
    /// A major-GC phase starts.
    PhaseBegin { phase: GcPhase },
    /// A major-GC phase ends.
    PhaseEnd { phase: GcPhase },
    /// A mutator-side span opens (see [`SpanKind`]).
    SpanBegin { kind: SpanKind },
    /// A mutator-side span closes.
    SpanEnd { kind: SpanKind },
    /// One card-table scan pass; `cards` is how many cards were visited.
    CardScan { table: CardTableKind, cards: u64 },
    /// The H2 promotion buffer flushed `bytes` to the device.
    H2PromoFlush { bytes: u64 },
    /// An mmap page fault (page not resident); `sequential` means the
    /// readahead window recognised a streaming access.
    PageFault { sequential: bool },
    /// A resident page was evicted; `writeback` means it was dirty.
    PageEvict { writeback: bool },
    /// An msync-style flush wrote `bytes` of dirty pages back.
    WriteBack { bytes: u64 },
    /// The device served a read of `bytes`.
    DeviceRead { bytes: u64 },
    /// The device served a write of `bytes`.
    DeviceWrite { bytes: u64 },
    /// The heap ran out of memory; the crash-dump hook fires alongside this.
    Oom,
    /// The fault-injection plane injected a transient I/O error; `write` is
    /// the direction of the faulted operation.
    FaultInjected { write: bool },
    /// One bounded-backoff retry of a faulted I/O operation (`attempt` is
    /// 1-based); the backoff nanoseconds were charged before this event.
    IoRetry { attempt: u64 },
    /// H2 entered degraded (`H2Unavailable`) mode: promotions park in the
    /// old generation from here on, matching the paper's no-H2 baseline.
    /// `enospc` distinguishes backing-file exhaustion from write-retry
    /// exhaustion.
    H2Degraded { enospc: bool },
    /// A GC work unit was dispatched to lane `lane` (work-unit plane).
    UnitBegin { lane: u32, kind: WorkUnitKind },
    /// The dispatched unit finished; `cost_ns` is what it charged its lane.
    UnitEnd { lane: u32, kind: WorkUnitKind, cost_ns: u64 },
    /// A phase barrier: `lanes` lanes synchronised after `units` units, the
    /// clock advanced by the critical path `advance_ns`, and non-critical
    /// lanes idled for `stall_ns` total.
    LaneBarrier { lanes: u32, units: u64, advance_ns: u64, stall_ns: u64 },
    /// An incremental major-GC slice starts; `phase` is the phase the slice
    /// resumes. The mutator is stopped between `SliceBegin` and `SliceEnd`,
    /// so the pair's duration is one observable pause.
    SliceBegin { phase: GcPhase },
    /// The incremental slice yielded back to the mutator after dispatching
    /// `units` work units.
    SliceEnd { phase: GcPhase, units: u64 },
    /// The mutator write barrier remembered a reference overwritten between
    /// marking slices (snapshot-at-the-beginning deletion barrier); `root`
    /// distinguishes a released GC root from an object-field overwrite.
    WriteBarrierRemember { root: bool },
    /// A device request queued behind other tenants of a shared device
    /// (server plane, DESIGN.md §12): the arbiter delayed it `wait_ns`
    /// before service, charged to the waiting tenant.
    DeviceQueued { wait_ns: u64 },
    /// A server scheduling decision for tenant `tenant`: one job round
    /// granted. `admitted` is always true; the server grants by clock alone.
    TenantSched { tenant: u32, admitted: bool },
    /// Nothing emits this any more (H2 pretenuring is gone); kept because
    /// the repo benchmark still matches on it.
    Pretenure { label: u64, words: u64 },
    /// The online cost model decided where partition `(rdd, partition)` is
    /// cached: `choice` indexes `PLACEMENT_NAMES` (0 on-heap, 1 serialized,
    /// 2 H2).
    PlacementDecision { rdd: u64, partition: u32, choice: u8 },
    /// A block-manager serialize (`deser == false`) or deserialize
    /// (`deser == true`) of `bytes` bytes — the one source of truth the
    /// cost model, `RunReport` and the timeline exporter all read.
    BlockSerde { deser: bool, bytes: u64 },
    /// A query-plane operation began on logical client session `session`;
    /// `kind` indexes [`QUERY_OP_NAMES`] (0 point lookup, 1 range scan,
    /// 2 aggregate).
    QueryBegin { session: u32, kind: u8 },
    /// The query-plane operation on `session` completed having matched
    /// `rows` rows (the `QueryEnd - QueryBegin` ns delta is the op's
    /// service latency).
    QueryEnd { session: u32, rows: u64 },
    /// A secondary-index probe consulted `runs` sorted chunk runs and
    /// yielded `hits` candidate rows (query plane).
    IndexProbe { runs: u32, hits: u64 },
}

/// Display names for [`EventKind::PlacementDecision::choice`].
pub const PLACEMENT_NAMES: [&str; 3] = ["on_heap", "serialized", "h2"];

/// Display names for [`EventKind::QueryBegin::kind`].
pub const QUERY_OP_NAMES: [&str; 3] = ["point_lookup", "range_scan", "aggregate"];

/// Number of distinct event classes (counter array dimension).
pub const CLASS_COUNT: usize = 31;

/// Number of span slots [`EventKind::span_edge`] distinguishes: minor/major
/// GC, the four major phases, the [`SpanKind`]s, then incremental GC slices.
pub const SPAN_COUNT: usize = 9;

impl EventKind {
    /// Short lowercase name used by the exporters and counter listing.
    pub fn name(&self) -> &'static str {
        Self::CLASS_NAMES[self.class()]
    }

    /// Dense class index for the per-class counters.
    pub fn class(&self) -> usize {
        match self {
            EventKind::GcBegin { .. } => 0,
            EventKind::GcEnd { .. } => 1,
            EventKind::PhaseBegin { .. } => 2,
            EventKind::PhaseEnd { .. } => 3,
            EventKind::SpanBegin { .. } => 4,
            EventKind::SpanEnd { .. } => 5,
            EventKind::CardScan { .. } => 6,
            EventKind::H2PromoFlush { .. } => 7,
            EventKind::PageFault { .. } => 8,
            EventKind::PageEvict { .. } => 9,
            EventKind::WriteBack { .. } => 10,
            EventKind::DeviceRead { .. } => 11,
            EventKind::DeviceWrite { .. } => 12,
            EventKind::Oom => 13,
            EventKind::FaultInjected { .. } => 14,
            EventKind::IoRetry { .. } => 15,
            EventKind::H2Degraded { .. } => 16,
            EventKind::UnitBegin { .. } => 17,
            EventKind::UnitEnd { .. } => 18,
            EventKind::LaneBarrier { .. } => 19,
            EventKind::SliceBegin { .. } => 20,
            EventKind::SliceEnd { .. } => 21,
            EventKind::WriteBarrierRemember { .. } => 22,
            EventKind::DeviceQueued { .. } => 23,
            EventKind::TenantSched { .. } => 24,
            EventKind::Pretenure { .. } => 25,
            EventKind::PlacementDecision { .. } => 26,
            EventKind::BlockSerde { .. } => 27,
            EventKind::QueryBegin { .. } => 28,
            EventKind::QueryEnd { .. } => 29,
            EventKind::IndexProbe { .. } => 30,
        }
    }

    /// Display names for the event classes, indexed like [`EventKind::class`].
    pub const CLASS_NAMES: [&'static str; CLASS_COUNT] = [
        "gc_begin",
        "gc_end",
        "phase_begin",
        "phase_end",
        "span_begin",
        "span_end",
        "card_scan",
        "h2_promo_flush",
        "page_fault",
        "page_evict",
        "write_back",
        "device_read",
        "device_write",
        "oom",
        "fault_injected",
        "io_retry",
        "h2_degraded",
        "unit_begin",
        "unit_end",
        "lane_barrier",
        "slice_begin",
        "slice_end",
        "write_barrier_remember",
        "device_queued",
        "tenant_sched",
        "pretenure",
        "placement_decision",
        "block_serde",
        "query_begin",
        "query_end",
        "index_probe",
    ];

    /// If this event opens or closes a span, returns `(slot, is_begin)`
    /// where `slot` is below [`SPAN_COUNT`].
    pub fn span_edge(&self) -> Option<(usize, bool)> {
        match self {
            EventKind::GcBegin { gc: GcKind::Minor, .. } => Some((0, true)),
            EventKind::GcEnd { gc: GcKind::Minor, .. } => Some((0, false)),
            EventKind::GcBegin { gc: GcKind::Major, .. } => Some((1, true)),
            EventKind::GcEnd { gc: GcKind::Major, .. } => Some((1, false)),
            EventKind::PhaseBegin { phase } => Some((2 + phase.index(), true)),
            EventKind::PhaseEnd { phase } => Some((2 + phase.index(), false)),
            EventKind::SpanBegin { kind } => Some((6 + kind.index(), true)),
            EventKind::SpanEnd { kind } => Some((6 + kind.index(), false)),
            EventKind::SliceBegin { .. } => Some((8, true)),
            EventKind::SliceEnd { .. } => Some((8, false)),
            _ => None,
        }
    }

    /// True for GC-attribution events (collections, phases, card scans,
    /// promotion flushes, OOM) — the subset `fig7_timeline` exports.
    pub fn is_gc(&self) -> bool {
        matches!(
            self,
            EventKind::GcBegin { .. }
                | EventKind::GcEnd { .. }
                | EventKind::PhaseBegin { .. }
                | EventKind::PhaseEnd { .. }
                | EventKind::CardScan { .. }
                | EventKind::H2PromoFlush { .. }
                | EventKind::Oom
                | EventKind::H2Degraded { .. }
                | EventKind::LaneBarrier { .. }
                | EventKind::SliceBegin { .. }
                | EventKind::SliceEnd { .. }
        )
    }
}

/// One recorded event: a global sequence number, the simulated-time instant
/// it was observed at, and the typed payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub seq: u64,
    pub t_ns: u64,
    pub kind: EventKind,
}

/// Default ring capacity (events). Figure drivers that want a full GC
/// timeline raise it via `HeapConfig::obs_events`.
pub const DEFAULT_RING_EVENTS: usize = 64 * 1024;

/// Everything an event touches, under the tracer's one lock.
struct Ring {
    events: VecDeque<Event>,
    capacity: usize,
    /// Events emitted since the last clear: the next sequence number.
    seq: u64,
    /// Events pushed out of the ring because it was full.
    dropped: u64,
    /// Events emitted per class (kept even when the ring overflows).
    counts: [u64; CLASS_COUNT],
}

impl Ring {
    fn push(&mut self, t_ns: u64, kind: EventKind) {
        self.counts[kind.class()] += 1;
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(Event { seq: self.seq, t_ns, kind });
        self.seq += 1;
    }
}

/// The flight recorder. One `Tracer` lives inside each `SimClock`, so every
/// component that shares the clock shares the recorder.
///
/// Thread-safety: the level and the per-category charge counters are
/// relaxed atomics; everything an event touches (ring, capacity, sequence
/// number, drop count, per-class counts) sits behind one mutex, taken once
/// per event. The parallel bench driver gives every job its own clock (and
/// thus its own tracer), so traces are per-run and deterministic regardless
/// of thread count.
pub struct Tracer {
    /// True at [`Level::Full`].
    on: AtomicBool,
    /// `SimClock::charge` calls per category — the cheap "charging routes
    /// through the tracer" hook; no ring traffic on the per-word hot path.
    charges: [AtomicU64; Category::COUNT],
    ring: Mutex<Ring>,
}

impl Default for Tracer {
    /// Environment-configured tracer (`TERAHEAP_OBS`), default-full.
    fn default() -> Tracer {
        Tracer::with_level(Level::from_env())
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ring = self.ring.lock();
        f.debug_struct("Tracer")
            .field("level", &self.level())
            .field("seq", &ring.seq)
            .field("dropped", &ring.dropped)
            .finish()
    }
}

impl Tracer {
    /// A tracer at an explicit level with the default ring capacity.
    pub fn with_level(level: Level) -> Tracer {
        Tracer {
            on: AtomicBool::new(level == Level::Full),
            charges: std::array::from_fn(|_| AtomicU64::new(0)),
            ring: Mutex::new(Ring {
                events: VecDeque::new(),
                capacity: DEFAULT_RING_EVENTS,
                seq: 0,
                dropped: 0,
                counts: [0; CLASS_COUNT],
            }),
        }
    }

    /// Current recording level.
    pub fn level(&self) -> Level {
        if self.enabled() {
            Level::Full
        } else {
            Level::Off
        }
    }

    /// Changes the recording level (applies to subsequent events).
    pub fn set_level(&self, level: Level) {
        self.on.store(level == Level::Full, Ordering::Relaxed);
    }

    /// True when recording is on — callers can skip computing
    /// timestamps/payloads entirely when the tracer is off.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Resizes the ring (oldest events are dropped if shrinking).
    pub fn set_capacity(&self, events: usize) {
        let mut ring = self.ring.lock();
        ring.capacity = events.max(1);
        while ring.events.len() > ring.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.ring.lock().capacity
    }

    /// Records one event observed at simulated instant `t_ns`.
    ///
    /// This never touches the clock: the timestamp is whatever the caller
    /// already read, so tracing cannot perturb simulated time.
    pub fn emit(&self, t_ns: u64, kind: EventKind) {
        if self.enabled() {
            self.ring.lock().push(t_ns, kind);
        }
    }

    /// Cheap per-category charge accounting, called by `SimClock::charge`.
    ///
    /// This sits on the simulator's hottest path (one call per clock
    /// charge), so it deliberately uses a relaxed load + store instead of a
    /// locked `fetch_add`: concurrent chargers on one clock may lose
    /// increments, which is acceptable for a diagnostic counter (the bench
    /// driver gives every job its own single-threaded clock, where the
    /// count is exact). Never takes the ring mutex.
    #[inline]
    pub fn note_charge(&self, cat: Category) {
        self.note_charges(cat, 1);
    }

    /// Bulk form of [`Tracer::note_charge`]: records `n` charge calls in one
    /// counter update. The bulk access plane uses this so a batched run
    /// advances the per-category charge counters by exactly as much as the
    /// per-word loop it replaces would have.
    #[inline]
    pub fn note_charges(&self, cat: Category, n: u64) {
        if n > 0 && self.enabled() {
            let c = &self.charges[cat.index()];
            c.store(c.load(Ordering::Relaxed) + n, Ordering::Relaxed);
        }
    }

    /// Snapshot of the ring contents, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.ring.lock().events.iter().copied().collect()
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().dropped
    }

    /// Total events emitted (recorded + dropped), i.e. the next seq number.
    pub fn emitted(&self) -> u64 {
        self.ring.lock().seq
    }

    /// Per-class event counts as `(name, count)`, classes with zero included.
    pub fn counts(&self) -> Vec<(&'static str, u64)> {
        let ring = self.ring.lock();
        EventKind::CLASS_NAMES.iter().copied().zip(ring.counts).collect()
    }

    /// `SimClock::charge` call counts per category, indexed by
    /// [`Category::index`].
    pub fn charge_counts(&self) -> [u64; Category::COUNT] {
        std::array::from_fn(|i| self.charges[i].load(Ordering::Relaxed))
    }

    /// Clears ring, counts and sequence numbers (level and capacity are
    /// kept). Paired with `SimClock::reset`.
    pub fn clear(&self) {
        let mut ring = self.ring.lock();
        ring.events.clear();
        ring.seq = 0;
        ring.dropped = 0;
        ring.counts = [0; CLASS_COUNT];
        for c in &self.charges {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Crash-dump hook: when `TERAHEAP_OBS_DUMP=<path>` is set, appends a
    /// header line plus the last ring events as JSONL to `<path>`. Gated by
    /// the environment (and off by default) because figure runs treat OOM as
    /// an expected data point, and verify runs must stay byte-deterministic.
    ///
    /// Returns how many events were written (0 when disabled or off-level).
    pub fn crash_dump(&self, context: &str) -> usize {
        let Ok(path) = std::env::var("TERAHEAP_OBS_DUMP") else {
            return 0;
        };
        if path.is_empty() || !self.enabled() {
            return 0;
        }
        let events = self.events();
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"crash\":{},\"events\":{},\"dropped\":{}}}\n",
            timeline::json_string(context),
            events.len(),
            self.dropped()
        ));
        out.push_str(&timeline::to_jsonl(&events));
        use std::io::Write as _;
        let written = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(out.as_bytes()));
        match written {
            Ok(()) => events.len(),
            Err(_) => 0, // best-effort: a failed dump must not mask the OOM
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teraheap_util::proptest_mini::{check, range_usize, vec_of, CaseResult, Config};
    use teraheap_util::{prop_assert, prop_assert_eq};

    fn ev(kind: EventKind) -> EventKind {
        kind
    }

    #[test]
    fn event_classes_are_exactly_the_dense_range() {
        // One event per variant: names come from `CLASS_NAMES[class()]`, so a
        // duplicated or skipped index would mislabel the exporters.
        let (gc, phase, unit) = (GcKind::Minor, GcPhase::Mark, WorkUnitKind::RootStrip);
        let one_of_each = [
            EventKind::GcBegin { gc, cause: GcCause::Explicit, old_used_words: 0 },
            EventKind::GcEnd { gc, old_used_words: 0, old_capacity_words: 0, promoted_h2_words: 0 },
            EventKind::PhaseBegin { phase },
            EventKind::PhaseEnd { phase },
            EventKind::SpanBegin { kind: SpanKind::Stage },
            EventKind::SpanEnd { kind: SpanKind::Stage },
            EventKind::CardScan { table: CardTableKind::H1, cards: 0 },
            EventKind::H2PromoFlush { bytes: 0 },
            EventKind::PageFault { sequential: false },
            EventKind::PageEvict { writeback: false },
            EventKind::WriteBack { bytes: 0 },
            EventKind::DeviceRead { bytes: 0 },
            EventKind::DeviceWrite { bytes: 0 },
            EventKind::Oom,
            EventKind::FaultInjected { write: false },
            EventKind::IoRetry { attempt: 1 },
            EventKind::H2Degraded { enospc: false },
            EventKind::UnitBegin { lane: 0, kind: unit },
            EventKind::UnitEnd { lane: 0, kind: unit, cost_ns: 0 },
            EventKind::LaneBarrier { lanes: 1, units: 0, advance_ns: 0, stall_ns: 0 },
            EventKind::SliceBegin { phase },
            EventKind::SliceEnd { phase, units: 0 },
            EventKind::WriteBarrierRemember { root: false },
            EventKind::DeviceQueued { wait_ns: 0 },
            EventKind::TenantSched { tenant: 0, admitted: true },
            EventKind::Pretenure { label: 0, words: 0 },
            EventKind::PlacementDecision { rdd: 0, partition: 0, choice: 0 },
            EventKind::BlockSerde { deser: false, bytes: 0 },
            EventKind::QueryBegin { session: 0, kind: 0 },
            EventKind::QueryEnd { session: 0, rows: 0 },
            EventKind::IndexProbe { runs: 0, hits: 0 },
        ];
        let mut classes: Vec<usize> = one_of_each.iter().map(EventKind::class).collect();
        classes.sort_unstable();
        assert_eq!(classes, (0..CLASS_COUNT).collect::<Vec<_>>());
        assert_eq!(EventKind::Oom.name(), "oom");
        assert_eq!(one_of_each[30].name(), "index_probe");
    }

    #[test]
    fn off_level_records_nothing() {
        let t = Tracer::with_level(Level::Off);
        t.emit(10, ev(EventKind::Oom));
        t.note_charge(Category::Mutator);
        assert!(t.events().is_empty());
        assert_eq!(t.counts().iter().map(|(_, c)| c).sum::<u64>(), 0);
        assert_eq!(t.charge_counts(), [0; Category::COUNT]);
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let t = Tracer::with_level(Level::Full);
        t.set_capacity(4);
        for i in 0..10u64 {
            t.emit(i, EventKind::DeviceRead { bytes: i });
        }
        let events = t.events();
        assert_eq!(events.len(), 4);
        assert_eq!(t.dropped(), 6);
        assert_eq!(t.emitted(), 10);
        assert_eq!(events[0].seq, 6);
        assert_eq!(events[3].kind, EventKind::DeviceRead { bytes: 9 });
    }

    /// The one lock's contract, after every step of a random sequence of
    /// emits, capacity changes (shrink and grow), level flips and clears:
    /// every emitted event is in the ring or counted as dropped, the
    /// per-class counts sum to the events emitted, and the ring holds the
    /// newest events under contiguous sequence numbers.
    #[test]
    fn ring_counts_and_drops_agree_after_every_step() {
        let steps = vec_of((range_usize(0..10), range_usize(1..12)), 1..200);
        check(
            "ring_counts_and_drops_agree_after_every_step",
            &steps,
            &Config::with_cases(128),
            |steps: Vec<(usize, usize)>| {
                let t = Tracer::with_level(Level::Full);
                t.set_capacity(8);
                for (i, &(op, arg)) in steps.iter().enumerate() {
                    match op {
                        0..=5 if arg % 2 == 0 => t.emit(i as u64, EventKind::Oom),
                        0..=5 => t.emit(i as u64, EventKind::DeviceRead { bytes: arg as u64 }),
                        6 | 7 => t.set_capacity(arg),
                        8 if arg % 2 == 0 => t.set_level(Level::Off),
                        8 => t.set_level(Level::Full),
                        _ => t.clear(),
                    }
                    let (events, emitted) = (t.events(), t.emitted());
                    let len = events.len() as u64;
                    prop_assert_eq!(emitted, len + t.dropped(), "step {i}: ring + dropped");
                    let counted: u64 = t.counts().iter().map(|&(_, c)| c).sum();
                    prop_assert_eq!(counted, emitted, "step {i}: per-class counts");
                    let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
                    prop_assert_eq!(seqs, (emitted - len..emitted).collect::<Vec<_>>(), "step {i}");
                    prop_assert!(events.len() <= t.capacity(), "step {i}: over capacity");
                }
                CaseResult::Pass
            },
        );
    }

    #[test]
    fn clear_resets_everything_but_keeps_config() {
        let t = Tracer::with_level(Level::Full);
        t.set_capacity(8);
        t.emit(1, EventKind::Oom);
        t.note_charge(Category::SerDe);
        t.clear();
        assert!(t.events().is_empty());
        assert_eq!(t.emitted(), 0);
        assert_eq!(t.charge_counts(), [0; Category::COUNT]);
        assert_eq!(t.capacity(), 8);
        assert_eq!(t.level(), Level::Full);
    }
}
