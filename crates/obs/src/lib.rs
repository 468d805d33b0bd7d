//! `teraheap-obs` — a JFR-style flight recorder for the TeraHeap simulator.
//!
//! Every component that shares a `SimClock` (the heap, both GC paths, the H2
//! promotion pipeline, `MmapSim`, the device layer and the framework shims)
//! reports what it is doing through one [`Tracer`]: a fixed-capacity ring
//! buffer of typed, timestamped [`Event`]s plus cheap per-class counters and
//! per-span duration histograms.
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
//! - [`Tracer`]: level-gated sink. `Off` drops everything, `Counters` keeps
//!   the per-class counters and span histograms, `Full` (the default) also
//!   records events into the ring buffer.
//! - [`timeline`]: the deterministic JSONL exporter and the
//!   [`timeline::gc_cycles`] pairing used by `fig7_timeline`.
//! - [`Tracer::crash_dump`]: writes the last events as JSONL when the runtime
//!   hits an OOM, gated by `TERAHEAP_OBS_DUMP` so default runs stay quiet.

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};

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

/// How much the tracer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Record nothing; every emit is a cheap early return.
    Off = 0,
    /// Keep per-class counters and span histograms, but no ring events.
    Counters = 1,
    /// Counters plus the full event ring (the default).
    Full = 2,
}

impl Level {
    fn from_u8(v: u8) -> Level {
        match v {
            0 => Level::Off,
            1 => Level::Counters,
            _ => Level::Full,
        }
    }

    /// Parses `TERAHEAP_OBS` (`off`/`counters`/`full`, or `0`/`1`/`2`).
    /// Unset or unrecognised values mean [`Level::Full`]: tracing is on by
    /// default, which is exactly what the determinism suite exercises.
    pub fn from_env() -> Level {
        match std::env::var("TERAHEAP_OBS").as_deref() {
            Ok("off") | Ok("0") => Level::Off,
            Ok("counters") | Ok("1") => Level::Counters,
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
    /// The injected crash point fired mid-write-back; the durable image may
    /// hold torn pages from here on.
    CrashPoint,
    /// `H2::recover()` completed: `torn_pages` checksum mismatches were
    /// detected and `regions` regions restored from the durable image.
    Recovered { torn_pages: u64, regions: u64 },
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
    /// A server scheduling decision for tenant `tenant`: `admitted` is
    /// false when the admission policy deferred the tenant's burst.
    TenantSched { tenant: u32, admitted: bool },
    /// Lifetime-profiled pretenuring placed a `words`-word object straight
    /// into H2 under allocation site `label` (adaptive placement plane).
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
pub const CLASS_COUNT: usize = 33;

/// Number of span slots tracked by the duration histograms: minor/major GC,
/// the four major phases, the [`SpanKind`]s, then incremental GC slices.
pub const SPAN_COUNT: usize = 9;

/// Display names for the span slots, indexed like the histograms.
pub const SPAN_NAMES: [&str; SPAN_COUNT] = [
    "minor_gc",
    "major_gc",
    "major_mark",
    "major_precompact",
    "major_adjust",
    "major_compact",
    "stage",
    "shuffle",
    "major_slice",
];

impl EventKind {
    /// Short lowercase name used by the exporters and counter listing.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::GcBegin { .. } => "gc_begin",
            EventKind::GcEnd { .. } => "gc_end",
            EventKind::PhaseBegin { .. } => "phase_begin",
            EventKind::PhaseEnd { .. } => "phase_end",
            EventKind::SpanBegin { .. } => "span_begin",
            EventKind::SpanEnd { .. } => "span_end",
            EventKind::CardScan { .. } => "card_scan",
            EventKind::H2PromoFlush { .. } => "h2_promo_flush",
            EventKind::PageFault { .. } => "page_fault",
            EventKind::PageEvict { .. } => "page_evict",
            EventKind::WriteBack { .. } => "write_back",
            EventKind::DeviceRead { .. } => "device_read",
            EventKind::DeviceWrite { .. } => "device_write",
            EventKind::Oom => "oom",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::IoRetry { .. } => "io_retry",
            EventKind::H2Degraded { .. } => "h2_degraded",
            EventKind::CrashPoint => "crash_point",
            EventKind::Recovered { .. } => "recovered",
            EventKind::UnitBegin { .. } => "unit_begin",
            EventKind::UnitEnd { .. } => "unit_end",
            EventKind::LaneBarrier { .. } => "lane_barrier",
            EventKind::SliceBegin { .. } => "slice_begin",
            EventKind::SliceEnd { .. } => "slice_end",
            EventKind::WriteBarrierRemember { .. } => "write_barrier_remember",
            EventKind::DeviceQueued { .. } => "device_queued",
            EventKind::TenantSched { .. } => "tenant_sched",
            EventKind::Pretenure { .. } => "pretenure",
            EventKind::PlacementDecision { .. } => "placement_decision",
            EventKind::BlockSerde { .. } => "block_serde",
            EventKind::QueryBegin { .. } => "query_begin",
            EventKind::QueryEnd { .. } => "query_end",
            EventKind::IndexProbe { .. } => "index_probe",
        }
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
            EventKind::CrashPoint => 17,
            EventKind::Recovered { .. } => 18,
            EventKind::UnitBegin { .. } => 19,
            EventKind::UnitEnd { .. } => 20,
            EventKind::LaneBarrier { .. } => 21,
            EventKind::SliceBegin { .. } => 22,
            EventKind::SliceEnd { .. } => 23,
            EventKind::WriteBarrierRemember { .. } => 24,
            EventKind::DeviceQueued { .. } => 25,
            EventKind::TenantSched { .. } => 26,
            EventKind::Pretenure { .. } => 27,
            EventKind::PlacementDecision { .. } => 28,
            EventKind::BlockSerde { .. } => 29,
            EventKind::QueryBegin { .. } => 30,
            EventKind::QueryEnd { .. } => 31,
            EventKind::IndexProbe { .. } => 32,
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
        "crash_point",
        "recovered",
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
    /// where `slot` indexes [`SPAN_NAMES`].
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
                | EventKind::CrashPoint
                | EventKind::Recovered { .. }
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

/// Aggregated duration statistics for one span slot, in simulated ns.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStats {
    pub name: &'static str,
    /// Completed begin/end pairs.
    pub count: usize,
    /// Begins without a matching end at snapshot time.
    pub open: usize,
    pub mean_ns: f64,
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub p999_ns: f64,
    pub max_ns: u64,
}

struct Inner {
    ring: std::collections::VecDeque<Event>,
    /// Per-slot stack of open span start times (simulated ns).
    open: [Vec<u64>; SPAN_COUNT],
    /// Per-slot completed span durations (simulated ns).
    durations: [Vec<u64>; SPAN_COUNT],
}

impl Inner {
    fn new() -> Inner {
        Inner {
            ring: std::collections::VecDeque::new(),
            open: std::array::from_fn(|_| Vec::new()),
            durations: std::array::from_fn(|_| Vec::new()),
        }
    }
}

/// The flight recorder. One `Tracer` lives inside each `SimClock`, so every
/// component that shares the clock shares the recorder.
///
/// Thread-safety: counters are relaxed atomics; the ring and span state sit
/// behind a mutex taken only on coarse events. The parallel bench driver
/// gives every job its own clock (and thus its own tracer), so traces are
/// per-run and deterministic regardless of thread count.
pub struct Tracer {
    level: AtomicU8,
    capacity: AtomicUsize,
    seq: AtomicU64,
    dropped: AtomicU64,
    /// Events emitted per class (kept even when the ring overflows).
    counts: [AtomicU64; CLASS_COUNT],
    /// `SimClock::charge` calls per category — the cheap "charging routes
    /// through the tracer" hook; no ring traffic on the per-word hot path.
    charges: [AtomicU64; Category::COUNT],
    inner: Mutex<Inner>,
}

impl Default for Tracer {
    /// Environment-configured tracer (`TERAHEAP_OBS`), default-full.
    fn default() -> Tracer {
        Tracer::with_level(Level::from_env())
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("level", &self.level())
            .field("seq", &self.seq.load(Ordering::Relaxed))
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl Tracer {
    /// A tracer at an explicit level with the default ring capacity.
    pub fn with_level(level: Level) -> Tracer {
        Tracer {
            level: AtomicU8::new(level as u8),
            capacity: AtomicUsize::new(DEFAULT_RING_EVENTS),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            charges: std::array::from_fn(|_| AtomicU64::new(0)),
            inner: Mutex::new(Inner::new()),
        }
    }

    /// Current recording level.
    pub fn level(&self) -> Level {
        Level::from_u8(self.level.load(Ordering::Relaxed))
    }

    /// Changes the recording level (applies to subsequent events).
    pub fn set_level(&self, level: Level) {
        self.level.store(level as u8, Ordering::Relaxed);
    }

    /// True when any recording is happening — callers can skip computing
    /// timestamps/payloads entirely when the tracer is off.
    pub fn enabled(&self) -> bool {
        self.level() != Level::Off
    }

    /// Resizes the ring (oldest events are dropped if shrinking).
    pub fn set_capacity(&self, events: usize) {
        let cap = events.max(1);
        self.capacity.store(cap, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        while inner.ring.len() > cap {
            inner.ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Records one event observed at simulated instant `t_ns`.
    ///
    /// This never touches the clock: the timestamp is whatever the caller
    /// already read, so tracing cannot perturb simulated time.
    pub fn emit(&self, t_ns: u64, kind: EventKind) {
        let level = self.level();
        if level == Level::Off {
            return;
        }
        self.counts[kind.class()].fetch_add(1, Ordering::Relaxed);
        let edge = kind.span_edge();
        if level < Level::Full && edge.is_none() {
            return;
        }
        let mut inner = self.inner.lock();
        match edge {
            Some((slot, true)) => inner.open[slot].push(t_ns),
            Some((slot, false)) => {
                // Tolerate an end without a begin (e.g. the tracer was
                // enabled mid-span); it just doesn't produce a sample.
                if let Some(start) = inner.open[slot].pop() {
                    let d = t_ns.saturating_sub(start);
                    inner.durations[slot].push(d);
                }
            }
            None => {}
        }
        if level == Level::Full {
            let cap = self.capacity.load(Ordering::Relaxed);
            if inner.ring.len() >= cap {
                inner.ring.pop_front();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            inner.ring.push_back(Event { seq, t_ns, kind });
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
        if self.level.load(Ordering::Relaxed) != Level::Off as u8 {
            let c = &self.charges[cat.index()];
            c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        }
    }

    /// Bulk form of [`Tracer::note_charge`]: records `n` charge calls in one
    /// counter update. The bulk access plane uses this so a batched run
    /// advances the per-category charge counters by exactly as much as the
    /// per-word loop it replaces would have.
    #[inline]
    pub fn note_charges(&self, cat: Category, n: u64) {
        if n > 0 && self.level.load(Ordering::Relaxed) != Level::Off as u8 {
            let c = &self.charges[cat.index()];
            c.store(c.load(Ordering::Relaxed) + n, Ordering::Relaxed);
        }
    }

    /// Snapshot of the ring contents, oldest first.
    pub fn events(&self) -> Vec<Event> {
        let inner = self.inner.lock();
        inner.ring.iter().copied().collect()
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Total events emitted (recorded + dropped), i.e. the next seq number.
    pub fn emitted(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Per-class event counts as `(name, count)`, classes with zero included.
    pub fn counts(&self) -> Vec<(&'static str, u64)> {
        EventKind::CLASS_NAMES
            .iter()
            .zip(self.counts.iter())
            .map(|(name, c)| (*name, c.load(Ordering::Relaxed)))
            .collect()
    }

    /// `SimClock::charge` call counts per category, indexed by
    /// [`Category::index`].
    pub fn charge_counts(&self) -> [u64; Category::COUNT] {
        std::array::from_fn(|i| self.charges[i].load(Ordering::Relaxed))
    }

    /// Duration statistics (p50/p99/p99.9 via `teraheap-util`'s percentile)
    /// for every span slot that saw at least one begin.
    pub fn span_stats(&self) -> Vec<SpanStats> {
        let inner = self.inner.lock();
        let mut out = Vec::new();
        for (slot, name) in SPAN_NAMES.iter().enumerate() {
            let open = inner.open[slot].len();
            let d = &inner.durations[slot];
            if d.is_empty() && open == 0 {
                continue;
            }
            let mut sorted: Vec<f64> = d.iter().map(|&n| n as f64).collect();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let (mean, p50, p99, p999) = if sorted.is_empty() {
                (0.0, 0.0, 0.0, 0.0)
            } else {
                (
                    sorted.iter().sum::<f64>() / sorted.len() as f64,
                    teraheap_util::microbench::percentile(&sorted, 0.50),
                    teraheap_util::microbench::percentile(&sorted, 0.99),
                    teraheap_util::microbench::percentile(&sorted, 0.999),
                )
            };
            out.push(SpanStats {
                name,
                count: d.len(),
                open,
                mean_ns: mean,
                p50_ns: p50,
                p99_ns: p99,
                p999_ns: p999,
                max_ns: d.iter().copied().max().unwrap_or(0),
            });
        }
        out
    }

    /// Clears ring, counters, histograms and sequence numbers (level and
    /// capacity are kept). Paired with `SimClock::reset`.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.ring.clear();
        for v in inner.open.iter_mut() {
            v.clear();
        }
        for v in inner.durations.iter_mut() {
            v.clear();
        }
        drop(inner);
        self.seq.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
        for c in self.counts.iter().chain(self.charges.iter()) {
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
        if path.is_empty() || self.level() != Level::Full {
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

    fn ev(kind: EventKind) -> EventKind {
        kind
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
    fn counters_level_keeps_stats_but_no_ring() {
        let t = Tracer::with_level(Level::Counters);
        t.emit(0, EventKind::GcBegin { gc: GcKind::Minor, cause: GcCause::AllocFailure, old_used_words: 1 });
        t.emit(7, EventKind::GcEnd { gc: GcKind::Minor, old_used_words: 2, old_capacity_words: 8, promoted_h2_words: 0 });
        t.emit(9, EventKind::PageFault { sequential: false });
        t.note_charge(Category::Io);
        assert!(t.events().is_empty());
        let counts = t.counts();
        assert_eq!(counts[0], ("gc_begin", 1));
        assert_eq!(counts[8], ("page_fault", 1));
        assert_eq!(t.charge_counts()[Category::Io.index()], 1);
        let stats = t.span_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].name, "minor_gc");
        assert_eq!(stats[0].count, 1);
        assert_eq!(stats[0].max_ns, 7);
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

    #[test]
    fn span_histogram_pairs_begin_end() {
        let t = Tracer::with_level(Level::Full);
        t.emit(100, EventKind::SpanBegin { kind: SpanKind::Stage });
        t.emit(150, EventKind::SpanBegin { kind: SpanKind::Stage });
        t.emit(160, EventKind::SpanEnd { kind: SpanKind::Stage });
        t.emit(400, EventKind::SpanEnd { kind: SpanKind::Stage });
        let stats = t.span_stats();
        let stage = stats.iter().find(|s| s.name == "stage").unwrap();
        assert_eq!(stage.count, 2);
        assert_eq!(stage.open, 0);
        // Durations are 10 (inner) and 300 (outer, LIFO pairing); the
        // nearest-rank p50 of two samples rounds up to the larger one.
        assert_eq!(stage.max_ns, 300);
        assert_eq!(stage.p50_ns, 300.0);
        assert_eq!(stage.mean_ns, 155.0);
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
