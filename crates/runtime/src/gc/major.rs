//! Major (full-heap) collection: one cycle, one state machine
//! (DESIGN.md §11).
//!
//! The collector is the PS four-phase mark–compact extended with
//! TeraHeap's integration (§4):
//!
//! * **marking** resets H2 region live bits, marks H1 objects referenced
//!   from H2 as live (via the H2 card table), fences scans at H1→H2
//!   references while setting region live bits, computes the transitive
//!   closures of tagged root key-objects, and frees dead H2 regions;
//! * **pre-compaction** assigns H2 addresses (by label, region-grouped) to
//!   the move candidates and old-generation addresses to everything else;
//! * **pointer adjustment** rewrites references — backward references
//!   through the device — records new cross-region dependencies and dirties
//!   H2 cards for newly created backward references;
//! * **compaction** slides H1 objects and moves candidates to H2 through
//!   the promotion buffers.
//!
//! Every phase is a run of schedulable work units whose bodies live in
//! [`super::units`]. A [`MajorCycle`] carries all state between units and
//! [`run_slice`] is the only loop that executes them: it drains units until
//! the projected pause would exceed its budget, fires one scheduler barrier
//! and returns. The two ways to collect are two ways to drive that loop:
//!
//! * [`major_gc`] starts a cycle and runs it to completion in **one
//!   unbounded slice** — the stop-world collection;
//! * [`maybe_start`] starts a cycle after a minor GC once old free space
//!   drops below twice the young generation, and `Heap::incr_poll` resumes
//!   it in slices of `pause_budget_ns` with the mutator running in between.
//!   Any demand collection (eden full, explicit GC, large allocation) first
//!   finishes the in-flight cycle with [`finish`]; the proactive trigger's
//!   margin guarantees no promotion-guarantee major can be needed while a
//!   cycle is active.
//!
//! What differs between the two is not code but the [`Shape`] a cycle is
//! constructed with; see there. The G1 variant runs the same cycle with a
//! concurrent-marking discount and garbage-first mixed-collection costs
//! applied per lane at the barriers (`LaneSet` milli scaling); the Panthera
//! variant charges NVM penalties for the NVM-resident part of the old
//! generation.
//!
//! # When a mutator interleaves
//!
//! Marking is snapshot-at-the-beginning: the write barrier
//! (`Heap::write_ref_at`) remembers overwritten H1 values and
//! `Heap::release` remembers released roots, each gray packet re-grays
//! them, and objects allocated during marking are allocated black — so
//! nothing reachable at cycle start can be hidden between slices. H1→H2
//! stores fence the target region live and H2→H2 stores record the
//! dependency the (possibly already passed) card scan could not have seen.
//! The live set freezes at mark termination; objects allocated while it is
//! planned stay where they are and only have their slots adjusted at the
//! flip. From the **flip** on the mutator holds *logical*
//! (post-compaction) addresses and its accessors translate through
//! [`MajorCycle::view`] while objects physically move, chunk by chunk.
//! Minor GCs never run mid-cycle.

use super::schedule::{
    Scheduler, DOM_H2_CARD, DOM_OBJECT, GRAY_PACKET, H2_CARD_CHUNK, OBJECT_CHUNK, ROOT_STRIP,
};
use super::units::{self, LiveMap, SelState, Stash};
use super::Work;
use crate::config::OomError;
use crate::heap::Heap;
use crate::object;
use teraheap_core::{Addr, CardState, Label};
use teraheap_storage::obs::{CardTableKind, EventKind, GcCause, GcKind, GcPhase, WorkUnitKind};
use teraheap_storage::Category;

/// Mutator nanoseconds between slices = `pause_budget_ns / PACE_DIVISOR`.
/// At 8, a cycle of total GC work `W` completes after about `W / 8` mutator
/// ns — well inside one eden refill window at the default budget — so
/// finishing a cycle on demand (which would blow the pause target) stays a
/// safety net.
pub(crate) const PACE_DIVISOR: u64 = 8;

/// Objects per chunk of a cycle a mutator interleaves with — tagged per
/// `CandidateSelect`, assigned per `H2Assign`, adjusted and copied per
/// `CompactChunk`: one unit must fit comfortably inside the default pause
/// budget, and a fused adjust+copy unit is the costliest kind.
const SLICED_CHUNK: usize = 64;

/// The values a cycle is constructed with. Every cycle runs the same unit
/// bodies in the same phase order; whether a mutator may run between its
/// units decides only what is listed here, and only the constructor, the
/// drive loop and the phase transitions read it — a unit body never does.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Objects per unit of a serial chain: tagged per `CandidateSelect`,
    /// assigned per `H2Assign` (the fault-plane transaction is always whole).
    chain_chunk: usize,
    /// Objects per `AdjustChunk`/`CompactChunk` unit.
    tail_chunk: usize,
    /// A mutator runs between units:
    /// * the serial chains (selection, H2 assignment) are chunked, and a
    ///   chunked chain stays on lane 0 so it is never credited with
    ///   cross-lane parallelism its execution order forbids, whereas a chain
    ///   run whole is one ordinary unit on the least-loaded lane — emitted
    ///   even when selection finds nothing tagged;
    /// * the tail is fused — each chunk is adjusted, then copied, behind the
    ///   flip — instead of adjusting every object, a barrier, then copying
    ///   every object (which the G1 mixed-collection scaling and the
    ///   deferred humongous copies need);
    /// * retiring keeps eden (allocations made during the cycle live above
    ///   `flip_top`) and nulls the dead prefix's slots instead of resetting
    ///   it;
    /// * slices are recorded (`SliceBegin`/`SliceEnd`, `incr_slices`);
    /// * the exactly-once coverage audit stays off, since a slice barrier
    ///   fires with its phase's domain half claimed.
    interleaved: bool,
}

impl Shape {
    fn new(interleaved: bool) -> Shape {
        let (chain_chunk, tail_chunk) =
            if interleaved { (SLICED_CHUNK, SLICED_CHUNK) } else { (usize::MAX, OBJECT_CHUNK) };
        Shape { chain_chunk, tail_chunk, interleaved }
    }
}

/// Where the cycle resumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Phase {
    #[default]
    MarkRoots,
    MarkCards,
    MarkDrain,
    Select,
    Plan,
    Relocate,
}

/// Marking state.
#[derive(Default)]
pub(super) struct MarkState {
    /// Root-table length at cycle start; roots created later hold values
    /// already covered by SATB and need no strip.
    roots_len: usize,
    roots_cursor: usize,
    pub(super) cards: Vec<usize>,
    cards_cursor: usize,
    cards_snapped: bool,
    pub(super) stack: Vec<Addr>,
    pub(super) live_words: u64,
    /// H2 slots holding backward references, for the backward fix.
    pub(super) backward_slots: Vec<Addr>,
    /// `(card, whether it held a backward reference)` for the flip's card
    /// state re-derivation.
    pub(super) scanned_cards: Vec<(usize, bool)>,
    pub(super) slot_buf: Vec<u64>,
}

/// What the mutator's barriers and allocations append between units. Stays
/// empty when no mutator interleaves.
#[derive(Default)]
pub(crate) struct MutatorLog {
    /// SATB remembered set: H1 addresses overwritten or released between
    /// slices, re-grayed by the next gray packet.
    pub(crate) remembered: Vec<u64>,
    /// H2 slots that received an H1 value mid-cycle; the backward fix covers
    /// them in addition to the scanned set.
    pub(crate) extra_backward: Vec<Addr>,
    /// Every H2 slot ref-written pre-flip: re-marked dirty after the flip
    /// re-derives scanned card states, so mutation between slices cannot be
    /// erased by the re-derivation.
    pub(crate) h2_dirty: Vec<Addr>,
    /// Objects allocated while the frozen live set was being planned (in
    /// eden, at or above `flip_top`): their slots may hold pre-compaction
    /// addresses and are adjusted at the flip.
    pub(crate) plan_late: Vec<u64>,
}

/// Pre-compaction state: what the frozen live set is planned into.
#[derive(Default)]
pub(super) struct PlanState {
    pub(super) old_base: u64,
    /// H2 candidates in closure-discovery order (= H2 placement order).
    pub(super) move_order: Vec<u64>,
    sel: Option<SelState>,
    /// `h2_move` requests visible when selection began: the only ones this
    /// cycle may clear at retirement (later hints target the next GC).
    req_snapshot: Vec<Label>,
    /// `move_order[..assign_idx]` hold their H2 addresses.
    assign_idx: usize,
    plan_idx: usize,
    pub(super) new_top: u64,
    pub(super) new_old_starts: Vec<u64>,
    /// Live words per old-generation G1 region (mixed-collection model),
    /// indexed by region; empty for the other variants.
    pub(super) g1_region_live: Vec<u64>,
    /// Eden top at mark termination: everything below relocates, everything
    /// at or above stays.
    flip_top: u64,
}

/// Compaction state.
#[derive(Default)]
pub(super) struct RelocState {
    /// `(dest, src)` sorted by dest — the logical→physical index mutator
    /// accessors search while objects move.
    dest_index: Vec<(u64, u64)>,
    /// Enumeration ranks below this have moved.
    idx: usize,
    pub(super) promoted_regions: Vec<u32>,
    /// Words staged in the promotion buffer since the last flush; bounds the
    /// end-of-slice flush cost in the pause projection.
    pub(super) staged_words: u64,
    pub(super) stash: Stash,
}

/// All state a major cycle carries between work units.
pub(crate) struct MajorCycle {
    shape: Shape,
    pub(super) sched: Scheduler,
    phase: Phase,
    cur_gc_phase: GcPhase,
    h2_words_before: u64,
    /// Sum of slice durations so far (becomes `stats.major_ns`).
    gc_ns: u64,
    /// Clock ns at the start of the current phase segment (slice-local).
    seg_start_ns: u64,
    /// Clock ns when the last slice ended; paces the next slice.
    pub(crate) last_slice_end_ns: u64,
    /// The mark bitmap: the live set while marking, and from mark
    /// termination on the frozen relocation enumeration (old then young,
    /// each in address order) and its forwarding addresses.
    pub(super) live: LiveMap,
    pub(super) mark: MarkState,
    pub(crate) mutator: MutatorLog,
    pub(super) plan: PlanState,
    pub(super) reloc: RelocState,
    done: bool,
    aborted: bool,
}

impl std::fmt::Debug for MajorCycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MajorCycle")
            .field("shape", &self.shape)
            .field("phase", &self.phase)
            .field("live", &self.live.len())
            .field("reloc_idx", &self.reloc.idx)
            .finish_non_exhaustive()
    }
}

impl MajorCycle {
    /// Whether marking is still running (SATB barrier armed).
    pub(crate) fn marking(&self) -> bool {
        matches!(self.phase, Phase::MarkRoots | Phase::MarkCards | Phase::MarkDrain)
    }

    /// Whether the flip has not happened yet (mutator addresses are still
    /// physical; H2 card re-derivation is still pending).
    pub(crate) fn pre_flip(&self) -> bool {
        self.phase != Phase::Relocate
    }

    /// Declares every live object part of the next barrier's coverage
    /// domain: each is planned, adjusted and copied by exactly one unit.
    fn expect_live(&mut self) {
        for src in self.live.sources() {
            self.sched.expect(DOM_OBJECT | src);
        }
    }

    /// Resolves a mutator-held (logical) object address to `(physical,
    /// raw_slots)`. `raw_slots` is true when the object has not been
    /// relocated yet, so its reference slots still hold pre-adjustment
    /// (physical) values: reads must canonicalize through the forwarding
    /// table and writes must de-canonicalize through the destination index.
    pub(crate) fn view(&self, a: Addr) -> (Addr, bool) {
        if self.pre_flip() {
            return (a, false);
        }
        match self.reloc.dest_index.binary_search_by_key(&a.raw(), |&(d, _)| d) {
            Ok(i) if self.live.rank(self.reloc.dest_index[i].1) >= self.reloc.idx => {
                (Addr::new(self.reloc.dest_index[i].1), true)
            }
            _ => (a, false),
        }
    }

    /// Raw slot value → logical address (reads from un-moved objects).
    pub(crate) fn canon(&self, v: u64) -> u64 {
        self.live.get(v).unwrap_or(v)
    }

    /// Logical address → raw slot value (writes into un-moved objects,
    /// whose slots must keep holding physical values until their chunk is
    /// adjusted).
    pub(crate) fn decanon(&self, v: u64) -> u64 {
        match self.reloc.dest_index.binary_search_by_key(&v, |&(d, _)| d) {
            Ok(i) => self.reloc.dest_index[i].1,
            Err(_) => v,
        }
    }

    /// Allocation hook: allocate-black while marking or selecting (fields
    /// are null at birth; SATB covers later stores; the words count so the
    /// pressure heuristic sees them), and log allocations made while the
    /// frozen live set is planned for the flip's slot adjustment.
    pub(crate) fn note_alloc(&mut self, addr: Addr, words: usize) {
        match self.phase {
            Phase::Plan => self.mutator.plan_late.push(addr.raw()),
            Phase::Relocate => {}
            _ => {
                self.live.mark(addr.raw());
                self.mark.live_words += words as u64;
            }
        }
    }

    /// The cost of flushing the currently staged promotion-buffer bytes —
    /// added to the pause projection so the end-of-slice flush cannot push a
    /// slice past its budget.
    fn flush_estimate_ns(&self, heap: &Heap) -> u64 {
        match heap.h2.as_ref() {
            Some(h2) if self.reloc.staged_words > 0 => {
                h2.device_spec().write_cost_ns(self.reloc.staged_words as usize * 8)
            }
            _ => 0,
        }
    }
}

// ----- entry points ----------------------------------------------------------

/// Runs a full collection: starts a cycle and runs it to completion in one
/// unbounded slice.
///
/// # Errors
///
/// Returns [`OomError`] when live data does not fit the old generation.
/// The heap must not be used further after an error.
pub(crate) fn major_gc(heap: &mut Heap, cause: GcCause) -> Result<(), OomError> {
    debug_assert!(heap.cycle.is_none(), "major GC over an in-flight cycle");
    start(heap, cause, false);
    finish(heap)
}

/// Starts a cycle after a minor GC if slicing is armed (`0 <
/// pause_budget_ns < u64::MAX`) and old free space has dropped below twice
/// the young generation. The margin guarantees a `PromotionGuarantee` major
/// can never be needed while a cycle is active: with no cycle running free
/// >= 2·young, and one minor promotes at most `young` words.
pub(crate) fn maybe_start(heap: &mut Heap) {
    let budget = heap.config.pause_budget_ns;
    if budget == 0 || budget == u64::MAX || heap.cycle.is_some() || heap.pending_oom.is_some() {
        return;
    }
    if heap.old.free_words() >= 2 * heap.config.young_words {
        return;
    }
    start(heap, GcCause::Incremental, true);
    run_slice(heap, budget);
}

/// Runs the in-flight cycle, if any, to completion in one unbounded slice
/// (demand collections and large allocations cannot proceed mid-cycle),
/// then surfaces any OOM a cycle hit.
///
/// # Errors
///
/// Returns the pending [`OomError`] if a cycle (now or earlier) aborted at a
/// planning overflow.
pub(crate) fn finish(heap: &mut Heap) -> Result<(), OomError> {
    run_slice(heap, u64::MAX);
    debug_assert!(heap.cycle.is_none(), "unbounded slice did not retire the cycle");
    heap.pending_oom.take().map_or(Ok(()), Err)
}

fn start(heap: &mut Heap, cause: GcCause, interleaved: bool) {
    debug_assert!(!heap.in_gc, "re-entrant GC");
    heap.clock.emit(EventKind::GcBegin {
        gc: GcKind::Major,
        cause,
        old_used_words: heap.old.used_words() as u64,
    });
    heap.clock.emit(EventKind::PhaseBegin { phase: GcPhase::Mark });
    if let Some(h2) = heap.h2.as_mut() {
        h2.begin_major_marking();
    }
    let mut sched = Scheduler::new(
        heap.config.gc_threads,
        heap.config.cost.gc_barrier_sync_ns,
        heap.check_enabled && !interleaved,
    );
    // G1 marks concurrently with the mutator; only a quarter of the traced
    // CPU shows up as pause/GC time. Applied per lane at the barrier.
    sched.set_milli(heap.policy.mark_cpu_milli);
    let g1_regions = heap.policy.g1_region_words.map_or(0, |w| heap.config.old_words.div_ceil(w));
    heap.cycle = Some(Box::new(MajorCycle {
        shape: Shape::new(interleaved),
        sched,
        phase: Phase::MarkRoots,
        cur_gc_phase: GcPhase::Mark,
        h2_words_before: heap.h2.as_ref().map_or(0, |h| h.words_promoted()),
        gc_ns: 0,
        seg_start_ns: 0,
        last_slice_end_ns: heap.clock.total_ns(),
        live: std::mem::take(&mut heap.mark_scratch)
            .recycled(heap.old.base().raw(), heap.mem.len()),
        mark: MarkState { roots_len: heap.roots.len(), ..MarkState::default() },
        mutator: MutatorLog::default(),
        plan: PlanState {
            old_base: heap.old.base().raw(),
            g1_region_live: vec![0; g1_regions],
            ..PlanState::default()
        },
        reloc: RelocState::default(),
        done: false,
        aborted: false,
    }));
}

/// The drive loop: runs one pause slice of the in-flight cycle. Drains work
/// units while the projected pause — elapsed + unsettled lane charges + the
/// costliest unit seen this slice + the pending promotion flush — stays
/// within `budget_ns`, then flushes, fires the slice barrier and returns
/// control to the mutator.
pub(crate) fn run_slice(heap: &mut Heap, budget_ns: u64) {
    let Some(mut cyc) = heap.cycle.take() else {
        return;
    };
    debug_assert!(!heap.in_gc, "GC slice inside a collection");
    heap.in_gc = true;
    // Any slice may flip, relocate or retire the cycle: every pin is stale
    // (and stays uncached for as long as the cycle is in flight).
    heap.move_epoch += 1;
    let clock = heap.clock.clone();
    let slice_start = clock.total_ns();
    if cyc.shape.interleaved {
        clock.emit(EventKind::SliceBegin { phase: cyc.cur_gc_phase });
    }
    cyc.seg_start_ns = slice_start;
    // Aim slightly inside the budget: a phase-transition step can chain a
    // second unit and the flush estimate is a lower bound, so slices stop at
    // 7/8 of the budget to keep the overshoot tail within it.
    let target_ns = budget_ns - budget_ns / 8;
    let mut units: u64 = 0;
    let mut max_unit_ns: u64 = 0;
    while !cyc.done && !cyc.aborted {
        if units > 0 {
            let projected = (clock.total_ns() - slice_start)
                .saturating_add(cyc.sched.pending_ns())
                .saturating_add(max_unit_ns)
                .saturating_add(cyc.flush_estimate_ns(heap));
            if projected > target_ns {
                break;
            }
        }
        let before = clock.total_ns() + cyc.sched.pending_ns();
        step(heap, &mut cyc);
        units += 1;
        let after = clock.total_ns() + cyc.sched.pending_ns();
        max_unit_ns = max_unit_ns.max(after.saturating_sub(before));
    }
    if !cyc.aborted {
        // The end of a cycle is a promotion durability point whatever this
        // slice staged (pretenured allocations share the buffers).
        if cyc.reloc.staged_words > 0 || cyc.done {
            if let Some(h2) = heap.h2.as_mut() {
                h2.finish_promotion(Category::MajorGc);
            }
            cyc.reloc.staged_words = 0;
        }
        heap.stats.lane_stall_ns += cyc.sched.barrier(&clock, Category::MajorGc, "major:slice");
        add_phase_ns(heap, cyc.cur_gc_phase, clock.total_ns() - cyc.seg_start_ns);
    }
    cyc.gc_ns += clock.total_ns() - slice_start;
    if cyc.done {
        clock.emit(EventKind::PhaseEnd { phase: GcPhase::Compact });
        heap.stats.major_count += 1;
        heap.stats.major_ns += cyc.gc_ns;
        let h2_words_after = heap.h2.as_ref().map_or(0, |h| h.words_promoted());
        clock.emit(EventKind::GcEnd {
            gc: GcKind::Major,
            old_used_words: heap.old.used_words() as u64,
            old_capacity_words: heap.old.capacity_words() as u64,
            promoted_h2_words: h2_words_after - cyc.h2_words_before,
        });
    }
    if cyc.shape.interleaved {
        heap.stats.incr_slices += 1;
        clock.emit(EventKind::SliceEnd { phase: cyc.cur_gc_phase, units });
    }
    heap.in_gc = false;
    if cyc.aborted {
        // Candidate bits are still set: the heap is not checkable (nor usable).
        return;
    }
    if !cyc.done {
        cyc.last_slice_end_ns = clock.total_ns();
        heap.cycle = Some(cyc);
    }
    heap.maybe_heap_check("after major GC slice");
}

/// Executes one work unit (or a zero-cost phase transition followed by its
/// first unit) of the cycle.
fn step(heap: &mut Heap, cyc: &mut MajorCycle) {
    match cyc.phase {
        Phase::MarkRoots => step_mark_roots(heap, cyc),
        Phase::MarkCards => step_mark_cards(heap, cyc),
        Phase::MarkDrain => step_mark_drain(heap, cyc),
        Phase::Select => step_select(heap, cyc),
        Phase::Plan => step_plan(heap, cyc),
        Phase::Relocate => step_relocate(heap, cyc),
    }
}

/// Dispatches one unit of `kind`, runs `body` with its work counters and
/// retires it at the counters' CPU cost plus their flat extra ns. Units go
/// to the least-loaded lane, except that a unit of a serial dependency
/// `chain` stays on lane 0 when the chain is chunked.
fn run_unit<R>(
    heap: &mut Heap,
    cyc: &mut MajorCycle,
    kind: WorkUnitKind,
    chain: bool,
    body: impl FnOnce(&mut Heap, &mut MajorCycle, &mut Work) -> R,
) -> R {
    let clock = heap.clock.clone();
    let lane = if chain && cyc.shape.interleaved {
        cyc.sched.begin_serial_unit(&clock, kind)
    } else {
        cyc.sched.begin_unit(&clock, kind)
    };
    let mut uw = Work::default();
    let out = body(heap, cyc, &mut uw);
    cyc.sched.end_unit(&clock, lane, kind, uw.cpu_ns(&heap.config.cost), uw.extra_ns);
    out
}

/// Closes the current phase segment: settles the phase ns, emits the
/// `PhaseEnd`/`PhaseBegin` pair and restarts segment accounting. Callers
/// fire the scheduler barrier first so pending lane charges land in the
/// outgoing phase.
fn roll_to(heap: &mut Heap, cyc: &mut MajorCycle, next: GcPhase) {
    let now = heap.clock.total_ns();
    add_phase_ns(heap, cyc.cur_gc_phase, now - cyc.seg_start_ns);
    heap.clock.emit(EventKind::PhaseEnd { phase: cyc.cur_gc_phase });
    heap.clock.emit(EventKind::PhaseBegin { phase: next });
    cyc.cur_gc_phase = next;
    cyc.seg_start_ns = now;
}

fn add_phase_ns(heap: &mut Heap, phase: GcPhase, ns: u64) {
    let phases = &mut heap.stats.phases;
    match phase {
        GcPhase::Mark => phases.marking_ns += ns,
        GcPhase::Precompact => phases.precompact_ns += ns,
        GcPhase::Adjust => phases.adjust_ns += ns,
        GcPhase::Compact => phases.compact_ns += ns,
    }
}

// ----- marking -----------------------------------------------------------------

fn step_mark_roots(heap: &mut Heap, cyc: &mut MajorCycle) {
    let from = cyc.mark.roots_cursor;
    if from >= cyc.mark.roots_len {
        cyc.phase = Phase::MarkCards;
        return step_mark_cards(heap, cyc);
    }
    let to = (from + ROOT_STRIP).min(cyc.mark.roots_len);
    run_unit(heap, cyc, WorkUnitKind::RootStrip, false, |heap, cyc, uw| {
        units::root_strip(heap, cyc, from..to, uw)
    });
    cyc.mark.roots_cursor = to;
    if to >= cyc.mark.roots_len {
        cyc.phase = Phase::MarkCards;
    }
}

fn step_mark_cards(heap: &mut Heap, cyc: &mut MajorCycle) {
    if !cyc.mark.cards_snapped {
        cyc.mark.cards_snapped = true;
        if let Some(h2) = heap.h2.as_mut() {
            cyc.mark.cards = h2.cards_mut().major_scan_cards();
            let cards = cyc.mark.cards.len() as u64;
            heap.clock.emit(EventKind::CardScan { table: CardTableKind::H2Major, cards });
            for &card in &cyc.mark.cards {
                cyc.sched.expect(DOM_H2_CARD | card as u64);
            }
        }
    }
    let from = cyc.mark.cards_cursor;
    if from >= cyc.mark.cards.len() {
        cyc.phase = Phase::MarkDrain;
        return step_mark_drain(heap, cyc);
    }
    let to = (from + H2_CARD_CHUNK).min(cyc.mark.cards.len());
    run_unit(heap, cyc, WorkUnitKind::H2CardChunk, false, |heap, cyc, uw| {
        units::h2_card_chunk(heap, cyc, from..to, uw)
    });
    cyc.mark.cards_cursor = to;
    if to >= cyc.mark.cards.len() {
        cyc.phase = Phase::MarkDrain;
    }
}

fn step_mark_drain(heap: &mut Heap, cyc: &mut MajorCycle) {
    if cyc.mark.stack.is_empty() && cyc.mutator.remembered.is_empty() {
        return mark_terminate(heap, cyc);
    }
    run_unit(heap, cyc, WorkUnitKind::GrayPacket, false, units::gray_packet);
}

/// Mark termination: the SATB closure is complete (gray stack and
/// remembered set both empty with no mutator in between), so candidate
/// selection can begin.
fn mark_terminate(heap: &mut Heap, cyc: &mut MajorCycle) {
    cyc.phase = Phase::Select;
    // A hint landing after this point applies to a later GC, so retirement
    // clears only the requests selection could see.
    if let Some(h2) = heap.h2.as_ref() {
        cyc.plan.req_snapshot.extend(h2.policy().requested_labels());
    }
    // A chain run whole is charged as one unit even when nothing is tagged.
    let whole = !cyc.shape.interleaved;
    cyc.plan.sel = units::begin_select(heap, cyc.mark.live_words, &cyc.live)
        .filter(|sel| whole || !sel.is_idle());
    step_select(heap, cyc)
}

/// Marking task 4: the transitive closures of tagged roots become H2
/// candidates, [`Shape::chain_chunk`] objects per unit.
fn step_select(heap: &mut Heap, cyc: &mut MajorCycle) {
    let Some(mut sel) = cyc.plan.sel.take() else {
        return finish_select(heap, cyc);
    };
    let chunk = cyc.shape.chain_chunk;
    let exhausted = run_unit(heap, cyc, WorkUnitKind::CandidateSelect, true, |heap, cyc, uw| {
        units::select_chunk(heap, &mut sel, &cyc.live, &mut cyc.plan.move_order, chunk, uw)
    });
    if !exhausted {
        cyc.plan.sel = Some(sel);
    }
}

/// The end of marking, once selection has drained: the Figure 10 liveness
/// statistics, marking task 5 (free dead H2 regions — lazy bulk
/// reclamation), the mark barrier, and freezing the live set into the
/// relocation enumeration.
fn finish_select(heap: &mut Heap, cyc: &mut MajorCycle) {
    if heap.h2.is_some() {
        if heap.track_h2_liveness {
            units::record_h2_liveness(heap);
        }
        heap.propagate_site_groups();
        let freed = heap.h2.as_mut().unwrap().propagate_and_sweep();
        for rid in &freed {
            heap.h2_starts[rid.0 as usize] = Vec::new();
            units::clear_region_cards(heap, rid.0);
        }
    }
    let clock = heap.clock.clone();
    heap.stats.lane_stall_ns += cyc.sched.barrier(&clock, Category::MajorGc, "major:mark");
    roll_to(heap, cyc, GcPhase::Precompact);
    cyc.sched.set_milli(1000);
    // The bitmap's scan order (old then young, each ascending) is both the
    // planning and the relocation order, and the flip point pins which eden
    // allocations stay put.
    let plan = &mut cyc.plan;
    plan.new_old_starts.reserve_exact(cyc.live.freeze());
    plan.flip_top = heap.eden.top().raw();
    plan.new_top = plan.old_base;
    cyc.expect_live();
    cyc.phase = Phase::Plan;
}

// ----- pre-compaction ----------------------------------------------------------

fn step_plan(heap: &mut Heap, cyc: &mut MajorCycle) {
    let (from, len) = (cyc.plan.assign_idx, cyc.plan.move_order.len());
    if from < len {
        if heap.h2.as_ref().is_some_and(|h| h.fault_plane().is_some()) {
            cyc.plan.assign_idx = len;
            return run_unit(heap, cyc, WorkUnitKind::H2Assign, true, units::h2_assign_txn);
        }
        let to = from.saturating_add(cyc.shape.chain_chunk).min(len);
        cyc.plan.assign_idx = to;
        return run_unit(heap, cyc, WorkUnitKind::H2Assign, true, |heap, cyc, uw| {
            units::h2_assign_chunk(heap, cyc, from..to, uw)
        });
    }
    let from = cyc.plan.plan_idx;
    if from >= cyc.live.len() {
        return flip(heap, cyc);
    }
    let to = (from + OBJECT_CHUNK).min(cyc.live.len());
    let clock = heap.clock.clone();
    let lane = cyc.sched.begin_unit(&clock, WorkUnitKind::PlanChunk);
    let mut uw = Work::default();
    if let Err(e) = units::plan_chunk(heap, cyc, from..to, &mut uw) {
        // The aborted phase charges nothing.
        cyc.sched.abandon();
        clock.emit(EventKind::PhaseEnd { phase: GcPhase::Precompact });
        heap.pending_oom = Some(heap.note_oom(e));
        cyc.aborted = true;
        return;
    }
    cyc.plan.plan_idx = to;
    cyc.sched.end_unit(&clock, lane, WorkUnitKind::PlanChunk, uw.cpu_ns(&heap.config.cost), 0);
}

// ----- pointer adjustment and compaction ---------------------------------------

/// One unit of the tail over enumeration ranks `from..to`: pointer
/// adjustment, the copy, or both fused. H1 copies and slot rewrites carry
/// the phase's mixed-collection discount (scaled); H2 promotion copies and
/// NVM penalties are always paid in full (flat).
fn tail_unit(
    heap: &mut Heap,
    cyc: &mut MajorCycle,
    kind: WorkUnitKind,
    from: usize,
    to: usize,
    adjust: bool,
    copy: bool,
) {
    let clock = heap.clock.clone();
    let lane = cyc.sched.begin_unit(&clock, kind);
    let mut uw = Work::default();
    let mut h1_words: u64 = 0;
    let mut cur = cyc.live.cursor(from);
    for idx in from..to {
        let src = cyc.live.next(&mut cur).expect("rank below the live count");
        cyc.sched.claim(DOM_OBJECT | src);
        let dest = cyc.live.dest(idx);
        if adjust {
            units::adjust_object(heap, cyc, src, dest, &mut uw);
        }
        if copy {
            units::move_object(heap, cyc, src, dest, &mut uw, &mut h1_words);
        }
    }
    let cost = &heap.config.cost;
    let scaled = h1_words * cost.gc_copy_word_ns + uw.adjusted_refs * cost.gc_adjust_ref_ns;
    let flat = (uw.copied_words - h1_words) * cost.gc_copy_word_ns + uw.extra_ns;
    cyc.sched.end_unit(&clock, lane, kind, scaled, flat);
}

/// The flip: one atomic step between planning and relocation (it may exceed
/// the budget; with a fused tail it is a few backward-fix chunks). After it
/// every mutator-held address is logical and all card state is consistent
/// with the post-compaction world, except for objects a fused tail has yet
/// to adjust and move.
fn flip(heap: &mut Heap, cyc: &mut MajorCycle) {
    let clock = heap.clock.clone();
    heap.stats.lane_stall_ns += cyc.sched.barrier(&clock, Category::MajorGc, "major:precompact");
    roll_to(heap, cyc, GcPhase::Adjust);
    // Mixed-collection discount: G1 only adjusts and copies the regions it
    // collects.
    let placed = cyc.plan.new_top - cyc.plan.old_base;
    cyc.sched.set_milli(units::g1_moved_fraction_milli(heap, &cyc.plan.g1_region_live, placed));
    // Re-derive the states of the H2 cards scanned during marking (after
    // this GC every H1 survivor is in the old generation), then re-mark
    // everything the mutator dirtied mid-cycle on top.
    if let Some(h2) = heap.h2.as_mut() {
        for &(card, has_backward) in &cyc.mark.scanned_cards {
            let state = if has_backward { CardState::OldGen } else { CardState::Clean };
            h2.cards_mut().set_state(card, state);
        }
        for &slot in &cyc.mutator.h2_dirty {
            h2.cards_mut().mark_dirty(slot);
        }
    }
    let total = cyc.live.len();
    if !cyc.shape.interleaved {
        cyc.expect_live();
        for from in (0..total).step_by(cyc.shape.tail_chunk) {
            let to = (from + cyc.shape.tail_chunk).min(total);
            tail_unit(heap, cyc, WorkUnitKind::AdjustChunk, from, to, true, false);
        }
    }
    // Backward fixes over the scanned slots plus the mutator's additions.
    // Dedup: a slot both scanned and re-written must be adjusted exactly
    // once (a second pass could misread an already-forwarded value as a
    // source address).
    let (scanned, extra) = (&cyc.mark.backward_slots, &cyc.mutator.extra_backward);
    let mut slots: Vec<u64> = scanned.iter().chain(extra).map(|a| a.raw()).collect();
    slots.sort_unstable();
    slots.dedup();
    for chunk in slots.chunks(GRAY_PACKET) {
        run_unit(heap, cyc, WorkUnitKind::BackwardFix, false, |heap, cyc, uw| {
            units::backward_fix(heap, cyc, chunk, uw)
        });
    }
    // Roots — including handles created mid-cycle — become logical
    // (uncosted: a handful of slot rewrites).
    for root in heap.roots.iter_mut().filter(|a| a.is_h1()) {
        if let Some(d) = cyc.live.get(root.raw()) {
            *root = Addr::new(d);
        }
    }
    // Plan-window allocations stay put but may hold pre-compaction values.
    if !cyc.mutator.plan_late.is_empty() {
        run_unit(heap, cyc, WorkUnitKind::AdjustChunk, false, |heap, cyc, uw| {
            for &obj in &cyc.mutator.plan_late {
                units::adjust_object(heap, cyc, obj, obj, uw);
            }
        });
    }
    // H1 cards restart from empty: a fused tail re-derives old→young (young
    // = eden allocated since the live set froze) cards at each destination,
    // and the mutator barrier keeps marking physically during relocation.
    heap.h1_cards.clear_all();
    if cyc.shape.interleaved {
        cyc.reloc.dest_index =
            cyc.live.sources().enumerate().map(|(i, src)| (cyc.live.dest(i), src)).collect();
        cyc.reloc.dest_index.sort_unstable();
    }
    heap.stats.lane_stall_ns += cyc.sched.barrier(&clock, Category::MajorGc, "major:adjust");
    roll_to(heap, cyc, GcPhase::Compact);
    cyc.expect_live();
    cyc.phase = Phase::Relocate;
}

fn step_relocate(heap: &mut Heap, cyc: &mut MajorCycle) {
    let from = cyc.reloc.idx;
    if from >= cyc.live.len() {
        return retire(heap, cyc);
    }
    let to = (from + cyc.shape.tail_chunk).min(cyc.live.len());
    tail_unit(heap, cyc, WorkUnitKind::CompactChunk, from, to, cyc.shape.interleaved, true);
    cyc.reloc.idx = to;
}

/// Retires the cycle: restore the start indexes, reset spaces, update the
/// transfer policy's pressure state from what is left in H1 (§3.2). The
/// final promotion flush, barrier and `GcEnd` happen in the [`run_slice`]
/// epilogue.
fn retire(heap: &mut Heap, cyc: &mut MajorCycle) {
    cyc.reloc.stash.flush(&mut heap.mem);
    // Sources are visited in H1 address order, but H2 destinations were
    // assigned in closure-discovery order, so the per-region start lists
    // were appended out of address order. Card scans binary-search these
    // lists, which silently misses objects on unsorted input — restore the
    // sort invariant here.
    cyc.reloc.promoted_regions.sort_unstable();
    cyc.reloc.promoted_regions.dedup();
    for &rid in &cyc.reloc.promoted_regions {
        heap.h2_starts[rid as usize].sort_unstable();
    }
    heap.mark_scratch = std::mem::take(&mut cyc.live).reset();
    heap.old.set_top(Addr::new(cyc.plan.new_top));
    heap.old_starts = std::mem::take(&mut cyc.plan.new_old_starts);
    if cyc.shape.interleaved {
        // Deadwood: objects in the relocated prefix keep their headers — the
        // linear eden walk stays parsable — but their reference slots are
        // nulled: dead objects' slots still hold pre-compaction addresses,
        // and copied-out sources are garbage.
        let mut a = heap.eden.base().raw();
        while a < cyc.plan.flip_top {
            let (first, end) = heap.ref_slot_range(Addr::new(a));
            a += object::size_of(heap.mem[a as usize]) as u64;
            heap.mem[first as usize..end as usize].fill(0);
        }
    } else {
        heap.eden.reset();
    }
    heap.from.reset();
    heap.to.reset();
    if let Some(h2) = heap.h2.as_mut() {
        h2.policy_mut().note_major_gc_end_satisfying(
            cyc.plan.new_top - cyc.plan.old_base,
            heap.old.capacity_words() as u64,
            &cyc.plan.req_snapshot,
        );
    }
    cyc.done = true;
}
