//! Major (full-heap) collection: one stop-world cycle (DESIGN.md §11).
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
//! `major_gc` runs the phases in order, each as a run of schedulable work
//! units whose bodies live in `gc::units`; a `MajorCycle` carries the state
//! between units, and a scheduler barrier closes every phase. The G1
//! variant runs the same cycle with a concurrent-marking discount and
//! garbage-first mixed-collection costs applied per lane at the barriers
//! (the scheduler's milli scaling); the Panthera variant charges NVM
//! penalties for the NVM-resident part of the old generation.

use super::schedule::{
    Scheduler, DOM_H2_CARD, DOM_OBJECT, GRAY_PACKET, H2_CARD_CHUNK, OBJECT_CHUNK, ROOT_STRIP,
};
use super::units::{self, LiveMap, SelBuffers, Stash};
use super::{parked, Work};
use crate::config::OomError;
use crate::heap::Heap;
use teraheap_core::{Addr, CardState};
use teraheap_storage::obs::{CardTableKind, EventKind, GcCause, GcKind, GcPhase, WorkUnitKind};
use teraheap_storage::Category;

/// Marking state.
#[derive(Default)]
pub(super) struct MarkState {
    pub(super) cards: Vec<usize>,
    pub(super) stack: Vec<Addr>,
    pub(super) live_words: u64,
    /// H2 slots holding backward references, for the backward fix.
    pub(super) backward_slots: Vec<Addr>,
    /// `(card, whether it held a backward reference)` for the card state
    /// re-derivation before adjustment.
    pub(super) scanned_cards: Vec<(usize, bool)>,
    pub(super) slot_buf: Vec<u64>,
}

/// Pre-compaction state: what the live set is planned into.
#[derive(Default)]
pub(super) struct PlanState {
    pub(super) old_base: u64,
    /// H2 candidates in closure-discovery order (= H2 placement order).
    pub(super) move_order: Vec<u64>,
    pub(super) new_top: u64,
    /// The dense prefix (DESIGN.md §7): `heap.old_starts[..prefix_len]`
    /// are live, stay in H1 and keep their address, so their ranks are
    /// planned and slid by span.
    pub(super) prefix_len: usize,
    /// Where the dense prefix ends (`old_base` when it is empty).
    pub(super) prefix_end: u64,
    /// Planned starts of the live old generation past the dense prefix.
    pub(super) new_old_starts: Vec<u64>,
    /// Live words per old-generation G1 region (mixed-collection model),
    /// indexed by region; empty for the other variants.
    pub(super) g1_region_live: Vec<u64>,
}

impl MarkState {
    /// A fresh state over this one's buffers, emptied.
    fn emptied(self) -> MarkState {
        MarkState {
            cards: parked(self.cards),
            stack: parked(self.stack),
            backward_slots: parked(self.backward_slots),
            scanned_cards: parked(self.scanned_cards),
            slot_buf: parked(self.slot_buf),
            ..MarkState::default()
        }
    }
}

impl PlanState {
    /// A fresh state over this one's buffers, emptied.
    fn emptied(self) -> PlanState {
        PlanState {
            move_order: parked(self.move_order),
            new_old_starts: parked(self.new_old_starts),
            g1_region_live: parked(self.g1_region_live),
            ..PlanState::default()
        }
    }
}

/// A retired cycle's buffers, emptied, kept by the heap
/// ([`Heap::gc_scratch`]) until the next cycle starts on them, instead of
/// each cycle faulting fresh pages in for vectors the last one had already
/// grown.
#[derive(Default)]
pub(crate) struct CycleScratch {
    /// The mark bitmap, all-zero between cycles (the heap checker verifies).
    pub(crate) live: LiveMap,
    mark: MarkState,
    plan: PlanState,
    sel: SelBuffers,
    stash: Stash,
}

/// All state a major cycle carries between work units.
pub(crate) struct MajorCycle {
    pub(super) sched: Scheduler,
    cur_gc_phase: GcPhase,
    /// Clock ns at the start of the current phase.
    seg_start_ns: u64,
    /// The mark bitmap: the live set while marking, and from mark
    /// termination on the frozen relocation enumeration (old then young,
    /// each in address order) and its forwarding addresses.
    pub(super) live: LiveMap,
    pub(super) mark: MarkState,
    pub(super) plan: PlanState,
    pub(super) sel: SelBuffers,
    /// Deferred H1 copies of the compaction.
    pub(super) stash: Stash,
}

impl MajorCycle {
    /// Declares every live object part of the next barrier's coverage
    /// domain: each is planned, adjusted and copied by exactly one unit.
    fn declare_live(&mut self) {
        if !self.sched.auditing() {
            return;
        }
        for src in self.live.sources() {
            self.sched.declare(DOM_OBJECT | src);
        }
    }

    /// The forwarding address of the H1 object a slot value `v` names, with
    /// no rank lookup inside the dense prefix (whose objects stay put); any
    /// other value unchanged.
    #[inline]
    pub(crate) fn canon(&self, v: u64) -> u64 {
        if v >= self.plan.old_base && v < self.plan.prefix_end {
            return v;
        }
        self.live.get(v).unwrap_or(v)
    }

    /// The buffers of a cycle that has retired, emptied for the next.
    fn park(self) -> CycleScratch {
        CycleScratch {
            live: self.live.reset(),
            mark: self.mark.emptied(),
            plan: self.plan.emptied(),
            sel: self.sel.emptied(),
            stash: self.stash.emptied(),
        }
    }
}

/// Runs a full collection: marking, selection, planning, adjustment,
/// compaction and retirement, in that order.
///
/// # Errors
///
/// Returns [`OomError`] when live data does not fit the old generation.
/// The heap must not be used further after an error.
pub(crate) fn major_gc(heap: &mut Heap, cause: GcCause) -> Result<(), OomError> {
    debug_assert!(!heap.in_gc, "re-entrant GC");
    heap.in_gc = true;
    // The cycle moves objects and rewrites roots: every pin is stale.
    heap.move_epoch += 1;
    let clock = heap.clock.clone();
    let h2_words_before = heap.h2.as_ref().map_or(0, |h| h.words_promoted());
    let scratch = std::mem::take(&mut heap.gc_scratch.cycle);
    let mut cyc = begin(heap, cause, scratch);
    let start_ns = cyc.seg_start_ns;
    mark(heap, &mut cyc);
    select(heap, &mut cyc);
    if let Err(e) = plan(heap, &mut cyc) {
        heap.in_gc = false;
        // Candidate bits are still set: the heap is not checkable (nor usable).
        return Err(e);
    }
    adjust(heap, &mut cyc);
    compact(heap, &mut cyc);
    retire(heap, &mut cyc);
    // The end of a cycle is a promotion durability point.
    if let Some(h2) = heap.h2.as_mut() {
        h2.finish_promotion(Category::MajorGc);
    }
    heap.stats.lane_stall_ns += cyc.sched.barrier(&clock, Category::MajorGc, "major:compact");
    add_phase_ns(heap, cyc.cur_gc_phase, clock.total_ns() - cyc.seg_start_ns);
    clock.emit(EventKind::PhaseEnd { phase: GcPhase::Compact });
    heap.stats.major_count += 1;
    heap.stats.major_ns += clock.total_ns() - start_ns;
    clock.emit(EventKind::GcEnd {
        gc: GcKind::Major,
        old_used_words: heap.old.used_words() as u64,
        old_capacity_words: heap.old.capacity_words() as u64,
        promoted_h2_words: heap.h2.as_ref().map_or(0, |h| h.words_promoted()) - h2_words_before,
    });
    heap.in_gc = false;
    heap.gc_scratch.cycle = cyc.park();
    heap.maybe_heap_check("after major GC");
    Ok(())
}

/// Opens the cycle: `GcBegin`, the marking phase, and the cycle state over
/// the last cycle's buffers.
fn begin(heap: &mut Heap, cause: GcCause, scratch: CycleScratch) -> MajorCycle {
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
        heap.check_enabled,
    );
    // G1 marks concurrently with the mutator; only a quarter of the traced
    // CPU shows up as pause/GC time. Applied per lane at the barrier.
    sched.set_milli(heap.policy.mark_cpu_milli);
    let g1_regions = heap.policy.g1_region_words.map_or(0, |w| heap.config.old_words.div_ceil(w));
    let CycleScratch { live, mark, mut plan, sel, stash } = scratch;
    plan.g1_region_live.resize(g1_regions, 0);
    let old_base = heap.old.base().raw();
    MajorCycle {
        sched,
        cur_gc_phase: GcPhase::Mark,
        seg_start_ns: heap.clock.total_ns(),
        live: live.recycled(old_base, heap.mem.len()),
        mark,
        plan: PlanState { old_base, ..plan },
        sel,
        stash,
    }
}

/// Dispatches one unit of `kind` to the least-loaded lane, runs `body` with
/// its work counters and retires it at the counters' CPU cost plus their
/// flat extra ns.
fn run_unit<R>(
    heap: &mut Heap,
    cyc: &mut MajorCycle,
    kind: WorkUnitKind,
    body: impl FnOnce(&mut Heap, &mut MajorCycle, &mut Work) -> R,
) -> R {
    let clock = heap.clock.clone();
    let lane = cyc.sched.begin_unit(&clock, kind);
    let mut uw = Work::default();
    let out = body(heap, cyc, &mut uw);
    cyc.sched.end_unit(&clock, lane, kind, uw.cpu_ns(&heap.config.cost), uw.extra_ns);
    out
}

/// Closes the current phase: fires its scheduler barrier under `label`,
/// settles the phase ns, emits the `PhaseEnd`/`PhaseBegin` pair and starts
/// the accounting of `next`.
fn roll_to(heap: &mut Heap, cyc: &mut MajorCycle, label: &'static str, next: GcPhase) {
    let clock = heap.clock.clone();
    heap.stats.lane_stall_ns += cyc.sched.barrier(&clock, Category::MajorGc, label);
    let now = clock.total_ns();
    add_phase_ns(heap, cyc.cur_gc_phase, now - cyc.seg_start_ns);
    clock.emit(EventKind::PhaseEnd { phase: cyc.cur_gc_phase });
    clock.emit(EventKind::PhaseBegin { phase: next });
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

/// Marking tasks 1-3: root strips, the H2 card scan, then gray packets
/// until the closure is complete.
fn mark(heap: &mut Heap, cyc: &mut MajorCycle) {
    let roots = heap.roots.len();
    for from in (0..roots).step_by(ROOT_STRIP) {
        let to = (from + ROOT_STRIP).min(roots);
        run_unit(heap, cyc, WorkUnitKind::RootStrip, |heap, cyc, uw| {
            units::root_strip(heap, cyc, from..to, uw)
        });
    }
    if let Some(h2) = heap.h2.as_mut() {
        cyc.mark.cards = h2.cards_mut().major_scan_cards();
        let cards = cyc.mark.cards.len() as u64;
        heap.clock.emit(EventKind::CardScan { table: CardTableKind::H2Major, cards });
        for &card in &cyc.mark.cards {
            cyc.sched.declare(DOM_H2_CARD | card as u64);
        }
    }
    let cards = cyc.mark.cards.len();
    for from in (0..cards).step_by(H2_CARD_CHUNK) {
        let to = (from + H2_CARD_CHUNK).min(cards);
        run_unit(heap, cyc, WorkUnitKind::H2CardChunk, |heap, cyc, uw| {
            units::h2_card_chunk(heap, cyc, from..to, uw)
        });
    }
    while !cyc.mark.stack.is_empty() {
        run_unit(heap, cyc, WorkUnitKind::GrayPacket, units::gray_packet);
    }
}

/// Marking tasks 4 and 5: the transitive closures of tagged roots become
/// H2 candidates (one unit), the Figure 10 liveness statistics, dead H2
/// regions are freed (lazy bulk reclamation), and after the mark barrier
/// the live set freezes into the relocation enumeration.
fn select(heap: &mut Heap, cyc: &mut MajorCycle) {
    if heap.h2.is_some() {
        run_unit(heap, cyc, WorkUnitKind::CandidateSelect, units::select);
        if heap.track_h2_liveness {
            units::record_h2_liveness(heap);
        }
    }
    if let Some(h2) = heap.h2.as_mut() {
        h2.propagate_and_sweep();
    }
    roll_to(heap, cyc, "major:mark", GcPhase::Precompact);
    cyc.sched.set_milli(1000);
    // The bitmap's scan order (old then young, each ascending) is both the
    // planning and the relocation order.
    let plan = &mut cyc.plan;
    let live = cyc.live.freeze();
    (plan.prefix_len, plan.prefix_end) = if per_object_oracle() {
        (0, plan.old_base)
    } else {
        units::dense_prefix(heap, &cyc.live, &plan.move_order)
    };
    plan.new_old_starts.reserve_exact(live - plan.prefix_len);
    plan.new_top = plan.old_base;
    cyc.declare_live();
}

// ----- pre-compaction ----------------------------------------------------------

/// H2 address assignment (one unit, a serial chain in closure order), then
/// old-generation addresses for everything else, [`OBJECT_CHUNK`] ranks per
/// unit.
///
/// # Errors
///
/// Returns [`OomError`] when live data does not fit the old generation; the
/// aborted phase charges nothing.
fn plan(heap: &mut Heap, cyc: &mut MajorCycle) -> Result<(), OomError> {
    if !cyc.plan.move_order.is_empty() {
        run_unit(heap, cyc, WorkUnitKind::H2Assign, units::h2_assign);
    }
    let clock = heap.clock.clone();
    let live = cyc.live.len();
    for from in (0..live).step_by(OBJECT_CHUNK) {
        let to = (from + OBJECT_CHUNK).min(live);
        let lane = cyc.sched.begin_unit(&clock, WorkUnitKind::PlanChunk);
        let mut uw = Work::default();
        if let Err(e) = units::plan_chunk(heap, cyc, from..to, &mut uw) {
            cyc.sched.abandon();
            clock.emit(EventKind::PhaseEnd { phase: GcPhase::Precompact });
            return Err(heap.note_oom(e));
        }
        cyc.sched.end_unit(&clock, lane, WorkUnitKind::PlanChunk, uw.cpu_ns(&heap.config.cost), 0);
    }
    Ok(())
}

// ----- pointer adjustment and compaction ---------------------------------------

/// One unit of the tail over enumeration ranks `from..to`: pointer
/// adjustment (`AdjustChunk`) or the copy (`CompactChunk`). H1 copies and
/// slot rewrites carry the phase's mixed-collection discount (scaled); H2
/// promotion copies and NVM penalties are always paid in full (flat). A
/// copy unit slides its dense-prefix ranks as one span.
fn tail_unit(
    heap: &mut Heap,
    cyc: &mut MajorCycle,
    kind: WorkUnitKind,
    mut from: usize,
    to: usize,
) {
    let copy = kind == WorkUnitKind::CompactChunk;
    let clock = heap.clock.clone();
    let lane = cyc.sched.begin_unit(&clock, kind);
    let mut uw = Work::default();
    let mut h1_words: u64 = 0;
    if copy && from < cyc.plan.prefix_len {
        let dense = from..to.min(cyc.plan.prefix_len);
        from = dense.end;
        h1_words += units::slide_dense(heap, cyc, dense, &mut uw);
    }
    for (idx, src) in (from..to).zip(cyc.live.sources_from(from)) {
        cyc.sched.claim(DOM_OBJECT | src);
        let dest = cyc.live.dest(idx);
        if copy {
            let old_base = cyc.plan.old_base;
            units::move_object(heap, &mut cyc.stash, old_base, src, dest, &mut uw, &mut h1_words);
        } else {
            units::adjust_object(heap, cyc, src, dest, &mut uw);
        }
    }
    let cost = &heap.config.cost;
    let scaled = h1_words * cost.gc_copy_word_ns + uw.adjusted_refs * cost.gc_adjust_ref_ns;
    let flat = (uw.copied_words - h1_words) * cost.gc_copy_word_ns + uw.extra_ns;
    cyc.sched.end_unit(&clock, lane, kind, scaled, flat);
}

/// Pointer adjustment: the H2 cards scanned during marking get their
/// post-compaction states, every live object's slots are rewritten, the
/// backward references are fixed through the device and the roots follow
/// their objects.
fn adjust(heap: &mut Heap, cyc: &mut MajorCycle) {
    roll_to(heap, cyc, "major:precompact", GcPhase::Adjust);
    // Mixed-collection discount: G1 only adjusts and copies the regions it
    // collects.
    let placed = cyc.plan.new_top - cyc.plan.old_base;
    cyc.sched.set_milli(units::g1_moved_fraction_milli(heap, &cyc.plan.g1_region_live, placed));
    // After this GC every H1 survivor is in the old generation.
    if let Some(h2) = heap.h2.as_mut() {
        for &(card, has_backward) in &cyc.mark.scanned_cards {
            let state = if has_backward { CardState::OldGen } else { CardState::Clean };
            h2.cards_mut().set_state(card, state);
        }
    }
    let total = cyc.live.len();
    cyc.declare_live();
    for from in (0..total).step_by(OBJECT_CHUNK) {
        let to = (from + OBJECT_CHUNK).min(total);
        tail_unit(heap, cyc, WorkUnitKind::AdjustChunk, from, to);
    }
    // In device order, each slot once.
    let mut slots: Vec<u64> = cyc.mark.backward_slots.iter().map(|a| a.raw()).collect();
    slots.sort_unstable();
    slots.dedup();
    for chunk in slots.chunks(GRAY_PACKET) {
        run_unit(heap, cyc, WorkUnitKind::BackwardFix, |heap, cyc, uw| {
            units::backward_fix(heap, cyc, chunk, uw)
        });
    }
    // Roots follow their objects (uncosted: a handful of slot rewrites).
    for root in heap.roots.iter_mut().filter(|a| a.is_h1()) {
        if let Some(d) = cyc.live.get(root.raw()) {
            *root = Addr::new(d);
        }
    }
    // H1 cards restart from empty: every survivor ends in the old
    // generation, so no old→young reference is left.
    heap.h1_cards.clear_all();
    roll_to(heap, cyc, "major:adjust", GcPhase::Compact);
    cyc.declare_live();
}

/// Compaction: every live object moves to its destination,
/// [`OBJECT_CHUNK`] ranks per unit.
fn compact(heap: &mut Heap, cyc: &mut MajorCycle) {
    let total = cyc.live.len();
    for from in (0..total).step_by(OBJECT_CHUNK) {
        let to = (from + OBJECT_CHUNK).min(total);
        tail_unit(heap, cyc, WorkUnitKind::CompactChunk, from, to);
    }
}

/// Retires the cycle: restore the old-generation start index, reset spaces,
/// update the transfer policy's pressure state from what is left in H1
/// (§3.2). The final promotion flush (which also sorts H2's start lists),
/// barrier and `GcEnd` follow in [`major_gc`].
fn retire(heap: &mut Heap, cyc: &mut MajorCycle) {
    cyc.stash.flush(&mut heap.mem);
    heap.old.set_top(Addr::new(cyc.plan.new_top));
    // The dense prefix keeps its entries and the planned rest replaces the
    // others. The list is untouched until here, so a plan aborted at an
    // OOM leaves it valid. It is then cut to its length, as a fresh list
    // would be: pages a longer list once touched would stay resident.
    heap.old_starts.truncate(cyc.plan.prefix_len);
    heap.old_starts.append(&mut cyc.plan.new_old_starts);
    heap.old_starts.shrink_to_fit();
    note_retiring(heap, cyc);
    heap.eden.reset();
    heap.from.reset();
    heap.to.reset();
    if let Some(h2) = heap.h2.as_mut() {
        let live = cyc.plan.new_top - cyc.plan.old_base;
        h2.policy_mut().note_major_gc_end(live, heap.old.capacity_words() as u64);
    }
}

/// Whether the oracle test has switched the dense prefix off (`k = 0`).
#[cfg(not(test))]
fn per_object_oracle() -> bool {
    false
}

/// What the oracle test records of a retiring cycle.
#[cfg(not(test))]
fn note_retiring(_: &Heap, _: &MajorCycle) {}

#[cfg(test)]
mod dense_oracle;
#[cfg(test)]
use dense_oracle::{note_retiring, per_object_oracle};
