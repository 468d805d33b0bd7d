//! Minor (young-generation) collection: a copying scavenge in the Parallel
//! Scavenge mould, extended per §4 with (1) a reference range check that
//! fences the collector from following references into H2 and (2) an H2
//! card-table scan that finds backward (H2→H1) references, treats their
//! young targets as roots and rewrites the slots to the new locations.
//!
//! The scavenge is decomposed into schedulable work units (DESIGN.md §11)
//! across three phase barriers: root strips + dirty H1 card stripes, the H2
//! backward-reference scan (its own barrier so Figure 11a's
//! `h2_minor_scan_ns` window captures exactly that phase), and the
//! transitive-copy packet drain. Units run in one fixed serial order; only
//! the CPU accounting is laned.

use super::schedule::{
    Scheduler, DOM_H1_CARD, DOM_H2_CARD, GRAY_PACKET, H1_CARD_STRIPE, H2_CARD_CHUNK, H2_WALK_CHUNK,
    ROOT_STRIP,
};
use super::{first_overlapping, walk_h2_card, Work};
use crate::heap::Heap;
use crate::object;
use teraheap_core::{Addr, CardState};
use teraheap_storage::obs::{CardTableKind, EventKind, GcCause, GcKind, WorkUnitKind};
use teraheap_storage::Category;

/// Minor GCs an object survives before tenuring to the old generation.
const TENURE_AGE: u8 = 2;

/// Runs a minor collection. The caller must have ensured the promotion
/// guarantee (old free ≥ young used); see [`Heap::gc_minor`].
pub(crate) fn minor_gc(heap: &mut Heap, cause: GcCause) {
    debug_assert!(!heap.in_gc, "re-entrant GC");
    heap.in_gc = true;
    // Survivors move and roots are rewritten: every pin is stale.
    heap.move_epoch += 1;
    let start_ns = heap.clock.total_ns();
    let old_before = heap.old.used_words();
    heap.clock.emit(EventKind::GcBegin {
        gc: GcKind::Minor,
        cause,
        old_used_words: old_before as u64,
    });
    let mut sched = Scheduler::new(
        heap.config.gc_threads,
        heap.config.cost.gc_barrier_sync_ns,
        heap.check_enabled,
    );
    let mut worklist = std::mem::take(&mut heap.gc_scratch.worklist);

    // Phase 1: scavenge roots (handle strips + dirty H1 cards).
    let clock = heap.clock.clone();
    for strip_base in (0..heap.roots.len()).step_by(ROOT_STRIP) {
        let lane = sched.begin_unit(&clock, WorkUnitKind::RootStrip);
        let mut uw = Work::default();
        let strip_end = (strip_base + ROOT_STRIP).min(heap.roots.len());
        for i in strip_base..strip_end {
            let a = heap.roots[i];
            if !a.is_null() {
                heap.roots[i] = evacuate(heap, a, &mut uw, &mut worklist);
            }
        }
        let cost = uw.cpu_ns(&heap.config.cost);
        sched.end_unit(&clock, lane, WorkUnitKind::RootStrip, cost, uw.extra_ns);
    }
    scan_h1_cards(heap, &mut sched, &mut worklist);
    heap.stats.lane_stall_ns += sched.barrier(&clock, Category::MinorGc, "minor:scavenge");

    // Phase 2: H2 backward-reference scan.
    // Charged between its own barriers so Figure 11a can report it: the
    // category delta below covers the in-phase device traffic plus this
    // phase's barrier advance and nothing else.
    let h2_scan_start = heap.clock.category_ns(Category::MinorGc);
    scan_h2_cards(heap, &mut sched, &mut worklist);
    heap.stats.lane_stall_ns += sched.barrier(&clock, Category::MinorGc, "minor:h2-scan");
    let h2_scan_ns = heap.clock.category_ns(Category::MinorGc) - h2_scan_start;
    heap.stats.h2_minor_scan_ns += h2_scan_ns;

    // Phase 3: transitive copy (Cheney-style packet drain).
    while !worklist.is_empty() {
        let lane = sched.begin_unit(&clock, WorkUnitKind::GrayPacket);
        let mut uw = Work::default();
        for _ in 0..GRAY_PACKET {
            match worklist.pop() {
                Some(obj) => scan_copied(heap, obj, &mut uw, &mut worklist),
                None => break,
            }
        }
        let cost = uw.cpu_ns(&heap.config.cost);
        sched.end_unit(&clock, lane, WorkUnitKind::GrayPacket, cost, uw.extra_ns);
    }

    // Flip spaces: eden and from are now garbage; to holds the survivors.
    heap.eden.reset();
    heap.from.reset();
    std::mem::swap(&mut heap.from, &mut heap.to);
    heap.stats.lane_stall_ns += sched.barrier(&clock, Category::MinorGc, "minor:drain");
    heap.gc_scratch.worklist = super::parked(worklist);

    let duration = heap.clock.total_ns() - start_ns;
    heap.stats.minor_count += 1;
    heap.stats.minor_ns += duration;
    heap.clock.emit(EventKind::GcEnd {
        gc: GcKind::Minor,
        old_used_words: heap.old.used_words() as u64,
        old_capacity_words: heap.old.capacity_words() as u64,
        promoted_h2_words: 0,
    });
    heap.in_gc = false;
    heap.maybe_heap_check("after minor GC");
}

/// Whether `addr` is in the collected young spaces (eden or from-space).
fn in_collected(heap: &Heap, addr: Addr) -> bool {
    heap.eden.contains(addr) || heap.from.contains(addr)
}

/// Copies (or forwards) the young object at `addr`, returning its new
/// location. Tenured objects go to the old generation.
fn copy_young(heap: &mut Heap, addr: Addr, work: &mut Work, worklist: &mut Vec<Addr>) -> Addr {
    debug_assert!(in_collected(heap, addr));
    let header = heap.mem[addr.raw() as usize];
    if object::is_forwarded(header) {
        return Addr::new(object::forwarded_to(header));
    }
    let size = object::size_of(header);
    let aged = object::with_incremented_age(header);
    let tenured = object::age_of(aged) >= TENURE_AGE;
    let dest = if tenured {
        heap.alloc_old(size)
    } else {
        heap.to.alloc(size).or_else(|| heap.alloc_old(size))
    }
    .expect("promotion guarantee violated: no space for survivor");
    let (src_i, dst_i) = (addr.raw() as usize, dest.raw() as usize);
    heap.mem.copy_within(src_i..src_i + size, dst_i);
    heap.mem[dst_i] = aged;
    heap.mem[src_i] = object::forwarding_header(dest.raw());
    work.objects += 1;
    work.copied_words += size as u64;
    work.extra_ns += heap.h1_price.premium(dest.raw(), size as u64);
    worklist.push(dest);
    dest
}

/// The scavenge step for one H1 reference target: copied (or forwarded)
/// when it lies in eden or from-space, returned unchanged otherwise.
#[inline]
fn evacuate(heap: &mut Heap, target: Addr, work: &mut Work, worklist: &mut Vec<Addr>) -> Addr {
    if in_collected(heap, target) {
        copy_young(heap, target, work, worklist)
    } else {
        target
    }
}

/// Scans the reference slots of a freshly copied object, copying its young
/// targets, fencing H2 targets, and dirtying H1 cards for any old→young
/// references it now holds.
fn scan_copied(heap: &mut Heap, obj: Addr, work: &mut Work, worklist: &mut Vec<Addr>) {
    let in_old = heap.old.contains(obj);
    let (first_slot, end_slot) = heap.ref_slot_range(obj);
    for s in first_slot..end_slot {
        let slot = Addr::new(s);
        work.refs += 1;
        let val = heap.mem[slot.raw() as usize];
        if val == 0 {
            continue;
        }
        let target = Addr::new(val);
        if target.is_h2() {
            // Reference range check: fenced, never followed (§4).
            continue;
        }
        let new_target = evacuate(heap, target, work, worklist);
        heap.mem[slot.raw() as usize] = new_target.raw();
        if in_old && heap.in_young(new_target) {
            heap.h1_cards.mark_dirty(slot);
        }
    }
}

/// Scans the dirty H1 cards for old→young references in stripes of
/// [`H1_CARD_STRIPE`] cards, each stripe one schedulable unit.
fn scan_h1_cards(heap: &mut Heap, sched: &mut Scheduler, worklist: &mut Vec<Addr>) {
    let clock = heap.clock.clone();
    let dirty = heap.h1_cards.dirty_cards();
    heap.clock.emit(EventKind::CardScan { table: CardTableKind::H1, cards: dirty.len() as u64 });
    for &card in &dirty {
        sched.declare(DOM_H1_CARD | card as u64);
    }
    let seg = heap.h1_cards.seg_words() as u64;
    // Snapshot the start index by moving it out: objects tenured *during*
    // this scan (`copy_young` → `alloc_old`) append to the now-empty heap
    // vector and are re-attached below — same snapshot semantics as a
    // clone, without copying the index every minor GC.
    let mut starts = std::mem::take(&mut heap.old_starts);
    for stripe in dirty.chunks(H1_CARD_STRIPE) {
        let lane = sched.begin_unit(&clock, WorkUnitKind::H1CardStripe);
        let mut uw = Work::default();
        for &card in stripe {
            sched.claim(DOM_H1_CARD | card as u64);
            uw.cards += 1;
            let base = heap.h1_cards.card_base(card).raw();
            let end = (base + seg).min(heap.old.top().raw());
            let mut any_young = false;
            if !starts.is_empty() {
                let mut i = first_overlapping(&starts, base);
                while i < starts.len() && starts[i] < end {
                    let obj = Addr::new(starts[i]);
                    let size = heap.object_size(obj) as u64;
                    if obj.raw() + size > base {
                        let (first_slot, end_slot) = heap.ref_slot_range_in(obj, base, end);
                        for s in first_slot..end_slot {
                            let slot = Addr::new(s);
                            uw.refs += 1;
                            let val = heap.mem[slot.raw() as usize];
                            if val == 0 {
                                continue;
                            }
                            let target = Addr::new(val);
                            if target.is_h2() {
                                continue;
                            }
                            let new_target = evacuate(heap, target, &mut uw, worklist);
                            heap.mem[slot.raw() as usize] = new_target.raw();
                            if heap.in_young(new_target) {
                                any_young = true;
                            }
                        }
                    }
                    i += 1;
                }
            }
            if !any_young {
                heap.h1_cards.clear(card);
            }
        }
        let cost = uw.cpu_ns(&heap.config.cost);
        sched.end_unit(&clock, lane, WorkUnitKind::H1CardStripe, cost, uw.extra_ns);
    }
    // Mid-scan tenured objects all sit above the snapshot (old is a bump
    // allocator), so appending keeps the index sorted.
    starts.append(&mut heap.old_starts);
    heap.old_starts = starts;
}

/// Scans the H2 card table for backward references (§3.4): minor GC walks
/// `Dirty` and `YoungGen` cards (`walk_h2_card`), copies referenced young
/// objects, has the walk rewrite the H2 slots and re-derives each card's
/// state.
///
/// Two unit populations: the full card-table walk (every entry examined,
/// the Figure 11a trade-off) striped arithmetically in [`H2_WALK_CHUNK`]
/// entries, and the non-clean cards found by it in chunks of
/// [`H2_CARD_CHUNK`].
fn scan_h2_cards(heap: &mut Heap, sched: &mut Scheduler, worklist: &mut Vec<Addr>) {
    let Some(h2) = heap.h2.as_mut() else {
        return;
    };
    let (cards, card_count) = (h2.cards_mut().minor_scan_cards(), h2.cards().card_count() as u64);
    let clock = heap.clock.clone();
    heap.stats.h2_cards_scanned_minor += cards.len() as u64;
    heap.clock
        .emit(EventKind::CardScan { table: CardTableKind::H2Minor, cards: cards.len() as u64 });
    // The card-table walk examines every entry; smaller segments mean a
    // larger table and a longer walk. The walk has no side effects, so its
    // units are striped arithmetically.
    let mut walked = 0;
    while walked < card_count {
        let run = H2_WALK_CHUNK.min(card_count - walked);
        let lane = sched.begin_unit(&clock, WorkUnitKind::H2CardChunk);
        let cost = run * heap.config.cost.gc_card_check_ns;
        sched.end_unit(&clock, lane, WorkUnitKind::H2CardChunk, cost, 0);
        walked += run;
    }
    for &card in &cards {
        sched.declare(DOM_H2_CARD | card as u64);
    }
    let mut slot_buf: Vec<u64> = Vec::new();
    for chunk in cards.chunks(H2_CARD_CHUNK) {
        let lane = sched.begin_unit(&clock, WorkUnitKind::H2CardChunk);
        let mut uw = Work::default();
        for &card in chunk {
            sched.claim(DOM_H2_CARD | card as u64);
            let (mut has_young, mut has_old) = (false, false);
            let cat = Category::MinorGc;
            walk_h2_card(heap, card, cat, &mut uw, &mut slot_buf, |heap, _, target, uw| {
                let new_target = evacuate(heap, target, uw, worklist);
                if heap.in_young(new_target) {
                    has_young = true;
                } else {
                    has_old = true;
                }
                new_target
            });
            let state = if has_young {
                CardState::YoungGen
            } else if has_old {
                CardState::OldGen
            } else {
                CardState::Clean
            };
            heap.attached_h2_mut().cards_mut().set_state(card, state);
        }
        let cost = uw.cpu_ns(&heap.config.cost);
        sched.end_unit(&clock, lane, WorkUnitKind::H2CardChunk, cost, uw.extra_ns);
    }
}
