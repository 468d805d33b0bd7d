//! The work-unit bodies of the major cycle ([`super::major`]): what one
//! root strip, H2 card chunk, gray packet, selection chunk, H2 assignment,
//! plan chunk, backward-fix chunk, object adjustment and object move *does*
//! to the heap and which work counters it bumps.
//!
//! Each body exists once. It is handed the range it covers and the
//! [`Work`] counters of the unit it runs in; it never dispatches, charges or
//! ends a unit, never advances a cycle cursor and never learns how the cycle
//! is being driven — whether a mutator runs between units is the drive
//! loop's business. Every §4 invariant lives here: marking fences at H1→H2
//! references and sets the region live bit instead of following them,
//! backward (H2→H1) references are found through the H2 card table only, and
//! every reference an object carries into H2 is re-derived into a dirty
//! card or a cross-region dependency before the object moves.

use super::major::MajorCycle;
use super::schedule::{DOM_H2_CARD, DOM_OBJECT, GRAY_PACKET};
use super::{first_overlapping, Work};
use crate::config::OomError;
use crate::heap::Heap;
use crate::object;
use std::ops::Range;
use teraheap_core::{Addr, CardState, Label, TransferPolicy};
use teraheap_storage::Category;

/// The major cycle's side table (DESIGN.md §7): one mark bit per H1 word,
/// which is at once the live set, its relocation order and the index of the
/// forwarding table.
///
/// Bit positions are *enumeration positions* — the old generation's words
/// first, then the young spaces' — so an ascending scan yields the relocation
/// enumeration (old then young, each in address order) with nothing sorted.
/// [`LiveMap::freeze`] counts the marks before every 64-bit block; from then
/// on `rank(src) = block_rank + popcount(bits below)` indexes `dests`, one
/// destination (H1, or H2 at `1 << 40` and up) per live object. 12 bytes per
/// 64 heap words plus 8 per live object, recycled across collections through
/// `Heap::mark_scratch` and all-zero between cycles.
#[derive(Debug, Default)]
pub(crate) struct LiveMap {
    old_base: u64,
    /// Words in the old generation = the position of the first young word.
    old_len: u64,
    bits: Vec<u64>,
    block_rank: Vec<u32>,
    dests: Vec<u64>,
}

/// A resumable ascending scan over a [`LiveMap`]'s marks.
pub(super) struct Cursor {
    block: usize,
    /// The block's marks not yet yielded.
    rest: u64,
}

impl LiveMap {
    /// Sizes a recycled (all-zero) map for `words` of H1 whose old
    /// generation starts at `old_base`.
    pub(super) fn recycled(mut self, old_base: u64, words: usize) -> Self {
        (self.old_base, self.old_len) = (old_base, words as u64 - old_base);
        self.bits.resize(words.div_ceil(64), 0);
        self
    }

    #[inline]
    fn pos(&self, addr: u64) -> u64 {
        if addr >= self.old_base {
            addr - self.old_base
        } else {
            addr + self.old_len
        }
    }

    /// Marks the object at `addr`; false if it already was.
    pub(crate) fn mark(&mut self, addr: u64) -> bool {
        let pos = self.pos(addr);
        let (word, bit) = (&mut self.bits[(pos >> 6) as usize], 1 << (pos & 63));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Whether `addr` is a marked object start (false outside H1).
    #[inline]
    pub(super) fn is_marked(&self, addr: u64) -> bool {
        let pos = self.pos(addr);
        addr < self.old_base + self.old_len && self.bits[(pos >> 6) as usize] >> (pos & 63) & 1 != 0
    }

    /// Freezes the live set: ranks every block and sizes `dests`. Returns
    /// the number of live objects.
    pub(super) fn freeze(&mut self) -> usize {
        let mut live = 0;
        self.block_rank.clear();
        self.block_rank.extend(self.bits.iter().map(|w| {
            let before = live;
            live += w.count_ones();
            before
        }));
        self.dests.resize(live as usize, 0);
        live as usize
    }

    /// Live objects in the frozen set (0 until frozen).
    pub(super) fn len(&self) -> usize {
        self.dests.len()
    }

    /// Marks below position `pos`.
    #[inline]
    fn marks_below(&self, pos: u64) -> usize {
        let block = (pos >> 6) as usize;
        let below = self.bits[block] & !(!0 << (pos & 63));
        self.block_rank[block] as usize + below.count_ones() as usize
    }

    /// Frozen live objects in the old generation (the rest are young).
    pub(super) fn old_live(&self) -> usize {
        self.marks_below(self.old_len)
    }

    /// The enumeration rank of the live object at `src`.
    pub(super) fn rank(&self, src: u64) -> usize {
        self.marks_below(self.pos(src))
    }

    /// Where the object at `src` goes; `None` unless `src` is live.
    #[inline]
    pub(super) fn get(&self, src: u64) -> Option<u64> {
        self.is_marked(src).then(|| self.dests[self.rank(src)])
    }

    /// The destination of the live object at enumeration rank `rank`.
    pub(super) fn dest(&self, rank: usize) -> u64 {
        debug_assert_ne!(self.dests[rank], 0, "live object without a destination");
        self.dests[rank]
    }

    /// Sets it; every live object's destination is set exactly once.
    pub(super) fn set_dest(&mut self, rank: usize, dest: u64) {
        debug_assert_eq!(self.dests[rank], 0, "duplicate forwarding source");
        self.dests[rank] = dest;
    }

    /// A scan whose first [`LiveMap::next`] is the live object at `rank`
    /// (frozen, `rank < len()`).
    pub(super) fn cursor(&self, rank: usize) -> Cursor {
        let block = self.block_rank.partition_point(|&r| r as usize <= rank) - 1;
        let mut rest = self.bits[block];
        for _ in self.block_rank[block] as usize..rank {
            rest &= rest - 1;
        }
        Cursor { block, rest }
    }

    /// The next marked address in enumeration order, `None` past the last.
    pub(super) fn next(&self, cur: &mut Cursor) -> Option<u64> {
        while cur.rest == 0 {
            cur.block += 1;
            cur.rest = *self.bits.get(cur.block)?;
        }
        let pos = (cur.block as u64) << 6 | cur.rest.trailing_zeros() as u64;
        cur.rest &= cur.rest - 1;
        Some(if pos < self.old_len { pos + self.old_base } else { pos - self.old_len })
    }

    /// Every marked address in enumeration order (frozen or not).
    pub(crate) fn sources(&self) -> impl Iterator<Item = u64> + '_ {
        let mut cur = Cursor { block: 0, rest: self.bits.first().copied().unwrap_or(0) };
        std::iter::from_fn(move || self.next(&mut cur))
    }

    /// Clears every mark and hands the all-zero map back for the next cycle.
    pub(super) fn reset(mut self) -> Self {
        self.bits.fill(0);
        self.dests.clear();
        self
    }
}

fn mark_push(heap: &Heap, addr: Addr, stack: &mut Vec<Addr>, live: &mut LiveMap, work: &mut Work) {
    debug_assert!(addr.is_h1());
    work.objects += 1;
    work.extra_ns += heap.h1_word_extra_ns(addr);
    if live.mark(addr.raw()) {
        stack.push(addr);
    }
}

// ----- marking ---------------------------------------------------------------

/// Root strip: marks the H1 targets of `roots[range]`.
pub(super) fn root_strip(
    heap: &mut Heap,
    cyc: &mut MajorCycle,
    range: Range<usize>,
    uw: &mut Work,
) {
    for i in range {
        let a = heap.roots[i];
        if a.is_h1() {
            mark_push(heap, a, &mut cyc.mark.stack, &mut cyc.live, uw);
        } else if a.is_h2() {
            // A handle (thread-stack root) referencing H2 directly keeps the
            // region alive, exactly like an H1→H2 forward reference.
            heap.h2.as_mut().expect("H2 root without H2").note_forward_ref(a);
        }
    }
}

/// H2 card chunk: scans the non-clean cards `cards[range]` for backward
/// references. Their H1 targets are GC roots (must stay live) and the slots
/// are collected for the backward fix; H2→H2 references a mutator created
/// after the move become cross-region dependencies the allocator could not
/// have seen. H2 objects are found through the DRAM-side start index and
/// read through the charged device path — the only H2 words a major GC
/// ever touches.
pub(super) fn h2_card_chunk(
    heap: &mut Heap,
    cyc: &mut MajorCycle,
    range: Range<usize>,
    uw: &mut Work,
) {
    let seg_words = heap.h2.as_ref().unwrap().cards().seg_words() as u64;
    let region_words = heap.h2.as_ref().unwrap().regions().region_words() as u64;
    for ci in range {
        let card = cyc.mark.cards[ci];
        cyc.sched.claim(DOM_H2_CARD | card as u64);
        uw.cards += 1;
        let base = heap.h2.as_ref().unwrap().cards().card_base(card);
        let region = (base.h2_offset() / region_words) as usize;
        let (lo, hi) = (base.raw(), base.raw() + seg_words);
        // Held out of the heap while the walk borrows it mutably; empty for
        // a region freed since the card was dirtied.
        let starts = std::mem::take(&mut heap.h2_starts[region]);
        let mut has_backward = false;
        let mut i = first_overlapping(&starts, lo);
        while i < starts.len() && starts[i] < hi {
            let obj = Addr::new(starts[i]);
            i += 1;
            let header = heap.h2.as_mut().unwrap().read_word(obj, Category::MajorGc);
            uw.objects += 1;
            if obj.raw() + object::size_of(header) as u64 <= lo {
                continue;
            }
            // The slot walk never writes the mapping (marking touches H1
            // memory only), so the object's slot range is one bulk read. The
            // clamped range can be empty (inverted) for objects whose ref
            // slots all fall outside the card.
            let (first_slot, end_slot) = heap.ref_slot_range_in(obj, lo, hi);
            cyc.mark.slot_buf.resize(end_slot.saturating_sub(first_slot) as usize, 0);
            heap.h2.as_mut().unwrap().read_words(
                Addr::new(first_slot),
                &mut cyc.mark.slot_buf,
                Category::MajorGc,
            );
            for j in 0..cyc.mark.slot_buf.len() {
                let val = cyc.mark.slot_buf[j];
                uw.refs += 1;
                if val == 0 {
                    continue;
                }
                if Addr::new(val).is_h2() {
                    heap.note_h2_dependency(obj, Addr::new(val));
                    continue;
                }
                has_backward = true;
                heap.stats.backward_refs_seen += 1;
                cyc.mark.backward_slots.push(Addr::new(first_slot + j as u64));
                mark_push(heap, Addr::new(val), &mut cyc.mark.stack, &mut cyc.live, uw);
            }
        }
        cyc.mark.scanned_cards.push((card, has_backward));
        heap.h2_starts[region] = starts;
    }
}

/// Gray packet: re-grays what the SATB barrier remembered since the last
/// packet, then scans up to [`GRAY_PACKET`] gray objects.
pub(super) fn gray_packet(heap: &mut Heap, cyc: &mut MajorCycle, uw: &mut Work) {
    while let Some(a) = cyc.mutator.remembered.pop() {
        mark_push(heap, Addr::new(a), &mut cyc.mark.stack, &mut cyc.live, uw);
    }
    for _ in 0..GRAY_PACKET {
        let Some(obj) = cyc.mark.stack.pop() else {
            break;
        };
        cyc.mark.live_words += heap.object_size(obj) as u64;
        let (first_slot, end_slot) = heap.ref_slot_range(obj);
        for s in first_slot..end_slot {
            uw.refs += 1;
            let val = heap.mem[s as usize];
            if val == 0 {
                continue;
            }
            let target = Addr::new(val);
            if target.is_h2() {
                // Fence: set the region live bit instead of following (§4).
                heap.h2.as_mut().expect("H2 ref without H2").note_forward_ref(target);
                heap.stats.forward_refs_fenced += 1;
                continue;
            }
            mark_push(heap, target, &mut cyc.mark.stack, &mut cyc.live, uw);
        }
    }
}

// ----- candidate selection -----------------------------------------------------

/// Resumable candidate selection (marking task 4): which tagged root
/// key-objects move (hint or pressure, §3.2), honouring the low-threshold
/// budget, and how far the current closure walk has got. All policy
/// decisions are snapshotted when selection begins.
pub(super) struct SelState {
    /// `(label, root, requested)`, oldest label first.
    groups: Vec<(u64, u64, bool)>,
    gi: usize,
    /// In-progress closure traversal of the current group.
    stack: Vec<Addr>,
    cur_label: u64,
    /// The current group draws down the pressure budget (not requested).
    cur_counts: bool,
    cur_words: u64,
    in_group: bool,
    pressure: bool,
    hints: bool,
    newest_label: u64,
    pressure_budget: Option<u64>,
    moved_words: u64,
    /// `live_words` frozen at selection start.
    live_words: u64,
    deferred: Vec<(u64, u64)>,
    deferred_mode: bool,
}

impl SelState {
    /// Whether no tagged group is live (nothing can be selected).
    pub(super) fn is_idle(&self) -> bool {
        self.groups.is_empty()
    }
}

/// Snapshots the selection policy at mark termination: tagged groups oldest
/// label first (so the low threshold moves the oldest, most likely immutable
/// groups and leaves recently tagged ones in H1), each group's `h2_move`
/// request, and the pressure path. Besides the end-of-previous-GC pressure
/// flag (§3.2), pressure also arms when the live data *measured by this
/// marking* already exceeds the high threshold — the same occupancy test
/// the paper applies at GC end, evaluated one GC earlier so the move cannot
/// arrive after the heap has overflowed. `None` without an H2. A degraded
/// H2 (injected ENOSPC or a write-retry budget exhausted) selects nothing:
/// promotions park in the old generation — the paper's no-H2 baseline —
/// for the rest of the run.
pub(super) fn begin_select(heap: &Heap, live_words: u64, live: &LiveMap) -> Option<SelState> {
    let h2 = heap.h2.as_ref()?;
    let mut tagged: Vec<(u64, u64)> = Vec::new();
    if !h2.is_degraded() {
        tagged.extend(
            live.sources().map(|a| (heap.mem[a as usize + 1], a)).filter(|&(label, _)| label != 0),
        );
        tagged.sort_unstable();
    }
    let policy = h2.policy();
    let capacity = heap.old.capacity_words() as u64;
    let high = TransferPolicy::HIGH;
    let pressure = policy.under_pressure() || live_words as f64 > high * capacity as f64;
    Some(SelState {
        gi: 0,
        stack: Vec::new(),
        cur_label: 0,
        cur_counts: false,
        cur_words: 0,
        in_group: false,
        pressure,
        hints: policy.hints_enabled(),
        // With hints enabled, the newest tagged group has most likely not
        // seen its h2_move yet (it is still mutable — e.g. Giraph's current
        // message store); the pressure path defers it *unless moving every
        // older group still leaves the heap overflowing* (§3.2: the hint
        // exists precisely to avoid device read-modify-writes on groups
        // moved while mutable). Without hints everything marked moves.
        newest_label: tagged.last().map(|&(l, _)| l).unwrap_or(0),
        pressure_budget: if pressure {
            policy.pressure_budget_words(live_words, capacity)
        } else {
            None
        },
        moved_words: 0,
        live_words,
        deferred: Vec::new(),
        deferred_mode: false,
        groups: tagged
            .into_iter()
            .map(|(l, r)| (l, r, policy.is_requested(Label::new(l))))
            .collect(),
    })
}

/// Selection chunk: resumes the in-progress closure (or advances the group
/// loop) until `limit` objects were tagged. Returns true once selection is
/// exhausted. Closure discovery order is the H2 placement order — each root
/// key-object's closure lands contiguously in its label's regions — so the
/// chain cannot be striped across lanes. A mutator running between chunks
/// can only unlink marked objects (they move anyway — floating garbage) or
/// link unmarked late allocations (clamped out by the mark check in
/// [`tag_closure_step`]).
pub(super) fn select_chunk(
    heap: &mut Heap,
    sel: &mut SelState,
    live: &LiveMap,
    move_order: &mut Vec<u64>,
    limit: usize,
    uw: &mut Work,
) -> bool {
    let mut budget = limit;
    while budget > 0 {
        if sel.stack.is_empty() {
            if sel.in_group {
                sel.in_group = false;
                sel.moved_words += sel.cur_words;
                if sel.cur_counts {
                    if let Some(b) = &mut sel.pressure_budget {
                        *b = b.saturating_sub(sel.cur_words);
                    }
                }
                sel.cur_words = 0;
            }
            // Group gating: an uncharged policy scan.
            let started = loop {
                if sel.gi >= sel.groups.len() {
                    if !sel.deferred_mode {
                        // Take the deferred (mutable) group only when
                        // survival demands it, against the live words
                        // frozen at selection start.
                        sel.deferred_mode = true;
                        sel.gi = 0;
                        let remaining = sel.live_words.saturating_sub(sel.moved_words);
                        sel.groups = if remaining as f64 > 0.95 * heap.old.capacity_words() as f64 {
                            let deferred = std::mem::take(&mut sel.deferred);
                            deferred.into_iter().map(|(l, r)| (l, r, true)).collect()
                        } else {
                            Vec::new()
                        };
                        continue;
                    }
                    break false;
                }
                let (label_id, root, requested) = sel.groups[sel.gi];
                sel.gi += 1;
                if !sel.deferred_mode && !requested {
                    if !sel.pressure {
                        continue;
                    }
                    if sel.hints && label_id == sel.newest_label {
                        sel.deferred.push((label_id, root));
                        continue;
                    }
                    if sel.pressure_budget == Some(0) {
                        continue;
                    }
                }
                sel.stack.push(Addr::new(root));
                sel.cur_label = label_id;
                sel.cur_counts = !requested;
                sel.in_group = true;
                break true;
            };
            if !started {
                return true;
            }
        }
        let before = move_order.len();
        sel.cur_words += tag_closure_step(
            heap,
            live,
            &mut sel.stack,
            Label::new(sel.cur_label),
            uw,
            move_order,
            budget,
        );
        budget -= move_order.len() - before;
    }
    false
}

/// One bounded step of a closure tagging: pops from `stack` until `limit`
/// objects were tagged or the stack drains, tagging each with `label` and
/// the candidate bit and excluding JVM-metadata and `Reference`-kind
/// objects (§3.2). Returns the words tagged.
fn tag_closure_step(
    heap: &mut Heap,
    live: &LiveMap,
    stack: &mut Vec<Addr>,
    label: Label,
    work: &mut Work,
    move_order: &mut Vec<u64>,
    limit: usize,
) -> u64 {
    let mut words = 0u64;
    let mut tagged = 0usize;
    while tagged < limit {
        let Some(obj) = stack.pop() else { break };
        if !obj.is_h1() {
            continue;
        }
        let header = heap.mem[obj.raw() as usize];
        if object::is_candidate(header) {
            continue;
        }
        // Only marked (SATB-live) objects join the closure. With no mutator
        // between marking and selection every reachable object is marked;
        // an interleaving mutator can link objects allocated *after* mark
        // termination into a tagged group — those are outside the frozen
        // relocation enumeration and must not be assigned H2 addresses this
        // cycle.
        if !live.is_marked(obj.raw()) {
            continue;
        }
        let desc = heap.classes.get(object::class_of(header));
        if desc.is_reference_kind || desc.is_metadata {
            continue;
        }
        heap.mem[obj.raw() as usize] = object::with_candidate(header);
        heap.mem[obj.raw() as usize + 1] = label.id();
        move_order.push(obj.raw());
        words += object::size_of(header) as u64;
        work.objects += 1;
        tagged += 1;
        // Push in reverse so the LIFO pops children in field/element order:
        // the placement order then matches the mutator's forward traversal,
        // which is what makes H2 scans sequential on the device.
        let (first_slot, end_slot) = heap.ref_slot_range(obj);
        // Slice iteration instead of indexed loads: one bounds check for the
        // whole slot run of this (often large) transitive-move object.
        for &val in heap.mem[first_slot as usize..end_slot as usize].iter().rev() {
            if val != 0 && Addr::new(val).is_h1() {
                stack.push(Addr::new(val));
            }
        }
    }
    words
}

/// Sets every card of a freed H2 region back to clean.
pub(super) fn clear_region_cards(heap: &mut Heap, region: u32) {
    let h2 = heap.h2.as_mut().unwrap();
    let region_words = h2.regions().region_words();
    let seg_words = h2.cards().seg_words();
    let first_card = region as usize * region_words / seg_words;
    let cards_per_region = region_words / seg_words;
    for card in first_card..first_card + cards_per_region {
        h2.cards_mut().set_state(card, CardState::Clean);
    }
}

// ----- pre-compaction ----------------------------------------------------------

/// H2 assignment chunk: bump-allocates H2 addresses for
/// `move_order[range]`, in closure-discovery order. The region bump
/// allocation is a cross-object dependency chain, so chunks resume in order
/// and are never striped; a mutator between chunks touches neither the H2
/// allocator nor the candidate bits. An object H2 cannot take — no free
/// region, or an injected ENOSPC, which `H2::alloc` reports the same way —
/// stays in H1 this cycle with its candidate bit cleared, while the rest of
/// its closure still moves (§4's no-H2 fallback, per object).
pub(super) fn h2_assign_chunk(
    heap: &mut Heap,
    cyc: &mut MajorCycle,
    range: Range<usize>,
    uw: &mut Work,
) {
    for &src in &cyc.plan.move_order[range] {
        let header = heap.mem[src as usize];
        if !object::is_candidate(header) {
            continue;
        }
        uw.objects += 1;
        let label = Label::new(heap.mem[src as usize + 1]);
        let h2 = heap.h2.as_mut().expect("candidate without H2");
        match h2.alloc(label, object::size_of(header)) {
            Ok(dest) => cyc.live.set_dest(cyc.live.rank(src), dest.raw()),
            Err(_) => heap.mem[src as usize] = object::without_candidate(header),
        }
    }
}

/// Plan chunk: assigns old-generation forwarding addresses to the
/// non-candidate objects at enumeration ranks `range` (candidates already
/// hold an H2 address; a failed H2 alloc cleared the bit), with G1
/// humongous footprint rounding and the per-G1-region live words the
/// mixed-collection cost model needs.
///
/// # Errors
///
/// Returns [`OomError`] when live data does not fit the old generation.
pub(super) fn plan_chunk(
    heap: &mut Heap,
    cyc: &mut MajorCycle,
    range: Range<usize>,
    uw: &mut Work,
) -> Result<(), OomError> {
    let mut cur = cyc.live.cursor(range.start);
    for idx in range {
        let src = cyc.live.next(&mut cur).expect("rank below the live count");
        cyc.sched.claim(DOM_OBJECT | src);
        let header = heap.mem[src as usize];
        if object::is_candidate(header) {
            continue;
        }
        let size = object::size_of(header);
        uw.objects += 1;
        let plan = &mut cyc.plan;
        if let Some(region_words) = heap.policy.g1_region_words {
            if src >= plan.old_base {
                let region = (src - plan.old_base) / region_words as u64;
                plan.g1_region_live[region as usize] += size as u64;
            }
        }
        let footprint = heap.g1_footprint(size);
        if plan.new_top + footprint as u64 > heap.old.limit().raw() {
            return Err(OomError {
                requested_words: size,
                context: format!(
                    "live data exceeds the old generation: {} live objects, \
                     {} words placed of {} capacity (old live {}, young live {})",
                    cyc.live.len(),
                    plan.new_top - plan.old_base,
                    heap.old.capacity_words(),
                    cyc.live.old_live(),
                    cyc.live.len() - cyc.live.old_live()
                ),
            });
        }
        if footprint > size {
            heap.stats.g1_humongous_waste_words += (footprint - size) as u64;
        }
        cyc.live.set_dest(idx, plan.new_top);
        plan.new_old_starts.push(plan.new_top);
        plan.new_top += footprint as u64;
    }
    Ok(())
}

/// The G1 mixed-collection moved-live fraction, in thousandths: live data
/// in the regions a garbage-first policy would actually collect, over total
/// live data. Non-G1 variants return 1000 (full compaction cost).
pub(super) fn g1_moved_fraction_milli(
    heap: &Heap,
    region_live: &[u64],
    total_live: u64,
) -> u64 {
    let Some(region_words) = heap.policy.g1_region_words else {
        return 1000;
    };
    if total_live == 0 {
        return 1000;
    }
    // Garbage per old region = capacity - live; collect the most-garbage
    // regions first until 90% of the garbage is reclaimed.
    // (garbage, live) pairs per old-generation G1 region holding a live
    // object start: a region none starts in is not a collection candidate
    // (with no such region at all, `total_garbage` is 0 below).
    let mut per_region: Vec<(u64, u64)> = region_live
        .iter()
        .filter(|&&l| l > 0)
        .map(|&l| ((region_words as u64).saturating_sub(l), l))
        .collect();
    per_region.sort_unstable_by_key(|r| std::cmp::Reverse(r.0));
    let total_garbage: u64 = per_region.iter().map(|(g, _)| g).sum();
    if total_garbage == 0 {
        return 1000;
    }
    let target = total_garbage * 9 / 10;
    let mut got = 0u64;
    let mut moved_live = 0u64;
    for (g, l) in per_region {
        if got >= target {
            break;
        }
        got += g;
        moved_live += l;
    }
    (moved_live * 1000 / total_live).clamp(1, 1000)
}

// ----- adjustment and compaction ---------------------------------------------

/// Backward-fix chunk: points the H2 `slots` that held backward references
/// at their targets' new H1 locations (device writes, charged to major GC).
pub(super) fn backward_fix(heap: &mut Heap, cyc: &MajorCycle, slots: &[u64], uw: &mut Work) {
    for &s in slots {
        let slot = Addr::new(s);
        let val = heap.h2.as_ref().unwrap().read_word_free(slot);
        if val == 0 || Addr::new(val).is_h2() {
            continue;
        }
        let new_val = cyc.live.get(val).unwrap_or(val);
        if new_val != val {
            heap.h2.as_mut().unwrap().write_word(slot, new_val, Category::MajorGc);
        }
        uw.adjusted_refs += 1;
    }
}

/// Pointer adjustment of the object at `src`, bound for `dest`: rewrites its
/// reference slots in place at the source and re-derives the destination's
/// card state from the final values. An object that stays put (`dest ==
/// src`, allocated after the live set froze) only has its slots rewritten.
pub(super) fn adjust_object(heap: &mut Heap, cyc: &MajorCycle, src: u64, dest: u64, uw: &mut Work) {
    let dest_addr = Addr::new(dest);
    let old_base = cyc.plan.old_base;
    let (first_slot, end_slot) = heap.ref_slot_range(Addr::new(src));
    for s in first_slot..end_slot {
        let val = heap.mem[s as usize];
        if val == 0 {
            continue;
        }
        uw.adjusted_refs += 1;
        uw.extra_ns += heap.h1_word_extra_ns(Addr::new(s));
        // H2 objects never move.
        let new_val = if Addr::new(val).is_h2() { val } else { cyc.live.get(val).unwrap_or(val) };
        heap.mem[s as usize] = new_val;
        let new_target = Addr::new(new_val);
        let dest_slot = Addr::new(dest + (s - src));
        if dest_addr.is_h2() {
            if new_target.is_h1() {
                // Newly created backward reference: dirty the H2 card of
                // the object's future location (§4).
                heap.h2.as_mut().unwrap().cards_mut().mark_dirty(dest_slot);
            } else {
                // Newly created cross-region reference (§4).
                heap.note_h2_dependency(dest_addr, new_target);
            }
        } else if dest >= old_base && new_val < old_base {
            // Old→young: the target was allocated after the live set froze
            // and stays in eden.
            heap.h1_cards.mark_dirty(dest_slot);
        }
    }
}

/// Deferred H1 copies: G1 humongous rounding can push a destination past
/// its source, so such copies wait in one growable arena until every source
/// has been read.
#[derive(Default)]
pub(super) struct Stash {
    words: Vec<u64>,
    /// `(dest, offset, len)` into `words`.
    meta: Vec<(u64, usize, usize)>,
}

impl Stash {
    /// Writes every deferred copy to its destination.
    pub(super) fn flush(&mut self, mem: &mut [u64]) {
        for (dest, off, len) in self.meta.drain(..) {
            mem[dest as usize..dest as usize + len].copy_from_slice(&self.words[off..off + len]);
        }
        self.words.clear();
    }
}

/// Moves the (already adjusted) object at `src` to `dest`: an H1 slide, or
/// a promotion-buffered H2 write that also indexes the object's start.
/// Adds the words that stayed in H1 to
/// `h1_words`; `uw.copied_words` counts both kinds.
pub(super) fn move_object(
    heap: &mut Heap,
    cyc: &mut MajorCycle,
    src: u64,
    dest: u64,
    uw: &mut Work,
    h1_words: &mut u64,
) {
    // Only an H2-bound object still carries a GC bit (plan_chunk skips
    // candidates); clear it before the object reaches its new home.
    let header = object::without_candidate(heap.mem[src as usize]);
    let size = object::size_of(header);
    uw.copied_words += size as u64;
    let (src_i, src_end) = (src as usize, src as usize + size);
    let dest_addr = Addr::new(dest);
    if dest_addr.is_h2() {
        heap.mem[src as usize] = header;
        // Split-field borrow: stream the object out of `mem` straight into
        // the promotion buffer, no intermediate copy.
        let region = {
            let Heap { mem, h2, .. } = &mut *heap;
            let h2 = h2.as_mut().unwrap();
            h2.write_promoted(dest_addr, &mem[src_i..src_end], Category::MajorGc);
            h2.regions().region_of(dest_addr)
        };
        heap.h2_starts[region.0 as usize].push(dest);
        if cyc.reloc.promoted_regions.last() != Some(&region.0) {
            cyc.reloc.promoted_regions.push(region.0);
        }
        heap.stats.objects_promoted_h2 += 1;
        cyc.reloc.staged_words += size as u64;
        return;
    }
    *h1_words += size as u64;
    if dest <= src {
        // The already-compact prefix stays put: charged, not copied.
        if dest < src {
            heap.mem.copy_within(src_i..src_end, dest as usize);
        }
        uw.extra_ns += heap.h1_word_extra_ns(dest_addr) * size as u64;
    } else if src < cyc.plan.old_base {
        // Young → old evacuation: old sources were all read before the
        // first young one (enumeration order) and no destination lies in
        // the young spaces, so the copy cannot clobber an unread source.
        heap.mem.copy_within(src_i..src_end, dest as usize);
    } else {
        cyc.reloc.stash.words.extend_from_slice(&heap.mem[src_i..src_end]);
        cyc.reloc.stash.meta.push((dest, cyc.reloc.stash.words.len() - size, size));
    }
}

/// Uncharged full trace through both heaps recording per-H2-region live
/// object counts and words — the instrumentation behind Figure 10.
pub(super) fn record_h2_liveness(heap: &mut Heap) {
    let mut visited: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut stack: Vec<Addr> = heap.roots.iter().copied().filter(|a| !a.is_null()).collect();
    while let Some(obj) = stack.pop() {
        if !visited.insert(obj.raw()) {
            continue;
        }
        if obj.is_h2() {
            let size = object::size_of(heap.word(obj));
            heap.h2.as_mut().unwrap().regions_mut().record_live_object(obj, size);
        }
        // `ref_slot_range` and `word` read H2 through the uncharged path,
        // matching this statistics pass.
        let (first_slot, end_slot) = heap.ref_slot_range(obj);
        for s in first_slot..end_slot {
            let val = heap.word(Addr::new(s));
            if val != 0 {
                stack.push(Addr::new(val));
            }
        }
    }
}

#[cfg(test)]
mod reference;
