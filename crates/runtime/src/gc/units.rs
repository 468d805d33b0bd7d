//! The work-unit bodies of the major cycle ([`super::major`]): what one
//! root strip, H2 card chunk, gray packet, candidate selection, H2
//! assignment, plan chunk, backward-fix chunk, object adjustment, object
//! move and dense-prefix slide *does* to the heap and which work counters
//! it bumps.
//!
//! Each body exists once. It is handed the range it covers and the
//! [`Work`] counters of the unit it runs in; it never dispatches, charges or
//! ends a unit. Every §4 invariant lives here: marking fences at H1→H2
//! references and sets the region live bit instead of following them,
//! backward (H2→H1) references are found through the H2 card table only, and
//! every reference an object carries into H2 is re-derived into a dirty
//! card or a cross-region dependency before the object moves.

use super::major::{MajorCycle, PlanState};
use super::schedule::{Scheduler, DOM_H2_CARD, DOM_OBJECT, GRAY_PACKET};
use super::{parked, walk_h2_card, Work};
use crate::config::OomError;
use crate::heap::Heap;
use crate::object;
use std::ops::Range;
use teraheap_core::{Addr, Label, TransferPolicy};
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
/// 64 heap words plus 8 per live object, recycled across collections in the
/// heap's cycle scratch and all-zero between cycles.
#[derive(Debug, Default)]
pub(crate) struct LiveMap {
    old_base: u64,
    /// Words in the old generation = the position of the first young word.
    old_len: u64,
    bits: Vec<u64>,
    block_rank: Vec<u32>,
    dests: Vec<u64>,
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

    /// Sets the destinations of the ranks from `rank` on to `dests`.
    fn set_dests(&mut self, rank: usize, dests: &[u64]) {
        let slots = &mut self.dests[rank..rank + dests.len()];
        debug_assert!(slots.iter().all(|&d| d == 0), "duplicate forwarding source");
        slots.copy_from_slice(dests);
    }

    /// Every frozen rank's destination, in rank order.
    #[cfg(test)]
    pub(super) fn all_dests(&self) -> &[u64] {
        &self.dests
    }

    /// Every marked address in enumeration order (frozen or not).
    pub(crate) fn sources(&self) -> impl Iterator<Item = u64> + '_ {
        scan(&self.bits, self.old_base, self.old_len, 0, 0)
    }

    /// The frozen live objects in enumeration order from rank `rank` on.
    pub(super) fn sources_from(&self, rank: usize) -> impl Iterator<Item = u64> + '_ {
        let (block, skip) = self.locate(rank);
        scan(&self.bits, self.old_base, self.old_len, block, skip)
    }

    /// [`LiveMap::sources_from`], each with the destination slot it sets.
    pub(super) fn dests_from(&mut self, rank: usize) -> impl Iterator<Item = (u64, &mut u64)> {
        let (block, skip) = self.locate(rank);
        scan(&self.bits, self.old_base, self.old_len, block, skip).zip(&mut self.dests[rank..])
    }

    /// The block holding frozen rank `rank` and the marks before it there.
    fn locate(&self, rank: usize) -> (usize, usize) {
        let block = self.block_rank.partition_point(|&r| r as usize <= rank) - 1;
        (block, rank - self.block_rank[block] as usize)
    }

    /// Clears every mark and hands the all-zero map back for the next cycle.
    pub(super) fn reset(mut self) -> Self {
        self.bits.fill(0);
        self.dests.clear();
        self
    }
}

/// The marks of `bits` as addresses in enumeration order, from the `skip`-th
/// mark of block `block` on.
fn scan(
    bits: &[u64],
    old_base: u64,
    old_len: u64,
    mut block: usize,
    skip: usize,
) -> impl Iterator<Item = u64> + '_ {
    let mut rest = bits.get(block).copied().unwrap_or(0);
    for _ in 0..skip {
        rest &= rest - 1;
    }
    std::iter::from_fn(move || {
        while rest == 0 {
            block += 1;
            rest = *bits.get(block)?;
        }
        let pos = (block as u64) << 6 | rest.trailing_zeros() as u64;
        rest &= rest - 1;
        Some(if pos < old_len { pos + old_base } else { pos - old_len })
    })
}

fn mark_push(heap: &Heap, addr: Addr, stack: &mut Vec<Addr>, live: &mut LiveMap, work: &mut Work) {
    debug_assert!(addr.is_h1());
    work.objects += 1;
    work.extra_ns += heap.h1_price.premium(addr.raw(), 1);
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
            heap.attached_h2_mut().note_forward_ref(a);
        }
    }
}

/// H2 card chunk: walks the non-clean cards `cards[range]`
/// (`walk_h2_card`) for backward references. Their H1 targets are GC roots
/// (must stay live) and the slots are collected for the backward fix; the
/// walk turns H2→H2 references a mutator created after the move into
/// cross-region dependencies the allocator could not have seen. These are
/// the only H2 words a major GC ever reads.
pub(super) fn h2_card_chunk(
    heap: &mut Heap,
    cyc: &mut MajorCycle,
    range: Range<usize>,
    uw: &mut Work,
) {
    for ci in range {
        let card = cyc.mark.cards[ci];
        cyc.sched.claim(DOM_H2_CARD | card as u64);
        uw.cards += 1;
        let mut has_backward = false;
        let buf = &mut cyc.mark.slot_buf;
        walk_h2_card(heap, card, Category::MajorGc, uw, buf, |heap, slot, target, uw| {
            has_backward = true;
            cyc.mark.backward_slots.push(slot);
            mark_push(heap, target, &mut cyc.mark.stack, &mut cyc.live, uw);
            target
        });
        cyc.mark.scanned_cards.push((card, has_backward));
    }
}

/// Gray packet: scans up to [`GRAY_PACKET`] gray objects.
pub(super) fn gray_packet(heap: &mut Heap, cyc: &mut MajorCycle, uw: &mut Work) {
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
                heap.attached_h2_mut().note_forward_ref(target);
                heap.stats.forward_refs_fenced += 1;
                continue;
            }
            mark_push(heap, target, &mut cyc.mark.stack, &mut cyc.live, uw);
        }
    }
}

// ----- candidate selection -----------------------------------------------------

/// The buffers candidate selection grows, kept between cycles.
#[derive(Default)]
pub(super) struct SelBuffers {
    /// `(label, root, requested)` per tagged live object, oldest label first.
    groups: Vec<(u64, u64, bool)>,
    /// The closure walk's stack.
    stack: Vec<Addr>,
    /// The newest group's roots, set aside under pressure.
    deferred: Vec<u64>,
}

impl SelBuffers {
    /// These buffers, emptied.
    pub(super) fn emptied(self) -> SelBuffers {
        SelBuffers {
            groups: parked(self.groups),
            stack: parked(self.stack),
            deferred: parked(self.deferred),
        }
    }
}

/// Candidate selection (marking task 4): which tagged root key-objects move
/// to H2 (§3.2), one serial unit, since closure discovery order is the H2
/// placement order. Groups go oldest label first, so the low threshold moves
/// the oldest, most likely immutable groups and leaves recently tagged ones
/// in H1. A group moves when `h2_move` requested it, or under pressure until
/// the low threshold's budget is spent. Besides the end-of-previous-GC
/// pressure flag, pressure arms when the live data *measured by this
/// marking* exceeds the high threshold — the paper's GC-end occupancy test
/// one GC earlier, so the move cannot arrive after the heap has overflowed.
/// With hints enabled, the newest group has most likely not seen its
/// `h2_move` yet (it is still mutable — e.g. Giraph's current message
/// store): pressure sets its roots aside and moves them only if moving every
/// older group still leaves over 95% of the old generation live (the hint
/// exists to avoid device read-modify-writes on groups moved while mutable).
/// A degraded H2 (injected ENOSPC or a write-retry budget exhausted) selects
/// nothing: promotions park in the old generation — the paper's no-H2
/// baseline — for the rest of the run.
pub(super) fn select(heap: &mut Heap, cyc: &mut MajorCycle, work: &mut Work) {
    let h2 = heap.attached_h2();
    if h2.is_degraded() {
        return;
    }
    let MajorCycle { live, mark, plan, sel, .. } = cyc;
    let policy = h2.policy();
    sel.groups.extend(live.sources().filter_map(|root| {
        let label = heap.mem[root as usize + 1];
        (label != 0).then(|| (label, root, policy.is_requested(Label::new(label))))
    }));
    sel.groups.sort_unstable();
    let capacity = heap.old.capacity_words() as u64;
    let pressure =
        policy.under_pressure() || mark.live_words as f64 > TransferPolicy::HIGH * capacity as f64;
    let mut budget =
        if pressure { policy.pressure_budget_words(mark.live_words, capacity) } else { None };
    let hints = policy.hints_enabled();
    let newest = sel.groups.last().map_or(0, |&(label, _, _)| label);
    let mut moved = 0;
    for &(label, root, requested) in &sel.groups {
        if !requested {
            if !pressure {
                continue;
            }
            if hints && label == newest {
                sel.deferred.push(root);
                continue;
            }
            if budget == Some(0) {
                continue;
            }
        }
        let words = closure(heap, live, &mut sel.stack, &mut plan.move_order, label, root, work);
        moved += words;
        if !requested {
            budget = budget.map(|b| b.saturating_sub(words));
        }
    }
    if mark.live_words.saturating_sub(moved) as f64 > 0.95 * capacity as f64 {
        for &root in &sel.deferred {
            closure(heap, live, &mut sel.stack, &mut plan.move_order, newest, root, work);
        }
    }
}

/// Walks the closure of `root` in H1, skipping what an earlier group took:
/// tags each object with `label` and the candidate bit and appends it to
/// `move_order`. Returns the words it tagged.
fn closure(
    heap: &mut Heap,
    live: &LiveMap,
    stack: &mut Vec<Addr>,
    move_order: &mut Vec<u64>,
    label: u64,
    root: u64,
    work: &mut Work,
) -> u64 {
    let mut words = 0;
    stack.push(Addr::new(root));
    while let Some(obj) = stack.pop() {
        if !obj.is_h1() {
            continue;
        }
        let header = heap.mem[obj.raw() as usize];
        if object::is_candidate(header) {
            continue;
        }
        // Marking traced every slot of every marked object.
        debug_assert!(live.is_marked(obj.raw()), "an unmarked object in a live closure");
        heap.mem[obj.raw() as usize] = object::with_candidate(header);
        heap.mem[obj.raw() as usize + 1] = label;
        move_order.push(obj.raw());
        words += object::size_of(header) as u64;
        work.objects += 1;
        // Push in reverse so the LIFO pops children in field/element order:
        // the placement order then matches the mutator's forward traversal,
        // which is what makes H2 scans sequential on the device. Slice
        // iteration: one bounds check for the whole slot run.
        let (first_slot, end_slot) = heap.ref_slot_range(obj);
        for &val in heap.mem[first_slot as usize..end_slot as usize].iter().rev() {
            if val != 0 && Addr::new(val).is_h1() {
                stack.push(Addr::new(val));
            }
        }
    }
    words
}

// ----- pre-compaction ----------------------------------------------------------

/// The dense prefix of a stop-world cycle, at mark termination: the number
/// `k` of leading `old_starts` entries that are marked and not H2
/// candidates, and where the last of them ends (`old_starts[k]`, or the old
/// generation's top). The old generation's footprints tile it from its base
/// (the heap checker verifies this), so the plan places each of these
/// objects at its own address and the object-by-object plan and slide
/// would only write `dest = src`. Under G1 the prefix also stops at the
/// first humongous object, so a span's words are its objects' words.
pub(super) fn dense_prefix(heap: &Heap, live: &LiveMap, move_order: &[u64]) -> (usize, u64) {
    let (starts, old_base) = (&heap.old_starts, heap.old.base().raw());
    // Old-generation marks sit on object starts only, so `starts[i]` is
    // marked with every entry before it exactly when it is marked at rank
    // `i`; that predicate holds on a prefix of the list.
    let (mut lo, mut hi) = (0, starts.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if live.is_marked(starts[mid]) && live.rank(starts[mid]) == mid {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let mut k = lo;
    if let Some(&first) = move_order.iter().filter(|&&a| a >= old_base).min() {
        k = k.min(starts.partition_point(|&s| s < first));
    }
    let end_of = |i: usize| starts.get(i).map_or(heap.old.top().raw(), |&s| s);
    if let Some(region_words) = heap.policy.g1_region_words {
        // Exactly a humongous object's footprint reaches half a region.
        k = (0..k).find(|&i| end_of(i + 1) - starts[i] >= (region_words / 2) as u64).unwrap_or(k);
    }
    (k, end_of(k))
}

/// H2 assignment: bump-allocates H2 addresses for `move_order`, in
/// closure-discovery order. The region bump allocation is a cross-object
/// dependency chain, so it is one unit, never striped. An object H2 cannot
/// take — no free region, or an injected ENOSPC, which `H2::alloc` reports
/// the same way — stays in H1 this cycle with its candidate bit cleared,
/// while the rest of its closure still moves (§4's no-H2 fallback, per
/// object).
pub(super) fn h2_assign(heap: &mut Heap, cyc: &mut MajorCycle, uw: &mut Work) {
    for &src in &cyc.plan.move_order {
        let header = heap.mem[src as usize];
        if !object::is_candidate(header) {
            continue;
        }
        uw.objects += 1;
        let label = Label::new(heap.mem[src as usize + 1]);
        match heap.attached_h2_mut().alloc(label, object::size_of(header)) {
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
    let dense = range.start..range.end.min(cyc.plan.prefix_len);
    if !dense.is_empty() {
        plan_dense(heap, cyc, dense.clone(), uw);
    }
    let range = range.start.max(dense.end)..range.end;
    let (live, old_live) = (cyc.live.len(), cyc.live.old_live());
    for (src, dest) in cyc.live.dests_from(range.start).take(range.len()) {
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
                    live,
                    plan.new_top - plan.old_base,
                    heap.old.capacity_words(),
                    old_live,
                    live - old_live
                ),
            });
        }
        debug_assert_eq!(*dest, 0, "duplicate forwarding source");
        *dest = plan.new_top;
        plan.new_old_starts.push(plan.new_top);
        plan.new_top += footprint as u64;
    }
    Ok(())
}

/// The dense-prefix ranks `ranks` of a plan chunk: each object keeps its
/// address, so the ranks' destinations are their starts, copied in one go,
/// and the plan's top jumps to the end of their span.
fn plan_dense(heap: &Heap, cyc: &mut MajorCycle, ranks: Range<usize>, uw: &mut Work) {
    let starts = &heap.old_starts[ranks.clone()];
    let plan = &mut cyc.plan;
    debug_assert_eq!(plan.new_top, starts[0], "the dense prefix does not tile");
    claim_dense(&mut cyc.sched, starts);
    cyc.live.set_dests(ranks.start, starts);
    uw.objects += starts.len() as u64;
    let end = dense_end(heap, plan, ranks.end);
    if let Some(region_words) = heap.policy.g1_region_words {
        // Each object's words count in the region it starts in.
        let mut i = 0;
        while let Some(&s) = starts.get(i) {
            let region = (s - plan.old_base) / region_words as u64;
            let next_region = plan.old_base + (region + 1) * region_words as u64;
            i += starts[i..].partition_point(|&t| t < next_region);
            plan.g1_region_live[region as usize] += starts.get(i).map_or(end, |&t| t) - s;
        }
    }
    plan.new_top = end;
}

/// Where the dense-prefix rank `rank` starts, or the prefix end past it.
fn dense_end(heap: &Heap, plan: &PlanState, rank: usize) -> u64 {
    if rank < plan.prefix_len {
        heap.old_starts[rank]
    } else {
        plan.prefix_end
    }
}

/// The coverage claims of dense-prefix ranks (a loop only under audit).
fn claim_dense(sched: &mut Scheduler, starts: &[u64]) {
    if sched.auditing() {
        for &src in starts {
            sched.claim(DOM_OBJECT | src);
        }
    }
}

/// The G1 mixed-collection moved-live fraction, in thousandths: live data
/// in the regions a garbage-first policy would actually collect, over total
/// live data. Non-G1 variants return 1000 (full compaction cost).
pub(super) fn g1_moved_fraction_milli(heap: &Heap, region_live: &[u64], total_live: u64) -> u64 {
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
    let h2 = heap.attached_h2_mut();
    for &s in slots {
        let slot = Addr::new(s);
        let val = h2.read_word_free(slot);
        if val == 0 || Addr::new(val).is_h2() {
            continue;
        }
        let new_val = cyc.canon(val);
        if new_val != val {
            h2.write_word(slot, new_val, Category::MajorGc);
        }
        uw.adjusted_refs += 1;
    }
}

/// Pointer adjustment of the object at `src`, bound for `dest`: rewrites its
/// reference slots in place at the source and re-derives the destination's
/// H2 card state and region dependencies from the final values.
pub(super) fn adjust_object(heap: &mut Heap, cyc: &MajorCycle, src: u64, dest: u64, uw: &mut Work) {
    let dest_addr = Addr::new(dest);
    let (first_slot, end_slot) = heap.ref_slot_range(Addr::new(src));
    for s in first_slot..end_slot {
        let val = heap.mem[s as usize];
        if val == 0 {
            continue;
        }
        uw.adjusted_refs += 1;
        uw.extra_ns += heap.h1_price.premium(s, 1);
        // H2 objects never move.
        let new_val = if Addr::new(val).is_h2() { val } else { cyc.canon(val) };
        heap.mem[s as usize] = new_val;
        if !dest_addr.is_h2() {
            continue;
        }
        let new_target = Addr::new(new_val);
        if new_target.is_h1() {
            // Newly created backward reference: dirty the H2 card of the
            // object's future location (§4).
            heap.attached_h2_mut().cards_mut().mark_dirty(Addr::new(dest + (s - src)));
        } else {
            // Newly created cross-region reference (§4).
            heap.note_h2_dependency(dest_addr, new_target);
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
    /// This stash's buffers, emptied.
    pub(super) fn emptied(self) -> Stash {
        Stash { words: parked(self.words), meta: parked(self.meta) }
    }

    /// Writes every deferred copy to its destination.
    pub(super) fn flush(&mut self, mem: &mut [u64]) {
        for (dest, off, len) in self.meta.drain(..) {
            mem[dest as usize..dest as usize + len].copy_from_slice(&self.words[off..off + len]);
        }
        self.words.clear();
    }
}

/// Moves the (already adjusted) object at `src` to `dest`: an H1 slide, or
/// a promotion-buffered H2 write (which also indexes the object's start).
/// Adds the words that stayed in H1 to `h1_words`; `uw.copied_words` counts
/// both kinds.
pub(super) fn move_object(
    heap: &mut Heap,
    stash: &mut Stash,
    old_base: u64,
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
        // Lend `mem` out so the object streams straight into the promotion
        // buffer, no intermediate copy.
        let mem = std::mem::take(&mut heap.mem);
        heap.attached_h2_mut().write_promoted(dest_addr, &mem[src_i..src_end], Category::MajorGc);
        heap.mem = mem;
        return;
    }
    *h1_words += size as u64;
    if dest <= src {
        // The already-compact prefix stays put: charged, not copied.
        if dest < src {
            heap.mem.copy_within(src_i..src_end, dest as usize);
        }
        uw.extra_ns += heap.h1_price.premium(dest, size as u64);
    } else if src < old_base {
        // Young → old evacuation: old sources were all read before the
        // first young one (enumeration order) and no destination lies in
        // the young spaces, so the copy cannot clobber an unread source.
        heap.mem.copy_within(src_i..src_end, dest as usize);
    } else {
        stash.words.extend_from_slice(&heap.mem[src_i..src_end]);
        stash.meta.push((dest, stash.words.len() - size, size));
    }
}

/// The copy of the dense-prefix ranks `ranks`: nothing moves, so their span
/// is counted as copied H1 words, each object paying its start's NVM
/// penalty as [`move_object`] charges it, without visiting an object.
/// Returns the words.
pub(super) fn slide_dense(
    heap: &Heap,
    cyc: &mut MajorCycle,
    ranks: Range<usize>,
    uw: &mut Work,
) -> u64 {
    let starts = &heap.old_starts[ranks.clone()];
    claim_dense(&mut cyc.sched, starts);
    let end = dense_end(heap, &cyc.plan, ranks.end);
    let words = end - starts[0];
    uw.copied_words += words;
    uw.extra_ns += heap.h1_price.objects_premium(starts, end);
    words
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
            heap.attached_h2_mut().regions_mut().record_live_object(obj, size);
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
