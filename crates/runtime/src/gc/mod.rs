//! Garbage collectors: the PS-style minor scavenge and four-phase major
//! mark–compact, extended with TeraHeap's integration points (§4).
//!
//! * [`schedule`] — the work-unit scheduler both collectors charge through:
//!   units, accounting lanes, barriers, the coverage audit.
//! * [`minor`] — the scavenge, one function.
//! * [`major`] — the stop-world major cycle, its phases in order; `units`
//!   holds the body of each of its work units, once.

pub mod major;
pub mod minor;
pub mod schedule;
mod units;

/// The largest buffer kept between uses. A kept buffer keeps the pages it
/// touched resident, so one outlier (a whole graph's edges moving at once,
/// a partition's edge stream) is dropped instead of raising a later peak.
const PARKED_MAX_BYTES: usize = 256 << 10;

/// `v` emptied with its capacity kept, or dropped if that is over
/// `PARKED_MAX_BYTES`: the one rule for the collectors' and kryo's buffers.
pub fn parked<T>(mut v: Vec<T>) -> Vec<T> {
    if v.capacity() * std::mem::size_of::<T>() > PARKED_MAX_BYTES {
        return Vec::new();
    }
    v.clear();
    v
}

/// Collection buffers that outlive their collection, emptied: a heap keeps
/// one ([`Heap::gc_scratch`]), so each collection reuses the capacity the
/// last one grew instead of faulting fresh pages in for it.
#[derive(Default)]
pub(crate) struct GcScratch {
    /// The minor collection's copy worklist.
    worklist: Vec<Addr>,
    /// The last major cycle's mark bitmap and buffers.
    pub(crate) cycle: major::CycleScratch,
}

impl std::fmt::Debug for GcScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GcScratch")
            .field("worklist", &self.worklist.capacity())
            .finish_non_exhaustive()
    }
}

use crate::heap::Heap;
use crate::object;
use teraheap_core::Addr;
use teraheap_storage::Category;

/// Index of the first object in the sorted start index `starts` that could
/// overlap an address range beginning at `base`: the last object starting at
/// or before `base`, or the first after it. Every card scan starts there.
fn first_overlapping(starts: &[u64], base: u64) -> usize {
    starts.partition_point(|&s| s <= base).saturating_sub(1)
}

/// Scans H2 card `card` (§3.4) for both collectors — the only place either
/// reads H2, through the charged device path, charging `cat`. H2 objects are
/// found through their region's DRAM-side start list (empty for a region
/// freed since the card was dirtied); each one the card overlaps costs a
/// header read, and its reference slots within the card are read one page
/// chunk at a time into `buf` (bit-identical to the per-word loop, DESIGN.md
/// §9). An H2→H2 reference becomes a cross-region dependency now: the
/// card may go clean, and no collector scans a clean card. A backward
/// (H2→H1) reference is handed to `visit` with its slot; `visit` returns the
/// slot's new target, written back when it differs.
fn walk_h2_card(
    heap: &mut Heap,
    card: usize,
    cat: Category,
    uw: &mut Work,
    buf: &mut Vec<u64>,
    mut visit: impl FnMut(&mut Heap, Addr, Addr, &mut Work) -> Addr,
) {
    let h2 = heap.attached_h2();
    let base = h2.cards().card_base(card);
    let (lo, hi) = (base.raw(), base.raw() + h2.cards().seg_words() as u64);
    let region = h2.regions().region_of(base);
    let page_words = h2.page_run_words() as u64;
    let starts = h2.regions().starts(region);
    let overlapping = first_overlapping(starts, lo)..starts.partition_point(|&s| s < hi);
    for i in overlapping {
        // Re-read per object: the walk lends the whole heap to `visit`, and
        // no card walk promotes, so the list cannot change under it.
        let obj = Addr::new(heap.attached_h2().regions().starts(region)[i]);
        let header = heap.attached_h2_mut().read_word(obj, cat);
        uw.objects += 1;
        if obj.raw() + object::size_of(header) as u64 <= lo {
            continue;
        }
        // Empty (inverted) when all the object's slots fall outside the card.
        let (mut s, end) = heap.ref_slot_range_in(obj, lo, hi);
        while s < end {
            // A write-back lands as a hit on the page just read, so the
            // per-page touch sequence is the per-word loop's.
            let run = (page_words - Addr::new(s).h2_offset() % page_words).min(end - s);
            buf.resize(run as usize, 0);
            heap.attached_h2_mut().read_words(Addr::new(s), buf, cat);
            for (j, &val) in buf.iter().enumerate() {
                uw.refs += 1;
                if val == 0 {
                    continue;
                }
                let (slot, target) = (Addr::new(s + j as u64), Addr::new(val));
                if target.is_h2() {
                    heap.note_h2_dependency(slot, target);
                    continue;
                }
                heap.stats.backward_refs_seen += 1;
                let new_target = visit(heap, slot, target, uw);
                if new_target != target {
                    heap.attached_h2_mut().write_word(slot, new_target.raw(), cat);
                }
            }
            s += run;
        }
    }
}

/// CPU-work counters accumulated by one work unit and charged to its lane
/// when the unit ends.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Work {
    /// Objects visited (header decode, mark test).
    pub objects: u64,
    /// Reference slots examined.
    pub refs: u64,
    /// Words copied between H1 locations (or into promotion buffers).
    pub copied_words: u64,
    /// Card-table entries examined.
    pub cards: u64,
    /// Reference slots rewritten during pointer adjustment.
    pub adjusted_refs: u64,
    /// Extra uncategorized nanoseconds (NVM penalties under Panthera or
    /// Memory mode), charged undivided.
    pub extra_ns: u64,
}

impl Work {
    /// Total CPU nanoseconds implied by the counters under `cost`.
    pub fn cpu_ns(&self, cost: &teraheap_storage::CostModel) -> u64 {
        self.objects * cost.gc_scan_object_ns
            + self.refs * cost.gc_scan_ref_ns
            + self.copied_words * cost.gc_copy_word_ns
            + self.cards * cost.gc_card_check_ns
            + self.adjusted_refs * cost.gc_adjust_ref_ns
    }
}
