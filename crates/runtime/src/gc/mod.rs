//! Garbage collectors: the PS-style minor scavenge and four-phase major
//! mark–compact, extended with TeraHeap's integration points (§4).
//!
//! * [`schedule`] — the work-unit scheduler both collectors charge through:
//!   units, accounting lanes, barriers, the coverage audit.
//! * [`minor`] — the scavenge, one function.
//! * [`major`] — the major cycle: one state machine whose drive loop serves
//!   both the stop-world collection (one unbounded slice) and pause-budgeted
//!   slicing; `units` holds the body of each of its work units, once.

pub mod major;
pub mod minor;
pub mod schedule;
mod units;

pub(crate) use units::LiveMap;

/// Index of the first object in the sorted start index `starts` that could
/// overlap an address range beginning at `base`: the last object starting at
/// or before `base`, or the first after it. Both collectors' card scans start
/// there.
fn first_overlapping(starts: &[u64], base: u64) -> usize {
    starts.partition_point(|&s| s <= base).saturating_sub(1)
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
