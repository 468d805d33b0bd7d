//! Cumulative GC statistics and the major-GC phase breakdown (Figure 11b).
//!
//! Per-cycle GC history (Figure 7's timeline) is no longer kept here: the
//! flight recorder in `teraheap-obs` records `GcBegin`/`GcEnd` events with
//! the same payloads, and `teraheap_obs::timeline::gc_cycles` reconstructs
//! the per-cycle view from the trace.

/// Cumulative time in each of the four PS major-GC phases (§4), which
/// Figure 11b breaks down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MajorPhases {
    /// Marking phase (with TeraHeap's five extra tasks).
    pub marking_ns: u64,
    /// Pre-compaction (address assignment, incl. H2 address assignment).
    pub precompact_ns: u64,
    /// Pointer adjustment (incl. backward-ref and cross-region updates).
    pub adjust_ns: u64,
    /// Compaction (object moves, incl. promotion-buffered H2 writes).
    pub compact_ns: u64,
}

impl MajorPhases {
    /// Total time across all phases.
    pub fn total_ns(&self) -> u64 {
        self.marking_ns + self.precompact_ns + self.adjust_ns + self.compact_ns
    }
}

/// Cumulative GC statistics kept by the heap.
#[derive(Debug, Clone, Default)]
pub struct GcStats {
    /// Number of minor collections.
    pub minor_count: u64,
    /// Number of major collections.
    pub major_count: u64,
    /// Total simulated minor-GC time.
    pub minor_ns: u64,
    /// Total simulated major-GC time.
    pub major_ns: u64,
    /// Major-GC phase breakdown (cumulative).
    pub phases: MajorPhases,
    /// H1→H2 references the collector fenced instead of following (§7.4
    /// reports ~109 M per GC avoided in PR).
    pub forward_refs_fenced: u64,
    /// Backward (H2→H1) reference slots examined during card scanning.
    pub backward_refs_seen: u64,
    /// H2 cards scanned during minor GCs.
    pub h2_cards_scanned_minor: u64,
    /// Minor-GC time spent on H2 card scanning/updating (Figure 11a).
    pub h2_minor_scan_ns: u64,
    /// Objects moved from H1 to H2 over the run.
    pub objects_promoted_h2: u64,
    /// Total lane idle time at phase barriers (work-unit plane): across all
    /// GCs, the ns non-critical lanes spent waiting for the critical-path
    /// lane. 0 at `gc_threads = 1`.
    pub lane_stall_ns: u64,
    /// G1 only: words wasted by humongous-object region rounding.
    pub g1_humongous_waste_words: u64,
    /// Incremental major GC: references the SATB write barrier remembered
    /// between marking slices (field overwrites + released roots).
    pub write_barrier_remembered: u64,
    /// Incremental major GC: pause slices executed across all cycles
    /// (`SliceBegin`/`SliceEnd` pairs).
    pub incr_slices: u64,
    /// Always 0: nothing allocates straight into H2 any more. Kept because
    /// the repo benchmark reports it as `core.pretenured_words`.
    pub pretenured_words: u64,
    /// On-demand full-heap invariant sweeps run via
    /// `Heap::heap_check_now` (endurance harness checkpoints; the armed
    /// per-GC sweeps are not counted here).
    pub heap_checks_on_demand: u64,
}

impl GcStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_total() {
        let p = MajorPhases { marking_ns: 1, precompact_ns: 2, adjust_ns: 3, compact_ns: 4 };
        assert_eq!(p.total_ns(), 10);
    }
}
