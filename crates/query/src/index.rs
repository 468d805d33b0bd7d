//! Secondary index: sorted-key chunk runs over one column.
//!
//! The index is maintained *incrementally on append*: every time a table
//! seals a chunk, the chunk's `(key, row)` pairs are sorted once and frozen
//! as a run — a primitive array `[sorted keys… | row ids in key order…]`
//! allocated as part of the index's labeled object group, so runs live
//! (and move to H2) with the column they index. Only run *metadata*
//! (min/max key, length) stays in DRAM; a probe binary-searches each
//! overlapping run's key half in place through `Heap::view_prims`, so
//! H2-resident runs pay the real fault/arbitration path.

/// DRAM-side metadata for one frozen run.
#[derive(Debug, Clone, Copy)]
pub struct RunMeta {
    /// Smallest key in the run.
    pub min_key: u64,
    /// Largest key in the run.
    pub max_key: u64,
    /// Keys in the run (the table's chunk size).
    pub len: usize,
}

impl RunMeta {
    /// Whether the run can contain a key in `[lo, hi]`.
    pub fn overlaps(&self, lo: u64, hi: u64) -> bool {
        self.min_key <= hi && self.max_key >= lo
    }
}

/// The sorted-run index skeleton: run metadata in registration (chunk)
/// order. The runs' payloads are heap objects rooted in the table's chunk
/// directory; probing lives on [`crate::table::Table::probe_index`] where
/// both are in scope.
#[derive(Debug, Clone, Default)]
pub struct SortedRunIndex {
    runs: Vec<RunMeta>,
}

impl SortedRunIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the run frozen from a newly sealed chunk.
    pub fn push_run(&mut self, min_key: u64, max_key: u64, len: usize) {
        self.runs.push(RunMeta { min_key, max_key, len });
    }

    /// Run metadata in chunk order.
    pub fn runs(&self) -> &[RunMeta] {
        &self.runs
    }

    /// Drops every run (table storage was dropped).
    pub fn clear(&mut self) {
        self.runs.clear();
    }

    /// DRAM words of run metadata (the `memory_usage` report's
    /// index-skeleton term).
    pub fn metadata_words(&self) -> usize {
        self.runs.len() * 3
    }
}
