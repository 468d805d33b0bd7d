//! Columnar tables as labeled object groups on the managed heap.
//!
//! A table is a set of fixed-width `u64` columns stored in chunks of
//! `chunk_rows` values. Each column chunk is one primitive array allocated
//! through [`Heap::alloc_prim_array_labeled`] with a *per-(table, column)*
//! label and cached in a `mini_spark::BlockManager` under that label
//! ([`BlockManager::put_labeled`]), so whole columns pretenure / promote
//! together into contiguous same-label H2 regions (`RegionGroups`) and die
//! together at region granularity when the table is dropped.
//!
//! Rows accumulate in a DRAM staging buffer (the promotion-buffer idiom)
//! until a chunk fills; sealing a chunk writes it through
//! [`Heap::write_prims`] — paying the real allocation + store path — and
//! incrementally freezes a sorted index run over the key column
//! ([`crate::index::SortedRunIndex`]). Deletes are tombstones; updates
//! rewrite value columns in place through the chunk handle, H2-resident or
//! not.

use crate::index::SortedRunIndex;
use mini_spark::{BlockId, BlockManager, CacheMode};
use teraheap_core::Label;
use teraheap_runtime::obs::EventKind;
use teraheap_runtime::{Handle, Heap, OomError};

/// Columns per table-id slot of the block/label namespace; a table may
/// have at most half this many columns (the upper half addresses index
/// runs).
pub const COLS_PER_TABLE: u64 = 64;

/// Where a table's sealed chunks live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TablePlacement {
    /// On-heap cache: chunks stay deserialized in H1 (the hot tier).
    Hot,
    /// TeraHeap cache: chunks are tagged + advised to H2 and move there at
    /// the next major collection (the cold tier; reads pay the fault and
    /// shared-device arbitration path).
    Cold,
}

/// Static shape of a [`Table`].
#[derive(Debug, Clone, Copy)]
pub struct TableConfig {
    /// Namespaces the table's block ids and placement labels; two live
    /// tables on one heap must not share an id.
    pub table_id: u64,
    /// Number of `u64` columns (at most `COLS_PER_TABLE / 2`).
    pub cols: usize,
    /// Rows per column chunk.
    pub chunk_rows: usize,
    /// The indexed key column.
    pub key_col: usize,
    /// Hot (H1) or cold (H2) chunk placement.
    pub placement: TablePlacement,
}

/// `memory_usage`-style occupancy report for one table.
#[derive(Debug, Clone, Copy, Default)]
pub struct TableMemoryUsage {
    /// Words of sealed column chunks resident in H1.
    pub h1_chunk_words: usize,
    /// Words of sealed column chunks resident in H2.
    pub h2_chunk_words: usize,
    /// Words of frozen index runs (either heap).
    pub index_words: usize,
    /// DRAM words staged in the open chunk.
    pub staging_words: usize,
    /// DRAM words of table metadata (run metadata + tombstone bitmap).
    pub meta_words: usize,
    /// Total rows ever appended.
    pub rows: usize,
    /// Rows not tombstoned.
    pub live_rows: usize,
}

impl TableMemoryUsage {
    /// Every word the table holds, on either heap or in DRAM staging.
    pub fn total_words(&self) -> usize {
        self.h1_chunk_words
            + self.h2_chunk_words
            + self.index_words
            + self.staging_words
            + self.meta_words
    }
}

/// A chunked columnar table with an incrementally maintained sorted-run
/// index over its key column.
#[derive(Debug)]
pub struct Table {
    cfg: TableConfig,
    bm: BlockManager,
    rows: usize,
    sealed: usize,
    staging: Vec<Vec<u64>>,
    index: SortedRunIndex,
    tombstones: Vec<u64>,
    dead_rows: usize,
    /// Two chunks' worth of read buffer, reused by every query instead of
    /// allocating per operation. A reader `std::mem::take`s it for the
    /// duration (chunk reads borrow the table mutably) and puts it back.
    pub(crate) scratch: Vec<u64>,
}

impl Table {
    /// Creates an empty table. Chunk storage is allocated lazily as chunks
    /// seal.
    ///
    /// # Panics
    ///
    /// On a malformed config (zero columns/chunk size, too many columns,
    /// key column out of range).
    pub fn new(cfg: TableConfig) -> Self {
        assert!(cfg.cols > 0 && cfg.cols as u64 <= COLS_PER_TABLE / 2, "bad column count");
        assert!(cfg.chunk_rows > 0, "zero chunk size");
        assert!(cfg.key_col < cfg.cols, "key column out of range");
        let mode = match cfg.placement {
            TablePlacement::Hot => CacheMode::OnHeapOnly,
            TablePlacement::Cold => CacheMode::TeraHeap,
        };
        Table {
            cfg,
            bm: BlockManager::new(mode),
            rows: 0,
            sealed: 0,
            staging: vec![Vec::new(); cfg.cols],
            index: SortedRunIndex::new(),
            tombstones: Vec::new(),
            dead_rows: 0,
            scratch: vec![0; 2 * cfg.chunk_rows],
        }
    }

    /// Block/label id of column `col`'s chunk stream.
    fn col_rdd(&self, col: usize) -> u64 {
        self.cfg.table_id * COLS_PER_TABLE + col as u64
    }

    /// Block/label id of the key column's index-run stream.
    fn index_rdd(&self) -> u64 {
        self.cfg.table_id * COLS_PER_TABLE + COLS_PER_TABLE / 2 + self.cfg.key_col as u64
    }

    /// Rows per sealed chunk.
    pub fn chunk_rows(&self) -> usize {
        self.cfg.chunk_rows
    }

    /// The indexed key column.
    pub fn key_col(&self) -> usize {
        self.cfg.key_col
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cfg.cols
    }

    /// Total rows ever appended (including tombstoned ones).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Rows not tombstoned.
    pub fn live_rows(&self) -> usize {
        self.rows - self.dead_rows
    }

    /// Sealed (immutable, indexed) chunks.
    pub fn sealed_chunks(&self) -> usize {
        self.sealed
    }

    /// Rows still in the open chunk's DRAM staging.
    pub fn staging_rows(&self) -> usize {
        self.staging[0].len()
    }

    /// A staged value (row `i` of the open chunk).
    pub fn staging_val(&self, col: usize, i: usize) -> u64 {
        self.staging[col][i]
    }

    /// The index's run metadata.
    pub fn index(&self) -> &SortedRunIndex {
        &self.index
    }

    /// Appends one row; seals (and indexes) a chunk when it fills.
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] if sealing cannot allocate chunk storage.
    ///
    /// # Panics
    ///
    /// If `vals` does not have one value per column.
    pub fn append_row(&mut self, heap: &mut Heap, vals: &[u64]) -> Result<(), OomError> {
        assert_eq!(vals.len(), self.cfg.cols, "one value per column");
        for (c, &v) in vals.iter().enumerate() {
            self.staging[c].push(v);
        }
        heap.charge_ops(self.cfg.cols as u64);
        self.rows += 1;
        let row = self.rows; // bitmap capacity covers rows 0..rows
        if self.tombstones.len() * 64 < row {
            self.tombstones.push(0);
        }
        if self.staging[0].len() == self.cfg.chunk_rows {
            self.seal_chunk(heap)?;
        }
        Ok(())
    }

    /// Freezes the full staging buffer as sealed chunk `self.sealed`: one
    /// labeled primitive array per column, plus the sorted index run over
    /// the key column.
    fn seal_chunk(&mut self, heap: &mut Heap) -> Result<(), OomError> {
        let k = self.sealed as u32;
        let cr = self.cfg.chunk_rows;
        for c in 0..self.cfg.cols {
            let label = Label::new(self.col_rdd(c));
            let h = heap.alloc_prim_array_labeled(cr, label)?;
            heap.write_prims(h, 0, &self.staging[c]);
            self.bm
                .put_labeled(heap, BlockId { rdd: self.col_rdd(c), partition: k }, h, label)?;
        }
        // Index run: [sorted keys… | row ids in key order…].
        let base_row = (self.sealed * cr) as u64;
        let mut pairs: Vec<(u64, u64)> = self.staging[self.cfg.key_col]
            .iter()
            .enumerate()
            .map(|(i, &key)| (key, base_row + i as u64))
            .collect();
        pairs.sort_unstable();
        let mut run = Vec::with_capacity(2 * cr);
        run.extend(pairs.iter().map(|p| p.0));
        run.extend(pairs.iter().map(|p| p.1));
        let label = Label::new(self.index_rdd());
        let h = heap.alloc_prim_array_labeled(run.len(), label)?;
        heap.write_prims(h, 0, &run);
        self.bm
            .put_labeled(heap, BlockId { rdd: self.index_rdd(), partition: k }, h, label)?;
        self.index.push_run(pairs[0].0, pairs[cr - 1].0, cr);
        for col in &mut self.staging {
            col.clear();
        }
        self.sealed += 1;
        Ok(())
    }

    /// Fetches the sealed-chunk handle for `(rdd, k)` — a caller-released
    /// duplicate.
    fn chunk_handle(&mut self, heap: &mut Heap, rdd: u64, k: usize) -> Handle {
        self.bm
            .get(heap, BlockId { rdd, partition: k as u32 })
            .expect("on-heap/H2 chunk gets cannot OOM")
            .expect("sealed chunk present")
    }

    /// Reads sealed chunk `k` of `col` into `out` (length `chunk_rows`)
    /// through the bulk path — H2-resident chunks pay the real fault /
    /// arbitration cost here.
    pub fn read_col_chunk(&mut self, heap: &mut Heap, col: usize, k: usize, out: &mut [u64]) {
        let h = self.chunk_handle(heap, self.col_rdd(col), k);
        heap.read_prims(h, 0, out);
        heap.release(h);
    }

    /// Reads the single element `i` of sealed chunk `k` of `col`.
    pub fn read_col_at(&mut self, heap: &mut Heap, col: usize, k: usize, i: usize) -> u64 {
        let h = self.chunk_handle(heap, self.col_rdd(col), k);
        let mut v = [0u64];
        heap.read_prims(h, i, &mut v);
        heap.release(h);
        v[0]
    }

    /// Probes the sorted-run index for key range `[lo, hi]` (inclusive):
    /// binary search in every overlapping frozen run plus nothing else —
    /// the open chunk is the executor's job. Returns candidate row ids
    /// ascending (tombstones *not* filtered) and emits an `IndexProbe`
    /// event.
    pub fn probe_index(&mut self, heap: &mut Heap, lo: u64, hi: u64) -> Vec<usize> {
        let cr = self.cfg.chunk_rows;
        let rdd = self.index_rdd();
        let mut hits: Vec<usize> = Vec::new();
        let mut probed = 0u32;
        let mut scratch = std::mem::take(&mut self.scratch);
        let (keys, ids) = scratch.split_at_mut(cr);
        for k in 0..self.index.runs().len() {
            if !self.index.runs()[k].overlaps(lo, hi) {
                continue;
            }
            probed += 1;
            let h = self.chunk_handle(heap, rdd, k);
            heap.read_prims(h, 0, keys);
            let a = keys.partition_point(|&key| key < lo);
            let b = keys.partition_point(|&key| key <= hi);
            if b > a {
                let ids = &mut ids[..b - a];
                heap.read_prims(h, cr + a, ids);
                hits.extend(ids.iter().map(|&r| r as usize));
            }
            heap.release(h);
        }
        self.scratch = scratch;
        heap.clock().emit(EventKind::IndexProbe { runs: probed, hits: hits.len() as u64 });
        hits.sort_unstable();
        hits
    }

    /// Rewrites a value column in place (sealed chunks through the chunk
    /// handle — H2-resident chunks pay the device write — staging rows in
    /// DRAM). The key column is immutable: the index runs would go stale.
    ///
    /// # Panics
    ///
    /// On the key column, a tombstoned row, or an out-of-range row.
    pub fn update_value(&mut self, heap: &mut Heap, row: usize, col: usize, val: u64) {
        assert_ne!(col, self.cfg.key_col, "key column is immutable");
        assert!(row < self.rows, "row out of range");
        assert!(!self.is_deleted(row), "update of tombstoned row");
        let cr = self.cfg.chunk_rows;
        let k = row / cr;
        if k < self.sealed {
            let h = self.chunk_handle(heap, self.col_rdd(col), k);
            heap.write_prims(h, row % cr, &[val]);
            heap.release(h);
        } else {
            self.staging[col][row % cr] = val;
            heap.charge_ops(1);
        }
    }

    /// Tombstones a row. Returns whether the row was live.
    pub fn delete_row(&mut self, heap: &mut Heap, row: usize) -> bool {
        assert!(row < self.rows, "row out of range");
        heap.charge_ops(1);
        let (w, b) = (row / 64, row % 64);
        if self.tombstones[w] >> b & 1 == 1 {
            return false;
        }
        self.tombstones[w] |= 1 << b;
        self.dead_rows += 1;
        true
    }

    /// Whether `row` is tombstoned.
    pub fn is_deleted(&self, row: usize) -> bool {
        self.tombstones[row / 64] >> (row % 64) & 1 == 1
    }

    /// Releases every chunk, index run and staging buffer. The objects
    /// become garbage immediately; their H2 regions are reclaimed in bulk
    /// by the next major collection's region sweep.
    pub fn drop_storage(&mut self, heap: &mut Heap) {
        for c in 0..self.cfg.cols {
            self.bm.unpersist(heap, self.col_rdd(c));
        }
        self.bm.unpersist(heap, self.index_rdd());
        for col in &mut self.staging {
            col.clear();
        }
        self.index.clear();
        self.sealed = 0;
        self.rows = 0;
        self.dead_rows = 0;
        self.tombstones.clear();
    }

    /// Where every word of the table lives right now (retriever-style
    /// `memory_usage` reporting; the endurance harness asserts this stays
    /// bounded under churn).
    pub fn memory_usage(&mut self, heap: &mut Heap) -> TableMemoryUsage {
        let cr = self.cfg.chunk_rows;
        let mut u = TableMemoryUsage {
            rows: self.rows,
            live_rows: self.live_rows(),
            staging_words: self.staging.iter().map(Vec::len).sum(),
            meta_words: self.index.metadata_words() + self.tombstones.len(),
            ..TableMemoryUsage::default()
        };
        for k in 0..self.sealed {
            for c in 0..self.cfg.cols {
                let h = self.chunk_handle(heap, self.col_rdd(c), k);
                if heap.is_in_h2(h) {
                    u.h2_chunk_words += cr;
                } else {
                    u.h1_chunk_words += cr;
                }
                heap.release(h);
            }
            let h = self.chunk_handle(heap, self.index_rdd(), k);
            u.index_words += 2 * cr;
            heap.release(h);
        }
        u
    }

    /// Sealed column chunks currently resident in H2.
    pub fn h2_resident_chunks(&mut self, heap: &mut Heap) -> usize {
        let mut n = 0;
        for k in 0..self.sealed {
            for c in 0..self.cfg.cols {
                let h = self.chunk_handle(heap, self.col_rdd(c), k);
                if heap.is_in_h2(h) {
                    n += 1;
                }
                heap.release(h);
            }
        }
        n
    }
}
