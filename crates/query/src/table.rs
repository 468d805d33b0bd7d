//! Columnar tables as labeled object groups on the managed heap.
//!
//! A table is a set of fixed-width `u64` columns stored in chunks of
//! `chunk_rows` values. Each column chunk is one primitive array allocated
//! through [`Heap::alloc_prim_array_labeled`] with a *per-(table, column)*
//! label, so whole columns pretenure / promote together into contiguous
//! same-label H2 regions (`RegionGroups`) and die together at region
//! granularity when the table is dropped. The table roots its sealed
//! chunks itself, in a dense directory indexed by `(stream, chunk)`; a cold
//! table tags and advises each chunk as it seals, the way Spark's block
//! manager does per cached partition (§5).
//!
//! Rows accumulate in a DRAM staging buffer (the promotion-buffer idiom)
//! until a chunk fills; sealing a chunk writes it through
//! [`Heap::write_prims`] — paying the real allocation + store path — and
//! incrementally freezes a sorted index run over the key column
//! ([`crate::index::SortedRunIndex`]). Deletes are tombstones; updates
//! rewrite value columns in place through the chunk handle, H2-resident or
//! not. Reads are charged borrowed views ([`Heap::view_prims`]): a chunk is
//! looked at where it lives, never copied out first.

use crate::exec::ExecBuffers;
use crate::index::SortedRunIndex;
use teraheap_core::Label;
use teraheap_runtime::obs::EventKind;
use teraheap_runtime::{Handle, Heap, OomError};

/// Columns per table-id slot of the label namespace; a table may have at
/// most half this many columns (the upper half addresses index runs).
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
    /// Namespaces the table's placement labels; two live tables on one heap
    /// must not share an id.
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
    /// The sealed-chunk directory: `chunks[s][k]` roots chunk `k` of
    /// stream `s`. Streams `0..cols` are the columns, stream `cols` is the
    /// index runs; a chunk is sealed once its index run is in.
    chunks: Vec<Vec<Handle>>,
    rows: usize,
    staging: Vec<Vec<u64>>,
    index: SortedRunIndex,
    tombstones: Vec<u64>,
    dead_rows: usize,
    /// The executor's match list, candidate list and selection bitmap,
    /// reused by every query instead of allocating per operation.
    pub(crate) exec: ExecBuffers,
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
        Table {
            cfg,
            chunks: vec![Vec::new(); cfg.cols + 1],
            rows: 0,
            staging: vec![Vec::new(); cfg.cols],
            index: SortedRunIndex::new(),
            tombstones: Vec::new(),
            dead_rows: 0,
            exec: ExecBuffers::default(),
        }
    }

    /// Placement label of stream `s`: the column's slot, or the key
    /// column's slot in the upper (index-run) half of the namespace.
    fn stream_label(&self, s: usize) -> Label {
        let slot = if s < self.cfg.cols {
            s as u64
        } else {
            COLS_PER_TABLE / 2 + self.cfg.key_col as u64
        };
        Label::new(self.cfg.table_id * COLS_PER_TABLE + slot)
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
        self.chunks[self.cfg.cols].len()
    }

    /// Rows still in the open chunk's DRAM staging.
    pub fn staging_rows(&self) -> usize {
        self.staging[0].len()
    }

    /// The open chunk's staged values of `col`.
    pub fn staging_col(&self, col: usize) -> &[u64] {
        &self.staging[col]
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

    /// Freezes the full staging buffer as the next sealed chunk: one
    /// labeled primitive array per column, plus the sorted index run over
    /// the key column.
    fn seal_chunk(&mut self, heap: &mut Heap) -> Result<(), OomError> {
        let cr = self.cfg.chunk_rows;
        for c in 0..self.cfg.cols {
            let h = seal(heap, self.cfg.placement, self.stream_label(c), &self.staging[c])?;
            self.chunks[c].push(h);
        }
        // Index run: [sorted keys… | row ids in key order…].
        let base_row = (self.sealed_chunks() * cr) as u64;
        let mut pairs: Vec<(u64, u64)> = self.staging[self.cfg.key_col]
            .iter()
            .enumerate()
            .map(|(i, &key)| (key, base_row + i as u64))
            .collect();
        pairs.sort_unstable();
        let mut run = Vec::with_capacity(2 * cr);
        run.extend(pairs.iter().map(|p| p.0));
        run.extend(pairs.iter().map(|p| p.1));
        let h = seal(heap, self.cfg.placement, self.stream_label(self.cfg.cols), &run)?;
        self.chunks[self.cfg.cols].push(h);
        self.index.push_run(pairs[0].0, pairs[cr - 1].0, cr);
        for col in &mut self.staging {
            col.clear();
        }
        Ok(())
    }

    /// Charges a read of sealed chunk `k` of `col` through the bulk path —
    /// H2-resident chunks pay the real fault / arbitration cost here — and
    /// hands its `chunk_rows` values to `f` in place, under a temporary
    /// root of their own like any other reader of the chunk.
    pub fn view_col_chunk<R>(
        &self,
        heap: &mut Heap,
        col: usize,
        k: usize,
        f: impl FnOnce(&[u64]) -> R,
    ) -> R {
        let h = heap.dup(self.chunks[col][k]);
        let r = f(heap.view_prims(h, 0, self.cfg.chunk_rows));
        heap.release(h);
        r
    }

    /// Reads the single element `i` of sealed chunk `k` of `col`.
    pub fn read_col_at(&self, heap: &mut Heap, col: usize, k: usize, i: usize) -> u64 {
        let h = heap.dup(self.chunks[col][k]);
        let v = heap.view_prims(h, i, 1)[0];
        heap.release(h);
        v
    }

    /// Probes the sorted-run index for key range `[lo, hi]` (inclusive):
    /// binary search in every overlapping frozen run plus nothing else —
    /// the open chunk is the executor's job. Replaces `hits` with the
    /// candidate row ids ascending (tombstones *not* filtered) and emits an
    /// `IndexProbe` event. A probed run pays for its whole key half (the
    /// search is in place, but the charge is the plane's contract) and for
    /// exactly the matching slice of its id half.
    pub fn probe_index(&self, heap: &mut Heap, lo: u64, hi: u64, hits: &mut Vec<usize>) {
        let cr = self.cfg.chunk_rows;
        hits.clear();
        let mut probed = 0u32;
        for (run, &root) in self.index.runs().iter().zip(&self.chunks[self.cfg.cols]) {
            if !run.overlaps(lo, hi) {
                continue;
            }
            probed += 1;
            let h = heap.dup(root);
            let keys = heap.view_prims(h, 0, cr);
            let a = keys.partition_point(|&key| key < lo);
            let n = keys[a..].iter().take_while(|&&key| key <= hi).count();
            if n > 0 {
                hits.extend(heap.view_prims(h, cr + a, n).iter().map(|&r| r as usize));
            }
            heap.release(h);
        }
        heap.clock().emit(EventKind::IndexProbe { runs: probed, hits: hits.len() as u64 });
        hits.sort_unstable();
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
        if k < self.sealed_chunks() {
            let h = heap.dup(self.chunks[col][k]);
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

    /// The tombstone bits of rows `[row, row + 64)`, bit `i` for row
    /// `row + i`; rows past the end read as live.
    pub(crate) fn deleted_bits(&self, row: usize) -> u64 {
        let (w, b) = (row / 64, row % 64);
        let word = |w: usize| self.tombstones.get(w).copied().unwrap_or(0);
        if b == 0 {
            word(w)
        } else {
            word(w) >> b | word(w + 1) << (64 - b)
        }
    }

    /// Releases every chunk, index run and staging buffer, in directory
    /// order (so the root slots they free are reused in the same order on
    /// every run). The objects become garbage immediately; their H2
    /// regions are reclaimed in bulk by the next major collection's region
    /// sweep.
    pub fn drop_storage(&mut self, heap: &mut Heap) {
        for stream in &mut self.chunks {
            stream.drain(..).for_each(|h| heap.release(h));
        }
        for col in &mut self.staging {
            col.clear();
        }
        self.index.clear();
        self.rows = 0;
        self.dead_rows = 0;
        self.tombstones.clear();
    }

    /// Where every word of the table lives right now (retriever-style
    /// `memory_usage` reporting; the endurance harness asserts this stays
    /// bounded under churn).
    pub fn memory_usage(&self, heap: &Heap) -> TableMemoryUsage {
        let cr = self.cfg.chunk_rows;
        let col_chunks = self.cfg.cols * self.sealed_chunks();
        let h2_chunks = self.h2_resident_chunks(heap);
        TableMemoryUsage {
            h1_chunk_words: (col_chunks - h2_chunks) * cr,
            h2_chunk_words: h2_chunks * cr,
            index_words: self.sealed_chunks() * 2 * cr,
            staging_words: self.staging.iter().map(Vec::len).sum(),
            meta_words: self.index.metadata_words() + self.tombstones.len(),
            rows: self.rows,
            live_rows: self.live_rows(),
        }
    }

    /// Sealed column chunks currently resident in H2.
    pub fn h2_resident_chunks(&self, heap: &Heap) -> usize {
        // A seal that ran out of memory half-way leaves column streams one
        // root longer than the index stream; those are not sealed chunks.
        let sealed = self.sealed_chunks();
        self.chunks[..self.cfg.cols]
            .iter()
            .flat_map(|stream| &stream[..sealed])
            .filter(|&&h| heap.is_in_h2(h))
            .count()
    }
}

/// Allocates and fills one chunk under `label` and returns its root. A
/// cold table tags the chunk as a root key-object and advises the move, as
/// Spark's block manager does per cached partition (§5); an already
/// H2-resident chunk (group-labeled allocation pretenured it) carries its
/// label, and re-tagging would touch the device for nothing.
fn seal(
    heap: &mut Heap,
    placement: TablePlacement,
    label: Label,
    words: &[u64],
) -> Result<Handle, OomError> {
    let h = heap.alloc_prim_array_labeled(words.len(), label)?;
    heap.write_prims(h, 0, words);
    if placement == TablePlacement::Cold {
        if !heap.is_in_h2(h) {
            heap.h2_tag_root(h, label);
        }
        heap.h2_move(label);
    }
    Ok(h)
}
