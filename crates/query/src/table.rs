//! Columnar tables as labeled object groups on the managed heap.
//!
//! A table is a set of fixed-width `u64` columns stored in chunks of
//! `chunk_rows` values. Each column chunk is one primitive array allocated
//! through [`Heap::alloc_prim_array_labeled`] with a *per-(table, column)*
//! label, so whole columns promote together into contiguous
//! same-label H2 regions and die together at region granularity when the
//! table is dropped. The table roots its sealed chunks itself, in a dense
//! directory indexed by `(stream, chunk)`; a cold table advises the move
//! of each chunk as it seals, the way Spark's block manager does per cached
//! partition (§5).
//!
//! Rows accumulate in a DRAM staging buffer (the promotion-buffer idiom)
//! until a chunk fills; sealing a chunk writes it through
//! [`Heap::write_prims`] — paying the real allocation + store path — and
//! incrementally freezes a sorted index run over the key column
//! ([`crate::index::SortedRunIndex`]). The table also keeps every run's
//! keys in one host-side key order, so a key range costs one binary search
//! for all runs, not one per run. A table is append-only. Reads are
//! charged borrowed views ([`Heap::view_prims`]): a chunk is looked at
//! where it lives, never copied out first, and a reader that visits many
//! chunks visits them in storage order ([`Table::storage_order`]), so an H2
//! scan rides the page cache's readahead instead of jumping back wherever
//! the layout is permuted.

use crate::exec::ExecBuffers;
use crate::index::{KeyOrder, SortedRunIndex};
use teraheap_core::Label;
use teraheap_runtime::obs::EventKind;
use teraheap_runtime::{Handle, Heap, OomError};
use teraheap_util::rng::Rng;

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
    /// DRAM words of table metadata (the index skeleton's zone maps and
    /// Bloom filters).
    pub meta_words: usize,
    /// Total rows appended.
    pub rows: usize,
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
    /// A point probe's filter masks, one word per block of 64 runs
    /// ([`SortedRunIndex`]), reused by every probe.
    filter_masks: Vec<u64>,
    storage: StorageOrder,
    /// Every sealed run's keys in one order, for the runs' searches.
    keys: KeyOrder,
    /// The executor's match list, candidate list, chunk spans and selection
    /// bitmap, reused by every query instead of allocating per operation.
    pub(crate) exec: ExecBuffers,
}

/// Every stream's sealed chunks in storage order — ascending heap address,
/// the order a scan of the device meets them in — and each chunk's rank in
/// it. Host-side catalog metadata, like the chunk directory: computing it
/// charges nothing, and a stale order costs time, never an answer.
#[derive(Debug)]
struct StorageOrder {
    /// `(minor GCs, major GCs, sealed chunks)` when the order was computed:
    /// only a collection moves a chunk, only a seal adds one.
    epoch: Option<(u64, u64, usize)>,
    /// `order[s]`: stream `s`'s chunk indices by ascending address.
    order: Vec<Vec<usize>>,
    /// `rank[s][k]`: the position of chunk `k` in `order[s]`.
    rank: Vec<Vec<usize>>,
}

impl StorageOrder {
    /// Recomputes `rank` from `order`.
    fn rank_from_order(&mut self) {
        for (order, rank) in self.order.iter().zip(&mut self.rank) {
            rank.resize(order.len(), 0);
            for (r, &k) in order.iter().enumerate() {
                rank[k] = r;
            }
        }
    }
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
            index: SortedRunIndex::new(cfg.chunk_rows),
            filter_masks: Vec::new(),
            storage: StorageOrder {
                epoch: None,
                order: vec![Vec::new(); cfg.cols + 1],
                rank: vec![Vec::new(); cfg.cols + 1],
            },
            keys: KeyOrder::default(),
            exec: ExecBuffers::default(),
        }
    }

    /// Placement label of stream `s`: the column's slot, or the key
    /// column's slot in the upper (index-run) half of the namespace.
    fn stream_label(&self, s: usize) -> Label {
        let slot =
            if s < self.cfg.cols { s as u64 } else { COLS_PER_TABLE / 2 + self.cfg.key_col as u64 };
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

    /// Total rows appended.
    pub fn rows(&self) -> usize {
        self.rows
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

    /// Stream `s`'s sealed chunk indices in storage order (ascending heap
    /// address); stream `cols()` is the index runs.
    pub fn storage_order(&mut self, heap: &Heap, s: usize) -> &[usize] {
        self.refresh_storage_order(heap);
        &self.storage.order[s]
    }

    /// Brings the storage order up to date if a collection or a seal may
    /// have changed it since it was computed.
    pub(crate) fn refresh_storage_order(&mut self, heap: &Heap) {
        let sealed = self.sealed_chunks();
        let epoch = (heap.stats().minor_count, heap.stats().major_count, sealed);
        if self.storage.epoch == Some(epoch) {
            return;
        }
        self.storage.epoch = Some(epoch);
        for (order, stream) in self.storage.order.iter_mut().zip(&self.chunks) {
            order.clear();
            order.extend(0..sealed);
            order.sort_unstable_by_key(|&k| heap.handle_addr(stream[k]));
        }
        self.storage.rank_from_order();
    }

    /// Stream `s`'s chunks in storage order, as last refreshed.
    pub(crate) fn order(&self, s: usize) -> &[usize] {
        &self.storage.order[s]
    }

    /// The position of chunk `k` in stream `s`'s storage order, as last
    /// refreshed.
    pub(crate) fn rank(&self, s: usize, k: usize) -> usize {
        self.storage.rank[s][k]
    }

    /// Test hook: replaces every stream's storage order with a seeded
    /// permutation, kept until the next collection or seal. Answers must not
    /// change; only the device's service time may.
    #[doc(hidden)]
    pub fn permute_storage_order(&mut self, heap: &Heap, seed: u64) {
        self.refresh_storage_order(heap);
        let mut rng = Rng::seed_from_u64(seed);
        for order in &mut self.storage.order {
            rng.shuffle(order);
        }
        self.storage.rank_from_order();
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
        self.index.push_run(&run[..cr]);
        for col in &mut self.staging {
            col.clear();
        }
        Ok(())
    }

    /// Charges a read of sealed chunk `k` of `col` through the bulk path —
    /// H2-resident chunks pay the real fault / arbitration cost here — and
    /// hands its `chunk_rows` values to `f` in place, viewed through the
    /// table's own root of the chunk.
    pub fn view_col_chunk<R>(
        &self,
        heap: &mut Heap,
        col: usize,
        k: usize,
        f: impl FnOnce(&[u64]) -> R,
    ) -> R {
        f(heap.view_prims(self.chunks[col][k], 0, self.cfg.chunk_rows))
    }

    /// Sealed chunk `k`'s frozen index run, `[sorted keys | row ids]`, in
    /// place and uncharged: searching a run is host work (DESIGN §14), so
    /// the full scan builds a key-column chunk's selection bitmap from its
    /// row ids while still paying for the chunk's charged view.
    pub(crate) fn peek_run<'h>(&self, heap: &'h Heap, k: usize) -> &'h [u64] {
        heap.peek_prims(self.chunks[self.cfg.cols][k], 0, 2 * self.cfg.chunk_rows)
    }

    /// Finds every sealed run's keys in `[lo, hi]` ([`Table::key_span`])
    /// through the key order, rebuilt first if a seal added a run since it
    /// was built. Both read the runs' key halves uncharged.
    pub(crate) fn walk_keys(&mut self, heap: &Heap, lo: u64, hi: u64) {
        let (cr, runs) = (self.cfg.chunk_rows, &self.chunks[self.cfg.cols]);
        let keys = |k: usize| heap.peek_prims(runs[k], 0, cr);
        self.keys.cover(cr, runs.len(), keys);
        self.keys.walk(lo, hi, keys);
    }

    /// Run `k`'s keys in the range last walked ([`Table::walk_keys`]):
    /// `(start, len)` in its sorted half.
    pub(crate) fn key_span(&self, k: usize) -> (usize, usize) {
        self.keys.span(k)
    }

    /// Reads the single element `i` of sealed chunk `k` of `col`.
    pub fn read_col_at(&self, heap: &mut Heap, col: usize, k: usize, i: usize) -> u64 {
        heap.view_prims(self.chunks[col][k], i, 1)[0]
    }

    /// Probes the sorted-run index for key range `[lo, hi]` (inclusive):
    /// every candidate frozen run, swept in storage order, takes its
    /// matching keys from the key order, and nothing else is probed — the
    /// open chunk is the executor's job. A run is a candidate when its zone
    /// map overlaps `[lo, hi]` and, for a point predicate (`lo == hi`) only,
    /// its DRAM Bloom filter may hold the key; each filter consulted costs
    /// one op. Replaces `hits` with the candidate row ids in the order the
    /// probe found them (run by run in storage order, each run's in key
    /// order) and emits an `IndexProbe` event counting the runs viewed. A
    /// viewed run pays for its whole key half (the search is host work, but
    /// the charge is the plane's contract) and for exactly the matching
    /// slice of its id half.
    pub(crate) fn probe_runs(&mut self, heap: &mut Heap, lo: u64, hi: u64, hits: &mut Vec<usize>) {
        self.refresh_storage_order(heap);
        self.walk_keys(heap, lo, hi);
        let cr = self.cfg.chunk_rows;
        if lo == hi {
            self.index.filter_masks(lo, &mut self.filter_masks);
        }
        let (runs, roots) = (self.index.runs(), &self.chunks[self.cfg.cols]);
        hits.clear();
        let mut probed = 0u32;
        for &k in self.order(self.cfg.cols) {
            let (run, root) = (&runs[k], roots[k]);
            if !run.overlaps(lo, hi) {
                continue;
            }
            if lo == hi {
                heap.charge_ops(1);
                if self.filter_masks[k / 64] >> (k % 64) & 1 == 0 {
                    continue;
                }
            }
            probed += 1;
            heap.view_prims(root, 0, cr);
            let (a, n) = self.key_span(k);
            if n > 0 {
                hits.extend(heap.view_prims(root, cr + a, n).iter().map(|&r| r as usize));
            }
        }
        heap.clock().emit(EventKind::IndexProbe { runs: probed, hits: hits.len() as u64 });
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
        self.keys = KeyOrder::default();
        self.storage.epoch = None;
        self.rows = 0;
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
            meta_words: self.index.metadata_words(),
            rows: self.rows,
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

/// Allocates and fills one chunk under `label` (the allocation tags it as
/// a root key-object) and returns its root. A cold table advises the move,
/// as Spark's block manager does per cached partition (§5).
fn seal(
    heap: &mut Heap,
    placement: TablePlacement,
    label: Label,
    words: &[u64],
) -> Result<Handle, OomError> {
    let h = heap.alloc_prim_array_labeled(words.len(), label)?;
    heap.write_prims(h, 0, words);
    if placement == TablePlacement::Cold {
        heap.h2_move(label);
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_query, Predicate, Query};
    use teraheap_runtime::HeapConfig;
    use teraheap_util::prop_assert;
    use teraheap_util::proptest_mini::{any_u64, check, range_usize, CaseResult, Config};

    /// The per-run search the key order replaced, kept as its oracle: run
    /// `k`'s first key not below `lo` and how many keys from there are at
    /// most `hi`, `(0, 0)` when none are.
    fn per_run_spans(table: &Table, heap: &Heap, lo: u64, hi: u64) -> Vec<(usize, usize)> {
        let cr = table.chunk_rows();
        let span = |k| {
            let keys = &table.peek_run(heap, k)[..cr];
            let a = keys.partition_point(|&key| key < lo);
            let n = keys[a..].iter().take_while(|&&key| key <= hi).count();
            if n == 0 {
                (0, 0)
            } else {
                (a, n)
            }
        };
        (0..table.sealed_chunks()).map(span).collect()
    }

    /// Every run's span of `[lo, hi]` through the key order.
    fn key_order_spans(table: &mut Table, heap: &Heap, lo: u64, hi: u64) -> Vec<(usize, usize)> {
        table.walk_keys(heap, lo, hi);
        (0..table.sealed_chunks()).map(|k| table.key_span(k)).collect()
    }

    /// A hot table of `cols` columns, key column 0, on a heap that holds
    /// 130 runs of 256 keys.
    fn hot_table(cols: usize, chunk_rows: usize) -> (Heap, Table) {
        let heap = Heap::new(HeapConfig::with_words(16 << 10, 256 << 10));
        let placement = TablePlacement::Hot;
        (heap, Table::new(TableConfig { table_id: 1, cols, chunk_rows, key_col: 0, placement }))
    }

    #[test]
    fn key_order_spans_equal_per_run_search() {
        // One run length per case, 1..=256 keys, over a domain narrow enough
        // for duplicates within and across runs, with 0 and u64::MAX mixed
        // in. The order is rebuilt as appends seal runs between probes, and
        // compared at 1, 63, 64, 65 and 130 runs with part of a chunk staged.
        check(
            "key_order_spans_equal_per_run_search",
            &(range_usize(1..257), any_u64()),
            &Config::with_cases(12),
            |(len, seed): (usize, u64)| {
                let mut rng = Rng::seed_from_u64(seed);
                let domain = 1 + rng.gen_range(0..2 * len as u64);
                let key = |rng: &mut Rng| match rng.gen_range(0..16u64) {
                    0 => 0,
                    1 => u64::MAX,
                    _ => rng.gen_range(0..domain),
                };
                let (mut heap, mut table) = hot_table(1, len);
                for runs in [1, 63, 64, 65, 130] {
                    while table.sealed_chunks() < runs {
                        table.append_row(&mut heap, &[key(&mut rng)]).expect("fits");
                    }
                    for _ in 0..rng.gen_range(0..len as u64) {
                        table.append_row(&mut heap, &[key(&mut rng)]).expect("fits");
                    }
                    let mut preds =
                        vec![(0, u64::MAX), (u64::MAX, 0), (0, 0), (u64::MAX, u64::MAX)];
                    for _ in 0..16 {
                        let (a, b) = (key(&mut rng), key(&mut rng));
                        preds.extend([(a, b), (a, a), (a.max(1), a.max(1) - 1)]);
                    }
                    for (lo, hi) in preds {
                        let want = per_run_spans(&table, &heap, lo, hi);
                        let got = key_order_spans(&mut table, &heap, lo, hi);
                        prop_assert!(got == want, "{runs} runs of {len} keys, [{lo}, {hi}]");
                    }
                }
                CaseResult::Pass
            },
        );
    }

    #[test]
    fn a_refilled_table_answers_from_its_new_keys() {
        // Column 1 copies the key, so filtering on it is the value scan: an
        // answer that never reads the key order. A key order that outlived
        // `drop_storage` would search the refill's runs by the first fill's
        // keys.
        let (mut heap, mut table) = hot_table(2, 64);
        let mut rng = Rng::seed_from_u64(7);
        for fill in 0..3u64 {
            table.drop_storage(&mut heap);
            let keys: Vec<u64> = (0..640).map(|_| 1000 * fill + rng.gen_range(0..1000)).collect();
            for &key in &keys {
                table.append_row(&mut heap, &[key, key]).expect("fits");
            }
            assert_eq!(table.sealed_chunks(), 10);
            for _ in 0..32 {
                let held = keys[rng.gen_range(0..640u64) as usize];
                let lo = held.saturating_sub(rng.gen_range(0..100));
                for (lo, hi) in [(held, held), (lo, lo + rng.gen_range(0..200))] {
                    let index =
                        Query { filter: Predicate { col: 0, lo, hi }, project: 1, agg: None };
                    let scan = Query { filter: Predicate { col: 1, lo, hi }, ..index };
                    assert_eq!(
                        run_query(&mut heap, &mut table, &index, true),
                        run_query(&mut heap, &mut table, &scan, false),
                        "fill {fill}: [{lo}, {hi}]"
                    );
                }
            }
        }
    }
}
