//! The filter / project / aggregate executor.
//!
//! Two physical plans produce bit-identical answers. Both read sealed
//! chunks in *storage order* (ascending heap address, kept by the table),
//! so an H2 scan meets its pages in the order the device holds them and
//! rides readahead:
//!
//! * **full scan** — view every sealed chunk of the filter column in place
//!   through [`Heap::view_prims`] (H2 chunks pay the real fault/arbitration
//!   path) and build the chunk's selection bitmap: a key-column chunk's from
//!   its frozen sorted run, read uncharged through [`Heap::peek_prims`]
//!   (one bit per row id of the run's matching keys, which one walk of the
//!   table's key order finds for every run before the chunk loop; the
//!   chunk's view is charged all the same), any other chunk's from its
//!   predicate lanes. View the projected column only for chunks whose
//!   bitmap is non-empty, gathering the set bits;
//! * **index probe** — when the predicate is on the table's key column,
//!   view the frozen sorted runs that may hold a match (`Table::probe_runs`:
//!   zone maps prune by range, a point predicate also by each run's Bloom
//!   filter), take each run's matches from the same key-order walk, and
//!   fetch exactly the matching rows, by `(storage rank of the projected
//!   chunk, row)`.
//!
//! Both plans then run the open chunk's DRAM staging through the same
//! bitmap kernel and fold the same FNV answer checksum over the matches in
//! ascending row order, whatever order they were read in — `index == scan`
//! is pinned by the property suite. Nothing is copied
//! out of the heap on the way: the only per-op buffers are the match list,
//! its chunk spans, the candidate list and the bitmap, and they are reused
//! across ops (`ExecBuffers`).

use crate::table::Table;
use std::ops::Range;
use teraheap_runtime::Heap;
use teraheap_util::Fnv;

/// An inclusive range predicate on one column (`lo == hi` is a point
/// lookup).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Predicate {
    /// Filtered column.
    pub col: usize,
    /// Inclusive lower bound.
    pub lo: u64,
    /// Inclusive upper bound.
    pub hi: u64,
}

impl Predicate {
    /// Whether `v` satisfies the predicate; nothing does when `lo > hi`.
    pub fn matches(&self, v: u64) -> bool {
        self.span().is_some_and(|span| v.wrapping_sub(self.lo) <= span)
    }

    /// The predicate as one unsigned compare: `v` matches iff
    /// `v.wrapping_sub(lo) <= span`. `None` is the empty predicate
    /// (`lo > hi`).
    fn span(&self) -> Option<u64> {
        self.hi.checked_sub(self.lo)
    }
}

/// Aggregate over the projected column of the matching rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// Matching-row count.
    Count,
    /// Wrapping sum of the projected values.
    Sum,
    /// Minimum projected value (`u64::MAX` when nothing matches).
    Min,
    /// Maximum projected value (0 when nothing matches).
    Max,
}

/// One query: filter, project one column, optionally aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// The filter predicate.
    pub filter: Predicate,
    /// Projected column.
    pub project: usize,
    /// Optional aggregate; `None` returns the matched set (as a checksum).
    pub agg: Option<Agg>,
}

/// The executor's result: the same for every plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryResult {
    /// Rows matching the predicate.
    pub rows_matched: u64,
    /// The aggregate value (0 when `agg` is `None`).
    pub agg: u64,
    /// FNV-1a over `(row id, projected value)` of every match, ascending
    /// row order — the plan-independent answer.
    pub checksum: u64,
}

/// The executor's per-op working set, owned by the [`Table`] so it is
/// allocated once, not per operation.
#[derive(Debug, Default)]
pub(crate) struct ExecBuffers {
    /// `(row id, projected value)` of every match, chunk by chunk in the
    /// order the plan read the chunks, ascending row order within a chunk.
    matched: Vec<(usize, u64)>,
    /// Where each sealed chunk's matches sit in `matched`.
    spans: ChunkSpans,
    /// The index plan's candidate row ids, then its fetch order.
    hits: Vec<usize>,
    /// One chunk's selection bitmap: bit `i % 64` of word `i / 64` is row
    /// `i` of the chunk.
    bitmap: Vec<u64>,
}

/// The index plan packs a hit's fetch rank above its row id, so one
/// integer sort orders hits by `(rank, row)`; row ids fit below.
const RANK_SHIFT: u32 = 32;
const ROW_MASK: usize = (1 << RANK_SHIFT) - 1;

/// The span of the match list holding each sealed chunk's matches, and a
/// bitmap of the chunks that have one, so the answer folds the matches in
/// chunk — hence row — order whatever order the chunks were read in,
/// without sorting the matches.
#[derive(Debug, Default)]
struct ChunkSpans {
    /// `spans[k]`: chunk `k`'s matches, when bit `k` of `seen` is set.
    spans: Vec<Range<usize>>,
    /// Bit `k % 64` of word `k / 64`: chunk `k` has a span.
    seen: Vec<u64>,
}

impl ChunkSpans {
    /// Forgets every span, for a table of `chunks` sealed chunks.
    fn reset(&mut self, chunks: usize) {
        self.spans.resize(chunks, 0..0);
        self.seen.clear();
        self.seen.resize(chunks.div_ceil(64), 0);
    }

    /// Records `span` of the match list as chunk `k`'s, if it is not empty.
    fn record(&mut self, k: usize, span: Range<usize>) {
        if !span.is_empty() {
            self.seen[k / 64] |= 1 << (k % 64);
            self.spans[k] = span;
        }
    }

    /// Calls `f` on every recorded span, by ascending chunk.
    fn for_each_ascending(&self, mut f: impl FnMut(Range<usize>)) {
        for (w, &word) in self.seen.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                f(self.spans[64 * w + bits.trailing_zeros() as usize].clone());
                bits &= bits - 1;
            }
        }
    }
}

/// Builds the selection bitmap of one chunk — the rows of `vals` that
/// satisfy `filter` — and returns whether any bit is set. The lane is
/// branch-free; a 64-lane block is counted first (a reduction the compiler
/// vectorizes) and its bits are extracted only when the count is non-zero:
/// selective scans find most blocks empty.
fn select(filter: &Predicate, vals: &[u64], bitmap: &mut Vec<u64>) -> bool {
    bitmap.clear();
    // The span is hoisted by hand: with `filter.matches(v)` as the lane the
    // compiler re-derives it per lane and the scan runs 1.4-1.8x slower.
    let Some(span) = filter.span() else {
        return false;
    };
    let hit = |v: u64| v.wrapping_sub(filter.lo) <= span;
    let mut any = 0u64;
    for block in vals.chunks(64) {
        let mut word = 0u64;
        if block.iter().filter(|&&v| hit(v)).count() != 0 {
            for (i, &v) in block.iter().enumerate() {
                word |= (hit(v) as u64) << i;
            }
        }
        bitmap.push(word);
        any |= word;
    }
    any != 0
}

/// [`select`] for sealed chunk `k` of the key column, from its frozen index
/// run `[sorted keys | row ids]` ([`Table::peek_run`]) instead of its
/// values: the matching keys are the run's span of the range last walked
/// ([`Table::key_span`]), and their row ids are the bits. O(matches)
/// instead of a pass over the chunk.
fn select_run(table: &Table, heap: &Heap, k: usize, bitmap: &mut Vec<u64>) -> bool {
    bitmap.clear();
    let (start, n) = table.key_span(k);
    if n == 0 {
        return false;
    }
    let cr = table.chunk_rows();
    bitmap.resize(cr.div_ceil(64), 0);
    let row0 = (k * cr) as u64;
    for &row in &table.peek_run(heap, k)[cr + start..cr + start + n] {
        let i = (row - row0) as usize;
        bitmap[i / 64] |= 1 << (i % 64);
    }
    true
}

/// Appends `(row id, projected value)` for every set bit of `bitmap`,
/// ascending.
fn gather(bitmap: &[u64], row0: usize, proj: &[u64], matched: &mut Vec<(usize, u64)>) {
    for (w, &word) in bitmap.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let i = 64 * w + bits.trailing_zeros() as usize;
            matched.push((row0 + i, proj[i]));
            bits &= bits - 1;
        }
    }
}

/// Runs `q` against `table`. `use_index` selects the index-probe plan; it
/// silently falls back to the full scan when the predicate is not on the
/// key column.
pub fn run_query(heap: &mut Heap, table: &mut Table, q: &Query, use_index: bool) -> QueryResult {
    let cr = table.chunk_rows();
    let (fcol, pcol) = (q.filter.col, q.project);
    let ExecBuffers { mut matched, mut spans, mut hits, mut bitmap } =
        std::mem::take(&mut table.exec);
    matched.clear();
    spans.reset(table.sealed_chunks());

    if use_index && fcol == table.key_col() {
        table.probe_runs(heap, q.filter.lo, q.filter.hi, &mut hits);
        // Fetch by the projected chunk's storage rank, then by row: the rank
        // packed above the row id sorts on both at once.
        debug_assert!(table.rows() <= ROW_MASK, "row ids fit below the rank");
        for hit in &mut hits {
            *hit |= table.rank(pcol, *hit / cr) << RANK_SHIFT;
        }
        hits.sort_unstable();
        for chunk in hits.chunk_by(|a, b| a >> RANK_SHIFT == b >> RANK_SHIFT) {
            let (start, k) = (matched.len(), (chunk[0] & ROW_MASK) / cr);
            for &hit in chunk {
                let row = hit & ROW_MASK;
                matched.push((row, table.read_col_at(heap, pcol, k, row % cr)));
            }
            spans.record(k, start..matched.len());
        }
    } else {
        table.refresh_storage_order(heap);
        let by_run = fcol == table.key_col();
        if by_run {
            table.walk_keys(heap, q.filter.lo, q.filter.hi);
        }
        for &k in table.order(fcol) {
            let start = matched.len();
            // A key-column chunk selects from its sorted run; its view below
            // is charged all the same. The projected chunk's read is charged
            // too, so whether it happens is part of the plan's cost: only
            // when the chunk has a match.
            let run_any = by_run && select_run(table, heap, k, &mut bitmap);
            let any = table.view_col_chunk(heap, fcol, k, |vals| {
                let any = if by_run { run_any } else { select(&q.filter, vals, &mut bitmap) };
                if any && pcol == fcol {
                    gather(&bitmap, k * cr, vals, &mut matched);
                }
                any
            });
            if any && pcol != fcol {
                table.view_col_chunk(heap, pcol, k, |vals| {
                    gather(&bitmap, k * cr, vals, &mut matched)
                });
            }
            spans.record(k, start..matched.len());
        }
    }

    // The open chunk's staging rows — identical in both plans.
    let srows = table.staging_rows();
    let base = table.sealed_chunks() * cr;
    let staged = matched.len();
    heap.charge_ops(srows as u64);
    if select(&q.filter, table.staging_col(fcol), &mut bitmap) {
        gather(&bitmap, base, table.staging_col(pcol), &mut matched);
    }

    let mut fnv = Fnv::new();
    let (mut sum, mut mn, mut mx) = (0u64, u64::MAX, 0u64);
    let mut fold = |span: Range<usize>| {
        for &(row, v) in &matched[span] {
            fnv.push(row as u64);
            fnv.push(v);
            sum = sum.wrapping_add(v);
            mn = mn.min(v);
            mx = mx.max(v);
        }
    };
    spans.for_each_ascending(&mut fold);
    fold(staged..matched.len());
    let agg = match q.agg {
        None => 0,
        Some(Agg::Count) => matched.len() as u64,
        Some(Agg::Sum) => sum,
        Some(Agg::Min) => mn,
        Some(Agg::Max) => mx,
    };
    let result = QueryResult { rows_matched: matched.len() as u64, agg, checksum: fnv.finish() };
    table.exec = ExecBuffers { matched, spans, hits, bitmap };
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{TableConfig, TablePlacement};
    use teraheap_core::H2Config;
    use teraheap_runtime::HeapConfig;
    use teraheap_storage::{DeviceSpec, SharedDevice};
    use teraheap_util::rng::Rng;

    /// A table of `rows` rows after a major cycle (which moves a cold
    /// table's chunks and runs to H2). Keys are drawn from 0..600 and every
    /// fifth repeats the one before it, so every chunk holds a duplicate.
    fn table(placement: TablePlacement, chunk_rows: usize, rows: usize) -> (Heap, Table) {
        let mut heap = Heap::new(HeapConfig::with_words(16 << 10, 96 << 10));
        if placement == TablePlacement::Cold {
            let h2 = H2Config::builder()
                .region_words(2 << 10)
                .n_regions(32)
                .card_seg_words(512)
                .resident_budget_bytes(128 << 10)
                .page_size(4096)
                .promo_buffer_bytes(16 << 10)
                .build()
                .expect("valid H2 config");
            let dev = SharedDevice::new(
                DeviceSpec::nvme_ssd(),
                h2.footprint_bytes(),
                heap.clock().clone(),
            );
            heap.attach_h2(h2, &dev).expect("sole tenant attaches");
        }
        let mut table =
            Table::new(TableConfig { table_id: 1, cols: 2, chunk_rows, key_col: 0, placement });
        let mut rng = Rng::seed_from_u64(chunk_rows as u64);
        let mut key = 0;
        for row in 0..rows as u64 {
            if row % 5 != 4 {
                key = rng.gen_range(0..600u64);
            }
            table.append_row(&mut heap, &[key, row]).expect("fits");
        }
        heap.gc_major().expect("fits");
        (heap, table)
    }

    /// A selection's answer: whether it matched, and its set bits.
    fn selected(any: bool, bitmap: &[u64]) -> (bool, Vec<usize>) {
        let bits = (0..64 * bitmap.len()).filter(|&i| bitmap[i / 64] >> (i % 64) & 1 == 1);
        (any, bits.collect())
    }

    #[test]
    fn run_bitmaps_equal_value_scan_bitmaps() {
        let (mut want, mut got) = (Vec::new(), Vec::new());
        for placement in [TablePlacement::Hot, TablePlacement::Cold] {
            for chunk_rows in [10, 64, 100, 256] {
                let (mut heap, mut table) = table(placement, chunk_rows, 1000);
                let cold = table.h2_resident_chunks(&heap) > 0;
                assert_eq!(cold, placement == TablePlacement::Cold, "{placement:?}");
                for k in 0..table.sealed_chunks() {
                    let mut keys = table.view_col_chunk(&mut heap, 0, k, <[u64]>::to_vec);
                    keys.sort_unstable();
                    let (min, max) = (keys[0], keys[chunk_rows - 1]);
                    let dup = keys.windows(2).find(|w| w[0] == w[1]).expect("a duplicate")[0];
                    let mut preds = vec![
                        (min + 1, min),
                        (u64::MAX, 0),
                        (max + 1, u64::MAX),
                        (min, min),
                        (min.saturating_sub(3), min),
                        (max, max),
                        (max, max + 3),
                        (dup, dup),
                        (min, max),
                        (0, u64::MAX),
                    ];
                    if min > 0 {
                        preds.push((0, min - 1));
                    }
                    for (lo, hi) in preds {
                        let filter = Predicate { col: 0, lo, hi };
                        let scan = table.view_col_chunk(&mut heap, 0, k, |vals| {
                            select(&filter, vals, &mut want)
                        });
                        table.walk_keys(&heap, lo, hi);
                        let run = select_run(&table, &heap, k, &mut got);
                        assert_eq!(
                            selected(run, &got),
                            selected(scan, &want),
                            "{placement:?} chunk_rows {chunk_rows} chunk {k} [{lo}, {hi}]"
                        );
                    }
                }
            }
        }
    }
}
