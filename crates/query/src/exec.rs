//! The filter / project / aggregate executor.
//!
//! Two physical plans produce bit-identical answers:
//!
//! * **full scan** — view every sealed chunk of the filter column in place
//!   through [`Heap::view_prims`] (H2 chunks pay the real fault/arbitration
//!   path), build the chunk's selection bitmap — predicate lanes, minus
//!   tombstones — and view the projected column only for chunks whose
//!   bitmap is non-empty, gathering the set bits;
//! * **index probe** — when the predicate is on the table's key column,
//!   binary-search the frozen sorted runs that may hold a match
//!   ([`crate::table::Table::probe_index`]: zone maps prune by range, a
//!   point predicate also by each run's Bloom filter) and fetch exactly the
//!   matching rows.
//!
//! Both plans then run the open chunk's DRAM staging through the same
//! bitmap kernel, visit matches in ascending row order, skip tombstones,
//! and fold the same FNV answer checksum — `index == scan` is pinned by the
//! property suite. Nothing is copied out of the heap on the way: the only
//! per-op buffers are the match list, the candidate list and the bitmap,
//! and they are reused across ops ([`ExecBuffers`]).

use crate::table::Table;
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

/// The executor's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryResult {
    /// Rows the plan examined (full scan: every row; index probe: the
    /// candidate set) — the one field the two plans legitimately disagree
    /// on.
    pub rows_scanned: u64,
    /// Rows matching the predicate and not tombstoned.
    pub rows_matched: u64,
    /// The aggregate value (0 when `agg` is `None`).
    pub agg: u64,
    /// FNV-1a over `(row id, projected value)` of every match, ascending
    /// row order — the plan-independent answer.
    pub checksum: u64,
}

impl QueryResult {
    /// The plan-independent answer fields (everything but `rows_scanned`).
    pub fn answer(&self) -> (u64, u64, u64) {
        (self.rows_matched, self.agg, self.checksum)
    }
}

/// The executor's per-op working set, owned by the [`Table`] so it is
/// allocated once, not per operation.
#[derive(Debug, Default)]
pub(crate) struct ExecBuffers {
    /// `(row id, projected value)` of every match, ascending row order.
    matched: Vec<(usize, u64)>,
    /// The index plan's candidate row ids.
    hits: Vec<usize>,
    /// One chunk's selection bitmap: bit `i % 64` of word `i / 64` is row
    /// `i` of the chunk.
    bitmap: Vec<u64>,
}

/// Builds the selection bitmap of one chunk — the rows of `vals` (row ids
/// from `row0`) that satisfy `filter` and are not tombstoned — and returns
/// whether any bit is set. The lane is branch-free; a 64-lane block is
/// counted first (a reduction the compiler vectorizes) and its bits are
/// extracted only when the count is non-zero: selective scans find most
/// blocks empty.
fn select(
    table: &Table,
    filter: &Predicate,
    row0: usize,
    vals: &[u64],
    bitmap: &mut Vec<u64>,
) -> bool {
    bitmap.clear();
    // The span is hoisted by hand: with `filter.matches(v)` as the lane the
    // compiler re-derives it per lane and the scan runs 1.4-1.8x slower.
    let Some(span) = filter.span() else {
        return false;
    };
    let hit = |v: u64| v.wrapping_sub(filter.lo) <= span;
    let mut any = 0u64;
    for (w, block) in vals.chunks(64).enumerate() {
        let mut word = 0u64;
        if block.iter().filter(|&&v| hit(v)).count() != 0 {
            for (i, &v) in block.iter().enumerate() {
                word |= (hit(v) as u64) << i;
            }
            word &= !table.deleted_bits(row0 + 64 * w);
        }
        bitmap.push(word);
        any |= word;
    }
    any != 0
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
    let ExecBuffers { mut matched, mut hits, mut bitmap } = std::mem::take(&mut table.exec);
    matched.clear();
    let mut scanned = 0u64;

    if use_index && fcol == table.key_col() {
        table.probe_index(heap, q.filter.lo, q.filter.hi, &mut hits);
        scanned += hits.len() as u64;
        for &row in &hits {
            if table.is_deleted(row) {
                continue;
            }
            let v = table.read_col_at(heap, pcol, row / cr, row % cr);
            matched.push((row, v));
        }
    } else {
        for k in 0..table.sealed_chunks() {
            scanned += cr as u64;
            // The projected chunk's read is charged, so whether it happens
            // is part of the plan's cost: only when a live match survives.
            let any = table.view_col_chunk(heap, fcol, k, |vals| {
                let any = select(table, &q.filter, k * cr, vals, &mut bitmap);
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
        }
    }

    // The open chunk's staging rows — identical in both plans.
    let srows = table.staging_rows();
    let base = table.sealed_chunks() * cr;
    heap.charge_ops(srows as u64);
    if select(table, &q.filter, base, table.staging_col(fcol), &mut bitmap) {
        gather(&bitmap, base, table.staging_col(pcol), &mut matched);
    }
    scanned += srows as u64;

    let mut fnv = Fnv::new();
    let (mut sum, mut mn, mut mx) = (0u64, u64::MAX, 0u64);
    for &(row, v) in &matched {
        fnv.push(row as u64);
        fnv.push(v);
        sum = sum.wrapping_add(v);
        mn = mn.min(v);
        mx = mx.max(v);
    }
    let agg = match q.agg {
        None => 0,
        Some(Agg::Count) => matched.len() as u64,
        Some(Agg::Sum) => sum,
        Some(Agg::Min) => mn,
        Some(Agg::Max) => mx,
    };
    let result = QueryResult {
        rows_scanned: scanned,
        rows_matched: matched.len() as u64,
        agg,
        checksum: fnv.finish(),
    };
    table.exec = ExecBuffers { matched, hits, bitmap };
    result
}
