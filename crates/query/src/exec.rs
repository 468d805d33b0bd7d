//! The filter / project / aggregate executor.
//!
//! Two physical plans produce bit-identical answers:
//!
//! * **full scan** — stream every sealed chunk of the filter column through
//!   [`Heap::read_prims`] (H2 chunks pay the real fault/arbitration path),
//!   evaluate the predicate, and fetch the projected column only for chunks
//!   with at least one match;
//! * **index probe** — when the predicate is on the table's key column,
//!   binary-search the frozen sorted runs
//!   ([`crate::table::Table::probe_index`]) and fetch exactly the matching
//!   rows.
//!
//! Both plans then scan the open chunk's DRAM staging identically, visit
//! matches in ascending row order, skip tombstones, and fold the same
//! FNV answer checksum — `index == scan` is pinned by the property suite.

use crate::report::Fnv;
use crate::table::Table;
use teraheap_runtime::Heap;

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
    /// Whether `v` satisfies the predicate.
    pub fn matches(&self, v: u64) -> bool {
        self.lo <= v && v <= self.hi
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

/// Runs `q` against `table`. `use_index` selects the index-probe plan; it
/// silently falls back to the full scan when the predicate is not on the
/// key column.
pub fn run_query(heap: &mut Heap, table: &mut Table, q: &Query, use_index: bool) -> QueryResult {
    let cr = table.chunk_rows();
    let mut matched: Vec<(usize, u64)> = Vec::new();
    let mut scanned = 0u64;

    if use_index && q.filter.col == table.key_col() {
        let rows = table.probe_index(heap, q.filter.lo, q.filter.hi);
        scanned += rows.len() as u64;
        for row in rows {
            if table.is_deleted(row) {
                continue;
            }
            let v = table.read_col_at(heap, q.project, row / cr, row % cr);
            matched.push((row, v));
        }
    } else {
        let mut scratch = std::mem::take(&mut table.scratch);
        let (fbuf, pbuf) = scratch.split_at_mut(cr);
        for k in 0..table.sealed_chunks() {
            table.read_col_chunk(heap, q.filter.col, k, fbuf);
            scanned += cr as u64;
            let any = (0..cr)
                .any(|i| q.filter.matches(fbuf[i]) && !table.is_deleted(k * cr + i));
            if !any {
                continue;
            }
            let proj: &[u64] = if q.project == q.filter.col {
                fbuf
            } else {
                table.read_col_chunk(heap, q.project, k, pbuf);
                pbuf
            };
            for i in 0..cr {
                let row = k * cr + i;
                if q.filter.matches(fbuf[i]) && !table.is_deleted(row) {
                    matched.push((row, proj[i]));
                }
            }
        }
        table.scratch = scratch;
    }

    // The open chunk's staging rows — identical in both plans.
    let srows = table.staging_rows();
    let base = table.sealed_chunks() * cr;
    heap.charge_ops(srows as u64);
    for i in 0..srows {
        let row = base + i;
        if q.filter.matches(table.staging_val(q.filter.col, i)) && !table.is_deleted(row) {
            matched.push((row, table.staging_val(q.project, i)));
        }
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
    QueryResult {
        rows_scanned: scanned,
        rows_matched: matched.len() as u64,
        agg,
        checksum: fnv.finish(),
    }
}
