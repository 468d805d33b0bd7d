//! The executor reads H2 in the order it is laid out (DESIGN.md §14).
//!
//! A cold table loaded the way the session driver loads it — appends
//! interleaved with the minor collections eden fills trigger, then one
//! major collection — lands in H2 out of directory order, because the
//! scavenger tenures a chunk per eden fill after the ones sealed behind it
//! and the major collection places tagged roots by H1 address. A full-scan
//! aggregate that visits the chunks in storage order takes nearly every
//! fault sequentially, inside the mapping's readahead window; visiting them
//! in directory order (`k = 0, 1, 2, …`) takes a random fault at every jump
//! back and another at every jump forward again. The answer is the same.

use std::sync::Arc;
use teraheap_core::H2Config;
use teraheap_query::{
    gen_rows, run_query, Agg, Fnv, Predicate, Query, QueryResult, Table, TableConfig,
    TablePlacement, COLS,
};
use teraheap_runtime::{Heap, HeapConfig};
use teraheap_storage::{DeviceSpec, SharedDevice, SimClock};

const ROWS: usize = 16384;
const CHUNK_ROWS: usize = 256;

/// A hot and a cold copy of one table, loaded row by row on a heap whose
/// 32 Ki-word young generation fills every ten or so seals, then one major
/// collection, as the session driver builds a tenant (the shape of
/// `query_cold`, at half its rows). The cold copy (640 KiB of chunks and
/// runs) is twenty times the 32 KiB page cache. Returns the cold copy.
fn cold_table() -> (Heap, Table) {
    let h2 = H2Config::builder()
        .region_words(8 << 10)
        .n_regions(64)
        .card_seg_words(512)
        .resident_budget_bytes(32 << 10)
        .page_size(4096)
        .promo_buffer_bytes(16 << 10)
        .build()
        .expect("valid H2 config");
    let clock = Arc::new(SimClock::new());
    let device = SharedDevice::new(DeviceSpec::nvme_ssd(), h2.footprint_bytes(), clock.clone());
    let mut heap = Heap::with_clock(HeapConfig::with_words(32 << 10, 256 << 10), clock);
    heap.attach_h2(h2, &device).expect("sole tenant attaches");
    let table = |table_id, placement| {
        Table::new(TableConfig {
            table_id,
            cols: COLS,
            chunk_rows: CHUNK_ROWS,
            key_col: 0,
            placement,
        })
    };
    let (mut hot, mut cold) = (table(1, TablePlacement::Hot), table(2, TablePlacement::Cold));
    for row in gen_rows(ROWS, 42) {
        hot.append_row(&mut heap, &row).expect("fits");
        cold.append_row(&mut heap, &row).expect("fits");
    }
    heap.gc_major().expect("fits");
    assert!(heap.stats().minor_count > 1, "the load ran through several minor collections");
    assert_eq!(cold.h2_resident_chunks(&heap), COLS * ROWS / CHUNK_ROWS, "the cold copy is in H2");
    (heap, cold)
}

/// H2 page faults and how many of them were sequential, so far.
fn faults(heap: &Heap) -> (u64, u64) {
    let io = heap.h2().expect("attached").mmap().stats();
    (io.page_faults(), io.seq_faults())
}

/// The share of the faults since `before` that were sequential.
fn seq_share(heap: &Heap, before: (u64, u64)) -> f64 {
    let (f, s) = faults(heap);
    assert!(f > before.0, "the scan faulted");
    (s - before.1) as f64 / (f - before.0) as f64
}

/// `q`'s `(rows matched, sum, checksum)` with the chunks viewed in directory
/// order: the filter chunk, then the projected chunk if a row matched.
fn directory_order_answer(heap: &mut Heap, table: &Table, q: &Query) -> QueryResult {
    let mut fnv = Fnv::new();
    let (mut count, mut sum) = (0u64, 0u64);
    for k in 0..table.sealed_chunks() {
        let rows: Vec<usize> = table.view_col_chunk(heap, q.filter.col, k, |vals| {
            (0..CHUNK_ROWS).filter(|&i| q.filter.matches(vals[i])).collect()
        });
        if rows.is_empty() {
            continue;
        }
        table.view_col_chunk(heap, q.project, k, |vals| {
            for &i in &rows {
                fnv.push((k * CHUNK_ROWS + i) as u64);
                fnv.push(vals[i]);
                count += 1;
                sum = sum.wrapping_add(vals[i]);
            }
        });
    }
    QueryResult { rows_matched: count, agg: sum, checksum: fnv.finish() }
}

#[test]
fn cold_aggregate_faults_sequentially_in_storage_order() {
    // The session mix's aggregate: a 192-key range of the shuffled key
    // column, summing the second value column, through the full scan.
    let q = Query {
        filter: Predicate { col: 0, lo: 10_000, hi: 10_000 + 192 * 8 },
        project: 2,
        agg: Some(Agg::Sum),
    };
    let (mut heap, mut table) = cold_table();
    assert_eq!(table.staging_rows(), 0);
    let order = table.storage_order(&heap, table.key_col()).to_vec();
    assert!(
        order.iter().enumerate().any(|(r, &k)| r != k),
        "the key column is laid out in directory order, so the test exercises nothing"
    );
    let before = faults(&heap);
    let res = run_query(&mut heap, &mut table, &q, false);
    let storage_share = seq_share(&heap, before);

    let (mut twin_heap, twin) = cold_table();
    let before = faults(&twin_heap);
    let want = directory_order_answer(&mut twin_heap, &twin, &q);
    let directory_share = seq_share(&twin_heap, before);

    assert!(res.rows_matched > 0, "the range matches rows");
    assert_eq!(res, want, "storage order changed the answer");
    assert!(
        storage_share >= 0.9,
        "storage order took {:.1}% of its faults sequentially",
        100.0 * storage_share
    );
    assert!(
        directory_share < 0.9,
        "directory order already took {:.1}% of its faults sequentially",
        100.0 * directory_share
    );
}
