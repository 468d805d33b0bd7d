//! Property suite for the query executor and session plane.
//!
//! * Random append-only tables + random queries: the executor (both
//!   physical plans) must match a naive host-side full-scan oracle.
//! * The index-probe plan must be answer-bit-equal to the full-scan plan,
//!   point lookups of held and absent keys (which the runs' Bloom filters
//!   prune) included.
//! * Neither plan's result may depend on the order it visits chunks and
//!   runs in: a permuted storage order answers like the real one.
//! * The full-scan plan must charge exactly what the two-pass reference
//!   plan charges: every filter chunk, and a projected chunk only when the
//!   chunk has a match.
//! * Answers must be invariant across device models and `gc_threads` —
//!   runtime knobs move simulated time, never results.
//! * A fixed seed must replay the whole plane bit-identically, latencies
//!   included.

use teraheap_core::H2Config;
use teraheap_query::{
    run_query, run_query_plane, Agg, Fnv, Predicate, Query, QueryPlaneConfig, QueryResult, Table,
    TableConfig, TablePlacement,
};
use teraheap_runtime::{Heap, HeapConfig};
use teraheap_storage::{DeviceSpec, SharedDevice};
use teraheap_util::proptest_mini::{
    check, range_u64, range_usize, vec_of, CaseResult, Config, Just, Strategy,
};
use teraheap_util::rng::Rng;
use teraheap_util::{prop_assert_eq, prop_oneof};

const COLS: usize = 3;

fn small_h2() -> H2Config {
    H2Config::builder()
        .region_words(2 << 10)
        .n_regions(32)
        .card_seg_words(512)
        .resident_budget_bytes(128 << 10)
        .page_size(4096)
        .promo_buffer_bytes(16 << 10)
        .build()
        .expect("valid H2 config")
}

fn test_heap() -> Heap {
    let mut heap = Heap::new(HeapConfig::with_words(16 << 10, 96 << 10));
    let h2 = small_h2();
    let dev = SharedDevice::new(DeviceSpec::nvme_ssd(), h2.footprint_bytes(), heap.clock().clone());
    heap.attach_h2(h2, &dev).unwrap();
    heap
}

/// Host-side mirror of one table: its plain rows.
struct Mirror {
    rows: Vec<[u64; COLS]>,
}

impl Mirror {
    /// The oracle: a naive full scan over the mirror, folding the same
    /// answer conventions as the executor.
    fn oracle(&self, q: &Query) -> QueryResult {
        let mut fnv = Fnv::new();
        let (mut count, mut sum, mut mn, mut mx) = (0u64, 0u64, u64::MAX, 0u64);
        for (row, vals) in self.rows.iter().enumerate() {
            let f = vals[q.filter.col];
            if q.filter.lo <= f && f <= q.filter.hi {
                let v = vals[q.project];
                fnv.push(row as u64);
                fnv.push(v);
                count += 1;
                sum = sum.wrapping_add(v);
                mn = mn.min(v);
                mx = mx.max(v);
            }
        }
        let agg = match q.agg {
            None => 0,
            Some(Agg::Count) => count,
            Some(Agg::Sum) => sum,
            Some(Agg::Min) => mn,
            Some(Agg::Max) => mx,
        };
        QueryResult { rows_matched: count, agg, checksum: fnv.finish() }
    }
}

/// ((filter col, lo, span), (project col, agg selector), predicate shape).
type QuerySpecTuple = ((usize, u64, u64), (usize, usize), usize);

fn query_strategy() -> impl Strategy<Value = QuerySpecTuple> {
    (
        (range_usize(0..COLS), range_u64(0..600), range_u64(0..250)),
        (range_usize(0..COLS), range_usize(0..5)),
        range_usize(0..10),
    )
}

/// The query of a spec against the table `mirror` holds.
fn build_query(((col, lo, span), (project, agg), shape): QuerySpecTuple, mirror: &Mirror) -> Query {
    let agg = match agg {
        0 => None,
        1 => Some(Agg::Count),
        2 => Some(Agg::Sum),
        3 => Some(Agg::Min),
        _ => Some(Agg::Max),
    };
    // Point lookups are on the key column, so the index plan asks the runs'
    // filters: a drawn key (held by some runs or by none), or a held one.
    let held = mirror.rows[lo as usize % mirror.rows.len()][0];
    let (col, lo, hi) = match shape {
        // Inverted: matches nothing, whatever the values.
        0 => (col, lo + span + 1, lo),
        1 => (col, 0, lo),
        2 => (col, lo, u64::MAX),
        7 => (0, lo, lo),
        8 | 9 => (0, held, held),
        _ => (col, lo, lo + span),
    };
    Query { filter: Predicate { col, lo, hi }, project, agg }
}

/// A cold table of `rows` seeded rows, with its mirror. Cold placement and
/// several sealed chunks: most reads go through H2 after the major GC.
fn cold_table(chunk_rows: usize, rows: usize, seed: u64) -> (Heap, Table, Mirror) {
    let mut heap = test_heap();
    let mut table = Table::new(TableConfig {
        table_id: 1,
        cols: COLS,
        chunk_rows,
        key_col: 0,
        placement: TablePlacement::Cold,
    });
    let mut rng = Rng::seed_from_u64(seed);
    let mut mirror = Mirror { rows: Vec::new() };
    for _ in 0..rows {
        let row = [rng.gen_range(0..600u64), rng.gen_range(0..600u64), rng.gen_range(0..600u64)];
        table.append_row(&mut heap, &row).unwrap();
        mirror.rows.push(row);
    }
    heap.gc_major().unwrap();
    (heap, table, mirror)
}

/// The charges of the full-scan plan by the two-pass rule it replaced:
/// read every sealed filter chunk, in storage order; read the projected
/// chunk only if some row of the chunk matches; one op per staged row.
fn reference_scan_charges(heap: &mut Heap, table: &mut Table, q: &Query) {
    let cr = table.chunk_rows();
    for k in table.storage_order(heap, q.filter.col).to_vec() {
        let any = table.view_col_chunk(heap, q.filter.col, k, |vals| {
            vals[..cr].iter().any(|&v| q.filter.lo <= v && v <= q.filter.hi)
        });
        if any && q.project != q.filter.col {
            table.view_col_chunk(heap, q.project, k, |_| ());
        }
    }
    heap.charge_ops(table.staging_rows() as u64);
}

/// (chunk rows, rows, seed) of a [`cold_table`].
type TableSpec = (usize, usize, u64);

/// Chunk sizes from 10 rows to the default 256, up to 600 rows.
fn table_strategy() -> impl Strategy<Value = TableSpec> {
    (
        prop_oneof![
            1 => Just(10usize),
            1 => Just(32usize),
            1 => Just(64usize),
            1 => Just(100usize),
            1 => Just(256usize),
        ],
        range_usize(1..600),
        range_u64(0..u64::MAX),
    )
}

#[test]
fn executor_matches_naive_oracle_and_index_equals_scan() {
    check(
        "executor_matches_naive_oracle_and_index_equals_scan",
        &(table_strategy(), vec_of(query_strategy(), 1..8)),
        &Config::with_cases(48),
        |((chunk_rows, rows, seed), queries): (TableSpec, Vec<QuerySpecTuple>)| {
            // Twins: one runs the executor, the other the reference plan's
            // charges; they see the same op sequence otherwise, so their
            // page caches stay in lockstep.
            let (mut heap, mut table, mirror) = cold_table(chunk_rows, rows, seed);
            let (mut ref_heap, mut ref_table, _) = cold_table(chunk_rows, rows, seed);

            for spec in queries {
                let q = build_query(spec, &mirror);
                let (before, ref_before) = (heap.clock().total_ns(), ref_heap.clock().total_ns());
                let scan = run_query(&mut heap, &mut table, &q, false);
                reference_scan_charges(&mut ref_heap, &mut ref_table, &q);
                prop_assert_eq!(
                    heap.clock().total_ns() - before,
                    ref_heap.clock().total_ns() - ref_before,
                    "full scan charged differently from the two-pass reference"
                );
                let probe = run_query(&mut heap, &mut table, &q, true);
                let ref_probe = run_query(&mut ref_heap, &mut ref_table, &q, true);
                prop_assert_eq!(scan, mirror.oracle(&q), "full scan disagrees with the oracle");
                prop_assert_eq!(probe, scan, "index plan disagrees with the scan plan");
                prop_assert_eq!(probe, ref_probe, "twins diverged");
                prop_assert_eq!(heap.clock().total_ns(), ref_heap.clock().total_ns());
            }
            CaseResult::Pass
        },
    );
}

#[test]
fn answers_do_not_depend_on_visiting_order() {
    // Twins again: one visits chunks and runs in storage order, the other
    // in a seeded permutation of it. Every result field must agree, and
    // both plans must still match the oracle.
    check(
        "answers_do_not_depend_on_visiting_order",
        &((table_strategy(), range_u64(0..u64::MAX)), vec_of(query_strategy(), 1..8)),
        &Config::with_cases(48),
        |(((chunk_rows, rows, seed), perm), queries): ((TableSpec, u64), Vec<QuerySpecTuple>)| {
            let (mut heap, mut table, mirror) = cold_table(chunk_rows, rows, seed);
            let (mut perm_heap, mut perm_table, _) = cold_table(chunk_rows, rows, seed);
            perm_table.permute_storage_order(&perm_heap, perm);
            for spec in queries {
                let q = build_query(spec, &mirror);
                for use_index in [false, true] {
                    let want = run_query(&mut heap, &mut table, &q, use_index);
                    let got = run_query(&mut perm_heap, &mut perm_table, &q, use_index);
                    prop_assert_eq!(got, want, "a permuted visiting order moved the result");
                    prop_assert_eq!(got, mirror.oracle(&q), "disagrees with the oracle");
                }
            }
            CaseResult::Pass
        },
    );
}

#[test]
fn answers_are_invariant_across_runtime_knobs() {
    // Device model and GC parallelism move *when* things happen, never
    // *what* the queries answer: the plane's canonical checksum must agree
    // across every knob combination.
    let devices = [DeviceSpec::nvme_ssd(), DeviceSpec::optane_nvm(), DeviceSpec::dram()];
    let mut reference = None;
    for device in devices {
        for gc_threads in [1usize, 4] {
            let mut cfg = QueryPlaneConfig::new(device);
            cfg.heap = HeapConfig { gc_threads, ..HeapConfig::with_words(16 << 10, 96 << 10) };
            cfg.heap.validate().expect("valid heap config");
            cfg.tenants = 2;
            cfg.sessions = 4;
            cfg.total_ops = 96;
            cfg.rows_per_table = 512;
            cfg.chunk_rows = 64;
            let report = run_query_plane(&cfg).expect("plane runs");
            match reference {
                None => reference = Some(report.checksum),
                Some(want) => {
                    assert_eq!(report.checksum, want, "answers drifted at gc_threads={gc_threads}")
                }
            }
        }
    }
}

#[test]
fn fixed_seed_replays_the_plane_bit_identically() {
    for seed in [1u64, 0xdead_beef, 0x7e11_bee5] {
        let mut cfg = QueryPlaneConfig::new(DeviceSpec::nvme_ssd());
        cfg.tenants = 2;
        cfg.sessions = 6;
        cfg.total_ops = 96;
        cfg.rows_per_table = 512;
        cfg.chunk_rows = 64;
        cfg.seed = seed;
        let a = run_query_plane(&cfg).expect("plane runs");
        let b = run_query_plane(&cfg).expect("plane runs");
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.all, b.all, "latency population must replay exactly");
        assert_eq!(a.per_kind, b.per_kind);
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!(a.device_vtime_ns, b.device_vtime_ns);
        assert_eq!(a.device_queued_ns, b.device_queued_ns);
        assert_eq!(a.h2_chunks, b.h2_chunks);
    }
}
