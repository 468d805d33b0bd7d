//! Property suite for the query executor and session plane.
//!
//! * Random tables + mutation churn + random queries: the executor (both
//!   physical plans) must match a naive host-side full-scan oracle.
//! * The index-probe plan must be answer-bit-equal to the full-scan plan.
//! * The full-scan plan must charge exactly what the two-pass reference
//!   plan charges: every filter chunk, and a projected chunk only when a
//!   live match survives in it.
//! * Answers must be invariant across device models, `gc_threads` and
//!   `pause_budget_ns` — runtime knobs move simulated time, never results.
//! * A fixed seed must replay the whole plane bit-identically, latencies
//!   included.

use teraheap_core::H2Config;
use teraheap_query::{
    run_query, run_query_plane, Agg, Fnv, Predicate, Query, QueryPlaneConfig, Table, TableConfig,
    TablePlacement,
};
use teraheap_runtime::{Heap, HeapConfig};
use teraheap_storage::{DeviceSpec, SharedDevice};
use teraheap_util::proptest_mini::{
    check, range_u64, range_usize, vec_of, CaseResult, Config, Just, Strategy,
};
use teraheap_util::rng::Rng;
use teraheap_util::{prop_assert, prop_assert_eq, prop_oneof};

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

/// Host-side mirror of one table: plain rows + tombstones.
struct Mirror {
    rows: Vec<[u64; COLS]>,
    deleted: Vec<bool>,
}

impl Mirror {
    /// The oracle: a naive full scan over the mirror, folding the same
    /// answer conventions as the executor.
    fn oracle(&self, q: &Query) -> (u64, u64, u64) {
        let mut fnv = Fnv::new();
        let (mut count, mut sum, mut mn, mut mx) = (0u64, 0u64, u64::MAX, 0u64);
        for (row, vals) in self.rows.iter().enumerate() {
            if self.deleted[row] {
                continue;
            }
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
        (count, agg, fnv.finish())
    }
}

#[derive(Debug, Clone)]
enum ChurnOp {
    /// Overwrite a value column of a (possibly sealed, H2-resident) row.
    Update(usize, usize, u64),
    /// Tombstone a row.
    Delete(usize),
    /// A collection between mutations.
    MinorGc,
    MajorGc,
}

fn churn_strategy() -> impl Strategy<Value = ChurnOp> {
    prop_oneof![
        4 => (range_usize(0..512), range_usize(1..COLS), range_u64(0..600))
            .prop_map(|(r, c, v)| ChurnOp::Update(r, c, v)),
        2 => range_usize(0..512).prop_map(ChurnOp::Delete),
        1 => Just(ChurnOp::MinorGc),
        1 => Just(ChurnOp::MajorGc),
    ]
}

/// ((filter col, lo, span), (project col, agg selector), predicate shape).
type QuerySpecTuple = ((usize, u64, u64), (usize, usize), usize);

fn query_strategy() -> impl Strategy<Value = QuerySpecTuple> {
    (
        (range_usize(0..COLS), range_u64(0..600), range_u64(0..250)),
        (range_usize(0..COLS), range_usize(0..5)),
        range_usize(0..8),
    )
}

/// The query of a spec, and whether its matches in every other chunk are
/// tombstoned before it runs (so some chunks' only matches are dead).
fn build_query(((col, lo, span), (project, agg), shape): QuerySpecTuple) -> (Query, bool) {
    let agg = match agg {
        0 => None,
        1 => Some(Agg::Count),
        2 => Some(Agg::Sum),
        3 => Some(Agg::Min),
        _ => Some(Agg::Max),
    };
    let (lo, hi, kill) = match shape {
        // Inverted: matches nothing, whatever the values.
        0 => (lo + span + 1, lo, false),
        1 => (0, lo, false),
        2 => (lo, u64::MAX, false),
        3 | 4 => (lo, lo + span, true),
        _ => (lo, lo + span, false),
    };
    (Query { filter: Predicate { col, lo, hi }, project, agg }, kill)
}

/// A cold table of `rows` seeded rows after `churn`, with its mirror. Cold
/// placement and several sealed chunks: most reads go through H2 after the
/// first major GC.
fn churned_table(
    chunk_rows: usize,
    rows: usize,
    seed: u64,
    churn: &[ChurnOp],
) -> (Heap, Table, Mirror) {
    let mut heap = test_heap();
    let mut table = Table::new(TableConfig {
        table_id: 1,
        cols: COLS,
        chunk_rows,
        key_col: 0,
        placement: TablePlacement::Cold,
    });
    let mut rng = Rng::seed_from_u64(seed);
    let mut mirror = Mirror { rows: Vec::new(), deleted: Vec::new() };
    for _ in 0..rows {
        let row = [rng.gen_range(0..600u64), rng.gen_range(0..600u64), rng.gen_range(0..600u64)];
        table.append_row(&mut heap, &row).unwrap();
        mirror.rows.push(row);
        mirror.deleted.push(false);
    }
    heap.gc_major().unwrap();
    for op in churn {
        match *op {
            ChurnOp::Update(r, c, v) => {
                let r = r % rows;
                if !mirror.deleted[r] {
                    table.update_value(&mut heap, r, c, v);
                    mirror.rows[r][c] = v;
                }
            }
            ChurnOp::Delete(r) => {
                let r = r % rows;
                if !mirror.deleted[r] {
                    assert!(table.delete_row(&mut heap, r));
                    mirror.deleted[r] = true;
                }
            }
            ChurnOp::MinorGc => heap.gc_minor().unwrap(),
            ChurnOp::MajorGc => heap.gc_major().unwrap(),
        }
    }
    (heap, table, mirror)
}

/// The charges of the full-scan plan by the two-pass rule it replaced:
/// read every sealed filter chunk; read the projected chunk only if some
/// row of the chunk matches and is not tombstoned; one op per staged row.
fn reference_scan_charges(heap: &mut Heap, table: &Table, q: &Query) {
    let cr = table.chunk_rows();
    for k in 0..table.sealed_chunks() {
        let any = table.view_col_chunk(heap, q.filter.col, k, |vals| {
            (0..cr).any(|i| {
                q.filter.lo <= vals[i] && vals[i] <= q.filter.hi && !table.is_deleted(k * cr + i)
            })
        });
        if any && q.project != q.filter.col {
            table.view_col_chunk(heap, q.project, k, |_| ());
        }
    }
    heap.charge_ops(table.staging_rows() as u64);
}

#[test]
fn executor_matches_naive_oracle_and_index_equals_scan() {
    check(
        "executor_matches_naive_oracle_and_index_equals_scan",
        &(
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
            ),
            vec_of(churn_strategy(), 0..24),
            vec_of(query_strategy(), 1..8),
        ),
        &Config::with_cases(48),
        |((chunk_rows, rows, seed), churn, queries): (
            (usize, usize, u64),
            Vec<ChurnOp>,
            Vec<QuerySpecTuple>,
        )| {
            // Twins: one runs the executor, the other the reference plan's
            // charges; they see the same op sequence otherwise, so their
            // page caches stay in lockstep.
            let (mut heap, mut table, mut mirror) = churned_table(chunk_rows, rows, seed, &churn);
            let (mut ref_heap, mut ref_table, _) = churned_table(chunk_rows, rows, seed, &churn);

            for spec in queries {
                let (q, kill) = build_query(spec);
                if kill {
                    for r in 0..rows {
                        let f = mirror.rows[r][q.filter.col];
                        let matches = q.filter.lo <= f && f <= q.filter.hi;
                        if matches && (r / chunk_rows) % 2 == 0 && !mirror.deleted[r] {
                            prop_assert!(table.delete_row(&mut heap, r));
                            prop_assert!(ref_table.delete_row(&mut ref_heap, r));
                            mirror.deleted[r] = true;
                        }
                    }
                }
                let (before, ref_before) =
                    (heap.clock().total_ns(), ref_heap.clock().total_ns());
                let scan = run_query(&mut heap, &mut table, &q, false);
                reference_scan_charges(&mut ref_heap, &ref_table, &q);
                prop_assert_eq!(
                    heap.clock().total_ns() - before,
                    ref_heap.clock().total_ns() - ref_before,
                    "full scan charged differently from the two-pass reference"
                );
                let probe = run_query(&mut heap, &mut table, &q, true);
                let ref_probe = run_query(&mut ref_heap, &mut ref_table, &q, true);
                prop_assert_eq!(
                    scan.answer(),
                    mirror.oracle(&q),
                    "full scan disagrees with the oracle"
                );
                prop_assert_eq!(
                    probe.answer(),
                    scan.answer(),
                    "index plan disagrees with the scan plan"
                );
                prop_assert_eq!(probe, ref_probe, "twins diverged");
                prop_assert_eq!(heap.clock().total_ns(), ref_heap.clock().total_ns());
            }
            CaseResult::Pass
        },
    );
}

#[test]
fn answers_are_invariant_across_runtime_knobs() {
    // Device model, GC parallelism and the incremental pause budget move
    // *when* things happen, never *what* the queries answer: the plane's
    // canonical checksum must agree across every knob combination.
    let devices =
        [DeviceSpec::nvme_ssd(), DeviceSpec::optane_nvm(), DeviceSpec::dram()];
    let mut reference = None;
    for device in devices {
        for gc_threads in [1usize, 4] {
            for pause_budget in [0u64, 50_000] {
                let mut cfg = QueryPlaneConfig::new(device);
                cfg.heap = HeapConfig::builder(16 << 10, 96 << 10)
                    .gc_threads(gc_threads)
                    .pause_budget_ns(pause_budget)
                    .build()
                    .expect("valid heap config");
                cfg.tenants = 2;
                cfg.sessions = 4;
                cfg.total_ops = 96;
                cfg.rows_per_table = 512;
                cfg.chunk_rows = 64;
                let report = run_query_plane(&cfg).expect("plane runs");
                match reference {
                    None => reference = Some(report.checksum),
                    Some(want) => assert_eq!(
                        report.checksum, want,
                        "answers drifted at gc_threads={gc_threads} \
                         pause_budget={pause_budget}"
                    ),
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
