//! Retriever-style endurance / leak-hunting loop.
//!
//! A bounded number of churn rounds over a small fleet of rotating tables:
//! every round appends and queries; periodically a whole table is dropped
//! and rebuilt (the "retriever" pattern — long-lived serving process,
//! short-lived corpora). The heap invariant checker runs
//! armed (`HeapConfig::heap_check`) *and* on demand every `CHECK_EVERY`
//! rounds; after a warm-up period the H1 occupancy, the H2 live-region
//! count and the tables' own `memory_usage` accounting must stay bounded —
//! growth past the working set means a leak (stale roots, unreclaimed
//! regions, forgotten chunks).
//!
//! CI runs [`DEFAULT_ROUNDS`] rounds; set `TERAHEAP_ENDURANCE_ROUNDS` for
//! long soak runs (the loop is deterministic, so a failure at round N
//! reproduces exactly).

use teraheap_core::H2Config;
use teraheap_query::{run_query, Agg, Predicate, Query, Table, TableConfig, TablePlacement};
use teraheap_runtime::{Heap, HeapConfig};
use teraheap_storage::{DeviceSpec, SharedDevice};
use teraheap_util::rng::Rng;

/// Churn rounds in the default CI run (≥ 200 per the test-plane spec).
const DEFAULT_ROUNDS: usize = 200;
/// On-demand heap check cadence, in rounds.
const CHECK_EVERY: usize = 20;
/// Table-rotation cadence, in rounds.
const ROTATE_EVERY: usize = 10;
/// Concurrently live tables.
const SLOTS: usize = 3;
/// Rows seeded into a fresh table.
const BASE_ROWS: usize = 256;
/// Rows appended to the rotating slot per round.
const APPEND_ROWS: usize = 32;
/// Columns per table (key + two values).
const COLS: usize = 3;
/// Rounds before the occupancy high-water is captured: two full rotation
/// cycles, so every slot has been dropped and rebuilt at least twice.
const WARMUP_ROUNDS: usize = 2 * SLOTS * ROTATE_EVERY;

fn endurance_h2() -> H2Config {
    H2Config::builder()
        .region_words(2 << 10)
        .n_regions(48)
        .card_seg_words(512)
        .resident_budget_bytes(128 << 10)
        .page_size(4096)
        .promo_buffer_bytes(16 << 10)
        .build()
        .expect("valid H2 config")
}

/// The soak heap, checker armed: every collection sweeps the dual heap too.
fn endurance_heap() -> Heap {
    let config = HeapConfig { heap_check: true, ..HeapConfig::with_words(16 << 10, 96 << 10) };
    let mut heap = Heap::new(config);
    let h2 = endurance_h2();
    let dev = SharedDevice::new(DeviceSpec::nvme_ssd(), h2.footprint_bytes(), heap.clock().clone());
    heap.attach_h2(h2, &dev).unwrap();
    heap
}

/// One table slot and the rows the host appended to it.
struct Slot {
    table: Table,
    rows: usize,
}

/// Appends `n` fresh rows (unique increasing keys) to a slot.
fn append_rows(heap: &mut Heap, slot: &mut Slot, n: usize, next_key: &mut u64, rng: &mut Rng) {
    for _ in 0..n {
        let row = [*next_key, rng.next_u64() >> 16, rng.next_u64() >> 16];
        slot.table.append_row(heap, &row).expect("endurance heap sized for the working set");
        *next_key += 8;
        slot.rows += 1;
    }
}

/// A fresh cold table in `slot_id`'s label/block namespace.
fn fresh_slot(heap: &mut Heap, slot_id: usize, next_key: &mut u64, rng: &mut Rng) -> Slot {
    let mut slot = Slot {
        table: Table::new(TableConfig {
            table_id: slot_id as u64 + 1,
            cols: COLS,
            chunk_rows: 64,
            key_col: 0,
            placement: TablePlacement::Cold,
        }),
        rows: 0,
    };
    append_rows(heap, &mut slot, BASE_ROWS, next_key, rng);
    slot
}

/// Full-range count through both physical plans, checked against the
/// rows appended — every round, so a corrupted chunk or index run trips at the
/// round that broke it.
fn assert_count(heap: &mut Heap, slot: &mut Slot) {
    let q = Query {
        filter: Predicate { col: 0, lo: 0, hi: u64::MAX },
        project: 1,
        agg: Some(Agg::Count),
    };
    let scan = run_query(heap, &mut slot.table, &q, false);
    let probe = run_query(heap, &mut slot.table, &q, true);
    assert_eq!(scan.rows_matched, slot.rows as u64, "scan lost or invented rows");
    assert_eq!(probe, scan, "index plan diverged from the scan plan");
}

#[test]
fn churn_rounds_stay_leak_free_and_bounded() {
    let rounds = std::env::var("TERAHEAP_ENDURANCE_ROUNDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(DEFAULT_ROUNDS);

    let mut heap = endurance_heap();

    let mut rng = Rng::seed_from_u64(0xe4d0_a11c);
    let mut next_key = 0u64;
    let mut slots: Vec<Slot> =
        (0..SLOTS).map(|s| fresh_slot(&mut heap, s, &mut next_key, &mut rng)).collect();
    heap.gc_major().unwrap();

    // High-water marks captured after warm-up; every later check must stay
    // within them (plus slack for rotation phase).
    let mut h1_high: Option<usize> = None;
    let mut h2_live_high: Option<usize> = None;
    let mut table_words_high: Option<usize> = None;
    let mut checks = 0u64;

    for round in 0..rounds {
        let s = round % SLOTS;

        // Insert: grow the round's slot.
        append_rows(&mut heap, &mut slots[s], APPEND_ROWS, &mut next_key, &mut rng);

        // Query: every slot answers exactly its rows, both plans.
        for slot in slots.iter_mut() {
            assert_count(&mut heap, slot);
        }

        heap.gc_minor().unwrap();

        // Rotation: drop the oldest slot's storage wholesale and rebuild
        // it — dropped chunks and index runs must actually die.
        if (round + 1) % ROTATE_EVERY == 0 {
            let victim = (round / ROTATE_EVERY) % SLOTS;
            slots[victim].table.drop_storage(&mut heap);
            slots[victim] = fresh_slot(&mut heap, victim, &mut next_key, &mut rng);
            heap.gc_major().unwrap();
        }

        // Leak audit: a full invariant sweep + occupancy bounds.
        if (round + 1) % CHECK_EVERY == 0 {
            heap.gc_major().unwrap();
            let report = heap
                .heap_check()
                .unwrap_or_else(|e| panic!("heap corrupted at round {round}: {e:?}"));
            assert!(
                report.h1_objects + report.h2_objects > 0,
                "checker must have walked the live set"
            );
            checks += 1;

            let h1_used = heap.old_used_words() + heap.eden_used_words();
            let h2r = heap.h2().expect("H2 attached").regions();
            let h2_live = h2r.region_count() - h2r.free_count();
            let table_words: usize =
                slots.iter().map(|s| s.table.memory_usage(&heap).total_words()).sum();

            if round >= WARMUP_ROUNDS {
                let h1_cap = *h1_high.get_or_insert(h1_used);
                let h2_cap = *h2_live_high.get_or_insert(h2_live);
                let tw_cap = *table_words_high.get_or_insert(table_words);
                assert!(
                    h1_used <= h1_cap + h1_cap / 4,
                    "H1 occupancy leaked: {h1_used} words at round {round}, high-water {h1_cap}"
                );
                assert!(
                    h2_live <= h2_cap + 4,
                    "H2 regions leaked: {h2_live} live at round {round}, high-water {h2_cap}"
                );
                assert!(
                    table_words <= tw_cap + tw_cap / 4,
                    "table accounting leaked: {table_words} words at round {round}, \
                     high-water {tw_cap}"
                );
            }
        }
    }

    assert!(checks >= (rounds / CHECK_EVERY) as u64, "the audit cadence must have fired");
}

#[test]
fn dropped_storage_frees_root_slots_in_the_same_order_every_run() {
    // Released root slots are reused last-in first-out, so the order a
    // table releases its chunks in decides which handles the next
    // allocations get. Two fresh builds stand for two processes.
    let reused_after_drop = || {
        let mut heap = endurance_heap();
        let mut rng = Rng::seed_from_u64(7);
        let mut slot = fresh_slot(&mut heap, 0, &mut 0, &mut rng);
        let roots = heap.live_roots();
        slot.table.drop_storage(&mut heap);
        assert_eq!(heap.live_roots(), 0, "{roots} chunk roots must all be released");
        (0..roots).map(|_| heap.alloc_prim_array(1).unwrap()).collect::<Vec<_>>()
    };
    assert_eq!(reused_after_drop(), reused_after_drop());
}
