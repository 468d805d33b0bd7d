//! Pins the simulated charges of the query read path to constants.
//!
//! The executor's host-side implementation is free to change (copies,
//! lookup structures, predicate kernels); what it *charges* is not. This
//! suite runs one small fixed plane, cold and hot, and compares the
//! simulated-time outputs and one tenant's page-cache counters against
//! `tests/golden/charge_pin_{cold,hot}.txt` (`teraheap_util::golden`; one
//! file per test, because tests run in parallel and each rewrites its own
//! under `scripts/repin.sh`), so "the charges did not move" fails a unit
//! test, not only the benchmark's `sim_fingerprint`.

use std::sync::Arc;
use teraheap_core::H2Config;
use teraheap_query::{
    gen_rows, op_for, run_query, run_query_plane, QueryPlaneConfig, Table, TableConfig,
    TablePlacement, COLS,
};
use teraheap_runtime::Heap;
use teraheap_storage::{DeviceSpec, SharedDevice, SimClock};
use teraheap_util::golden::Golden;

/// The pinned plane: NVMe, 64-row chunks, a cold copy (80 KiB of chunks
/// and index runs) 2.5x the 32 KiB page cache so the cold arm evicts.
fn pinned_config(hot_pct: u8) -> QueryPlaneConfig {
    let mut cfg = QueryPlaneConfig::new(DeviceSpec::nvme_ssd());
    cfg.h2 = H2Config::builder()
        .region_words(2 << 10)
        .n_regions(32)
        .card_seg_words(512)
        .resident_budget_bytes(32 << 10)
        .page_size(4096)
        .promo_buffer_bytes(16 << 10)
        .build()
        .expect("valid H2 config");
    cfg.tenants = 2;
    cfg.sessions = 4;
    cfg.total_ops = 256;
    cfg.rows_per_table = 2048;
    cfg.chunk_rows = 64;
    cfg.hot_pct = hot_pct;
    cfg
}

/// What one arm must reproduce: the plane's report, then tenant 0's replay
/// (total simulated ns, page faults, evictions).
#[rustfmt::skip]
const COLUMNS: [&str; 8] = [
    "makespan_ns", "p50_ns", "p99_ns", "device_queued_ns", "checksum",
    "replay_ns", "replay_faults", "replay_evictions",
];

/// Serves tenant 0's share of the op stream alone on its own device (the
/// plane returns only a report, so its tenants' `IoStats` are out of
/// reach) and returns that heap's clock total and page-cache counters.
fn replay_tenant0(cfg: &QueryPlaneConfig) -> (u64, u64, u64) {
    let clock = Arc::new(SimClock::new());
    let device = SharedDevice::new(cfg.device, cfg.h2.footprint_bytes(), clock.clone());
    let mut heap = Heap::with_clock(cfg.heap, clock);
    heap.attach_h2(cfg.h2, &device).expect("sole tenant attaches");
    let table = |table_id, placement| {
        Table::new(TableConfig {
            table_id,
            cols: COLS,
            chunk_rows: cfg.chunk_rows,
            key_col: 0,
            placement,
        })
    };
    let mut hot = table(1, TablePlacement::Hot);
    let mut cold = table(2, TablePlacement::Cold);
    let contents = gen_rows(cfg.rows_per_table, cfg.seed);
    for row in &contents {
        hot.append_row(&mut heap, row).expect("fits");
        cold.append_row(&mut heap, row).expect("fits");
    }
    heap.gc_major().expect("fits");
    // Op i belongs to session i mod sessions, served by tenant session mod
    // tenants — the plane's own round-robin.
    for i in (0..cfg.total_ops).filter(|&i| (i % cfg.sessions).is_multiple_of(cfg.tenants)) {
        let spec = op_for(cfg, &contents, i);
        let table = if spec.hot { &mut hot } else { &mut cold };
        run_query(&mut heap, table, &spec.query, spec.use_index);
    }
    let io = heap.h2().expect("attached").mmap().stats();
    (heap.clock().total_ns(), io.page_faults(), io.evictions())
}

/// Runs the plane at `hot_pct` and checks it against the one row of
/// `tests/golden/<suite>.txt`.
fn plane_charges_are_pinned(suite: &str, arm: &str, hot_pct: u8) {
    let cfg = pinned_config(hot_pct);
    let report = run_query_plane(&cfg).expect("plane runs");
    let (replay_ns, replay_faults, replay_evictions) = replay_tenant0(&cfg);
    let got = [
        report.makespan_ns,
        report.all.p50_ns,
        report.all.p99_ns,
        report.device_queued_ns,
        report.checksum,
        replay_ns,
        replay_faults,
        replay_evictions,
    ];
    let mut golden = Golden::open(env!("CARGO_MANIFEST_DIR"), suite, &COLUMNS);
    golden.check(arm, Some(&got));
    golden.finish();
}

#[test]
fn cold_plane_charges_are_pinned() {
    plane_charges_are_pinned("charge_pin_cold", "cold", 0);
}

#[test]
fn hot_plane_charges_are_pinned() {
    plane_charges_are_pinned("charge_pin_hot", "hot", 100);
}
