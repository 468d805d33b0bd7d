//! Pins the simulated charges of the query read path to constants.
//!
//! The executor's host-side implementation is free to change (copies,
//! lookup structures, predicate kernels); what it *charges* is not. This
//! suite runs one small fixed plane, cold and hot, and compares the
//! simulated-time outputs and one tenant's page-cache counters against
//! values captured at the commit before the zero-copy read path (PR 13),
//! so "the charges did not move" fails a unit test, not only the
//! benchmark's `sim_fingerprint`.

use std::sync::Arc;
use teraheap_core::H2Config;
use teraheap_query::{
    gen_rows, op_for, run_query, run_query_plane, QueryPlaneConfig, Table, TableConfig,
    TablePlacement, COLS,
};
use teraheap_runtime::Heap;
use teraheap_storage::{DeviceSpec, SharedDevice, SimClock};

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

/// What one arm must reproduce.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    makespan_ns: u64,
    p50_ns: u64,
    p99_ns: u64,
    device_queued_ns: u64,
    checksum: u64,
    /// Tenant 0's replay: total simulated ns, page faults, evictions.
    replay_ns: u64,
    replay_faults: u64,
    replay_evictions: u64,
}

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

fn measure(hot_pct: u8) -> Pinned {
    let cfg = pinned_config(hot_pct);
    let report = run_query_plane(&cfg).expect("plane runs");
    let (replay_ns, replay_faults, replay_evictions) = replay_tenant0(&cfg);
    Pinned {
        makespan_ns: report.makespan_ns,
        p50_ns: report.all.p50_ns,
        p99_ns: report.all.p99_ns,
        device_queued_ns: report.device_queued_ns,
        checksum: report.checksum,
        replay_ns,
        replay_faults,
        replay_evictions,
    }
}

#[test]
fn cold_plane_charges_are_pinned() {
    let want = Pinned {
        makespan_ns: 63_047_152,
        p50_ns: 938_864,
        p99_ns: 1_431_248,
        device_queued_ns: 62_579_560,
        checksum: 8_478_763_960_823_395_191,
        replay_ns: 32_058_332,
        replay_faults: 1523,
        replay_evictions: 1515,
    };
    assert_eq!(measure(0), want);
}

#[test]
fn hot_plane_charges_are_pinned() {
    let want = Pinned {
        makespan_ns: 1_896_448,
        p50_ns: 4288,
        p99_ns: 223_548,
        device_queued_ns: 81_440,
        checksum: 8_478_763_960_823_395_191,
        replay_ns: 855_200,
        replay_faults: 0,
        replay_evictions: 0,
    };
    assert_eq!(measure(100), want);
}
