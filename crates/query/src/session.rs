//! The session driver: N concurrent client sessions over the multi-tenant
//! server plane.
//!
//! Sessions are *logical* clients replaying a deterministic
//! point-lookup / range-scan / aggregate mix against a hot (H1-cached) and
//! a cold (H2-resident) copy of the same table. They are multiplexed over
//! `tenants` independent heaps registered on one [`SharedDevice`] — the
//! server plane's arbiter — so device requests queue first-come
//! first-served across tenants while each tenant serves its sessions
//! serially, closed-loop with think time. Scheduling is discrete-event
//! over the sessions' next-issue times (host-side) and the tenants'
//! `SimClock`s (simulated service), so a run is exactly reproducible:
//! per-op latency is `completion − issue`, which includes time queued
//! behind the tenant's other sessions *and* shared-device arbitration
//! delays.
//!
//! Everything an op answers depends only on the table contents and the
//! op's own parameters — both derived from `seed` and the global op index
//! — never on the arm: the canonical [`QueryReport::checksum`] is
//! bit-identical across session counts, devices, and hot fractions.

use crate::exec::{run_query, Agg, Predicate, Query, QueryResult};
use crate::report::{LatencyHistogram, QueryReport};
use crate::table::{Table, TableConfig, TablePlacement};
use std::sync::Arc;
use teraheap_runtime::obs::EventKind;
use teraheap_runtime::{Heap, HeapConfig, OomError};
use teraheap_storage::{DeviceSpec, SharedDevice, SimClock};
use teraheap_core::H2Config;
use teraheap_util::rng::Rng;
use teraheap_util::Fnv;

/// Columns per table: key, value, value2.
pub const COLS: usize = 3;

/// Key stride: keys are the multiples of this, shuffled over the rows.
const KEY_STRIDE: u64 = 8;

/// One operation kind of the session mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Exact-key fetch through the sorted-run index.
    PointLookup,
    /// Key-range fetch through the index.
    RangeScan,
    /// Filtered aggregate through the full-scan plan.
    Aggregate,
}

impl OpKind {
    /// Dense index (matches `obs::QUERY_OP_NAMES`).
    pub fn index(&self) -> usize {
        match self {
            OpKind::PointLookup => 0,
            OpKind::RangeScan => 1,
            OpKind::Aggregate => 2,
        }
    }
}

/// One fully derived operation.
#[derive(Debug, Clone, Copy)]
pub struct OpSpec {
    /// The mix bucket.
    pub kind: OpKind,
    /// Whether the op targets the hot (H1) table copy.
    pub hot: bool,
    /// The query to execute.
    pub query: Query,
    /// Whether the executor may use the index plan.
    pub use_index: bool,
}

/// Configuration of one query-plane run.
#[derive(Debug, Clone)]
pub struct QueryPlaneConfig {
    /// The shared device the cold tables live on.
    pub device: DeviceSpec,
    /// Per-tenant heap shape.
    pub heap: HeapConfig,
    /// Per-tenant H2 shape.
    pub h2: H2Config,
    /// Tenant heaps sharing the device.
    pub tenants: usize,
    /// Logical client sessions (multiplexed over the tenants round-robin).
    pub sessions: usize,
    /// Total operations across all sessions.
    pub total_ops: usize,
    /// Rows per table copy.
    pub rows_per_table: usize,
    /// Rows per column chunk.
    pub chunk_rows: usize,
    /// Percent of ops served from the hot (H1) copy; the rest read H2.
    pub hot_pct: u8,
    /// Percent of ops that are point lookups.
    pub lookup_pct: u8,
    /// Percent that are range scans (the rest are aggregates).
    pub scan_pct: u8,
    /// Rows a range scan spans on average.
    pub scan_rows: usize,
    /// Closed-loop think time between a session's ops, simulated ns.
    pub think_ns: u64,
    /// Master seed for table contents and the op stream.
    pub seed: u64,
}

impl QueryPlaneConfig {
    /// A small deterministic default shape on `device`.
    pub fn new(device: DeviceSpec) -> Self {
        let h2 = H2Config::builder()
            .region_words(2 << 10)
            .n_regions(32)
            .card_seg_words(512)
            .resident_budget_bytes(128 << 10)
            .page_size(4096)
            .promo_buffer_bytes(16 << 10)
            .build()
            .expect("valid H2 config");
        QueryPlaneConfig {
            device,
            heap: HeapConfig::with_words(16 << 10, 96 << 10),
            h2,
            tenants: 4,
            sessions: 8,
            total_ops: 512,
            rows_per_table: 2048,
            chunk_rows: 256,
            hot_pct: 50,
            lookup_pct: 50,
            scan_pct: 30,
            scan_rows: 48,
            think_ns: 20_000,
            seed: 0x7e11_bee5,
        }
    }
}

/// The generated table contents: `rows[r] = [key, value, value2]`. The
/// keys are the multiples of `KEY_STRIDE` below `rows · KEY_STRIDE`,
/// shuffled — unique, so a point lookup has exactly one live answer.
pub fn gen_rows(rows: usize, seed: u64) -> Vec<[u64; COLS]> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x7ab1e5);
    let mut keys: Vec<u64> = (0..rows as u64).map(|r| r * KEY_STRIDE).collect();
    rng.shuffle(&mut keys);
    keys.iter()
        .map(|&key| [key, rng.next_u64() >> 16, rng.next_u64() >> 16])
        .collect()
}

/// Derives operation `i` of the stream — a pure function of the config's
/// seed/mix and `i`, never of the arm's session count or device.
pub fn op_for(cfg: &QueryPlaneConfig, contents: &[[u64; COLS]], i: usize) -> OpSpec {
    let mut rng = Rng::seed_from_u64(cfg.seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15));
    let bucket = rng.gen_range(0u64..100);
    let kind = if bucket < cfg.lookup_pct as u64 {
        OpKind::PointLookup
    } else if bucket < (cfg.lookup_pct + cfg.scan_pct) as u64 {
        OpKind::RangeScan
    } else {
        OpKind::Aggregate
    };
    let hot = rng.gen_range(0u64..100) < cfg.hot_pct as u64;
    let max_key = (contents.len() as u64).saturating_sub(1) * KEY_STRIDE;
    let (query, use_index) = match kind {
        OpKind::PointLookup => {
            let key = contents[rng.gen_range(0..contents.len() as u64) as usize][0];
            (Query { filter: Predicate { col: 0, lo: key, hi: key }, project: 1, agg: None }, true)
        }
        OpKind::RangeScan => {
            let span = cfg.scan_rows as u64 * KEY_STRIDE;
            let lo = rng.gen_range(0..max_key.saturating_sub(span).max(1));
            (
                Query { filter: Predicate { col: 0, lo, hi: lo + span }, project: 1, agg: None },
                true,
            )
        }
        OpKind::Aggregate => {
            let span = 4 * cfg.scan_rows as u64 * KEY_STRIDE;
            let lo = rng.gen_range(0..max_key.saturating_sub(span).max(1));
            let agg = match rng.gen_range(0u64..4) {
                0 => Agg::Count,
                1 => Agg::Sum,
                2 => Agg::Min,
                _ => Agg::Max,
            };
            (
                Query {
                    filter: Predicate { col: 0, lo, hi: lo + span },
                    project: 2,
                    agg: Some(agg),
                },
                false,
            )
        }
    };
    OpSpec { kind, hot, query, use_index }
}

/// One tenant's serving state: its heap and the two table copies.
struct Tenant {
    heap: Heap,
    hot: Table,
    cold: Table,
}

/// Builds a tenant on `heap` (H2 attached): loads both table copies with
/// `contents` in chunks of `chunk_rows` and runs one major collection so the
/// cold copy's tagged chunks move to H2.
fn build_tenant(
    mut heap: Heap,
    chunk_rows: usize,
    contents: &[[u64; COLS]],
) -> Result<Tenant, OomError> {
    let table = |table_id, placement| {
        Table::new(TableConfig { table_id, cols: COLS, chunk_rows, key_col: 0, placement })
    };
    let (mut hot, mut cold) = (table(1, TablePlacement::Hot), table(2, TablePlacement::Cold));
    for row in contents {
        hot.append_row(&mut heap, row)?;
        cold.append_row(&mut heap, row)?;
    }
    // Move the cold copy's tagged chunk groups to the device.
    heap.gc_major()?;
    Ok(Tenant { heap, hot, cold })
}

/// Serves operation `spec` for logical session `session` on `tenant`: runs
/// it against the hot or cold table copy, bracketed by `QueryBegin` and
/// `QueryEnd` events.
fn serve(tenant: &mut Tenant, session: u32, spec: &OpSpec) -> QueryResult {
    tenant.heap.clock().emit(EventKind::QueryBegin { session, kind: spec.kind.index() as u8 });
    let table = if spec.hot { &mut tenant.hot } else { &mut tenant.cold };
    let res = run_query(&mut tenant.heap, table, &spec.query, spec.use_index);
    tenant.heap.clock().emit(EventKind::QueryEnd { session, rows: res.rows_matched });
    res
}

/// Runs the configured plane to completion.
///
/// # Errors
///
/// Returns [`OomError`] if a tenant heap cannot hold its table copies.
///
/// # Panics
///
/// On a zero-session/zero-tenant/zero-op config.
pub fn run_query_plane(cfg: &QueryPlaneConfig) -> Result<QueryReport, OomError> {
    assert!(cfg.tenants > 0 && cfg.sessions > 0 && cfg.total_ops > 0, "empty plane");
    assert!(cfg.sessions >= cfg.tenants, "more tenants than sessions");
    let contents = gen_rows(cfg.rows_per_table, cfg.seed);
    let specs: Vec<OpSpec> = (0..cfg.total_ops).map(|i| op_for(cfg, &contents, i)).collect();

    let device = SharedDevice::for_server(
        cfg.device,
        cfg.tenants * cfg.h2.footprint_bytes(),
    );
    let mut tenants = Vec::with_capacity(cfg.tenants);
    let mut ids = Vec::with_capacity(cfg.tenants);
    for _ in 0..cfg.tenants {
        let clock = Arc::new(SimClock::new());
        let id = device
            .add_tenant(clock.clone(), cfg.h2.footprint_bytes())
            .expect("fresh clocks, sized capacity");
        ids.push(id);
        let mut heap = Heap::with_clock(cfg.heap, clock);
        heap.attach_h2(cfg.h2, &device)
            .expect("capacity is sized tenants * footprint; attach cannot fail");
        tenants.push(build_tenant(heap, cfg.chunk_rows, &contents)?);
    }

    // Session state: the op ids it will replay, and its next issue time
    // (staggered so the arrival process isn't a thundering herd).
    struct Sess {
        ready_ns: u64,
        ops: std::collections::VecDeque<usize>,
    }
    let mut sessions: Vec<Sess> = (0..cfg.sessions)
        .map(|s| Sess {
            ready_ns: s as u64 * cfg.think_ns / cfg.sessions as u64,
            ops: std::collections::VecDeque::new(),
        })
        .collect();
    for i in 0..cfg.total_ops {
        sessions[i % cfg.sessions].ops.push_back(i);
    }

    let mut all = LatencyHistogram::new();
    let mut per_kind = [LatencyHistogram::new(), LatencyHistogram::new(), LatencyHistogram::new()];
    let mut results: Vec<(u64, u64)> = vec![(0, 0); cfg.total_ops];
    let mut makespan_ns = 0u64;

    // Discrete-event loop: each step serves the session with the earliest
    // pending issue time.
    while let Some(s) = (0..cfg.sessions)
        .filter(|&s| !sessions[s].ops.is_empty())
        .min_by_key(|&s| (sessions[s].ready_ns, s))
    {
        let i = sessions[s].ops.pop_front().expect("non-empty");
        let spec = &specs[i];
        let t = s % cfg.tenants;
        let tenant = &mut tenants[t];
        let clock_before = tenant.heap.clock().total_ns();
        let res = serve(tenant, s as u32, spec);
        let clock_after = tenant.heap.clock().total_ns();
        // Closed-loop accounting: service starts when both the client has
        // issued (ready) and the tenant is free (its clock).
        let issue = sessions[s].ready_ns;
        let start = issue.max(clock_before);
        let completion = start + (clock_after - clock_before);
        let latency = completion - issue;
        sessions[s].ready_ns = completion + cfg.think_ns;
        makespan_ns = makespan_ns.max(completion);
        all.record(latency);
        per_kind[spec.kind.index()].record(latency);
        results[i] = (res.checksum, res.rows_matched);
    }

    let mut fnv = Fnv::new();
    for (i, &(c, m)) in results.iter().enumerate() {
        fnv.push(i as u64);
        fnv.push(c);
        fnv.push(m);
    }
    let device_queued_ns = ids
        .iter()
        .map(|&id| device.tenant_io(id).map(|io| io.queued_ns).unwrap_or(0))
        .sum();
    let h2_chunks = tenants
        .iter()
        .map(|t| t.cold.h2_resident_chunks(&t.heap) + t.hot.h2_resident_chunks(&t.heap))
        .sum();
    Ok(QueryReport {
        sessions: cfg.sessions,
        tenants: cfg.tenants,
        ops: cfg.total_ops,
        all: all.summary(),
        per_kind: [per_kind[0].summary(), per_kind[1].summary(), per_kind[2].summary()],
        makespan_ns,
        device_vtime_ns: device.device_vtime_ns(),
        device_queued_ns,
        ops_per_sec: cfg.total_ops as f64 / (makespan_ns.max(1) as f64 / 1e9),
        h2_chunks,
        checksum: fnv.finish(),
    })
}

/// One bounded query round for a server-plane tenant
/// (`teraheap_server::TenantWorkload::Query`): builds the two table copies
/// on `heap` — which the server made on the tenant's registered clock and
/// attached to its device partition — replays `ops` operations multiplexed
/// over `sessions` logical sessions, and returns the canonical answer
/// checksum (exact in an `f64`, matching the server's mode-independent
/// round checksums).
///
/// # Errors
///
/// Returns [`OomError`] if the tables do not fit the tenant heap.
pub fn run_tenant_round(
    heap: Heap,
    sessions: usize,
    ops: usize,
    rows: usize,
    seed: u64,
) -> Result<f64, OomError> {
    // Only the op mix, the table shape and the seed of the plane config are
    // read below. Its device says where the cold copy lives: DRAM, on a
    // heap without H2.
    let device = heap.h2().map_or(DeviceSpec::dram(), |h2| *h2.device_spec());
    let mut cfg = QueryPlaneConfig::new(device);
    cfg.rows_per_table = rows.max(1);
    cfg.chunk_rows = 64.min(cfg.rows_per_table);
    cfg.total_ops = ops.max(1);
    cfg.seed = seed;
    let contents = gen_rows(cfg.rows_per_table, cfg.seed);
    let mut tenant = build_tenant(heap, cfg.chunk_rows, &contents)?;
    let sessions = sessions.max(1);
    let mut fnv = Fnv::new();
    for i in 0..cfg.total_ops {
        let spec = op_for(&cfg, &contents, i);
        let res = serve(&mut tenant, (i % sessions) as u32, &spec);
        fnv.push(i as u64);
        fnv.push(res.checksum);
        fnv.push(res.rows_matched);
    }
    // 53 significant bits: exact in the server's f64 checksum slot.
    Ok((fnv.finish() >> 11) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_smoke_run_is_deterministic() {
        let mut cfg = QueryPlaneConfig::new(DeviceSpec::nvme_ssd());
        cfg.tenants = 2;
        cfg.sessions = 4;
        cfg.total_ops = 64;
        cfg.rows_per_table = 512;
        cfg.chunk_rows = 64;
        let a = run_query_plane(&cfg).expect("plane runs");
        let b = run_query_plane(&cfg).expect("plane runs");
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.all, b.all, "latency population replays bit-identically");
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!(a.ops, 64);
        assert!(a.h2_chunks > 0, "cold copy is device-resident");
        assert!(a.all.p99_ns >= a.all.p50_ns);
    }

    #[test]
    fn checksum_is_invariant_across_sessions_and_hot_fraction() {
        let mut cfg = QueryPlaneConfig::new(DeviceSpec::nvme_ssd());
        cfg.tenants = 1;
        cfg.sessions = 1;
        cfg.total_ops = 48;
        cfg.rows_per_table = 512;
        cfg.chunk_rows = 64;
        cfg.hot_pct = 100;
        let hot = run_query_plane(&cfg).expect("plane runs");
        cfg.tenants = 2;
        cfg.sessions = 8;
        cfg.hot_pct = 0;
        let cold = run_query_plane(&cfg).expect("plane runs");
        assert_eq!(hot.checksum, cold.checksum, "answers never depend on placement");
    }
}
