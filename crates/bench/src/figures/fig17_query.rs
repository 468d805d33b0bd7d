//! Figure 17 (beyond the paper): query-serving latency over the dual heap.
//!
//! The paper evaluates TeraHeap on batch analytics; this figure measures
//! the *interactive* story: closed-loop client sessions replaying a
//! point-lookup / range-scan / aggregate mix against columnar tables with
//! a hot (H1-cached) and a cold (H2-resident) copy, multiplexed over
//! multi-tenant heaps sharing one arbitrated device (the PR 8 server
//! plane). Sweeps:
//!
//! * sessions ∈ {1, 8, 64, 512} — concurrency, over `min(sessions, 4)`
//!   tenant heaps; total operations are fixed, so arms differ only in how
//!   the same op stream is packed onto sessions;
//! * device ∈ {NVMe, Optane NVM, DAX} — the cold copy's fault cost;
//! * hot fraction ∈ {10%, 90%} — how often an op is served from H1.
//!
//! Reported: p50/p99/p999 per-op latency, makespan, throughput, device
//! arbitration counters. Self-gates:
//!
//! * every arm's canonical answer checksum is bit-identical — placement,
//!   concurrency and device model must never change results;
//! * p99 at 512 sessions ≥ p99 at 1 session for every (device, hot%) —
//!   closed-loop queueing behind a tenant's other sessions is structural.

use crate::harness::{devices, job, Job, Rendered};
use teraheap_query::{run_query_plane, LatencySummary, QueryPlaneConfig, QueryReport};

/// Total operations per arm, regardless of session count.
const TOTAL_OPS: usize = 1024;

/// Session-count sweep.
const SESSIONS: [usize; 4] = [1, 8, 64, 512];

/// Hot-fraction sweep (percent of ops served from the H1 copy).
const HOT_PCT: [u8; 2] = [10, 90];

/// `(device, hot %, sessions)` per run.
type Key = (&'static str, u8, usize);

pub(super) fn arms() -> Vec<(Key, Job<QueryReport>)> {
    let mut arms = Vec::new();
    for (name, device) in devices() {
        for hot_pct in HOT_PCT {
            for sessions in SESSIONS {
                let mut cfg = QueryPlaneConfig::new(device);
                cfg.sessions = sessions;
                cfg.tenants = sessions.min(4);
                cfg.total_ops = TOTAL_OPS;
                cfg.hot_pct = hot_pct;
                let run = job(move || run_query_plane(&cfg).expect("plane runs"));
                arms.push(((name, hot_pct, sessions), run));
            }
        }
    }
    arms
}

pub(super) fn render(out: &mut Rendered, runs: Vec<(Key, QueryReport)>) {
    let reference = runs[0].1.checksum;
    for sweep in runs.chunks(SESSIONS.len()) {
        let (dname, hot, _) = sweep[0].0;
        say!(out.text, "--- device {dname}, hot {hot}% ---");
        for ((_, _, sessions), r) in sweep {
            let LatencySummary { p50_ns, p99_ns, p999_ns, max_ns, mean_ns, .. } = r.all;
            let (makespan_ns, ops_per_sec, h2_chunks) = (r.makespan_ns, r.ops_per_sec, r.h2_chunks);
            say!(
                out.text,
                "  {sessions:>4} sessions: p50 {p50_ns:>7} ns  p99 {p99_ns:>8} ns  \
                 p999 {p999_ns:>8} ns  makespan {makespan_ns:>9} ns  {ops_per_sec:>8.0} ops/s  \
                 [h2 chunks {h2_chunks}]"
            );
            out.csv.push(format!(
                "{dname},{sessions},{hot},{},{},{p50_ns},{p99_ns},{p999_ns},{max_ns},{mean_ns},\
                 {makespan_ns},{ops_per_sec:.3},{},{},{h2_chunks},{}",
                r.tenants, r.ops, r.device_vtime_ns, r.device_queued_ns, r.checksum
            ));
            gate!(
                out,
                r.checksum == reference,
                "checksum {} diverged from reference {reference} \
                 ({dname}, {sessions} sessions, hot {hot}%)",
                r.checksum
            );
        }
        let (solo, packed) = (sweep[0].1.all.p99_ns, sweep[sweep.len() - 1].1.all.p99_ns);
        gate!(
            out,
            packed >= solo,
            "p99 at {} sessions ({packed} ns) below solo p99 ({solo} ns) on {dname}, hot {hot}%",
            SESSIONS[SESSIONS.len() - 1]
        );
        say!(out.text, "");
    }
}
