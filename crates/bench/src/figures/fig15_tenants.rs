//! Figure 15 (beyond the paper): multi-tenant scaling on one shared H2
//! device.
//!
//! The paper evaluates one framework instance per device; this figure
//! colocates N tenants — alternating mini-Spark PageRank and mini-Giraph
//! WCC, each with its own partition carved from one capacity pool — and
//! scales N to device saturation on the three device profiles. Expected
//! shape: aggregate throughput (job rounds per simulated second) flattens
//! as the arbitrated device saturates, per-tenant p99 round latency and
//! queueing delay grow with N, and Jain's fairness index stays ≈1 (the
//! virtual-time fair queue gives equal-weight tenants equal shares).
//! On DAX-class memory the knee arrives later: device service times are
//! small, so tenants contend less per round.

use crate::harness::{devices, job, ms, Job, Rendered};
use mini_giraph::GiraphWorkload;
use mini_spark::{DatasetScale, Workload};
use teraheap_core::H2Config;
use teraheap_runtime::HeapConfig;
use teraheap_server::{Server, ServerConfig, ServerReport, TenantSpec, TenantWorkload};
use teraheap_storage::DeviceSpec;

/// Tenant counts swept per device (8 saturates every profile).
const TENANTS: [usize; 4] = [1, 2, 4, 8];

/// Job rounds per tenant — enough rounds that p99 is a distribution tail,
/// few enough that the 8-tenant sweep stays interactive.
const ROUNDS: usize = 4;

/// H2 layout per tenant: 2 MiB partition footprint.
fn tenant_h2() -> H2Config {
    H2Config::builder()
        .region_words(8 << 10)
        .n_regions(32)
        .card_seg_words(256)
        .resident_budget_bytes(96 << 10)
        .promo_buffer_bytes(16 << 10)
        .build()
        .expect("valid H2 config")
}

/// Tenant `i`: even indices run Spark PageRank, odd run Giraph WCC, each on
/// its own seed so the tenant mix is heterogeneous but deterministic.
fn tenant(i: usize) -> TenantSpec {
    let workload = if i.is_multiple_of(2) {
        let mut scale = DatasetScale::tiny();
        scale.vertices = 2000;
        scale.avg_degree = 6;
        scale.seed = 42 + i as u64;
        TenantWorkload::Spark { workload: Workload::Pr, scale }
    } else {
        let (vertices, avg_degree, seed) = (2000, 6, 7 + i as u64);
        TenantWorkload::Giraph { workload: GiraphWorkload::Wcc, vertices, avg_degree, seed }
    };
    // H1 small enough that the 2000-vertex inputs overflow into H2 — every
    // round promotes and faults, so tenants genuinely share the device.
    TenantSpec::builder(format!("t{i}"), workload)
        .heap(HeapConfig::with_words(8 << 10, 24 << 10))
        .h2(tenant_h2())
        .rounds(ROUNDS)
        .build()
        .expect("valid tenant spec")
}

fn run_server(device: DeviceSpec, n: usize) -> ServerReport {
    let mut builder = ServerConfig::builder(device, n * tenant_h2().footprint_bytes());
    for i in 0..n {
        builder = builder.tenant(tenant(i));
    }
    let config = builder.build().expect("swept config is valid");
    Server::new(config).expect("validated config").run()
}

pub(super) fn arms() -> Vec<((&'static str, usize), Job<ServerReport>)> {
    devices()
        .into_iter()
        .flat_map(|(name, device)| TENANTS.map(|n| ((name, n), job(move || run_server(device, n)))))
        .collect()
}

pub(super) fn render(out: &mut Rendered, runs: Vec<((&'static str, usize), ServerReport)>) {
    for sweep in runs.chunk_by(|a, b| a.0 .0 == b.0 .0) {
        say!(out.text, "--- device {} ---", sweep[0].0 .0);
        for ((name, n), r) in sweep {
            let p99s = || r.tenants.iter().map(|t| t.p99_round_ns);
            let p99_max = p99s().max().unwrap_or(0);
            let p99_mean = p99s().sum::<u64>() / r.tenants.len().max(1) as u64;
            let queued: u64 = r.tenants.iter().map(|t| t.io.queued_ns).sum();
            let busy: u64 = r.tenants.iter().map(|t| t.io.busy_ns).sum();
            let deferrals: u64 = r.tenants.iter().map(|t| t.deferrals).sum();
            let oom: usize = r.tenants.iter().map(|t| t.oom_rounds).sum();
            let (rate, jain) = (r.agg_rounds_per_sec, r.jain_fairness);
            say!(
                out.text,
                "  N={n}: {rate:.1} rounds/s  p99 {:.2} ms (max {:.2})  queued {:.2} ms  \
                 jain {jain:.4}",
                ms(p99_mean),
                ms(p99_max),
                ms(queued),
            );
            let (rounds, makespan_ns) = (r.total_rounds, r.makespan_ns);
            let vtime_ns = r.device_vtime_ns;
            out.csv.push(format!(
                "{name},{n},{rounds},{rate:.3},{makespan_ns},{vtime_ns},{p99_mean},{p99_max},\
                 {queued},{busy},{deferrals},{jain:.6},{oom}"
            ));
        }
        say!(out.text, "");
    }
}
