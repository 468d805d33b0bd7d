//! The five LDBC Graphalytics workloads evaluated on Giraph (Table 4):
//! PageRank, Community Detection by Label Propagation, Weakly Connected
//! Components, Breadth-First Search and Single-Source Shortest Paths.
//!
//! Each runs as a vertex program over [`crate::GiraphContext`] supersteps;
//! answers are checksummed so tests can prove the memory mode (OOC with or
//! without a reachable limit, TeraHeap) never changes results.

use crate::{GiraphConfig, GiraphContext, Inbox};
use teraheap_runtime::{Heap, OomError, RunReport};
use teraheap_workloads::{shared_graph, Adjacency};

/// The evaluated Giraph workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GiraphWorkload {
    /// PageRank.
    Pr,
    /// Community Detection by Label Propagation.
    Cdlp,
    /// Weakly Connected Components.
    Wcc,
    /// Breadth-First Search.
    Bfs,
    /// Single-Source Shortest Paths (unit weights).
    Sssp,
}

impl GiraphWorkload {
    /// All five workloads in the paper's order.
    pub const ALL: [GiraphWorkload; 5] = [
        GiraphWorkload::Pr,
        GiraphWorkload::Cdlp,
        GiraphWorkload::Wcc,
        GiraphWorkload::Bfs,
        GiraphWorkload::Sssp,
    ];

    /// The paper's abbreviation.
    pub fn name(&self) -> &'static str {
        match self {
            GiraphWorkload::Pr => "PR",
            GiraphWorkload::Cdlp => "CDLP",
            GiraphWorkload::Wcc => "WCC",
            GiraphWorkload::Bfs => "BFS",
            GiraphWorkload::Sssp => "SSSP",
        }
    }
}

/// Runs one workload on a fresh power-law graph of `vertices` vertices and
/// `avg_degree` average degree, turning OOM into the report's flag.
pub fn run_giraph(
    workload: GiraphWorkload,
    config: GiraphConfig,
    vertices: usize,
    avg_degree: usize,
    seed: u64,
) -> RunReport {
    let mode = config.mode.name().to_string();
    match run_giraph_with_context(workload, config, vertices, avg_degree, seed) {
        Err(e) => RunReport::oom(workload.name(), mode, &e),
        Ok((ctx, checksum)) => {
            let (offloads, reloads) = (ctx.offloads, ctx.reloads);
            RunReport::completed(workload.name(), mode, &ctx.heap, offloads, reloads, checksum)
        }
    }
}

/// Largest "unreached" distance value used by BFS/SSSP.
pub const INF: u64 = u64::MAX / 2;

/// Runs a workload on a private heap and returns the live context alongside
/// the checksum, so harnesses can inspect H2 region statistics, GC logs and
/// policy state (Figures 9–11).
///
/// # Errors
///
/// Returns [`OomError`] if the run exhausts the heap.
pub fn run_giraph_with_context(
    workload: GiraphWorkload,
    config: GiraphConfig,
    vertices: usize,
    avg_degree: usize,
    seed: u64,
) -> Result<(GiraphContext, f64), OomError> {
    run_giraph_on(config.private_heap(), workload, config, vertices, avg_degree, seed)
}

/// Runs a workload on a heap the caller made — [`GiraphContext::load_on`],
/// then the superstep loop. One server-plane job round is this on a heap
/// attached to the tenant's partition of the shared device.
///
/// # Errors
///
/// Returns [`OomError`] if the run exhausts the heap.
pub fn run_giraph_on(
    heap: Heap,
    workload: GiraphWorkload,
    config: GiraphConfig,
    vertices: usize,
    avg_degree: usize,
    seed: u64,
) -> Result<(GiraphContext, f64), OomError> {
    let g = shared_graph(vertices, avg_degree, seed);
    let ctx = GiraphContext::load_on(heap, config, &g, workload_init(workload))?;
    drive(ctx, workload, config, &g)
}

fn workload_init(workload: GiraphWorkload) -> Box<dyn Fn(u64) -> u64> {
    match workload {
        GiraphWorkload::Pr => Box::new(|_| 1.0f64.to_bits()),
        GiraphWorkload::Cdlp | GiraphWorkload::Wcc => Box::new(|id| id),
        GiraphWorkload::Bfs | GiraphWorkload::Sssp => Box::new(|id| if id == 0 { 0 } else { INF }),
    }
}

fn drive(
    mut ctx: GiraphContext,
    workload: GiraphWorkload,
    config: GiraphConfig,
    g: &Adjacency,
) -> Result<(GiraphContext, f64), OomError> {
    let parts = ctx.partitions();
    let max_ss = config.max_supersteps;
    // Capacity hints for combiner-less (CDLP) stores: in-edges per
    // destination partition.
    let mut in_caps = vec![0usize; parts];
    for &t in g.targets() {
        in_caps[t as usize % parts] += 1;
    }
    // PR and CDLP run without combiners (per-message stores, as the
    // Graphalytics Giraph implementations do); the traversal workloads use
    // the standard min combiner.
    let combiner = match workload {
        GiraphWorkload::Pr | GiraphWorkload::Cdlp => crate::Combiner::Append,
        _ => crate::Combiner::MinU64,
    };

    let mut inbox = Inbox::default();
    let mut label_scratch: Vec<u64> = Vec::new();
    for ss in 0..max_ss {
        let mut delivered_any = false;
        for p in 0..parts {
            // Vertex i of the partition has id p + i * parts; the inbox groups
            // the incoming messages by that local index.
            ctx.read_incoming(p, &mut inbox)?;
            let values = ctx.vertex_values(p);
            let edges = ctx.partition_edges(p)?;
            let mut edge_arrays = ctx.heap.pin(edges);
            let mut ops = 0u64;
            for (i, &value) in values.iter().enumerate() {
                let e = ctx.heap.read_ref_at(&mut edge_arrays, i).expect("edge array");
                let deg = ctx.vertex_degree(p, i);
                let msgs = inbox.of(i);
                let (new_value, send): (u64, Option<u64>) = match workload {
                    GiraphWorkload::Pr => {
                        let rank = if ss == 0 {
                            f64::from_bits(value)
                        } else {
                            0.15 + 0.85 * msgs.iter().map(|&m| f64::from_bits(m)).sum::<f64>()
                        };
                        let share = rank / deg.max(1) as f64;
                        (rank.to_bits(), Some(share.to_bits()))
                    }
                    GiraphWorkload::Cdlp => {
                        let label = if ss == 0 || msgs.is_empty() {
                            value
                        } else {
                            most_frequent(msgs, &mut label_scratch)
                        };
                        (label, Some(label))
                    }
                    GiraphWorkload::Wcc => {
                        let lowest = msgs.iter().copied().min().unwrap_or(value).min(value);
                        let send = if ss == 0 || lowest < value { Some(lowest) } else { None };
                        (lowest, send)
                    }
                    GiraphWorkload::Bfs | GiraphWorkload::Sssp => {
                        let best = msgs.iter().copied().min().unwrap_or(INF).min(value);
                        let send = if (ss == 0 && best < INF) || best < value {
                            Some(best + 1)
                        } else {
                            None
                        };
                        (best, send)
                    }
                };
                if new_value != value {
                    ctx.set_vertex_value(p, i, new_value);
                }
                if let Some(msg) = send {
                    // Read every edge target from the (possibly H2- or
                    // device-resident) edge array and deliver through the
                    // combining current store.
                    ctx.send(&mut ctx.heap.pin(e), deg, msg, combiner, &in_caps)?;
                    delivered_any |= deg > 0;
                    ops += deg as u64;
                }
                ops += msgs.len() as u64 + 1;
                ctx.heap.release(e);
            }
            ctx.heap.charge_ops(ops);
            ctx.heap.release(edges);
            ctx.ooc_rebalance()?;
        }
        let delivered = ctx.barrier()?;
        if (delivered == 0 || !delivered_any) && ss > 0 {
            break;
        }
    }

    // Checksum over final vertex values.
    let mut checksum = 0.0f64;
    for p in 0..parts {
        for v in ctx.vertex_values(p) {
            checksum += match workload {
                GiraphWorkload::Pr => f64::from_bits(v),
                _ => v.min(INF) as f64,
            };
        }
    }
    Ok((ctx, checksum))
}

/// The most frequent label, ties to the smallest: sorts a copy in `scratch`
/// and scans the runs.
fn most_frequent(labels: &[u64], scratch: &mut Vec<u64>) -> u64 {
    scratch.clear();
    scratch.extend_from_slice(labels);
    scratch.sort_unstable();
    let (mut best, mut best_count) = (0, 0);
    for run in scratch.chunk_by(|a, b| a == b) {
        if run.len() > best_count {
            (best, best_count) = (run[0], run.len());
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GiraphMode;
    use teraheap_core::H2Config;
    use teraheap_runtime::HeapConfig;
    use teraheap_storage::DeviceSpec;

    fn th_mode() -> GiraphMode {
        GiraphMode::TeraHeap {
            h2: H2Config::builder()
                .region_words(16 << 10)
                .n_regions(64)
                .card_seg_words(1 << 10)
                .resident_budget_bytes(256 << 10)
                .page_size(4096)
                .promo_buffer_bytes(2 << 20)
                .build()
                .expect("valid H2 config"),
            device: DeviceSpec::nvme_ssd(),
        }
    }

    fn ooc_mode() -> GiraphMode {
        GiraphMode::OutOfCore { device: DeviceSpec::nvme_ssd(), memory_limit_words: 4 << 10 }
    }

    /// Giraph-OOC under a limit no run reaches: everything stays on the heap.
    fn unbounded() -> GiraphMode {
        GiraphMode::OutOfCore { device: DeviceSpec::nvme_ssd(), memory_limit_words: usize::MAX }
    }

    #[test]
    fn all_workloads_agree_across_modes() {
        for w in GiraphWorkload::ALL {
            let ooc = run_giraph(w, GiraphConfig::small(ooc_mode()), 200, 4, 7);
            let th = run_giraph(w, GiraphConfig::small(th_mode()), 200, 4, 7);
            let mem = run_giraph(w, GiraphConfig::small(unbounded()), 200, 4, 7);
            for r in [&ooc, &th, &mem] {
                assert!(!r.oom, "{} OOM under {}", w.name(), r.mode);
            }
            assert_eq!(ooc.checksum, mem.checksum, "{} OOC answer differs", w.name());
            assert_eq!(th.checksum, mem.checksum, "{} TH answer differs", w.name());
        }
    }

    #[test]
    fn bfs_reaches_the_reachable_set() {
        let config = GiraphConfig { max_supersteps: 12, ..GiraphConfig::small(unbounded()) };
        let (ctx, checksum) =
            run_giraph_with_context(GiraphWorkload::Bfs, config, 200, 6, 3).expect("fits");
        // The power-law graph biases edges toward vertex 0's side, so a
        // substantial part of the graph must be reached (depth < INF).
        assert!(checksum < 200.0 * INF as f64 / 2.0, "most vertices reached");
        assert!(ctx.superstep() > 1);
    }

    #[test]
    fn an_oom_report_keeps_its_context() {
        let heap = HeapConfig::with_words(1 << 10, 4 << 10);
        let config = GiraphConfig { heap, ..GiraphConfig::small(unbounded()) };
        let r = run_giraph(GiraphWorkload::Pr, config, 2_000, 8, 5);
        assert!(r.oom, "a 5 Ki-word heap cannot hold a 2,000-vertex graph");
        let context = r.oom_context.expect("an OOM report carries its error's text");
        assert!(context.contains("out of memory"), "{context}");
        assert!(r.checksum.is_nan());
    }

    #[test]
    fn pr_ranks_sum_near_vertex_count() {
        let r = run_giraph(GiraphWorkload::Pr, GiraphConfig::small(unbounded()), 300, 5, 11);
        // PageRank with damping 0.85 over n vertices sums to ~n.
        assert!((r.checksum - 300.0).abs() < 90.0, "rank mass ≈ n, got {}", r.checksum);
    }
}
