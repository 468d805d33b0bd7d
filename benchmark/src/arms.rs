//! The benchmark's pinned inputs: which arms each workload runs and how
//! they are configured.
//!
//! The Spark and Giraph rows are *copied* from Tables 3/4 as scaled in
//! `crates/bench/src/harness.rs` rather than imported, so a refactor of the
//! figure harness cannot silently move what the benchmark measures. The
//! only free input is the seed: it feeds every dataset generator, the query
//! op stream and the per-tenant seeds, and nothing else.

use mini_giraph::{GiraphConfig, GiraphMode, GiraphWorkload};
use mini_spark::{DatasetScale, ExecMode, SparkConfig, Workload};
use teraheap_core::H2Config;
use teraheap_query::QueryPlaneConfig;
use teraheap_runtime::HeapConfig;
use teraheap_server::{ServerConfig, TenantSpec, TenantWorkload};
use teraheap_storage::DeviceSpec;

/// Input size. `Full` is what `BENCHMARK.json` measures; `Quarter` shrinks
/// every heap, dataset and op count together for the `--smoke` API-drift
/// run, whose numbers mean nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quarter,
}

impl Scale {
    fn div(self) -> usize {
        match self {
            Scale::Full => 1,
            Scale::Quarter => 4,
        }
    }

    /// Heap words standing in for one paper-GB (24 Ki at full size).
    fn words_per_gb(self) -> usize {
        (24 << 10) / self.div()
    }
}

/// Which system an arm runs: the paper's design or the competitor it is
/// compared against at the same DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    TeraHeap,
    Baseline,
}

impl Side {
    pub fn tag(self) -> &'static str {
        match self {
            Side::TeraHeap => "th",
            Side::Baseline => "base",
        }
    }
}

/// DRAM the paper reserves outside the heap for Spark (DR2), in paper-GB.
const SPARK_DR2_GB: usize = 16;

/// Young:old 1:4, the split big-data deployments use.
fn heap_split(heap_gb: usize, scale: Scale) -> HeapConfig {
    let words = heap_gb * scale.words_per_gb();
    HeapConfig::with_words(words / 5, words - words / 5)
}

/// H2 holding the dataset six times over (lazy bulk reclamation needs
/// slack), 8 KB card segments, 2 MB promotion buffers, DR2 as page cache.
fn h2_for(dataset_gb: usize, scale: Scale) -> H2Config {
    let region_words = (64 << 10) / scale.div();
    let capacity_words = 6 * dataset_gb * scale.words_per_gb();
    H2Config::builder()
        .region_words(region_words)
        .n_regions(capacity_words.div_ceil(region_words).max(16))
        .card_seg_words(1 << 10)
        .resident_budget_bytes(16 * scale.words_per_gb() * 8)
        .page_size(4096)
        .promo_buffer_bytes((2 << 20) / scale.div())
        .build()
        .expect("pinned H2 layout is valid")
}

/// One Spark arm: a workload at one DRAM size on one side.
#[derive(Debug, Clone)]
pub struct SparkArm {
    pub name: String,
    pub workload: Workload,
    pub side: Side,
    pub config: SparkConfig,
    pub dataset: DatasetScale,
}

/// Table 3 rows used: (workload, dataset GB, the two Figure-6 TeraHeap DRAM
/// sizes, iterations, partitions).
const SPARK_ROWS: [(Workload, usize, [usize; 2], usize, usize); 5] = [
    (Workload::Pr, 80, [32, 80], 6, 64),
    (Workload::Cc, 84, [33, 84], 6, 64),
    (Workload::Lr, 70, [43, 70], 8, 64),
    (Workload::Svm, 48, [36, 48], 8, 160),
    (Workload::Rl, 63, [37, 63], 5, 120),
];

/// `spark_batch`: each row at both DRAM sizes, TeraHeap and Spark-SD, NVMe.
pub fn spark_arms(seed: u64, scale: Scale) -> Vec<SparkArm> {
    let device = DeviceSpec::nvme_ssd();
    let mut arms = Vec::new();
    for (workload, dataset_gb, drams, iterations, partitions) in SPARK_ROWS {
        let words = dataset_gb * scale.words_per_gb();
        let dims = 32;
        let dataset = DatasetScale {
            vertices: words / 17,
            avg_degree: 8,
            rows: words / (dims + 2),
            dims,
            rel_rows: words * 10 / 23,
            rel_keys: 256,
            seed,
        };
        for dram_gb in drams {
            let heap = heap_split(dram_gb.saturating_sub(SPARK_DR2_GB).max(4), scale);
            for side in [Side::TeraHeap, Side::Baseline] {
                let mode = match side {
                    Side::TeraHeap => ExecMode::TeraHeap {
                        h2: h2_for(dataset_gb, scale),
                        device,
                    },
                    Side::Baseline => ExecMode::SparkSd { device },
                };
                arms.push(SparkArm {
                    name: format!("{}.{}@{dram_gb}", workload.name(), side.tag()),
                    workload,
                    side,
                    config: SparkConfig {
                        heap,
                        mode,
                        partitions,
                        iterations,
                    },
                    dataset,
                });
            }
        }
    }
    arms
}

/// One Giraph arm at the large Table-4 DRAM size.
#[derive(Debug, Clone)]
pub struct GiraphArm {
    pub name: String,
    pub workload: GiraphWorkload,
    pub side: Side,
    pub config: GiraphConfig,
    pub vertices: usize,
    pub avg_degree: usize,
    pub seed: u64,
}

/// Table 4 rows: (workload, dataset GB, Giraph-OOC heap GB, TeraHeap H1 GB,
/// supersteps, in-memory words per vertex).
const GIRAPH_ROWS: [(GiraphWorkload, usize, usize, usize, usize, usize); 5] = [
    (GiraphWorkload::Pr, 85, 70, 50, 6, 48),
    (GiraphWorkload::Cdlp, 85, 70, 60, 6, 48),
    (GiraphWorkload::Wcc, 85, 70, 60, 8, 24),
    (GiraphWorkload::Bfs, 65, 48, 35, 8, 24),
    (GiraphWorkload::Sssp, 90, 75, 50, 8, 24),
];

/// `giraph_batch`: each row as a TeraHeap arm and a Giraph-OOC arm.
pub fn giraph_arms(seed: u64, scale: Scale) -> Vec<GiraphArm> {
    let device = DeviceSpec::nvme_ssd();
    let mut arms = Vec::new();
    for (workload, dataset_gb, ooc_heap_gb, th_h1_gb, supersteps, words_per_vertex) in GIRAPH_ROWS {
        for side in [Side::TeraHeap, Side::Baseline] {
            let (heap, mode) = match side {
                Side::TeraHeap => (
                    heap_split(th_h1_gb, scale),
                    GiraphMode::TeraHeap {
                        h2: h2_for(dataset_gb, scale),
                        device,
                    },
                ),
                Side::Baseline => (
                    heap_split(ooc_heap_gb, scale),
                    GiraphMode::OutOfCore {
                        device,
                        memory_limit_words: ooc_heap_gb * scale.words_per_gb() * 45 / 100,
                    },
                ),
            };
            arms.push(GiraphArm {
                name: format!("{}.{}", workload.name(), side.tag()),
                workload,
                side,
                config: GiraphConfig {
                    heap,
                    mode,
                    partitions: 16,
                    max_supersteps: supersteps,
                    use_move_hint: true,
                    low_threshold: None,
                    adaptive_threshold: false,
                    track_h2_liveness: false,
                },
                vertices: dataset_gb * scale.words_per_gb() / words_per_vertex,
                avg_degree: 8,
                seed,
            });
        }
    }
    arms
}

/// Closed-loop client counts of the query plane, printed with the results.
pub const QUERY_TENANTS: usize = 4;
pub const QUERY_SESSIONS: usize = 16;

/// `query_cold` (`hot_pct = 0`) and `query_hot` (`hot_pct = 100`): the same
/// tables, seed and op stream, so their answer checksums must be equal.
///
/// One cold table copy is 32768 rows x 3 columns x 8 B = 768 KiB against a
/// 128 KiB page-cache budget per tenant, so the cold arm really faults and
/// evicts (the committed fig17 shape is cache-resident and does not).
pub fn query_config(seed: u64, hot_pct: u8, scale: Scale) -> QueryPlaneConfig {
    let div = scale.div();
    let h2 = H2Config::builder()
        .region_words((8 << 10) / div)
        .n_regions(64)
        .card_seg_words(512)
        .resident_budget_bytes((128 << 10) / div)
        .page_size(4096)
        .promo_buffer_bytes(16 << 10)
        .build()
        .expect("pinned query H2 layout is valid");
    QueryPlaneConfig {
        device: DeviceSpec::nvme_ssd(),
        heap: HeapConfig::with_words((32 << 10) / div, (512 << 10) / div),
        h2,
        tenants: QUERY_TENANTS,
        sessions: QUERY_SESSIONS,
        total_ops: QUERY_OPS / div,
        rows_per_table: 32768 / div,
        chunk_rows: 256,
        hot_pct,
        lookup_pct: 50,
        scan_pct: 30,
        scan_rows: 48,
        think_ns: 20_000,
        seed,
    }
}

/// Operations per query rep.
pub const QUERY_OPS: usize = 24576;

/// `tenants_mixed`: four heterogeneous closed-loop tenants at equal weight
/// on one NVMe device. Heaps are small against the inputs so every round
/// promotes and faults; otherwise the tenants would never meet at the
/// arbiter.
pub fn tenants_config(seed: u64, scale: Scale) -> ServerConfig {
    let div = scale.div();
    let h2 = H2Config::builder()
        .region_words(8 << 10)
        .n_regions(32)
        .card_seg_words(256)
        .resident_budget_bytes(96 << 10)
        .page_size(4096)
        .promo_buffer_bytes(16 << 10)
        .build()
        .expect("pinned tenant H2 layout is valid");
    // The heap is a fraction of every tenant's input, so each round
    // promotes to H2 and faults back. LR's 4000 rows make four 8000-word
    // partitions: the largest that still fit one H2 region, and together
    // more than the old generation, so they must move.
    let heap = HeapConfig::with_words(8 << 10, 24 << 10);
    let graph = DatasetScale {
        vertices: TENANT_VERTICES / div,
        avg_degree: 6,
        ..DatasetScale::tiny()
    };
    let vectors = DatasetScale {
        rows: TENANT_ROWS / div,
        dims: 8,
        ..DatasetScale::tiny()
    };
    let tenants = [
        TenantWorkload::Spark {
            workload: Workload::Pr,
            scale: DatasetScale { seed, ..graph },
        },
        TenantWorkload::Giraph {
            workload: GiraphWorkload::Wcc,
            vertices: TENANT_VERTICES / div,
            avg_degree: 6,
            seed: seed.wrapping_add(1),
        },
        TenantWorkload::Query {
            sessions: 4,
            ops: TENANT_QUERY_OPS / div,
            rows: TENANT_QUERY_ROWS,
            seed: seed.wrapping_add(2),
        },
        TenantWorkload::Spark {
            workload: Workload::Lr,
            scale: DatasetScale {
                seed: seed.wrapping_add(3),
                ..vectors
            },
        },
    ];
    let mut builder =
        ServerConfig::builder(DeviceSpec::nvme_ssd(), tenants.len() * h2.footprint_bytes());
    for (i, workload) in tenants.into_iter().enumerate() {
        let spec = TenantSpec::builder(format!("t{i}"), workload)
            .heap(heap)
            .h2(h2)
            .rounds(TENANT_ROUNDS)
            .build()
            .expect("pinned tenant spec is valid");
        builder = builder.tenant(spec);
    }
    builder.build().expect("pinned server config is valid")
}

/// Job rounds per tenant per rep.
pub const TENANT_ROUNDS: usize = 32;
const TENANT_VERTICES: usize = 4000;
const TENANT_ROWS: usize = 4000;
const TENANT_QUERY_OPS: usize = 64;
const TENANT_QUERY_ROWS: usize = 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_counts_match_the_benchmark_definition() {
        assert_eq!(spark_arms(42, Scale::Full).len(), 20);
        assert_eq!(giraph_arms(42, Scale::Full).len(), 10);
        assert_eq!(tenants_config(42, Scale::Full).tenants.len(), 4);
    }

    #[test]
    fn every_arm_has_a_partner_with_the_same_inputs() {
        let arms = spark_arms(7, Scale::Full);
        for pair in arms.chunks(2) {
            assert_eq!(pair[0].side, Side::TeraHeap);
            assert_eq!(pair[1].side, Side::Baseline);
            assert_eq!(pair[0].workload, pair[1].workload);
            assert_eq!(
                pair[0].config.heap.h1_words(),
                pair[1].config.heap.h1_words()
            );
            assert_eq!(pair[0].dataset.seed, 7);
        }
    }

    #[test]
    fn cold_copy_is_at_least_four_times_the_page_cache() {
        for scale in [Scale::Full, Scale::Quarter] {
            let cfg = query_config(42, 0, scale);
            let copy_bytes = cfg.rows_per_table * teraheap_query::COLS * 8;
            assert!(copy_bytes >= 4 * cfg.h2.resident_budget_bytes);
        }
    }

    #[test]
    fn hot_and_cold_differ_only_in_placement() {
        let cold = query_config(9, 0, Scale::Full);
        let hot = query_config(9, 100, Scale::Full);
        assert_eq!(
            (cold.seed, cold.total_ops, cold.rows_per_table),
            (hot.seed, hot.total_ops, hot.rows_per_table)
        );
        assert_eq!((cold.hot_pct, hot.hot_pct), (0, 100));
    }
}
