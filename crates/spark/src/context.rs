//! The Spark execution context: heap + block manager + shared classes.

use crate::block::{BlockManager, CacheMode};
use crate::placement::PlacementModel;
use teraheap_core::H2Config;
use teraheap_runtime::obs::SpanKind;
use teraheap_runtime::{ClassId, Heap, HeapConfig, SharedDevice};
use teraheap_storage::{Category, DeviceSpec, SimDevice};

/// Which cache/heap configuration a run uses (Table 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecMode {
    /// Spark-SD: on-heap cache limited to 50% of the heap, overflow
    /// serialized to the given device.
    SparkSd {
        /// Device backing the serialized off-heap cache.
        device: DeviceSpec,
    },
    /// Everything cached on-heap (used for Spark-MO with a Memory-mode
    /// heap, and for the PS/G1 collector comparisons of Figure 8).
    OnHeap,
    /// TeraHeap: partitions tagged and moved to H2 over the given device.
    TeraHeap {
        /// H2 layout.
        h2: H2Config,
        /// Device backing H2.
        device: DeviceSpec,
    },
    /// Adaptive placement: H2 is attached as in TeraHeap mode, a serialized
    /// off-heap cache tier exists as in Spark-SD, and the online cost model
    /// ([`crate::placement`]) re-decides per put which tier each partition
    /// lands in.
    Adaptive {
        /// H2 layout.
        h2: H2Config,
        /// Device backing both H2 and the serialized cache tier.
        device: DeviceSpec,
    },
}

impl ExecMode {
    /// Short display name matching the paper's legends.
    pub fn name(&self) -> &'static str {
        match self {
            ExecMode::SparkSd { .. } => "Spark-SD",
            ExecMode::OnHeap => "On-heap",
            ExecMode::TeraHeap { .. } => "TeraHeap",
            ExecMode::Adaptive { .. } => "Adaptive",
        }
    }
}

/// Full configuration of a Spark run.
#[derive(Debug, Clone, Copy)]
pub struct SparkConfig {
    /// H1 heap configuration (collector variant, sizes, threads).
    pub heap: HeapConfig,
    /// Cache mode.
    pub mode: ExecMode,
    /// Number of partitions per RDD.
    pub partitions: usize,
    /// Iteration count for iterative workloads.
    pub iterations: usize,
}

impl SparkConfig {
    /// A small test configuration.
    pub fn small(mode: ExecMode) -> Self {
        SparkConfig {
            heap: HeapConfig::with_words(64 << 10, 256 << 10),
            mode,
            partitions: 4,
            iterations: 3,
        }
    }
}

/// The per-run Spark context.
#[derive(Debug)]
pub struct SparkContext {
    /// The managed heap.
    pub heap: Heap,
    /// The compute cache.
    pub bm: BlockManager,
    /// Partition container class: refs (data0, data1), prim (id).
    pub partition_class: ClassId,
    /// Vertex class: ref (edge target array), prims (id, value).
    pub vertex_class: ClassId,
    /// Configuration.
    pub config: SparkConfig,
    next_rdd: u64,
}

impl SparkContext {
    /// Builds a context on a private heap. A TeraHeap mode attaches it to a
    /// freshly-created one-tenant [`SharedDevice`] sized to the H2 footprint
    /// — the single-tenant degenerate case, where arbitration provably
    /// never queues.
    pub fn new(config: SparkConfig) -> Self {
        let mut heap = Heap::new(config.heap);
        if let ExecMode::TeraHeap { h2, device } | ExecMode::Adaptive { h2, device } = config.mode
        {
            let dev = SharedDevice::new(device, h2.footprint_bytes(), heap.clock().clone());
            heap.attach_h2(h2, &dev)
                .expect("one-tenant SharedDevice attach cannot fail");
        }
        Self::with_heap(config, heap)
    }

    /// Builds a context — block manager and the shared data classes — on a
    /// heap the caller made (`config.heap` only sizes the on-heap cache
    /// budget). For a TeraHeap mode the caller attaches H2 first: a server
    /// tenant attaches to its partition of the shared device, whose spec —
    /// not the mode's `device` field, which [`SparkContext::new`] reads —
    /// decides the H2 I/O cost model.
    pub fn with_heap(config: SparkConfig, mut heap: Heap) -> Self {
        let cache = match config.mode {
            ExecMode::SparkSd { device } => CacheMode::SerializedOverflow {
                device: SimDevice::new(device, 4 << 30, heap.clock().clone()),
                onheap_budget_words: config.heap.h1_words() / 2,
            },
            ExecMode::OnHeap => CacheMode::OnHeapOnly,
            ExecMode::TeraHeap { .. } => CacheMode::TeraHeap,
            ExecMode::Adaptive { device, .. } => {
                let cost = config.heap.cost;
                // Seed the S/D estimate from the static cost model (per-KiB,
                // one direction); real Kryo runs refine it online.
                let serde_prior = cost.serde_byte_ns * 1024 + cost.serde_object_ns;
                CacheMode::Adaptive {
                    device: SimDevice::new(device, 4 << 30, heap.clock().clone()),
                    onheap_budget_words: config.heap.h1_words() / 2,
                    model: PlacementModel::new(
                        device,
                        Some(device),
                        serde_prior,
                        cost.gc_copy_word_ns,
                    ),
                }
            }
        };
        let partition_class = heap.register_class("SparkPartition", 2, 1);
        let vertex_class = heap.register_class("Vertex", 1, 2);
        SparkContext {
            heap,
            bm: BlockManager::new(cache),
            partition_class,
            vertex_class,
            config,
            next_rdd: 1,
        }
    }

    /// Allocates a fresh RDD id (also the TeraHeap label).
    pub fn new_rdd(&mut self) -> u64 {
        let id = self.next_rdd;
        self.next_rdd += 1;
        id
    }

    /// Charges the S/D cost of shuffling `elements` 8-byte elements across
    /// the network path (parallelized across executor threads, as Spark
    /// parallelizes shuffle S/D), plus Kryo-style temporary allocations.
    ///
    /// # Errors
    ///
    /// Returns an error if the temporary allocations exhaust the heap.
    pub fn charge_shuffle(&mut self, elements: u64) -> Result<(), teraheap_runtime::OomError> {
        let _shuffle = self.heap.span(SpanKind::Shuffle);
        let cost = self.heap.config().cost;
        let ns = elements * 8 * cost.serde_byte_ns + elements / 16 * cost.serde_object_ns;
        self.heap.charge_ns(Category::SerDe, ns);
        let temps = (elements / 4096).min(64);
        for _ in 0..temps {
            let t = self.heap.alloc_prim_array(256)?;
            self.heap.release(t);
        }
        Ok(())
    }
}
