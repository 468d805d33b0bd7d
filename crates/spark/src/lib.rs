//! Mini Spark: an RDD-style analytics framework over the managed heap.
//!
//! Reproduces the Spark role in the paper's evaluation (§5, Figure 4):
//! applications build RDDs of partitions, `persist()` caches them through a
//! block manager, and iterative jobs re-read the cached partitions every
//! iteration. The block manager supports the paper's cache configurations:
//!
//! * **Spark-SD** — deserialized on-heap cache up to 50% of the heap;
//!   overflow partitions are *serialized* to the storage device and
//!   *deserialized back onto the heap* on every access (the S/D + GC
//!   pressure path TeraHeap eliminates);
//! * **Spark-MO** — everything cached on-heap, with the heap itself over
//!   NVM in Memory mode (configure via [`teraheap_runtime::MemoryMode`]);
//! * **TeraHeap** — `persist()` issues `h2_tag_root(partition, rdd_id)` +
//!   `h2_move(rdd_id)`; partitions migrate to H2 at the next major GC and
//!   are accessed directly (load/store, page faults) with no S/D.
//!
//! Ten SparkBench-style workloads ([`Workload`]) exercise the cache exactly
//! as the paper describes: GraphX-style graph analytics (PR, CC, SSSP, SVD,
//! TR), MLlib-style learners (LR, LgR, SVM, BC) and a SQL-style relational
//! job (RL).

pub mod block;
pub mod context;
pub mod placement;
pub mod report;
pub mod workloads;

pub use block::{BlockId, BlockManager, CacheMode};
pub use context::{ExecMode, SparkConfig, SparkContext};
pub use placement::{Placement, PlacementInputs, PlacementModel};
pub use report::RunReport;
pub use workloads::{
    run_workload, run_workload_on, run_workload_reported, run_workload_traced, DatasetScale,
    Workload,
};
