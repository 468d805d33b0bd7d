//! # teraheap-query — the query-serving front end
//!
//! An interactive query plane over the dual heap: the "heavy traffic"
//! read-mostly scenario none of the batch Spark/Giraph workloads produce.
//!
//! * [`table`] — columnar tables whose column chunks are *labeled object
//!   groups* on the managed heap: one label per (table, column), so whole
//!   columns promote together into contiguous H2 regions and
//!   are reclaimed together at region granularity. The table roots its
//!   chunks in a dense `(stream, chunk)` directory.
//! * [`index`] — secondary indexes as sorted-key chunk runs, frozen
//!   incrementally as chunks seal.
//! * [`exec`] — a filter/project/aggregate executor whose scans look at
//!   chunks in place through `Heap::view_prims` — a charged borrow, so
//!   H2-resident chunks pay the real page-fault and shared-device
//!   arbitration path and nothing is copied out first — in storage order,
//!   so an H2 scan rides readahead.
//! * [`session`] — a deterministic session driver: N concurrent
//!   closed-loop client sessions multiplexed over multi-tenant heaps on
//!   one `SharedDevice`, replaying a point-lookup / range-scan / aggregate
//!   mix against hot (H1) and cold (H2) table copies.
//! * [`report`] — per-op latency histograms (p50/p99/p999) and the
//!   [`QueryReport`].
//!
//! Determinism contract: simulated time is charged only through the heap's
//! existing cost paths; the driver's scheduling is a pure function of the
//!  config, so every run — and the canonical answer checksum across *all*
//! sweep arms — is exactly reproducible. See `DESIGN.md` §14.

pub mod exec;
pub mod index;
pub mod report;
pub mod session;
pub mod table;

pub use exec::{run_query, Agg, Predicate, Query, QueryResult};
pub use index::{RunMeta, SortedRunIndex};
pub use report::{LatencyHistogram, LatencySummary, QueryReport};
pub use teraheap_util::Fnv;
pub use session::{
    gen_rows, op_for, run_query_plane, run_tenant_round, OpKind, OpSpec, QueryPlaneConfig, COLS,
};
pub use table::{Table, TableConfig, TableMemoryUsage, TablePlacement, COLS_PER_TABLE};
