//! Simulated storage substrate for the TeraHeap reproduction.
//!
//! The TeraHeap paper (ASPLOS 2023) evaluates a second managed heap (H2)
//! memory-mapped over fast storage devices: a Samsung PM983 NVMe SSD and
//! Intel Optane DC persistent memory. This crate provides the equivalent
//! substrate for a simulation-driven reproduction:
//!
//! * [`DeviceSpec`] — latency/bandwidth models for DRAM, NVMe SSD and NVM,
//!   including page- vs byte-addressability (§2 of the paper).
//! * [`SimDevice`] — the blob tier under the serialized off-heap caches of
//!   the baselines: `store` serves a write and returns an owned [`Blob`],
//!   `load` serves a read and lends the blob's bytes.
//! * [`MmapSim`] — a page-cache cost model for file-backed `mmap`, with
//!   faults, dirty write-back, a resident-set budget (the paper's DR2) and
//!   optional 2 MB huge pages (the paper's HugeMap configuration).
//! * [`SharedDevice`] — one H2 device shared by N tenant heaps: per-tenant
//!   quotas tiled in a single capacity pool and one deterministic calendar
//!   of device time, so colocated tenants' I/O charges reflect contention
//!   (the server plane, DESIGN.md §12). Every device operation, page
//!   cache and blob tier alike, is served through a [`DeviceLease`]; a
//!   private device is a one-tenant `SharedDevice`.
//! * [`spare`] — the word buffers a server run recycles from one tenant
//!   round to the next, zeroed where they were written.
//! * [`SimClock`] — a deterministic simulated clock that attributes
//!   nanoseconds to the paper's execution-time breakdown categories
//!   (other, S/D + I/O, minor GC, major GC).
//! * [`FaultPlan`] / [`FaultPlane`] — a deterministic fault-injection plane
//!   (transient I/O errors with bounded backoff-charged retries, latency
//!   spikes, ENOSPC), armed per run and off by default.
//!
//! Everything is deterministic: no wall-clock time is ever read.
//!
//! # Example
//!
//! ```
//! use teraheap_storage::{Category, DeviceSpec, MmapSim, SimClock};
//! use std::sync::Arc;
//!
//! let clock = Arc::new(SimClock::new());
//! // 1 MiB mapping over NVMe with a 256 KiB resident budget.
//! let mut map = MmapSim::new(DeviceSpec::nvme_ssd(), 1 << 20, 256 << 10, 4096, clock.clone());
//! map.touch_write(0, 8192, Category::Mutator);
//! assert!(clock.total_ns() > 0);
//! ```

pub mod clock;
pub mod cost;
pub mod device;
pub mod fault;
pub mod mmap;
pub mod shared;
pub mod spare;
pub mod stats;

pub use clock::{Breakdown, Category, ChargeScope, SimClock, TraceSpan};
pub use cost::CostModel;
pub use device::{Blob, DeviceKind, DeviceSpec, SimDevice};
pub use fault::{FaultPlan, FaultPlane, RetryOutcome};
pub use mmap::MmapSim;
pub use shared::{AttachError, DeviceLease, SharedDevice, TenantId, TenantIo};
pub use stats::IoStats;

/// The flight-recorder crate, re-exported so clock holders can name event
/// types without a separate dependency edge.
pub use teraheap_obs as obs;

/// Size of a small (regular) page in bytes, matching Linux.
pub const PAGE_SIZE: usize = 4096;

/// Size of a huge page in bytes (2 MB), matching the paper's HugeMap setup.
pub const HUGE_PAGE_SIZE: usize = 2 << 20;
