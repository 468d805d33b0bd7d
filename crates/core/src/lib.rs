//! TeraHeap's second-heap (H2) mechanisms — the paper's primary contribution.
//!
//! TeraHeap (ASPLOS 2023) extends a managed runtime with a second,
//! high-capacity heap (H2) memory-mapped over a fast storage device,
//! coexisting with the regular DRAM heap (H1). This crate implements every
//! H2-side mechanism from §3 of the paper:
//!
//! * [`region::RegionManager`] — H2 organized as a region-based heap with
//!   per-region metadata in DRAM: start/top pointers, a live bit and a
//!   *dependency list* recording outgoing cross-region references (§3.3,
//!   Figure 2). Dead regions are reclaimed lazily in bulk, never compacted.
//! * [`card::H2CardTable`] — the extended card table tracking backward
//!   (H2→H1) references with four states (clean/dirty/youngGen/oldGen) and
//!   stripe/slice organization for contention-free parallel scanning (§3.4,
//!   Figure 3).
//! * [`policy::TransferPolicy`] — the hint-based interface state
//!   (`h2_tag_root` labels + `h2_move` requests) and the high/low-threshold
//!   mechanism that bounds H1 pressure (§3.2).
//! * [`promo::Promoter`] — 2 MB per-region promotion buffers batching object
//!   moves to the device with explicit asynchronous I/O (§3.2).
//! * [`h2::H2`] — the composite facade the runtime's garbage collector drives.
//!
//! The runtime crate (`teraheap-runtime`) owns object layout and the garbage
//! collector; this crate owns all H2 bookkeeping and device cost accounting.
//!
//! # Example
//!
//! ```
//! use teraheap_core::{H2, H2Config, Label};
//! use teraheap_storage::{Category, DeviceSpec, SimClock};
//! use std::sync::Arc;
//!
//! let clock = Arc::new(SimClock::new());
//! let mut h2 = H2::new(H2Config::default(), DeviceSpec::nvme_ssd(), clock);
//! let label = Label::new(1);
//! let addr = h2.alloc(label, 16).expect("H2 has space");
//! assert!(addr.is_h2());
//! ```

pub mod addr;
pub mod card;
pub mod h2;
pub mod lifetime;
pub mod policy;
pub mod promo;
pub mod region;

pub use addr::{Addr, H2_BASE_WORDS, NULL, WORD_BYTES};
pub use card::{CardState, H2CardTable};
pub use h2::{H2Config, H2ConfigBuilder, H2ConfigError, H2Error, H2};
pub use lifetime::{LifetimeProfiles, SiteStats};
pub use policy::{Label, TransferPolicy};
pub use promo::Promoter;
pub use region::{RegionId, RegionManager, RegionStats};
