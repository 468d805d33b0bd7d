//! Zero-dependency foundation crate for the TeraHeap reproduction.
//!
//! The workspace builds fully offline: no crates.io dependencies anywhere.
//! Everything the repo previously pulled in externally is owned here, in
//! five small modules:
//!
//! * [`rng`] — deterministic seedable PRNG (SplitMix64 + xoshiro256++) with
//!   range/shuffle/weighted-choice helpers; drives the dataset generators
//!   and property-test case generation.
//! * [`sync`] — poison-free wrappers over `std::sync::Mutex`/`RwLock`.
//! * [`proptest_mini`] — a property-testing harness with seeded generation,
//!   input shrinking and failure-seed replay (`TERAHEAP_PROP_SEED`).
//! * [`microbench`] — a micro-benchmark harness with warm-up, p50/p99
//!   statistics, throughput reporting and CSV output.
//! * [`golden`] — golden tables as data files: the compare-or-rewrite
//!   mechanism under every pin suite (`TERAHEAP_GOLDEN_WRITE`).
//!
//! Owning these in-repo is what makes the paper-reproduction methodology
//! hold up: the SimClock time breakdowns, generated datasets and property
//! suites are reproducible bit-for-bit on any machine with only a Rust
//! toolchain.

pub mod golden;
pub mod microbench;
pub mod proptest_mini;
pub mod rng;
pub mod sync;

pub use rng::{Rng, SplitMix64};
