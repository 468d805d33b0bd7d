//! Linked-but-idle equivalence gate for the query plane.
//!
//! `teraheap-query` adds events, labeled allocation entry points and a
//! server workload variant — all of which must be *free* when unused. This
//! suite links the query crate into the test binary and replays the
//! runtime's golden mixed GC/H2 workload — `crates/runtime/tests/common`,
//! included by path, so it is that suite's workload by construction: with
//! the query plane never touched, the object-graph checksum, the total
//! simulated time and the collection counts must reproduce the
//! default-configuration row of the runtime suite's own golden file
//! (`crates/runtime/tests/golden/gc_equivalence.txt`) bit-identically. The
//! committed figure CSVs (fig6–fig16) are separately pinned by
//! `scripts/verify.sh`'s regeneration diff.
//!
//! If this fails while the runtime's own suite passes, the query crate has
//! leaked cost into a shared path (an event emitted from library code, a
//! charge in `alloc_prim_array_labeled` reachable from plain `alloc`, …).

#[path = "../../runtime/tests/common/mod.rs"]
mod common;

use common::{attach_workload_h2, graph_checksum, mixed_workload_body, COLUMNS, DEFAULT_ARM};
// Links the query crate into this binary; nothing below calls into it.
use teraheap_query as _;
use teraheap_runtime::{Heap, HeapConfig};
use teraheap_storage::{DeviceSpec, FaultPlan};
use teraheap_util::golden::Golden;

/// The default heap with the workload's H2 attached.
fn workload_heap() -> Heap {
    let mut heap = Heap::new(HeapConfig::with_words(24 << 10, 96 << 10));
    attach_workload_h2(&mut heap, DeviceSpec::nvme_ssd(), FaultPlan::none());
    heap
}

#[test]
fn query_crate_linked_but_idle_reproduces_runtime_golden() {
    let mut heap = workload_heap();
    let keep = mixed_workload_body(&mut heap);

    let total_ns = heap.clock().total_ns();
    let stats = heap.stats().clone();
    let promoted = heap.h2().unwrap().objects_promoted();
    let checksum = graph_checksum(&mut heap, &keep);

    let runtime = concat!(env!("CARGO_MANIFEST_DIR"), "/../runtime");
    let golden = Golden::open(runtime, "gc_equivalence", &COLUMNS);
    for (column, got) in [
        ("checksum", checksum),
        ("total_ns", total_ns),
        ("minor_count", stats.minor_count),
        ("major_count", stats.major_count),
        ("objects_promoted_h2", promoted),
    ] {
        let pinned = golden.cell(DEFAULT_ARM, column);
        assert_eq!(got, pinned, "{DEFAULT_ARM}  {column} drifted with the query crate linked");
    }
}

#[test]
fn idle_workload_emits_no_query_events() {
    // The flight recorder must show zero query-plane traffic when the
    // query API is never called — the events exist, the cost does not.
    let mut heap = workload_heap();
    heap.clock().tracer().set_capacity(1 << 16);
    heap.clock().tracer().set_level(teraheap_runtime::obs::Level::Full);
    let keep = mixed_workload_body(&mut heap);
    let events = heap.clock().tracer().events();
    assert!(!events.is_empty(), "the recorder must capture the workload's GC/H2 traffic");
    assert!(
        events.iter().all(|e| {
            !matches!(
                e.kind,
                teraheap_runtime::obs::EventKind::QueryBegin { .. }
                    | teraheap_runtime::obs::EventKind::QueryEnd { .. }
                    | teraheap_runtime::obs::EventKind::IndexProbe { .. }
            )
        }),
        "no query event may fire from non-query code"
    );
    drop(keep);
}
