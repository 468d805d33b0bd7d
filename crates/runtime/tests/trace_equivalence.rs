//! The flight recorder's core contract: tracing *observes* the simulation
//! and never perturbs it.
//!
//! 1. The recorded event stream is a pure function of the workload — two
//!    identical runs produce identical traces.
//! 2. The tracing level (off / full) leaves the simulated clock and every
//!    GC statistic bit-identical.
//!
//! The workload is the mixed GC/H2 workload the `gc_equivalence` golden
//! pins. Span nesting over random programs is the spans arm of
//! `mutator_programs`.

mod common;

use common::{attach_workload_h2, mixed_workload_body};
use teraheap_runtime::obs::{Event, Level};
use teraheap_runtime::{Heap, HeapConfig};
use teraheap_storage::{DeviceSpec, FaultPlan};

fn run_traced(level: Level) -> (Heap, Vec<Event>) {
    let cfg = HeapConfig::builder(24 << 10, 96 << 10).obs_level(level).build().unwrap();
    let mut heap = Heap::new(cfg);
    attach_workload_h2(&mut heap, DeviceSpec::nvme_ssd(), FaultPlan::none());
    mixed_workload_body(&mut heap);
    let events = heap.clock().tracer().events();
    (heap, events)
}

#[test]
fn trace_is_deterministic_for_a_fixed_workload() {
    let (heap_a, events_a) = run_traced(Level::Full);
    let (heap_b, events_b) = run_traced(Level::Full);
    assert!(!events_a.is_empty(), "the workload must produce events");
    assert!(heap_a.stats().objects_promoted_h2 > 0, "the workload must promote to H2");
    assert!(
        heap_a.h2().unwrap().mmap().stats().page_faults() > 0,
        "the workload must fault H2 pages"
    );
    assert_eq!(events_a, events_b, "identical runs record identical traces");
    assert_eq!(heap_a.clock().total_ns(), heap_b.clock().total_ns());
    assert_eq!(heap_a.clock().tracer().emitted(), heap_b.clock().tracer().emitted());
}

#[test]
fn tracing_level_never_perturbs_the_simulation() {
    let (full, full_events) = run_traced(Level::Full);
    let (off, off_events) = run_traced(Level::Off);

    assert!(!full_events.is_empty());
    assert!(off_events.is_empty(), "off level records nothing");

    assert_eq!(
        full.clock().total_ns(),
        off.clock().total_ns(),
        "tracing must observe the clock, never advance it"
    );
    assert_eq!(full.clock().breakdown(), off.clock().breakdown());
    let (a, b) = (full.stats(), off.stats());
    assert_eq!(a.minor_count, b.minor_count);
    assert_eq!(a.major_count, b.major_count);
    assert_eq!(a.minor_ns, b.minor_ns);
    assert_eq!(a.major_ns, b.major_ns);
    assert_eq!(a.objects_promoted_h2, b.objects_promoted_h2);
    assert_eq!(a.phases, b.phases, "phase breakdowns unchanged by tracing");
}
