//! Determinism gate for the fault plane: a run with no plane at all and a
//! run with an **armed but zero-rate** plane (`FaultPlan::zero_rate`) must
//! be bit-identical — same simulated nanoseconds in every breakdown
//! category, same charge-call counts, same full (`Level::Full`) event
//! stream, same GC statistics and same page-cache statistics.
//!
//! This is the contract that keeps every `results/*.csv` byte-diff in
//! `scripts/verify.sh` green: arming the hooks costs nothing until a fault
//! actually fires.
//!
//! The workload is the mixed GC/H2 workload the `gc_equivalence` golden
//! pins, followed by an `msync` so every dirty H2 page crosses a write-back
//! boundary.

mod common;

use common::{attach_workload_h2, graph_checksum, mixed_workload_body};
use teraheap_core::Label;
use teraheap_runtime::obs::{Event, Level};
use teraheap_runtime::{Heap, HeapConfig};
use teraheap_storage::{Category, DeviceSpec, FaultPlan};

/// One run of the workload on a heap of `cfg`, traced in full, under `plan`.
fn run(cfg: HeapConfig, plan: FaultPlan) -> (Heap, Vec<Event>, u64) {
    let mut heap = Heap::new(cfg);
    attach_workload_h2(&mut heap, DeviceSpec::nvme_ssd(), plan);
    let keep = mixed_workload_body(&mut heap);
    heap.h2_mut().unwrap().msync(Category::Io);
    let events = heap.clock().tracer().events();
    let checksum = graph_checksum(&mut heap, &keep);
    (heap, events, checksum)
}

#[test]
fn zero_rate_plane_is_bit_identical_to_no_plane() {
    let cfg =
        HeapConfig { obs_level: Some(Level::Full), ..HeapConfig::with_words(24 << 10, 96 << 10) };
    let (off, off_events, off_checksum) = run(cfg, FaultPlan::none());
    let (on, on_events, on_checksum) = run(cfg, FaultPlan::zero_rate(1234));

    assert!(off.h2().unwrap().fault_plane().is_none(), "none() must not arm a plane");
    assert!(on.h2().unwrap().fault_plane().is_some(), "zero_rate must arm the plane");

    // Simulated time: total, per category, and the number of charge calls
    // that produced it.
    assert_eq!(off.clock().total_ns(), on.clock().total_ns(), "total ns diverged");
    assert_eq!(off.clock().breakdown(), on.clock().breakdown(), "category ns diverged");
    assert_eq!(
        off.clock().tracer().charge_counts(),
        on.clock().tracer().charge_counts(),
        "charge-call counts diverged"
    );

    // Full event stream, including every timestamp.
    assert!(!off_events.is_empty(), "the workload must trace events");
    assert_eq!(off_events, on_events, "TERAHEAP_OBS=full event streams diverged");
    assert_eq!(off.clock().tracer().emitted(), on.clock().tracer().emitted());

    // GC statistics and phase breakdowns.
    let (a, b) = (off.stats(), on.stats());
    assert_eq!(a.minor_count, b.minor_count);
    assert_eq!(a.major_count, b.major_count);
    assert_eq!(a.minor_ns, b.minor_ns);
    assert_eq!(a.major_ns, b.major_ns);
    assert_eq!(a.phases, b.phases, "major-GC phase ns diverged");

    // H2 promotion accounting and page-cache statistics.
    let (h2a, h2b) = (off.h2().unwrap(), on.h2().unwrap());
    assert_eq!(h2a.objects_promoted(), h2b.objects_promoted());
    assert_eq!(h2a.words_promoted(), h2b.words_promoted());
    let (sa, sb) = (h2a.mmap().stats(), h2b.mmap().stats());
    assert_eq!(sa.page_faults(), sb.page_faults());
    assert_eq!(sa.seq_faults(), sb.seq_faults());
    assert_eq!(sa.evictions(), sb.evictions());
    assert_eq!(sa.read_bytes(), sb.read_bytes());
    assert_eq!(sa.write_bytes(), sb.write_bytes());
    assert_eq!(sb.io_retries(), 0, "a zero-rate plane must never retry");
    assert!(h2a.objects_promoted() > 0, "the workload must promote to H2");
    assert!(sa.page_faults() > 0, "the workload must fault H2 pages");
    assert!(sa.write_bytes() > 0, "the workload must write H2 pages back");

    // And the workload's answer, for completeness.
    assert_eq!(off_checksum, on_checksum);

    // The armed plane saw every device op — the hooks were live, not
    // bypassed, and still added nothing.
    let plane = on.h2().unwrap().fault_plane().unwrap();
    assert!(plane.io_ops() > 0, "the zero-rate plane must observe device ops");
    assert_eq!(plane.faults_injected(), 0);
    assert_eq!(plane.retries(), 0);
}

/// The degraded (no-H2) mode really is the paper's no-H2 baseline: a heap
/// degraded from the very first promotion behaves like one whose candidate
/// selection never runs — objects stay in the old generation.
#[test]
fn degraded_mode_parks_promotions_in_old_gen() {
    // ENOSPC immediately: the first region-open is denied.
    let plan = FaultPlan::zero_rate(7).with_enospc_after(0);
    let cfg = HeapConfig::with_words(4 << 10, 32 << 10);
    let mut heap = Heap::new(cfg);
    attach_workload_h2(&mut heap, DeviceSpec::nvme_ssd(), plan);
    let class = heap.register_class("Parked", 1, 1);
    let root = heap.alloc_ref_array(16).unwrap();
    for i in 0..16 {
        let n = heap.alloc(class).unwrap();
        heap.write_prim(n, 0, i as u64);
        heap.write_ref(root, i, n);
        heap.release(n);
    }
    heap.h2_tag_root(root, Label::new(1));
    heap.h2_move(Label::new(1));
    heap.gc_major().unwrap();
    assert!(heap.h2().unwrap().is_degraded(), "ENOSPC at first open must degrade");
    assert!(!heap.is_in_h2(root), "degraded promotion must park in H1");
    assert_eq!(heap.h2().unwrap().objects_promoted(), 0);
    // Parked objects stay fully usable and further GCs stay clean.
    heap.gc_major().unwrap();
    heap.heap_check().expect("degraded heap stays consistent");
    for i in 0..16 {
        let n = heap.read_ref(root, i).unwrap();
        assert_eq!(heap.read_prim(n, 0), i as u64);
        heap.release(n);
    }
}
