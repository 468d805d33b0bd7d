//! Multi-tenant fault isolation: one tenant's H2 degrading (injected
//! ENOSPC, the fault plane's one full-H2 rule) must not perturb its
//! neighbours on the same [`SharedDevice`].
//!
//! Two heaps share one device, each in its own partition with its own
//! clock, both with the full-heap checker armed. Tenant A's plan denies
//! backing-file growth past the regions its first wave opens; tenant B runs
//! clean. A degrades *after* B's workload completes, so B's simulated time,
//! heap-check census and arbitration counters must be bit-identical to a
//! run where A never degrades — and B must keep collecting and faulting H2
//! pages afterwards: a degraded tenant parks its own promotions, it does
//! not take the device down.

use std::sync::Arc;
use teraheap_core::{H2Config, Label};
use teraheap_runtime::{ClassId, Heap, HeapConfig};
use teraheap_storage::{Category, DeviceSpec, FaultPlan, SharedDevice, SimClock};

fn h2_config(plan: Option<FaultPlan>) -> H2Config {
    let mut b = H2Config::builder()
        .region_words(2048)
        .n_regions(16)
        .card_seg_words(256)
        .resident_budget_bytes(32 << 10)
        .page_size(4096)
        .promo_buffer_bytes(8 << 10);
    if let Some(plan) = plan {
        b = b.faults(plan);
    }
    b.build().expect("valid H2 config")
}

/// Two checked heaps on one shared device: tenant A under `plan_a`, tenant
/// B clean. Returns both heaps, the device handle and the workload class
/// (registered identically in both heaps).
fn build_pair(plan_a: FaultPlan) -> (Heap, Heap, SharedDevice, ClassId) {
    let h2a = h2_config(Some(plan_a));
    let h2b = h2_config(None);
    let dev = SharedDevice::for_server(
        DeviceSpec::nvme_ssd(),
        h2a.footprint_bytes() + h2b.footprint_bytes(),
    );
    let mut heaps = Vec::new();
    let mut class = None;
    for h2 in [h2a, h2b] {
        let clock = Arc::new(SimClock::new());
        dev.add_tenant(clock.clone(), h2.footprint_bytes()).unwrap();
        let mut cfg = HeapConfig::with_words(4096, 16 << 10);
        cfg.heap_check = true;
        let mut heap = Heap::with_clock(cfg, clock);
        heap.attach_h2(h2, &dev).unwrap();
        let c = heap.register_class("IsoNode", 1, 2);
        assert!(class.is_none_or(|p| p == c), "identical registration order");
        class = Some(c);
        heaps.push(heap);
    }
    let b = heaps.pop().unwrap();
    let a = heaps.pop().unwrap();
    (a, b, dev, class.expect("two heaps registered"))
}

/// One promotion-heavy wave: a tagged chain moved to H2 under a fresh
/// label (so it opens a region), H1-side probes, both collectors, then H2
/// page traffic against the moved chain.
fn wave(
    heap: &mut Heap,
    class: ClassId,
    w: u64,
    probes: &mut Vec<(teraheap_runtime::Handle, u64)>,
) {
    let head = heap.alloc(class).unwrap();
    heap.write_prim(head, 0, w * 1_000);
    let mut prev = head;
    for i in 1..4u64 {
        let n = heap.alloc(class).unwrap();
        heap.write_prim(n, 0, w * 1_000 + i);
        heap.write_ref(prev, 0, n);
        if prev != head {
            heap.release(prev);
        }
        prev = n;
    }
    heap.release(prev);
    heap.h2_tag_root(head, Label::new(w + 1));
    heap.h2_move(Label::new(w + 1));
    for i in 0..6u64 {
        let n = heap.alloc(class).unwrap();
        let v = w * 100 + i;
        heap.write_prim(n, 1, v);
        probes.push((n, v));
    }
    heap.gc_minor().unwrap();
    heap.gc_major().unwrap();
    let mut cur = head;
    let mut owned = Vec::new();
    while let Some(next) = heap.read_ref(cur, 0) {
        owned.push(next);
        cur = next;
    }
    for h in owned {
        heap.release(h);
    }
    heap.release(head);
}

/// What we pin about the clean tenant across the two runs.
#[derive(Debug, PartialEq)]
struct VictimSnapshot {
    total_ns: u64,
    io_ns: u64,
    h2_objects: u64,
    io: teraheap_storage::TenantIo,
}

fn victim_snapshot(heap: &mut Heap, dev: &SharedDevice) -> VictimSnapshot {
    let id = dev.tenant_of(heap.clock()).expect("tenant B is registered");
    VictimSnapshot {
        total_ns: heap.clock().total_ns(),
        io_ns: heap.clock().category_ns(Category::Io),
        h2_objects: heap.heap_check().expect("clean tenant checks out").h2_objects,
        io: dev.tenant_io(id).expect("tenant B has counters"),
    }
}

/// The interleaved schedule: A's first wave, then all of B, then A's
/// remaining waves (where A degrades, if its plan says so). Returns B's
/// snapshot taken right after B finishes.
fn run_schedule(a: &mut Heap, b: &mut Heap, dev: &SharedDevice, class: ClassId) -> VictimSnapshot {
    let mut probes_a = Vec::new();
    let mut probes_b = Vec::new();
    wave(a, class, 0, &mut probes_a);
    for w in 0..3 {
        wave(b, class, w, &mut probes_b);
    }
    b.h2_mut().unwrap().msync(Category::Io);
    for &(h, v) in &probes_b {
        assert_eq!(b.read_prim(h, 1), v, "tenant B payload lost");
    }
    let snap = victim_snapshot(b, dev);
    for w in 1..3 {
        wave(a, class, w, &mut probes_a);
    }
    snap
}

#[test]
fn degraded_tenant_leaves_neighbours_untouched() {
    // Fault-free reference pass: pins tenant B's numbers and counts the
    // regions A's first wave opens, so ENOSPC can be placed right after it
    // (i.e. after B has already finished).
    let (mut a, b, dev, class) = build_pair(FaultPlan::zero_rate(0xFA11));
    wave(&mut a, class, 0, &mut Vec::new());
    let first_wave_regions = a.h2().unwrap().regions().allocated_total();
    assert!(first_wave_regions > 0, "A's first wave must open a region");
    drop((a, b, dev));
    let baseline = {
        let (mut a2, mut b2, dev2, class2) = build_pair(FaultPlan::zero_rate(0xFA11));
        let snap = run_schedule(&mut a2, &mut b2, &dev2, class2);
        assert!(!a2.h2().unwrap().is_degraded(), "no ENOSPC configured");
        snap
    };

    // Degrading pass: A's later waves each need a fresh region and are
    // refused, so A parks them in its old generation.
    let plan = FaultPlan::zero_rate(0xFA11).with_enospc_after(first_wave_regions as u32);
    let (mut a, mut b, dev, class) = build_pair(plan);
    let snap = run_schedule(&mut a, &mut b, &dev, class);
    assert!(a.h2().unwrap().is_degraded(), "A's later waves must hit ENOSPC");
    assert!(!b.h2().unwrap().is_degraded(), "the ENOSPC is A's alone");
    a.heap_check().expect("tenant A stays sound while degraded");

    // Isolation: B's simulated time, I/O, census and arbitration counters
    // are bit-identical to the fault-free pass.
    assert_eq!(snap, baseline, "tenant B observed its neighbour degrading");

    // Liveness: B keeps allocating, collecting, checking and faulting H2
    // pages after A degraded — the device is not globally dead.
    let mut more = Vec::new();
    wave(&mut b, class, 3, &mut more);
    b.heap_check().expect("tenant B stays sound after A degraded");
    for &(h, v) in &more {
        assert_eq!(b.read_prim(h, 1), v);
    }
    assert!(!b.h2().unwrap().is_degraded());
}
