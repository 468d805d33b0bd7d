//! Edge cases and failure injection for the runtime + TeraHeap integration.

use teraheap_core::{H2Config, Label};
use teraheap_runtime::obs::timeline::gc_cycles;
use teraheap_runtime::{GcVariant, Heap, HeapConfig};
use teraheap_storage::{Category, DeviceSpec, SharedDevice};

fn tiny_h2(region_words: usize, n_regions: usize) -> H2Config {
    H2Config::builder()
        .region_words(region_words)
        .n_regions(n_regions)
        .card_seg_words(region_words.min(128))
        .resident_budget_bytes(64 << 10)
        .page_size(4096)
        .promo_buffer_bytes(8 << 10)
        .build()
        .expect("valid tiny H2 config")
}

#[test]
fn h2_exhaustion_falls_back_to_h1_without_corruption() {
    // H2 with room for almost nothing: candidates that don't fit must stay
    // in H1, still intact and still readable.
    let mut heap = Heap::new(HeapConfig::with_words(8 << 10, 64 << 10));
    let h2cfg = tiny_h2(64, 2);
    let dev =
        SharedDevice::new(DeviceSpec::nvme_ssd(), h2cfg.footprint_bytes(), heap.clock().clone());
    heap.attach_h2(h2cfg, &dev).unwrap();
    let c = heap.register_class("Blob", 0, 100);
    let mut handles = Vec::new();
    for i in 0..8 {
        let h = heap.alloc(c).unwrap();
        heap.write_prim(h, 0, 1000 + i);
        heap.h2_tag_root(h, Label::new(i + 1));
        heap.h2_move(Label::new(i + 1));
        handles.push(h);
    }
    heap.gc_major().unwrap();
    // At most one 102-word object fits a 64-word region: none fit.
    let in_h2 = handles.iter().filter(|&&h| heap.is_in_h2(h)).count();
    assert_eq!(in_h2, 0, "oversized objects must stay in H1");
    for (i, &h) in handles.iter().enumerate() {
        assert_eq!(heap.read_prim(h, 0), 1000 + i as u64);
    }
    // And the heap remains fully usable afterwards.
    heap.gc_major().unwrap();
    assert_eq!(heap.read_prim(handles[3], 0), 1003);
}

#[test]
fn h2_partial_capacity_moves_what_fits() {
    let mut heap = Heap::new(HeapConfig::with_words(8 << 10, 64 << 10));
    let h2cfg = tiny_h2(256, 2);
    let dev =
        SharedDevice::new(DeviceSpec::nvme_ssd(), h2cfg.footprint_bytes(), heap.clock().clone());
    heap.attach_h2(h2cfg, &dev).unwrap();
    let c = heap.register_class("Blob", 0, 100);
    let mut handles = Vec::new();
    for i in 0..8 {
        let h = heap.alloc(c).unwrap();
        heap.write_prim(h, 0, i);
        heap.h2_tag_root(h, Label::new(1));
        handles.push(h);
    }
    heap.h2_move(Label::new(1));
    heap.gc_major().unwrap();
    let in_h2 = handles.iter().filter(|&&h| heap.is_in_h2(h)).count();
    assert!(in_h2 > 0, "some objects fit H2");
    assert!(in_h2 < 8, "but not all (2 regions x 2 objects each)");
    for (i, &h) in handles.iter().enumerate() {
        assert_eq!(heap.read_prim(h, 0), i as u64, "both halves readable");
    }
}

#[test]
fn labels_survive_minor_gc_copies() {
    let mut heap = Heap::new(HeapConfig::small());
    let h2cfg = tiny_h2(1 << 10, 8);
    let dev =
        SharedDevice::new(DeviceSpec::nvme_ssd(), h2cfg.footprint_bytes(), heap.clock().clone());
    heap.attach_h2(h2cfg, &dev).unwrap();
    let c = heap.register_class("Tagged", 0, 1);
    let h = heap.alloc(c).unwrap();
    heap.h2_tag_root(h, Label::new(77));
    for _ in 0..3 {
        heap.gc_minor().unwrap();
    }
    assert_eq!(heap.h2_label_of(h), 77, "label field copied with the object");
    heap.h2_move(Label::new(77));
    heap.gc_major().unwrap();
    assert!(heap.is_in_h2(h));
}

#[test]
fn large_objects_allocate_directly_in_old_gen() {
    let mut heap = Heap::new(HeapConfig::with_words(4 << 10, 64 << 10));
    // Eden is ~3.2K words; anything above half of that bypasses it.
    let big = heap.alloc_prim_array(2 << 10).unwrap();
    assert!(heap.old_used_words() >= 2 << 10, "big array pretenured");
    assert_eq!(heap.eden_used_words(), 0, "eden untouched by the big array");
    heap.write_prim(big, 100, 5);
    assert_eq!(heap.read_prim(big, 100), 5);
}

#[test]
fn panthera_pretenures_moderately_large_objects() {
    let mut cfg = HeapConfig::with_words(16 << 10, 64 << 10);
    cfg.variant = GcVariant::Panthera { old_dram_words: 8 << 10 };
    let mut heap = Heap::new(cfg);
    // 1/16 of eden (= 819 words) is the Panthera pretenuring threshold.
    let a = heap.alloc_prim_array(1 << 10).unwrap();
    assert!(heap.old_used_words() > 0, "Panthera pretenured the kilobyte array");
    let _ = a;
}

#[test]
fn memory_mode_charges_every_h1_access() {
    let base = HeapConfig::small();
    let charge = |memory_mode: bool| {
        let mut heap = Heap::new(HeapConfig { memory_mode, ..base });
        let arr = heap.alloc_prim_array(1 << 10).unwrap();
        let t0 = heap.clock().category_ns(Category::Mutator);
        for i in 0..1 << 10 {
            heap.write_prim(arr, i, i as u64);
        }
        heap.clock().category_ns(Category::Mutator) - t0
    };
    let dram = charge(false);
    let nvm = charge(true);
    assert!(nvm > dram, "memory mode must slow mutator accesses: {nvm} !> {dram}");
}

#[test]
fn deep_object_chains_survive_many_collections() {
    let mut heap = Heap::new(HeapConfig::with_words(8 << 10, 64 << 10));
    let h2cfg = tiny_h2(4 << 10, 8);
    let dev =
        SharedDevice::new(DeviceSpec::nvme_ssd(), h2cfg.footprint_bytes(), heap.clock().clone());
    heap.attach_h2(h2cfg, &dev).unwrap();
    let c = heap.register_class("Link", 1, 1);
    let head = heap.alloc(c).unwrap();
    heap.write_prim(head, 0, 0);
    let mut cur = head;
    for i in 1..500u64 {
        let n = heap.alloc(c).unwrap();
        heap.write_prim(n, 0, i);
        heap.write_ref(cur, 0, n);
        if cur != head {
            heap.release(cur);
        }
        cur = n;
    }
    if cur != head {
        heap.release(cur);
    }
    heap.h2_tag_root(head, Label::new(1));
    heap.h2_move(Label::new(1));
    for round in 0..6 {
        if round % 2 == 0 {
            heap.gc_major().unwrap();
        } else {
            heap.gc_minor().unwrap();
        }
    }
    assert!(heap.is_in_h2(head));
    let mut cur = head;
    for i in 0..500u64 {
        assert_eq!(heap.read_prim(cur, 0), i);
        match heap.read_ref(cur, 0) {
            Some(n) => {
                if cur != head {
                    heap.release(cur);
                }
                cur = n;
            }
            None => assert_eq!(i, 499),
        }
    }
}

#[test]
fn h1_cards_are_cleared_when_no_young_refs_remain() {
    let mut heap = Heap::new(HeapConfig::with_words(4 << 10, 32 << 10));
    let c = heap.register_class("Holder", 1, 0);
    let holder = heap.alloc(c).unwrap();
    for _ in 0..4 {
        heap.gc_minor().unwrap();
    }
    assert!(heap.old_used_words() > 0, "holder tenured");
    // Create and then sever an old->young reference.
    let young = heap.alloc(c).unwrap();
    heap.write_ref(holder, 0, young);
    heap.write_ref_null(holder, 0);
    heap.release(young);
    heap.gc_minor().unwrap();
    // Dead young target collected; the next minor GC scans no dirty cards.
    let minors_before = heap.stats().minor_count;
    heap.gc_minor().unwrap();
    assert_eq!(heap.stats().minor_count, minors_before + 1);
    assert!(heap.read_ref(holder, 0).is_none());
}

#[test]
fn handle_dup_and_release_are_independent() {
    let mut heap = Heap::new(HeapConfig::small());
    let c = heap.register_class("X", 0, 1);
    let a = heap.alloc(c).unwrap();
    heap.write_prim(a, 0, 9);
    let b = heap.dup(a);
    heap.release(a);
    heap.gc_major().unwrap();
    // The object stays alive through the duplicate.
    assert_eq!(heap.read_prim(b, 0), 9);
}

#[test]
fn unreferenced_h2_groups_die_even_with_internal_cycles() {
    let mut heap = Heap::new(HeapConfig::small());
    let h2cfg = tiny_h2(1 << 10, 8);
    let dev =
        SharedDevice::new(DeviceSpec::nvme_ssd(), h2cfg.footprint_bytes(), heap.clock().clone());
    heap.attach_h2(h2cfg, &dev).unwrap();
    let c = heap.register_class("C", 1, 0);
    let a = heap.alloc(c).unwrap();
    let b = heap.alloc(c).unwrap();
    heap.write_ref(a, 0, b);
    heap.write_ref(b, 0, a); // cycle inside one label group
    heap.h2_tag_root(a, Label::new(5));
    heap.h2_move(Label::new(5));
    heap.release(b);
    heap.gc_major().unwrap();
    assert!(heap.is_in_h2(a));
    heap.release(a);
    heap.gc_major().unwrap();
    assert!(
        heap.h2().unwrap().regions().reclaimed_total() >= 1,
        "cyclic but unreachable group reclaimed in bulk"
    );
}

#[test]
fn gc_event_log_is_consistent() {
    let mut heap = Heap::new(HeapConfig::with_words(2 << 10, 16 << 10));
    let c = heap.register_class("Churn", 0, 16);
    for _ in 0..2_000 {
        let t = heap.alloc(c).unwrap();
        heap.release(t);
    }
    let stats = heap.stats().clone();
    let cycles = gc_cycles(&heap.clock().tracer().events());
    assert_eq!(
        cycles.len() as u64,
        stats.minor_count + stats.major_count,
        "one flight-recorder cycle per collection"
    );
    // GCs never nest, so completion order is also start order.
    let mut last_start = 0;
    for cyc in &cycles {
        assert!(cyc.start_ns >= last_start, "cycles are time-ordered");
        assert!(cyc.old_used_after <= cyc.old_capacity);
        last_start = cyc.start_ns;
    }
}
