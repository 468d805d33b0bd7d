//! Behavioural tests for the collectors and the TeraHeap integration.

mod common;

use common::graph_checksum;
use teraheap_core::{H2Config, Label};
use teraheap_runtime::{GcVariant, Handle, Heap, HeapConfig};
use teraheap_storage::{Category, DeviceSpec, FaultPlan, SharedDevice};

fn small_heap() -> Heap {
    Heap::new(HeapConfig::with_words(2048, 8192))
}

fn th_heap() -> Heap {
    th_heap_with(HeapConfig::with_words(2048, 8192))
}

fn th_heap_with(config: HeapConfig) -> Heap {
    th_heap_on(config, 16, FaultPlan::none())
}

/// A heap of `config` over an H2 of `n_regions` 1024-word regions armed
/// with `faults`.
fn th_heap_on(config: HeapConfig, n_regions: usize, faults: FaultPlan) -> Heap {
    let mut heap = Heap::new(config);
    let h2cfg = H2Config::builder()
        .region_words(1024)
        .n_regions(n_regions)
        .card_seg_words(128)
        .resident_budget_bytes(64 << 10)
        .page_size(4096)
        .promo_buffer_bytes(8 << 10)
        .faults(faults)
        .build()
        .expect("valid H2 config");
    let dev =
        SharedDevice::new(DeviceSpec::nvme_ssd(), h2cfg.footprint_bytes(), heap.clock().clone());
    heap.attach_h2(h2cfg, &dev).unwrap();
    heap
}

#[test]
fn minor_gc_preserves_reachable_graph() {
    let mut h = small_heap();
    let node = h.register_class("Node", 1, 1);
    // Build a linked list of 20 nodes.
    let head = h.alloc(node).unwrap();
    h.write_prim(head, 0, 0);
    let mut tail = head;
    for i in 1..20u64 {
        let n = h.alloc(node).unwrap();
        h.write_prim(n, 0, i);
        h.write_ref(tail, 0, n);
        if tail != head {
            h.release(tail);
        }
        tail = n;
    }
    h.release(tail);
    h.gc_minor().unwrap();
    // Walk and verify.
    let mut cur = head;
    for i in 0..20u64 {
        assert_eq!(h.read_prim(cur, 0), i);
        match h.read_ref(cur, 0) {
            Some(next) => {
                if cur != head {
                    h.release(cur);
                }
                cur = next;
            }
            None => assert_eq!(i, 19, "list ends at the right node"),
        }
    }
}

#[test]
fn minor_gc_reclaims_garbage() {
    let mut h = small_heap();
    let c = h.register_class("Obj", 0, 4);
    for _ in 0..10 {
        let t = h.alloc(c).unwrap();
        h.release(t); // immediately garbage
    }
    let used_before = h.eden_used_words();
    assert!(used_before > 0);
    h.gc_minor().unwrap();
    assert_eq!(h.eden_used_words(), 0, "eden empty after scavenge");
    assert_eq!(h.old_used_words(), 0, "no garbage promoted");
}

#[test]
fn survivors_tenure_into_old_generation() {
    let mut h = small_heap();
    let c = h.register_class("Keep", 0, 2);
    let keep = h.alloc(c).unwrap();
    h.write_prim(keep, 0, 7);
    for _ in 0..4 {
        h.gc_minor().unwrap();
    }
    assert!(h.old_used_words() > 0, "long-lived object tenured");
    assert_eq!(h.read_prim(keep, 0), 7, "object intact after tenuring");
}

#[test]
fn dirty_cards_keep_young_targets_alive() {
    let mut h = small_heap();
    let c = h.register_class("Holder", 1, 1);
    let holder = h.alloc(c).unwrap();
    // Tenure the holder into the old generation.
    for _ in 0..4 {
        h.gc_minor().unwrap();
    }
    assert!(h.old_used_words() > 0);
    // Store a young object into the old holder: barrier dirties the card.
    let young = h.alloc(c).unwrap();
    h.write_prim(young, 0, 99);
    h.write_ref(holder, 0, young);
    h.release(young); // only reachable via the old object now
    h.gc_minor().unwrap();
    let y = h.read_ref(holder, 0).expect("young target survived via card");
    assert_eq!(h.read_prim(y, 0), 99);
}

#[test]
fn major_gc_compacts_and_updates_handles() {
    let mut h = small_heap();
    let c = h.register_class("Obj", 1, 1);
    let a = h.alloc(c).unwrap();
    h.write_prim(a, 0, 1);
    let garbage = h.alloc(c).unwrap();
    h.release(garbage);
    let b = h.alloc(c).unwrap();
    h.write_prim(b, 0, 2);
    h.write_ref(a, 0, b);
    h.gc_major().unwrap();
    assert_eq!(h.read_prim(a, 0), 1);
    let b2 = h.read_ref(a, 0).unwrap();
    assert_eq!(h.read_prim(b2, 0), 2);
    assert_eq!(h.stats().major_count, 1);
}

#[test]
fn alloc_pressure_triggers_gc_automatically() {
    let mut h = small_heap();
    let c = h.register_class("Chunk", 0, 100);
    for _ in 0..200 {
        let t = h.alloc(c).unwrap();
        h.release(t);
    }
    assert!(h.stats().minor_count > 0, "allocation pressure ran GCs");
}

#[test]
fn heap_exhaustion_reports_oom() {
    let mut h = Heap::new(HeapConfig::with_words(512, 1024));
    let c = h.register_class("Chunk", 0, 64);
    let mut held = Vec::new();
    let mut oom = false;
    for _ in 0..100 {
        match h.alloc(c) {
            Ok(handle) => held.push(handle),
            Err(e) => {
                assert!(e.to_string().contains("out of memory"));
                oom = true;
                break;
            }
        }
    }
    assert!(oom, "holding everything must exhaust the heap");
}

#[test]
fn h2_move_relocates_tagged_closure() {
    let mut h = th_heap();
    let part = h.register_class("Partition", 1, 0);
    let elem = h.register_class("Elem", 0, 2);
    // partition -> array -> elements
    let root = h.alloc(part).unwrap();
    let arr = h.alloc_ref_array(8).unwrap();
    h.write_ref(root, 0, arr);
    for i in 0..8 {
        let e = h.alloc(elem).unwrap();
        h.write_prim(e, 0, i as u64 * 10);
        h.write_ref(arr, i, e);
        h.release(e);
    }
    h.release(arr);
    let label = Label::new(42);
    h.h2_tag_root(root, label);
    h.h2_move(label);
    h.gc_major().unwrap();
    assert!(h.is_in_h2(root), "tagged root moved to H2");
    assert!(h.stats().objects_promoted_h2 >= 10, "closure moved too");
    // Direct access to H2 objects — no deserialization step.
    let arr2 = h.read_ref(root, 0).unwrap();
    assert!(h.is_in_h2(arr2));
    for i in 0..8 {
        let e = h.read_ref(arr2, i).unwrap();
        assert_eq!(h.read_prim(e, 0), i as u64 * 10);
        h.release(e);
    }
}

#[test]
fn untagged_objects_stay_in_h1() {
    let mut h = th_heap();
    let c = h.register_class("Plain", 0, 2);
    let a = h.alloc(c).unwrap();
    h.gc_major().unwrap();
    assert!(!h.is_in_h2(a));
}

#[test]
fn tag_without_move_hint_keeps_object_in_h1() {
    let mut h = th_heap();
    let c = h.register_class("Part", 0, 2);
    let a = h.alloc(c).unwrap();
    h.h2_tag_root(a, Label::new(1));
    // No h2_move, no pressure: stays in H1.
    h.gc_major().unwrap();
    assert!(!h.is_in_h2(a));
    // After the hint, the next major GC moves it.
    h.h2_move(Label::new(1));
    h.gc_major().unwrap();
    assert!(h.is_in_h2(a));
}

#[test]
fn dead_h2_regions_are_reclaimed_in_bulk() {
    let mut h = th_heap();
    let c = h.register_class("Part", 0, 16);
    let a = h.alloc(c).unwrap();
    h.h2_tag_root(a, Label::new(5));
    h.h2_move(Label::new(5));
    h.gc_major().unwrap();
    assert!(h.is_in_h2(a));
    assert_eq!(h.h2().unwrap().regions().reclaimed_total(), 0);
    // Drop the only reference; the region dies at the next major GC.
    h.release(a);
    h.gc_major().unwrap();
    assert_eq!(h.h2().unwrap().regions().reclaimed_total(), 1);
}

/// One label that fills two regions does not tie their fates: with every
/// handle into the first released and one into the second still held, the
/// first has no referrer and dies at the next major GC (§3.3: a region is
/// live only if H1 or a live region references it).
#[test]
fn a_labels_first_region_dies_while_its_next_region_lives() {
    let mut h = th_heap();
    let label = Label::new(7);
    // Twelve ~100-word arrays overflow one 1024-word region.
    let mut arrays: Vec<Handle> = (0..12).map(|_| h.alloc_prim_array(100).unwrap()).collect();
    for &x in &arrays {
        h.h2_tag_root(x, label);
    }
    h.h2_move(label);
    h.gc_major().unwrap();
    let region = |h: &Heap, x: Handle| h.h2().unwrap().regions().region_of(h.handle_addr(x));
    assert!(arrays.iter().all(|&x| h.is_in_h2(x)), "the label moves to H2");
    let in_b = arrays.pop().unwrap();
    let region_a = region(&h, arrays[0]);
    assert_ne!(region(&h, in_b), region_a, "the label fills two regions");
    h.write_prim(in_b, 0, 77);
    for x in arrays {
        h.release(x);
    }
    let free = h.h2().unwrap().regions().free_count();
    h.gc_major().unwrap();
    let regions = h.h2().unwrap().regions();
    assert_eq!(regions.reclaimed_total(), 1, "region A has no referrer");
    assert_eq!(regions.free_count(), free + 1);
    h.heap_check().expect("nothing references the freed region");
    assert_eq!(h.read_prim(in_b, 0), 77, "region B lives on");
}

#[test]
fn backward_references_keep_h1_objects_alive() {
    let mut h = th_heap();
    let holder = h.register_class("Holder", 1, 0);
    let payload = h.register_class("Payload", 0, 1);
    let root = h.alloc(holder).unwrap();
    h.h2_tag_root(root, Label::new(9));
    h.h2_move(Label::new(9));
    h.gc_major().unwrap();
    assert!(h.is_in_h2(root));
    // Mutator updates the H2 object to point at a fresh H1 object: the
    // post-write barrier dirties the H2 card.
    let p = h.alloc(payload).unwrap();
    h.write_prim(p, 0, 123);
    h.write_ref(root, 0, p);
    h.release(p); // only reachable from H2 now
    h.gc_minor().unwrap();
    let p2 = h.read_ref(root, 0).expect("backward ref kept target alive");
    assert_eq!(h.read_prim(p2, 0), 123);
    h.release(p2);
    // Also across a major GC (target moves during compaction).
    h.gc_major().unwrap();
    let p3 = h.read_ref(root, 0).expect("backward ref adjusted by major GC");
    assert_eq!(h.read_prim(p3, 0), 123);
}

/// Two nodes moved to H2 under different labels (so different regions),
/// then linked by a mutator update: an H2→H2 cross-region reference on a
/// dirty card. Returns `(a, b)` with `a.0 = b`.
fn h2_cross_region_pair(h: &mut Heap) -> (Handle, Handle) {
    let node = h.register_class("Node", 1, 1);
    let a = h.alloc(node).unwrap();
    let b = h.alloc(node).unwrap();
    h.write_prim(b, 0, 55);
    h.h2_tag_root(a, Label::new(1));
    h.h2_tag_root(b, Label::new(2));
    h.h2_move(Label::new(1));
    h.h2_move(Label::new(2));
    h.gc_major().unwrap();
    assert!(h.is_in_h2(a) && h.is_in_h2(b));
    let regions = h.h2().unwrap().regions();
    assert_ne!(regions.region_of(h.handle_addr(a)), regions.region_of(h.handle_addr(b)));
    h.write_ref(a, 0, b);
    (a, b)
}

/// Releases `b`, leaving it reachable only through `a`'s H2→H2 reference,
/// and checks that the next major GC keeps its region.
fn assert_dependency_keeps_target(h: &mut Heap, (a, b): (Handle, Handle)) {
    h.release(b);
    h.gc_major().unwrap();
    assert_eq!(h.h2().unwrap().regions().reclaimed_total(), 0, "dep list keeps b's region");
    h.heap_check().expect("no reference into a freed region");
    let b2 = h.read_ref(a, 0).unwrap();
    assert_eq!(h.read_prim(b2, 0), 55);
}

#[test]
fn cross_region_dependencies_prevent_premature_reclaim() {
    let mut h = th_heap();
    let pair = h2_cross_region_pair(&mut h);
    // The major GC's card scan records the dependency.
    h.gc_major().unwrap();
    assert_dependency_keeps_target(&mut h, pair);
}

/// A minor GC scans the dirty card first and, finding no backward
/// reference, cleans it, so no major GC ever scans it: the minor scan must
/// record the dependency itself, or `b`'s region is freed under `a`.
#[test]
fn minor_scanned_h2_to_h2_store_keeps_its_target_region() {
    let mut h = th_heap();
    let pair = h2_cross_region_pair(&mut h);
    h.gc_minor().unwrap();
    assert_dependency_keeps_target(&mut h, pair);
}

/// Between the slices of a sliced cycle, after the region sweep and
/// before the flip, old-generation garbage may still name a region the
/// sweep freed; it is compacted away at the flip, so the checker armed
/// after every slice must not report it.
#[test]
fn sliced_checks_skip_garbage_pointing_into_swept_regions() {
    let config =
        HeapConfig::builder(2048, 4096).pause_budget_ns(1_000).heap_check(true).build().unwrap();
    let mut h = th_heap_with(config);
    let node = h.register_class("Node", 1, 1);
    let y = h.alloc(node).unwrap();
    h.h2_tag_root(y, Label::new(1));
    h.h2_move(Label::new(1));
    h.gc_major().unwrap();
    assert!(h.is_in_h2(y));
    // Live objects enough for several planning units, and garbage in the
    // old generation (too big for eden) that is y's region's only referrer.
    let keep = h.alloc_ref_array(256).unwrap();
    for i in 0..256 {
        let n = h.alloc(node).unwrap();
        h.write_ref(keep, i, n);
        h.release(n);
    }
    let garbage = h.alloc_ref_array(1024).unwrap();
    h.write_ref(garbage, 0, y);
    h.release(garbage);
    h.release(y);
    // The minor GC starts a cycle (old free < 2 * young is always true
    // here); mutator time runs it slice by slice.
    h.gc_minor().unwrap();
    let majors = h.stats().major_count;
    for _ in 0..10_000 {
        if h.stats().major_count > majors {
            break;
        }
        h.charge_ops(64);
    }
    assert!(h.stats().incr_slices > 2, "the cycle ran in slices");
    assert_eq!(h.h2().unwrap().regions().reclaimed_total(), 1, "y's region died");
}

/// Tags one closure of a little over two regions — a spine array over 64
/// primitive arrays of 2 to 58 elements — on a heap of [`th_heap_on`] with
/// the checker armed, moves it with one major GC, and returns the heap and
/// the closure's handles, spine first.
fn move_closure_into(n_regions: usize, faults: FaultPlan) -> (Heap, Vec<Handle>) {
    let config = HeapConfig::builder(2048, 8192).heap_check(true).build().unwrap();
    let mut h = th_heap_on(config, n_regions, faults);
    let spine = h.alloc_ref_array(64).unwrap();
    let mut closure = vec![spine];
    for i in 0..64 {
        let e = h.alloc_prim_array(2 + (i * 37) % 57).unwrap();
        h.write_prim(e, 0, i as u64);
        h.write_ref(spine, i, e);
        closure.push(e);
    }
    h.h2_tag_root(spine, Label::new(1));
    h.h2_move(Label::new(1));
    h.gc_major().unwrap();
    h.heap_check().expect("a split closure is a consistent heap");
    (h, closure)
}

/// An injected ENOSPC is one more full H2 (§4's no-H2 fallback): a closure
/// larger than `k` regions, moved once with ample regions and ENOSPC after
/// `k`, and once with only `k` regions and no plan, puts the same objects in
/// H2 — the ones that fit, while the rest of the closure stays in H1.
#[test]
fn injected_enospc_splits_a_closure_like_a_full_h2() {
    let k = 2;
    let (mut enospc, a) = move_closure_into(16, FaultPlan::zero_rate(5).with_enospc_after(k));
    let (mut full, b) = move_closure_into(k as usize, FaultPlan::none());
    let placement = |h: &Heap, closure: &[Handle]| -> Vec<bool> {
        closure.iter().map(|&o| h.is_in_h2(o)).collect()
    };
    let moved = placement(&enospc, &a);
    assert_eq!(moved, placement(&full, &b), "the same objects must reach H2");
    assert!(moved.contains(&true) && moved.contains(&false), "the closure must split: {moved:?}");
    assert_eq!(enospc.h2().unwrap().objects_promoted(), full.h2().unwrap().objects_promoted());
    assert_eq!(enospc.h2().unwrap().regions().allocated_total(), k as u64);
    assert!(enospc.h2().unwrap().is_degraded(), "an injected ENOSPC degrades H2");
    assert!(!full.h2().unwrap().is_degraded(), "a full H2 does not");
    assert_eq!(graph_checksum(&mut enospc, &a[..1]), graph_checksum(&mut full, &b[..1]));
    for (h, closure) in [(&mut enospc, &a), (&mut full, &b)] {
        for (i, &e) in closure[1..].iter().enumerate() {
            assert_eq!(h.read_prim(e, 0), i as u64, "object {i} survived the split");
        }
        h.gc_major().unwrap();
        h.heap_check().expect("and stays consistent across the next major GC");
    }
}

#[test]
fn pressure_moves_marked_objects_without_hint() {
    // High threshold forces movement when H1 fills past 85%.
    let mut h = th_heap_with(HeapConfig::with_words(512, 2048));
    let big = h.register_class("Big", 0, 200);
    let mut held = Vec::new();
    for i in 0..9 {
        let x = h.alloc(big).unwrap();
        h.h2_tag_root(x, Label::new(i + 1));
        held.push(x);
    }
    // Fill old gen beyond 85% so the policy arms, then allocate more to
    // trigger major GCs that move the tagged objects.
    for _ in 0..4 {
        let _ = h.gc_major();
    }
    for _ in 0..6 {
        let x = h.alloc(big).unwrap();
        h.h2_tag_root(x, Label::new(100));
        held.push(x);
    }
    let _ = h.gc_major();
    assert!(
        h.stats().objects_promoted_h2 > 0,
        "high-threshold pressure moved tagged objects without h2_move"
    );
}

#[test]
fn g1_humongous_allocation_wastes_space() {
    let mut cfg = HeapConfig::with_words(2048, 16384);
    cfg.variant = GcVariant::G1 { region_words: 2048 };
    let mut h = Heap::new(cfg);
    // 1200 words >= region/2 (1024): humongous, rounds to a whole region.
    let hum = h.alloc_prim_array(1200).unwrap();
    let _ = hum;
    assert!(h.stats().g1_humongous_waste_words > 0);
    assert_eq!(h.old_used_words(), 2048, "footprint rounded to one region");
}

#[test]
fn g1_ooms_where_ps_survives() {
    // Many humongous objects: G1's rounding overflows the old gen, PS fits.
    let run = |variant: GcVariant| -> bool {
        let mut cfg = HeapConfig::with_words(2048, 16384);
        cfg.variant = variant;
        let mut h = Heap::new(cfg);
        let mut held = Vec::new();
        for _ in 0..10 {
            match h.alloc_prim_array(1100) {
                Ok(x) => held.push(x),
                Err(_) => return false,
            }
        }
        true
    };
    assert!(run(GcVariant::ParallelScavenge), "PS fits 10 x 1103 words");
    assert!(
        !run(GcVariant::G1 { region_words: 2048 }),
        "G1 rounding to 10 regions overflows 8-region old gen"
    );
}

#[test]
fn memory_mode_slows_gc() {
    let base = HeapConfig::with_words(2048, 8192);
    let run = |cfg: HeapConfig| -> u64 {
        let mut h = Heap::new(cfg);
        let c = h.register_class("N", 1, 4);
        let mut prev = h.alloc(c).unwrap();
        for _ in 0..200 {
            let n = h.alloc(c).unwrap();
            h.write_ref(n, 0, prev);
            h.release(prev);
            prev = n;
        }
        h.gc_major().unwrap();
        h.clock().category_ns(Category::MajorGc)
    };
    let normal = run(base);
    let mut mo = base;
    mo.memory_mode = Some(teraheap_runtime::MemoryMode {
        nvm: DeviceSpec::optane_nvm(),
        miss_percent: 40,
    });
    let slowed = run(mo);
    assert!(slowed > normal, "NVM memory mode must slow major GC: {slowed} !> {normal}");
}

#[test]
fn barrier_overhead_zero_when_teraheap_disabled() {
    // §4: "The additional overhead is zero for applications that do not set
    // EnableTeraHeap."
    let run = |enable: bool| -> u64 {
        let mut h = if enable { th_heap() } else { small_heap() };
        let c = h.register_class("N", 1, 0);
        let a = h.alloc(c).unwrap();
        let b = h.alloc(c).unwrap();
        let t0 = h.clock().category_ns(Category::Mutator);
        for _ in 0..1000 {
            h.write_ref(a, 0, b);
        }
        h.clock().category_ns(Category::Mutator) - t0
    };
    let disabled = run(false);
    let enabled = run(true);
    assert!(enabled > disabled, "range check costs something when enabled");
    // On the barrier-only microloop the check is a visible fraction; the
    // paper's ≤3% DaCapo number is over *total* execution time, which the
    // `micro` binary's `barrier` bench reproduces with realistic mutator work.
    let overhead = (enabled - disabled) as f64 / disabled as f64;
    assert!(overhead <= 0.30, "range-check overhead bounded, got {overhead}");
}
