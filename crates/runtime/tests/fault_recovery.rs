//! Fault-recovery suite: a runtime-level exhaustive crash sweep and one
//! seeded chaos smoke per device profile. Random fault plans against random
//! mutator programs are the faults arm of `mutator_programs`.
//!
//! The chaos smokes honour `TERAHEAP_FAULTS` (same syntax as production,
//! e.g.
//! `TERAHEAP_FAULTS=seed=7,write_err_ppm=50000,spike_every=256,spike_len=16,spike_mult=8`),
//! falling back to the built-in `FaultPlan::chaos` preset when unset.
//!
//! The full-heap invariant checker runs at **every GC boundary** of every
//! run here (`HeapConfig::heap_check`), so a single structurally-corrupt
//! collection anywhere in a run fails it loudly.

mod common;

use common::attach_workload_h2;
use teraheap_core::Label;
use teraheap_runtime::{Handle, Heap, HeapConfig};
use teraheap_storage::{DeviceSpec, FaultPlan};

/// A heap with the checker armed at every GC boundary and TeraHeap enabled
/// over `spec` under the given fault plan.
fn checked_heap(plan: FaultPlan, spec: DeviceSpec) -> Heap {
    let mut cfg = HeapConfig::with_words(4096, 16 << 10);
    cfg.heap_check = true;
    let mut heap = Heap::new(cfg);
    attach_workload_h2(&mut heap, spec, plan);
    heap
}

// ---------------------------------------------------------------------------
// Exhaustive crash sweep at runtime level.
// ---------------------------------------------------------------------------

/// Deterministic promotion-heavy script. Returns the heap plus the
/// H1-only probes: handles that are never part of a moved closure, with
/// their expected payloads (H1 survives the crash, so these must always
/// read back intact — even after recovery).
fn crash_script(plan: FaultPlan) -> (Heap, Vec<(Handle, u64)>) {
    let mut heap = checked_heap(plan, DeviceSpec::nvme_ssd());
    let class = heap.register_class("CrashNode", 1, 2);
    let mut h1_probes: Vec<(Handle, u64)> = Vec::new();
    for wave in 0u64..3 {
        // A chain of four nodes, tagged at the head: the whole closure
        // moves to H2 at the next major GC.
        let head = heap.alloc(class).unwrap();
        heap.write_prim(head, 0, wave * 1_000);
        let mut prev = head;
        for i in 1..4u64 {
            let n = heap.alloc(class).unwrap();
            heap.write_prim(n, 0, wave * 1_000 + i);
            heap.write_ref(prev, 0, n);
            if prev != head {
                heap.release(prev);
            }
            prev = n;
        }
        heap.release(prev);
        heap.h2_tag_root(head, Label::new(wave + 1));
        heap.h2_move(Label::new(wave + 1));
        // Independent H1-side nodes, never linked to a tagged closure.
        for i in 0..6u64 {
            let n = heap.alloc(class).unwrap();
            let v = wave * 100 + i;
            heap.write_prim(n, 1, v);
            h1_probes.push((n, v));
        }
        heap.gc_minor().unwrap();
        heap.gc_major().unwrap();
        // Touch the moved chain: H2 page traffic (faults, evictions, and
        // their durable write-backs).
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
    heap.h2_mut().unwrap().msync(teraheap_storage::Category::Io);
    (heap, h1_probes)
}

/// Crash at **every** durable write-back boundary of the scripted run —
/// exhaustive, not sampled — then recover, re-verify the full heap, and
/// keep collecting. Data loss must be reported, never silent.
#[test]
fn crash_sweep_every_writeback_boundary_recovers() {
    // Boundary count and surviving-object ground truth from the fault-free
    // (zero-rate) pass.
    let (heap, _) = crash_script(FaultPlan::zero_rate(0xC0FFEE));
    let plane = heap.h2().unwrap().fault_plane().expect("plane armed").clone();
    let boundaries = plane.writebacks();
    assert!(
        boundaries >= 3,
        "script must produce several write-back boundaries, got {boundaries}"
    );
    let full_h2_objects = heap.heap_check().expect("fault-free check").h2_objects;
    assert!(full_h2_objects > 0, "script must promote objects to H2");
    drop(heap);

    for b in 1..=boundaries {
        let plan = FaultPlan::zero_rate(0xC0FFEE).with_crash_at_writeback(b);
        let (mut heap, h1_probes) = crash_script(plan);
        assert!(
            heap.h2().unwrap().is_crashed(),
            "boundary {b}: crash point must have fired"
        );
        // The volatile dual-heap is still structurally sound after the
        // crash (the device froze, the process did not).
        heap.heap_check().unwrap_or_else(|e| panic!("boundary {b} pre-recovery: {e}"));

        let rec = heap.recover_from_crash();
        assert!(!heap.h2().unwrap().is_crashed(), "recovery must thaw the store");
        heap.heap_check().unwrap_or_else(|e| panic!("boundary {b} post-recovery: {e}"));

        // Never silent: a nulled reference or root is only legal when the
        // recovery report shows H2 objects were actually lost.
        let lost = full_h2_objects - rec.h2_objects.min(full_h2_objects);
        if rec.h1_refs_nulled + rec.h2_refs_nulled + rec.roots_nulled > 0 {
            assert!(
                lost > 0,
                "boundary {b}: repairs without reported object loss ({rec:?})"
            );
        }

        // H1 survived the crash by construction: every probe reads back.
        for &(h, v) in &h1_probes {
            assert_eq!(heap.read_prim(h, 1), v, "boundary {b}: H1 payload lost");
        }

        // The recovered heap keeps working: fresh allocations, both
        // collectors, and the checker at each boundary.
        let class = heap.register_class("PostCrash", 1, 1);
        let root = heap.alloc_ref_array(8).unwrap();
        for i in 0..8 {
            let n = heap.alloc(class).unwrap();
            heap.write_prim(n, 0, 7_000 + i as u64);
            heap.write_ref(root, i, n);
            heap.release(n);
        }
        heap.gc_minor().unwrap();
        heap.gc_major().unwrap();
        heap.heap_check().unwrap_or_else(|e| panic!("boundary {b} post-restart: {e}"));
        for i in 0..8 {
            let n = heap.read_ref(root, i).expect("post-crash object");
            assert_eq!(heap.read_prim(n, 0), 7_000 + i as u64);
            heap.release(n);
        }
    }
}

// ---------------------------------------------------------------------------
// Seeded chaos smoke per device profile (TERAHEAP_FAULTS-overridable;
// `scripts/verify.sh` runs these as its `faults` stage).
// ---------------------------------------------------------------------------

fn chaos_smoke(spec: DeviceSpec, seed: u64) {
    let plan = FaultPlan::from_env().unwrap_or(FaultPlan::chaos(seed));
    let mut heap = checked_heap(plan, spec);
    let class = heap.register_class("ChaosNode", 1, 1);
    let root = heap.alloc_ref_array(32).unwrap();
    for i in 0..32 {
        let n = heap.alloc(class).unwrap();
        heap.write_prim(n, 0, i as u64 * 17 + 1);
        heap.write_ref(root, i, n);
        heap.release(n);
        if i % 8 == 7 {
            let h = heap.read_ref(root, i - 3).unwrap();
            heap.h2_tag_root(h, Label::new(i as u64 / 8 + 1));
            heap.h2_move(Label::new(i as u64 / 8 + 1));
            heap.release(h);
            heap.gc_major().unwrap();
        }
    }
    heap.gc_minor().unwrap();
    heap.gc_major().unwrap();
    if heap.h2().unwrap().is_crashed() {
        // An env-provided plan may include a crash point: recover, then the
        // structural checks below still must hold.
        heap.recover_from_crash();
        heap.heap_check().expect("post-recovery heap_check");
        return;
    }
    heap.heap_check().expect("chaos heap_check");
    for i in 0..32 {
        let n = heap.read_ref(root, i).expect("chaos object survived");
        assert_eq!(heap.read_prim(n, 0), i as u64 * 17 + 1, "chaos corrupted a payload");
        heap.release(n);
    }
}

#[test]
fn chaos_smoke_nvme() {
    chaos_smoke(DeviceSpec::nvme_ssd(), 0x5EED_0001);
}

#[test]
fn chaos_smoke_nvm() {
    chaos_smoke(DeviceSpec::optane_nvm(), 0x5EED_0002);
}

#[test]
fn chaos_smoke_dax() {
    chaos_smoke(DeviceSpec::dram(), 0x5EED_0003);
}
