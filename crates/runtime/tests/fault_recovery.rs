//! Fault-recovery suite: one seeded chaos smoke per device profile, where
//! transient I/O errors are retried and latency spikes absorbed while the
//! heap keeps every payload. Random fault plans against random mutator
//! programs are the faults arm of `mutator_programs`.
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
use teraheap_runtime::{Heap, HeapConfig};
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
