//! Fault-recovery suite: one seeded chaos smoke per device profile, where
//! transient I/O errors are retried and latency spikes absorbed while the
//! heap keeps every payload. Random fault plans against random mutator
//! programs are the faults arm of `mutator_programs`.
//!
//! The chaos smokes honour `TERAHEAP_FAULTS` (same syntax as production,
//! e.g.
//! `TERAHEAP_FAULTS=seed=7,write_err_ppm=50000,spike_every=256,spike_len=16,spike_mult=8`),
//! falling back to the built-in `FaultPlan::chaos` preset when unset.
//! Each program's H2 outgrows its page cache, and each smoke asserts
//! whether its plan fired: the NVMe one must retry, the byte-addressable
//! ones must not.
//!
//! The full-heap invariant checker runs at **every GC boundary** of every
//! run here (`HeapConfig::heap_check`), so a single structurally-corrupt
//! collection anywhere in a run fails it loudly.

mod common;

use common::attach_workload_h2;
use teraheap_core::Label;
use teraheap_runtime::{Handle, Heap, HeapConfig};
use teraheap_storage::obs::{EventKind, Level};
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

/// The chaos program's H2 data: `GROUPS` groups of `ARRAYS` payload arrays
/// of `PAYLOAD` words, eight groups to a label. At ≈ 290 KiB it is three
/// times the workload H2's 96 KiB page cache, so every pass over it faults
/// and writes back.
const GROUPS: usize = 64;
const ARRAYS: usize = 8;
const PAYLOAD: usize = 64;
const PASSES: u64 = 4;

/// Moves the program's groups to H2, then makes `PASSES` passes over every
/// payload word, checking and rewriting it; returns the H2 mapping's I/O
/// retries.
fn chaos_smoke(spec: DeviceSpec, seed: u64) -> u64 {
    let plan = FaultPlan::from_env().unwrap_or(FaultPlan::chaos(seed));
    let mut heap = checked_heap(plan, spec);
    let payload = |g: usize, a: usize, w: usize| ((g * ARRAYS + a) * PAYLOAD + w) as u64 * 17 + 1;
    let root = heap.alloc_ref_array(GROUPS).unwrap();
    for g in 0..GROUPS {
        let group = heap.alloc_ref_array(ARRAYS).unwrap();
        for a in 0..ARRAYS {
            let array = heap.alloc_prim_array(PAYLOAD).unwrap();
            for w in 0..PAYLOAD {
                heap.write_prim(array, w, payload(g, a, w));
            }
            heap.write_ref(group, a, array);
            heap.release(array);
        }
        let label = Label::new(g as u64 / 8 + 1);
        heap.h2_tag_root(group, label);
        heap.write_ref(root, g, group);
        heap.release(group);
        if g % 8 == 7 {
            heap.h2_move(label);
            heap.gc_major().unwrap();
        }
    }
    heap.gc_minor().unwrap();
    heap.gc_major().unwrap();
    heap.heap_check().expect("chaos heap_check");
    for pass in 0..PASSES {
        for g in 0..GROUPS {
            let group = heap.read_ref(root, g).expect("chaos group survived");
            for a in 0..ARRAYS {
                let array = heap.read_ref(group, a).expect("chaos array survived");
                for w in 0..PAYLOAD {
                    let word = payload(g, a, w) + pass;
                    assert_eq!(heap.read_prim(array, w), word, "chaos corrupted a payload");
                    heap.write_prim(array, w, word + 1);
                }
                heap.release(array);
            }
            heap.release(group);
        }
    }
    let h2 = heap.h2().expect("TeraHeap is attached");
    assert!(h2.objects_promoted() >= (GROUPS * ARRAYS) as u64, "the payloads moved to H2");
    h2.mmap().stats().io_retries()
}

#[test]
fn chaos_smoke_nvme() {
    assert!(chaos_smoke(DeviceSpec::nvme_ssd(), 0x5EED_0001) > 0, "the fault plan never fired");
}

// Byte-addressable profiles map H2 in DAX mode, whose touches have no
// injection site until DAX gains a fault model (ROADMAP item 18(b)). They
// assert that nothing fired on the mapping, so a future DAX site turns them
// red instead of silent. (The promotion flush rolls on every profile, but
// its retries are not the mapping's.)

#[test]
fn chaos_smoke_nvm() {
    assert_eq!(chaos_smoke(DeviceSpec::optane_nvm(), 0x5EED_0002), 0, "a DAX site fired");
}

#[test]
fn chaos_smoke_dax() {
    assert_eq!(chaos_smoke(DeviceSpec::dram(), 0x5EED_0003), 0, "a DAX site fired");
}

// ---------------------------------------------------------------------------
// A promotion flush that runs out of write retries.
// ---------------------------------------------------------------------------

/// A group of four 1 Ki-word arrays (≈ 32 KiB, two promotion buffers) under
/// `label`, hinted to move at the next major GC.
fn hinted_group(heap: &mut Heap, label: u64) -> Handle {
    let group = heap.alloc_ref_array(4).unwrap();
    for a in 0..4 {
        let array = heap.alloc_prim_array(1024).unwrap();
        heap.write_prim(array, 0, label * 10 + a as u64);
        heap.write_ref(group, a, array);
        heap.release(array);
    }
    heap.h2_tag_root(group, Label::new(label));
    heap.h2_move(Label::new(label));
    group
}

/// DESIGN.md §10: a promotion flush whose write fails past its retry budget
/// degrades H2 once, not for ENOSPC; its bytes go back to pending, so the
/// cycle's closing flush carries every promoted byte again; later major GCs
/// promote nothing; and the checker passes at every GC boundary.
#[test]
fn a_promotion_flush_out_of_retries_degrades_h2_once() {
    let plan = FaultPlan { write_err_ppm: 1_000_000, max_retries: 1, ..FaultPlan::zero_rate(11) };
    let cfg = HeapConfig {
        heap_check: true,
        obs_level: Some(Level::Full),
        ..HeapConfig::with_words(4096, 16 << 10)
    };
    let mut heap = Heap::new(cfg);
    // On DAX the mapping has no injection site: only the flush rolls.
    attach_workload_h2(&mut heap, DeviceSpec::optane_nvm(), plan);
    let first = hinted_group(&mut heap, 1);
    heap.gc_major().unwrap();
    let promoted = heap.h2().unwrap().words_promoted();
    assert!(promoted > 4 * 1024, "the first group moved to H2");
    assert!(heap.h2().unwrap().is_degraded());
    let flushes = |heap: &Heap| -> Vec<u64> {
        let events = heap.clock().tracer().events();
        events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::H2PromoFlush { bytes } => Some(bytes),
                _ => None,
            })
            .collect()
    };
    assert!(flushes(&heap).len() >= 2, "a full buffer flushed, then the closing flush");
    assert_eq!(flushes(&heap).last(), Some(&(promoted * 8)), "the failed bytes are pending again");

    let second = hinted_group(&mut heap, 2);
    heap.gc_major().unwrap();
    assert_eq!(heap.h2().unwrap().words_promoted(), promoted, "a degraded H2 takes no promotion");
    let events = heap.clock().tracer().events();
    let degraded: Vec<bool> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::H2Degraded { enospc } => Some(enospc),
            _ => None,
        })
        .collect();
    assert_eq!(degraded, [false], "one degradation, by the write budget");
    heap.heap_check().expect("checker passes after the failed flush");
    for (group, label) in [(first, 1), (second, 2)] {
        for a in 0..4 {
            let array = heap.read_ref(group, a).expect("the group survived");
            assert_eq!(heap.read_prim(array, 0), label * 10 + a as u64);
            heap.release(array);
        }
    }
}
