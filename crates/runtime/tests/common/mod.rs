//! Scaffolding shared by the suites that replay the runtime's mixed GC/H2
//! workload or checksum an object graph: `gc_equivalence` and
//! `incremental_marking` here, and `crates/query/tests/gc_equivalence.rs`,
//! which includes this file by path so that "the runtime suite's workload"
//! is true by construction.
#![allow(dead_code)] // no single suite uses every item

use teraheap_core::{H2Config, Label};
use teraheap_runtime::{Handle, Heap, OBJ_ARRAY_CLASS, PRIM_ARRAY_CLASS};
use teraheap_storage::FaultPlan;

/// The columns of `tests/golden/gc_equivalence.txt`: what the
/// `gc_equivalence` suite captures of one run of [`mixed_workload_body`].
pub const COLUMNS: [&str; 20] = [
    "checksum",
    "total_ns",
    "mutator_ns",
    "minor_gc_ns",
    "major_gc_ns",
    "minor_count",
    "major_count",
    "marking_ns",
    "precompact_ns",
    "adjust_ns",
    "compact_ns",
    "h2_minor_scan_ns",
    "backward_refs_seen",
    "forward_refs_fenced",
    "objects_promoted_h2",
    "h2_page_faults",
    "h2_read_bytes",
    "h2_write_bytes",
    "h2_evictions",
    "incr_slices",
];

/// That table's row for the default configuration: Parallel Scavenge, one GC
/// thread, stop-world majors, no fault plane.
pub const DEFAULT_ARM: &str = "Ps-t1-b0";

/// The position of a [`COLUMNS`] name in a captured row.
pub fn column(name: &str) -> usize {
    COLUMNS.iter().position(|&c| c == name).expect("a gc_equivalence column")
}

/// FNV-1a over a stream of u64s — deterministic, dependency-free.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    pub fn push(&mut self, v: u64) {
        let mut h = self.0;
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }
}

/// Checksums the reachable object graph through the public mutator API in
/// deterministic (depth-first, field-order) order: class ids, array
/// lengths, primitive payloads, H2-residency of every visited object, and
/// the shape of the reference graph (via a visit-order numbering). Collector
/// timing and object placement never enter the stream.
pub fn graph_checksum(heap: &mut Heap, roots: &[Handle]) -> u64 {
    use std::collections::HashMap;
    let mut fnv = Fnv::new();
    let mut order: HashMap<u64, u64> = HashMap::new();
    let mut stack: Vec<Handle> = Vec::new();
    for &r in roots.iter().rev() {
        stack.push(heap.dup(r));
    }
    while let Some(h) = stack.pop() {
        let addr = heap.handle_addr(h).raw();
        if let Some(&seen) = order.get(&addr) {
            fnv.push(u64::MAX); // back-reference marker
            fnv.push(seen);
            heap.release(h);
            continue;
        }
        let n = order.len() as u64;
        order.insert(addr, n);
        let class = heap.class_of(h);
        fnv.push(class.0 as u64);
        fnv.push(heap.is_in_h2(h) as u64);
        fnv.push(heap.h2_label_of(h));
        if class == OBJ_ARRAY_CLASS {
            let len = heap.array_len(h);
            fnv.push(len as u64);
            for i in (0..len).rev() {
                match heap.read_ref(h, i) {
                    Some(c) => stack.push(c),
                    None => fnv.push(0),
                }
            }
        } else if class == PRIM_ARRAY_CLASS {
            let len = heap.array_len(h);
            fnv.push(len as u64);
            for i in 0..len {
                fnv.push(heap.read_prim(h, i));
            }
        } else {
            let desc = heap.class_desc(class).clone();
            for i in (0..desc.ref_fields).rev() {
                match heap.read_ref(h, i) {
                    Some(c) => stack.push(c),
                    None => fnv.push(0),
                }
            }
            for i in 0..desc.prim_fields {
                fnv.push(heap.read_prim(h, i));
            }
        }
        heap.release(h);
    }
    fnv.0
}

/// The H2 the mixed workload attaches.
pub fn workload_h2_config(faults: FaultPlan) -> H2Config {
    H2Config::builder()
        .region_words(8 << 10)
        .n_regions(48)
        .card_seg_words(256)
        .resident_budget_bytes(96 << 10)
        .page_size(4096)
        .promo_buffer_bytes(16 << 10)
        .faults(faults)
        .build()
        .expect("valid H2 config")
}

/// The mixed workload: generational churn, H1 card traffic, hint-driven H2
/// promotion, mutator H2 updates (backward references), region death, and
/// enough pressure for several minor and major collections.
pub fn mixed_workload_body(heap: &mut Heap) -> Vec<Handle> {
    let node = heap.register_class("Node", 2, 2);
    let leaf = heap.register_class("Leaf", 0, 3);

    let mut keep: Vec<Handle> = Vec::new();

    // Three tagged partitions that will move to H2, each a list of nodes
    // with leaf payloads and a spine array.
    for part in 0..3u64 {
        let spine = heap.alloc_ref_array(64).unwrap();
        for i in 0..64 {
            let n = heap.alloc(node).unwrap();
            let l = heap.alloc(leaf).unwrap();
            heap.write_prim(l, 0, part * 1000 + i as u64);
            heap.write_prim(l, 1, i as u64 * 3);
            heap.write_ref(n, 1, l);
            heap.write_prim(n, 0, i as u64);
            if i > 0 {
                let prev = heap.read_ref(spine, i - 1).unwrap();
                heap.write_ref(prev, 0, n);
                heap.release(prev);
            }
            heap.write_ref(spine, i, n);
            heap.release(n);
            heap.release(l);
        }
        heap.h2_tag_root(spine, Label::new(part + 1));
        keep.push(spine);
    }

    // Generational churn with surviving islands to exercise minor GCs and
    // old→young card traffic.
    let island = heap.alloc_ref_array(32).unwrap();
    keep.push(island);
    for round in 0..6u64 {
        for i in 0..400u64 {
            let t = heap.alloc(leaf).unwrap();
            heap.write_prim(t, 0, round * 10_000 + i);
            if i % 13 == 0 {
                heap.write_ref(island, (i % 32) as usize, t);
            }
            heap.release(t);
        }
        heap.gc_minor().unwrap();
    }

    // Move partitions 1 and 2 to H2; partition 3 stays (its hint never
    // arrives) so the pressure path is exercised too.
    heap.h2_move(Label::new(1));
    heap.h2_move(Label::new(2));
    heap.gc_major().unwrap();

    // Mutator updates against H2-resident nodes: create backward (H2→H1)
    // references, dirtying H2 cards for the next minor scans.
    for &spine in &keep[..2] {
        for i in (0..64).step_by(7) {
            let n = heap.read_ref(spine, i).unwrap();
            let fresh = heap.alloc(leaf).unwrap();
            heap.write_prim(fresh, 0, 777_000 + i as u64);
            heap.write_ref(n, 1, fresh);
            heap.release(fresh);
            heap.release(n);
        }
        heap.gc_minor().unwrap();
    }

    // Drop partition 2 entirely: its regions die and are swept by the next
    // major GC.
    let dead = keep.remove(1);
    heap.release(dead);
    heap.gc_major().unwrap();

    // Final churn + minor so post-major card state is exercised.
    for i in 0..200u64 {
        let t = heap.alloc(leaf).unwrap();
        heap.write_prim(t, 0, 999_000 + i);
        if i % 9 == 0 {
            heap.write_ref(island, (i % 32) as usize, t);
        }
        heap.release(t);
    }
    heap.gc_minor().unwrap();

    keep
}
