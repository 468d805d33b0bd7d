//! Quickstart: the TeraHeap dual-heap in a dozen lines.
//!
//! Builds a managed heap with a second heap (H2) over a simulated NVMe SSD,
//! allocates an object graph, tags it with the hint interface, moves it to
//! H2 at the next major GC and keeps computing on it directly — no
//! serialization, no GC scans over the device.
//!
//! Run with: `cargo run --release --example quickstart`

use teraheap_core::{H2Config, Label};
use teraheap_runtime::{Heap, HeapConfig};
use teraheap_storage::{DeviceSpec, SharedDevice};

fn main() {
    // H1: a small DRAM heap. H2: region-based second heap over NVMe.
    let mut heap = Heap::new(HeapConfig::small());
    let h2cfg = H2Config::default();
    let dev =
        SharedDevice::new(DeviceSpec::nvme_ssd(), h2cfg.footprint_bytes(), heap.clock().clone());
    heap.attach_h2(h2cfg, &dev).unwrap();

    // A "partition": an array of a thousand point objects.
    let point = heap.register_class("Point", 0, 2);
    let partition = heap.alloc_ref_array(1000).expect("allocate partition");
    for i in 0..1000 {
        let p = heap.alloc(point).expect("allocate point");
        heap.write_prim(p, 0, i as u64);
        heap.write_prim(p, 1, (i * i) as u64);
        heap.write_ref(partition, i, p);
        heap.release(p);
    }

    // The hint interface (§3.2): tag the root key-object, advise the move.
    let label = Label::new(1);
    heap.h2_tag_root(partition, label);
    heap.h2_move(label);
    heap.gc_major().expect("major GC");

    assert!(heap.is_in_h2(partition), "partition now lives in H2");
    println!(
        "moved {} objects ({} words) to H2 during one major GC",
        heap.h2().unwrap().objects_promoted(),
        heap.h2().unwrap().words_promoted()
    );

    // Direct access: no deserialization step, the heap is still one heap.
    let mut sum = 0u64;
    for i in 0..1000 {
        let p = heap.read_ref(partition, i).expect("point");
        sum += heap.read_prim(p, 1);
        heap.release(p);
    }
    println!("sum of squares read straight out of H2: {sum}");
    println!("simulated time breakdown: {}", heap.clock().breakdown());
}
