//! A guided tour of the H2 mechanisms: regions, dependency lists, the
//! four-state card table, the transfer policy, and lazy bulk reclamation —
//! each demonstrated directly against the public API.
//!
//! Run with: `cargo run --release --example dual_heap_tour`

use teraheap_core::{CardState, H2Config, Label};
use teraheap_runtime::{Heap, HeapConfig};
use teraheap_storage::{DeviceSpec, SharedDevice};

fn main() {
    let mut heap = Heap::new(HeapConfig::small());
    let h2cfg = H2Config {
        region_words: 8 << 10,
        n_regions: 32,
        card_seg_words: 1 << 10,
        ..H2Config::default()
    };
    let dev =
        SharedDevice::new(DeviceSpec::nvme_ssd(), h2cfg.footprint_bytes(), heap.clock().clone());
    heap.attach_h2(h2cfg, &dev).unwrap();
    let node = heap.register_class("Node", 1, 1);

    // --- 1. Labels group object closures into regions -----------------
    println!("1. Region placement by label");
    let a = heap.alloc(node).unwrap();
    let b = heap.alloc(node).unwrap();
    heap.h2_tag_root(a, Label::new(1));
    heap.h2_tag_root(b, Label::new(2));
    heap.h2_move(Label::new(1));
    heap.h2_move(Label::new(2));
    heap.gc_major().unwrap();
    let (ra, rb) = {
        let h2 = heap.h2().unwrap();
        (h2.regions().region_of(heap.handle_addr(a)), h2.regions().region_of(heap.handle_addr(b)))
    };
    println!("   label 1 -> {ra}, label 2 -> {rb} (different lifetimes, different regions)\n");

    // --- 2. Backward references and the card table --------------------
    println!("2. Backward references dirty the H2 card table");
    let payload = heap.alloc(node).unwrap();
    heap.write_prim(payload, 0, 777);
    heap.write_ref(a, 0, payload); // H2 -> H1 reference via the barrier
    let card = {
        let h2 = heap.h2().unwrap();
        h2.cards().card_of(heap.handle_addr(a))
    };
    println!(
        "   card {card} is now {:?}; minor GC will scan it and keep the payload alive",
        heap.h2().unwrap().cards().state(card)
    );
    heap.release(payload);
    heap.gc_minor().unwrap();
    let p = heap.read_ref(a, 0).expect("payload survived via backward ref");
    println!(
        "   payload read back through H2: {} (card now {:?})\n",
        heap.read_prim(p, 0),
        heap.h2().unwrap().cards().state(card)
    );
    assert_ne!(heap.h2().unwrap().cards().state(card), CardState::Dirty);
    heap.release(p);

    // --- 3. Cross-region dependencies ----------------------------------
    println!("3. Cross-region references and directional dependency lists");
    heap.write_ref(a, 0, b); // region(a) -> region(b)
    heap.gc_major().unwrap();
    println!(
        "   after GC, {} depends on {} (mean dep-list length {:.2})",
        ra,
        rb,
        heap.h2().unwrap().regions().mean_dep_list_len()
    );
    // b is now only reachable through a.
    heap.release(b);
    heap.gc_major().unwrap();
    assert_eq!(heap.h2().unwrap().regions().reclaimed_total(), 0);
    println!("   b's region survives: a's dependency list keeps it alive\n");

    // --- 4. Lazy bulk reclamation --------------------------------------
    println!("4. Lazy bulk reclamation");
    heap.write_ref_null(a, 0);
    heap.release(a);
    heap.gc_major().unwrap();
    println!(
        "   released both groups: {} regions reclaimed in bulk, no compaction I/O",
        heap.h2().unwrap().regions().reclaimed_total()
    );
    println!("\nsimulated cost of the whole tour: {}", heap.clock().breakdown());
}
