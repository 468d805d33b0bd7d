//! Framework-level tests for mini-giraph: combiners, superstep lifecycle,
//! OOC round trips, and hint-policy plumbing.

use mini_giraph::{Combiner, GiraphConfig, GiraphContext, GiraphMode};
use teraheap_core::H2Config;
use teraheap_runtime::{Heap, HeapConfig, SharedDevice};
use teraheap_storage::DeviceSpec;
use teraheap_workloads::powerlaw_graph;

fn graph() -> teraheap_workloads::Adjacency {
    powerlaw_graph(120, 4, 5).adjacency()
}

/// Giraph-OOC under a limit no run reaches: everything stays on the heap.
fn mem_cfg() -> GiraphConfig {
    GiraphConfig::small(GiraphMode::OutOfCore {
        device: DeviceSpec::nvme_ssd(),
        memory_limit_words: usize::MAX,
    })
}

/// `cfg` loaded with `graph()` on a fresh heap, attached in TeraHeap mode to
/// a one-tenant device of the mode's spec.
fn load(cfg: GiraphConfig) -> GiraphContext {
    let mut heap = Heap::new(cfg.heap);
    if let GiraphMode::TeraHeap { h2, device } = cfg.mode {
        let dev = SharedDevice::new(device, h2.footprint_bytes(), heap.clock().clone());
        heap.attach_h2(h2, &dev).unwrap();
    }
    GiraphContext::load_on(heap, cfg, &graph(), |_| 0).unwrap()
}

#[test]
fn min_combiner_keeps_minimum() {
    let mut ctx = load(mem_cfg());
    for v in [9u64, 3, 7] {
        ctx.deliver_message(8, v, Combiner::MinU64, &[]).unwrap();
    }
    ctx.barrier().unwrap();
    let msgs = ctx.incoming_messages(8 % 4).unwrap();
    let to8: Vec<_> = msgs.iter().filter(|&&(t, _)| t == 8).collect();
    assert_eq!(to8.len(), 1);
    assert_eq!(to8[0].1, 3);
}

#[test]
fn append_keeps_every_message() {
    let mut ctx = load(mem_cfg());
    for v in [9u64, 3, 9] {
        ctx.deliver_message(8, v, Combiner::Append, &[16; 4]).unwrap();
    }
    ctx.barrier().unwrap();
    let msgs = ctx.incoming_messages(8 % 4).unwrap();
    let to8: Vec<_> = msgs.iter().filter(|&&(t, _)| t == 8).collect();
    assert_eq!(to8.len(), 3, "no combiner: all messages kept");
}

#[test]
fn messages_vanish_after_consumption_barrier() {
    let mut ctx = load(mem_cfg());
    ctx.deliver_message(2, 1, Combiner::MinU64, &[]).unwrap();
    ctx.barrier().unwrap();
    assert_eq!(ctx.incoming_messages(2).unwrap().len(), 1);
    ctx.barrier().unwrap();
    assert!(ctx.incoming_messages(2).unwrap().is_empty(), "consumed store freed");
}

#[test]
fn ooc_offloaded_messages_reload_intact() {
    let mut cfg = GiraphConfig::small(GiraphMode::OutOfCore {
        device: DeviceSpec::nvme_ssd(),
        memory_limit_words: 32, // force offloading of everything
    });
    cfg.max_supersteps = 3;
    let mut ctx = load(cfg);
    for t in 0..20u64 {
        ctx.deliver_message(t, t * 100, Combiner::Append, &[64; 4]).unwrap();
    }
    ctx.barrier().unwrap();
    let mut total = 0;
    for p in 0..4 {
        for (t, v) in ctx.incoming_messages(p).unwrap() {
            assert_eq!(v, t * 100, "payload intact through offload/reload");
            total += 1;
        }
    }
    assert_eq!(total, 20);
    assert!(ctx.offloads > 0);
}

#[test]
fn teraheap_moves_message_stores_with_superstep_labels() {
    let mode = GiraphMode::TeraHeap {
        h2: H2Config::builder()
            .region_words(8 << 10)
            .n_regions(16)
            .card_seg_words(1 << 10)
            .resident_budget_bytes(128 << 10)
            .page_size(4096)
            .promo_buffer_bytes(64 << 10)
            .build()
            .expect("valid H2 config"),
        device: DeviceSpec::nvme_ssd(),
    };
    let mut cfg = GiraphConfig::small(mode);
    cfg.heap = HeapConfig::with_words(4 << 10, 12 << 10);
    let mut ctx = load(cfg);
    for ss in 0..3 {
        for t in 0..60u64 {
            ctx.deliver_message(t, ss, Combiner::Append, &[128; 4]).unwrap();
        }
        ctx.barrier().unwrap();
        let _ = ctx.incoming_messages(0).unwrap();
    }
    ctx.heap.gc_major().unwrap();
    assert!(ctx.heap.h2().unwrap().objects_promoted() > 0, "superstep-labelled stores moved to H2");
    // Consumed stores' regions become reclaimable.
    ctx.barrier().unwrap();
    ctx.barrier().unwrap();
    ctx.heap.gc_major().unwrap();
    assert!(ctx.heap.h2().unwrap().regions().reclaimed_total() > 0);
}
