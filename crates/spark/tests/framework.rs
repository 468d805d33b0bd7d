//! Framework-level tests for mini-spark: cache lifecycle, H2 reclamation on
//! unpersist, and report plumbing.

use mini_spark::{
    run_workload, run_workload_on, BlockId, BlockManager, CacheMode, DatasetScale, ExecMode,
    SparkConfig, SparkContext, Workload,
};
use teraheap_core::H2Config;
use teraheap_runtime::HeapConfig;
use teraheap_storage::{Category, DeviceSpec, SimDevice};

fn th_ctx() -> SparkContext {
    SparkContext::new(SparkConfig {
        heap: HeapConfig::with_words(16 << 10, 64 << 10),
        mode: ExecMode::TeraHeap {
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
        },
        partitions: 2,
        iterations: 2,
    })
}

#[test]
fn unpersist_releases_h2_regions() {
    let mut ctx = th_ctx();
    let rdd = ctx.new_rdd();
    for p in 0..4u32 {
        let part = ctx.heap.alloc_prim_array(512).unwrap();
        for i in 0..512 {
            ctx.heap.write_prim(part, i, i as u64);
        }
        ctx.bm
            .put(&mut ctx.heap, BlockId { rdd, partition: p }, part)
            .unwrap();
    }
    ctx.heap.gc_major().unwrap();
    assert!(ctx.heap.stats().objects_promoted_h2 >= 4, "partitions moved to H2");
    let reclaimed_before = ctx.heap.h2().unwrap().regions().reclaimed_total();
    ctx.bm.unpersist(&mut ctx.heap, rdd);
    ctx.heap.gc_major().unwrap();
    assert!(
        ctx.heap.h2().unwrap().regions().reclaimed_total() > reclaimed_before,
        "unpersisted RDD's regions reclaimed in bulk"
    );
}

#[test]
fn off_heap_cache_grows_on_device_not_heap() {
    let clock = std::sync::Arc::new(teraheap_storage::SimClock::new());
    let mut heap = teraheap_runtime::Heap::with_clock(HeapConfig::with_words(8 << 10, 32 << 10), clock.clone());
    let device = SimDevice::new(DeviceSpec::nvme_ssd(), 16 << 20, clock);
    let stats = device.stats().clone();
    let mut bm = BlockManager::new(CacheMode::SerializedOverflow {
        device,
        onheap_budget_words: 256,
    });
    for p in 0..6u32 {
        let part = heap.alloc_prim_array(512).unwrap();
        bm.put(&mut heap, BlockId { rdd: 1, partition: p }, part).unwrap();
    }
    assert!(bm.serializations() >= 5, "budget admits at most one partition");
    assert!(stats.write_bytes() > 5 * 512 * 8, "bytes landed on the device");
    // Reading back pays I/O every time.
    let io0 = heap.clock().category_ns(Category::Io);
    let h = bm.get(&mut heap, BlockId { rdd: 1, partition: 5 }).unwrap().unwrap();
    assert_eq!(heap.array_len(h), 512);
    assert!(heap.clock().category_ns(Category::Io) > io0);
    heap.release(h);
    // Unpersisting drops the serialized blocks with their bytes; the ids
    // can be put again and read back with the new contents.
    bm.unpersist(&mut heap, 1);
    assert!(bm.is_empty());
    assert!(bm.get(&mut heap, BlockId { rdd: 1, partition: 5 }).unwrap().is_none());
    let (writes, reads) = (stats.write_ops(), stats.read_ops());
    for p in 0..6u32 {
        let part = heap.alloc_prim_array(512).unwrap();
        heap.write_prim(part, 7, 1000 + p as u64);
        bm.put(&mut heap, BlockId { rdd: 1, partition: p }, part).unwrap();
    }
    for p in 0..6u32 {
        let h = bm.get(&mut heap, BlockId { rdd: 1, partition: p }).unwrap().unwrap();
        assert_eq!(heap.read_prim(h, 7), 1000 + p as u64);
        heap.release(h);
    }
    // No partition fits the 256-word budget, so every re-put block is
    // serialized again and every get reads the device.
    assert_eq!((stats.write_ops(), stats.read_ops()), (writes + 6, reads + 6));
}

#[test]
fn reports_expose_breakdown_and_counts() {
    let r = run_workload(
        Workload::Rl,
        SparkConfig {
            heap: HeapConfig::with_words(16 << 10, 96 << 10),
            mode: ExecMode::SparkSd { device: DeviceSpec::nvme_ssd() },
            partitions: 4,
            iterations: 2,
        },
        DatasetScale::tiny(),
    );
    assert!(!r.oom);
    assert_eq!(r.workload, "RL");
    assert!(r.breakdown.total_ns() > 0);
    assert!(r.checksum.is_finite());
    assert!(r.csv_row().contains("RL,Spark-SD"));
}

#[test]
fn workloads_are_deterministic_across_runs() {
    let cfg = SparkConfig {
        heap: HeapConfig::with_words(16 << 10, 96 << 10),
        mode: ExecMode::SparkSd { device: DeviceSpec::nvme_ssd() },
        partitions: 4,
        iterations: 3,
    };
    let a = run_workload(Workload::Cc, cfg, DatasetScale::tiny());
    let b = run_workload(Workload::Cc, cfg, DatasetScale::tiny());
    assert_eq!(a.checksum, b.checksum);
    assert_eq!(a.breakdown, b.breakdown, "simulated time is exactly reproducible");
    assert_eq!(a.minor_gcs, b.minor_gcs);
}

#[test]
fn a_round_that_runs_out_of_memory_leaves_only_the_cached_blocks_rooted() {
    // Heaps on which each workload runs out of memory: while it is still
    // building its RDD (the arms that cache fewer blocks than the workload
    // has — a partition object and up to three arrays are in hand), or with
    // the whole RDD cached and mid-stage — while it holds iteration arrays
    // (the graph workloads), has a partition open (the ML ones), is
    // deserializing an off-heap block (the Spark-SD arms) or is
    // materializing a query's projection (RL). A context is reusable across
    // rounds, so everything the failed round held must be released: the
    // only roots left are the block manager's.
    let sd = ExecMode::SparkSd { device: DeviceSpec::nvme_ssd() };
    for (workload, mode, young, old, cached) in [
        (Workload::Pr, ExecMode::OnHeap, 768, 2048, 2),
        (Workload::Lr, ExecMode::OnHeap, 1024, 1024, 2),
        (Workload::Rl, ExecMode::OnHeap, 1024, 2048, 2),
        (Workload::Svd, ExecMode::OnHeap, 768, 3968, 4),
        (Workload::Pr, ExecMode::OnHeap, 768, 3840, 4),
        (Workload::Svd, sd, 768, 3968, 4),
        (Workload::Lr, ExecMode::OnHeap, 1536, 1536, 4),
        (Workload::Km, ExecMode::OnHeap, 1536, 2048, 4),
        (Workload::Km, sd, 1536, 1536, 4),
        (Workload::Rl, ExecMode::OnHeap, 2048, 4096, 4),
    ] {
        let arm = format!("{} under {} with {cached} cached", workload.name(), mode.name());
        let mut ctx = SparkContext::new(SparkConfig {
            heap: HeapConfig::with_words(young, old),
            mode,
            partitions: 4,
            iterations: 4,
        });
        let round = run_workload_on(workload, &mut ctx, DatasetScale::tiny());
        assert!(round.is_err(), "{arm}: the heap is sized to run out");
        assert_eq!(ctx.bm.len(), cached, "{arm}: blocks cached before the failure");
        // Every workload caches its first RDD under id 1.
        let on_heap = (0..4)
            .map(|partition| BlockId { rdd: 1, partition })
            .filter(|&block| ctx.bm.is_on_heap(block))
            .count();
        assert_eq!(ctx.heap.live_roots(), on_heap, "{arm} leaked root handles");
    }
}
