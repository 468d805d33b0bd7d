//! Micro-benchmarks for TeraHeap's mechanisms — the *real-time* costs of
//! the reproduction's hot paths, complementing the simulated-time figure
//! harnesses:
//!
//! * `barrier/*` — post-write barrier with and without the TeraHeap
//!   reference range check (the §4 DaCapo ≤3% overhead claim);
//! * `gc/*` — whole minor/major collections over a linked graph (the
//!   allocation-free tracing, forwarding-table and stash-arena paths), a
//!   major over many small half-dead objects (the mark bitmap's scan and
//!   rank) and one dominated by forwarding lookups;
//! * `heap/*` — one charged pass over a 64 Ki-word array, word by word,
//!   through a handle and through a pin, on H1 and on page-cached H2;
//! * `giraph/*` — a whole in-memory WCC run (load plus supersteps);
//! * `h1_cards/*` — H1 dirty-card indexing: sparse scan and barrier mark;
//! * `spark/*` — one PageRank scan of a cached graph partition through the
//!   partition cursor, resident in H1 and in page-cached H2;
//! * `workloads/*` — asking for the dataset the thread generated last;
//! * `mmap/*` — page-cache touch: a resident hit on the front page, word
//!   hits rotating over eight resident pages, and fault + eviction with the
//!   working set far past the budget;
//! * `h2_cards/*` — H2 card-table scanning at several segment sizes;
//! * `regions/*` — region allocation and bulk reclamation;
//! * `serde/*` — kryo-sim serialize/deserialize round trips: a thousand
//!   small objects, and one 64 Ki-word primitive array (a message store);
//!   and the sizing walk alone (the reference resolver's identity index);
//! * `promo/*` — promotion-buffer staging;
//! * `query/*` — one point lookup, one 48-row index range scan and one
//!   full-scan aggregate against a hot (H1) and a cold (H2, 6x the page
//!   cache) copy of a 32768-row table.
//!
//! Runs on the in-repo harness (`teraheap_util::microbench`) as a plain
//! binary: `cargo run --release -p teraheap-bench --bin micro`. Results
//! print as a table and land in `results/microbench.csv`. Set
//! `TERAHEAP_BENCH_QUICK=1` for a smoke run.

use teraheap_core::{Addr, H2CardTable, Label, Promoter, RegionId, RegionManager};
use teraheap_runtime::{Heap, HeapConfig};
use teraheap_storage::{DeviceSpec, SharedDevice};
use teraheap_util::microbench::{black_box, Bench};

/// Builds a heap with a large surviving object graph plus old→young card
/// traffic — the shape that stresses GC tracing and card scanning.
fn traced_heap() -> (Heap, teraheap_runtime::Handle) {
    let mut heap = Heap::new(HeapConfig::with_words(24 << 10, 96 << 10));
    let node = heap.register_class("N", 2, 2);
    let spine = heap.alloc_ref_array(512).unwrap();
    for i in 0..512 {
        let n = heap.alloc(node).unwrap();
        heap.write_prim(n, 0, i as u64);
        heap.write_ref(spine, i, n);
        if i > 0 {
            let prev = heap.read_ref(spine, i - 1).unwrap();
            heap.write_ref(prev, 0, n);
            heap.release(prev);
        }
        heap.release(n);
    }
    (heap, spine)
}

/// The Spark-SD shape: 100k 4-word records, each owning a 4-word primitive
/// array, half of them unreachable — a quarter of the pairs dead in the old
/// generation (so survivors slide), a quarter dead in eden.
fn small_object_heap() -> (Heap, teraheap_runtime::Handle) {
    const PAIRS: usize = 100_000;
    let mut heap = Heap::new(HeapConfig::with_words(640 << 10, 1 << 20));
    let rec = heap.register_class("Rec", 1, 1);
    let spine = heap.alloc_ref_array(PAIRS / 2).unwrap();
    let fill = |heap: &mut Heap, keep_every: usize| {
        for i in 0..PAIRS / 2 {
            let r = heap.alloc(rec).unwrap();
            let payload = heap.alloc_prim_array(1).unwrap();
            heap.write_ref(r, 0, payload);
            heap.release(payload);
            if i % keep_every == 0 {
                heap.write_ref(spine, i, r);
            }
            heap.release(r);
        }
    };
    fill(&mut heap, 1);
    heap.gc_major().unwrap();
    // Every second young record survives, and kills the old one whose slot
    // it takes.
    fill(&mut heap, 2);
    (heap, spine)
}

/// 256k reference slots over 16k small objects, all live and already
/// compacted: marking, planning and copying are cheap, so the major GC is
/// one forwarding lookup per slot.
fn lookup_heap() -> (Heap, Vec<teraheap_runtime::Handle>) {
    const TARGETS: usize = 16 << 10;
    let mut heap = Heap::new(HeapConfig::with_words(512 << 10, 1 << 20));
    let class = heap.register_class("T", 0, 2);
    let targets = heap.alloc_ref_array(TARGETS).unwrap();
    for i in 0..TARGETS {
        let t = heap.alloc(class).unwrap();
        heap.write_ref(targets, i, t);
        heap.release(t);
    }
    let mut roots = vec![targets];
    for a in 0..8 {
        let arr = heap.alloc_ref_array(32 << 10).unwrap();
        for i in 0..32 << 10 {
            let t = heap.read_ref(targets, (a + i * 7919) % TARGETS).unwrap();
            heap.write_ref(arr, i, t);
            heap.release(t);
        }
        roots.push(arr);
    }
    heap.gc_major().unwrap();
    (heap, roots)
}

fn bench_barrier(bench: &mut Bench) {
    let mut group = bench.group("barrier");
    for (name, enable) in [("vanilla", false), ("teraheap", true)] {
        group.bench_function(name, |b| {
            let mut heap = Heap::new(HeapConfig::small());
            if enable {
                let h2cfg = teraheap_core::H2Config::default();
                let dev = SharedDevice::new(DeviceSpec::nvme_ssd(), h2cfg.footprint_bytes(), heap.clock().clone());
                heap.attach_h2(h2cfg, &dev).unwrap();
            }
            let class = heap.register_class("N", 1, 1);
            let x = heap.alloc(class).unwrap();
            let y = heap.alloc(class).unwrap();
            b.iter(|| {
                heap.write_ref(black_box(x), 0, black_box(y));
            });
        });
    }
    group.finish();
}

fn bench_gc(bench: &mut Bench) {
    let mut group = bench.group("gc");
    // Full minor GC over a linked graph: dominated by the allocation-free
    // tracing loop (ref_slot_range) and H1 card scanning.
    group.bench_function("minor_trace", |b| {
        b.iter_with_setup(traced_heap, |(mut heap, _spine)| {
            heap.gc_minor().unwrap();
            black_box(heap.stats().minor_count);
        });
    });
    // Full major GC: marking, the forwarding table, adjust and compact with
    // the stash arena.
    group.bench_function("major_compact", |b| {
        b.iter_with_setup(traced_heap, |(mut heap, _spine)| {
            heap.gc_major().unwrap();
            black_box(heap.stats().major_count);
        });
    });
    group.bench_function("major_small_objects", |b| {
        b.iter_with_setup(small_object_heap, |(mut heap, _spine)| {
            heap.gc_major().unwrap();
            black_box(heap.stats().major_count);
        });
    });
    group.bench_function("forward_lookup", |b| {
        b.iter_with_setup(lookup_heap, |(mut heap, _roots)| {
            heap.gc_major().unwrap();
            black_box(heap.stats().major_count);
        });
    });
    group.finish();
}

fn bench_heap(bench: &mut Bench) {
    const WORDS: usize = 64 << 10;
    let mut group = bench.group("heap");
    for tier in ["h1", "h2"] {
        let mut heap = Heap::new(HeapConfig::with_words(256 << 10, 1 << 20));
        let h2 = teraheap_core::H2Config::builder()
            .region_words(128 << 10)
            .n_regions(4)
            .card_seg_words(512)
            .resident_budget_bytes(WORDS * 8 + (64 << 10))
            .page_size(4096)
            .promo_buffer_bytes(16 << 10)
            .build()
            .expect("valid H2 config");
        let dev =
            SharedDevice::new(DeviceSpec::nvme_ssd(), h2.footprint_bytes(), heap.clock().clone());
        heap.attach_h2(h2, &dev).unwrap();
        let arr = heap.alloc_prim_array(WORDS).unwrap();
        if tier == "h2" {
            heap.h2_tag_root(arr, Label::new(1));
            heap.h2_move(Label::new(1));
            heap.gc_major().unwrap();
            assert!(heap.is_in_h2(arr));
        }
        group.bench_function(&format!("prim_loop_handle_{tier}"), |b| {
            b.iter(|| {
                let mut sum = 0u64;
                for i in 0..WORDS {
                    sum = sum.wrapping_add(heap.read_prim(arr, i));
                }
                black_box(sum)
            });
        });
        group.bench_function(&format!("prim_loop_pinned_{tier}"), |b| {
            let mut pin = heap.pin(arr);
            b.iter(|| {
                let mut sum = 0u64;
                for i in 0..WORDS {
                    sum = sum.wrapping_add(heap.read_prim_at(&mut pin, i));
                }
                black_box(sum)
            });
        });
    }
    group.finish();
}

fn bench_giraph(bench: &mut Bench) {
    use mini_giraph::{run_giraph, GiraphConfig, GiraphMode, GiraphWorkload};
    let mut group = bench.group("giraph");
    group.bench_function("superstep_wcc", |b| {
        let mut config = GiraphConfig::small(GiraphMode::InMemory);
        config.heap = HeapConfig::with_words(64 << 10, 512 << 10);
        b.iter(|| black_box(run_giraph(GiraphWorkload::Wcc, config, 4096, 6, 42).checksum));
    });
    group.finish();
}

fn bench_spark(bench: &mut Bench) {
    use mini_spark::workloads::{build_graph, for_each_vertex};
    use mini_spark::{ExecMode, SparkConfig, SparkContext};
    const VERTICES: usize = 4096;
    let graph = teraheap_workloads::shared_graph(VERTICES, 8, 42);
    let h2 = teraheap_core::H2Config::builder()
        .region_words(256 << 10)
        .n_regions(4)
        .card_seg_words(512)
        .resident_budget_bytes(2 << 20)
        .page_size(4096)
        .promo_buffer_bytes(16 << 10)
        .build()
        .expect("valid H2 config");
    let mut group = bench.group("spark");
    for (tier, mode) in [
        ("h1", ExecMode::OnHeap),
        ("h2", ExecMode::TeraHeap { h2, device: DeviceSpec::nvme_ssd() }),
    ] {
        let mut ctx = SparkContext::new(SparkConfig {
            heap: HeapConfig::with_words(256 << 10, 1 << 20),
            mode,
            partitions: 1,
            iterations: 1,
        });
        let blocks = build_graph(&mut ctx, &graph).unwrap();
        ctx.heap.gc_major().unwrap();
        let ranks = vec![1.0f64; VERTICES];
        let mut contrib = vec![0.0f64; VERTICES];
        group.bench_function(&format!("scan_pr_partition_{tier}"), |b| {
            b.iter(|| {
                for_each_vertex(&mut ctx, &blocks, |heap, v, edges| {
                    let id = heap.read_prim_at(v, 0) as usize;
                    let deg = heap.array_len_at(edges);
                    let real_deg = heap.read_prim_at(v, 1) as usize;
                    let share = 0.85 * ranks[id] / real_deg.max(1) as f64;
                    for &t in heap.view_prims_at(edges, 0, deg.min(real_deg)) {
                        contrib[t as usize] += share;
                    }
                    heap.charge_ops(real_deg as u64 + 1);
                })
                .unwrap();
                black_box(contrib[0])
            });
        });
    }
    group.finish();

    let mut group = bench.group("workloads");
    group.bench_function("shared_graph_hit", |b| {
        b.iter(|| black_box(teraheap_workloads::shared_graph(VERTICES, 8, 42).edge_count()));
    });
    group.finish();
}

fn bench_h1_cards(bench: &mut Bench) {
    let mut group = bench.group("h1_cards");
    // Sparse dirty set over a large old generation: the indexed dirty-word
    // list vs what used to be a full table sweep.
    group.bench_function("sparse_scan", |b| {
        let mut t = teraheap_runtime::space::H1CardTable::new(Addr::new(0), 1 << 22, 64);
        for i in (0..t.card_count()).step_by(97) {
            t.mark_dirty(Addr::new((i * 64) as u64));
        }
        b.iter(|| black_box(t.dirty_cards().len()));
    });
    group.bench_function("barrier_mark", |b| {
        let mut t = teraheap_runtime::space::H1CardTable::new(Addr::new(0), 1 << 22, 64);
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 4097) % (1 << 22);
            t.mark_dirty(Addr::new(black_box(i)));
        });
    });
    group.finish();
}

fn bench_mmap(bench: &mut Bench) {
    use std::sync::Arc;
    use teraheap_storage::{Category, MmapSim, SimClock};
    let mut group = bench.group("mmap");
    // Word-at-a-time run over one resident page: the hit path.
    group.bench_function("touch_same_page", |b| {
        let clock = Arc::new(SimClock::new());
        let mut map = MmapSim::new(DeviceSpec::nvme_ssd(), 1 << 20, 1 << 20, 4096, clock);
        map.touch_read(0, 8, Category::Mutator);
        b.iter(|| map.touch_read(black_box(64), 8, Category::Mutator));
    });
    // Word touches rotating over eight resident pages: every hit also moves
    // its page to the front of the recency list.
    group.bench_function("resident_hit_word", |b| {
        let clock = Arc::new(SimClock::new());
        let mut map = MmapSim::new(DeviceSpec::nvme_ssd(), 1 << 20, 1 << 20, 4096, clock);
        map.touch_read(0, 8 * 4096, Category::Mutator);
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 4096 + 8) % (8 * 4096);
            map.touch_read(black_box(i), 8, Category::Mutator)
        });
    });
    // Working set 64x the budget, strided so no touch rides readahead:
    // every touch faults and evicts, and every third page leaves dirty.
    group.bench_function("fault_evict_mixed", |b| {
        const PAGES: usize = 2048;
        let clock = Arc::new(SimClock::new());
        let mut map =
            MmapSim::new(DeviceSpec::nvme_ssd(), PAGES * 4096, 32 * 4096, 4096, clock);
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 331) % PAGES;
            let offset = black_box(i * 4096);
            if i.is_multiple_of(3) {
                map.touch_write(offset, 8, Category::Mutator);
            } else {
                map.touch_read(offset, 8, Category::Mutator);
            }
        });
    });
    group.finish();
}

fn bench_h2_cards(bench: &mut Bench) {
    let mut group = bench.group("h2_cards");
    for seg_words in [64usize, 1024, 2048] {
        group.bench_with_input("scan", &(seg_words * 8), &seg_words, |b, &seg| {
            let mut t = H2CardTable::new(1 << 22, seg, 1 << 16);
            // Dirty every 50th card.
            for i in (0..t.card_count()).step_by(50) {
                t.mark_dirty(Addr::h2_at((i * seg) as u64));
            }
            b.iter(|| black_box(t.minor_scan_cards()));
        });
    }
    group.finish();
}

fn bench_regions(bench: &mut Bench) {
    let mut group = bench.group("regions");
    group.bench_function("alloc", |b| {
        b.iter_with_setup(
            || RegionManager::new(1 << 14, 256),
            |mut m| {
                for i in 0..200u64 {
                    black_box(m.alloc(Label::new(i % 8), 64).unwrap());
                }
            },
        );
    });
    group.bench_function("bulk_reclaim", |b| {
        b.iter_with_setup(
            || {
                let mut m = RegionManager::new(1 << 12, 128);
                for i in 0..100u64 {
                    m.alloc(Label::new(i), 1 << 12).unwrap();
                }
                m.clear_live_bits();
                m
            },
            |mut m| {
                black_box(m.sweep_dead());
            },
        );
    });
    group.bench_function("liveness_propagation", |b| {
        b.iter_with_setup(
            || {
                let mut m = RegionManager::new(256, 512);
                let mut addrs = Vec::new();
                for i in 0..400u64 {
                    addrs.push(m.alloc(Label::new(i), 16).unwrap());
                }
                // Chain dependencies.
                for w in addrs.windows(2) {
                    let (a, b2) = (m.region_of(w[0]), m.region_of(w[1]));
                    m.add_dependency(a, b2);
                }
                m.clear_live_bits();
                m.mark_live(addrs[0]);
                m
            },
            |mut m| {
                black_box(m.propagate_liveness());
            },
        );
    });
    group.finish();
}

fn bench_serde(bench: &mut Bench) {
    let mut heap = Heap::new(HeapConfig::with_words(256 << 10, 1 << 20));
    let class = heap.register_class("E", 0, 4);
    let arr = heap.alloc_ref_array(1000).unwrap();
    for i in 0..1000 {
        let e = heap.alloc(class).unwrap();
        heap.write_prim(e, 0, i as u64);
        heap.write_ref(arr, i, e);
        heap.release(e);
    }
    let serialized_bytes = kryo_sim::serialize(&mut heap, arr).unwrap().len();

    let mut group = bench.group("serde");
    group.throughput_bytes(serialized_bytes as u64);
    group.bench_function("round_trip_1k_objects", |b| {
        b.iter(|| {
            let bytes = kryo_sim::serialize(&mut heap, arr).unwrap();
            let out = kryo_sim::deserialize(&mut heap, black_box(&bytes)).unwrap();
            heap.release(out);
        });
    });
    // The sizing walk a Spark-SD put starts with: one identity-index insert
    // per object, no stream.
    group.bench_function("walk_identity_index", |b| {
        b.iter(|| black_box(kryo_sim::serialized_size(&mut heap, arr)));
    });
    group.finish();

    // One large primitive array, the shape of a Giraph message store:
    // payload emission and decoding with no graph to walk.
    const WORDS: usize = 64 << 10;
    let store = heap.alloc_prim_array(WORDS).unwrap();
    let vals: Vec<u64> = (0..WORDS as u64).collect();
    heap.write_prims(store, 0, &vals);
    let mut group = bench.group("serde");
    group.throughput_bytes(kryo_sim::serialized_size(&mut heap, store) as u64);
    group.bench_function("prim_array_roundtrip", |b| {
        b.iter(|| {
            let bytes = kryo_sim::serialize(&mut heap, store).unwrap();
            let out = kryo_sim::deserialize(&mut heap, black_box(&bytes)).unwrap();
            heap.release(out);
        });
    });
    group.finish();
}

fn bench_promo(bench: &mut Bench) {
    let mut group = bench.group("promo");
    for buf in [4096usize, 2 << 20] {
        group.bench_with_input("stage", &buf, &buf, |b, &buf| {
            b.iter_with_setup(
                || Promoter::new(buf),
                |mut p| {
                    for i in 0..512u32 {
                        black_box(p.stage(RegionId(i % 8), 512));
                    }
                    black_box(p.flush_all());
                },
            );
        });
    }
    group.finish();
}

fn bench_query(bench: &mut Bench) {
    use teraheap_query::{
        gen_rows, run_query, Agg, Predicate, Query, Table, TableConfig, TablePlacement, COLS,
    };
    const ROWS: usize = 32768;
    // The repo benchmark's query shape: 768 KiB of column chunks per copy
    // against a 128 KiB page cache.
    let h2 = teraheap_core::H2Config::builder()
        .region_words(8 << 10)
        .n_regions(64)
        .card_seg_words(512)
        .resident_budget_bytes(128 << 10)
        .page_size(4096)
        .promo_buffer_bytes(16 << 10)
        .build()
        .expect("valid H2 config");
    let rows = gen_rows(ROWS, 42);
    let mut group = bench.group("query");
    for (tier, placement) in [("hot", TablePlacement::Hot), ("cold", TablePlacement::Cold)] {
        let mut heap = Heap::new(HeapConfig::with_words(32 << 10, 512 << 10));
        let dev =
            SharedDevice::new(DeviceSpec::nvme_ssd(), h2.footprint_bytes(), heap.clock().clone());
        heap.attach_h2(h2, &dev).unwrap();
        let mut table =
            Table::new(TableConfig { table_id: 1, cols: COLS, chunk_rows: 256, key_col: 0, placement });
        for row in &rows {
            table.append_row(&mut heap, row).unwrap();
        }
        heap.gc_major().unwrap();
        // (name, key span, projected column, aggregate, index plan)
        let ops = [
            ("point_lookup", 0, 1, None, true),
            ("range_scan_48", 48 * 8, 1, None, true),
            ("agg_full_scan", 4 * 48 * 8, 2, Some(Agg::Sum), false),
        ];
        for (name, span, project, agg, use_index) in ops {
            let mut next = 0usize;
            group.bench_function(&format!("{name}_{tier}"), |b| {
                b.iter(|| {
                    next = (next + 331) % (ROWS / 2);
                    let lo = rows[next][0];
                    let q = Query { filter: Predicate { col: 0, lo, hi: lo + span }, project, agg };
                    black_box(run_query(&mut heap, &mut table, &q, use_index).checksum)
                });
            });
        }
    }
    group.finish();
}

fn main() {
    let mut bench = Bench::new();
    bench_barrier(&mut bench);
    bench_gc(&mut bench);
    bench_heap(&mut bench);
    bench_giraph(&mut bench);
    bench_spark(&mut bench);
    bench_h1_cards(&mut bench);
    bench_mmap(&mut bench);
    bench_h2_cards(&mut bench);
    bench_regions(&mut bench);
    bench_serde(&mut bench);
    bench_promo(&mut bench);
    bench_query(&mut bench);
    bench.print_summary();
    let path = std::path::Path::new("results/microbench.csv");
    bench.write_csv_file(path).expect("write results/microbench.csv");
    println!("\nwrote {}", path.display());
}
