//! Host-time probes: what the simulator's hot paths cost to run, one layer
//! at a time.
//!
//! Each probe times public calls of one crate on inputs derived from the
//! seed, on the repo's own `teraheap_util::microbench` harness (warm-up,
//! then [`SAMPLES`] samples of at least ~1 ms each), and reports the median
//! per unit of work. Probes explain a move in `host_s`; they are not
//! bounded themselves.

use crate::spans::Spans;
use crate::workloads::Counters;
use mini_giraph::workloads::run_giraph_with_context;
use mini_giraph::{GiraphConfig, GiraphMode, GiraphWorkload};
use mini_spark::{BlockId, ExecMode, SparkConfig, SparkContext};
use std::sync::Arc;
use teraheap_core::{Addr, H2CardTable, H2Config, Label, RegionManager, H2};
use teraheap_obs::{EventKind, Level};
use teraheap_query::{
    gen_rows, run_query, Predicate, Query, Table, TableConfig, TablePlacement, COLS,
};
use teraheap_runtime::{Handle, Heap, HeapConfig};
use teraheap_storage::{Category, DeviceSpec, MmapSim, SharedDevice, SimClock};
use teraheap_util::microbench::{black_box, Bench, BenchConfig, Bencher};
use teraheap_util::rng::Rng;
use teraheap_workloads::powerlaw_graph;

/// Samples per probe.
pub const SAMPLES: usize = 15;

const PAGE: usize = 4096;

struct Probes<'a> {
    bench: Bench,
    spans: &'a mut Spans,
    out: Counters,
}

impl Probes<'_> {
    /// Runs one probe under its own span and records `median / units`.
    fn probe(&mut self, metric: &'static str, units: f64, f: impl FnMut(&mut Bencher)) {
        let span = self.spans.enter("probe", metric);
        let mut group = self.bench.group("probe");
        group.bench_function(metric, f);
        group.finish();
        self.spans.exit(span);
        let record = self
            .bench
            .records()
            .last()
            .expect("bench_function pushed a record");
        self.spans.count(span, "samples", record.samples as u64);
        self.spans.count(span, "iterations", record.iterations);
        self.out.insert(metric, record.p50_ns / units);
    }
}

fn nvme_map(len: usize, budget: usize) -> MmapSim {
    MmapSim::new(
        DeviceSpec::nvme_ssd(),
        len,
        budget,
        PAGE,
        Arc::new(SimClock::new()),
    )
}

fn storage(p: &mut Probes) {
    // Cold sequential 4 MiB runs under a 1 MiB page cache, so every window
    // faults (and, past the first, evicts) its 1024 pages.
    const WINDOWS: usize = 16;
    const WINDOW: usize = 4 << 20;
    p.probe(
        "storage.probe.fault_ns_per_page",
        (WINDOWS * WINDOW / PAGE) as f64,
        |b| {
            b.iter_with_setup(
                || nvme_map(WINDOWS * WINDOW, 1 << 20),
                |mut map| {
                    for w in 0..WINDOWS {
                        map.touch_run(w * WINDOW, WINDOW, false, Category::Mutator);
                    }
                    black_box(map.resident_pages())
                },
            )
        },
    );

    // Resident hits that miss the last-page TLB: cycle over 64 cached pages.
    const HOT_PAGES: usize = 64;
    p.probe("storage.probe.hit_ns_per_touch", HOT_PAGES as f64, |b| {
        let mut map = nvme_map(1 << 20, 1 << 20);
        map.touch_run(0, HOT_PAGES * PAGE, false, Category::Mutator);
        b.iter(|| {
            for page in 0..HOT_PAGES {
                map.touch_read(black_box(page * PAGE), 8, Category::Mutator);
            }
        })
    });

    // Dirty four times the page-cache budget, then msync the rest.
    const BUDGET_PAGES: usize = 1024;
    p.probe(
        "storage.probe.writeback_ns_per_page",
        (4 * BUDGET_PAGES) as f64,
        |b| {
            b.iter_with_setup(
                || nvme_map(4 * BUDGET_PAGES * PAGE, BUDGET_PAGES * PAGE),
                |mut map| {
                    for page in 0..4 * BUDGET_PAGES {
                        map.touch_write(page * PAGE, 8, Category::Mutator);
                    }
                    map.flush(Category::Mutator);
                    black_box(map.stats().write_ops())
                },
            )
        },
    );

    p.probe("storage.probe.arbiter_submit_ns", 4.0, |b| {
        let quota = 1 << 20;
        let device = SharedDevice::for_server(DeviceSpec::nvme_ssd(), 4 * quota);
        let leases: Vec<_> = (0..4)
            .map(|_| {
                let clock = Arc::new(SimClock::new());
                device
                    .add_tenant(clock.clone(), quota)
                    .expect("quota fits the pool");
                device.attach(&clock, quota).expect("fresh tenant attaches")
            })
            .collect();
        let mut now = 0u64;
        b.iter(|| {
            for lease in &leases {
                now += 500;
                black_box(lease.submit(black_box(now), 1_000));
            }
        })
    });
}

fn core(p: &mut Probes) {
    const H2_WORDS: usize = 1 << 22;
    const SEG_WORDS: usize = 1 << 10;
    let dirty_cards = (H2_WORDS / SEG_WORDS).div_ceil(8);
    p.probe(
        "core.probe.h2_card_scan_ns_per_card",
        dirty_cards as f64,
        |b| {
            let mut cards = H2CardTable::new(H2_WORDS, SEG_WORDS, 1 << 16);
            for i in (0..cards.card_count()).step_by(8) {
                cards.mark_dirty(Addr::h2_at((i * SEG_WORDS) as u64));
            }
            b.iter(|| black_box(cards.minor_scan_cards().len()))
        },
    );

    // 64-word objects over 16 rotating labels: mostly bump allocation, a
    // new region opened every 256 objects per label.
    const ALLOCS: u64 = 50_000;
    p.probe("core.probe.region_alloc_ns", ALLOCS as f64, |b| {
        b.iter_with_setup(
            || RegionManager::new(1 << 14, 256),
            |mut regions| {
                for i in 0..ALLOCS {
                    black_box(regions.alloc(Label::new(i % 16), 64).expect("sized to fit"));
                }
            },
        )
    });

    const REGIONS: usize = 4096;
    p.probe("core.probe.region_reclaim_ns", REGIONS as f64, |b| {
        b.iter_with_setup(
            || {
                let mut regions = RegionManager::new(1 << 10, REGIONS);
                for i in 0..REGIONS as u64 {
                    regions
                        .alloc(Label::new(i), 1 << 10)
                        .expect("one object per region");
                }
                regions.clear_live_bits();
                regions
            },
            |mut regions| black_box(regions.sweep_dead().len()),
        )
    });

    // 8 KiB objects through the promotion buffer into a 16 MiB H2.
    const OBJECTS: usize = 1024;
    let object = vec![0x5eed_u64; 1024];
    let h2_config = H2Config::builder()
        .region_words(64 << 10)
        .n_regions(32)
        .build()
        .expect("valid probe H2 layout");
    p.probe("core.probe.promote_ns_per_kb", (OBJECTS * 8) as f64, |b| {
        b.iter_with_setup(
            || H2::new(h2_config, DeviceSpec::nvme_ssd(), Arc::new(SimClock::new())),
            |mut h2| {
                for i in 0..OBJECTS as u64 {
                    h2.promote(Label::new(i % 4), &object, Category::MajorGc)
                        .expect("sized to fit");
                }
                h2.finish_promotion(Category::MajorGc);
                black_box(h2.words_promoted())
            },
        )
    });
}

/// A heap whose live set is a linked spine of `nodes` small objects with
/// old-to-young pointers — the shape that exercises tracing and card scans.
fn linked_heap(nodes: usize) -> (Heap, Handle) {
    let mut heap = Heap::new(HeapConfig::with_words(64 << 10, 256 << 10));
    let node = heap.register_class("N", 2, 2);
    let spine = heap.alloc_ref_array(nodes).expect("spine fits");
    for i in 0..nodes {
        let n = heap.alloc(node).expect("node fits");
        heap.write_prim(n, 0, i as u64);
        heap.write_ref(spine, i, n);
        if i > 0 {
            let prev = heap.read_ref(spine, i - 1).expect("just written");
            heap.write_ref(prev, 0, n);
            heap.release(prev);
        }
        heap.release(n);
    }
    (heap, spine)
}

fn runtime(p: &mut Probes) {
    p.probe("runtime.probe.alloc_ns_per_obj", 1.0, |b| {
        // Every object dies at once, so the minor GCs that eden refills
        // trigger are part of the allocation cost being measured.
        let mut heap = Heap::new(HeapConfig::with_words(64 << 10, 256 << 10));
        let class = heap.register_class("N", 1, 2);
        b.iter(|| {
            let h = heap.alloc(class).expect("garbage is collected");
            heap.release(h);
        })
    });

    p.probe("runtime.probe.write_ref_ns", 1.0, |b| {
        let mut heap = Heap::new(HeapConfig::small());
        let h2 = H2Config::default();
        let device = SharedDevice::new(
            DeviceSpec::nvme_ssd(),
            h2.footprint_bytes(),
            heap.clock().clone(),
        );
        heap.attach_h2(h2, &device).expect("a sole tenant attaches");
        let class = heap.register_class("N", 1, 1);
        let x = heap.alloc(class).expect("fits");
        let y = heap.alloc(class).expect("fits");
        b.iter(|| heap.write_ref(black_box(x), 0, black_box(y)))
    });

    const WORDS: usize = 4096;
    p.probe("runtime.probe.read_prims_ns_per_word", WORDS as f64, |b| {
        let mut heap = Heap::new(HeapConfig::small());
        let array = heap.alloc_prim_array(WORDS).expect("fits");
        let mut out = vec![0u64; WORDS];
        b.iter(|| {
            heap.read_prims(black_box(array), 0, &mut out);
            black_box(out[WORDS - 1])
        })
    });

    // After a full collection everything live sits compacted in the old
    // generation, which makes the live-word count readable from outside.
    const NODES: usize = 8192;
    let live_words = {
        let (mut heap, _spine) = linked_heap(NODES);
        heap.gc_major().expect("live set fits");
        heap.old_used_words() as f64
    };
    p.probe("runtime.probe.minor_gc_ns_per_live_word", live_words, |b| {
        b.iter_with_setup(
            || linked_heap(NODES),
            |(mut heap, _spine)| {
                heap.gc_minor().expect("live set fits");
                black_box(heap.stats().minor_count)
            },
        )
    });
    p.probe("runtime.probe.major_gc_ns_per_live_word", live_words, |b| {
        b.iter_with_setup(
            || linked_heap(NODES),
            |(mut heap, _spine)| {
                heap.gc_major().expect("live set fits");
                black_box(heap.stats().major_count)
            },
        )
    });
}

fn kryo(p: &mut Probes, rng: &mut Rng) {
    const OBJECTS: usize = 4000;
    let mut heap = Heap::new(HeapConfig::with_words(256 << 10, 1 << 20));
    let class = heap.register_class("E", 0, 4);
    let root = heap.alloc_ref_array(OBJECTS).expect("fits");
    for i in 0..OBJECTS {
        let e = heap.alloc(class).expect("fits");
        heap.write_prim(e, 0, rng.next_u64());
        heap.write_ref(root, i, e);
        heap.release(e);
    }
    let bytes = kryo_sim::serialize(&mut heap, root).expect("fits");
    // The root array is an object too.
    let objects = (OBJECTS + 1) as f64;
    p.out
        .insert("kryo.probe.bytes_per_obj", bytes.len() as f64 / objects);
    p.probe("kryo.probe.serialize_ns_per_obj", objects, |b| {
        b.iter(|| black_box(kryo_sim::serialize(&mut heap, root).expect("fits").len()))
    });
    p.probe("kryo.probe.deserialize_ns_per_obj", objects, |b| {
        b.iter(|| {
            let copy =
                kryo_sim::deserialize(&mut heap, black_box(&bytes)).expect("garbage is collected");
            heap.release(copy);
        })
    });
}

fn spark(p: &mut Probes, rng: &mut Rng) {
    // 96 partitions of 4 Ki words against a 160 Ki-word on-heap budget:
    // the overflow is serialized on put and deserialized on every get.
    const PARTITIONS: usize = 96;
    const WORDS: usize = 4096;
    let payload: Vec<u64> = (0..WORDS).map(|_| rng.next_u64()).collect();
    let config = SparkConfig::small(ExecMode::SparkSd {
        device: DeviceSpec::nvme_ssd(),
    });
    p.probe(
        "spark.probe.block_put_get_ns_per_word",
        (PARTITIONS * WORDS) as f64,
        |b| {
            b.iter_with_setup(
                || SparkContext::new(config),
                |mut ctx| {
                    for partition in 0..PARTITIONS as u32 {
                        let part = ctx.heap.alloc(ctx.partition_class).expect("fits");
                        let data = ctx.heap.alloc_prim_array(WORDS).expect("fits");
                        ctx.heap.write_prims(data, 0, &payload);
                        ctx.heap.write_ref(part, 0, data);
                        ctx.heap.release(data);
                        ctx.bm
                            .put(&mut ctx.heap, BlockId { rdd: 1, partition }, part)
                            .expect("fits");
                    }
                    for partition in 0..PARTITIONS as u32 {
                        let part = ctx
                            .bm
                            .get(&mut ctx.heap, BlockId { rdd: 1, partition })
                            .expect("fits");
                        ctx.heap.release(part.expect("block was put"));
                    }
                    black_box(ctx.bm.deserializations())
                },
            )
        },
    );
}

fn giraph(p: &mut Probes, seed: u64) {
    const VERTICES: usize = 4000;
    let config = GiraphConfig {
        max_supersteps: 4,
        ..GiraphConfig::small(GiraphMode::TeraHeap {
            h2: H2Config::default(),
            device: DeviceSpec::nvme_ssd(),
        })
    };
    let run = move || {
        run_giraph_with_context(GiraphWorkload::Wcc, config, VERTICES, 6, seed)
            .expect("probe graph fits")
    };
    // The program may converge before the superstep cap.
    let supersteps = run().0.superstep().max(1);
    p.probe(
        "giraph.probe.superstep_ns_per_vertex",
        (VERTICES as u64 * supersteps) as f64,
        |b| b.iter(|| black_box(run().1)),
    );
}

fn query(p: &mut Probes, seed: u64) {
    const ROWS: usize = 8192;
    let rows = gen_rows(ROWS, seed);
    let new_table = || {
        Table::new(TableConfig {
            table_id: 1,
            cols: COLS,
            chunk_rows: 256,
            key_col: 0,
            placement: TablePlacement::Hot,
        })
    };
    let new_heap = || Heap::new(HeapConfig::with_words(32 << 10, 512 << 10));
    p.probe("query.probe.append_ns_per_row", ROWS as f64, |b| {
        b.iter_with_setup(
            || (new_heap(), new_table()),
            |(mut heap, mut table)| {
                for row in &rows {
                    table.append_row(&mut heap, row).expect("fits");
                }
                black_box(table.rows())
            },
        )
    });

    let mut heap = new_heap();
    let mut table = new_table();
    for row in &rows {
        table.append_row(&mut heap, row).expect("fits");
    }
    let mut next = 0usize;
    p.probe("query.probe.point_lookup_ns", 1.0, |b| {
        b.iter(|| {
            next = (next + 1) % ROWS;
            let key = rows[next][0];
            let q = Query {
                filter: Predicate {
                    col: 0,
                    lo: key,
                    hi: key,
                },
                project: 1,
                agg: None,
            };
            black_box(run_query(&mut heap, &mut table, &q, true).rows_matched)
        })
    });
    // Keys are the multiples of 8 below 8 * ROWS, so every window of this
    // width in the lower half of the key space matches the same row count.
    let scan = |heap: &mut Heap, table: &mut Table, at: usize| {
        let lo = at as u64 * 8;
        let q = Query {
            filter: Predicate {
                col: 0,
                lo,
                hi: lo + 8 * 256,
            },
            project: 1,
            agg: None,
        };
        run_query(heap, table, &q, true).rows_matched
    };
    let matched = scan(&mut heap, &mut table, 0).max(1);
    p.probe("query.probe.range_scan_ns_per_row", matched as f64, |b| {
        b.iter(|| {
            next = (next + 1) % (ROWS / 2);
            black_box(scan(&mut heap, &mut table, next))
        })
    });
}

fn obs(p: &mut Probes) {
    for (metric, level) in [
        ("obs.probe.emit_off_ns", Level::Off),
        ("obs.probe.emit_full_ns", Level::Full),
    ] {
        p.probe(metric, 1.0, |b| {
            let clock = SimClock::new();
            clock.tracer().set_level(level);
            b.iter(|| clock.emit(black_box(EventKind::PageFault { sequential: true })))
        });
    }
}

fn workloads(p: &mut Probes, seed: u64) {
    const VERTICES: usize = 20_000;
    let edges = powerlaw_graph(VERTICES, 8, seed).edges.len();
    p.probe("workloads.probe.graph_gen_ns_per_edge", edges as f64, |b| {
        b.iter(|| black_box(powerlaw_graph(VERTICES, 8, seed).edges.len()))
    });
}

/// Runs every probe; returns `*.probe.*` metric values (ns or bytes per
/// unit of work).
pub fn run(seed: u64, spans: &mut Spans) -> Counters {
    let config = BenchConfig {
        warmup_ns: 20_000_000,
        samples: SAMPLES,
        target_sample_ns: 1_000_000,
    };
    let mut p = Probes {
        bench: Bench::with_config(config),
        spans,
        out: Counters::new(),
    };
    let mut rng = Rng::seed_from_u64(seed);
    let span = p.spans.enter("probes", "");
    storage(&mut p);
    core(&mut p);
    runtime(&mut p);
    kryo(&mut p, &mut rng);
    spark(&mut p, &mut rng);
    giraph(&mut p, seed);
    query(&mut p, seed);
    obs(&mut p);
    workloads(&mut p, seed);
    p.spans.exit(span);
    p.out
}
