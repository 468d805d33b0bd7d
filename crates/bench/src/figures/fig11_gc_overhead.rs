//! Figure 11: (a) H2 minor-GC time vs card segment size; (b) major-GC phase
//! breakdown, Giraph-OOC vs TeraHeap.
//!
//! Expected shape (paper, §7.4): growing card segments from 512 B to 16 KB
//! cuts H2 minor-GC time ~64% on average (smaller card table to scan), but
//! the per-dirty-card object scanning grows; TeraHeap improves every major
//! GC phase vs Giraph-OOC (up to 75%) by fencing H2 scans, with compaction
//! at 37–44% of major GC time due to promotion I/O.

use crate::harness::{giraph_ooc, giraph_rows, giraph_th, giraph_vertices, job, ms, Job, Rendered};
use mini_giraph::workloads::run_giraph_with_context;
use teraheap_core::{H2Config, Label};
use teraheap_runtime::{GcStats, Heap, HeapConfig};
use teraheap_storage::{DeviceSpec, SharedDevice};

const SEGMENT_BYTES: [usize; 5] = [512, 1024, 4096, 8192, 16384];

/// Measures minor-GC H2 card-scanning time: `holders` H2-resident objects,
/// a fraction updated by the mutator (backward references to young H1
/// objects), with the given card segment size.
fn h2_minor_scan(holders: usize, update_pct: usize, card_seg_words: usize) -> GcStats {
    let mut heap = Heap::new(HeapConfig::with_words(64 << 10, 1 << 20));
    let h2cfg = H2Config::builder()
        .region_words(64 << 10)
        .n_regions(64)
        .card_seg_words(card_seg_words)
        .resident_budget_bytes(8 << 20)
        .build()
        .expect("valid H2 config");
    let clock = heap.clock().clone();
    let dev = SharedDevice::new(DeviceSpec::nvme_ssd(), h2cfg.footprint_bytes(), clock);
    heap.attach_h2(h2cfg, &dev).unwrap();
    let holder_class = heap.register_class("Holder", 1, 2);
    let payload_class = heap.register_class("Payload", 0, 2);
    let arr = heap.alloc_ref_array(holders).expect("alloc holders");
    for i in 0..holders {
        let h = heap.alloc(holder_class).expect("alloc holder");
        heap.write_ref(arr, i, h);
        heap.release(h);
    }
    heap.h2_tag_root(arr, Label::new(1));
    heap.h2_move(Label::new(1));
    heap.gc_major().expect("move to H2");
    assert!(heap.is_in_h2(arr));
    for _round in 0..6 {
        // Mutator updates a fraction of the H2 holders (dirty cards).
        for i in (0..holders).step_by((100 / update_pct.max(1)).max(1)) {
            let h = heap.read_ref(arr, i).expect("holder");
            let p = heap.alloc(payload_class).expect("payload");
            heap.write_ref(h, 0, p);
            heap.release(p);
            heap.release(h);
        }
        heap.gc_minor().expect("minor");
    }
    heap.stats().clone()
}

/// `(panel, workload, config)` per run of final GC statistics (`None` on
/// OOM): 11a reads the H2 minor-scan time, 11b the major-phase breakdown.
type Key = (&'static str, &'static str, String);

pub(super) fn arms() -> Vec<(Key, Job<Option<GcStats>>)> {
    let mut arms = Vec::new();
    // Controlled backward-reference experiment: H2-resident holder objects
    // are updated by the mutator to reference fresh H1 objects, dirtying H2
    // cards; minor GCs must scan them. Update density mimics each Giraph
    // workload (PR updates most, traversal workloads update few).
    let update_pcts = [("PR", 100usize), ("CDLP", 80), ("WCC", 40), ("BFS", 20), ("SSSP", 25)];
    for (name, update_pct) in update_pcts {
        for seg_bytes in SEGMENT_BYTES {
            let scan = job(move || Some(h2_minor_scan(12_000, update_pct, seg_bytes / 8)));
            arms.push((("11a", name, seg_bytes.to_string()), scan));
        }
    }
    for row in giraph_rows() {
        let dram = row.dram_gb[1];
        for (label, cfg) in [("OC", giraph_ooc(&row, dram)), ("TH", giraph_th(&row, dram))] {
            let run = job(move || {
                let run = run_giraph_with_context(row.workload, cfg, giraph_vertices(&row), 8, 42);
                run.ok().map(|(ctx, _)| ctx.heap.stats().clone())
            });
            arms.push((("11b", row.workload.name(), label.to_string()), run));
        }
    }
    arms
}

pub(super) fn render(out: &mut Rendered, runs: Vec<(Key, Option<GcStats>)>) {
    let (a, b) = runs.split_at(runs.iter().take_while(|(key, _)| key.0 == "11a").count());

    say!(out.text, "=== Figure 11a: H2 minor-GC time vs card segment size ===\n");
    say!(out.text, "segment sizes: 512 B, 1 KB, 4 KB, 8 KB, 16 KB (normalized to 512 B)\n");
    for sweep in a.chunks(SEGMENT_BYTES.len()) {
        let ns = |s: &Option<GcStats>| s.as_ref().expect("the scan cannot OOM").h2_minor_scan_ns;
        let norm = (ns(&sweep[0].1) as f64).max(1.0);
        let bar = |(_, s): &(Key, Option<GcStats>)| format!("{:.2}", ns(s) as f64 / norm);
        let bars: Vec<String> = sweep.iter().map(bar).collect();
        say!(out.text, "  {:>5}: [{}]", sweep[0].0 .1, bars.join(", "));
        for ((_, name, seg), stats) in sweep {
            out.csv.push(format!("11a,{name},{seg},{}", ns(stats)));
        }
    }

    say!(out.text, "\n=== Figure 11b: major-GC phase breakdown (ms) ===\n");
    let columns = ["marking", "precompact", "adjust", "compact", "total"];
    let columns = columns.map(|c| format!("{c:>10}"));
    say!(out.text, "  {:>5}  {}", "", columns.join(" "));
    for ((_, workload, label), stats) in b {
        let Some(stats) = stats else {
            say!(out.text, "  {workload:>5} {label}: OOM");
            continue;
        };
        let p = stats.phases;
        let phases = [p.marking_ns, p.precompact_ns, p.adjust_ns, p.compact_ns];
        let cells = phases.into_iter().chain([p.total_ns()]).map(|x| format!("{:10.2}", ms(x)));
        say!(out.text, "  {workload:>5} {label}: {}", cells.collect::<Vec<_>>().join(" "));
        out.csv.push(format!("11b,{workload},{label},{}", phases.map(|x| x.to_string()).join(",")));
    }
}
