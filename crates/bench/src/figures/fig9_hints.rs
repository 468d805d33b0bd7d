//! Figure 9: effect of the `h2_move` transfer hint and the low transfer
//! threshold on Giraph.
//!
//! (a) With (H) vs without (NH) the transfer hint for the five workloads:
//!     the hint delays movement until object groups are immutable, avoiding
//!     device read-modify-writes — the paper measures 29–55% improvement.
//! (b) With (L) vs without (NL) the low threshold on PR and SSSP with a
//!     larger dataset: under pressure, moving only down to the low
//!     threshold (oldest labels first) keeps still-mutable groups in H1 —
//!     the paper measures up to 44% improvement.

use crate::harness::{
    giraph_row, giraph_rows, giraph_th, giraph_vertices, heap_split_words, job, ms, or_oom,
    run_giraph_row, GiraphRow, Job, Rendered,
};
use mini_giraph::GiraphWorkload;
use teraheap_runtime::RunReport;

/// `(panel, config)` per run; each workload is an adjacent without/with pair.
type Key = (&'static str, &'static str);

pub(super) fn arms() -> Vec<(Key, Job<RunReport>)> {
    let mut arms = Vec::new();
    for row in giraph_rows() {
        let with_hint = giraph_th(&row, row.dram_gb[1]);
        let mut without = with_hint;
        without.use_move_hint = false;
        arms.push((("9a", "NH"), job(move || run_giraph_row(&row, without))));
        arms.push((("9a", "H"), job(move || run_giraph_row(&row, with_hint))));
    }
    // §7.2: PR and SSSP with a 91 GB dataset, 170/200 GB DRAM; both runs
    // keep the transfer hint, the high threshold stays at 85%.
    for (w, dram) in [(GiraphWorkload::Pr, 170usize), (GiraphWorkload::Sssp, 200)] {
        let big = GiraphRow { dataset_gb: 91, ..giraph_row(w) };
        let mut no_low = giraph_th(&big, dram);
        // Size H1 so loading the graph crosses the high threshold, as the
        // paper observes for this dataset ("we detect high memory pressure
        // in the fourth major GC" during graph loading, §7.2): the load
        // floor is vertices + edges ≈ 14.2 words/vertex at degree 8.
        let load_floor_words = giraph_vertices(&big) * 142 / 10;
        no_low.heap = heap_split_words(load_floor_words * 135 / 100);
        let mut with_low = no_low;
        with_low.low_threshold = Some(0.5);
        arms.push((("9b", "NL"), job(move || run_giraph_row(&big, no_low))));
        arms.push((("9b", "L"), job(move || run_giraph_row(&big, with_low))));
    }
    arms
}

pub(super) fn render(out: &mut Rendered, runs: Vec<(Key, RunReport)>) {
    for panel in runs.chunk_by(|a, b| a.0 .0 == b.0 .0) {
        let name = panel[0].0 .0;
        let banner = match name {
            "9a" => "=== Figure 9a: transfer hint (H) vs no hint (NH) ===\n",
            _ => "\n=== Figure 9b: low threshold (L) vs none (NL), large dataset ===\n",
        };
        say!(out.text, "{banner}");
        let cell = |r: &RunReport| {
            let gc_ns = r.breakdown.minor_gc_ns + r.breakdown.major_gc_ns;
            let split = format!(" (other {:.1} | gc {:.1})", ms(r.breakdown.other_ns), ms(gc_ns));
            let split = if name == "9a" { split.as_str() } else { "" };
            or_oom(r.oom, || format!("{:9.2} ms{split}", r.total_ms()))
        };
        for pair in panel.chunks(2) {
            let [((_, a), ra), ((_, b), rb)] = pair else { unreachable!("runs come in pairs") };
            say!(out.text, "  {:>5}:  {a} {}   {b} {}", ra.workload, cell(ra), cell(rb));
            for ((_, config), r) in pair {
                let total_ns = r.breakdown.total_ns();
                out.csv.push(format!("{name},{},{config},{},{total_ns}", r.workload, r.oom));
            }
        }
    }
}
