//! Figure 6 (Giraph half): TeraHeap vs Giraph-OOC on the NVMe server.
//!
//! For each of the five Graphalytics workloads, runs Giraph-OOC and
//! TeraHeap at the two DRAM sizes from the figure. Expected shape (paper):
//! Giraph-OOC OOMs at the smaller DRAM; at the larger, TeraHeap reduces
//! execution time 21–28%, mainly by cutting GC (up to 54%); S/D impact is
//! minimal because Giraph serializes on-heap anyway.

use crate::harness::{
    bar, giraph_ooc, giraph_rows, giraph_th, giraph_vertices, job, or_oom, reference_ns,
    run_giraph_row, FigureBar, Job, Rendered,
};
use teraheap_runtime::RunReport;

/// Four bars per workload.
pub(super) fn arms() -> Vec<(FigureBar, Job<RunReport>)> {
    let mut arms = Vec::new();
    for row in giraph_rows() {
        let header = format!(
            "--- Giraph-{} (dataset {} GB-scaled, {} vertices) ---",
            row.workload.name(),
            row.dataset_gb,
            giraph_vertices(&row)
        );
        for (label, config) in [
            (format!("Giraph-OOC {}GB", row.dram_gb[0]), giraph_ooc(&row, row.dram_gb[0])),
            (format!("Giraph-OOC {}GB", row.dram_gb[1]), giraph_ooc(&row, row.dram_gb[1])),
            (format!("TH {}GB", row.dram_gb[0]), giraph_th(&row, row.dram_gb[0])),
            (format!("TH {}GB", row.dram_gb[1]), giraph_th(&row, row.dram_gb[1])),
        ] {
            arms.push((FigureBar::new(&header, label), job(move || run_giraph_row(&row, config))));
        }
    }
    arms
}

pub(super) fn render(out: &mut Rendered, runs: Vec<(FigureBar, RunReport)>) {
    for group in runs.chunk_by(|a, b| a.0.group == b.0.group) {
        say!(out.text, "{}", group[0].0.group);
        let reference = reference_ns(group.iter().map(|(_, r)| (r.oom, r.breakdown.total_ns())));
        for (FigureBar { label, csv_key, .. }, r) in group {
            let b = &r.breakdown;
            let gcs = format!(
                "[minor {} major {} offloads {} reloads {}]",
                r.minor_gcs, r.major_gcs, r.offloads, r.reloads
            );
            let cell = or_oom(r.oom, || format!("{}  {gcs}", bar(b, reference)));
            say!(out.text, "  {label:>18}: {cell}");
            out.csv.push(format!(
                "{csv_key},{},{},{},{},{},{},{:.3}",
                r.workload,
                r.mode,
                r.oom,
                b.other_ns,
                b.sd_io_ns,
                b.minor_gc_ns + b.major_gc_ns,
                r.total_ms()
            ));
        }
        say!(out.text, "");
    }
}
