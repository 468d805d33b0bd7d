//! Figure 8: TeraHeap vs Parallel Scavenge (OpenJDK 11) vs G1 (OpenJDK 17)
//! for the ten Spark workloads at equal DRAM.
//!
//! Expected shape (paper): G1 beats PS by cutting GC time (concurrent
//! marking + garbage-first mixed collections) but cannot remove the S/D
//! cost of the serialized cache; TeraHeap beats G1 by 21–48%. G1 OOMs on
//! SVM, BC and RL because long-lived humongous objects fragment its
//! regions.

use crate::harness::{
    render_bars, spark_job, spark_rows, spark_sd, spark_th, FigureBar, Job, Rendered,
};
use mini_spark::RunReport;
use teraheap_runtime::GcVariant;
use teraheap_storage::DeviceSpec;

pub(super) fn arms() -> Vec<(FigureBar, Job<RunReport>)> {
    let nvme = DeviceSpec::nvme_ssd();
    let mut arms = Vec::new();
    for row in spark_rows() {
        let dram = row.th_dram_gb[row.th_dram_gb.len() - 1];
        let group = format!("--- {} at {} GB DRAM ---", row.workload.name(), dram);
        // PS: plain Spark-SD. G1: same cache mode, G1 collector with region
        // size heap/128.
        let ps = spark_sd(&row, dram, nvme);
        let mut g1 = ps;
        g1.heap.variant = GcVariant::G1 { region_words: g1.heap.h1_words() / 128 };
        for (label, config) in [("PS", ps), ("G1", g1), ("TH", spark_th(&row, dram, nvme))] {
            arms.push((FigureBar::new(&group, label), spark_job(&row, config)));
        }
    }
    arms
}

pub(super) fn render(out: &mut Rendered, runs: Vec<(FigureBar, RunReport)>) {
    render_bars(out, &runs, 3, false);
}
