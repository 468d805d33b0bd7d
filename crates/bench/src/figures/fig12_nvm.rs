//! Figure 12: TeraHeap on the NVM server — vs Spark-SD (a), vs Spark-MO
//! (NVM Memory mode) (b), and vs Panthera (c).
//!
//! Expected shape (paper, §7.5): with byte-addressable NVM backing H2,
//! TeraHeap eliminates S/D entirely (direct loads/stores) and wins up to
//! 79% vs Spark-SD; Spark-MO pays NVM latency on *every* heap access
//! including GC (minor GC +36% vs Spark-SD), so TeraHeap wins up to 86%;
//! Panthera still scans its whole (partly NVM-resident) old generation
//! every major GC, so TeraHeap wins 7–69%.

use crate::harness::{
    heap_split, job, render_bars, spark_config, spark_dataset, spark_job, spark_row, spark_rows,
    spark_sd, spark_th, FigureBar, Job, Rendered, SparkRow, WORDS_PER_GB,
};
use mini_spark::{run_workload, ExecMode, Workload};
use teraheap_runtime::{GcVariant, HeapConfig, RunReport};
use teraheap_storage::DeviceSpec;

/// The bars of `workload` in `panel`: one bar group.
fn group<const N: usize>(
    arms: &mut Vec<(FigureBar, Job<RunReport>)>,
    (panel, versus): (&str, &str),
    workload: Workload,
    bars: [(&str, Job<RunReport>); N],
) {
    let group = format!("--- {panel} {}: {versus} ---", workload.name());
    for (label, run) in bars {
        let csv_key = format!("{panel},{label}");
        arms.push((FigureBar { csv_key, ..FigureBar::new(&group, label) }, run));
    }
}

pub(super) fn arms() -> Vec<(FigureBar, Job<RunReport>)> {
    let nvm = DeviceSpec::optane_nvm();
    let top_dram = |row: &SparkRow| row.th_dram_gb[row.th_dram_gb.len() - 1];
    let mut arms = Vec::new();

    let a = ("12a", "Spark-SD vs TeraHeap over NVM (App Direct)");
    for row in spark_rows() {
        let sd = spark_job(&row, spark_sd(&row, top_dram(&row), nvm));
        let th = spark_job(&row, spark_th(&row, top_dram(&row), nvm));
        group(&mut arms, a, row.workload, [("SD", sd), ("TH", th)]);
    }
    let b = ("12b", "Spark-MO (Memory mode) vs TeraHeap");
    for row in spark_rows() {
        // Spark-MO: a heap that caches everything, over NVM in Memory mode.
        let mut mo = spark_config(&row, heap_split(row.dataset_gb * 2), ExecMode::OnHeap);
        mo.heap.memory_mode = true;
        group(&mut arms, b, row.workload, [("MO", spark_job(&row, mo))]);
    }
    // Paper config: 64 GB heap; young 10 GB in DRAM; old = 6 GB DRAM +
    // 48 GB NVM. TeraHeap: 16 GB H1, H2 on NVM.
    let c = ("12c", "Panthera vs TeraHeap (64 GB heap, 16 GB DRAM)");
    use Workload::{Bc, Cc, Km, Lgr, Lr, Pr, Sssp, Svd, Svm};
    for w in [Pr, Cc, Sssp, Svd, Lr, Lgr, Km, Svm, Bc] {
        let row = spark_row(w);
        let mut scale = spark_dataset(&row);
        // The Panthera study uses datasets that fit a 64 GB heap.
        scale.vertices = scale.vertices.min(40 * WORDS_PER_GB / 17);
        scale.rows = scale.rows.min(40 * WORDS_PER_GB / 34);
        let heap = HeapConfig::with_words(10 * WORDS_PER_GB, 54 * WORDS_PER_GB);
        let mut p = spark_config(&row, heap, ExecMode::OnHeap);
        p.heap.variant = GcVariant::Panthera { old_dram_words: 6 * WORDS_PER_GB };
        let th = spark_th(&row, 32, nvm);
        let run = |config| job(move || run_workload(w, config, scale));
        group(&mut arms, c, w, [("P", run(p)), ("TH", run(th))]);
    }
    arms
}

/// 12b's TeraHeap bar is 12a's run, shown again after each Spark-MO bar.
pub(super) fn render(out: &mut Rendered, runs: Vec<(FigureBar, RunReport)>) {
    let th: Vec<RunReport> =
        runs.iter().filter(|(bar, _)| bar.csv_key == "12a,TH").map(|(_, r)| r.clone()).collect();
    let mut th = th.into_iter();
    let mut bars = Vec::new();
    for (bar, report) in runs {
        let again = (bar.csv_key == "12b,MO").then(|| FigureBar::new(&bar.group, "TH"));
        bars.push((bar, report));
        if let Some(bar) = again {
            bars.push((FigureBar { csv_key: "12b,TH".into(), ..bar }, th.next().unwrap()));
        }
    }
    render_bars(out, &bars, 3, false);
}
