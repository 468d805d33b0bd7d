//! Figure 6 (Spark half): TeraHeap vs Spark-SD on the NVMe server.
//!
//! For each of the ten Spark workloads, sweeps the Spark-SD DRAM sizes and
//! the two TeraHeap DRAM sizes from the figure, printing normalized
//! execution-time breakdowns (normalized to the first completing bar, as in
//! the paper) and marking OOM bars.
//!
//! Expected shape (paper): TeraHeap completes at DRAM sizes where Spark-SD
//! OOMs, and at equal DRAM reduces execution time 18–73%, mostly from major
//! GC and S/D reductions.

use crate::harness::{
    render_bars, spark_job, spark_rows, spark_sd, spark_th, FigureBar, Job, Rendered,
};
use teraheap_runtime::RunReport;
use teraheap_storage::DeviceSpec;

pub(super) fn arms() -> Vec<(FigureBar, Job<RunReport>)> {
    let nvme = DeviceSpec::nvme_ssd();
    let mut arms = Vec::new();
    for row in spark_rows() {
        let (name, gb) = (row.workload.name(), row.dataset_gb);
        let group = format!("--- Spark-{name} (dataset {gb} GB-scaled) ---");
        for &dram in row.sd_dram_gb {
            let bar = FigureBar::new(&group, format!("Spark-SD {dram}GB"));
            arms.push((bar, spark_job(&row, spark_sd(&row, dram, nvme))));
        }
        for &dram in row.th_dram_gb {
            let bar = FigureBar::new(&group, format!("TH {dram}GB"));
            arms.push((bar, spark_job(&row, spark_th(&row, dram, nvme))));
        }
    }
    arms
}

pub(super) fn render(out: &mut Rendered, runs: Vec<(FigureBar, RunReport)>) {
    render_bars(out, &runs, 18, true);
}
