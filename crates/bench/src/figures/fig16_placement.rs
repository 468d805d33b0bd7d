//! Extension (beyond the paper): adaptive placement against the static
//! policies on the paper's workloads.
//!
//! The paper's TeraHeap places *every* hinted partition in H2 behind static
//! high/low watermarks; Spark-SD serializes every partition past its
//! on-heap budget. The adaptive plane of DESIGN.md §13 re-decides per put
//! between the on-heap cache, the serialized tier and H2 from a
//! per-partition cost model. This figure runs the three on LR, SVM, PR and
//! CC (Table 3) over NVMe, each at its row's larger TeraHeap DRAM size:
//!
//! | arm        | placement                                      |
//! |------------|------------------------------------------------|
//! | `spark-sd` | on-heap up to half the heap, then serialize    |
//! | `teraheap` | every partition tagged and moved to H2         |
//! | `adaptive` | the cost model's choice (`ExecMode::Adaptive`) |
//!
//! Self-gates: every arm of a workload completes with the same checksum,
//! and adaptive beats both static arms end-to-end on at least one workload.

use crate::harness::{
    h2_for, or_oom, spark_config, spark_heap, spark_job, spark_row, spark_sd, spark_th, Job,
    Rendered,
};
use mini_spark::{ExecMode, RunReport, Workload};
use teraheap_storage::DeviceSpec;

pub(super) fn arms() -> Vec<((&'static str, &'static str), Job<RunReport>)> {
    let device = DeviceSpec::nvme_ssd();
    let mut arms = Vec::new();
    for workload in [Workload::Lr, Workload::Svm, Workload::Pr, Workload::Cc] {
        let row = spark_row(workload);
        let dram = row.th_dram_gb[row.th_dram_gb.len() - 1];
        let mode = ExecMode::Adaptive { h2: h2_for(row.dataset_gb), device };
        // The gates read `adaptive` last.
        for (arm, config) in [
            ("spark-sd", spark_sd(&row, dram, device)),
            ("teraheap", spark_th(&row, dram, device)),
            ("adaptive", spark_config(&row, spark_heap(dram), mode)),
        ] {
            arms.push(((workload.name(), arm), spark_job(&row, config)));
        }
    }
    arms
}

pub(super) fn render(out: &mut Rendered, runs: Vec<((&'static str, &'static str), RunReport)>) {
    let mut wins = Vec::new();
    for per_workload in runs.chunk_by(|a, b| a.0 .0 == b.0 .0) {
        let workload = per_workload[0].0 .0;
        say!(out.text, "--- {workload} (NVMe) ---");
        for ((_, arm), r) in per_workload {
            let (ser, deser, h2) = (r.serializations, r.deserializations, r.h2_objects);
            let total = or_oom(r.oom, || format!("{:9.3} ms", r.total_ms()));
            say!(
                out.text,
                "  {arm:>8}: {total}  [minor {} major {} h2 {h2} ser {ser} deser {deser}]",
                r.minor_gcs,
                r.major_gcs,
            );
            out.csv.push(format!("nvme,{arm},{},{ser},{deser},{h2},{}", r.csv_row(), r.checksum));
        }
        let ((_, adaptive), statics) = per_workload.split_last().expect("three arms");
        for (_, r) in per_workload {
            let same = !r.oom && (r.checksum - adaptive.checksum).abs() < 1e-9;
            gate!(out, same, "{workload}: {} does not match adaptive's checksum", r.mode);
        }
        let adaptive_ns = adaptive.breakdown.total_ns();
        if statics.iter().all(|(_, r)| r.breakdown.total_ns() > adaptive_ns) {
            wins.push(workload);
        }
        say!(out.text, "");
    }
    say!(out.text, "adaptive beats both static arms on: {wins:?}");
    gate!(out, !wins.is_empty(), "adaptive beats both static arms on no workload");
}
