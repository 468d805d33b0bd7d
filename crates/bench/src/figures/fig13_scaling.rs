//! Figure 13: performance scaling with (a) mutator threads and (b) dataset
//! size, for Spark CC and LR and Giraph CDLP.
//!
//! Expected shape (paper, §7.6): TeraHeap keeps scaling to 16 threads
//! (up to 23% better with 2× threads) while the natives stall because GC
//! grows with the allocation rate; TeraHeap's win holds or grows with
//! larger datasets (up to 70%).

use crate::harness::{
    giraph_ooc, giraph_row, giraph_th, job, ms, or_oom, report_pair, run_giraph_row, spark_job,
    spark_row, spark_sd, spark_th, GiraphRow, Job, Rendered, SparkRow,
};
use mini_giraph::{GiraphConfig, GiraphWorkload};
use mini_spark::{SparkConfig, Workload};
use teraheap_storage::DeviceSpec;

const THREADS: [usize; 3] = [4, 8, 16];

/// What both frameworks' reports reduce to here: `(oom, total_ns)`.
type Run = (bool, u64);

/// `(line label, CSV key)` per run. 13a: each (workload, config) line sweeps
/// [`THREADS`]; 13b: each dataset size is an adjacent native/TeraHeap pair.
type Key = (String, String);

fn spark(row: &SparkRow, cfg: SparkConfig) -> Job<Run> {
    let run = spark_job(row, cfg);
    job(move || {
        let r = run();
        (r.oom, r.breakdown.total_ns())
    })
}

fn giraph(row: GiraphRow, cfg: GiraphConfig) -> Job<Run> {
    job(move || {
        let r = run_giraph_row(&row, cfg);
        (r.oom, r.breakdown.total_ns())
    })
}

pub(super) fn arms() -> Vec<(Key, Job<Run>)> {
    let nvme = DeviceSpec::nvme_ssd();
    let cdlp = giraph_row(GiraphWorkload::Cdlp);
    let mut arms = Vec::new();

    for w in [Workload::Cc, Workload::Lr] {
        let row = spark_row(w);
        let dram = row.th_dram_gb[row.th_dram_gb.len() - 1];
        let (sd, th) = (spark_sd(&row, dram, nvme), spark_th(&row, dram, nvme));
        for (label, base) in [("Spark-SD", sd), ("TeraHeap", th)] {
            for threads in THREADS {
                let mut cfg = base;
                cfg.heap.mutator_threads = threads;
                let key = format!("13a,{},{label},{threads}", w.name());
                arms.push(((format!("Spark-{} {label:>9}", w.name()), key), spark(&row, cfg)));
            }
        }
    }
    let dram = cdlp.dram_gb[1];
    let bases = [("Giraph-OOC", giraph_ooc(&cdlp, dram)), ("TeraHeap", giraph_th(&cdlp, dram))];
    for (label, base) in bases {
        for threads in THREADS {
            let mut cfg = base;
            cfg.heap.mutator_threads = threads;
            let key = (format!("Giraph-CDLP {label:>10}"), format!("13a,CDLP,{label},{threads}"));
            arms.push((key, giraph(cdlp, cfg)));
        }
    }

    // Paper pairs: CC 32→73 GB, LR 64→256 GB, CDLP 25→91 GB; DRAM scales
    // with the dataset as in the paper's configurations.
    use Workload::{Cc, Lr};
    for (w, gb) in [(Cc, 32usize), (Cc, 73), (Lr, 64), (Lr, 256)] {
        let row = SparkRow { dataset_gb: gb, ..spark_row(w) };
        let label = format!("Spark-{} {gb}GB", w.name());
        for cfg in [spark_sd(&row, gb + 16, nvme), spark_th(&row, gb + 16, nvme)] {
            arms.push(((label.clone(), format!("13b,{label}")), spark(&row, cfg)));
        }
    }
    for gb in [25usize, 91] {
        let row = GiraphRow { dataset_gb: gb, ..cdlp };
        let label = format!("Giraph-CDLP {gb}GB");
        for cfg in [giraph_ooc(&row, gb + 15), giraph_th(&row, gb + 15)] {
            arms.push(((label.clone(), format!("13b,{label}")), giraph(row, cfg)));
        }
    }
    arms
}

pub(super) fn render(out: &mut Rendered, runs: Vec<(Key, Run)>) {
    let in_13a = |((_, key), _): &&(Key, Run)| key.starts_with("13a");
    let (a, b) = runs.split_at(runs.iter().take_while(in_13a).count());

    say!(out.text, "=== Figure 13a: scaling with mutator threads (4/8/16) ===\n");
    for sweep in a.chunks(THREADS.len()) {
        let cell = |&(_, (oom, ns)): &(Key, Run)| or_oom(oom, || format!("{:8.1}ms", ms(ns)));
        let cells: Vec<String> = sweep.iter().map(cell).collect();
        say!(out.text, "  {}: {}   (4 / 8 / 16 threads)", sweep[0].0 .0, cells.join(" "));
        out.csv.extend(sweep.iter().map(|((_, key), (oom, ns))| format!("{key},{oom},{ns}")));
    }

    say!(out.text, "\n=== Figure 13b: scaling with dataset size ===\n");
    for pair in b.chunks(2) {
        let (label, key) = &pair[0].0;
        report_pair(out, label, key, [pair[0].1, pair[1].1]);
    }
}
