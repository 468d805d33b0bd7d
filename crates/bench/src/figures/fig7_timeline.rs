//! Figure 7: GC timeline for Spark PageRank — per-cycle minor/major GC time
//! and old-generation occupancy over execution, Spark-SD vs TeraHeap at the
//! same heap size.
//!
//! The timeline comes entirely from the flight recorder: each configuration
//! runs **once** with tracing at full level and a ring large enough to hold
//! the whole run, and `teraheap_obs::timeline::gc_cycles` reconstructs the
//! per-cycle series from the `GcBegin`/`GcEnd` events. Besides the CSV, the
//! raw GC events are exported as `results/fig7_timeline.jsonl`.
//!
//! Expected shape (paper, §7.1): Spark-SD suffers frequent low-yield major
//! GCs (171 cycles, ~3.7 s each, reclaiming ~10% of the old generation);
//! TeraHeap performs an order of magnitude fewer major GCs (13), each
//! longer (mostly compaction I/O), and minor GC time drops ~38%.

use crate::harness::{job, ms, spark_dataset, spark_row, spark_sd, spark_th, Job, Rendered};
use mini_spark::{run_workload_traced, Workload};
use teraheap_runtime::RunReport;
use teraheap_runtime::obs::timeline::{gc_cycles, gc_only, json_string, to_json};
use teraheap_runtime::obs::{Event, Level};
use teraheap_storage::DeviceSpec;

type Traced = (RunReport, Vec<Event>);

/// One traced run per configuration: the report and the event series come
/// from the same simulation.
pub(super) fn arms() -> Vec<(&'static str, Job<Traced>)> {
    let row = spark_row(Workload::Pr);
    let scale = spark_dataset(&row);
    [
        ("Spark-SD", spark_sd(&row, 80, DeviceSpec::nvme_ssd())),
        ("TeraHeap", spark_th(&row, 80, DeviceSpec::nvme_ssd())),
    ]
    .into_iter()
    .map(|(label, mut cfg)| {
        cfg.heap.obs_level = Some(Level::Full);
        cfg.heap.obs_events = 1 << 20; // hold the whole run, no wrap
        (label, job(move || run_workload_traced(Workload::Pr, cfg, scale)))
    })
    .collect()
}

pub(super) fn render(out: &mut Rendered, runs: Vec<(&'static str, Traced)>) {
    for (label, (report, _)) in &runs {
        if report.oom {
            say!(out.text, "{label}: OOM");
            continue;
        }
        say!(
            out.text,
            "{label}: total {:.1} ms | {} minor GCs ({:.2} ms mean) | {} major GCs ({:.2} ms mean)",
            report.total_ms(),
            report.minor_gcs,
            ms(report.breakdown.minor_gc_ns) / report.minor_gcs.max(1) as f64,
            report.major_gcs,
            ms(report.breakdown.major_gc_ns) / report.major_gcs.max(1) as f64,
        );
        let (minor_ns, major_ns) = (report.breakdown.minor_gc_ns, report.breakdown.major_gc_ns);
        let (minors, majors) = (report.minor_gcs, report.major_gcs);
        out.csv.push(format!("{label},summary,{minors},{majors},{minor_ns},{major_ns}"));
    }
    let mut jsonl = String::new();
    for (label, (_, events)) in &runs {
        let cycles = gc_cycles(events);
        say!(out.text, "\n{label}: first 10 GC events (t_ms, kind, dur_ms, old occupancy %):");
        for c in cycles.iter().take(10) {
            say!(
                out.text,
                "  t={:8.2}  {:5}  dur={:7.3}  occ {:4.1}% -> {:4.1}%",
                ms(c.start_ns),
                c.gc.name(),
                ms(c.duration_ns),
                100.0 * c.old_used_before as f64 / c.old_capacity as f64,
                100.0 * c.old_used_after as f64 / c.old_capacity as f64,
            );
        }
        for c in &cycles {
            out.csv.push(format!(
                "{label},event,{},{},{},{}",
                c.start_ns,
                c.gc.name(),
                c.duration_ns,
                100 * c.old_used_after / c.old_capacity.max(1)
            ));
        }
        // The raw event export: one JSON object per GC event, tagged with
        // the configuration it came from.
        for e in gc_only(events) {
            jsonl.push_str(&format!("{{\"config\":{},{}\n", json_string(label), &to_json(&e)[1..]));
        }
    }
    out.sidecar = Some(("fig7_timeline.jsonl", jsonl));
}
