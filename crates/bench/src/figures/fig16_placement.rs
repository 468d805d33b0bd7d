//! Figure 16 (beyond the paper): adaptive placement ablation.
//!
//! The paper's TeraHeap places *every* hinted partition in H2 behind static
//! high/low watermarks; vanilla Spark serializes every cache-overflow
//! partition. This figure ablates the PR's online placement plane — the
//! per-partition cost model plus lifetime-profiled pretenuring — against
//! those static policies on the mixed hot/cold workload ([`Workload::Mix`]:
//! a small hot working set re-read every iteration plus a cold stream of
//! large ingest partitions read once, long after ingest).
//!
//! Arms, per device profile (NVMe / Optane NVM / DAX):
//!
//! | arm           | placement                                                 |
//! |---------------|-----------------------------------------------------------|
//! | `adaptive`    | cost-model placement + pretenuring (`ExecMode::Adaptive`) |
//! | `static-high` | TeraHeap, high watermark only (85%, the paper default)    |
//! | `spark-sd`    | always-serialize cache overflow (Spark-SD)                |
//!
//! One static TeraHeap arm suffices: on MIX the block manager's `h2_move`
//! hints, not the watermarks, drive every transfer, so a low watermark or
//! a floored high one renders the same row.
//!
//! Expected shape: the static arm pays device fault latency on every hot
//! re-read (all partitions land in H2) and Spark-SD pays S/D on every
//! overflow access; adaptive keeps the hot set deserialized on H1 and
//! streams only the cold partitions to H2, so it wins end-to-end on every
//! device, decisively on NVMe where fault reads cost ~80 µs. Self-gates:
//! every completing arm computes the same answer, adaptive is no worse than
//! `static-high` anywhere, and ≥1.15x better on at least one device.

use crate::harness::{devices, h2_for, job, or_oom, Job, Rendered};
use mini_spark::{
    run_workload_reported, DatasetScale, ExecMode, RunReport, SparkConfig, SparkContext, Workload,
};
use teraheap_runtime::HeapConfig;
use teraheap_storage::DeviceSpec;

/// The arms; the gates index `adaptive` (0) and `static-high` (1).
const ARMS: [&str; 3] = ["adaptive", "static-high", "spark-sd"];

fn run_arm(arm: &'static str, device: DeviceSpec) -> RunReport {
    let mode = match arm {
        "adaptive" => ExecMode::Adaptive { h2: h2_for(4), device },
        "spark-sd" => ExecMode::SparkSd { device },
        _ => ExecMode::TeraHeap { h2: h2_for(4), device },
    };
    // H1 sized so the cold stream overflows it within two iterations: majors
    // run throughout, and the on-heap cache budget (H1/2) holds the hot set
    // (4 partitions re-read each iteration) plus at most one cold partition.
    // 16 iterations let the profiler's tenure evidence and the model's
    // reuse estimates settle well before the run ends.
    let heap = HeapConfig::with_words(8 << 10, 40 << 10);
    let mut ctx = SparkContext::new(SparkConfig { heap, mode, partitions: 4, iterations: 16 });
    // Mixed dataset: cold ingest partitions of rows*dims/4 = 16 Ki words
    // (128 KiB) dwarf the 4 Ki-word hot partitions.
    let scale = DatasetScale { rows: 4_000, dims: 16, ..DatasetScale::tiny() };
    run_workload_reported(Workload::Mix, &mut ctx, arm.into(), scale)
}

pub(super) fn arms() -> Vec<(&'static str, Job<RunReport>)> {
    let sweep = |(name, device)| ARMS.map(|arm| (name, job(move || run_arm(arm, device))));
    devices().into_iter().flat_map(sweep).collect()
}

pub(super) fn render(out: &mut Rendered, runs: Vec<(&'static str, RunReport)>) {
    let mut best_speedup = 0.0f64;
    for per_arm in runs.chunk_by(|a, b| a.0 == b.0) {
        let device = per_arm[0].0;
        say!(out.text, "--- device {device} ---");
        for (_, r) in per_arm {
            let (ser, deser, pretenured) = (r.serializations, r.deserializations, r.pretenured);
            let (h2, total) = (r.h2_objects, or_oom(r.oom, || format!("{:9.3} ms", r.total_ms())));
            say!(
                out.text,
                "  {:>11}: {total}  [minor {} major {} h2 {h2} ser {ser} deser {deser} \
                 pretenured {pretenured}]",
                r.mode,
                r.minor_gcs,
                r.major_gcs,
            );
            out.csv.push(format!(
                "{device},{},{},{ser},{deser},{pretenured},{h2},{}",
                r.mode,
                r.csv_row(),
                r.checksum
            ));
        }
        let completed = |r: &&RunReport| !r.oom;
        let adaptive = &per_arm[0].1;
        let adaptive_ns = adaptive.breakdown.total_ns().max(1);
        for r in per_arm.iter().map(|(_, r)| r).filter(completed) {
            let same = (r.checksum - adaptive.checksum).abs() < 1e-9;
            gate!(out, same, "checksum mismatch on {device}: {} vs adaptive", r.mode);
        }
        // Gate 1: adaptive no worse than the static watermark arm.
        let high = &per_arm[1].1;
        if !high.oom {
            let high_ns = high.breakdown.total_ns();
            gate!(out, high_ns >= adaptive_ns, "adaptive slower than {} on {device}", high.mode);
            best_speedup = best_speedup.max(high_ns as f64 / adaptive_ns as f64);
        }
        say!(out.text, "");
    }
    // Gate 2: a ≥1.15x end-to-end win over the static arm somewhere.
    say!(out.text, "best adaptive speedup vs static-high: {best_speedup:.2}x");
    gate!(out, best_speedup >= 1.15, "no device shows ≥1.15x adaptive win");
}
