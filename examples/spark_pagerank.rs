//! Spark PageRank three ways: Spark-SD (serialized off-heap cache),
//! plain on-heap, and TeraHeap — same job, same answer, different
//! execution-time breakdowns (the Figure 6 comparison in miniature).
//!
//! Run with: `cargo run --release --example spark_pagerank`

use mini_spark::{run_workload, DatasetScale, ExecMode, SparkConfig, Workload};
use teraheap_core::H2Config;
use teraheap_runtime::HeapConfig;
use teraheap_storage::DeviceSpec;

fn main() {
    let scale = DatasetScale { vertices: 20_000, avg_degree: 8, ..DatasetScale::tiny() };
    let heap = HeapConfig::with_words(64 << 10, 320 << 10);
    let h2 = H2Config { region_words: 64 << 10, n_regions: 64, ..H2Config::default() };
    let configs = [
        ("Spark-SD ", ExecMode::SparkSd { device: DeviceSpec::nvme_ssd() }),
        ("On-heap  ", ExecMode::OnHeap),
        ("TeraHeap ", ExecMode::TeraHeap { h2, device: DeviceSpec::nvme_ssd() }),
    ];
    let mut checksums = Vec::new();
    println!("PageRank over a {}-vertex power-law graph:\n", scale.vertices);
    for (name, mode) in configs {
        let report = run_workload(
            Workload::Pr,
            SparkConfig { heap, mode, partitions: 16, iterations: 5 },
            scale,
        );
        if report.oom {
            println!("{name}: OOM ({})", report.oom_context.as_deref().unwrap_or("?"));
            continue;
        }
        println!(
            "{name}: {:8.2} ms | other {:6.2} s/d+io {:6.2} minor {:6.2} major {:6.2} (ms) | {} minor / {} major GCs",
            report.total_ms(),
            report.breakdown.other_ns as f64 / 1e6,
            report.breakdown.sd_io_ns as f64 / 1e6,
            report.breakdown.minor_gc_ns as f64 / 1e6,
            report.breakdown.major_gc_ns as f64 / 1e6,
            report.minor_gcs,
            report.major_gcs,
        );
        checksums.push(report.checksum);
    }
    // Same ranks regardless of where the cached partitions live.
    for w in checksums.windows(2) {
        assert!((w[0] - w[1]).abs() < 1e-6 * w[0].abs().max(1.0), "answers must agree");
    }
    println!("\nall configurations computed identical ranks ✓");
}
