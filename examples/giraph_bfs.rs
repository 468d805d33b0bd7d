//! Giraph breadth-first search under the out-of-core scheduler vs TeraHeap.
//!
//! The same BSP job runs with Giraph's LRU offloading (serialize edges and
//! message stores to the device, reload on access) and with TeraHeap
//! (edges and message stores migrate to H2 via hints and are accessed
//! directly).
//!
//! Run with: `cargo run --release --example giraph_bfs`

use mini_giraph::{run_giraph, GiraphConfig, GiraphMode, GiraphWorkload};
use teraheap_core::H2Config;
use teraheap_runtime::HeapConfig;
use teraheap_storage::DeviceSpec;

fn main() {
    let vertices = 20_000;
    let heap = HeapConfig::with_words(48 << 10, 256 << 10);
    let ooc =
        GiraphMode::OutOfCore { device: DeviceSpec::nvme_ssd(), memory_limit_words: 140 << 10 };
    let th = GiraphMode::TeraHeap {
        h2: H2Config { region_words: 64 << 10, n_regions: 64, ..H2Config::default() },
        device: DeviceSpec::nvme_ssd(),
    };
    let mut answers = Vec::new();
    for (name, mode) in [("Giraph-OOC", ooc), ("TeraHeap  ", th)] {
        let report = run_giraph(
            GiraphWorkload::Bfs,
            GiraphConfig {
                heap,
                mode,
                partitions: 8,
                max_supersteps: 12,
                use_move_hint: true,
                low_threshold: None,
                adaptive_threshold: false,
                track_h2_liveness: false,
            },
            vertices,
            8,
            7,
        );
        if report.oom {
            println!("{name}: OOM ({})", report.oom_context.as_deref().unwrap_or("?"));
            continue;
        }
        println!(
            "{name}: {:8.2} ms | s/d+io {:6.2} ms | gc {:6.2} ms | offloads {} reloads {} | {} objects in H2",
            report.total_ms(),
            report.breakdown.sd_io_ns as f64 / 1e6,
            (report.breakdown.minor_gc_ns + report.breakdown.major_gc_ns) as f64 / 1e6,
            report.offloads,
            report.reloads,
            report.h2_objects,
        );
        answers.push(report.checksum);
    }
    assert_eq!(answers[0], answers[1], "both modes computed the same BFS depths");
    println!("\nboth configurations computed identical BFS depths ✓");
}
