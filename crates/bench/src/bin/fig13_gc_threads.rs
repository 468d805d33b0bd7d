//! Figure 13-style GC thread scaling: modeled GC pause time vs `gc_threads`
//! (1–16) vs H2 device (NVMe / NVM / DAX), over the work-unit scheduler
//! (DESIGN.md §11).
//!
//! Expected shape: pause time falls monotonically as work units spread
//! across more lanes, then flattens against the serial floor — per-phase
//! barrier syncs plus the device traffic (H2 card reads, promotion writes)
//! that no amount of GC CPU parallelism removes. The floor is deepest on
//! NVMe and shallowest on DAX, so DAX scales furthest: the paper's point
//! that faster H2 devices shift the bottleneck back to GC CPU.
//!
//! The sweep itself runs on host worker threads (`run_parallel`); simulated
//! numbers are host-independent, so this is a pure wall-clock win.

use mini_spark::{run_workload, DatasetScale, ExecMode, RunReport, SparkConfig, Workload};
use teraheap_bench::harness::{run_parallel, write_csv};
use teraheap_core::H2Config;
use teraheap_runtime::HeapConfig;
use teraheap_storage::DeviceSpec;

type DeviceCtor = fn() -> DeviceSpec;

const THREADS: [usize; 5] = [1, 2, 4, 8, 16];
const DEVICES: [(&str, DeviceCtor); 3] =
    [("nvme", DeviceSpec::nvme_ssd), ("nvm", DeviceSpec::optane_nvm), ("dax", DeviceSpec::dram)];

fn h2() -> H2Config {
    H2Config {
        region_words: 32 << 10,
        n_regions: 64,
        card_seg_words: 1 << 10,
        resident_budget_bytes: 512 << 10,
        page_size: 4096,
        promo_buffer_bytes: 256 << 10,
        faults: teraheap_storage::FaultPlan::none(),
    }
}

/// The memory-pressured PR job from the Figure 6 headline: several minor
/// GCs and an H2-promoting major per run, so both pause paths scale.
fn run_at(gc_threads: usize, device: DeviceSpec) -> RunReport {
    let scale = DatasetScale { vertices: 4_000, avg_degree: 6, ..DatasetScale::tiny() };
    let cfg = SparkConfig {
        heap: HeapConfig::builder(12 << 10, 64 << 10).gc_threads(gc_threads).build().unwrap(),
        mode: ExecMode::TeraHeap { h2: h2(), device },
        partitions: 8,
        iterations: 5,
    };
    run_workload(Workload::Pr, cfg, scale)
}

fn mean_pause(total_ns: u64, count: u64) -> u64 {
    total_ns.checked_div(count).unwrap_or(0)
}

fn main() {
    println!("=== GC pause time vs gc_threads vs device (work-unit scheduler) ===\n");
    let jobs: Vec<_> = DEVICES
        .iter()
        .flat_map(|&(name, dev)| THREADS.iter().map(move |&t| (name, dev, t)))
        .map(|(name, dev, t)| move || (name, t, run_at(t, dev())))
        .collect();
    let runs = run_parallel(jobs);

    let mut csv: Vec<String> = Vec::new();
    let mut nvme_major_pause: Vec<(usize, u64)> = Vec::new();
    for (device, t, r) in runs {
        assert!(!r.oom, "{device} t={t}: the sweep workload must not OOM");
        let minor_pause = mean_pause(r.breakdown.minor_gc_ns, r.minor_gcs);
        let major_pause = mean_pause(r.breakdown.major_gc_ns, r.major_gcs);
        println!(
            "  {device:>4} gc_threads={t:<2} minor {:7.1}us x{:<3} major {:8.1}us x{:<2} gc total {:9.1}us",
            minor_pause as f64 / 1e3,
            r.minor_gcs,
            major_pause as f64 / 1e3,
            r.major_gcs,
            (r.breakdown.minor_gc_ns + r.breakdown.major_gc_ns) as f64 / 1e3,
        );
        csv.push(format!(
            "{device},{t},{},{minor_pause},{},{major_pause},{},{},{}",
            r.minor_gcs,
            r.major_gcs,
            r.breakdown.minor_gc_ns,
            r.breakdown.major_gc_ns,
            r.breakdown.total_ns(),
        ));
        if device == "nvme" && t <= 8 {
            nvme_major_pause.push((t, major_pause));
        }
    }

    // The acceptance shape: monotone modeled pause reduction 1 → 8 threads.
    nvme_major_pause.sort_unstable();
    for pair in nvme_major_pause.windows(2) {
        assert!(
            pair[1].1 <= pair[0].1,
            "NVMe major pause must not grow with gc_threads: t={} {}ns -> t={} {}ns",
            pair[0].0,
            pair[0].1,
            pair[1].0,
            pair[1].1
        );
    }

    let path = write_csv(
        "fig13_gc_threads",
        "device,gc_threads,minor_gcs,mean_minor_pause_ns,major_gcs,mean_major_pause_ns,minor_gc_ns,major_gc_ns,total_ns",
        &csv,
    );
    println!("\nwrote {}", path.display());
}
