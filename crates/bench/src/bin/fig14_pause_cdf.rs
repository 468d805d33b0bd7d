//! Figure 14 (extension): major-GC pause distribution, stop-world
//! ParallelScavenge vs pause-budgeted incremental collection (DESIGN.md
//! §11), across H2 devices and with H2 disabled.
//!
//! Every configuration runs the memory-pressured PageRank job from the
//! Figure 13 sweep once, traced at full observability, and the pause
//! distribution is reconstructed from the flight recorder:
//!
//!   * stop-world major pauses are `GcBegin`/`GcEnd` pairs whose cause is
//!     not `Incremental` — demand majors stop the mutator end to end;
//!   * incremental pauses are `SliceBegin`/`SliceEnd` pairs — the mutator
//!     is stopped exactly for the slice, and the cycle-spanning
//!     `GcBegin{cause: Incremental}` envelope is *not* a pause.
//!
//! Minor pauses are tabulated separately and excluded from the headline
//! ratio: the incremental mode only slices *major* collections.
//!
//! Expected shape: at the default 50 us budget the major-pause p99 drops by
//! well over an order of magnitude on every device (the slice scheduler
//! yields after each bounded work-unit batch), at a bounded throughput
//! cost — the SATB barrier, redirection, floating garbage, and the
//! fragmented per-slice promotion flush cost up to ~20% of total time on
//! the slow devices, printed and recorded per run.

use mini_spark::{run_workload_traced, DatasetScale, ExecMode, RunReport, SparkConfig, Workload};
use teraheap_bench::harness::{run_parallel, write_csv};
use teraheap_core::H2Config;
use teraheap_runtime::obs::{Event, EventKind, GcCause, GcKind, Level};
use teraheap_runtime::HeapConfig;
use teraheap_storage::DeviceSpec;

type DeviceCtor = fn() -> DeviceSpec;

/// `(label, pause_budget_ns)`: stop-world baseline plus three budgets
/// around the 50 us default.
const BUDGETS: [(&str, u64); 4] =
    [("ps", 0), ("incr10us", 10_000), ("incr50us", 50_000), ("incr200us", 200_000)];
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

/// One traced run of the Figure 13 pressure workload at a pause budget.
fn run_at(budget: u64, mode: ExecMode) -> (RunReport, Vec<Event>) {
    let scale = DatasetScale { vertices: 4_000, avg_degree: 6, ..DatasetScale::tiny() };
    let mut heap = HeapConfig::builder(12 << 10, 64 << 10)
        .pause_budget_ns(budget)
        .build()
        .expect("valid heap config");
    heap.obs_level = Some(Level::Full);
    heap.obs_events = 1 << 20; // hold the whole run, no wrap
    let cfg = SparkConfig { heap, mode, partitions: 8, iterations: 5 };
    run_workload_traced(Workload::Pr, cfg, scale)
}

/// Splits the event stream into observable pause durations:
/// `(minor_pauses, major_pauses)` in simulated ns.
fn pauses(events: &[Event]) -> (Vec<u64>, Vec<u64>) {
    let mut minors = Vec::new();
    let mut majors = Vec::new();
    let mut minor_open = 0u64;
    let mut major_open = 0u64;
    let mut major_stop_world = false;
    let mut slice_open = 0u64;
    for e in events {
        match e.kind {
            EventKind::GcBegin { gc: GcKind::Minor, .. } => minor_open = e.t_ns,
            EventKind::GcEnd { gc: GcKind::Minor, .. } => minors.push(e.t_ns - minor_open),
            EventKind::GcBegin { gc: GcKind::Major, cause, .. } => {
                major_open = e.t_ns;
                major_stop_world = cause != GcCause::Incremental;
            }
            EventKind::GcEnd { gc: GcKind::Major, .. } if major_stop_world => {
                majors.push(e.t_ns - major_open);
            }
            EventKind::SliceBegin { .. } => slice_open = e.t_ns,
            EventKind::SliceEnd { .. } => majors.push(e.t_ns - slice_open),
            _ => {}
        }
    }
    (minors, majors)
}

/// Nearest-rank quantile of a sorted sample (`q` in [0, 1]).
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

struct Dist {
    count: u64,
    mean: u64,
    p50: u64,
    p99: u64,
    p999: u64,
    max: u64,
}

fn dist(mut sample: Vec<u64>) -> Dist {
    sample.sort_unstable();
    let count = sample.len() as u64;
    let sum: u64 = sample.iter().sum();
    Dist {
        count,
        mean: sum.checked_div(count).unwrap_or(0),
        p50: quantile(&sample, 0.50),
        p99: quantile(&sample, 0.99),
        p999: quantile(&sample, 0.999),
        max: sample.last().copied().unwrap_or(0),
    }
}

fn main() {
    println!("=== Major-GC pause distribution: stop-world PS vs incremental (pause budget) ===\n");

    // (device label, h2 on, budget label, budget). H2-off rows are
    // device-independent (no H2 traffic), so they run once per budget.
    let matrix: Vec<(&str, bool, &str, u64)> = DEVICES
        .iter()
        .flat_map(|&(dev, _)| BUDGETS.iter().map(move |&(label, b)| (dev, true, label, b)))
        .chain(BUDGETS.iter().map(|&(label, b)| ("none", false, label, b)))
        .collect();
    let jobs: Vec<_> = matrix
        .iter()
        .map(|&(dev, with_h2, label, budget)| {
            move || {
                let mode = if with_h2 {
                    let ctor = DEVICES.iter().find(|&&(n, _)| n == dev).expect("known device").1;
                    ExecMode::TeraHeap { h2: h2(), device: ctor() }
                } else {
                    ExecMode::OnHeap
                };
                (dev, with_h2, label, budget, run_at(budget, mode))
            }
        })
        .collect();
    let runs = run_parallel(jobs);

    let mut csv: Vec<String> = Vec::new();
    // (device, h2) -> (ps p99, ps total_ns) for the acceptance ratios.
    let mut baseline: Vec<(&str, bool, u64, u64)> = Vec::new();
    let mut at_default: Vec<(&str, bool, u64, u64)> = Vec::new();
    for (dev, with_h2, label, budget, (r, events)) in &runs {
        assert!(!r.oom, "{dev} h2={with_h2} {label}: workload must not OOM");
        let (minors, majors) = pauses(events);
        let mi = dist(minors);
        let ma = dist(majors);
        let total_ns = r.breakdown.total_ns();
        println!(
            "  {dev:>4} h2={} {label:>9} major p50 {:8.1}us p99 {:8.1}us p99.9 {:8.1}us max {:8.1}us x{:<3} | minor mean {:6.1}us x{:<3} | total {:8.2}ms",
            if *with_h2 { "on " } else { "off" },
            ma.p50 as f64 / 1e3,
            ma.p99 as f64 / 1e3,
            ma.p999 as f64 / 1e3,
            ma.max as f64 / 1e3,
            ma.count,
            mi.mean as f64 / 1e3,
            mi.count,
            total_ns as f64 / 1e6,
        );
        csv.push(format!(
            "{dev},{},{label},{budget},{},{},{},{},{},{},{},{},{total_ns}",
            if *with_h2 { "on" } else { "off" },
            ma.count,
            ma.mean,
            ma.p50,
            ma.p99,
            ma.p999,
            ma.max,
            mi.count,
            mi.mean,
        ));
        if *label == "ps" {
            baseline.push((dev, *with_h2, ma.p99, total_ns));
        } else if *label == "incr50us" {
            at_default.push((dev, *with_h2, ma.p99, total_ns));
        }
    }

    // Acceptance: at the default budget the major-pause p99 collapses by at
    // least 10x against stop-world PS on NVMe and DAX (H2 on), and the
    // throughput cost of slicing stays bounded.
    println!();
    for &(dev, with_h2, incr_p99, incr_total) in &at_default {
        let &(_, _, ps_p99, ps_total) = baseline
            .iter()
            .find(|&&(d, h, _, _)| d == dev && h == with_h2)
            .expect("stop-world baseline for every configuration");
        let ratio = ps_p99 as f64 / incr_p99.max(1) as f64;
        let regression = incr_total as f64 / ps_total as f64 - 1.0;
        println!(
            "  {dev:>4} h2={} p99 {:8.1}us -> {:7.1}us ({ratio:5.1}x) | total {:+.2}% vs stop-world",
            if with_h2 { "on " } else { "off" },
            ps_p99 as f64 / 1e3,
            incr_p99 as f64 / 1e3,
            regression * 100.0,
        );
        if with_h2 && (dev == "nvme" || dev == "dax") {
            assert!(
                ratio >= 10.0,
                "{dev}: default-budget p99 must drop >=10x vs stop-world \
                 (ps {ps_p99}ns, incr {incr_p99}ns, {ratio:.1}x)"
            );
        }
        // The throughput bound applies to the H2 configurations the headline
        // is about. Slicing costs real time — the chunked promotion flush
        // fragments H2 writes (worst on slow devices) and floating garbage
        // grows the compacted prefix — but it must stay bounded. H2-off runs
        // are excluded: under pure on-heap pressure the proactive trigger
        // runs extra full cycles whose stop-world fallback majors dominate,
        // which the CSV records but the gate does not police.
        if with_h2 {
            assert!(
                regression <= 0.25,
                "{dev} h2=on: slicing must cost <=25% total time \
                 (ps {ps_total}ns, incr {incr_total}ns, {:+.2}%)",
                regression * 100.0
            );
        }
    }

    let path = write_csv(
        "fig14_pause_cdf",
        "device,h2,mode,pause_budget_ns,major_pauses,major_mean_ns,major_p50_ns,major_p99_ns,major_p999_ns,major_max_ns,minor_pauses,minor_mean_pause_ns,total_ns",
        &csv,
    );
    println!("\nwrote {}", path.display());
}
