//! Scaled experiment configurations.
//!
//! The paper's Tables 3 and 4 give per-workload dataset sizes, DRAM sizes
//! and heap splits in GB on the authors' servers. The reproduction preserves
//! every *ratio* while scaling absolute sizes down by [`WORDS_PER_GB`]:
//! one paper-GB becomes 24 Ki heap words (192 KiB), so a 256 GB
//! configuration becomes a 48 MiB simulation that runs in seconds.
//! Below them sit the pieces the figure entries share: the job type and
//! worker pool, the rendering target, and the cell/bar formatters.

use mini_giraph::{run_giraph, GiraphConfig, GiraphMode, GiraphReport};
use mini_spark::{
    run_workload, run_workload_traced, DatasetScale, ExecMode, RunReport, SparkConfig, Workload,
};
use teraheap_core::H2Config;
use teraheap_runtime::obs::{Event, Level};
use teraheap_runtime::HeapConfig;
use teraheap_storage::DeviceSpec;

/// Heap words standing in for one paper-GB.
pub const WORDS_PER_GB: usize = 24 << 10;

/// DRAM the paper reserves for the system outside the heap (DR2): 16 GB for
/// Spark.
pub const SPARK_DR2_GB: usize = 16;

/// Per-workload Table 3 row: dataset GB, Figure 6's Spark-SD DRAM sweep and
/// TeraHeap DRAM pair, plus iteration count and partitioning.
#[derive(Debug, Clone)]
pub struct SparkRow {
    /// The workload.
    pub workload: Workload,
    /// Dataset size in paper-GB.
    pub dataset_gb: usize,
    /// Figure 6's Spark-SD DRAM sizes (GB).
    pub sd_dram_gb: &'static [usize],
    /// Figure 6's TeraHeap DRAM sizes (GB).
    pub th_dram_gb: &'static [usize],
    /// Iterations (scaled from the paper's counts).
    pub iterations: usize,
    /// RDD partitions.
    pub partitions: usize,
}

/// The Table 3 rows with Figure 6's DRAM sweeps, then KM — it only appears
/// in Figure 12c and is sized like the other MLlib jobs.
fn all_spark_rows() -> Vec<SparkRow> {
    let row = |workload, dataset_gb, sd, th, iterations, partitions| SparkRow {
        workload,
        dataset_gb,
        sd_dram_gb: sd,
        th_dram_gb: th,
        iterations,
        partitions,
    };
    vec![
        row(Workload::Pr, 80, &[32, 48, 80, 144], &[32, 80], 6, 64),
        row(Workload::Cc, 84, &[33, 50, 84, 152], &[33, 84], 6, 64),
        row(Workload::Sssp, 58, &[27, 37, 58, 100], &[37, 58], 6, 64),
        row(Workload::Svd, 40, &[22, 28, 40, 64], &[28, 40], 5, 64),
        row(Workload::Tr, 80, &[59, 70, 80], &[59, 80], 1, 64),
        row(Workload::Lr, 70, &[29, 43, 70, 124], &[43, 70], 8, 64),
        row(Workload::Lgr, 70, &[29, 43, 70, 124], &[43, 70], 8, 64),
        row(Workload::Svm, 48, &[28, 32, 36, 48], &[36, 48], 8, 160),
        row(Workload::Bc, 98, &[53, 57, 98, 180], &[57, 98], 2, 260),
        row(Workload::Rl, 63, &[24, 37, 63], &[37, 63], 5, 120),
        row(Workload::Km, 70, &[43, 70], &[43, 70], 6, 64),
    ]
}

/// The Table 3 rows, with Figure 6's DRAM sweeps.
pub fn spark_rows() -> Vec<SparkRow> {
    all_spark_rows().into_iter().filter(|r| r.workload != Workload::Km).collect()
}

/// The row for one workload.
pub fn spark_row(w: Workload) -> SparkRow {
    all_spark_rows().into_iter().find(|r| r.workload == w).expect("workload has a Table 3 row")
}

/// The dataset for a Table 3 row, sized to `dataset_gb` scaled paper-GB.
pub fn spark_dataset(row: &SparkRow) -> DatasetScale {
    let words = row.dataset_gb * WORDS_PER_GB;
    let dims = 32;
    DatasetScale {
        // Graphs: ≈(9 + avg_degree) words per vertex at degree 8.
        vertices: words / 17,
        avg_degree: 8,
        // ML: (dims + ~2) words per row.
        rows: words / (dims + 2),
        dims,
        // Relational: ~2.3 words per row.
        rel_rows: words * 10 / 23,
        rel_keys: 256,
        seed: 42,
    }
}

/// Splits `heap_gb` into young/old with the 1:4 ratio big-data Spark/Giraph
/// deployments use (small young generation, large tenured space for cached
/// data).
pub fn heap_split(heap_gb: usize) -> HeapConfig {
    heap_split_words(heap_gb * WORDS_PER_GB)
}

/// [`heap_split`] over a total given in words.
pub fn heap_split_words(words: usize) -> HeapConfig {
    HeapConfig::with_words(words / 5, words - words / 5)
}

/// H1 heap sized for `dram_gb` of DRAM with the paper's DR2 share removed.
pub fn spark_heap(dram_gb: usize) -> HeapConfig {
    heap_split(dram_gb.saturating_sub(SPARK_DR2_GB).max(4))
}

/// H2 sized to hold the workload's dataset several times over (lazy bulk
/// reclamation needs slack), with the paper's (and the builder's) defaults:
/// 4 KB pages, 8 KB card segments and 2 MB promotion buffers.
pub fn h2_for(dataset_gb: usize) -> H2Config {
    let region_words = 64 << 10;
    let capacity_words = 6 * dataset_gb * WORDS_PER_GB;
    H2Config::builder()
        .region_words(region_words)
        .n_regions(capacity_words.div_ceil(region_words).max(16))
        .resident_budget_bytes(16 * WORDS_PER_GB * 8) // DR2 page-cache share
        .build()
        .expect("paper-default H2 layout is valid")
}

/// `row`'s configuration on `heap` in cache mode `mode`.
pub fn spark_config(row: &SparkRow, heap: HeapConfig, mode: ExecMode) -> SparkConfig {
    SparkConfig { heap, mode, partitions: row.partitions, iterations: row.iterations }
}

/// Spark-SD configuration at `dram_gb` on `device`.
pub fn spark_sd(row: &SparkRow, dram_gb: usize, device: DeviceSpec) -> SparkConfig {
    spark_config(row, spark_heap(dram_gb), ExecMode::SparkSd { device })
}

/// TeraHeap configuration at `dram_gb` on `device`.
pub fn spark_th(row: &SparkRow, dram_gb: usize, device: DeviceSpec) -> SparkConfig {
    let mode = ExecMode::TeraHeap { h2: h2_for(row.dataset_gb), device };
    spark_config(row, spark_heap(dram_gb), mode)
}

/// Per-workload Table 4 row for Giraph.
#[derive(Debug, Clone, Copy)]
pub struct GiraphRow {
    /// The workload.
    pub workload: mini_giraph::GiraphWorkload,
    /// Dataset size in paper-GB.
    pub dataset_gb: usize,
    /// Figure 6's DRAM pair (small has the OOC OOM, large runs).
    pub dram_gb: [usize; 2],
    /// Giraph-OOC heap at the large DRAM size (Table 4 Heap column).
    pub ooc_heap_gb: usize,
    /// TeraHeap H1 at the large DRAM size (Table 4 H1 column).
    pub th_h1_gb: usize,
    /// Supersteps.
    pub supersteps: usize,
    /// In-memory words per vertex (vertex + edges + both message stores);
    /// CDLP lacks a combiner so its message stores are degree-sized.
    pub words_per_vertex: usize,
}

/// The Table 4 rows.
pub fn giraph_rows() -> Vec<GiraphRow> {
    use mini_giraph::GiraphWorkload as W;
    vec![
        GiraphRow { workload: W::Pr, dataset_gb: 85, dram_gb: [74, 85], ooc_heap_gb: 70, th_h1_gb: 50, supersteps: 6, words_per_vertex: 48 },
        GiraphRow { workload: W::Cdlp, dataset_gb: 85, dram_gb: [74, 85], ooc_heap_gb: 70, th_h1_gb: 60, supersteps: 6, words_per_vertex: 48 },
        GiraphRow { workload: W::Wcc, dataset_gb: 85, dram_gb: [74, 85], ooc_heap_gb: 70, th_h1_gb: 60, supersteps: 8, words_per_vertex: 24 },
        GiraphRow { workload: W::Bfs, dataset_gb: 65, dram_gb: [57, 65], ooc_heap_gb: 48, th_h1_gb: 35, supersteps: 8, words_per_vertex: 24 },
        GiraphRow { workload: W::Sssp, dataset_gb: 90, dram_gb: [78, 90], ooc_heap_gb: 75, th_h1_gb: 50, supersteps: 8, words_per_vertex: 24 },
    ]
}

/// The row for one workload.
pub fn giraph_row(w: mini_giraph::GiraphWorkload) -> GiraphRow {
    giraph_rows().into_iter().find(|r| r.workload == w).expect("workload has a Table 4 row")
}

/// Graph vertices for a Giraph row. Table 4's footprint covers the loaded
/// graph *plus* the two message stores (messages and edges dominate the
/// Giraph heap, §5).
pub fn giraph_vertices(row: &GiraphRow) -> usize {
    row.dataset_gb * WORDS_PER_GB / row.words_per_vertex
}

/// Runs `row`'s workload under `config` on its Table 4 graph (degree 8,
/// seed 42).
pub fn run_giraph_row(row: &GiraphRow, config: GiraphConfig) -> GiraphReport {
    run_giraph(row.workload, config, giraph_vertices(row), 8, 42)
}

/// `row`'s configuration at `dram_gb`: the heap is `full_heap_gb` at the large
/// DRAM size and scales with DRAM (the Table 4 split keeps DR2 fixed).
fn giraph_config(
    row: &GiraphRow,
    dram_gb: usize,
    full_heap_gb: usize,
    mode: impl FnOnce(usize) -> GiraphMode,
) -> GiraphConfig {
    let heap_gb = dram_gb.saturating_sub(row.dram_gb[1] - full_heap_gb).max(4);
    GiraphConfig {
        heap: heap_split(heap_gb),
        mode: mode(heap_gb),
        partitions: 16,
        max_supersteps: row.supersteps,
        use_move_hint: true,
        low_threshold: None,
        adaptive_threshold: false,
        track_h2_liveness: false,
    }
}

/// Giraph-OOC configuration at `dram_gb`.
pub fn giraph_ooc(row: &GiraphRow, dram_gb: usize) -> GiraphConfig {
    giraph_config(row, dram_gb, row.ooc_heap_gb, |heap_gb| GiraphMode::OutOfCore {
        device: DeviceSpec::nvme_ssd(),
        memory_limit_words: heap_gb * WORDS_PER_GB * 45 / 100,
    })
}

/// TeraHeap Giraph configuration at `dram_gb`.
pub fn giraph_th(row: &GiraphRow, dram_gb: usize) -> GiraphConfig {
    let mode = GiraphMode::TeraHeap { h2: h2_for(row.dataset_gb), device: DeviceSpec::nvme_ssd() };
    giraph_config(row, dram_gb, row.th_h1_gb, |_| mode)
}

/// One independent simulation: owns its heap and clock, runs on any worker.
pub type Job<T> = Box<dyn FnOnce() -> T + Send>;

/// Boxes a job closure (the cast closures need inside tuples and `map`s).
pub fn job<T>(f: impl FnOnce() -> T + Send + 'static) -> Job<T> {
    Box::new(f)
}

/// What a figure's `render` returns.
#[derive(Default)]
pub struct Rendered {
    /// The figure as printed text.
    pub text: String,
    /// CSV rows (without the header).
    pub csv: Vec<String>,
    /// Self-gates the results violated; any entry fails the `figures` run.
    pub failed_gates: Vec<String>,
    /// A second output file under `results/`: `(file name, contents)`.
    pub sidecar: Option<(&'static str, String)>,
}

/// The three H2 device profiles the beyond-the-paper sweeps cross.
pub fn devices() -> [(&'static str, DeviceSpec); 3] {
    let (nvme, nvm, dax) = (DeviceSpec::nvme_ssd(), DeviceSpec::optane_nvm(), DeviceSpec::dram());
    [("nvme", nvme), ("nvm", nvm), ("dax", dax)]
}

/// The memory-pressured PageRank job behind the GC-thread and pause-budget
/// sweeps: several minor GCs and an H2-promoting major per run. `device`
/// backs a 16 MiB H2 (`None`: on-heap). Traced in full, ring never wraps.
pub fn pressure_pr(
    gc_threads: usize,
    pause_budget_ns: u64,
    device: Option<DeviceSpec>,
) -> (RunReport, Vec<Event>) {
    let h2 = H2Config::builder()
        .region_words(32 << 10)
        .resident_budget_bytes(512 << 10)
        .promo_buffer_bytes(256 << 10)
        .build()
        .expect("valid H2 layout");
    let heap = HeapConfig::builder(12 << 10, 64 << 10)
        .gc_threads(gc_threads)
        .pause_budget_ns(pause_budget_ns)
        .obs_level(Level::Full)
        .obs_events(1 << 20)
        .build()
        .expect("valid heap config");
    let mode = device.map_or(ExecMode::OnHeap, |device| ExecMode::TeraHeap { h2, device });
    let scale = DatasetScale { vertices: 4_000, avg_degree: 6, ..DatasetScale::tiny() };
    let config = SparkConfig { heap, mode, partitions: 8, iterations: 5 };
    run_workload_traced(Workload::Pr, config, scale)
}

/// Worker-thread count for the figure pool: `TERAHEAP_BENCH_THREADS` if
/// set (an error message unless it is a positive integer), else the
/// machine's available parallelism.
pub fn bench_threads() -> Result<usize, String> {
    let Ok(v) = std::env::var("TERAHEAP_BENCH_THREADS") else {
        return Ok(std::thread::available_parallelism().map_or(1, |n| n.get()));
    };
    match v.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("TERAHEAP_BENCH_THREADS must be a positive integer, got {v:?}")),
    }
}

/// Runs independent jobs across `workers` threads and returns their results
/// **in input order** — each simulation owns its heap and clock, so fanning
/// whole configurations out is safe, and rendering from the ordered results
/// keeps every CSV byte-identical to a sequential run at any thread count.
pub fn run_parallel<T, F>(jobs: Vec<F>, workers: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let workers = workers.min(jobs.len());
    if workers <= 1 {
        return jobs.into_iter().map(|f| f()).collect();
    }
    // Workers pull `(index, job)` off one queue; the lock is held only for the pull.
    let queue = teraheap_util::sync::Mutex::new(jobs.into_iter().enumerate());
    let work = || {
        let mut done = Vec::new();
        loop {
            let next = queue.lock().next();
            let Some((i, job)) = next else { break done };
            done.push((i, job()));
        }
    };
    let mut done: Vec<(usize, T)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(work)).collect();
        handles.into_iter().flat_map(|h| h.join().expect("figure job panicked")).collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

/// Nanoseconds as milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// A result cell: `OOM` for a run that died, else `cell()`.
pub fn or_oom(oom: bool, cell: impl FnOnce() -> String) -> String {
    if oom {
        return "OOM".to_string();
    }
    cell()
}

/// What the paper's figures normalize a bar group to: the total of its first
/// completing run. Takes `(oom, total_ns)` per bar.
pub fn reference_ns(bars: impl IntoIterator<Item = (bool, u64)>) -> u64 {
    bars.into_iter().find(|&(oom, _)| !oom).map_or(1, |(_, ns)| ns).max(1)
}

/// Renders a normalized stacked bar (other/sd+io/minor/major as percentages
/// of `reference_ns`), matching the paper's normalized-execution-time plots.
pub fn bar(breakdown: &teraheap_storage::Breakdown, reference_ns: u64) -> String {
    let pct = |x: u64| 100.0 * x as f64 / reference_ns.max(1) as f64;
    format!(
        "other {:5.1}% | s/d+io {:5.1}% | minor {:5.1}% | major {:5.1}% | total {:5.1}%",
        pct(breakdown.other_ns),
        pct(breakdown.sd_io_ns),
        pct(breakdown.minor_gc_ns),
        pct(breakdown.major_gc_ns),
        pct(breakdown.total_ns()),
    )
}

/// Reports a `[native, TeraHeap]` pair of `(oom, total_ns)` runs: a text line
/// with TeraHeap's saving, and one CSV row each under `csv_key`.
pub fn report_pair(out: &mut Rendered, label: &str, csv_key: &str, pair: [(bool, u64); 2]) {
    let [native, th] = pair;
    let cell = |(oom, ns): (bool, u64)| or_oom(oom, || format!("{:.1}ms", ms(ns)));
    let saving = if native.0 || th.0 || th.1 == 0 {
        "-".to_string()
    } else {
        format!("{:.0}%", 100.0 * (1.0 - th.1 as f64 / native.1 as f64))
    };
    say!(out.text, "  {label:>18}: native {}  TH {}  (TH saves {saving})", cell(native), cell(th));
    out.csv.push(format!("{csv_key},native,-,{},{}", native.0, native.1));
    out.csv.push(format!("{csv_key},TH,-,{},{}", th.0, th.1));
}

/// A job running `row`'s workload under `config` on its Table 3 dataset.
pub fn spark_job(row: &SparkRow, config: SparkConfig) -> Job<RunReport> {
    let (workload, scale) = (row.workload, spark_dataset(row));
    Box::new(move || run_workload(workload, config, scale))
}

/// One bar of a normalized-execution-time figure (the key of its job).
pub struct FigureBar {
    /// Header of the bar's group (one workload's cluster in the paper's
    /// figures); adjacent bars of one group are normalized together.
    pub group: String,
    /// Display label.
    pub label: String,
    /// The bar's CSV key column(s).
    pub csv_key: String,
}

impl FigureBar {
    /// A bar whose CSV key is its label with spaces as `_`.
    pub fn new(group: &str, label: impl Into<String>) -> Self {
        let label = label.into();
        FigureBar { group: group.to_string(), csv_key: label.replace(' ', "_"), label }
    }
}

/// Renders a figure of [`FigureBar`]s: per group its header, then each bar
/// labelled to `width` (with its GC counts under `gc_counts`); one
/// `csv_key,RunReport::csv_row` CSV row per bar.
pub fn render_bars(
    out: &mut Rendered,
    runs: &[(FigureBar, RunReport)],
    width: usize,
    gc_counts: bool,
) {
    for group in runs.chunk_by(|a, b| a.0.group == b.0.group) {
        say!(out.text, "{}", group[0].0.group);
        let reference = reference_ns(group.iter().map(|(_, r)| (r.oom, r.breakdown.total_ns())));
        for (FigureBar { label, csv_key, .. }, r) in group {
            let gcs = format!("  [minor {} major {}]", r.minor_gcs, r.major_gcs);
            let gcs = if gc_counts { gcs.as_str() } else { "" };
            let cell = or_oom(r.oom, || bar(&r.breakdown, reference) + gcs);
            say!(out.text, "  {label:>width$}: {cell}");
            out.csv.push(format!("{csv_key},{}", r.csv_row()));
        }
        say!(out.text, "");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cover_all_ten_spark_workloads() {
        let rows = spark_rows();
        assert_eq!(rows.len(), 10);
        for w in Workload::ALL {
            assert!(rows.iter().any(|r| r.workload == w), "{} missing", w.name());
        }
    }

    #[test]
    fn km_row_is_available_for_fig12c() {
        let r = spark_row(Workload::Km);
        assert_eq!(r.workload, Workload::Km);
    }

    #[test]
    fn heap_scales_with_dram() {
        let small = spark_heap(32);
        let large = spark_heap(144);
        assert!(large.h1_words() > 3 * small.h1_words());
        assert_eq!(small.h1_words(), (32 - SPARK_DR2_GB) * WORDS_PER_GB);
        assert!(small.old_words >= 3 * small.young_words, "big-data split");
    }

    #[test]
    fn h2_holds_dataset_with_slack() {
        let h2 = h2_for(80);
        assert!(h2.capacity_words() >= 5 * 80 * WORDS_PER_GB);
    }

    #[test]
    fn giraph_rows_cover_all_five() {
        assert_eq!(giraph_rows().len(), 5);
    }
}
