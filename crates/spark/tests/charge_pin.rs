//! Charge pin for mini-spark: host-side work on the scan loops, the block
//! manager, kryo or the dataset loaders must not move a simulated number.
//! One table-driven test runs the eleven workloads under Spark-SD, on-heap,
//! TeraHeap and adaptive placement at `DatasetScale::tiny()` — and PR, LR and
//! RL again under a 5 µs pause budget, where releasing a handle mid-marking
//! takes the SATB path (at 50 µs every cycle of these tiny runs fits one
//! slice and the path never runs) — and compares per-category simulated ns,
//! GC counts, S/D counts, H2 promotions, page faults and evictions,
//! `SimClock::charge` call counts per category, pause slices, SATB-remembered
//! references, the answer checksum and the root handles left live at exit
//! against the rows of `tests/golden/charge_pin.txt`
//! (`teraheap_util::golden`). An arm that runs out of memory pins only that
//! it does (`OOM`).
//!
//! If a change legitimately alters the cost model, re-pin with
//! `scripts/repin.sh` and say so in the PR; an optimization or refactoring PR
//! must reproduce the file exactly.

use mini_spark::{run_workload_on, DatasetScale, ExecMode, SparkConfig, SparkContext, Workload};
use teraheap_core::H2Config;
use teraheap_runtime::obs::Level;
use teraheap_runtime::HeapConfig;
use teraheap_storage::{Category, DeviceSpec};
use teraheap_util::golden::Golden;

const WORKLOADS: [Workload; 11] = [
    Workload::Pr,
    Workload::Cc,
    Workload::Sssp,
    Workload::Svd,
    Workload::Tr,
    Workload::Lr,
    Workload::Lgr,
    Workload::Svm,
    Workload::Bc,
    Workload::Rl,
    Workload::Km,
];

/// The workloads re-run under a pause budget.
const SLICED: [Workload; 3] = [Workload::Pr, Workload::Lr, Workload::Rl];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    SparkSd,
    OnHeap,
    TeraHeap,
    Adaptive,
}

const MODES: [Mode; 4] = [Mode::SparkSd, Mode::OnHeap, Mode::TeraHeap, Mode::Adaptive];

/// The arm's configuration: a heap close to the tiny datasets, so every mode
/// collects, Spark-SD overflows its on-heap budget and pays S/D on every
/// get, and TeraHeap promotes the cached partitions and faults them back
/// through a page cache smaller than they are.
fn config(workload: Workload, mode: Mode, pause_budget_ns: u64) -> SparkConfig {
    let h2 = H2Config::builder()
        .region_words(4 << 10)
        .n_regions(64)
        .card_seg_words(256)
        .resident_budget_bytes(8 << 10)
        .page_size(4096)
        .promo_buffer_bytes(16 << 10)
        .build()
        .expect("valid H2 config");
    let device = DeviceSpec::nvme_ssd();
    let (young, old) = heap_words(workload);
    let mut heap = HeapConfig::builder(young, old)
        .pause_budget_ns(pause_budget_ns)
        .build()
        .expect("valid heap config");
    // Charge-call counts are kept only with the recorder on, whatever
    // TERAHEAP_OBS says.
    heap.obs_level = Some(Level::Full);
    let mode = match mode {
        Mode::SparkSd => ExecMode::SparkSd { device },
        Mode::OnHeap => ExecMode::OnHeap,
        Mode::TeraHeap => ExecMode::TeraHeap { h2, device },
        Mode::Adaptive => ExecMode::Adaptive { h2, device },
    };
    SparkConfig { heap, mode, partitions: 4, iterations: 4 }
}

/// Young and old generation words: each dataset family against a heap its
/// tiny dataset barely fits (or, for some arms, does not fit) deserialized.
fn heap_words(workload: Workload) -> (usize, usize) {
    match workload {
        w if w.is_graph() => (768, 3968),
        Workload::Rl => (2048, 4096),
        _ => (1536, 1536),
    }
}

/// One arm's numbers: per-category ns and charge calls in [`Category::ALL`]
/// order, the answer checksum as `f64` bits, root handles live at exit.
#[rustfmt::skip]
const COLUMNS: [&str; 21] = [
    "mutator_ns", "serde_ns", "io_ns", "minor_gc_ns", "major_gc_ns",
    "minor_count", "major_count", "serializations", "deserializations", "objects_promoted_h2",
    "page_faults", "evictions",
    "mutator_charges", "serde_charges", "io_charges", "minor_gc_charges", "major_gc_charges",
    "incr_slices", "write_barrier_remembered", "checksum_bits", "live_roots",
];

type Row = [u64; COLUMNS.len()];

/// The arm's numbers, or `None` if it ran out of memory.
fn capture(workload: Workload, mode: Mode, pause_budget_ns: u64) -> Option<Row> {
    let mut ctx = SparkContext::new(config(workload, mode, pause_budget_ns));
    let checksum = run_workload_on(workload, &mut ctx, DatasetScale::tiny()).ok()?;
    let clock = ctx.heap.clock();
    let stats = ctx.heap.stats();
    let charges = clock.tracer().charge_counts();
    let mut row = [0u64; COLUMNS.len()];
    for (i, &cat) in Category::ALL.iter().enumerate() {
        row[i] = clock.category_ns(cat);
        row[12 + i] = charges[i];
    }
    row[5] = stats.minor_count;
    row[6] = stats.major_count;
    row[7] = ctx.bm.serializations();
    row[8] = ctx.bm.deserializations();
    row[9] = stats.objects_promoted_h2;
    if let Some(h2) = ctx.heap.h2() {
        row[10] = h2.mmap().stats().page_faults();
        row[11] = h2.mmap().stats().evictions();
    }
    row[17] = stats.incr_slices;
    row[18] = stats.write_barrier_remembered;
    row[19] = checksum.to_bits();
    row[20] = ctx.heap.live_roots() as u64;
    Some(row)
}

/// Every arm, named as in the golden file: the eleven workloads x [`MODES`]
/// stop-the-world, then [`SLICED`] x [`MODES`] under a 5 µs pause budget.
fn arms() -> impl Iterator<Item = (String, Workload, Mode, u64)> {
    let whole = WORKLOADS.into_iter().flat_map(|w| MODES.into_iter().map(move |m| (w, m, 0)));
    let sliced = SLICED.into_iter().flat_map(|w| MODES.into_iter().map(move |m| (w, m, 5_000)));
    whole.chain(sliced).map(|(w, m, budget)| (format!("{}-{m:?}-{budget}", w.name()), w, m, budget))
}

fn golden() -> Golden {
    Golden::open(env!("CARGO_MANIFEST_DIR"), "charge_pin", &COLUMNS)
}

#[test]
fn every_arm_matches_its_golden_row() {
    let mut golden = golden();
    for (arm, workload, mode, budget) in arms() {
        let got = capture(workload, mode, budget);
        golden.check(&arm, got.as_ref().map(|row| &row[..]));
    }
    golden.finish();
}

/// The table is only a pin if the arms exercise what they name: every mode
/// has arms that complete and arms that collect, most Spark-SD arms
/// serialize and deserialize, most TeraHeap arms promote, fault and evict,
/// the on-heap arms do neither, some arms run out of memory (the exits the
/// cursor must release on), and the sliced arms really slice and remember.
#[test]
fn arms_exercise_their_mechanisms() {
    let golden = golden();
    let mut completed = [0usize; MODES.len()];
    let mut exercised = [0usize; MODES.len()];
    let (mut ooms, mut slices, mut remembered) = (0, 0, 0);
    for (arm, _, mode, _) in arms() {
        let Some(row) = golden.row(&arm) else {
            ooms += 1;
            continue;
        };
        let m = mode as usize;
        completed[m] += 1;
        let collected = row[5] + row[6] > 0;
        exercised[m] += usize::from(match mode {
            Mode::SparkSd => collected && row[7] > 0 && row[8] > 0,
            Mode::OnHeap => {
                assert_eq!((row[7], row[8], row[9]), (0, 0, 0), "{arm} paid S/D or promoted");
                collected
            }
            Mode::TeraHeap => collected && row[9] > 0 && row[10] > 0 && row[11] > 0,
            Mode::Adaptive => collected && row[9] > 0,
        });
        slices += row[17];
        remembered += row[18];
    }
    assert!(ooms >= 4, "only {ooms} arms run out of memory");
    assert!(completed.iter().all(|&n| n >= 6), "arms completing per mode: {completed:?}");
    assert!(exercised.iter().all(|&n| n >= 6), "arms exercising their mode: {exercised:?}");
    assert!(slices > 0 && remembered > 0, "sliced arms: {slices} slices, {remembered} remembered");
}
