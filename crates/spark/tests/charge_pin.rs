//! Charge pin for mini-spark: host-side work on the scan loops, the block
//! manager, kryo or the dataset loaders must not move a simulated number.
//! One table-driven test runs the twelve workloads under Spark-SD, on-heap,
//! TeraHeap and adaptive placement at `DatasetScale::tiny()` — and PR, LR and
//! RL again under a 5 µs pause budget, where releasing a handle mid-marking
//! takes the SATB path (at 50 µs every cycle of these tiny runs fits one
//! slice and the path never runs) — and compares per-category simulated ns,
//! GC counts, S/D counts, H2 promotions, page faults and evictions,
//! `SimClock::charge` call counts per category, pause slices, SATB-remembered
//! references, the answer checksum and the root handles left live at exit
//! against golden rows (see [`ARMS`]). An arm that runs out of memory pins
//! only that it does.
//!
//! If a change legitimately alters the cost model, re-capture the table with
//! `TERAHEAP_GOLDEN_PRINT=1 cargo test -p mini-spark --test charge_pin -- --nocapture`
//! and say so in the PR; an optimization or refactoring PR must reproduce it
//! exactly.

use mini_spark::{run_workload_on, DatasetScale, ExecMode, SparkConfig, SparkContext, Workload};
use teraheap_core::H2Config;
use teraheap_runtime::obs::Level;
use teraheap_runtime::HeapConfig;
use teraheap_storage::{Category, DeviceSpec};

const WORKLOADS: [Workload; 12] = [
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
    Workload::Mix,
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
    // Charge-call counts are kept from `counters` up, whatever TERAHEAP_OBS
    // says.
    heap.obs_level = Some(Level::Counters);
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
        Workload::Mix => (512, 2048),
        _ => (1536, 1536),
    }
}

/// Per-category ns (5), minor and major GC counts, serializations and
/// deserializations, objects promoted to H2, page faults and evictions,
/// charge calls per category (5), pause slices, SATB-remembered references,
/// checksum bits, live roots at exit.
type Row = [u64; 21];

/// The row of an arm that ran out of memory.
const OOM: Row = [u64::MAX; 21];

fn capture(workload: Workload, mode: Mode, pause_budget_ns: u64) -> Row {
    let mut ctx = SparkContext::new(config(workload, mode, pause_budget_ns));
    let Ok(checksum) = run_workload_on(workload, &mut ctx, DatasetScale::tiny()) else {
        return OOM;
    };
    let clock = ctx.heap.clock();
    let stats = ctx.heap.stats();
    let charges = clock.tracer().charge_counts();
    let mut row = [0u64; 21];
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
    row
}

/// Every arm: the twelve workloads x [`MODES`] stop-the-world, then
/// [`SLICED`] x [`MODES`] under a 5 µs pause budget.
fn arms() -> impl Iterator<Item = (Workload, Mode, u64)> {
    let whole = WORKLOADS.into_iter().flat_map(|w| MODES.into_iter().map(move |m| (w, m, 0)));
    let sliced = SLICED.into_iter().flat_map(|w| MODES.into_iter().map(move |m| (w, m, 5_000)));
    whole.chain(sliced)
}

/// The golden table, one row per arm in [`arms`] order, each row in [`Row`]
/// order.
#[rustfmt::skip]
const ARMS: [Row; 60] = [
    [52416, 34181, 357147, 32577, 220666, 10, 9, 1, 4, 0, 0, 0, 15063, 9, 5, 20, 36, 0, 0, 4643985272004935682, 3], // PR SparkSd 0
    [38294, 16636, 0, 23277, 58186, 6, 2, 0, 0, 0, 0, 0, 11184, 4, 0, 12, 8, 0, 0, 4643985272004935682, 4], // PR OnHeap 0
    [735102, 16636, 0, 45121, 99884, 7, 1, 0, 0, 608, 22, 20, 7590, 4, 0, 21, 6, 0, 0, 4643985272004935682, 4], // PR TeraHeap 0
    [123486, 16636, 0, 45103, 56859, 7, 1, 0, 0, 152, 2, 0, 11198, 4, 0, 21, 5, 0, 0, 4643985272004935682, 4], // PR Adaptive 0
    [50016, 25845, 357147, 32577, 220666, 10, 9, 1, 4, 0, 0, 0, 15047, 9, 5, 20, 36, 0, 0, 0, 3], // CC SparkSd 0
    [35894, 8300, 0, 23277, 58186, 6, 2, 0, 0, 0, 0, 0, 11168, 4, 0, 12, 8, 0, 0, 0, 4], // CC OnHeap 0
    [732702, 8300, 0, 45121, 99884, 7, 1, 0, 0, 608, 22, 20, 7574, 4, 0, 21, 6, 0, 0, 0, 4], // CC TeraHeap 0
    [121086, 8300, 0, 45103, 56859, 7, 1, 0, 0, 152, 2, 0, 11182, 4, 0, 21, 5, 0, 0, 0, 4], // CC Adaptive 0
    [61996, 26495, 522795, 37729, 318286, 12, 13, 1, 6, 0, 0, 0, 18977, 13, 7, 24, 52, 0, 0, 4666145928862760960, 3], // SSSP SparkSd 0
    [42538, 1932, 0, 23277, 87006, 6, 3, 0, 0, 0, 0, 0, 13884, 6, 0, 12, 12, 0, 0, 4666145928862760960, 4], // SSSP OnHeap 0
    [1274206, 1932, 0, 48363, 99884, 8, 1, 0, 0, 608, 42, 40, 7098, 6, 0, 24, 6, 0, 0, 4666145928862760960, 4], // SSSP TeraHeap 0
    [125526, 1932, 0, 48345, 56859, 8, 1, 0, 0, 152, 2, 0, 13086, 6, 0, 24, 5, 0, 0, 4666145928862760960, 4], // SSSP Adaptive 0
    OOM, // SVD SparkSd 0
    OOM, // SVD OnHeap 0
    [1114640, 10432, 0, 55917, 100334, 10, 1, 0, 0, 608, 33, 31, 5777, 4, 0, 29, 6, 0, 0, 4648681199852663868, 4], // SVD TeraHeap 0
    [153638, 10432, 0, 52507, 79068, 9, 2, 0, 0, 152, 2, 0, 10730, 4, 0, 26, 9, 0, 0, 4648681199852663868, 4], // SVD Adaptive 0
    [41513, 14686, 191499, 28417, 74918, 9, 3, 1, 2, 0, 0, 0, 10258, 4, 3, 18, 12, 0, 0, 4637300241308057600, 3], // TR SparkSd 0
    [32727, 4159, 0, 23277, 0, 6, 0, 0, 0, 0, 0, 0, 7593, 1, 0, 12, 0, 0, 0, 4637300241308057600, 4], // TR OnHeap 0
    [33331, 4159, 0, 41709, 0, 6, 0, 0, 0, 0, 0, 0, 7593, 1, 0, 18, 0, 0, 0, 4637300241308057600, 4], // TR TeraHeap 0
    [35163, 4159, 0, 41691, 0, 6, 0, 0, 0, 0, 0, 0, 8509, 1, 0, 18, 0, 0, 0, 4637300241308057600, 4], // TR Adaptive 0
    [50868, 22546, 714294, 2334, 12790, 1, 5, 2, 8, 0, 0, 0, 3588, 14, 10, 2, 20, 0, 0, 4605354730702164494, 2], // LR SparkSd 0
    OOM, // LR OnHeap 0
    [210016, 556, 0, 5406, 59591, 1, 1, 0, 0, 12, 6, 4, 2746, 4, 0, 3, 6, 0, 0, 4605354730702164494, 4], // LR TeraHeap 0
    [206316, 556, 0, 5406, 33669, 1, 1, 0, 0, 6, 4, 2, 3126, 4, 0, 3, 5, 0, 0, 4605354730702164494, 4], // LR Adaptive 0
    [50868, 22546, 714294, 2334, 12790, 1, 5, 2, 8, 0, 0, 0, 3588, 14, 10, 2, 20, 0, 0, 4603100076672047994, 2], // LgR SparkSd 0
    OOM, // LgR OnHeap 0
    [210016, 556, 0, 5406, 59591, 1, 1, 0, 0, 12, 6, 4, 2746, 4, 0, 3, 6, 0, 0, 4603100076672047994, 4], // LgR TeraHeap 0
    [206316, 556, 0, 5406, 33669, 1, 1, 0, 0, 6, 4, 2, 3126, 4, 0, 3, 5, 0, 0, 4603100076672047994, 4], // LgR Adaptive 0
    [50340, 22546, 714294, 2334, 12790, 1, 5, 2, 8, 0, 0, 0, 3555, 14, 10, 2, 20, 0, 0, 4607870717086238096, 2], // SVM SparkSd 0
    OOM, // SVM OnHeap 0
    [210016, 556, 0, 5406, 59591, 1, 1, 0, 0, 12, 6, 4, 2746, 4, 0, 3, 6, 0, 0, 4607870717086238096, 4], // SVM TeraHeap 0
    [206108, 556, 0, 5406, 33669, 1, 1, 0, 0, 6, 4, 2, 3113, 4, 0, 3, 5, 0, 0, 4607870717086238096, 4], // SVM Adaptive 0
    [18696, 13332, 382998, 2334, 7614, 1, 3, 2, 4, 0, 0, 0, 1340, 8, 6, 2, 12, 0, 0, 4651545477307135863, 2], // BC SparkSd 0
    [12004, 138, 0, 2334, 0, 1, 0, 0, 0, 0, 0, 0, 1264, 2, 0, 2, 0, 0, 0, 4651545477307135863, 4], // BC OnHeap 0
    [12012, 138, 0, 5406, 0, 1, 0, 0, 0, 0, 0, 0, 1264, 2, 0, 3, 0, 0, 0, 4651545477307135863, 4], // BC TeraHeap 0
    [12044, 138, 0, 5406, 0, 1, 0, 0, 0, 0, 0, 0, 1280, 2, 0, 3, 0, 0, 0, 4651545477307135863, 4], // BC Adaptive 0
    [58382, 30051, 357147, 6312, 40508, 2, 6, 1, 4, 0, 0, 0, 19106, 9, 5, 4, 24, 0, 0, 4745975835113029632, 3], // RL SparkSd 0
    OOM, // RL OnHeap 0
    [440526, 9856, 0, 25128, 73176, 5, 1, 0, 0, 12, 25, 23, 11328, 4, 0, 15, 6, 0, 0, 4745975835113029632, 4], // RL TeraHeap 0
    [129734, 9856, 0, 12456, 58051, 2, 4, 0, 0, 3, 2, 0, 17147, 4, 0, 6, 17, 0, 0, 4745975835113029632, 4], // RL Adaptive 0
    OOM, // KM SparkSd 0
    OOM, // KM OnHeap 0
    [402096, 2228, 0, 5406, 59591, 1, 1, 0, 0, 12, 15, 13, 1771, 4, 0, 3, 6, 0, 0, 4627595589858754777, 4], // KM TeraHeap 0
    [407492, 2228, 0, 5406, 33669, 1, 1, 0, 0, 6, 9, 7, 3599, 4, 0, 3, 5, 0, 0, 4627595589858754777, 4], // KM Adaptive 0
    [79710, 61036, 6892397, 1060, 5849, 29, 4, 13, 81, 0, 0, 0, 1166, 98, 94, 32, 16, 0, 0, 4723906032038838272, 1], // MIX SparkSd 0
    OOM, // MIX OnHeap 0
    [131138, 4456, 0, 18712, 32397, 5, 1, 0, 0, 12, 1, 0, 515, 4, 0, 15, 5, 0, 0, 4723906032038838272, 8], // MIX TeraHeap 0
    [50808, 4456, 0, 19260, 52850, 5, 2, 0, 0, 4, 0, 0, 576, 4, 0, 15, 10, 0, 0, 4723906032038838272, 8], // MIX Adaptive 0
    OOM, // PR SparkSd 5000
    [38490, 16636, 0, 19385, 114216, 5, 4, 0, 0, 0, 0, 0, 11282, 4, 0, 10, 20, 5, 98, 4643985272004935682, 4], // PR OnHeap 5000
    [1079686, 16636, 0, 45461, 90882, 8, 1, 0, 0, 456, 32, 30, 5886, 4, 0, 23, 9, 5, 94, 4643985272004935682, 4], // PR TeraHeap 5000
    [123674, 16636, 0, 38157, 118193, 6, 3, 0, 0, 152, 2, 0, 11292, 4, 0, 18, 19, 7, 98, 4643985272004935682, 4], // PR Adaptive 5000
    [50868, 22546, 714294, 2334, 15228, 1, 6, 2, 8, 0, 0, 0, 3588, 14, 10, 2, 23, 2, 0, 4605354730702164494, 2], // LR SparkSd 5000
    OOM, // LR OnHeap 5000
    [469360, 556, 0, 10759, 62564, 2, 2, 0, 0, 12, 16, 14, 1658, 4, 0, 6, 8, 4, 0, 4605354730702164494, 4], // LR TeraHeap 5000
    [206316, 556, 0, 5406, 36107, 1, 2, 0, 0, 6, 4, 2, 3126, 4, 0, 3, 8, 2, 0, 4605354730702164494, 4], // LR Adaptive 5000
    [58382, 30051, 357147, 6271, 50094, 2, 8, 1, 4, 0, 0, 0, 19106, 9, 5, 4, 30, 4, 0, 4745975835113029632, 3], // RL SparkSd 5000
    OOM, // RL OnHeap 5000
    [1087848, 9856, 0, 31350, 78251, 6, 6, 0, 0, 9, 32, 30, 11304, 4, 0, 18, 20, 12, 0, 4745975835113029632, 4], // RL TeraHeap 5000
    [129734, 9856, 0, 12415, 67637, 2, 6, 0, 0, 3, 2, 0, 17147, 4, 0, 6, 23, 4, 0, 4745975835113029632, 4], // RL Adaptive 5000
];

#[test]
fn every_arm_matches_its_golden_row() {
    let print = std::env::var("TERAHEAP_GOLDEN_PRINT").is_ok();
    for ((workload, mode, budget), golden) in arms().zip(&ARMS) {
        let got = capture(workload, mode, budget);
        if print {
            let row = if got == OOM { "OOM".to_string() } else { format!("{got:?}") };
            println!("    {row}, // {} {mode:?} {budget}", workload.name());
            continue;
        }
        assert_eq!(
            &got,
            golden,
            "{} under {mode:?} (pause budget {budget}) diverged from its golden",
            workload.name()
        );
    }
}

/// The table is only a pin if the arms exercise what they name: every mode
/// has arms that complete and arms that collect, most Spark-SD arms
/// serialize and deserialize, most TeraHeap arms promote, fault and evict,
/// the on-heap arms do neither, some arms run out of memory (the exits the
/// cursor must release on), and the sliced arms really slice and remember.
#[test]
fn arms_exercise_their_mechanisms() {
    let mut completed = [0usize; MODES.len()];
    let mut exercised = [0usize; MODES.len()];
    let (mut slices, mut remembered) = (0, 0);
    for ((_, mode, _), row) in arms().zip(&ARMS) {
        if *row == OOM {
            continue;
        }
        let m = mode as usize;
        completed[m] += 1;
        let collected = row[5] + row[6] > 0;
        exercised[m] += usize::from(match mode {
            Mode::SparkSd => collected && row[7] > 0 && row[8] > 0,
            Mode::OnHeap => {
                assert_eq!((row[7], row[8], row[9]), (0, 0, 0), "on-heap arm paid S/D or promoted");
                collected
            }
            Mode::TeraHeap => collected && row[9] > 0 && row[10] > 0 && row[11] > 0,
            Mode::Adaptive => collected && row[9] > 0,
        });
        slices += row[17];
        remembered += row[18];
    }
    let ooms = ARMS.iter().filter(|&&row| row == OOM).count();
    assert!(ooms >= 4, "only {ooms} arms run out of memory");
    assert!(completed.iter().all(|&n| n >= 6), "arms completing per mode: {completed:?}");
    assert!(exercised.iter().all(|&n| n >= 6), "arms exercising their mode: {exercised:?}");
    assert!(slices > 0 && remembered > 0, "sliced arms: {slices} slices, {remembered} remembered");
}
