//! Charge pin for mini-giraph: host-side work on the superstep loop, the
//! message stores or the OOC blob path must not move a simulated number.
//! One table-driven test runs the five workloads under in-memory, Giraph-OOC
//! and TeraHeap (with and without the `h2_move` hint) at test scale and
//! compares per-category simulated ns, GC counts, supersteps, H2 promotions,
//! OOC offloads/reloads, `SimClock::charge` call counts per category and the
//! answer checksum against golden rows (see [`ARMS`]).
//!
//! If a change legitimately alters the cost model, re-capture the table with
//! `TERAHEAP_GOLDEN_PRINT=1 cargo test -p mini-giraph --test charge_pin -- --nocapture`
//! and say so in the PR; an optimization or refactoring PR must reproduce it
//! exactly.

use mini_giraph::workloads::run_giraph_with_context;
use mini_giraph::{GiraphConfig, GiraphMode, GiraphWorkload};
use teraheap_core::H2Config;
use teraheap_runtime::obs::Level;
use teraheap_runtime::HeapConfig;
use teraheap_storage::{Category, DeviceSpec};

const VERTICES: usize = 1500;
const AVG_DEGREE: usize = 6;
const SEED: u64 = 20261002;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    InMemory,
    Ooc,
    TeraHeap,
    TeraHeapNoHint,
}

const MODES: [Mode; 4] = [Mode::InMemory, Mode::Ooc, Mode::TeraHeap, Mode::TeraHeapNoHint];

/// The arm's configuration: heaps small enough that every mode collects,
/// the OOC scheduler offloads and reloads, and TeraHeap promotes both with
/// the hint and (under pressure, mid-superstep) without it.
fn config(mode: Mode) -> GiraphConfig {
    let (heap, giraph_mode) = match mode {
        Mode::InMemory => (HeapConfig::with_words(16 << 10, 160 << 10), GiraphMode::InMemory),
        Mode::Ooc => (
            HeapConfig::with_words(16 << 10, 96 << 10),
            GiraphMode::OutOfCore { device: DeviceSpec::nvme_ssd(), memory_limit_words: 24 << 10 },
        ),
        Mode::TeraHeap | Mode::TeraHeapNoHint => (
            HeapConfig::with_words(8 << 10, 24 << 10),
            GiraphMode::TeraHeap {
                h2: H2Config::builder()
                    .region_words(8 << 10)
                    .n_regions(96)
                    .card_seg_words(512)
                    .resident_budget_bytes(64 << 10)
                    .page_size(4096)
                    .promo_buffer_bytes(64 << 10)
                    .build()
                    .expect("valid H2 config"),
                device: DeviceSpec::nvme_ssd(),
            },
        ),
    };
    let mut cfg = GiraphConfig::small(giraph_mode);
    cfg.heap = heap;
    // Charge-call counts are kept from `counters` up, whatever TERAHEAP_OBS
    // says.
    cfg.heap.obs_level = Some(Level::Counters);
    cfg.partitions = 4;
    cfg.max_supersteps = 5;
    cfg.use_move_hint = mode != Mode::TeraHeapNoHint;
    cfg
}

/// Per-category ns (5), minor and major GC counts, supersteps, objects
/// promoted to H2, OOC offloads and reloads, charge calls per category (5),
/// checksum bits.
type Row = [u64; 17];

fn capture(workload: GiraphWorkload, mode: Mode) -> Row {
    let (ctx, checksum) =
        run_giraph_with_context(workload, config(mode), VERTICES, AVG_DEGREE, SEED)
            .expect("pinned arms fit their heaps");
    let clock = ctx.heap.clock();
    let stats = ctx.heap.stats();
    let charges = clock.tracer().charge_counts();
    let mut row = [0u64; 17];
    for (i, &cat) in Category::ALL.iter().enumerate() {
        row[i] = clock.category_ns(cat);
        row[11 + i] = charges[i];
    }
    row[5] = stats.minor_count;
    row[6] = stats.major_count;
    row[7] = ctx.superstep();
    row[8] = stats.objects_promoted_h2;
    row[9] = ctx.offloads;
    row[10] = ctx.reloads;
    row[16] = checksum.to_bits();
    row
}

/// The golden table, one row per workload x mode in [`GiraphWorkload::ALL`]
/// x [`MODES`] order, each row in [`Row`] order.
#[rustfmt::skip]
const ARMS: [Row; 20] = [
    [697478, 0, 0, 238457, 0, 8, 0, 5, 0, 0, 0, 224784, 0, 0, 16, 0, 4654311885213007872], // PR InMemory
    [1222794, 955289, 4203392, 453903, 65546, 19, 1, 5, 0, 51, 31, 259538, 63, 63, 38, 4, 4654311885213007872], // PR Ooc
    [3988354, 0, 0, 89540, 950347, 3, 6, 5, 1520, 0, 0, 182154, 0, 0, 9, 29, 4654311885213007872], // PR TeraHeap
    [5590816, 0, 0, 89540, 973765, 3, 6, 5, 1521, 0, 0, 151641, 0, 0, 9, 29, 4654311885213007872], // PR TeraHeapNoHint
    [696622, 0, 0, 238457, 0, 8, 0, 5, 0, 0, 0, 224356, 0, 0, 16, 0, 4678255949931085824], // CDLP InMemory
    [1221938, 955289, 4203392, 453903, 65546, 19, 1, 5, 0, 51, 31, 259110, 63, 63, 38, 4, 4678255949931085824], // CDLP Ooc
    [3987498, 0, 0, 89540, 950347, 3, 6, 5, 1520, 0, 0, 181726, 0, 0, 9, 29, 4678255949931085824], // CDLP TeraHeap
    [5589960, 0, 0, 89540, 973765, 3, 6, 5, 1521, 0, 0, 151213, 0, 0, 9, 29, 4678255949931085824], // CDLP TeraHeapNoHint
    [543463, 0, 0, 79420, 0, 2, 0, 5, 0, 0, 0, 236770, 0, 0, 4, 0, 4677102149916688384], // WCC InMemory
    [585719, 84308, 1407504, 100749, 0, 3, 0, 5, 0, 16, 12, 236842, 28, 28, 6, 0, 4677102149916688384], // WCC Ooc
    [2368335, 0, 0, 103256, 330860, 4, 2, 5, 1508, 0, 0, 208440, 0, 0, 12, 9, 4677102149916688384], // WCC TeraHeap
    [2658242, 0, 0, 103256, 339661, 4, 2, 5, 1510, 0, 0, 194939, 0, 0, 12, 9, 4677102149916688384], // WCC TeraHeapNoHint
    [136728, 0, 0, 77902, 0, 2, 0, 5, 0, 0, 0, 58599, 0, 0, 4, 0, 4937400944993239040], // BFS InMemory
    [291136, 252936, 2173308, 269818, 0, 7, 0, 5, 0, 24, 20, 81251, 36, 36, 14, 0, 4937400944993239040], // BFS Ooc
    [2179302, 0, 0, 101738, 329330, 4, 2, 5, 1508, 0, 0, 59110, 0, 0, 12, 9, 4937400944993239040], // BFS TeraHeap
    [2457389, 0, 0, 101738, 332267, 4, 2, 5, 1509, 0, 0, 58712, 0, 0, 12, 9, 4937400944993239040], // BFS TeraHeapNoHint
    [136728, 0, 0, 77902, 0, 2, 0, 5, 0, 0, 0, 58599, 0, 0, 4, 0, 4937400944993239040], // SSSP InMemory
    [291136, 252936, 2173308, 269818, 0, 7, 0, 5, 0, 24, 20, 81251, 36, 36, 14, 0, 4937400944993239040], // SSSP Ooc
    [2179302, 0, 0, 101738, 329330, 4, 2, 5, 1508, 0, 0, 59110, 0, 0, 12, 9, 4937400944993239040], // SSSP TeraHeap
    [2457389, 0, 0, 101738, 332267, 4, 2, 5, 1509, 0, 0, 58712, 0, 0, 12, 9, 4937400944993239040], // SSSP TeraHeapNoHint
];

#[test]
fn every_arm_matches_its_golden_row() {
    let print = std::env::var("TERAHEAP_GOLDEN_PRINT").is_ok();
    let arms = GiraphWorkload::ALL.iter().flat_map(|&w| MODES.iter().map(move |&m| (w, m)));
    for ((workload, mode), golden) in arms.zip(&ARMS) {
        let got = capture(workload, mode);
        if print {
            println!("    {got:?}, // {} {mode:?}", workload.name());
            continue;
        }
        assert_eq!(&got, golden, "{} under {mode:?} diverged from its golden", workload.name());
    }
}

/// The table is only a pin if every arm exercises what it names: all arms
/// collect, the OOC arms offload and reload, both TeraHeap arms promote.
#[test]
fn arms_exercise_their_mechanisms() {
    for (i, row) in ARMS.iter().enumerate() {
        let mode = MODES[i % MODES.len()];
        assert!(row[5] > 0, "arm {i} ({mode:?}) never ran a minor GC");
        assert!(row[7] > 1, "arm {i} ({mode:?}) ran one superstep");
        match mode {
            Mode::InMemory => assert_eq!((row[8], row[9], row[10]), (0, 0, 0)),
            Mode::Ooc => assert!(row[9] > 0 && row[10] > 0, "arm {i}: OOC must offload and reload"),
            Mode::TeraHeap | Mode::TeraHeapNoHint => {
                assert!(row[6] > 0 && row[8] > 0, "arm {i} ({mode:?}) must promote to H2");
            }
        }
    }
}
