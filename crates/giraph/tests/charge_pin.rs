//! Charge pin for mini-giraph: host-side work on the superstep loop, the
//! message stores or the OOC blob path must not move a simulated number.
//! One table-driven test runs the five workloads under in-memory, Giraph-OOC
//! and TeraHeap (with and without the `h2_move` hint) at test scale and
//! compares per-category simulated ns, GC counts, supersteps, H2 promotions,
//! OOC offloads/reloads, `SimClock::charge` call counts per category and the
//! answer checksum against the rows of `tests/golden/charge_pin.txt`
//! (`teraheap_util::golden`).
//!
//! If a change legitimately alters the cost model, re-pin with
//! `scripts/repin.sh` and say so in the PR; an optimization or refactoring PR
//! must reproduce the file exactly.

use mini_giraph::workloads::run_giraph_with_context;
use mini_giraph::{GiraphConfig, GiraphMode, GiraphWorkload};
use teraheap_core::H2Config;
use teraheap_runtime::obs::Level;
use teraheap_runtime::HeapConfig;
use teraheap_storage::{Category, DeviceSpec};
use teraheap_util::golden::Golden;

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
    // Charge-call counts are kept only with the recorder on, whatever
    // TERAHEAP_OBS says.
    cfg.heap.obs_level = Some(Level::Full);
    cfg.partitions = 4;
    cfg.max_supersteps = 5;
    cfg.use_move_hint = mode != Mode::TeraHeapNoHint;
    cfg
}

/// One arm's numbers: per-category ns and charge calls in [`Category::ALL`]
/// order, the answer checksum as `f64` bits.
#[rustfmt::skip]
const COLUMNS: [&str; 17] = [
    "mutator_ns", "serde_ns", "io_ns", "minor_gc_ns", "major_gc_ns",
    "minor_count", "major_count", "supersteps", "objects_promoted_h2", "offloads", "reloads",
    "mutator_charges", "serde_charges", "io_charges", "minor_gc_charges", "major_gc_charges",
    "checksum_bits",
];

type Row = [u64; COLUMNS.len()];

fn capture(workload: GiraphWorkload, mode: Mode) -> Row {
    let (ctx, checksum) =
        run_giraph_with_context(workload, config(mode), VERTICES, AVG_DEGREE, SEED)
            .expect("pinned arms fit their heaps");
    let clock = ctx.heap.clock();
    let stats = ctx.heap.stats();
    let charges = clock.tracer().charge_counts();
    let mut row = [0u64; COLUMNS.len()];
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

/// Every arm, named as in the golden file: [`GiraphWorkload::ALL`] x
/// [`MODES`].
fn arms() -> impl Iterator<Item = (String, GiraphWorkload, Mode)> {
    GiraphWorkload::ALL
        .iter()
        .flat_map(|&w| MODES.iter().map(move |&m| (format!("{}-{m:?}", w.name()), w, m)))
}

fn golden() -> Golden {
    Golden::open(env!("CARGO_MANIFEST_DIR"), "charge_pin", &COLUMNS)
}

#[test]
fn every_arm_matches_its_golden_row() {
    let mut golden = golden();
    for (arm, workload, mode) in arms() {
        golden.check(&arm, Some(&capture(workload, mode)));
    }
    golden.finish();
}

/// The table is only a pin if every arm exercises what it names: all arms
/// collect, the OOC arms offload and reload, both TeraHeap arms promote.
#[test]
fn arms_exercise_their_mechanisms() {
    let golden = golden();
    for (arm, _, mode) in arms() {
        let row = golden.row(&arm).expect("every arm fits its heap");
        assert!(row[5] > 0, "{arm} never ran a minor GC");
        assert!(row[7] > 1, "{arm} ran one superstep");
        match mode {
            Mode::InMemory => assert_eq!((row[8], row[9], row[10]), (0, 0, 0)),
            Mode::Ooc => assert!(row[9] > 0 && row[10] > 0, "{arm}: OOC must offload and reload"),
            Mode::TeraHeap | Mode::TeraHeapNoHint => {
                assert!(row[6] > 0 && row[8] > 0, "{arm} must promote to H2");
            }
        }
    }
}
