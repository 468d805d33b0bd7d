//! Golden-equivalence suite: work on the GC and H2 hot paths must not
//! change *simulated* behaviour by a single nanosecond. One table-driven
//! test runs a mixed minor/major/H2 workload over the collector's
//! configuration product — variant x `gc_threads` x armed fault plane,
//! plus two H2 geometries and NVM Memory mode, see [`arms`] — and checks the
//! object-graph checksum, the `GcStats` counters and phase breakdowns, and
//! the `SimClock` totals of every arm against its row of
//! `tests/golden/gc_equivalence.txt` (`teraheap_util::golden`).
//!
//! If a change legitimately alters the cost model (new feature, new
//! charge), re-pin with `scripts/repin.sh` and say so in the PR; an
//! *optimization* or *refactoring* PR must reproduce the file exactly.

mod common;

use common::{
    attach_h2_config, column, graph_checksum, mixed_workload_body, workload_h2_config, COLUMNS,
    DEFAULT_ARM,
};
use teraheap_core::H2Config;
use teraheap_runtime::{GcVariant, Handle, Heap, HeapConfig};
use teraheap_storage::{Category, DeviceSpec, FaultPlan, SharedDevice};
use teraheap_util::golden::Golden;

/// One captured run, in [`COLUMNS`] order.
type Snapshot = [u64; COLUMNS.len()];

fn golden() -> Golden {
    Golden::open(env!("CARGO_MANIFEST_DIR"), "gc_equivalence", &COLUMNS)
}

/// The workload attached to a one-tenant [`SharedDevice`] in `geometry`,
/// returning the device handle so tests can inspect arbitration counters.
fn run_mixed_workload_shared(
    config: HeapConfig,
    geometry: Geometry,
    faults: FaultPlan,
) -> (Heap, Vec<Handle>, SharedDevice) {
    let mut heap = Heap::new(config);
    let mut h2cfg = workload_h2_config(faults);
    let mut spec = DeviceSpec::nvme_ssd();
    match geometry {
        Geometry::Workload => {}
        Geometry::PaperCard => h2cfg.card_seg_words = H2Config::default().card_seg_words,
        Geometry::Dax => spec = DeviceSpec::optane_nvm(),
    }
    let dev = attach_h2_config(&mut heap, spec, h2cfg);
    let keep = mixed_workload_body(&mut heap);
    (heap, keep, dev)
}

fn capture_from(mut heap: Heap, keep: Vec<Handle>) -> Snapshot {
    // Clock and stats first: the checksum traversal itself charges time.
    let total_ns = heap.clock().total_ns();
    let mutator_ns = heap.clock().category_ns(Category::Mutator);
    let minor_gc_ns = heap.clock().category_ns(Category::MinorGc);
    let major_gc_ns = heap.clock().category_ns(Category::MajorGc);
    let stats = heap.stats().clone();
    let io = {
        let m = heap.h2().unwrap().mmap().stats();
        (m.page_faults(), m.read_bytes(), m.write_bytes(), m.evictions())
    };
    let snapshot = [
        ("checksum", graph_checksum(&mut heap, &keep)),
        ("total_ns", total_ns),
        ("mutator_ns", mutator_ns),
        ("minor_gc_ns", minor_gc_ns),
        ("major_gc_ns", major_gc_ns),
        ("minor_count", stats.minor_count),
        ("major_count", stats.major_count),
        ("marking_ns", stats.phases.marking_ns),
        ("precompact_ns", stats.phases.precompact_ns),
        ("adjust_ns", stats.phases.adjust_ns),
        ("compact_ns", stats.phases.compact_ns),
        ("h2_minor_scan_ns", stats.h2_minor_scan_ns),
        ("backward_refs_seen", stats.backward_refs_seen),
        ("forward_refs_fenced", stats.forward_refs_fenced),
        ("objects_promoted_h2", heap.h2().unwrap().objects_promoted()),
        ("h2_page_faults", io.0),
        ("h2_read_bytes", io.1),
        ("h2_write_bytes", io.2),
        ("h2_evictions", io.3),
        // No major cycle is sliced: the column keeps the pinned rows' shape.
        ("incr_slices", 0),
    ];
    assert!(snapshot.iter().map(|(name, _)| name).eq(&COLUMNS), "captured in COLUMNS order");
    snapshot.map(|(_, value)| value)
}

/// The collector personalities the table covers. G1 regions are small
/// enough that the workload's spine arrays are humongous (footprint
/// rounding, mixed-collection fraction); Panthera's DRAM share is small
/// enough that most of the old generation pays the NVM premium.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    Ps,
    G1,
    Panthera,
}

/// The H2 under the workload. The workload's own has 256-word (2 KiB) cards
/// on 4 KiB NVMe pages, so no card spans two pages; every figure runs the
/// paper's 8 KB card, which does, and on a DAX device (Optane, byte
/// addressable) a card's bulk read has no page to stop at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Geometry {
    Workload,
    PaperCard,
    Dax,
}

/// One arm of the configuration product.
#[derive(Debug, Clone, Copy)]
struct Arm {
    variant: Variant,
    gc_threads: usize,
    /// Arms a zero-rate fault plane: nothing ever fires, so the arm must
    /// match its plane-free twin while every fault hook runs (the page
    /// cache's spike and retry rolls, H2's promotion-flush roll).
    fault_plane: bool,
    geometry: Geometry,
    /// Runs the whole heap in NVM Memory mode (the paper's Spark-MO
    /// baseline): every H1 word pays the amortized miss premium.
    memory_mode: bool,
}

impl Arm {
    /// The arm's name in the golden file. `-b0` is the zero pause budget
    /// (stop-world majors) the rows were pinned under.
    fn name(&self) -> String {
        let Arm { variant, gc_threads, fault_plane, geometry, memory_mode } = self;
        let plane = if *fault_plane { "-faultplane" } else { "" };
        let mode = if *memory_mode { "-memorymode" } else { "" };
        let geometry = match geometry {
            Geometry::Workload => "",
            Geometry::PaperCard => "-card8k",
            Geometry::Dax => "-dax",
        };
        format!("{variant:?}-t{gc_threads}-b0{plane}{geometry}{mode}")
    }

    fn config(&self, heap_check: bool) -> HeapConfig {
        let variant = match self.variant {
            Variant::Ps => GcVariant::ParallelScavenge,
            Variant::G1 => GcVariant::G1 { region_words: 128 },
            Variant::Panthera => GcVariant::Panthera { old_dram_words: 1 << 10 },
        };
        let config = HeapConfig {
            variant,
            gc_threads: self.gc_threads,
            heap_check,
            ..HeapConfig::with_words(24 << 10, 96 << 10)
        };
        config.validate().expect("golden arm config is valid");
        HeapConfig { memory_mode: self.memory_mode, ..config }
    }

    fn capture(&self, heap_check: bool) -> Snapshot {
        let faults =
            if self.fault_plane { FaultPlan::zero_rate(20260927) } else { FaultPlan::none() };
        let (heap, keep, _dev) =
            run_mixed_workload_shared(self.config(heap_check), self.geometry, faults);
        assert_eq!(heap.h2().unwrap().fault_plane().is_some(), self.fault_plane);
        capture_from(heap, keep)
    }
}

/// The configuration product: variant x `gc_threads` x fault plane on the
/// workload's H2, then the default configuration on the other two
/// [`Geometry`]s and in Memory mode.
/// The first arm is
/// the default configuration, [`DEFAULT_ARM`] — the row
/// `crates/query/tests/gc_equivalence.rs` reads too.
fn arms() -> Vec<Arm> {
    let mut arms = Vec::new();
    for variant in [Variant::Ps, Variant::G1, Variant::Panthera] {
        for gc_threads in [1, 4] {
            for fault_plane in [false, true] {
                let (geometry, memory_mode) = (Geometry::Workload, false);
                arms.push(Arm { variant, gc_threads, fault_plane, geometry, memory_mode });
            }
        }
    }
    for geometry in [Geometry::PaperCard, Geometry::Dax] {
        arms.push(Arm { geometry, ..arms[0] });
    }
    arms.push(Arm { memory_mode: true, ..arms[0] });
    assert_eq!(arms[0].name(), DEFAULT_ARM);
    arms
}

#[test]
fn every_arm_matches_its_golden_snapshot() {
    let mut golden = golden();
    for a in arms() {
        let got = a.capture(false);
        golden.check(&a.name(), Some(&got));
        assert!(got[column("backward_refs_seen")] > 0, "arm {a:?}: no H2 card scan found a ref");
        // The heap checker and the scheduler's coverage audit it arms are
        // instrumentation: exercising them on every arm must cost nothing.
        assert_eq!(a.capture(true), got, "arm {a:?} diverged with the checker armed");
    }
    golden.finish();
}

#[test]
fn workload_is_self_deterministic() {
    // Two fresh runs in the same process must agree exactly — guards the
    // suite itself against nondeterminism (hash-order dependence, ambient
    // time or randomness), which would make the golden comparison moot.
    for a in arms() {
        assert_eq!(a.capture(false), a.capture(false), "arm {a:?} is not self-deterministic");
    }
}

#[test]
fn release_recycles_slots_under_churn() {
    // The root-table free list must keep the root set bounded under
    // long-running alloc/release churn (leaked slots would grow every root
    // scan forever).
    let config = HeapConfig::with_words(24 << 10, 96 << 10);
    let (mut heap, _keep, _dev) =
        run_mixed_workload_shared(config, Geometry::Workload, FaultPlan::none());
    let baseline = heap.root_table_len();
    let leaf = heap.register_class("ChurnLeaf", 0, 1);
    for i in 0..10_000u64 {
        let h = heap.alloc(leaf).unwrap();
        heap.write_prim(h, 0, i);
        heap.release(h);
    }
    assert!(
        heap.root_table_len() <= baseline + 1,
        "root table grew from {} to {} under pure churn",
        baseline,
        heap.root_table_len()
    );
}

/// A sole tenant must never queue: it submits each request at its own clock
/// and is charged the service right after, so every arrival finds the device
/// free (`wait = 0` for all ops) even though real service time flows through
/// the arbiter — the arbitration layer a sole tenant passes through costs
/// zero simulated ns, which is why the goldens above (all attached through
/// `attach_h2`) predate it.
#[test]
fn sole_tenant_arbitration_is_queueless() {
    let config = HeapConfig::with_words(24 << 10, 96 << 10);
    let (heap, _keep, dev) =
        run_mixed_workload_shared(config, Geometry::Workload, FaultPlan::none());
    let id = dev.tenant_of(heap.clock()).expect("heap's clock is registered");
    let io = dev.tenant_io(id).expect("registered tenant has counters");
    assert_eq!(io.queued_ns, 0, "a sole tenant must never wait");
    assert_eq!(io.queued_ops, 0);
    assert!(io.ops > 0, "the workload must exercise the device");
    assert!(io.busy_ns > 0, "arbitrated ops must carry real service time");
    assert!(dev.device_vtime_ns() >= io.busy_ns, "virtual time covers all service");
}
