//! Golden-equivalence suite: work on the GC and H2 hot paths must not
//! change *simulated* behaviour by a single nanosecond. One table-driven
//! test runs a mixed minor/major/H2 workload over the collector's
//! configuration product — variant x `gc_threads` x pause budget x armed
//! fault plane, see [`arms`] — and checks the object-graph checksum, the
//! `GcStats` counters and phase breakdowns, and the `SimClock` totals of
//! every arm against its row of `tests/golden/gc_equivalence.txt`
//! (`teraheap_util::golden`).
//!
//! If a change legitimately alters the cost model (new feature, new
//! charge), re-pin with `scripts/repin.sh` and say so in the PR; an
//! *optimization* or *refactoring* PR must reproduce the file exactly.

mod common;

use common::{
    column, graph_checksum, mixed_workload_body, workload_h2_config, COLUMNS, DEFAULT_ARM,
};
use teraheap_runtime::{GcVariant, Handle, Heap, HeapConfig};
use teraheap_storage::{Category, DeviceSpec, FaultPlan, SharedDevice};
use teraheap_util::golden::Golden;

/// One captured run, in [`COLUMNS`] order.
type Snapshot = [u64; COLUMNS.len()];

fn golden() -> Golden {
    Golden::open(env!("CARGO_MANIFEST_DIR"), "gc_equivalence", &COLUMNS)
}

/// The mixed workload on a heap of `config`, no fault plane.
fn run_mixed_workload_with(config: HeapConfig) -> (Heap, Vec<Handle>) {
    let (heap, keep, _dev) = run_mixed_workload_shared(config, FaultPlan::none());
    (heap, keep)
}

/// The workload attached to a one-tenant [`SharedDevice`], returning the
/// device handle so tests can inspect arbitration counters.
fn run_mixed_workload_shared(
    config: HeapConfig,
    faults: FaultPlan,
) -> (Heap, Vec<Handle>, SharedDevice) {
    let mut heap = Heap::new(config);
    let h2cfg = workload_h2_config(faults);
    let dev =
        SharedDevice::new(DeviceSpec::nvme_ssd(), h2cfg.footprint_bytes(), heap.clock().clone());
    heap.attach_h2(h2cfg, &dev).unwrap();
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
        ("objects_promoted_h2", stats.objects_promoted_h2),
        ("h2_page_faults", io.0),
        ("h2_read_bytes", io.1),
        ("h2_write_bytes", io.2),
        ("h2_evictions", io.3),
        ("incr_slices", stats.incr_slices),
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

/// One arm of the configuration product.
#[derive(Debug, Clone, Copy)]
struct Arm {
    variant: Variant,
    gc_threads: usize,
    /// `0` = stop-world majors; a finite budget slices them. Sliced arms run
    /// a 40 Ki-word old generation, below the proactive trigger's
    /// `2 * young` free-space margin, so every minor GC starts a cycle.
    pause_budget_ns: u64,
    /// Arms a zero-rate fault plane: nothing ever fires, but H2 address
    /// assignment runs as the snapshot/stage/commit transaction.
    fault_plane: bool,
}

impl Arm {
    /// The arm's name in the golden file.
    fn name(&self) -> String {
        let Arm { variant, gc_threads, pause_budget_ns, fault_plane } = self;
        let plane = if *fault_plane { "-faultplane" } else { "" };
        format!("{variant:?}-t{gc_threads}-b{pause_budget_ns}{plane}")
    }

    fn config(&self, heap_check: bool) -> HeapConfig {
        let old_words = if self.pause_budget_ns == 0 { 96 << 10 } else { 40 << 10 };
        let variant = match self.variant {
            Variant::Ps => GcVariant::ParallelScavenge,
            Variant::G1 => GcVariant::G1 { region_words: 128 },
            Variant::Panthera => {
                GcVariant::Panthera { old_dram_words: 1 << 10, nvm: DeviceSpec::optane_nvm() }
            }
        };
        HeapConfig::builder(24 << 10, old_words)
            .variant(variant)
            .gc_threads(self.gc_threads)
            .pause_budget_ns(self.pause_budget_ns)
            .heap_check(heap_check)
            .build()
            .expect("golden arm config is valid")
    }

    fn capture(&self, heap_check: bool) -> Snapshot {
        let faults =
            if self.fault_plane { FaultPlan::zero_rate(20260927) } else { FaultPlan::none() };
        let (heap, keep, _dev) = run_mixed_workload_shared(self.config(heap_check), faults);
        assert_eq!(heap.h2().unwrap().fault_plane().is_some(), self.fault_plane);
        capture_from(heap, keep)
    }
}

/// The configuration product: variant x `gc_threads` x pause budget x fault
/// plane (only Parallel Scavenge slices). The first arm is the default
/// configuration, [`DEFAULT_ARM`] — the row
/// `crates/query/tests/gc_equivalence.rs` reads too.
fn arms() -> Vec<Arm> {
    let mut arms = Vec::new();
    let budgets = |variant| if variant == Variant::Ps { &[0, 50_000, 5_000][..] } else { &[0] };
    for variant in [Variant::Ps, Variant::G1, Variant::Panthera] {
        for gc_threads in [1, 4] {
            for &pause_budget_ns in budgets(variant) {
                for fault_plane in [false, true] {
                    arms.push(Arm { variant, gc_threads, pause_budget_ns, fault_plane });
                }
            }
        }
    }
    assert_eq!(arms[0].name(), DEFAULT_ARM);
    arms
}

#[test]
fn every_arm_matches_its_golden_snapshot() {
    let mut golden = golden();
    for a in arms() {
        let got = a.capture(false);
        golden.check(&a.name(), Some(&got));
        assert_eq!(
            got[column("incr_slices")] > 0,
            a.pause_budget_ns != 0,
            "arm {a:?}: a sliced arm must slice and a stop-world arm must not"
        );
        // The heap checker and the scheduler's coverage audit it arms are
        // instrumentation: exercising them on every arm must cost nothing.
        assert_eq!(a.capture(true), got, "arm {a:?} diverged with the checker armed");
    }
    golden.finish();
}

/// `pause_budget_ns = u64::MAX` *arms* incremental mode but the proactive
/// trigger never starts a cycle (an infinite budget means a demand major
/// can always run whole), so every demand collection runs as one unbounded
/// slice and the armed configuration must reproduce the unarmed golden
/// bit-identically — the armed-idle write barrier and slice plumbing cost
/// nothing in the simulated clock.
fn armed_idle_config() -> HeapConfig {
    HeapConfig::builder(24 << 10, 96 << 10)
        .pause_budget_ns(u64::MAX)
        .build()
        .expect("armed-idle config is valid")
}

#[test]
fn armed_infinite_budget_matches_golden() {
    let (heap, keep) = run_mixed_workload_with(armed_idle_config());
    let got = capture_from(heap, keep);
    let golden = golden();
    let want = golden.row(DEFAULT_ARM).expect("the default arm completes");
    for ((column, got), want) in COLUMNS.iter().zip(got).zip(want) {
        assert_eq!(got, *want, "{column}: the armed-idle run against {DEFAULT_ARM}'s pin");
    }
}

#[test]
fn armed_infinite_budget_never_slices() {
    let (heap, _keep) = run_mixed_workload_with(armed_idle_config());
    assert_eq!(heap.stats().incr_slices, 0, "no slice may run at infinite budget");
    assert_eq!(
        heap.stats().write_barrier_remembered,
        0,
        "the SATB barrier must stay passive while no cycle is in flight"
    );
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
    let (mut heap, _keep) = run_mixed_workload_with(HeapConfig::with_words(24 << 10, 96 << 10));
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

/// A sole tenant at full weight must never queue: with one tenant the
/// virtual-time fair queue degenerates to FIFO against an idle device, so
/// every submission starts at its arrival (`wait = 0` for all ops) even
/// though real service time flows through the arbiter — the arbitration
/// layer a sole tenant passes through costs zero simulated ns, which is why
/// the goldens above (all attached through `attach_h2`) predate it.
#[test]
fn sole_tenant_arbitration_is_queueless() {
    let (heap, _keep, dev) =
        run_mixed_workload_shared(HeapConfig::with_words(24 << 10, 96 << 10), FaultPlan::none());
    let id = dev.tenant_of(heap.clock()).expect("heap's clock is registered");
    let io = dev.tenant_io(id).expect("registered tenant has counters");
    assert_eq!(io.queued_ns, 0, "a sole tenant must never wait");
    assert_eq!(io.queued_ops, 0);
    assert!(io.ops > 0, "the workload must exercise the device");
    assert!(io.busy_ns > 0, "arbitrated ops must carry real service time");
    // At weight 1000 the sole tenant's finish tag tracks the device's
    // virtual time exactly — the property that makes every wait zero.
    assert_eq!(dev.finish_tag_ns(id), Some(dev.device_vtime_ns()));
    assert!(dev.device_vtime_ns() >= io.busy_ns, "virtual time covers all service");
}
