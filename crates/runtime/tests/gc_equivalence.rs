//! Golden-equivalence suite: work on the GC and H2 hot paths must not
//! change *simulated* behaviour by a single nanosecond. One table-driven
//! test runs a mixed minor/major/H2 workload over the collector's
//! configuration product — variant x `gc_threads` x pause budget x armed
//! fault plane, see [`ARMS`] — and asserts the object-graph checksum, the
//! `GcStats` counters and phase breakdowns, and the `SimClock` totals of
//! every arm against golden values.
//!
//! If a change legitimately alters the cost model (new feature, new
//! charge), re-capture the table with
//! `TERAHEAP_GOLDEN_PRINT=1 cargo test -p teraheap-runtime --test gc_equivalence -- --nocapture`
//! and say so in the PR; an *optimization* or *refactoring* PR must
//! reproduce it exactly.

use teraheap_core::{H2Config, Label};
use teraheap_runtime::{GcVariant, Handle, Heap, HeapConfig};
use teraheap_storage::{Category, DeviceSpec, FaultPlan, SharedDevice};

/// FNV-1a over a stream of u64s — deterministic, dependency-free.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn push(&mut self, v: u64) {
        let mut h = self.0;
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }
}

/// Checksums the reachable object graph through the public mutator API in
/// deterministic (depth-first, field-order) order: class ids, array
/// lengths, primitive payloads, H2-residency of every visited object, and
/// the shape of the reference graph (via a visit-order numbering).
fn graph_checksum(heap: &mut Heap, roots: &[Handle]) -> u64 {
    use std::collections::HashMap;
    let mut fnv = Fnv::new();
    let mut order: HashMap<u64, u64> = HashMap::new();
    let mut stack: Vec<Handle> = Vec::new();
    for &r in roots.iter().rev() {
        stack.push(heap.dup(r));
    }
    while let Some(h) = stack.pop() {
        let addr = heap.handle_addr(h).raw();
        if let Some(&seen) = order.get(&addr) {
            fnv.push(u64::MAX); // back-reference marker
            fnv.push(seen);
            heap.release(h);
            continue;
        }
        let n = order.len() as u64;
        order.insert(addr, n);
        let class = heap.class_of(h);
        fnv.push(class.0 as u64);
        fnv.push(heap.is_in_h2(h) as u64);
        fnv.push(heap.h2_label_of(h));
        if class == teraheap_runtime::OBJ_ARRAY_CLASS {
            let len = heap.array_len(h);
            fnv.push(len as u64);
            for i in (0..len).rev() {
                match heap.read_ref(h, i) {
                    Some(c) => stack.push(c),
                    None => fnv.push(0),
                }
            }
        } else if class == teraheap_runtime::PRIM_ARRAY_CLASS {
            let len = heap.array_len(h);
            fnv.push(len as u64);
            for i in 0..len {
                fnv.push(heap.read_prim(h, i));
            }
        } else {
            let desc = heap.class_desc(class).clone();
            for i in (0..desc.ref_fields).rev() {
                match heap.read_ref(h, i) {
                    Some(c) => stack.push(c),
                    None => fnv.push(0),
                }
            }
            for i in 0..desc.prim_fields {
                fnv.push(heap.read_prim(h, i));
            }
        }
        heap.release(h);
    }
    fnv.0
}

/// The mixed workload: generational churn, H1 card traffic, hint-driven H2
/// promotion, mutator H2 updates (backward references), region death, and
/// enough pressure for several minor and major collections.
fn run_mixed_workload_with(config: HeapConfig) -> (Heap, Vec<Handle>) {
    let (heap, keep, _dev) = run_mixed_workload_shared(config, FaultPlan::none());
    (heap, keep)
}

fn workload_h2_config(faults: FaultPlan) -> H2Config {
    H2Config::builder()
        .region_words(8 << 10)
        .n_regions(48)
        .card_seg_words(256)
        .resident_budget_bytes(96 << 10)
        .page_size(4096)
        .promo_buffer_bytes(16 << 10)
        .faults(faults)
        .build()
        .expect("valid H2 config")
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

fn mixed_workload_body(heap: &mut Heap) -> Vec<Handle> {
    let node = heap.register_class("Node", 2, 2);
    let leaf = heap.register_class("Leaf", 0, 3);

    let mut keep: Vec<Handle> = Vec::new();

    // Three tagged partitions that will move to H2, each a list of nodes
    // with leaf payloads and a spine array.
    for part in 0..3u64 {
        let spine = heap.alloc_ref_array(64).unwrap();
        for i in 0..64 {
            let n = heap.alloc(node).unwrap();
            let l = heap.alloc(leaf).unwrap();
            heap.write_prim(l, 0, part * 1000 + i as u64);
            heap.write_prim(l, 1, i as u64 * 3);
            heap.write_ref(n, 1, l);
            heap.write_prim(n, 0, i as u64);
            if i > 0 {
                let prev = heap.read_ref(spine, i - 1).unwrap();
                heap.write_ref(prev, 0, n);
                heap.release(prev);
            }
            heap.write_ref(spine, i, n);
            heap.release(n);
            heap.release(l);
        }
        heap.h2_tag_root(spine, Label::new(part + 1));
        keep.push(spine);
    }

    // Generational churn with surviving islands to exercise minor GCs and
    // old→young card traffic.
    let island = heap.alloc_ref_array(32).unwrap();
    keep.push(island);
    for round in 0..6u64 {
        for i in 0..400u64 {
            let t = heap.alloc(leaf).unwrap();
            heap.write_prim(t, 0, round * 10_000 + i);
            if i % 13 == 0 {
                heap.write_ref(island, (i % 32) as usize, t);
            }
            heap.release(t);
        }
        heap.gc_minor().unwrap();
    }

    // Move partitions 1 and 2 to H2; partition 3 stays (its hint never
    // arrives) so the pressure path is exercised too.
    heap.h2_move(Label::new(1));
    heap.h2_move(Label::new(2));
    heap.gc_major().unwrap();

    // Mutator updates against H2-resident nodes: create backward (H2→H1)
    // references, dirtying H2 cards for the next minor scans.
    for &spine in &keep[..2] {
        for i in (0..64).step_by(7) {
            let n = heap.read_ref(spine, i).unwrap();
            let fresh = heap.alloc(leaf).unwrap();
            heap.write_prim(fresh, 0, 777_000 + i as u64);
            heap.write_ref(n, 1, fresh);
            heap.release(fresh);
            heap.release(n);
        }
        heap.gc_minor().unwrap();
    }

    // Drop partition 2 entirely: its regions die and are swept by the next
    // major GC.
    let dead = keep.remove(1);
    heap.release(dead);
    heap.gc_major().unwrap();

    // Final churn + minor so post-major card state is exercised.
    for i in 0..200u64 {
        let t = heap.alloc(leaf).unwrap();
        heap.write_prim(t, 0, 999_000 + i);
        if i % 9 == 0 {
            heap.write_ref(island, (i % 32) as usize, t);
        }
        heap.release(t);
    }
    heap.gc_minor().unwrap();

    keep
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Snapshot {
    checksum: u64,
    total_ns: u64,
    mutator_ns: u64,
    minor_gc_ns: u64,
    major_gc_ns: u64,
    minor_count: u64,
    major_count: u64,
    marking_ns: u64,
    precompact_ns: u64,
    adjust_ns: u64,
    compact_ns: u64,
    h2_minor_scan_ns: u64,
    backward_refs_seen: u64,
    forward_refs_fenced: u64,
    objects_promoted_h2: u64,
    h2_page_faults: u64,
    h2_read_bytes: u64,
    h2_write_bytes: u64,
    h2_evictions: u64,
    incr_slices: u64,
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
    let checksum = graph_checksum(&mut heap, &keep);
    Snapshot {
        checksum,
        total_ns,
        mutator_ns,
        minor_gc_ns,
        major_gc_ns,
        minor_count: stats.minor_count,
        major_count: stats.major_count,
        marking_ns: stats.phases.marking_ns,
        precompact_ns: stats.phases.precompact_ns,
        adjust_ns: stats.phases.adjust_ns,
        compact_ns: stats.phases.compact_ns,
        h2_minor_scan_ns: stats.h2_minor_scan_ns,
        backward_refs_seen: stats.backward_refs_seen,
        forward_refs_fenced: stats.forward_refs_fenced,
        objects_promoted_h2: stats.objects_promoted_h2,
        h2_page_faults: io.0,
        h2_read_bytes: io.1,
        h2_write_bytes: io.2,
        h2_evictions: io.3,
        incr_slices: stats.incr_slices,
    }
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
    golden: Snapshot,
}

impl Arm {
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

const fn arm(
    variant: Variant,
    gc_threads: usize,
    pause_budget_ns: u64,
    fault_plane: bool,
    g: [u64; 20],
) -> Arm {
    let golden = Snapshot {
        checksum: g[0],
        total_ns: g[1],
        mutator_ns: g[2],
        minor_gc_ns: g[3],
        major_gc_ns: g[4],
        minor_count: g[5],
        major_count: g[6],
        marking_ns: g[7],
        precompact_ns: g[8],
        adjust_ns: g[9],
        compact_ns: g[10],
        h2_minor_scan_ns: g[11],
        backward_refs_seen: g[12],
        forward_refs_fenced: g[13],
        objects_promoted_h2: g[14],
        h2_page_faults: g[15],
        h2_read_bytes: g[16],
        h2_write_bytes: g[17],
        h2_evictions: g[18],
        incr_slices: g[19],
    };
    Arm { variant, gc_threads, pause_budget_ns, fault_plane, golden }
}

/// The golden table: variant x `gc_threads` x pause budget x fault plane,
/// each row's numbers in [`Snapshot`] field order. The first row is the
/// default configuration — the values every other golden in the repo
/// (`crates/query/tests/gc_equivalence.rs`) repeats.
#[rustfmt::skip]
const ARMS: &[Arm] = &[
    arm(Variant::Ps, 1, 0, false, [17052372585936982735, 351855, 197628, 81493, 72734, 9, 2, 22524, 7200, 4180, 38830, 48432, 50, 0, 258, 2, 8192, 0, 0, 0]),
    arm(Variant::Ps, 1, 0, true, [17052372585936982735, 351855, 197628, 81493, 72734, 9, 2, 22524, 7200, 4180, 38830, 48432, 50, 0, 258, 2, 8192, 0, 0, 0]),
    arm(Variant::Ps, 1, 50000, false, [17052372585936982735, 518221, 197628, 66893, 253700, 9, 11, 109194, 43644, 4380, 96482, 46112, 80, 0, 258, 2, 8192, 0, 0, 9]),
    arm(Variant::Ps, 1, 50000, true, [17052372585936982735, 518221, 197628, 66893, 253700, 9, 11, 109194, 43644, 4380, 96482, 46112, 80, 0, 258, 2, 8192, 0, 0, 9]),
    arm(Variant::Ps, 1, 5000, false, [17052372585936982735, 512507, 197818, 64127, 250562, 9, 8, 103458, 48732, 200, 98172, 45892, 70, 0, 258, 2, 8192, 0, 0, 48]),
    arm(Variant::Ps, 1, 5000, true, [17052372585936982735, 512507, 197818, 64127, 250562, 9, 8, 103458, 48732, 200, 98172, 45892, 70, 0, 258, 2, 8192, 0, 0, 48]),
    arm(Variant::Ps, 4, 0, false, [17052372585936982735, 300259, 197628, 46368, 56263, 9, 2, 9978, 5418, 3645, 37222, 29891, 50, 0, 258, 2, 8192, 0, 0, 0]),
    arm(Variant::Ps, 4, 0, true, [17052372585936982735, 300259, 197628, 46368, 56263, 9, 2, 9978, 5418, 3645, 37222, 29891, 50, 0, 258, 2, 8192, 0, 0, 0]),
    arm(Variant::Ps, 4, 50000, false, [17052372585936982735, 374562, 197628, 41388, 135546, 9, 11, 40227, 30801, 4070, 60448, 28323, 80, 0, 258, 2, 8192, 0, 0, 9]),
    arm(Variant::Ps, 4, 50000, true, [17052372585936982735, 374562, 197628, 41388, 135546, 9, 11, 40227, 30801, 4070, 60448, 28323, 80, 0, 258, 2, 8192, 0, 0, 9]),
    arm(Variant::Ps, 4, 5000, false, [17052372585936982735, 392398, 197728, 39931, 154739, 9, 8, 52380, 40890, 725, 60744, 28323, 70, 0, 258, 2, 8192, 0, 0, 37]),
    arm(Variant::Ps, 4, 5000, true, [17052372585936982735, 392398, 197728, 39931, 154739, 9, 8, 52380, 40890, 725, 60744, 28323, 70, 0, 258, 2, 8192, 0, 0, 37]),
    arm(Variant::G1, 1, 0, false, [17052372585936982735, 326627, 197628, 80263, 48736, 9, 2, 5631, 7200, 600, 35305, 48432, 50, 0, 258, 2, 8192, 0, 0, 0]),
    arm(Variant::G1, 1, 0, true, [17052372585936982735, 326627, 197628, 80263, 48736, 9, 2, 5631, 7200, 600, 35305, 48432, 50, 0, 258, 2, 8192, 0, 0, 0]),
    arm(Variant::G1, 4, 0, false, [17052372585936982735, 285390, 197628, 45138, 42624, 9, 2, 2607, 5418, 642, 33957, 29891, 50, 0, 258, 2, 8192, 0, 0, 0]),
    arm(Variant::G1, 4, 0, true, [17052372585936982735, 285390, 197628, 45138, 42624, 9, 2, 2607, 5418, 642, 33957, 29891, 50, 0, 258, 2, 8192, 0, 0, 0]),
    arm(Variant::Panthera, 1, 0, false, [17052372585936982735, 422969, 197628, 130370, 94971, 9, 2, 35844, 7200, 13097, 38830, 48432, 50, 0, 258, 2, 8192, 0, 0, 0]),
    arm(Variant::Panthera, 1, 0, true, [17052372585936982735, 422969, 197628, 130370, 94971, 9, 2, 35844, 7200, 13097, 38830, 48432, 50, 0, 258, 2, 8192, 0, 0, 0]),
    arm(Variant::Panthera, 4, 0, false, [17052372585936982735, 327430, 197628, 66496, 63306, 9, 2, 12803, 5418, 7863, 37222, 29891, 50, 0, 258, 2, 8192, 0, 0, 0]),
    arm(Variant::Panthera, 4, 0, true, [17052372585936982735, 327430, 197628, 66496, 63306, 9, 2, 12803, 5418, 7863, 37222, 29891, 50, 0, 258, 2, 8192, 0, 0, 0]),
];

/// The default-configuration golden (first table row).
fn golden() -> Snapshot {
    let first = &ARMS[0];
    assert!(
        first.variant == Variant::Ps
            && first.gc_threads == 1
            && first.pause_budget_ns == 0
            && !first.fault_plane
    );
    first.golden
}

#[test]
fn every_arm_matches_its_golden_snapshot() {
    let print = std::env::var("TERAHEAP_GOLDEN_PRINT").is_ok();
    for a in ARMS {
        let got = a.capture(false);
        if print {
            let s = got;
            println!(
                "    arm(Variant::{:?}, {}, {}, {}, [{}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}]),",
                a.variant, a.gc_threads, a.pause_budget_ns, a.fault_plane,
                s.checksum, s.total_ns, s.mutator_ns, s.minor_gc_ns, s.major_gc_ns,
                s.minor_count, s.major_count, s.marking_ns, s.precompact_ns, s.adjust_ns,
                s.compact_ns, s.h2_minor_scan_ns, s.backward_refs_seen, s.forward_refs_fenced,
                s.objects_promoted_h2, s.h2_page_faults, s.h2_read_bytes, s.h2_write_bytes,
                s.h2_evictions, s.incr_slices,
            );
            continue;
        }
        assert_eq!(got, a.golden, "arm {a:?} diverged from its golden");
        assert_eq!(
            got.incr_slices > 0,
            a.pause_budget_ns != 0,
            "arm {a:?}: a sliced arm must slice and a stop-world arm must not"
        );
        // The heap checker and the scheduler's coverage audit it arms are
        // instrumentation: exercising them on every arm must cost nothing.
        assert_eq!(a.capture(true), a.golden, "arm {a:?} diverged with the checker armed");
    }
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
    assert_eq!(capture_from(heap, keep), golden());
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
    for a in ARMS {
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
