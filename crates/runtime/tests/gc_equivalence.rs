//! Golden-equivalence suite: the performance work on the GC and H2 hot
//! paths (allocation-free tracing, the sorted forwarding table, indexed
//! card tables, the list page cache) must not change *simulated* behaviour
//! by a single nanosecond. This test runs a mixed minor/major/H2 workload
//! and asserts the object-graph checksum, the `GcStats` counters and phase
//! breakdowns, and the total `SimClock` time against golden values captured
//! from the pre-optimization implementation.
//!
//! If a change legitimately alters the cost model (new feature, new
//! charge), re-capture the goldens with
//! `TERAHEAP_GOLDEN_PRINT=1 cargo test -p teraheap-runtime --test gc_equivalence -- --nocapture`
//! and say so in the PR; an *optimization* PR must reproduce them exactly.

use teraheap_core::{H2Config, Label};
use teraheap_runtime::{Handle, Heap, HeapConfig};
use teraheap_storage::{Category, DeviceSpec, SharedDevice};

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
fn run_mixed_workload() -> (Heap, Vec<Handle>) {
    run_mixed_workload_with(HeapConfig::with_words(24 << 10, 96 << 10))
}

fn run_mixed_workload_with(config: HeapConfig) -> (Heap, Vec<Handle>) {
    let (heap, keep, _dev) = run_mixed_workload_shared(config);
    (heap, keep)
}

fn workload_h2_config() -> H2Config {
    H2Config::builder()
        .region_words(8 << 10)
        .n_regions(48)
        .card_seg_words(256)
        .resident_budget_bytes(96 << 10)
        .page_size(4096)
        .promo_buffer_bytes(16 << 10)
        .build()
        .expect("valid H2 config")
}

/// The same workload attached through the explicit [`SharedDevice`] path,
/// returning the device handle so tests can inspect arbitration counters.
fn run_mixed_workload_shared(config: HeapConfig) -> (Heap, Vec<Handle>, SharedDevice) {
    let mut heap = Heap::new(config);
    let h2cfg = workload_h2_config();
    let dev = SharedDevice::new(DeviceSpec::nvme_ssd(), h2cfg.footprint_bytes(), heap.clock().clone());
    heap.attach_h2(h2cfg, &dev).unwrap();
    let keep = mixed_workload_body(&mut heap);
    (heap, keep, dev)
}

/// The same workload attached through the deprecated `enable_teraheap`
/// shim — the pre-redesign API surface, which must stay bit-identical.
fn run_mixed_workload_shim(config: HeapConfig) -> (Heap, Vec<Handle>) {
    let mut heap = Heap::new(config);
    #[allow(deprecated)]
    heap.enable_teraheap(workload_h2_config(), DeviceSpec::nvme_ssd());
    let keep = mixed_workload_body(&mut heap);
    (heap, keep)
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

#[derive(Debug, PartialEq, Eq)]
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
}

fn capture() -> Snapshot {
    capture_with(HeapConfig::with_words(24 << 10, 96 << 10))
}

/// The workload at one modeled GC thread: the serial baseline whose numbers
/// predate the work-unit scheduler and must survive it bit-identically.
fn serial_config() -> HeapConfig {
    HeapConfig::builder(24 << 10, 96 << 10)
        .gc_threads(1)
        .build()
        .expect("serial config is valid")
}

fn capture_with(config: HeapConfig) -> Snapshot {
    let (heap, keep) = run_mixed_workload_with(config);
    capture_from(heap, keep)
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
    }
}

/// Golden values for the default configuration. Since the work-unit
/// scheduler unified the GC thread knobs at a serial default
/// (`gc_threads = 1`), these coincide with [`serial_golden`] — the same
/// numbers pinned through two different guarantees: this one says the
/// *default* is stable, the serial one says lane accounting at one lane is
/// exact. See the module docs for the re-capture procedure.
fn golden() -> Snapshot {
    Snapshot {
        checksum: 17052372585936982735,
        total_ns: 351855,
        mutator_ns: 197628,
        minor_gc_ns: 81493,
        major_gc_ns: 72734,
        minor_count: 9,
        major_count: 2,
        marking_ns: 22524,
        precompact_ns: 7200,
        adjust_ns: 4180,
        compact_ns: 38830,
        h2_minor_scan_ns: 48432,
        backward_refs_seen: 50,
        forward_refs_fenced: 0,
        objects_promoted_h2: 258,
        h2_page_faults: 2,
        h2_read_bytes: 8192,
        h2_write_bytes: 0,
        h2_evictions: 0,
    }
}

/// Golden values for the workload at `gc_threads = 1`, captured from the
/// pre-work-unit-scheduler serial implementation (PR 5 tree). The scheduled
/// single-lane path must reproduce these bit-identically, forever.
fn serial_golden() -> Snapshot {
    Snapshot {
        checksum: 17052372585936982735,
        total_ns: 351855,
        mutator_ns: 197628,
        minor_gc_ns: 81493,
        major_gc_ns: 72734,
        minor_count: 9,
        major_count: 2,
        marking_ns: 22524,
        precompact_ns: 7200,
        adjust_ns: 4180,
        compact_ns: 38830,
        h2_minor_scan_ns: 48432,
        backward_refs_seen: 50,
        forward_refs_fenced: 0,
        objects_promoted_h2: 258,
        h2_page_faults: 2,
        h2_read_bytes: 8192,
        h2_write_bytes: 0,
        h2_evictions: 0,
    }
}

#[test]
fn single_lane_matches_pre_refactor_serial_golden() {
    let got = capture_with(serial_config());
    if std::env::var("TERAHEAP_GOLDEN_PRINT").is_ok() {
        println!("serial_golden() -> Snapshot {got:#?}");
    }
    assert_eq!(got, serial_golden());
}

#[test]
fn mixed_workload_matches_golden_snapshot() {
    let got = capture();
    if std::env::var("TERAHEAP_GOLDEN_PRINT").is_ok() {
        println!("golden() -> Snapshot {got:#?}");
    }
    assert_eq!(got, golden());
}

/// `pause_budget_ns = u64::MAX` *arms* incremental mode but the proactive
/// trigger never starts a cycle (an infinite budget means a demand major
/// can always run whole), so every demand collection dispatches stop-world
/// and the armed configuration must reproduce the unarmed golden
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
    let got = capture_with(armed_idle_config());
    assert_eq!(got, golden());
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
    assert_eq!(capture(), capture());
}

#[test]
fn release_recycles_slots_under_churn() {
    // The root-table free list must keep the root set bounded under
    // long-running alloc/release churn (leaked slots would grow every root
    // scan forever).
    let (mut heap, _keep) = run_mixed_workload();
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

/// The deprecated `enable_teraheap` shim routes through a one-tenant
/// [`SharedDevice`]; it must reproduce the golden — and hence the explicit
/// `attach_h2` path — bit for bit. This pins the API redesign: the
/// arbitration layer a sole tenant passes through costs zero simulated ns.
#[test]
fn deprecated_shim_matches_golden() {
    let (heap, keep) = run_mixed_workload_shim(HeapConfig::with_words(24 << 10, 96 << 10));
    assert_eq!(capture_from(heap, keep), golden());
}

/// A sole tenant at full weight must never queue: with one tenant the
/// virtual-time fair queue degenerates to FIFO against an idle device, so
/// every submission starts at its arrival (`wait = 0` for all ops) even
/// though real service time flows through the arbiter.
#[test]
fn sole_tenant_arbitration_is_queueless() {
    let (heap, _keep, dev) = run_mixed_workload_shared(HeapConfig::with_words(24 << 10, 96 << 10));
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
