//! The dense prefix's oracle (DESIGN.md §7): a run whose stop-world cycles
//! plan and slide the dense prefix by span must be the run that visits every
//! object — the same clock totals, events, forwarding addresses, start lists
//! and heap words. [`per_object_oracle`] switches the prefix off (`k = 0`)
//! for the calling thread; [`note_retiring`] records each retiring cycle.

use super::MajorCycle;
use crate::class::ClassId;
use crate::config::{GcVariant, HeapConfig};
use crate::heap::{Handle, Heap};
use std::cell::{Cell, RefCell};
use std::hash::{DefaultHasher, Hash, Hasher};
use teraheap_core::{H2Config, Label};
use teraheap_storage::obs::{Event, Level};
use teraheap_storage::{Breakdown, Category, DeviceSpec, SharedDevice};

type Res<T> = Result<T, Box<dyn std::error::Error>>;

thread_local! {
    static PER_OBJECT: Cell<bool> = const { Cell::new(false) };
    static RETIRED: RefCell<Vec<Retired>> = const { RefCell::new(Vec::new()) };
}

/// Whether this thread's cycles run without the dense prefix.
pub(super) fn per_object_oracle() -> bool {
    PER_OBJECT.get()
}

/// Records a retiring cycle once its start list is final.
pub(super) fn note_retiring(heap: &Heap, cyc: &MajorCycle) {
    let mut words = DefaultHasher::new();
    heap.mem.hash(&mut words);
    let retired = Retired {
        prefix: (cyc.plan.prefix_len, cyc.live.len()),
        plan: Plan {
            dests: cyc.live.all_dests().to_vec(),
            old_starts: heap.old_starts.clone(),
            new_top: cyc.plan.new_top,
            heap_words: words.finish(),
        },
    };
    RETIRED.with_borrow_mut(|r| r.push(retired));
}

/// One retired cycle.
struct Retired {
    /// `(prefix objects, live objects)`: the one thing the oracle changes.
    prefix: (usize, usize),
    plan: Plan,
}

/// What a retired cycle left behind.
struct Plan {
    dests: Vec<u64>,
    old_starts: Vec<u64>,
    new_top: u64,
    /// A hash of every H1 word as the cycle retires.
    heap_words: u64,
}

/// Everything the simulation shows of one run.
struct Observed {
    total_ns: u64,
    breakdown: Breakdown,
    charges: [u64; Category::COUNT],
    events: Vec<Event>,
    stats: String,
    plans: Vec<Plan>,
    final_words: Vec<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Program {
    /// Garbage all through the old generation, hint-driven H2 moves and
    /// big arrays (humongous under G1).
    Mixed,
    /// Spark-SD-like: a large cache that stays live, and each round's
    /// garbage at the old generation's tail — majors of little yield.
    LowYield,
}

#[derive(Debug, Clone, Copy)]
struct Arm {
    variant: GcVariant,
    memory_mode: bool,
    threads: usize,
    checked: bool,
}

fn config(arm: Arm) -> HeapConfig {
    let mut cfg = HeapConfig::with_words(16 << 10, 96 << 10);
    cfg.variant = arm.variant;
    cfg.gc_threads = arm.threads;
    cfg.heap_check = arm.checked;
    cfg.obs_level = Some(Level::Full);
    cfg.obs_events = 1 << 16;
    cfg.memory_mode = arm.memory_mode;
    cfg
}

/// A deterministic stream of small numbers.
fn lcg(seed: u64) -> impl FnMut(u64) -> u64 {
    let mut x = seed;
    move |n| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (x >> 33) % n
    }
}

/// A block of the cache: a reference array of small records.
fn block(heap: &mut Heap, record: ClassId, records: usize, tag: u64) -> Res<Handle> {
    let spine = heap.alloc_ref_array(records)?;
    for i in 0..records {
        let r = heap.alloc(record)?;
        heap.write_prim(r, 0, tag);
        heap.write_prim(r, 1, i as u64);
        heap.write_ref(spine, i, r);
        heap.release(r);
    }
    Ok(spine)
}

fn run_program(heap: &mut Heap, program: Program) -> Res<Vec<Handle>> {
    let mut next = lcg(0x5eed);
    let h2 = heap.h2.is_some();
    let record = heap.register_class("Record", 1, 2);
    let mut cache: Vec<Handle> = Vec::new();
    for b in 0..40u64 {
        let h = block(heap, record, 48, b)?;
        if h2 && program == Program::Mixed && b % 5 == 0 {
            heap.h2_tag_root(h, Label::new(1 + b / 5));
        }
        cache.push(h);
    }
    heap.gc_major()?;
    for round in 0..10u64 {
        // Short-lived churn, some of it tenured by the minors it outlives.
        let mut churn = Vec::new();
        for i in 0..1500 {
            let h = heap.alloc_prim_array(4 + next(12) as usize)?;
            if i % 7 == 0 {
                churn.push(h);
            } else {
                heap.release(h);
            }
        }
        match program {
            Program::LowYield => {
                // The newest blocks die and are rebuilt: garbage sits past
                // the long-lived prefix.
                for _ in 0..2 {
                    if let Some(h) = cache.pop() {
                        heap.release(h);
                    }
                }
                for _ in 0..2 {
                    cache.push(block(heap, record, 48, 100 + round)?);
                }
            }
            Program::Mixed => {
                for _ in 0..3 {
                    let victim = next(cache.len() as u64) as usize;
                    heap.release(cache.swap_remove(victim));
                    cache.push(block(heap, record, 16 + next(40) as usize, 200 + round)?);
                }
                // Humongous under G1; the largest bypasses eden.
                let big = heap.alloc_prim_array([300, 900, 7000][round as usize % 3])?;
                cache.push(big);
                if h2 && round % 3 == 1 {
                    heap.h2_move(Label::new(1 + round / 3));
                }
            }
        }
        for h in churn {
            heap.release(h);
        }
        heap.gc_major()?;
    }
    Ok(cache)
}

/// Runs `program` on `arm`, through the oracle or not, and the cycles'
/// `(prefix, live)` objects.
fn run(arm: Arm, program: Program, oracle: bool) -> Res<(Observed, Vec<(usize, usize)>)> {
    let mut heap = Heap::new(config(arm));
    let _device = if program == Program::Mixed {
        let h2cfg = H2Config::builder()
            .region_words(4 << 10)
            .n_regions(32)
            .card_seg_words(256)
            .page_size(4096)
            .build()?;
        let device = SharedDevice::new(
            DeviceSpec::nvme_ssd(),
            h2cfg.footprint_bytes(),
            heap.clock().clone(),
        );
        heap.attach_h2(h2cfg, &device)?;
        Some(device)
    } else {
        None
    };
    PER_OBJECT.set(oracle);
    RETIRED.with_borrow_mut(Vec::clear);
    let ran = run_program(&mut heap, program);
    PER_OBJECT.set(false);
    let retired = RETIRED.take();
    ran?;
    let clock = heap.clock().clone();
    let prefixes = retired.iter().map(|r| r.prefix).collect();
    let observed = Observed {
        total_ns: clock.total_ns(),
        breakdown: clock.breakdown(),
        charges: clock.tracer().charge_counts(),
        events: clock.tracer().events(),
        stats: format!("{:?}", heap.stats()),
        plans: retired.into_iter().map(|r| r.plan).collect(),
        final_words: heap.mem.clone(),
    };
    Ok((observed, prefixes))
}

/// Asserts the two runs equal, naming the first difference.
fn assert_same(with: &Observed, without: &Observed, what: &str) {
    assert_eq!(with.total_ns, without.total_ns, "{what}: total ns");
    assert_eq!(with.breakdown, without.breakdown, "{what}: breakdown");
    assert_eq!(with.charges, without.charges, "{what}: charge counts");
    assert_eq!(with.stats, without.stats, "{what}: GC stats");
    assert_eq!(with.events.len(), without.events.len(), "{what}: event count");
    if let Some(i) = (0..with.events.len()).find(|&i| with.events[i] != without.events[i]) {
        assert_eq!(with.events[i], without.events[i], "{what}: event {i}");
    }
    assert_eq!(with.plans.len(), without.plans.len(), "{what}: cycles");
    for (i, (a, b)) in with.plans.iter().zip(&without.plans).enumerate() {
        assert_eq!(a.dests, b.dests, "{what}: cycle {i} forwarding addresses");
        assert_eq!(a.old_starts, b.old_starts, "{what}: cycle {i} start list");
        assert_eq!((a.new_top, a.heap_words), (b.new_top, b.heap_words), "{what}: cycle {i}");
    }
    assert!(with.final_words == without.final_words, "{what}: final heap words");
}

/// Runs `program` on `arm` with and without the prefix, asserts the runs
/// equal and returns the prefixed run's `(prefix, live)` objects summed.
fn compare(arm: Arm, program: Program) -> Res<(usize, usize)> {
    let what = format!("{program:?} on {arm:?}");
    let (with, prefixes) = run(arm, program, false)?;
    let (without, oracle_prefixes) = run(arm, program, true)?;
    assert!(oracle_prefixes.iter().all(|&(k, _)| k == 0), "{what}: the oracle took a prefix");
    assert_same(&with, &without, &what);
    let total = prefixes.iter().fold((0, 0), |(k, n), &(pk, pn)| (k + pk, n + pn));
    assert!(total.0 > 0, "{what}: no cycle took the dense prefix");
    Ok(total)
}

fn variants() -> [(GcVariant, bool); 4] {
    [
        (GcVariant::ParallelScavenge, false),
        (GcVariant::G1 { region_words: 512 }, false),
        (GcVariant::Panthera { old_dram_words: 8 << 10 }, false),
        (GcVariant::ParallelScavenge, true),
    ]
}

#[test]
fn dense_prefix_is_the_per_object_collection() -> Res<()> {
    for (variant, memory_mode) in variants() {
        for threads in [1, 4] {
            let arm = Arm { variant, memory_mode, threads, checked: false };
            compare(arm, Program::Mixed)?;
            let (prefix, live) = compare(arm, Program::LowYield)?;
            assert!(prefix * 4 >= live * 3, "{arm:?}: low-yield prefix {prefix} of {live}");
        }
    }
    Ok(())
}

/// The armed checker verifies the old generation's tiling at every
/// boundary and audits that each prefix rank is planned, adjusted and
/// copied by exactly one unit.
#[test]
fn checked_runs_take_the_prefix_under_the_coverage_audit() -> Res<()> {
    let arm =
        Arm { variant: GcVariant::ParallelScavenge, memory_mode: false, threads: 4, checked: true };
    compare(arm, Program::Mixed)?;
    compare(arm, Program::LowYield)?;
    Ok(())
}
