//! Randomized equivalence suite for the incremental major collector
//! (DESIGN.md §11).
//!
//! Each test runs the *same* deterministic random mutator program — driven
//! by a hand-rolled LCG, no external randomness — under the stop-world
//! collector (`pause_budget_ns = 0`) and under incremental collection at
//! several pause budgets and `gc_threads` settings, with the heap checker
//! armed so every pause slice re-validates the full-heap invariants
//! (`Heap::maybe_heap_check` runs after each slice). The final *logical*
//! heap state — the reachable object graph checksummed through the public
//! mutator API — must be identical across all configurations: no live
//! object freed, no reference dangling, no payload corrupted, identical H2
//! residency.
//!
//! The heap is sized so the proactive trigger (`old.free < 2 * young`)
//! fires after essentially every minor GC, keeping an incremental cycle in
//! flight for most of the program: mutation, allocation, root churn and H2
//! backward-reference writes all land *between* marking/relocation slices,
//! exercising the SATB write barrier, allocate-black, the logical→physical
//! redirection of every accessor, and the finish-on-demand paths.

mod common;

use common::graph_checksum;
use teraheap_core::{H2Config, Label};
use teraheap_runtime::{Handle, Heap, HeapConfig, OBJ_ARRAY_CLASS, PRIM_ARRAY_CLASS};
use teraheap_storage::{DeviceSpec, SharedDevice};

/// Knuth MMIX LCG; high bits only (low bits of an LCG are weak).
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const POOL: usize = 24;
const OPS: usize = 3000;

struct Outcome {
    checksum: u64,
    incr_slices: u64,
    remembered: u64,
}

/// Runs the random program for `seed` and returns the final logical state.
///
/// The heap is deliberately small (old barely exceeds `2 * young`), so the
/// proactive incremental trigger fires after nearly every minor GC.
fn run_program(seed: u64, budget: u64, gc_threads: usize, h2: bool) -> Outcome {
    let config = HeapConfig::builder(8 << 10, 12 << 10)
        .pause_budget_ns(budget)
        .gc_threads(gc_threads)
        .heap_check(true)
        .build()
        .expect("valid config");
    let mut heap = Heap::new(config);
    if h2 {
        let h2cfg = H2Config::builder()
                .region_words(4 << 10)
                .n_regions(32)
                .card_seg_words(256)
                .resident_budget_bytes(64 << 10)
                .page_size(4096)
                .promo_buffer_bytes(8 << 10)
                .build()
                .expect("valid H2 config");
        let dev = SharedDevice::new(DeviceSpec::nvme_ssd(), h2cfg.footprint_bytes(), heap.clock().clone());
        heap.attach_h2(h2cfg, &dev).unwrap();
    }
    let node = heap.register_class("Node", 2, 2);
    let leaf = heap.register_class("Leaf", 0, 2);
    let mut rng = Lcg::new(seed);

    // A tagged spine destined for H2, mutated throughout the program so
    // backward (H2→H1) references keep appearing mid-cycle.
    let spine = heap.alloc_ref_array(24).expect("alloc spine");
    for i in 0..24 {
        let n = heap.alloc(node).expect("alloc node");
        let l = heap.alloc(leaf).expect("alloc leaf");
        heap.write_prim(l, 0, seed * 1000 + i as u64);
        heap.write_ref(n, 1, l);
        heap.write_prim(n, 0, i as u64);
        heap.write_ref(spine, i, n);
        heap.release(n);
        heap.release(l);
    }
    heap.h2_tag_root(spine, Label::new(1));

    let mut pool: Vec<Handle> = Vec::new();
    let keep_or_release = |heap: &mut Heap, pool: &mut Vec<Handle>, h: Handle, r: &mut Lcg| {
        if pool.len() < POOL {
            pool.push(h);
        } else if r.below(3) == 0 {
            let i = r.below(POOL as u64) as usize;
            let old = std::mem::replace(&mut pool[i], h);
            heap.release(old);
        } else {
            heap.release(h);
        }
    };

    for op in 0..OPS {
        if op == OPS / 3 && h2 {
            // Pin the H2 move to a deterministic logical point: the first
            // major finishes any in-flight incremental cycle (whose
            // candidate selection may predate the hint), the second honors
            // the hint, so every configuration moves the closure reachable
            // at exactly this op. Without this the moved set would depend
            // on *when* the honoring collection happens to run, which
            // legitimately differs across pause budgets.
            heap.h2_move(Label::new(1));
            heap.gc_major().expect("major finishing in-flight cycle");
            heap.gc_major().expect("major honoring h2_move");
        }
        match rng.below(100) {
            0..=34 => {
                let l = heap.alloc(leaf).expect("alloc leaf");
                heap.write_prim(l, 0, rng.next());
                heap.write_prim(l, 1, op as u64);
                keep_or_release(&mut heap, &mut pool, l, &mut rng);
            }
            35..=54 => {
                let n = heap.alloc(node).expect("alloc node");
                heap.write_prim(n, 0, rng.next());
                for f in 0..2usize {
                    if !pool.is_empty() && rng.below(2) == 0 {
                        let t = pool[rng.below(pool.len() as u64) as usize];
                        heap.write_ref(n, f, t);
                    }
                }
                keep_or_release(&mut heap, &mut pool, n, &mut rng);
            }
            55..=62 => {
                let len = 1 + rng.below(6) as usize;
                let a = heap.alloc_ref_array(len).expect("alloc ref array");
                for i in 0..len {
                    if !pool.is_empty() && rng.below(2) == 0 {
                        let t = pool[rng.below(pool.len() as u64) as usize];
                        heap.write_ref(a, i, t);
                    }
                }
                keep_or_release(&mut heap, &mut pool, a, &mut rng);
            }
            63..=67 => {
                let len = 2 + rng.below(12) as usize;
                let a = heap.alloc_prim_array(len).expect("alloc prim array");
                let vals: Vec<u64> = (0..len).map(|i| rng.next().wrapping_add(i as u64)).collect();
                heap.write_prims(a, 0, &vals);
                keep_or_release(&mut heap, &mut pool, a, &mut rng);
            }
            68..=79 => {
                // Mutate an existing object: the SATB deletion barrier and
                // (post-flip) the raw-slot write path must both hold.
                if pool.is_empty() {
                    continue;
                }
                let h = pool[rng.below(pool.len() as u64) as usize];
                let class = heap.class_of(h);
                if class == OBJ_ARRAY_CLASS {
                    let len = heap.array_len(h);
                    let i = rng.below(len as u64) as usize;
                    if rng.below(4) == 0 {
                        heap.write_ref_null(h, i);
                    } else {
                        let t = pool[rng.below(pool.len() as u64) as usize];
                        heap.write_ref(h, i, t);
                    }
                } else if class == PRIM_ARRAY_CLASS {
                    let len = heap.array_len(h);
                    heap.write_prim(h, rng.below(len as u64) as usize, rng.next());
                } else if class == node {
                    let i = rng.below(2) as usize;
                    if rng.below(4) == 0 {
                        heap.write_ref_null(h, i);
                    } else {
                        let t = pool[rng.below(pool.len() as u64) as usize];
                        heap.write_ref(h, i, t);
                    }
                } else {
                    heap.write_prim(h, rng.below(2) as usize, rng.next());
                }
            }
            80..=84 => {
                // Write a fresh young object into the (eventually
                // H2-resident) spine: backward references created mid-cycle.
                let i = rng.below(24) as usize;
                let n = heap.read_ref(spine, i).expect("spine node");
                let fresh = heap.alloc(leaf).expect("alloc fresh leaf");
                heap.write_prim(fresh, 0, 0x5eed_0000 + op as u64);
                heap.write_ref(n, 1, fresh);
                heap.release(fresh);
                heap.release(n);
            }
            85..=89 => {
                // Read traversal through whatever phase the cycle is in.
                if pool.is_empty() {
                    continue;
                }
                let h = pool[rng.below(pool.len() as u64) as usize];
                let class = heap.class_of(h);
                if class == OBJ_ARRAY_CLASS || class == node {
                    let len = if class == OBJ_ARRAY_CLASS { heap.array_len(h) } else { 2 };
                    if let Some(c) = heap.read_ref(h, rng.below(len as u64) as usize) {
                        let _ = heap.class_of(c);
                        heap.release(c);
                    }
                } else if class == PRIM_ARRAY_CLASS {
                    let len = heap.array_len(h);
                    let mut buf = vec![0u64; len];
                    heap.read_prims(h, 0, &mut buf);
                } else {
                    let _ = heap.read_prim(h, rng.below(2) as usize);
                }
            }
            90..=92 => {
                if pool.len() > 4 {
                    let i = rng.below(pool.len() as u64) as usize;
                    let h = pool.swap_remove(i);
                    heap.release(h);
                }
            }
            93..=97 => {
                // Pure mutator time: drives the slice pacing poll.
                heap.charge_ops(rng.below(2000));
            }
            _ => {
                if rng.below(4) == 0 {
                    heap.gc_minor().expect("minor GC");
                } else {
                    heap.charge_ops(500);
                }
            }
        }
    }

    // Settle: finish any in-flight cycle (or run the H2 move stop-world),
    // so every configuration ends at the same logical fixpoint.
    heap.gc_major().expect("final major GC");
    heap.heap_check().expect("final heap check");

    let mut roots = vec![spine];
    roots.extend(pool.iter().copied());
    let checksum = graph_checksum(&mut heap, &roots);
    Outcome {
        checksum,
        incr_slices: heap.stats().incr_slices,
        remembered: heap.stats().write_barrier_remembered,
    }
}

const SEEDS: [u64; 3] = [1, 2, 3];
/// Tiny (one work unit per slice, so marking spans many slices and the
/// mutator runs mid-mark), small, default, large (a cycle completes in one
/// or two slices).
const BUDGETS: [u64; 4] = [1_000, 5_000, 50_000, 1_000_000];

#[test]
fn incremental_final_state_matches_stop_world_with_h2() {
    let mut total_slices = 0;
    let mut total_remembered = 0;
    for seed in SEEDS {
        let base = run_program(seed, 0, 1, true);
        assert_eq!(base.incr_slices, 0, "stop-world run must not slice");
        for budget in BUDGETS {
            for threads in [1usize, 4] {
                let got = run_program(seed, budget, threads, true);
                assert_eq!(
                    got.checksum, base.checksum,
                    "logical heap diverged: seed {seed} budget {budget} threads {threads}"
                );
                total_slices += got.incr_slices;
                total_remembered += got.remembered;
            }
        }
    }
    // The matrix must actually exercise the machinery, or the equalities
    // above are vacuous.
    assert!(total_slices > 0, "no incremental cycle ever ran");
    assert!(total_remembered > 0, "the SATB barrier never remembered a value");
}

#[test]
fn incremental_final_state_matches_stop_world_h1_only() {
    let mut total_slices = 0;
    for seed in SEEDS {
        let base = run_program(seed, 0, 1, false);
        for budget in BUDGETS {
            let got = run_program(seed, budget, 1, false);
            assert_eq!(
                got.checksum, base.checksum,
                "logical heap diverged without H2: seed {seed} budget {budget}"
            );
            total_slices += got.incr_slices;
        }
    }
    assert!(total_slices > 0, "no incremental cycle ever ran without H2");
}

#[test]
fn slices_respect_deterministic_replay() {
    // Same seed, same budget, same threads → bit-identical slice count and
    // checksum (guards the engine against hash-order or ambient-state
    // nondeterminism, which would undermine every equality above).
    let a = run_program(7, 50_000, 4, true);
    let b = run_program(7, 50_000, 4, true);
    assert_eq!(a.checksum, b.checksum);
    assert_eq!(a.incr_slices, b.incr_slices);
    assert_eq!(a.remembered, b.remembered);
}
