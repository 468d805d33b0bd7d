//! The incremental arm (DESIGN.md §11) of the shared mutator programs
//! ([`common::program`]): at any pause budget and lane count, with or without
//! H2, through any access path (pins included), with the checker armed at
//! every slice, a program ends at its stop-world logical heap, H2 residency
//! included.

mod common;

use common::graph_checksum;
use common::program::{access, config, h2_heap, program, run, Access, Op};
use std::cell::Cell;
use teraheap_runtime::Heap;
use teraheap_storage::FaultPlan;
use teraheap_util::prop_assert_eq;
use teraheap_util::proptest_mini::{check, CaseResult, Config};

/// The logical heap, and the machinery that produced it.
#[derive(Debug, PartialEq)]
struct IncrementalRun {
    checksum: u64,
    incr_slices: u64,
    remembered: u64,
}

/// A program and the access path it runs through.
type Case = (Access, Vec<Op>);

fn incremental_run(case: &Case, budget: u64, lanes: usize, h2: bool) -> IncrementalRun {
    let config =
        config().pause_budget_ns(budget).gc_threads(lanes).heap_check(true).build().unwrap();
    let heap = if h2 { h2_heap(config, FaultPlan::none()) } else { Heap::new(config) };
    let mut m = run(heap, case.0, &case.1);
    let roots = m.roots();
    let stats = m.heap.stats();
    let (incr_slices, remembered) = (stats.incr_slices, stats.write_barrier_remembered);
    IncrementalRun { checksum: graph_checksum(&mut m.heap, &roots), incr_slices, remembered }
}

/// Tiny (marking spans many slices, the mutator runs mid-mark), small,
/// default, large (a cycle completes in one or two slices).
const BUDGETS: [u64; 4] = [1_000, 5_000, 50_000, 1_000_000];

/// Checks every program, through an access path sampled per case, at each
/// budget x lanes {1, 4} against its stop-world run, and that the matrix
/// sliced (or its equalities are vacuous); returns the SATB remembers summed
/// over the matrix.
fn converges_to_stop_world(name: &str, h2: bool) -> u64 {
    let (slices, remembered) = (Cell::new(0), Cell::new(0));
    check(name, &(access(), program(80..160)), &Config::with_cases(5), |case| {
        let base = incremental_run(&case, 0, 1, h2);
        prop_assert_eq!(base.incr_slices, 0, "a stop-world run never slices");
        for (budget, gc_threads) in BUDGETS.iter().flat_map(|&b| [(b, 1), (b, 4)]) {
            let got = incremental_run(&case, budget, gc_threads, h2);
            let cell = format!("budget {budget} lanes {gc_threads} h2 {h2}");
            prop_assert_eq!(got.checksum, base.checksum, "logical heap diverged: {cell}");
            slices.set(slices.get() + got.incr_slices);
            remembered.set(remembered.get() + got.remembered);
        }
        CaseResult::Pass
    });
    assert!(slices.get() > 0, "no incremental cycle ever ran (h2 {h2})");
    remembered.get()
}

#[test]
fn incremental_final_state_matches_stop_world_with_h2() {
    let remembered = converges_to_stop_world("incremental_with_h2", true);
    assert!(remembered > 0, "the SATB barrier never remembered a value");
}

#[test]
fn incremental_final_state_matches_stop_world_h1_only() {
    converges_to_stop_world("incremental_h1_only", false);
}

/// A sliced run replays bit-identically: no hash-order or ambient state.
#[test]
fn slices_respect_deterministic_replay() {
    check("incremental_replay", &(access(), program(80..160)), &Config::with_cases(5), |case| {
        let replay = || incremental_run(&case, 1_000, 4, true);
        prop_assert_eq!(replay(), replay(), "a sliced run replays bit-identically");
        CaseResult::Pass
    });
}
