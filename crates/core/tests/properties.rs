//! Property-based tests for the H2 mechanisms.
//!
//! These check the safety invariants the paper's design depends on:
//! directional dependency-list liveness never reclaims a reachable region,
//! and the card table never loses a dirty mark.
//!
//! Runs on the in-repo harness (`teraheap_util::proptest_mini`): cases are
//! seeded deterministically, failures shrink to a minimal script and print
//! a `TERAHEAP_PROP_SEED` for replay.

use teraheap_core::{
    Addr, CardState, H2CardTable, Label, LifetimeProfiles, RegionId, RegionManager,
};
use teraheap_util::proptest_mini::{
    check, range_u64, range_usize, vec_of, CaseResult, Config, Strategy,
};
use teraheap_util::{prop_assert, prop_assert_eq, prop_assume};

/// A scripted region workload: allocations, cross-region references and the
/// set of regions the "H1 roots" reference at GC time.
#[derive(Debug, Clone)]
struct RegionScript {
    allocs: Vec<(u64, usize)>, // (label, words)
    deps: Vec<(usize, usize)>, // indices into allocated objects (from, to)
    h1_marks: Vec<usize>,      // indices of objects referenced from H1
}

fn region_script() -> impl Strategy<Value = RegionScript> {
    (
        vec_of((range_u64(0..6), range_usize(1..64)), 1..40),
        vec_of((range_usize(0..40), range_usize(0..40)), 0..40),
        vec_of(range_usize(0..40), 0..10),
    )
        .prop_map(|(allocs, deps, h1_marks)| RegionScript { allocs, deps, h1_marks })
}

const CASES: u32 = 256;

/// Sweeping never reclaims a region that is (transitively) reachable
/// from an H1-referenced region via dependency edges.
#[test]
fn sweep_never_frees_reachable_region() {
    check(
        "sweep_never_frees_reachable_region",
        &region_script(),
        &Config::with_cases(CASES),
        |script: RegionScript| {
            let mut m = RegionManager::new(256, 64);
            let mut objs: Vec<Addr> = Vec::new();
            for &(label, words) in &script.allocs {
                if let Ok(a) = m.alloc(Label::new(label), words) {
                    objs.push(a);
                }
            }
            prop_assume!(!objs.is_empty());
            // Record dependency edges, also building a reference model.
            let mut edges: Vec<(RegionId, RegionId)> = Vec::new();
            for &(f, t) in &script.deps {
                if f < objs.len() && t < objs.len() {
                    let (rf, rt) = (m.region_of(objs[f]), m.region_of(objs[t]));
                    m.add_dependency(rf, rt);
                    edges.push((rf, rt));
                }
            }
            m.clear_live_bits();
            let mut directly_live: Vec<RegionId> = Vec::new();
            for &i in &script.h1_marks {
                if i < objs.len() {
                    m.mark_live(objs[i]);
                    directly_live.push(m.region_of(objs[i]));
                }
            }
            // Model: compute the set of regions reachable from directly-live
            // ones over the dependency edges.
            let mut reachable: std::collections::HashSet<RegionId> =
                directly_live.iter().copied().collect();
            loop {
                let before = reachable.len();
                for &(f, t) in &edges {
                    if reachable.contains(&f) {
                        reachable.insert(t);
                    }
                }
                if reachable.len() == before {
                    break;
                }
            }
            let freed = {
                m.propagate_liveness();
                m.sweep_dead()
            };
            for rid in freed {
                prop_assert!(
                    !reachable.contains(&rid),
                    "reclaimed region {rid} is reachable from H1"
                );
            }
            CaseResult::Pass
        },
    );
}

/// Whatever sequence of dirty marks the mutator produces, every marked
/// card appears in the minor-GC scan set (the table is conservative).
#[test]
fn card_table_never_loses_dirty_marks() {
    check(
        "card_table_never_loses_dirty_marks",
        &vec_of(range_u64(0..4096), 1..100),
        &Config::with_cases(CASES),
        |offsets: Vec<u64>| {
            let mut t = H2CardTable::new(4096, 64, 256);
            let mut expected = std::collections::HashSet::new();
            for &o in &offsets {
                let addr = Addr::h2_at(o);
                t.mark_dirty(addr);
                expected.insert(t.card_of(addr));
            }
            let scanned: std::collections::HashSet<usize> =
                t.minor_scan_cards().into_iter().collect();
            for c in expected {
                prop_assert!(scanned.contains(&c));
                prop_assert_eq!(t.state(c), CardState::Dirty);
            }
            CaseResult::Pass
        },
    );
}

/// Whatever interleaving of barrier marks and GC state re-derivations hits
/// the table, the maintained noted-card index returns exactly what a full
/// sweep of the byte array would: same cards, same ascending order, for
/// both the minor and the major scan set.
#[test]
fn card_index_matches_full_sweep() {
    // Ops: (card, state-code). Code 0..=3 = set_state(CardState), 4 =
    // mark_dirty via an address in the card, 5 = query (forces the lazy
    // index reconciliation mid-sequence, not just at the end).
    check(
        "card_index_matches_full_sweep",
        &vec_of((range_usize(0..64), range_usize(0..6)), 1..200),
        &Config::with_cases(CASES),
        |ops: Vec<(usize, usize)>| {
            let mut t = H2CardTable::new(4096, 64, 256);
            for &(card, code) in &ops {
                match code {
                    0 => t.set_state(card, CardState::Clean),
                    1 => t.set_state(card, CardState::Dirty),
                    2 => t.set_state(card, CardState::YoungGen),
                    3 => t.set_state(card, CardState::OldGen),
                    4 => t.mark_dirty(Addr::h2_at((card * 64 + 7) as u64)),
                    _ => {
                        let _ = t.minor_scan_cards();
                    }
                }
            }
            // Full-sweep reference over the authoritative byte array.
            let sweep = |pred: &dyn Fn(CardState) -> bool| -> Vec<usize> {
                (0..t.card_count()).filter(|&i| pred(t.state(i))).collect()
            };
            let minor_ref = sweep(&|s| matches!(s, CardState::Dirty | CardState::YoungGen));
            let major_ref = sweep(&|s| s != CardState::Clean);
            prop_assert_eq!(t.minor_scan_cards(), minor_ref);
            prop_assert_eq!(t.major_scan_cards(), major_ref);
            CaseResult::Pass
        },
    );
}

/// One profiler observation: op code, label, words. Op codes: 0 =
/// record_tag, 1 = record_survival, 2 = record_promotion, 3 =
/// record_pretenure.
type ProfileOp = (usize, u64, u64);

fn profile_script() -> impl Strategy<Value = Vec<ProfileOp>> {
    vec_of(
        ((range_usize(0..4), range_u64(0..8)), range_u64(1..4096))
            .prop_map(|((op, label), words)| (op, label, words)),
        1..120,
    )
}

fn apply_profile(script: &[ProfileOp]) -> LifetimeProfiles {
    let mut p = LifetimeProfiles::new();
    p.set_enabled(true);
    for &(op, label, words) in script {
        let l = Label::new(label);
        match op {
            0 => p.record_tag(l, words),
            1 => p.record_survival(l, words),
            2 => p.record_promotion(l, words),
            _ => p.record_pretenure(l, words),
        }
    }
    p
}

/// The lifetime profiler is a pure fold over its observation stream:
/// replaying one script yields bit-identical per-site stats and identical
/// pretenure decisions. This is what makes pretenuring safe to enable in a
/// deterministic simulation.
#[test]
fn lifetime_profiler_replays_identically() {
    check(
        "lifetime_profiler_replays_identically",
        &profile_script(),
        &Config::with_cases(CASES),
        |script: Vec<ProfileOp>| {
            let (a, b) = (apply_profile(&script), apply_profile(&script));
            prop_assert_eq!(a.len(), b.len());
            for ((la, sa), (lb, sb)) in a.sites().zip(b.sites()) {
                prop_assert_eq!(la.id(), lb.id());
                prop_assert_eq!(*sa, *sb);
                prop_assert_eq!(a.should_pretenure(la), b.should_pretenure(lb));
            }
            CaseResult::Pass
        },
    );
}

/// Additional survival evidence never retracts a pretenure decision, and
/// pretenured allocations never dilute it (the decision is sticky).
#[test]
fn pretenure_decision_is_monotone_in_evidence() {
    check(
        "pretenure_decision_is_monotone_in_evidence",
        &(profile_script(), (range_u64(0..8), range_u64(1..4096))),
        &Config::with_cases(CASES),
        |(script, (label, words)): (Vec<ProfileOp>, (u64, u64))| {
            let mut p = apply_profile(&script);
            let l = Label::new(label);
            let before = p.should_pretenure(l);
            p.record_survival(l, words);
            p.record_pretenure(l, words);
            if before {
                prop_assert!(
                    p.should_pretenure(l),
                    "survival evidence or pretenured volume retracted the decision"
                );
            }
            CaseResult::Pass
        },
    );
}

/// Allocation within one label is contiguous and append-only until a
/// region fills, and no two live objects ever overlap.
#[test]
fn allocations_never_overlap() {
    check(
        "allocations_never_overlap",
        &vec_of((range_u64(0..4), range_usize(1..128)), 1..64),
        &Config::with_cases(CASES),
        |allocs: Vec<(u64, usize)>| {
            let mut m = RegionManager::new(128, 32);
            let mut spans: Vec<(u64, u64)> = Vec::new();
            for (label, words) in allocs {
                if let Ok(a) = m.alloc(Label::new(label), words) {
                    let s = a.raw();
                    let e = s + words as u64;
                    for &(os, oe) in &spans {
                        prop_assert!(e <= os || s >= oe, "objects overlap");
                    }
                    spans.push((s, e));
                }
            }
            CaseResult::Pass
        },
    );
}
