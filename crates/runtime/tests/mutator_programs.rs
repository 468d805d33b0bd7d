//! The runtime's property suite: random mutator programs
//! ([`common::program`]) under every configuration an invariant needs. Each
//! arm is one `proptest_mini` property over the same language and the same
//! interpreter, whose oracle checks the heap against a shadow logical graph
//! after every program; the arms differ only in the heap they run on and in
//! what they assert on top of the oracle:
//!
//! * **graph** — the default configuration: the oracle alone;
//! * **lanes** — `gc_threads` 1–8: runs are bit-identical across repeats
//!   and racing host threads, and thread count reshapes time only;
//! * **spans** — the flight recorder's spans nest and major-GC phases stay
//!   inside a major GC;
//! * **faults** — a random `FaultPlan` never corrupts a payload, and H2
//!   degrades only when a plan could starve it;
//! * **product** — the configuration product: collector variant, lanes,
//!   adaptive placement, device, fault plan and access path.
//!
//! Cases are seeded deterministically; a failure shrinks to a minimal
//! program and prints a `TERAHEAP_PROP_SEED` that replays it
//! (`TERAHEAP_PROP_SEED=<seed> cargo test -p teraheap-runtime --test
//! mutator_programs <arm>`).

mod common;

use common::attach_workload_h2;
use common::program::{access, config, h2_heap, program, run, Access, Op};
use teraheap_runtime::obs::{Event, EventKind, GcKind, Level, SPAN_COUNT};
use teraheap_runtime::{GcVariant, Heap, HeapConfig};
use teraheap_storage::{DeviceSpec, FaultPlan};
use teraheap_util::proptest_mini::{check, range_u64, range_usize, CaseResult, Config, Strategy};
use teraheap_util::{prop_assert, prop_assert_eq};

#[test]
fn graph_arm_matches_the_shadow_graph() {
    check("graph_arm", &program(1..80), &Config::with_cases(64), |ops| {
        run(h2_heap(config(), FaultPlan::none()), Access::Loop, &ops);
        CaseResult::Pass
    });
}

/// Everything a run reports: the determinism witness of the lanes arm.
#[derive(Debug, PartialEq)]
struct LaneReport {
    total_ns: u64,
    events: Vec<Event>,
    minor_count: u64,
    major_count: u64,
    objects_promoted_h2: u64,
    backward_refs_seen: u64,
    forward_refs_fenced: u64,
    lane_stall_ns: u64,
}

fn lanes_run(ops: &[Op], gc_threads: usize) -> LaneReport {
    let config = HeapConfig { gc_threads, obs_level: Some(Level::Full), ..config() };
    let m = run(h2_heap(config, FaultPlan::none()), Access::Loop, ops);
    let stats = m.heap.stats();
    LaneReport {
        total_ns: m.heap.clock().total_ns(),
        events: m.heap.clock().tracer().events(),
        minor_count: stats.minor_count,
        major_count: stats.major_count,
        objects_promoted_h2: m.heap.h2().unwrap().objects_promoted(),
        backward_refs_seen: stats.backward_refs_seen,
        forward_refs_fenced: stats.forward_refs_fenced,
        lane_stall_ns: stats.lane_stall_ns,
    }
}

/// Lane accounting is deterministic (DESIGN.md §11): lane picks are integer
/// arithmetic over accumulated unit costs, so a repeat run and runs racing
/// on other host threads reproduce a run bit for bit — event stamps and lane
/// assignments included — and `gc_threads` reshapes time, never heap
/// behaviour.
#[test]
fn lanes_arm_is_deterministic_and_host_independent() {
    check("lanes_arm", &program(1..60), &Config::with_cases(16), |ops| {
        let mut per_threads: Vec<(usize, LaneReport)> = Vec::new();
        for gc_threads in [1usize, 2, 3, 4, 8] {
            let a = lanes_run(&ops, gc_threads);
            prop_assert_eq!(&a, &lanes_run(&ops, gc_threads), "repeat run at {gc_threads} lanes");
            let racers = std::thread::scope(|s| {
                let racers: Vec<_> =
                    (0..3).map(|_| s.spawn(|| lanes_run(&ops, gc_threads))).collect();
                racers
                    .into_iter()
                    .map(|r| r.join().expect("racer run panicked"))
                    .collect::<Vec<_>>()
            });
            for r in racers {
                prop_assert_eq!(&a, &r, "racing host thread at {gc_threads} lanes");
            }
            per_threads.push((gc_threads, a));
        }
        let (_, base) = &per_threads[0];
        for (t, r) in &per_threads[1..] {
            prop_assert_eq!(r.minor_count, base.minor_count, "minor count at {t} lanes");
            prop_assert_eq!(r.major_count, base.major_count, "major count at {t} lanes");
            prop_assert_eq!(r.objects_promoted_h2, base.objects_promoted_h2, "promotions at {t}");
            prop_assert_eq!(r.backward_refs_seen, base.backward_refs_seen, "backward refs at {t}");
            prop_assert_eq!(r.forward_refs_fenced, base.forward_refs_fenced, "fenced refs at {t}");
        }
        prop_assert_eq!(base.lane_stall_ns, 0, "a single lane never stalls");
        CaseResult::Pass
    });
}

/// The flight recorder's stream (DESIGN.md §8): time-ordered, span
/// begin/end well nested per span slot, and major-GC phases only inside a
/// major GC.
#[test]
fn spans_arm_nests_spans_and_phases() {
    check("spans_arm", &program(1..80), &Config::with_cases(64), |ops| {
        let config = HeapConfig { obs_level: Some(Level::Full), ..config() };
        let m = run(h2_heap(config, FaultPlan::none()), Access::Loop, &ops);
        let mut depth = [0i64; SPAN_COUNT];
        let mut in_major = false;
        let mut last_t = 0u64;
        for e in &m.heap.clock().tracer().events() {
            prop_assert!(e.t_ns >= last_t, "events are time-ordered");
            last_t = e.t_ns;
            if let Some((slot, is_begin)) = e.kind.span_edge() {
                depth[slot] += if is_begin { 1 } else { -1 };
                prop_assert!(depth[slot] >= 0, "end before begin in slot {}", slot);
                prop_assert!(depth[slot] <= 1, "slot {} nested into itself", slot);
            }
            match e.kind {
                EventKind::GcBegin { gc: GcKind::Major, .. } => in_major = true,
                EventKind::GcEnd { gc: GcKind::Major, .. } => in_major = false,
                EventKind::PhaseBegin { .. } | EventKind::PhaseEnd { .. } => {
                    prop_assert!(in_major, "phases only occur inside a major GC");
                }
                _ => {}
            }
        }
        for (slot, d) in depth.iter().enumerate() {
            prop_assert!(*d == 0, "slot {} left open at end of run", slot);
        }
        CaseResult::Pass
    });
}

/// A random enabled plan: transient errors in both directions, sometimes a
/// latency spike, sometimes early ENOSPC.
fn fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        (range_u64(1..1 << 32), range_u64(0..80_000), range_u64(0..80_000)),
        (range_u64(0..24), range_u64(0..4)),
    )
        .prop_map(|((seed, read_ppm, write_ppm), (enospc, spike))| {
            let mut plan = FaultPlan::zero_rate(seed)
                .with_error_ppm(read_ppm as u32, write_ppm as u32)
                .with_retries(3, 1_000);
            if spike > 0 {
                plan = plan.with_spike(64 * spike, 16, 4);
            }
            if enospc < 8 {
                plan = plan.with_enospc_after(enospc as u32);
            }
            plan
        })
}

/// Retries and degradation are performance events, not data events
/// (DESIGN.md §10): under any plan the oracle and the heap checker (armed
/// at every GC boundary) hold, and H2 degrades to the no-H2 baseline only
/// when the plan could starve it.
#[test]
fn faults_arm_completes_or_degrades_cleanly() {
    check("faults_arm", &(fault_plan(), program(1..64)), &Config::with_cases(64), |(plan, ops)| {
        let m = run(h2_heap(HeapConfig { heap_check: true, ..config() }, plan), Access::Loop, &ops);
        if let Err(e) = m.heap.heap_check() {
            return CaseResult::Fail(format!("final heap_check: {e}"));
        }
        let h2 = m.heap.h2().unwrap();
        if h2.is_degraded() {
            prop_assert!(
                plan.enospc_after_regions.is_some() || plan.write_err_ppm > 0,
                "degraded without any H2-starving fault configured"
            );
        }
        CaseResult::Pass
    });
}

/// One cell of the configuration product: a heap configuration
/// `HeapConfig::validate` accepts, the H2 device and a zero-rate or chaos
/// fault plan.
fn product_cell() -> impl Strategy<Value = (HeapConfig, DeviceSpec, FaultPlan)> {
    (
        (range_usize(0..3), range_usize(1..9)),
        (range_usize(0..3), range_u64(0..2), range_u64(0..1 << 32)),
    )
        .prop_map(|((variant, gc_threads), (device, chaos, seed))| {
            let variant = [
                GcVariant::ParallelScavenge,
                GcVariant::G1 { region_words: 128 },
                GcVariant::Panthera { old_dram_words: 1 << 10 },
            ][variant];
            let config = HeapConfig { variant, gc_threads, heap_check: true, ..config() };
            config.validate().expect("HeapConfig::validate accepts every sampled cell");
            let spec = [DeviceSpec::nvme_ssd(), DeviceSpec::optane_nvm(), DeviceSpec::dram()];
            let faults =
                if chaos == 1 { FaultPlan::chaos(seed) } else { FaultPlan::zero_rate(seed) };
            (config, spec[device], faults)
        })
}

/// The oracle holds, with the heap checker armed at every GC boundary, in
/// any cell of the configuration product, through any access path.
#[test]
fn product_arm_holds_across_configurations() {
    let strategy = ((product_cell(), access()), program(1..80));
    check("product_arm", &strategy, &Config::with_cases(64), |((cell, access), ops)| {
        let (config, spec, faults) = cell;
        let mut heap = Heap::new(config);
        attach_workload_h2(&mut heap, spec, faults);
        run(heap, access, &ops);
        CaseResult::Pass
    });
}
