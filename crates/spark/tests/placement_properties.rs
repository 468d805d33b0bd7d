//! Property-based tests for the online placement cost model.
//!
//! The adaptive placement decision must be a deterministic pure function of
//! its observed inputs (so runs replay bit-identically under a fixed seed)
//! and *monotone* in the obvious directions: making a tier more expensive
//! can never make the model like that tier more.
//!
//! Runs on the in-repo harness (`teraheap_util::proptest_mini`): cases are
//! seeded deterministically, failures shrink and print a
//! `TERAHEAP_PROP_SEED` for replay.

use mini_spark::placement::{decide, Placement, PlacementInputs, PlacementModel};
use teraheap_storage::DeviceSpec;
use teraheap_util::proptest_mini::{
    check, range_u64, range_usize, vec_of, CaseResult, Config, Strategy,
};
use teraheap_util::{prop_assert, prop_assert_eq};

const CASES: u32 = 256;

/// A random but valid decision input vector.
fn inputs() -> impl Strategy<Value = PlacementInputs> {
    (
        (
            (
                range_u64(1..1 << 16), // words
                range_u64(8..1 << 20), // bytes
                range_u64(0..64),      // expected_gets
            ),
            range_u64(0..20_000), // serde_ns_per_kb
        ),
        (
            range_u64(0..1 << 24), // sd_read_ns
            range_u64(0..1 << 24), // sd_write_ns
        ),
        (
            (
                range_u64(0..1 << 24), // h2_read_ns
                range_u64(0..1 << 24), // h2_write_ns
            ),
            (
                range_usize(0..2), // onheap_fits
                range_usize(0..2), // h2_available
                range_u64(0..64),  // gc_copy_ns_per_word
            ),
        ),
    )
        .prop_map(
            |(
                ((words, bytes, expected_gets), serde_ns_per_kb),
                (sd_read_ns, sd_write_ns),
                ((h2_read_ns, h2_write_ns), (fits, avail, gc_copy_ns_per_word)),
            )| PlacementInputs {
                words,
                bytes,
                expected_gets,
                serde_ns_per_kb,
                sd_read_ns,
                sd_write_ns,
                h2_read_ns,
                h2_write_ns,
                onheap_fits: fits == 1,
                h2_available: avail == 1,
                gc_copy_ns_per_word,
            },
        )
}

/// Raising the measured S/D cost never flips a decision *toward* the
/// serialized tier.
#[test]
fn raising_serde_cost_never_flips_toward_serialized() {
    check(
        "raising_serde_cost_never_flips_toward_serialized",
        &(inputs(), range_u64(1..1 << 20)),
        &Config::with_cases(CASES),
        |(base, delta): (PlacementInputs, u64)| {
            let before = decide(&base);
            let mut dearer = base;
            dearer.serde_ns_per_kb = dearer.serde_ns_per_kb.saturating_add(delta);
            let after = decide(&dearer);
            if before != Placement::Serialized {
                prop_assert!(
                    after != Placement::Serialized,
                    "raising serde cost flipped {before:?} -> Serialized"
                );
            }
            CaseResult::Pass
        },
    );
}

/// Raising the serialized-cache device latency never flips a decision
/// toward the serialized tier.
#[test]
fn raising_sd_latency_never_flips_toward_serialized() {
    check(
        "raising_sd_latency_never_flips_toward_serialized",
        &(inputs(), range_u64(1..1 << 24), range_u64(1..1 << 24)),
        &Config::with_cases(CASES),
        |(base, dr, dw): (PlacementInputs, u64, u64)| {
            let before = decide(&base);
            let mut dearer = base;
            dearer.sd_read_ns = dearer.sd_read_ns.saturating_add(dr);
            dearer.sd_write_ns = dearer.sd_write_ns.saturating_add(dw);
            let after = decide(&dearer);
            if before != Placement::Serialized {
                prop_assert!(
                    after != Placement::Serialized,
                    "raising S/D device latency flipped {before:?} -> Serialized"
                );
            }
            CaseResult::Pass
        },
    );
}

/// Raising the H2 device latency never flips a decision toward H2.
#[test]
fn raising_h2_latency_never_flips_toward_h2() {
    check(
        "raising_h2_latency_never_flips_toward_h2",
        &(inputs(), range_u64(1..1 << 24), range_u64(1..1 << 24)),
        &Config::with_cases(CASES),
        |(base, dr, dw): (PlacementInputs, u64, u64)| {
            let before = decide(&base);
            let mut dearer = base;
            dearer.h2_read_ns = dearer.h2_read_ns.saturating_add(dr);
            dearer.h2_write_ns = dearer.h2_write_ns.saturating_add(dw);
            let after = decide(&dearer);
            if before != Placement::H2 {
                prop_assert!(after != Placement::H2, "raising H2 latency flipped {before:?} -> H2");
            }
            CaseResult::Pass
        },
    );
}

/// An unavailable tier is never chosen, whatever the other inputs.
#[test]
fn unavailable_tiers_are_never_chosen() {
    check(
        "unavailable_tiers_are_never_chosen",
        &inputs(),
        &Config::with_cases(CASES),
        |base: PlacementInputs| {
            let d = decide(&base);
            if !base.h2_available {
                prop_assert!(d != Placement::H2);
            }
            if !base.onheap_fits {
                prop_assert!(d != Placement::OnHeap);
            }
            CaseResult::Pass
        },
    );
}

/// A scripted observation sequence: puts, gets and measured Kryo runs.
/// Op codes: 0 = note_put, 1 = note_get, 2 = observe_serde, 3 = decide.
fn observation_script() -> impl Strategy<Value = Vec<(usize, u64, u64, u64)>> {
    vec_of(
        (
            (range_usize(0..4), range_u64(0..6)),           // op, rdd
            (range_u64(8..1 << 16), range_u64(1..1 << 20)), // bytes, ns/words
        )
            .prop_map(|((op, rdd), (bytes, ns))| (op, rdd, bytes, ns)),
        1..80,
    )
}

fn replay(script: &[(usize, u64, u64, u64)]) -> (Vec<Placement>, u64) {
    let mut m = PlacementModel::new(DeviceSpec::nvme_ssd(), 4 * 1024 + 45, 2);
    let mut decisions = Vec::new();
    for &(op, rdd, bytes, ns) in script {
        match op {
            0 => m.note_put(rdd),
            1 => m.note_get(rdd),
            2 => m.observe_serde(bytes, ns),
            _ => decisions.push(m.decide(rdd, ns / 8 + 1, bytes, true, true)),
        }
    }
    (decisions, m.serde_ns_per_kb())
}

/// The whole stateful model is deterministic: replaying one observation
/// script produces bit-identical decisions and learned S/D cost.
#[test]
fn model_replays_identically() {
    check(
        "model_replays_identically",
        &observation_script(),
        &Config::with_cases(CASES),
        |script: Vec<(usize, u64, u64, u64)>| {
            let (d1, s1) = replay(&script);
            let (d2, s2) = replay(&script);
            prop_assert_eq!(d1, d2);
            prop_assert_eq!(s1, s2);
            CaseResult::Pass
        },
    );
}

/// More observed gets per put can only move a decision away from the
/// pay-per-get serialized tier (hot data earns residency).
#[test]
fn observed_reuse_never_flips_toward_serialized() {
    check(
        "observed_reuse_never_flips_toward_serialized",
        &(range_u64(1..32), range_u64(8..1 << 18)),
        &Config::with_cases(CASES),
        |(extra_gets, bytes): (u64, u64)| {
            let mk = |gets: u64| {
                let mut m = PlacementModel::new(DeviceSpec::nvme_ssd(), 4 * 1024 + 45, 2);
                m.note_put(7);
                for _ in 0..gets {
                    m.note_get(7);
                }
                m.decide(7, bytes / 8 + 1, bytes, true, true)
            };
            let cold = mk(1);
            let hot = mk(1 + extra_gets);
            if cold != Placement::Serialized {
                prop_assert!(
                    hot != Placement::Serialized,
                    "more reuse flipped {cold:?} -> Serialized"
                );
            }
            CaseResult::Pass
        },
    );
}
