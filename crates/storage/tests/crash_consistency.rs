//! Crash-consistency sweep over the durable H2 image.
//!
//! A scripted sequence of durable write-back batches is first run fault-free
//! to establish the ground truth (and to count its write-back boundaries).
//! The sweep then crashes the run at **every** boundary — exhaustively, not
//! sampled — across several tear-order seeds, and checks the storage layer's
//! crash contract:
//!
//! * every page of the crashed batch is *old*, *new*, or *checksum-detected*
//!   as torn — a silently corrupted page (neither old nor new yet passing
//!   `verify`) is never possible;
//! * pages outside the crashed batch are untouched;
//! * the metadata journal (written only after its data, WAL order) never
//!   covers data that did not reach the device;
//! * the store freezes at the crash and, after repair + `clear_crash`,
//!   replaying from the crashed batch converges to the fault-free image.
//!
//! The `MmapSim` regressions at the bottom pin the page-cache state machine
//! around `discard` — the call the runtime uses to drop a rolled-back
//! region's pages after a crash — which previously had no coverage for
//! readahead-head and most-recent-page invalidation.

use std::sync::Arc;

use teraheap_storage::{
    Category, DeviceSpec, DurableStore, FaultPlan, FaultPlane, MmapSim, SimClock,
    WriteBackOutcome,
};

const PW: usize = 8;
const PAGES: usize = 16;
const WORDS: usize = PW * PAGES;

/// The scripted write-back schedule: each entry is one durable boundary.
/// Pages repeat across batches so crashes hit both first writes and
/// overwrites.
fn batches() -> Vec<Vec<u64>> {
    vec![
        vec![0, 1, 2, 3],
        vec![2, 5],
        vec![4, 5, 6, 7, 8],
        vec![0, 9],
        vec![10, 11, 12],
        vec![3, 6, 13, 14, 15],
        vec![1],
        vec![7, 8, 9, 10, 11],
    ]
}

/// Mutates the volatile image for batch `k`: every page in the batch gets
/// fresh, batch-tagged content, so old/new/torn states are all distinct.
fn mutate(src: &mut [u64], k: usize, pages: &[u64]) {
    for &p in pages {
        let lo = p as usize * PW;
        for (i, w) in src[lo..lo + PW].iter_mut().enumerate() {
            *w = (k as u64 + 1) * 1_000_000 + p * 1_000 + i as u64;
        }
    }
}

/// Runs the script fault-free and returns the durable image snapshot after
/// every batch (`snap[0]` is the fresh store, `snap[k]` after batch `k`).
fn fault_free_snapshots() -> Vec<Vec<u64>> {
    let mut store = DurableStore::new(WORDS, PW);
    let mut src = vec![0u64; WORDS];
    let mut snaps = vec![store.words().to_vec()];
    for (k, batch) in batches().iter().enumerate() {
        mutate(&mut src, k, batch);
        assert_eq!(store.write_back(batch, &src, None), WriteBackOutcome::Applied);
        store.set_meta(0, (k + 1) as u64, 0);
        assert!(store.verify().is_empty(), "fault-free run must stay verified");
        snaps.push(store.words().to_vec());
    }
    snaps
}

#[test]
fn fault_free_script_is_deterministic_and_zero_rate_matches() {
    let a = fault_free_snapshots();
    let b = fault_free_snapshots();
    assert_eq!(a, b, "fault-free durable images must be bit-identical");

    // A zero-rate plane counts boundaries but must not disturb a single
    // durable word relative to the plane-absent run.
    let plane = FaultPlane::new(FaultPlan::zero_rate(42));
    let mut store = DurableStore::new(WORDS, PW);
    let mut src = vec![0u64; WORDS];
    for (k, batch) in batches().iter().enumerate() {
        mutate(&mut src, k, batch);
        assert_eq!(
            store.write_back(batch, &src, Some(&plane)),
            WriteBackOutcome::Applied
        );
    }
    assert_eq!(plane.writebacks(), batches().len() as u64);
    assert_eq!(store.words(), &a[a.len() - 1][..]);
    assert!(store.verify().is_empty());
}

/// The tentpole sweep: crash at every write-back boundary of the script,
/// across several tear-order seeds, and prove zero silent-corruption
/// escapes.
#[test]
fn crash_sweep_every_boundary_never_silent() {
    let snaps = fault_free_snapshots();
    let script = batches();
    let boundaries = script.len() as u64;
    for seed in [1u64, 7, 23] {
        for b in 1..=boundaries {
            let plane =
                FaultPlane::new(FaultPlan::none().with_seed(seed).with_crash_at_writeback(b));
            let mut store = DurableStore::new(WORDS, PW);
            let mut src = vec![0u64; WORDS];
            let mut crashed_at = None;
            for (k, batch) in script.iter().enumerate() {
                mutate(&mut src, k, batch);
                match store.write_back(batch, &src, Some(&plane)) {
                    WriteBackOutcome::Applied => store.set_meta(0, (k + 1) as u64, 0),
                    WriteBackOutcome::Crashed => {
                        crashed_at = Some(k);
                        // The script keeps running (the workload does not
                        // know the device died); everything from here on is
                        // ignored by the frozen store.
                    }
                    WriteBackOutcome::Ignored => {
                        assert!(crashed_at.is_some(), "Ignored before any crash")
                    }
                }
            }
            let k = crashed_at.expect("crash point must fire during the script") ;
            assert_eq!(k as u64 + 1, b, "crash must fire at exactly boundary {b}");
            assert!(store.crashed());

            // WAL ordering: metadata never runs ahead of its data.
            assert_eq!(
                store.meta(0).0,
                b - 1,
                "seed {seed} boundary {b}: watermark covers unwritten data"
            );

            let before = &snaps[k]; // durable image entering the crashed batch
            let after = &snaps[k + 1]; // image had the batch completed
            let detected = store.verify();
            assert!(
                detected.iter().all(|p| store.torn_pages().contains(p)),
                "seed {seed} boundary {b}: checksum mismatch outside the torn set"
            );
            assert!(store.torn_pages().len() <= 1, "at most one page tears");
            for p in 0..PAGES as u64 {
                let lo = p as usize * PW;
                let content = &store.words()[lo..lo + PW];
                let is_old = content == &before[lo..lo + PW];
                let is_new = content == &after[lo..lo + PW];
                if !script[k].contains(&p) {
                    assert!(
                        is_old,
                        "seed {seed} boundary {b}: page {p} outside the batch changed"
                    );
                    continue;
                }
                assert!(
                    is_old || is_new || detected.contains(&p),
                    "seed {seed} boundary {b}: page {p} silently corrupted"
                );
            }
        }
    }
}

/// Repairing the torn pages, clearing the crash and replaying from the
/// crashed batch converges to the fault-free durable image — the storage
/// half of `H2::recover`.
#[test]
fn crash_recovery_replays_to_the_fault_free_image() {
    let snaps = fault_free_snapshots();
    let script = batches();
    let final_image = &snaps[snaps.len() - 1];
    for b in 1..=script.len() as u64 {
        let plane =
            FaultPlane::new(FaultPlan::none().with_seed(9).with_crash_at_writeback(b));
        let mut store = DurableStore::new(WORDS, PW);
        let mut src = vec![0u64; WORDS];
        let mut crashed_batch = None;
        for (k, batch) in script.iter().enumerate() {
            mutate(&mut src, k, batch);
            match store.write_back(batch, &src, Some(&plane)) {
                WriteBackOutcome::Crashed => {
                    crashed_batch = Some(k);
                    break;
                }
                WriteBackOutcome::Applied => {}
                WriteBackOutcome::Ignored => unreachable!("stopped at the crash"),
            }
        }
        let k = crashed_batch.unwrap();

        // Recovery: quarantine-repair every detected page (redo from the
        // surviving volatile image), thaw the store and the plane, re-issue
        // the interrupted batch, then run the remainder of the script.
        for p in store.verify() {
            store.rewrite_page(p as usize, &src);
        }
        store.clear_crash();
        plane.clear_crash();
        assert!(store.verify().is_empty(), "repair must restore every checksum");
        assert_eq!(
            store.write_back(&script[k], &src, Some(&plane)),
            WriteBackOutcome::Applied,
            "the consumed crash point must not re-fire"
        );
        for (k2, batch) in script.iter().enumerate().skip(k + 1) {
            mutate(&mut src, k2, batch);
            assert_eq!(
                store.write_back(batch, &src, Some(&plane)),
                WriteBackOutcome::Applied
            );
        }
        assert_eq!(
            store.words(),
            &final_image[..],
            "boundary {b}: recovery + replay must converge to the fault-free image"
        );
        assert!(store.verify().is_empty());
    }
}

/// A torn page whose halves actually differ must always be caught by the
/// checksum — detection is honest, never silent.
#[test]
fn torn_page_is_detected_not_trusted() {
    let mut seen_tear = false;
    for seed in 0..64u64 {
        let plane =
            FaultPlane::new(FaultPlan::none().with_seed(seed).with_crash_at_writeback(1));
        let mut store = DurableStore::new(WORDS, PW);
        let mut src = vec![0u64; WORDS];
        let batch: Vec<u64> = (0..PAGES as u64).collect();
        mutate(&mut src, 0, &batch);
        assert_eq!(
            store.write_back(&batch, &src, Some(&plane)),
            WriteBackOutcome::Crashed
        );
        if let [page] = store.torn_pages() {
            seen_tear = true;
            // Old content was zero, new is batch-tagged, so the half-write
            // must mismatch its (stale) checksum.
            assert!(
                store.verify().contains(page),
                "seed {seed}: torn page {page} passed verification"
            );
            assert!(!store.page_ok(*page as usize));
        }
    }
    assert!(seen_tear, "no seed in the sweep produced a torn page");
}

// ---------------------------------------------------------------------------
// MmapSim regressions: `discard` after a crash-point rollback (satellite 4).
// The runtime discards a rolled-back region's pages during recovery; these
// pin the page-cache state the next touches observe.
// ---------------------------------------------------------------------------

fn armed_map(plan: FaultPlan) -> (MmapSim, Arc<SimClock>, Arc<FaultPlane>) {
    let clock = Arc::new(SimClock::new());
    let mut map = MmapSim::new(DeviceSpec::nvme_ssd(), 1 << 20, 1 << 20, 4096, clock.clone());
    let plane = FaultPlane::new(plan);
    map.set_fault_plane(plane.clone());
    (map, clock, plane)
}

#[test]
fn discard_after_rollback_invalidates_readahead_heads() {
    let (mut map, _clock, _plane) = armed_map(FaultPlan::zero_rate(3));
    // Establish a sequential stream over pages 0..6 (5 readahead faults).
    for p in 0..6usize {
        map.touch_read(p * 4096, 8, Category::MajorGc);
    }
    assert_eq!(map.stats().seq_faults(), 5);
    // Roll back the "region" covering pages 4..6 — the stream head (5)
    // lies inside the discarded range.
    map.discard(4 * 4096, 2 * 4096);
    // Re-faulting page 6 must be a fresh, non-sequential fault: its
    // predecessor no longer exists on the device.
    let faults = map.stats().page_faults();
    map.touch_read(6 * 4096, 8, Category::MajorGc);
    assert_eq!(map.stats().page_faults(), faults + 1);
    assert_eq!(
        map.stats().seq_faults(),
        5,
        "a fault after a rollback discard must not ride the discarded stream"
    );
}

#[test]
fn discard_after_a_touch_run_does_not_resurrect_the_page() {
    let (mut map, _clock, _plane) = armed_map(FaultPlan::zero_rate(4));
    // A run of touches leaves page 0 at the front of the recency list; the
    // discard must drop it all the same.
    for _ in 0..16 {
        map.touch_write(0, 8, Category::Mutator);
    }
    assert_eq!(map.resident_pages(), 1);
    map.discard(0, 4096);
    assert_eq!(map.resident_pages(), 0, "the most recent page must not survive discard");
    // And the page is really gone: the next touch re-faults and re-charges.
    let faults = map.stats().page_faults();
    map.touch_read(0, 8, Category::Mutator);
    assert_eq!(map.stats().page_faults(), faults + 1);
    assert_eq!(map.resident_pages(), 1);
}

#[test]
fn discard_recharges_fault_costs_after_recovery() {
    let (mut map, clock, plane) = armed_map(FaultPlan::zero_rate(5));
    map.touch_read(0, 4096, Category::Mutator);
    let ns_first = clock.total_ns();
    // Crash + recovery rolls the region back; its pages are discarded.
    plane.clear_crash();
    map.discard(0, 4096);
    // The re-touch after recovery pays the full fault again — the discard
    // must not leave a cached entry that would make recovery look free.
    map.touch_read(0, 4096, Category::Mutator);
    assert_eq!(
        clock.total_ns(),
        2 * ns_first,
        "post-recovery re-fault must cost the same as the original fault"
    );
}

#[test]
fn discard_is_not_durable_writeback_traffic() {
    let (mut map, _clock, _plane) = armed_map(FaultPlan::zero_rate(6));
    map.touch_write(0, 3 * 4096, Category::Mutator);
    map.flush(Category::Io);
    assert_eq!(map.take_writeback_pages(), vec![0, 1, 2]);
    // Dirty pages dropped by a rollback discard must never reach the
    // durable mirror: rollback is the opposite of write-back.
    map.touch_write(0, 3 * 4096, Category::Mutator);
    map.discard(0, 3 * 4096);
    assert_eq!(map.take_writeback_pages(), Vec::<u64>::new());
    assert_eq!(map.resident_pages(), 0);
}

/// Storage-level differential: an armed zero-rate plane charges exactly the
/// nanoseconds and statistics of the plane-absent page cache.
#[test]
fn zero_rate_plane_is_cost_identical_to_no_plane() {
    let clock_off = Arc::new(SimClock::new());
    let mut off = MmapSim::new(DeviceSpec::nvme_ssd(), 1 << 20, 8 * 4096, 4096, clock_off.clone());
    let (mut on, clock_on, _plane) = {
        let clock = Arc::new(SimClock::new());
        let mut map = MmapSim::new(DeviceSpec::nvme_ssd(), 1 << 20, 8 * 4096, 4096, clock.clone());
        let plane = FaultPlane::new(FaultPlan::zero_rate(7));
        map.set_fault_plane(plane.clone());
        (map, clock, plane)
    };
    for map in [&mut off, &mut on] {
        // Faults, sequential streams, evictions with write-back, a flush, a
        // discard, and DAX-free bulk runs — every cost path in one script.
        for p in 0..12usize {
            map.touch_write(p * 4096, 64, Category::Mutator);
        }
        map.touch_run(4096 - 16, 4096 * 2 + 32, true, Category::MajorGc);
        for i in 0..24usize {
            map.touch_read((i * 7 % 12) * 4096, 8, Category::MinorGc);
        }
        map.flush(Category::Io);
        map.discard(0, 4 * 4096);
        map.touch_read(0, 8, Category::Mutator);
    }
    for cat in [Category::Mutator, Category::MinorGc, Category::MajorGc, Category::Io] {
        assert_eq!(
            clock_off.category_ns(cat),
            clock_on.category_ns(cat),
            "zero-rate plane changed {cat:?} nanoseconds"
        );
    }
    assert_eq!(
        clock_off.tracer().charge_counts(),
        clock_on.tracer().charge_counts(),
        "zero-rate plane changed the charge-call count"
    );
    assert_eq!(off.stats().page_faults(), on.stats().page_faults());
    assert_eq!(off.stats().seq_faults(), on.stats().seq_faults());
    assert_eq!(off.stats().evictions(), on.stats().evictions());
    assert_eq!(off.stats().read_bytes(), on.stats().read_bytes());
    assert_eq!(off.stats().write_bytes(), on.stats().write_bytes());
    assert_eq!(on.stats().io_retries(), 0);
}
