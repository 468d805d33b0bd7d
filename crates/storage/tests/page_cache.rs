//! `MmapSim::discard` as the dead-region sweep uses it.
//!
//! When a major GC frees an H2 region, `H2::propagate_and_sweep` drops the
//! region's resident pages with `discard` (`madvise(MADV_DONTNEED)`): the
//! contents are garbage, so nothing is written back. These pin the
//! page-cache state the next touches observe — readahead heads, the most
//! recent page, the re-fault cost — on a mapping with an armed zero-rate
//! fault plane, and that the armed plane charges exactly what no plane does.

use std::sync::Arc;

use teraheap_storage::obs::{EventKind, Level};
use teraheap_storage::{Category, DeviceSpec, FaultPlan, FaultPlane, MmapSim, SimClock};

fn armed_map(seed: u64) -> (MmapSim, Arc<SimClock>) {
    let clock = Arc::new(SimClock::new());
    let mut map = MmapSim::new(DeviceSpec::nvme_ssd(), 1 << 20, 1 << 20, 4096, clock.clone());
    map.set_fault_plane(FaultPlane::new(FaultPlan::zero_rate(seed)));
    (map, clock)
}

#[test]
fn sweep_discard_invalidates_readahead_heads() {
    let (mut map, _clock) = armed_map(3);
    // Establish a sequential stream over pages 0..6 (5 readahead faults).
    for p in 0..6usize {
        map.touch_read(p * 4096, 8, Category::MajorGc);
    }
    assert_eq!(map.stats().seq_faults(), 5);
    // Sweep the "region" covering pages 4..6 — the stream head (5) lies
    // inside the discarded range.
    map.discard(4 * 4096, 2 * 4096);
    // Re-faulting page 6 must be a fresh, non-sequential fault: its
    // predecessor no longer exists on the device.
    let faults = map.stats().page_faults();
    map.touch_read(6 * 4096, 8, Category::MajorGc);
    assert_eq!(map.stats().page_faults(), faults + 1);
    assert_eq!(
        map.stats().seq_faults(),
        5,
        "a fault after a sweep discard must not ride the discarded stream"
    );
}

#[test]
fn discard_after_a_touch_run_does_not_resurrect_the_page() {
    let (mut map, _clock) = armed_map(4);
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
fn discard_recharges_fault_costs_after_a_sweep() {
    let (mut map, clock) = armed_map(5);
    map.touch_read(0, 4096, Category::Mutator);
    let ns_first = clock.total_ns();
    map.discard(0, 4096);
    // The re-touch after the sweep pays the full fault again — the discard
    // must not leave a cached entry that would make the reused region free.
    map.touch_read(0, 4096, Category::Mutator);
    assert_eq!(
        clock.total_ns(),
        2 * ns_first,
        "a re-fault after a sweep must cost the same as the original fault"
    );
}

#[test]
fn a_discard_writes_nothing_back() {
    let (mut map, clock) = armed_map(6);
    clock.tracer().set_level(Level::Full);
    map.touch_write(0, 3 * 4096, Category::Mutator);
    let written = map.stats().write_bytes();
    // Dirty pages dropped by a sweep are garbage: no write-back traffic,
    // and no `WriteBack` event.
    map.discard(0, 3 * 4096);
    assert_eq!(map.resident_pages(), 0);
    assert_eq!(map.stats().write_bytes(), written);
    let write_backs = clock.tracer().events().into_iter().filter(|e| {
        matches!(e.kind, EventKind::WriteBack { .. } | EventKind::PageEvict { writeback: true })
    });
    assert_eq!(write_backs.count(), 0);
    // Nothing is left dirty for a later msync either.
    map.flush(Category::Io);
    assert_eq!(map.stats().write_bytes(), written);
}

/// Storage-level differential: an armed zero-rate plane charges exactly the
/// nanoseconds and statistics of the plane-absent page cache.
#[test]
fn zero_rate_plane_is_cost_identical_to_no_plane() {
    let clock_off = Arc::new(SimClock::new());
    let mut off = MmapSim::new(DeviceSpec::nvme_ssd(), 1 << 20, 8 * 4096, 4096, clock_off.clone());
    let clock_on = Arc::new(SimClock::new());
    let mut on = MmapSim::new(DeviceSpec::nvme_ssd(), 1 << 20, 8 * 4096, 4096, clock_on.clone());
    on.set_fault_plane(FaultPlane::new(FaultPlan::zero_rate(7)));
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
    assert!(on.fault_plane().expect("plane armed").io_ops() > 0, "the plane saw the device ops");
}
