//! Deterministic work-unit scheduler for the GC (DESIGN.md §11).
//!
//! Minor and major collections enumerate **work units** (root strips, card
//! stripes/chunks, gray packets, per-object-chunk plan/adjust/compact units)
//! and dispatch each to the least-loaded of `gc_threads` accounting lanes.
//! Units *execute* in one fixed serial order — the simulation is
//! sequential, so heap mutations, placement and checksums do not depend on
//! the lane count — but their CPU cost accumulates per lane, and at each
//! barrier the clock advances by the critical path
//! `max(lane) + (lanes - 1) * gc_barrier_sync_ns`.
//!
//! Lane picks depend only on previously accumulated unit costs (pure integer
//! arithmetic over the work counters), never on the tracer, the host, or
//! wall-clock state — so simulated time is bit-identical across runs and
//! hosts for any `gc_threads`, and `gc_threads = 1` charges the plain serial
//! sum (`floor(x/1)` is the identity and a single-lane barrier adds no sync
//! cost).
//!
//! When the heap checker is armed the scheduler also audits **coverage**:
//! phases declare their work domain (dirty cards, live objects) with
//! [`Scheduler::expect`], units [`Scheduler::claim`] what they process, and
//! the barrier panics — like `maybe_heap_check` — unless every key was
//! claimed exactly once.

use crate::check;
use teraheap_storage::obs::{EventKind, WorkUnitKind};
use teraheap_storage::{Category, LaneSet, SimClock};

/// Work-unit granularities. Coarse enough that unit events stay a small
/// multiple of the card-scan event volume, fine enough that lanes
/// load-balance real workloads.
pub(crate) const ROOT_STRIP: usize = 256;
pub(crate) const H1_CARD_STRIPE: usize = 16;
pub(crate) const H2_CARD_CHUNK: usize = 4;
pub(crate) const H2_WALK_CHUNK: u64 = 1024;
pub(crate) const GRAY_PACKET: usize = 64;
pub(crate) const OBJECT_CHUNK: usize = 256;

/// Coverage-key namespaces: a claim key is `(domain << 56) | value`, so card
/// indices and object addresses from different unit kinds in one phase
/// cannot collide.
pub(crate) const DOM_H1_CARD: u64 = 1 << 56;
pub(crate) const DOM_H2_CARD: u64 = 2 << 56;
pub(crate) const DOM_OBJECT: u64 = 3 << 56;

/// Per-collection work-unit scheduler: lane accounting plus (optional)
/// coverage auditing. One `Scheduler` lives for the duration of a minor
/// collection or a major cycle and fires a barrier per phase (and, for a
/// sliced cycle, per slice).
pub(crate) struct Scheduler {
    lanes: LaneSet,
    coverage: Option<Coverage>,
}

struct Coverage {
    expected: Vec<u64>,
    claims: Vec<u64>,
}

impl Scheduler {
    /// A scheduler over `gc_threads` lanes. `audit` arms coverage checking
    /// (the heap passes its checker flag so the audit costs nothing when
    /// off).
    pub(crate) fn new(gc_threads: usize, barrier_sync_ns: u64, audit: bool) -> Scheduler {
        Scheduler {
            lanes: LaneSet::new(gc_threads.max(1), barrier_sync_ns),
            coverage: audit.then(|| Coverage { expected: Vec::new(), claims: Vec::new() }),
        }
    }

    /// Sets the scaling applied to units' scaled ns at the next barrier
    /// (G1 marking discount, mixed-collection fraction). Call between
    /// phases only.
    pub(crate) fn set_milli(&mut self, milli: u64) {
        self.lanes.set_milli(milli);
    }

    /// Dispatches a unit: deterministically picks the least-loaded lane and
    /// emits `UnitBegin`. The caller runs the unit and must pair this with
    /// [`Scheduler::end_unit`] on the returned lane.
    pub(crate) fn begin_unit(&mut self, clock: &SimClock, kind: WorkUnitKind) -> usize {
        let lane = self.lanes.pick();
        clock.emit(EventKind::UnitBegin { lane: lane as u32, kind });
        lane
    }

    /// Dispatches a chunk of a serial dependency chain: always lane 0, so
    /// chunked serial work (candidate selection, H2 address assignment) is
    /// never credited with cross-lane parallelism its execution order
    /// forbids.
    pub(crate) fn begin_serial_unit(&mut self, clock: &SimClock, kind: WorkUnitKind) -> usize {
        clock.emit(EventKind::UnitBegin { lane: 0, kind });
        0
    }

    /// Retires a unit, charging `scaled_ns` (subject to the phase milli at
    /// the barrier) and `flat_ns` to its lane, and emits `UnitEnd` with the
    /// raw (unscaled) cost.
    pub(crate) fn end_unit(
        &mut self,
        clock: &SimClock,
        lane: usize,
        kind: WorkUnitKind,
        scaled_ns: u64,
        flat_ns: u64,
    ) {
        self.lanes.charge(lane, scaled_ns, flat_ns);
        clock.emit(EventKind::UnitEnd {
            lane: lane as u32,
            kind,
            cost_ns: scaled_ns + flat_ns,
        });
    }

    /// The ns the next barrier would advance the clock by for the units
    /// charged so far (critical path + sync), without firing it. The major
    /// cycle's drive loop polls this after every unit to bound a slice's
    /// pause at its budget.
    pub(crate) fn pending_ns(&self) -> u64 {
        self.lanes.pending_advance_ns()
    }

    /// Declares `key` part of the current phase's work domain (no-op unless
    /// auditing).
    pub(crate) fn expect(&mut self, key: u64) {
        if let Some(cov) = &mut self.coverage {
            cov.expected.push(key);
        }
    }

    /// Records that the running unit processed `key` (no-op unless
    /// auditing).
    pub(crate) fn claim(&mut self, key: u64) {
        if let Some(cov) = &mut self.coverage {
            cov.claims.push(key);
        }
    }

    /// Ends the phase: audits coverage (panicking on the first violation,
    /// like the heap checker), advances the clock by the critical path in
    /// one charge, emits `LaneBarrier`, and returns the lanes' total stall
    /// ns for [`crate::stats::GcStats::lane_stall_ns`]. An empty phase (no
    /// units) advances nothing and emits nothing.
    pub(crate) fn barrier(
        &mut self,
        clock: &SimClock,
        cat: Category,
        phase: &'static str,
    ) -> u64 {
        if let Some(cov) = &mut self.coverage {
            if let Err(e) = check::validate_unit_coverage(phase, &mut cov.expected, &mut cov.claims)
            {
                panic!("work-unit coverage violation: {e}");
            }
            cov.expected.clear();
            cov.claims.clear();
        }
        let units = self.lanes.units();
        let (advance, stall) = self.lanes.barrier(clock, cat);
        if units > 0 {
            clock.emit(EventKind::LaneBarrier {
                lanes: self.lanes.lanes() as u32,
                units,
                advance_ns: advance,
                stall_ns: stall,
            });
        }
        stall
    }

    /// Discards all pending lane charges and coverage without advancing the
    /// clock — for collections aborted mid-phase (planning overflow), which
    /// charge nothing for the aborted phase.
    pub(crate) fn abandon(&mut self) {
        self.lanes.abandon();
        if let Some(cov) = &mut self.coverage {
            cov.expected.clear();
            cov.claims.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_lane_barrier_is_plain_sum() {
        let clock = SimClock::new();
        let mut s = Scheduler::new(1, 25, false);
        let lane = s.begin_unit(&clock, WorkUnitKind::RootStrip);
        s.end_unit(&clock, lane, WorkUnitKind::RootStrip, 100, 7);
        let stall = s.barrier(&clock, Category::MinorGc, "test");
        assert_eq!(stall, 0);
        assert_eq!(clock.category_ns(Category::MinorGc), 107);
    }

    #[test]
    fn lanes_spread_units_and_pay_sync() {
        let clock = SimClock::new();
        let mut s = Scheduler::new(2, 25, false);
        for cost in [100, 100] {
            let lane = s.begin_unit(&clock, WorkUnitKind::GrayPacket);
            s.end_unit(&clock, lane, WorkUnitKind::GrayPacket, 0, cost);
        }
        s.barrier(&clock, Category::MinorGc, "test");
        // Two equal units land on different lanes: critical path 100 + one
        // extra-lane sync of 25.
        assert_eq!(clock.category_ns(Category::MinorGc), 125);
    }

    #[test]
    #[should_panic(expected = "coverage violation")]
    fn unclaimed_key_panics_at_barrier() {
        let clock = SimClock::new();
        let mut s = Scheduler::new(2, 25, true);
        s.expect(DOM_H1_CARD | 3);
        let lane = s.begin_unit(&clock, WorkUnitKind::H1CardStripe);
        s.end_unit(&clock, lane, WorkUnitKind::H1CardStripe, 1, 0);
        s.barrier(&clock, Category::MinorGc, "test");
    }

    #[test]
    fn claimed_domain_passes_audit() {
        let clock = SimClock::new();
        let mut s = Scheduler::new(2, 25, true);
        for card in [7u64, 9] {
            s.expect(DOM_H1_CARD | card);
        }
        let lane = s.begin_unit(&clock, WorkUnitKind::H1CardStripe);
        s.claim(DOM_H1_CARD | 9);
        s.claim(DOM_H1_CARD | 7);
        s.end_unit(&clock, lane, WorkUnitKind::H1CardStripe, 1, 0);
        s.barrier(&clock, Category::MinorGc, "test");
        // Audit state clears per phase: an empty follow-up barrier passes.
        s.barrier(&clock, Category::MinorGc, "next");
    }

    #[test]
    fn abandon_discards_lane_charges_and_coverage() {
        let clock = SimClock::new();
        let mut s = Scheduler::new(2, 25, true);
        s.expect(DOM_OBJECT | 1);
        let lane = s.begin_unit(&clock, WorkUnitKind::PlanChunk);
        s.end_unit(&clock, lane, WorkUnitKind::PlanChunk, 500, 0);
        s.abandon();
        let stall = s.barrier(&clock, Category::MajorGc, "test");
        assert_eq!(stall, 0);
        assert_eq!(clock.total_ns(), 0);
    }
}
