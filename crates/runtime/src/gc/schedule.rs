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
//! `Scheduler::declare`, units `Scheduler::claim` what they process, and
//! the barrier panics — like `maybe_heap_check` — unless every key was
//! claimed exactly once.

use crate::check;
use teraheap_storage::obs::{EventKind, WorkUnitKind};
use teraheap_storage::{Category, SimClock};

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
/// collection or a major cycle and fires a barrier per phase.
///
/// Each unit's cost is split into a `scaled` part — subject to the phase's
/// `milli`/1000 scaling, applied once per lane at the barrier so a
/// single-lane phase reproduces the serial `floor(total * milli / 1000)`
/// exactly — and a `flat` part charged as-is (fixed per-phase overheads,
/// costs outside the scaling domain).
pub(crate) struct Scheduler {
    scaled: Vec<u64>,
    flat: Vec<u64>,
    milli: u64,
    sync_ns: u64,
    /// Units charged since the last barrier.
    units: u64,
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
        let lanes = gc_threads.max(1);
        Scheduler {
            scaled: vec![0; lanes],
            flat: vec![0; lanes],
            milli: 1000,
            sync_ns: barrier_sync_ns,
            units: 0,
            coverage: audit.then(|| Coverage { expected: Vec::new(), claims: Vec::new() }),
        }
    }

    /// Sets the scaling applied to units' scaled ns at the next barrier
    /// (G1 marking discount, mixed-collection fraction). Call between
    /// phases only.
    pub(crate) fn set_milli(&mut self, milli: u64) {
        debug_assert!(self.units == 0, "set_milli with {} units pending", self.units);
        self.milli = milli;
    }

    fn lanes(&self) -> usize {
        self.scaled.len()
    }

    fn effective(&self, lane: usize) -> u64 {
        self.scaled[lane] * self.milli / 1000 + self.flat[lane]
    }

    /// The least-loaded lane; ties break to the lowest index.
    fn pick(&self) -> usize {
        (0..self.lanes()).min_by_key(|&l| self.effective(l)).unwrap_or(0)
    }

    /// Critical-path length of the pending phase (longest lane, scaled).
    fn critical_ns(&self) -> u64 {
        (0..self.lanes()).map(|l| self.effective(l)).max().unwrap_or(0)
    }

    /// Dispatches a unit: deterministically picks the least-loaded lane and
    /// emits `UnitBegin`. The caller runs the unit and must pair this with
    /// [`Scheduler::end_unit`] on the returned lane.
    pub(crate) fn begin_unit(&mut self, clock: &SimClock, kind: WorkUnitKind) -> usize {
        let lane = self.pick();
        clock.emit(EventKind::UnitBegin { lane: lane as u32, kind });
        lane
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
        self.scaled[lane] += scaled_ns;
        self.flat[lane] += flat_ns;
        self.units += 1;
        clock.emit(EventKind::UnitEnd { lane: lane as u32, kind, cost_ns: scaled_ns + flat_ns });
    }

    /// Whether coverage is audited (the heap checker is armed).
    pub(crate) fn auditing(&self) -> bool {
        self.coverage.is_some()
    }

    /// Declares `key` part of the current phase's work domain (no-op unless
    /// auditing).
    pub(crate) fn declare(&mut self, key: u64) {
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
    pub(crate) fn barrier(&mut self, clock: &SimClock, cat: Category, phase: &'static str) -> u64 {
        if let Some(cov) = &mut self.coverage {
            if let Err(e) = check::validate_unit_coverage(phase, &mut cov.expected, &mut cov.claims)
            {
                panic!("work-unit coverage violation: {e}");
            }
            cov.expected.clear();
            cov.claims.clear();
        }
        if self.units == 0 {
            return 0;
        }
        // Each lane idles at the barrier until the critical-path lane arrives.
        let crit = self.critical_ns();
        let stall = (0..self.lanes()).map(|l| crit - self.effective(l)).sum();
        let advance = crit + (self.lanes() as u64 - 1) * self.sync_ns;
        clock.charge(cat, advance);
        clock.emit(EventKind::LaneBarrier {
            lanes: self.lanes() as u32,
            units: self.units,
            advance_ns: advance,
            stall_ns: stall,
        });
        self.reset_lanes();
        stall
    }

    /// Discards all pending lane charges and coverage without advancing the
    /// clock — for collections aborted mid-phase (planning overflow), which
    /// charge nothing for the aborted phase.
    pub(crate) fn abandon(&mut self) {
        self.reset_lanes();
        if let Some(cov) = &mut self.coverage {
            cov.expected.clear();
            cov.claims.clear();
        }
    }

    fn reset_lanes(&mut self) {
        self.scaled.fill(0);
        self.flat.fill(0);
        self.units = 0;
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
    fn single_lane_reproduces_serial_total() {
        let clock = SimClock::new();
        let mut s = Scheduler::new(1, 25, false);
        s.end_unit(&clock, 0, WorkUnitKind::GrayPacket, 100, 0);
        s.end_unit(&clock, 0, WorkUnitKind::GrayPacket, 50, 3);
        // One lane: no sync cost, no stall, advance is the plain sum.
        assert_eq!(s.barrier(&clock, Category::MinorGc, "test"), 0);
        assert_eq!(clock.category_ns(Category::MinorGc), 153);
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
    fn milli_scales_once_per_lane() {
        let clock = SimClock::new();
        let mut s = Scheduler::new(1, 25, false);
        s.set_milli(250);
        // 5 units of 3 ns each: per-unit floor(3/4) would lose everything;
        // per-lane floor(15/4) = 3 matches the serial floor(total / 4).
        for _ in 0..5 {
            s.end_unit(&clock, 0, WorkUnitKind::GrayPacket, 3, 0);
        }
        s.barrier(&clock, Category::MajorGc, "test");
        assert_eq!(clock.category_ns(Category::MajorGc), 15 * 250 / 1000);
    }

    #[test]
    fn pick_is_least_loaded_lowest_index() {
        let clock = SimClock::new();
        let mut s = Scheduler::new(3, 25, false);
        assert_eq!(s.pick(), 0, "all-zero ties break to lane 0");
        for (lane, cost, next) in [(0, 10, 1), (1, 10, 2), (2, 5, 2)] {
            s.end_unit(&clock, lane, WorkUnitKind::GrayPacket, 0, cost);
            assert_eq!(s.pick(), next);
        }
    }

    #[test]
    fn barrier_returns_the_lanes_stall_sum() {
        let clock = SimClock::new();
        let mut s = Scheduler::new(4, 25, false);
        s.end_unit(&clock, 0, WorkUnitKind::GrayPacket, 0, 100);
        s.end_unit(&clock, 1, WorkUnitKind::GrayPacket, 0, 40);
        // Lanes 2 and 3 stay idle; each lane waits for the 100 ns one.
        assert_eq!(s.barrier(&clock, Category::MinorGc, "test"), 60 + 100 + 100);
        assert_eq!(clock.category_ns(Category::MinorGc), 100 + 3 * 25);
    }

    #[test]
    #[should_panic(expected = "coverage violation")]
    fn unclaimed_key_panics_at_barrier() {
        let clock = SimClock::new();
        let mut s = Scheduler::new(2, 25, true);
        s.declare(DOM_H1_CARD | 3);
        let lane = s.begin_unit(&clock, WorkUnitKind::H1CardStripe);
        s.end_unit(&clock, lane, WorkUnitKind::H1CardStripe, 1, 0);
        s.barrier(&clock, Category::MinorGc, "test");
    }

    #[test]
    fn claimed_domain_passes_audit() {
        let clock = SimClock::new();
        let mut s = Scheduler::new(2, 25, true);
        for card in [7u64, 9] {
            s.declare(DOM_H1_CARD | card);
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
        s.declare(DOM_OBJECT | 1);
        let lane = s.begin_unit(&clock, WorkUnitKind::PlanChunk);
        s.end_unit(&clock, lane, WorkUnitKind::PlanChunk, 500, 0);
        s.abandon();
        let stall = s.barrier(&clock, Category::MajorGc, "test");
        assert_eq!(stall, 0);
        assert_eq!(clock.total_ns(), 0);
    }

    #[test]
    fn abandon_discards_without_charging() {
        let clock = SimClock::new();
        let mut s = Scheduler::new(2, 25, false);
        s.end_unit(&clock, 0, WorkUnitKind::GrayPacket, 1000, 1000);
        s.abandon();
        s.barrier(&clock, Category::MajorGc, "test");
        assert_eq!(clock.total_ns(), 0);
    }
}
