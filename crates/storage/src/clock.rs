//! Deterministic simulated clock with per-category time attribution.
//!
//! The paper breaks execution time into four components (§6): *other* time
//! (mutator compute, including page-fault I/O wait for TeraHeap), *S/D + I/O*
//! time, *minor GC* time and *major GC* time. [`SimClock`] accumulates
//! simulated nanoseconds into five internal categories which collapse onto
//! the paper's four in [`Breakdown`].
//!
//! The clock also hosts the flight recorder: a [`Tracer`] (from
//! `teraheap-obs`) rides inside every `SimClock`, so any component holding
//! the shared `Arc<SimClock>` can [`SimClock::emit`] typed events stamped
//! with the current simulated instant. Events *observe* the clock — they
//! never charge it — so tracing cannot change simulated time.

#[cfg(debug_assertions)]
use std::sync::atomic::AtomicBool;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use teraheap_obs::{EventKind, SpanKind, Tracer};

/// The cost category enum lives in `teraheap-obs` (events and charge
/// counters name categories there); re-exported here so downstream code
/// keeps importing `teraheap_storage::Category`.
pub use teraheap_obs::Category;

/// Deterministic simulated clock.
///
/// Shared behind an `Arc` between the heap, devices and frameworks of one
/// simulation. All times are simulated nanoseconds.
///
/// **Single writer.** One clock is charged by one thread at a time: a
/// simulation is sequential, and everything that fans simulations out over
/// host threads (the bench driver's `run_parallel`, the server's tenants)
/// gives each its own clock. Charging is therefore a relaxed load + store
/// on the atomics, not a locked read-modify-write — two threads charging
/// one clock concurrently would lose nanoseconds, so debug builds assert
/// they never do. A clock may move between threads, and any thread may
/// read it at any time.
#[derive(Debug, Default)]
pub struct SimClock {
    nanos: [AtomicU64; Category::COUNT],
    tracer: Tracer,
    /// Set while a charge is in flight (single-writer assertion).
    #[cfg(debug_assertions)]
    charging: AtomicBool,
}

/// Holds a clock's single-writer flag for the duration of one charge.
#[cfg(debug_assertions)]
struct ChargeGuard<'a>(&'a AtomicBool);

#[cfg(debug_assertions)]
impl Drop for ChargeGuard<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

impl SimClock {
    /// Creates a clock with all categories at zero and an
    /// environment-configured tracer (`TERAHEAP_OBS`, default full).
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `ns` simulated nanoseconds to `cat`.
    ///
    /// Charging routes through the tracer's per-category charge counter (a
    /// relaxed add, no ring traffic) so the recorder can attribute *how
    /// often* each category is charged without perturbing *what* is charged.
    #[inline]
    pub fn charge(&self, cat: Category, ns: u64) {
        self.tracer.note_charge(cat);
        self.advance(cat, ns);
    }

    /// Charges the sum of `charges` individual charge calls in one
    /// update: `ns` is the exact total the per-call loop would have added,
    /// and the tracer's per-category charge counter advances by `charges`.
    /// This is the clock half of the bulk access plane — callers batch the
    /// arithmetic, the accounting stays call-for-call identical.
    #[inline]
    pub fn charge_batched(&self, cat: Category, ns: u64, charges: u64) {
        self.tracer.note_charges(cat, charges);
        self.advance(cat, ns);
    }

    /// The single-writer update both charge forms share.
    #[inline]
    fn advance(&self, cat: Category, ns: u64) {
        #[cfg(debug_assertions)]
        let _writer = self.begin_charge();
        let n = &self.nanos[cat.index()];
        n.store(n.load(Ordering::Relaxed) + ns, Ordering::Relaxed);
    }

    /// Claims the single-writer flag, panicking if another thread holds it.
    #[cfg(debug_assertions)]
    fn begin_charge(&self) -> ChargeGuard<'_> {
        assert!(
            !self.charging.swap(true, Ordering::Acquire),
            "SimClock charged by two threads at once: give each simulation its own clock"
        );
        ChargeGuard(&self.charging)
    }

    /// Returns the nanoseconds accumulated in `cat`.
    pub fn category_ns(&self, cat: Category) -> u64 {
        self.nanos[cat.index()].load(Ordering::Relaxed)
    }

    /// Returns total simulated nanoseconds across all categories.
    ///
    /// This doubles as the current simulated "wall clock" instant, because
    /// the simulation is sequential: every charged nanosecond advances time.
    pub fn total_ns(&self) -> u64 {
        Category::ALL.iter().map(|&c| self.category_ns(c)).sum()
    }

    /// The flight recorder attached to this clock.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Records `kind` in the flight recorder, stamped with the current
    /// simulated instant. A no-op when tracing is off.
    pub fn emit(&self, kind: EventKind) {
        if self.tracer.enabled() {
            self.tracer.emit(self.total_ns(), kind);
        }
    }

    /// Opens a mutator-side span; the returned guard emits the matching
    /// `SpanEnd` (at the then-current simulated instant) when dropped.
    pub fn span(self: &Arc<Self>, kind: SpanKind) -> TraceSpan {
        self.emit(EventKind::SpanBegin { kind });
        TraceSpan { clock: Arc::clone(self), kind }
    }

    /// Snapshots the paper-style execution-time breakdown.
    pub fn breakdown(&self) -> Breakdown {
        Breakdown {
            other_ns: self.category_ns(Category::Mutator),
            sd_io_ns: self.category_ns(Category::SerDe) + self.category_ns(Category::Io),
            minor_gc_ns: self.category_ns(Category::MinorGc),
            major_gc_ns: self.category_ns(Category::MajorGc),
        }
    }

    /// Resets every category to zero and clears the flight recorder.
    pub fn reset(&self) {
        for n in &self.nanos {
            n.store(0, Ordering::Relaxed);
        }
        self.tracer.clear();
    }
}

/// RAII guard for a mutator-side span: holds the clock and emits
/// `SpanEnd` on drop. Owning an `Arc` (rather than borrowing the clock)
/// lets call sites keep the guard alive across `&mut` uses of the heap.
#[must_use = "the span closes when this guard is dropped"]
pub struct TraceSpan {
    clock: Arc<SimClock>,
    kind: SpanKind,
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        self.clock.emit(EventKind::SpanEnd { kind: self.kind });
    }
}

/// A local charge accumulator for the bulk access plane.
///
/// Hot loops that previously issued one `SimClock::charge` per word collect
/// their costs here instead: `add`/`add_many` are plain local integer
/// additions, and [`ChargeScope::flush`] lands the whole sum on the clock
/// with a single atomic update (while advancing the tracer's charge counter
/// by the number of calls the per-word loop would have made, so the
/// accounting stays bit-identical).
///
/// Flush rules (DESIGN.md §9): the scope MUST be flushed
/// 1. before any event is emitted while tracing is enabled — event
///    timestamps read `total_ns()`, so deferred nanoseconds would stamp
///    events early ([`ChargeScope::emit`] does this automatically), and
/// 2. at the end of the scope ([`ChargeScope::flush`]; dropping an
///    unflushed scope is a bug and debug-asserts).
#[derive(Debug)]
pub struct ChargeScope {
    cat: Category,
    pending_ns: u64,
    pending_charges: u64,
}

impl ChargeScope {
    /// An empty scope charging to `cat`.
    pub fn new(cat: Category) -> Self {
        ChargeScope { cat, pending_ns: 0, pending_charges: 0 }
    }

    /// Nanoseconds accumulated locally but not yet flushed to the clock.
    ///
    /// The shared-device arbiter needs the *true* simulated instant of a
    /// request — `clock.total_ns()` plus whatever this scope is still
    /// holding — so batched hot loops submit arrivals that match the
    /// per-word loop exactly (DESIGN.md §12).
    #[inline]
    pub fn pending_ns(&self) -> u64 {
        self.pending_ns
    }

    /// Accumulates one charge of `ns`.
    #[inline]
    pub fn add(&mut self, ns: u64) {
        self.pending_ns += ns;
        self.pending_charges += 1;
    }

    /// Accumulates `charges` calls totalling `ns` (closed-form batches).
    #[inline]
    pub fn add_many(&mut self, ns: u64, charges: u64) {
        self.pending_ns += ns;
        self.pending_charges += charges;
    }

    /// Lands the accumulated charges on `clock` in one atomic update.
    pub fn flush(&mut self, clock: &SimClock) {
        if self.pending_charges > 0 {
            clock.charge_batched(self.cat, self.pending_ns, self.pending_charges);
            self.pending_ns = 0;
            self.pending_charges = 0;
        }
    }

    /// Emits `kind`, flushing first when tracing is enabled so the event is
    /// stamped with the fully-charged instant (identical to the per-word
    /// loop, where every charge lands before its event). With tracing off
    /// the pending sum keeps accumulating — timestamps are unobservable and
    /// the total is flushed at scope end.
    pub fn emit(&mut self, clock: &SimClock, kind: EventKind) {
        if clock.tracer().enabled() {
            self.flush(clock);
            clock.emit(kind);
        }
    }
}

impl Drop for ChargeScope {
    fn drop(&mut self) {
        debug_assert!(
            self.pending_charges == 0,
            "ChargeScope dropped with {} unflushed charges ({} ns)",
            self.pending_charges,
            self.pending_ns
        );
    }
}

/// Per-lane accumulators for the work-unit GC plane (DESIGN.md §11).
///
/// GC phases execute their work units in a fixed serial order (the simulation
/// is sequential) but *account* them across `lanes` modeled GC threads: each
/// unit's CPU cost is charged to a lane, and at the phase barrier the global
/// clock advances once by the critical path
/// `max(lane) + (lanes - 1) * sync_ns`. Because lane assignment depends only
/// on previously accumulated costs (pure integer arithmetic), the advance is
/// bit-identical across runs and hosts for any lane count.
///
/// Costs are split into a `scaled` part — subject to the phase's
/// `milli`/1000 scaling, applied once per lane at the barrier so a
/// single-lane phase reproduces the serial `floor(total * milli / 1000)`
/// exactly — and a `flat` part charged as-is (fixed per-phase overheads,
/// costs outside the scaling domain).
#[derive(Debug)]
pub struct LaneSet {
    scaled: Vec<u64>,
    flat: Vec<u64>,
    milli: u64,
    sync_ns: u64,
    units: u64,
}

impl LaneSet {
    /// A lane set of `lanes` empty lanes with per-extra-lane barrier cost
    /// `sync_ns` and no scaling (`milli = 1000`).
    pub fn new(lanes: usize, sync_ns: u64) -> Self {
        assert!(lanes >= 1, "LaneSet needs at least one lane");
        LaneSet { scaled: vec![0; lanes], flat: vec![0; lanes], milli: 1000, sync_ns, units: 0 }
    }

    /// Number of modeled GC threads.
    pub fn lanes(&self) -> usize {
        self.scaled.len()
    }

    /// Units charged since the last barrier.
    pub fn units(&self) -> u64 {
        self.units
    }

    /// Sets the scaling applied to the scaled component at the barrier
    /// (e.g. 250 models G1 charging a quarter of the marking work). Must be
    /// set between phases: scaling is uniform within a phase.
    pub fn set_milli(&mut self, milli: u64) {
        debug_assert!(self.units == 0, "set_milli with {} units pending", self.units);
        self.milli = milli;
    }

    fn effective(&self, lane: usize) -> u64 {
        self.scaled[lane] * self.milli / 1000 + self.flat[lane]
    }

    /// Deterministic least-loaded lane; ties break to the lowest index.
    pub fn pick(&self) -> usize {
        let mut best = 0;
        let mut best_load = self.effective(0);
        for lane in 1..self.lanes() {
            let load = self.effective(lane);
            if load < best_load {
                best = lane;
                best_load = load;
            }
        }
        best
    }

    /// Charges one unit's cost to `lane`.
    pub fn charge(&mut self, lane: usize, scaled_ns: u64, flat_ns: u64) {
        self.scaled[lane] += scaled_ns;
        self.flat[lane] += flat_ns;
        self.units += 1;
    }

    /// Critical-path length of the pending phase (longest lane, scaled).
    pub fn critical_ns(&self) -> u64 {
        (0..self.lanes()).map(|l| self.effective(l)).max().unwrap_or(0)
    }

    /// The advance the barrier would charge if it fired right now (critical
    /// path plus per-extra-lane sync), without firing it. 0 when no units
    /// are pending — matching [`LaneSet::barrier`]'s empty-phase no-op. The
    /// incremental GC polls this to decide when a slice has filled its
    /// pause budget.
    pub fn pending_advance_ns(&self) -> u64 {
        if self.units == 0 {
            return 0;
        }
        self.critical_ns() + (self.lanes() as u64 - 1) * self.sync_ns
    }

    /// Total idle ns across lanes: each lane stalls at the barrier until the
    /// critical-path lane arrives.
    pub fn stall_ns(&self) -> u64 {
        let crit = self.critical_ns();
        (0..self.lanes()).map(|l| crit - self.effective(l)).sum()
    }

    /// Phase barrier: advances `clock` by the critical path plus the
    /// per-extra-lane sync cost in a single charge, clears the lanes, and
    /// returns `(advance_ns, stall_ns)`. A phase that ran no units advances
    /// nothing (no charge, no sync cost).
    pub fn barrier(&mut self, clock: &SimClock, cat: Category) -> (u64, u64) {
        if self.units == 0 {
            return (0, 0);
        }
        let stall = self.stall_ns();
        let advance = self.critical_ns() + (self.lanes() as u64 - 1) * self.sync_ns;
        clock.charge(cat, advance);
        self.reset();
        (advance, stall)
    }

    /// Discards pending charges without advancing the clock — for phases
    /// aborted mid-flight (e.g. a major GC's planning overflow), which charge
    /// nothing.
    pub fn abandon(&mut self) {
        self.reset();
    }

    fn reset(&mut self) {
        self.scaled.iter_mut().for_each(|s| *s = 0);
        self.flat.iter_mut().for_each(|f| *f = 0);
        self.units = 0;
    }
}

/// Execution-time breakdown in the paper's four components (Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Breakdown {
    /// Mutator ("other") time, including H2 page-fault wait.
    pub other_ns: u64,
    /// Serialization/deserialization plus explicit I/O time.
    pub sd_io_ns: u64,
    /// Minor GC time.
    pub minor_gc_ns: u64,
    /// Major GC time.
    pub major_gc_ns: u64,
}

impl Breakdown {
    /// Total simulated execution time.
    pub fn total_ns(&self) -> u64 {
        self.other_ns + self.sd_io_ns + self.minor_gc_ns + self.major_gc_ns
    }

    /// Component-wise difference (`self - earlier`), saturating at zero.
    pub fn since(&self, earlier: &Breakdown) -> Breakdown {
        Breakdown {
            other_ns: self.other_ns.saturating_sub(earlier.other_ns),
            sd_io_ns: self.sd_io_ns.saturating_sub(earlier.sd_io_ns),
            minor_gc_ns: self.minor_gc_ns.saturating_sub(earlier.minor_gc_ns),
            major_gc_ns: self.major_gc_ns.saturating_sub(earlier.major_gc_ns),
        }
    }
}

impl std::fmt::Display for Breakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ms = |ns: u64| ns as f64 / 1e6;
        write!(
            f,
            "other {:.2} ms | s/d+io {:.2} ms | minor gc {:.2} ms | major gc {:.2} ms | total {:.2} ms",
            ms(self.other_ns),
            ms(self.sd_io_ns),
            ms(self.minor_gc_ns),
            ms(self.major_gc_ns),
            ms(self.total_ns())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teraheap_obs::Level;

    #[test]
    fn new_clock_is_zero() {
        let clock = SimClock::new();
        assert_eq!(clock.total_ns(), 0);
        assert_eq!(clock.breakdown(), Breakdown::default());
    }

    #[test]
    fn charge_accumulates_per_category() {
        let clock = SimClock::new();
        clock.charge(Category::Mutator, 10);
        clock.charge(Category::Mutator, 5);
        clock.charge(Category::MajorGc, 7);
        assert_eq!(clock.category_ns(Category::Mutator), 15);
        assert_eq!(clock.category_ns(Category::MajorGc), 7);
        assert_eq!(clock.total_ns(), 22);
    }

    #[test]
    fn breakdown_merges_serde_and_io() {
        let clock = SimClock::new();
        clock.charge(Category::SerDe, 3);
        clock.charge(Category::Io, 4);
        let b = clock.breakdown();
        assert_eq!(b.sd_io_ns, 7);
        assert_eq!(b.total_ns(), 7);
    }

    #[test]
    fn reset_clears_all() {
        let clock = SimClock::new();
        for c in Category::ALL {
            clock.charge(c, 1);
        }
        clock.emit(EventKind::Oom);
        clock.reset();
        assert_eq!(clock.total_ns(), 0);
        assert!(clock.tracer().events().is_empty());
    }

    #[test]
    fn breakdown_since_subtracts() {
        let clock = SimClock::new();
        clock.charge(Category::MinorGc, 100);
        let early = clock.breakdown();
        clock.charge(Category::MinorGc, 50);
        clock.charge(Category::Mutator, 20);
        let diff = clock.breakdown().since(&early);
        assert_eq!(diff.minor_gc_ns, 50);
        assert_eq!(diff.other_ns, 20);
        assert_eq!(diff.major_gc_ns, 0);
    }

    #[test]
    fn display_is_nonempty() {
        let b = Breakdown::default();
        assert!(!format!("{b}").is_empty());
    }

    #[test]
    fn emit_stamps_current_instant_and_never_advances_time() {
        let clock = SimClock::new();
        clock.tracer().set_level(Level::Full);
        clock.charge(Category::Io, 42);
        clock.emit(EventKind::DeviceRead { bytes: 8 });
        assert_eq!(clock.total_ns(), 42);
        let events = clock.tracer().events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].t_ns, 42);
    }

    #[test]
    fn charge_batched_matches_charge_loop() {
        let looped = SimClock::new();
        looped.tracer().set_level(Level::Full);
        for _ in 0..5 {
            looped.charge(Category::Io, 7);
        }
        let batched = SimClock::new();
        batched.tracer().set_level(Level::Full);
        batched.charge_batched(Category::Io, 35, 5);
        assert_eq!(looped.category_ns(Category::Io), batched.category_ns(Category::Io));
        assert_eq!(looped.tracer().charge_counts(), batched.tracer().charge_counts());
    }

    #[test]
    #[cfg(debug_assertions)]
    fn second_thread_charging_trips_the_single_writer_assert() {
        let clock = SimClock::new();
        // This thread is mid-charge (it holds the writer flag) when another
        // thread charges the same clock.
        let _mid_charge = clock.begin_charge();
        let second = std::thread::scope(|s| {
            s.spawn(|| clock.charge(Category::Mutator, 1)).join()
        });
        let panic = second.expect_err("concurrent charge must be refused");
        let message = panic.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(message.contains("charged by two threads at once"), "{message}");
        assert_eq!(clock.total_ns(), 0, "the refused charge landed nothing");
    }

    #[test]
    fn charge_scope_flushes_once() {
        let clock = SimClock::new();
        clock.tracer().set_level(Level::Full);
        let mut scope = ChargeScope::new(Category::MajorGc);
        scope.add(10);
        scope.add_many(90, 9);
        assert_eq!(clock.total_ns(), 0, "charges stay local until flush");
        scope.flush(&clock);
        assert_eq!(clock.category_ns(Category::MajorGc), 100);
        assert_eq!(clock.tracer().charge_counts()[Category::MajorGc.index()], 10);
        scope.flush(&clock); // idempotent when empty
        assert_eq!(clock.category_ns(Category::MajorGc), 100);
    }

    #[test]
    fn charge_scope_emit_stamps_fully_charged_instant() {
        let clock = SimClock::new();
        clock.tracer().set_level(Level::Full);
        let mut scope = ChargeScope::new(Category::Io);
        scope.add(42);
        scope.emit(&clock, EventKind::PageFault { sequential: false });
        let events = clock.tracer().events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].t_ns, 42, "pending ns must land before the event");
        scope.flush(&clock);
        assert_eq!(clock.total_ns(), 42);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "unflushed charges")]
    fn charge_scope_drop_with_pending_charges_asserts() {
        // Satellite: lane code must not be able to silently lose ns by
        // dropping an unflushed scope.
        let mut scope = ChargeScope::new(Category::MinorGc);
        scope.add(7);
        drop(scope);
    }

    #[test]
    fn lane_set_single_lane_reproduces_serial_total() {
        let clock = SimClock::new();
        let mut lanes = LaneSet::new(1, 25);
        lanes.charge(0, 100, 0);
        lanes.charge(0, 50, 3);
        let (advance, stall) = lanes.barrier(&clock, Category::MinorGc);
        // One lane: no sync cost, no stall, advance is the plain sum.
        assert_eq!(advance, 153);
        assert_eq!(stall, 0);
        assert_eq!(clock.category_ns(Category::MinorGc), 153);
    }

    #[test]
    fn lane_set_milli_scales_once_per_lane() {
        let clock = SimClock::new();
        let mut lanes = LaneSet::new(1, 25);
        lanes.set_milli(250);
        // 5 units of 3 ns each: per-unit floor(3/4) would lose everything;
        // per-lane floor(15/4) = 3 matches the serial floor(total / 4).
        for _ in 0..5 {
            lanes.charge(0, 3, 0);
        }
        let (advance, _) = lanes.barrier(&clock, Category::MajorGc);
        assert_eq!(advance, 15 * 250 / 1000);
    }

    #[test]
    fn lane_set_barrier_is_critical_path_plus_sync() {
        let clock = SimClock::new();
        let mut lanes = LaneSet::new(4, 25);
        lanes.charge(0, 0, 100);
        lanes.charge(1, 0, 40);
        // Lanes 2 and 3 stay idle.
        assert_eq!(lanes.critical_ns(), 100);
        assert_eq!(lanes.stall_ns(), 60 + 100 + 100);
        let (advance, stall) = lanes.barrier(&clock, Category::MinorGc);
        assert_eq!(advance, 100 + 3 * 25);
        assert_eq!(stall, 260);
        assert_eq!(clock.category_ns(Category::MinorGc), 175);
        // Barrier resets: an empty follow-up phase advances nothing.
        let (advance, stall) = lanes.barrier(&clock, Category::MinorGc);
        assert_eq!((advance, stall), (0, 0));
        assert_eq!(clock.category_ns(Category::MinorGc), 175);
    }

    #[test]
    fn lane_set_pick_is_least_loaded_lowest_index() {
        let mut lanes = LaneSet::new(3, 25);
        assert_eq!(lanes.pick(), 0, "all-zero ties break to lane 0");
        lanes.charge(0, 0, 10);
        assert_eq!(lanes.pick(), 1);
        lanes.charge(1, 0, 10);
        assert_eq!(lanes.pick(), 2);
        lanes.charge(2, 0, 5);
        assert_eq!(lanes.pick(), 2, "lane 2 still lightest");
    }

    #[test]
    fn lane_set_abandon_discards_without_charging() {
        let clock = SimClock::new();
        let mut lanes = LaneSet::new(2, 25);
        lanes.charge(0, 1000, 1000);
        lanes.abandon();
        let (advance, _) = lanes.barrier(&clock, Category::MajorGc);
        assert_eq!(advance, 0);
        assert_eq!(clock.total_ns(), 0);
    }

    #[test]
    fn span_guard_emits_begin_and_end() {
        let clock = Arc::new(SimClock::new());
        clock.tracer().set_level(Level::Full);
        {
            let _span = clock.span(SpanKind::Shuffle);
            clock.charge(Category::SerDe, 9);
        }
        let events = clock.tracer().events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::SpanBegin { kind: SpanKind::Shuffle });
        assert_eq!(events[0].t_ns, 0);
        assert_eq!(events[1].kind, EventKind::SpanEnd { kind: SpanKind::Shuffle });
        assert_eq!(events[1].t_ns, 9);
        let charges = clock.tracer().charge_counts();
        assert_eq!(charges[Category::SerDe.index()], 1);
    }
}
