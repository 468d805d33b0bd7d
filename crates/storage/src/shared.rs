//! Shared H2 device: one capacity pool, many tenant heaps.
//!
//! The paper evaluates one framework instance per device; the server plane
//! (DESIGN.md §12) colocates N independent heaps on one device, so the
//! device must become a first-class shareable object instead of a
//! `Heap`-private field. [`SharedDevice`] is that object:
//!
//! * **Quotas.** Each tenant registers with a byte quota carved from the
//!   single capacity pool, tiled after the previous tenant's. The pool is
//!   checked at registration and the footprint at attach time — never
//!   deferred to first I/O.
//! * **One device clock.** Every device service (page-fault transfer,
//!   dirty write-back, msync, DAX access run, promotion flush, blob store
//!   and load) is a [`DeviceLease`] submission: booked on a deterministic
//!   calendar of device time before its cost lands on the tenant's clock.
//!   The lease is the one place device service reaches a clock. The
//!   queueing delay is charged to the waiting tenant and surfaced as a
//!   per-tenant stat plus a `DeviceQueued` event. A private device is a
//!   one-tenant `SharedDevice`.
//! * **Clock identity.** A tenant is identified by its `Arc<SimClock>`:
//!   the heap that attaches must present the *same* clock the tenant
//!   registered with (`Arc::ptr_eq`, not value equality). This is the
//!   invariant that makes arrival timestamps meaningful.
//!
//! # Arbitration math
//!
//! The arbiter keeps a calendar of disjoint busy intervals, sorted and
//! with adjacent ones merged. A request arriving at simulated instant `a`
//! with service time `s` is booked in the earliest idle gap that holds it:
//!
//! ```text
//! start = min { t >= a : [t, t + s) overlaps no booking }
//! wait  = start - a              // charged to the tenant, 0 if idle
//! V     = max(V, start + s)      // the end of the latest booking
//! ```
//!
//! Requests are booked in the order they are *simulated*, not the order
//! they arrive: the server runs a whole job round of one tenant before the
//! next, so the next tenant's requests arrive earlier than the last ones
//! booked. A FIFO (`start = max(a, V)`) would queue them behind every
//! booking of that round, idle gaps included, and colocated tenants would
//! run one after another. Backfilling lets them overlap. Bookings never
//! move, so every tenant sees a device that was busy at exactly the times
//! the others booked it.
//!
//! A sole tenant never waits: each submitted service is charged to the
//! tenant's own clock right after submission, so its clock never lags the
//! device and every arrival satisfies `a >= V`: no extra charges, no extra
//! events.
//!
//! Every arrival is at least its own tenant's `total_ns`, so no request
//! can reach a booking that ends at or below the smallest registered
//! tenant clock. Those bookings are dropped whenever the calendar has
//! doubled since the last prune, which keeps it short and is exact.

use crate::clock::{Category, ChargeScope, SimClock};
use crate::device::DeviceSpec;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use teraheap_obs::EventKind;

/// Identifies one tenant of a [`SharedDevice`] (registration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantId(u32);

impl TenantId {
    /// The tenant's registration index.
    pub fn index(&self) -> usize {
        self.0 as usize
    }

    /// Tag value for obs events.
    pub fn tag(&self) -> u32 {
        self.0
    }
}

/// Why a tenant registration or heap attach was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttachError {
    /// The requested quota does not fit in the remaining capacity pool.
    QuotaExceedsCapacity {
        /// Quota requested by the tenant, in bytes.
        requested: usize,
        /// Bytes of the pool not yet assigned to a tenant.
        available: usize,
    },
    /// A tenant quota of zero bytes can hold no H2 regions.
    ZeroQuota,
    /// The clock is already registered to another tenant. Tenants are
    /// identified by clock, so sharing one clock between two tenants
    /// would alias them.
    DuplicateClock,
    /// No registered tenant uses this clock (`Arc::ptr_eq`). The heap
    /// and its device partition must advance one `SimClock`.
    ClockMismatch,
    /// The tenant's partition already has an attached heap.
    AlreadyAttached,
    /// The H2 footprint implied by the heap's config exceeds the
    /// tenant's partition quota.
    FootprintExceedsQuota {
        /// Bytes the H2 mapping needs.
        footprint: usize,
        /// The tenant's quota in bytes.
        quota: usize,
    },
}

impl std::fmt::Display for AttachError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttachError::QuotaExceedsCapacity { requested, available } => write!(
                f,
                "tenant quota {requested} B exceeds remaining device capacity {available} B"
            ),
            AttachError::ZeroQuota => write!(f, "tenant quota must be non-zero"),
            AttachError::DuplicateClock => {
                write!(f, "clock already registered to another tenant")
            }
            AttachError::ClockMismatch => write!(
                f,
                "heap clock is not registered on this device (Heap::with_clock \
                 and SharedDevice tenant registration must share one SimClock)"
            ),
            AttachError::AlreadyAttached => {
                write!(f, "tenant partition already has an attached heap")
            }
            AttachError::FootprintExceedsQuota { footprint, quota } => write!(
                f,
                "H2 footprint {footprint} B exceeds the tenant's partition quota {quota} B"
            ),
        }
    }
}

impl std::error::Error for AttachError {}

/// Per-tenant I/O arbitration counters (a snapshot; see
/// [`SharedDevice::tenant_io`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantIo {
    /// Total queueing delay charged to the tenant, in simulated ns.
    pub queued_ns: u64,
    /// Requests that had to wait (no idle gap at their arrival held them).
    pub queued_ops: u64,
    /// Total device service time consumed by the tenant, in simulated ns.
    pub busy_ns: u64,
    /// Requests submitted.
    pub ops: u64,
}

#[derive(Debug)]
struct TenantState {
    clock: Arc<SimClock>,
    quota_bytes: usize,
    attached: bool,
    io: TenantIo,
}

/// Calendar length below which the arbiter never prunes.
const PRUNE_FLOOR: usize = 16;

#[derive(Debug)]
struct ArbiterState {
    device_vtime_ns: u64,
    /// Booked device time: disjoint `[start, end)` intervals sorted by
    /// start, no two adjacent.
    calendar: Vec<(u64, u64)>,
    /// Calendar length that triggers the next prune.
    prune_at: usize,
    tenants: Vec<TenantState>,
}

impl ArbiterState {
    fn submit(&mut self, tenant: usize, arrival_ns: u64, service_ns: u64) -> u64 {
        let start = self.book(arrival_ns, service_ns);
        let wait = start - arrival_ns;
        self.device_vtime_ns = self.device_vtime_ns.max(start + service_ns);
        let io = &mut self.tenants[tenant].io;
        io.busy_ns += service_ns;
        io.ops += 1;
        if wait > 0 {
            io.queued_ns += wait;
            io.queued_ops += 1;
        }
        wait
    }

    /// Books `service_ns` in the earliest idle gap at or after
    /// `arrival_ns` and returns its start.
    fn book(&mut self, arrival_ns: u64, service_ns: u64) -> u64 {
        if service_ns == 0 {
            return arrival_ns;
        }
        let cal = &mut self.calendar;
        // The first booking that ends after the arrival; every later one
        // that the request would overlap pushes it to that booking's end.
        // Most arrivals (99% on a query server) come after the last
        // booking, so that case skips the search.
        let mut i = match cal.last() {
            Some(&(_, last_end)) if last_end > arrival_ns => {
                cal.partition_point(|&(_, end)| end <= arrival_ns)
            }
            _ => cal.len(),
        };
        let mut start = arrival_ns;
        while let Some(&(busy_from, busy_to)) = cal.get(i) {
            if start + service_ns <= busy_from {
                break;
            }
            start = busy_to;
            i += 1;
        }
        let end = start + service_ns;
        let joins_prev = i > 0 && cal[i - 1].1 == start;
        let joins_next = cal.get(i).is_some_and(|&(from, _)| from == end);
        match (joins_prev, joins_next) {
            (true, true) => {
                cal[i - 1].1 = cal[i].1;
                cal.remove(i);
            }
            (true, false) => cal[i - 1].1 = end,
            (false, true) => cal[i].0 = start,
            (false, false) => {
                cal.insert(i, (start, end));
                if cal.len() >= self.prune_at {
                    self.prune();
                }
            }
        }
        start
    }

    /// Drops the bookings that end at or below the smallest registered
    /// tenant clock: no arrival can precede its own tenant's clock, so no
    /// request can overlap them.
    fn prune(&mut self) {
        let floor = self.tenants.iter().map(|t| t.clock.total_ns()).min().unwrap_or(0);
        let dead = self.calendar.partition_point(|&(_, end)| end <= floor);
        self.calendar.drain(..dead);
        self.prune_at = (2 * self.calendar.len()).max(PRUNE_FLOOR);
    }
}

/// One simulated H2 device shared by N tenant heaps.
///
/// Cloning is cheap and shares the arbiter: the server keeps one handle,
/// each attached mapping holds a [`DeviceLease`] into the same state. A
/// simulation runs on one thread, so the state sits in a `RefCell`, not
/// behind a lock, and a device and its leases never leave that thread.
#[derive(Debug, Clone)]
pub struct SharedDevice {
    spec: DeviceSpec,
    capacity_bytes: usize,
    inner: Rc<RefCell<ArbiterState>>,
}

impl SharedDevice {
    /// An empty device of `capacity_bytes` with no tenants yet — the
    /// server-plane constructor; register tenants with
    /// [`SharedDevice::add_tenant`].
    pub fn for_server(spec: DeviceSpec, capacity_bytes: usize) -> Self {
        Self::with_tenants(spec, capacity_bytes, Vec::new())
    }

    /// The private device: the whole capacity pool is one partition owned
    /// by `clock`'s tenant, which the arbiter never delays (see the module
    /// docs).
    pub fn new(spec: DeviceSpec, capacity_bytes: usize, clock: Arc<SimClock>) -> Self {
        let tenant = TenantState {
            clock,
            quota_bytes: capacity_bytes,
            attached: false,
            io: TenantIo::default(),
        };
        Self::with_tenants(spec, capacity_bytes, vec![tenant])
    }

    fn with_tenants(spec: DeviceSpec, capacity_bytes: usize, tenants: Vec<TenantState>) -> Self {
        SharedDevice {
            spec,
            capacity_bytes,
            inner: Rc::new(RefCell::new(ArbiterState {
                device_vtime_ns: 0,
                calendar: Vec::new(),
                prune_at: PRUNE_FLOOR,
                tenants,
            })),
        }
    }

    /// Registers a tenant whose partition is tiled after the previous
    /// tenant's.
    ///
    /// # Errors
    ///
    /// [`AttachError::ZeroQuota`], [`AttachError::DuplicateClock`] or
    /// [`AttachError::QuotaExceedsCapacity`].
    pub fn add_tenant(
        &self,
        clock: Arc<SimClock>,
        quota_bytes: usize,
    ) -> Result<TenantId, AttachError> {
        if quota_bytes == 0 {
            return Err(AttachError::ZeroQuota);
        }
        let mut state = self.inner.borrow_mut();
        if state.tenants.iter().any(|t| Arc::ptr_eq(&t.clock, &clock)) {
            return Err(AttachError::DuplicateClock);
        }
        let assigned: usize = state.tenants.iter().map(|t| t.quota_bytes).sum();
        let available = self.capacity_bytes - assigned;
        if quota_bytes > available {
            return Err(AttachError::QuotaExceedsCapacity { requested: quota_bytes, available });
        }
        let id = TenantId(state.tenants.len() as u32);
        state.tenants.push(TenantState {
            clock,
            quota_bytes,
            attached: false,
            io: TenantIo::default(),
        });
        Ok(id)
    }

    /// Attaches a heap's H2 mapping to the tenant registered with `clock`,
    /// validating the partition now rather than at first I/O:
    /// `footprint_bytes` must fit the tenant's quota, the clock must be the
    /// registered one (`Arc::ptr_eq` — the documented clock-identity
    /// invariant), and the partition must be free.
    ///
    /// # Errors
    ///
    /// [`AttachError::ClockMismatch`], [`AttachError::AlreadyAttached`] or
    /// [`AttachError::FootprintExceedsQuota`].
    pub fn attach(
        &self,
        clock: &Arc<SimClock>,
        footprint_bytes: usize,
    ) -> Result<DeviceLease, AttachError> {
        let mut state = self.inner.borrow_mut();
        let idx = state
            .tenants
            .iter()
            .position(|t| Arc::ptr_eq(&t.clock, clock))
            .ok_or(AttachError::ClockMismatch)?;
        let t = &mut state.tenants[idx];
        if t.attached {
            return Err(AttachError::AlreadyAttached);
        }
        if footprint_bytes > t.quota_bytes {
            return Err(AttachError::FootprintExceedsQuota {
                footprint: footprint_bytes,
                quota: t.quota_bytes,
            });
        }
        t.attached = true;
        Ok(DeviceLease {
            inner: Rc::clone(&self.inner),
            tenant: idx,
            clock: Arc::clone(clock),
            spec: self.spec,
        })
    }

    /// The tenant registered with `clock`, if any.
    pub fn tenant_of(&self, clock: &Arc<SimClock>) -> Option<TenantId> {
        self.inner
            .borrow()
            .tenants
            .iter()
            .position(|t| Arc::ptr_eq(&t.clock, clock))
            .map(|i| TenantId(i as u32))
    }

    /// Snapshot of the tenant's arbitration counters.
    pub fn tenant_io(&self, tenant: TenantId) -> Option<TenantIo> {
        self.inner.borrow().tenants.get(tenant.index()).map(|t| t.io)
    }

    /// The end of the latest booking on the device, in simulated ns. The
    /// device may still have idle gaps before it; the service total is
    /// the sum of the tenants' [`TenantIo::busy_ns`].
    pub fn device_vtime_ns(&self) -> u64 {
        self.inner.borrow().device_vtime_ns
    }
}

/// One tenant's handle into the shared arbiter, held by its `MmapSim` or
/// `SimDevice`: the one place where device service reaches a clock.
#[derive(Debug)]
pub struct DeviceLease {
    inner: Rc<RefCell<ArbiterState>>,
    tenant: usize,
    clock: Arc<SimClock>,
    spec: DeviceSpec,
}

impl DeviceLease {
    /// The lease of the sole tenant of a private device of
    /// `capacity_bytes` (a one-tenant [`SharedDevice::new`], attached).
    pub(crate) fn private(spec: DeviceSpec, capacity_bytes: usize, clock: Arc<SimClock>) -> Self {
        let device = SharedDevice::new(spec, capacity_bytes, Arc::clone(&clock));
        device.inner.borrow_mut().tenants[0].attached = true;
        DeviceLease { inner: device.inner, tenant: 0, clock, spec }
    }

    /// Submits a device request arriving at `arrival_ns` needing
    /// `service_ns` of device time; returns the queueing delay to charge to
    /// the tenant before the service cost (0 whenever an idle gap at the
    /// arrival holds the request — always, for a sole tenant).
    pub fn submit(&self, arrival_ns: u64, service_ns: u64) -> u64 {
        self.inner.borrow_mut().submit(self.tenant, arrival_ns, service_ns)
    }

    /// One device command of `service_ns`, accounted as `charges` charge
    /// calls, arriving at the tenant clock's scope-adjusted instant: the
    /// arbiter's queueing delay lands in `scope` first (with a
    /// `DeviceQueued` event), then the service. A sole tenant never waits.
    #[inline]
    pub(crate) fn serve(&self, service_ns: u64, charges: u64, scope: &mut ChargeScope) {
        let arrival = self.clock.total_ns() + scope.pending_ns();
        let wait = self.submit(arrival, service_ns);
        if wait > 0 {
            scope.add(wait);
            scope.emit(&self.clock, EventKind::DeviceQueued { wait_ns: wait });
        }
        scope.add_many(service_ns, charges);
    }

    /// [`DeviceLease::serve`] in a scope of its own, charged to `cat`.
    #[inline]
    pub(crate) fn serve_now(&self, cat: Category, service_ns: u64, charges: u64) {
        let mut scope = ChargeScope::new(cat);
        self.serve(service_ns, charges, &mut scope);
        scope.flush(&self.clock);
    }

    /// The tenant's clock: the one every service is charged to.
    pub(crate) fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }

    /// The device's cost model.
    pub(crate) fn spec(&self) -> DeviceSpec {
        self.spec
    }

    /// Snapshot of the leased tenant's arbitration counters.
    #[cfg(test)]
    pub(crate) fn io(&self) -> TenantIo {
        self.inner.borrow().tenants[self.tenant].io
    }
}

impl Drop for DeviceLease {
    /// Detaches the partition: dropping the heap (and with it the lease)
    /// frees the partition for the tenant's next attach. Arbitration state —
    /// I/O counters, device virtual time — survives, so successive job
    /// rounds of one tenant contend like one long-lived tenant.
    fn drop(&mut self) {
        self.inner.borrow_mut().tenants[self.tenant].attached = false;
    }
}

#[cfg(test)]
mod reference {
    //! The earliest-fit calendar against a brute-force oracle, and the
    //! FIFO the arbiter used to be against a sole tenant.
    //!
    //! The oracle keeps every booking, unmerged and unpruned, in a `Vec`.
    //! The earliest start at or after an arrival `a` is `a` itself or the
    //! end of some booking (a feasible start that is neither can move
    //! earlier), so it tries each candidate against every booking. Random
    //! programs of one to eight tenants must leave the oracle and the
    //! arbiter with the same waits, device virtual time and per-tenant
    //! counters, the arbiter's calendar sorted, disjoint and merged, and,
    //! for a sole tenant with production-style arrivals, the waits of the
    //! FIFO `start = max(a, V)`.

    use super::*;
    use teraheap_util::proptest_mini::{
        check, range_u64, range_usize, vec_of, CaseResult, Config, Strategy,
    };
    use teraheap_util::{prop_assert, prop_assert_eq};

    /// Every booking ever made, in submission order.
    #[derive(Default)]
    struct LinearCalendar {
        bookings: Vec<(u64, u64)>,
        vtime_ns: u64,
        io: Vec<TenantIo>,
    }

    impl LinearCalendar {
        fn fits(&self, start: u64, service_ns: u64) -> bool {
            let end = start + service_ns;
            self.bookings.iter().all(|&(from, to)| start.max(from) >= end.min(to))
        }

        fn submit(&mut self, tenant: usize, arrival_ns: u64, service_ns: u64) -> u64 {
            let ends = self.bookings.iter().map(|&(_, to)| to).filter(|&to| to > arrival_ns);
            let start = std::iter::once(arrival_ns)
                .chain(ends)
                .filter(|&t| self.fits(t, service_ns))
                .min()
                .expect("the end of the latest booking always fits");
            if service_ns > 0 {
                self.bookings.push((start, start + service_ns));
            }
            self.vtime_ns = self.vtime_ns.max(start + service_ns);
            let wait = start - arrival_ns;
            let io = &mut self.io[tenant];
            io.busy_ns += service_ns;
            io.ops += 1;
            if wait > 0 {
                io.queued_ns += wait;
                io.queued_ops += 1;
            }
            wait
        }
    }

    /// One request: `(tenant, arrival or gap in ns, service ns)`.
    type Request = (usize, u64, u64);

    fn program() -> impl Strategy<Value = (usize, Vec<Request>)> {
        let request = (range_usize(0..8), range_u64(0..4_000), range_u64(0..2_000));
        (range_usize(1..9), vec_of(request, 1..160))
    }

    /// Runs `requests` over `tenants` tenants through a [`SharedDevice`] and
    /// the oracle. With `production`, the second field of a request is the
    /// gap since the tenant's previous request finished, and each tenant's
    /// clock is charged the gap, the wait and the service, as `MmapSim`
    /// does, so the arbiter prunes. Otherwise it is the arrival instant
    /// itself, in any order, and the clocks stay at 0.
    fn run_both(tenants: usize, requests: &[Request], production: bool) -> CaseResult {
        let quota = 4096;
        let device = SharedDevice::for_server(DeviceSpec::nvme_ssd(), tenants * quota);
        let clocks: Vec<Arc<SimClock>> = (0..tenants).map(|_| Arc::new(SimClock::new())).collect();
        let leases: Vec<DeviceLease> = clocks
            .iter()
            .map(|clock| {
                device.add_tenant(clock.clone(), quota).expect("quota fits the pool");
                device.attach(clock, quota).expect("fresh tenant attaches")
            })
            .collect();
        let mut oracle =
            LinearCalendar { io: vec![TenantIo::default(); tenants], ..Default::default() };
        let mut fifo_vtime_ns = 0u64;
        for (i, &(t, at, service)) in requests.iter().enumerate() {
            let t = t % tenants;
            let arrival = if production { clocks[t].total_ns() + at } else { at };
            let wait = leases[t].submit(arrival, service);
            prop_assert_eq!(wait, oracle.submit(t, arrival, service), "request {i}: wait");
            if tenants == 1 && production {
                let fifo_start = arrival.max(fifo_vtime_ns);
                prop_assert_eq!(wait, fifo_start - arrival, "request {i}: sole-tenant FIFO wait");
                fifo_vtime_ns = fifo_start + service;
            }
            if production {
                clocks[t].charge(Category::Io, at + wait + service);
            }
            let state = device.inner.borrow();
            prop_assert!(
                state.calendar.windows(2).all(|w| w[0].0 < w[0].1 && w[0].1 < w[1].0),
                "request {i}: calendar not sorted, disjoint and merged: {:?}",
                state.calendar
            );
        }
        let booked = &oracle.bookings;
        for (j, &(from, to)) in booked.iter().enumerate() {
            prop_assert!(
                booked[..j].iter().all(|&(f, t)| from.max(f) >= to.min(t)),
                "booking {j} overlaps an earlier one"
            );
        }
        prop_assert_eq!(device.device_vtime_ns(), oracle.vtime_ns);
        for (t, lease) in leases.iter().enumerate() {
            prop_assert_eq!(
                device.tenant_io(TenantId(lease.tenant as u32)),
                Some(oracle.io[t]),
                "tenant {t}"
            );
        }
        CaseResult::Pass
    }

    #[test]
    fn earliest_fit_matches_the_linear_scan_calendar() {
        check(
            "earliest_fit_matches_the_linear_scan_calendar",
            &(program(), range_usize(0..2)),
            &Config::with_cases(256),
            |((tenants, requests), production): ((usize, Vec<Request>), usize)| {
                run_both(tenants, &requests, production == 1)
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock() -> Arc<SimClock> {
        Arc::new(SimClock::new())
    }

    #[test]
    fn single_tenant_never_waits() {
        let c = clock();
        let dev = SharedDevice::new(DeviceSpec::nvme_ssd(), 1 << 20, c.clone());
        let lease = dev.attach(&c, 1 << 20).expect("attach");
        // Model the production discipline: submit at the current instant,
        // then charge the service to the clock.
        for service in [100u64, 7, 4096, 1] {
            let wait = lease.submit(c.total_ns(), service);
            assert_eq!(wait, 0, "sole tenant must never queue");
            c.charge(Category::Io, service);
        }
        let io = dev.tenant_io(TenantId(lease.tenant as u32)).unwrap();
        assert_eq!(io.queued_ns, 0);
        assert_eq!(io.queued_ops, 0);
        assert_eq!(io.ops, 4);
        assert_eq!(io.busy_ns, 100 + 7 + 4096 + 1);
    }

    #[test]
    fn contending_tenants_queue_fifo_by_arrival() {
        let (a, b) = (clock(), clock());
        let dev = SharedDevice::for_server(DeviceSpec::nvme_ssd(), 2 << 20);
        let ta = dev.add_tenant(a.clone(), 1 << 20).unwrap();
        let tb = dev.add_tenant(b.clone(), 1 << 20).unwrap();
        let la = dev.attach(&a, 1 << 20).unwrap();
        let lb = dev.attach(&b, 1 << 20).unwrap();
        // A grabs the device at t=0 for 1000 ns; B arrives at t=100.
        assert_eq!(la.submit(0, 1000), 0);
        assert_eq!(lb.submit(100, 500), 900, "B waits for A's service to finish");
        // The device is busy with B's request until 1500; A returns at 1000
        // and now queues behind B.
        assert_eq!(la.submit(1000, 10), 500);
        assert_eq!(dev.device_vtime_ns(), 1510);
        assert_eq!(dev.tenant_io(ta).unwrap().queued_ns, 500);
        assert_eq!(dev.tenant_io(tb).unwrap().queued_ns, 900);
    }

    #[test]
    fn a_request_simulated_late_backfills_an_earlier_gap() {
        let (a, b) = (clock(), clock());
        let dev = SharedDevice::for_server(DeviceSpec::nvme_ssd(), 2 << 20);
        dev.add_tenant(a.clone(), 1 << 20).unwrap();
        dev.add_tenant(b.clone(), 1 << 20).unwrap();
        let la = dev.attach(&a, 1 << 20).unwrap();
        let lb = dev.attach(&b, 1 << 20).unwrap();
        // A's round is simulated first and books [0, 1000) and [3000, 4000).
        assert_eq!(la.submit(0, 1000), 0);
        assert_eq!(la.submit(3000, 1000), 0);
        // B arrives at 500: the gap [1000, 3000) holds its 1000 ns.
        assert_eq!(lb.submit(500, 1000), 500, "B backfills the gap after A's first booking");
        // The gap left is [2000, 3000): 2000 ns from 1200 does not fit it.
        assert_eq!(lb.submit(1200, 2000), 2800, "too long for the gap: after A's last booking");
        assert_eq!(dev.device_vtime_ns(), 6000);
    }

    #[test]
    fn partitions_tile_sequentially_and_validate() {
        let dev = SharedDevice::for_server(DeviceSpec::nvme_ssd(), 3000);
        dev.add_tenant(clock(), 1000).unwrap();
        dev.add_tenant(clock(), 1000).unwrap();
        assert_eq!(
            dev.add_tenant(clock(), 2000),
            Err(AttachError::QuotaExceedsCapacity { requested: 2000, available: 1000 })
        );
        assert_eq!(dev.add_tenant(clock(), 0), Err(AttachError::ZeroQuota));
        // The third partition fills the pool exactly; nothing fits after it.
        dev.add_tenant(clock(), 1000).unwrap();
        assert_eq!(
            dev.add_tenant(clock(), 1),
            Err(AttachError::QuotaExceedsCapacity { requested: 1, available: 0 })
        );
        assert_eq!(dev.inner.borrow().tenants.len(), 3);
    }

    #[test]
    fn attach_enforces_clock_identity_and_footprint() {
        let c = clock();
        let dev = SharedDevice::for_server(DeviceSpec::nvme_ssd(), 1 << 20);
        dev.add_tenant(c.clone(), 1 << 20).unwrap();
        // A value-equal but distinct clock must be rejected.
        assert_eq!(dev.attach(&clock(), 4096).unwrap_err(), AttachError::ClockMismatch);
        assert_eq!(
            dev.attach(&c, (1 << 20) + 1).unwrap_err(),
            AttachError::FootprintExceedsQuota { footprint: (1 << 20) + 1, quota: 1 << 20 }
        );
        let _lease = dev.attach(&c, 1 << 20).expect("fits exactly");
        assert_eq!(dev.attach(&c, 4096).unwrap_err(), AttachError::AlreadyAttached);
        assert_eq!(dev.add_tenant(c.clone(), 1).unwrap_err(), AttachError::DuplicateClock);
    }
}
