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
//!   dirty write-back, msync, DAX access run, promotion flush) is submitted
//!   to a deterministic FIFO on device time before its cost lands on the
//!   tenant's clock. The queueing delay is charged to the waiting tenant
//!   and surfaced as a per-tenant stat plus a `DeviceQueued` event.
//! * **Clock identity.** A tenant is identified by its `Arc<SimClock>`:
//!   the heap that attaches must present the *same* clock the tenant
//!   registered with (`Arc::ptr_eq`, not value equality). This is the
//!   invariant that makes arrival timestamps meaningful.
//!
//! # Arbitration math
//!
//! The arbiter keeps one device-wide virtual time `V`, the instant the
//! device becomes free. A request arriving at simulated instant `a` with
//! service time `s`:
//!
//! ```text
//! start = max(a, V)
//! wait  = start - a              // charged to the tenant, 0 if idle
//! V     = start + s
//! ```
//!
//! A sole tenant never waits: each submitted service is charged to the
//! tenant's own clock right after submission, so its clock never lags the
//! device and every arrival satisfies `a >= V`. The degenerate case is
//! bit-identical to the historical private device — no extra charges, no
//! extra events. With several tenants, a request arriving while the device
//! is busy waits until `V`.

use crate::clock::SimClock;
use crate::device::DeviceSpec;
use std::sync::Arc;
use teraheap_util::sync::Mutex;

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
    /// Requests that had to wait (arrived while the device was busy).
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

#[derive(Debug)]
struct ArbiterState {
    device_vtime_ns: u64,
    tenants: Vec<TenantState>,
}

impl ArbiterState {
    fn submit(&mut self, tenant: usize, arrival_ns: u64, service_ns: u64) -> u64 {
        let start = arrival_ns.max(self.device_vtime_ns);
        let wait = start - arrival_ns;
        self.device_vtime_ns = start + service_ns;
        let io = &mut self.tenants[tenant].io;
        io.busy_ns += service_ns;
        io.ops += 1;
        if wait > 0 {
            io.queued_ns += wait;
            io.queued_ops += 1;
        }
        wait
    }
}

/// One simulated H2 device shared by N tenant heaps.
///
/// Cloning is cheap and shares the arbiter: the server keeps one handle,
/// each attached mapping holds a [`DeviceLease`] into the same state.
#[derive(Debug, Clone)]
pub struct SharedDevice {
    spec: DeviceSpec,
    capacity_bytes: usize,
    inner: Arc<Mutex<ArbiterState>>,
}

impl SharedDevice {
    /// An empty device of `capacity_bytes` with no tenants yet — the
    /// server-plane constructor; register tenants with
    /// [`SharedDevice::add_tenant`].
    pub fn for_server(spec: DeviceSpec, capacity_bytes: usize) -> Self {
        SharedDevice {
            spec,
            capacity_bytes,
            inner: Arc::new(Mutex::new(ArbiterState { device_vtime_ns: 0, tenants: Vec::new() })),
        }
    }

    /// The single-tenant degenerate case: the whole capacity pool is one
    /// partition owned by `clock`'s tenant. Bit-identical to the historical
    /// heap-private device (see the module docs for why the arbiter never
    /// delays a sole tenant).
    pub fn new(spec: DeviceSpec, capacity_bytes: usize, clock: Arc<SimClock>) -> Self {
        let dev = SharedDevice::for_server(spec, capacity_bytes);
        dev.add_tenant(clock, capacity_bytes)
            .expect("single-tenant quota equals capacity; cannot fail");
        dev
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
        let mut state = self.inner.lock();
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
        let mut state = self.inner.lock();
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
        Ok(DeviceLease { inner: Arc::clone(&self.inner), tenant: idx })
    }

    /// The device's cost model.
    pub fn spec(&self) -> DeviceSpec {
        self.spec
    }

    /// Total capacity of the pool in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Number of registered tenants.
    pub fn tenants(&self) -> usize {
        self.inner.lock().tenants.len()
    }

    /// The tenant registered with `clock`, if any.
    pub fn tenant_of(&self, clock: &Arc<SimClock>) -> Option<TenantId> {
        self.inner
            .lock()
            .tenants
            .iter()
            .position(|t| Arc::ptr_eq(&t.clock, clock))
            .map(|i| TenantId(i as u32))
    }

    /// Snapshot of the tenant's arbitration counters.
    pub fn tenant_io(&self, tenant: TenantId) -> Option<TenantIo> {
        self.inner.lock().tenants.get(tenant.index()).map(|t| t.io)
    }

    /// The device-wide virtual time: the simulated instant the device
    /// becomes free.
    pub fn device_vtime_ns(&self) -> u64 {
        self.inner.lock().device_vtime_ns
    }
}

/// One tenant's handle into the shared arbiter, held by its `MmapSim`.
#[derive(Debug)]
pub struct DeviceLease {
    inner: Arc<Mutex<ArbiterState>>,
    tenant: usize,
}

impl DeviceLease {
    /// Submits a device request arriving at `arrival_ns` needing
    /// `service_ns` of device time; returns the queueing delay to charge to
    /// the tenant before the service cost (0 whenever the device is free —
    /// always, for a sole tenant).
    pub fn submit(&self, arrival_ns: u64, service_ns: u64) -> u64 {
        self.inner.lock().submit(self.tenant, arrival_ns, service_ns)
    }

    /// The leased tenant.
    pub fn tenant(&self) -> TenantId {
        TenantId(self.tenant as u32)
    }
}

impl Drop for DeviceLease {
    /// Detaches the partition: dropping the heap (and with it the lease)
    /// frees the partition for the tenant's next attach. Arbitration state —
    /// I/O counters, device virtual time — survives, so successive job
    /// rounds of one tenant contend like one long-lived tenant.
    fn drop(&mut self) {
        self.inner.lock().tenants[self.tenant].attached = false;
    }
}

#[cfg(test)]
mod reference {
    //! The weighted start-time fair queue the arbiter used to be, and the
    //! property that pins the FIFO to it.
    //!
    //! The old arbiter kept a finish tag `F_t` per tenant next to the device
    //! virtual time `V`: `ready = max(V, F_t)`, `start = max(a, ready)`,
    //! `V = start + s`, `F_t = start + s * 1000 / weight_milli`. At weight 1000
    //! a tenant's tag is set to `V` by its own request and `V` never decreases,
    //! so `F_t <= V` always, `ready == V`, and the queue is the FIFO of
    //! `ArbiterState::submit` — whatever the arrival order. Random programs of
    //! one to eight tenants must leave both with the same waits, device virtual
    //! time and per-tenant counters.

    use super::*;
    use teraheap_util::prop_assert_eq;
    use teraheap_util::proptest_mini::{
        check, range_u64, range_usize, vec_of, CaseResult, Config, Strategy,
    };

    /// Start-time fair queueing with per-tenant weights in milli-shares.
    struct FairQueue {
        vtime_ns: u64,
        weight_milli: Vec<u64>,
        finish_tag_ns: Vec<u64>,
        io: Vec<TenantIo>,
    }

    impl FairQueue {
        fn new(weight_milli: Vec<u64>) -> Self {
            let n = weight_milli.len();
            FairQueue {
                vtime_ns: 0,
                weight_milli,
                finish_tag_ns: vec![0; n],
                io: vec![TenantIo::default(); n],
            }
        }

        fn submit(&mut self, tenant: usize, arrival_ns: u64, service_ns: u64) -> u64 {
            let ready = self.vtime_ns.max(self.finish_tag_ns[tenant]);
            let start = arrival_ns.max(ready);
            let wait = start - arrival_ns;
            self.vtime_ns = start + service_ns;
            self.finish_tag_ns[tenant] = start + service_ns * 1000 / self.weight_milli[tenant];
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
    /// the fair queue at weight 1000. With `monotone`, the second field of
    /// a request is the gap since the tenant's previous request finished —
    /// the production discipline, where a tenant's clock advances by the
    /// wait plus the service it was charged. Otherwise it is the arrival
    /// instant itself, in any order.
    fn run_both(tenants: usize, requests: &[Request], monotone: bool) -> CaseResult {
        let quota = 4096;
        let device = SharedDevice::for_server(DeviceSpec::nvme_ssd(), tenants * quota);
        let leases: Vec<DeviceLease> = (0..tenants)
            .map(|_| {
                let clock = Arc::new(SimClock::new());
                device.add_tenant(clock.clone(), quota).expect("quota fits the pool");
                device.attach(&clock, quota).expect("fresh tenant attaches")
            })
            .collect();
        let mut queue = FairQueue::new(vec![1000; tenants]);
        let mut clocks = vec![0u64; tenants];
        for (i, &(t, at, service)) in requests.iter().enumerate() {
            let t = t % tenants;
            let arrival = if monotone { clocks[t] + at } else { at };
            let wait = leases[t].submit(arrival, service);
            prop_assert_eq!(wait, queue.submit(t, arrival, service), "request {i}: wait");
            clocks[t] = arrival + wait + service;
        }
        prop_assert_eq!(device.device_vtime_ns(), queue.vtime_ns);
        for (t, lease) in leases.iter().enumerate() {
            prop_assert_eq!(device.tenant_io(lease.tenant()), Some(queue.io[t]), "tenant {t}");
        }
        CaseResult::Pass
    }

    #[test]
    fn fifo_matches_the_equal_weight_fair_queue() {
        check(
            "fifo_matches_the_equal_weight_fair_queue",
            &(program(), range_usize(0..2)),
            &Config::with_cases(256),
            |((tenants, requests), monotone): ((usize, Vec<Request>), usize)| {
                run_both(tenants, &requests, monotone == 1)
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Category;

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
        let io = dev.tenant_io(lease.tenant()).unwrap();
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
        assert_eq!(dev.tenants(), 3);
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
