//! The server: N tenant heaps scheduled over one shared device.
//!
//! Discrete-event scheduling over the tenants' own `SimClock`s: each
//! scheduling pass grants one job round to the *runnable tenant with the
//! smallest local clock* — the tenant furthest behind in simulated time,
//! ties by index. Every grant lands on the tenant's flight-recorder
//! timeline as a `TenantSched` event; queueing delays appear as
//! `DeviceQueued` events and per-tenant [`TenantIo`] counters.

use crate::config::{ConfigError, ServerConfig, TenantWorkload};
use mini_giraph::{run_giraph_on, GiraphConfig, GiraphMode};
use mini_spark::{run_workload_on, ExecMode, SparkConfig, SparkContext};
use std::sync::Arc;
use teraheap_query::LatencyHistogram;
use teraheap_runtime::Heap;
use teraheap_storage::obs::EventKind;
use teraheap_storage::spare::Recycling;
use teraheap_storage::{SharedDevice, SimClock, TenantId, TenantIo};

/// Per-tenant outcome of a server run.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant display name.
    pub name: String,
    /// Workload display name.
    pub workload: String,
    /// Job rounds completed.
    pub rounds: usize,
    /// Rounds that hit OOM (checksum 0 for those rounds).
    pub oom_rounds: usize,
    /// Final local clock, in simulated ns.
    pub total_ns: u64,
    /// Per-round latencies, in scheduling order.
    pub round_ns: Vec<u64>,
    /// p99 round latency (max for small round counts).
    pub p99_round_ns: u64,
    /// Arbitration counters (queueing delay, busy time, ops).
    pub io: TenantIo,
    /// Times the tenant was passed over for admission: always 0, since the
    /// server grants by clock alone. Kept for the report readers.
    pub deferrals: u64,
    /// Checksum of the last completed round (mode-independent answer).
    pub checksum: f64,
}

/// Aggregate outcome of a server run.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Per-tenant reports, in registration order.
    pub tenants: Vec<TenantReport>,
    /// End of the device's latest booking, in simulated ns (the service
    /// total is the sum of the tenants' `io.busy_ns`).
    pub device_vtime_ns: u64,
    /// Slowest tenant's final clock — the plane's makespan.
    pub makespan_ns: u64,
    /// Total job rounds across tenants.
    pub total_rounds: usize,
    /// Aggregate throughput: job rounds per simulated second.
    pub agg_rounds_per_sec: f64,
    /// Jain's fairness index over per-tenant round throughput
    /// (1.0 = perfectly fair, 1/N = one tenant starved the rest).
    pub jain_fairness: f64,
}

/// Jain's fairness index over non-negative rates.
pub fn jain_index(rates: &[f64]) -> f64 {
    let n = rates.len() as f64;
    let sum: f64 = rates.iter().sum();
    let sq: f64 = rates.iter().map(|r| r * r).sum();
    if sq == 0.0 {
        return 1.0;
    }
    sum * sum / (n * sq)
}

/// The scope of a run's round memory: each round's heap and H2 store are
/// built in the buffers the last round dropped (DESIGN.md §12). The
/// `cfg(test)` oracle gives every round fresh memory instead.
fn round_memory() -> Option<Recycling> {
    #[cfg(test)]
    if fresh_rounds::ON.with(std::cell::Cell::get) {
        return None;
    }
    Some(Recycling::begin())
}

/// The oracle switch: while `ON`, server runs on this thread allocate every
/// round's memory afresh.
#[cfg(test)]
pub(crate) mod fresh_rounds {
    thread_local! {
        pub(crate) static ON: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }
}

/// The multi-tenant server plane.
#[derive(Debug)]
pub struct Server {
    config: ServerConfig,
    device: SharedDevice,
    clocks: Vec<Arc<SimClock>>,
    ids: Vec<TenantId>,
}

impl Server {
    /// Registers every tenant of `config` on a fresh shared device, each
    /// with its H2 footprint as quota.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a [`ConfigError`] (the
    /// builder already validates; this re-validates defensively for
    /// hand-constructed configs).
    ///
    /// # Panics
    ///
    /// If a tenant's H2 layout has a zero footprint (an `H2Config` its own
    /// validation rejects).
    pub fn new(config: ServerConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let device = SharedDevice::for_server(config.device, config.capacity_bytes);
        let mut clocks = Vec::with_capacity(config.tenants.len());
        let mut ids = Vec::with_capacity(config.tenants.len());
        for t in &config.tenants {
            let clock = Arc::new(SimClock::new());
            let id = device
                .add_tenant(clock.clone(), t.h2.footprint_bytes())
                .expect("validated footprints tile the pool");
            clocks.push(clock);
            ids.push(id);
        }
        Ok(Server { config, device, clocks, ids })
    }

    /// Tenant `i`'s clock (e.g. to enable its flight recorder).
    pub fn clock(&self, i: usize) -> &Arc<SimClock> {
        &self.clocks[i]
    }

    /// Runs every tenant to completion and reports fairness + throughput.
    pub fn run(&mut self) -> ServerReport {
        let _round_memory = round_memory();
        let n = self.config.tenants.len();
        let mut rounds_left: Vec<usize> = self.config.tenants.iter().map(|t| t.rounds).collect();
        let mut round_ns: Vec<Vec<u64>> = vec![Vec::new(); n];
        let mut oom_rounds = vec![0usize; n];
        let mut checksums = vec![0.0f64; n];

        // The runnable tenant furthest behind in simulated time, ties by index.
        while let Some(i) =
            (0..n).filter(|&i| rounds_left[i] > 0).min_by_key(|&i| (self.clocks[i].total_ns(), i))
        {
            self.clocks[i].emit(EventKind::TenantSched { tenant: self.ids[i].tag() });
            let before = self.clocks[i].total_ns();
            match self.run_round(i) {
                Some(c) => checksums[i] = c,
                None => oom_rounds[i] += 1,
            }
            round_ns[i].push(self.clocks[i].total_ns() - before);
            rounds_left[i] -= 1;
        }

        let tenants: Vec<TenantReport> = (0..n)
            .map(|i| {
                let spec = &self.config.tenants[i];
                let mut latency = LatencyHistogram::new();
                round_ns[i].iter().for_each(|&ns| latency.record(ns));
                let latency = latency.summary();
                TenantReport {
                    name: spec.name.clone(),
                    workload: spec.workload.name(),
                    rounds: round_ns[i].len(),
                    oom_rounds: oom_rounds[i],
                    total_ns: self.clocks[i].total_ns(),
                    p99_round_ns: latency.p99_ns,
                    round_ns: round_ns[i].clone(),
                    io: self.device.tenant_io(self.ids[i]).unwrap_or_default(),
                    deferrals: 0,
                    checksum: checksums[i],
                }
            })
            .collect();
        let makespan_ns = tenants.iter().map(|t| t.total_ns).max().unwrap_or(0);
        let total_rounds: usize = tenants.iter().map(|t| t.rounds).sum();
        let rates: Vec<f64> =
            tenants.iter().map(|t| t.rounds as f64 / (t.total_ns.max(1) as f64)).collect();
        ServerReport {
            device_vtime_ns: self.device.device_vtime_ns(),
            makespan_ns,
            total_rounds,
            agg_rounds_per_sec: total_rounds as f64 / (makespan_ns.max(1) as f64 / 1e9),
            jain_fairness: jain_index(&rates),
            tenants,
        }
    }

    /// One job round for tenant `i`: make its heap on the tenant clock and
    /// attach it to the tenant's partition of the shared device, hand it to
    /// the workload's framework, drop it with the round (detach —
    /// arbitration state persists). Returns the checksum, or `None` on OOM.
    fn run_round(&self, i: usize) -> Option<f64> {
        let spec = &self.config.tenants[i];
        let mut heap = Heap::with_clock(spec.heap, self.clocks[i].clone());
        heap.attach_h2(spec.h2, &self.device).expect("validated tenant attach cannot fail");
        match spec.workload {
            TenantWorkload::Spark { workload, scale } => {
                let mode = ExecMode::TeraHeap { h2: spec.h2, device: self.config.device };
                let cfg = SparkConfig { heap: spec.heap, mode, partitions: 4, iterations: 3 };
                let mut ctx = SparkContext::with_heap(cfg, heap);
                run_workload_on(workload, &mut ctx, scale).ok()
            }
            TenantWorkload::Giraph { workload, vertices, avg_degree, seed } => {
                let mode = GiraphMode::TeraHeap { h2: spec.h2, device: self.config.device };
                let cfg = GiraphConfig { heap: spec.heap, ..GiraphConfig::small(mode) };
                let round = run_giraph_on(heap, workload, cfg, vertices, avg_degree, seed);
                round.ok().map(|(_ctx, checksum)| checksum)
            }
            TenantWorkload::Query { sessions, ops, rows, seed } => {
                teraheap_query::run_tenant_round(heap, sessions, ops, rows, seed).ok()
            }
        }
    }
}
