//! Latency histograms and the session driver's report.

/// A per-operation latency population with per-mille quantiles.
///
/// Samples are simulated ns; the histogram itself is host-side
/// instrumentation and charges nothing.
#[derive(Debug, Clone, Default)]
pub struct LatencyHistogram {
    samples: Vec<u64>,
}

impl LatencyHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one operation latency.
    pub fn record(&mut self, ns: u64) {
        self.samples.push(ns);
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `q`‰ quantile (q in 1..=1000) by nearest rank: index
    /// `ceil(len·q/1000) - 1` of the sorted population. 0 when empty.
    pub fn quantile_permille(&self, q: u64) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let idx = ((sorted.len() as u64 * q).div_ceil(1000) as usize).saturating_sub(1);
        sorted[idx.min(sorted.len() - 1)]
    }

    /// Collapses the population into a [`LatencySummary`].
    pub fn summary(&self) -> LatencySummary {
        let count = self.samples.len() as u64;
        let total: u64 = self.samples.iter().sum();
        LatencySummary {
            count,
            p50_ns: self.quantile_permille(500),
            p99_ns: self.quantile_permille(990),
            p999_ns: self.quantile_permille(999),
            max_ns: self.samples.iter().copied().max().unwrap_or(0),
            mean_ns: total.checked_div(count).unwrap_or(0),
        }
    }
}

/// p50/p99/p999/max/mean of one latency population.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Operations in the population.
    pub count: u64,
    /// Median latency, simulated ns.
    pub p50_ns: u64,
    /// 99th percentile latency.
    pub p99_ns: u64,
    /// 99.9th percentile latency.
    pub p999_ns: u64,
    /// Worst observed latency.
    pub max_ns: u64,
    /// Mean latency.
    pub mean_ns: u64,
}

/// Aggregate outcome of a [`crate::session::run_query_plane`] run.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// Logical client sessions replayed.
    pub sessions: usize,
    /// Tenant heaps the sessions were multiplexed over.
    pub tenants: usize,
    /// Operations completed.
    pub ops: usize,
    /// Latency summary over every operation.
    pub all: LatencySummary,
    /// Latency summaries per op kind, indexed by
    /// [`crate::session::OpKind::index`] (point lookup, range scan,
    /// aggregate).
    pub per_kind: [LatencySummary; 3],
    /// Completion time of the last operation (simulated ns) — the plane's
    /// makespan including session think time.
    pub makespan_ns: u64,
    /// Shared-device virtual time consumed (total arbitrated service).
    pub device_vtime_ns: u64,
    /// Total queueing delay the device arbiter charged across tenants.
    pub device_queued_ns: u64,
    /// Operations per simulated second.
    pub ops_per_sec: f64,
    /// Column chunks resident in H2 at the end of the run (all tenants).
    pub h2_chunks: usize,
    /// Canonical answer checksum: FNV-1a over `(op index, result checksum,
    /// rows matched)` in global op order. Invariant across session count,
    /// device, and hot fraction — the arms only move *where* the data
    /// lives, never what the queries answer.
    pub checksum: u64,
}
