//! The outcome of one batch run of a framework on the heap: the paper's
//! stacked bar (other / S/D+I/O / minor GC / major GC), its GC counts and
//! the traffic to the framework's serialized tier. Spark and Giraph runs
//! both report through [`RunReport`].

use crate::config::OomError;
use crate::heap::Heap;
use teraheap_core::H2;
use teraheap_storage::Breakdown;

/// Outcome of one workload run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Workload name (e.g. "PR").
    pub workload: &'static str,
    /// Configuration name (e.g. "Spark-SD", "TeraHeap").
    pub mode: String,
    /// Whether the run died with an out-of-memory error (the paper's
    /// missing "OOM" bars).
    pub oom: bool,
    /// The [`OomError`]'s text, when `oom` is set.
    pub oom_context: Option<String>,
    /// Execution-time breakdown (other / S/D+I/O / minor GC / major GC).
    pub breakdown: Breakdown,
    /// Minor GC count.
    pub minor_gcs: u64,
    /// Major GC count.
    pub major_gcs: u64,
    /// Objects moved to H2 (TeraHeap runs).
    pub h2_objects: u64,
    /// Serializations to the off-heap tier: Spark partitions past the
    /// on-heap budget, Giraph OOC offloads.
    pub offloads: u64,
    /// Deserializations back from the off-heap tier.
    pub reloads: u64,
    /// A workload-defined checksum for cross-configuration validation —
    /// every mode must compute the same answer.
    pub checksum: f64,
}

impl RunReport {
    /// A run that completed on `heap` with answer `checksum`; `offloads`
    /// and `reloads` are the framework's serialized-tier counters.
    pub fn completed(
        workload: &'static str,
        mode: String,
        heap: &Heap,
        offloads: u64,
        reloads: u64,
        checksum: f64,
    ) -> Self {
        let s = heap.stats();
        RunReport {
            workload,
            mode,
            oom: false,
            oom_context: None,
            breakdown: heap.clock().breakdown(),
            minor_gcs: s.minor_count,
            major_gcs: s.major_count,
            h2_objects: heap.h2().map_or(0, H2::objects_promoted),
            offloads,
            reloads,
            checksum,
        }
    }

    /// A run that died with `error` (no timings are meaningful).
    pub fn oom(workload: &'static str, mode: String, error: &OomError) -> Self {
        RunReport {
            workload,
            mode,
            oom: true,
            oom_context: Some(error.to_string()),
            breakdown: Breakdown::default(),
            minor_gcs: 0,
            major_gcs: 0,
            h2_objects: 0,
            offloads: 0,
            reloads: 0,
            checksum: f64::NAN,
        }
    }

    /// Total simulated execution time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.breakdown.total_ns() as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oom_report_has_nan_checksum() {
        let error = OomError { requested_words: 3, context: "old generation full".into() };
        let r = RunReport::oom("PR", "Spark-SD".into(), &error);
        assert!(r.oom);
        assert!(r.checksum.is_nan());
        assert_eq!(r.oom_context.as_deref(), Some(error.to_string().as_str()));
        assert_eq!(r.breakdown.total_ns(), 0);
    }
}
