//! Run reports: the measurements every harness consumes.

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
    /// Human-readable OOM context, when `oom` is set.
    pub oom_context: Option<String>,
    /// Execution-time breakdown (other / S/D+I/O / minor GC / major GC).
    pub breakdown: Breakdown,
    /// Minor GC count.
    pub minor_gcs: u64,
    /// Major GC count.
    pub major_gcs: u64,
    /// Objects moved to H2 (TeraHeap runs).
    pub h2_objects: u64,
    /// Partitions the block manager serialized to the off-heap cache tier
    /// (same source of truth as the `BlockSerde` obs events).
    pub serializations: u64,
    /// Partitions the block manager deserialized back from the off-heap
    /// cache tier.
    pub deserializations: u64,
    /// A workload-defined checksum for cross-configuration validation —
    /// every mode must compute the same answer.
    pub checksum: f64,
}

impl RunReport {
    /// An OOM report (no timings are meaningful).
    pub fn oom(workload: &'static str, mode: String) -> Self {
        RunReport {
            workload,
            mode,
            oom: true,
            oom_context: None,
            breakdown: Breakdown::default(),
            minor_gcs: 0,
            major_gcs: 0,
            h2_objects: 0,
            serializations: 0,
            deserializations: 0,
            checksum: f64::NAN,
        }
    }

    /// Total simulated execution time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.breakdown.total_ns() as f64 / 1e6
    }

    /// One CSV row: `workload,mode,oom,other,sd_io,minor,major,total` (ms).
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{:.3},{:.3},{:.3},{:.3},{:.3}",
            self.workload,
            self.mode,
            self.oom,
            self.breakdown.other_ns as f64 / 1e6,
            self.breakdown.sd_io_ns as f64 / 1e6,
            self.breakdown.minor_gc_ns as f64 / 1e6,
            self.breakdown.major_gc_ns as f64 / 1e6,
            self.total_ms()
        )
    }

    /// The CSV header matching [`RunReport::csv_row`].
    pub fn csv_header() -> &'static str {
        "workload,mode,oom,other_ms,sd_io_ms,minor_gc_ms,major_gc_ms,total_ms"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oom_report_has_nan_checksum() {
        let r = RunReport::oom("PR", "Spark-SD".into());
        assert!(r.oom);
        assert!(r.checksum.is_nan());
        assert!(r.csv_row().starts_with("PR,Spark-SD,true"));
    }

    #[test]
    fn csv_row_field_count_matches_header() {
        let r = RunReport::oom("X", "Y".into());
        assert_eq!(
            r.csv_row().split(',').count(),
            RunReport::csv_header().split(',').count()
        );
    }
}
