//! Multi-tenant server plane for the TeraHeap reproduction.
//!
//! The paper evaluates one framework instance per device. Real deployments
//! colocate many: this crate runs N independent [`teraheap_runtime::Heap`]
//! tenants — mixed mini-Spark and mini-Giraph workloads — against **one**
//! shared simulated H2 device ([`teraheap_storage::SharedDevice`]), and
//! makes the contention measurable (DESIGN.md §12):
//!
//! * [`ServerConfig`] / [`TenantSpec`] — builder-validated tenant layout:
//!   per-tenant H2 partitions and quotas carved from one capacity pool,
//!   arbitration weights, job-round counts. Violations are typed
//!   [`ConfigError`]s at build time, not panics at first I/O.
//! * [`Server`] — a deterministic discrete-event scheduler: the runnable
//!   tenant furthest behind in simulated time runs next, subject to an
//!   admission policy that defers tenants whose promotion/GC bursts have
//!   overdrawn their device share (virtual finish tag vs. device virtual
//!   time).
//! * [`ServerReport`] / [`TenantReport`] — aggregate throughput, per-tenant
//!   p99 round latency, queueing delay and Jain's fairness index; scheduling
//!   decisions and queueing delays also land on each tenant's
//!   flight-recorder timeline (`TenantSched` / `DeviceQueued` events).
//!
//! Everything is deterministic: same config, same report, bit for bit.

pub mod config;
pub mod server;

pub use config::{
    ConfigError, ServerConfig, ServerConfigBuilder, TenantSpec, TenantSpecBuilder, TenantWorkload,
};
pub use server::{jain_index, Server, ServerReport, TenantReport};

#[cfg(test)]
mod tests {
    use super::*;
    use mini_giraph::GiraphWorkload;
    use mini_spark::{DatasetScale, Workload};
    use teraheap_core::H2Config;
    use teraheap_runtime::HeapConfig;
    use teraheap_storage::DeviceSpec;

    fn small_h2() -> H2Config {
        H2Config::builder()
            .region_words(8 << 10)
            .n_regions(32)
            .card_seg_words(256)
            .resident_budget_bytes(96 << 10)
            .page_size(4096)
            .promo_buffer_bytes(16 << 10)
            .build()
            .expect("valid H2 config")
    }

    /// A heap small enough that the 2000-vertex inputs below overflow H1
    /// and promote to H2 — tenants must generate real device traffic for
    /// the contention assertions to mean anything.
    fn pressured_heap() -> HeapConfig {
        HeapConfig::with_words(8 << 10, 24 << 10)
    }

    fn spark_tenant(name: &str, rounds: usize) -> TenantSpec {
        let mut scale = DatasetScale::tiny();
        scale.vertices = 2000;
        scale.avg_degree = 6;
        TenantSpec::builder(name, TenantWorkload::Spark { workload: Workload::Pr, scale })
            .h2(small_h2())
            .heap(pressured_heap())
            .rounds(rounds)
            .build()
            .expect("valid tenant")
    }

    fn giraph_tenant(name: &str, rounds: usize) -> TenantSpec {
        TenantSpec::builder(
            name,
            TenantWorkload::Giraph {
                workload: GiraphWorkload::Wcc,
                vertices: 2000,
                avg_degree: 6,
                seed: 7,
            },
        )
        .h2(small_h2())
        .heap(pressured_heap())
        .rounds(rounds)
        .build()
        .expect("valid tenant")
    }

    fn query_tenant(name: &str, rounds: usize) -> TenantSpec {
        TenantSpec::builder(
            name,
            TenantWorkload::Query { sessions: 4, ops: 96, rows: 512, seed: 11 },
        )
        .h2(small_h2())
        .heap(HeapConfig::with_words(16 << 10, 96 << 10))
        .rounds(rounds)
        .build()
        .expect("valid tenant")
    }

    #[test]
    fn builder_rejects_zero_tenants() {
        let err = ServerConfig::builder(DeviceSpec::nvme_ssd(), 1 << 30)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroTenants);
    }

    #[test]
    fn builder_rejects_quota_over_capacity() {
        // small_h2 needs 2 MiB; a 3 MiB pool fits one tenant, not two.
        let err = ServerConfig::builder(DeviceSpec::nvme_ssd(), 3 << 20)
            .tenant(spark_tenant("a", 1))
            .tenant(spark_tenant("b", 1))
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::QuotaExceedsCapacity { tenant: 1, .. }), "{err:?}");
    }

    #[test]
    fn builder_rejects_overlapping_partitions() {
        let mut a = spark_tenant("a", 1);
        a.offset_bytes = Some(0);
        let mut b = spark_tenant("b", 1);
        b.offset_bytes = Some(a.quota_bytes / 2);
        let err = ServerConfig::builder(DeviceSpec::nvme_ssd(), 1 << 30)
            .tenant(a)
            .tenant(b)
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::OverlappingPartitions { tenant: 1, existing: 0 });
    }

    #[test]
    fn builder_rejects_quota_below_footprint() {
        let err = TenantSpec::builder(
            "a",
            TenantWorkload::Spark { workload: Workload::Pr, scale: DatasetScale::tiny() },
        )
        .h2(small_h2())
        .quota_bytes(4096)
        .build()
        .unwrap_err();
        assert!(matches!(err, ConfigError::QuotaBelowFootprint { .. }), "{err:?}");
    }

    #[test]
    fn builder_rejects_zero_rounds() {
        let err = TenantSpec::builder(
            "a",
            TenantWorkload::Spark { workload: Workload::Pr, scale: DatasetScale::tiny() },
        )
        .rounds(0)
        .build()
        .unwrap_err();
        assert_eq!(err, ConfigError::ZeroRounds);
    }

    #[test]
    fn sole_tenant_never_queues() {
        let config = ServerConfig::builder(DeviceSpec::nvme_ssd(), 1 << 30)
            .tenant(spark_tenant("solo", 2))
            .build()
            .unwrap();
        let report = Server::new(config).unwrap().run();
        assert_eq!(report.tenants.len(), 1);
        let t = &report.tenants[0];
        assert_eq!(t.rounds, 2);
        assert_eq!(t.oom_rounds, 0);
        assert_eq!(t.io.queued_ns, 0, "a sole tenant must never wait");
        assert_eq!(t.deferrals, 0);
        assert!((report.jain_fairness - 1.0).abs() < 1e-12);
    }

    #[test]
    fn contending_tenants_queue_and_stay_deterministic() {
        let mk = || {
            ServerConfig::builder(DeviceSpec::nvme_ssd(), 1 << 30)
                .tenant(spark_tenant("spark-0", 2))
                .tenant(giraph_tenant("giraph-0", 2))
                .build()
                .unwrap()
        };
        let a = Server::new(mk()).unwrap().run();
        let b = Server::new(mk()).unwrap().run();
        assert!(a.tenants.iter().any(|t| t.io.queued_ns > 0), "contention must queue someone");
        for (x, y) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(x.total_ns, y.total_ns, "server runs must be deterministic");
            assert_eq!(x.round_ns, y.round_ns);
            assert_eq!(x.io, y.io);
            assert_eq!(x.checksum, y.checksum);
        }
        assert_eq!(a.device_vtime_ns, b.device_vtime_ns);
        assert!(a.jain_fairness > 0.0 && a.jain_fairness <= 1.0 + 1e-12);
    }

    #[test]
    fn checksums_match_private_device_runs() {
        // The shared device changes *when* I/O happens, never results.
        let config = ServerConfig::builder(DeviceSpec::nvme_ssd(), 1 << 30)
            .tenant(spark_tenant("s", 1))
            .tenant(giraph_tenant("g", 1))
            .build()
            .unwrap();
        let report = Server::new(config).unwrap().run();
        let solo_g = ServerConfig::builder(DeviceSpec::nvme_ssd(), 1 << 30)
            .tenant(giraph_tenant("g", 1))
            .build()
            .unwrap();
        let solo = Server::new(solo_g).unwrap().run();
        assert_eq!(report.tenants[1].checksum, solo.tenants[0].checksum);
    }

    #[test]
    fn query_tenant_serves_rounds_and_answers_survive_contention() {
        // A query tenant colocated with a batch Spark tenant: rounds
        // complete, the run is deterministic, and the query answers are
        // bit-identical to a run with the device to itself — contention
        // moves latency, never results.
        let mk = || {
            ServerConfig::builder(DeviceSpec::nvme_ssd(), 1 << 30)
                .tenant(spark_tenant("spark-0", 2))
                .tenant(query_tenant("query-0", 2))
                .build()
                .unwrap()
        };
        let a = Server::new(mk()).unwrap().run();
        let b = Server::new(mk()).unwrap().run();
        let q = &a.tenants[1];
        assert_eq!(q.workload, "query:4x96");
        assert_eq!(q.rounds, 2);
        assert_eq!(q.oom_rounds, 0);
        assert!(q.checksum != 0.0, "query rounds must produce a real checksum");
        assert_eq!(q.checksum, b.tenants[1].checksum);
        assert_eq!(q.total_ns, b.tenants[1].total_ns, "query rounds must replay exactly");

        let solo = ServerConfig::builder(DeviceSpec::nvme_ssd(), 1 << 30)
            .tenant(query_tenant("query-0", 2))
            .build()
            .unwrap();
        let solo = Server::new(solo).unwrap().run();
        assert_eq!(q.checksum, solo.tenants[0].checksum);
    }
}
