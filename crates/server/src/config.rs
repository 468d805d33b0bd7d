//! Server-plane configuration: tenant specs, builders and typed errors.
//!
//! Follows the `HeapConfig` / `H2Config` builder idiom: a builder collects
//! settings, `build()` returns the first violated constraint as a typed
//! [`ConfigError`] instead of panicking (or silently misbehaving) mid-run.
//! A tenant's quota is its H2 footprint, tiled after the previous tenant's;
//! the pool is checked here and the footprint again at attach time — never
//! at first I/O.

use mini_giraph::GiraphWorkload;
use mini_spark::{DatasetScale, Workload};
use teraheap_core::H2Config;
use teraheap_runtime::HeapConfig;
use teraheap_storage::DeviceSpec;

/// What a tenant runs per job round.
#[derive(Debug, Clone, Copy)]
pub enum TenantWorkload {
    /// A mini-Spark job.
    Spark {
        /// The Spark workload.
        workload: Workload,
        /// Input dataset scale.
        scale: DatasetScale,
    },
    /// A mini-Giraph graph computation.
    Giraph {
        /// The Graphalytics workload.
        workload: GiraphWorkload,
        /// Vertices in the generated power-law graph.
        vertices: usize,
        /// Average out-degree.
        avg_degree: usize,
        /// Graph generator seed.
        seed: u64,
    },
    /// A query-serving round: closed-loop client sessions over columnar
    /// tables (hot H1 copy + cold H2 copy) through the
    /// `teraheap-query` executor.
    Query {
        /// Concurrent logical client sessions in the round.
        sessions: usize,
        /// Operations replayed across the sessions.
        ops: usize,
        /// Rows per table copy.
        rows: usize,
        /// Seed for table contents and the op stream.
        seed: u64,
    },
}

impl TenantWorkload {
    /// Display name, e.g. `spark:PR` or `giraph:WCC`.
    pub fn name(&self) -> String {
        match self {
            TenantWorkload::Spark { workload, .. } => format!("spark:{}", workload.name()),
            TenantWorkload::Giraph { workload, .. } => format!("giraph:{}", workload.name()),
            TenantWorkload::Query { sessions, ops, .. } => format!("query:{sessions}x{ops}"),
        }
    }
}

/// Why a server configuration was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// A server with no tenants schedules nothing.
    ZeroTenants,
    /// A tenant with zero job rounds never runs.
    ZeroRounds,
    /// The tenants' H2 footprints do not fit the device capacity pool.
    QuotaExceedsCapacity {
        /// Index of the first tenant that did not fit.
        tenant: usize,
        /// Its H2 footprint in bytes.
        requested: usize,
        /// Bytes of the pool the tenants before it left unassigned.
        available: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroTenants => write!(f, "server needs at least one tenant"),
            ConfigError::ZeroRounds => write!(f, "tenant needs at least one job round"),
            ConfigError::QuotaExceedsCapacity { tenant, requested, available } => write!(
                f,
                "tenant {tenant} quota {requested} B exceeds remaining capacity {available} B"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// One tenant of the server: a workload and its heap/H2 shape. Its device
/// quota is the H2 footprint.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name for reports and CSVs.
    pub name: String,
    /// What this tenant runs.
    pub workload: TenantWorkload,
    /// H1 configuration of the tenant's heap.
    pub heap: HeapConfig,
    /// H2 layout of the tenant's second heap.
    pub h2: H2Config,
    /// Job rounds to run.
    pub rounds: usize,
}

impl TenantSpec {
    /// Starts a builder with the server-plane defaults.
    pub fn builder(name: impl Into<String>, workload: TenantWorkload) -> TenantSpecBuilder {
        TenantSpecBuilder {
            spec: TenantSpec {
                name: name.into(),
                workload,
                heap: HeapConfig::with_words(32 << 10, 128 << 10),
                h2: H2Config::default(),
                rounds: 4,
            },
        }
    }
}

/// Builder for [`TenantSpec`].
#[derive(Debug, Clone)]
pub struct TenantSpecBuilder {
    spec: TenantSpec,
}

impl TenantSpecBuilder {
    /// H1 configuration of the tenant's heap.
    pub fn heap(mut self, heap: HeapConfig) -> Self {
        self.spec.heap = heap;
        self
    }

    /// H2 layout; its footprint is the tenant's device quota.
    pub fn h2(mut self, h2: H2Config) -> Self {
        self.spec.h2 = h2;
        self
    }

    /// Job rounds to run.
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.spec.rounds = rounds;
        self
    }

    /// Validates the tenant on its own.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroRounds`].
    pub fn build(self) -> Result<TenantSpec, ConfigError> {
        if self.spec.rounds == 0 {
            return Err(ConfigError::ZeroRounds);
        }
        Ok(self.spec)
    }
}

/// A validated server-plane configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Cost model of the shared device.
    pub device: DeviceSpec,
    /// Total device capacity pool in bytes.
    pub capacity_bytes: usize,
    /// The tenants, in registration order.
    pub tenants: Vec<TenantSpec>,
}

impl ServerConfig {
    /// Starts a builder for a device of `capacity_bytes`.
    pub fn builder(device: DeviceSpec, capacity_bytes: usize) -> ServerConfigBuilder {
        ServerConfigBuilder { config: ServerConfig { device, capacity_bytes, tenants: Vec::new() } }
    }

    /// Checks that there is a tenant, that every tenant runs, and that the
    /// H2 footprints, tiled in registration order, fit the pool.
    ///
    /// # Errors
    ///
    /// The first violated constraint as a [`ConfigError`].
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        if self.tenants.is_empty() {
            return Err(ConfigError::ZeroTenants);
        }
        let mut available = self.capacity_bytes;
        for (tenant, t) in self.tenants.iter().enumerate() {
            if t.rounds == 0 {
                return Err(ConfigError::ZeroRounds);
            }
            let requested = t.h2.footprint_bytes();
            if requested > available {
                return Err(ConfigError::QuotaExceedsCapacity { tenant, requested, available });
            }
            available -= requested;
        }
        Ok(())
    }
}

/// Builder for [`ServerConfig`].
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    config: ServerConfig,
}

impl ServerConfigBuilder {
    /// Adds a tenant.
    pub fn tenant(mut self, spec: TenantSpec) -> Self {
        self.config.tenants.push(spec);
        self
    }

    /// Validates the whole configuration (see [`ServerConfig`]'s fields).
    ///
    /// # Errors
    ///
    /// The first violated constraint as a [`ConfigError`]: no tenant, a
    /// tenant with zero rounds, or footprints that overflow the pool.
    pub fn build(self) -> Result<ServerConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}
