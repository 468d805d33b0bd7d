//! Heap configuration, collector variants and the out-of-memory error.

use teraheap_storage::obs::Level;
use teraheap_storage::{CostModel, DeviceSpec};

/// Which collector personality the heap runs.
///
/// The evaluation compares TeraHeap against several collectors (Figures 8
/// and 12). All variants share the same *semantics* (objects live and move
/// identically); they differ in cost model and space accounting, which is
/// what the paper's comparisons measure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GcVariant {
    /// Parallel Scavenge: the paper's base collector (OpenJDK 8/11).
    ParallelScavenge,
    /// G1-style collector (OpenJDK 17 in Figure 8): concurrent marking
    /// (charged at a discount), garbage-first mixed collections (compaction
    /// charged only for the live data in the most-garbage regions), and
    /// humongous-object regions. Objects larger than half a G1 region are
    /// humongous: they occupy whole regions, and the per-object wasted tail
    /// inflates old-generation usage — the fragmentation that makes G1 OOM
    /// on SVM, BC and RL in the paper.
    G1 {
        /// G1 heap-region size in words.
        region_words: usize,
    },
    /// Panthera-style hybrid-memory collector (Figure 12c): the old
    /// generation is split between DRAM and NVM; the first `old_dram_words`
    /// of the old generation are DRAM, the rest NVM. Major GC still scans
    /// and compacts the *whole* old generation, paying NVM access costs for
    /// the NVM-resident part. Large objects are pretenured directly into
    /// the old generation.
    Panthera {
        /// DRAM portion of the old generation, in words.
        old_dram_words: usize,
        /// Device model for the NVM portion.
        nvm: DeviceSpec,
    },
}

/// Everything the runtime reads from a [`GcVariant`], derived once when the
/// heap is built: the collector consults these numbers and never matches on
/// the enum itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariantPolicy {
    /// Share of the traced mark CPU that shows up as GC time, in
    /// thousandths (G1 marks concurrently with the mutator: a quarter).
    pub mark_cpu_milli: u64,
    /// Objects larger than eden divided by this bypass eden for the old
    /// generation (PS: half of eden; Panthera pretenures all big objects).
    pub big_object_eden_divisor: usize,
    /// Multiplier on the live young words a minor GC must find old-generation
    /// room for (G1 humongous rounding can double a footprint).
    pub worst_promotion_factor: usize,
    /// G1 heap-region size in words; `None` for the other variants.
    pub g1_region_words: Option<usize>,
    /// Panthera: `(nvm_base_offset_words, extra_ns_per_word)` — where in the
    /// old generation NVM begins, and the access penalty past that point.
    pub panthera_nvm: Option<(usize, u64)>,
    /// Suffix of the configuration name in run reports.
    pub report_suffix: &'static str,
}

impl GcVariant {
    /// The runtime's view of this collector personality.
    pub fn policy(self) -> VariantPolicy {
        let ps = VariantPolicy {
            mark_cpu_milli: 1000,
            big_object_eden_divisor: 2,
            worst_promotion_factor: 1,
            g1_region_words: None,
            panthera_nvm: None,
            report_suffix: "",
        };
        match self {
            GcVariant::ParallelScavenge => ps,
            GcVariant::G1 { region_words } => VariantPolicy {
                mark_cpu_milli: 250,
                worst_promotion_factor: 2,
                g1_region_words: Some(region_words),
                report_suffix: "+G1",
                ..ps
            },
            GcVariant::Panthera { old_dram_words, nvm } => VariantPolicy {
                big_object_eden_divisor: 16,
                panthera_nvm: Some((old_dram_words, nvm.read_lat_ns / 8)),
                report_suffix: "+Panthera",
                ..ps
            },
        }
    }
}

/// Default per-slice pause budget in simulated nanoseconds for incremental
/// major collection (`HeapConfig::pause_budget_ns`). 50 µs sits an order of
/// magnitude under the stop-world major pauses of the figure workloads
/// (hundreds of µs, see `results/fig13_gc_threads.csv`), which is what the
/// fig14 pause-CDF sweep demonstrates.
pub const DEFAULT_PAUSE_BUDGET_NS: u64 = 50_000;

/// NVM "Memory mode" model (the paper's Spark-MO baseline, Figure 12b):
/// the entire heap lives in NVM with DRAM acting as a hardware-managed
/// cache. Every heap word access pays an amortized NVM penalty determined
/// by the modelled cache miss ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryMode {
    /// The NVM device backing the heap.
    pub nvm: DeviceSpec,
    /// Modelled DRAM-cache miss percentage (0–100).
    pub miss_percent: u8,
}

impl MemoryMode {
    /// Extra nanoseconds per heap word access implied by the miss ratio
    /// (NVM latency amortized over an 8-word cache line).
    pub fn extra_ns_per_word(&self) -> u64 {
        (self.nvm.read_lat_ns * self.miss_percent as u64) / 100 / 8
    }
}

/// Full heap configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeapConfig {
    /// Young generation size in words (eden 80%, two 10% survivors).
    pub young_words: usize,
    /// Old generation size in words.
    pub old_words: usize,
    /// Modeled parallel GC threads. Minor and major collections schedule
    /// their work units across this many accounting lanes and charge the
    /// critical path at each phase barrier (DESIGN.md §11). The default `1`
    /// reproduces the calibrated serial collector the committed figures are
    /// built on; thread-scaling scenarios (the paper's machine runs 16 GC
    /// threads) set it explicitly, e.g. the `fig13_gc_threads` sweep.
    pub gc_threads: usize,
    /// Per-slice pause budget for the major cycle, in simulated nanoseconds
    /// (DESIGN.md §11). `0` (the default) never slices: every major GC is a
    /// cycle run whole in one unbounded slice — stop-world, what the
    /// committed figures are built on. A finite non-zero budget starts
    /// cycles proactively and runs them as bounded work-unit slices
    /// interleaved with the mutator; it requires the ParallelScavenge
    /// variant. `u64::MAX` arms the slicing hooks (write barrier, poll) but
    /// never starts a proactive cycle, so every major still runs whole —
    /// `gc_equivalence.rs` pins it bit-identical to `0`.
    pub pause_budget_ns: u64,
    /// Mutator (executor) threads; frameworks divide their compute and S/D
    /// time by this (paper: 8, swept 4/8/16 in Figure 13a).
    pub mutator_threads: usize,
    /// Collector personality.
    pub variant: GcVariant,
    /// Optional NVM Memory-mode access model (Spark-MO).
    pub memory_mode: Option<MemoryMode>,
    /// CPU cost model.
    pub cost: CostModel,
    /// Flight-recorder level override applied to the clock's tracer when the
    /// heap is created; `None` keeps the tracer's current (environment)
    /// level.
    pub obs_level: Option<Level>,
    /// Flight-recorder ring capacity override in events (0 keeps the
    /// default). Figure drivers that export a full GC timeline raise this.
    pub obs_events: usize,
    /// Run the full-heap invariant checker ([`crate::check`]) at every GC
    /// boundary, panicking on the first violation. Also enabled by
    /// `TERAHEAP_HEAP_CHECK=1`. Off by default: the walk is O(heap).
    pub heap_check: bool,
}

impl HeapConfig {
    /// A small configuration for tests and examples: 64 Ki-word young
    /// generation, 256 Ki-word old generation.
    pub fn small() -> Self {
        Self::with_words(64 << 10, 256 << 10)
    }

    /// A configuration with the given young/old sizes and paper-default
    /// thread counts.
    pub fn with_words(young_words: usize, old_words: usize) -> Self {
        HeapConfig {
            young_words,
            old_words,
            gc_threads: 1,
            pause_budget_ns: 0,
            mutator_threads: 8,
            variant: GcVariant::ParallelScavenge,
            memory_mode: None,
            cost: CostModel::default_model(),
            obs_level: None,
            obs_events: 0,
            heap_check: false,
        }
    }

    /// Total H1 capacity in words.
    pub fn h1_words(&self) -> usize {
        self.young_words + self.old_words
    }

    /// Starts a builder with the given generation sizes and paper-default
    /// thread counts (the same seed as [`HeapConfig::with_words`]).
    pub fn builder(young_words: usize, old_words: usize) -> HeapConfigBuilder {
        HeapConfigBuilder { config: Self::with_words(young_words, old_words) }
    }

    /// Checks the structural invariants the heap relies on: a young
    /// generation big enough to carve non-empty survivor spaces out of, a
    /// non-empty old generation, at least one thread per pool, sane variant
    /// parameters and a miss ratio ≤ 100%.
    ///
    /// # Errors
    ///
    /// Returns the first violated [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        // Eden takes 80% of young; each survivor gets half the rest. The
        // split must leave survivors at least one word or minor GC has
        // nowhere to copy survivors to.
        let eden = self.young_words * 8 / 10;
        if (self.young_words - eden) / 2 == 0 {
            return Err(ConfigError::YoungTooSmall { young_words: self.young_words });
        }
        if self.old_words == 0 {
            return Err(ConfigError::ZeroOldGeneration);
        }
        if self.gc_threads == 0 {
            return Err(ConfigError::ZeroThreads { pool: "gc_threads" });
        }
        if self.mutator_threads == 0 {
            return Err(ConfigError::ZeroThreads { pool: "mutator_threads" });
        }
        match self.variant {
            GcVariant::G1 { region_words: 0 } => {
                return Err(ConfigError::ZeroG1Region);
            }
            GcVariant::Panthera { old_dram_words, .. } if old_dram_words > self.old_words => {
                return Err(ConfigError::PantheraSplit {
                    old_dram_words,
                    old_words: self.old_words,
                });
            }
            _ => {}
        }
        if let Some(mm) = self.memory_mode {
            if mm.miss_percent > 100 {
                return Err(ConfigError::MissPercent { miss_percent: mm.miss_percent });
            }
        }
        // A mutator interleaving with the major cycle is only modelled for
        // the ParallelScavenge cost model (G1 already models concurrent
        // marking through its discount; Panthera's split old gen is out of
        // scope). `u64::MAX` arms the same hooks and is likewise PS-only.
        // `0` (never sliced) is valid for every variant.
        if self.pause_budget_ns != 0 && self.variant != GcVariant::ParallelScavenge {
            return Err(ConfigError::IncrementalNeedsPs { pause_budget_ns: self.pause_budget_ns });
        }
        Ok(())
    }
}

/// Builder for [`HeapConfig`]: validated construction for the figure
/// drivers and tests, so a bad configuration surfaces as a typed
/// [`ConfigError`] before any simulation runs.
#[derive(Debug, Clone)]
pub struct HeapConfigBuilder {
    config: HeapConfig,
}

impl HeapConfigBuilder {
    /// Modeled parallel GC threads (accounting lanes for minor and major
    /// work units).
    pub fn gc_threads(mut self, threads: usize) -> Self {
        self.config.gc_threads = threads;
        self
    }

    /// Per-slice pause budget for incremental major collection in simulated
    /// ns (`0` = stop-world, the default; see `HeapConfig::pause_budget_ns`).
    pub fn pause_budget_ns(mut self, ns: u64) -> Self {
        self.config.pause_budget_ns = ns;
        self
    }

    /// Collector personality.
    pub fn variant(mut self, variant: GcVariant) -> Self {
        self.config.variant = variant;
        self
    }

    /// Flight-recorder level applied when the heap is created.
    pub fn obs_level(mut self, level: Level) -> Self {
        self.config.obs_level = Some(level);
        self
    }

    /// Flight-recorder ring capacity in events.
    pub fn obs_events(mut self, events: usize) -> Self {
        self.config.obs_events = events;
        self
    }

    /// Run the full-heap invariant checker at every GC boundary.
    pub fn heap_check(mut self, on: bool) -> Self {
        self.config.heap_check = on;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// See [`HeapConfig::validate`].
    pub fn build(self) -> Result<HeapConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// A structurally invalid [`HeapConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The young generation is too small to hold non-empty survivor spaces.
    YoungTooSmall { young_words: usize },
    /// The old generation was zero words.
    ZeroOldGeneration,
    /// A thread pool was configured with zero threads.
    ZeroThreads { pool: &'static str },
    /// The G1 region size was zero.
    ZeroG1Region,
    /// Panthera's DRAM share exceeds the old generation.
    PantheraSplit { old_dram_words: usize, old_words: usize },
    /// A memory-mode miss ratio above 100%.
    MissPercent { miss_percent: u8 },
    /// A non-zero incremental pause budget on a non-ParallelScavenge
    /// collector variant.
    IncrementalNeedsPs { pause_budget_ns: u64 },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::YoungTooSmall { young_words } => write!(
                f,
                "young generation of {young_words} words leaves empty survivor spaces \
                 (needs at least 10 words)"
            ),
            ConfigError::ZeroOldGeneration => write!(f, "old generation must be non-zero"),
            ConfigError::ZeroThreads { pool } => write!(f, "{pool} must be at least 1"),
            ConfigError::ZeroG1Region => write!(f, "G1 region size must be non-zero"),
            ConfigError::PantheraSplit { old_dram_words, old_words } => write!(
                f,
                "Panthera DRAM share ({old_dram_words} words) exceeds the old \
                 generation ({old_words} words)"
            ),
            ConfigError::MissPercent { miss_percent } => {
                write!(f, "memory-mode miss ratio {miss_percent}% exceeds 100%")
            }
            ConfigError::IncrementalNeedsPs { pause_budget_ns } => write!(
                f,
                "pause_budget_ns = {pause_budget_ns} requires the ParallelScavenge \
                 variant (incremental major collection is PS-only)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// The heap could not satisfy an allocation even after a full GC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OomError {
    /// Words requested by the failing allocation (0 when the failure was a
    /// compaction overflow rather than a specific allocation).
    pub requested_words: usize,
    /// Human-readable context.
    pub context: String,
}

impl std::fmt::Display for OomError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "out of memory: {} ({} words requested)",
            self.context, self.requested_words
        )
    }
}

impl std::error::Error for OomError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_mode_penalty_scales_with_miss_rate() {
        let nvm = DeviceSpec::optane_nvm();
        let m30 = MemoryMode { nvm, miss_percent: 30 };
        let m60 = MemoryMode { nvm, miss_percent: 60 };
        assert!(m30.extra_ns_per_word() > 0);
        assert_eq!(m60.extra_ns_per_word(), 2 * m30.extra_ns_per_word());
    }

    #[test]
    fn builder_rejects_invalid_configs() {
        assert_eq!(
            HeapConfig::builder(4, 1 << 10).build(),
            Err(ConfigError::YoungTooSmall { young_words: 4 })
        );
        assert_eq!(
            HeapConfig::builder(1 << 10, 0).build(),
            Err(ConfigError::ZeroOldGeneration)
        );
        let base = HeapConfig::with_words(1 << 10, 1 << 10);
        assert_eq!(
            HeapConfig { mutator_threads: 0, ..base }.validate(),
            Err(ConfigError::ZeroThreads { pool: "mutator_threads" })
        );
        assert_eq!(
            HeapConfig::builder(1 << 10, 1 << 10).gc_threads(0).build(),
            Err(ConfigError::ZeroThreads { pool: "gc_threads" })
        );
        assert_eq!(
            HeapConfig::builder(1 << 10, 1 << 10)
                .variant(GcVariant::G1 { region_words: 0 })
                .build(),
            Err(ConfigError::ZeroG1Region)
        );
        assert_eq!(
            HeapConfig::builder(1 << 10, 1 << 10)
                .variant(GcVariant::Panthera {
                    old_dram_words: 2 << 10,
                    nvm: DeviceSpec::optane_nvm(),
                })
                .build(),
            Err(ConfigError::PantheraSplit { old_dram_words: 2 << 10, old_words: 1 << 10 })
        );
        let memory_mode = Some(MemoryMode { nvm: DeviceSpec::optane_nvm(), miss_percent: 101 });
        assert_eq!(
            HeapConfig { memory_mode, ..base }.validate(),
            Err(ConfigError::MissPercent { miss_percent: 101 })
        );
        assert_eq!(
            HeapConfig::builder(1 << 10, 1 << 10)
                .variant(GcVariant::G1 { region_words: 256 })
                .pause_budget_ns(50_000)
                .build(),
            Err(ConfigError::IncrementalNeedsPs { pause_budget_ns: 50_000 })
        );
    }

    #[test]
    fn builder_accepts_and_applies_settings() {
        let cfg = HeapConfig::builder(64 << 10, 256 << 10)
            .gc_threads(8)
            .pause_budget_ns(25_000)
            .obs_level(Level::Full)
            .obs_events(1 << 12)
            .build()
            .unwrap();
        assert_eq!(cfg.gc_threads, 8);
        assert_eq!(cfg.pause_budget_ns, 25_000);
        assert_eq!(cfg.obs_level, Some(Level::Full));
        assert_eq!(cfg.obs_events, 1 << 12);
        assert_eq!(cfg, { // builder with no overrides == with_words
            let mut c = HeapConfig::with_words(64 << 10, 256 << 10);
            c.gc_threads = 8;
            c.pause_budget_ns = 25_000;
            c.obs_level = Some(Level::Full);
            c.obs_events = 1 << 12;
            c
        });
    }

    #[test]
    fn oom_displays_context() {
        let e = OomError { requested_words: 7, context: "old generation full".to_string() };
        assert!(format!("{e}").contains("old generation full"));
    }
}
