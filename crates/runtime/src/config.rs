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
    /// generation is split between DRAM and NVM (Optane DC PMem,
    /// [`DeviceSpec::optane_nvm`]); the first `old_dram_words` of the old
    /// generation are DRAM, the rest NVM. Major GC still scans and compacts
    /// the *whole* old generation, paying NVM access costs for the
    /// NVM-resident part. Large objects are pretenured directly into the old
    /// generation.
    Panthera {
        /// DRAM portion of the old generation, in words.
        old_dram_words: usize,
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
            GcVariant::Panthera { old_dram_words } => VariantPolicy {
                big_object_eden_divisor: 16,
                panthera_nvm: Some((old_dram_words, DeviceSpec::optane_nvm().read_lat_ns / 8)),
                report_suffix: "+Panthera",
                ..ps
            },
        }
    }
}

/// The modelled DRAM-cache miss percentage of NVM Memory mode (the paper's
/// Spark-MO baseline, Figure 12b; [`HeapConfig::memory_mode`]): every heap
/// word access pays this share of an Optane DC PMem read
/// ([`DeviceSpec::optane_nvm`]), amortized over an 8-word cache line.
pub const MEMORY_MODE_MISS_PERCENT: u64 = 40;

/// What the mutator pays to access an H1 word, in simulated ns: DRAM plus
/// a premium, Memory mode's on every word and Panthera's on the words past
/// its NVM boundary. A collector pays only the premium, and an object its
/// start's on every word. Built once per heap; every H1 charge asks it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct H1Price {
    /// DRAM plus Memory mode's premium; that premium; the first NVM word of
    /// a Panthera old generation (`u64::MAX` otherwise); the NVM premium.
    word_ns: u64,
    mode_ns: u64,
    nvm_base: u64,
    nvm_ns: u64,
}

impl H1Price {
    /// The price under `config` and `policy`, the old generation at `old_base`.
    pub(crate) fn new(config: &HeapConfig, policy: &VariantPolicy, old_base: u64) -> Self {
        let (nvm_base, nvm_ns) =
            policy.panthera_nvm.map_or((u64::MAX, 0), |(dram, ns)| (old_base + dram as u64, ns));
        let miss_percent = if config.memory_mode { MEMORY_MODE_MISS_PERCENT } else { 0 };
        let mode_ns = DeviceSpec::optane_nvm().read_lat_ns * miss_percent / 100 / 8;
        H1Price { word_ns: config.cost.dram_word_ns + mode_ns, mode_ns, nvm_base, nvm_ns }
    }

    /// Whether the word at `addr` is past the NVM boundary.
    #[inline(always)]
    pub(crate) fn in_nvm(&self, addr: u64) -> bool {
        addr >= self.nvm_base
    }

    /// How many of the `n` words from `base` are past the NVM boundary.
    #[inline(always)]
    pub(crate) fn nvm_words(&self, base: u64, n: u64) -> u64 {
        (base + n).saturating_sub(self.nvm_base.max(base))
    }

    /// `n` word accesses, `nvm` of them past the NVM boundary.
    #[inline(always)]
    pub(crate) fn accesses(&self, n: u64, nvm: u64) -> u64 {
        n * self.word_ns + nvm * self.nvm_ns
    }

    /// One access of the word at `addr`.
    #[inline(always)]
    pub(crate) fn word(&self, addr: u64) -> u64 {
        self.accesses(1, self.in_nvm(addr).into())
    }

    /// One access of each of the `n` words from `base`.
    #[inline]
    pub(crate) fn words(&self, base: u64, n: u64) -> u64 {
        self.accesses(n, self.nvm_words(base, n))
    }

    /// The premium of the `words`-word object at `start` (of the word at
    /// `start` for `words = 1`).
    #[inline(always)]
    pub(crate) fn premium(&self, start: u64, words: u64) -> u64 {
        (self.mode_ns + if self.in_nvm(start) { self.nvm_ns } else { 0 }) * words
    }

    /// [`H1Price::premium`] summed over the adjacent objects at `starts`
    /// (ascending, not empty), the last ending at `end`.
    pub(crate) fn objects_premium(&self, starts: &[u64], end: u64) -> u64 {
        let first_nvm = starts.partition_point(|&s| !self.in_nvm(s));
        let nvm_words = starts.get(first_nvm).map_or(0, |&s| end - s);
        (end - starts[0]) * self.mode_ns + nvm_words * self.nvm_ns
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
    /// Mutator (executor) threads; frameworks divide their compute and S/D
    /// time by this (paper: 8, swept 4/8/16 in Figure 13a).
    pub mutator_threads: usize,
    /// Collector personality.
    pub variant: GcVariant,
    /// NVM Memory mode (Spark-MO): the whole heap lives in NVM behind a
    /// DRAM cache that misses [`MEMORY_MODE_MISS_PERCENT`] of the time.
    pub memory_mode: bool,
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
            mutator_threads: 8,
            variant: GcVariant::ParallelScavenge,
            memory_mode: false,
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

    /// Checks the structural invariants the heap relies on: a young
    /// generation big enough to carve non-empty survivor spaces out of, a
    /// non-empty old generation, at least one thread per pool and sane
    /// variant parameters.
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
        Ok(())
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
        write!(f, "out of memory: {} ({} words requested)", self.context, self.requested_words)
    }
}

impl std::error::Error for OomError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_invalid_configs() {
        assert_eq!(
            HeapConfig::with_words(4, 1 << 10).validate(),
            Err(ConfigError::YoungTooSmall { young_words: 4 })
        );
        assert_eq!(
            HeapConfig::with_words(1 << 10, 0).validate(),
            Err(ConfigError::ZeroOldGeneration)
        );
        let base = HeapConfig::with_words(1 << 10, 1 << 10);
        assert_eq!(
            HeapConfig { mutator_threads: 0, ..base }.validate(),
            Err(ConfigError::ZeroThreads { pool: "mutator_threads" })
        );
        assert_eq!(
            HeapConfig { gc_threads: 0, ..base }.validate(),
            Err(ConfigError::ZeroThreads { pool: "gc_threads" })
        );
        assert_eq!(
            HeapConfig { variant: GcVariant::G1 { region_words: 0 }, ..base }.validate(),
            Err(ConfigError::ZeroG1Region)
        );
        let variant = GcVariant::Panthera { old_dram_words: 2 << 10 };
        assert_eq!(
            HeapConfig { variant, ..base }.validate(),
            Err(ConfigError::PantheraSplit { old_dram_words: 2 << 10, old_words: 1 << 10 })
        );
    }

    #[test]
    fn validate_accepts_valid_configs() {
        let base = HeapConfig::small();
        for config in [
            base,
            HeapConfig::with_words(10, 1),
            HeapConfig { gc_threads: 8, obs_level: Some(Level::Full), obs_events: 1 << 12, ..base },
            HeapConfig { variant: GcVariant::G1 { region_words: 1 << 10 }, ..base },
            HeapConfig { variant: GcVariant::Panthera { old_dram_words: base.old_words }, ..base },
            HeapConfig { memory_mode: true, heap_check: true, ..base },
        ] {
            assert_eq!(config.validate(), Ok(()), "{config:?}");
        }
    }

    #[test]
    fn oom_displays_context() {
        let e = OomError { requested_words: 7, context: "old generation full".to_string() };
        assert!(format!("{e}").contains("old generation full"));
    }
}
