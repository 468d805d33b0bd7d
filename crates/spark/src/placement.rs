//! Online per-partition placement cost model: the adaptive placement plane
//! (DESIGN.md §13).
//!
//! "GC or Serialization?" observes that the serialize-vs-H2 winner flips
//! with S/D cost, reuse, and device latency. This module measures all
//! three online — Kryo S/D ns from the block manager's own
//! serialize/deserialize calls, reuse as each RDD's gets per put, and
//! device service time probed from the [`DeviceSpec`]s behind the
//! serialized cache and H2 — and re-decides the placement of every
//! partition on every put.
//!
//! Determinism: the model is pure integer arithmetic over counters that are
//! themselves deterministic functions of the workload, so two runs with the
//! same seed make identical decisions. [`decide`] is a pure function of
//! [`PlacementInputs`], which is what the property tests drive.

use teraheap_storage::DeviceSpec;

/// Where a put places a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Deserialized on the H1 heap (hot data; pays GC copying while live).
    OnHeap,
    /// Serialized to the off-heap cache device (pays S/D + I/O per access).
    Serialized,
    /// Tagged and moved to H2 (pays promotion once, device faults per
    /// access, no S/D).
    H2,
}

impl Placement {
    /// Index into `teraheap_obs::PLACEMENT_NAMES` (and the
    /// `PlacementDecision` event's `choice` field).
    pub fn index(self) -> u8 {
        match self {
            Placement::OnHeap => 0,
            Placement::Serialized => 1,
            Placement::H2 => 2,
        }
    }

    /// Display name, matching `teraheap_obs::PLACEMENT_NAMES`.
    pub fn name(self) -> &'static str {
        match self {
            Placement::OnHeap => "on_heap",
            Placement::Serialized => "serialized",
            Placement::H2 => "h2",
        }
    }
}

/// Everything one placement decision depends on. Pure data so the decision
/// function can be property-tested in isolation.
#[derive(Debug, Clone, Copy)]
pub struct PlacementInputs {
    /// Partition size in heap words.
    pub words: u64,
    /// Serialized size in bytes.
    pub bytes: u64,
    /// Predicted number of future gets (from the RDD's get/put history).
    pub expected_gets: u64,
    /// Measured serialize/deserialize cost per KiB, in ns (EWMA of observed
    /// Kryo runs; one direction — a round trip costs twice this).
    pub serde_ns_per_kb: u64,
    /// Serialized-cache device: service time to read the partition once.
    pub sd_read_ns: u64,
    /// Serialized-cache device: service time to write the partition once.
    pub sd_write_ns: u64,
    /// H2 device: service time to read the partition once (fault path).
    pub h2_read_ns: u64,
    /// H2 device: service time to promote the partition once.
    pub h2_write_ns: u64,
    /// Whether the partition fits in the remaining on-heap cache budget.
    pub onheap_fits: bool,
    /// Whether an H2 is attached (and not degraded).
    pub h2_available: bool,
    /// GC survivor-copy rate in ns per word (heap-pressure proxy for
    /// keeping the partition deserialized on H1).
    pub gc_copy_ns_per_word: u64,
}

/// Survivor copies a resident partition is charged for in the on-heap
/// estimate: one eden→survivor copy per tenuring age step plus the old-gen
/// compaction move — the copying that H2 placement skips.
const RESIDENT_COPIES: u64 = 4;

/// Estimated total cost of keeping the partition deserialized on H1.
pub fn onheap_cost_ns(i: &PlacementInputs) -> u64 {
    if !i.onheap_fits {
        return u64::MAX;
    }
    i.words
        .saturating_mul(i.gc_copy_ns_per_word)
        .saturating_mul(RESIDENT_COPIES)
}

/// Estimated total cost of the serialized placement: serialize + write now,
/// then a read + deserialize per expected get.
pub fn serialized_cost_ns(i: &PlacementInputs) -> u64 {
    let serde_once = i.bytes.saturating_mul(i.serde_ns_per_kb) / 1024;
    serde_once
        .saturating_add(i.sd_write_ns)
        .saturating_add(i.expected_gets.saturating_mul(serde_once.saturating_add(i.sd_read_ns)))
}

/// Estimated total cost of the H2 placement: one promotion write, then a
/// direct (fault-path) read per expected get — no S/D ever.
pub fn h2_cost_ns(i: &PlacementInputs) -> u64 {
    if !i.h2_available {
        return u64::MAX;
    }
    i.h2_write_ns.saturating_add(i.expected_gets.saturating_mul(i.h2_read_ns))
}

/// Picks the cheapest placement. Ties break toward the earlier variant in
/// `OnHeap < H2 < Serialized` order (prefer no-S/D tiers), making the
/// decision a deterministic pure function of the inputs.
pub fn decide(i: &PlacementInputs) -> Placement {
    let on = onheap_cost_ns(i);
    let ser = serialized_cost_ns(i);
    let h2 = h2_cost_ns(i);
    if on <= h2 && on <= ser {
        Placement::OnHeap
    } else if h2 <= ser {
        Placement::H2
    } else {
        Placement::Serialized
    }
}

/// Per-RDD access history. Partitions of one RDD share an access pattern
/// (Spark stages iterate whole RDDs), so history is keyed by RDD id.
#[derive(Debug, Clone, Copy, Default)]
struct RddHistory {
    puts: u64,
    gets: u64,
}

/// The stateful model: device specs probed once at construction, S/D cost
/// and per-RDD gets per put measured online.
#[derive(Debug, Clone)]
pub struct PlacementModel {
    sd_spec: DeviceSpec,
    h2_spec: Option<DeviceSpec>,
    serde_ns_per_kb: u64,
    gc_copy_ns_per_word: u64,
    rdds: Vec<(u64, RddHistory)>,
}

/// Prior for `expected_gets` before an RDD has history: one future access
/// (cached data is cached because something re-reads it).
const DEFAULT_EXPECTED_GETS: u64 = 1;

/// Cap on predicted future gets, so one extremely hot epoch cannot pin a
/// later-cold RDD on the heap forever.
const MAX_EXPECTED_GETS: u64 = 64;

impl PlacementModel {
    /// Creates a model over the serialized-cache device and (optionally)
    /// the H2 device. `serde_ns_per_kb_prior` seeds the measured S/D cost
    /// until the first real observation (pass the static cost-model
    /// estimate); `gc_copy_ns_per_word` is the heap's survivor-copy rate.
    pub fn new(
        sd_spec: DeviceSpec,
        h2_spec: Option<DeviceSpec>,
        serde_ns_per_kb_prior: u64,
        gc_copy_ns_per_word: u64,
    ) -> Self {
        PlacementModel {
            sd_spec,
            h2_spec,
            serde_ns_per_kb: serde_ns_per_kb_prior.max(1),
            gc_copy_ns_per_word,
            rdds: Vec::new(),
        }
    }

    fn history_mut(&mut self, rdd: u64) -> &mut RddHistory {
        match self.rdds.binary_search_by_key(&rdd, |&(k, _)| k) {
            Ok(i) => &mut self.rdds[i].1,
            Err(i) => {
                self.rdds.insert(i, (rdd, RddHistory::default()));
                &mut self.rdds[i].1
            }
        }
    }

    fn history(&self, rdd: u64) -> RddHistory {
        match self.rdds.binary_search_by_key(&rdd, |&(k, _)| k) {
            Ok(i) => self.rdds[i].1,
            Err(_) => RddHistory::default(),
        }
    }

    /// Records a put of a partition of `rdd`.
    pub fn note_put(&mut self, rdd: u64) {
        self.history_mut(rdd).puts += 1;
    }

    /// Records a get of a partition of `rdd`.
    pub fn note_get(&mut self, rdd: u64) {
        self.history_mut(rdd).gets += 1;
    }

    /// Folds one measured Kryo serialize or deserialize run (`ns` over
    /// `bytes`) into the S/D cost estimate (3:1 EWMA).
    pub fn observe_serde(&mut self, bytes: u64, ns: u64) {
        if bytes == 0 {
            return;
        }
        let per_kb = (ns.saturating_mul(1024) / bytes).max(1);
        self.serde_ns_per_kb = (3 * self.serde_ns_per_kb + per_kb) / 4;
    }

    /// Current measured S/D cost estimate (ns per KiB, one direction).
    pub fn serde_ns_per_kb(&self) -> u64 {
        self.serde_ns_per_kb
    }

    /// Predicted future gets for a new partition of `rdd`: the RDD's
    /// observed gets-per-put ratio, defaulting to one with no history.
    pub fn expected_gets(&self, rdd: u64) -> u64 {
        let h = self.history(rdd);
        if h.puts == 0 || h.gets == 0 {
            DEFAULT_EXPECTED_GETS
        } else {
            (h.gets / h.puts).clamp(DEFAULT_EXPECTED_GETS, MAX_EXPECTED_GETS)
        }
    }

    /// Builds the decision inputs for a partition of `rdd` about to be put.
    pub fn inputs(
        &self,
        rdd: u64,
        words: u64,
        bytes: u64,
        onheap_fits: bool,
        h2_available: bool,
    ) -> PlacementInputs {
        let expected_gets = self.expected_gets(rdd);
        let (h2_read_ns, h2_write_ns) = match &self.h2_spec {
            Some(spec) => (spec.read_cost_ns(bytes as usize), spec.write_cost_ns(bytes as usize)),
            None => (u64::MAX, u64::MAX),
        };
        PlacementInputs {
            words,
            bytes,
            expected_gets,
            serde_ns_per_kb: self.serde_ns_per_kb,
            sd_read_ns: self.sd_spec.read_cost_ns(bytes as usize),
            sd_write_ns: self.sd_spec.write_cost_ns(bytes as usize),
            h2_read_ns,
            h2_write_ns,
            onheap_fits,
            h2_available: h2_available && self.h2_spec.is_some(),
            gc_copy_ns_per_word: self.gc_copy_ns_per_word,
        }
    }

    /// Decides the placement of a partition of `rdd` about to be put.
    pub fn decide(&self, rdd: u64, words: u64, bytes: u64, onheap_fits: bool, h2_available: bool) -> Placement {
        decide(&self.inputs(rdd, words, bytes, onheap_fits, h2_available))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teraheap_storage::DeviceSpec;

    fn base_inputs() -> PlacementInputs {
        PlacementInputs {
            words: 4096,
            bytes: 32 << 10,
            expected_gets: 4,
            serde_ns_per_kb: 4096,
            sd_read_ns: 100_000,
            sd_write_ns: 40_000,
            h2_read_ns: 100_000,
            h2_write_ns: 40_000,
            onheap_fits: true,
            h2_available: true,
            gc_copy_ns_per_word: 2,
        }
    }

    #[test]
    fn hot_small_partition_stays_on_heap() {
        let mut i = base_inputs();
        i.words = 512;
        i.expected_gets = 32;
        assert_eq!(decide(&i), Placement::OnHeap);
    }

    #[test]
    fn budget_overflow_disables_on_heap() {
        let mut i = base_inputs();
        i.onheap_fits = false;
        assert_ne!(decide(&i), Placement::OnHeap);
    }

    #[test]
    fn cold_large_partition_prefers_h2_over_serialization() {
        let mut i = base_inputs();
        i.onheap_fits = false;
        i.expected_gets = 1;
        // S/D at 4 µs/KiB dwarfs one device round trip of the same bytes.
        assert_eq!(decide(&i), Placement::H2);
    }

    #[test]
    fn free_serde_flips_to_serialized() {
        let mut i = base_inputs();
        i.onheap_fits = false;
        i.serde_ns_per_kb = 0;
        i.sd_read_ns = 10;
        i.sd_write_ns = 10;
        assert_eq!(decide(&i), Placement::Serialized);
    }

    #[test]
    fn no_h2_never_chooses_h2() {
        let mut i = base_inputs();
        i.h2_available = false;
        i.onheap_fits = false;
        assert_ne!(decide(&i), Placement::H2);
    }

    #[test]
    fn raising_serde_cost_never_flips_toward_serialized() {
        let mut i = base_inputs();
        i.onheap_fits = false;
        let before = decide(&i);
        i.serde_ns_per_kb *= 8;
        let after = decide(&i);
        if before != Placement::Serialized {
            assert_ne!(after, Placement::Serialized);
        }
    }

    #[test]
    fn raising_h2_latency_never_flips_toward_h2() {
        let mut i = base_inputs();
        i.onheap_fits = false;
        let before = decide(&i);
        i.h2_read_ns *= 8;
        i.h2_write_ns *= 8;
        let after = decide(&i);
        if before != Placement::H2 {
            assert_ne!(after, Placement::H2);
        }
    }

    #[test]
    fn model_learns_reuse_and_serde() {
        let spec = DeviceSpec::nvme_ssd();
        let mut m = PlacementModel::new(spec, Some(spec), 4096, 2);
        m.note_put(1);
        for _ in 0..8 {
            m.note_get(1);
        }
        assert_eq!(m.expected_gets(1), 8);
        assert_eq!(m.expected_gets(2), DEFAULT_EXPECTED_GETS);
        let before = m.serde_ns_per_kb();
        m.observe_serde(1024, 16_384);
        assert!(m.serde_ns_per_kb() > before, "EWMA moves toward slower measured S/D");
    }

    #[test]
    fn decisions_replay_identically() {
        let spec = DeviceSpec::nvme_ssd();
        let mk = || {
            let mut m = PlacementModel::new(spec, Some(spec), 4096, 2);
            let mut choices = Vec::new();
            for step in 0..32u64 {
                let rdd = step % 3 + 1;
                m.note_put(rdd);
                for _ in 0..(rdd * 2) {
                    m.note_get(rdd);
                }
                m.observe_serde(4096, 10_000 + step * 17);
                choices.push(m.decide(rdd, 2048, 16 << 10, step % 2 == 0, true));
            }
            choices
        };
        assert_eq!(mk(), mk(), "same input stream must replay to same decisions");
    }
}
