//! Region-based organization of H2 (§3.3, Figure 2).
//!
//! H2 is divided into fixed-size regions. Each region hosts an object group
//! with a similar lifetime — the transitive closure of root key-objects
//! tagged with the same label — so dead objects can be reclaimed *in bulk*
//! by freeing whole regions. Unlike DRAM region allocators (Broom, Yak),
//! TeraHeap never compacts H2: reclamation is lazy (reset the allocation
//! pointer, drop the dependency list) because compaction would generate
//! excessive read-modify-write I/O on the device.
//!
//! Per-region metadata lives in DRAM: `start`/`top` pointers, a `live` bit
//! set when marking finds an H1→H2 reference into the region, a
//! *dependency list* of regions that this region's objects reference
//! (directional, so a region referenced only by dead regions can still be
//! reclaimed — the property undirected region groups lose; the `ablations`
//! figure measures the gap) and the start addresses of its objects, which
//! card scans search. All of it dies with the region.

use crate::addr::Addr;
use crate::policy::Label;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The open-region map's hasher: labels are integers the frameworks issue,
/// never outside input, and the map is never iterated, so one multiply
/// spreads them where SipHash's flood resistance would buy nothing.
#[derive(Default)]
struct LabelHasher(u64);

impl Hasher for LabelHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }

    fn write_u64(&mut self, n: u64) {
        // Fibonacci hashing; the rotation brings the well-mixed high half
        // down to the bucket-index bits.
        self.0 = ((self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15)).rotate_left(32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Identifier of an H2 region (index into the region array).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u32);

impl std::fmt::Display for RegionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// Per-region metadata (DRAM-resident, Figure 2); the default is a free
/// region.
#[derive(Debug, Clone, Default)]
struct Region {
    /// Allocation offset within the region, in words (the `top` pointer).
    top: usize,
    /// Live bit: reachable from H1 this collection (directly or via deps).
    live: bool,
    /// Label of the object group placed here, if the region is in use.
    label: Option<Label>,
    /// Dependency list: regions referenced by objects in this region.
    deps: Vec<RegionId>,
    /// Objects allocated in this region (for Figure 10 statistics).
    total_objects: u64,
    /// Live objects observed during the last marking (Figure 10).
    live_objects: u64,
    /// Words occupied by live objects during the last marking (Figure 10).
    live_words: u64,
    /// Start addresses of the objects promoted here (the card offset table
    /// analogue): ascending after every [`RegionManager::sort_starts`].
    starts: Vec<u64>,
}

impl Region {
    fn is_free(&self) -> bool {
        self.label.is_none() && self.top == 0
    }
}

/// Snapshot of one region's occupancy, used for Figure 10 and Table 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionStats {
    /// Region identifier.
    pub id: RegionId,
    /// Words allocated in the region.
    pub used_words: usize,
    /// Total objects ever allocated into the region (since last reclaim).
    pub total_objects: u64,
    /// Objects found live by the last marking.
    pub live_objects: u64,
    /// Words occupied by live objects at the last marking.
    pub live_words: u64,
}

impl RegionStats {
    /// Percentage of the region's objects that were live (0–100).
    pub fn live_object_pct(&self) -> f64 {
        if self.total_objects == 0 {
            0.0
        } else {
            100.0 * self.live_objects as f64 / self.total_objects as f64
        }
    }

    /// Percentage of the region's *space* occupied by live objects, relative
    /// to the full region size (0–100).
    pub fn live_space_pct(&self, region_words: usize) -> f64 {
        if region_words == 0 {
            0.0
        } else {
            100.0 * self.live_words as f64 / region_words as f64
        }
    }
}

/// Errors from region allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionError {
    /// The requested object is larger than a whole region.
    ObjectTooLarge { words: usize, region_words: usize },
    /// No free region is available (H2 exhausted).
    OutOfRegions,
}

impl std::fmt::Display for RegionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegionError::ObjectTooLarge { words, region_words } => {
                write!(f, "object of {words} words exceeds region size of {region_words} words")
            }
            RegionError::OutOfRegions => write!(f, "no free H2 region available"),
        }
    }
}

impl std::error::Error for RegionError {}

/// The H2 region allocator and liveness tracker.
///
/// Objects with the same label are placed together (append-only) in the
/// label's current open region; a new region is opened when the current one
/// fills. Objects never span regions, which lets stripe-aligned card
/// scanning proceed without cross-thread card sharing (§3.4).
#[derive(Debug)]
pub struct RegionManager {
    region_words: usize,
    regions: Vec<Region>,
    /// Free-region stack.
    free: Vec<RegionId>,
    /// Current open region per label.
    open: HashMap<Label, RegionId, BuildHasherDefault<LabelHasher>>,
    /// Cumulative count of regions reclaimed over the run.
    reclaimed_total: u64,
    /// Cumulative count of regions ever allocated (opened) over the run.
    allocated_total: u64,
    /// Stats snapshots of regions reclaimed during execution (Figure 10
    /// counts "allocated regions = reclaimed during execution + active at
    /// shutdown").
    reclaimed_stats: Vec<RegionStats>,
    /// Regions whose start lists grew since the last sort.
    appended: Vec<RegionId>,
}

impl RegionManager {
    /// Creates a manager with `n_regions` regions of `region_words` words.
    pub fn new(region_words: usize, n_regions: usize) -> Self {
        let mut free: Vec<RegionId> = (0..n_regions as u32).map(RegionId).collect();
        free.reverse(); // pop from the low end first
        RegionManager {
            region_words,
            regions: vec![Region::default(); n_regions],
            free,
            open: HashMap::default(),
            reclaimed_total: 0,
            allocated_total: 0,
            reclaimed_stats: Vec::new(),
            appended: Vec::new(),
        }
    }

    /// Region size in words.
    pub fn region_words(&self) -> usize {
        self.region_words
    }

    /// Total number of regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Number of currently free regions.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Cumulative number of regions reclaimed.
    pub fn reclaimed_total(&self) -> u64 {
        self.reclaimed_total
    }

    /// Cumulative number of regions opened for allocation.
    pub fn allocated_total(&self) -> u64 {
        self.allocated_total
    }

    /// The region containing `addr`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `addr` is not an H2 address within bounds.
    pub fn region_of(&self, addr: Addr) -> RegionId {
        let idx = (addr.h2_offset() as usize) / self.region_words;
        debug_assert!(idx < self.regions.len(), "H2 address out of range");
        RegionId(idx as u32)
    }

    /// Base address of region `rid`.
    pub fn region_base(&self, rid: RegionId) -> Addr {
        Addr::h2_at((rid.0 as usize * self.region_words) as u64)
    }

    /// Words currently allocated in `rid`.
    pub fn used_words(&self, rid: RegionId) -> usize {
        self.regions[rid.0 as usize].top
    }

    /// Allocates `words` for one object in the current region for `label`,
    /// opening a new region when needed. Returns the object address.
    ///
    /// # Errors
    ///
    /// [`RegionError::ObjectTooLarge`] if `words > region_words`;
    /// [`RegionError::OutOfRegions`] if H2 is exhausted.
    pub fn alloc(&mut self, label: Label, words: usize) -> Result<Addr, RegionError> {
        if words > self.region_words {
            return Err(RegionError::ObjectTooLarge { words, region_words: self.region_words });
        }
        let rid = match self.open.get(&label) {
            Some(&rid) if self.regions[rid.0 as usize].top + words <= self.region_words => rid,
            _ => {
                let rid = self.free.pop().ok_or(RegionError::OutOfRegions)?;
                let r = &mut self.regions[rid.0 as usize];
                debug_assert!(r.is_free());
                r.label = Some(label);
                self.allocated_total += 1;
                self.open.insert(label, rid);
                rid
            }
        };
        let top = self.regions[rid.0 as usize].top;
        let addr = self.region_base(rid).add(top as u64);
        let r = &mut self.regions[rid.0 as usize];
        r.top += words;
        r.total_objects += 1;
        Ok(addr)
    }

    /// Whether allocating `words` under `label` would have to open a fresh
    /// region (no open region for the label, or not enough room left).
    /// Oversized objects report `true`; the subsequent [`RegionManager::alloc`]
    /// rejects them before touching the free list.
    pub fn would_open(&self, label: Label, words: usize) -> bool {
        match self.open.get(&label) {
            Some(&rid) => self.regions[rid.0 as usize].top + words > self.region_words,
            None => true,
        }
    }

    /// Indexes the object written at `addr`.
    pub(crate) fn record_start(&mut self, addr: Addr) {
        let rid = self.region_of(addr);
        self.regions[rid.0 as usize].starts.push(addr.raw());
        if self.appended.last() != Some(&rid) {
            self.appended.push(rid);
        }
    }

    /// Sorts the start lists that grew since the last call: objects are
    /// written in H1 order, not in the H2 address order they were assigned.
    pub(crate) fn sort_starts(&mut self) {
        self.appended.sort_unstable();
        self.appended.dedup();
        for rid in self.appended.drain(..) {
            self.regions[rid.0 as usize].starts.sort_unstable();
        }
    }

    /// The start addresses of `rid`'s objects, ascending (empty for a free
    /// region).
    pub fn starts(&self, rid: RegionId) -> &[u64] {
        &self.regions[rid.0 as usize].starts
    }

    /// Adds `to` to `from`'s dependency list if not already present.
    ///
    /// Called when an object moved into region `from` references an object
    /// in region `to` (§3.3: cross-region references are directional).
    pub fn add_dependency(&mut self, from: RegionId, to: RegionId) {
        if from == to {
            return;
        }
        let deps = &mut self.regions[from.0 as usize].deps;
        if !deps.contains(&to) {
            deps.push(to);
        }
    }

    /// Clears all live bits and per-region live statistics.
    ///
    /// Called at the beginning of the major-GC marking phase (§4).
    pub fn clear_live_bits(&mut self) {
        for r in &mut self.regions {
            r.live = false;
            r.live_objects = 0;
            r.live_words = 0;
        }
    }

    /// Marks the region containing `addr` live (an H1→H2 reference was seen).
    pub fn mark_live(&mut self, addr: Addr) {
        let rid = self.region_of(addr);
        self.regions[rid.0 as usize].live = true;
    }

    /// Records one live object of `words` words in `addr`'s region, for the
    /// Figure 10 statistics.
    pub fn record_live_object(&mut self, addr: Addr, words: usize) {
        let rid = self.region_of(addr);
        let r = &mut self.regions[rid.0 as usize];
        r.live_objects += 1;
        r.live_words += words as u64;
    }

    /// Whether `rid`'s live bit is set.
    pub fn is_live(&self, rid: RegionId) -> bool {
        self.regions[rid.0 as usize].live
    }

    /// Propagates liveness through dependency lists: every region reachable
    /// from a live region (following outgoing dependencies) becomes live.
    ///
    /// Returns the number of regions whose live bit was set by propagation.
    pub fn propagate_liveness(&mut self) -> usize {
        let mut stack: Vec<RegionId> = self
            .regions
            .iter()
            .enumerate()
            .filter(|(_, r)| r.live)
            .map(|(i, _)| RegionId(i as u32))
            .collect();
        let mut newly = 0;
        while let Some(rid) = stack.pop() {
            let deps = self.regions[rid.0 as usize].deps.clone();
            for dep in deps {
                let r = &mut self.regions[dep.0 as usize];
                if !r.live {
                    r.live = true;
                    newly += 1;
                    stack.push(dep);
                }
            }
        }
        newly
    }

    /// Frees every in-use region whose live bit is clear: resets the
    /// allocation pointer and deletes the dependency list and start list
    /// (§3.3, "Freeing dead regions"). Returns the freed region ids so the
    /// caller can discard their pages and cards.
    pub fn sweep_dead(&mut self) -> Vec<RegionId> {
        let mut freed = Vec::new();
        for i in 0..self.regions.len() {
            let rid = RegionId(i as u32);
            if self.regions[i].live {
                continue;
            }
            let Some(label) = self.regions[i].label.take() else { continue };
            self.reclaimed_stats.push(self.stats_of(rid));
            self.regions[i] = Region::default();
            if self.open.get(&label) == Some(&rid) {
                self.open.remove(&label);
            }
            self.free.push(rid);
            self.reclaimed_total += 1;
            freed.push(rid);
        }
        freed
    }

    /// Occupancy snapshot of `rid`.
    pub fn stats_of(&self, rid: RegionId) -> RegionStats {
        let r = &self.regions[rid.0 as usize];
        RegionStats {
            id: rid,
            used_words: r.top,
            total_objects: r.total_objects,
            live_objects: r.live_objects,
            live_words: r.live_words,
        }
    }

    /// Snapshots of all regions currently in use.
    pub fn active_stats(&self) -> Vec<RegionStats> {
        (0..self.regions.len() as u32)
            .map(RegionId)
            .filter(|&rid| self.regions[rid.0 as usize].label.is_some())
            .map(|rid| self.stats_of(rid))
            .collect()
    }

    /// Snapshots captured for regions at the moment they were reclaimed.
    pub fn reclaimed_stats(&self) -> &[RegionStats] {
        &self.reclaimed_stats
    }

    /// Average dependency-list length over in-use regions (§3.3 reports ~10).
    pub fn mean_dep_list_len(&self) -> f64 {
        let in_use: Vec<_> = self.regions.iter().filter(|r| r.label.is_some()).collect();
        if in_use.is_empty() {
            return 0.0;
        }
        in_use.iter().map(|r| r.deps.len()).sum::<usize>() as f64 / in_use.len() as f64
    }

    /// DRAM metadata footprint in bytes for the current region count —
    /// the quantity Table 5 reports per TB of H2.
    ///
    /// Counts the fixed per-region metadata (pointers, live bit, label,
    /// promotion-buffer bookkeeping) the way the paper sizes it; dependency
    /// and start lists are dynamic and excluded, as in Table 5.
    pub fn metadata_bytes(&self) -> usize {
        // start ptr + top ptr + live-head ptr + label + live bit/padding +
        // dependency-list head + promotion-buffer descriptor ≈ 7 words,
        // rounded like the paper's ~417 MB per TB at 1 MB regions
        // (417 MB / 1 Mi regions ≈ 417 B... the paper's figure also counts
        // the region array entry and buffer; we use its implied ~437 B/region
        // constant less the 2 MB buffer, i.e. ~0.4 KB per region).
        const PER_REGION_BYTES: usize = 437;
        self.regions.len() * PER_REGION_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> RegionManager {
        RegionManager::new(1024, 8)
    }

    #[test]
    fn alloc_is_append_only_within_label() {
        let mut m = mgr();
        let l = Label::new(7);
        let a = m.alloc(l, 10).unwrap();
        let b = m.alloc(l, 6).unwrap();
        assert_eq!(b.raw() - a.raw(), 10);
        assert_eq!(m.region_of(a), m.region_of(b));
        assert_eq!(m.used_words(m.region_of(a)), 16);
    }

    #[test]
    fn different_labels_get_different_regions() {
        let mut m = mgr();
        let a = m.alloc(Label::new(1), 8).unwrap();
        let b = m.alloc(Label::new(2), 8).unwrap();
        assert_ne!(m.region_of(a), m.region_of(b));
    }

    #[test]
    fn objects_never_span_regions() {
        let mut m = mgr();
        let l = Label::new(1);
        m.alloc(l, 1000).unwrap();
        // 100 words don't fit in the 24 remaining; a fresh region is opened.
        let b = m.alloc(l, 100).unwrap();
        assert_eq!(b.h2_offset() % 1024, 0, "new object starts at a region base");
        assert_eq!(m.allocated_total(), 2);
    }

    #[test]
    fn oversized_object_is_rejected() {
        let mut m = mgr();
        assert_eq!(
            m.alloc(Label::new(1), 1025),
            Err(RegionError::ObjectTooLarge { words: 1025, region_words: 1024 })
        );
    }

    #[test]
    fn exhaustion_errors() {
        let mut m = RegionManager::new(16, 2);
        m.alloc(Label::new(1), 16).unwrap();
        m.alloc(Label::new(2), 16).unwrap();
        assert_eq!(m.alloc(Label::new(3), 1), Err(RegionError::OutOfRegions));
    }

    #[test]
    fn dependency_lists_deduplicate() {
        let mut m = mgr();
        m.add_dependency(RegionId(0), RegionId(1));
        m.add_dependency(RegionId(0), RegionId(1));
        m.add_dependency(RegionId(0), RegionId(0)); // self-dep ignored
        assert_eq!(m.regions[0].deps, [RegionId(1)]);
    }

    #[test]
    fn liveness_propagates_along_direction() {
        // X -> Y -> Z; only Z referenced from H1 => X and Y stay dead.
        let mut m = mgr();
        let x = m.alloc(Label::new(1), 4).unwrap();
        let y = m.alloc(Label::new(2), 4).unwrap();
        let z = m.alloc(Label::new(3), 4).unwrap();
        let (rx, ry, rz) = (m.region_of(x), m.region_of(y), m.region_of(z));
        m.add_dependency(rx, ry);
        m.add_dependency(ry, rz);
        m.clear_live_bits();
        m.mark_live(z);
        m.propagate_liveness();
        assert!(!m.is_live(rx));
        assert!(!m.is_live(ry));
        assert!(m.is_live(rz));
        let freed = m.sweep_dead();
        assert_eq!(freed, vec![rx, ry]);
        assert_eq!(m.reclaimed_total(), 2);
    }

    #[test]
    fn liveness_propagates_forward_from_live_region() {
        // X -> Y; X referenced from H1 => Y must be kept (X's objects point
        // into Y).
        let mut m = mgr();
        let x = m.alloc(Label::new(1), 4).unwrap();
        let y = m.alloc(Label::new(2), 4).unwrap();
        let (rx, ry) = (m.region_of(x), m.region_of(y));
        m.add_dependency(rx, ry);
        m.clear_live_bits();
        m.mark_live(x);
        assert_eq!(m.propagate_liveness(), 1);
        assert!(m.is_live(ry));
        assert!(m.sweep_dead().is_empty());
    }

    #[test]
    fn sweep_resets_region_for_reuse() {
        let mut m = RegionManager::new(16, 1);
        let l = Label::new(9);
        m.alloc(l, 16).unwrap();
        m.clear_live_bits();
        let freed = m.sweep_dead();
        assert_eq!(freed.len(), 1);
        // Region is reusable, under a different label too.
        let a = m.alloc(Label::new(10), 8).unwrap();
        assert_eq!(m.region_of(a), freed[0]);
    }

    #[test]
    fn reclaimed_stats_capture_occupancy() {
        let mut m = mgr();
        let l = Label::new(1);
        let a = m.alloc(l, 10).unwrap();
        m.alloc(l, 20).unwrap();
        m.clear_live_bits();
        m.record_live_object(a, 10);
        m.sweep_dead();
        let snap = &m.reclaimed_stats()[0];
        assert_eq!(snap.total_objects, 2);
        assert_eq!(snap.live_objects, 1);
        assert_eq!(snap.live_words, 10);
        assert!((snap.live_object_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn metadata_scales_with_region_count_like_table5() {
        // Table 5: per TB of H2, 1 MB regions -> 417 MB metadata;
        // 256 MB regions -> ~2 MB. Ratios must match region-count ratios.
        let tb: usize = 1 << 40;
        let m1 = RegionManager::new((1 << 20) / 8, tb / (1 << 20)).metadata_bytes();
        let m256 = RegionManager::new((256 << 20) / 8, tb / (256 << 20)).metadata_bytes();
        assert_eq!(m1 / m256, 256);
        let mb = m1 as f64 / (1 << 20) as f64;
        assert!((mb - 417.0).abs() < 25.0, "1 MB regions give ~417 MB/TB, got {mb}");
    }

    #[test]
    fn mean_dep_list_len_counts_in_use_only() {
        let mut m = mgr();
        let a = m.alloc(Label::new(1), 4).unwrap();
        let b = m.alloc(Label::new(2), 4).unwrap();
        m.add_dependency(m.region_of(a), m.region_of(b));
        assert!((m.mean_dep_list_len() - 0.5).abs() < 1e-9);
    }
}
