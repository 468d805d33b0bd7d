//! The block manager: Spark's compute cache (Figure 4).
//!
//! `persist()`ed partitions flow through [`BlockManager::put`]; iterative
//! stages fetch them back with [`BlockManager::get`]. The three cache modes
//! implement the paper's baseline and TeraHeap configurations.

use crate::placement::{Placement, PlacementModel};
use std::collections::HashMap;
use teraheap_core::Label;
use teraheap_runtime::obs::EventKind;
use teraheap_runtime::{Handle, Heap, OomError};
use teraheap_storage::{Blob, Category, SimDevice};

/// Identifies a cached partition: `(rdd id, partition index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId {
    /// RDD (or DataFrame/Dataset) id — also the TeraHeap label.
    pub rdd: u64,
    /// Partition index within the RDD.
    pub partition: u32,
}

/// How cached partitions are stored.
#[derive(Debug)]
pub enum CacheMode {
    /// Spark-SD: deserialized on-heap cache bounded to a fraction of the
    /// heap; overflow is serialized onto the device and deserialized back
    /// on access.
    SerializedOverflow {
        /// Device holding the serialized off-heap cache.
        device: SimDevice,
        /// On-heap cache budget in words (paper: 50% of the heap).
        onheap_budget_words: usize,
    },
    /// Spark-MO / plain on-heap: everything stays deserialized on the heap.
    OnHeapOnly,
    /// TeraHeap: partitions are tagged + moved to H2 and accessed directly.
    TeraHeap,
    /// Adaptive: an online cost model re-decides per put between the
    /// deserialized on-heap cache, the serialized off-heap cache, and H2
    /// (requires an attached H2 for the H2 tier to be reachable).
    Adaptive {
        /// Device holding the serialized off-heap cache tier.
        device: SimDevice,
        /// On-heap cache budget in words.
        onheap_budget_words: usize,
        /// The online placement model.
        model: PlacementModel,
    },
}

#[derive(Debug)]
enum Slot {
    OnHeap(Handle),
    OffHeap(Blob),
}

/// The compute cache holding persisted partitions.
#[derive(Debug)]
pub struct BlockManager {
    mode: CacheMode,
    slots: HashMap<BlockId, Slot>,
    onheap_used_words: usize,
    sd_serializations: u64,
    sd_deserializations: u64,
    /// Adaptive mode only: words each on-heap-budgeted block is charged,
    /// so unpersist can return its budget (H2-placed blocks are absent).
    budgeted: HashMap<BlockId, usize>,
}

impl BlockManager {
    /// Creates a block manager in the given mode.
    pub fn new(mode: CacheMode) -> Self {
        BlockManager {
            mode,
            slots: HashMap::new(),
            onheap_used_words: 0,
            sd_serializations: 0,
            sd_deserializations: 0,
            budgeted: HashMap::new(),
        }
    }

    /// Times the off-heap path serialized a partition.
    pub fn serializations(&self) -> u64 {
        self.sd_serializations
    }

    /// Times the off-heap path deserialized a partition.
    pub fn deserializations(&self) -> u64 {
        self.sd_deserializations
    }

    /// Number of cached blocks.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Caches `partition` under `id`, taking ownership of the handle (a
    /// failed put releases it; a put over a cached id replaces that block).
    /// The mode decides the tier, then the block is placed there.
    ///
    /// An H2 placement tags the partition as a root key-object with the RDD
    /// id as label and advises the move (§5: the block manager issues
    /// `h2_tag_root` and `h2_move` as it stores each partition).
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] if serialization pressure exhausts the heap, or
    /// if the off-heap cache device is full.
    pub fn put(&mut self, heap: &mut Heap, id: BlockId, partition: Handle) -> Result<(), OomError> {
        // What an on-heap placement is charged against the budget.
        let mut words = 0;
        let placement = match &mut self.mode {
            CacheMode::OnHeapOnly => Placement::OnHeap,
            CacheMode::TeraHeap => Placement::H2,
            CacheMode::SerializedOverflow { onheap_budget_words, .. } => {
                words = kryo_sim::serialized_size(heap, partition) / 8;
                if self.onheap_used_words + words <= *onheap_budget_words {
                    Placement::OnHeap
                } else {
                    Placement::Serialized
                }
            }
            CacheMode::Adaptive { onheap_budget_words, model, .. } => {
                model.note_put(id.rdd);
                let bytes_est = kryo_sim::serialized_size(heap, partition);
                words = bytes_est / 8;
                let onheap_fits = self.onheap_used_words + words <= *onheap_budget_words;
                let h2_ok = heap.h2().is_some_and(|h| !h.is_degraded());
                let choice =
                    model.decide(id.rdd, words as u64, bytes_est as u64, onheap_fits, h2_ok);
                heap.clock().emit(EventKind::PlacementDecision {
                    rdd: id.rdd,
                    partition: id.partition,
                    choice: choice.index(),
                });
                choice
            }
        };
        let mut budget = None;
        let slot = match placement {
            Placement::OnHeap => {
                self.onheap_used_words += words;
                // Only adaptive mode records what unpersist gives back:
                // Spark-SD's budget only ever shrinks (ROADMAP item 1(b)).
                budget = matches!(self.mode, CacheMode::Adaptive { .. }).then_some(words);
                Slot::OnHeap(partition)
            }
            Placement::H2 => {
                let label = Label::new(id.rdd);
                heap.h2_tag_root(partition, label);
                heap.h2_move(label);
                Slot::OnHeap(partition)
            }
            Placement::Serialized => {
                let before = heap.clock().category_ns(Category::SerDe);
                let bytes = kryo_sim::serialize(heap, partition)
                    .inspect_err(|_| heap.release(partition))?;
                let len = bytes.len() as u64;
                let device = match &mut self.mode {
                    CacheMode::SerializedOverflow { device, .. } => device,
                    CacheMode::Adaptive { device, model, .. } => {
                        let serde_ns = heap.clock().category_ns(Category::SerDe) - before;
                        model.observe_serde(len, serde_ns);
                        device
                    }
                    _ => unreachable!("serialized placement without a device"),
                };
                let stored = device.store(bytes, Category::Io);
                heap.release(partition);
                let blob = stored.map_err(|e| OomError {
                    requested_words: len.div_ceil(8) as usize,
                    context: format!("off-heap cache device: {e}"),
                })?;
                heap.clock().emit(EventKind::BlockSerde { deser: false, bytes: len });
                self.sd_serializations += 1;
                Slot::OffHeap(blob)
            }
        };
        self.insert(heap, id, slot, budget);
        Ok(())
    }

    /// Caches `slot` under `id`, replacing the block a previous put left
    /// there; `budget` is what unpersist returns to the on-heap budget.
    fn insert(&mut self, heap: &mut Heap, id: BlockId, slot: Slot, budget: Option<usize>) {
        self.evict(heap, id);
        self.slots.insert(id, slot);
        if let Some(words) = budget {
            self.budgeted.insert(id, words);
        }
    }

    /// Drops block `id`, if cached: releases an on-heap handle (an off-heap
    /// blob frees its bytes by being dropped) and returns its budget.
    fn evict(&mut self, heap: &mut Heap, id: BlockId) {
        if let Some(Slot::OnHeap(h)) = self.slots.remove(&id) {
            heap.release(h);
        }
        if let Some(words) = self.budgeted.remove(&id) {
            self.onheap_used_words = self.onheap_used_words.saturating_sub(words);
        }
    }

    /// Fetches block `id`, returning a caller-owned handle.
    ///
    /// On-heap (and H2-resident) blocks return a duplicate handle; off-heap
    /// blocks are read from the device and deserialized onto the heap —
    /// every access pays I/O + S/D + allocation pressure, like Spark
    /// iterating a serialized cache.
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] if deserialization exhausts the heap.
    pub fn get(&mut self, heap: &mut Heap, id: BlockId) -> Result<Option<Handle>, OomError> {
        let Some(slot) = self.slots.get(&id) else {
            return Ok(None);
        };
        if let CacheMode::Adaptive { model, .. } = &mut self.mode {
            model.note_get(id.rdd);
        }
        match slot {
            Slot::OnHeap(h) => Ok(Some(heap.dup(*h))),
            Slot::OffHeap(blob) => {
                let device = match &self.mode {
                    CacheMode::SerializedOverflow { device, .. }
                    | CacheMode::Adaptive { device, .. } => device,
                    _ => unreachable!("off-heap slot without a device"),
                };
                self.sd_deserializations += 1;
                let before = heap.clock().category_ns(Category::SerDe);
                // Deserialized in place from the blob's bytes (the device
                // read charges I/O, never S/D).
                let h = kryo_sim::deserialize(heap, device.load(blob, Category::Io))?;
                let serde_ns = heap.clock().category_ns(Category::SerDe) - before;
                let len = blob.len() as u64;
                heap.clock().emit(EventKind::BlockSerde { deser: true, bytes: len });
                if let CacheMode::Adaptive { model, .. } = &mut self.mode {
                    model.observe_serde(len, serde_ns);
                }
                Ok(Some(h))
            }
        }
    }

    /// Whether the block is served from the on-heap (or H2) cache.
    pub fn is_on_heap(&self, id: BlockId) -> bool {
        matches!(self.slots.get(&id), Some(Slot::OnHeap(_)))
    }

    /// Removes an entire RDD from the cache, releasing on-heap handles in
    /// partition order (H2 regions become reclaimable at the next major
    /// GC; serialized blocks free their device bytes). The order matters:
    /// released root slots are reused last-in first-out, and `HashMap`
    /// iteration order differs from process to process.
    pub fn unpersist(&mut self, heap: &mut Heap, rdd: u64) {
        let mut ids: Vec<BlockId> =
            self.slots.keys().copied().filter(|b| b.rdd == rdd).collect();
        ids.sort_unstable();
        for id in ids {
            self.evict(heap, id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use teraheap_core::H2Config;
    use teraheap_runtime::HeapConfig;
    use teraheap_storage::{DeviceSpec, SharedDevice};

    fn mk_partition(heap: &mut Heap, words: usize, fill: u64) -> Handle {
        let p = heap.alloc_prim_array(words).unwrap();
        for i in 0..words {
            heap.write_prim(p, i, fill + i as u64);
        }
        p
    }

    #[test]
    fn onheap_mode_round_trips() {
        let mut heap = Heap::new(HeapConfig::small());
        let mut bm = BlockManager::new(CacheMode::OnHeapOnly);
        let p = mk_partition(&mut heap, 16, 100);
        let id = BlockId { rdd: 1, partition: 0 };
        bm.put(&mut heap, id, p).unwrap();
        let q = bm.get(&mut heap, id).unwrap().unwrap();
        assert_eq!(heap.read_prim(q, 3), 103);
        assert!(bm.get(&mut heap, BlockId { rdd: 1, partition: 9 }).unwrap().is_none());
    }

    #[test]
    fn overflow_mode_serializes_past_budget() {
        let mut heap = Heap::new(HeapConfig::small());
        let device = SimDevice::new(DeviceSpec::nvme_ssd(), 1 << 20, heap.clock().clone());
        let mut bm = BlockManager::new(CacheMode::SerializedOverflow {
            device,
            onheap_budget_words: 40,
        });
        let a = mk_partition(&mut heap, 32, 0);
        let b = mk_partition(&mut heap, 32, 1000);
        bm.put(&mut heap, BlockId { rdd: 1, partition: 0 }, a).unwrap();
        bm.put(&mut heap, BlockId { rdd: 1, partition: 1 }, b).unwrap();
        assert!(bm.is_on_heap(BlockId { rdd: 1, partition: 0 }));
        assert!(!bm.is_on_heap(BlockId { rdd: 1, partition: 1 }), "second overflows");
        assert_eq!(bm.serializations(), 1);
        // Off-heap access deserializes fresh objects with the right data.
        let q = bm.get(&mut heap, BlockId { rdd: 1, partition: 1 }).unwrap().unwrap();
        assert_eq!(heap.read_prim(q, 5), 1005);
        assert_eq!(bm.deserializations(), 1);
        // Every further access pays again.
        let _ = bm.get(&mut heap, BlockId { rdd: 1, partition: 1 }).unwrap().unwrap();
        assert_eq!(bm.deserializations(), 2);
    }

    #[test]
    fn teraheap_mode_moves_partitions_to_h2() {
        let clock = Arc::new(teraheap_storage::SimClock::new());
        let mut heap = Heap::with_clock(HeapConfig::small(), clock);
        let h2cfg = H2Config::builder()
                .region_words(4096)
                .n_regions(8)
                .card_seg_words(512)
                .resident_budget_bytes(64 << 10)
                .page_size(4096)
                .promo_buffer_bytes(8 << 10)
                .build()
                .expect("valid H2 config");
        let dev = SharedDevice::new(DeviceSpec::nvme_ssd(), h2cfg.footprint_bytes(), heap.clock().clone());
        heap.attach_h2(h2cfg, &dev).unwrap();
        let mut bm = BlockManager::new(CacheMode::TeraHeap);
        let p = mk_partition(&mut heap, 64, 7);
        let id = BlockId { rdd: 3, partition: 0 };
        bm.put(&mut heap, id, p).unwrap();
        heap.gc_major().unwrap();
        let q = bm.get(&mut heap, id).unwrap().unwrap();
        assert!(heap.is_in_h2(q), "partition lives in H2 after major GC");
        assert_eq!(heap.read_prim(q, 10), 17, "direct access, no S/D");
    }

    #[test]
    fn a_full_off_heap_device_is_an_error() {
        let mut heap = Heap::new(HeapConfig::small());
        // Smaller than one serialized 32-word partition.
        let device = SimDevice::new(DeviceSpec::nvme_ssd(), 64, heap.clock().clone());
        let mut bm =
            BlockManager::new(CacheMode::SerializedOverflow { device, onheap_budget_words: 40 });
        let a = mk_partition(&mut heap, 32, 0);
        bm.put(&mut heap, BlockId { rdd: 1, partition: 0 }, a).unwrap();
        let b = mk_partition(&mut heap, 32, 1000);
        let err = bm.put(&mut heap, BlockId { rdd: 1, partition: 1 }, b).unwrap_err();
        assert!(err.context.contains("off-heap cache device"), "{err}");
        assert_eq!(heap.live_roots(), 1, "only the cached partition stays a root");
        assert_eq!((bm.len(), bm.serializations()), (1, 0));
    }

    #[test]
    fn unpersist_releases_blocks() {
        let mut heap = Heap::new(HeapConfig::small());
        let mut bm = BlockManager::new(CacheMode::OnHeapOnly);
        let p = mk_partition(&mut heap, 8, 0);
        bm.put(&mut heap, BlockId { rdd: 7, partition: 0 }, p).unwrap();
        let roots_before = heap.live_roots();
        bm.unpersist(&mut heap, 7);
        assert_eq!(heap.live_roots(), roots_before - 1);
        assert!(bm.get(&mut heap, BlockId { rdd: 7, partition: 0 }).unwrap().is_none());
    }

    #[test]
    fn a_put_over_a_cached_id_releases_the_block_it_replaces() {
        let overflow = |heap: &Heap| CacheMode::SerializedOverflow {
            device: SimDevice::new(DeviceSpec::nvme_ssd(), 1 << 20, heap.clock().clone()),
            onheap_budget_words: 40,
        };
        for mode in [|_: &Heap| CacheMode::OnHeapOnly, overflow] {
            let mut heap = Heap::new(HeapConfig::small());
            let mut bm = BlockManager::new(mode(&heap));
            let id = BlockId { rdd: 1, partition: 0 };
            // Under the 40-word budget the first put stays on the heap and
            // the second and third are serialized.
            for fill in [0, 1000, 2000] {
                let p = mk_partition(&mut heap, 32, fill);
                bm.put(&mut heap, id, p).unwrap();
                assert_eq!(bm.len(), 1);
                let q = bm.get(&mut heap, id).unwrap().unwrap();
                assert_eq!(heap.read_prim(q, 5), fill + 5, "the latest put wins");
                heap.release(q);
                assert!(heap.live_roots() <= 1, "{:?}: the replaced handle leaked", bm.mode);
            }
            bm.unpersist(&mut heap, 1);
            assert_eq!(heap.live_roots(), 0, "{:?}", bm.mode);
        }
    }

    #[test]
    fn unpersist_frees_root_slots_in_partition_order() {
        // Every `HashMap` hashes with its own random keys, so two block
        // managers stand for two processes. Slots freed in partition order
        // come back last-in first-out: the same handles, reversed.
        for _process in 0..2 {
            let mut heap = Heap::new(HeapConfig::small());
            let mut bm = BlockManager::new(CacheMode::OnHeapOnly);
            let put: Vec<Handle> = (0..32)
                .map(|partition| {
                    let p = mk_partition(&mut heap, 4, 0);
                    bm.put(&mut heap, BlockId { rdd: 7, partition }, p).unwrap();
                    p
                })
                .collect();
            bm.unpersist(&mut heap, 7);
            let reused: Vec<Handle> =
                (0..32).map(|_| heap.alloc_prim_array(1).unwrap()).collect();
            assert_eq!(reused, put.into_iter().rev().collect::<Vec<_>>());
        }
    }
}
