//! The block manager: Spark's compute cache (Figure 4).
//!
//! `persist()`ed partitions flow through [`BlockManager::put`]; iterative
//! stages fetch them back with [`BlockManager::get`]. The run's
//! [`ExecMode`] decides where each partition is cached.

use crate::context::ExecMode;
use std::collections::HashMap;
use std::sync::Arc;
use teraheap_core::Label;
use teraheap_runtime::obs::EventKind;
use teraheap_runtime::{Handle, Heap, OomError};
use teraheap_storage::{Blob, SimClock, SimDevice};

/// Identifies a cached partition: `(rdd id, partition index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId {
    /// RDD (or DataFrame/Dataset) id — also the TeraHeap label.
    pub rdd: u64,
    /// Partition index within the RDD.
    pub partition: u32,
}

/// Where a put places a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Deserialized on the H1 heap (pays GC copying while live).
    OnHeap = 0,
    /// Serialized to the off-heap cache device (pays S/D + I/O per access).
    Serialized = 1,
    /// Tagged and moved to H2 (pays promotion once, device faults per
    /// access, no S/D).
    H2 = 2,
}

impl Placement {
    /// Index into `teraheap_obs::PLACEMENT_NAMES` (and the
    /// `PlacementDecision` event's `choice` field).
    pub fn index(self) -> u8 {
        self as u8
    }
}

#[derive(Debug)]
enum Slot {
    /// An on-heap or H2-resident partition and the budget words it holds
    /// (0 in H2 and in the unbudgeted modes).
    OnHeap(Handle, usize),
    OffHeap(Blob),
}

/// The compute cache holding persisted partitions.
#[derive(Debug)]
pub struct BlockManager {
    mode: ExecMode,
    /// The serialized tier, under `SparkSd` and `Adaptive` only.
    device: Option<SimDevice>,
    onheap_budget_words: usize,
    slots: HashMap<BlockId, Slot>,
    onheap_used_words: usize,
    sd_serializations: u64,
    sd_deserializations: u64,
}

impl BlockManager {
    /// Creates a block manager for `mode`. `SparkSd` and `Adaptive` keep
    /// partitions on the heap up to `onheap_budget_words` (the paper: half
    /// the heap) and get a 4 GiB serialized tier charging `clock`; the
    /// other modes ignore both.
    pub fn new(mode: ExecMode, onheap_budget_words: usize, clock: Arc<SimClock>) -> Self {
        let device = match mode {
            ExecMode::SparkSd { device } | ExecMode::Adaptive { device, .. } => {
                Some(SimDevice::new(device, 4 << 30, clock))
            }
            ExecMode::OnHeap | ExecMode::TeraHeap { .. } => None,
        };
        BlockManager {
            mode,
            device,
            onheap_budget_words,
            slots: HashMap::new(),
            onheap_used_words: 0,
            sd_serializations: 0,
            sd_deserializations: 0,
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
    /// `SparkSd` and `Adaptive` share one rule (DESIGN.md §13): the
    /// partition stays on the heap while it fits the budget; past it,
    /// `Adaptive` moves it to H2 if one is attached and not degraded, and
    /// otherwise it is serialized. Only `Adaptive` emits its decision.
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
        let placement = match self.mode {
            ExecMode::OnHeap => Placement::OnHeap,
            ExecMode::TeraHeap { .. } => Placement::H2,
            ExecMode::SparkSd { .. } | ExecMode::Adaptive { .. } => {
                // The size walk charges loads: only the budgeted modes pay it.
                words = kryo_sim::serialized_size(heap, partition) / 8;
                let adaptive = matches!(self.mode, ExecMode::Adaptive { .. });
                let choice = if self.onheap_used_words + words <= self.onheap_budget_words {
                    Placement::OnHeap
                } else if adaptive && heap.h2().is_some_and(|h| !h.is_degraded()) {
                    Placement::H2
                } else {
                    Placement::Serialized
                };
                if adaptive {
                    heap.clock().emit(EventKind::PlacementDecision {
                        rdd: id.rdd,
                        partition: id.partition,
                        choice: choice.index(),
                    });
                }
                choice
            }
        };
        let slot = match placement {
            Placement::OnHeap => {
                self.onheap_used_words += words;
                Slot::OnHeap(partition, words)
            }
            Placement::H2 => {
                let label = Label::new(id.rdd);
                heap.h2_tag_root(partition, label);
                heap.h2_move(label);
                Slot::OnHeap(partition, 0)
            }
            Placement::Serialized => {
                let Some(device) = self.device.as_mut() else {
                    unreachable!("serialized placement without a device")
                };
                let stored = kryo_sim::offload(device, heap, partition, "off-heap cache");
                heap.release(partition);
                let blob = stored?;
                heap.clock().emit(EventKind::BlockSerde { deser: false, bytes: blob.len() as u64 });
                self.sd_serializations += 1;
                Slot::OffHeap(blob)
            }
        };
        self.evict(heap, id);
        self.slots.insert(id, slot);
        Ok(())
    }

    /// Drops block `id`, if cached: releases an on-heap handle and returns
    /// its budget words (an off-heap blob frees its bytes by being dropped).
    fn evict(&mut self, heap: &mut Heap, id: BlockId) {
        if let Some(Slot::OnHeap(h, words)) = self.slots.remove(&id) {
            heap.release(h);
            self.onheap_used_words -= words;
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
        match slot {
            Slot::OnHeap(h, _) => Ok(Some(heap.dup(*h))),
            Slot::OffHeap(blob) => {
                let Some(device) = &self.device else {
                    unreachable!("off-heap slot without a device")
                };
                self.sd_deserializations += 1;
                let h = kryo_sim::reload(device, heap, blob)?;
                heap.clock().emit(EventKind::BlockSerde { deser: true, bytes: blob.len() as u64 });
                Ok(Some(h))
            }
        }
    }

    /// Whether the block is served from the on-heap (or H2) cache.
    pub fn is_on_heap(&self, id: BlockId) -> bool {
        matches!(self.slots.get(&id), Some(Slot::OnHeap(..)))
    }

    /// Removes an entire RDD from the cache, releasing on-heap handles in
    /// partition order (H2 regions become reclaimable at the next major
    /// GC; serialized blocks free their device bytes). The order matters:
    /// released root slots are reused last-in first-out, and `HashMap`
    /// iteration order differs from process to process.
    pub fn unpersist(&mut self, heap: &mut Heap, rdd: u64) {
        let mut ids: Vec<BlockId> = self.slots.keys().copied().filter(|b| b.rdd == rdd).collect();
        ids.sort_unstable();
        for id in ids {
            self.evict(heap, id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teraheap_core::H2Config;
    use teraheap_runtime::obs::Level;
    use teraheap_runtime::HeapConfig;
    use teraheap_storage::{DeviceSpec, SharedDevice};

    fn h2_config() -> H2Config {
        H2Config::builder()
            .region_words(4096)
            .n_regions(8)
            .card_seg_words(512)
            .resident_budget_bytes(64 << 10)
            .page_size(4096)
            .promo_buffer_bytes(8 << 10)
            .build()
            .expect("valid H2 config")
    }

    fn spark_sd() -> ExecMode {
        ExecMode::SparkSd { device: DeviceSpec::nvme_ssd() }
    }

    fn adaptive() -> ExecMode {
        ExecMode::Adaptive { h2: h2_config(), device: DeviceSpec::nvme_ssd() }
    }

    /// A block manager whose budgeted modes hold 40 words on the heap: one
    /// 32-word partition fits and a second does not.
    fn manager(heap: &Heap, mode: ExecMode) -> BlockManager {
        BlockManager::new(mode, 40, heap.clock().clone())
    }

    /// A small heap with every event recorded, and an H2 over NVMe if `h2`.
    fn traced_heap(h2: bool) -> Heap {
        let mut cfg = HeapConfig::small();
        cfg.obs_level = Some(Level::Full);
        let mut heap = Heap::new(cfg);
        if h2 {
            let h2cfg = h2_config();
            let dev = SharedDevice::new(
                DeviceSpec::nvme_ssd(),
                h2cfg.footprint_bytes(),
                heap.clock().clone(),
            );
            heap.attach_h2(h2cfg, &dev).unwrap();
        }
        heap
    }

    /// The `choice` of every `PlacementDecision` the heap's tracer holds.
    fn choices(heap: &Heap) -> Vec<u8> {
        let events = heap.clock().tracer().events();
        events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::PlacementDecision { choice, .. } => Some(choice),
                _ => None,
            })
            .collect()
    }

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
        let mut bm = manager(&heap, ExecMode::OnHeap);
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
        let mut bm = manager(&heap, spark_sd());
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
        let mut heap = traced_heap(true);
        let mode = ExecMode::TeraHeap { h2: h2_config(), device: DeviceSpec::nvme_ssd() };
        let mut bm = manager(&heap, mode);
        let p = mk_partition(&mut heap, 64, 7);
        let id = BlockId { rdd: 3, partition: 0 };
        bm.put(&mut heap, id, p).unwrap();
        heap.gc_major().unwrap();
        let q = bm.get(&mut heap, id).unwrap().unwrap();
        assert!(heap.is_in_h2(q), "partition lives in H2 after major GC");
        assert_eq!(heap.read_prim(q, 10), 17, "direct access, no S/D");
    }

    #[test]
    fn adaptive_mode_keeps_the_budget_on_heap_then_prefers_h2_to_serializing() {
        let (on_heap, serialized, h2) =
            (Placement::OnHeap.index(), Placement::Serialized.index(), Placement::H2.index());
        let (a, b) = (BlockId { rdd: 1, partition: 0 }, BlockId { rdd: 1, partition: 1 });
        let in_h2 = |bm: &mut BlockManager, heap: &mut Heap, id| {
            let q = bm.get(heap, id).unwrap().unwrap();
            let moved = heap.is_in_h2(q);
            heap.release(q);
            moved
        };

        let mut heap = traced_heap(true);
        let mut bm = manager(&heap, adaptive());
        for (id, fill) in [(a, 0), (b, 1000)] {
            let p = mk_partition(&mut heap, 32, fill);
            bm.put(&mut heap, id, p).unwrap();
        }
        heap.gc_major().unwrap();
        assert!(!in_h2(&mut bm, &mut heap, a), "the first put fits the budget");
        assert!(in_h2(&mut bm, &mut heap, b), "past the budget, H2 takes the partition");
        assert_eq!(bm.serializations(), 0);
        assert_eq!(choices(&heap), [on_heap, h2]);

        // With no H2, the partition past the budget is serialized.
        let mut heap = traced_heap(false);
        let mut bm = manager(&heap, adaptive());
        for (id, fill) in [(a, 0), (b, 1000)] {
            let p = mk_partition(&mut heap, 32, fill);
            bm.put(&mut heap, id, p).unwrap();
        }
        assert!(bm.is_on_heap(a) && !bm.is_on_heap(b));
        assert_eq!(bm.serializations(), 1);
        assert_eq!(choices(&heap), [on_heap, serialized]);
    }

    #[test]
    fn budgeted_modes_return_the_budget_on_unpersist_and_on_replace() {
        let (on_heap, serialized) = (Placement::OnHeap.index(), Placement::Serialized.index());
        let (a, b, c) = (
            BlockId { rdd: 1, partition: 0 },
            BlockId { rdd: 2, partition: 0 },
            BlockId { rdd: 3, partition: 0 },
        );
        for mode in [spark_sd(), adaptive()] {
            // No H2 is attached, so both modes serialize past the budget.
            let mut heap = traced_heap(false);
            let mut bm = manager(&heap, mode);
            let put = |bm: &mut BlockManager, heap: &mut Heap, id, fill| {
                let p = mk_partition(heap, 32, fill);
                bm.put(heap, id, p).unwrap();
                bm.is_on_heap(id)
            };
            assert!(put(&mut bm, &mut heap, a, 0), "{mode:?}: the first put fits the budget");
            // The put over `a` is decided while `a` still holds its words, so
            // it is serialized; replacing `a` then returns them.
            assert!(!put(&mut bm, &mut heap, a, 1000), "{mode:?}: the replacement overflows");
            assert!(
                put(&mut bm, &mut heap, b, 2000),
                "{mode:?}: the replaced block's budget came back"
            );
            bm.unpersist(&mut heap, 2);
            assert!(put(&mut bm, &mut heap, c, 3000), "{mode:?}: unpersist returned the budget");
            let decided = if mode == adaptive() {
                vec![on_heap, serialized, on_heap, on_heap]
            } else {
                vec![]
            };
            assert_eq!(choices(&heap), decided, "only Adaptive emits its decisions");
        }
    }

    #[test]
    fn a_full_off_heap_device_is_an_error() {
        let mut heap = Heap::new(HeapConfig::small());
        let mut bm = manager(&heap, spark_sd());
        // Smaller than one serialized 32-word partition.
        bm.device = Some(SimDevice::new(DeviceSpec::nvme_ssd(), 64, heap.clock().clone()));
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
        let mut bm = manager(&heap, ExecMode::OnHeap);
        let p = mk_partition(&mut heap, 8, 0);
        bm.put(&mut heap, BlockId { rdd: 7, partition: 0 }, p).unwrap();
        let roots_before = heap.live_roots();
        bm.unpersist(&mut heap, 7);
        assert_eq!(heap.live_roots(), roots_before - 1);
        assert!(bm.get(&mut heap, BlockId { rdd: 7, partition: 0 }).unwrap().is_none());
    }

    #[test]
    fn a_put_over_a_cached_id_releases_the_block_it_replaces() {
        for mode in [ExecMode::OnHeap, spark_sd()] {
            let mut heap = Heap::new(HeapConfig::small());
            let mut bm = manager(&heap, mode);
            let id = BlockId { rdd: 1, partition: 0 };
            // Under the 40-word budget the first put stays on the heap, the
            // second (decided while the first holds the budget) is
            // serialized, and the third fits the returned budget again.
            for fill in [0, 1000, 2000] {
                let p = mk_partition(&mut heap, 32, fill);
                bm.put(&mut heap, id, p).unwrap();
                assert_eq!(bm.len(), 1);
                assert_eq!(bm.is_on_heap(id), mode == ExecMode::OnHeap || fill != 1000, "{mode:?}");
                let q = bm.get(&mut heap, id).unwrap().unwrap();
                assert_eq!(heap.read_prim(q, 5), fill + 5, "the latest put wins");
                heap.release(q);
                assert!(heap.live_roots() <= 1, "{mode:?}: the replaced handle leaked");
            }
            bm.unpersist(&mut heap, 1);
            assert_eq!(heap.live_roots(), 0, "{mode:?}");
        }
    }

    #[test]
    fn unpersist_frees_root_slots_in_partition_order() {
        // Every `HashMap` hashes with its own random keys, so two block
        // managers stand for two processes. Slots freed in partition order
        // come back last-in first-out: the same handles, reversed.
        for _process in 0..2 {
            let mut heap = Heap::new(HeapConfig::small());
            let mut bm = manager(&heap, ExecMode::OnHeap);
            let put: Vec<Handle> = (0..32)
                .map(|partition| {
                    let p = mk_partition(&mut heap, 4, 0);
                    bm.put(&mut heap, BlockId { rdd: 7, partition }, p).unwrap();
                    p
                })
                .collect();
            bm.unpersist(&mut heap, 7);
            let reused: Vec<Handle> = (0..32).map(|_| heap.alloc_prim_array(1).unwrap()).collect();
            assert_eq!(reused, put.into_iter().rev().collect::<Vec<_>>());
        }
    }
}
