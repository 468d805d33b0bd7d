//! A Kryo-like object-graph serializer over the managed heap.
//!
//! The paper identifies serialization/deserialization as one of the two
//! dominant overheads in big data frameworks (§2): the serializer traverses
//! the transitive closure of the root object (cost proportional to its
//! volume), and it allocates many *temporary objects* while transforming
//! objects to byte streams, adding GC pressure. Both effects are modelled
//! here faithfully:
//!
//! * [`serialize`] walks the object graph from a root handle, emits a
//!   self-contained byte stream (references become stream-local indices),
//!   charges per-object and per-byte S/D time (parallelized across mutator
//!   threads, as Spark does), and allocates short-lived buffer objects on
//!   the managed heap as it goes;
//! * [`deserialize`] reconstructs the objects on the managed heap —
//!   *reallocating the data on the heap for processing*, which is exactly
//!   the memory-pressure path TeraHeap eliminates via direct H2 access.
//!
//! # Stream format
//!
//! ```text
//! u32 object count
//! per object: u16 class id | u8 kind (0 plain, 1 ref array, 2 prim array)
//!             u32 payload length (ref count / prim words / array len)
//!             payload: refs as u32 (0 = null, else index+1), prims as u64
//! ```
//!
//! # Example
//!
//! ```
//! use teraheap_runtime::{Heap, HeapConfig};
//!
//! let mut heap = Heap::new(HeapConfig::small());
//! let class = heap.register_class("Point", 0, 2);
//! let p = heap.alloc(class).unwrap();
//! heap.write_prim(p, 0, 3);
//! heap.write_prim(p, 1, 4);
//! let bytes = kryo_sim::serialize(&mut heap, p).unwrap();
//! let q = kryo_sim::deserialize(&mut heap, &bytes).unwrap();
//! assert_eq!(heap.read_prim(q, 0), 3);
//! assert_eq!(heap.read_prim(q, 1), 4);
//! ```

use std::cell::Cell;
use teraheap_runtime::{Handle, Heap, OomError, Pin, OBJ_ARRAY_CLASS, PRIM_ARRAY_CLASS};
use teraheap_storage::Category;

const KIND_PLAIN: u8 = 0;
const KIND_REF_ARRAY: u8 = 1;
const KIND_PRIM_ARRAY: u8 = 2;

/// Objects serialized between temporary-buffer allocations.
const TEMP_EVERY_OBJECTS: usize = 64;
/// Size of each temporary buffer object, in words.
const TEMP_WORDS: usize = 256;

/// Kryo's reference resolver: an identity map from object address to the
/// order the walk discovered it in. It is only ever probed, never iterated,
/// so how it hashes cannot reach the simulation. Open addressing with linear
/// probing over a power-of-two table, keyed by a multiplicative hash of the
/// address; a slot belongs to the current walk when its stamp equals
/// `epoch`, so starting a walk costs one increment instead of a clear.
#[derive(Debug, Default)]
struct IdentityIndex {
    slots: Vec<Slot>,
    epoch: u32,
    len: usize,
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    addr: u64,
    stamp: u32,
    number: u32,
}

impl IdentityIndex {
    /// Forgets every entry, keeping the table.
    fn restart(&mut self) {
        self.len = 0;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamps from 2^32 walks ago would read as current.
            self.slots.fill(Slot::default());
            self.epoch = 1;
        }
    }

    /// The slot holding `addr`, or the empty slot it would go in. The table
    /// is never more than half full, so the probe ends.
    fn probe(&self, addr: u64) -> usize {
        let mask = self.slots.len() - 1;
        // Fibonacci hashing: the product's high bits mix every address bit.
        let mut i = (addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
        while self.slots[i].stamp == self.epoch && self.slots[i].addr != addr {
            i = (i + 1) & mask;
        }
        i
    }

    /// The discovery number of `addr`, if this walk has met it.
    fn get(&self, addr: u64) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let slot = self.slots[self.probe(addr)];
        (slot.stamp == self.epoch).then_some(slot.number)
    }

    /// Numbers `addr` with the count of addresses met so far if it is new;
    /// returns that number, or `None` if the walk had met it already.
    fn insert(&mut self, addr: u64) -> Option<u32> {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let i = self.probe(addr);
        if self.slots[i].stamp == self.epoch {
            return None;
        }
        let number = self.len as u32;
        self.slots[i] = Slot { addr, stamp: self.epoch, number };
        self.len += 1;
        Some(number)
    }

    #[cold]
    fn grow(&mut self) {
        let live: Vec<Slot> =
            self.slots.iter().copied().filter(|s| s.stamp == self.epoch).collect();
        let capacity = (self.slots.len() * 2).max(64);
        self.slots.clear();
        self.slots.resize(capacity, Slot::default());
        for slot in live {
            let i = self.probe(slot.addr);
            self.slots[i] = Slot { stamp: self.epoch, ..slot };
        }
    }
}

thread_local! {
    /// The last walk's index, parked for the next one: a block put walks the
    /// same partition up to three times (sizing, discovery, emission), and a
    /// run puts many partitions of one size, so the table is sized once.
    static PARKED_INDEX: Cell<IdentityIndex> = Cell::default();
}

/// The depth-first walk over a root's transitive closure that [`serialize`]
/// and [`serialized_size`] share. A walk performs no heap allocation, so
/// addresses are stable keys for its whole length.
struct Walk {
    /// Object address -> discovery number.
    seen: IdentityIndex,
    /// Objects still to visit, with their discovery numbers.
    stack: Vec<(Handle, u32)>,
    /// Handles the walk rooted (every discovered object but the root).
    owned: Vec<Handle>,
}

impl Walk {
    fn new(heap: &Heap, root: Handle) -> Self {
        let mut seen = PARKED_INDEX.take();
        seen.restart();
        let number = seen.insert(heap.handle_addr(root).raw()).expect("a fresh index is empty");
        Walk { seen, stack: vec![(root, number)], owned: Vec::new() }
    }

    /// Reads the object's `nrefs` reference slots (charged) and stacks every
    /// target met for the first time.
    fn push_refs(&mut self, heap: &mut Heap, obj: &mut Pin, nrefs: usize) {
        for i in 0..nrefs {
            let Some(t) = heap.read_ref_at(obj, i) else { continue };
            match self.seen.insert(heap.handle_addr(t).raw()) {
                Some(discovered) => {
                    self.stack.push((t, discovered));
                    self.owned.push(t);
                }
                None => heap.release(t),
            }
        }
    }

    /// Releases the handles the walk rooted and parks the index.
    fn release(self, heap: &mut Heap) {
        for h in self.owned {
            heap.release(h);
        }
        PARKED_INDEX.set(self.seen);
    }
}

/// Serializes the transitive closure of `root` into a byte stream.
///
/// Charges S/D time (per object + per byte, divided across mutator threads)
/// and allocates short-lived heap buffers, creating the GC pressure the
/// paper attributes to S/D.
///
/// # Errors
///
/// Returns [`OomError`] if a temporary buffer allocation exhausts the heap.
pub fn serialize(heap: &mut Heap, root: Handle) -> Result<Vec<u8>, OomError> {
    // Discovery and emission perform no heap allocations (the
    // temporary-buffer pressure is applied afterwards), so the walk's
    // address keys stay valid through emission. An object's stream index is
    // its position in visit order, assigned when it is popped.
    let mut walk = Walk::new(heap, root);
    let mut order: Vec<Handle> = Vec::new();
    let mut stream_index: Vec<u32> = Vec::new(); // by discovery number
    while let Some((h, discovered)) = walk.stack.pop() {
        stream_index.resize(walk.seen.len, 0);
        stream_index[discovered as usize] = order.len() as u32;
        order.push(h);
        let mut obj = heap.pin(h);
        let nrefs = ref_count(heap, &mut obj);
        walk.push_refs(heap, &mut obj, nrefs);
    }

    let mut out: Vec<u8> = Vec::new();
    out.extend_from_slice(&(order.len() as u32).to_le_bytes());
    let emit_refs = |out: &mut Vec<u8>, heap: &mut Heap, obj: &mut Pin, n: usize| {
        for i in 0..n {
            let index = match heap.read_ref_at(obj, i) {
                None => 0,
                Some(t) => {
                    let discovered = walk
                        .seen
                        .get(heap.handle_addr(t).raw())
                        .expect("emission meets only discovered objects");
                    heap.release(t);
                    stream_index[discovered as usize] + 1
                }
            };
            out.extend_from_slice(&index.to_le_bytes());
        }
    };
    for &h in &order {
        let mut obj = heap.pin(h);
        let class = obj.class();
        if class == PRIM_ARRAY_CLASS {
            let len = heap.array_len_at(&mut obj);
            push_class(&mut out, class.0, KIND_PRIM_ARRAY, len as u32);
            push_words(&mut out, heap.view_prims(h, 0, len));
        } else if class == OBJ_ARRAY_CLASS {
            let len = heap.array_len_at(&mut obj);
            push_class(&mut out, class.0, KIND_REF_ARRAY, len as u32);
            emit_refs(&mut out, heap, &mut obj, len);
        } else {
            let desc = heap.class_desc(class);
            let (refs, prims) = (desc.ref_fields, desc.prim_fields);
            push_class(&mut out, class.0, KIND_PLAIN, refs as u32);
            emit_refs(&mut out, heap, &mut obj, refs);
            out.extend_from_slice(&(prims as u32).to_le_bytes());
            push_words(&mut out, heap.view_prims(h, 0, prims));
        }
    }
    let objects = order.len();
    walk.release(heap);
    // Temporary-object pressure: Kryo-style buffers allocated on the heap
    // in proportion to the serialized volume.
    for _ in 0..objects.div_ceil(TEMP_EVERY_OBJECTS) {
        let tmp = heap.alloc_prim_array(TEMP_WORDS)?;
        heap.release(tmp);
    }
    charge_sd(heap, objects, out.len());
    Ok(out)
}

/// Reconstructs an object graph from `bytes`, allocating every object on the
/// managed heap. Returns a handle to the root; no other handle outlives the
/// call, whether it succeeds or not.
///
/// # Errors
///
/// Returns [`OomError`] if the heap cannot hold the reconstructed objects.
///
/// # Panics
///
/// Panics on a malformed stream (streams come from [`serialize`]).
pub fn deserialize(heap: &mut Heap, bytes: &[u8]) -> Result<Handle, OomError> {
    let mut handles: Vec<Handle> = Vec::new();
    let rebuilt = rebuild(heap, bytes, &mut handles);
    // Only the root is handed out, and not even it if the heap ran out.
    let keep = usize::from(rebuilt.is_ok());
    for h in handles.drain(keep..) {
        heap.release(h);
    }
    rebuilt.map(|()| handles[0])
}

/// The body of [`deserialize`]: rebuilds the stream's objects in stream
/// order, pushing a handle to each onto `handles` as it is allocated.
fn rebuild(heap: &mut Heap, bytes: &[u8], handles: &mut Vec<Handle>) -> Result<(), OomError> {
    let mut r = Reader { b: bytes, pos: 0 };
    let count = r.u32() as usize;
    handles.reserve(count);
    let mut pending_refs: Vec<(usize, usize, u32)> = Vec::new(); // (obj, field, target+1)
    for obj_i in 0..count {
        if (obj_i + 1) % TEMP_EVERY_OBJECTS == 0 {
            let tmp = heap.alloc_prim_array(TEMP_WORDS)?;
            heap.release(tmp);
        }
        let class = teraheap_runtime::ClassId(r.u16());
        let kind = r.u8();
        let len = r.u32() as usize;
        let h = match kind {
            KIND_PRIM_ARRAY => heap.alloc_prim_array(len)?,
            KIND_REF_ARRAY => heap.alloc_ref_array(len)?,
            KIND_PLAIN => heap.alloc(class)?,
            k => panic!("malformed stream: unknown object kind {k}"),
        };
        handles.push(h);
        if kind == KIND_PRIM_ARRAY {
            r.words_into(heap, h, len);
            continue;
        }
        for i in 0..len {
            let t = r.u32();
            if t != 0 {
                pending_refs.push((obj_i, i, t));
            }
        }
        if kind == KIND_PLAIN {
            let prims = r.u32() as usize;
            r.words_into(heap, h, prims);
        }
    }
    for (obj, field, target) in pending_refs {
        heap.write_ref(handles[obj], field, handles[target as usize - 1]);
    }
    charge_sd(heap, count, bytes.len());
    Ok(())
}

/// The serialized size in bytes of `root`'s transitive closure, without
/// producing a stream or charging S/D time (block-manager sizing).
pub fn serialized_size(heap: &mut Heap, root: Handle) -> usize {
    let mut walk = Walk::new(heap, root);
    let mut bytes = 4usize;
    while let Some((h, _)) = walk.stack.pop() {
        let mut obj = heap.pin(h);
        let class = obj.class();
        if class == PRIM_ARRAY_CLASS {
            bytes += 7 + 8 * heap.array_len_at(&mut obj);
        } else if class == OBJ_ARRAY_CLASS {
            bytes += 7 + 4 * heap.array_len_at(&mut obj);
        } else {
            let desc = heap.class_desc(class);
            bytes += 11 + 4 * desc.ref_fields + 8 * desc.prim_fields;
        }
        let nrefs = ref_count(heap, &mut obj);
        walk.push_refs(heap, &mut obj, nrefs);
    }
    walk.release(heap);
    bytes
}

fn charge_sd(heap: &mut Heap, objects: usize, bytes: usize) {
    let cost = heap.config().cost;
    let ns = objects as u64 * cost.serde_object_ns + bytes as u64 * cost.serde_byte_ns;
    heap.charge_ns(Category::SerDe, ns);
}

/// Reference slots of the pinned object; the length of a reference array is
/// a charged load.
fn ref_count(heap: &mut Heap, obj: &mut Pin) -> usize {
    let class = obj.class();
    if class == PRIM_ARRAY_CLASS {
        0
    } else if class == OBJ_ARRAY_CLASS {
        heap.array_len_at(obj)
    } else {
        heap.class_desc(class).ref_fields
    }
}

fn push_class(out: &mut Vec<u8>, class: u16, kind: u8, len: u32) {
    out.extend_from_slice(&class.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&len.to_le_bytes());
}

/// Appends `words` little-endian: one growth, then eight bytes per word
/// straight from the (borrowed) heap words.
fn push_words(out: &mut Vec<u8>, words: &[u64]) {
    let at = out.len();
    out.resize(at + words.len() * 8, 0);
    for (bytes, w) in out[at..].chunks_exact_mut(8).zip(words) {
        bytes.copy_from_slice(&w.to_le_bytes());
    }
}

struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take<const N: usize>(&mut self) -> [u8; N] {
        let v = self.b[self.pos..self.pos + N].try_into().expect("N bytes sliced");
        self.pos += N;
        v
    }
    fn u8(&mut self) -> u8 {
        u8::from_le_bytes(self.take())
    }
    fn u16(&mut self) -> u16 {
        u16::from_le_bytes(self.take())
    }
    fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take())
    }
    /// Decodes a run of `n` little-endian words straight into the first `n`
    /// primitive slots of `h` (a charged bulk write), eight bytes at a time
    /// over one bounds-checked slice.
    fn words_into(&mut self, heap: &mut Heap, h: Handle, n: usize) {
        let run = &self.b[self.pos..self.pos + n * 8];
        self.pos += n * 8;
        heap.fill_prims_at(&mut heap.pin(h), 0, n, |slots| {
            for (slot, bytes) in slots.iter_mut().zip(run.chunks_exact(8)) {
                *slot = u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teraheap_runtime::HeapConfig;

    fn heap() -> Heap {
        Heap::new(HeapConfig::small())
    }

    #[test]
    fn identity_index_numbers_addresses_in_discovery_order() {
        let mut index = IdentityIndex::default();
        assert_eq!(index.get(7), None, "an index that never grew is empty");
        // H1-like and H2-like (high-bit) addresses, dense enough to collide
        // and to grow the table several times.
        let addrs: Vec<u64> = (0..1000u64).map(|i| i * 8 + ((i % 3) << 62)).collect();
        for walk in 0..3 {
            index.restart();
            let capacity = index.slots.len();
            for (n, &a) in addrs.iter().enumerate() {
                assert_eq!(index.insert(a), Some(n as u32));
                assert_eq!(index.insert(a), None, "met twice");
            }
            for (n, &a) in addrs.iter().enumerate() {
                assert_eq!(index.get(a), Some(n as u32));
            }
            assert_eq!(index.get(4), None);
            assert_eq!(index.len, addrs.len());
            assert!(walk == 0 || index.slots.len() == capacity, "a reused table is not regrown");
        }
        index.restart();
        assert_eq!(index.get(addrs[5]), None, "a new walk forgets the last one");
        // An epoch wrap-around clears the table: the entry stamped 1 below
        // must not come back to life when the epoch is 1 again.
        let mut index = IdentityIndex::default();
        index.restart();
        assert_eq!((index.epoch, index.insert(addrs[5])), (1, Some(0)));
        index.epoch = u32::MAX;
        index.restart();
        assert_eq!((index.epoch, index.get(addrs[5])), (1, None));
    }

    #[test]
    fn plain_object_round_trip() {
        let mut h = heap();
        let c = h.register_class("P", 0, 3);
        let p = h.alloc(c).unwrap();
        for i in 0..3 {
            h.write_prim(p, i, (i as u64 + 1) * 7);
        }
        let bytes = serialize(&mut h, p).unwrap();
        let q = deserialize(&mut h, &bytes).unwrap();
        assert!(!h.same_object(p, q), "deserialization reallocates");
        for i in 0..3 {
            assert_eq!(h.read_prim(q, i), (i as u64 + 1) * 7);
        }
    }

    #[test]
    fn graph_with_shared_reference_round_trips() {
        let mut h = heap();
        let c = h.register_class("N", 2, 1);
        let shared = h.alloc(c).unwrap();
        h.write_prim(shared, 0, 5);
        let a = h.alloc(c).unwrap();
        h.write_ref(a, 0, shared);
        h.write_ref(a, 1, shared);
        let bytes = serialize(&mut h, a).unwrap();
        let a2 = deserialize(&mut h, &bytes).unwrap();
        let s1 = h.read_ref(a2, 0).unwrap();
        let s2 = h.read_ref(a2, 1).unwrap();
        assert!(h.same_object(s1, s2), "sharing preserved (identity map)");
        assert_eq!(h.read_prim(s1, 0), 5);
    }

    #[test]
    fn arrays_round_trip() {
        let mut h = heap();
        let c = h.register_class("E", 0, 1);
        let arr = h.alloc_ref_array(3).unwrap();
        let pa = h.alloc_prim_array(4).unwrap();
        for i in 0..4 {
            h.write_prim(pa, i, 100 + i as u64);
        }
        let e = h.alloc(c).unwrap();
        h.write_prim(e, 0, 9);
        h.write_ref(arr, 0, e);
        // arr[1] stays null; arr[2] = e again (shared).
        h.write_ref(arr, 2, e);
        let holder_c = h.register_class("H", 2, 0);
        let holder = h.alloc(holder_c).unwrap();
        h.write_ref(holder, 0, arr);
        h.write_ref(holder, 1, pa);
        let bytes = serialize(&mut h, holder).unwrap();
        let h2 = deserialize(&mut h, &bytes).unwrap();
        let arr2 = h.read_ref(h2, 0).unwrap();
        let pa2 = h.read_ref(h2, 1).unwrap();
        assert_eq!(h.array_len(arr2), 3);
        assert!(h.read_ref(arr2, 1).is_none());
        let e0 = h.read_ref(arr2, 0).unwrap();
        let e2 = h.read_ref(arr2, 2).unwrap();
        assert!(h.same_object(e0, e2));
        assert_eq!(h.read_prim(e0, 0), 9);
        assert_eq!(h.array_len(pa2), 4);
        assert_eq!(h.read_prim(pa2, 3), 103);
    }

    #[test]
    fn serialization_charges_sd_time() {
        let mut h = heap();
        let c = h.register_class("P", 0, 8);
        let p = h.alloc(c).unwrap();
        let before = h.clock().category_ns(Category::SerDe);
        let _ = serialize(&mut h, p).unwrap();
        assert!(h.clock().category_ns(Category::SerDe) > before);
    }

    #[test]
    fn serialization_creates_heap_pressure() {
        let mut h = heap();
        let c = h.register_class("E", 0, 1);
        let arr = h.alloc_ref_array(300).unwrap();
        for i in 0..300 {
            let e = h.alloc(c).unwrap();
            h.write_ref(arr, i, e);
            h.release(e);
        }
        let eden_before = h.eden_used_words();
        let _ = serialize(&mut h, arr).unwrap();
        assert!(
            h.eden_used_words() > eden_before || h.stats().minor_count > 0,
            "temporary buffers allocated during S/D"
        );
    }

    #[test]
    fn failed_deserialization_releases_every_handle() {
        let build = |h: &mut Heap| {
            let c = h.register_class("E", 0, 1);
            let arr = h.alloc_ref_array(300).unwrap();
            for i in 0..300 {
                let e = h.alloc(c).unwrap();
                h.write_ref(arr, i, e);
                h.release(e);
            }
            arr
        };
        let mut big = heap();
        let arr = build(&mut big);
        let bytes = serialize(&mut big, arr).unwrap();
        // 300 elements of 3 words and their 303-word array do not fit 512 words.
        let mut small = Heap::new(HeapConfig::with_words(256, 256));
        small.register_class("E", 0, 1);
        assert!(deserialize(&mut small, &bytes).is_err());
        assert_eq!(small.live_roots(), 0, "half-built graph left rooted");
        // A successful one hands out exactly the root.
        let roots = big.live_roots();
        deserialize(&mut big, &bytes).unwrap();
        assert_eq!(big.live_roots(), roots + 1);
    }

    #[test]
    fn serialized_size_matches_stream_length() {
        let mut h = heap();
        let c = h.register_class("N", 1, 2);
        let a = h.alloc(c).unwrap();
        let b = h.alloc(c).unwrap();
        h.write_ref(a, 0, b);
        let est = serialized_size(&mut h, a);
        let bytes = serialize(&mut h, a).unwrap();
        assert_eq!(est, bytes.len());
    }

    #[test]
    fn cycles_round_trip() {
        let mut h = heap();
        let c = h.register_class("C", 1, 1);
        let a = h.alloc(c).unwrap();
        let b = h.alloc(c).unwrap();
        h.write_prim(a, 0, 1);
        h.write_prim(b, 0, 2);
        h.write_ref(a, 0, b);
        h.write_ref(b, 0, a); // cycle
        let bytes = serialize(&mut h, a).unwrap();
        let a2 = deserialize(&mut h, &bytes).unwrap();
        let b2 = h.read_ref(a2, 0).unwrap();
        let a3 = h.read_ref(b2, 0).unwrap();
        assert!(h.same_object(a2, a3), "cycle closed correctly");
        assert_eq!(h.read_prim(b2, 0), 2);
    }

    #[test]
    fn deep_list_round_trips() {
        let mut h = heap();
        let c = h.register_class("L", 1, 1);
        let head = h.alloc(c).unwrap();
        h.write_prim(head, 0, 0);
        let mut cur = head;
        for i in 1..50u64 {
            let n = h.alloc(c).unwrap();
            h.write_prim(n, 0, i);
            h.write_ref(cur, 0, n);
            if cur != head {
                h.release(cur);
            }
            cur = n;
        }
        if cur != head {
            h.release(cur);
        }
        let bytes = serialize(&mut h, head).unwrap();
        let mut cur = deserialize(&mut h, &bytes).unwrap();
        for i in 0..50u64 {
            assert_eq!(h.read_prim(cur, 0), i);
            match h.read_ref(cur, 0) {
                Some(n) => cur = n,
                None => assert_eq!(i, 49),
            }
        }
    }
}
