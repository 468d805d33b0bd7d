//! Stream pin for kryo-sim: host-side work on the serializer (identity
//! index, payload emission, chunked decoding) must leave the stream bytes,
//! the size estimate and every simulated charge exactly where they were.
//! Three fixed graphs — shared references, a cycle, a reference array of
//! primitive arrays large enough to allocate temporary buffers — are
//! serialized, sized and deserialized; each row of
//! `tests/golden/stream_pin.txt` (`teraheap_util::golden`) pins the FNV-1a of
//! the bytes, their length, `serialized_size`, the S/D and mutator ns each of
//! the three calls charged, the `SimClock::charge` call count and the
//! root-table length afterwards.
//!
//! Re-pin with `scripts/repin.sh` only for a deliberate format or cost-model
//! change.

use teraheap_runtime::obs::Level;
use teraheap_runtime::{Handle, Heap, HeapConfig};
use teraheap_storage::Category;
use teraheap_util::golden::Golden;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

fn heap() -> Heap {
    let mut config = HeapConfig::with_words(16 << 10, 64 << 10);
    config.obs_level = Some(Level::Counters);
    Heap::new(config)
}

/// A holder whose first two fields share one child, whose third is null and
/// whose fourth points at a second child that points back at the first.
fn shared_refs(heap: &mut Heap) -> Handle {
    let holder_c = heap.register_class("Holder", 4, 1);
    let node_c = heap.register_class("Node", 1, 2);
    let holder = heap.alloc(holder_c).unwrap();
    let shared = heap.alloc(node_c).unwrap();
    let other = heap.alloc(node_c).unwrap();
    heap.write_prim(holder, 0, 0xfeed);
    heap.write_prim(shared, 0, 5);
    heap.write_prim(shared, 1, u64::MAX);
    heap.write_prim(other, 0, 6);
    heap.write_ref(holder, 0, shared);
    heap.write_ref(holder, 1, shared);
    heap.write_ref(holder, 3, other);
    heap.write_ref(other, 0, shared);
    heap.release(shared);
    heap.release(other);
    holder
}

/// a -> b -> c -> a, with a self-loop on c's second field.
fn cycle(heap: &mut Heap) -> Handle {
    let c = heap.register_class("Ring", 2, 1);
    let nodes: Vec<Handle> = (0..3u64)
        .map(|i| {
            let n = heap.alloc(c).unwrap();
            heap.write_prim(n, 0, 100 + i);
            n
        })
        .collect();
    heap.write_ref(nodes[0], 0, nodes[1]);
    heap.write_ref(nodes[1], 0, nodes[2]);
    heap.write_ref(nodes[2], 0, nodes[0]);
    heap.write_ref(nodes[2], 1, nodes[2]);
    heap.release(nodes[1]);
    heap.release(nodes[2]);
    nodes[0]
}

/// The shape of a Giraph edge store: a 150-slot reference array of
/// primitive arrays of lengths 0..=12 (every seventh slot null, every
/// eleventh sharing its predecessor's array).
fn ref_array_of_prim_arrays(heap: &mut Heap) -> Handle {
    let arr = heap.alloc_ref_array(150).unwrap();
    let mut prev: Option<Handle> = None;
    for i in 0..150usize {
        if i % 7 == 3 {
            continue;
        }
        if i % 11 == 5 {
            if let Some(p) = prev {
                heap.write_ref(arr, i, p);
                continue;
            }
        }
        let e = heap.alloc_prim_array(i % 13).unwrap();
        for k in 0..i % 13 {
            heap.write_prim(e, k, (i * 1000 + k) as u64);
        }
        heap.write_ref(arr, i, e);
        if let Some(p) = prev.replace(e) {
            heap.release(p);
        }
    }
    if let Some(p) = prev {
        heap.release(p);
    }
    arr
}

/// FNV-1a of the stream, stream length, `serialized_size`; S/D ns and
/// mutator ns of `serialize`, mutator ns of `serialized_size`, S/D ns and
/// mutator ns of `deserialize`; total charge calls; root-table length.
#[rustfmt::skip]
const COLUMNS: [&str; 10] = [
    "stream_fnv", "stream_len", "serialized_size",
    "ser_serde_ns", "ser_mutator_ns", "size_mutator_ns", "de_serde_ns", "de_mutator_ns",
    "charge_calls", "root_table_len",
];

type Row = [u64; COLUMNS.len()];

/// Builds one fixed graph and returns its root.
type Build = fn(&mut Heap) -> Handle;

fn capture(build: Build) -> Row {
    let mut heap = heap();
    let root = build(&mut heap);
    let clock = heap.clock().clone();
    let at = |cat| clock.category_ns(cat);

    let (sd0, mu0) = (at(Category::SerDe), at(Category::Mutator));
    let bytes = kryo_sim::serialize(&mut heap, root).unwrap();
    let (sd1, mu1) = (at(Category::SerDe), at(Category::Mutator));
    let size = kryo_sim::serialized_size(&mut heap, root);
    let mu2 = at(Category::Mutator);
    assert_eq!(at(Category::SerDe), sd1, "sizing charges no S/D time");
    let copy = kryo_sim::deserialize(&mut heap, &bytes).unwrap();
    let (sd3, mu3) = (at(Category::SerDe), at(Category::Mutator));

    // The copy is the same graph: it serializes to the same stream.
    assert_eq!(kryo_sim::serialize(&mut heap, copy).unwrap(), bytes);
    [
        fnv1a(&bytes),
        bytes.len() as u64,
        size as u64,
        sd1 - sd0,
        mu1 - mu0,
        mu2 - mu1,
        sd3 - sd1,
        mu3 - mu2,
        clock.tracer().charge_counts().iter().sum(),
        heap.root_table_len() as u64,
    ]
}

const GRAPHS: [(&str, Build); 3] = [
    ("shared_refs", shared_refs),
    ("cycle", cycle),
    ("ref_array_of_prim_arrays", ref_array_of_prim_arrays),
];

#[test]
fn streams_sizes_and_charges_match_their_goldens() {
    let mut golden = Golden::open(env!("CARGO_MANIFEST_DIR"), "stream_pin", &COLUMNS);
    for (name, build) in GRAPHS {
        let got = capture(build);
        golden.check(name, Some(&got));
        assert_eq!(got[1], got[2], "{name}: serialized_size is the stream length");
    }
    golden.finish();
}
