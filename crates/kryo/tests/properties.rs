//! Property tests for kryo-sim: arbitrary object graphs (including shared
//! references, nulls, arrays and cycles) round-trip through serialization
//! with structure and payloads preserved.
//!
//! Runs on the in-repo harness (`teraheap_util::proptest_mini`): cases are
//! seeded deterministically, failures shrink to a minimal graph recipe and
//! print a `TERAHEAP_PROP_SEED` for replay.

use teraheap_runtime::{Handle, Heap, HeapConfig};
use teraheap_util::proptest_mini::{
    any_u64, check, range_usize, vec_of, CaseResult, Config, Strategy,
};
use teraheap_util::{prop_assert, prop_assert_eq, prop_oneof};

/// A recipe for one object in a random graph.
#[derive(Debug, Clone)]
enum NodeKind {
    Plain { prims: Vec<u64> },
    PrimArray { data: Vec<u64> },
    RefArray { len: usize },
}

fn node_kind() -> impl Strategy<Value = NodeKind> {
    prop_oneof![
        vec_of(any_u64(), 0..5).prop_map(|prims| NodeKind::Plain { prims }),
        vec_of(any_u64(), 0..8).prop_map(|data| NodeKind::PrimArray { data }),
        range_usize(0..6).prop_map(|len| NodeKind::RefArray { len }),
    ]
}

#[test]
fn random_graphs_round_trip() {
    check(
        "random_graphs_round_trip",
        &(
            vec_of(node_kind(), 1..24),
            vec_of((range_usize(0..24), range_usize(0..24), range_usize(0..6)), 0..48),
        ),
        &Config::with_cases(64),
        |(kinds, edges): (Vec<NodeKind>, Vec<(usize, usize, usize)>)| {
            let mut heap = Heap::new(HeapConfig::with_words(64 << 10, 256 << 10));
            // One class per plain-node prim count (0..5 prims, 2 ref fields).
            let classes: Vec<_> =
                (0..5).map(|p| heap.register_class(&format!("P{p}"), 2, p)).collect();
            // Build the graph.
            let mut nodes: Vec<Handle> = Vec::new();
            for kind in &kinds {
                let h = match kind {
                    NodeKind::Plain { prims } => {
                        let h = heap.alloc(classes[prims.len()]).unwrap();
                        for (i, &v) in prims.iter().enumerate() {
                            heap.write_prim(h, i, v);
                        }
                        h
                    }
                    NodeKind::PrimArray { data } => {
                        let h = heap.alloc_prim_array(data.len()).unwrap();
                        for (i, &v) in data.iter().enumerate() {
                            heap.write_prim(h, i, v);
                        }
                        h
                    }
                    NodeKind::RefArray { len } => heap.alloc_ref_array(*len).unwrap(),
                };
                nodes.push(h);
            }
            // Wire random edges where slots exist (cycles and sharing allowed).
            for &(from, to, slot) in &edges {
                if from >= nodes.len() || to >= nodes.len() {
                    continue;
                }
                let slots = match &kinds[from] {
                    NodeKind::Plain { .. } => 2,
                    NodeKind::RefArray { len } => *len,
                    NodeKind::PrimArray { .. } => 0,
                };
                if slot < slots {
                    heap.write_ref(nodes[from], slot, nodes[to]);
                }
            }
            // Root everything under one array so the whole graph serializes.
            let root = heap.alloc_ref_array(nodes.len()).unwrap();
            for (i, &n) in nodes.iter().enumerate() {
                heap.write_ref(root, i, n);
            }

            let bytes = kryo_sim::serialize(&mut heap, root).unwrap();
            let copy = kryo_sim::deserialize(&mut heap, &bytes).unwrap();

            // Structural equality via parallel traversal with an identity map.
            let mut seen: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
            let mut stack = vec![(root, copy)];
            let mut owned: Vec<Handle> = Vec::new();
            while let Some((a, b)) = stack.pop() {
                let (aa, ba) = (heap.handle_addr(a).raw(), heap.handle_addr(b).raw());
                if let Some(&mapped) = seen.get(&aa) {
                    prop_assert_eq!(mapped, ba, "shared structure not preserved");
                    continue;
                }
                seen.insert(aa, ba);
                let class = heap.pin(a).class();
                prop_assert_eq!(class, heap.pin(b).class());
                if class == teraheap_runtime::PRIM_ARRAY_CLASS {
                    prop_assert_eq!(heap.array_len(a), heap.array_len(b));
                    for i in 0..heap.array_len(a) {
                        prop_assert_eq!(heap.read_prim(a, i), heap.read_prim(b, i));
                    }
                } else if class == teraheap_runtime::OBJ_ARRAY_CLASS {
                    prop_assert_eq!(heap.array_len(a), heap.array_len(b));
                    for i in 0..heap.array_len(a) {
                        match (heap.read_ref(a, i), heap.read_ref(b, i)) {
                            (None, None) => {}
                            (Some(x), Some(y)) => {
                                owned.push(x);
                                owned.push(y);
                                stack.push((x, y));
                            }
                            _ => prop_assert!(false, "null-ness differs at {i}"),
                        }
                    }
                } else {
                    let desc = heap.class_desc(class).clone();
                    for i in 0..desc.prim_fields {
                        prop_assert_eq!(heap.read_prim(a, i), heap.read_prim(b, i));
                    }
                    for i in 0..desc.ref_fields {
                        match (heap.read_ref(a, i), heap.read_ref(b, i)) {
                            (None, None) => {}
                            (Some(x), Some(y)) => {
                                owned.push(x);
                                owned.push(y);
                                stack.push((x, y));
                            }
                            _ => prop_assert!(false, "ref field null-ness differs"),
                        }
                    }
                }
            }
            for h in owned {
                heap.release(h);
            }
            CaseResult::Pass
        },
    );
}
