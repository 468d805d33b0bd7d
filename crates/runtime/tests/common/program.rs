//! The runtime's one mutator-program language: a random [`Op`] sequence
//! ([`program`]), an interpreter ([`Mutator`]) that applies every op to the
//! heap and to a shadow logical graph, and an oracle ([`Mutator::check`])
//! that compares the two. The arms of `mutator_programs` and
//! `incremental_marking` differ only in the heap they hand to [`run`] and
//! what they assert afterwards.
//!
//! Object operands are indices into the slots the program holds a handle
//! to, taken modulo their count, so every op applies whatever ran before it
//! and shrinking never produces a program that does nothing.

use super::attach_workload_h2;
use teraheap_core::Label;
use teraheap_runtime::obs::SpanKind;
use teraheap_runtime::{ClassId, Handle, Heap, HeapConfig, HeapConfigBuilder};
use teraheap_runtime::{OBJ_ARRAY_CLASS, PRIM_ARRAY_CLASS};
use teraheap_storage::{DeviceSpec, FaultPlan};
use teraheap_util::prop_oneof;
use teraheap_util::proptest_mini::{range_u64, range_usize, vec_of, Just, Strategy};

/// Every arm's heap: an 8 Ki-word young generation over a 12 Ki-word old
/// one. Old free space is always below twice the young generation, so a
/// sliced configuration starts a cycle after every minor GC.
pub fn config() -> HeapConfigBuilder {
    HeapConfig::builder(8 << 10, 12 << 10)
}

/// A heap of `config` with the workload H2 over a fresh NVMe device.
pub fn h2_heap(config: HeapConfig, faults: FaultPlan) -> Heap {
    let mut heap = Heap::new(config);
    attach_workload_h2(&mut heap, DeviceSpec::nvme_ssd(), faults);
    heap
}

/// Elements of the spine every program starts with: a ref array of nodes,
/// each holding a leaf in ref field 1.
const SPINE: usize = 32;
/// Most slots a program holds a handle to after an op; beyond it the op
/// ends by releasing others (never the spine).
const MAX_LIVE: usize = 32;

/// One step of a mutator program. `a`, `b` name held objects (modulo their
/// count), `f` a field (modulo the object's ref or prim fields).
#[derive(Debug, Clone)]
pub enum Op {
    /// Allocate a `Node` (two refs, two prims) with prim 0 = the payload.
    Node(u64),
    /// Allocate a `Leaf` (two prims) with prim 0 = the payload.
    Leaf(u64),
    /// Allocate a null-filled ref array of this length.
    RefArray(usize),
    /// Allocate a prim array of this length, element `i` = payload + `i`.
    PrimArray(usize, u64),
    /// Store `b` into ref field `f` of `a`.
    Link(usize, usize, usize),
    /// Null ref field `f` of `a`, holding a handle to what it pointed to.
    Unlink(usize, usize),
    /// Store the value into prim field `f` of `a`.
    Mutate(usize, usize, u64),
    /// Take the object at spine element `i` in hand and swap a fresh leaf
    /// with this payload into its ref field 1, holding the displaced
    /// object: once the spine is in H2, a backward reference.
    SpineWrite(usize, u64),
    /// Load ref field `f` of `a` and hold a handle to the target, re-rooting
    /// it if the program had released it; of an object without refs, read
    /// prim `f`. Either way the value is checked on the spot.
    Read(usize, usize),
    /// Release the handle to `a` (the spine is never released).
    Release(usize),
    MinorGc,
    MajorGc,
    /// Tag `a` with the label, request its move and collect twice: the
    /// first major finishes any in-flight cycle (whose candidate selection
    /// may predate the hint), the second honours the hint. Every
    /// configuration therefore moves the closure reachable at this op, so
    /// H2 residency is a function of the program, not of slice timing.
    TagAndMove(usize, u64),
    /// Charge this many mutator ops inside a `Stage` span.
    Stage(u64),
    /// Charge this many mutator ops: pure mutator time, which paces slices.
    ChargeOps(u64),
}

/// Programs of `len` ops.
pub fn program(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Op>> {
    let obj = || range_usize(0..64);
    let op = prop_oneof![
        4 => range_u64(0..1 << 20).prop_map(Op::Node),
        4 => range_u64(0..1 << 20).prop_map(Op::Leaf),
        2 => range_usize(1..7).prop_map(Op::RefArray),
        1 => (range_usize(1..13), range_u64(0..1 << 20)).prop_map(|(n, v)| Op::PrimArray(n, v)),
        6 => (obj(), range_usize(0..6), obj()).prop_map(|(a, f, b)| Op::Link(a, f, b)),
        4 => (obj(), range_usize(0..6)).prop_map(|(a, f)| Op::Unlink(a, f)),
        3 => (obj(), (range_usize(0..12), range_u64(0..1 << 20)))
            .prop_map(|(a, (f, v))| Op::Mutate(a, f, v)),
        4 => (range_usize(0..SPINE), range_u64(0..1 << 20)).prop_map(|(i, v)| Op::SpineWrite(i, v)),
        3 => (obj(), range_usize(0..12)).prop_map(|(a, f)| Op::Read(a, f)),
        4 => obj().prop_map(Op::Release),
        2 => Just(Op::MinorGc),
        1 => Just(Op::MajorGc),
        2 => (obj(), range_u64(1..8)).prop_map(|(a, l)| Op::TagAndMove(a, l)),
        1 => range_u64(0..2000).prop_map(Op::Stage),
        3 => range_u64(0..2000).prop_map(Op::ChargeOps),
    ];
    vec_of(op, len)
}

/// One object the program allocated, as the program believes it to be.
struct Slot {
    class: ClassId,
    prims: Vec<u64>,
    /// Targets by slot index.
    refs: Vec<Option<usize>>,
    /// The program's handle; `None` once released.
    root: Option<Handle>,
}

/// A heap driven by a program, and the shadow graph it must match.
pub struct Mutator {
    pub heap: Heap,
    node: ClassId,
    leaf: ClassId,
    slots: Vec<Slot>,
    /// Slots holding a handle, the spine first.
    live: Vec<usize>,
}

/// Runs `ops` on `heap` from a fresh spine, settles with a major
/// collection and checks the heap against the shadow graph.
pub fn run(heap: Heap, ops: &[Op]) -> Mutator {
    let mut m = Mutator::new(heap);
    for op in ops {
        m.apply(op);
    }
    m.heap.gc_major().expect("settling major GC");
    m.check();
    m
}

impl Mutator {
    fn new(mut heap: Heap) -> Self {
        let node = heap.register_class("Node", 2, 2);
        let leaf = heap.register_class("Leaf", 0, 2);
        let mut m = Mutator { heap, node, leaf, slots: Vec::new(), live: Vec::new() };
        let spine = m.alloc(OBJ_ARRAY_CLASS, SPINE, 0);
        m.live.push(spine);
        for i in 0..SPINE {
            let n = m.alloc(node, 0, i as u64);
            let l = m.alloc(leaf, 0, i as u64);
            m.link(n, 1, l);
            m.link(spine, i, n);
            m.release(l);
            m.release(n);
        }
        m
    }

    /// The handles the program holds, spine first, in a program-determined
    /// order (for `graph_checksum`).
    pub fn roots(&self) -> Vec<Handle> {
        self.live.iter().map(|&s| self.handle(s)).collect()
    }

    fn handle(&self, s: usize) -> Handle {
        self.slots[s].root.expect("a held slot")
    }

    /// Allocates a held slot of `class` (`len` elements for arrays) with
    /// prim 0 = `v`; the caller makes it live or releases it.
    fn alloc(&mut self, class: ClassId, len: usize, v: u64) -> usize {
        let heap = &mut self.heap;
        let (h, prims, refs) = if class == OBJ_ARRAY_CLASS {
            (heap.alloc_ref_array(len).expect("alloc ref array"), Vec::new(), len)
        } else if class == PRIM_ARRAY_CLASS {
            let h = heap.alloc_prim_array(len).expect("alloc prim array");
            let vals: Vec<u64> = (0..len as u64).map(|i| v.wrapping_add(i)).collect();
            heap.write_prims(h, 0, &vals);
            (h, vals, 0)
        } else {
            let desc = heap.class_desc(class).clone();
            let h = heap.alloc(class).expect("alloc object");
            heap.write_prim(h, 0, v);
            let mut prims = vec![0; desc.prim_fields];
            prims[0] = v;
            (h, prims, desc.ref_fields)
        };
        self.slots.push(Slot { class, prims, refs: vec![None; refs], root: Some(h) });
        self.slots.len() - 1
    }

    fn alloc_live(&mut self, class: ClassId, len: usize, v: u64) {
        let s = self.alloc(class, len, v);
        self.live.push(s);
    }

    fn release(&mut self, s: usize) {
        let h = self.slots[s].root.take().expect("release of a held slot");
        self.heap.release(h);
    }

    fn link(&mut self, a: usize, f: usize, b: usize) {
        self.heap.write_ref(self.handle(a), f, self.handle(b));
        self.slots[a].refs[f] = Some(b);
    }

    /// Loads ref field `f` of held slot `a`, checks it against the shadow
    /// and holds the target, re-rooting it if the program had released it.
    fn load(&mut self, a: usize, f: usize) -> Option<usize> {
        let (got, want) = (self.heap.read_ref(self.handle(a), f), self.slots[a].refs[f]);
        match (got, want) {
            (None, None) => {}
            (Some(c), Some(t)) => match self.slots[t].root {
                Some(r) => {
                    assert!(self.heap.same_object(c, r), "load: slot {a} ref {f}");
                    self.heap.release(c);
                }
                None => {
                    self.slots[t].root = Some(c);
                    self.live.push(t);
                }
            },
            _ => panic!("load: slot {a} ref {f} is {got:?}, shadow says {want:?}"),
        }
        want
    }

    /// The live slot operand `a` names.
    fn pick(&self, a: usize) -> usize {
        self.live[a % self.live.len()]
    }

    /// Applies one op to the heap and to the shadow graph, then releases
    /// held slots beyond [`MAX_LIVE`].
    pub fn apply(&mut self, op: &Op) {
        match *op {
            Op::Node(v) => self.alloc_live(self.node, 0, v),
            Op::Leaf(v) => self.alloc_live(self.leaf, 0, v),
            Op::RefArray(len) => self.alloc_live(OBJ_ARRAY_CLASS, len, 0),
            Op::PrimArray(len, v) => self.alloc_live(PRIM_ARRAY_CLASS, len, v),
            Op::Link(a, f, b) => {
                let (a, b) = (self.pick(a), self.pick(b));
                let n = self.slots[a].refs.len();
                if n > 0 {
                    self.link(a, f % n, b);
                }
            }
            Op::Unlink(a, f) => {
                let a = self.pick(a);
                let n = self.slots[a].refs.len();
                if n > 0 {
                    self.load(a, f % n);
                    self.heap.write_ref_null(self.handle(a), f % n);
                    self.slots[a].refs[f % n] = None;
                }
            }
            Op::Mutate(a, f, v) => {
                let a = self.pick(a);
                let n = self.slots[a].prims.len();
                if n > 0 {
                    self.heap.write_prim(self.handle(a), f % n, v);
                    self.slots[a].prims[f % n] = v;
                }
            }
            Op::SpineWrite(i, v) => {
                if let Some(t) = self.load(self.live[0], i) {
                    let n = self.slots[t].refs.len();
                    if n > 0 {
                        self.load(t, 1 % n);
                        let fresh = self.alloc(self.leaf, 0, v);
                        self.link(t, 1 % n, fresh);
                        self.release(fresh);
                    }
                }
            }
            Op::Read(a, f) => {
                let a = self.pick(a);
                let slot = &self.slots[a];
                if !slot.refs.is_empty() {
                    self.load(a, f % slot.refs.len());
                } else {
                    let f = f % slot.prims.len();
                    let got = self.heap.read_prim(self.handle(a), f);
                    assert_eq!(got, self.slots[a].prims[f], "read: slot {a} prim {f}");
                }
            }
            Op::Release(a) => {
                let i = a % self.live.len();
                if i != 0 {
                    let s = self.live.swap_remove(i);
                    self.release(s);
                }
            }
            Op::MinorGc => self.heap.gc_minor().expect("minor GC"),
            Op::MajorGc => self.heap.gc_major().expect("major GC"),
            Op::TagAndMove(a, l) => {
                let h = self.handle(self.pick(a));
                self.heap.h2_tag_root(h, Label::new(l));
                self.heap.h2_move(Label::new(l));
                self.heap.gc_major().expect("major finishing an in-flight cycle");
                self.heap.gc_major().expect("major honouring h2_move");
            }
            Op::Stage(n) => {
                let span = self.heap.span(SpanKind::Stage);
                self.heap.charge_ops(n);
                drop(span);
            }
            Op::ChargeOps(n) => self.heap.charge_ops(n),
        }
        while self.live.len() > MAX_LIVE {
            let victim = self.live.swap_remove(1 + self.slots.len() % (self.live.len() - 1));
            self.release(victim);
        }
    }

    /// The oracle: walks the shadow graph from every held slot and checks
    /// each object it reaches — class, length, every prim, and every ref,
    /// whose target must be the same object (`Heap::same_object`) as the
    /// one the shadow names. Released objects the program can still reach
    /// are checked through handles loaded on the way. Panics on the first
    /// difference.
    pub fn check(&mut self) {
        let mut rep: Vec<Option<Handle>> = self.slots.iter().map(|s| s.root).collect();
        let mut loaded = Vec::new();
        let mut stack = self.live.clone();
        while let Some(s) = stack.pop() {
            let h = rep[s].expect("a reached slot has a handle");
            let slot = &self.slots[s];
            assert_eq!(self.heap.class_of(h), slot.class, "slot {s}: class");
            if slot.class == OBJ_ARRAY_CLASS || slot.class == PRIM_ARRAY_CLASS {
                let len = slot.refs.len() + slot.prims.len();
                assert_eq!(self.heap.array_len(h), len, "slot {s}: length");
            }
            for (i, &want) in slot.prims.iter().enumerate() {
                assert_eq!(self.heap.read_prim(h, i), want, "slot {s}: prim {i}");
            }
            for (i, &want) in slot.refs.iter().enumerate() {
                match (self.heap.read_ref(h, i), want) {
                    (None, None) => {}
                    (Some(c), Some(t)) => match rep[t] {
                        Some(r) => {
                            assert!(self.heap.same_object(c, r), "slot {s}: ref {i} to slot {t}");
                            self.heap.release(c);
                        }
                        None => {
                            rep[t] = Some(c);
                            loaded.push(c);
                            stack.push(t);
                        }
                    },
                    (got, want) => panic!("slot {s}: ref {i} is {got:?}, shadow says {want:?}"),
                }
            }
        }
        for h in loaded {
            self.heap.release(h);
        }
    }
}
