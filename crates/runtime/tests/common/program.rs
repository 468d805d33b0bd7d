//! The runtime's one mutator-program language: a random [`Op`] sequence
//! ([`program`]), an interpreter ([`Mutator`]) that applies every op to the
//! heap, through one of four [`Access`] paths, and to a shadow logical
//! graph, and an oracle ([`Mutator::check`]) that compares the two. The arms
//! of `mutator_programs` differ only in the heap and access path they hand
//! to [`run`] and what they assert afterwards;
//! `bulk_equivalence` runs one program under every path
//! ([`assert_access_equivalent`]).
//!
//! Object operands are indices into the slots the program holds a handle
//! to, taken modulo their count, so every op applies whatever ran before it
//! and shrinking never produces a program that does nothing.

use super::attach_workload_h2;
use teraheap_core::Label;
use teraheap_runtime::obs::{Event, SpanKind};
use teraheap_runtime::{ClassId, Handle, Heap, HeapConfig, Pin};
use teraheap_runtime::{OBJ_ARRAY_CLASS, PRIM_ARRAY_CLASS};
use teraheap_storage::{Category, DeviceSpec, FaultPlan};
use teraheap_util::prop_oneof;
use teraheap_util::proptest_mini::{range_u64, range_usize, vec_of, Just, Strategy};

/// Every arm's heap: an 8 Ki-word young generation over a 12 Ki-word old
/// one.
pub fn config() -> HeapConfig {
    HeapConfig::with_words(8 << 10, 12 << 10)
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
/// ends by releasing others (never a kept one).
const MAX_LIVE: usize = 32;

/// The accessors a [`Mutator`] reads and writes words through. They make
/// the same simulated accesses (DESIGN.md §9); only the host path differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Handles, one word at a time: a view or fill is a `read_prim` or
    /// `write_prim` loop.
    Loop,
    /// Handles; views copied out by `read_prims`, fills by `write_prims`.
    Copy,
    /// Handles; views borrowed from `view_prims`, fills by `write_prims`.
    View,
    /// The `*_at` accessors, through the one [`Pin`] each slot keeps for as
    /// long as the program holds it.
    Pinned,
}

impl Access {
    pub const ALL: [Access; 4] = [Access::Loop, Access::Copy, Access::View, Access::Pinned];
}

/// Any access path, shrinking toward [`Access::Loop`].
pub fn access() -> impl Strategy<Value = Access> {
    range_usize(0..4).prop_map(|i| Access::ALL[i])
}

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
    /// Read field `f` of `a`, refs first, then prims. A ref is loaded and
    /// its target held, re-rooted if the program had released it; either
    /// way the value is checked on the spot.
    Read(usize, usize),
    /// View prims `[start, start + n)` of `a` and check them: `start` is
    /// taken modulo the prims, `n` modulo what is left plus one. An empty
    /// range keeps the raw start, which may lie past the end.
    View(usize, usize, usize),
    /// Fill such a range of `a`, word `k` becoming the value plus `k`.
    Fill(usize, usize, usize, u64),
    /// Read and check the length of `a`, if it is an array.
    Len(usize),
    /// Release the handle to `a` (a kept slot is never released).
    Release(usize),
    /// Allocate a prim array of this length and drop it: eden fills, so
    /// collections run between accesses.
    Garbage(usize),
    MinorGc,
    MajorGc,
    /// Tag `a` with the label, request its move and run a major GC, which
    /// moves the closure reachable at this op.
    TagAndMove(usize, u64),
    /// Tag `a` and request its move without collecting: the next major
    /// cycle, explicit or demand, promotes it. Scripted only.
    Hint(usize, u64),
    /// Charge this many mutator ops inside a `Stage` span.
    Stage(u64),
    /// Charge this many mutator ops: pure mutator time.
    ChargeOps(u64),
}

/// Programs of `len` ops.
pub fn program(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Op>> {
    let obj = || range_usize(0..64);
    // Any start, and up to 700 words: more than a 4 KiB page.
    let range = || (obj(), range_usize(0..1 << 20), range_usize(0..700));
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
        3 => range().prop_map(|(a, start, n)| Op::View(a, start, n)),
        3 => (range(), range_u64(0..1 << 20))
            .prop_map(|((a, start, n), v)| Op::Fill(a, start, n, v)),
        1 => obj().prop_map(Op::Len),
        4 => obj().prop_map(Op::Release),
        3 => range_usize(16..400).prop_map(Op::Garbage),
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
    /// The program's handle, resolved; `None` once released.
    root: Option<Pin>,
}

/// A heap driven by a program, and the shadow graph it must match.
pub struct Mutator {
    pub heap: Heap,
    access: Access,
    node: ClassId,
    leaf: ClassId,
    slots: Vec<Slot>,
    /// Slots holding a handle, the spine first.
    live: Vec<usize>,
    /// Leading entries of `live` never released: the spine and whatever
    /// the prologue left held.
    kept: usize,
    /// Every word the program read, in order.
    words: Vec<u64>,
    /// A view or fill of two or more words met an H1 object, where the
    /// word loop makes a charge call per word and a bulk accessor one.
    h1_runs: bool,
}

/// Runs `ops` on `heap` through `access` from a fresh spine, settles with a
/// major collection and checks the heap against the shadow graph.
pub fn run(heap: Heap, access: Access, ops: &[Op]) -> Mutator {
    let mut m = Mutator::new(heap, access, &[]);
    ops.iter().for_each(|op| m.apply(op));
    m.heap.gc_major().expect("settling major GC");
    m.check();
    m
}

/// Everything a program's run lets the simulation observe.
#[derive(Debug, PartialEq)]
pub struct Observed {
    pub words: Vec<u64>,
    pub category_ns: Vec<u64>,
    pub total_ns: u64,
    pub events: Vec<Event>,
    /// read bytes/ops, write bytes/ops, faults, sequential faults,
    /// evictions, resident pages — empty without an H2.
    pub io: Vec<u64>,
}

/// Positions in [`Observed::io`].
pub const FAULTS: usize = 4;
pub const EVICTIONS: usize = 6;

/// What `m`'s run left observable, and its charge-call counts.
fn observe(m: &Mutator) -> (Observed, [u64; Category::COUNT]) {
    let clock = m.heap.clock();
    let io = m.heap.h2().map_or(Vec::new(), |h2| {
        let s = h2.mmap().stats();
        vec![
            s.read_bytes(),
            s.read_ops(),
            s.write_bytes(),
            s.write_ops(),
            s.page_faults(),
            s.seq_faults(),
            s.evictions(),
            h2.mmap().resident_pages() as u64,
        ]
    });
    let observed = Observed {
        words: m.words.clone(),
        category_ns: Category::ALL.iter().map(|&c| clock.category_ns(c)).collect(),
        total_ns: clock.total_ns(),
        events: clock.tracer().events(),
        io,
    };
    (observed, clock.tracer().charge_counts())
}

/// Runs `prologue` then `ops` on a fresh `make_heap()` under every
/// [`Access`] and checks each against the shadow graph (without settling).
/// Every run must observe the same; the bulk paths must make the same
/// charge calls, and so must the word loop when no view or fill of two or
/// more words met an H1 object (on H2, `touch_run` batches the loop's exact
/// count). Returns the `Pinned` run and what every run observed.
pub fn assert_access_equivalent(
    make_heap: &dyn Fn() -> Heap,
    prologue: &[Op],
    ops: &[Op],
) -> (Mutator, Observed) {
    let run = |access| {
        let mut m = Mutator::new(make_heap(), access, prologue);
        ops.iter().for_each(|op| m.apply(op));
        m.check();
        let (seen, charges) = observe(&m);
        (m, seen, charges)
    };
    let (Mutator { h1_runs, .. }, loop_seen, loop_charges) = run(Access::Loop);
    let mut bulk_charges = None;
    let mut last = None;
    for access in [Access::Copy, Access::View, Access::Pinned] {
        let (m, seen, charges) = run(access);
        assert_eq!(seen, loop_seen, "{access:?} diverged from the word loop");
        assert_eq!(*bulk_charges.get_or_insert(charges), charges, "{access:?}: charge calls");
        if !h1_runs {
            assert_eq!(charges, loop_charges, "{access:?}: touch_run batches the loop's calls");
        }
        last = Some(m);
    }
    (last.expect("the pinned run"), loop_seen)
}

impl Mutator {
    /// A fresh spine on `heap`, then `prologue`: the slots held after it
    /// are kept for the whole program.
    pub fn new(mut heap: Heap, access: Access, prologue: &[Op]) -> Self {
        let node = heap.register_class("Node", 2, 2);
        let leaf = heap.register_class("Leaf", 0, 2);
        let mut m = Mutator {
            heap,
            access,
            node,
            leaf,
            slots: Vec::new(),
            live: Vec::new(),
            kept: 1,
            words: Vec::new(),
            h1_runs: false,
        };
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
        prologue.iter().for_each(|op| m.apply(op));
        m.kept = m.live.len();
        m
    }

    /// The handles the program holds, spine first, in a program-determined
    /// order (for `graph_checksum`).
    pub fn roots(&self) -> Vec<Handle> {
        self.live.iter().map(|&s| self.handle(s)).collect()
    }

    /// The kept handles: the spine, then what the prologue left held.
    pub fn kept(&self) -> Vec<Handle> {
        self.live[..self.kept].iter().map(|&s| self.handle(s)).collect()
    }

    fn handle(&self, s: usize) -> Handle {
        self.slots[s].root.expect("a held slot").handle()
    }

    /// The heap and held slot `s`'s pin, for the `*_at` accessors.
    fn pinned(&mut self, s: usize) -> (&mut Heap, &mut Pin) {
        (&mut self.heap, self.slots[s].root.as_mut().expect("a held slot"))
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
        let root = Some(self.heap.pin(h));
        self.slots.push(Slot { class, prims, refs: vec![None; refs], root });
        self.slots.len() - 1
    }

    fn alloc_live(&mut self, class: ClassId, len: usize, v: u64) {
        let s = self.alloc(class, len, v);
        self.live.push(s);
    }

    fn release(&mut self, s: usize) {
        let pin = self.slots[s].root.take().expect("release of a held slot");
        self.heap.release(pin.handle());
    }

    fn link(&mut self, a: usize, f: usize, b: usize) {
        self.heap.write_ref(self.handle(a), f, self.handle(b));
        self.slots[a].refs[f] = Some(b);
    }

    /// Loads ref field `f` of held slot `a`, checks it against the shadow
    /// and holds the target, re-rooting it if the program had released it.
    fn load(&mut self, a: usize, f: usize) -> Option<usize> {
        let got = match self.access {
            Access::Pinned => {
                let (heap, pin) = self.pinned(a);
                heap.read_ref_at(pin, f)
            }
            _ => self.heap.read_ref(self.handle(a), f),
        };
        let want = self.slots[a].refs[f];
        match (got, want) {
            (None, None) => {}
            (Some(c), Some(t)) => match self.slots[t].root {
                Some(r) => {
                    assert_eq!(
                        self.heap.handle_addr(c),
                        self.heap.handle_addr(r.handle()),
                        "load: slot {a} ref {f}"
                    );
                    self.heap.release(c);
                }
                None => {
                    self.slots[t].root = Some(self.heap.pin(c));
                    self.live.push(t);
                }
            },
            _ => panic!("load: slot {a} ref {f} is {got:?}, shadow says {want:?}"),
        }
        want
    }

    /// Reads prim `f` of held slot `s` and checks it against the shadow.
    fn read_prim(&mut self, s: usize, f: usize) {
        let got = match self.access {
            Access::Pinned => {
                let (heap, pin) = self.pinned(s);
                heap.read_prim_at(pin, f)
            }
            _ => self.heap.read_prim(self.handle(s), f),
        };
        assert_eq!(got, self.slots[s].prims[f], "read: slot {s} prim {f}");
        self.words.push(got);
    }

    /// The range a [`Op::View`] or [`Op::Fill`] of slot `s` names, noting
    /// a run of two or more words on H1 (see `h1_runs`).
    fn range(&mut self, s: usize, start: usize, n: usize) -> (usize, usize) {
        let p = self.slots[s].prims.len();
        let first = start % p.max(1);
        let (start, n) = match n % (p - first + 1) {
            0 => (start, 0),
            n => (first, n),
        };
        self.h1_runs |= n > 1 && !self.heap.is_in_h2(self.handle(s));
        (start, n)
    }

    fn view(&mut self, s: usize, start: usize, n: usize) {
        let (start, n) = self.range(s, start, n);
        let h = self.handle(s);
        let got: Vec<u64> = match self.access {
            Access::Loop => (start..start + n).map(|i| self.heap.read_prim(h, i)).collect(),
            Access::Copy => {
                let mut buf = vec![0; n];
                self.heap.read_prims(h, start, &mut buf);
                buf
            }
            Access::View => self.heap.view_prims(h, start, n).to_vec(),
            Access::Pinned => {
                let (heap, pin) = self.pinned(s);
                heap.view_prims_at(pin, start, n).to_vec()
            }
        };
        let want = self.slots[s].prims.get(start..start + n).unwrap_or(&[]);
        assert_eq!(got, want, "view: slot {s} [{start}, +{n})");
        self.words.extend(got);
    }

    fn fill(&mut self, s: usize, start: usize, n: usize, v: u64) {
        let (start, n) = self.range(s, start, n);
        let h = self.handle(s);
        let vals: Vec<u64> = (0..n as u64).map(|k| v.wrapping_add(k)).collect();
        match self.access {
            Access::Loop => (start..).zip(&vals).for_each(|(i, &v)| self.heap.write_prim(h, i, v)),
            Access::Copy | Access::View => self.heap.write_prims(h, start, &vals),
            Access::Pinned => {
                let (heap, pin) = self.pinned(s);
                heap.fill_prims_at(pin, start, n, |slots| slots.copy_from_slice(&vals));
            }
        }
        if n > 0 {
            self.slots[s].prims[start..start + n].copy_from_slice(&vals);
        }
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
                    let f = f % n;
                    match self.access {
                        Access::Pinned => {
                            let (heap, pin) = self.pinned(a);
                            heap.write_prim_at(pin, f, v);
                        }
                        _ => self.heap.write_prim(self.handle(a), f, v),
                    }
                    self.slots[a].prims[f] = v;
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
                let (refs, prims) = (self.slots[a].refs.len(), self.slots[a].prims.len());
                if refs + prims > 0 {
                    match f % (refs + prims) {
                        f if f < refs => {
                            self.load(a, f);
                        }
                        f => self.read_prim(a, f - refs),
                    }
                }
            }
            Op::View(a, start, n) => self.view(self.pick(a), start, n),
            Op::Fill(a, start, n, v) => self.fill(self.pick(a), start, n, v),
            Op::Len(a) => {
                let a = self.pick(a);
                let slot = &self.slots[a];
                if slot.class == OBJ_ARRAY_CLASS || slot.class == PRIM_ARRAY_CLASS {
                    let want = slot.refs.len() + slot.prims.len();
                    let got = match self.access {
                        Access::Pinned => {
                            let (heap, pin) = self.pinned(a);
                            heap.array_len_at(pin)
                        }
                        _ => self.heap.array_len(self.handle(a)),
                    };
                    assert_eq!(got, want, "len: slot {a}");
                    self.words.push(got as u64);
                }
            }
            Op::Release(a) => {
                let i = a % self.live.len();
                if i >= self.kept {
                    let s = self.live.swap_remove(i);
                    self.release(s);
                }
            }
            Op::Garbage(len) => {
                let h = self.heap.alloc_prim_array(len).expect("garbage fits");
                self.heap.release(h);
            }
            Op::MinorGc => self.heap.gc_minor().expect("minor GC"),
            Op::MajorGc => self.heap.gc_major().expect("major GC"),
            Op::TagAndMove(a, l) => {
                self.apply(&Op::Hint(a, l));
                self.heap.gc_major().expect("major honouring h2_move");
            }
            Op::Hint(a, l) => {
                let h = self.handle(self.pick(a));
                self.heap.h2_tag_root(h, Label::new(l));
                self.heap.h2_move(Label::new(l));
            }
            Op::Stage(n) => {
                let span = self.heap.span(SpanKind::Stage);
                self.heap.charge_ops(n);
                drop(span);
            }
            Op::ChargeOps(n) => self.heap.charge_ops(n),
        }
        while self.live.len() > MAX_LIVE {
            let i = self.kept + self.slots.len() % (self.live.len() - self.kept);
            let victim = self.live.swap_remove(i);
            self.release(victim);
        }
    }

    /// The oracle: walks the shadow graph from every held slot and checks
    /// each object it reaches — class, length, its prims (in one view), and
    /// every ref, whose target must be at the address
    /// (`Heap::handle_addr`) of the one the shadow names. Released objects
    /// the program can still reach are checked through handles loaded on
    /// the way. Panics on the first difference.
    pub fn check(&mut self) {
        let mut rep: Vec<Option<Handle>> =
            self.slots.iter().map(|s| s.root.map(|p| p.handle())).collect();
        let mut loaded = Vec::new();
        let mut stack = self.live.clone();
        while let Some(s) = stack.pop() {
            let h = rep[s].expect("a reached slot has a handle");
            let slot = &self.slots[s];
            assert_eq!(self.heap.pin(h).class(), slot.class, "slot {s}: class");
            if slot.class == OBJ_ARRAY_CLASS || slot.class == PRIM_ARRAY_CLASS {
                let len = slot.refs.len() + slot.prims.len();
                assert_eq!(self.heap.array_len(h), len, "slot {s}: length");
            }
            let prims = self.heap.view_prims(h, 0, slot.prims.len());
            assert_eq!(prims, &slot.prims[..], "slot {s}: prims");
            for (i, &want) in slot.refs.iter().enumerate() {
                match (self.heap.read_ref(h, i), want) {
                    (None, None) => {}
                    (Some(c), Some(t)) => match rep[t] {
                        Some(r) => {
                            assert_eq!(
                                self.heap.handle_addr(c),
                                self.heap.handle_addr(r),
                                "slot {s}: ref {i} to slot {t}"
                            );
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
