//! Mini Giraph: a Pregel-style BSP graph framework over the managed heap.
//!
//! Reproduces the Giraph role in the paper's evaluation (§5, Figure 5):
//! computation proceeds in supersteps separated by synchronization
//! barriers. The graph is loaded and partitioned during the *input
//! superstep*; each vertex keeps a map of outgoing edges; every superstep
//! consumes the *incoming* message store (messages of the previous
//! superstep, immutable) and produces the *current* message store (mutable
//! until the barrier). Edges and messages — the bulk of the heap — become
//! immutable at load time / barrier time respectively, while vertex values
//! are updated every superstep.
//!
//! Two memory configurations match the paper:
//!
//! * **Giraph-OOC** — an out-of-core scheduler monitors heap pressure and
//!   offloads least-recently-used partition edges and incoming message
//!   stores to the storage device (serialized byte arrays), reloading them
//!   on access; with a memory limit no run reaches, everything stays on
//!   the heap;
//! * **TeraHeap** — edges are tagged at load and moved at the end of the
//!   input superstep; each superstep's messages are tagged at creation and
//!   moved at the beginning of the next superstep (`h2_tag_root` /
//!   `h2_move` with the superstep id as label). Vertices are never tagged —
//!   they are updated too frequently (§5).

pub mod workloads;

pub use workloads::{run_giraph, run_giraph_on, GiraphWorkload};

use teraheap_core::{H2Config, Label};
use teraheap_runtime::{H1Prims, Handle, Heap, HeapConfig, OomError, Pin, SharedDevice, WordBatch};
use teraheap_storage::{Blob, DeviceSpec, SimDevice};

/// Memory configuration for a Giraph run (Table 2 / Table 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GiraphMode {
    /// Giraph-OOC: offload LRU edges/messages to the device when resident
    /// data exceeds `memory_limit_words` (`usize::MAX`: never, so
    /// everything stays on the managed heap and the device is never used).
    OutOfCore {
        /// Device for the off-heap store.
        device: DeviceSpec,
        /// Resident budget in words before the scheduler offloads.
        memory_limit_words: usize,
    },
    /// TeraHeap: edges and messages move to H2 via hints.
    TeraHeap {
        /// H2 layout.
        h2: H2Config,
        /// Device backing H2.
        device: DeviceSpec,
    },
}

impl GiraphMode {
    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            GiraphMode::OutOfCore { .. } => "Giraph-OOC",
            GiraphMode::TeraHeap { .. } => "TeraHeap",
        }
    }
}

/// Full configuration of a Giraph run.
#[derive(Debug, Clone, Copy)]
pub struct GiraphConfig {
    /// H1 heap configuration.
    pub heap: HeapConfig,
    /// Memory mode.
    pub mode: GiraphMode,
    /// Graph partitions.
    pub partitions: usize,
    /// Maximum supersteps (programs may converge earlier).
    pub max_supersteps: usize,
    /// Whether `h2_move` hints are issued (Figure 9a's H vs NH). Ignored
    /// outside TeraHeap mode.
    pub use_move_hint: bool,
    /// Optional low-threshold fraction for the pressure mechanism
    /// (Figure 9b's L configuration). Ignored outside TeraHeap mode.
    pub low_threshold: Option<f64>,
    /// Nothing reads this any more (the threshold controller is gone);
    /// kept because the repo benchmark still sets it.
    pub adaptive_threshold: bool,
    /// Record per-H2-region live-object statistics (Figure 10).
    pub track_h2_liveness: bool,
}

impl GiraphConfig {
    /// A small test configuration.
    pub fn small(mode: GiraphMode) -> Self {
        GiraphConfig {
            heap: HeapConfig::with_words(32 << 10, 128 << 10),
            mode,
            partitions: 4,
            max_supersteps: 5,
            use_move_hint: true,
            low_threshold: None,
            adaptive_threshold: false,
            track_h2_liveness: false,
        }
    }

    /// A private heap for this configuration: attached, in TeraHeap mode, to
    /// a fresh one-tenant [`SharedDevice`] sized to the H2 footprint.
    pub(crate) fn private_heap(&self) -> Heap {
        let mut heap = Heap::new(self.heap);
        if let GiraphMode::TeraHeap { h2, device } = self.mode {
            let dev = SharedDevice::new(device, h2.footprint_bytes(), heap.clock().clone());
            heap.attach_h2(h2, &dev).expect("one-tenant SharedDevice attach cannot fail");
        }
        heap
    }
}

/// One partition's heap-resident state.
#[derive(Debug)]
struct PartitionState {
    /// Packed vertex store: one primitive array with (id, value, degree)
    /// triples — Giraph serializes vertices into byte arrays at allocation
    /// time (§5). Always resident, and pinned: every superstep reads and
    /// updates it word by word.
    vertices: Pin,
    /// Vertices in the partition (three words each in the store).
    n_vertices: usize,
    /// Ref array of per-vertex edge-target primitive arrays, or `None`
    /// while offloaded.
    edges: Option<Handle>,
    /// Serialized edges on the OOC device. Kept across reloads: edges are
    /// immutable, so offloading them again needs no second serialization.
    edges_blob: Option<Blob>,
    /// Words the resident edge structure occupies (for the OOC budget).
    edge_words: usize,
    /// LRU stamp: the superstep this partition was last processed.
    last_access: u64,
}

impl PartitionState {
    /// Words the vertex store occupies (OOC budget; not offloadable here —
    /// vertices are updated every superstep).
    fn vertex_words(&self) -> usize {
        3 + 3 * self.n_vertices
    }
}

/// One partition's share of a message store.
#[derive(Debug, Default)]
struct PartMessages {
    /// The message array, or `None` if empty or offloaded; pinned because
    /// delivery and consumption go through it word by word. A slotted
    /// store holds `(count, combined value)` pairs indexed by local vertex;
    /// an appended store holds flattened `(target, value)` pairs.
    array: Option<Pin>,
    /// Whether the array is slotted (combiner) or appended.
    slotted: bool,
    /// Serialized store on the OOC device while offloaded; its reload
    /// consumes it.
    blob: Option<Blob>,
    /// Message pairs (append) / populated slots (slotted).
    count: usize,
    /// Allocated array capacity in words (resident-set accounting must use
    /// capacity, not fill level).
    capacity_words: usize,
}

/// One message store (one superstep's messages).
#[derive(Debug)]
struct MsgStore {
    parts: Vec<PartMessages>,
}

impl MsgStore {
    fn empty(partitions: usize) -> Self {
        MsgStore { parts: (0..partitions).map(|_| PartMessages::default()).collect() }
    }

    fn resident_words(&self) -> usize {
        self.parts.iter().filter(|m| m.array.is_some()).map(|m| m.capacity_words + 3).sum()
    }
}

/// One partition's incoming messages grouped per local vertex, in delivery
/// order within a vertex: two flat buffers, reused across partitions and
/// supersteps ([`GiraphContext::read_incoming`] refills them).
#[derive(Debug, Default)]
pub(crate) struct Inbox {
    /// Vertex `i`'s messages are `values[starts[i]..starts[i + 1]]`.
    starts: Vec<usize>,
    values: Vec<u64>,
}

impl Inbox {
    /// The message values delivered to local vertex `i`.
    pub(crate) fn of(&self, i: usize) -> &[u64] {
        &self.values[self.starts[i]..self.starts[i + 1]]
    }

    /// Number of local vertices covered.
    fn vertices(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// Empties the inbox over `n` vertices.
    fn reset(&mut self, n: usize) {
        self.starts.clear();
        self.starts.resize(n + 1, 0);
        self.values.clear();
    }

    /// Refills the inbox from a slotted store of `n` `(count, combined
    /// value)` slots, reading a slot's value only if its count is not 0.
    fn ungroup(&mut self, slots: &mut impl Words, n: usize) {
        self.reset(n);
        for i in 0..n {
            if slots.read(2 * i) > 0 {
                self.values.push(slots.read(2 * i + 1));
            }
            self.starts[i + 1] = self.values.len();
        }
    }

    /// Groups flattened `(target, value)` pairs over `n` local vertices
    /// (`target / parts` is the local index) with a stable counting sort.
    fn group(&mut self, pairs: &[u64], parts: usize, n: usize) {
        // Count vertex i at starts[i + 2]; after the prefix sum starts[i + 1]
        // is group i's first slot, and placing through it as a cursor leaves
        // starts[i]..starts[i + 1] delimiting group i.
        self.starts.clear();
        self.starts.resize(n + 2, 0);
        for pair in pairs.chunks_exact(2) {
            self.starts[pair[0] as usize / parts + 2] += 1;
        }
        for i in 2..n + 2 {
            self.starts[i] += self.starts[i - 1];
        }
        self.values.clear();
        self.values.resize(pairs.len() / 2, 0);
        for pair in pairs.chunks_exact(2) {
            let cursor = &mut self.starts[pair[0] as usize / parts + 1];
            self.values[*cursor] = pair[1];
            *cursor += 1;
        }
        self.starts.truncate(n + 1);
    }
}

/// The Giraph runtime: heap, partition store, message stores, OOC device.
#[derive(Debug)]
pub struct GiraphContext {
    /// The managed heap.
    pub heap: Heap,
    config: GiraphConfig,
    parts: Vec<PartitionState>,
    incoming: MsgStore,
    current: MsgStore,
    device: Option<SimDevice>,
    superstep: u64,
    /// The current store's arrays resolved in H1, one per partition, while
    /// every one exists and is H1-resident; empty otherwise.
    h1_stores: Vec<H1Prims>,
    /// One H2 run of edge targets, copied out of the heap.
    run: Vec<u64>,
    /// OOC statistics: partitions offloaded / reloaded.
    pub offloads: u64,
    /// OOC statistics: partition reloads.
    pub reloads: u64,
}

/// Label for partition `p`'s edge group (labels 2..2+partitions).
fn edges_label(p: usize) -> Label {
    Label::new(2 + p as u64)
}

/// Pregel message combiner applied on delivery (Giraph combines messages
/// per target vertex as they are inserted into the current store).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combiner {
    /// Minimum of `u64` values (WCC/BFS/SSSP).
    MinU64,
    /// No combiner: every message is kept (CDLP).
    Append,
}

fn msg_label(superstep: u64) -> Label {
    Label::new(100 + superstep)
}

impl GiraphContext {
    /// Builds the runtime on a heap the caller made and loads `graph` (the
    /// input superstep). In TeraHeap mode the caller has attached H2: a
    /// server tenant attaches to its partition of the shared device, whose
    /// spec — not the mode's `device` field, which only a private heap
    /// reads — decides the H2 I/O cost model.
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] if the graph does not fit.
    pub fn load_on(
        mut heap: Heap,
        config: GiraphConfig,
        graph: &teraheap_workloads::Adjacency,
        initial_value: impl Fn(u64) -> u64,
    ) -> Result<Self, OomError> {
        let mut device = None;
        match config.mode {
            GiraphMode::TeraHeap { .. } => {
                // Without H2 the options steer nothing, as with `h2_move`.
                if let Some(policy) = heap.h2_mut().map(|h2| h2.policy_mut()) {
                    if !config.use_move_hint {
                        *policy = policy.clone().without_hints();
                    }
                    if let Some(low) = config.low_threshold {
                        *policy = policy.clone().with_low(low);
                    }
                }
                heap.track_h2_liveness(config.track_h2_liveness);
            }
            GiraphMode::OutOfCore { device: spec, .. } => {
                device = Some(SimDevice::new(spec, 4 << 30, heap.clock().clone()));
            }
        }
        let mut ctx = GiraphContext {
            heap,
            config,
            parts: Vec::new(),
            incoming: MsgStore::empty(config.partitions),
            current: MsgStore::empty(config.partitions),
            device,
            superstep: 0,
            h1_stores: Vec::new(),
            run: Vec::new(),
            offloads: 0,
            reloads: 0,
        };
        ctx.input_superstep(graph, initial_value)?;
        Ok(ctx)
    }

    /// The input superstep: load vertices and edges, tag edges for H2.
    ///
    /// Under TeraHeap, loading mirrors real Giraph input splits: every
    /// partition's (pre-sized) out-edge arrays are created and *tagged*
    /// first, then filled over several passes. Partitions are therefore
    /// mutable for most of the load — if memory pressure moves a partially
    /// loaded partition's edges to H2 early, the remaining fill passes
    /// become device read-modify-writes. This is exactly the §7.2 dynamic
    /// that the `h2_move` hint and the low threshold exist to avoid.
    fn input_superstep(
        &mut self,
        graph: &teraheap_workloads::Adjacency,
        initial_value: impl Fn(u64) -> u64,
    ) -> Result<(), OomError> {
        const FILL_PASSES: usize = 8;
        let parts = self.config.partitions;
        let teraheap = matches!(self.config.mode, GiraphMode::TeraHeap { .. });
        let mut edge_roots = Vec::with_capacity(parts);
        // Phase 1: create the stores (vertices + pre-sized edge arrays).
        for p in 0..parts {
            let ids = (p..graph.vertices()).step_by(parts);
            let n = ids.len();
            let vertices = self.heap.alloc_prim_array(n * 3)?;
            let mut vertices = self.heap.pin(vertices);
            let edges = self.heap.alloc_ref_array(n)?;
            let mut edge_words = 3 + n;
            for (i, vid) in ids.enumerate() {
                let targets = graph.of(vid);
                let vertex = [vid as u64, initial_value(vid as u64), targets.len() as u64];
                write_words(&mut self.heap, &mut vertices, i * 3, &vertex);
                let e = self.heap.alloc_prim_array(targets.len().max(1))?;
                edge_words += 3 + targets.len().max(1);
                if !teraheap {
                    // OOC builds load each partition in full.
                    let mut e = self.heap.pin(e);
                    write_words(&mut self.heap, &mut e, 0, targets);
                }
                self.heap.write_ref(edges, i, e);
                self.heap.release(e);
            }
            // 1: Giraph marks the outEdges maps at load (Figure 5, step 1).
            if teraheap {
                self.heap.h2_tag_root(edges, edges_label(p));
            }
            edge_roots.push(edges);
            self.parts.push(PartitionState {
                vertices,
                n_vertices: n,
                edges: Some(edges),
                edges_blob: None,
                edge_words,
                last_access: 0,
            });
            // The OOC scheduler also offloads while the graph is loading —
            // otherwise large graphs could never be loaded at all.
            self.ooc_rebalance()?;
        }
        // Phase 2 (TeraHeap): fill the edge stores partition by partition,
        // in several passes per partition. A partition already moved to H2
        // under load pressure (the oldest, completed groups move first)
        // receives no further writes; the in-progress partition is the
        // newest label, which the pressure path defers while it can.
        if teraheap {
            for (p, &edges) in edge_roots.iter().enumerate() {
                for pass in 0..FILL_PASSES {
                    let mut edges = self.heap.pin(edges);
                    for (i, vid) in (p..graph.vertices()).step_by(parts).enumerate() {
                        let targets = graph.of(vid);
                        let from = targets.len() * pass / FILL_PASSES;
                        let to = targets.len() * (pass + 1) / FILL_PASSES;
                        if from == to {
                            continue;
                        }
                        let e = self.heap.read_ref_at(&mut edges, i).expect("edge array");
                        let mut slots = self.heap.pin(e);
                        write_words(&mut self.heap, &mut slots, from, &targets[from..to]);
                        self.heap.release(e);
                    }
                    // Input-split buffers churn the young generation.
                    let tmp = self.heap.alloc_prim_array(256)?;
                    self.heap.release(tmp);
                }
            }
        }
        // 2: at the end of the input superstep, advise the move (Figure 5).
        if teraheap && self.config.use_move_hint {
            for p in 0..parts {
                self.heap.h2_move(edges_label(p));
            }
        }
        Ok(())
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// Current superstep number (0 before the first compute superstep).
    pub fn superstep(&self) -> u64 {
        self.superstep
    }

    /// Reads partition `p`'s vertex values into a host vector, indexed by
    /// local vertex (vertex `i` has id `p + i * partitions`).
    pub fn vertex_values(&mut self, p: usize) -> Vec<u64> {
        let vertices = &mut self.parts[p].vertices;
        let n = self.heap.array_len_at(vertices) / 3;
        match self.heap.h1_prims(vertices) {
            Some(h1) => values_of(&mut (&mut self.heap.word_batch(), &h1), n),
            None => values_of(&mut (&mut self.heap, vertices), n),
        }
    }

    /// The out-degree of vertex `i` of partition `p` (stored in the vertex
    /// object; degree-0 vertices carry a one-slot placeholder edge array).
    pub fn vertex_degree(&mut self, p: usize, i: usize) -> usize {
        self.heap.read_prim_at(&mut self.parts[p].vertices, i * 3 + 2) as usize
    }

    /// Writes vertex `i` of partition `p`'s value (mutator update; vertices
    /// stay in H1).
    pub fn set_vertex_value(&mut self, p: usize, i: usize, value: u64) {
        self.heap.write_prim_at(&mut self.parts[p].vertices, i * 3 + 1, value);
    }

    /// Fetches partition `p`'s edge structure, reloading it from the OOC
    /// device if offloaded. Returns a handle the caller must release.
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] if reloading exhausts the heap.
    pub fn partition_edges(&mut self, p: usize) -> Result<Handle, OomError> {
        self.parts[p].last_access = self.superstep;
        if let Some(h) = self.parts[p].edges {
            return Ok(self.heap.dup(h));
        }
        let (Some(device), Some(blob)) = (&self.device, &self.parts[p].edges_blob) else {
            unreachable!("offloaded edges have a blob on the OOC device");
        };
        let h = kryo_sim::reload(device, &mut self.heap, blob)?;
        self.reloads += 1;
        let dup = self.heap.dup(h);
        self.parts[p].edges = Some(h);
        Ok(dup)
    }

    /// Consumes partition `p`'s incoming messages into `inbox`, grouped per
    /// local vertex (charged heap loads; OOC reload if offloaded).
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] if reloading exhausts the heap.
    pub(crate) fn read_incoming(&mut self, p: usize, inbox: &mut Inbox) -> Result<(), OomError> {
        if let (Some(device), None) = (self.device.as_mut(), self.incoming.parts[p].array) {
            // The reload consumes the blob: its buffer carries the next
            // offload's stream.
            if let Some(blob) = self.incoming.parts[p].blob.take() {
                let h = kryo_sim::consume(device, &mut self.heap, blob)?;
                self.reloads += 1;
                self.incoming.parts[p].array = Some(self.heap.pin(h));
            }
        }
        let n = self.parts[p].n_vertices;
        let store = &mut self.incoming.parts[p];
        let Some(array) = store.array.as_mut() else {
            inbox.reset(n);
            return Ok(());
        };
        if store.slotted {
            // One slot per vertex of the partition (and one for an empty
            // partition), at most one combined message in each, in vertex
            // order: the groups are written as the slots are read.
            let slots = self.heap.array_len_at(array) / 2;
            match self.heap.h1_prims(array) {
                Some(h1) => inbox.ungroup(&mut (&mut self.heap.word_batch(), &h1), slots),
                None => inbox.ungroup(&mut (&mut self.heap, array), slots),
            }
        } else {
            // Appended stores are dense (target, value) pairs: one bulk view
            // replaces 2n word reads at identical simulated cost.
            let pairs = self.heap.view_prims(array.handle(), 0, 2 * store.count);
            inbox.group(pairs, self.parts.len(), n);
        }
        Ok(())
    }

    /// `GiraphContext::read_incoming` as host `(target, value)` pairs,
    /// ordered by target and by delivery within a target.
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] if reloading exhausts the heap.
    pub fn incoming_messages(&mut self, p: usize) -> Result<Vec<(u64, u64)>, OomError> {
        let mut inbox = Inbox::default();
        self.read_incoming(p, &mut inbox)?;
        let parts = self.parts.len();
        let mut out = Vec::with_capacity(inbox.values.len());
        for i in 0..inbox.vertices() {
            out.extend(inbox.of(i).iter().map(|&v| ((p + i * parts) as u64, v)));
        }
        Ok(out)
    }

    /// Delivers one message to the current store, applying the combiner on
    /// insert (as Giraph's message stores do). The store array for the
    /// target's partition is allocated lazily — tagged with the current
    /// superstep's label at creation, so under memory pressure it can move
    /// to H2 *while still mutable*, making every further delivery a device
    /// read-modify-write. That cost is precisely what the `h2_move` hint
    /// (Figure 9a) and the low threshold (Figure 9b) avoid.
    ///
    /// `capacity_hints[dest]` sizes partition `dest`'s appended
    /// (combiner-less) store, in messages, when it is created; combining
    /// stores never read it.
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] if the store allocation fails.
    pub fn deliver_message(
        &mut self,
        target: u64,
        value: u64,
        combiner: Combiner,
        capacity_hints: &[usize],
    ) -> Result<(), OomError> {
        let (dest, local) = split(target, self.parts.len());
        if self.current.parts[dest].array.is_none() {
            self.create_store(dest, combiner, capacity_hints)?;
        }
        let store = &mut self.current.parts[dest];
        let array = store.array.as_mut().expect("store just ensured");
        combine(&mut (&mut self.heap, array), &mut store.count, target, local, value, combiner);
        Ok(())
    }

    /// Delivers `msg` along the first `deg` targets of the edge array
    /// `targets`: what reading each target with [`Heap::read_prim_at`] and
    /// delivering it with [`GiraphContext::deliver_message`] does, in the
    /// same simulated time, charges, statistics and events.
    ///
    /// While every current store exists in H1 (and nothing can allocate)
    /// a delivery only touches H1 words, so the targets are read in runs
    /// ([`Heap::prim_run_at`]) and each run's deliveries are charged as one
    /// [`WordBatch`]. Otherwise this is the per-edge loop.
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] if a store allocation fails.
    pub(crate) fn send(
        &mut self,
        targets: &mut Pin,
        deg: usize,
        msg: u64,
        combiner: Combiner,
        capacity_hints: &[usize],
    ) -> Result<(), OomError> {
        let runs = !per_edge_oracle() && self.stores_in_h1();
        #[cfg(test)]
        tests::note_send(self, targets, runs);
        if !runs {
            for k in 0..deg {
                let t = self.heap.read_prim_at(targets, k);
                self.deliver_message(t, msg, combiner, capacity_hints)?;
            }
            return Ok(());
        }
        let parts = self.parts.len();
        let (stores, current) = (&self.h1_stores, &mut self.current.parts);
        if let Some(edges) = self.heap.h1_prims(targets) {
            let mut batch = self.heap.word_batch();
            for k in 0..deg {
                let t = batch.read(&edges, k);
                deliver_in(&mut batch, stores, current, parts, t, msg, combiner);
            }
            return Ok(());
        }
        let mut k = 0;
        while k < deg {
            let n = self.heap.prim_run_at(targets, k).clamp(1, deg - k);
            self.run.clear();
            self.run.extend_from_slice(self.heap.view_prims_at(targets, k, n));
            let mut batch = self.heap.word_batch();
            for &t in &self.run {
                deliver_in(&mut batch, stores, current, parts, t, msg, combiner);
            }
            k += n;
        }
        Ok(())
    }

    /// Whether every partition's current store exists in H1, resolving
    /// them into `h1_stores` if the last resolution went stale.
    fn stores_in_h1(&mut self) -> bool {
        if let Some(first) = self.h1_stores.first() {
            if self.heap.h1_prims_current(first) {
                return true;
            }
        }
        self.h1_stores.clear();
        for store in &mut self.current.parts {
            match store.array.as_mut().and_then(|array| self.heap.h1_prims(array)) {
                Some(array) => self.h1_stores.push(array),
                None => {
                    self.h1_stores.clear();
                    return false;
                }
            }
        }
        true
    }

    /// Allocates partition `dest`'s array of the current store.
    #[cold]
    fn create_store(
        &mut self,
        dest: usize,
        combiner: Combiner,
        capacity_hints: &[usize],
    ) -> Result<(), OomError> {
        let slotted = combiner != Combiner::Append;
        let words = if slotted {
            2 * (self.heap.array_len_at(&mut self.parts[dest].vertices) / 3)
        } else {
            2 * capacity_hints[dest]
        };
        let words = words.max(2);
        let h = self.heap.alloc_prim_array(words)?;
        self.h1_stores.clear();
        if matches!(self.config.mode, GiraphMode::TeraHeap { .. }) {
            self.heap.h2_tag_root(h, msg_label(self.superstep));
        }
        self.current.parts[dest] = PartMessages {
            array: Some(self.heap.pin(h)),
            slotted,
            blob: None,
            count: 0,
            capacity_words: words,
        };
        self.ooc_rebalance()
    }

    /// The synchronization barrier ending a superstep: the current store
    /// becomes the incoming store (now immutable), hints fire, and the OOC
    /// scheduler rebalances.
    ///
    /// Returns the number of messages that will be delivered next superstep.
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] if OOC serialization pressure exhausts the heap.
    pub fn barrier(&mut self) -> Result<usize, OomError> {
        // Free the consumed incoming store.
        for store in &mut self.incoming.parts {
            if let Some(array) = store.array.take() {
                self.heap.release(array.handle());
            }
        }
        // The retired store goes with whatever blobs it still holds.
        std::mem::swap(&mut self.incoming, &mut self.current);
        self.current = MsgStore::empty(self.parts.len());
        self.h1_stores.clear();
        let delivered: usize = self.incoming.parts.iter().map(|m| m.count).sum();
        self.superstep += 1;
        // 4: at the start of the next superstep, advise moving the previous
        // superstep's messages (Figure 5).
        if matches!(self.config.mode, GiraphMode::TeraHeap { .. }) && self.config.use_move_hint {
            self.heap.h2_move(msg_label(self.superstep - 1));
        }
        self.ooc_rebalance()?;
        Ok(delivered)
    }

    /// The out-of-core scheduler: offload LRU partition edges and incoming
    /// message stores until resident data fits the memory limit. The
    /// paper's scheduler monitors memory pressure continuously, not only at
    /// barriers: workloads also call this after processing each partition.
    /// Serialization running out of heap and a full OOC device are both an
    /// [`OomError`].
    pub(crate) fn ooc_rebalance(&mut self) -> Result<(), OomError> {
        let (GiraphMode::OutOfCore { memory_limit_words, .. }, Some(device)) =
            (self.config.mode, self.device.as_mut())
        else {
            return Ok(());
        };
        let mut resident: usize = self
            .parts
            .iter()
            .map(|p| p.vertex_words() + if p.edges.is_some() { p.edge_words } else { 0 })
            .sum::<usize>()
            + self.incoming.resident_words()
            + self.current.resident_words();
        if resident <= memory_limit_words {
            return Ok(());
        }
        // LRU order over partitions.
        let mut order: Vec<usize> = (0..self.parts.len()).collect();
        order.sort_by_key(|&p| self.parts[p].last_access);
        for p in order {
            if resident <= memory_limit_words {
                break;
            }
            // Offload incoming messages first (they die soonest anyway),
            // then edges. A handle leaves its slot only once its blob is
            // stored: when `serialize` runs out of memory or the device is
            // full the slot still names it, so it is not a root nothing can
            // release.
            if let Some(array) = self.incoming.parts[p].array {
                let blob = kryo_sim::offload(device, &mut self.heap, array.handle(), "Giraph-OOC")?;
                self.incoming.parts[p].blob = Some(blob);
                self.incoming.parts[p].array = None;
                resident = resident.saturating_sub(2 * self.incoming.parts[p].count + 3);
                self.heap.release(array.handle());
                self.offloads += 1;
            }
            if resident <= memory_limit_words {
                break;
            }
            if let Some(h) = self.parts[p].edges {
                if self.parts[p].edges_blob.is_none() {
                    let blob = kryo_sim::offload(device, &mut self.heap, h, "Giraph-OOC")?;
                    self.parts[p].edges_blob = Some(blob);
                }
                self.parts[p].edges = None;
                self.heap.release(h);
                resident = resident.saturating_sub(self.parts[p].edge_words);
                self.offloads += 1;
            }
        }
        Ok(())
    }
}

/// `(target % parts, target / parts)`: the partition and local index of a
/// vertex id, by one 32-bit division when both fit (vertex ids are `u32`).
#[inline]
fn split(target: u64, parts: usize) -> (usize, usize) {
    match (u32::try_from(target), u32::try_from(parts)) {
        (Ok(t), Ok(p)) => ((t % p) as usize, (t / p) as usize),
        _ => (target as usize % parts, target as usize / parts),
    }
}

/// Word accesses to one primitive array, each charged as the per-word
/// accessor charges it: through a [`Pin`] on the heap, or inside a
/// [`WordBatch`].
trait Words {
    fn read(&mut self, idx: usize) -> u64;
    fn write(&mut self, idx: usize, val: u64);
    fn array_len(&mut self) -> usize;
}

impl Words for (&mut Heap, &mut Pin) {
    fn read(&mut self, idx: usize) -> u64 {
        self.0.read_prim_at(self.1, idx)
    }
    fn write(&mut self, idx: usize, val: u64) {
        self.0.write_prim_at(self.1, idx, val);
    }
    fn array_len(&mut self) -> usize {
        self.0.array_len_at(self.1)
    }
}

impl Words for (&mut WordBatch<'_>, &H1Prims) {
    #[inline(always)]
    fn read(&mut self, idx: usize) -> u64 {
        self.0.read(self.1, idx)
    }
    #[inline(always)]
    fn write(&mut self, idx: usize, val: u64) {
        self.0.write(self.1, idx, val);
    }
    #[inline(always)]
    fn array_len(&mut self) -> usize {
        self.0.array_len(self.1)
    }
}

/// One delivery into a store array holding `count` messages or slots: an
/// append of the `(target, value)` pair, or a combine into `local`'s slot.
#[inline(always)]
fn combine(
    array: &mut impl Words,
    count: &mut usize,
    target: u64,
    local: usize,
    value: u64,
    combiner: Combiner,
) {
    match combiner {
        Combiner::Append => {
            let c = *count;
            assert!(2 * c + 1 < array.array_len(), "capacity hint too small");
            array.write(2 * c, target);
            array.write(2 * c + 1, value);
            *count += 1;
        }
        Combiner::MinU64 => {
            let cnt = array.read(2 * local);
            let combined = if cnt == 0 {
                *count += 1;
                value
            } else {
                array.read(2 * local + 1).min(value)
            };
            array.write(2 * local, cnt + 1);
            array.write(2 * local + 1, combined);
        }
    }
}

/// The value words of `n` packed vertices. Giraph deserializes the whole
/// vertex, so each id word is loaded — and charged — too, although nothing
/// consumes it.
fn values_of(vertices: &mut impl Words, n: usize) -> Vec<u64> {
    (0..n)
        .map(|i| {
            vertices.read(i * 3);
            vertices.read(i * 3 + 1)
        })
        .collect()
}

/// [`GiraphContext::deliver_message`] on stores resolved in H1.
#[inline(always)]
fn deliver_in(
    batch: &mut WordBatch<'_>,
    stores: &[H1Prims],
    current: &mut [PartMessages],
    parts: usize,
    target: u64,
    value: u64,
    combiner: Combiner,
) {
    let (dest, local) = split(target, parts);
    let count = &mut current[dest].count;
    combine(&mut (batch, &stores[dest]), count, target, local, value, combiner);
}

/// Writes `words` into `pin`'s primitive slots from `start`, charged as the
/// per-word [`Heap::write_prim_at`] loop: one [`WordBatch`] fill in H1, a
/// [`Heap::fill_prims_at`] per [`Heap::prim_run_at`] run in H2.
fn write_words<T: Copy + Into<u64>>(heap: &mut Heap, pin: &mut Pin, start: usize, words: &[T]) {
    let fill = |from: usize, slots: &mut [u64]| {
        for (slot, &w) in slots.iter_mut().zip(&words[from..]) {
            *slot = w.into();
        }
    };
    if let Some(h1) = heap.h1_prims(pin) {
        heap.word_batch().fill(&h1, start, words.len(), |slots| fill(0, slots));
        return;
    }
    let mut k = 0;
    while k < words.len() {
        // At least one word, so a range past the end fails the bounds check.
        let n = heap.prim_run_at(pin, start + k).clamp(1, words.len() - k);
        heap.fill_prims_at(pin, start + k, n, |slots| fill(k, slots));
        k += n;
    }
}

/// Whether the delivery oracle test has switched [`GiraphContext::send`]
/// to the per-edge loop everywhere.
#[cfg(not(test))]
fn per_edge_oracle() -> bool {
    false
}

#[cfg(test)]
thread_local! {
    static PER_EDGE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

#[cfg(test)]
fn per_edge_oracle() -> bool {
    PER_EDGE.get()
}

#[cfg(test)]
mod tests {
    use super::*;
    use teraheap_workloads::powerlaw_graph;

    fn graph() -> teraheap_workloads::Adjacency {
        powerlaw_graph(200, 4, 7).adjacency()
    }

    /// Giraph-OOC under a limit no run reaches: everything stays on the heap.
    fn unbounded() -> GiraphMode {
        GiraphMode::OutOfCore { device: DeviceSpec::nvme_ssd(), memory_limit_words: usize::MAX }
    }

    /// `config` on its private heap, loaded with `graph()`.
    fn load(config: GiraphConfig, initial_value: impl Fn(u64) -> u64) -> GiraphContext {
        GiraphContext::load_on(config.private_heap(), config, &graph(), initial_value).unwrap()
    }

    #[test]
    fn load_builds_partitions() {
        let mut ctx = load(GiraphConfig::small(unbounded()), |_| 0);
        assert_eq!(ctx.partitions(), 4);
        let values = ctx.vertex_values(0);
        assert!(!values.is_empty());
        assert!(values.iter().all(|&v| v == 0));
    }

    #[test]
    fn messages_flow_across_barrier() {
        let mut ctx = load(GiraphConfig::small(unbounded()), |_| 0);
        // Both targets are vertices of partition 1 (id % 4 == 1).
        for (target, value) in [(5, 42), (9, 43)] {
            ctx.deliver_message(target, value, Combiner::Append, &[0, 2, 0, 0]).unwrap();
        }
        assert!(ctx.incoming_messages(1).unwrap().is_empty(), "not delivered yet");
        let delivered = ctx.barrier().unwrap();
        assert_eq!(delivered, 2);
        assert_eq!(ctx.incoming_messages(1).unwrap(), vec![(5, 42), (9, 43)]);
        // After the next barrier the store is consumed.
        ctx.barrier().unwrap();
        assert!(ctx.incoming_messages(1).unwrap().is_empty());
    }

    #[test]
    fn vertex_updates_persist() {
        let mut ctx = load(GiraphConfig::small(unbounded()), |id| id);
        ctx.set_vertex_value(0, 0, 999);
        let values = ctx.vertex_values(0);
        assert_eq!(values[0], 999);
    }

    #[test]
    fn ooc_offloads_and_reloads() {
        let mode = GiraphMode::OutOfCore {
            device: DeviceSpec::nvme_ssd(),
            memory_limit_words: 64, // absurdly small: force offloading
        };
        let mut ctx = load(GiraphConfig::small(mode), |_| 0);
        ctx.deliver_message(4, 2, Combiner::Append, &[1, 0, 0, 0]).unwrap();
        ctx.barrier().unwrap();
        assert!(ctx.offloads > 0, "scheduler must offload under pressure");
        // Access reloads transparently, and the data is intact.
        let e = ctx.partition_edges(0).unwrap();
        assert!(ctx.heap.array_len(e) > 0);
        ctx.heap.release(e);
        assert!(ctx.reloads > 0);
    }

    #[test]
    fn consumed_message_blobs_are_freed() {
        // Byte-granular NVM: the device's write counter is the exact sum of
        // the blob lengths ever stored.
        let mode =
            GiraphMode::OutOfCore { device: DeviceSpec::optane_nvm(), memory_limit_words: 700 };
        let config = GiraphConfig { max_supersteps: 8, ..GiraphConfig::small(mode) };
        let (ctx, _) =
            workloads::run_giraph_with_context(GiraphWorkload::Wcc, config, 200, 4, 7).unwrap();
        assert!(ctx.reloads > 0 && ctx.offloads > ctx.parts.len() as u64);
        let held = |blob: &Option<Blob>| blob.as_ref().map_or(0, Blob::len);
        let edges: usize = ctx.parts.iter().map(|p| held(&p.edges_blob)).sum();
        let incoming: usize = ctx.incoming.parts.iter().map(|m| held(&m.blob)).sum();
        // What is still held is the edge blobs plus at most the offloaded
        // part of the last incoming store (its arrays, serialized) — a
        // reloaded store consumed its blob and retired stores took theirs
        // along — never the sum of everything offloaded.
        assert!(ctx.current.parts.iter().all(|m| m.blob.is_none()));
        assert!(ctx.incoming.parts.iter().all(|m| m.array.is_none() || m.blob.is_none()));
        let last_store: usize = ctx.incoming.parts.iter().map(|m| 11 + 8 * m.capacity_words).sum();
        assert!(edges > 0 && incoming <= last_store, "{incoming} > {last_store}");
        let stored = ctx.device.as_ref().unwrap().stored_bytes();
        assert!(stored > 2 * (edges + last_store), "stored {stored}, edges {edges}");
        // One more superstep by hand: a store offloaded at the barrier gives
        // its blob up the moment it is reloaded, not only when it retires.
        let mut ctx = ctx;
        for target in 0..4 {
            ctx.deliver_message(target, 1, Combiner::MinU64, &[]).unwrap();
        }
        ctx.barrier().unwrap();
        let offloaded = |ctx: &GiraphContext, p: usize| held(&ctx.incoming.parts[p].blob) > 0;
        let p = (0..4).find(|&p| offloaded(&ctx, p)).expect("the barrier offloads a store");
        assert_eq!(ctx.incoming_messages(p).unwrap(), [(p as u64, 1)]);
        assert!(!offloaded(&ctx, p) && ctx.incoming.parts[p].array.is_some());
    }

    #[test]
    fn a_rebalance_that_runs_out_of_memory_leaks_no_root() {
        let mode = |memory_limit_words| GiraphMode::OutOfCore {
            device: DeviceSpec::nvme_ssd(),
            memory_limit_words,
        };
        // With a message store on the LRU partition the scheduler's first
        // offload is that store; without one it is the partition's edges.
        for deliver in [true, false] {
            let config = GiraphConfig::small(mode(usize::MAX));
            let mut ctx = load(config, |_| 0);
            if deliver {
                ctx.deliver_message(4, 2, Combiner::Append, &[1, 0, 0, 0]).unwrap();
                ctx.barrier().unwrap();
            }
            // Fill the heap to the brim: `serialize` cannot allocate its
            // temporary buffer, so the first offload fails.
            let mut fill = Vec::new();
            while let Ok(h) = ctx.heap.alloc_prim_array(64) {
                fill.push(h);
            }
            ctx.config.mode = mode(0);
            assert!(ctx.ooc_rebalance().is_err(), "the offload must run out of memory");
            // Every live root is a handle some slot still names (or filler).
            let stores = ctx.incoming.parts.iter().chain(&ctx.current.parts);
            let named = ctx.parts.len()
                + ctx.parts.iter().filter(|p| p.edges.is_some()).count()
                + stores.filter(|m| m.array.is_some()).count();
            assert_eq!(ctx.heap.live_roots(), named + fill.len(), "a handle left its slot");
            assert_eq!((ctx.offloads, named), (0, 2 * ctx.parts.len() + usize::from(deliver)));
        }
    }

    #[test]
    fn a_full_ooc_device_is_an_error() {
        let config = GiraphConfig::small(GiraphMode::OutOfCore {
            device: DeviceSpec::nvme_ssd(),
            memory_limit_words: usize::MAX,
        });
        let mut ctx = load(config, |_| 0);
        // Smaller than any partition's serialized edges.
        ctx.device = Some(SimDevice::new(DeviceSpec::nvme_ssd(), 64, ctx.heap.clock().clone()));
        ctx.config.mode =
            GiraphMode::OutOfCore { device: DeviceSpec::nvme_ssd(), memory_limit_words: 0 };
        let err = ctx.ooc_rebalance().unwrap_err();
        assert!(err.context.contains("Giraph-OOC device"), "{err}");
        // The edges the offload could not store still have their slot.
        let named = ctx.parts.len() + ctx.parts.iter().filter(|p| p.edges.is_some()).count();
        assert_eq!((ctx.heap.live_roots(), named), (named, 2 * ctx.parts.len()));
        assert_eq!(ctx.offloads, 0);
    }

    thread_local! {
        /// [`GiraphContext::send`] calls since the last [`take_sends`]:
        /// per-edge, in one H1 run, in H2 runs, and per-edge because a
        /// store had moved to H2 mid-superstep.
        static SENDS: std::cell::Cell<[u64; 4]> = const { std::cell::Cell::new([0; 4]) };
    }

    pub(super) fn note_send(ctx: &GiraphContext, targets: &Pin, runs: bool) {
        let stores = &ctx.current.parts;
        let path = if runs && ctx.heap.is_in_h2(targets.handle()) {
            2
        } else if runs {
            1
        } else if stores.iter().all(|m| m.array.is_some())
            && stores.iter().any(|m| m.array.is_some_and(|a| ctx.heap.is_in_h2(a.handle())))
        {
            3
        } else {
            0
        };
        SENDS.with(|s| s.set(std::array::from_fn(|i| s.get()[i] + u64::from(i == path))));
    }

    fn take_sends() -> [u64; 4] {
        SENDS.take()
    }

    #[test]
    fn teraheap_moves_edges_and_messages() {
        let mode = GiraphMode::TeraHeap {
            h2: H2Config::builder()
                .region_words(16 << 10)
                .n_regions(32)
                .card_seg_words(1 << 10)
                .resident_budget_bytes(256 << 10)
                .page_size(4096)
                .promo_buffer_bytes(2 << 20)
                .build()
                .expect("valid H2 config"),
            device: DeviceSpec::nvme_ssd(),
        };
        let mut cfg = GiraphConfig::small(mode);
        cfg.heap = HeapConfig::with_words(4 << 10, 8 << 10);
        let mut ctx = load(cfg, |_| 0);
        for _ in 0..64 {
            ctx.deliver_message(4, 2, Combiner::Append, &[64, 0, 0, 0]).unwrap();
        }
        ctx.barrier().unwrap();
        ctx.heap.gc_major().unwrap();
        assert!(ctx.heap.h2().unwrap().objects_promoted() > 0, "edges/messages must move to H2");
        // Edges remain directly accessible after the move.
        let e = ctx.partition_edges(0).unwrap();
        assert!(ctx.heap.is_in_h2(e));
        ctx.heap.release(e);
    }

    /// The delivery oracle: [`GiraphContext::send`]'s runs against the
    /// per-edge `read_prim_at` + `deliver_message` loop it replaces.
    mod delivery_oracle {
        use super::*;
        use teraheap_runtime::obs::{Event, Level};
        use teraheap_runtime::{GcVariant, TenantIo};
        use teraheap_storage::{Breakdown, Category, IoStats};
        use teraheap_util::prop_assert_eq;
        use teraheap_util::proptest_mini::{any_u64, check, range_usize, CaseResult, Config};

        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Setup {
            /// Paged NVMe H2, edges and message stores moved by hint.
            TeraHeap,
            /// The same without hints, on a heap so small that current
            /// stores move to H2 while they are being delivered to.
            TeraHeapNoHint,
            Ooc,
            /// Optane H2 on a device shared with a tenant that ran first,
            /// so every DAX word meets the arbiter with bookings to dodge.
            DaxShared,
            /// Unbounded Giraph-OOC with the whole heap in NVM Memory mode:
            /// every H1 word pays the miss premium.
            MemoryMode,
            /// Unbounded Giraph-OOC under Panthera, whose NVM boundary lies
            /// inside the old generation: the pretenured edge arrays and
            /// message stores straddle it or lie past it.
            Panthera,
        }

        const SETUPS: [Setup; 6] = [
            Setup::TeraHeap,
            Setup::TeraHeapNoHint,
            Setup::Ooc,
            Setup::DaxShared,
            Setup::MemoryMode,
            Setup::Panthera,
        ];

        fn config(setup: Setup) -> GiraphConfig {
            let h2 = |resident_kb: usize| {
                H2Config::builder()
                    .region_words(8 << 10)
                    .n_regions(96)
                    .card_seg_words(512)
                    .resident_budget_bytes(resident_kb << 10)
                    .page_size(4096)
                    .promo_buffer_bytes(64 << 10)
                    .build()
                    .expect("valid H2 config")
            };
            let (heap, mode) = match setup {
                Setup::TeraHeap | Setup::TeraHeapNoHint => (
                    HeapConfig::with_words(8 << 10, 24 << 10),
                    GiraphMode::TeraHeap { h2: h2(32), device: DeviceSpec::nvme_ssd() },
                ),
                Setup::Ooc => (
                    HeapConfig::with_words(16 << 10, 96 << 10),
                    GiraphMode::OutOfCore {
                        device: DeviceSpec::nvme_ssd(),
                        memory_limit_words: 12 << 10,
                    },
                ),
                Setup::DaxShared => (
                    HeapConfig::with_words(8 << 10, 24 << 10),
                    GiraphMode::TeraHeap { h2: h2(64), device: DeviceSpec::optane_nvm() },
                ),
                Setup::MemoryMode => (
                    HeapConfig { memory_mode: true, ..HeapConfig::with_words(16 << 10, 96 << 10) },
                    unbounded(),
                ),
                Setup::Panthera => (
                    HeapConfig {
                        variant: GcVariant::Panthera { old_dram_words: 8 << 10 },
                        ..HeapConfig::with_words(16 << 10, 96 << 10)
                    },
                    unbounded(),
                ),
            };
            let mut cfg = GiraphConfig::small(mode);
            cfg.heap = heap;
            cfg.heap.obs_level = Some(Level::Full);
            cfg.use_move_hint = setup != Setup::TeraHeapNoHint;
            cfg
        }

        /// Everything the simulation shows of one run.
        #[derive(Debug, PartialEq)]
        struct Observed {
            breakdown: Breakdown,
            /// The H2 mapping's or the OOC device's counters.
            io: [u64; 8],
            charges: [u64; Category::COUNT],
            event_classes: Vec<(&'static str, u64)>,
            /// The ring itself: kinds and timestamps in order.
            events: Vec<Event>,
            tenant: Option<TenantIo>,
            checksum_bits: u64,
        }

        fn io(s: &IoStats) -> [u64; 8] {
            [
                s.read_bytes(),
                s.write_bytes(),
                s.read_ops(),
                s.write_ops(),
                s.page_faults(),
                s.seq_faults(),
                s.evictions(),
                s.io_retries(),
            ]
        }

        /// Runs `workload` under `setup`, through the oracle or not.
        fn run(
            setup: Setup,
            workload: GiraphWorkload,
            graph: (usize, usize, u64),
            oracle: bool,
        ) -> Observed {
            let (vertices, degree, seed) = graph;
            let cfg = config(setup);
            let (heap, shared) = match (setup, cfg.mode) {
                (Setup::DaxShared, GiraphMode::TeraHeap { h2, device }) => {
                    let shared = SharedDevice::for_server(device, 2 * h2.footprint_bytes());
                    let tenant = || {
                        let heap = Heap::new(cfg.heap);
                        shared.add_tenant(heap.clock().clone(), h2.footprint_bytes()).unwrap();
                        let mut heap = heap;
                        heap.attach_h2(h2, &shared).unwrap();
                        heap
                    };
                    let (neighbour, heap) = (tenant(), tenant());
                    workloads::run_giraph_on(
                        neighbour,
                        GiraphWorkload::Wcc,
                        cfg,
                        vertices,
                        degree,
                        !seed,
                    )
                    .expect("the neighbour fits");
                    (heap, Some(shared))
                }
                _ => (cfg.private_heap(), None),
            };
            PER_EDGE.set(oracle);
            let run = workloads::run_giraph_on(heap, workload, cfg, vertices, degree, seed);
            PER_EDGE.set(false);
            let (ctx, checksum) =
                run.unwrap_or_else(|e| panic!("{setup:?} runs out of memory: {e}"));
            let clock = ctx.heap.clock();
            let io = match (&ctx.device, ctx.heap.h2()) {
                // The blob tier's traffic is in the events and charges.
                (Some(device), _) => [device.stored_bytes() as u64, 0, 0, 0, 0, 0, 0, 0],
                (None, h2) => io(h2.expect("a setup without OOC attaches H2").mmap().stats()),
            };
            Observed {
                breakdown: clock.breakdown(),
                io,
                charges: clock.tracer().charge_counts(),
                event_classes: clock.tracer().counts(),
                events: clock.tracer().events(),
                tenant: shared.and_then(|d| d.tenant_of(clock).and_then(|t| d.tenant_io(t))),
                checksum_bits: checksum.to_bits(),
            }
        }

        #[test]
        fn runs_deliver_what_the_per_edge_loop_delivers() {
            let graphs = ((range_usize(1000..1600), range_usize(4..7)), any_u64());
            let covered = std::cell::Cell::new([[0u64; 4]; SETUPS.len()]);
            check(
                "runs_deliver_what_the_per_edge_loop_delivers",
                &graphs,
                &Config::with_cases(2),
                |((v, d), seed)| {
                    for (i, &setup) in SETUPS.iter().enumerate() {
                        for w in [GiraphWorkload::Pr, GiraphWorkload::Cdlp, GiraphWorkload::Wcc] {
                            let oracle = run(setup, w, (v, d, seed), true);
                            take_sends();
                            let runs = run(setup, w, (v, d, seed), false);
                            let (sends, mut total) = (take_sends(), covered.get());
                            for (c, s) in total[i].iter_mut().zip(sends) {
                                *c += s;
                            }
                            covered.set(total);
                            prop_assert_eq!(runs, oracle, "{} under {setup:?}", w.name());
                        }
                    }
                    CaseResult::Pass
                },
            );
            // Every setup took the paths it exists for.
            let covered = covered.get();
            let [th, no_hint, ooc, dax, mo, panthera] = covered;
            assert!(th[2] > 0 && ooc[1] > 0 && dax[2] > 0, "{covered:?}");
            assert!(no_hint[3] > 0, "no store moved mid-superstep: {covered:?}");
            assert!(mo[1] > 0 && panthera[1] > 0, "no run under an H1 premium: {covered:?}");
        }
    }
}
