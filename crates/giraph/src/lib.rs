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
//! Three memory configurations match the paper:
//!
//! * **in-memory** — everything stays on the heap;
//! * **Giraph-OOC** — an out-of-core scheduler monitors heap pressure and
//!   offloads least-recently-used partition edges and incoming message
//!   stores to the storage device (serialized byte arrays), reloading them
//!   on access;
//! * **TeraHeap** — edges are tagged at load and moved at the end of the
//!   input superstep; each superstep's messages are tagged at creation and
//!   moved at the beginning of the next superstep (`h2_tag_root` /
//!   `h2_move` with the superstep id as label). Vertices are never tagged —
//!   they are updated too frequently (§5).

pub mod workloads;

pub use workloads::{run_giraph, run_giraph_on, GiraphReport, GiraphWorkload};

use teraheap_core::{H2Config, Label};
use teraheap_runtime::{Handle, Heap, HeapConfig, OomError, Pin, SharedDevice};
use teraheap_storage::{Blob, DeviceSpec, SimDevice};

/// Memory configuration for a Giraph run (Table 2 / Table 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GiraphMode {
    /// Everything on the managed heap.
    InMemory,
    /// Giraph-OOC: offload LRU edges/messages to the device when resident
    /// data exceeds `memory_limit_words`.
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
            GiraphMode::InMemory => "Giraph",
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
    /// Builds the runtime on a private heap and loads `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] if the graph does not fit.
    pub fn load(
        config: GiraphConfig,
        graph: &teraheap_workloads::Adjacency,
        initial_value: impl Fn(u64) -> u64,
    ) -> Result<Self, OomError> {
        Self::load_on(config.private_heap(), config, graph, initial_value)
    }

    /// Builds the runtime on a heap the caller made and loads `graph` (the
    /// input superstep). In TeraHeap mode the caller has attached H2: a
    /// server tenant attaches to its partition of the shared device, whose
    /// spec — not the mode's `device` field, which [`GiraphContext::load`]
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
            GiraphMode::InMemory => {}
        }
        let mut ctx = GiraphContext {
            heap,
            config,
            parts: Vec::new(),
            incoming: MsgStore::empty(config.partitions),
            current: MsgStore::empty(config.partitions),
            device,
            superstep: 0,
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
                self.heap.write_prim_at(&mut vertices, i * 3, vid as u64);
                self.heap.write_prim_at(&mut vertices, i * 3 + 1, initial_value(vid as u64));
                self.heap.write_prim_at(&mut vertices, i * 3 + 2, targets.len() as u64);
                let e = self.heap.alloc_prim_array(targets.len().max(1))?;
                edge_words += 3 + targets.len().max(1);
                if !teraheap {
                    // OOC/in-memory builds load each partition in full.
                    let mut e = self.heap.pin(e);
                    for (k, &t) in targets.iter().enumerate() {
                        self.heap.write_prim_at(&mut e, k, t as u64);
                    }
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
                        for (k, &dst) in targets[from..to].iter().enumerate() {
                            self.heap.write_prim_at(&mut slots, from + k, dst as u64);
                        }
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
    /// local vertex (vertex `i` has id `p + i * partitions`). Giraph
    /// deserializes the whole vertex, so the id word is loaded — and charged
    /// — with the value although nothing consumes it.
    pub fn vertex_values(&mut self, p: usize) -> Vec<u64> {
        let vertices = &mut self.parts[p].vertices;
        let n = self.heap.array_len_at(vertices) / 3;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            self.heap.read_prim_at(vertices, i * 3);
            out.push(self.heap.read_prim_at(vertices, i * 3 + 1));
        }
        out
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
        if self.incoming.parts[p].array.is_none() {
            if let (Some(device), Some(blob)) = (&self.device, &self.incoming.parts[p].blob) {
                let h = kryo_sim::reload(device, &mut self.heap, blob)?;
                self.reloads += 1;
                // The reload consumes the blob: its bytes are freed here.
                self.incoming.parts[p].blob = None;
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
            inbox.reset(slots);
            for i in 0..slots {
                let cnt = self.heap.read_prim_at(array, 2 * i);
                if cnt > 0 {
                    inbox.values.push(self.heap.read_prim_at(array, 2 * i + 1));
                }
                inbox.starts[i + 1] = inbox.values.len();
            }
        } else {
            // Appended stores are dense (target, value) pairs: one bulk view
            // replaces 2n word reads at identical simulated cost.
            let pairs = self.heap.view_prims(array.handle(), 0, 2 * store.count);
            inbox.group(pairs, self.parts.len(), n);
        }
        Ok(())
    }

    /// [`GiraphContext::read_incoming`] as host `(target, value)` pairs,
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
        let parts = self.parts.len();
        let (dest, local) = (target as usize % parts, target as usize / parts);
        if self.current.parts[dest].array.is_none() {
            self.create_store(dest, combiner, capacity_hints)?;
        }
        let store = &mut self.current.parts[dest];
        let array = store.array.as_mut().expect("store just ensured");
        match combiner {
            Combiner::Append => {
                let c = store.count;
                assert!(2 * c + 1 < self.heap.array_len_at(array), "capacity hint too small");
                self.heap.write_prim_at(array, 2 * c, target);
                self.heap.write_prim_at(array, 2 * c + 1, value);
                store.count += 1;
            }
            Combiner::MinU64 => {
                let cnt = self.heap.read_prim_at(array, 2 * local);
                let combined = if cnt == 0 {
                    store.count += 1;
                    value
                } else {
                    self.heap.read_prim_at(array, 2 * local + 1).min(value)
                };
                self.heap.write_prim_at(array, 2 * local, cnt + 1);
                self.heap.write_prim_at(array, 2 * local + 1, combined);
            }
        }
        Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;
    use teraheap_workloads::powerlaw_graph;

    fn graph() -> teraheap_workloads::Adjacency {
        powerlaw_graph(200, 4, 7).adjacency()
    }

    #[test]
    fn load_builds_partitions() {
        let mut ctx =
            GiraphContext::load(GiraphConfig::small(GiraphMode::InMemory), &graph(), |_| 0)
                .unwrap();
        assert_eq!(ctx.partitions(), 4);
        let values = ctx.vertex_values(0);
        assert!(!values.is_empty());
        assert!(values.iter().all(|&v| v == 0));
    }

    #[test]
    fn messages_flow_across_barrier() {
        let mut ctx =
            GiraphContext::load(GiraphConfig::small(GiraphMode::InMemory), &graph(), |_| 0)
                .unwrap();
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
        let mut ctx =
            GiraphContext::load(GiraphConfig::small(GiraphMode::InMemory), &graph(), |id| id)
                .unwrap();
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
        let mut ctx = GiraphContext::load(GiraphConfig::small(mode), &graph(), |_| 0).unwrap();
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
        let stored = ctx.device.as_ref().unwrap().stats().write_bytes() as usize;
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
            let mut ctx = GiraphContext::load(config, &graph(), |_| 0).unwrap();
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
        let mut ctx = GiraphContext::load(config, &graph(), |_| 0).unwrap();
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
        let mut ctx = GiraphContext::load(cfg, &graph(), |_| 0).unwrap();
        for _ in 0..64 {
            ctx.deliver_message(4, 2, Combiner::Append, &[64, 0, 0, 0]).unwrap();
        }
        ctx.barrier().unwrap();
        ctx.heap.gc_major().unwrap();
        assert!(
            ctx.heap.stats().objects_promoted_h2 > 0,
            "edges/messages must move to H2"
        );
        // Edges remain directly accessible after the move.
        let e = ctx.partition_edges(0).unwrap();
        assert!(ctx.heap.is_in_h2(e));
        ctx.heap.release(e);
    }
}
