//! The ten SparkBench-style workloads of Table 3.
//!
//! Each workload computes over the managed heap exactly the way the paper's
//! applications do: datasets are loaded into cached RDD partitions
//! (`persist()`), iterative stages re-read the cached partitions — paying
//! deserialization for off-heap blocks, page faults for H2-resident blocks,
//! plain loads for on-heap blocks — allocate per-iteration intermediate
//! results (GC pressure) and shuffle aggregates between stages (S/D).
//!
//! Every RDD is built through one builder (`build_block`) and every stage
//! reads its partitions through one cursor (`with_block`): cached data is
//! written and read where it lies — pinned once, filled and viewed in place
//! — and every handle a build or a stage takes is released on every exit,
//! so a round that runs out of memory leaves the context with nothing
//! rooted but its cache.
//!
//! Every workload returns a checksum that is *identical across cache modes*,
//! which the integration tests use to prove that TeraHeap only changes
//! performance, never answers.

use crate::block::BlockId;
use crate::context::{SparkConfig, SparkContext};
use teraheap_runtime::obs::SpanKind;
use teraheap_runtime::{Handle, Heap, OomError, Pin, RunReport};
use teraheap_workloads::{
    shared_graph, shared_relational, shared_vectors, Adjacency, VectorDataset,
};

/// The evaluated Spark workloads (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// PageRank (GraphX).
    Pr,
    /// Connected Components (GraphX).
    Cc,
    /// Single-Source Shortest Path (GraphX).
    Sssp,
    /// SVD++-style latent-factor model (GraphX).
    Svd,
    /// Triangle Counting (GraphX).
    Tr,
    /// Linear Regression (MLlib).
    Lr,
    /// Logistic Regression (MLlib).
    Lgr,
    /// Support Vector Machine (MLlib).
    Svm,
    /// Naive Bayes Classifier (MLlib).
    Bc,
    /// SQL-style relational job over RDDs (RDD-RL).
    Rl,
    /// K-Means clustering (MLlib; appears in the Panthera comparison,
    /// Figure 12c).
    Km,
}

impl Workload {
    /// All ten workloads, in the paper's order.
    pub const ALL: [Workload; 10] = [
        Workload::Pr,
        Workload::Cc,
        Workload::Sssp,
        Workload::Svd,
        Workload::Tr,
        Workload::Lr,
        Workload::Lgr,
        Workload::Svm,
        Workload::Bc,
        Workload::Rl,
    ];

    /// The paper's abbreviation.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Pr => "PR",
            Workload::Cc => "CC",
            Workload::Sssp => "SSSP",
            Workload::Svd => "SVD",
            Workload::Tr => "TR",
            Workload::Lr => "LR",
            Workload::Lgr => "LgR",
            Workload::Svm => "SVM",
            Workload::Bc => "BC",
            Workload::Rl => "RL",
            Workload::Km => "KM",
        }
    }
}

/// Dataset sizing knobs (the scaled-down stand-ins for Table 3's datasets).
#[derive(Debug, Clone, Copy)]
pub struct DatasetScale {
    /// Graph vertices.
    pub vertices: usize,
    /// Average out-degree.
    pub avg_degree: usize,
    /// ML rows.
    pub rows: usize,
    /// ML feature dimensionality.
    pub dims: usize,
    /// Relational rows.
    pub rel_rows: usize,
    /// Relational distinct keys.
    pub rel_keys: usize,
    /// RNG seed.
    pub seed: u64,
}

impl DatasetScale {
    /// Tiny datasets for unit/integration tests.
    pub fn tiny() -> Self {
        DatasetScale {
            vertices: 300,
            avg_degree: 4,
            rows: 240,
            dims: 8,
            rel_rows: 2_000,
            rel_keys: 32,
            seed: 42,
        }
    }
}

/// Runs one workload under one configuration, turning OOM into the report's
/// OOM flag (the paper's missing bars).
pub fn run_workload(workload: Workload, config: SparkConfig, scale: DatasetScale) -> RunReport {
    run_workload_traced(workload, config, scale).0
}

/// Runs a workload once and returns both the report and the flight-recorder
/// trace (Figure 7's timeline comes from the `GcBegin`/`GcEnd` events).
/// OOM runs return the events recorded up to the failure.
pub fn run_workload_traced(
    workload: Workload,
    config: SparkConfig,
    scale: DatasetScale,
) -> (RunReport, Vec<teraheap_runtime::obs::Event>) {
    let mut ctx = SparkContext::new(config);
    let mode = mode_label(&config);
    let report = match run_workload_on(workload, &mut ctx, scale) {
        Err(e) => RunReport::oom(workload.name(), mode, &e),
        Ok(checksum) => {
            let (offloads, reloads) = (ctx.bm.serializations(), ctx.bm.deserializations());
            RunReport::completed(workload.name(), mode, &ctx.heap, offloads, reloads, checksum)
        }
    };
    let events = ctx.heap.clock().tracer().events();
    (report, events)
}

fn mode_label(config: &SparkConfig) -> String {
    let collector = config.heap.variant.policy().report_suffix;
    let mm = if config.heap.memory_mode { "+MemMode" } else { "" };
    format!("{}{}{}", config.mode.name(), collector, mm)
}

/// Runs `workload` on an existing context and returns its checksum — one
/// server-plane job round. The caller owns context setup (tenant or
/// private) and teardown; repeated rounds on one context accumulate cache
/// state like a long-lived Spark executor would.
///
/// # Errors
///
/// Returns [`OomError`] if the run exhausts the heap.
pub fn run_workload_on(
    workload: Workload,
    ctx: &mut SparkContext,
    scale: DatasetScale,
) -> Result<f64, OomError> {
    match workload {
        Workload::Pr => pagerank(ctx, scale),
        Workload::Cc => connected_components(ctx, scale),
        Workload::Sssp => shortest_paths(ctx, scale),
        Workload::Svd => svd_factors(ctx, scale),
        Workload::Tr => triangle_count(ctx, scale),
        Workload::Lr => ml_train(ctx, scale, LossKind::Squared),
        Workload::Lgr => ml_train(ctx, scale, LossKind::Logistic),
        Workload::Svm => ml_train(ctx, scale, LossKind::Hinge),
        Workload::Bc => naive_bayes(ctx, scale),
        Workload::Rl => relational(ctx, scale),
        Workload::Km => kmeans(ctx, scale),
    }
}

// ---------------------------------------------------------------------------
// The partition builder and cursor
// ---------------------------------------------------------------------------

/// The one way a stage reads a cached partition — the paper's "iterative
/// stage re-reads the compute cache" path. Fetches block `id` (a duplicate
/// handle for an on-heap or H2-resident block, a deserialized copy for an
/// off-heap one), reads and pins its first `N` data arrays, and hands them
/// to `scan`, which reads them where they lie through the pinned accessors.
/// Every handle taken here is released again whatever `scan` returns.
fn with_block<const N: usize, R>(
    ctx: &mut SparkContext,
    id: BlockId,
    scan: impl FnOnce(&mut Heap, &mut [Pin; N]) -> Result<R, OomError>,
) -> Result<R, OomError> {
    let heap = &mut ctx.heap;
    let part = ctx.bm.get(heap, id)?.expect("cached block vanished");
    let mut data: [Pin; N] = std::array::from_fn(|i| {
        let array = heap.read_ref(part, i).expect("partition data");
        heap.pin(array)
    });
    let result = scan(heap, &mut data);
    for array in &data {
        heap.release(array.handle());
    }
    heap.release(part);
    result
}

/// A partition data array to allocate: [`Heap::alloc_ref_array`] or
/// [`Heap::alloc_prim_array`], and its length.
type Array = (fn(&mut Heap, usize) -> Result<Handle, OomError>, usize);

/// A primitive data array of `len` words.
fn prims(len: usize) -> Array {
    (Heap::alloc_prim_array, len)
}

/// The one way an RDD partition is built and cached: allocates the
/// partition object, then its `N` data arrays in index order, pins them and
/// hands them to `fill`; then links and releases each array in index order,
/// stamps the partition index and puts the block under `id`. When a step
/// runs out of memory, whatever is still held is released again.
fn build_block<const N: usize>(
    ctx: &mut SparkContext,
    id: BlockId,
    arrays: [Array; N],
    fill: impl FnOnce(&mut SparkContext, &mut [Pin; N]) -> Result<(), OomError>,
) -> Result<(), OomError> {
    with_held(ctx, |ctx, held| {
        let part = ctx.heap.alloc(ctx.partition_class)?;
        held.push(part);
        for (alloc, len) in arrays {
            held.push(alloc(&mut ctx.heap, len)?);
        }
        fill(ctx, &mut std::array::from_fn(|i| ctx.heap.pin(held[i + 1])))?;
        for (i, array) in held.drain(1..).enumerate() {
            ctx.heap.write_ref(part, i, array);
            ctx.heap.release(array);
        }
        ctx.heap.write_prim(part, 0, id.partition as u64);
        // The put owns the partition from here, failed or not.
        held.clear();
        ctx.bm.put(&mut ctx.heap, id, part)
    })
}

/// Runs `stage` with a holder for the handles it keeps across fallible
/// calls — the per-iteration intermediate arrays, a query's materialized
/// projection — and releases whatever the holder still has on every exit.
fn with_held<R>(
    ctx: &mut SparkContext,
    stage: impl FnOnce(&mut SparkContext, &mut Vec<Handle>) -> Result<R, OomError>,
) -> Result<R, OomError> {
    let mut held = Vec::new();
    let result = stage(ctx, &mut held);
    release_all(ctx, &mut held);
    result
}

fn release_all(ctx: &mut SparkContext, held: &mut Vec<Handle>) {
    for h in held.drain(..) {
        ctx.heap.release(h);
    }
}

// ---------------------------------------------------------------------------
// Graph workloads
// ---------------------------------------------------------------------------

/// Builds and persists the adjacency RDD: one partition per `partitions`,
/// each a ref array of Vertex objects holding a primitive edge-target array.
///
/// # Errors
///
/// Returns [`OomError`] if the graph does not fit.
pub fn build_graph(ctx: &mut SparkContext, g: &Adjacency) -> Result<Vec<BlockId>, OomError> {
    let parts = ctx.config.partitions;
    let rdd = ctx.new_rdd();
    let mut blocks = Vec::new();
    for p in 0..parts {
        let ids = (p..g.vertices()).step_by(parts);
        let id = BlockId { rdd, partition: p as u32 };
        build_block(ctx, id, [(Heap::alloc_ref_array, ids.len())], |ctx, [vertices]| {
            for (i, vid) in ids.enumerate() {
                let targets = g.of(vid);
                let edges = ctx.heap.alloc_prim_array(targets.len().max(1))?;
                ctx.heap.fill_prims_at(&mut ctx.heap.pin(edges), 0, targets.len(), |slots| {
                    for (slot, &t) in slots.iter_mut().zip(targets) {
                        *slot = t as u64;
                    }
                });
                let v =
                    ctx.heap.alloc(ctx.vertex_class).inspect_err(|_| ctx.heap.release(edges))?;
                let mut vertex = ctx.heap.pin(v);
                ctx.heap.write_prim_at(&mut vertex, 0, vid as u64);
                ctx.heap.write_prim_at(&mut vertex, 1, targets.len() as u64);
                ctx.heap.write_ref(v, 0, edges);
                ctx.heap.release(edges);
                ctx.heap.write_ref(vertices.handle(), i, v);
                ctx.heap.release(v);
            }
            Ok(())
        })?;
        blocks.push(id);
    }
    // The cached RDD is established; TeraHeap moves it at the next major GC.
    Ok(blocks)
}

/// Visits every vertex of the cached adjacency RDD [`build_graph`] made,
/// handing the callback the pinned vertex (primitives: id, out-degree) and
/// its pinned edge-target array.
///
/// # Errors
///
/// Returns [`OomError`] if deserializing an off-heap block exhausts the heap.
pub fn for_each_vertex(
    ctx: &mut SparkContext,
    blocks: &[BlockId],
    mut f: impl FnMut(&mut Heap, &mut Pin, &mut Pin),
) -> Result<(), OomError> {
    for &b in blocks {
        with_block(ctx, b, |heap, [vertices]| {
            let n = heap.array_len_at(vertices);
            for i in 0..n {
                let v = heap.read_ref_at(vertices, i).expect("vertex");
                let mut vertex = heap.pin(v);
                let e = heap.read_ref_at(&mut vertex, 0).expect("edge array");
                let mut edges = heap.pin(e);
                f(heap, &mut vertex, &mut edges);
                heap.release(e);
                heap.release(v);
            }
            Ok(())
        })?;
    }
    Ok(())
}

/// Replaces the arrays in `held` with this iteration's intermediate arrays
/// — the fresh RDD each Spark iteration produces. The previous iteration's
/// are dropped first (Spark's lineage keeps at most the current one live):
/// GC churn, as in the paper.
fn renew_iteration_arrays(
    ctx: &mut SparkContext,
    held: &mut Vec<Handle>,
    per_part: usize,
) -> Result<(), OomError> {
    release_all(ctx, held);
    for _ in 0..ctx.config.partitions {
        held.push(ctx.heap.alloc_prim_array(per_part.max(1))?);
    }
    Ok(())
}

fn pagerank(ctx: &mut SparkContext, scale: DatasetScale) -> Result<f64, OomError> {
    let g = shared_graph(scale.vertices, scale.avg_degree, scale.seed);
    let blocks = build_graph(ctx, &g)?;
    let n = g.vertices();
    let mut ranks = vec![1.0f64; n];
    let mut contrib = vec![0.0f64; n];
    with_held(ctx, |ctx, arrays| {
        for _ in 0..ctx.config.iterations {
            let _stage = ctx.heap.span(SpanKind::Stage);
            contrib.fill(0.0);
            for_each_vertex(ctx, &blocks, |heap, v, edges| {
                let id = heap.read_prim_at(v, 0) as usize;
                let deg = heap.array_len_at(edges);
                let real_deg = heap.read_prim_at(v, 1) as usize;
                let share = if real_deg > 0 { 0.85 * ranks[id] / real_deg as f64 } else { 0.0 };
                for &t in heap.view_prims_at(edges, 0, deg.min(real_deg)) {
                    contrib[t as usize] += share;
                }
                heap.charge_ops(real_deg as u64 + 1);
            })?;
            for (i, c) in contrib.iter().enumerate() {
                ranks[i] = 0.15 + c;
            }
            let parts = ctx.config.partitions;
            renew_iteration_arrays(ctx, arrays, n / parts + 1)?;
            for (p, &a) in arrays.iter().enumerate() {
                let mine = (p..n).step_by(parts);
                ctx.heap.fill_prims_at(&mut ctx.heap.pin(a), 0, mine.len(), |slots| {
                    for (slot, i) in slots.iter_mut().zip(mine) {
                        *slot = ranks[i].to_bits();
                    }
                });
            }
            ctx.charge_shuffle(g.edge_count() as u64)?;
        }
        Ok(())
    })?;
    Ok(ranks.iter().sum())
}

fn connected_components(ctx: &mut SparkContext, scale: DatasetScale) -> Result<f64, OomError> {
    let g = shared_graph(scale.vertices, scale.avg_degree, scale.seed);
    let blocks = build_graph(ctx, &g)?;
    let n = g.vertices();
    // Vertex ids are `u32` in the dataset; labels are vertex ids.
    assert!(n <= u32::MAX as usize, "vertex ids must fit u32");
    let mut labels: Vec<u32> = (0..n as u32).collect();
    let mut next = labels.clone();
    with_held(ctx, |ctx, arrays| {
        for _ in 0..ctx.config.iterations * 2 {
            let _stage = ctx.heap.span(SpanKind::Stage);
            next.copy_from_slice(&labels);
            let mut changed = false;
            for_each_vertex(ctx, &blocks, |heap, v, edges| {
                let id = heap.read_prim_at(v, 0) as usize;
                let deg = heap.read_prim_at(v, 1) as usize;
                let len = heap.array_len_at(edges);
                for &e in heap.view_prims_at(edges, 0, deg.min(len)) {
                    let t = e as usize;
                    // Propagate minimum label both ways (undirected CC).
                    if labels[id] < next[t] {
                        next[t] = labels[id];
                        changed = true;
                    }
                    if labels[t] < next[id] {
                        next[id] = labels[t];
                        changed = true;
                    }
                }
                heap.charge_ops(deg as u64 + 1);
            })?;
            std::mem::swap(&mut labels, &mut next);
            renew_iteration_arrays(ctx, arrays, n / ctx.config.partitions + 1)?;
            ctx.charge_shuffle(g.edge_count() as u64 / 2)?;
            if !changed {
                break;
            }
        }
        Ok(())
    })?;
    Ok(labels.iter().map(|&l| l as f64).sum())
}

fn shortest_paths(ctx: &mut SparkContext, scale: DatasetScale) -> Result<f64, OomError> {
    let g = shared_graph(scale.vertices, scale.avg_degree, scale.seed);
    let blocks = build_graph(ctx, &g)?;
    let n = g.vertices();
    let inf = n as u64 + 1;
    let mut dist = vec![inf; n];
    dist[0] = 0;
    with_held(ctx, |ctx, arrays| {
        for _ in 0..ctx.config.iterations * 2 {
            let _stage = ctx.heap.span(SpanKind::Stage);
            let mut changed = false;
            for_each_vertex(ctx, &blocks, |heap, v, edges| {
                let id = heap.read_prim_at(v, 0) as usize;
                let deg = heap.read_prim_at(v, 1) as usize;
                if dist[id] < inf {
                    let len = heap.array_len_at(edges);
                    for &e in heap.view_prims_at(edges, 0, deg.min(len)) {
                        let t = e as usize;
                        if dist[id] + 1 < dist[t] {
                            dist[t] = dist[id] + 1;
                            changed = true;
                        }
                    }
                }
                heap.charge_ops(deg as u64 + 1);
            })?;
            renew_iteration_arrays(ctx, arrays, n / ctx.config.partitions + 1)?;
            ctx.charge_shuffle((n / 4) as u64)?;
            if !changed {
                break;
            }
        }
        Ok(())
    })?;
    Ok(dist.iter().map(|&d| d.min(inf) as f64).sum())
}

fn svd_factors(ctx: &mut SparkContext, scale: DatasetScale) -> Result<f64, OomError> {
    const K: usize = 2;
    let g = shared_graph(scale.vertices, scale.avg_degree, scale.seed);
    let blocks = build_graph(ctx, &g)?;
    let n = g.vertices();
    // Deterministic pseudo-random init from vertex ids.
    let mut user: Vec<f64> =
        (0..n * K).map(|i| ((i * 2654435761) % 1000) as f64 / 1000.0).collect();
    let mut item: Vec<f64> = (0..n * K).map(|i| ((i * 40503) % 1000) as f64 / 1000.0).collect();
    let lr = 0.01;
    with_held(ctx, |ctx, arrays| {
        for _ in 0..ctx.config.iterations {
            let _stage = ctx.heap.span(SpanKind::Stage);
            for_each_vertex(ctx, &blocks, |heap, v, edges| {
                let s = heap.read_prim_at(v, 0) as usize;
                let deg = heap.read_prim_at(v, 1) as usize;
                let len = heap.array_len_at(edges);
                for &e in heap.view_prims_at(edges, 0, deg.min(len)) {
                    let t = e as usize;
                    let mut dot = 0.0;
                    for k in 0..K {
                        dot += user[s * K + k] * item[t * K + k];
                    }
                    let err = 1.0 - dot;
                    for k in 0..K {
                        let u = user[s * K + k];
                        user[s * K + k] += lr * err * item[t * K + k];
                        item[t * K + k] += lr * err * u;
                    }
                }
                heap.charge_ops((deg * K * 4) as u64 + 1);
            })?;
            renew_iteration_arrays(ctx, arrays, n * K / ctx.config.partitions + 1)?;
            ctx.charge_shuffle((n * K) as u64)?;
        }
        Ok(())
    })?;
    Ok(user.iter().chain(item.iter()).sum())
}

fn triangle_count(ctx: &mut SparkContext, scale: DatasetScale) -> Result<f64, OomError> {
    const NEIGHBOR_CAP: usize = 64;
    let g = shared_graph(scale.vertices, scale.avg_degree, scale.seed);
    let blocks = build_graph(ctx, &g)?;
    // Pass 1: collect (capped) adjacency sets from the cached RDD.
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); g.vertices()];
    for_each_vertex(ctx, &blocks, |heap, v, edges| {
        let id = heap.read_prim_at(v, 0) as usize;
        let deg = (heap.read_prim_at(v, 1) as usize).min(heap.array_len_at(edges));
        let seen = heap.view_prims_at(edges, 0, deg.min(NEIGHBOR_CAP));
        adj[id].extend(seen.iter().map(|&t| t as u32));
        adj[id].sort_unstable();
        adj[id].dedup();
        heap.charge_ops(deg as u64 + 1);
    })?;
    // Pass 2: re-read edges, counting closed wedges via sorted intersection.
    let mut triangles = 0u64;
    for_each_vertex(ctx, &blocks, |heap, v, edges| {
        let id = heap.read_prim_at(v, 0) as usize;
        let deg = (heap.read_prim_at(v, 1) as usize).min(heap.array_len_at(edges));
        // Every edge charges its own intersection, so the (capped) targets
        // are copied out from under the heap borrow first.
        let mut targets = [0u64; NEIGHBOR_CAP];
        let targets = &mut targets[..deg.min(NEIGHBOR_CAP)];
        targets.copy_from_slice(heap.view_prims_at(edges, 0, targets.len()));
        for &e in targets.iter() {
            // |adj[id] ∩ adj[t]| closed wedges through this edge.
            let (mut i, mut j) = (0, 0);
            let (a, b) = (&adj[id], &adj[e as usize]);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        triangles += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
            heap.charge_ops((a.len() + b.len()) as u64);
        }
    })?;
    ctx.charge_shuffle(g.edge_count() as u64)?;
    Ok(triangles as f64)
}

// ---------------------------------------------------------------------------
// ML workloads
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum LossKind {
    Squared,
    Logistic,
    Hinge,
}

/// Builds and persists the feature RDD: per partition, one big primitive
/// feature matrix plus a label array — the humongous-array shape that makes
/// G1 fragment on SVM/BC/RL in Figure 8.
fn build_ml(ctx: &mut SparkContext, data: &VectorDataset) -> Result<Vec<BlockId>, OomError> {
    let (rows, dims) = (data.rows, data.dims);
    let parts = ctx.config.partitions;
    let rdd = ctx.new_rdd();
    let mut blocks = Vec::new();
    for p in 0..parts {
        let row_ids = (p..rows).step_by(parts);
        let id = BlockId { rdd, partition: p as u32 };
        let lens = [row_ids.len() * dims, row_ids.len().max(1)];
        build_block(ctx, id, lens.map(prims), |ctx, [features, labels]| {
            for (i, r) in row_ids.enumerate() {
                ctx.heap.fill_prims_at(features, i * dims, dims, |slots| {
                    for (slot, x) in slots.iter_mut().zip(data.row(r)) {
                        *slot = x.to_bits();
                    }
                });
                ctx.heap.write_prim_at(labels, i, data.labels[r].to_bits());
            }
            Ok(())
        })?;
        blocks.push(id);
    }
    Ok(blocks)
}

fn ml_train(ctx: &mut SparkContext, scale: DatasetScale, loss: LossKind) -> Result<f64, OomError> {
    let dims = scale.dims;
    let data = shared_vectors(scale.rows, dims, scale.seed);
    let blocks = build_ml(ctx, &data)?;
    let mut w = vec![0.0f64; dims];
    let step = 0.05;
    for _ in 0..ctx.config.iterations {
        let _stage = ctx.heap.span(SpanKind::Stage);
        let mut grad = vec![0.0f64; dims];
        let mut seen_rows = 0u64;
        for &b in &blocks {
            with_block(ctx, b, |heap, [features, labels]| {
                let rows_p = heap.array_len_at(labels);
                // Streaming scan over the cached matrix: for TeraHeap this is
                // the sequential H2 access pattern that saturates device read
                // bandwidth in LR/LgR/SVM (§7.1).
                for r in 0..rows_p {
                    let y = f64::from_bits(heap.read_prim_at(labels, r));
                    let row = heap.view_prims_at(features, r * dims, dims);
                    let mut dot = 0.0;
                    for d in 0..dims {
                        dot += w[d] * f64::from_bits(row[d]);
                    }
                    let coeff = match loss {
                        LossKind::Squared => dot - y,
                        LossKind::Logistic => 1.0 / (1.0 + (-dot).exp()) - (y + 1.0) / 2.0,
                        LossKind::Hinge => {
                            if y * dot < 1.0 {
                                -y
                            } else {
                                0.0
                            }
                        }
                    };
                    if coeff != 0.0 {
                        // The misclassified row is re-read, as the unbatched
                        // gradient loop did (charge and touch order preserved).
                        let row = heap.view_prims_at(features, r * dims, dims);
                        for d in 0..dims {
                            grad[d] += coeff * f64::from_bits(row[d]);
                        }
                    }
                    seen_rows += 1;
                }
                heap.charge_ops(rows_p as u64 * dims as u64 / 4);
                // Per-partition temporary gradient buffer (Spark treeAggregate).
                let tmp = heap.alloc_prim_array(dims.max(1))?;
                heap.release(tmp);
                Ok(())
            })?;
        }
        for d in 0..dims {
            w[d] -= step * grad[d] / seen_rows.max(1) as f64;
        }
        ctx.charge_shuffle((dims * ctx.config.partitions) as u64)?;
    }
    Ok(w.iter().map(|x| x.abs()).sum())
}

fn kmeans(ctx: &mut SparkContext, scale: DatasetScale) -> Result<f64, OomError> {
    const K: usize = 4;
    let dims = scale.dims;
    let data = shared_vectors(scale.rows, dims, scale.seed);
    let blocks = build_ml(ctx, &data)?;
    // Deterministic centroid init from the first K rows.
    let mut centroids: Vec<f64> = (0..K).flat_map(|c| data.row(c).to_vec()).collect();
    for _ in 0..ctx.config.iterations {
        let _stage = ctx.heap.span(SpanKind::Stage);
        let mut sums = vec![0.0f64; K * dims];
        let mut counts = [0u64; K];
        for &b in &blocks {
            with_block(ctx, b, |heap, [features, labels]| {
                let rows_p = heap.array_len_at(labels);
                for r in 0..rows_p {
                    let mut best = 0usize;
                    let mut best_d = f64::INFINITY;
                    // The unbatched loop re-read the row for every centroid and
                    // again for the sums; keep that charge/touch sequence.
                    for c in 0..K {
                        let row = heap.view_prims_at(features, r * dims, dims);
                        let mut d2 = 0.0;
                        for d in 0..dims {
                            let diff = f64::from_bits(row[d]) - centroids[c * dims + d];
                            d2 += diff * diff;
                        }
                        if d2 < best_d {
                            best_d = d2;
                            best = c;
                        }
                    }
                    counts[best] += 1;
                    let row = heap.view_prims_at(features, r * dims, dims);
                    for d in 0..dims {
                        sums[best * dims + d] += f64::from_bits(row[d]);
                    }
                }
                heap.charge_ops(rows_p as u64 * (K * dims) as u64 / 4);
                let tmp = heap.alloc_prim_array((K * dims).max(1))?;
                heap.release(tmp);
                Ok(())
            })?;
        }
        for c in 0..K {
            if counts[c] > 0 {
                for d in 0..dims {
                    centroids[c * dims + d] = sums[c * dims + d] / counts[c] as f64;
                }
            }
        }
        ctx.charge_shuffle((K * dims * ctx.config.partitions) as u64)?;
    }
    Ok(centroids.iter().map(|x| x.abs()).sum())
}

fn naive_bayes(ctx: &mut SparkContext, scale: DatasetScale) -> Result<f64, OomError> {
    let dims = scale.dims;
    let data = shared_vectors(scale.rows, dims, scale.seed);
    let blocks = build_ml(ctx, &data)?;
    // Two passes: class priors, then per-dimension positive-rate counts.
    let mut pos_rows = 0u64;
    let mut total = 0u64;
    let mut counts = vec![0u64; dims * 2];
    for pass in 0..2 {
        for &b in &blocks {
            with_block(ctx, b, |heap, [features, labels]| {
                let rows_p = heap.array_len_at(labels);
                for r in 0..rows_p {
                    let y = f64::from_bits(heap.read_prim_at(labels, r));
                    if pass == 0 {
                        total += 1;
                        if y > 0.0 {
                            pos_rows += 1;
                        }
                    } else {
                        let class = usize::from(y > 0.0);
                        let row = heap.view_prims_at(features, r * dims, dims);
                        for d in 0..dims {
                            if f64::from_bits(row[d]) > 0.0 {
                                counts[class * dims + d] += 1;
                            }
                        }
                    }
                }
                heap.charge_ops(rows_p as u64 * if pass == 0 { 1 } else { dims as u64 });
                Ok(())
            })?;
        }
        ctx.charge_shuffle((dims * 2) as u64)?;
    }
    Ok(pos_rows as f64 / total.max(1) as f64 + counts.iter().map(|&c| c as f64).sum::<f64>())
}

// ---------------------------------------------------------------------------
// Relational workload
// ---------------------------------------------------------------------------

fn relational(ctx: &mut SparkContext, scale: DatasetScale) -> Result<f64, OomError> {
    let data = shared_relational(scale.rel_rows, scale.rel_keys, scale.seed);
    let parts = ctx.config.partitions;
    let rdd = ctx.new_rdd();
    let mut blocks = Vec::new();
    let per_part = data.rows.len().div_ceil(parts);
    for p in 0..parts {
        let rows = &data.rows[p * per_part..((p + 1) * per_part).min(data.rows.len())];
        let id = BlockId { rdd, partition: p as u32 };
        build_block(ctx, id, [prims(rows.len().max(1)); 2], |ctx, [keys, vals]| {
            for (i, &(k, v)) in rows.iter().enumerate() {
                ctx.heap.write_prim_at(keys, i, k);
                ctx.heap.write_prim_at(vals, i, v);
            }
            Ok(())
        })?;
        blocks.push(id);
    }
    // Queries: filter + group-by-sum with a shuffle per query. The filtered
    // intermediate materializes on the heap (a projected DataFrame) and is
    // held until the query completes — the working set that makes RDD-RL
    // memory-hungry in the paper.
    let mut result = 0.0f64;
    let mut sums = vec![0u64; data.distinct_keys];
    let mut pairs: Vec<(u64, u64)> = Vec::new();
    for q in 0..ctx.config.iterations {
        let _stage = ctx.heap.span(SpanKind::Stage);
        let threshold = 720_000u64;
        sums.fill(0);
        pairs.clear();
        for &b in &blocks {
            with_block(ctx, b, |heap, [keys, vals]| {
                let n = heap.array_len_at(keys);
                for i in 0..n {
                    let v = heap.read_prim_at(vals, i);
                    if v > threshold {
                        let k = heap.read_prim_at(keys, i);
                        sums[k as usize] += v + q as u64;
                        pairs.push((k, v));
                    }
                }
                heap.charge_ops(n as u64);
                Ok(())
            })?;
        }
        with_held(ctx, |ctx, projection| {
            // Materialize the filtered projection on the heap.
            let sel_keys = ctx.heap.alloc_prim_array(pairs.len().max(1))?;
            projection.push(sel_keys);
            let sel_vals = ctx.heap.alloc_prim_array(pairs.len().max(1))?;
            projection.push(sel_vals);
            let (mut key_slots, mut val_slots) = (ctx.heap.pin(sel_keys), ctx.heap.pin(sel_vals));
            for (i, &(k, v)) in pairs.iter().enumerate() {
                ctx.heap.write_prim_at(&mut key_slots, i, k);
                ctx.heap.write_prim_at(&mut val_slots, i, v);
            }
            ctx.charge_shuffle(pairs.len() as u64)?;
            let out = ctx.heap.alloc_prim_array(data.distinct_keys)?;
            let mut out_slots = ctx.heap.pin(out);
            for (k, &s) in sums.iter().enumerate() {
                ctx.heap.write_prim_at(&mut out_slots, k, s);
            }
            ctx.heap.release(out);
            Ok(())
        })?;
        result += sums.iter().map(|&s| s as f64).sum::<f64>();
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExecMode;
    use teraheap_core::H2Config;
    use teraheap_runtime::HeapConfig;
    use teraheap_storage::DeviceSpec;

    fn sd_config() -> SparkConfig {
        SparkConfig {
            heap: HeapConfig::with_words(32 << 10, 128 << 10),
            mode: ExecMode::SparkSd { device: DeviceSpec::nvme_ssd() },
            partitions: 4,
            iterations: 3,
        }
    }

    fn th_config() -> SparkConfig {
        SparkConfig {
            heap: HeapConfig::with_words(32 << 10, 128 << 10),
            mode: ExecMode::TeraHeap {
                h2: H2Config::builder()
                    .region_words(16 << 10)
                    .n_regions(64)
                    .card_seg_words(1 << 10)
                    .resident_budget_bytes(256 << 10)
                    .page_size(4096)
                    .promo_buffer_bytes(2 << 20)
                    .build()
                    .expect("valid H2 config"),
                device: DeviceSpec::nvme_ssd(),
            },
            partitions: 4,
            iterations: 3,
        }
    }

    #[test]
    fn every_workload_completes_under_both_modes_with_equal_answers() {
        for w in Workload::ALL {
            let sd = run_workload(w, sd_config(), DatasetScale::tiny());
            let th = run_workload(w, th_config(), DatasetScale::tiny());
            assert!(!sd.oom, "{} OOM under Spark-SD", w.name());
            assert!(!th.oom, "{} OOM under TeraHeap", w.name());
            assert!(
                (sd.checksum - th.checksum).abs() < 1e-6 * sd.checksum.abs().max(1.0),
                "{}: checksums differ: {} vs {}",
                w.name(),
                sd.checksum,
                th.checksum
            );
        }
    }

    #[test]
    fn teraheap_actually_moves_partitions() {
        // Size the heap close to the dataset (as the paper does) so major
        // GCs actually run and apply the h2_move hints.
        let mut cfg = th_config();
        cfg.heap = HeapConfig::with_words(2 << 10, 5 << 10);
        cfg.iterations = 10;
        let r = run_workload(Workload::Pr, cfg, DatasetScale::tiny());
        assert!(!r.oom, "run must complete");
        assert!(r.major_gcs > 0, "pressure must trigger major GCs");
        assert!(r.h2_objects > 0, "PR under TeraHeap must promote objects");
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(Workload::Pr.name(), "PR");
        assert_eq!(Workload::Lgr.name(), "LgR");
        assert_eq!(Workload::ALL.len(), 10);
    }

    fn adaptive_config() -> SparkConfig {
        let th = th_config();
        let ExecMode::TeraHeap { h2, device } = th.mode else { unreachable!() };
        SparkConfig { mode: ExecMode::Adaptive { h2, device }, ..th }
    }

    #[test]
    fn adaptive_pagerank_checksum_equals_spark_sd() {
        let r = run_workload(Workload::Pr, adaptive_config(), DatasetScale::tiny());
        let sd = run_workload(Workload::Pr, sd_config(), DatasetScale::tiny());
        assert!(!r.oom);
        assert!(
            (sd.checksum - r.checksum).abs() < 1e-6 * sd.checksum.abs().max(1.0),
            "PR checksum differs under Adaptive"
        );
    }
}
