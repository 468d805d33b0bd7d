//! Deterministic dataset generators for the evaluation workloads.
//!
//! The paper synthesizes Spark datasets with the SparkBench generators and
//! uses LDBC `datagen-fb` graphs for Giraph (Table 3/4). Neither is
//! available here, so this crate generates the closest synthetic
//! equivalents, scaled ~1/1024 (GB→MB) with heap:dataset ratios preserved:
//!
//! * [`powerlaw_graph`] — a Facebook-like power-law graph (preferential
//!   skew in both degree and target choice), standing in for `datagen-fb`
//!   and the SparkBench GraphX inputs;
//! * [`vector_dataset`] — dense labelled feature vectors, standing in for
//!   the SparkBench MLlib generators and KDD12;
//! * [`relational_dataset`] — keyed rows for the SQL-style RDD relational
//!   workload.
//!
//! Everything is seeded and deterministic: generation draws from the
//! in-repo xoshiro256++ generator ([`teraheap_util::rng::Rng`]), so the
//! exact datasets — and therefore every number in `results/*.csv` — are
//! pinned by the seed alone, with no external crate in the loop.
//!
//! Being deterministic, a dataset need not be generated twice: the
//! framework loaders ask [`shared_graph`], [`shared_vectors`] and
//! [`shared_relational`], which remember the last dataset their thread
//! generated (a figure or benchmark runs the same dataset under several
//! configurations back to back).

use std::any::Any;
use std::cell::RefCell;
use std::sync::Arc;
use teraheap_util::rng::Rng;

/// A generated directed graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphDataset {
    /// Number of vertices (ids `0..vertices`).
    pub vertices: usize,
    /// Directed edges `(src, dst)`.
    pub edges: Vec<(u32, u32)>,
}

impl GraphDataset {
    /// Out-degree of every vertex.
    pub fn out_degrees(&self) -> Vec<usize> {
        let mut d = vec![0usize; self.vertices];
        for &(s, _) in &self.edges {
            d[s as usize] += 1;
        }
        d
    }

    /// Approximate in-memory size in bytes when loaded as objects
    /// (vertex + edge objects), used to size heaps like Tables 3–4.
    pub fn approx_bytes(&self) -> usize {
        self.vertices * 48 + self.edges.len() * 24
    }

    /// The out-adjacency lists in compressed sparse row form: a stable
    /// counting sort of `edges` by source, so every vertex's targets keep
    /// their order in `edges`.
    pub fn adjacency(&self) -> Adjacency {
        let mut offsets = vec![0usize; self.vertices + 1];
        for &(s, _) in &self.edges {
            offsets[s as usize + 1] += 1;
        }
        for v in 0..self.vertices {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; self.edges.len()];
        for &(s, t) in &self.edges {
            targets[cursor[s as usize]] = t;
            cursor[s as usize] += 1;
        }
        Adjacency { offsets, targets }
    }
}

/// Out-adjacency lists of a [`GraphDataset`], flattened: vertex `v`'s
/// targets are `targets[offsets[v]..offsets[v + 1]]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Adjacency {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl Adjacency {
    /// Number of vertices (ids `0..vertices`).
    pub fn vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// The targets of `v`'s out-edges, in edge-list order.
    pub fn of(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Every edge's target, grouped by source vertex.
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }
}

/// Generates a power-law graph with `vertices` vertices and roughly
/// `vertices * avg_degree` edges.
///
/// Degrees follow a heavy-tailed distribution and edge targets are biased
/// toward low vertex ids (preferential attachment flavour), giving the
/// hub-dominated structure of social graphs like `datagen-fb`.
pub fn powerlaw_graph(vertices: usize, avg_degree: usize, seed: u64) -> GraphDataset {
    assert!(vertices > 1, "graph needs at least two vertices");
    let mut rng = Rng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(vertices * avg_degree);
    for src in 0..vertices as u32 {
        // Pareto-ish degree: most vertices near the average, hubs far above.
        let u: f64 = rng.gen_range(0.0001..1.0);
        let degree = ((avg_degree as f64) * 0.5 / u.powf(0.5)).min((vertices - 1) as f64) as usize;
        let degree = degree.max(1);
        for _ in 0..degree {
            // Quadratic bias toward low ids: hubs receive most edges.
            let t: f64 = rng.gen_range(0.0..1.0);
            let dst = ((t * t) * vertices as f64) as u32 % vertices as u32;
            if dst != src {
                edges.push((src, dst));
            }
        }
    }
    GraphDataset { vertices, edges }
}

/// A dense labelled vector dataset for the ML workloads.
#[derive(Debug, Clone, PartialEq)]
pub struct VectorDataset {
    /// Number of rows.
    pub rows: usize,
    /// Feature dimensionality.
    pub dims: usize,
    /// Row-major features.
    pub features: Vec<f64>,
    /// One label per row (±1 for classification, continuous for
    /// regression).
    pub labels: Vec<f64>,
}

impl VectorDataset {
    /// The feature slice of row `r`.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.features[r * self.dims..(r + 1) * self.dims]
    }

    /// Approximate in-memory size in bytes when loaded.
    pub fn approx_bytes(&self) -> usize {
        self.rows * (self.dims + 1) * 8 + self.rows * 32
    }
}

/// Generates `rows` rows of `dims`-dimensional features around two class
/// centroids, with labels ±1 (linearly separable plus noise) — a stand-in
/// for the SparkBench LR/LgR/SVM/BC generators.
pub fn vector_dataset(rows: usize, dims: usize, seed: u64) -> VectorDataset {
    let mut rng = Rng::seed_from_u64(seed);
    let mut features = Vec::with_capacity(rows * dims);
    let mut labels = Vec::with_capacity(rows);
    for _ in 0..rows {
        let label = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        labels.push(label);
        for d in 0..dims {
            let centroid = label * if d % 2 == 0 { 1.0 } else { -0.5 };
            features.push(centroid + rng.gen_range(-1.0..1.0));
        }
    }
    VectorDataset { rows, dims, features, labels }
}

/// A keyed relational dataset for the SQL-style workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationalDataset {
    /// `(key, value)` rows; keys repeat (group-by cardinality ≪ rows).
    pub rows: Vec<(u64, u64)>,
    /// Number of distinct keys.
    pub distinct_keys: usize,
}

/// Generates `rows` keyed rows over `distinct_keys` keys with skewed key
/// frequencies.
pub fn relational_dataset(rows: usize, distinct_keys: usize, seed: u64) -> RelationalDataset {
    assert!(distinct_keys > 0);
    let mut rng = Rng::seed_from_u64(seed);
    let data = (0..rows)
        .map(|_| {
            let t: f64 = rng.gen_range(0.0..1.0);
            let key = ((t * t) * distinct_keys as f64) as u64 % distinct_keys as u64;
            (key, rng.gen_range(0..1_000_000u64))
        })
        .collect();
    RelationalDataset { rows: data, distinct_keys }
}

/// What names a dataset: its generator, the generator's two size
/// parameters and the seed.
type DatasetKey = (&'static str, [usize; 2], u64);

thread_local! {
    /// The last dataset this thread's loaders asked for.
    static LAST_DATASET: RefCell<Option<(DatasetKey, Arc<dyn Any + Send + Sync>)>> =
        const { RefCell::new(None) };
}

/// The dataset `key` names: the one this thread generated last if that is
/// it, otherwise freshly generated (and remembered in its place). At most
/// one dataset is retained per thread, and it is let go *before* the next is
/// generated, so the memo never keeps two alive; the thread-local is not
/// borrowed while `generate` runs.
fn shared<T: Any + Send + Sync>(key: DatasetKey, generate: impl FnOnce() -> T) -> Arc<T> {
    let hit = LAST_DATASET.with(|last| {
        let mut last = last.borrow_mut();
        match &*last {
            Some((k, dataset)) if *k == key => Some(Arc::clone(dataset)),
            _ => {
                *last = None;
                None
            }
        }
    });
    if let Some(dataset) = hit {
        return dataset.downcast().expect("the key names the generator, hence the type");
    }
    let dataset = Arc::new(generate());
    LAST_DATASET.with(|last| *last.borrow_mut() = Some((key, dataset.clone())));
    dataset
}

/// [`powerlaw_graph`]`(vertices, avg_degree, seed)` in the form its loaders
/// read — vertex count, edge count and CSR out-adjacency; the edge list is
/// dropped — generated at most once in a row per thread.
pub fn shared_graph(vertices: usize, avg_degree: usize, seed: u64) -> Arc<Adjacency> {
    shared(("powerlaw_graph", [vertices, avg_degree], seed), || {
        powerlaw_graph(vertices, avg_degree, seed).adjacency()
    })
}

/// [`vector_dataset`]`(rows, dims, seed)`, generated at most once in a row
/// per thread.
pub fn shared_vectors(rows: usize, dims: usize, seed: u64) -> Arc<VectorDataset> {
    shared(("vector_dataset", [rows, dims], seed), || vector_dataset(rows, dims, seed))
}

/// [`relational_dataset`]`(rows, distinct_keys, seed)`, generated at most
/// once in a row per thread.
pub fn shared_relational(rows: usize, distinct_keys: usize, seed: u64) -> Arc<RelationalDataset> {
    shared(("relational_dataset", [rows, distinct_keys], seed), || {
        relational_dataset(rows, distinct_keys, seed)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_datasets_are_generated_once_in_a_row_and_retained_one_at_a_time() {
        let g = shared_graph(400, 5, 3);
        assert!(Arc::ptr_eq(&g, &shared_graph(400, 5, 3)), "same key: the same dataset");
        let full = powerlaw_graph(400, 5, 3);
        assert_eq!(*g, full.adjacency());
        assert_eq!((g.vertices(), g.edge_count()), (full.vertices, full.edges.len()));
        assert_eq!(g.targets().len(), full.edges.len());
        // Any parameter or the seed names another dataset.
        assert!(!Arc::ptr_eq(&g, &shared_graph(400, 5, 4)));
        assert_eq!(*shared_graph(400, 6, 3), powerlaw_graph(400, 6, 3).adjacency());
        // Asking for the next dataset lets go of the last: the only
        // reference left is the caller's.
        let v = shared_vectors(50, 4, 9);
        assert_eq!(*v, vector_dataset(50, 4, 9));
        let _r = shared_relational(50, 4, 9);
        assert_eq!(Arc::strong_count(&v), 1, "the memo let the vectors go");
        assert_eq!(*shared_relational(50, 4, 9), relational_dataset(50, 4, 9));
        // The same parameters under another generator are another dataset.
        assert_eq!(*shared_vectors(50, 4, 9), *v);
        // The memo is per thread.
        let mine = shared_graph(400, 5, 3);
        let theirs = std::thread::spawn(|| shared_graph(400, 5, 3)).join().expect("no panic");
        assert!(!Arc::ptr_eq(&mine, &theirs) && mine == theirs);
    }

    #[test]
    fn graphs_are_deterministic() {
        let a = powerlaw_graph(500, 8, 7);
        let b = powerlaw_graph(500, 8, 7);
        assert_eq!(a, b);
        let c = powerlaw_graph(500, 8, 8);
        assert_ne!(a, c, "different seed, different graph");
    }

    #[test]
    fn graphs_have_roughly_requested_density() {
        let g = powerlaw_graph(1000, 10, 1);
        let avg = g.edges.len() as f64 / g.vertices as f64;
        assert!(avg > 4.0 && avg < 40.0, "avg degree {avg} out of range");
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let g = powerlaw_graph(2000, 10, 3);
        let mut d = g.out_degrees();
        d.sort_unstable_by(|a, b| b.cmp(a));
        let top1pct: usize = d[..20].iter().sum();
        let total: usize = d.iter().sum();
        assert!(
            top1pct * 100 / total > 4,
            "top 1% of vertices should hold >4% of edges (hubs), got {}%",
            top1pct * 100 / total
        );
        assert!(d[0] > 10 * d[d.len() / 2].max(1), "hub far above median");
    }

    #[test]
    fn adjacency_lists_keep_edge_order() {
        let mut g = powerlaw_graph(300, 5, 11);
        // Unsorted input: the counting sort must not rely on source order.
        g.edges.reverse();
        let adj = g.adjacency();
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); g.vertices];
        for &(s, t) in &g.edges {
            lists[s as usize].push(t);
        }
        for (v, list) in lists.iter().enumerate() {
            assert_eq!(adj.of(v), list.as_slice(), "vertex {v}");
        }
        assert_eq!(g.out_degrees()[7], adj.of(7).len());
    }

    #[test]
    fn edges_are_in_range_and_not_self_loops() {
        let g = powerlaw_graph(300, 5, 11);
        for &(s, t) in &g.edges {
            assert!((s as usize) < g.vertices);
            assert!((t as usize) < g.vertices);
            assert_ne!(s, t);
        }
    }

    #[test]
    fn vectors_are_deterministic_and_separable() {
        let a = vector_dataset(200, 10, 5);
        let b = vector_dataset(200, 10, 5);
        assert_eq!(a, b);
        // A trivial linear classifier on the generating direction must beat
        // chance comfortably (the ML workloads need learnable data).
        let mut correct = 0;
        for r in 0..a.rows {
            let row = a.row(r);
            let score: f64 = row
                .iter()
                .enumerate()
                .map(|(d, &x)| x * if d % 2 == 0 { 1.0 } else { -0.5 })
                .sum();
            if (score > 0.0) == (a.labels[r] > 0.0) {
                correct += 1;
            }
        }
        assert!(correct * 100 / a.rows > 80, "separability: {correct}/200");
    }

    #[test]
    fn relational_keys_are_skewed_and_bounded() {
        let d = relational_dataset(10_000, 100, 9);
        assert_eq!(d.rows.len(), 10_000);
        let mut counts = vec![0usize; 100];
        for &(k, _) in &d.rows {
            assert!((k as usize) < 100);
            counts[k as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max > 4 * (min + 1), "key skew expected: max {max}, min {min}");
    }

    #[test]
    fn approx_bytes_scale_with_size() {
        let small = powerlaw_graph(100, 4, 1).approx_bytes();
        let large = powerlaw_graph(1000, 4, 1).approx_bytes();
        assert!(large > 5 * small);
        let vs = vector_dataset(100, 8, 1).approx_bytes();
        let vl = vector_dataset(1000, 8, 1).approx_bytes();
        assert!(vl > 5 * vs);
    }
}
