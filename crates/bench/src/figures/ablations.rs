//! Ablations for the design choices DESIGN.md calls out, beyond the paper's
//! own sweeps:
//!
//! 1. **Directional dependency lists vs union-find region groups** (§3.3):
//!    the paper argues direction matters for reclamation; this quantifies
//!    how many regions each scheme can reclaim on the same reference
//!    structure.
//! 2. **Huge pages (HugeMap) vs 4 KB pages** for H2 (§6): fault counts and
//!    simulated time for a streaming ML scan.
//! 3. **Promotion buffer size** (§3.2): device write batching vs per-object
//!    writes during H2 moves.
//! 4. **Dynamic high threshold** (§7.2 future work): fixed 85% vs adaptive.

use crate::harness::{
    giraph_row, giraph_th, job, ms, run_giraph_row, spark_dataset, spark_row, spark_th, Job,
    Rendered,
};
use mini_giraph::GiraphWorkload;
use mini_spark::{run_workload, ExecMode, Workload};
use teraheap_core::{H2Config, Label, RegionGroups, RegionManager};
use teraheap_storage::{Breakdown, DeviceSpec};

/// Chain structure from §3.3: X -> Y -> Z per chain, H1 references only the
/// chain tails. The directional scheme reclaims heads and middles; the
/// group scheme keeps whole chains. Returns regions reclaimed by
/// `(directional, union-find)`.
fn reclaimed_regions(chains: usize) -> (usize, usize) {
    let mut mgr = RegionManager::new(256, chains * 3);
    let mut groups = RegionGroups::new(chains * 3);
    let mut h1_ref = vec![false; chains * 3];
    let mut tails = Vec::new();
    for c in 0..chains {
        let x = mgr.alloc(Label::new(3 * c as u64 + 1), 64).unwrap();
        let y = mgr.alloc(Label::new(3 * c as u64 + 2), 64).unwrap();
        let z = mgr.alloc(Label::new(3 * c as u64 + 3), 64).unwrap();
        let (rx, ry, rz) = (mgr.region_of(x), mgr.region_of(y), mgr.region_of(z));
        mgr.add_dependency(rx, ry);
        mgr.add_dependency(ry, rz);
        groups.merge(rx, ry);
        groups.merge(ry, rz);
        h1_ref[rz.0 as usize] = true;
        tails.push(z);
    }
    mgr.clear_live_bits();
    for &z in &tails {
        mgr.mark_live(z);
    }
    mgr.propagate_liveness();
    let group_reclaimed = groups.group_liveness(&h1_ref).iter().filter(|&&live| !live).count();
    (mgr.sweep_dead().len(), group_reclaimed)
}

/// `(CSV key, banner)` per ablation, in output order.
const SECTIONS: [(&str, &str); 4] = [
    ("deps", "1: directional dependency lists vs union-find groups"),
    ("hugepages", "2: H2 page size (4 KB vs 2 MB HugeMap) for ML scans"),
    ("promo", "3: promotion buffer size (device write batching)"),
    ("adaptive", "4: dynamic high threshold (§7.2 future work)"),
];

/// An arm's `(text cell, CSV value column(s))`; `None` when it died with OOM.
type Cell = Option<(String, String)>;

/// `(ablation, param, line label)` per arm.
type Key = (&'static str, String, String);

/// The TeraHeap Spark run of `w` at `dram_gb` with its H2 layout edited by
/// `edit`, reported by `cell` as (text, CSV value).
fn spark(
    w: Workload,
    dram_gb: usize,
    edit: impl Fn(&mut H2Config),
    cell: fn(&Breakdown) -> (String, u64),
) -> Job<Cell> {
    let row = spark_row(w);
    let mut cfg = spark_th(&row, dram_gb, DeviceSpec::nvme_ssd());
    if let ExecMode::TeraHeap { h2, .. } = &mut cfg.mode {
        edit(h2);
    }
    job(move || {
        let r = run_workload(w, cfg, spark_dataset(&row));
        (!r.oom).then(|| cell(&r.breakdown)).map(|(text, value)| (text, value.to_string()))
    })
}

pub(super) fn arms() -> Vec<(Key, Job<Cell>)> {
    let mut arms = Vec::new();
    for chains in [8usize, 32, 128] {
        let run = job(move || {
            let (lists, groups) = reclaimed_regions(chains);
            let cell =
                format!("directional reclaims {lists:4} regions, union-find reclaims {groups:4}");
            Some((cell, format!("{lists},{groups}")))
        });
        arms.push((("deps", chains.to_string(), format!("{chains:4} chains")), run));
    }
    let scan_cell = |b: &Breakdown| {
        let (total, other) = (ms(b.total_ns()), ms(b.other_ns));
        (format!("total {total:9.1} ms (other {other:9.1} ms)"), b.total_ns())
    };
    for (label, page) in [("4KB", 4096usize), ("2MB-HugeMap", 2 << 20)] {
        let run = spark(Workload::Lr, 70, |h2| h2.page_size = page, scan_cell);
        arms.push((("hugepages", label.to_string(), format!("LR with {label}")), run));
    }
    let gc_cell = |b: &Breakdown| (format!("major GC {:9.2} ms", ms(b.major_gc_ns)), b.major_gc_ns);
    for buf in [4096usize, 64 << 10, 2 << 20] {
        let run = spark(Workload::Pr, 80, |h2| h2.promo_buffer_bytes = buf, gc_cell);
        arms.push((("promo", buf.to_string(), format!("PR with {buf:>7} B buffers")), run));
    }
    let sssp = giraph_row(GiraphWorkload::Sssp);
    for (label, adaptive) in [("fixed 85%", false), ("adaptive", true)] {
        let mut cfg = giraph_th(&sssp, sssp.dram_gb[0]);
        cfg.adaptive_threshold = adaptive;
        let run = job(move || {
            let r = run_giraph_row(&sssp, cfg);
            let (total, gc) = (r.total_ms(), ms(r.breakdown.minor_gc_ns + r.breakdown.major_gc_ns));
            let cell = format!("total {total:9.2} ms (gc {gc:7.2} ms, {} majors)", r.major_gcs);
            (!r.oom).then(|| (cell, r.breakdown.total_ns().to_string()))
        });
        arms.push((("adaptive", label.to_string(), format!("SSSP with {label:>10}")), run));
    }
    arms
}

pub(super) fn render(out: &mut Rendered, runs: Vec<(Key, Cell)>) {
    for (i, (section, banner)) in SECTIONS.iter().enumerate() {
        say!(out.text, "{}=== Ablation {banner} ===\n", if i == 0 { "" } else { "\n" });
        for ((ablation, param, label), cell) in runs.iter().filter(|(key, _)| key.0 == *section) {
            match cell {
                None => say!(out.text, "  {label}: OOM"),
                Some((text, value)) => {
                    say!(out.text, "  {label}: {text}");
                    out.csv.push(format!("{ablation},{param},{value}"));
                }
            }
        }
    }
}
