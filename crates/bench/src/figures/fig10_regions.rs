//! Figure 10: CDF of live objects per H2 region and of region space
//! occupied by live objects, for 16 MB vs 256 MB regions, across the five
//! Giraph workloads. Also reports reclaimed-region fractions and unused
//! space.
//!
//! Expected shape (paper, §7.3): PR/CDLP/WCC reclaim ~90% of allocated
//! regions in bulk (most regions die whole); BFS and SSSP reclaim far fewer
//! (28% / 6%) because single live objects keep regions alive; unused space
//! stays between 1% and 3% thanks to append-only placement.

use crate::harness::{giraph_rows, giraph_th, giraph_vertices, job, GiraphRow, Job, Rendered};
use mini_giraph::workloads::run_giraph_with_context;
use mini_giraph::GiraphMode;
use teraheap_core::RegionStats;

/// Counts per bucket: 0%, (0,25], (25,50], (50,75], (75,100].
fn cdf_buckets(percentages: impl Iterator<Item = f64>) -> [usize; 5] {
    let mut buckets = [0usize; 5];
    for v in percentages {
        buckets[if v <= 0.0 { 0 } else { ((v / 25.0).ceil() as usize).min(4) }] += 1;
    }
    buckets
}

/// One run's region census as `(text cell, CSV columns)`, or the OOM message.
type Census = Result<(String, String), String>;

fn census(row: GiraphRow, region_words: usize) -> Census {
    let mut cfg = giraph_th(&row, row.dram_gb[1]);
    cfg.track_h2_liveness = true;
    if let GiraphMode::TeraHeap { h2, .. } = &mut cfg.mode {
        h2.n_regions = h2.capacity_words().div_ceil(region_words);
        h2.region_words = region_words;
    }
    let (mut ctx, _) = run_giraph_with_context(row.workload, cfg, giraph_vertices(&row), 8, 42)
        .map_err(|e| e.to_string())?;
    // Shutdown GC: reclaim regions whose groups died after the last in-run
    // collection, as the JVM would.
    let _ = ctx.heap.gc_major();
    let regions = ctx.heap.h2().expect("TeraHeap mode").regions();
    let mut all: Vec<RegionStats> = regions.reclaimed_stats().to_vec();
    all.extend(regions.active_stats());
    let allocated = all.len().max(1);
    let reclaimed = regions.reclaimed_total();
    let live_objects = cdf_buckets(all.iter().map(|s| s.live_object_pct()));
    let live_space = cdf_buckets(all.iter().map(|s| s.live_space_pct(region_words)));
    let unused = |s: &RegionStats| (region_words - s.used_words.min(region_words)) as f64;
    let unused_pct =
        100.0 * all.iter().map(unused).sum::<f64>() / (region_words * allocated) as f64;
    Ok((
        format!(
            "{allocated} regions allocated, {:.0}% reclaimed | live-objects CDF {live_objects:?} | \
             live-space CDF {live_space:?} | unused {unused_pct:.1}% | mean dep-list {:.1}",
            100.0 * reclaimed as f64 / allocated as f64,
            regions.mean_dep_list_len(),
        ),
        format!("{allocated},{reclaimed},{live_objects:?},{live_space:?},{unused_pct:.2}"),
    ))
}

type Key = (usize, &'static str);

/// `(region words, workload)` per run, over scaled stand-ins for the paper's
/// 16 MB vs 256 MB sweep. Our objects (partition-level arrays) are
/// proportionally larger than the paper's fine-grained object graphs, so the
/// region sizes scale with them.
pub(super) fn arms() -> Vec<(Key, Job<Census>)> {
    let mut arms = Vec::new();
    for region_words in [64usize << 10, 256 << 10] {
        for row in giraph_rows() {
            let key = (region_words, row.workload.name());
            arms.push((key, job(move || census(row, region_words))));
        }
    }
    arms
}

pub(super) fn render(out: &mut Rendered, runs: Vec<(Key, Census)>) {
    for group in runs.chunk_by(|a, b| a.0 .0 == b.0 .0) {
        let region_words = group[0].0 .0;
        let kib = region_words * 8 / 1024;
        say!(out.text, "--- region size = {kib} KiB (smaller vs larger region sweep) ---");
        for ((_, workload), census) in group {
            match census {
                Err(e) => say!(out.text, "  {workload:>5}: OOM ({e})"),
                Ok((text, csv)) => {
                    say!(out.text, "  {workload:>5}: {text}");
                    out.csv.push(format!("{region_words},{workload},{csv}"));
                }
            }
        }
        say!(out.text, "");
    }
}
