//! Table 5: H2 DRAM metadata size per TB of H2 space, for region sizes
//! between 1 MB and 256 MB.
//!
//! Expected values (paper): 417 MB at 1 MB regions down to ~2 MB at 256 MB
//! regions — metadata is inversely proportional to region size.

use crate::harness::{job, Job, Rendered};
use teraheap_core::RegionManager;

/// Metadata bytes of a 1 TB H2, keyed by region size in MB.
pub(super) fn arms() -> Vec<(usize, Job<usize>)> {
    let metadata = |region_bytes: usize| {
        RegionManager::new(region_bytes / 8, (1 << 40) / region_bytes).metadata_bytes()
    };
    [1usize, 2, 4, 8, 16, 32, 64, 128, 256].map(|mb| (mb, job(move || metadata(mb << 20)))).into()
}

pub(super) fn render(out: &mut Rendered, rows: Vec<(usize, usize)>) {
    say!(out.text, "  {:>12} | {:>14}", "region (MB)", "metadata (MB)");
    say!(out.text, "  {:->12}-+-{:->14}", "", "");
    for (region_mb, meta) in rows {
        let meta_mb = meta as f64 / (1 << 20) as f64;
        say!(out.text, "  {region_mb:>12} | {meta_mb:>14.1}");
        out.csv.push(format!("{region_mb},{meta_mb:.2}"));
    }
}
