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
//!
//! §7.2's future-work dynamic high threshold has no row: its controller
//! fires on no Giraph configuration the harness builds, so the row would
//! equal the fixed 85% one.

use crate::harness::{job, ms, spark_dataset, spark_row, spark_th, Job, Rendered};
use mini_spark::{run_workload, ExecMode, Workload};
use teraheap_core::{H2Config, Label, RegionId, RegionManager};
use teraheap_storage::{Breakdown, DeviceSpec};

/// Union-find over H2 regions, merging the two ends of every cross-region
/// reference whatever its direction: the liveness rule §3.3 rejects, kept
/// only to measure it against the product's dependency lists.
struct RegionGroups(Vec<u32>);

impl RegionGroups {
    fn new(n: usize) -> Self {
        RegionGroups((0..n as u32).collect())
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.0[x as usize] != x {
            // Path halving.
            self.0[x as usize] = self.0[self.0[x as usize] as usize];
            x = self.0[x as usize];
        }
        x
    }

    fn merge(&mut self, a: RegionId, b: RegionId) {
        let (ra, rb) = (self.find(a.0), self.find(b.0));
        self.0[rb as usize] = ra;
    }

    /// Per-region liveness under group semantics: a region is live iff any
    /// region of its group is referenced from H1.
    fn group_liveness(&mut self, h1_referenced: &[bool]) -> Vec<bool> {
        let n = self.0.len();
        let mut live = vec![false; n];
        for r in (0..n as u32).filter(|&r| h1_referenced[r as usize]) {
            let root = self.find(r);
            live[root as usize] = true;
        }
        (0..n as u32).map(|r| live[self.find(r) as usize]).collect()
    }
}

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
const SECTIONS: [(&str, &str); 3] = [
    ("deps", "1: directional dependency lists vs union-find groups"),
    ("hugepages", "2: H2 page size (4 KB vs 2 MB HugeMap) for ML scans"),
    ("promo", "3: promotion buffer size (device write batching)"),
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

#[cfg(test)]
mod tests {
    use super::*;
    use teraheap_core::Addr;
    use teraheap_util::proptest_mini::{check, range_u64, range_usize, vec_of, CaseResult, Config};
    use teraheap_util::{prop_assert, prop_assume};

    #[test]
    fn singletons_are_their_own_group() {
        let mut g = RegionGroups::new(3);
        assert_ne!(g.find(0), g.find(1));
        assert_eq!(g.find(2), 2);
        assert_eq!(g.group_liveness(&[false, true, false]), [false, true, false]);
    }

    #[test]
    fn merge_is_transitive_and_symmetric() {
        let mut g = RegionGroups::new(4);
        g.merge(RegionId(0), RegionId(1));
        g.merge(RegionId(2), RegionId(1));
        assert_eq!(g.group_liveness(&[false, false, true, false]), [true, true, true, false]);
        assert_eq!(g.group_liveness(&[false, false, false, true]), [false, false, false, true]);
    }

    #[test]
    fn dead_group_is_fully_reclaimable() {
        let mut g = RegionGroups::new(4);
        g.merge(RegionId(0), RegionId(1));
        g.merge(RegionId(2), RegionId(3));
        assert_eq!(g.group_liveness(&[true, false, false, false]), [true, true, false, false]);
    }

    #[test]
    fn chain_keeps_whole_group_alive() {
        // X -> Y -> Z with only Z referenced from H1: the group keeps all
        // three, where the dependency lists reclaim X and Y.
        let mut g = RegionGroups::new(3);
        g.merge(RegionId(0), RegionId(1));
        g.merge(RegionId(1), RegionId(2));
        assert_eq!(g.group_liveness(&[false, false, true]), [true, true, true]);
    }

    #[test]
    fn group_liveness_is_superset_of_direct_marks() {
        let mut g = RegionGroups::new(5);
        g.merge(RegionId(0), RegionId(4));
        let marks = [false, true, false, false, false];
        let live = g.group_liveness(&marks);
        for (i, &m) in marks.iter().enumerate() {
            assert!(!m || live[i], "directly marked region R{i} must be group-live");
        }
    }

    /// Union-find group liveness is a superset of directional liveness:
    /// anything the dependency-list scheme keeps, the group scheme keeps.
    #[test]
    fn groups_over_approximate_directional() {
        let script = (
            vec_of((range_u64(0..6), range_usize(1..64)), 1..40),
            vec_of((range_usize(0..40), range_usize(0..40)), 0..40),
            vec_of(range_usize(0..40), 0..10),
        );
        type Script = (Vec<(u64, usize)>, Vec<(usize, usize)>, Vec<usize>);
        check(
            "groups_over_approximate_directional",
            &script,
            &Config::with_cases(256),
            |(allocs, deps, h1_marks): Script| {
                let mut m = RegionManager::new(256, 64);
                let mut groups = RegionGroups::new(64);
                let objs: Vec<Addr> = allocs
                    .iter()
                    .filter_map(|&(label, words)| m.alloc(Label::new(label), words).ok())
                    .collect();
                prop_assume!(!objs.is_empty());
                for &(f, t) in deps.iter().filter(|&&(f, t)| f < objs.len() && t < objs.len()) {
                    let (rf, rt) = (m.region_of(objs[f]), m.region_of(objs[t]));
                    m.add_dependency(rf, rt);
                    groups.merge(rf, rt);
                }
                m.clear_live_bits();
                let mut h1_ref = vec![false; 64];
                for &i in h1_marks.iter().filter(|&&i| i < objs.len()) {
                    m.mark_live(objs[i]);
                    h1_ref[m.region_of(objs[i]).0 as usize] = true;
                }
                m.propagate_liveness();
                let group_live = groups.group_liveness(&h1_ref);
                for rid in 0..64u32 {
                    prop_assert!(
                        !m.is_live(RegionId(rid)) || group_live[rid as usize],
                        "directionally-live region R{rid} must be group-live"
                    );
                }
                CaseResult::Pass
            },
        );
    }
}
