//! Figure 13-style GC thread scaling: modeled GC pause time vs `gc_threads`
//! (1–16) vs H2 device (NVMe / NVM / DAX), over the work-unit scheduler
//! (DESIGN.md §11).
//!
//! Expected shape: pause time falls monotonically as work units spread
//! across more lanes, then flattens against the serial floor — per-phase
//! barrier syncs plus the device traffic (H2 card reads, promotion writes)
//! that no amount of GC CPU parallelism removes. The floor is deepest on
//! NVMe and shallowest on DAX, so DAX scales furthest: the paper's point
//! that faster H2 devices shift the bottleneck back to GC CPU.
//!
//! Self-gates: no run OOMs, and the NVMe mean major pause never grows from
//! 1 to 8 threads.

use crate::harness::{devices, job, pressure_pr, Job, Rendered};
use mini_spark::RunReport;

const THREADS: [usize; 5] = [1, 2, 4, 8, 16];

pub(super) fn arms() -> Vec<((&'static str, usize), Job<RunReport>)> {
    let run = |t, device| job(move || pressure_pr(t, 0, Some(device)).0);
    let sweep = |(name, device)| THREADS.map(|t| ((name, t), run(t, device)));
    devices().into_iter().flat_map(sweep).collect()
}

pub(super) fn render(out: &mut Rendered, runs: Vec<((&'static str, usize), RunReport)>) {
    let mut nvme_major_pause: Vec<(usize, u64)> = Vec::new();
    for ((device, t), r) in runs {
        gate!(out, !r.oom, "{device} t={t}: the sweep workload must not OOM");
        let (minors, majors, total_ns) = (r.minor_gcs, r.major_gcs, r.breakdown.total_ns());
        let (minor_ns, major_ns) = (r.breakdown.minor_gc_ns, r.breakdown.major_gc_ns);
        let minor_pause = minor_ns.checked_div(minors).unwrap_or(0);
        let major_pause = major_ns.checked_div(majors).unwrap_or(0);
        say!(
            out.text,
            "  {device:>4} gc_threads={t:<2} minor {:7.1}us x{minors:<3} major {:8.1}us \
             x{majors:<2} gc total {:9.1}us",
            minor_pause as f64 / 1e3,
            major_pause as f64 / 1e3,
            (minor_ns + major_ns) as f64 / 1e3,
        );
        out.csv.push(format!(
            "{device},{t},{minors},{minor_pause},{majors},{major_pause},{minor_ns},{major_ns},\
             {total_ns}"
        ));
        if device == "nvme" && t <= 8 {
            nvme_major_pause.push((t, major_pause));
        }
    }
    // The acceptance shape: monotone modeled pause reduction 1 → 8 threads.
    for pair in nvme_major_pause.windows(2) {
        let [(t0, pause0), (t1, pause1)] = [pair[0], pair[1]];
        gate!(
            out,
            pause1 <= pause0,
            "NVMe major pause must not grow with gc_threads: t={t0} {pause0}ns -> t={t1} {pause1}ns"
        );
    }
}
