//! The metric tables: every name the benchmark prints, with its unit, its
//! clock and which way is better. `BENCHMARK.json` is rendered from these
//! tables (`--print-manifest`), and a test keeps the committed file equal to
//! that rendering.

use crate::json::Json;
use crate::workloads::Workload;

/// Seconds one contract run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// Which of the system's two clocks a number is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Simulated time from `SimClock`: the paper's result, exactly
    /// reproducible for a fixed seed.
    Sim,
    /// What the simulator costs to run (on-CPU seconds at reference machine
    /// speed, resident memory): noisy on a shared box.
    Host,
    /// A count or ratio that belongs to neither.
    None,
}

impl Clock {
    pub fn name(self) -> &'static str {
        match self {
            Clock::Sim => "sim",
            Clock::Host => "host",
            Clock::None => "-",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// An end-to-end metric, reported on every workload.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
    pub what: &'static str,
}

/// Bounds are sized from measured spreads (benchmark/BASELINE.md), not from
/// how much of a regression would matter. Simulated metrics repeat exactly
/// for a fixed seed, so two commits compare bit for bit and any change at
/// all is real; their bound only has to cover the spread *between* seeds
/// (up to 4.5% on `tenants_mixed`), which is what the acceptance check of
/// `BENCHMARK.json` measures. Host metrics are at the mercy of a shared
/// machine and take the largest bound allowed.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        clock: Clock::Host,
        better: Lower,
        bound: 0.25,
        what: "host seconds from process start to the first timed rep: arm table, configs, one full warm-up rep",
    },
    EndToEnd {
        name: "host_s",
        unit: "s",
        clock: Clock::Host,
        better: Lower,
        bound: 0.25,
        what: "host seconds of the median timed rep: on-CPU seconds of its calls, each at reference machine speed",
    },
    EndToEnd {
        name: "host_peak_rss_mb",
        unit: "MiB",
        clock: Clock::Host,
        better: Lower,
        bound: 0.10,
        what: "VmHWM after the last timed rep",
    },
    EndToEnd {
        name: "sim_s",
        unit: "s",
        clock: Clock::Sim,
        better: Lower,
        bound: 0.15,
        what: "simulated seconds: TeraHeap arms summed (batch), makespan (query, tenants)",
    },
    EndToEnd {
        name: "sim_ops_per_s",
        unit: "1/s",
        clock: Clock::Sim,
        better: Higher,
        bound: 0.15,
        what: "ops per simulated second over everything run, completing baseline arms included",
    },
    EndToEnd {
        name: "sim_lat_p50_us",
        unit: "us",
        clock: Clock::Sim,
        better: Lower,
        bound: 0.15,
        what: "median simulated latency of one op (arm, query or job round)",
    },
    EndToEnd {
        name: "sim_lat_p99_us",
        unit: "us",
        clock: Clock::Sim,
        better: Lower,
        bound: 0.15,
        what: "p99 simulated latency of one op; the slowest op where fewer than 100 ran",
    },
];

/// Where a per-layer number comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Public report or counter read after a rep: exact.
    Report,
    /// Needs the flight recorder: read from the traced rep.
    Traced,
    /// Host-time probe: median of `probes::SAMPLES` samples.
    Probe,
    /// Computed by the harness about its own run.
    Harness,
}

impl Source {
    pub fn tag(self) -> &'static str {
        match self {
            Source::Report => "R",
            Source::Traced => "T",
            Source::Probe => "P",
            Source::Harness => "B",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    pub source: Source,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    source: Source,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        clock,
        better,
        source,
    }
}

use Clock::{Host, Sim};
use Source::{Harness, Probe, Report, Traced};

/// Per-layer metrics; the layer is the crate name before the first dot.
pub const PER_LAYER: [PerLayer; 103] = [
    m("storage.read_bytes", "B", Clock::None, Lower, Report),
    m("storage.write_bytes", "B", Clock::None, Lower, Report),
    m("storage.read_ops", "count", Clock::None, Lower, Report),
    m("storage.write_ops", "count", Clock::None, Lower, Report),
    m("storage.page_faults", "count", Clock::None, Lower, Report),
    m("storage.seq_faults", "count", Clock::None, Higher, Report),
    m(
        "storage.seq_fault_ratio",
        "ratio",
        Clock::None,
        Higher,
        Report,
    ),
    m("storage.evictions", "count", Clock::None, Lower, Report),
    m("storage.io_retries", "count", Clock::None, Lower, Report),
    m("storage.sd_io_ns", "ns", Sim, Lower, Report),
    m("storage.device_vtime_ns", "ns", Sim, Lower, Report),
    m("storage.arbiter_ops", "count", Clock::None, Lower, Report),
    m("storage.arbiter_busy_ns", "ns", Sim, Lower, Report),
    m(
        "storage.arbiter_queued_ops",
        "count",
        Clock::None,
        Lower,
        Report,
    ),
    m("storage.arbiter_queued_ns", "ns", Sim, Lower, Report),
    m("storage.probe.fault_ns_per_page", "ns", Host, Lower, Probe),
    m("storage.probe.hit_ns_per_touch", "ns", Host, Lower, Probe),
    m(
        "storage.probe.writeback_ns_per_page",
        "ns",
        Host,
        Lower,
        Probe,
    ),
    m("storage.probe.arbiter_submit_ns", "ns", Host, Lower, Probe),
    m(
        "core.h2_objects_promoted",
        "count",
        Clock::None,
        Higher,
        Report,
    ),
    m(
        "core.h2_words_promoted",
        "count",
        Clock::None,
        Higher,
        Report,
    ),
    m(
        "core.regions_allocated",
        "count",
        Clock::None,
        Lower,
        Report,
    ),
    m(
        "core.regions_reclaimed",
        "count",
        Clock::None,
        Higher,
        Report,
    ),
    m(
        "core.region_reclaim_ratio",
        "ratio",
        Clock::None,
        Higher,
        Report,
    ),
    m(
        "core.h2_cards_scanned_minor",
        "count",
        Clock::None,
        Lower,
        Report,
    ),
    m("core.h2_minor_scan_ns", "ns", Sim, Lower, Report),
    m(
        "core.forward_refs_fenced",
        "count",
        Clock::None,
        Higher,
        Report,
    ),
    m(
        "core.backward_refs_seen",
        "count",
        Clock::None,
        Lower,
        Report,
    ),
    m(
        "core.pretenured_words",
        "count",
        Clock::None,
        Higher,
        Report,
    ),
    m("core.promo_flushes", "count", Clock::None, Lower, Traced),
    m(
        "core.probe.h2_card_scan_ns_per_card",
        "ns",
        Host,
        Lower,
        Probe,
    ),
    m("core.probe.region_alloc_ns", "ns", Host, Lower, Probe),
    m("core.probe.region_reclaim_ns", "ns", Host, Lower, Probe),
    m("core.probe.promote_ns_per_kb", "ns", Host, Lower, Probe),
    m("runtime.minor_gcs", "count", Clock::None, Lower, Report),
    m("runtime.major_gcs", "count", Clock::None, Lower, Report),
    m("runtime.minor_gc_ns", "ns", Sim, Lower, Report),
    m("runtime.major_gc_ns", "ns", Sim, Lower, Report),
    m("runtime.mark_ns", "ns", Sim, Lower, Report),
    m("runtime.precompact_ns", "ns", Sim, Lower, Report),
    m("runtime.adjust_ns", "ns", Sim, Lower, Report),
    m("runtime.compact_ns", "ns", Sim, Lower, Report),
    m("runtime.lane_stall_ns", "ns", Sim, Lower, Report),
    m("runtime.pause_p50_us", "us", Sim, Lower, Traced),
    m("runtime.pause_max_us", "us", Sim, Lower, Traced),
    m("runtime.probe.alloc_ns_per_obj", "ns", Host, Lower, Probe),
    m("runtime.probe.write_ref_ns", "ns", Host, Lower, Probe),
    m(
        "runtime.probe.read_prims_ns_per_word",
        "ns",
        Host,
        Lower,
        Probe,
    ),
    m(
        "runtime.probe.minor_gc_ns_per_live_word",
        "ns",
        Host,
        Lower,
        Probe,
    ),
    m(
        "runtime.probe.major_gc_ns_per_live_word",
        "ns",
        Host,
        Lower,
        Probe,
    ),
    m("kryo.serializations", "count", Clock::None, Lower, Report),
    m("kryo.deserializations", "count", Clock::None, Lower, Report),
    m("kryo.probe.serialize_ns_per_obj", "ns", Host, Lower, Probe),
    m(
        "kryo.probe.deserialize_ns_per_obj",
        "ns",
        Host,
        Lower,
        Probe,
    ),
    m("kryo.probe.bytes_per_obj", "B", Clock::None, Lower, Probe),
    m("spark.other_ns", "ns", Sim, Lower, Report),
    m("spark.base_sd_io_ns", "ns", Sim, Lower, Report),
    m("spark.base_oom_arms", "count", Clock::None, Lower, Report),
    m("spark.th_host_s", "s", Host, Lower, Traced),
    m("spark.base_host_s", "s", Host, Lower, Traced),
    m(
        "spark.probe.block_put_get_ns_per_word",
        "ns",
        Host,
        Lower,
        Probe,
    ),
    m("giraph.supersteps", "count", Clock::None, Higher, Report),
    m("giraph.offloads", "count", Clock::None, Lower, Report),
    m("giraph.reloads", "count", Clock::None, Lower, Report),
    m("giraph.th_host_s", "s", Host, Lower, Traced),
    m("giraph.base_host_s", "s", Host, Lower, Traced),
    m(
        "giraph.probe.superstep_ns_per_vertex",
        "ns",
        Host,
        Lower,
        Probe,
    ),
    m("query.ops", "count", Clock::None, Higher, Report),
    m("query.point_p99_us", "us", Sim, Lower, Report),
    m("query.scan_p99_us", "us", Sim, Lower, Report),
    m("query.agg_p99_us", "us", Sim, Lower, Report),
    m("query.h2_chunks", "count", Clock::None, Higher, Report),
    m("query.faults_per_op", "ratio", Clock::None, Lower, Report),
    m("query.probe.append_ns_per_row", "ns", Host, Lower, Probe),
    m("query.probe.point_lookup_ns", "ns", Host, Lower, Probe),
    m(
        "query.probe.range_scan_ns_per_row",
        "ns",
        Host,
        Lower,
        Probe,
    ),
    m("server.rounds", "count", Clock::None, Higher, Report),
    m("server.deferrals", "count", Clock::None, Lower, Report),
    m("server.oom_rounds", "count", Clock::None, Lower, Report),
    m("server.round_p50_ms", "ms", Sim, Lower, Report),
    m("server.round_max_ms", "ms", Sim, Lower, Report),
    m("server.queued_share", "ratio", Sim, Lower, Report),
    m("server.jain_fairness", "ratio", Sim, Higher, Report),
    m("obs.events_emitted", "count", Clock::None, Lower, Traced),
    m("obs.events_dropped", "count", Clock::None, Lower, Traced),
    m("obs.trace_overhead_pct", "%", Host, Lower, Traced),
    m("obs.probe.emit_off_ns", "ns", Host, Lower, Probe),
    m("obs.probe.emit_full_ns", "ns", Host, Lower, Probe),
    m(
        "workloads.probe.graph_gen_ns_per_edge",
        "ns",
        Host,
        Lower,
        Probe,
    ),
    m("bench.reps", "count", Clock::None, Higher, Harness),
    m("bench.host_s_min", "s", Host, Lower, Harness),
    m("bench.host_s_q1", "s", Host, Lower, Harness),
    m("bench.host_s_q3", "s", Host, Lower, Harness),
    m("bench.host_s_max", "s", Host, Lower, Harness),
    m("bench.host_cpu_s", "s", Host, Lower, Harness),
    m("bench.host_wall_s", "s", Host, Lower, Harness),
    m("bench.machine_slowdown", "ratio", Host, Lower, Harness),
    m("bench.charges", "count", Clock::None, Lower, Traced),
    m("bench.host_ns_per_charge", "ns", Host, Lower, Traced),
    m(
        "bench.base_arms_completed",
        "count",
        Clock::None,
        Higher,
        Harness,
    ),
    m("bench.sim_base_s", "s", Sim, Lower, Harness),
    m("bench.sim_speedup", "ratio", Sim, Higher, Harness),
    m("bench.paper_band_miss", "ratio", Sim, Lower, Harness),
];

/// For each layer: the end-to-end metric and workload its numbers should
/// move, and the control that should not move.
pub const INTERACTIONS: [(&str, &str, &str); 11] = [
    (
        "storage",
        "sim_lat_p99_us and sim_ops_per_s on query_cold; sim_s on giraph_batch (write side) and tenants_mixed (queueing); probes: host_s on query_cold and giraph_batch",
        "query_hot (sim and host)",
    ),
    (
        "core",
        "sim_s on giraph_batch (card scan, reclaim) and spark_batch (promotion); probes: host_s on giraph_batch",
        "query_hot",
    ),
    (
        "runtime",
        "sim_s and sim_ops_per_s on spark_batch; sim_lat_p99_us on query_hot only if a GC lands in the op stream; probes: host_s on spark_batch (GC) and query_hot (read_prims)",
        "host_s on query_cold beyond its share",
    ),
    (
        "kryo",
        "sim_ops_per_s (through bench.sim_base_s) on spark_batch; probes: host_s on spark_batch (Spark-SD arms)",
        "sim_s anywhere; query_*",
    ),
    ("spark", "host_s and sim_s on spark_batch and tenants_mixed", "query_*, giraph_batch"),
    ("giraph", "sim_ops_per_s (Giraph-OOC arms) and host_s on giraph_batch", "spark_batch, query_*"),
    (
        "query",
        "sim_lat_* and host_s on query_hot (undiluted) and query_cold",
        "spark_batch, giraph_batch",
    ),
    ("server", "sim_ops_per_s and server.jain_fairness on tenants_mixed", "every other workload"),
    ("obs", "host_s everywhere (the recorder's dormant cost)", "every sim_* metric"),
    ("workloads", "setup_s and host_s on spark_batch and giraph_batch", "query_*"),
    ("bench", "describes the run itself; compare host_cpu_s with host_s to tell code from machine", "-"),
];

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let workloads = Workload::ALL
        .into_iter()
        .map(|w| Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|e| {
            Json::obj([
                ("name", Json::str(e.name)),
                ("unit", Json::str(e.unit)),
                ("better", Json::str(e.better.name())),
                ("bound", Json::Num(e.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|p| {
            Json::obj([
                ("name", Json::str(p.name)),
                ("unit", Json::str(p.unit)),
                ("better", Json::str(p.better.name())),
            ])
        })
        .collect();
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Int(RUN_SECONDS as i128)),
        ("workloads", Json::Arr(workloads)),
        ("end_to_end", Json::Arr(end_to_end)),
        ("per_layer", Json::Arr(per_layer)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_manifest_limits() {
        let mut names = BTreeSet::new();
        for w in Workload::ALL {
            assert!(valid_name(w.name()) && names.insert(w.name()));
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        for e in &END_TO_END {
            assert!(valid_name(e.name) && valid_unit(e.unit), "{}", e.name);
            assert!(names.insert(e.name), "{} is used twice", e.name);
            assert!(e.bound > 0.0 && e.bound <= 0.25);
        }
        assert!((1..=128).contains(&PER_LAYER.len()));
        for p in &PER_LAYER {
            assert!(valid_name(p.name) && valid_unit(p.unit), "{}", p.name);
            assert!(names.insert(p.name), "{} is used twice", p.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|e| e.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|e| e.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(manifest().render_pretty().len() <= 64 << 10);
    }

    #[test]
    fn every_layer_has_an_interaction_row() {
        let layers: BTreeSet<&str> = PER_LAYER
            .iter()
            .map(|p| p.name.split('.').next().unwrap())
            .collect();
        let rows: BTreeSet<&str> = INTERACTIONS.iter().map(|r| r.0).collect();
        assert_eq!(layers, rows);
    }

    #[test]
    fn committed_manifest_is_the_rendered_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        assert_eq!(
            committed,
            manifest().render_pretty(),
            "regenerate with `benchmark/run.sh --print-manifest`"
        );
    }
}
