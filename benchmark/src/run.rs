//! One workload in this process: set-up, timed reps, output checks, the
//! traced reps and probes when asked for, and the printed result.

use crate::arms::Scale;
use crate::json::Json;
use crate::metrics::{Clock, Source, END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::stats::{median, percentile_permille, Summary};
use crate::workloads::{query_replay, run_rep, Counters, Plan, RepCost, RepOutcome, Workload};
use crate::{probes, procfs, Args, Budget};
use std::time::Instant;

/// Timed reps when neither `--seconds` nor `--reps` is given.
const DEFAULT_REPS: usize = 5;
/// A `--seconds` budget still runs this many reps (or traced pairs), so
/// that one disturbed rep cannot move their median.
const MIN_REPS: usize = 3;
const MIN_TRACED_PAIRS: usize = 2;

/// The paper's band for the time TeraHeap saves over the baseline at equal
/// DRAM (EXPERIMENTS.md): Spark 18-73%, Giraph 21-28%.
fn paper_band(workload: Workload) -> Option<(f64, f64)> {
    match workload {
        Workload::SparkBatch => Some((0.18, 0.73)),
        Workload::GiraphBatch => Some((0.21, 0.28)),
        _ => None,
    }
}

/// `metric <name> <value|absent> <unit> clock=<clock> n=<samples> [...]` —
/// the line format people read and the suite parses.
fn print_metric(name: &str, value: Option<f64>, unit: &str, clock: Clock, n: usize, extra: &str) {
    let value = value.map_or("absent".to_string(), |v| format!("{v:?}"));
    println!(
        "metric {name} {value} {unit} clock={} n={n}{extra}",
        clock.name()
    );
}

fn set_recorder(level: &str) {
    // Read by every `SimClock::new`; this process is single-threaded.
    std::env::set_var("TERAHEAP_OBS", level);
}

fn write_trace(args: &Args, stem: &str, spans: &Spans) -> Result<(), String> {
    let path = std::path::Path::new(&args.out_dir).join(format!("trace-{stem}.jsonl"));
    std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, spans.to_jsonl(stem)))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("note trace {}", path.display());
    Ok(())
}

/// Checks on the recorder itself. That spans nest is structural, and an
/// output check like any other. That a rep spends under 1% of its time
/// outside the calls it wraps (so per-arm self times add up to the rep) is
/// read off the wall clock, and the time the host keeps the thread off the
/// CPU between two spans counts against it. So it is judged on the median
/// rep, which one such gap cannot move, and goes to `harness`: the suite
/// fails on it, but it never decides whether the program's outputs were
/// correct.
fn check_spans(spans: &Spans, failures: &mut Vec<String>, harness: &mut Vec<String>) {
    if !spans.well_nested() {
        failures.push("trace: a span is open or lies outside its parent".to_string());
    }
    let uncovered = spans.uncovered_shares("rep");
    let worst = uncovered.iter().copied().fold(0.0, f64::max);
    let typical = median(&uncovered);
    println!(
        "note trace_uncovered_share median={typical:?} max={worst:?} n={}",
        uncovered.len()
    );
    if typical >= 0.01 {
        harness.push(format!(
            "trace: {:.2}% of the median rep is outside its child spans",
            typical * 100.0
        ));
    }
}

/// Runs the probe pass alone (`--probes`).
pub fn probes_only(args: &Args) -> Result<(), String> {
    set_recorder("off");
    let mut spans = Spans::default();
    let values = probes::run(args.seed, &mut spans);
    println!("== probes seed {} ==", args.seed);
    for p in PER_LAYER.iter().filter(|p| p.source == Source::Probe) {
        print_metric(
            p.name,
            values.get(p.name).copied(),
            p.unit,
            p.clock,
            probes::SAMPLES,
            " src=P",
        );
    }
    write_trace(args, "probes", &spans)?;
    if spans.well_nested() {
        Ok(())
    } else {
        Err("trace: a span is open or lies outside its parent".to_string())
    }
}

/// Everything measured about one workload, ready to print.
/// One column of per-rep costs.
fn column(reps: &[RepCost], of: impl Fn(&RepCost) -> f64) -> Vec<f64> {
    reps.iter().map(of).collect()
}

struct Measured {
    setup_s: f64,
    /// Host cost of every timed rep, and of every traced rep.
    reps: Vec<RepCost>,
    traced_reps: Vec<RepCost>,
    peak_rss_mib: Option<f64>,
    /// The rep every other rep must reproduce.
    reference: RepOutcome,
    /// The last traced rep, when tracing.
    traced: Option<RepOutcome>,
    /// Counters of the bench-owned replay (query workloads).
    replay: Counters,
    probes: Counters,
    attempted: u64,
    failures: Vec<String>,
    /// Failed checks on the harness's own timing (see `check_spans`).
    harness: Vec<String>,
}

fn end_to_end_values(m: &Measured) -> Vec<(Option<f64>, usize, String)> {
    let host = Summary::of(&column(&m.reps, |r| r.host_s));
    let r = &m.reference;
    let quartiles = format!(
        " min={:?} q1={:?} q3={:?} max={:?} spread={:.4}",
        host.min,
        host.q1,
        host.q3,
        host.max,
        host.spread()
    );
    END_TO_END
        .iter()
        .map(|e| match e.name {
            "setup_s" => (Some(m.setup_s), 1, String::new()),
            "host_s" => (Some(host.median), host.n, quartiles.clone()),
            "host_peak_rss_mb" => (m.peak_rss_mib, 1, String::new()),
            "sim_s" => (Some(r.sim_ns as f64 / 1e9), 1, String::new()),
            "sim_ops_per_s" => (Some(r.sim_ops_per_s), r.ops as usize, String::new()),
            "sim_lat_p50_us" => (
                Some(r.lat_p50_ns as f64 / 1e3),
                r.lat_n as usize,
                String::new(),
            ),
            "sim_lat_p99_us" => (
                Some(r.lat_p99_ns as f64 / 1e3),
                r.lat_n as usize,
                String::new(),
            ),
            other => unreachable!("end-to-end metric {other} has no reading"),
        })
        .collect()
}

fn ratio(c: &Counters, num: &str, den: &str) -> Option<f64> {
    let d = *c.get(den)?;
    (d > 0.0).then(|| c.get(num).copied().unwrap_or(0.0) / d)
}

/// Assembles every per-layer value that could be read on this run.
fn per_layer_values(workload: Workload, m: &Measured) -> Counters {
    let rep = m.traced.as_ref().unwrap_or(&m.reference);
    let mut c = rep.counters.clone();
    // The replay's heap is the only place a query workload's page-cache and
    // GC counters can be read; the plane's own report wins where both exist.
    for (&k, &v) in &m.replay {
        c.entry(k).or_insert(v);
    }
    c.extend(m.probes.iter().map(|(&k, &v)| (k, v)));
    if let Some(r) = ratio(&c, "storage.seq_faults", "storage.page_faults") {
        c.insert("storage.seq_fault_ratio", r);
    }
    if let Some(r) = ratio(&c, "core.regions_reclaimed", "core.regions_allocated") {
        c.insert("core.region_reclaim_ratio", r);
    }

    let host = Summary::of(&column(&m.reps, |r| r.host_s));
    c.insert("bench.reps", host.n as f64);
    c.insert("bench.host_s_min", host.min);
    c.insert("bench.host_s_q1", host.q1);
    c.insert("bench.host_s_q3", host.q3);
    c.insert("bench.host_s_max", host.max);
    c.insert("bench.host_cpu_s", median(&column(&m.reps, |r| r.cpu_s)));
    c.insert("bench.host_wall_s", median(&column(&m.reps, |r| r.wall_s)));
    c.insert(
        "bench.machine_slowdown",
        median(&column(&m.reps, |r| r.cpu_s / r.host_s)),
    );
    if let Some((lo, hi)) = paper_band(workload) {
        c.insert("bench.base_arms_completed", rep.base_completed as f64);
        c.insert("bench.sim_base_s", rep.sim_base_ns as f64 / 1e9);
        if rep.paired_th_ns > 0 && rep.paired_base_ns > 0 {
            c.insert(
                "bench.sim_speedup",
                rep.paired_base_ns as f64 / rep.paired_th_ns as f64,
            );
            let saved = 1.0 - rep.paired_th_ns as f64 / rep.paired_base_ns as f64;
            c.insert(
                "bench.paper_band_miss",
                (lo - saved).max(saved - hi).max(0.0),
            );
        }
    }

    if let Some(traced) = &m.traced {
        let t = &traced.trace;
        if t.clocks > 0 {
            c.insert("obs.events_emitted", t.emitted as f64);
            c.insert("obs.events_dropped", t.dropped as f64);
            c.insert("bench.charges", t.charges as f64);
            if t.charges > 0 {
                c.insert(
                    "bench.host_ns_per_charge",
                    host.median * 1e9 / t.charges as f64,
                );
            }
            if !t.pauses_ns.is_empty() {
                c.insert(
                    "runtime.pause_p50_us",
                    percentile_permille(&t.pauses_ns, 500) as f64 / 1e3,
                );
                c.insert(
                    "runtime.pause_max_us",
                    percentile_permille(&t.pauses_ns, 1000) as f64 / 1e3,
                );
            }
        }
        let traced_host = Summary::of(&column(&m.traced_reps, |r| r.host_s));
        c.insert(
            "obs.trace_overhead_pct",
            (traced_host.median / host.median - 1.0) * 100.0,
        );
        let [th, base] = traced.side_host_s;
        match workload {
            Workload::SparkBatch => {
                c.insert("spark.th_host_s", th);
                c.insert("spark.base_host_s", base);
            }
            Workload::GiraphBatch => {
                c.insert("giraph.th_host_s", th);
                c.insert("giraph.base_host_s", base);
            }
            _ => {}
        }
    }
    c
}

fn samples_of(name: &str, m: &Measured) -> usize {
    match name {
        n if n.contains(".probe.") && n != "kryo.probe.bytes_per_obj" => probes::SAMPLES,
        "obs.trace_overhead_pct" => m.traced_reps.len(),
        "runtime.pause_p50_us" | "runtime.pause_max_us" => {
            m.traced.as_ref().map_or(0, |t| t.trace.pauses_ns.len())
        }
        n if n.starts_with("bench.host_") || n == "bench.machine_slowdown" => m.reps.len(),
        _ => 1,
    }
}

/// Runs `args.workload` and prints its metrics; the last line of standard
/// output is the JSON result object.
pub fn workload(args: &Args, started: Instant) -> Result<(), String> {
    let workload = args.workload.expect("caller checked --workload");
    set_recorder("off");
    let mut spans = Spans::default();
    let mut failures: Vec<String> = Vec::new();

    // Set-up: everything between process start and the first timed rep.
    // One pass, not a median of several: what this metric exists to show is
    // work moved out of the timed reps into one-time initialisation, and a
    // one-time cost is paid by the first full-size rep of a process only.
    let setup = spans.enter("setup", "");
    let plan = Plan::build(workload, args.seed, args.scale);
    let before_warm_up =
        procfs::on_cpu_seconds().unwrap_or_else(|| started.elapsed().as_secs_f64());
    let reference = run_rep(&plan, &mut spans, "warm-up");
    spans.exit(setup);
    let setup_s = before_warm_up + reference.cost.host_s;

    let (min_reps, budget) = match (
        args.trace,
        args.budget.unwrap_or(Budget::Reps(DEFAULT_REPS)),
    ) {
        (_, Budget::Reps(r)) => (r, 0.0),
        (false, Budget::Seconds(s)) => (MIN_REPS, s),
        (true, Budget::Seconds(s)) => (MIN_TRACED_PAIRS, s),
    };
    let timed = Instant::now();
    let (mut reps, mut traced_reps) = (Vec::new(), Vec::new());
    let mut traced: Option<RepOutcome> = None;
    let mut attempted = 0u64;
    let mut check_rep = |label: &str, out: &RepOutcome, failures: &mut Vec<String>| {
        attempted += out.ops;
        failures.extend(out.failures.iter().map(|f| format!("{label}: {f}")));
        if out.fingerprint != reference.fingerprint {
            failures.push(format!(
                "{label}: sim_fingerprint {:016x} differs from the warm-up's {:016x} (not deterministic)",
                out.fingerprint, reference.fingerprint
            ));
        }
    };
    while reps.len() < min_reps || timed.elapsed().as_secs_f64() < budget {
        let label = format!("rep {}", reps.len() + 1);
        let out = run_rep(&plan, &mut spans, &label);
        reps.push(out.cost);
        check_rep(&label, &out, &mut failures);
        if args.trace {
            // Same process, same inputs, recorder on: the gap to the rep
            // just timed is what tracing costs.
            set_recorder("full");
            let label = format!("traced {label}");
            let out = run_rep(&plan, &mut spans, &label);
            set_recorder("off");
            traced_reps.push(out.cost);
            check_rep(&label, &out, &mut failures);
            traced = Some(out);
        }
    }
    let peak_rss_mib = procfs::peak_rss_mib();

    // Cross-workload checks: the two query workloads must answer alike, and
    // must be what their names say.
    let mut replay = Counters::new();
    if let (Plan::Query(cfg), Some(sibling)) = (&plan, workload.sibling()) {
        let verify = spans.enter("verify", sibling.name());
        let other = run_rep(
            &Plan::build(sibling, args.seed, args.scale),
            &mut spans,
            sibling.name(),
        );
        replay = query_replay(cfg, &mut spans);
        spans.exit(verify);
        failures.extend(
            other
                .failures
                .iter()
                .map(|f| format!("{}: {f}", sibling.name())),
        );
        if other.answer != reference.answer {
            failures.push(format!(
                "answer checksum {:?} differs from {}'s {:?}: placement changed an answer",
                reference.answer,
                sibling.name(),
                other.answer
            ));
        }
        let queued = |o: &RepOutcome| {
            o.counters
                .get("storage.arbiter_queued_ns")
                .copied()
                .unwrap_or(0.0)
        };
        let (cold, hot) = match workload {
            Workload::QueryCold => (&reference, &other),
            _ => (&other, &reference),
        };
        if queued(hot) >= 0.01 * queued(cold) {
            failures.push(format!(
                "query_hot queued {} ns at the device, not under 1% of query_cold's {} ns",
                queued(hot),
                queued(cold)
            ));
        }
        let evictions = replay.get("storage.evictions").copied();
        if workload == Workload::QueryCold && evictions.unwrap_or(0.0) <= 0.0 {
            failures.push(format!(
                "query_cold never evicted a page ({evictions:?}): its working set fits the cache"
            ));
        }
    }

    let probe_values = if args.trace && !args.no_probes {
        probes::run(args.seed, &mut spans)
    } else {
        Counters::new()
    };
    let mut harness = Vec::new();
    if args.trace {
        check_spans(&spans, &mut failures, &mut harness);
        write_trace(args, workload.name(), &spans)?;
    }

    let m = Measured {
        setup_s,
        reps,
        traced_reps,
        peak_rss_mib,
        reference,
        traced,
        replay,
        probes: probe_values,
        attempted,
        failures,
        harness,
    };
    print_result(args, workload, &m)
}

fn print_result(args: &Args, workload: Workload, m: &Measured) -> Result<(), String> {
    let r = &m.reference;
    println!(
        "== {} seed {} scale {} ==",
        workload.name(),
        args.seed,
        if args.scale == Scale::Full {
            "full"
        } else {
            "quarter"
        }
    );
    println!("note load {}", workload.load());
    println!(
        "note host_clock {} at reference machine speed",
        if procfs::on_cpu_seconds().is_some() {
            "on-CPU seconds"
        } else {
            "wall-clock seconds (no /proc)"
        }
    );
    println!("note sim_fingerprint {:016x}", r.fingerprint);
    if let Some(answer) = r.answer {
        println!("note answer_checksum {answer:016x}");
    }

    let e2e = end_to_end_values(m);
    for (e, (value, n, extra)) in END_TO_END.iter().zip(&e2e) {
        print_metric(e.name, *value, e.unit, e.clock, *n, extra);
    }
    let layers = per_layer_values(workload, m);
    for p in &PER_LAYER {
        // Probe and recorder metrics exist only on a traced run; say so by
        // leaving them out of an untraced one instead of printing "absent".
        let needs_trace = matches!(p.source, Source::Probe | Source::Traced);
        if args.trace || !needs_trace {
            let source = format!(" src={}", p.source.tag());
            print_metric(
                p.name,
                layers.get(p.name).copied(),
                p.unit,
                p.clock,
                samples_of(p.name, m),
                &source,
            );
        }
    }
    if let Some((lo, hi)) = paper_band(workload) {
        println!(
            "note accuracy paper saves {:.0}-{:.0}% of the baseline's time at equal DRAM; bench.sim_speedup {:?}, bench.paper_band_miss {:?} (stated, not gated)",
            lo * 100.0,
            hi * 100.0,
            layers.get("bench.sim_speedup"),
            layers.get("bench.paper_band_miss")
        );
    }
    if let Some(dropped) = layers.get("obs.events_dropped") {
        println!(
            "note obs.events_dropped {dropped} of {:?} emitted",
            layers.get("obs.events_emitted")
        );
    }

    let failed = m.failures.len() as u64;
    for f in &m.failures {
        println!("CHECK FAILED {f}");
    }
    for f in &m.harness {
        println!("HARNESS CHECK FAILED {f}");
    }
    println!(
        "note ops_attempted {} ops_failed {failed} fail_share {:?}",
        m.attempted,
        failed as f64 / m.attempted as f64
    );

    // The machine-readable result: every end-to-end metric untraced, every
    // per-layer metric traced. A per-layer metric that cannot be read on
    // this workload is 0 here and "absent" above.
    let metrics: Vec<(String, Json)> = if args.trace {
        PER_LAYER
            .iter()
            .map(|p| (p.name, layers.get(p.name).copied().unwrap_or(0.0), p.unit))
            .map(|(name, v, unit)| {
                (
                    name.to_string(),
                    Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit))]),
                )
            })
            .collect()
    } else {
        let mut out = Vec::new();
        for (e, (value, _, _)) in END_TO_END.iter().zip(&e2e) {
            let v = value.ok_or_else(|| format!("{} cannot be read on this host", e.name))?;
            out.push((
                e.name.to_string(),
                Json::obj([("value", Json::Num(v)), ("unit", Json::str(e.unit))]),
            ));
        }
        out
    };
    let result = Json::obj([
        ("correct", Json::Bool(m.failures.is_empty())),
        ("attempted", Json::Int(m.attempted as i128)),
        ("failed", Json::Int(failed.min(m.attempted) as i128)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    Ok(())
}
