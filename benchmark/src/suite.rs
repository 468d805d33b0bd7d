//! The one command: every workload in its own child process, the probe
//! pass, `results.json`, and the `--agree` / `--smoke` variants.
//!
//! Children are this same executable run with `--workload`; the suite reads
//! the `metric` and `note` lines they print, so there is one output format
//! and no JSON parser.

use crate::json::Json;
use crate::metrics::{Clock, END_TO_END, INTERACTIONS, PER_LAYER, RUN_SECONDS};
use crate::workloads::Workload;
use crate::{Args, Budget};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// One `metric` line as printed: the value is kept as text too, so that
/// "bit-identical" can be checked without a float round trip.
#[derive(Debug, Clone, PartialEq)]
struct Reading {
    text: String,
    value: Option<f64>,
    unit: String,
    clock: String,
    n: String,
}

/// What one child printed.
#[derive(Debug, Default, Clone, PartialEq)]
struct ChildOutput {
    metrics: BTreeMap<String, Reading>,
    notes: BTreeMap<String, String>,
    failures: Vec<String>,
}

impl ChildOutput {
    fn absorb(&mut self, line: &str) {
        let mut words = line.split_whitespace();
        match words.next() {
            Some("metric") => {
                let (Some(name), Some(text), Some(unit), Some(clock), Some(n)) = (
                    words.next(),
                    words.next(),
                    words.next(),
                    words.next(),
                    words.next(),
                ) else {
                    return;
                };
                self.metrics.insert(
                    name.to_string(),
                    Reading {
                        text: text.to_string(),
                        value: text.parse().ok(),
                        unit: unit.to_string(),
                        clock: clock.trim_start_matches("clock=").to_string(),
                        n: n.trim_start_matches("n=").to_string(),
                    },
                );
            }
            Some("note") => {
                if let Some(key) = words.next() {
                    self.notes
                        .insert(key.to_string(), words.collect::<Vec<_>>().join(" "));
                }
            }
            Some("CHECK" | "HARNESS") => self.failures.push(line.to_string()),
            _ => {}
        }
    }
}

/// Runs this executable with `child_args`, echoing its output, and returns
/// what it printed. Waits for the child before returning.
fn child(child_args: &[String]) -> Result<ChildOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    println!("-- {}", child_args.join(" "));
    let mut process = Command::new(exe)
        .args(child_args)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = process.stdout.take().expect("stdout was piped");
    let mut out = ChildOutput::default();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("cannot read child output: {e}"))?;
        // The JSON result line is for the driver; the suite has the rest.
        if !line.starts_with('{') {
            println!("{line}");
        }
        out.absorb(&line);
    }
    let status = process
        .wait()
        .map_err(|e| format!("cannot wait for child: {e}"))?;
    if !status.success() {
        return Err(format!(
            "child {:?} ended with {status}",
            child_args.join(" ")
        ));
    }
    Ok(out)
}

/// Results of one full set: per workload its untraced and traced child,
/// plus the probe pass.
#[derive(Debug, Default)]
struct Set {
    untraced: BTreeMap<&'static str, ChildOutput>,
    traced: BTreeMap<&'static str, ChildOutput>,
    probes: ChildOutput,
    wall_s: f64,
}

impl Set {
    fn failures(&self) -> Vec<String> {
        let children = self.untraced.iter().chain(&self.traced);
        children
            .flat_map(|(w, c)| c.failures.iter().map(move |f| format!("{w}: {f}")))
            .collect()
    }
}

fn run_set(args: &Args) -> Result<Set, String> {
    let started = Instant::now();
    let seed = args.seed.to_string();
    // Measure each workload as long as a run of `BENCHMARK.json` does,
    // unless told how many reps to run.
    let budget = match args.budget {
        Some(Budget::Reps(r)) => ["--reps".to_string(), r.to_string()],
        Some(Budget::Seconds(s)) => ["--seconds".to_string(), s.to_string()],
        None => ["--seconds".to_string(), RUN_SECONDS.to_string()],
    };
    let base = |w: Workload| -> Vec<String> {
        [
            "--workload",
            w.name(),
            "--seed",
            &seed,
            "--out",
            &args.out_dir,
        ]
        .map(String::from)
        .to_vec()
    };
    let mut set = Set::default();
    for w in Workload::ALL {
        let mut untraced = base(w);
        if args.smoke {
            untraced.extend(["--scale", "quarter", "--reps", "1"].map(String::from));
        } else {
            untraced.extend(budget.clone());
        }
        set.untraced.insert(w.name(), child(&untraced)?);
        if !args.smoke {
            let mut traced = base(w);
            traced.extend(["--trace", "1", "--reps", "1", "--no-probes"].map(String::from));
            set.traced.insert(w.name(), child(&traced)?);
        }
    }
    if !args.smoke {
        set.probes =
            child(&["--probes", "--seed", &seed, "--out", &args.out_dir].map(String::from))?;
    }
    set.wall_s = started.elapsed().as_secs_f64();
    Ok(set)
}

fn reading_json(r: &Reading) -> Json {
    Json::obj([
        ("value", r.value.map_or(Json::Null, Json::Num)),
        ("unit", Json::str(&r.unit)),
        ("clock", Json::str(&r.clock)),
        ("n", r.n.parse().map_or(Json::Null, Json::Int)),
    ])
}

/// The readings of `names` that `from` has, in table order.
fn readings_json<'a>(
    names: impl Iterator<Item = &'a str>,
    from: &BTreeMap<String, Reading>,
) -> Json {
    let found = names.filter_map(|n| from.get(n).map(|r| (n.to_string(), reading_json(r))));
    Json::Obj(found.collect())
}

fn host_description() -> Json {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map(|s| s.trim().to_string())
            .unwrap_or_default()
    };
    Json::obj([
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as i128)),
        ),
        ("kernel", Json::str(&read("/proc/sys/kernel/osrelease"))),
    ])
}

fn set_json(args: &Args, set: &Set) -> Json {
    let workloads = Workload::ALL
        .into_iter()
        .map(|w| {
            let untraced = &set.untraced[w.name()];
            // The traced child adds what only the recorder can see; where
            // both children have a reading (report counters agree exactly,
            // `bench.*` describes each child's own run) the untraced one,
            // which measured for the full budget, wins.
            let mut layers = set
                .traced
                .get(w.name())
                .map_or_else(BTreeMap::new, |t| t.metrics.clone());
            let measured = untraced.metrics.iter().filter(|(_, r)| r.value.is_some());
            layers.extend(measured.map(|(k, r)| (k.clone(), r.clone())));
            layers.extend(set.probes.metrics.clone());
            let note = |k: &str| Json::str(untraced.notes.get(k).map_or("", String::as_str));
            let body = Json::obj([
                ("why", Json::str(w.why())),
                ("load", note("load")),
                ("sim_fingerprint", note("sim_fingerprint")),
                ("ops", note("ops_attempted")),
                (
                    "end_to_end",
                    readings_json(END_TO_END.iter().map(|e| e.name), &untraced.metrics),
                ),
                (
                    "per_layer",
                    readings_json(PER_LAYER.iter().map(|p| p.name), &layers),
                ),
            ]);
            (w.name().to_string(), body)
        })
        .collect();
    let interactions = INTERACTIONS
        .iter()
        .map(|&(layer, moves, control)| {
            Json::obj([
                ("layer", Json::str(layer)),
                ("moves", Json::str(moves)),
                ("control", Json::str(control)),
            ])
        })
        .collect();
    let definitions = END_TO_END
        .iter()
        .map(|e| {
            Json::obj([
                ("name", Json::str(e.name)),
                ("clock", Json::str(e.clock.name())),
                ("better", Json::str(e.better.name())),
                ("bound", Json::Num(e.bound)),
                ("what", Json::str(e.what)),
            ])
        })
        .collect();
    Json::obj([
        ("seed", Json::Int(args.seed as i128)),
        ("smoke", Json::Bool(args.smoke)),
        ("host", host_description()),
        ("wall_s", Json::Num(set.wall_s)),
        (
            "check_failures",
            Json::Arr(set.failures().iter().map(|f| Json::str(f)).collect()),
        ),
        ("workloads", Json::Obj(workloads)),
        ("end_to_end_definitions", Json::Arr(definitions)),
        ("interactions", Json::Arr(interactions)),
    ])
}

fn write_out(args: &Args, file: &str, json: &Json) -> Result<(), String> {
    let path = Path::new(&args.out_dir).join(file);
    std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, json.render_pretty()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Whether two readings of one metric from the same code agree: simulated
/// numbers to the digit, host numbers within `bound` of each other.
fn disagreement(name: &str, bound: Option<f64>, a: &Reading, b: &Reading) -> Option<String> {
    let Some(bound) = bound else {
        return (a.text != b.text)
            .then(|| format!("{name}: {} vs {} (must be identical)", a.text, b.text));
    };
    let (x, y) = (a.value?, b.value?);
    let gap = (x - y).abs() / x.min(y);
    (gap > bound).then(|| {
        format!(
            "{name}: {x} vs {y} differ by {:.1}% (bound {:.0}%)",
            gap * 100.0,
            bound * 100.0
        )
    })
}

fn agreement(a: &Set, b: &Set) -> (Json, Vec<String>) {
    let mut all = Vec::new();
    let mut rows = Vec::new();
    for w in Workload::ALL {
        let (ua, ub) = (&a.untraced[w.name()], &b.untraced[w.name()]);
        let mut problems = Vec::new();
        if ua.notes.get("sim_fingerprint") != ub.notes.get("sim_fingerprint") {
            problems.push("sim_fingerprint differs".to_string());
        }
        for e in &END_TO_END {
            match (ua.metrics.get(e.name), ub.metrics.get(e.name)) {
                (Some(x), Some(y)) => {
                    let bound = (e.clock != Clock::Sim).then_some(e.bound);
                    problems.extend(disagreement(e.name, bound, x, y));
                }
                _ => problems.push(format!("{}: missing from a set", e.name)),
            }
        }
        // Every simulated per-layer number must repeat exactly too.
        for p in PER_LAYER.iter().filter(|p| p.clock == Clock::Sim) {
            if let (Some(x), Some(y)) = (ua.metrics.get(p.name), ub.metrics.get(p.name)) {
                problems.extend(disagreement(p.name, None, x, y));
            }
        }
        all.extend(problems.iter().map(|p| format!("{}: {p}", w.name())));
        rows.push((
            w.name().to_string(),
            Json::obj([
                ("agrees", Json::Bool(problems.is_empty())),
                (
                    "problems",
                    Json::Arr(problems.iter().map(|p| Json::str(p)).collect()),
                ),
            ]),
        ));
    }
    all.extend(a.failures());
    all.extend(b.failures());
    let json = Json::obj([
        ("agrees", Json::Bool(all.is_empty())),
        ("rule", Json::str("every sim-clock number and sim_fingerprint identical; host-clock end-to-end metrics within their BENCHMARK.json bound; no check failure in either set")),
        ("workloads", Json::Obj(rows)),
    ]);
    (json, all)
}

pub fn run(args: &Args) -> Result<(), String> {
    let first = run_set(args)?;
    write_out(args, "results.json", &set_json(args, &first))?;
    let mut problems = first.failures();
    if args.agree {
        let second = run_set(args)?;
        let (json, disagreements) = agreement(&first, &second);
        write_out(args, "agreement.json", &json)?;
        problems = disagreements;
    }
    println!("suite took {:.1} s", first.wall_s);
    if problems.is_empty() {
        println!("all output checks passed");
        return Ok(());
    }
    for p in &problems {
        println!("FAILED {p}");
    }
    Err(format!("{} check(s) failed", problems.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading(text: &str) -> Reading {
        Reading {
            text: text.into(),
            value: text.parse().ok(),
            unit: "s".into(),
            clock: "host".into(),
            n: "5".into(),
        }
    }

    #[test]
    fn child_lines_are_parsed_and_junk_is_ignored() {
        let mut out = ChildOutput::default();
        for line in [
            "metric host_s 2.0312 s clock=host n=5 min=2.0 q1=2.01 q3=2.1 max=2.2",
            "metric core.promo_flushes absent count clock=- n=1",
            "metric truncated 1.0",
            "note sim_fingerprint 00ff00ff00ff00ff",
            "note load op = arm; 20 arms",
            "CHECK FAILED rep 2: something",
            "HARNESS CHECK FAILED trace: 2.00% of the median rep is outside its child spans",
            "{\"correct\":true}",
            "",
        ] {
            out.absorb(line);
        }
        assert_eq!(out.metrics.len(), 2);
        let host = &out.metrics["host_s"];
        assert_eq!(
            (
                host.value,
                host.unit.as_str(),
                host.clock.as_str(),
                host.n.as_str()
            ),
            (Some(2.0312), "s", "host", "5")
        );
        assert_eq!(out.metrics["core.promo_flushes"].value, None);
        assert_eq!(out.notes["sim_fingerprint"], "00ff00ff00ff00ff");
        assert_eq!(out.notes["load"], "op = arm; 20 arms");
        assert_eq!(out.failures.len(), 2);
    }

    #[test]
    fn simulated_numbers_must_match_to_the_digit() {
        assert!(disagreement("sim_s", None, &reading("1.5217"), &reading("1.5217")).is_none());
        assert!(disagreement("sim_s", None, &reading("1.5217"), &reading("1.5218")).is_some());
    }

    #[test]
    fn host_numbers_get_their_bound() {
        assert!(disagreement("host_s", Some(0.1), &reading("2.0"), &reading("2.19")).is_none());
        assert!(disagreement("host_s", Some(0.1), &reading("2.0"), &reading("2.21")).is_some());
        assert!(disagreement("host_s", Some(0.1), &reading("2.21"), &reading("2.0")).is_some());
        // An unreadable side cannot disagree; the missing-metric check reports it.
        assert!(disagreement("host_s", Some(0.1), &reading("absent"), &reading("2.0")).is_none());
    }
}
