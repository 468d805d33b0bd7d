//! The repo benchmark (see `BENCHMARK.json` and `benchmark/README.md`).
//!
//! Two ways in, both through `benchmark/run.sh`:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and ends with one JSON result line — the
//!   form `BENCHMARK.json`'s `command` is invoked with;
//! * without `--workload` it is the one command for people: every workload
//!   in its own child process (untraced, then traced), the probe pass, all
//!   output checks, `benchmark/out/results.json`; `--agree` does it twice
//!   and compares, `--smoke` is the quick API-drift run.

mod arms;
mod json;
mod metrics;
mod probes;
mod procfs;
mod run;
mod spans;
mod stats;
mod suite;
mod workloads;
mod yardstick;

use arms::Scale;
use std::process::ExitCode;
use workloads::Workload;

/// How long a single-workload run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Keep adding reps until this many seconds of timed reps have passed.
    Seconds(f64),
    /// Exactly this many reps.
    Reps(usize),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub budget: Option<Budget>,
    pub trace: bool,
    pub scale: Scale,
    pub probes_only: bool,
    pub no_probes: bool,
    pub smoke: bool,
    pub agree: bool,
    pub print_manifest: bool,
    pub out_dir: String,
}

const USAGE: &str = "\
usage: benchmark/run.sh [--seed N] [--reps R | --seconds S] [--smoke | --agree]
       benchmark/run.sh --workload NAME [--seed N] [--seconds S | --reps R] [--trace 0|1] [--no-probes]
       benchmark/run.sh --probes [--seed N]
       benchmark/run.sh --print-manifest
workloads: spark_batch giraph_batch query_cold query_hot tenants_mixed";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        budget: None,
        trace: false,
        scale: Scale::Full,
        probes_only: false,
        no_probes: false,
        smoke: false,
        agree: false,
        print_manifest: false,
        out_dir: "benchmark/out".to_string(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: cannot use {v:?}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = Some(Workload::parse(v).ok_or_else(|| bad(v))?);
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(v))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(v));
                }
                args.budget = Some(Budget::Seconds(s));
            }
            "--reps" => {
                let v = value()?;
                let r: usize = v.parse().map_err(|_| bad(v))?;
                if !(1..=1000).contains(&r) {
                    return Err(bad(v));
                }
                args.budget = Some(Budget::Reps(r));
            }
            "--traced" => args.trace = true,
            "--trace" => {
                let v = value()?;
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(v)),
                };
            }
            "--scale" => {
                let v = value()?;
                args.scale = match v.as_str() {
                    "full" => Scale::Full,
                    "quarter" => Scale::Quarter,
                    _ => return Err(bad(v)),
                };
            }
            "--out" => args.out_dir = value()?.clone(),
            "--probes" => args.probes_only = true,
            "--no-probes" => args.no_probes = true,
            "--smoke" => args.smoke = true,
            "--agree" => args.agree = true,
            "--print-manifest" => args.print_manifest = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if args.smoke && args.agree {
        return Err("--smoke and --agree exclude each other".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let started = std::time::Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_manifest {
        print!("{}", metrics::manifest().render_pretty());
        return ExitCode::SUCCESS;
    }
    let outcome = if args.probes_only {
        run::probes_only(&args)
    } else if args.workload.is_some() {
        run::workload(&args, started)
    } else {
        suite::run(&args)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn contract_invocation_parses() {
        let a = args(&[
            "--workload",
            "query_cold",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::QueryCold));
        assert_eq!(
            (a.seed, a.budget, a.trace),
            (7, Some(Budget::Seconds(10.0)), true)
        );
        assert_eq!(args(&[]).unwrap().seed, 42);
    }

    #[test]
    fn bad_input_is_rejected_not_guessed() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["--reps", "0"],
            &["--trace", "2"],
            &["--frobnicate"],
            &["--smoke", "--agree"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }
}
