//! The figure driver: `figures <name>... | all | list`.
//!
//! Runs the jobs of every requested [`teraheap_bench::figures::table`] entry
//! on one worker pool (`TERAHEAP_BENCH_THREADS`, default: all cores), prints
//! each figure in table order, writes `results/<name>.csv` (plus a sidecar
//! file) and exits 1 at the end if any self-gate failed. Output is
//! byte-identical at any thread count.

use std::process::ExitCode;
use teraheap_bench::figures::{run, table, Figure};
use teraheap_bench::harness::bench_threads;

fn main() -> ExitCode {
    let table = table();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["list"] {
        table.iter().for_each(|f| println!("{:<18} {}", f.name, f.title));
        return ExitCode::SUCCESS;
    }
    if args.is_empty() || args.iter().any(|a| a != "all" && !table.iter().any(|f| f.name == a)) {
        let names: Vec<&str> = table.iter().map(|f| f.name).collect();
        eprintln!("usage: figures <name>... | all | list\nfigures: {}", names.join(" "));
        return ExitCode::from(2);
    }
    let workers = match bench_threads() {
        Ok(n) => n,
        Err(e) => {
            eprintln!("figures: {e}");
            return ExitCode::from(2);
        }
    };
    let selected: Vec<&Figure> =
        table.iter().filter(|f| args.iter().any(|a| a == "all" || a == f.name)).collect();

    let results = std::path::Path::new("results");
    std::fs::create_dir_all(results).expect("create results dir");
    let mut failed = false;
    for (figure, rendered) in selected.iter().zip(run(&selected, workers)) {
        println!("=== {} ===\n\n{}", figure.title, rendered.text);
        let csv = (format!("{}.csv", figure.name), figure.csv_text(&rendered));
        let sidecar = rendered.sidecar.map(|(name, text)| (name.to_string(), text));
        for (name, text) in [csv].into_iter().chain(sidecar) {
            std::fs::write(results.join(&name), text).expect("write result file");
            println!("wrote results/{name}");
        }
        for gate in &rendered.failed_gates {
            println!("GATE FAIL [{}]: {gate}", figure.name);
            failed = true;
        }
        println!();
    }
    if failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
