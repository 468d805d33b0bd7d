//! The figure table against the committed `results/`: every entry names a
//! committed CSV and starts it with the right header, and rendering is
//! byte-identical to the committed files at any worker count.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use teraheap_bench::figures::{run, table, Figure};

fn results() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Unique names, one entry per `results/*.csv` (bar `microbench`, which the
/// `micro` binary writes), and each file starts with its entry's header.
#[test]
fn table_matches_committed_results() {
    let table = table();
    let names: BTreeSet<String> = table.iter().map(|f| f.name.to_string()).collect();
    assert_eq!(names.len(), table.len(), "duplicate figure name");
    let committed: BTreeSet<String> = std::fs::read_dir(results())
        .expect("results/ exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|path| path.extension().is_some_and(|x| x == "csv"))
        .map(|path| path.file_stem().expect("csv has a stem").to_string_lossy().into_owned())
        .filter(|stem| stem != "microbench")
        .collect();
    assert_eq!(names, committed);
    for f in &table {
        let csv = std::fs::read_to_string(results().join(format!("{}.csv", f.name))).unwrap();
        assert_eq!(csv.lines().next(), Some(f.csv_header.as_str()), "{} header", f.name);
    }
}

/// Plans, pools and renders the two cheapest entries at 1 and at 2 workers:
/// the rendered CSV bytes equal the committed files either way.
#[test]
fn rendering_is_byte_identical_at_any_worker_count() {
    let table = table();
    let cheap: Vec<&Figure> =
        table.iter().filter(|f| ["table5_metadata", "fig16_placement"].contains(&f.name)).collect();
    assert_eq!(cheap.len(), 2);
    for workers in [1, 2] {
        for (figure, rendered) in cheap.iter().zip(run(&cheap, workers)) {
            let committed =
                std::fs::read_to_string(results().join(format!("{}.csv", figure.name))).unwrap();
            assert_eq!(
                figure.csv_text(&rendered),
                committed,
                "{} at {workers} workers",
                figure.name
            );
            assert!(
                rendered.failed_gates.is_empty(),
                "{}: {:?}",
                figure.name,
                rendered.failed_gates
            );
        }
    }
}
