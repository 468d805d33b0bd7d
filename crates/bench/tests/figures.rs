//! The figure table against the committed `results/` and EXPERIMENTS.md:
//! every entry names a committed CSV and starts it with the right header and
//! has one EXPERIMENTS.md heading, rendering is byte-identical to the
//! committed files at any worker count, and no two arms of a figure render
//! the same row.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use teraheap_bench::figures::{run, table, Figure};

fn results() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// The `Figure N` or `Table N` a title or heading label starts with: the
/// paper item it reproduces. Anything else is an extension.
fn paper_item(text: &str) -> Option<&str> {
    let rest = text.strip_prefix("Figure ").or_else(|| text.strip_prefix("Table "))?;
    let digits = rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    (digits > 0).then(|| &text[..text.len() - rest.len() + digits])
}

/// Unique names, one entry per `results/*.csv` (bar `microbench`, which the
/// `micro` binary writes), and each file starts with its entry's header.
/// EXPERIMENTS.md has exactly one ``## <label> — `figures <name>` ``
/// heading per entry and none for a name the table lacks, and the label
/// names the title's paper item, or none when the title names none.
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

    let experiments = std::fs::read_to_string(results().join("../EXPERIMENTS.md")).unwrap();
    let mut headings: BTreeMap<String, Vec<&str>> = BTreeMap::new();
    for heading in experiments.lines().filter_map(|line| line.strip_prefix("## ")) {
        if let Some((label, command)) = heading.split_once(" — `figures ") {
            let name = command.strip_suffix('`').expect("the heading ends with the command");
            headings.entry(name.to_string()).or_default().push(label);
        }
    }
    assert_eq!(headings.keys().cloned().collect::<BTreeSet<_>>(), names, "EXPERIMENTS.md headings");
    let mut wrong = Vec::new();
    for f in &table {
        match headings[f.name].as_slice() {
            [label] if paper_item(label) == paper_item(f.title) => {}
            labels => wrong.push(format!("{}: headings {labels:?}, title {:?}", f.name, f.title)),
        }
    }
    assert!(wrong.is_empty(), "EXPERIMENTS.md headings against the table:\n{}", wrong.join("\n"));
}

/// Plans, pools and renders the two cheapest entries at 1 and at 2 workers:
/// the rendered CSV bytes equal the committed files either way.
#[test]
fn rendering_is_byte_identical_at_any_worker_count() {
    let table = table();
    let cheap = ["table5_metadata", "fig13_gc_threads"];
    let cheap: Vec<&Figure> = table.iter().filter(|f| cheap.contains(&f.name)).collect();
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

/// How many leading CSV columns name an arm (its labels and sweep
/// coordinates), per figure. The rest of a row is the arm's value.
const KEY_COLUMNS: [(&str, usize); 16] = [
    ("fig6_spark", 3),        // bar,workload,mode
    ("fig6_giraph", 3),       // bar,workload,mode
    ("fig7_timeline", 2),     // config,row_kind
    ("fig8_collectors", 3),   // collector,workload,mode
    ("fig9_hints", 3),        // panel,workload,config
    ("fig10_regions", 2),     // region_words,workload
    ("fig11_gc_overhead", 3), // panel,workload,config
    ("fig12_nvm", 4),         // panel,config,workload,mode
    ("fig13_scaling", 4),     // panel,workload,config,threads_or_size
    ("fig13_gc_threads", 2),  // device,gc_threads
    ("fig14_pause_cdf", 4),   // device,h2,mode,pause_budget_ns
    ("fig15_tenants", 2),     // device,tenants
    ("fig16_placement", 4),   // device,arm,workload,mode
    ("fig17_query", 4),       // device,sessions,hot_pct,tenants
    ("table5_metadata", 1),   // region_mb
    ("ablations", 2),         // ablation,param
];

/// Arms allowed to render one row, as `(figure, column, values, owner)`:
/// two rows of `figure` may be equal where their keys differ only in
/// `column`, between the two `values`. `owner` is the ROADMAP item that
/// resolves the family, or why it is one configuration. Exact: an alias
/// that excuses no pair fails the gate, so the list can only shrink.
const ALIASES: [(&str, &str, [&str; 2], &str); 7] = [
    ("fig6_spark", "workload", ["LR", "LgR"], "1(b): one cost arm"),
    ("fig8_collectors", "workload", ["LR", "LgR"], "1(b): one cost arm"),
    ("fig12_nvm", "workload", ["LR", "LgR"], "1(b): one cost arm"),
    ("fig10_regions", "workload", ["PR", "CDLP"], "1(b): one Giraph arm"),
    ("fig11_gc_overhead", "workload", ["PR", "CDLP"], "1(b): one Giraph arm"),
    ("fig9_hints", "config", ["NL", "L"], "1(c): the low threshold never bites"),
    ("fig12_nvm", "panel", ["12a", "12b"], "one configuration: 12b re-runs 12a's TeraHeap"),
];

/// One CSV row: its key fields, its value (the rest of the line) and
/// whether it ran out of memory.
struct Row<'a> {
    key: Vec<&'a str>,
    value: &'a str,
    oom: bool,
}

/// Two rows of one committed CSV with equal values fail, unless both are
/// OOM or every key column where they differ is covered by an [`ALIASES`]
/// entry; an alias that excuses no pair fails too.
#[test]
fn every_arm_earns_its_row() {
    let key_columns: BTreeMap<&str, usize> = KEY_COLUMNS.into_iter().collect();
    let names: BTreeSet<&str> = table().iter().map(|f| f.name).collect();
    assert_eq!(key_columns.keys().copied().collect::<BTreeSet<_>>(), names, "KEY_COLUMNS");
    let mut used = [false; ALIASES.len()];
    let mut failures = Vec::new();
    for (&figure, &n) in &key_columns {
        let csv = std::fs::read_to_string(results().join(format!("{figure}.csv"))).unwrap();
        let mut lines = csv.lines();
        let header: Vec<&str> = lines.next().expect("header").split(',').collect();
        assert!(n < header.len(), "{figure}: {n} key columns leave no value");
        let oom = header.iter().position(|&column| column == "oom");
        let rows: Vec<Row> = lines
            .map(|line| {
                let mut fields: Vec<&str> = line.splitn(n + 1, ',').collect();
                let value = fields.pop().expect("a value after the key");
                let oom = oom.is_some_and(|i| line.split(',').nth(i) == Some("true"));
                Row { key: fields, value, oom }
            })
            .collect();
        for (i, a) in rows.iter().enumerate() {
            for b in rows[i + 1..].iter().filter(|b| b.value == a.value && !(a.oom && b.oom)) {
                let excuse = |c: usize| {
                    ALIASES.iter().position(|&(f, column, values, _)| {
                        f == figure
                            && column == header[c]
                            && values.contains(&a.key[c])
                            && values.contains(&b.key[c])
                    })
                };
                let differing = (0..n).filter(|&c| a.key[c] != b.key[c]);
                match differing.map(excuse).collect::<Option<Vec<usize>>>() {
                    Some(excused) if !excused.is_empty() => {
                        excused.iter().for_each(|&x| used[x] = true)
                    }
                    _ => failures.push(format!(
                        "{figure}: {} and {} both render {}",
                        a.key.join(","),
                        b.key.join(","),
                        a.value
                    )),
                }
            }
        }
    }
    for ((figure, column, [v, w], owner), _) in ALIASES.iter().zip(used).filter(|(_, u)| !u) {
        let stale = format!("stale alias {figure} {column} {{{v}, {w}}} ({owner}) excuses no pair");
        failures.push(stale);
    }
    assert!(failures.is_empty(), "arms that do not earn their row:\n{}", failures.join("\n"));
}
