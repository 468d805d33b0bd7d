//! Golden tables as data files: the one compare-or-rewrite mechanism under
//! every pin suite.
//!
//! A suite names its columns, opens `tests/golden/<suite>.txt` beside its
//! crate's manifest, hands every arm's numbers to [`Golden::check`] and ends
//! with [`Golden::finish`], which fails once with *every* moved cell as
//! `arm  column: old -> new`, every arm the file lacks and every file row no
//! arm claimed. With `TERAHEAP_GOLDEN_WRITE=1` in the environment `finish`
//! rewrites the file in check order instead and passes; `scripts/repin.sh` is
//! the command that does so for the whole repository. [`Golden::row`] and
//! [`Golden::cell`] lend pinned values to tests that assert on the table
//! itself or compare against another suite's row.
//!
//! The file is a `# columns:` line, then one line per arm — the arm's name
//! (no whitespace), then its numbers or the word `OOM` for an arm pinned to
//! run out of memory:
//!
//! ```text
//! # columns: total_ns minor_count
//! PR-OnHeap 38294 6
//! LR-OnHeap OOM
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

/// The word a row carries in place of numbers when its arm is pinned to run
/// out of memory.
const OOM: &str = "OOM";

/// One arm's pinned numbers; `None` for an arm pinned to run out of memory.
type Row = Option<Vec<u64>>;

/// One suite's golden file, and the comparisons made against it so far.
#[derive(Debug)]
pub struct Golden {
    path: PathBuf,
    columns: Vec<String>,
    /// The file's rows, in file order.
    pinned: Vec<(String, Row)>,
    /// What the suite measured, in check order.
    checked: Vec<(String, Row)>,
    write: bool,
}

impl Golden {
    /// Opens `<manifest_dir>/tests/golden/<suite>.txt`; pass
    /// `env!("CARGO_MANIFEST_DIR")`. Write mode is on iff
    /// `TERAHEAP_GOLDEN_WRITE=1`.
    ///
    /// # Panics
    ///
    /// In compare mode, if the file is missing, malformed or lists other
    /// columns than `columns`; the message names the file.
    pub fn open(manifest_dir: &str, suite: &str, columns: &[&str]) -> Golden {
        let write = std::env::var_os("TERAHEAP_GOLDEN_WRITE").is_some_and(|v| v == "1");
        let path = [manifest_dir, "tests", "golden", &format!("{suite}.txt")].iter().collect();
        Self::open_at(path, columns, write).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Golden::open`] with the file and the mode spelled out. Write mode
    /// starts from no pinned rows when the file is absent or unreadable as a
    /// table of `columns` — it is about to be replaced.
    fn open_at(path: PathBuf, columns: &[&str], write: bool) -> Result<Golden, String> {
        let columns: Vec<String> = columns.iter().map(|c| c.to_string()).collect();
        let parsed = std::fs::read_to_string(&path)
            .map_err(|e| format!("{}: {e}; scripts/repin.sh writes it", path.display()))
            .and_then(|text| {
                parse(&text, &columns).map_err(|e| format!("{}: {e}", path.display()))
            });
        let pinned = match parsed {
            Ok(rows) => rows,
            Err(_) if write => Vec::new(),
            Err(e) => return Err(e),
        };
        Ok(Golden { path, columns, pinned, checked: Vec::new(), write })
    }

    /// Records what `arm` measured — `None` if it ran out of memory — for
    /// [`Golden::finish`] to compare or write.
    ///
    /// # Panics
    ///
    /// If `got` has a number count other than the column count, or `arm` is
    /// not one whitespace-free word.
    pub fn check(&mut self, arm: &str, got: Option<&[u64]>) {
        assert!(
            !arm.is_empty() && !arm.contains(char::is_whitespace),
            "{}: arm name {arm:?} must be one word",
            self.path.display()
        );
        if let Some(got) = got {
            assert_eq!(got.len(), self.columns.len(), "{}: arm {arm}", self.path.display());
        }
        self.checked.push((arm.to_string(), got.map(<[u64]>::to_vec)));
    }

    /// The pinned numbers of `arm`, `None` if it is pinned to run out of
    /// memory.
    ///
    /// # Panics
    ///
    /// If the file has no row for `arm`.
    pub fn row(&self, arm: &str) -> Option<&[u64]> {
        let row = self.pinned(arm);
        row.unwrap_or_else(|| panic!("{}: no row for arm {arm}", self.path.display())).as_deref()
    }

    /// The file's row for `arm`, if it has one.
    fn pinned(&self, arm: &str) -> Option<&Row> {
        self.pinned.iter().find(|(name, _)| name == arm).map(|(_, row)| row)
    }

    /// The pinned value of `arm` in `column`.
    ///
    /// # Panics
    ///
    /// If the file has no such arm or column, or pins the arm to `OOM`.
    pub fn cell(&self, arm: &str, column: &str) -> u64 {
        let file = self.path.display();
        let at = self.columns.iter().position(|c| c == column);
        let at = at.unwrap_or_else(|| panic!("{file}: no column {column}"));
        self.row(arm).unwrap_or_else(|| panic!("{file}: arm {arm} is pinned to {OOM}"))[at]
    }

    /// Compares everything checked against the file, or in write mode
    /// replaces the file with it.
    ///
    /// # Panics
    ///
    /// In compare mode, with one report of every moved cell, every checked
    /// arm the file lacks and every file row nothing checked; in either mode
    /// if an arm was checked twice.
    pub fn finish(self) {
        if let Err(report) = self.verdict() {
            panic!("{report}");
        }
    }

    fn verdict(self) -> Result<(), String> {
        let file = self.path.display();
        for (i, (arm, _)) in self.checked.iter().enumerate() {
            if self.checked[..i].iter().any(|(earlier, _)| earlier == arm) {
                return Err(format!("{file}: arm {arm} checked twice"));
            }
        }
        if self.write {
            let text = render(&self.columns, &self.checked);
            if std::fs::read_to_string(&self.path).is_ok_and(|old| old == text) {
                return Ok(());
            }
            // Rename into place: a test borrowing rows from this file while
            // it is rewritten sees the old table or the new one, never half.
            let tmp = self.path.with_extension("txt.tmp");
            let dir = self.path.parent().expect("golden file has a parent directory");
            return std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&tmp, text))
                .and_then(|()| std::fs::rename(&tmp, &self.path))
                .map_err(|e| format!("{file}: {e}"));
        }

        let mut report = String::new();
        for (arm, got) in &self.checked {
            let Some(want) = self.pinned(arm) else {
                let _ = writeln!(report, "  {arm}: not in the file");
                continue;
            };
            match (want, got) {
                (Some(want), Some(got)) => {
                    for ((column, old), new) in self.columns.iter().zip(want).zip(got) {
                        if old != new {
                            let _ = writeln!(report, "  {arm}  {column}: {old} -> {new}");
                        }
                    }
                }
                (None, None) => {}
                (None, Some(_)) => {
                    let _ = writeln!(report, "  {arm}: {OOM} -> completes");
                }
                (Some(_), None) => {
                    let _ = writeln!(report, "  {arm}: completes -> {OOM}");
                }
            }
        }
        for (arm, _) in &self.pinned {
            if !self.checked.iter().any(|(name, _)| name == arm) {
                let _ = writeln!(report, "  {arm}: in the file, claimed by no arm");
            }
        }
        if report.is_empty() {
            return Ok(());
        }
        Err(format!(
            "{file} no longer holds (old -> new):\n{report}\
             a change that means to move these re-pins with scripts/repin.sh; any other must not"
        ))
    }
}

/// Parses a golden file's text against the columns its suite names.
fn parse(text: &str, columns: &[String]) -> Result<Vec<(String, Row)>, String> {
    let mut lines = text.lines().enumerate().map(|(i, line)| (i + 1, line));
    let header = lines.next().and_then(|(_, line)| line.strip_prefix("# columns:"));
    let header = header.ok_or("line 1: expected `# columns: ...`")?;
    if !header.split_whitespace().eq(columns.iter().map(String::as_str)) {
        return Err(format!("line 1: columns are{header}, the suite names {}", columns.join(" ")));
    }
    let mut rows: Vec<(String, Row)> = Vec::new();
    for (n, line) in lines {
        let mut words = line.split_whitespace();
        let arm = words.next().ok_or(format!("line {n}: empty"))?;
        if rows.iter().any(|(name, _)| name == arm) {
            return Err(format!("line {n}: arm {arm} appears twice"));
        }
        let cells: Vec<&str> = words.collect();
        let row = if cells == [OOM] {
            None
        } else {
            if cells.len() != columns.len() {
                let (got, want) = (cells.len(), columns.len());
                return Err(format!("line {n}: arm {arm} has {got} numbers for {want} columns"));
            }
            let parsed: Result<Vec<u64>, _> = cells.iter().map(|c| c.parse::<u64>()).collect();
            Some(parsed.map_err(|e| format!("line {n}: arm {arm}: {e}"))?)
        };
        rows.push((arm.to_string(), row));
    }
    Ok(rows)
}

/// The file text of `rows` under `columns`; [`parse`] is its inverse.
fn render(columns: &[String], rows: &[(String, Row)]) -> String {
    let mut text = format!("# columns: {}\n", columns.join(" "));
    for (arm, row) in rows {
        text.push_str(arm);
        match row {
            Some(numbers) => numbers.iter().for_each(|v| {
                let _ = write!(text, " {v}");
            }),
            None => {
                let _ = write!(text, " {OOM}");
            }
        }
        text.push('\n');
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    const COLUMNS: [&str; 3] = ["total_ns", "minor_count", "checksum"];

    /// A scratch golden path private to one test (tests run in parallel),
    /// beside the test binary so nothing is written outside the target
    /// directory.
    fn scratch(test: &str) -> PathBuf {
        let exe = std::env::current_exe().unwrap();
        let dir = exe.parent().unwrap().join("golden-selftest").join(test);
        let _ = std::fs::remove_dir_all(&dir);
        dir.join("tests").join("golden").join("suite.txt")
    }

    /// Opens `path` in the given mode, checks `arms` in order and finishes.
    fn run(path: &Path, write: bool, arms: &[(&str, Option<[u64; 3]>)]) -> Result<(), String> {
        let mut golden = Golden::open_at(path.to_path_buf(), &COLUMNS, write)?;
        for (arm, got) in arms {
            golden.check(arm, got.as_ref().map(|g| &g[..]));
        }
        golden.verdict()
    }

    fn write(path: &Path, arms: &[(&str, Option<[u64; 3]>)]) {
        run(path, true, arms).unwrap();
    }

    fn compare(path: &Path, arms: &[(&str, Option<[u64; 3]>)]) -> Result<(), String> {
        run(path, false, arms)
    }

    const ARMS: [(&str, Option<[u64; 3]>); 3] =
        [("a-1", Some([351_855, 9, u64::MAX])), ("b-oom", None), ("c", Some([0, 0, 0]))];

    #[test]
    fn write_then_read_round_trips_oom_rows_and_u64_max() {
        let path = scratch("round_trip");
        write(&path, &ARMS);
        compare(&path, &ARMS).unwrap();
        let golden = Golden::open_at(path.clone(), &COLUMNS, false).unwrap();
        assert_eq!(golden.row("a-1"), Some(&[351_855, 9, u64::MAX][..]));
        assert_eq!(golden.row("b-oom"), None);
        assert_eq!(golden.cell("a-1", "checksum"), u64::MAX);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "# columns: total_ns minor_count checksum\n\
             a-1 351855 9 18446744073709551615\nb-oom OOM\nc 0 0 0\n"
        );
    }

    #[test]
    fn one_moved_cell_is_reported_by_arm_column_old_and_new() {
        let path = scratch("one_cell");
        write(&path, &ARMS);
        let mut moved = ARMS;
        moved[2].1 = Some([0, 7, 0]);
        let report = compare(&path, &moved).unwrap_err();
        assert!(report.contains(path.to_str().unwrap()), "{report}");
        let cells: Vec<&str> = report.lines().filter(|l| l.starts_with("  ")).collect();
        assert_eq!(cells, ["  c  minor_count: 0 -> 7"], "{report}");
    }

    #[test]
    fn an_arm_changing_between_oom_and_completing_is_reported() {
        let path = scratch("oom_flip");
        write(&path, &ARMS);
        let mut moved = ARMS;
        moved[0].1 = None;
        moved[1].1 = Some([1, 2, 3]);
        let report = compare(&path, &moved).unwrap_err();
        assert!(
            report.contains("  a-1: completes -> OOM\n  b-oom: OOM -> completes\n"),
            "{report}"
        );
    }

    #[test]
    fn missing_arm_and_unclaimed_row_fail_naming_the_file() {
        let path = scratch("missing_unclaimed");
        write(&path, &ARMS);
        let report = compare(&path, &[ARMS[0], ARMS[1], ("d", Some([1, 1, 1]))]).unwrap_err();
        assert!(report.contains(path.to_str().unwrap()), "{report}");
        assert!(report.contains("  d: not in the file\n"), "{report}");
        assert!(report.contains("  c: in the file, claimed by no arm\n"), "{report}");
    }

    #[test]
    fn duplicate_arm_names_fail_naming_the_file() {
        let path = scratch("duplicate");
        write(&path, &ARMS);
        let twice = compare(&path, &[ARMS[0], ARMS[0]]).unwrap_err();
        assert!(twice.contains(path.to_str().unwrap()) && twice.contains("a-1 checked twice"));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, format!("{text}a-1 1 2 3\n")).unwrap();
        let in_file = compare(&path, &ARMS).unwrap_err();
        assert!(in_file.contains(path.to_str().unwrap()), "{in_file}");
        assert!(in_file.contains("line 5: arm a-1 appears twice"), "{in_file}");
    }

    #[test]
    fn wrong_column_counts_fail_naming_the_file() {
        let path = scratch("columns");
        write(&path, &ARMS);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("c 0 0 0", "c 0 0")).unwrap();
        let short_row = compare(&path, &ARMS).unwrap_err();
        assert!(short_row.contains(path.to_str().unwrap()), "{short_row}");
        assert!(short_row.contains("line 4: arm c has 2 numbers for 3 columns"), "{short_row}");
        // The suite grew a column the file does not have.
        write(&path, &ARMS);
        let wider = Golden::open_at(path.clone(), &["total_ns", "minor_count"], false).unwrap_err();
        assert!(wider.contains(path.to_str().unwrap()) && wider.contains("line 1"), "{wider}");
        // ... and write mode replaces such a file rather than tripping on it.
        Golden::open_at(path.clone(), &["total_ns", "minor_count"], true).unwrap();
    }

    #[test]
    fn a_missing_file_fails_in_compare_mode_naming_it_and_the_command() {
        let path = scratch("absent");
        let report = compare(&path, &ARMS).unwrap_err();
        assert!(report.contains(path.to_str().unwrap()) && report.contains("scripts/repin.sh"));
    }

    #[test]
    fn write_mode_leaves_an_unmoved_file_byte_identical() {
        let path = scratch("unmoved");
        write(&path, &ARMS);
        let before = std::fs::read(&path).unwrap();
        write(&path, &ARMS);
        assert_eq!(std::fs::read(&path).unwrap(), before);
        // Written in check order: a reordered suite reorders the file.
        write(&path, &[ARMS[2], ARMS[0], ARMS[1]]);
        assert!(std::fs::read_to_string(&path)
            .unwrap()
            .starts_with("# columns: total_ns minor_count checksum\nc 0 0 0\n"));
        compare(&path, &ARMS).unwrap();
    }
}
