//! A small in-repo micro-benchmark harness.
//!
//! Replaces the external benchmark crate for the repo's hot-path
//! measurements. A benchmark binary builds a [`Bench`], opens named
//! [`Group`]s, and registers functions that drive a [`Bencher`]:
//!
//! * [`Bencher::iter`] — time a closure (batched so per-sample timer
//!   overhead is amortized for nanosecond-scale bodies);
//! * [`Bencher::iter_with_setup`] — rebuild untimed state before each
//!   timed run;
//! * [`Bencher::iter_custom`] — report simulated nanoseconds yourself
//!   (e.g. from `SimClock`) instead of wall-clock time.
//!
//! Each benchmark runs a warm-up phase, then collects per-sample timings
//! and reports mean/p50/p99 plus optional byte throughput. Results print as
//! a table and can be written as CSV (the figure harnesses put them under
//! `results/`). Setting `TERAHEAP_BENCH_QUICK=1` cuts warm-up and sample
//! counts for smoke runs (CI runs the benches only to keep them compiling
//! and running, not for stable numbers).

use std::time::Instant;

pub use std::hint::black_box;

/// One benchmark's aggregated measurements.
#[derive(Debug, Clone)]
pub struct Record {
    /// `group/name` identifier.
    pub id: String,
    /// Total timed iterations across all samples.
    pub iterations: u64,
    /// Number of samples (each sample times a batch of iterations).
    pub samples: usize,
    /// Mean nanoseconds per iteration.
    pub mean_ns: f64,
    /// Median nanoseconds per iteration.
    pub p50_ns: f64,
    /// 99th-percentile nanoseconds per iteration.
    pub p99_ns: f64,
    /// Fastest sample, nanoseconds per iteration.
    pub min_ns: f64,
    /// Slowest sample, nanoseconds per iteration.
    pub max_ns: f64,
    /// Declared bytes processed per iteration (0 when not set).
    pub bytes_per_iter: u64,
}

impl Record {
    /// Throughput in MB/s, when a byte count was declared.
    pub fn throughput_mbps(&self) -> Option<f64> {
        if self.bytes_per_iter == 0 || self.mean_ns == 0.0 {
            None
        } else {
            Some(self.bytes_per_iter as f64 * 1e9 / self.mean_ns / 1e6)
        }
    }
}

/// Tuning knobs shared by every benchmark in a [`Bench`].
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Wall-clock budget for the warm-up phase, in nanoseconds.
    pub warmup_ns: u64,
    /// Number of samples to collect.
    pub samples: usize,
    /// Target duration of one sample batch, in nanoseconds. The batch size
    /// (iterations per sample) is calibrated from the warm-up estimate.
    pub target_sample_ns: u64,
}

impl BenchConfig {
    /// Defaults: ~50 ms warm-up, 100 samples of ~200 µs each; with
    /// `TERAHEAP_BENCH_QUICK=1`, a few-millisecond smoke configuration.
    pub fn from_env() -> Self {
        if std::env::var("TERAHEAP_BENCH_QUICK").map(|v| v == "1").unwrap_or(false) {
            BenchConfig { warmup_ns: 1_000_000, samples: 15, target_sample_ns: 20_000 }
        } else {
            BenchConfig { warmup_ns: 50_000_000, samples: 100, target_sample_ns: 200_000 }
        }
    }
}

/// Collects [`Record`]s from registered benchmark functions.
#[derive(Debug)]
pub struct Bench {
    config: BenchConfig,
    records: Vec<Record>,
}

impl Default for Bench {
    fn default() -> Self {
        Bench::new()
    }
}

impl Bench {
    /// A harness configured from the environment (see
    /// [`BenchConfig::from_env`]).
    pub fn new() -> Self {
        Bench { config: BenchConfig::from_env(), records: Vec::new() }
    }

    /// A harness with explicit tuning (tests use tiny budgets).
    pub fn with_config(config: BenchConfig) -> Self {
        Bench { config, records: Vec::new() }
    }

    /// Opens a named group; benchmarks register as `group/name`.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        Group { bench: self, name: name.to_string(), bytes_per_iter: 0 }
    }

    /// All records collected so far.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Writes the records as CSV (header + one row per benchmark).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn write_csv(&self, out: &mut dyn std::io::Write) -> std::io::Result<()> {
        writeln!(
            out,
            "benchmark,iterations,samples,mean_ns,p50_ns,p99_ns,min_ns,max_ns,throughput_mbps"
        )?;
        for r in &self.records {
            writeln!(
                out,
                "{},{},{},{:.1},{:.1},{:.1},{:.1},{:.1},{}",
                r.id,
                r.iterations,
                r.samples,
                r.mean_ns,
                r.p50_ns,
                r.p99_ns,
                r.min_ns,
                r.max_ns,
                r.throughput_mbps().map(|t| format!("{t:.1}")).unwrap_or_default(),
            )?;
        }
        Ok(())
    }

    /// Writes the CSV to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_csv_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::fs::File::create(path)?;
        self.write_csv(&mut f)
    }

    /// Prints an aligned summary table to stdout.
    pub fn print_summary(&self) {
        let width = self.records.iter().map(|r| r.id.len()).max().unwrap_or(8).max(8);
        println!(
            "{:width$}  {:>12}  {:>12}  {:>12}  {:>10}",
            "benchmark", "mean", "p50", "p99", "thrpt"
        );
        for r in &self.records {
            println!(
                "{:width$}  {:>12}  {:>12}  {:>12}  {:>10}",
                r.id,
                fmt_ns(r.mean_ns),
                fmt_ns(r.p50_ns),
                fmt_ns(r.p99_ns),
                r.throughput_mbps()
                    .map(|t| format!("{t:.0} MB/s"))
                    .unwrap_or_else(|| "-".to_string()),
            );
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted sample slice.
/// `p` is a fraction in `[0, 1]` (0.99 = p99). Panics on an empty slice,
/// like any percentile would be meaningless there.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    let p = p.clamp(0.0, 1.0);
    sorted[(((sorted.len() - 1) as f64) * p).round() as usize]
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else {
        format!("{:.2} ms", ns / 1_000_000.0)
    }
}

/// A named group of related benchmarks.
pub struct Group<'a> {
    bench: &'a mut Bench,
    name: String,
    bytes_per_iter: u64,
}

impl Group<'_> {
    /// Declares bytes processed per iteration for subsequently registered
    /// benchmarks, enabling MB/s reporting.
    pub fn throughput_bytes(&mut self, bytes: u64) -> &mut Self {
        self.bytes_per_iter = bytes;
        self
    }

    /// Runs `f` under this group as `group/name`.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher)) {
        let id = format!("{}/{}", self.name, name);
        let mut bencher = Bencher { config: self.bench.config.clone(), measurement: None };
        let mut f = f;
        f(&mut bencher);
        let m = bencher
            .measurement
            .unwrap_or_else(|| panic!("benchmark {id} never called an iter method"));
        self.bench.records.push(m.into_record(id, self.bytes_per_iter));
    }

    /// Convenience for parameterized benchmarks: registers as
    /// `group/name/param`, passing `input` to the closure.
    pub fn bench_with_input<I>(
        &mut self,
        name: &str,
        param: &dyn std::fmt::Display,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) {
        self.bench_function(&format!("{name}/{param}"), |b| f(b, input));
    }

    /// Ends the group (no-op; kept for call-site symmetry).
    pub fn finish(self) {}
}

struct Measurement {
    per_iter_ns: Vec<f64>,
    iterations: u64,
}

impl Measurement {
    fn into_record(mut self, id: String, bytes_per_iter: u64) -> Record {
        assert!(!self.per_iter_ns.is_empty(), "benchmark {id} produced no samples");
        self.per_iter_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let s = &self.per_iter_ns;
        let mean = s.iter().sum::<f64>() / s.len() as f64;
        Record {
            id,
            iterations: self.iterations,
            samples: s.len(),
            mean_ns: mean,
            p50_ns: percentile(s, 0.50),
            p99_ns: percentile(s, 0.99),
            min_ns: s[0],
            max_ns: s[s.len() - 1],
            bytes_per_iter,
        }
    }
}

/// Drives the timed iterations of one benchmark.
pub struct Bencher {
    config: BenchConfig,
    measurement: Option<Measurement>,
}

impl Bencher {
    /// Times `f`, batching iterations per sample so timer overhead is
    /// amortized.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        // Warm up and estimate per-iteration cost.
        let warmup_start = Instant::now();
        let mut warm_iters = 0u64;
        while warmup_start.elapsed().as_nanos() < self.config.warmup_ns as u128 {
            black_box(f());
            warm_iters += 1;
        }
        let est_ns = (warmup_start.elapsed().as_nanos() as u64 / warm_iters.max(1)).max(1);
        let batch = (self.config.target_sample_ns / est_ns).clamp(1, 1 << 20);

        let mut samples = Vec::with_capacity(self.config.samples);
        let mut total_iters = 0u64;
        for _ in 0..self.config.samples {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let elapsed = start.elapsed().as_nanos() as f64;
            samples.push(elapsed / batch as f64);
            total_iters += batch;
        }
        self.measurement = Some(Measurement { per_iter_ns: samples, iterations: total_iters });
    }

    /// Times `f(state)` with `setup()` rebuilding `state` untimed before
    /// every call (for benchmarks that consume or dirty their input).
    pub fn iter_with_setup<S, R>(
        &mut self,
        mut setup: impl FnMut() -> S,
        mut f: impl FnMut(S) -> R,
    ) {
        // Setup dominates warm-up budget, so warm up a fixed small count.
        for _ in 0..3 {
            black_box(f(setup()));
        }
        let mut samples = Vec::with_capacity(self.config.samples);
        let mut total_iters = 0u64;
        for _ in 0..self.config.samples {
            let state = setup();
            let start = Instant::now();
            black_box(f(state));
            samples.push(start.elapsed().as_nanos() as f64);
            total_iters += 1;
        }
        self.measurement = Some(Measurement { per_iter_ns: samples, iterations: total_iters });
    }

    /// Collects samples from a closure that reports its own nanoseconds for
    /// a batch of `iters` iterations — the hook for simulated-time
    /// (`SimClock`) benchmarks.
    pub fn iter_custom(&mut self, mut f: impl FnMut(u64) -> u64) {
        let batch = 8u64;
        let mut samples = Vec::with_capacity(self.config.samples);
        let mut total_iters = 0u64;
        for _ in 0..self.config.samples {
            let ns = f(batch);
            samples.push(ns as f64 / batch as f64);
            total_iters += batch;
        }
        self.measurement = Some(Measurement { per_iter_ns: samples, iterations: total_iters });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> BenchConfig {
        BenchConfig { warmup_ns: 50_000, samples: 8, target_sample_ns: 5_000 }
    }

    #[test]
    fn iter_produces_positive_stats() {
        let mut bench = Bench::with_config(tiny_config());
        let mut g = bench.group("t");
        g.bench_function("sum", |b| {
            b.iter(|| (0..100u64).sum::<u64>());
        });
        g.finish();
        let r = &bench.records()[0];
        assert_eq!(r.id, "t/sum");
        assert!(r.mean_ns > 0.0);
        assert!(r.min_ns <= r.p50_ns && r.p50_ns <= r.p99_ns && r.p99_ns <= r.max_ns);
    }

    #[test]
    fn custom_time_is_used_verbatim() {
        let mut bench = Bench::with_config(tiny_config());
        let mut g = bench.group("sim");
        g.bench_function("const", |b| b.iter_custom(|iters| iters * 1000));
        g.finish();
        let r = &bench.records()[0];
        assert_eq!(r.mean_ns, 1000.0);
        assert_eq!(r.p99_ns, 1000.0);
    }

    #[test]
    fn throughput_reported_when_bytes_declared() {
        let mut bench = Bench::with_config(tiny_config());
        let mut g = bench.group("io");
        g.throughput_bytes(1_000_000);
        g.bench_function("copy", |b| b.iter_custom(|iters| iters * 1_000_000));
        g.finish();
        // 1 MB per simulated ms = 1000 MB/s.
        let t = bench.records()[0].throughput_mbps().unwrap();
        assert!((t - 1000.0).abs() < 1.0, "throughput {t}");
    }
}
