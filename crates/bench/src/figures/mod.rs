//! The evaluation as one table: every figure, table and ablation is a
//! [`Figure`] — a name (its CSV stem), a title, a CSV header, a `plan` that
//! only builds independent simulation jobs and a pure `render` from their
//! ordered results to text, CSV rows and failed self-gates. [`run`] is the
//! only code that executes jobs; the `figures` binary the only one touching
//! disk. DESIGN.md §4 has the experiment index.

use crate::harness::{run_parallel, Job, Rendered};
use std::any::Any;

type Erased = Box<dyn Any + Send>;

/// One entry of the evaluation table.
pub struct Figure {
    /// CSV stem under `results/` and the name `figures <name>` selects.
    pub name: &'static str,
    /// One-line description (`figures list`, and the banner above the text).
    pub title: &'static str,
    /// First line of `results/<name>.csv`.
    pub csv_header: String,
    /// Builds the figure's jobs; runs no simulation.
    plan: Box<dyn Fn() -> Vec<Job<Erased>>>,
    /// Renders the results of `plan`'s jobs, in `plan`'s order.
    render: Box<dyn Fn(Vec<Erased>) -> Rendered>,
}

impl Figure {
    /// An entry from its typed halves: `arms` pairs each job with the key
    /// (labels, sweep coordinates) `render` reports its result under.
    pub fn new<K: 'static, T: Send + 'static>(
        name: &'static str,
        title: &'static str,
        csv_header: impl Into<String>,
        arms: impl Fn() -> Vec<(K, Job<T>)> + Clone + 'static,
        render: impl Fn(&mut Rendered, Vec<(K, T)>) + 'static,
    ) -> Figure {
        let keys = arms.clone();
        let erase = |job: Job<T>| Box::new(move || Box::new(job()) as Erased) as Job<Erased>;
        Figure {
            name,
            title,
            csv_header: csv_header.into(),
            plan: Box::new(move || arms().into_iter().map(|(_, job)| erase(job)).collect()),
            render: Box::new(move |results| {
                let typed = results.into_iter().map(|r| *r.downcast::<T>().expect("job's type"));
                let mut out = Rendered::default();
                render(&mut out, keys().into_iter().map(|(key, _)| key).zip(typed).collect());
                out
            }),
        }
    }

    /// The bytes of `results/<name>.csv` for a rendering of this figure.
    pub fn csv_text(&self, rendered: &Rendered) -> String {
        let lines = std::iter::once(&self.csv_header).chain(&rendered.csv);
        lines.flat_map(|line| [line.as_str(), "\n"]).collect()
    }
}

/// Header of a figure of `RunReport::csv_row`s behind its own key column(s).
fn bars(key_columns: &str) -> String {
    format!("{key_columns},{}", mini_spark::RunReport::csv_header())
}

/// The table: `module (= CSV stem): title, CSV header;` per entry, in paper
/// order. Declares the modules and [`table`].
macro_rules! figures {
    ($($name:ident: $title:expr, $header:expr;)*) => {
        $(mod $name;)*

        /// Every figure, table and ablation, in paper order.
        pub fn table() -> Vec<Figure> {
            vec![$(Figure::new(stringify!($name), $title, $header, $name::arms, $name::render)),*]
        }
    };
}

figures! {
    fig6_spark: "Figure 6 (Spark): TeraHeap (TH) vs Spark-SD, NVMe", bars("bar");
    fig6_giraph: "Figure 6 (Giraph): TeraHeap (TH) vs Giraph-OOC, NVMe",
        "bar,workload,mode,oom,other_ns,sd_io_ns,gc_ns,total_ms";
    fig7_timeline: "Figure 7: GC timeline, Spark PR, equal heap", "config,row_kind,a,b,c,d";
    fig8_collectors: "Figure 8: PS vs G1 vs TeraHeap (TH), equal DRAM", bars("collector");
    fig9_hints: "Figure 9: h2_move transfer hint (a) and low transfer threshold (b) on Giraph",
        "panel,workload,config,oom,total_ns";
    fig10_regions: "Figure 10: per-region live objects / live space CDFs",
        "region_words,workload,allocated,reclaimed,live_obj_cdf,live_space_cdf,unused_pct";
    fig11_gc_overhead: "Figure 11: H2 minor-GC time vs card segment size (a), major-GC phases (b)",
        "panel,workload,config,a,b,c,d";
    fig12_nvm: "Figure 12: TeraHeap over NVM vs Spark-SD (a), Spark-MO (b), Panthera (c)",
        bars("panel,config");
    fig13_scaling: "Figure 13: scaling with mutator threads (a) and dataset size (b)",
        "panel,workload,config,threads_or_size,oom,total_ns";
    fig13_gc_threads: "GC pause time vs gc_threads vs device (work-unit scheduler)",
        "device,gc_threads,minor_gcs,mean_minor_pause_ns,major_gcs,mean_major_pause_ns,\
         minor_gc_ns,major_gc_ns,total_ns";
    fig14_pause_cdf: "Major-GC pause distribution: stop-world PS vs incremental (pause budget)",
        "device,h2,mode,pause_budget_ns,major_pauses,major_mean_ns,major_p50_ns,major_p99_ns,\
         major_p999_ns,major_max_ns,minor_pauses,minor_mean_pause_ns,total_ns";
    fig15_tenants: "Figure 15: tenant scaling on one shared H2 device",
        "device,tenants,total_rounds,agg_rounds_per_sec,makespan_ns,device_vtime_ns,\
         p99_mean_ns,p99_max_ns,queued_ns,busy_ns,deferrals,jain_fairness,oom_rounds";
    fig16_placement: "Figure 16: adaptive placement ablation (mixed hot/cold)",
        bars("device,arm") + ",serializations,deserializations,pretenured,h2_objects,checksum";
    fig17_query: "Figure 17: query-serving latency (sessions x device x hot fraction)",
        "device,sessions,hot_pct,tenants,ops,p50_ns,p99_ns,p999_ns,max_ns,mean_ns,\
         makespan_ns,ops_per_sec,device_vtime_ns,device_queued_ns,h2_chunks,checksum";
    table5_metadata: "Table 5: H2 metadata per TB vs region size", "region_mb,metadata_mb";
    ablations: "Design ablations beyond the paper's sweeps", "ablation,param,a,b";
}

/// Runs the jobs of every figure in `figures` on one pool of `workers`
/// threads and renders each figure from its own slice of the ordered results.
pub fn run(figures: &[&Figure], workers: usize) -> Vec<Rendered> {
    let plans: Vec<Vec<Job<Erased>>> = figures.iter().map(|f| (f.plan)()).collect();
    let counts: Vec<usize> = plans.iter().map(Vec::len).collect();
    let mut results = run_parallel(plans.into_iter().flatten().collect(), workers).into_iter();
    let render = |(f, n): (&&Figure, usize)| (f.render)(results.by_ref().take(n).collect());
    figures.iter().zip(counts).map(render).collect()
}
