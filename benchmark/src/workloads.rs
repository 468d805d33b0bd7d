//! One repetition of each workload, driven from outside through the crates'
//! public entry points.
//!
//! A rep runs its arms serially on the calling thread, wraps every call
//! into a layer in a host-time span, and afterwards reads whatever the
//! public accessors expose. Everything simulated that a rep observes is
//! folded into its fingerprint, so two reps of one seed can be compared
//! exactly.

use crate::arms::{self, GiraphArm, Scale, Side, SparkArm};
use crate::spans::{Cost, Spans};
use crate::stats::percentile_permille;
use mini_giraph::workloads::run_giraph_with_context;
use mini_spark::{run_workload_on, SparkContext};
use std::collections::BTreeMap;
use std::sync::Arc;
use teraheap_obs::timeline::gc_cycles;
use teraheap_obs::{CardTableKind, EventKind, GcKind};
use teraheap_query::{
    gen_rows, op_for, run_query, run_query_plane, Fnv, QueryPlaneConfig, Table, TableConfig,
    TablePlacement, COLS,
};
use teraheap_runtime::Heap;
use teraheap_server::{Server, ServerConfig};
use teraheap_storage::{Breakdown, SharedDevice, SimClock};

/// The five workloads. Names are final: later issues refer to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SparkBatch,
    GiraphBatch,
    QueryCold,
    QueryHot,
    TenantsMixed,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::SparkBatch,
        Workload::GiraphBatch,
        Workload::QueryCold,
        Workload::QueryHot,
        Workload::TenantsMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SparkBatch => "spark_batch",
            Workload::GiraphBatch => "giraph_batch",
            Workload::QueryCold => "query_cold",
            Workload::QueryHot => "query_hot",
            Workload::TenantsMixed => "tenants_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, one line (also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SparkBatch => "Paper headline (Fig. 6): Spark PR/CC/LR/SVM/RL, TeraHeap vs Spark-SD at equal DRAM; GC and S/D dominate, H2 is read-mostly, query/server idle",
            Workload::GiraphBatch => "Same core/storage layers used for writes: H2 objects mutated until the superstep barrier, so H2 cards, write-back and region reclaim do the work",
            Workload::QueryCold => "Working set 6x the page cache: storage fault/evict path and the device arbiter dominate, GC idle after load, kryo unused",
            Workload::QueryHot => "Same ops served from H1: executor and read path only, device bypassed; the control on which storage/arbiter changes must show no change",
            Workload::TenantsMixed => "Four heterogeneous closed-loop tenants on one device: the only workload where layers contend (arbiter queueing, admission, fairness)",
        }
    }

    /// What one op is, and how load is generated.
    pub fn load(self) -> String {
        match self {
            Workload::SparkBatch => "op = arm; 20 arms run serially, one generator thread".into(),
            Workload::GiraphBatch => "op = arm; 10 arms run serially, one generator thread".into(),
            Workload::QueryCold | Workload::QueryHot => format!(
                "op = query; closed loop, {} sessions over {} tenants, think 20 us, {} ops",
                arms::QUERY_SESSIONS,
                arms::QUERY_TENANTS,
                arms::QUERY_OPS
            ),
            Workload::TenantsMixed => format!(
                "op = job round; closed loop, 4 tenants x {} rounds, equal weights",
                arms::TENANT_ROUNDS
            ),
        }
    }

    /// The query workload that runs the same ops with the other placement.
    pub fn sibling(self) -> Option<Workload> {
        match self {
            Workload::QueryCold => Some(Workload::QueryHot),
            Workload::QueryHot => Some(Workload::QueryCold),
            _ => None,
        }
    }
}

/// Everything a workload needs to run, built from the seed alone.
pub enum Plan {
    Spark(Vec<SparkArm>),
    Giraph(Vec<GiraphArm>),
    Query(Box<QueryPlaneConfig>),
    Tenants(ServerConfig),
}

impl Plan {
    pub fn build(workload: Workload, seed: u64, scale: Scale) -> Plan {
        match workload {
            Workload::SparkBatch => Plan::Spark(arms::spark_arms(seed, scale)),
            Workload::GiraphBatch => Plan::Giraph(arms::giraph_arms(seed, scale)),
            Workload::QueryCold => Plan::Query(Box::new(arms::query_config(seed, 0, scale))),
            Workload::QueryHot => Plan::Query(Box::new(arms::query_config(seed, 100, scale))),
            Workload::TenantsMixed => Plan::Tenants(arms::tenants_config(seed, scale)),
        }
    }
}

/// Named per-layer counts. Absent key = the metric cannot be read from
/// outside on this workload; it is never estimated.
pub type Counters = BTreeMap<&'static str, f64>;

fn add(c: &mut Counters, name: &'static str, v: u64) {
    *c.entry(name).or_insert(0.0) += v as f64;
}

/// Flight-recorder readings summed over a rep's clocks (all zero with
/// `TERAHEAP_OBS=off`).
#[derive(Debug, Default, Clone)]
pub struct TraceTotals {
    pub emitted: u64,
    pub dropped: u64,
    /// `SimClock::charge` calls — the simulator's event count.
    pub charges: u64,
    /// Every GC pause recorded (`GcBegin` to `GcEnd`), simulated ns.
    pub pauses_ns: Vec<u64>,
    /// Clocks the benchmark could reach (the query plane hides its own).
    pub clocks: u64,
}

/// What one rep produced.
#[derive(Debug, Default, Clone)]
pub struct RepOutcome {
    /// Ops attempted: arms, queries or job rounds.
    pub ops: u64,
    /// One line per failed op.
    pub failures: Vec<String>,
    /// Simulated ns of the system under test: TeraHeap arms summed, or the
    /// plane's makespan.
    pub sim_ns: u64,
    /// Simulated ns summed over the completing baseline arms.
    pub sim_base_ns: u64,
    /// Ops completed per simulated second over everything the rep ran.
    pub sim_ops_per_s: f64,
    /// Per-op simulated latency (an op being what `ops` counts).
    pub lat_p50_ns: u64,
    pub lat_p99_ns: u64,
    pub lat_n: u64,
    /// FNV over every simulated number the rep observed.
    pub fingerprint: u64,
    /// The workload's answer checksum where one exists across workloads
    /// (`query_cold` and `query_hot` must agree).
    pub answer: Option<u64>,
    pub counters: Counters,
    pub trace: TraceTotals,
    /// Baseline arms that completed / hit the OOM the paper expects.
    pub base_completed: u64,
    pub base_oom: u64,
    /// Simulated ns of both sides over the pairs where both completed.
    pub paired_th_ns: u64,
    pub paired_base_ns: u64,
    /// Host seconds spent inside TeraHeap / baseline arms.
    pub side_host_s: [f64; 2],
    /// Host cost of the rep's calls, summed (see `Spans::measure`).
    pub cost: RepCost,
}

/// Host cost of one rep, summed over its measured calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct RepCost {
    /// On-CPU seconds at reference machine speed: what `host_s` reports.
    pub host_s: f64,
    /// On-CPU seconds as measured.
    pub cpu_s: f64,
    /// Wall-clock seconds.
    pub wall_s: f64,
}

impl RepCost {
    fn add(&mut self, cost: &Cost) {
        self.host_s += cost.host_s;
        self.cpu_s += cost.cpu_s;
        self.wall_s += cost.wall_ns as f64 / 1e9;
    }
}

fn push_breakdown(f: &mut Fnv, b: &Breakdown) {
    for v in [b.other_ns, b.sd_io_ns, b.minor_gc_ns, b.major_gc_ns] {
        f.push(v);
    }
}

/// Reads every counter a live heap exposes.
fn read_heap(heap: &Heap, c: &mut Counters) {
    let s = heap.stats();
    add(c, "runtime.minor_gcs", s.minor_count);
    add(c, "runtime.major_gcs", s.major_count);
    add(c, "runtime.minor_gc_ns", s.minor_ns);
    add(c, "runtime.major_gc_ns", s.major_ns);
    add(c, "runtime.mark_ns", s.phases.marking_ns);
    add(c, "runtime.precompact_ns", s.phases.precompact_ns);
    add(c, "runtime.adjust_ns", s.phases.adjust_ns);
    add(c, "runtime.compact_ns", s.phases.compact_ns);
    add(c, "runtime.lane_stall_ns", s.lane_stall_ns);
    add(c, "core.forward_refs_fenced", s.forward_refs_fenced);
    add(c, "core.backward_refs_seen", s.backward_refs_seen);
    add(c, "core.h2_cards_scanned_minor", s.h2_cards_scanned_minor);
    add(c, "core.h2_minor_scan_ns", s.h2_minor_scan_ns);
    add(c, "core.pretenured_words", s.pretenured_words);
    if let Some(h2) = heap.h2() {
        add(c, "core.h2_objects_promoted", h2.objects_promoted());
        add(c, "core.h2_words_promoted", h2.words_promoted());
        add(c, "core.regions_allocated", h2.regions().allocated_total());
        add(c, "core.regions_reclaimed", h2.regions().reclaimed_total());
        let io = h2.mmap().stats();
        add(c, "storage.read_bytes", io.read_bytes());
        add(c, "storage.write_bytes", io.write_bytes());
        add(c, "storage.read_ops", io.read_ops());
        add(c, "storage.write_ops", io.write_ops());
        add(c, "storage.page_faults", io.page_faults());
        add(c, "storage.seq_faults", io.seq_faults());
        add(c, "storage.evictions", io.evictions());
        add(c, "storage.io_retries", io.io_retries());
    }
}

/// Folds the I/O counters that pin a TeraHeap arm's storage behaviour into
/// the fingerprint.
fn push_io(f: &mut Fnv, heap: &Heap) {
    if let Some(h2) = heap.h2() {
        let io = h2.mmap().stats();
        for v in [
            io.read_bytes(),
            io.write_bytes(),
            io.page_faults(),
            io.evictions(),
        ] {
            f.push(v);
        }
    }
}

/// Reads one clock's flight recorder. `storage_from_trace` is set where no
/// heap is reachable, so page-cache counts can only come from events.
fn read_tracer(clock: &SimClock, t: &mut TraceTotals, c: &mut Counters, storage_from_trace: bool) {
    let tracer = clock.tracer();
    if !tracer.enabled() {
        return;
    }
    t.clocks += 1;
    t.emitted += tracer.emitted();
    t.dropped += tracer.dropped();
    t.charges += tracer.charge_counts().iter().sum::<u64>();
    let counts = tracer.counts();
    let count = |class: &str| {
        counts
            .iter()
            .find(|(n, _)| *n == class)
            .map_or(0, |&(_, n)| n)
    };
    add(c, "core.promo_flushes", count("h2_promo_flush"));
    let events = tracer.events();
    let cycles = gc_cycles(&events);
    t.pauses_ns.extend(cycles.iter().map(|g| g.duration_ns));
    if storage_from_trace {
        add(c, "storage.page_faults", count("page_fault"));
        add(c, "storage.evictions", count("page_evict"));
        add(c, "storage.io_retries", count("io_retry"));
        add(
            c,
            "runtime.minor_gcs",
            cycles.iter().filter(|g| g.gc == GcKind::Minor).count() as u64,
        );
        add(
            c,
            "runtime.major_gcs",
            cycles.iter().filter(|g| g.gc == GcKind::Major).count() as u64,
        );
        for e in &events {
            match e.kind {
                EventKind::PageFault { sequential: true } => add(c, "storage.seq_faults", 1),
                EventKind::CardScan {
                    table: CardTableKind::H2Minor,
                    cards,
                } => add(c, "core.h2_cards_scanned_minor", cards),
                EventKind::Pretenure { words, .. } => add(c, "core.pretenured_words", words),
                EventKind::GcEnd {
                    promoted_h2_words, ..
                } => add(c, "core.h2_words_promoted", promoted_h2_words),
                _ => {}
            }
        }
    }
}

/// Bookkeeping shared by the two batch workloads: arms come in
/// (TeraHeap, baseline) pairs with identical inputs.
#[derive(Default)]
struct Batch {
    out: RepOutcome,
    fp: Fnv,
    arm_sim_ns: Vec<u64>,
    /// The pair's TeraHeap half: (simulated ns, checksum bits) if it completed.
    th: Option<(u64, u64)>,
}

impl Batch {
    #[allow(clippy::too_many_arguments)] // one call site per framework; a struct would only rename them
    fn arm(
        &mut self,
        name: &str,
        side: Side,
        oom: bool,
        breakdown: Breakdown,
        checksum: f64,
        gcs: (u64, u64),
        cost: &Cost,
    ) {
        let f = &mut self.fp;
        f.push(oom as u64);
        push_breakdown(f, &breakdown);
        f.push(gcs.0);
        f.push(gcs.1);
        f.push(checksum.to_bits());
        self.out.ops += 1;
        self.out.side_host_s[side as usize] += cost.host_s;
        self.out.cost.add(cost);
        let total = breakdown.total_ns();
        match (side, oom) {
            (Side::TeraHeap, true) => {
                self.th = None;
                self.out
                    .failures
                    .push(format!("{name}: TeraHeap arm ran out of memory"));
            }
            (Side::TeraHeap, false) => {
                self.th = Some((total, checksum.to_bits()));
                self.out.sim_ns += total;
                self.arm_sim_ns.push(total);
            }
            // A baseline OOM is the paper's missing bar, not a failure.
            (Side::Baseline, true) => self.out.base_oom += 1,
            (Side::Baseline, false) => {
                self.out.base_completed += 1;
                self.out.sim_base_ns += total;
                self.arm_sim_ns.push(total);
                if let Some((th_ns, th_bits)) = self.th {
                    self.out.paired_th_ns += th_ns;
                    self.out.paired_base_ns += total;
                    if th_bits != checksum.to_bits() {
                        self.out.failures.push(format!(
                            "{name}: checksum {checksum:?} differs from the TeraHeap arm's {:?}",
                            f64::from_bits(th_bits)
                        ));
                    }
                }
            }
        }
    }

    fn finish(mut self) -> RepOutcome {
        let completed = self.arm_sim_ns.len() as f64;
        let all_ns: u64 = self.arm_sim_ns.iter().sum();
        self.out.sim_ops_per_s = completed / (all_ns.max(1) as f64 / 1e9);
        self.out.lat_p50_ns = percentile_permille(&self.arm_sim_ns, 500);
        self.out.lat_p99_ns = percentile_permille(&self.arm_sim_ns, 990);
        self.out.lat_n = self.arm_sim_ns.len() as u64;
        self.out.fingerprint = self.fp.finish();
        self.out
    }
}

fn rep_spark(arms: &[SparkArm], spans: &mut Spans) -> RepOutcome {
    let mut batch = Batch::default();
    for arm in arms {
        let mut config = arm.config;
        config.heap.obs_events = TRACE_RING_EVENTS;
        let ((ctx, result), cost) = spans.measure("spark.run_workload_on", &arm.name, || {
            let mut ctx = SparkContext::new(config);
            let result = run_workload_on(arm.workload, &mut ctx, arm.dataset);
            (ctx, result)
        });
        // Reading a traced arm's event ring takes real time; give it a span
        // of its own so the rep stays covered by its children.
        let reading = spans.enter(READ_SPAN, &arm.name);
        let breakdown = ctx.heap.clock().breakdown();
        let stats = ctx.heap.stats();
        let gcs = (stats.minor_count, stats.major_count);
        let c = &mut batch.out.counters;
        read_heap(&ctx.heap, c);
        add(c, "storage.sd_io_ns", breakdown.sd_io_ns);
        match arm.side {
            Side::TeraHeap => add(c, "spark.other_ns", breakdown.other_ns),
            Side::Baseline => {
                add(c, "spark.base_sd_io_ns", breakdown.sd_io_ns);
                add(c, "kryo.serializations", ctx.bm.serializations());
                add(c, "kryo.deserializations", ctx.bm.deserializations());
            }
        }
        read_tracer(
            ctx.heap.clock(),
            &mut batch.out.trace,
            &mut batch.out.counters,
            false,
        );
        let charges = ctx.heap.clock().tracer().charge_counts().iter().sum();
        spans.count(cost.span, "charges", charges);
        batch.arm(
            &arm.name,
            arm.side,
            result.is_err(),
            breakdown,
            result.unwrap_or(f64::NAN),
            gcs,
            &cost,
        );
        push_io(&mut batch.fp, &ctx.heap);
        drop(ctx);
        spans.exit(reading);
    }
    let mut out = batch.finish();
    add(&mut out.counters, "spark.base_oom_arms", out.base_oom);
    out
}

fn rep_giraph(arms: &[GiraphArm], spans: &mut Spans) -> RepOutcome {
    let mut batch = Batch::default();
    for arm in arms {
        let mut config = arm.config;
        config.heap.obs_events = TRACE_RING_EVENTS;
        let (result, cost) = spans.measure("giraph.run_giraph_with_context", &arm.name, || {
            run_giraph_with_context(arm.workload, config, arm.vertices, arm.avg_degree, arm.seed)
        });
        match result {
            // The failed context is gone with the error, so an OOM arm
            // contributes no counters.
            Err(_) => batch.arm(
                &arm.name,
                arm.side,
                true,
                Breakdown::default(),
                f64::NAN,
                (0, 0),
                &cost,
            ),
            Ok((ctx, checksum)) => {
                let reading = spans.enter(READ_SPAN, &arm.name);
                let breakdown = ctx.heap.clock().breakdown();
                let stats = ctx.heap.stats();
                let gcs = (stats.minor_count, stats.major_count);
                let c = &mut batch.out.counters;
                read_heap(&ctx.heap, c);
                add(c, "storage.sd_io_ns", breakdown.sd_io_ns);
                add(c, "giraph.supersteps", ctx.superstep());
                add(c, "giraph.offloads", ctx.offloads);
                add(c, "giraph.reloads", ctx.reloads);
                read_tracer(
                    ctx.heap.clock(),
                    &mut batch.out.trace,
                    &mut batch.out.counters,
                    false,
                );
                let charges = ctx.heap.clock().tracer().charge_counts().iter().sum();
                spans.count(cost.span, "charges", charges);
                batch.arm(&arm.name, arm.side, false, breakdown, checksum, gcs, &cost);
                push_io(&mut batch.fp, &ctx.heap);
                drop(ctx);
                spans.exit(reading);
            }
        }
    }
    batch.finish()
}

fn rep_query(cfg: &QueryPlaneConfig, spans: &mut Spans) -> RepOutcome {
    let mut out = RepOutcome {
        ops: cfg.total_ops as u64,
        ..RepOutcome::default()
    };
    let arm = format!("hot{}", cfg.hot_pct);
    let (result, cost) = spans.measure("query.run_query_plane", &arm, || run_query_plane(cfg));
    out.cost.add(&cost);
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            out.failures = vec![format!(
                "query plane ran out of memory ({e}); all {} ops lost",
                out.ops
            )];
            return out;
        }
    };
    out.sim_ns = report.makespan_ns;
    out.sim_ops_per_s = report.ops_per_sec;
    out.lat_p50_ns = report.all.p50_ns;
    out.lat_p99_ns = report.all.p99_ns;
    out.lat_n = report.all.count;
    out.answer = Some(report.checksum);
    let mut f = Fnv::new();
    for s in std::iter::once(&report.all).chain(&report.per_kind) {
        for v in [s.count, s.p50_ns, s.p99_ns, s.p999_ns, s.max_ns, s.mean_ns] {
            f.push(v);
        }
    }
    for v in [
        report.makespan_ns,
        report.device_vtime_ns,
        report.device_queued_ns,
        report.h2_chunks as u64,
        report.checksum,
    ] {
        f.push(v);
    }
    out.fingerprint = f.finish();
    let c = &mut out.counters;
    add(c, "query.ops", report.ops as u64);
    c.insert("query.point_p99_us", report.per_kind[0].p99_ns as f64 / 1e3);
    c.insert("query.scan_p99_us", report.per_kind[1].p99_ns as f64 / 1e3);
    c.insert("query.agg_p99_us", report.per_kind[2].p99_ns as f64 / 1e3);
    add(c, "query.h2_chunks", report.h2_chunks as u64);
    add(c, "storage.device_vtime_ns", report.device_vtime_ns);
    add(c, "storage.arbiter_queued_ns", report.device_queued_ns);
    out
}

/// Replays tenant 0's share of a query plane's op stream on a heap the
/// benchmark owns, and returns that heap's counters.
///
/// `run_query_plane` returns only a report, so the page-cache counters of
/// its tenants cannot be read. The replay builds the same tables from the
/// same rows through the same public calls and serves the ops of tenant
/// 0's sessions in op order, alone on the device: its faults, evictions
/// and GC counts are measured, not estimated, but they are one tenant's,
/// without the queueing the plane adds.
pub fn query_replay(cfg: &QueryPlaneConfig, spans: &mut Spans) -> Counters {
    let span = spans.enter("query.replay_tenant0", &format!("hot{}", cfg.hot_pct));
    let clock = Arc::new(SimClock::new());
    let device = SharedDevice::new(cfg.device, cfg.h2.footprint_bytes(), clock.clone());
    let mut heap = Heap::with_clock(cfg.heap, clock);
    heap.attach_h2(cfg.h2, &device)
        .expect("a sole tenant sized to the footprint attaches");
    let table = |table_id, placement| {
        Table::new(TableConfig {
            table_id,
            cols: COLS,
            chunk_rows: cfg.chunk_rows,
            key_col: 0,
            placement,
        })
    };
    let mut hot = table(1, TablePlacement::Hot);
    let mut cold = table(2, TablePlacement::Cold);
    let contents = gen_rows(cfg.rows_per_table, cfg.seed);
    let mut c = Counters::new();
    let loaded = contents
        .iter()
        .try_for_each(|row| {
            hot.append_row(&mut heap, row)
                .and_then(|()| cold.append_row(&mut heap, row))
        })
        .and_then(|()| heap.gc_major());
    if loaded.is_ok() {
        let mut ops = 0u64;
        // Op i belongs to session i mod sessions, served by tenant
        // session mod tenants — the plane's own round-robin.
        let tenant_of = |i: usize| (i % cfg.sessions) % cfg.tenants;
        for i in (0..cfg.total_ops).filter(|&i| tenant_of(i) == 0) {
            let spec = op_for(cfg, &contents, i);
            let table = if spec.hot { &mut hot } else { &mut cold };
            std::hint::black_box(run_query(&mut heap, table, &spec.query, spec.use_index));
            ops += 1;
        }
        read_heap(&heap, &mut c);
        let faults = c.get("storage.page_faults").copied().unwrap_or(0.0);
        c.insert("query.faults_per_op", faults / ops.max(1) as f64);
    }
    spans.exit(span);
    c
}

fn rep_tenants(cfg: &ServerConfig, spans: &mut Spans) -> RepOutcome {
    let mut out = RepOutcome::default();
    let mut server = Server::new(cfg.clone()).expect("pinned server config is valid");
    let n = cfg.tenants.len();
    for i in 0..n {
        // Keep every event of a traced rep: pauses are paired from the ring.
        server.clock(i).tracer().set_capacity(TRACE_RING_EVENTS);
    }
    let (report, cost) = spans.measure("server.run", "4 tenants", || server.run());
    out.cost.add(&cost);
    let reading = spans.enter(READ_SPAN, "4 tenants");
    out.ops = report.total_rounds as u64;
    out.sim_ns = report.makespan_ns;
    out.sim_ops_per_s = report.agg_rounds_per_sec;
    let mut rounds_ns: Vec<u64> = Vec::new();
    let mut f = Fnv::new();
    let (mut queued_ns, mut tenant_ns) = (0u64, 0u64);
    let c = &mut out.counters;
    for (i, t) in report.tenants.iter().enumerate() {
        if t.oom_rounds > 0 {
            out.failures.push(format!(
                "tenant {} ({}): {} rounds ran out of memory",
                t.name, t.workload, t.oom_rounds
            ));
        }
        rounds_ns.extend(&t.round_ns);
        for v in [
            t.total_ns,
            t.io.queued_ns,
            t.io.queued_ops,
            t.io.busy_ns,
            t.io.ops,
            t.deferrals,
        ] {
            f.push(v);
        }
        t.round_ns.iter().for_each(|&v| f.push(v));
        f.push(t.checksum.to_bits());
        queued_ns += t.io.queued_ns;
        tenant_ns += t.total_ns;
        add(c, "server.rounds", t.rounds as u64);
        add(c, "server.deferrals", t.deferrals);
        add(c, "server.oom_rounds", t.oom_rounds as u64);
        add(c, "storage.arbiter_ops", t.io.ops);
        add(c, "storage.arbiter_busy_ns", t.io.busy_ns);
        add(c, "storage.arbiter_queued_ops", t.io.queued_ops);
        add(c, "storage.arbiter_queued_ns", t.io.queued_ns);
        let b = server.clock(i).breakdown();
        push_breakdown(&mut f, &b);
        add(c, "runtime.minor_gc_ns", b.minor_gc_ns);
        add(c, "runtime.major_gc_ns", b.major_gc_ns);
        add(c, "storage.sd_io_ns", b.sd_io_ns);
        add(
            c,
            "spark.other_ns",
            if t.workload.starts_with("spark:") {
                b.other_ns
            } else {
                0
            },
        );
        read_tracer(server.clock(i), &mut out.trace, c, true);
    }
    f.push(report.device_vtime_ns);
    out.fingerprint = f.finish();
    out.lat_p50_ns = percentile_permille(&rounds_ns, 500);
    out.lat_p99_ns = percentile_permille(&rounds_ns, 990);
    out.lat_n = rounds_ns.len() as u64;
    add(c, "storage.device_vtime_ns", report.device_vtime_ns);
    c.insert("server.round_p50_ms", out.lat_p50_ns as f64 / 1e6);
    c.insert(
        "server.round_max_ms",
        rounds_ns.iter().copied().max().unwrap_or(0) as f64 / 1e6,
    );
    c.insert(
        "server.queued_share",
        queued_ns as f64 / tenant_ns.max(1) as f64,
    );
    c.insert("server.jain_fairness", report.jain_fairness);
    drop(server);
    spans.exit(reading);
    out
}

/// Span around the harness reading counters and traces after a call.
const READ_SPAN: &str = "bench.read_counters";

/// Flight-recorder ring capacity per clock, so that in a traced rep GC
/// pauses are not evicted by the page faults between them; drops are still
/// counted and printed. The ring only grows as events are recorded, so this
/// costs nothing with the recorder off.
pub const TRACE_RING_EVENTS: usize = 1 << 20;

/// Runs one rep of `plan` under a `rep` span labelled `label`.
pub fn run_rep(plan: &Plan, spans: &mut Spans, label: &str) -> RepOutcome {
    let span = spans.enter("rep", label);
    let out = match plan {
        Plan::Spark(arms) => rep_spark(arms, spans),
        Plan::Giraph(arms) => rep_giraph(arms, spans),
        Plan::Query(cfg) => rep_query(cfg, spans),
        Plan::Tenants(cfg) => rep_tenants(cfg, spans),
    };
    spans.exit(span);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_siblings_pair_up() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(
                w.why().len() <= 200,
                "{} why is too long for BENCHMARK.json",
                w.name()
            );
            if let Some(s) = w.sibling() {
                assert_eq!(s.sibling(), Some(w));
            }
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    fn bd(total: u64) -> Breakdown {
        Breakdown {
            other_ns: total,
            ..Breakdown::default()
        }
    }

    fn cost(wall_ns: u64) -> Cost {
        Cost {
            span: 0,
            wall_ns,
            cpu_s: 1.0,
            host_s: 0.5,
            slowdown: 2.0,
        }
    }

    #[test]
    fn batch_counts_expected_baseline_ooms_but_fails_teraheap_ooms() {
        let mut b = Batch::default();
        b.arm(
            "a.th",
            Side::TeraHeap,
            false,
            bd(100),
            1.5,
            (1, 1),
            &cost(10),
        );
        b.arm(
            "a.base",
            Side::Baseline,
            true,
            bd(0),
            f64::NAN,
            (0, 0),
            &cost(5),
        );
        b.arm(
            "b.th",
            Side::TeraHeap,
            false,
            bd(200),
            2.5,
            (1, 1),
            &cost(10),
        );
        b.arm(
            "b.base",
            Side::Baseline,
            false,
            bd(600),
            2.5,
            (2, 2),
            &cost(20),
        );
        b.arm(
            "c.th",
            Side::TeraHeap,
            true,
            bd(0),
            f64::NAN,
            (0, 0),
            &cost(1),
        );
        b.arm(
            "c.base",
            Side::Baseline,
            false,
            bd(50),
            9.0,
            (0, 0),
            &cost(1),
        );
        let out = b.finish();
        assert_eq!(out.ops, 6);
        assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
        assert_eq!((out.sim_ns, out.sim_base_ns), (300, 650));
        assert_eq!((out.base_completed, out.base_oom), (2, 1));
        // Only pair b completed on both sides.
        assert_eq!((out.paired_th_ns, out.paired_base_ns), (200, 600));
        assert_eq!(out.side_host_s, [1.5, 1.5]);
        assert_eq!((out.cost.host_s, out.cost.cpu_s), (3.0, 6.0));
        assert_eq!(out.lat_n, 4);
    }

    #[test]
    fn batch_flags_a_pair_whose_answers_differ() {
        let mut b = Batch::default();
        b.arm(
            "a.th",
            Side::TeraHeap,
            false,
            bd(100),
            1.5,
            (0, 0),
            &cost(1),
        );
        b.arm(
            "a.base",
            Side::Baseline,
            false,
            bd(100),
            1.5000000000000002,
            (0, 0),
            &cost(1),
        );
        let out = b.finish();
        assert_eq!(out.failures.len(), 1);
        assert!(out.failures[0].contains("differs"));
    }

    #[test]
    fn quarter_size_reps_run_clean_and_repeat_exactly() {
        // The API-drift net: every entry point the benchmark calls, at the
        // smoke size, twice.
        for w in Workload::ALL {
            let plan = Plan::build(w, 42, Scale::Quarter);
            let mut spans = Spans::default();
            let a = run_rep(&plan, &mut spans, "1");
            let b = run_rep(&plan, &mut spans, "2");
            assert!(a.failures.is_empty(), "{}: {:?}", w.name(), a.failures);
            assert!(
                a.ops > 0 && a.sim_ns > 0 && a.lat_p50_ns > 0 && a.sim_ops_per_s > 0.0,
                "{}",
                w.name()
            );
            assert_eq!(
                a.fingerprint,
                b.fingerprint,
                "{} is not deterministic",
                w.name()
            );
            assert!(spans.well_nested());
        }
    }

    #[test]
    fn hot_and_cold_answer_alike_and_only_cold_evicts() {
        let mut spans = Spans::default();
        let cold_cfg = arms::query_config(5, 0, Scale::Quarter);
        let hot_cfg = arms::query_config(5, 100, Scale::Quarter);
        let cold = rep_query(&cold_cfg, &mut spans);
        let hot = rep_query(&hot_cfg, &mut spans);
        assert_eq!(cold.answer, hot.answer);
        assert!(cold.answer.is_some());
        let cold_replay = query_replay(&cold_cfg, &mut spans);
        let hot_replay = query_replay(&hot_cfg, &mut spans);
        assert!(cold_replay["storage.evictions"] > 0.0);
        assert!(cold_replay["query.faults_per_op"] > hot_replay["query.faults_per_op"]);
    }
}
