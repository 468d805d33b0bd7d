//! Host-time spans recorded by the benchmark around its calls into the
//! crates' public functions.
//!
//! Spans live in memory and are written out once, when the run ends. The
//! benchmark is single-threaded, so spans nest strictly: a span's children
//! never overlap, and its self time is its duration minus theirs.

use crate::json::Json;
use crate::procfs;
use crate::yardstick::Yardstick;
use std::time::Instant;

/// One recorded span. Times are host nanoseconds since the recorder was
/// created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// The public function (or benchmark phase) the span covers.
    pub name: String,
    /// Arm, probe or rep label; empty when not applicable.
    pub arm: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts taken at the same boundary (simulated charges, events...).
    pub counts: Vec<(&'static str, u64)>,
    /// For a measured call: what it cost (see [`Spans::measure`]).
    pub cost: Option<Cost>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What one measured call cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cost {
    pub span: usize,
    /// Wall-clock ns, as in the span.
    pub wall_ns: u64,
    /// Seconds the thread spent on a CPU inside the call.
    pub cpu_s: f64,
    /// Host seconds: `cpu_s` restated at reference machine speed, i.e.
    /// divided by `slowdown`.
    pub host_s: f64,
    /// Mean of the yardstick readings taken right before and right after
    /// the call: 1.0 on an idle core, above it under contention.
    pub slowdown: f64,
}

/// The in-memory span recorder, which also prices the calls it spans.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    yardstick: Yardstick,
    /// The latest yardstick reading and when it was taken, so that the
    /// reading after one call serves as the reading before the next.
    reading: Option<(u64, f64)>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            yardstick: Yardstick::default(),
            reading: None,
        }
    }
}

/// A yardstick reading older than this is taken again.
const READING_FRESH_NS: u64 = 2_000_000;

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn enter(&mut self, name: &str, arm: &str) -> usize {
        let start_ns = self.now_ns();
        self.enter_at(name, arm, start_ns)
    }

    fn enter_at(&mut self, name: &str, arm: &str, start_ns: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            arm: arm.to_string(),
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
            cost: None,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one, and returns
    /// its duration in ns.
    pub fn exit(&mut self, id: usize) -> u64 {
        let end_ns = self.now_ns();
        self.exit_at(id, end_ns)
    }

    fn exit_at(&mut self, id: usize, end_ns: u64) -> u64 {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        self.spans[id].end_ns = end_ns;
        self.spans[id].duration_ns()
    }

    /// Seconds this thread has spent on a CPU (wall-clock seconds where the
    /// kernel does not say).
    fn cpu_s(&self) -> f64 {
        procfs::on_cpu_seconds().unwrap_or_else(|| self.origin.elapsed().as_secs_f64())
    }

    fn slowdown_now(&mut self) -> f64 {
        let now = self.now_ns();
        match self.reading {
            Some((at, slowdown)) if now - at < READING_FRESH_NS => slowdown,
            _ => {
                // A span of its own, so that a rep stays covered by its
                // children and the yardstick's cost is in plain sight.
                let span = self.enter("bench.yardstick", "");
                let slowdown = self.yardstick.slowdown();
                self.exit(span);
                self.reading = Some((self.now_ns(), slowdown));
                slowdown
            }
        }
    }

    /// Runs `f` as one span and prices it: on-CPU seconds, divided by how
    /// slow the machine was around the call. Use it for every call whose
    /// host time is reported; plain `enter`/`exit` spans only group.
    pub fn measure<T>(&mut self, name: &str, arm: &str, f: impl FnOnce() -> T) -> (T, Cost) {
        let before = self.slowdown_now();
        let cpu_before = self.cpu_s();
        let span = self.enter(name, arm);
        let out = f();
        let wall_ns = self.exit(span);
        let cpu_s = self.cpu_s() - cpu_before;
        self.reading = None;
        let slowdown = (before + self.slowdown_now()) / 2.0;
        let cost = Cost {
            span,
            wall_ns,
            cpu_s,
            host_s: cpu_s / slowdown,
            slowdown,
        };
        self.spans[span].cost = Some(cost);
        (out, cost)
    }

    /// Attaches a count to span `id`.
    pub fn count(&mut self, id: usize, key: &'static str, value: u64) {
        self.spans[id].counts.push((key, value));
    }

    /// Duration of `id` minus the part its direct children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum();
        self.spans[id].duration_ns() - children
    }

    /// For every `parent_name` span, the share of it that is not covered by
    /// its children — how much host time a rep spends outside the calls it
    /// wraps. Spans are timed on the wall clock, so a share also holds any
    /// time the thread was descheduled between two children.
    pub fn uncovered_shares(&self, parent_name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == parent_name && s.duration_ns() > 0)
            .map(|s| self.self_ns(s.id) as f64 / s.duration_ns() as f64)
            .collect()
    }

    /// Structural check: every span is closed, and every non-root span lies
    /// inside a parent that exists.
    pub fn well_nested(&self) -> bool {
        self.open.is_empty()
            && self.spans.iter().all(|s| match s.parent {
                None => true,
                Some(p) => {
                    p < s.id
                        && self.spans[p].start_ns <= s.start_ns
                        && s.end_ns <= self.spans[p].end_ns
                }
            })
    }

    /// One JSON object per line: `{id, parent, name, workload, arm,
    /// start_ns, end_ns, self_ns, cpu_s, host_s, counts}`.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let line = Json::obj([
                ("id", Json::Int(s.id as i128)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(p as i128)),
                ),
                ("name", Json::str(&s.name)),
                ("workload", Json::str(workload)),
                ("arm", Json::str(&s.arm)),
                ("start_ns", Json::Int(s.start_ns as i128)),
                ("end_ns", Json::Int(s.end_ns as i128)),
                ("self_ns", Json::Int(self.self_ns(s.id) as i128)),
                ("cpu_s", s.cost.map_or(Json::Null, |c| Json::Num(c.cpu_s))),
                ("host_s", s.cost.map_or(Json::Null, |c| Json::Num(c.host_s))),
                (
                    "counts",
                    Json::Obj(
                        s.counts
                            .iter()
                            .map(|&(k, v)| (k.to_string(), Json::Int(v as i128)))
                            .collect(),
                    ),
                ),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// rep [0, 100] > arm a [10, 40] > inner [15, 25]; arm b [40, 95].
    fn sample() -> Spans {
        let mut s = Spans::default();
        let rep = s.enter_at("rep", "1", 0);
        let a = s.enter_at("spark.run_workload_on", "a", 10);
        let inner = s.enter_at("inner", "a", 15);
        s.exit_at(inner, 25);
        s.exit_at(a, 40);
        let b = s.enter_at("spark.run_workload_on", "b", 40);
        s.count(b, "charges", 7);
        s.exit_at(b, 95);
        s.exit_at(rep, 100);
        s
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let s = sample();
        assert_eq!(s.self_ns(0), 100 - 30 - 55);
        assert_eq!(s.self_ns(1), 30 - 10);
        assert_eq!(s.self_ns(2), 10);
        assert_eq!(s.self_ns(3), 55);
        // Self times of a subtree add up to its root's duration.
        let total: u64 = (0..4).map(|i| s.self_ns(i)).sum();
        assert_eq!(total, 100);
        assert_eq!(s.uncovered_shares("rep"), [0.15]);
        assert!(s.uncovered_shares("missing").is_empty());
    }

    #[test]
    fn a_measured_call_is_a_span_with_a_price() {
        let mut s = Spans::default();
        let (value, cost) = s.measure("spark.run_workload_on", "a", || {
            (0..2_000_000u64).sum::<u64>()
        });
        assert_eq!(value, 1_999_999_000_000);
        assert!(cost.slowdown > 0.0 && cost.cpu_s >= 0.0);
        assert_eq!(cost.host_s, cost.cpu_s / cost.slowdown);
        assert_eq!(s.spans[cost.span].cost, Some(cost));
        assert_eq!(s.spans[cost.span].duration_ns(), cost.wall_ns);
        assert!(s.well_nested());
    }

    #[test]
    fn nesting_is_checked() {
        let mut s = sample();
        assert!(s.well_nested());
        s.enter_at("left open", "", 100);
        assert!(!s.well_nested());
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn closing_out_of_order_panics() {
        let mut s = Spans::default();
        let outer = s.enter_at("outer", "", 0);
        s.enter_at("inner", "", 1);
        s.exit_at(outer, 2);
    }

    #[test]
    fn jsonl_has_one_line_per_span_with_parent_links() {
        let text = sample().to_jsonl("spark_batch");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            "{\"id\":0,\"parent\":null,\"name\":\"rep\",\"workload\":\"spark_batch\",\"arm\":\"1\",\
             \"start_ns\":0,\"end_ns\":100,\"self_ns\":15,\"cpu_s\":null,\"host_s\":null,\"counts\":{}}"
        );
        assert!(lines[3].contains("\"parent\":0"));
        assert!(lines[3].ends_with("\"counts\":{\"charges\":7}}"));
    }
}
