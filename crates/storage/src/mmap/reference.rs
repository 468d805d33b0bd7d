//! Reference page cache and the property suite that pins [`MmapSim`] to it.
//!
//! [`Reference`] keeps the resident set the obvious way — a vector of
//! `(page, dirty)` in recency order, searched linearly, no table, no slab,
//! no links — and hands every fault, eviction and write-back it decides on
//! to the same accounting `MmapSim` uses. Random touch / flush / discard
//! programs must then leave both with identical statistics, per-category
//! nanoseconds, charge counts, event streams and write-back logs: the
//! page table + intrusive list is an exact LRU, victim for victim. A second
//! property keeps the touches word-sized on a handful of pages, so most of
//! them are the resident hits `MmapSim::touch` answers before it builds a
//! charge scope, and compares the recency order left behind as well.

use super::*;
use crate::fault::FaultPlan;
use crate::shared::SharedDevice;
use teraheap_obs::Level;
use teraheap_util::prop_assert_eq;
use teraheap_util::proptest_mini::{
    check, range_usize, vec_of, CaseResult, Config, Strategy,
};
use teraheap_util::prop_oneof;

struct Reference {
    /// Accounting only: this mapping's own resident set stays empty.
    sim: MmapSim,
    /// Resident pages, most recently touched first.
    order: Vec<(u64, bool)>,
}

impl Reference {
    fn pages(&self, offset: usize, bytes: usize) -> std::ops::RangeInclusive<u64> {
        self.sim.check_range(offset, bytes);
        let ps = self.sim.page_size;
        (offset / ps) as u64..=((offset + bytes - 1) / ps) as u64
    }

    fn touch(&mut self, offset: usize, bytes: usize, write: bool, cat: Category) {
        let mut scope = ChargeScope::new(cat);
        for page in self.pages(offset, bytes) {
            if let Some(i) = self.order.iter().position(|&(p, _)| p == page) {
                let (_, dirty) = self.order.remove(i);
                self.order.insert(0, (page, dirty | write));
                continue;
            }
            self.sim.page_in(page, &mut scope);
            self.order.insert(0, (page, write));
            while self.order.len() > self.sim.budget_pages {
                let (victim, dirty) = self.order.pop().expect("over budget, so non-empty");
                self.sim.page_out(victim, dirty, &mut scope);
            }
        }
        scope.flush(&self.sim.clock);
    }

    fn flush(&mut self, cat: Category) {
        let mut flushed = Vec::new();
        for (page, dirty) in &mut self.order {
            if std::mem::take(dirty) {
                flushed.push(*page);
            }
        }
        self.sim.msync(flushed, cat);
    }

    fn discard(&mut self, offset: usize, bytes: usize) {
        let pages = self.pages(offset, bytes);
        self.order.retain(|(page, _)| !pages.contains(page));
        // Its own resident set is empty, so this only forgets the
        // readahead streams inside the range.
        self.sim.discard(offset, bytes);
    }
}

impl MmapSim {
    /// The resident set as `(page, dirty)`, most recently touched first.
    fn recency(&self) -> Vec<(u64, bool)> {
        let mut order = Vec::new();
        let mut slot = self.nodes[NIL as usize].next;
        while slot != NIL {
            let node = self.nodes[slot as usize];
            order.push((node.page, node.dirty));
            slot = node.next;
        }
        order
    }
}

/// Mapping length in pages: 1.5× the largest budget, 96× the smallest.
const PAGES: usize = 96;
/// Offsets and lengths are generated in 1/512ths of a page (one word of a
/// 4 KiB page), so one program serves both page sizes.
const UNITS: usize = 512;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// `run` picks `touch_run` over `touch_read`/`touch_write`.
    Touch { start: usize, len: usize, write: bool, cat: usize, run: bool },
    Flush { cat: usize },
    Discard { start: usize, len: usize },
}

fn op() -> impl Strategy<Value = Op> {
    let span = || (range_usize(0..PAGES * UNITS), range_usize(1..3 * UNITS));
    let how = (range_usize(0..2), range_usize(0..3), range_usize(0..Category::COUNT));
    prop_oneof![
        9 => (span(), how).prop_map(|((start, len), (w, r, cat))| {
            Op::Touch { start, len, write: w == 1, cat, run: r == 0 }
        }),
        1 => range_usize(0..Category::COUNT).prop_map(|cat| Op::Flush { cat }),
        1 => span().prop_map(|(start, len)| Op::Discard { start, len }),
    ]
}

/// What a case varies besides the program.
#[derive(Debug, Clone, Copy)]
struct Setup {
    budget_pages: usize,
    huge: bool,
    armed: bool,
    leased: bool,
}

fn setup() -> impl Strategy<Value = Setup> {
    (range_usize(1..65), (range_usize(0..2), range_usize(0..2), range_usize(0..2))).prop_map(
        |(budget_pages, (huge, armed, leased))| Setup {
            budget_pages,
            huge: huge == 1,
            armed: armed == 1,
            leased: leased == 1,
        },
    )
}

fn build(setup: Setup) -> (MmapSim, Arc<SimClock>) {
    let page_size = if setup.huge { 2 << 20 } else { 4096 };
    let len = PAGES * page_size;
    let clock = Arc::new(SimClock::new());
    clock.tracer().set_level(Level::Full);
    let spec = DeviceSpec::nvme_ssd();
    let mut map = MmapSim::new(spec, len, setup.budget_pages * page_size, page_size, clock.clone());
    if setup.armed {
        map.set_fault_plane(FaultPlane::new(FaultPlan::zero_rate(11)));
    }
    if setup.leased {
        // A neighbour keeps the device busy for the first 5 ms, so early
        // faults queue and the arrival instants matter.
        let device = SharedDevice::for_server(spec, 2 * len);
        let neighbour = Arc::new(SimClock::new());
        device.add_tenant(clock.clone(), len).expect("first quota fits");
        device.add_tenant(neighbour.clone(), len).expect("second quota fits");
        map.set_lease(device.attach(&clock, len).expect("fresh tenant attaches"));
        device
            .attach(&neighbour, len)
            .expect("fresh tenant attaches")
            .submit(0, 5_000_000);
    }
    (map, clock)
}

/// Runs `program` on a mapping and on the reference and requires them
/// indistinguishable in everything observable.
fn run_both(setup: Setup, program: Vec<Op>) -> CaseResult {
    let (mut map, map_clock) = build(setup);
    let (sim, ref_clock) = build(setup);
    let mut reference = Reference { sim, order: Vec::new() };
    let (unit, end) = (map.page_size() / UNITS, map.len());
    let bytes_of = |start: usize, len: usize| {
        let offset = start * unit;
        (offset, (len * unit).min(end - offset))
    };
    for op in program {
        match op {
            Op::Touch { start, len, write, cat, run } => {
                let (offset, bytes) = bytes_of(start, len);
                if run {
                    map.touch_run(offset, bytes, write, Category::ALL[cat]);
                } else {
                    map.touch(offset, bytes, write, Category::ALL[cat]);
                }
                reference.touch(offset, bytes, write, Category::ALL[cat]);
            }
            Op::Flush { cat } => {
                map.flush(Category::ALL[cat]);
                reference.flush(Category::ALL[cat]);
            }
            Op::Discard { start, len } => {
                let (offset, bytes) = bytes_of(start, len);
                map.discard(offset, bytes);
                reference.discard(offset, bytes);
            }
        }
        prop_assert_eq!(map.resident_pages(), reference.order.len());
    }
    prop_assert_eq!(map.recency(), reference.order.clone(), "recency order diverged");
    // Whatever is still dirty must agree too.
    map.flush(Category::Io);
    reference.flush(Category::Io);

    let (a, b) = (map.stats(), reference.sim.stats());
    prop_assert_eq!(a.read_bytes(), b.read_bytes());
    prop_assert_eq!(a.write_bytes(), b.write_bytes());
    prop_assert_eq!(a.read_ops(), b.read_ops());
    prop_assert_eq!(a.write_ops(), b.write_ops());
    prop_assert_eq!(a.page_faults(), b.page_faults());
    prop_assert_eq!(a.seq_faults(), b.seq_faults());
    prop_assert_eq!(a.evictions(), b.evictions());
    prop_assert_eq!(a.io_retries(), b.io_retries());
    for cat in Category::ALL {
        prop_assert_eq!(
            map_clock.category_ns(cat),
            ref_clock.category_ns(cat),
            "charged ns diverged in {cat:?}"
        );
    }
    prop_assert_eq!(map_clock.tracer().charge_counts(), ref_clock.tracer().charge_counts());
    prop_assert_eq!(map_clock.tracer().events(), ref_clock.tracer().events());
    prop_assert_eq!(map.take_writeback_pages(), reference.sim.take_writeback_pages());
    CaseResult::Pass
}

#[test]
fn list_cache_matches_the_reference_cache() {
    check(
        "list_cache_matches_the_reference_cache",
        &(setup(), vec_of(op(), 1..80)),
        &Config::with_cases(192),
        |(setup, program): (Setup, Vec<Op>)| run_both(setup, program),
    );
}

/// Pages the word-touch programs stay on: with budgets of 1..65 pages most
/// touches hit, and the smallest budgets still evict.
const HOT_PAGES: usize = 6;

/// A one-word touch, or a two-word touch placed so that it may straddle a
/// page boundary (`at` counts words back from the end of `page`).
fn word_op() -> impl Strategy<Value = Op> {
    let place = (range_usize(0..HOT_PAGES), range_usize(0..UNITS), range_usize(0..2));
    let how = (range_usize(0..2), range_usize(0..2), range_usize(0..Category::COUNT));
    prop_oneof![
        12 => (place, how).prop_map(|((page, at, straddle), (w, r, cat))| {
            let (start, len) = if straddle == 1 {
                ((page + 1) * UNITS - 1 - at % 2, 2)
            } else {
                (page * UNITS + at, 1)
            };
            Op::Touch { start, len, write: w == 1, cat, run: r == 0 }
        }),
        1 => range_usize(0..Category::COUNT).prop_map(|cat| Op::Flush { cat }),
        1 => (range_usize(0..HOT_PAGES * UNITS), range_usize(1..UNITS))
            .prop_map(|(start, len)| Op::Discard { start, len }),
    ]
}

#[test]
fn resident_word_hits_match_the_reference_cache() {
    check(
        "resident_word_hits_match_the_reference_cache",
        &(setup(), vec_of(word_op(), 1..200)),
        &Config::with_cases(192),
        |(setup, program): (Setup, Vec<Op>)| {
            let setup = Setup { budget_pages: 1 + setup.budget_pages % 8, ..setup };
            run_both(setup, program)
        },
    );
}
