//! Property suite for the bulk access plane (DESIGN.md §9).
//!
//! The hard invariant of `MmapSim::touch_run` is that it is *bit-identical*
//! to the word-at-a-time loop it replaces: same charged nanoseconds per
//! category, same charge-call counts, same fault/eviction/write-back
//! statistics, same readahead classification, and the same event stream at
//! `TERAHEAP_OBS=full` (same kinds, same sequence numbers, same simulated
//! timestamps). These properties drive randomized touch scripts through two
//! mappings — one touched word by word, one through `touch_run` — and
//! require every observable to match, in paged, DAX and huge-page modes.
//!
//! Runs on the in-repo harness (`teraheap_util::proptest_mini`): cases are
//! seeded deterministically, failures shrink to a minimal script and print
//! a `TERAHEAP_PROP_SEED` for replay.

use std::sync::Arc;

use teraheap_storage::obs::Level;
use teraheap_storage::{Category, DeviceSpec, MmapSim, SimClock};
use teraheap_util::prop_assert_eq;
use teraheap_util::proptest_mini::{
    check, range_usize, vec_of, CaseResult, Config, Strategy,
};

const WORD: usize = 8;
const CASES: u32 = 96;

/// One touch: (word offset, word length, write?, category index).
type Op = (usize, usize, bool, usize);

fn ops(map_words: usize, max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    vec_of(
        (
            (range_usize(0..map_words - max_len), range_usize(1..max_len)),
            range_usize(0..2),
            range_usize(0..Category::COUNT),
        )
            .prop_map(|((off, len), w, cat)| (off, len, w == 1, cat)),
        1..16,
    )
}

/// Replays `script` against a per-word-touched mapping and a `touch_run`
/// mapping built by `mk`, asserting every observable matches.
fn assert_equivalent(
    script: &[Op],
    mk: &dyn Fn(Arc<SimClock>) -> MmapSim,
) -> CaseResult {
    let clock_loop = Arc::new(SimClock::new());
    clock_loop.tracer().set_level(Level::Full);
    let mut looped = mk(clock_loop.clone());
    let clock_bulk = Arc::new(SimClock::new());
    clock_bulk.tracer().set_level(Level::Full);
    let mut bulk = mk(clock_bulk.clone());

    for &(off, len, write, cat_i) in script {
        let cat = Category::ALL[cat_i];
        for w in 0..len {
            let byte = (off + w) * WORD;
            if write {
                looped.touch_write(byte, WORD, cat);
            } else {
                looped.touch_read(byte, WORD, cat);
            }
        }
        bulk.touch_run(off * WORD, len * WORD, write, cat);
    }

    for cat in Category::ALL {
        prop_assert_eq!(
            clock_loop.category_ns(cat),
            clock_bulk.category_ns(cat),
            "charged ns diverged in {cat:?}"
        );
    }
    prop_assert_eq!(
        clock_loop.tracer().charge_counts(),
        clock_bulk.tracer().charge_counts(),
        "charge-call counts diverged"
    );
    {
        let (sl, sb) = (looped.stats(), bulk.stats());
        prop_assert_eq!(sl.read_bytes(), sb.read_bytes());
        prop_assert_eq!(sl.write_bytes(), sb.write_bytes());
        prop_assert_eq!(sl.read_ops(), sb.read_ops());
        prop_assert_eq!(sl.write_ops(), sb.write_ops());
        prop_assert_eq!(sl.page_faults(), sb.page_faults(), "fault counts diverged");
        prop_assert_eq!(sl.seq_faults(), sb.seq_faults(), "readahead diverged");
        prop_assert_eq!(sl.evictions(), sb.evictions(), "evictions diverged");
    }
    prop_assert_eq!(looped.resident_pages(), bulk.resident_pages());
    prop_assert_eq!(
        clock_loop.tracer().events(),
        clock_bulk.tracer().events(),
        "event streams diverged"
    );
    // Dirty state must agree too: flush both and compare the write-back.
    looped.flush(Category::Io);
    bulk.flush(Category::Io);
    prop_assert_eq!(
        looped.stats().write_bytes(),
        bulk.stats().write_bytes(),
        "dirty pages diverged"
    );
    CaseResult::Pass
}

/// Paged NVMe mapping with a 3-page resident budget: faults, readahead,
/// LRU evictions and dirty write-backs all exercised.
#[test]
fn touch_run_equivalent_paged() {
    let map_words = 8 * 4096 / WORD;
    check(
        "touch_run_equivalent_paged",
        &ops(map_words, 3 * 4096 / WORD),
        &Config::with_cases(CASES),
        |script: Vec<Op>| {
            assert_equivalent(&script, &|clock| {
                MmapSim::new(DeviceSpec::nvme_ssd(), 8 * 4096, 3 * 4096, 4096, clock)
            })
        },
    );
}

/// DAX (byte-addressable NVM) mapping: the closed-form run cost must equal
/// the per-word sum exactly, including the per-op stats.
#[test]
fn touch_run_equivalent_dax() {
    let map_words = (64 << 10) / WORD;
    check(
        "touch_run_equivalent_dax",
        &ops(map_words, 512),
        &Config::with_cases(CASES),
        |script: Vec<Op>| {
            assert_equivalent(&script, &|clock| {
                MmapSim::new(DeviceSpec::optane_nvm(), 64 << 10, 4096, 4096, clock)
            })
        },
    );
}

/// Huge-page (2 MB) mapping: long runs stay within one page, so one
/// resident-set decision stands for hundreds of words.
#[test]
fn touch_run_equivalent_huge_pages() {
    let map_words = (8 << 20) / WORD;
    check(
        "touch_run_equivalent_huge_pages",
        &ops(map_words, 1024),
        &Config::with_cases(CASES),
        |script: Vec<Op>| {
            assert_equivalent(&script, &|clock| {
                MmapSim::new(DeviceSpec::nvme_ssd(), 8 << 20, 6 << 20, 2 << 20, clock)
            })
        },
    );
}
