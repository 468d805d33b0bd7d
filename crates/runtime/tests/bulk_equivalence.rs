//! Runtime twin of `crates/storage/tests/bulk_equivalence.rs` (DESIGN.md
//! §9): the three ways to read a run of primitives — the per-word
//! [`Heap::read_prim`] loop, the copying [`Heap::read_prims`] and the
//! borrowed [`Heap::view_prims`] — must be indistinguishable in everything
//! the simulation observes: the words, per-category and total nanoseconds,
//! the event stream at `TERAHEAP_OBS=full`, and (for device-resident
//! objects) the page-cache statistics and charge-call counts.
//!
//! Each scenario builds the same heap three times and replays one script of
//! `(start, len)` ranges through one accessor each. On H1 the bulk
//! accessors make one `SimClock::charge` call per range where the loop
//! makes one per word, so charge-call counts are compared between the two
//! bulk accessors only; on H2 `touch_run` batches the loop's exact count.

use teraheap_core::{H2Config, Label};
use teraheap_runtime::obs::{Event, Level};
use teraheap_runtime::{GcVariant, Handle, Heap, HeapConfig};
use teraheap_storage::{Category, DeviceSpec, SharedDevice};

#[derive(Clone, Copy)]
enum Access {
    Loop,
    Read,
    View,
}

/// Everything a scenario can observe about one replay.
#[derive(Debug, PartialEq)]
struct Observed {
    words: Vec<u64>,
    category_ns: Vec<u64>,
    total_ns: u64,
    events: Vec<Event>,
    /// read bytes/ops, write bytes/ops, faults, sequential faults,
    /// evictions — empty without an H2.
    io: Vec<u64>,
}

/// Positions in [`Observed::io`].
const FAULTS: usize = 4;
const EVICTIONS: usize = 6;

fn replay(
    mk: &dyn Fn() -> (Heap, Handle),
    script: &[(usize, usize)],
    access: Access,
) -> (Observed, [u64; Category::COUNT]) {
    let (mut heap, h) = mk();
    let mut words = Vec::new();
    for &(start, n) in script {
        match access {
            Access::Loop => words.extend((start..start + n).map(|i| heap.read_prim(h, i))),
            Access::Read => {
                let mut buf = vec![0; n];
                heap.read_prims(h, start, &mut buf);
                words.extend(buf);
            }
            Access::View => words.extend_from_slice(heap.view_prims(h, start, n)),
        }
    }
    let clock = heap.clock();
    let io = heap.h2().map_or(Vec::new(), |h2| {
        let s = h2.mmap().stats();
        vec![
            s.read_bytes(),
            s.read_ops(),
            s.write_bytes(),
            s.write_ops(),
            s.page_faults(),
            s.seq_faults(),
            s.evictions(),
        ]
    });
    let observed = Observed {
        words,
        category_ns: Category::ALL.iter().map(|&c| clock.category_ns(c)).collect(),
        total_ns: clock.total_ns(),
        events: clock.tracer().events(),
        io,
    };
    (observed, clock.tracer().charge_counts())
}

/// Replays `script` through all three accessors and requires identical
/// observations; returns the common one.
fn assert_equivalent(mk: &dyn Fn() -> (Heap, Handle), script: &[(usize, usize)]) -> Observed {
    let (looped, loop_charges) = replay(mk, script, Access::Loop);
    let (read, read_charges) = replay(mk, script, Access::Read);
    let (view, view_charges) = replay(mk, script, Access::View);
    assert_eq!(read, looped, "read_prims diverged from the per-word loop");
    assert_eq!(view, looped, "view_prims diverged from the per-word loop");
    assert_eq!(view_charges, read_charges, "view_prims and read_prims charge-call counts");
    if !looped.io.is_empty() {
        assert_eq!(view_charges, loop_charges, "touch_run batches the loop's charge calls");
    }
    looped
}

fn traced(mut config: HeapConfig) -> HeapConfig {
    config.obs_level = Some(Level::Full);
    config
}

/// A `len`-element array holding `7 * i + 1`.
fn filled_array(heap: &mut Heap, len: usize) -> Handle {
    let h = heap.alloc_prim_array(len).expect("fits");
    let vals: Vec<u64> = (0..len as u64).map(|i| 7 * i + 1).collect();
    heap.write_prims(h, 0, &vals);
    h
}

/// A heap whose `len`-element array was promoted to an H2 on `device` with
/// `page_size` pages and a `budget_pages`-page resident set.
fn h2_array(
    device: DeviceSpec,
    page_size: usize,
    budget_pages: usize,
    len: usize,
) -> (Heap, Handle) {
    let region_words = (len + 64).next_power_of_two();
    let mut heap = Heap::new(traced(HeapConfig::with_words(4 * region_words, 4 * region_words)));
    let h2 = H2Config::builder()
        .region_words(region_words)
        .n_regions(4)
        .card_seg_words(512)
        .resident_budget_bytes(budget_pages * page_size)
        .page_size(page_size)
        .promo_buffer_bytes(16 << 10)
        .build()
        .expect("valid H2 config");
    let dev = SharedDevice::new(device, h2.footprint_bytes(), heap.clock().clone());
    heap.attach_h2(h2, &dev).expect("sole tenant attaches");
    let h = filled_array(&mut heap, len);
    heap.h2_tag_root(h, Label::new(9));
    heap.h2_move(Label::new(9));
    heap.gc_major().expect("fits");
    assert!(heap.is_in_h2(h), "the array must be device-resident");
    (heap, h)
}

/// Ranges over a `len`-element array (`len > page_words + 8`): single
/// words, short runs, runs crossing the first `page_words` boundary, a
/// re-read, the whole array, and empty ranges (at the start, at the end and
/// past the end — an empty range is never bounds-checked, like the empty
/// loop).
fn script(len: usize, page_words: usize) -> Vec<(usize, usize)> {
    let p = page_words;
    vec![
        (0, 1),
        (3, 17),
        (p - 5, 10),
        (p - 5, 10),
        (len - 1, 1),
        (0, 0),
        (len, 0),
        (len + 5, 0),
        (p - 4, 2),
        (1, p + 3),
        (0, len),
    ]
}

#[test]
fn h1_views_match_reads_and_the_word_loop() {
    let mk = || {
        let mut heap = Heap::new(traced(HeapConfig::with_words(16 << 10, 64 << 10)));
        let h = filled_array(&mut heap, 600);
        (heap, h)
    };
    let seen = assert_equivalent(&mk, &script(600, 512));
    assert_eq!(seen.words[0], 1);
    assert!(seen.io.is_empty());
}

#[test]
fn h2_page_cached_views_match_across_4k_pages() {
    // 2048 words = 4 pages against a 2-page resident set: ranges cross page
    // boundaries, fault, ride readahead and evict.
    let mk = || h2_array(DeviceSpec::nvme_ssd(), 4096, 2, 2048);
    let seen = assert_equivalent(&mk, &script(2048, 512));
    assert!(seen.io[FAULTS] > 0 && seen.io[EVICTIONS] > 0, "the script must fault and evict");
}

#[test]
fn h2_page_cached_views_match_across_2m_pages() {
    // 300k words = 2.3 MiB: the array crosses one 2 MiB page boundary.
    let len = 300 << 10;
    let mk = || h2_array(DeviceSpec::nvme_ssd(), 2 << 20, 1, len);
    let seen = assert_equivalent(&mk, &script(len, (2 << 20) / 8));
    assert!(seen.io[EVICTIONS] > 0, "a one-page resident set must evict");
}

#[test]
fn h2_dax_views_match() {
    let mk = || h2_array(DeviceSpec::optane_nvm(), 4096, 2, 2048);
    let seen = assert_equivalent(&mk, &script(2048, 512));
    assert_eq!(seen.io[FAULTS], 0, "DAX has no page cache to fault into");
}

#[test]
fn views_straddling_the_panthera_nvm_boundary_match() {
    // Two pretenured 1024-element arrays in an old generation whose first
    // 1500 words are DRAM: the second array straddles the NVM boundary.
    let mk = || {
        let mut config = HeapConfig::with_words(16 << 10, 64 << 10);
        config.variant =
            GcVariant::Panthera { old_dram_words: 1500, nvm: DeviceSpec::optane_nvm() };
        let mut heap = Heap::new(traced(config));
        let first = filled_array(&mut heap, 1024);
        heap.release(first);
        let h = filled_array(&mut heap, 1024);
        (heap, h)
    };
    let ranges = [(0, 1024), (400, 100), (0, 0), (460, 3), (1000, 24)];
    assert_equivalent(&mk, &ranges);
    // The straddle is real: the whole array costs more than its first
    // (DRAM) half twice over, less than its last (NVM) half twice over.
    let cost = |start, n| {
        let (mut heap, h) = mk();
        let before = heap.clock().total_ns();
        heap.view_prims(h, start, n);
        heap.clock().total_ns() - before
    };
    let (whole, dram, nvm) = (cost(0, 1024), cost(0, 400), cost(600, 400));
    assert!(dram * 1024 < whole * 400 && whole * 400 < nvm * 1024, "{dram} {whole} {nvm}");
}

#[test]
#[should_panic(expected = "out of bounds")]
fn view_prims_past_the_end_panics() {
    let mut heap = Heap::new(HeapConfig::small());
    let h = filled_array(&mut heap, 16);
    heap.view_prims(h, 15, 2);
}

#[test]
#[should_panic(expected = "out of bounds")]
fn read_prims_past_the_end_panics() {
    let mut heap = Heap::new(HeapConfig::small());
    let h = filled_array(&mut heap, 16);
    heap.read_prims(h, 15, &mut [0; 2]);
}
