//! Runtime twin of `crates/storage/tests/bulk_equivalence.rs` (DESIGN.md
//! §9): the ways to read and write a run of primitives — the per-word
//! handle loop, the copying [`Heap::read_prims`] / [`Heap::write_prims`],
//! the borrowed [`Heap::view_prims`] and the pinned [`Heap::view_prims_at`]
//! / [`Heap::fill_prims_at`] — and the pinned word accessors must be
//! indistinguishable in everything the simulation observes: the words,
//! per-category and total nanoseconds, the event stream at
//! `TERAHEAP_OBS=full`, the page-cache statistics and charge-call counts.
//! The uncharged [`Heap::peek_prims`] must see the same words and leave
//! none of those behind.
//!
//! Every scenario is a program of the shared mutator language
//! ([`common::program`]) run under each [`Access`] path on a fresh heap
//! ([`assert_access_equivalent`]), every value checked against the shadow
//! graph on the spot. The view scenarios are scripted range reads and
//! writes over one array; the pin scenarios are random programs after a
//! scripted prologue, so their pins follow objects across collections and
//! H2 promotion.

mod common;

use common::program::{
    assert_access_equivalent, program, Access, Mutator, Observed, Op, EVICTIONS, FAULTS,
};
use std::cell::RefCell;
use teraheap_core::{H2Config, Label};
use teraheap_runtime::obs::Level;
use teraheap_runtime::{GcVariant, Handle, Heap, HeapConfig};
use teraheap_storage::{Category, DeviceSpec, SharedDevice};
use teraheap_util::proptest_mini::{check, CaseResult, Config};

fn traced(mut config: HeapConfig) -> HeapConfig {
    config.obs_level = Some(Level::Full);
    config
}

/// A traced heap of `config` with an H2 of `n_regions` regions, each large
/// enough for a `largest`-element array, on `device` with `page_size` pages
/// and a `budget_pages`-page resident set.
fn h2_heap(
    config: HeapConfig,
    device: DeviceSpec,
    page_size: usize,
    budget_pages: usize,
    largest: usize,
    n_regions: usize,
) -> Heap {
    let h2 = H2Config::builder()
        .region_words((largest + 64).next_power_of_two())
        .n_regions(n_regions)
        .card_seg_words(512)
        .resident_budget_bytes(budget_pages * page_size)
        .page_size(page_size)
        .promo_buffer_bytes(16 << 10)
        .build()
        .expect("valid H2 config");
    let mut heap = Heap::new(traced(config));
    let dev = SharedDevice::new(device, h2.footprint_bytes(), heap.clock().clone());
    heap.attach_h2(h2, &dev).expect("sole tenant attaches");
    heap
}

// ----- views and fills of one array -------------------------------------------

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

/// Views of every range of the array the prologue leaves held, then fills
/// of every range (word `i` of the `k`-th becoming `1_000_000 * k + i`).
fn views_then_fills(ranges: &[(usize, usize)]) -> Vec<Op> {
    let views = ranges.iter().map(|&(start, n)| Op::View(1, start, n));
    let fills = (0u64..).zip(ranges).map(|(k, &(start, n))| Op::Fill(1, start, n, 1_000_000 * k));
    views.chain(fills).collect()
}

/// A `len`-element array, moved to an H2 on `device` with `page_size` pages
/// and a `budget_pages`-page resident set, then `script(len, page_size / 8)`.
fn h2_array(device: DeviceSpec, page_size: usize, budget_pages: usize, len: usize) -> Observed {
    let words = 4 * (len + 64).next_power_of_two();
    let mk = || {
        let config = HeapConfig::with_words(words, words);
        h2_heap(config, device, page_size, budget_pages, len, 4)
    };
    let prologue = [Op::PrimArray(len, 1), Op::TagAndMove(1, 9)];
    let (m, seen) =
        assert_access_equivalent(&mk, &prologue, &views_then_fills(&script(len, page_size / 8)));
    assert!(m.heap.is_in_h2(m.kept()[1]), "the array must be device-resident");
    seen
}

#[test]
fn h1_views_match_reads_and_the_word_loop() {
    let mk = || Heap::new(traced(HeapConfig::with_words(16 << 10, 64 << 10)));
    let prologue = [Op::PrimArray(600, 1)];
    let (_, seen) = assert_access_equivalent(&mk, &prologue, &views_then_fills(&script(600, 512)));
    assert_eq!(seen.words[0], 1);
    assert!(seen.io.is_empty());
}

#[test]
fn h2_page_cached_views_match_across_4k_pages() {
    // 2048 words = 4 pages against a 2-page resident set: ranges cross page
    // boundaries, fault, ride readahead and evict.
    let seen = h2_array(DeviceSpec::nvme_ssd(), 4096, 2, 2048);
    assert!(seen.io[FAULTS] > 0 && seen.io[EVICTIONS] > 0, "the script must fault and evict");
}

#[test]
fn h2_page_cached_views_match_across_2m_pages() {
    // 300k words = 2.3 MiB: the array crosses one 2 MiB page boundary.
    let seen = h2_array(DeviceSpec::nvme_ssd(), 2 << 20, 1, 300 << 10);
    assert!(seen.io[EVICTIONS] > 0, "a one-page resident set must evict");
}

#[test]
fn h2_dax_views_match() {
    let seen = h2_array(DeviceSpec::optane_nvm(), 4096, 2, 2048);
    assert_eq!(seen.io[FAULTS], 0, "DAX has no page cache to fault into");
}

/// A heap whose old generation's first 1500 words are DRAM, the rest
/// Panthera NVM.
fn panthera_heap() -> Heap {
    let mut config = HeapConfig::with_words(16 << 10, 64 << 10);
    config.variant = GcVariant::Panthera { old_dram_words: 1500 };
    Heap::new(traced(config))
}

/// Two pretenured 1024-element arrays, the first dropped: the second
/// straddles the NVM boundary.
const STRADDLE: [Op; 3] = [Op::PrimArray(1024, 1), Op::Release(1), Op::PrimArray(1024, 1)];

#[test]
fn views_straddling_the_panthera_nvm_boundary_match() {
    let ranges = [(0, 1024), (400, 100), (0, 0), (460, 3), (1000, 24)];
    assert_access_equivalent(&panthera_heap, &STRADDLE, &views_then_fills(&ranges));
    // The straddle is real: the whole array costs more than its first
    // (DRAM) half twice over, less than its last (NVM) half twice over.
    let cost = |start, n| {
        let mut m = Mutator::new(panthera_heap(), Access::View, &STRADDLE);
        let before = m.heap.clock().total_ns();
        m.apply(&Op::View(1, start, n));
        m.heap.clock().total_ns() - before
    };
    let (whole, dram, nvm) = (cost(0, 1024), cost(0, 400), cost(600, 400));
    assert!(dram * 1024 < whole * 400 && whole * 400 < nvm * 1024, "{dram} {whole} {nvm}");
}

/// A small heap holding a 16-element array.
fn array16() -> (Heap, Handle) {
    let mut heap = Heap::new(HeapConfig::small());
    let h = heap.alloc_prim_array(16).expect("fits");
    (heap, h)
}

#[test]
#[should_panic(expected = "out of bounds")]
fn view_prims_past_the_end_panics() {
    let (mut heap, h) = array16();
    heap.view_prims(h, 15, 2);
}

#[test]
#[should_panic(expected = "out of bounds")]
fn read_prims_past_the_end_panics() {
    let (mut heap, h) = array16();
    heap.read_prims(h, 15, &mut [0; 2]);
}

#[test]
#[should_panic(expected = "out of bounds")]
fn view_prims_at_past_the_end_panics() {
    let (mut heap, h) = array16();
    heap.view_prims_at(&mut heap.pin(h), 15, 2);
}

#[test]
#[should_panic(expected = "out of bounds")]
fn fill_prims_at_past_the_end_panics() {
    let (mut heap, h) = array16();
    heap.fill_prims_at(&mut heap.pin(h), 15, 2, |_| unreachable!("the range is checked first"));
}

#[test]
#[should_panic(expected = "out of bounds")]
fn peek_prims_past_the_end_panics() {
    let (heap, h) = array16();
    heap.peek_prims(h, 15, 2);
}

/// Everything a read could leave behind: the clock, the charge-call counts,
/// the event count, the H2 mapping's statistics and its resident set.
fn footprint(heap: &Heap) -> (u64, [u64; Category::COUNT], usize, Vec<u64>) {
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
            h2.mmap().resident_pages() as u64,
        ]
    });
    (clock.total_ns(), clock.tracer().charge_counts(), clock.tracer().events().len(), io)
}

#[test]
fn peek_prims_charges_nothing_and_sees_what_view_prims_sees() {
    // An array spanning several 4 KiB pages, moved to H2 by a hinted major
    // cycle, which writes it to the device and leaves its pages unmapped.
    let len = 3000usize;
    let words = 4 * (len + 64).next_power_of_two();
    let mut heap =
        h2_heap(HeapConfig::with_words(words, words), DeviceSpec::nvme_ssd(), 4096, 2, len, 4);
    let label = Label::new(9);
    let h = heap.alloc_prim_array_labeled(len, label).expect("fits");
    let vals: Vec<u64> = (0..len as u64).map(|i| i * 7 + 1).collect();
    heap.write_prims(h, 0, &vals);
    heap.h2_move(label);
    heap.gc_major().expect("the array fits H2");
    assert!(heap.is_in_h2(h), "the array must be device-resident");
    assert_eq!(heap.h2().expect("attached").mmap().resident_pages(), 0);

    for (start, n) in [(0, len), (5, 1), (500, 1200), (len, 0)] {
        let before = footprint(&heap);
        let peeked = heap.peek_prims(h, start, n).to_vec();
        assert_eq!(footprint(&heap), before, "peek_prims({start}, {n}) left a trace");
        assert_eq!(peeked, heap.view_prims(h, start, n), "H2 words of ({start}, {n})");
        assert_eq!(peeked, vals[start..start + n]);
    }
    assert!(heap.h2().expect("attached").mmap().resident_pages() > 0, "views fault pages in");

    let (mut heap, h) = array16();
    heap.write_prims(h, 0, &(100..116).collect::<Vec<u64>>());
    let before = footprint(&heap);
    let peeked = heap.peek_prims(h, 3, 9).to_vec();
    assert_eq!(footprint(&heap), before, "an H1 peek left a trace");
    assert_eq!(peeked, heap.view_prims(h, 3, 9), "H1 words");
}

#[test]
fn empty_fills_never_call_the_producer() {
    let (mut heap, h) = array16();
    let before = heap.clock().total_ns();
    heap.fill_prims_at(&mut heap.pin(h), 99, 0, |_| unreachable!("nothing to fill"));
    assert_eq!(heap.clock().total_ns(), before);
}

// ----- pins across collections, promotion and slicing -------------------------

/// A prologue allocating prim arrays of `lens`, each hinted to H2 under its
/// own label when `hinted`: the next major cycle promotes them under their
/// pins.
fn pool(lens: &[usize], hinted: bool) -> Vec<Op> {
    let mut ops: Vec<Op> = (1..).zip(lens).map(|(k, &len)| Op::PrimArray(len, 1000 * k)).collect();
    if hinted {
        ops.extend((1..=lens.len()).map(|a| Op::Hint(a, 40 + a as u64)));
    }
    ops
}

/// How many of the prologue's arrays live in H2.
fn pool_in_h2(m: &Mutator) -> usize {
    m.kept()[1..].iter().filter(|&&h| m.heap.is_in_h2(h)).count()
}

/// Runs `name` over `cases` random programs of the shared language after
/// `prologue`, each under every path on `mk`'s heaps; returns every case's
/// pinned run for the non-vacuity asserts.
fn pins_property(
    name: &str,
    cases: u32,
    mk: &dyn Fn() -> Heap,
    prologue: &[Op],
) -> Vec<(Mutator, Observed)> {
    let runs = RefCell::new(Vec::new());
    let config = Config { max_shrink_iters: 200, ..Config::with_cases(cases) };
    check(name, &program(150..400), &config, |ops| {
        runs.borrow_mut().push(assert_access_equivalent(mk, prologue, &ops));
        CaseResult::Pass
    });
    runs.into_inner()
}

#[test]
fn h1_pins_follow_their_objects_across_collections() {
    // A young generation the programs' garbage overflows several times: the
    // kept objects are copied to survivor space, tenured and compacted under
    // their pins.
    let mk = || Heap::new(traced(HeapConfig::with_words(4 << 10, 16 << 10)));
    let prologue = pool(&[40, 7, 300], false);
    // Identically built heaps hand out identical handles and addresses.
    let fresh = Mutator::new(mk(), Access::Loop, &prologue);
    let addrs = |m: &Mutator| m.kept().iter().map(|&h| m.heap.handle_addr(h)).collect::<Vec<_>>();
    let runs = pins_property("h1_pins", 4, &mk, &prologue);
    let collected = |m: &Mutator| m.heap.stats().minor_count > 3 && m.heap.stats().major_count > 0;
    assert!(runs.iter().any(|(m, _)| collected(m)), "no program ran minors and a major");
    let moved = |m: &Mutator| addrs(m).iter().zip(addrs(&fresh)).all(|(a, b)| *a != b);
    assert!(runs.iter().any(|(m, _)| moved(m)), "no program moved every kept object");
}

/// The paged and DAX pin scenarios: arrays of 2 to 3 pages, hinted to H2,
/// against a 2-page resident set.
fn pins_into_h2(name: &str, device: DeviceSpec) -> Vec<Observed> {
    let lens = [1200, 1536, 1100];
    let mk = || h2_heap(HeapConfig::with_words(8 << 10, 32 << 10), device, 4096, 2, 1536, 16);
    let runs = pins_property(name, 4, &mk, &pool(&lens, true));
    assert!(runs.iter().any(|(m, _)| pool_in_h2(m) == 3), "no program promoted the arrays");
    runs.into_iter().map(|(_, seen)| seen).collect()
}

#[test]
fn pins_follow_their_objects_into_paged_h2() {
    let runs = pins_into_h2("pins_paged_h2", DeviceSpec::nvme_ssd());
    let paged = runs.iter().any(|seen| seen.io[FAULTS] > 0 && seen.io[EVICTIONS] > 0);
    assert!(paged, "no program faulted and evicted");
}

#[test]
fn pins_follow_their_objects_into_dax_h2() {
    let runs = pins_into_h2("pins_dax_h2", DeviceSpec::optane_nvm());
    assert!(runs.iter().all(|seen| seen.io[FAULTS] == 0), "DAX has no page cache to fault into");
}

#[test]
fn pins_follow_their_objects_into_huge_paged_h2() {
    // 300k words = 2.3 MiB: the big array crosses one 2 MiB page boundary.
    // Its move is scripted; the random program runs after it.
    let mk = || {
        let config = HeapConfig::with_words(64 << 10, 1 << 20);
        h2_heap(config, DeviceSpec::nvme_ssd(), 2 << 20, 1, 300 << 10, 16)
    };
    let mut prologue = pool(&[300 << 10, 900], false);
    prologue.push(Op::TagAndMove(1, 9));
    let runs = pins_property("pins_huge_paged_h2", 2, &mk, &prologue);
    assert!(runs.iter().all(|(m, _)| m.heap.is_in_h2(m.kept()[1])), "the big array moved");
    assert!(runs.iter().any(|(_, seen)| seen.io[EVICTIONS] > 0), "a one-page set must evict");
}

#[test]
fn pins_straddling_the_panthera_nvm_boundary_match() {
    // Two pretenured 1024-element arrays after a dropped one: the first
    // straddles the NVM boundary until a compaction slides it down.
    let mut prologue = STRADDLE.to_vec();
    prologue.push(Op::PrimArray(1024, 2000));
    let runs = pins_property("pins_panthera", 4, &panthera_heap, &prologue);
    let compacted = runs.iter().any(|(m, _)| m.heap.stats().major_count > 0);
    assert!(compacted, "the straddling array must be compacted");
}

#[test]
#[should_panic(expected = "out of bounds")]
fn read_prim_at_past_the_end_panics() {
    let (mut heap, h) = array16();
    heap.read_prim_at(&mut heap.pin(h), 16);
}

#[test]
#[should_panic(expected = "out of bounds")]
fn write_prim_at_past_the_end_panics() {
    let mut heap = Heap::new(HeapConfig::small());
    let class = heap.register_class("Two", 1, 2);
    let h = heap.alloc(class).expect("fits");
    heap.write_prim_at(&mut heap.pin(h), 2, 1);
}

#[test]
#[should_panic(expected = "array_len on non-array")]
fn array_len_at_on_a_plain_object_panics() {
    let mut heap = Heap::new(HeapConfig::small());
    let class = heap.register_class("Two", 1, 2);
    let h = heap.alloc(class).expect("fits");
    heap.array_len_at(&mut heap.pin(h));
}
