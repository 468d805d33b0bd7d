//! Runtime twin of `crates/storage/tests/bulk_equivalence.rs` (DESIGN.md
//! §9): the ways to read a run of primitives — the per-word
//! [`Heap::read_prim`] loop, the copying [`Heap::read_prims`], the borrowed
//! [`Heap::view_prims`] and [`Heap::view_prims_at`] through one pin — must
//! be indistinguishable in everything the simulation observes: the words,
//! per-category and total nanoseconds, the event stream at
//! `TERAHEAP_OBS=full`, and (for device-resident objects) the page-cache
//! statistics and charge-call counts. Likewise the ways to write one: the
//! [`Heap::write_prim`] loop, [`Heap::write_prims`] and the in-place
//! [`Heap::fill_prims_at`].
//!
//! Each scenario builds the same heap once per accessor and replays one
//! script of `(start, len)` ranges through it. On H1 the bulk accessors make
//! one `SimClock::charge` call per range where the loop makes one per word,
//! so charge-call counts are compared between the bulk accessors only; on
//! H2 `touch_run` batches the loop's exact count.
//!
//! The second half is the same contract for pinned access: a [`Pin`]
//! resolves its object once on the host, so the `*_at` accessors — word and
//! bulk — must be indistinguishable from the handle accessors they stand in
//! for, across collections, H2 promotion of the pinned object, and a sliced
//! major cycle left in flight (see [`WordOp`]).

use teraheap_core::{H2Config, Label};
use teraheap_runtime::obs::{Event, EventKind, GcKind, Level};
use teraheap_runtime::{GcVariant, Handle, Heap, HeapConfig, Pin};
use teraheap_storage::{Category, DeviceSpec, SharedDevice};
use teraheap_util::rng::Rng;

#[derive(Clone, Copy)]
enum Access {
    /// One word at a time through the handle.
    Loop,
    /// `read_prims` / `write_prims`.
    Copy,
    /// `view_prims` (reads only).
    View,
    /// `view_prims_at` / `fill_prims_at` through one pin taken up front.
    Pinned,
}

/// Everything a scenario can observe about one replay.
#[derive(Debug, PartialEq)]
struct Observed {
    words: Vec<u64>,
    category_ns: Vec<u64>,
    total_ns: u64,
    events: Vec<Event>,
    /// read bytes/ops, write bytes/ops, faults, sequential faults,
    /// evictions, resident pages — empty without an H2.
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
    let mut pin = heap.pin(h);
    let mut words = Vec::new();
    for &(start, n) in script {
        match access {
            Access::Loop => words.extend((start..start + n).map(|i| heap.read_prim(h, i))),
            Access::Copy => {
                let mut buf = vec![0; n];
                heap.read_prims(h, start, &mut buf);
                words.extend(buf);
            }
            Access::View => words.extend_from_slice(heap.view_prims(h, start, n)),
            Access::Pinned => words.extend_from_slice(heap.view_prims_at(&mut pin, start, n)),
        }
    }
    observe(&heap, words)
}

/// Writes `script`'s ranges (word `i` of the `k`-th range becomes
/// `1_000_000 * k + i`) through one accessor, then reads the array back.
fn replay_writes(
    mk: &dyn Fn() -> (Heap, Handle),
    script: &[(usize, usize)],
    access: Access,
) -> (Observed, [u64; Category::COUNT]) {
    let (mut heap, h) = mk();
    let mut pin = heap.pin(h);
    for (k, &(start, n)) in script.iter().enumerate() {
        let vals = (start..start + n).map(|i| 1_000_000 * k as u64 + i as u64);
        match access {
            Access::Loop => vals.zip(start..).for_each(|(v, i)| heap.write_prim(h, i, v)),
            Access::Copy => heap.write_prims(h, start, &vals.collect::<Vec<u64>>()),
            Access::View => unreachable!("views do not write"),
            Access::Pinned => heap.fill_prims_at(&mut pin, start, n, |slots| {
                assert_eq!(slots.len(), n, "fill sees exactly the range");
                slots.iter_mut().zip(vals).for_each(|(slot, v)| *slot = v);
            }),
        }
    }
    let len = heap.array_len(h);
    let words = heap.view_prims(h, 0, len).to_vec();
    observe(&heap, words)
}

/// What a replay that produced `words` left observable on `heap`, and its
/// charge-call counts.
fn observe(heap: &Heap, words: Vec<u64>) -> (Observed, [u64; Category::COUNT]) {
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
    let observed = Observed {
        words,
        category_ns: Category::ALL.iter().map(|&c| clock.category_ns(c)).collect(),
        total_ns: clock.total_ns(),
        events: clock.tracer().events(),
        io,
    };
    (observed, clock.tracer().charge_counts())
}

/// Replays `script` through all four read accessors, then through all three
/// write accessors, and requires identical observations within each group;
/// returns the readers' common one.
fn assert_equivalent(mk: &dyn Fn() -> (Heap, Handle), script: &[(usize, usize)]) -> Observed {
    let (looped, loop_charges) = replay(mk, script, Access::Loop);
    let (read, read_charges) = replay(mk, script, Access::Copy);
    let (view, view_charges) = replay(mk, script, Access::View);
    let (pinned, pinned_charges) = replay(mk, script, Access::Pinned);
    assert_eq!(read, looped, "read_prims diverged from the per-word loop");
    assert_eq!(view, looped, "view_prims diverged from the per-word loop");
    assert_eq!(pinned, looped, "view_prims_at diverged from the per-word loop");
    assert_eq!(view_charges, read_charges, "view_prims and read_prims charge-call counts");
    assert_eq!(pinned_charges, read_charges, "view_prims_at and read_prims charge-call counts");
    if !looped.io.is_empty() {
        assert_eq!(view_charges, loop_charges, "touch_run batches the loop's charge calls");
    }

    let (write_loop, write_loop_charges) = replay_writes(mk, script, Access::Loop);
    let (written, write_charges) = replay_writes(mk, script, Access::Copy);
    let (filled, fill_charges) = replay_writes(mk, script, Access::Pinned);
    assert_eq!(written, write_loop, "write_prims diverged from the per-word loop");
    assert_eq!(filled, write_loop, "fill_prims_at diverged from the per-word loop");
    assert_eq!(fill_charges, write_charges, "fill_prims_at and write_prims charge-call counts");
    if !write_loop.io.is_empty() {
        assert_eq!(fill_charges, write_loop_charges, "touch_run batches the loop's charge calls");
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

/// Attaches an H2 of `n_regions` regions of `region_words` on `device`, with
/// `page_size` pages and a `budget_pages`-page resident set.
fn attach_h2(
    heap: &mut Heap,
    device: DeviceSpec,
    page_size: usize,
    budget_pages: usize,
    region_words: usize,
    n_regions: usize,
) {
    let h2 = H2Config::builder()
        .region_words(region_words)
        .n_regions(n_regions)
        .card_seg_words(512)
        .resident_budget_bytes(budget_pages * page_size)
        .page_size(page_size)
        .promo_buffer_bytes(16 << 10)
        .build()
        .expect("valid H2 config");
    let dev = SharedDevice::new(device, h2.footprint_bytes(), heap.clock().clone());
    heap.attach_h2(h2, &dev).expect("sole tenant attaches");
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
    attach_h2(&mut heap, device, page_size, budget_pages, region_words, 4);
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

#[test]
#[should_panic(expected = "out of bounds")]
fn view_prims_at_past_the_end_panics() {
    let mut heap = Heap::new(HeapConfig::small());
    let h = filled_array(&mut heap, 16);
    let mut pin = heap.pin(h);
    heap.view_prims_at(&mut pin, 15, 2);
}

#[test]
#[should_panic(expected = "out of bounds")]
fn fill_prims_at_past_the_end_panics() {
    let mut heap = Heap::new(HeapConfig::small());
    let h = filled_array(&mut heap, 16);
    let mut pin = heap.pin(h);
    heap.fill_prims_at(&mut pin, 15, 2, |_| unreachable!("the range is checked first"));
}

#[test]
fn empty_fills_never_call_the_producer() {
    let mut heap = Heap::new(HeapConfig::small());
    let h = filled_array(&mut heap, 16);
    let mut pin = heap.pin(h);
    let before = heap.clock().total_ns();
    heap.fill_prims_at(&mut pin, 99, 0, |_| unreachable!("nothing to fill"));
    assert_eq!(heap.clock().total_ns(), before);
}

// ----- pinned word access -----------------------------------------------------

/// One pool object a word script addresses.
#[derive(Clone, Copy)]
struct Obj {
    h: Handle,
    /// Primitive fields/elements.
    prims: usize,
    /// Reference fields/elements.
    refs: usize,
    is_array: bool,
}

/// One step of a word script: word accesses on pool objects, interleaved
/// with everything that can move or re-home them.
#[derive(Debug, Clone, Copy)]
enum WordOp {
    Read(usize, usize),
    Write(usize, usize, u64),
    Len(usize),
    /// Bulk-read `n` words from `start` (`view_prims` / `view_prims_at`).
    View(usize, usize, usize),
    /// Bulk-write `n` words from `start`, word `k` of the range becoming
    /// `base + k` (`write_prims` / `fill_prims_at`).
    Fill(usize, usize, usize, u64),
    /// Follow reference `idx` of the object (null or not, and the target's
    /// first primitive).
    ReadRef(usize, usize),
    /// Allocate and drop a garbage array: fills eden, so collections — and,
    /// when slicing is armed, pause slices — run between accesses.
    Alloc(usize),
    GcMinor,
    GcMajor,
    /// Tag the object and advise its move: the next major cycle (explicit,
    /// demand or sliced) promotes it to H2 under its pin.
    MoveToH2(usize),
}

/// A `len`-step script over `pool`: mostly word accesses, every so often an
/// allocation burst, a collection or (with `h2`) a move hint. The first
/// [`YOUNG_STEPS`] steps ask for no major collection, so the pool is still
/// young — and moved by the scavenger, twice, under its pins — when the
/// first minor collections run.
fn word_script(pool: &[Obj], len: usize, h2: bool, seed: u64) -> Vec<WordOp> {
    let mut rng = Rng::seed_from_u64(seed);
    let with_prims: Vec<usize> = (0..pool.len()).filter(|&o| pool[o].prims > 0).collect();
    let with_refs: Vec<usize> = (0..pool.len()).filter(|&o| pool[o].refs > 0).collect();
    let arrays: Vec<usize> = (0..pool.len()).filter(|&o| pool[o].is_array).collect();
    let mut script = Vec::with_capacity(len);
    for step in 0..len {
        let o = *rng.choose(&with_prims).expect("pool has primitive slots");
        // A range of up to 700 words (more than a 4 KiB page) inside the
        // object; one in eight is empty, and then may start past the end.
        let range = |rng: &mut Rng| {
            let start = rng.gen_range(0..pool[o].prims);
            if rng.gen_range(0..8u32) == 0 {
                return (start + rng.gen_range(0..pool[o].prims + 9), 0);
            }
            (start, rng.gen_range(1..(pool[o].prims - start).min(700) + 1))
        };
        let op = match rng.gen_range(0..100u32) {
            0..=29 => WordOp::Read(o, rng.gen_range(0..pool[o].prims)),
            30..=39 => {
                let (start, n) = range(&mut rng);
                WordOp::View(o, start, n)
            }
            40..=59 => WordOp::Write(o, rng.gen_range(0..pool[o].prims), rng.next_u64()),
            60..=69 => {
                let (start, n) = range(&mut rng);
                WordOp::Fill(o, start, n, rng.next_u64())
            }
            70..=77 => WordOp::Len(*rng.choose(&arrays).expect("pool has arrays")),
            78..=83 if !with_refs.is_empty() => {
                let r = *rng.choose(&with_refs).expect("checked");
                WordOp::ReadRef(r, rng.gen_range(0..pool[r].refs))
            }
            84..=93 => WordOp::Alloc(rng.gen_range(16..400usize)),
            94..=95 => WordOp::GcMinor,
            96 if step >= YOUNG_STEPS => WordOp::GcMajor,
            97 if h2 && step >= YOUNG_STEPS => WordOp::MoveToH2(o),
            _ => WordOp::Read(o, rng.gen_range(0..pool[o].prims)),
        };
        script.push(op);
    }
    script
}

const YOUNG_STEPS: usize = 400;

/// Replays `script` on a fresh heap, through handles or through pins taken
/// once before the first step; then reads every pool word back through
/// plain handles. Every value read is checked against a host shadow, so a
/// pin that kept pointing at an object's old copy fails here, not only in
/// the comparison with its twin.
fn replay_words(
    mk: &dyn Fn() -> (Heap, Vec<Obj>),
    script: &[WordOp],
    pinned: bool,
) -> (Heap, Observed, [u64; Category::COUNT]) {
    let (mut heap, pool) = mk();
    let mut pins: Vec<Pin> = pool.iter().map(|o| heap.pin(o.h)).collect();
    let mut shadow: Vec<Vec<u64>> =
        pool.iter().map(|o| (0..o.prims).map(|i| heap.read_prim(o.h, i)).collect()).collect();
    let mut words = Vec::new();
    for &op in script {
        match op {
            WordOp::Read(o, i) => {
                let v = if pinned {
                    heap.read_prim_at(&mut pins[o], i)
                } else {
                    heap.read_prim(pool[o].h, i)
                };
                assert_eq!(v, shadow[o][i], "{op:?} read a stale word (pinned: {pinned})");
                words.push(v);
            }
            WordOp::Write(o, i, v) => {
                if pinned {
                    heap.write_prim_at(&mut pins[o], i, v);
                } else {
                    heap.write_prim(pool[o].h, i, v);
                }
                shadow[o][i] = v;
            }
            WordOp::Len(o) => {
                let n = if pinned {
                    heap.array_len_at(&mut pins[o])
                } else {
                    heap.array_len(pool[o].h)
                };
                assert_eq!(n, pool[o].prims + pool[o].refs);
                words.push(n as u64);
            }
            WordOp::View(o, start, n) => {
                let seen = if pinned {
                    heap.view_prims_at(&mut pins[o], start, n)
                } else {
                    heap.view_prims(pool[o].h, start, n)
                };
                let want = shadow[o].get(start..start + n).unwrap_or(&[]);
                assert_eq!(seen, want, "{op:?} viewed stale words (pinned: {pinned})");
                words.extend_from_slice(seen);
            }
            WordOp::Fill(o, start, n, base) => {
                let vals: Vec<u64> = (0..n as u64).map(|k| base.wrapping_add(k)).collect();
                if pinned {
                    heap.fill_prims_at(&mut pins[o], start, n, |slots| {
                        slots.copy_from_slice(&vals)
                    });
                } else {
                    heap.write_prims(pool[o].h, start, &vals);
                }
                if n > 0 {
                    shadow[o][start..start + n].copy_from_slice(&vals);
                }
            }
            WordOp::ReadRef(o, i) => {
                let r = if pinned {
                    heap.read_ref_at(&mut pins[o], i)
                } else {
                    heap.read_ref(pool[o].h, i)
                };
                words.push(r.is_some() as u64);
                if let Some(child) = r {
                    words.push(heap.read_prim(child, 0));
                    heap.release(child);
                }
            }
            WordOp::Alloc(n) => {
                let tmp = heap.alloc_prim_array(n).expect("garbage fits");
                heap.release(tmp);
            }
            WordOp::GcMinor => heap.gc_minor().expect("fits"),
            WordOp::GcMajor => heap.gc_major().expect("fits"),
            WordOp::MoveToH2(o) => {
                let label = Label::new(40 + o as u64);
                heap.h2_tag_root(pool[o].h, label);
                heap.h2_move(label);
            }
        }
    }
    for (o, obj) in pool.iter().enumerate() {
        for (i, &want) in shadow[o].iter().enumerate() {
            let v = heap.read_prim(obj.h, i);
            assert_eq!(v, want, "object {o} word {i} lost a write (pinned: {pinned})");
            words.push(v);
        }
    }
    let (observed, charges) = observe(&heap, words);
    (heap, observed, charges)
}

/// Replays `script` through handles and through pins and requires the two
/// runs to be indistinguishable; returns the pinned heap and observation.
fn assert_pins_equivalent(mk: &dyn Fn() -> (Heap, Vec<Obj>), script: &[WordOp]) -> (Heap, Observed) {
    let (_, by_handle, handle_charges) = replay_words(mk, script, false);
    let (heap, by_pin, pin_charges) = replay_words(mk, script, true);
    assert_eq!(by_pin, by_handle, "pinned accessors diverged from the handle accessors");
    assert_eq!(pin_charges, handle_charges, "pinned accessors charge call for call");
    (heap, by_pin)
}

/// The standard pool: primitive arrays of `array_lens`, two plain objects
/// (one with a reference field) and a reference array holding both.
fn pool(heap: &mut Heap, array_lens: &[usize]) -> Vec<Obj> {
    let mut pool = Vec::new();
    for (k, &len) in array_lens.iter().enumerate() {
        let h = heap.alloc_prim_array(len).expect("fits");
        let vals: Vec<u64> = (0..len as u64).map(|i| 1000 * (k as u64 + 1) + i).collect();
        heap.write_prims(h, 0, &vals);
        pool.push(Obj { h, prims: len, refs: 0, is_array: true });
    }
    let leaf_c = heap.register_class("Leaf", 0, 3);
    let node_c = heap.register_class("Node", 1, 2);
    let leaf = heap.alloc(leaf_c).expect("fits");
    let node = heap.alloc(node_c).expect("fits");
    heap.write_prims(leaf, 0, &[7, 8, 9]);
    heap.write_prims(node, 0, &[70, 80]);
    heap.write_ref(node, 0, leaf);
    let holder = heap.alloc_ref_array(3).expect("fits");
    heap.write_ref(holder, 0, node);
    heap.write_ref(holder, 2, leaf);
    pool.push(Obj { h: leaf, prims: 3, refs: 0, is_array: false });
    pool.push(Obj { h: node, prims: 2, refs: 1, is_array: false });
    pool.push(Obj { h: holder, prims: 0, refs: 3, is_array: true });
    pool
}

/// A heap with an H2 of `page_size` pages and a `budget_pages` resident
/// set, and the standard pool over `array_lens` still in H1.
fn h2_pool(
    config: HeapConfig,
    device: DeviceSpec,
    page_size: usize,
    budget_pages: usize,
    array_lens: &[usize],
) -> (Heap, Vec<Obj>) {
    let largest = array_lens.iter().max().expect("arrays");
    let region_words = (largest + 64).next_power_of_two();
    let mut heap = Heap::new(traced(config));
    attach_h2(&mut heap, device, page_size, budget_pages, region_words, 16);
    let pool = pool(&mut heap, array_lens);
    (heap, pool)
}

/// How many of the pool's objects live in H2.
fn in_h2(heap: &Heap, pool: &[Obj]) -> usize {
    pool.iter().filter(|o| heap.is_in_h2(o.h)).count()
}

#[test]
fn h1_pins_follow_their_objects_across_collections() {
    // A young generation the script's garbage overflows several times: the
    // pool is copied to survivor space, tenured and compacted under its pins.
    let mk = || {
        let mut heap = Heap::new(traced(HeapConfig::with_words(4 << 10, 16 << 10)));
        let pool = pool(&mut heap, &[40, 7, 300]);
        (heap, pool)
    };
    // Identically built heaps hand out identical handles, so one build's
    // pool describes every replay's.
    let (fresh, pool) = mk();
    let script = word_script(&pool, 1500, false, 0x51ab);
    let (heap, _) = assert_pins_equivalent(&mk, &script);
    assert!(heap.stats().minor_count > 3 && heap.stats().major_count > 0);
    let moved =
        pool.iter().filter(|o| heap.handle_addr(o.h) != fresh.handle_addr(o.h)).count();
    assert_eq!(moved, pool.len(), "every pinned object must have moved");
}

#[test]
fn pins_follow_their_objects_into_paged_h2() {
    // Arrays of 2 to 3 pages against a 2-page resident set: once moved, the
    // pinned loops fault, evict and write dirty pages back.
    let lens = [1200, 1536, 1100];
    let mk = || {
        let config = HeapConfig::with_words(8 << 10, 32 << 10);
        h2_pool(config, DeviceSpec::nvme_ssd(), 4096, 2, &lens)
    };
    let pool = mk().1;
    let script = word_script(&pool, 1500, true, 0x4b);
    let (heap, seen) = assert_pins_equivalent(&mk, &script);
    assert!(in_h2(&heap, &pool) >= 3, "the script must promote pinned objects");
    assert!(seen.io[FAULTS] > 0 && seen.io[EVICTIONS] > 0, "the script must fault and evict");
}

#[test]
fn pins_follow_their_objects_into_huge_paged_h2() {
    // 300k words = 2.3 MiB: the big array crosses one 2 MiB page boundary.
    let lens = [300 << 10, 900];
    let mk = || {
        let config = HeapConfig::with_words(64 << 10, 1 << 20);
        h2_pool(config, DeviceSpec::nvme_ssd(), 2 << 20, 1, &lens)
    };
    // The move of the big array is scripted, with random steps on both sides.
    let pool = mk().1;
    let mut script = word_script(&pool, 450, true, 0x2a);
    script.extend([WordOp::MoveToH2(0), WordOp::GcMajor]);
    script.extend(word_script(&pool, 450, true, 0x2b));
    let (heap, seen) = assert_pins_equivalent(&mk, &script);
    assert!(heap.is_in_h2(pool[0].h), "the big array must be promoted");
    assert!(seen.io[EVICTIONS] > 0, "a one-page resident set must evict");
}

#[test]
fn pins_follow_their_objects_into_dax_h2() {
    let lens = [1200, 1536, 1100];
    let mk = || {
        let config = HeapConfig::with_words(8 << 10, 32 << 10);
        h2_pool(config, DeviceSpec::optane_nvm(), 4096, 2, &lens)
    };
    let pool = mk().1;
    let script = word_script(&pool, 1500, true, 0xda);
    let (heap, seen) = assert_pins_equivalent(&mk, &script);
    assert!(in_h2(&heap, &pool) >= 3, "the script must promote pinned objects");
    assert_eq!(seen.io[FAULTS], 0, "DAX has no page cache to fault into");
}

#[test]
fn pins_straddling_the_panthera_nvm_boundary_match() {
    // Two pretenured 1024-element arrays in an old generation whose first
    // 1500 words are DRAM: the second straddles the NVM boundary until a
    // compaction (the first array of the pool is dropped) slides it down.
    let mk = || {
        let mut config = HeapConfig::with_words(16 << 10, 64 << 10);
        config.variant =
            GcVariant::Panthera { old_dram_words: 1500, nvm: DeviceSpec::optane_nvm() };
        let mut heap = Heap::new(traced(config));
        let first = filled_array(&mut heap, 1024);
        heap.release(first);
        let pool = pool(&mut heap, &[1024, 1024]);
        (heap, pool)
    };
    let script = word_script(&mk().1, 1200, false, 0x9a);
    let (heap, _) = assert_pins_equivalent(&mk, &script);
    assert!(heap.stats().major_count > 0, "the straddling array must be compacted");
}

#[test]
fn pins_match_with_a_sliced_cycle_in_flight() {
    // A 5 µs pause budget over an old generation below the proactive
    // trigger's margin: every minor GC starts a cycle that the script's
    // allocations advance a slice at a time, so accesses land before the
    // flip, behind it on un-relocated objects, and after retirement — and
    // the hinted objects are promoted to H2 mid-cycle.
    let lens = [1200, 600, 900];
    let mk = || {
        let config = HeapConfig::builder(6 << 10, 10 << 10)
            .pause_budget_ns(5_000)
            .build()
            .expect("valid sliced config");
        h2_pool(config, DeviceSpec::nvme_ssd(), 4096, 2, &lens)
    };
    // No explicit majors: they would finish the cycle the scenario wants
    // left in flight.
    let pool = mk().1;
    let script: Vec<WordOp> = word_script(&pool, 2500, true, 0x51ce)
        .into_iter()
        .filter(|op| !matches!(op, WordOp::GcMajor))
        .collect();
    let (heap, seen) = assert_pins_equivalent(&mk, &script);
    assert!(heap.stats().incr_slices > 20, "the cycle must be sliced");
    assert!(in_h2(&heap, &pool) > 0, "a pinned object must be promoted mid-cycle");
    // Accesses ran while a cycle was parked between slices: somewhere in the
    // stream a slice ends and a later page fault (a mutator access to a
    // promoted object) precedes the cycle's end.
    let mut parked = false;
    let mut accessed_while_parked = false;
    for e in &seen.events {
        match e.kind {
            EventKind::SliceEnd { .. } => parked = true,
            EventKind::SliceBegin { .. } | EventKind::GcEnd { gc: GcKind::Major, .. } => {
                parked = false
            }
            EventKind::PageFault { .. } if parked => accessed_while_parked = true,
            _ => {}
        }
    }
    assert!(accessed_while_parked, "no access landed between two slices of one cycle");
}

#[test]
#[should_panic(expected = "out of bounds")]
fn read_prim_at_past_the_end_panics() {
    let mut heap = Heap::new(HeapConfig::small());
    let h = filled_array(&mut heap, 16);
    let mut pin = heap.pin(h);
    heap.read_prim_at(&mut pin, 16);
}

#[test]
#[should_panic(expected = "out of bounds")]
fn write_prim_at_past_the_end_panics() {
    let mut heap = Heap::new(HeapConfig::small());
    let class = heap.register_class("Two", 1, 2);
    let h = heap.alloc(class).expect("fits");
    let mut pin = heap.pin(h);
    heap.write_prim_at(&mut pin, 2, 1);
}

#[test]
#[should_panic(expected = "array_len on non-array")]
fn array_len_at_on_a_plain_object_panics() {
    let mut heap = Heap::new(HeapConfig::small());
    let class = heap.register_class("Two", 1, 2);
    let h = heap.alloc(class).expect("fits");
    let mut pin = heap.pin(h);
    heap.array_len_at(&mut pin);
}
