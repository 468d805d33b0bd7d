//! Secondary index: sorted-key chunk runs over one column.
//!
//! The index is maintained *incrementally on append*: every time a table
//! seals a chunk, the chunk's `(key, row)` pairs are sorted once and frozen
//! as a run — a primitive array `[sorted keys… | row ids in key order…]`
//! allocated as part of the index's labeled object group, so runs live
//! (and move to H2) with the column they index. Only the run's *skeleton*
//! stays in DRAM: its zone map (min/max key, length) and a Bloom filter
//! over its keys, built from the sorted keys at seal time. A probe views
//! each candidate run through `Heap::view_prims`, so H2-resident runs pay
//! the real fault/arbitration path, but searches none of them: one host-side
//! `KeyOrder` per table (every run's keys in one sorted sequence) gives
//! each run its slice of matching keys. Zone maps prune range predicates;
//! keys shuffled across chunks give every run the whole key space, so a
//! point predicate also asks each overlapping run's filter and views only
//! the runs it cannot rule out.
//!
//! Runs share the table's chunk length, so the filters are stored
//! *bit-sliced* in blocks of 64 runs, one run per bit of a word: a point
//! probe ANDs the 7 words of its key's bits in a block into the mask of the
//! block's runs that may hold the key.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use teraheap_util::rng::SplitMix64;

/// Bloom filter bits per key of a run.
const BLOOM_BITS_PER_KEY: usize = 10;

/// Bits set per key: `BLOOM_BITS_PER_KEY · ln 2 ≈ 7` minimises false
/// positives, to about 0.8%.
const BLOOM_HASHES: u32 = 7;

/// DRAM-side zone map of one frozen run; its filter is a bit of the
/// index's slices.
#[derive(Debug, Clone)]
pub struct RunMeta {
    /// Smallest key in the run.
    pub min_key: u64,
    /// Largest key in the run.
    pub max_key: u64,
    /// Keys in the run (the table's chunk size).
    pub len: usize,
}

impl RunMeta {
    /// Whether the run can contain a key in `[lo, hi]`.
    pub fn overlaps(&self, lo: u64, hi: u64) -> bool {
        self.min_key <= hi && self.max_key >= lo
    }
}

/// The one SplitMix64 mix of `key` its filter bits derive from.
fn bloom_hash(key: u64) -> u64 {
    SplitMix64::new(key).next_u64()
}

/// The filter bits of the key hashed to `h` in a filter of `words` words:
/// double hashing over the two halves of the hash, each probe mapped onto
/// the bit range by a multiply-shift.
fn bloom_bits(h: u64, words: usize) -> impl Iterator<Item = usize> {
    let (h1, h2) = (h as u32, (h >> 32) as u32);
    let bits = 64 * words as u64;
    (0..BLOOM_HASHES)
        .map(move |i| ((u64::from(h1.wrapping_add(i.wrapping_mul(h2))) * bits) >> 32) as usize)
}

/// The sorted-run index skeleton: run metadata in registration (chunk)
/// order and the runs' bit-sliced filters. The runs' payloads are heap
/// objects rooted in the table's chunk directory; probing lives on
/// `Table::probe_runs` where both are in scope.
#[derive(Debug, Clone)]
pub struct SortedRunIndex {
    /// Keys in every run.
    run_len: usize,
    /// Words of each run's filter: `BLOOM_BITS_PER_KEY · run_len` bits,
    /// rounded up to whole words.
    filter_words: usize,
    runs: Vec<RunMeta>,
    /// Blocks of `64 · filter_words` slices: bit `r % 64` of slice `b` of
    /// block `r / 64` is filter bit `b` of run `r`.
    slices: Vec<u64>,
}

impl SortedRunIndex {
    /// Empty index over runs of `run_len` keys.
    ///
    /// # Panics
    ///
    /// If `run_len` is zero.
    pub fn new(run_len: usize) -> Self {
        assert!(run_len > 0, "a run holds at least one key");
        let filter_words = (BLOOM_BITS_PER_KEY * run_len).div_ceil(64);
        SortedRunIndex { run_len, filter_words, runs: Vec::new(), slices: Vec::new() }
    }

    /// Registers the run frozen from a newly sealed chunk, given its keys in
    /// ascending order: records the zone map and sets the run's filter bits.
    ///
    /// # Panics
    ///
    /// If `keys` is not one run long.
    pub fn push_run(&mut self, keys: &[u64]) {
        assert_eq!(keys.len(), self.run_len, "every run has the index's run length");
        debug_assert!(keys.is_sorted(), "run keys must be ascending");
        let (r, block_words) = (self.runs.len(), 64 * self.filter_words);
        if r % 64 == 0 {
            self.slices.resize(self.slices.len() + block_words, 0);
        }
        let block = &mut self.slices[r / 64 * block_words..];
        for &key in keys {
            for b in bloom_bits(bloom_hash(key), self.filter_words) {
                block[b] |= 1 << (r % 64);
            }
        }
        let len = keys.len();
        self.runs.push(RunMeta { min_key: keys[0], max_key: keys[len - 1], len });
    }

    /// Replaces `masks` with one word per block of 64 runs: bit `r % 64` of
    /// word `r / 64` is set when run `r`'s filter may hold `key`. A Bloom
    /// filter has no false negatives: the bit is set for every run holding
    /// the key.
    pub(crate) fn filter_masks(&self, key: u64, masks: &mut Vec<u64>) {
        let (h, words) = (bloom_hash(key), self.filter_words);
        masks.clear();
        masks.extend(
            self.slices
                .chunks_exact(64 * words)
                .map(|block| bloom_bits(h, words).fold(!0, |mask, b| mask & block[b])),
        );
    }

    /// Run metadata in chunk order.
    pub fn runs(&self) -> &[RunMeta] {
        &self.runs
    }

    /// Drops every run (table storage was dropped).
    pub fn clear(&mut self) {
        self.runs.clear();
        self.slices.clear();
    }

    /// DRAM words of the index skeleton (the `memory_usage` report's
    /// index term): per run, three words of zone map and length, plus
    /// every allocated word of the filter slices (a run's filter words, for
    /// each run of a full block).
    pub fn metadata_words(&self) -> usize {
        3 * self.runs.len() + self.slices.len()
    }
}

/// The positions of every sealed run's keys (key `i` of run `k` at
/// `k << shift | i`) by ascending `(key, position)`: a table's one
/// host-side key order. Like the storage order it is catalog metadata, read
/// from the frozen runs' key halves without a charge; unlike it, a stale
/// one gives wrong answers, so the table resets it whenever it drops its
/// storage.
#[derive(Debug, Default)]
pub(crate) struct KeyOrder {
    /// Runs the order covers: `0..runs`.
    runs: usize,
    /// Bits of a position below its run: the run length's, rounded up to a
    /// power of two, so a position splits without a division.
    shift: u32,
    /// The positions of those runs' keys, by ascending `(key, position)`.
    pos: Vec<u32>,
    /// `spans[k]`: run `k`'s keys in the last walked range, `(start, len)`.
    spans: Vec<(u32, u32)>,
}

impl KeyOrder {
    /// Rebuilds the order over runs `0..runs` of `run_len` keys, given each
    /// run's sorted keys, unless it covers exactly those: one k-way merge of
    /// the runs.
    ///
    /// # Panics
    ///
    /// If a position does not fit a `u32`.
    pub(crate) fn cover<'h>(
        &mut self,
        run_len: usize,
        runs: usize,
        keys: impl Fn(usize) -> &'h [u64],
    ) {
        if runs == self.runs {
            return;
        }
        self.shift = run_len.next_power_of_two().trailing_zeros();
        assert!(runs << self.shift <= 1 << 32, "positions fit a u32");
        let slices: Vec<&[u64]> = (0..runs).map(keys).collect();
        let (shift, mask) = (self.shift, self.mask());
        let key = |p: u32| slices[(p >> shift) as usize][(p & mask) as usize];
        let mut heads: BinaryHeap<_> =
            (0..runs).map(|k| (k << shift) as u32).map(|p| Reverse((key(p), p))).collect();
        self.pos.clear();
        self.pos.reserve_exact(runs * run_len);
        while let Some(mut head) = heads.peek_mut() {
            let Reverse((_, p)) = *head;
            self.pos.push(p);
            if (p & mask) as usize + 1 == run_len {
                PeekMut::pop(head);
            } else {
                *head = Reverse((key(p + 1), p + 1));
            }
        }
        self.runs = runs;
    }

    /// The key-index bits of a position.
    fn mask(&self) -> u32 {
        ((1u64 << self.shift) - 1) as u32
    }

    /// Sets every run's span of keys in `[lo, hi]` ([`KeyOrder::span`]):
    /// one binary search over the order for the first key not below `lo`,
    /// then a walk over the matches. A run's keys ascend and equal keys go
    /// by position, so the walk meets each run's matches in ascending `i`:
    /// one slice of its keys, starting at the first met.
    pub(crate) fn walk<'h>(&mut self, lo: u64, hi: u64, keys: impl Fn(usize) -> &'h [u64]) {
        self.spans.clear();
        self.spans.resize(self.runs, (0, 0));
        let (shift, mask) = (self.shift, self.mask());
        let key = |p: u32| keys((p >> shift) as usize)[(p & mask) as usize];
        let first = self.pos.partition_point(|&p| key(p) < lo);
        for &p in self.pos[first..].iter().take_while(|&&p| key(p) <= hi) {
            let span = &mut self.spans[(p >> shift) as usize];
            if span.1 == 0 {
                span.0 = p & mask;
            }
            span.1 += 1;
        }
    }

    /// Run `k`'s keys in the last walked range: `(start, len)` in its
    /// sorted half.
    pub(crate) fn span(&self, k: usize) -> (usize, usize) {
        let (start, len) = self.spans[k];
        (start as usize, len as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Table, TableConfig, TablePlacement};
    use teraheap_runtime::obs::{EventKind, Level};
    use teraheap_runtime::{Heap, HeapConfig};
    use teraheap_util::proptest_mini::{
        any_u64, check, range_u64, range_usize, vec_of, CaseResult, Config, Just,
    };
    use teraheap_util::rng::Rng;
    use teraheap_util::{prop_assert, prop_oneof};

    /// The per-run filter the slices transpose, kept as their oracle:
    /// `BLOOM_BITS_PER_KEY · len` bits, rounded up to whole words, asked one
    /// run at a time.
    struct RunFilter(Vec<u64>);

    impl RunFilter {
        fn new(keys: &[u64]) -> Self {
            let mut words = vec![0u64; (BLOOM_BITS_PER_KEY * keys.len()).div_ceil(64)];
            for &key in keys {
                for b in bloom_bits(bloom_hash(key), words.len()) {
                    words[b / 64] |= 1 << (b % 64);
                }
            }
            RunFilter(words)
        }

        fn may_contain(&self, key: u64) -> bool {
            bloom_bits(bloom_hash(key), self.0.len()).all(|b| self.0[b / 64] >> (b % 64) & 1 == 1)
        }
    }

    /// Whether run `r`'s bit is set in `masks`.
    fn passes(masks: &[u64], r: usize) -> bool {
        masks[r / 64] >> (r % 64) & 1 == 1
    }

    #[test]
    fn bloom_filter_has_no_false_negatives() {
        // One run length per case, 1..=256 keys (the default chunk size):
        // a narrow domain for duplicates, both ends of the key space, and
        // arbitrary keys.
        let key = prop_oneof![
            2 => range_u64(0..64),
            1 => Just(0u64),
            1 => Just(u64::MAX),
            4 => any_u64(),
        ];
        check(
            "bloom_filter_has_no_false_negatives",
            &(range_usize(1..257), vec_of(vec_of(key, 256..257), 1..4)),
            &Config::with_cases(64),
            |(len, mut runs): (usize, Vec<Vec<u64>>)| {
                let mut index = SortedRunIndex::new(len);
                for keys in &mut runs {
                    keys.truncate(len);
                    keys.sort_unstable();
                    index.push_run(keys);
                }
                let mut masks = Vec::new();
                for (r, keys) in runs.iter().enumerate() {
                    for &k in keys {
                        index.filter_masks(k, &mut masks);
                        prop_assert!(passes(&masks, r), "run {r} of {len} keys ruled out {k}");
                    }
                }
                CaseResult::Pass
            },
        );
    }

    #[test]
    fn sliced_masks_equal_per_run_filters() {
        // One index grown to 130 runs of 1..=256 keys, compared on both
        // sides of the 64-run block edges. A run passes a probe exactly
        // when its own filter says so, false positives included: they
        // decide what a point lookup views, hence its charges.
        check(
            "sliced_masks_equal_per_run_filters",
            &(range_usize(1..257), any_u64()),
            &Config::with_cases(16),
            |(len, seed): (usize, u64)| {
                let mut rng = Rng::seed_from_u64(seed);
                let domain = 1 + rng.gen_range(0..4 * len as u64);
                let mut keys: Vec<Vec<u64>> = (0..130)
                    .map(|_| (0..len).map(|_| rng.gen_range(0..domain)).collect())
                    .collect();
                keys.iter_mut().for_each(|k| k.sort_unstable());
                let filters: Vec<RunFilter> = keys.iter().map(|k| RunFilter::new(k)).collect();
                // Two held keys per run, then keys the runs mostly lack.
                let mut probes: Vec<u64> = keys.iter().flat_map(|k| [k[0], k[len - 1]]).collect();
                probes.extend((0..128).map(|_| rng.next_u64()));
                probes.extend(domain..domain + 64);
                let (mut index, mut masks) = (SortedRunIndex::new(len), Vec::new());
                for (n, run) in keys.iter().enumerate().map(|(r, k)| (r + 1, k)) {
                    index.push_run(run);
                    if ![1, 63, 64, 65, 130].contains(&n) {
                        continue;
                    }
                    for &k in &probes {
                        index.filter_masks(k, &mut masks);
                        prop_assert!(masks.len() == n.div_ceil(64), "one mask per block");
                        for (r, filter) in filters[..n].iter().enumerate() {
                            prop_assert!(
                                passes(&masks, r) == filter.may_contain(k),
                                "run {r} of {n} x {len} keys disagrees on {k}"
                            );
                        }
                        prop_assert!(
                            (n..64 * masks.len()).all(|r| !passes(&masks, r)),
                            "a run past the last of {n} passed {k}"
                        );
                    }
                }
                CaseResult::Pass
            },
        );
    }

    #[test]
    fn point_lookup_views_few_of_128_runs() {
        // Keys shuffled across chunks give every run's zone map the whole
        // key space, so only the filters can prune.
        const RUNS: usize = 128;
        const CHUNK_ROWS: usize = 64;
        let mut heap = Heap::new(HeapConfig::with_words(16 << 10, 256 << 10));
        let mut table = Table::new(TableConfig {
            table_id: 1,
            cols: 1,
            chunk_rows: CHUNK_ROWS,
            key_col: 0,
            placement: TablePlacement::Hot,
        });
        let mut rng = Rng::seed_from_u64(31);
        let mut keys: Vec<u64> = (0..(RUNS * CHUNK_ROWS) as u64).map(|k| k * 8).collect();
        rng.shuffle(&mut keys);
        for &key in &keys {
            table.append_row(&mut heap, &[key]).unwrap();
        }
        assert_eq!(table.sealed_chunks(), RUNS);

        let clock = heap.clock().clone();
        clock.tracer().set_capacity(1 << 16);
        clock.tracer().set_level(Level::Full);
        let built = clock.tracer().emitted();
        let lookups = 256;
        let mut hits = Vec::new();
        for _ in 0..lookups {
            let row = rng.gen_range(0..keys.len() as u64) as usize;
            table.probe_runs(&mut heap, keys[row], keys[row], &mut hits);
            hits.sort_unstable();
            assert_eq!(hits, [row], "a point lookup of a present key finds its row");
        }
        let viewed: Vec<u64> = clock
            .tracer()
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::IndexProbe { runs, .. } if e.seq >= built => Some(u64::from(runs)),
                _ => None,
            })
            .collect();
        assert_eq!(viewed.len(), lookups, "one IndexProbe per lookup");
        let mean = viewed.iter().sum::<u64>() as f64 / lookups as f64;
        assert!(mean <= 3.0, "a point lookup viewed {mean:.2} of {RUNS} runs on average");
    }
}
