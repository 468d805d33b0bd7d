//! Secondary index: sorted-key chunk runs over one column.
//!
//! The index is maintained *incrementally on append*: every time a table
//! seals a chunk, the chunk's `(key, row)` pairs are sorted once and frozen
//! as a run — a primitive array `[sorted keys… | row ids in key order…]`
//! allocated as part of the index's labeled object group, so runs live
//! (and move to H2) with the column they index. Only the run's *skeleton*
//! stays in DRAM: its zone map (min/max key, length) and a Bloom filter
//! over its keys, built from the sorted keys at seal time. A probe
//! binary-searches each candidate run's key half in place through
//! `Heap::view_prims`, so H2-resident runs pay the real fault/arbitration
//! path. Zone maps prune range predicates; keys shuffled across chunks give
//! every run the whole key space, so a point predicate also asks each
//! overlapping run's filter and views only the runs it cannot rule out.

use teraheap_util::rng::SplitMix64;

/// Bloom filter bits per key of a run.
const BLOOM_BITS_PER_KEY: usize = 10;

/// Bits set per key: `BLOOM_BITS_PER_KEY · ln 2 ≈ 7` minimises false
/// positives, to about 0.8%.
const BLOOM_HASHES: u32 = 7;

/// DRAM-side skeleton of one frozen run: its zone map and Bloom filter.
#[derive(Debug, Clone)]
pub struct RunMeta {
    /// Smallest key in the run.
    pub min_key: u64,
    /// Largest key in the run.
    pub max_key: u64,
    /// Keys in the run (the table's chunk size).
    pub len: usize,
    /// Bloom filter over the run's keys: `BLOOM_BITS_PER_KEY · len` bits,
    /// rounded up to whole words.
    bloom: Box<[u64]>,
}

impl RunMeta {
    /// Whether the run can contain a key in `[lo, hi]`.
    pub fn overlaps(&self, lo: u64, hi: u64) -> bool {
        self.min_key <= hi && self.max_key >= lo
    }

    /// Whether the run may hold the key whose [`bloom_hash`] is `h` (a probe
    /// asking many runs about one key hashes it once). A Bloom filter has
    /// no false negatives: this is `true` for every key the run holds.
    #[inline]
    pub(crate) fn may_contain(&self, h: u64) -> bool {
        bloom_bits(h, self.bloom.len()).all(|b| self.bloom[b / 64] >> (b % 64) & 1 == 1)
    }
}

/// The one SplitMix64 mix of `key` its filter bits derive from.
pub(crate) fn bloom_hash(key: u64) -> u64 {
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
/// order. The runs' payloads are heap objects rooted in the table's chunk
/// directory; probing lives on [`crate::table::Table::probe_index`] where
/// both are in scope.
#[derive(Debug, Clone, Default)]
pub struct SortedRunIndex {
    runs: Vec<RunMeta>,
}

impl SortedRunIndex {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the run frozen from a newly sealed chunk, given its keys in
    /// ascending order: records the zone map and fills the run's filter.
    ///
    /// # Panics
    ///
    /// If `keys` is empty.
    pub fn push_run(&mut self, keys: &[u64]) {
        debug_assert!(keys.is_sorted(), "run keys must be ascending");
        let len = keys.len();
        let mut bloom = vec![0u64; (BLOOM_BITS_PER_KEY * len).div_ceil(64)].into_boxed_slice();
        for &key in keys {
            for b in bloom_bits(bloom_hash(key), bloom.len()) {
                bloom[b / 64] |= 1 << (b % 64);
            }
        }
        self.runs.push(RunMeta { min_key: keys[0], max_key: keys[len - 1], len, bloom });
    }

    /// Run metadata in chunk order.
    pub fn runs(&self) -> &[RunMeta] {
        &self.runs
    }

    /// Drops every run (table storage was dropped).
    pub fn clear(&mut self) {
        self.runs.clear();
    }

    /// DRAM words of the index skeleton (the `memory_usage` report's
    /// index term): per run, three words of zone map and length plus the
    /// words of its Bloom filter.
    pub fn metadata_words(&self) -> usize {
        self.runs.iter().map(|run| 3 + run.bloom.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Table, TableConfig, TablePlacement};
    use teraheap_runtime::obs::{EventKind, Level};
    use teraheap_runtime::{Heap, HeapConfig};
    use teraheap_util::proptest_mini::{
        any_u64, check, range_u64, vec_of, CaseResult, Config, Just,
    };
    use teraheap_util::rng::Rng;
    use teraheap_util::{prop_assert, prop_oneof};

    #[test]
    fn bloom_filter_has_no_false_negatives() {
        // Runs of 1..=256 keys (the default chunk size): a narrow domain
        // for duplicates, both ends of the key space, and arbitrary keys.
        let key = prop_oneof![
            2 => range_u64(0..64),
            1 => Just(0u64),
            1 => Just(u64::MAX),
            4 => any_u64(),
        ];
        check(
            "bloom_filter_has_no_false_negatives",
            &vec_of(vec_of(key, 1..257), 1..4),
            &Config::with_cases(64),
            |runs: Vec<Vec<u64>>| {
                let mut index = SortedRunIndex::new();
                for keys in &runs {
                    let mut keys = keys.clone();
                    keys.sort_unstable();
                    index.push_run(&keys);
                }
                for (run, keys) in index.runs().iter().zip(&runs) {
                    prop_assert!(
                        keys.iter().all(|&k| run.may_contain(bloom_hash(k))),
                        "a held key was ruled out"
                    );
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
        clock.tracer().clear();
        let lookups = 256;
        let mut hits = Vec::new();
        for _ in 0..lookups {
            let row = rng.gen_range(0..keys.len() as u64) as usize;
            table.probe_index(&mut heap, keys[row], keys[row], &mut hits);
            assert_eq!(hits, [row], "a point lookup of a present key finds its row");
        }
        let viewed: Vec<u64> = clock
            .tracer()
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::IndexProbe { runs, .. } => Some(u64::from(runs)),
                _ => None,
            })
            .collect();
        assert_eq!(viewed.len(), lookups, "one IndexProbe per lookup");
        let mean = viewed.iter().sum::<u64>() as f64 / lookups as f64;
        assert!(mean <= 3.0, "a point lookup viewed {mean:.2} of {RUNS} runs on average");
    }
}
