//! Reference forwarding table and the property suite that pins [`LiveMap`]
//! to it.
//!
//! [`Dense`] is the table the major collector used before the mark bitmap: a
//! direct-mapped array as large as H1 itself, indexed by source address
//! (`dest + 1`, 0 = not forwarded), plus the list of sources it set. Nothing
//! is ranked, counted or rotated, so it is obviously a `src → dest` map.
//! Random live sets must then give both the same answer for every address
//! probed, and the bitmap's scan must be the live set sorted the way the
//! collector used to sort it: old generation first, then young, each
//! ascending.

use super::LiveMap;
use teraheap_util::proptest_mini::{check, range_usize, vec_of, CaseResult, Config, Strategy};
use teraheap_util::{prop_assert, prop_assert_eq};

struct Dense {
    dense: Vec<u64>,
    srcs: Vec<u64>,
}

impl Dense {
    fn new(heap_words: usize) -> Self {
        Dense { dense: vec![0; heap_words], srcs: Vec::new() }
    }

    fn push(&mut self, src: u64, dest: u64) {
        assert_eq!(self.dense[src as usize], 0, "duplicate forwarding source");
        self.dense[src as usize] = dest + 1;
        self.srcs.push(src);
    }

    fn get(&self, src: u64) -> Option<u64> {
        match self.dense.get(src as usize) {
            Some(&v) if v != 0 => Some(v - 1),
            _ => None,
        }
    }
}

/// G1 region size the H1 destinations are rounded to when a case asks.
const G1_REGION: u64 = 32;
const H2_BASE: u64 = 1 << 40;

#[derive(Debug, Clone)]
struct Case {
    words: usize,
    old_base: u64,
    /// Marked in this order; duplicates re-mark.
    marks: Vec<u64>,
    /// Per enumeration rank: 0 = H2, 1 = H1, 2 = H1 rounded up to a region.
    kinds: Vec<usize>,
}

fn case() -> impl Strategy<Value = Case> {
    let geometry = (range_usize(80..700), range_usize(0..1000));
    // Bit 0..6 of `edges` force the first and last heap word and the sources
    // sitting at bit 0 and bit 63 of a bitmap block.
    let picks = (vec_of(range_usize(0..1 << 20), 0..120), range_usize(0..128));
    (geometry, picks, vec_of(range_usize(0..3), 128..129)).prop_map(
        |((words, frac), (picks, edges), kinds)| {
            let old_base = (16 + frac * (words - 17) / 1000) as u64;
            let old_len = words as u64 - old_base;
            let at_pos = |pos: u64| if pos < old_len { pos + old_base } else { pos - old_len };
            let forced = [
                0,
                words as u64 - 1,
                at_pos(0),
                at_pos(63),
                at_pos(64),
                at_pos(127 % words as u64),
                old_base - 1,
            ];
            let mut marks: Vec<u64> = picks.iter().map(|&p| (p % words) as u64).collect();
            marks.extend(
                forced.iter().enumerate().filter(|(i, _)| edges >> i & 1 == 1).map(|(_, &a)| a),
            );
            Case { words, old_base, marks, kinds }
        },
    )
}

#[test]
fn rank_forwarding_matches_dense_reference() {
    check(
        "rank_forwarding_matches_dense_reference",
        &case(),
        &Config::with_cases(512),
        |c: Case| {
            let mut map = LiveMap::default().recycled(c.old_base, c.words);
            let mut live: Vec<u64> = Vec::new();
            for &a in &c.marks {
                prop_assert_eq!(map.mark(a), !live.contains(&a), "mark({a}) freshness");
                if !live.contains(&a) {
                    live.push(a);
                }
                prop_assert!(map.is_marked(a));
            }

            // The scan is the sort: old then young, each ascending.
            let (mut old, mut young): (Vec<u64>, Vec<u64>) =
                live.iter().partition(|&&a| a >= c.old_base);
            old.sort_unstable();
            young.sort_unstable();
            let order: Vec<u64> = old.iter().chain(&young).copied().collect();
            prop_assert_eq!(map.sources().collect::<Vec<_>>(), order.clone(), "pre-freeze scan");
            prop_assert_eq!(map.freeze(), order.len());
            prop_assert_eq!(map.len(), order.len());
            prop_assert_eq!(map.sources().collect::<Vec<_>>(), order.clone(), "frozen scan");
            prop_assert_eq!(map.old_live(), old.len());

            // Destinations the way the plan hands them out: H2 addresses by
            // source, H1 addresses by sequential rank.
            let mut reference = Dense::new(c.words);
            let (mut new_top, mut h2_top) = (c.old_base, H2_BASE);
            for (rank, &src) in order.iter().enumerate() {
                prop_assert_eq!(map.rank(src), rank);
                let from_rank: Vec<u64> = map.sources_from(rank).collect();
                prop_assert_eq!(from_rank, order[rank..].to_vec(), "sources_from({rank})");
                let dest = match c.kinds[rank % c.kinds.len()] {
                    0 => {
                        h2_top += 3 + rank as u64;
                        map.set_dest(map.rank(src), h2_top);
                        h2_top
                    }
                    kind => {
                        if kind == 2 {
                            new_top = new_top.next_multiple_of(G1_REGION);
                        }
                        new_top += 2;
                        map.set_dest(rank, new_top);
                        new_top
                    }
                };
                reference.push(src, dest);
            }

            for (rank, &src) in order.iter().enumerate() {
                prop_assert_eq!(map.get(src), reference.get(src), "get({src})");
                prop_assert_eq!(Some(map.dest(rank)), reference.get(src), "dest({rank})");
                let (from, dest) = map.dests_from(rank).next().map(|(s, d)| (s, *d)).unzip();
                prop_assert_eq!(from, Some(src), "dests_from({rank})");
                prop_assert_eq!(dest, reference.get(src));
            }
            // Every other address — in the heap, in the bitmap's padding,
            // past it, in H2 — is not forwarded.
            let probes = (0..c.words as u64 + 200).chain([H2_BASE, H2_BASE + 5, h2_top, u64::MAX]);
            for a in probes.filter(|a| !live.contains(a)) {
                prop_assert_eq!(map.get(a), None, "get({a}) of a non-live address");
                prop_assert_eq!(reference.get(a), None);
                prop_assert!(!map.is_marked(a));
            }

            // Recycling: all-zero again, and usable at another geometry.
            let mut map = map.reset().recycled(c.old_base / 2 + 8, c.words / 2 + 40);
            prop_assert_eq!(map.sources().next(), None);
            prop_assert!(map.mark(9));
            prop_assert_eq!(map.freeze(), 1);
            prop_assert_eq!(map.sources().collect::<Vec<_>>(), vec![9]);
            CaseResult::Pass
        },
    );
}

#[test]
fn empty_and_single_object_sets() {
    let mut map = LiveMap::default().recycled(100, 300);
    assert_eq!(map.freeze(), 0);
    assert_eq!(map.sources().next(), None);
    assert_eq!(map.get(100), None);
    let mut map = map.reset().recycled(100, 300);
    assert!(map.mark(299));
    assert!(!map.mark(299));
    assert_eq!(map.freeze(), 1);
    map.set_dest(0, H2_BASE);
    assert_eq!((map.rank(299), map.old_live(), map.get(299)), (0, 1, Some(H2_BASE)));
    assert_eq!(map.get(298), None);
}
