//! Full-heap invariant checker and post-crash recovery.
//!
//! The fault-injection plane (`teraheap_storage::fault`) can kill a run in
//! the middle of an H2 write-back, leaving torn pages on the simulated
//! device. [`crate::heap::Heap::recover_from_crash`] rebuilds a consistent
//! dual-heap from what durably survived, and [`crate::heap::Heap::heap_check`]
//! verifies — at any GC boundary — that the whole heap still satisfies the
//! structural invariants the collector relies on:
//!
//! * every object in eden, the active survivor space, the old generation
//!   and every in-use H2 region has a well-formed header (registered class,
//!   in-bounds size) with no candidate / forwarding bits left over from a
//!   collection, and the major cycle's mark bitmap is all-zero outside a
//!   cycle;
//! * every non-null reference slot — H1 or H2 resident — targets a valid
//!   object start in H1 or H2 (no dangling references);
//! * the H1 card table covers every old→young reference, and the H2 card
//!   table covers every backward (H2→H1) reference, with young targets only
//!   on `Dirty`/`YoungGen` cards;
//! * per-region accounting: the objects indexed for an H2 region tile its
//!   allocated prefix exactly, so walked live bytes equal the region's
//!   `used_words`.
//!
//! Checking is opt-in (`HeapConfig::heap_check` or `TERAHEAP_HEAP_CHECK=1`)
//! because the walk is O(heap); GC entry points call
//! [`crate::heap::Heap::maybe_heap_check`] so enabled runs trip loudly at
//! the first corrupted boundary instead of producing silently wrong results.

use crate::heap::Heap;
use crate::object;
use std::collections::HashSet;
use teraheap_core::{Addr, CardState, RecoveryReport, RegionId, NULL};

/// Counters from a successful [`Heap::heap_check`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Objects verified in H1 (eden + active survivor + old generation).
    pub h1_objects: u64,
    /// Objects verified in H2 regions.
    pub h2_objects: u64,
    /// Non-null reference slots verified.
    pub refs_checked: u64,
    /// Card-table entries verified against a covered reference.
    pub cards_checked: u64,
}

/// The first violated invariant found by [`Heap::heap_check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// An object header is malformed (size out of bounds, unknown class).
    BadHeader { addr: u64, detail: &'static str },
    /// A GC-internal header bit survived past the collection that set it.
    StaleGcBits { addr: u64, detail: &'static str },
    /// An object-start index is out of order or does not tile its space.
    UnsortedStarts { space: &'static str, index: usize },
    /// A reference slot targets an address that is not a valid object start.
    DanglingRef { from: u64, slot: u64, to: u64 },
    /// A root-table entry targets an address that is not a valid object.
    DanglingRoot { slot: usize, to: u64 },
    /// A reference exists that its card table does not cover.
    CardInconsistent { slot: u64, target: u64, detail: &'static str },
    /// Walked region bytes disagree with the region allocator's accounting.
    RegionAccounting { region: u32, walked: usize, recorded: usize },
    /// The inactive survivor space holds data outside a collection.
    SurvivorNotEmpty { words: usize },
    /// A GC phase's work units under- or over-covered their domain: `key`
    /// (a card index or object address, namespaced by the scheduler) was
    /// claimed `claims` times instead of exactly once.
    UnitCoverage { phase: &'static str, key: u64, claims: u64, expected: u64 },
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::BadHeader { addr, detail } => {
                write!(f, "bad header at {addr:#x}: {detail}")
            }
            CheckError::StaleGcBits { addr, detail } => {
                write!(f, "stale GC bits at {addr:#x}: {detail}")
            }
            CheckError::UnsortedStarts { space, index } => {
                write!(f, "object-start index for {space} broken at entry {index}")
            }
            CheckError::DanglingRef { from, slot, to } => write!(
                f,
                "object {from:#x} slot {slot:#x} references {to:#x}, not a valid object"
            ),
            CheckError::DanglingRoot { slot, to } => {
                write!(f, "root {slot} references {to:#x}, not a valid object")
            }
            CheckError::CardInconsistent { slot, target, detail } => write!(
                f,
                "card table misses reference at slot {slot:#x} -> {target:#x}: {detail}"
            ),
            CheckError::RegionAccounting { region, walked, recorded } => write!(
                f,
                "H2 region {region}: walked {walked} live words but allocator records {recorded}"
            ),
            CheckError::SurvivorNotEmpty { words } => {
                write!(f, "inactive survivor space holds {words} words outside GC")
            }
            CheckError::UnitCoverage { phase, key, claims, expected } => write!(
                f,
                "phase {phase}: work-unit key {key:#x} claimed {claims} times, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for CheckError {}

/// What [`Heap::recover_from_crash`] rebuilt and repaired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrashRecovery {
    /// The storage-level recovery report from [`teraheap_core::H2::recover`].
    pub h2: RecoveryReport,
    /// H2 objects surviving in the rebuilt per-region start index.
    pub h2_objects: u64,
    /// H1-resident reference slots nulled because their H2 target was lost.
    pub h1_refs_nulled: u64,
    /// H2-resident reference slots nulled because their target was lost.
    pub h2_refs_nulled: u64,
    /// Root-table entries nulled because their H2 target was lost.
    pub roots_nulled: u64,
}

impl Heap {
    /// Verifies the full-heap invariants listed in the [module docs](self).
    ///
    /// Intended for quiescent points (GC boundaries, end of a workload);
    /// must not be called from inside a collection, where forwarding bits
    /// are legitimately set. Between the slices of an incremental major
    /// cycle the check adapts: before the flip the full walk runs with
    /// candidate bits allowed (selection legitimately leaves them set
    /// between slices; the marks live in the cycle's own bitmap); during
    /// relocation only root resolution is
    /// checked (objects are mid-motion and H2 promotion is mid-flight).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`CheckError`].
    pub fn heap_check(&self) -> Result<CheckReport, CheckError> {
        debug_assert!(!self.in_gc, "heap_check inside a collection");
        match self.cycle.as_deref() {
            Some(cyc) if !cyc.pre_flip() => return self.heap_check_relocating(),
            Some(_) => return self.heap_check_walk(true),
            None => {}
        }
        if let Some(addr) = self.mark_scratch.sources().next() {
            return Err(CheckError::StaleGcBits {
                addr,
                detail: "mark bitmap bit outside a cycle",
            });
        }
        self.heap_check_walk(false)
    }

    /// On-demand invariant sweep for long-running harnesses.
    ///
    /// The *armed* sweeps (`maybe_heap_check`) only fire at collection
    /// boundaries, and only when checking was requested at heap
    /// construction (`HeapConfig::heap_check` / `TERAHEAP_HEAP_CHECK=1`).
    /// Endurance harnesses want a leak/corruption checkpoint at their own
    /// cadence — e.g. every K churn rounds — regardless of how the heap
    /// was built, and without paying the O(heap) walk at every GC in
    /// between. This entry point runs the same full walk unconditionally,
    /// counts the sweep in [`GcStats::heap_checks_on_demand`]
    /// (so a harness can assert its checkpoints actually ran), and charges
    /// nothing to simulated time: checking is instrumentation, not
    /// workload.
    ///
    /// [`GcStats::heap_checks_on_demand`]: crate::GcStats::heap_checks_on_demand
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as a [`CheckError`].
    pub fn heap_check_now(&mut self) -> Result<CheckReport, CheckError> {
        self.stats.heap_checks_on_demand += 1;
        self.heap_check()
    }

    /// The relocation-window check: every live root must resolve — through
    /// the cycle's destination index — to a well-formed object header.
    fn heap_check_relocating(&self) -> Result<CheckReport, CheckError> {
        let cyc = self.cycle.as_deref().expect("relocating check without a cycle");
        let mut report = CheckReport::default();
        for (i, &a) in self.roots.iter().enumerate() {
            if a.is_null() {
                continue;
            }
            let (phys, _) = cyc.view(a);
            let header = self.word(phys);
            let bad = object::is_forwarded(header)
                || object::size_of(header) < object::HEADER_WORDS
                || object::class_of(header).0 as usize >= self.classes.len();
            if bad {
                return Err(CheckError::DanglingRoot { slot: i, to: a.raw() });
            }
            if phys.is_h2() {
                report.h2_objects += 1;
            } else {
                report.h1_objects += 1;
            }
        }
        Ok(report)
    }

    fn heap_check_walk(&self, allow_gc_bits: bool) -> Result<CheckReport, CheckError> {
        let mut report = CheckReport::default();
        if self.to.used_words() != 0 {
            return Err(CheckError::SurvivorNotEmpty { words: self.to.used_words() });
        }

        // ---- valid object-start sets -----------------------------------
        let mut h1: HashSet<u64> = HashSet::new();
        self.collect_linear(self.eden.base().raw(), self.eden.top().raw(), &mut h1, &mut report, allow_gc_bits)?;
        self.collect_linear(self.from.base().raw(), self.from.top().raw(), &mut h1, &mut report, allow_gc_bits)?;
        // The old generation is indexed by `old_starts` (a linear walk
        // cannot cross G1 humongous footprint gaps).
        let old_top = self.old.top().raw();
        for (i, &s) in self.old_starts.iter().enumerate() {
            if i > 0 && self.old_starts[i - 1] >= s {
                return Err(CheckError::UnsortedStarts { space: "old", index: i });
            }
            if s < self.old.base().raw() || s >= old_top {
                return Err(CheckError::BadHeader {
                    addr: s,
                    detail: "start index entry outside the old generation",
                });
            }
            let header = self.mem[s as usize];
            self.check_header(s, header, (old_top - s) as usize, allow_gc_bits)?;
            let end = s + object::size_of(header) as u64;
            if let Some(&next) = self.old_starts.get(i + 1) {
                if end > next {
                    return Err(CheckError::BadHeader {
                        addr: s,
                        detail: "object overlaps the next old-generation object",
                    });
                }
            }
            h1.insert(s);
            report.h1_objects += 1;
        }

        let mut h2set: HashSet<u64> = HashSet::new();
        if let Some(h2) = self.h2.as_ref() {
            // An in-use region the index does not cover fails the tiling
            // check too: card scans would silently skip its objects.
            for (rid, starts) in self.h2_starts.iter().enumerate() {
                let rid = rid as u32;
                let base = h2.regions().region_base(RegionId(rid)).raw();
                let used = h2.regions().used_words(RegionId(rid));
                // Region allocation is a pure bump: the indexed objects must
                // tile [base, base+used) exactly — this *is* the per-region
                // live-byte accounting check.
                let mut expect = base;
                for (i, &s) in starts.iter().enumerate() {
                    if s != expect {
                        return Err(CheckError::UnsortedStarts { space: "h2", index: i });
                    }
                    let header = h2.read_word_free(Addr::new(s));
                    self.check_header(s, header, used - (s - base) as usize, allow_gc_bits)?;
                    h2set.insert(s);
                    report.h2_objects += 1;
                    expect = s + object::size_of(header) as u64;
                }
                let walked = (expect - base) as usize;
                if walked != used {
                    return Err(CheckError::RegionAccounting { region: rid, walked, recorded: used });
                }
            }
        }

        // ---- reference and card checks ---------------------------------
        let mut h1_sorted: Vec<u64> = h1.iter().copied().collect();
        h1_sorted.sort_unstable();
        for &a in &h1_sorted {
            let obj = Addr::new(a);
            let in_old = self.old.contains(obj);
            let (first_slot, end_slot) = self.ref_slot_range(obj);
            for s in first_slot..end_slot {
                let val = self.mem[s as usize];
                if val == 0 {
                    continue;
                }
                report.refs_checked += 1;
                let target = Addr::new(val);
                if target.is_h2() {
                    if !h2set.contains(&val) {
                        return Err(CheckError::DanglingRef { from: a, slot: s, to: val });
                    }
                    continue;
                }
                if !h1.contains(&val) {
                    return Err(CheckError::DanglingRef { from: a, slot: s, to: val });
                }
                if in_old && self.in_young(target) {
                    report.cards_checked += 1;
                    if !self.h1_cards.is_dirty(self.h1_cards.card_of(Addr::new(s))) {
                        return Err(CheckError::CardInconsistent {
                            slot: s,
                            target: val,
                            detail: "old→young reference on a clean H1 card",
                        });
                    }
                }
            }
        }

        if let Some(h2) = self.h2.as_ref() {
            let mut h2_sorted: Vec<u64> = h2set.iter().copied().collect();
            h2_sorted.sort_unstable();
            for &a in &h2_sorted {
                let obj = Addr::new(a);
                let (first_slot, end_slot) = self.ref_slot_range(obj);
                for s in first_slot..end_slot {
                    let slot = Addr::new(s);
                    let val = h2.read_word_free(slot);
                    if val == 0 {
                        continue;
                    }
                    report.refs_checked += 1;
                    let target = Addr::new(val);
                    if target.is_h2() {
                        if !h2set.contains(&val) {
                            return Err(CheckError::DanglingRef { from: a, slot: s, to: val });
                        }
                        continue;
                    }
                    if !h1.contains(&val) {
                        return Err(CheckError::DanglingRef { from: a, slot: s, to: val });
                    }
                    // Backward (H2→H1) reference: its card must be fenced.
                    report.cards_checked += 1;
                    let state = h2.cards().state(h2.cards().card_of(slot));
                    if state == CardState::Clean {
                        return Err(CheckError::CardInconsistent {
                            slot: s,
                            target: val,
                            detail: "backward reference on a clean H2 card",
                        });
                    }
                    if self.in_young(target) && state == CardState::OldGen {
                        return Err(CheckError::CardInconsistent {
                            slot: s,
                            target: val,
                            detail: "young backward target on an OldGen H2 card",
                        });
                    }
                }
            }
        }

        for (i, &a) in self.roots.iter().enumerate() {
            if a.is_null() {
                continue;
            }
            let valid = if a.is_h2() { h2set.contains(&a.raw()) } else { h1.contains(&a.raw()) };
            if !valid {
                return Err(CheckError::DanglingRoot { slot: i, to: a.raw() });
            }
        }

        Ok(report)
    }

    /// Walks a contiguously-allocated H1 range, validating headers and
    /// collecting object starts.
    fn collect_linear(
        &self,
        lo: u64,
        hi: u64,
        set: &mut HashSet<u64>,
        report: &mut CheckReport,
        allow_gc_bits: bool,
    ) -> Result<(), CheckError> {
        let mut a = lo;
        while a < hi {
            let header = self.mem[a as usize];
            self.check_header(a, header, (hi - a) as usize, allow_gc_bits)?;
            set.insert(a);
            report.h1_objects += 1;
            a += object::size_of(header) as u64;
        }
        Ok(())
    }

    fn check_header(
        &self,
        addr: u64,
        header: u64,
        max_words: usize,
        allow_gc_bits: bool,
    ) -> Result<(), CheckError> {
        if object::is_forwarded(header) {
            return Err(CheckError::StaleGcBits {
                addr,
                detail: "forwarding header outside a collection",
            });
        }
        if !allow_gc_bits && object::is_candidate(header) {
            return Err(CheckError::StaleGcBits {
                addr,
                detail: "candidate bit outside a collection",
            });
        }
        let size = object::size_of(header);
        if size < object::HEADER_WORDS || size > max_words {
            return Err(CheckError::BadHeader { addr, detail: "object size out of bounds" });
        }
        if object::class_of(header).0 as usize >= self.classes.len() {
            return Err(CheckError::BadHeader { addr, detail: "unregistered class id" });
        }
        Ok(())
    }

    /// Rebuilds a consistent dual-heap after a fault-plane crash killed an
    /// H2 write-back mid-flight (simulating a process restart over the
    /// surviving device image).
    ///
    /// Storage-level recovery ([`teraheap_core::H2::recover`]) restores H2
    /// data and region metadata from the durable image and its write-ahead
    /// meta journal; this method then rebuilds the runtime's view:
    ///
    /// 1. the per-region object-start index, by header-walking each
    ///    recovered region's journaled prefix (truncating a region at the
    ///    first unparsable header — belt and braces over the journal);
    /// 2. H2-resident reference slots: targets lost with the crash are
    ///    nulled, surviving cross-region references re-record their
    ///    directional dependency, surviving backward (H2→H1) references
    ///    conservatively dirty the rebuilt card table (the next minor GC
    ///    re-derives precise `YoungGen`/`OldGen` states);
    /// 3. H1-resident reference slots and root-table entries pointing at
    ///    lost H2 objects are nulled. A nulled root's slot is *not*
    ///    recycled — a live [`crate::heap::Handle`] may still index it, and
    ///    recycling would silently alias it to an unrelated object.
    ///
    /// Every repair is counted in the returned [`CrashRecovery`]: data loss
    /// is always reported, never silent. A no-op (reported as default) when
    /// TeraHeap is disabled.
    pub fn recover_from_crash(&mut self) -> CrashRecovery {
        let mut out = CrashRecovery::default();
        if self.h2.is_none() {
            return out;
        }
        out.h2 = self.h2.as_mut().unwrap().recover();
        // Roots of lost objects are nulled below: every pin is stale.
        self.move_epoch += 1;

        // ---- 1. rebuild the per-region object-start index --------------
        let region_count = self.h2.as_ref().unwrap().regions().region_count() as u32;
        for rid in 0..region_count {
            let (base, used) = {
                let regions = self.h2.as_ref().unwrap().regions();
                (regions.region_base(RegionId(rid)).raw(), regions.used_words(RegionId(rid)))
            };
            let mut starts: Vec<u64> = Vec::new();
            let mut off = 0usize;
            while off < used {
                let header = self.h2.as_ref().unwrap().read_word_free(Addr::new(base + off as u64));
                let size = object::size_of(header);
                let bad = object::is_forwarded(header)
                    || size < object::HEADER_WORDS
                    || off + size > used
                    || (object::class_of(header).0 as usize) >= self.classes.len();
                if bad {
                    // Unparsable tail (e.g. a quarantined region zeroed
                    // mid-object): drop it from the allocator's accounting.
                    self.h2.as_mut().unwrap().regions_mut().truncate(RegionId(rid), off);
                    break;
                }
                starts.push(base + off as u64);
                off += size;
            }
            self.h2_starts[rid as usize] = starts;
        }
        out.h2_objects = self.h2_starts.iter().map(|v| v.len() as u64).sum();

        // ---- 2. valid-object sets --------------------------------------
        // H1 survived the (simulated) crash untouched: the walk must succeed.
        let mut h1: HashSet<u64> = HashSet::new();
        let mut scratch = CheckReport::default();
        self.collect_linear(self.eden.base().raw(), self.eden.top().raw(), &mut h1, &mut scratch, false)
            .expect("H1 eden damaged outside the fault plane");
        self.collect_linear(self.from.base().raw(), self.from.top().raw(), &mut h1, &mut scratch, false)
            .expect("H1 survivor space damaged outside the fault plane");
        for &s in &self.old_starts {
            h1.insert(s);
        }
        let h2set: HashSet<u64> =
            self.h2_starts.iter().flat_map(|v| v.iter().copied()).collect();

        // ---- 3. repair H2-resident slots, rebuild cards + deps ---------
        for rid in 0..self.h2_starts.len() {
            for a in self.h2_starts[rid].clone() {
                let obj = Addr::new(a);
                let (first_slot, end_slot) = self.ref_slot_range(obj);
                for s in first_slot..end_slot {
                    let slot = Addr::new(s);
                    let val = self.h2.as_ref().unwrap().read_word_free(slot);
                    if val == 0 {
                        continue;
                    }
                    let target = Addr::new(val);
                    if target.is_h2() {
                        if h2set.contains(&val) {
                            let h2 = self.h2.as_mut().unwrap();
                            let from = h2.regions().region_of(obj);
                            let to = h2.regions().region_of(target);
                            if from != to {
                                h2.regions_mut().add_dependency(from, to);
                            }
                        } else {
                            self.h2.as_mut().unwrap().write_word_free(slot, 0);
                            out.h2_refs_nulled += 1;
                        }
                    } else if h1.contains(&val) {
                        // Surviving backward reference: conservatively
                        // `Dirty`; the next minor scan re-derives the state.
                        self.h2.as_mut().unwrap().cards_mut().mark_dirty(slot);
                    } else {
                        self.h2.as_mut().unwrap().write_word_free(slot, 0);
                        out.h2_refs_nulled += 1;
                    }
                }
            }
        }

        // ---- 4. repair H1-resident slots -------------------------------
        let mut h1_sorted: Vec<u64> = h1.iter().copied().collect();
        h1_sorted.sort_unstable();
        for a in h1_sorted {
            let (first_slot, end_slot) = self.ref_slot_range(Addr::new(a));
            for s in first_slot..end_slot {
                let val = self.mem[s as usize];
                if val != 0 && Addr::new(val).is_h2() && !h2set.contains(&val) {
                    self.mem[s as usize] = 0;
                    out.h1_refs_nulled += 1;
                }
            }
        }

        // ---- 5. repair roots -------------------------------------------
        for i in 0..self.roots.len() {
            let a = self.roots[i];
            if a.is_h2() && !h2set.contains(&a.raw()) {
                self.roots[i] = NULL;
                out.roots_nulled += 1;
            }
        }
        out
    }
}

/// Validates the work-unit coverage of one GC phase (the scheduler calls
/// this at every phase barrier when the heap checker is armed): every
/// expected key — a card index or live-object address, namespaced by the
/// scheduler — must be claimed by exactly one unit, and no unit may claim a
/// key outside the domain. Both vectors are consumed (sorted in place).
///
/// # Errors
///
/// Returns the first under- or over-covered key as
/// [`CheckError::UnitCoverage`].
pub(crate) fn validate_unit_coverage(
    phase: &'static str,
    expected: &mut [u64],
    claims: &mut [u64],
) -> Result<(), CheckError> {
    expected.sort_unstable();
    claims.sort_unstable();
    let (mut e, mut c) = (0usize, 0usize);
    while e < expected.len() || c < claims.len() {
        match (expected.get(e), claims.get(c)) {
            (Some(&ek), Some(&ck)) if ek == ck => {
                // Count duplicate claims of this key.
                let mut n = 0u64;
                while claims.get(c) == Some(&ek) {
                    n += 1;
                    c += 1;
                }
                if n != 1 {
                    return Err(CheckError::UnitCoverage { phase, key: ek, claims: n, expected: 1 });
                }
                e += 1;
            }
            (Some(&ek), Some(&ck)) if ek < ck => {
                return Err(CheckError::UnitCoverage { phase, key: ek, claims: 0, expected: 1 });
            }
            (Some(_), Some(&ck)) => {
                return Err(CheckError::UnitCoverage { phase, key: ck, claims: 1, expected: 0 });
            }
            (Some(&ek), None) => {
                return Err(CheckError::UnitCoverage { phase, key: ek, claims: 0, expected: 1 });
            }
            (None, Some(&ck)) => {
                return Err(CheckError::UnitCoverage { phase, key: ck, claims: 1, expected: 0 });
            }
            (None, None) => unreachable!(),
        }
    }
    Ok(())
}

#[cfg(test)]
mod coverage_tests {
    use super::*;

    #[test]
    fn exact_coverage_passes() {
        let mut exp = vec![3, 1, 2];
        let mut got = vec![2, 3, 1];
        assert!(validate_unit_coverage("t", &mut exp, &mut got).is_ok());
    }

    #[test]
    fn missing_key_is_reported() {
        let mut exp = vec![1, 2];
        let mut got = vec![1];
        assert_eq!(
            validate_unit_coverage("t", &mut exp, &mut got),
            Err(CheckError::UnitCoverage { phase: "t", key: 2, claims: 0, expected: 1 })
        );
    }

    #[test]
    fn duplicate_claim_is_reported() {
        let mut exp = vec![1, 2];
        let mut got = vec![1, 2, 2];
        assert_eq!(
            validate_unit_coverage("t", &mut exp, &mut got),
            Err(CheckError::UnitCoverage { phase: "t", key: 2, claims: 2, expected: 1 })
        );
    }

    #[test]
    fn unexpected_claim_is_reported() {
        let mut exp = vec![1];
        let mut got = vec![1, 9];
        assert_eq!(
            validate_unit_coverage("t", &mut exp, &mut got),
            Err(CheckError::UnitCoverage { phase: "t", key: 9, claims: 1, expected: 0 })
        );
    }

    #[test]
    fn empty_domains_pass() {
        assert!(validate_unit_coverage("t", &mut Vec::new(), &mut Vec::new()).is_ok());
    }
}

#[cfg(test)]
mod on_demand_tests {
    use super::CheckError;
    use crate::heap::Heap;
    use crate::object;
    use crate::HeapConfig;
    use teraheap_core::{H2Config, Label};
    use teraheap_storage::{DeviceSpec, SharedDevice};

    fn h2_heap() -> Heap {
        let mut heap = Heap::new(HeapConfig::small());
        let h2cfg = H2Config::builder()
            .region_words(1 << 10)
            .n_regions(16)
            .card_seg_words(128)
            .resident_budget_bytes(64 << 10)
            .page_size(4096)
            .promo_buffer_bytes(8 << 10)
            .build()
            .expect("valid H2 config");
        let dev = SharedDevice::new(
            DeviceSpec::nvme_ssd(),
            h2cfg.footprint_bytes(),
            heap.clock().clone(),
        );
        heap.attach_h2(h2cfg, &dev).unwrap();
        heap
    }

    #[test]
    fn on_demand_check_runs_unarmed_and_counts_sweeps() {
        // No `heap_check` arming at construction: the per-GC sweeps are
        // off, but the on-demand entry still walks the heap.
        let mut heap = h2_heap();
        let arr = heap.alloc_prim_array(32).unwrap();
        heap.write_prim(arr, 0, 7);
        let ns_before = heap.clock().total_ns();
        let report = heap.heap_check_now().expect("clean heap passes");
        assert!(report.h1_objects >= 1);
        assert_eq!(heap.stats().heap_checks_on_demand, 1);
        assert_eq!(heap.clock().total_ns(), ns_before, "checking charges nothing");
        heap.heap_check_now().expect("still clean");
        assert_eq!(heap.stats().heap_checks_on_demand, 2);
    }

    #[test]
    fn mark_bitmap_bit_outside_a_cycle_is_reported() {
        let mut heap = h2_heap();
        let arr = heap.alloc_prim_array(8).unwrap();
        // The cycle sizes the recycled bitmap and must hand it back all-zero.
        heap.gc_major().unwrap();
        heap.heap_check_now().expect("bitmap clear after the cycle");
        let addr = heap.handle_addr(arr).raw();
        assert!(heap.mark_scratch.mark(addr));
        assert_eq!(
            heap.heap_check_now(),
            Err(CheckError::StaleGcBits { addr, detail: "mark bitmap bit outside a cycle" })
        );
    }

    #[test]
    fn on_demand_check_detects_planted_dangling_h2_ref() {
        let mut heap = h2_heap();
        let holder_class = heap.register_class("Holder", 1, 0);
        let payload = heap.alloc_prim_array(16).unwrap();
        heap.h2_tag_root(payload, Label::new(9));
        heap.h2_move(Label::new(9));
        heap.gc_major().unwrap();
        assert!(heap.is_in_h2(payload), "payload moved to H2");
        let holder = heap.alloc(holder_class).unwrap();
        heap.write_ref(holder, 0, payload);
        heap.heap_check_now().expect("intact H1->H2 ref passes");

        // Plant the dangling ref: retarget the slot one word into the H2
        // object — a device-resident address that is not an object start.
        let bogus = heap.handle_addr(payload).add(1);
        let slot = heap
            .handle_addr(holder)
            .add(object::HEADER_WORDS as u64);
        heap.set_word(slot, bogus.raw());
        match heap.heap_check_now() {
            Err(CheckError::DanglingRef { to, .. }) => assert_eq!(to, bogus.raw()),
            other => panic!("expected DanglingRef, got {other:?}"),
        }
        assert_eq!(heap.stats().heap_checks_on_demand, 2);
    }
}
