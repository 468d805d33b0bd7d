//! Per-allocation-site lifetime profiles driving pretenuring into H2.
//!
//! Deca-style lifetime-based placement: partition data is bound to its
//! allocation site (the framework's [`Label`]), and sites whose objects
//! demonstrably survive minor collections are *pretenured* — allocated
//! straight into region-grouped H2 storage, skipping survivor copying
//! entirely.
//!
//! The profiler samples the charge paths that already exist:
//!
//! * `h2_tag_root` records the tagged words per site (the denominator);
//! * the minor-GC copy loop records tagged words that survive a scavenge;
//! * the major-GC compact phase records tagged words promoted to H2.
//!
//! All recording is gated on a single `enabled` flag (off by default, so
//! the static-policy goldens stay bit-identical), charges nothing to the
//! simulated clock, and allocates only on the first sighting of a label:
//! sites live in a sorted `Vec` probed by binary search, matching the
//! PR 2 zero-allocation convention for GC hot paths.
//!
//! The pretenure decision is a pure function of the recorded counters, so
//! it is deterministic under seed replay and *sticky*: pretenured
//! allocations are recorded separately and never dilute the observed H1
//! history that justified the decision.

use crate::policy::Label;

/// Survival statistics for one allocation site (one [`Label`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteStats {
    /// Words tagged for this site that were allocated in H1.
    pub tagged_words: u64,
    /// Objects tagged for this site that were allocated in H1.
    pub tagged_objects: u64,
    /// Tagged words that survived a minor-GC copy (aged or tenured).
    pub survived_words: u64,
    /// Tagged words promoted to H2 by a major GC.
    pub promoted_words: u64,
    /// Words allocated directly into H2 because the site was pretenured.
    pub pretenured_words: u64,
    /// Objects allocated directly into H2 because the site was pretenured.
    pub pretenured_objects: u64,
}

impl SiteStats {
    /// Words observed to be long-lived: survivors plus H2 promotions.
    pub fn long_lived_words(&self) -> u64 {
        self.survived_words + self.promoted_words
    }

    /// Long-lived words per thousand tagged words (0 when nothing tagged).
    pub fn survival_permille(&self) -> u64 {
        self.long_lived_words()
            .saturating_mul(1000)
            .checked_div(self.tagged_words)
            .unwrap_or(0)
    }
}

/// Per-site lifetime profiles with a tenure-threshold pretenure rule.
#[derive(Debug, Clone, Default)]
pub struct LifetimeProfiles {
    enabled: bool,
    /// `(label id, stats)` sorted by label id; binary-search probed so the
    /// steady state allocates nothing.
    sites: Vec<(u64, SiteStats)>,
}

impl LifetimeProfiles {
    /// Tenure threshold: ≥60% of a site's tagged words must have survived
    /// a minor GC (or reached H2) before the site pretenures.
    pub const THRESHOLD_PERMILLE: u64 = 600;

    /// Evidence floor: a site must show this many long-lived words before
    /// the ratio is trusted (a single surviving object is noise).
    pub const MIN_LONG_LIVED_WORDS: u64 = 512;

    /// Creates a disabled profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Turns profiling (and therefore pretenuring) on or off.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether profiling is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn stats_mut(&mut self, label: Label) -> &mut SiteStats {
        let id = label.id();
        match self.sites.binary_search_by_key(&id, |&(k, _)| k) {
            Ok(i) => &mut self.sites[i].1,
            Err(i) => {
                // First sighting: the only allocating path.
                self.sites.insert(i, (id, SiteStats::default()));
                &mut self.sites[i].1
            }
        }
    }

    /// Records an H1 allocation tagged for `label` (`h2_tag_root` path).
    pub fn record_tag(&mut self, label: Label, words: u64) {
        if !self.enabled {
            return;
        }
        let s = self.stats_mut(label);
        s.tagged_words += words;
        s.tagged_objects += 1;
    }

    /// Records a tagged object surviving a minor-GC copy.
    pub fn record_survival(&mut self, label: Label, words: u64) {
        if !self.enabled {
            return;
        }
        self.stats_mut(label).survived_words += words;
    }

    /// Records tagged words promoted to H2 by a major GC.
    pub fn record_promotion(&mut self, label: Label, words: u64) {
        if !self.enabled {
            return;
        }
        self.stats_mut(label).promoted_words += words;
    }

    /// Records a pretenured allocation (kept out of the tagged-words
    /// denominator so the decision that justified it stays stable).
    pub fn record_pretenure(&mut self, label: Label, words: u64) {
        if !self.enabled {
            return;
        }
        let s = self.stats_mut(label);
        s.pretenured_words += words;
        s.pretenured_objects += 1;
    }

    /// Whether allocations at `label`'s site should go straight to H2:
    /// enough long-lived evidence, and the long-lived fraction of the
    /// site's observed H1 history crosses the tenure threshold.
    pub fn should_pretenure(&self, label: Label) -> bool {
        if !self.enabled {
            return false;
        }
        match self.stats(label) {
            None => false,
            Some(s) => {
                s.long_lived_words() >= Self::MIN_LONG_LIVED_WORDS
                    && s.survival_permille() >= Self::THRESHOLD_PERMILLE
            }
        }
    }

    /// The recorded stats for `label`, if any.
    pub fn stats(&self, label: Label) -> Option<&SiteStats> {
        self.sites
            .binary_search_by_key(&label.id(), |&(k, _)| k)
            .ok()
            .map(|i| &self.sites[i].1)
    }

    /// Iterates `(label, stats)` in label-id order.
    pub fn sites(&self) -> impl Iterator<Item = (Label, &SiteStats)> {
        self.sites.iter().map(|(id, s)| (Label::new(*id), s))
    }

    /// Number of sites with recorded history.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether no site has recorded history.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = LifetimeProfiles::new();
        p.record_tag(Label::new(1), 100);
        p.record_survival(Label::new(1), 100);
        assert!(p.is_empty());
        assert!(!p.should_pretenure(Label::new(1)));
    }

    #[test]
    fn pretenure_needs_both_ratio_and_evidence() {
        let mut p = LifetimeProfiles::new();
        p.set_enabled(true);
        let l = Label::new(7);
        p.record_tag(l, 1000);
        // High ratio but under the evidence floor at small volume.
        p.record_survival(l, 400);
        assert!(!p.should_pretenure(l), "400 < 512 evidence floor");
        p.record_survival(l, 200);
        assert!(p.should_pretenure(l), "600/1000 ≥ 60% and ≥ 512 words");
    }

    #[test]
    fn short_lived_site_never_pretenures() {
        let mut p = LifetimeProfiles::new();
        p.set_enabled(true);
        let l = Label::new(2);
        for _ in 0..100 {
            p.record_tag(l, 100);
        }
        p.record_survival(l, 600); // 600/10000 = 6%
        assert!(!p.should_pretenure(l));
    }

    #[test]
    fn promotions_count_as_long_lived() {
        let mut p = LifetimeProfiles::new();
        p.set_enabled(true);
        let l = Label::new(3);
        p.record_tag(l, 800);
        p.record_promotion(l, 640);
        assert!(p.should_pretenure(l));
    }

    #[test]
    fn pretenured_words_do_not_dilute_the_decision() {
        let mut p = LifetimeProfiles::new();
        p.set_enabled(true);
        let l = Label::new(4);
        p.record_tag(l, 1000);
        p.record_survival(l, 900);
        assert!(p.should_pretenure(l));
        for _ in 0..1000 {
            p.record_pretenure(l, 4096);
        }
        assert!(p.should_pretenure(l), "decision is sticky");
        let s = p.stats(l).unwrap();
        assert_eq!(s.tagged_words, 1000);
        assert_eq!(s.pretenured_objects, 1000);
    }

    #[test]
    fn sites_iterate_in_label_order() {
        let mut p = LifetimeProfiles::new();
        p.set_enabled(true);
        for id in [9u64, 3, 7, 1] {
            p.record_tag(Label::new(id), 10);
        }
        let ids: Vec<u64> = p.sites().map(|(l, _)| l.id()).collect();
        assert_eq!(ids, vec![1, 3, 7, 9]);
    }
}
