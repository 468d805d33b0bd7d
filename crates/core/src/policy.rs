//! The hint-based interface state and transfer thresholds (§3.2).
//!
//! Frameworks drive TeraHeap with two hints: `h2_tag_root(obj, label)` tags
//! a root key-object (the label is stored in the object header by the
//! runtime), and `h2_move(label)` advises TeraHeap to move all objects with
//! that label during the next major GC. Decoupling tagging from transfer
//! lets frameworks delay movement until object groups become immutable,
//! avoiding expensive read-modify-writes on the device.
//!
//! Two thresholds protect H1 from filling up while the framework delays
//! `h2_move`:
//!
//! * **high threshold** (85%): if live objects exceed this fraction
//!   of H1 after a major GC, the *next* major GC moves marked objects even
//!   without `h2_move`;
//! * **low threshold** (optional; §7.2 uses 50%): under pressure, only
//!   enough marked objects move to bring H1 occupancy down to the low
//!   threshold — oldest labels first — leaving recently-marked (likely
//!   still-mutable) objects in H1 (§7.2 shows this cuts device
//!   read-modify-writes by up to 95%).

use std::collections::HashSet;

/// A label identifying an object group destined for H2.
///
/// Spark uses the RDD/DataFrame id; Giraph uses the superstep id. Labels
/// issued later are assumed "younger" (numerically larger), which the low
/// threshold uses to move oldest groups first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(u64);

impl Label {
    /// Creates a label from a framework-assigned id.
    pub const fn new(id: u64) -> Self {
        Label(id)
    }

    /// The raw id.
    pub const fn id(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "label#{}", self.0)
    }
}

/// Decides, per major GC, which tagged objects move to H2 and how many.
#[derive(Debug, Clone)]
pub struct TransferPolicy {
    low: Option<f64>,
    hints_enabled: bool,
    requested: HashSet<Label>,
    pressure: bool,
}

impl TransferPolicy {
    /// The high threshold: 85% of H1, as in the paper.
    pub const HIGH: f64 = 0.85;

    /// Creates the default policy: hints enabled, high = 85%, no low
    /// threshold.
    pub fn new() -> Self {
        TransferPolicy {
            low: None,
            hints_enabled: true,
            requested: HashSet::new(),
            pressure: false,
        }
    }

    /// Enables the low-threshold mechanism.
    pub fn with_low(mut self, low: f64) -> Self {
        assert!((0.0..=1.0).contains(&low));
        self.low = Some(low);
        self
    }

    /// Disables the `h2_move` hint (the "NH" configuration of Figure 9a):
    /// objects move only via the high-threshold pressure mechanism.
    pub fn without_hints(mut self) -> Self {
        self.hints_enabled = false;
        self
    }

    /// Whether `h2_move` hints are honoured.
    pub fn hints_enabled(&self) -> bool {
        self.hints_enabled
    }

    /// Registers an `h2_move(label)` hint: the next major GC moves the
    /// label's marked objects. Ignored when hints are disabled.
    pub fn request_move(&mut self, label: Label) {
        if self.hints_enabled {
            self.requested.insert(label);
        }
    }

    /// Whether `label` was requested for transfer by `h2_move`.
    pub fn is_requested(&self, label: Label) -> bool {
        self.requested.contains(&label)
    }

    /// Whether the high-threshold pressure path is active for this GC.
    pub fn under_pressure(&self) -> bool {
        self.pressure
    }

    /// Word budget for *pressure-driven* movement this major GC.
    ///
    /// Returns `None` for "unlimited" (move everything marked): that is the
    /// behaviour without a low threshold. With a low threshold, returns the
    /// number of words needed to bring occupancy down to it.
    ///
    /// Hint-requested labels are never budget-limited.
    pub fn pressure_budget_words(&self, live_words: u64, capacity_words: u64) -> Option<u64> {
        let low = self.low?;
        let target = (low * capacity_words as f64) as u64;
        Some(live_words.saturating_sub(target))
    }

    /// Updates the pressure flag from end-of-major-GC occupancy and clears
    /// every `h2_move` request: no hint can arrive inside a stop-world
    /// collection, so the finishing one has considered them all.
    pub fn note_major_gc_end(&mut self, live_words: u64, capacity_words: u64) {
        self.pressure = (live_words as f64) > Self::HIGH * capacity_words as f64;
        self.requested.clear();
    }
}

impl Default for TransferPolicy {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hint_requests_move() {
        let mut p = TransferPolicy::new();
        let l = Label::new(3);
        assert!(!p.is_requested(l));
        p.request_move(l);
        assert!(p.is_requested(l));
        assert!(!p.is_requested(Label::new(4)));
    }

    #[test]
    fn requests_clear_after_major_gc() {
        let mut p = TransferPolicy::new();
        p.request_move(Label::new(1));
        p.request_move(Label::new(2));
        p.note_major_gc_end(0, 100);
        assert!(!p.is_requested(Label::new(1)));
        assert!(!p.is_requested(Label::new(2)));
    }

    #[test]
    fn pressure_triggers_at_high_threshold() {
        let mut p = TransferPolicy::new();
        p.note_major_gc_end(84, 100);
        assert!(!p.under_pressure());
        p.note_major_gc_end(86, 100);
        assert!(p.under_pressure());
        assert!(!p.is_requested(Label::new(42)), "pressure is not a request");
    }

    #[test]
    fn no_low_threshold_means_unlimited_budget() {
        let p = TransferPolicy::new();
        assert_eq!(p.pressure_budget_words(90, 100), None);
    }

    #[test]
    fn low_threshold_limits_budget() {
        let p = TransferPolicy::new().with_low(0.5);
        assert_eq!(p.pressure_budget_words(90, 100), Some(40));
        assert_eq!(p.pressure_budget_words(40, 100), Some(0));
    }

    #[test]
    fn hints_can_be_disabled() {
        let mut p = TransferPolicy::new().without_hints();
        p.request_move(Label::new(1));
        assert!(!p.is_requested(Label::new(1)), "NH config ignores h2_move");
        // The pressure mechanism still works.
        p.note_major_gc_end(90, 100);
        assert!(p.under_pressure());
    }

    #[test]
    #[should_panic(expected = "0.0..=1.0")]
    fn invalid_threshold_panics() {
        let _ = TransferPolicy::new().with_low(1.5);
    }
}
