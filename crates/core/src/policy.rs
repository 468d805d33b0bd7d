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
//! * **high threshold** (default 85%): if live objects exceed this fraction
//!   of H1 after a major GC, the *next* major GC moves marked objects even
//!   without `h2_move`;
//! * **low threshold** (optional, default 50% when enabled): under pressure,
//!   only enough marked objects move to bring H1 occupancy down to the low
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
    high: f64,
    low: Option<f64>,
    hints_enabled: bool,
    requested: HashSet<Label>,
    pressure: bool,
    adaptive: bool,
    consecutive_pressure: u32,
    consecutive_calm: u32,
}

impl TransferPolicy {
    /// Default high threshold (85% of H1, as in the paper).
    pub const DEFAULT_HIGH: f64 = 0.85;

    /// Default low threshold when enabled (50%, as in §7.2).
    pub const DEFAULT_LOW: f64 = 0.50;

    /// Creates the default policy: hints enabled, high = 85%, no low
    /// threshold.
    pub fn new() -> Self {
        TransferPolicy {
            high: Self::DEFAULT_HIGH,
            low: None,
            hints_enabled: true,
            requested: HashSet::new(),
            pressure: false,
            adaptive: false,
            consecutive_pressure: 0,
            consecutive_calm: 0,
        }
    }

    /// Sets the high threshold (fraction of H1 capacity).
    pub fn with_high(mut self, high: f64) -> Self {
        assert!((0.0..=1.0).contains(&high));
        self.high = high;
        self
    }

    /// Enables the low-threshold mechanism.
    pub fn with_low(mut self, low: f64) -> Self {
        assert!((0.0..=1.0).contains(&low));
        self.low = Some(low);
        self
    }

    /// Enables dynamic threshold adaptation — the extension §7.2 leaves as
    /// future work ("there may be benefits in setting the low and high
    /// thresholds dynamically"). After every major GC the controller nudges
    /// the high threshold: two consecutive pressured GCs lower it by five
    /// points (start moving earlier, before the heap is critical); four
    /// consecutive calm GCs raise it back toward the configured default
    /// (keep data in DRAM while there is room). The threshold stays within
    /// [0.55, DEFAULT_HIGH].
    pub fn with_adaptive(mut self) -> Self {
        self.adaptive = true;
        self
    }

    /// Turns dynamic threshold adaptation on or off at run time (the
    /// adaptive-placement plane flips this together with the lifetime
    /// profiler; see `Heap::set_adaptive_placement`).
    pub fn set_adaptive(&mut self, on: bool) {
        self.adaptive = on;
        if !on {
            self.consecutive_pressure = 0;
            self.consecutive_calm = 0;
        }
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

    /// The high threshold (fraction of H1 capacity).
    pub fn high(&self) -> f64 {
        self.high
    }

    /// Whether the upcoming major GC should move objects tagged `label`:
    /// either the framework requested it or H1 is under pressure.
    pub fn should_move(&self, label: Label) -> bool {
        self.pressure || self.requested.contains(&label)
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

    /// The labels currently requested by `h2_move`, for callers that decide
    /// candidate selection at a different time than they retire the GC (the
    /// incremental collector snapshots these at selection and passes them
    /// back through [`TransferPolicy::note_major_gc_end_satisfying`]).
    ///
    /// Returned as an iterator — the caller chooses whether to collect into
    /// its own (reusable) storage, so this GC-path accessor allocates
    /// nothing itself (PR 2 zero-allocation convention). Order is
    /// unspecified; callers must be order-insensitive.
    pub fn requested_labels(&self) -> impl Iterator<Item = Label> + '_ {
        self.requested.iter().copied()
    }

    /// Updates the pressure flag from end-of-major-GC occupancy and clears
    /// the `satisfied` `h2_move` requests — the ones the finishing
    /// collection actually considered. A cycle snapshots its requests when
    /// candidate selection begins; a hint arriving after that point applies
    /// to a *later* GC and must survive the cycle's retirement.
    pub fn note_major_gc_end_satisfying(
        &mut self,
        live_words: u64,
        capacity_words: u64,
        satisfied: &[Label],
    ) {
        self.pressure = (live_words as f64) > self.high * capacity_words as f64;
        for label in satisfied {
            self.requested.remove(label);
        }
        if self.adaptive {
            if self.pressure {
                self.consecutive_pressure += 1;
                self.consecutive_calm = 0;
                if self.consecutive_pressure >= 2 {
                    self.high = (self.high - 0.05).max(0.55);
                    self.consecutive_pressure = 0;
                }
            } else {
                self.consecutive_calm += 1;
                self.consecutive_pressure = 0;
                if self.consecutive_calm >= 4 {
                    self.high = (self.high + 0.05).min(Self::DEFAULT_HIGH);
                    self.consecutive_calm = 0;
                }
            }
        }
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
        assert!(!p.should_move(l));
        p.request_move(l);
        assert!(p.should_move(l));
        assert!(!p.should_move(Label::new(4)));
    }

    #[test]
    fn requests_clear_after_major_gc() {
        let mut p = TransferPolicy::new();
        p.request_move(Label::new(1));
        let seen: Vec<Label> = p.requested_labels().collect();
        p.request_move(Label::new(2));
        p.note_major_gc_end_satisfying(0, 100, &seen);
        assert!(!p.should_move(Label::new(1)));
        assert!(p.should_move(Label::new(2)), "a hint the GC never saw survives it");
    }

    #[test]
    fn pressure_triggers_at_high_threshold() {
        let mut p = TransferPolicy::new();
        p.note_major_gc_end_satisfying(84, 100, &[]);
        assert!(!p.under_pressure());
        p.note_major_gc_end_satisfying(86, 100, &[]);
        assert!(p.under_pressure());
        // Under pressure, every label moves even without a hint.
        assert!(p.should_move(Label::new(42)));
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
        assert!(!p.should_move(Label::new(1)), "NH config ignores h2_move");
        // The pressure mechanism still works.
        p.note_major_gc_end_satisfying(90, 100, &[]);
        assert!(p.should_move(Label::new(1)));
    }

    #[test]
    #[should_panic(expected = "0.0..=1.0")]
    fn invalid_threshold_panics() {
        let _ = TransferPolicy::new().with_high(1.5);
    }

    #[test]
    fn adaptive_lowers_threshold_under_repeated_pressure() {
        let mut p = TransferPolicy::new().with_adaptive();
        let h0 = p.high();
        p.note_major_gc_end_satisfying(90, 100, &[]);
        p.note_major_gc_end_satisfying(90, 100, &[]);
        assert!(p.high() < h0, "two pressured GCs lower the threshold");
    }

    #[test]
    fn adaptive_recovers_when_calm() {
        let mut p = TransferPolicy::new().with_adaptive();
        for _ in 0..4 {
            p.note_major_gc_end_satisfying(95, 100, &[]);
        }
        let lowered = p.high();
        assert!(lowered < TransferPolicy::DEFAULT_HIGH);
        for _ in 0..16 {
            p.note_major_gc_end_satisfying(10, 100, &[]);
        }
        assert!(p.high() > lowered, "calm GCs raise the threshold back");
        assert!(p.high() <= TransferPolicy::DEFAULT_HIGH);
    }

    #[test]
    fn adaptive_threshold_stays_bounded() {
        let mut p = TransferPolicy::new().with_adaptive();
        for _ in 0..100 {
            p.note_major_gc_end_satisfying(99, 100, &[]);
        }
        assert!(p.high() >= 0.55, "floor holds: {}", p.high());
    }
}
