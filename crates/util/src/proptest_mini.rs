//! A small in-repo property-testing harness.
//!
//! Replaces the external property-testing crate with the subset this repo's
//! three property suites need, keeping the workflow that matters:
//!
//! * **Seeded case generation** — each case's input derives from a per-case
//!   seed; the whole run is deterministic (the base seed is hashed from the
//!   property name, so suites are reproducible bit-for-bit offline).
//! * **Shrinking** — when a case fails, the harness greedily walks simpler
//!   variants (smaller integers, shorter vectors, shrunken elements,
//!   shrinking composes through [`Strategy::prop_map`] and tuples) and
//!   reports the minimal failing input it converged on.
//! * **Failure-seed replay** — every failure prints the per-case seed;
//!   re-running with `TERAHEAP_PROP_SEED=<seed>` (or [`Config::seed`])
//!   replays exactly that case.
//!
//! Strategies are composable: integer ranges, [`any_u64`], [`vec_of`],
//! [`Just`], tuples of strategies, weighted [`one_of`] choice (see the
//! [`prop_oneof!`](crate::prop_oneof) macro) and `prop_map`. Test bodies
//! return [`CaseResult`] via the [`prop_assert!`](crate::prop_assert),
//! [`prop_assert_eq!`](crate::prop_assert_eq) and
//! [`prop_assume!`](crate::prop_assume) macros; panics inside a case (e.g.
//! `unwrap()`) are caught and treated as failures.

use crate::fnv::Fnv;
use crate::rng::{Rng, SplitMix64};
use std::cell::{Cell, RefCell};
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::{Once, OnceLock};

/// Environment variable holding a failure seed to replay.
pub const SEED_ENV: &str = "TERAHEAP_PROP_SEED";

// ---------------------------------------------------------------------------
// Value trees: a generated value plus the simpler variants it shrinks to.
// ---------------------------------------------------------------------------

/// A boxed [`Tree`].
pub type BoxTree<T> = Box<dyn Tree<T>>;

/// A generated value together with its shrink candidates.
///
/// Shrinking is recursive: each candidate is itself a tree, so the runner
/// can keep descending while the property keeps failing.
pub trait Tree<T> {
    /// The value at this node.
    fn current(&self) -> T;
    /// Simpler variants, most aggressive first.
    fn shrinks(&self) -> Vec<BoxTree<T>>;
    /// Clones the tree (object-safe `Clone`).
    fn clone_tree(&self) -> BoxTree<T>;
}

// ---------------------------------------------------------------------------
// Strategy trait and combinators.
// ---------------------------------------------------------------------------

/// Describes how to generate (and shrink) values of one type.
pub trait Strategy: 'static {
    /// The generated type.
    type Value: Clone + Debug + 'static;

    /// Generates one value tree from `rng`.
    fn tree(&self, rng: &mut Rng) -> BoxTree<Self::Value>;

    /// Maps generated values through `f`; shrinking shrinks the *input* and
    /// re-maps, so mapped strategies stay fully shrinkable.
    fn prop_map<U, F>(self, f: F) -> Map<Self, U, F>
    where
        Self: Sized,
        U: Clone + Debug + 'static,
        F: Fn(Self::Value) -> U + 'static,
    {
        Map { inner: self, f: Rc::new(f), _marker: std::marker::PhantomData }
    }

    /// Type-erases the strategy so heterogeneous strategies of one value
    /// type can be mixed (e.g. in [`one_of`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized,
    {
        BoxedStrategy(Rc::new(self))
    }
}

trait DynStrategy<T> {
    fn dyn_tree(&self, rng: &mut Rng) -> BoxTree<T>;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn dyn_tree(&self, rng: &mut Rng) -> BoxTree<S::Value> {
        self.tree(rng)
    }
}

/// A type-erased, cheaply clonable [`Strategy`].
pub struct BoxedStrategy<T>(Rc<dyn DynStrategy<T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(self.0.clone())
    }
}

impl<T: Clone + Debug + 'static> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn tree(&self, rng: &mut Rng) -> BoxTree<T> {
        self.0.dyn_tree(rng)
    }
}

// --- integer ranges --------------------------------------------------------

/// Strategy over a half-open integer range; shrinks toward the lower bound.
#[derive(Clone, Copy, Debug)]
pub struct IntRange<T> {
    lo: T,
    hi: T,
}

#[derive(Clone)]
struct IntTree<T> {
    lo: T,
    value: T,
}

macro_rules! impl_int_strategy {
    ($($t:ty => $range_fn:ident),*) => {$(
        /// Uniform strategy over `lo..hi`.
        pub fn $range_fn(range: std::ops::Range<$t>) -> IntRange<$t> {
            assert!(range.start < range.end, "empty strategy range");
            IntRange { lo: range.start, hi: range.end }
        }

        impl Strategy for IntRange<$t> {
            type Value = $t;
            fn tree(&self, rng: &mut Rng) -> BoxTree<$t> {
                let value = rng.gen_range(self.lo..self.hi);
                Box::new(IntTree { lo: self.lo, value })
            }
        }

        impl Tree<$t> for IntTree<$t> {
            fn current(&self) -> $t {
                self.value
            }
            fn shrinks(&self) -> Vec<BoxTree<$t>> {
                let mut out: Vec<BoxTree<$t>> = Vec::new();
                let mut push = |v: $t| {
                    if v < self.value && out.iter().all(|t| t.current() != v) {
                        out.push(Box::new(IntTree { lo: self.lo, value: v }));
                    }
                };
                // Most aggressive first: the bound, half-way, one less.
                push(self.lo);
                push(self.lo + (self.value - self.lo) / 2);
                if self.value > self.lo {
                    push(self.value - 1);
                }
                out
            }
            fn clone_tree(&self) -> BoxTree<$t> {
                Box::new(self.clone())
            }
        }
    )*};
}

impl_int_strategy!(u32 => range_u32, u64 => range_u64, usize => range_usize);

/// Strategy over every `u64`; shrinks toward zero.
pub fn any_u64() -> IntRange<u64> {
    IntRange { lo: 0, hi: u64::MAX }
}

// --- constants -------------------------------------------------------------

/// Strategy that always yields one value (never shrinks).
#[derive(Clone, Debug)]
pub struct Just<T>(pub T);

#[derive(Clone)]
struct JustTree<T>(T);

impl<T: Clone + Debug + 'static> Strategy for Just<T> {
    type Value = T;
    fn tree(&self, _rng: &mut Rng) -> BoxTree<T> {
        Box::new(JustTree(self.0.clone()))
    }
}

impl<T: Clone + 'static> Tree<T> for JustTree<T> {
    fn current(&self) -> T {
        self.0.clone()
    }
    fn shrinks(&self) -> Vec<BoxTree<T>> {
        Vec::new()
    }
    fn clone_tree(&self) -> BoxTree<T> {
        Box::new(self.clone())
    }
}

// --- map -------------------------------------------------------------------

/// See [`Strategy::prop_map`].
pub struct Map<S, U, F> {
    inner: S,
    f: Rc<F>,
    _marker: std::marker::PhantomData<fn() -> U>,
}

struct MapTree<I, U, F> {
    inner: BoxTree<I>,
    f: Rc<F>,
    _marker: std::marker::PhantomData<U>,
}

impl<S, U, F> Strategy for Map<S, U, F>
where
    S: Strategy,
    U: Clone + Debug + 'static,
    F: Fn(S::Value) -> U + 'static,
{
    type Value = U;
    fn tree(&self, rng: &mut Rng) -> BoxTree<U> {
        Box::new(MapTree {
            inner: self.inner.tree(rng),
            f: self.f.clone(),
            _marker: std::marker::PhantomData,
        })
    }
}

impl<I, U, F> Tree<U> for MapTree<I, U, F>
where
    I: Clone + 'static,
    U: Clone + 'static,
    F: Fn(I) -> U + 'static,
{
    fn current(&self) -> U {
        (self.f)(self.inner.current())
    }
    fn shrinks(&self) -> Vec<BoxTree<U>> {
        self.inner
            .shrinks()
            .into_iter()
            .map(|t| {
                Box::new(MapTree { inner: t, f: self.f.clone(), _marker: std::marker::PhantomData })
                    as BoxTree<U>
            })
            .collect()
    }
    fn clone_tree(&self) -> BoxTree<U> {
        Box::new(MapTree {
            inner: self.inner.clone_tree(),
            f: self.f.clone(),
            _marker: std::marker::PhantomData,
        })
    }
}

// --- tuples ----------------------------------------------------------------

struct PairTree<A, B> {
    a: BoxTree<A>,
    b: BoxTree<B>,
}

impl<A: Clone + 'static, B: Clone + 'static> Tree<(A, B)> for PairTree<A, B> {
    fn current(&self) -> (A, B) {
        (self.a.current(), self.b.current())
    }
    fn shrinks(&self) -> Vec<BoxTree<(A, B)>> {
        let mut out: Vec<BoxTree<(A, B)>> = Vec::new();
        for t in self.a.shrinks() {
            out.push(Box::new(PairTree { a: t, b: self.b.clone_tree() }));
        }
        for t in self.b.shrinks() {
            out.push(Box::new(PairTree { a: self.a.clone_tree(), b: t }));
        }
        out
    }
    fn clone_tree(&self) -> BoxTree<(A, B)> {
        Box::new(PairTree { a: self.a.clone_tree(), b: self.b.clone_tree() })
    }
}

impl<SA: Strategy, SB: Strategy> Strategy for (SA, SB) {
    type Value = (SA::Value, SB::Value);
    fn tree(&self, rng: &mut Rng) -> BoxTree<Self::Value> {
        Box::new(PairTree { a: self.0.tree(rng), b: self.1.tree(rng) })
    }
}

impl<SA: Strategy, SB: Strategy, SC: Strategy> Strategy for (SA, SB, SC) {
    type Value = (SA::Value, SB::Value, SC::Value);
    fn tree(&self, rng: &mut Rng) -> BoxTree<Self::Value> {
        // Reuse the pair tree: ((a, b), c) remapped to (a, b, c).
        let nested = PairTree {
            a: Box::new(PairTree { a: self.0.tree(rng), b: self.1.tree(rng) })
                as BoxTree<(SA::Value, SB::Value)>,
            b: self.2.tree(rng),
        };
        Box::new(MapTree {
            inner: Box::new(nested) as BoxTree<((SA::Value, SB::Value), SC::Value)>,
            f: Rc::new(|((a, b), c)| (a, b, c)),
            _marker: std::marker::PhantomData,
        })
    }
}

// --- vectors ---------------------------------------------------------------

/// Strategy for vectors of `elem` values with length in `len` (half-open).
pub fn vec_of<S: Strategy>(elem: S, len: std::ops::Range<usize>) -> VecOf<S> {
    assert!(len.start < len.end, "empty vec_of length range");
    VecOf { elem: Rc::new(elem), min_len: len.start, max_len: len.end }
}

/// See [`vec_of`].
pub struct VecOf<S> {
    elem: Rc<S>,
    min_len: usize,
    max_len: usize,
}

struct VecTree<T> {
    elems: Vec<BoxTree<T>>,
    min_len: usize,
}

impl<S: Strategy> Strategy for VecOf<S> {
    type Value = Vec<S::Value>;
    fn tree(&self, rng: &mut Rng) -> BoxTree<Vec<S::Value>> {
        let len = rng.gen_range(self.min_len..self.max_len);
        let elems = (0..len).map(|_| self.elem.tree(rng)).collect();
        Box::new(VecTree { elems, min_len: self.min_len })
    }
}

impl<T: Clone + 'static> Tree<Vec<T>> for VecTree<T> {
    fn current(&self) -> Vec<T> {
        self.elems.iter().map(|t| t.current()).collect()
    }
    fn shrinks(&self) -> Vec<BoxTree<Vec<T>>> {
        let mut out: Vec<BoxTree<Vec<T>>> = Vec::new();
        let len = self.elems.len();
        let clone_range = |keep: &dyn Fn(usize) -> bool| -> Vec<BoxTree<T>> {
            self.elems
                .iter()
                .enumerate()
                .filter(|(i, _)| keep(*i))
                .map(|(_, t)| t.clone_tree())
                .collect()
        };
        // Length reductions first: drop halves, then each single element.
        if len > self.min_len {
            let half = len / 2;
            if half >= self.min_len && half < len {
                out.push(Box::new(VecTree {
                    elems: clone_range(&|i| i < half),
                    min_len: self.min_len,
                }));
                out.push(Box::new(VecTree {
                    elems: clone_range(&|i| i >= len - half),
                    min_len: self.min_len,
                }));
            }
            for drop_i in 0..len {
                out.push(Box::new(VecTree {
                    elems: clone_range(&|i| i != drop_i),
                    min_len: self.min_len,
                }));
            }
        }
        // Then element-wise shrinks.
        for (i, elem) in self.elems.iter().enumerate() {
            for shrunk in elem.shrinks() {
                let mut elems = clone_range(&|_| true);
                elems[i] = shrunk;
                out.push(Box::new(VecTree { elems, min_len: self.min_len }));
            }
        }
        out
    }
    fn clone_tree(&self) -> BoxTree<Vec<T>> {
        Box::new(VecTree {
            elems: self.elems.iter().map(|t| t.clone_tree()).collect(),
            min_len: self.min_len,
        })
    }
}

// --- choice ----------------------------------------------------------------

/// Weighted choice between boxed strategies of one value type.
///
/// Usually written via the [`prop_oneof!`](crate::prop_oneof) macro.
/// Shrinking stays within the chosen branch.
pub fn one_of<T: Clone + Debug + 'static>(options: Vec<(u32, BoxedStrategy<T>)>) -> OneOf<T> {
    assert!(!options.is_empty(), "one_of needs at least one option");
    OneOf { options }
}

/// See [`one_of`].
pub struct OneOf<T> {
    options: Vec<(u32, BoxedStrategy<T>)>,
}

impl<T: Clone + Debug + 'static> Strategy for OneOf<T> {
    type Value = T;
    fn tree(&self, rng: &mut Rng) -> BoxTree<T> {
        let weights: Vec<u32> = self.options.iter().map(|(w, _)| *w).collect();
        let idx = rng.weighted_choice(&weights);
        self.options[idx].1.tree(rng)
    }
}

/// Weighted or unweighted choice between strategies yielding one type:
/// `prop_oneof![4 => a, 1 => b]` or `prop_oneof![a, b, c]`.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::proptest_mini::one_of(vec![
            $(($weight as u32, $crate::proptest_mini::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::proptest_mini::one_of(vec![
            $((1u32, $crate::proptest_mini::Strategy::boxed($strat))),+
        ])
    };
}

// ---------------------------------------------------------------------------
// Runner.
// ---------------------------------------------------------------------------

/// Outcome of one property evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseResult {
    /// The property held.
    Pass,
    /// The input did not satisfy the property's assumptions; generate a
    /// replacement case.
    Discard,
    /// The property failed with this message.
    Fail(String),
}

/// Asserts a condition inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return $crate::proptest_mini::CaseResult::Fail(
                format!("assertion failed: {}", stringify!($cond)),
            );
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return $crate::proptest_mini::CaseResult::Fail(format!($($fmt)+));
        }
    };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return $crate::proptest_mini::CaseResult::Fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($a), stringify!($b), a, b,
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return $crate::proptest_mini::CaseResult::Fail(format!($($fmt)+));
        }
    }};
}

/// Discards the current case unless the assumption holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return $crate::proptest_mini::CaseResult::Discard;
        }
    };
}

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of passing cases required.
    pub cases: u32,
    /// Upper bound on property evaluations spent shrinking one failure.
    pub max_shrink_iters: u32,
    /// Replay exactly one case from this seed (overrides [`SEED_ENV`]).
    pub seed: Option<u64>,
}

impl Default for Config {
    fn default() -> Self {
        Config { cases: 256, max_shrink_iters: 4096, seed: None }
    }
}

impl Config {
    /// A config requiring `cases` passing cases.
    pub fn with_cases(cases: u32) -> Self {
        Config { cases, ..Config::default() }
    }
}

/// A minimized property failure.
#[derive(Debug, Clone)]
pub struct Failure<T> {
    /// The per-case seed that produced the failure (replay with
    /// `TERAHEAP_PROP_SEED=<seed>`).
    pub seed: u64,
    /// The minimal failing input shrinking converged on.
    pub minimal: T,
    /// The failure message at the minimal input.
    pub message: String,
    /// Property evaluations spent shrinking.
    pub shrink_iters: u32,
}

// Panic capture: a process-wide quiet hook records panics raised inside
// property bodies into a thread-local instead of printing them (shrinking
// re-runs a failing body hundreds of times). Panics outside a property run
// fall through to the default hook.
thread_local! {
    static IN_PROPERTY: Cell<bool> = const { Cell::new(false) };
    static LAST_PANIC: RefCell<Option<String>> = const { RefCell::new(None) };
}

type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Send + Sync>;
static DEFAULT_HOOK: OnceLock<PanicHook> = OnceLock::new();
static INSTALL_HOOK: Once = Once::new();

fn install_quiet_hook() {
    INSTALL_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        let _ = DEFAULT_HOOK.set(prev);
        std::panic::set_hook(Box::new(|info| {
            if IN_PROPERTY.with(|f| f.get()) {
                LAST_PANIC.with(|l| *l.borrow_mut() = Some(info.to_string()));
            } else if let Some(hook) = DEFAULT_HOOK.get() {
                hook(info);
            }
        }));
    });
}

fn run_case<T, F: Fn(T) -> CaseResult>(prop: &F, value: T) -> CaseResult {
    IN_PROPERTY.with(|f| f.set(true));
    let outcome = catch_unwind(AssertUnwindSafe(|| prop(value)));
    IN_PROPERTY.with(|f| f.set(false));
    match outcome {
        Ok(r) => r,
        Err(_) => {
            let msg = LAST_PANIC
                .with(|l| l.borrow_mut().take())
                .unwrap_or_else(|| "panic inside property".to_string());
            CaseResult::Fail(format!("property panicked: {msg}"))
        }
    }
}

/// Runs `prop` against `config.cases` generated inputs, shrinking the first
/// failure; returns it instead of panicking (the testable core of
/// [`check`]).
///
/// # Errors
///
/// Returns the minimized [`Failure`] if any case fails, or a synthetic one
/// if the discard budget (`cases * 16`) is exhausted first.
pub fn check_result<S, F>(
    name: &str,
    strategy: &S,
    config: &Config,
    prop: F,
) -> Result<(), Failure<S::Value>>
where
    S: Strategy,
    F: Fn(S::Value) -> CaseResult,
{
    install_quiet_hook();
    let replay_seed =
        config.seed.or_else(|| std::env::var(SEED_ENV).ok().and_then(|s| s.trim().parse().ok()));
    let mut case_seeds = SplitMix64::new(name_seed(name));
    let mut passed = 0u32;
    let mut discarded = 0u32;
    let max_discards = config.cases.saturating_mul(16);
    let target = if replay_seed.is_some() { 1 } else { config.cases };

    while passed < target {
        let case_seed = replay_seed.unwrap_or_else(|| case_seeds.next_u64());
        let mut rng = Rng::seed_from_u64(case_seed);
        let tree = strategy.tree(&mut rng);
        match run_case(&prop, tree.current()) {
            CaseResult::Pass => passed += 1,
            CaseResult::Discard => {
                discarded += 1;
                if replay_seed.is_some() {
                    return Ok(()); // the replayed case no longer applies
                }
                if discarded > max_discards {
                    return Err(Failure {
                        seed: case_seed,
                        minimal: tree.current(),
                        message: format!(
                            "{name}: too many discards ({discarded}) before \
                             {0} cases passed — loosen prop_assume!",
                            config.cases
                        ),
                        shrink_iters: 0,
                    });
                }
            }
            CaseResult::Fail(first_msg) => {
                let (minimal, message, iters) =
                    shrink(tree, &prop, first_msg, config.max_shrink_iters);
                return Err(Failure { seed: case_seed, minimal, message, shrink_iters: iters });
            }
        }
    }
    Ok(())
}

/// Runs `prop` against generated inputs; on failure, panics with the
/// minimal input and its replay seed.
///
/// # Panics
///
/// Panics if any generated case fails the property.
pub fn check<S, F>(name: &str, strategy: &S, config: &Config, prop: F)
where
    S: Strategy,
    F: Fn(S::Value) -> CaseResult,
{
    if let Err(f) = check_result(name, strategy, config, prop) {
        panic!(
            "property '{name}' failed after {} shrink iterations.\n\
             minimal failing input: {:#?}\n\
             {}\n\
             replay with: {SEED_ENV}={}",
            f.shrink_iters, f.minimal, f.message, f.seed,
        );
    }
}

/// Greedy shrink: repeatedly move to the first shrink candidate that still
/// fails, until none fail or the iteration budget runs out.
fn shrink<T: Clone, F: Fn(T) -> CaseResult>(
    mut tree: BoxTree<T>,
    prop: &F,
    mut message: String,
    max_iters: u32,
) -> (T, String, u32) {
    let mut iters = 0u32;
    'outer: while iters < max_iters {
        for candidate in tree.shrinks() {
            iters += 1;
            if let CaseResult::Fail(msg) = run_case(prop, candidate.current()) {
                tree = candidate;
                message = msg;
                continue 'outer;
            }
            if iters >= max_iters {
                break 'outer;
            }
        }
        break;
    }
    (tree.current(), message, iters)
}

/// FNV-1a over the property name: a stable, platform-independent base seed.
fn name_seed(name: &str) -> u64 {
    let mut fnv = Fnv::new();
    fnv.push_bytes(name.as_bytes());
    fnv.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_passes() {
        check("unit_pass", &range_u64(0..100), &Config::with_cases(64), |v| {
            prop_assert!(v < 100);
            CaseResult::Pass
        });
    }

    #[test]
    fn discards_do_not_count_as_cases() {
        let res = check_result("unit_discard", &range_u64(0..100), &Config::with_cases(64), |v| {
            prop_assume!(v % 2 == 0);
            prop_assert!(v % 2 == 0);
            CaseResult::Pass
        });
        assert!(res.is_ok());
    }

    #[test]
    fn panics_are_failures_and_shrink() {
        let res = check_result("unit_panic", &range_u64(0..1000), &Config::with_cases(64), |v| {
            assert!(v < 500, "boom at {v}");
            CaseResult::Pass
        });
        let f = res.expect_err("property must fail");
        assert_eq!(f.minimal, 500, "shrinks to the smallest failing value");
        assert!(f.message.contains("boom"), "panic message kept: {}", f.message);
    }

    #[test]
    fn mapped_and_tuple_strategies_shrink_through() {
        let strat = (range_u64(0..100), range_u64(0..100)).prop_map(|(a, b)| a + b);
        let res = check_result("unit_map", &strat, &Config::with_cases(128), |v| {
            prop_assert!(v < 50, "sum {v} too big");
            CaseResult::Pass
        });
        let f = res.expect_err("property must fail");
        assert_eq!(f.minimal, 50, "minimal failing sum");
    }

    #[test]
    fn oneof_macro_generates_all_branches() {
        #[derive(Clone, Debug, PartialEq)]
        enum Kind {
            A(u64),
            B,
        }
        let strat = prop_oneof![
            3 => range_u64(0..10).prop_map(Kind::A),
            1 => Just(Kind::B),
        ];
        let mut saw_a = false;
        let mut saw_b = false;
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..64 {
            match strat.tree(&mut rng).current() {
                Kind::A(_) => saw_a = true,
                Kind::B => saw_b = true,
            }
        }
        assert!(saw_a && saw_b);
    }
}
