//! Deterministic fault-injection plane for the simulated storage stack.
//!
//! The paper's H2 heap lives on real devices that fail transiently, stall,
//! fill up and tear pages when a machine dies mid-`msync` (§4.3's write-back
//! path). This module injects exactly those behaviours into the simulation,
//! deterministically:
//!
//! * **Transient read/write errors** with per-direction probabilities
//!   (parts-per-million per I/O operation), answered by bounded retry with
//!   exponential backoff *charged to the simulated clock* — so retries show
//!   up in the paper's execution-time breakdown categories.
//! * **Latency spikes**: a multiplier applied to device costs over a window
//!   of operations, recurring with a fixed period (a garbage-collecting SSD
//!   firmware, a congested NVMe queue).
//! * **ENOSPC** on H2 backing-file growth after a configured number of
//!   regions, driving the runtime into its degraded (no-H2) mode.
//! * A **crash point** that kills the run at the N-th durable write-back,
//!   leaving torn pages behind (see [`crate::durable::DurableStore`]).
//!
//! Everything is seeded from the in-repo PRNG ([`teraheap_util::Rng`]) and
//! driven by operation counts, never wall-clock time, so a failing chaos run
//! replays bit-for-bit from its [`FaultPlan`].
//!
//! **Determinism contract:** a disabled plan (`FaultPlan::none()`, the
//! default) — and equally an *enabled* plan whose rates are all zero — adds
//! zero simulated nanoseconds, zero charge calls and zero events. The
//! `fault_equivalence` suite pins this.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::clock::{Category, ChargeScope, SimClock};
use teraheap_obs::EventKind;
use teraheap_util::rng::Rng;
use teraheap_util::sync::Mutex;

/// One roll per million: probability granularity for transient errors.
const PPM: u64 = 1_000_000;

/// Largest backoff exponent, capping `backoff_base_ns << n`.
const MAX_BACKOFF_SHIFT: u32 = 16;

/// A complete, copyable description of the faults to inject into one run.
///
/// Configured either programmatically (builder-style `with_*` methods, or
/// `H2Config::builder().faults(..)` in `teraheap-core`) or from the
/// `TERAHEAP_FAULTS` environment variable (see [`FaultPlan::from_env`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Master switch. `false` means the plane is entirely absent: no RNG,
    /// no counters, no durable mirroring, bit-identical to the pre-fault
    /// code path.
    pub enabled: bool,
    /// PRNG seed for error rolls and crash-tear ordering.
    pub seed: u64,
    /// Transient read-error probability per I/O op, parts per million.
    pub read_err_ppm: u32,
    /// Transient write-error probability per I/O op, parts per million.
    pub write_err_ppm: u32,
    /// Retry budget per faulted operation (at least 1 attempt is made).
    pub max_retries: u32,
    /// Base backoff charged for the first retry; doubles per attempt.
    pub backoff_base_ns: u64,
    /// Latency-spike period in I/O operations (`0` disables spikes).
    pub spike_every_ops: u64,
    /// Length of each spike window, in I/O operations.
    pub spike_len_ops: u64,
    /// Device-cost multiplier applied inside a spike window.
    pub spike_mult: u64,
    /// Fail H2 backing-file growth (opening a fresh region) once this many
    /// regions have been allocated over the run's lifetime.
    pub enospc_after_regions: Option<u32>,
    /// Crash the run at the N-th durable write-back (1-based), tearing the
    /// in-flight pages.
    pub crash_at_writeback: Option<u64>,
}

impl FaultPlan {
    /// The default plan: no fault plane at all.
    pub const fn none() -> FaultPlan {
        FaultPlan {
            enabled: false,
            seed: 0,
            read_err_ppm: 0,
            write_err_ppm: 0,
            max_retries: 4,
            backoff_base_ns: 50_000,
            spike_every_ops: 0,
            spike_len_ops: 0,
            spike_mult: 1,
            enospc_after_regions: None,
            crash_at_writeback: None,
        }
    }

    /// An enabled plan with all rates zero — the differential-test plan:
    /// every hook is armed but nothing ever fires.
    pub const fn zero_rate(seed: u64) -> FaultPlan {
        let mut p = FaultPlan::none();
        p.enabled = true;
        p.seed = seed;
        p
    }

    /// A seeded chaos preset used by the verify smoke stage: frequent
    /// transient errors in both directions plus periodic latency spikes.
    pub const fn chaos(seed: u64) -> FaultPlan {
        let mut p = FaultPlan::zero_rate(seed);
        p.read_err_ppm = 20_000; // 2% of faults hit a transient error
        p.write_err_ppm = 20_000;
        p.spike_every_ops = 512;
        p.spike_len_ops = 32;
        p.spike_mult = 8;
        p
    }

    /// Enables the plan and sets the PRNG seed.
    pub const fn with_seed(mut self, seed: u64) -> FaultPlan {
        self.enabled = true;
        self.seed = seed;
        self
    }

    /// Sets per-direction transient-error probabilities (ppm per op).
    pub const fn with_error_ppm(mut self, read: u32, write: u32) -> FaultPlan {
        self.enabled = true;
        self.read_err_ppm = read;
        self.write_err_ppm = write;
        self
    }

    /// Sets the retry budget and base backoff for faulted operations.
    pub const fn with_retries(mut self, max_retries: u32, backoff_base_ns: u64) -> FaultPlan {
        self.enabled = true;
        self.max_retries = max_retries;
        self.backoff_base_ns = backoff_base_ns;
        self
    }

    /// Sets a recurring latency spike: the last `len` of every `every` I/O
    /// operations cost `mult`× the normal device time.
    pub const fn with_spike(mut self, every: u64, len: u64, mult: u64) -> FaultPlan {
        self.enabled = true;
        self.spike_every_ops = every;
        self.spike_len_ops = len;
        self.spike_mult = mult;
        self
    }

    /// Fails H2 backing-file growth after `regions` regions.
    pub const fn with_enospc_after(mut self, regions: u32) -> FaultPlan {
        self.enabled = true;
        self.enospc_after_regions = Some(regions);
        self
    }

    /// Crashes the run at the `n`-th durable write-back (1-based).
    pub const fn with_crash_at_writeback(mut self, n: u64) -> FaultPlan {
        self.enabled = true;
        self.crash_at_writeback = Some(n);
        self
    }

    /// Parses `TERAHEAP_FAULTS` into a plan, or `None` when unset/empty.
    ///
    /// Format: comma-separated `key=value` pairs, e.g.
    /// `seed=7,read_err_ppm=20000,write_err_ppm=20000,max_retries=4,`
    /// `backoff_ns=50000,spike_every=512,spike_len=32,spike_mult=8,`
    /// `enospc_after=32,crash_at_writeback=10`. Unknown keys are ignored;
    /// any recognised pair enables the plan.
    pub fn from_env() -> Option<FaultPlan> {
        let raw = std::env::var("TERAHEAP_FAULTS").ok()?;
        FaultPlan::parse(&raw)
    }

    /// Parses the `TERAHEAP_FAULTS` syntax from a string (exposed for
    /// tests; see [`FaultPlan::from_env`]).
    pub fn parse(raw: &str) -> Option<FaultPlan> {
        if raw.trim().is_empty() {
            return None;
        }
        let mut plan = FaultPlan::none();
        let mut any = false;
        for pair in raw.split(',') {
            let Some((key, value)) = pair.split_once('=') else {
                continue;
            };
            let (key, value) = (key.trim(), value.trim());
            let Ok(v) = value.parse::<u64>() else {
                continue;
            };
            any = true;
            match key {
                "seed" => plan.seed = v,
                "read_err_ppm" => plan.read_err_ppm = v as u32,
                "write_err_ppm" => plan.write_err_ppm = v as u32,
                "max_retries" => plan.max_retries = v as u32,
                "backoff_ns" => plan.backoff_base_ns = v,
                "spike_every" => plan.spike_every_ops = v,
                "spike_len" => plan.spike_len_ops = v,
                "spike_mult" => plan.spike_mult = v,
                "enospc_after" => plan.enospc_after_regions = Some(v as u32),
                "crash_at_writeback" => plan.crash_at_writeback = Some(v),
                _ => any = false,
            }
        }
        if any {
            plan.enabled = true;
            Some(plan)
        } else {
            None
        }
    }
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::none()
    }
}

/// Shared runtime state of an armed fault plan.
///
/// One plane is created per H2 (or per test harness) and installed into the
/// components it covers ([`crate::MmapSim::set_fault_plane`]); `Arc`-sharing
/// keeps every component drawing from the *same* operation counters and
/// PRNG stream, which is what makes a chaos run a single replayable
/// sequence.
#[derive(Debug)]
pub struct FaultPlane {
    plan: FaultPlan,
    rng: Mutex<Rng>,
    io_ops: AtomicU64,
    writebacks: AtomicU64,
    faults_injected: AtomicU64,
    retries: AtomicU64,
    crashed: AtomicBool,
}

impl FaultPlane {
    /// Arms `plan` (which should have `enabled` set) as a shareable plane.
    pub fn new(plan: FaultPlan) -> Arc<FaultPlane> {
        Arc::new(FaultPlane {
            plan,
            rng: Mutex::new(Rng::seed_from_u64(plan.seed)),
            io_ops: AtomicU64::new(0),
            writebacks: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
        })
    }

    /// The plan this plane was armed with.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Counts one device-level I/O operation and returns the cost
    /// multiplier for it (1 outside spike windows).
    pub fn spike_multiplier(&self) -> u64 {
        let op = self.io_ops.fetch_add(1, Ordering::Relaxed);
        let every = self.plan.spike_every_ops;
        if every == 0 || self.plan.spike_mult <= 1 {
            return 1;
        }
        let len = self.plan.spike_len_ops.min(every);
        if op % every >= every - len {
            self.plan.spike_mult
        } else {
            1
        }
    }

    /// Rolls the per-direction transient-error probability for one op.
    pub fn roll_error(&self, write: bool) -> bool {
        let ppm = if write {
            self.plan.write_err_ppm
        } else {
            self.plan.read_err_ppm
        } as u64;
        if ppm == 0 {
            return false;
        }
        let hit = self.rng.lock().bounded_u64(PPM) < ppm;
        if hit {
            self.faults_injected.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Backoff charged before retry `attempt` (1-based): exponential with a
    /// capped shift so adversarial budgets cannot overflow.
    pub fn backoff_ns(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(MAX_BACKOFF_SHIFT);
        self.plan.backoff_base_ns.saturating_mul(1 << shift)
    }

    /// Counts one retry attempt (diagnostic counter).
    pub fn note_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one durable write-back boundary; returns `true` exactly when
    /// the configured crash point fires at this boundary (the caller must
    /// then tear the in-flight pages and stop updating durable state).
    pub fn note_writeback(&self) -> bool {
        let n = self.writebacks.fetch_add(1, Ordering::Relaxed) + 1;
        matches!(self.plan.crash_at_writeback,
            Some(c) if n == c && !self.crashed.swap(true, Ordering::Relaxed))
    }

    /// Whether H2 backing-file growth must fail with ENOSPC, given how many
    /// regions the backing file already holds.
    pub fn deny_growth(&self, allocated_regions: u64) -> bool {
        matches!(self.plan.enospc_after_regions, Some(limit) if allocated_regions >= limit as u64)
    }

    /// Whether the crash point has fired.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::Relaxed)
    }

    /// Clears the crash flag after recovery so the revived run can resume
    /// durable mirroring (the one-shot crash point has been consumed).
    pub fn clear_crash(&self) {
        self.crashed.store(false, Ordering::Relaxed);
    }

    /// Durable write-back boundaries counted so far.
    pub fn writebacks(&self) -> u64 {
        self.writebacks.load(Ordering::Relaxed)
    }

    /// Transient errors injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected.load(Ordering::Relaxed)
    }

    /// Retry attempts performed so far.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Runs `f` with the plane's PRNG (crash tearing draws its page order
    /// from the same stream as the error rolls).
    pub fn with_rng<T>(&self, f: impl FnOnce(&mut Rng) -> T) -> T {
        f(&mut self.rng.lock())
    }
}

/// Outcome of the transient-fault protocol for one I/O operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryOutcome {
    /// Whether the operation ultimately succeeded. Reads always do (the
    /// kernel's own page-I/O retry loop eventually completes); a write that
    /// exhausts its budget fails permanently and `ok` is `false`.
    pub ok: bool,
    /// Retry attempts performed (0 when no fault was injected).
    pub retries: u32,
}

impl RetryOutcome {
    const CLEAN: RetryOutcome = RetryOutcome { ok: true, retries: 0 };
}

/// Runs the transient-fault protocol for one I/O op whose base cost has
/// already been added to `scope`: rolls the error probability and, on a
/// fault, charges bounded exponential backoff into `scope`, emitting
/// `FaultInjected` / `IoRetry` events (scope-flushed, so timestamps include
/// every nanosecond charged so far).
pub fn inject_scoped(
    plane: &FaultPlane,
    clock: &SimClock,
    scope: &mut ChargeScope,
    write: bool,
) -> RetryOutcome {
    if !plane.roll_error(write) {
        return RetryOutcome::CLEAN;
    }
    scope.emit(clock, EventKind::FaultInjected { write });
    let budget = plane.plan().max_retries.max(1);
    for attempt in 1..=budget {
        scope.add(plane.backoff_ns(attempt));
        plane.note_retry();
        scope.emit(clock, EventKind::IoRetry { attempt: attempt as u64 });
        if !plane.roll_error(write) {
            return RetryOutcome { ok: true, retries: attempt };
        }
    }
    RetryOutcome { ok: !write, retries: budget }
}

/// Clock-direct variant of [`inject_scoped`] for call sites that charge the
/// clock without a [`ChargeScope`] (device reads/writes, H2 promo flushes).
pub fn inject(plane: &FaultPlane, clock: &SimClock, cat: Category, write: bool) -> RetryOutcome {
    if !plane.roll_error(write) {
        return RetryOutcome::CLEAN;
    }
    clock.emit(EventKind::FaultInjected { write });
    let budget = plane.plan().max_retries.max(1);
    for attempt in 1..=budget {
        clock.charge(cat, plane.backoff_ns(attempt));
        plane.note_retry();
        clock.emit(EventKind::IoRetry { attempt: attempt as u64 });
        if !plane.roll_error(write) {
            return RetryOutcome { ok: true, retries: attempt };
        }
    }
    RetryOutcome { ok: !write, retries: budget }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_disabled_and_zero_rate_is_enabled() {
        assert!(!FaultPlan::none().enabled);
        let z = FaultPlan::zero_rate(9);
        assert!(z.enabled);
        assert_eq!(z.read_err_ppm, 0);
        assert_eq!(z.crash_at_writeback, None);
    }

    #[test]
    fn parse_round_trips_the_documented_keys() {
        let plan = FaultPlan::parse(
            "seed=7,read_err_ppm=100,write_err_ppm=200,max_retries=3,backoff_ns=10,\
             spike_every=64,spike_len=8,spike_mult=4,enospc_after=5,crash_at_writeback=2",
        )
        .unwrap();
        assert!(plan.enabled);
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.read_err_ppm, 100);
        assert_eq!(plan.write_err_ppm, 200);
        assert_eq!(plan.max_retries, 3);
        assert_eq!(plan.backoff_base_ns, 10);
        assert_eq!(plan.spike_every_ops, 64);
        assert_eq!(plan.spike_len_ops, 8);
        assert_eq!(plan.spike_mult, 4);
        assert_eq!(plan.enospc_after_regions, Some(5));
        assert_eq!(plan.crash_at_writeback, Some(2));
    }

    #[test]
    fn parse_rejects_empty_and_junk() {
        assert_eq!(FaultPlan::parse(""), None);
        assert_eq!(FaultPlan::parse("   "), None);
        assert_eq!(FaultPlan::parse("nonsense"), None);
        assert_eq!(FaultPlan::parse("bogus_key=1"), None);
    }

    #[test]
    fn zero_ppm_never_rolls_and_never_touches_the_rng() {
        let plane = FaultPlane::new(FaultPlan::zero_rate(1));
        for _ in 0..1000 {
            assert!(!plane.roll_error(false));
            assert!(!plane.roll_error(true));
        }
        assert_eq!(plane.faults_injected(), 0);
        // The RNG stream is untouched: the first draw still matches a fresh
        // seed, so zero-rate planes cannot diverge from plane-absent runs.
        let fresh = Rng::seed_from_u64(1).next_u64();
        assert_eq!(plane.with_rng(|r| r.next_u64()), fresh);
    }

    #[test]
    fn always_fail_ppm_always_rolls() {
        let plane = FaultPlane::new(FaultPlan::none().with_error_ppm(1_000_000, 1_000_000));
        assert!(plane.roll_error(false));
        assert!(plane.roll_error(true));
        assert_eq!(plane.faults_injected(), 2);
    }

    #[test]
    fn spike_window_multiplies_the_tail_of_each_period() {
        let plane = FaultPlane::new(FaultPlan::none().with_spike(8, 2, 5));
        let mults: Vec<u64> = (0..16).map(|_| plane.spike_multiplier()).collect();
        assert_eq!(mults[..8], [1, 1, 1, 1, 1, 1, 5, 5]);
        assert_eq!(mults[8..], [1, 1, 1, 1, 1, 1, 5, 5]);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let plane = FaultPlane::new(FaultPlan::none().with_retries(4, 100));
        assert_eq!(plane.backoff_ns(1), 100);
        assert_eq!(plane.backoff_ns(2), 200);
        assert_eq!(plane.backoff_ns(3), 400);
        assert_eq!(plane.backoff_ns(1000), 100 << MAX_BACKOFF_SHIFT);
    }

    #[test]
    fn crash_fires_exactly_once_at_the_configured_boundary() {
        let plane = FaultPlane::new(FaultPlan::none().with_crash_at_writeback(3));
        assert!(!plane.note_writeback());
        assert!(!plane.note_writeback());
        assert!(plane.note_writeback());
        assert!(plane.crashed());
        assert!(!plane.note_writeback(), "the crash point is one-shot");
        assert_eq!(plane.writebacks(), 4);
    }

    #[test]
    fn enospc_denies_growth_past_the_limit() {
        let plane = FaultPlane::new(FaultPlan::none().with_enospc_after(2));
        assert!(!plane.deny_growth(0));
        assert!(!plane.deny_growth(1));
        assert!(plane.deny_growth(2));
        assert!(plane.deny_growth(100));
    }

    #[test]
    fn write_retry_exhaustion_fails_reads_do_not() {
        use crate::clock::SimClock;
        let clock = SimClock::new();
        let plane = FaultPlane::new(
            FaultPlan::none()
                .with_error_ppm(1_000_000, 1_000_000)
                .with_retries(3, 10),
        );
        let w = inject(&plane, &clock, Category::Io, true);
        assert!(!w.ok, "write must fail permanently after the budget");
        assert_eq!(w.retries, 3);
        let r = inject(&plane, &clock, Category::Io, false);
        assert!(r.ok, "reads always eventually succeed");
        assert_eq!(r.retries, 3);
        // Backoff was charged: 10 + 20 + 40 per exhausted budget.
        assert_eq!(clock.category_ns(Category::Io), 2 * (10 + 20 + 40));
    }
}
