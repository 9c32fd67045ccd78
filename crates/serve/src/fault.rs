//! Deterministic fault injection for the serving stack.
//!
//! Fault tolerance that is only exercised by real faults is fault
//! tolerance that is never exercised. A [`FaultPlan`] is a *seeded
//! schedule* of failures — worker panics, injected execution latency,
//! corrupted request frames — decided purely by hashing
//! `(seed, job sequence number, fault kind)`, so a chaos run is exactly
//! reproducible: same seed, same faults, same order, regardless of
//! thread interleaving.
//!
//! The plan is threaded through the scheduler behind a test-only hook
//! ([`Scheduler::start_with_streams`](crate::Scheduler::start_with_streams));
//! production construction paths never consult it. The chaos integration
//! tests and `bench_serve --soak` use it to assert the supervision
//! guarantees: zero lost accepted requests, zero non-injected 5xx, and
//! flat tail latency across injected panics and mid-run hot reloads.

use std::time::Duration;

/// Marker embedded in every injected panic's payload; the supervisor and
/// the log-filtering hook recognize injected faults by it.
pub const INJECTED_PANIC: &str = "snn-serve injected fault";

/// A seeded, deterministic schedule of faults.
///
/// Decisions are pure functions of `(seed, seq, kind)` — no global state,
/// no wall clock — so any component (scheduler, test assertion, bench
/// report) can independently recompute which jobs were scheduled to fail.
///
/// # Examples
///
/// ```
/// use snn_serve::FaultPlan;
///
/// let plan = FaultPlan::seeded(7).with_panic_rate(0.5);
/// // Deterministic: the same job either always or never panics.
/// for seq in 0..100 {
///     assert_eq!(plan.injects_panic(seq, 0), plan.injects_panic(seq, 0));
///     // Retries (attempt >= 1) succeed by default.
///     assert!(!plan.injects_panic(seq, 1));
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for all schedule decisions.
    pub seed: u64,
    /// Probability that a job's execution panics (per first attempt).
    pub panic_rate: f64,
    /// Probability that a job's execution is delayed by [`latency`](Self::latency).
    pub latency_rate: f64,
    /// Injected execution delay for latency-scheduled jobs.
    pub latency: Duration,
    /// Probability that a client frame is corrupted in flight (consumed
    /// by the load generator, not the scheduler).
    pub corrupt_rate: f64,
    /// Number of attempts that panic before the job succeeds: `1` means
    /// the first attempt fails and the supervised retry succeeds, `2`
    /// means both in-process attempts fail and the request surfaces as a
    /// 503.
    pub panic_attempts: u32,
    /// Probability that a stream worker command panics mid-stream —
    /// stateful streams are never retried (the resident state is what
    /// panicked), so every scheduled panic quarantines the worker's
    /// sessions and surfaces as a typed `SESSION_LOST` frame.
    pub stream_panic_rate: f64,
    /// Number of initial connection registrations (epoll add + registry
    /// insert) that fail deterministically — the hook behind the
    /// registry-leak regression test: a failed registration must release
    /// its `max_connections` slot, not wedge the server at the cap.
    pub register_fail_first: u64,
}

impl FaultPlan {
    /// A plan with the given seed and all fault rates at zero.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            panic_rate: 0.0,
            latency_rate: 0.0,
            latency: Duration::from_millis(2),
            corrupt_rate: 0.0,
            panic_attempts: 1,
            stream_panic_rate: 0.0,
            register_fail_first: 0,
        }
    }

    /// Sets the worker-panic probability.
    pub fn with_panic_rate(mut self, rate: f64) -> Self {
        self.panic_rate = rate;
        self
    }

    /// Sets the injected-latency probability and delay.
    pub fn with_latency(mut self, rate: f64, latency: Duration) -> Self {
        self.latency_rate = rate;
        self.latency = latency;
        self
    }

    /// Sets the frame-corruption probability.
    pub fn with_corrupt_rate(mut self, rate: f64) -> Self {
        self.corrupt_rate = rate;
        self
    }

    /// Sets how many attempts of a panic-scheduled job fail (see
    /// [`panic_attempts`](Self::panic_attempts)).
    pub fn with_panic_attempts(mut self, attempts: u32) -> Self {
        self.panic_attempts = attempts;
        self
    }

    /// Sets the stream-worker panic probability (see
    /// [`stream_panic_rate`](Self::stream_panic_rate)).
    pub fn with_stream_panic_rate(mut self, rate: f64) -> Self {
        self.stream_panic_rate = rate;
        self
    }

    /// Fails the first `n` connection registrations (see
    /// [`register_fail_first`](Self::register_fail_first)).
    pub fn with_register_failures(mut self, n: u64) -> Self {
        self.register_fail_first = n;
        self
    }

    /// Uniform draw in `[0, 1)` for `(seed, seq, salt)` — splitmix64
    /// finalizer over the mixed inputs.
    fn unit(&self, seq: u64, salt: u64) -> f64 {
        let mut z = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(seq.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(salt.wrapping_mul(0x94D0_49BB_1331_11EB));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        // 53 high bits → exactly representable uniform in [0, 1).
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Whether job `seq`'s execution attempt `attempt` is scheduled to
    /// panic.
    pub fn injects_panic(&self, seq: u64, attempt: u32) -> bool {
        attempt < self.panic_attempts && self.unit(seq, 1) < self.panic_rate
    }

    /// Injected execution delay for job `seq`, if scheduled.
    pub fn injected_latency(&self, seq: u64) -> Option<Duration> {
        (self.unit(seq, 2) < self.latency_rate).then_some(self.latency)
    }

    /// Whether the client frame carrying job `seq` is scheduled to be
    /// corrupted (a load-generator decision; the server just sees a
    /// malformed request).
    pub fn corrupts_frame(&self, seq: u64) -> bool {
        self.unit(seq, 3) < self.corrupt_rate
    }

    /// Executes the faults scheduled for `(seq, attempt)`: sleeps any
    /// injected latency, then panics (with the [`INJECTED_PANIC`] marker)
    /// if a panic is scheduled. Called by the worker inside its
    /// supervision boundary.
    pub fn apply(&self, seq: u64, attempt: u32) {
        if let Some(delay) = self.injected_latency(seq) {
            std::thread::sleep(delay);
        }
        if self.injects_panic(seq, attempt) {
            panic!("{INJECTED_PANIC}: job {seq} attempt {attempt}");
        }
    }

    /// How many of the first `n` jobs are scheduled to panic on their
    /// first attempt — lets a test predict the exact
    /// `snn_worker_panics_total` a run must report.
    pub fn count_panics(&self, n: u64) -> u64 {
        (0..n).filter(|&seq| self.injects_panic(seq, 0)).count() as u64
    }

    /// Whether connection registration number `conn_seq` is scheduled to
    /// fail (the first [`register_fail_first`](Self::register_fail_first)
    /// registrations do, deterministically).
    pub fn injects_register_failure(&self, conn_seq: u64) -> bool {
        conn_seq < self.register_fail_first
    }

    /// Whether stream command `seq` (a per-session command counter mixed
    /// with the session id) is scheduled to panic its worker.
    pub fn injects_stream_panic(&self, seq: u64) -> bool {
        self.unit(seq, 4) < self.stream_panic_rate
    }

    /// Executes the stream fault scheduled for `seq`: panics (with the
    /// [`INJECTED_PANIC`] marker) if scheduled. Called by stream workers
    /// inside their supervision boundary; there is no retry — the panic
    /// quarantines every session resident on the worker.
    pub fn apply_stream(&self, seq: u64) {
        if self.injects_stream_panic(seq) {
            panic!("{INJECTED_PANIC}: stream command {seq}");
        }
    }
}

/// Installs a process-wide panic hook that swallows injected-fault
/// panics (recognized by [`INJECTED_PANIC`] in the payload) and forwards
/// everything else to the previous hook.
///
/// Chaos tests inject hundreds of panics by design; without this, every
/// one prints a backtrace and the signal in CI logs drowns. Idempotent —
/// the hook is installed once per process.
pub fn silence_injected_panics() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains(INJECTED_PANIC))
                || info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.contains(INJECTED_PANIC));
            if !injected {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::seeded(1).with_panic_rate(0.3);
        let b = FaultPlan::seeded(1).with_panic_rate(0.3);
        let c = FaultPlan::seeded(2).with_panic_rate(0.3);
        let pattern = |p: &FaultPlan| (0..256).map(|s| p.injects_panic(s, 0)).collect::<Vec<_>>();
        assert_eq!(pattern(&a), pattern(&b));
        assert_ne!(pattern(&a), pattern(&c));
    }

    #[test]
    fn rates_are_roughly_honored() {
        let plan = FaultPlan::seeded(42)
            .with_panic_rate(0.25)
            .with_latency(0.5, Duration::from_millis(1))
            .with_corrupt_rate(0.1);
        let n = 10_000u64;
        let panics = plan.count_panics(n) as f64 / n as f64;
        let lat = (0..n)
            .filter(|&s| plan.injected_latency(s).is_some())
            .count() as f64
            / n as f64;
        let corrupt = (0..n).filter(|&s| plan.corrupts_frame(s)).count() as f64 / n as f64;
        assert!((panics - 0.25).abs() < 0.02, "panic rate {panics}");
        assert!((lat - 0.5).abs() < 0.02, "latency rate {lat}");
        assert!((corrupt - 0.1).abs() < 0.02, "corrupt rate {corrupt}");
    }

    #[test]
    fn fault_kinds_are_independent_draws() {
        // A job scheduled to panic is not automatically scheduled for
        // latency: the salts decorrelate the kinds.
        let plan = FaultPlan::seeded(3)
            .with_panic_rate(0.5)
            .with_latency(0.5, Duration::from_millis(1));
        let both = (0..4096)
            .filter(|&s| plan.injects_panic(s, 0) && plan.injected_latency(s).is_some())
            .count();
        // Independent 0.5 × 0.5 → about a quarter; perfectly correlated
        // draws would give ~half, anti-correlated ~zero.
        assert!((800..=1250).contains(&both), "joint count {both}");
    }

    #[test]
    fn panic_attempts_gate_retries() {
        let plan = FaultPlan::seeded(5)
            .with_panic_rate(1.0)
            .with_panic_attempts(2);
        assert!(plan.injects_panic(9, 0));
        assert!(plan.injects_panic(9, 1));
        assert!(!plan.injects_panic(9, 2));
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let plan = FaultPlan::seeded(11);
        for seq in 0..1000 {
            assert!(!plan.injects_panic(seq, 0));
            assert!(plan.injected_latency(seq).is_none());
            assert!(!plan.corrupts_frame(seq));
            assert!(!plan.injects_stream_panic(seq));
            plan.apply(seq, 0); // must be a no-op, not a panic
            plan.apply_stream(seq);
        }
    }

    #[test]
    fn stream_panics_are_an_independent_salt() {
        let plan = FaultPlan::seeded(13)
            .with_panic_rate(0.5)
            .with_stream_panic_rate(0.5);
        let n = 4096u64;
        let stream = (0..n).filter(|&s| plan.injects_stream_panic(s)).count() as f64 / n as f64;
        assert!((stream - 0.5).abs() < 0.05, "stream rate {stream}");
        let both = (0..n)
            .filter(|&s| plan.injects_panic(s, 0) && plan.injects_stream_panic(s))
            .count();
        // Independent draws land near a quarter, not half or zero.
        assert!((800..=1250).contains(&both), "joint count {both}");
    }

    #[test]
    fn register_failures_are_first_n_deterministic() {
        let plan = FaultPlan::seeded(9).with_register_failures(3);
        assert!(plan.injects_register_failure(0));
        assert!(plan.injects_register_failure(2));
        assert!(!plan.injects_register_failure(3));
        assert!(!plan.injects_register_failure(1000));
        // The default plan fails nothing.
        assert!(!FaultPlan::seeded(9).injects_register_failure(0));
    }

    #[test]
    fn apply_panics_with_the_marker() {
        silence_injected_panics();
        let plan = FaultPlan::seeded(6).with_panic_rate(1.0);
        let err = std::panic::catch_unwind(|| plan.apply(0, 0)).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains(INJECTED_PANIC));
    }
}
