//! Per-node health: a count-based circuit breaker.
//!
//! The breaker is deliberately **count-based, not clock-based**: state
//! advances on `allow`/`on_success`/`on_failure` calls, never on
//! wall-clock timers, so every test and experiment that drives it is
//! deterministic. In a cluster client the call rate *is* the request
//! rate, which makes "skip `probe_interval` requests, then probe once"
//! behave like a time-based cooldown under load — without the flake.
//!
//! Only fresh evidence moves it toward health: a success from a request
//! admitted before the latest failure (say, a dying node draining the
//! requests queued before it went down) is stale and changes nothing.
//!
//! ```text
//!        failure_threshold consecutive failures
//! Closed ────────────────────────────────────▶ Open
//!   ▲                                            │ probe_interval denials
//!   │ probe succeeds             probe allowed   ▼
//!   └──────────────────────────────────────── HalfOpen
//!                 (probe fails → back to Open)
//! ```

/// Breaker knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip Closed → Open.
    pub failure_threshold: u32,
    /// Requests denied in Open before one probe is let through.
    pub probe_interval: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig { failure_threshold: 3, probe_interval: 8 }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: all requests pass.
    Closed,
    /// Tripped: requests are denied (routed to replicas) except a
    /// periodic probe.
    Open,
    /// One probe is in flight; its outcome decides Closed vs Open.
    HalfOpen,
}

/// One node's breaker. Wrap in a `Mutex` for sharing; the methods take
/// `&mut self` and never block.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    denied_since_open: u32,
    /// Failures recorded over the breaker's life.
    failures: u64,
}

impl CircuitBreaker {
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            denied_since_open: 0,
            failures: 0,
        }
    }

    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// May a request be sent to this node right now? In Open, every
    /// `probe_interval`-th call is converted into a HalfOpen probe.
    pub fn allow(&mut self) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => false, // one probe at a time
            BreakerState::Open => {
                self.denied_since_open += 1;
                if self.denied_since_open >= self.cfg.probe_interval {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Failures recorded so far. Read it when a request is admitted and
    /// hand it back to [`CircuitBreaker::on_success`].
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// A request admitted when [`CircuitBreaker::failures`] read `since`
    /// succeeded. Stale if a failure was recorded after its admission:
    /// then it neither closes the breaker nor resets the failure streak.
    pub fn on_success(&mut self, since: u64) {
        if since != self.failures {
            return;
        }
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
        self.denied_since_open = 0;
    }

    pub fn on_failure(&mut self) {
        self.failures += 1;
        match self.state {
            BreakerState::HalfOpen => {
                // Failed probe: back to Open, restart the denial count.
                self.state = BreakerState::Open;
                self.denied_since_open = 0;
            }
            BreakerState::Open => {}
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.cfg.failure_threshold {
                    self.state = BreakerState::Open;
                    self.denied_since_open = 0;
                    bora_obs::counter("cluster.breaker_open").inc();
                }
            }
        }
    }

    /// An admitted request ended without a verdict: it was never sent,
    /// or its caller hung up before the node answered anything. Only a
    /// pending probe needs settling — it goes back to Open, so the next
    /// probe comes after another `probe_interval` denials instead of the
    /// breaker waiting in HalfOpen for an answer that will never come.
    pub fn on_abandon(&mut self) {
        if self.state == BreakerState::HalfOpen {
            self.state = BreakerState::Open;
            self.denied_since_open = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig { failure_threshold: 3, probe_interval: 4 })
    }

    #[test]
    fn trips_after_threshold_consecutive_failures() {
        let mut b = breaker();
        b.on_failure();
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Closed, "below threshold");
        b.on_success(b.failures()); // success resets the streak
        b.on_failure();
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn open_denies_then_probes() {
        let mut b = breaker();
        for _ in 0..3 {
            b.on_failure();
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow());
        assert!(!b.allow());
        assert!(!b.allow());
        assert!(b.allow(), "4th attempt becomes the probe");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allow(), "only one probe in flight");
    }

    #[test]
    fn probe_outcome_decides() {
        let mut b = breaker();
        for _ in 0..3 {
            b.on_failure();
        }
        for _ in 0..4 {
            b.allow();
        }
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open, "failed probe reopens");
        for _ in 0..4 {
            b.allow();
        }
        b.on_success(b.failures());
        assert_eq!(b.state(), BreakerState::Closed, "healed probe closes");
        assert!(b.allow());
    }

    #[test]
    fn stale_success_neither_resets_nor_closes() {
        let mut b = breaker();
        let since = b.failures();
        b.on_failure();
        b.on_failure();
        b.on_success(since); // admitted before both failures
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open, "the streak survived a stale success");
        b.on_success(since);
        assert_eq!(b.state(), BreakerState::Open, "a stale success does not close");
        b.on_success(b.failures());
        assert_eq!(b.state(), BreakerState::Closed, "a fresh one does");
    }

    #[test]
    fn abandoned_probe_reopens_and_probes_again() {
        let mut b = breaker();
        b.on_abandon();
        assert_eq!(b.state(), BreakerState::Closed, "nothing to settle while Closed");
        for _ in 0..3 {
            b.on_failure();
        }
        for _ in 0..4 {
            b.allow();
        }
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.on_abandon();
        assert_eq!(b.state(), BreakerState::Open, "withdrawn probe reopens");
        assert!(!b.allow() && !b.allow() && !b.allow());
        assert!(b.allow(), "a fresh probe after another probe_interval");
    }
}
