//! Overload protection for the DSSP proxy: deadline-aware admission,
//! a per-home-link circuit breaker, and brownout mode.
//!
//! The paper's scalability story ends at the knee — past it, unbounded
//! queues turn every response uselessly late while still burning home
//! server capacity on answers nobody will wait for. This module sheds
//! early instead:
//!
//! 1. **Admission** ([`AdmissionController`]) — a request whose
//!    *projected* completion (current queue wait + a service estimate)
//!    already violates its deadline is rejected at arrival, before it
//!    costs anything. Shedding at the door keeps goodput flat where
//!    accept-everything collapses.
//! 2. **Circuit breaker** ([`CircuitBreaker`]) — consecutive
//!    home-server failures trip the breaker `Closed → Open`; while open
//!    every home trip is refused locally (no queue pressure on a link
//!    that is already down, no retry storm). After `open_micros` of sim
//!    time the breaker admits exactly one `HalfOpen` probe: success
//!    closes it, failure re-opens it for another window.
//! 3. **Brownout** ([`BrownoutController`]) — while the breaker is open
//!    or the recent shed ratio crosses a threshold, within-lease cache
//!    hits are served *degraded* (reusing the PR 2 degraded-serve path)
//!    and misses fast-reject with [`Overloaded`]. Leases still bound
//!    staleness — brownout never serves beyond-lease data, which the
//!    chaos oracle enforces end to end.
//!
//! Everything runs on the simulated clock passed by the caller, so runs
//! replay bit-identically per seed.

/// Why a request was shed. Stable codes for trace events and counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Deadline-aware admission: projected completion past the deadline.
    Admission,
    /// The home-link circuit breaker was open.
    BreakerOpen,
    /// Brownout mode fast-rejected a cache miss.
    Brownout,
    /// A bounded queue (netsim `try_serve`/`try_send`) turned it away.
    QueueFull,
}

impl ShedReason {
    pub fn code(self) -> u8 {
        match self {
            ShedReason::Admission => 0,
            ShedReason::BreakerOpen => 1,
            ShedReason::Brownout => 2,
            ShedReason::QueueFull => 3,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            ShedReason::Admission => "admission",
            ShedReason::BreakerOpen => "breaker_open",
            ShedReason::Brownout => "brownout",
            ShedReason::QueueFull => "queue_full",
        }
    }
}

/// A request turned away by deadline-aware admission: the projection
/// that condemned it. Mirrors netsim's `Rejected` for bounded queues,
/// but lives here because `scs-dssp` does not depend on `scs-netsim`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejected {
    /// When the request was offered (µs, sim time).
    pub now_micros: u64,
    /// Projected completion: `now + queue wait + service estimate`.
    pub projected_completion_micros: u64,
    /// The absolute deadline it would have missed.
    pub deadline_micros: u64,
    /// Jobs queued ahead of it at the bottleneck.
    pub queue_depth: usize,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "admission rejected: projected completion {}us past deadline {}us ({} queued)",
            self.projected_completion_micros, self.deadline_micros, self.queue_depth
        )
    }
}

impl std::error::Error for Rejected {}

/// Why the overload layer refused to serve a request. Chains to the
/// underlying [`Rejected`] via `std::error::Error::source`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overloaded {
    /// Deadline-aware admission shed it at arrival.
    Admission(Rejected),
    /// The circuit breaker is open; retry after it may have half-opened.
    BreakerOpen { retry_after_micros: u64 },
    /// Brownout mode fast-rejected a cache miss.
    Brownout,
    /// A bounded queue refused it (depth/wait cap exceeded).
    QueueFull,
}

impl Overloaded {
    pub fn reason(&self) -> ShedReason {
        match self {
            Overloaded::Admission(_) => ShedReason::Admission,
            Overloaded::BreakerOpen { .. } => ShedReason::BreakerOpen,
            Overloaded::Brownout => ShedReason::Brownout,
            Overloaded::QueueFull => ShedReason::QueueFull,
        }
    }
}

impl std::fmt::Display for Overloaded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Overloaded::Admission(r) => write!(f, "overloaded: {r}"),
            Overloaded::BreakerOpen { retry_after_micros } => {
                write!(
                    f,
                    "overloaded: breaker open, retry after {retry_after_micros}us"
                )
            }
            Overloaded::Brownout => write!(f, "overloaded: brownout, miss fast-rejected"),
            Overloaded::QueueFull => write!(f, "overloaded: bounded queue full"),
        }
    }
}

impl std::error::Error for Overloaded {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Overloaded::Admission(r) => Some(r),
            Overloaded::BreakerOpen { .. } | Overloaded::Brownout | Overloaded::QueueFull => None,
        }
    }
}

/// A snapshot of the bottleneck queue ahead of a candidate request.
/// The proxy itself is queue-less in the simulation (queueing lives in
/// the netsim service centers), so the caller bridges the two worlds by
/// passing what the home-side queue looks like right now.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueState {
    /// Delay (µs) a job arriving now would wait before service starts.
    pub projected_wait_micros: u64,
    /// Jobs in system (queued + in service).
    pub depth: usize,
}

/// Deadline-aware admission parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Relative deadline (µs) a request must meet to count as goodput.
    pub deadline_micros: u64,
    /// Estimated service demand (µs) for a home trip, added to the
    /// observed queue wait when projecting completion.
    pub service_estimate_micros: u64,
    /// Hard cap on bottleneck queue depth (`None` = wait-based only).
    pub max_queue_depth: Option<usize>,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            deadline_micros: 2_000_000, // the paper's 2 s SLA bound
            service_estimate_micros: 10_000,
            max_queue_depth: None,
        }
    }
}

/// Stateless deadline-aware admission check: shed a request at arrival
/// when, given the queue it would join, it could not finish in time
/// anyway.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmissionController {
    pub config: AdmissionConfig,
}

impl AdmissionController {
    pub fn new(config: AdmissionConfig) -> AdmissionController {
        AdmissionController { config }
    }

    /// Admit or reject a request offered at `now` against `queue`.
    pub fn admit(&self, now_micros: u64, queue: &QueueState) -> Result<(), Rejected> {
        let projected = now_micros
            .saturating_add(queue.projected_wait_micros)
            .saturating_add(self.config.service_estimate_micros);
        let deadline = now_micros.saturating_add(self.config.deadline_micros);
        let too_deep = self
            .config
            .max_queue_depth
            .is_some_and(|cap| queue.depth > cap);
        if projected > deadline || too_deep {
            return Err(Rejected {
                now_micros,
                projected_completion_micros: projected,
                deadline_micros: deadline,
                queue_depth: queue.depth,
            });
        }
        Ok(())
    }
}

/// Circuit-breaker state. Codes are stable for trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; failures are being counted.
    Closed,
    /// Tripped: all home trips refused until the probe interval elapses.
    Open,
    /// Probe window: exactly one request may try the home server.
    HalfOpen,
}

impl BreakerState {
    pub fn code(self) -> u8 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// Circuit-breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip `Closed → Open`.
    pub failure_threshold: u32,
    /// Sim time (µs) the breaker stays open before half-opening.
    pub open_micros: u64,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            open_micros: 200_000,
        }
    }
}

/// A state transition, reported so the caller can count and trace it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerTransition {
    pub from: BreakerState,
    pub to: BreakerState,
    pub at_micros: u64,
}

/// Per-home-link circuit breaker on the simulated clock.
///
/// Protocol: call [`CircuitBreaker::poll`] with the current sim time to
/// apply any due `Open → HalfOpen` transition, then
/// [`CircuitBreaker::try_acquire`] before a home trip; report the trip's
/// outcome with [`CircuitBreaker::on_success`] / [`CircuitBreaker::on_failure`].
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at_micros: u64,
    probe_in_flight: bool,
}

impl CircuitBreaker {
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at_micros: 0,
            probe_in_flight: false,
        }
    }

    pub fn state(&self) -> BreakerState {
        self.state
    }

    pub fn config(&self) -> &BreakerConfig {
        &self.config
    }

    /// When an open breaker will admit its probe (µs, sim time).
    pub fn probe_due_micros(&self) -> u64 {
        self.opened_at_micros
            .saturating_add(self.config.open_micros)
    }

    /// Applies any time-based transition (`Open → HalfOpen` once the
    /// probe interval has elapsed); returns it if one fired.
    pub fn poll(&mut self, now_micros: u64) -> Option<BreakerTransition> {
        if self.state == BreakerState::Open && now_micros >= self.probe_due_micros() {
            self.probe_in_flight = false;
            return Some(self.transition(BreakerState::HalfOpen, now_micros));
        }
        None
    }

    /// Whether a home trip may proceed right now. In `HalfOpen` this
    /// admits exactly one probe; concurrent callers are refused until
    /// the probe reports back.
    pub fn try_acquire(&mut self, now_micros: u64) -> bool {
        self.poll(now_micros);
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => {
                if self.probe_in_flight {
                    false
                } else {
                    self.probe_in_flight = true;
                    true
                }
            }
        }
    }

    /// Report a successful home trip. Closes a half-open breaker.
    pub fn on_success(&mut self, now_micros: u64) -> Option<BreakerTransition> {
        self.consecutive_failures = 0;
        match self.state {
            BreakerState::HalfOpen => {
                self.probe_in_flight = false;
                Some(self.transition(BreakerState::Closed, now_micros))
            }
            _ => None,
        }
    }

    /// Report a failed (or exhausted-retries) home trip. Trips a closed
    /// breaker at the threshold; re-opens a half-open one immediately.
    pub fn on_failure(&mut self, now_micros: u64) -> Option<BreakerTransition> {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.config.failure_threshold {
                    self.opened_at_micros = now_micros;
                    return Some(self.transition(BreakerState::Open, now_micros));
                }
                None
            }
            BreakerState::HalfOpen => {
                self.probe_in_flight = false;
                self.opened_at_micros = now_micros;
                Some(self.transition(BreakerState::Open, now_micros))
            }
            BreakerState::Open => None,
        }
    }

    fn transition(&mut self, to: BreakerState, at_micros: u64) -> BreakerTransition {
        let from = self.state;
        self.state = to;
        if to == BreakerState::Closed || to == BreakerState::Open {
            self.consecutive_failures = 0;
        }
        BreakerTransition {
            from,
            to,
            at_micros,
        }
    }
}

/// Brownout tuning: the shed-ratio trigger evaluated over fixed windows
/// of sim time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrownoutConfig {
    /// Window width (µs) over which the shed ratio is measured.
    pub window_micros: u64,
    /// Shed ratio (shed / offered in the previous window) at or above
    /// which brownout engages even with the breaker closed.
    pub shed_ratio_threshold: f64,
    /// Minimum offered requests in the window before the ratio counts
    /// (guards tiny-sample flapping).
    pub min_offered: u64,
}

impl Default for BrownoutConfig {
    fn default() -> BrownoutConfig {
        BrownoutConfig {
            window_micros: 100_000,
            shed_ratio_threshold: 0.5,
            min_offered: 10,
        }
    }
}

/// Tracks offered/shed counts per window and decides whether brownout
/// mode is active: it is whenever the breaker is open, or when the last
/// *completed* window shed at or above the threshold.
#[derive(Debug, Clone)]
pub struct BrownoutController {
    config: BrownoutConfig,
    window_start_micros: u64,
    offered: u64,
    shed: u64,
    last_window_hot: bool,
}

impl BrownoutController {
    pub fn new(config: BrownoutConfig) -> BrownoutController {
        BrownoutController {
            config,
            window_start_micros: 0,
            offered: 0,
            shed: 0,
            last_window_hot: false,
        }
    }

    /// Record one offered request and whether it was shed.
    pub fn record(&mut self, now_micros: u64, shed: bool) {
        self.roll(now_micros);
        self.offered += 1;
        if shed {
            self.shed += 1;
        }
    }

    /// Whether brownout is active at `now` given the breaker's state.
    pub fn active(&mut self, now_micros: u64, breaker_open: bool) -> bool {
        self.roll(now_micros);
        breaker_open || self.last_window_hot
    }

    fn roll(&mut self, now_micros: u64) {
        let width = self.config.window_micros.max(1);
        if now_micros < self.window_start_micros + width {
            return;
        }
        // Close out the elapsed window; windows with too few samples (or
        // skipped entirely while idle) read as cool.
        let elapsed_one = now_micros < self.window_start_micros + 2 * width;
        self.last_window_hot = elapsed_one
            && self.offered >= self.config.min_offered
            && (self.shed as f64) >= self.config.shed_ratio_threshold * (self.offered as f64);
        self.window_start_micros = now_micros - (now_micros % width);
        self.offered = 0;
        self.shed = 0;
    }
}

/// The full overload-protection configuration for a proxy.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OverloadConfig {
    pub admission: AdmissionConfig,
    pub breaker: BreakerConfig,
    pub brownout: BrownoutConfig,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_rejects_doomed_requests() {
        let a = AdmissionController::new(AdmissionConfig {
            deadline_micros: 100,
            service_estimate_micros: 30,
            max_queue_depth: None,
        });
        let ok = QueueState {
            projected_wait_micros: 70,
            depth: 3,
        };
        assert!(a.admit(1_000, &ok).is_ok(), "70 + 30 = 100 ≤ deadline");
        let late = QueueState {
            projected_wait_micros: 71,
            depth: 3,
        };
        let r = a.admit(1_000, &late).unwrap_err();
        assert_eq!(r.projected_completion_micros, 1_101);
        assert_eq!(r.deadline_micros, 1_100);
        assert_eq!(r.queue_depth, 3);
    }

    #[test]
    fn admission_depth_cap() {
        let a = AdmissionController::new(AdmissionConfig {
            deadline_micros: 1_000_000,
            service_estimate_micros: 0,
            max_queue_depth: Some(2),
        });
        let shallow = QueueState {
            projected_wait_micros: 0,
            depth: 2,
        };
        assert!(a.admit(0, &shallow).is_ok());
        let deep = QueueState {
            projected_wait_micros: 0,
            depth: 3,
        };
        assert!(a.admit(0, &deep).is_err());
    }

    #[test]
    fn breaker_trips_after_threshold() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 3,
            open_micros: 100,
        });
        assert!(b.try_acquire(0));
        assert!(b.on_failure(1).is_none());
        assert!(b.on_failure(2).is_none());
        let t = b.on_failure(3).expect("third consecutive failure trips");
        assert_eq!((t.from, t.to), (BreakerState::Closed, BreakerState::Open));
        assert!(!b.try_acquire(50), "open refuses");
        assert_eq!(b.probe_due_micros(), 103);
    }

    #[test]
    fn breaker_success_resets_failure_streak() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 2,
            open_micros: 100,
        });
        assert!(b.on_failure(1).is_none());
        assert!(b.on_success(2).is_none(), "streak broken");
        assert!(b.on_failure(3).is_none(), "back to 1 failure");
        assert!(b.on_failure(4).is_some(), "2 consecutive trips");
    }

    #[test]
    fn breaker_half_open_single_probe() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            open_micros: 100,
        });
        b.on_failure(10);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.try_acquire(109), "still open just before the interval");
        assert!(b.try_acquire(110), "probe admitted at the boundary");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.try_acquire(111), "second concurrent probe refused");
        let t = b.on_success(112).expect("probe success closes");
        assert_eq!(t.to, BreakerState::Closed);
        assert!(b.try_acquire(113));
    }

    #[test]
    fn breaker_probe_failure_reopens() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            failure_threshold: 1,
            open_micros: 100,
        });
        b.on_failure(0);
        assert!(b.try_acquire(100));
        let t = b.on_failure(105).expect("probe failure re-opens");
        assert_eq!((t.from, t.to), (BreakerState::HalfOpen, BreakerState::Open));
        assert!(!b.try_acquire(204), "new interval counts from the re-open");
        assert!(b.try_acquire(205));
    }

    #[test]
    fn brownout_engages_on_shed_ratio_and_breaker() {
        let mut bo = BrownoutController::new(BrownoutConfig {
            window_micros: 100,
            shed_ratio_threshold: 0.5,
            min_offered: 4,
        });
        // Window [0, 100): 4 offered, 3 shed — hot.
        for (t, shed) in [(10, true), (20, true), (30, false), (40, true)] {
            bo.record(t, shed);
        }
        assert!(!bo.active(50, false), "current window not yet closed");
        assert!(bo.active(150, false), "previous window ≥ 50% shed");
        // Window [100, 200): quiet; from 200 on brownout releases.
        assert!(!bo.active(250, false));
        // Breaker open forces brownout regardless of shed history.
        assert!(bo.active(260, true));
    }

    #[test]
    fn brownout_ignores_tiny_samples_and_stale_windows() {
        let mut bo = BrownoutController::new(BrownoutConfig {
            window_micros: 100,
            shed_ratio_threshold: 0.5,
            min_offered: 4,
        });
        bo.record(10, true);
        bo.record(20, true);
        assert!(
            !bo.active(150, false),
            "2 offered < min_offered: ratio does not count"
        );
        // A hot window followed by a long idle gap must not linger.
        for t in [210, 220, 230, 240] {
            bo.record(t, true);
        }
        assert!(!bo.active(1_000, false), "hot window is long past");
    }

    #[test]
    fn overloaded_error_chains_to_rejection() {
        use std::error::Error;
        let r = Rejected {
            now_micros: 5,
            projected_completion_micros: 40,
            deadline_micros: 25,
            queue_depth: 9,
        };
        let o = Overloaded::Admission(r);
        assert_eq!(o.reason(), ShedReason::Admission);
        let src = o.source().expect("admission chains to Rejected");
        assert!(src.to_string().contains("projected completion 40us"));
        assert!(Overloaded::Brownout.source().is_none());
        assert!(Overloaded::QueueFull.source().is_none());
        assert!(Overloaded::BreakerOpen {
            retry_after_micros: 7
        }
        .source()
        .is_none());
        assert!(o.to_string().contains("overloaded"));
    }

    #[test]
    fn shed_reason_codes_are_stable() {
        assert_eq!(ShedReason::Admission.code(), 0);
        assert_eq!(ShedReason::BreakerOpen.code(), 1);
        assert_eq!(ShedReason::Brownout.code(), 2);
        assert_eq!(ShedReason::QueueFull.code(), 3);
        assert_eq!(ShedReason::Brownout.name(), "brownout");
        assert_eq!(BreakerState::Closed.code(), 0);
        assert_eq!(BreakerState::Open.code(), 1);
        assert_eq!(BreakerState::HalfOpen.code(), 2);
        assert_eq!(BreakerState::HalfOpen.name(), "half_open");
    }
}
