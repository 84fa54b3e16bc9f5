//! Fault-tolerant invalidation delivery: epoched update notifications,
//! the recovery flush, retry/backoff for home-server trips, and the one
//! outcome vocabulary every front end answers with ([`FtOutcome`] /
//! [`FtUpdateOutcome`]: served or applied, unavailable, shed).
//!
//! The paper's consistency argument assumes every update notification
//! reaches every cache instantly. This module drops that assumption and
//! replaces it with three mechanisms:
//!
//! 1. **Epochs** — the home server stamps each applied update with a
//!    monotone sequence number ([`InvalidationMsg::epoch`]); the proxy
//!    applies message `e` only when `e == last + 1`. A skipped epoch is a
//!    detected delivery failure (or an out-of-band master write) and
//!    triggers a recovery flush of every entry some update template
//!    could affect per the static IPM. Duplicates and stale reorders
//!    (`e <= last`) are dropped — a flush for the gap they belonged to
//!    has already covered them.
//! 2. **Leases** — every cache entry carries a TTL, so even an
//!    *undetected* failure (a dropped message with no successor to
//!    expose the gap) serves stale data for at most the lease window.
//! 3. **Retries** — home-server trips back off exponentially under a
//!    total timeout ([`RetryPolicy`]); while the link is down
//!    ([`HomeLink`]), within-lease cache hits keep serving (graceful
//!    degradation) and misses surface as explicit unavailability rather
//!    than stale answers.

use crate::admission::Overloaded;
use scs_sqlkit::Update;
use scs_storage::{QueryResult, UpdateEffect};

/// One epoch-stamped invalidation notification on the home → proxy
/// stream. Carries the full update statement; what the proxy may *see*
/// of it is still gated by the update template's exposure level when the
/// message is applied.
#[derive(Debug, Clone)]
pub struct InvalidationMsg {
    /// The home server's update epoch after applying this update.
    pub epoch: u64,
    pub update: Update,
}

impl InvalidationMsg {
    /// Nominal wire size of the notification (µ-benchmark bytes): the
    /// epoch stamp plus the canonical statement text. The freshness
    /// plane's fanout-amplification accounting charges this per pipe.
    pub fn payload_bytes(&self) -> u64 {
        8 + self.update.statement_text().len() as u64
    }
}

/// A batch of invalidation notifications covering the **contiguous**
/// epoch range `[first_epoch, last_epoch]`, as shipped by the home
/// server's fanout to each proxy (see `crate::fleet`).
///
/// Coalescing keeps, for each distinct update content (template id +
/// bound parameters), only the **latest-epoch** representative. Dropping
/// the earlier duplicates is sound because applying the same statement's
/// invalidation pass twice removes no additional entries; keeping the
/// latest epoch (rather than the earliest) is what makes the proxy's
/// skip-if-covered check safe — a retained message's epoch is ≥ every
/// epoch it stands for, so a message skipped as a duplicate only ever
/// represents content that was itself already covered.
#[derive(Debug, Clone)]
pub struct InvalidationBatch {
    /// First epoch the batch covers (inclusive).
    pub first_epoch: u64,
    /// Last epoch the batch covers (inclusive).
    pub last_epoch: u64,
    /// Retained representatives, ascending by epoch.
    pub msgs: Vec<InvalidationMsg>,
    /// Messages coalesced away (earlier duplicates of a retained
    /// representative's content).
    pub coalesced: u64,
}

impl InvalidationBatch {
    /// Coalesces a contiguous run of messages (ascending epochs) into a
    /// batch. Returns `None` on an empty run — there is nothing to ship.
    pub fn coalesce(msgs: Vec<InvalidationMsg>) -> Option<InvalidationBatch> {
        let first_epoch = msgs.first()?.epoch;
        let last_epoch = msgs.last()?.epoch;
        debug_assert!(
            msgs.windows(2).all(|w| w[1].epoch == w[0].epoch + 1),
            "a fanout batch must cover a contiguous epoch range"
        );
        let total = msgs.len();
        // Latest-epoch representative per distinct update content.
        let mut latest: std::collections::HashMap<(usize, Vec<scs_sqlkit::Value>), usize> =
            std::collections::HashMap::new();
        for (i, m) in msgs.iter().enumerate() {
            latest.insert((m.update.template_id, m.update.params.clone()), i);
        }
        let mut keep: Vec<usize> = latest.into_values().collect();
        keep.sort_unstable();
        let retained: Vec<InvalidationMsg> = {
            let mut by_index: Vec<Option<InvalidationMsg>> = msgs.into_iter().map(Some).collect();
            keep.iter()
                .map(|&i| by_index[i].take().expect("indices unique"))
                .collect()
        };
        Some(InvalidationBatch {
            first_epoch,
            last_epoch,
            coalesced: (total - retained.len()) as u64,
            msgs: retained,
        })
    }

    /// A single-message batch (the unbatched / immediate-flush case).
    pub fn single(msg: InvalidationMsg) -> InvalidationBatch {
        InvalidationBatch {
            first_epoch: msg.epoch,
            last_epoch: msg.epoch,
            msgs: vec![msg],
            coalesced: 0,
        }
    }

    /// Messages retained in the batch.
    pub fn len(&self) -> usize {
        self.msgs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }

    /// Nominal wire size: the range header plus every retained message.
    pub fn payload_bytes(&self) -> u64 {
        16 + self
            .msgs
            .iter()
            .map(InvalidationMsg::payload_bytes)
            .sum::<u64>()
    }

    /// `(update_template, payload_bytes)` per retained message — the
    /// shape [`scs_telemetry::ProvenanceLog::note_flush_on`] records.
    pub fn retained_payloads(&self) -> Vec<(usize, u64)> {
        self.msgs
            .iter()
            .map(|m| (m.update.template_id, m.payload_bytes()))
            .collect()
    }
}

/// How a delivered [`InvalidationMsg`] was handled by the proxy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// In-order delivery: the update's invalidation pass ran.
    Applied { scanned: usize, invalidated: usize },
    /// The message's epoch was already covered (duplicate, or a reorder
    /// whose gap already forced a flush); dropped.
    Duplicate,
    /// A gap was detected; the recovery flush removed `flushed` entries
    /// (which covers this message's own invalidations too).
    Recovered { flushed: usize },
}

/// How a delivered [`InvalidationBatch`] was handled by the proxy
/// ([`crate::Dssp::apply_batch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchOutcome {
    /// The batch's range attached to the proxy's stream in order (or
    /// overlapped it); every not-yet-covered message was applied.
    Applied {
        /// Messages whose invalidation pass ran.
        applied: usize,
        /// Messages skipped as already covered (whole-epoch duplicates
        /// within an overlapping redelivery).
        skipped: usize,
        /// Cache entries scanned across the applied passes.
        scanned: usize,
        /// Cache entries invalidated across the applied passes.
        invalidated: usize,
    },
    /// Every epoch in the batch was already covered; dropped whole.
    Duplicate,
    /// The batch starts past the next expected epoch — at least one
    /// earlier batch was lost. The recovery flush removed `flushed`
    /// entries (covering this batch's own invalidations too).
    Recovered { flushed: usize },
}

/// The outcome of a query through the request pipeline
/// ([`crate::Dssp::execute_query_ft`]).
#[derive(Debug, Clone)]
pub enum FtOutcome {
    Served {
        result: QueryResult,
        /// Whether the cache answered (no home-server round trip).
        hit: bool,
        /// The hit was served under degradation: the home link or the
        /// home tier was down, or brownout mode marked it. Always
        /// within-lease — never stale beyond it.
        degraded: bool,
    },
    /// Cache miss and the home server stayed unreachable through every
    /// retry; no stale answer is substituted.
    Unavailable,
    /// Turned away by overload protection before costing anything.
    Shed(Overloaded),
}

/// A query response: the outcome plus what the trip cost.
#[derive(Debug, Clone)]
pub struct FtQueryResponse {
    pub outcome: FtOutcome,
    /// Home-trip attempts made (0 for cache hits).
    pub attempts: u32,
    /// Total simulated backoff waited before success or surrender (µs).
    pub backoff_micros: u64,
}

/// The outcome of an update through the request pipeline
/// ([`crate::Dssp::execute_update_ft`]).
#[derive(Debug, Clone)]
pub enum FtUpdateOutcome {
    /// Applied at the master; the epoch-stamped invalidation notification
    /// is returned for the delivery channel (the proxy does **not**
    /// invalidate its own cache until the message is delivered back via
    /// [`crate::Dssp::apply_invalidation_from`] on `stream`).
    Applied {
        effect: UpdateEffect,
        /// The invalidation stream that owns the update and that `msg`'s
        /// epoch counts on: 0 for a classic home, the owning shard's id
        /// for a sharded one.
        stream: u64,
        msg: InvalidationMsg,
    },
    /// The home server stayed unreachable; the master is unchanged.
    Unavailable,
    /// Turned away by overload protection; the master is unchanged.
    Shed(Overloaded),
}

/// An update response: the outcome plus what the trip cost.
#[derive(Debug, Clone)]
pub struct FtUpdateResponse {
    pub outcome: FtUpdateOutcome,
    pub attempts: u32,
    pub backoff_micros: u64,
}

/// Exponential-backoff retry schedule for home-server trips.
///
/// Attempt `k` (1-based) is preceded by a wait of
/// `base_backoff_micros * 2^(k-2)` for `k >= 2`, capped at
/// `max_backoff_micros`; the whole trip gives up once the accumulated
/// wait would exceed `timeout_micros` or `max_attempts` is reached.
///
/// With `jitter` off the schedule is the fixed doubling above — every
/// retrier waits the identical amount, so proxies that failed together
/// retry together (a retry storm into the still-down link). With
/// `jitter` on, [`RetryPolicy::backoff_before_seeded`] draws the wait
/// *full-jitter* style — uniform in `[0, backoff_before(k)]` — from a
/// deterministic hash of `(seed, attempt)`, so replays with the same
/// seed reproduce exactly while differently-seeded retriers decorrelate.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    pub max_attempts: u32,
    pub base_backoff_micros: u64,
    pub max_backoff_micros: u64,
    /// Total backoff budget across all attempts.
    pub timeout_micros: u64,
    /// Enables seeded full-jitter backoff (deterministic per seed).
    pub jitter: bool,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_micros: 10_000,
            max_backoff_micros: 500_000,
            timeout_micros: 2_000_000,
            jitter: false,
        }
    }
}

impl RetryPolicy {
    /// A single attempt, no waiting — the classic fail-fast behaviour.
    pub fn no_retries() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_micros: 0,
            max_backoff_micros: 0,
            timeout_micros: 0,
            jitter: false,
        }
    }

    /// The default schedule with full-jitter enabled.
    pub fn jittered() -> RetryPolicy {
        RetryPolicy {
            jitter: true,
            ..RetryPolicy::default()
        }
    }

    /// The wait before attempt `attempt` (1-based; attempt 1 is
    /// immediate). Without jitter this is the exact wait; with jitter it
    /// is the upper bound of the draw.
    pub fn backoff_before(&self, attempt: u32) -> u64 {
        if attempt <= 1 {
            return 0;
        }
        let exp = (attempt - 2).min(63);
        self.base_backoff_micros
            .saturating_mul(1u64 << exp)
            .min(self.max_backoff_micros)
    }

    /// The wait before attempt `attempt` for the retrier identified by
    /// `seed` (e.g. a hash of proxy id and request sequence). Equals
    /// [`RetryPolicy::backoff_before`] when `jitter` is off; otherwise a
    /// deterministic uniform draw in `[0, backoff_before(attempt)]`.
    pub fn backoff_before_seeded(&self, attempt: u32, seed: u64) -> u64 {
        let cap = self.backoff_before(attempt);
        if !self.jitter || cap == 0 {
            return cap;
        }
        let h = splitmix64(seed ^ splitmix64(attempt as u64));
        h % (cap + 1)
    }
}

/// SplitMix64 finalizer — a tiny, dependency-free bijective mixer; good
/// enough to decorrelate backoff draws and fully deterministic.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One fanout pipe registered at the home server: a replica's stable id
/// and the update epoch current when the pipe was opened. A joining
/// replica registers *before* it enters the routing ring and sets its
/// epoch cursor to `joined_epoch` — every later epoch reaches it through
/// its own pipe, and every earlier epoch is provably already reflected
/// in the master state it will warm from, so the handshake leaves no
/// window in which an invalidation for soon-to-be-owned entries can be
/// missed. The registry is the home-side membership view; the fleet
/// keeps it in lock-step with its replica set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipeRegistration {
    /// Stable replica id (never reused within a fleet's lifetime).
    pub replica: usize,
    /// Home update epoch at registration — the pipe's initial cursor.
    pub joined_epoch: u64,
}

/// The (simulated) state of the proxy ↔ home network path: a set of
/// outage windows `[start, end)` in microseconds. Produced by the
/// fault-injection harness; [`HomeLink::reliable`] is the always-up
/// default.
#[derive(Debug, Clone, Default)]
pub struct HomeLink {
    outages: Vec<(u64, u64)>,
}

impl HomeLink {
    /// A link that never fails (the paper's assumption).
    pub fn reliable() -> HomeLink {
        HomeLink::default()
    }

    /// A link down during each `[start, end)` window.
    pub fn with_outages(outages: Vec<(u64, u64)>) -> HomeLink {
        HomeLink { outages }
    }

    pub fn is_up(&self, now_micros: u64) -> bool {
        !self
            .outages
            .iter()
            .any(|&(s, e)| s <= now_micros && now_micros < e)
    }

    /// The configured down windows as half-open `(start, end)` pairs —
    /// exported next to time-series curves so an observed throughput dip
    /// can be lined up against the outage that caused it.
    pub fn outages(&self) -> &[(u64, u64)] {
        &self.outages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 6,
            base_backoff_micros: 100,
            max_backoff_micros: 350,
            timeout_micros: 10_000,
            jitter: false,
        };
        assert_eq!(p.backoff_before(1), 0);
        assert_eq!(p.backoff_before(2), 100);
        assert_eq!(p.backoff_before(3), 200);
        assert_eq!(p.backoff_before(4), 350, "capped");
        assert_eq!(p.backoff_before(5), 350);
    }

    #[test]
    fn backoff_survives_huge_attempt_counts() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_before(200), p.max_backoff_micros);
    }

    #[test]
    fn link_outage_windows_are_half_open() {
        let link = HomeLink::with_outages(vec![(100, 200), (500, 600)]);
        assert!(link.is_up(99));
        assert!(!link.is_up(100));
        assert!(!link.is_up(199));
        assert!(link.is_up(200));
        assert!(!link.is_up(550));
        assert!(link.is_up(1_000));
        assert!(HomeLink::reliable().is_up(0));
    }

    #[test]
    fn seeded_backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy::jittered();
        for attempt in 2..=6u32 {
            let cap = p.backoff_before(attempt);
            for seed in [0u64, 1, 42, u64::MAX] {
                let w = p.backoff_before_seeded(attempt, seed);
                assert!(w <= cap, "draw {w} exceeds cap {cap}");
                assert_eq!(
                    w,
                    p.backoff_before_seeded(attempt, seed),
                    "same (seed, attempt) must replay identically"
                );
            }
        }
        // Attempt 1 is always immediate, jitter or not.
        assert_eq!(p.backoff_before_seeded(1, 7), 0);
    }

    #[test]
    fn jitter_off_matches_deterministic_schedule() {
        let p = RetryPolicy::default();
        for attempt in 1..=8u32 {
            assert_eq!(
                p.backoff_before_seeded(attempt, 1234),
                p.backoff_before(attempt)
            );
        }
    }

    #[test]
    fn jittered_retriers_decorrelate() {
        // The retry-storm regression: two retriers seeded differently
        // must not share an identical full backoff schedule.
        let p = RetryPolicy::jittered();
        let schedule =
            |seed: u64| -> Vec<u64> { (2..=6).map(|a| p.backoff_before_seeded(a, seed)).collect() };
        let collisions = (0..64u64)
            .filter(|s| schedule(2 * s) == schedule(2 * s + 1))
            .count();
        assert_eq!(collisions, 0, "seeded schedules collided");
    }
}
