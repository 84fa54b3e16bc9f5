//! Elastic fleet membership: the types behind live join/leave with
//! state handoff, plus the [`Autoscaler`] policy that drives them.
//!
//! The membership *mechanics* live in [`crate::fleet`] (they need the
//! fleet's private fields); this module holds the vocabulary — what a
//! join or leave reports, which faults the chaos tests inject into a
//! handoff — and the pure autoscaling policy, which is deliberately
//! independent of the fleet so the simulation driver can feed it
//! whatever utilization signal it measures.
//!
//! ## Join protocol (see `DESIGN.md` §14)
//!
//! 1. **Read tips before ring entry.** The joiner takes every stream's
//!    tip ([`crate::Home::tips`]) as its cursors, and its pipe joins
//!    the fanout. From this instant every committed update reaches the
//!    joiner on its own pipe; everything at or below the tips is
//!    already reflected in the state it warms from.
//! 2. **Warm from predecessors.** For each ring arc the joiner will
//!    own, the current owner (donor) is pumped to its delivery horizon,
//!    then hands over the cached entries for that arc along with its
//!    cursors. Entries are imported only when the donor's cursors equal
//!    the joiner's on every stream (a *cursor match*) — otherwise they
//!    are dropped and refetched on miss, trading warmth for an airtight
//!    staleness argument. Imported entries keep their original lease
//!    window and stored epoch, so the lease bound survives the transfer
//!    unconditionally.
//! 3. **Atomic cutover.** Only after warming does the routing ring
//!    swap; the swap is a single assignment, so no operation ever
//!    routes to a half-joined replica.
//!
//! A leave runs the protocol in reverse: drain in-flight batches, swap
//! the ring first, hand the departing replica's entries to their new
//! owners (same cursor-match rule), then drop the replica and its pipe
//! after a final pump so the provenance ledger's conservation law stays
//! balanced across the membership change.

/// Fault injected into a membership change by the chaos tests. Each
/// models a crash at a different point in the join/handoff protocol;
/// all of them must leave `stale_beyond_lease == 0` and the
/// conservation ledger balanced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandoffFault {
    /// Clean join: every donor hands off and the joiner imports on
    /// cursor match.
    None,
    /// The handoff stream is lost in transit: donors extract their
    /// entries but nothing arrives at the joiner. The joiner enters the
    /// ring cold — pure miss cost, no staleness.
    DropStream,
    /// The joiner crashes after reading the tips but before warming
    /// completes. The join rolls back: the replica and its pipe are
    /// dropped, and the routing ring is left untouched
    /// (byte-identical — the no-op-resize property).
    CrashJoiner,
    /// The first donor crashes mid-handoff: only half of its exported
    /// entries survive in transit, the donor itself restarts at the
    /// home's tips with a cold cache, and the join completes with the
    /// remaining donors.
    CrashDonor,
}

/// What [`crate::fleet::ProxyFleet::add_replica`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinOutcome {
    /// Stable id of the (possibly aborted) joiner. Ids are never
    /// reused within a fleet's lifetime.
    pub replica: usize,
    /// Stream 0's tip when the joiner read the tips — its initial
    /// stream-0 cursor.
    pub joined_epoch: u64,
    /// Entries imported from donors (cursor-matched and unexpired).
    pub handed: u64,
    /// Entries extracted from donors but not imported: dropped in
    /// transit, expired on arrival, or skipped on cursor mismatch.
    /// These cost cold misses, never staleness.
    pub skipped: u64,
    /// True when the join rolled back ([`HandoffFault::CrashJoiner`]):
    /// the ring is unchanged and the replica does not exist.
    pub aborted: bool,
}

/// What [`crate::fleet::ProxyFleet::remove_replica`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaveOutcome {
    /// Stable id of the departed replica.
    pub replica: usize,
    /// The leaver's stream-0 cursor after its final drain.
    pub final_epoch: u64,
    /// Entries successfully handed to successor replicas.
    pub handed: u64,
    /// Entries extracted but not imported (cursor mismatch or expiry).
    pub skipped: u64,
}

/// Scale direction an [`Autoscaler`] decided on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleAction {
    /// Add one replica.
    Out,
    /// Remove one replica.
    In,
}

/// One autoscaling decision, journaled for the experiment export so
/// the membership timeline is visible next to the load curves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleDecision {
    pub at_micros: u64,
    pub action: ScaleAction,
    /// Busiest live replica's utilization in the window that tripped
    /// the decision.
    pub busiest_util: f64,
    /// Live replica count *before* the action.
    pub live: usize,
}

impl ScaleDecision {
    /// Live replica count once the action is applied.
    pub fn live_after(&self) -> usize {
        match self.action {
            ScaleAction::Out => self.live + 1,
            ScaleAction::In => self.live - 1,
        }
    }
}

/// Autoscaler thresholds. Scale-out and scale-in bands are separated
/// (hysteresis) and every action starts a cooldown, so the policy
/// cannot flap on a noisy signal.
#[derive(Debug, Clone, Copy)]
pub struct AutoscalerConfig {
    /// Scale out when the busiest replica's windowed utilization stays
    /// at or above this for `sustain` consecutive samples.
    pub scale_out_util: f64,
    /// Scale in when the busiest replica stays at or below this for
    /// `sustain` consecutive samples.
    pub scale_in_util: f64,
    /// Consecutive hot (or idle) samples required before acting.
    pub sustain: u32,
    /// Minimum simulated time between actions.
    pub cooldown_micros: u64,
    pub min_replicas: usize,
    pub max_replicas: usize,
}

impl AutoscalerConfig {
    /// Defaults matched to the flash-crowd experiment: act after 3
    /// sustained samples, 5 s cooldown, busiest-node bands at 85%/25%.
    pub fn paper(min_replicas: usize, max_replicas: usize) -> AutoscalerConfig {
        assert!(min_replicas >= 1, "a fleet keeps at least one replica");
        assert!(max_replicas >= min_replicas, "max below min");
        AutoscalerConfig {
            scale_out_util: 0.85,
            scale_in_util: 0.25,
            sustain: 3,
            cooldown_micros: 5_000_000,
            min_replicas,
            max_replicas,
        }
    }
}

/// Reactive scaling policy over the fleet's utilization time series.
/// Pure state machine: the driver samples the signal at a
/// fixed cadence, calls [`Autoscaler::observe`], and applies whatever
/// action comes back via `add_replica` / `remove_replica`.
#[derive(Debug, Clone)]
pub struct Autoscaler {
    cfg: AutoscalerConfig,
    hot_streak: u32,
    idle_streak: u32,
    last_action_at: Option<u64>,
    decisions: Vec<ScaleDecision>,
}

impl Autoscaler {
    pub fn new(cfg: AutoscalerConfig) -> Autoscaler {
        Autoscaler {
            cfg,
            hot_streak: 0,
            idle_streak: 0,
            last_action_at: None,
            decisions: Vec::new(),
        }
    }

    /// Feeds one sample of the control signal; returns the action to
    /// apply, if any. `busiest_util` is the busiest *live* replica's
    /// utilization over the sample window, `live` the current replica
    /// count.
    pub fn observe(
        &mut self,
        at_micros: u64,
        busiest_util: f64,
        live: usize,
    ) -> Option<ScaleAction> {
        let hot = busiest_util >= self.cfg.scale_out_util;
        let idle = busiest_util <= self.cfg.scale_in_util;
        if hot {
            self.hot_streak += 1;
            self.idle_streak = 0;
        } else if idle {
            self.idle_streak += 1;
            self.hot_streak = 0;
        } else {
            // Inside the hysteresis band: stable, reset both streaks.
            self.hot_streak = 0;
            self.idle_streak = 0;
        }
        if let Some(t) = self.last_action_at {
            if at_micros.saturating_sub(t) < self.cfg.cooldown_micros {
                return None;
            }
        }
        let action = if self.hot_streak >= self.cfg.sustain && live < self.cfg.max_replicas {
            ScaleAction::Out
        } else if self.idle_streak >= self.cfg.sustain && live > self.cfg.min_replicas {
            ScaleAction::In
        } else {
            return None;
        };
        self.hot_streak = 0;
        self.idle_streak = 0;
        self.last_action_at = Some(at_micros);
        self.decisions.push(ScaleDecision {
            at_micros,
            action,
            busiest_util,
            live,
        });
        Some(action)
    }

    /// Every decision taken so far, in order.
    pub fn decisions(&self) -> &[ScaleDecision] {
        &self.decisions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AutoscalerConfig {
        AutoscalerConfig::paper(1, 4)
    }

    #[test]
    fn sustained_heat_scales_out_once_then_cools_down() {
        let mut a = Autoscaler::new(cfg());
        // Two hot samples: below sustain, nothing yet.
        assert_eq!(a.observe(1_000_000, 0.95, 2), None);
        assert_eq!(a.observe(2_000_000, 0.95, 2), None);
        // Third trips the action.
        assert_eq!(a.observe(3_000_000, 0.95, 2), Some(ScaleAction::Out));
        // Still hot, but inside the 5 s cooldown.
        assert_eq!(a.observe(4_000_000, 0.99, 3), None);
        assert_eq!(a.observe(5_000_000, 0.99, 3), None);
        assert_eq!(a.observe(6_000_000, 0.99, 3), None);
        // Cooldown over and the streak re-sustained: scale out again.
        assert_eq!(a.observe(8_100_000, 0.99, 3), Some(ScaleAction::Out));
        assert_eq!(a.decisions().len(), 2);
    }

    #[test]
    fn sustained_idle_scales_in_but_respects_the_floor() {
        let mut a = Autoscaler::new(cfg());
        for t in 1..=2u64 {
            assert_eq!(a.observe(t * 1_000_000, 0.1, 3), None);
        }
        assert_eq!(a.observe(3_000_000, 0.1, 3), Some(ScaleAction::In));
        // At the floor the idle streak never fires.
        let mut floor = Autoscaler::new(cfg());
        for t in 1..=10u64 {
            assert_eq!(floor.observe(t * 10_000_000, 0.0, 1), None);
        }
    }

    #[test]
    fn hysteresis_band_resets_both_streaks() {
        let mut a = Autoscaler::new(cfg());
        assert_eq!(a.observe(1_000_000, 0.95, 2), None);
        assert_eq!(a.observe(2_000_000, 0.95, 2), None);
        // A mid-band sample breaks the streak…
        assert_eq!(a.observe(3_000_000, 0.5, 2), None);
        // …so two more hot samples still aren't enough.
        assert_eq!(a.observe(4_000_000, 0.95, 2), None);
        assert_eq!(a.observe(5_000_000, 0.95, 2), None);
        assert_eq!(a.observe(6_000_000, 0.95, 2), Some(ScaleAction::Out));
    }

    #[test]
    fn max_replicas_caps_scale_out() {
        let mut a = Autoscaler::new(cfg());
        for t in 1..=6u64 {
            assert_eq!(a.observe(t * 1_000_000, 0.99, 4), None, "at cap");
        }
    }
}
