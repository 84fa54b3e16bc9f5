//! Elastic fleet membership: the [`Autoscaler`] policy that drives live
//! joins and leaves.
//!
//! The membership *mechanics* live in [`crate::fleet`] (they need the
//! fleet's private fields); this module holds the pure autoscaling
//! policy, deliberately independent of the fleet so the simulation
//! driver can feed it whatever utilization signal it measures.
//!
//! ## Join and leave (see `DESIGN.md` §14)
//!
//! No cache state moves between replicas: a cache is soft state, kept
//! fresh by invalidation, not by warmth.
//!
//! * **Join:** the joiner handshakes at every stream's tip
//!   ([`crate::Home::tips`]) before its pipe joins the fanout, so every
//!   later commit reaches it on that pipe; then the routing ring swaps
//!   in one assignment. It starts empty, which is correct for the
//!   reason [`crate::Dssp::restart`] is. The donors keep the entries of
//!   the arcs they lose: they still receive every fanout batch, so a
//!   later leave that hands an arc back finds them fresh.
//! * **Leave:** the fanout buffer ships, every due batch delivers, and
//!   the leaver's pipe drains to the end and applies, so the provenance
//!   ledger's conservation law stays balanced; then the ring swaps and
//!   the replica goes with its cache. The new owners refill on miss.

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
