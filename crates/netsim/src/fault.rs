//! Deterministic fault injection for the delivery paths the paper assumes
//! perfect.
//!
//! Three fault surfaces, all driven by a seeded xoshiro generator so any
//! chaos run replays bit-for-bit from its seed:
//!
//! * [`FaultyChannel`] — a lossy, delaying, duplicating message channel
//!   (the home → proxy invalidation stream). Reordering is emergent:
//!   independently delayed messages overtake each other.
//! * [`OutageSchedule`] — alternating up/down windows for a network link
//!   (the proxy ↔ home path), exponentially distributed like the
//!   simulator's think times.
//! * [`OutageSchedule::crash_times`] — Poisson crash instants for a node.
//!
//! With [`FaultSpec::none`] and no outages the channel is a FIFO queue
//! with fixed latency — zero faults means byte-identical behaviour to a
//! reliable run, which the chaos tests assert.

use crate::units::Time;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fault probabilities and magnitudes for a [`FaultyChannel`].
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// Probability a sent message is silently dropped.
    pub drop_probability: f64,
    /// Probability a message is delivered twice (the copy gets its own
    /// independent delay).
    pub duplicate_probability: f64,
    /// Probability a message is delayed beyond the base latency.
    pub delay_probability: f64,
    /// Maximum extra delay (µs), sampled uniformly in `0..=max`.
    pub max_delay_micros: Time,
    /// Fixed propagation latency every message pays (µs).
    pub base_latency_micros: Time,
}

impl FaultSpec {
    /// No faults: fixed-latency FIFO delivery.
    pub fn none() -> FaultSpec {
        FaultSpec {
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            delay_probability: 0.0,
            max_delay_micros: 0,
            base_latency_micros: 0,
        }
    }

    fn is_none(&self) -> bool {
        self.drop_probability == 0.0
            && self.duplicate_probability == 0.0
            && self.delay_probability == 0.0
    }
}

/// Counters of what the channel did to the traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    pub sent: u64,
    pub dropped: u64,
    pub duplicated: u64,
    pub delayed: u64,
    pub delivered: u64,
}

/// A unidirectional message channel with seeded drop / delay / duplicate
/// faults. `send` timestamps each message with a delivery time; `poll`
/// releases everything due, ordered by `(deliver_at, send sequence)` so a
/// run is a pure function of the seed and the call sequence.
#[derive(Debug, Clone)]
pub struct FaultyChannel<T> {
    spec: FaultSpec,
    rng: StdRng,
    in_flight: Vec<(Time, u64, T)>,
    seq: u64,
    stats: ChannelStats,
}

impl<T: Clone> FaultyChannel<T> {
    pub fn new(seed: u64, spec: FaultSpec) -> FaultyChannel<T> {
        FaultyChannel {
            spec,
            rng: StdRng::seed_from_u64(seed),
            in_flight: Vec::new(),
            seq: 0,
            stats: ChannelStats::default(),
        }
    }

    /// A channel that never misbehaves (and adds no latency).
    pub fn reliable() -> FaultyChannel<T> {
        FaultyChannel::new(0, FaultSpec::none())
    }

    /// Offers a message to the channel at simulated time `now`.
    pub fn send(&mut self, now: Time, msg: T) {
        self.stats.sent += 1;
        // Fault draws happen in a fixed order even when the spec zeroes
        // them out would skip draws — a zero-probability draw consumes no
        // randomness only when the whole spec is fault-free, keeping the
        // no-fault channel trivially deterministic.
        if !self.spec.is_none() {
            if self.rng.gen_bool(self.spec.drop_probability) {
                self.stats.dropped += 1;
                return;
            }
            let deliver_at = self.delivery_time(now);
            if self.rng.gen_bool(self.spec.duplicate_probability) {
                self.stats.duplicated += 1;
                let copy_at = self.delivery_time(now);
                self.enqueue(copy_at, msg.clone());
            }
            self.enqueue(deliver_at, msg);
            return;
        }
        let deliver_at = now.saturating_add(self.spec.base_latency_micros);
        self.enqueue(deliver_at, msg);
    }

    fn delivery_time(&mut self, now: Time) -> Time {
        let mut at = now.saturating_add(self.spec.base_latency_micros);
        if self.spec.max_delay_micros > 0 && self.rng.gen_bool(self.spec.delay_probability) {
            self.stats.delayed += 1;
            at = at.saturating_add(self.rng.gen_range(0..=self.spec.max_delay_micros));
        }
        at
    }

    fn enqueue(&mut self, deliver_at: Time, msg: T) {
        self.in_flight.push((deliver_at, self.seq, msg));
        self.seq += 1;
    }

    /// Releases every message due by `now`, in delivery order.
    pub fn poll(&mut self, now: Time) -> Vec<T> {
        let mut due: Vec<(Time, u64, T)> = Vec::new();
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].0 <= now {
                due.push(self.in_flight.swap_remove(i));
            } else {
                i += 1;
            }
        }
        due.sort_by_key(|&(at, seq, _)| (at, seq));
        self.stats.delivered += due.len() as u64;
        due.into_iter().map(|(_, _, m)| m).collect()
    }

    /// Releases everything still in flight regardless of due time (end of
    /// a run: the stream eventually drains).
    pub fn drain(&mut self) -> Vec<T> {
        self.poll(Time::MAX)
    }

    /// Messages accepted but not yet delivered.
    pub fn pending(&self) -> usize {
        self.in_flight.len()
    }

    pub fn stats(&self) -> ChannelStats {
        self.stats
    }
}

/// Generators for deterministic link-outage windows and node-crash
/// instants.
pub struct OutageSchedule;

impl OutageSchedule {
    /// Alternating up/down windows over `[0, horizon)`: up for an
    /// exponential draw with mean `mean_up_micros`, then down for one with
    /// mean `mean_down_micros`. Returns the down windows as half-open
    /// `(start, end)` pairs, ready for a `HomeLink`-style gate.
    pub fn windows(
        seed: u64,
        horizon: Time,
        mean_up_micros: Time,
        mean_down_micros: Time,
    ) -> Vec<(Time, Time)> {
        assert!(
            mean_up_micros > 0 && mean_down_micros > 0,
            "means must be positive"
        );
        // Domain-separate the streams so one seed drives independent
        // outage / crash schedules.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6F75_7461_6765); // "outage"
        let mut out = Vec::new();
        let mut t = Self::exponential(&mut rng, mean_up_micros);
        while t < horizon {
            let down = Self::exponential(&mut rng, mean_down_micros).max(1);
            let end = t.saturating_add(down).min(horizon);
            out.push((t, end));
            t = end.saturating_add(Self::exponential(&mut rng, mean_up_micros).max(1));
        }
        out
    }

    /// Poisson crash instants over `[0, horizon)` with the given mean
    /// inter-crash interval.
    pub fn crash_times(seed: u64, horizon: Time, mean_interval_micros: Time) -> Vec<Time> {
        assert!(mean_interval_micros > 0, "mean must be positive");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x63_7261_7368); // "crash"
        let mut out = Vec::new();
        let mut t = Self::exponential(&mut rng, mean_interval_micros);
        while t < horizon {
            out.push(t);
            t = t.saturating_add(Self::exponential(&mut rng, mean_interval_micros).max(1));
        }
        out
    }

    /// Samples an exponential duration with the given mean (mirrors the
    /// simulator's think-time sampling).
    fn exponential(rng: &mut StdRng, mean: Time) -> Time {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let t = -(mean as f64) * u.ln();
        t.min(1e15) as Time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{MS, SEC};

    #[test]
    fn reliable_channel_is_fifo_and_lossless() {
        let mut ch: FaultyChannel<u32> = FaultyChannel::reliable();
        for i in 0..10 {
            ch.send(i as Time, i);
        }
        assert_eq!(ch.poll(100), (0..10).collect::<Vec<_>>());
        assert_eq!(ch.stats().dropped, 0);
        assert_eq!(ch.stats().delivered, 10);
        assert_eq!(ch.pending(), 0);
    }

    #[test]
    fn base_latency_defers_delivery() {
        let mut ch: FaultyChannel<u32> = FaultyChannel::new(
            1,
            FaultSpec {
                base_latency_micros: 5 * MS,
                ..FaultSpec::none()
            },
        );
        ch.send(0, 7);
        assert!(ch.poll(4 * MS).is_empty());
        assert_eq!(ch.poll(5 * MS), vec![7]);
    }

    #[test]
    fn drops_duplicates_and_delays_happen_and_replay_per_seed() {
        let spec = FaultSpec {
            drop_probability: 0.2,
            duplicate_probability: 0.2,
            delay_probability: 0.5,
            max_delay_micros: 50 * MS,
            base_latency_micros: MS,
        };
        let run = |seed: u64| {
            let mut ch: FaultyChannel<u32> = FaultyChannel::new(seed, spec.clone());
            for i in 0..500 {
                ch.send((i as Time) * MS, i);
            }
            (ch.drain(), ch.stats())
        };
        let (a, sa) = run(42);
        let (b, sb) = run(42);
        assert_eq!(a, b, "same seed, same traffic");
        assert_eq!(sa, sb);
        assert!(sa.dropped > 0 && sa.duplicated > 0 && sa.delayed > 0);
        assert_eq!(
            sa.delivered,
            sa.sent - sa.dropped + sa.duplicated,
            "every non-dropped message (plus copies) eventually arrives"
        );
        let (c, _) = run(43);
        assert_ne!(a, c, "different seed, different schedule");
    }

    #[test]
    fn random_delays_reorder_messages() {
        let spec = FaultSpec {
            delay_probability: 0.5,
            max_delay_micros: 100 * MS,
            base_latency_micros: MS,
            ..FaultSpec::none()
        };
        let mut ch: FaultyChannel<u32> = FaultyChannel::new(9, spec);
        for i in 0..200 {
            ch.send((i as Time) * MS, i);
        }
        let order = ch.drain();
        assert_eq!(order.len(), 200);
        assert!(
            order.windows(2).any(|w| w[0] > w[1]),
            "independent delays must produce at least one overtake"
        );
    }

    #[test]
    fn outage_windows_are_ordered_and_bounded() {
        let horizon = 300 * SEC;
        let w = OutageSchedule::windows(5, horizon, 20 * SEC, 2 * SEC);
        assert!(!w.is_empty());
        for &(s, e) in &w {
            assert!(s < e && e <= horizon);
        }
        for pair in w.windows(2) {
            assert!(pair[0].1 < pair[1].0, "windows are disjoint and ordered");
        }
        assert_eq!(w, OutageSchedule::windows(5, horizon, 20 * SEC, 2 * SEC));
        assert_ne!(w, OutageSchedule::windows(6, horizon, 20 * SEC, 2 * SEC));
    }

    #[test]
    fn crash_times_are_ordered_and_deterministic() {
        let horizon = 600 * SEC;
        let c = OutageSchedule::crash_times(3, horizon, 60 * SEC);
        assert!(!c.is_empty());
        assert!(c.windows(2).all(|w| w[0] < w[1]));
        assert!(c.iter().all(|&t| t < horizon));
        assert_eq!(c, OutageSchedule::crash_times(3, horizon, 60 * SEC));
    }
}
