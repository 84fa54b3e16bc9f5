//! Queueing primitives: FIFO service centers and store-and-forward links.
//!
//! Centers and pipes are unbounded by default (paper semantics: every
//! offered job eventually serves, latency grows without limit past
//! saturation). The overload-protection layer instead constructs them
//! with a [`QueueCap`] and offers work through [`ServiceCenter::try_serve`]
//! / [`Pipe::try_send`], which reject — returning [`Rejected`] — when the
//! jobs-in-system count or the projected queueing wait exceeds the cap.
//! Rejection leaves the center untouched, so shed load costs nothing.

use crate::units::{transfer_time, Time};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Admission cap for a bounded [`ServiceCenter`] or [`Pipe`]. A job is
/// rejected when *either* limit would be exceeded by accepting it; a
/// limit of `None` means unbounded in that dimension.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueCap {
    /// Maximum jobs in system (queued + in service) at the arrival time,
    /// counting the candidate job itself.
    pub max_in_system: Option<usize>,
    /// Maximum projected queueing delay (µs) the candidate would incur
    /// before starting service.
    pub max_wait: Option<Time>,
}

impl QueueCap {
    /// No limits — `try_serve` behaves exactly like `serve`.
    pub fn unbounded() -> QueueCap {
        QueueCap::default()
    }

    /// Cap on projected queueing delay only.
    pub fn max_wait(wait: Time) -> QueueCap {
        QueueCap {
            max_in_system: None,
            max_wait: Some(wait),
        }
    }

    /// Cap on jobs in system only.
    pub fn max_in_system(depth: usize) -> QueueCap {
        QueueCap {
            max_in_system: Some(depth),
            max_wait: None,
        }
    }
}

/// A job turned away by a bounded center or pipe: the queue state that
/// caused the rejection, for telemetry and error chaining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejected {
    /// Jobs in system (queued + in service) at the arrival instant,
    /// counting the rejected job itself.
    pub in_system: usize,
    /// Queueing delay (µs) the job would have incurred before service.
    pub projected_wait: Time,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rejected by bounded queue: {} in system, projected wait {}us",
            self.in_system, self.projected_wait
        )
    }
}

impl std::error::Error for Rejected {}

/// Timing of one job through a [`ServiceCenter`]: for a job arriving at
/// `t`, `start - t` is its queueing delay and `done - start` its service
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Served {
    pub start: Time,
    pub done: Time,
}

/// A FIFO service center with `c` identical servers (virtual-time
/// semantics: jobs are offered in nondecreasing arrival order by the event
/// loop, each starts on the earliest-free server).
#[derive(Debug, Clone)]
pub struct ServiceCenter {
    servers: Vec<Time>,
    busy_total: Time,
    jobs: u64,
    cap: QueueCap,
    rejections: u64,
    /// Completion times of accepted jobs still in the system, pruned
    /// lazily against the (nondecreasing) arrival clock.
    pending: BinaryHeap<Reverse<Time>>,
}

impl ServiceCenter {
    /// Creates an unbounded center with `servers ≥ 1` servers.
    pub fn new(servers: usize) -> ServiceCenter {
        ServiceCenter::bounded(servers, QueueCap::unbounded())
    }

    /// Creates a center whose [`ServiceCenter::try_serve`] enforces `cap`.
    pub fn bounded(servers: usize, cap: QueueCap) -> ServiceCenter {
        assert!(servers >= 1, "a service center needs at least one server");
        ServiceCenter {
            servers: vec![0; servers],
            busy_total: 0,
            jobs: 0,
            cap,
            rejections: 0,
            pending: BinaryHeap::new(),
        }
    }

    /// Offers a job arriving at `t` with service demand `demand`; returns
    /// its completion time.
    pub fn serve(&mut self, t: Time, demand: Time) -> Time {
        self.serve_traced(t, demand).done
    }

    /// [`ServiceCenter::serve`], also reporting when service *started* —
    /// the gap between arrival and start is the queueing delay, which
    /// telemetry tracks separately from the service time.
    pub fn serve_traced(&mut self, t: Time, demand: Time) -> Served {
        self.prune(t);
        let (idx, &free_at) = self
            .servers
            .iter()
            .enumerate()
            .min_by_key(|(_, f)| **f)
            .expect("at least one server");
        let start = t.max(free_at);
        let done = start + demand;
        self.servers[idx] = done;
        self.busy_total += demand;
        self.jobs += 1;
        self.pending.push(Reverse(done));
        Served { start, done }
    }

    /// Bounded admission: serves the job if the center's [`QueueCap`]
    /// allows it, otherwise rejects without mutating any queue state.
    pub fn try_serve(&mut self, t: Time, demand: Time) -> Result<Time, Rejected> {
        self.try_serve_traced(t, demand).map(|s| s.done)
    }

    /// [`ServiceCenter::try_serve`], reporting service start on success.
    pub fn try_serve_traced(&mut self, t: Time, demand: Time) -> Result<Served, Rejected> {
        self.prune(t);
        let in_system = self.pending.len() + 1;
        let projected_wait = self.projected_wait(t);
        let too_deep = self.cap.max_in_system.is_some_and(|cap| in_system > cap);
        let too_late = self.cap.max_wait.is_some_and(|cap| projected_wait > cap);
        if too_deep || too_late {
            self.rejections += 1;
            return Err(Rejected {
                in_system,
                projected_wait,
            });
        }
        Ok(self.serve_traced(t, demand))
    }

    /// The queueing delay a job arriving at `t` would incur before
    /// starting service (0 when a server is idle).
    pub fn projected_wait(&self, t: Time) -> Time {
        let earliest_free = self.servers.iter().copied().min().unwrap_or(0);
        earliest_free.saturating_sub(t)
    }

    /// Jobs in system (queued + in service) as of time `t`. Arrival
    /// times must be offered nondecreasing, same as `serve`.
    pub fn in_system(&mut self, t: Time) -> usize {
        self.prune(t);
        self.pending.len()
    }

    /// Jobs turned away by [`ServiceCenter::try_serve`].
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    fn prune(&mut self, t: Time) {
        while self.pending.peek().is_some_and(|Reverse(done)| *done <= t) {
            self.pending.pop();
        }
    }

    /// Total busy time accumulated across servers.
    pub fn busy_total(&self) -> Time {
        self.busy_total
    }

    /// Utilization over a horizon, divided by server count — busy time
    /// per server per unit time, so it stays ≤ 1.0 for any `c ≥ 1` as
    /// long as the horizon covers the accumulated work.
    pub fn utilization(&self, horizon: Time) -> f64 {
        if horizon == 0 {
            return 0.0;
        }
        self.busy_total as f64 / (horizon as f64 * self.servers.len() as f64)
    }

    pub fn jobs_served(&self) -> u64 {
        self.jobs
    }
}

/// A simplex network pipe: propagation latency plus a shared serialization
/// queue at the given bandwidth. `bits_per_sec = 0` models an unconstrained
/// (latency-only) pipe.
#[derive(Debug, Clone)]
pub struct Pipe {
    latency: Time,
    bits_per_sec: u64,
    queue: ServiceCenter,
}

impl Pipe {
    pub fn new(latency: Time, bits_per_sec: u64) -> Pipe {
        Pipe::bounded(latency, bits_per_sec, QueueCap::unbounded())
    }

    /// A pipe whose [`Pipe::try_send`] enforces `cap` on the
    /// serialization queue.
    pub fn bounded(latency: Time, bits_per_sec: u64, cap: QueueCap) -> Pipe {
        Pipe {
            latency,
            bits_per_sec,
            queue: ServiceCenter::bounded(1, cap),
        }
    }

    /// Sends `bytes` entering the pipe at `t`; returns delivery time.
    pub fn send(&mut self, t: Time, bytes: u64) -> Time {
        self.send_traced(t, bytes).0
    }

    /// [`Pipe::send`], also reporting the queueing delay the packet spent
    /// waiting behind earlier serializations.
    pub fn send_traced(&mut self, t: Time, bytes: u64) -> (Time, Time) {
        let served = self
            .queue
            .serve_traced(t, transfer_time(bytes, self.bits_per_sec));
        (served.done + self.latency, served.start - t)
    }

    /// Bounded admission: delivers the packet if the serialization
    /// queue's [`QueueCap`] allows it, otherwise rejects without
    /// mutating the queue.
    pub fn try_send(&mut self, t: Time, bytes: u64) -> Result<Time, Rejected> {
        let served = self
            .queue
            .try_serve_traced(t, transfer_time(bytes, self.bits_per_sec))?;
        Ok(served.done + self.latency)
    }

    /// The serialization-queue delay a packet entering at `t` would see.
    pub fn projected_wait(&self, t: Time) -> Time {
        self.queue.projected_wait(t)
    }

    /// Packets turned away by [`Pipe::try_send`].
    pub fn rejections(&self) -> u64 {
        self.queue.rejections()
    }

    pub fn utilization(&self, horizon: Time) -> f64 {
        self.queue.utilization(horizon)
    }
}

/// A full-duplex link: independent pipes in each direction.
#[derive(Debug, Clone)]
pub struct DuplexLink {
    pub up: Pipe,
    pub down: Pipe,
}

impl DuplexLink {
    pub fn new(latency: Time, bits_per_sec: u64) -> DuplexLink {
        DuplexLink {
            up: Pipe::new(latency, bits_per_sec),
            down: Pipe::new(latency, bits_per_sec),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::{MS, SEC};

    #[test]
    fn single_server_fifo_queues() {
        let mut c = ServiceCenter::new(1);
        assert_eq!(c.serve(0, 10), 10);
        assert_eq!(c.serve(0, 10), 20, "second job waits");
        assert_eq!(c.serve(100, 10), 110, "idle gap");
        assert_eq!(c.busy_total(), 30);
        assert_eq!(c.jobs_served(), 3);
    }

    #[test]
    fn multi_server_parallelism() {
        let mut c = ServiceCenter::new(2);
        assert_eq!(c.serve(0, 10), 10);
        assert_eq!(c.serve(0, 10), 10, "second server takes it");
        assert_eq!(c.serve(0, 10), 20, "third job waits for a server");
    }

    #[test]
    fn utilization_accounts_servers() {
        let mut c = ServiceCenter::new(2);
        c.serve(0, SEC);
        assert!((c.utilization(SEC) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn serve_traced_separates_wait_from_service() {
        let mut c = ServiceCenter::new(1);
        let first = c.serve_traced(0, 10);
        assert_eq!((first.start, first.done), (0, 10));
        // Second job arrives at 4, waits 6, serves 10.
        let second = c.serve_traced(4, 10);
        assert_eq!(second.start - 4, 6, "queueing delay");
        assert_eq!(second.done - second.start, 10, "service time");
    }

    #[test]
    fn send_traced_reports_queue_wait() {
        // 2 Mbps: 2500 bytes = 10 ms serialization.
        let mut p = Pipe::new(100 * MS, 2_000_000);
        let (done1, wait1) = p.send_traced(0, 2_500);
        assert_eq!((done1, wait1), (110 * MS, 0));
        let (done2, wait2) = p.send_traced(0, 2_500);
        assert_eq!((done2, wait2), (120 * MS, 10 * MS));
    }

    #[test]
    fn pipe_adds_latency_and_serialization() {
        // 2 Mbps, 100 ms latency: 2500 bytes = 10 ms serialization.
        let mut p = Pipe::new(100 * MS, 2_000_000);
        assert_eq!(p.send(0, 2_500), 110 * MS);
        // Next packet queues behind the first's serialization (not its
        // propagation).
        assert_eq!(p.send(0, 2_500), 120 * MS);
    }

    #[test]
    fn latency_only_pipe() {
        let mut p = Pipe::new(5 * MS, 0);
        assert_eq!(p.send(7, 1_000_000), 7 + 5 * MS);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        ServiceCenter::new(0);
    }

    #[test]
    fn utilization_stays_below_one_under_overload() {
        // Satellite regression: the old doc comment claimed utilization
        // "can exceed 1 per-center when c > 1" — it cannot, because busy
        // time is divided by server count. Saturate a multi-server center
        // far past capacity and pin the bound.
        for servers in [1usize, 2, 3, 8] {
            let mut c = ServiceCenter::new(servers);
            let mut last_done = 0;
            for i in 0..1_000u64 {
                // Arrivals far faster than service: heavy overload.
                last_done = last_done.max(c.serve(i, 100 * MS));
            }
            let u = c.utilization(last_done);
            assert!(
                u <= 1.0 + 1e-12,
                "{servers}-server center reported utilization {u} > 1"
            );
            assert!(u > 0.9, "overloaded center should be near-saturated");
        }
    }

    #[test]
    fn try_serve_rejects_past_wait_cap() {
        let mut c = ServiceCenter::bounded(1, QueueCap::max_wait(15));
        assert_eq!(c.try_serve(0, 10), Ok(10));
        // Second job would wait 10 ≤ 15: admitted, done at 20.
        assert_eq!(c.try_serve(0, 10), Ok(20));
        // Third would wait 20 > 15: rejected, state untouched.
        let r = c.try_serve(0, 10).unwrap_err();
        assert_eq!(r.projected_wait, 20);
        assert_eq!(r.in_system, 3);
        assert_eq!(c.rejections(), 1);
        assert_eq!(c.jobs_served(), 2);
        // Once the backlog drains the cap readmits.
        assert_eq!(c.try_serve(21, 10), Ok(31));
    }

    #[test]
    fn try_serve_rejects_past_depth_cap() {
        let mut c = ServiceCenter::bounded(1, QueueCap::max_in_system(2));
        assert!(c.try_serve(0, 10).is_ok());
        assert!(c.try_serve(0, 10).is_ok());
        assert!(c.try_serve(0, 10).is_err(), "third of cap-2 rejected");
        assert_eq!(c.in_system(0), 2);
        // At t=10 the first job has left the system: room again.
        assert!(c.try_serve(10, 10).is_ok());
        assert_eq!(c.rejections(), 1);
    }

    #[test]
    fn rejection_leaves_queue_untouched() {
        let mut c = ServiceCenter::bounded(1, QueueCap::max_wait(0));
        assert!(c.try_serve(0, 10).is_ok());
        let busy = c.busy_total();
        assert!(c.try_serve(5, 10).is_err());
        assert_eq!(c.busy_total(), busy, "rejected job burned no capacity");
        // A later arrival sees the same completion it would have anyway.
        assert_eq!(c.try_serve(10, 10), Ok(20));
    }

    #[test]
    fn unbounded_try_serve_matches_serve() {
        let mut a = ServiceCenter::new(2);
        let mut b = ServiceCenter::new(2);
        for i in 0..50u64 {
            let t = i * 3;
            assert_eq!(b.try_serve(t, 10), Ok(a.serve(t, 10)));
        }
        assert_eq!(b.rejections(), 0);
    }

    #[test]
    fn bounded_pipe_sheds_packets() {
        // 2 Mbps: 2500 bytes = 10 ms serialization; wait cap 10 ms.
        let mut p = Pipe::bounded(100 * MS, 2_000_000, QueueCap::max_wait(10 * MS));
        assert_eq!(p.try_send(0, 2_500), Ok(110 * MS));
        assert_eq!(p.try_send(0, 2_500), Ok(120 * MS), "waits exactly the cap");
        let r = p.try_send(0, 2_500).unwrap_err();
        assert_eq!(r.projected_wait, 20 * MS);
        assert_eq!(p.rejections(), 1);
    }

    #[test]
    fn projected_wait_tracks_backlog() {
        let mut c = ServiceCenter::new(1);
        assert_eq!(c.projected_wait(0), 0);
        c.serve(0, 40);
        assert_eq!(c.projected_wait(10), 30);
        assert_eq!(c.projected_wait(50), 0, "saturates at zero once drained");
    }
}
