//! Replicated home tier: one primary plus N standbys shipping WAL
//! records, with lease-based failure detection, deterministic standby
//! promotion, and epoch fencing.
//!
//! The home server is the single point the whole DSSP architecture
//! leans on: proxies cache *because* the master copy is authoritative,
//! and the invalidation stream is meaningful *because* epochs are
//! issued by exactly one writer. This module makes that single point
//! crash-survivable without weakening either property:
//!
//! * **Log shipping.** The primary streams its WAL
//!   ([`scs_storage::Wal`]) to each standby over a seeded
//!   [`FaultyChannel`] — drops and delays re-ship from the log, so the
//!   channel needs no reliability of its own. A standby that has fallen
//!   behind a compacted log is resynced with a full-state
//!   [`WalPayload::Checkpoint`] record instead.
//! * **Two commit modes.** [`ReplicationMode::Async`] acks the client
//!   as soon as the primary applies — a failover may lose a *bounded,
//!   accounted* tail of acked writes. [`ReplicationMode::SyncQuorum`]
//!   acks only once a majority of the cluster holds the record — no
//!   acknowledged commit is ever lost, which promotion enforces by
//!   requiring a majority of standbys alive (quorum overlap guarantees
//!   the most-caught-up survivor has every acked epoch).
//! * **Lease failover.** Standbys promote only after the primary has
//!   been silent for a full lease, and promotion picks the
//!   most-caught-up alive standby (ties to the lowest id) — fully
//!   deterministic under a seed.
//! * **Epoch fencing.** Every shipped record carries the primary's
//!   **term**; promotion bumps the term *authoritatively* — every
//!   reachable standby adopts it as part of the election, and a
//!   standby revived after sleeping through an election rejoins the
//!   current term (shedding any suffix the dead stream issued beyond
//!   the promoted tip) before accepting another record — so a deposed
//!   primary that wakes up and keeps writing ("zombie") finds its
//!   records strictly stale at every standby, no matter how the pipes
//!   reorder delivery. The promoted primary opens with a **barrier**
//!   ([`HomeServer::advance_epoch_to`]): epochs the dead primary issued
//!   but never replicated become a permanent gap in the invalidation
//!   stream — proxies detect it like any lost batch and recovery-flush
//!   (PR 2), so a failover needs no proxy-side special case.

use crate::delivery::InvalidationMsg;
use crate::home::{Home, HomeServer};
use scs_netsim::{FaultSpec, FaultyChannel};
use scs_sqlkit::{Query, Update};
use scs_storage::{Database, QueryResult, StorageError, UpdateEffect, Wal, WalPayload, WalRecord};
use std::collections::BTreeMap;

/// When a write is acknowledged to the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationMode {
    /// Ack on primary apply; replication trails behind. Failover may
    /// lose the unreplicated tail — bounded and accounted, never
    /// silent.
    Async,
    /// Ack only once a majority of the cluster (primary + standbys)
    /// holds the record. No acked write is ever lost across failover.
    SyncQuorum,
}

impl ReplicationMode {
    pub fn name(&self) -> &'static str {
        match self {
            ReplicationMode::Async => "async",
            ReplicationMode::SyncQuorum => "sync_quorum",
        }
    }
}

/// Shape of a replicated home group.
#[derive(Debug, Clone)]
pub struct ReplicationConfig {
    pub mode: ReplicationMode,
    /// Standby count (cluster size is `standbys + 1`).
    pub standbys: usize,
    /// Primary heartbeat / re-ship cadence (µs).
    pub heartbeat_micros: u64,
    /// Failure-detection lease: a standby promotes only after the
    /// primary has been silent this long (µs).
    pub lease_micros: u64,
    /// Fault model for every ship pipe (drops/dups/delays re-ship from
    /// the WAL, so none of them threaten durability).
    pub ship_faults: FaultSpec,
    /// Seed for the ship pipes (domain-separated per standby).
    pub seed: u64,
    /// How long a sync-quorum commit waits for its majority before
    /// giving up (the write stays applied but **unacked**) (µs).
    pub sync_timeout_micros: u64,
    /// Max records shipped to one standby per ship tick.
    pub ship_batch: usize,
}

impl ReplicationConfig {
    /// A single-node "group": no standbys, async acks, nothing to ship.
    /// [`HomeGroup::single`] built on this is an exact behavioural
    /// passthrough to a bare [`HomeServer`].
    pub fn single() -> ReplicationConfig {
        ReplicationConfig {
            mode: ReplicationMode::Async,
            standbys: 0,
            heartbeat_micros: 5_000,
            lease_micros: 50_000,
            ship_faults: FaultSpec::none(),
            seed: 1,
            sync_timeout_micros: 20_000,
            ship_batch: 64,
        }
    }

    /// A replicated group with `standbys` standbys in `mode`, reliable
    /// ship pipes. Tests and harnesses override the fault spec.
    pub fn group(mode: ReplicationMode, standbys: usize) -> ReplicationConfig {
        ReplicationConfig {
            mode,
            standbys,
            ..ReplicationConfig::single()
        }
    }

    /// Majority of the whole cluster (primary + standbys).
    pub fn majority(&self) -> usize {
        self.standbys.div_ceil(2) + 1
    }
}

/// One log record on the wire, fenced by the term of the primary that
/// shipped it.
#[derive(Debug, Clone)]
pub struct ShipMsg {
    pub term: u64,
    pub record: WalRecord,
}

/// A warm standby: a WAL replica fed by its ship pipe.
///
/// Ingest is idempotent and order-tolerant: records at or below the
/// applied tip are duplicates (dropped), out-of-order records wait in a
/// stash until the run is contiguous, and a full-state checkpoint
/// ahead of the tip *fast-forwards* the replica (snapshot resync — how
/// a standby crosses a compacted-away stretch of the log, and how a
/// rejoining node catches up from nothing).
#[derive(Debug)]
pub struct Standby {
    id: usize,
    /// Highest primary term this standby has accepted a record from.
    term: u64,
    alive: bool,
    wal: Wal,
    pipe: FaultyChannel<ShipMsg>,
    /// Out-of-order arrivals waiting for their predecessors.
    stash: BTreeMap<u64, WalRecord>,
    /// Records rejected for carrying a stale term (zombie-primary
    /// writes hitting the fence).
    fenced_records: u64,
    /// Set on a rejoiner whose local state is untrusted (divergent or
    /// empty): only a full-state checkpoint may seed it — statement
    /// records stash until the snapshot lands.
    needs_snapshot: bool,
    /// Full-state fast-forwards accepted (snapshot resyncs).
    snapshot_installs: u64,
    /// Ship-pipe send cursor bookkeeping (primary side): the tip epoch
    /// last shipped and when, to avoid re-shipping a stable window
    /// more often than the heartbeat.
    last_ship_tip: u64,
    last_ship_at: u64,
}

impl Standby {
    fn new(
        id: usize,
        snapshot: Database,
        epoch: u64,
        term: u64,
        pipe: FaultyChannel<ShipMsg>,
    ) -> Standby {
        Standby {
            id,
            term,
            alive: true,
            wal: Wal::new(snapshot, epoch),
            pipe,
            stash: BTreeMap::new(),
            fenced_records: 0,
            needs_snapshot: false,
            snapshot_installs: 0,
            last_ship_tip: epoch,
            last_ship_at: 0,
        }
    }

    pub fn id(&self) -> usize {
        self.id
    }

    /// The contiguous replication tip: every epoch at or below this is
    /// durably held here.
    pub fn applied(&self) -> u64 {
        self.wal.last_epoch()
    }

    pub fn term(&self) -> u64 {
        self.term
    }

    pub fn fenced_records(&self) -> u64 {
        self.fenced_records
    }

    pub fn snapshot_installs(&self) -> u64 {
        self.snapshot_installs
    }

    /// Applies one delivered ship message. Returns `true` if the
    /// record advanced (or stashed toward) the replica, `false` if it
    /// was fenced or a duplicate.
    fn ingest(&mut self, msg: ShipMsg) -> bool {
        if msg.term < self.term {
            // A deposed primary's write: the fence holds. Promotion
            // bumps every reachable standby's term as part of the
            // election itself (see `HomeGroup::try_promote`), so a
            // zombie's records are *strictly* stale here from the
            // instant a new primary exists — delivery order cannot
            // race the fence into an equal-term window.
            self.fenced_records += 1;
            return false;
        }
        if msg.term > self.term {
            // Defense in depth: first contact from a newer primary
            // than this replica has witnessed (promotion, revive, and
            // rejoin normally bump terms before any such record
            // flows). Stale speculative arrivals die with the old
            // term, and a local suffix the new stream re-issues is
            // divergent — a checkpoint re-bases over it; a statement
            // forces a snapshot resync.
            self.term = msg.term;
            self.stash.clear();
            if msg.record.epoch <= self.applied() {
                if let WalPayload::Checkpoint(state) = &msg.record.payload {
                    self.wal = Wal::new(state.clone(), msg.record.epoch);
                    self.needs_snapshot = false;
                    self.snapshot_installs += 1;
                } else {
                    self.needs_snapshot = true;
                }
                return true;
            }
        }
        let epoch = msg.record.epoch;
        if self.needs_snapshot {
            // Untrusted local state: only a full-state image may seed
            // the replica; everything else waits in the stash.
            if let WalPayload::Checkpoint(state) = &msg.record.payload {
                self.wal = Wal::new(state.clone(), epoch);
                self.stash = self.stash.split_off(&(epoch + 1));
                self.needs_snapshot = false;
                self.snapshot_installs += 1;
                self.drain_stash();
            } else {
                self.stash.insert(epoch, msg.record);
            }
            return true;
        }
        if epoch <= self.applied() {
            return false; // duplicate (drop/dup channel or re-ship)
        }
        if epoch > self.applied() + 1 {
            if let WalPayload::Checkpoint(state) = &msg.record.payload {
                // Fast-forward: install the full state as a new base.
                self.wal = Wal::new(state.clone(), epoch);
                self.stash = self.stash.split_off(&(epoch + 1));
                self.snapshot_installs += 1;
                self.drain_stash();
                return true;
            }
            self.stash.insert(epoch, msg.record);
            return true;
        }
        self.wal.append(msg.record);
        self.drain_stash();
        true
    }

    fn drain_stash(&mut self) {
        while let Some(r) = self.stash.remove(&(self.applied() + 1)) {
            self.wal.append(r);
        }
        // Anything the tip has passed is a duplicate; drop it.
        self.stash = self.stash.split_off(&(self.applied() + 1));
    }
}

/// A deposed primary still running on a stale term (network partition,
/// not crash): its writes must bounce off the fence.
#[derive(Debug)]
pub struct Zombie {
    pub id: usize,
    pub term: u64,
    pub server: HomeServer,
}

/// Why [`HomeGroup::partition_primary`], [`HomeGroup::zombie_write`],
/// [`crate::ProxyFleet::restart_proxy`] or
/// [`crate::ProxyFleet::remove_replica`] refused to inject its fault or
/// change; the tier and the fleet are left as they were.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionRefused {
    /// The tier has no primary to crash or partition (it is down).
    NoPrimary,
    /// A partitioned primary is still outstanding; rejoin it first.
    PartitionOutstanding,
    /// No partitioned primary exists to write through.
    NoZombie,
    /// No live replica has the named stable id.
    NoReplica,
    /// The named replica is the fleet's last; a fleet keeps one.
    LastReplica,
}

/// The client-visible outcome of one write's replication step.
#[derive(Debug, Clone, Copy)]
pub struct CommitAck {
    /// Whether the write is acknowledged under the group's mode.
    /// Async: always. Sync-quorum: only once a majority held it;
    /// `false` means the write is applied but the client saw a
    /// timeout, so losing it later violates nothing.
    pub acked: bool,
    /// The epoch the write landed at.
    pub epoch: u64,
    /// Simulated wait for the quorum (0 in async mode).
    pub wait_micros: u64,
}

/// The full account of one failover, kept for the durability oracle
/// and the bench report.
#[derive(Debug, Clone, Copy)]
pub struct FailoverRecord {
    pub at_micros: u64,
    pub from_primary: usize,
    pub to_primary: usize,
    pub old_term: u64,
    pub new_term: u64,
    /// The old stream's tip: the highest epoch any primary had issued.
    pub old_tip: u64,
    /// The promoted standby's replication tip at promotion.
    pub promoted_applied: u64,
    /// The epoch the new primary opened with (`old_tip + 1`) — the
    /// permanent gap proxies detect.
    pub barrier_epoch: u64,
    /// Writes lost: epochs `(promoted_applied, old_tip]`.
    pub lost_records: u64,
    /// Of those, how many had been **acked** to a client. Must be 0 in
    /// sync-quorum mode — the per-mode durability oracle.
    pub lost_acked: u64,
    /// How long the tier was down before this promotion (µs).
    pub unavailable_micros: u64,
}

/// A replicated home tier behind the same [`Home`] surface a bare
/// [`HomeServer`] offers, plus crash/partition/promotion machinery.
///
/// [`HomeGroup::single`] (0 standbys) is an exact passthrough; every
/// existing single-home call site keeps its behaviour byte-identical.
#[derive(Debug)]
pub struct HomeGroup {
    cfg: ReplicationConfig,
    /// The current primary; `None` while the tier is down (crashed or
    /// partitioned away, promotion pending).
    primary: Option<HomeServer>,
    primary_id: usize,
    /// Fencing term: bumped by every promotion.
    term: u64,
    /// Highest epoch any primary has issued (survives the primary's
    /// death; promotion barriers build on it).
    high_water: u64,
    /// Highest client-acked epoch. Prefix-closed: log shipping is
    /// prefix-ordered, so one number suffices.
    acked_epoch: u64,
    standbys: Vec<Standby>,
    now: u64,
    last_heartbeat: u64,
    /// Set while the tier is down; cleared (and accounted) on
    /// promotion.
    unavailable_since: Option<u64>,
    /// A partitioned-away old primary, still live on a stale term.
    zombie: Option<Zombie>,
    /// Durable logs of crashed primaries awaiting rejoin, oldest
    /// first, keyed by node id — a double failover can strand two
    /// un-rejoined logs at once.
    crashed: Vec<(usize, Wal)>,
    failovers: Vec<FailoverRecord>,
    /// Sync-quorum commits that timed out (applied but unacked).
    unacked_commits: u64,
}

impl HomeGroup {
    /// Wraps `primary` with `cfg.standbys` warm standbys, each seeded
    /// from the primary's current state (epoch-aligned snapshot).
    pub fn new(primary: HomeServer, cfg: ReplicationConfig) -> HomeGroup {
        let epoch = primary.epoch();
        let standbys = (1..=cfg.standbys)
            .map(|id| {
                let pipe = FaultyChannel::new(
                    cfg.seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    cfg.ship_faults.clone(),
                );
                Standby::new(id, primary.database().clone(), epoch, 0, pipe)
            })
            .collect();
        HomeGroup {
            cfg,
            primary: Some(primary),
            primary_id: 0,
            term: 0,
            high_water: epoch,
            acked_epoch: epoch,
            standbys,
            now: 0,
            last_heartbeat: 0,
            unavailable_since: None,
            zombie: None,
            crashed: Vec::new(),
            failovers: Vec::new(),
            unacked_commits: 0,
        }
    }

    /// A single-node group: an exact passthrough to the wrapped
    /// server. Never fails over (there is nothing to promote).
    pub fn single(primary: HomeServer) -> HomeGroup {
        HomeGroup::new(primary, ReplicationConfig::single())
    }

    pub fn mode(&self) -> ReplicationMode {
        self.cfg.mode
    }

    /// Whether the tier currently has a live primary.
    pub fn is_up(&self) -> bool {
        self.primary.is_some()
    }

    /// The live primary. Panics while the tier is down — callers on
    /// the fault-tolerant path check [`HomeGroup::is_up`] first.
    pub fn primary(&self) -> &HomeServer {
        self.primary.as_ref().expect("home tier is down")
    }

    pub fn primary_mut(&mut self) -> &mut HomeServer {
        self.primary.as_mut().expect("home tier is down")
    }

    /// The group's update epoch: the primary's when up, else the
    /// stream's high-water mark.
    pub fn epoch(&self) -> u64 {
        self.primary
            .as_ref()
            .map(|p| p.epoch())
            .unwrap_or(self.high_water)
    }

    pub fn standbys(&self) -> &[Standby] {
        &self.standbys
    }

    pub fn failovers(&self) -> &[FailoverRecord] {
        &self.failovers
    }

    /// Total zombie-primary records bounced off the term fence.
    pub fn fenced_total(&self) -> u64 {
        self.standbys.iter().map(|s| s.fenced_records).sum()
    }

    /// Advances the group clock: heartbeats, ships outstanding log
    /// records, pumps the pipes, and — when the primary has been
    /// silent past the lease — promotes. Returns the failover record
    /// if a promotion happened on this tick.
    pub fn tick(&mut self, now: u64) -> Option<FailoverRecord> {
        self.now = now;
        if let Some(p) = self.primary.as_ref() {
            self.high_water = self.high_water.max(p.epoch());
            self.last_heartbeat = now;
        }
        self.ship_outstanding(now);
        self.pump(now);
        if self.primary.is_none()
            && now.saturating_sub(self.last_heartbeat) >= self.cfg.lease_micros
        {
            return self.try_promote(now);
        }
        None
    }

    // ---- replication machinery -------------------------------------

    /// Ships each alive standby what it is missing: WAL records when
    /// the log still covers its tip, a full-state checkpoint when
    /// compaction (or a long death) left it behind the base. Re-ships
    /// a stable window only at heartbeat cadence so drops don't flood
    /// the pipe with duplicates.
    fn ship_outstanding(&mut self, now: u64) {
        let Some(primary) = self.primary.as_ref() else {
            return;
        };
        let tip = primary.epoch();
        let term = self.term;
        let heartbeat = self.cfg.heartbeat_micros;
        let batch = self.cfg.ship_batch;
        for s in self.standbys.iter_mut().filter(|s| s.alive) {
            let applied = s.applied();
            if applied >= tip && !s.needs_snapshot {
                continue;
            }
            let fresh = tip != s.last_ship_tip || now.saturating_sub(s.last_ship_at) >= heartbeat;
            if !fresh {
                continue;
            }
            s.last_ship_tip = tip;
            s.last_ship_at = now;
            if s.needs_snapshot {
                // A rejoiner's local state is untrusted wholesale:
                // seed it with a full-state image before any records.
                s.pipe.send(
                    now,
                    ShipMsg {
                        term,
                        record: WalRecord {
                            epoch: tip,
                            payload: WalPayload::Checkpoint(primary.database().clone()),
                        },
                    },
                );
                continue;
            }
            if primary.wal().covers(applied) {
                for record in primary.wal().records_since(applied).iter().take(batch) {
                    s.pipe.send(
                        now,
                        ShipMsg {
                            term,
                            record: record.clone(),
                        },
                    );
                }
            } else {
                // The log was compacted past this standby: snapshot
                // resync with a full-state fast-forward record.
                s.pipe.send(
                    now,
                    ShipMsg {
                        term,
                        record: WalRecord {
                            epoch: tip,
                            payload: WalPayload::Checkpoint(primary.database().clone()),
                        },
                    },
                );
            }
        }
    }

    /// Delivers everything due on every alive standby's pipe.
    fn pump(&mut self, now: u64) {
        for s in self.standbys.iter_mut().filter(|s| s.alive) {
            for msg in s.pipe.poll(now) {
                s.ingest(msg);
            }
        }
    }

    fn sync_commit(&mut self, now: u64, target: u64) -> CommitAck {
        let majority = self.cfg.majority();
        let term = self.term;
        let step = self.cfg.ship_faults.base_latency_micros.max(1);
        let mut t = now;
        let deadline = now + self.cfg.sync_timeout_micros;
        let ack = loop {
            self.ship_outstanding(t);
            self.pump(t);
            // Only replicas confirmed on the current stream count as
            // holders: one mid-resync (untrusted suffix) may report an
            // `applied` the promoted stream never issued.
            let holders = 1 + self
                .standbys
                .iter()
                .filter(|s| s.alive && s.term == term && !s.needs_snapshot && s.applied() >= target)
                .count();
            if holders >= majority {
                self.acked_epoch = self.acked_epoch.max(target);
                break CommitAck {
                    acked: true,
                    epoch: target,
                    wait_micros: t - now,
                };
            }
            if t >= deadline {
                self.unacked_commits += 1;
                break CommitAck {
                    acked: false,
                    epoch: target,
                    wait_micros: t - now,
                };
            }
            t = (t + step).min(deadline);
        };
        // The loop ran a private clock up to `t`, but the caller's
        // clock is still `now`: ship stamps left at future instants
        // would suppress heartbeat re-ships until the outer clock
        // catches up, delaying catch-up after a timed-out commit.
        for s in &mut self.standbys {
            s.last_ship_at = s.last_ship_at.min(now);
        }
        ack
    }

    // ---- failure injection ------------------------------------------

    /// Hard-crashes the primary: in-memory state is gone; the durable
    /// log survives (a later [`HomeGroup::rejoin_crashed`] replays
    /// it). The tier is down until a standby promotes. Refused while
    /// the tier is already down.
    pub fn crash_primary(&mut self, now: u64) -> Result<(), InjectionRefused> {
        let p = self.primary.take().ok_or(InjectionRefused::NoPrimary)?;
        self.high_water = self.high_water.max(p.epoch());
        debug_assert!(
            !self.crashed.iter().any(|(id, _)| *id == self.primary_id),
            "node {} already has an un-rejoined crashed log",
            self.primary_id
        );
        self.crashed.push((self.primary_id, p.crash()));
        self.unavailable_since = Some(now);
        self.now = now;
        Ok(())
    }

    /// Partitions the primary away: it keeps running (and believes it
    /// is primary) but the group stops hearing from it. Its subsequent
    /// writes are the zombie scenario. Refused while the tier is down or
    /// an earlier partitioned primary has not rejoined.
    pub fn partition_primary(&mut self, now: u64) -> Result<(), InjectionRefused> {
        if self.zombie.is_some() {
            return Err(InjectionRefused::PartitionOutstanding);
        }
        let p = self.primary.take().ok_or(InjectionRefused::NoPrimary)?;
        self.high_water = self.high_water.max(p.epoch());
        self.zombie = Some(Zombie {
            id: self.primary_id,
            term: self.term,
            server: p,
        });
        self.unavailable_since = Some(now);
        self.now = now;
        Ok(())
    }

    /// A write at the partitioned old primary. It applies locally and
    /// ships on the old term; once a new primary has been promoted the
    /// fence rejects every such record at every standby — pump the
    /// group and watch [`HomeGroup::fenced_total`] rise. Returns the
    /// local effect (the zombie believes it succeeded), or the zombie's
    /// own rejection of the write.
    pub fn zombie_write(
        &mut self,
        now: u64,
        u: &Update,
    ) -> Result<Result<UpdateEffect, StorageError>, InjectionRefused> {
        let zombie = self.zombie.as_mut().ok_or(InjectionRefused::NoZombie)?;
        let effect = match zombie.server.apply_update(u) {
            Ok((effect, _msg)) => effect,
            Err(e) => return Ok(Err(e)),
        };
        let record = zombie
            .server
            .wal()
            .records_since(zombie.server.epoch() - 1)
            .last()
            .expect("apply_update appended a record")
            .clone();
        let term = zombie.term;
        for s in self.standbys.iter_mut().filter(|s| s.alive) {
            s.pipe.send(
                now,
                ShipMsg {
                    term,
                    record: record.clone(),
                },
            );
        }
        Ok(Ok(effect))
    }

    /// Marks a standby dead (stops pumping and shipping to it).
    pub fn crash_standby(&mut self, id: usize) {
        let s = self.standby_mut(id);
        s.alive = false;
    }

    /// Revives a dead standby. If no promotion happened while it was
    /// dead its log is intact — it is now lagging and catches up from
    /// the ship stream (or a snapshot if the log moved past it). If it
    /// slept across a promotion, its log suffix beyond the oldest
    /// missed promotion's preserved tip may hold records the dead
    /// stream issued but the promoted stream re-issued with different
    /// content (a zombie's equal-term writes) — that suffix is rewound
    /// to the prefix every stream shares, or the whole replica is
    /// marked for snapshot resync when the shared prefix was compacted
    /// out of its log. Either way it rejoins the current term before
    /// accepting another record, so a stale-term write can never land
    /// after revival.
    pub fn revive_standby(&mut self, id: usize) {
        let group_term = self.term;
        let standby_term = self.standby_mut(id).term;
        if standby_term >= group_term {
            self.standby_mut(id).alive = true;
            return;
        }
        let safe = self
            .failovers
            .iter()
            .filter(|f| f.new_term > standby_term)
            .map(|f| f.promoted_applied)
            .min();
        let s = self.standby_mut(id);
        s.alive = true;
        s.term = group_term;
        s.stash.clear();
        match safe {
            Some(safe) if s.wal.base_epoch() <= safe => {
                s.wal.truncate_after(safe);
            }
            _ => {
                s.needs_snapshot = true;
            }
        }
    }

    fn standby_mut(&mut self, id: usize) -> &mut Standby {
        self.standbys
            .iter_mut()
            .find(|s| s.id == id)
            .expect("unknown standby id")
    }

    /// Rejoins the partitioned old primary as a standby. Its divergent
    /// unreplicated tail is discarded wholesale (it rejoins from
    /// nothing and snapshot-resyncs) — returns how many of its records
    /// diverged from the promoted stream.
    pub fn rejoin_zombie(&mut self, now: u64) -> u64 {
        let zombie = self.zombie.take().expect("no partitioned primary");
        let wal = zombie.server.crash();
        let promoted_base = self
            .failovers
            .last()
            .map(|f| f.promoted_applied)
            .unwrap_or(self.high_water);
        let divergent = wal.last_epoch().saturating_sub(promoted_base);
        self.admit_rejoiner(zombie.id, now);
        divergent
    }

    /// Rejoins the oldest un-rejoined crashed primary as a standby:
    /// its durable log is replayable but may diverge past the promoted
    /// stream's base, so it rejoins from nothing and snapshot-resyncs.
    /// Returns how many of its records lay beyond the tip the
    /// promotion that deposed it preserved.
    pub fn rejoin_crashed(&mut self, now: u64) -> u64 {
        assert!(!self.crashed.is_empty(), "no crashed primary");
        let (id, wal) = self.crashed.remove(0);
        let promoted_base = self
            .failovers
            .iter()
            .rev()
            .find(|f| f.from_primary == id)
            .or(self.failovers.last())
            .map(|f| f.promoted_applied)
            .unwrap_or(self.high_water);
        let divergent = wal.last_epoch().saturating_sub(promoted_base);
        self.admit_rejoiner(id, now);
        divergent
    }

    fn admit_rejoiner(&mut self, id: usize, now: u64) {
        assert!(
            (self.primary.is_none() || id != self.primary_id)
                && !self.standbys.iter().any(|s| s.id == id),
            "rejoiner {id} is already a group member"
        );
        let pipe = FaultyChannel::new(
            self.cfg.seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5265_4A6F_494E,
            self.cfg.ship_faults.clone(),
        );
        let mut s = Standby::new(id, Database::default(), 0, self.term, pipe);
        s.needs_snapshot = true;
        s.last_ship_at = now;
        self.standbys.push(s);
    }

    // ---- promotion ---------------------------------------------------

    /// Promotes the most-caught-up eligible standby, if the mode's
    /// safety condition allows it. Eligible means alive *and* fully on
    /// the current stream — a replica mid-snapshot-resync reports an
    /// `applied` the promoted stream never confirmed, so it neither
    /// counts toward the coalition nor can win. Sync-quorum requires a
    /// majority of the cluster among the eligible standbys — quorum
    /// overlap then guarantees the winner holds every acked epoch.
    /// Async promotes any eligible standby and accounts the lost tail.
    fn try_promote(&mut self, now: u64) -> Option<FailoverRecord> {
        let eligible = |s: &&Standby| s.alive && !s.needs_snapshot;
        let alive = self.standbys.iter().filter(eligible).count();
        match self.cfg.mode {
            ReplicationMode::SyncQuorum => {
                if alive < self.cfg.majority() {
                    return None;
                }
            }
            ReplicationMode::Async => {
                if alive == 0 {
                    return None;
                }
            }
        }
        // Most caught up, ties to the lowest id — deterministic.
        let winner = self
            .standbys
            .iter()
            .enumerate()
            .filter(|(_, s)| s.alive && !s.needs_snapshot)
            .max_by(|(_, a), (_, b)| {
                a.applied().cmp(&b.applied()).then(b.id.cmp(&a.id)) // reversed: lowest id wins ties
            })
            .map(|(i, _)| i)
            .expect("eligible standby exists");
        let standby = self.standbys.remove(winner);
        let promoted_applied = standby.applied();
        let old_tip = self.high_water.max(promoted_applied);
        let old_term = self.term;
        self.term += 1;
        // Promotion is authoritative: every reachable standby learns
        // the new term as part of the election itself, never lazily
        // from the next shipped record. A deposed zombie's writes
        // carry a *strictly* smaller term everywhere from this instant
        // — there is no equal-term window for a late record to slip
        // through, regardless of pipe drops and reordering. Stale
        // speculative stashes (out-of-order records from the dead
        // stream, possibly at epochs the new stream will re-issue) die
        // with the old term; re-shipping covers anything real they
        // held. Standbys dead right now learn the term — and shed any
        // divergent suffix — in `revive_standby`.
        for s in self.standbys.iter_mut().filter(|s| s.alive) {
            s.term = self.term;
            s.stash.clear();
        }
        let mut server = HomeServer::recover(standby.wal);
        let barrier = old_tip + 1;
        server.advance_epoch_to(barrier);
        let lost_records = old_tip - promoted_applied;
        let lost_acked = self.acked_epoch.saturating_sub(promoted_applied);
        debug_assert!(
            self.cfg.mode != ReplicationMode::SyncQuorum || lost_acked == 0,
            "sync-quorum promotion lost an acked write"
        );
        let record = FailoverRecord {
            at_micros: now,
            from_primary: self.primary_id,
            to_primary: standby.id,
            old_term,
            new_term: self.term,
            old_tip,
            promoted_applied,
            barrier_epoch: barrier,
            lost_records,
            lost_acked,
            unavailable_micros: now.saturating_sub(self.unavailable_since.unwrap_or(now)),
        };
        self.primary_id = standby.id;
        self.high_water = barrier;
        // Rewind the ack floor onto the survivor's stream: acked
        // epochs are all ≤ promoted_applied in sync mode; in async
        // mode the overhang is exactly the accounted `lost_acked`.
        self.acked_epoch = self.acked_epoch.min(promoted_applied);
        self.primary = Some(server);
        self.unavailable_since = None;
        self.last_heartbeat = now;
        // Remaining standbys learn the new term with the next shipped
        // record; reset their ship cursors so catch-up starts now.
        for s in &mut self.standbys {
            s.last_ship_tip = 0;
            s.last_ship_at = now;
        }
        self.ship_outstanding(now);
        self.failovers.push(record);
        Some(record)
    }
}

/// The group is its current primary: up while it has one, and every
/// trip goes to that primary. Its stream's tip outlives the primary (the
/// high-water mark), an applied write is replicated before it is
/// acked, and the clock drives [`HomeGroup::tick`].
impl Home for HomeGroup {
    type Streams = [u64; 1];

    fn is_up(&self) -> bool {
        HomeGroup::is_up(self)
    }

    fn answer(&mut self, q: &Query) -> Result<(QueryResult, [u64; 1]), StorageError> {
        self.primary_mut().answer(q)
    }

    fn apply(&mut self, u: &Update) -> Result<(UpdateEffect, u64, InvalidationMsg), StorageError> {
        self.primary_mut().apply(u)
    }

    fn epoch_of(&self, stream: u64) -> u64 {
        if stream == 0 {
            self.epoch()
        } else {
            0
        }
    }

    /// The post-write replication step. Call after every primary write
    /// (the write itself goes through [`HomeGroup::primary_mut`], so
    /// any pathway — DSSP updates, out-of-band mutations — is
    /// covered). Async: the write is acked as-is. Sync-quorum: blocks
    /// (in simulated time) until a majority holds the log prefix, or
    /// times out leaving the write applied but unacked.
    fn commit_write(&mut self, _stream: u64, now: u64) -> CommitAck {
        let target = self.primary().epoch();
        self.high_water = self.high_water.max(target);
        match self.cfg.mode {
            ReplicationMode::Async => {
                self.acked_epoch = self.acked_epoch.max(target);
                self.ship_outstanding(now);
                self.pump(now);
                CommitAck {
                    acked: true,
                    epoch: target,
                    wait_micros: 0,
                }
            }
            ReplicationMode::SyncQuorum => self.sync_commit(now, target),
        }
    }

    fn advance_clock(&mut self, now_micros: u64) -> &[FailoverRecord] {
        self.tick(now_micros);
        &self.failovers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scs_sqlkit::{parse_update, Value};
    use scs_storage::{ColumnType, TableSchema};
    use std::sync::Arc;

    fn seed_db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::builder("toys")
                .column("toy_id", ColumnType::Int)
                .column("qty", ColumnType::Int)
                .primary_key(&["toy_id"])
                .build()
                .unwrap(),
        )
        .unwrap();
        db.insert_row("toys", vec![Value::Int(1), Value::Int(10)])
            .unwrap();
        db
    }

    fn insert(id: i64, qty: i64) -> Update {
        Update::bind(
            0,
            Arc::new(parse_update("INSERT INTO toys (toy_id, qty) VALUES (?, ?)").unwrap()),
            vec![Value::Int(id), Value::Int(qty)],
        )
        .unwrap()
    }

    fn group(mode: ReplicationMode, standbys: usize, faults: FaultSpec) -> HomeGroup {
        let mut cfg = ReplicationConfig::group(mode, standbys);
        cfg.ship_faults = faults;
        cfg.seed = 7;
        HomeGroup::new(HomeServer::new(seed_db()), cfg)
    }

    fn write(g: &mut HomeGroup, now: u64, id: i64) -> CommitAck {
        g.primary_mut().apply_update(&insert(id, 1)).unwrap();
        g.commit_write(0, now)
    }

    #[test]
    fn single_group_is_a_passthrough() {
        let mut g = HomeGroup::single(HomeServer::new(seed_db()));
        let ack = write(&mut g, 0, 100);
        assert!(ack.acked);
        assert_eq!(ack.epoch, 1);
        assert_eq!(g.epoch(), 1);
        assert!(g.tick(1_000_000).is_none(), "nothing to promote");
        assert!(g.is_up());
    }

    #[test]
    fn standbys_converge_over_a_faulty_pipe() {
        let faults = FaultSpec {
            drop_probability: 0.3,
            duplicate_probability: 0.2,
            delay_probability: 0.3,
            max_delay_micros: 4_000,
            base_latency_micros: 100,
        };
        let mut g = group(ReplicationMode::Async, 2, faults);
        let mut now = 0;
        for i in 0..50 {
            now += 1_000;
            let ack = write(&mut g, now, 100 + i);
            assert!(ack.acked, "async acks immediately");
            g.tick(now);
        }
        // Heartbeat re-shipping drains the drops given enough time.
        for _ in 0..200 {
            now += 5_000;
            g.tick(now);
        }
        for s in g.standbys() {
            assert_eq!(s.applied(), g.epoch(), "standby {} caught up", s.id());
        }
        // Replicated state is byte-identical to the primary's.
        let want = g.primary().database().clone();
        for s in &g.standbys {
            assert_eq!(s.wal.replay().unwrap(), want);
        }
    }

    #[test]
    fn sync_quorum_acks_wait_for_a_majority() {
        let faults = FaultSpec {
            drop_probability: 0.0,
            duplicate_probability: 0.0,
            delay_probability: 0.0,
            max_delay_micros: 0,
            base_latency_micros: 200,
        };
        let mut g = group(ReplicationMode::SyncQuorum, 2, faults);
        let ack = write(&mut g, 0, 100);
        assert!(ack.acked);
        assert!(ack.wait_micros >= 200, "one pipe latency minimum");
        assert_eq!(g.acked_epoch, 1);
        // Kill both standbys: the quorum (2 of 3) is unreachable, so
        // the next commit times out unacked.
        g.crash_standby(1);
        g.crash_standby(2);
        let ack = write(&mut g, 10_000, 101);
        assert!(!ack.acked, "no quorum, no ack");
        assert_eq!(g.acked_epoch, 1, "ack floor unchanged");
        assert_eq!(g.unacked_commits, 1);
    }

    #[test]
    fn failover_promotes_most_caught_up_and_fences_the_stream() {
        let mut g = group(ReplicationMode::Async, 2, FaultSpec::none());
        let mut now = 0;
        for i in 0..10 {
            now += 1_000;
            write(&mut g, now, 100 + i);
            g.tick(now);
        }
        g.tick(now + 1); // deliver the last ship
                         // Starve standby 2 and write more: only standby 1 keeps up.
        g.crash_standby(2);
        for i in 10..15 {
            now += 1_000;
            write(&mut g, now, 100 + i);
            g.tick(now);
        }
        g.tick(now + 1);
        g.revive_standby(2); // alive again but lagging
        let tip = g.epoch();
        g.crash_primary(now + 2).unwrap();
        let fo = loop {
            now += 5_000;
            if let Some(fo) = g.tick(now) {
                break fo;
            }
        };
        assert_eq!(fo.to_primary, 1, "most-caught-up standby wins");
        assert_eq!(fo.promoted_applied, tip, "nothing was lost");
        assert_eq!(fo.lost_records, 0);
        assert_eq!(fo.barrier_epoch, tip + 1, "barrier opens a permanent gap");
        assert_eq!(g.epoch(), tip + 1);
        assert!(fo.unavailable_micros >= g.cfg.lease_micros);
        // The lagging standby catches back up from the new primary.
        for _ in 0..50 {
            now += 5_000;
            g.tick(now);
        }
        for s in g.standbys() {
            assert_eq!(s.applied(), g.epoch());
        }
    }

    #[test]
    fn async_failover_accounts_the_lost_tail_exactly() {
        let mut g = group(ReplicationMode::Async, 1, FaultSpec::none());
        let mut now = 0;
        for i in 0..5 {
            now += 1_000;
            write(&mut g, now, 100 + i);
            g.tick(now);
        }
        g.tick(now + 1);
        assert_eq!(g.standbys()[0].applied(), 5);
        // Three more acked writes that never ship (no tick between
        // write and crash — crash mid-update).
        let mut acked = Vec::new();
        for i in 5..8 {
            now += 10; // under the ship heartbeat
            let ack = write(&mut g, now, 100 + i);
            assert!(ack.acked);
            acked.push(ack.epoch);
        }
        // commit() ships eagerly; drain what was already in flight,
        // then rebuild the loss by crashing before *delivery*.
        let delivered = g.standbys()[0].applied();
        g.crash_primary(now).unwrap();
        let fo = loop {
            now += 5_000;
            if let Some(fo) = g.tick(now) {
                break fo;
            }
        };
        assert_eq!(fo.old_tip, 8);
        assert_eq!(fo.promoted_applied, delivered);
        assert_eq!(fo.lost_records, 8 - delivered);
        assert_eq!(
            fo.lost_acked,
            acked.iter().filter(|&&e| e > delivered).count() as u64,
            "every lost acked write is accounted"
        );
        // The promoted database equals a replay without the lost tail.
        let mut want = seed_db();
        for i in 0..delivered {
            want.apply(&insert(100 + i as i64, 1)).unwrap();
        }
        assert_eq!(g.primary().database(), &want);
    }

    #[test]
    fn sync_quorum_failover_never_loses_an_acked_write() {
        let faults = FaultSpec {
            drop_probability: 0.4,
            duplicate_probability: 0.1,
            delay_probability: 0.3,
            max_delay_micros: 2_000,
            base_latency_micros: 100,
        };
        let mut g = group(ReplicationMode::SyncQuorum, 2, faults);
        let mut now = 0;
        let mut acked = 0u64;
        for i in 0..30 {
            now += 1_000;
            let ack = write(&mut g, now, 100 + i);
            if ack.acked {
                acked = ack.epoch;
            }
            g.tick(now);
        }
        g.crash_primary(now).unwrap();
        let fo = loop {
            now += 5_000;
            if let Some(fo) = g.tick(now) {
                break fo;
            }
        };
        assert_eq!(fo.lost_acked, 0, "sync-quorum durability oracle");
        assert!(
            fo.promoted_applied >= acked,
            "winner holds every acked epoch (quorum overlap)"
        );
    }

    #[test]
    fn sync_quorum_without_a_majority_stays_down() {
        let mut g = group(ReplicationMode::SyncQuorum, 2, FaultSpec::none());
        let mut now = 1_000;
        write(&mut g, now, 100);
        g.tick(now);
        g.crash_standby(1);
        g.crash_standby(2);
        g.crash_primary(now).unwrap();
        for _ in 0..100 {
            now += 10_000;
            assert!(g.tick(now).is_none(), "no quorum, no promotion");
        }
        assert!(!g.is_up());
        // One standby back is still not a majority of the 3-node
        // cluster — the promoting coalition must intersect every
        // commit quorum, so it stays down.
        g.revive_standby(1);
        now += 10_000;
        assert!(g.tick(now).is_none(), "one survivor cannot prove safety");
        // The second standby restores the quorum and the tier.
        g.revive_standby(2);
        now += 10_000;
        let fo = g.tick(now).expect("quorum restored, promotes");
        assert_eq!(fo.to_primary, 1, "ties go to the lowest id");
        assert_eq!(fo.lost_acked, 0);
        assert!(g.is_up());
    }

    #[test]
    fn zombie_writes_are_fenced_and_rejoin_discards_the_divergence() {
        let mut g = group(ReplicationMode::Async, 2, FaultSpec::none());
        let mut now = 0;
        for i in 0..5 {
            now += 1_000;
            write(&mut g, now, 100 + i);
            g.tick(now);
        }
        g.tick(now + 1);
        g.partition_primary(now + 2).unwrap();
        let fo = loop {
            now += 5_000;
            if let Some(fo) = g.tick(now) {
                break fo;
            }
        };
        assert_eq!(fo.lost_records, 0, "standbys were fully caught up");
        let promoted_epoch = g.epoch();
        // The old primary keeps writing on its stale term…
        for i in 0..3 {
            now += 100;
            g.zombie_write(now, &insert(900 + i, 1)).unwrap().unwrap();
        }
        now += 1_000;
        g.tick(now);
        // One standby was promoted away; the remaining one fences all 3.
        assert_eq!(g.fenced_total(), 3, "every standby fenced every record");
        // …and none of it moved the promoted stream.
        assert!(g.epoch() >= promoted_epoch);
        let probe = scs_sqlkit::Query::bind(
            0,
            Arc::new(scs_sqlkit::parse_query("SELECT qty FROM toys WHERE toy_id = ?").unwrap()),
            vec![Value::Int(900)],
        )
        .unwrap();
        assert!(
            g.primary()
                .database()
                .execute(&probe)
                .unwrap()
                .rows
                .is_empty(),
            "zombie write never reached the promoted primary"
        );
        // Rejoining discards the divergent tail and snapshot-resyncs.
        let divergent = g.rejoin_zombie(now);
        assert_eq!(divergent, 3);
        for _ in 0..40 {
            now += 5_000;
            write(&mut g, now, 700 + now as i64 % 97);
            g.tick(now);
        }
        for _ in 0..10 {
            now += 5_000;
            g.tick(now);
        }
        for s in g.standbys() {
            assert_eq!(s.applied(), g.epoch(), "rejoiner {} converged", s.id());
        }
        let want = g.primary().database().clone();
        for s in &g.standbys {
            assert_eq!(s.wal.replay().unwrap(), want);
        }
    }

    #[test]
    fn partitioning_a_down_tier_is_refused() {
        let mut g = group(ReplicationMode::Async, 2, FaultSpec::none());
        g.crash_primary(1_000).unwrap();
        let refused = g.partition_primary(2_000);
        assert_eq!(refused, Err(InjectionRefused::NoPrimary));
        assert!(g.zombie.is_none() && !g.is_up());
    }

    #[test]
    fn a_second_partition_is_refused_while_one_is_outstanding() {
        let mut g = group(ReplicationMode::Async, 2, FaultSpec::none());
        let mut now = 1_000;
        g.partition_primary(now).unwrap();
        while g.tick(now).is_none() {
            now += 5_000;
        }
        // A promoted primary is up, but the old one is still a zombie.
        let before = (g.primary_id, g.epoch());
        let refused = g.partition_primary(now);
        assert_eq!(refused, Err(InjectionRefused::PartitionOutstanding));
        assert!(g.is_up());
        assert_eq!((g.primary_id, g.epoch()), before);
    }

    #[test]
    fn a_zombie_write_without_a_partition_is_refused() {
        let mut g = group(ReplicationMode::Async, 2, FaultSpec::none());
        let refused = g.zombie_write(1_000, &insert(900, 1));
        assert_eq!(refused, Err(InjectionRefused::NoZombie));
        assert_eq!(g.epoch(), 0);
    }

    #[test]
    fn double_failover_keeps_promoting_deterministically() {
        let mut g = group(ReplicationMode::Async, 2, FaultSpec::none());
        let mut now = 0;
        for i in 0..5 {
            now += 1_000;
            write(&mut g, now, 100 + i);
            g.tick(now);
        }
        g.tick(now + 1);
        g.crash_primary(now + 2).unwrap();
        let fo1 = loop {
            now += 5_000;
            if let Some(fo) = g.tick(now) {
                break fo;
            }
        };
        assert_eq!(fo1.to_primary, 1);
        for i in 5..8 {
            now += 1_000;
            write(&mut g, now, 100 + i);
            g.tick(now);
        }
        g.tick(now + 1);
        g.crash_primary(now + 2).unwrap();
        let fo2 = loop {
            now += 5_000;
            if let Some(fo) = g.tick(now) {
                break fo;
            }
        };
        assert_eq!(fo2.to_primary, 2, "the remaining standby takes over");
        assert_eq!(g.term, 2);
        assert_eq!(fo2.lost_records, 0);
        assert!(fo2.barrier_epoch > fo1.barrier_epoch);
        // Writes keep flowing on the twice-promoted stream.
        let ack = write(&mut g, now + 1_000, 999);
        assert!(ack.acked);
    }

    #[test]
    fn snapshot_resync_crosses_a_compacted_log() {
        let mut g = group(ReplicationMode::Async, 1, FaultSpec::none());
        let mut now = 0;
        for i in 0..5 {
            now += 1_000;
            write(&mut g, now, 100 + i);
            g.tick(now);
        }
        g.tick(now + 1);
        g.crash_standby(1);
        for i in 5..15 {
            now += 1_000;
            write(&mut g, now, 100 + i);
            g.tick(now);
        }
        // Compact past the dead standby's tip.
        g.primary_mut().compact_wal_to(12);
        g.revive_standby(1);
        for _ in 0..20 {
            now += 5_000;
            g.tick(now);
        }
        let s = &g.standbys()[0];
        assert_eq!(s.applied(), g.epoch());
        assert!(s.snapshot_installs() >= 1, "caught up via checkpoint");
        assert_eq!(s.wal.replay().unwrap(), *g.primary().database());
    }

    /// The reviewer race, pinned at the ingest layer: a standby that
    /// witnessed the promotion (term bumped by the election) but has
    /// not yet received any new-term record gets the deposed primary's
    /// write for the *same* epoch the new stream is about to issue —
    /// delivered first. It must bounce off the fence, and the true
    /// primary's barrier for that epoch must then land normally, never
    /// be dropped as a duplicate of the zombie record.
    #[test]
    fn zombie_record_arriving_before_the_new_streams_first_ship_is_fenced() {
        let db = seed_db();
        let pipe = FaultyChannel::new(1, FaultSpec::none());
        let mut s = Standby::new(1, db.clone(), 5, 0, pipe);
        s.term = 1; // the election reached it; no term-1 record yet
        let zrec = WalRecord {
            epoch: 6,
            payload: WalPayload::Statement(insert(900, 1)),
        };
        assert!(
            !s.ingest(ShipMsg {
                term: 0,
                record: zrec
            }),
            "old-term record fenced even though no new-term record has arrived"
        );
        assert_eq!(s.fenced_records(), 1);
        assert_eq!(s.applied(), 5, "nothing appended");
        // The true primary's barrier for the same epoch then lands.
        let barrier = WalRecord {
            epoch: 6,
            payload: WalPayload::Checkpoint(db.clone()),
        };
        assert!(s.ingest(ShipMsg {
            term: 1,
            record: barrier
        }));
        assert_eq!(s.applied(), 6);
        assert_eq!(s.wal.replay().unwrap(), db);
    }

    /// Promotion bumps every reachable standby's term as part of the
    /// election itself — before any new-term record flows — so a
    /// zombie's late writes are strictly stale everywhere from the
    /// instant the new primary exists.
    #[test]
    fn promotion_bumps_standby_terms_authoritatively() {
        let mut g = group(ReplicationMode::Async, 2, FaultSpec::none());
        let mut now = 0;
        for i in 0..5 {
            now += 1_000;
            write(&mut g, now, 100 + i);
            g.tick(now);
        }
        g.tick(now + 1);
        g.partition_primary(now + 2).unwrap();
        loop {
            now += 5_000;
            if g.tick(now).is_some() {
                break;
            }
        }
        for s in g.standbys() {
            assert_eq!(s.term(), g.term, "standby {} knows the term", s.id());
        }
        // The zombie writes immediately after promotion; deliver ONLY
        // the pipes (no tick). The zombie record is fenced on term
        // alone; any movement comes from the new primary's barrier,
        // never from the zombie's write.
        g.zombie_write(now + 10, &insert(900, 1)).unwrap().unwrap();
        g.pump(now + 10_000);
        assert_eq!(g.fenced_total(), 1, "fenced on the bumped term");
        let probe = scs_sqlkit::Query::bind(
            0,
            Arc::new(scs_sqlkit::parse_query("SELECT qty FROM toys WHERE toy_id = ?").unwrap()),
            vec![Value::Int(900)],
        )
        .unwrap();
        for s in &g.standbys {
            assert!(
                s.wal
                    .replay()
                    .unwrap()
                    .execute(&probe)
                    .unwrap()
                    .rows
                    .is_empty(),
                "zombie write reached standby {}",
                s.id()
            );
        }
    }

    /// A standby that ingested the partitioned primary's equal-term
    /// writes, then died, then was revived *after* a promotion must not
    /// keep the divergent suffix: the epochs the dead stream issued
    /// beyond the promoted tip are exactly the epochs the new stream
    /// re-issues with different content. Revival rewinds it to the
    /// shared prefix and it converges on the promoted stream.
    #[test]
    fn contaminated_standby_revived_across_promotion_is_rewound() {
        let mut g = group(ReplicationMode::Async, 2, FaultSpec::none());
        let mut now = 0;
        for i in 0..5 {
            now += 1_000;
            write(&mut g, now, 100 + i);
            g.tick(now);
        }
        g.tick(now + 1);
        let tip = g.epoch();
        // Standby 1 misses the zombie's writes; standby 2 ingests them
        // (equal term — the partitioned primary is still the only
        // writer), then dies holding the contaminated suffix.
        g.crash_standby(1);
        g.partition_primary(now + 2).unwrap();
        for i in 0..3 {
            now += 100;
            g.zombie_write(now, &insert(900 + i, 1)).unwrap().unwrap();
        }
        g.pump(now + 1);
        assert_eq!(g.standbys()[1].applied(), tip + 3, "standby 2 contaminated");
        g.crash_standby(2);
        g.revive_standby(1);
        let fo = loop {
            now += 5_000;
            if let Some(fo) = g.tick(now) {
                break fo;
            }
        };
        assert_eq!(fo.to_primary, 1, "clean standby wins");
        assert_eq!(fo.promoted_applied, tip);
        // Standby 2 revives across the promotion: its zombie suffix at
        // epochs (tip, tip+3] — which the new stream re-issued as the
        // barrier and fresh writes — must be shed, not kept as
        // "already applied".
        g.revive_standby(2);
        assert_eq!(g.standbys()[0].term(), g.term);
        assert!(g.standbys()[0].applied() <= tip, "divergent suffix shed");
        for i in 0..10 {
            now += 1_000;
            write(&mut g, now, 200 + i);
            g.tick(now);
        }
        for _ in 0..20 {
            now += 5_000;
            g.tick(now);
        }
        let want = g.primary().database().clone();
        for s in &g.standbys {
            assert_eq!(s.applied(), g.epoch(), "standby {} converged", s.id());
            assert_eq!(s.wal.replay().unwrap(), want, "byte-identical replay");
        }
        // The zombie rows the revived standby once held are gone.
        let probe = scs_sqlkit::Query::bind(
            0,
            Arc::new(scs_sqlkit::parse_query("SELECT qty FROM toys WHERE toy_id = ?").unwrap()),
            vec![Value::Int(900)],
        )
        .unwrap();
        assert!(want.execute(&probe).unwrap().rows.is_empty());
    }

    /// The zombie scenario under a dropping, duplicating, delaying
    /// ship pipe, across seeds: promotion races zombie deliveries in
    /// every order the fault model can produce, and no standby may
    /// ever silently diverge — every replica must converge to the
    /// promoted primary's stream byte-for-byte, with the zombie's
    /// post-promotion writes fenced or dropped, never applied.
    #[test]
    fn zombie_race_over_lossy_pipes_never_diverges() {
        for seed in 0..24u64 {
            let faults = FaultSpec {
                drop_probability: 0.3,
                duplicate_probability: 0.15,
                delay_probability: 0.4,
                max_delay_micros: 20_000,
                base_latency_micros: 200,
            };
            let mut cfg = ReplicationConfig::group(ReplicationMode::Async, 2);
            cfg.ship_faults = faults;
            cfg.seed = seed;
            let mut g = HomeGroup::new(HomeServer::new(seed_db()), cfg);
            let mut now = 0;
            for i in 0..20 {
                now += 1_000;
                write(&mut g, now, 100 + i);
                g.tick(now);
            }
            g.partition_primary(now + 1).unwrap();
            // Zombie writes race the election and the new primary's
            // first ships through the same faulty pipes.
            for i in 0..2 {
                now += 500;
                g.zombie_write(now, &insert(900 + i, 1)).unwrap().unwrap();
            }
            let fo = loop {
                now += 2_500;
                if let Some(fo) = g.tick(now) {
                    break fo;
                }
            };
            for i in 2..5 {
                now += 500;
                g.zombie_write(now, &insert(900 + i, 1)).unwrap().unwrap();
                now += 500;
                write(&mut g, now, 300 + i);
                g.tick(now);
            }
            let divergent = g.rejoin_zombie(now + 1);
            assert!(divergent >= 3, "post-promotion zombie writes discarded");
            for i in 0..10 {
                now += 1_000;
                write(&mut g, now, 400 + i);
                g.tick(now);
            }
            // Settle: heartbeat re-shipping drains drops and delays.
            for _ in 0..100 {
                now += 5_000;
                g.tick(now);
            }
            let want = g.primary().database().clone();
            for s in &g.standbys {
                assert_eq!(
                    s.applied(),
                    g.epoch(),
                    "standby {} caught up (seed {seed})",
                    s.id()
                );
                assert_eq!(
                    s.wal.replay().unwrap(),
                    want,
                    "standby {} replay byte-identical (seed {seed}, fo {fo:?})",
                    s.id()
                );
            }
            // None of the zombie's post-promotion writes survived
            // anywhere on the promoted stream.
            for toy in 902..905 {
                let probe = scs_sqlkit::Query::bind(
                    0,
                    Arc::new(
                        scs_sqlkit::parse_query("SELECT qty FROM toys WHERE toy_id = ?").unwrap(),
                    ),
                    vec![Value::Int(toy)],
                )
                .unwrap();
                assert!(
                    want.execute(&probe).unwrap().rows.is_empty(),
                    "zombie write {toy} leaked into the promoted stream (seed {seed})"
                );
            }
        }
    }

    /// A double failover with no rejoin in between leaves *two*
    /// un-rejoined durable logs; both must survive and both nodes must
    /// be re-admittable without clashing ids.
    #[test]
    fn double_failover_retains_both_crashed_logs_for_rejoin() {
        let mut g = group(ReplicationMode::Async, 3, FaultSpec::none());
        let mut now = 0;
        for i in 0..5 {
            now += 1_000;
            write(&mut g, now, 100 + i);
            g.tick(now);
        }
        g.tick(now + 1);
        g.crash_primary(now + 2).unwrap();
        let fo1 = loop {
            now += 5_000;
            if let Some(fo) = g.tick(now) {
                break fo;
            }
        };
        for i in 5..8 {
            now += 1_000;
            write(&mut g, now, 100 + i);
            g.tick(now);
        }
        g.tick(now + 1);
        g.crash_primary(now + 2).unwrap();
        let fo2 = loop {
            now += 5_000;
            if let Some(fo) = g.tick(now) {
                break fo;
            }
        };
        // Both dead primaries' logs are retained, oldest first, and
        // both rejoin with their original ids intact.
        assert_eq!(g.rejoin_crashed(now), 0, "node 0 had fully replicated");
        assert_eq!(g.rejoin_crashed(now), 0, "node 1 had fully replicated");
        let mut ids: Vec<usize> = g.standbys().iter().map(|s| s.id()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 3], "all ids distinct");
        assert_eq!(g.primary_id, fo2.to_primary);
        assert_ne!(fo1.to_primary, fo2.to_primary);
        for _ in 0..40 {
            now += 5_000;
            g.tick(now);
        }
        let want = g.primary().database().clone();
        for s in &g.standbys {
            assert_eq!(s.applied(), g.epoch(), "rejoiner {} converged", s.id());
            assert_eq!(s.wal.replay().unwrap(), want);
        }
    }

    /// A timed-out sync-quorum commit runs a private clock up to the
    /// deadline; the ship stamps it leaves must not sit in the future,
    /// or heartbeat re-shipping stalls until the outer clock catches
    /// up.
    #[test]
    fn timed_out_sync_commit_leaves_no_future_ship_stamps() {
        let faults = FaultSpec {
            drop_probability: 1.0, // nothing delivers: the commit must time out
            duplicate_probability: 0.0,
            delay_probability: 0.0,
            max_delay_micros: 0,
            base_latency_micros: 200,
        };
        let mut g = group(ReplicationMode::SyncQuorum, 2, faults);
        let now = 1_000;
        let ack = write(&mut g, now, 100);
        assert!(!ack.acked, "total drop: no quorum");
        assert!(ack.wait_micros >= g.cfg.sync_timeout_micros);
        for s in g.standbys() {
            assert!(
                s.last_ship_at <= now,
                "standby {} stamped at future time {}",
                s.id(),
                s.last_ship_at
            );
        }
    }

    /// A second crash while the tier is down is refused and changes
    /// nothing, and the down tier still answers its stream's tip (the
    /// high-water mark) through `Home` instead of panicking.
    #[test]
    fn a_double_crash_is_refused_and_the_down_tier_answers_its_tip() {
        let mut g = group(ReplicationMode::Async, 1, FaultSpec::none());
        write(&mut g, 1_000, 100);
        g.tick(1_000);
        let tip = g.epoch();
        g.crash_primary(2_000).unwrap();
        assert_eq!(g.crash_primary(2_001), Err(InjectionRefused::NoPrimary));
        assert_eq!(Home::epoch_of(&g, 0), tip);
        assert_eq!(Home::tips(&g), vec![tip]);
        let mut now = 2_000;
        while g.tick(now).is_none() {
            now += 5_000;
        }
        assert_eq!(g.failovers().len(), 1, "one crash, one promotion");
        assert_eq!(g.failovers()[0].old_tip, tip);
    }
}
