//! Lease-based supervision for distributed campaigns.
//!
//! A static partition of the slot space would fix each worker's slot set
//! at spawn time: a slow host would gate the whole campaign and a dead one
//! would stall it until a respawn replayed its entire share. The
//! [`Resharder`] uses *leases* instead: the coordinator grants half-open
//! slot ranges of a fixed size ([`ReshardConfig::lease_size`]) one at a
//! time, and a worker pulls its next range when it drains its last one, so
//! a fast worker simply drains more leases. A range moves between workers
//! only when its owner fails: a dead or stalled worker's undrained leases
//! drain to healthy ones, and once the frontier and the orphans are dry an
//! idle worker takes the undelivered tail of a live owner that has sent no
//! event frame for a whole heartbeat window. No decision reads a rate, so
//! a fault-free fleet's grants depend only on the order its leases drain.
//!
//! This is safe because leases gate **emission, not computation**: every
//! worker computes the full deterministic stream (the engine's `seq` is a
//! global coordinate — see the [`crate::wire`] module docs), so any worker
//! can serve any range, and overlapping deliveries after a re-lease are
//! absorbed by [`crate::wire::SlotMerger`]'s dedup. The merged output is
//! therefore byte-identical to a local run no matter how leases migrate.
//!
//! The state machine is deliberately **pure**: time enters only through
//! the `now_ms` arguments (any monotonic millisecond clock), and effects
//! leave only as [`Action`] values returned from [`Resharder::tick`] — so
//! the whole supervision protocol is testable without sockets, processes,
//! or sleeps (proptest drives it through arbitrary connect/stall/die/
//! reconnect schedules in `tests/reshard_properties.rs`). It keeps only
//! **live** leases — one leaves when drained, orphaned, or re-leased — so
//! a tick scans a few leases per worker, never every lease of the run.

use std::collections::BTreeMap;

/// Tuning knobs of the lease supervisor. The defaults suit debug-build
/// integration tests; production campaigns mostly scale
/// `heartbeat_timeout_ms` with their tolerance for stall detection lag.
#[derive(Debug, Clone)]
pub struct ReshardConfig {
    /// A worker silent (no frame, heartbeat, or control line) for longer
    /// than this is declared stalled: killed, its leases re-granted. A
    /// worker that has sent no event frame for this long (counted from
    /// its last grant, if later) and is still heard from after that is
    /// *frame-silent*: an idle worker may take its undelivered tail.
    pub heartbeat_timeout_ms: u64,
    /// Slots per frontier grant. It also caps the re-lease granularity: a
    /// failure never orphans more than this many slots per lease.
    pub lease_size: u64,
    /// Base respawn delay after a death/stall; doubles per consecutive
    /// respawn of the same worker, capped at [`Self::max_backoff_ms`].
    pub respawn_backoff_ms: u64,
    /// Ceiling of the exponential respawn backoff.
    pub max_backoff_ms: u64,
    /// Respawns per worker before it is abandoned. Abandonment needs no
    /// recovery worker: the abandoned worker's leases simply flow to the
    /// survivors.
    pub max_respawns: u32,
}

impl Default for ReshardConfig {
    fn default() -> Self {
        Self {
            heartbeat_timeout_ms: 3_000,
            lease_size: 512,
            respawn_backoff_ms: 250,
            max_backoff_ms: 10_000,
            max_respawns: 2,
        }
    }
}

/// An effect the coordinator must carry out, returned by
/// [`Resharder::tick`]. The state machine never touches a socket or a
/// process itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Send [`crate::wire::LeaseFrame::Grant`] for `start..end` to the
    /// worker.
    Grant {
        /// Recipient worker.
        worker: String,
        /// Lease id (unique per campaign run).
        lease: u64,
        /// First slot of the granted range.
        start: u64,
        /// One past the last slot of the granted range.
        end: u64,
    },
    /// Send [`crate::wire::LeaseFrame::Revoke`] to the worker (it was
    /// frame-silent and its range went to an idle worker; any slots it
    /// still sends are deduped).
    Revoke {
        /// The worker losing the lease.
        worker: String,
        /// The withdrawn lease id.
        lease: u64,
    },
    /// Kill the worker's process: it missed its heartbeat deadline and is
    /// presumed wedged (SIGSTOP, livelock, dead host).
    Kill {
        /// The worker to kill.
        worker: String,
    },
    /// The worker's respawn backoff has elapsed — start a replacement
    /// process under the same name.
    Respawn {
        /// The worker to respawn.
        worker: String,
    },
    /// The worker exhausted its respawn budget and is permanently out of
    /// the campaign; its leases have been re-granted elsewhere.
    Abandon {
        /// The abandoned worker.
        worker: String,
    },
}

/// Why a slot range moved between workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationReason {
    /// The previous owner's connection died.
    Death,
    /// The previous owner missed its heartbeat deadline.
    Stall,
    /// The previous owner kept heartbeating but sent no event frame for a
    /// whole heartbeat window; an idle worker took its undelivered tail.
    Silent,
}

impl MigrationReason {
    /// Human-readable label for run summaries.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Death => "death",
            Self::Stall => "stall",
            Self::Silent => "silent",
        }
    }
}

/// One re-leased slot range: the audit record behind the coordinator's
/// "re-leased" summary lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Migration {
    /// First slot of the migrated range.
    pub start: u64,
    /// One past the last slot of the migrated range.
    pub end: u64,
    /// The worker that lost the range.
    pub from: String,
    /// The worker that received it.
    pub to: String,
    /// Why it moved.
    pub reason: MigrationReason,
}

impl std::fmt::Display for Migration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "slots {}..{} {} -> {} ({})",
            self.start,
            self.end,
            self.from,
            self.to,
            self.reason.as_str()
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Spawned (or respawn ordered), no `hello` yet.
    Pending,
    /// Connected and leasable.
    Active,
    /// Dead or killed; waiting out the respawn backoff.
    Dead,
    /// Out of the campaign for good.
    Abandoned,
}

#[derive(Debug)]
struct WorkerState {
    phase: Phase,
    last_heard_ms: u64,
    /// When the last *event frame* arrived or the last lease was granted —
    /// heartbeats do not count. Distinguishes a frozen process (no
    /// heartbeats either → killed) from a wedged emitter that still
    /// heartbeats (→ its tail is re-leased).
    last_frame_ms: u64,
    respawns: u32,
    respawn_due_ms: u64,
}

#[derive(Debug)]
struct LeaseState {
    worker: String,
    start: u64,
    end: u64,
}

/// The lease-granting supervisor: tracks worker health, owns the
/// un-leased frontier, and decides every grant, revoke, kill, respawn, and
/// abandonment of a campaign run. See the module docs for the protocol;
/// see [`ReshardConfig`] for the knobs.
#[derive(Debug)]
pub struct Resharder {
    config: ReshardConfig,
    workers: BTreeMap<String, WorkerState>,
    /// Live leases by id. Ids only grow, so id order is grant order.
    leases: BTreeMap<u64, LeaseState>,
    next_lease: u64,
    /// Next slot never covered by any grant.
    frontier: u64,
    /// Orphaned ranges awaiting a re-grant (undrained leases of dead /
    /// abandoned workers).
    orphans: Vec<(u64, u64, String, MigrationReason)>,
    /// Merger watermark: slots `0..delivered` have been delivered.
    delivered: u64,
    /// Total stream length, once any worker's engine finished.
    total: Option<u64>,
    migrations: Vec<Migration>,
}

impl Resharder {
    /// A supervisor with no workers and an empty frontier at slot 0.
    pub fn new(config: ReshardConfig) -> Self {
        Self {
            config,
            workers: BTreeMap::new(),
            leases: BTreeMap::new(),
            next_lease: 0,
            frontier: 0,
            orphans: Vec::new(),
            delivered: 0,
            total: None,
            migrations: Vec::new(),
        }
    }

    /// Registers a worker the coordinator has spawned (or ordered
    /// respawned) but that has not said `hello` yet — so a worker that
    /// dies before its handshake still has a supervision slot to time out.
    pub fn expect_worker(&mut self, name: &str, now_ms: u64) {
        self.workers.entry(name.to_owned()).or_insert(WorkerState {
            phase: Phase::Pending,
            last_heard_ms: now_ms,
            last_frame_ms: now_ms,
            respawns: 0,
            respawn_due_ms: 0,
        });
    }

    /// A worker's `hello` arrived (first connection or a reconnect): it
    /// becomes leasable. Unknown names are registered on the spot, so
    /// externally launched remote workers can join a campaign uninvited.
    pub fn worker_connected(&mut self, name: &str, now_ms: u64) {
        self.expect_worker(name, now_ms);
        let worker = self.workers.get_mut(name).expect("just inserted");
        worker.phase = Phase::Active;
        worker.last_heard_ms = now_ms;
        worker.last_frame_ms = now_ms;
    }

    /// One or more event frames arrived from the worker.
    pub fn frame_arrived(&mut self, name: &str, now_ms: u64) {
        if let Some(worker) = self.workers.get_mut(name) {
            worker.last_heard_ms = now_ms;
            worker.last_frame_ms = now_ms;
        }
    }

    /// A heartbeat or other control line arrived from the worker.
    pub fn note_heard(&mut self, name: &str, now_ms: u64) {
        if let Some(worker) = self.workers.get_mut(name) {
            worker.last_heard_ms = now_ms;
        }
    }

    /// The worker reported every owned slot of `lease` emitted. A late
    /// report for a lease it already lost (re-leased or orphaned) is a
    /// no-op.
    pub fn lease_drained(&mut self, name: &str, lease: u64, now_ms: u64) {
        self.note_heard(name, now_ms);
        if self.leases.get(&lease).is_some_and(|l| l.worker == name) {
            self.leases.remove(&lease);
        }
    }

    /// The worker's engine finished the whole study: `total` is the exact
    /// stream length, which caps the frontier and every re-granted range.
    pub fn worker_done(&mut self, name: &str, total: u64, now_ms: u64) {
        self.note_heard(name, now_ms);
        // Every worker computes the same deterministic stream, so the
        // first total is as good as any.
        self.total.get_or_insert(total);
    }

    /// The worker's connection ended (EOF, socket error, or process
    /// exit). Its undrained leases are orphaned for re-grant; a respawn is
    /// scheduled with exponential backoff, or the worker is abandoned past
    /// its budget (the returned actions say which).
    pub fn worker_dead(&mut self, name: &str, now_ms: u64) -> Vec<Action> {
        self.retire(name, now_ms, MigrationReason::Death)
    }

    /// The merger's watermark advanced: slots `0..delivered` are safely
    /// written out.
    pub fn delivered(&mut self, delivered: u64) {
        self.delivered = self.delivered.max(delivered);
    }

    /// Every re-leased range so far, in occurrence order.
    pub fn migrations(&self) -> &[Migration] {
        &self.migrations
    }

    /// Workers currently able (or expected to become able) to hold
    /// leases: everything not abandoned.
    pub fn live_workers(&self) -> usize {
        self.workers
            .values()
            .filter(|w| w.phase != Phase::Abandoned)
            .count()
    }

    /// Advances time: expires heartbeats (kill + orphan), fires due
    /// respawns, and gives each idle worker one range — an orphan, else a
    /// frontier lease, else a frame-silent owner's undelivered tail. Call
    /// it after every merge-loop event (a batch of frames is one) and
    /// timeout; it scans only the live leases.
    pub fn tick(&mut self, now_ms: u64) -> Vec<Action> {
        let mut actions = Vec::new();

        // 1. Stall detection: an Active worker silent past the deadline
        // is killed and retired exactly like a death, except the killer
        // must actually kill it.
        let stalled: Vec<String> = self
            .workers
            .iter()
            .filter(|(_, w)| {
                w.phase == Phase::Active
                    && now_ms.saturating_sub(w.last_heard_ms) > self.config.heartbeat_timeout_ms
            })
            .map(|(name, _)| name.clone())
            .collect();
        for name in stalled {
            actions.push(Action::Kill {
                worker: name.clone(),
            });
            actions.extend(self.retire(&name, now_ms, MigrationReason::Stall));
        }

        // 2. Respawns whose backoff elapsed.
        for (name, worker) in &mut self.workers {
            if worker.phase == Phase::Dead && now_ms >= worker.respawn_due_ms {
                worker.phase = Phase::Pending;
                worker.last_heard_ms = now_ms;
                actions.push(Action::Respawn {
                    worker: name.clone(),
                });
            }
        }

        // 3. Grants, by worker name: orphaned ranges first (they block the
        // merger), then fresh frontier leases. Only once both are dry does
        // an idle worker take a frame-silent owner's undelivered tail.
        let idle: Vec<String> = self
            .workers
            .iter()
            .filter(|(name, w)| w.phase == Phase::Active && !self.has_outstanding(name))
            .map(|(name, _)| name.clone())
            .collect();
        for name in idle {
            if let Some((start, end, from, reason)) = self.next_orphan() {
                self.grant(&name, start, end, now_ms, &mut actions);
                self.migrations.push(Migration {
                    start,
                    end,
                    from,
                    to: name,
                    reason,
                });
            } else if let Some((start, end)) = self.next_frontier_lease() {
                self.grant(&name, start, end, now_ms, &mut actions);
            } else if let Some((lease, from, start, end)) = self.silent_tail() {
                self.leases.remove(&lease);
                actions.push(Action::Revoke {
                    worker: from.clone(),
                    lease,
                });
                self.grant(&name, start, end, now_ms, &mut actions);
                self.migrations.push(Migration {
                    start,
                    end,
                    from,
                    to: name,
                    reason: MigrationReason::Silent,
                });
            } else {
                break;
            }
        }

        actions
    }

    /// `true` when the worker holds at least one live lease.
    fn has_outstanding(&self, name: &str) -> bool {
        self.leases.values().any(|l| l.worker == name)
    }

    /// The part of `start..end` not yet delivered and inside the stream,
    /// if any.
    fn undelivered(&self, start: u64, end: u64) -> Option<(u64, u64)> {
        let start = start.max(self.delivered);
        let end = self.total.map_or(end, |total| end.min(total));
        (start < end).then_some((start, end))
    }

    /// Pops the next orphaned range still worth re-granting (clipped to
    /// the delivered watermark and the stream length).
    fn next_orphan(&mut self) -> Option<(u64, u64, String, MigrationReason)> {
        while let Some((start, end, from, reason)) = self.orphans.pop() {
            if let Some((start, end)) = self.undelivered(start, end) {
                return Some((start, end, from, reason));
            }
        }
        None
    }

    /// The next `lease_size` slots of the frontier (fewer at the stream's
    /// end); `None` once the stream length is known and fully covered.
    fn next_frontier_lease(&mut self) -> Option<(u64, u64)> {
        let end = self.frontier.saturating_add(self.config.lease_size);
        let (start, end) = self.undelivered(self.frontier, end)?;
        self.frontier = end;
        Some((start, end))
    }

    /// The first live lease, in grant order, whose owner is wedged and
    /// which still has an undelivered tail: `(lease, owner, start, end)`
    /// of that tail. Wedged means heard from *after* its frame deadline
    /// (`last_frame_ms + heartbeat_timeout_ms`): alive but not emitting.
    /// Frame silence alone does not count, because a frozen process is
    /// frame-silent too; its heartbeats stop, and the stall kill in
    /// [`Self::tick`] names that fault.
    fn silent_tail(&self) -> Option<(u64, String, u64, u64)> {
        self.leases.iter().find_map(|(id, lease)| {
            let owner = &self.workers[&lease.worker];
            let deadline = owner
                .last_frame_ms
                .saturating_add(self.config.heartbeat_timeout_ms);
            if owner.last_heard_ms <= deadline {
                return None;
            }
            let (start, end) = self.undelivered(lease.start, lease.end)?;
            Some((*id, lease.worker.clone(), start, end))
        })
    }

    /// Leases `start..end` to the worker. Its frame silence counts from
    /// here: it has not had a chance to emit the range yet, so a range
    /// just handed over cannot move again within one heartbeat window.
    fn grant(&mut self, name: &str, start: u64, end: u64, now_ms: u64, actions: &mut Vec<Action>) {
        let id = self.next_lease;
        self.next_lease += 1;
        self.leases.insert(
            id,
            LeaseState {
                worker: name.to_owned(),
                start,
                end,
            },
        );
        if let Some(worker) = self.workers.get_mut(name) {
            worker.last_frame_ms = now_ms;
        }
        actions.push(Action::Grant {
            worker: name.to_owned(),
            lease: id,
            start,
            end,
        });
    }

    /// Takes a worker out of Active service: orphans its undrained
    /// leases, schedules a respawn (exponential backoff, capped) or
    /// abandons it past the budget.
    fn retire(&mut self, name: &str, now_ms: u64, reason: MigrationReason) -> Vec<Action> {
        let mut actions = Vec::new();
        let Some(worker) = self.workers.get_mut(name) else {
            return actions;
        };
        if matches!(worker.phase, Phase::Dead | Phase::Abandoned) {
            return actions;
        }
        // Orphan every live lease the worker held, in grant order.
        self.leases.retain(|_, state| {
            let held = state.worker == name;
            if held {
                self.orphans
                    .push((state.start, state.end, name.to_owned(), reason));
            }
            !held
        });
        if worker.respawns >= self.config.max_respawns {
            worker.phase = Phase::Abandoned;
            actions.push(Action::Abandon {
                worker: name.to_owned(),
            });
        } else {
            let backoff = self
                .config
                .respawn_backoff_ms
                .saturating_mul(1u64 << worker.respawns.min(31))
                .min(self.config.max_backoff_ms);
            worker.respawns += 1;
            worker.phase = Phase::Dead;
            worker.respawn_due_ms = now_ms + backoff;
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ReshardConfig {
        ReshardConfig {
            heartbeat_timeout_ms: 1_000,
            lease_size: 8,
            respawn_backoff_ms: 100,
            max_backoff_ms: 1_000,
            max_respawns: 1,
        }
    }

    fn grants(actions: &[Action]) -> Vec<(String, u64, u64)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Grant {
                    worker, start, end, ..
                } => Some((worker.clone(), *start, *end)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn fresh_workers_get_disjoint_frontier_chunks() {
        let mut r = Resharder::new(config());
        r.worker_connected("w0", 0);
        r.worker_connected("w1", 0);
        let actions = r.tick(0);
        let grants = grants(&actions);
        assert_eq!(grants.len(), 2);
        assert_eq!(grants[0].1, 0);
        assert_eq!(grants[0].2, 8);
        assert_eq!(grants[1].1, 8);
        assert_eq!(grants[1].2, 16);
    }

    #[test]
    fn dead_workers_leases_migrate_and_respawn_backs_off() {
        let mut r = Resharder::new(config());
        r.worker_connected("w0", 0);
        r.worker_connected("w1", 0);
        r.tick(0);
        // w0 dies holding 0..8; the orphan must land on w1 once w1 is
        // idle (drain w1's own lease first).
        let dead_actions = r.worker_dead("w0", 10);
        assert!(dead_actions.is_empty(), "first death schedules a respawn");
        r.lease_drained("w1", 1, 20);
        let actions = r.tick(20);
        assert!(grants(&actions)
            .iter()
            .any(|(w, s, e)| w == "w1" && *s == 0 && *e == 8));
        assert_eq!(r.migrations().len(), 1);
        assert_eq!(r.migrations()[0].reason, MigrationReason::Death);
        // The respawn fires only after the backoff.
        let actions = r.tick(50);
        assert!(!actions.iter().any(|a| matches!(a, Action::Respawn { .. })));
        let actions = r.tick(111);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Respawn { worker } if worker == "w0")));
        // A second death exhausts the budget: abandonment, not respawn.
        r.worker_connected("w0", 120);
        let actions = r.worker_dead("w0", 130);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Abandon { worker } if worker == "w0")));
    }

    #[test]
    fn silent_workers_are_killed_and_their_ranges_re_leased() {
        let mut r = Resharder::new(config());
        r.worker_connected("w0", 0);
        r.worker_connected("w1", 0);
        r.tick(0);
        // w1 keeps talking; w0 goes silent past the deadline.
        r.frame_arrived("w1", 900);
        r.lease_drained("w1", 1, 901);
        let actions = r.tick(1_200);
        assert!(actions
            .iter()
            .any(|a| matches!(a, Action::Kill { worker } if worker == "w0")));
        assert!(grants(&actions)
            .iter()
            .any(|(w, s, e)| w == "w1" && *s == 0 && *e == 8));
        assert_eq!(r.migrations()[0].reason, MigrationReason::Stall);
    }

    /// Two workers share a 32-slot stream in 16-slot leases; `fast`
    /// drains its lease at once and idles while `slow` still owes
    /// `17..32`.
    fn fast_idle_slow_owing() -> Resharder {
        let mut r = Resharder::new(ReshardConfig {
            lease_size: 16,
            ..config()
        });
        r.worker_connected("fast", 0);
        r.worker_connected("slow", 0);
        r.tick(0); // fast: 0..16, slow: 16..32
        r.worker_done("fast", 32, 100);
        for t in 0..16 {
            r.frame_arrived("fast", 100 + t);
        }
        r.frame_arrived("slow", 150);
        r.lease_drained("fast", 0, 400);
        r.delivered(17);
        r
    }

    /// Pull-only: however far an idle worker is ahead, a slow owner that
    /// keeps emitting keeps its lease.
    #[test]
    fn a_slow_owner_that_still_emits_keeps_its_lease() {
        let mut r = fast_idle_slow_owing();
        for now in (500..=10_000).step_by(100) {
            if now % 900 == 0 {
                r.frame_arrived("slow", now);
            }
            r.note_heard("fast", now);
            r.note_heard("slow", now);
            let actions = r.tick(now);
            assert!(actions.is_empty(), "at {now} ms: {actions:?}");
        }
        assert!(r.migrations().is_empty(), "{:?}", r.migrations());
    }

    /// An owner that heartbeats but sends no frame for a whole heartbeat
    /// window loses its undelivered tail to the idle worker, by `Revoke`,
    /// once a heartbeat proves it alive past that window.
    #[test]
    fn a_frame_silent_owner_loses_its_tail_to_an_idle_worker() {
        let mut r = fast_idle_slow_owing();
        r.note_heard("fast", 1_150);
        r.note_heard("slow", 1_150);
        assert!(r.tick(1_150).is_empty(), "slow is silent for only 1000 ms");
        assert!(
            r.tick(1_151).is_empty(),
            "slow not heard from since 1150 ms"
        );
        r.note_heard("slow", 1_151);
        let actions = r.tick(1_151);
        assert_eq!(
            actions,
            vec![
                Action::Revoke {
                    worker: "slow".to_owned(),
                    lease: 1,
                },
                Action::Grant {
                    worker: "fast".to_owned(),
                    lease: 2,
                    start: 17,
                    end: 32,
                },
            ]
        );
        assert_eq!(
            r.migrations(),
            [Migration {
                start: 17,
                end: 32,
                from: "slow".to_owned(),
                to: "fast".to_owned(),
                reason: MigrationReason::Silent,
            }]
        );
        assert_eq!(
            r.migrations()[0].to_string(),
            "slots 17..32 slow -> fast (silent)"
        );
        // A late drain of the revoked lease changes nothing.
        r.lease_drained("slow", 1, 1_200);
        assert!(r.tick(1_200).is_empty());
    }

    /// A frozen owner's last heartbeat came just after its last frame,
    /// then nothing: it is frame-silent, but nothing proves it alive past
    /// its frame deadline, so it must fall to the stall kill, never lose
    /// its tail as `silent`.
    #[test]
    fn a_frozen_owner_is_killed_as_stalled_not_re_leased_as_silent() {
        let mut r = fast_idle_slow_owing();
        r.note_heard("slow", 160); // last frame at 150 ms, then frozen
        let mut killed = false;
        for now in 400..=1_300 {
            r.note_heard("fast", now);
            let actions = r.tick(now);
            assert!(
                r.migrations()
                    .iter()
                    .all(|m| m.reason != MigrationReason::Silent),
                "at {now} ms: {:?}",
                r.migrations()
            );
            if actions
                .iter()
                .any(|a| matches!(a, Action::Kill { worker } if worker == "slow"))
            {
                assert_eq!(now, 1_161, "killed at its heartbeat deadline");
                killed = true;
                break;
            }
        }
        assert!(killed, "the frozen owner was never killed");
        assert_eq!(r.migrations().len(), 1, "{:?}", r.migrations());
        assert_eq!(r.migrations()[0].reason, MigrationReason::Stall);
        assert_eq!(r.migrations()[0].to, "fast");
    }

    /// Two workers that are both frame-silent (heartbeating, no frames)
    /// must not pass one range back and forth: a tick ends, and the range
    /// moves at most once.
    #[test]
    fn frame_silent_workers_do_not_steal_a_range_back_and_forth() {
        let mut r = Resharder::new(config());
        r.worker_connected("w0", 0);
        r.worker_connected("w1", 0);
        r.worker_done("w0", 16, 0);
        r.tick(0); // w0: 0..8, w1: 8..16
        for _ in 0..8 {
            r.frame_arrived("w0", 100);
        }
        r.frame_arrived("w1", 100);
        r.lease_drained("w0", 0, 150);
        r.delivered(9);
        r.note_heard("w0", 1_101);
        r.note_heard("w1", 1_101);
        // w1 has sent nothing since 100 ms: idle w0 takes its tail 9..16.
        let actions = r.tick(1_101);
        assert_eq!(grants(&actions), vec![("w0".to_owned(), 9, 16)]);
        assert_eq!(r.migrations()[0].reason, MigrationReason::Silent);

        // Both fall silent but keep heartbeating: w1 (idle) may take the
        // range from frame-silent w0, but the range must not bounce.
        r.note_heard("w0", 2_150);
        r.note_heard("w1", 2_150);
        let actions = r.tick(2_200);
        let silent = r
            .migrations()
            .iter()
            .filter(|m| m.reason == MigrationReason::Silent)
            .count();
        assert!(silent <= 2, "the range bounced: {silent} re-leases");
        assert!(grants(&actions).len() <= 1, "{actions:?}");
        // Nor across ticks: a range just handed over gets a full heartbeat
        // window before its new owner counts as frame-silent.
        let before = r.migrations().len();
        r.note_heard("w0", 2_300);
        r.note_heard("w1", 2_300);
        r.tick(2_300);
        assert_eq!(r.migrations().len(), before, "{:?}", r.migrations());
    }

    #[test]
    fn frontier_respects_the_stream_length() {
        let mut r = Resharder::new(config());
        r.worker_connected("w0", 0);
        r.worker_done("w0", 5, 0); // tiny stream: 5 slots
        let actions = r.tick(0);
        assert_eq!(grants(&actions), vec![("w0".to_owned(), 0, 5)]);
        r.lease_drained("w0", 0, 10);
        r.delivered(5);
        assert!(grants(&r.tick(10)).is_empty(), "nothing left to lease");
    }

    /// A lease granted before the stream length was known may run past
    /// the stream's end; orphaned, it is re-granted only up to the end,
    /// and not at all when nothing of it lies inside the stream.
    #[test]
    fn orphans_are_clipped_to_the_stream_length() {
        for (total, regrant) in [(11, Some((8, 11))), (8, None)] {
            let mut r = Resharder::new(config());
            r.worker_connected("w0", 0);
            r.worker_connected("w1", 0);
            r.tick(0); // w0: 0..8, w1: 8..16, before the total is known
            r.worker_done("w0", total, 10);
            r.worker_dead("w1", 20);
            r.lease_drained("w0", 0, 30);
            r.delivered(8);
            let granted: Vec<(u64, u64)> = grants(&r.tick(30))
                .into_iter()
                .map(|(_, start, end)| (start, end))
                .collect();
            assert_eq!(granted, Vec::from_iter(regrant), "total {total}");
            let moved: Vec<(u64, u64)> = r.migrations().iter().map(|m| (m.start, m.end)).collect();
            assert_eq!(moved, Vec::from_iter(regrant), "total {total}");
        }
    }
}
