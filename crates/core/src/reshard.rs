//! Lease-based supervision and throughput-aware resharding for
//! distributed campaigns.
//!
//! A static partition of the slot space would fix each worker's slot set
//! at spawn time: a slow host would gate the whole campaign and a dead one
//! would stall it until a respawn replayed its entire share. The
//! [`Resharder`] uses *leases* instead: the coordinator grants half-open
//! slot ranges to workers one chunk at a time, sized by each worker's
//! measured frame throughput (an EWMA over arrival counts), and moves
//! ranges between workers as their health changes — dead and stalled
//! workers' undrained leases drain to healthy ones, and once the frontier
//! is exhausted idle fast workers *steal* the undelivered tail from slow
//! ones.
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
//! **live** leases — one leaves when drained, orphaned, or stolen — so a
//! tick scans a few leases per worker, never every lease of the run.

use std::collections::BTreeMap;

/// Tuning knobs of the lease supervisor. The defaults suit debug-build
/// integration tests; production campaigns mostly scale
/// `heartbeat_timeout_ms` with their tolerance for stall detection lag.
#[derive(Debug, Clone)]
pub struct ReshardConfig {
    /// A worker silent (no frame, heartbeat, or control line) for longer
    /// than this is declared stalled: killed, its leases re-granted.
    pub heartbeat_timeout_ms: u64,
    /// Lease size (slots) granted to a worker with no throughput history.
    pub initial_lease: u64,
    /// Smallest lease ever granted — floors the sizing so a momentarily
    /// slow worker is not starved into one-slot leases.
    pub min_lease: u64,
    /// Largest lease ever granted — caps the re-lease granularity so a
    /// failure never orphans more than this many slots per lease.
    pub max_lease: u64,
    /// Leases are sized to hold roughly this many milliseconds of the
    /// worker's measured throughput.
    pub target_lease_ms: u64,
    /// EWMA smoothing factor in `(0, 1]`; higher weights recent rates.
    pub ewma_alpha: f64,
    /// Base respawn delay after a death/stall; doubles per consecutive
    /// respawn of the same worker, capped at [`Self::max_backoff_ms`].
    pub respawn_backoff_ms: u64,
    /// Ceiling of the exponential respawn backoff.
    pub max_backoff_ms: u64,
    /// Respawns per worker before it is abandoned. Abandonment needs no
    /// recovery worker: the abandoned worker's leases simply flow to the
    /// survivors.
    pub max_respawns: u32,
    /// A steal requires the thief's EWMA to exceed the victim's by this
    /// factor, so two comparable workers never thrash a range between
    /// each other.
    pub steal_ratio: f64,
}

impl Default for ReshardConfig {
    fn default() -> Self {
        Self {
            heartbeat_timeout_ms: 3_000,
            initial_lease: 32,
            min_lease: 16,
            max_lease: 512,
            target_lease_ms: 1_000,
            ewma_alpha: 0.4,
            respawn_backoff_ms: 250,
            max_backoff_ms: 10_000,
            max_respawns: 2,
            steal_ratio: 1.5,
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
    /// Send [`crate::wire::LeaseFrame::Revoke`] to the worker (its range
    /// was stolen; any slots it still sends are deduped).
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
    /// An idle faster worker took the undelivered tail from a slower one.
    Steal,
}

impl MigrationReason {
    /// Human-readable label for run summaries.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Death => "death",
            Self::Stall => "stall",
            Self::Steal => "steal",
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
    /// When the last *event frame* arrived — heartbeats do not count.
    /// Distinguishes a frozen process (no heartbeats either → killed)
    /// from a wedged emitter that still heartbeats (→ stealable).
    last_frame_ms: u64,
    /// Cumulative event frames arrived from this worker.
    frames: u64,
    /// Frames/second EWMA, sampled at ticks.
    ewma: f64,
    /// `(now_ms, frames)` at the last rate sample.
    sample: (u64, u64),
    respawns: u32,
    respawn_due_ms: u64,
    /// `true` once the worker's engine reported `done` (it can serve any
    /// range instantly).
    done: bool,
}

#[derive(Debug)]
struct LeaseState {
    worker: String,
    start: u64,
    end: u64,
}

/// The lease-granting supervisor: tracks worker health and throughput,
/// owns the un-leased frontier, and decides every grant, revoke, kill,
/// respawn, and abandonment of a campaign run. See the module docs for
/// the protocol; see [`ReshardConfig`] for the knobs.
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
            frames: 0,
            ewma: 0.0,
            sample: (now_ms, 0),
            respawns: 0,
            respawn_due_ms: 0,
            done: false,
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
        worker.sample = (now_ms, worker.frames);
    }

    /// An event frame arrived from the worker — liveness plus one unit of
    /// throughput.
    pub fn frame_arrived(&mut self, name: &str, now_ms: u64) {
        if let Some(worker) = self.workers.get_mut(name) {
            worker.frames += 1;
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
    /// report for a lease it already lost (stolen or orphaned) is a no-op.
    pub fn lease_drained(&mut self, name: &str, lease: u64, now_ms: u64) {
        self.note_heard(name, now_ms);
        if self.leases.get(&lease).is_some_and(|l| l.worker == name) {
            self.leases.remove(&lease);
        }
    }

    /// The worker's engine finished the whole study: `total` is the exact
    /// stream length, which caps the frontier.
    pub fn worker_done(&mut self, name: &str, total: u64, now_ms: u64) {
        self.note_heard(name, now_ms);
        if let Some(worker) = self.workers.get_mut(name) {
            worker.done = true;
        }
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

    /// The total stream length, once known from any worker's `done`.
    pub fn total(&self) -> Option<u64> {
        self.total
    }

    /// Advances time: expires heartbeats (kill + orphan), fires due
    /// respawns, grants orphaned and frontier ranges to idle workers, and
    /// steals when the frontier is dry. Call it after every merge-loop
    /// event and timeout; it scans only the live leases.
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

        // 3. Refresh throughput EWMAs from frame-arrival deltas.
        for worker in self.workers.values_mut() {
            let (then_ms, then_frames) = worker.sample;
            let dt_ms = now_ms.saturating_sub(then_ms);
            if dt_ms >= 200 {
                #[allow(clippy::cast_precision_loss)]
                let rate = (worker.frames - then_frames) as f64 * 1000.0 / dt_ms as f64;
                worker.ewma = if worker.ewma == 0.0 {
                    rate
                } else {
                    self.config.ewma_alpha * rate + (1.0 - self.config.ewma_alpha) * worker.ewma
                };
                worker.sample = (now_ms, worker.frames);
            }
        }

        // 4. Grants: orphaned ranges first (they block the merger), then
        // fresh frontier chunks.
        let idle: Vec<String> = self
            .workers
            .iter()
            .filter(|(name, w)| w.phase == Phase::Active && !self.has_outstanding(name))
            .map(|(name, _)| name.clone())
            .collect();
        for name in idle {
            while !self.has_outstanding(&name) {
                if let Some((start, end, from, reason)) = self.next_orphan() {
                    self.grant(&name, start, end, &mut actions);
                    self.migrations.push(Migration {
                        start,
                        end,
                        from,
                        to: name.clone(),
                        reason,
                    });
                } else if let Some((start, end)) = self.next_frontier_chunk(&name) {
                    self.grant(&name, start, end, &mut actions);
                } else {
                    break;
                }
            }
        }

        // 5. Steals: frontier and orphans are dry, but an idle fast
        // worker could finish a slow worker's undelivered tail sooner.
        self.steal(now_ms, &mut actions);

        actions
    }

    /// `true` when the worker holds at least one live lease.
    fn has_outstanding(&self, name: &str) -> bool {
        self.leases.values().any(|l| l.worker == name)
    }

    /// Pops the next orphaned range still worth re-granting (clipped to
    /// the delivered watermark).
    fn next_orphan(&mut self) -> Option<(u64, u64, String, MigrationReason)> {
        while let Some((start, end, from, reason)) = self.orphans.pop() {
            let start = start.max(self.delivered);
            if start < end {
                return Some((start, end, from, reason));
            }
        }
        None
    }

    /// The next frontier chunk for this worker, sized to its throughput;
    /// `None` when the frontier is exhausted (or the stream length is
    /// known and fully covered).
    fn next_frontier_chunk(&mut self, name: &str) -> Option<(u64, u64)> {
        if let Some(total) = self.total {
            if self.frontier >= total {
                return None;
            }
        }
        let worker = self.workers.get(name)?;
        let size = if worker.ewma > 0.0 {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let sized = (worker.ewma * self.config.target_lease_ms as f64 / 1000.0) as u64;
            sized.clamp(self.config.min_lease, self.config.max_lease)
        } else {
            self.config.initial_lease
        };
        let start = self.frontier;
        let end = match self.total {
            Some(total) => (start + size).min(total),
            None => start + size,
        };
        self.frontier = end;
        (start < end).then_some((start, end))
    }

    fn grant(&mut self, name: &str, start: u64, end: u64, actions: &mut Vec<Action>) -> u64 {
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
        actions.push(Action::Grant {
            worker: name.to_owned(),
            lease: id,
            start,
            end,
        });
        id
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
        worker.ewma = 0.0;
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

    /// When nothing new is grantable, move the undelivered tail of the
    /// slowest worker's lease to an idle, decisively faster worker.
    fn steal(&mut self, now_ms: u64, actions: &mut Vec<Action>) {
        if !self.orphans.is_empty() {
            return;
        }
        if let Some(total) = self.total {
            if self.frontier < total {
                return;
            }
        } else {
            return; // frontier still open — no need to steal yet
        }
        loop {
            let Some(thief) = self
                .workers
                .iter()
                .filter(|(name, w)| w.phase == Phase::Active && !self.has_outstanding(name))
                .max_by(|a, b| a.1.ewma.total_cmp(&b.1.ewma))
                .map(|(name, _)| name.clone())
            else {
                return;
            };
            let thief_ewma = self.workers[&thief].ewma;
            // The victim: the live lease whose owner has the lowest EWMA,
            // with an undelivered tail worth moving.
            let victim = self
                .leases
                .iter()
                .filter(|(_, l)| l.worker != thief)
                .filter(|(_, l)| l.end > l.start.max(self.delivered))
                .filter(|(_, l)| {
                    let owner = &self.workers[&l.worker];
                    // Require a decisive speed edge (or skip while every
                    // rate is still unknown). EWMAs measure *delivered*
                    // frame rates, so a worker whose compute is done but
                    // whose emission crawls — a throttled link, an
                    // overloaded host — is still a legitimate victim. An
                    // owner whose frames stopped for a whole heartbeat
                    // window while it kept heartbeating (wedged emitter,
                    // not a frozen process) is stealable outright: idle
                    // EWMAs all decay at the same per-sample rate, so
                    // waiting for the ratio alone could livelock.
                    let frame_silent = now_ms.saturating_sub(owner.last_frame_ms)
                        > self.config.heartbeat_timeout_ms;
                    thief_ewma > 0.0
                        && (frame_silent || thief_ewma >= owner.ewma * self.config.steal_ratio)
                })
                .map(|(id, l)| (*id, l.worker.clone(), l.start.max(self.delivered), l.end))
                .next();
            let Some((lease, from, start, end)) = victim else {
                return;
            };
            self.leases.remove(&lease);
            actions.push(Action::Revoke {
                worker: from.clone(),
                lease,
            });
            self.grant(&thief, start, end, actions);
            // The thief's frame silence counts from this hand-over: it has
            // not had a chance to emit the range yet. Otherwise two
            // frame-silent workers would steal the range back and forth
            // forever inside this loop.
            if let Some(worker) = self.workers.get_mut(&thief) {
                worker.last_frame_ms = now_ms;
            }
            self.migrations.push(Migration {
                start,
                end,
                from,
                to: thief,
                reason: MigrationReason::Steal,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ReshardConfig {
        ReshardConfig {
            heartbeat_timeout_ms: 1_000,
            initial_lease: 8,
            min_lease: 4,
            max_lease: 64,
            target_lease_ms: 1_000,
            respawn_backoff_ms: 100,
            max_backoff_ms: 1_000,
            max_respawns: 1,
            ..ReshardConfig::default()
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

    #[test]
    fn idle_fast_workers_steal_from_slow_ones_once_the_frontier_dries() {
        let mut r = Resharder::new(ReshardConfig {
            initial_lease: 16,
            ..config()
        });
        r.worker_connected("fast", 0);
        r.worker_connected("slow", 0);
        r.tick(0); // fast: 0..16, slow: 16..32
        r.worker_done("fast", 32, 100);
        // fast emits everything it owns quickly; slow trickles.
        for t in 0..16 {
            r.frame_arrived("fast", 100 + t);
        }
        r.frame_arrived("slow", 150);
        r.lease_drained("fast", 0, 400);
        r.delivered(16);
        let actions = r.tick(500);
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, Action::Revoke { worker, .. } if worker == "slow")),
            "slow worker's lease must be revoked, got {actions:?}"
        );
        assert!(grants(&actions)
            .iter()
            .any(|(w, s, e)| w == "fast" && *s == 16 && *e == 32));
        let steal = r
            .migrations()
            .iter()
            .find(|m| m.reason == MigrationReason::Steal)
            .expect("a steal migration is recorded");
        assert_eq!((steal.start, steal.end), (16, 32));
        assert_eq!(steal.from, "slow");
        assert_eq!(steal.to, "fast");
    }

    /// Two workers that are both frame-silent (heartbeating, no frames)
    /// must not steal one range back and forth: a tick ends, and the range
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
        let actions = r.tick(300); // fast w0 steals w1's tail 9..16
        assert_eq!(grants(&actions), vec![("w0".to_owned(), 9, 16)]);

        // Both fall silent but keep heartbeating: w1 (idle) may take the
        // range from frame-silent w0, but the range must not bounce.
        r.note_heard("w0", 1_500);
        r.note_heard("w1", 1_500);
        let actions = r.tick(1_600);
        let steals = r
            .migrations()
            .iter()
            .filter(|m| m.reason == MigrationReason::Steal)
            .count();
        assert!(steals <= 3, "the range bounced: {steals} steals");
        assert!(grants(&actions).len() <= 2, "{actions:?}");
        // Nor across ticks: a range just handed over gets a full heartbeat
        // window before its new owner counts as frame-silent.
        let before = r.migrations().len();
        r.note_heard("w0", 1_700);
        r.note_heard("w1", 1_700);
        r.tick(1_700);
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
}
