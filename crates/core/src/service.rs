//! The campaign-service session layer: the transport-agnostic engine
//! behind the `nvmx-serve` daemon.
//!
//! [`CampaignService`] turns the one-shot campaign flow (parse a config,
//! run it, write artifacts, exit) into a resident multi-tenant service:
//!
//! - **Admission** — [`CampaignService::submit`] validates a config
//!   through the same [`CampaignConfig::from_json`] path every binary
//!   uses, assigns a session id, and places the session in a bounded
//!   priority queue (higher priority first, ties in
//!   submission order). A full queue or a draining service rejects with a
//!   typed [`AdmitError`] instead of blocking the caller.
//! - **Execution** — a fixed pool of lane threads (the service-resident
//!   equivalent of
//!   [`StudyScheduler::run_queue`](crate::scheduler::StudyScheduler::run_queue))
//!   pops sessions in priority order and runs them through
//!   [`StudyExecutor`] against **one shared warm
//!   [`SubarrayCache`]** — optionally backed by the persistent
//!   characterization store — and one shared [`IncumbentStore`], so every
//!   tenant's request after the first hits warm state (the multi-study
//!   bench measures 94–97 % hit rates warm).
//! - **Event channels** — each session's slot-ordered wire frames
//!   (protocol of [`crate::wire`]) are retained in a per-session log;
//!   any number of [`EventCursor`]s replay the log from the start and
//!   then follow live, so a client can attach, detach, and re-attach
//!   without perturbing the run. A client disconnect therefore cannot
//!   poison a session: the run writes to the log, never to a socket.
//! - **Determinism** — the engine underneath is the same byte-identical
//!   machinery the CLI uses, so a session's event stream (and the
//!   artifacts a client rebuilds from it) matches a cold local `run` of
//!   the same config byte for byte — except the terminal frame's
//!   observational cache counters, which legitimately reflect the warm
//!   shared cache (see `docs/PROTOCOL.md` § Determinism contract).
//! - **Tenant observability** — every session records the shared cache's
//!   [`CacheStats`] delta accrued while it ran, so tenants see their own
//!   hit rates ([`SessionSnapshot::cache`], and the `done` response frame
//!   on the wire).
//! - **Expiry** — with [`ServiceConfig::session_ttl`] set, a terminal
//!   session's retained log is garbage-collected once it has sat
//!   unreplayed past the TTL: the session row survives (phase
//!   [`SessionPhase::Reaped`], final event count preserved) but the
//!   lines are freed, bounding the daemon's memory over long campaigns.
//!   The sweep is lazy — every service entry point runs it, so no
//!   background timer thread exists.
//! - **Drain** — [`CampaignService::shutdown`] stops admission, lets the
//!   queue empty, joins the lanes, and flushes the store; nothing is
//!   aborted mid-run unless explicitly [`cancel`](CampaignService::cancel)led.
//!
//! The layer is deliberately free of sockets: `nvmx-serve` maps
//! connections onto these calls and copies cursor lines to clients. That
//! split keeps the session machinery testable in-process (see
//! `tests/service_equivalence.rs`) and the transport trivially
//! replaceable (Unix socket, TCP, or an in-memory pair in tests).

use crate::config::{CampaignConfig, ConfigError};
use crate::stream::{ResultSink, StudyEvent, StudyExecutor};
use crate::wire::{LineEncoder, SessionBrief};
use nvmx_nvsim::{CacheStats, IncumbentStore, SubarrayCache};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How a [`CampaignService`] is provisioned.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Characterization/evaluation worker threads per running session
    /// (the [`StudyExecutor::with_threads`] count).
    pub workers: usize,
    /// Sessions that may run concurrently (lane threads).
    pub lanes: usize,
    /// Maximum sessions waiting in the admission queue; a submit beyond
    /// this is rejected with [`AdmitError::QueueFull`].
    pub capacity: usize,
    /// Back the shared cache with the persistent characterization store
    /// at this directory (`nvmx_nvsim::store`), shared across tenants.
    pub store: Option<PathBuf>,
    /// Reap a session's retained event log this long after it reaches a
    /// terminal state. Reaped sessions stay listed (phase
    /// [`SessionPhase::Reaped`], event count preserved) but their lines
    /// are freed and can no longer be replayed. `None` retains logs for
    /// the life of the service.
    pub session_ttl: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            lanes: 1,
            capacity: 64,
            store: None,
            session_ttl: None,
        }
    }
}

/// Why a submission was not admitted.
#[derive(Debug)]
pub enum AdmitError {
    /// The service is draining: no new sessions are accepted.
    Draining,
    /// The admission queue is at [`ServiceConfig::capacity`].
    QueueFull {
        /// The configured capacity the queue is at.
        capacity: usize,
    },
    /// The submitted config failed validation.
    Config(ConfigError),
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Draining => write!(f, "service is draining; submissions are closed"),
            Self::QueueFull { capacity } => {
                write!(f, "admission queue is full ({capacity} sessions queued)")
            }
            Self::Config(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// A session's lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionPhase {
    /// Admitted, waiting for a lane.
    Queued,
    /// A lane is executing the campaign.
    Running,
    /// Ran to completion; the log ends with the terminal wire frame.
    Finished,
    /// The run failed; [`SessionSnapshot::error`] carries the reason.
    Failed,
    /// Cancelled before or during the run.
    Cancelled,
    /// Terminal state whose event log outlived
    /// [`ServiceConfig::session_ttl`] and was garbage-collected. The
    /// session stays listed (id, study, final event count), but its
    /// lines are gone: a new cursor yields nothing.
    Reaped,
}

impl SessionPhase {
    /// The state's wire spelling (the `state` field of a status row and
    /// the `outcome` field of a `done` response).
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Queued => "queued",
            Self::Running => "running",
            Self::Finished => "finished",
            Self::Failed => "failed",
            Self::Cancelled => "cancelled",
            Self::Reaped => "reaped",
        }
    }

    /// `true` for the states a session can never leave.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            Self::Finished | Self::Failed | Self::Cancelled | Self::Reaped
        )
    }
}

/// A point-in-time view of one session.
#[derive(Debug, Clone)]
pub struct SessionSnapshot {
    /// Session id.
    pub session: u64,
    /// Campaign name (the config's `name`).
    pub study: String,
    /// Admission priority.
    pub priority: u8,
    /// Lifecycle state at snapshot time.
    pub phase: SessionPhase,
    /// Wire lines emitted so far.
    pub events: u64,
    /// Failure reason, for [`SessionPhase::Failed`].
    pub error: Option<String>,
    /// The shared cache's counter delta accrued while this session ran —
    /// the tenant's own view of the warm cache. `None` until the session
    /// reaches a terminal state. Observational: concurrent sessions'
    /// deltas overlap, and counters race benignly at >1 workers.
    pub cache: Option<CacheStats>,
}

impl SessionSnapshot {
    /// The snapshot as a wire status row.
    pub fn brief(&self) -> SessionBrief {
        SessionBrief {
            session: self.session,
            study: self.study.clone(),
            state: self.phase.as_str().to_owned(),
            priority: self.priority,
            events: self.events,
        }
    }
}

/// A point-in-time view of the whole service.
#[derive(Debug, Clone)]
pub struct ServiceStatus {
    /// `true` once [`CampaignService::shutdown`] was called.
    pub draining: bool,
    /// Sessions admitted but not yet claimed by a lane.
    pub queue_depth: u64,
    /// The admission queue's capacity.
    pub capacity: u64,
    /// Every session the service remembers, in submission order —
    /// including reaped ones, whose rows report phase
    /// [`SessionPhase::Reaped`] with the final event count preserved.
    pub sessions: Vec<SessionSnapshot>,
    /// How many of [`sessions`](Self::sessions) have had their event log
    /// reaped under [`ServiceConfig::session_ttl`].
    pub reaped: u64,
    /// Cumulative shared-cache counters since the service started.
    pub cache: CacheStats,
}

/// What [`CampaignService::submit`] returns: the assigned session id and
/// where it landed in the queue.
#[derive(Debug, Clone)]
pub struct Admission {
    /// The new session's id.
    pub session: u64,
    /// The campaign name the config resolved to.
    pub study: String,
    /// Sessions queued ahead at admission time.
    pub queue_depth: u64,
}

// ------------------------------------------------------------- internals

/// Mutable per-session state, guarded by the session's own mutex so log
/// appends never contend with the service-wide lock.
struct SessionState {
    phase: SessionPhase,
    /// Every wire line the session has emitted, in slot order.
    /// Emptied when the session is reaped.
    lines: Vec<Arc<str>>,
    /// The campaign, parked here until a lane claims it.
    campaign: Option<CampaignConfig>,
    error: Option<String>,
    cache: Option<CacheStats>,
    /// When the session first reached a terminal phase — the baseline the
    /// TTL reaper measures from.
    terminal_at: Option<Instant>,
    /// The line count the log held when it was reaped; snapshots report
    /// this instead of `lines.len()` once the phase is `Reaped`.
    reaped_events: u64,
}

struct Session {
    id: u64,
    study: String,
    priority: u8,
    /// Admission sequence — the FIFO tiebreak within a priority class.
    admitted: u64,
    cancelled: AtomicBool,
    state: Mutex<SessionState>,
    /// Signalled on every appended line and on every phase change.
    wake: Condvar,
}

impl Session {
    fn snapshot(&self) -> SessionSnapshot {
        let state = self.state.lock().expect("session lock");
        SessionSnapshot {
            session: self.id,
            study: self.study.clone(),
            priority: self.priority,
            phase: state.phase,
            events: match state.phase {
                SessionPhase::Reaped => state.reaped_events,
                _ => state.lines.len() as u64,
            },
            error: state.error.clone(),
            cache: state.cache,
        }
    }

    /// Moves the session to a terminal phase and wakes every cursor.
    fn finish(&self, phase: SessionPhase, error: Option<String>, cache: Option<CacheStats>) {
        let mut state = self.state.lock().expect("session lock");
        state.phase = phase;
        state.error = error;
        state.cache = cache;
        state.terminal_at = Some(Instant::now());
        drop(state);
        self.wake.notify_all();
    }
}

/// Service-wide mutable state.
struct ServiceState {
    next_session: u64,
    admitted: u64,
    /// Queued session ids; popped best-(priority, admission order)-first.
    queue: Vec<u64>,
    /// Every session ever admitted, by id (status lists these in
    /// submission order — BTreeMap iteration order is id order, and ids
    /// are assigned in submission order).
    sessions: BTreeMap<u64, Arc<Session>>,
    draining: bool,
}

struct ServiceInner {
    config: ServiceConfig,
    cache: SubarrayCache,
    seeds: IncumbentStore,
    state: Mutex<ServiceState>,
    /// Signalled when the queue gains work or draining starts.
    work: Condvar,
}

impl ServiceInner {
    /// Pops the best queued session, or parks until there is one. `None`
    /// means the service is draining and the queue is empty — the lane
    /// should exit.
    fn claim(&self) -> Option<Arc<Session>> {
        let mut state = self.state.lock().expect("service lock");
        loop {
            if let Some(best) = Self::pop_best(&mut state) {
                return Some(best);
            }
            if state.draining {
                return None;
            }
            state = self.work.wait(state).expect("service lock");
        }
    }

    fn pop_best(state: &mut ServiceState) -> Option<Arc<Session>> {
        let (index, _) = state
            .queue
            .iter()
            .enumerate()
            .map(|(i, id)| {
                let session = &state.sessions[id];
                // Max by priority, then min by admission sequence: negate
                // the sequence into a key where bigger is always better.
                (i, (session.priority, u64::MAX - session.admitted))
            })
            .max_by_key(|&(_, key)| key)?;
        let id = state.queue.swap_remove(index);
        Some(Arc::clone(&state.sessions[&id]))
    }

    /// Reaps terminal sessions whose logs have outlived
    /// [`ServiceConfig::session_ttl`]: frees the retained lines, records
    /// the final count, and moves the phase to
    /// [`SessionPhase::Reaped`]. Invoked lazily from every service entry
    /// point, so expiry needs no background thread. A no-op without a
    /// TTL. Cursors parked on a session it reaps wake and terminate
    /// (their remaining lines are gone — the phase is terminal).
    fn reap_expired(&self, state: &ServiceState) {
        let Some(ttl) = self.config.session_ttl else {
            return;
        };
        let now = Instant::now();
        for session in state.sessions.values() {
            let mut s = session.state.lock().expect("session lock");
            let expired = s.phase.is_terminal()
                && s.phase != SessionPhase::Reaped
                && s.terminal_at
                    .is_some_and(|at| now.duration_since(at) >= ttl);
            if expired {
                s.reaped_events = s.lines.len() as u64;
                s.lines = Vec::new();
                s.phase = SessionPhase::Reaped;
                drop(s);
                session.wake.notify_all();
            }
        }
    }

    /// One lane: claim → run → publish terminal state, forever.
    fn lane(self: &Arc<Self>) {
        while let Some(session) = self.claim() {
            self.run_session(&session);
        }
    }

    fn run_session(&self, session: &Session) {
        let campaign = {
            let mut state = session.state.lock().expect("session lock");
            if session.cancelled.load(Ordering::Acquire) {
                drop(state);
                session.finish(SessionPhase::Cancelled, None, Some(CacheStats::default()));
                return;
            }
            state.phase = SessionPhase::Running;
            state
                .campaign
                .take()
                .expect("a queued session holds its campaign")
        };
        session.wake.notify_all();

        let before = self.cache.stats();
        let mut sink = SessionSink {
            lines: LineEncoder::new(),
            session,
        };
        let executor = StudyExecutor::with_threads(self.config.workers)
            .cache(&self.cache)
            .seeds(&self.seeds);
        let outcome = executor.run_campaign(&campaign, &mut sink);
        let delta = self.cache.stats().since(before);

        match outcome {
            Ok(_) => session.finish(SessionPhase::Finished, None, Some(delta)),
            Err(e) => {
                if session.cancelled.load(Ordering::Acquire) {
                    // The sink aborted the run on the cancel flag; the
                    // StudyError is the mechanism, not the diagnosis.
                    session.finish(SessionPhase::Cancelled, None, Some(delta));
                } else {
                    session.finish(SessionPhase::Failed, Some(e.to_string()), Some(delta));
                }
            }
        }
        // Session slabs are published eagerly at drain time; per-session
        // flushes keep the store warm for tenants on *other* service
        // processes sharing the directory.
        if self.config.store.is_some() {
            let _ = self.cache.flush_store();
        }
    }
}

/// The abort error a cancelled session's sink raises; the lane maps it
/// back to [`SessionPhase::Cancelled`] via the session's flag.
const CANCELLED: &str = "session cancelled";

/// Appends each event's wire line to the session log, waking cursors as
/// it lands, and aborts the run between events once the session is
/// cancelled.
struct SessionSink<'s> {
    lines: LineEncoder,
    session: &'s Session,
}

impl ResultSink for SessionSink<'_> {
    fn on_event(&mut self, event: &StudyEvent<'_>) -> std::io::Result<()> {
        if self.session.cancelled.load(Ordering::Acquire) {
            return Err(std::io::Error::other(CANCELLED));
        }
        let line = Arc::from(self.lines.encode(event));
        self.session
            .state
            .lock()
            .expect("session lock")
            .lines
            .push(line);
        self.session.wake.notify_all();
        Ok(())
    }
}

// ------------------------------------------------------------- cursors

/// A read position in one session's event log: replays everything already
/// emitted, then follows live.
///
/// Cursors are independent — any number may read one session, and
/// dropping a cursor (a disconnected client) has no effect on the session
/// or on other cursors.
pub struct EventCursor {
    session: Arc<Session>,
    next: usize,
}

impl EventCursor {
    /// Blocks until the next line is available, returning `None` once the
    /// session is terminal and every line has been consumed.
    pub fn next_line(&mut self) -> Option<Arc<str>> {
        let mut state = self.session.state.lock().expect("session lock");
        loop {
            if let Some(line) = state.lines.get(self.next) {
                self.next += 1;
                return Some(Arc::clone(line));
            }
            if state.phase.is_terminal() {
                return None;
            }
            state = self.session.wake.wait(state).expect("session lock");
        }
    }

    /// The next line if one is already in the log, without blocking —
    /// `None` means "nothing ready right now" (the session may still be
    /// running). A writer drains these, flushes, and only then parks in
    /// [`Self::next_line`], so it flushes when the cursor would block
    /// rather than once per line.
    pub fn try_next_line(&mut self) -> Option<Arc<str>> {
        let state = self.session.state.lock().expect("session lock");
        let line = Arc::clone(state.lines.get(self.next)?);
        self.next += 1;
        Some(line)
    }

    /// The lines already consumed through this cursor.
    pub fn consumed(&self) -> usize {
        self.next
    }

    /// A snapshot of the cursor's session (phase, error, cache delta).
    pub fn snapshot(&self) -> SessionSnapshot {
        self.session.snapshot()
    }
}

// ------------------------------------------------------------- service

/// The resident multi-tenant campaign engine. See the [module
/// docs](self) for the full lifecycle.
pub struct CampaignService {
    inner: Arc<ServiceInner>,
    lanes: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl CampaignService {
    /// Starts a service: provisions the shared cache (store-backed when
    /// [`ServiceConfig::store`] is set) and spawns the lane threads.
    ///
    /// # Errors
    ///
    /// When the store directory cannot be created or opened.
    pub fn start(config: ServiceConfig) -> std::io::Result<Self> {
        let cache = match &config.store {
            Some(dir) => SubarrayCache::with_store(dir)?,
            None => SubarrayCache::new(),
        };
        let lanes = config.lanes.max(1);
        let inner = Arc::new(ServiceInner {
            config,
            cache,
            seeds: IncumbentStore::new(),
            state: Mutex::new(ServiceState {
                next_session: 1,
                admitted: 0,
                queue: Vec::new(),
                sessions: BTreeMap::new(),
                draining: false,
            }),
            work: Condvar::new(),
        });
        let handles = (0..lanes)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("nvmx-serve-lane-{i}"))
                    .spawn(move || inner.lane())
                    .expect("lane threads spawn")
            })
            .collect();
        Ok(Self {
            inner,
            lanes: Mutex::new(handles),
        })
    }

    /// Validates and admits one campaign config (the raw JSON text of a
    /// config file), returning the session id and queue position.
    ///
    /// # Errors
    ///
    /// [`AdmitError`] when the service is draining, the queue is full, or
    /// the config fails validation.
    pub fn submit(&self, config_json: &str, priority: u8) -> Result<Admission, AdmitError> {
        // Parse outside the lock — config validation is pure CPU.
        let campaign = CampaignConfig::from_json(config_json).map_err(AdmitError::Config)?;
        let study = campaign.name().to_owned();
        let mut state = self.inner.state.lock().expect("service lock");
        self.inner.reap_expired(&state);
        if state.draining {
            return Err(AdmitError::Draining);
        }
        if state.queue.len() >= self.inner.config.capacity {
            return Err(AdmitError::QueueFull {
                capacity: self.inner.config.capacity,
            });
        }
        let id = state.next_session;
        state.next_session += 1;
        let admitted = state.admitted;
        state.admitted += 1;
        let session = Arc::new(Session {
            id,
            study: study.clone(),
            priority,
            admitted,
            cancelled: AtomicBool::new(false),
            state: Mutex::new(SessionState {
                phase: SessionPhase::Queued,
                lines: Vec::new(),
                campaign: Some(campaign),
                error: None,
                cache: None,
                terminal_at: None,
                reaped_events: 0,
            }),
            wake: Condvar::new(),
        });
        let queue_depth = state.queue.len() as u64;
        state.sessions.insert(id, session);
        state.queue.push(id);
        drop(state);
        self.inner.work.notify_one();
        Ok(Admission {
            session: id,
            study,
            queue_depth,
        })
    }

    /// A cursor over `session`'s event log (replay-then-follow), or
    /// `None` for an unknown session id.
    pub fn events(&self, session: u64) -> Option<EventCursor> {
        let state = self.inner.state.lock().expect("service lock");
        self.inner.reap_expired(&state);
        let session = Arc::clone(state.sessions.get(&session)?);
        Some(EventCursor { session, next: 0 })
    }

    /// Cancels a session. Returns `None` for an unknown id; otherwise
    /// `true` when the session was still queued or running (the cancel
    /// had an effect), `false` when it had already reached a terminal
    /// state.
    pub fn cancel(&self, session: u64) -> Option<bool> {
        let session = {
            let state = self.inner.state.lock().expect("service lock");
            self.inner.reap_expired(&state);
            Arc::clone(state.sessions.get(&session)?)
        };
        session.cancelled.store(true, Ordering::Release);
        let phase = session.state.lock().expect("session lock").phase;
        match phase {
            SessionPhase::Queued => {
                // Claimed-but-not-yet-running still passes through the
                // lane's cancelled check; removing from the queue here
                // just skips the pointless claim.
                let mut state = self.inner.state.lock().expect("service lock");
                state.queue.retain(|&id| id != session.id);
                drop(state);
                session.finish(SessionPhase::Cancelled, None, Some(CacheStats::default()));
                Some(true)
            }
            SessionPhase::Running => Some(true),
            terminal => {
                debug_assert!(terminal.is_terminal());
                Some(false)
            }
        }
    }

    /// A snapshot of one session, or `None` for an unknown id.
    pub fn session(&self, session: u64) -> Option<SessionSnapshot> {
        let state = self.inner.state.lock().expect("service lock");
        self.inner.reap_expired(&state);
        state.sessions.get(&session).map(|s| s.snapshot())
    }

    /// A snapshot of the whole service.
    pub fn status(&self) -> ServiceStatus {
        let state = self.inner.state.lock().expect("service lock");
        self.inner.reap_expired(&state);
        let sessions: Vec<SessionSnapshot> =
            state.sessions.values().map(|s| s.snapshot()).collect();
        let reaped = sessions
            .iter()
            .filter(|s| s.phase == SessionPhase::Reaped)
            .count() as u64;
        ServiceStatus {
            draining: state.draining,
            queue_depth: state.queue.len() as u64,
            capacity: self.inner.config.capacity as u64,
            sessions,
            reaped,
            cache: self.inner.cache.stats(),
        }
    }

    /// Begins draining: no further submissions are admitted; queued and
    /// running sessions complete normally. Idempotent.
    pub fn shutdown(&self) {
        let mut state = self.inner.state.lock().expect("service lock");
        state.draining = true;
        drop(state);
        self.inner.work.notify_all();
    }

    /// Drains and joins the lanes, then flushes the store. Every queued
    /// session has reached a terminal state when this returns. Callable
    /// through a shared handle (the daemon's connection handlers hold the
    /// service in an `Arc`); concurrent drains are safe — the second
    /// caller finds no lanes left to join.
    ///
    /// # Errors
    ///
    /// When the final store flush fails (sessions have still all
    /// completed; only slab publication is affected).
    pub fn drain(&self) -> std::io::Result<CacheStats> {
        self.shutdown();
        let handles: Vec<_> = self
            .lanes
            .lock()
            .expect("lane registry")
            .drain(..)
            .collect();
        for lane in handles {
            let _ = lane.join();
        }
        if self.inner.config.store.is_some() {
            self.inner.cache.flush_store()?;
        }
        Ok(self.inner.cache.stats())
    }

    /// [`drain`](Self::drain), consuming the service.
    ///
    /// # Errors
    ///
    /// Same as [`drain`](Self::drain).
    pub fn join(self) -> std::io::Result<CacheStats> {
        self.drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONFIG: &str = r#"{
        "name": "service-unit",
        "cells": {"technologies": ["Stt"],
                  "reference_rram": false, "sram_baseline": false},
        "array": {"capacities_mib": [2], "word_bits": 64,
                  "targets": ["ReadEdp"]},
        "traffic": {"kind": "explicit", "patterns": [
            {"name": "t", "read_bytes_per_sec": 1.0e9,
             "write_bytes_per_sec": 1.0e7, "access_bytes": 64}]}
    }"#;

    fn drain_lines(cursor: &mut EventCursor) -> Vec<Arc<str>> {
        let mut lines = Vec::new();
        while let Some(line) = cursor.next_line() {
            lines.push(line);
        }
        lines
    }

    #[test]
    fn submit_run_and_replay_a_session() {
        let service = CampaignService::start(ServiceConfig::default()).unwrap();
        let admitted = service.submit(CONFIG, 0).expect("config admits");
        assert_eq!(admitted.study, "service-unit");
        let mut cursor = service.events(admitted.session).expect("session exists");
        let lines = drain_lines(&mut cursor);
        let snapshot = cursor.snapshot();
        assert!(
            lines.len() > 2,
            "a run emits at least the bracketing events; session ended {:?} ({:?})",
            snapshot.phase,
            snapshot.error
        );
        assert_eq!(snapshot.phase, SessionPhase::Finished);
        assert_eq!(snapshot.events, lines.len() as u64);
        let delta = snapshot.cache.expect("terminal sessions carry a delta");
        assert!(delta.lookups() > 0, "the session touched the shared cache");

        // The log replays strictly through the wire machinery.
        let text = lines
            .iter()
            .map(|l| l.as_ref())
            .collect::<Vec<_>>()
            .join("\n");
        let replayed = crate::wire::replay(std::io::Cursor::new(text)).expect("log replays");
        assert_eq!(replayed.study, "service-unit");
        assert_eq!(replayed.frames, lines.len() as u64);

        // A late cursor sees the identical log.
        let mut again = service.events(admitted.session).expect("still known");
        assert_eq!(drain_lines(&mut again), lines);

        let stats = service.join().expect("drains clean");
        assert!(stats.lookups() > 0);
    }

    #[test]
    fn admission_rejects_bad_configs_full_queues_and_draining() {
        let service = CampaignService::start(ServiceConfig {
            capacity: 0,
            ..ServiceConfig::default()
        })
        .unwrap();
        assert!(matches!(
            service.submit("{not json", 0),
            Err(AdmitError::Config(_))
        ));
        let zero_lookups =
            r#"{"name": "z", "traffic": {"kind": "spec_llc", "lookups": 0, "seed": 1}}"#;
        assert!(matches!(
            service.submit(zero_lookups, 0),
            Err(AdmitError::Config(e)) if e.section() == Some("traffic")
        ));
        assert!(matches!(
            service.submit(CONFIG, 0),
            Err(AdmitError::QueueFull { capacity: 0 })
        ));
        service.shutdown();
        assert!(matches!(
            service.submit(CONFIG, 0),
            Err(AdmitError::Draining)
        ));
        service.join().expect("drains clean");
    }

    #[test]
    fn priority_orders_the_queue_and_ties_break_fifo() {
        let mut state = ServiceState {
            next_session: 1,
            admitted: 0,
            queue: Vec::new(),
            sessions: BTreeMap::new(),
            draining: false,
        };
        for (id, priority) in [(1, 0), (2, 9), (3, 9), (4, 4)] {
            state.sessions.insert(
                id,
                Arc::new(Session {
                    id,
                    study: "s".into(),
                    priority,
                    admitted: id,
                    cancelled: AtomicBool::new(false),
                    state: Mutex::new(SessionState {
                        phase: SessionPhase::Queued,
                        lines: Vec::new(),
                        campaign: None,
                        error: None,
                        cache: None,
                        terminal_at: None,
                        reaped_events: 0,
                    }),
                    wake: Condvar::new(),
                }),
            );
            state.queue.push(id);
        }
        let order: Vec<u64> = std::iter::from_fn(|| ServiceInner::pop_best(&mut state))
            .map(|s| s.id)
            .collect();
        assert_eq!(
            order,
            vec![2, 3, 4, 1],
            "priority desc, FIFO within a class"
        );
    }

    #[test]
    fn cancelling_a_queued_session_never_runs_it() {
        // No lanes are started: drive the queue by hand so the session
        // stays queued for the cancel.
        let service = CampaignService::start(ServiceConfig {
            lanes: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        // Park the lane on a long-running session first? Simpler: cancel
        // races admission here; both orders must end Cancelled or
        // Finished, never Failed.
        let admitted = service.submit(CONFIG, 0).expect("admits");
        let active = service.cancel(admitted.session).expect("known session");
        let _ = active;
        let mut cursor = service.events(admitted.session).expect("known session");
        let _ = drain_lines(&mut cursor);
        let phase = cursor.snapshot().phase;
        assert!(
            matches!(phase, SessionPhase::Cancelled | SessionPhase::Finished),
            "cancel must never fail a session, got {phase:?}"
        );
        assert!(
            matches!(service.cancel(admitted.session), Some(false)),
            "terminal sessions report the cancel as a no-op"
        );
        assert_eq!(service.cancel(999), None);
        service.join().expect("drains clean");
    }

    #[test]
    fn session_ttl_reaps_terminal_logs_but_keeps_the_row() {
        let service = CampaignService::start(ServiceConfig {
            session_ttl: Some(Duration::ZERO),
            ..ServiceConfig::default()
        })
        .unwrap();
        let admitted = service.submit(CONFIG, 0).expect("admits");
        let mut cursor = service.events(admitted.session).expect("known");
        let lines = drain_lines(&mut cursor);
        assert!(lines.len() > 2, "the session ran");

        // Any entry point sweeps; with a zero TTL the first touch after
        // the terminal transition reaps the log.
        let status = service.status();
        assert_eq!(status.reaped, 1);
        let row = &status.sessions[0];
        assert_eq!(row.phase, SessionPhase::Reaped);
        assert!(row.phase.is_terminal());
        assert_eq!(row.brief().state, "reaped");
        assert_eq!(
            row.events,
            lines.len() as u64,
            "the final event count survives the reap"
        );

        // The lines themselves are gone: a fresh cursor terminates dry.
        let mut late = service.events(admitted.session).expect("still listed");
        assert_eq!(drain_lines(&mut late), Vec::<Arc<str>>::new());
        // Cancelling a reaped session is a terminal no-op.
        assert!(matches!(service.cancel(admitted.session), Some(false)));
        service.join().expect("drains clean");
    }

    #[test]
    fn without_a_ttl_nothing_is_ever_reaped() {
        let service = CampaignService::start(ServiceConfig::default()).unwrap();
        let admitted = service.submit(CONFIG, 0).expect("admits");
        let mut cursor = service.events(admitted.session).expect("known");
        let lines = drain_lines(&mut cursor);
        let status = service.status();
        assert_eq!(status.reaped, 0);
        assert_eq!(status.sessions[0].phase, SessionPhase::Finished);
        let mut again = service.events(admitted.session).expect("known");
        assert_eq!(drain_lines(&mut again).len(), lines.len());
        service.join().expect("drains clean");
    }

    #[test]
    fn status_reports_queue_sessions_and_cache() {
        let service = CampaignService::start(ServiceConfig::default()).unwrap();
        let admitted = service.submit(CONFIG, 3).expect("admits");
        let mut cursor = service.events(admitted.session).expect("known");
        let _ = drain_lines(&mut cursor);
        let status = service.status();
        assert_eq!(status.capacity, 64);
        assert_eq!(status.sessions.len(), 1);
        let row = status.sessions[0].brief();
        assert_eq!(row.session, admitted.session);
        assert_eq!(row.priority, 3);
        assert_eq!(row.state, "finished");
        assert!(row.events > 0);
        service.join().expect("drains clean");
    }
}
