//! Property tests for the lease/heartbeat supervision state machine
//! (`nvmexplorer_core::reshard`) composed with the slot merger.
//!
//! The harness simulates a coordinator driving protocol-compliant
//! workers through arbitrary connect / progress / stall / die /
//! reconnect schedules drawn by proptest, then heals the fleet and runs
//! the campaign to completion. The invariant under test is the
//! exactly-once delivery contract behind the byte-identity guarantee:
//! **no slot is lost and no slot is committed twice**, no matter how
//! leases migrate between workers — the committed sequence is exactly
//! `0..total`, in order. (Workers emit overlapping ranges freely after a
//! re-lease; [`SlotMerger`] absorbs the duplicates. What the supervisor
//! must guarantee is that every slot stays covered by *some* live or
//! re-grantable lease until delivered.)
//!
//! Time is simulated — the state machine takes `now_ms` arguments and
//! returns effects as [`Action`] values, so the whole protocol runs
//! here without sockets, processes, or sleeps.

use nvmexplorer_core::reshard::{Action, MigrationReason, ReshardConfig, Resharder};
use nvmexplorer_core::wire::SlotMerger;
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};
use std::convert::Infallible;

/// One step of the generated schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// The worker's emitter makes progress: up to `k` slots served from
    /// its granted leases (first grant first, like the real FIFO
    /// emitter). The first progress of a worker's process also reports
    /// its engine `done` — compute is independent of leases.
    Progress(usize, u8),
    /// The worker's heartbeat thread gets a beat out.
    Heartbeat(usize),
    /// The worker's process crashes (connection death).
    Die(usize),
    /// SIGSTOP analog: the worker stops emitting and heartbeating but
    /// its process and connection stay up.
    Stall(usize),
    /// SIGCONT analog: a stalled worker resumes before the deadline.
    Resume(usize),
    /// The worker's emitter hangs for good while its heartbeats go on:
    /// it is never killed, and only a silence re-lease moves its lease.
    Wedge(usize),
    /// A down worker's replacement process (re)connects on its own —
    /// the remote-shard reconnect path.
    Connect(usize),
    /// Wall-clock advances with no worker activity.
    Advance(u16),
}

/// The sim's model of one worker process.
#[derive(Debug, Default)]
struct SimWorker {
    /// Process alive and `hello` exchanged (mirrors the supervisor's
    /// Active phase).
    connected: bool,
    /// SIGSTOPped: no emission, no heartbeats, connection still open.
    stopped: bool,
    /// Emitter hung: no emission, but heartbeats continue.
    wedged: bool,
    /// Permanently out (the supervisor abandoned it).
    gone: bool,
    /// This incarnation already reported `done`.
    done: bool,
    /// Live grants, FIFO: `(lease id, next slot to emit, end)`.
    grants: Vec<(u64, u64, u64)>,
}

struct Sim {
    resharder: Resharder,
    merger: SlotMerger<u64>,
    workers: BTreeMap<String, SimWorker>,
    committed: Vec<u64>,
    now: u64,
    total: u64,
    /// Run a supervisor round after every served frame, as the
    /// coordinator's merge loop ticks after every message.
    tick_every_frame: bool,
    /// Every effect the supervisor returned, in the order applied.
    actions: Vec<Action>,
    /// Leases a worker lost to a revoke, kill or death, as
    /// `(worker, lease)`: a drain it reports for one of them is late.
    dropped: Vec<(String, u64)>,
}

/// The proptest schedules' supervisor knobs: short deadlines and small
/// leases, so a few dozen ops exercise every transition.
fn sim_config() -> ReshardConfig {
    ReshardConfig {
        heartbeat_timeout_ms: 1_000,
        lease_size: 8,
        respawn_backoff_ms: 100,
        max_backoff_ms: 800,
        max_respawns: 3,
    }
}

impl Sim {
    fn new(n_workers: usize, total: u64) -> Self {
        Self::with_config(n_workers, total, sim_config())
    }

    fn with_config(n_workers: usize, total: u64, config: ReshardConfig) -> Self {
        let mut resharder = Resharder::new(config);
        let mut workers = BTreeMap::new();
        for i in 0..n_workers {
            let name = format!("w{i}");
            resharder.expect_worker(&name, 0);
            workers.insert(name, SimWorker::default());
        }
        Self {
            resharder,
            merger: SlotMerger::new(),
            workers,
            committed: Vec::new(),
            now: 0,
            total,
            tick_every_frame: false,
            actions: Vec::new(),
            dropped: Vec::new(),
        }
    }

    fn name(&self, index: usize) -> String {
        let names: Vec<&String> = self.workers.keys().collect();
        names[index % names.len()].clone()
    }

    /// Serves up to `k` slots from the worker's grant queue, reporting
    /// frames, drains, and `done` to the supervisor like the real
    /// emitter thread does.
    fn progress(&mut self, name: &str, k: u8) {
        let state = self.workers.get_mut(name).expect("known worker");
        if !state.connected || state.stopped || state.wedged {
            return;
        }
        if !state.done {
            state.done = true;
            self.resharder.worker_done(name, self.total, self.now);
        }
        for _ in 0..k {
            let state = self.workers.get_mut(name).expect("known worker");
            if !state.connected {
                break; // killed by a tick between two frames
            }
            let Some(&(lease, cursor, end)) = state.grants.first() else {
                break;
            };
            if cursor < self.total && cursor < end {
                self.resharder.frame_arrived(name, self.now);
                let committed = &mut self.committed;
                self.merger
                    .offer(cursor, cursor, &mut |slot, _| {
                        committed.push(slot);
                        Ok::<(), Infallible>(())
                    })
                    .unwrap();
            }
            let state = self.workers.get_mut(name).expect("known worker");
            state.grants[0].1 = cursor + 1;
            if cursor + 1 >= end {
                // Every owned slot served (slots past the stream end
                // drain harmlessly — the engine has no lines for them).
                state.grants.remove(0);
                self.resharder.lease_drained(name, lease, self.now);
            }
            if self.tick_every_frame {
                self.round();
            }
        }
    }

    /// Applies a batch of supervisor effects, feeding any follow-on
    /// effects (a kill's death notice can trigger an abandonment) back
    /// through the queue.
    fn apply(&mut self, actions: Vec<Action>) {
        let mut queue: VecDeque<Action> = actions.into();
        while let Some(action) = queue.pop_front() {
            self.actions.push(action.clone());
            match action {
                Action::Grant {
                    worker,
                    lease,
                    start,
                    end,
                } => {
                    let state = self.workers.get_mut(&worker).expect("known worker");
                    prop_assert!(
                        state.connected && !state.gone,
                        "grant of {start}..{end} to a disconnected worker {worker}"
                    );
                    state.grants.push((lease, start, end));
                }
                Action::Revoke { worker, lease } => {
                    let state = self.workers.get_mut(&worker).expect("known worker");
                    state.grants.retain(|g| g.0 != lease);
                    self.dropped.push((worker, lease));
                }
                Action::Kill { worker } => {
                    let state = self.workers.get_mut(&worker).expect("known worker");
                    state.connected = false;
                    state.stopped = false;
                    state.wedged = false;
                    let lost = state.grants.drain(..).map(|g| (worker.clone(), g.0));
                    self.dropped.extend(lost);
                    queue.extend(self.resharder.worker_dead(&worker, self.now));
                }
                Action::Respawn { worker } => {
                    let state = self.workers.get_mut(&worker).expect("known worker");
                    if !state.gone {
                        state.connected = true;
                        state.stopped = false;
                        state.wedged = false;
                        state.done = false;
                        state.grants.clear();
                        self.resharder.worker_connected(&worker, self.now);
                    }
                }
                Action::Abandon { worker } => {
                    let state = self.workers.get_mut(&worker).expect("known worker");
                    state.gone = true;
                    state.connected = false;
                    state.grants.clear();
                }
            }
        }
    }

    /// One supervisor round: publish the merge watermark, tick, apply.
    fn round(&mut self) {
        self.resharder.delivered(self.merger.next_expected());
        let actions = self.resharder.tick(self.now);
        self.apply(actions);
    }

    fn step(&mut self, op: Op) {
        self.now += 10;
        match op {
            Op::Progress(i, k) => {
                let name = self.name(i);
                self.progress(&name, k);
            }
            Op::Heartbeat(i) => {
                let name = self.name(i);
                let state = &self.workers[&name];
                if state.connected && !state.stopped {
                    self.resharder.note_heard(&name, self.now);
                }
            }
            Op::Die(i) => {
                let name = self.name(i);
                let state = self.workers.get_mut(&name).expect("known worker");
                if state.connected {
                    state.connected = false;
                    state.stopped = false;
                    state.wedged = false;
                    let lost = state.grants.drain(..).map(|g| (name.clone(), g.0));
                    self.dropped.extend(lost);
                    let actions = self.resharder.worker_dead(&name, self.now);
                    self.apply(actions);
                }
            }
            Op::Stall(i) => {
                let name = self.name(i);
                let state = self.workers.get_mut(&name).expect("known worker");
                if state.connected {
                    state.stopped = true;
                }
            }
            Op::Resume(i) => {
                let name = self.name(i);
                let state = self.workers.get_mut(&name).expect("known worker");
                if state.connected && state.stopped {
                    state.stopped = false;
                    self.resharder.note_heard(&name, self.now);
                }
            }
            Op::Wedge(i) => {
                let name = self.name(i);
                let state = self.workers.get_mut(&name).expect("known worker");
                state.wedged = state.connected;
            }
            Op::Connect(i) => {
                let name = self.name(i);
                let state = self.workers.get_mut(&name).expect("known worker");
                if !state.connected && !state.gone {
                    state.connected = true;
                    state.stopped = false;
                    state.wedged = false;
                    state.done = false;
                    state.grants.clear();
                    self.resharder.worker_connected(&name, self.now);
                }
            }
            Op::Advance(ms) => {
                self.now += u64::from(ms);
            }
        }
        self.round();
    }

    /// Drives the surviving fleet until every slot is delivered. Returns
    /// `false` when the supervisor abandoned every worker — the real
    /// coordinator aborts the campaign there, so no delivery is owed.
    fn heal(&mut self) -> bool {
        let mut guard = 0u32;
        while self.merger.next_expected() < self.total {
            guard += 1;
            prop_assert!(
                guard < 20_000,
                "heal did not converge: delivered {} of {} (pending {})",
                self.merger.next_expected(),
                self.total,
                self.merger.pending()
            );
            if self.resharder.live_workers() == 0 {
                return false;
            }
            self.now += 50;
            let names: Vec<String> = self.workers.keys().cloned().collect();
            for name in names {
                let state = &self.workers[&name];
                if state.connected && !state.stopped {
                    self.resharder.note_heard(&name, self.now);
                    self.progress(&name, 4);
                }
            }
            self.round();
        }
        true
    }
}

/// Weighted op choice, built from plain tuple + map (the offline
/// proptest shim has no `prop_oneof!`).
fn ops(n_workers: usize) -> impl Strategy<Value = Vec<Op>> {
    let op =
        (0usize..12, 0..n_workers, 1u8..12, (50u16..1_500)).prop_map(
            |(kind, i, k, ms)| match kind {
                0..=3 => Op::Progress(i, k),
                4 | 5 => Op::Heartbeat(i),
                6 => Op::Die(i),
                7 => Op::Stall(i),
                8 => Op::Resume(i),
                9 => Op::Connect(i),
                _ => Op::Advance(ms),
            },
        );
    proptest::collection::vec(op, 0..80)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary fault schedules never lose or double-commit a slot:
    /// once the fleet heals, the committed sequence is exactly
    /// `0..total` in order, regardless of how leases migrated.
    #[test]
    fn every_slot_is_delivered_exactly_once(
        (n_workers, schedule) in (2usize..=4)
            .prop_flat_map(|n| (Just(n), ops(n))),
        total in 1u64..150,
    ) {
        let mut sim = Sim::new(n_workers, total);
        // The coordinator's initial spawn wave: everyone connects.
        for i in 0..n_workers {
            sim.step(Op::Connect(i));
        }
        for op in schedule {
            sim.step(op);
        }
        if sim.heal() {
            prop_assert_eq!(&sim.committed, &(0..total).collect::<Vec<_>>());
            prop_assert_eq!(sim.merger.pending(), 0);
        } else {
            // Full abandonment aborts the campaign; what was committed
            // must still be a clean ordered prefix.
            let delivered = sim.merger.next_expected();
            prop_assert_eq!(&sim.committed, &(0..delivered).collect::<Vec<_>>());
        }
        for migration in sim.resharder.migrations() {
            prop_assert!(migration.start < migration.end);
            // A death/stall orphan may be re-granted to the same name's
            // respawned incarnation; only a silence re-lease guarantees
            // two distinct workers.
            if migration.reason == MigrationReason::Silent {
                prop_assert!(migration.from != migration.to);
            }
        }
    }

    /// A fault-free fleet also converges (the degenerate schedule) on
    /// pull-only leases: every worker keeps emitting, so no range ever
    /// moves and the supervisor does nothing but grant.
    #[test]
    fn a_healthy_fleet_delivers_without_supervision_actions(
        n_workers in 1usize..=4,
        total in 1u64..150,
    ) {
        let mut sim = Sim::new(n_workers, total);
        for i in 0..n_workers {
            sim.step(Op::Connect(i));
        }
        prop_assert!(sim.heal(), "nobody dies in a fault-free run");
        prop_assert_eq!(&sim.committed, &(0..total).collect::<Vec<_>>());
        prop_assert!(
            sim.resharder.migrations().is_empty(),
            "a healthy fleet re-leased {:?}",
            sim.resharder.migrations()
        );
        for action in &sim.actions {
            prop_assert!(matches!(action, Action::Grant { .. }), "{:?}", action);
        }
    }
}

// ------------------------------------------------------- pinned schedules

/// SplitMix64, so the pinned schedules never depend on proptest's
/// generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// FNV-1a (64-bit) of `text`, continuing from `hash`.
fn fnv1a(hash: u64, text: &str) -> u64 {
    text.bytes().fold(hash, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A long campaign on a fixed schedule: each 10 ms step every healthy
/// worker heartbeats and serves a random `0..=speed` frames, the
/// supervisor ticks after every frame (as the merge loop does), and
/// `faults` fire at fixed steps. 12-slot leases make thousands of grants.
struct Pinned {
    seed: u64,
    total: u64,
    /// Most frames each worker serves per step.
    speeds: &'static [u64],
    /// `(step, op)`: the deaths, stalls and resumes of the schedule.
    faults: &'static [(u64, Op)],
}

impl Pinned {
    /// Runs the schedule to completion and returns the FNV-1a hash of
    /// every supervisor action and the migration log (their `Debug`
    /// text), plus the finished simulation. Along the way every late
    /// drain — for a lease its worker lost to a revoke, kill or death —
    /// must leave the supervisor's state untouched.
    fn run(&self) -> (u64, Sim) {
        let config = ReshardConfig {
            lease_size: 12,
            ..sim_config()
        };
        let mut sim = Sim::with_config(self.speeds.len(), self.total, config);
        sim.tick_every_frame = true;
        let mut rng = SplitMix(self.seed);
        for i in 0..self.speeds.len() {
            sim.step(Op::Connect(i));
        }
        let mut step = 0u64;
        while sim.merger.next_expected() < self.total {
            step += 1;
            assert!(step < 100_000, "schedule did not converge");
            assert!(
                sim.resharder.live_workers() > 0,
                "schedule abandoned every worker"
            );
            sim.drain_late();
            for &(_, op) in self.faults.iter().filter(|(at, _)| *at == step) {
                sim.step(op);
            }
            for (i, &speed) in self.speeds.iter().enumerate() {
                let name = sim.name(i);
                let state = &sim.workers[&name];
                if state.connected && !state.stopped {
                    sim.resharder.note_heard(&name, sim.now);
                }
                let frames = u8::try_from(rng.below(speed + 1)).expect("small speed");
                sim.progress(&name, frames);
            }
            sim.now += 10;
            sim.round();
        }
        sim.drain_late();
        let hash = sim
            .actions
            .iter()
            .fold(FNV_OFFSET, |h, action| fnv1a(h, &format!("{action:?}\n")));
        let hash = fnv1a(hash, &format!("{:?}", sim.resharder.migrations()));
        (hash, sim)
    }
}

impl Sim {
    /// Reports a late drain for every lease a worker lost since the last
    /// call, each of which must leave the supervisor's state untouched.
    fn drain_late(&mut self) {
        for (worker, lease) in std::mem::take(&mut self.dropped) {
            // Heard first, so the comparison isolates the drain.
            self.resharder.note_heard(&worker, self.now);
            let before = format!("{:?}", self.resharder);
            self.resharder.lease_drained(&worker, lease, self.now);
            assert_eq!(
                before,
                format!("{:?}", self.resharder),
                "late drain of lease {lease} from {worker} changed the supervisor"
            );
        }
    }
}

/// Checks a pinned schedule's coverage, delivery and decisions.
fn check_pinned(schedule: &Pinned, expected: u64) {
    let (hash, sim) = schedule.run();
    assert_eq!(sim.committed, (0..schedule.total).collect::<Vec<_>>());
    let grants = sim
        .actions
        .iter()
        .filter(|a| matches!(a, Action::Grant { .. }))
        .count();
    assert!(grants >= 2_000, "only {grants} leases granted");
    for reason in [
        MigrationReason::Death,
        MigrationReason::Stall,
        MigrationReason::Silent,
    ] {
        assert!(
            sim.resharder
                .migrations()
                .iter()
                .any(|m| m.reason == reason),
            "no {} migration in the schedule",
            reason.as_str()
        );
    }
    assert_eq!(
        hash, expected,
        "the supervisor's decisions changed (hash {hash:#018x})"
    );
}

/// Two workers over the `campaign_large` stream length: each dies once
/// and is stalled into a kill once, one stall resumes before its
/// deadline, and the slower worker's emitter hangs mid-lease near the
/// end while it keeps heartbeating, so once the frontier is dry the other
/// takes its undelivered tail. The hash pins every decision of the
/// pull-only policy (a fixed size, re-leased only on death, stall or
/// frame silence); a change that alters any decision must re-derive it.
#[test]
fn pinned_two_worker_schedule_decides_as_before() {
    check_pinned(
        &Pinned {
            seed: 1,
            total: 31_613,
            speeds: &[6, 2],
            faults: &[
                (400, Op::Die(1)),
                (1_500, Op::Stall(0)),
                (2_600, Op::Stall(1)),
                (2_640, Op::Resume(1)),
                (4_000, Op::Die(0)),
                (5_200, Op::Stall(1)),
                (6_500, Op::Wedge(1)),
            ],
        },
        0xed04_c896_f84e_29d9,
    );
}

/// Three workers at unequal speeds, each holding one fixed-size lease at
/// a time; a wedged emitter's tail is re-leased for frame silence.
#[test]
fn pinned_three_worker_schedule_decides_as_before() {
    check_pinned(
        &Pinned {
            seed: 2,
            total: 30_000,
            speeds: &[5, 4, 1],
            faults: &[
                (300, Op::Die(2)),
                (1_200, Op::Stall(1)),
                (2_500, Op::Die(0)),
                (3_100, Op::Stall(2)),
                (3_130, Op::Resume(2)),
                (4_400, Op::Stall(0)),
                (5_000, Op::Wedge(1)),
            ],
        },
        0x7c6a_66a3_cf34_8412,
    );
}
