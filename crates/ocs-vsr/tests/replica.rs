//! The replica driver on its own: a 3-node `Replica<CounterMachine>`
//! group, no service crate involved — in the simulator, and its
//! fail-over once more on loopback TCP. (The engine under arbitrary
//! fault schedules is `model.rs`; each service's behaviour on the driver
//! is in that service's integration tests.)

use std::sync::Arc;
use std::time::Duration;

use ocs_orb::bytes::Bytes;
use ocs_orb::{Caller, OrbError, Servant};
use ocs_sim::Addr;
use ocs_vsr::group::{Group, Spec};
use ocs_vsr::{CounterMachine, Refusal, Replica, ReplicaConfig};

const PORT: u16 = 2300;
/// One link round trip at the simulator's default 500 µs latency.
const ROUND_TRIP: Duration = Duration::from_millis(1);

/// The group's root object: the tests drive the log through
/// `Replica::submit`, so nothing calls it.
struct NoRoot;

impl Servant for NoRoot {
    fn type_id(&self) -> u32 {
        0
    }
    fn dispatch(&self, _c: &Caller, _m: u32, _a: &[u8]) -> Result<Bytes, OrbError> {
        Err(OrbError::UnknownMethod)
    }
}

/// Deployed-tuning timeouts, so a fail-over completes in about a second.
fn tuned(i: u32, peers: Vec<Addr>) -> ReplicaConfig {
    let mut cfg = ReplicaConfig::paper_defaults(i, peers);
    cfg.heartbeat_interval = Duration::from_millis(200);
    cfg.election_timeout = Duration::from_millis(600);
    cfg.peer_timeout = Duration::from_millis(150);
    cfg.log_retention = 4;
    cfg
}

type Counters = Group<Replica<CounterMachine>>;

fn counters() -> Spec<Replica<CounterMachine>> {
    Spec {
        name: "r",
        port: PORT,
        tuning: tuned,
        start: Arc::new(|rt, cfg| {
            let rep = Replica::new(rt, cfg, CounterMachine::default(), ());
            rep.start(Arc::new(NoRoot))?;
            Ok(rep)
        }),
        status: |r| Some(r.status()),
    }
}

/// Three replicas in the simulator, settled: one master, nobody in
/// probation.
fn build(seed: u64) -> Counters {
    let group = Group::sim(seed, counters());
    group.settle("at start");
    group
}

/// The one replica that believes it is master, if there is exactly one.
fn sole_master(group: &Counters) -> Option<usize> {
    let masters = group.masters();
    (masters.len() == 1).then(|| masters[0])
}

/// Submits `amount` at replica `at`, from its own node; returns the
/// outcome and how long the call took.
fn submit(group: &Counters, at: usize, amount: u64) -> (Result<u64, Refusal>, Duration) {
    let rep = group.member(at).expect("replica is up");
    group.on(&group.nodes()[at], move |rt| {
        let t0 = rt.now();
        let out = rep.submit(amount);
        (out, rt.now().saturating_since(t0))
    })
}

fn totals(group: &Counters) -> Vec<u64> {
    group
        .live()
        .iter()
        .map(|r| r.read(|c| c.state().total))
        .collect()
}

/// A commit costs the primary one replica round trip: both prepares go
/// out at once and the first ack is a majority.
#[test]
fn commit_answers_at_one_replica_round_trip() {
    let group = build(14_001);
    let master = sole_master(&group).unwrap();
    let (out, took) = submit(&group, master, 5);
    assert_eq!(out, Ok(5));
    assert!(
        (ROUND_TRIP..2 * ROUND_TRIP).contains(&took),
        "a commit took {took:?}, want one {ROUND_TRIP:?} round trip"
    );
    let (out, _) = submit(&group, master, 7);
    assert_eq!(out, Ok(12));
    // The heartbeat carries the commit point to the backups.
    group.run_for(Duration::from_secs(1));
    assert_eq!(totals(&group), [12, 12, 12]);
}

/// A backup forwards a client op to the primary and relays its outcome:
/// one more round trip, same result.
#[test]
fn backup_forwards_to_the_primary() {
    let group = build(14_002);
    let master = sole_master(&group).unwrap();
    let backup = (master + 1) % 3;
    let (out, took) = submit(&group, backup, 9);
    assert_eq!(out, Ok(9));
    assert!(
        (2 * ROUND_TRIP..3 * ROUND_TRIP).contains(&took),
        "a forwarded commit took {took:?}, want two {ROUND_TRIP:?} round trips"
    );
    assert_eq!(group.member(master).unwrap().last_seq(), 1);
}

/// Killing the primary ends in a new view whose master holds every
/// committed op, and the log keeps going from there.
#[test]
fn primary_kill_ends_in_a_new_view_with_the_sum_intact() {
    primary_kill(build(14_003), Duration::ZERO);
}

/// The same on loopback TCP, where the kill is a process group's death.
/// The master flag can precede the inherited tail's commit by a few
/// microseconds there, so the sum gets a generous bound to show up in.
#[test]
fn primary_kill_ends_in_a_new_view_with_the_sum_intact_on_tcp() {
    let group = Group::tcp(counters());
    group.settle("at start");
    primary_kill(group, Duration::from_secs(5));
}

/// `tail_commit` is how long the new master may take to hold the sum
/// once it is master; zero checks it at that instant.
fn primary_kill(group: Counters, tail_commit: Duration) {
    let old = sole_master(&group).unwrap();
    for amount in [3, 4, 5] {
        assert!(submit(&group, old, amount).0.is_ok());
    }
    let view_before = group.member(old).unwrap().view();
    group.kill(old);
    assert!(
        group.run_until(Duration::from_secs(30), || sole_master(&group).is_some()),
        "no new master after the primary kill"
    );
    let new = sole_master(&group).unwrap();
    let rep = group.member(new).unwrap();
    assert!(rep.view() > view_before);
    let holds_the_sum = || rep.read(|c| c.state().total) == 12;
    assert!(
        group.run_until(tail_commit, holds_the_sum),
        "the new master lost committed ops: {}",
        rep.status()
    );
    assert_eq!(submit(&group, new, 8).0, Ok(20));
}

/// A restarted replica comes back empty and in probation, leaves it
/// through the f+1 probe, and catches up — here by snapshot, the group
/// having compacted the entries it missed.
#[test]
fn restarted_replica_leaves_probation_and_catches_up() {
    let group = build(14_004);
    let master = sole_master(&group).unwrap();
    let victim = (master + 1) % 3;
    group.kill(victim);
    for amount in 1..=10 {
        assert!(submit(&group, master, amount).0.is_ok());
    }
    group.restart(victim);
    let reborn = group.member(victim).unwrap();
    assert!(reborn.in_probation(), "a restarted replica's log is gone");
    assert_eq!(reborn.last_seq(), 0);
    group.settle("after the restart");
    assert!(
        group.run_until(Duration::from_secs(5), || totals(&group) == [55, 55, 55]),
        "restarted replica did not catch up: {}",
        reborn.status()
    );
    assert_eq!(sole_master(&group), Some(master), "the view did not move");
    let by_snapshot = ocs_telemetry::NodeTelemetry::of(&*group.nodes()[victim])
        .registry
        .counter("counter.vsr.state_transfer_snapshot");
    assert!(by_snapshot.get() >= 1, "ten ops behind with four retained");
}
