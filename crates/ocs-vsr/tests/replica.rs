//! The replica driver on its own: a 3-node `Replica<CounterMachine>`
//! group in the simulator, no service crate involved. (The engine under
//! arbitrary fault schedules is `model.rs`; each service's behaviour on
//! the driver is in that service's integration tests.)

use std::sync::Arc;
use std::time::Duration;

use ocs_orb::bytes::Bytes;
use ocs_orb::{Caller, OrbError, Servant};
use ocs_sim::{Addr, NodeRt, NodeRtExt, Rt, Sim, SimChan, SimNode};
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

/// Deployed-tuning timeouts, so a fail-over completes in about a second
/// of virtual time.
fn tuned(i: u32, peers: Vec<Addr>) -> ReplicaConfig {
    let mut cfg = ReplicaConfig::paper_defaults(i, peers);
    cfg.heartbeat_interval = Duration::from_millis(200);
    cfg.election_timeout = Duration::from_millis(600);
    cfg.peer_timeout = Duration::from_millis(150);
    cfg.log_retention = 4;
    cfg
}

struct Group {
    sim: Sim,
    nodes: Vec<Arc<SimNode>>,
    peers: Vec<Addr>,
    /// `None` while the replica's node is down.
    replicas: Vec<Option<Arc<Replica<CounterMachine>>>>,
}

impl Group {
    /// Three replicas, settled: one master, nobody in probation.
    fn build(seed: u64) -> Group {
        let sim = Sim::new(seed);
        let nodes: Vec<Arc<SimNode>> = (0..3).map(|i| sim.add_node(&format!("r{i}"))).collect();
        let peers: Vec<Addr> = nodes.iter().map(|n| Addr::new(n.node(), PORT)).collect();
        let mut group = Group {
            sim,
            nodes,
            peers,
            replicas: vec![None, None, None],
        };
        for i in 0..3 {
            group.start(i);
        }
        group.settle();
        group
    }

    fn start(&mut self, i: usize) {
        let rt: Rt = self.nodes[i].clone();
        let rep = Replica::new(
            rt,
            tuned(i as u32, self.peers.clone()),
            CounterMachine::default(),
            (),
        );
        rep.start(Arc::new(NoRoot)).expect("replica starts");
        self.replicas[i] = Some(rep);
    }

    fn live(&self) -> impl Iterator<Item = (usize, &Arc<Replica<CounterMachine>>)> {
        self.replicas
            .iter()
            .enumerate()
            .filter_map(|(i, r)| Some((i, r.as_ref()?)))
    }

    fn master(&self) -> Option<usize> {
        let mut masters = self.live().filter(|(_, r)| r.is_master());
        let (first, _) = masters.next()?;
        masters.next().is_none().then_some(first)
    }

    fn run_until(&self, limit: Duration, cond: impl Fn() -> bool) -> bool {
        let deadline = self.sim.now() + limit;
        while !cond() && self.sim.now() < deadline {
            self.sim.run_for(Duration::from_millis(20));
        }
        cond()
    }

    fn settle(&self) {
        let settled = || self.master().is_some() && self.live().all(|(_, r)| !r.in_probation());
        assert!(
            self.run_until(Duration::from_secs(30), settled),
            "group failed to settle: {:?}",
            self.live()
                .map(|(_, r)| r.status().to_string())
                .collect::<Vec<_>>()
        );
    }

    /// Submits `amount` at replica `at`, from a process on its node;
    /// returns the outcome and how long the call took.
    fn submit(&self, at: usize, amount: u64) -> (Result<u64, Refusal>, Duration) {
        let done: SimChan<(Result<u64, Refusal>, Duration)> = SimChan::new(&self.sim);
        let (tx, rt) = (done.clone(), self.nodes[at].clone());
        let rep = Arc::clone(self.replicas[at].as_ref().expect("replica is up"));
        self.nodes[at].spawn_fn("submit", move || {
            let t0 = rt.now();
            let out = rep.submit(amount);
            tx.send((out, rt.now().saturating_since(t0)));
        });
        self.sim.run_for(Duration::from_secs(1));
        done.try_recv().expect("submit returned")
    }

    fn totals(&self) -> Vec<u64> {
        self.live()
            .map(|(_, r)| r.read(|c| c.state().total))
            .collect()
    }
}

/// A commit costs the primary one replica round trip: both prepares go
/// out at once and the first ack is a majority.
#[test]
fn commit_answers_at_one_replica_round_trip() {
    let group = Group::build(14_001);
    let master = group.master().unwrap();
    let (out, took) = group.submit(master, 5);
    assert_eq!(out, Ok(5));
    assert!(
        (ROUND_TRIP..2 * ROUND_TRIP).contains(&took),
        "a commit took {took:?}, want one {ROUND_TRIP:?} round trip"
    );
    let (out, _) = group.submit(master, 7);
    assert_eq!(out, Ok(12));
    // The heartbeat carries the commit point to the backups.
    group.sim.run_for(Duration::from_secs(1));
    assert_eq!(group.totals(), [12, 12, 12]);
}

/// A backup forwards a client op to the primary and relays its outcome:
/// one more round trip, same result.
#[test]
fn backup_forwards_to_the_primary() {
    let group = Group::build(14_002);
    let master = group.master().unwrap();
    let backup = (master + 1) % 3;
    let (out, took) = group.submit(backup, 9);
    assert_eq!(out, Ok(9));
    assert!(
        (2 * ROUND_TRIP..3 * ROUND_TRIP).contains(&took),
        "a forwarded commit took {took:?}, want two {ROUND_TRIP:?} round trips"
    );
    assert_eq!(group.replicas[master].as_ref().unwrap().last_seq(), 1);
}

/// Killing the primary ends in a new view whose master holds every
/// committed op, and the log keeps going from there.
#[test]
fn primary_kill_ends_in_a_new_view_with_the_sum_intact() {
    let mut group = Group::build(14_003);
    let old = group.master().unwrap();
    for amount in [3, 4, 5] {
        assert!(group.submit(old, amount).0.is_ok());
    }
    let view_before = group.replicas[old].as_ref().unwrap().view();
    group.sim.crash_node(group.nodes[old].node());
    group.replicas[old] = None;
    assert!(
        group.run_until(Duration::from_secs(30), || group.master().is_some()),
        "no new master after the primary kill"
    );
    let new = group.master().unwrap();
    let rep = group.replicas[new].as_ref().unwrap();
    assert!(rep.view() > view_before);
    assert_eq!(rep.read(|c| c.state().total), 12);
    assert_eq!(group.submit(new, 8).0, Ok(20));
}

/// A restarted replica comes back empty and in probation, leaves it
/// through the f+1 probe, and catches up — here by snapshot, the group
/// having compacted the entries it missed.
#[test]
fn restarted_replica_leaves_probation_and_catches_up() {
    let mut group = Group::build(14_004);
    let master = group.master().unwrap();
    let victim = (master + 1) % 3;
    group.sim.crash_node(group.nodes[victim].node());
    group.replicas[victim] = None;
    for amount in 1..=10 {
        assert!(group.submit(master, amount).0.is_ok());
    }
    group.sim.restart_node(group.nodes[victim].node());
    group.start(victim);
    let reborn = group.replicas[victim].as_ref().unwrap();
    assert!(reborn.in_probation(), "a restarted replica's log is gone");
    assert_eq!(reborn.last_seq(), 0);
    group.settle();
    assert!(
        group.run_until(Duration::from_secs(5), || group.totals() == [55, 55, 55]),
        "restarted replica did not catch up: {}",
        group.replicas[victim].as_ref().unwrap().status()
    );
    assert_eq!(group.master(), Some(master), "the view did not move");
    let by_snapshot = ocs_telemetry::NodeTelemetry::of(&*group.nodes[victim])
        .registry
        .counter("counter.vsr.state_transfer_snapshot");
    assert!(by_snapshot.get() >= 1, "ten ops behind with four retained");
}
