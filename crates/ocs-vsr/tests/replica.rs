//! The replica driver on its own: a 3-node `Replica<CounterMachine>`
//! group, no service crate involved — in the simulator, and its
//! fail-over once more on loopback TCP. (The engine under arbitrary
//! fault schedules is `model.rs`; each service's behaviour on the driver
//! is in that service's integration tests.)

use std::sync::Arc;
use std::time::Duration;

use ocs_orb::bytes::Bytes;
use ocs_orb::{Caller, ClientCtx, ObjRef, OrbError, Servant};
use ocs_sim::{Addr, FaultAction, LinkParams, NodeRtExt, Rt, Sim, SimTime};
use ocs_vsr::group::{Group, Spec};
use ocs_vsr::{CounterMachine, Refusal, Replica, ReplicaConfig};
use ocs_wire::{type_id_of, Wire};
use parking_lot::Mutex;

const PORT: u16 = 2300;
/// One link round trip at the simulator's default 500 µs latency.
const ROUND_TRIP: Duration = Duration::from_millis(1);
/// Ten of them: the bound a commit that waits on no timeout stays under.
const TEN_ROUND_TRIPS: Duration = Duration::from_millis(10);
/// The tuned `peer_timeout`.
const PEER_TIMEOUT: Duration = Duration::from_millis(150);

/// The root object's one method, `add(amount)`.
const ADD: u32 = 1;

/// What `add` answers: the op's outcome, and the name of the thread its
/// commit was decided on.
type Added = (Result<u64, Refusal>, String);

/// The group's root object. `add` runs where its request lands, as the
/// replicated CM's updates do, and is answered by whatever decides its
/// commit. (Most tests drive the log through `Replica::submit` instead.)
struct Adder(Arc<Replica<CounterMachine>>);

impl Servant for Adder {
    fn type_id(&self) -> u32 {
        type_id_of("test.adder")
    }
    fn runs_inline(&self, _method: u32) -> bool {
        true
    }
    fn dispatch(&self, caller: &Caller, _method: u32, args: &[u8]) -> Result<Bytes, OrbError> {
        let amount = u64::from_bytes(args).map_err(|e| OrbError::Decode {
            what: e.to_string(),
        })?;
        let reply = caller
            .reply_later::<Added>()
            .ok_or(OrbError::UnknownMethod)?;
        self.0.submit_then(
            amount,
            Box::new(move |_, out| {
                let thread = std::thread::current().name().unwrap_or("?").to_string();
                reply.send((out, thread));
            }),
        );
        Ok(Bytes::new())
    }
}

/// `add(amount)` on `target` from `rt`.
fn add(rt: &Rt, target: ObjRef, amount: u64) -> Added {
    let ctx = ClientCtx::new(rt.clone()).with_timeout(Duration::from_secs(5));
    let body = ctx
        .call_named(&target, ADD, amount.to_bytes(), "test.adder.add")
        .expect("add answers");
    Added::from_bytes(&body).expect("reply decodes")
}

/// Deployed-tuning timeouts, so a fail-over completes in about a second.
fn tuned(i: u32, peers: Vec<Addr>) -> ReplicaConfig {
    let mut cfg = ReplicaConfig::paper_defaults(i, peers);
    cfg.heartbeat_interval = Duration::from_millis(200);
    cfg.election_timeout = Duration::from_millis(600);
    cfg.peer_timeout = PEER_TIMEOUT;
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
            rep.start(Arc::new(Adder(Arc::clone(&rep))))?;
            Ok(rep)
        }),
        status: |r| Some(r.status()),
    }
}

/// [`build`], and a handle on its simulator.
fn build_sim(seed: u64) -> (Sim, Counters) {
    let sim = Sim::new(seed);
    let hosts = (0..3).map(|i| sim.add_node(&format!("r{i}"))).collect();
    let client = sim.add_node("load");
    let handle = sim.clone();
    let group = Group::on_sim(sim, hosts, client, counters());
    group.settle("at start");
    (handle, group)
}

/// Three replicas in the simulator, settled: one master, nobody in
/// probation.
fn build(seed: u64) -> Counters {
    build_sim(seed).1
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

/// What [`submit_later`] fills in: the outcome, and when it came.
type Later = Arc<Mutex<Option<(Result<u64, Refusal>, SimTime)>>>;

/// Submits `amount` at replica `at` from a process of its own and
/// returns at once.
fn submit_later(group: &Counters, at: usize, amount: u64) -> Later {
    let rep = group.member(at).expect("replica is up");
    let slot: Later = Arc::default();
    let (out, rt) = (Arc::clone(&slot), group.nodes()[at].clone());
    group.nodes()[at].spawn_fn("submit", move || {
        let got = rep.submit(amount);
        *out.lock() = Some((got, rt.now()));
    });
    slot
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

/// Snapshots the group's replicas have sent, all told.
fn snapshots_sent(group: &Counters) -> u64 {
    group
        .nodes()
        .iter()
        .map(|node| {
            ocs_telemetry::NodeTelemetry::of(&**node)
                .registry
                .counter("counter.vsr.snapshots_sent")
                .get()
        })
        .sum()
}

/// A fail-over moves no table: the view change carries log entries, and
/// the backups hold the committed state already. The old primary,
/// restarted after the group's log has moved past its retention, polls
/// without asking for a snapshot and then fetches exactly one.
#[test]
fn a_fail_over_sends_no_snapshot_and_a_restart_past_retention_one() {
    let group = build(14_012);
    let old = sole_master(&group).unwrap();
    for amount in 1..=3 {
        assert!(submit(&group, old, amount).0.is_ok());
    }
    group.kill(old);
    assert!(
        group.run_until(Duration::from_secs(30), || sole_master(&group).is_some()),
        "no new master after the primary kill"
    );
    let new = sole_master(&group).unwrap();
    assert_eq!(snapshots_sent(&group), 0, "the view change sent a table");
    for amount in 4..=10 {
        assert!(submit(&group, new, amount).0.is_ok());
    }
    group.restart(old);
    group.settle("after the restart");
    assert!(
        group.run_until(Duration::from_secs(5), || totals(&group) == [55, 55, 55]),
        "the restarted replica did not catch up: {:?}",
        group.statuses()
    );
    assert_eq!(snapshots_sent(&group), 1);
}

/// Processes started while `adds` run `add(1..=adds)` against `target`
/// from one client process, after a first `add` that woke the group
/// from quiet, and the inline runs meanwhile.
fn started_for(sim: &Sim, group: &Counters, target: ObjRef, adds: u64) -> (u64, u64) {
    group.on_client(move |rt| add(&rt, target, 0).0.expect("the first add commits"));
    let before = sim.kernel_stats();
    let last = group.on_client(move |rt| {
        (1..=adds)
            .map(|i| add(&rt, target, i).0)
            .collect::<Vec<_>>()
    });
    let after = sim.kernel_stats();
    assert_eq!(last.last(), Some(&Ok(adds * (adds + 1) / 2)));
    (
        after.spawns - before.spawns,
        after.inline_runs - before.inline_runs,
    )
}

/// In the simulator a commit at the primary starts no process: the
/// client's `add` runs where it lands, so do the backups' `prepare`s
/// and the acks that come back, and the first ack's commit sends the
/// reply. The one process is the client's. (The first op after a quiet
/// spell starts the replica's expiry loop, which then runs while ops
/// come.)
#[test]
fn a_commit_at_the_primary_starts_no_process() {
    let (sim, group) = build_sim(14_005);
    let master = sole_master(&group).unwrap();
    let target = group.member(master).unwrap().root_ref();
    let (spawns, inline_runs) = started_for(&sim, &group, target, 20);
    assert_eq!(spawns, 1, "the client's process alone");
    // Per add: the request, two prepares, two acks.
    assert!(inline_runs >= 5 * 20);
}

/// An op sent to a backup goes to the primary from the backup's peer
/// endpoint, runs where it lands there, and its outcome comes back the
/// same way: no process on either side.
#[test]
fn a_forwarded_op_starts_no_process_on_either_side() {
    let (sim, group) = build_sim(14_006);
    let backup = (sole_master(&group).unwrap() + 1) % 3;
    let target = group.member(backup).unwrap().root_ref();
    let (spawns, _) = started_for(&sim, &group, target, 10);
    assert_eq!(spawns, 1, "the client's process alone");
}

/// On TCP the commit is decided on the primary's loop — the one thread
/// its node runs, which read the first backup's ack — and the reply
/// leaves from there.
#[test]
fn a_commit_on_tcp_is_decided_on_the_primarys_loop() {
    let group = Group::tcp(counters());
    group.settle("at start");
    let master = sole_master(&group).unwrap();
    let target = group.member(master).unwrap().root_ref();
    let client = group.client().clone();
    let mut total = 0;
    for amount in 1..=20 {
        total += amount;
        assert_eq!(
            add(&client, target, amount),
            (Ok(total), format!("r{master}-loop"))
        );
    }
}

/// With both backups cut off, an op is refused `NoQuorum` exactly two
/// peer timeouts after it was sequenced, in virtual time.
#[test]
fn no_quorum_comes_exactly_two_peer_timeouts_after_sequencing() {
    let group = build(14_007);
    let master = sole_master(&group).unwrap();
    for backup in (0..3).filter(|i| *i != master) {
        group.fault(FaultAction::Partition(
            group.node(master),
            group.node(backup),
        ));
    }
    let (out, took) = submit(&group, master, 1);
    assert_eq!(out, Err(Refusal::NoQuorum));
    assert_eq!(took, 2 * PEER_TIMEOUT);
}

/// A primary deposed while an op it sequenced waits is told so by the
/// state it catches up to, long before the op's own deadline: a new view
/// committed another op at its number, and the op is `Superseded`.
#[test]
fn a_primary_deposed_mid_wait_answers_superseded() {
    let mut spec = counters();
    // Room for a view change, a commit in the new view and the heal
    // before the op's `2 × peer_timeout` runs out.
    spec.tuning = |i, peers| ReplicaConfig {
        peer_timeout: Duration::from_secs(3),
        ..tuned(i, peers)
    };
    let sim = Sim::new(14_008);
    let hosts = (0..3).map(|i| sim.add_node(&format!("r{i}"))).collect();
    let client = sim.add_node("load");
    let group = Group::on_sim(sim, hosts, client, spec);
    group.settle("at start");
    let old = sole_master(&group).unwrap();
    let cut: Vec<(ocs_sim::NodeId, ocs_sim::NodeId)> = (0..3)
        .filter(|i| *i != old)
        .map(|b| (group.node(old), group.node(b)))
        .collect();
    for &(a, b) in &cut {
        group.fault(FaultAction::Partition(a, b));
    }
    let t0 = group.now();
    let waiting = submit_later(&group, old, 1);
    // The old primary, cut off, still believes it is master.
    let successor = || group.masters().into_iter().find(|m| *m != old);
    assert!(
        group.run_until(Duration::from_secs(5), || successor().is_some()),
        "the cut-off backups elected no new primary: {:?}",
        group.statuses()
    );
    let new = successor().unwrap();
    assert_eq!(
        submit(&group, new, 7).0,
        Ok(7),
        "the new view commits another op"
    );
    for &(a, b) in &cut {
        group.fault(FaultAction::Heal(a, b));
    }
    assert!(group.run_until(Duration::from_secs(8), || waiting.lock().is_some()));
    let (out, at) = waiting.lock().take().unwrap();
    assert_eq!(out, Err(Refusal::Superseded));
    assert!(
        at.saturating_since(t0) < Duration::from_secs(6),
        "answered at the deadline"
    );
}

/// A prepare that reaches a backup out of order is buffered and acked
/// only with the one it waited for; with the other backup silent, that
/// later ack is the op's commit, and answers it then — not when the op's
/// own call to the silent backup would have timed out, one
/// `peer_timeout` later.
#[test]
fn a_reordered_prepare_commits_without_waiting_out_the_silent_backup() {
    let (sim, group) = build_sim(14_009);
    let master = sole_master(&group).unwrap();
    let backups: Vec<usize> = (0..3).filter(|i| *i != master).collect();
    let (slow, silent) = (backups[0], backups[1]);
    group.kill(silent);
    // The first op's prepare takes 5 ms to reach the slow backup; the
    // second's the usual 500 µs, so it arrives first and waits there.
    let (p, s) = (group.node(master), group.node(slow));
    sim.set_link(p, s, LinkParams::latency_only(5 * ROUND_TRIP));
    let first = submit_later(&group, master, 1);
    sim.run_for(Duration::from_micros(100));
    sim.set_link(p, s, LinkParams::latency_only(ROUND_TRIP / 2));
    let (out, took) = submit(&group, master, 2);
    assert_eq!(out, Ok(3));
    assert!(
        took < TEN_ROUND_TRIPS,
        "the reordered op's commit took {took:?}, want under {TEN_ROUND_TRIPS:?}"
    );
    assert_eq!(
        first.lock().as_ref().map(|(out, _)| out.clone()),
        Some(Ok(1))
    );
}

/// Five replicas in the simulator, settled, and a handle on it.
fn build_five(seed: u64) -> (Sim, Counters) {
    let sim = Sim::new(seed);
    let hosts = (0..5).map(|i| sim.add_node(&format!("r{i}"))).collect();
    let client = sim.add_node("load");
    let handle = sim.clone();
    let group = Group::on_sim(sim, hosts, client, counters());
    group.settle("at start");
    (handle, group)
}

/// A view change's `start_view_change` round returns at its join
/// majority; a joiner whose answer comes later is still owed on the
/// replica's peer endpoint, and its reply is dropped there — not bounced
/// back over the network, as it was when each round had an endpoint of
/// its own that closed with the round.
#[test]
fn a_stragglers_join_is_dropped_at_the_peer_endpoint() {
    let (sim, group) = build_five(14_010);
    let old = sole_master(&group).unwrap();
    // The lowest live backup suspects first and proposes; the highest
    // one's answers reach it 5 ms late, after the other two joiners'.
    let backups: Vec<usize> = (0..5).filter(|i| *i != old).collect();
    let (proposer, late) = (backups[0], backups[3]);
    sim.set_link(
        group.node(late),
        group.node(proposer),
        LinkParams::latency_only(5 * ROUND_TRIP),
    );
    let bounces = sim.net_stats().bounces;
    // A crashed host answers nothing, bounces included.
    group.fault(FaultAction::CrashNode(group.node(old)));
    let new_master = || {
        let masters = group.masters();
        masters.iter().any(|m| *m != old)
    };
    assert!(
        group.run_until(Duration::from_secs(10), new_master),
        "no new master: {:?}",
        group.statuses()
    );
    group.run_for(Duration::from_secs(1));
    assert_eq!(sim.net_stats().bounces - bounces, 0, "a reply bounced");
}

/// Every frame a replica sends its peers — the start-up state polls, a
/// view change's rounds, heartbeats, prepares — leaves from one address,
/// its peer endpoint: a replica opens one client endpoint for life.
/// Member 4 of five is a spy that notes each frame's sender and answers
/// none; the four real members still form a majority.
#[test]
fn every_call_to_a_peer_leaves_from_the_replicas_one_endpoint() {
    let sim = Sim::new(14_011);
    let hosts: Vec<Rt> = (0..5)
        .map(|i| sim.add_node(&format!("r{i}")) as Rt)
        .collect();
    let peers: Vec<Addr> = hosts.iter().map(|h| Addr::new(h.node(), PORT)).collect();
    let seen: Arc<Mutex<Vec<Addr>>> = Arc::default();
    let spy = hosts[4].open(ocs_sim::PortReq::Fixed(PORT)).unwrap();
    let log = Arc::clone(&seen);
    spy.serve_inline(
        "spy",
        Arc::new(move |item| {
            if let Ok((from, _)) = item {
                log.lock().push(from);
            }
        }),
    );
    let reps: Vec<Arc<Replica<CounterMachine>>> = (0..4)
        .map(|i| {
            let cfg = tuned(i as u32, peers.clone());
            let rep = Replica::new(hosts[i].clone(), cfg, CounterMachine::default(), ());
            rep.start(Arc::new(Adder(Arc::clone(&rep)))).unwrap();
            rep
        })
        .collect();
    let run_until = |cond: &dyn Fn() -> bool| {
        for _ in 0..1_000 {
            if cond() {
                return;
            }
            sim.run_for(Duration::from_millis(10));
        }
        panic!("the group never got there");
    };
    let submit = |at: usize| {
        let rep = Arc::clone(&reps[at]);
        hosts[at].spawn_fn("submit", move || {
            rep.submit(1).expect("the op commits");
        });
        sim.run_for(Duration::from_secs(1));
    };
    let from = |node: usize| -> Vec<Addr> {
        seen.lock()
            .iter()
            .copied()
            .filter(|a| a.node == hosts[node].node())
            .collect()
    };
    run_until(&|| reps[0].is_master() && reps.iter().all(|r| !r.in_probation()));
    submit(0);
    let before_kill = from(1).len();
    sim.crash_node(hosts[0].node());
    run_until(&|| reps[1].is_master());
    let view_change = from(1).len() - before_kill;
    submit(1);
    for node in [0, 1] {
        let mut addrs = from(node);
        assert!(
            addrs.len() > 2,
            "replica {node} sent {} frames",
            addrs.len()
        );
        addrs.dedup();
        assert_eq!(addrs.len(), 1, "replica {node} sent from {addrs:?}");
        assert_ne!(addrs[0].port, PORT, "its ORB's port");
    }
    assert!(view_change >= 1, "the view change reached the spy");
}
