//! Degraded-mode regression for the replicated service controller's
//! driver: a 3-replica `SscReplica` group in the simulator with one
//! backup silent. (Controller behaviour proper is in `controllers.rs`;
//! the table machine against its oracle is in `proptest_vsr.rs`.)

use std::sync::Arc;
use std::time::Duration;

use ocs_orb::{Caller, OrbError, Servant};
use ocs_sim::Addr;
use ocs_svcctl::{CscApiClient, SscReplica, SscReplicaConfig, SscUpdate};
use ocs_vsr::group::{Group, Spec};

const CSC_PORT: u16 = 2100;

/// Stands in for the `CscApi` root object: the test drives the log
/// through `SscReplica::submit`, so the root is never called.
struct NoRoot;

impl Servant for NoRoot {
    fn type_id(&self) -> u32 {
        CscApiClient::TYPE_ID
    }
    fn dispatch(&self, _c: &Caller, _m: u32, _a: &[u8]) -> Result<bytes::Bytes, OrbError> {
        Err(OrbError::UnknownMethod)
    }
}

/// Deployed-tuning timeouts (as in the CM and E23 suites).
fn tuned(i: u32, peers: Vec<Addr>) -> SscReplicaConfig {
    let mut cfg = SscReplicaConfig::paper_defaults(i, peers);
    cfg.heartbeat_interval = Duration::from_millis(200);
    cfg.election_timeout = Duration::from_millis(600);
    cfg.peer_timeout = Duration::from_millis(150);
    cfg
}

fn build(seed: u64) -> Group<SscReplica> {
    Group::sim(
        seed,
        Spec {
            name: "csc",
            port: CSC_PORT,
            tuning: tuned,
            start: Arc::new(|rt, cfg| SscReplica::start(rt, cfg, Arc::new(NoRoot))),
            status: |r| Some(r.status()),
        },
    )
}

/// Degraded mode costs nothing: with one backup silent — wherever it
/// sits in the primary's peer order — a placement decision commits on
/// the surviving majority within ten link round trips (10 ms), not
/// after the 150 ms `peer_timeout` a sequential prepare loop spent on
/// the dead peer.
#[test]
fn silent_backup_costs_a_decision_nothing_in_either_peer_order() {
    for (seed, victim_is_first) in [(9_010, true), (9_011, false)] {
        let group = build(seed);
        group.run_for(Duration::from_secs(2));
        let master = (0..3)
            .find(|i| group.member(*i).is_some_and(|r| r.is_master()))
            .expect("a master after start-up");
        assert!(group.live().iter().all(|r| !r.in_probation()));
        let backups: Vec<usize> = (0..3).filter(|i| *i != master).collect();
        let victim = if victim_is_first {
            backups[0]
        } else {
            backups[1]
        };
        group.kill(victim);

        let rep = group.member(master).expect("the master is up");
        let placed_on = group.node(master);
        let took = group.on(&group.nodes()[master], move |rt| {
            let t0 = rt.now();
            rep.submit(SscUpdate::Define {
                token: 1,
                service: "mms".into(),
                nodes: vec![placed_on],
                now_us: 0,
            })
            .expect("decision commits on the surviving majority");
            rt.now().saturating_since(t0)
        });
        assert!(
            took < Duration::from_millis(10),
            "decision with backup {victim} silent (first={victim_is_first}) took {took:?}"
        );
    }
}
