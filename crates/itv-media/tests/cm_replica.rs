//! Fail-over regressions for the replicated Connection Manager: a
//! 3-replica VSR group in the simulator, with the primary killed
//! mid-lease. The scenarios here are exactly the ones the old §5.2
//! primary/backup CM got wrong — a retried `allocate` double-booking
//! bandwidth after the reply was lost in a crash, and the admission
//! table evaporating until MMS reassertion refilled it.

use std::sync::Arc;
use std::time::Duration;

use itv_media::{CmApiClient, CmBudgets, CmReplica, CmReplicaConfig, MediaError};
use ocs_orb::{ClientCtx, ObjRef};
use ocs_sim::{Addr, FaultAction, NodeId, Rt};
use ocs_vsr::group::{Group, Spec};
use ocs_vsr::ReplicaConfig;

const CM_PORT: u16 = 2000;

/// Deployed-tuning timeouts (the E20 real-cluster values) so a
/// fail-over completes in about a second of virtual time.
fn tuned(i: u32, peers: Vec<Addr>) -> ReplicaConfig {
    let mut cfg = ReplicaConfig::paper_defaults(i, peers);
    cfg.heartbeat_interval = Duration::from_millis(200);
    cfg.election_timeout = Duration::from_millis(600);
    cfg.peer_timeout = Duration::from_millis(150);
    cfg.log_retention = 128;
    cfg
}

/// A 3-replica CM group plus a client node to issue calls from.
fn build(seed: u64, lease_ttl: Option<Duration>) -> Group<CmReplica> {
    Group::sim(
        seed,
        Spec {
            name: "cm",
            port: CM_PORT,
            tuning: tuned,
            start: Arc::new(move |rt, r: ReplicaConfig| {
                let cfg = CmReplicaConfig {
                    lease_ttl,
                    ..CmReplicaConfig::with_replication(r, CmBudgets::default())
                };
                CmReplica::start(rt, cfg)
            }),
            status: |r| Some(r.status()),
        },
    )
}

/// Crashes the current primary's node; returns its index.
fn kill_master(group: &Group<CmReplica>) -> usize {
    let master = group.masters()[0];
    group.kill(master);
    master
}

/// Allocate against whichever replica answers, retrying until one
/// commits the op. This is the MMS retry loop in miniature: the same
/// `token` travels with every attempt, so a lost reply can never
/// double-book.
fn allocate(
    group: &Group<CmReplica>,
    token: u64,
    settop: NodeId,
    down_bps: u64,
) -> Result<u64, MediaError> {
    let server = group.node(0);
    group.submit(move |rt, peer, _| {
        match cm_at(rt, peer).allocate(token, settop, server, down_bps) {
            // Admission verdicts are final; routing/quorum errors mean
            // "try the next replica".
            Err(MediaError::NoBandwidth) => Some(Err(MediaError::NoBandwidth)),
            r => r.ok().map(Ok),
        }
    })
}

fn release(group: &Group<CmReplica>, conn: u64) -> Result<(), MediaError> {
    group.submit(move |rt, peer, _| match cm_at(rt, peer).release(conn) {
        Ok(()) => Some(Ok(())),
        // An earlier attempt committed but its reply was lost
        // mid-fail-over; the conn being gone IS the commit (nothing else
        // removes it here — expiry is far beyond the test horizon).
        Err(MediaError::UnknownSession { .. }) => Some(Ok(())),
        Err(_) => None,
    })
}

/// Asserts every live replica agrees on the allocation count and that
/// the incremental reserved-bandwidth total matches a full table scan
/// (the E22 consistency audit, in miniature).
fn assert_consistent(group: &Group<CmReplica>, want_allocs: u32, want_bps: u64) {
    // Let backups drain the commit gap first.
    group.run_for(Duration::from_secs(1));
    for i in 0..3 {
        let Some(r) = group.member(i) else { continue };
        let u = r.usage();
        assert_eq!(
            u.allocations, want_allocs,
            "replica {i} allocation count diverged: {}",
            r.status()
        );
        assert_eq!(
            u.reserved_down_bps, want_bps,
            "replica {i} reserved bandwidth diverged: {}",
            r.status()
        );
        let (indexed, scanned) = r.audit_reserved_bps();
        assert_eq!(
            indexed, scanned,
            "replica {i} reserved-bps index drifted from the table"
        );
    }
}

fn cm_at(rt: &Rt, peer: Addr) -> CmApiClient {
    let target = ObjRef {
        addr: peer,
        incarnation: ObjRef::STABLE,
        type_id: CmApiClient::TYPE_ID,
        object_id: 0,
    };
    CmApiClient::attach(
        ClientCtx::new(rt.clone()).with_timeout(Duration::from_secs(2)),
        target,
    )
    .expect("attach cm client")
}

/// Satellite 2, the headline regression: the client's `allocate` commits
/// on the primary, the primary dies before (as far as the client knows)
/// the reply arrives, and the client retries the same token against the
/// new primary. The old CM double-reserved here; the replicated table
/// must return the original conn id and keep exactly one reservation.
#[test]
fn retried_allocate_across_failover_returns_original_conn() {
    let group = build(8_001, Some(Duration::from_secs(20)));
    group.settle("at start");
    let settop = group.client().node();

    let conn = allocate(&group, 77, settop, 4_000_000).expect("first allocate");
    assert_consistent(&group, 1, 4_000_000);

    // Crash the primary that answered; treat the reply as lost and retry.
    let victim = kill_master(&group);
    group.await_successor(victim);

    let retried = allocate(&group, 77, settop, 4_000_000).expect("retried allocate");
    assert_eq!(
        retried, conn,
        "retry with the same token must resolve to the original allocation"
    );
    assert_consistent(&group, 1, 4_000_000);

    // The healed replica catches up to the same single allocation.
    group.restart(victim);
    group.settle("after the restart");
    assert_consistent(&group, 1, 4_000_000);
}

/// The tentpole behavior: admission state survives the primary. A
/// settop saturating its downstream budget stays saturated across the
/// fail-over (no free re-admission window), and releasing a lease
/// granted by the dead primary works on its successor.
#[test]
fn failover_preserves_admission_state() {
    let group = build(8_002, Some(Duration::from_secs(20)));
    group.settle("at start");
    let settop = group.client().node();

    // Saturate the per-settop budget (6 Mbit/s by default).
    let conn = allocate(&group, 1, settop, 6_000_000).expect("saturating allocate");
    assert_consistent(&group, 1, 6_000_000);

    let victim = kill_master(&group);
    group.await_successor(victim);

    // A *new* request (fresh token) must still be refused: the successor
    // inherited the reservation rather than starting from an empty table.
    let refused = allocate(&group, 2, settop, 1_000_000);
    assert!(
        matches!(refused, Err(MediaError::NoBandwidth)),
        "budget must survive fail-over, got {refused:?}"
    );

    // And the old primary's lease is releasable on the new one.
    release(&group, conn).expect("release on the new primary");
    allocate(&group, 3, settop, 1_000_000).expect("allocate after release");
    assert_consistent(&group, 1, 1_000_000);
}

/// Lease expiry is a replicated op: the primary's periodic `Expire`
/// tick reclaims the lease at the same log position on every replica,
/// so all copies converge to zero without local clocks disagreeing.
#[test]
fn replicated_lease_expiry_reclaims_on_every_replica() {
    let group = build(8_003, Some(Duration::from_secs(2)));
    group.settle("at start");
    let settop = group.client().node();

    allocate(&group, 5, settop, 3_000_000).expect("allocate");
    assert_consistent(&group, 1, 3_000_000);

    // Nothing renews the lease; the 2 s TTL lapses and the master's
    // expire tick (every TTL/4) reclaims it everywhere.
    assert!(
        group.run_until(Duration::from_secs(20), || {
            group.live().iter().all(|r| r.usage().allocations == 0)
        }),
        "lease never expired: {:?}",
        group.statuses()
    );
    assert_consistent(&group, 0, 0);
    let expired = group
        .live()
        .iter()
        .map(|r| r.usage().expired)
        .collect::<Vec<_>>();
    assert!(
        expired.iter().all(|&e| e == 1),
        "every replica must count exactly one replicated expiry, got {expired:?}"
    );
}

/// Ten round trips on the simulator's default 500 µs link: the bound a
/// degraded-mode operation must finish inside. One `peer_timeout` (what
/// every sequential per-peer loop paid for a silent peer) is 150 ms.
const TEN_ROUND_TRIPS: Duration = Duration::from_millis(10);

/// Degraded mode costs nothing: with one backup silent — crashed or cut
/// off, and wherever it sits in the primary's peer order — an update
/// commits on the surviving majority in a couple of round trips, not
/// after a `peer_timeout` spent waiting on the dead peer.
#[test]
fn silent_backup_costs_a_commit_nothing_in_either_peer_order() {
    for (seed, victim_is_first, partition) in [
        (8_010, true, false),
        (8_011, false, false),
        (8_012, true, true),
        (8_013, false, true),
    ] {
        let group = build(seed, None);
        group.settle("at start");
        let master = group.masters()[0];
        let backups: Vec<usize> = (0..3).filter(|i| *i != master).collect();
        let victim = if victim_is_first {
            backups[0]
        } else {
            backups[1]
        };
        if partition {
            let (a, b) = (group.node(master), group.node(victim));
            group.fault(FaultAction::Partition(a, b));
        } else {
            group.kill(victim);
        }

        let settop = group.client().node();
        let (server, primary) = (group.node(0), group.peers()[master]);
        let took = group.on_client(move |rt| {
            let t0 = rt.now();
            cm_at(&rt, primary)
                .allocate(1, settop, server, 1_000_000)
                .expect("allocate commits on the surviving majority");
            rt.now().saturating_since(t0)
        });
        assert!(
            took < TEN_ROUND_TRIPS,
            "commit with backup {victim} silent (first={victim_is_first}, \
             partition={partition}) took {took:?}"
        );
    }
}

/// A view change does not wait out the silent old primary. The backups'
/// suspect timers are staggered, so the first suspect proposes alone and
/// is declined; the change can complete once the second one suspects
/// too. From that moment — the later survivor's own suspicion — to the
/// new view is a few round trips, not a `peer_timeout` spent on the dead
/// peer's unanswered `start_view_change`.
#[test]
fn view_change_does_not_wait_for_the_silent_old_primary() {
    let group = build(8_020, None);
    group.settle("at start");
    let victim = kill_master(&group);
    group.await_successor(victim);
    group.run_for(Duration::from_secs(1));
    let took: Vec<Duration> = (0..3)
        .filter(|i| *i != victim)
        .map(|i| {
            let h = ocs_telemetry::NodeTelemetry::of(&*group.nodes()[i])
                .registry
                .snapshot()
                .histos
                .remove("cm.vsr.view_change_us")
                .unwrap_or_default();
            assert_eq!(h.count, 1, "replica {i} entered exactly one new view");
            Duration::from_micros(h.sum)
        })
        .collect();
    assert!(
        took.iter().min().expect("two survivors") < &TEN_ROUND_TRIPS,
        "suspicion-to-new-view on the survivors: {took:?}"
    );
}
