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
use ocs_sim::{Addr, NodeId, NodeRt, NodeRtExt, Rt, Sim, SimNode};
use parking_lot::Mutex;

const CM_PORT: u16 = 2000;

/// Deployed-tuning timeouts (the E20 real-cluster values) so a
/// fail-over completes in about a second of virtual time.
fn tuned(i: u32, peers: Vec<Addr>, lease_ttl: Option<Duration>) -> CmReplicaConfig {
    let mut cfg = CmReplicaConfig::paper_defaults(i, peers, CmBudgets::default());
    cfg.heartbeat_interval = Duration::from_millis(200);
    cfg.election_timeout = Duration::from_millis(600);
    cfg.peer_timeout = Duration::from_millis(150);
    cfg.log_retention = 128;
    cfg.lease_ttl = lease_ttl;
    cfg
}

/// A 3-replica CM group plus a client node to issue calls from.
struct CmGroup {
    sim: Sim,
    nodes: Vec<Arc<SimNode>>,
    replicas: Arc<Mutex<Vec<Option<Arc<CmReplica>>>>>,
    peers: Vec<Addr>,
    client: Arc<SimNode>,
    lease_ttl: Option<Duration>,
}

impl CmGroup {
    fn build(seed: u64, lease_ttl: Option<Duration>) -> CmGroup {
        let sim = Sim::new(seed);
        let nodes: Vec<Arc<SimNode>> = (0..3).map(|i| sim.add_node(&format!("cm{i}"))).collect();
        let peers: Vec<Addr> = nodes.iter().map(|n| Addr::new(n.node(), CM_PORT)).collect();
        let replicas = Arc::new(Mutex::new(vec![None; 3]));
        for (i, node) in nodes.iter().enumerate() {
            let rt: Rt = node.clone();
            let r = CmReplica::start(rt, tuned(i as u32, peers.clone(), lease_ttl))
                .expect("cm replica starts");
            replicas.lock()[i] = Some(r);
        }
        let client = sim.add_node("client");
        CmGroup {
            sim,
            nodes,
            replicas,
            peers,
            client,
            lease_ttl,
        }
    }

    fn masters(&self) -> Vec<usize> {
        self.replicas
            .lock()
            .iter()
            .enumerate()
            .filter_map(|(i, r)| {
                r.as_ref()
                    .filter(|r| self.sim.node_up(self.nodes[i].node()) && r.is_master())
                    .map(|_| i)
            })
            .collect()
    }

    /// One master, every live replica out of probation.
    fn settled(&self) -> bool {
        self.masters().len() == 1
            && self
                .replicas
                .lock()
                .iter()
                .enumerate()
                .all(|(i, r)| match r {
                    Some(r) => !self.sim.node_up(self.nodes[i].node()) || !r.in_probation(),
                    None => true,
                })
    }

    fn run_until(&self, limit: Duration, mut cond: impl FnMut() -> bool) -> bool {
        let step = Duration::from_millis(20);
        let deadline = self.sim.now() + limit;
        while self.sim.now() < deadline {
            if cond() {
                return true;
            }
            self.sim.run_for(step);
        }
        cond()
    }

    fn settle(&self) {
        assert!(
            self.run_until(Duration::from_secs(30), || self.settled()),
            "cm group failed to settle: {:?}",
            self.status()
        );
    }

    fn status(&self) -> Vec<String> {
        self.replicas
            .lock()
            .iter()
            .map(|r| match r {
                Some(r) => r.status().to_string(),
                None => "down".into(),
            })
            .collect()
    }

    /// Crashes the current primary's node; returns its index.
    fn kill_master(&self) -> usize {
        let master = self.masters()[0];
        self.sim.crash_node(self.nodes[master].node());
        self.replicas.lock()[master] = None;
        master
    }

    fn restart(&self, i: usize) {
        self.sim.restart_node(self.nodes[i].node());
        let rt: Rt = self.nodes[i].clone();
        let r = CmReplica::start(rt, tuned(i as u32, self.peers.clone(), self.lease_ttl))
            .expect("cm replica restarts");
        self.replicas.lock()[i] = Some(r);
    }

    /// Runs `f` on the client node (RPCs only work from inside the sim)
    /// and steps virtual time until it returns.
    fn on_client<T: Send + 'static>(&self, f: impl FnOnce(Rt) -> T + Send + 'static) -> T {
        let slot: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
        let out = Arc::clone(&slot);
        let rt: Rt = self.client.clone();
        self.client.spawn_fn("cm-call", move || {
            let r = f(rt);
            *out.lock() = Some(r);
        });
        assert!(
            self.run_until(Duration::from_secs(60), || slot.lock().is_some()),
            "client call did not complete"
        );
        let got = slot.lock().take();
        got.unwrap()
    }

    /// Allocate against whichever replica answers, retrying until one
    /// commits the op. This is the MMS retry loop in miniature: the same
    /// `token` travels with every attempt, so a lost reply can never
    /// double-book.
    fn allocate(&self, token: u64, settop: NodeId, down_bps: u64) -> Result<u64, MediaError> {
        let peers = self.peers.clone();
        let server = self.nodes[0].node();
        self.on_client(move |rt| {
            for _attempt in 0..100 {
                for &peer in &peers {
                    match cm_at(&rt, peer).allocate(token, settop, server, down_bps) {
                        Ok(conn) => return Ok(conn),
                        // Admission verdicts are final; routing/quorum
                        // errors mean "try the next replica".
                        Err(MediaError::NoBandwidth) => return Err(MediaError::NoBandwidth),
                        Err(_) => {}
                    }
                }
                rt.sleep(Duration::from_millis(100));
            }
            Err(MediaError::Dependency {
                what: "test: no replica accepted the allocate".into(),
            })
        })
    }

    fn release(&self, conn: u64) -> Result<(), MediaError> {
        let peers = self.peers.clone();
        self.on_client(move |rt| {
            for _attempt in 0..100 {
                for &peer in &peers {
                    match cm_at(&rt, peer).release(conn) {
                        Ok(()) => return Ok(()),
                        // An earlier attempt committed but its reply was
                        // lost mid-fail-over; the conn being gone IS the
                        // commit (nothing else removes it here — expiry
                        // is far beyond the test horizon).
                        Err(MediaError::UnknownSession { .. }) => return Ok(()),
                        Err(_) => {}
                    }
                }
                rt.sleep(Duration::from_millis(100));
            }
            Err(MediaError::Dependency {
                what: "test: no replica accepted the release".into(),
            })
        })
    }

    /// Asserts every live replica agrees on the allocation count and
    /// that the incremental reserved-bandwidth total matches a full
    /// table scan (the E22 consistency audit, in miniature).
    fn assert_consistent(&self, want_allocs: u32, want_bps: u64) {
        // Let backups drain the commit gap first.
        self.sim.run_for(Duration::from_secs(1));
        for (i, r) in self.replicas.lock().iter().enumerate() {
            let Some(r) = r else { continue };
            if !self.sim.node_up(self.nodes[i].node()) {
                continue;
            }
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
    let group = CmGroup::build(8_001, Some(Duration::from_secs(20)));
    group.settle();
    let settop = group.client.node();

    let conn = group.allocate(77, settop, 4_000_000).expect("first allocate");
    group.assert_consistent(1, 4_000_000);

    // Crash the primary that answered; treat the reply as lost and retry.
    let victim = group.kill_master();
    assert!(
        group.run_until(Duration::from_secs(30), || {
            group.masters().first().is_some_and(|m| *m != victim)
        }),
        "no new master after killing the CM primary: {:?}",
        group.status()
    );

    let retried = group.allocate(77, settop, 4_000_000).expect("retried allocate");
    assert_eq!(
        retried, conn,
        "retry with the same token must resolve to the original allocation"
    );
    group.assert_consistent(1, 4_000_000);

    // The healed replica catches up to the same single allocation.
    group.restart(victim);
    group.settle();
    group.assert_consistent(1, 4_000_000);
}

/// The tentpole behavior: admission state survives the primary. A
/// settop saturating its downstream budget stays saturated across the
/// fail-over (no free re-admission window), and releasing a lease
/// granted by the dead primary works on its successor.
#[test]
fn failover_preserves_admission_state() {
    let group = CmGroup::build(8_002, Some(Duration::from_secs(20)));
    group.settle();
    let settop = group.client.node();

    // Saturate the per-settop budget (6 Mbit/s by default).
    let conn = group.allocate(1, settop, 6_000_000).expect("saturating allocate");
    group.assert_consistent(1, 6_000_000);

    let victim = group.kill_master();
    assert!(
        group.run_until(Duration::from_secs(30), || {
            group.masters().first().is_some_and(|m| *m != victim)
        }),
        "no new master after killing the CM primary: {:?}",
        group.status()
    );

    // A *new* request (fresh token) must still be refused: the successor
    // inherited the reservation rather than starting from an empty table.
    let refused = group.allocate(2, settop, 1_000_000);
    assert!(
        matches!(refused, Err(MediaError::NoBandwidth)),
        "budget must survive fail-over, got {refused:?}"
    );

    // And the old primary's lease is releasable on the new one.
    group.release(conn).expect("release on the new primary");
    group
        .allocate(3, settop, 1_000_000)
        .expect("allocate after release");
    group.assert_consistent(1, 1_000_000);
}

/// Lease expiry is a replicated op: the primary's periodic `Expire`
/// tick reclaims the lease at the same log position on every replica,
/// so all copies converge to zero without local clocks disagreeing.
#[test]
fn replicated_lease_expiry_reclaims_on_every_replica() {
    let group = CmGroup::build(8_003, Some(Duration::from_secs(2)));
    group.settle();
    let settop = group.client.node();

    group.allocate(5, settop, 3_000_000).expect("allocate");
    group.assert_consistent(1, 3_000_000);

    // Nothing renews the lease; the 2 s TTL lapses and the master's
    // expire tick (every TTL/4) reclaims it everywhere.
    assert!(
        group.run_until(Duration::from_secs(20), || {
            group
                .replicas
                .lock()
                .iter()
                .flatten()
                .all(|r| r.usage().allocations == 0)
        }),
        "lease never expired: {:?}",
        group.status()
    );
    group.assert_consistent(0, 0);
    let expired = group
        .replicas
        .lock()
        .iter()
        .flatten()
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
        let group = CmGroup::build(seed, None);
        group.settle();
        let master = group.masters()[0];
        let backups: Vec<usize> = (0..3).filter(|i| *i != master).collect();
        let victim = if victim_is_first { backups[0] } else { backups[1] };
        if partition {
            group
                .sim
                .set_partitioned(group.nodes[master].node(), group.nodes[victim].node(), true);
        } else {
            group.sim.crash_node(group.nodes[victim].node());
        }

        let settop = group.client.node();
        let (server, primary) = (group.nodes[0].node(), group.peers[master]);
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
    let group = CmGroup::build(8_020, None);
    group.settle();
    let victim = group.kill_master();
    assert!(
        group.run_until(Duration::from_secs(30), || {
            group.masters().first().is_some_and(|m| *m != victim)
        }),
        "no new master after killing the CM primary: {:?}",
        group.status()
    );
    group.sim.run_for(Duration::from_secs(1));
    let took: Vec<Duration> = (0..3)
        .filter(|i| *i != victim)
        .map(|i| {
            let h = ocs_telemetry::NodeTelemetry::of(&*group.nodes[i])
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
