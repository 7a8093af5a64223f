//! E19: chaos campaigns on the REAL runtime — the wall-clock subset of
//! the simulator's E15 campaign, replayed over TCP on loopback with
//! killable process groups and the transport fault shim.
//!
//! Where E15 asserts on deterministic event-trace hashes, these tests
//! assert on *outcomes within wall-clock bounds*: an NS master kill
//! must produce a new master; killing the MMS must let the connection
//! manager's leases expire; resetting a settop must make the MDS
//! abandon its stream; a healed partition must carry traffic again.
//!
//! Gated behind the `real_chaos` feature so the default `cargo test`
//! pass stays fast and deterministic:
//!
//! ```sh
//! cargo test -p itv-cluster --features real_chaos --test real_chaos
//! ```

#![cfg(feature = "real_chaos")]

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use itv_cluster::RealCluster;
use ocs_sim::fault::FaultPlan;
use ocs_sim::real::{eventually, wall_clock};
use ocs_sim::{FaultRt, NodeRt, SimTime};

/// Waits for the last task of a killed group to stamp the kill in the
/// `real.net.*` counters, which it does just after `alive()` turns false.
fn await_kill_stamped(cluster: &RealCluster) {
    eventually(Duration::from_secs(5), || {
        cluster.net().counters().contains_key("real.net.kill_latency_us")
    });
}

/// One fully-assembled campaign cluster: NS × 3, CM (short leases), MDS,
/// MMS, one streaming viewer.
fn campaign_cluster() -> (RealCluster, std::sync::Arc<itv_cluster::ViewerStats>) {
    let cluster = RealCluster::launch(3, 2);
    cluster.start_cm(Duration::from_secs(2));
    cluster.start_mds();
    cluster.start_mms(Duration::from_millis(500));
    let viewer = cluster.start_viewer(0);
    assert!(
        eventually(Duration::from_secs(15), || viewer
            .playing
            .load(Ordering::SeqCst)),
        "viewer never started streaming"
    );
    (cluster, viewer)
}

/// Leg 1 — master NS kill: crash every group on the master's node and
/// require a new master within the election bound.
#[test]
fn ns_master_reelects_after_node_crash() {
    let cluster = RealCluster::launch(3, 0);
    let master = cluster.ns_group.masters()[0];
    // Isolate the master instead of killing its group: the paper's
    // master loss is a connectivity loss as much as a process death, and
    // this leg also wants the old master back to watch it step down.
    // (Process-death recovery is leg 6 below.)
    let m = cluster.servers[master].node();
    for (i, s) in cluster.servers.iter().enumerate() {
        if i != master {
            cluster.net().set_partitioned(m, s.node(), true);
        }
    }
    let t0 = Instant::now();
    let reelected = eventually(Duration::from_secs(10), || {
        cluster.ns_group.masters().iter().any(|&i| i != master)
    });
    assert!(reelected, "no new master within 10 s of isolating the old");
    let elapsed = t0.elapsed();
    // Heal; the old master must step down (one master again, eventually).
    for (i, s) in cluster.servers.iter().enumerate() {
        if i != master {
            cluster.net().set_partitioned(m, s.node(), false);
        }
    }
    let one_master = || cluster.ns_group.masters().len() == 1;
    assert!(
        eventually(Duration::from_secs(10), one_master),
        "cluster did not settle back to one master after heal"
    );
    // A resolve through any replica works again.
    cluster.ns(master).resolve("svc").expect("resolve post-heal");
    println!("re-election after isolation took {elapsed:?}");
}

/// Leg 2 — CM lease expiry after MMS kill: the MMS stops reasserting
/// when its group dies, so its allocation must expire within the TTL.
#[test]
fn cm_leases_expire_after_mms_kill() {
    let (cluster, viewer) = campaign_cluster();
    // The viewer holds one allocation.
    let usage = cluster.cm_usage().expect("cm answers");
    assert!(usage.allocations >= 1, "viewer should hold an allocation");
    assert!(viewer.ticket.lock().is_some());
    cluster.kill_service("mms");
    assert!(
        eventually(Duration::from_secs(5), || !cluster
            .service("mms")
            .alive()),
        "killed MMS group still alive"
    );
    // Lease TTL is 2 s; expiry is lazy (runs at the top of the usage
    // call), so polling usage() is itself the trigger.
    let expired = eventually(Duration::from_secs(10), || {
        cluster
            .cm_usage()
            .is_some_and(|u| u.expired >= 1 && u.allocations == 0)
    });
    assert!(expired, "CM did not expire the dead MMS's lease");
}

/// Leg 3 — stream abandon on settop reset: kill the viewer's group; its
/// stream port closes, segments bounce, and the MDS abandons the stream
/// after its bounce budget.
#[test]
fn mds_abandons_stream_after_settop_reset() {
    let (cluster, viewer) = campaign_cluster();
    assert!(
        eventually(Duration::from_secs(10), || viewer
            .segments
            .load(Ordering::Relaxed)
            >= 2),
        "stream never flowed"
    );
    cluster.kill_service("viewer-0");
    // 6 bounces at one 500 ms tick each, plus slack.
    let abandoned = eventually(Duration::from_secs(15), || {
        let snap = cluster.telemetry_snapshot();
        snap.counter("mds.stream.abandoned") >= 1
    });
    assert!(abandoned, "MDS never abandoned the dead settop's stream");
    let snap = cluster.telemetry_snapshot();
    assert!(
        snap.counter("mds.stream.bounces") >= 1,
        "abandon without observed bounces"
    );
}

/// Leg 4 — partition and heal mid-campaign, driven by a FaultPlan on
/// the wall clock: calls fail during the cut and succeed after the heal.
#[test]
fn partition_heals_mid_campaign() {
    let (cluster, _viewer) = campaign_cluster();
    let driver = cluster.servers[0].node();
    let mms_node = cluster.servers[2].node();
    // Cut server0 (driver + CM + NS replica 0) off from the MMS server
    // from t=0, heal at t=1s.
    let plan = FaultPlan::new().partition(
        driver,
        mms_node,
        SimTime::from_micros(0),
        SimTime::from_secs(1),
    );
    let cut_seen = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let cut_seen2 = std::sync::Arc::clone(&cut_seen);
    let cluster_ref = &cluster;
    std::thread::scope(|s| {
        s.spawn(|| {
            plan.run(&**cluster_ref.net(), wall_clock(), |ev| {
                if matches!(ev.action, ocs_sim::FaultAction::Partition(_, _)) {
                    // While cut: resolving the MMS from server 0 and
                    // calling it must fail (frames are dropped).
                    if let Some(obj) = cluster_ref.mms_ref() {
                        let rt: ocs_sim::Rt = cluster_ref.servers[0].clone();
                        let ctx = ocs_orb::ClientCtx::new(rt)
                            .with_timeout(Duration::from_millis(400));
                        if let Ok(mms) = itv_media::MmsApiClient::attach(ctx, obj) {
                            cut_seen2.store(mms.session_count().is_err(), Ordering::SeqCst);
                        }
                    }
                }
            });
        });
    });
    assert!(
        cut_seen.load(Ordering::SeqCst),
        "call through the partition should have failed"
    );
    // Healed: the same call now answers.
    let healed = eventually(Duration::from_secs(10), || {
        let Some(obj) = cluster.mms_ref() else {
            return false;
        };
        let rt: ocs_sim::Rt = cluster.servers[0].clone();
        let ctx = ocs_orb::ClientCtx::new(rt).with_timeout(Duration::from_secs(1));
        itv_media::MmsApiClient::attach(ctx, obj)
            .ok()
            .is_some_and(|mms| mms.session_count().is_ok())
    });
    assert!(healed, "calls still failing after heal");
}

/// The transport's own counters surface through the cluster snapshot:
/// connections opened, resets observed, kill latencies recorded.
#[test]
fn real_net_counters_surface_in_telemetry_snapshot() {
    let (cluster, _viewer) = campaign_cluster();
    cluster.kill_service("viewer-0");
    assert!(
        eventually(Duration::from_secs(5), || !cluster
            .service("viewer-0")
            .alive()),
        "killed viewer still alive"
    );
    await_kill_stamped(&cluster);
    let snap = cluster.telemetry_snapshot();
    assert!(
        snap.counter("real.net.conn_open") > 0,
        "no connections recorded"
    );
    assert!(
        snap.counter("real.net.kills") >= 1,
        "kill not recorded: {:?}",
        snap.merged.counters
    );
    assert!(
        snap.counter("real.net.kill_latency_us") >= 1,
        "kill latency not recorded"
    );
    // Reset storms force visible resets on the viewer's stream path.
    let a = cluster.servers[1].node(); // MDS server
    let b = cluster.servers[2].node(); // MMS server
    cluster.net().set_reset_storm(a, b, true);
    let rt: ocs_sim::Rt = cluster.servers[0].clone();
    let _ = rt; // driver-side; storm applies to CM<->MMS chatter
    let resets = eventually(Duration::from_secs(10), || {
        cluster.telemetry_snapshot().counter("real.net.resets") >= 1
    });
    cluster.net().set_reset_storm(a, b, false);
    assert!(resets, "reset storm produced no observed resets");
}

/// The MDS holds its name on TCP as it does in the simulator: a binding
/// removed behind its back (an audit on a stale verdict, an operator's
/// slip) is re-asserted at the keeper's next look, one period later. A
/// one-shot bind at start never brings it back.
#[test]
fn mds_binding_unbound_by_hand_returns_within_one_period() {
    let cluster = RealCluster::launch(3, 0);
    cluster.start_mds();
    let ns = cluster.ns(0);
    let bound = || ns.list_repl("svc/mds").is_ok_and(|set| set.len() == 1);
    assert!(
        eventually(Duration::from_secs(5), bound),
        "the MDS never bound itself"
    );
    let path = format!("svc/mds/{}", cluster.servers[1].node().0);
    ns.unbind(&path).expect("unbind by hand");
    assert!(!bound());
    assert!(
        eventually(ocs_name::ADVERTISE_EVERY + Duration::from_secs(1), bound),
        "the MDS did not re-assert its binding within a period"
    );
}

/// Leg 6 — VSR recovery beyond the log retention window: kill a backup
/// NS replica's process group (its log dies with it), commit more
/// updates than the log retains, restart it, and require it to rejoin
/// via snapshot transfer and serve the deep history locally.
#[test]
fn killed_ns_replica_recovers_via_snapshot_transfer() {
    let cluster = RealCluster::launch(3, 0);
    let master = cluster.ns_group.masters()[0];
    let victim = (0..3).find(|i| *i != master).unwrap();
    cluster.ns_group.kill(victim);
    assert!(
        eventually(Duration::from_secs(5), || !cluster.ns_group.running(victim)),
        "killed ns-{victim} group still alive"
    );
    // Commit past the retention window (64) while the victim is down.
    // A kill coinciding with a heartbeat round can transiently clear the
    // master's quorum confidence, and the protocol then refuses updates
    // (fail-fast `NoMaster`) until the next good round — so the writer
    // retries, as real clients do.
    let ns = cluster.ns(master);
    let ops = 64 + 12;
    for i in 0..ops {
        let leaf = ocs_orb::ObjRef {
            addr: ocs_sim::Addr::new(cluster.servers[master].node(), 99),
            incarnation: 1,
            type_id: 0x5555,
            object_id: i,
        };
        let path = format!("deep-{i}");
        let bound = eventually(Duration::from_secs(10), || {
            matches!(
                ns.bind(&path, leaf),
                Ok(()) | Err(ocs_name::NsError::AlreadyBound { .. })
            )
        });
        if !bound {
            let mut dump = String::new();
            for i in 0..3 {
                match cluster.ns_group.member(i) {
                    Some(r) => dump.push_str(&format!("\n  ns-{i}: {}", r.status())),
                    None => dump.push_str(&format!("\n  ns-{i}: <dead>")),
                }
            }
            panic!("bind {path} kept failing while victim down; engine state:{dump}");
        }
    }
    cluster.ns_group.restart(victim);
    // The restarted replica walks probation → snapshot transfer and
    // then answers deep resolves from its own state.
    let caught_up = eventually(Duration::from_secs(15), || {
        cluster
            .ns(victim)
            .resolve(&format!("deep-{}", ops - 1))
            .is_ok()
    });
    assert!(caught_up, "restarted replica never caught up");
    // It got there by snapshot, not log replay, and the VSR telemetry
    // says so through the cluster snapshot.
    let snap = cluster.telemetry_snapshot();
    let victim_node = cluster.servers[victim].node();
    assert!(
        snap.nodes[&victim_node].counter("ns.vsr.state_transfer_snapshot") >= 1,
        "recovery beyond retention must use the snapshot path: {:?}",
        snap.nodes[&victim_node].counters
    );
    // The `ns.vsr.*` family is visible in the merged real-cluster view
    // (mirror of the sim-side telemetry test).
    assert!(snap.counter("ns.vsr.commits") >= ops);
    assert!(
        snap.merged.gauges.contains_key("ns.vsr.view"),
        "view gauge missing from merged snapshot"
    );
    // And the group is whole again: one master, all three in one view.
    let one_master = || cluster.ns_group.masters().len() == 1;
    assert!(
        eventually(Duration::from_secs(15), one_master),
        "NS election did not settle to one master"
    );
}

/// The TCP postmortem lists the faults a plan injected, as the
/// simulator's does: each action, on each node it hits, under `fault`,
/// in the order the plan applied them.
#[test]
fn postmortem_lists_injected_faults_in_order_on_tcp() {
    let cluster = RealCluster::launch(3, 0);
    let [a, b, c] = [0, 1, 2].map(|i| cluster.servers[i].node());
    let ms = SimTime::from_millis;
    let plan = FaultPlan::new()
        .partition(a, b, ms(0), ms(200))
        .crash(c, ms(400), ms(600));
    plan.run(&**cluster.net(), wall_clock(), |_| {});
    let timeline = cluster.postmortem();
    let mut lines = timeline.lines();
    for ev in plan.sorted_events() {
        let desc = ev.action.describe();
        assert!(
            lines.any(|l| l.contains(" fault ") && l.contains(&desc)),
            "{desc} missing (or out of order) in the postmortem:\n{timeline}"
        );
    }
    let events = cluster.journal_events();
    let journalled = |node, desc: &str| {
        events
            .iter()
            .any(|e| e.node == node && e.category == "fault" && e.detail == desc)
    };
    let partition = format!("partition {a}-{b}");
    assert!(
        journalled(a, &partition) && journalled(b, &partition),
        "{timeline}"
    );
    assert!(journalled(c, &format!("crash {c}")), "{timeline}");
    assert!(!cluster.ns_group.running(2), "the crash left server 2's replica up");
}

/// The tier-1 smoke: one kill + one partition-heal cycle, bounded.
/// Everything here must finish well inside the script's 60 s timeout.
#[test]
fn smoke_kill_and_partition_heal_cycle() {
    let (cluster, viewer) = campaign_cluster();
    // Kill: the viewer group dies within the cancellation bound.
    cluster.kill_service("viewer-0");
    assert!(
        eventually(Duration::from_secs(5), || !cluster
            .service("viewer-0")
            .alive()),
        "killed viewer group still alive"
    );
    await_kill_stamped(&cluster);
    let _ = viewer;
    // Partition + heal: NS resolve from server 0 to the master fails
    // during the cut (when the master is remote) and works after.
    let a = cluster.servers[0].node();
    let b = cluster.servers[1].node();
    cluster.net().set_partitioned(a, b, true);
    cluster.net().set_partitioned(a, b, false);
    assert!(
        eventually(Duration::from_secs(10), || cluster
            .ns(0)
            .resolve("svc")
            .is_ok()),
        "resolve does not work after heal"
    );
    let snap = cluster.telemetry_snapshot();
    assert!(snap.counter("real.net.kills") >= 1);
    assert!(snap.counter("real.net.conn_open") > 0);
}
