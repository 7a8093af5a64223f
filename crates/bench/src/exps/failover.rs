//! E20: name-service view-change latency under primary kills — the
//! consensus-grade successor to E1's audit-driven fail-over. Kills the
//! VSR primary mid-load, over and over, and measures how long the group
//! goes without a master. Three legs:
//!
//! * sim, paper-scale timeouts (2 s heartbeat, 5 s election) — the
//!   apples-to-apples comparison against the paper's 25 s bound;
//! * sim, deployed tuning (200 ms heartbeat, 600 ms election) — the
//!   sub-second claim, in virtual time;
//! * real TCP runtime, same tuning — the sub-second claim on the wall
//!   clock (skipped under `--sim-only`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use itv_cluster::RealCluster;
use ocs_name::{AlwaysAlive, NsConfig, NsHandle, NsReplica};
use ocs_orb::{ClientCtx, ObjRef};
use ocs_sim::{NodeRtExt, Rt};
use ocs_vsr::{ReplicaConfig, ReplicaStatus};

use super::group::{report_leg, retry_over_peers, Member, SimGroup, PAPER, TUNED};
use crate::json::Json;
use crate::{f, report, Table};

impl Member for NsReplica {
    const NAME: &'static str = "ns";
    const PORT: u16 = 10;

    fn start(rt: Rt, r: ReplicaConfig) -> Arc<NsReplica> {
        let cfg = NsConfig {
            heartbeat_interval: r.heartbeat_interval,
            election_timeout: r.election_timeout,
            peer_timeout: r.peer_timeout,
            ..NsConfig::paper_defaults(r.replica_id, r.peers)
        };
        NsReplica::start(rt, cfg, Arc::new(AlwaysAlive)).expect("replica starts")
    }

    fn engine(&self) -> Option<ReplicaStatus> {
        Some((**self).status())
    }
}

/// Repeatedly kills the current primary and samples master-outage
/// windows (crash → a different replica reports `is_master`).
fn sim_kill_rounds(
    group: &SimGroup<NsReplica>,
    rounds: usize,
    bind_timeout: Duration,
) -> (Vec<f64>, u64) {
    // Background load: a client binding a fresh name every 100 ms via
    // whichever replica answers (backups forward to the primary).
    let binds = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    {
        let binds = Arc::clone(&binds);
        let stop = Arc::clone(&stop);
        let peers = group.peers.clone();
        let rt: Rt = group.client.clone();
        group.client.spawn_fn("ns-load", move || {
            let pause = Duration::from_millis(100);
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let leaf = ObjRef {
                    addr: peers[0],
                    incarnation: 1,
                    type_id: 0x20,
                    object_id: i,
                };
                retry_over_peers(&rt, &peers, pause, |rt, peer| {
                    // Bounded so a dead replica can't wedge the writer,
                    // but longer than a commit (the op commits on the
                    // primary's next heartbeat round).
                    let ctx = ClientCtx::new(rt.clone()).with_timeout(bind_timeout);
                    // AlreadyBound = an earlier attempt committed but
                    // the reply was lost in the crash; that op counts.
                    match NsHandle::new(ctx, peer).bind(&format!("load-{i}"), leaf) {
                        Ok(()) | Err(ocs_name::NsError::AlreadyBound { .. }) => Some(()),
                        Err(_) => None,
                    }
                });
                binds.fetch_add(1, Ordering::Relaxed);
                i += 1;
                rt.sleep(pause);
            }
        });
    }
    let samples = group.storm(rounds, |_, kill| {
        group.await_successor(kill.victim);
        group.since(kill.at)
    });
    stop.store(true, Ordering::Relaxed);
    group.sim.run_for(Duration::from_millis(200));
    (samples, binds.load(Ordering::Relaxed))
}

/// Kill rounds against the real TCP cluster: wall-clock outage windows.
fn real_kill_rounds(rounds: usize) -> Vec<f64> {
    let cluster = RealCluster::launch(3, 0);
    let mut samples = Vec::new();
    for _ in 0..rounds {
        assert!(
            cluster.eventually(Duration::from_secs(15), || {
                cluster.masters().len() == 1
                    && (0..3).all(|i| cluster.replica(i).is_some_and(|r| !r.in_probation()))
            }),
            "real NS group failed to settle between kill rounds"
        );
        let master = cluster.master_index().expect("settled");
        cluster.kill_ns(master);
        let t0 = Instant::now();
        assert!(
            cluster.eventually(Duration::from_secs(15), || {
                cluster.masters().first().is_some_and(|m| *m != master)
            }),
            "no new master after killing the real primary"
        );
        samples.push(t0.elapsed().as_secs_f64());
        cluster.restart_ns(master);
    }
    samples
}

/// E20: VSR view-change latency under repeated primary kills.
pub fn e20(sim_only: bool) {
    println!("\nE20. NS view-change latency under primary kills (VSR)");
    println!("    outage window = primary crash -> another replica is master");
    println!("    paper: \"maximum fail over time of 25 seconds\"\n");
    let mut t = Table::new(&[
        "leg",
        "rounds",
        "p50 (s)",
        "p99 (s)",
        "max (s)",
        "paper max",
    ]);

    let max = |xs: &[f64]| f(xs.iter().cloned().fold(0.0, f64::max), 2);
    let mut leg = |leg: &str, key: &str, samples: &[f64]| {
        report_leg(
            &mut t,
            leg.into(),
            key,
            samples,
            &[max(samples), "25.0".into()],
        );
    };

    // Leg 1: paper-scale timeouts, virtual time.
    let (paper_samples, paper_binds) = SimGroup::run_leg(20_001, &PAPER, |group| {
        group.step = Duration::from_millis(100);
        sim_kill_rounds(group, 12, Duration::from_secs(5))
    });
    leg(
        "sim, paper timeouts",
        "sim_paper_view_change",
        &paper_samples,
    );

    // Leg 2: deployed tuning, virtual time.
    let (tuned_samples, tuned_binds) = SimGroup::run_leg(20_002, &TUNED, |group| {
        sim_kill_rounds(group, 15, Duration::from_secs(1))
    });
    leg("sim, deployed tuning", "sim_view_change", &tuned_samples);

    // Leg 3: the real TCP runtime, wall clock.
    if sim_only {
        println!("    (--sim-only: skipping the real-runtime leg)");
    } else {
        leg(
            "real TCP runtime",
            "real_view_change",
            &real_kill_rounds(10),
        );
    }
    t.print();
    println!(
        "    background binds committed during the kill storms: {} (paper leg) + {} (tuned leg)",
        paper_binds, tuned_binds
    );

    report::put("paper_bound_s", Json::F64(25.0));
    report::put("table", t.to_json());
}
