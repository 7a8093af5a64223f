//! E20: name-service view-change latency under primary kills — the
//! consensus-grade successor to E1's audit-driven fail-over. Kills the
//! VSR primary mid-load, over and over, and measures how long the group
//! goes without a master. Three legs, one storm:
//!
//! * sim, paper-scale timeouts (2 s heartbeat, 5 s election) — the
//!   apples-to-apples comparison against the paper's 25 s bound;
//! * sim, deployed tuning (200 ms heartbeat, 600 ms election) — the
//!   sub-second claim, in virtual time;
//! * real TCP runtime, same tuning — the sub-second claim on the wall
//!   clock, members killed for real (skipped under `--sim-only`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use itv_media::ports;
use ocs_name::{AlwaysAlive, NsConfig, NsHandle, NsReplica};
use ocs_orb::{ClientCtx, ObjRef};
use ocs_sim::{NodeRtExt, Rt};
use ocs_vsr::group::{retry_over_peers, Group, Spec};
use ocs_vsr::ReplicaConfig;

use super::group::{report_leg, sim_leg, Leg, PAPER, TUNED};
use crate::json::Json;
use crate::{f, report, Table};

/// The name service's group under `leg`'s timeouts.
pub(crate) fn ns_group(leg: &Leg) -> Spec<NsReplica> {
    Spec {
        name: "ns",
        port: ports::NS,
        tuning: leg.tuning,
        start: Arc::new(|rt, r: ReplicaConfig| {
            NsReplica::start(rt, NsConfig::with_replication(r), Arc::new(AlwaysAlive))
        }),
        status: |r| Some(r.status()),
    }
}

/// Repeatedly kills the current primary and samples master-outage
/// windows (crash → a different replica reports `is_master`). Returns
/// them and the binds the background load committed meanwhile.
fn kill_rounds(
    group: &Group<NsReplica>,
    leg: &Leg,
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
        let peers = group.peers().to_vec();
        let rt: Rt = group.client().clone();
        group.client().spawn_fn("ns-load", move || {
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
    let samples = group.storm(rounds, leg.dwell, |_, kill| {
        group.await_successor(kill.victim);
        group.since(kill.at)
    });
    stop.store(true, Ordering::Relaxed);
    group.run_for(Duration::from_millis(200));
    (samples, binds.load(Ordering::Relaxed))
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
    let (paper_samples, paper_binds) = sim_leg(20_001, ns_group(&PAPER), |group| {
        group.step = Duration::from_millis(100);
        kill_rounds(group, &PAPER, 12, Duration::from_secs(5))
    });
    leg(
        "sim, paper timeouts",
        "sim_paper_view_change",
        &paper_samples,
    );

    // Leg 2: deployed tuning, virtual time.
    let (tuned_samples, tuned_binds) = sim_leg(20_002, ns_group(&TUNED), |group| {
        kill_rounds(group, &TUNED, 15, Duration::from_secs(1))
    });
    leg("sim, deployed tuning", "sim_view_change", &tuned_samples);

    // Leg 3: the same storm on TCP, wall clock.
    let real_binds = if sim_only {
        println!("    (--sim-only: skipping the real-runtime leg)");
        None
    } else {
        let group = Group::tcp(ns_group(&TUNED));
        let (samples, binds) = kill_rounds(&group, &TUNED, 10, Duration::from_secs(1));
        leg("real TCP runtime", "real_view_change", &samples);
        Some(binds)
    };
    println!(
        "    background binds committed during the kill storms: {} (paper leg) + {} (tuned leg)",
        paper_binds, tuned_binds
    );
    if let Some(binds) = real_binds {
        println!("    ... and {binds} during the real-TCP storm");
    }

    report::put("paper_bound_s", Json::F64(25.0));
    report::table(t);
}
