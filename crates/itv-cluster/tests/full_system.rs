//! Full-system tests: the §3.4 end-to-end flows (boot, download, play)
//! and the §3.5 failure scenarios, on a complete cluster — each failure
//! breaks one of the paper's promises on purpose, and the promise
//! [`Watch`] reports the break, its cause and its end.

use std::time::Duration;

use itv_cluster::{Cluster, ClusterConfig, Lapse, Promise, Watch};
use itv_media::names;
use ocs_sim::{FaultPlan, NodeRt, Sim, SimTime};

/// A cluster up, its settops booted, at 70 s.
fn ready_cluster(sim: &Sim, cfg: ClusterConfig) -> Cluster {
    Cluster::ready(sim, cfg, SimTime::from_secs(70))
}

/// The one lapse of `p` the watch recorded, ended or not.
fn only_lapse(watch: &Watch, p: Promise) -> Lapse {
    let lapses: Vec<&Lapse> = watch.lapses().iter().filter(|l| l.promise == p).collect();
    assert_eq!(lapses.len(), 1, "one lapse of {p}: {lapses:#?}");
    lapses[0].clone()
}

/// Cuts settop `i` off from every server between `at` and `until`.
fn isolate(cluster: &Cluster, i: usize, at: SimTime, until: SimTime) -> FaultPlan {
    let settop = cluster.settops[i].node.node();
    let servers = cluster.servers.iter().map(|s| s.node.node());
    servers.fold(FaultPlan::new(), |plan, s| plan.partition(s, settop, at, until))
}

#[test]
fn cluster_boots_and_settops_come_up() {
    let sim = Sim::new(101);
    let cluster = ready_cluster(&sim, ClusterConfig::small());
    let totals = cluster.settop_totals();
    assert_eq!(
        totals.booted, cluster.cfg.settops as u64,
        "all settops booted: {totals:?}"
    );
    // Every server's SSC reports its basic services running.
    for (i, server) in cluster.servers.iter().enumerate() {
        for name in ["ns", "auth", "ras"] {
            assert!(server.runs(name), "server {i}: {name} should be running");
        }
    }
}

#[test]
fn settop_plays_a_movie_end_to_end() {
    let sim = Sim::new(102);
    let cluster = ready_cluster(&sim, ClusterConfig::small());
    let settop = &cluster.settops[0];
    settop.watch_movie("movie-0", 10_000);
    let mut watch = Watch::new(&cluster, &[Promise::Stream, Promise::Reclaim]);
    watch.run_for(Duration::from_secs(60));
    let m = &settop.handle.metrics;
    assert!(
        m.movies_opened.get() >= 1,
        "movie opened; log: {:?}",
        m.events.lock()
    );
    assert!(m.segments.get() > 0, "segments flowed");
    assert!(
        m.position_ms.get() >= 10_000,
        "watched 10s, at {}ms",
        m.position_ms.get()
    );
    // The app's download met the §9.3 shape: cover immediately, app
    // start within a few seconds (2.5 MB at 1 MB/s ≈ 2.5 s + overheads).
    let start_us = m.last_app_start_us.get();
    assert!(
        (1_000_000..8_000_000).contains(&start_us),
        "app start {start_us}µs"
    );
    // Session closed cleanly afterwards: the settop, done watching,
    // holds no CM allocation, MDS stream or MMS session; and the one
    // stretch without a stream was the download and the open.
    assert_eq!(watch.broken().count(), 0, "{:#?}", watch.lapses());
    let wait = only_lapse(&watch, Promise::Stream);
    assert!(wait.held.unwrap() - wait.broke < Duration::from_secs(8), "{wait:?}");
}

#[test]
fn mds_crash_midstream_recovers_on_another_replica() {
    let sim = Sim::new(103);
    let mut cfg = ClusterConfig::small();
    cfg.movie_replicas = 2; // Stored on both servers.
    let cluster = ready_cluster(&sim, cfg);
    let settop = &cluster.settops[0];
    settop.watch_movie("movie-0", 60_000);
    // Let playback get going.
    sim.run_for(Duration::from_secs(20));
    let m = &settop.handle.metrics;
    assert!(m.segments.get() > 0, "stream started");
    // Kill server 0's MDS. The CSC restarts it (placement says all
    // servers); a player it served stalls and re-opens on server 1 or on
    // the restarted replica. Playback must reach the target.
    cluster.kill_service(0, "mds");
    sim.run_for(Duration::from_secs(120));
    assert!(
        m.position_ms.get() >= 60_000,
        "playback completed after MDS failure; at {}ms, stalls={}, log: {:?}",
        m.position_ms.get(),
        m.stalls.get(),
        m.events.lock()
    );
}

#[test]
fn settop_crash_reclaims_movie_and_bandwidth() {
    let sim = Sim::new(104);
    let cluster = ready_cluster(&sim, ClusterConfig::small());
    let settop = &cluster.settops[0];
    settop.watch_movie("movie-0", 3_600_000); // Would watch for an hour.
    let mut watch = Watch::new(&cluster, &[Promise::Reclaim]);
    watch.run_for(Duration::from_secs(30));
    // Streaming: one allocation, stream and session, which it may hold.
    assert_eq!(watch.lapses().len(), 0, "{:#?}", watch.lapses());
    // Power cut: the settop process group dies without closing anything
    // (§3.5.1).
    settop.handle.group.kill();
    let t_kill = sim.now();
    watch.run_for(Duration::from_secs(90));
    let leak = only_lapse(&watch, Promise::Reclaim);
    // The stream reaps itself on bounced segments first; the session
    // and the allocation go with the MMS's reclamation.
    assert_eq!(
        leak.cause,
        "settop 0 (dead) holds 1 CM allocations, 0 MDS streams, 1 MMS sessions"
    );
    let reclaimed = leak.held.expect("reclaimed") - t_kill;
    assert!(reclaimed <= Promise::Reclaim.bound(), "reclaimed after {reclaimed:?}");
    // Both journalled what they did: the MDS the stream it abandoned,
    // then the MMS the session its audit found gone there (before the
    // settop's RAS watch fired).
    let timeline = cluster.postmortem();
    let abandon_line = timeline.find(" mds       stream ").expect("no abandon line");
    let reclaim_line = timeline.find("gone at its mds; reclaiming").expect("no reclaim line");
    assert!(abandon_line < reclaim_line, "{timeline}");
}

#[test]
fn mms_failover_to_backup_within_25s() {
    let sim = Sim::new(105);
    let cluster = ready_cluster(&sim, ClusterConfig::small());
    // Find which server runs the MMS primary (bound in the NS).
    let mms_ref = cluster.binding(names::MMS).expect("svc/mms bound");
    let primary_server = cluster
        .servers
        .iter()
        .position(|s| s.node.node() == mms_ref.addr.node)
        .expect("mms runs on a server");
    // Kill it with the controllers stopped, so that nothing re-places
    // it: the name is stale until the backup binds it (§9.7: bounded by
    // bind retry 10 s + audit 10 s + RAS 5 s).
    for i in 0..cluster.servers.len() {
        cluster.kill_service(i, "csc");
    }
    sim.run_for(Duration::from_secs(1));
    let mut watch = Watch::new(&cluster, &[Promise::Rebind(names::MMS)]);
    cluster.kill_service(primary_server, "mms");
    let t_kill = sim.now();
    let settop = &cluster.settops[0];
    settop.watch_movie("movie-0", 5_000);
    watch.run_for(Duration::from_secs(60));
    let m = &settop.handle.metrics;
    assert!(
        m.movies_opened.get() >= 1,
        "movie opened after MMS fail-over; log: {:?}",
        m.events.lock()
    );
    let lapse = only_lapse(&watch, Promise::Rebind(names::MMS));
    // It broke on the dead reference; the audit then unbound it.
    let dead = format!("broken: rebind svc/mms (§9.7, bound 25 s): svc/mms names an object on {}", mms_ref.addr);
    assert!(cluster.postmortem().contains(&dead), "{lapse:?}");
    assert_eq!(lapse.cause, "svc/mms is not bound");
    let rebound = lapse.held.expect("rebound") - t_kill;
    assert!(rebound <= Promise::Rebind(names::MMS).bound(), "rebound after {rebound:?}");
    // The NS audit journalled its removal of the dead name, and the
    // backup that took over its promotion.
    let successor = cluster.binding(names::MMS).expect("svc/mms bound again").addr.node;
    assert_ne!(successor, mms_ref.addr.node);
    let timeline = cluster.postmortem();
    let removed = timeline.find("audit removing dead svc/mms").expect("no audit line");
    let on_successor = format!(" {successor} mms       promoted to primary");
    let promoted = timeline.find(&on_successor).expect("no promotion line");
    assert!(removed < promoted, "{timeline}");
}

#[test]
fn a_settop_cut_off_has_no_stream_until_it_heals() {
    let sim = Sim::new(106);
    let cluster = ready_cluster(&sim, ClusterConfig::small());
    let settop = &cluster.settops[0];
    settop.watch_movie("movie-0", 3_600_000);
    sim.run_for(Duration::from_secs(20));
    let mut watch = Watch::new(&cluster, &[Promise::Stream]);
    let (at, heal) = (sim.now() + Duration::from_secs(1), sim.now() + Duration::from_secs(41));
    watch.run_fault_plan(&isolate(&cluster, 0, at, heal));
    watch.run_for(Duration::from_secs(60));
    // Stalled, the player gave up re-opening; the Application Manager
    // tuned in again until the heal let it through.
    let cut = &watch.lapses()[0];
    assert_eq!(cut.promise, Promise::Stream);
    assert!(cut.cause.starts_with("settop 0 has no stream (last: vod: open failed"), "{cut:?}");
    let back = watch.recovered(Promise::Stream, heal).expect("streaming again") - heal;
    assert!(back <= Promise::Stream.bound(), "streaming {back:?} after the heal");
}

#[test]
fn a_failed_interaction_breaks_the_upgrade_promise_for_good() {
    let sim = Sim::new(107);
    let cluster = ready_cluster(&sim, ClusterConfig::small());
    let settop = &cluster.settops[0];
    settop.shop(500, Duration::from_millis(500));
    sim.run_for(Duration::from_secs(10));
    let mut watch = Watch::new(&cluster, &[Promise::Upgrade]);
    // Cut off for longer than the shop client's 30 s of retrying.
    let (at, heal) = (sim.now() + Duration::from_secs(1), sim.now() + Duration::from_secs(45));
    watch.run_fault_plan(&isolate(&cluster, 0, at, heal));
    watch.run_for(Duration::from_secs(20));
    let lapse = only_lapse(&watch, Promise::Upgrade);
    assert_eq!(lapse.cause, "1 client errors since the watch began");
    assert_eq!(lapse.held, None, "an error once shown stays shown");
    assert_eq!(settop.handle.metrics.shop_failures.get(), 1);
}
