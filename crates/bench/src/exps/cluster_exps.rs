//! Experiments that run on a full cluster: fail-over timing (E1/E2),
//! capacity scaling (E4), response time (E7), playback interruption
//! (E8), reclamation latency (E13), rolling upgrade (E14) and
//! fault-storm convergence (E15).

use std::time::Duration;

use itv_cluster::{ClusterConfig, TelemetrySnapshot};
use itv_media::{CmApiClient, MmsApiClient};
use ocs_sim::{FaultPlan, NodeRt, SimTime};
use ocs_telemetry::{render_span_trees, span_forest, MetricsSnapshot, NodeTelemetry, Span};

use crate::exps::{primary_server_of, probe, ready_cluster, remote_mms_primary, watch_rebind};
use crate::json::Json;
use crate::{f, report, Stats, Table};

/// E1 (§9.7): primary/backup fail-over time of the MMS with the paper's
/// deployed parameters, across randomized crash phases.
pub fn e1() {
    println!("\nE1. Primary/backup fail-over time (MMS), paper parameters (§9.7)");
    println!("    bind retry 10s, NS->RAS audit 10s, RAS<->RAS poll 5s");
    println!("    paper: \"maximum fail over time of 25 seconds\"\n");
    let mut samples = Vec::new();
    let trials = 6;
    for k in 0..trials {
        let (sim, cluster) = ready_cluster(1000 + k, ClusterConfig::small());
        let Some((primary, old_ref)) = remote_mms_primary(&cluster) else {
            continue;
        };
        // Spread the crash instant across the polling phase.
        sim.run_for(Duration::from_millis(1700 * k));
        let watcher = watch_rebind(&cluster, "svc/mms", old_ref);
        cluster.kill_service(primary, "mms");
        let t0 = sim.now();
        sim.run_for(Duration::from_secs(60));
        if let Some(at) = watcher.try_recv() {
            samples.push(at.saturating_since(t0).as_secs_f64());
        }
        if k == trials - 1 {
            report::put_metrics("metrics", &cluster.telemetry_snapshot().merged);
        }
        report::add_virtual_secs(sim.now().as_secs_f64());
    }
    let s = Stats::of(&samples);
    let mut t = Table::new(&["trials", "min", "median", "mean", "max", "paper max"]);
    t.row(&[
        s.n.to_string(),
        f(s.min, 1),
        f(s.p50, 1),
        f(s.mean, 1),
        f(s.max, 1),
        "25.0".into(),
    ]);
    t.print();
    report::put("failover_seconds", report::stats_json(&s));
    report::put("table", t.to_json());
}

/// E2 (§7.2.1, §9.7): fail-over time vs the three polling intervals,
/// against the steady-state audit message rate — the tuning trade-off.
pub fn e2() {
    println!("\nE2. Fail-over time vs polling intervals, and the message-rate cost (§9.7)");
    println!("    (bind retry, NS audit, RAS poll) scaled together\n");
    let mut t = Table::new(&[
        "bind/audit/ras (s)",
        "failover (s)",
        "bg msgs/s",
        "paper bound (s)",
    ]);
    for (retry, audit, ras) in [
        (2.0, 2.0, 1.0),
        (5.0, 5.0, 2.5),
        (10.0, 10.0, 5.0),
        (20.0, 20.0, 10.0),
    ] {
        let mut cfg = ClusterConfig::small();
        cfg.bind_retry = Duration::from_secs_f64(retry);
        cfg.ns_audit = Duration::from_secs_f64(audit);
        cfg.ras_poll = Duration::from_secs_f64(ras);
        cfg.mms_ras_poll = Duration::from_secs_f64(audit);
        let (sim, cluster) = ready_cluster(2000 + retry as u64, cfg);
        let Some((primary, old_ref)) = remote_mms_primary(&cluster) else {
            continue;
        };
        // Steady-state message rate over a quiet minute, and what one
        // name-service replica committed in it: with nothing failing
        // that is load reports and the backups' §5.2 bind retries, not
        // services re-binding names they hold.
        let ns_commits = NodeTelemetry::of(&*cluster.servers[0].node)
            .registry
            .counter("ns.vsr.commits");
        let (msgs, commits) = (sim.net_stats().msgs_sent, ns_commits.get());
        sim.run_for(Duration::from_secs(60));
        let rate = (sim.net_stats().msgs_sent - msgs) as f64 / 60.0;
        if retry == 10.0 {
            // The deployed row.
            report::put(
                "idle_ns_updates_per_min",
                (ns_commits.get() - commits).into(),
            );
            report::put("bg_msgs_per_s_deployed", rate.into());
        }
        // One fail-over measurement.
        let watcher = watch_rebind(&cluster, "svc/mms", old_ref);
        cluster.kill_service(primary, "mms");
        let t0 = sim.now();
        sim.run_for(Duration::from_secs(90));
        let failover = watcher
            .try_recv()
            .map(|at| at.saturating_since(t0).as_secs_f64())
            .unwrap_or(f64::NAN);
        // The paper's bound: retry + audit + ras/2-ish; report retry+audit+ras.
        t.row(&[
            format!("{retry:.0}/{audit:.0}/{ras:.1}"),
            f(failover, 1),
            f(rate, 1),
            f(retry + audit + ras, 1),
        ]);
        report::put_metrics("metrics", &cluster.telemetry_snapshot().merged);
        report::add_virtual_secs(sim.now().as_secs_f64());
    }
    t.print();
    report::put("table", t.to_json());
    println!("    shape: fail-over shrinks with the intervals; message rate grows.");
}

/// E4 (§1, §9.6): aggregate interactive throughput vs number of servers
/// — "system capacity grows linearly with the number of servers".
pub fn e4() {
    println!("\nE4. Capacity scaling with servers (§9.6): shop interactions/s\n");
    let mut t = Table::new(&[
        "servers",
        "settops",
        "interactions/s",
        "per-server",
        "scaling",
    ]);
    let mut base = 0.0;
    for servers in [1usize, 2, 3, 4] {
        let mut cfg = ClusterConfig::small();
        cfg.servers = servers;
        cfg.neighborhoods_per_server = 2;
        cfg.settops = servers * 4;
        cfg.movie_replicas = 1;
        let (sim, cluster) = ready_cluster(4000 + servers as u64, cfg);
        // Every settop shops hard for a fixed window.
        for s in &cluster.settops {
            {
                let mut i = s.intent.lock();
                i.interactions = 1_000_000;
                i.think = Duration::from_millis(20);
            }
            s.handle.tune(ClusterConfig::CHANNEL_SHOP);
        }
        // Downloads settle (~1 s for the shop binary), then measure.
        sim.run_for(Duration::from_secs(10));
        let before = cluster.settop_totals().interactions;
        sim.run_for(Duration::from_secs(60));
        let done = cluster.settop_totals().interactions - before;
        let rate = done as f64 / 60.0;
        if servers == 1 {
            base = rate;
        }
        t.row(&[
            servers.to_string(),
            cluster.cfg.settops.to_string(),
            f(rate, 1),
            f(rate / servers as f64, 1),
            format!("{:.2}x", rate / base),
        ]);
        report::put_metrics("metrics", &cluster.telemetry_snapshot().merged);
        report::add_virtual_secs(sim.now().as_secs_f64());
    }
    t.print();
    report::put("table", t.to_json());
    println!("    shape: per-server rate roughly flat => linear scaling.");
}

/// E7 (§9.3): response time — cover beats 0.5 s; a rich application
/// starts in 2–4 s at 1 MByte/s download bandwidth. `cover_max_s` is the
/// slowest cover over all application sizes.
pub fn e7() {
    println!("\nE7. Channel-change response time vs application size (§9.3)");
    println!("    paper: cover within 0.5s; rich app start-up 2-4s at 1 MB/s\n");
    let mut t = Table::new(&["app size (MB)", "cover (s)", "app start (s)", "paper"]);
    let mut cover_max = 0f64;
    for size_mb in [0.5f64, 1.0, 2.0, 4.0] {
        let mut cfg = ClusterConfig::small();
        cfg.vod_app_size = (size_mb * 1e6) as u64;
        let (sim, cluster) = ready_cluster(7000 + (size_mb * 10.0) as u64, cfg);
        let settop = &cluster.settops[0];
        {
            let mut i = settop.intent.lock();
            i.title = "movie-0".into();
            i.watch_ms = 2_000;
        }
        settop.handle.tune(ClusterConfig::CHANNEL_VOD);
        sim.run_for(Duration::from_secs(30));
        let m = &settop.handle.metrics;
        let cover = m.last_cover_us.get() as f64 / 1e6;
        cover_max = cover_max.max(cover);
        let start = m.last_app_start_us.get() as f64 / 1e6;
        let expected = if (2.0..=4.0).contains(&size_mb) {
            "2-4s rich app"
        } else {
            "-"
        };
        t.row(&[
            f(size_mb, 1),
            f(cover, 3),
            f(start, 2),
            expected.to_string(),
        ]);
        report::put_metrics("metrics", &cluster.telemetry_snapshot().merged);
        report::add_virtual_secs(sim.now().as_secs_f64());
    }
    t.print();
    report::put("table", t.to_json());
    report::put("cover_max_s", Json::F64(cover_max));
}

/// E8 (§3.5.2): playback interruption when the serving MDS crashes —
/// stall detection, close, re-open on a surviving replica.
pub fn e8() {
    println!("\nE8. MDS crash mid-playback: interruption until the stream resumes (§3.5.2)");
    println!("    paper: failures \"covered with only a very brief interruption\"\n");
    let mut interruptions = Vec::new();
    let mut stalls_total = 0u64;
    for k in 0..5u64 {
        let mut cfg = ClusterConfig::small();
        cfg.movie_replicas = 2;
        let (sim, cluster) = ready_cluster(8000 + k, cfg);
        let settop = &cluster.settops[0];
        {
            let mut i = settop.intent.lock();
            i.title = "movie-0".into();
            i.watch_ms = 120_000;
        }
        settop.handle.tune(ClusterConfig::CHANNEL_VOD);
        sim.run_for(Duration::from_secs(15) + Duration::from_millis(700 * k));
        cluster.kill_service((k % 2) as usize, "mds");
        sim.run_for(Duration::from_secs(150));
        let m = &settop.handle.metrics;
        let stalls = m.stalls.get();
        stalls_total += stalls;
        if stalls > 0 {
            interruptions
                .push(m.interruption_us.get() as f64 / 1e6 / stalls as f64);
        }
        if k == 4 {
            report::put_metrics("metrics", &cluster.telemetry_snapshot().merged);
        }
        report::add_virtual_secs(sim.now().as_secs_f64());
    }
    let s = Stats::of(&interruptions);
    let mut t = Table::new(&[
        "trials w/ stall",
        "stalls",
        "interruption min",
        "median",
        "max",
    ]);
    t.row(&[
        s.n.to_string(),
        stalls_total.to_string(),
        f(s.min, 1),
        f(s.p50, 1),
        f(s.max, 1),
    ]);
    t.print();
    report::put("interruption_seconds", report::stats_json(&s));
    report::put("table", t.to_json());
    println!("    (stall detection threshold is 2.5s; recovery adds the re-open round trips)");
}

/// E13 (§3.5.1): resources reclaimed after a settop crash, vs the MMS's
/// RAS polling interval.
pub fn e13() {
    println!("\nE13. Settop-crash resource reclamation vs MMS RAS-poll interval (§3.5.1)");
    println!("    chain: settop-mgr pings -> RAS -> MMS poll -> close movie + release VC\n");
    let mut t = Table::new(&["mms poll (s)", "reclaimed after (s)"]);
    // Per poll interval; NaN where `usage()` never reached 0 allocations.
    let mut reclaims = Vec::new();
    for poll in [5u64, 10, 20] {
        let mut cfg = ClusterConfig::small();
        cfg.mms_ras_poll = Duration::from_secs(poll);
        let (sim, cluster) = ready_cluster(13_000 + poll, cfg);
        let settop = &cluster.settops[0];
        {
            let mut i = settop.intent.lock();
            i.title = "movie-0".into();
            i.watch_ms = 3_600_000;
        }
        settop.handle.tune(ClusterConfig::CHANNEL_VOD);
        sim.run_for(Duration::from_secs(25));
        let nbhd = settop.neighborhood;
        settop.handle.group.kill();
        let t0 = sim.now();
        let mut reclaimed = f64::NAN;
        for _ in 0..40 {
            sim.run_for(Duration::from_secs(3));
            let ns = cluster.ns(0);
            let node = cluster.servers[0].node.clone();
            let usage = probe(&sim, &node, Duration::from_secs(1), move || {
                ns.resolve_as::<CmApiClient>(&format!("svc/cmgr/{nbhd}"))
                    .ok()
                    .and_then(|cm| cm.usage().ok())
            })
            .flatten();
            if let Some(u) = usage {
                if u.allocations == 0 {
                    reclaimed = sim.now().saturating_since(t0).as_secs_f64();
                    break;
                }
            }
        }
        t.row(&[poll.to_string(), f(reclaimed, 0)]);
        reclaims.push(reclaimed);
        report::put_metrics("metrics", &cluster.telemetry_snapshot().merged);
        report::add_virtual_secs(sim.now().as_secs_f64());
    }
    t.print();
    let unreclaimed = reclaims.iter().filter(|r| r.is_nan()).count();
    let max = reclaims.iter().copied().fold(f64::NAN, f64::max);
    report::put("max_reclaim_s", Json::F64(max));
    report::put("unreclaimed", Json::U64(unreclaimed as u64));
    report::put("table", t.to_json());
    println!("    shape: mid-stream crashes hit the delivery-failure fast path,");
    println!("    so reclamation beats the poll chain regardless of the interval.");
}

/// E14 (§9.5): rolling upgrade — kill a service, the SSC restarts the
/// "new binary", clients rebind invisibly.
pub fn e14() {
    println!("\nE14. Rolling upgrade of the shop service (§9.5)");
    println!("    paper: \"clients using the service see no disruption\"\n");
    let (sim, cluster) = ready_cluster(14_000, ClusterConfig::small());
    let settop = &cluster.settops[0];
    {
        let mut i = settop.intent.lock();
        i.interactions = 500;
        i.think = Duration::from_millis(500);
    }
    settop.handle.tune(ClusterConfig::CHANNEL_SHOP);
    sim.run_for(Duration::from_secs(10));
    let before = settop.handle.metrics.interactions.get();
    // "Copy a corrected binary and kill the service" on both servers in
    // sequence (the RoundRobin selector spreads clients over replicas).
    cluster.kill_service(0, "shop");
    sim.run_for(Duration::from_secs(20));
    cluster.kill_service(1, "shop");
    sim.run_for(Duration::from_secs(60));
    let m = &settop.handle.metrics;
    let after = m.interactions.get();
    let errors = m
        .events
        .lock()
        .iter()
        .filter(|(_, e)| e.contains("shopping failed"))
        .count();
    let mut t = Table::new(&[
        "interactions before kill",
        "after both restarts",
        "rebinds",
        "client-visible errors",
    ]);
    t.row(&[
        before.to_string(),
        after.to_string(),
        m.rebinds.get().to_string(),
        errors.to_string(),
    ]);
    t.print();
    report::put("client_errors", Json::U64(errors as u64));
    report::put_metrics("metrics", &cluster.telemetry_snapshot().merged);
    report::add_virtual_secs(sim.now().as_secs_f64());
    report::put("table", t.to_json());
    println!(
        "    SSC auto-restart counts (0 = the CSC re-placed it instead): {:?}",
        cluster
            .servers
            .iter()
            .map(|s| {
                s.ssc
                    .lock()
                    .as_ref()
                    .map(|ssc| {
                        ssc.statuses()
                            .iter()
                            .find(|st| st.name == "shop")
                            .map(|st| st.restarts)
                            .unwrap_or(0)
                    })
                    .unwrap_or(0)
            })
            .collect::<Vec<_>>()
    );
}

/// E15: fault-storm convergence — how long after the last fault heals
/// until every settop can stream again, as the number of seeded faults
/// per campaign grows. Exercises the whole resilience stack at once:
/// retry/deadline budgets, circuit breakers, primary/backup fail-over,
/// CM allocation leases and MDS delivery-failure reclamation.
pub fn e15() {
    println!("\nE15. Fault-storm convergence: recovery time vs fault rate");
    println!("    seeded random campaigns (crashes, partitions, impairments)");
    println!("    recovery = heal point -> all settops streaming a fresh movie\n");
    let mut t = Table::new(&[
        "faults/storm",
        "trials",
        "converged",
        "median recovery (s)",
        "max (s)",
    ]);
    let mut storm_metrics = MetricsSnapshot::default();
    for faults in [1u32, 3, 6] {
        let trials = 4u64;
        let mut samples = Vec::new();
        for k in 0..trials {
            let mut cfg = ClusterConfig::small();
            cfg.movie_replicas = 2;
            let (sim, cluster) = ready_cluster(15_000 + faults as u64 * 100 + k, cfg);
            // The storms crash server 1 only: keep the MMS primary there,
            // whichever instance bound first.
            let _ = remote_mms_primary(&cluster);
            // A live workload for the storm to land on.
            for s in &cluster.settops {
                {
                    let mut i = s.intent.lock();
                    i.title = "movie-0".to_string();
                    i.watch_ms = 20_000;
                }
                s.handle.tune(ClusterConfig::CHANNEL_VOD);
            }
            sim.run_for(Duration::from_secs(2));
            let start = sim.now() + Duration::from_secs(2);
            let mut spec = cluster.chaos_spec(start, start + Duration::from_secs(30));
            spec.faults = faults;
            let plan = FaultPlan::random(k + 1, &spec);
            let outcome = cluster.run_fault_plan(&plan);
            // From the heal point, time how long until every settop has
            // opened (and can therefore finish) a fresh short session.
            let before = cluster.settop_totals();
            for s in &cluster.settops {
                {
                    let mut i = s.intent.lock();
                    i.title = "movie-0".to_string();
                    i.watch_ms = 2_000;
                }
                s.handle.tune(ClusterConfig::CHANNEL_VOD);
            }
            let t0 = outcome.healed_at.max(sim.now());
            let want = cluster.settops.len() as u64;
            for _ in 0..150 {
                sim.run_for(Duration::from_secs(1));
                if cluster.settop_totals().movies_opened - before.movies_opened >= want {
                    samples.push(sim.now().saturating_since(t0).as_secs_f64());
                    break;
                }
            }
            // Fold this storm's cluster-wide counters into the E15
            // telemetry record (retries, sheds, breaker transitions...).
            storm_metrics.merge(&cluster.telemetry_snapshot().merged);
            report::add_virtual_secs(sim.now().as_secs_f64());
        }
        let s = Stats::of(&samples);
        t.row(&[
            faults.to_string(),
            trials.to_string(),
            s.n.to_string(),
            f(s.p50, 1),
            f(s.max, 1),
        ]);
    }
    t.print();
    report::put("table", t.to_json());
    println!("    shape: recovery stays bounded as the storm intensifies;");
    println!("    misses would show as converged < trials.");

    // Telemetry view of the same storms: one deterministic partition leg
    // (run twice with the same seed) checks that the causal span trees
    // replay bit-identically, and its counters — merged with the random
    // storms above — show the whole resilience stack firing.
    println!("\n    telemetry: deterministic partition leg, same-seed replay");
    let (dump_a, snap_a) = breaker_leg();
    let (dump_b, _snap_b) = breaker_leg();
    let deterministic = dump_a == dump_b;
    storm_metrics.merge(&snap_a.merged);
    println!("    span trees identical across same-seed runs: {deterministic}");
    println!(
        "    retries {}  rebinds {}  breaker opened/half/closed {}/{}/{}  shed {}  deadline-shed {}",
        storm_metrics.counter("orb.rebind.retries"),
        storm_metrics.counter("orb.rebind.rebinds"),
        storm_metrics.counter("orb.breaker.opened"),
        storm_metrics.counter("orb.breaker.half_opened"),
        storm_metrics.counter("orb.breaker.closed"),
        storm_metrics.counter("orb.rebind.breaker_shed"),
        storm_metrics.counter("orb.server.deadline_shed"),
    );
    if let Some([tree, _]) = movie_open_trees(&snap_a.spans) {
        println!("    slowest movie-open request tree (partition leg):");
        print!("{tree}");
        report::put("slowest_movie_open_tree", Json::from(tree));
    }
    report::put("span_trees_deterministic", Json::from(deterministic));
    report::put_metrics("metrics", &storm_metrics);
}

/// One deterministic partition campaign whose shape provably drives a
/// client circuit breaker through a full open → half-open → closed
/// cycle: the chosen settop keeps resolving the MMS through its own
/// (reachable) name service while the MMS primary stays cut off, so its
/// calls keep failing until the heal lets a half-open probe through.
fn breaker_leg() -> (String, TelemetrySnapshot) {
    let mut cfg = ClusterConfig::small();
    cfg.movie_replicas = 2;
    let (sim, cluster) = ready_cluster(15_999, cfg);
    for s in &cluster.settops {
        {
            let mut i = s.intent.lock();
            i.title = "movie-0".to_string();
            i.watch_ms = 20_000;
        }
        s.handle.tune(ClusterConfig::CHANNEL_VOD);
    }
    sim.run_for(Duration::from_secs(2));
    let (a, b) = (
        cluster.servers[0].node.node(),
        cluster.servers[1].node.node(),
    );
    // Cut the settop whose home server is NOT the MMS primary off from
    // the primary; its home name service stays reachable throughout.
    let primary = primary_server_of(&cluster, "svc/mms").map_or(0, |(idx, _)| idx);
    let victim = cluster.settops[1 - (primary % 2)].node.node();
    let primary_node = cluster.servers[primary].node.node();
    let plan = FaultPlan::new()
        .partition(a, b, SimTime::from_secs(82), SimTime::from_secs(99))
        .partition(primary_node, victim, SimTime::from_secs(84), SimTime::from_secs(119));
    let outcome = cluster.run_fault_plan(&plan);
    sim.run_until(outcome.healed_at + Duration::from_secs(40));
    let snap = cluster.telemetry_snapshot();
    report::add_virtual_secs(sim.now().as_secs_f64());
    (render_span_trees(&snap.spans, 3), snap)
}

/// Renders two of the traces rooted at a settop's `itv.mms.open` call —
/// the canonical "movie open" request tree crossing name service, CM,
/// MMS and MDS: the slowest, and the quickest.
fn movie_open_trees(spans: &[Span]) -> Option<[String; 2]> {
    let forest = span_forest(spans);
    let mut opens: Vec<(u64, &Vec<Span>)> = Vec::new();
    for trace in forest.values() {
        let Some(root) = trace.iter().find(|s| s.parent.0 == 0) else {
            continue;
        };
        if root.name != "client:itv.mms.open" {
            continue;
        }
        let start = trace.iter().map(|s| s.start).min()?;
        let end = trace.iter().map(|s| s.end).max()?;
        opens.push((end.as_micros().saturating_sub(start.as_micros()), trace));
    }
    // Ties go to the earlier trace either way.
    let slowest = opens.iter().rev().max_by_key(|(dur, _)| *dur)?;
    let quickest = opens.iter().min_by_key(|(dur, _)| *dur)?;
    Some([slowest, quickest].map(|(_, trace)| render_span_trees(trace, 1)))
}

/// E16: causal span dump — one settop changes channel into a VOD
/// session; every RPC the fan-out makes (name service, Connection
/// Manager, MMS, MDS, RAS) lands in one causally-linked span forest,
/// and the dump renders the slowest `top_n` request trees.
pub fn e16(top_n: usize) {
    println!("\nE16. Causal RPC span dump: slowest {top_n} request trees (1 settop, one movie)");
    println!("    every span carries (trace, span, parent) propagated in the ORB frames\n");
    let mut cfg = ClusterConfig::small();
    cfg.settops = 1;
    let (sim, cluster) = ready_cluster(16_000, cfg);
    let settop = &cluster.settops[0];
    {
        let mut i = settop.intent.lock();
        i.title = "movie-0".to_string();
        i.watch_ms = 10_000;
    }
    settop.handle.tune(ClusterConfig::CHANNEL_VOD);
    // (Stopping between two of the MDSs' 5 s load reports, each of which
    // drops the cached `svc/mds` set.)
    sim.run_for(Duration::from_millis(62_500));
    // Then two opens back to back: the second finds both of the MMS's
    // name lookups in its node's resolve cache — the warm open.
    let ctx = ocs_orb::ClientCtx::new(settop.node.clone());
    let ns = ocs_name::NsHandle::new(ctx.clone(), cluster.ns_peers[0]);
    probe(&sim, &settop.node, Duration::from_secs(5), move || {
        let mms_ref = ns.resolve("svc/mms").expect("svc/mms bound");
        let mms = MmsApiClient::attach(ctx, mms_ref).expect("mms reference");
        for _ in 0..2 {
            let ticket = mms.open("movie-0".into(), 0).expect("open");
            mms.close(ticket.session).expect("close");
        }
    })
    .expect("the two opens returned");
    let snap = cluster.telemetry_snapshot();
    report::add_virtual_secs(sim.now().as_secs_f64());
    let traces = span_forest(&snap.spans).len();
    println!(
        "    scraped {} spans in {} traces; movies opened: {}",
        snap.spans.len(),
        traces,
        settop.handle.metrics.movies_opened.get()
    );
    let dump = render_span_trees(&snap.spans, top_n);
    print!("{dump}");
    if let Some([slowest, warm]) = movie_open_trees(&snap.spans) {
        println!("    slowest movie-open request tree:");
        print!("{slowest}");
        println!("    quickest (warm) movie-open request tree:");
        print!("{warm}");
        report::put("slowest_movie_open_tree", Json::from(slowest));
        report::put("warm_movie_open_tree", Json::from(warm));
    }
    report::put("spans", Json::U64(snap.spans.len() as u64));
    report::put("traces", Json::U64(traces as u64));
    report::put("span_dump", Json::from(dump));
    report::put_metrics("metrics", &snap.merged);
}
