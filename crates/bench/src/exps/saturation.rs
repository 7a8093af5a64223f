//! E17: the scale-saturation experiment. Drives a metropolitan-scale
//! settop population (50k by default) through channel-change and
//! movie-open storms against real name-service and Connection-Manager
//! servants over the ORB, and measures what the paper asserts but never
//! quantifies (§8.1–§8.2): admission throughput, tail latency, and that
//! the hot paths stay O(1) as the active-connection table grows.
//!
//! Settops are *population data*, not simulated nodes: a small pool of
//! driver processes each works a slice of the settop id space (a
//! per-process stack rules out one process per settop at this scale).
//! Every driver holds several [`Rebinding`] proxies per neighborhood CM
//! path, so the node-level shared resolve cache is exercised exactly as
//! on a real head-end gateway: proxies × paths collapse to one remote
//! resolve per (node, path).
//!
//! Three legs:
//!  1. the saturation storm (virtual time — deterministic per seed);
//!  2. a same-seed determinism check at reduced scale;
//!  3. a wall-clock timing leg on the CM allocate path comparing a
//!     near-empty table against one holding the full population's
//!     allocations — the ratio certifies the admission decision no
//!     longer scans active connections.

use std::time::Duration;

use itv_media::{ports, CmApi, CmApiClient, CmBudgets, ConnectionManager};
use ocs_name::{NsHandle, RebindPolicy, Rebinding};
use ocs_orb::{Caller, ClientCtx};
use ocs_sim::{Addr, LinkParams, NodeId, NodeRt, NodeRtExt, Rt, Sim, SimChan, SimTime};

use crate::json::Json;
use crate::{f, report, Table};

use super::standalone::ns_group;

/// Neighborhood count (each gets its own CM servant, as in the trial's
/// per-neighborhood partitioning).
const NBHDS: usize = 8;

/// Driver processes for a population size; each owns an equal slice of
/// the settop id space. The count depends only on the population — never
/// on host cores — so the virtual-time trace of a run is identical no
/// matter where it is executed.
fn drivers_for(settops: usize) -> usize {
    if settops >= 200_000 {
        64
    } else {
        16
    }
}
/// Rebinding proxies per (driver, neighborhood) — deliberately more
/// than one, so it is the node-shared cache and not per-proxy caching
/// that keeps resolve traffic flat.
const PROXIES_PER_NBHD: usize = 2;
/// Per-stream rate: 3 Mb/s fits two concurrent streams in the trial's
/// 6 Mb/s settop budget.
const STREAM_BPS: u64 = 3_000_000;

/// Virtual-time results of one storm run (deterministic per seed).
pub(crate) struct StormOut {
    pub(crate) ops: u64,
    failures: u64,
    elapsed_virtual: f64,
    latencies_us: Vec<u64>,
    ns_lookups: u64,
    cache_hits: u64,
    cache_misses: u64,
    cm_accepted: u64,
    /// Kernel events processed (E18's replay leg divides wall time by
    /// this).
    pub(crate) events: u64,
}

/// Runs the storm at `settops` scale with `seed`; pure virtual-time
/// measurement (no wall clock touches the outputs). E18's replay leg
/// runs it too.
pub(crate) fn storm(seed: u64, settops: usize) -> StormOut {
    let sim = Sim::new(seed);
    let ns_nodes = ns_group(&sim, 1, Duration::from_secs(3600));
    let ns_addr = Addr::new(ns_nodes[0].node(), ports::NS);

    // Per-neighborhood CM hosts. Head-end trunk capacity is effectively
    // unconstrained at this scale — the experiment measures throughput,
    // not blocking (E10 covers the admission knee).
    let budgets = CmBudgets {
        settop_down_bps: 6_000_000,
        server_egress_bps: u64::MAX / 4,
    };
    let mut cm_nodes = Vec::new();
    let mut servers = Vec::new();
    for n in 0..NBHDS {
        let node = sim.add_node(&format!("cm{n}"));
        let cm = ConnectionManager::with_lease(
            budgets,
            Some(node.clone() as Rt),
            Some(Duration::from_secs(600)),
        );
        let obj = cm
            .serve(node.clone() as Rt, ports::CMGR + n as u16)
            .expect("cm serves");
        servers.push(node.node());
        // Bind the servant once the (single-replica) master is elected.
        let ns = NsHandle::new(ClientCtx::new(node.clone() as Rt), ns_addr);
        let rt: Rt = node.clone();
        node.spawn_fn("bind-cm", move || {
            rt.sleep(Duration::from_secs(8));
            let _ = ns.bind_new_context("svc");
            let _ = ns.bind_new_context("svc/cmgr");
            let path = format!("svc/cmgr/{n}");
            while ns.bind(&path, obj).is_err() {
                rt.sleep(Duration::from_secs(1));
            }
        });
        cm_nodes.push(node);
    }
    sim.run_until(SimTime::from_secs(15));

    // Driver fleet: each drives its slice of the population through one
    // channel change (tune in, tune away) and one movie open (stream
    // stays up), timing every admission RPC in virtual microseconds.
    let drivers = drivers_for(settops);
    let out: SimChan<(Vec<u64>, u64, SimTime)> = SimChan::new(&sim);
    let t_start = sim.now();
    let mut driver_nodes = Vec::new();
    for d in 0..drivers {
        let node = sim.add_node(&format!("drv{d}"));
        // Last-mile access latency differs per gateway, as neighborhood
        // plant lengths do (300–650 µs one-way): admission RTTs spread
        // into a real distribution instead of collapsing onto a single
        // 2 × 500 µs default-link value with p50 == p99.
        let access = LinkParams::latency_only(Duration::from_micros(300 + 50 * (d as u64 % 8)));
        for &srv in &servers {
            sim.set_link(node.node(), srv, access);
            sim.set_link(srv, node.node(), access);
        }
        sim.set_link(node.node(), ns_addr.node, access);
        sim.set_link(ns_addr.node, node.node(), access);
        let ns = NsHandle::new(ClientCtx::new(node.clone() as Rt), ns_addr);
        let proxies: Vec<Rebinding<CmApiClient>> = (0..NBHDS * PROXIES_PER_NBHD)
            .map(|i| {
                Rebinding::new(
                    ns.clone(),
                    format!("svc/cmgr/{}", i / PROXIES_PER_NBHD),
                    RebindPolicy::default(),
                )
            })
            .collect();
        let out2 = out.clone();
        let rt: Rt = node.clone();
        let servers = servers.clone();
        node.spawn_fn("driver", move || {
            let mut lat: Vec<u64> = Vec::new();
            let mut failures = 0u64;
            // Contiguous slice of the id space, so every driver cycles
            // through all neighborhoods (a strided slice would alias
            // with the neighborhood modulus and pin each driver to one).
            let lo = d * settops / drivers;
            let hi = (d + 1) * settops / drivers;
            for s in lo..hi {
                let k = s - lo;
                let settop = NodeId(100_000 + s as u32);
                let nbhd = s % NBHDS;
                // Alternate proxies per revisit of a path (`k % n` would
                // alias with the neighborhood cycle and always pick the
                // same one).
                let proxy = &proxies[nbhd * PROXIES_PER_NBHD + (s / NBHDS) % PROXIES_PER_NBHD];
                let server = servers[nbhd];
                // Channel change: admit the new channel's stream, then
                // tune away again.
                let t0 = rt.now();
                match proxy.call(|cm| cm.allocate(0, settop, server, STREAM_BPS)) {
                    Ok(conn) => {
                        lat.push(rt.now().saturating_since(t0).as_micros() as u64);
                        let _ = proxy.call(|cm| cm.release(conn));
                    }
                    Err(_) => failures += 1,
                }
                // Movie open: the stream stays up for the rest of the
                // run, so the CM's active table grows to the population
                // size while admissions continue.
                let t1 = rt.now();
                match proxy.call(|cm| cm.allocate(0, settop, server, STREAM_BPS)) {
                    Ok(_) => lat.push(rt.now().saturating_since(t1).as_micros() as u64),
                    Err(_) => failures += 1,
                }
                if k % 128 == 127 {
                    // A breath of think-time spread, seeded and jittered.
                    rt.sleep(Duration::from_micros(500 + rt.rand_u64() % 1500));
                }
            }
            out2.send((lat, failures, rt.now()));
        });
        driver_nodes.push(node);
    }

    // Run until every driver reports (cap well beyond any plausible
    // virtual duration).
    let mut results: Vec<(Vec<u64>, u64, SimTime)> = Vec::new();
    while results.len() < drivers && sim.now() < SimTime::from_secs(36_000) {
        sim.run_for(Duration::from_secs(10));
        while let Some(r) = out.try_recv() {
            results.push(r);
        }
    }
    report::add_virtual_secs(sim.now().as_secs_f64());
    assert_eq!(results.len(), drivers, "all drivers completed");

    let t_end = results.iter().map(|(_, _, t)| *t).max().unwrap_or(t_start);
    let mut latencies_us: Vec<u64> = Vec::new();
    let mut failures = 0u64;
    for (l, fl, _) in &results {
        latencies_us.extend_from_slice(l);
        failures += fl;
    }
    latencies_us.sort_unstable();

    // Client-side cache efficacy and CM-side admission totals.
    let mut drv = ocs_telemetry::MetricsSnapshot::default();
    for n in &driver_nodes {
        drv.merge(&ocs_telemetry::NodeTelemetry::of(&**n).registry.snapshot());
    }
    let mut cm = ocs_telemetry::MetricsSnapshot::default();
    for n in &cm_nodes {
        cm.merge(&ocs_telemetry::NodeTelemetry::of(&**n).registry.snapshot());
    }

    StormOut {
        ops: latencies_us.len() as u64,
        failures,
        elapsed_virtual: t_end.saturating_since(t_start).as_secs_f64(),
        latencies_us,
        ns_lookups: drv.counter("ns.client.lookups"),
        cache_hits: drv.counter("ns.cache.hits"),
        cache_misses: drv.counter("ns.cache.misses"),
        cm_accepted: cm.counter("cm.admission.accepted"),
        events: sim.kernel_stats().events,
    }
}

fn pct(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Wall-clock cost of one allocate/release pair against a CM holding
/// `active` live allocations (direct in-process calls; no ORB, so only
/// the admission bookkeeping is on the clock).
fn allocate_cost_ns(active: usize, pairs: usize) -> f64 {
    let sim = Sim::new(4242);
    let node = sim.add_node("cm-timing");
    let cm = ConnectionManager::with_lease(
        CmBudgets {
            settop_down_bps: 6_000_000,
            server_egress_bps: u64::MAX / 4,
        },
        Some(node.clone() as Rt),
        Some(Duration::from_secs(3600)),
    );
    let caller = Caller::local(NodeId(1));
    let server = NodeId(2);
    for i in 0..active {
        cm.allocate(&caller, 0, NodeId(10_000 + i as u32), server, STREAM_BPS)
            .expect("population allocation admitted");
    }
    let probe_settop = NodeId(5);
    let t0 = std::time::Instant::now();
    for _ in 0..pairs {
        let conn = cm
            .allocate(&caller, 0, probe_settop, server, STREAM_BPS)
            .expect("probe admitted");
        cm.release(&caller, conn).expect("probe released");
    }
    t0.elapsed().as_nanos() as f64 / pairs as f64
}

/// E17: settop-population saturation (§8.1–§8.2 made quantitative).
pub fn e17(settops: usize) {
    let drivers = drivers_for(settops);
    println!("\nE17. Scale saturation: {settops} settops, channel-change + movie-open storm");
    println!(
        "    {NBHDS} neighborhood CMs, {drivers} drivers x {PROXIES_PER_NBHD} proxies/path, \
         shared resolve cache\n"
    );

    // Leg 1: the storm at full scale.
    let wall = std::time::Instant::now();
    let s = storm(1717, settops);
    let storm_wall = wall.elapsed().as_secs_f64();
    let ops_per_sec = s.ops as f64 / s.elapsed_virtual.max(f64::MIN_POSITIVE);
    let p50 = pct(&s.latencies_us, 0.50);
    let p99 = pct(&s.latencies_us, 0.99);
    let max = s.latencies_us.last().copied().unwrap_or(0);

    let mut t = Table::new(&["metric", "value"]);
    t.row(&["settops".into(), settops.to_string()]);
    t.row(&["admission ops".into(), s.ops.to_string()]);
    t.row(&["failures".into(), s.failures.to_string()]);
    t.row(&["virtual elapsed (s)".into(), f(s.elapsed_virtual, 2)]);
    t.row(&["ops/sec (virtual)".into(), f(ops_per_sec, 0)]);
    t.row(&["latency p50 (µs)".into(), p50.to_string()]);
    t.row(&["latency p99 (µs)".into(), p99.to_string()]);
    t.row(&["latency max (µs)".into(), max.to_string()]);
    t.row(&["remote NS resolves".into(), s.ns_lookups.to_string()]);
    t.row(&["shared-cache hits".into(), s.cache_hits.to_string()]);
    report::table(t);
    println!(
        "    {} proxies across the fleet resolved through {} remote lookups;",
        drivers * NBHDS * PROXIES_PER_NBHD,
        s.ns_lookups
    );
    println!("    CM admissions accepted: {}", s.cm_accepted);

    // Leg 2: same-seed determinism at reduced scale — the virtual-time
    // numbers must be bit-identical run to run.
    let check = settops.min(2_000);
    let a = storm(99, check);
    let b = storm(99, check);
    let deterministic = a.ops == b.ops
        && a.failures == b.failures
        && a.elapsed_virtual == b.elapsed_virtual
        && a.latencies_us == b.latencies_us;
    assert!(
        deterministic,
        "same seed must give same virtual-time metrics"
    );
    println!("    determinism: two seed-99 runs at {check} settops identical: {deterministic}");

    // Leg 3: allocate cost vs active-table size. An O(active) scan in
    // the admission path would scale this ratio with the population;
    // the indexed bookkeeping keeps it flat.
    let pairs = 4_000;
    let small = allocate_cost_ns(64, pairs);
    let large = allocate_cost_ns(settops, pairs);
    let ratio = large / small.max(f64::MIN_POSITIVE);
    println!(
        "    allocate+release wall cost: {} ns at 64 active, {} ns at {settops} active (x{})",
        f(small, 0),
        f(large, 0),
        f(ratio, 2)
    );
    assert!(
        ratio < 10.0,
        "allocate path scales with active connections (x{ratio:.1} at {settops})"
    );

    report::put("settops", Json::U64(settops as u64));
    report::put("ops", Json::U64(s.ops));
    report::put("failures", Json::U64(s.failures));
    report::put("ops_per_sec", Json::F64(ops_per_sec));
    report::put("p50_us", Json::U64(p50));
    report::put("p99_us", Json::U64(p99));
    report::put("max_us", Json::U64(max));
    report::put("ns_lookups", Json::U64(s.ns_lookups));
    report::put("cache_hits", Json::U64(s.cache_hits));
    report::put("cache_misses", Json::U64(s.cache_misses));
    report::put("cm_accepted", Json::U64(s.cm_accepted));
    report::put("deterministic_rerun", Json::from(deterministic));
    report::put("drivers", Json::U64(drivers as u64));
    report::put("wall_alloc_ns_small", Json::F64(small));
    report::put("wall_alloc_ns_large", Json::F64(large));
    report::put("wall_alloc_ratio", Json::F64(ratio));
    report::put("wall_storm_seconds", Json::F64(storm_wall));
}
