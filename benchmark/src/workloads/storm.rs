//! `sim_storm` and `sim_repl_storm`: E17's admission storm in virtual
//! time, against unreplicated per-neighborhood Connection Managers or
//! against one 3-replica `CmReplica` group. Same drivers, same links,
//! same op — only what answers `svc/cmgr/<n>` differs, so the ratio of
//! the two `op_p50_us` is the cost of replication.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use itv_media::{CmApi, CmApiClient, CmReplica, ConnectionManager, MediaError};
use ocs_name::{AlwaysAlive, NsConfig, NsHandle, NsReplica, RebindPolicy, Rebinding};
use ocs_orb::{Caller, ClientCtx, ObjRef};
use ocs_sim::{
    Addr, LinkParams, NetConfig, NodeId, NodeRt, NodeRtExt, Rt, ShardPolicy, Sim, SimChan,
    SimConfig, SimNode, SimTime,
};

use super::{
    budgets, common_counts, merged_metrics, on_node, spans_dropped, tuned_cm_cfg, Delta, Round,
    SimCounters, Slices, Stopwatch,
};
use crate::trace::{SpanLog, SpanRec, NO_SPAN};
use crate::util::{Fnv, SplitMix64};

/// Neighborhoods (one CM servant each when unreplicated; eight names
/// for the one replicated group otherwise).
pub const NBHDS: usize = 8;
/// Closed-loop driver processes, each on its own gateway node.
pub const DRIVERS: usize = 16;
/// Rebinding proxies per (driver, neighborhood): more than one, so it
/// is the node-shared cache that keeps resolves at one per node × path.
pub const PROXIES_PER_NBHD: usize = 2;
/// Every `READ_EVERY`th op of a driver is followed by a `usage()` read.
pub const READ_EVERY: u64 = 5;
/// Population per round, sized so one round's timed phase costs about
/// 1.3 s of host time on the reference host: short rounds, and many of
/// them, because host noise comes in bursts of seconds (README, "Spread
/// and bounds").
pub const SETTOPS_PLAIN: usize = 12_000;
pub const SETTOPS_REPL: usize = 3_200;

const NS_PORT: u16 = 10;
const CM_PORT: u16 = 2000;
/// Virtual time per [`Window`](super::Window): about 0.5 ms of host time,
/// 2,000–3,300 windows a round — short enough to fall into the gaps a
/// busy neighbour leaves.
const SLICE: Duration = Duration::from_millis(1);

/// The simulator configuration every `sim_*` workload runs on: one
/// kernel shard, fast path on, nothing read from the environment.
pub fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        net: NetConfig::default(),
        trace: false,
        fast: true,
        shards: 1,
        policy: ShardPolicy::default(),
    }
}

/// One-way driver↔server link latency in µs per driver: a fixed
/// 300–650 µs ladder (E17's plant-length spread) dealt to the drivers in
/// seeded order, plus up to 7 µs of seeded jitter so no two seeds give
/// the same virtual latencies.
pub fn link_ladder_us(seed: u64) -> Vec<u64> {
    let mut g = SplitMix64::lane(seed, 0x11);
    let mut rungs: Vec<u64> = (0..DRIVERS as u64)
        .map(|i| 300 + 350 * i / (DRIVERS as u64 - 1))
        .collect();
    g.shuffle(&mut rungs);
    rungs.iter().map(|r| r + g.below(8)).collect()
}

/// What answers the `svc/cmgr/<n>` names in a round.
enum Backend {
    Plain {
        cms: Vec<Arc<ConnectionManager>>,
    },
    Replicated {
        replicas: Vec<Arc<CmReplica>>,
        primary: usize,
    },
}

struct DriverOut {
    op_us: Vec<u64>,
    read_us: Vec<u64>,
    attempted: u64,
    failed: u64,
    refused: u64,
    releases: u64,
    /// Conn ids of the movie-open allocations that stay up.
    stays: Vec<u64>,
    end: SimTime,
    spans: Vec<SpanRec>,
}

/// With `timed` off the round ends where the timed phase would begin,
/// with nothing but its `setup_s`.
pub fn round(seed: u64, replicated: bool, traced: bool, timed: bool) -> Round {
    let t_round = Instant::now();
    let settops = if replicated {
        SETTOPS_REPL
    } else {
        SETTOPS_PLAIN
    };
    let sim = Sim::with_config(sim_config(seed));

    // A 1-replica name service (NS reads and binds are not what this
    // workload measures; `ocs-name.*` probes cover a 3-replica group).
    let ns_node = sim.add_node("ns0");
    let ns_addr = Addr::new(ns_node.node(), NS_PORT);
    let mut ns_cfg = NsConfig::paper_defaults(0, vec![ns_addr]);
    ns_cfg.audit_interval = Duration::from_secs(3600);
    let _ns = NsReplica::start(ns_node.clone() as Rt, ns_cfg, Arc::new(AlwaysAlive))
        .expect("ns replica starts");

    let server_nodes: Vec<Arc<SimNode>> = (0..if replicated { 3 } else { NBHDS })
        .map(|i| sim.add_node(&format!("cm{i}")))
        .collect();
    let (backend, objs): (Backend, Vec<ObjRef>) = if replicated {
        let peers: Vec<Addr> = server_nodes
            .iter()
            .map(|n| Addr::new(n.node(), CM_PORT))
            .collect();
        let replicas: Vec<Arc<CmReplica>> = server_nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                CmReplica::start(
                    n.clone() as Rt,
                    tuned_cm_cfg(i as u32, peers.clone(), budgets()),
                )
                .expect("cm replica starts")
            })
            .collect();
        let settled = |rs: &[Arc<CmReplica>]| {
            rs.iter().filter(|r| r.is_master()).count() == 1 && rs.iter().all(|r| !r.in_probation())
        };
        while !settled(&replicas) {
            assert!(sim.now() < SimTime::from_secs(60), "cm group never settled");
            sim.run_for(Duration::from_millis(20));
        }
        let primary = replicas
            .iter()
            .position(|r| r.is_master())
            .expect("settled group has a primary");
        let root = replicas[primary].root_ref();
        (Backend::Replicated { replicas, primary }, vec![root; NBHDS])
    } else {
        let cms: Vec<Arc<ConnectionManager>> = server_nodes
            .iter()
            .map(|n| {
                ConnectionManager::with_lease(
                    budgets(),
                    Some(n.clone() as Rt),
                    Some(Duration::from_secs(3600)),
                )
            })
            .collect();
        let objs = cms
            .iter()
            .zip(&server_nodes)
            .enumerate()
            .map(|(i, (cm, n))| {
                cm.serve(n.clone() as Rt, CM_PORT + i as u16)
                    .expect("cm serves")
            })
            .collect();
        (Backend::Plain { cms }, objs)
    };

    // Bind the names once the single-replica NS has elected itself.
    let binds = objs.clone();
    on_node(&sim, &server_nodes[0], Duration::from_secs(60), move |rt| {
        let ns = NsHandle::new(ClientCtx::new(rt.clone()), ns_addr);
        while ns.bind_new_context("svc").is_err() {
            rt.sleep(Duration::from_millis(200));
        }
        ns.bind_new_context("svc/cmgr").expect("mk svc/cmgr");
        for (n, obj) in binds.iter().enumerate() {
            ns.bind(&format!("svc/cmgr/{n}"), *obj).expect("bind cm");
        }
    });

    // Driver gateways, each with its own access latency to every server
    // and to the name service.
    let ladder = link_ladder_us(seed);
    let driver_nodes: Vec<Arc<SimNode>> = (0..DRIVERS)
        .map(|d| {
            let node = sim.add_node(&format!("drv{d}"));
            let access = LinkParams::latency_only(Duration::from_micros(ladder[d]));
            for peer in server_nodes.iter().chain([&ns_node]) {
                sim.set_link(node.node(), peer.node(), access);
                sim.set_link(peer.node(), node.node(), access);
            }
            node
        })
        .collect();
    // The server a settop's stream is charged to (any node id will do
    // for the replicated group: egress is unconstrained).
    let stream_servers: Vec<NodeId> = (0..NBHDS)
        .map(|n| server_nodes[n % server_nodes.len()].node())
        .collect();

    // One warm-up op proves the whole path before the clock starts.
    let warm_server = stream_servers[0];
    let warm = on_node(&sim, &driver_nodes[0], Duration::from_secs(60), move |rt| {
        let ns = NsHandle::new(ClientCtx::new(rt), ns_addr);
        let cm: Rebinding<CmApiClient> = Rebinding::new(ns, "svc/cmgr/0", RebindPolicy::default());
        cm.call(|c| c.allocate(0, NodeId(99_999), warm_server, super::STREAM_BPS))
            .and_then(|conn| cm.call(|c| c.release(conn)))
    });
    assert!(warm.is_ok(), "warm-up admission failed: {warm:?}");

    let client_rts: Vec<Rt> = driver_nodes.iter().map(|n| n.clone() as Rt).collect();
    let server_rts: Vec<Rt> = server_nodes
        .iter()
        .chain([&ns_node])
        .map(|n| n.clone() as Rt)
        .collect();
    let clients_before = merged_metrics(&client_rts);
    let servers_before = merged_metrics(&server_rts);
    let view_before = backend.max_view();
    let counters_before = SimCounters::take(&sim);

    // ---- timed phase -----------------------------------------------------
    let setup_s = t_round.elapsed().as_secs_f64();
    if !timed {
        return Round {
            setup_s,
            ..Round::default()
        };
    }
    let out: SimChan<DriverOut> = SimChan::new(&sim);
    let t_start = sim.now();
    let mut watch = Stopwatch::start();
    let mut slices = Slices::start(&sim, SLICE);
    for (d, node) in driver_nodes.iter().enumerate() {
        let rt: Rt = node.clone();
        let out = out.clone();
        let servers = stream_servers.clone();
        let lo = d * settops / DRIVERS;
        let hi = (d + 1) * settops / DRIVERS;
        node.spawn_fn("driver", move || {
            out.send(drive(rt, ns_addr, seed, d, lo..hi, &servers, traced));
        });
    }
    let mut results: Vec<DriverOut> = Vec::new();
    let mut follower_lag = 0u64;
    while results.len() < DRIVERS {
        assert!(
            sim.now() < t_start + Duration::from_secs(3600),
            "storm drivers never finished"
        );
        slices.run_for(Duration::from_secs(1));
        follower_lag = follower_lag.max(backend.follower_lag());
        while let Some(r) = out.try_recv() {
            results.push(r);
        }
    }
    let (host_s, cpu_s) = watch.lap();
    // ----------------------------------------------------------------------

    let counters_after = SimCounters::take(&sim);
    let clients_after = merged_metrics(&client_rts);
    let servers_after = merged_metrics(&server_rts);

    let t_end = results.iter().map(|r| r.end).max().unwrap_or(t_start);
    let mut r = Round {
        setup_s,
        clock_s: t_end.saturating_since(t_start).as_secs_f64(),
        host_s,
        cpu_s,
        ..Round::default()
    };
    let mut fp = Fnv::new();
    let mut stays: Vec<u64> = Vec::new();
    let (mut refused, mut releases) = (0u64, 0u64);
    for d in &mut results {
        for us in &d.op_us {
            fp.word(*us);
        }
        for us in &d.read_us {
            fp.word(*us);
        }
        fp.word(d.end.as_micros());
        r.op_us.extend(d.op_us.iter().map(|us| *us as f64));
        r.read_us.extend(d.read_us.iter().map(|us| *us as f64));
        r.attempted += d.attempted;
        r.failed += d.failed;
        refused += d.refused;
        releases += d.releases;
        stays.append(&mut d.stays);
        crate::trace::append(&mut r.spans, std::mem::take(&mut d.spans));
    }
    fp.word(sim.trace_hash());
    r.fingerprint = Some(fp.0);

    let ops = r.op_us.len().max(1) as f64;
    r.windows = slices.finish(ops);
    counters_before.report(&counters_after, ops, &mut r);
    let layer = &mut r.layer;
    let clients = Delta {
        before: &clients_before,
        after: &clients_after,
    };
    let servers = Delta {
        before: &servers_before,
        after: &servers_after,
    };
    common_counts(layer, &clients, &servers, ops);
    layer.insert(
        "itv-media.cm_refused_ratio",
        refused as f64 / r.attempted.max(1) as f64,
    );
    layer.insert(
        "ocs-telemetry.spans_dropped",
        spans_dropped(client_rts.iter().chain(&server_rts)) as f64,
    );
    if let Backend::Replicated { .. } = &backend {
        // Requests the replicas served, minus the ones the drivers sent
        // (every op, release and read is exactly one): what remains is
        // replica-to-replica traffic, per committed update.
        let client_calls = (r.attempted + releases + r.read_us.len() as u64) as f64;
        let commits = (r.op_us.len() as u64 + releases) as f64;
        layer.insert(
            "ocs-vsr.peer_calls_per_commit",
            (servers.count("orb.server.requests") - client_calls) / commits.max(1.0),
        );
        layer.insert("ocs-vsr.follower_lag_ops", follower_lag as f64);
        layer.insert(
            "ocs-vsr.view_changes",
            (backend.max_view() - view_before) as f64,
        );
    }

    // ---- correctness -------------------------------------------------------
    // Let backups apply the tail of the log before comparing tables.
    sim.run_for(Duration::from_secs(2));
    stays.sort_unstable();
    let expect_stays = settops as u64;
    r.check(stays.len() as u64 + r.failed >= expect_stays, || {
        format!(
            "{} movie streams stayed up, {expect_stays} expected",
            stays.len()
        )
    });
    match &backend {
        Backend::Plain { cms } => {
            let caller = Caller::local(NodeId(0));
            let (mut allocs, mut reserved) = (0u64, 0u64);
            for cm in cms {
                let u = cm.usage(&caller).expect("local usage");
                allocs += u64::from(u.allocations);
                reserved += u.reserved_down_bps;
            }
            r.check(allocs == stays.len() as u64, || {
                format!(
                    "CMs hold {allocs} allocations, client holds {}",
                    stays.len()
                )
            });
            r.check(reserved == allocs * super::STREAM_BPS, || {
                format!("CMs reserve {reserved} bps for {allocs} streams")
            });
        }
        Backend::Replicated { replicas, .. } => {
            for (i, rep) in replicas.iter().enumerate() {
                let mut have: Vec<u64> = rep.allocations().iter().map(|d| d.conn).collect();
                have.sort_unstable();
                r.check(have == stays, || {
                    format!(
                        "replica {i} holds {} allocations, client holds {}",
                        have.len(),
                        stays.len()
                    )
                });
                let (indexed, scanned) = rep.audit_reserved_bps();
                r.check(indexed == scanned, || {
                    format!("replica {i} reserved-bps index {indexed} != scan {scanned}")
                });
            }
        }
    }
    r
}

impl Backend {
    /// The group's current view (each view change adds one).
    fn max_view(&self) -> u64 {
        match self {
            Backend::Plain { .. } => 0,
            Backend::Replicated { replicas, .. } => {
                replicas.iter().map(|r| r.view()).max().unwrap_or(0)
            }
        }
    }

    /// How many committed ops the slowest backup trails the primary by.
    fn follower_lag(&self) -> u64 {
        match self {
            Backend::Plain { .. } => 0,
            Backend::Replicated { replicas, primary } => {
                let head = replicas[*primary].last_seq();
                replicas
                    .iter()
                    .map(|r| head.saturating_sub(r.last_seq()))
                    .max()
                    .unwrap_or(0)
            }
        }
    }
}

/// One closed-loop driver: works its slice of the settop population in
/// seeded order, one channel change (allocate, release) and one movie
/// open (allocate that stays) per settop.
fn drive(
    rt: Rt,
    ns_addr: Addr,
    seed: u64,
    d: usize,
    slice: std::ops::Range<usize>,
    servers: &[NodeId],
    traced: bool,
) -> DriverOut {
    let ns = NsHandle::new(ClientCtx::new(rt.clone()), ns_addr);
    let proxies: Vec<Rebinding<CmApiClient>> = (0..NBHDS * PROXIES_PER_NBHD)
        .map(|i| {
            Rebinding::new(
                ns.clone(),
                format!("svc/cmgr/{}", i / PROXIES_PER_NBHD),
                RebindPolicy::default(),
            )
        })
        .collect();
    let mut g = SplitMix64::lane(seed, 0x100 + d as u64);
    let mut order: Vec<usize> = slice.collect();
    g.shuffle(&mut order);
    let log = SpanLog::new(rt.clone(), traced);
    let mut out = DriverOut {
        op_us: Vec::with_capacity(order.len() * 2),
        read_us: Vec::new(),
        attempted: 0,
        failed: 0,
        refused: 0,
        releases: 0,
        stays: Vec::with_capacity(order.len()),
        end: rt.now(),
        spans: Vec::new(),
    };
    let mut req = (d as u64) << 32;
    for (k, s) in order.into_iter().enumerate() {
        let settop = NodeId(100_000 + s as u32);
        let nbhd = s % NBHDS;
        let proxy = &proxies[nbhd * PROXIES_PER_NBHD + (s / NBHDS) % PROXIES_PER_NBHD];
        let server = servers[nbhd];
        // Channel change tunes in and away again; movie open stays.
        for stays in [false, true] {
            req += 1;
            out.attempted += 1;
            let t0 = rt.now();
            let got = log.span("op", req, NO_SPAN, |op| {
                log.span("ocs-name.rebind", req, op, |rb| {
                    proxy.call(|cm| {
                        log.span("itv-media.cm_allocate", req, rb, |_| {
                            cm.allocate(0, settop, server, super::STREAM_BPS)
                        })
                    })
                })
            });
            match got {
                Ok(conn) => {
                    out.op_us
                        .push(rt.now().saturating_since(t0).as_micros() as u64);
                    if stays {
                        out.stays.push(conn);
                    } else {
                        let released = log.span("release", req, NO_SPAN, |rel| {
                            log.span("ocs-name.rebind", req, rel, |rb| {
                                proxy.call(|cm| {
                                    log.span("itv-media.cm_release", req, rb, |_| cm.release(conn))
                                })
                            })
                        });
                        if released.is_ok() {
                            out.releases += 1;
                        } else {
                            out.failed += 1;
                        }
                    }
                }
                Err(MediaError::NoBandwidth) => {
                    out.refused += 1;
                    out.failed += 1;
                }
                Err(_) => out.failed += 1,
            }
            if out.attempted.is_multiple_of(READ_EVERY) {
                let t0 = rt.now();
                let read = log.span("read", req, NO_SPAN, |rd| {
                    log.span("ocs-name.rebind", req, rd, |rb| {
                        proxy.call(|cm| log.span("itv-media.cm_usage", req, rb, |_| cm.usage()))
                    })
                });
                match read {
                    Ok(_) => out
                        .read_us
                        .push(rt.now().saturating_since(t0).as_micros() as u64),
                    Err(_) => out.failed += 1,
                }
            }
        }
        if k % 128 == 127 {
            // A breath of seeded think time, so the drivers drift apart.
            rt.sleep(Duration::from_micros(500 + g.below(1500)));
        }
    }
    out.end = rt.now();
    log.drain_into(&mut out.spans);
    out
}

/// The per-workload inputs the output states (README, "Injected
/// delays").
pub fn describe(seed: u64, replicated: bool) -> BTreeMap<&'static str, String> {
    let mut ladder = link_ladder_us(seed);
    ladder.sort_unstable();
    let mut m = BTreeMap::new();
    m.insert(
        "driver link one-way (us)",
        format!(
            "{}..{} (median {})",
            ladder[0],
            ladder[DRIVERS - 1],
            median_link_us(seed)
        ),
    );
    m.insert(
        "settops per round",
        if replicated {
            SETTOPS_REPL
        } else {
            SETTOPS_PLAIN
        }
        .to_string(),
    );
    if replicated {
        m.insert("replica link one-way (us)", "500".into());
    }
    m
}

/// The median driver's one-way access latency — the link the ORB and
/// name-service probes of these workloads run over.
pub fn median_link_us(seed: u64) -> u64 {
    let mut ladder = link_ladder_us(seed);
    ladder.sort_unstable();
    ladder[DRIVERS / 2]
}
