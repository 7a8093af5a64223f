//! `tcp_repl_admit` and `tcp_movie_open`: the wall-clock runtime over
//! TCP loopback. A round is a fixed number of ops — never a fixed
//! duration — so every round leaves the same number of TIME-WAIT sockets
//! behind (every ORB call opens a connection; see README, "Hazards").

use std::sync::Arc;
use std::time::{Duration, Instant};

use itv_cluster::real::{RealCluster, MOVIE_TITLE};
use itv_media::{ports, CmReplica, MediaError, MmsApiClient, MovieCtlClient, MovieTicket, Segment};
use ocs_orb::ClientCtx;
use ocs_sim::real::{RealNet, RealNode};
use ocs_sim::{Addr, Endpoint, NodeId, NodeRt, PortReq, ProcGroup, Rt};
use ocs_wire::Wire;
use parking_lot::Mutex;

use super::{
    budgets, cm_at, common_counts, merged_metrics, spans_dropped, tuned_cm_cfg, Delta, Round,
    Stopwatch, Window,
};
use crate::trace::{SpanLog, NO_SPAN};
use crate::util::{tw_count, SplitMix64};

/// Ops per round: about 0.65 s of timed phase each on the reference
/// host, and ≈5,900 (admit) or ≈5,300 (open) TCP connections.
pub const ADMITS: u64 = 1_000;
pub const OPENS: u64 = 400;
const CM_PORT: u16 = 2000;
const SETTOPS: u64 = 100;
const ADMIT_BPS: u64 = 1_000_000;
const READ_EVERY: u64 = 5;
/// Every `STAY_EVERY`th admission stays up, so the end-of-round audit
/// compares non-empty tables.
const STAY_EVERY: u64 = 10;
/// Every `SEGMENT_EVERY`th movie open also waits for its first segment
/// (once a round: the wait idles for the MDS's 500 ms tick).
const SEGMENT_EVERY: u64 = OPENS;
/// The calls of one movie cycle, in order, as per-layer metrics.
const CYCLE_SPANS: [&str; 4] = [
    "ocs-name.resolve_us",
    "itv-media.mms_open_us",
    "itv-media.mds_play_us",
    "itv-media.mms_close_us",
];
const SETTLE: Duration = Duration::from_secs(15);
/// Cycles per [`Window`]: 12–32 ms of host time, 50 (admit) and 20 (open)
/// windows a round, every one with the same mix of cycles (of 20
/// admissions 2 stay and 4 are followed by a read).
const WINDOW_CYCLES: u64 = 20;

fn eventually(limit: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + limit;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

fn conn_opens(net: &RealNet) -> u64 {
    net.counters()
        .get("real.net.conn_open")
        .copied()
        .unwrap_or(0)
}

/// The transport count metrics both workloads report.
fn transport_counts(r: &mut Round, conns: u64, tw_start: u64) {
    let ops = r.op_us.len().max(1) as f64;
    r.layer
        .insert("ocs-sim.tcp_conns_per_op", conns as f64 / ops);
    r.layer.insert("ocs-sim.tw_at_start", tw_start as f64);
    r.layer.insert("ocs-sim.tw_at_end", tw_count() as f64);
}

// ---------------------------------------------------------------------------
// tcp_repl_admit

pub fn repl_admit_round(seed: u64, traced: bool) -> Round {
    let t_round = Instant::now();
    let tw_start = tw_count();
    let net = RealNet::new();
    let nodes: Vec<Arc<RealNode>> = (0..3)
        .map(|i| net.add_node(&format!("cm{i}")).expect("bind loopback"))
        .collect();
    let peers: Vec<Addr> = nodes.iter().map(|n| Addr::new(n.node(), CM_PORT)).collect();
    // Each replica in its own killable process group, so the round can
    // tear its cluster down before the next one starts.
    let slots: Arc<Mutex<Vec<Option<Arc<CmReplica>>>>> = Arc::new(Mutex::new(vec![None; 3]));
    let groups: Vec<Arc<dyn ProcGroup>> = nodes
        .iter()
        .enumerate()
        .map(|(i, node)| {
            let rt: Rt = node.clone();
            let cfg = tuned_cm_cfg(i as u32, peers.clone(), budgets());
            let slots = Arc::clone(&slots);
            node.spawn_group(
                &format!("cm-{i}"),
                Box::new(move || {
                    slots.lock()[i] = Some(CmReplica::start(rt.clone(), cfg).expect("cm replica"));
                    loop {
                        rt.sleep(Duration::from_secs(3600));
                    }
                }),
            )
        })
        .collect();
    assert!(
        eventually(SETTLE, || slots.lock().iter().all(|s| s.is_some())),
        "cm replicas never started"
    );
    let replicas: Vec<Arc<CmReplica>> = slots.lock().iter().flatten().cloned().collect();
    assert!(
        eventually(SETTLE, || {
            replicas.iter().filter(|r| r.is_master()).count() == 1
                && replicas.iter().all(|r| !r.in_probation())
        }),
        "cm group never settled"
    );
    let primary = replicas
        .iter()
        .position(|r| r.is_master())
        .expect("settled group has a primary");
    let client = net.add_node("settops").expect("bind loopback");
    let rt: Rt = client.clone();
    let cm = cm_at(&rt, peers[primary], Duration::from_secs(2));
    let server = nodes[0].node();
    let warm = cm
        .allocate(0, NodeId(1_000), server, ADMIT_BPS)
        .and_then(|c| cm.release(c));
    assert!(warm.is_ok(), "warm-up admission failed: {warm:?}");

    let client_rts = [rt.clone()];
    let server_rts: Vec<Rt> = nodes.iter().map(|n| n.clone() as Rt).collect();
    let clients_before = merged_metrics(&client_rts);
    let servers_before = merged_metrics(&server_rts);
    let views_before: u64 = replicas.iter().map(|r| r.view()).max().unwrap_or(0);
    let conns_before = conn_opens(&net);

    // ---- timed phase -----------------------------------------------------
    let mut r = Round {
        setup_s: t_round.elapsed().as_secs_f64(),
        ..Round::default()
    };
    let mut g = SplitMix64::lane(seed, 0x33);
    let log = SpanLog::new(rt.clone(), traced);
    let mut stays: Vec<u64> = Vec::new();
    let (mut releases, mut refused, mut follower_lag) = (0u64, 0u64, 0u64);
    let mut watch = Stopwatch::start();
    let mut window = Window::default();
    for c in 1..=ADMITS {
        // Seeded settop order. Admissions that stay go to settops of
        // their own, dealt round-robin, so no 6 Mb/s budget ever binds.
        let settop = if c.is_multiple_of(STAY_EVERY) {
            NodeId(3_000 + (c / STAY_EVERY % SETTOPS) as u32)
        } else {
            NodeId(2_000 + g.below(SETTOPS) as u32)
        };
        r.attempted += 1;
        let t0 = Instant::now();
        let got = log.span("op", c, NO_SPAN, |op| {
            log.span("itv-media.cm_allocate", c, op, |_| {
                cm.allocate(0, settop, server, ADMIT_BPS)
            })
        });
        let conn = match got {
            Ok(conn) => conn,
            Err(e) => {
                refused += u64::from(e == MediaError::NoBandwidth);
                r.failed += 1;
                continue;
            }
        };
        window.op_us.push(t0.elapsed().as_nanos() as f64 / 1000.0);
        if c.is_multiple_of(STAY_EVERY) {
            stays.push(conn);
        } else {
            let released = log.span("release", c, NO_SPAN, |rel| {
                log.span("itv-media.cm_release", c, rel, |_| cm.release(conn))
            });
            if released.is_ok() {
                releases += 1;
            } else {
                r.failed += 1;
            }
        }
        if c.is_multiple_of(READ_EVERY) {
            let t0 = Instant::now();
            let read = log.span("read", c, NO_SPAN, |rd| {
                log.span("itv-media.cm_usage", c, rd, |_| cm.usage())
            });
            match read {
                Ok(_) => window.read_us.push(t0.elapsed().as_nanos() as f64 / 1000.0),
                Err(_) => r.failed += 1,
            }
            let head = replicas[primary].last_seq();
            let lag = replicas
                .iter()
                .map(|x| head.saturating_sub(x.last_seq()))
                .max();
            follower_lag = follower_lag.max(lag.unwrap_or(0));
        }
        if c.is_multiple_of(WINDOW_CYCLES) {
            r.close(&mut window, watch.lap());
        }
    }
    // Only a failed op leaves a window open.
    r.close(&mut window, watch.lap());
    // ----------------------------------------------------------------------

    let conns = conn_opens(&net) - conns_before;
    let clients_after = merged_metrics(&client_rts);
    let servers_after = merged_metrics(&server_rts);
    let ops = r.op_us.len().max(1) as f64;
    let clients = Delta {
        before: &clients_before,
        after: &clients_after,
    };
    let servers = Delta {
        before: &servers_before,
        after: &servers_after,
    };
    common_counts(&mut r.layer, &clients, &servers, ops);
    transport_counts(&mut r, conns, tw_start);
    let client_calls = (r.attempted + releases + r.read_us.len() as u64) as f64;
    let commits = (r.op_us.len() as u64 + releases) as f64;
    r.layer.insert(
        "ocs-vsr.peer_calls_per_commit",
        (servers.count("orb.server.requests") - client_calls) / commits.max(1.0),
    );
    r.layer
        .insert("ocs-vsr.follower_lag_ops", follower_lag as f64);
    let views_after = replicas.iter().map(|x| x.view()).max().unwrap_or(0);
    r.layer
        .insert("ocs-vsr.view_changes", (views_after - views_before) as f64);
    r.layer.insert(
        "itv-media.cm_refused_ratio",
        refused as f64 / r.attempted.max(1) as f64,
    );
    r.layer.insert(
        "ocs-telemetry.spans_dropped",
        spans_dropped(client_rts.iter().chain(&server_rts)) as f64,
    );
    log.drain_into(&mut r.spans);

    // ---- correctness -------------------------------------------------------
    stays.sort_unstable();
    let tables_agree = eventually(Duration::from_secs(5), || {
        replicas.iter().all(|rep| {
            let mut have: Vec<u64> = rep.allocations().iter().map(|d| d.conn).collect();
            have.sort_unstable();
            have == stays
        })
    });
    r.check(tables_agree, || {
        format!(
            "replica tables {:?} differ from the client's {} held admissions",
            replicas
                .iter()
                .map(|x| x.allocations().len())
                .collect::<Vec<_>>(),
            stays.len()
        )
    });
    for (i, rep) in replicas.iter().enumerate() {
        let (indexed, scanned) = rep.audit_reserved_bps();
        r.check(indexed == scanned, || {
            format!("replica {i} reserved-bps index {indexed} != scan {scanned}")
        });
    }

    for g in &groups {
        g.kill();
    }
    for n in nodes.iter().chain([&client]) {
        n.stop();
    }
    r
}

// ---------------------------------------------------------------------------
// tcp_movie_open

pub fn movie_open_round(seed: u64, traced: bool) -> Round {
    let t_round = Instant::now();
    let tw_start = tw_count();
    let cluster = RealCluster::launch(3, 1);
    cluster.start_cm(Duration::from_secs(3600));
    cluster.start_mds();
    cluster.start_mms(Duration::from_secs(3600));
    let settop = Arc::clone(&cluster.settops[0]);
    let rt: Rt = settop.clone();
    let stream = rt
        .open(PortReq::Fixed(ports::SETTOP_STREAM))
        .expect("settop stream port");
    let ns: Vec<_> = (0..3).map(|i| settop_ns(&cluster, &rt, i)).collect();
    let ctx = ClientCtx::new(rt.clone()).with_timeout(Duration::from_secs(3));
    let log = SpanLog::new(rt.clone(), traced);

    // One warm-up open/play/close proves the whole path (the MMS may
    // still be racing for its name) before the clock starts.
    let warmed = eventually(SETTLE, || {
        open_cycle(&ns[0], &ctx, &SpanLog::new(rt.clone(), false), 0, 0).is_ok_and(|(t, _)| {
            MmsApiClient::attach(ctx.clone(), t.mms)
                .is_ok_and(|mms| mms.close(t.ticket.session).is_ok())
        })
    });
    assert!(warmed, "warm-up movie open never succeeded");

    let client_rts = [rt.clone()];
    let server_rts: Vec<Rt> = cluster.servers.iter().map(|n| n.clone() as Rt).collect();
    let clients_before = merged_metrics(&client_rts);
    let servers_before = merged_metrics(&server_rts);
    let conns_before = conn_opens(cluster.net());

    // ---- timed phase -----------------------------------------------------
    let mut r = Round {
        setup_s: t_round.elapsed().as_secs_f64(),
        ..Round::default()
    };
    let mut g = SplitMix64::lane(seed, 0x44);
    let mut first_segment_ms: Vec<f64> = Vec::new();
    let mut watch = Stopwatch::start();
    let mut window = Window::default();
    for c in 1..=OPENS {
        // Seeded inputs: which NS replica the settop asks, and where in
        // the title it resumes.
        let replica = g.below(3) as usize;
        let resume_ms = g.below(500_000);
        r.attempted += 1;
        let t0 = Instant::now();
        let Ok((open, parts)) = open_cycle(&ns[replica], &ctx, &log, c, resume_ms) else {
            r.failed += 1;
            continue;
        };
        window.op_us.push(t0.elapsed().as_nanos() as f64 / 1000.0);
        // The resolve is this workload's read.
        window.read_us.push(parts[0]);
        for (name, us) in CYCLE_SPANS.iter().zip(parts) {
            window.layer_us.entry(name).or_default().push(us);
        }
        if c.is_multiple_of(SEGMENT_EVERY) {
            // The MDS delivers on a 500 ms tick: a model constant that
            // would bury every other microsecond, so it is checked and
            // reported as a layer metric, outside the op.
            let busy = watch.lap();
            match first_segment(&*stream, open.ticket.movie.object_id) {
                Some(()) => first_segment_ms.push(t0.elapsed().as_secs_f64() * 1000.0),
                None => r
                    .violations
                    .push(format!("cycle {c}: no segment within 3 s of play")),
            }
            // The wait is idle time outside every op: restart the clock.
            watch.lap();
            window.host_s += busy.0;
            window.cpu_s += busy.1;
        }
        let t_close = Instant::now();
        let closed = log.span("close", c, NO_SPAN, |cl| {
            log.span("itv-media.mms_close", c, cl, |_| {
                MmsApiClient::attach(ctx.clone(), open.mms)
                    .map_err(|err| MediaError::Comm { err })
                    .and_then(|mms| mms.close(open.ticket.session))
            })
        });
        window
            .layer_us
            .entry(CYCLE_SPANS[3])
            .or_default()
            .push(t_close.elapsed().as_nanos() as f64 / 1000.0);
        if closed.is_err() {
            r.failed += 1;
        }
        // Drop whatever the closed stream still had in flight.
        while stream.recv(Some(Duration::ZERO)).is_ok() {}
        if c.is_multiple_of(WINDOW_CYCLES) {
            r.close(&mut window, watch.lap());
        }
    }
    // Only a failed op leaves a window open.
    r.close(&mut window, watch.lap());
    // ----------------------------------------------------------------------

    let conns = conn_opens(cluster.net()) - conns_before;
    let clients_after = merged_metrics(&client_rts);
    let servers_after = merged_metrics(&server_rts);
    let ops = r.op_us.len().max(1) as f64;
    common_counts(
        &mut r.layer,
        &Delta {
            before: &clients_before,
            after: &clients_after,
        },
        &Delta {
            before: &servers_before,
            after: &servers_after,
        },
        ops,
    );
    transport_counts(&mut r, conns, tw_start);
    r.layer.insert(
        "itv-media.mds_first_segment_ms",
        crate::util::median(&first_segment_ms),
    );
    r.layer.insert(
        "ocs-telemetry.spans_dropped",
        spans_dropped(client_rts.iter().chain(&server_rts)) as f64,
    );
    log.drain_into(&mut r.spans);

    // ---- correctness: the paper's "no resource leaks" ----------------------
    let usage = cluster.cm_usage();
    r.check(
        usage
            .as_ref()
            .is_some_and(|u| u.allocations == 0 && u.reserved_down_bps == 0),
        || format!("connection manager still holds {usage:?}"),
    );
    let sessions = cluster
        .mms_ref()
        .and_then(|m| MmsApiClient::attach(ctx.clone(), m).ok())
        .and_then(|mms| mms.session_count().ok());
    r.check(sessions == Some(0), || {
        format!("MMS still holds {sessions:?} sessions")
    });

    for n in cluster.servers.iter().chain(&cluster.settops) {
        n.kill_all_groups();
        n.stop();
    }
    r
}

/// A name-service handle for the settop, talking to NS replica `i`.
fn settop_ns(cluster: &RealCluster, rt: &Rt, i: usize) -> ocs_name::NsHandle {
    let ns_addr = Addr::new(cluster.servers[i].node(), ports::NS);
    ocs_name::NsHandle::new(
        ClientCtx::new(rt.clone()).with_timeout(Duration::from_secs(3)),
        ns_addr,
    )
}

struct Opened {
    mms: ocs_orb::ObjRef,
    ticket: MovieTicket,
}

/// Runs `f` inside a span under `parent`; returns its value and the µs
/// it took.
fn timed<T, E: ToString>(
    log: &SpanLog,
    name: &'static str,
    req: u64,
    parent: u32,
    f: impl FnOnce() -> Result<T, E>,
) -> Result<(T, f64), String> {
    let t = Instant::now();
    let out = log.span(name, req, parent, |_| f());
    let us = t.elapsed().as_nanos() as f64 / 1000.0;
    out.map(|v| (v, us)).map_err(|e| e.to_string())
}

/// Resolve `svc/mms` → `open` → `play`: time to play-ready. Returns the
/// µs each of the three calls took, in that order.
fn open_cycle(
    ns: &ocs_name::NsHandle,
    ctx: &ClientCtx,
    log: &SpanLog,
    req: u64,
    resume_ms: u64,
) -> Result<(Opened, [f64; 3]), String> {
    log.span("op", req, NO_SPAN, |op| {
        let (mms, resolve) = timed(log, "ocs-name.resolve", req, op, || ns.resolve("svc/mms"))?;
        let (ticket, open) = timed(log, "itv-media.mms_open", req, op, || {
            MmsApiClient::attach(ctx.clone(), mms)
                .map_err(|err| MediaError::Comm { err })?
                .open(MOVIE_TITLE.into(), resume_ms)
        })?;
        let ((), play) = timed(log, "itv-media.mds_play", req, op, || {
            MovieCtlClient::attach(ctx.clone(), ticket.movie)
                .map_err(|err| MediaError::Comm { err })?
                .play(resume_ms)
        })?;
        Ok((Opened { mms, ticket }, [resolve, open, play]))
    })
}

/// Waits (≤ 3 s) for the first segment of movie object `object_id`.
fn first_segment(stream: &dyn Endpoint, object_id: u64) -> Option<()> {
    let deadline = Instant::now() + Duration::from_secs(3);
    while let Some(left) = deadline.checked_duration_since(Instant::now()) {
        if let Ok((_, msg)) = stream.recv(Some(left)) {
            if Segment::from_bytes(&msg).is_ok_and(|s| s.object_id == object_id) {
                return Some(());
            }
        }
    }
    None
}
