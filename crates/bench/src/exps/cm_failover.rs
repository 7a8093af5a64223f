//! E22: Connection Manager fail-over — replicated admission state vs
//! the §5.2 reassertion baseline. Three legs:
//!
//! * baseline (§5.2-style): a standalone CM whose successor starts with
//!   an *empty* table and re-learns allocations from owner reassertion.
//!   The scripted rounds show the hole: between takeover and
//!   reassertion, a saturated settop is re-admitted (over-admission),
//!   after which the original still-streaming lease is refused
//!   re-admission — bandwidth flows with no reservation behind it;
//! * replicated, paper-scale timeouts (2 s heartbeat, 5 s election) —
//!   kill the VSR primary mid-load and measure the update blackout
//!   (crash → the next allocate commits), against the paper's 25 s
//!   fail-over bound;
//! * replicated, deployed tuning (200 ms / 600 ms) — the sub-second
//!   blackout claim.
//!
//! Both replicated legs end with a consistency audit: every surviving
//! replica's allocation table must equal the client's record of what
//! committed (no lost leases, no doubled retries), and the incremental
//! reserved-bandwidth total must match a full table scan.

use std::sync::Arc;
use std::time::Duration;

use itv_media::{
    ports, CmApiClient, CmBudgets, CmReplica, CmReplicaConfig, ConnDesc, ConnectionManager,
    MediaError,
};
use ocs_orb::{ClientCtx, ObjRef};
use ocs_sim::{Addr, NodeId, Rt, Sim};
use ocs_vsr::group::{call_on, Group, Spec, STEP};
use ocs_vsr::ReplicaConfig;

use super::group::{audit, report_leg, sim_leg, Audit, Leg, PAPER, TUNED};
use crate::json::Json;
use crate::{report, Table};

/// The settop kept at its full 6 Mbit/s budget through every kill: any
/// post-fail-over grant against it is an admission violation.
const SAT_BPS: u64 = 6_000_000;

/// The replicated CM's group under `leg`'s timeouts.
fn cm_group(leg: &Leg) -> Spec<CmReplica> {
    Spec {
        name: "cm",
        port: ports::CMGR,
        tuning: leg.tuning,
        start: Arc::new(|rt, r: ReplicaConfig| {
            let cfg = CmReplicaConfig {
                // Expiry off for the storm so the audit is exact (lease
                // reclamation is covered by the cm_replica integration tests).
                lease_ttl: None,
                ..CmReplicaConfig::with_replication(r, CmBudgets::default())
            };
            CmReplica::start(rt, cfg)
        }),
        status: |r| Some(r.status()),
    }
}

/// The MMS retry loop in miniature: the same token on every attempt.
fn allocate(
    group: &Group<CmReplica>,
    token: u64,
    settop: NodeId,
    down_bps: u64,
) -> Result<u64, MediaError> {
    let server = group.node(0);
    group.submit(move |rt, peer, timeout| {
        match cm_at(rt, peer, timeout).allocate(token, settop, server, down_bps) {
            Err(MediaError::NoBandwidth) => Some(Err(MediaError::NoBandwidth)),
            r => r.ok().map(Ok),
        }
    })
}

fn release(group: &Group<CmReplica>, conn: u64) {
    group.submit(move |rt, peer, timeout| {
        match cm_at(rt, peer, timeout).release(conn) {
            // UnknownSession: an earlier attempt committed but its reply
            // was lost (e.g. the forward timed out under paper
            // timeouts); the conn being gone IS the commit.
            Ok(()) | Err(MediaError::UnknownSession { .. }) => Some(()),
            Err(_) => None,
        }
    })
}

fn cm_at(rt: &Rt, peer: Addr, timeout: Duration) -> CmApiClient {
    let target = ObjRef {
        addr: peer,
        incarnation: ObjRef::STABLE,
        type_id: CmApiClient::TYPE_ID,
        object_id: 0,
    };
    attach(rt, target, timeout)
}

fn attach(rt: &Rt, obj: ObjRef, timeout: Duration) -> CmApiClient {
    CmApiClient::attach(ClientCtx::new(rt.clone()).with_timeout(timeout), obj)
        .expect("attach cm client")
}

/// Per-leg outcome of a replicated kill storm.
struct StormResult {
    blackouts: Vec<f64>,
    over_admissions: u64,
    audit: Audit,
}

/// Repeated primary kills under allocate/release load. Every committed
/// grant is recorded client-side; the post-storm audit compares that
/// record against each healed replica's table, and the reserved-bps
/// index against a full scan.
fn replicated_storm(group: &Group<CmReplica>, leg: &Leg, rounds: usize) -> StormResult {
    group.settle("at start");
    let sat_settop = group.client().node();
    // Pin the saturated settop at its full budget for the whole storm.
    let sat_conn = allocate(group, 1, sat_settop, SAT_BPS).expect("saturating allocate");
    let mut granted: Vec<u64> = vec![sat_conn];
    let mut next_token = 2u64;
    let mut over_admissions = 0u64;
    let blackouts = group.storm(rounds, leg.dwell, |round, kill| {
        // The blackout sensor: how long until the next allocate commits
        // on a survivor (spread across settops so budgets never bind).
        let settop = group.node(round % 3);
        let conn = allocate(group, next_token, settop, 100_000).expect("post-kill allocate");
        let blackout = group.since(kill.at);
        granted.push(conn);
        // The admission probe: the successor inherited the saturated
        // settop's reservation, so this must be refused. The baseline
        // leg grants it.
        match allocate(group, next_token + 1, sat_settop, 1_000_000) {
            Err(MediaError::NoBandwidth) => {}
            Ok(conn) => {
                over_admissions += 1;
                granted.push(conn);
            }
            Err(e) => panic!("e22: admission probe failed oddly: {e}"),
        }
        next_token += 2;
        // Exercise release through the new primary: retire the rotating
        // grant from two rounds back.
        if granted.len() > 3 {
            release(group, granted.remove(1));
        }
        blackout
    });
    let tables = group.audit(|r| {
        let (indexed, scanned) = r.audit_reserved_bps();
        let conns = r.allocations().iter().map(|d| d.conn).collect();
        Some((conns, indexed == scanned))
    });
    let audit = audit(granted, tables);
    StormResult {
        blackouts,
        over_admissions,
        audit,
    }
}

/// The §5.2 baseline, scripted: a standalone CM dies; its successor
/// starts empty and waits for reassertion. Count how often the recovery
/// window (a) re-admits a settop that is already saturated and (b) then
/// refuses to re-admit the original, still-streaming lease — whose
/// bandwidth keeps flowing with no reservation behind it.
fn baseline_rounds(rounds: usize) -> (u64, u64) {
    let sim = Sim::new(22_000);
    let client: Rt = sim.add_node("load");
    let mut over_admissions = 0u64;
    let mut lost_leases = 0u64;
    for round in 0..rounds {
        let a: Rt = sim.add_node(&format!("cm-a{round}"));
        let obj_a = serve_standalone(&sim, &a);
        let settop = client.node();
        let server = a.node();
        // A little prior traffic so the saturating lease's conn id is
        // not the successor's first id (MMS keeps conn ids across the
        // CM's death; the successor restarts its counter).
        for t in 1..3u64 {
            call(&sim, &client, obj_a, move |cm| {
                cm.allocate(t, NodeId(90 + t as u32), server, 100_000)
            })
            .expect("baseline warm-up allocate");
        }
        // Saturate the settop, then lose the primary.
        let sat = call(&sim, &client, obj_a, move |cm| {
            cm.allocate(3, settop, server, SAT_BPS)
        })
        .expect("baseline saturating allocate");
        sim.crash_node(a.node());
        // §5.2 takeover: the successor starts with an empty table.
        let b: Rt = sim.add_node(&format!("cm-b{round}"));
        let obj_b = serve_standalone(&sim, &b);
        // The recovery-window probe: the successor knows nothing about
        // the saturated settop yet, so this is granted — an admission
        // violation against a settop already drawing its full budget.
        let probe = call(&sim, &client, obj_b, move |cm| {
            cm.allocate(10, settop, server, 1_000_000)
        });
        if probe.is_ok() {
            over_admissions += 1;
        }
        // MMS reassertion arrives late with the original lease. The
        // interloper took the budget, so the still-streaming 6 Mbit/s
        // lease is refused re-admission: its bandwidth keeps flowing
        // with no reservation behind it.
        let desc = ConnDesc {
            conn: sat,
            settop,
            server,
            down_bps: SAT_BPS,
        };
        let reassert = call(&sim, &client, obj_b, move |cm| cm.reassert(desc));
        if reassert == Err(MediaError::NoBandwidth) {
            lost_leases += 1;
        }
        sim.crash_node(b.node());
    }
    (over_admissions, lost_leases)
}

/// A standalone (§5.2) CM with an empty table, serving on `node`.
fn serve_standalone(sim: &Sim, node: &Rt) -> ObjRef {
    call_on(sim, node, STEP, |rt| {
        let cm = ConnectionManager::with_clock(CmBudgets::default(), Some(rt.clone()));
        cm.serve(rt, ports::CMGR).expect("baseline cm serves")
    })
}

/// Runs `f` from `node` against the baseline CM at `obj`.
fn call<T: Send + 'static>(
    sim: &Sim,
    node: &Rt,
    obj: ObjRef,
    f: impl FnOnce(CmApiClient) -> T + Send + 'static,
) -> T {
    call_on(sim, node, STEP, move |rt| {
        f(attach(&rt, obj, Duration::from_secs(2)))
    })
}

/// E22: CM fail-over — admission state across primary kills.
pub fn e22() {
    println!("\nE22. Connection Manager fail-over: replicated admission state");
    println!("    blackout = primary crash -> the next allocate commits");
    println!("    probe    = re-admitting a settop already at its 6 Mbit/s budget\n");
    let mut t = Table::new(&[
        "leg",
        "rounds",
        "blackout p50 (s)",
        "blackout p99 (s)",
        "over-admissions",
        "lost",
        "doubled",
    ]);

    // Leg 1: the §5.2 reassertion baseline (scripted recovery window).
    let (base_over, base_lost) = baseline_rounds(6);
    t.row(&[
        "baseline §5.2 reassertion".into(),
        "6".into(),
        "n/a (see E1)".into(),
        "n/a (see E1)".into(),
        base_over.to_string(),
        base_lost.to_string(),
        "-".into(),
    ]);

    let mut storm_leg = |seed, leg: &'static Leg, key, rounds| {
        let r = sim_leg(seed, cm_group(leg), |group| {
            replicated_storm(group, leg, rounds)
        });
        let extra = [r.over_admissions, r.audit.lost, r.audit.doubled].map(|n| n.to_string());
        report_leg(
            &mut t,
            format!("replicated, {}", leg.label),
            key,
            &r.blackouts,
            &extra,
        );
        r
    };
    // Leg 2: replicated, paper-scale timeouts.
    let paper = storm_leg(22_001, &PAPER, "repl_paper_blackout", 8);
    // Leg 3: replicated, deployed tuning.
    let tuned = storm_leg(22_002, &TUNED, "repl_blackout", 10);
    println!(
        "    baseline recovery window: {base_over}/6 rounds re-admitted a saturated settop, \
         {base_lost}/6 then refused the still-streaming lease's reassertion (unbooked bandwidth)"
    );
    let exact = paper.audit.exact && tuned.audit.exact;
    println!(
        "    replicated post-storm audit: {}",
        if exact {
            "every replica matches the client's committed set exactly"
        } else {
            "FAILED (see above)"
        }
    );

    report::put("paper_bound_s", Json::F64(25.0));
    report::put("baseline_over_admissions", Json::U64(base_over));
    report::put("baseline_lost_leases", Json::U64(base_lost));
    report::put(
        "over_admissions_replicated",
        Json::U64(paper.over_admissions + tuned.over_admissions),
    );
    report::put(
        "lost_allocs",
        Json::U64(paper.audit.lost.max(tuned.audit.lost)),
    );
    report::put(
        "doubled_allocs",
        Json::U64(paper.audit.doubled.max(tuned.audit.doubled)),
    );
    report::put("audit_consistent", Json::Bool(exact));
    report::table(t);
}
