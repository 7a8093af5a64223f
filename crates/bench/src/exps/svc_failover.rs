//! E23: service-control fail-over — the controllers' placement/config
//! table on the replicated log vs the §6.2 regeneration story. Three
//! legs:
//!
//! * replicated, paper-scale timeouts (2 s heartbeat, 5 s election) —
//!   a controller-kill storm under placement load, measuring the update
//!   blackout (primary crash → the next placement decision commits)
//!   against the paper's 25 s fail-over bound;
//! * replicated, deployed tuning (200 ms / 600 ms) — the sub-second
//!   blackout;
//! * real TCP, deployed tuning (unless `--sim-only`): the same storm
//!   with process groups actually killed, wall clock.
//!
//! Every leg ends with the placement audit: each surviving replica's
//! table must equal the client's record of what committed — no lost
//! placements, no doubled decisions on cross-fail-over token retries —
//! and the promoted backup must inherit the full table instantly (no
//! §6.2 "query every SSC" regeneration round).

use std::sync::Arc;
use std::time::Duration;

use itv_media::ports;
use ocs_name::NsHandle;
use ocs_orb::{ClientCtx, ObjRef};
use ocs_sim::{Addr, NodeId, NodeRtExt, Rt};
use ocs_svcctl::{Csc, CscApiClient, CscConfig, SvcError};
use ocs_vsr::group::{Group, Spec};
use ocs_vsr::ReplicaConfig;

use super::group::{audit, report_leg, sim_leg, Audit, Leg, PAPER, TUNED};
use crate::json::Json;
use crate::{report, Table};

/// The controllers' group under `leg`'s timeouts. A member has no name
/// service or database behind it (the storm drives the table through
/// `place_op`, which has no side effects): the keeper and DB seeding
/// fail fast against a port nothing listens on and idle, with a long
/// advert retry so the dead-NS keeper stays quiet.
fn csc_group(leg: &Leg) -> Spec<Csc> {
    Spec {
        name: "csc",
        port: ports::CSC,
        tuning: leg.tuning,
        start: Arc::new(|rt: Rt, rep: ReplicaConfig| {
            let ns = NsHandle::new(ClientCtx::new(rt.clone()), Addr::new(rt.node(), 49));
            let cfg = CscConfig {
                bind_retry: Duration::from_secs(60),
                replica: Some(rep),
            };
            let csc = Csc::new(rt.clone(), cfg, ns);
            let run = Arc::clone(&csc);
            rt.spawn_fn("csc-run", move || {
                let _ = run.run(|_| {});
            });
            Ok(csc)
        }),
        status: |csc| csc.replica().map(|r| r.status()),
    }
}

/// One decision submitted to the controllers.
#[derive(Clone)]
enum Op {
    Define(u64, String, Vec<NodeId>),
    Place(u64, String, NodeId, bool),
}

impl Op {
    /// One attempt at one replica: `Some` for a committed answer — a
    /// decision epoch or a committed refusal — `None` for transport
    /// trouble.
    fn attempt(&self, rt: &Rt, peer: Addr, timeout: Duration) -> Option<Result<u64, SvcError>> {
        let target = ObjRef {
            addr: peer,
            incarnation: ObjRef::STABLE,
            type_id: CscApiClient::TYPE_ID,
            object_id: 0,
        };
        let c = CscApiClient::attach(ClientCtx::new(rt.clone()).with_timeout(timeout), target)
            .expect("attach csc client");
        let r = match self.clone() {
            Op::Define(token, name, nodes) => c.define_service(token, name, nodes),
            Op::Place(token, name, node, run) => c.place_op(token, name, node, run),
        };
        match r {
            Ok(_) | Err(SvcError::UnknownService { .. } | SvcError::NotPlaced { .. }) => Some(r),
            Err(_) => None,
        }
    }
}

/// The placement load of a controller kill storm, and the client's
/// record of what committed. `decide` is the operator retry loop: the
/// same token on every attempt, so a mid-commit crash cannot double a
/// decision.
struct Placements<'a> {
    decide: &'a dyn Fn(Op) -> Result<u64, SvcError>,
    nodes: Vec<NodeId>,
    next_token: u64,
    /// The durable placements that must survive every kill, with their
    /// recorded decision epochs.
    placed: Vec<(String, NodeId, u64)>,
    /// The churn service the blackout sensor places round by round.
    rotor: Vec<(NodeId, u64)>,
    /// Tokened retries or idempotent re-places that came back with a
    /// *different* epoch — each one is a doubled placement decision.
    redecided: u64,
}

impl<'a> Placements<'a> {
    /// Defines `services` durable services on `copies` nodes each, plus
    /// the empty rotor.
    fn seed(
        decide: &'a dyn Fn(Op) -> Result<u64, SvcError>,
        nodes: Vec<NodeId>,
        services: usize,
        copies: usize,
    ) -> Placements<'a> {
        let mut p = Placements {
            decide,
            nodes,
            next_token: 1,
            placed: Vec::new(),
            rotor: Vec::new(),
            redecided: 0,
        };
        for s in 0..services {
            let name = format!("svc-{s}");
            let on: Vec<NodeId> = (0..copies).map(|c| p.nodes[(s + c) % 3]).collect();
            let epoch = p
                .submit(|t| Op::Define(t, name.clone(), on.clone()))
                .expect("seed define");
            p.placed
                .extend(on.into_iter().map(|n| (name.clone(), n, epoch)));
        }
        p.submit(|t| Op::Define(t, "rotor".into(), Vec::new()))
            .expect("rotor define");
        p
    }

    fn submit(&mut self, op: impl FnOnce(u64) -> Op) -> Result<u64, SvcError> {
        self.next_token += 1;
        (self.decide)(op(self.next_token - 1))
    }

    /// The blackout sensor: returns once the next placement decision
    /// has committed on a survivor.
    fn sensor(&mut self, round: usize) {
        let node = self.nodes[(round + 1) % 3];
        let epoch = self
            .submit(|t| Op::Place(t, "rotor".into(), node, true))
            .expect("post-kill place");
        match self.rotor.iter().find(|(n, _)| *n == node) {
            // Placing where it already is confirms at the old epoch.
            Some((_, prev)) if epoch != *prev => self.redecided += 1,
            Some(_) => {}
            None => self.rotor.push((node, epoch)),
        }
    }

    fn probes(&mut self, round: usize) {
        // The doubled-placement probe: re-place a durable placement
        // under a fresh token. The committed table must answer with the
        // original decision epoch — a bump would be a re-decision, the
        // placement analogue of E22's double-book.
        let (name, n, want_epoch) = self.placed[round % self.placed.len()].clone();
        let got = self
            .submit(|t| Op::Place(t, name, n, true))
            .expect("idempotent re-place");
        if got != want_epoch {
            self.redecided += 1;
        }
        // Exercise unplace through the new primary: retire the rotor
        // placement from two rounds back.
        if self.rotor.len() > 2 {
            let (node, _) = self.rotor.remove(0);
            match self.submit(|t| Op::Place(t, "rotor".into(), node, false)) {
                Ok(_) | Err(SvcError::NotPlaced { .. }) => {}
                Err(e) => panic!("e23: rotor unplace failed oddly: {e}"),
            }
        }
    }

    /// Every (service, node) the client saw commit and not retire.
    fn want(&self) -> Vec<(String, NodeId)> {
        let durable = self.placed.iter().map(|(s, n, _)| (s.clone(), *n));
        let rotor = self.rotor.iter().map(|(n, _)| ("rotor".to_string(), *n));
        durable.chain(rotor).collect()
    }
}

/// One controller's placement table as audit keys, plus its self-audit.
fn table_of(csc: &Csc) -> Option<(Vec<(String, NodeId)>, bool)> {
    let rep = csc.replica()?;
    let have = rep
        .placements()
        .into_iter()
        .flat_map(|p| p.nodes.into_iter().map(move |n| (p.service.clone(), n)))
        .collect();
    Some((have, rep.audit_ok()))
}

/// Per-leg outcome of a controller kill storm.
struct StormResult {
    blackouts: Vec<f64>,
    audit: Audit,
    redecided: u64,
}

impl StormResult {
    fn new(blackouts: Vec<f64>, mut audit: Audit, redecided: u64) -> StormResult {
        audit.doubled += redecided;
        StormResult {
            blackouts,
            audit,
            redecided,
        }
    }
}

/// Repeated primary kills under placement load. Every committed decision
/// is recorded client-side; the post-storm audit compares that record
/// against each healed replica's table.
fn replicated_storm(group: &Group<Csc>, leg: &Leg, rounds: usize) -> StormResult {
    group.settle("at start");
    let decide = |op: Op| group.submit(move |rt, peer, timeout| op.attempt(rt, peer, timeout));
    let nodes = group.nodes().iter().map(|n| n.node()).collect();
    let mut load = Placements::seed(&decide, nodes, 6, 2);
    let blackouts = group.storm(rounds, leg.dwell, |round, kill| {
        load.sensor(round);
        let blackout = group.since(kill.at);
        load.probes(round);
        blackout
    });
    let audit = audit(load.want(), group.audit(table_of));
    StormResult::new(blackouts, audit, load.redecided)
}

fn leg_row(t: &mut Table, leg: String, key: &str, r: &StormResult) {
    let audit = if r.audit.exact { "exact" } else { "FAIL" };
    let extra = [
        r.audit.lost.to_string(),
        r.audit.doubled.to_string(),
        audit.into(),
    ];
    report_leg(t, leg, key, &r.blackouts, &extra);
}

/// One simulator leg: the storm on a fresh group with `leg`'s timeouts.
fn replicated_leg(
    t: &mut Table,
    seed: u64,
    leg: &'static Leg,
    key: &str,
    rounds: usize,
) -> StormResult {
    let r = sim_leg(seed, csc_group(leg), |group| {
        replicated_storm(group, leg, rounds)
    });
    leg_row(t, format!("replicated, {}", leg.label), key, &r);
    r
}

/// E23: controller fail-over — placement decisions across primary kills.
pub fn e23(sim_only: bool) {
    println!("\nE23. Service-control fail-over: replicated placement table");
    println!("    blackout = controller crash -> the next placement decision commits");
    println!("    doubled  = a tokened retry or idempotent re-place re-deciding (epoch bump)\n");
    let mut t = Table::new(&[
        "leg",
        "rounds",
        "blackout p50 (s)",
        "blackout p99 (s)",
        "lost",
        "doubled",
        "audit",
    ]);

    let mut legs = vec![
        replicated_leg(&mut t, 23_001, &PAPER, "svc_paper_blackout", 6),
        replicated_leg(&mut t, 23_002, &TUNED, "svc_blackout", 8),
    ];
    if !sim_only {
        let real = replicated_storm(&Group::tcp(csc_group(&TUNED)), &TUNED, 4);
        leg_row(
            &mut t,
            "real TCP, deployed tuning".into(),
            "svc_real_blackout",
            &real,
        );
        legs.push(real);
    }
    if sim_only {
        println!("    (--sim-only: skipping the real-runtime leg)");
    }
    let exact = legs.iter().all(|r| r.audit.exact);
    println!(
        "    post-storm placement audit: {}",
        if exact {
            "every replica matches the client's committed set exactly"
        } else {
            "FAILED (see above)"
        }
    );
    println!(
        "    promoted backups inherited the table from the log: no SSC regeneration round, \
         {} idempotent probes re-decided",
        legs.iter().map(|r| r.redecided).sum::<u64>(),
    );

    report::put("paper_bound_s", Json::F64(25.0));
    let worst = |of: fn(&Audit) -> u64| legs.iter().map(|r| of(&r.audit)).max().unwrap_or(0);
    report::put("lost_placements", Json::U64(worst(|a| a.lost)));
    report::put("doubled_placements", Json::U64(worst(|a| a.doubled)));
    report::put("audit_consistent", Json::Bool(exact));
    report::table(t);
}
