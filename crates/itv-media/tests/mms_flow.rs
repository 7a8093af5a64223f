//! The movie-open flow (§3.4.4) through a real MMS in the simulator: a
//! name-service replica, a Connection Manager, MDS replicas, the MMS and
//! settops, each on a node of its own, started by hand so a test can
//! kill, restart and partition exactly the one it is about.
//!
//! What is pinned here: which calls a warm `open` and `close` make (the
//! paper's three and two — no name lookup), how the MMS's cached
//! lookups recover from a dead Connection Manager, a restarted MDS and a
//! newly bound one, that the status probes leave together, that a failed
//! open's undo is not shed by the budget it undoes for, that settop
//! watches do not pile up, and that a stream's process ends with its
//! `close`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use itv_media::{
    ports, Catalog, CmApiClient, CmBudgets, CmReplica, CmReplicaConfig, CmUsage, ConnectionManager,
    Mds, MdsApiClient, MediaError, Mms, MmsApiClient, MmsConfig, MovieCtlClient, MovieInfo,
    MovieTicket, Segment,
};
use ocs_name::{AlwaysAlive, NsConfig, NsHandle, NsReplica, SelectorSpec};
use ocs_orb::{Caller, ClientCtx, ObjRef, Orb};
use ocs_ras::{EntityId, EntityStatus, RasApi, RasApiServant, RasError};
use ocs_sim::{Addr, NodeId, NodeRt, NodeRtExt, PortReq, ProcGroup, Rt, Sim, SimNode, SimTime};
use ocs_telemetry::{NodeTelemetry, Span};
use ocs_wire::Wire;
use parking_lot::Mutex;

const TITLE: &str = "t";
const CM_PORT: u16 = ports::CMGR;
const CM_PATH: &str = "svc/cmgr/0";
/// The MDS's delivery tick.
const TICK: Duration = Duration::from_millis(500);
/// One way between two nodes (the simulator's default link).
const LINK: Duration = Duration::from_micros(500);

/// The RAS the MMS's monitor polls: answers `Dead` for the settops a
/// test has put on its list, and keeps what it was asked.
#[derive(Default)]
struct FakeRas {
    dead: Mutex<Vec<NodeId>>,
    asked: Mutex<Vec<Vec<EntityId>>>,
}

impl RasApi for FakeRas {
    fn check_status(
        &self,
        _caller: &Caller,
        entities: Vec<EntityId>,
    ) -> Result<Vec<EntityStatus>, RasError> {
        let dead = self.dead.lock();
        let verdicts = entities
            .iter()
            .map(|e| match e {
                EntityId::Settop { node } if dead.contains(node) => EntityStatus::Dead,
                _ => EntityStatus::Alive,
            })
            .collect();
        self.asked.lock().push(entities);
        Ok(verdicts)
    }
}

struct World {
    sim: Sim,
    /// Runs the name-service replica.
    ns_node: Arc<SimNode>,
    /// Runs the MMS and its RAS: the name-service node, or — `apart` —
    /// a node of its own that no replica invalidates the cache of.
    mms_node: Arc<SimNode>,
    cm_node: Arc<SimNode>,
    mds_nodes: Vec<Arc<SimNode>>,
    settops: Vec<Arc<SimNode>>,
    catalog: Catalog,
    mms: Arc<Mms>,
    ras: Arc<FakeRas>,
    mms_ref: ObjRef,
}

impl World {
    /// A settled world: name space seeded, a plain Connection Manager
    /// bound at `svc/cmgr/0` unless `cm` is false, the first `mds_up`
    /// of `n_mds` MDS replicas up and bound — every one of them stores
    /// the title — and the MMS promoted.
    fn build(
        seed: u64,
        n_mds: usize,
        mds_up: usize,
        n_settops: usize,
        apart: bool,
        cm: bool,
    ) -> World {
        let sim = Sim::new(seed);
        let ns_node = sim.add_node("ns");
        let mms_node = if apart {
            sim.add_node("mms")
        } else {
            Arc::clone(&ns_node)
        };
        let cm_node = sim.add_node("cm");
        let mds_nodes: Vec<_> = (0..n_mds)
            .map(|i| sim.add_node(&format!("mds{i}")))
            .collect();
        let settops: Vec<_> = (0..n_settops)
            .map(|i| sim.add_node(&format!("settop{i}")))
            .collect();
        let ns_addr = Addr::new(ns_node.node(), ports::NS);
        NsReplica::start(
            ns_node.clone() as Rt,
            NsConfig::paper_defaults(0, vec![ns_addr]),
            Arc::new(AlwaysAlive),
        )
        .expect("ns replica starts");
        let catalog = Catalog::new();
        catalog.add_movie(MovieInfo {
            title: TITLE.into(),
            bitrate_bps: 800_000,
            duration_ms: 600_000,
            replicas: mds_nodes.iter().map(|n| n.node()).collect(),
        });
        let ras = Arc::new(FakeRas::default());
        let ras_orb =
            Orb::new(mms_node.clone() as Rt, PortReq::Fixed(ports::RAS)).expect("ras port");
        ras_orb.export_root(Arc::new(RasApiServant(Arc::clone(&ras))));
        ras_orb.start();
        let nbhd_of: BTreeMap<NodeId, u32> = settops.iter().map(|s| (s.node(), 0)).collect();
        let mms = Mms::new(
            mms_node.clone() as Rt,
            NsHandle::new(ClientCtx::new(mms_node.clone() as Rt), ns_addr),
            MmsConfig {
                bind_retry: Duration::from_millis(500),
                ras_poll: Duration::from_secs(1),
                reassert_interval: Duration::from_secs(3600),
                nbhd_of: Arc::new(nbhd_of),
            },
            catalog.clone(),
        );
        let mut w = World {
            sim,
            ns_node,
            mms_node,
            cm_node,
            mds_nodes,
            settops,
            catalog,
            mms,
            ras,
            mms_ref: NsHandle::root_ref(ns_addr), // Until the MMS has bound.
        };
        w.sim.run_until(SimTime::from_secs(8)); // The election settles.
        w.on(&w.ns_node, |ns| {
            ns.bind_new_context("svc").expect("mk svc");
            ns.bind_repl_context("svc/mds", SelectorSpec::First)
                .expect("mk svc/mds");
            ns.bind_new_context("svc/cmgr").expect("mk svc/cmgr");
        });
        if cm {
            let rt = w.cm_node.clone() as Rt;
            let cm = ConnectionManager::with_lease(
                CmBudgets::default(),
                Some(rt.clone()),
                Some(Duration::from_secs(3600)),
            );
            let obj = cm.serve(rt, CM_PORT).expect("cm port");
            w.on(&w.cm_node, move |ns| {
                ns.bind(CM_PATH, obj).expect("bind cm")
            });
        }
        for i in 0..mds_up {
            w.start_mds(i);
        }
        let mms = Arc::clone(&w.mms);
        w.mms_node.spawn_fn("mms", move || {
            let _ = mms.run(|_| {});
        });
        w.mms_ref = w.eventually(&w.settops[0], |ns| ns.resolve("svc/mms").ok());
        w
    }

    fn ns_addr(&self) -> Addr {
        Addr::new(self.ns_node.node(), ports::NS)
    }

    /// Runs `f` in a process on `node`, with a name-service handle of
    /// that node's, and steps virtual time until it returns.
    fn on<T: Send + 'static>(
        &self,
        node: &Arc<SimNode>,
        f: impl FnOnce(NsHandle) -> T + Send + 'static,
    ) -> T {
        let slot: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
        let slot2 = Arc::clone(&slot);
        let ns = NsHandle::new(ClientCtx::new(node.clone() as Rt), self.ns_addr());
        node.spawn_fn("probe", move || *slot2.lock() = Some(f(ns)));
        let deadline = self.sim.now() + Duration::from_secs(60);
        loop {
            if let Some(v) = slot.lock().take() {
                return v;
            }
            assert!(self.sim.now() < deadline, "probe never returned");
            self.sim.run_for(Duration::from_millis(1));
        }
    }

    /// Repeats `f` on `node`, 100 ms apart, until it has an answer.
    fn eventually<T: Send + 'static>(
        &self,
        node: &Arc<SimNode>,
        f: impl Fn(NsHandle) -> Option<T> + Send + 'static,
    ) -> T {
        let rt = node.clone() as Rt;
        self.on(node, move |ns| loop {
            if let Some(v) = f(ns.clone()) {
                return v;
            }
            rt.sleep(Duration::from_millis(100));
        })
    }

    /// Starts MDS replica `i` in a killable group of its own and binds
    /// it under `svc/mds`; returns once the binding is committed.
    fn start_mds(&self, i: usize) -> Arc<dyn ProcGroup> {
        let node = Arc::clone(&self.mds_nodes[i]);
        let rt = node.clone() as Rt;
        let ns = NsHandle::new(ClientCtx::new(rt.clone()), self.ns_addr());
        let catalog = self.catalog.clone();
        let path = format!("svc/mds/{}", node.node().0);
        let group = node.spawn_group(
            "mds",
            Box::new(move || {
                let (_mds, obj) =
                    Mds::serve(rt.clone(), ports::MDS, catalog, 64).expect("mds port");
                let _ = ns.unbind(&path);
                ns.bind(&path, obj).expect("bind mds");
                loop {
                    rt.sleep(Duration::from_secs(3600));
                }
            }),
        );
        let name = node.node().0.to_string();
        self.eventually(&self.settops[0], move |ns| {
            let set = ns.list_repl("svc/mds").ok()?;
            let bound = set.iter().find(|b| b.name == name)?.obj;
            // A restarted replica's binding carries its new incarnation;
            // its predecessor's is dead.
            let mds = MdsApiClient::attach(ns.ctx().clone(), bound).expect("mds reference");
            mds.status().is_ok().then_some(())
        });
        group
    }

    fn mms_client(ns: &NsHandle, mms_ref: ObjRef) -> MmsApiClient {
        MmsApiClient::attach(ns.ctx().clone(), mms_ref).expect("mms reference")
    }

    fn open(&self, settop: usize) -> Result<MovieTicket, MediaError> {
        let mms_ref = self.mms_ref;
        self.on(&self.settops[settop], move |ns| {
            World::mms_client(&ns, mms_ref).open(TITLE.into(), 0)
        })
    }

    fn close(&self, settop: usize, session: u64) -> Result<(), MediaError> {
        let mms_ref = self.mms_ref;
        self.on(&self.settops[settop], move |ns| {
            World::mms_client(&ns, mms_ref).close(session)
        })
    }

    fn sessions(&self) -> u32 {
        let mms_ref = self.mms_ref;
        self.on(&self.settops[0], move |ns| {
            World::mms_client(&ns, mms_ref)
                .session_count()
                .expect("session count")
        })
    }

    /// What the Connection Manager bound at `svc/cmgr/0` holds.
    fn cm_usage(&self) -> CmUsage {
        self.on(&self.settops[0], |ns| {
            let cm: CmApiClient = ns.resolve_as(CM_PATH).expect("cm bound");
            cm.usage().expect("cm usage")
        })
    }

    /// Name-service lookups the MMS's node has made.
    fn lookups(&self) -> u64 {
        let tel = NodeTelemetry::of(&*self.mms_node);
        tel.registry.counter("ns.client.lookups").get()
    }

    /// The last `server:<op>` span the MMS's node recorded, and the
    /// client spans of the calls made under it, in the order they began.
    fn last_served(&self, op: &str) -> (Span, Vec<Span>) {
        let spans = NodeTelemetry::of(&*self.mms_node).tracer.finished();
        let name = format!("server:{op}");
        let served = spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no {name} span"))
            .clone();
        let mut calls: Vec<Span> = spans
            .iter()
            .filter(|s| s.parent == served.span && s.name.starts_with("client:"))
            .cloned()
            .collect();
        calls.sort_by_key(|s| (s.start, s.span.0));
        (served, calls)
    }

    fn calls_under(&self, op: &str) -> Vec<String> {
        let (_, calls) = self.last_served(op);
        calls.into_iter().map(|s| s.name).collect()
    }

    fn partition_mms_from(&self, mds: usize, cut: bool) {
        self.sim
            .set_partitioned(self.mms_node.node(), self.mds_nodes[mds].node(), cut);
    }
}

// ---------------------------------------------------------------------------
// The tentpole: cached lookups

#[test]
fn a_warm_open_and_close_make_the_papers_calls_and_no_lookup() {
    let w = World::build(11, 1, 1, 1, false, true);
    // The first cycle takes the misses.
    let first = w.open(0).expect("cold open");
    w.close(0, first.session).expect("close");
    let before = w.lookups();
    let ticket = w.open(0).expect("warm open");
    assert_eq!(
        w.calls_under("itv.mms.open"),
        [
            "client:itv.mds.status",
            "client:itv.cmgr.allocate",
            "client:itv.mds.open"
        ]
    );
    assert_eq!(
        w.lookups(),
        before,
        "a warm open asks the name service nothing"
    );
    w.close(0, ticket.session).expect("close");
    assert_eq!(
        w.calls_under("itv.mms.close"),
        ["client:itv.mds.close", "client:itv.cmgr.release"]
    );
    assert_eq!(w.lookups(), before, "nor does a close");
    assert_eq!(w.cm_usage().allocations, 0);
}

#[test]
fn a_killed_cm_primary_costs_the_next_open_one_lookup() {
    // The MMS on a node of its own: no name-service replica tells its
    // cache that `svc/cmgr/0` moved; the dead reference has to.
    let w = World::build(12, 1, 1, 1, true, false);
    let nodes: Vec<Arc<SimNode>> = (0..3).map(|i| w.sim.add_node(&format!("cmr{i}"))).collect();
    let peers: Vec<Addr> = nodes.iter().map(|n| Addr::new(n.node(), CM_PORT)).collect();
    let replicas: Arc<Mutex<Vec<Option<Arc<CmReplica>>>>> = Arc::new(Mutex::new(vec![None; 3]));
    let groups: Vec<Arc<dyn ProcGroup>> = nodes
        .iter()
        .enumerate()
        .map(|(i, node)| {
            let rt = node.clone() as Rt;
            let mut cfg =
                CmReplicaConfig::paper_defaults(i as u32, peers.clone(), CmBudgets::default());
            cfg.heartbeat_interval = Duration::from_millis(200);
            cfg.election_timeout = Duration::from_millis(600);
            cfg.peer_timeout = Duration::from_millis(150);
            let replicas = Arc::clone(&replicas);
            node.spawn_group(
                "cm",
                Box::new(move || {
                    replicas.lock()[i] =
                        Some(CmReplica::start(rt.clone(), cfg).expect("cm replica"));
                    loop {
                        rt.sleep(Duration::from_secs(3600));
                    }
                }),
            )
        })
        .collect();
    let master = |skip: Option<usize>| {
        let replicas = replicas.lock();
        let mut up = replicas
            .iter()
            .enumerate()
            .filter(|(i, _)| Some(*i) != skip);
        up.find_map(|(i, r)| {
            r.as_ref()
                .filter(|r| r.is_master() && !r.in_probation())
                .map(|r| (i, Arc::clone(r)))
        })
    };
    let settled = |skip: Option<usize>| loop {
        if let Some(found) = master(skip) {
            return found;
        }
        assert!(
            w.sim.now() < SimTime::from_secs(60),
            "cm group never settled"
        );
        w.sim.run_for(Duration::from_millis(50));
    };
    let (old, primary) = settled(None);
    let obj = primary.root_ref();
    w.on(&w.cm_node, move |ns| {
        ns.bind(CM_PATH, obj).expect("bind cm")
    });

    let first = w.open(0).expect("open through the first primary");
    groups[old].kill();
    let (_, successor) = settled(Some(old));
    // The new master advertises itself, as `Cluster`'s keeper loop does.
    let obj = successor.root_ref();
    w.on(&w.cm_node, move |ns| {
        ns.unbind(CM_PATH).expect("unbind");
        ns.bind(CM_PATH, obj).expect("rebind cm");
    });

    let before = w.lookups();
    let t0 = w.sim.now();
    let second = w.open(0).expect("open across the fail-over");
    assert!(
        w.sim.now().saturating_since(t0) < Duration::from_millis(2500),
        "inside the open's budget"
    );
    assert_eq!(w.lookups(), before + 1, "exactly the one re-resolve");
    assert_eq!(
        w.calls_under("itv.mms.open"),
        [
            "client:itv.mds.status",
            "client:itv.cmgr.allocate", // The cached primary: dead.
            "client:ocs.naming.resolve",
            "client:itv.cmgr.allocate",
            "client:itv.mds.open"
        ]
    );
    // Nothing leaked, nothing doubled: the successor holds exactly the
    // two sessions' connections, and releases them.
    let held = |r: &CmReplica| {
        let mut conns: Vec<u64> = r.allocations().iter().map(|d| d.conn).collect();
        conns.sort_unstable();
        conns
    };
    let mut want = vec![first.conn, second.conn];
    want.sort_unstable();
    assert_eq!(held(&successor), want);
    w.close(0, first.session).expect("close");
    w.close(0, second.session).expect("close");
    assert_eq!(held(&successor), Vec::<u64>::new());
    assert_eq!(
        w.lookups(),
        before + 1,
        "the closes use what the open looked up"
    );
}

#[test]
fn a_restarted_mds_costs_one_relist_and_its_old_sessions_close_harmlessly() {
    let w = World::build(13, 1, 0, 1, true, true);
    let v1 = w.start_mds(0);
    let old = w.open(0).expect("open on the first incarnation");
    v1.kill();
    w.sim.run_for(Duration::from_secs(1));
    w.start_mds(0);

    let before = w.lookups();
    let new = w.open(0).expect("open on the restarted mds");
    assert_eq!(w.lookups(), before + 1, "exactly the one re-list");
    assert_eq!(
        w.calls_under("itv.mms.open"),
        [
            "client:itv.mds.status", // The cached incarnation: dead.
            "client:ocs.naming.list_repl",
            "client:itv.mds.status",
            "client:itv.cmgr.allocate",
            "client:itv.mds.open"
        ]
    );
    assert_ne!(old.movie.incarnation, new.movie.incarnation);
    // The old session's stream died with its MDS; closing it tells a
    // dead incarnation, releases the bandwidth and disturbs nothing.
    w.close(0, old.session)
        .expect("close the old incarnation's session");
    assert_eq!(w.sessions(), 1);
    assert_eq!(w.cm_usage().allocations, 1);
    w.close(0, new.session).expect("close");
    assert_eq!(w.cm_usage().allocations, 0);
    assert_eq!(w.lookups(), before + 1);
}

#[test]
fn a_newly_bound_replica_is_a_candidate_at_the_next_open() {
    // The MMS beside a name-service replica: the bind under `svc/mds`
    // commits there and drops the cached set with it.
    let w = World::build(14, 2, 1, 1, false, true);
    let first = w.open(0).expect("open");
    assert_eq!(first.mds_node, w.mds_nodes[0].node());
    w.start_mds(1);
    let before = w.lookups();
    // One stream on replica 0, none on the newcomer: least loaded wins.
    let second = w.open(0).expect("open");
    assert_eq!(second.mds_node, w.mds_nodes[1].node());
    assert_eq!(w.lookups(), before + 1, "the set was listed afresh");
}

// ---------------------------------------------------------------------------
// Status probes leave at once

#[test]
fn status_probes_leave_together() {
    let w = World::build(15, 2, 2, 1, false, true);
    let first = w.open(0).expect("cold open");
    w.close(0, first.session).expect("close");
    w.open(0).expect("warm open");
    let (served, calls) = w.last_served("itv.mms.open");
    let names: Vec<&str> = calls.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "client:itv.mds.status",
            "client:itv.mds.status",
            "client:itv.cmgr.allocate",
            "client:itv.mds.open"
        ]
    );
    assert_eq!(calls[0].start, calls[1].start, "both probes sent at once");
    // Three round trips, not four: the probes', the allocation's, the
    // open's.
    assert_eq!(calls[2].start, calls[0].start + 2 * LINK);
    assert_eq!(served.dur_us(), (6 * LINK).as_micros() as u64);
}

#[test]
fn two_silent_replicas_cost_an_open_one_probe_timeout() {
    let w = World::build(16, 3, 3, 1, false, true);
    let first = w.open(0).expect("cold open");
    w.close(0, first.session).expect("close");
    w.partition_mms_from(0, true);
    w.partition_mms_from(1, true);
    let t0 = w.sim.now();
    let ticket = w.open(0).expect("the live replica serves");
    assert_eq!(ticket.mds_node, w.mds_nodes[2].node());
    let took = w.sim.now().saturating_since(t0);
    // One 1.5 s probe timeout; two in a row would outlast the 2.5 s
    // budget with the live replica never asked.
    assert!(
        took >= Duration::from_millis(1500) && took < Duration::from_millis(1600),
        "took {took:?}"
    );
    w.close(0, ticket.session).expect("close");
    assert_eq!(w.cm_usage().allocations, 0);
}

// ---------------------------------------------------------------------------
// The undo outlives the budget

#[test]
fn a_failed_opens_undo_is_not_shed_by_the_spent_budget() {
    let w = World::build(17, 2, 2, 1, false, true);
    let first = w.open(0).expect("cold open");
    w.close(0, first.session).expect("close");
    let served_status = |w: &World| -> usize {
        let count = |n: &Arc<SimNode>| {
            let spans = NodeTelemetry::of(&**n).tracer.finished();
            spans
                .iter()
                .filter(|s| s.name == "server:itv.mds.status")
                .count()
        };
        w.mds_nodes.iter().map(count).sum()
    };
    let probed = served_status(&w);
    // Start an open and cut both candidates off the moment they have
    // answered its status probes: the replies are on their way, the
    // `open`s that follow will meet silence.
    let mms_ref = w.mms_ref;
    let result: Arc<Mutex<Option<Result<MovieTicket, MediaError>>>> = Arc::default();
    let result2 = Arc::clone(&result);
    let ns = NsHandle::new(ClientCtx::new(w.settops[0].clone() as Rt), w.ns_addr());
    w.settops[0].spawn_fn("viewer", move || {
        *result2.lock() = Some(World::mms_client(&ns, mms_ref).open(TITLE.into(), 0));
    });
    while served_status(&w) < probed + 2 {
        w.sim.run_for(Duration::from_micros(50));
    }
    w.partition_mms_from(0, true);
    w.partition_mms_from(1, true);
    // Candidate one eats its 1.5 s call timeout, candidate two what is
    // left of the 2.5 s budget.
    while result.lock().is_none() {
        w.sim.run_for(Duration::from_millis(10));
    }
    let err = result
        .lock()
        .take()
        .unwrap()
        .expect_err("both candidates are cut off");
    assert!(matches!(err, MediaError::Comm { .. }), "{err:?}");
    // Both allocations are undone at once — the second although the
    // budget it was made under is gone — not at lease expiry, an hour on.
    w.sim.run_for(Duration::from_secs(1));
    let usage = w.cm_usage();
    assert_eq!(
        (usage.allocations, usage.reserved_down_bps),
        (0, 0),
        "{usage:?}"
    );
    assert_eq!(usage.expired, 0);
}

// ---------------------------------------------------------------------------
// Settop watches

#[test]
fn a_hundred_cycles_leave_no_settop_watch() {
    let w = World::build(18, 1, 1, 2, false, true);
    for _ in 0..100 {
        let t = w.open(0).expect("open");
        w.close(0, t.session).expect("close");
    }
    assert_eq!(w.mms.watch_count(), 0);
    // One watch per settop, however many sessions it holds; the last
    // clean close takes it away.
    let a = w.open(0).expect("open");
    let b = w.open(0).expect("open");
    let c = w.open(1).expect("open");
    assert_eq!(w.mms.watch_count(), 2);
    w.close(0, a.session).expect("close");
    assert_eq!(w.mms.watch_count(), 2);
    w.close(0, b.session).expect("close");
    assert_eq!(w.mms.watch_count(), 1);
    w.close(1, c.session).expect("close");
    assert_eq!(w.mms.watch_count(), 0);
}

#[test]
fn a_dead_settop_holding_two_sessions_has_both_reclaimed() {
    let w = World::build(19, 1, 1, 2, false, true);
    w.open(0).expect("open");
    w.open(0).expect("open");
    let other = w.open(1).expect("open");
    assert_eq!(w.cm_usage().allocations, 3);
    w.ras.dead.lock().push(w.settops[0].node());
    w.sim.run_for(Duration::from_secs(3)); // Three polls of the RAS.
    assert_eq!(w.sessions(), 1, "the live settop keeps its session");
    assert_eq!(w.cm_usage().allocations, 1);
    assert_eq!(w.mms.watch_count(), 1);
    // The RAS was asked about each settop once a poll.
    let asked = w.ras.asked.lock();
    assert!(!asked.is_empty());
    for entities in asked.iter() {
        let mut unique = entities.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(&unique, entities, "no entity twice in one poll");
    }
    drop(asked);
    w.close(1, other.session).expect("close");
    assert_eq!(w.mms.watch_count(), 0);
}

// ---------------------------------------------------------------------------
// A stream's process ends at close

#[test]
fn a_streams_process_ends_at_close_and_the_tick_keeps_its_phase() {
    let w = World::build(20, 1, 1, 1, false, true);
    let idle = w.sim.live_processes();
    // Open, play, and note when the first two segments come — with a
    // second stream opened and closed between them, whose close wakes
    // the first stream's process in the middle of its tick.
    let mms_ref = w.mms_ref;
    let (ticket, arrived) = w.on(&w.settops[0], move |ns| {
        let rt = ns.ctx().rt().clone();
        let stream = rt
            .open(PortReq::Fixed(ports::SETTOP_STREAM))
            .expect("stream port");
        let mms = World::mms_client(&ns, mms_ref);
        let ticket = mms.open(TITLE.into(), 0).expect("open");
        let movie = MovieCtlClient::attach(ns.ctx().clone(), ticket.movie).expect("movie");
        movie.play(0).expect("play");
        let segment_at = || {
            let (_, msg) = stream
                .recv(Some(Duration::from_secs(2)))
                .expect("a segment");
            let seg = Segment::from_bytes(&msg).expect("segment");
            assert_eq!(seg.object_id, ticket.movie.object_id);
            rt.now()
        };
        let first = segment_at();
        let other = mms.open(TITLE.into(), 0).expect("open beside it");
        mms.close(other.session).expect("close beside it");
        assert!(rt.now() < first + TICK / 2, "closed in mid-tick");
        (ticket, [first, segment_at()])
    });
    // The stream began when the MDS served the `open`; its first segment
    // leaves exactly one tick later, the second one tick after that.
    let mds_spans = NodeTelemetry::of(&*w.mds_nodes[0]).tracer.finished();
    let opened = mds_spans
        .iter()
        .find(|s| s.name == "server:itv.mds.open")
        .expect("the mds served an open")
        .start;
    assert_eq!(arrived, [opened + TICK + LINK, opened + 2 * TICK + LINK]);
    assert_eq!(w.sim.live_processes(), idle + 1, "the stream's process");
    w.close(0, ticket.session).expect("close");
    // Gone with the close — not at its next tick, up to 500 ms on.
    w.sim.run_for(Duration::from_millis(5));
    assert_eq!(w.sim.live_processes(), idle);
}
