//! Integration tests of the service controllers over a miniature
//! cluster: SSC restart-on-failure, object-liveness callbacks, CSC
//! placement, node recovery and operator moves.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ocs_db::{Db, DbApiServant, DbTables, MemStorage, ServicePlacement};
use ocs_name::{AlwaysAlive, NsConfig, NsHandle, NsReplica};
use ocs_orb::{Caller, ClientCtx, ObjRef, Orb};
use ocs_sim::{Addr, NodeRt, NodeRtExt, PortReq, Rt, Sim, SimChan, SimNode, SimTime};
use ocs_svcctl::{
    Csc, CscConfig, ServiceDef, ServiceRunCtx, Ssc, SscApiClient, SscCallback, SscCallbackServant,
    SscConfig, SvcError,
};
use parking_lot::Mutex;

const NS_PORT: u16 = 10;
const DB_PORT: u16 = 12;

/// Boots NS replicas on each node and returns handles.
fn boot_ns(_sim: &Sim, nodes: &[Arc<SimNode>]) -> Vec<Addr> {
    let peers: Vec<Addr> = nodes.iter().map(|n| Addr::new(n.node(), NS_PORT)).collect();
    for (i, node) in nodes.iter().enumerate() {
        let rt: Rt = node.clone();
        NsReplica::start(
            rt,
            NsConfig::paper_defaults(i as u32, peers.clone()),
            Arc::new(AlwaysAlive),
        )
        .unwrap();
    }
    peers
}

fn ns_handle(node: &Arc<SimNode>, ns_addr: Addr) -> NsHandle {
    NsHandle::new(ClientCtx::new(node.clone()), ns_addr)
}

/// Starts the database service on a node and binds it at `svc/db`.
fn boot_db(node: &Arc<SimNode>, ns: NsHandle) {
    let rt: Rt = node.clone();
    let node2 = node.clone();
    node.spawn_fn("db-boot", move || {
        let db = Db::new(MemStorage::new());
        let orb = Orb::new(rt.clone(), PortReq::Fixed(DB_PORT)).unwrap();
        let db_ref = orb.export_root(Arc::new(DbApiServant(db)));
        orb.start();
        let _ = ns.bind_new_context("svc");
        loop {
            match ns.bind("svc/db", db_ref) {
                Ok(()) => break,
                Err(_) => node2.sleep(Duration::from_secs(1)),
            }
        }
    });
}

/// A test service that dies `die_after_instances` times before settling.
fn flaky_service(die_first_n: u32, lives: Arc<AtomicU32>) -> ServiceDef {
    ServiceDef {
        name: "flaky".to_string(),
        basic: true,
        factory: Arc::new(move |ctx: ServiceRunCtx| {
            lives.fetch_add(1, Ordering::Relaxed);
            // Export an object and register it.
            let orb = Orb::new(ctx.rt.clone(), PortReq::Ephemeral).unwrap();
            struct Nothing;
            impl ocs_orb::Servant for Nothing {
                fn type_id(&self) -> u32 {
                    ocs_wire::type_id_of("test.nothing")
                }
                fn dispatch(
                    &self,
                    _c: &Caller,
                    _m: u32,
                    _a: &[u8],
                ) -> Result<bytes::Bytes, ocs_orb::OrbError> {
                    Ok(bytes::Bytes::new())
                }
            }
            let obj = orb.export_root(Arc::new(Nothing));
            orb.start();
            (ctx.notify_ready)(vec![obj]);
            if ctx.instance <= die_first_n {
                // Simulate a crash after 5 s: shutting the ORB down makes
                // its serve process exit, and returning ends the root, so
                // the whole process group dies and the SSC notices.
                ctx.rt.sleep(Duration::from_secs(5));
                orb.shutdown();
                return;
            }
            loop {
                ctx.rt.sleep(Duration::from_secs(60));
            }
        }),
    }
}

/// Callback recorder.
#[derive(Default)]
struct Recorder {
    ups: Mutex<Vec<ObjRef>>,
    downs: Mutex<Vec<ObjRef>>,
}

impl SscCallback for Recorder {
    fn objects_up(&self, _c: &Caller, objects: Vec<ObjRef>) -> Result<(), SvcError> {
        self.ups.lock().extend(objects);
        Ok(())
    }
    fn objects_down(&self, _c: &Caller, objects: Vec<ObjRef>) -> Result<(), SvcError> {
        self.downs.lock().extend(objects);
        Ok(())
    }
}

#[test]
fn ssc_restarts_dead_service_and_fires_callbacks() {
    let sim = Sim::new(1);
    let server = sim.add_node("server0");
    let peers = boot_ns(&sim, std::slice::from_ref(&server));
    let ns = ns_handle(&server, peers[0]);
    let lives = Arc::new(AtomicU32::new(0));
    let rt: Rt = server.clone();
    let ssc = Ssc::start(
        rt.clone(),
        SscConfig::default(),
        ns.clone(),
        vec![flaky_service(1, Arc::clone(&lives))],
    )
    .unwrap();
    // Register a liveness callback (as the RAS would).
    let recorder = Arc::new(Recorder::default());
    let cb_orb = Orb::new(rt.clone(), PortReq::Ephemeral).unwrap();
    let cb_ref = cb_orb.export_root(Arc::new(SscCallbackServant(Arc::clone(&recorder))));
    cb_orb.start();
    let ssc_ref = ssc.self_ref();
    let server2 = server.clone();
    server.spawn_fn("register-cb", move || {
        let client = SscApiClient::attach(ClientCtx::new(server2.clone()), ssc_ref).unwrap();
        client.register_callback(cb_ref).unwrap();
    });
    // First instance dies at ~5s; SSC restarts within monitor+delay (~2s).
    sim.run_until(SimTime::from_secs(30));
    assert!(
        lives.load(Ordering::Relaxed) >= 2,
        "service should have been restarted, lives={}",
        lives.load(Ordering::Relaxed)
    );
    let statuses = ssc.statuses();
    let flaky = statuses.iter().find(|s| s.name == "flaky").unwrap();
    assert!(flaky.running, "second instance should be running");
    assert!(flaky.restarts >= 1);
    // Callbacks observed both the registration(s) and the death.
    assert!(!recorder.ups.lock().is_empty(), "ups recorded");
    assert!(!recorder.downs.lock().is_empty(), "downs recorded");
}

#[test]
fn ssc_stop_service_kills_group_and_reports_down() {
    let sim = Sim::new(2);
    let server = sim.add_node("server0");
    let peers = boot_ns(&sim, std::slice::from_ref(&server));
    let ns = ns_handle(&server, peers[0]);
    let lives = Arc::new(AtomicU32::new(0));
    let rt: Rt = server.clone();
    let ssc = Ssc::start(
        rt.clone(),
        SscConfig::default(),
        ns.clone(),
        vec![flaky_service(0, Arc::clone(&lives))],
    )
    .unwrap();
    sim.run_until(SimTime::from_secs(10));
    assert_eq!(lives.load(Ordering::Relaxed), 1);
    let ssc_ref = ssc.self_ref();
    let done: SimChan<Result<(), SvcError>> = SimChan::new(&sim);
    let done2 = done.clone();
    let server2 = server.clone();
    server.spawn_fn("operator", move || {
        let client = SscApiClient::attach(ClientCtx::new(server2.clone()), ssc_ref).unwrap();
        done2.send(client.stop_service("flaky".to_string()));
    });
    sim.run_until(SimTime::from_secs(20));
    done.try_recv().unwrap().unwrap();
    let statuses = ssc.statuses();
    let flaky = statuses.iter().find(|s| s.name == "flaky").unwrap();
    assert!(!flaky.running, "stopped service must not run");
    // And it stays stopped (wanted = false).
    sim.run_until(SimTime::from_secs(40));
    assert_eq!(lives.load(Ordering::Relaxed), 1);
}

// A zero restart delay or keeper interval is refused loudly at start,
// not defaulted silently: the first would give a crash-looping service
// no grace period, the second would busy-spin the keeper at one virtual
// instant (the no-clock hazard the CM's `with_lease` refuses).
#[test]
#[should_panic(expected = "ssc: restart_delay must be nonzero")]
fn ssc_refuses_zero_restart_delay() {
    let sim = Sim::new(9);
    let server = sim.add_node("server0");
    let ns = ns_handle(&server, Addr::new(server.node(), NS_PORT));
    let cfg = SscConfig {
        restart_delay: Duration::ZERO,
    };
    let _ = Ssc::start(server.clone() as Rt, cfg, ns, vec![]);
}

#[test]
#[should_panic(expected = "csc: bind_retry must be nonzero")]
fn csc_refuses_zero_bind_retry() {
    let sim = Sim::new(10);
    let server = sim.add_node("server0");
    let ns = ns_handle(&server, Addr::new(server.node(), NS_PORT));
    let cfg = CscConfig {
        bind_retry: Duration::ZERO,
        ..CscConfig::default()
    };
    let csc = Csc::new(server.clone() as Rt, cfg, ns);
    let _ = csc.run(|_| {});
}

#[test]
fn csc_places_services_and_handles_node_recovery() {
    let sim = Sim::new(3);
    let n0 = sim.add_node("server0");
    let n1 = sim.add_node("server1");
    let peers = boot_ns(&sim, &[n0.clone(), n1.clone()]);
    boot_db(&n0, ns_handle(&n0, peers[0]));

    let worker_lives = Arc::new(AtomicU32::new(0));
    let worker = |lives: Arc<AtomicU32>| ServiceDef {
        name: "worker".to_string(),
        basic: false,
        factory: Arc::new(move |ctx: ServiceRunCtx| {
            lives.fetch_add(1, Ordering::Relaxed);
            loop {
                ctx.rt.sleep(Duration::from_secs(60));
            }
        }),
    };
    // SSC on both nodes; worker registered on both, placed on n1 only.
    let _ssc0 = Ssc::start(
        n0.clone(),
        SscConfig::default(),
        ns_handle(&n0, peers[0]),
        vec![worker(Arc::clone(&worker_lives))],
    )
    .unwrap();
    let ssc1 = Ssc::start(
        n1.clone(),
        SscConfig::default(),
        ns_handle(&n1, peers[1]),
        vec![worker(Arc::clone(&worker_lives))],
    )
    .unwrap();

    // Write the placement config.
    let ns0 = ns_handle(&n0, peers[0]);
    let n0c = n0.clone();
    let target = n1.node();
    n0.spawn_fn("config", move || {
        // Wait for svc/db to appear.
        loop {
            if let Ok(db) = ns0.resolve_as::<ocs_db::DbApiClient>("svc/db") {
                if DbTables::put_placement(
                    &db,
                    &ServicePlacement {
                        service: "worker".to_string(),
                        nodes: vec![target],
                    },
                )
                .is_ok()
                {
                    break;
                }
            }
            n0c.sleep(Duration::from_secs(1));
        }
    });

    // CSC replica on n0 (primary — single instance for this test).
    let csc = Csc::new(n0.clone(), CscConfig::default(), ns_handle(&n0, peers[0]));
    let csc2 = Arc::clone(&csc);
    n0.spawn_group(
        "csc",
        Box::new(move || {
            let _ = csc2.run(|_objs| {});
        }),
    );

    sim.run_until(SimTime::from_secs(40));
    assert!(csc.is_primary(), "single CSC becomes primary");
    let s1 = ssc1.statuses();
    let w = s1.iter().find(|s| s.name == "worker").unwrap();
    assert!(w.running, "worker must be placed on n1");
    assert_eq!(worker_lives.load(Ordering::Relaxed), 1);

    // Crash n1, restart it (fresh SSC, as init would), and watch the CSC
    // re-place the worker there (§6.3 recovery).
    sim.crash_node(n1.node());
    sim.run_until(SimTime::from_secs(50));
    sim.restart_node(n1.node());
    // At node boot the SSC would restart the basic services including
    // the name-service replica (§6.3); do both explicitly here.
    NsReplica::start(
        n1.clone() as Rt,
        NsConfig::paper_defaults(1, peers.clone()),
        Arc::new(AlwaysAlive),
    )
    .unwrap();
    let ssc1b = Ssc::start(
        n1.clone(),
        SscConfig::default(),
        ns_handle(&n1, peers[1]),
        vec![worker(Arc::clone(&worker_lives))],
    )
    .unwrap();
    sim.run_until(SimTime::from_secs(90));
    let s1 = ssc1b.statuses();
    let w = s1.iter().find(|s| s.name == "worker").unwrap();
    assert!(w.running, "worker restarted on recovered node");
    assert_eq!(worker_lives.load(Ordering::Relaxed), 2);

    // Operator move: worker from n1 to n0.
    let ns0 = ns_handle(&n0, peers[0]);
    let done: SimChan<Result<(), SvcError>> = SimChan::new(&sim);
    let done2 = done.clone();
    let (from, to) = (n1.node(), n0.node());
    n0.spawn_fn("operator", move || {
        let csc = ocs_svcctl::csc_client(&ns0).unwrap();
        done2.send(csc.move_service("worker".to_string(), from, to));
    });
    sim.run_until(SimTime::from_secs(120));
    done.try_recv().unwrap().unwrap();
    let s1 = ssc1b.statuses();
    assert!(
        !s1.iter().find(|s| s.name == "worker").unwrap().running,
        "worker stopped on n1 after move"
    );
    // n0's SSC should now run it (directly or via the next reconcile).
    sim.run_until(SimTime::from_secs(140));
    let s0 = _ssc0.statuses();
    assert!(
        s0.iter().find(|s| s.name == "worker").unwrap().running,
        "worker running on n0 after move"
    );
}
