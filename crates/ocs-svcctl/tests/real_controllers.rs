//! SSC restart-on-failure on the REAL runtime: the controller watches a
//! service whose process group actually dies (threads unwind, sockets
//! close) and restarts it, with wall-clock bounds instead of
//! virtual-time checkpoints.
//!
//! Real-runtime twin of `controllers.rs`'s
//! `ssc_restarts_dead_service_and_fires_callbacks`.
//!
//! Gated behind `real_chaos` so the default test pass stays fast:
//!
//! ```sh
//! cargo test -p ocs-svcctl --features real_chaos --test real_controllers
//! ```

#![cfg(feature = "real_chaos")]

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ocs_name::{AlwaysAlive, NsConfig, NsError, NsHandle, NsReplica};
use ocs_orb::{Caller, ClientCtx, ObjRef, Orb};
use ocs_sim::real::{eventually, RealNet};
use ocs_sim::{Addr, NodeRt, NodeRtExt, PortReq, Rt};
use ocs_svcctl::{
    csc_client, Csc, CscConfig, ServiceDef, ServiceRunCtx, Ssc, SscApiClient, SscCallback,
    SscCallbackServant, SscConfig, SscReplicaConfig, SvcError, CSC_PORT,
};
use ocs_vsr::group::{Group, Spec};
use parking_lot::Mutex;

const NS_PORT: u16 = 10;

/// A service whose first `die_first_n` instances exit shortly after
/// starting (the group dies and the SSC notices); later ones settle.
fn flaky_service(die_first_n: u32, lives: Arc<AtomicU32>) -> ServiceDef {
    ServiceDef {
        name: "flaky".to_string(),
        basic: true,
        factory: Arc::new(move |ctx: ServiceRunCtx| {
            lives.fetch_add(1, Ordering::Relaxed);
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
                // Crash after one second of wall clock: shutting the ORB
                // down ends its serve thread, and returning ends the
                // root, so the group's live count reaches zero.
                ctx.rt.sleep(Duration::from_secs(1));
                orb.shutdown();
                return;
            }
            loop {
                ctx.rt.sleep(Duration::from_secs(3600));
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
fn ssc_restarts_dead_service_on_real_runtime() {
    let net = RealNet::new();
    let node = net.add_node("server0").expect("bind loopback");
    let rt: Rt = node.clone();
    let ns_addr = Addr::new(node.node(), NS_PORT);

    let mut cfg = NsConfig::paper_defaults(0, vec![ns_addr]);
    cfg.heartbeat_interval = Duration::from_millis(200);
    cfg.election_timeout = Duration::from_millis(600);
    cfg.audit_interval = Duration::from_secs(2);
    cfg.resolve_cost = Duration::ZERO;
    NsReplica::start(rt.clone(), cfg, Arc::new(AlwaysAlive)).unwrap();

    let ns = NsHandle::new(ClientCtx::new(rt.clone()), ns_addr);
    let lives = Arc::new(AtomicU32::new(0));
    let ssc = Ssc::start(
        rt.clone(),
        SscConfig::default(),
        ns,
        vec![flaky_service(1, Arc::clone(&lives))],
    )
    .unwrap();

    // Register a liveness callback (as the RAS would), from the driver
    // thread over real loopback RPC.
    let recorder = Arc::new(Recorder::default());
    let cb_orb = Orb::new(rt.clone(), PortReq::Ephemeral).unwrap();
    let cb_ref = cb_orb.export_root(Arc::new(SscCallbackServant(Arc::clone(&recorder))));
    cb_orb.start();
    let client = SscApiClient::attach(ClientCtx::new(rt.clone()), ssc.self_ref()).unwrap();
    assert!(
        eventually(Duration::from_secs(10), || client
            .register_callback(cb_ref)
            .is_ok()),
        "SSC never accepted the callback registration"
    );

    // First instance dies at ~1 s; monitor (1 s) + restart delay (1 s)
    // bound the restart, so well inside 20 s the second instance runs.
    assert!(
        eventually(Duration::from_secs(20), || lives.load(Ordering::Relaxed) >= 2),
        "service was not restarted, lives={}",
        lives.load(Ordering::Relaxed)
    );
    assert!(
        eventually(Duration::from_secs(10), || {
            ssc.statuses()
                .iter()
                .any(|s| s.name == "flaky" && s.running && s.restarts >= 1)
        }),
        "second instance not reported running"
    );
    // Callbacks observed both the registration(s) and the death.
    assert!(
        eventually(Duration::from_secs(5), || !recorder.ups.lock().is_empty()),
        "ups recorded"
    );
    assert!(
        eventually(Duration::from_secs(5), || !recorder.downs.lock().is_empty()),
        "downs recorded"
    );
    node.stop();
}

/// Controller fail-over on the real runtime: a three-replica CSC group
/// over TCP loses its primary to a kill, the survivors re-elect, and
/// every placement decision made before the kill is still there — no
/// regeneration, no doubled decision on a cross-fail-over token retry.
#[test]
fn csc_group_survives_primary_kill_on_real_runtime() {
    let net = RealNet::new();
    // The name service rides its own node so killing the CSC primary
    // doesn't take the advertisement path down with it.
    let ns_node = net.add_node("ns0").expect("bind loopback");
    let ns_rt: Rt = ns_node.clone();
    let ns_addr = Addr::new(ns_node.node(), NS_PORT);
    let mut cfg = NsConfig::paper_defaults(0, vec![ns_addr]);
    cfg.heartbeat_interval = Duration::from_millis(200);
    cfg.election_timeout = Duration::from_millis(600);
    cfg.audit_interval = Duration::from_secs(2);
    cfg.resolve_cost = Duration::ZERO;
    NsReplica::start(ns_rt.clone(), cfg, Arc::new(AlwaysAlive)).unwrap();
    let ns0 = NsHandle::new(ClientCtx::new(ns_rt.clone()), ns_addr);
    assert!(
        eventually(Duration::from_secs(10), || matches!(
            ns0.bind_new_context("svc"),
            Ok(_) | Err(NsError::AlreadyBound { .. })
        )),
        "svc context never came up"
    );

    // Three controller replicas, timeouts scaled down with the real
    // transport (mirroring the cluster harness's real NS tuning), each in
    // a process group of its own, so the kill below closes its endpoints
    // and unwinds its threads like a dead controller process.
    let cnodes: Vec<_> = (0..3)
        .map(|i| net.add_node(&format!("csc{i}")).expect("bind loopback"))
        .collect();
    let group = Group::on_tcp(
        cnodes,
        ns_node,
        Spec {
            name: "csc",
            port: CSC_PORT,
            tuning: |i, peers| {
                let mut rc = SscReplicaConfig::paper_defaults(i, peers);
                rc.heartbeat_interval = Duration::from_millis(200);
                rc.election_timeout = Duration::from_millis(600);
                rc.peer_timeout = Duration::from_millis(150);
                rc
            },
            start: Arc::new(move |rt: Rt, rc| {
                let ns = NsHandle::new(ClientCtx::new(rt.clone()), ns_addr);
                let ccfg = CscConfig {
                    bind_retry: Duration::from_millis(500),
                    replica: Some(rc),
                };
                let csc = Csc::new(rt.clone(), ccfg, ns);
                let runner = Arc::clone(&csc);
                rt.spawn_fn("csc-run", move || {
                    let _ = runner.run(|_| {});
                });
                Ok(csc)
            }),
            status: |csc| csc.replica().map(|r| r.status()),
        },
    );

    // A single master emerges and advertises itself in the NS.
    assert!(
        group.run_until(Duration::from_secs(15), || group.masters().len() == 1),
        "no unique CSC master elected"
    );
    assert!(
        eventually(Duration::from_secs(10), || csc_client(&ns0).is_ok()),
        "master never advertised at svc/csc"
    );
    let client = csc_client(&ns0).unwrap();

    // Sequence a definition and one explicit placement, with
    // client-chosen retry tokens.
    let target = group.node(2);
    let define_epoch = client
        .define_service(0x1001, "web".to_string(), vec![group.node(1)])
        .expect("define accepted");
    let place_epoch = client
        .place_op(0x1002, "web".to_string(), target, true)
        .expect("place accepted");
    assert!(place_epoch > define_epoch, "placement bumped the epoch");

    // Kill the primary's process group outright: endpoints force-close,
    // peers observe resets, member threads unwind at the next
    // cancellation point.
    let master = group.masters()[0];
    group.kill(master);

    // The survivors re-elect a new master within the tuned timeouts...
    assert!(
        group.run_until(Duration::from_secs(20), || {
            group.masters().iter().any(|&i| i != master)
        }),
        "no new master after the primary kill: {:?}",
        group.statuses()
    );
    // ...and the placement table survived the fail-over intact on every
    // surviving replica: `web` is still placed where it was put, with no
    // regeneration round.
    for i in (0..3).filter(|&i| i != master) {
        let csc = group.member(i).expect("a survivor is up");
        let rep = csc.replica().expect("replica started");
        assert!(
            eventually(Duration::from_secs(10), || rep.is_placed("web", target)),
            "replica {i} lost the placement across fail-over"
        );
    }
    // A cross-fail-over retry of the same tokened op returns the
    // original decision epoch: the placement was not doubled.
    assert!(
        eventually(Duration::from_secs(10), || {
            let Ok(fresh) = csc_client(&ns0) else {
                return false;
            };
            matches!(
                fresh.place_op(0x1002, "web".to_string(), target, true),
                Ok(e) if e == place_epoch
            )
        }),
        "tokened retry after fail-over did not return the original epoch"
    );
}
