//! Direct integration tests of the media services over the simulated
//! runtime: MDS stream delivery and movie-object lifecycle, capacity
//! limits, session recovery data, the file service's naming face, and
//! the well-known port table.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use itv_media::{
    ports, Catalog, CmApiClient, CmBudgets, ConnDesc, ConnectionManager, FileApiClient, FileSvc,
    FileSvcClient, Mds, MdsApiClient, Mms, MmsApiClient, MmsConfig, MovieCtlClient, MovieInfo,
    Segment,
};
use ocs_name::{AlwaysAlive, NamingContextClient, NsConfig, NsError, NsHandle, NsReplica};
use ocs_orb::{ClientCtx, ObjRef, Proxy};
use ocs_ras::{Ras, RasApiClient, RasConfig, SettopMgr, SettopMgrClient};
use ocs_sim::{Addr, NodeId, NodeRt, NodeRtExt, PortReq, Rt, Sim, SimChan, SimTime};
use ocs_svcctl::{Csc, CscApiClient, CscConfig, Ssc, SscApiClient, SscConfig};
use ocs_wire::Wire;

fn catalog(server: ocs_sim::NodeId) -> Catalog {
    let c = Catalog::new();
    c.add_movie(MovieInfo {
        title: "t2".into(),
        bitrate_bps: 4_000_000,
        duration_ms: 10_000, // A short movie: ends quickly.
        replicas: vec![server],
    });
    c
}

#[test]
fn mds_streams_segments_at_the_bit_rate() {
    let sim = Sim::new(1);
    let server = sim.add_node("server");
    let settop = sim.add_node("settop");
    let cat = catalog(server.node());
    let (mds, mds_ref) = Mds::serve(server.clone() as Rt, 21, cat, 10).unwrap();
    let out: SimChan<(u64, u64, bool)> = SimChan::new(&sim); // (bytes, segments, saw_last)
    let out2 = out.clone();
    let st = settop.clone();
    settop.spawn_fn("viewer", move || {
        let stream = st.open(PortReq::Fixed(98)).unwrap();
        let client = MdsApiClient::attach(ClientCtx::new(st.clone()), mds_ref).unwrap();
        let movie_ref = client
            .open("t2".into(), Addr::new(st.node(), 98), 0)
            .unwrap();
        let movie = MovieCtlClient::attach(ClientCtx::new(st.clone()), movie_ref).unwrap();
        movie.play(0).unwrap();
        let mut bytes = 0u64;
        let mut segments = 0u64;
        let mut saw_last = false;
        while let Ok((_, msg)) = stream.recv(Some(Duration::from_secs(5))) {
            let seg = Segment::from_bytes(&msg).unwrap();
            bytes += seg.data.len() as u64;
            segments += 1;
            if seg.last {
                saw_last = true;
                break;
            }
        }
        out2.send((bytes, segments, saw_last));
    });
    sim.run_until(SimTime::from_secs(30));
    let (bytes, segments, saw_last) = out.try_recv().unwrap();
    assert!(saw_last, "movie should end");
    // 10 s at 4 Mb/s = 5 MB total, in 500 ms segments = 20 segments.
    assert_eq!(segments, 20);
    assert_eq!(bytes, 5_000_000);
    assert_eq!(mds.open_count(), 1, "session remains until closed");
}

#[test]
fn mds_enforces_stream_slots_and_close_frees_them() {
    let sim = Sim::new(2);
    let server = sim.add_node("server");
    let cat = catalog(server.node());
    let (_mds, mds_ref) = Mds::serve(server.clone() as Rt, 21, cat, 2).unwrap();
    let out: SimChan<String> = SimChan::new(&sim);
    let out2 = out.clone();
    let srv = server.clone();
    server.spawn_fn("driver", move || {
        let client = MdsApiClient::attach(ClientCtx::new(srv.clone()), mds_ref).unwrap();
        let dest = Addr::new(srv.node(), 98);
        let a = client.open("t2".into(), dest, 0).unwrap();
        let _b = client.open("t2".into(), dest, 0).unwrap();
        // Third open exceeds max_streams = 2.
        let e = client.open("t2".into(), dest, 0).unwrap_err();
        out2.send(format!("busy:{e:?}"));
        // Closing one frees a slot.
        client.close(a.object_id).unwrap();
        let c = client.open("t2".into(), dest, 0).unwrap();
        out2.send(format!("reopened:{}", c.object_id));
        // Recovery data: open_sessions describes live streams (§10.1.1).
        let sessions = client.open_sessions().unwrap();
        out2.send(format!("sessions:{}", sessions.len()));
    });
    sim.run_until(SimTime::from_secs(10));
    assert!(out.try_recv().unwrap().starts_with("busy:Busy"));
    assert!(out.try_recv().unwrap().starts_with("reopened:"));
    assert_eq!(out.try_recv().unwrap(), "sessions:2");
}

#[test]
fn mds_refuses_titles_it_does_not_store() {
    let sim = Sim::new(3);
    let server = sim.add_node("server");
    let other = sim.add_node("other");
    // The catalog stores "t2" only on `other`, not on `server`.
    let cat = catalog(other.node());
    let (_mds, mds_ref) = Mds::serve(server.clone() as Rt, 21, cat, 10).unwrap();
    let out: SimChan<String> = SimChan::new(&sim);
    let out2 = out.clone();
    let srv = server.clone();
    server.spawn_fn("driver", move || {
        let client = MdsApiClient::attach(ClientCtx::new(srv.clone()), mds_ref).unwrap();
        let dest = Addr::new(srv.node(), 98);
        let e1 = client.open("t2".into(), dest, 0).unwrap_err();
        let e2 = client.open("ghost".into(), dest, 0).unwrap_err();
        out2.send(format!("{e1:?}|{e2:?}"));
    });
    sim.run_until(SimTime::from_secs(5));
    let line = out.try_recv().unwrap();
    assert!(line.starts_with("NoReplica"), "{line}");
    assert!(line.contains("NotFound"), "{line}");
}

#[test]
fn movie_resume_position_is_honoured() {
    // §10.1.1: the client remembers the playback position and re-opens
    // from it.
    let sim = Sim::new(4);
    let server = sim.add_node("server");
    let cat = catalog(server.node());
    let (_mds, mds_ref) = Mds::serve(server.clone() as Rt, 21, cat, 10).unwrap();
    let out: SimChan<u64> = SimChan::new(&sim);
    let out2 = out.clone();
    let srv = server.clone();
    server.spawn_fn("driver", move || {
        let client = MdsApiClient::attach(ClientCtx::new(srv.clone()), mds_ref).unwrap();
        let dest = Addr::new(srv.node(), 98);
        let movie_ref = client.open("t2".into(), dest, 7_000).unwrap();
        let movie = MovieCtlClient::attach(ClientCtx::new(srv.clone()), movie_ref).unwrap();
        out2.send(movie.position().unwrap());
    });
    sim.run_until(SimTime::from_secs(5));
    assert_eq!(out.try_recv().unwrap(), 7_000);
}

#[test]
fn file_service_contexts_list_and_reject_binds() {
    let sim = Sim::new(5);
    let server = sim.add_node("server");
    let (_svc, root_ref, create_ref) = FileSvc::serve(server.clone() as Rt, 26).unwrap();
    assert_eq!(root_ref.type_id, ocs_name::NAMING_TYPE_ID);
    let out: SimChan<String> = SimChan::new(&sim);
    let out2 = out.clone();
    let srv = server.clone();
    server.spawn_fn("driver", move || {
        let fsvc = FileSvcClient::attach(ClientCtx::new(srv.clone()), create_ref).unwrap();
        fsvc.mkdir("movies".into()).unwrap();
        fsvc.create("movies/a.dat".into()).unwrap();
        fsvc.create("movies/b.dat".into()).unwrap();
        fsvc.create("readme".into()).unwrap();
        // The root is a NamingContext: list it, resolve through it.
        let root = NamingContextClient::attach(ClientCtx::new(srv.clone()), root_ref).unwrap();
        let entries = root.list(".".into()).unwrap();
        let names: Vec<String> = entries.iter().map(|b| b.name.clone()).collect();
        out2.send(names.join(","));
        let sub = root.list("movies".into()).unwrap();
        out2.send(sub.len().to_string());
        // Binding arbitrary objects into the file system is refused.
        let err = root
            .bind(
                "intruder".into(),
                ObjRef {
                    addr: Addr::new(srv.node(), 1),
                    incarnation: 1,
                    type_id: 1,
                    object_id: 0,
                },
            )
            .unwrap_err();
        out2.send(matches!(err, NsError::BadName { .. }).to_string());
        // Files read and write through their objects.
        let f_ref = root.resolve("movies/a.dat".into()).unwrap();
        let file = FileApiClient::attach(ClientCtx::new(srv.clone()), f_ref).unwrap();
        file.write(0, Bytes::from_static(b"hello")).unwrap();
        out2.send(file.size().unwrap().to_string());
        // Removal: non-empty directories are protected.
        let e = fsvc.remove("movies".into()).unwrap_err();
        out2.send(format!("{e:?}").contains("not empty").to_string());
        fsvc.remove("movies/a.dat".into()).unwrap();
        fsvc.remove("movies/b.dat".into()).unwrap();
        fsvc.remove("movies".into()).unwrap();
        out2.send("done".into());
    });
    sim.run_until(SimTime::from_secs(10));
    assert_eq!(out.try_recv().unwrap(), "movies,readme");
    assert_eq!(out.try_recv().unwrap(), "2");
    assert_eq!(out.try_recv().unwrap(), "true");
    assert_eq!(out.try_recv().unwrap(), "5");
    assert_eq!(out.try_recv().unwrap(), "true");
    assert_eq!(out.try_recv().unwrap(), "done");
}

#[test]
fn stale_movie_reference_rejected_after_mds_restart() {
    // §3.2.1's lifetime rule on the media path: a movie reference from a
    // previous MDS incarnation is rejected by its successor.
    let sim = Sim::new(6);
    let server = sim.add_node("server");
    let cat = catalog(server.node());
    let slot: Arc<parking_lot::Mutex<Option<ObjRef>>> = Default::default();
    let slot2 = Arc::clone(&slot);
    let cat2 = cat.clone();
    let srv = server.clone();
    let group = server.spawn_group(
        "mds-v1",
        Box::new(move || {
            let (_mds, mds_ref) = Mds::serve(srv.clone() as Rt, 21, cat2, 10).unwrap();
            let client = MdsApiClient::attach(ClientCtx::new(srv.clone()), mds_ref).unwrap();
            let movie = client
                .open("t2".into(), Addr::new(srv.node(), 98), 0)
                .unwrap();
            *slot2.lock() = Some(movie);
            loop {
                srv.sleep(Duration::from_secs(3600));
            }
        }),
    );
    sim.run_until(SimTime::from_secs(2));
    let old_movie = slot.lock().expect("opened");
    group.kill();
    sim.run_for(Duration::from_secs(1));
    // New incarnation on the same port.
    let (_mds2, _ref2) = Mds::serve(server.clone() as Rt, 21, cat, 10).unwrap();
    let out: SimChan<String> = SimChan::new(&sim);
    let out2 = out.clone();
    let srv = server.clone();
    server.spawn_fn("prober", move || {
        let movie = MovieCtlClient::attach(ClientCtx::new(srv.clone()), old_movie).unwrap();
        out2.send(format!("{:?}", movie.position().unwrap_err()));
    });
    sim.run_until(SimTime::from_secs(10));
    let err = out.try_recv().unwrap();
    assert!(
        err.contains("ObjectDead"),
        "stale incarnation must be rejected: {err}"
    );
}

/// Runs `calls` in a process on `node` to completion; returns how many
/// processes the run started (the caller's own included) and how many
/// requests ran inline, with none.
fn processes_and_inline_runs(
    sim: &Sim,
    node: &Rt,
    calls: impl FnOnce(Rt) + Send + 'static,
) -> (u64, u64) {
    let before = sim.kernel_stats();
    let rt = node.clone();
    node.spawn_fn("caller", move || calls(rt));
    sim.run_for(Duration::from_secs(1));
    let after = sim.kernel_stats();
    (
        after.spawns - before.spawns,
        after.inline_runs - before.inline_runs,
    )
}

/// The plain CM says every method `runs_inline`, and the simulator holds
/// it to that — a method that waited would panic the run: each of the
/// five runs where its request is delivered, with no process.
#[test]
fn the_plain_cm_runs_all_five_methods_inline() {
    let sim = Sim::new(7);
    let server: Rt = sim.add_node("server");
    let settop: Rt = sim.add_node("settop");
    let cm = ConnectionManager::with_clock(CmBudgets::default(), Some(server.clone()));
    let cm_ref = cm.serve(server.clone(), 30).unwrap();
    sim.run_for(Duration::from_millis(1));
    let (srv, out) = (server.node(), Arc::new(parking_lot::Mutex::new(None)));
    let slot = Arc::clone(&out);
    let counts = processes_and_inline_runs(&sim, &settop, move |rt| {
        let cm = CmApiClient::attach(ClientCtx::new(rt.clone()), cm_ref).unwrap();
        let conn = cm.allocate(1, rt.node(), srv, 4_000_000).unwrap();
        let desc = ConnDesc {
            conn,
            settop: rt.node(),
            server: srv,
            down_bps: 4_000_000,
        };
        cm.reassert(desc).unwrap();
        let live = cm.usage().unwrap().allocations;
        let rows = cm.accounting().unwrap().len();
        cm.release(conn).unwrap();
        *slot.lock() = Some((live, rows));
    });
    assert_eq!(*out.lock(), Some((1, 1)));
    assert_eq!(
        counts,
        (1, 5),
        "the caller's process only; five inline runs"
    );
}

/// `status`, probed on every movie open, runs inline; `open_sessions`
/// stays a process of its own.
#[test]
fn mds_status_runs_inline_and_open_sessions_does_not() {
    let sim = Sim::new(8);
    let server: Rt = sim.add_node("server");
    let (_mds, mds_ref) = Mds::serve(server.clone(), 21, catalog(server.node()), 10).unwrap();
    sim.run_for(Duration::from_millis(1));
    let probe = move |rt: Rt| MdsApiClient::attach(ClientCtx::new(rt), mds_ref).unwrap();
    let status = processes_and_inline_runs(&sim, &server, move |rt| {
        assert_eq!(probe(rt).status().unwrap().open_streams, 0);
    });
    assert_eq!(status, (1, 1));
    let sessions = processes_and_inline_runs(&sim, &server, move |rt| {
        assert!(probe(rt).open_sessions().unwrap().is_empty());
    });
    assert_eq!(sessions, (2, 0));
}

/// A proxy for the root object at `port` on `node`, built from the
/// address alone.
fn root_at<P: Proxy>(rt: &Rt, node: NodeId, port: u16) -> P {
    let target = ObjRef {
        addr: Addr::new(node, port),
        incarnation: ObjRef::STABLE,
        type_id: P::TYPE_ID,
        object_id: 0,
    };
    P::bind_ref(ClientCtx::new(rt.clone()), target).unwrap()
}

/// The services that open their own port listen where `ports` says:
/// RAS, SSC, Settop Manager, CSC and MMS are started without naming a
/// port, and each root object is at, and answers at, its table entry.
/// The table itself gives no two services one port and puts none inside
/// the per-neighbourhood CM and RDS ranges.
#[test]
fn services_listen_at_the_well_known_ports() {
    let fixed = [
        ports::NS,
        ports::AUTH,
        ports::DB,
        ports::RAS,
        ports::SSC,
        ports::CSC,
        ports::SETTOP_MGR,
        ports::TELEMETRY,
        ports::MDS,
        ports::MMS,
        ports::BOOT,
        ports::KBS,
        ports::FILE,
        ports::SHOP,
        ports::SETTOP_STREAM,
        ports::SETTOP_AGENT,
    ];
    let mut distinct = fixed.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(
        distinct.len(),
        fixed.len(),
        "a port is taken twice: {fixed:?}"
    );
    let width = ports::RDS - ports::CMGR;
    for base in [ports::CMGR, ports::RDS] {
        let range = base..base + width;
        assert!(
            !fixed.iter().any(|p| range.contains(p)),
            "a port inside {range:?}"
        );
    }

    let sim = Sim::new(9);
    let server = sim.add_node("server");
    let client = sim.add_node("client");
    let rt: Rt = server.clone();
    let ns_addr = Addr::new(server.node(), ports::NS);
    let ns_cfg = NsConfig::paper_defaults(0, vec![ns_addr]);
    NsReplica::start(rt.clone(), ns_cfg, Arc::new(AlwaysAlive)).unwrap();
    let ns = NsHandle::new(ClientCtx::new(rt.clone()), ns_addr);
    let ssc = Ssc::start(rt.clone(), SscConfig::default(), ns.clone(), vec![]).unwrap();
    let (_ras, ras_ref, _) = Ras::start(rt.clone(), RasConfig::default(), ns.clone()).unwrap();
    let (_mgr, mgr_ref) = SettopMgr::start(rt.clone()).unwrap();
    let csc = Csc::new(rt.clone(), CscConfig::default(), ns.clone());
    let mms_cfg = MmsConfig {
        bind_retry: Duration::from_secs(10),
        ras_poll: Duration::from_secs(10),
        reassert_interval: Duration::from_secs(5),
        nbhd_of: Arc::default(),
    };
    let mms = Mms::new(rt.clone(), ns, mms_cfg, Catalog::new());
    let roots: Arc<parking_lot::Mutex<Vec<ObjRef>>> = Arc::default();
    let slot = Arc::clone(&roots);
    server.spawn_fn("csc", move || {
        let _ = csc.run(|objs| slot.lock().extend(objs));
    });
    let slot = Arc::clone(&roots);
    server.spawn_fn("mms", move || {
        let _ = mms.run(|objs| slot.lock().extend(objs));
    });
    sim.run_until(SimTime::from_secs(10));

    let srv = server.node();
    let mut started: Vec<(u16, ObjRef)> = vec![
        (ports::SSC, ssc.self_ref()),
        (ports::RAS, ras_ref),
        (ports::SETTOP_MGR, mgr_ref),
    ];
    let roots = roots.lock().clone();
    assert_eq!(roots.len(), 2, "the CSC and the MMS each reported one root");
    for (port, type_id) in [
        (ports::CSC, CscApiClient::TYPE_ID),
        (ports::MMS, MmsApiClient::TYPE_ID),
    ] {
        let root = roots
            .iter()
            .find(|o| o.type_id == type_id)
            .expect("reported");
        started.push((port, *root));
    }
    for (port, obj) in started {
        assert_eq!(obj.addr, Addr::new(srv, port), "{obj:?}");
    }
    let answered: SimChan<Vec<bool>> = SimChan::new(&sim);
    let out = answered.clone();
    let crt: Rt = client.clone();
    client.spawn_fn("ask", move || {
        out.send(vec![
            root_at::<SscApiClient>(&crt, srv, ports::SSC)
                .ping()
                .is_ok(),
            root_at::<RasApiClient>(&crt, srv, ports::RAS)
                .check_status(vec![])
                .is_ok(),
            root_at::<SettopMgrClient>(&crt, srv, ports::SETTOP_MGR)
                .status(vec![])
                .is_ok(),
            root_at::<CscApiClient>(&crt, srv, ports::CSC)
                .cluster_status()
                .is_ok(),
            root_at::<MmsApiClient>(&crt, srv, ports::MMS)
                .session_count()
                .is_ok(),
        ]);
    });
    sim.run_for(Duration::from_secs(5));
    assert_eq!(
        answered.try_recv(),
        Some(vec![true; 5]),
        "SSC, RAS, manager, CSC, MMS"
    );
}
