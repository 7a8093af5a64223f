//! Real-runtime cluster assembly: the same OCS service stack the
//! simulator runs, brought up on OS threads and TCP over loopback, with
//! killable process groups per service.
//!
//! This is the chaos-campaign counterpart of [`crate::Cluster`]: where
//! the simulated cluster asserts on deterministic event traces, the
//! real cluster asserts on *outcomes within wall-clock bounds* —
//! elections settle, leases expire, streams are abandoned — because
//! thread scheduling and TCP timing are not reproducible. Every service
//! runs in its own [`ProcGroup`], so `kill_service` exercises the real
//! runtime's cooperative-kill path: member threads unwind at their next
//! cancellation point and the service's sockets close immediately, so
//! clients observe bounces and resets, not silence.
//!
//! The layout is fixed and small (this is a fault-parity harness, not a
//! load rig): server 0 carries the connection manager, server 1 the
//! MDS, server 2 the MMS; every server runs a name-service replica and
//! a telemetry exporter, and each settop is its own node. The
//! name-service replicas are an `ocs_vsr::group` [`Group`] with server 0
//! as its client node: the group crashes, restarts and settles them.
//! Its `kill(i)` is a host crash — it kills every process group on
//! server `i`, so the CM, MDS or MMS placed there dies too — and its
//! `restart(i)` brings back only the name-service replica; a co-located
//! service is restarted by starting it again.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use itv_media::{
    names, ports, Catalog, CmApiClient, CmBudgets, CmUsage, ConnectionManager, Mms, MmsApiClient,
    MmsConfig, MovieCtlClient, MovieInfo, MovieTicket, Segment,
};
use ocs_name::{
    acquire_primary, AlwaysAlive, NsConfig, NsHandle, NsReplica, SelectorSpec,
};
use ocs_orb::{ClientCtx, ObjRef};
use ocs_sim::real::{RealNet, RealNode};
use ocs_sim::{Addr, NodeId, NodeRt, PortReq, ProcGroup, Rt};
use ocs_vsr::group::{Group, Spec};
use ocs_vsr::ReplicaConfig;
use ocs_wire::Wire;
use parking_lot::Mutex;

use crate::build::{hold, park, serve_mds};
use crate::telemetry::TelemetrySnapshot;

/// The test movie streamed by campaign viewers: long enough that a
/// stream outlives any campaign leg, light enough not to flood loopback.
pub const MOVIE_TITLE: &str = "campaign-movie";
const MOVIE_BITRATE_BPS: u64 = 800_000;
const MOVIE_DURATION_MS: u64 = 600_000;

/// Counters a viewer group updates while it streams.
#[derive(Default)]
pub struct ViewerStats {
    /// Segments received on the stream port.
    pub segments: AtomicU64,
    /// Bytes received on the stream port.
    pub bytes: AtomicU64,
    /// Set once the MMS granted the ticket and playback started.
    pub playing: AtomicBool,
    /// The granted ticket (session id + movie object), for the driver.
    pub ticket: Mutex<Option<MovieTicket>>,
}

/// A service (or viewer) running in its own killable process group.
pub struct RealService {
    /// The service's process group; `kill()` is the chaos lever.
    pub group: Arc<dyn ProcGroup>,
    /// Which server/settop node the service runs on.
    pub node: NodeId,
}

/// A small ITV cluster on the real runtime. See the module docs for the
/// fixed layout.
pub struct RealCluster {
    net: Arc<RealNet>,
    /// Server nodes (each runs an NS replica and a telemetry exporter).
    pub servers: Vec<Arc<RealNode>>,
    /// Settop nodes (each runs at most one viewer group).
    pub settops: Vec<Arc<RealNode>>,
    /// The name service: replica `i` on `servers[i]`, each in its own
    /// process group. `kill(i)` crashes all of server `i` — every
    /// process group on it, services included — and `restart(i)`
    /// restarts the name-service replica alone.
    pub ns_group: Group<NsReplica>,
    catalog: Catalog,
    nbhd_of: Arc<BTreeMap<NodeId, u32>>,
    services: Mutex<BTreeMap<String, RealService>>,
}

impl RealCluster {
    /// Brings up `n_servers` server nodes (NS replica group + telemetry
    /// exporters, elections settled) and `n_settops` settop nodes, and
    /// seeds the name space (`svc`, replicated `svc/mds`, `svc/cmgr`).
    /// Media services start separately — see [`RealCluster::start_cm`],
    /// [`RealCluster::start_mds`], [`RealCluster::start_mms`].
    pub fn launch(n_servers: usize, n_settops: usize) -> RealCluster {
        assert!(n_servers >= 3, "fixed layout needs >= 3 servers");
        let net = RealNet::new();
        let servers: Vec<Arc<RealNode>> = (0..n_servers)
            .map(|i| net.add_node(&format!("server{i}")).expect("bind loopback"))
            .collect();
        let settops: Vec<Arc<RealNode>> = (0..n_settops)
            .map(|i| net.add_node(&format!("settop{i}")).expect("bind loopback"))
            .collect();
        for node in &servers {
            let rt: Rt = node.clone();
            ocs_orb::export_telemetry(rt, ports::TELEMETRY).expect("telemetry exporter");
        }
        // All settops in neighborhood 0 (one CM serves the campaign).
        let nbhd_of = Arc::new(
            settops
                .iter()
                .map(|n| (n.node(), 0u32))
                .collect::<BTreeMap<_, _>>(),
        );
        let catalog = Catalog::new();
        catalog.add_movie(MovieInfo {
            title: MOVIE_TITLE.into(),
            bitrate_bps: MOVIE_BITRATE_BPS,
            duration_ms: MOVIE_DURATION_MS,
            replicas: vec![servers[1].node()],
        });
        let ns_group = Group::on_tcp(servers.clone(), Arc::clone(&servers[0]), ns_spec());
        ns_group.settle("at launch");
        let cluster = RealCluster {
            net,
            servers,
            settops,
            ns_group,
            catalog,
            nbhd_of,
            services: Mutex::new(BTreeMap::new()),
        };
        // Seed the name space from the driver thread.
        let ns = cluster.ns(0);
        ns.bind_new_context("svc").expect("mk svc");
        ns.bind_repl_context(names::MDS, SelectorSpec::First)
            .expect("mk mds context");
        ns.bind_new_context(names::CMGR).expect("mk cmgr context");
        cluster
    }

    /// The network registry (fault injection, `real.net.*` counters).
    pub fn net(&self) -> &Arc<RealNet> {
        &self.net
    }

    /// A name-service handle talking to the replica on server `i`.
    pub fn ns(&self, i: usize) -> NsHandle {
        let rt: Rt = self.servers[i].clone();
        NsHandle::new(ClientCtx::new(rt), self.ns_group.peers()[i])
    }

    fn register(&self, name: &str, group: Arc<dyn ProcGroup>, node: NodeId) {
        self.services
            .lock()
            .insert(name.to_string(), RealService { group, node });
    }

    /// The process group of a started service.
    pub fn service(&self, name: &str) -> Arc<dyn ProcGroup> {
        Arc::clone(
            &self
                .services
                .lock()
                .get(name)
                .unwrap_or_else(|| panic!("service {name} not started"))
                .group,
        )
    }

    /// Kills a service's process group (the chaos lever). The group's
    /// endpoints close immediately; its threads unwind cooperatively.
    pub fn kill_service(&self, name: &str) {
        self.service(name).kill();
    }

    /// Starts the neighborhood-0 connection manager on server 0 with the
    /// given lease TTL, bound at `svc/cmgr/0`.
    pub fn start_cm(&self, lease_ttl: Duration) {
        let rt: Rt = self.servers[0].clone();
        let my_ns = self.ns_group.peers()[0];
        let node = self.servers[0].node();
        let group = rt.clone().spawn_group(
            "cmgr-0",
            Box::new(move || {
                let cm = ConnectionManager::with_lease(
                    CmBudgets::default(),
                    Some(rt.clone()),
                    Some(lease_ttl),
                );
                let Ok(obj) = cm.serve(rt.clone(), ports::CMGR) else {
                    return;
                };
                let ns = NsHandle::new(ClientCtx::new(rt.clone()), my_ns);
                acquire_primary(&ns, &rt, &cm_path(), obj, Duration::from_millis(500));
                park(&rt)
            }),
        );
        self.register("cmgr-0", group, node);
    }

    /// Starts the MDS on server 1, bound under the replicated `svc/mds`
    /// context. Restart = kill the previous instance, then call this
    /// again (the fixed MDS port must be free first).
    pub fn start_mds(&self) {
        let rt: Rt = self.servers[1].clone();
        let my_ns = self.ns_group.peers()[1];
        let node = self.servers[1].node();
        let catalog = self.catalog.clone();
        let group = rt.clone().spawn_group(
            "mds",
            Box::new(move || {
                if let Some((_mds, names)) = serve_mds(&rt, catalog, 64) {
                    hold(&rt, my_ns, names, false)
                }
            }),
        );
        self.register("mds", group, node);
    }

    /// Starts the MMS on server 2 (primary at `svc/mms`), reasserting
    /// connection leases every `reassert_interval`.
    pub fn start_mms(&self, reassert_interval: Duration) {
        let rt: Rt = self.servers[2].clone();
        let my_ns = self.ns_group.peers()[2];
        let node = self.servers[2].node();
        let catalog = self.catalog.clone();
        let nbhd_of = Arc::clone(&self.nbhd_of);
        let group = rt.clone().spawn_group(
            "mms",
            Box::new(move || {
                let ns = NsHandle::new(ClientCtx::new(rt.clone()), my_ns);
                let mms = Mms::new(
                    rt.clone(),
                    ns,
                    MmsConfig {
                        bind_retry: Duration::from_millis(500),
                        ras_poll: Duration::from_secs(1),
                        reassert_interval,
                        nbhd_of,
                    },
                    catalog,
                );
                let _ = mms.run(|_| {});
            }),
        );
        self.register("mms", group, node);
    }

    /// Starts a viewer on settop `i`: resolves the MMS, opens the test
    /// movie, starts playback and counts stream segments until killed.
    /// Returns the stats the driver asserts on.
    pub fn start_viewer(&self, i: usize) -> Arc<ViewerStats> {
        let rt: Rt = self.settops[i].clone();
        let my_ns = self.ns_group.peers()[i % self.ns_group.peers().len()];
        let node = self.settops[i].node();
        let stats = Arc::new(ViewerStats::default());
        let stats2 = Arc::clone(&stats);
        let group = rt.clone().spawn_group(
            &format!("viewer-{i}"),
            Box::new(move || {
                let Ok(stream) = rt.open(PortReq::Fixed(ports::SETTOP_STREAM)) else {
                    return;
                };
                let ns = NsHandle::new(ClientCtx::new(rt.clone()), my_ns);
                // The MMS may still be racing for primacy: retry resolve.
                let deadline = Instant::now() + Duration::from_secs(15);
                let ticket = loop {
                    if let Ok(mms_ref) = ns.resolve(names::MMS) {
                        let ctx =
                            ClientCtx::new(rt.clone()).with_timeout(Duration::from_secs(3));
                        if let Ok(mms) = MmsApiClient::attach(ctx, mms_ref) {
                            if let Ok(t) = mms.open(MOVIE_TITLE.into(), 0) {
                                break t;
                            }
                        }
                    }
                    if Instant::now() >= deadline {
                        return;
                    }
                    rt.sleep(Duration::from_millis(250));
                };
                let movie =
                    MovieCtlClient::attach(ClientCtx::new(rt.clone()), ticket.movie).unwrap();
                *stats2.ticket.lock() = Some(ticket);
                if movie.play(0).is_err() {
                    return;
                }
                stats2.playing.store(true, Ordering::SeqCst);
                loop {
                    match stream.recv(Some(Duration::from_secs(1))) {
                        Ok((_, msg)) => {
                            if let Ok(seg) = Segment::from_bytes(&msg) {
                                stats2.bytes.fetch_add(seg.data.len() as u64, Ordering::Relaxed);
                                stats2.segments.fetch_add(1, Ordering::Relaxed);
                                if seg.last {
                                    return;
                                }
                            }
                        }
                        Err(ocs_sim::RecvError::TimedOut) => continue,
                        Err(_) => return,
                    }
                }
            }),
        );
        self.register(&format!("viewer-{i}"), group, node);
        stats
    }

    /// RPC view of the neighborhood-0 connection manager's usage, from
    /// the driver thread.
    pub fn cm_usage(&self) -> Option<CmUsage> {
        let rt: Rt = self.servers[0].clone();
        let obj = self.ns(0).resolve(&cm_path()).ok()?;
        let ctx = ClientCtx::new(rt).with_timeout(Duration::from_secs(2));
        let cm = CmApiClient::attach(ctx, obj).ok()?;
        cm.usage().ok()
    }

    /// The MMS's current binding (primary reference) if bound.
    pub fn mms_ref(&self) -> Option<ObjRef> {
        self.ns(0).resolve(names::MMS).ok()
    }

    /// Scrapes every node's telemetry servant from the driver thread and
    /// folds the network's `real.net.*` counters into the merged view.
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let targets = self.servers.iter().map(|n| n.node()).collect();
        let mut snap = TelemetrySnapshot::scrape(self.servers[0].clone(), targets);
        // The transport's own counters live on the network registry, not
        // on any node's telemetry servant: fold them in so campaigns see
        // one merged view.
        for (name, v) in self.net.counters() {
            *snap.merged.counters.entry(name).or_insert(0) += v;
        }
        snap
    }

    /// Every node's flight-recorder events, read directly through the
    /// node extensions (no RPC — dead services still contribute what
    /// they recorded).
    pub fn journal_events(&self) -> Vec<ocs_telemetry::JournalEvent> {
        let mut events = Vec::new();
        for n in self.servers.iter().chain(self.settops.iter()) {
            events.extend(ocs_telemetry::Journal::of(&**n).events());
        }
        events
    }

    /// The cluster postmortem: all journals merged into one
    /// causally-ordered timeline (see [`Cluster::postmortem`]).
    ///
    /// [`Cluster::postmortem`]: crate::Cluster::postmortem
    pub fn postmortem(&self) -> String {
        ocs_telemetry::render_timeline(&ocs_telemetry::merge_journals(self.journal_events()))
    }
}

/// Where neighbourhood 0's connection manager, the campaign's one, is
/// bound.
fn cm_path() -> String {
    format!("{}/0", names::CMGR)
}

/// The name service's replicas: the deployed tuning, a modelled resolve
/// cost of zero (the wall clock charges the real one), and the audit
/// every 2 s.
fn ns_spec() -> Spec<NsReplica> {
    Spec {
        name: "ns",
        port: ports::NS,
        tuning: ns_tuning,
        start: Arc::new(|rt, r: ReplicaConfig| {
            let cfg = NsConfig {
                audit_interval: Duration::from_secs(2),
                resolve_cost: Duration::ZERO,
                ..NsConfig::with_replication(r)
            };
            NsReplica::start(rt, cfg, Arc::new(AlwaysAlive))
        }),
        status: |r| Some(r.status()),
    }
}

/// The paper's 10 s scales are for humans; the campaign budget is
/// seconds.
fn ns_tuning(i: u32, peers: Vec<Addr>) -> ReplicaConfig {
    ReplicaConfig {
        heartbeat_interval: Duration::from_millis(200),
        election_timeout: Duration::from_millis(600),
        // A broadcast round waits up to one `peer_timeout` for a silent
        // peer, and the primary's next heartbeat round starts after it.
        // Under the 200 ms heartbeat, a partitioned backup does not
        // stretch the heartbeats the live one hears past its suspect
        // timeout (the default 800 ms would, and the view would change
        // under a healthy primary).
        peer_timeout: Duration::from_millis(150),
        // Short, so the snapshot-transfer recovery path is reachable
        // inside a test's write budget.
        log_retention: 64,
        ..ReplicaConfig::paper_defaults(i, peers)
    }
}

/// A dropped cluster takes its processes and sockets with it, so a test
/// binary that launches several does not run them all to its end.
impl Drop for RealCluster {
    fn drop(&mut self) {
        for n in self.servers.iter().chain(&self.settops) {
            n.kill_all_groups();
            n.stop();
        }
    }
}
