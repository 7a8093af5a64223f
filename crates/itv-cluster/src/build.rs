//! Cluster assembly: builds the Fig. 1 deployment — servers with the
//! full OCS service stack, neighborhoods, settops — and provides the
//! §6.3 start-up sequence plus failure-injection and metric helpers.

use std::collections::BTreeMap;
use std::sync::{Arc, Weak};
use std::time::Duration;

use bytes::Bytes;
use itv_media::{
    names, ports, BootSvc, Catalog, CmBudgets, CmReplica, CmReplicaConfig, DownloadInfo, FileSvc,
    KernelSvc, Mds, Mms, MmsConfig, MovieInfo, Rds, SettopPlan, ShopSvc,
};
use itv_settop::{AppCtx, AppSlot, Settop, SettopBootInfo, SettopHandle};
use ocs_auth::AuthService;
use ocs_db::{Db, DbApiServant, MemStorage, ServicePlacement, Storage, TABLE_SERVICES};
use ocs_name::{
    acquire_primary, advertise, NsConfig, NsError, NsHandle, NsReplica, SelectorSpec,
    ADVERTISE_EVERY,
};
use ocs_orb::{ClientCtx, ObjRef, Orb};
use ocs_ras::{Ras, RasConfig, RasOracle, SettopMgr};
use ocs_sim::{
    Addr, FaultAction, LinkParams, NodeId, NodeRt, NodeRtExt, PortReq, Rt, Sim, SimNode, SimTime,
};
use ocs_svcctl::{
    Csc, CscConfig, ServiceDef, ServiceRunCtx, ServiceStatus, Ssc, SscApiClient, SscConfig,
    SscReplicaConfig,
};
use ocs_wire::Wire;
use parking_lot::Mutex;

use crate::config::ClusterConfig;

/// What each settop's VOD/shopping app should do when launched (set by
/// the workload before tuning the channel).
#[derive(Clone, Debug)]
pub struct Intent {
    /// Movie title for the VOD app.
    pub title: String,
    /// How much of it to watch (ms).
    pub watch_ms: u64,
    /// Shopping interactions to perform.
    pub interactions: u32,
    /// Shopping think time.
    pub think: Duration,
}

impl Default for Intent {
    fn default() -> Intent {
        Intent {
            title: "movie-0".to_string(),
            watch_ms: 10_000,
            interactions: 5,
            think: Duration::from_secs(2),
        }
    }
}

/// One server machine.
pub struct ServerHandle {
    /// The node.
    pub node: Arc<SimNode>,
    /// Name-service replica index.
    pub replica_id: u32,
    /// The current SSC ("init" restarts it on reboot).
    pub ssc: Mutex<Option<Arc<Ssc>>>,
    registry: Vec<ServiceDef>,
    started: Arc<Mutex<Started>>,
}

/// The service objects the newest instance of each of a server's
/// services started, to be read in place from outside the simulation
/// (the promise [`Watch`](crate::Watch) does). Weak: an instance's
/// objects die with its process group, as they would without this record.
#[derive(Default)]
pub(crate) struct Started {
    pub(crate) ns: Weak<NsReplica>,
    pub(crate) csc: Weak<Csc>,
    pub(crate) mms: Weak<Mms>,
    pub(crate) mds: Weak<Mds>,
    /// By neighborhood.
    pub(crate) cm: BTreeMap<u32, Weak<CmReplica>>,
}

impl ServerHandle {
    /// What the server's SSC reports of its services (nothing while the
    /// server is down).
    pub fn statuses(&self) -> Vec<ServiceStatus> {
        match self.ssc.lock().as_ref() {
            Some(ssc) if self.node.sim().node_up(self.node.node()) => ssc.statuses(),
            _ => Vec::new(),
        }
    }

    /// Whether the server is up and its SSC runs `service`.
    pub fn runs(&self, service: &str) -> bool {
        let statuses = self.statuses();
        statuses.iter().any(|st| st.name == service && st.running)
    }

    /// `read` of what `service`'s instance started, if the server runs it.
    pub(crate) fn started<T>(
        &self,
        service: &str,
        read: impl FnOnce(&Started) -> Option<T>,
    ) -> Option<T> {
        self.runs(service).then(|| read(&self.started.lock()))?
    }
}

/// One settop.
pub struct SettopCtl {
    /// The node.
    pub node: Arc<SimNode>,
    /// The booted software handle.
    pub handle: SettopHandle,
    /// Its neighborhood.
    pub neighborhood: u32,
    /// What its apps should do when launched.
    pub intent: Arc<Mutex<Intent>>,
}

impl SettopCtl {
    /// The viewer tunes to video on demand to watch `watch_ms` of `title`.
    pub fn watch_movie(&self, title: &str, watch_ms: u64) {
        {
            let mut i = self.intent.lock();
            i.title = title.to_string();
            i.watch_ms = watch_ms;
        }
        self.handle.tune(ClusterConfig::CHANNEL_VOD);
    }

    /// The viewer tunes to the shopping channel for `interactions`
    /// interactions, `think` apart.
    pub fn shop(&self, interactions: u32, think: Duration) {
        {
            let mut i = self.intent.lock();
            i.interactions = interactions;
            i.think = think;
        }
        self.handle.tune(ClusterConfig::CHANNEL_SHOP);
    }
}

/// A fully assembled cluster.
pub struct Cluster {
    /// The simulation.
    pub sim: Sim,
    /// The configuration it was built from.
    pub cfg: ClusterConfig,
    /// Server machines, in replica-id order.
    pub servers: Vec<ServerHandle>,
    /// Settops, in creation order.
    pub settops: Vec<SettopCtl>,
    /// The content catalog.
    pub catalog: Catalog,
    /// Settop → neighborhood.
    pub nbhd_of: Arc<BTreeMap<NodeId, u32>>,
    /// Name-service replica addresses, by replica id.
    pub ns_peers: Vec<Addr>,
    /// Per-server persistent storage (survives node crashes).
    pub storages: Vec<Arc<MemStorage>>,
    /// Settop nodes (booted lazily by [`Cluster::boot_settops`]).
    pub settop_nodes: Vec<Arc<SimNode>>,
}

impl Cluster {
    /// Builds and boots a cluster per `cfg` (§6.3 start-up: every
    /// server's SSC comes up and starts the basic services; the CSC then
    /// places the rest). Run the simulation ~30 s of virtual time before
    /// expecting full service (election + placement).
    pub fn build(sim: &Sim, cfg: ClusterConfig) -> Cluster {
        // ---- nodes and links -----------------------------------------
        let servers_nodes: Vec<Arc<SimNode>> = (0..cfg.servers)
            .map(|i| sim.add_node(&format!("server{i}")))
            .collect();
        let settop_nodes: Vec<Arc<SimNode>> = (0..cfg.settops)
            .map(|i| sim.add_node(&format!("settop{i}")))
            .collect();
        for a in &servers_nodes {
            for b in &servers_nodes {
                if a.node() != b.node() {
                    sim.set_link(a.node(), b.node(), ClusterConfig::SERVER_LINK);
                }
            }
            for s in &settop_nodes {
                sim.set_link(
                    a.node(),
                    s.node(),
                    LinkParams {
                        latency: ClusterConfig::SETTOP_LATENCY,
                        bandwidth: Some(ClusterConfig::SETTOP_DOWN_BPS / 8),
                        loss: 0.0,
                    },
                );
                sim.set_link(
                    s.node(),
                    a.node(),
                    LinkParams {
                        latency: ClusterConfig::SETTOP_LATENCY,
                        bandwidth: Some(ClusterConfig::SETTOP_UP_BPS / 8),
                        loss: 0.0,
                    },
                );
            }
        }
        let ns_peers: Vec<Addr> = servers_nodes
            .iter()
            .map(|n| Addr::new(n.node(), ports::NS))
            .collect();

        // ---- content and neighborhood plan ---------------------------
        let catalog = Catalog::new();
        for m in 0..cfg.movies {
            let replicas: Vec<NodeId> = (0..cfg.movie_replicas.min(cfg.servers))
                .map(|r| servers_nodes[(m + r) % cfg.servers].node())
                .collect();
            catalog.add_movie(MovieInfo {
                title: format!("movie-{m}"),
                bitrate_bps: cfg.movie_bitrate_bps,
                duration_ms: ClusterConfig::MOVIE_DURATION_MS,
                replicas,
            });
        }
        catalog.add_download(DownloadInfo {
            name: "navigator".into(),
            size: 200_000,
        });
        catalog.add_download(DownloadInfo {
            name: "vod".into(),
            size: cfg.vod_app_size,
        });
        catalog.add_download(DownloadInfo {
            name: "shop".into(),
            size: ClusterConfig::SHOP_APP_SIZE,
        });
        let nbhds = cfg.neighborhoods().max(1);
        let mut nbhd_map = BTreeMap::new();
        for (i, s) in settop_nodes.iter().enumerate() {
            nbhd_map.insert(s.node(), i as u32 % nbhds);
        }
        let nbhd_of = Arc::new(nbhd_map);

        // ---- persistent storage & placement configuration -------------
        let storages: Vec<Arc<MemStorage>> = (0..cfg.servers).map(|_| MemStorage::new()).collect();
        let placements = Cluster::placements(&cfg, &servers_nodes);
        for p in &placements {
            storages[0]
                .put(TABLE_SERVICES, &p.service, p.to_bytes())
                .expect("mem storage");
        }

        // ---- boot broadcast plans -------------------------------------
        let boot_svc = BootSvc::new(ClusterConfig::KERNEL_SIZE);
        for (i, s) in settop_nodes.iter().enumerate() {
            let nbhd = i as u32 % nbhds;
            // Each settop uses the name-service replica on "its" server.
            let home = (nbhd % cfg.servers as u32) as usize;
            boot_svc.set_plan(
                s.node(),
                SettopPlan {
                    ns_addr: ns_peers[home],
                    neighborhood: nbhd,
                },
            );
        }

        // ---- per-server service registries -----------------------------
        let mut servers = Vec::new();
        for (i, node) in servers_nodes.iter().enumerate() {
            let started = Arc::new(Mutex::new(Started::default()));
            let registry = Cluster::registry_for(
                i, &cfg, &ns_peers, &catalog, &storages, &nbhd_of, &boot_svc, &started,
            );
            servers.push(ServerHandle {
                node: Arc::clone(node),
                replica_id: i as u32,
                ssc: Mutex::new(None),
                registry,
                started,
            });
        }

        let cluster = Cluster {
            sim: sim.clone(),
            cfg,
            servers,
            settops: Vec::new(),
            catalog,
            nbhd_of,
            ns_peers,
            storages,
            settop_nodes,
        };

        // ---- boot the servers ("init" starts each SSC, §6.3 step 1) ---
        for i in 0..cluster.servers.len() {
            cluster.start_ssc(i);
        }
        // ---- cluster namespace setup (contexts + selectors) ------------
        cluster.spawn_namespace_setup();
        cluster
    }

    /// [`build`](Cluster::build), 40 s of virtual time to elect and
    /// place, [`boot_settops`](Cluster::boot_settops), and on to `at`.
    pub fn ready(sim: &Sim, cfg: ClusterConfig, at: SimTime) -> Cluster {
        let mut cluster = Cluster::build(sim, cfg);
        sim.run_until(SimTime::from_secs(40));
        cluster.boot_settops();
        sim.run_until(at);
        cluster
    }

    /// The CSC placement table for this configuration.
    fn placements(cfg: &ClusterConfig, servers: &[Arc<SimNode>]) -> Vec<ServicePlacement> {
        let node = |i: usize| servers[i % servers.len()].node();
        let all: Vec<NodeId> = servers.iter().map(|n| n.node()).collect();
        let two = |a: usize, b: usize| {
            if servers.len() > 1 {
                vec![node(a), node(b)]
            } else {
                vec![node(a)]
            }
        };
        let mut out = vec![
            ServicePlacement {
                service: "mds".into(),
                nodes: all.clone(),
            },
            ServicePlacement {
                service: "shop".into(),
                nodes: all,
            },
            ServicePlacement {
                service: "mms".into(),
                nodes: two(0, 1),
            },
            ServicePlacement {
                service: "kbs".into(),
                nodes: two(0, 1),
            },
            ServicePlacement {
                service: "settop-mgr".into(),
                nodes: vec![node(0)],
            },
            ServicePlacement {
                service: "boot".into(),
                nodes: vec![node(0)],
            },
            ServicePlacement {
                service: "file".into(),
                nodes: vec![node(0)],
            },
        ];
        for n in 0..cfg.neighborhoods() {
            // Per-neighborhood services: Connection Manager (a VSR
            // replica group of up to three, home server first, so a
            // fail-over inherits the admission table) and RDS (home only
            // — §8.1: not restarted elsewhere automatically).
            let home = (n % cfg.servers as u32) as usize;
            let mut group = Vec::new();
            for k in 0..3 {
                let nd = node(home + k);
                if !group.contains(&nd) {
                    group.push(nd);
                }
            }
            out.push(ServicePlacement {
                service: format!("cmgr-{n}"),
                nodes: group,
            });
            out.push(ServicePlacement {
                service: format!("rds-{n}"),
                nodes: vec![node(home)],
            });
        }
        out
    }

    /// Builds the service registry (the "binaries on disk") for server `i`;
    /// the instances record what they start in `started`.
    #[allow(clippy::too_many_arguments)]
    fn registry_for(
        i: usize,
        cfg: &ClusterConfig,
        ns_peers: &[Addr],
        catalog: &Catalog,
        storages: &[Arc<MemStorage>],
        nbhd_of: &Arc<BTreeMap<NodeId, u32>>,
        boot_svc: &Arc<BootSvc>,
        started: &Arc<Mutex<Started>>,
    ) -> Vec<ServiceDef> {
        let my_ns = ns_peers[i];
        let peers = ns_peers.to_vec();
        let mut defs = Vec::new();

        // --- basic: name service replica --------------------------------
        {
            let peers = peers.clone();
            let audit = cfg.ns_audit;
            let started = Arc::clone(started);
            defs.push(ServiceDef {
                name: "ns".into(),
                basic: true,
                factory: Arc::new(move |ctx: ServiceRunCtx| {
                    let mut nc = NsConfig::paper_defaults(i as u32, peers.clone());
                    nc.audit_interval = audit;
                    let oracle =
                        RasOracle::new(ctx.rt.clone(), Addr::new(ctx.rt.node(), ports::RAS));
                    if let Ok(ns) = NsReplica::start(ctx.rt.clone(), nc, oracle) {
                        started.lock().ns = Arc::downgrade(&ns);
                        (ctx.notify_ready)(Vec::new());
                        park(&ctx.rt)
                    }
                    // Else: port busy (stale instance); die and retry.
                }),
            });
        }

        // --- basic: telemetry servant ------------------------------------
        // Scrape endpoint for counters and spans; restarted by the SSC
        // like any basic service so reboots come back observable.
        defs.push(ServiceDef {
            name: "telemetry".into(),
            basic: true,
            factory: Arc::new(move |ctx: ServiceRunCtx| {
                if let Ok(obj) = ocs_orb::export_telemetry(ctx.rt.clone(), ports::TELEMETRY) {
                    (ctx.notify_ready)(vec![obj]);
                    park(&ctx.rt)
                }
            }),
        });

        // --- basic: authentication service -------------------------------
        // One instance per server, so one name per server under the
        // replicated `svc/auth`.
        defs.push(held("auth", true, my_ns, false, |rt| {
            let svc = AuthService::new(rt.clone(), Bytes::from_static(b"orlando-realm-key"));
            let orb = Orb::new(rt.clone(), PortReq::Fixed(ports::AUTH)).ok()?;
            let obj = orb.export_root(Arc::new(ocs_auth::AuthApiServant(svc)));
            orb.start();
            Some(vec![(format!("{}/{}", names::AUTH, rt.node().0), obj)])
        }));

        // --- basic: RAS ---------------------------------------------------
        {
            let ras_poll = cfg.ras_poll;
            defs.push(ServiceDef {
                name: "ras".into(),
                basic: true,
                factory: Arc::new(move |ctx: ServiceRunCtx| {
                    let ns = NsHandle::new(ClientCtx::new(ctx.rt.clone()), my_ns);
                    let rc = RasConfig {
                        poll_interval: ras_poll,
                    };
                    let Ok((_ras, ras_ref, cb_ref)) = Ras::start(ctx.rt.clone(), rc, ns) else {
                        return;
                    };
                    (ctx.notify_ready)(vec![ras_ref]);
                    // Register the callback with the local SSC.
                    let ssc_ref = ObjRef {
                        addr: Addr::new(ctx.rt.node(), ports::SSC),
                        incarnation: ObjRef::STABLE,
                        type_id: SscApiClient::TYPE_ID,
                        object_id: 0,
                    };
                    loop {
                        if let Ok(ssc) =
                            SscApiClient::attach(ClientCtx::new(ctx.rt.clone()), ssc_ref)
                        {
                            if ssc.register_callback(cb_ref).is_ok() {
                                break;
                            }
                        }
                        ctx.rt.sleep(Duration::from_secs(1));
                    }
                    park(&ctx.rt)
                }),
            });
        }

        // --- basic: database (server 0's disk) ----------------------------
        if i == 0 {
            let storage = Arc::clone(&storages[0]);
            defs.push(held("db", true, my_ns, true, move |rt| {
                let db = Db::new(Arc::clone(&storage) as Arc<dyn Storage>);
                let orb = Orb::new(rt.clone(), PortReq::Fixed(ports::DB)).ok()?;
                let obj = orb.export_root(Arc::new(DbApiServant(db)));
                orb.start();
                Some(vec![(names::DB.into(), obj)])
            }));
        }

        // --- basic: CSC replicas (VSR group) on the first three servers ----
        // The controllers' placement/config table rides the shared VSR
        // log: up to three replicas (deduped on small clusters), all on
        // the CSC port. The group master advertises itself at `svc/csc`
        // from inside `Csc::run`, as the CM groups below do.
        let csc_peers: Vec<Addr> = {
            let mut nodes = Vec::new();
            for k in 0..3 {
                let nd = ns_peers[k % ns_peers.len()].node;
                if !nodes.contains(&nd) {
                    nodes.push(nd);
                }
            }
            nodes
                .into_iter()
                .map(|nd| Addr::new(nd, ports::CSC))
                .collect()
        };
        if csc_peers.iter().any(|p| p.node == ns_peers[i].node) {
            let bind_retry = cfg.bind_retry;
            let started = Arc::clone(started);
            defs.push(ServiceDef {
                name: "csc".into(),
                basic: true,
                factory: Arc::new(move |ctx: ServiceRunCtx| {
                    let Some(id) = csc_peers.iter().position(|p| p.node == ctx.rt.node()) else {
                        return; // Started on a node outside the group.
                    };
                    let ns = NsHandle::new(ClientCtx::new(ctx.rt.clone()), my_ns);
                    let cc = CscConfig {
                        bind_retry,
                        replica: Some(SscReplicaConfig::paper_defaults(
                            id as u32,
                            csc_peers.clone(),
                        )),
                    };
                    let csc = Csc::new(ctx.rt.clone(), cc, ns);
                    started.lock().csc = Arc::downgrade(&csc);
                    let notify = ctx.notify_ready.clone();
                    let _ = csc.run(move |objs| notify(objs));
                }),
            });
        }

        // --- placed: settop manager ---------------------------------------
        defs.push(held("settop-mgr", false, my_ns, true, |rt| {
            let (_mgr, obj) = SettopMgr::start(rt.clone()).ok()?;
            Some(vec![(names::SETTOP_MGR.into(), obj)])
        }));

        // --- placed: MDS ----------------------------------------------------
        {
            let catalog = catalog.clone();
            let started = Arc::clone(started);
            defs.push(held("mds", false, my_ns, false, move |rt| {
                let (mds, bound) = serve_mds(rt, catalog.clone(), ClusterConfig::MDS_MAX_STREAMS)?;
                started.lock().mds = Arc::downgrade(&mds);
                // Report load for dynamic selectors.
                let ns = NsHandle::new(ClientCtx::new(rt.clone()), my_ns);
                let (path, rt2) = (bound[0].0.clone(), rt.clone());
                rt.spawn_fn("mds-load", move || loop {
                    rt2.sleep(Duration::from_secs(5));
                    let _ = ns.report_load(&path, mds.open_count());
                });
                Some(bound)
            }));
        }

        // --- placed: MMS -----------------------------------------------------
        {
            let catalog = catalog.clone();
            let nbhd_of = Arc::clone(nbhd_of);
            let bind_retry = cfg.bind_retry;
            let ras_poll = cfg.mms_ras_poll;
            let started = Arc::clone(started);
            defs.push(ServiceDef {
                name: "mms".into(),
                basic: false,
                factory: Arc::new(move |ctx: ServiceRunCtx| {
                    let ns = NsHandle::new(ClientCtx::new(ctx.rt.clone()), my_ns);
                    let mms = Mms::new(
                        ctx.rt.clone(),
                        ns,
                        MmsConfig {
                            bind_retry,
                            ras_poll,
                            reassert_interval: Duration::from_secs(5),
                            nbhd_of: Arc::clone(&nbhd_of),
                        },
                        catalog.clone(),
                    );
                    started.lock().mms = Arc::downgrade(&mms);
                    let notify = ctx.notify_ready.clone();
                    let _ = mms.run(move |objs| notify(objs));
                }),
            });
        }

        // --- placed: per-neighborhood CM and RDS ------------------------------
        for n in 0..cfg.neighborhoods() {
            let bind_retry = cfg.bind_retry;
            let started = Arc::clone(started);
            // The replica group mirrors the placement table: home server
            // first, then the next two (deduped on small clusters), all
            // on the neighborhood's CM port.
            let cm_peers: Vec<Addr> = {
                let home = (n % cfg.servers as u32) as usize;
                let mut nodes = Vec::new();
                for k in 0..3 {
                    let nd = ns_peers[(home + k) % ns_peers.len()].node;
                    if !nodes.contains(&nd) {
                        nodes.push(nd);
                    }
                }
                nodes
                    .into_iter()
                    .map(|nd| Addr::new(nd, ports::CMGR + n as u16))
                    .collect()
            };
            defs.push(ServiceDef {
                name: format!("cmgr-{n}"),
                basic: false,
                factory: Arc::new(move |ctx: ServiceRunCtx| {
                    let Some(id) = cm_peers.iter().position(|p| p.node == ctx.rt.node()) else {
                        return; // Placed on a node outside the group.
                    };
                    // Lease = 4x the MMS reassert interval (5 s): a lost
                    // release or a dead owner frees its bandwidth within
                    // 20 s instead of pinning the settop's budget forever.
                    // The lease table is VSR-replicated across the group,
                    // so a fail-over inherits the admission state instead
                    // of waiting for reassertion.
                    let rc = CmReplicaConfig::paper_defaults(
                        id as u32,
                        cm_peers.clone(),
                        CmBudgets::default(),
                    );
                    let Ok(rep) = CmReplica::start(ctx.rt.clone(), rc) else {
                        return; // Port busy (stale instance); die and retry.
                    };
                    started.lock().cm.insert(n, Arc::downgrade(&rep));
                    let obj = rep.root_ref();
                    (ctx.notify_ready)(vec![obj]);
                    let ns = NsHandle::new(ClientCtx::new(ctx.rt.clone()), my_ns);
                    // The group master holds the name, not the winner of
                    // a bind race: the binding is a stable reference,
                    // which the NS audit skips, so a dead master's is
                    // never audited away — the current master must
                    // rewrite it. Backups forward ops to the primary, so
                    // a binding that trails a view change keeps working
                    // as long as it points at a live replica.
                    let path = format!("{}/{n}", names::CMGR);
                    advertise(&ns, &path, obj, bind_retry, true, move || rep.is_master());
                    park(&ctx.rt)
                }),
            });
            let catalog = catalog.clone();
            defs.push(held(format!("rds-{n}"), false, my_ns, false, move |rt| {
                let obj = Rds::new(catalog.clone())
                    .serve(rt.clone(), ports::RDS + n as u16)
                    .ok()?;
                Some(vec![(format!("{}/{n}", names::RDS), obj)])
            }));
        }

        // --- placed: shop -----------------------------------------------------
        defs.push(held("shop", false, my_ns, false, |rt| {
            let shop = ShopSvc::new(rt.clone(), Duration::from_millis(2));
            let obj = shop.serve(rt.clone(), ports::SHOP).ok()?;
            Some(vec![(format!("{}/{}", names::SHOP, rt.node().0), obj)])
        }));

        // --- placed: KBS -------------------------------------------------------
        {
            let bind_retry = cfg.bind_retry;
            defs.push(ServiceDef {
                name: "kbs".into(),
                basic: false,
                factory: Arc::new(move |ctx: ServiceRunCtx| {
                    let kbs = KernelSvc::new(ClusterConfig::KERNEL_SIZE);
                    let Ok(obj) = kbs.serve(ctx.rt.clone(), ports::KBS) else {
                        return;
                    };
                    (ctx.notify_ready)(vec![obj]);
                    let ns = NsHandle::new(ClientCtx::new(ctx.rt.clone()), my_ns);
                    acquire_primary(&ns, &ctx.rt, names::KBS, obj, bind_retry);
                    park(&ctx.rt)
                }),
            });
        }

        // --- placed: boot broadcast (shared plans survive restarts) ------------
        {
            let boot_svc = Arc::clone(boot_svc);
            defs.push(held("boot", false, my_ns, true, move |rt| {
                let obj = boot_svc.serve(rt.clone(), ports::BOOT).ok()?;
                Some(vec![(names::BOOT.into(), obj)])
            }));
        }

        // --- placed: file service -----------------------------------------------
        // The FileSystemContext root goes into the global space (a
        // remotely implemented context, §4.3).
        defs.push(held("file", false, my_ns, true, |rt| {
            let (_svc, root_ref, create_ref) = FileSvc::serve(rt.clone(), ports::FILE).ok()?;
            Some(vec![
                ("fs".into(), root_ref),
                (names::FILE.into(), create_ref),
            ])
        }));

        defs
    }

    /// Starts (or restarts, after a reboot) server `i`'s SSC — the
    /// "init" step of §6.3.
    pub fn start_ssc(&self, i: usize) {
        let server = &self.servers[i];
        let ns = NsHandle::new(
            ClientCtx::new(server.node.clone()),
            self.ns_peers[server.replica_id as usize],
        );
        let ssc = Ssc::start(
            server.node.clone(),
            SscConfig::default(),
            ns,
            server.registry.clone(),
        )
        .expect("ssc start");
        *server.ssc.lock() = Some(ssc);
    }

    /// Spawns the one-time namespace bootstrap: creates the `svc`
    /// context and the replicated contexts with their selectors.
    fn spawn_namespace_setup(&self) {
        let node = self.servers[0].node.clone();
        let ns = NsHandle::new(ClientCtx::new(node.clone()), self.ns_peers[0]);
        let nbhd_map: BTreeMap<NodeId, u32> = self.nbhd_of.as_ref().clone();
        let spawner = node.clone();
        spawner.spawn_fn("cluster-setup", move || {
            // Wait for a name-service master.
            loop {
                match ns.bind_new_context("svc") {
                    Ok(_) => break,
                    Err(NsError::AlreadyBound { .. }) => break,
                    Err(_) => node.sleep(Duration::from_secs(1)),
                }
            }
            let mk = |path: &str, sel: SelectorSpec| loop {
                match ns.bind_repl_context(path, sel.clone()) {
                    Ok(_) | Err(NsError::AlreadyBound { .. }) => return,
                    Err(_) => node.sleep(Duration::from_secs(1)),
                }
            };
            mk(names::MDS, SelectorSpec::SameServer);
            mk(names::AUTH, SelectorSpec::SameServer);
            mk(
                names::RDS,
                SelectorSpec::Neighborhood {
                    map: nbhd_map.clone(),
                },
            );
            mk(names::SHOP, SelectorSpec::RoundRobin);
            loop {
                match ns.bind_new_context(names::CMGR) {
                    Ok(_) | Err(NsError::AlreadyBound { .. }) => break,
                    Err(_) => node.sleep(Duration::from_secs(1)),
                }
            }
        });
    }

    /// Boots all configured settops with the standard application set
    /// (navigator, VOD, shopping). Call after the cluster has had ~30 s
    /// to elect and place services.
    pub fn boot_settops(&mut self) {
        let bbs_addr = Addr::new(self.servers[0].node.node(), ports::BOOT);
        let nodes = self.settop_nodes.clone();
        for node in nodes {
            let intent = Arc::new(Mutex::new(Intent::default()));
            let apps = standard_apps(Arc::clone(&intent));
            let handle = Settop::boot(node.clone(), SettopBootInfo { bbs_addr }, apps);
            let neighborhood = *self.nbhd_of.get(&node.node()).unwrap_or(&0);
            self.settops.push(SettopCtl {
                node,
                handle,
                neighborhood,
                intent,
            });
        }
    }

    /// A name-service handle through replica `i`, for tests/drivers.
    pub fn ns(&self, i: usize) -> NsHandle {
        NsHandle::new(
            ClientCtx::new(self.servers[i].node.clone()),
            self.ns_peers[i],
        )
    }

    /// Crashes a server machine (journalled under `fault`, as every
    /// injected fault is).
    pub fn crash_server(&self, i: usize) {
        FaultAction::CrashNode(self.servers[i].node.node()).apply(&self.sim);
    }

    /// Restarts a crashed server: node up, then "init" starts the SSC,
    /// which starts the basic services; the CSC re-places the rest.
    pub fn restart_server(&self, i: usize) {
        FaultAction::RestartNode(self.servers[i].node.node()).apply(&self.sim);
        self.start_ssc(i);
    }

    /// Stops a single service on a server (operator action / crash
    /// injection at service granularity).
    pub fn kill_service(&self, server: usize, name: &str) {
        let ssc_ref = {
            let guard = self.servers[server].ssc.lock();
            guard.as_ref().map(|s| s.self_ref())
        };
        let Some(ssc_ref) = ssc_ref else { return };
        let node = self.servers[server].node.clone();
        let name = name.to_string();
        node.clone().spawn_fn("kill-service", move || {
            if let Ok(ssc) = SscApiClient::attach(ClientCtx::new(node.clone()), ssc_ref) {
                let _ = ssc.stop_service(name);
            }
        });
    }

    /// Aggregate settop metrics snapshot (sums across settops).
    pub fn settop_totals(&self) -> SettopTotals {
        let mut t = SettopTotals::default();
        for s in &self.settops {
            let m = &s.handle.metrics;
            t.booted += (m.booted_at_us.get() > 0) as u64;
            t.app_downloads += m.app_downloads.get();
            t.movies_opened += m.movies_opened.get();
            t.movie_failures += m.movie_failures.get();
            t.stalls += m.stalls.get();
            t.segments += m.segments.get();
            t.interactions += m.interactions.get();
            t.interruption_us += m.interruption_us.get();
        }
        t
    }
}

/// Sums of settop metrics across the cluster.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SettopTotals {
    /// Settops fully booted.
    pub booted: u64,
    /// Application downloads completed.
    pub app_downloads: u64,
    /// Movies opened.
    pub movies_opened: u64,
    /// Movie-open failures.
    pub movie_failures: u64,
    /// Stream stalls.
    pub stalls: u64,
    /// Segments received.
    pub segments: u64,
    /// Shopping interactions.
    pub interactions: u64,
    /// Total playback interruption, µs.
    pub interruption_us: u64,
}

/// The standard settop application set.
pub fn standard_apps(intent: Arc<Mutex<Intent>>) -> Vec<AppSlot> {
    let vod_intent = Arc::clone(&intent);
    let shop_intent = intent;
    vec![
        AppSlot {
            channel: ClusterConfig::CHANNEL_NAVIGATOR,
            binary: "navigator".into(),
            main: Arc::new(|ctx: &AppCtx| {
                itv_settop::run_navigator(ctx);
                true
            }),
        },
        AppSlot {
            channel: ClusterConfig::CHANNEL_VOD,
            binary: "vod".into(),
            main: Arc::new(move |ctx: &AppCtx| {
                let (title, watch_ms) = {
                    let i = vod_intent.lock();
                    (i.title.clone(), i.watch_ms)
                };
                itv_settop::run_vod(ctx, &title, watch_ms).completed
            }),
        },
        AppSlot {
            channel: ClusterConfig::CHANNEL_SHOP,
            binary: "shop".into(),
            main: Arc::new(move |ctx: &AppCtx| {
                let (n, think) = {
                    let i = shop_intent.lock();
                    (i.interactions, i.think)
                };
                itv_settop::run_shopping(ctx, n, think);
                true
            }),
        },
    ]
}

/// Parks a service's root process forever (its ORB and loops run in the
/// same group).
pub(crate) fn park(rt: &Rt) {
    loop {
        rt.sleep(Duration::from_secs(3600));
    }
}

/// The names a started service instance holds: `(path, object)`.
pub(crate) type Names = Vec<(String, ObjRef)>;

/// A service "binary" of the shape most have. `serve` exports the
/// service on the node and says which names it holds (`None`: the port
/// is still held by a stale instance — die and let the SSC retry); the
/// SSC is told, and the root process holds the names until killed.
fn held(
    name: impl Into<String>,
    basic: bool,
    my_ns: Addr,
    create_parents: bool,
    serve: impl Fn(&Rt) -> Option<Names> + Send + Sync + 'static,
) -> ServiceDef {
    ServiceDef {
        name: name.into(),
        basic,
        factory: Arc::new(move |ctx: ServiceRunCtx| {
            let Some(names) = serve(&ctx.rt) else {
                return;
            };
            (ctx.notify_ready)(names.iter().map(|(_, obj)| *obj).collect());
            hold(&ctx.rt, my_ns, names, create_parents)
        }),
    }
}

/// Keeps `names` bound through the replica at `my_ns` for as long as the
/// calling process group lives. `create_parents` as for [`advertise`]:
/// off for children of the replicated contexts the set-up process makes.
pub(crate) fn hold(rt: &Rt, my_ns: Addr, names: Names, create_parents: bool) {
    let ns = NsHandle::new(ClientCtx::new(rt.clone()), my_ns);
    for (path, obj) in names {
        advertise(&ns, &path, obj, ADVERTISE_EVERY, create_parents, || true);
    }
    park(rt)
}

/// Starts an MDS on `rt`'s node; it holds `svc/mds/<node>`.
pub(crate) fn serve_mds(rt: &Rt, catalog: Catalog, max_streams: u32) -> Option<(Arc<Mds>, Names)> {
    let (mds, obj) = Mds::serve(rt.clone(), ports::MDS, catalog, max_streams).ok()?;
    Some((mds, vec![(format!("{}/{}", names::MDS, rt.node().0), obj)]))
}
