//! The Media Management Service (§3.3, §3.4.4): the orchestrator of
//! movie playback. `open` chooses an MDS replica "based on where the
//! movie is available and the current loads at servers", allocates the
//! network path through the caller's neighborhood Connection Manager,
//! opens the movie on the MDS, and returns the movie object; the MMS
//! then polls the RAS about the settop and reclaims everything if it
//! dies (§3.5.1).
//!
//! Availability: primary/backup via the §5.2 bind race. The MMS keeps
//! only *volatile* state — on promotion the new primary "recreates its
//! state by querying each MDS in the cluster" (§10.1.1) and re-asserts
//! connection allocations with the Connection Managers.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

use ocs_name::{acquire_primary, NsHandle};
use ocs_orb::{declare_interface, Caller, ClientCtx, ObjRef, Orb};
use ocs_ras::RasMonitor;
use ocs_sim::{Addr, NodeId, NodeRtExt, PortReq, Rt, SimTime};
use parking_lot::Mutex;

use crate::cmgr::CmApiClient;
use crate::content::Catalog;
use crate::mds::MdsApiClient;
use crate::types::{ports, ConnDesc, MediaError, MovieTicket};

declare_interface! {
    /// The Media Management Service interface.
    pub interface MmsApi [MmsApiClient, MmsApiServant]: "itv.mms" {
        /// Open a movie for the calling settop, starting paused at
        /// `resume_ms` (§10.1.1 playback-position recovery). The stream
        /// is delivered to the caller's stream port.
        1 => fn open(&self, title: String, resume_ms: u64) -> Result<MovieTicket, MediaError>;
        /// Close a session, releasing the MDS movie and the connection.
        2 => fn close(&self, session: u64) -> Result<(), MediaError>;
        /// Number of open sessions (diagnostics).
        3 => fn session_count(&self) -> Result<u32, MediaError>;
    }
}

/// MMS tuning knobs.
#[derive(Clone)]
pub struct MmsConfig {
    /// Request port.
    pub port: u16,
    /// Primary/backup bind path.
    pub bind_path: String,
    /// Replicated context listing the MDS replicas.
    pub mds_ctx: String,
    /// Prefix of the per-neighborhood Connection Managers.
    pub cmgr_prefix: String,
    /// Bind retry interval while backup (§9.7: 10 s).
    pub bind_retry: Duration,
    /// RAS poll interval for settop liveness ("the MMS periodically
    /// polls the RAS", §3.4.4; §9.7 uses 10 s).
    pub ras_poll: Duration,
    /// Interval at which connection allocations are re-asserted to the
    /// CMs (heals CM fail-over).
    pub reassert_interval: Duration,
    /// Settop → neighborhood map (the §5.1 static routing input).
    pub nbhd_of: Arc<BTreeMap<NodeId, u32>>,
}

struct MmsSession {
    /// The settop holding the session (kept for diagnostics and the
    /// death-callback path, which identifies sessions by id).
    #[allow(dead_code)]
    settop: NodeId,
    #[allow(dead_code)]
    title: String,
    movie: ObjRef,
    mds_node: NodeId,
    conn: ConnDesc,
    nbhd: u32,
}

/// The Media Management Service.
pub struct Mms {
    rt: Rt,
    ns: NsHandle,
    cfg: MmsConfig,
    catalog: Catalog,
    sessions: Mutex<HashMap<u64, MmsSession>>,
    monitor: Arc<RasMonitor>,
    /// Weak self-reference so servant methods (`&self`) can hand the
    /// death callbacks something upgradeable.
    self_weak: Mutex<Option<std::sync::Weak<Mms>>>,
}

impl Mms {
    /// Creates the MMS (does not bind or serve yet; see [`Mms::run`]).
    pub fn new(rt: Rt, ns: NsHandle, cfg: MmsConfig, catalog: Catalog) -> Arc<Mms> {
        let monitor = RasMonitor::start(rt.clone(), Addr::new(rt.node(), ports::RAS), cfg.ras_poll);
        let mms = Arc::new(Mms {
            rt,
            ns,
            cfg,
            catalog,
            sessions: Mutex::new(HashMap::new()),
            monitor,
            self_weak: Mutex::new(None),
        });
        *mms.self_weak.lock() = Some(Arc::downgrade(&mms));
        mms
    }

    /// Service main: export, race for primacy, recover state from the
    /// MDS replicas, then serve until killed.
    pub fn run(self: &Arc<Self>, notify_ready: impl Fn(Vec<ObjRef>)) -> Result<(), MediaError> {
        let orb = Orb::new(self.rt.clone(), PortReq::Fixed(self.cfg.port)).map_err(|e| {
            MediaError::Dependency {
                what: e.to_string(),
            }
        })?;
        let self_ref = orb.export_root(Arc::new(MmsApiServant(Arc::clone(self))));
        orb.start();
        notify_ready(vec![self_ref]);
        acquire_primary(
            &self.ns,
            &self.rt,
            &self.cfg.bind_path,
            self_ref,
            self.cfg.bind_retry,
        );
        self.rt.trace("mms: promoted to primary");
        self.recover_state();
        // Periodic reassertion of connections (also heals CM fail-over).
        let mms = Arc::clone(self);
        self.rt.spawn_fn("mms-reassert", move || loop {
            mms.rt.sleep(mms.cfg.reassert_interval);
            mms.reassert_all();
            mms.audit_sessions();
        });
        // This process parks; the ORB serves. If it is killed, the whole
        // group (including the ORB) dies with it.
        loop {
            self.rt.sleep(Duration::from_secs(3600));
        }
    }

    /// All known MDS replicas `(node, client)`. A `deadline` threads the
    /// caller's remaining budget into every status/open call on the
    /// replicas, so a slow candidate can't eat the whole budget.
    fn mds_replicas(&self, deadline: Option<SimTime>) -> Vec<(NodeId, MdsApiClient)> {
        let Ok(bindings) = self.ns.list_repl(&self.cfg.mds_ctx) else {
            return Vec::new();
        };
        bindings
            .into_iter()
            .filter_map(|b| {
                let mut ctx =
                    ClientCtx::new(self.rt.clone()).with_timeout(Duration::from_millis(1500));
                if let Some(d) = deadline {
                    ctx = ctx.with_deadline(d);
                }
                MdsApiClient::attach(ctx, b.obj)
                    .ok()
                    .map(|c| (b.obj.addr.node, c))
            })
            .collect()
    }

    fn cmgr_for(&self, nbhd: u32, deadline: Option<SimTime>) -> Result<CmApiClient, MediaError> {
        let path = format!("{}/{}", self.cfg.cmgr_prefix, nbhd);
        let dep = |e: &dyn std::fmt::Display| MediaError::Dependency {
            what: e.to_string(),
        };
        match deadline {
            None => self.ns.resolve_as::<CmApiClient>(&path).map_err(|e| dep(&e)),
            Some(d) => {
                let obj = self.ns.resolve(&path).map_err(|e| dep(&e))?;
                let ctx = ClientCtx::new(self.rt.clone()).with_deadline(d);
                CmApiClient::attach(ctx, obj).map_err(|e| dep(&e))
            }
        }
    }

    /// §10.1.1: rebuild the session table by querying every MDS replica,
    /// then re-allocate the connections those streams need.
    fn recover_state(self: &Arc<Self>) {
        let mut recovered = 0u32;
        for (node, mds) in self.mds_replicas(None) {
            let Ok(open) = mds.open_sessions() else {
                continue;
            };
            for s in open {
                let settop = s.dest.node;
                let Some(nbhd) = self.cfg.nbhd_of.get(&settop).copied() else {
                    continue;
                };
                let Some(info) = self.catalog.movie(&s.title) else {
                    continue;
                };
                let session = self.rt.rand_u64();
                let conn = ConnDesc {
                    conn: self.rt.rand_u64(),
                    settop,
                    server: node,
                    down_bps: info.bitrate_bps,
                };
                if let Ok(cm) = self.cmgr_for(nbhd, None) {
                    let _ = cm.reassert(conn);
                }
                // The movie object lives on the MDS's current
                // incarnation (which the replica binding carries).
                let movie = ObjRef {
                    addr: Addr::new(node, ports::MDS),
                    incarnation: ocs_orb::Proxy::target_ref(&mds).incarnation,
                    type_id: ocs_wire::type_id_of("itv.movie"),
                    object_id: s.object_id,
                };
                self.watch_settop(session, settop);
                self.sessions.lock().insert(
                    session,
                    MmsSession {
                        settop,
                        title: s.title,
                        movie,
                        mds_node: node,
                        conn,
                        nbhd,
                    },
                );
                recovered += 1;
            }
        }
        if recovered > 0 {
            self.rt.trace(&format!(
                "mms: recovered {recovered} sessions from MDS replicas"
            ));
        }
    }

    fn reassert_all(&self) {
        let mut conns: Vec<(u32, ConnDesc)> = {
            let sessions = self.sessions.lock();
            sessions.values().map(|s| (s.nbhd, s.conn)).collect()
        };
        // Reassert in a fixed order: the session map's iteration order
        // is not deterministic, and RPC order shapes the event trace.
        conns.sort_by_key(|(nbhd, c)| (*nbhd, c.conn));
        for (nbhd, conn) in conns {
            if let Ok(cm) = self.cmgr_for(nbhd, None) {
                let _ = cm.reassert(conn);
            }
        }
    }

    /// Drops sessions whose MDS no longer has the movie open. Such a
    /// session is an orphan: the settop closed it through a different
    /// MMS incarnation (a false-positive fail-over promoted a backup
    /// that §10.1.1-recovered the session, while the close went to the
    /// settop's cached binding on the old primary), or the MDS restarted
    /// and lost the stream. Positive evidence only — an unreachable MDS
    /// drops nothing, so a partition cannot fake a close.
    fn audit_sessions(&self) {
        let by_mds: Vec<(NodeId, Vec<(u64, u64)>)> = {
            let sessions = self.sessions.lock();
            let mut m: BTreeMap<NodeId, Vec<(u64, u64)>> = BTreeMap::new();
            for (id, s) in sessions.iter() {
                m.entry(s.mds_node)
                    .or_default()
                    .push((*id, s.movie.object_id));
            }
            m.into_iter()
                .map(|(n, mut v)| {
                    v.sort_unstable();
                    (n, v)
                })
                .collect()
        };
        if by_mds.is_empty() {
            return;
        }
        let replicas = self.mds_replicas(None);
        for (node, sess) in by_mds {
            let Some((_, mds)) = replicas.iter().find(|(n, _)| *n == node) else {
                continue;
            };
            let Ok(open) = mds.open_sessions() else {
                continue;
            };
            for (id, obj) in sess {
                if !open.iter().any(|o| o.object_id == obj) {
                    self.rt.trace(&format!(
                        "mms: session {id} gone at its mds; reclaiming"
                    ));
                    let _ = self.close_session(id);
                }
            }
        }
    }

    fn watch_settop(self: &Arc<Self>, session: u64, settop: NodeId) {
        let mms = Arc::downgrade(self);
        self.monitor.watch_settop(
            settop,
            Box::new(move || {
                if let Some(mms) = mms.upgrade() {
                    mms.rt.trace(&format!(
                        "mms: settop {settop} died; reclaiming session {session}"
                    ));
                    let _ = mms.close_session(session);
                }
            }),
        );
    }

    fn close_session(&self, session: u64) -> Result<(), MediaError> {
        let s = self
            .sessions
            .lock()
            .remove(&session)
            .ok_or(MediaError::UnknownSession { id: session })?;
        let tel = ocs_telemetry::NodeTelemetry::of(&*self.rt);
        tel.registry.counter("mms.closed").inc();
        tel.registry
            .gauge("mms.sessions")
            .set(self.sessions.lock().len() as i64);
        // Tell the MDS to deallocate movie resources...
        if let Ok(bindings) = self.ns.list_repl(&self.cfg.mds_ctx) {
            for b in bindings {
                if b.obj.addr.node == s.mds_node {
                    let ctx =
                        ClientCtx::new(self.rt.clone()).with_timeout(Duration::from_millis(1500));
                    if let Ok(mds) = MdsApiClient::attach(ctx, b.obj) {
                        let _ = mds.close(s.movie.object_id);
                    }
                }
            }
        }
        // ...and the connection manager to deallocate bandwidth (§3.4.5).
        if let Ok(cm) = self.cmgr_for(s.nbhd, None) {
            let _ = cm.release(s.conn.conn);
        }
        Ok(())
    }
}

impl MmsApi for Mms {
    fn open(
        &self,
        caller: &Caller,
        title: String,
        resume_ms: u64,
    ) -> Result<MovieTicket, MediaError> {
        let tel = ocs_telemetry::NodeTelemetry::of(&*self.rt);
        tel.registry.counter("mms.open.requests").inc();
        let settop = caller.node;
        let nbhd = self
            .cfg
            .nbhd_of
            .get(&settop)
            .copied()
            .ok_or(MediaError::NoReplica)?;
        let info = self
            .catalog
            .movie(&title)
            .ok_or_else(|| MediaError::NotFound {
                title: title.clone(),
            })?;
        // One end-to-end budget for the whole open: MDS status probes,
        // the connection allocation, and the movie open all share it, so
        // a slow first step shrinks what the rest may spend and a settop
        // that has already given up never ties down a stream slot.
        let budget = self.rt.now() + Duration::from_millis(2500);
        // Candidate MDS replicas: those storing the title, least loaded
        // first ("based on where the movie is available and the current
        // loads at servers", §3.4.4).
        let mut candidates: Vec<(u32, NodeId, MdsApiClient)> = Vec::new();
        for (node, mds) in self.mds_replicas(Some(budget)) {
            if !info.replicas.contains(&node) {
                continue;
            }
            let Ok(status) = mds.status() else {
                continue; // Dead or restarting replica; skip (§3.5.2).
            };
            if status.open_streams >= status.max_streams {
                continue;
            }
            candidates.push((status.open_streams, node, mds));
        }
        candidates.sort_by_key(|(load, node, _)| (*load, node.0));
        if candidates.is_empty() {
            return Err(MediaError::NoReplica);
        }
        let cm = self.cmgr_for(nbhd, Some(budget))?;
        let dest = Addr::new(settop, ports::SETTOP_STREAM);
        let mut last_err = MediaError::NoReplica;
        for (_, node, mds) in candidates {
            // Allocate bandwidth, then open; undo allocation on failure.
            // The retry token makes the allocation idempotent: if the CM
            // primary dies after committing but before replying, the
            // ORB-level retry (or a re-driven open) with the same token
            // gets the original grant instead of double-reserving.
            let token = self.rt.rand_u64().max(1);
            let conn_id = cm.allocate(token, settop, node, info.bitrate_bps)?;
            match mds.open(title.clone(), dest, resume_ms) {
                Ok(movie) => {
                    let session = self.rt.rand_u64();
                    let conn = ConnDesc {
                        conn: conn_id,
                        settop,
                        server: node,
                        down_bps: info.bitrate_bps,
                    };
                    // Safety net for settop crashes (§3.5.1).
                    // `self` is inside an Arc (constructed in `new`);
                    // re-wrap through the sessions table path.
                    self.sessions.lock().insert(
                        session,
                        MmsSession {
                            settop,
                            title: title.clone(),
                            movie,
                            mds_node: node,
                            conn,
                            nbhd,
                        },
                    );
                    self.watch_settop_ref(session, settop);
                    tel.registry.counter("mms.open.ok").inc();
                    tel.registry
                        .gauge("mms.sessions")
                        .set(self.sessions.lock().len() as i64);
                    return Ok(MovieTicket {
                        session,
                        movie,
                        conn: conn_id,
                        mds_node: node,
                    });
                }
                Err(e) => {
                    let _ = cm.release(conn_id);
                    last_err = e;
                }
            }
        }
        Err(last_err)
    }

    fn close(&self, _caller: &Caller, session: u64) -> Result<(), MediaError> {
        // The one-shot settop watch may remain; if it later fires, the
        // session is already gone and the reclaim is a no-op.
        self.close_session(session)
    }

    fn session_count(&self, _caller: &Caller) -> Result<u32, MediaError> {
        Ok(self.sessions.lock().len() as u32)
    }
}

impl Mms {
    /// Watch helper callable from `&self` servant methods (uses the weak
    /// self-reference; the callback must not keep the MMS alive).
    fn watch_settop_ref(&self, session: u64, settop: NodeId) {
        let weak = self.self_weak.lock().clone();
        let rt = self.rt.clone();
        self.monitor.watch_settop(
            settop,
            Box::new(move || {
                if let Some(mms) = weak.and_then(|w| w.upgrade()) {
                    rt.trace(&format!(
                        "mms: settop {settop} died; reclaiming session {session}"
                    ));
                    let _ = mms.close_session(session);
                }
            }),
        );
    }
}
