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
//!
//! Name lookups: the two things the MMS asks the name service — the
//! `svc/mds` replica set and the neighbourhood's Connection Manager —
//! come from the node's resolve cache (§8.2), so a warm `open` is the
//! paper's three calls (MDS `status`, CM `allocate`, MDS `open`) and a
//! `close` its two (MDS `close`, CM `release`). A cached target that
//! turns out dead or silent is dropped and looked up again inside the
//! same operation, once.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use ocs_name::{acquire_primary, Binding, NsHandle, Origin};
use ocs_orb::{
    declare_interface, CallPort, Caller, ClientCtx, Gather, ObjRef, OpName, Orb, OrbError,
    RpcFault,
};
use ocs_ras::{EntityId, RasMonitor};
use ocs_sim::{Addr, Journal, NodeId, NodeRtExt, PortReq, Rt, SimTime};
use ocs_wire::Wire;
use parking_lot::Mutex;

use crate::cmgr::CmApiClient;
use crate::content::{Catalog, MovieInfo};
use crate::mds::{MdsApiClient, STATUS};
use crate::types::{names, ports, ConnDesc, MdsStatus, MediaError, MovieTicket};

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

/// MMS tuning knobs. It serves at [`ports::MMS`], races for
/// [`names::MMS`], and finds its MDS replicas under [`names::MDS`] and
/// its Connection Managers under [`names::CMGR`].
#[derive(Clone)]
pub struct MmsConfig {
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
    /// The settop holding the session; its death reclaims it (§3.5.1).
    settop: NodeId,
    /// The movie object; its address is the MDS replica serving it.
    movie: ObjRef,
    conn: ConnDesc,
    nbhd: u32,
}

/// The Media Management Service.
pub struct Mms {
    rt: Rt,
    ns: NsHandle,
    /// What every call on an MDS or a Connection Manager starts from
    /// (each adds its own timeout and deadline).
    ctx: ClientCtx,
    cfg: MmsConfig,
    catalog: Catalog,
    sessions: Mutex<HashMap<u64, MmsSession>>,
    monitor: Arc<RasMonitor>,
    /// Weak self-reference so servant methods (`&self`) can hand the
    /// death callbacks something upgradeable.
    self_weak: Mutex<Option<std::sync::Weak<Mms>>>,
    /// Session metric handles, resolved once: an open or a close looks
    /// no metric up by name.
    open_requests: Arc<ocs_telemetry::Counter>,
    open_ok: Arc<ocs_telemetry::Counter>,
    closed: Arc<ocs_telemetry::Counter>,
    sessions_gauge: Arc<ocs_telemetry::Gauge>,
}

impl Mms {
    /// Creates the MMS (does not bind or serve yet; see [`Mms::run`]).
    pub fn new(rt: Rt, ns: NsHandle, cfg: MmsConfig, catalog: Catalog) -> Arc<Mms> {
        let monitor = RasMonitor::start(rt.clone(), Addr::new(rt.node(), ports::RAS), cfg.ras_poll);
        let reg = &ocs_telemetry::NodeTelemetry::of(&*rt).registry;
        let mms = Arc::new(Mms {
            open_requests: reg.counter("mms.open.requests"),
            open_ok: reg.counter("mms.open.ok"),
            closed: reg.counter("mms.closed"),
            sessions_gauge: reg.gauge("mms.sessions"),
            ctx: ClientCtx::new(rt.clone()),
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
        let orb = Orb::new(self.rt.clone(), PortReq::Fixed(ports::MMS)).map_err(|e| {
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
            names::MMS,
            self_ref,
            self.cfg.bind_retry,
        );
        Journal::note(&*self.rt, "mms", "promoted to primary");
        self.recover_state();
        // Periodic reassertion of connections (also heals CM fail-over).
        let mms = Arc::clone(self);
        self.rt.spawn_fn("mms-reassert", move || loop {
            mms.rt.sleep(mms.cfg.reassert_interval);
            mms.reassert_all();
            // The replica set is listed afresh once a round: what bounds
            // its age on a node no name-service replica invalidates for.
            mms.ns.invalidate(names::MDS);
            mms.audit_sessions();
        });
        // This process parks; the ORB serves. If it is killed, the whole
        // group (including the ORB) dies with it.
        loop {
            self.rt.sleep(Duration::from_secs(3600));
        }
    }

    /// A context for calls on an MDS replica: a dead or restarting one
    /// costs 1.5 s, not the 3 s default — and never more than is left of
    /// the caller's `deadline`, so a slow candidate can't eat the whole
    /// budget.
    fn mds_ctx(&self, deadline: Option<SimTime>) -> ClientCtx {
        let ctx = self.ctx.clone().with_timeout(Duration::from_millis(1500));
        match deadline {
            Some(d) => ctx.with_deadline(d),
            None => ctx,
        }
    }

    /// The `svc/mds` replica set from the node's resolve cache, and
    /// whether the cache — not the name service, just now — supplied it.
    /// No answer is an empty set.
    fn mds_set(&self) -> (Arc<[Binding]>, bool) {
        match self.ns.cached::<Arc<[Binding]>>(names::MDS) {
            Ok((set, origin)) => (set, matches!(origin, Origin::Hit(_))),
            Err(_) => (Arc::from([]), false),
        }
    }

    /// All known MDS replicas `(node, client)`.
    fn mds_replicas(&self) -> Vec<(NodeId, MdsApiClient)> {
        self.mds_set()
            .0
            .iter()
            .filter_map(|b| {
                MdsApiClient::attach(self.mds_ctx(None), b.obj)
                    .ok()
                    .map(|c| (b.obj.addr.node, c))
            })
            .collect()
    }

    /// Asks every replica in `set` that stores the title for its status
    /// — all at once, so the probes cost one round trip and a silent
    /// replica one timeout however many there are — and returns the
    /// usable ones (answering, with a free stream slot), least loaded
    /// first: "based on where the movie is available and the current
    /// loads at servers" (§3.4.4). The flag says whether `set` itself is
    /// in doubt: a replica in it failed to answer, or none stores the
    /// title.
    fn probe(
        &self,
        set: &[Binding],
        info: &MovieInfo,
        budget: SimTime,
    ) -> (Vec<(u32, ObjRef)>, bool) {
        let storing: Vec<ObjRef> = set
            .iter()
            .map(|b| b.obj)
            .filter(|o| o.type_id == MdsApiClient::TYPE_ID && info.replicas.contains(&o.addr.node))
            .collect();
        if storing.is_empty() {
            return (Vec::new(), true);
        }
        let mut usable: Vec<(u32, ObjRef)> = Vec::new();
        let mut doubt = false;
        // A port per probe, under this open's budget; it closes with the
        // probe, and a reply that comes later bounces.
        let Ok(port) = CallPort::<()>::open(self.mds_ctx(Some(budget)), Box::new(|_, _| {})) else {
            return (usable, true);
        };
        let op = OpName::from(STATUS.1);
        port.gather(&storing, STATUS.0, Bytes::new(), op, |i, reply| {
            let status = reply
                .ok()
                .and_then(|body| <Result<MdsStatus, MediaError>>::from_bytes(&body).ok())
                .and_then(Result::ok);
            match status {
                Some(st) if st.open_streams < st.max_streams => {
                    usable.push((st.open_streams, storing[i]));
                }
                // Full.
                Some(_) => {}
                // Dead or restarting replica, or the budget is already
                // spent; skip (§3.5.2).
                None => doubt = true,
            }
            Gather::More
        });
        usable.sort_by_key(|(load, obj)| (*load, obj.addr.node.0));
        (usable, doubt)
    }

    /// Runs `call` on the neighbourhood's Connection Manager, whose
    /// reference comes from the node's resolve cache. A cached reference
    /// that turns out dead or silent is dropped and — if a retry can
    /// help — looked up again, once: every CM call is idempotent
    /// (`allocate` by token, `reassert` and `release` by connection id),
    /// so the second attempt doubles nothing. `deadline` bounds both
    /// attempts together.
    fn with_cm<R>(
        &self,
        nbhd: u32,
        deadline: Option<SimTime>,
        call: impl Fn(&CmApiClient) -> Result<R, MediaError>,
    ) -> Result<R, MediaError> {
        let path = format!("{}/{nbhd}", names::CMGR);
        let dep = |e: &dyn std::fmt::Display| MediaError::Dependency {
            what: e.to_string(),
        };
        let mut retried = false;
        loop {
            let (obj, origin) = self.ns.cached::<ObjRef>(&path).map_err(|e| dep(&e))?;
            let mut ctx = self.ctx.clone();
            if let Some(d) = deadline {
                ctx = ctx.with_deadline(d);
            }
            let cm = CmApiClient::attach(ctx, obj).map_err(|e| dep(&e))?;
            let err = match call(&cm) {
                Err(e) if matches!(origin, Origin::Hit(_)) && target_in_doubt(&e) => e,
                r => return r,
            };
            self.ns.invalidate(&path);
            if retried || !retry_can_help(&err) {
                return Err(err);
            }
            retried = true;
        }
    }

    /// §10.1.1: rebuild the session table by querying every MDS replica,
    /// then re-allocate the connections those streams need.
    fn recover_state(&self) {
        let mut recovered = 0u32;
        for (node, mds) in self.mds_replicas() {
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
                let _ = self.with_cm(nbhd, None, |cm| cm.reassert(conn));
                // The movie object lives on the MDS's current
                // incarnation (which the replica binding carries).
                let movie = ObjRef {
                    addr: Addr::new(node, ports::MDS),
                    incarnation: ocs_orb::Proxy::target_ref(&mds).incarnation,
                    type_id: ocs_wire::type_id_of("itv.movie"),
                    object_id: s.object_id,
                };
                self.insert_session(
                    session,
                    MmsSession {
                        settop,
                        movie,
                        conn,
                        nbhd,
                    },
                );
                recovered += 1;
            }
        }
        if recovered > 0 {
            let line = format!("recovered {recovered} sessions from MDS replicas");
            Journal::note(&*self.rt, "mms", line);
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
            let _ = self.with_cm(nbhd, None, |cm| cm.reassert(conn));
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
                m.entry(s.movie.addr.node)
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
        let replicas = self.mds_replicas();
        for (node, sess) in by_mds {
            let Some((_, mds)) = replicas.iter().find(|(n, _)| *n == node) else {
                continue;
            };
            let Ok(open) = mds.open_sessions() else {
                continue;
            };
            for (id, obj) in sess {
                if !open.iter().any(|o| o.object_id == obj) {
                    let line = format!("session {id} gone at its mds; reclaiming");
                    Journal::note(&*self.rt, "mms", line);
                    let _ = self.close_session(id);
                }
            }
        }
    }

    /// Records a session and, if it is its settop's first, starts
    /// watching the settop: the safety net for settop crashes (§3.5.1).
    /// One watch per settop, however many sessions it holds.
    fn insert_session(&self, session: u64, s: MmsSession) {
        let settop = s.settop;
        // The sessions lock is held across the (un)watch so a last close
        // and a first open of one settop cannot cross.
        let mut sessions = self.sessions.lock();
        let first = !sessions.values().any(|o| o.settop == settop);
        sessions.insert(session, s);
        if first {
            let weak = self.self_weak.lock().clone();
            self.monitor.watch_settop(
                settop,
                Box::new(move || {
                    if let Some(mms) = weak.and_then(|w| w.upgrade()) {
                        mms.reclaim_settop(settop);
                    }
                }),
            );
        }
    }

    /// The settop died: closes every session it held.
    fn reclaim_settop(&self, settop: NodeId) {
        let mut held: Vec<u64> = {
            let sessions = self.sessions.lock();
            let of_settop = sessions.iter().filter(|(_, s)| s.settop == settop);
            of_settop.map(|(id, _)| *id).collect()
        };
        // Fixed order, as in `reassert_all`.
        held.sort_unstable();
        for session in held {
            let line = format!("settop {settop} died; reclaiming session {session}");
            Journal::note(&*self.rt, "mms", line);
            let _ = self.close_session(session);
        }
    }

    /// The settop of each session this instance holds, in ascending
    /// order (one entry per session).
    pub fn session_settops(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self.sessions.lock().values().map(|s| s.settop).collect();
        out.sort_unstable();
        out
    }

    /// Settops currently watched for death (diagnostics).
    pub fn watch_count(&self) -> usize {
        self.monitor.watch_count()
    }

    fn close_session(&self, session: u64) -> Result<(), MediaError> {
        let (s, left) = {
            let mut sessions = self.sessions.lock();
            let s = sessions
                .remove(&session)
                .ok_or(MediaError::UnknownSession { id: session })?;
            if !sessions.values().any(|o| o.settop == s.settop) {
                self.monitor.unwatch(&EntityId::Settop { node: s.settop });
            }
            (s, sessions.len())
        };
        self.closed.inc();
        self.sessions_gauge.set(left as i64);
        // Tell the MDS to deallocate movie resources: the replica the
        // movie lives on, at the incarnation that created it — both are
        // in the movie reference, so there is nothing to look up (and a
        // restarted MDS has nothing of this session's to deallocate).
        let mds_root = ObjRef {
            type_id: MdsApiClient::TYPE_ID,
            object_id: 0,
            ..s.movie
        };
        if let Ok(mds) = MdsApiClient::attach(self.mds_ctx(None), mds_root) {
            let _ = mds.close(s.movie.object_id);
        }
        // ...and the connection manager to deallocate bandwidth (§3.4.5).
        let _ = self.with_cm(s.nbhd, None, |cm| cm.release(s.conn.conn));
        Ok(())
    }
}

/// Whether a fresh reference could cure the failure: the one used is
/// dead, or the target stayed silent or out of reach (§8.2's rebind
/// trigger, plus what the ORB calls retryable).
fn retry_can_help(e: &MediaError) -> bool {
    e.is_dead_reference() || e.orb_error().is_some_and(|e| e.is_retryable())
}

/// Whether a failed call leaves its *target* in doubt rather than the
/// request — so that a cached reference to it may simply be out of
/// date: what a retry could cure, and a budget that ran out waiting.
fn target_in_doubt(e: &MediaError) -> bool {
    retry_can_help(e) || matches!(e.orb_error(), Some(OrbError::DeadlineExpired))
}

impl MmsApi for Mms {
    fn open(
        &self,
        caller: &Caller,
        title: String,
        resume_ms: u64,
    ) -> Result<MovieTicket, MediaError> {
        self.open_requests.inc();
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
        // Candidate MDS replicas: those storing the title and answering
        // a status probe with a free slot, least loaded first.
        let (set, mut from_cache) = self.mds_set();
        let (mut candidates, doubt) = self.probe(&set, &info, budget);
        if from_cache && doubt {
            // The cached set may simply be old. Drop it; and if it left
            // this open with nothing to try, list afresh — once.
            self.ns.invalidate(names::MDS);
            if candidates.is_empty() {
                from_cache = false;
                candidates = self.probe(&self.mds_set().0, &info, budget).0;
            }
        }
        let dest = Addr::new(settop, ports::SETTOP_STREAM);
        let mut last_err = MediaError::NoReplica;
        for (_, mds_ref) in candidates {
            let node = mds_ref.addr.node;
            let mds = MdsApiClient::attach(self.mds_ctx(Some(budget)), mds_ref)
                .map_err(|err| MediaError::Comm { err })?;
            // Allocate bandwidth, then open; undo allocation on failure.
            // The retry token makes the allocation idempotent: if the CM
            // primary dies after committing but before replying, the
            // ORB-level retry (or a re-driven open) with the same token
            // gets the original grant instead of double-reserving.
            let token = self.rt.rand_u64().max(1);
            let conn_id = self.with_cm(nbhd, Some(budget), |cm| {
                cm.allocate(token, settop, node, info.bitrate_bps)
            })?;
            match mds.open(title.clone(), dest, resume_ms) {
                Ok(movie) => {
                    let session = self.rt.rand_u64();
                    let conn = ConnDesc {
                        conn: conn_id,
                        settop,
                        server: node,
                        down_bps: info.bitrate_bps,
                    };
                    self.insert_session(
                        session,
                        MmsSession {
                            settop,
                            movie,
                            conn,
                            nbhd,
                        },
                    );
                    self.open_ok.inc();
                    self.sessions_gauge.set(self.sessions.lock().len() as i64);
                    return Ok(MovieTicket {
                        session,
                        movie,
                        conn: conn_id,
                        mds_node: node,
                    });
                }
                Err(e) => {
                    // The undo is owed whatever became of the open's
                    // budget — a spent one is the likeliest reason to be
                    // here — so it goes out under no deadline.
                    let _ = self.with_cm(nbhd, None, |cm| cm.release(conn_id));
                    if from_cache && target_in_doubt(&e) {
                        self.ns.invalidate(names::MDS);
                    }
                    last_err = e;
                }
            }
        }
        Err(last_err)
    }

    fn close(&self, _caller: &Caller, session: u64) -> Result<(), MediaError> {
        self.close_session(session)
    }

    fn session_count(&self, _caller: &Caller) -> Result<u32, MediaError> {
        Ok(self.sessions.lock().len() as u32)
    }
}
