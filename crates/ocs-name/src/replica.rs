//! One name-service replica (§4.6, rebuilt on Viewstamped
//! Replication).
//!
//! A replica runs on every server node. All replicas answer `resolve`
//! and `list` from local state; every mutation flows through the
//! VSR-replicated update log ([`ocs_vsr`]): the view primary
//! sequences it, broadcasts `prepare`, commits at a majority of acks
//! and applies committed updates in order. Backups forward client
//! updates to the primary. When backups stop hearing from the primary
//! they run a view change — sub-second with the deployed timeouts,
//! versus the ~25 s master re-election window the paper measured — and
//! a replica rejoining after a crash recovers by state transfer: log
//! replay while the peers still retain the missing suffix, snapshot
//! installation once compaction has dropped it.
//!
//! The replication itself — the message loop, view changes, recovery,
//! the peer protocol — is `ocs-vsr`'s [`Replica`] driver, the same one
//! the Connection Manager and the service controller run on. This
//! module is what is the name service's own: the configuration, the
//! [`Replicated`] hooks of [`NsState`] (resolve-cache invalidation and
//! context-servant export on commit), the resolve/list read paths and
//! the `NamingContext` servants.
//!
//! The primary also runs the §4.7 audit: every `audit_interval` it asks
//! the liveness oracle (in the full system, the local Resource Audit
//! Service) about every bound object and unbinds the dead ones — the
//! mechanism that breaks a failed primary's binding so that a §5.2
//! backup's retried `bind` can succeed.

use std::collections::HashSet;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

use ocs_orb::{Caller, ClientCtx, ObjRef};
use ocs_sim::{Addr, Journal, NetError, NodeId, NodeRtExt, Rt, Semaphore};
use ocs_telemetry::Counter;
use ocs_vsr::{Refusal, Replica, ReplicaConfig, Replicated, VsrEvent, VsrStatus};
use parking_lot::Mutex;

use crate::cache::ResolveCache;
use crate::iface::{
    NamingContext, NamingContextClient, NamingContextServant, SelectorClient, NAMING_TYPE_ID,
};
use crate::selector::eval_static;
use crate::state::{CtxId, NsState, ResolveOut, SelectorEval, ROOT_CTX};
use crate::types::{Binding, CommitPoint, NsError, NsUpdate, SelectorSpec};

/// Object ids of non-root context servants start here.
const CTX_OBJ_BASE: u64 = 16;

/// Deciding liveness of bound objects for the audit (§4.7). The real
/// oracle is the local Resource Audit Service; tests may plug anything.
pub trait LivenessOracle: Send + Sync {
    /// For each `(path, object)` pair, report whether it is alive.
    fn check(&self, objs: &[(String, ObjRef)]) -> Vec<bool>;
}

/// An oracle that never declares anything dead (auditing disabled).
pub struct AlwaysAlive;

impl LivenessOracle for AlwaysAlive {
    fn check(&self, objs: &[(String, ObjRef)]) -> Vec<bool> {
        vec![true; objs.len()]
    }
}

/// Configuration of a name-service replica group member.
#[derive(Clone, Debug)]
pub struct NsConfig {
    /// This replica's index into `peers`.
    pub replica_id: u32,
    /// The request endpoints of all replicas (including this one).
    pub peers: Vec<Addr>,
    /// Primary → backup heartbeat period.
    pub heartbeat_interval: Duration,
    /// Base primary-suspect timeout: how long a backup tolerates primary
    /// silence before proposing a view change. Each replica adds a small
    /// id-proportional stagger so one backup moves first.
    pub election_timeout: Duration,
    /// How often the primary audits bound objects against the liveness
    /// oracle (the paper's "name service polls RAS every 10 seconds").
    pub audit_interval: Duration,
    /// Timeout for replica-to-replica calls.
    pub peer_timeout: Duration,
    /// Modelled CPU cost of one resolve/list, serialized per replica.
    pub resolve_cost: Duration,
    /// Committed log entries retained past the commit point for peer
    /// catch-up; a replica further behind recovers by snapshot transfer.
    pub log_retention: u64,
}

impl NsConfig {
    /// The paper's deployed parameters (§9.7) for a replica group.
    pub fn paper_defaults(replica_id: u32, peers: Vec<Addr>) -> NsConfig {
        NsConfig::with_replication(ReplicaConfig::paper_defaults(replica_id, peers))
    }

    /// A member replicating under `r`, with the paper's audit interval
    /// and modelled resolve cost.
    pub fn with_replication(r: ReplicaConfig) -> NsConfig {
        NsConfig {
            replica_id: r.replica_id,
            peers: r.peers,
            heartbeat_interval: r.heartbeat_interval,
            election_timeout: r.election_timeout,
            audit_interval: Duration::from_secs(10),
            peer_timeout: r.peer_timeout,
            resolve_cost: Duration::from_micros(200),
            log_retention: r.log_retention,
        }
    }

    /// The replication parameters among these.
    fn replication(&self) -> ReplicaConfig {
        ReplicaConfig {
            replica_id: self.replica_id,
            peers: self.peers.clone(),
            heartbeat_interval: self.heartbeat_interval,
            election_timeout: self.election_timeout,
            peer_timeout: self.peer_timeout,
            log_retention: self.log_retention,
        }
    }
}

/// The naming state's driver-side companions: what a commit touches
/// besides the state itself.
pub struct NsCtx {
    /// The node-wide resolve cache; a commit invalidates the path it
    /// changes and the context that path sits in.
    cache: Arc<ResolveCache>,
    invalidations: Arc<Counter>,
    /// Committed `Unbind`s: the audit's removals and a keeper's
    /// displacements — none in an idle cluster.
    unbinds: Arc<Counter>,
    /// Context ids with an exported servant.
    exported: Mutex<HashSet<CtxId>>,
    /// The replica's service half, which context servants point at.
    /// Weak: the core owns the replica and the replica owns this.
    core: OnceLock<Weak<NsCore>>,
}

impl Replicated for NsState {
    const CHANNEL: &'static str = "ns-vsr";
    const PEER_INTERFACE: &'static str = "ocs.ns-peer";
    type Ctx = NsCtx;

    fn refused(why: Refusal) -> Result<(), NsError> {
        // Clients treat every failure to commit like a master outage:
        // their rebind library retries (§8.2).
        Err(match why {
            Refusal::Comm { err } => NsError::Comm { err },
            _ => NsError::NoMaster,
        })
    }

    /// Node-wide resolve-cache invalidation piggybacked on commit
    /// application — what keeps a client on a replica's node (the MMS's
    /// cached `svc/mds` set, its Connection Manager references) current
    /// without asking — and a servant for every context the step
    /// created.
    fn post_step(&mut self, ctx: &NsCtx, events: &[VsrEvent<NsUpdate>]) {
        let mut ctxs_changed = false;
        for ev in events {
            match ev {
                VsrEvent::Committed { update, .. } => {
                    let path = match update {
                        NsUpdate::Bind { path, .. }
                        | NsUpdate::Unbind { path }
                        | NsUpdate::NewContext { path }
                        | NsUpdate::NewReplContext { path, .. }
                        | NsUpdate::ReportLoad { path, .. } => path,
                    };
                    ctx.cache.invalidate_commit(path);
                    ctx.invalidations.inc();
                    if matches!(update, NsUpdate::Unbind { .. }) {
                        ctx.unbinds.inc();
                    }
                    ctxs_changed |= matches!(
                        update,
                        NsUpdate::NewContext { .. } | NsUpdate::NewReplContext { .. }
                    );
                }
                VsrEvent::CaughtUp { .. } => ctxs_changed = true,
                _ => {}
            }
        }
        if ctxs_changed {
            ctx.sync_exports(self);
        }
    }
}

impl NsCtx {
    /// Ensures a context servant is exported for every live context id.
    fn sync_exports(&self, state: &NsState) {
        let Some(core) = self.core.get().and_then(Weak::upgrade) else {
            return;
        };
        let Some(orb) = core.rep.orb() else {
            return;
        };
        let mut exported = self.exported.lock();
        for id in state.context_ids() {
            if id != ROOT_CTX && exported.insert(id) {
                orb.export_at(
                    CTX_OBJ_BASE + id,
                    Arc::new(NamingContextServant(Arc::new(CtxView {
                        core: Arc::clone(&core),
                        ctx: id,
                    }))),
                );
            }
        }
    }
}

/// The service half of a replica, shared by its servants and the audit
/// loop.
struct NsCore {
    rt: Rt,
    cfg: NsConfig,
    rep: Arc<Replica<NsState>>,
    rr: AtomicU64,
    cpu: Semaphore,
    oracle: Mutex<Arc<dyn LivenessOracle>>,
    resolves: Arc<Counter>,
    read_forwards: Arc<Counter>,
    audit_removed: Arc<Counter>,
}

/// A running name-service replica. Dereferences to its [`Replica`] for
/// what every group has: `view` (the VSR notion of the paper's election
/// epoch), `last_seq`, `is_master` (of the paper's "master"),
/// `in_probation`, `root_ref` (the root context: valid across replica
/// restarts — the paper's name-service exception to the
/// reference-lifetime rule, §3.2.1), `status`.
pub struct NsReplica {
    core: Arc<NsCore>,
}

impl Deref for NsReplica {
    type Target = Replica<NsState>;

    fn deref(&self) -> &Replica<NsState> {
        &self.core.rep
    }
}

impl NsReplica {
    /// Starts the group member — the root context is its root object —
    /// and spawns the audit process.
    pub fn start(
        rt: Rt,
        cfg: NsConfig,
        oracle: Arc<dyn LivenessOracle>,
    ) -> Result<Arc<NsReplica>, NetError> {
        let cpu = Semaphore::new(&rt, 1);
        let registry = &ocs_telemetry::NodeTelemetry::of(&*rt).registry;
        let ctx = NsCtx {
            cache: ResolveCache::of(&*rt),
            invalidations: registry.counter("ns.vsr.cache_invalidations"),
            unbinds: registry.counter("ns.vsr.unbinds"),
            exported: Mutex::new(HashSet::new()),
            core: OnceLock::new(),
        };
        let rep = Replica::new(rt.clone(), cfg.replication(), NsState::default(), ctx);
        let core = Arc::new(NsCore {
            rt: rt.clone(),
            cfg,
            rep: Arc::clone(&rep),
            rr: AtomicU64::new(0),
            cpu,
            oracle: Mutex::new(oracle),
            resolves: registry.counter("ns.server.resolves"),
            read_forwards: registry.counter("ns.vsr.read_forwards"),
            audit_removed: registry.counter("ns.server.audit_removed"),
        });
        let _ = rep.ctx().core.set(Arc::downgrade(&core));
        rep.start(Arc::new(NamingContextServant(Arc::new(CtxView {
            core: Arc::clone(&core),
            ctx: ROOT_CTX,
        }))))?;
        let c = Arc::clone(&core);
        rt.spawn_fn("ns-audit", move || c.audit_loop());
        Ok(Arc::new(NsReplica { core }))
    }

    /// Replaces the liveness oracle (wired to the local RAS at cluster
    /// start-up, after the RAS itself is running).
    pub fn set_oracle(&self, oracle: Arc<dyn LivenessOracle>) {
        *self.core.oracle.lock() = oracle;
    }
}

impl NsCore {
    fn ctx_objref(&self, ctx: CtxId) -> ObjRef {
        let object_id = if ctx == ROOT_CTX {
            0
        } else {
            CTX_OBJ_BASE + ctx
        };
        ObjRef {
            addr: self.rep.addr(),
            incarnation: ObjRef::STABLE,
            type_id: NAMING_TYPE_ID,
            object_id,
        }
    }

    fn client_ctx(&self) -> ClientCtx {
        ClientCtx::new(self.rt.clone()).with_timeout(self.cfg.peer_timeout)
    }

    /// Absolute path of a name bound in context `ctx`.
    fn abs_path(&self, ctx: CtxId, name: &str) -> Result<String, NsError> {
        self.rep.read(|c| match c.state().path_of_ctx(ctx) {
            Some(prefix) if prefix.is_empty() => Ok(name.to_string()),
            Some(prefix) => Ok(format!("{prefix}/{name}")),
            None => Err(NsError::NotFound {
                name: name.to_string(),
            }),
        })
    }

    // ---- read path -----------------------------------------------------

    /// The committed name space, shared: one `Arc` clone, which a resolve
    /// may hold across a remote selector call while updates land.
    fn read_state(&self) -> NsState {
        self.rep.read(|c| c.state().clone())
    }

    fn charge_resolve(&self) {
        if self.cfg.resolve_cost > Duration::ZERO {
            self.cpu.acquire();
            self.rt.busy(self.cfg.resolve_cost);
            self.cpu.release();
        }
    }

    /// If a local miss on this backup may be stale — it holds
    /// prepared-but-unapplied ops, so the primary has committed writes
    /// we have not applied yet — returns the primary to re-ask
    /// (read-your-writes for a client that bound through the primary
    /// and immediately resolves through a backup, on any node). The
    /// re-ask uses a `_here` method, which never forwards again, so
    /// forwards cannot loop; its answer carries the primary's commit
    /// point, which this backup applies through, so the next read is
    /// answered here.
    fn stale_primary(&self) -> Option<u32> {
        self.rep.read(|c| {
            let stale = c.status() == VsrStatus::Normal
                && !c.is_primary()
                && !c.in_probation()
                && c.commit_gap() > 0;
            stale.then(|| c.primary_of(c.view()))
        })
    }

    /// When this backup may be stale, asks context `ctx`'s servant on
    /// the primary with `ask` and catches up to the commit point that
    /// comes back; returns the answer if `keep` accepts it, counted as a
    /// read forward.
    fn ask_primary<T>(
        &self,
        ctx: CtxId,
        ask: impl FnOnce(&NamingContextClient) -> Result<(T, CommitPoint), NsError>,
        keep: impl FnOnce(&T) -> bool,
    ) -> Option<T> {
        let primary = self.stale_primary()?;
        let mut target = self.ctx_objref(ctx);
        target.addr = self.rep.peers()[primary as usize];
        let remote = NamingContextClient::attach(self.client_ctx(), target).ok()?;
        let (answer, point) = ask(&remote).ok()?;
        if let Some((view, commit)) = point {
            self.rep.learn_commit(view, commit);
        }
        if !keep(&answer) {
            return None;
        }
        self.read_forwards.inc();
        Some(answer)
    }

    /// This replica's `(view, commit)` while it is the primary: what a
    /// `_here` read sends back to the backup that forwarded it.
    fn commit_point(&self) -> CommitPoint {
        self.rep.read(|c| {
            let primary = c.status() == VsrStatus::Normal && c.is_primary() && !c.in_probation();
            primary.then(|| (c.view(), c.commit_num()))
        })
    }

    fn do_resolve(
        &self,
        start: CtxId,
        name: &str,
        caller: NodeId,
    ) -> Result<ObjRef, NsError> {
        self.resolves.inc();
        self.charge_resolve();
        let ns = self.read_state();
        let ctx_ref = |id: CtxId| self.ctx_objref(id);
        let mut eval = ReplicaEval { core: self };
        match ns.resolve(start, name, caller, &ctx_ref, &mut eval, NAMING_TYPE_ID)? {
            ResolveOut::Obj(obj) => Ok(obj),
            ResolveOut::LocalCtx(id) => Ok(self.ctx_objref(id)),
            ResolveOut::Forward { ctx, rest } => {
                // Recursive resolve through a remotely implemented
                // context (§4.3).
                let remote = crate::iface::NamingContextClient::attach(self.client_ctx(), ctx)
                    .map_err(|err| NsError::Comm { err })?;
                remote.resolve(rest)
            }
        }
    }

    fn do_list(
        &self,
        start: CtxId,
        name: &str,
        caller: NodeId,
        all: bool,
    ) -> Result<Vec<Binding>, NsError> {
        self.charge_resolve();
        let ns = self.read_state();
        let ctx_ref = |id: CtxId| self.ctx_objref(id);
        let mut eval = ReplicaEval { core: self };
        ns.list(
            start,
            name,
            caller,
            all,
            &ctx_ref,
            &mut eval,
            NAMING_TYPE_ID,
        )
    }

    fn audit_loop(self: Arc<Self>) {
        loop {
            self.rt.sleep(self.cfg.audit_interval);
            if !self.rep.is_master() {
                continue;
            }
            let leaves: Vec<(String, ObjRef)> = self.rep.read(|c| {
                c.state()
                    .collect_leaves()
                    .into_iter()
                    // Stable references (other name-service contexts)
                    // survive restarts and are not auditable by
                    // incarnation; skip them.
                    .filter(|(_, obj)| obj.incarnation != ObjRef::STABLE)
                    .collect()
            });
            if leaves.is_empty() {
                continue;
            }
            let oracle = Arc::clone(&*self.oracle.lock());
            let alive = oracle.check(&leaves);
            for ((path, _), alive) in leaves.iter().zip(alive) {
                if !alive {
                    Journal::note(&*self.rt, "ns", format!("audit removing dead {path}"));
                    self.audit_removed.inc();
                    let _ = self
                        .rep
                        .master_submit(NsUpdate::Unbind { path: path.clone() });
                }
            }
        }
    }
}

/// Selector evaluation with remote-selector support.
struct ReplicaEval<'a> {
    core: &'a NsCore,
}

impl SelectorEval for ReplicaEval<'_> {
    fn select(
        &mut self,
        spec: &SelectorSpec,
        caller: NodeId,
        candidates: &[Binding],
    ) -> Option<usize> {
        match spec {
            SelectorSpec::Remote { selector } => {
                let client = SelectorClient::attach(self.core.client_ctx(), *selector).ok()?;
                let idx = client.select(caller, candidates.to_vec()).ok()? as usize;
                (idx < candidates.len()).then_some(idx)
            }
            other => {
                let mut rr = self.core.rr.load(Ordering::Relaxed);
                let out = eval_static(other, caller, candidates, &mut rr);
                self.core.rr.store(rr, Ordering::Relaxed);
                out
            }
        }
    }
}

/// Servant view of one context (exported per context id).
struct CtxView {
    core: Arc<NsCore>,
    ctx: CtxId,
}

impl NamingContext for CtxView {
    fn resolve(&self, caller: &Caller, name: String) -> Result<ObjRef, NsError> {
        let local = self.core.do_resolve(self.ctx, &name, caller.node);
        if let Err(NsError::NotFound { .. } | NsError::NoReplicaAvailable { .. }) = &local {
            let ask = |p: &NamingContextClient| p.resolve_here(name);
            if let Some(obj) = self.core.ask_primary(self.ctx, ask, |_| true) {
                return Ok(obj);
            }
        }
        local
    }

    fn resolve_here(
        &self,
        caller: &Caller,
        name: String,
    ) -> Result<(ObjRef, CommitPoint), NsError> {
        let obj = self.core.do_resolve(self.ctx, &name, caller.node)?;
        Ok((obj, self.core.commit_point()))
    }

    fn bind(&self, _caller: &Caller, name: String, obj: ObjRef) -> Result<(), NsError> {
        let path = self.core.abs_path(self.ctx, &name)?;
        self.core.rep.submit(NsUpdate::Bind { path, obj })
    }

    fn unbind(&self, _caller: &Caller, name: String) -> Result<(), NsError> {
        let path = self.core.abs_path(self.ctx, &name)?;
        self.core.rep.submit(NsUpdate::Unbind { path })
    }

    fn bind_new_context(&self, caller: &Caller, name: String) -> Result<ObjRef, NsError> {
        let path = self.core.abs_path(self.ctx, &name)?;
        self.core
            .rep
            .submit(NsUpdate::NewContext { path: path.clone() })?;
        // Commit application is synchronous on the primary but may
        // still be in flight here on a backup — retry once after a beat.
        match self.core.do_resolve(self.ctx, &name, caller.node) {
            Ok(obj) => Ok(obj),
            Err(NsError::NotFound { .. }) => {
                self.core.rt.sleep(self.core.cfg.peer_timeout);
                self.core.do_resolve(self.ctx, &name, caller.node)
            }
            Err(e) => Err(e),
        }
    }

    fn bind_repl_context(
        &self,
        _caller: &Caller,
        name: String,
        selector: SelectorSpec,
    ) -> Result<ObjRef, NsError> {
        let path = self.core.abs_path(self.ctx, &name)?;
        self.core
            .rep
            .submit(NsUpdate::NewReplContext { path, selector })?;
        // A replicated context resolves to a *member*, so return the
        // context reference by id lookup instead.
        let id = self
            .core
            .rep
            .read(|c| c.state().ctx_of_name(self.ctx, &name));
        Ok(self.core.ctx_objref(id.unwrap_or(self.ctx)))
    }

    fn list(&self, caller: &Caller, name: String) -> Result<Vec<Binding>, NsError> {
        self.core.do_list(self.ctx, &name, caller.node, false)
    }

    fn list_repl(&self, caller: &Caller, name: String) -> Result<Vec<Binding>, NsError> {
        let local = self.core.do_list(self.ctx, &name, caller.node, true);
        let missed = match &local {
            Ok(set) => set.is_empty(),
            Err(e) => matches!(e, NsError::NotFound { .. }),
        };
        if missed {
            let ask = |p: &NamingContextClient| p.list_repl_here(name);
            if let Some(set) = self.core.ask_primary(self.ctx, ask, |set| !set.is_empty()) {
                return Ok(set);
            }
        }
        local
    }

    fn list_repl_here(
        &self,
        caller: &Caller,
        name: String,
    ) -> Result<(Vec<Binding>, CommitPoint), NsError> {
        let set = self.core.do_list(self.ctx, &name, caller.node, true)?;
        Ok((set, self.core.commit_point()))
    }

    fn report_load(&self, _caller: &Caller, name: String, load: u32) -> Result<(), NsError> {
        let path = self.core.abs_path(self.ctx, &name)?;
        self.core.rep.submit(NsUpdate::ReportLoad { path, load })
    }
}
