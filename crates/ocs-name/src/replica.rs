//! One name-service replica (§4.6, rebuilt on Viewstamped Replication
//! per ROADMAP item 1).
//!
//! A replica runs on every server node. All replicas answer `resolve`
//! and `list` from local state; every mutation flows through the
//! VSR-replicated update log ([`crate::vsr`]): the view primary
//! sequences it, broadcasts `prepare`, commits at a majority of acks
//! and applies committed updates in order. Backups forward client
//! updates to the primary. When backups stop hearing from the primary
//! they run a view change — sub-second with the deployed timeouts,
//! versus the ~25 s master re-election window the paper measured — and
//! a replica rejoining after a crash recovers by state transfer: log
//! replay while the peers still retain the missing suffix, snapshot
//! installation once compaction has dropped it.
//!
//! This module is the *driver* around the pure [`VsrCore`] engine: it
//! owns the ORB servants, the heartbeat/view-change/recovery loop, and
//! the post-processing of engine events (telemetry, resolve-cache
//! invalidation, context-servant export).
//!
//! The primary also runs the §4.7 audit: every `audit_interval` it asks
//! the liveness oracle (in the full system, the local Resource Audit
//! Service) about every bound object and unbinds the dead ones — the
//! mechanism that breaks a failed primary's binding so that a §5.2
//! backup's retried `bind` can succeed.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use ocs_orb::{Caller, ClientCtx, NoAuth, ObjRef, Orb, ThreadModel};
use ocs_sim::{Addr, NetError, NodeId, NodeRtExt, PortReq, Rt, Semaphore, SimTime};
use ocs_vsr::PeerFanout;
use parking_lot::Mutex;

use crate::cache::ResolveCache;
use crate::iface::{
    NamingContext, NamingContextServant, NsPeer, NsPeerClient, NsPeerServant, SelectorClient,
    NAMING_TYPE_ID,
};
use crate::selector::eval_static;
use crate::state::{CtxId, NsState, ResolveOut, SelectorEval, ROOT_CTX};
use crate::types::{Binding, NsError, NsUpdate, SelectorSpec};
use crate::vsr::{
    DoViewChange, OpOutcome, Prepare, StartView, StateTransfer, SubmitRoute, VsrCore, VsrEvent,
    VsrStatus,
};

/// Object id of the `NsPeer` servant on every replica's ORB.
const PEER_OBJ: u64 = 1;
/// Object ids of non-root context servants start here.
const CTX_OBJ_BASE: u64 = 16;
/// Entries re-sent to one lagging backup per heartbeat round.
const RESEND_BATCH: usize = 32;

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
        NsConfig {
            replica_id,
            peers,
            heartbeat_interval: Duration::from_secs(2),
            election_timeout: Duration::from_secs(5),
            audit_interval: Duration::from_secs(10),
            peer_timeout: Duration::from_millis(800),
            resolve_cost: Duration::from_micros(200),
            log_retention: 512,
        }
    }

    /// This replica's effective suspect timeout: the base plus an
    /// id-proportional stagger (half a heartbeat per id), so the lowest
    /// live backup usually proposes the view change alone.
    fn suspect_timeout(&self) -> Duration {
        self.election_timeout + (self.heartbeat_interval / 2) * self.replica_id
    }
}

/// Driver-side bookkeeping next to the engine.
struct Driver {
    /// Last heartbeat round the primary ran.
    last_hb_round: SimTime,
    /// When the ongoing view change was first suspected (fail-over
    /// latency clock, reported on `ns.vsr.view_change_us`).
    vc_started: Option<SimTime>,
}

/// The core of a replica, shared by its servants and loops.
pub struct NsCore {
    rt: Rt,
    cfg: NsConfig,
    st: Mutex<VsrCore>,
    drv: Mutex<Driver>,
    rr: AtomicU64,
    cpu: Semaphore,
    /// Every broadcast to the other replicas goes through here.
    fan: PeerFanout<NsError>,
    orb: Mutex<Weak<Orb>>,
    oracle: Mutex<Arc<dyn LivenessOracle>>,
    exported: Mutex<HashSet<CtxId>>,
}

/// A running name-service replica.
pub struct NsReplica {
    core: Arc<NsCore>,
    orb: Arc<Orb>,
}

impl NsReplica {
    /// Opens the replica's endpoint, exports the root context and peer
    /// objects, and spawns the VSR and audit processes.
    pub fn start(
        rt: Rt,
        cfg: NsConfig,
        oracle: Arc<dyn LivenessOracle>,
    ) -> Result<Arc<NsReplica>, NetError> {
        let my_addr = cfg.peers[cfg.replica_id as usize];
        assert_eq!(
            my_addr.node,
            rt.node(),
            "replica {} configured for a different node",
            cfg.replica_id
        );
        let now = rt.now();
        let engine = VsrCore::new(
            cfg.replica_id,
            cfg.peers.len(),
            cfg.log_retention,
            cfg.suspect_timeout(),
            now,
        );
        let core = Arc::new(NsCore {
            cpu: Semaphore::new(&rt, 1),
            fan: PeerFanout::new(
                rt.clone(),
                cfg.peer_timeout,
                cfg.replica_id,
                &cfg.peers,
                NsPeerClient::TYPE_ID,
                NsPeerClient::INTERFACE,
                PEER_OBJ,
            ),
            rt: rt.clone(),
            cfg,
            st: Mutex::new(engine),
            drv: Mutex::new(Driver {
                last_hb_round: now,
                vc_started: None,
            }),
            rr: AtomicU64::new(0),
            orb: Mutex::new(Weak::new()),
            oracle: Mutex::new(oracle),
            exported: Mutex::new(HashSet::new()),
        });
        let orb = Orb::build(
            rt.clone(),
            PortReq::Fixed(my_addr.port),
            ThreadModel::PerRequest,
            Some(ObjRef::STABLE),
            Arc::new(NoAuth),
        )?;
        *core.orb.lock() = Arc::downgrade(&orb);
        orb.export_at(
            0,
            Arc::new(NamingContextServant(Arc::new(CtxView {
                core: Arc::clone(&core),
                ctx: ROOT_CTX,
            }))),
        );
        let peer = NsPeerServant(Arc::new(PeerView {
            core: Arc::clone(&core),
        }));
        ocs_vsr::fanout::check_numbering(&peer);
        orb.export_at(PEER_OBJ, Arc::new(peer));
        orb.start();
        if core.st.lock().in_probation() {
            ocs_telemetry::NodeTelemetry::of(&*rt).journal.record(
                rt.now(),
                "vsr",
                format!("replica {} starting in recovery probation", core.cfg.replica_id),
            );
        }
        let c = Arc::clone(&core);
        rt.spawn_fn("ns-vsr", move || c.vsr_loop());
        let c = Arc::clone(&core);
        rt.spawn_fn("ns-audit", move || c.audit_loop());
        Ok(Arc::new(NsReplica { core, orb }))
    }

    /// The stable reference to this replica's root context (valid across
    /// replica restarts — the paper's name-service exception to the
    /// reference-lifetime rule, §3.2.1).
    pub fn root_ref(&self) -> ObjRef {
        self.core.ctx_objref(ROOT_CTX)
    }

    /// Whether this replica is currently the view primary with a quorum
    /// (the VSR notion of the paper's "master").
    pub fn is_master(&self) -> bool {
        self.core.st.lock().is_master()
    }

    /// The current view number (the VSR notion of the election epoch).
    pub fn epoch(&self) -> u64 {
        self.core.st.lock().view()
    }

    /// Sequence number of the last committed (applied) update.
    pub fn last_seq(&self) -> u64 {
        self.core.st.lock().commit_num()
    }

    /// Whether the replica is still in start-up/recovery probation.
    pub fn in_probation(&self) -> bool {
        self.core.st.lock().in_probation()
    }

    /// One-line engine state dump for test failure diagnostics.
    pub fn debug_status(&self) -> String {
        let st = self.core.st.lock();
        format!(
            "view={} status={:?} primary={} master={} probation={} catchup={} op={} commit={}",
            st.view(),
            st.status(),
            st.is_primary(),
            st.is_master(),
            st.in_probation(),
            st.needs_catchup(),
            st.op_num(),
            st.commit_num(),
        )
    }

    /// Replaces the liveness oracle (wired to the local RAS at cluster
    /// start-up, after the RAS itself is running).
    pub fn set_oracle(&self, oracle: Arc<dyn LivenessOracle>) {
        *self.core.oracle.lock() = oracle;
    }

    /// The replica's ORB (for tests).
    pub fn orb(&self) -> &Arc<Orb> {
        &self.orb
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
            addr: self.cfg.peers[self.cfg.replica_id as usize],
            incarnation: ObjRef::STABLE,
            type_id: NAMING_TYPE_ID,
            object_id,
        }
    }

    fn client_ctx(&self) -> ClientCtx {
        ClientCtx::new(self.rt.clone()).with_timeout(self.cfg.peer_timeout)
    }

    fn peer_client(&self, peer: u32) -> Result<NsPeerClient, NsError> {
        let addr = self.cfg.peers[peer as usize];
        let target = ObjRef {
            addr,
            incarnation: ObjRef::STABLE,
            type_id: NsPeerClient::TYPE_ID,
            object_id: PEER_OBJ,
        };
        NsPeerClient::attach(self.client_ctx(), target).map_err(|err| NsError::Comm { err })
    }

    /// Runs `f` against the engine, then post-processes the events it
    /// produced. Never call engine methods while making RPCs — every
    /// peer call in this module happens with the lock released.
    fn with_engine<R>(self: &Arc<Self>, f: impl FnOnce(&mut VsrCore) -> R) -> R {
        let (out, events, probation_ended) = {
            let mut st = self.st.lock();
            let before = st.in_probation();
            let out = f(&mut st);
            let ended = before && !st.in_probation();
            (out, st.take_events(), ended)
        };
        if probation_ended {
            // Both exit paths (recovery-quorum probe and StartView) funnel
            // through here, so the flight recorder sees every one.
            ocs_telemetry::NodeTelemetry::of(&*self.rt).journal.record(
                self.rt.now(),
                "vsr",
                "recovery probation ended",
            );
        }
        if !events.is_empty() {
            self.apply_events(events);
            self.fan.progressed();
        }
        out
    }

    /// Engine-event post-processing: telemetry, node-wide resolve-cache
    /// invalidation piggybacked on commit application, and context
    /// servant export.
    fn apply_events(self: &Arc<Self>, events: Vec<VsrEvent>) {
        let tel = ocs_telemetry::NodeTelemetry::of(&*self.rt);
        let reg = &tel.registry;
        let mut ctxs_changed = false;
        for ev in events {
            match ev {
                VsrEvent::Committed { update, .. } => {
                    reg.counter("ns.vsr.commits").inc();
                    let path = match &update {
                        NsUpdate::Bind { path, .. }
                        | NsUpdate::Unbind { path }
                        | NsUpdate::NewContext { path }
                        | NsUpdate::NewReplContext { path, .. }
                        | NsUpdate::ReportLoad { path, .. } => path.clone(),
                    };
                    ResolveCache::of(&*self.rt).invalidate(&path);
                    reg.counter("ns.vsr.cache_invalidations").inc();
                    if matches!(
                        update,
                        NsUpdate::NewContext { .. } | NsUpdate::NewReplContext { .. }
                    ) {
                        ctxs_changed = true;
                    }
                }
                VsrEvent::Suspected { view } => {
                    reg.counter("ns.vsr.suspects").inc();
                    let started = {
                        let mut drv = self.drv.lock();
                        if drv.vc_started.is_none() {
                            drv.vc_started = Some(self.rt.now());
                            true
                        } else {
                            false
                        }
                    };
                    if started {
                        tel.journal.record(
                            self.rt.now(),
                            "vsr",
                            format!("view change started: proposing view {view}"),
                        );
                    }
                    self.rt.trace(&format!("ns: vsr suspect, proposing view {view}"));
                }
                VsrEvent::ViewChanged { view, primary } => {
                    reg.counter("ns.vsr.view_changes").inc();
                    reg.gauge("ns.vsr.view").set(view as i64);
                    if let Some(started) = self.drv.lock().vc_started.take() {
                        let us = self.rt.now().saturating_since(started).as_micros() as u64;
                        reg.histo("ns.vsr.view_change_us").observe(us);
                    }
                    tel.journal.record(
                        self.rt.now(),
                        "vsr",
                        format!("view change committed: view {view} primary {primary}"),
                    );
                    self.rt
                        .trace(&format!("ns: vsr entered view {view} (primary {primary})"));
                }
                VsrEvent::Aborted { view } => {
                    reg.counter("ns.vsr.vc_aborted").inc();
                    self.drv.lock().vc_started = None;
                    tel.journal.record(
                        self.rt.now(),
                        "vsr",
                        format!("view change to {view} aborted: primary still healthy"),
                    );
                    self.rt.trace(&format!(
                        "ns: vsr view change to {view} aborted (primary still healthy)"
                    ));
                }
                VsrEvent::CaughtUp { via_snapshot } => {
                    let name = if via_snapshot {
                        "ns.vsr.state_transfer_snapshot"
                    } else {
                        "ns.vsr.state_transfer_log"
                    };
                    reg.counter(name).inc();
                    tel.journal.record(
                        self.rt.now(),
                        "vsr",
                        if via_snapshot {
                            "caught up via snapshot state transfer"
                        } else {
                            "caught up via log replay"
                        },
                    );
                    ctxs_changed = true;
                }
            }
        }
        if ctxs_changed {
            self.sync_ctx_exports();
        }
    }

    /// Ensures a context servant is exported for every live context id.
    fn sync_ctx_exports(self: &Arc<Self>) {
        let Some(orb) = self.orb.lock().upgrade() else {
            return;
        };
        let ids: Vec<CtxId> = self.st.lock().state().context_ids();
        let mut exported = self.exported.lock();
        for id in ids {
            if id != ROOT_CTX && !exported.contains(&id) {
                orb.export_at(
                    CTX_OBJ_BASE + id,
                    Arc::new(NamingContextServant(Arc::new(CtxView {
                        core: Arc::clone(self),
                        ctx: id,
                    }))),
                );
                exported.insert(id);
            }
        }
    }

    // ---- update path ---------------------------------------------------

    /// Sequences and replicates an update as the view primary: one
    /// prepare to every backup at once, answered at the majority commit.
    /// The outcome is keyed by the viewstamp `(view, op)` we sequenced,
    /// never the op number alone: if we are deposed mid-wait and a view
    /// change commits a *different* update at our op number, the client
    /// must hear failure — its write may be lost — not the replacement's
    /// success.
    fn drive_prepare(self: &Arc<Self>, prep: Prepare) -> Result<(), NsError> {
        let out = self.fan.replicate(
            &prep,
            |i, ack| self.with_engine(|c| c.on_ack(i, ack)),
            || self.st.lock().outcome_of(prep.view, prep.op_num),
        );
        match out {
            OpOutcome::Done(result) => result,
            OpOutcome::Superseded => {
                ocs_telemetry::NodeTelemetry::of(&*self.rt)
                    .registry
                    .counter("ns.vsr.superseded")
                    .inc();
                Err(NsError::NoMaster)
            }
            // Sequenced but not committed: no quorum reachable. The op
            // may still commit after a heal; clients treat this like a
            // master outage and retry.
            OpOutcome::Pending => Err(NsError::NoMaster),
        }
    }

    /// Applies an update on this replica as primary, without forwarding.
    fn master_submit(self: &Arc<Self>, update: NsUpdate) -> Result<(), NsError> {
        match self.with_engine(|c| c.client_op(update)) {
            Ok(prep) => self.drive_prepare(prep),
            Err(_) => Err(NsError::NoMaster),
        }
    }

    /// Routes a client update: sequence here if primary, forward to the
    /// primary if backup. Fails fast — mid-view-change the client sees
    /// `NoMaster` and its rebind library retries (§8.2).
    fn submit_update(self: &Arc<Self>, update: NsUpdate) -> Result<(), NsError> {
        match self.with_engine(|c| c.client_op(update.clone())) {
            Ok(prep) => self.drive_prepare(prep),
            Err(SubmitRoute::Forward(p)) => {
                self.peer_client(p)?.forward_update(update)
            }
            Err(SubmitRoute::Unavailable) => Err(NsError::NoMaster),
        }
    }

    /// Absolute path of a name bound in context `ctx`.
    fn abs_path(&self, ctx: CtxId, name: &str) -> Result<String, NsError> {
        let st = self.st.lock();
        match st.state().path_of_ctx(ctx) {
            Some(prefix) if prefix.is_empty() => Ok(name.to_string()),
            Some(prefix) => Ok(format!("{prefix}/{name}")),
            None => Err(NsError::NotFound {
                name: name.to_string(),
            }),
        }
    }

    // ---- read path -----------------------------------------------------

    fn read_state(&self) -> NsState {
        self.st.lock().state().clone()
    }

    fn charge_resolve(&self) {
        if self.cfg.resolve_cost > Duration::ZERO {
            self.cpu.acquire();
            self.rt.busy(self.cfg.resolve_cost);
            self.cpu.release();
        }
    }

    /// If a local resolve miss on this backup may be stale — it holds
    /// prepared-but-unapplied ops, so the primary has committed writes
    /// we have not applied yet — returns the primary to re-ask
    /// (read-your-writes for a client that bound through the primary
    /// and immediately resolves through a backup). Peer replicas never
    /// get forwarded again, so forwards cannot loop.
    fn stale_miss_primary(&self, caller: NodeId) -> Option<u32> {
        if self.cfg.peers.iter().any(|p| p.node == caller) {
            return None;
        }
        let st = self.st.lock();
        if st.status() == VsrStatus::Normal
            && !st.is_primary()
            && !st.in_probation()
            && st.commit_gap() > 0
        {
            Some(st.primary_of(st.view()))
        } else {
            None
        }
    }

    fn do_resolve(
        self: &Arc<Self>,
        start: CtxId,
        name: &str,
        caller: NodeId,
    ) -> Result<ObjRef, NsError> {
        ocs_telemetry::NodeTelemetry::of(&*self.rt)
            .registry
            .counter("ns.server.resolves")
            .inc();
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
        self: &Arc<Self>,
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

    // ---- VSR driver loop -----------------------------------------------

    fn vsr_loop(self: Arc<Self>) {
        let tick = self.cfg.heartbeat_interval / 4;
        // Desynchronize the replicas' ticks.
        self.rt.sleep(self.rt.rand_jitter(tick));
        loop {
            enum Act {
                Probe,
                HeartbeatRound,
                CatchUp,
                ViewChange,
                Nothing,
            }
            let act = {
                let st = self.st.lock();
                let now = self.rt.now();
                if st.in_probation() {
                    Act::Probe
                } else if st.needs_catchup() {
                    // Must outrank the heartbeat arm: a stale primary
                    // that has learned of a higher view would otherwise
                    // heartbeat its dead view forever instead of
                    // catching up (found by the model-based proptest).
                    Act::CatchUp
                } else if st.is_primary() {
                    let due = {
                        let mut drv = self.drv.lock();
                        if now.saturating_since(drv.last_hb_round)
                            >= self.cfg.heartbeat_interval
                        {
                            drv.last_hb_round = now;
                            true
                        } else {
                            false
                        }
                    };
                    if due {
                        Act::HeartbeatRound
                    } else {
                        Act::Nothing
                    }
                } else if st.suspects(now) || st.vc_stuck(now) {
                    Act::ViewChange
                } else {
                    Act::Nothing
                }
            };
            match act {
                Act::Probe => self.recovery_probe(),
                Act::HeartbeatRound => self.heartbeat_round(),
                Act::CatchUp => self.catch_up(),
                Act::ViewChange => self.run_view_change(),
                Act::Nothing => {}
            }
            // Straggler acks of commits answered at the first ack.
            self.fan
                .drain(usize::MAX, |i, ack| self.with_engine(|c| c.on_ack(i, ack)));
            {
                let st = self.st.lock();
                let reg = &ocs_telemetry::NodeTelemetry::of(&*self.rt).registry;
                reg.gauge("ns.vsr.view").set(st.view() as i64);
                reg.gauge("ns.vsr.commit_gap").set(st.commit_gap() as i64);
            }
            self.rt.sleep(tick);
        }
    }

    /// One primary heartbeat round: broadcast the commit point, absorb
    /// the watermark acks, re-send log entries to lagging backups, and
    /// track quorum contact.
    fn heartbeat_round(self: &Arc<Self>) {
        let (view, commit, op_num) = {
            let st = self.st.lock();
            if !st.is_primary() {
                return;
            }
            (st.view(), st.commit_num(), st.op_num())
        };
        let mut acked = 0;
        let mut lagging = Vec::new();
        self.fan.commit_hb(view, commit, |i, ack| {
            self.with_engine(|c| c.on_ack(i, ack));
            if ack.view == view && ack.accepted {
                acked += 1;
                if ack.op_num < op_num {
                    lagging.push((i, ack.op_num));
                }
            }
        });
        for (i, from) in lagging {
            self.resend_to(i, view, from);
        }
        self.with_engine(|c| c.note_round(acked));
    }

    /// Re-sends the log suffix after `from` to one lagging backup
    /// (bounded per round; state transfer covers bigger gaps).
    fn resend_to(self: &Arc<Self>, peer: u32, view: u64, from: u64) {
        let entries = {
            let st = self.st.lock();
            if !st.is_primary() || st.view() != view {
                return;
            }
            st.entries_from(from + 1)
        };
        // `None` means the suffix was compacted: the backup's gap spans
        // the retention window and it will request a snapshot itself.
        let Some(entries) = entries else { return };
        let Ok(client) = self.peer_client(peer) else {
            return;
        };
        for e in entries.into_iter().take(RESEND_BATCH) {
            let commit = self.st.lock().commit_num();
            // Sender view and the entry's original view travel
            // separately: a re-send never re-stamps the entry.
            let Ok(ack) = client.prepare(view, e.view, e.op, commit, e.update) else {
                return;
            };
            self.with_engine(|c| c.on_ack(peer, &ack));
            if !ack.accepted {
                return;
            }
        }
    }

    /// Proposes (or re-proposes) a view change: broadcast the proposal,
    /// and either complete it or revert. Only after a majority has
    /// joined does anyone emit a `DoViewChange` — the initiator tells
    /// each joiner to release its payload (`view_change_go`) and then
    /// releases its own. Emitting earlier is unsafe: a payload from a
    /// replica that later reverts to an older view could complete the
    /// change with a log that omits ops newly committed there.
    fn run_view_change(self: &Arc<Self>) {
        let now = self.rt.now();
        let (proposed, forced) = self.with_engine(|c| {
            let v = c.begin_view_change(now);
            (v, c.vc_forced())
        });
        // Returns at a join majority, without waiting out the (dead)
        // old primary.
        let joiners = self.fan.start_view_change(proposed, forced, |view| {
            self.with_engine(|c| c.note_view(view))
        });
        if joiners.len() + 1 < self.fan.majority() {
            let now = self.rt.now();
            self.with_engine(|c| c.abort_view_change(proposed, now));
            return;
        }
        // Quorum joined: release the DoViewChanges toward the new
        // primary — the joiners' first, then our own.
        let new_primary = (proposed % self.cfg.peers.len() as u64) as u32;
        self.fan.view_change_go(&joiners, proposed);
        if let Some(dvc) = self.with_engine(|c| c.emit_dvc(proposed)) {
            self.deliver_dvc(new_primary, dvc);
        }
    }

    /// Routes a `DoViewChange` to the new primary — locally when that is
    /// this replica, by RPC otherwise.
    fn deliver_dvc(self: &Arc<Self>, new_primary: u32, dvc: DoViewChange) {
        if new_primary == self.cfg.replica_id {
            let now = self.rt.now();
            if let Some(sv) = self.with_engine(|c| c.on_do_view_change(dvc, now)) {
                self.broadcast_start_view(sv);
            }
        } else if let Ok(peer) = self.peer_client(new_primary) {
            let _ = peer.do_view_change(dvc);
        }
    }

    /// New primary → backups: announce the chosen log. The acks double
    /// as prepare-oks, so the carried tail usually commits in-round.
    fn broadcast_start_view(self: &Arc<Self>, sv: StartView) {
        self.fan
            .start_view(&sv, |i, ack| self.with_engine(|c| c.on_ack(i, ack)));
        self.drv.lock().last_hb_round = self.rt.now();
    }

    /// Routine state transfer for a replica that saw a gap or a higher
    /// view. Installs only authoritative (Normal-responder) state.
    fn catch_up(self: &Arc<Self>) {
        let commit = self.st.lock().commit_num();
        let poll = self.fan.poll_state(commit);
        if poll.answers == 0 {
            return; // Nobody reachable; retry next tick.
        }
        if let Some(best) = poll.best {
            let now = self.rt.now();
            self.with_engine(|c| {
                c.on_state_transfer(best, now);
            });
        }
    }

    /// Start-up recovery: a (re)starting replica's log may have died
    /// with it, so it stays in probation — not acking, leading or
    /// joining view changes — until a recovery quorum of peers has
    /// answered *authoritatively* and the freshest such answer is
    /// installed. Any committed op appears in at least one of any `f+1`
    /// Normal peers' logs; answers from probationary or view-changing
    /// peers prove nothing and do not count (a group cold-starting in
    /// unison bootstraps through the cold-answer carve-out instead).
    fn recovery_probe(self: &Arc<Self>) {
        let (required, commit) = {
            let st = self.st.lock();
            (st.recovery_quorum(), st.commit_num())
        };
        let poll = self.fan.poll_state(commit);
        if poll.countable < required {
            return; // Keep probing; StartView can also end probation.
        }
        let now = self.rt.now();
        self.with_engine(|c| {
            if !c.in_probation() {
                return;
            }
            if let Some(best) = poll.best {
                c.on_state_transfer(best, now);
            }
            c.end_probation(now);
        });
    }

    fn audit_loop(self: Arc<Self>) {
        loop {
            self.rt.sleep(self.cfg.audit_interval);
            if !self.st.lock().is_master() {
                continue;
            }
            let leaves: Vec<(String, ObjRef)> = {
                let st = self.st.lock();
                st.state()
                    .collect_leaves()
                    .into_iter()
                    // Stable references (other name-service contexts)
                    // survive restarts and are not auditable by
                    // incarnation; skip them.
                    .filter(|(_, obj)| obj.incarnation != ObjRef::STABLE)
                    .collect()
            };
            if leaves.is_empty() {
                continue;
            }
            let oracle = Arc::clone(&*self.oracle.lock());
            let alive = oracle.check(&leaves);
            for ((path, _), alive) in leaves.iter().zip(alive) {
                if !alive {
                    self.rt.trace(&format!("ns: audit removing dead {path}"));
                    ocs_telemetry::NodeTelemetry::of(&*self.rt)
                        .registry
                        .counter("ns.server.audit_removed")
                        .inc();
                    let _ = self.master_submit(NsUpdate::Unbind { path: path.clone() });
                }
            }
        }
    }
}

/// Selector evaluation with remote-selector support.
struct ReplicaEval<'a> {
    core: &'a Arc<NsCore>,
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
        if let Err(NsError::NotFound { .. }) = &local {
            if let Some(primary) = self.core.stale_miss_primary(caller.node) {
                let mut target = self.core.ctx_objref(self.ctx);
                target.addr = self.core.cfg.peers[primary as usize];
                if let Ok(remote) =
                    crate::iface::NamingContextClient::attach(self.core.client_ctx(), target)
                {
                    if let Ok(obj) = remote.resolve(name) {
                        ocs_telemetry::NodeTelemetry::of(&*self.core.rt)
                            .registry
                            .counter("ns.vsr.read_forwards")
                            .inc();
                        return Ok(obj);
                    }
                }
            }
        }
        local
    }

    fn bind(&self, _caller: &Caller, name: String, obj: ObjRef) -> Result<(), NsError> {
        let path = self.core.abs_path(self.ctx, &name)?;
        self.core.submit_update(NsUpdate::Bind { path, obj })
    }

    fn unbind(&self, _caller: &Caller, name: String) -> Result<(), NsError> {
        let path = self.core.abs_path(self.ctx, &name)?;
        self.core.submit_update(NsUpdate::Unbind { path })
    }

    fn bind_new_context(&self, caller: &Caller, name: String) -> Result<ObjRef, NsError> {
        let path = self.core.abs_path(self.ctx, &name)?;
        self.core
            .submit_update(NsUpdate::NewContext { path: path.clone() })?;
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
            .submit_update(NsUpdate::NewReplContext { path, selector })?;
        // A replicated context resolves to a *member*, so return the
        // context reference by id lookup instead.
        let st = self.core.st.lock();
        match st.state().ctx_of_name(self.ctx, &name) {
            Some(id) => Ok(self.core.ctx_objref(id)),
            None => Ok(self.core.ctx_objref(self.ctx)),
        }
    }

    fn list(&self, caller: &Caller, name: String) -> Result<Vec<Binding>, NsError> {
        self.core.do_list(self.ctx, &name, caller.node, false)
    }

    fn list_repl(&self, caller: &Caller, name: String) -> Result<Vec<Binding>, NsError> {
        self.core.do_list(self.ctx, &name, caller.node, true)
    }

    fn report_load(&self, _caller: &Caller, name: String, load: u32) -> Result<(), NsError> {
        let path = self.core.abs_path(self.ctx, &name)?;
        self.core.submit_update(NsUpdate::ReportLoad { path, load })
    }
}

/// Servant view of the VSR replica-to-replica protocol.
struct PeerView {
    core: Arc<NsCore>,
}

impl NsPeer for PeerView {
    fn prepare(
        &self,
        _caller: &Caller,
        view: u64,
        entry_view: u64,
        op_num: u64,
        commit_num: u64,
        update: NsUpdate,
    ) -> Result<crate::vsr::PeerAck, NsError> {
        let now = self.core.rt.now();
        Ok(self
            .core
            .with_engine(|c| c.on_prepare(view, entry_view, op_num, commit_num, update, now)))
    }

    fn commit_hb(
        &self,
        _caller: &Caller,
        view: u64,
        commit_num: u64,
    ) -> Result<crate::vsr::PeerAck, NsError> {
        let now = self.core.rt.now();
        Ok(self.core.with_engine(|c| c.on_commit_hb(view, commit_num, now)))
    }

    fn start_view_change(
        &self,
        _caller: &Caller,
        view: u64,
        forced: bool,
    ) -> Result<crate::vsr::SvcAck, NsError> {
        let now = self.core.rt.now();
        Ok(self
            .core
            .with_engine(|c| c.on_start_view_change(view, forced, now)))
    }

    fn view_change_go(&self, _caller: &Caller, view: u64) -> Result<(), NsError> {
        // The initiator saw a join majority for `view`: releasing our
        // DoViewChange is now safe — a majority has left older views,
        // so no new op can commit below `view` behind our back.
        if let Some(dvc) = self.core.with_engine(|c| c.emit_dvc(view)) {
            let new_primary = (view % self.core.cfg.peers.len() as u64) as u32;
            self.core.deliver_dvc(new_primary, dvc);
        }
        Ok(())
    }

    fn do_view_change(&self, _caller: &Caller, dvc: DoViewChange) -> Result<(), NsError> {
        let now = self.core.rt.now();
        if let Some(sv) = self.core.with_engine(|c| c.on_do_view_change(dvc, now)) {
            self.core.broadcast_start_view(sv);
        }
        Ok(())
    }

    fn start_view(&self, _caller: &Caller, sv: StartView) -> Result<crate::vsr::PeerAck, NsError> {
        let now = self.core.rt.now();
        Ok(self.core.with_engine(|c| c.on_start_view(sv, now)))
    }

    fn get_state(&self, _caller: &Caller, from_op: u64) -> Result<StateTransfer, NsError> {
        Ok(self.core.st.lock().on_get_state(from_op))
    }

    fn forward_update(&self, _caller: &Caller, update: NsUpdate) -> Result<(), NsError> {
        self.core.master_submit(update)
    }
}
