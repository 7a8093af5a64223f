//! The replicated service controller (ROADMAP item 1, controller half):
//! the placement/config table on the same Viewstamped Replication engine
//! the name service and the Connection Manager use, instead of the §6.2
//! primary/backup CSC that recovers by regeneration.
//!
//! Three replicas run [`SscTable`] behind an [`ocs_vsr::VsrCore`]. Every
//! placement decision — define, place, unplace, down report, retire —
//! becomes an [`SscUpdate`] on the replicated log: the view primary
//! stamps it with its clock, sequences it, broadcasts `prepare`, commits
//! at a majority and answers with the viewstamped outcome (the decision
//! epoch). Backups forward decisions to the primary and serve reads from
//! local (possibly marginally stale) state. When the primary dies, a
//! sub-second view change promotes a backup *that already holds the
//! placement table* — services stay placed, and recovery re-hosts the
//! instances that actually died instead of regenerating the whole
//! configuration by querying every SSC.
//!
//! This module is the driver around the pure engine, structured like the
//! Connection Manager's (`itv-media`'s `cmrep`): ORB servants, the
//! heartbeat/view-change/recovery loop, and telemetry post-processing of
//! engine events. The client-facing root servant (the `CscApi`) is
//! supplied by the caller — see [`crate::Csc`] — so the controller logic
//! (SSC side effects, reconcile) stays out of the replication driver.

use std::sync::{Arc, Weak};
use std::time::Duration;

use ocs_db::ServicePlacement;
use ocs_orb::{declare_interface, Caller, ClientCtx, NoAuth, ObjRef, Orb, Servant, ThreadModel};
use ocs_sim::{Addr, NetError, NodeRtExt, PortReq, Rt, SimTime};
use ocs_vsr::{
    DoViewChange, OpOutcome, PeerFanout, Prepare, StartView, StateTransfer, SubmitRoute, VsrCore,
    VsrEvent,
};
use parking_lot::Mutex;

use crate::ssctable::{SscSnapshot, SscTable, SscUpdate};
use crate::types::SvcError;

/// Object id of the `SscPeer` servant on every replica's ORB (the
/// caller-supplied `CscApi` servant is the root object).
const PEER_OBJ: u64 = 1;
/// Entries re-sent to one lagging backup per heartbeat round.
const RESEND_BATCH: usize = 32;

type Engine = VsrCore<SscTable>;
type SscPrepare = Prepare<SscUpdate>;
type SscDvc = DoViewChange<SscUpdate, SscSnapshot>;
type SscSv = StartView<SscUpdate, SscSnapshot>;
type SscXfer = StateTransfer<SscUpdate, SscSnapshot>;

declare_interface! {
    /// The service-controller replica-to-replica VSR protocol (mirrors
    /// the CM's peer interface, with placement ops on the log).
    pub interface SscPeer [SscPeerClient, SscPeerServant]: "ocs.svc-peer" {
        /// Primary → backup: append `update` at `op_num`.
        1 => fn prepare(&self, view: u64, entry_view: u64, op_num: u64, commit_num: u64, update: SscUpdate) -> Result<ocs_vsr::PeerAck, SvcError>;
        /// Primary → backup heartbeat carrying the commit watermark.
        2 => fn commit_hb(&self, view: u64, commit_num: u64) -> Result<ocs_vsr::PeerAck, SvcError>;
        /// Backup → all: propose a view change.
        3 => fn start_view_change(&self, view: u64, forced: bool) -> Result<ocs_vsr::SvcAck, SvcError>;
        /// Joiner → new primary: log hand-off for the view change.
        4 => fn do_view_change(&self, dvc: SscDvc) -> Result<(), SvcError>;
        /// New primary → backups: the chosen log for the new view.
        5 => fn start_view(&self, sv: SscSv) -> Result<ocs_vsr::PeerAck, SvcError>;
        /// State-transfer request from a lagging or recovering replica.
        6 => fn get_state(&self, from_op: u64) -> Result<SscXfer, SvcError>;
        /// Backup → primary: sequence a client op on my behalf. Returns
        /// the committed decision epoch.
        7 => fn forward_op(&self, op: SscUpdate) -> Result<u64, SvcError>;
        /// View-change initiator → joiner: a majority joined `view`,
        /// release your `DoViewChange`.
        8 => fn view_change_go(&self, view: u64) -> Result<(), SvcError>;
    }
}

/// Configuration of one replicated-controller group member.
#[derive(Clone, Debug)]
pub struct SscReplicaConfig {
    /// This replica's index into `peers`.
    pub replica_id: u32,
    /// The request endpoints of all replicas (including this one).
    pub peers: Vec<Addr>,
    /// Primary → backup heartbeat period.
    pub heartbeat_interval: Duration,
    /// Base primary-suspect timeout (staggered per replica id).
    pub election_timeout: Duration,
    /// Timeout for replica-to-replica calls.
    pub peer_timeout: Duration,
    /// Committed log entries retained for peer catch-up.
    pub log_retention: u64,
}

impl SscReplicaConfig {
    /// The deployed parameters: the same NS-grade fail-over timeouts the
    /// replicated CM runs with.
    pub fn paper_defaults(replica_id: u32, peers: Vec<Addr>) -> SscReplicaConfig {
        SscReplicaConfig {
            replica_id,
            peers,
            heartbeat_interval: Duration::from_secs(2),
            election_timeout: Duration::from_secs(5),
            peer_timeout: Duration::from_millis(800),
            log_retention: 512,
        }
    }

    /// Effective suspect timeout: base plus an id-proportional stagger,
    /// so the lowest live backup usually proposes the view change alone.
    fn suspect_timeout(&self) -> Duration {
        self.election_timeout + (self.heartbeat_interval / 2) * self.replica_id
    }
}

/// Driver-side bookkeeping next to the engine.
struct Driver {
    /// Last heartbeat round the primary ran.
    last_hb_round: SimTime,
    /// When the ongoing view change was first suspected.
    vc_started: Option<SimTime>,
}

/// The core of a replica, shared by its servants and loops.
struct SscCore {
    rt: Rt,
    cfg: SscReplicaConfig,
    st: Mutex<Engine>,
    drv: Mutex<Driver>,
    /// Every broadcast to the other replicas goes through here.
    fan: PeerFanout<SvcError>,
    orb: Mutex<Weak<Orb>>,
}

/// A running replicated-controller group member.
pub struct SscReplica {
    core: Arc<SscCore>,
    orb: Arc<Orb>,
}

impl SscReplica {
    /// Opens the replica's endpoint, exports the caller's `CscApi`
    /// servant as the root object and the `SscPeer` protocol next to
    /// it, and spawns the VSR driver loop. `root` is exported at the
    /// stable incarnation, so `root_ref` survives replica restarts.
    pub fn start(
        rt: Rt,
        cfg: SscReplicaConfig,
        root: Arc<dyn Servant>,
    ) -> Result<Arc<SscReplica>, NetError> {
        let my_addr = cfg.peers[cfg.replica_id as usize];
        assert_eq!(
            my_addr.node,
            rt.node(),
            "svc replica {} configured for a different node",
            cfg.replica_id
        );
        assert!(
            !cfg.peers.is_empty(),
            "svc replica group needs at least one member"
        );
        let now = rt.now();
        let engine = Engine::new(
            cfg.replica_id,
            cfg.peers.len(),
            cfg.log_retention,
            cfg.suspect_timeout(),
            now,
        );
        let core = Arc::new(SscCore {
            fan: PeerFanout::new(
                rt.clone(),
                cfg.peer_timeout,
                cfg.replica_id,
                &cfg.peers,
                SscPeerClient::TYPE_ID,
                SscPeerClient::INTERFACE,
                PEER_OBJ,
            ),
            rt: rt.clone(),
            cfg,
            st: Mutex::new(engine),
            drv: Mutex::new(Driver {
                last_hb_round: now,
                vc_started: None,
            }),
            orb: Mutex::new(Weak::new()),
        });
        let orb = Orb::build(
            rt.clone(),
            PortReq::Fixed(my_addr.port),
            ThreadModel::PerRequest,
            Some(ObjRef::STABLE),
            Arc::new(NoAuth),
        )?;
        *core.orb.lock() = Arc::downgrade(&orb);
        orb.export_root(root);
        let peer = SscPeerServant(Arc::new(PeerView {
            core: Arc::clone(&core),
        }));
        ocs_vsr::fanout::check_numbering(&peer);
        orb.export_at(PEER_OBJ, Arc::new(peer));
        orb.start();
        if core.st.lock().in_probation() {
            ocs_telemetry::NodeTelemetry::of(&*rt).journal.record(
                rt.now(),
                "svc-vsr",
                format!(
                    "svc replica {} starting in recovery probation",
                    core.cfg.replica_id
                ),
            );
        }
        let c = Arc::clone(&core);
        rt.spawn_fn("svc-vsr", move || c.vsr_loop());
        Ok(Arc::new(SscReplica { core, orb }))
    }

    /// The stable reference to this replica's root (`CscApi`) servant.
    pub fn root_ref(&self) -> ObjRef {
        let addr = self.core.cfg.peers[self.core.cfg.replica_id as usize];
        ObjRef {
            addr,
            incarnation: ObjRef::STABLE,
            type_id: crate::types::CscApiClient::TYPE_ID,
            object_id: 0,
        }
    }

    /// Whether this replica is the view primary with a quorum.
    pub fn is_master(&self) -> bool {
        self.core.st.lock().is_master()
    }

    /// The current view number.
    pub fn view(&self) -> u64 {
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

    /// The global decision-epoch counter, as committed locally.
    pub fn epoch(&self) -> u64 {
        self.core.st.lock().state().epoch()
    }

    /// The local replicated placement table, in service-name order (the
    /// E23 post-storm audit compares this across replicas).
    pub fn placements(&self) -> Vec<ServicePlacement> {
        self.core.st.lock().state().placements_list()
    }

    /// Whether `name` is placed on `node`, per local committed state.
    pub fn is_placed(&self, name: &str, node: ocs_sim::NodeId) -> bool {
        self.core.st.lock().state().is_placed(name, node)
    }

    /// Services placed on `node`, in name order.
    pub fn services_on(&self, node: ocs_sim::NodeId) -> Vec<String> {
        self.core.st.lock().state().services_on(node)
    }

    /// Nodes currently marked down for `name`.
    pub fn down_nodes(&self, name: &str) -> Vec<ocs_sim::NodeId> {
        self.core.st.lock().state().down_nodes(name)
    }

    /// Cross-checks the incrementally maintained node index against a
    /// full table rescan.
    pub fn audit_ok(&self) -> bool {
        self.core.st.lock().state().audit_ok()
    }

    /// Routes a placement decision: sequence here if primary, forward
    /// to the primary if backup. Fails fast mid-view-change; callers
    /// retry with the same token.
    pub fn submit(&self, op: SscUpdate) -> Result<u64, SvcError> {
        self.core.submit_op(op)
    }

    /// One-line engine state dump for test failure diagnostics.
    pub fn debug_status(&self) -> String {
        let st = self.core.st.lock();
        format!(
            "view={} status={:?} primary={} master={} probation={} catchup={} op={} commit={} epoch={} services={}",
            st.view(),
            st.status(),
            st.is_primary(),
            st.is_master(),
            st.in_probation(),
            st.needs_catchup(),
            st.op_num(),
            st.commit_num(),
            st.state().epoch(),
            st.state().services_len(),
        )
    }

    /// The replica's ORB (for tests).
    pub fn orb(&self) -> &Arc<Orb> {
        &self.orb
    }
}

impl SscCore {
    fn client_ctx(&self) -> ClientCtx {
        ClientCtx::new(self.rt.clone()).with_timeout(self.cfg.peer_timeout)
    }

    fn peer_client(&self, peer: u32) -> Result<SscPeerClient, SvcError> {
        let addr = self.cfg.peers[peer as usize];
        let target = ObjRef {
            addr,
            incarnation: ObjRef::STABLE,
            type_id: SscPeerClient::TYPE_ID,
            object_id: PEER_OBJ,
        };
        SscPeerClient::attach(self.client_ctx(), target).map_err(|err| SvcError::Comm { err })
    }

    fn now_us(&self) -> u64 {
        self.rt.now().as_micros()
    }

    /// Runs `f` against the engine, then post-processes the events it
    /// produced. Never call engine methods while making RPCs — every
    /// peer call in this module happens with the lock released.
    fn with_engine<R>(self: &Arc<Self>, f: impl FnOnce(&mut Engine) -> R) -> R {
        let (out, events, decisions, epoch, probation_ended) = {
            let mut st = self.st.lock();
            let before = st.in_probation();
            let out = f(&mut st);
            let ended = before && !st.in_probation();
            let events = st.take_events();
            // Committed ops may have recorded decisions; drain the
            // journal feed under the same lock acquisition.
            let decisions = if events.is_empty() {
                Vec::new()
            } else {
                st.state_mut().take_decisions()
            };
            let epoch = st.state().epoch();
            (out, events, decisions, epoch, ended)
        };
        let tel = ocs_telemetry::NodeTelemetry::of(&*self.rt);
        if probation_ended {
            tel.journal
                .record(self.rt.now(), "svc-vsr", "recovery probation ended");
        }
        for d in decisions {
            tel.registry.counter("ssc.vsr.decisions").inc();
            tel.journal.record(self.rt.now(), "svc-vsr", d);
        }
        if !events.is_empty() {
            tel.registry.gauge("ssc.vsr.epoch").set(epoch as i64);
            self.apply_events(events);
            self.fan.progressed();
        }
        out
    }

    /// Engine-event post-processing: telemetry and the flight recorder.
    fn apply_events(self: &Arc<Self>, events: Vec<VsrEvent<SscUpdate>>) {
        let tel = ocs_telemetry::NodeTelemetry::of(&*self.rt);
        let reg = &tel.registry;
        for ev in events {
            match ev {
                VsrEvent::Committed { .. } => {
                    reg.counter("ssc.vsr.commits").inc();
                }
                VsrEvent::Suspected { view } => {
                    reg.counter("ssc.vsr.suspects").inc();
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
                            "svc-vsr",
                            format!("view change started: proposing view {view}"),
                        );
                    }
                    self.rt
                        .trace(&format!("svc: vsr suspect, proposing view {view}"));
                }
                VsrEvent::ViewChanged { view, primary } => {
                    reg.counter("ssc.vsr.view_changes").inc();
                    reg.gauge("ssc.vsr.view").set(view as i64);
                    if let Some(started) = self.drv.lock().vc_started.take() {
                        let us = self.rt.now().saturating_since(started).as_micros() as u64;
                        reg.histo("ssc.vsr.view_change_us").observe(us);
                    }
                    tel.journal.record(
                        self.rt.now(),
                        "svc-vsr",
                        format!("view change committed: view {view} primary {primary}"),
                    );
                    self.rt
                        .trace(&format!("svc: vsr entered view {view} (primary {primary})"));
                }
                VsrEvent::Aborted { view } => {
                    reg.counter("ssc.vsr.vc_aborted").inc();
                    self.drv.lock().vc_started = None;
                    tel.journal.record(
                        self.rt.now(),
                        "svc-vsr",
                        format!("view change to {view} aborted: primary still healthy"),
                    );
                }
                VsrEvent::CaughtUp { via_snapshot } => {
                    let name = if via_snapshot {
                        "ssc.vsr.state_transfer_snapshot"
                    } else {
                        "ssc.vsr.state_transfer_log"
                    };
                    reg.counter(name).inc();
                    tel.journal.record(
                        self.rt.now(),
                        "svc-vsr",
                        if via_snapshot {
                            "caught up via snapshot state transfer"
                        } else {
                            "caught up via log replay"
                        },
                    );
                }
            }
        }
    }

    // ---- update path ---------------------------------------------------

    /// Sequences and replicates an op as the view primary: one prepare
    /// to every backup at once, answered at the majority commit. The
    /// outcome is keyed by the viewstamp `(view, op)` — if a view change
    /// commits a different update at our op number, the client hears
    /// failure and retries (idempotently, via its token).
    fn drive_prepare(self: &Arc<Self>, prep: SscPrepare) -> Result<u64, SvcError> {
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
                    .counter("ssc.vsr.superseded")
                    .inc();
                Err(SvcError::Dependency {
                    what: "svc: op superseded by view change".into(),
                })
            }
            // Sequenced but not committed: no quorum reachable.
            OpOutcome::Pending => Err(SvcError::Dependency {
                what: "svc: no replication quorum".into(),
            }),
        }
    }

    /// Applies an op on this replica as primary, without forwarding. The
    /// primary re-stamps the op with its own clock so a forwarding
    /// backup's (or a retrying client's) stale stamp never enters the
    /// log.
    fn master_submit(self: &Arc<Self>, mut op: SscUpdate) -> Result<u64, SvcError> {
        op.stamp(self.now_us());
        match self.with_engine(|c| c.client_op(op)) {
            Ok(prep) => self.drive_prepare(prep),
            Err(_) => Err(SvcError::Dependency {
                what: "svc: no master".into(),
            }),
        }
    }

    /// Routes a client op: sequence here if primary, forward to the
    /// primary if backup. Fails fast mid-view-change; the client retries
    /// with the same token.
    fn submit_op(self: &Arc<Self>, mut op: SscUpdate) -> Result<u64, SvcError> {
        op.stamp(self.now_us());
        match self.with_engine(|c| c.client_op(op.clone())) {
            Ok(prep) => self.drive_prepare(prep),
            Err(SubmitRoute::Forward(p)) => self.peer_client(p)?.forward_op(op),
            Err(SubmitRoute::Unavailable) => Err(SvcError::Dependency {
                what: "svc: no master".into(),
            }),
        }
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
                    // Outranks the heartbeat arm: a deposed primary must
                    // catch up, not heartbeat its dead view.
                    Act::CatchUp
                } else if st.is_primary() {
                    let due = {
                        let mut drv = self.drv.lock();
                        if now.saturating_since(drv.last_hb_round) >= self.cfg.heartbeat_interval {
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
                reg.gauge("ssc.vsr.view").set(st.view() as i64);
                reg.gauge("ssc.vsr.commit_gap").set(st.commit_gap() as i64);
            }
            self.rt.sleep(tick);
        }
    }

    /// One primary heartbeat round: broadcast the commit point, absorb
    /// the watermark acks, re-send log entries to lagging backups, and
    /// track quorum contact (§4.6 step-down on lost quorum).
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

    /// Proposes (or re-proposes) a view change; completes it only after
    /// a majority joined (gated DVC release), reverts otherwise.
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
        let new_primary = (proposed % self.cfg.peers.len() as u64) as u32;
        self.fan.view_change_go(&joiners, proposed);
        if let Some(dvc) = self.with_engine(|c| c.emit_dvc(proposed)) {
            self.deliver_dvc(new_primary, dvc);
        }
    }

    /// Routes a `DoViewChange` to the new primary — locally when that is
    /// this replica, by RPC otherwise.
    fn deliver_dvc(self: &Arc<Self>, new_primary: u32, dvc: SscDvc) {
        if new_primary == self.cfg.replica_id {
            let now = self.rt.now();
            if let Some(sv) = self.with_engine(|c| c.on_do_view_change(dvc, now)) {
                self.broadcast_start_view(sv);
            }
        } else if let Ok(peer) = self.peer_client(new_primary) {
            let _ = peer.do_view_change(dvc);
        }
    }

    /// New primary → backups: announce the chosen log.
    fn broadcast_start_view(self: &Arc<Self>, sv: SscSv) {
        self.fan
            .start_view(&sv, |i, ack| self.with_engine(|c| c.on_ack(i, ack)));
        self.drv.lock().last_hb_round = self.rt.now();
    }

    /// Routine state transfer for a replica that saw a gap or a higher
    /// view.
    fn catch_up(self: &Arc<Self>) {
        let commit = self.st.lock().commit_num();
        let poll = self.fan.poll_state(commit);
        if poll.answers == 0 {
            return;
        }
        if let Some(best) = poll.best {
            let now = self.rt.now();
            self.with_engine(|c| {
                c.on_state_transfer(best, now);
            });
        }
    }

    /// Start-up recovery probation: probe until a recovery quorum of
    /// peers answered authoritatively, install the freshest answer.
    fn recovery_probe(self: &Arc<Self>) {
        let (required, commit) = {
            let st = self.st.lock();
            (st.recovery_quorum(), st.commit_num())
        };
        let poll = self.fan.poll_state(commit);
        if poll.countable < required {
            return;
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
}

/// Servant view of the VSR replica-to-replica protocol.
struct PeerView {
    core: Arc<SscCore>,
}

impl SscPeer for PeerView {
    fn prepare(
        &self,
        _caller: &Caller,
        view: u64,
        entry_view: u64,
        op_num: u64,
        commit_num: u64,
        update: SscUpdate,
    ) -> Result<ocs_vsr::PeerAck, SvcError> {
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
    ) -> Result<ocs_vsr::PeerAck, SvcError> {
        let now = self.core.rt.now();
        Ok(self
            .core
            .with_engine(|c| c.on_commit_hb(view, commit_num, now)))
    }

    fn start_view_change(
        &self,
        _caller: &Caller,
        view: u64,
        forced: bool,
    ) -> Result<ocs_vsr::SvcAck, SvcError> {
        let now = self.core.rt.now();
        Ok(self
            .core
            .with_engine(|c| c.on_start_view_change(view, forced, now)))
    }

    fn view_change_go(&self, _caller: &Caller, view: u64) -> Result<(), SvcError> {
        if let Some(dvc) = self.core.with_engine(|c| c.emit_dvc(view)) {
            let new_primary = (view % self.core.cfg.peers.len() as u64) as u32;
            self.core.deliver_dvc(new_primary, dvc);
        }
        Ok(())
    }

    fn do_view_change(&self, _caller: &Caller, dvc: SscDvc) -> Result<(), SvcError> {
        let now = self.core.rt.now();
        if let Some(sv) = self.core.with_engine(|c| c.on_do_view_change(dvc, now)) {
            self.core.broadcast_start_view(sv);
        }
        Ok(())
    }

    fn start_view(&self, _caller: &Caller, sv: SscSv) -> Result<ocs_vsr::PeerAck, SvcError> {
        let now = self.core.rt.now();
        Ok(self.core.with_engine(|c| c.on_start_view(sv, now)))
    }

    fn get_state(&self, _caller: &Caller, from_op: u64) -> Result<SscXfer, SvcError> {
        Ok(self.core.st.lock().on_get_state(from_op))
    }

    fn forward_op(&self, _caller: &Caller, op: SscUpdate) -> Result<u64, SvcError> {
        self.core.master_submit(op)
    }
}
