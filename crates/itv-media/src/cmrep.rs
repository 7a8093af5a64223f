//! The replicated Connection Manager (ROADMAP item 1): the allocation/
//! lease table on the same Viewstamped Replication engine the name
//! service uses, instead of the §5.2 primary/backup pair that starts
//! empty and waits for MMS reassertion.
//!
//! Three replicas run [`CmTable`] behind an [`ocs_vsr::VsrCore`]. Every
//! mutating `CmApi` call — allocate, release, reassert — becomes a
//! [`CmUpdate`] on the replicated log: the view primary stamps it with
//! its clock, sequences it, broadcasts `prepare`, commits at a majority
//! and answers the client with the viewstamped outcome. Backups forward
//! mutations to the primary and serve `usage`/`accounting` from local
//! (possibly marginally stale) state. When the primary dies, a
//! sub-second view change promotes a backup *that already holds the
//! admission table* — no reassertion window during which a retried
//! `allocate` could double-book bandwidth or a release could be lost.
//!
//! The primary also submits periodic [`CmUpdate::Expire`] ticks, so
//! lease expiry happens at deterministic log positions: every replica
//! reclaims the same leases at the same sequence numbers, and a
//! promoted backup inherits lease stamps granted by the old primary
//! rather than re-deriving them from its own clock.
//!
//! This module is the driver around the pure engine, structured like
//! the name service's ([`ocs-name`'s replica module]): ORB servants,
//! the heartbeat/view-change/recovery loop, and telemetry
//! post-processing of engine events.

use std::sync::{Arc, Weak};
use std::time::Duration;

use ocs_orb::{declare_interface, Caller, ClientCtx, NoAuth, ObjRef, Orb, ThreadModel};
use ocs_sim::{Addr, NetError, NodeId, NodeRtExt, PortReq, Rt, SimTime};
use ocs_vsr::{
    DoViewChange, OpOutcome, PeerFanout, Prepare, StartView, StateTransfer, SubmitRoute, VsrCore,
    VsrEvent,
};
use parking_lot::Mutex;

use crate::cmgr::{CmAccountRow, CmApi, CmApiServant, CmBudgets, CmMetrics};
use crate::cmtable::{CmSnapshot, CmTable, CmUpdate};
use crate::types::{CmUsage, ConnDesc, MediaError};

/// Object id of the `CmPeer` servant on every replica's ORB (the `CmApi`
/// servant is the root object).
const PEER_OBJ: u64 = 1;
/// Entries re-sent to one lagging backup per heartbeat round.
const RESEND_BATCH: usize = 32;

type Engine = VsrCore<CmTable>;
type CmPrepare = Prepare<CmUpdate>;
type CmDvc = DoViewChange<CmUpdate, CmSnapshot>;
type CmSv = StartView<CmUpdate, CmSnapshot>;
type CmXfer = StateTransfer<CmUpdate, CmSnapshot>;

declare_interface! {
    /// The CM replica-to-replica VSR protocol (mirrors the name
    /// service's peer interface, with CM ops on the log).
    pub interface CmPeer [CmPeerClient, CmPeerServant]: "itv.cm-peer" {
        /// Primary → backup: append `update` at `op_num`.
        1 => fn prepare(&self, view: u64, entry_view: u64, op_num: u64, commit_num: u64, update: CmUpdate) -> Result<ocs_vsr::PeerAck, MediaError>;
        /// Primary → backup heartbeat carrying the commit watermark.
        2 => fn commit_hb(&self, view: u64, commit_num: u64) -> Result<ocs_vsr::PeerAck, MediaError>;
        /// Backup → all: propose a view change.
        3 => fn start_view_change(&self, view: u64, forced: bool) -> Result<ocs_vsr::SvcAck, MediaError>;
        /// Joiner → new primary: log hand-off for the view change.
        4 => fn do_view_change(&self, dvc: CmDvc) -> Result<(), MediaError>;
        /// New primary → backups: the chosen log for the new view.
        5 => fn start_view(&self, sv: CmSv) -> Result<ocs_vsr::PeerAck, MediaError>;
        /// State-transfer request from a lagging or recovering replica.
        6 => fn get_state(&self, from_op: u64) -> Result<CmXfer, MediaError>;
        /// Backup → primary: sequence a client op on my behalf. Returns
        /// the committed outcome (the conn id for allocate/release/
        /// reassert).
        7 => fn forward_op(&self, op: CmUpdate) -> Result<u64, MediaError>;
        /// View-change initiator → joiner: a majority joined `view`,
        /// release your `DoViewChange`.
        8 => fn view_change_go(&self, view: u64) -> Result<(), MediaError>;
    }
}

/// Configuration of one replicated-CM group member.
#[derive(Clone, Debug)]
pub struct CmReplicaConfig {
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
    /// Admission-control budgets (identical on every replica).
    pub budgets: CmBudgets,
    /// Lease TTL; `None` disables expiry.
    pub lease_ttl: Option<Duration>,
}

impl CmReplicaConfig {
    /// The deployed parameters: NS-grade fail-over timeouts with the
    /// trial's budgets and a 20 s lease.
    pub fn paper_defaults(replica_id: u32, peers: Vec<Addr>, budgets: CmBudgets) -> CmReplicaConfig {
        CmReplicaConfig {
            replica_id,
            peers,
            heartbeat_interval: Duration::from_secs(2),
            election_timeout: Duration::from_secs(5),
            peer_timeout: Duration::from_millis(800),
            log_retention: 512,
            budgets,
            lease_ttl: Some(Duration::from_secs(20)),
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
    /// Last lease-expiry tick this primary submitted.
    last_expire: SimTime,
}

/// The core of a replica, shared by its servants and loops.
struct CmCore {
    rt: Rt,
    cfg: CmReplicaConfig,
    st: Mutex<Engine>,
    drv: Mutex<Driver>,
    metrics: CmMetrics,
    /// Every broadcast to the other replicas goes through here.
    fan: PeerFanout<MediaError>,
    orb: Mutex<Weak<Orb>>,
}

/// A running replicated-CM group member.
pub struct CmReplica {
    core: Arc<CmCore>,
    orb: Arc<Orb>,
}

impl CmReplica {
    /// Opens the replica's endpoint, exports the `CmApi` (root) and
    /// `CmPeer` objects, and spawns the VSR driver loop.
    pub fn start(rt: Rt, cfg: CmReplicaConfig) -> Result<Arc<CmReplica>, NetError> {
        let my_addr = cfg.peers[cfg.replica_id as usize];
        assert_eq!(
            my_addr.node,
            rt.node(),
            "cm replica {} configured for a different node",
            cfg.replica_id
        );
        assert!(
            cfg.lease_ttl.is_none() || !cfg.peers.is_empty(),
            "cm replica group needs at least one member"
        );
        let now = rt.now();
        let table = CmTable::new(cfg.budgets, cfg.lease_ttl.map(|d| d.as_micros() as u64));
        let engine = Engine::with_machine(
            table,
            cfg.replica_id,
            cfg.peers.len(),
            cfg.log_retention,
            cfg.suspect_timeout(),
            now,
        );
        let core = Arc::new(CmCore {
            metrics: CmMetrics::of(&rt),
            fan: PeerFanout::new(
                rt.clone(),
                cfg.peer_timeout,
                cfg.replica_id,
                &cfg.peers,
                CmPeerClient::TYPE_ID,
                CmPeerClient::INTERFACE,
                PEER_OBJ,
            ),
            rt: rt.clone(),
            cfg,
            st: Mutex::new(engine),
            drv: Mutex::new(Driver {
                last_hb_round: now,
                vc_started: None,
                last_expire: now,
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
        orb.export_root(Arc::new(CmApiServant(Arc::new(ApiView {
            core: Arc::clone(&core),
        }))));
        let peer = CmPeerServant(Arc::new(PeerView {
            core: Arc::clone(&core),
        }));
        ocs_vsr::fanout::check_numbering(&peer);
        orb.export_at(PEER_OBJ, Arc::new(peer));
        orb.start();
        if core.st.lock().in_probation() {
            ocs_telemetry::NodeTelemetry::of(&*rt).journal.record(
                rt.now(),
                "cm-vsr",
                format!(
                    "cm replica {} starting in recovery probation",
                    core.cfg.replica_id
                ),
            );
        }
        let c = Arc::clone(&core);
        rt.spawn_fn("cm-vsr", move || c.vsr_loop());
        Ok(Arc::new(CmReplica { core, orb }))
    }

    /// The stable reference to this replica's `CmApi` servant.
    pub fn root_ref(&self) -> ObjRef {
        let addr = self.core.cfg.peers[self.core.cfg.replica_id as usize];
        ObjRef {
            addr,
            incarnation: ObjRef::STABLE,
            type_id: crate::cmgr::CmApiClient::TYPE_ID,
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

    /// Local utilization snapshot (no lease tick; may trail the primary
    /// by the commit gap).
    pub fn usage(&self) -> CmUsage {
        self.core.st.lock().state().usage()
    }

    /// The live allocation table (for the E22 post-storm audit).
    pub fn allocations(&self) -> Vec<ConnDesc> {
        self.core.st.lock().state().allocations_list()
    }

    /// Cross-checks the incrementally maintained reserved-bandwidth
    /// total against a full table scan; returns `(indexed, scanned)`.
    pub fn audit_reserved_bps(&self) -> (u64, u64) {
        let st = self.core.st.lock();
        (
            st.state().usage().reserved_down_bps,
            st.state().audit_reserved_bps(),
        )
    }

    /// One-line engine state dump for test failure diagnostics.
    pub fn debug_status(&self) -> String {
        let st = self.core.st.lock();
        format!(
            "view={} status={:?} primary={} master={} probation={} catchup={} op={} commit={} allocs={}",
            st.view(),
            st.status(),
            st.is_primary(),
            st.is_master(),
            st.in_probation(),
            st.needs_catchup(),
            st.op_num(),
            st.commit_num(),
            st.state().allocations_len(),
        )
    }

    /// The replica's ORB (for tests).
    pub fn orb(&self) -> &Arc<Orb> {
        &self.orb
    }
}

impl CmCore {
    fn client_ctx(&self) -> ClientCtx {
        ClientCtx::new(self.rt.clone()).with_timeout(self.cfg.peer_timeout)
    }

    fn peer_client(&self, peer: u32) -> Result<CmPeerClient, MediaError> {
        let addr = self.cfg.peers[peer as usize];
        let target = ObjRef {
            addr,
            incarnation: ObjRef::STABLE,
            type_id: CmPeerClient::TYPE_ID,
            object_id: PEER_OBJ,
        };
        CmPeerClient::attach(self.client_ctx(), target).map_err(|err| MediaError::Comm { err })
    }

    fn now_us(&self) -> u64 {
        self.rt.now().as_micros()
    }

    /// Runs `f` against the engine, then post-processes the events it
    /// produced. Never call engine methods while making RPCs — every
    /// peer call in this module happens with the lock released.
    fn with_engine<R>(self: &Arc<Self>, f: impl FnOnce(&mut Engine) -> R) -> R {
        let (out, events, expired, live, probation_ended) = {
            let mut st = self.st.lock();
            let before = st.in_probation();
            let out = f(&mut st);
            let ended = before && !st.in_probation();
            let events = st.take_events();
            // Committed ops may have expired leases; drain the feed
            // under the same lock acquisition.
            let expired = if events.is_empty() {
                Vec::new()
            } else {
                st.state_mut().take_expired()
            };
            let live = st.state().allocations_len();
            (out, events, expired, live, ended)
        };
        if probation_ended {
            ocs_telemetry::NodeTelemetry::of(&*self.rt).journal.record(
                self.rt.now(),
                "cm-vsr",
                "recovery probation ended",
            );
        }
        for d in expired {
            self.metrics.expired.inc();
            self.metrics.journal.record(
                self.rt.now(),
                "cm",
                format!(
                    "lease expired: conn {} (settop {}, {} bps reclaimed)",
                    d.conn, d.settop, d.down_bps
                ),
            );
        }
        if !events.is_empty() {
            self.metrics.active_allocs.set(live as i64);
            self.apply_events(events);
            self.fan.progressed();
        }
        out
    }

    /// Engine-event post-processing: telemetry and the flight recorder.
    fn apply_events(self: &Arc<Self>, events: Vec<VsrEvent<CmUpdate>>) {
        let tel = ocs_telemetry::NodeTelemetry::of(&*self.rt);
        let reg = &tel.registry;
        for ev in events {
            match ev {
                VsrEvent::Committed { .. } => {
                    reg.counter("cm.vsr.commits").inc();
                }
                VsrEvent::Suspected { view } => {
                    reg.counter("cm.vsr.suspects").inc();
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
                            "cm-vsr",
                            format!("view change started: proposing view {view}"),
                        );
                    }
                    self.rt
                        .trace(&format!("cm: vsr suspect, proposing view {view}"));
                }
                VsrEvent::ViewChanged { view, primary } => {
                    reg.counter("cm.vsr.view_changes").inc();
                    reg.gauge("cm.vsr.view").set(view as i64);
                    if let Some(started) = self.drv.lock().vc_started.take() {
                        let us = self.rt.now().saturating_since(started).as_micros() as u64;
                        reg.histo("cm.vsr.view_change_us").observe(us);
                    }
                    tel.journal.record(
                        self.rt.now(),
                        "cm-vsr",
                        format!("view change committed: view {view} primary {primary}"),
                    );
                    self.rt
                        .trace(&format!("cm: vsr entered view {view} (primary {primary})"));
                }
                VsrEvent::Aborted { view } => {
                    reg.counter("cm.vsr.vc_aborted").inc();
                    self.drv.lock().vc_started = None;
                    tel.journal.record(
                        self.rt.now(),
                        "cm-vsr",
                        format!("view change to {view} aborted: primary still healthy"),
                    );
                }
                VsrEvent::CaughtUp { via_snapshot } => {
                    let name = if via_snapshot {
                        "cm.vsr.state_transfer_snapshot"
                    } else {
                        "cm.vsr.state_transfer_log"
                    };
                    reg.counter(name).inc();
                    tel.journal.record(
                        self.rt.now(),
                        "cm-vsr",
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
    fn drive_prepare(self: &Arc<Self>, prep: CmPrepare) -> Result<u64, MediaError> {
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
                    .counter("cm.vsr.superseded")
                    .inc();
                Err(MediaError::Dependency {
                    what: "cm: op superseded by view change".into(),
                })
            }
            // Sequenced but not committed: no quorum reachable.
            OpOutcome::Pending => Err(MediaError::Dependency {
                what: "cm: no replication quorum".into(),
            }),
        }
    }

    /// Applies an op on this replica as primary, without forwarding. The
    /// primary re-stamps the op with its own clock so a forwarding
    /// backup's (or a retrying client's) stale stamp never enters the
    /// log.
    fn master_submit(self: &Arc<Self>, mut op: CmUpdate) -> Result<u64, MediaError> {
        op.stamp(self.now_us());
        match self.with_engine(|c| c.client_op(op)) {
            Ok(prep) => self.drive_prepare(prep),
            Err(_) => Err(MediaError::Dependency {
                what: "cm: no master".into(),
            }),
        }
    }

    /// Routes a client op: sequence here if primary, forward to the
    /// primary if backup. Fails fast mid-view-change; the client retries
    /// with the same token.
    fn submit_op(self: &Arc<Self>, mut op: CmUpdate) -> Result<u64, MediaError> {
        op.stamp(self.now_us());
        match self.with_engine(|c| c.client_op(op.clone())) {
            Ok(prep) => self.drive_prepare(prep),
            Err(SubmitRoute::Forward(p)) => self.peer_client(p)?.forward_op(op),
            Err(SubmitRoute::Unavailable) => Err(MediaError::Dependency {
                what: "cm: no master".into(),
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
            self.maybe_expire_tick();
            // Straggler acks of commits answered at the first ack.
            self.fan
                .drain(usize::MAX, |i, ack| self.with_engine(|c| c.on_ack(i, ack)));
            {
                let st = self.st.lock();
                let reg = &ocs_telemetry::NodeTelemetry::of(&*self.rt).registry;
                reg.gauge("cm.vsr.view").set(st.view() as i64);
                reg.gauge("cm.vsr.commit_gap").set(st.commit_gap() as i64);
            }
            self.rt.sleep(tick);
        }
    }

    /// Submits a lease-expiry tick as the master, a few times per TTL:
    /// replicated expiry means every replica reclaims the same leases at
    /// the same log positions.
    fn maybe_expire_tick(self: &Arc<Self>) {
        let Some(ttl) = self.cfg.lease_ttl else { return };
        let interval = ttl / 4;
        let due = {
            let st = self.st.lock();
            if !st.is_master() {
                return;
            }
            let now = self.rt.now();
            let mut drv = self.drv.lock();
            if now.saturating_since(drv.last_expire) >= interval {
                drv.last_expire = now;
                true
            } else {
                false
            }
        };
        if due {
            let _ = self.master_submit(CmUpdate::Expire { now_us: 0 });
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
    fn deliver_dvc(self: &Arc<Self>, new_primary: u32, dvc: CmDvc) {
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
    fn broadcast_start_view(self: &Arc<Self>, sv: CmSv) {
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

/// Servant view of the client-facing `CmApi`.
struct ApiView {
    core: Arc<CmCore>,
}

impl CmApi for ApiView {
    fn allocate(
        &self,
        _caller: &Caller,
        token: u64,
        settop: NodeId,
        server: NodeId,
        down_bps: u64,
    ) -> Result<u64, MediaError> {
        let out = self.core.submit_op(CmUpdate::Allocate {
            token,
            settop,
            server,
            down_bps,
            now_us: 0,
        });
        match &out {
            Ok(conn) => {
                self.core.metrics.accepted.inc();
                self.core.metrics.journal.record(
                    self.core.rt.now(),
                    "cm",
                    format!("lease granted: conn {conn} settop {settop} {down_bps} bps"),
                );
            }
            Err(MediaError::NoBandwidth) => self.core.metrics.rejected.inc(),
            Err(_) => {}
        }
        out
    }

    fn release(&self, _caller: &Caller, conn: u64) -> Result<(), MediaError> {
        let out = self.core.submit_op(CmUpdate::Release { conn, now_us: 0 });
        if out.is_ok() {
            self.core.metrics.released.inc();
        }
        out.map(|_| ())
    }

    fn reassert(&self, _caller: &Caller, desc: ConnDesc) -> Result<(), MediaError> {
        let known = self
            .core
            .st
            .lock()
            .state()
            .allocation(desc.conn)
            .is_some();
        let out = self.core.submit_op(CmUpdate::Reassert { desc, now_us: 0 });
        if out.is_ok() && !known {
            self.core.metrics.reasserted.inc();
            self.core.metrics.journal.record(
                self.core.rt.now(),
                "cm",
                format!(
                    "lease reasserted: conn {} settop {} re-admitted after restart",
                    desc.conn, desc.settop
                ),
            );
        }
        out.map(|_| ())
    }

    fn usage(&self, _caller: &Caller) -> Result<CmUsage, MediaError> {
        Ok(self.core.st.lock().state().usage())
    }

    fn accounting(&self, _caller: &Caller) -> Result<Vec<CmAccountRow>, MediaError> {
        let now = self.core.now_us();
        Ok(self.core.st.lock().state().accounting(now))
    }
}

/// Servant view of the VSR replica-to-replica protocol.
struct PeerView {
    core: Arc<CmCore>,
}

impl CmPeer for PeerView {
    fn prepare(
        &self,
        _caller: &Caller,
        view: u64,
        entry_view: u64,
        op_num: u64,
        commit_num: u64,
        update: CmUpdate,
    ) -> Result<ocs_vsr::PeerAck, MediaError> {
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
    ) -> Result<ocs_vsr::PeerAck, MediaError> {
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
    ) -> Result<ocs_vsr::SvcAck, MediaError> {
        let now = self.core.rt.now();
        Ok(self
            .core
            .with_engine(|c| c.on_start_view_change(view, forced, now)))
    }

    fn view_change_go(&self, _caller: &Caller, view: u64) -> Result<(), MediaError> {
        if let Some(dvc) = self.core.with_engine(|c| c.emit_dvc(view)) {
            let new_primary = (view % self.core.cfg.peers.len() as u64) as u32;
            self.core.deliver_dvc(new_primary, dvc);
        }
        Ok(())
    }

    fn do_view_change(&self, _caller: &Caller, dvc: CmDvc) -> Result<(), MediaError> {
        let now = self.core.rt.now();
        if let Some(sv) = self.core.with_engine(|c| c.on_do_view_change(dvc, now)) {
            self.core.broadcast_start_view(sv);
        }
        Ok(())
    }

    fn start_view(&self, _caller: &Caller, sv: CmSv) -> Result<ocs_vsr::PeerAck, MediaError> {
        let now = self.core.rt.now();
        Ok(self.core.with_engine(|c| c.on_start_view(sv, now)))
    }

    fn get_state(&self, _caller: &Caller, from_op: u64) -> Result<CmXfer, MediaError> {
        Ok(self.core.st.lock().on_get_state(from_op))
    }

    fn forward_op(&self, _caller: &Caller, op: CmUpdate) -> Result<u64, MediaError> {
        self.core.master_submit(op)
    }
}
