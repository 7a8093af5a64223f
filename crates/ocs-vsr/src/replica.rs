//! The replica driver: everything around the pure [`VsrCore`] engine
//! that does I/O or reads a clock, written once for every replicated
//! group.
//!
//! A [`Replica`] owns its group member's ORB endpoint and exports two
//! objects on it: the service's own client-facing root servant (handed
//! in by the service) and the VSR peer servant (`fanout.rs`). One
//! process runs [`Replica::vsr_loop`] — recovery probe, heartbeat round,
//! catch-up or view change, whichever the engine's state calls for.
//!
//! Client ops enter through [`Replica::submit_then`], which waits for
//! nothing: the view primary stamps the op, sequences it, sends
//! `prepare` to every backup at once from its peer endpoint and owes the
//! op's continuation the viewstamped outcome; a backup forwards the op
//! to the primary from the same endpoint. The ack that commits the op —
//! or the primary's reply to a forward — is handled where it lands, and
//! answers. [`Replica::submit`] is the same path plus a wait, for the
//! callers that block anyway. A second process, [`Replica::expiry_loop`],
//! runs while ops are owed and refuses what no quorum decided in time.
//!
//! Every engine step goes through [`Replica::with_engine`], which turns
//! the events the step produced into the group's `<group>.vsr.*`
//! metrics and `<group>-vsr` journal lines, runs the machine's
//! [`Replicated::post_step`], and answers the ops the step decided.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::{self, Display};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

use ocs_orb::bytes::Bytes;
use ocs_orb::{NoAuth, ObjRef, Orb, OrbError, Servant};
use ocs_sim::sync::SyncObj;
use ocs_sim::{Addr, NetError, NodeRtExt, PortReq, Rt, SimTime};
use ocs_telemetry::{Counter, Gauge, Histo, Journal, NodeTelemetry};
use ocs_wire::Wire;
use parking_lot::Mutex;

use crate::fanout::{decode, PeerCall, PeerFanout, PeerServant, PEER_OBJ};
use crate::{
    DoViewChange, DvcStep, Machine, OpNum, OpOutcome, PeerAck, Refusal, Replicated, StartView,
    StateTransfer, SubmitRoute, View, VsrCore, VsrEvent, VsrStatus,
};

/// A client op's continuation: called once, with the op's outcome, on
/// whichever thread decides it — the one an ack or a forwarded op's
/// reply landed on, the expiry loop's, or the submitter's own when the
/// op is refused or commits at once.
pub type Done<M> = Box<dyn FnOnce(&Replica<M>, <M as Machine>::Outcome) + Send>;

/// Entries re-sent to one lagging backup per heartbeat round.
const RESEND_BATCH: usize = 32;

/// The replication parameters of one group member — what every group's
/// configuration has in common.
#[derive(Clone, Debug)]
pub struct ReplicaConfig {
    /// This replica's index into `peers`.
    pub replica_id: u32,
    /// The request endpoints of all replicas (including this one).
    pub peers: Vec<Addr>,
    /// Primary → backup heartbeat period.
    pub heartbeat_interval: Duration,
    /// Base primary-suspect timeout: how long a backup tolerates primary
    /// silence before proposing a view change (staggered per replica
    /// id, see [`ReplicaConfig::suspect_timeout`]).
    pub election_timeout: Duration,
    /// Timeout for replica-to-replica calls.
    pub peer_timeout: Duration,
    /// Committed log entries retained past the commit point for peer
    /// catch-up; a replica further behind recovers by snapshot transfer.
    pub log_retention: u64,
}

impl ReplicaConfig {
    /// The paper's deployed parameters (§9.7) for a replica group.
    pub fn paper_defaults(replica_id: u32, peers: Vec<Addr>) -> ReplicaConfig {
        ReplicaConfig {
            replica_id,
            peers,
            heartbeat_interval: Duration::from_secs(2),
            election_timeout: Duration::from_secs(5),
            peer_timeout: Duration::from_millis(800),
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

/// The group's metric handles, resolved once at start: the commit path
/// does no lookup by name.
struct Metrics {
    commits: Arc<Counter>,
    suspects: Arc<Counter>,
    view_changes: Arc<Counter>,
    vc_aborted: Arc<Counter>,
    state_transfer_snapshot: Arc<Counter>,
    state_transfer_log: Arc<Counter>,
    /// `get_state` answers this replica sent with its committed state.
    snapshots_sent: Arc<Counter>,
    superseded: Arc<Counter>,
    view: Arc<Gauge>,
    commit_gap: Arc<Gauge>,
    view_change_us: Arc<Histo>,
    journal: Arc<Journal>,
}

impl Metrics {
    /// The `<group>.vsr.*` family on `rt`'s node.
    fn of(rt: &Rt, group: &str) -> Metrics {
        let tel = NodeTelemetry::of(&**rt);
        let name = |metric: &str| format!("{group}.vsr.{metric}");
        let counter = |metric| tel.registry.counter(&name(metric));
        Metrics {
            commits: counter("commits"),
            suspects: counter("suspects"),
            view_changes: counter("view_changes"),
            vc_aborted: counter("vc_aborted"),
            state_transfer_snapshot: counter("state_transfer_snapshot"),
            state_transfer_log: counter("state_transfer_log"),
            snapshots_sent: counter("snapshots_sent"),
            superseded: counter("superseded"),
            view: tel.registry.gauge(&name("view")),
            commit_gap: tel.registry.gauge(&name("commit_gap")),
            view_change_us: tel.registry.histo(&name("view_change_us")),
            journal: Arc::clone(&tel.journal),
        }
    }
}

/// Driver-side bookkeeping next to the engine.
struct Driver {
    /// Last heartbeat round the primary ran.
    last_hb_round: SimTime,
    /// When the ongoing view change was first suspected (fail-over
    /// latency clock, reported on `<group>.vsr.view_change_us`).
    vc_started: Option<SimTime>,
}

/// One engine state dump, for test failure diagnostics and — later — a
/// status servant.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplicaStatus {
    /// The current view.
    pub view: View,
    /// Normal, or between views.
    pub status: VsrStatus,
    /// Whether this replica is its view's primary.
    pub primary: bool,
    /// Whether it can sequence updates (primary, with a quorum, out of
    /// probation).
    pub master: bool,
    /// Whether it is still in start-up/recovery probation.
    pub probation: bool,
    /// Whether it saw a gap or a higher view and owes a state transfer.
    pub catch_up: bool,
    /// Log end.
    pub op: OpNum,
    /// Commit number.
    pub commit: OpNum,
    /// The machine's own line ([`Replicated::describe`]).
    pub machine: String,
}

impl Display for ReplicaStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "view={} status={:?} primary={} master={} probation={} catchup={} op={} commit={}",
            self.view,
            self.status,
            self.primary,
            self.master,
            self.probation,
            self.catch_up,
            self.op,
            self.commit,
        )?;
        if !self.machine.is_empty() {
            write!(f, " {}", self.machine)?;
        }
        Ok(())
    }
}

/// One member of a replicated group: machine `M` on the VSR log.
pub struct Replica<M: Replicated> {
    rt: Rt,
    cfg: ReplicaConfig,
    /// The `<group>` of [`Replicated::CHANNEL`].
    group: &'static str,
    st: Mutex<VsrCore<M>>,
    drv: Mutex<Driver>,
    ctx: M::Ctx,
    metrics: Metrics,
    /// Every call to the other replicas goes through here.
    fan: PeerFanout,
    /// The client ops this replica still owes an outcome. Locked under
    /// `st` where both are held.
    owed: Mutex<Owed<M>>,
    /// Bumped whenever an op a blocking [`Replica::submit`] waits for is
    /// answered.
    settled: Arc<dyn SyncObj>,
    /// This replica, for the expiry loop it starts on demand.
    me: Weak<Replica<M>>,
    /// Set by [`Replica::start`]: the root object's reference, and the
    /// ORB — weakly, because the ORB owns the servants and the servants
    /// own the replica. Its served port keeps the ORB alive.
    started: OnceLock<(ObjRef, Weak<Orb>)>,
}

/// The client ops a replica owes an outcome, each with when it is
/// refused if still undecided. Each map's keys grow with time, so its
/// first entry is the first due.
struct Owed<M: Replicated> {
    /// Sequenced here as the view primary, by viewstamp: refused
    /// `NoQuorum` `2 × peer_timeout` after sequencing.
    sequenced: BTreeMap<(View, OpNum), Waiter<M>>,
    /// Forwarded to the primary, by the number its call carries: refused
    /// `Comm { Timeout }` one `peer_timeout` after forwarding.
    forwarded: BTreeMap<u64, Waiter<M>>,
    next_forward: u64,
    /// Whether no expiry loop runs: the next op owed starts one.
    idle: bool,
}

/// An owed op's continuation and deadline.
struct Waiter<M: Replicated> {
    deadline: SimTime,
    done: Done<M>,
}

impl<M: Replicated> Owed<M> {
    /// When the first owed op is due.
    fn next_deadline(&self) -> Option<SimTime> {
        let sequenced = self.sequenced.values().next().map(|w| w.deadline);
        let forwarded = self.forwarded.values().next().map(|w| w.deadline);
        sequenced.into_iter().chain(forwarded).min()
    }
}

impl<M: Replicated> Replica<M> {
    /// Group member `cfg.replica_id` over `machine` (every replica of a
    /// group must construct an identical one). Nothing runs and no port
    /// is open until [`Replica::start`]; in between, the service builds
    /// the root servant that needs the replica.
    ///
    /// # Panics
    ///
    /// Panics on a configuration no deployment could mean: an id outside
    /// `peers`, an address on another node, a zero heartbeat interval.
    pub fn new(rt: Rt, cfg: ReplicaConfig, machine: M, ctx: M::Ctx) -> Arc<Replica<M>> {
        let group = M::CHANNEL
            .strip_suffix("-vsr")
            .expect("Replicated::CHANNEL is \"<group>-vsr\"");
        assert!(
            (cfg.replica_id as usize) < cfg.peers.len(),
            "{group} replica {} is not among its {} peers",
            cfg.replica_id,
            cfg.peers.len()
        );
        assert_eq!(
            cfg.peers[cfg.replica_id as usize].node,
            rt.node(),
            "{group} replica {} configured for a different node",
            cfg.replica_id
        );
        assert!(
            !cfg.heartbeat_interval.is_zero(),
            "{group} replica: heartbeat_interval paces the driver loop and must be nonzero"
        );
        let now = rt.now();
        let engine = VsrCore::with_machine(
            machine,
            cfg.replica_id,
            cfg.peers.len(),
            cfg.log_retention,
            cfg.suspect_timeout(),
            now,
        );
        Arc::new_cyclic(|me| Replica {
            me: me.clone(),
            metrics: Metrics::of(&rt, group),
            settled: rt.make_sync(),
            owed: Mutex::new(Owed {
                sequenced: BTreeMap::new(),
                forwarded: BTreeMap::new(),
                next_forward: 0,
                idle: true,
            }),
            fan: PeerFanout::new(
                rt.clone(),
                cfg.peer_timeout,
                cfg.replica_id,
                &cfg.peers,
                M::PEER_INTERFACE,
            ),
            rt,
            cfg,
            group,
            st: Mutex::new(engine),
            drv: Mutex::new(Driver {
                last_hb_round: now,
                vc_started: None,
            }),
            ctx,
            started: OnceLock::new(),
        })
    }

    /// Opens the replica's endpoint, exports `root` — the service's
    /// client-facing servant — as the stable root object and the peer
    /// servant next to it, opens the peer endpoint every call to the
    /// other replicas leaves from, and spawns the driver loop.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn start(self: &Arc<Self>, root: Arc<dyn Servant>) -> Result<(), NetError> {
        let orb = Orb::build(
            self.rt.clone(),
            PortReq::Fixed(self.addr().port),
            Some(ObjRef::STABLE),
            Arc::new(NoAuth),
        )?;
        let root = orb.export_root(root);
        orb.export_at(PEER_OBJ, Arc::new(PeerServant(Arc::clone(self))));
        assert!(
            self.started.set((root, Arc::downgrade(&orb))).is_ok(),
            "Replica::start called twice"
        );
        let me = Arc::downgrade(self);
        self.fan.open(Box::new(move |call, reply| {
            if let Some(me) = me.upgrade() {
                me.on_reply(call, reply);
            }
        }))?;
        orb.start();
        if self.in_probation() {
            self.journal(format!(
                "{} replica {} starting in recovery probation",
                self.group, self.cfg.replica_id
            ));
        }
        let me = Arc::clone(self);
        self.rt.spawn_fn(M::CHANNEL, move || me.vsr_loop());
        Ok(())
    }

    // ---- accessors -----------------------------------------------------

    /// The node runtime this replica runs on.
    pub fn rt(&self) -> &Rt {
        &self.rt
    }

    /// The request endpoints of all replicas, indexed by replica id.
    pub fn peers(&self) -> &[Addr] {
        &self.cfg.peers
    }

    /// This replica's own request endpoint.
    pub fn addr(&self) -> Addr {
        self.cfg.peers[self.cfg.replica_id as usize]
    }

    /// The machine's driver-side companions.
    pub fn ctx(&self) -> &M::Ctx {
        &self.ctx
    }

    /// The stable reference to this replica's root servant (valid
    /// across replica restarts).
    ///
    /// # Panics
    ///
    /// Panics before [`Replica::start`]: there is no root object yet.
    pub fn root_ref(&self) -> ObjRef {
        self.started.get().expect("replica not started").0
    }

    /// The replica's ORB, while its port is open.
    pub fn orb(&self) -> Option<Arc<Orb>> {
        self.started.get()?.1.upgrade()
    }

    /// Whether this replica is the view primary with a quorum.
    pub fn is_master(&self) -> bool {
        self.st.lock().is_master()
    }

    /// The current view number.
    pub fn view(&self) -> View {
        self.st.lock().view()
    }

    /// Sequence number of the last committed (applied) update.
    pub fn last_seq(&self) -> OpNum {
        self.st.lock().commit_num()
    }

    /// Whether the replica is still in start-up/recovery probation.
    pub fn in_probation(&self) -> bool {
        self.st.lock().in_probation()
    }

    /// Reads the engine — and through [`VsrCore::state`] the machine —
    /// under its lock. Reads are local (§4.6) and may trail the primary
    /// by the commit gap.
    pub fn read<R>(&self, f: impl FnOnce(&VsrCore<M>) -> R) -> R {
        f(&self.st.lock())
    }

    /// Takes a commit point the primary of `view` reported outside its
    /// heartbeat — with the answer to a read a stale backup forwarded to
    /// it — as its heartbeat would be taken: applies what this backup
    /// holds through `commit`.
    pub fn learn_commit(&self, view: View, commit: OpNum) {
        let now = self.rt.now();
        self.with_engine(|c| c.on_commit_hb(view, commit, now));
    }

    /// The engine's state in one struct.
    pub fn status(&self) -> ReplicaStatus {
        self.read(|c| ReplicaStatus {
            view: c.view(),
            status: c.status(),
            primary: c.is_primary(),
            master: c.is_master(),
            probation: c.in_probation(),
            catch_up: c.needs_catchup(),
            op: c.op_num(),
            commit: c.commit_num(),
            machine: c.state().describe(),
        })
    }

    fn journal(&self, line: impl Into<Cow<'static, str>>) {
        self.metrics.journal.record(self.rt.now(), M::CHANNEL, line);
    }

    // ---- engine access -------------------------------------------------

    /// Runs `f` against the engine, then post-processes the events it
    /// produced and answers the ops it decided. Never call engine
    /// methods while making RPCs — every peer call in this module
    /// happens with the lock released.
    pub(crate) fn with_engine<R>(&self, f: impl FnOnce(&mut VsrCore<M>) -> R) -> R {
        let (out, events, probation_ended, decided) = {
            let mut st = self.st.lock();
            let before = st.in_probation();
            let out = f(&mut st);
            let ended = before && !st.in_probation();
            let events = st.take_events();
            let mut decided = Vec::new();
            if !events.is_empty() {
                st.state_mut().post_step(&self.ctx, &events);
                // An op's outcome can have changed: a commit, a view
                // change, an installed state.
                let commit = st.commit_num();
                decided.extend(
                    self.owed
                        .lock()
                        .sequenced
                        .extract_if(.., |&(_, op), _| op <= commit)
                        .map(|((view, op), w)| (w.done, st.outcome_of(view, op))),
                );
            }
            (out, events, ended, decided)
        };
        if probation_ended {
            // Both exit paths (recovery-quorum probe and StartView) funnel
            // through here, so the flight recorder sees every one.
            self.journal("recovery probation ended");
        }
        for ev in events {
            self.note_event(ev);
        }
        for (done, fate) in decided {
            done(self, self.outcome(fate));
        }
        out
    }

    /// One engine event into the metrics and the flight recorder.
    fn note_event(&self, ev: VsrEvent<M::Op>) {
        let m = &self.metrics;
        match ev {
            VsrEvent::Committed { .. } => m.commits.inc(),
            VsrEvent::Suspected { view } => {
                m.suspects.inc();
                let first = {
                    let mut drv = self.drv.lock();
                    let first = drv.vc_started.is_none();
                    drv.vc_started.get_or_insert(self.rt.now());
                    first
                };
                if first {
                    self.journal(format!("view change started: proposing view {view}"));
                }
            }
            VsrEvent::ViewChanged { view, primary } => {
                m.view_changes.inc();
                m.view.set(view as i64);
                if let Some(started) = self.drv.lock().vc_started.take() {
                    let us = self.rt.now().saturating_since(started).as_micros() as u64;
                    m.view_change_us.observe(us);
                }
                self.journal(format!(
                    "view change committed: view {view} primary {primary}"
                ));
            }
            VsrEvent::Aborted { view } => {
                m.vc_aborted.inc();
                self.drv.lock().vc_started = None;
                self.journal(format!(
                    "view change to {view} aborted: primary still healthy"
                ));
            }
            VsrEvent::CaughtUp { via_snapshot: true } => {
                m.state_transfer_snapshot.inc();
                self.journal("caught up via snapshot state transfer");
            }
            VsrEvent::CaughtUp {
                via_snapshot: false,
            } => {
                m.state_transfer_log.inc();
                self.journal("caught up via log replay");
            }
        }
    }

    // ---- update path ---------------------------------------------------

    /// Routes a client op — sequenced here if this replica is the view
    /// primary, forwarded to the primary if it is a backup — and hands
    /// `done` its outcome when that is decided; waits for nothing. Fails
    /// fast mid-view-change; the client (or its rebind library, §8.2)
    /// retries.
    pub fn submit_then(&self, op: M::Op, done: Done<M>) {
        self.route(op, done, true);
    }

    /// [`Replica::submit_then`] as primary, without forwarding — what a
    /// forwarded op goes through.
    pub(crate) fn master_submit_then(&self, op: M::Op, done: Done<M>) {
        self.route(op, done, false);
    }

    /// [`Replica::submit_then`], waiting for the outcome.
    pub fn submit(&self, op: M::Op) -> M::Outcome {
        self.wait_for(|done| self.submit_then(op, done))
    }

    /// [`Replica::submit`] as primary, without forwarding — what the
    /// machine's own master-side ops (audit unbinds, expiry ticks) go
    /// through.
    pub fn master_submit(&self, op: M::Op) -> M::Outcome {
        self.wait_for(|done| self.master_submit_then(op, done))
    }

    /// The primary stamps the op and sequences it, owing `done` the
    /// outcome keyed by the viewstamp `(view, op)` it assigned — never
    /// the op number alone: if we are deposed mid-wait and a view change
    /// commits a *different* update at our op number, the client must
    /// hear failure — its write may be lost, and it retries
    /// (idempotently, where the machine's ops carry a token) — not the
    /// replacement's success. Then one `prepare` goes to every backup at
    /// once.
    fn route(&self, mut op: M::Op, done: Done<M>, forward: bool) {
        let now = self.rt.now();
        M::stamp(&mut op, now.as_micros());
        let kept = forward.then(|| op.clone());
        let routed = self.with_engine(move |c| match c.client_op(op) {
            Ok(prep) => {
                // Owed before the prepares leave: the ack that commits
                // the op may land on another thread before they are out.
                let deadline = now + self.cfg.peer_timeout * 2;
                let idle = self.owe(|owed| {
                    let key = (prep.view, prep.op_num);
                    owed.sequenced.insert(key, Waiter { deadline, done });
                });
                Ok((prep, idle))
            }
            Err(route) => Err((route, done)),
        });
        let done = match routed {
            Ok((prep, idle)) => {
                self.fan.prepare(&prep);
                return self.expire_from(idle);
            }
            Err((SubmitRoute::Forward(primary), done)) => match kept {
                Some(op) => return self.forward(primary, &op, done),
                None => done,
            },
            Err((SubmitRoute::Unavailable, done)) => done,
        };
        done(self, M::refused(Refusal::NoMaster));
    }

    /// Forwards `op` to the primary from the peer endpoint, owing `done`
    /// the outcome its reply brings.
    fn forward(&self, primary: u32, op: &M::Op, done: Done<M>) {
        let deadline = self.rt.now() + self.cfg.peer_timeout;
        let mut n = 0;
        let idle = self.owe(|owed| {
            n = owed.next_forward;
            owed.next_forward += 1;
            owed.forwarded.insert(n, Waiter { deadline, done });
        });
        if let Err(err) = self.fan.forward(primary, op, n) {
            let w = self.owed.lock().forwarded.remove(&n);
            if let Some(w) = w {
                (w.done)(self, M::refused(Refusal::Comm { err }));
            }
        }
        self.expire_from(idle);
    }

    /// Records an owed op; whether no expiry loop ran, so that one must
    /// be started for it ([`Replica::expire_from`]).
    fn owe(&self, add: impl FnOnce(&mut Owed<M>)) -> bool {
        let mut owed = self.owed.lock();
        add(&mut owed);
        std::mem::take(&mut owed.idle)
    }

    /// Starts the expiry loop if none runs (`idle`). A group of one
    /// commits at sequencing: nothing of its comes due.
    fn expire_from(&self, idle: bool) {
        let me = self
            .me
            .upgrade()
            .filter(|_| idle && self.cfg.peers.len() > 1);
        if let Some(me) = me {
            self.rt.spawn_fn(M::CHANNEL, move || me.expiry_loop());
        }
    }

    /// What an op's viewstamped fate tells its client. `Pending` is an op
    /// sequenced but not committed in time: no quorum is reachable. It
    /// may still commit after a heal; clients treat this like a master
    /// outage and retry.
    fn outcome(&self, fate: OpOutcome<M::Outcome>) -> M::Outcome {
        match fate {
            OpOutcome::Done(result) => result,
            OpOutcome::Superseded => {
                self.metrics.superseded.inc();
                M::refused(Refusal::Superseded)
            }
            OpOutcome::Pending => M::refused(Refusal::NoQuorum),
        }
    }

    /// What a call from the peer endpoint came back with, where it
    /// landed: a backup's ack goes to the engine (and so answers what it
    /// commits), a forwarded op's outcome to its continuation.
    fn on_reply(&self, call: PeerCall, reply: Result<Bytes, OrbError>) {
        match call {
            PeerCall::Prepare(peer) => {
                if let Some(ack) = decode::<PeerAck>(reply) {
                    self.with_engine(|c| c.on_ack(peer, &ack));
                }
            }
            PeerCall::Forward(n) => {
                // Gone if it timed out first.
                let Some(w) = self.owed.lock().forwarded.remove(&n) else {
                    return;
                };
                let out = reply.and_then(|body| {
                    M::Outcome::from_bytes(&body).map_err(|e| OrbError::Decode {
                        what: e.to_string(),
                    })
                });
                (w.done)(
                    self,
                    out.unwrap_or_else(|err| M::refused(Refusal::Comm { err })),
                );
            }
        }
    }

    /// Starts an op with a continuation that wakes this thread, and
    /// waits for its outcome: by `2 × peer_timeout` it is decided or
    /// refused; past one more, the replica is taken to have died with the
    /// op (`NoQuorum`).
    fn wait_for(&self, start: impl FnOnce(Done<M>)) -> M::Outcome {
        let slot: Arc<Mutex<Option<M::Outcome>>> = Arc::default();
        let (put, settled) = (Arc::clone(&slot), Arc::clone(&self.settled));
        start(Box::new(move |_, out| {
            *put.lock() = Some(out);
            settled.bump();
        }));
        let give_up = self.rt.now() + self.cfg.peer_timeout * 3;
        loop {
            let seen = self.settled.generation();
            if let Some(out) = slot.lock().take() {
                return out;
            }
            let now = self.rt.now();
            if now >= give_up {
                return M::refused(Refusal::NoQuorum);
            }
            self.settled.wait_newer(seen, Some(give_up - now));
        }
    }

    /// Refuses the owed ops nothing decided in time: a sequenced one
    /// still undecided `2 × peer_timeout` after sequencing (`NoQuorum`),
    /// a forwarded one unanswered one `peer_timeout` after forwarding
    /// (`Comm { Timeout }`). Sleeps to the next deadline, but never
    /// longer than one `peer_timeout` — whatever becomes owed meanwhile
    /// is due no sooner than it looks again — and so wakes nobody while
    /// ops come. Found nothing owed twice running, it ends, and the next
    /// op owed starts it again: an idle group runs no expiry loop.
    fn expiry_loop(&self) {
        let most = self.cfg.peer_timeout;
        let mut quiet = false;
        loop {
            let now = self.rt.now();
            let (due, next) = {
                let st = self.st.lock();
                let mut owed = self.owed.lock();
                let mut due: Vec<(Done<M>, OpOutcome<M::Outcome>)> = owed
                    .sequenced
                    .extract_if(.., |_, w| w.deadline <= now)
                    .map(|((view, op), w)| (w.done, st.outcome_of(view, op)))
                    .collect();
                let timeout = || {
                    M::refused(Refusal::Comm {
                        err: OrbError::Timeout,
                    })
                };
                due.extend(
                    owed.forwarded
                        .extract_if(.., |_, w| w.deadline <= now)
                        .map(|(_, w)| (w.done, OpOutcome::Done(timeout()))),
                );
                let next = owed.next_deadline();
                owed.idle = next.is_none() && quiet;
                quiet = next.is_none();
                let look = next.map_or(now + most, |at| at.min(now + most));
                (due, (!owed.idle).then_some(look))
            };
            for (done, fate) in due {
                done(self, self.outcome(fate));
            }
            let Some(look) = next else { return };
            self.rt.sleep(look.saturating_since(now));
        }
    }

    // ---- the driver loop -----------------------------------------------

    fn vsr_loop(&self) {
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
                    let mut drv = self.drv.lock();
                    if now.saturating_since(drv.last_hb_round) >= self.cfg.heartbeat_interval {
                        drv.last_hb_round = now;
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
            M::master_tick(self);
            // The peer endpoint's calls no reply came for end here (a
            // forwarded op's client was answered at its own deadline).
            self.fan.expire(self.rt.now());
            {
                let st = self.st.lock();
                self.metrics.view.set(st.view() as i64);
                self.metrics.commit_gap.set(st.commit_gap() as i64);
            }
            self.rt.sleep(tick);
        }
    }

    /// One primary heartbeat round: broadcast the commit point, absorb
    /// the watermark acks, re-send log entries to lagging backups, and
    /// track quorum contact (§4.6 step-down on lost quorum).
    fn heartbeat_round(&self) {
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
    fn resend_to(&self, peer: u32, view: View, from: OpNum) {
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
        for e in entries.into_iter().take(RESEND_BATCH) {
            let commit = self.st.lock().commit_num();
            let Some(ack) = self.fan.resend_prepare(peer, view, &e, commit) else {
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
    fn run_view_change(&self) {
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
        self.fan.view_change_go(&joiners, proposed);
        if let Some(dvc) = self.with_engine(|c| c.emit_dvc(proposed)) {
            self.deliver_dvc(dvc);
        }
    }

    /// Routes a `DoViewChange` to its view's primary — locally when
    /// that is this replica, by RPC otherwise.
    pub(crate) fn deliver_dvc(&self, dvc: DoViewChange<M::Op>) {
        let new_primary = (dvc.view % self.cfg.peers.len() as u64) as u32;
        if new_primary == self.cfg.replica_id {
            self.accept_dvc(dvc);
        } else {
            self.fan.do_view_change(new_primary, &dvc);
        }
    }

    /// Takes a `DoViewChange` as the new primary; with a majority of
    /// them in, announces the chosen log — after fetching the committed
    /// state it lacks from the chosen log's sender, if it lacks any.
    pub(crate) fn accept_dvc(&self, dvc: DoViewChange<M::Op>) {
        let now = self.rt.now();
        let sv = match self.with_engine(|c| c.on_do_view_change(dvc, now)) {
            DvcStep::Wait => return,
            DvcStep::Start(sv) => sv,
            DvcStep::Fetch { peer, from_op } => {
                let st = self.fan.get_state(peer, from_op, true);
                let now = self.rt.now();
                let Some(sv) = self.with_engine(|c| c.on_chosen_state(st, now)) else {
                    return;
                };
                sv
            }
        };
        self.broadcast_start_view(sv);
    }

    /// New primary → backups: announce the chosen log. The acks double
    /// as prepare-oks, so the carried tail usually commits in-round.
    fn broadcast_start_view(&self, sv: StartView<M::Op>) {
        self.fan
            .start_view(&sv, |i, ack| self.with_engine(|c| c.on_ack(i, ack)));
        self.drv.lock().last_hb_round = self.rt.now();
    }

    /// Answers a peer's `get_state`, counting the answers that carry the
    /// committed state.
    pub(crate) fn serve_state(
        &self,
        from_op: OpNum,
        snapshot_ok: bool,
    ) -> StateTransfer<M::Op, M::Snap> {
        let st = self.read(|c| c.on_get_state(from_op, snapshot_ok));
        if st.snapshot.is_some() {
            self.metrics.snapshots_sent.inc();
        }
        st
    }

    /// The freshest authoritative answer of a poll, `best` from `peer`,
    /// made whole: as it came if it carries what a replica at `from_op`
    /// lacks, else that one peer's answer to the same question with the
    /// snapshot allowed — if it is still authoritative and no older.
    fn bridged(
        &self,
        (peer, best): (u32, StateTransfer<M::Op, M::Snap>),
        from_op: OpNum,
    ) -> Option<StateTransfer<M::Op, M::Snap>> {
        if best.bridges(from_op) {
            return Some(best);
        }
        let st = self.fan.get_state(peer, from_op, true)?;
        (st.authoritative() && st.bridges(from_op) && st.freshness() >= best.freshness())
            .then_some(st)
    }

    /// Routine state transfer for a replica that saw a gap or a higher
    /// view. Installs only authoritative (Normal-responder) state.
    fn catch_up(&self) {
        let commit = self.st.lock().commit_num();
        let poll = self.fan.poll_state(commit);
        let Some(st) = poll.best.and_then(|best| self.bridged(best, commit)) else {
            return; // Nobody reachable, or nothing to install; retry next tick.
        };
        let now = self.rt.now();
        self.with_engine(|c| {
            c.on_state_transfer(st, now);
        });
    }

    /// Start-up recovery: a (re)starting replica's log may have died
    /// with it, so it stays in probation — not acking, leading or
    /// joining view changes — until a recovery quorum of peers has
    /// answered *authoritatively* and the freshest such answer is
    /// installed. Any committed op appears in at least one of any `f+1`
    /// Normal peers' logs; answers from probationary or view-changing
    /// peers prove nothing and do not count (a group cold-starting in
    /// unison bootstraps through the cold-answer carve-out instead).
    fn recovery_probe(&self) {
        let (required, commit) = {
            let st = self.st.lock();
            (st.recovery_quorum(), st.commit_num())
        };
        let poll = self.fan.poll_state(commit);
        if poll.countable < required {
            return; // Keep probing; StartView can also end probation.
        }
        let best = match poll.best {
            Some(best) => match self.bridged(best, commit) {
                Some(st) => Some(st),
                None => return, // The fetch failed: probe again.
            },
            None => None,
        };
        let now = self.rt.now();
        self.with_engine(|c| {
            if !c.in_probation() {
                return;
            }
            if let Some(best) = best {
                c.on_state_transfer(best, now);
            }
            c.end_probation(now);
        });
    }
}
