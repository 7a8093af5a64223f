//! Viewstamped Replication as a reusable component (protocol after Oki
//! & Liskov, with the "VSR revisited" refinements — see the
//! `penberg/vsr-rs` exemplar): any service can put its state on a
//! majority-committed log. The name service's naming state, the
//! Connection Manager's allocation table and the service controller's
//! placement table are the three clients.
//!
//! Two layers, each written once:
//!
//! * [`VsrCore`] is the *transport-free* replica engine, generic over a
//!   [`Machine`] — the applied state machine. Every protocol step is a
//!   synchronous method that consumes a message (plus the caller-supplied
//!   clock) and returns the reply, and every effect on the replicated
//!   machine is surfaced as a [`VsrEvent`]. Keeping the engine pure is
//!   what makes model-based proptesting possible: `tests/model.rs` wires
//!   N engines to an in-memory lossy network and compares their
//!   committed logs against a single-node oracle across crash / restart
//!   / partition interleavings, for every machine in the repository.
//! * [`Replica`] is the driver around the engine: the ORB endpoint and
//!   peer servant, the heartbeat / view-change / recovery loop, the
//!   commit path and the telemetry. A machine joins it by implementing
//!   [`Replicated`], the handful of places where one group differs from
//!   another.
//!
//! [`group`] puts a group of any such service on either runtime — the
//! simulator or loopback TCP, on nodes it makes or the caller's
//! (`Group::on_sim` beside `Group::on_tcp`) — with a client node, and
//! kills, restarts and partitions its members: the one harness of every
//! replica group that is crashed or restarted, in experiments (E9,
//! E20–E23), tests and the TCP cluster. A group whose test kills a
//! member's process group rather than its host (the MMS tests' CM), and
//! single name servers started as infrastructure, are built directly.
//!
//! Protocol outline:
//!
//! * **Normal operation** — the primary of view `v` (replica `v mod n`)
//!   assigns op numbers, appends to its log and broadcasts `Prepare`.
//!   Backups append in order and ack with their log end; an ack for op
//!   `k` acknowledges *every* op `≤ k` (logs are gap-free within a
//!   view), so the primary commits the largest op acknowledged by a
//!   majority and applies committed updates in sequence order. A backup
//!   keeps nothing but its log: a prepare past a gap is refused with the
//!   backup's log end, and the primary refills the gap from there at
//!   once, one entry per round trip.
//! * **View change** — two rules on one clock, the primary's silence.
//!   *Joining*: a backup whose primary has been silent past the election
//!   timeout, the same on every replica, joins a peer's
//!   `StartViewChange` or `DoViewChange` (as does one already
//!   view-changing); one that heard the primary within the timeout
//!   declines. That is the sticky-primary rule: a partitioned-then-healed
//!   replica cannot depose a primary the others still hear.
//!   *Proposing*: a backup proposes the next view (above any it has
//!   seen) at the election timeout plus one stagger step per place it
//!   stands behind that view's primary — so the replica that will lead
//!   the view proposes first, and the other survivors, silent as long,
//!   join it at once. Only once the initiator has observed a majority
//!   of joins does anyone emit `DoViewChange` (its commit number and the
//!   log entries after it — never the committed state) to the new
//!   primary — the VSR-revisited rule: a `DoViewChange` is a promise
//!   that a majority left the old view, so no op can commit there
//!   concurrently. The new primary chooses the log with the largest
//!   [`ViewStamp`] `(last_normal, op)`. If its own commit reaches the
//!   chosen log's, it lays the chosen entries over its own state;
//!   otherwise it first fetches state from the chosen log's sender
//!   (`get_state`) and goes on only if that still matches the chosen log
//!   (else the attempt is dropped and the change retries). It then
//!   broadcasts `StartView` with the entries after the lowest commit
//!   among the `DoViewChange` senders; a backup whose commit falls short
//!   of the first carried entry refuses it and catches up by state
//!   transfer. An initiator that fails to gather a majority
//!   *reverts* to its last normal view — unless it has emitted a
//!   `DoViewChange` above that view, in which case reverting could
//!   contradict a view change its payload later completes: it stays
//!   between views and re-proposes with the sticky rule waived
//!   (`forced`), so peers let it back in.
//! * **State transfer / recovery** — a replica that detects a gap (or a
//!   rejoining, restarted replica) polls its peers with `get_state`:
//!   each answers with its view and log position, plus the log suffix
//!   the asker lacks when it still retains it. The engine weighs the
//!   answers ([`VsrCore::on_poll`]) and installs the freshest Normal
//!   one. Only if that could not carry the suffix (compaction,
//!   `log_retention`, dropped the entries) does the replica ask that one
//!   peer again with `snapshot_ok` set, for its committed state plus
//!   uncommitted tail: one snapshot per transfer. A restarted replica
//!   stays in probation until `f+1` peers answered, and leads the view
//!   it recovered into only if every peer did.

mod fanout;
pub mod group;
mod replica;

pub use replica::{Replica, ReplicaConfig, ReplicaStatus};

use std::collections::{BTreeMap, VecDeque};
use std::fmt::{self, Debug, Display};
use std::time::Duration;

use ocs_orb::OrbError;
use ocs_sim::SimTime;
use ocs_wire::{impl_wire_enum, impl_wire_struct, ViewStamp, Wire};

/// A view number. The primary of view `v` is replica `v mod n`.
pub type View = u64;
/// A position in the replicated update log (1-based; 0 = empty log).
pub type OpNum = u64;

/// Committed results retained for client threads still polling.
const RESULT_WINDOW: u64 = 256;

/// The replicated state machine a [`VsrCore`] drives. Application must
/// be deterministic: identical op streams produce identical machines on
/// every replica — including identical [`Machine::apply`] outcomes,
/// which the engine records per op for polling clients.
pub trait Machine {
    /// A replicated operation (one log entry's payload).
    type Op: Clone + Debug + PartialEq;
    /// What applying one op yields (the client-visible result).
    type Outcome: Clone + Debug + PartialEq;
    /// A full serialized image of the committed state.
    type Snap: Clone + Debug + PartialEq;

    /// Applies op number `seq` (sequence numbers arrive in order,
    /// gap-free). Failures must be deterministic too — they are part of
    /// the replicated outcome.
    fn apply(&mut self, seq: OpNum, op: &Self::Op) -> Self::Outcome;
    /// Serializes the committed state.
    fn snapshot(&self) -> Self::Snap;
    /// Replaces this machine's state with a snapshot's contents.
    fn restore(&mut self, snap: Self::Snap);
    /// The sequence number a snapshot was taken at.
    fn snap_seq(snap: &Self::Snap) -> OpNum;
}

/// Why the driver could not report an op committed. A machine folds
/// these into its own outcome type ([`Replicated::refused`]).
#[derive(Clone, Debug, PartialEq)]
pub enum Refusal {
    /// No replica can sequence the op right now: a view change is in
    /// progress, or the primary lost its quorum.
    NoMaster,
    /// A view change committed a different op under the number this one
    /// was sequenced at; this one may be lost.
    Superseded,
    /// Sequenced, but no majority acknowledged it in time. The op may
    /// still commit after a heal.
    NoQuorum,
    /// The call that forwarded the op to the primary failed.
    Comm {
        /// What the ORB reported.
        err: OrbError,
    },
}

impl_wire_enum!(Refusal {
    0 => NoMaster,
    1 => Superseded,
    2 => NoQuorum,
    3 => Comm { err },
});

impl Display for Refusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Refusal::NoMaster => f.write_str("no master"),
            Refusal::Superseded => f.write_str("op superseded by view change"),
            Refusal::NoQuorum => f.write_str("no replication quorum"),
            Refusal::Comm { err } => write!(f, "forwarding failed: {err}"),
        }
    }
}

/// What a [`Machine`] adds to run as a replicated group under the one
/// driver, [`Replica`]: the places — and the only places — where the
/// name service's, the Connection Manager's and the service controller's
/// groups differ. Everything else (the message loop, heartbeats,
/// re-sends, view changes, state transfer, recovery, the peer servant,
/// the `<group>.vsr.*` telemetry) is the driver's.
pub trait Replicated:
    Machine<Op: Wire + Send, Outcome: Wire + Send, Snap: Wire + Send> + Send + Sized + 'static
{
    /// `"<group>-vsr"` (`"cm-vsr"`): the group's journal channel and the
    /// name of its driver thread. The `<group>` part also names the
    /// metric family `<group>.vsr.*` and prefixes trace lines, so one
    /// literal spells the group everywhere.
    const CHANNEL: &'static str;
    /// Wire name of the group's replica-to-replica interface. The
    /// methods and their numbering are the same for every group (see
    /// `fanout.rs`); the name keeps one group's frames from being
    /// dispatched to another's servant.
    const PEER_INTERFACE: &'static str;
    /// The machine's driver-side companions — metric handles, caches,
    /// whatever [`Replicated::post_step`] and [`Replicated::master_tick`]
    /// work with. Owned by the replica ([`Replica::ctx`]), never
    /// replicated.
    type Ctx: Send + Sync + 'static;

    /// Stamps `op` with the sequencing primary's clock, for machines
    /// that carry time in the op. The primary re-stamps forwarded ops,
    /// so a backup's (or a retrying client's) stale stamp never enters
    /// the log.
    fn stamp(_op: &mut Self::Op, _now_us: u64) {}

    /// An op the driver could not report committed, as the outcome the
    /// group's clients understand.
    fn refused(why: Refusal) -> Self::Outcome;

    /// Runs after an engine step that produced `events`, with the engine
    /// lock still held: the machine is exactly as the step left it, and
    /// driver-side feeds it accumulated (an expiry log, a decision
    /// journal) can be drained here. Must not block — no RPC, no sleep.
    fn post_step(&mut self, _ctx: &Self::Ctx, _events: &[VsrEvent<Self::Op>]) {}

    /// Runs on every tick of the driver loop, outside the engine lock:
    /// where a machine's master submits its periodic ops.
    fn master_tick(_replica: &Replica<Self>) {}

    /// One line of machine state for [`ReplicaStatus`] (`allocs=12`).
    fn describe(&self) -> String {
        String::new()
    }
}

/// Replica status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VsrStatus {
    /// Participating in its view's normal case.
    Normal,
    /// Between views: joined (or initiated) a view change.
    ViewChange,
}

/// One entry of the replicated update log.
#[derive(Clone, Debug, PartialEq)]
pub struct LogEntry<Op> {
    /// The entry's op number.
    pub op: OpNum,
    /// The view the entry was originally prepared in.
    pub view: View,
    /// The replicated mutation.
    pub update: Op,
}

impl_wire_struct!(LogEntry<Op> { op, view, update });

/// Reply to `prepare`, `commit_hb` and `start_view`: the callee's view
/// and log end. `op_num` acknowledges every op `≤ op_num`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PeerAck {
    /// Whether the callee took the message as a member of the sender's
    /// view. A prepare past a gap is taken but not appended: `op_num`
    /// then falls short of it.
    pub accepted: bool,
    /// The callee's current view.
    pub view: View,
    /// The callee's log end (its cumulative ack watermark).
    pub op_num: OpNum,
}

impl_wire_struct!(PeerAck { accepted, view, op_num });

/// A joiner's contribution to a view change: where its committed prefix
/// ends and the log entries after it. The committed state itself stays
/// home — any two replicas' states at the same commit number are
/// identical, and a new primary that lacks some fetches it from one peer.
#[derive(Clone, Debug, PartialEq)]
pub struct DoViewChange<Op> {
    /// The view being changed to.
    pub view: View,
    /// The sender's replica id.
    pub from: u32,
    /// The last view in which the sender's status was Normal.
    pub last_normal: View,
    /// The sender's log end.
    pub op_num: OpNum,
    /// The sender's commit number.
    pub commit_num: OpNum,
    /// Log entries `commit_num+1 ..= op_num`.
    pub tail: Vec<LogEntry<Op>>,
}

impl_wire_struct!(DoViewChange<Op> { view, from, last_normal, op_num, commit_num, tail });

/// The new primary's announcement of the chosen log for a view.
#[derive(Clone, Debug, PartialEq)]
pub struct StartView<Op> {
    /// The new view.
    pub view: View,
    /// Log end of the chosen log.
    pub op_num: OpNum,
    /// Commit number carried into the view.
    pub commit_num: OpNum,
    /// The chosen log's entries after the lowest commit among the
    /// `DoViewChange` senders (from the oldest the primary retains, if
    /// that is later) through `op_num`.
    pub entries: Vec<LogEntry<Op>>,
}

impl_wire_struct!(StartView<Op> { view, op_num, commit_num, entries });

/// What the new primary does next with the `DoViewChange`s it holds.
#[derive(Clone, Debug, PartialEq)]
pub enum DvcStep<Op> {
    /// Not a majority of payloads yet (or not a change this replica
    /// leads).
    Wait,
    /// Its committed state is behind the chosen log's: ask `peer`, the
    /// chosen log's sender, for the state after `from_op` with the
    /// snapshot allowed, and hand the answer — or `None` if the call
    /// failed — to [`VsrCore::on_chosen_state`] before announcing
    /// anything.
    Fetch {
        /// The chosen log's sender.
        peer: u32,
        /// This replica's commit number.
        from_op: OpNum,
    },
    /// The view started: broadcast this.
    Start(StartView<Op>),
}

/// Reply to a `start_view_change` proposal. Joining no longer carries a
/// `DoViewChange`: joiners emit theirs only after the initiator reports
/// a join majority (`view_change_go`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SvcAck {
    /// Whether the callee joined the proposed view.
    pub joined: bool,
    /// The callee's current view (lets a stale proposer catch up).
    pub view: View,
}

impl_wire_struct!(SvcAck { joined, view });

/// Reply to `get_state(from_op, snapshot_ok)`: the responder's view and
/// log position, plus the log suffix after `from_op` when it retains it;
/// otherwise, if the asker allowed it, its committed snapshot plus the
/// uncommitted tail, and if not, nothing more.
#[derive(Clone, Debug, PartialEq)]
pub struct StateTransfer<Op, Snap> {
    /// The responder's view.
    pub view: View,
    /// Whether the responder's status was Normal (only Normal replicas
    /// serve authoritative state).
    pub normal: bool,
    /// The responder's log end.
    pub op_num: OpNum,
    /// The responder's commit number.
    pub commit_num: OpNum,
    /// Present when the suffix alone cannot bridge the gap (compaction
    /// dropped the needed entries) and the asker set `snapshot_ok`: the
    /// full committed state.
    pub snapshot: Option<Snap>,
    /// Log entries after the requested op (or after `snapshot`); empty
    /// when neither fits.
    pub tail: Vec<LogEntry<Op>>,
}

impl_wire_struct!(StateTransfer<Op, Snap> { view, normal, op_num, commit_num, snapshot, tail });

impl<Op, Snap> StateTransfer<Op, Snap> {
    /// A genuinely cold responder: still in probation with an empty log
    /// and no view history. Cold answers carry no state, but they do
    /// witness a peer's existence — counting them (and only them) beside
    /// Normal answers lets a cold-started group bootstrap out of
    /// probation without weakening recovery: a peer that ever held state
    /// never answers cold again.
    fn is_cold(&self) -> bool {
        !self.normal && self.view == 0 && self.op_num == 0 && self.commit_num == 0
    }

    /// Whether this answer brings a replica whose log is complete through
    /// `from_op` up to the responder's log end: it carries a snapshot, or
    /// every entry after `from_op`.
    fn bridges(&self, from_op: OpNum) -> bool {
        self.snapshot.is_some() || self.op_num <= from_op + self.tail.len() as u64
    }

    /// The order answers are preferred in: latest view, then longest log,
    /// then furthest commit.
    fn freshness(&self) -> (View, OpNum, OpNum) {
        (self.view, self.op_num, self.commit_num)
    }
}

/// A state poll's answers, each with its sender, in arrival order.
pub type PollAnswers<Op, Snap> = Vec<(u32, StateTransfer<Op, Snap>)>;

/// What a replica does next with the answers to its state poll.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PollStep {
    /// Nothing more: what could be installed was (the next poll, if one
    /// is due, tries again).
    Done,
    /// The freshest answer could not carry what this replica lacks: ask
    /// `peer`, its sender, for the state after `poll.from_op` with the
    /// snapshot allowed, and hand the answer — or `None` if the call
    /// failed — to [`VsrCore::on_fetched`] with `poll`.
    Fetch { peer: u32, poll: Poll },
}

/// Where a client update should go, when this replica cannot sequence
/// it itself.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SubmitRoute {
    /// Forward to the view's primary (this replica is a Normal backup).
    Forward(u32),
    /// No primary available here or anywhere we know of (view change in
    /// progress, or the primary lost its quorum).
    Unavailable,
}

/// A `Prepare` the driver must broadcast after the primary sequenced a
/// client op.
#[derive(Clone, Debug, PartialEq)]
pub struct Prepare<Op> {
    /// The primary's view.
    pub view: View,
    /// The assigned op number.
    pub op_num: OpNum,
    /// The primary's commit number (piggybacked).
    pub commit_num: OpNum,
    /// The update itself.
    pub update: Op,
}

/// The fate of a sequenced client op, as observed by the thread that
/// sequenced it (keyed by the viewstamp `(view, op)` it was assigned,
/// not by op number alone: a view change can commit a *different*
/// update at the same op number).
#[derive(Clone, Debug, PartialEq)]
pub enum OpOutcome<Out> {
    /// Not committed yet. The op may still commit — possibly carried
    /// into a later view — so keep polling until the deadline.
    Pending,
    /// Committed under the caller's viewstamp: this result is the
    /// caller's own update's.
    Done(Out),
    /// The op number committed, but not under the caller's viewstamp —
    /// a view change dropped the caller's entry and committed another
    /// in its place (or the result window no longer attests it). The
    /// caller's update may be lost; report failure so the client
    /// retries.
    Superseded,
}

/// Effects the driver must post-process after any engine call.
#[derive(Clone, Debug, PartialEq)]
pub enum VsrEvent<Op> {
    /// An update committed and was applied to the replicated state.
    Committed { op: OpNum, update: Op },
    /// This replica began (or joined) a view change — failover clock
    /// starts here.
    Suspected { view: View },
    /// This replica entered Normal status in a new view.
    ViewChanged { view: View, primary: u32 },
    /// An initiated view change found no quorum of suspects and was
    /// reverted — the sticky-primary rule fired.
    Aborted { view: View },
    /// State transfer installed a full snapshot (log replay impossible).
    CaughtUp { via_snapshot: bool },
}

/// A state poll, from [`VsrCore::begin_poll`] to its last step; the
/// driver hands it back with each step's answers, and the engine keeps
/// nothing of it between the steps.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Poll {
    /// The commit number every peer is asked for the suffix after.
    pub from_op: OpNum,
    /// Whether it began in probation: a recovery, not a catch-up.
    recovering: bool,
    /// Whether every peer's answer counted toward the recovery quorum.
    heard_all: bool,
    /// The freshest answer's freshness, which a fetched one must reach.
    floor: (View, OpNum, OpNum),
}

/// A view change's chosen log, while the new primary fetches the
/// committed state it lacks from the log's sender.
struct Chosen {
    /// The view being started.
    view: View,
    /// The chosen log's end.
    op_num: OpNum,
    /// The lowest commit number among the `DoViewChange` senders: the
    /// `StartView` carries the entries after it.
    low_commit: OpNum,
}

/// The VSR replica engine. All methods are synchronous and free of I/O;
/// `now` is the caller's clock (virtual in the simulator, wall on the
/// real runtime).
pub struct VsrCore<M: Machine> {
    id: u32,
    n: usize,
    /// Committed entries kept in the log beyond `commit_num` for peer
    /// catch-up; older entries are compacted away and catch-up falls
    /// back to snapshot transfer.
    retain: u64,
    /// How long the view's primary may stay silent before a backup takes
    /// it for failed and joins a peer's view change: the same on every
    /// replica.
    election_timeout: Duration,
    /// How much later each rank proposes a view change: a replica `r`
    /// places behind the next view's primary waits `r` steps past the
    /// election timeout (see [`VsrCore::next_deadline`]).
    stagger: Duration,
    status: VsrStatus,
    view: View,
    last_normal: View,
    op_num: OpNum,
    commit_num: OpNum,
    log: VecDeque<LogEntry<M::Op>>,
    /// The replicated application state (committed prefix applied).
    state: M,
    /// Apply results of the newest committed ops, for client threads:
    /// a ring of `(op, view, outcome)` whose ops run contiguously up to
    /// `commit_num`, each stamped with the committed entry's *original*
    /// view so a deposed primary cannot mistake a replacement entry's
    /// result for its own.
    results: VecDeque<(OpNum, View, M::Outcome)>,
    /// Primary only: per-backup cumulative ack watermark.
    acks: BTreeMap<u32, OpNum>,
    /// Primary only: heartbeat rounds without a majority of acks.
    missed_rounds: u32,
    /// Primary only: cleared after 3 missed rounds (steps the primary
    /// down from `is_master` without a view change — §4.6 availability
    /// rule: no updates without a quorum).
    quorum_ok: bool,
    /// Last valid message from the current view's primary.
    last_pm: SimTime,
    /// When the current view change began (for `vc_stuck`).
    vc_since: SimTime,
    /// DoViewChange payloads collected for `view` (new primary only).
    dvc: BTreeMap<u32, DoViewChange<M::Op>>,
    /// New primary only: the chosen log whose state is being fetched
    /// from its sender before the view is announced.
    chosen: Option<Chosen>,
    /// Highest view for which this replica handed out a `DoViewChange`
    /// payload. Having emitted one for view `v`, the replica must never
    /// again run Normal in a view `< v`: the payload may yet complete
    /// view `v` with a log that omits anything acked below it. A replica
    /// that recovered into a view it would lead without hearing from
    /// every peer is bound to the view after it (see [`VsrCore::on_poll`]).
    dvc_emitted: View,
    /// Highest view observed out-of-band (declined proposals, stale
    /// acks); the next proposal starts above it so a replica stranded
    /// in a high view can be reached in one round.
    seen_view: View,
    /// Set when a gap or a higher view was observed: the driver should
    /// run state transfer.
    needs_catchup: bool,
    /// A replica starts (and restarts) in probation: its log may have
    /// been lost in a crash, so it neither acks, leads, nor joins a view
    /// change until a state poll has heard from `f+1` peers and the
    /// freshest state among them is installed (the VSR recovery rule —
    /// any committed op is in some log of any `f+1` peers, assuming at
    /// most `f` simultaneous log losses).
    probation: bool,
    events: Vec<VsrEvent<M::Op>>,
}

impl<M: Machine + Default> VsrCore<M> {
    /// A fresh replica over `M::default()`: Normal in view 0 (whose
    /// primary is replica 0 — cold start needs no election). A replica
    /// restarting after a crash also begins here; the driver's recovery
    /// probe pulls it forward. Its proposals are not staggered: every
    /// backup would propose at the election timeout. That suits engines
    /// stepped by hand (unit tests, benchmark probes); a group's driver
    /// passes its stagger to [`VsrCore::with_machine`].
    pub fn new(
        id: u32,
        n: usize,
        retain: u64,
        election_timeout: Duration,
        now: SimTime,
    ) -> VsrCore<M> {
        let stagger = Duration::ZERO;
        VsrCore::with_machine(M::default(), id, n, retain, election_timeout, stagger, now)
    }
}

impl<M: Machine> VsrCore<M> {
    /// A fresh replica over an explicitly constructed machine (for
    /// machines with configuration, e.g. admission budgets). Every
    /// replica of a group must construct an identical machine, or apply
    /// determinism is lost.
    pub fn with_machine(
        machine: M,
        id: u32,
        n: usize,
        retain: u64,
        election_timeout: Duration,
        stagger: Duration,
        now: SimTime,
    ) -> VsrCore<M> {
        assert!(n >= 1 && (id as usize) < n);
        VsrCore {
            id,
            n,
            retain,
            election_timeout,
            stagger,
            status: VsrStatus::Normal,
            view: 0,
            last_normal: 0,
            op_num: 0,
            commit_num: 0,
            log: VecDeque::new(),
            state: machine,
            results: VecDeque::new(),
            acks: BTreeMap::new(),
            missed_rounds: 0,
            quorum_ok: true,
            last_pm: now,
            vc_since: now,
            dvc: BTreeMap::new(),
            chosen: None,
            dvc_emitted: 0,
            seen_view: 0,
            needs_catchup: false,
            probation: n > 1,
            events: Vec::new(),
        }
    }

    /// How many *peer* `get_state` answers a recovery poll needs before
    /// probation can end: `f+1` of the other `n-1` replicas.
    fn recovery_quorum(&self) -> usize {
        (self.n - 1) / 2 + 1
    }

    /// Whether this replica is still in start-up probation.
    pub fn in_probation(&self) -> bool {
        self.probation
    }

    /// Ends probation without a poll, for engines that start together
    /// with nothing to recover (unit tests, benchmark probes). A replica
    /// that may have lost a log leaves it through a poll or a `StartView`.
    pub fn end_probation(&mut self, now: SimTime) {
        self.probation = false;
        self.last_pm = now;
    }

    // ---- observers -----------------------------------------------------

    /// The primary of a view.
    pub fn primary_of(&self, view: View) -> u32 {
        (view % self.n as u64) as u32
    }

    /// Whether this replica is its current view's primary (and Normal).
    pub fn is_primary(&self) -> bool {
        self.status == VsrStatus::Normal && self.primary_of(self.view) == self.id
    }

    /// Whether this replica can sequence updates right now: primary of
    /// the view, Normal, out of probation, and in recent contact with a
    /// majority.
    pub fn is_master(&self) -> bool {
        self.is_primary() && self.quorum_ok && !self.probation
    }

    /// The current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// The current status.
    pub fn status(&self) -> VsrStatus {
        self.status
    }

    /// Log end.
    pub fn op_num(&self) -> OpNum {
        self.op_num
    }

    /// Commit number (== applied sequence number of the state).
    pub fn commit_num(&self) -> OpNum {
        self.commit_num
    }

    /// Prepared-but-uncommitted backlog, for the `<group>.vsr.commit_gap`
    /// gauge.
    pub fn commit_gap(&self) -> u64 {
        self.op_num - self.commit_num
    }

    /// Read access to the replicated state (reads stay local, §4.6).
    pub fn state(&self) -> &M {
        &self.state
    }

    /// Mutable access to the machine, for draining *non-replicated*
    /// driver-side feeds a machine may accumulate (e.g. an expiry log
    /// for journaling). Mutating replicated state through this breaks
    /// apply determinism — only touch state excluded from snapshots.
    pub fn state_mut(&mut self) -> &mut M {
        &mut self.state
    }

    /// Whether the driver should run state transfer.
    pub fn needs_catchup(&self) -> bool {
        self.needs_catchup
    }

    /// The fate of the op sequenced as `(view, op)`. `Done` only when
    /// the entry that committed at `op` was originally prepared in
    /// `view`; a result under any other viewstamp — or a committed op
    /// whose result record is gone (snapshot install, window expiry) —
    /// is `Superseded`, never a false success.
    pub fn outcome_of(&self, view: View, op: OpNum) -> OpOutcome<M::Outcome> {
        if op > self.commit_num {
            return OpOutcome::Pending;
        }
        let first = self.results.front().map_or(0, |r| r.0);
        match op.checked_sub(first).and_then(|i| self.results.get(i as usize)) {
            Some((o, v, result)) if *o == op && *v == view => OpOutcome::Done(result.clone()),
            _ => OpOutcome::Superseded,
        }
    }

    /// Drains the effects accumulated since the last drain.
    pub fn take_events(&mut self) -> Vec<VsrEvent<M::Op>> {
        std::mem::take(&mut self.events)
    }

    fn majority(&self) -> usize {
        self.n / 2 + 1
    }

    /// Log entry `op`, if still retained.
    pub fn entry(&self, op: OpNum) -> Option<&LogEntry<M::Op>> {
        let first = self.log.front()?.op;
        if op < first || op > self.log.back()?.op {
            return None;
        }
        self.log.get((op - first) as usize)
    }

    /// Log entries `from ..= op_num` still retained, for prepare resend
    /// and log-replay state transfer.
    pub fn entries_from(&self, from: OpNum) -> Option<Vec<LogEntry<M::Op>>> {
        if from > self.op_num {
            return Some(Vec::new());
        }
        let first = self.log.front().map(|e| e.op).unwrap_or(self.op_num + 1);
        if from < first {
            return None; // Compacted away.
        }
        Some(self.log.iter().skip((from - first) as usize).cloned().collect())
    }

    // ---- commit machinery ----------------------------------------------

    fn apply_through(&mut self, to: OpNum) {
        let to = to.min(self.op_num);
        while self.commit_num < to {
            let next = self.commit_num + 1;
            let entry = self
                .entry(next)
                .expect("uncommitted entries are never compacted")
                .clone();
            let result = self.state.apply(next, &entry.update);
            self.results.push_back((next, entry.view, result));
            self.commit_num = next;
            self.events.push(VsrEvent::Committed {
                op: next,
                update: entry.update,
            });
        }
        self.compact();
    }

    fn compact(&mut self) {
        while let Some(front) = self.log.front() {
            if front.op + self.retain < self.commit_num {
                self.log.pop_front();
            } else {
                break;
            }
        }
        let floor = self.commit_num.saturating_sub(RESULT_WINDOW);
        while self.results.front().is_some_and(|r| r.0 <= floor) {
            self.results.pop_front();
        }
    }

    fn try_commit(&mut self) {
        if !self.is_primary() {
            return;
        }
        let mut marks: Vec<OpNum> = self
            .acks
            .iter()
            .filter(|(id, _)| **id != self.id)
            .map(|(_, m)| *m)
            .collect();
        marks.push(self.op_num); // Our own log end.
        marks.sort_unstable_by(|a, b| b.cmp(a));
        if marks.len() >= self.majority() {
            let quorum_op = marks[self.majority() - 1];
            if quorum_op > self.commit_num {
                self.apply_through(quorum_op);
            }
        }
    }

    // ---- client path ---------------------------------------------------

    /// Routes a client update: the primary sequences it and returns the
    /// `Prepare` to broadcast; a backup returns the forwarding target.
    pub fn client_op(&mut self, update: M::Op) -> Result<Prepare<M::Op>, SubmitRoute> {
        if self.is_master() {
            self.op_num += 1;
            let entry = LogEntry {
                op: self.op_num,
                view: self.view,
                update: update.clone(),
            };
            self.log.push_back(entry);
            if self.n == 1 {
                self.apply_through(self.op_num);
            }
            return Ok(Prepare {
                view: self.view,
                op_num: self.op_num,
                commit_num: self.commit_num,
                update,
            });
        }
        if self.status == VsrStatus::Normal && !self.is_primary() {
            return Err(SubmitRoute::Forward(self.primary_of(self.view)));
        }
        Err(SubmitRoute::Unavailable)
    }

    // ---- backup handlers -----------------------------------------------

    fn reject(&self) -> PeerAck {
        PeerAck {
            accepted: false,
            view: self.view,
            op_num: self.op_num,
        }
    }

    /// Handles a `Prepare` from the view's primary. `view` is the
    /// sender's current view (drives all the view checks); `entry_view`
    /// is the view the entry was *originally* prepared in, preserved in
    /// the log so an entry carries one identity `(entry_view, op)` on
    /// every replica — re-sends of old entries by a newer view's
    /// primary do not forge it.
    pub fn on_prepare(
        &mut self,
        view: View,
        entry_view: View,
        op: OpNum,
        commit: OpNum,
        update: M::Op,
        now: SimTime,
    ) -> PeerAck {
        debug_assert!(entry_view <= view, "an entry cannot outrank its sender");
        if view < self.view || self.probation {
            return self.reject();
        }
        if view > self.view || self.status != VsrStatus::Normal || self.is_primary() {
            // Behind a view change (or a stale primary hearing a new
            // one): state transfer, never blind append.
            if view > self.view {
                self.needs_catchup = true;
            }
            return self.reject();
        }
        self.last_pm = now;
        if op == self.op_num + 1 {
            self.log.push_back(LogEntry {
                op,
                view: entry_view,
                update,
            });
            self.op_num = op;
        }
        // op <= op_num: duplicate of an entry we already hold (same
        // `(entry_view, op)` ⇒ same sequencing primary ⇒ same content)
        // — ack idempotently. op > op_num + 1: past a gap — refused and
        // kept nowhere; the ack's log end, short of `op`, has the primary
        // refill the gap from there.
        self.apply_through(commit);
        PeerAck {
            accepted: true,
            view: self.view,
            op_num: self.op_num,
        }
    }

    /// Handles the primary's idle heartbeat / commit broadcast.
    pub fn on_commit_hb(&mut self, view: View, commit: OpNum, now: SimTime) -> PeerAck {
        if view < self.view || self.probation {
            return self.reject();
        }
        if view > self.view {
            self.needs_catchup = true;
            return self.reject();
        }
        if self.status != VsrStatus::Normal || self.is_primary() {
            return self.reject();
        }
        self.last_pm = now;
        if commit > self.op_num {
            self.needs_catchup = true;
        }
        self.apply_through(commit);
        PeerAck {
            accepted: true,
            view: self.view,
            op_num: self.op_num,
        }
    }

    // ---- primary handlers ----------------------------------------------

    /// Registers a peer's ack (from `prepare`, `commit_hb` or
    /// `start_view` replies). Watermarks are cumulative: an ack at op
    /// `k` acknowledges everything `≤ k`.
    pub fn on_ack(&mut self, from: u32, ack: &PeerAck) {
        if ack.view > self.view {
            // We have been deposed (or lag a view change).
            self.needs_catchup = true;
            return;
        }
        if ack.view == self.view && self.is_primary() {
            let mark = self.acks.entry(from).or_insert(0);
            *mark = (*mark).max(ack.op_num);
            self.try_commit();
        }
    }

    /// Notes a peer's view seen out-of-band (e.g. in a declined
    /// `SvcAck`): a higher view means we must catch up, and the next
    /// proposal must start above it.
    pub fn note_view(&mut self, view: View) {
        if view > self.view {
            self.seen_view = self.seen_view.max(view);
            self.needs_catchup = true;
        }
    }

    /// Primary bookkeeping after a heartbeat round: `acked` peers (not
    /// counting itself) answered with the current view. Three rounds
    /// without a majority clear `quorum_ok` — updates are refused until
    /// contact returns (§4.6: no updates without a quorum).
    pub fn note_round(&mut self, acked: usize) {
        if !self.is_primary() {
            return;
        }
        if acked + 1 >= self.majority() {
            self.missed_rounds = 0;
            self.quorum_ok = true;
        } else {
            self.missed_rounds += 1;
            if self.missed_rounds >= 3 {
                self.quorum_ok = false;
            }
        }
    }

    // ---- view changes --------------------------------------------------

    /// Whether this is a Normal backup out of probation in a group of
    /// more than one: a replica whose primary can fall silent.
    fn follows(&self) -> bool {
        self.status == VsrStatus::Normal && !self.is_primary() && !self.probation && self.n > 1
    }

    /// Whether this backup takes its primary for failed: silent past the
    /// election timeout, the same on every replica. It then joins a
    /// peer's view change; one that heard the primary within the timeout
    /// declines (the sticky-primary rule).
    fn silent(&self, now: SimTime) -> bool {
        self.follows() && now.saturating_since(self.last_pm) > self.election_timeout
    }

    /// How long this replica waits before proposing: the election
    /// timeout plus one stagger step per place it stands behind the
    /// primary of the view it would propose. So the replica that will
    /// lead the next view proposes first, and the others, silent as
    /// long, join it at once.
    fn patience(&self) -> Duration {
        let next = self.view.max(self.seen_view) + 1;
        let n = self.n as u32;
        let rank = (self.id + n - self.primary_of(next)) % n;
        self.election_timeout + self.stagger * rank
    }

    /// The first instant at which [`VsrCore::suspects`] or
    /// [`VsrCore::vc_stuck`] holds, unless a primary or a `StartView` is
    /// heard first: this replica's patience past the primary's last
    /// message or the view change's start. `None` for a replica that
    /// proposes nothing (a primary, one in probation, a group of one).
    /// The driver wakes for it, so a proposal leaves on time rather than
    /// on its next tick.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let since = match self.status {
            VsrStatus::ViewChange => self.vc_since,
            VsrStatus::Normal if self.follows() => self.last_pm,
            VsrStatus::Normal => return None,
        };
        Some(since + self.patience() + Duration::from_micros(1))
    }

    /// Whether this backup should propose a view change: its primary has
    /// been silent past this replica's patience.
    pub fn suspects(&self, now: SimTime) -> bool {
        self.status == VsrStatus::Normal && self.next_deadline().is_some_and(|at| now >= at)
    }

    /// Whether a joined view change has stalled (no `StartView` within
    /// this replica's patience) and the next view should be proposed.
    pub fn vc_stuck(&self, now: SimTime) -> bool {
        self.status == VsrStatus::ViewChange && self.next_deadline().is_some_and(|at| now >= at)
    }

    /// Begins (or re-begins) a view change: proposes the next view —
    /// above any view seen out-of-band, so a stranded high-view peer is
    /// reachable in one proposal — and returns it. The driver
    /// broadcasts `start_view_change(view, forced)` (see
    /// [`VsrCore::vc_forced`]) and either completes the change
    /// (majority joined) or calls [`VsrCore::abort_view_change`].
    pub fn begin_view_change(&mut self, now: SimTime) -> View {
        self.view = self.view.max(self.seen_view) + 1;
        self.status = VsrStatus::ViewChange;
        self.vc_since = now;
        self.dvc.clear();
        self.quorum_ok = true;
        self.missed_rounds = 0;
        self.events.push(VsrEvent::Suspected { view: self.view });
        self.view
    }

    /// Whether this replica's proposals must waive the sticky-primary
    /// rule: it has emitted a `DoViewChange` above its last normal view,
    /// so it can never revert to Normal and can only rejoin the group
    /// through a completed view change — peers must let it in even if
    /// their own primary looks healthy.
    pub fn vc_forced(&self) -> bool {
        self.dvc_emitted > self.last_normal
    }

    /// Reverts an initiated view change that found no quorum of fellow
    /// suspects: back to the last normal view. This is the sticky-primary
    /// rule — a partitioned-then-healed replica aborts here instead of
    /// deposing a healthy primary.
    ///
    /// The suspicion clock (`last_pm`) is deliberately NOT reset: the
    /// replica stays silent-past-the-timeout until it actually hears from
    /// a primary, so it joins a fellow suspect's later proposal instead
    /// of declining it from inside a grace period. (A post-abort grace
    /// makes two suspects take turns proposing alone — elections thrash
    /// for many timeout periods. Found by E20.) A healthy primary's next
    /// heartbeat refreshes `last_pm` and clears the suspicion either way.
    pub fn abort_view_change(&mut self, proposed: View, _now: SimTime) {
        if self.status != VsrStatus::ViewChange || self.view != proposed {
            return; // A competing change overtook us; keep it.
        }
        if self.vc_forced() {
            // We handed a `DoViewChange` for a view above `last_normal`
            // to a peer; that payload may yet complete its change with
            // a log that omits anything we would ack back in the old
            // view. Never revert below an emitted DVC: stay between
            // views and let `vc_stuck` re-propose (forced) until some
            // change completes.
            return;
        }
        self.events.push(VsrEvent::Aborted { view: self.view });
        self.view = self.last_normal;
        self.status = VsrStatus::Normal;
        self.dvc.clear();
    }

    /// Handles a peer's `start_view_change(view, forced)` proposal.
    /// Joins only if its primary has been silent past the election
    /// timeout here too (or it is already view-changing) — unless the
    /// proposal is `forced`, from a replica that can no longer revert
    /// and must be re-admitted through a view change. Joining emits
    /// nothing: the `DoViewChange` is released later, by
    /// [`VsrCore::emit_dvc`], once the initiator has observed a join
    /// majority.
    ///
    /// A replica in probation never joins, forced or not: its log may be
    /// gone, and a `DoViewChange` built from an empty log would count
    /// toward the new primary's majority like any other — two such
    /// payloads elect an empty log over a committed op.
    pub fn on_start_view_change(&mut self, view: View, forced: bool, now: SimTime) -> SvcAck {
        let already_joined = self.status == VsrStatus::ViewChange && self.view == view;
        let join_higher = view > self.view
            && !self.probation
            && (forced || self.silent(now) || self.status == VsrStatus::ViewChange);
        if !already_joined && !join_higher {
            return SvcAck {
                joined: false,
                view: self.view,
            };
        }
        if join_higher {
            self.view = view;
            self.status = VsrStatus::ViewChange;
            self.vc_since = now;
            self.dvc.clear();
            self.events.push(VsrEvent::Suspected { view });
        }
        SvcAck {
            joined: true,
            view: self.view,
        }
    }

    /// Releases this replica's `DoViewChange` payload for `view` — the
    /// initiator calls this on itself and (via `view_change_go`) on
    /// every joiner once it has observed a majority of joins, and never
    /// before: an emitted payload is a promise that a majority left the
    /// older views, which is what makes it safe for the new primary to
    /// choose a log from `f+1` of them. Emission is recorded so
    /// [`VsrCore::abort_view_change`] can refuse to revert below it.
    pub fn emit_dvc(&mut self, view: View) -> Option<DoViewChange<M::Op>> {
        if self.status != VsrStatus::ViewChange || self.view != view {
            return None; // Reverted or overtaken: the promise is off.
        }
        self.dvc_emitted = self.dvc_emitted.max(view);
        Some(self.dvc_payload())
    }

    /// This replica's own `DoViewChange` payload for its current view.
    pub fn dvc_payload(&self) -> DoViewChange<M::Op> {
        DoViewChange {
            view: self.view,
            from: self.id,
            last_normal: self.last_normal,
            op_num: self.op_num,
            commit_num: self.commit_num,
            tail: self.entries_from(self.commit_num + 1).unwrap_or_default(),
        }
    }

    /// Handles a `DoViewChange` as the proposed view's primary. Once a
    /// majority of payloads (its own included) arrived, chooses the log
    /// with the largest `(last_normal, op_num)` viewstamp. If this
    /// replica's commit reaches the chosen log's, it lays the chosen
    /// entries over its own state and returns the `StartView` to
    /// broadcast; otherwise it asks the driver to fetch the state it
    /// lacks from the chosen log's sender first ([`DvcStep::Fetch`]).
    pub fn on_do_view_change(&mut self, dvc: DoViewChange<M::Op>, now: SimTime) -> DvcStep<M::Op> {
        if dvc.view < self.view || self.primary_of(dvc.view) != self.id {
            return DvcStep::Wait;
        }
        if dvc.view > self.view {
            // Join the change ourselves — but only if the old primary has
            // been silent past the election timeout or we are already
            // between views; a healthy primary connection is not
            // overridden by a single straggler.
            if !(self.silent(now) || self.status == VsrStatus::ViewChange) {
                return DvcStep::Wait;
            }
            self.view = dvc.view;
            self.status = VsrStatus::ViewChange;
            self.vc_since = now;
            self.dvc.clear();
            self.events.push(VsrEvent::Suspected { view: dvc.view });
        }
        let fetching = self.chosen.as_ref().is_some_and(|c| c.view == self.view);
        if self.status != VsrStatus::ViewChange || fetching {
            // Duplicate DVC for the view we already lead, or one that
            // arrived while the chosen log's state is on its way.
            return DvcStep::Wait;
        }
        if !self.dvc.contains_key(&self.id) {
            let own = self.dvc_payload();
            self.dvc.insert(self.id, own);
        }
        self.dvc.insert(dvc.from, dvc);
        if self.dvc.len() < self.majority() {
            return DvcStep::Wait;
        }
        let dvcs = std::mem::take(&mut self.dvc);
        let low_commit = dvcs.values().map(|d| d.commit_num).min().expect("non-empty");
        let best = dvcs
            .into_values()
            .max_by_key(|d| ViewStamp::new(d.last_normal, d.op_num))
            .expect("non-empty");
        if self.commit_num >= best.commit_num {
            self.install(None, best.commit_num, best.tail);
            return DvcStep::Start(self.start_view(low_commit, now));
        }
        self.chosen = Some(Chosen {
            view: self.view,
            op_num: best.op_num,
            low_commit,
        });
        DvcStep::Fetch {
            peer: best.from,
            from_op: self.commit_num,
        }
    }

    /// Takes the answer to a [`DvcStep::Fetch`] (`None`: the call
    /// failed) and, if it still shows the chosen log — the sender is in
    /// the same view with the same log end — installs it and returns the
    /// `StartView` to broadcast. Anything else drops the attempt; the
    /// view change retries.
    pub fn on_chosen_state(
        &mut self,
        st: Option<StateTransfer<M::Op, M::Snap>>,
        now: SimTime,
    ) -> Option<StartView<M::Op>> {
        let chosen = self.chosen.take()?;
        if self.status != VsrStatus::ViewChange || self.view != chosen.view {
            return None;
        }
        let st = st.filter(|st| {
            st.view == chosen.view && st.op_num == chosen.op_num && st.bridges(self.commit_num)
        })?;
        self.events.push(VsrEvent::CaughtUp {
            via_snapshot: st.snapshot.is_some(),
        });
        self.install(st.snapshot, st.commit_num, st.tail);
        Some(self.start_view(chosen.low_commit, now))
    }

    /// Enters the current view as its primary, over the log just
    /// installed, and announces it with the entries after `low_commit`.
    fn start_view(&mut self, low_commit: OpNum, now: SimTime) -> StartView<M::Op> {
        let view = self.view;
        self.status = VsrStatus::Normal;
        self.last_normal = view;
        self.last_pm = now;
        self.acks.clear();
        self.missed_rounds = 0;
        self.quorum_ok = true;
        self.events.push(VsrEvent::ViewChanged {
            view,
            primary: self.id,
        });
        let first = self.log.front().map_or(self.op_num + 1, |e| e.op);
        StartView {
            view,
            op_num: self.op_num,
            commit_num: self.commit_num,
            entries: self
                .entries_from((low_commit + 1).max(first))
                .unwrap_or_default(),
        }
    }

    /// Handles the new primary's `StartView`: installs the chosen log
    /// and enters the view as a backup. A backup whose commit falls short
    /// of the first entry carried cannot be brought up to date from them:
    /// it refuses, and catches up by state transfer.
    pub fn on_start_view(&mut self, sv: StartView<M::Op>, now: SimTime) -> PeerAck {
        let stale = sv.view < self.view
            || (sv.view == self.view && self.status == VsrStatus::Normal);
        if stale {
            return PeerAck {
                accepted: sv.view == self.view,
                view: self.view,
                op_num: self.op_num,
            };
        }
        let first = sv.entries.first().map_or(sv.op_num + 1, |e| e.op);
        if self.commit_num + 1 < first {
            self.needs_catchup = true;
            return self.reject();
        }
        self.install(None, sv.commit_num, sv.entries);
        self.view = sv.view;
        self.status = VsrStatus::Normal;
        self.last_normal = sv.view;
        self.last_pm = now;
        self.vc_since = now;
        self.dvc.clear();
        self.needs_catchup = false;
        // A StartView is a quorum artifact carrying every entry this
        // replica lacks of the chosen log: installing it is as good as a
        // completed recovery.
        self.probation = false;
        self.events.push(VsrEvent::ViewChanged {
            view: sv.view,
            primary: self.primary_of(sv.view),
        });
        PeerAck {
            accepted: true,
            view: self.view,
            op_num: self.op_num,
        }
    }

    // ---- state transfer ------------------------------------------------

    /// Serves a peer's state request: the log suffix after `from_op`
    /// when still retained; otherwise, if `snapshot_ok`, the committed
    /// snapshot plus the uncommitted tail, and if not, just the header.
    pub fn on_get_state(&self, from_op: OpNum, snapshot_ok: bool) -> StateTransfer<M::Op, M::Snap> {
        let (snapshot, tail) = match self.entries_from(from_op + 1) {
            Some(tail) => (None, tail),
            None if snapshot_ok => (
                Some(self.state.snapshot()),
                self.entries_from(self.commit_num + 1).unwrap_or_default(),
            ),
            None => (None, Vec::new()),
        };
        StateTransfer {
            view: self.view,
            normal: self.status == VsrStatus::Normal && !self.probation,
            op_num: self.op_num,
            commit_num: self.commit_num,
            snapshot,
            tail,
        }
    }

    /// Begins a state poll — in probation, or after a gap or a higher
    /// view: every peer is asked for `get_state(poll.from_op)`, without a
    /// snapshot.
    pub fn begin_poll(&self) -> Poll {
        Poll {
            from_op: self.commit_num,
            recovering: self.probation,
            heard_all: false,
            floor: (0, 0, 0),
        }
    }

    /// Takes a poll's answers. Only a Normal peer's log is trusted (it
    /// holds every op the peer ever acked); a recovery also needs `f+1`
    /// answers that are Normal or cold. The freshest Normal answer — the
    /// latest view's primary's log whenever it answered, as a backup never
    /// runs ahead of its primary within a view — is installed, or its
    /// sender named to fetch from if it could not carry what this replica
    /// lacks. A recovered replica that would lead the view it recovered
    /// into without having heard from every peer does not: the silent
    /// peer may hold ops it sequenced there before it lost its log, and
    /// would ack a new op at one of their numbers as a duplicate. It rejoins only through a completed view change, whose
    /// `StartView` replaces that peer's uncommitted tail.
    pub fn on_poll(
        &mut self,
        poll: Poll,
        answers: PollAnswers<M::Op, M::Snap>,
        now: SimTime,
    ) -> PollStep {
        let counts = |st: &StateTransfer<_, _>| st.normal || st.is_cold();
        let counted = answers.iter().filter(|(_, st)| counts(st)).count();
        let heard_all = counted == self.n - 1;
        // A poll that missed a peer counts cold answers only at a cold
        // start, when every answer is cold: a peer that lost its log
        // answers cold too, and in a group of five one such answer and two
        // stale Normal ones would make a quorum without the last commit.
        let quorum = match heard_all || answers.iter().all(|(_, st)| st.is_cold()) {
            true => counted,
            false => answers.iter().filter(|(_, st)| st.normal).count(),
        };
        if poll.recovering && quorum < self.recovery_quorum() {
            return PollStep::Done; // Poll again; a StartView can also end probation.
        }
        let poll = Poll { heard_all, ..poll };
        // The freshest Normal answer; of equals, the first that came.
        let normal = answers.into_iter().filter(|(_, st)| st.normal);
        match normal.rev().max_by_key(|(_, st)| st.freshness()) {
            Some((peer, st)) if !st.bridges(poll.from_op) => {
                let floor = st.freshness();
                let poll = Poll { floor, ..poll };
                return PollStep::Fetch { peer, poll };
            }
            Some((_, st)) => self.settle(poll, Some(st), now),
            None if poll.recovering => self.settle(poll, None, now),
            None => {}
        }
        PollStep::Done
    }

    /// Takes the answer to a [`PollStep::Fetch`] (`None`: the call
    /// failed) and installs it if it is Normal, carries what this replica
    /// lacks, and is no older than the poll's; else the next poll retries.
    pub fn on_fetched(
        &mut self,
        poll: Poll,
        st: Option<StateTransfer<M::Op, M::Snap>>,
        now: SimTime,
    ) {
        let st =
            st.filter(|st| st.normal && st.bridges(poll.from_op) && st.freshness() >= poll.floor);
        if st.is_some() {
            self.settle(poll, st, now);
        }
    }

    /// Ends a poll, installing `st`; a recovery also ends probation —
    /// unless a `StartView` ended it while the poll was out.
    fn settle(&mut self, poll: Poll, st: Option<StateTransfer<M::Op, M::Snap>>, now: SimTime) {
        if poll.recovering && !self.probation {
            return;
        }
        if let Some(st) = st {
            self.transfer(st, now);
        }
        if !poll.recovering {
            return;
        }
        self.end_probation(now);
        if !poll.heard_all && self.primary_of(self.view) == self.id {
            self.status = VsrStatus::ViewChange;
            self.vc_since = now;
            self.dvc_emitted = self.dvc_emitted.max(self.view + 1);
        }
    }

    /// Installs a state-transfer answer, if it is ahead of us and carries
    /// what we lack. A recovered replica that finds itself primary of the
    /// transferred view does *not* resume primacy (its log may have been
    /// lost): it re-enters via a view change.
    fn transfer(&mut self, st: StateTransfer<M::Op, M::Snap>, now: SimTime) {
        if !st.bridges(self.commit_num) {
            return;
        }
        let ahead = st.view > self.view
            || (st.view == self.view && st.op_num > self.op_num)
            || (st.view == self.view && st.commit_num > self.commit_num);
        if !ahead {
            self.needs_catchup = false;
            return;
        }
        let via_snapshot = st.snapshot.is_some();
        self.install(st.snapshot, st.commit_num, st.tail);
        self.view = st.view;
        self.last_normal = st.view;
        self.last_pm = now;
        self.vc_since = now;
        self.needs_catchup = false;
        self.acks.clear();
        if self.primary_of(st.view) == self.id {
            // We were this view's primary before losing our log: stay
            // out of the normal case and force a view change instead of
            // resuming primacy over a log we no longer own.
            self.status = VsrStatus::ViewChange;
        } else {
            self.status = VsrStatus::Normal;
        }
        self.events.push(VsrEvent::CaughtUp { via_snapshot });
    }

    /// Lays an authoritative log over ours: restores `snapshot` if it is
    /// past our commit, replaces everything after the commit point with
    /// `entries` (those above it, contiguous), then applies through
    /// `commit_num`.
    fn install(
        &mut self,
        snapshot: Option<M::Snap>,
        commit_num: OpNum,
        entries: Vec<LogEntry<M::Op>>,
    ) {
        if let Some(snap) = snapshot.filter(|snap| M::snap_seq(snap) > self.commit_num) {
            self.commit_num = M::snap_seq(&snap);
            self.state.restore(snap);
            // Results for the skipped range are unknown: polling
            // clients observe `Superseded` and retry (never a
            // fabricated success). The log restarts at the snapshot.
            self.results.clear();
            self.log.clear();
        }
        while self.log.back().is_some_and(|b| b.op > self.commit_num) {
            self.log.pop_back();
        }
        for e in entries {
            let next = self.log.back().map_or(self.commit_num + 1, |b| b.op + 1);
            if e.op == next {
                self.log.push_back(e);
            }
        }
        self.op_num = self.log.back().map_or(self.commit_num, |e| e.op).max(self.commit_num);
        self.apply_through(commit_num);
    }
}

/// A trivial replicated machine — a running sum — used to prove the
/// engine and the driver are state-machine agnostic (the model harness
/// and the driver's own tests run over it) and as the smallest possible
/// example of a [`Machine`] that is also [`Replicated`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CounterMachine {
    /// The running sum of every applied amount.
    pub total: u64,
    /// Sequence number of the last applied op (0 = none).
    pub last_seq: OpNum,
}

/// A [`CounterMachine`] snapshot.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CounterSnap {
    /// The running sum at `last_seq`.
    pub total: u64,
    /// Sequence number of the last applied op.
    pub last_seq: OpNum,
}

impl_wire_struct!(CounterSnap { total, last_seq });

impl Machine for CounterMachine {
    type Op = u64;
    /// The sum after the op. Adding never fails; the error side is what
    /// the driver reports when it cannot commit.
    type Outcome = Result<u64, Refusal>;
    type Snap = CounterSnap;

    fn apply(&mut self, seq: OpNum, op: &u64) -> Result<u64, Refusal> {
        self.total = self.total.wrapping_add(*op);
        self.last_seq = seq;
        Ok(self.total)
    }

    fn snapshot(&self) -> CounterSnap {
        CounterSnap {
            total: self.total,
            last_seq: self.last_seq,
        }
    }

    fn restore(&mut self, snap: CounterSnap) {
        self.total = snap.total;
        self.last_seq = snap.last_seq;
    }

    fn snap_seq(snap: &CounterSnap) -> OpNum {
        snap.last_seq
    }
}

impl Replicated for CounterMachine {
    const CHANNEL: &'static str = "counter-vsr";
    const PEER_INTERFACE: &'static str = "ocs.counter-peer";
    type Ctx = ();

    fn refused(why: Refusal) -> Result<u64, Refusal> {
        Err(why)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_micros(ms * 1000)
    }

    /// A replica `i` of `n` that lost its log: empty, in probation.
    fn reborn(i: u32, n: usize, retention: u64) -> VsrCore<CounterMachine> {
        VsrCore::new(i, n, retention, Duration::from_secs(5), t(0))
    }

    fn group(n: usize, retention: u64) -> Vec<VsrCore<CounterMachine>> {
        (0..n as u32)
            .map(|i| {
                let mut c = reborn(i, n, retention);
                c.end_probation(t(0));
                c
            })
            .collect()
    }

    fn replicas(retention: u64) -> Vec<VsrCore<CounterMachine>> {
        group(3, retention)
    }

    fn trio() -> Vec<VsrCore<CounterMachine>> {
        replicas(64)
    }

    /// One state poll of replica `i`, answered by the replicas `from`,
    /// and the fetch it asks for, as the driver runs them; returns the
    /// events they produced.
    fn poll(
        cores: &mut [VsrCore<CounterMachine>],
        i: usize,
        from: &[usize],
        now: SimTime,
    ) -> Vec<VsrEvent<u64>> {
        let poll = cores[i].begin_poll();
        let answers = from
            .iter()
            .map(|&j| (j as u32, cores[j].on_get_state(poll.from_op, false)))
            .collect();
        if let PollStep::Fetch { peer, poll } = cores[i].on_poll(poll, answers, now) {
            let st = cores[peer as usize].on_get_state(poll.from_op, true);
            cores[i].on_fetched(poll, Some(st), now);
        }
        cores[i].take_events()
    }

    /// Whether `events` hold a state transfer's install.
    fn caught_up(events: &[VsrEvent<u64>], via_snapshot: bool) -> bool {
        events.contains(&VsrEvent::CaughtUp { via_snapshot })
    }

    /// Drives one prepare round from primary `p` to every peer.
    fn replicate(cores: &mut [VsrCore<CounterMachine>], p: usize, amount: u64) -> OpNum {
        let prep = cores[p].client_op(amount).expect("is primary");
        for i in 0..cores.len() {
            if i == p {
                continue;
            }
            let ack = cores[i].on_prepare(
                prep.view,
                prep.view,
                prep.op_num,
                prep.commit_num,
                prep.update,
                t(1),
            );
            cores[p].on_ack(i as u32, &ack);
        }
        prep.op_num
    }

    /// The `StartView` of a change that completed at once.
    fn started(step: DvcStep<u64>) -> StartView<u64> {
        match step {
            DvcStep::Start(sv) => sv,
            other => panic!("the view change did not start: {other:?}"),
        }
    }

    /// Moves replicas 1 and 2 to view 1 without replica 0, replica 1
    /// leading; returns replica 2's `StartView` ack.
    fn depose_replica_zero(cores: &mut [VsrCore<CounterMachine>], now: SimTime) -> PeerAck {
        let v = cores[1].begin_view_change(now);
        cores[2].on_start_view_change(v, false, now);
        let dvc2 = cores[2].emit_dvc(v).unwrap();
        let sv = started(cores[1].on_do_view_change(dvc2, now));
        cores[2].on_start_view(sv, now)
    }

    #[test]
    fn cold_start_primary_is_replica_zero() {
        let cores = trio();
        assert!(cores[0].is_master());
        assert!(!cores[1].is_master());
        assert_eq!(cores[0].primary_of(0), 0);
    }

    #[test]
    fn counter_machine_replicates_and_reports_outcomes() {
        let mut cores = trio();
        let op1 = replicate(&mut cores, 0, 7);
        assert_eq!(cores[0].commit_num(), op1);
        assert_eq!(cores[0].outcome_of(0, op1), OpOutcome::Done(Ok(7)));
        let op2 = replicate(&mut cores, 0, 5);
        assert_eq!(cores[0].commit_num(), op2);
        assert_eq!(cores[0].outcome_of(0, op2), OpOutcome::Done(Ok(12)));
        assert_eq!(cores[0].state().total, 12);
        // Backups commit on the next piggybacked commit number.
        for c in &cores[1..] {
            assert_eq!(c.op_num(), op2);
            assert_eq!(c.commit_num(), op1, "backup applied the piggybacked commit");
            assert_eq!(c.state().total, 7);
        }
        // An idle heartbeat carries the rest.
        for i in 1..3 {
            let commit = cores[0].commit_num();
            let ack = cores[i].on_commit_hb(0, commit, t(2));
            assert!(ack.accepted);
            assert_eq!(cores[i].commit_num(), commit);
            assert_eq!(cores[i].state().total, 12);
        }
    }

    #[test]
    fn ack_at_op_k_acknowledges_the_prefix() {
        let mut cores = trio();
        // Backup 1 takes ops 1 and 2 in order, but op 1's ack is lost:
        // the single ack at op 2 lets the primary commit both.
        let p1 = cores[0].client_op(1).unwrap();
        let p2 = cores[0].client_op(2).unwrap();
        let lost = cores[1].on_prepare(0, 0, p1.op_num, p1.commit_num, p1.update, t(1));
        assert!(lost.accepted);
        let ack = cores[1].on_prepare(0, 0, p2.op_num, p2.commit_num, p2.update, t(1));
        assert_eq!((ack.accepted, ack.op_num), (true, 2));
        cores[0].on_ack(1, &ack);
        assert_eq!(cores[0].commit_num(), 2, "one watermark committed both");
    }

    #[test]
    fn a_prepare_past_a_gap_is_refused_and_kept_nowhere() {
        let mut cores = trio();
        // Op 1's prepare to backup 1 is lost; op 2's is refused with the
        // backup's log end, and op 1 arriving later releases nothing.
        let p1 = cores[0].client_op(1).unwrap();
        let p2 = cores[0].client_op(2).unwrap();
        let ack = cores[1].on_prepare(0, 0, p2.op_num, p2.commit_num, p2.update, t(1));
        assert_eq!((ack.accepted, ack.op_num), (true, 0), "short of op 2");
        assert!(!cores[1].needs_catchup(), "the primary refills a gap");
        let ack = cores[1].on_prepare(0, 0, p1.op_num, p1.commit_num, p1.update, t(1));
        assert_eq!((ack.accepted, ack.op_num), (true, 1));
        // A heartbeat's ack is short of the primary's log end too, and the
        // primary re-sends from there.
        let commit = cores[0].commit_num();
        let hb = cores[1].on_commit_hb(0, commit, t(2));
        assert_eq!((hb.accepted, hb.op_num), (true, 1));
        let resent = cores[0].entries_from(hb.op_num + 1).unwrap();
        assert_eq!(resent.len(), 1);
        let e = &resent[0];
        let ack = cores[1].on_prepare(0, e.view, e.op, 0, e.update, t(2));
        cores[0].on_ack(1, &ack);
        assert_eq!(cores[0].commit_num(), 2);
    }

    #[test]
    fn no_commit_without_majority() {
        let mut cores = trio();
        let prep = cores[0].client_op(1).unwrap();
        // No backup ever acks.
        assert_eq!(cores[0].commit_num(), 0);
        assert_eq!(cores[0].outcome_of(0, prep.op_num), OpOutcome::Pending);
        // Three silent heartbeat rounds and the primary steps down.
        for _ in 0..3 {
            cores[0].note_round(0);
        }
        assert!(!cores[0].is_master(), "no updates without a quorum");
        assert!(cores[0].client_op(2).is_err());
        // Contact returns: mastership resumes.
        cores[0].note_round(2);
        assert!(cores[0].is_master());
    }

    #[test]
    fn result_window_keeps_the_newest_results() {
        let mut cores = trio();
        for _ in 0..3 * RESULT_WINDOW {
            replicate(&mut cores, 0, 1);
        }
        // Backups learn the last commit from the next prepare, so each
        // core is checked against its own commit number.
        for core in &cores {
            let commit = core.commit_num();
            assert!(commit >= 3 * RESULT_WINDOW - 1);
            for op in 1..=commit + 2 {
                let want = if op > commit {
                    OpOutcome::Pending
                } else if op > commit - RESULT_WINDOW {
                    OpOutcome::Done(Ok(op))
                } else {
                    OpOutcome::Superseded
                };
                assert_eq!(core.outcome_of(0, op), want, "op {op} at commit {commit}");
            }
        }
    }

    #[test]
    fn result_ring_restarts_after_a_snapshot_gap() {
        let mut cores = replicas(2);
        for _ in 0..3 {
            replicate(&mut cores, 0, 1);
        }
        // Replica 2 misses nine ops, more than the primary retains, and
        // catches up by snapshot: its results for ops 1 and 2 go too.
        replicate_to(&mut cores, 1, &[1; 9]);
        assert_eq!(cores[2].outcome_of(0, 2), OpOutcome::Done(Ok(2)));
        assert!(caught_up(&poll(&mut cores, 2, &[0, 1], t(3)), true));
        let installed = cores[2].commit_num();
        assert_eq!(installed, 12);
        for _ in 0..3 {
            replicate(&mut cores, 0, 1);
        }
        // The last prepare carried commit 14; op 15 is not committed yet.
        let core = &cores[2];
        let commit = core.commit_num();
        assert_eq!((commit, core.op_num()), (14, 15));
        for op in 1..=commit + 2 {
            let want = if op > commit {
                OpOutcome::Pending
            } else if op > installed {
                OpOutcome::Done(Ok(op))
            } else {
                OpOutcome::Superseded
            };
            assert_eq!(core.outcome_of(0, op), want, "op {op}");
        }
    }

    #[test]
    fn counter_view_change_preserves_committed_sum() {
        let mut cores = trio();
        replicate(&mut cores, 0, 3);
        replicate(&mut cores, 0, 4);
        // Primary 0 dies. Backup 1 suspects and proposes view 1.
        let late = t(10_000);
        assert!(cores[1].suspects(late));
        let v = cores[1].begin_view_change(late);
        assert_eq!(v, 1);
        // Backup 2 suspects too and joins; its DVC is released only once
        // the initiator reports the join majority.
        assert!(cores[2].on_start_view_change(v, false, late).joined);
        let dvc = cores[2].emit_dvc(v).unwrap();
        // The joiner's DVC plus the initiator's own (inserted
        // automatically) complete the quorum at the new primary.
        let sv = started(cores[1].on_do_view_change(dvc, late));
        assert!(cores[1].is_master());
        assert_eq!(cores[1].view(), 1);
        // Op 2 committed only at the dead primary, so it rides the tail
        // and recommits once the StartView ack arrives.
        assert_eq!(cores[1].op_num(), 2);
        let ack = cores[2].on_start_view(sv, late);
        assert!(ack.accepted);
        assert_eq!(cores[2].view(), 1);
        cores[1].on_ack(2, &ack);
        assert_eq!(cores[1].commit_num(), 2);
        assert_eq!(cores[1].state().total, 7);
        let hb = cores[2].on_commit_hb(1, 2, late);
        assert!(hb.accepted);
        assert_eq!(cores[2].commit_num(), 2);
        assert_eq!(cores[2].state().total, 7);
    }

    #[test]
    fn uncommitted_tail_survives_view_change_and_commits_in_new_view() {
        let mut cores = trio();
        // Op 1 reaches backup 1 but the primary crashes before hearing
        // the ack — the op is uncommitted everywhere.
        let prep = cores[0].client_op(1).unwrap();
        cores[1].on_prepare(0, 0, prep.op_num, prep.commit_num, prep.update, t(1));
        assert_eq!(cores[1].commit_num(), 0);
        // View change to replica 1, with replica 2 joining.
        let late = t(10_000);
        let v = cores[1].begin_view_change(late);
        cores[2].on_start_view_change(v, false, late);
        let dvc2 = cores[2].emit_dvc(v).unwrap();
        let sv = started(cores[1].on_do_view_change(dvc2, late));
        // The tail rode along: new primary has op 1 in its log.
        assert_eq!(cores[1].op_num(), 1);
        assert_eq!(sv.entries.len(), 1);
        // The StartView ack doubles as a prepare-ok in the new view.
        let ack = cores[2].on_start_view(sv, late);
        cores[1].on_ack(2, &ack);
        assert_eq!(cores[1].commit_num(), 1, "tail committed in the new view");
    }

    /// Op rounds from primary 0 that reach only backup `to`.
    fn replicate_to(cores: &mut [VsrCore<CounterMachine>], to: usize, amounts: &[u64]) {
        for amount in amounts {
            let prep = cores[0].client_op(*amount).unwrap();
            let ack = cores[to].on_prepare(0, 0, prep.op_num, prep.commit_num, prep.update, t(1));
            cores[0].on_ack(to as u32, &ack);
        }
        let commit = cores[0].commit_num();
        cores[to].on_commit_hb(0, commit, t(2));
    }

    #[test]
    fn a_new_primary_behind_the_chosen_log_fetches_it_before_announcing() {
        let mut cores = trio();
        // Replica 1, view 1's primary, misses every prepare.
        replicate_to(&mut cores, 2, &[3, 4, 5]);
        let late = t(10_000);
        let v = cores[1].begin_view_change(late);
        assert!(cores[2].on_start_view_change(v, false, late).joined);
        let dvc = cores[2].emit_dvc(v).unwrap();
        assert_eq!((dvc.commit_num, dvc.tail.len()), (3, 0), "no table rides along");
        let step = cores[1].on_do_view_change(dvc.clone(), late);
        assert_eq!(step, DvcStep::Fetch { peer: 2, from_op: 0 });
        // An answer that no longer shows the chosen log drops the attempt.
        let moved = StateTransfer {
            op_num: 4,
            ..cores[2].on_get_state(0, true)
        };
        assert_eq!(cores[1].on_chosen_state(Some(moved), late), None);
        assert_eq!(cores[1].status(), VsrStatus::ViewChange);
        // The payload again, and this time the answer matches.
        assert!(matches!(cores[1].on_do_view_change(dvc, late), DvcStep::Fetch { .. }));
        let st = cores[2].on_get_state(0, true);
        let sv = cores[1].on_chosen_state(Some(st), late).expect("the view starts");
        assert!(cores[1].is_master());
        assert_eq!(cores[1].state().total, 12);
        assert_eq!(sv.entries.len(), 3, "the entries after the lowest commit sent, its own");
        assert!(cores[2].on_start_view(sv, late).accepted);
    }

    #[test]
    fn a_backup_short_of_the_carried_entries_refuses_the_start_view() {
        let mut cores = replicas(2);
        // Replica 2 misses ten ops; replica 1's log keeps only the last few.
        replicate_to(&mut cores, 1, &[1; 10]);
        let late = t(10_000);
        let v = cores[1].begin_view_change(late);
        assert!(cores[2].on_start_view_change(v, false, late).joined);
        let dvc = cores[2].emit_dvc(v).unwrap();
        let sv = started(cores[1].on_do_view_change(dvc, late));
        assert!(sv.entries[0].op > 1, "the entries after commit 0 are compacted");
        let ack = cores[2].on_start_view(sv, late);
        assert!(!ack.accepted);
        assert!(cores[2].needs_catchup());
        // Its catch-up: the poll's answer is a header, the fetch a snapshot.
        assert!(!cores[1].on_get_state(0, false).bridges(0));
        assert!(caught_up(&poll(&mut cores, 2, &[0, 1], late), true));
        assert_eq!(cores[2].state().total, 10);
        assert_eq!((cores[2].view(), cores[2].status()), (1, VsrStatus::Normal));
    }

    #[test]
    fn sticky_primary_declines_lone_suspect() {
        let mut cores = trio();
        replicate(&mut cores, 0, 1);
        // Replica 2 was partitioned (missed the recent prepare) and
        // suspects; 1 heard the primary just now and stays loyal.
        let now = t(10_000);
        let prep = cores[0].client_op(2).unwrap();
        let ack = cores[1].on_prepare(
            prep.view,
            prep.view,
            prep.op_num,
            prep.commit_num,
            prep.update,
            now,
        );
        cores[0].on_ack(1, &ack);
        assert!(cores[2].suspects(now));
        let v = cores[2].begin_view_change(now);
        let ack = cores[1].on_start_view_change(v, false, now);
        assert!(!ack.joined, "healthy backup declines the usurper");
        // No quorum: the initiator reverts and rejoins the old view.
        cores[2].abort_view_change(v, now);
        assert_eq!(cores[2].view(), 0);
        assert_eq!(cores[2].status(), VsrStatus::Normal);
        assert!(cores[0].is_master(), "primary was never deposed");
    }

    /// A group of `n` out of probation whose proposals are staggered as a
    /// driver staggers them: election timeout 5 s, one step 1 s.
    fn staggered(n: usize) -> Vec<VsrCore<CounterMachine>> {
        (0..n as u32)
            .map(|i| {
                let (timeout, step) = (Duration::from_secs(5), Duration::from_secs(1));
                let machine = CounterMachine::default();
                let mut c = VsrCore::with_machine(machine, i, n, 64, timeout, step, t(0));
                c.end_probation(t(0));
                c
            })
            .collect()
    }

    /// Just past `ms`: the first instant a silence of `ms` counts.
    fn past(ms: u64) -> SimTime {
        t(ms) + Duration::from_micros(1)
    }

    #[test]
    fn the_next_views_primary_proposes_first_and_each_later_rank_a_step_after() {
        let deadlines = |cores: &[VsrCore<CounterMachine>]| -> Vec<Option<SimTime>> {
            cores.iter().map(|c| c.next_deadline()).collect()
        };
        // Under primary 0, view 1's primary (replica 1) proposes at the
        // election timeout; the primary proposes nothing.
        let trio = staggered(3);
        assert_eq!(deadlines(&trio), [None, Some(past(5_000)), Some(past(6_000))]);
        assert!(!trio[1].suspects(t(5_000)) && trio[1].suspects(past(5_000)));
        assert!(!trio[2].suspects(past(5_000)) && trio[2].suspects(past(6_000)));
        let five = staggered(5);
        assert_eq!(
            deadlines(&five),
            [None, Some(past(5_000)), Some(past(6_000)), Some(past(7_000)), Some(past(8_000))]
        );
        // Once view 1 (primary 1) has started, view 2's primary, replica
        // 2, is first in line, and each backup after it a step later.
        let mut five = staggered(5);
        let now = t(5_001);
        let v = five[1].begin_view_change(now);
        let joined: Vec<u32> = (2..5)
            .filter(|&i| five[i].on_start_view_change(v, false, now).joined)
            .map(|i| i as u32)
            .collect();
        assert_eq!(joined, [2, 3, 4], "every survivor silent as long joins at once");
        let dvcs: Vec<_> = (2..4).map(|i| five[i].emit_dvc(v).unwrap()).collect();
        let mut steps = dvcs.into_iter().map(|dvc| five[1].on_do_view_change(dvc, now));
        assert!(matches!(steps.next(), Some(DvcStep::Wait)));
        let sv = started(steps.next().unwrap());
        for backup in &mut five[2..] {
            assert!(backup.on_start_view(sv.clone(), now).accepted);
        }
        assert!(five[1].is_primary());
        assert_eq!(
            deadlines(&five[2..]),
            [Some(past(10_001)), Some(past(11_001)), Some(past(12_001))]
        );
    }

    #[test]
    fn a_view_seen_above_reorders_the_proposals_after_an_abort() {
        // Replica 2 of three proposes view 1 one step after replica 1,
        // but a peer declines from view 2: it aborts, and its next
        // proposal is view 3, whose primary is replica 0. Replica 2 is
        // two places behind it, so it waits two steps.
        let mut trio = staggered(3);
        let now = past(6_000);
        let v = trio[2].begin_view_change(now);
        assert_eq!(v, 1);
        trio[2].note_view(2);
        trio[2].abort_view_change(v, now);
        assert_eq!((trio[2].view(), trio[2].status()), (0, VsrStatus::Normal));
        assert_eq!(trio[2].next_deadline(), Some(past(7_000)));
        // A peer seen in view 1 puts replica 2 at the head instead: it
        // would lead view 2, so it proposes at the election timeout.
        let mut trio = staggered(3);
        trio[2].note_view(1);
        assert_eq!(trio[2].next_deadline(), Some(past(5_000)));
        assert!(trio[2].suspects(past(5_000)));
        assert_eq!(trio[2].begin_view_change(past(5_000)), 2);
        // In a group of five, a view 2 seen above makes replica 1 the
        // fourth in line for view 3 (led by replica 3).
        let mut five = staggered(5);
        let now = past(5_000);
        let v = five[1].begin_view_change(now);
        five[1].note_view(2);
        five[1].abort_view_change(v, now);
        assert_eq!(five[1].next_deadline(), Some(past(8_000)));
        assert_eq!(five[1].begin_view_change(t(8_001)), 3);
        // A stalled change is re-proposed in the same order, counted from
        // its start: replica 1 is two places behind view 4's primary.
        assert_eq!(five[1].next_deadline(), Some(past(8_001 + 5_000 + 2_000)));
    }

    #[test]
    fn a_backup_silent_past_the_election_timeout_joins_before_its_own_deadline() {
        let mut trio = staggered(3);
        let now = past(5_000);
        assert!(trio[1].suspects(now));
        assert!(!trio[2].suspects(now), "replica 2 would propose a step later");
        let v = trio[1].begin_view_change(now);
        assert!(trio[2].on_start_view_change(v, false, now).joined);
        // One that heard the primary inside the election timeout still
        // declines, however near its own deadline the proposer is.
        let mut trio = staggered(3);
        trio[2].on_commit_hb(0, 0, t(1));
        let v = trio[1].begin_view_change(now);
        assert!(!trio[2].on_start_view_change(v, false, now).joined);
        assert!(trio[2].on_start_view_change(v, false, past(5_001)).joined);
    }

    #[test]
    fn probationary_replica_declines_even_a_forced_proposal() {
        let mut cores = trio();
        replicate(&mut cores, 0, 3);
        // Replica 2 restarts: its log is gone, it is in probation.
        cores[2] = VsrCore::new(2, 3, 64, Duration::from_secs(5), t(2));
        let late = t(10_000);
        let v = cores[1].begin_view_change(late);
        let ack = cores[2].on_start_view_change(v, true, late);
        assert!(
            !ack.joined,
            "an empty log must not count toward a view change"
        );
        assert_eq!(cores[2].status(), VsrStatus::Normal);
        assert!(cores[2].emit_dvc(v).is_none());
    }

    #[test]
    fn state_transfer_uses_log_replay_within_retention() {
        let mut cores = trio();
        for i in 0..5 {
            replicate(&mut cores, 0, i);
        }
        // Replica 2 restarts empty and catches up via log replay: the
        // primary still retains everything.
        cores[2] = reborn(2, 3, 64);
        assert!(caught_up(&poll(&mut cores, 2, &[0, 1], t(1)), false));
        assert!(!cores[2].in_probation());
        assert_eq!(cores[2].op_num(), cores[0].op_num());
        assert_eq!(cores[2].commit_num(), cores[0].commit_num());
    }

    #[test]
    fn counter_snapshot_state_transfer_round_trips() {
        let mut cores = replicas(2);
        for i in 0..12 {
            replicate(&mut cores, 0, i + 1);
        }
        cores[2] = reborn(2, 3, 2);
        // A poll does not ask for the snapshot: each answer is a header,
        // and the step names the freshest one's sender to fetch from.
        let poll = cores[2].begin_poll();
        let answers = |cores: &[VsrCore<CounterMachine>]| -> Vec<_> {
            (0..2)
                .map(|j| (j, cores[j as usize].on_get_state(poll.from_op, false)))
                .collect()
        };
        let polled = answers(&cores);
        let header =
            |st: &StateTransfer<u64, CounterSnap>| st.snapshot.is_none() && st.tail.is_empty();
        assert!(polled.iter().all(|(_, st)| header(st)));
        let PollStep::Fetch { peer, poll: fetch } = cores[2].on_poll(poll, polled, t(1)) else {
            panic!("a header bridges nothing: the step fetches");
        };
        assert_eq!((peer, fetch.from_op), (0, 0));
        // A failed fetch drops the poll: still in probation, nothing held.
        cores[2].on_fetched(fetch, None, t(1));
        assert!(cores[2].in_probation() && cores[2].take_events().is_empty());
        // The next poll's fetch brings the snapshot.
        let polled = answers(&cores);
        let step = cores[2].on_poll(poll, polled, t(2));
        let PollStep::Fetch { poll: fetch, .. } = step else {
            panic!("the next poll fetches again");
        };
        let st = cores[0].on_get_state(0, true);
        assert!(st.snapshot.is_some(), "past retention: snapshot transfer");
        cores[2].on_fetched(fetch, Some(st), t(2));
        assert!(caught_up(&cores[2].take_events(), true));
        assert!(!cores[2].in_probation());
        assert_eq!(cores[2].commit_num(), cores[0].commit_num());
        assert_eq!(cores[2].state().snapshot(), cores[0].state().snapshot());
    }

    #[test]
    fn recovered_former_primary_does_not_resume_primacy() {
        let mut cores = trio();
        for i in 0..3 {
            replicate(&mut cores, 0, i);
        }
        // Replica 0 (the view-0 primary) crashes and restarts empty.
        cores[0] = reborn(0, 3, 64);
        assert!(cores[0].in_probation());
        assert!(
            !cores[0].is_master(),
            "an empty restart must not resume mastership before recovery"
        );
        assert_eq!(cores[0].recovery_quorum(), 2, "f+1 peer answers for n=3");
        poll(&mut cores, 0, &[1], t(1));
        assert!(cores[0].in_probation(), "one answer is not f+1");
        assert!(caught_up(&poll(&mut cores, 0, &[1, 2], t(1)), false));
        let recovered = (cores[0].commit_num(), cores[0].op_num());
        assert_eq!(recovered, (cores[1].commit_num(), cores[1].op_num()));
        assert_eq!(
            cores[0].status(),
            VsrStatus::ViewChange,
            "must not resume primacy over a recovered log"
        );
        assert!(!cores[0].is_master());
        assert!(!cores[0].vc_forced(), "every peer answered: it may revert");
    }

    /// In a group of five a recovery needs three of the four peers. The
    /// one that did not answer can hold ops the restarted primary
    /// sequenced before it lost its log; leading the same view again, it
    /// would number a new op 1 and hear that peer ack it as a duplicate
    /// of the old one — two ops committed at one slot.
    #[test]
    fn a_recovered_primary_that_missed_a_peer_leads_no_more_in_its_view() {
        let mut cores = group(5, 64);
        // Ops 1 and 2 reach backup 4 alone; neither commits.
        for amount in [1, 2] {
            let prep = cores[0].client_op(amount).unwrap();
            let ack = cores[4].on_prepare(0, 0, prep.op_num, 0, prep.update, t(1));
            cores[0].on_ack(4, &ack);
        }
        assert_eq!((cores[0].commit_num(), cores[4].op_num()), (0, 2));
        // Replica 0 restarts; backup 4 is cut off from it.
        cores[0] = reborn(0, 5, 64);
        let events = poll(&mut cores, 0, &[1, 2, 3], t(2));
        assert!(events.is_empty(), "the answering peers hold nothing");
        assert!(!cores[0].in_probation());
        assert_eq!(cores[0].status(), VsrStatus::ViewChange);
        assert!(cores[0].client_op(3).is_err(), "no op sequenced in view 0");
        // Its proposal is forced: it does not fall back to view 0 when
        // the proposal stalls, and peers that still trust view 0 join.
        assert!(cores[0].vc_forced());
        let late = t(10_000);
        let v = cores[0].begin_view_change(late);
        cores[0].abort_view_change(v, late);
        assert_eq!(cores[0].status(), VsrStatus::ViewChange);
        assert_eq!(cores[0].view(), v);
        for j in [1, 2] {
            assert!(cores[j].on_start_view_change(v, true, late).joined);
        }
        // View 1's primary (replica 1) starts it with replica 2's payload
        // and replica 0's; backup 4 drops the uncommitted old ops.
        let dvc = cores[2].emit_dvc(v).unwrap();
        assert_eq!(cores[1].on_do_view_change(dvc, late), DvcStep::Wait);
        let dvc = cores[0].emit_dvc(v).unwrap();
        let sv = started(cores[1].on_do_view_change(dvc, late));
        for j in [2, 4] {
            let ack = cores[j].on_start_view(sv.clone(), late);
            assert_eq!((ack.accepted, ack.op_num), (true, 0));
        }
        // The new view's op 1 commits as itself everywhere.
        let prep = cores[1].client_op(3).unwrap();
        assert_eq!(prep.op_num, 1);
        for j in [2, 4] {
            let ack = cores[j].on_prepare(v, v, 1, 0, prep.update, late);
            cores[1].on_ack(j as u32, &ack);
        }
        assert_eq!(cores[1].commit_num(), 1);
        cores[4].on_commit_hb(v, 1, late);
        assert_eq!(cores[4].state().total, 3);
    }

    #[test]
    fn superseded_op_is_never_reported_committed() {
        // A deposed primary polling its op by number alone could be told
        // "committed" after a view change replaced the entry at that op
        // number. Outcomes are keyed by viewstamp instead.
        let mut cores = trio();
        // Primary 0 sequences an op that reaches nobody.
        let prep = cores[0].client_op(1).unwrap();
        assert_eq!(prep.op_num, 1);
        // Replicas 1 and 2 change views without the op...
        let late = t(10_000);
        depose_replica_zero(&mut cores, late);
        // ...and the new primary commits a *different* update at op 1.
        let p2 = cores[1].client_op(2).unwrap();
        assert_eq!(p2.op_num, 1);
        let ack = cores[2].on_prepare(p2.view, p2.view, p2.op_num, p2.commit_num, p2.update, late);
        cores[1].on_ack(2, &ack);
        assert_eq!(cores[1].commit_num(), 1);
        // The stale primary catches up; its own op must read as
        // superseded, never as a success.
        assert!(caught_up(&poll(&mut cores, 0, &[1, 2], late), false));
        assert_eq!(cores[0].commit_num(), 1);
        assert_eq!(cores[0].outcome_of(0, 1), OpOutcome::Superseded);
        // The replacement's own viewstamp still attests normally.
        assert_eq!(cores[0].outcome_of(1, 1), OpOutcome::Done(Ok(2)));
    }

    #[test]
    fn entry_view_survives_view_change_and_attests_outcome() {
        // Re-sent entries used to be re-stamped with the sender's current
        // view, eroding the "(view, op) names one update" invariant. The
        // original prepare view now rides the wire next to the sender's
        // view.
        let mut cores = trio();
        // Op 1 is prepared in view 0 on {0, 1}; replica 2 misses it.
        let prep = cores[0].client_op(1).unwrap();
        let a1 = cores[1].on_prepare(0, 0, prep.op_num, prep.commit_num, prep.update, t(1));
        cores[0].on_ack(1, &a1);
        // View change to view 1 carries the entry in the tail.
        let late = t(10_000);
        let ack = depose_replica_zero(&mut cores, late);
        cores[1].on_ack(2, &ack);
        let commit = cores[1].commit_num();
        cores[2].on_commit_hb(1, commit, late);
        // Everyone's copy still carries the original view 0 — and the
        // original sequencer's viewstamp still attests the commit.
        for c in &cores[1..] {
            assert_eq!(c.entries_from(1).unwrap()[0].view, 0);
            assert_eq!(c.outcome_of(0, 1), OpOutcome::Done(Ok(1)));
        }
    }

    #[test]
    fn dvc_released_only_while_still_in_the_proposed_view() {
        // DoViewChange used to be emitted the moment a replica joined a
        // proposal; a stale payload could then complete a view the
        // sender had since left. Emission is now gated on the initiator
        // observing a join majority, and refused once the sender moved
        // on.
        let mut cores = trio();
        let late = t(10_000);
        let v = cores[2].begin_view_change(late);
        let v2 = cores[2].begin_view_change(t(20_000));
        assert!(v2 > v);
        assert!(cores[2].emit_dvc(v).is_none(), "old promise is off");
        assert!(cores[2].emit_dvc(v2).is_some());
    }

    #[test]
    fn emitted_dvc_blocks_revert_and_forces_readmission() {
        let mut cores = trio();
        let late = t(10_000);
        // Replica 1 proposes view 1 with a majority; DVCs are released.
        let v = cores[1].begin_view_change(late);
        assert!(cores[2].on_start_view_change(v, false, late).joined);
        assert!(cores[2].emit_dvc(v).is_some());
        // The change stalls; 2's own follow-up proposal finds no quorum.
        // It must NOT revert to Normal below its emitted DVC — that
        // payload may still complete view 1 without its newer acks.
        let v2 = cores[2].begin_view_change(t(20_000));
        cores[2].abort_view_change(v2, t(20_000));
        assert_eq!(cores[2].status(), VsrStatus::ViewChange);
        assert!(cores[2].vc_forced());
        // The initiator never emitted its own DVC, so it is free to
        // revert; it becomes a loyal Normal backup again.
        cores[1].abort_view_change(v, t(20_500));
        assert_eq!(cores[1].status(), VsrStatus::Normal);
        // A loyal backup (fresh primary contact) declines its ordinary
        // proposal but admits the forced one: re-admission only through
        // a completed view change.
        let prep = cores[0].client_op(1).unwrap();
        let hb = cores[1].on_prepare(0, 0, prep.op_num, prep.commit_num, prep.update, t(21_000));
        cores[0].on_ack(1, &hb);
        let v3 = cores[2].begin_view_change(t(22_000));
        assert!(!cores[1].on_start_view_change(v3, false, t(22_000)).joined);
        assert!(cores[1].on_start_view_change(v3, true, t(22_000)).joined);
    }

    #[test]
    fn recovery_counts_only_normal_or_cold_answers() {
        // Probationary or view-changing peers used to count toward the
        // f+1 recovery quorum; only Normal replicas serve trusted state,
        // with genuinely cold peers admitted so a cold-started group can
        // bootstrap.
        let mut cores = trio();
        replicate(&mut cores, 0, 1);
        cores[2].begin_view_change(t(10_000));
        cores[1] = reborn(1, 3, 64);
        poll(&mut cores, 1, &[0, 2], t(10_000));
        assert!(
            cores[1].in_probation(),
            "a view-changing peer's answer does not count"
        );
        let mut cold: Vec<VsrCore<CounterMachine>> = (0..3).map(|i| reborn(i, 3, 64)).collect();
        let events = poll(&mut cold, 0, &[1, 2], t(1));
        assert!(events.is_empty(), "cold answers carry nothing");
        assert!(cold[0].is_master(), "a cold-started group bootstraps");
    }

    #[test]
    fn stale_view_messages_are_rejected() {
        let mut cores = trio();
        // Move 1 and 2 to view 1.
        let late = t(10_000);
        depose_replica_zero(&mut cores, late);
        // The deposed view-0 primary's prepare bounces with the higher
        // view in the ack, flagging it for state transfer.
        let prep = cores[0].client_op(1).unwrap();
        let ack = cores[1].on_prepare(
            prep.view,
            prep.view,
            prep.op_num,
            prep.commit_num,
            prep.update,
            late,
        );
        assert!(!ack.accepted);
        assert_eq!(ack.view, 1);
        cores[0].on_ack(1, &ack);
        assert!(
            cores[0].needs_catchup(),
            "deposed primary runs state transfer"
        );
    }
}
