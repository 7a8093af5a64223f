//! The VSR peer protocol, both halves, written once.
//!
//! **Sending.** Every call a replica makes to its peers leaves from its
//! one long-lived peer endpoint, a [`CallPort`], opened at
//! [`Replica::start`]. The commit path waits for nothing: a freshly
//! sequenced op's `prepare` (to every backup at once) and a backup's
//! `forward_op` (to the primary) are answered where their replies land —
//! an ack fed to the engine, a forwarded op's outcome handed to its
//! client — by the replica (`replica.rs`). The rounds — `commit_hb`,
//! `start_view_change`, `view_change_go`, `start_view`, `get_state` — go
//! to their peers at the same instant and the process that runs them
//! waits for the answers ([`CallPort::gather`]), so a round costs one
//! round trip and at most one `peer_timeout`, however many peers are
//! slow, partitioned or dead. A re-sent `prepare`, a `do_view_change`
//! and the `get_state` that fetches what a poll could not carry are
//! rounds of one.
//!
//! **Receiving.** [`PeerServant`] is the one servant of the protocol:
//! it unmarshals what the sending half marshalled and runs the step on
//! its [`Replica`] — `prepare`, `commit_hb`, `forward_op` and `get_state`
//! where they arrive — in the simulator with no process of their own
//! (`Servant::runs_inline`), on the thread stepping the kernel; on TCP in
//! a task the node's loop starts where it read the frame. A forwarded op
//! is answered by the ack that commits it. A group's peer interface
//! differs from another's in its wire name
//! ([`Replicated::PEER_INTERFACE`]) and in the op and snapshot types its
//! frames carry, nothing else: both halves number and name the methods
//! from [`Method`].

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use ocs_orb::bytes::Bytes;
use ocs_orb::{CallPort, Caller, ClientCtx, Gather, ObjRef, OnReply, OpName, OrbError, Servant};
use ocs_sim::{Addr, NetError, Rt, SimTime};
use ocs_wire::{type_id_of, Decoder, Encoder, Wire};

use crate::replica::Replica;
use crate::{
    DoViewChange, LogEntry, OpNum, PeerAck, PollAnswers, Prepare, Replicated, StartView,
    StateTransfer, SvcAck, View,
};

/// Object id of the peer servant on every replica's ORB (the service's
/// own root servant is object 0).
pub(crate) const PEER_OBJ: u64 = 1;

/// The methods of the VSR peer protocol; the discriminant is the wire
/// id.
#[derive(Clone, Copy, PartialEq)]
enum Method {
    /// Primary → backup: append `update` at `op_num`. `view` is the
    /// sender's view and gates acceptance; `entry_view` is the view that
    /// first sequenced the op and is what the log records.
    Prepare = 1,
    /// Primary → backup heartbeat carrying the commit watermark.
    CommitHb = 2,
    /// Suspect → all: propose a view. Joining does not release the
    /// joiner's `DoViewChange`; that waits for `ViewChangeGo`.
    StartViewChange = 3,
    /// Joiner → new primary: log hand-off for the view change.
    DoViewChange = 4,
    /// New primary → backups: the chosen log for the new view; the ack
    /// doubles as a prepare-ok for the carried tail.
    StartView = 5,
    /// State-transfer request from a lagging or recovering replica:
    /// `(from_op, snapshot_ok)`.
    GetState = 6,
    /// Backup → primary: sequence a client op on my behalf; the reply is
    /// the committed outcome.
    ForwardOp = 7,
    /// Initiator → joiner: a majority joined `view`, release your
    /// `DoViewChange`.
    ViewChangeGo = 8,
}

/// Every [`Method`] with its name, in wire-id order.
const METHODS: [(Method, &str); 8] = [
    (Method::Prepare, "prepare"),
    (Method::CommitHb, "commit_hb"),
    (Method::StartViewChange, "start_view_change"),
    (Method::DoViewChange, "do_view_change"),
    (Method::StartView, "start_view"),
    (Method::GetState, "get_state"),
    (Method::ForwardOp, "forward_op"),
    (Method::ViewChangeGo, "view_change_go"),
];

impl Method {
    /// Index into [`METHODS`].
    fn index(self) -> usize {
        self as usize - 1
    }

    fn from_id(id: u32) -> Option<Method> {
        let (method, _) = METHODS.get((id as usize).checked_sub(1)?)?;
        Some(*method)
    }
}

/// A peer method's reply as it travels. The servant never fails a call
/// itself, so the error side is nominal: it exists because every ORB
/// reply body is a `Result`.
type Reply<T> = Result<T, OrbError>;

/// A call from the replica's peer endpoint, by what its reply is for.
pub(crate) enum PeerCall {
    /// A `prepare` of op `.1` to backup `.0`: the reply is its ack.
    Prepare(u32, OpNum),
    /// A log entry re-sent to this backup to refill a gap: the reply is
    /// its ack.
    Refill(u32),
    /// The client op the replica forwarded to the primary under this
    /// number: the reply is its outcome.
    Forward(u64),
}

/// One replica's calls to its peers.
pub struct PeerFanout {
    ctx: ClientCtx,
    /// Every other replica's id, and — same order — its peer servant.
    ids: Vec<u32>,
    targets: Vec<ObjRef>,
    /// The peer interface's wire name, which client spans are named in.
    iface: &'static str,
    /// The long-lived peer endpoint every call leaves from; opened by
    /// [`PeerFanout::open`] at [`Replica::start`].
    port: OnceLock<Arc<CallPort<PeerCall>>>,
}

impl PeerFanout {
    /// The calls of replica `replica_id` to the peer servants of
    /// interface `iface` at every other address in `peers`.
    pub(crate) fn new(
        rt: Rt,
        peer_timeout: Duration,
        replica_id: u32,
        peers: &[Addr],
        iface: &'static str,
    ) -> PeerFanout {
        let (ids, targets) = (0u32..)
            .zip(peers)
            .filter(|(id, _)| *id != replica_id)
            .map(|(id, addr)| {
                let target = ObjRef {
                    addr: *addr,
                    incarnation: ObjRef::STABLE,
                    type_id: type_id_of(iface),
                    object_id: PEER_OBJ,
                };
                (id, target)
            })
            .unzip();
        PeerFanout {
            ctx: ClientCtx::new(rt).with_timeout(peer_timeout),
            ids,
            targets,
            iface,
            port: OnceLock::new(),
        }
    }

    /// The client span name of a call of `method`.
    fn op(&self, method: Method) -> OpName {
        OpName::of(self.iface, METHODS[method.index()].1)
    }

    /// A majority of the group (the peers plus this replica).
    pub fn majority(&self) -> usize {
        let group = self.ids.len() + 1;
        group / 2 + 1
    }

    /// Sends `method(args)` from the peer endpoint to the peers among
    /// `to` at once and hands each successful answer to `on_reply` in
    /// arrival order, until it says [`Gather::Enough`] or one
    /// `peer_timeout` has passed. Peers that fail or stay silent are
    /// simply not reported.
    fn round<T: Wire>(
        &self,
        to: &[u32],
        method: Method,
        args: Encoder,
        mut on_reply: impl FnMut(u32, T) -> Gather,
    ) {
        let Some(port) = self.port.get() else { return };
        let (ids, targets): (Vec<u32>, Vec<ObjRef>) = (self.ids.iter().zip(&self.targets))
            .filter(|(id, _)| to.contains(id))
            .map(|(id, target)| (*id, *target))
            .unzip();
        port.gather(
            &targets,
            method as u32,
            args.finish(),
            self.op(method),
            |i, reply| match decode::<T>(reply) {
                Some(answer) => on_reply(ids[i], answer),
                None => Gather::More,
            },
        );
    }

    /// [`PeerFanout::round`] to every peer, hearing everyone out.
    fn broadcast_all<T: Wire>(
        &self,
        method: Method,
        args: Encoder,
        mut on_reply: impl FnMut(u32, T),
    ) {
        self.round(&self.ids, method, args, |i, answer| {
            on_reply(i, answer);
            Gather::More
        });
    }

    // ---- the commit path -------------------------------------------------

    /// Opens the peer endpoint; the outcome of every call sent from it
    /// goes to `on_reply`, on the thread it lands on.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub(crate) fn open(&self, on_reply: OnReply<PeerCall>) -> Result<(), NetError> {
        let port = CallPort::open(self.ctx.clone(), on_reply)?;
        assert!(self.port.set(port).is_ok(), "peer endpoint opened twice");
        Ok(())
    }

    /// Sends a freshly sequenced op's `prepare` to every backup at the
    /// same instant; each ack lands as [`PeerCall::Prepare`].
    pub(crate) fn prepare<Op: Wire>(&self, prep: &Prepare<Op>) {
        let Some(port) = self.port.get() else { return };
        // Sender view and entry view coincide for a fresh op.
        let args = prepare_args(prep.view, prep.view, prep.op_num, prep.commit_num, &prep.update);
        let (method, args) = (Method::Prepare, args.finish());
        for (id, target) in self.ids.iter().zip(&self.targets) {
            let call = PeerCall::Prepare(*id, prep.op_num);
            port.call(target, method as u32, args.clone(), self.op(method), call);
        }
    }

    /// Re-sends one log entry to a backup whose log ends just before it;
    /// the ack lands as [`PeerCall::Refill`]. The sender's view and the
    /// entry's original view travel separately: a re-send never re-stamps
    /// the entry.
    pub(crate) fn refill<Op: Wire>(
        &self,
        peer: u32,
        view: View,
        entry: &LogEntry<Op>,
        commit_num: OpNum,
    ) {
        let (Some(port), Some(target)) = (self.port.get(), self.target(peer)) else {
            return;
        };
        let args = prepare_args(view, entry.view, entry.op, commit_num, &entry.update);
        let (method, call) = (Method::Prepare, PeerCall::Refill(peer));
        port.call(target, method as u32, args.finish(), self.op(method), call);
    }

    /// Forwards client op number `n` to the primary; its outcome, or why
    /// the call failed, lands as [`PeerCall::Forward`].
    pub(crate) fn forward<Op: Wire>(&self, primary: u32, op: &Op, n: u64) -> Result<(), OrbError> {
        let port = self.port.get().ok_or_else(|| OrbError::Transport {
            what: "replica not started".to_string(),
        })?;
        let target = self.target(primary).ok_or(OrbError::UnknownObject)?;
        let mut args = Encoder::new();
        op.encode_into(&mut args);
        let method = Method::ForwardOp;
        port.call(target, method as u32, args.finish(), self.op(method), PeerCall::Forward(n));
        Ok(())
    }

    /// Times out the calls from the peer endpoint due at `now`.
    pub(crate) fn expire(&self, now: SimTime) {
        if let Some(port) = self.port.get() {
            port.expire(now);
        }
    }

    // ---- the rounds --------------------------------------------------------

    /// Peer `peer`'s servant.
    fn target(&self, peer: u32) -> Option<&ObjRef> {
        let at = self.ids.iter().position(|id| *id == peer)?;
        Some(&self.targets[at])
    }

    /// Hands this replica's `DoViewChange` to the new primary.
    pub fn do_view_change<Op: Wire>(&self, primary: u32, dvc: &DoViewChange<Op>) {
        let mut args = Encoder::new();
        dvc.encode_into(&mut args);
        self.round(&[primary], Method::DoViewChange, args, |_, ()| {
            Gather::Enough
        });
    }

    /// One heartbeat to every backup; every ack is reported.
    pub fn commit_hb(&self, view: View, commit_num: OpNum, mut on_ack: impl FnMut(u32, &PeerAck)) {
        let mut args = Encoder::new();
        view.encode_into(&mut args);
        commit_num.encode_into(&mut args);
        self.broadcast_all(Method::CommitHb, args, |i, ack| on_ack(i, &ack));
    }

    /// Proposes `view` to every peer and returns the peers that joined —
    /// as soon as they and this replica form a majority, so a change
    /// does not wait out the dead primary. A peer that declines reports
    /// its own view to `declined`.
    pub fn start_view_change(
        &self,
        view: View,
        forced: bool,
        mut declined: impl FnMut(View),
    ) -> Vec<u32> {
        let mut args = Encoder::new();
        view.encode_into(&mut args);
        forced.encode_into(&mut args);
        let mut joiners = Vec::new();
        self.round(
            &self.ids,
            Method::StartViewChange,
            args,
            |i, ack: SvcAck| {
                if ack.joined {
                    joiners.push(i);
                } else {
                    declined(ack.view);
                }
                if joiners.len() + 1 >= self.majority() {
                    Gather::Enough
                } else {
                    Gather::More
                }
            },
        );
        joiners
    }

    /// Tells the `joiners` of `view` to release their `DoViewChange`s,
    /// all at once; returns when each has answered or timed out.
    pub fn view_change_go(&self, joiners: &[u32], view: View) {
        let mut args = Encoder::new();
        view.encode_into(&mut args);
        self.round(joiners, Method::ViewChangeGo, args, |_, ()| Gather::More);
    }

    /// Announces the new view's chosen log to every backup; every ack is
    /// reported.
    pub fn start_view<Op: Wire>(
        &self,
        sv: &StartView<Op>,
        mut on_ack: impl FnMut(u32, &PeerAck),
    ) {
        let mut args = Encoder::new();
        sv.encode_into(&mut args);
        self.broadcast_all(Method::StartView, args, |i, ack| on_ack(i, &ack));
    }

    /// Every reachable peer's answer to `get_state(from_op)` with no
    /// snapshot asked for: what they are worth is the engine's to decide
    /// ([`crate::VsrCore::on_poll`]).
    pub fn poll_state<Op: Wire, Snap: Wire>(&self, from_op: OpNum) -> PollAnswers<Op, Snap> {
        let mut answers = Vec::new();
        self.broadcast_all(Method::GetState, state_args(from_op, false), |i, st| {
            answers.push((i, st))
        });
        answers
    }

    /// One `get_state(from_op, snapshot_ok)` to `peer`; `None` if it
    /// failed or stayed silent.
    pub fn get_state<Op: Wire, Snap: Wire>(
        &self,
        peer: u32,
        from_op: OpNum,
        snapshot_ok: bool,
    ) -> Option<StateTransfer<Op, Snap>> {
        let mut answer = None;
        self.round(&[peer], Method::GetState, state_args(from_op, snapshot_ok), |_, st| {
            answer = Some(st);
            Gather::Enough
        });
        answer
    }
}

/// The arguments of a `get_state`.
fn state_args(from_op: OpNum, snapshot_ok: bool) -> Encoder {
    let mut args = Encoder::new();
    from_op.encode_into(&mut args);
    snapshot_ok.encode_into(&mut args);
    args
}

/// The arguments of a `prepare`.
fn prepare_args<Op: Wire>(
    view: View,
    entry_view: View,
    op_num: OpNum,
    commit_num: OpNum,
    update: &Op,
) -> Encoder {
    let mut args = Encoder::new();
    view.encode_into(&mut args);
    entry_view.encode_into(&mut args);
    op_num.encode_into(&mut args);
    commit_num.encode_into(&mut args);
    update.encode_into(&mut args);
    args
}

/// A peer's successful answer, or `None` for any failure (transport,
/// decode, or an error the servant returned) — the rounds treat them
/// all as silence.
pub(crate) fn decode<T: Wire>(reply: Result<Bytes, OrbError>) -> Option<T> {
    <Reply<T>>::from_bytes(&reply.ok()?).ok()?.ok()
}

/// The receiving half: the peer servant of one replica.
pub(crate) struct PeerServant<M: Replicated>(pub(crate) Arc<Replica<M>>);

impl<M: Replicated> Servant for PeerServant<M> {
    fn type_id(&self) -> u32 {
        type_id_of(M::PEER_INTERFACE)
    }

    fn type_name(&self) -> &'static str {
        M::PEER_INTERFACE
    }

    fn method_name(&self, method: u32) -> &'static str {
        Method::from_id(method).map_or("?", |m| METHODS[m.index()].1)
    }

    /// The calls of the steady state — one engine step under the engine
    /// lock, which nobody holds across a wait — are answered where they
    /// arrive: a backup takes its primary's prepares in the order they
    /// were sent, and one that fell behind works the backlog off without
    /// a process per queued prepare; a forwarded op is sequenced there
    /// and answered by the ack that commits it. A state poll is one read
    /// under the same lock, answered there too. The rest of the protocol
    /// calls out.
    fn runs_inline(&self, method: u32) -> bool {
        matches!(
            Method::from_id(method),
            Some(Method::Prepare | Method::CommitHb | Method::ForwardOp | Method::GetState)
        )
    }

    fn dispatch(&self, caller: &Caller, method: u32, args: &[u8]) -> Result<Bytes, OrbError> {
        fn arg<T: Wire>(d: &mut Decoder<'_>) -> Result<T, OrbError> {
            T::decode_from(d).map_err(|e| OrbError::Decode {
                what: e.to_string(),
            })
        }
        fn ok<T: Wire>(answer: T) -> Bytes {
            Reply::Ok(answer).to_bytes()
        }
        fn end(d: &Decoder<'_>) -> Result<(), OrbError> {
            d.expect_end().map_err(|e| OrbError::Decode {
                what: e.to_string(),
            })
        }
        let method = Method::from_id(method).ok_or(OrbError::UnknownMethod)?;
        let rep = &self.0;
        let now = rep.rt().now();
        let d = &mut Decoder::new(args);
        // Tuple fields are evaluated left to right: the order on the wire.
        Ok(match method {
            Method::Prepare => {
                let (view, entry_view, op_num, commit_num, update) =
                    (arg(d)?, arg(d)?, arg(d)?, arg(d)?, arg(d)?);
                end(d)?;
                ok(rep.with_engine(|c| {
                    c.on_prepare(view, entry_view, op_num, commit_num, update, now)
                }))
            }
            Method::CommitHb => {
                let (view, commit_num) = (arg(d)?, arg(d)?);
                end(d)?;
                ok(rep.with_engine(|c| c.on_commit_hb(view, commit_num, now)))
            }
            Method::StartViewChange => {
                let (view, forced) = (arg(d)?, arg(d)?);
                end(d)?;
                ok(rep.with_engine(|c| c.on_start_view_change(view, forced, now)))
            }
            Method::DoViewChange => {
                let dvc = arg(d)?;
                end(d)?;
                rep.accept_dvc(dvc);
                ok(())
            }
            Method::StartView => {
                let sv = arg(d)?;
                end(d)?;
                ok(rep.with_engine(|c| c.on_start_view(sv, now)))
            }
            Method::GetState => {
                let (from_op, snapshot_ok) = (arg(d)?, arg(d)?);
                end(d)?;
                ok(rep.serve_state(from_op, snapshot_ok))
            }
            Method::ForwardOp => {
                let op = arg(d)?;
                end(d)?;
                let reply = caller.reply_later().ok_or_else(|| OrbError::Internal {
                    what: "forward_op needs a request's reply to answer at commit".to_string(),
                })?;
                rep.master_submit_then(op, Box::new(move |_, out: M::Outcome| reply.send(out)));
                Bytes::new() // Not sent: the commit answers.
            }
            Method::ViewChangeGo => {
                let view = arg(d)?;
                end(d)?;
                // The initiator saw a join majority for `view`: a
                // majority has left the older views, so no op can commit
                // below `view` behind our back and our payload is safe
                // to release.
                if let Some(dvc) = rep.with_engine(|c| c.emit_dvc(view)) {
                    rep.deliver_dvc(dvc);
                }
                ok(())
            }
        })
    }
}
