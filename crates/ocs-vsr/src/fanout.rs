//! The replica drivers' concurrent peer fan-out, written once.
//!
//! Every VSR broadcast — `prepare`, `commit_hb`, `start_view_change`,
//! `view_change_go`, `start_view`, `get_state` — goes to all peers at
//! the same instant through one ORB [`Scatter`], so a round costs one
//! round trip and at most one `peer_timeout`, however many peers are
//! slow, partitioned or dead. [`PeerFanout::replicate`] is the commit
//! path: it returns the moment the engine reports the op's viewstamped
//! outcome (the first ack of a 3-replica group), which makes the cost of
//! a dead backup zero instead of one `peer_timeout` per op.
//!
//! Acks still owed when `replicate` returns are not bounced off a closed
//! port: the finished scatter is parked, and [`PeerFanout::drain`] —
//! called from the next `replicate` and from the driver's tick loop —
//! feeds the stragglers to `on_ack` and closes the endpoint.
//!
//! The three machines' `*Peer` wire interfaces are separate
//! `declare_interface!` declarations with one shared method numbering;
//! every driver runs [`check_numbering`] over its servant, so a
//! renumbered declaration fails at replica start-up rather than on the
//! wire.

use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Duration;

use ocs_orb::bytes::Bytes;
use ocs_orb::{ClientCtx, Gather, ObjRef, OrbError, Scatter, Servant};
use ocs_sim::sync::SyncObj;
use ocs_sim::{Addr, Rt};
use ocs_wire::{Encoder, Wire};
use parking_lot::Mutex;

use crate::{OpNum, OpOutcome, PeerAck, Prepare, StartView, StateTransfer, SvcAck, View};

/// The broadcast methods of the VSR peer protocol.
#[derive(Clone, Copy)]
enum Method {
    Prepare,
    CommitHb,
    StartViewChange,
    StartView,
    GetState,
    ViewChangeGo,
}

/// Wire id and name of each [`Method`], identical in every machine's
/// `*Peer` interface.
const METHODS: [(u32, &str); 6] = [
    (1, "prepare"),
    (2, "commit_hb"),
    (3, "start_view_change"),
    (5, "start_view"),
    (6, "get_state"),
    (8, "view_change_go"),
];

/// Straggler scatters the commit path polls itself; the tick loop sweeps
/// the rest. A straggler ack arrives within a round trip of the first,
/// so only the newest few parked scatters can have anything queued — and
/// with a dead peer the list grows to `rate × peer_timeout`, which a
/// per-op sweep must not walk.
const DRAIN_PER_OP: usize = 4;

/// One replica's fan-out to its peers. `E` is the peer interface's error
/// type (what its replies decode against).
pub struct PeerFanout<E> {
    ctx: ClientCtx,
    peer_timeout: Duration,
    /// Every other replica's id, and — same order — its peer servant.
    ids: Vec<u32>,
    targets: Vec<ObjRef>,
    /// Client span names, `"<interface>.<method>"`, in [`METHODS`] order.
    ops: Vec<String>,
    /// Bumped whenever the engine may have advanced a waiting op.
    progress: Arc<dyn SyncObj>,
    /// Finished `prepare` scatters still owed straggler acks.
    parked: Mutex<Vec<Scatter>>,
    _err: PhantomData<fn() -> E>,
}

/// Checks a servant of a machine's `*Peer` interface against the method
/// numbering this module sends with.
///
/// # Panics
///
/// Panics on a mismatch: the declaration was renumbered.
pub fn check_numbering(servant: &dyn Servant) {
    for (id, name) in METHODS {
        assert_eq!(
            servant.method_name(id),
            name,
            "{} does not follow the VSR peer method numbering",
            servant.type_name()
        );
    }
}

impl<E: Wire> PeerFanout<E> {
    /// A fan-out from replica `replica_id` to the peer servants — of the
    /// interface `type_id`/`iface`, exported as object `peer_obj` — at
    /// every other address in `peers`.
    pub fn new(
        rt: Rt,
        peer_timeout: Duration,
        replica_id: u32,
        peers: &[Addr],
        type_id: u32,
        iface: &str,
        peer_obj: u64,
    ) -> PeerFanout<E> {
        let (ids, targets) = (0u32..)
            .zip(peers)
            .filter(|(id, _)| *id != replica_id)
            .map(|(id, addr)| {
                let target = ObjRef {
                    addr: *addr,
                    incarnation: ObjRef::STABLE,
                    type_id,
                    object_id: peer_obj,
                };
                (id, target)
            })
            .unzip();
        PeerFanout {
            progress: rt.make_sync(),
            ctx: ClientCtx::new(rt).with_timeout(peer_timeout),
            peer_timeout,
            ids,
            targets,
            ops: METHODS
                .iter()
                .map(|(_, name)| format!("{iface}.{name}"))
                .collect(),
            parked: Mutex::new(Vec::new()),
            _err: PhantomData,
        }
    }

    /// A majority of the group (the peers plus this replica).
    pub fn majority(&self) -> usize {
        let group = self.ids.len() + 1;
        group / 2 + 1
    }

    /// Sends `method(args)` to `targets` at once.
    fn scatter(&self, targets: &[ObjRef], method: Method, args: Encoder) -> Option<Scatter> {
        if targets.is_empty() {
            return None;
        }
        let m = method as usize;
        self.ctx
            .scatter(targets, METHODS[m].0, args.finish(), &self.ops[m])
            .ok()
    }

    /// Sends `method(args)` to every peer at once and hands each
    /// successful answer to `on_reply` in arrival order, until it says
    /// [`Gather::Enough`] or one `peer_timeout` has passed. Peers that
    /// fail or stay silent are simply not reported.
    fn broadcast<T: Wire>(
        &self,
        method: Method,
        args: Encoder,
        mut on_reply: impl FnMut(u32, T) -> Gather,
    ) {
        let Some(mut sc) = self.scatter(&self.targets, method, args) else {
            return;
        };
        sc.gather(|i, reply| match decode::<T, E>(reply) {
            Some(answer) => on_reply(self.ids[i], answer),
            None => Gather::More,
        });
    }

    /// [`PeerFanout::broadcast`] for the rounds that hear everyone out.
    fn broadcast_all<T: Wire>(
        &self,
        method: Method,
        args: Encoder,
        mut on_reply: impl FnMut(u32, T),
    ) {
        self.broadcast(method, args, |i, answer| {
            on_reply(i, answer);
            Gather::More
        });
    }

    // ---- the commit path -------------------------------------------------

    /// Replicates a sequenced op: sends the `prepare` to every backup at
    /// the same instant, feeds each ack to `on_ack`, and returns as soon
    /// as `outcome` — the engine's `outcome_of(view, op)` — is no longer
    /// `Pending`. When the replies alone do not decide it (both prepares
    /// were buffered behind a gap another op's ack will close), waits for
    /// [`PeerFanout::progressed`] instead of polling. Returns `Pending`
    /// if the op is still undecided `2 × peer_timeout` after sequencing:
    /// no quorum is reachable.
    pub fn replicate<Op: Wire, Out>(
        &self,
        prep: &Prepare<Op>,
        on_ack: impl Fn(u32, &PeerAck),
        outcome: impl Fn() -> OpOutcome<Out>,
    ) -> OpOutcome<Out> {
        let rt = self.ctx.rt();
        let deadline = rt.now() + self.peer_timeout * 2;
        self.drain(DRAIN_PER_OP, &on_ack);
        let mut out = outcome();
        if !matches!(out, OpOutcome::Pending) {
            return out; // A group of one commits at sequencing.
        }
        let mut args = Encoder::new();
        // Sender view and entry view coincide for a fresh op.
        prep.view.encode_into(&mut args);
        prep.view.encode_into(&mut args);
        prep.op_num.encode_into(&mut args);
        prep.commit_num.encode_into(&mut args);
        prep.update.encode_into(&mut args);
        if let Some(mut sc) = self.scatter(&self.targets, Method::Prepare, args) {
            sc.gather(|i, reply| {
                self.feed_ack(&on_ack, i, reply);
                out = outcome();
                match out {
                    OpOutcome::Pending => Gather::More,
                    _ => Gather::Enough,
                }
            });
            // The other ack is usually in already: take it now and the
            // endpoint closes here instead of waiting for a drain.
            sc.poll(|i, reply| self.feed_ack(&on_ack, i, reply));
            if !sc.is_done() {
                sc.park();
                self.parked.lock().push(sc);
            }
        }
        loop {
            let seen = self.progress.generation();
            out = outcome();
            let now = rt.now();
            if !matches!(out, OpOutcome::Pending) || now >= deadline {
                return out;
            }
            self.progress.wait_newer(seen, Some(deadline - now));
        }
    }

    /// Hands peer `i`'s `prepare` reply to `on_ack`, if it is an ack.
    fn feed_ack(&self, on_ack: &impl Fn(u32, &PeerAck), i: usize, reply: Result<Bytes, OrbError>) {
        if let Some(ack) = decode::<PeerAck, E>(reply) {
            on_ack(self.ids[i], &ack);
        }
    }

    /// Wakes every `replicate` waiting on the engine. The driver calls
    /// this after any engine step that produced events (a commit, a view
    /// change): that is when an op's outcome can have changed.
    pub fn progressed(&self) {
        self.progress.bump();
    }

    /// Feeds straggler acks of finished `replicate`s to `on_ack` without
    /// blocking, newest `limit` parked scatters only, and closes the
    /// scatters that are complete or past their deadline. The tick loop
    /// sweeps with `usize::MAX`.
    pub fn drain(&self, limit: usize, on_ack: impl Fn(u32, &PeerAck)) {
        let mut taken = {
            let mut parked = self.parked.lock();
            let keep = parked.len().saturating_sub(limit);
            parked.split_off(keep)
        };
        if taken.is_empty() {
            return;
        }
        taken.retain_mut(|sc| {
            sc.poll(|i, reply| self.feed_ack(&on_ack, i, reply));
            !sc.is_done()
        });
        self.parked.lock().append(&mut taken);
    }

    // ---- the rounds --------------------------------------------------------

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
        self.broadcast(Method::StartViewChange, args, |i, ack: SvcAck| {
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
        });
        joiners
    }

    /// Tells the `joiners` of `view` to release their `DoViewChange`s,
    /// all at once; returns when each has answered or timed out.
    pub fn view_change_go(&self, joiners: &[u32], view: View) {
        let to: Vec<ObjRef> = (self.ids.iter().zip(&self.targets))
            .filter(|(id, _)| joiners.contains(id))
            .map(|(_, target)| *target)
            .collect();
        let mut args = Encoder::new();
        view.encode_into(&mut args);
        if let Some(mut sc) = self.scatter(&to, Method::ViewChangeGo, args) {
            sc.gather(|_, _| Gather::More);
        }
    }

    /// Announces the new view's chosen log to every backup; every ack is
    /// reported.
    pub fn start_view<Op: Wire, Snap: Wire>(
        &self,
        sv: &StartView<Op, Snap>,
        mut on_ack: impl FnMut(u32, &PeerAck),
    ) {
        let mut args = Encoder::new();
        sv.encode_into(&mut args);
        self.broadcast_all(Method::StartView, args, |i, ack| on_ack(i, &ack));
    }

    /// Collects `get_state` answers from every reachable peer. Only
    /// *authoritative* answers (Normal, out-of-probation responders)
    /// count toward `countable` and compete for `best`: a probationary
    /// or view-changing peer's log proves nothing about what committed.
    /// Genuinely cold answers (empty, view 0 — a cold-starting group)
    /// count toward `countable` but carry no state. Among authoritative
    /// answers the `(view, op_num, commit_num)` maximum is taken, which
    /// is the latest-view primary's log whenever the primary answered
    /// (a backup never out-runs its primary within a view) — the VSR
    /// recovery preference.
    pub fn poll_state<Op: Wire, Snap: Wire>(&self, from_op: OpNum) -> PeerPoll<Op, Snap> {
        let mut poll = PeerPoll {
            answers: 0,
            countable: 0,
            best: None,
        };
        let mut args = Encoder::new();
        from_op.encode_into(&mut args);
        self.broadcast_all(Method::GetState, args, |_, st| poll.note(st));
        poll
    }
}

/// Result of one `get_state` sweep over the peer set.
pub struct PeerPoll<Op, Snap> {
    /// Peers that answered at all (reachability signal).
    pub answers: usize,
    /// Answers that count toward a recovery quorum: authoritative
    /// (Normal) ones plus genuinely cold ones.
    pub countable: usize,
    /// Freshest authoritative answer by `(view, op_num, commit_num)`.
    pub best: Option<StateTransfer<Op, Snap>>,
}

impl<Op, Snap> PeerPoll<Op, Snap> {
    fn note(&mut self, st: StateTransfer<Op, Snap>) {
        self.answers += 1;
        if st.is_cold() {
            self.countable += 1;
            return;
        }
        if !st.authoritative() {
            return;
        }
        self.countable += 1;
        let fresher = self
            .best
            .as_ref()
            .is_none_or(|b| (st.view, st.op_num, st.commit_num) > (b.view, b.op_num, b.commit_num));
        if fresher {
            self.best = Some(st);
        }
    }
}

/// A peer's successful answer, or `None` for any failure (transport,
/// decode, or an error the servant returned) — the rounds treat them
/// all as silence.
fn decode<T: Wire, E: Wire>(reply: Result<Bytes, OrbError>) -> Option<T> {
    <Result<T, E>>::from_bytes(&reply.ok()?).ok()?.ok()
}
