//! Calls from one long-lived endpoint.
//!
//! [`ClientCtx::call_named`] places one call from the calling process's
//! reply endpoint and waits there for the reply. A [`CallPort`] is one
//! long-lived endpoint, every landing on it served inline
//! ([`Endpoint::serve`]), from which any number of calls go out at once.
//! A reply — or the bounce or the timeout that stands for one — is
//! matched to its call where it lands: in a task TCP's node loop starts
//! where it read the reply, on the simulator's stepping thread. What
//! happens there depends on how the call was placed:
//!
//! - [`CallPort::call`]: the outcome goes with the call's token to the
//!   port's handler, on that thread. The handler, like any inline
//!   handler, waits for nothing. Nothing blocks, so nothing times out by
//!   itself: the port's owner runs [`CallPort::expire`] on its own clock.
//! - [`CallPort::gather`]: one request to a set of targets, and the
//!   calling process blocks. A landing only queues the outcome for it and
//!   wakes it; it hands the outcomes to a closure in arrival order, under
//!   one deadline for the set, until the closure says [`Gather::Enough`].
//!   A quorum caller stops at the first majority and never waits on a
//!   slow, partitioned or dead peer. Its calls still owed stay owed until
//!   they are answered or expire; a late reply is dropped at the port.

use std::collections::VecDeque;
use std::sync::{Arc, Weak};

use bytes::Bytes;
use ocs_sim::sync::SyncObj;
use ocs_sim::{Addr, Endpoint, NetError, PortReq, RecvError, SimTime};
use ocs_telemetry::{OpName, SpanCtx, SpanId};
use parking_lot::Mutex;

use crate::client::{parse_reply, ClientCtx};
use crate::types::{ObjRef, OrbError};

/// What a [`CallPort`] does with each call's outcome.
pub type OnReply<T> = Box<dyn Fn(T, Result<Bytes, OrbError>) + Send + Sync>;

/// What a [`CallPort::gather`] closure tells the port after each outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gather {
    /// Keep delivering outcomes.
    More,
    /// The caller has what it needs; return now.
    Enough,
}

/// A long-lived endpoint whose calls are answered where their replies
/// land (see the module docs).
pub struct CallPort<T> {
    ctx: ClientCtx,
    ep: Arc<dyn Endpoint>,
    /// Calls still owed an outcome, in the order they were sent.
    calls: Mutex<Vec<Pending<T>>>,
    on_reply: OnReply<T>,
    /// Bumped whenever an outcome is queued for a gather.
    landed: Arc<dyn SyncObj>,
}

/// The outcomes of one gather not yet handed to its closure, each with
/// its target's index.
type Round = Mutex<VecDeque<(usize, Result<Bytes, OrbError>)>>;

/// Who a call's outcome goes to.
enum Owner<T> {
    /// The port's handler, with the call's token.
    Handler(T),
    /// The gather that sent it, as its target's index; gone once that
    /// gather has returned.
    Gather(Weak<Round>, usize),
}

/// One call still owed an outcome.
struct Pending<T> {
    request_id: u64,
    to: Addr,
    op: OpName,
    span: SpanCtx,
    parent: SpanId,
    start: SimTime,
    deadline: SimTime,
    /// Whether `deadline` is the context's budget rather than its timeout.
    budget: bool,
    owner: Owner<T>,
}

impl<T: Send + 'static> CallPort<T> {
    /// Opens a port on `ctx`'s node whose [`call`](CallPort::call)s'
    /// outcomes go to `on_reply`. The endpoint belongs to the calling
    /// process's group, and closes when the port drops or that group is
    /// killed.
    pub fn open(ctx: ClientCtx, on_reply: OnReply<T>) -> Result<Arc<CallPort<T>>, NetError> {
        let ep = ctx.rt.open(PortReq::Ephemeral)?;
        let port = Arc::new(CallPort {
            landed: ctx.rt.make_sync(),
            ctx,
            ep: Arc::clone(&ep),
            calls: Mutex::new(Vec::new()),
            on_reply,
        });
        // Weak: the runtime keeps the handler while the port is open, and
        // an open port must not keep its owner alive.
        let weak = Arc::downgrade(&port);
        ep.serve(
            "orb-replies",
            Arc::new(move |item| {
                if let Some(port) = weak.upgrade() {
                    port.land(item);
                }
            }),
            Arc::new(|_| true),
        );
        Ok(port)
    }

    /// Sends `method(args)` to `target` under the context's timeout, with
    /// a client span named like a [`call_named`](ClientCtx::call_named)
    /// with the same `op`. Returns at once; a call that cannot be sent
    /// has its error handed to the handler before this returns.
    pub fn call(&self, target: &ObjRef, method: u32, args: Bytes, op: OpName, token: T) {
        let deadline = self.ctx.effective_deadline();
        self.send(target, method, args, op, deadline, Owner::Handler(token));
    }

    /// Sends `method(args)` to every target at once under one deadline,
    /// each call with its own request id and client span, and blocks,
    /// handing each target's outcome — its reply, an `ObjectDead` bounce,
    /// or the timeout when the deadline passes — to `on_reply` with the
    /// target's index, in arrival order, until `on_reply` returns
    /// [`Gather::Enough`] or every target has an outcome. A target whose
    /// send fails has that failure as its outcome.
    pub fn gather(
        &self,
        targets: &[ObjRef],
        method: u32,
        args: Bytes,
        op: OpName,
        mut on_reply: impl FnMut(usize, Result<Bytes, OrbError>) -> Gather,
    ) {
        let round: Arc<Round> = Arc::default();
        let deadline = self.ctx.effective_deadline();
        for (index, target) in targets.iter().enumerate() {
            let owner = Owner::Gather(Arc::downgrade(&round), index);
            self.send(target, method, args.clone(), op, deadline.clone(), owner);
        }
        let until = deadline.map_or(SimTime::ZERO, |(at, _)| at);
        let mut owed = targets.len();
        while owed > 0 {
            let seen = self.landed.generation();
            let next = round.lock().pop_front();
            if let Some((index, result)) = next {
                owed -= 1;
                if on_reply(index, result) == Gather::Enough {
                    return;
                }
                continue;
            }
            let now = self.ctx.rt.now();
            if now >= until {
                self.expire(now);
                continue;
            }
            self.landed.wait_newer(seen, Some(until - now));
        }
    }

    /// Times out every call whose deadline is `now` or past.
    pub fn expire(&self, now: SimTime) {
        let due: Vec<Pending<T>> = self
            .calls
            .lock()
            .extract_if(.., |p| p.deadline <= now)
            .collect();
        for pending in due {
            let expired = if pending.budget {
                OrbError::DeadlineExpired
            } else {
                OrbError::Timeout
            };
            self.settle(pending, Err(expired));
        }
    }

    /// Sends one call from the port, owed to `owner` until its outcome.
    fn send(
        &self,
        target: &ObjRef,
        method: u32,
        args: Bytes,
        op: OpName,
        deadline: Result<(SimTime, bool), OrbError>,
        owner: Owner<T>,
    ) {
        let (span, parent) = self.ctx.span_for_call();
        let start = self.ctx.rt.now();
        let mut pending = Pending {
            request_id: 0,
            to: target.addr,
            op,
            span,
            parent,
            start,
            deadline: start,
            budget: false,
            owner,
        };
        let (deadline, budget) = match deadline {
            Ok(d) => d,
            Err(e) => return self.settle(pending, Err(e)),
        };
        let request_id = self.ctx.rt.rand_u64();
        pending.request_id = request_id;
        pending.deadline = deadline;
        pending.budget = budget;
        // Owed before it is sent: the reply may land on another thread
        // before `send_request` returns.
        self.calls.lock().push(pending);
        let sent = self
            .ctx
            .send_request(&*self.ep, request_id, target, method, args, deadline, span);
        if let Err(e) = sent {
            if let Some(pending) = self.take(|p| p.request_id == request_id) {
                self.settle(pending, Err(e));
            }
        }
    }

    /// What landed on the port: a reply, matched to its call by request
    /// id (one the port no longer owes — late, or a stray — is dropped),
    /// or a bounce. Each frame bounces once and in send order, so a
    /// bounce from `addr` is the oldest call still owed there.
    fn land(&self, item: Result<(Addr, Bytes), RecvError>) {
        let (pending, result) = match item {
            Ok((_, msg)) => {
                let Some(reply) = parse_reply(&msg) else {
                    return;
                };
                let id = reply.request_id;
                let Some(pending) = self.take(|p| p.request_id == id) else {
                    return;
                };
                let result = reply
                    .result
                    .and_then(|body| self.ctx.auth.unseal_reply(body).ok_or(OrbError::AuthFailed));
                (pending, result)
            }
            Err(RecvError::Unreachable(addr)) => {
                let mut calls = self.calls.lock();
                let Some(at) = calls.iter().position(|p| p.to == addr) else {
                    return;
                };
                let pending = calls.remove(at);
                drop(calls);
                (pending, Err(OrbError::ObjectDead))
            }
            Err(_) => return,
        };
        self.settle(pending, result);
    }

    /// The newest owed call `pick` accepts, no longer owed.
    fn take(&self, pick: impl Fn(&Pending<T>) -> bool) -> Option<Pending<T>> {
        let mut calls = self.calls.lock();
        let at = calls.iter().rposition(pick)?;
        Some(calls.remove(at))
    }

    /// Ends a call's client span and hands its outcome to its owner.
    fn settle(&self, p: Pending<T>, result: Result<Bytes, OrbError>) {
        self.ctx
            .finish_span(p.span, p.parent, p.op, p.start, result.is_err());
        match p.owner {
            Owner::Handler(token) => (self.on_reply)(token, result),
            Owner::Gather(round, index) => {
                if let Some(round) = round.upgrade() {
                    round.lock().push_back((index, result));
                    self.landed.bump();
                }
            }
        }
    }
}

impl<T> Drop for CallPort<T> {
    fn drop(&mut self) {
        // Calls abandoned without an outcome count as failed calls; their
        // owner is gone, so nobody is told.
        for p in self.calls.get_mut().drain(..) {
            self.ctx
                .finish_span(p.span, p.parent, p.op, p.start, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Reply, Request, FRAME_REPLY};
    use ocs_sim::{NodeRt, NodeRtExt, Rt, Sim, SimChan};
    use ocs_wire::{Encoder, Wire};

    fn reply_frame(request_id: u64, body: &'static [u8]) -> Bytes {
        let mut e = Encoder::new();
        e.put_u8(FRAME_REPLY);
        Reply {
            request_id,
            result: Ok(Bytes::from_static(body)),
        }
        .encode_into(&mut e);
        e.finish()
    }

    #[test]
    fn replies_under_another_request_id_are_ignored() {
        let sim = Sim::new(9);
        let server = sim.add_node("server");
        let client = sim.add_node("client");
        let target = ObjRef {
            addr: Addr::new(server.node(), 100),
            incarnation: ObjRef::STABLE,
            type_id: 1,
            object_id: 0,
        };
        // A hand-rolled server: answers first under a request id nobody
        // is waiting for (a reply that outlived its call), then properly.
        let ep = server.open(PortReq::Fixed(100)).unwrap();
        server.spawn_fn("server", move || {
            let (from, msg) = ep.recv(None).unwrap();
            let req = Request::from_frame(&msg.slice(1..)).unwrap();
            ep.send(from, reply_frame(req.request_id ^ 1, b"stale"))
                .unwrap();
            ep.send(from, reply_frame(req.request_id, b"fresh"))
                .unwrap();
        });
        let out: SimChan<(usize, Result<Bytes, OrbError>)> = SimChan::new(&sim);
        let (out2, rt) = (out.clone(), client.clone() as Rt);
        client.spawn_fn("client", move || {
            let port = CallPort::<()>::open(ClientCtx::new(rt), Box::new(|_, _| {})).unwrap();
            port.gather(
                &[target],
                1,
                Bytes::new(),
                OpName::from("test"),
                |i, reply| {
                    out2.send((i, reply));
                    Gather::More
                },
            );
        });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(out.try_recv(), Some((0, Ok(Bytes::from_static(b"fresh")))));
        assert_eq!(out.try_recv(), None);
    }
}
