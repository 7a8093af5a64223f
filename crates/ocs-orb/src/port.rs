//! Calls answered where their replies land.
//!
//! [`ClientCtx::call_named`] and [`Scatter::gather`](crate::Scatter)
//! wait in the calling process for their replies. A [`CallPort`] waits
//! nowhere: it is one long-lived endpoint, served inline
//! ([`Endpoint::serve_inline`]), from which any number of calls go out
//! at once, each with a token. A reply — or the bounce or the timeout
//! that stands for one — is handed with its call's token to the port's
//! handler on the thread it lands on: TCP's connection reader, the
//! simulator's stepping thread. The handler, like any inline handler,
//! waits for nothing. Nothing blocks, so nothing times out by itself:
//! the port's owner runs [`CallPort::expire`] on its own clock.

use std::collections::VecDeque;
use std::sync::Arc;

use bytes::Bytes;
use ocs_sim::{Addr, Endpoint, NetError, PortReq, RecvError, SimTime};
use ocs_telemetry::{SpanCtx, SpanId};
use parking_lot::Mutex;

use crate::client::{parse_reply, ClientCtx};
use crate::types::{ObjRef, OrbError};

/// What a [`CallPort`] does with each call's outcome.
pub type OnReply<T> = Box<dyn Fn(T, Result<Bytes, OrbError>) + Send + Sync>;

/// A long-lived endpoint whose calls are answered where their replies
/// land (see the module docs).
pub struct CallPort<T> {
    ctx: ClientCtx,
    ep: Arc<dyn Endpoint>,
    /// Calls still owed an outcome, in the order they were sent.
    calls: Mutex<VecDeque<Pending<T>>>,
    on_reply: OnReply<T>,
}

/// One call still owed an outcome.
struct Pending<T> {
    request_id: u64,
    to: Addr,
    op: Arc<str>,
    span: SpanCtx,
    parent: SpanId,
    start: SimTime,
    deadline: SimTime,
    /// Whether `deadline` is the context's budget rather than its timeout.
    budget: bool,
    token: T,
}

impl<T: Send + 'static> CallPort<T> {
    /// Opens a port on `ctx`'s node whose calls' outcomes go to
    /// `on_reply`. The endpoint belongs to no process until one
    /// [`adopt`](CallPort::adopt)s it.
    pub fn open(ctx: ClientCtx, on_reply: OnReply<T>) -> Result<Arc<CallPort<T>>, NetError> {
        let ep = ctx.rt.open(PortReq::Ephemeral)?;
        let port = Arc::new(CallPort {
            ctx,
            ep: Arc::clone(&ep),
            calls: Mutex::new(VecDeque::new()),
            on_reply,
        });
        // Weak: the runtime keeps the handler while the port is open, and
        // an open port must not keep its owner alive.
        let weak = Arc::downgrade(&port);
        ep.serve_inline(
            "orb-replies",
            Arc::new(move |item| {
                if let Some(port) = weak.upgrade() {
                    port.land(item);
                }
            }),
        );
        ep.disown();
        Ok(port)
    }

    /// Ties the port's lifetime to the calling process: it closes when
    /// that process dies, as an endpoint the process opened would.
    pub fn adopt(&self) {
        self.ep.adopt();
    }

    /// Sends `method(args)` to `target` under the context's timeout, with
    /// a client span named like a [`call_named`](ClientCtx::call_named)
    /// with the same `op`. Returns at once; a call that cannot be sent
    /// has its error handed to the handler before this returns.
    pub fn call(&self, target: &ObjRef, method: u32, args: Bytes, op: &Arc<str>, token: T) {
        let (span, parent) = self.ctx.span_for_call();
        let start = self.ctx.rt.now();
        let mut pending = Pending {
            request_id: 0,
            to: target.addr,
            op: Arc::clone(op),
            span,
            parent,
            start,
            deadline: start,
            budget: false,
            token,
        };
        let (deadline, budget) = match self.ctx.effective_deadline() {
            Ok(d) => d,
            Err(e) => return self.settle(pending, Err(e)),
        };
        let request_id = self.ctx.rt.rand_u64();
        pending.request_id = request_id;
        pending.deadline = deadline;
        pending.budget = budget;
        // Owed before it is sent: the reply may land on another thread
        // before `send_request` returns.
        self.calls.lock().push_back(pending);
        let sent = self.ctx.send_request(
            &*self.ep, request_id, target, method, args, false, deadline, span,
        );
        if let Err(e) = sent {
            if let Some(pending) = self.take(|p| p.request_id == request_id) {
                self.settle(pending, Err(e));
            }
        }
    }

    /// Times out every call whose deadline is `now` or past. Calls share
    /// the context's timeout, so they come due in the order they left.
    pub fn expire(&self, now: SimTime) {
        loop {
            let due = {
                let mut calls = self.calls.lock();
                match calls.front() {
                    Some(p) if p.deadline <= now => calls.pop_front(),
                    _ => None,
                }
            };
            let Some(pending) = due else { return };
            let expired = if pending.budget {
                OrbError::DeadlineExpired
            } else {
                OrbError::Timeout
            };
            self.settle(pending, Err(expired));
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
                let pending = calls.remove(at).expect("position is in range");
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
        calls.remove(at)
    }

    /// Ends a call's client span and hands its outcome to the handler.
    fn settle(&self, p: Pending<T>, result: Result<Bytes, OrbError>) {
        self.ctx
            .finish_span(p.span, p.parent, &p.op, p.start, result.is_err());
        (self.on_reply)(p.token, result);
    }
}

impl<T> Drop for CallPort<T> {
    fn drop(&mut self) {
        // Calls abandoned without an outcome count as failed calls; their
        // owner is gone, so nobody is told.
        for p in self.calls.get_mut().drain(..) {
            self.ctx
                .finish_span(p.span, p.parent, &p.op, p.start, true);
        }
        self.ep.close();
    }
}
