//! Scatter-gather invocation: one request, many targets, one deadline.
//!
//! [`ClientCtx::call_named`] is one request and one blocking wait; a
//! caller with N peers to ask pays N sequential round trips — and a full
//! timeout for every peer that is silent. [`ClientCtx::scatter`] sends
//! the same pre-marshalled request to every target at the same instant
//! from **one** ephemeral endpoint and returns a [`Scatter`];
//! [`Scatter::gather`] then hands each target's outcome — its reply, an
//! `ObjectDead` bounce, or the timeout when the single deadline passes —
//! to a closure in arrival order until the closure says
//! [`Gather::Enough`]. A quorum caller stops at the first majority and
//! never waits on a slow, partitioned or dead peer.

use std::collections::VecDeque;
use std::sync::Arc;

use bytes::Bytes;
use ocs_sim::{Addr, Endpoint, PortReq, RecvError, SimTime};
use ocs_telemetry::{SpanCtx, SpanId};

use crate::client::{parse_reply, ClientCtx};
use crate::types::{ObjRef, OrbError};

/// What a gather closure tells the scatter after each outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gather {
    /// Keep delivering outcomes.
    More,
    /// The caller has what it needs; return now.
    Enough,
}

/// One target still owed an outcome.
struct Waiting {
    /// Index into the `targets` slice the scatter was built from.
    index: usize,
    addr: Addr,
    request_id: u64,
    span: SpanCtx,
    parent: SpanId,
}

/// An in-flight scatter: the reply endpoint and the targets still owed
/// an outcome. Dropping it closes the endpoint (late replies bounce).
pub struct Scatter {
    ctx: ClientCtx,
    ep: Arc<dyn Endpoint>,
    op: String,
    start: SimTime,
    deadline: SimTime,
    /// What a target that never answered is told at the deadline.
    expired: OrbError,
    waiting: Vec<Waiting>,
    /// Outcomes decided but not yet handed to a closure.
    ready: VecDeque<(usize, Result<Bytes, OrbError>)>,
}

impl ClientCtx {
    /// Sends `method(args)` to every target from one ephemeral endpoint
    /// under this context's single timeout/deadline. Each target gets its
    /// own request id and client span (named like a [`call_named`] with
    /// the same `op`); a target whose send fails has that failure as its
    /// outcome, without disturbing the others.
    ///
    /// Fails only when nothing was sent: the budget is already spent or
    /// no endpoint could be opened.
    ///
    /// [`call_named`]: ClientCtx::call_named
    pub fn scatter(
        &self,
        targets: &[ObjRef],
        method: u32,
        args: Bytes,
        op: &str,
    ) -> Result<Scatter, OrbError> {
        let (deadline, budget_bound) = self.effective_deadline()?;
        let ep = self
            .rt
            .open(PortReq::Ephemeral)
            .map_err(|e| OrbError::Transport {
                what: e.to_string(),
            })?;
        let mut sc = Scatter {
            ctx: self.clone(),
            ep,
            op: op.to_string(),
            start: self.rt.now(),
            deadline,
            expired: if budget_bound {
                OrbError::DeadlineExpired
            } else {
                OrbError::Timeout
            },
            waiting: Vec::with_capacity(targets.len()),
            ready: VecDeque::new(),
        };
        for (index, target) in targets.iter().enumerate() {
            let (span, parent) = self.span_for_call();
            let w = |request_id| Waiting {
                index,
                addr: target.addr,
                request_id,
                span,
                parent,
            };
            let request_id = self.rt.rand_u64();
            let sent = self.send_request(
                &*sc.ep,
                request_id,
                target,
                method,
                args.clone(),
                false,
                deadline,
                span,
            );
            match sent {
                Ok(()) => sc.waiting.push(w(request_id)),
                Err(e) => sc.settle(w(0), Err(e)),
            }
        }
        Ok(sc)
    }
}

impl Scatter {
    /// Blocks for outcomes, handing each to `on_reply` with its target's
    /// index, until the closure returns [`Gather::Enough`], every target
    /// has an outcome, or the deadline passes (the silent targets are
    /// then told `Timeout`/`DeadlineExpired`). May be called again to
    /// resume.
    pub fn gather(&mut self, mut on_reply: impl FnMut(usize, Result<Bytes, OrbError>) -> Gather) {
        self.pump(&mut on_reply);
    }

    /// Records a target's outcome and queues it for delivery.
    fn settle(&mut self, w: Waiting, result: Result<Bytes, OrbError>) {
        self.ctx
            .finish_span(w.span, w.parent, &self.op, self.start, result.is_err());
        self.ready.push_back((w.index, result));
    }

    fn settle_where(&mut self, pick: impl Fn(&Waiting) -> bool, err: &OrbError) {
        let (hit, rest) = std::mem::take(&mut self.waiting)
            .into_iter()
            .partition(|w| pick(w));
        self.waiting = rest;
        for w in hit {
            self.settle(w, Err(err.clone()));
        }
    }

    fn pump(&mut self, on_reply: &mut dyn FnMut(usize, Result<Bytes, OrbError>) -> Gather) {
        loop {
            while let Some((index, result)) = self.ready.pop_front() {
                if on_reply(index, result) == Gather::Enough {
                    return;
                }
            }
            if self.waiting.is_empty() {
                return;
            }
            let now = self.ctx.rt.now();
            if now >= self.deadline {
                let expired = self.expired.clone();
                self.settle_where(|_| true, &expired);
                continue;
            }
            match self.ep.recv(Some(self.deadline - now)) {
                Ok((_from, msg)) => {
                    let Some(reply) = parse_reply(&msg) else {
                        continue; // Stray or corrupt frame.
                    };
                    let Some(at) = self
                        .waiting
                        .iter()
                        .position(|w| w.request_id == reply.request_id)
                    else {
                        continue; // Stale reply from an earlier call.
                    };
                    let w = self.waiting.remove(at);
                    let result = reply.result.and_then(|body| {
                        self.ctx.auth.unseal_reply(body).ok_or(OrbError::AuthFailed)
                    });
                    self.settle(w, result);
                }
                Err(RecvError::Unreachable(addr)) => {
                    self.settle_where(|w| w.addr == addr, &OrbError::ObjectDead);
                }
                Err(RecvError::TimedOut) => {}
                Err(RecvError::Closed) => {
                    let closed = OrbError::Transport {
                        what: "reply endpoint closed".to_string(),
                    };
                    self.settle_where(|_| true, &closed);
                }
            }
        }
    }
}

impl Drop for Scatter {
    fn drop(&mut self) {
        // Targets abandoned without an outcome count as failed calls.
        for w in &self.waiting {
            self.ctx
                .finish_span(w.span, w.parent, &self.op, self.start, true);
        }
        self.ep.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Reply, Request, FRAME_REPLY};
    use ocs_sim::{NodeRt, NodeRtExt, Rt, Sim, SimChan, SimTime};
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
        ep.disown();
        server.spawn_fn("server", move || {
            ep.adopt();
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
            let mut sc = ClientCtx::new(rt)
                .scatter(&[target], 1, Bytes::new(), "test")
                .unwrap();
            sc.gather(|i, reply| {
                out2.send((i, reply));
                Gather::More
            });
        });
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(out.try_recv(), Some((0, Ok(Bytes::from_static(b"fresh")))));
        assert_eq!(out.try_recv(), None);
    }
}
