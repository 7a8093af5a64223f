//! Client-side invocation machinery.
//!
//! [`ClientCtx`] bundles everything a client stub needs: the node
//! runtime, the authentication hook and call options. Generated stubs
//! (see [`declare_interface!`](crate::declare_interface)) call
//! [`ClientCtx::call_named`] with a method id and marshalled arguments;
//! calls answered where their replies land leave from a
//! [`CallPort`](crate::CallPort).

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use ocs_sim::{RecvError, Rt, SimTime};
use ocs_telemetry::{
    current_ctx, CallSpan, Counter, Histo, NodeTelemetry, OpName, Side, SpanCtx, SpanId,
};
use ocs_wire::{Encoder, Wire};

use crate::auth::{ClientAuth, NoAuth};
use crate::types::{ObjRef, OrbError, Reply, Request, FRAME_REPLY, FRAME_REQUEST};

/// Options governing a single remote call.
#[derive(Clone, Copy, Debug)]
pub struct CallOpts {
    /// How long to wait for the reply before raising
    /// [`OrbError::Timeout`]. The paper's services declare a peer dead
    /// "within a few seconds"; 3 s is the default.
    pub timeout: Duration,
    /// Optional absolute deadline budget. When set, calls placed at or
    /// past the deadline fail locally with [`OrbError::DeadlineExpired`],
    /// the wait for a reply is clipped to it, and it is carried in the
    /// request frame so the server sheds the work if it arrives late.
    /// Lets a multi-hop operation hand one shrinking budget down its
    /// call chain instead of stacking fixed timeouts.
    pub deadline: Option<SimTime>,
}

impl Default for CallOpts {
    fn default() -> CallOpts {
        CallOpts {
            timeout: Duration::from_secs(3),
            deadline: None,
        }
    }
}

/// Shared client-side context: runtime + authentication + options.
#[derive(Clone)]
pub struct ClientCtx {
    pub(crate) rt: Rt,
    pub(crate) auth: Arc<dyn ClientAuth>,
    opts: CallOpts,
    node: Arc<ClientNode>,
}

/// What every client context on one node shares, resolved once per node
/// (kept in [`ocs_sim::Extensions`]): building a context looks nothing up
/// by name and allocates nothing but its handle.
struct ClientNode {
    tel: Arc<NodeTelemetry>,
    /// Per-call metric handles — the call hot path must not take the
    /// registry's name-lookup lock per invocation.
    calls: Arc<Counter>,
    errors: Arc<Counter>,
    latency: Arc<Histo>,
    /// Node-shared encoder free-list; a request is written into a reused
    /// buffer instead of one grown afresh per call.
    pool: Arc<ocs_wire::BufPool>,
    /// The pass-through authentication every new context starts with.
    no_auth: Arc<dyn ClientAuth>,
}

impl ClientNode {
    fn of(rt: &Rt) -> Arc<ClientNode> {
        if let Some(node) = rt.extensions().get() {
            return node;
        }
        // Built outside `get_or_init`, which holds the extension map's
        // lock while it runs: the parts are extensions too.
        let tel = NodeTelemetry::of(&**rt);
        let node = ClientNode {
            calls: tel.registry.counter("orb.client.calls"),
            errors: tel.registry.counter("orb.client.errors"),
            latency: tel.registry.histo("orb.client.latency_us"),
            pool: rt.extensions().get_or_init(ocs_wire::BufPool::new),
            no_auth: Arc::new(NoAuth),
            tel,
        };
        rt.extensions().get_or_init(|| node)
    }
}

impl ClientCtx {
    /// A context with pass-through authentication and default options.
    pub fn new(rt: Rt) -> ClientCtx {
        let node = ClientNode::of(&rt);
        ClientCtx {
            rt,
            auth: Arc::clone(&node.no_auth),
            opts: CallOpts::default(),
            node,
        }
    }

    /// Replaces the authentication hook.
    pub fn with_auth(mut self, auth: Arc<dyn ClientAuth>) -> ClientCtx {
        self.auth = auth;
        self
    }

    /// Replaces the call timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> ClientCtx {
        self.opts.timeout = timeout;
        self
    }

    /// Sets an absolute deadline budget for calls through this context
    /// (see [`CallOpts::deadline`]).
    pub fn with_deadline(mut self, deadline: SimTime) -> ClientCtx {
        self.opts.deadline = Some(deadline);
        self
    }

    /// The underlying node runtime.
    pub fn rt(&self) -> &Rt {
        &self.rt
    }

    /// The configured call options.
    pub fn opts(&self) -> CallOpts {
        self.opts
    }

    /// An encoder over a buffer from the node's pool, for a call's
    /// arguments: the frame it finishes is its one allocation.
    pub fn encoder(&self) -> Encoder {
        self.node.pool.encoder(128)
    }

    /// Invokes `method` on `target` with pre-marshalled `args`, returning
    /// the raw reply body (a wire-encoded `Result<T, E>`). `op` names the
    /// client span (generated stubs pass `"<interface>.<method>"`). Every
    /// invocation records a span: a child of the caller's current trace
    /// context when one exists, otherwise the root of a fresh trace.
    ///
    /// The call waits on the calling process's
    /// [`reply_endpoint`](ocs_sim::NodeRt::reply_endpoint), and closes it
    /// if the call fails: a reply or a bounce may still be owed to it.
    ///
    /// Failure mapping:
    /// * transport bounce (peer process died)  → [`OrbError::ObjectDead`]
    /// * stale incarnation rejected by server  → [`OrbError::ObjectDead`]
    /// * no reply within the timeout           → [`OrbError::Timeout`]
    pub fn call_named(
        &self,
        target: &ObjRef,
        method: u32,
        args: Bytes,
        op: &'static str,
    ) -> Result<Bytes, OrbError> {
        let (ctx, parent) = self.span_for_call();
        let start = self.rt.now();
        let result = match self.rt.reply_endpoint() {
            Ok(ep) => {
                let result = self.call_on(&*ep, target, method, args, ctx);
                if result.is_err() {
                    ep.close();
                }
                result
            }
            Err(e) => Err(OrbError::Transport {
                what: e.to_string(),
            }),
        };
        self.finish_span(ctx, parent, op.into(), start, result.is_err());
        result
    }

    /// Allocates the span for one outgoing call: a child of the calling
    /// process's current context, or a fresh root trace.
    pub(crate) fn span_for_call(&self) -> (SpanCtx, SpanId) {
        match current_ctx() {
            Some(cur) => (self.node.tel.tracer.child_of(cur), cur.span),
            None => (self.node.tel.tracer.new_root(), SpanId(0)),
        }
    }

    pub(crate) fn finish_span(
        &self,
        ctx: SpanCtx,
        parent: SpanId,
        op: OpName,
        start: SimTime,
        err: bool,
    ) {
        self.node.calls.inc();
        if err {
            self.node.errors.inc();
        }
        let end = self.rt.now();
        self.node.latency
            .observe(end.as_micros().saturating_sub(start.as_micros()));
        self.node.tel.tracer.record_call(CallSpan {
            ctx,
            parent,
            side: Side::Client,
            op,
            start,
            end,
            err,
        });
    }

    /// The binding deadline for a call placed now: the sooner of
    /// `now + timeout` and the configured budget. Returns whether the
    /// budget (not the per-call timeout) is the binding constraint, and
    /// fails with [`OrbError::DeadlineExpired`] if the budget is already
    /// spent.
    pub(crate) fn effective_deadline(&self) -> Result<(SimTime, bool), OrbError> {
        let now = self.rt.now();
        let by_timeout = now + self.opts.timeout;
        match self.opts.deadline {
            Some(budget) => {
                if now >= budget {
                    Err(OrbError::DeadlineExpired)
                } else if budget < by_timeout {
                    Ok((budget, true))
                } else {
                    Ok((by_timeout, false))
                }
            }
            None => Ok((by_timeout, false)),
        }
    }

    /// Sends one request frame from `ep`; its reply, if any, comes back
    /// to `ep` under `request_id` (a draw from the node's random stream).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn send_request(
        &self,
        ep: &dyn ocs_sim::Endpoint,
        request_id: u64,
        target: &ObjRef,
        method: u32,
        args: Bytes,
        deadline: SimTime,
        span: SpanCtx,
    ) -> Result<(), OrbError> {
        let (body, auth_blob) = self.auth.seal(args);
        let req = Request {
            request_id,
            object_id: target.object_id,
            incarnation: target.incarnation,
            type_id: target.type_id,
            method,
            oneway: false,
            deadline_us: deadline.as_micros(),
            trace_id: span.trace.0,
            span_id: span.span.0,
            principal: self.auth.principal(),
            auth: auth_blob,
            body,
        };
        let mut e = self.node.pool.encoder(req.body.len() + 64);
        e.put_u8(FRAME_REQUEST);
        req.encode_into(&mut e);
        ep.send(target.addr, e.finish()).map_err(|err| match err {
            // A refused connection is the TCP spelling of a bounce: the
            // peer host answered and nothing is listening, so the
            // reference is dead and the caller should re-resolve rather
            // than retry the same address.
            ocs_sim::NetError::PeerRefused(_) => OrbError::ObjectDead,
            err => OrbError::Transport {
                what: err.to_string(),
            },
        })
    }

    fn call_on(
        &self,
        ep: &dyn ocs_sim::Endpoint,
        target: &ObjRef,
        method: u32,
        args: Bytes,
        span: SpanCtx,
    ) -> Result<Bytes, OrbError> {
        let (deadline, budget_bound) = self.effective_deadline()?;
        let expired = || {
            if budget_bound {
                OrbError::DeadlineExpired
            } else {
                OrbError::Timeout
            }
        };
        let request_id = self.rt.rand_u64();
        self.send_request(ep, request_id, target, method, args, deadline, span)?;
        loop {
            let now = self.rt.now();
            if now >= deadline {
                return Err(expired());
            }
            let remaining = deadline - now;
            match ep.recv(Some(remaining)) {
                Ok((_from, msg)) => {
                    let Some(reply) = parse_reply(&msg) else {
                        continue; // Stray or corrupt frame; keep waiting.
                    };
                    if reply.request_id != request_id {
                        continue; // Stale reply from an earlier call.
                    }
                    return match reply.result {
                        Ok(body) => self.auth.unseal_reply(body).ok_or(OrbError::AuthFailed),
                        Err(e) => Err(e),
                    };
                }
                Err(RecvError::Unreachable(addr)) if addr == target.addr => {
                    return Err(OrbError::ObjectDead);
                }
                Err(RecvError::Unreachable(_)) => continue,
                Err(RecvError::TimedOut) => return Err(expired()),
                Err(RecvError::Closed) => {
                    return Err(OrbError::Transport {
                        what: "reply endpoint closed".to_string(),
                    })
                }
            }
        }
    }
}

/// Decodes a received frame as a reply; `None` for a stray or corrupt
/// frame, which every receive loop skips.
pub(crate) fn parse_reply(msg: &Bytes) -> Option<Reply> {
    if *msg.first()? != FRAME_REPLY {
        return None;
    }
    // Decode over the frame so the reply body comes out as a zero-copy
    // slice of it, not a fresh allocation.
    Reply::from_frame(&msg.slice(1..)).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Request;
    use ocs_sim::{Addr, NodeRt, NodeRtExt, PortReq, Sim, SimChan};
    use ocs_wire::Encoder;

    /// A process's calls leave from one reply port; a call that fails
    /// closes it, and the next call waits on a fresh one.
    #[test]
    fn a_process_keeps_its_reply_port_until_a_call_fails() {
        let sim = Sim::new(3);
        let server = sim.add_node("server");
        let client = sim.add_node("client");
        let target = ObjRef {
            addr: Addr::new(server.node(), 100),
            incarnation: ObjRef::STABLE,
            type_id: 1,
            object_id: 0,
        };
        // A hand-rolled server noting where each request came from; it
        // answers the third 1.5 s late.
        let ports: SimChan<u16> = SimChan::new(&sim);
        let (ports2, rt) = (ports.clone(), server.clone());
        server.spawn_fn("server", move || {
            let ep = rt.open(PortReq::Fixed(100)).unwrap();
            for n in 1.. {
                let Ok((from, msg)) = ep.recv(None) else { return };
                ports2.send(from.port);
                if n == 3 {
                    rt.sleep(Duration::from_millis(1_500));
                }
                let req = Request::from_frame(&msg.slice(1..)).unwrap();
                let mut e = Encoder::new();
                e.put_u8(FRAME_REPLY);
                let reply = Reply {
                    request_id: req.request_id,
                    result: Ok(Bytes::new()),
                };
                reply.encode_into(&mut e);
                let _ = ep.send(from, e.finish());
            }
        });
        let outcomes: SimChan<Result<Bytes, OrbError>> = SimChan::new(&sim);
        let (outcomes2, ctx) = (outcomes.clone(), ClientCtx::new(client.clone()));
        client.spawn_fn("client", move || {
            let ctx = ctx.with_timeout(Duration::from_secs(1));
            for _ in 0..4 {
                outcomes2.send(ctx.call_named(&target, 1, Bytes::new(), "test.call"));
            }
        });
        sim.run_until(SimTime::from_secs(10));
        let outcomes: Vec<_> = std::iter::from_fn(|| outcomes.try_recv()).collect();
        let ok = Ok(Bytes::new());
        assert_eq!(outcomes, [ok.clone(), ok.clone(), Err(OrbError::Timeout), ok]);
        let ports: Vec<u16> = std::iter::from_fn(|| ports.try_recv()).collect();
        assert_eq!(ports[..3], [ports[0]; 3]);
        assert_ne!(ports[3], ports[0]);
    }

    /// Every context built on one node shares the node's handles and its
    /// pass-through authentication; another node has its own.
    #[test]
    fn contexts_on_one_node_share_one_handle() {
        let sim = Sim::new(4);
        let (a, b) = (sim.add_node("a"), sim.add_node("b"));
        let (a1, a2, b1) = (
            ClientCtx::new(a.clone()),
            ClientCtx::new(a.clone()),
            ClientCtx::new(b.clone()),
        );
        assert!(Arc::ptr_eq(&a1.node, &a2.node));
        assert!(Arc::ptr_eq(&a1.auth, &a2.auth));
        assert!(!Arc::ptr_eq(&a1.node, &b1.node));
        let calls = NodeTelemetry::of(&*a).registry.counter("orb.client.calls");
        assert!(Arc::ptr_eq(&a1.node.calls, &calls), "the node's registry counts the calls");
    }

    #[test]
    fn default_timeout_is_seconds_scale() {
        let opts = CallOpts::default();
        assert!(opts.timeout >= Duration::from_secs(1));
        assert!(opts.timeout <= Duration::from_secs(10));
    }
}
