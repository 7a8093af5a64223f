//! Server-side object table and request dispatch loop.
//!
//! An [`Orb`] corresponds to one *service process* in the paper: it owns
//! a request endpoint, an incarnation timestamp minted at start-up, and
//! the table of objects the process exports. When the process dies, the
//! endpoint closes (so in-flight requests bounce) and any references
//! carrying the old incarnation are rejected by a successor — exactly the
//! §3.2.1 lifetime rule for object references.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use bytes::Bytes;
use ocs_sim::{Addr, Endpoint, NetError, PortReq, RecvError, Rt, SimTime};
use ocs_telemetry::{
    CallSpan, CtxGuard, NodeTelemetry, OpName, Side, Span, SpanCtx, SpanId, TraceId,
};
use ocs_wire::Wire;

use crate::auth::{NoAuth, ServerAuth};
use crate::types::{Caller, ObjRef, OrbError, Reply, Request, FRAME_REPLY, FRAME_REQUEST};

/// A dispatchable object implementation, produced by the
/// [`declare_interface!`](crate::declare_interface) macro's generated
/// `*Servant` adapters.
pub trait Servant: Send + Sync {
    /// The interface type id this servant implements.
    fn type_id(&self) -> u32;

    /// Unmarshals arguments, invokes the method, and returns the
    /// marshalled reply body (a wire-encoded `Result<T, E>`) — unless
    /// the method took the reply to answer later
    /// ([`Caller::reply_later`]), in which case what it returns is not
    /// sent.
    fn dispatch(&self, caller: &Caller, method: u32, args: &[u8]) -> Result<Bytes, OrbError>;

    /// The interface's type name string, for server span names
    /// (generated servants return their declared name).
    fn type_name(&self) -> &'static str {
        "?"
    }

    /// The name of `method`, for server span names.
    fn method_name(&self, method: u32) -> &'static str {
        let _ = method;
        "?"
    }

    /// Whether `method` never waits for another message: no nested call,
    /// no receive, no sleep, no wait on a sync object — it computes, at
    /// most takes a lock nobody holds across such a wait, sends, and
    /// returns. A method that takes its reply to answer when some later
    /// message arrives ([`Caller::reply_later`]) waits for nothing.
    /// The ORB lets the simulator run such a request where it arrives
    /// ([`Endpoint::serve`]'s `inline`), on the thread stepping the kernel,
    /// instead of in a process of its own — and the simulator panics if
    /// the method waits after all. TCP starts every request's task where
    /// its node's loop read it, so the promise changes nothing there.
    /// Generated servants forward to the interface trait's own
    /// `runs_inline`.
    fn runs_inline(&self, method: u32) -> bool {
        let _ = method;
        false
    }
}

struct Exported {
    servant: Arc<dyn Servant>,
}

/// The reply a request is owed: where it goes, and the server span that
/// ends when it leaves. The ORB sends it when the servant returns, or the
/// servant takes it to send later ([`Caller::reply_later`]).
pub(crate) struct Answer {
    orb: Weak<Orb>,
    to: Addr,
    request_id: u64,
    oneway: bool,
    span: Option<ServerSpan>,
}

/// A traced request's server span, open until its reply leaves.
struct ServerSpan {
    ctx: SpanCtx,
    parent: SpanId,
    /// The servant's `<interface>.<method>`, or the object id and method
    /// a request for no exported object named.
    op: Result<OpName, (u64, u32)>,
    start: SimTime,
}

impl Answer {
    /// Ends the server span and sends `result` to the caller (nothing
    /// for a one-way request, or once the ORB is gone).
    pub(crate) fn send(self, principal: &str, result: Result<Bytes, OrbError>) {
        let Some(orb) = self.orb.upgrade() else {
            return;
        };
        if let Some(s) = self.span {
            let (end, err) = (orb.rt.now(), result.is_err());
            match s.op {
                Ok(op) => orb.tel.tracer.record_call(CallSpan {
                    ctx: s.ctx,
                    parent: s.parent,
                    side: Side::Server,
                    op,
                    start: s.start,
                    end,
                    err,
                }),
                Err((object, method)) => orb.tel.tracer.record(Span {
                    trace: s.ctx.trace,
                    span: s.ctx.span,
                    parent: s.parent,
                    name: format!("server:obj{object}.m{method}"),
                    node: orb.rt.node(),
                    start: s.start,
                    end,
                    err,
                }),
            }
        }
        if self.oneway {
            return;
        }
        let result = result.map(|body| orb.auth.seal_reply(principal, body));
        let reply = Reply {
            request_id: self.request_id,
            result,
        };
        let mut e = orb.pool.encoder(64);
        e.put_u8(FRAME_REPLY);
        reply.encode_into(&mut e);
        let _ = orb.ep.send(self.to, e.finish());
    }
}

/// The per-process object request broker.
///
/// An ORB has no process of its own: [`start`](Orb::start) serves its
/// endpoint, and every request runs in a fresh process
/// ([`Endpoint::serve`]); handlers may block and make nested calls
/// freely. Only the process is fresh: both runtimes run it on a re-used
/// stack, and both start it where the request is delivered — TCP's node
/// loop where it read the frame, the simulator at the delivery instant —
/// with no server process woken in between. In the simulator a method
/// its servant says [`runs_inline`](Servant::runs_inline) gets no
/// process at all: it runs on the stepping context. Either way the reply
/// leaves when the method returns, or — if the method took it
/// ([`Caller::reply_later`]) — whenever it is sent.
pub struct Orb {
    rt: Rt,
    ep: Arc<dyn Endpoint>,
    incarnation: u64,
    auth: Arc<dyn ServerAuth>,
    objects: parking_lot::Mutex<std::collections::HashMap<u64, Exported>>,
    next_obj: AtomicU64,
    started: AtomicU64,
    tel: Arc<NodeTelemetry>,
    /// Dispatch-path metric handles resolved once at construction; the
    /// per-request path never takes the registry's name-lookup lock.
    requests: Arc<ocs_telemetry::Counter>,
    deadline_shed: Arc<ocs_telemetry::Counter>,
    /// Node-shared encoder free-list; a reply is written into a reused
    /// buffer instead of one grown afresh per request.
    pool: Arc<ocs_wire::BufPool>,
}

impl Orb {
    /// Creates an ORB listening on `port` with a fresh random incarnation.
    pub fn new(rt: Rt, port: PortReq) -> Result<Arc<Orb>, NetError> {
        Orb::build(rt, port, None, Arc::new(NoAuth))
    }

    /// Creates an ORB with full control over incarnation and
    /// authentication. Pass `incarnation: Some(ObjRef::STABLE)` for
    /// services (like the name service) whose references must survive
    /// restarts.
    pub fn build(
        rt: Rt,
        port: PortReq,
        incarnation: Option<u64>,
        auth: Arc<dyn ServerAuth>,
    ) -> Result<Arc<Orb>, NetError> {
        // The endpoint belongs to the calling process's group, in which
        // `start`'s requests run: it closes when that group is killed, or
        // when the ORB is shut down.
        let ep = rt.open(port)?;
        let incarnation = incarnation.unwrap_or_else(|| {
            // Random, but never the STABLE sentinel.
            rt.rand_u64() | 1
        });
        let tel = NodeTelemetry::of(&*rt);
        let requests = tel.registry.counter("orb.server.requests");
        let deadline_shed = tel.registry.counter("orb.server.deadline_shed");
        let pool = rt.extensions().get_or_init(ocs_wire::BufPool::new);
        Ok(Arc::new(Orb {
            rt,
            ep,
            incarnation,
            auth,
            objects: parking_lot::Mutex::new(Default::default()),
            next_obj: AtomicU64::new(1),
            started: AtomicU64::new(0),
            tel,
            requests,
            deadline_shed,
            pool,
        }))
    }

    /// The address of this ORB's request endpoint.
    pub fn addr(&self) -> Addr {
        self.ep.local()
    }

    /// This process's incarnation timestamp.
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// The node runtime this ORB runs on.
    pub fn rt(&self) -> &Rt {
        &self.rt
    }

    /// Exports the process's root object (object id 0) and returns its
    /// reference. Most services export exactly one object (§9.2).
    ///
    /// # Panics
    ///
    /// Panics if a root object is already exported.
    pub fn export_root(&self, servant: Arc<dyn Servant>) -> ObjRef {
        let type_id = servant.type_id();
        let mut objects = self.objects.lock();
        assert!(
            !objects.contains_key(&0),
            "root object already exported on this ORB"
        );
        objects.insert(0, Exported { servant });
        self.objref_for(0, type_id)
    }

    /// Exports a dynamically created object under a fresh object id and
    /// returns its reference (the Media Delivery Service does this for
    /// every open movie).
    pub fn export(&self, servant: Arc<dyn Servant>) -> ObjRef {
        let id = self.next_obj.fetch_add(1, Ordering::Relaxed);
        let type_id = servant.type_id();
        self.objects.lock().insert(id, Exported { servant });
        self.objref_for(id, type_id)
    }

    /// Exports an object under a caller-chosen id, replacing any previous
    /// object at that id. The name service uses this so that replicated
    /// context objects receive identical ids on every replica.
    pub fn export_at(&self, object_id: u64, servant: Arc<dyn Servant>) -> ObjRef {
        let type_id = servant.type_id();
        self.objects.lock().insert(object_id, Exported { servant });
        // Keep dynamically assigned ids clear of caller-chosen ones.
        self.next_obj.fetch_max(object_id + 1, Ordering::Relaxed);
        self.objref_for(object_id, type_id)
    }

    /// Withdraws a dynamically created object; later calls on its
    /// references fail with `UnknownObject`.
    pub fn unexport(&self, object_id: u64) {
        self.objects.lock().remove(&object_id);
    }

    fn objref_for(&self, object_id: u64, type_id: u32) -> ObjRef {
        ObjRef {
            addr: self.ep.local(),
            incarnation: self.incarnation,
            type_id,
            object_id,
        }
    }

    /// Shuts the ORB down: closes the request endpoint, so its handler,
    /// and with it the ORB, drops and in-flight requests from clients
    /// bounce. Used by services that terminate deliberately (and by tests
    /// simulating a service crash).
    pub fn shutdown(&self) {
        self.ep.close();
    }

    /// Serves the request endpoint: from now on each request runs where
    /// it lands ([`Endpoint::serve`]), and no process waits for it. The
    /// port's handler holds the ORB, so the ORB lives exactly as long as
    /// its port: until [`shutdown`](Orb::shutdown), the kill of the
    /// group that built it, or its node's crash or stop.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn start(self: &Arc<Self>) {
        let already = self.started.swap(1, Ordering::Relaxed);
        assert_eq!(already, 0, "Orb::start called twice");
        let orb = Arc::clone(self);
        let handler = move |landing: Result<(Addr, Bytes), RecvError>| {
            // A bounce of a reply whose caller is gone: nobody to tell.
            if let Ok((from, msg)) = landing {
                orb.handle_frame(from, msg);
            }
        };
        let orb = Arc::clone(self);
        let inline = move |frame: &[u8]| orb.runs_inline(frame);
        self.ep.serve("orb-worker", Arc::new(handler), Arc::new(inline));
    }

    /// Whether `frame` is a request for a method its servant
    /// [`runs_inline`](Servant::runs_inline).
    fn runs_inline(&self, frame: &[u8]) -> bool {
        let Some((object_id, method)) = Request::peek(frame) else {
            return false;
        };
        let objects = self.objects.lock();
        objects
            .get(&object_id)
            .is_some_and(|e| e.servant.runs_inline(method))
    }

    fn handle_frame(self: &Arc<Self>, from: Addr, msg: Bytes) {
        let Some(&kind) = msg.first() else {
            return;
        };
        if kind != FRAME_REQUEST {
            return;
        }
        // Decode over the frame so the request body comes out as a
        // zero-copy slice of it, not a fresh allocation.
        let rest = msg.slice(1..);
        let Ok(req) = Request::from_frame(&rest) else {
            return; // Corrupt request; nothing to reply to.
        };
        self.handle_request(from, req);
    }

    fn handle_request(self: &Arc<Self>, from: Addr, req: Request) {
        // The one object-table lookup of the request.
        let servant = self
            .objects
            .lock()
            .get(&req.object_id)
            .map(|e| Arc::clone(&e.servant));
        // Server span: a child of the client span carried in the frame.
        // Installing it as the worker's current context makes any nested
        // calls the servant places come out as its children — this is
        // what stitches one settop request into a cross-service tree.
        let span = (req.trace_id != 0).then(|| {
            let parent = SpanCtx {
                trace: TraceId(req.trace_id),
                span: SpanId(req.span_id),
            };
            let ctx = self.tel.tracer.child_of(parent);
            let op = match &servant {
                Some(s) => Ok(OpName::of(s.type_name(), s.method_name(req.method))),
                None => Err((req.object_id, req.method)),
            };
            ServerSpan {
                ctx,
                parent: parent.span,
                op,
                start: self.rt.now(),
            }
        });
        let guard_ctx = span.as_ref().map(|s| s.ctx);
        let answer = Answer {
            orb: Arc::downgrade(self),
            to: from,
            request_id: req.request_id,
            oneway: req.oneway,
            span,
        };
        let pool = Some(Arc::clone(&self.pool));
        let caller = Caller::serving(req.principal.clone(), from.node, Some(answer), pool);
        let result = {
            let _guard = guard_ctx.map(CtxGuard::enter);
            self.dispatch_request(&caller, req, servant)
        };
        // Unless the servant took the reply to answer later.
        if let Some(answer) = caller.take_answer() {
            answer.send(&caller.principal, result);
        }
    }

    fn dispatch_request(
        &self,
        caller: &Caller,
        req: Request,
        servant: Option<Arc<dyn Servant>>,
    ) -> Result<Bytes, OrbError> {
        self.requests.inc();
        // A killed group answers like a dead object: clients re-resolve
        // instead of waiting out a timeout on a servant that will never
        // make progress.
        if self.rt.cancelled() {
            return Err(OrbError::ObjectDead);
        }
        // Shed work whose caller has already given up: the deadline the
        // client stamped into the frame has passed, so computing a reply
        // would only burn server capacity during exactly the overload /
        // recovery windows when it is scarcest.
        if req.deadline_us != 0 && self.rt.now().as_micros() >= req.deadline_us {
            self.deadline_shed.inc();
            self.tel.journal.record(
                self.rt.now(),
                "orb",
                format!("deadline shed: method {} from {}", req.method, caller.node),
            );
            return Err(OrbError::DeadlineExpired);
        }
        // Incarnation check: stale references (from before this process
        // was last restarted) are rejected so clients re-resolve.
        if req.incarnation != ObjRef::STABLE && req.incarnation != self.incarnation {
            return Err(OrbError::ObjectDead);
        }
        let body = self
            .auth
            .unseal(&caller.principal, &req.auth, req.body)
            .ok_or(OrbError::AuthFailed)?;
        let servant = servant.ok_or(OrbError::UnknownObject)?;
        if servant.type_id() != req.type_id {
            return Err(OrbError::WrongType);
        }
        servant.dispatch(caller, req.method, &body)
    }
}

#[cfg(test)]
mod tests {
    //! Both runtimes run consecutive `orb-worker` processes on one
    //! re-used OS thread (TCP) or stack (the simulator); what a request
    //! leaves in its thread-locals must not reach the next one. An
    //! untraced request cannot be made through
    //! `ClientCtx` (every call roots a trace), hence the hand-built
    //! frames.

    use super::*;
    use crate::ClientCtx;
    use ocs_sim::real::RealNet;
    use ocs_sim::{Journal, NodeRtExt, Sim, SimTime};
    use ocs_wire::Encoder;
    use std::time::Duration;

    /// Journals "served", then calls `inner` if it has one.
    struct Noting {
        rt: Rt,
        inner: Option<ObjRef>,
    }

    impl Servant for Noting {
        fn type_id(&self) -> u32 {
            1
        }
        fn dispatch(&self, _c: &Caller, _method: u32, _args: &[u8]) -> Result<Bytes, OrbError> {
            Journal::of(&*self.rt).record(self.rt.now(), "test", "served");
            if let Some(inner) = &self.inner {
                ClientCtx::new(self.rt.clone()).call_named(inner, 1, Bytes::new(), "nested")?;
            }
            Ok(Bytes::new())
        }
    }

    fn start_noting(rt: &Rt, inner: Option<ObjRef>) -> ObjRef {
        let orb = Orb::new(rt.clone(), PortReq::Fixed(100)).unwrap();
        let rt = rt.clone();
        let obj = orb.export_root(Arc::new(Noting { rt, inner }));
        orb.start();
        obj
    }

    /// A request frame for `target` under `trace` (0: untraced).
    fn request(target: &ObjRef, trace: u64, oneway: bool) -> Bytes {
        let mut e = Encoder::new();
        e.put_u8(FRAME_REQUEST);
        Request {
            request_id: 1 + trace,
            object_id: target.object_id,
            incarnation: target.incarnation,
            type_id: target.type_id,
            method: 1,
            oneway,
            deadline_us: 0,
            trace_id: trace,
            span_id: trace,
            principal: "tester",
            auth: Bytes::new(),
            body: Bytes::new(),
        }
        .encode_into(&mut e);
        e.finish()
    }

    /// One request to `target` under `trace` (0: untraced), answered.
    fn exchange(client: &Rt, target: &ObjRef, trace: u64) {
        let ep = client.open(PortReq::Ephemeral).unwrap();
        ep.send(target.addr, request(target, trace, false)).unwrap();
        let (_, reply) = ep.recv(Some(Duration::from_secs(5))).expect("a reply");
        assert_eq!(reply.first(), Some(&FRAME_REPLY));
    }

    /// A one-way request from the wire is dispatched and not answered.
    #[test]
    fn sim_a_one_way_request_is_dispatched_without_a_reply() {
        let sim = Sim::new(11);
        let server: Rt = sim.add_node("server");
        let client: Rt = sim.add_node("c");
        let target = start_noting(&server, None);
        let answered = ocs_sim::SimChan::new(&sim);
        let (answered2, client2) = (answered.clone(), client.clone());
        client.spawn_fn("client", move || {
            let ep = client2.open(PortReq::Ephemeral).unwrap();
            ep.send(target.addr, request(&target, 0, true)).unwrap();
            answered2.send(ep.recv(Some(Duration::from_secs(1))).is_ok());
        });
        sim.run_until(SimTime::from_secs(2));
        let served = Journal::of(&*server)
            .events()
            .iter()
            .filter(|e| e.category == "test")
            .count();
        assert_eq!(served, 1);
        assert_eq!(answered.try_recv(), Some(false), "no reply frame");
    }

    /// What the traced-then-untraced pair must have left on `front`.
    fn assert_second_request_untraced(front: &Rt) {
        let served: Vec<u64> = Journal::of(&**front)
            .events()
            .iter()
            .filter(|e| e.category == "test")
            .map(|e| e.trace.0)
            .collect();
        assert_eq!(served, vec![77, 0], "trace ids on the servant's journal lines");
        let spans = NodeTelemetry::of(&**front).tracer.finished();
        let nested: Vec<&Span> = spans.iter().filter(|s| s.name == "client:nested").collect();
        assert_eq!(nested.len(), 2);
        assert_eq!(nested[0].trace, TraceId(77));
        assert_ne!(nested[0].parent, SpanId(0), "a child of the server span");
        assert_ne!(nested[1].trace, TraceId(77), "parented under the previous request");
        assert_eq!(nested[1].parent, SpanId(0), "the root of a trace of its own");
    }

    #[test]
    fn sim_untraced_request_after_a_traced_one_stays_untraced() {
        let sim = Sim::new(5);
        let front: Rt = sim.add_node("front");
        let back: Rt = sim.add_node("back");
        let client: Rt = sim.add_node("c");
        let inner = start_noting(&back, None);
        let outer = start_noting(&front, Some(inner));
        let client2 = client.clone();
        client.spawn_fn("client", move || {
            exchange(&client2, &outer, 77);
            exchange(&client2, &outer, 0);
        });
        sim.run_until(SimTime::from_secs(1));
        assert_second_request_untraced(&front);
    }

    /// Answers with the name of the thread it was dispatched on; method
    /// 2 promises not to wait.
    struct WhereAmI;

    impl Servant for WhereAmI {
        fn type_id(&self) -> u32 {
            2
        }
        fn dispatch(&self, _c: &Caller, _method: u32, _args: &[u8]) -> Result<Bytes, OrbError> {
            let thread = std::thread::current();
            Ok(Bytes::from(thread.name().unwrap_or("?").to_string()))
        }
        fn runs_inline(&self, method: u32) -> bool {
            method == 2
        }
    }

    #[test]
    fn real_every_method_is_dispatched_on_the_server_nodes_loop() {
        let net = RealNet::new();
        let server: Rt = net.add_node("server").unwrap();
        let client: Rt = net.add_node("c").unwrap();
        let orb = Orb::new(server.clone(), PortReq::Fixed(100)).unwrap();
        let obj = orb.export_root(Arc::new(WhereAmI));
        orb.start();
        let ctx = ClientCtx::new(client).with_timeout(Duration::from_secs(5));
        let ran_on = |method| {
            let body = ctx.call_named(&obj, method, Bytes::new(), "where").unwrap();
            String::from_utf8(body.to_vec()).unwrap()
        };
        // A method that promises not to wait and one that may: both run
        // where the server's loop read their requests, and start no
        // thread.
        for _ in 0..20 {
            assert_eq!(ran_on(1), "server-loop");
            assert_eq!(ran_on(2), "server-loop");
        }
        assert_eq!(net.counters().get("real.net.threads_spawned"), Some(&2));
        // Same checks, same answers as any request: an unknown object is
        // refused.
        let stranger = ObjRef {
            object_id: 99,
            ..obj
        };
        assert_eq!(
            ctx.call_named(&stranger, 2, Bytes::new(), "where"),
            Err(OrbError::UnknownObject)
        );
    }

    /// Answers every method, under the names `itv.test.ping` (method 1)
    /// and `itv.test.?` (any other).
    struct Named;

    impl Servant for Named {
        fn type_id(&self) -> u32 {
            3
        }
        fn dispatch(&self, _c: &Caller, _method: u32, _args: &[u8]) -> Result<Bytes, OrbError> {
            Ok(Bytes::new())
        }
        fn type_name(&self) -> &'static str {
            "itv.test"
        }
        fn method_name(&self, method: u32) -> &'static str {
            if method == 1 {
                "ping"
            } else {
                "?"
            }
        }
    }

    /// Call spans are fixed-size records named only when read: both
    /// ends of a call, and a request for no exported object, read back
    /// as the exact names the ORB has always given them.
    #[test]
    fn call_spans_read_back_under_their_names() {
        let sim = Sim::new(7);
        let server: Rt = sim.add_node("server");
        let client: Rt = sim.add_node("client");
        let orb = Orb::new(server.clone(), PortReq::Fixed(100)).unwrap();
        let obj = orb.export_root(Arc::new(Named));
        orb.start();
        let stranger = ObjRef {
            object_id: 99,
            ..obj
        };
        let ctx = ClientCtx::new(client.clone());
        client.spawn_fn("caller", move || {
            for (method, op) in [(1, "itv.test.ping"), (2, "itv.test.other")] {
                ctx.call_named(&obj, method, Bytes::new(), op).unwrap();
            }
            let refused = ctx.call_named(&stranger, 4, Bytes::new(), "itv.test.gone");
            assert_eq!(refused, Err(OrbError::UnknownObject));
        });
        sim.run_for(Duration::from_secs(1));
        let read = |rt: &Rt| -> Vec<(String, bool)> {
            NodeTelemetry::of(&**rt)
                .tracer
                .finished()
                .into_iter()
                .map(|s| (s.name, s.err))
                .collect()
        };
        let named = |names: [(&str, bool); 3]| names.map(|(n, e)| (n.to_string(), e)).to_vec();
        assert_eq!(
            read(&client),
            named([
                ("client:itv.test.ping", false),
                ("client:itv.test.other", false),
                ("client:itv.test.gone", true),
            ])
        );
        assert_eq!(
            read(&server),
            named([
                ("server:itv.test.ping", false),
                ("server:itv.test.?", false),
                ("server:obj99.m4", true),
            ])
        );
    }

    /// The simulator's twin of the test above: an inline method runs on
    /// the thread already stepping the kernel, with no process; any
    /// other is one process spawned at its delivery, with no serving
    /// process woken first.
    #[test]
    fn sim_a_method_that_runs_inline_is_dispatched_with_no_process() {
        const CALLS: u64 = 20;
        let sim = Sim::new(6);
        let server: Rt = sim.add_node("server");
        let client: Rt = sim.add_node("c");
        let orb = Orb::new(server, PortReq::Fixed(100)).unwrap();
        let obj = orb.export_root(Arc::new(WhereAmI));
        orb.start();
        sim.run_for(Duration::from_millis(1));
        let calls = |method| {
            let before = sim.kernel_stats();
            let ctx = ClientCtx::new(client.clone());
            client.spawn_fn("caller", move || {
                for _ in 0..CALLS {
                    ctx.call_named(&obj, method, Bytes::new(), "where").unwrap();
                }
            });
            sim.run_for(Duration::from_secs(1));
            let after = sim.kernel_stats();
            let switches = |s: &ocs_sim::KernelStats| s.driver_resumes + s.direct_handoffs;
            (
                after.spawns - before.spawns,
                after.inline_runs - before.inline_runs,
                switches(&after) - switches(&before),
            )
        };
        // Inline: the caller steps into the handler and on to its own
        // reply; its one switch is its exit.
        assert_eq!(calls(2), (1, CALLS, 1));
        // Spawned: caller → handler → caller, two switches a call (three
        // when a serving process woke first).
        assert_eq!(calls(1), (1 + CALLS, 0, 2 * CALLS + 1));
    }

    #[test]
    fn real_untraced_request_after_a_traced_one_stays_untraced() {
        let net = RealNet::new();
        let front: Rt = net.add_node("front").unwrap();
        let back: Rt = net.add_node("back").unwrap();
        let client: Rt = net.add_node("c").unwrap();
        let inner = start_noting(&back, None);
        let outer = start_noting(&front, Some(inner));
        exchange(&client, &outer, 77);
        exchange(&client, &outer, 0);
        assert_second_request_untraced(&front);
    }
}
