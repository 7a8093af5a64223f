//! End-to-end tests of the object exchange layer over the simulated
//! runtime: calls, errors, dead references, incarnation invalidation,
//! overlapping requests and dynamic objects.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ocs_orb::{
    declare_interface, impl_rpc_fault, Caller, ClientCtx, ObjRef, Orb, OrbError, Servant,
};
use ocs_sim::{Addr, LinkParams, NodeRt, NodeRtExt, PortReq, Sim, SimChan, SimTime};
use ocs_wire::{impl_wire_enum, Encoder, Wire};

#[derive(Debug, PartialEq, Clone)]
pub enum EchoError {
    Rejected,
    Comm { err: OrbError },
}
impl_wire_enum!(EchoError {
    0 => Rejected,
    1 => Comm { err },
});
impl_rpc_fault!(EchoError);

declare_interface! {
    /// Test interface.
    pub interface Echo [EchoClient, EchoServant]: "test.echo" {
        1 => fn echo(&self, msg: String) -> Result<String, EchoError>;
        2 => fn add(&self, a: u64, b: u64) -> Result<u64, EchoError>;
        3 => fn whoami(&self) -> Result<String, EchoError>;
        4 => fn slow(&self, hold_ms: u64) -> Result<u64, EchoError>;
        5 => fn reject(&self) -> Result<(), EchoError>;
    }
}

struct EchoImpl {
    rt: ocs_sim::Rt,
    calls: AtomicU64,
}

impl Echo for EchoImpl {
    fn echo(&self, _c: &Caller, msg: String) -> Result<String, EchoError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        Ok(msg)
    }
    fn add(&self, _c: &Caller, a: u64, b: u64) -> Result<u64, EchoError> {
        Ok(a + b)
    }
    fn whoami(&self, c: &Caller) -> Result<String, EchoError> {
        Ok(format!("{}@{}", c.principal, c.node))
    }
    fn slow(&self, _c: &Caller, hold_ms: u64) -> Result<u64, EchoError> {
        self.rt.busy(Duration::from_millis(hold_ms));
        Ok(self.rt.now().as_micros())
    }
    fn reject(&self, _c: &Caller) -> Result<(), EchoError> {
        Err(EchoError::Rejected)
    }
}

/// Starts an echo service on `node`, returning its reference.
fn start_echo(node: &Arc<ocs_sim::SimNode>, port: u16) -> ObjRef {
    let rt: ocs_sim::Rt = node.clone();
    let orb = Orb::new(rt.clone(), PortReq::Fixed(port)).unwrap();
    let obj = orb.export_root(Arc::new(EchoServant(Arc::new(EchoImpl {
        rt,
        calls: AtomicU64::new(0),
    }))));
    orb.start();
    obj
}

#[test]
fn basic_call_round_trips() {
    let sim = Sim::new(1);
    let server = sim.add_node("server");
    let settop = sim.add_node("settop");
    let results: SimChan<String> = SimChan::new(&sim);

    let server2 = server.clone();
    let results2 = results.clone();
    let settop_rt: ocs_sim::Rt = settop.clone();
    server.spawn_fn("boot", move || {
        let obj = start_echo(&server2, 100);
        // Client on the settop.
        let ctx = ClientCtx::new(settop_rt.clone());
        let settop_rt2 = settop_rt.clone();
        settop_rt.spawn(
            "client",
            Box::new(move || {
                let _ = settop_rt2;
                let client = EchoClient::attach(ctx, obj).unwrap();
                results2.send(client.echo("hello orlando".into()).unwrap());
                results2.send(format!("{}", client.add(20, 22).unwrap()));
                results2.send(client.whoami().unwrap());
            }),
        );
    });
    sim.run_until(SimTime::from_secs(5));
    assert_eq!(results.try_recv().unwrap(), "hello orlando");
    assert_eq!(results.try_recv().unwrap(), "42");
    let who = results.try_recv().unwrap();
    assert!(who.starts_with("anonymous@n2"), "unexpected caller: {who}");
}

#[test]
fn thousand_calls_start_a_handful_of_threads() {
    let sim = Sim::new(11);
    let server = sim.add_node("server");
    let settop = sim.add_node("settop");
    let _bystander = sim.add_node("bystander");
    let answered: SimChan<u64> = SimChan::new(&sim);
    let before = sim.kernel_stats();

    let server2 = server.clone();
    let answered2 = answered.clone();
    let settop_rt: ocs_sim::Rt = settop.clone();
    server.spawn_fn("boot", move || {
        let obj = start_echo(&server2, 100);
        let ctx = ClientCtx::new(settop_rt.clone());
        settop_rt.spawn(
            "client",
            Box::new(move || {
                let client = EchoClient::attach(ctx, obj).unwrap();
                for i in 0..1_000 {
                    assert_eq!(client.add(i, 1).unwrap(), i + 1);
                }
                answered2.send(1_000);
            }),
        );
    });
    sim.run_until(SimTime::from_secs(60));
    let after = sim.kernel_stats();
    assert_eq!(answered.try_recv(), Some(1_000));
    // Boot, the client and a handler per request — no process serves
    // the port; each call is two switches, caller → handler → caller.
    let switches = |s: &ocs_sim::KernelStats| s.driver_resumes + s.direct_handoffs;
    assert_eq!(after.spawns - before.spawns, 2 + 1_000);
    assert_eq!(switches(&after) - switches(&before), 2 + 2 * 1_000);
    // Every request ran as a process of its own...
    let served = ocs_telemetry::NodeTelemetry::of(&*server)
        .registry
        .counter("orb.server.requests")
        .get();
    assert!(served >= 1_000, "{served} requests served");
    // ...on the stack the previous one left: boot, the client and one
    // worker at a time, not a stack per request.
    let stacks = sim.kernel_stats().stacks_mapped;
    assert!(stacks < 10, "{stacks} stacks for {served} request processes");
}

/// An in-process dispatch has no reply to take: the generated servant
/// returns the method's encoded result, as it does over the ORB.
#[test]
fn an_in_process_dispatch_answers_by_returning() {
    let sim = Sim::new(12);
    let node = sim.add_node("server");
    let servant = EchoServant(Arc::new(EchoImpl {
        rt: node.clone(),
        calls: AtomicU64::new(0),
    }));
    let mut args = Encoder::new();
    20u64.encode_into(&mut args);
    22u64.encode_into(&mut args);
    let caller = Caller::local(node.node());
    let body = servant.dispatch(&caller, 2, &args.finish()).unwrap();
    assert!(!caller.replies_later());
    assert_eq!(<Result<u64, EchoError>>::from_bytes(&body), Ok(Ok(42)));
}

#[test]
fn app_errors_travel() {
    let sim = Sim::new(2);
    let server = sim.add_node("server");
    let results: SimChan<EchoError> = SimChan::new(&sim);
    let server2 = server.clone();
    let results2 = results.clone();
    server.spawn_fn("boot", move || {
        let obj = start_echo(&server2, 100);
        let ctx = ClientCtx::new(server2.clone());
        let client = EchoClient::attach(ctx, obj).unwrap();
        results2.send(client.reject().unwrap_err());
    });
    sim.run_until(SimTime::from_secs(2));
    assert_eq!(results.try_recv().unwrap(), EchoError::Rejected);
}

#[test]
fn wrong_type_rejected_at_bind() {
    let sim = Sim::new(3);
    let server = sim.add_node("server");
    let results: SimChan<bool> = SimChan::new(&sim);
    let server2 = server.clone();
    let results2 = results.clone();
    server.spawn_fn("boot", move || {
        let mut obj = start_echo(&server2, 100);
        obj.type_id ^= 0xffff; // Corrupt the type id.
        let ctx = ClientCtx::new(server2.clone());
        results2.send(matches!(
            EchoClient::attach(ctx, obj),
            Err(OrbError::WrongType)
        ));
    });
    sim.run_until(SimTime::from_secs(2));
    assert!(results.try_recv().unwrap());
}

#[test]
fn unknown_method_and_object() {
    let sim = Sim::new(4);
    let server = sim.add_node("server");
    let results: SimChan<OrbError> = SimChan::new(&sim);
    let server2 = server.clone();
    let results2 = results.clone();
    server.spawn_fn("boot", move || {
        let obj = start_echo(&server2, 100);
        let ctx = ClientCtx::new(server2.clone());
        // Raw call with a bogus method id.
        let r = ctx.call_named(&obj, 999, bytes::Bytes::new(), "call");
        results2.send(r.unwrap_err());
        // Raw call with a bogus object id.
        let mut obj2 = obj;
        obj2.object_id = 77;
        let r = ctx.call_named(&obj2, 1, bytes::Bytes::new(), "call");
        results2.send(r.unwrap_err());
    });
    sim.run_until(SimTime::from_secs(2));
    assert_eq!(results.try_recv().unwrap(), OrbError::UnknownMethod);
    assert_eq!(results.try_recv().unwrap(), OrbError::UnknownObject);
}

#[test]
fn dead_service_gives_object_dead_quickly() {
    // Process crash with the node still up: the transport bounces and
    // the client learns of the death without waiting for a timeout.
    let sim = Sim::new(5);
    let server = sim.add_node("server");
    let client_node = sim.add_node("client");
    let obj_slot: Arc<parking_lot::Mutex<Option<ObjRef>>> = Default::default();
    let results: SimChan<(OrbError, u64)> = SimChan::new(&sim);

    let server2 = server.clone();
    let slot2 = Arc::clone(&obj_slot);
    server.spawn_fn("service", move || {
        let rt: ocs_sim::Rt = server2.clone();
        let orb = Orb::new(rt.clone(), PortReq::Fixed(100)).unwrap();
        let obj = orb.export_root(Arc::new(EchoServant(Arc::new(EchoImpl {
            rt: rt.clone(),
            calls: AtomicU64::new(0),
        }))));
        *slot2.lock() = Some(obj);
        // The served port keeps the ORB, past this process's exit.
        orb.start();
        rt.sleep(Duration::from_secs(5));
    });
    // The port outlives its opener; the node's crash closes it later.
    let results2 = results.clone();
    let slot3 = Arc::clone(&obj_slot);
    let cl = client_node.clone();
    let sim2 = sim.clone();
    let server_id = server.node();
    client_node.spawn_fn("client", move || {
        cl.sleep(Duration::from_secs(1));
        let obj = slot3.lock().unwrap();
        let ctx = ClientCtx::new(cl.clone());
        let client = EchoClient::attach(ctx, obj).unwrap();
        assert!(client.echo("warm".into()).is_ok());
        // Crash the service process (whole node down, then up: silence
        // would be a timeout; instead kill just the process by crashing
        // and restarting the node quickly, then re-opening nothing).
        sim2.crash_node(server_id);
        sim2.restart_node(server_id);
        let t0 = cl.now();
        let err = client.echo("are you there".into()).unwrap_err();
        let waited_ms = (cl.now() - t0).as_millis() as u64;
        match err {
            EchoError::Comm { err } => results2.send((err, waited_ms)),
            other => panic!("unexpected {other:?}"),
        }
    });
    sim.run_until(SimTime::from_secs(20));
    let (err, waited_ms) = results.try_recv().unwrap();
    assert_eq!(err, OrbError::ObjectDead);
    assert!(waited_ms < 100, "bounce should be fast, took {waited_ms}ms");
}

#[test]
fn dead_node_gives_timeout() {
    let sim = Sim::new(6);
    let server = sim.add_node("server");
    let client_node = sim.add_node("client");
    let results: SimChan<(OrbError, u64)> = SimChan::new(&sim);
    let server2 = server.clone();
    let obj_slot: Arc<parking_lot::Mutex<Option<ObjRef>>> = Default::default();
    let slot2 = Arc::clone(&obj_slot);
    server.spawn_fn("boot", move || {
        *slot2.lock() = Some(start_echo(&server2, 100));
    });
    let results2 = results.clone();
    let cl = client_node.clone();
    let sim2 = sim.clone();
    let server_id = server.node();
    client_node.spawn_fn("client", move || {
        cl.sleep(Duration::from_secs(1));
        let obj = obj_slot.lock().unwrap();
        let ctx = ClientCtx::new(cl.clone()).with_timeout(Duration::from_secs(3));
        let client = EchoClient::attach(ctx, obj).unwrap();
        assert!(client.echo("warm".into()).is_ok());
        sim2.crash_node(server_id); // Node stays down: silence.
        let t0 = cl.now();
        let err = client.echo("hello?".into()).unwrap_err();
        let waited_ms = (cl.now() - t0).as_millis() as u64;
        match err {
            EchoError::Comm { err } => results2.send((err, waited_ms)),
            other => panic!("unexpected {other:?}"),
        }
    });
    sim.run_until(SimTime::from_secs(20));
    let (err, waited) = results.try_recv().unwrap();
    assert_eq!(err, OrbError::Timeout);
    assert_eq!(waited, 3000);
}

#[test]
fn restarted_service_rejects_stale_incarnation() {
    let sim = Sim::new(7);
    let server = sim.add_node("server");
    let results: SimChan<OrbError> = SimChan::new(&sim);
    let sim2 = sim.clone();
    let server2 = server.clone();
    let results2 = results.clone();
    sim.spawn_root("driver", move || {
        let server_id = server2.node();
        let old_obj = {
            let slot: Arc<parking_lot::Mutex<Option<ObjRef>>> = Default::default();
            let s2 = Arc::clone(&slot);
            let srv = server2.clone();
            server2.spawn_fn("boot1", move || {
                *s2.lock() = Some(start_echo(&srv, 100));
            });
            // Let it start.
            let rt = sim2.clone();
            let _ = rt;
            // Root process can sleep via any node handle trick: spawn a
            // waiter... simplest: busy-wait via sim channel is overkill;
            // sleep on the server's runtime is fine for a root proc? No:
            // root processes may call sleep through any NodeRt — the
            // kernel keys on the *current pid*, not the node.
            server2.sleep(Duration::from_secs(1));
            let obj = slot.lock().take().unwrap();
            obj
        };
        // Crash and restart the node, then start a fresh instance on the
        // same port.
        sim2.crash_node(server_id);
        sim2.restart_node(server_id);
        let srv = server2.clone();
        server2.spawn_fn("boot2", move || {
            let _ = start_echo(&srv, 100);
        });
        server2.sleep(Duration::from_secs(1));
        // A call on the OLD reference reaches the NEW process (same
        // node/port) but must be rejected for stale incarnation.
        let ctx = ClientCtx::new(server2.clone());
        let client = EchoClient::attach(ctx, old_obj).unwrap();
        match client.echo("stale".into()).unwrap_err() {
            EchoError::Comm { err } => results2.send(err),
            other => panic!("unexpected {other:?}"),
        }
    });
    sim.run_until(SimTime::from_secs(20));
    assert_eq!(results.try_recv().unwrap(), OrbError::ObjectDead);
}

#[test]
fn per_request_server_overlaps_requests() {
    let sim = Sim::new(9);
    let server = sim.add_node("server");
    let results: SimChan<u64> = SimChan::new(&sim);
    let server2 = server.clone();
    let results2 = results.clone();
    server.spawn_fn("boot", move || {
        let obj = start_echo(&server2, 100);
        for i in 0..2 {
            let ctx = ClientCtx::new(server2.clone()).with_timeout(Duration::from_secs(30));
            let results3 = results2.clone();
            server2.spawn_fn(&format!("c{i}"), move || {
                let client = EchoClient::attach(ctx, obj).unwrap();
                results3.send(client.slow(1000).unwrap());
            });
        }
    });
    sim.run_until(SimTime::from_secs(30));
    let done = [
        results.try_recv().unwrap() / 1000,
        results.try_recv().unwrap() / 1000,
    ];
    // Both complete at ~1s.
    assert_eq!(done[0], 1000);
    assert_eq!(done[1], 1000);
}

#[test]
fn dynamic_objects_export_and_unexport() {
    let sim = Sim::new(10);
    let server = sim.add_node("server");
    let results: SimChan<(String, OrbError)> = SimChan::new(&sim);
    let server2 = server.clone();
    let results2 = results.clone();
    server.spawn_fn("boot", move || {
        let rt: ocs_sim::Rt = server2.clone();
        let orb = Orb::new(rt.clone(), PortReq::Fixed(100)).unwrap();
        let movie_obj = orb.export(Arc::new(EchoServant(Arc::new(EchoImpl {
            rt: rt.clone(),
            calls: AtomicU64::new(0),
        }))));
        assert_ne!(movie_obj.object_id, 0);
        orb.start();
        let ctx = ClientCtx::new(rt.clone());
        let client = EchoClient::attach(ctx, movie_obj).unwrap();
        let ok = client.echo("dynamic".into()).unwrap();
        // Unexport (movie closed); further calls fail.
        orb.unexport(movie_obj.object_id);
        let err = match client.echo("gone".into()).unwrap_err() {
            EchoError::Comm { err } => err,
            other => panic!("unexpected {other:?}"),
        };
        results2.send((ok, err));
    });
    sim.run_until(SimTime::from_secs(5));
    let (ok, err) = results.try_recv().unwrap();
    assert_eq!(ok, "dynamic");
    assert_eq!(err, OrbError::UnknownObject);
}

#[test]
fn rpc_spans_link_client_and_server() {
    let sim = Sim::new(77);
    let server = sim.add_node("server");
    let settop = sim.add_node("settop");
    let server2 = server.clone();
    let settop_rt: ocs_sim::Rt = settop.clone();
    server.spawn_fn("boot", move || {
        let obj = start_echo(&server2, 100);
        let ctx = ClientCtx::new(settop_rt.clone());
        settop_rt.spawn(
            "client",
            Box::new(move || {
                let client = EchoClient::attach(ctx, obj).unwrap();
                client.echo("traced".into()).unwrap();
            }),
        );
    });
    sim.run_until(SimTime::from_secs(5));

    let client_spans = ocs_telemetry::NodeTelemetry::of(&*settop).tracer.finished();
    let server_spans = ocs_telemetry::NodeTelemetry::of(&*server).tracer.finished();
    let c = client_spans
        .iter()
        .find(|s| s.name == "client:test.echo.echo")
        .expect("client span recorded");
    assert_eq!(c.parent.0, 0, "no enclosing context → root span");
    let s = server_spans
        .iter()
        .find(|s| s.name == "server:test.echo.echo")
        .expect("server span recorded");
    assert_eq!(s.trace, c.trace, "one causal trace across both nodes");
    assert_eq!(s.parent, c.span, "server span is the client span's child");
    assert!(s.start >= c.start && s.end <= c.end, "causal nesting in time");
}

/// A reply and a bounce owed to a call that timed out arrive while the
/// same process's next call waits, and answer nothing: each call gets
/// its own outcome, and the leftovers are turned away at a closed port.
#[test]
fn leftovers_of_a_timed_out_call_answer_no_later_call() {
    let sim = Sim::new(13);
    let server = sim.add_node("server");
    let client_node = sim.add_node("client");
    let half_second = LinkParams::latency_only(Duration::from_millis(500));
    sim.set_link(client_node.node(), server.node(), half_second);
    sim.set_link(server.node(), client_node.node(), half_second);
    let echo = start_echo(&server, 100);
    // Closed until 0.6 s, then the same interface.
    let late = ObjRef {
        addr: Addr::new(server.node(), 200),
        incarnation: ObjRef::STABLE,
        ..echo
    };
    let rt: ocs_sim::Rt = server.clone();
    server.spawn_fn("late-start", move || {
        rt.sleep(Duration::from_millis(600));
        let auth = Arc::new(ocs_orb::NoAuth);
        let orb = Orb::build(rt.clone(), PortReq::Fixed(200), Some(ObjRef::STABLE), auth).unwrap();
        orb.export_root(Arc::new(EchoServant(Arc::new(EchoImpl {
            rt,
            calls: AtomicU64::new(0),
        }))));
        orb.start();
    });
    let results: SimChan<Vec<Result<String, EchoError>>> = SimChan::new(&sim);
    let (results2, cl) = (results.clone(), client_node.clone());
    client_node.spawn_fn("client", move || {
        // A round trip is 1 s: a short call times out before its reply
        // or bounce is back, a long one does not.
        let ctx = ClientCtx::new(cl.clone());
        let short = ctx.clone().with_timeout(Duration::from_millis(800));
        let attach = |ctx: &ClientCtx, to| EchoClient::attach(ctx.clone(), to).unwrap();
        results2.send(vec![
            // Reaches the closed port at 0.5 s; its bounce lands at 1.0 s,
            // while the next call waits.
            attach(&short, late).echo("first".into()),
            attach(&ctx, late).echo("second".into()),
            // Answered at 3.5 s, while the next call waits.
            attach(&short, echo).slow(700).map(|_| String::new()),
            attach(&ctx, echo).echo("fourth".into()),
        ]);
    });
    sim.run_until(SimTime::from_secs(10));
    let timeout = Err(EchoError::Comm {
        err: OrbError::Timeout,
    });
    assert_eq!(
        results.try_recv().unwrap(),
        vec![timeout.clone(), Ok("second".into()), timeout, Ok("fourth".into())]
    );
    // The request to the closed port, and the late reply at the port its
    // call waited on.
    assert_eq!(sim.net_stats().bounces, 2);
}

#[derive(Debug, PartialEq, Clone)]
pub enum RelayError {
    Comm { err: OrbError },
}
impl_wire_enum!(RelayError { 0 => Comm { err } });
impl_rpc_fault!(RelayError);

declare_interface! {
    /// Passes a message on to an echo service.
    pub interface Relay [RelayClient, RelayServant]: "test.relay" {
        1 => fn relay(&self, msg: String) -> Result<String, RelayError>;
    }
}

struct RelayImpl {
    to: EchoClient,
}

impl Relay for RelayImpl {
    fn relay(&self, _c: &Caller, msg: String) -> Result<String, RelayError> {
        self.to.echo(msg).map_err(|e| match e {
            EchoError::Comm { err } => RelayError::Comm { err },
            EchoError::Rejected => RelayError::Comm {
                err: OrbError::Internal {
                    what: "rejected".into(),
                },
            },
        })
    }
}

/// A nested call through a generated stub records exactly one span a
/// side per call, named `<side>:<interface>.<method>`, linked into one
/// trace.
#[test]
fn a_nested_stub_call_records_one_named_span_a_side() {
    let sim = Sim::new(14);
    let (front, back) = (sim.add_node("front"), sim.add_node("back"));
    let settop = sim.add_node("settop");
    let echo = start_echo(&back, 100);
    let rt: ocs_sim::Rt = front.clone();
    let orb = Orb::new(rt.clone(), PortReq::Fixed(100)).unwrap();
    let to = EchoClient::attach(ClientCtx::new(rt), echo).unwrap();
    let relay = orb.export_root(Arc::new(RelayServant(Arc::new(RelayImpl { to }))));
    orb.start();
    let ctx = ClientCtx::new(settop.clone());
    settop.spawn_fn("settop", move || {
        let relay = RelayClient::attach(ctx, relay).unwrap();
        assert_eq!(relay.relay("nested".into()).unwrap(), "nested");
    });
    sim.run_until(SimTime::from_secs(1));
    let spans = |node: &Arc<ocs_sim::SimNode>| {
        ocs_telemetry::NodeTelemetry::of(&**node).tracer.finished()
    };
    let names = |node| spans(node).into_iter().map(|s| s.name).collect::<Vec<_>>();
    assert_eq!(names(&settop), ["client:test.relay.relay"]);
    // The nested call ends first.
    assert_eq!(names(&front), ["client:test.echo.echo", "server:test.relay.relay"]);
    assert_eq!(names(&back), ["server:test.echo.echo"]);
    let (root, front, back) = (&spans(&settop)[0], spans(&front), &spans(&back)[0]);
    let (nested, served) = (&front[0], &front[1]);
    assert_eq!(served.parent, root.span);
    assert_eq!(nested.parent, served.span);
    assert_eq!(back.parent, nested.span);
    for s in [served, nested, back] {
        assert_eq!(s.trace, root.trace);
    }
}
