//! A `CallPort`'s calls on both runtimes. A gather: arrival-order
//! delivery, early stop, a dead target that does not abort it, one
//! deadline for the whole set, and several gathers waiting on one port
//! at once. Plain calls: replies handled where they land. (The
//! stale-reply case needs hand-built frames and lives beside the
//! implementation, in `src/port.rs`.)

use std::sync::Arc;
use std::time::{Duration, Instant};

use ocs_orb::{
    declare_interface, impl_rpc_fault, CallPort, Caller, ClientCtx, Gather, ObjRef, OpName, Orb,
    OrbError,
};
use ocs_sim::real::{eventually, RealNet};
use ocs_sim::{LinkParams, NodeRt, NodeRtExt, PortReq, Rt, Sim, SimChan, SimTime};
use ocs_wire::{impl_wire_enum, Wire};
use parking_lot::Mutex;

#[derive(Debug, PartialEq, Clone)]
pub enum TagError {
    Comm { err: OrbError },
}
impl_wire_enum!(TagError { 0 => Comm { err } });
impl_rpc_fault!(TagError);

declare_interface! {
    /// Answers with the servant's own tag, after its own delay.
    pub interface Tag [TagClient, TagServant]: "test.tag" {
        1 => fn tag(&self, salt: u64) -> Result<u64, TagError>;
    }
}

struct TagImpl {
    rt: Rt,
    tag: u64,
    hold: Duration,
}

impl Tag for TagImpl {
    fn tag(&self, _c: &Caller, salt: u64) -> Result<u64, TagError> {
        self.rt.sleep(self.hold);
        Ok(self.tag + salt)
    }
}

const PORT: u16 = 100;
const TAG_METHOD: u32 = 1;

fn start_tag(rt: Rt, tag: u64, hold: Duration) -> (Arc<Orb>, ObjRef) {
    let orb = Orb::build(
        rt.clone(),
        PortReq::Fixed(PORT),
        None,
        Arc::new(ocs_orb::NoAuth),
    )
    .unwrap();
    let obj = orb.export_root(Arc::new(TagServant(Arc::new(TagImpl { rt, tag, hold }))));
    orb.start();
    (orb, obj)
}

fn salt(v: u64) -> bytes::Bytes {
    v.to_bytes()
}

fn answer(reply: Result<bytes::Bytes, OrbError>) -> Result<u64, OrbError> {
    reply.map(|body| {
        <Result<u64, TagError>>::from_bytes(&body)
            .expect("reply decodes")
            .expect("servant answered")
    })
}

fn op() -> OpName {
    OpName::from("test.tag.tag")
}

/// A port for gathers only: its handler is never called.
fn gather_port(ctx: ClientCtx) -> Arc<CallPort<usize>> {
    CallPort::open(ctx, Box::new(|_, _| unreachable!("a gather's call"))).unwrap()
}

// ---- simulator -------------------------------------------------------------

/// A client node and three tag servers reached over links of 3, 1 and
/// 2 ms, so replies arrive in the order 1, 2, 0.
struct SimRig {
    sim: Sim,
    client: Arc<ocs_sim::SimNode>,
    servers: Vec<Arc<ocs_sim::SimNode>>,
    orbs: Vec<Arc<Orb>>,
    targets: Vec<ObjRef>,
}

fn sim_rig(seed: u64) -> SimRig {
    let sim = Sim::new(seed);
    let client = sim.add_node("client");
    let servers: Vec<_> = (0..3).map(|i| sim.add_node(&format!("s{i}"))).collect();
    let (mut orbs, mut targets) = (Vec::new(), Vec::new());
    for (i, (node, ms)) in servers.iter().zip([3u64, 1, 2]).enumerate() {
        let link = LinkParams::latency_only(Duration::from_millis(ms));
        sim.set_link(client.node(), node.node(), link);
        sim.set_link(node.node(), client.node(), link);
        let (orb, obj) = start_tag(node.clone(), 10 * i as u64, Duration::ZERO);
        orbs.push(orb);
        targets.push(obj);
    }
    SimRig {
        sim,
        client,
        servers,
        orbs,
        targets,
    }
}

#[test]
fn sim_replies_are_delivered_in_arrival_order() {
    let rig = sim_rig(1);
    let out: SimChan<(usize, Result<u64, OrbError>, u64)> = SimChan::new(&rig.sim);
    let (out2, targets, rt) = (out.clone(), rig.targets.clone(), rig.client.clone() as Rt);
    rig.client.spawn_fn("client", move || {
        let port = gather_port(ClientCtx::new(rt.clone()));
        port.gather(&targets, TAG_METHOD, salt(5), op(), |i, reply| {
            out2.send((i, answer(reply), rt.now().as_micros()));
            Gather::More
        });
    });
    rig.sim.run_until(SimTime::from_secs(1));
    let got: Vec<_> = std::iter::from_fn(|| out.try_recv()).collect();
    // One round trip each, all started at the same instant.
    assert_eq!(
        got,
        vec![(1, Ok(15), 2_000), (2, Ok(25), 4_000), (0, Ok(5), 6_000)]
    );
    assert_eq!(rig.sim.net_stats().bounces, 0);
}

#[test]
fn sim_gather_returns_at_the_first_answer_when_told_enough() {
    let rig = sim_rig(5);
    let out: SimChan<(usize, Result<u64, OrbError>, u64)> = SimChan::new(&rig.sim);
    let returned: SimChan<u64> = SimChan::new(&rig.sim);
    let (out2, returned2) = (out.clone(), returned.clone());
    let (targets, rt) = (rig.targets.clone(), rig.client.clone() as Rt);
    // The port outlives the gather, as a replica's does.
    let port = gather_port(ClientCtx::new(rt.clone()));
    let port2 = Arc::clone(&port);
    rig.client.spawn_fn("client", move || {
        port2.gather(&targets, TAG_METHOD, salt(4), op(), |i, reply| {
            out2.send((i, answer(reply), rt.now().as_micros()));
            Gather::Enough
        });
        returned2.send(rt.now().as_micros());
    });
    rig.sim.run_until(SimTime::from_secs(1));
    let got: Vec<_> = std::iter::from_fn(|| out.try_recv()).collect();
    // The stragglers' replies land at 4 and 6 ms: neither is handed
    // over, the gather does not wait for them, and the port drops them
    // rather than bouncing them back.
    assert_eq!(got, vec![(1, Ok(14), 2_000)]);
    assert_eq!(returned.try_recv(), Some(2_000));
    assert_eq!(rig.sim.net_stats().bounces, 0);
}

/// Two processes gather on one port at the same instant; each is handed
/// its own calls' outcomes and no other's.
#[test]
fn sim_gathers_on_one_port_see_only_their_own_calls() {
    let rig = sim_rig(6);
    let rt = rig.client.clone() as Rt;
    let port = gather_port(ClientCtx::new(rt.clone()));
    let out: SimChan<(u64, usize, Result<u64, OrbError>, u64)> = SimChan::new(&rig.sim);
    for s in [100, 200] {
        let (out2, targets, rt, port) = (
            out.clone(),
            rig.targets.clone(),
            rt.clone(),
            Arc::clone(&port),
        );
        rig.client.spawn_fn("client", move || {
            port.gather(&targets, TAG_METHOD, salt(s), op(), |i, reply| {
                out2.send((s, i, answer(reply), rt.now().as_micros()));
                Gather::More
            });
        });
    }
    rig.sim.run_until(SimTime::from_secs(1));
    let got: Vec<_> = std::iter::from_fn(|| out.try_recv()).collect();
    let of = |s: u64| -> Vec<_> {
        got.iter()
            .filter(|g| g.0 == s)
            .map(|g| (g.1, g.2.clone(), g.3))
            .collect()
    };
    for s in [100, 200] {
        assert_eq!(
            of(s),
            vec![
                (1, Ok(10 + s), 2_000),
                (2, Ok(20 + s), 4_000),
                (0, Ok(s), 6_000)
            ]
        );
    }
    assert_eq!(got.len(), 6);
}

/// What a test port's handler saw: each call's token, its answer, and
/// when (virtual µs, or the thread it ran on over TCP).
type Landed<W> = Arc<Mutex<Vec<(usize, Result<u64, OrbError>, W)>>>;

/// A `CallPort` on `rt` whose handler records what lands, stamped by
/// `when`.
fn port_on<W: Send + 'static>(
    ctx: ClientCtx,
    when: impl Fn() -> W + Send + Sync + 'static,
) -> (Arc<CallPort<usize>>, Landed<W>) {
    let landed: Landed<W> = Arc::default();
    let log = Arc::clone(&landed);
    let on_reply = move |i, reply| log.lock().push((i, answer(reply), when()));
    (CallPort::open(ctx, Box::new(on_reply)).unwrap(), landed)
}

/// The same three calls from a `CallPort`: each reply is handed over at
/// its arrival with no process waiting for it, a dead target's bounce
/// settles that call alone, and a silent one times out when its owner
/// expires it.
#[test]
fn sim_call_port_hands_each_reply_over_where_it_lands() {
    let rig = sim_rig(2);
    rig.orbs[1].shutdown();
    rig.sim.crash_node(rig.servers[2].node());
    let rt = rig.client.clone() as Rt;
    let ctx = ClientCtx::new(rt.clone()).with_timeout(Duration::from_millis(200));
    let (port, landed) = port_on(ctx, move || rt.now().as_micros());
    for (i, target) in rig.targets.iter().enumerate() {
        port.call(target, TAG_METHOD, salt(3), op(), i);
    }
    let spawns = rig.sim.kernel_stats().spawns;
    rig.sim.run_until(SimTime::from_millis(199));
    port.expire(SimTime::from_millis(199));
    assert_eq!(
        *landed.lock(),
        vec![(1, Err(OrbError::ObjectDead), 2_000), (0, Ok(3), 6_000)]
    );
    assert_eq!(
        rig.sim.kernel_stats().spawns - spawns,
        1,
        "only server 0's handler"
    );
    rig.sim.run_until(SimTime::from_millis(200));
    port.expire(rig.sim.now());
    assert_eq!(
        landed.lock().last(),
        Some(&(2, Err(OrbError::Timeout), 200_000))
    );
}

#[test]
fn sim_dead_target_is_object_dead_and_the_gather_goes_on() {
    let rig = sim_rig(3);
    // Server 1's process is gone, its host is up: requests bounce.
    rig.orbs[1].shutdown();
    let out: SimChan<(usize, Result<u64, OrbError>)> = SimChan::new(&rig.sim);
    let (out2, targets, rt) = (out.clone(), rig.targets.clone(), rig.client.clone() as Rt);
    rig.client.spawn_fn("client", move || {
        let port = gather_port(ClientCtx::new(rt));
        port.gather(&targets, TAG_METHOD, salt(1), op(), |i, reply| {
            out2.send((i, answer(reply)));
            Gather::More
        });
    });
    rig.sim.run_until(SimTime::from_secs(1));
    let got: Vec<_> = std::iter::from_fn(|| out.try_recv()).collect();
    assert_eq!(
        got,
        vec![(1, Err(OrbError::ObjectDead)), (2, Ok(21)), (0, Ok(1))]
    );
}

#[test]
fn sim_one_deadline_bounds_the_whole_call() {
    let rig = sim_rig(4);
    // Two silent hosts: a sequential caller would wait two timeouts.
    rig.sim.crash_node(rig.servers[0].node());
    rig.sim.crash_node(rig.servers[2].node());
    let out: SimChan<(usize, Result<u64, OrbError>, u64)> = SimChan::new(&rig.sim);
    let (out2, targets, rt) = (out.clone(), rig.targets.clone(), rig.client.clone() as Rt);
    rig.client.spawn_fn("client", move || {
        let ctx = ClientCtx::new(rt.clone()).with_timeout(Duration::from_millis(200));
        let port = gather_port(ctx);
        port.gather(&targets, TAG_METHOD, salt(2), op(), |i, reply| {
            out2.send((i, answer(reply), rt.now().as_micros()));
            Gather::More
        });
    });
    rig.sim.run_until(SimTime::from_secs(1));
    let got: Vec<_> = std::iter::from_fn(|| out.try_recv()).collect();
    assert_eq!(
        got,
        vec![
            (1, Ok(12), 2_000),
            (0, Err(OrbError::Timeout), 200_000),
            (2, Err(OrbError::Timeout), 200_000)
        ]
    );
}

// ---- TCP loopback ----------------------------------------------------------

fn counter(net: &Arc<RealNet>, name: &str) -> u64 {
    net.counters().get(name).copied().unwrap_or(0)
}

fn conn_opens(net: &Arc<RealNet>) -> u64 {
    counter(net, "real.net.conn_open")
}

/// A client node and three tag servers that hold a request `holds_ms`
/// long each, which sets the order their replies arrive in.
fn real_rig(holds_ms: [u64; 3]) -> (Arc<RealNet>, Rt, Vec<Arc<Orb>>, Vec<ObjRef>) {
    let net = RealNet::new();
    let client: Rt = net.add_node("client").unwrap();
    let (mut orbs, mut targets) = (Vec::new(), Vec::new());
    for (i, ms) in holds_ms.into_iter().enumerate() {
        let node: Rt = net.add_node(&format!("s{i}")).unwrap();
        let (orb, obj) = start_tag(node, 10 * i as u64, Duration::from_millis(ms));
        orbs.push(orb);
        targets.push(obj);
    }
    (net, client, orbs, targets)
}

#[test]
fn real_arrival_order_and_replies_that_land_on_the_client_loop() {
    let (net, client, _orbs, targets) = real_rig([60, 0, 30]);
    let thread = || std::thread::current().name().unwrap_or("?").to_string();
    let (port, landed) = port_on(ClientCtx::new(client), thread);
    // A full round first, so the client holds its stream with every
    // server and the counts below see only the calls' own.
    let mut order = Vec::new();
    port.gather(&targets, TAG_METHOD, salt(5), op(), |i, reply| {
        order.push((i, answer(reply)));
        Gather::More
    });
    assert_eq!(order, vec![(1, Ok(15)), (2, Ok(25)), (0, Ok(5))]);
    assert!(
        landed.lock().is_empty(),
        "a gather's outcomes skip the handler"
    );

    let before = conn_opens(&net);
    assert_eq!(before, 3, "one stream per target, replies on it too");
    for (i, target) in targets.iter().enumerate() {
        port.call(target, TAG_METHOD, salt(0), op(), i);
    }
    assert!(eventually(Duration::from_secs(5), || landed.lock().len() == 3));
    // Each reply is handed over by the client node's loop, which read it.
    let client_loop = || "client-loop".to_string();
    assert_eq!(
        *landed.lock(),
        vec![
            (1, Ok(10), client_loop()),
            (2, Ok(20), client_loop()),
            (0, Ok(0), client_loop())
        ]
    );
    assert_eq!(
        conn_opens(&net),
        before,
        "the port's calls ride the node's streams"
    );
}

#[test]
fn real_gather_returns_at_the_first_answer_when_told_enough() {
    // Servers 0 and 2 answer 300 and 200 ms after server 1.
    let (_net, client, _orbs, targets) = real_rig([300, 0, 200]);
    let port = gather_port(ClientCtx::new(client));
    let started = Instant::now();
    let mut got = Vec::new();
    port.gather(&targets, TAG_METHOD, salt(4), op(), |i, reply| {
        got.push((i, answer(reply)));
        Gather::Enough
    });
    let took = started.elapsed();
    assert_eq!(got, vec![(1, Ok(14))]);
    assert!(
        took < Duration::from_millis(150),
        "gather waited for the stragglers: took {took:?}"
    );
}

#[test]
fn real_thousand_calls_share_one_stream() {
    let (net, client, _orbs, targets) = real_rig([0, 0, 0]);
    let ctx = ClientCtx::new(client);
    for i in 0..1_000 {
        let reply = ctx.call_named(&targets[0], TAG_METHOD, salt(i), "test.tag.tag");
        assert_eq!(answer(reply), Ok(i));
    }
    assert_eq!(conn_opens(&net), 1, "the replies ride the requests' stream");
}

#[test]
fn real_thousand_calls_queue_only_their_replies() {
    let (net, client, _orbs, targets) = real_rig([0, 0, 0]);
    let ctx = ClientCtx::new(client);
    let call = |i| answer(ctx.call_named(&targets[0], TAG_METHOD, salt(i), "test.tag.tag"));
    let queued = || counter(&net, "real.net.frames_queued");
    // Warm-up: the first call dials the server.
    assert_eq!(call(0), Ok(0));
    let before = queued();
    for i in 1..=1_000 {
        assert_eq!(call(i), Ok(i));
    }
    // A request goes from the server's loop to its `orb-worker` task
    // with no queue in between.
    assert_eq!(queued() - before, 1_000);
}

#[test]
fn real_shutdown_unregisters_the_handler_and_frees_the_orb() {
    let (_net, client, mut orbs, targets) = real_rig([0, 0, 0]);
    let ctx = ClientCtx::new(client);
    let call = |i| answer(ctx.call_named(&targets[0], TAG_METHOD, salt(i), "test.tag.tag"));
    assert_eq!(call(1), Ok(1));
    let orb = orbs.remove(0);
    orb.shutdown();
    assert_eq!(call(2), Err(OrbError::ObjectDead), "the port still answers");
    // The closed port's handler, which held the ORB, is gone, and
    // nothing else holds it.
    let gone = Arc::downgrade(&orb);
    drop(orb);
    assert!(
        eventually(Duration::from_secs(5), || gone.upgrade().is_none()),
        "something keeps the ORB alive"
    );
}

#[test]
fn real_call_to_a_stopped_node_fails_well_inside_its_timeout() {
    let net = RealNet::new();
    let client: Rt = net.add_node("client").unwrap();
    let server = net.add_node("server").unwrap();
    let (_orb, target) = start_tag(server.clone(), 0, Duration::ZERO);
    let ctx = ClientCtx::new(client).with_timeout(Duration::from_secs(10));
    let call = |i| answer(ctx.call_named(&target, TAG_METHOD, salt(i), "test.tag.tag"));
    assert_eq!(call(1), Ok(1));
    server.stop();
    // The client's loop sees the stream end.
    let reset = || counter(&net, "real.net.resets") >= 1;
    assert!(eventually(Duration::from_secs(5), reset));
    let started = Instant::now();
    let refused = call(2);
    assert!(
        matches!(
            refused,
            Err(OrbError::ObjectDead | OrbError::Transport { .. })
        ),
        "a call to a stopped node: {refused:?}"
    );
    let took = started.elapsed();
    assert!(
        took < Duration::from_secs(2),
        "took {took:?} of a 10 s timeout"
    );
}

#[test]
fn real_thousand_calls_start_no_threads() {
    let (net, client, _orbs, targets) = real_rig([0, 0, 0]);
    let ctx = ClientCtx::new(client);
    let call = |i| answer(ctx.call_named(&targets[0], TAG_METHOD, salt(i), "test.tag.tag"));
    let threads = || counter(&net, "real.net.threads_spawned");
    assert_eq!(call(0), Ok(0)); // warm-up: the server's first worker
    let before = threads();
    assert_eq!(before, 4, "one loop per node");
    for i in 1..=1_000 {
        assert_eq!(call(i), Ok(i));
    }
    // A thousand `orb-worker` tasks, all on the server's loop.
    let started = threads() - before;
    assert_eq!(started, 0, "{started} threads started for 1,000 calls");
}

#[test]
fn real_reset_storm_reaches_client_calls() {
    let (net, client, _orbs, targets) = real_rig([0, 0, 0]);
    let ctx = ClientCtx::new(client.clone());
    let call = |i| answer(ctx.call_named(&targets[0], TAG_METHOD, salt(i), "test.tag.tag"));
    assert_eq!(call(0), Ok(0));
    net.set_reset_storm(client.node(), targets[0].addr.node, true);
    for i in 1..=50 {
        assert_eq!(call(i), Ok(i), "call {i} under the storm");
    }
    net.set_reset_storm(client.node(), targets[0].addr.node, false);
    assert!(net.counters().get("real.net.resets").copied().unwrap_or(0) >= 1);
    // The client's own journal shows the storm taking the stream its
    // requests use, and the reconnect that carried the request after.
    let lines: Vec<String> = ocs_sim::Journal::of(&*client)
        .events()
        .iter()
        .map(|e| e.detail.to_string())
        .collect();
    let server = targets[0].addr.node;
    let reset = lines
        .iter()
        .position(|l| *l == format!("reset storm: tore down conn to {server}"))
        .unwrap_or_else(|| panic!("no reset in the client's journal: {lines:?}"));
    assert!(
        lines[reset..].contains(&format!("connected to {server} on attempt 0")),
        "no reconnect after the reset: {lines:?}"
    );
}

#[test]
fn real_dead_target_and_one_deadline() {
    let (_net, client, orbs, targets) = real_rig([400, 0, 30]);
    // Server 1's process is gone, its host is up: the request bounces.
    // Server 0 answers after 400 ms — past the 100 ms budget.
    orbs[1].shutdown();
    let port = gather_port(ClientCtx::new(client).with_timeout(Duration::from_millis(100)));
    let started = Instant::now();
    let mut got = Vec::new();
    port.gather(&targets, TAG_METHOD, salt(1), op(), |i, reply| {
        got.push((i, answer(reply)));
        Gather::More
    });
    let took = started.elapsed();
    assert_eq!(
        got,
        vec![
            (1, Err(OrbError::ObjectDead)),
            (2, Ok(21)),
            (0, Err(OrbError::Timeout))
        ]
    );
    assert!(
        took >= Duration::from_millis(100) && took < Duration::from_millis(300),
        "the deadline bounds the call: took {took:?}"
    );
}
