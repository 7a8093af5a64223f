//! Layer probes: each drives one layer's public functions in isolation,
//! on the inputs the workloads actually send and — for the ORB and the
//! name service — on the runtime and link of the workload it explains.
//! CPU probes time batches of `BATCH` iterations and report the median
//! of `BATCHES` batch means; RPC probes report the median call.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use itv_media::{CmApi, CmTable, CmUpdate, ConnectionManager, MediaError, MovieTicket};
use ocs_name::{AlwaysAlive, NsConfig, NsHandle, NsReplica};
use ocs_orb::{declare_interface, impl_rpc_fault, Caller, ClientCtx, ObjRef, Orb, OrbError};
use ocs_sim::real::RealNet;
use ocs_sim::{Addr, LinkParams, NodeId, NodeRt, NodeRtExt, PortReq, RecvError, Rt, Sim, SimTime};
use ocs_telemetry::{NodeTelemetry, Span, SpanId, TraceId};
use ocs_vsr::{CounterMachine, Machine, VsrCore};
use ocs_wire::{impl_wire_enum, Decoder, Encoder, Wire};

use crate::util::median;
use crate::workloads::storm::sim_config;
use crate::workloads::{budgets, on_node, STREAM_BPS};

const BATCHES: usize = 5;
const BATCH: usize = 10_000;
/// RPC probe sample sizes: virtual-time calls repeat exactly, wall-clock
/// calls each open one TCP connection.
const SIM_CALLS: usize = 32;
const TCP_CALLS: usize = 300;
const NS_PORT: u16 = 10;

pub type Metrics = BTreeMap<&'static str, f64>;

/// Mean ns per iteration of `f`, median over batches.
fn bench_ns(mut f: impl FnMut()) -> f64 {
    let means: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..BATCH {
                f();
            }
            t.elapsed().as_nanos() as f64 / BATCH as f64
        })
        .collect();
    median(&means)
}

// ---------------------------------------------------------------------------
// CPU probes (runtime-independent).

/// Which request/reply pair the codec probe marshals.
#[derive(Clone, Copy, PartialEq)]
pub enum Frames {
    /// `CmApi::allocate` and its `Result<u64, MediaError>`.
    Allocate,
    /// `MmsApi::open` and its `Result<MovieTicket, MediaError>`.
    MovieOpen,
}

/// `ocs-wire.encode_ns` / `decode_ns`: marshalling one op's request
/// arguments plus its reply, and unmarshalling both.
pub fn wire(frames: Frames, m: &mut Metrics) {
    let ok_conn: Result<u64, MediaError> = Ok(123_456);
    let ok_ticket: Result<MovieTicket, MediaError> = Ok(MovieTicket {
        session: 0x1234_5678_9abc,
        movie: ObjRef {
            addr: Addr::new(NodeId(2), 21),
            incarnation: 0x55aa_55aa,
            type_id: 7,
            object_id: 42,
        },
        conn: 77,
        mds_node: NodeId(2),
    });
    let title = String::from(itv_cluster::real::MOVIE_TITLE);
    let encode_req = || {
        let mut e = Encoder::new();
        match frames {
            Frames::Allocate => {
                0u64.encode_into(&mut e);
                NodeId(100_123).encode_into(&mut e);
                NodeId(3).encode_into(&mut e);
                STREAM_BPS.encode_into(&mut e);
            }
            Frames::MovieOpen => {
                title.encode_into(&mut e);
                250_000u64.encode_into(&mut e);
            }
        }
        e.finish()
    };
    let encode_reply = || match frames {
        Frames::Allocate => ok_conn.to_bytes(),
        Frames::MovieOpen => ok_ticket.to_bytes(),
    };
    let (req, reply) = (encode_req(), encode_reply());
    m.insert(
        "ocs-wire.encode_ns",
        bench_ns(|| {
            black_box(encode_req());
            black_box(encode_reply());
        }),
    );
    m.insert(
        "ocs-wire.decode_ns",
        bench_ns(|| {
            let mut d = Decoder::new(black_box(&req));
            match frames {
                Frames::Allocate => {
                    black_box(u64::decode_from(&mut d).expect("token"));
                    black_box(NodeId::decode_from(&mut d).expect("settop"));
                    black_box(NodeId::decode_from(&mut d).expect("server"));
                    black_box(u64::decode_from(&mut d).expect("bps"));
                    let _ =
                        black_box(<Result<u64, MediaError>>::from_frame(&reply).expect("reply"));
                }
                Frames::MovieOpen => {
                    black_box(String::decode_from(&mut d).expect("title"));
                    black_box(u64::decode_from(&mut d).expect("resume"));
                    let _ = black_box(
                        <Result<MovieTicket, MediaError>>::from_frame(&reply).expect("reply"),
                    );
                }
            }
        }),
    );
}

/// `ocs-vsr.core_commit_ns`: one commit through three in-memory engines
/// (`client_op` → `on_prepare` ×2 → `on_ack` ×2 → `take_events`), no I/O.
pub fn vsr_core(m: &mut Metrics) {
    let t0 = SimTime::from_micros(0);
    let mut cores: Vec<VsrCore<CounterMachine>> = (0..3)
        .map(|i| {
            let mut c = VsrCore::new(i, 3, 64, Duration::from_secs(5), t0);
            c.end_probation(t0);
            c
        })
        .collect();
    m.insert(
        "ocs-vsr.core_commit_ns",
        bench_ns(|| {
            let prep = cores[0].client_op(1).expect("replica 0 leads view 0");
            for i in 1..3 {
                let ack = cores[i].on_prepare(
                    prep.view,
                    prep.view,
                    prep.op_num,
                    prep.commit_num,
                    prep.update,
                    t0,
                );
                cores[0].on_ack(i as u32, &ack);
            }
            for c in &mut cores {
                black_box(c.take_events());
            }
        }),
    );
    assert_eq!(
        cores[0].commit_num(),
        cores[0].op_num(),
        "probe commits advance"
    );
}

/// `itv-media.cmtable_apply_ns` (the pure table, allocate + release
/// pair) and `itv-media.cm_allocate_ns` (the standalone manager's
/// allocate + release pair), both holding `population` live streams.
pub fn cm_bookkeeping(population: usize, m: &mut Metrics) {
    let mut table = CmTable::new(budgets(), None);
    let mut seq = 0u64;
    let mut apply = |table: &mut CmTable, op: CmUpdate| {
        seq += 1;
        table.apply(seq, &op)
    };
    let server = NodeId(2);
    for i in 0..population {
        let op = CmUpdate::Allocate {
            token: 0,
            settop: NodeId(10_000 + i as u32),
            server,
            down_bps: STREAM_BPS,
            now_us: 0,
        };
        apply(&mut table, op).expect("population admitted");
    }
    m.insert(
        "itv-media.cmtable_apply_ns",
        bench_ns(|| {
            let op = CmUpdate::Allocate {
                token: 0,
                settop: NodeId(5),
                server,
                down_bps: STREAM_BPS,
                now_us: 1,
            };
            let conn = apply(&mut table, op).expect("probe admitted");
            apply(&mut table, CmUpdate::Release { conn, now_us: 1 }).expect("probe released");
        }),
    );

    let sim = Sim::with_config(sim_config(1));
    let node = sim.add_node("cm-probe");
    let cm = ConnectionManager::with_lease(
        budgets(),
        Some(node.clone() as Rt),
        Some(Duration::from_secs(3600)),
    );
    let caller = Caller::local(NodeId(1));
    for i in 0..population {
        cm.allocate(&caller, 0, NodeId(10_000 + i as u32), server, STREAM_BPS)
            .expect("population admitted");
    }
    m.insert(
        "itv-media.cm_allocate_ns",
        bench_ns(|| {
            let conn = cm
                .allocate(&caller, 0, NodeId(5), server, STREAM_BPS)
                .expect("probe admitted");
            cm.release(&caller, conn).expect("probe released");
        }),
    );
}

/// `ocs-telemetry.span_record_ns` (one span with a formatted name, as
/// every ORB call records) and `counter_inc_ns`.
pub fn telemetry(m: &mut Metrics) {
    let sim = Sim::with_config(sim_config(1));
    let node = sim.add_node("tel-probe");
    let tel = NodeTelemetry::of(&*node);
    let mut n = 0u64;
    m.insert(
        "ocs-telemetry.span_record_ns",
        bench_ns(|| {
            n += 1;
            tel.tracer.record(Span {
                trace: TraceId(n),
                span: SpanId(n),
                parent: SpanId(0),
                name: format!("client:{}", black_box("itv.cmgr.allocate")),
                node: NodeId(1),
                start: SimTime::from_micros(n),
                end: SimTime::from_micros(n + 1),
                err: false,
            });
        }),
    );
    let counter = tel.registry.counter("probe.counter");
    m.insert("ocs-telemetry.counter_inc_ns", bench_ns(|| counter.inc()));
}

/// `ocs-sim.pingpong_ns_per_event`: two nodes bouncing one message, no
/// ORB — the floor under `host_ns_per_event`.
pub fn sim_pingpong(m: &mut Metrics) {
    let per_event: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let sim = Sim::with_config(sim_config(7));
            let (a, b) = (sim.add_node("ping"), sim.add_node("pong"));
            let rt_b: Rt = b.clone();
            b.spawn_fn("pong", move || {
                let ep = rt_b.open(PortReq::Fixed(70)).expect("pong port");
                while let Ok((from, msg)) = ep.recv(None) {
                    let _ = ep.send(from, msg);
                }
            });
            let rt_a: Rt = a.clone();
            let to = Addr::new(b.node(), 70);
            a.spawn_fn("ping", move || {
                let ep = rt_a.open(PortReq::Ephemeral).expect("ping port");
                let msg = bytes::Bytes::from_static(&[0u8; 64]);
                for _ in 0..BATCH / 2 {
                    let _ = ep.send(to, msg.clone());
                    let _ = ep.recv(None);
                }
            });
            let before = sim.kernel_stats().events;
            let t = Instant::now();
            sim.run_for(Duration::from_secs(3600));
            t.elapsed().as_nanos() as f64 / (sim.kernel_stats().events - before).max(1) as f64
        })
        .collect();
    m.insert("ocs-sim.pingpong_ns_per_event", median(&per_event));
}

/// Every runtime-independent probe, on the frames and table size of the
/// workload being explained.
pub fn cpu_probes(frames: Frames, population: usize, m: &mut Metrics) {
    wire(frames, m);
    vsr_core(m);
    cm_bookkeeping(population, m);
    telemetry(m);
    sim_pingpong(m);
}

// ---------------------------------------------------------------------------
// RPC probes: the same bodies on either runtime.

#[derive(Debug, PartialEq, Clone)]
pub enum EchoError {
    Comm { err: OrbError },
}
impl_wire_enum!(EchoError { 0 => Comm { err } });
impl_rpc_fault!(EchoError);

declare_interface! {
    /// The null servant: what an RPC costs when the servant does nothing.
    pub interface Echo [EchoClient, EchoServant]: "bench.echo" {
        1 => fn echo(&self, v: u64) -> Result<u64, EchoError>;
    }
}

struct EchoImpl;
impl Echo for EchoImpl {
    fn echo(&self, _caller: &Caller, v: u64) -> Result<u64, EchoError> {
        Ok(v)
    }
}

fn now_us(rt: &Rt) -> f64 {
    rt.now().as_micros() as f64
}

/// `ocs-orb.echo_rtt_us`, `echo_cost_us` and `allocs_per_call` from
/// `client` against a null servant at `target`. Runs on the calling
/// process of either runtime; the round trip is timed on the runtime's
/// own clock, the cost on the host's: wall µs per call when `sim` (one
/// simulated process runs at a time, so wall time is the whole stack's),
/// process CPU µs per call on TCP (every thread's share).
fn echo_body(client: &Rt, target: ObjRef, calls: usize, sim: bool, m: &mut Metrics) {
    let ctx = ClientCtx::new(client.clone()).with_timeout(Duration::from_secs(5));
    let echo = EchoClient::attach(ctx, target).expect("echo type id");
    echo.echo(0).expect("warm-up echo");
    let allocs0 = crate::alloc::allocations();
    let (host0, cpu0) = (Instant::now(), crate::util::cpu_seconds());
    let rtts: Vec<f64> = (0..calls as u64)
        .map(|i| {
            let t0 = now_us(client);
            black_box(echo.echo(i).expect("echo"));
            now_us(client) - t0
        })
        .collect();
    let cost_s = if sim {
        host0.elapsed().as_secs_f64()
    } else {
        crate::util::cpu_seconds() - cpu0
    };
    let allocs = crate::alloc::allocations() - allocs0;
    m.insert("ocs-orb.echo_rtt_us", median(&rtts));
    m.insert("ocs-orb.echo_cost_us", cost_s * 1e6 / calls as f64);
    m.insert("ocs-orb.allocs_per_call", allocs as f64 / calls as f64);
}

/// `ocs-name.resolve_us` at a backup replica and `ocs-name.bind_us` (one
/// name-service commit) at the primary.
fn ns_body(client: &Rt, primary: Addr, backup: Addr, calls: usize, m: &mut Metrics) {
    let ctx = ClientCtx::new(client.clone()).with_timeout(Duration::from_secs(5));
    let at_primary = NsHandle::new(ctx.clone(), primary);
    let at_backup = NsHandle::new(ctx, backup);
    let obj = ObjRef {
        addr: Addr::new(primary.node, 99),
        incarnation: 1,
        type_id: 1,
        object_id: 0,
    };
    // Contexts may exist already (a retried first bind); the bound name
    // is what matters.
    let _ = at_primary.bind_new_context("probe");
    while at_primary.bind("probe/target", obj).is_err() {
        client.sleep(Duration::from_millis(100));
    }
    // The backup serves reads from its own copy: wait until it has it.
    while at_backup.resolve("probe/target").is_err() {
        client.sleep(Duration::from_millis(20));
    }
    let resolves: Vec<f64> = (0..calls)
        .map(|_| {
            let t0 = now_us(client);
            black_box(at_backup.resolve("probe/target").expect("resolve"));
            now_us(client) - t0
        })
        .collect();
    let binds: Vec<f64> = (0..calls / 4)
        .map(|i| {
            let t0 = now_us(client);
            at_primary
                .bind(&format!("probe/n{i}"), obj)
                .expect("bind commits");
            now_us(client) - t0
        })
        .collect();
    m.insert("ocs-name.resolve_us", median(&resolves));
    m.insert("ocs-name.bind_us", median(&binds));
}

fn ns_config(i: usize, peers: &[Addr]) -> NsConfig {
    let mut cfg = NsConfig::paper_defaults(i as u32, peers.to_vec());
    cfg.heartbeat_interval = Duration::from_millis(200);
    cfg.election_timeout = Duration::from_millis(600);
    cfg.peer_timeout = Duration::from_millis(150);
    cfg.audit_interval = Duration::from_secs(3600);
    cfg
}

/// The ORB and name-service probes in virtual time, from a client whose
/// link to every server has `link_us` of one-way latency (the median
/// driver's, for the storm workloads).
pub fn sim_rpc_probes(link_us: u64, m: &mut Metrics) {
    let sim = Sim::with_config(sim_config(11));
    let servers: Vec<_> = (0..3).map(|i| sim.add_node(&format!("ns{i}"))).collect();
    let client = sim.add_node("probe-client");
    let access = LinkParams::latency_only(Duration::from_micros(link_us));
    for s in &servers {
        sim.set_link(client.node(), s.node(), access);
        sim.set_link(s.node(), client.node(), access);
    }
    let peers: Vec<Addr> = servers
        .iter()
        .map(|n| Addr::new(n.node(), NS_PORT))
        .collect();
    let replicas: Vec<Arc<NsReplica>> = servers
        .iter()
        .enumerate()
        .map(|(i, n)| {
            NsReplica::start(n.clone() as Rt, ns_config(i, &peers), Arc::new(AlwaysAlive))
                .expect("ns replica starts")
        })
        .collect();
    let orb = Orb::new(servers[0].clone() as Rt, PortReq::Fixed(100)).expect("echo orb");
    let target = orb.export_root(Arc::new(EchoServant(Arc::new(EchoImpl))));
    orb.start();
    while replicas.iter().filter(|r| r.is_master()).count() != 1
        || replicas.iter().any(|r| r.in_probation())
    {
        assert!(sim.now() < SimTime::from_secs(60), "ns group never settled");
        sim.run_for(Duration::from_millis(20));
    }
    let primary = replicas
        .iter()
        .position(|r| r.is_master())
        .expect("settled");
    let (p, b) = (peers[primary], peers[(primary + 1) % 3]);
    let got = on_node(&sim, &client, Duration::from_secs(600), move |rt| {
        let mut m = Metrics::new();
        echo_body(&rt, target, SIM_CALLS * 8, true, &mut m);
        ns_body(&rt, p, b, SIM_CALLS, &mut m);
        m
    });
    m.extend(got);
}

/// The transport, ORB and (optionally) name-service probes over TCP
/// loopback, wall-clock µs.
pub fn tcp_rpc_probes(with_ns: bool, m: &mut Metrics) {
    let net = RealNet::new();
    let servers: Vec<_> = (0..3)
        .map(|i| net.add_node(&format!("ns{i}")).expect("bind loopback"))
        .collect();
    let client = net.add_node("probe-client").expect("bind loopback");
    let rt: Rt = client.clone();

    // `ocs-sim.tcp_frame_rtt_us`: raw frames over one long-lived
    // endpoint pair, no ORB.
    let echo_ep = (servers[0].clone() as Rt)
        .open(PortReq::Fixed(70))
        .expect("frame echo port");
    let echo_thread = std::thread::spawn(move || loop {
        match echo_ep.recv(Some(Duration::from_secs(5))) {
            Ok((from, msg)) if !msg.is_empty() => {
                let _ = echo_ep.send(from, msg);
            }
            Ok(_) | Err(RecvError::TimedOut | RecvError::Closed) => return,
            Err(RecvError::Unreachable(_)) => {}
        }
    });
    let ep = rt.open(PortReq::Ephemeral).expect("frame client port");
    let to = Addr::new(servers[0].node(), 70);
    let frame = bytes::Bytes::from_static(&[7u8; 96]);
    let frame_rtt = |n: usize| -> Vec<f64> {
        (0..n)
            .map(|_| {
                let t = Instant::now();
                ep.send(to, frame.clone()).expect("frame sent");
                ep.recv(Some(Duration::from_secs(5))).expect("frame echoed");
                t.elapsed().as_nanos() as f64 / 1000.0
            })
            .collect()
    };
    frame_rtt(50);
    m.insert("ocs-sim.tcp_frame_rtt_us", median(&frame_rtt(BATCH / 5)));
    // An empty frame tells the echo thread to stop.
    ep.send(to, bytes::Bytes::new()).expect("stop frame sent");
    echo_thread.join().expect("frame echo thread");

    let orb = Orb::new(servers[0].clone() as Rt, PortReq::Fixed(100)).expect("echo orb");
    let target = orb.export_root(Arc::new(EchoServant(Arc::new(EchoImpl))));
    orb.start();
    echo_body(&rt, target, TCP_CALLS, false, m);
    orb.shutdown();

    if with_ns {
        let peers: Vec<Addr> = servers
            .iter()
            .map(|n| Addr::new(n.node(), NS_PORT))
            .collect();
        let slots = Arc::new(parking_lot::Mutex::new(vec![None; 3]));
        for (i, n) in servers.iter().enumerate() {
            let (rt, cfg, slots) = (n.clone() as Rt, ns_config(i, &peers), Arc::clone(&slots));
            let mut cfg = cfg;
            cfg.resolve_cost = Duration::ZERO;
            // A killable group per replica, so the probe cleans up.
            n.spawn_group(
                &format!("ns-{i}"),
                Box::new(move || {
                    let r = NsReplica::start(rt.clone(), cfg, Arc::new(AlwaysAlive));
                    slots.lock()[i] = Some(r.expect("ns replica starts"));
                    loop {
                        rt.sleep(Duration::from_secs(3600));
                    }
                }),
            );
        }
        let deadline = Instant::now() + Duration::from_secs(15);
        let primary = loop {
            let rs: Vec<Option<Arc<NsReplica>>> = slots.lock().clone();
            let up: Vec<&Arc<NsReplica>> = rs.iter().flatten().collect();
            if up.len() == 3
                && up.iter().filter(|r| r.is_master()).count() == 1
                && up.iter().all(|r| !r.in_probation())
            {
                break up.iter().position(|r| r.is_master()).expect("settled");
            }
            assert!(Instant::now() < deadline, "ns group never settled");
            std::thread::sleep(Duration::from_millis(10));
        };
        ns_body(
            &rt,
            peers[primary],
            peers[(primary + 1) % 3],
            TCP_CALLS / 3,
            m,
        );
    }
    for n in servers.iter().chain([&client]) {
        n.kill_all_groups();
        n.stop();
    }
}
