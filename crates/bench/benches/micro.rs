//! Criterion micro-benchmarks on the REAL runtime: the OCS fast paths
//! whose cost underlies every experiment — marshalling, the crypto
//! primitives, a raw frame round trip, a full ORB round trip and a name
//! service resolve over TCP loopback — beside the floors the OS sets
//! under them: a thread hand-off and a bare socket ping-pong.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use ocs_auth::crypto::{hmac_sha256, sha256};
use ocs_name::{AlwaysAlive, NsConfig, NsHandle, NsReplica};
use ocs_orb::{declare_interface, impl_rpc_fault, Caller, ClientCtx, Orb, OrbError};
use ocs_sim::real::RealNet;
use ocs_sim::{Addr, NodeRt, PortReq, Rt};
use ocs_wire::{impl_wire_enum, impl_wire_struct, Wire};

#[derive(Debug, PartialEq, Clone)]
struct Payload {
    id: u64,
    title: String,
    tags: Vec<u32>,
    blob: Bytes,
}
impl_wire_struct!(Payload {
    id,
    title,
    tags,
    blob
});

#[derive(Debug, PartialEq, Clone)]
pub enum BenchError {
    Comm { err: OrbError },
}
impl_wire_enum!(BenchError { 0 => Comm { err } });
impl_rpc_fault!(BenchError);

declare_interface! {
    pub interface BenchSvc [BenchSvcClient, BenchSvcServant]: "bench.svc" {
        1 => fn echo(&self, v: u64) -> Result<u64, BenchError>;
    }
}

struct BenchImpl;
impl BenchSvc for BenchImpl {
    fn echo(&self, _c: &Caller, v: u64) -> Result<u64, BenchError> {
        Ok(v)
    }
}

fn bench_wire(c: &mut Criterion) {
    let p = Payload {
        id: 42,
        title: "terminator-2-judgment-day".into(),
        tags: (0..16).collect(),
        blob: Bytes::from(vec![7u8; 512]),
    };
    c.bench_function("wire/encode_payload_576B", |b| {
        b.iter(|| std::hint::black_box(p.to_bytes()))
    });
    let encoded = p.to_bytes();
    c.bench_function("wire/decode_payload_576B", |b| {
        b.iter(|| std::hint::black_box(Payload::from_bytes(&encoded).unwrap()))
    });
}

fn bench_crypto(c: &mut Criterion) {
    let data = vec![0xabu8; 1024];
    c.bench_function("crypto/sha256_1KiB", |b| {
        b.iter(|| std::hint::black_box(sha256(&data)))
    });
    c.bench_function("crypto/hmac_sha256_1KiB", |b| {
        b.iter(|| std::hint::black_box(hmac_sha256(b"session-key", &data)))
    });
}

/// The size of a null ORB request on the wire, header included.
const FRAME: usize = 111;

/// A connected loopback pair, small writes sent at once.
fn tcp_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let dialled = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (accepted, _) = listener.accept().unwrap();
    dialled.set_nodelay(true).unwrap();
    accepted.set_nodelay(true).unwrap();
    (dialled, accepted)
}

/// Echoes frames read from `from` onto `to` until `from` ends.
fn spawn_tcp_echo(mut from: TcpStream, mut to: TcpStream) {
    std::thread::spawn(move || {
        let mut buf = [0u8; FRAME];
        while from.read_exact(&mut buf).is_ok() && to.write_all(&buf).is_ok() {}
    });
}

fn tcp_pingpong(c: &mut Criterion, name: &str, mut out: TcpStream, mut back: TcpStream) {
    let mut buf = [7u8; FRAME];
    c.bench_function(name, |b| {
        b.iter(|| {
            out.write_all(&buf).unwrap();
            back.read_exact(&mut buf).unwrap();
        })
    });
}

/// What the OS charges with no runtime on top: two thread hand-offs
/// (there and back through a channel), and one frame there and back over
/// loopback — on one stream, where the reply carries the request's ACK,
/// and on a stream per direction, where each frame draws an ACK of its
/// own.
fn bench_floors(c: &mut Criterion) {
    let (ping, pinged) = mpsc::channel::<u64>();
    let (pong, ponged) = mpsc::channel::<u64>();
    std::thread::spawn(move || {
        while let Ok(v) = pinged.recv() {
            if pong.send(v).is_err() {
                return;
            }
        }
    });
    c.bench_function("floor/thread_handoff_there_and_back", |b| {
        b.iter(|| {
            ping.send(1).unwrap();
            std::hint::black_box(ponged.recv().unwrap())
        })
    });

    let (ours, theirs) = tcp_pair();
    spawn_tcp_echo(theirs.try_clone().unwrap(), theirs);
    tcp_pingpong(
        c,
        "floor/tcp_pingpong_one_stream",
        ours.try_clone().unwrap(),
        ours,
    );

    let (out, out_far) = tcp_pair();
    let (back_far, back) = tcp_pair();
    spawn_tcp_echo(out_far, back_far);
    tcp_pingpong(c, "floor/tcp_pingpong_two_streams", out, back);
}

/// The runtime's own frame round trip, no ORB: two long-lived endpoints,
/// a receive loop echoing at the far one.
fn bench_frame_tcp(c: &mut Criterion) {
    let net = RealNet::new();
    let server = net.add_node("server").unwrap();
    let client = net.add_node("client").unwrap();
    let echo = server.open(PortReq::Fixed(70)).unwrap();
    let to = echo.local();
    std::thread::spawn(move || {
        while let Ok((from, msg)) = echo.recv(None) {
            let _ = echo.send(from, msg);
        }
    });
    let ep = client.open(PortReq::Ephemeral).unwrap();
    let frame = Bytes::from_static(&[7u8; FRAME - 15]);
    c.bench_function("sim/frame_round_trip_tcp_loopback", |b| {
        b.iter(|| {
            ep.send(to, frame.clone()).unwrap();
            std::hint::black_box(ep.recv(Some(Duration::from_secs(5))).unwrap())
        })
    });
}

fn bench_orb_tcp(c: &mut Criterion) {
    let net = RealNet::new();
    let server = net.add_node("server").unwrap();
    let client_node = net.add_node("client").unwrap();
    let rt: Rt = server.clone();
    let orb = Orb::new(rt, PortReq::Fixed(100)).unwrap();
    let obj = orb.export_root(Arc::new(BenchSvcServant(Arc::new(BenchImpl))));
    orb.start();
    let ctx = ClientCtx::new(client_node.clone() as Rt).with_timeout(Duration::from_secs(5));
    let client = BenchSvcClient::attach(ctx, obj).unwrap();
    // Warm the connection path.
    client.echo(0).unwrap();
    c.bench_function("orb/call_round_trip_tcp_loopback", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            std::hint::black_box(client.echo(i).unwrap())
        })
    });
}

fn bench_ns_resolve_tcp(c: &mut Criterion) {
    let net = RealNet::new();
    let server = net.add_node("ns").unwrap();
    let client_node = net.add_node("client").unwrap();
    let peers = vec![Addr::new(server.node(), 10)];
    let mut cfg = NsConfig::paper_defaults(0, peers.clone());
    cfg.heartbeat_interval = Duration::from_millis(200);
    cfg.election_timeout = Duration::from_millis(600);
    cfg.resolve_cost = Duration::ZERO;
    let _replica = NsReplica::start(server.clone() as Rt, cfg, Arc::new(AlwaysAlive)).unwrap();
    std::thread::sleep(Duration::from_secs(2)); // Election.
    let ns = NsHandle::new(
        ClientCtx::new(client_node.clone() as Rt).with_timeout(Duration::from_secs(5)),
        peers[0],
    );
    ns.bind(
        "bench-target",
        ocs_orb::ObjRef {
            addr: Addr::new(server.node(), 99),
            incarnation: 1,
            type_id: 1,
            object_id: 0,
        },
    )
    .unwrap();
    c.bench_function("name/resolve_tcp_loopback", |b| {
        b.iter(|| std::hint::black_box(ns.resolve("bench-target").unwrap()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(30)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_secs(1));
    targets = bench_wire, bench_crypto, bench_floors, bench_frame_tcp, bench_orb_tcp,
        bench_ns_resolve_tcp
}
criterion_main!(benches);
