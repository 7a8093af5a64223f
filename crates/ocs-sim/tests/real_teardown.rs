//! `RealNode::stop` leaves nothing behind. One test, in a process of its
//! own: it counts the process's threads and descriptors, which any test
//! running beside it would move.
#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use ocs_sim::real::{RealNet, RealNode};
use ocs_sim::{Addr, NodeRt, NodeRtExt, PortReq};

fn entries(dir: &str) -> usize {
    std::fs::read_dir(dir).expect("procfs").count()
}

/// (threads, descriptors) of this process. Reading a directory holds a
/// descriptor on it, the same one both times.
fn footprint() -> (usize, usize) {
    (entries("/proc/self/task"), entries("/proc/self/fd"))
}

#[test]
fn a_stopped_net_leaves_no_thread_or_descriptor_behind() {
    let before = footprint();
    // The client endpoints outlive their nodes: it is `stop` that must
    // close the streams, not the last endpoint going away.
    let mut clients = Vec::new();
    {
        let net = RealNet::new();
        let nodes: Vec<Arc<RealNode>> = (0..4)
            .map(|i| net.add_node(&format!("n{i}")).unwrap())
            .collect();
        // An echo service on every node, answering each request from a
        // task of its own as the ORB does — two of them through `serve`,
        // two through a receive loop of their own; every node calls
        // every other, so each pair holds a stream, read by the loops at
        // both ends.
        let mut served = Vec::new();
        for (i, node) in nodes.iter().enumerate() {
            let server = node.open(PortReq::Fixed(100)).unwrap();
            let rt = Arc::clone(node);
            if i % 2 == 0 {
                served.push(Arc::clone(&server));
                node.spawn_fn("echo", move || {
                    // The handler must not own the endpoint it is kept by.
                    let reply = Arc::downgrade(&server);
                    let handler = move |from, msg| {
                        if let Some(server) = reply.upgrade() {
                            let _ = server.send(from, msg);
                        }
                    };
                    server.serve(&*rt, "echo-worker", Arc::new(handler), None);
                });
            } else {
                node.spawn_fn("echo", move || {
                    while let Ok((from, msg)) = server.recv(Some(Duration::from_millis(200))) {
                        let server = Arc::clone(&server);
                        rt.spawn_fn("echo-worker", move || {
                            let _ = server.send(from, msg);
                        });
                    }
                });
            }
        }
        for from in &nodes {
            let ep = from.open(PortReq::Ephemeral).unwrap();
            for to in nodes.iter().filter(|n| n.node() != from.node()) {
                ep.send(Addr::new(to.node(), 100), Bytes::from_static(b"hi"))
                    .unwrap();
                ep.recv(Some(Duration::from_secs(5))).unwrap();
            }
            clients.push(ep);
        }
        // 500 more requests, hence 500 more tasks, on the threads of the
        // first few.
        for i in 0..500 {
            let to = &nodes[1 + i % 3];
            clients[0]
                .send(Addr::new(to.node(), 100), Bytes::from_static(b"again"))
                .unwrap();
            clients[0].recv(Some(Duration::from_secs(5))).unwrap();
        }
        let during = footprint();
        // One loop thread per node, whatever its streams and tasks; 4
        // listeners + 6 streams with two ends each (+ each loop's epoll
        // set and eventfd).
        assert_eq!(during.0, before.0 + 4, "threads: {before:?} -> {during:?}");
        assert!(
            during.1 >= before.1 + 16,
            "descriptors: {before:?} -> {during:?}"
        );
        assert!(
            during.1 < before.1 + 28,
            "descriptors: {before:?} -> {during:?}"
        );
        // A served port's process waits for the close, as an ORB's does
        // for `shutdown`.
        for server in served {
            server.close();
        }
        for node in &nodes {
            node.stop();
        }
    }
    // The echo loops leave at their next receive timeout, the serving
    // tasks at the close, and each node's loop thread with its last task.
    let deadline = Instant::now() + Duration::from_secs(5);
    while footprint() != before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(
        footprint(),
        before,
        "(threads, descriptors) after stop and drop"
    );
}
