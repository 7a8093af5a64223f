//! A node is one thread. One test, in a process of its own: it counts
//! the process's threads, which any test running beside it would move.
//!
//! Each node of the real runtime runs its tasks — an MDS stream per open
//! movie, an ORB worker per request — on its one loop thread, whatever
//! its peers and requests. So once the cluster is up, `/proc/self/task`
//! holds one thread per node and the test's own, and 200 open/close
//! cycles, with a peer the servers never saw calling them all from
//! half-way on, leave it there: the newcomer brings its own loop and
//! nothing else.
#![cfg(target_os = "linux")]

use std::time::Duration;

use itv_cluster::real::{RealCluster, MOVIE_TITLE};
use itv_media::{MmsApiClient, MovieCtlClient};
use ocs_name::NsHandle;
use ocs_orb::ClientCtx;
use ocs_sim::real::eventually;
use ocs_sim::Rt;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// Attaches to the cluster's MMS from `rt`, once it is bound.
fn mms_from(cluster: &RealCluster, rt: Rt) -> (ClientCtx, MmsApiClient) {
    let ctx = ClientCtx::new(rt).with_timeout(Duration::from_secs(3));
    let mut mms = None;
    assert!(
        eventually(Duration::from_secs(15), || {
            mms = cluster
                .mms_ref()
                .and_then(|m| MmsApiClient::attach(ctx.clone(), m).ok());
            mms.is_some()
        }),
        "the MMS never bound"
    );
    (ctx, mms.expect("just checked"))
}

/// One movie cycle: open, play, close.
fn cycle(ctx: &ClientCtx, mms: &MmsApiClient) -> bool {
    let Ok(ticket) = mms.open(MOVIE_TITLE.into(), 0) else {
        return false;
    };
    let played = MovieCtlClient::attach(ctx.clone(), ticket.movie).is_ok_and(|m| m.play(0).is_ok());
    mms.close(ticket.session).is_ok() && played
}

#[test]
fn a_node_is_one_thread_through_open_close_cycles_and_a_new_peer() {
    let own = threads();
    let cluster = RealCluster::launch(3, 1);
    cluster.start_cm(Duration::from_secs(3600));
    cluster.start_mds();
    cluster.start_mms(Duration::from_secs(3600));
    let nodes = cluster.servers.len() + cluster.settops.len();
    let (ctx, mms) = mms_from(&cluster, cluster.settops[0].clone());
    // The first cycles may meet an MMS still recovering its state.
    assert!(
        eventually(Duration::from_secs(15), || cycle(&ctx, &mms)),
        "warm-up cycle never succeeded"
    );
    for _ in 0..20 {
        assert!(cycle(&ctx, &mms), "warm-up cycle failed");
    }
    assert_eq!(threads(), own + nodes, "one thread per node after warm-up");
    for i in 0..100 {
        assert!(cycle(&ctx, &mms), "cycle {i} failed");
    }
    assert_eq!(threads(), own + nodes, "after 100 cycles");

    // A fourth peer for the servers: a node none of them has a stream
    // with yet, listing the name space on every one of them between the
    // settop's cycles.
    let peer: Rt = cluster.net().add_node("newcomer").expect("bind loopback");
    let names: Vec<NsHandle> = cluster
        .ns_group
        .peers()
        .iter()
        .map(|&at| NsHandle::new(ClientCtx::new(peer.clone()), at))
        .collect();
    for i in 0..100 {
        assert!(cycle(&ctx, &mms), "cycle {} failed", 100 + i);
        let ns = &names[i % names.len()];
        assert!(ns.list("svc").is_ok(), "the newcomer's list {i} failed");
    }
    assert_eq!(
        threads(),
        own + nodes + 1,
        "after 200 cycles and a new peer: its loop, and no thread more"
    );
}
