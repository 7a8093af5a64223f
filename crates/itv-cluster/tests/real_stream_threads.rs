//! A closed stream gives its thread back. One test, in a process of its
//! own: it counts the process's threads, which any test running beside
//! it would move.
//!
//! An MDS stream is a process per open movie. It used to sleep its
//! 500 ms tick out before it noticed the close, so when streams closed
//! as fast as they opened no carrier thread was ever parked for the next
//! open to re-use, and every open cloned one. `close` now wakes it.
#![cfg(target_os = "linux")]

use std::time::Duration;

use itv_cluster::real::{RealCluster, MOVIE_TITLE};
use itv_media::{MmsApiClient, MovieCtlClient};
use ocs_orb::ClientCtx;
use ocs_sim::real::eventually;
use ocs_sim::Rt;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn open_close_cycles_leave_the_thread_count_flat() {
    let cluster = RealCluster::launch(3, 1);
    cluster.start_cm(Duration::from_secs(3600));
    cluster.start_mds();
    cluster.start_mms(Duration::from_secs(3600));
    let rt: Rt = cluster.settops[0].clone();
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
    let mms = mms.expect("just checked");
    let cycle = || -> bool {
        let Ok(ticket) = mms.open(MOVIE_TITLE.into(), 0) else {
            return false;
        };
        let played =
            MovieCtlClient::attach(ctx.clone(), ticket.movie).is_ok_and(|m| m.play(0).is_ok());
        mms.close(ticket.session).is_ok() && played
    };
    // The first cycles bring the carrier pools to size (and the MMS may
    // still be recovering its state).
    assert!(
        eventually(Duration::from_secs(15), cycle),
        "warm-up cycle never succeeded"
    );
    for _ in 0..20 {
        assert!(cycle(), "warm-up cycle failed");
    }
    let before = threads();
    for i in 0..200 {
        assert!(cycle(), "cycle {i} failed");
    }
    let after = threads();
    // With a thread cloned per open this grows by 200 — the streams
    // outlive their close by up to a tick, and park afterwards. A few
    // are allowed for the open that arrives before the last stream's
    // carrier has parked.
    assert!(
        after <= before + 8,
        "threads: {before} before 200 open/close cycles, {after} after"
    );
}
