//! A dropped `RealCluster` leaves nothing behind, however often it is
//! launched — as the benchmark launches one per round. One test, in a
//! process of its own: it counts the process's threads and descriptors,
//! which any test running beside it would move.
#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use itv_cluster::real::RealCluster;

fn entries(dir: &str) -> usize {
    std::fs::read_dir(dir).expect("procfs").count()
}

/// (threads, descriptors) of this process. Reading a directory holds a
/// descriptor on it, the same one both times.
fn footprint() -> (usize, usize) {
    (entries("/proc/self/task"), entries("/proc/self/fd"))
}

#[test]
fn three_launched_and_dropped_clusters_leave_no_thread_or_descriptor() {
    let before = footprint();
    for round in 1..=3 {
        // The cluster's ORBs — the telemetry exporters, started from this
        // thread in no group, among them — are neither shut down nor
        // killed one by one: the drop stops every node.
        drop(RealCluster::launch(3, 1));
        let deadline = Instant::now() + Duration::from_secs(5);
        while footprint() != before && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(
            footprint(),
            before,
            "(threads, descriptors) after round {round}"
        );
    }
}
