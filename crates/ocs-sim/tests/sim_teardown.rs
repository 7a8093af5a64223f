//! Dropping a `Sim` leaves no thread behind. One test, in a process of
//! its own: it counts the process's threads, which any test running
//! beside it would move. The model harnesses build and drop tens of
//! thousands of simulations in one process; a carrier that outlived its
//! simulation would be a thread leaked per case.
#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ocs_sim::{NodeRt, NodeRtExt, Sim, SimTime};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn dropped_sims_leave_no_thread_behind() {
    let before = threads();
    let ran = Arc::new(AtomicU64::new(0));
    let mut most = 0;
    for seed in 0..200 {
        let sim = Sim::new(seed);
        let node = sim.add_node("n");
        for i in 0..50u64 {
            let (rt, ran) = (node.clone(), Arc::clone(&ran));
            node.spawn_fn("short", move || {
                rt.sleep(Duration::from_micros(i % 7));
                ran.fetch_add(1, Ordering::Relaxed);
            });
        }
        // One that never finishes: the drop has to unwind it.
        let rt = node.clone();
        node.spawn_fn("stuck", move || rt.sleep(Duration::from_secs(3600)));
        sim.run_until(SimTime::from_millis(1));
        most = most.max(threads());
    }
    assert_eq!(ran.load(Ordering::Relaxed), 200 * 50);
    // Each drop joined its carriers, so no simulation ran beside the
    // leftovers of the ones before it: at most one's 51 threads at once.
    assert!(
        most > before && most <= before + 60,
        "threads: {before} -> {most} at most"
    );
    // A joined thread can stay listed for a moment while the kernel
    // finishes reaping it.
    let deadline = Instant::now() + Duration::from_secs(5);
    while threads() != before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(threads(), before, "threads after the last drop");
}
