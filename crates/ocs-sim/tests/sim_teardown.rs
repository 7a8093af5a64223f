//! Dropping a `Sim` leaves nothing behind: no OS thread — a simulated
//! process never starts one — and no mapped process stack. One test, in a
//! process of its own: it counts the process's threads and mappings,
//! which any test running beside it would move. The model harnesses
//! build and drop tens of thousands of simulations in one process; a
//! stack that outlived its simulation would be half a megabyte of
//! address space leaked per case.
#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ocs_sim::{NodeRt, NodeRtExt, Sim, SimTime};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// Mappings shaped like a process stack: 512 KiB read-write directly
/// above a 4 KiB inaccessible guard page.
fn stacks() -> usize {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("procfs");
    let mut below: Option<(u64, u64, bool)> = None;
    let mut n = 0;
    for line in maps.lines() {
        let mut fields = line.split_whitespace();
        let (range, perms) = (fields.next().unwrap(), fields.next().unwrap());
        let (lo, hi) = range.split_once('-').unwrap();
        let lo = u64::from_str_radix(lo, 16).unwrap();
        let hi = u64::from_str_radix(hi, 16).unwrap();
        let guard = perms.starts_with("---");
        if perms.starts_with("rw") && hi - lo == 512 * 1024 {
            if let Some((glo, ghi, true)) = below {
                n += usize::from(ghi == lo && ghi - glo == 4096);
            }
        }
        below = Some((lo, hi, guard));
    }
    n
}

#[test]
fn dropped_sims_leave_no_thread_behind() {
    let (threads_before, stacks_before) = (threads(), stacks());
    let ran = Arc::new(AtomicU64::new(0));
    let (mut most_threads, mut most_stacks) = (0, 0);
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
        // All 51 were alive at once before the first sleep ended.
        assert_eq!(sim.kernel_stats().stacks_mapped, 51, "seed {seed}");
        most_threads = most_threads.max(threads());
        most_stacks = most_stacks.max(stacks());
    }
    assert_eq!(ran.load(Ordering::Relaxed), 200 * 50);
    assert_eq!(
        most_threads, threads_before,
        "a simulation started a thread"
    );
    // Each drop unmapped its stacks, so no simulation ran beside the
    // leftovers of the ones before it: one's 51 stacks at most.
    assert_eq!(most_stacks, stacks_before + 51, "stacks mapped at once");
    assert_eq!(stacks(), stacks_before, "stacks after the last drop");
}
