//! A simulated wait object goes with its last handle: a process that
//! makes and drops 10,000 queues — each waits on a wait object of its
//! own — leaves the heap where it found it. Live bytes are counted by a
//! global allocator that keeps per-thread tallies; every simulated
//! process runs on the thread driving the simulation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use ocs_sim::{NodeRtExt, Queue, Rt, Sim, SimTime};

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn tally(bytes: i64) {
    let _ = LIVE.try_with(|l| l.set(l.get() + bytes));
}

fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// [`System`], counting this thread's live bytes.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the tally is a plain
// thread-local cell that allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size() as i64);
        // SAFETY: the caller's `layout` obligations pass through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` via the methods here.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size as i64 - layout.size() as i64);
        // SAFETY: as for `dealloc`; `new_size` passes through as-is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size() as i64);
        // SAFETY: the caller's `layout` obligations pass through as-is.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const QUEUES: usize = 10_000;

/// Room for what a run may keep that does not scale with the queues: a
/// table node, a pooled buffer. 10,000 wait objects kept for good take
/// hundreds of kilobytes.
const SLACK_BYTES: i64 = 4 * 1024;

#[test]
fn queues_made_and_dropped_in_a_process_leave_the_heap_as_they_found_it() {
    let sim = Sim::new(7);
    let node = sim.add_node("a");
    let grew = Arc::new(AtomicI64::new(i64::MIN));
    let (rt, out) = (node.clone() as Rt, Arc::clone(&grew));
    node.spawn_fn("maker", move || {
        // One queue first, so that whatever its first use sets up once
        // is in the baseline.
        drop(Queue::<u64>::new(&rt));
        let before = live();
        for i in 0..QUEUES {
            let q = Queue::new(&rt);
            q.push(i);
            assert_eq!(q.pop(&rt, None), Some(i));
        }
        out.store(live() - before, Ordering::SeqCst);
    });
    sim.run_until(SimTime::from_secs(1));
    let grew = grew.load(Ordering::SeqCst);
    assert_ne!(grew, i64::MIN, "the process finished");
    assert!(
        grew <= SLACK_BYTES,
        "{QUEUES} queues made and dropped left {grew} live bytes (slack {SLACK_BYTES})"
    );
}
