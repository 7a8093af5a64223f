//! A simulated wait object goes with its last handle: a process that
//! makes and drops 10,000 queues — each waits on a wait object of its
//! own — leaves the heap where it found it. A wait that ends without a
//! bump, timed out or killed, leaves nothing on its wait object either.
//! Live bytes are counted by a global allocator that keeps per-thread
//! tallies; every simulated process runs on the thread driving the
//! simulation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use std::time::Duration;

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

/// A process that pops an empty queue 10,000 times, each pop timing out
/// after 1 ms, leaves the queue's wait object as it found it: no entry
/// of an ended wait waits there for a bump (262,080 live bytes when
/// every timed-out pop left one).
#[test]
fn idle_pops_that_time_out_leave_the_heap_as_they_found_it() {
    let sim = Sim::new(7);
    let node = sim.add_node("a");
    let grew = Arc::new(AtomicI64::new(i64::MIN));
    let (rt, out) = (node.clone() as Rt, Arc::clone(&grew));
    node.spawn_fn("idler", move || {
        let q = Queue::<u64>::new(&rt);
        let pop = || assert_eq!(q.pop(&rt, Some(Duration::from_millis(1))), None);
        pop();
        let before = live();
        for _ in 0..QUEUES {
            pop();
        }
        out.store(live() - before, Ordering::SeqCst);
    });
    sim.run_until(SimTime::from_secs(20));
    let grew = grew.load(Ordering::SeqCst);
    assert_ne!(grew, i64::MIN, "the process finished");
    assert!(
        grew <= SLACK_BYTES,
        "{QUEUES} idle pops left {grew} live bytes (slack {SLACK_BYTES})"
    );
}

/// Live bytes that 1,000 processes, each killed in turn while it waits,
/// leave behind: waiting in a pop of one shared queue, or in a sleep.
fn grown_by_killed_waits(in_pop: bool) -> i64 {
    const KILLS: usize = 1_000;
    let sim = Sim::new(7);
    let node = sim.add_node("a");
    let grew = Arc::new(AtomicI64::new(i64::MIN));
    let (rt, out) = (node.clone() as Rt, Arc::clone(&grew));
    node.spawn_fn("killer", move || {
        let q = Arc::new(Queue::<u64>::new(&rt));
        let kill_a_waiter = || {
            let (rt2, q) = (rt.clone(), Arc::clone(&q));
            let group = rt.spawn_group(
                "waiter",
                Box::new(move || match in_pop {
                    true => drop(q.pop(&rt2, None)),
                    false => rt2.sleep(Duration::from_secs(3600)),
                }),
            );
            rt.sleep(Duration::from_millis(1));
            group.kill();
            rt.sleep(Duration::from_millis(1));
        };
        kill_a_waiter();
        let before = live();
        for _ in 0..KILLS {
            kill_a_waiter();
        }
        out.store(live() - before, Ordering::SeqCst);
    });
    sim.run_until(SimTime::from_secs(20));
    let grew = grew.load(Ordering::SeqCst);
    assert_ne!(grew, i64::MIN, "the process finished");
    grew
}

/// A process killed while it pops leaves nothing on the queue's wait
/// object: 1,000 of them leave what as many killed in a sleep leave —
/// the kills' journal lines — and no more.
#[test]
fn pops_killed_while_waiting_leave_nothing_on_the_queue() {
    let (popped, slept) = (grown_by_killed_waits(true), grown_by_killed_waits(false));
    assert!(
        popped - slept <= SLACK_BYTES,
        "killed pops left {popped} live bytes, killed sleeps {slept} (slack {SLACK_BYTES})"
    );
}
