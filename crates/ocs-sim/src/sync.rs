//! Runtime-portable synchronization primitives.
//!
//! Service code must never block on plain OS mutexes/condvars across an
//! operation that yields to the simulation scheduler — a thread parked on
//! an OS lock never hands the baton back and the whole simulation
//! deadlocks. [`SyncObj`] is the portable wait/notify primitive both
//! runtimes implement safely; [`Semaphore`] and [`Gate`] are built on it
//! and are what services use for admission control and capacity
//! modelling (e.g. a service's CPU, a link's stream slots).

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::rt::Rt;
use crate::time::SimTime;

/// A generation-counting wait/notify object.
///
/// `bump` increments the generation and wakes all waiters;
/// `wait_newer(seen)` blocks until the generation exceeds `seen`. The
/// generation handshake makes the lost-wakeup race impossible: a waiter
/// that reads the generation before deciding to sleep either sees the
/// bump or is registered before it.
pub trait SyncObj: Send + Sync {
    /// The current generation.
    fn generation(&self) -> u64;

    /// Blocks until the generation exceeds `seen` or `timeout` elapses;
    /// returns the generation observed on wake.
    fn wait_newer(&self, seen: u64, timeout: Option<Duration>) -> u64;

    /// Increments the generation and wakes all waiters.
    fn bump(&self);
}

/// A counting semaphore usable from simulated processes and real threads.
pub struct Semaphore {
    permits: Mutex<u64>,
    obj: Arc<dyn SyncObj>,
}

impl Semaphore {
    /// Creates a semaphore with `permits` initial permits.
    pub fn new(rt: &Rt, permits: u64) -> Semaphore {
        Semaphore {
            permits: Mutex::new(permits),
            obj: rt.make_sync(),
        }
    }

    /// Acquires one permit, blocking until available.
    pub fn acquire(&self) {
        loop {
            let gen = self.obj.generation();
            {
                let mut p = self.permits.lock();
                if *p > 0 {
                    *p -= 1;
                    return;
                }
            }
            self.obj.wait_newer(gen, None);
        }
    }

    /// Tries to acquire one permit without blocking.
    pub fn try_acquire(&self) -> bool {
        let mut p = self.permits.lock();
        if *p > 0 {
            *p -= 1;
            true
        } else {
            false
        }
    }

    /// Acquires one permit, giving up after `timeout`. Returns whether a
    /// permit was obtained.
    pub fn acquire_timeout(&self, rt: &Rt, timeout: Duration) -> bool {
        let deadline = rt.now() + timeout;
        loop {
            let gen = self.obj.generation();
            if self.try_acquire() {
                return true;
            }
            let now = rt.now();
            if now >= deadline {
                return false;
            }
            self.obj.wait_newer(gen, Some(deadline - now));
        }
    }

    /// Returns one permit, waking a waiter.
    pub fn release(&self) {
        *self.permits.lock() += 1;
        self.obj.bump();
    }

    /// The number of currently available permits.
    pub fn available(&self) -> u64 {
        *self.permits.lock()
    }

    /// Runs `f` holding one permit.
    pub fn with<R>(&self, f: impl FnOnce() -> R) -> R {
        self.acquire();
        let r = f();
        self.release();
        r
    }
}

/// A one-shot gate: processes wait until it opens.
pub struct Gate {
    open: Mutex<bool>,
    obj: Arc<dyn SyncObj>,
}

impl Gate {
    /// Creates a closed gate.
    pub fn new(rt: &Rt) -> Gate {
        Gate {
            open: Mutex::new(false),
            obj: rt.make_sync(),
        }
    }

    /// Opens the gate, releasing all current and future waiters.
    pub fn open(&self) {
        *self.open.lock() = true;
        self.obj.bump();
    }

    /// Whether the gate is open.
    pub fn is_open(&self) -> bool {
        *self.open.lock()
    }

    /// Blocks until the gate opens or `timeout` elapses; returns whether
    /// it is open.
    pub fn wait(&self, timeout: Option<Duration>) -> bool {
        loop {
            let gen = self.obj.generation();
            if *self.open.lock() {
                return true;
            }
            let woken_gen = self.obj.wait_newer(gen, timeout);
            if *self.open.lock() {
                return true;
            }
            if woken_gen == gen {
                return false; // Timed out without a bump.
            }
        }
    }
}

/// An unbounded MPMC queue usable from simulated processes and real
/// threads (events into a settop's Application Manager, work handoff in
/// services).
pub struct Queue<T> {
    items: Mutex<std::collections::VecDeque<T>>,
    obj: Arc<dyn SyncObj>,
}

impl<T> Queue<T> {
    /// Creates an empty queue.
    pub fn new(rt: &Rt) -> Queue<T> {
        Queue::on(rt.make_sync())
    }

    /// Creates an empty queue that waits on `obj`.
    pub(crate) fn on(obj: Arc<dyn SyncObj>) -> Queue<T> {
        Queue {
            items: Mutex::new(std::collections::VecDeque::new()),
            obj,
        }
    }

    /// Enqueues a value, waking the waiters.
    pub fn push(&self, v: T) {
        self.items.lock().push_back(v);
        self.obj.bump();
    }

    /// Dequeues, blocking up to `timeout` (forever if `None`). Returns
    /// `None` on timeout.
    pub fn pop(&self, rt: &Rt, timeout: Option<Duration>) -> Option<T> {
        self.pop_by(|| rt.now(), timeout)
    }

    /// [`pop`](Queue::pop) with the timeout read on `clock`.
    pub(crate) fn pop_by(
        &self,
        clock: impl Fn() -> SimTime,
        timeout: Option<Duration>,
    ) -> Option<T> {
        let deadline = timeout.map(|t| clock() + t);
        loop {
            let gen = self.obj.generation();
            if let Some(v) = self.items.lock().pop_front() {
                return Some(v);
            }
            let remaining = match deadline {
                None => None,
                Some(d) => {
                    let now = clock();
                    if now >= d {
                        return self.items.lock().pop_front();
                    }
                    Some(d - now)
                }
            };
            self.obj.wait_newer(gen, remaining);
        }
    }

    /// Dequeues without blocking.
    pub(crate) fn try_pop(&self) -> Option<T> {
        self.items.lock().pop_front()
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.items.lock().len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeRtExt, Sim, SimTime};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn semaphore_limits_concurrency_in_sim() {
        let sim = Sim::new(1);
        let node = sim.add_node("a");
        let rt: Rt = node.clone();
        let sem = Arc::new(Semaphore::new(&rt, 2));
        let peak = Arc::new(AtomicU64::new(0));
        let cur = Arc::new(AtomicU64::new(0));
        for i in 0..6 {
            let rt = rt.clone();
            let sem = Arc::clone(&sem);
            let peak = Arc::clone(&peak);
            let cur = Arc::clone(&cur);
            node.spawn_fn(&format!("w{i}"), move || {
                sem.acquire();
                let now = cur.fetch_add(1, Ordering::Relaxed) + 1;
                peak.fetch_max(now, Ordering::Relaxed);
                rt.sleep(Duration::from_secs(1));
                cur.fetch_sub(1, Ordering::Relaxed);
                sem.release();
            });
        }
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(peak.load(Ordering::Relaxed), 2);
        assert_eq!(sem.available(), 2);
    }

    #[test]
    fn semaphore_timeout() {
        let sim = Sim::new(2);
        let node = sim.add_node("a");
        let rt: Rt = node.clone();
        let sem = Arc::new(Semaphore::new(&rt, 1));
        let got = Arc::new(AtomicU64::new(99));
        sem.acquire();
        let got2 = Arc::clone(&got);
        let sem2 = Arc::clone(&sem);
        let rt2 = rt.clone();
        node.spawn_fn("w", move || {
            let ok = sem2.acquire_timeout(&rt2, Duration::from_secs(2));
            got2.store(ok as u64, Ordering::Relaxed);
        });
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(got.load(Ordering::Relaxed), 0);
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    fn gate_releases_waiters() {
        let sim = Sim::new(3);
        let node = sim.add_node("a");
        let rt: Rt = node.clone();
        let gate = Arc::new(Gate::new(&rt));
        let released_at = Arc::new(AtomicU64::new(0));
        let g2 = Arc::clone(&gate);
        let r2 = Arc::clone(&released_at);
        let rt2 = rt.clone();
        node.spawn_fn("waiter", move || {
            assert!(g2.wait(None));
            r2.store(rt2.now().as_micros(), Ordering::Relaxed);
        });
        let g3 = Arc::clone(&gate);
        let rt3 = rt.clone();
        node.spawn_fn("opener", move || {
            rt3.sleep(Duration::from_secs(3));
            g3.open();
        });
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(released_at.load(Ordering::Relaxed), 3_000_000);
        assert!(gate.is_open());
    }

    #[test]
    fn queue_hands_items_across_processes() {
        let sim = Sim::new(5);
        let node = sim.add_node("a");
        let rt: Rt = node.clone();
        let q: Arc<Queue<u64>> = Arc::new(Queue::new(&rt));
        let out = Arc::new(AtomicU64::new(0));
        let q2 = Arc::clone(&q);
        let rt2 = rt.clone();
        node.spawn_fn("producer", move || {
            rt2.sleep(Duration::from_secs(1));
            q2.push(41);
            q2.push(1);
        });
        let q3 = Arc::clone(&q);
        let rt3 = rt.clone();
        let out2 = Arc::clone(&out);
        node.spawn_fn("consumer", move || {
            let a = q3.pop(&rt3, None).unwrap();
            let b = q3.pop(&rt3, Some(Duration::from_secs(5))).unwrap();
            let none = q3.pop(&rt3, Some(Duration::from_secs(1)));
            assert!(none.is_none());
            out2.store(a + b, Ordering::Relaxed);
        });
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(out.load(Ordering::Relaxed), 42);
    }

    #[test]
    fn gate_wait_timeout() {
        let sim = Sim::new(4);
        let node = sim.add_node("a");
        let rt: Rt = node.clone();
        let gate = Arc::new(Gate::new(&rt));
        let got = Arc::new(AtomicU64::new(99));
        let g2 = Arc::clone(&gate);
        let got2 = Arc::clone(&got);
        node.spawn_fn("waiter", move || {
            got2.store(
                g2.wait(Some(Duration::from_secs(1))) as u64,
                Ordering::Relaxed,
            );
        });
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(got.load(Ordering::Relaxed), 0);
    }
}
