//! Carrier threads: the OS threads under the real runtime's tasks.
//!
//! A task of the real runtime is a fresh closure with a fresh group
//! membership every time. The OS thread it runs on need not be fresh:
//! cloning and reaping a thread per ORB request costs several times what
//! the request itself does. The runtime therefore takes the thread from
//! a [`Carriers`] pool: a LIFO of parked threads, so a closed-loop
//! workload keeps re-using one warm stack, grown on demand when none is
//! idle. (The simulator's processes own no thread: they run on stacks of
//! their own, `coro.rs`.)
//!
//! Re-use must not be observable. Every job starts from the state a new
//! thread would have: the thread-locals a task sees (the real runtime's
//! process group, the span context) are cleared before it runs, and a
//! job that unwinds leaves its carrier usable.
//!
//! The pool lock is a leaf: nothing else is taken under it and no holder
//! waits, so it is safe to call into the pool under a kernel lock.

use std::collections::HashMap;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::{JoinHandle, ThreadId};

use parking_lot::Mutex;

use crate::kernel::Baton;

/// What a carrier runs: one task, start to finish.
pub(crate) type Job = Box<dyn FnOnce() + Send>;

/// Parked carriers kept for re-use. A burst of concurrent tasks
/// starts as many carriers as it needs; once it is over, carriers beyond
/// this many exit instead of parking, so the burst does not pin its
/// stacks for good.
const MAX_IDLE: usize = 256;

/// One carrier's mailbox. The carrier parks on `wake` until a job is
/// placed in `job`.
struct Seat {
    job: Mutex<Option<Job>>,
    wake: Baton,
}

struct Pool {
    /// Parked carriers, most recently parked last.
    idle: Vec<Arc<Seat>>,
    /// Join handles of the carriers that are running or parked.
    threads: HashMap<ThreadId, JoinHandle<()>>,
    retired: bool,
}

struct Shared {
    name: String,
    stack_size: Option<usize>,
    pool: Mutex<Pool>,
}

/// A pool of re-usable OS threads; see the module docs.
pub(crate) struct Carriers {
    shared: Arc<Shared>,
}

impl Carriers {
    /// An empty pool whose threads are named `name` and get
    /// `stack_size` bytes of stack (`None`: the platform default).
    pub fn new(name: &str, stack_size: Option<usize>) -> Carriers {
        Carriers {
            shared: Arc::new(Shared {
                name: name.to_string(),
                stack_size,
                pool: Mutex::new(Pool {
                    idle: Vec::new(),
                    threads: HashMap::new(),
                    retired: false,
                }),
            }),
        }
    }

    /// Starts `job` on the most recently parked carrier, or on a new one
    /// if none is idle. Returns whether an OS thread was started for it.
    /// Fails, dropping the job, only when the OS refuses a new thread.
    pub fn run(&self, job: Job) -> io::Result<bool> {
        let mut pool = self.shared.pool.lock();
        if let Some(seat) = pool.idle.pop() {
            drop(pool);
            *seat.job.lock() = Some(job);
            seat.wake.grant();
            return Ok(false);
        }
        let seat = Arc::new(Seat {
            job: Mutex::new(Some(job)),
            wake: Baton::new(),
        });
        let shared = Arc::clone(&self.shared);
        let mut builder = std::thread::Builder::new().name(self.shared.name.clone());
        if let Some(bytes) = self.shared.stack_size {
            builder = builder.stack_size(bytes);
        }
        let handle = builder.spawn(move || carrier_main(shared, seat))?;
        // A carrier started after `retire` exits after this one job and
        // nobody will join it: dropping the handle detaches it.
        if !pool.retired {
            pool.threads.insert(handle.thread().id(), handle);
        }
        Ok(true)
    }

    /// Winds the pool down: parked carriers exit now, busy ones after
    /// their current job instead of parking. Returns the handles of all
    /// of them, to join or to drop (the real runtime drops them: a task
    /// may block for ever). Idempotent; a job submitted afterwards gets a thread of
    /// its own.
    pub fn retire(&self) -> Vec<JoinHandle<()>> {
        let (idle, threads) = {
            let mut pool = self.shared.pool.lock();
            pool.retired = true;
            (
                std::mem::take(&mut pool.idle),
                std::mem::take(&mut pool.threads),
            )
        };
        for seat in idle {
            // Its mailbox is empty: the carrier wakes, finds no job, exits.
            seat.wake.grant();
        }
        threads.into_values().collect()
    }

    /// How many carriers are parked right now.
    #[cfg(test)]
    pub fn parked(&self) -> usize {
        self.shared.pool.lock().idle.len()
    }
}

/// Puts the calling thread in the state a newly started one has.
fn clean_thread_state() {
    crate::real::clear_current_group();
    crate::trace::set_current_ctx(None);
}

fn carrier_main(shared: Arc<Shared>, seat: Arc<Seat>) {
    loop {
        let Some(job) = seat.job.lock().take() else {
            return; // Retired while parked.
        };
        clean_thread_state();
        // Both runtimes' process wrappers catch and report their own
        // panics; this only keeps a carrier alive past one that escapes.
        let _ = panic::catch_unwind(AssertUnwindSafe(job));
        let mut pool = shared.pool.lock();
        if pool.retired {
            return;
        }
        if pool.idle.len() >= MAX_IDLE {
            // Nobody joins a carrier that leaves on its own account.
            pool.threads.remove(&std::thread::current().id());
            return;
        }
        pool.idle.push(Arc::clone(&seat));
        drop(pool);
        seat.wake.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    use crate::trace::{current_ctx, SpanCtx, SpanId, TraceId};

    /// Runs `f` on a carrier; returns its result, the carrier's thread
    /// id, and whether a thread was started for it.
    fn run_on<T: Send + 'static>(
        pool: &Carriers,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> (T, ThreadId, bool) {
        let (tx, rx) = mpsc::channel();
        let started = pool
            .run(Box::new(move || {
                tx.send((f(), std::thread::current().id())).unwrap();
            }))
            .unwrap();
        let (v, id) = rx.recv().unwrap();
        (v, id, started)
    }

    /// A carrier parks a moment after its job's last line; wait for it.
    fn wait_parked(pool: &Carriers, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.parked() != n {
            assert!(Instant::now() < deadline, "carriers never parked");
            std::thread::yield_now();
        }
    }

    fn join_all(pool: &Carriers) -> usize {
        let handles = pool.retire();
        let n = handles.len();
        for h in handles {
            h.join().expect("a carrier died of its job's panic");
        }
        n
    }

    #[test]
    fn a_parked_carrier_is_reused_and_starts_clean() {
        let pool = Carriers::new("test-carrier", None);
        let dirty = SpanCtx {
            trace: TraceId(7),
            span: SpanId(9),
        };
        let ((), first, started) = run_on(&pool, move || {
            crate::trace::set_current_ctx(Some(dirty));
        });
        assert!(started);
        wait_parked(&pool, 1);
        let (ctx, second, started) = run_on(&pool, current_ctx);
        assert!(!started);
        assert_eq!(second, first);
        assert_eq!(ctx, None, "span context leaked into the next job");
        assert_eq!(join_all(&pool), 1);
    }

    #[test]
    fn the_most_recently_parked_carrier_goes_first() {
        let pool = Carriers::new("test-carrier", None);
        // Two jobs at once need two carriers; `b` finishes, and parks, last.
        let (a_go, a_wait) = mpsc::channel::<()>();
        let (b_go, b_wait) = mpsc::channel::<()>();
        let (tx, rx) = mpsc::channel();
        for wait in [a_wait, b_wait] {
            let tx = tx.clone();
            pool.run(Box::new(move || {
                wait.recv().unwrap();
                tx.send(std::thread::current().id()).unwrap();
            }))
            .unwrap();
        }
        a_go.send(()).unwrap();
        let _a = rx.recv().unwrap();
        wait_parked(&pool, 1);
        b_go.send(()).unwrap();
        let b = rx.recv().unwrap();
        wait_parked(&pool, 2);
        let ((), next, started) = run_on(&pool, || ());
        assert!(!started);
        assert_eq!(next, b);
        assert_eq!(join_all(&pool), 2);
    }

    #[test]
    fn a_job_that_panics_gives_its_carrier_back() {
        let pool = Carriers::new("test-carrier", None);
        let (tx, rx) = mpsc::channel();
        pool.run(Box::new(move || {
            tx.send(std::thread::current().id()).unwrap();
            // Quiet: `resume_unwind` skips the panic hook.
            panic::resume_unwind(Box::new("boom"));
        }))
        .unwrap();
        let first = rx.recv().unwrap();
        wait_parked(&pool, 1);
        let ((), second, started) = run_on(&pool, || ());
        assert!(!started);
        assert_eq!(second, first);
        assert_eq!(join_all(&pool), 1);
    }

    #[test]
    fn retire_is_idempotent_and_later_jobs_still_run() {
        let pool = Carriers::new("test-carrier", None);
        run_on(&pool, || ());
        wait_parked(&pool, 1);
        assert_eq!(join_all(&pool), 1);
        assert!(pool.retire().is_empty());
        // Nothing parks in a retired pool, so every job starts a thread.
        for _ in 0..2 {
            let ((), _, started) = run_on(&pool, || ());
            assert!(started);
        }
        assert_eq!(pool.parked(), 0);
    }

    #[test]
    fn a_refused_thread_is_an_error_not_a_lost_job() {
        // No address space holds a stack this large.
        let pool = Carriers::new("test-carrier", Some(usize::MAX / 2));
        let (tx, rx) = mpsc::channel::<()>();
        let refused = pool.run(Box::new(move || drop(tx)));
        assert!(refused.is_err());
        // The job was dropped unrun, and the caller was told.
        assert!(rx.recv().is_err());
        assert!(pool.retire().is_empty());
    }

    #[test]
    fn carriers_beyond_the_idle_cap_exit() {
        let pool = Carriers::new("test-carrier", Some(64 * 1024));
        let n = MAX_IDLE + 8;
        let (go, wait) = mpsc::channel::<()>();
        let wait = Arc::new(std::sync::Mutex::new(wait));
        let (tx, rx) = mpsc::channel();
        for _ in 0..n {
            let (wait, tx) = (Arc::clone(&wait), tx.clone());
            pool.run(Box::new(move || {
                tx.send(()).unwrap();
                let _ = wait.lock().unwrap().recv();
            }))
            .unwrap();
        }
        // All `n` jobs are running at once, on `n` carriers.
        for _ in 0..n {
            rx.recv().unwrap();
        }
        assert_eq!(pool.shared.pool.lock().threads.len(), n);
        drop(go);
        let deadline = Instant::now() + Duration::from_secs(10);
        while pool.shared.pool.lock().threads.len() != MAX_IDLE {
            assert!(Instant::now() < deadline, "surplus carriers never left");
            std::thread::yield_now();
        }
        assert_eq!(join_all(&pool), MAX_IDLE);
    }
}
