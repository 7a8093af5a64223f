//! The real runtime: one loop thread per node, the wall clock, and TCP on
//! loopback.
//!
//! [`RealNet`] plays the role of the simulated network: it maps [`NodeId`]s
//! to TCP listeners on `127.0.0.1`. Endpoint semantics mirror the
//! simulation: datagram-like sends, blocking receives with timeouts, and
//! `Unreachable` bounces when a frame arrives for a closed port.
//!
//! ## One loop per node
//!
//! A [`RealNode`] runs exactly one OS thread, its loop, whatever its peers
//! and requests. The loop waits on one epoll set (`poll.rs`) holding the
//! node's listener, every stream it dialled or accepted, and an eventfd
//! other threads ring when they post to it, until the first deadline in
//! its task table. Every [`NodeRt::spawn`] is a task — its own closure,
//! under an id its group counts — on a pooled `coro.rs` stack, which the
//! loop switches to as the simulator switches to a process. The loop's
//! task table is the simulator's (`tasks.rs`), keyed by `(Instant, id)`:
//! a task that waits ([`NodeRt::sleep`], [`Endpoint::recv`], a
//! [`crate::sync::SyncObj`] wait, so every ORB call) is blocked there,
//! with its deadline, and switches back to the loop, taking its group and
//! span context with it; a wake names the wait it is for, and a due
//! deadline wakes the task. So a long computation holds up its whole
//! node until it waits, and no lock may be held across a wait. A thread
//! that belongs to no node (a test driver, a benchmark's main thread)
//! blocks its own OS thread on the same mailboxes and sync objects.
//! `real.net.threads_spawned` counts loop threads, and
//! `real.net.spawn_failed` the tasks lost for want of a stack.
//!
//! An endpoint somebody [`recv`](Endpoint::recv)s from has a mailbox: the
//! loop queues its frames (`real.net.frames_queued`) and wakes the
//! receiver. A *served* endpoint ([`Endpoint::serve`]) has a handler: for
//! every landing, a frame or a bounce, the loop starts its task, in the
//! endpoint's group, where it read it — a stream's frames in the order
//! they were sent — and runs it until it first waits.
//!
//! A process group lives on one node, its home: a task spawned, or an
//! endpoint opened, through another node's runtime belongs to no group.
//! An endpoint is an open in the node's port table (`ports.rs`, the one
//! copy of the port and group rules, which the simulator's kernel keeps
//! too): it is owned by its opener's group, and closes when closed, when
//! its last handle drops, at once when that group is killed, and when its
//! node stops. Only its own handle closes an open. TCP's own part of a
//! port is its mailbox. The same table, under the same lock, is the
//! group's record: its task ids, counted in before the loop starts a
//! task, and whether it was killed. A task carries only its group's id.
//!
//! ## Connection lifetime
//!
//! Two nodes share one `TcpStream`, used both ways by every endpoint,
//! RPC, reply and bounce between them: a node dials only when it has no
//! stream with the peer, and the first frame on an accepted stream names
//! the dialler, so replies ride the stream their request came on. When
//! both dial at once, both send on the stream the lower node id dialled
//! (`NodeCore::offer_stream`); the other is read to its end, and carries
//! nothing after its first frames. Streams
//! are non-blocking, and no sender ever waits on one: a frame is written
//! under the peer's slot lock as far as the socket takes it, and what it
//! cannot take waits in the stream's unsent bytes, which the stream's
//! loop writes out as room appears (it watches the stream for room while
//! any are left, and later frames queue behind them). So per-stream
//! order is send order, and two loops sending each other more than the
//! socket buffers hold, or a task sending its own node as much, go on
//! reading while they send. A task or a thread that must dial backs off
//! between attempts, holding no lock; the loop itself (a bounce) tries
//! once. Order to a peer is not kept across that back-off: a frame sent
//! meanwhile by another task or thread may dial and go first.
//!
//! * A **kill** closes the group's ports, not the streams: they stay up
//!   for the node's other groups, and frames for the dead ports bounce.
//! * A **reset storm** or a failed write shuts the stream down both ways;
//!   the frame is resent over a fresh one (`real.net.resets`, journalled
//!   with its reconnect), and the peer, whose loop reads the end, dials
//!   for its next. A loop that reads a stream's end clears the peer's
//!   slot (`conn to <peer> closed by the peer`), so no frame is written
//!   into a stream known to be dead.
//! * [`RealNode::stop`] (or dropping the node) closes the listener, then
//!   shuts every stream, so a peer's next frame dials, is refused and
//!   fails at once ([`NetError::PeerRefused`] or
//!   [`NetError::SendFailed`]), and then closes every port still open.
//!   Nothing waits to keep a port open, so the loop thread exits with
//!   its last task.
//!
//! ## Fault parity with the simulator
//!
//! * **Cooperative kill.** [`crate::rt::ProcGroup::kill`] marks the
//!   group's record and closes its endpoints at once, in port order, so
//!   peers see bounces ([`RecvError::Unreachable`]) rather than silence,
//!   and wakes every task of the group to unwind where it waits — a
//!   running one at its next wait or [`NodeRt::cancelled`] poll, each of
//!   which reads the record; code that spins is not reached. A send is
//!   no wait: a killed task's frames go out, as a killed process's do in
//!   the simulator, until it next waits — a dial's back-off, which
//!   sleeps, included. The unwind is the simulator's: a private payload
//!   through `resume_unwind`, no panic hook.
//! * **Faults.** [`RealNet`] is a [`FaultRt`]: a
//!   [`FaultAction`](crate::FaultAction) applies to it as to the
//!   simulator, journalled under `fault` on every node it hits. A crash
//!   kills every process group on the node
//!   ([`RealNode::kill_all_groups`]) while its loop and listener stay
//!   up; a restart only journals, since starting the software again is
//!   the driver's job. Partitions, impairments and
//!   [`RealNet::set_reset_storm`] apply per node pair under every send:
//!   partitions drop silently, impairments drop, duplicate or delay
//!   frames (on the sender's loop timers), reset storms tear the pair's
//!   stream down before each send. The fault-free path pays one relaxed
//!   load. [`FaultPlan::run`](crate::FaultPlan::run) with [`wall_clock`]
//!   replays a plan, its times read as wall durations from the call.
//!
//! Service code written against [`NodeRt`] runs unchanged on either
//! runtime; see `examples/tcp_cluster.rs` for a full cluster on TCP.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Condvar, Mutex, MutexGuard};
use rand::{Rng, RngExt};

use crate::backoff::RetryPolicy;
use crate::coro::{self, Handle, Stack, StackPool};
use crate::fault::FaultRt;
use crate::kernel::{KillSignal, LinkImpairment};
use crate::poll::{self, Poller};
use crate::ports::{Killed, Landing, Port, PortTable};
use crate::rt::{
    Addr, Endpoint, InlineTest, LandingHandler, NetError, NodeId, NodeRt, PortReq, RecvError,
};
use crate::tasks::{TaskId, Tasks};
use crate::time::SimTime;

/// Frame kinds on the wire.
const FRAME_MSG: u8 = 0;
const FRAME_UNREACH: u8 = 1;

/// Bytes of a frame's header: kind, payload length, source node, source
/// port, destination port, two reserved.
const HEADER: usize = 15;

/// A longer payload is taken for corruption and ends its stream.
const MAX_PAYLOAD: usize = 64 * 1024 * 1024;

/// Reconnect attempts per send before giving up on the peer.
const RECONNECT_ATTEMPTS: u32 = 4;

/// Backoff between reconnect attempts at an unresponsive peer: jittered
/// exponential, tuned tight for loopback round-trips.
const RECONNECT_POLICY: RetryPolicy = RetryPolicy {
    base: Duration::from_millis(5),
    cap: Duration::from_millis(50),
};

/// How long a stream's unsent bytes may sit without one of them going
/// out before the stream counts as broken; the next frame for it finds
/// out, resets it and dials. Loops read their streams whenever they
/// wait, so only a wedged peer gets here.
const WRITE_STALL: Duration = Duration::from_secs(5);

/// Poller tokens of the loop's eventfd and listener; a stream's token is
/// its descriptor.
const BELL: u64 = u64::MAX;
const LISTENER: u64 = u64::MAX - 1;

// ---------------------------------------------------------------------------
// Tasks: closures on pooled stacks, run by their node's loop.

type Job = Box<dyn FnOnce() + Send>;

/// Names a task from any thread: its node, and its number there.
#[derive(Clone)]
struct TaskRef {
    node: Arc<NodeCore>,
    id: TaskId,
}

impl TaskRef {
    fn is(&self, other: &TaskRef) -> bool {
        self.id == other.id && Arc::ptr_eq(&self.node, &other.node)
    }
}

/// The running task's own state, which its switches save and restore.
struct Current {
    task: TaskRef,
    stack: Handle,
    /// Its group, homed on its node.
    group: Option<u64>,
}

thread_local! {
    /// The task running on this thread; `None` on a loop between tasks
    /// and on threads that belong to no node.
    static CURRENT: RefCell<Option<Current>> = const { RefCell::new(None) };
    /// What only the loop thread of a node touches.
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

fn current<R>(f: impl FnOnce(&Current) -> R) -> Option<R> {
    CURRENT.with(|c| c.borrow().as_ref().map(f))
}

/// Whether the calling task's group has been killed, as its node's table
/// says. Takes the table's lock, so no caller may hold an endpoint's
/// mailbox lock: `serve` takes one under the table's.
fn group_killed() -> bool {
    current(|c| c.group.is_some_and(|g| c.task.node.ports.lock().killed(g))) == Some(true)
}

/// Unwinds the calling task if its group has been killed: the explicit
/// cancellation point, also reachable through [`NodeRt::cancelled`].
fn check_killed() {
    if group_killed() {
        panic::resume_unwind(Box::new(KillSignal));
    }
}

/// A task may wait, and so may a thread that is no loop; a loop between
/// two tasks may not.
fn may_wait() -> bool {
    current(|_| ()).is_some() || LOCAL.with(|l| l.borrow().is_none())
}

fn with_local<R>(f: impl FnOnce(&mut Local) -> R) -> R {
    LOCAL.with(|l| f(l.borrow_mut().as_mut().expect("on a node's loop")))
}

/// Suspends the running context in `from` and resumes `to` — a task and
/// its loop, either way round — carrying [`Current`] with the context, as
/// the simulator's switch carries its pid.
fn switch(from: Handle, to: Handle) {
    let current = CURRENT.take();
    coro::switch(from, to);
    CURRENT.set(current);
}

/// Parks the running task in a new wait in its loop's table until a wake
/// names the wait or `deadline` passes. `register` gets the wait's
/// generation, for the wakes it arranges to name, before the task parks.
fn suspend(deadline: Option<Instant>, register: impl FnOnce(u64)) {
    let (node, id, me) =
        current(|c| (Arc::clone(&c.task.node), c.task.id, c.stack)).expect("only a task waits");
    let timer = deadline.map(|at| (at, id));
    register(with_local(|l| l.tasks.block(id, timer)));
    switch(me, node.sched.handle());
}

/// Sleeps `d`, unwinding early if the calling task's group is killed
/// meanwhile. Threads that belong to no node sleep plainly.
fn cancellable_sleep(d: Duration) {
    if current(|_| ()).is_none() {
        return std::thread::sleep(d);
    }
    let deadline = Instant::now() + d;
    loop {
        check_killed();
        if Instant::now() >= deadline {
            return;
        }
        suspend(Some(deadline), |_| {});
    }
}

/// The body of every task, on its stack: runs `f` as a member of
/// `group`, which counted it already, swallows the kill unwind, journals
/// any other panic under the task's name (the hook printed it), as the
/// simulator does, and leaves the group.
fn run_task(task: TaskRef, stack: Handle, name: &str, group: Option<u64>, f: Job) {
    let (node, id) = (Arc::clone(&task.node), task.id);
    CURRENT.set(Some(Current { task, stack, group }));
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        check_killed();
        f()
    }));
    CURRENT.take();
    node.leave(group, id);
    if let Err(payload) = result {
        if !payload.is::<KillSignal>() {
            let msg = crate::kernel::panic_message(&*payload);
            node.journal_as("proc", format!("panic in '{name}': {msg}"));
        }
    }
}

/// A stream the loop reads: who is at the other end, once known, and
/// the start of a frame not yet whole.
struct Reading {
    conn: Arc<Conn>,
    peer: Option<NodeId>,
    partial: Vec<u8>,
}

struct Local {
    poller: Poller,
    /// The loop's tasks, each on its stack, and their waits' deadlines.
    tasks: Tasks<(Instant, TaskId), Stack>,
    stacks: StackPool,
    streams: HashMap<u64, Reading>,
    /// Where a read lands before its bytes are framed.
    scratch: Vec<u8>,
}

/// What other threads — and the loop's own tasks — hand the loop.
enum Post {
    /// A task to start, its id already counted into its group.
    Spawn(Arc<str>, Option<u64>, TaskId, Job),
    /// A wake for the wait a generation names, or for any (a kill).
    Wake(TaskId, Option<u64>),
    /// A stream to read, and its peer if the node dialled it.
    Stream(Arc<Conn>, Option<NodeId>),
    /// A stream a sender left unsent bytes in: the loop writes them out.
    Flush(Arc<Conn>),
    /// The node stopped: the loop looks whether it may exit.
    Stop,
}

#[derive(Default)]
struct Inbox {
    posts: Vec<Post>,
    /// Set while the loop blocks for readiness: a post rings the bell.
    parked: bool,
    /// The loop's eventfd; `None` once the loop thread has exited.
    bell: Option<File>,
}

/// The loop: runs what was posted and what became runnable, fires the due
/// timers, then waits for readiness; exits once the node has stopped and
/// its last task ended.
fn run_loop(node: Arc<NodeCore>, poller: Poller) {
    LOCAL.with(|l| {
        *l.borrow_mut() = Some(Local {
            poller,
            tasks: Tasks::default(),
            stacks: StackPool::default(),
            streams: HashMap::new(),
            scratch: vec![0; 64 * 1024],
        })
    });
    let mut ready = Vec::new();
    loop {
        let posts = std::mem::take(&mut node.inbox.lock().posts);
        for post in posts {
            node.handle(post);
        }
        while let Some(id) = with_local(|l| l.tasks.pop_runnable()) {
            node.resume(id);
        }
        // Nothing is queued to run now; a due deadline queues its task.
        let (woken, idle, next) = with_local(|l| {
            let now = Instant::now();
            let mut woken = false;
            while l.tasks.time_out(|&(at, _)| at <= now) {
                woken = true;
            }
            let next = l.tasks.first_timer().map(|(at, _)| at);
            (woken, l.tasks.is_empty(), next)
        });
        if woken {
            continue;
        }
        {
            let mut inbox = node.inbox.lock();
            if !inbox.posts.is_empty() {
                continue;
            }
            if idle && node.stopped.load(Ordering::SeqCst) {
                inbox.bell = None;
                break;
            }
            inbox.parked = true;
        }
        let timeout = next.map(|at| at.saturating_duration_since(Instant::now()));
        with_local(|l| l.poller.wait(timeout, &mut ready)).expect("a wait on the loop's own set");
        node.inbox.lock().parked = false;
        for &poll::Ready { token, read, write } in &ready {
            match token {
                BELL => {
                    if let Some(bell) = &node.inbox.lock().bell {
                        poll::clear(bell);
                    }
                }
                LISTENER => node.accept(),
                fd => {
                    if write {
                        node.flush_stream(fd);
                    }
                    if read {
                        node.read_stream(fd);
                    }
                }
            }
        }
    }
    // The epoll set and the idle stacks go with the loop's state, the
    // streams with the node's registry.
    LOCAL.with(|l| l.borrow_mut().take());
    node.conns.lock().clear();
    node.streams.lock().clear();
}

// ---------------------------------------------------------------------------
// Waiting: mailboxes and sync objects, for tasks and threads alike.

/// A state under a lock and who waits for it to change: tasks by
/// reference, threads that belong to no node on the condvar.
struct Waitable<S> {
    state: Mutex<Waiting<S>>,
    cv: Condvar,
}

struct Waiting<S> {
    now: S,
    /// Each with the wait it is blocked in.
    tasks: Vec<(TaskRef, u64)>,
}

impl<S> Waitable<S> {
    fn new(now: S) -> Waitable<S> {
        let tasks = Vec::new();
        Waitable {
            state: Mutex::new(Waiting { now, tasks }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Waiting<S>> {
        self.state.lock()
    }

    /// Releases the lock held over a change, then wakes every waiter.
    fn notify(&self, mut w: MutexGuard<'_, Waiting<S>>) {
        let tasks = std::mem::take(&mut w.tasks);
        drop(w);
        for (task, gen) in tasks {
            task.node.post(Post::Wake(task.id, Some(gen)));
        }
        self.cv.notify_all();
    }

    /// Waits until `ready` finds what it wants, or `deadline` passes
    /// (`None`). A task suspends, and unwinds if its group is killed
    /// meanwhile, checked with the state's lock released; a thread blocks
    /// on the condvar.
    fn wait<T>(
        &self,
        deadline: Option<Instant>,
        mut ready: impl FnMut(&mut S) -> Option<T>,
    ) -> Option<T> {
        let me = current(|c| c.task.clone());
        check_killed();
        let mut w = self.lock();
        loop {
            if let Some(found) = ready(&mut w.now) {
                return Some(found);
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return None;
            }
            match (&me, deadline) {
                (Some(task), _) => {
                    suspend(deadline, |gen| {
                        w.tasks.push((task.clone(), gen));
                        drop(w);
                    });
                    self.lock().tasks.retain(|(t, _)| !t.is(task));
                    check_killed();
                    w = self.lock();
                }
                (None, Some(d)) => {
                    let _ = self.cv.wait_until(&mut w, d);
                }
                (None, None) => self.cv.wait(&mut w),
            }
        }
    }
}

/// Where the frames for an endpoint that `recv`s wait for it; `closed`
/// once the endpoint closes or its owning group is killed.
struct Mailbox(Waitable<(VecDeque<Landing>, bool)>);

impl Mailbox {
    fn new() -> Arc<Mailbox> {
        Arc::new(Mailbox(Waitable::new((VecDeque::new(), false))))
    }

    fn push(&self, item: Landing) {
        let mut w = self.0.lock();
        w.now.0.push_back(item);
        self.0.notify(w);
    }

    /// Closes the mailbox and wakes its receivers.
    fn close(&self) {
        let mut w = self.0.lock();
        w.now.1 = true;
        self.0.notify(w);
    }

    /// The one blocking receive: honours the kill, the close and the
    /// deadline, in that order, but sees what is queued before the
    /// deadline, so a zero-timeout poll still gets it.
    fn pop(&self, timeout: Option<Duration>) -> Landing {
        let deadline = timeout.map(|t| Instant::now() + t);
        self.0
            .wait(deadline, |(queue, closed)| match closed {
                true => Some(Err(RecvError::Closed)),
                false => queue.pop_front(),
            })
            .unwrap_or(Err(RecvError::TimedOut))
    }
}

// ---------------------------------------------------------------------------
// Link faults: partitions, impairments, reset storms.

/// Symmetric-pair key: faults apply to the unordered node pair.
fn pair_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a.0 <= b.0 {
        (a, b)
    } else {
        (b, a)
    }
}

#[derive(Default)]
struct FaultTable {
    /// Partitioned pairs: all frames between them vanish.
    cut: HashSet<(NodeId, NodeId)>,
    /// Impaired pairs: loss/dup/reorder/latency per frame.
    impair: HashMap<(NodeId, NodeId), LinkImpairment>,
    /// Pairs under a connection-reset storm: every send first tears
    /// down the cached connection, forcing a visible reset + reconnect.
    storms: HashSet<(NodeId, NodeId)>,
}

impl FaultTable {
    fn any(&self) -> bool {
        !self.cut.is_empty() || !self.impair.is_empty() || !self.storms.is_empty()
    }
}

/// What the fault table says to do with one frame.
#[derive(Default)]
struct LinkVerdict {
    drop: bool,
    dup: bool,
    delay: Option<Duration>,
    reset: bool,
}
// ---------------------------------------------------------------------------
// The network registry.

/// Registry mapping node ids to TCP socket addresses, shared by all nodes
/// of one logical cluster (typically within one OS process, but the
/// registry can be pre-populated for multi-process setups). Also owns
/// the cluster-wide link-fault table and the `real.net.*` counters.
pub struct RealNet {
    epoch: Instant,
    directory: Mutex<HashMap<NodeId, SocketAddr>>,
    nodes: Mutex<HashMap<NodeId, Weak<RealNode>>>,
    next_node: AtomicU32,
    next_group: AtomicU64,
    counters: Mutex<std::collections::BTreeMap<String, u64>>,
    /// Frames placed in an endpoint's mailbox (`real.net.frames_queued`
    /// in [`counters`](RealNet::counters)). Its own atomic: it is bumped
    /// on the path of every received frame, where the counter map's lock
    /// and name lookup would show.
    frames_queued: AtomicU64,
    /// Raw per-observation samples (e.g. kill latencies), kept alongside
    /// the summed counters so campaigns can build histograms/percentiles.
    samples: Mutex<std::collections::BTreeMap<String, Vec<u64>>>,
    faults: Mutex<FaultTable>,
    /// True only while any fault is installed: the fault-free send path
    /// pays exactly this one relaxed load.
    any_faults: AtomicBool,
}

impl RealNet {
    /// Creates an empty network registry.
    pub fn new() -> Arc<RealNet> {
        Arc::new(RealNet {
            epoch: Instant::now(),
            directory: Mutex::new(HashMap::new()),
            nodes: Mutex::new(HashMap::new()),
            next_node: AtomicU32::new(1),
            next_group: AtomicU64::new(1),
            counters: Mutex::new(Default::default()),
            frames_queued: AtomicU64::new(0),
            samples: Mutex::new(Default::default()),
            faults: Mutex::new(FaultTable::default()),
            any_faults: AtomicBool::new(false),
        })
    }

    /// Creates a node: binds a listener on an OS-assigned loopback port
    /// and starts the node's loop thread.
    pub fn add_node(self: &Arc<Self>, name: &str) -> std::io::Result<Arc<RealNode>> {
        let id = NodeId(self.next_node.fetch_add(1, Ordering::Relaxed));
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let core = Arc::new(NodeCore {
            net: Arc::clone(self),
            id,
            ext: Arc::new(crate::rt::Extensions::new()),
            stopped: AtomicBool::new(false),
            ports: Mutex::new(Ports::default()),
            last_task: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            streams: Mutex::new(Vec::new()),
            listener: Mutex::new(Some(listener)),
            sched: coro::Context::new(),
            inbox: Mutex::new(Inbox::default()),
        });
        core.start_loop(name)?;
        self.directory.lock().insert(id, local);
        let node = Arc::new(RealNode {
            name: name.to_string(),
            core,
        });
        self.nodes.lock().insert(id, Arc::downgrade(&node));
        Ok(node)
    }

    /// Looks up the socket address registered for a node.
    pub fn lookup(&self, id: NodeId) -> Option<SocketAddr> {
        self.directory.lock().get(&id).copied()
    }

    /// The live [`RealNode`] handle for `id`, if the node still exists.
    pub fn node_handle(&self, id: NodeId) -> Option<Arc<RealNode>> {
        self.nodes.lock().get(&id).and_then(Weak::upgrade)
    }

    /// Snapshot of all counters recorded through node runtimes.
    pub fn counters(&self) -> std::collections::BTreeMap<String, u64> {
        let mut all = self.counters.lock().clone();
        let queued = self.frames_queued.load(Ordering::Relaxed);
        all.insert("real.net.frames_queued".to_string(), queued);
        all
    }

    /// Adds `delta` to the named cluster-wide counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut c = self.counters.lock();
        match c.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                c.insert(name.to_string(), delta);
            }
        }
    }

    /// Records one raw observation under `name` (histogram feed).
    pub fn observe(&self, name: &str, v: u64) {
        self.samples
            .lock()
            .entry(name.to_string())
            .or_default()
            .push(v);
    }

    /// The raw observations recorded under `name`, in arrival order.
    pub fn samples(&self, name: &str) -> Vec<u64> {
        self.samples.lock().get(name).cloned().unwrap_or_default()
    }

    /// Time since the network epoch — the clock every node on this
    /// network stamps with.
    fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    /// Appends to `node`'s flight recorder, if the node is still alive.
    /// Transport-level code (resets, reconnects, kills) records through
    /// this; everything above the runtime uses `Journal::of` directly.
    pub(crate) fn journal(&self, node: NodeId, category: &'static str, detail: String) {
        if let Some(n) = self.node_handle(node) {
            let j = n
                .core
                .ext
                .get_or_init(|| crate::journal::Journal::new(node));
            j.record(self.now(), category, detail);
        }
    }

    fn refresh_any_faults(&self, t: &FaultTable) {
        self.any_faults.store(t.any(), Ordering::SeqCst);
    }

    /// Starts or stops a connection-reset storm on `a — b`: while on,
    /// every send between the pair first resets the cached connection.
    pub fn set_reset_storm(&self, a: NodeId, b: NodeId, on: bool) {
        let mut t = self.faults.lock();
        if on {
            t.storms.insert(pair_key(a, b));
        } else {
            t.storms.remove(&pair_key(a, b));
        }
        self.refresh_any_faults(&t);
    }

    /// Rolls the dice for one frame on `a — b`. Only called while some
    /// fault is installed.
    fn link_verdict(&self, a: NodeId, b: NodeId) -> LinkVerdict {
        let t = self.faults.lock();
        let key = pair_key(a, b);
        let mut v = LinkVerdict::default();
        if t.cut.contains(&key) {
            v.drop = true;
            return v;
        }
        v.reset = t.storms.contains(&key);
        if let Some(imp) = t.impair.get(&key) {
            let mut rng = rand::rng();
            if rng.random::<f64>() < imp.loss {
                v.drop = true;
                return v;
            }
            v.dup = rng.random::<f64>() < imp.dup;
            let mut extra = imp.extra_latency;
            if rng.random::<f64>() < imp.reorder {
                // Enough spread to overtake frames sent just after.
                extra += Duration::from_micros(rng.random_range(0..3_000));
            }
            if extra > Duration::ZERO {
                v.delay = Some(extra);
            }
        }
        v
    }
}

/// A node's open ports. An unserved one's frames queue in its mailbox for
/// the endpoint's next `recv`; the loop starts a task for every landing
/// at a served one, so its inline test only sorts what queued before the
/// serve.
type Ports = PortTable<Arc<Mailbox>>;

/// Lets go of closed ports, in the order given, once the table's lock is
/// released: receives return `Closed` from now on, and a served port's
/// handler, which may hold an endpoint of the node, drops. The node's
/// streams are not a port's to close: the rest of the node sends over
/// them.
fn release(closed: impl IntoIterator<Item = (Addr, Port<Arc<Mailbox>>)>) {
    for (_, port) in closed {
        port.rx.close();
    }
}

/// Parses every whole frame at the front of `buf` into `frames` — each
/// its source node, its destination port and what lands there — and
/// says how many bytes they took; `None` if one is corrupt.
fn parse_frames(buf: &[u8], frames: &mut Vec<(NodeId, u16, Landing)>) -> Option<usize> {
    let mut at = 0;
    while buf.len() - at >= HEADER {
        let h = &buf[at..at + HEADER];
        let len = u32::from_le_bytes([h[1], h[2], h[3], h[4]]) as usize;
        if len > MAX_PAYLOAD {
            return None;
        }
        if buf.len() - at - HEADER < len {
            break;
        }
        let src = NodeId(u32::from_le_bytes([h[5], h[6], h[7], h[8]]));
        let from = Addr::new(src, u16::from_le_bytes([h[9], h[10]]));
        let landing = match h[0] {
            FRAME_MSG => Ok((from, Bytes::copy_from_slice(&buf[at + HEADER..][..len]))),
            _ => Err(RecvError::Unreachable(from)),
        };
        frames.push((src, u16::from_le_bytes([h[11], h[12]]), landing));
        at += HEADER + len;
    }
    Some(at)
}

/// A complete wire frame as one buffer, so it goes out as one `write`.
fn frame_bytes(
    kind: u8,
    src_node: NodeId,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER + payload.len());
    buf.push(kind);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&src_node.0.to_le_bytes());
    buf.extend_from_slice(&src_port.to_le_bytes());
    buf.extend_from_slice(&dst_port.to_le_bytes());
    buf.extend_from_slice(&[0, 0]); // reserved
    buf.extend_from_slice(payload);
    buf
}

/// One of a node's streams, and the bytes of its frames the socket has
/// not taken yet.
struct Conn {
    stream: TcpStream,
    out: Mutex<Unsent>,
    /// Whether a frame has come in on it: set by the loop, read by
    /// [`NodeCore::offer_stream`].
    heard: AtomicBool,
}

#[derive(Default)]
struct Unsent {
    bytes: Vec<u8>,
    /// When the last of them went out, or the first came in.
    moved: Option<Instant>,
    /// Whether the loop watches the stream for room.
    watched: bool,
}

/// Writes as much of `buf` as `stream` takes without blocking; how much.
fn write_some(mut stream: &TcpStream, buf: &[u8]) -> io::Result<usize> {
    let mut at = 0;
    while at < buf.len() {
        match stream.write(&buf[at..]) {
            Ok(n) => at += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(at)
}

impl Conn {
    /// Writes `frame` behind the stream's unsent bytes, leaving what the
    /// socket does not take with them; whether it left the first of them
    /// (the loop must be told). A stream whose unsent bytes have not
    /// moved for [`WRITE_STALL`] is broken.
    fn send(&self, frame: &[u8]) -> io::Result<bool> {
        let mut out = self.out.lock();
        if !out.bytes.is_empty() {
            if out.moved.is_some_and(|t| t.elapsed() > WRITE_STALL) {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "peer reads nothing",
                ));
            }
            out.bytes.extend_from_slice(frame);
            return Ok(false);
        }
        let n = write_some(&self.stream, frame)?;
        if n == frame.len() {
            return Ok(false);
        }
        out.bytes.extend_from_slice(&frame[n..]);
        out.moved = Some(Instant::now());
        Ok(true)
    }
}

type PeerSlot = Arc<Mutex<Option<Arc<Conn>>>>;

/// What a node's handle, endpoints, tasks and loop share: its ports, its
/// streams and its loop's inbox.
///
/// `conns` maps each peer to its own lock slot, holding the stream this
/// node writes to that peer on. The map lock is held only long enough to
/// find or insert the slot; the `connect` and the frame write happen
/// under that peer's lock alone, and the back-off between reconnect
/// attempts under no lock at all — so one dead peer stalls neither sends
/// to the others nor, beyond its own refused `connect`s, the other
/// senders to itself.
struct NodeCore {
    net: Arc<RealNet>,
    id: NodeId,
    /// The node's extension map, for its flight recorder.
    ext: Arc<crate::rt::Extensions>,
    /// Set by [`RealNode::stop`]: no stream is opened or written after.
    stopped: AtomicBool,
    /// The node's ports and the records of the groups homed here.
    ports: Mutex<Ports>,
    /// The id of the last task spawned: a task is counted into its group
    /// by id before its loop starts it.
    last_task: AtomicU64,
    conns: Mutex<HashMap<NodeId, PeerSlot>>,
    /// Every stream the node holds, so that [`RealNode::stop`] can shut
    /// them all.
    streams: Mutex<Vec<Arc<Conn>>>,
    /// Taken and closed by [`RealNode::stop`].
    listener: Mutex<Option<TcpListener>>,
    /// The loop's own context: where a task that waits switches to.
    sched: coro::Context,
    inbox: Mutex<Inbox>,
}

impl NodeCore {
    /// Appends to the node's flight recorder. Not through
    /// [`RealNet::journal`]: that upgrades the node handle, and a loop
    /// must never become the node's last owner.
    fn journal(&self, detail: String) {
        self.journal_as("real.net", detail);
    }

    fn journal_as(&self, category: &'static str, detail: String) {
        self.ext
            .get_or_init(|| crate::journal::Journal::new(self.id))
            .record(self.net.now(), category, detail);
    }

    /// Starts the node's loop thread, named `<name>-loop`.
    fn start_loop(self: &Arc<Self>, name: &str) -> io::Result<()> {
        let poller = Poller::new()?;
        let bell = poll::new_bell()?;
        poller.add(bell.as_raw_fd(), BELL)?;
        if let Some(listener) = self.listener.lock().as_ref() {
            poller.add(listener.as_raw_fd(), LISTENER)?;
        }
        self.inbox.lock().bell = Some(bell);
        let node = Arc::clone(self);
        std::thread::Builder::new()
            .name(format!("{name}-loop"))
            .spawn(move || run_loop(node, poller))?;
        self.net.counter_add("real.net.threads_spawned", 1);
        Ok(())
    }

    /// Hands the loop `post`, ringing its bell if it blocks. After the
    /// loop has exited — the node stopped and its last task ended —
    /// nothing runs what is posted: a spawn is journalled as failed.
    fn post(self: &Arc<Self>, post: Post) {
        let mut inbox = self.inbox.lock();
        let inbox = &mut *inbox;
        match (&inbox.bell, post) {
            (None, Post::Spawn(name, group, id, _)) => {
                self.spawn_failed(&name, group, id, "node stopped");
            }
            (None, _) => {}
            (Some(bell), post) => {
                inbox.posts.push(post);
                if std::mem::take(&mut inbox.parked) {
                    poll::ring(bell);
                }
            }
        }
    }

    fn next_task(&self) -> TaskId {
        self.last_task.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Takes task `id` out of its group, if it has one. The last member
    /// out of a killed group stamps the kill's latency.
    fn leave(&self, group: Option<u64>, id: TaskId) {
        let Some(group) = group else { return };
        let killed_at = self.ports.lock().leave(group, id);
        if let Some(at) = killed_at {
            let latency_us = self.net.now().as_micros().saturating_sub(at).max(1);
            self.net.counter_add("real.net.kills", 1);
            // Sum of per-kill latencies; campaigns assert it nonzero and
            // divide by `real.net.kills` for the average.
            self.net.counter_add("real.net.kill_latency_us", latency_us);
            // The raw sample feeds the kill-latency histogram (E19).
            self.net.observe("real.net.kill_latency_us", latency_us);
            self.journal_as("proc", format!("group {group} dead after {latency_us}us"));
        }
    }

    /// Ends what a kill returned: closes the ports, then wakes the members
    /// to unwind where they wait; one not started yet unwinds as it starts.
    fn end(self: &Arc<Self>, (members, closed): Killed<Arc<Mailbox>>) {
        release(closed);
        for id in members {
            self.post(Post::Wake(id, None));
        }
    }

    /// Gives up a task its group counted already.
    fn spawn_failed(&self, name: &str, group: Option<u64>, id: TaskId, why: &str) {
        self.leave(group, id);
        self.net.counter_add("real.net.spawn_failed", 1);
        self.journal_as("proc", format!("spawn of '{name}' failed: {why}"));
    }

    fn handle(self: &Arc<Self>, post: Post) {
        match post {
            Post::Spawn(name, group, id, f) => {
                if self.new_task(id, &name, group, f) {
                    with_local(|l| l.tasks.queue(id));
                }
            }
            Post::Wake(id, gen) => {
                with_local(|l| l.tasks.wake(id, gen));
            }
            Post::Stream(conn, peer) => self.watch_stream(conn, peer),
            Post::Flush(conn) => self.flush(&conn),
            Post::Stop => {}
        }
    }

    /// Primes a stack on this loop to run `f` as task `id` of `group`,
    /// which has counted it already, and adds the task to the loop's
    /// table, not queued; `false` if no stack could be mapped.
    fn new_task(self: &Arc<Self>, id: TaskId, name: &Arc<str>, group: Option<u64>, f: Job) -> bool {
        let stack = match with_local(|l| l.stacks.take()) {
            Ok((stack, _)) => stack,
            Err(e) => {
                self.spawn_failed(name, group, id, &e.to_string());
                return false;
            }
        };
        let node = Arc::clone(self);
        let (handle, name, sched) = (stack.handle(), Arc::clone(name), self.sched.handle());
        stack.prime(move || {
            run_task(TaskRef { node, id }, handle, &name, group, f);
            sched
        });
        with_local(|l| l.tasks.insert(id, stack));
        true
    }

    /// Runs task `id` until it waits or ends, if it is ready to run. A
    /// task switches back to its loop blocked in a wait, or still running
    /// at its end.
    fn resume(self: &Arc<Self>, id: TaskId) {
        let to = with_local(|l| l.tasks.run(id).map(|stack| stack.handle()));
        let Some(to) = to else { return };
        switch(self.sched.handle(), to);
        with_local(|l| {
            if l.tasks.running(id) {
                let stack = l.tasks.remove(id).expect("just seen");
                l.stacks.give(stack);
            }
        });
    }

    /// Accepts every stream the listener holds. Who dialled is in the
    /// first frame, not in the address, and each stream's is read at
    /// once, ahead of the other streams ready now: of two dials that
    /// cross, the peer's first frame on its own then comes before
    /// anything it sends later on this node's (see `offer_stream`).
    fn accept(self: &Arc<Self>) {
        loop {
            let accepted = match self.listener.lock().as_ref() {
                Some(listener) => listener.accept(),
                None => return,
            };
            let Ok((stream, _)) = accepted else { return };
            if let Ok(conn) = self.adopt_stream(stream) {
                let fd = conn.stream.as_raw_fd() as u64;
                self.watch_stream(conn, None);
                self.read_stream(fd);
            }
        }
    }

    /// Has the loop read `conn` to its end; `peer` if the node dialled it.
    fn watch_stream(&self, conn: Arc<Conn>, peer: Option<NodeId>) {
        with_local(|l| {
            let fd = conn.stream.as_raw_fd();
            if l.poller.add(fd, fd as u64).is_ok() {
                let partial = Vec::new();
                let reading = Reading {
                    conn,
                    peer,
                    partial,
                };
                l.streams.insert(fd as u64, reading);
            }
        });
    }

    /// Reads what the stream with descriptor `fd` has — the poller says it
    /// has something, so the read does not block — and delivers every
    /// whole frame.
    fn read_stream(self: &Arc<Self>, fd: u64) {
        let mut frames = Vec::new();
        let open = with_local(|l| {
            let Local {
                streams, scratch, ..
            } = l;
            let Some(r) = streams.get_mut(&fd) else {
                return true;
            };
            let n = match (&r.conn.stream).read(scratch) {
                Ok(n) => n,
                Err(e) => {
                    let kind = e.kind();
                    return kind == io::ErrorKind::WouldBlock || kind == io::ErrorKind::Interrupted;
                }
            };
            r.partial.extend_from_slice(&scratch[..n]);
            let whole = parse_frames(&r.partial, &mut frames);
            r.partial.drain(..whole.unwrap_or(0));
            if let (None, Some(&(peer, ..))) = (r.peer, frames.first()) {
                // The first frame on an accepted stream names the peer.
                r.peer = Some(peer);
                self.offer_stream(peer, &r.conn);
            }
            if !frames.is_empty() && !r.conn.heard.load(Ordering::Relaxed) {
                r.conn.heard.store(true, Ordering::Relaxed);
            }
            n > 0 && whole.is_some()
        });
        for (_, port, landing) in frames {
            self.deliver(port, landing);
        }
        if !open {
            // The end, an error, corruption or `stop`: nothing written to
            // the stream arrives any more.
            with_local(|l| {
                let Some(r) = l.streams.remove(&fd) else {
                    return;
                };
                let _ = l.poller.remove(r.conn.stream.as_raw_fd());
                if let Some(peer) = r.peer {
                    self.forget_stream(peer, &r.conn);
                }
                self.streams.lock().retain(|s| !Arc::ptr_eq(s, &r.conn));
            });
        }
    }

    /// The stream with descriptor `fd` has room: writes its unsent bytes.
    fn flush_stream(&self, fd: u64) {
        if let Some(conn) = with_local(|l| l.streams.get(&fd).map(|r| Arc::clone(&r.conn))) {
            self.flush(&conn);
        }
    }

    /// Writes out as much of `conn`'s unsent bytes as its socket takes,
    /// and has the loop watch it for room while any are left. A failed
    /// write is a reset: the stream is shut down, and the loop reads its
    /// end.
    fn flush(&self, conn: &Conn) {
        let mut out = conn.out.lock();
        match write_some(&conn.stream, &out.bytes) {
            Ok(0) => {}
            Ok(n) => {
                out.bytes.drain(..n);
                out.moved = Some(Instant::now());
            }
            Err(e) => {
                out.bytes = Vec::new();
                let _ = conn.stream.shutdown(Shutdown::Both);
                self.net.counter_add("real.net.resets", 1);
                self.journal(format!("reset on a conn with unsent bytes: {e}"));
            }
        }
        let want = !out.bytes.is_empty();
        if want != out.watched {
            let fd = conn.stream.as_raw_fd();
            out.watched =
                with_local(|l| l.poller.watch_writable(fd, fd as u64, want)).is_ok() && want;
        }
    }

    /// Hands a frame to its port: its mailbox, or its handler's task,
    /// started here, in the port's group, and run until it first waits.
    /// The task joins the group under the lock that finds the port open
    /// (`PortTable::join_handler`), so no kill comes between.
    fn deliver(self: &Arc<Self>, port: u16, landing: Landing) {
        let addr = Addr::new(self.id, port);
        let entry = {
            let mut ports = self.ports.lock();
            match ports.get_mut(&addr) {
                Some(p) if p.served.is_none() => Some(Err(Arc::clone(&p.rx))),
                Some(_) => {
                    let id = self.next_task();
                    ports.join_handler(&addr, id).map(|served| Ok((served, id)))
                }
                None => None,
            }
        };
        match (entry, landing) {
            (Some(Err(mailbox)), landing) => {
                self.net.frames_queued.fetch_add(1, Ordering::Relaxed);
                mailbox.push(landing);
            }
            (Some(Ok((served, id))), landing) => {
                let job = served.job(landing);
                if self.new_task(id, &served.task, served.group, job) {
                    self.resume(id);
                }
            }
            (None, Ok((from, _))) => {
                // Closed port on a live node: bounce, as the sim does —
                // over the node's stream to the sender, like any frame
                // (so a cut or lossy link drops bounces too).
                let _ = self.send_bytes(port, from, FRAME_UNREACH, &[]);
            }
            (None, Err(_)) => {}
        }
    }

    // -- The senders' side: any thread. -------------------------------------

    /// Starts `f` as a task in `group` on the node's loop, unless the
    /// group has been killed.
    fn spawn_task(self: &Arc<Self>, name: &str, group: Option<u64>, f: Job) {
        let id = self.next_task();
        if group.is_none_or(|g| self.ports.lock().join(self.id, g, id)) {
            self.post(Post::Spawn(Arc::from(name), group, id, f));
        }
    }

    fn slot(&self, peer: NodeId) -> PeerSlot {
        Arc::clone(self.conns.lock().entry(peer).or_default())
    }

    /// Makes `stream` one of the node's own: sets it up for small frames
    /// both ways and for sends that never block, and registers it for
    /// [`RealNode::stop`]. The caller has the loop read it.
    fn adopt_stream(&self, stream: TcpStream) -> io::Result<Arc<Conn>> {
        stream.set_nodelay(true).ok();
        stream.set_nonblocking(true)?;
        let out = Mutex::new(Unsent::default());
        let heard = AtomicBool::new(false);
        let stream = Arc::new(Conn { stream, out, heard });
        {
            let mut streams = self.streams.lock();
            // `stop` raises the flag before it takes this lock, so either
            // it finds the stream here or we see the flag.
            if self.stopped.load(Ordering::SeqCst) {
                return Err(io::Error::other("node stopped"));
            }
            streams.push(Arc::clone(&stream));
        }
        Ok(stream)
    }

    /// The first frame on an accepted stream named `peer`: this node's
    /// frames to `peer` go out on that stream from now on, unless the
    /// slot holds a stream this node dialled that the peer takes instead.
    /// The peer dials only when it has no stream with us, so a held
    /// stream the peer has sent on is dead — torn down at the peer, its
    /// end not yet read here — and loses. One it has not sent on is this
    /// node's own dial, crossing the peer's: of two such, the stream the
    /// lower node id dialled wins on both sides, so the two nodes keep
    /// one stream, both ways, not a one-way stream each (a reply on the
    /// stream a request came in on saves the pure ACKs). The loser stays
    /// read to its end either way.
    fn offer_stream(&self, peer: NodeId, stream: &Arc<Conn>) {
        let slot = self.slot(peer);
        let mut held = slot.lock();
        let own_dial = held
            .as_ref()
            .is_some_and(|h| !h.heard.load(Ordering::Relaxed));
        if !(own_dial && self.id < peer) {
            *held = Some(Arc::clone(stream));
        }
    }

    /// The loop is done with `stream`. If `peer`'s slot still holds it,
    /// the next frame for `peer` dials instead of vanishing into it.
    fn forget_stream(&self, peer: NodeId, stream: &Arc<Conn>) {
        let slot = self.slot(peer);
        let mut held = slot.lock();
        if !held.as_ref().is_some_and(|h| Arc::ptr_eq(h, stream)) {
            return;
        }
        *held = None;
        drop(held);
        if !self.stopped.load(Ordering::SeqCst) {
            self.net.counter_add("real.net.resets", 1);
            self.journal(format!("conn to {peer} closed by the peer"));
        }
    }

    fn send_bytes(
        self: &Arc<Self>,
        from_port: u16,
        to: Addr,
        kind: u8,
        msg: &[u8],
    ) -> Result<(), NetError> {
        let slot = self.slot(to.node);
        let frame = frame_bytes(kind, self.id, from_port, to.port, msg);
        let mut dup = false;
        // Fault shim: when the table is empty this is one relaxed load.
        if self.net.any_faults.load(Ordering::Relaxed) {
            let v = self.net.link_verdict(self.id, to.node);
            if v.drop {
                // Datagram semantics: partition and loss are silent; the
                // failure surfaces at the caller as a timeout.
                self.net.counter_add("real.net.dropped", 1);
                return Ok(());
            }
            if v.reset {
                // Reset storm: tear down the node's stream with the peer —
                // both directions of it — so both ends see a mid-stream
                // reset and must reconnect.
                if let Some(s) = slot.lock().take() {
                    let _ = s.stream.shutdown(Shutdown::Both);
                    self.net.counter_add("real.net.resets", 1);
                    self.journal(format!("reset storm: tore down conn to {}", to.node));
                }
            }
            if let Some(d) = v.delay {
                // The frame waits its delay out in a task of its own.
                let node = Arc::clone(self);
                self.spawn_task(
                    "delayed-frame",
                    None,
                    Box::new(move || {
                        cancellable_sleep(d);
                        let _ = node.write_frame(&node.slot(to.node), to, &frame, v.dup);
                    }),
                );
                self.net.counter_add("real.net.delayed", 1);
                return Ok(());
            }
            dup = v.dup;
        }
        self.write_frame(&slot, to, &frame, dup)
    }

    /// Writes `frame` into the node's stream with `to`, dialling when
    /// there is none: [`RECONNECT_ATTEMPTS`] attempts, backing off
    /// between them — one attempt on the loop itself, which never waits.
    fn write_frame(
        self: &Arc<Self>,
        slot: &PeerSlot,
        to: Addr,
        frame: &[u8],
        dup: bool,
    ) -> Result<(), NetError> {
        let attempts = if may_wait() { RECONNECT_ATTEMPTS } else { 1 };
        let mut last_err = String::from("no attempt made");
        let mut ever_connected = false;
        for attempt in 0..attempts {
            if attempt > 0 {
                // Back off with jitter instead of hammering a dead peer;
                // cancellable, so a killed group's senders don't linger.
                // The slot lock is not held here: the node's other
                // senders to this peer make their own attempts meanwhile.
                cancellable_sleep(RECONNECT_POLICY.backoff(attempt - 1, rand::rng().next_u64()));
            }
            let mut conn = slot.lock();
            // Under the slot lock, so `stop` either sees this stream in
            // the node's registry or this send sees the flag.
            if self.stopped.load(Ordering::SeqCst) {
                return Err(NetError::SendFailed(format!("{} has stopped", self.id)));
            }
            if conn.is_none() {
                let sockaddr = self
                    .net
                    .lookup(to.node)
                    .ok_or_else(|| NetError::SendFailed(format!("unknown node {}", to.node)))?;
                let dialled =
                    TcpStream::connect(sockaddr).and_then(|stream| self.adopt_stream(stream));
                match dialled {
                    Ok(stream) => {
                        self.post(Post::Stream(Arc::clone(&stream), Some(to.node)));
                        self.net.counter_add("real.net.conn_open", 1);
                        // One line per stream, not per call: every reset
                        // above is followed by its reconnect here.
                        self.journal(format!("connected to {} on attempt {attempt}", to.node));
                        *conn = Some(stream);
                    }
                    Err(e) => {
                        last_err = e.to_string();
                        continue;
                    }
                }
            }
            ever_connected = true;
            match self.write_on(&mut conn, to, frame, dup) {
                Ok(()) => return Ok(()),
                Err(e) => last_err = e,
            }
        }
        if ever_connected {
            // The peer accepted at some point and the connection broke:
            // a reset-shaped transient, worth retrying at a higher layer.
            Err(NetError::SendFailed(format!(
                "connection failed after {attempts} attempts: {last_err}"
            )))
        } else {
            // Every attempt was refused outright: nothing listens there.
            Err(NetError::PeerRefused(to.node))
        }
    }

    /// Sends `frame` (twice when the link duplicates) on the stream
    /// `conn` holds, telling the loop when it left unsent bytes. A failed
    /// write on an established connection, or a stalled one, is the
    /// RST-shaped failure: the stream is shut down (its loop forgets it)
    /// and the next frame dials.
    fn write_on(
        self: &Arc<Self>,
        conn: &mut Option<Arc<Conn>>,
        to: Addr,
        frame: &[u8],
        dup: bool,
    ) -> Result<(), String> {
        let c = conn.as_ref().expect("a stream to write on");
        let mut wrote = c.send(frame);
        if dup {
            wrote = wrote.and_then(|left| Ok(c.send(frame)? || left));
        }
        if let Ok(true) = wrote {
            self.post(Post::Flush(Arc::clone(c)));
        }
        wrote.map(drop).map_err(|e| {
            if let Some(broken) = conn.take() {
                let _ = broken.stream.shutdown(Shutdown::Both);
            }
            self.net.counter_add("real.net.resets", 1);
            self.journal(format!("reset on conn to {}: {e}", to.node));
            e.to_string()
        })
    }
}

/// A host on the real runtime. Implements [`NodeRt`].
pub struct RealNode {
    name: String,
    /// The node's network, id, ports, groups, streams and loop, shared
    /// with its endpoints, tasks and group handles.
    core: Arc<NodeCore>,
}

impl RealNode {
    /// Takes the node off the network: closes the listener and every
    /// stream the node dialled or accepted, so the peers' loops see them
    /// end, and then every port still open, as the simulator's shutdown
    /// closes every endpoint — a served port's handler, and whatever it
    /// holds, drops with it. Later sends from its endpoints fail, and
    /// later opens fail with [`NetError::NodeDown`]. The node's loop
    /// thread exits once its last task has ended; a task spawned after
    /// that never runs (`real.net.spawn_failed`). Also runs when the node
    /// is dropped.
    pub fn stop(&self) {
        if self.core.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        // The listener goes first, so a peer that sees its stream end and
        // dials again is refused rather than left in the backlog.
        drop(self.core.listener.lock().take());
        for conn in self.core.streams.lock().iter() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        let closed = self.core.ports.lock().close_where(|_, _| true);
        release(closed);
        self.core.post(Post::Stop);
    }

    /// The node's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The network this node belongs to.
    pub fn net(&self) -> &Arc<RealNet> {
        &self.core.net
    }

    /// Kills every process group homed on this node — the real-runtime
    /// counterpart of the simulator's `CrashNode`. The loop stays up, so
    /// frames to the dead services bounce (host alive, process dead).
    pub fn kill_all_groups(&self) {
        let now = self.core.net.now().as_micros();
        let killed = self.core.ports.lock().kill_where(now, |_, _| true);
        self.core.end(killed);
    }

    /// The calling task's group if its home is this node: a group lives
    /// on one node, so a task spawned or an endpoint opened through
    /// another node's runtime belongs to no group.
    fn home_group(&self) -> Option<u64> {
        current(|c| c.group.filter(|_| Arc::ptr_eq(&c.task.node, &self.core))).flatten()
    }
}

impl Drop for NodeCore {
    /// Every task has ended and left its group by now, and a record goes
    /// with the last member out. Not at the loop's exit: a `spawn_group`
    /// from another thread may count a task in just before it, whose
    /// refused post then takes it out again. The loop thread is most
    /// often the last owner, where a panic fails nothing, so the count
    /// also goes to `real.net.groups_outlived`, which a test reads once
    /// its net has no other owner.
    fn drop(&mut self) {
        let left = self.ports.get_mut().groups();
        if left > 0 {
            self.net
                .counter_add("real.net.groups_outlived", left as u64);
        }
        // No second panic while a first unwinds: that would abort.
        debug_assert!(
            std::thread::panicking() || left == 0,
            "a group record outlived its node"
        );
    }
}

impl Drop for RealNode {
    fn drop(&mut self) {
        self.stop();
    }
}

impl NodeRt for RealNode {
    fn now(&self) -> SimTime {
        self.core.net.now()
    }

    fn sleep(&self, d: Duration) {
        cancellable_sleep(d);
    }

    fn spawn(&self, name: &str, f: Box<dyn FnOnce() + Send>) {
        // Like fork: the child joins the spawner's group, if it has one
        // on this node and it has not been killed.
        self.core.spawn_task(name, self.home_group(), f);
    }

    fn spawn_group(
        &self,
        name: &str,
        f: Box<dyn FnOnce() + Send>,
    ) -> Arc<dyn crate::rt::ProcGroup> {
        let id = self.core.net.next_group.fetch_add(1, Ordering::Relaxed);
        self.core.spawn_task(name, Some(id), f);
        Arc::new(RealProcGroup {
            core: Arc::clone(&self.core),
            id,
        })
    }

    fn open(&self, port: PortReq) -> Result<Arc<dyn Endpoint>, NetError> {
        // The opener's group owns the endpoint, if it lives on this node:
        // killing the group closes it.
        let group = self.home_group();
        let mut ports = self.core.ports.lock();
        // Under the lock `stop` closes the ports with, so it misses none.
        if self.core.stopped.load(Ordering::SeqCst) {
            return Err(NetError::NodeDown);
        }
        let mailbox = Mailbox::new();
        let (addr, id) = ports.open(self.core.id, port, group, Arc::clone(&mailbox))?;
        // A killed group's member opens a port closed at birth.
        let closed = ports.own(&addr, id).is_none();
        drop(ports);
        if closed {
            mailbox.close();
        }
        Ok(Arc::new(RealEndpoint {
            addr,
            id,
            mailbox,
            core: Arc::clone(&self.core),
        }))
    }

    fn node(&self) -> NodeId {
        self.core.id
    }

    fn rand_u64(&self) -> u64 {
        rand::rng().next_u64()
    }

    fn cancelled(&self) -> bool {
        group_killed()
    }

    fn make_sync(&self) -> Arc<dyn crate::sync::SyncObj> {
        Arc::new(RealSyncObj(Waitable::new(0)))
    }

    fn extensions(&self) -> Arc<crate::rt::Extensions> {
        Arc::clone(&self.core.ext)
    }
}

/// Process-group handle for the real runtime: a cooperative cancellation
/// scope over the group's tasks and endpoints, whose record is its home
/// node's table.
struct RealProcGroup {
    core: Arc<NodeCore>,
    id: u64,
}

impl crate::rt::ProcGroup for RealProcGroup {
    fn alive(&self) -> bool {
        self.core.ports.lock().alive(self.id)
    }

    fn kill(&self) {
        let now = self.core.net.now().as_micros();
        let (was_alive, killed) = {
            let mut ports = self.core.ports.lock();
            (
                ports.alive(self.id),
                ports.kill_where(now, |g, _| g == self.id),
            )
        };
        self.core.end(killed);
        if was_alive {
            // Black box: journal the kill and dump the node's journal tail.
            let (core, id) = (&self.core, self.id);
            let journal = core
                .ext
                .get_or_init(|| crate::journal::Journal::new(core.id));
            journal.record(core.net.now(), "proc", format!("group {id} killed"));
            journal.dump_tail(&format!("group {id} kill"));
        }
    }

    fn id(&self) -> u64 {
        self.id
    }
}

/// The wait/notify object of the real runtime: a generation that tasks
/// and threads wait on alike; a kill wakes a task out of the wait.
struct RealSyncObj(Waitable<u64>);

impl crate::sync::SyncObj for RealSyncObj {
    fn generation(&self) -> u64 {
        self.0.lock().now
    }

    fn wait_newer(&self, seen: u64, timeout: Option<Duration>) -> u64 {
        let deadline = timeout.map(|t| Instant::now() + t);
        self.0
            .wait(deadline, |gen| (*gen > seen).then_some(*gen))
            .unwrap_or_else(|| self.generation())
    }

    fn bump(&self) {
        let mut w = self.0.lock();
        w.now += 1;
        self.0.notify(w);
    }
}

/// A TCP-backed message endpoint. It closes when its last handle drops.
pub struct RealEndpoint {
    addr: Addr,
    /// Which open of `addr` this handle is (`Port::id`).
    id: u64,
    mailbox: Arc<Mailbox>,
    core: Arc<NodeCore>,
}

impl Endpoint for RealEndpoint {
    fn send(&self, to: Addr, msg: Bytes) -> Result<(), NetError> {
        self.core.send_bytes(self.addr.port, to, FRAME_MSG, &msg)
    }

    fn recv(&self, timeout: Option<Duration>) -> Result<(Addr, Bytes), RecvError> {
        self.mailbox.pop(timeout)
    }

    fn local(&self) -> Addr {
        self.addr
    }

    fn close(&self) {
        let closed = self.core.ports.lock().close(&self.addr, self.id);
        release(closed.map(|port| (self.addr, port)));
    }

    /// Serves the port's open (`PortTable::serve`): from now on the loop
    /// starts a task for each landing where it reads it, whatever `inline`
    /// says — that costs no hand-off. Of what reached the mailbox before,
    /// the frames `inline` does not pass start tasks of their own; the
    /// rest runs here.
    fn serve(&self, task_name: &str, handler: LandingHandler, inline: InlineTest) {
        let mut tasks = Vec::new();
        let (served, here) = {
            let mut ports = self.core.ports.lock();
            let Some((served, mailbox)) =
                ports.serve(&self.addr, self.id, task_name, handler, inline)
            else {
                return;
            };
            let queued = std::mem::take(&mut mailbox.0.lock().now.0);
            // Each task joins under the lock that served the port, as
            // `deliver`'s do.
            let here = served.split(queued, |landing| {
                let id = self.core.next_task();
                if ports.join_handler(&self.addr, id).is_some() {
                    tasks.push((id, served.job(landing)));
                }
            });
            (served, here)
        };
        for (id, job) in tasks {
            let name = Arc::clone(&served.task);
            self.core.post(Post::Spawn(name, served.group, id, job));
        }
        for landing in here {
            (served.handler)(landing);
        }
    }
}

impl Drop for RealEndpoint {
    fn drop(&mut self) {
        self.close();
    }
}

// ---------------------------------------------------------------------------
// Faults.

impl FaultRt for RealNet {
    fn journal_fault(&self, node: NodeId, detail: String) {
        self.journal(node, "fault", detail);
    }

    /// Kills every process group on the node; its loop and listener stay
    /// up, so the crash looks like every process dying on a live host.
    fn crash_node(&self, node: NodeId) {
        if let Some(n) = self.node_handle(node) {
            n.kill_all_groups();
        }
    }

    /// The host — its loop and listener — never went away; starting its
    /// software again is the driver's job, as in the simulator.
    fn restart_node(&self, _node: NodeId) {}

    /// Takes effect on the next frame either way — partitions heal
    /// mid-campaign without touching connections.
    fn set_partitioned(&self, a: NodeId, b: NodeId, on: bool) {
        let mut t = self.faults.lock();
        if on {
            t.cut.insert(pair_key(a, b));
        } else {
            t.cut.remove(&pair_key(a, b));
        }
        self.refresh_any_faults(&t);
    }

    fn set_impairment(&self, a: NodeId, b: NodeId, imp: LinkImpairment) {
        let mut t = self.faults.lock();
        t.impair.insert(pair_key(a, b), imp);
        self.refresh_any_faults(&t);
    }

    fn clear_impairment(&self, a: NodeId, b: NodeId) {
        let mut t = self.faults.lock();
        t.impair.remove(&pair_key(a, b));
        self.refresh_any_faults(&t);
    }
}

/// The wall-clock wait of [`FaultPlan::run`](crate::FaultPlan::run):
/// sleeps the calling thread until the plan time it is given, read as a
/// wall duration from this call.
pub fn wall_clock() -> impl FnMut(SimTime) {
    let start = Instant::now();
    move |at| {
        let due = Duration::from_micros(at.as_micros());
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
    }
}

/// The wall-clock wait: polls `cond` until it holds or `limit` has
/// passed, and returns whether it held — first 100 µs after the first
/// look, then twice as long each time up to every 5 ms, so a condition
/// that holds within a millisecond is not waited on for 5. What a driver
/// thread waits on where the simulator's would step virtual time.
pub fn eventually(limit: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + limit;
    let mut pause = Duration::from_micros(100);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(pause);
        pause = (pause * 2).min(Duration::from_millis(5));
    }
    cond()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rt::NodeRtExt;

    #[test]
    fn tcp_round_trip() {
        let net = RealNet::new();
        let a = net.add_node("a").unwrap();
        let b = net.add_node("b").unwrap();
        let server = b.open(PortReq::Fixed(100)).unwrap();
        let b_addr = server.local();
        let done = Arc::new(AtomicBool::new(false));
        let done2 = Arc::clone(&done);
        let b2: Arc<dyn NodeRt> = b.clone();
        b.spawn_fn("echo", move || {
            let _ = b2; // keep node alive in the thread
            let (from, msg) = server.recv(Some(Duration::from_secs(5))).unwrap();
            server.send(from, msg).unwrap();
            done2.store(true, Ordering::Relaxed);
        });
        let client = a.open(PortReq::Ephemeral).unwrap();
        client.send(b_addr, Bytes::from_static(b"ping")).unwrap();
        let (from, reply) = client.recv(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(&reply[..], b"ping");
        assert_eq!(from, b_addr);
        // The echo's last line may still be ahead of it.
        assert!(eventually(Duration::from_secs(5), || done.load(Ordering::Relaxed)));
    }

    #[test]
    fn closed_port_bounces() {
        let net = RealNet::new();
        let a = net.add_node("a").unwrap();
        let b = net.add_node("b").unwrap();
        let client = a.open(PortReq::Ephemeral).unwrap();
        let dead = Addr::new(b.node(), 999);
        client.send(dead, Bytes::from_static(b"hello")).unwrap();
        match client.recv(Some(Duration::from_secs(5))) {
            Err(RecvError::Unreachable(addr)) => assert_eq!(addr, dead),
            other => panic!("expected unreachable bounce, got {other:?}"),
        }
    }

    #[test]
    fn fixed_port_conflict() {
        let net = RealNet::new();
        let a = net.add_node("a").unwrap();
        let _e1 = a.open(PortReq::Fixed(7)).unwrap();
        assert!(matches!(
            a.open(PortReq::Fixed(7)),
            Err(NetError::PortInUse(7))
        ));
    }

    #[test]
    fn recv_timeout() {
        let net = RealNet::new();
        let a = net.add_node("a").unwrap();
        let ep = a.open(PortReq::Ephemeral).unwrap();
        let r = ep.recv(Some(Duration::from_millis(20)));
        assert_eq!(r.unwrap_err(), RecvError::TimedOut);
    }

    fn counter(net: &RealNet, name: &str) -> u64 {
        net.counters().get(name).copied().unwrap_or(0)
    }

    fn conn_opens(net: &RealNet) -> u64 {
        counter(net, "real.net.conn_open")
    }

    /// Echoes every frame arriving at `port` of `node` until the port
    /// closes; a frame starting with `b'S'` is held 150 ms first.
    fn spawn_echo(node: &Arc<RealNode>, port: u16) -> Addr {
        let server = node.open(PortReq::Fixed(port)).unwrap();
        let addr = server.local();
        node.spawn_fn("echo", move || {
            while let Ok((from, msg)) = server.recv(Some(Duration::from_secs(30))) {
                if msg.first() == Some(&b'S') {
                    std::thread::sleep(Duration::from_millis(150));
                }
                let _ = server.send(from, msg);
            }
        });
        addr
    }

    #[test]
    fn kill_cancels_sleep_and_closes_endpoints() {
        let net = RealNet::new();
        let a = net.add_node("a").unwrap();
        let b = net.add_node("b").unwrap();
        let a2: Arc<dyn NodeRt> = a.clone();
        let opened = Arc::new(AtomicBool::new(false));
        let opened2 = Arc::clone(&opened);
        let group = a.spawn_group(
            "sleeper",
            Box::new(move || {
                let _ep = a2.open(PortReq::Fixed(50)).unwrap();
                opened2.store(true, Ordering::SeqCst);
                loop {
                    a2.sleep(Duration::from_secs(3600));
                }
            }),
        );
        assert!(eventually(Duration::from_secs(5), || opened.load(Ordering::SeqCst)));
        assert!(group.alive());
        group.kill();
        // The sleeper unwinds promptly despite the hour-long sleep.
        assert!(
            eventually(Duration::from_secs(5), || !group.alive()),
            "killed group still alive"
        );
        // Its endpoint closed: a frame for the port bounces.
        let client = b.open(PortReq::Ephemeral).unwrap();
        let dead = Addr::new(a.node(), 50);
        client.send(dead, Bytes::from_static(b"hi")).unwrap();
        match client.recv(Some(Duration::from_secs(5))) {
            Err(RecvError::Unreachable(addr)) => assert_eq!(addr, dead),
            other => panic!("expected bounce from killed group's port, got {other:?}"),
        }
        // The last member out stamps the kill just after `alive()` turns
        // false, so the count may trail the bounce.
        let kills = || net.counters().get("real.net.kills").copied().unwrap_or(0);
        assert!(eventually(Duration::from_secs(5), || kills() >= 1));
        let counters = net.counters();
        assert!(
            counters
                .get("real.net.kill_latency_us")
                .copied()
                .unwrap_or(0)
                >= 1
        );
    }

    /// The name of the thread the caller runs on.
    fn thread_name() -> String {
        std::thread::current().name().unwrap_or("?").to_string()
    }

    #[test]
    fn a_killed_groups_sibling_runs_clean_on_the_same_loop() {
        let net = RealNet::new();
        let a = net.add_node("a").unwrap();
        let rt: Arc<dyn NodeRt> = a.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        let group_a = a.spawn_group("victim", {
            let (rt, tx) = (Arc::clone(&rt), tx.clone());
            Box::new(move || {
                tx.send((thread_name(), rt.cancelled())).unwrap();
                rt.sleep(Duration::from_secs(3600)); // killed in here
            })
        });
        assert_eq!(rx.recv().unwrap(), ("a-loop".to_string(), false));
        group_a.kill();
        assert!(eventually(Duration::from_secs(5), || !group_a.alive()));
        // The sibling runs on the node's one loop, as the victim did, and
        // must not inherit the kill from it.
        let group_b = a.spawn_group("sibling", {
            let rt = Arc::clone(&rt);
            Box::new(move || {
                rt.sleep(Duration::from_millis(1)); // a cancellation point
                tx.send((thread_name(), rt.cancelled())).unwrap();
            })
        });
        assert_eq!(rx.recv().unwrap(), ("a-loop".to_string(), false));
        assert!(eventually(Duration::from_secs(5), || !group_b.alive()));
        assert_eq!(
            counter(&net, "real.net.threads_spawned"),
            1,
            "the loop alone"
        );
        // Stamped once, for the victim: a task's exit.
        assert_eq!(counter(&net, "real.net.kills"), 1);
        assert_eq!(net.samples("real.net.kill_latency_us").len(), 1);
        assert!(counter(&net, "real.net.kill_latency_us") >= 1);
    }

    #[test]
    fn a_panicking_task_is_journalled_by_name_and_its_loop_runs_on() {
        let net = RealNet::new();
        let a = net.add_node("a").unwrap();
        // A panic without the hook's stderr line: same payload, same path.
        a.spawn_fn("fragile", || {
            panic::resume_unwind(Box::new("out of luck".to_string()))
        });
        let (tx, rx) = std::sync::mpsc::channel();
        a.spawn_fn("next", move || tx.send(thread_name()).unwrap());
        assert_eq!(rx.recv().unwrap(), "a-loop", "the loop died with the task");
        let lines: Vec<String> = crate::journal::Journal::of(&*a)
            .events()
            .iter()
            .filter(|e| e.category == "proc")
            .map(|e| e.detail.to_string())
            .collect();
        assert_eq!(lines, vec!["panic in 'fragile': out of luck".to_string()]);
        assert_eq!(counter(&net, "real.net.threads_spawned"), 1);
    }

    #[test]
    fn kill_cancels_blocking_recv_and_child_processes() {
        let net = RealNet::new();
        let a = net.add_node("a").unwrap();
        let a2: Arc<dyn NodeRt> = a.clone();
        let group = a.spawn_group(
            "recv-forever",
            Box::new(move || {
                let child_rt = Arc::clone(&a2);
                // The child joins the group (fork semantics) and parks in
                // an infinite receive with no timeout.
                a2.spawn_fn("child", move || {
                    let ep = child_rt.open(PortReq::Ephemeral).unwrap();
                    let _ = ep.recv(None);
                });
                let ep = a2.open(PortReq::Ephemeral).unwrap();
                let _ = ep.recv(None);
            }),
        );
        assert!(eventually(Duration::from_secs(2), || group.alive()));
        group.kill();
        assert!(
            eventually(Duration::from_secs(5), || !group.alive()),
            "group with blocked receivers survived kill"
        );
    }

    #[test]
    fn partition_drops_frames_and_heals() {
        let net = RealNet::new();
        let a = net.add_node("a").unwrap();
        let b = net.add_node("b").unwrap();
        let b_addr = spawn_echo(&b, 100);
        let client = a.open(PortReq::Ephemeral).unwrap();
        net.set_partitioned(a.node(), b.node(), true);
        client.send(b_addr, Bytes::from_static(b"lost")).unwrap();
        assert_eq!(
            client.recv(Some(Duration::from_millis(200))).unwrap_err(),
            RecvError::TimedOut,
            "partitioned link delivered a frame"
        );
        net.set_partitioned(a.node(), b.node(), false);
        client.send(b_addr, Bytes::from_static(b"back")).unwrap();
        let (_, reply) = client.recv(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(&reply[..], b"back");
        assert!(net.counters().get("real.net.dropped").copied().unwrap_or(0) >= 1);
    }

    #[test]
    fn impairment_duplicates_and_delays_frames() {
        let net = RealNet::new();
        let a = net.add_node("a").unwrap();
        let b = net.add_node("b").unwrap();
        let server = b.open(PortReq::Fixed(100)).unwrap();
        let b_addr = server.local();
        let client = a.open(PortReq::Ephemeral).unwrap();
        // Certain duplication, no loss, no delay.
        net.set_impairment(
            a.node(),
            b.node(),
            LinkImpairment {
                loss: 0.0,
                dup: 1.0,
                reorder: 0.0,
                extra_latency: Duration::ZERO,
            },
        );
        client.send(b_addr, Bytes::from_static(b"twice")).unwrap();
        for _ in 0..2 {
            let (_, msg) = server.recv(Some(Duration::from_secs(5))).unwrap();
            assert_eq!(&msg[..], b"twice");
        }
        // Pure delay: the frame arrives, but not immediately.
        net.set_impairment(
            a.node(),
            b.node(),
            LinkImpairment {
                loss: 0.0,
                dup: 0.0,
                reorder: 0.0,
                extra_latency: Duration::from_millis(150),
            },
        );
        client.send(b_addr, Bytes::from_static(b"late")).unwrap();
        assert_eq!(
            server.recv(Some(Duration::from_millis(30))).unwrap_err(),
            RecvError::TimedOut,
            "delayed frame arrived early"
        );
        let (from, msg) = server.recv(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(&msg[..], b"late");
        net.clear_impairment(a.node(), b.node());
        assert!(net.counters().get("real.net.delayed").copied().unwrap_or(0) >= 1);
        // The delay line's stream closed behind that frame: b must not
        // have taken it for its stream to a.
        server.send(from, Bytes::from_static(b"back")).unwrap();
        let (_, msg) = client.recv(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(&msg[..], b"back");
    }

    #[test]
    fn reconnect_backoff_sequence_is_bounded() {
        // The reconnect path draws its waits from RECONNECT_POLICY with
        // one random word per attempt. On a mock clock (a recorded rand
        // feed; no sleeping), the bound sequence must sit inside the
        // jitter envelope: wait(n) ∈ [base, min(cap, base·2ⁿ)].
        let policy = RECONNECT_POLICY;
        // rand = 0 → always the envelope floor.
        let floor: Vec<Duration> = (0..RECONNECT_ATTEMPTS - 1)
            .map(|a| policy.backoff(a, 0))
            .collect();
        assert!(floor.iter().all(|&d| d == policy.base), "{floor:?}");
        // rand = span-1 → exactly the envelope ceiling, doubling then
        // capped.
        let ceil: Vec<Duration> = (0..RECONNECT_ATTEMPTS - 1)
            .map(|a| {
                let span = (policy.envelope(a) - policy.base).as_micros() as u64;
                policy.backoff(a, span)
            })
            .collect();
        assert_eq!(
            ceil,
            vec![
                Duration::from_millis(5),
                Duration::from_millis(10),
                Duration::from_millis(20),
            ]
        );
        // Arbitrary feed stays inside the envelope and never shrinks it.
        let mut feed = 0x9e3779b97f4a7c15u64;
        for attempt in 0..RECONNECT_ATTEMPTS - 1 {
            feed = feed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let d = policy.backoff(attempt, feed);
            assert!(d >= policy.base && d <= policy.envelope(attempt));
        }
    }

    #[test]
    fn send_to_dead_peer_fails_after_bounded_retries() {
        let net = RealNet::new();
        let a = net.add_node("a").unwrap();
        let b = net.add_node("b").unwrap();
        let b_id = b.node();
        b.stop();
        drop(b);
        let client = a.open(PortReq::Ephemeral).unwrap();
        let started = Instant::now();
        let r = client.send(Addr::new(b_id, 100), Bytes::from_static(b"x"));
        // `stop` closed the listener, so every attempt is
        // refused (unless a parallel test's node was just handed the
        // port) — either way the send must return within the bounded
        // backoff budget, not hang.
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(2),
            "send took {elapsed:?}, retries unbounded? ({r:?})"
        );
    }

    #[test]
    fn stale_stream_to_a_stopped_peer_fails_at_the_first_frame() {
        let net = RealNet::new();
        let a = net.add_node("a").unwrap();
        let b = net.add_node("b").unwrap();
        let b_addr = spawn_echo(&b, 100);
        let client = a.open(PortReq::Ephemeral).unwrap();
        client.send(b_addr, Bytes::from_static(b"up")).unwrap();
        client.recv(Some(Duration::from_secs(5))).unwrap();
        b.stop();
        // a's reader of the stream sees b's end close and takes the
        // stream out of a's slot for b.
        assert!(
            eventually(Duration::from_secs(5), || counter(&net, "real.net.resets")
                >= 1),
            "a never noticed b's stream close"
        );
        let started = Instant::now();
        // No frame vanishes into the dead stream: the very next one
        // dials, and finds the listener gone.
        let first = client.send(b_addr, Bytes::from_static(b"refused"));
        assert!(
            matches!(
                first,
                Err(NetError::SendFailed(_) | NetError::PeerRefused(_))
            ),
            "first frame to a stopped peer: {first:?}"
        );
        assert!(started.elapsed() < Duration::from_secs(2));
        let closed = format!("conn to {} closed by the peer", b.node());
        let lines = crate::journal::Journal::of(&*a).events();
        assert!(lines.iter().any(|e| *e.detail == closed), "{lines:?}");
    }

    #[test]
    fn concurrent_senders_share_one_stream_without_interleaving() {
        const THREADS: u64 = 8;
        const CALLS: u64 = 200;
        let net = RealNet::new();
        let a = net.add_node("a").unwrap();
        let b = net.add_node("b").unwrap();
        let b_addr = spawn_echo(&b, 100);
        let start = Arc::new(std::sync::Barrier::new(THREADS as usize));
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (a, start) = (Arc::clone(&a), Arc::clone(&start));
                std::thread::spawn(move || {
                    let ep = a.open(PortReq::Ephemeral).unwrap();
                    start.wait();
                    let mut x = 0x9e3779b97f4a7c15u64.wrapping_mul(t + 1);
                    for call in 0..CALLS {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        // 1 B – 64 KiB, skewed small, filled with a byte
                        // only this (thread, call) uses in this position.
                        let len = 1 + (x >> 33) as usize % (64 << (x % 11));
                        let mut req = vec![(t * 31 + call) as u8; len];
                        req[0] = b'e';
                        ep.send(b_addr, Bytes::from(req.clone())).unwrap();
                        let (from, reply) = ep.recv(Some(Duration::from_secs(10))).unwrap();
                        assert_eq!(from, b_addr);
                        assert!(reply[..] == req[..], "thread {t} call {call}: corrupt echo");
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("sender thread");
        }
        assert_eq!(
            conn_opens(&net),
            1,
            "one stream, both ways, for all 8 endpoints"
        );
    }

    #[test]
    fn killing_one_group_leaves_its_siblings_stream_up() {
        let net = RealNet::new();
        let a = net.add_node("a").unwrap();
        let b = net.add_node("b").unwrap();
        let b_addr = spawn_echo(&b, 100);
        // Two groups on `a`, one endpoint each, handed out to this thread
        // to drive (a kill closes what the group *opened*).
        let eps: Arc<Mutex<HashMap<u16, Arc<dyn Endpoint>>>> = Arc::default();
        let groups: Vec<_> = [50u16, 51]
            .into_iter()
            .map(|port| {
                let (rt, eps) = (Arc::clone(&a) as Arc<dyn NodeRt>, Arc::clone(&eps));
                a.spawn_group(
                    "svc",
                    Box::new(move || {
                        eps.lock()
                            .insert(port, rt.open(PortReq::Fixed(port)).unwrap());
                        loop {
                            rt.sleep(Duration::from_secs(3600));
                        }
                    }),
                )
            })
            .collect();
        assert!(eventually(Duration::from_secs(5), || eps.lock().len() == 2));
        let (doomed, sibling) = {
            let eps = eps.lock();
            (Arc::clone(&eps[&50]), Arc::clone(&eps[&51]))
        };
        for ep in [&doomed, &sibling] {
            ep.send(b_addr, Bytes::from_static(b"hello")).unwrap();
            ep.recv(Some(Duration::from_secs(5))).unwrap();
        }
        let before = conn_opens(&net);
        assert_eq!(before, 1);

        // The sibling has a call in flight (held 150 ms at the echo)
        // when the other group dies.
        sibling.send(b_addr, Bytes::from_static(b"Slow")).unwrap();
        groups[0].kill();
        let (_, reply) = sibling.recv(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(&reply[..], b"Slow");
        for _ in 0..20 {
            sibling.send(b_addr, Bytes::from_static(b"later")).unwrap();
            let (_, reply) = sibling.recv(Some(Duration::from_secs(5))).unwrap();
            assert_eq!(&reply[..], b"later");
        }
        // The killed group's port bounces — over the same stream.
        assert_eq!(
            doomed.recv(Some(Duration::ZERO)).unwrap_err(),
            RecvError::Closed
        );
        let probe = b.open(PortReq::Ephemeral).unwrap();
        let dead = Addr::new(a.node(), 50);
        probe.send(dead, Bytes::from_static(b"anyone?")).unwrap();
        match probe.recv(Some(Duration::from_secs(5))) {
            Err(RecvError::Unreachable(addr)) => assert_eq!(addr, dead),
            other => panic!("expected bounce from killed group's port, got {other:?}"),
        }
        assert_eq!(conn_opens(&net), before, "the kill reset a shared stream");
        assert!(groups[1].alive());
    }

    /// The local and the peer address of the stream `node` writes to
    /// `peer` on, if it holds one.
    fn slot_addrs(node: &RealNode, peer: NodeId) -> Option<(SocketAddr, SocketAddr)> {
        let held = node.core.slot(peer).lock().clone()?;
        Some((held.stream.local_addr().ok()?, held.stream.peer_addr().ok()?))
    }

    /// Asserts that `a` and `b` write to each other on one stream.
    fn assert_one_stream(a: &RealNode, b: &RealNode, what: &str) {
        let at_a = slot_addrs(a, b.node()).expect("a holds a stream");
        let at_b = slot_addrs(b, a.node()).expect("b holds a stream");
        assert_eq!((at_a.0, at_a.1), (at_b.1, at_b.0), "{what}: a stream each way");
    }

    #[test]
    fn simultaneous_dials_settle_on_one_stream_and_lose_nothing() {
        const FRAMES: u32 = 200;
        const NODES: usize = 3;
        for round in 0..10 {
            let net = RealNet::new();
            let nodes: Vec<_> = (0..NODES)
                .map(|i| net.add_node(&format!("n{i}")).unwrap())
                .collect();
            let eps: Vec<_> = nodes
                .iter()
                .map(|n| n.open(PortReq::Fixed(100)).unwrap())
                .collect();
            // No node has a stream with another when all send.
            let start = Arc::new(std::sync::Barrier::new(NODES));
            let sides: Vec<_> = (0..NODES)
                .map(|me| {
                    let (ep, start) = (Arc::clone(&eps[me]), Arc::clone(&start));
                    let peers: Vec<Addr> = eps.iter().map(|e| e.local()).collect();
                    std::thread::spawn(move || {
                        start.wait();
                        for i in 0..FRAMES {
                            for (p, &peer) in peers.iter().enumerate() {
                                if p != me {
                                    ep.send(peer, Bytes::from(i.to_le_bytes().to_vec()))
                                        .unwrap();
                                }
                            }
                        }
                        let mut got = vec![Vec::new(); NODES];
                        for _ in 0..FRAMES as usize * (NODES - 1) {
                            let (from, msg) =
                                ep.recv(Some(Duration::from_secs(5))).expect("a frame");
                            let p = peers.iter().position(|&a| a == from).expect("a peer");
                            got[p].push(u32::from_le_bytes(msg[..].try_into().unwrap()));
                        }
                        // Nothing more: no frame went over two streams.
                        assert_eq!(
                            ep.recv(Some(Duration::from_millis(20))).unwrap_err(),
                            RecvError::TimedOut
                        );
                        got.iter_mut().for_each(|g| g.sort_unstable());
                        (me, got)
                    })
                })
                .collect();
            for side in sides {
                let (me, got) = side.join().expect("sender thread");
                for (p, got) in got.iter().enumerate().filter(|&(p, _)| p != me) {
                    let all: Vec<u32> = (0..FRAMES).collect();
                    assert_eq!(*got, all, "round {round}: node {me} from node {p}");
                }
            }
            let opened = conn_opens(&net);
            let pairs = (NODES * (NODES - 1) / 2) as u64;
            assert!(
                (pairs..=2 * pairs).contains(&opened),
                "round {round}: {opened} connections"
            );
            // Each pair sends both ways on one stream, whichever dialled.
            for (i, a) in nodes.iter().enumerate() {
                for b in &nodes[i + 1..] {
                    assert_one_stream(a, b, &format!("round {round}"));
                }
            }
        }
    }

    /// Three loops each send a request to both others at once, from a
    /// task, and wait for the answers, as a replica group's first polls
    /// do: every pair ends on one stream, though each node has two dials
    /// to accept at once and answers follow at once on its own.
    #[test]
    fn crossing_requests_from_three_loops_leave_one_stream_a_pair() {
        const NODES: usize = 3;
        for round in 0..20 {
            let net = RealNet::new();
            let nodes: Vec<_> = (0..NODES)
                .map(|i| net.add_node(&format!("n{i}")).unwrap())
                .collect();
            let echoes: Vec<Addr> = nodes.iter().map(|n| spawn_echo(n, 100)).collect();
            let start = Arc::new(std::sync::Barrier::new(NODES));
            let (done, answered) = std::sync::mpsc::channel();
            for (me, node) in nodes.iter().enumerate() {
                let rt = Arc::clone(node) as Arc<dyn NodeRt>;
                let (start, done) = (Arc::clone(&start), done.clone());
                let mut peers = echoes.clone();
                peers.remove(me);
                node.spawn_fn("poll", move || {
                    let ep = rt.open(PortReq::Ephemeral).unwrap();
                    // Holds this loop until every loop's task is here.
                    start.wait();
                    for &peer in &peers {
                        ep.send(peer, Bytes::from_static(b"poll")).unwrap();
                    }
                    for _ in &peers {
                        ep.recv(Some(Duration::from_secs(5))).expect("an answer");
                    }
                    done.send(()).unwrap();
                });
            }
            for _ in 0..NODES {
                answered
                    .recv_timeout(Duration::from_secs(10))
                    .expect("every node's answers");
            }
            for (i, a) in nodes.iter().enumerate() {
                for b in &nodes[i + 1..] {
                    assert_one_stream(a, b, &format!("round {round}"));
                }
            }
        }
    }

    #[test]
    fn a_higher_node_that_resets_and_redials_loses_no_frame() {
        const FRAMES: usize = 50;
        let net = RealNet::new();
        let a = net.add_node("a").unwrap();
        let b = net.add_node("b").unwrap();
        assert!(a.node() < b.node());
        let echo = spawn_echo(&a, 100);
        let sink = a.open(PortReq::Fixed(200)).unwrap();
        let client = b.open(PortReq::Fixed(100)).unwrap();
        // a dials, b answers on a's stream: it has carried b's frames.
        client.send(echo, Bytes::from_static(b"before")).unwrap();
        client.recv(Some(Duration::from_secs(5))).expect("an echo");
        assert_one_stream(&a, &b, "before the reset");
        let before = conn_opens(&net);
        // a's loop stalls while the stream fills up with more than one
        // read takes, so that its end is read here after b's new stream
        // is accepted.
        let (stalled, stalling) = std::sync::mpsc::channel();
        a.spawn_fn("stall", move || {
            stalled.send(()).unwrap();
            std::thread::sleep(Duration::from_millis(300));
        });
        stalling.recv().unwrap();
        let big = Bytes::from(vec![0u8; 256 * 1024]);
        for _ in 0..4 {
            client.send(sink.local(), big.clone()).unwrap();
        }
        // b tears the stream down and dials a new one for its next frame.
        net.set_reset_storm(a.node(), b.node(), true);
        client.send(echo, Bytes::from(0u32.to_le_bytes().to_vec())).unwrap();
        net.set_reset_storm(a.node(), b.node(), false);
        assert_eq!(conn_opens(&net), before + 1);
        for i in 1..FRAMES as u32 {
            client.send(echo, Bytes::from(i.to_le_bytes().to_vec())).unwrap();
        }
        let mut got: Vec<u32> = (0..FRAMES)
            .map(|_| {
                let (_, msg) = client
                    .recv(Some(Duration::from_secs(5)))
                    .expect("every echo");
                u32::from_le_bytes(msg[..].try_into().unwrap())
            })
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..FRAMES as u32).collect::<Vec<_>>());
        assert_one_stream(&a, &b, "after the reset");
    }

    /// Serves `port` of `node` from a group of its own: every frame is
    /// echoed by a task that first reports the thread it runs on.
    fn spawn_served_echo(
        node: &Arc<RealNode>,
        port: u16,
        ran_on: std::sync::mpsc::Sender<String>,
        inline: InlineTest,
    ) -> (Arc<dyn crate::rt::ProcGroup>, Addr) {
        let addr = Addr::new(node.node(), port);
        let rt = Arc::clone(node) as Arc<dyn NodeRt>;
        let ran_on = Mutex::new(ran_on);
        let group = node.spawn_group(
            "svc",
            Box::new(move || {
                let ep = rt.open(PortReq::Fixed(port)).unwrap();
                let reply = Arc::clone(&ep);
                let handler = move |landing: Result<(Addr, Bytes), RecvError>| {
                    let Ok((from, msg)) = landing else { return };
                    ran_on.lock().send(thread_name()).unwrap();
                    let _ = reply.send(from, msg);
                };
                ep.serve("svc-worker", Arc::new(handler), inline);
                while !matches!(ep.recv(None), Err(RecvError::Closed)) {}
            }),
        );
        (group, addr)
    }

    /// Waits until `node`'s `port` is served: before that, a frame waits
    /// in the mailbox for the serving task.
    fn wait_served(node: &RealNode, port: u16) {
        assert!(eventually(Duration::from_secs(5), || {
            let addr = Addr::new(node.core.id, port);
            (node.core.ports.lock().get_mut(&addr)).is_some_and(|p| p.served.is_some())
        }));
    }

    #[test]
    fn a_served_port_runs_frames_on_its_loop_and_queues_none() {
        let net = RealNet::new();
        let a = net.add_node("a").unwrap();
        let b = net.add_node("b").unwrap();
        let (ran_on_tx, ran_on) = std::sync::mpsc::channel();
        let (group, b_addr) = spawn_served_echo(&b, 100, ran_on_tx, Arc::new(|_| false));
        let client = a.open(PortReq::Ephemeral).unwrap();
        let call = |msg: &'static [u8]| {
            client.send(b_addr, Bytes::from_static(msg)).unwrap();
            client.recv(Some(Duration::from_secs(5)))
        };
        call(b"warm-up").unwrap();
        ran_on.recv().unwrap();
        wait_served(&b, 100);
        let queued = counter(&net, "real.net.frames_queued");
        for _ in 0..100 {
            let (from, msg) = call(b"ping").unwrap();
            assert_eq!((from, &msg[..]), (b_addr, &b"ping"[..]));
            assert_eq!(ran_on.recv().unwrap(), "b-loop");
        }
        assert_eq!(
            counter(&net, "real.net.frames_queued") - queued,
            100,
            "the replies queue at the client; the requests queue nowhere"
        );
        assert_eq!(
            counter(&net, "real.net.threads_spawned"),
            2,
            "the two loops"
        );

        // Killing the group closes the port: bounces, and no more tasks.
        group.kill();
        assert!(eventually(Duration::from_secs(5), || !group.alive()));
        match call(b"anyone?") {
            Err(RecvError::Unreachable(addr)) => assert_eq!(addr, b_addr),
            other => panic!("expected a bounce from the killed group's port, got {other:?}"),
        }
        assert!(
            ran_on.try_recv().is_err(),
            "a dead group's port ran a handler"
        );
        assert!(
            b.core.ports.lock().get_mut(&b_addr).is_none(),
            "the handler outlived its port"
        );
    }

    #[test]
    fn served_frames_start_in_arrival_order_on_the_loop_whatever_the_inline_test() {
        let net = RealNet::new();
        let a = net.add_node("a").unwrap();
        let b = net.add_node("b").unwrap();
        let (ran_on_tx, ran_on) = std::sync::mpsc::channel();
        let brief: InlineTest = Arc::new(|msg| msg.starts_with(b"brief"));
        let (group, b_addr) = spawn_served_echo(&b, 100, ran_on_tx, brief);
        let client = a.open(PortReq::Ephemeral).unwrap();
        let call = |msg: &'static [u8]| {
            client.send(b_addr, Bytes::from_static(msg)).unwrap();
            client.recv(Some(Duration::from_secs(5)))
        };
        call(b"warm-up").unwrap();
        ran_on.recv().unwrap();
        wait_served(&b, 100);
        for _ in 0..20 {
            call(b"brief ping").unwrap();
            assert_eq!(ran_on.recv().unwrap(), "b-loop");
            call(b"long ping").unwrap();
            assert_eq!(ran_on.recv().unwrap(), "b-loop");
        }

        // A burst nobody waits for: started in the order it was sent, on
        // the one loop, and its replies come back in that order.
        for i in 0..200u8 {
            let msg = [b"burst ".as_slice(), &[i]].concat();
            client.send(b_addr, Bytes::from(msg)).unwrap();
        }
        for i in 0..200u8 {
            let (_, msg) = client.recv(Some(Duration::from_secs(5))).unwrap();
            assert_eq!(msg.last(), Some(&i));
            assert_eq!(ran_on.recv().unwrap(), "b-loop");
        }
        assert_eq!(
            counter(&net, "real.net.threads_spawned"),
            2,
            "the two loops"
        );

        // A frame's task is a task of the group like any other: a
        // killed group runs none.
        assert!(group.alive());
        group.kill();
        assert!(eventually(Duration::from_secs(5), || !group.alive()));
        match call(b"brief, anyone?") {
            Err(RecvError::Unreachable(addr)) => assert_eq!(addr, b_addr),
            other => panic!("expected a bounce from the killed group's port, got {other:?}"),
        }
        assert!(
            ran_on.try_recv().is_err(),
            "a dead group's port ran a handler"
        );
    }

    /// A handler that dials a peer nothing listens at waits out its
    /// reconnect back-off in its own task, and is told `PeerRefused`;
    /// the loop serves the node's other frames meanwhile.
    #[test]
    fn a_handler_backing_off_from_a_dead_peer_holds_up_no_other_frame() {
        let net = RealNet::new();
        let a = net.add_node("a").unwrap();
        let b = net.add_node("b").unwrap();
        let gone = net.add_node("gone").unwrap();
        let gone_addr = Addr::new(gone.node(), 9);
        gone.stop();
        let relay = b.open(PortReq::Fixed(100)).unwrap();
        let (tx, landed) = std::sync::mpsc::channel();
        let (out, tx) = (Arc::clone(&relay), Mutex::new(tx));
        relay.serve(
            "relay",
            Arc::new(move |item| {
                let Ok((_, msg)) = item else { return };
                let t0 = Instant::now();
                let sent = if &msg[..] == b"onward" {
                    Some(out.send(gone_addr, msg.clone()))
                } else {
                    None
                };
                let _ = tx.lock().send((msg, sent, thread_name(), t0.elapsed()));
            }),
            Arc::new(|_| true),
        );
        let client = a.open(PortReq::Ephemeral).unwrap();
        let to = Addr::new(b.node(), 100);
        client.send(to, Bytes::from_static(b"onward")).unwrap();
        client.send(to, Bytes::from_static(b"beside")).unwrap();
        let (msg, sent, thread, took) = landed.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            (&msg[..], sent, thread.as_str()),
            (&b"beside"[..], None, "b-loop")
        );
        assert!(took < Duration::from_millis(5));
        let (msg, sent, thread, took) = landed.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            (&msg[..], sent, thread.as_str()),
            (
                &b"onward"[..],
                Some(Err(NetError::PeerRefused(gone.node()))),
                "b-loop"
            )
        );
        assert!(
            took >= RECONNECT_POLICY.base * (RECONNECT_ATTEMPTS - 1),
            "the sender backed off for {took:?}"
        );
    }

    /// Larger than a loopback stream's socket buffers can hold unread.
    const BIG: usize = 8 << 20;

    /// Sends `BIG` bytes to `to` from a task on `node`, once `start`
    /// lets it.
    fn send_big_from_a_task(node: &Arc<RealNode>, to: Addr, start: Arc<std::sync::Barrier>) {
        let rt = Arc::clone(node) as Arc<dyn NodeRt>;
        node.spawn_fn("big", move || {
            let ep = rt.open(PortReq::Ephemeral).unwrap();
            start.wait();
            ep.send(to, Bytes::from(vec![7; BIG])).unwrap();
        });
    }

    fn recv_big(ep: &Arc<dyn Endpoint>) {
        let (_, got) = ep
            .recv(Some(Duration::from_secs(3)))
            .expect("the big frame, well inside WRITE_STALL");
        assert!(got.len() == BIG && got.iter().all(|&b| b == 7));
    }

    #[test]
    fn two_loops_sending_each_other_a_frame_their_buffers_cannot_hold_both_get_through() {
        let net = RealNet::new();
        let a = net.add_node("a").unwrap();
        let b = net.add_node("b").unwrap();
        let (at_a, at_b) = (
            a.open(PortReq::Fixed(60)).unwrap(),
            b.open(PortReq::Fixed(60)).unwrap(),
        );
        at_a.send(at_b.local(), Bytes::from_static(b"hello"))
            .unwrap();
        at_b.recv(Some(Duration::from_secs(5))).unwrap();
        // Both loops are in their sends at once.
        let start = Arc::new(std::sync::Barrier::new(2));
        send_big_from_a_task(&a, at_b.local(), Arc::clone(&start));
        send_big_from_a_task(&b, at_a.local(), start);
        recv_big(&at_a);
        recv_big(&at_b);
        assert_eq!(conn_opens(&net), 1);
        assert_eq!(counter(&net, "real.net.resets"), 0);
    }

    #[test]
    fn a_task_sends_its_own_node_a_frame_the_buffers_cannot_hold() {
        let net = RealNet::new();
        let a = net.add_node("a").unwrap();
        let at_a = a.open(PortReq::Fixed(60)).unwrap();
        send_big_from_a_task(&a, at_a.local(), Arc::new(std::sync::Barrier::new(1)));
        recv_big(&at_a);
        assert_eq!(counter(&net, "real.net.resets"), 0);
    }

    /// A peer that takes a stream and never reads it: the unsent bytes
    /// stop moving, and the first frame after `WRITE_STALL` resets the
    /// stream and dials again.
    #[test]
    fn a_stream_whose_unsent_bytes_stop_moving_is_reset_at_the_next_frame() {
        let net = RealNet::new();
        let a = net.add_node("a").unwrap();
        // The kernel completes the handshake; nothing ever reads.
        let wedged = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let peer = NodeId(999);
        net.directory
            .lock()
            .insert(peer, wedged.local_addr().unwrap());
        let (ep, to) = (a.open(PortReq::Ephemeral).unwrap(), Addr::new(peer, 1));
        ep.send(to, Bytes::from(vec![7; BIG])).unwrap();
        std::thread::sleep(WRITE_STALL + Duration::from_millis(100));
        ep.send(to, Bytes::from_static(b"next")).unwrap();
        assert_eq!(conn_opens(&net), 2);
        let reset = format!("reset on conn to {peer}: peer reads nothing");
        let lines = crate::journal::Journal::of(&*a).events();
        assert!(lines.iter().any(|e| *e.detail == reset), "{lines:?}");
    }

    #[test]
    fn a_reset_storm_resets_the_one_stream_for_both_directions() {
        let net = RealNet::new();
        let a = net.add_node("a").unwrap();
        let b = net.add_node("b").unwrap();
        let b_addr = spawn_echo(&b, 100);
        let client = a.open(PortReq::Ephemeral).unwrap();
        let call = |msg: &'static [u8]| {
            client.send(b_addr, Bytes::from_static(msg)).unwrap();
            let (_, reply) = client
                .recv(Some(Duration::from_secs(5)))
                .expect("an answer");
            assert_eq!(&reply[..], msg);
        };
        call(b"before");
        assert_eq!(conn_opens(&net), 1);
        net.set_reset_storm(a.node(), b.node(), true);
        for _ in 0..20 {
            call(b"during");
        }
        net.set_reset_storm(a.node(), b.node(), false);
        let settled = conn_opens(&net);
        for _ in 0..20 {
            call(b"after");
        }
        assert_eq!(conn_opens(&net), settled, "the pair is back on one stream");
        assert!(counter(&net, "real.net.resets") >= 1);
        // The request's sender and the reply's both tore the stream down
        // under them, and both dialled again.
        for (node, peer) in [(&a, &b), (&b, &a)] {
            let lines: Vec<String> = crate::journal::Journal::of(&**node)
                .events()
                .iter()
                .map(|e| e.detail.to_string())
                .collect();
            let reset = lines
                .iter()
                .position(|l| *l == format!("reset storm: tore down conn to {}", peer.node()))
                .unwrap_or_else(|| panic!("no reset in {}'s journal: {lines:?}", node.node()));
            assert!(
                lines[reset..].contains(&format!("connected to {} on attempt 0", peer.node())),
                "{} never dialled again: {lines:?}",
                node.node()
            );
        }
    }

    #[test]
    fn real_nemesis_applies_link_actions() {
        let net = RealNet::new();
        let a = net.add_node("a").unwrap();
        let b = net.add_node("b").unwrap();
        let plan = crate::fault::FaultPlan::new().partition(
            a.node(),
            b.node(),
            SimTime::from_micros(0),
            SimTime::from_micros(1_000),
        );
        plan.run(&*net, wall_clock(), |_| {});
        // Plan fully executed: partition installed, then healed, and both
        // journalled on both nodes.
        assert!(!net.faults.lock().any(), "plan left faults installed");
        let want = [
            format!("partition {}-{}", a.node(), b.node()),
            format!("heal {}-{}", a.node(), b.node()),
        ];
        for node in [&a, &b] {
            let lines: Vec<String> = crate::journal::Journal::of(&**node)
                .events()
                .iter()
                .filter(|e| e.category == "fault")
                .map(|e| e.detail.to_string())
                .collect();
            assert_eq!(lines, want, "{}'s journal", node.node());
        }
    }
}
