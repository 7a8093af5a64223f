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
//! other threads ring when they post to it, with a timer map beside it.
//! Every [`NodeRt::spawn`] is a task — its own closure, group membership
//! and live count — on a pooled `coro.rs` stack, which the loop switches
//! to as the simulator switches to a process. A task that waits
//! ([`NodeRt::sleep`], [`Endpoint::recv`], a [`crate::sync::SyncObj`]
//! wait, so every ORB call) switches back to the loop, taking its group
//! and span context with it. So a long computation holds up its whole
//! node until it waits, and no lock may be held across a wait. A thread
//! that belongs to no node (a test driver, a benchmark's main thread)
//! blocks its own OS thread on the same mailboxes and sync objects.
//! `real.net.threads_spawned` counts loop threads, and
//! `real.net.spawn_failed` the tasks lost for want of a stack.
//!
//! An endpoint somebody [`recv`](Endpoint::recv)s from has a mailbox: the
//! loop queues its frames (`real.net.frames_queued`) and wakes the
//! receiver. A *served* endpoint ([`Endpoint::serve`],
//! [`Endpoint::serve_inline`]) has a handler: the loop starts its task,
//! in the endpoint's owner group, where it read the frame — a stream's
//! frames in the order they were sent — and runs it until it first waits.
//!
//! ## Connection lifetime
//!
//! Two nodes share one `TcpStream`, used both ways by every endpoint,
//! RPC, reply and bounce between them: a node dials only when it has no
//! stream with the peer, and the first frame on an accepted stream names
//! the dialler, so replies ride the stream their request came on (two
//! simultaneous dials leave two streams, both read to their end). Streams
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
//! * A **kill** closes the group's *ports*; the streams stay up for the
//!   node's other groups, and frames for the dead ports bounce.
//! * A **reset storm** or a failed write shuts the stream down both ways;
//!   the frame is resent over a fresh one (`real.net.resets`, journalled
//!   with its reconnect), and the peer, whose loop reads the end, dials
//!   for its next. A loop that reads a stream's end clears the peer's
//!   slot (`conn to <peer> closed by the peer`), so no frame is written
//!   into a stream known to be dead.
//! * [`RealNode::stop`] (or dropping the node) closes the listener, then
//!   shuts every stream, so a peer's next frame dials, is refused and
//!   fails at once ([`NetError::PeerRefused`] or
//!   [`NetError::SendFailed`]). The loop thread exits with its last task.
//!
//! ## Fault parity with the simulator
//!
//! * **Cooperative kill.** [`crate::rt::ProcGroup::kill`] closes the
//!   group's endpoints at once, so peers see bounces
//!   ([`RecvError::Unreachable`]) rather than silence, and wakes every
//!   task of the group to unwind where it waits — a running one at its
//!   next wait or [`NodeRt::cancelled`] poll; code that spins is not
//!   reached. The unwind is the simulator's: a private payload through
//!   `resume_unwind`, no panic hook.
//! * **Link faults.** [`RealNet::set_partitioned`],
//!   [`RealNet::set_impairment`] and [`RealNet::set_reset_storm`] apply
//!   per node pair under every send: partitions drop silently,
//!   impairments drop, duplicate or delay frames (on the sender's loop
//!   timers), reset storms tear the pair's stream down before each send.
//!   The fault-free path pays one relaxed load.
//! * **[`RealNemesis`]** replays a [`FaultPlan`] over the wall clock.
//!
//! Service code written against [`NodeRt`] runs unchanged on either
//! runtime; see `examples/tcp_cluster.rs` for a full cluster on TCP.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Condvar, Mutex, MutexGuard};
use rand::{Rng, RngExt};

use crate::backoff::RetryPolicy;
use crate::coro::{self, Handle, Stack, StackPool};
use crate::fault::{FaultAction, FaultEvent, FaultPlan};
use crate::kernel::{KillSignal, LinkImpairment};
use crate::poll::{self, Poller};
use crate::rt::{
    Addr, Endpoint, FrameHandler, InlineTest, LandingHandler, NetError, NodeId, NodeRt, PortReq,
    RecvError,
};
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

/// What landed at a port, as a receive returns it: a frame, or the
/// bounce of one sent from the port.
type Landing = Result<(Addr, Bytes), RecvError>;

// ---------------------------------------------------------------------------
// Tasks: closures on pooled stacks, run by their node's loop.

type TaskId = u64;
type Job = Box<dyn FnOnce() + Send>;

/// Names a task from any thread: its node, and its number there.
#[derive(Clone)]
struct TaskRef {
    node: Arc<NodeCore>,
    id: TaskId,
}

impl TaskRef {
    /// Makes the task runnable if it waits: its loop runs it next.
    fn wake(&self) {
        self.node.post(Post::Wake(self.id));
    }

    fn is(&self, other: &TaskRef) -> bool {
        self.id == other.id && Arc::ptr_eq(&self.node, &other.node)
    }
}

/// The running task's own state, which its switches save and restore.
struct Current {
    task: TaskRef,
    stack: Handle,
    group: Option<Arc<GroupCore>>,
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

fn current_group() -> Option<Arc<GroupCore>> {
    current(|c| c.group.clone()).flatten()
}

fn group_killed() -> bool {
    current(|c| c.group.as_ref().is_some_and(|g| g.killed())) == Some(true)
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
/// its loop, either way round — carrying [`Current`] and the span context
/// with the context, as the simulator's switch does.
fn switch(from: Handle, to: Handle) {
    let current = CURRENT.with(|c| c.borrow_mut().take());
    let span = crate::trace::set_current_ctx(None);
    coro::switch(from, to);
    CURRENT.with(|c| *c.borrow_mut() = current);
    crate::trace::set_current_ctx(span);
}

/// Parks the running task until it is woken or `deadline` passes; the
/// wait's timer goes with the wait.
fn suspend(deadline: Option<Instant>) {
    let (node, id, me) =
        current(|c| (Arc::clone(&c.task.node), c.task.id, c.stack)).expect("only a task waits");
    with_local(|l| {
        l.next_timer += 1;
        let timer = deadline.map(|at| (at, l.next_timer));
        if let Some(key) = timer {
            l.timers.insert(key, id);
        }
        let task = l.tasks.get_mut(&id).expect("the running task");
        (task.state, task.timer) = (State::Waiting, timer);
    });
    switch(me, node.sched.handle());
    with_local(|l| {
        if let Some(key) = l.tasks.get_mut(&id).and_then(|t| t.timer.take()) {
            l.timers.remove(&key);
        }
    });
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
        suspend(Some(deadline));
    }
}

/// The body of every task, on its stack: runs `f` as a member of
/// `group`, swallows the kill unwind, journals any other panic under the
/// task's name (the hook printed it), as the simulator does.
fn run_task(task: TaskRef, stack: Handle, name: &str, group: Option<Arc<GroupCore>>, f: Job) {
    if let Some(g) = &group {
        g.tasks.lock().push(task.clone());
    }
    let (node, id) = (Arc::clone(&task.node), task.id);
    let me = Current {
        task: task.clone(),
        stack,
        group: group.clone(),
    };
    CURRENT.with(|c| *c.borrow_mut() = Some(me));
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        check_killed();
        f()
    }));
    CURRENT.with(|c| c.borrow_mut().take());
    crate::trace::set_current_ctx(None);
    if let Some(g) = &group {
        g.tasks.lock().retain(|t| !t.is(&task));
        g.task_exit();
    }
    if let Err(payload) = result {
        if !payload.is::<KillSignal>() {
            let msg = crate::kernel::panic_message(&*payload);
            node.journal_as("proc", format!("panic in '{name}': {msg}"));
        }
    }
    with_local(|l| l.tasks.get_mut(&id).expect("the running task").state = State::Done);
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    Ready,
    Waiting,
    Done,
}

struct Task {
    stack: Stack,
    state: State,
    /// The timer of the wait it is parked in, if that has a deadline.
    timer: Option<(Instant, u64)>,
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
    tasks: HashMap<TaskId, Task>,
    next_task: TaskId,
    runnable: VecDeque<TaskId>,
    /// The deadlines of the waits tasks are parked in.
    timers: BTreeMap<(Instant, u64), TaskId>,
    next_timer: u64,
    stacks: StackPool,
    streams: HashMap<u64, Reading>,
    /// Where a read lands before its bytes are framed.
    scratch: Vec<u8>,
}

impl Local {
    fn wake(&mut self, id: TaskId) {
        if let Some(task) = self.tasks.get_mut(&id) {
            if task.state == State::Waiting {
                task.state = State::Ready;
                self.runnable.push_back(id);
            }
        }
    }
}

/// What other threads — and the loop's own tasks — hand the loop.
enum Post {
    /// A task to start, already counted into its group.
    Spawn(Arc<str>, Option<Arc<GroupCore>>, Job),
    Wake(TaskId),
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
            tasks: HashMap::new(),
            next_task: 0,
            runnable: VecDeque::new(),
            timers: BTreeMap::new(),
            next_timer: 0,
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
        while let Some(id) = with_local(|l| l.runnable.pop_front()) {
            node.resume(id);
        }
        let (woken, idle, next) = with_local(|l| {
            let now = Instant::now();
            while let Some(due) = l.timers.first_entry().filter(|e| e.key().0 <= now) {
                let id = due.remove();
                l.wake(id);
            }
            let next = l.timers.keys().next().map(|k| k.0);
            (!l.runnable.is_empty(), l.tasks.is_empty(), next)
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
    tasks: Vec<TaskRef>,
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
        for task in tasks {
            task.wake();
        }
        self.cv.notify_all();
    }

    /// Waits until `ready` finds what it wants, or `deadline` passes
    /// (`None`). A task suspends, and unwinds if its group is killed
    /// meanwhile; a thread blocks on the condvar.
    fn wait<T>(
        &self,
        deadline: Option<Instant>,
        mut ready: impl FnMut(&mut S) -> Option<T>,
    ) -> Option<T> {
        let me = current(|c| c.task.clone());
        let mut w = self.lock();
        loop {
            if group_killed() {
                drop(w);
                panic::resume_unwind(Box::new(KillSignal));
            }
            if let Some(found) = ready(&mut w.now) {
                return Some(found);
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return None;
            }
            match (&me, deadline) {
                (Some(task), _) => {
                    w.tasks.push(task.clone());
                    drop(w);
                    suspend(deadline);
                    w = self.lock();
                    w.tasks.retain(|t| !t.is(task));
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

    /// Closes the mailbox and wakes its receivers; whether it was open.
    fn close(&self) -> bool {
        let mut w = self.0.lock();
        if std::mem::replace(&mut w.now.1, true) {
            return false;
        }
        self.0.notify(w);
        true
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
// Cooperative kill: process groups as cancellation scopes.

/// Everything an endpoint needs closed when its owning group dies. A
/// detached handle (rather than the endpoint itself) so the group
/// registry imposes no lifetime on endpoints.
#[derive(Clone)]
struct EpHandle {
    port: u16,
    mailbox: Arc<Mailbox>,
    ports: PortMap,
}

/// Closes an endpoint: receives return `Closed` from now on, frames
/// arriving for the port bounce `Unreachable`, and a served port runs no
/// more handlers. Idempotent — only the first close owns the port map
/// entry; a later one would remove a successor's. The node's streams are
/// not the endpoint's to close: the rest of the node is sending over them.
fn close_port(ports: &PortMap, port: u16, mailbox: &Mailbox) {
    if mailbox.close() {
        ports.lock().remove(&port);
    }
}

/// Shared state of one real process group: the cancellation token, the
/// live-task count, the tasks to wake and the endpoints to close on kill.
struct GroupCore {
    id: u64,
    /// The node the group is rooted on (its flight recorder logs kills).
    node: NodeId,
    killed: AtomicBool,
    /// Tasks currently running in the group (incremented by the
    /// spawner before the task starts, so `alive` never reads a false
    /// zero between spawn and first schedule).
    live: AtomicUsize,
    /// When `kill` was called, for the kill-latency metric.
    killed_at: Mutex<Option<Instant>>,
    /// Endpoints owned by this group; closed on kill.
    eps: Mutex<Vec<EpHandle>>,
    /// The group's started tasks, woken on kill to unwind where they wait.
    tasks: Mutex<Vec<TaskRef>>,
    net: Weak<RealNet>,
}

impl GroupCore {
    fn killed(&self) -> bool {
        self.killed.load(Ordering::Relaxed)
    }

    fn kill(&self) {
        if self.killed.swap(true, Ordering::SeqCst) {
            return;
        }
        *self.killed_at.lock() = Some(Instant::now());
        if let Some(net) = self.net.upgrade() {
            net.journal(self.node, "proc", format!("group {} killed", self.id));
        }
        // Close every endpoint the group owns, so peers observe bounces
        // immediately — before the member tasks have even unwound.
        let eps = std::mem::take(&mut *self.eps.lock());
        for ep in eps {
            close_port(&ep.ports, ep.port, &ep.mailbox);
        }
        let tasks = self.tasks.lock().clone();
        for task in tasks {
            task.wake();
        }
    }

    /// Called as each member task ends; the last one out of a killed
    /// group stamps the kill-latency metric.
    fn task_exit(&self) {
        if self.live.fetch_sub(1, Ordering::SeqCst) == 1 && self.killed() {
            if let (Some(at), Some(net)) = (*self.killed_at.lock(), self.net.upgrade()) {
                let latency_us = (at.elapsed().as_micros() as u64).max(1);
                net.counter_add("real.net.kills", 1);
                // Sum of per-kill latencies; campaigns assert it nonzero
                // and divide by `real.net.kills` for the average.
                net.counter_add("real.net.kill_latency_us", latency_us);
                // The raw sample feeds the kill-latency histogram (E19).
                net.observe("real.net.kill_latency_us", latency_us);
                net.journal(
                    self.node,
                    "proc",
                    format!("group {} dead after {latency_us}us", self.id),
                );
            }
        }
    }
}

/// Counts one more live task into `group`; `false` if it has been killed
/// and the task must not start.
fn join_group(group: &Option<Arc<GroupCore>>) -> bool {
    if let Some(g) = group {
        if g.killed() {
            return false;
        }
        g.live.fetch_add(1, Ordering::SeqCst);
    }
    true
}

// ---------------------------------------------------------------------------
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
    trace: bool,
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
            trace: std::env::var_os("OCS_TRACE").is_some(),
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
            ports: Arc::new(Mutex::new(HashMap::new())),
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
            next_ephemeral: Mutex::new(crate::kernel::EPHEMERAL_BASE),
            core,
            groups: Mutex::new(Vec::new()),
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

    /// Installs or heals a symmetric partition between `a` and `b`.
    /// Takes effect on the next frame either way — partitions heal
    /// mid-campaign without touching connections.
    pub fn set_partitioned(&self, a: NodeId, b: NodeId, on: bool) {
        let mut t = self.faults.lock();
        if on {
            t.cut.insert(pair_key(a, b));
        } else {
            t.cut.remove(&pair_key(a, b));
        }
        self.refresh_any_faults(&t);
    }

    /// Installs a loss/dup/reorder/latency impairment on `a — b`.
    pub fn set_impairment(&self, a: NodeId, b: NodeId, imp: LinkImpairment) {
        let mut t = self.faults.lock();
        t.impair.insert(pair_key(a, b), imp);
        self.refresh_any_faults(&t);
    }

    /// Removes any impairment on `a — b`.
    pub fn clear_impairment(&self, a: NodeId, b: NodeId) {
        let mut t = self.faults.lock();
        t.impair.remove(&pair_key(a, b));
        self.refresh_any_faults(&t);
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

/// What a node does with a frame for one of its open ports.
#[derive(Clone)]
enum Port {
    /// Queues it for the endpoint's next `recv`.
    Mailbox(Arc<Mailbox>),
    /// Runs the handler on it in a task of its own.
    Served(Arc<Served>),
}

struct Served {
    task: Arc<str>,
    serving: Serving,
    /// The group the tasks join: the endpoint's owner when serving began.
    group: Option<Arc<GroupCore>>,
}

/// How a served port runs what lands on it.
enum Serving {
    /// [`Endpoint::serve`]: a frame runs the handler; bounces are dropped.
    Frames(FrameHandler),
    /// [`Endpoint::serve_inline`]: frames and bounces alike.
    Landings(LandingHandler),
}

type PortMap = Arc<Mutex<HashMap<u16, Port>>>;

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
    ports: PortMap,
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
            (None, Post::Spawn(name, group, _)) => {
                self.spawn_failed(&name, &group, "node stopped");
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

    /// Gives up a task its group counted already.
    fn spawn_failed(&self, name: &str, group: &Option<Arc<GroupCore>>, why: &str) {
        if let Some(g) = group {
            g.live.fetch_sub(1, Ordering::SeqCst);
        }
        self.net.counter_add("real.net.spawn_failed", 1);
        self.journal_as("proc", format!("spawn of '{name}' failed: {why}"));
    }

    fn handle(self: &Arc<Self>, post: Post) {
        match post {
            Post::Spawn(name, group, f) => {
                if let Some(id) = self.new_task(&name, group, f) {
                    with_local(|l| l.runnable.push_back(id));
                }
            }
            Post::Wake(id) => with_local(|l| l.wake(id)),
            Post::Stream(conn, peer) => with_local(|l| {
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
            }),
            Post::Flush(conn) => self.flush(&conn),
            Post::Stop => {}
        }
    }

    /// Primes a stack on this loop to run `f` as a task of `group`, which
    /// has counted it already; `None` if no stack could be mapped.
    fn new_task(
        self: &Arc<Self>,
        name: &Arc<str>,
        group: Option<Arc<GroupCore>>,
        f: Job,
    ) -> Option<TaskId> {
        let stack = match with_local(|l| l.stacks.take()) {
            Ok((stack, _)) => stack,
            Err(e) => {
                self.spawn_failed(name, &group, &e.to_string());
                return None;
            }
        };
        let id = with_local(|l| {
            l.next_task += 1;
            l.next_task
        });
        let node = Arc::clone(self);
        let (handle, name, sched) = (stack.handle(), Arc::clone(name), self.sched.handle());
        stack.prime(move || {
            run_task(TaskRef { node, id }, handle, &name, group, f);
            sched
        });
        let task = Task {
            stack,
            state: State::Ready,
            timer: None,
        };
        with_local(|l| l.tasks.insert(id, task));
        Some(id)
    }

    /// Runs task `id` until it waits or ends, if it is ready to run.
    fn resume(self: &Arc<Self>, id: TaskId) {
        let to = with_local(|l| {
            let task = l.tasks.get(&id)?;
            (task.state == State::Ready).then(|| task.stack.handle())
        });
        let Some(to) = to else { return };
        switch(self.sched.handle(), to);
        with_local(|l| {
            if l.tasks.get(&id).is_some_and(|t| t.state == State::Done) {
                let task = l.tasks.remove(&id).expect("just seen");
                l.stacks.give(task.stack);
            }
        });
    }

    fn accept(self: &Arc<Self>) {
        let accepted = match self.listener.lock().as_ref() {
            Some(listener) => listener.accept(),
            None => return,
        };
        // Who dialled is in the first frame, not in the address.
        if let Ok((stream, _)) = accepted {
            let _ = self.adopt_stream(stream, None);
        }
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
    /// started here and run until it first waits.
    fn deliver(self: &Arc<Self>, port: u16, landing: Landing) {
        let entry = self.ports.lock().get(&port).cloned();
        let (served, job): (_, Job) = match (entry, landing) {
            (Some(Port::Mailbox(mailbox)), landing) => {
                self.net.frames_queued.fetch_add(1, Ordering::Relaxed);
                return mailbox.push(landing);
            }
            (Some(Port::Served(served)), landing) => match (&served.serving, landing) {
                (Serving::Frames(handler), Ok((from, msg))) => {
                    let handler = Arc::clone(handler);
                    (served, Box::new(move || handler(from, msg)))
                }
                // A port served by `serve` drops bounces, as the receive
                // loop would.
                (Serving::Frames(_), Err(_)) => return,
                (Serving::Landings(handler), landing) => {
                    let handler = Arc::clone(handler);
                    (served, Box::new(move || handler(landing)))
                }
            },
            (None, Ok((from, _))) => {
                // Closed port on a live node: bounce, as the sim does —
                // over the node's stream to the sender, like any frame
                // (so a cut or lossy link drops bounces too).
                let _ = self.send_bytes(port, from, FRAME_UNREACH, &[]);
                return;
            }
            (None, Err(_)) => return,
        };
        if join_group(&served.group) {
            if let Some(id) = self.new_task(&served.task, served.group.clone(), job) {
                self.resume(id);
            }
        }
    }

    // -- The senders' side: any thread. -------------------------------------

    /// Starts `f` as a task in `group` on the node's loop.
    fn spawn_task(self: &Arc<Self>, name: &str, group: Option<Arc<GroupCore>>, f: Job) {
        if join_group(&group) {
            self.post(Post::Spawn(Arc::from(name), group, f));
        }
    }

    fn slot(&self, peer: NodeId) -> PeerSlot {
        Arc::clone(self.conns.lock().entry(peer).or_default())
    }

    /// Makes `stream` one of the node's own: sets it up for small frames
    /// both ways and for sends that never block, registers it for
    /// [`RealNode::stop`] and hands it to the loop to read to its end.
    fn adopt_stream(
        self: &Arc<Self>,
        stream: TcpStream,
        peer: Option<NodeId>,
    ) -> io::Result<Arc<Conn>> {
        stream.set_nodelay(true).ok();
        stream.set_nonblocking(true)?;
        let out = Mutex::new(Unsent::default());
        let stream = Arc::new(Conn { stream, out });
        {
            let mut streams = self.streams.lock();
            // `stop` raises the flag before it takes this lock, so either
            // it finds the stream here or we see the flag.
            if self.stopped.load(Ordering::SeqCst) {
                return Err(io::Error::other("node stopped"));
            }
            streams.push(Arc::clone(&stream));
        }
        self.post(Post::Stream(Arc::clone(&stream), peer));
        Ok(stream)
    }

    /// The first frame on an accepted stream named `peer`: this node's
    /// frames to `peer` go out on that stream from now on. Whatever the
    /// slot held loses: the peer dials only when it has no stream with
    /// us, so that one is either dead — torn down at the peer, its end
    /// not yet read here — or, when both sides dialled at once, as good
    /// as this one. It stays read to its end either way.
    fn offer_stream(&self, peer: NodeId, stream: &Arc<Conn>) {
        *self.slot(peer).lock() = Some(Arc::clone(stream));
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
            check_killed();
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
                let dialled = TcpStream::connect(sockaddr)
                    .and_then(|stream| self.adopt_stream(stream, Some(to.node)));
                match dialled {
                    Ok(stream) => {
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
    next_ephemeral: Mutex<u16>,
    /// The node's network, id, ports, streams and loop, shared with its
    /// endpoints and tasks.
    core: Arc<NodeCore>,
    /// Every group ever rooted on this node, for node-level crash.
    groups: Mutex<Vec<Weak<GroupCore>>>,
}

impl RealNode {
    /// Takes the node off the network: closes the listener and every
    /// stream the node dialled or accepted, so the peers' loops see them
    /// end. Later sends from its endpoints fail; nothing more arrives at
    /// them. The node's loop thread exits once its last task has ended;
    /// a task spawned after that never runs (`real.net.spawn_failed`).
    /// Also runs when the node is dropped.
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

    /// Kills every process group rooted on this node — the real-runtime
    /// counterpart of the simulator's `CrashNode`. The loop stays up, so
    /// frames to the dead services bounce (host alive, process dead).
    pub fn kill_all_groups(&self) {
        let groups: Vec<_> = self.groups.lock().clone();
        for g in groups {
            if let Some(g) = g.upgrade() {
                g.kill();
            }
        }
    }

    fn new_group(&self) -> Arc<GroupCore> {
        let core = Arc::new(GroupCore {
            id: self.core.net.next_group.fetch_add(1, Ordering::Relaxed),
            node: self.core.id,
            killed: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            killed_at: Mutex::new(None),
            eps: Mutex::new(Vec::new()),
            tasks: Mutex::new(Vec::new()),
            net: Arc::downgrade(&self.core.net),
        });
        self.groups.lock().push(Arc::downgrade(&core));
        core
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
        // Like fork: the child joins the spawner's group (if any).
        self.core.spawn_task(name, current_group(), f);
    }

    fn spawn_group(
        &self,
        name: &str,
        f: Box<dyn FnOnce() + Send>,
    ) -> Arc<dyn crate::rt::ProcGroup> {
        let core = self.new_group();
        self.core.spawn_task(name, Some(Arc::clone(&core)), f);
        Arc::new(RealProcGroup {
            core,
            ext: Arc::clone(&self.core.ext),
        })
    }

    fn open(&self, port: PortReq) -> Result<Arc<dyn Endpoint>, NetError> {
        let mut ports = self.core.ports.lock();
        let portno = match port {
            PortReq::Fixed(p) => {
                if ports.contains_key(&p) {
                    return Err(NetError::PortInUse(p));
                }
                p
            }
            PortReq::Ephemeral => {
                let mut next = self.next_ephemeral.lock();
                let mut cand = *next;
                while ports.contains_key(&cand) {
                    cand = cand.checked_add(1).unwrap_or(crate::kernel::EPHEMERAL_BASE);
                }
                *next = cand.checked_add(1).unwrap_or(crate::kernel::EPHEMERAL_BASE);
                cand
            }
        };
        let mailbox = Mailbox::new();
        ports.insert(portno, Port::Mailbox(Arc::clone(&mailbox)));
        drop(ports);
        let ep = Arc::new(RealEndpoint {
            node: self.core.id,
            port: portno,
            mailbox,
            core: Arc::clone(&self.core),
            owner_group: Mutex::new(None),
        });
        // The opener's group owns the endpoint until adopt/disown says
        // otherwise: killing the group closes it.
        ep.register_current_group();
        Ok(ep)
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

    fn trace(&self, msg: &str) {
        if self.core.net.trace {
            eprintln!("[{}] {}: {}", self.now(), self.core.id, msg);
        }
    }

    fn make_sync(&self) -> Arc<dyn crate::sync::SyncObj> {
        Arc::new(RealSyncObj(Waitable::new(0)))
    }

    fn extensions(&self) -> Arc<crate::rt::Extensions> {
        Arc::clone(&self.core.ext)
    }
}

/// Process-group handle for the real runtime: a cooperative cancellation
/// scope over the group's tasks and endpoints.
struct RealProcGroup {
    core: Arc<GroupCore>,
    /// The owning node's extension map, for the black-box dump.
    ext: Arc<crate::rt::Extensions>,
}

impl crate::rt::ProcGroup for RealProcGroup {
    fn alive(&self) -> bool {
        !self.core.killed() && self.core.live.load(Ordering::SeqCst) > 0
    }

    fn kill(&self) {
        let was_alive = !self.core.killed();
        self.core.kill();
        if was_alive {
            // Black box: dump the node's journal tail at the kill.
            let node = self.core.node;
            self.ext
                .get_or_init(|| crate::journal::Journal::new(node))
                .dump_tail(&format!("group {} kill", self.core.id));
        }
    }

    fn id(&self) -> u64 {
        self.core.id
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

/// A TCP-backed message endpoint.
pub struct RealEndpoint {
    node: NodeId,
    port: u16,
    mailbox: Arc<Mailbox>,
    core: Arc<NodeCore>,
    /// The group whose kill closes this endpoint; adopt/disown move it.
    owner_group: Mutex<Option<Weak<GroupCore>>>,
}

impl RealEndpoint {
    fn handle(&self) -> EpHandle {
        EpHandle {
            port: self.port,
            mailbox: Arc::clone(&self.mailbox),
            ports: Arc::clone(&self.core.ports),
        }
    }

    /// Registers the endpoint with the calling task's group (after
    /// deregistering from any previous owner).
    fn register_current_group(&self) {
        self.unregister();
        if let Some(g) = current_group() {
            g.eps.lock().push(self.handle());
            *self.owner_group.lock() = Some(Arc::downgrade(&g));
            if g.killed() {
                // Lost the race with a concurrent kill: close now, the
                // drain may already have passed us by.
                self.close();
            }
        }
    }

    fn unregister(&self) {
        if let Some(g) = self.owner_group.lock().take().and_then(|w| w.upgrade()) {
            g.eps.lock().retain(|h| h.port != self.port);
        }
    }

    /// Points the port's entry at its handler, in the owner's group.
    fn become_served(&self, task_name: &str, serving: Serving) {
        let group = self.owner_group.lock().as_ref().and_then(Weak::upgrade);
        let mut ports = self.core.ports.lock();
        // The entry of an open endpoint is its own; a closed one has
        // none, and must not take a successor's.
        if !self.mailbox.0.lock().now.1 {
            let served = Served {
                task: Arc::from(task_name),
                serving,
                group,
            };
            ports.insert(self.port, Port::Served(Arc::new(served)));
        }
    }
}

impl Endpoint for RealEndpoint {
    fn send(&self, to: Addr, msg: Bytes) -> Result<(), NetError> {
        self.core.send_bytes(self.port, to, FRAME_MSG, &msg)
    }

    fn recv(&self, timeout: Option<Duration>) -> Result<(Addr, Bytes), RecvError> {
        self.mailbox.pop(timeout)
    }

    fn local(&self) -> Addr {
        Addr::new(self.node, self.port)
    }

    fn close(&self) {
        close_port(&self.core.ports, self.port, &self.mailbox);
        self.unregister();
    }

    fn adopt(&self) {
        self.register_current_group();
    }

    fn disown(&self) {
        self.unregister();
    }

    /// The loop starts each frame's task where it reads the frame —
    /// whatever `inline` says: that costs no hand-off. The calling task
    /// spawns the handler on what reached the mailbox before this call,
    /// then only waits for the close.
    fn serve(
        &self,
        rt: &dyn NodeRt,
        task_name: &str,
        handler: FrameHandler,
        _inline: Option<InlineTest>,
    ) {
        self.become_served(task_name, Serving::Frames(Arc::clone(&handler)));
        let queued = std::mem::take(&mut self.mailbox.0.lock().now.0);
        for (from, msg) in queued.into_iter().flatten() {
            let handler = Arc::clone(&handler);
            rt.spawn(task_name, Box::new(move || handler(from, msg)));
        }
        while !matches!(self.mailbox.pop(None), Err(RecvError::Closed)) {}
    }

    fn serve_inline(&self, task_name: &str, handler: LandingHandler) {
        self.become_served(task_name, Serving::Landings(Arc::clone(&handler)));
        let queued = std::mem::take(&mut self.mailbox.0.lock().now.0);
        for landing in queued {
            handler(landing);
        }
    }
}

impl Drop for RealEndpoint {
    fn drop(&mut self) {
        self.close();
    }
}

// ---------------------------------------------------------------------------
// The real-runtime nemesis.

/// Replays a [`FaultPlan`] against a [`RealNet`] over the wall clock.
///
/// Link actions (partition/heal, impair/clear) map directly onto the
/// network's fault table. Node lifecycle actions map `CrashNode` onto
/// [`RealNode::kill_all_groups`] (the node's loop and listener stay up,
/// so the crash looks like every process dying on a live host);
/// `RestartNode` is the campaign driver's job — re-initialising software
/// is an operator action, exactly as in the simulator — so it only
/// reaches the `on_action` callback.
pub struct RealNemesis;

impl RealNemesis {
    /// Runs the plan to completion on the calling thread, sleeping to
    /// each action's time (the plan's virtual times are read as wall
    /// durations from now). `on_action` runs after each applied action.
    pub fn run_blocking<F>(net: &Arc<RealNet>, plan: &FaultPlan, mut on_action: F)
    where
        F: FnMut(&FaultEvent),
    {
        let start = Instant::now();
        for ev in plan.sorted_events() {
            let due = Duration::from_micros(ev.at.as_micros());
            if let Some(wait) = due.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            RealNemesis::apply(net, &ev.action);
            on_action(&ev);
        }
    }

    /// Applies one action to the real network.
    pub fn apply(net: &Arc<RealNet>, action: &FaultAction) {
        match *action {
            FaultAction::CrashNode(n) => {
                net.counter_add("nemesis.crash", 1);
                if let Some(node) = net.node_handle(n) {
                    node.kill_all_groups();
                }
            }
            FaultAction::RestartNode(n) => {
                // Software re-initialisation is the driver's job; the
                // host itself (the node's loop and listener) never went away.
                net.counter_add("nemesis.restart", 1);
                let _ = n;
            }
            FaultAction::Partition(a, b) => {
                net.counter_add("nemesis.partition", 1);
                net.set_partitioned(a, b, true);
            }
            FaultAction::Heal(a, b) => {
                net.counter_add("nemesis.heal", 1);
                net.set_partitioned(a, b, false);
            }
            FaultAction::Impair(a, b, imp) => {
                net.counter_add("nemesis.impair", 1);
                net.set_impairment(a, b, imp);
            }
            FaultAction::ClearImpair(a, b) => {
                net.counter_add("nemesis.clear_impair", 1);
                net.clear_impairment(a, b);
            }
        }
    }
}

/// The wall-clock wait: polls `cond` every 5 ms until it holds or
/// `limit` has passed, and returns whether it held. What a driver thread
/// waits on where the simulator's would step virtual time.
pub fn eventually(limit: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + limit;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
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

    #[test]
    fn simultaneous_dials_leave_at_most_two_streams_and_lose_nothing() {
        const FRAMES: u32 = 200;
        for round in 0..10 {
            let net = RealNet::new();
            let nodes = [net.add_node("a").unwrap(), net.add_node("b").unwrap()];
            let eps: Vec<_> = nodes
                .iter()
                .map(|n| n.open(PortReq::Fixed(100)).unwrap())
                .collect();
            // Neither has a stream with the other when both send.
            let start = Arc::new(std::sync::Barrier::new(2));
            let sides: Vec<_> = (0..2)
                .map(|me| {
                    let (ep, start) = (Arc::clone(&eps[me]), Arc::clone(&start));
                    let peer = eps[1 - me].local();
                    std::thread::spawn(move || {
                        start.wait();
                        for i in 0..FRAMES {
                            ep.send(peer, Bytes::from(i.to_le_bytes().to_vec()))
                                .unwrap();
                        }
                        let mut got = Vec::new();
                        while got.len() < FRAMES as usize {
                            let (from, msg) =
                                ep.recv(Some(Duration::from_secs(5))).expect("a frame");
                            assert_eq!(from, peer);
                            got.push(u32::from_le_bytes(msg[..].try_into().unwrap()));
                        }
                        // Nothing more: no frame went over both streams.
                        assert_eq!(
                            ep.recv(Some(Duration::from_millis(20))).unwrap_err(),
                            RecvError::TimedOut
                        );
                        got.sort_unstable();
                        got
                    })
                })
                .collect();
            for side in sides {
                let got = side.join().expect("sender thread");
                assert_eq!(got, (0..FRAMES).collect::<Vec<_>>(), "round {round}");
            }
            let opened = conn_opens(&net);
            assert!(
                (1..=2).contains(&opened),
                "round {round}: {opened} connections"
            );
        }
    }

    /// Serves `port` of `node` from a group of its own: every frame is
    /// echoed by a task that first reports the thread it runs on.
    fn spawn_served_echo(
        node: &Arc<RealNode>,
        port: u16,
        ran_on: std::sync::mpsc::Sender<String>,
        inline: Option<InlineTest>,
    ) -> (Arc<dyn crate::rt::ProcGroup>, Addr) {
        let ep = node.open(PortReq::Fixed(port)).unwrap();
        ep.disown();
        let addr = ep.local();
        let rt = Arc::clone(node) as Arc<dyn NodeRt>;
        let ran_on = Mutex::new(ran_on);
        let group = node.spawn_group(
            "svc",
            Box::new(move || {
                ep.adopt();
                let reply = Arc::clone(&ep);
                let handler = move |from, msg| {
                    ran_on.lock().send(thread_name()).unwrap();
                    let _ = reply.send(from, msg);
                };
                ep.serve(&*rt, "svc-worker", Arc::new(handler), inline);
            }),
        );
        (group, addr)
    }

    /// Waits until `node`'s `port` is served: before that, a frame waits
    /// in the mailbox for the serving task.
    fn wait_served(node: &RealNode, port: u16) {
        assert!(eventually(Duration::from_secs(5), || {
            matches!(node.core.ports.lock().get(&port), Some(Port::Served(_)))
        }));
    }

    #[test]
    fn a_served_port_runs_frames_on_its_loop_and_queues_none() {
        let net = RealNet::new();
        let a = net.add_node("a").unwrap();
        let b = net.add_node("b").unwrap();
        let (ran_on_tx, ran_on) = std::sync::mpsc::channel();
        let (group, b_addr) = spawn_served_echo(&b, 100, ran_on_tx, None);
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
            b.core.ports.lock().is_empty(),
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
        let (group, b_addr) = spawn_served_echo(&b, 100, ran_on_tx, Some(brief));
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
        relay.serve_inline(
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
        let plan = FaultPlan::new().partition(
            a.node(),
            b.node(),
            SimTime::from_micros(0),
            SimTime::from_micros(1_000),
        );
        RealNemesis::run_blocking(&net, &plan, |_| {});
        // Plan fully executed: partition installed, then healed.
        let counters = net.counters();
        assert_eq!(counters.get("nemesis.partition"), Some(&1));
        assert_eq!(counters.get("nemesis.heal"), Some(&1));
        assert!(!net.faults.lock().any(), "plan left faults installed");
    }
}
