//! The real runtime: OS threads, the wall clock, and TCP on loopback.
//!
//! [`RealNet`] plays the role of the simulated network: it maps [`NodeId`]s
//! to TCP listeners on `127.0.0.1`. Each node runs a router thread that
//! accepts connections, and every stream — accepted or dialled — has a
//! `conn-reader` thread that delivers its length-prefixed frames to the
//! node's ports. Endpoint semantics mirror the simulation: datagram-like
//! sends, blocking receives with timeouts, and `Unreachable` bounces when
//! a frame arrives for a closed port.
//!
//! ## Tasks and threads
//!
//! Every [`NodeRt::spawn`] is a task of its own — its own closure, group
//! membership and live count — on an OS thread taken from the node's
//! carrier pool (`carrier.rs`): the thread the previous task left, or a
//! new one when none is parked. `alive()`, kill latency and the
//! `real.net.kills` counters are all per task. The router, the
//! connection readers and the delay line are not tasks and keep threads
//! of their own. `real.net.threads_spawned` counts the threads the pools
//! had to start, `real.net.spawn_failed` the tasks lost because the OS
//! refused one (journalled on the node's `proc` channel).
//!
//! A port is one of two things to a reader. An endpoint somebody
//! [`recv`](Endpoint::recv)s from has a mailbox: the reader queues the
//! frame (`real.net.frames_queued`) and wakes the receiver. A *served*
//! endpoint ([`Endpoint::serve`], the ORB's `PerRequest` request port)
//! has a handler: the reader starts it on a carrier as a task of the
//! endpoint's owner group, one wake-up from socket to servant, and the
//! serving task only waits for the port to close. The reader does not
//! run a handler itself because it is short: a servant may place a
//! nested call whose reply arrives on the very stream this reader is the
//! only one reading. It runs the frames the endpoint's [`InlineTest`]
//! passes — those whose handler, by its owner's word, waits for no other
//! frame (a replica's `prepare` and heartbeat are the ones in the tree):
//! same task accounting, no carrier, and a stream's inline frames are
//! handled one at a time in the order they were sent, so a receiver that
//! fell behind works its backlog off on the one thread instead of
//! starting a carrier per queued frame. A port served with
//! [`Endpoint::serve_inline`] has every frame, and every bounce of a
//! frame it sent, run that way.
//!
//! An inline handler writes: its reply, on the stream its request came
//! on, and whatever else it sends, on other streams; the write timeout
//! bounds each like any other. What it never does is wait to connect:
//! a reader's send writes only into a stream the node already holds
//! with the peer, and hands a frame that finds none — or whose write
//! fails — to a carrier, which dials and backs off as any sender does.
//! A frame every attempt was refused for comes back to its port as a
//! bounce.
//!
//! ## Connection lifetime
//!
//! Two nodes share one `TcpStream`, used both ways by every endpoint,
//! RPC, reply and bounce between them. A node sends to a peer over the
//! stream it has with it — dialled or accepted — and dials only when it
//! has none ([`FrameSender`]'s slot for the peer is empty): the first
//! frame there opens the stream, and the first frame *on* an accepted
//! stream tells the accepting node who dialled, so its frames to that
//! peer go back out on it. Replies therefore ride the stream the request
//! came on, and a reply carries the request's TCP ACK instead of each
//! drawing one of its own. Two nodes that dial each other at the same
//! instant end up with two streams; both stay read at both ends, each
//! node writes on the one it accepted, and nothing is lost or doubled.
//! A frame is one `write` under the peer's slot lock, so frames of
//! concurrent senders never interleave, and per-stream order is send
//! order.
//!
//! * A **kill** closes the group's *ports*; the node's streams stay up
//!   for its sibling groups, and frames for the dead ports bounce.
//! * A **reset storm** or a failed write shuts the stream down — both
//!   directions of it; the frame in hand is resent over a fresh one
//!   (counted in `real.net.resets` and journalled with its reconnect),
//!   and the peer, whose reader sees the stream end, dials for its next.
//! * A reader that reaches the end of its stream takes the stream out of
//!   the peer's slot (`real.net.resets`, `conn to <peer> closed by the
//!   peer` in the journal), so no frame is written into a stream known
//!   to be dead.
//! * [`RealNode::stop`] (or dropping the node) closes the listener, then
//!   shuts every stream the node dialled or accepted: its router and
//!   reader threads and its parked carriers exit, and the peers' readers
//!   of those streams see EOF and clear their slots. A peer's next frame
//!   to the node dials, is refused, and surfaces
//!   [`NetError::PeerRefused`] (or [`NetError::SendFailed`]) within the
//!   reconnect budget — the first frame, not some later one, so an ORB
//!   call to a stopped node fails at once instead of timing out.
//!
//! ## Fault parity with the simulator
//!
//! The same failure machinery the simulator exposes works here, in wall
//! time:
//!
//! * **Cooperative kill.** [`crate::rt::ProcGroup::kill`] is real: every
//!   thread of the group unwinds at its next cancellation point — a
//!   [`NodeRt::sleep`], a blocking [`Endpoint::recv`], a
//!   [`crate::sync::SyncObj`] wait, or an explicit
//!   [`NodeRt::cancelled`] poll — and the group's endpoints close
//!   immediately, so in-flight frames from peers bounce
//!   ([`RecvError::Unreachable`]) rather than time out. The unwind rides
//!   a private panic payload through `resume_unwind` (no panic hook, no
//!   spew), exactly like the simulator's kill path.
//! * **Link faults.** [`RealNet::set_partitioned`],
//!   [`RealNet::set_impairment`] and [`RealNet::set_reset_storm`]
//!   install per-node-pair faults applied under every send: partitions
//!   drop silently (an RPC sees a timeout, as across a real cut),
//!   impairments drop/duplicate/delay frames on a monotonic-clock delay
//!   line, and reset storms tear down the node's stream with the peer
//!   before every send.
//!   The table is guarded by one relaxed atomic, so the fault-free send
//!   path pays a single load.
//! * **[`RealNemesis`]** replays a [`FaultPlan`] against the real
//!   network over the wall clock, mapping link actions onto the fault
//!   table and handing node lifecycle actions to the campaign driver.
//!
//! Service code written against [`NodeRt`] runs unchanged on either
//! runtime; see `examples/tcp_cluster.rs` for a full cluster on TCP.

use std::cell::{Cell, RefCell};
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use rand::{Rng, RngExt};

use crate::backoff::RetryPolicy;
use crate::carrier::Carriers;
use crate::fault::{FaultAction, FaultEvent, FaultPlan};
use crate::kernel::LinkImpairment;
use crate::rt::{
    Addr, Endpoint, FrameHandler, InlineTest, LandingHandler, NetError, NodeId, NodeRt, PortReq,
    RecvError,
};
use crate::time::SimTime;

/// Frame kinds on the wire.
const FRAME_MSG: u8 = 0;
const FRAME_UNREACH: u8 = 1;

/// Header byte 13, bit 0: the frame came over a stream its sender closes
/// behind it (the delay line's), so nothing may be written back on it.
const FLAG_ONE_SHOT: u8 = 1;

/// How often blocked group members wake to poll their kill flag. Bounds
/// the cooperative-kill latency of a thread parked in a receive or sync
/// wait that nothing else will interrupt.
const KILL_POLL: Duration = Duration::from_millis(25);

/// Reconnect attempts per send before giving up on the peer.
const RECONNECT_ATTEMPTS: u32 = 4;

/// Backoff between reconnect attempts at an unresponsive peer: jittered
/// exponential, tuned tight for loopback round-trips.
const RECONNECT_POLICY: RetryPolicy = RetryPolicy {
    base: Duration::from_millis(5),
    cap: Duration::from_millis(50),
};

enum Delivered {
    Msg(Addr, Bytes),
    Unreach(Addr),
}

fn deliver(item: Delivered) -> Result<(Addr, Bytes), RecvError> {
    match item {
        Delivered::Msg(from, msg) => Ok((from, msg)),
        Delivered::Unreach(addr) => Err(RecvError::Unreachable(addr)),
    }
}

/// Until when a blocked thread may sleep before it looks at its kill
/// flag and its deadline again: the deadline, but for a group member no
/// later than [`KILL_POLL`] from `now`. `None`: until it is woken.
fn next_look(in_group: bool, deadline: Option<Instant>, now: Instant) -> Option<Instant> {
    let poll = in_group.then(|| now + KILL_POLL);
    match (poll, deadline) {
        (Some(p), Some(d)) => Some(p.min(d)),
        (p, d) => p.or(d),
    }
}

/// Where the frames for an endpoint that `recv`s wait for it.
struct Mailbox {
    queue: Mutex<VecDeque<Delivered>>,
    cv: Condvar,
    /// Set when the endpoint closes or its owning group is killed.
    closed: AtomicBool,
}

impl Mailbox {
    fn new() -> Arc<Mailbox> {
        Arc::new(Mailbox {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            closed: AtomicBool::new(false),
        })
    }

    fn push(&self, item: Delivered) {
        self.queue.lock().push_back(item);
        self.cv.notify_one();
    }

    /// Closes the mailbox and wakes its receivers; whether it was open.
    fn close(&self) -> bool {
        // Under the queue lock, or a receiver between its check of the
        // flag and its wait would sleep through the wake-up.
        let _queue = self.queue.lock();
        let was_open = !self.closed.swap(true, Ordering::SeqCst);
        self.cv.notify_all();
        was_open
    }

    /// The one blocking receive: honours the deadline, the close, and —
    /// for a group member, within [`KILL_POLL`] even if nothing else
    /// wakes it — the kill.
    fn pop(&self, timeout: Option<Duration>) -> Result<Delivered, RecvError> {
        let group = current_group();
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut queue = self.queue.lock();
        loop {
            if group.as_ref().is_some_and(|g| g.killed()) {
                drop(queue);
                panic::resume_unwind(Box::new(KillSignal));
            }
            if self.closed.load(Ordering::Relaxed) {
                return Err(RecvError::Closed);
            }
            // Before the deadline, so a zero-timeout poll still sees
            // what is queued.
            if let Some(item) = queue.pop_front() {
                return Ok(item);
            }
            let now = Instant::now();
            if deadline.is_some_and(|d| now >= d) {
                return Err(RecvError::TimedOut);
            }
            match next_look(group.is_some(), deadline, now) {
                Some(t) => {
                    let _ = self.cv.wait_until(&mut queue, t);
                }
                None => self.cv.wait(&mut queue),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Cooperative kill: process groups as cancellation scopes.

/// Panic payload carried by `resume_unwind` to tear down a thread whose
/// group was killed. `resume_unwind` does not run the panic hook, so a
/// kill produces no panic output; the spawn wrappers catch and swallow
/// it.
struct KillSignal;

thread_local! {
    /// The process group of the current thread, inherited across
    /// [`NodeRt::spawn`] like a fork.
    static CURRENT_GROUP: RefCell<Option<Arc<GroupCore>>> = const { RefCell::new(None) };
    /// Set on a connection reader's thread: its sends never wait to dial
    /// (`FrameSender::send_bytes`).
    static ON_READER: Cell<bool> = const { Cell::new(false) };
}

fn current_group() -> Option<Arc<GroupCore>> {
    CURRENT_GROUP.with(|g| g.borrow().clone())
}

/// Takes this thread out of any group: a carrier between two tasks.
pub(crate) fn clear_current_group() {
    CURRENT_GROUP.with(|g| *g.borrow_mut() = None);
}

fn group_killed() -> bool {
    CURRENT_GROUP.with(|g| g.borrow().as_ref().is_some_and(|g| g.killed()))
}

/// Unwinds the calling thread if its group has been killed: the explicit
/// cancellation point, also reachable through [`NodeRt::cancelled`].
fn check_killed() {
    if group_killed() {
        panic::resume_unwind(Box::new(KillSignal));
    }
}

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
/// live-thread count, and the endpoints to close on kill.
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
    /// Wakes group members out of cancellable sleeps.
    lock: Mutex<()>,
    cv: Condvar,
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
        // immediately — before the member threads have even reached
        // their next cancellation point.
        let eps = std::mem::take(&mut *self.eps.lock());
        for ep in eps {
            close_port(&ep.ports, ep.port, &ep.mailbox);
        }
        // Wake sleepers so they observe the flag and unwind.
        let _guard = self.lock.lock();
        self.cv.notify_all();
    }

    /// Cancellable sleep on the group's condvar (kill notifies it).
    fn sleep(&self, d: Duration) {
        let deadline = Instant::now() + d;
        let mut guard = self.lock.lock();
        loop {
            if self.killed() {
                drop(guard);
                panic::resume_unwind(Box::new(KillSignal));
            }
            if self.cv.wait_until(&mut guard, deadline).timed_out() {
                break;
            }
        }
        drop(guard);
        if self.killed() {
            panic::resume_unwind(Box::new(KillSignal));
        }
    }

    /// Called as each member task ends; the last one out of a killed
    /// group stamps the kill-latency metric.
    fn thread_exit(&self) {
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

/// Sleeps `d`, unwinding early if the calling thread's group is killed
/// meanwhile. Threads outside any group sleep plainly.
fn cancellable_sleep(d: Duration) {
    match current_group() {
        None => std::thread::sleep(d),
        Some(g) => g.sleep(d),
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

/// Runs one task on the calling thread — its carrier, or the reader of
/// an inline frame: installs the group as the thread's cancellation
/// scope, swallows the kill unwind, and retires the task from the
/// group's live count. A cooperative kill is a quiet exit; any other
/// panic already ran the panic hook (which printed) and is journalled
/// here under the task's name, as the simulator does.
fn run_in_group(
    sender: &FrameSender,
    name: &str,
    group: Option<Arc<GroupCore>>,
    f: Box<dyn FnOnce() + Send>,
) {
    CURRENT_GROUP.with(|g| *g.borrow_mut() = group.clone());
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    if let Some(g) = &group {
        g.thread_exit();
    }
    if let Err(payload) = result {
        if !payload.is::<KillSignal>() {
            let msg = crate::kernel::panic_message(&*payload);
            sender.journal_as("proc", format!("panic in '{name}': {msg}"));
        }
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

/// A frame parked on the delay line until its due time.
struct DelayedFrame {
    due: Instant,
    seq: u64,
    to: SocketAddr,
    bytes: Vec<u8>,
}

impl PartialEq for DelayedFrame {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for DelayedFrame {}
impl PartialOrd for DelayedFrame {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for DelayedFrame {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the earliest due.
        other.due.cmp(&self.due).then(other.seq.cmp(&self.seq))
    }
}

/// Monotonic-clock frame scheduler for impaired links: delayed frames
/// are heaped by due time and written late over fresh connections by a
/// single background thread. Each connection closes behind its frame, so
/// the frame is marked [`FLAG_ONE_SHOT`]: the receiver must not take the
/// stream for its own to the sender.
struct DelayLine {
    heap: Mutex<BinaryHeap<DelayedFrame>>,
    cv: Condvar,
    seq: AtomicU64,
}

impl DelayLine {
    fn start() -> Arc<DelayLine> {
        let line = Arc::new(DelayLine {
            heap: Mutex::new(BinaryHeap::new()),
            cv: Condvar::new(),
            seq: AtomicU64::new(0),
        });
        let worker = Arc::clone(&line);
        let _ = std::thread::Builder::new()
            .name("delay-line".into())
            .spawn(move || worker.run());
        line
    }

    fn push(&self, due: Instant, to: SocketAddr, mut bytes: Vec<u8>) {
        bytes[13] |= FLAG_ONE_SHOT;
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.heap.lock().push(DelayedFrame {
            due,
            seq,
            to,
            bytes,
        });
        self.cv.notify_one();
    }

    fn run(&self) {
        let mut heap = self.heap.lock();
        loop {
            match heap.peek() {
                None => self.cv.wait(&mut heap),
                Some(top) if top.due <= Instant::now() => {
                    let f = heap.pop().expect("peeked");
                    drop(heap);
                    // Best effort, like any frame: the peer may be gone.
                    if let Ok(mut s) = TcpStream::connect(f.to) {
                        let _ = s.write_all(&f.bytes);
                    }
                    heap = self.heap.lock();
                }
                Some(top) => {
                    let due = top.due;
                    let _ = self.cv.wait_until(&mut heap, due);
                }
            }
        }
    }
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
    next_node: Mutex<u32>,
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
    delay: Mutex<Option<Arc<DelayLine>>>,
}

impl RealNet {
    /// Creates an empty network registry.
    pub fn new() -> Arc<RealNet> {
        Arc::new(RealNet {
            epoch: Instant::now(),
            directory: Mutex::new(HashMap::new()),
            nodes: Mutex::new(HashMap::new()),
            next_node: Mutex::new(1),
            next_group: AtomicU64::new(1),
            counters: Mutex::new(Default::default()),
            frames_queued: AtomicU64::new(0),
            samples: Mutex::new(Default::default()),
            trace: std::env::var_os("OCS_TRACE").is_some(),
            faults: Mutex::new(FaultTable::default()),
            any_faults: AtomicBool::new(false),
            delay: Mutex::new(None),
        })
    }

    /// Creates a node: binds a listener on an OS-assigned loopback port
    /// and starts its router thread.
    pub fn add_node(self: &Arc<Self>, name: &str) -> std::io::Result<Arc<RealNode>> {
        let id = {
            let mut n = self.next_node.lock();
            let id = NodeId(*n);
            *n += 1;
            id
        };
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let local = listener.local_addr()?;
        self.directory.lock().insert(id, local);
        let ext = Arc::new(crate::rt::Extensions::new());
        let node = Arc::new(RealNode {
            net: Arc::clone(self),
            id,
            name: name.to_string(),
            next_ephemeral: Mutex::new(crate::kernel::EPHEMERAL_BASE),
            sender: Arc::new(FrameSender {
                net: Arc::clone(self),
                id,
                ext: Arc::clone(&ext),
                stopped: AtomicBool::new(false),
                ports: Arc::new(Mutex::new(HashMap::new())),
                conns: Mutex::new(HashMap::new()),
                streams: Mutex::new(Vec::new()),
                carriers: Carriers::new(&format!("{name}-carrier"), None),
            }),
            router: Mutex::new(None),
            groups: Mutex::new(Vec::new()),
            ext,
        });
        self.nodes.lock().insert(id, Arc::downgrade(&node));
        let sender = Arc::clone(&node.sender);
        let router = std::thread::Builder::new()
            .name(format!("router-{name}"))
            .spawn(move || router_main(listener, sender))?;
        *node.router.lock() = Some(router);
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
            let j = n.ext.get_or_init(|| crate::journal::Journal::new(node));
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

    /// Parks a raw frame on the delay line until `due`.
    fn delay_frame(&self, due: Instant, to: SocketAddr, bytes: Vec<u8>) {
        let line = {
            let mut slot = self.delay.lock();
            Arc::clone(slot.get_or_insert_with(DelayLine::start))
        };
        line.push(due, to, bytes);
        self.counter_add("real.net.delayed", 1);
    }
}

/// What a node does with a frame for one of its open ports.
#[derive(Clone)]
enum Port {
    /// Queues it for the endpoint's next `recv`.
    Mailbox(Arc<Mailbox>),
    /// Runs the handler on it in a task of its own ([`Endpoint::serve`]).
    Served(Arc<Served>),
}

struct Served {
    task: String,
    serving: Serving,
    /// The group the tasks join: the endpoint's owner when serving began.
    group: Option<Arc<GroupCore>>,
}

/// How a served port runs what lands on it.
enum Serving {
    /// [`Endpoint::serve`]: a frame runs `handler` on a carrier, or on the
    /// reader that read it if `inline` passes it; bounces are dropped.
    Spawn {
        handler: FrameHandler,
        inline: Option<InlineTest>,
    },
    /// [`Endpoint::serve_inline`]: frames and bounces alike, on the reader.
    Inline(LandingHandler),
}

type PortMap = Arc<Mutex<HashMap<u16, Port>>>;

fn router_main(listener: TcpListener, sender: Arc<FrameSender>) {
    // Accept until the node stops; each stream gets a reader thread that
    // lives as long as the stream does.
    for conn in listener.incoming() {
        if sender.stopped.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        // Who dialled is in the first frame, not in the socket address.
        let _ = sender.adopt_stream(stream, None);
    }
}

/// Reads `stream` to its end. `peer` is the node at the other end, once
/// known: from the start on a stream this node dialled, from the first
/// frame on one it accepted.
fn reader_main(stream: &Arc<TcpStream>, mut peer: Option<NodeId>, sender: &Arc<FrameSender>) {
    read_frames(stream, &mut peer, sender);
    // EOF, a read error or `stop`: nothing written to it will arrive.
    if let Some(peer) = peer {
        sender.forget_stream(peer, stream);
    }
}

fn read_frames(stream: &Arc<TcpStream>, peer: &mut Option<NodeId>, sender: &Arc<FrameSender>) {
    // Buffered: a small frame's header and payload arrive in one read.
    let mut reader = BufReader::new(&**stream);
    let mut hdr = [0u8; 15];
    loop {
        // The stream was registered before this check and `stop` raises
        // the flag before it shuts the registered streams, so one of the
        // two ends us.
        if sender.stopped.load(Ordering::SeqCst) {
            return;
        }
        if reader.read_exact(&mut hdr).is_err() {
            return;
        }
        let kind = hdr[0];
        let len = u32::from_le_bytes([hdr[1], hdr[2], hdr[3], hdr[4]]) as usize;
        let src_node = NodeId(u32::from_le_bytes([hdr[5], hdr[6], hdr[7], hdr[8]]));
        let src_port = u16::from_le_bytes([hdr[9], hdr[10]]);
        let dst_port = u16::from_le_bytes([hdr[11], hdr[12]]);
        if len > 64 * 1024 * 1024 {
            return; // Corrupt frame; drop the connection.
        }
        let mut payload = vec![0u8; len];
        if reader.read_exact(&mut payload).is_err() {
            return;
        }
        if peer.is_none() {
            *peer = Some(src_node);
            if hdr[13] & FLAG_ONE_SHOT == 0 {
                sender.offer_stream(src_node, stream);
            }
        }
        let from = Addr::new(src_node, src_port);
        let port = sender.ports.lock().get(&dst_port).cloned();
        let item = match kind {
            FRAME_MSG => Delivered::Msg(from, Bytes::from(payload)),
            FRAME_UNREACH => Delivered::Unreach(from),
            _ => continue,
        };
        match (port, item) {
            (Some(Port::Mailbox(mailbox)), item) => {
                sender.net.frames_queued.fetch_add(1, Ordering::Relaxed);
                mailbox.push(item);
            }
            (Some(Port::Served(served)), item) => sender.run_served(&served, item),
            (None, Delivered::Msg(..)) => {
                // Closed port on a live node: bounce, as the sim does —
                // over the node's stream to the sender, like any frame
                // (so a cut or lossy link drops bounces too).
                let _ = sender.send_bytes(dst_port, from, FRAME_UNREACH, &[]);
            }
            (None, Delivered::Unreach(_)) => {}
        }
    }
}

/// A complete wire frame as one buffer, so it goes out as one `write`.
fn frame_bytes(
    kind: u8,
    src_node: NodeId,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(15 + payload.len());
    buf.push(kind);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&src_node.0.to_le_bytes());
    buf.extend_from_slice(&src_port.to_le_bytes());
    buf.extend_from_slice(&dst_port.to_le_bytes());
    buf.extend_from_slice(&[0, 0]); // flags, reserved
    buf.extend_from_slice(payload);
    buf
}

/// A host on the real runtime. Implements [`NodeRt`].
pub struct RealNode {
    net: Arc<RealNet>,
    id: NodeId,
    name: String,
    next_ephemeral: Mutex<u16>,
    /// The node's ports, streams and carriers, shared with its endpoints
    /// and readers.
    sender: Arc<FrameSender>,
    /// The accept loop's thread, which owns the listener.
    router: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Every group ever rooted on this node, for node-level crash.
    groups: Mutex<Vec<Weak<GroupCore>>>,
    ext: Arc<crate::rt::Extensions>,
}

impl RealNode {
    /// Takes the node off the network: closes the listener and every
    /// stream the node dialled or accepted, so its router and reader
    /// threads (and the peers' readers of the same streams) exit. Later sends
    /// from its endpoints fail; nothing more arrives at them. The node's
    /// parked carrier threads exit too, and a busy one when its task
    /// ends: a task spawned afterwards runs on a thread of its own. Also
    /// runs when the node is dropped.
    pub fn stop(&self) {
        if self.sender.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        // Not joined: a task outside any group may block for ever.
        drop(self.sender.carriers.retire());
        // The listener goes first, so a peer that sees its stream end
        // and dials again is refused rather than left in the backlog:
        // poke it so the accept loop observes the flag, and wait for the
        // loop to drop it.
        let poked = self.net.lookup(self.id).map(TcpStream::connect);
        if let (Some(Ok(_)), Some(router)) = (poked, self.router.lock().take()) {
            let _ = router.join();
        }
        // Each reader drops its stream from the registry, and from the
        // peer's slot, as the shutdown ends it.
        for stream in self.sender.streams.lock().iter() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// The node's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The network this node belongs to.
    pub fn net(&self) -> &Arc<RealNet> {
        &self.net
    }

    /// Kills every process group rooted on this node — the real-runtime
    /// counterpart of the simulator's `CrashNode`. The router stays up,
    /// so frames to the dead services bounce (host alive, process dead).
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
            id: self.net.next_group.fetch_add(1, Ordering::Relaxed),
            node: self.id,
            killed: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            killed_at: Mutex::new(None),
            eps: Mutex::new(Vec::new()),
            lock: Mutex::new(()),
            cv: Condvar::new(),
            net: Arc::downgrade(&self.net),
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
        SimTime::from_micros(self.net.epoch.elapsed().as_micros() as u64)
    }

    fn sleep(&self, d: Duration) {
        cancellable_sleep(d);
    }

    fn spawn(&self, name: &str, f: Box<dyn FnOnce() + Send>) {
        // Like fork: the child joins the spawner's group (if any).
        self.sender.spawn_task(name, current_group(), f);
    }

    fn spawn_group(
        &self,
        name: &str,
        f: Box<dyn FnOnce() + Send>,
    ) -> Arc<dyn crate::rt::ProcGroup> {
        let core = self.new_group();
        self.sender.spawn_task(name, Some(Arc::clone(&core)), f);
        Arc::new(RealProcGroup {
            core,
            ext: Arc::clone(&self.ext),
        })
    }

    fn open(&self, port: PortReq) -> Result<Arc<dyn Endpoint>, NetError> {
        let mut ports = self.sender.ports.lock();
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
            node: self.id,
            port: portno,
            mailbox,
            sender: Arc::clone(&self.sender),
            owner_group: Mutex::new(None),
        });
        // The opener's group owns the endpoint until adopt/disown says
        // otherwise: killing the group closes it.
        ep.register_current_group();
        Ok(ep)
    }

    fn node(&self) -> NodeId {
        self.id
    }

    fn rand_u64(&self) -> u64 {
        rand::rng().next_u64()
    }

    fn cancelled(&self) -> bool {
        group_killed()
    }

    fn trace(&self, msg: &str) {
        if self.net.trace {
            eprintln!("[{}] {}: {}", self.now(), self.id, msg);
        }
    }

    fn make_sync(&self) -> Arc<dyn crate::sync::SyncObj> {
        Arc::new(RealSyncObj {
            gen: Mutex::new(0),
            cv: parking_lot::Condvar::new(),
        })
    }

    fn extensions(&self) -> Arc<crate::rt::Extensions> {
        Arc::clone(&self.ext)
    }
}

/// Process-group handle for the real runtime: a cooperative cancellation
/// scope over the group's threads and endpoints.
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

/// Condvar-backed wait/notify object for the real runtime. Group members
/// poll their kill flag while waiting, so a kill cancels the wait within
/// [`KILL_POLL`].
struct RealSyncObj {
    gen: Mutex<u64>,
    cv: parking_lot::Condvar,
}

impl crate::sync::SyncObj for RealSyncObj {
    fn generation(&self) -> u64 {
        *self.gen.lock()
    }

    fn wait_newer(&self, seen: u64, timeout: Option<Duration>) -> u64 {
        let group = current_group();
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut g = self.gen.lock();
        while *g <= seen {
            if let Some(grp) = &group {
                if grp.killed() {
                    drop(g);
                    panic::resume_unwind(Box::new(KillSignal));
                }
            }
            let now = Instant::now();
            if deadline.is_some_and(|d| now >= d) {
                break;
            }
            match next_look(group.is_some(), deadline, now) {
                Some(t) => {
                    let _ = self.cv.wait_until(&mut g, t);
                }
                None => self.cv.wait(&mut g),
            }
        }
        *g
    }

    fn bump(&self) {
        *self.gen.lock() += 1;
        self.cv.notify_all();
    }
}

/// What a node's handle, endpoints and stream readers share: its port
/// map, its streams and its carrier threads.
///
/// `conns` maps each peer to its own lock slot, holding the stream this
/// node writes to that peer on. The map lock is held only long enough to
/// find or insert the slot; the `connect` and the frame write happen
/// under that peer's lock alone, and the back-off between reconnect
/// attempts under no lock at all — so one dead or slow peer stalls
/// neither sends to the others nor, beyond its own refused `connect`s,
/// the other senders to itself.
struct FrameSender {
    net: Arc<RealNet>,
    id: NodeId,
    /// The node's extension map, for its flight recorder.
    ext: Arc<crate::rt::Extensions>,
    /// Set by [`RealNode::stop`]: no stream is opened or written after.
    stopped: AtomicBool,
    ports: PortMap,
    conns: Mutex<HashMap<NodeId, PeerSlot>>,
    /// Every stream with a reader on it, dialled or accepted, so that
    /// [`RealNode::stop`] can shut them all.
    streams: Mutex<Vec<Arc<TcpStream>>>,
    /// The OS threads under the node's spawned tasks.
    carriers: Carriers,
}

type PeerSlot = Arc<Mutex<Option<Arc<TcpStream>>>>;

/// How long one frame write may stall on a full socket buffer before the
/// stream counts as broken. Readers drain their streams unconditionally,
/// so only a wedged peer gets here; the bound keeps it from wedging us.
const WRITE_STALL: Duration = Duration::from_secs(5);

impl FrameSender {
    /// Appends to the node's flight recorder. Not through
    /// [`RealNet::journal`]: that upgrades the node handle, and a sender
    /// must never become the node's last owner — dropping it stops the
    /// node, which takes the slot lock the sender may be holding.
    fn journal(&self, detail: String) {
        self.journal_as("real.net", detail);
    }

    fn journal_as(&self, category: &'static str, detail: String) {
        self.ext
            .get_or_init(|| crate::journal::Journal::new(self.id))
            .record(self.net.now(), category, detail);
    }

    /// Starts `f` as a task in `group` on one of the node's carriers.
    fn spawn_task(
        self: &Arc<Self>,
        name: &str,
        group: Option<Arc<GroupCore>>,
        f: Box<dyn FnOnce() + Send>,
    ) {
        if !join_group(&group) {
            return; // A dead group spawns nothing.
        }
        let job = {
            let sender = Arc::clone(self);
            let task = name.to_string();
            let group = group.clone();
            Box::new(move || run_in_group(&sender, &task, group, f))
        };
        match self.carriers.run(job) {
            Ok(false) => {}
            Ok(true) => self.net.counter_add("real.net.threads_spawned", 1),
            Err(e) => {
                // The closure — somebody's request — is gone.
                if let Some(g) = &group {
                    g.live.fetch_sub(1, Ordering::SeqCst);
                }
                self.net.counter_add("real.net.spawn_failed", 1);
                self.journal_as("proc", format!("spawn of '{name}' failed: {e}"));
            }
        }
    }

    /// Runs a served port's handler on what this connection reader read.
    fn run_served(self: &Arc<Self>, served: &Served, item: Delivered) {
        let group = served.group.clone();
        match (&served.serving, item) {
            (Serving::Spawn { handler, inline }, Delivered::Msg(from, msg)) => {
                // Handed to a carrier, not run here: the servant may
                // place a nested call whose reply arrives on this stream,
                // and only this thread reads it. Unless the port's owner
                // has said this frame's handler waits for no other.
                let here = inline.as_ref().is_some_and(|test| test(&msg));
                let handler = Arc::clone(handler);
                let run = Box::new(move || handler(from, msg));
                if here {
                    self.run_task_here(&served.task, group, run);
                } else {
                    self.spawn_task(&served.task, group, run);
                }
            }
            // A port served by `serve` drops bounces, as the receive loop
            // would.
            (Serving::Spawn { .. }, Delivered::Unreach(_)) => {}
            (Serving::Inline(handler), item) => {
                let handler = Arc::clone(handler);
                let run = Box::new(move || handler(deliver(item)));
                self.run_task_here(&served.task, group, run);
            }
        }
    }

    /// Runs `f` as a task of `group`, like [`FrameSender::spawn_task`],
    /// but on the calling thread — a connection reader with a frame its
    /// port runs inline — and to its end before returning.
    fn run_task_here(
        &self,
        name: &str,
        group: Option<Arc<GroupCore>>,
        f: Box<dyn FnOnce() + Send>,
    ) {
        if !join_group(&group) {
            return;
        }
        run_in_group(self, name, group, f);
        // A reader is in no group and under no span between two frames.
        clear_current_group();
        crate::trace::set_current_ctx(None);
    }

    fn slot(&self, peer: NodeId) -> PeerSlot {
        Arc::clone(self.conns.lock().entry(peer).or_default())
    }

    /// Makes `stream` one of the node's own: sets it up for small frames
    /// both ways, registers it for [`RealNode::stop`] and starts the
    /// thread that reads it to its end.
    fn adopt_stream(
        self: &Arc<Self>,
        stream: TcpStream,
        peer: Option<NodeId>,
    ) -> std::io::Result<Arc<TcpStream>> {
        stream.set_nodelay(true).ok();
        stream.set_write_timeout(Some(WRITE_STALL)).ok();
        let stream = Arc::new(stream);
        {
            let mut streams = self.streams.lock();
            // `stop` raises the flag before it takes this lock, so either
            // it finds the stream here or we see the flag.
            if self.stopped.load(Ordering::SeqCst) {
                return Err(std::io::Error::other("node stopped"));
            }
            streams.push(Arc::clone(&stream));
        }
        let (sender, theirs) = (Arc::clone(self), Arc::clone(&stream));
        let reader = std::thread::Builder::new()
            .name("conn-reader".into())
            .spawn(move || {
                ON_READER.with(|r| r.set(true));
                reader_main(&theirs, peer, &sender);
                sender.unregister_stream(&theirs);
            });
        if let Err(e) = reader {
            self.unregister_stream(&stream);
            return Err(e);
        }
        Ok(stream)
    }

    fn unregister_stream(&self, stream: &Arc<TcpStream>) {
        self.streams.lock().retain(|s| !Arc::ptr_eq(s, stream));
    }

    /// The first frame on an accepted stream named `peer`: this node's
    /// frames to `peer` go out on that stream from now on. Whatever the
    /// slot held loses: the peer dials only when it has no stream with
    /// us, so that one is either dead — torn down at the peer, its EOF
    /// not yet read here — or, when both sides dialled at once, as good
    /// as this one. It stays read to its end either way.
    fn offer_stream(&self, peer: NodeId, stream: &Arc<TcpStream>) {
        *self.slot(peer).lock() = Some(Arc::clone(stream));
    }

    /// `stream`'s reader is done with it. If `peer`'s slot still holds
    /// it, the next frame for `peer` dials instead of vanishing into it.
    fn forget_stream(&self, peer: NodeId, stream: &Arc<TcpStream>) {
        let slot = self.slot(peer);
        let mut conn = slot.lock();
        if !conn.as_ref().is_some_and(|held| Arc::ptr_eq(held, stream)) {
            return;
        }
        *conn = None;
        drop(conn);
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
                    let _ = s.shutdown(Shutdown::Both);
                    self.net.counter_add("real.net.resets", 1);
                    self.journal(format!("reset storm: tore down conn to {}", to.node));
                }
            }
            if let Some(d) = v.delay {
                let Some(sockaddr) = self.net.lookup(to.node) else {
                    return Ok(());
                };
                if v.dup {
                    self.net
                        .delay_frame(Instant::now() + d, sockaddr, frame.clone());
                }
                self.net.delay_frame(Instant::now() + d, sockaddr, frame);
                return Ok(());
            }
            dup = v.dup;
        }
        if ON_READER.with(Cell::get) {
            // A connection reader neither dials nor backs off: the frames
            // queued behind it on its own stream would wait all the
            // while. It writes into a stream the node already has with
            // the peer — a reply rides the stream its request came on —
            // and leaves anything harder to a carrier. That includes a
            // slot another sender holds: it may be dialling under it.
            if let Some(mut conn) = slot.try_lock() {
                if conn.is_some()
                    && !self.stopped.load(Ordering::SeqCst)
                    && self.write_on(&mut conn, to, &frame, dup).is_ok()
                {
                    return Ok(());
                }
            }
            let sender = Arc::clone(self);
            let send = move || {
                if let Err(NetError::PeerRefused(_)) = sender.write_frame(&slot, to, &frame, dup) {
                    sender.bounce_here(from_port, to);
                }
            };
            self.spawn_task("conn-send", current_group(), Box::new(send));
            return Ok(());
        }
        self.write_frame(&slot, to, &frame, dup)
    }

    /// Writes `frame` into the node's stream with `to`, dialling when
    /// there is none: [`RECONNECT_ATTEMPTS`] attempts, backing off
    /// between them.
    fn write_frame(
        self: &Arc<Self>,
        slot: &PeerSlot,
        to: Addr,
        frame: &[u8],
        dup: bool,
    ) -> Result<(), NetError> {
        let mut last_err = String::from("no attempt made");
        let mut ever_connected = false;
        for attempt in 0..RECONNECT_ATTEMPTS {
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
            // the cache or this send sees the flag.
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
                "connection failed after {RECONNECT_ATTEMPTS} attempts: {last_err}"
            )))
        } else {
            // Every attempt was refused outright: nothing listens there.
            Err(NetError::PeerRefused(to.node))
        }
    }

    /// One `write` of `frame` (two when the link duplicates) into the
    /// stream `conn` holds. A failed write on an established connection
    /// is the RST-shaped failure: the stream is dropped (its reader too)
    /// and the next frame dials.
    fn write_on(
        &self,
        conn: &mut Option<Arc<TcpStream>>,
        to: Addr,
        frame: &[u8],
        dup: bool,
    ) -> Result<(), String> {
        let mut stream: &TcpStream = conn.as_deref().expect("a stream to write on");
        let mut wrote = stream.write_all(frame);
        if dup && wrote.is_ok() {
            wrote = stream.write_all(frame);
        }
        wrote.map_err(|e| {
            if let Some(broken) = conn.take() {
                let _ = broken.shutdown(Shutdown::Both);
            }
            self.net.counter_add("real.net.resets", 1);
            self.journal(format!("reset on conn to {}: {e}", to.node));
            e.to_string()
        })
    }

    /// A frame from `port` that nothing would accept at `to` comes back
    /// to the port as a bounce, as a closed port's would.
    fn bounce_here(self: &Arc<Self>, port: u16, to: Addr) {
        let entry = self.ports.lock().get(&port).cloned();
        match entry {
            Some(Port::Mailbox(mailbox)) => {
                self.net.frames_queued.fetch_add(1, Ordering::Relaxed);
                mailbox.push(Delivered::Unreach(to));
            }
            Some(Port::Served(served)) => self.run_served(&served, Delivered::Unreach(to)),
            None => {}
        }
    }
}

/// A TCP-backed message endpoint.
pub struct RealEndpoint {
    node: NodeId,
    port: u16,
    mailbox: Arc<Mailbox>,
    sender: Arc<FrameSender>,
    /// The group whose kill closes this endpoint; adopt/disown move it.
    owner_group: Mutex<Option<Weak<GroupCore>>>,
}

impl RealEndpoint {
    fn handle(&self) -> EpHandle {
        EpHandle {
            port: self.port,
            mailbox: Arc::clone(&self.mailbox),
            ports: Arc::clone(&self.sender.ports),
        }
    }

    /// Registers the endpoint with the calling thread's group (after
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
}

impl Endpoint for RealEndpoint {
    fn send(&self, to: Addr, msg: Bytes) -> Result<(), NetError> {
        self.sender.send_bytes(self.port, to, FRAME_MSG, &msg)
    }

    fn recv(&self, timeout: Option<Duration>) -> Result<(Addr, Bytes), RecvError> {
        self.mailbox.pop(timeout).and_then(deliver)
    }

    fn local(&self) -> Addr {
        Addr::new(self.node, self.port)
    }

    fn close(&self) {
        close_port(&self.sender.ports, self.port, &self.mailbox);
        self.unregister();
    }

    fn adopt(&self) {
        self.register_current_group();
    }

    fn disown(&self) {
        self.unregister();
    }

    /// The connection readers hand each frame for the port straight to a
    /// carrier, or run it themselves if `inline` passes it; the calling
    /// task only waits for the close (and spawns the handler on whatever
    /// reached the mailbox before this call).
    fn serve(
        &self,
        rt: &dyn NodeRt,
        task_name: &str,
        handler: FrameHandler,
        inline: Option<InlineTest>,
    ) {
        let serving = Serving::Spawn {
            handler: Arc::clone(&handler),
            inline,
        };
        self.become_served(task_name, serving);
        crate::rt::serve_by_recv(self, rt, task_name, &handler);
    }

    fn serve_inline(&self, task_name: &str, handler: LandingHandler) {
        self.become_served(task_name, Serving::Inline(Arc::clone(&handler)));
        let queued = std::mem::take(&mut *self.mailbox.queue.lock());
        for item in queued {
            handler(deliver(item));
        }
    }
}

impl RealEndpoint {
    /// Points the port's entry at its handler, in the owner's group.
    fn become_served(&self, task_name: &str, serving: Serving) {
        let group = self.owner_group.lock().as_ref().and_then(Weak::upgrade);
        let mut ports = self.sender.ports.lock();
        // The entry of an open endpoint is its own; a closed one has
        // none, and must not take a successor's.
        if !self.mailbox.closed.load(Ordering::SeqCst) {
            let served = Served {
                task: task_name.to_string(),
                serving,
                group,
            };
            ports.insert(self.port, Port::Served(Arc::new(served)));
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
/// [`RealNode::kill_all_groups`] (the router stays up, so the crash
/// looks like every process dying on a live host); `RestartNode` is the
/// campaign driver's job — re-initialising software is an operator
/// action, exactly as in the simulator — so it only reaches the
/// `on_action` callback.
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
                // host itself (router, listener) never went away.
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

    #[test]
    fn a_killed_groups_carrier_serves_its_sibling_clean() {
        let net = RealNet::new();
        let a = net.add_node("a").unwrap();
        let rt: Arc<dyn NodeRt> = a.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        let group_a = a.spawn_group("victim", {
            let (rt, tx) = (Arc::clone(&rt), tx.clone());
            Box::new(move || {
                tx.send((std::thread::current().id(), rt.cancelled()))
                    .unwrap();
                rt.sleep(Duration::from_secs(3600)); // killed in here
            })
        });
        let (carrier, cancelled) = rx.recv().unwrap();
        assert!(!cancelled);
        group_a.kill();
        assert!(eventually(Duration::from_secs(5), || !group_a.alive()));
        assert!(eventually(Duration::from_secs(5), || a
            .sender
            .carriers
            .parked()
            == 1));
        // The node's one carrier is the victim's; the sibling gets it,
        // and must not inherit the kill with it.
        let group_b = a.spawn_group("sibling", {
            let rt = Arc::clone(&rt);
            Box::new(move || {
                rt.sleep(Duration::from_millis(1)); // a cancellation point
                tx.send((std::thread::current().id(), rt.cancelled()))
                    .unwrap();
            })
        });
        assert_eq!(rx.recv().unwrap(), (carrier, false));
        assert!(eventually(Duration::from_secs(5), || !group_b.alive()));
        assert_eq!(counter(&net, "real.net.threads_spawned"), 1);
        // Stamped once, for the victim: a task's exit, not a thread's.
        assert_eq!(counter(&net, "real.net.kills"), 1);
        assert_eq!(net.samples("real.net.kill_latency_us").len(), 1);
        assert!(counter(&net, "real.net.kill_latency_us") >= 1);
    }

    #[test]
    fn a_panicking_task_is_journalled_by_name_and_frees_its_carrier() {
        let net = RealNet::new();
        let a = net.add_node("a").unwrap();
        // A panic without the hook's stderr line: same payload, same path.
        a.spawn_fn("fragile", || {
            panic::resume_unwind(Box::new("out of luck".to_string()))
        });
        assert!(
            eventually(Duration::from_secs(5), || a.sender.carriers.parked() == 1),
            "the carrier died with its task"
        );
        let lines: Vec<String> = crate::journal::Journal::of(&*a)
            .events()
            .iter()
            .filter(|e| e.category == "proc")
            .map(|e| e.detail.to_string())
            .collect();
        assert_eq!(lines, vec!["panic in 'fragile': out of luck".to_string()]);
        let (tx, rx) = std::sync::mpsc::channel();
        a.spawn_fn("next", move || tx.send(()).unwrap());
        rx.recv().unwrap();
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
        // Give the router a beat to actually release the listener.
        std::thread::sleep(Duration::from_millis(50));
        drop(b);
        let client = a.open(PortReq::Ephemeral).unwrap();
        let started = Instant::now();
        let r = client.send(Addr::new(b_id, 100), Bytes::from_static(b"x"));
        // The listener closed with the router, so every attempt is
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
    /// echoed by a task that first reports the thread it runs on. Frames
    /// `inline` passes may run on the reader.
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
                    let thread = std::thread::current().name().unwrap_or("?").to_string();
                    ran_on.lock().send(thread).unwrap();
                    let _ = reply.send(from, msg);
                };
                ep.serve(&*rt, "svc-worker", Arc::new(handler), inline);
            }),
        );
        (group, addr)
    }

    #[test]
    fn a_served_port_runs_frames_on_carriers_and_queues_none() {
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
        // Until the group's main has registered the handler, a frame
        // waits in the mailbox for it; not after.
        call(b"warm-up").unwrap();
        ran_on.recv().unwrap();
        assert!(eventually(Duration::from_secs(5), || {
            matches!(b.sender.ports.lock().get(&100), Some(Port::Served(_)))
        }));
        let queued = counter(&net, "real.net.frames_queued");
        for _ in 0..100 {
            let (from, msg) = call(b"ping").unwrap();
            assert_eq!((from, &msg[..]), (b_addr, &b"ping"[..]));
            assert_eq!(
                ran_on.recv().unwrap(),
                "b-carrier",
                "the reader ran a handler"
            );
        }
        assert_eq!(
            counter(&net, "real.net.frames_queued") - queued,
            100,
            "the replies queue at the client; the requests queue nowhere"
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
            b.sender.ports.lock().is_empty(),
            "the handler outlived its port"
        );
    }

    #[test]
    fn frames_the_inline_test_passes_run_on_the_reader_as_tasks_of_the_group() {
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
        assert!(eventually(Duration::from_secs(5), || {
            matches!(b.sender.ports.lock().get(&100), Some(Port::Served(_)))
        }));
        for _ in 0..20 {
            let (from, msg) = call(b"brief ping").unwrap();
            assert_eq!((from, &msg[..]), (b_addr, &b"brief ping"[..]));
            assert_eq!(ran_on.recv().unwrap(), "conn-reader");
            // The frames the test does not pass still get a carrier.
            call(b"long ping").unwrap();
            assert_eq!(ran_on.recv().unwrap(), "b-carrier");
        }

        // A burst nobody waits for: handled one frame at a time, in the
        // order it was sent, on the one thread, and starts none.
        let threads = counter(&net, "real.net.threads_spawned");
        for i in 0..200u8 {
            let msg = [b"brief ".as_slice(), &[i]].concat();
            client.send(b_addr, Bytes::from(msg)).unwrap();
        }
        for i in 0..200u8 {
            let (_, msg) = client.recv(Some(Duration::from_secs(5))).unwrap();
            assert_eq!(msg.last(), Some(&i));
            assert_eq!(ran_on.recv().unwrap(), "conn-reader");
        }
        assert_eq!(counter(&net, "real.net.threads_spawned"), threads);

        // An inline frame is a task of the group like any other: a
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

    /// A connection reader never waits to connect: an inline handler's
    /// send to a peer the node holds no stream with goes to a carrier,
    /// so the reader is back at its stream at once — and a peer nothing
    /// listens at bounces the frame back to the port it left from.
    #[test]
    fn a_reader_hands_a_send_it_cannot_write_at_once_to_a_carrier() {
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
                let thread = std::thread::current().name().unwrap_or("?").to_string();
                let t0 = Instant::now();
                if item.is_ok() {
                    out.send(gone_addr, Bytes::from_static(b"onward")).unwrap();
                }
                let _ = tx
                    .lock()
                    .send((item.map(|(_, msg)| msg), thread, t0.elapsed()));
            }),
        );
        let client = a.open(PortReq::Ephemeral).unwrap();
        client
            .send(Addr::new(b.node(), 100), Bytes::from_static(b"go"))
            .unwrap();
        let (item, thread, took) = landed.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(
            (item, thread.as_str()),
            (Ok(Bytes::from_static(b"go")), "conn-reader")
        );
        assert!(
            took < Duration::from_millis(5),
            "the reader waited {took:?} to send"
        );
        let (item, _, _) = landed.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(item, Err(RecvError::Unreachable(gone_addr)));
    }

    /// Nor does it wait on a peer's slot another sender holds, which may
    /// be dialling under it: the frame goes to a carrier, and leaves
    /// when the slot is free.
    #[test]
    fn a_reader_does_not_wait_on_a_slot_another_sender_holds() {
        let net = RealNet::new();
        let a = net.add_node("a").unwrap();
        let b = net.add_node("b").unwrap();
        let c = net.add_node("c").unwrap();
        let sink = c.open(PortReq::Fixed(9)).unwrap();
        let sink_addr = Addr::new(c.node(), 9);
        let relay = b.open(PortReq::Fixed(100)).unwrap();
        // The stream b → c exists before the slot is held.
        relay.send(sink_addr, Bytes::from_static(b"warm")).unwrap();
        let (_, warm) = sink.recv(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(&warm[..], b"warm");
        let (tx, landed) = std::sync::mpsc::channel();
        let (out, tx) = (Arc::clone(&relay), Mutex::new(tx));
        relay.serve_inline(
            "relay",
            Arc::new(move |item| {
                let thread = std::thread::current().name().unwrap_or("?").to_string();
                let t0 = Instant::now();
                if item.is_ok() {
                    out.send(sink_addr, Bytes::from_static(b"onward")).unwrap();
                }
                let _ = tx.lock().send((thread, t0.elapsed()));
            }),
        );
        let slot = b.sender.slot(c.node());
        let held = slot.lock();
        let client = a.open(PortReq::Ephemeral).unwrap();
        client
            .send(Addr::new(b.node(), 100), Bytes::from_static(b"go"))
            .unwrap();
        let (thread, took) = landed.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(thread, "conn-reader");
        assert!(
            took < Duration::from_millis(5),
            "the reader waited {took:?} on a held slot"
        );
        assert!(
            sink.recv(Some(Duration::from_millis(50))).is_err(),
            "nothing leaves while the slot is held"
        );
        drop(held);
        let (_, onward) = sink.recv(Some(Duration::from_secs(5))).unwrap();
        assert_eq!(&onward[..], b"onward");
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
