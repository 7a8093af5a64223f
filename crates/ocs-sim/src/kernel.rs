//! The discrete-event kernel: virtual time, processes, endpoints, links.
//!
//! Every simulated *process* runs on a stack of its own (`coro.rs`; the
//! next process re-uses it), and no process owns an OS thread: the one
//! thread driving the `Sim` runs exactly one context at a time, the
//! scheduler or one of the processes, and switches between them in user
//! space. Blocking operations (sleep, receive, wait) switch to whatever
//! runs next; a timed one's timeout waits beside the event queue, keyed
//! like an event, and leaves with the wait however it ends. A process
//! never moves to another OS thread, so a simulation with suspended
//! processes may not be driven from another. Events are ordered by
//! `(time, source node, per-source seq)`, so a run is fully deterministic
//! given its seed.
//!
//! # One kernel, one loop
//!
//! A simulation is one kernel: one event heap, one process table, one
//! set of network tables, stepped by `run_until` in one loop on the
//! driving thread. (A sharded scheduler, which partitioned the nodes
//! across kernels on worker threads between conservative lookahead
//! horizons, was measured and deleted: on two cores E17's storm ran 1.6×
//! slower on two shards than on one at 50k settops, and no faster at a
//! million.) What a process does to another node — spawn, kill, bump,
//! journal note, network control — still lands one `control_delay` after
//! it is issued, as a control event under the issuer's stream, and every
//! group id a node hands out embeds the node: virtual timing and the
//! pinned trace hashes depend on both.
//!
//! # Waiting
//!
//! The processes are the kernel's task table (`tasks.rs`, the table TCP
//! keeps per node loop): a process that waits is blocked there, its
//! timeout goes into the table's timer map under an `(at, src, sseq)` key
//! drawn from its node's event stream, and a wake takes it only if it is
//! still in the wait the wake names, withdrawing the timeout.
//!
//! A process waits in one of two places: on an endpoint, for a delivery,
//! or on a wait object, for its generation to pass one it has seen
//! (`wait_newer`; a bump advances it and wakes every waiter, in the order
//! they registered). `SyncObj` and every primitive built on it, `SimChan`
//! included, wait the second way. A wait object is a record its handles
//! hold, homed on the node that made it, and goes with the last of them.
//!
//! # Fast path
//!
//! A process that blocks, or exits, runs the scheduler state machine
//! ([`Kernel::next_step`]) itself, under the kernel lock, instead of
//! switching to the scheduler's context:
//!
//! * if the next runnable process is the caller itself (its timeout or a
//!   same-instant delivery woke it), it simply keeps running — zero
//!   switches (`KernelStats::self_continues`);
//! * if it is another process, it switches to that process's stack
//!   directly — one switch instead of the two a scheduler round-trip
//!   costs (`KernelStats::direct_handoffs`);
//! * an inline handler the state machine hands out runs on the same
//!   stack, with the lock released, before the next step.
//!
//! Only three things switch back to the scheduler
//! (`KernelStats::driver_resumes` counts its resumes): the run's end
//! (nothing left to run up to its limit), shutdown, whose drain the
//! scheduler sequences, and a recorded panic, which the scheduler must
//! re-raise. Whichever context runs it, the state machine and every
//! structure it consults are the same, so where a handoff runs changes
//! no event order, RNG draw or trace hash.
//!
//! # Endpoints
//!
//! A process group lives on one node, its home: a process spawned, or
//! an endpoint opened, through another node's runtime belongs to no
//! group. So a group's members and endpoints share one node, and its
//! kill reaches all of them there.
//!
//! The kernel keeps one port table for every node (`ports.rs`, the
//! table TCP keeps per node, with its one open-id rule and its one group
//! record): an endpoint is an open there, owned by the group of the
//! process that opened it, and closes when closed, when its last handle
//! drops (`SimEndpoint`'s `Drop`), at once when its group is killed, and
//! when its node crashes — in port order, before any process has unwound,
//! so a frame for a dead service bounces from the kill instant on. A
//! process joins its group's record there when it is spawned and leaves
//! at its exit, so a kill ends the members in pid order with no scan of
//! the process table. A process's reply endpoint is one more handle
//! (`Proc::reply`), dropped when the process exits. The simulator's own
//! part of a port is its receive side, `Rx`: the queue, and the
//! receivers a delivery or the close wakes.
//!
//! No endpoint handle may drop under the kernel lock, since the drop
//! takes it. What the kernel lets go of under its lock — a closed port's
//! handler, a spawn it refused — waits in `Kernel::dropped` until the
//! lock is released (`unlock`, and every step of the scheduler).
//!
//! # Serving a port
//!
//! A port a process [`serve`](crate::rt::Endpoint::serve)s carries its
//! handler (`Port::served`), and a delivery to it runs the handler
//! at the delivery instant instead of queueing the frame for a receiver:
//!
//! * a bounce, or a frame the port's inline test passes (its handler
//!   waits for nothing), becomes a [`Step::Inline`]: whichever context is
//!   stepping the kernel runs it with the kernel lock released, as the
//!   port's node (its node's streams, the port's group), with
//!   no process, no stack and no switch. Anything that would wait — a
//!   blocking call, a receive, opening an endpoint — panics naming the
//!   task, so the simulator enforces the promise TCP can only trust;
//! * any other frame spawns the handler's process on the port's node,
//!   in the port's group — no serving process wakes first.
//!
//! Either way the handler runs before the next event, exactly when the
//! worker a serving process would spawn for it ran, so events, RNG draws
//! and trace hashes are those of a hand-written receive loop.
//!
//! The kernel also owns the network model: nodes, ports, per-link latency
//! and bandwidth, partitions, message loss, and crash semantics (a kill
//! closes the group's ports and bounces later messages; node death is
//! silence). Node state lives in a dense vector indexed by `NodeId` and
//! link state in flat per-pair tables, so the per-message path does no
//! hashing in the default configuration.

use std::any::Any;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use bytes::Bytes;
use parking_lot::{Mutex, MutexGuard};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::coro::{self, Handle, Stack, StackPool};
use crate::ports::{Landing, Port, PortTable, Served};
use crate::rt::{Addr, Endpoint, NetError, NodeId, PortReq, RecvError};
use crate::sim::SimEndpoint;
use crate::tasks::{TaskId as Pid, Tasks};
use crate::time::SimTime;

/// Unwind payload used to terminate a killed process quietly.
pub(crate) struct KillSignal;

/// What the scheduler state machine decided: switch to a process's
/// stack, run a served port's inline handler on the stepping context, or
/// stop (quiescent / past the run limit).
pub(crate) enum Step {
    Run(Pid, Handle),
    Inline(InlineRun),
    Done,
}

pub(crate) struct Proc {
    /// Shared with its served port's task name for a handler's process.
    pub name: Arc<str>,
    pub node: Option<NodeId>,
    /// Process group (inherited from the spawner), the unit of service
    /// lifetime the Server Service Controller manages.
    pub group: Option<u64>,
    /// The stack the process runs on; the scheduler switches to it.
    pub stack: Stack,
    pub killed: bool,
    /// The endpoint its calls wait on for their replies
    /// (`NodeRt::reply_endpoint`); dropped when the process exits.
    pub reply: Option<Arc<SimEndpoint>>,
}

/// A pending timeout's key, `(at, src, sseq)` like an event's: drawn from
/// the same per-source stream, so timeouts and events pop in the order
/// one queue holding both would pop them.
pub(crate) type TimerKey = (u64, u32, u64);

/// An endpoint's receive side: the landings queued for it, and the
/// processes blocked receiving, with the wait generation each blocked in.
#[derive(Default)]
pub(crate) struct Rx {
    pub queue: VecDeque<Landing>,
    pub waiters: VecDeque<(Pid, u64)>,
}

type SimPort = Port<Rx>;

/// One frame or bounce for a served port whose handler runs inline.
pub(crate) struct InlineRun {
    port: Addr,
    served: Arc<Served>,
    landing: Landing,
}

pub(crate) struct NodeState {
    pub up: bool,
    /// Per-node deterministic streams: the RNG, the event sequence, and
    /// the group id counter. Keyed to the node, not the kernel, so what
    /// one node draws or allocates moves no other node's ids or draws.
    pub rng: SmallRng,
    pub seq: u64,
    pub next_group: u64,
}

impl NodeState {
    fn new(rng_seed: u64) -> NodeState {
        NodeState {
            up: true,
            rng: SmallRng::seed_from_u64(rng_seed),
            seq: 0,
            next_group: 1,
        }
    }
}

/// `*counter`, then one past it.
fn post_inc(counter: &mut u64) -> u64 {
    *counter += 1;
    *counter - 1
}

/// Per-directed-link model parameters.
#[derive(Clone, Copy, Debug)]
pub struct LinkParams {
    /// One-way propagation latency.
    pub latency: Duration,
    /// Serialization bandwidth in bytes per second; `None` = infinite.
    pub bandwidth: Option<u64>,
    /// Probability in `[0, 1]` that a message on this link is lost.
    pub loss: f64,
}

impl LinkParams {
    /// Latency-only link with no bandwidth limit or loss.
    pub fn latency_only(latency: Duration) -> LinkParams {
        LinkParams {
            latency,
            bandwidth: None,
            loss: 0.0,
        }
    }
}

/// Network-wide default parameters; per-pair overrides take precedence.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Link used when source and destination node are the same.
    pub local: LinkParams,
    /// Link used between distinct nodes without an override.
    pub default: LinkParams,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            local: LinkParams::latency_only(Duration::from_micros(20)),
            default: LinkParams::latency_only(Duration::from_micros(500)),
        }
    }
}

/// Aggregate network statistics for a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to the network by senders.
    pub msgs_sent: u64,
    /// Payload bytes handed to the network.
    pub bytes_sent: u64,
    /// Messages enqueued at an open destination endpoint.
    pub msgs_delivered: u64,
    /// Messages dropped (dead node, partition, loss, closed-at-delivery).
    pub msgs_dropped: u64,
    /// Unreachable bounces generated (closed port on a live node).
    pub bounces: u64,
    /// Extra copies injected by a duplication impairment.
    pub msgs_duplicated: u64,
    /// Messages delayed out of order by a reorder impairment.
    pub msgs_reordered: u64,
}

/// Scheduler and event-loop counters, exposed through
/// [`Sim::kernel_stats`](crate::Sim::kernel_stats) for the E18 kernel
/// microbenchmark. Purely observational: reading them never perturbs a
/// run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Events popped off the queue (timeouts that fired, network
    /// deliveries, control events).
    pub events: u64,
    /// Switches from the scheduler to a process (a pair of
    /// switches each: there and back).
    pub driver_resumes: u64,
    /// Process-to-process switches that skipped the scheduler (one
    /// switch each).
    pub direct_handoffs: u64,
    /// Blocking calls where the caller continued inline with zero
    /// switches (its own timeout or a same-instant delivery was next).
    pub self_continues: u64,
    /// Stacks mapped for processes: a spawn that found no idle stack to
    /// re-use (see `coro.rs`). No process starts an OS thread.
    pub stacks_mapped: u64,
    /// Processes started (every spawn that found its node up).
    pub spawns: u64,
    /// Served-port frames whose handler ran inline, with no process.
    pub inline_runs: u64,
    /// Timeouts pending now, one per timed wait still blocked: a gauge,
    /// where every field above is a count. A wait that ends early takes
    /// its timeout with it, so this stays flat however many waits end.
    pub timers: u64,
}

/// Fault-injection impairment applied on top of a link's base
/// [`LinkParams`]: extra loss, duplication, reordering and latency
/// spikes. Installed per node pair (symmetric) by the nemesis.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LinkImpairment {
    /// Additional drop probability in `[0, 1]`, rolled independently of
    /// the link's base loss.
    pub loss: f64,
    /// Probability that a surviving message is delivered twice.
    pub dup: f64,
    /// Probability that a surviving message is held back by a random
    /// extra delay, letting later sends overtake it.
    pub reorder: f64,
    /// Flat latency added to every message on the link.
    pub extra_latency: Duration,
}

impl LinkImpairment {
    /// Lossy link: drop `p` of messages.
    pub fn lossy(p: f64) -> LinkImpairment {
        LinkImpairment {
            loss: p,
            ..LinkImpairment::default()
        }
    }

    /// Chaotic link: some loss, duplication and reordering at once.
    pub fn chaotic(loss: f64, dup: f64, reorder: f64) -> LinkImpairment {
        LinkImpairment {
            loss,
            dup,
            reorder,
            ..LinkImpairment::default()
        }
    }

    /// Latency spike: add `extra` to every message.
    pub fn slow(extra: Duration) -> LinkImpairment {
        LinkImpairment {
            extra_latency: extra,
            ..LinkImpairment::default()
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Node indices up to this many get dense per-pair rows; anything larger
/// (synthetic ids used as plain data, e.g. E17's per-settop identities)
/// spills to a hash map so exotic callers keep exact semantics without
/// forcing quadratic dense storage.
const DENSE_NODES: usize = 4096;

/// Flat per-pair table for directed-link state: dense lazily-grown rows
/// indexed by raw `NodeId` values, with a hash spill for out-of-range
/// ids. Lookups on the hot path are two bounds checks when any entry
/// exists and a single counter test when none do.
pub(crate) struct PairTable<T: Copy> {
    rows: Vec<Vec<Option<T>>>,
    spill: HashMap<(u32, u32), T>,
    count: usize,
}

impl<T: Copy> PairTable<T> {
    fn new() -> PairTable<T> {
        PairTable {
            rows: Vec::new(),
            spill: HashMap::new(),
            count: 0,
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    #[inline]
    pub fn get(&self, a: NodeId, b: NodeId) -> Option<T> {
        if self.count == 0 {
            return None;
        }
        let (ai, bi) = (a.0 as usize, b.0 as usize);
        if ai < DENSE_NODES && bi < DENSE_NODES {
            self.rows.get(ai)?.get(bi).copied().flatten()
        } else {
            self.spill.get(&(a.0, b.0)).copied()
        }
    }

    pub fn insert(&mut self, a: NodeId, b: NodeId, v: T) {
        let (ai, bi) = (a.0 as usize, b.0 as usize);
        if ai < DENSE_NODES && bi < DENSE_NODES {
            if self.rows.len() <= ai {
                self.rows.resize_with(ai + 1, Vec::new);
            }
            let row = &mut self.rows[ai];
            if row.len() <= bi {
                row.resize(bi + 1, None);
            }
            if row[bi].is_none() {
                self.count += 1;
            }
            row[bi] = Some(v);
        } else if self.spill.insert((a.0, b.0), v).is_none() {
            self.count += 1;
        }
    }

    pub fn remove(&mut self, a: NodeId, b: NodeId) {
        let (ai, bi) = (a.0 as usize, b.0 as usize);
        if ai < DENSE_NODES && bi < DENSE_NODES {
            if let Some(slot) = self.rows.get_mut(ai).and_then(|r| r.get_mut(bi)) {
                if slot.take().is_some() {
                    self.count -= 1;
                }
            }
        } else if self.spill.remove(&(a.0, b.0)).is_some() {
            self.count -= 1;
        }
    }

    /// Drops every entry whose value fails `keep`.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        for row in &mut self.rows {
            for slot in row.iter_mut() {
                if let Some(v) = slot {
                    if !keep(v) {
                        *slot = None;
                        self.count -= 1;
                    }
                }
            }
        }
        let before = self.spill.len();
        self.spill.retain(|_, v| keep(v));
        self.count -= before - self.spill.len();
    }
}

/// One-shot multiplicative hasher for id keys — endpoint addresses here,
/// allocation, settop and retry-token ids in the replicated tables: a
/// path that hashes a key per message or per op pays measurably for the
/// default SipHash and gains nothing by it (the cluster's own services
/// mint these ids; no subscriber chooses one).
#[derive(Clone, Copy, Default)]
pub struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }
}

impl IdHasher {
    #[inline]
    fn mix(&mut self, v: u64) {
        self.0 = (self.0 ^ v)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(23);
    }
}

/// The [`IdHasher`] builder: `HashMap<K, V, IdBuild>`.
pub type IdBuild = std::hash::BuildHasherDefault<IdHasher>;

/// Cluster-wide network control action. Issued by a fault API; from a
/// process it lands one control delay later, as a control event.
#[derive(Clone, Copy, Debug)]
pub(crate) enum NetCtl {
    Crash(NodeId),
    Restart(NodeId),
    SetLink(NodeId, NodeId, LinkParams),
    SetPartition(NodeId, NodeId, bool),
    SetImpairment(NodeId, NodeId, LinkImpairment),
    ClearImpairment(NodeId, NodeId),
}

/// A deferred kernel operation carried by a control event.
pub(crate) enum ControlOp {
    Net(NetCtl),
    Spawn {
        node: Option<NodeId>,
        name: Arc<str>,
        group: Option<u64>,
        f: Box<dyn FnOnce() + Send>,
    },
    KillGroup(u64),
    Bump(Arc<WaitObj>),
    Note { node: NodeId, detail: String },
}

enum EventKind {
    Deliver { to: Addr, landing: Landing },
    Control(ControlOp),
}

/// An event, keyed `(at, src, sseq)`: `src` is the raw id of the node
/// whose stream produced it (0 for the anonymous/driver stream) and
/// `sseq` the per-source sequence number. Unlike a global counter, the
/// key of one node's events moves with nothing another node does.
struct Event {
    at: u64,
    src: u32,
    sseq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Event) -> bool {
        self.at == other.at && self.src == other.src && self.sseq == other.sseq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Event) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    // Reverse ordering so the BinaryHeap pops the earliest event first.
    fn cmp(&self, other: &Event) -> std::cmp::Ordering {
        (other.at, other.src, other.sseq).cmp(&(self.at, self.src, self.sseq))
    }
}

// An event is what the heap moves on every push and pop.
const _: () = assert!(std::mem::size_of::<Event>() == 88);

/// A wait object: a generation, and the processes waiting for it to pass
/// one they saw, each with the wait it is blocked in. Its handles hold
/// it, as does a bump on its way from another node.
pub(crate) struct WaitObj {
    /// Raw id of the node a bump from elsewhere lands on one control
    /// delay later (0: anonymous).
    home: u32,
    state: Mutex<(u64, VecDeque<(Pid, u64)>)>,
}

impl WaitObj {
    pub fn new(home: u32) -> WaitObj {
        let state = Mutex::new((0, VecDeque::new()));
        WaitObj { home, state }
    }

    pub fn generation(&self) -> u64 {
        self.state.lock().0
    }

    /// Advances the generation and wakes every waiter still in the wait
    /// it registered for, in the order they registered.
    fn bump(&self, procs: &mut Tasks<TimerKey, Proc>) {
        let waiters = {
            let mut state = self.state.lock();
            state.0 += 1;
            std::mem::take(&mut state.1)
        };
        for (pid, gen) in waiters {
            procs.wake(pid, Some(gen));
        }
    }
}

/// The kernel: event heap, processes, and the network tables (node
/// up/down, ports, links, partitions, impairments).
pub(crate) struct Kernel {
    pub now: u64,
    /// Lock-free mirror of `now`, shared with [`SimInner`] so the hot
    /// `now()` read path (journal records, deadline checks in running
    /// processes) never takes the kernel mutex. Virtual time only
    /// advances inside the step loop, while every process is parked, so
    /// a read from a running process is always exact.
    now_shared: Arc<AtomicU64>,
    /// Back-reference for control events that need the whole simulation
    /// (spawning a process, journaling a fault note).
    inner: Weak<SimInner>,
    events: BinaryHeap<Event>,
    /// The processes, and the timeouts of their waits, popped beside
    /// `events` in the same key order.
    pub procs: Tasks<TimerKey, Proc>,
    /// The next pid to issue.
    next_pid: Pid,
    pub shutdown: bool,
    /// Seed all per-node RNGs derive from.
    master_seed: u64,
    /// The streams of the anonymous key (driver context, node-less
    /// procs).
    anon: NodeState,
    /// Dense node table indexed by `NodeId - 1` (ids are handed out
    /// sequentially from 1 and never removed).
    nodes: Vec<NodeState>,
    /// Every node's open ports and group records.
    pub ports: PortTable<Rx>,
    /// What the kernel let go of under its lock — a closed port's
    /// handler, a refused spawn's body — until the lock is released (see
    /// the module docs): either may hold an endpoint handle.
    dropped: Vec<Box<dyn Any + Send>>,
    pub net_cfg: NetConfig,
    pub link_overrides: PairTable<LinkParams>,
    link_free: PairTable<u64>,
    pub partitions: PairTable<()>,
    pub impairments: PairTable<LinkImpairment>,
    /// Digest of the observable event trace (sends, deliveries, fault
    /// actions): the sum of per-record FNV-1a hashes, each of which pins
    /// its record's exact field values. A sum, not a chained hash,
    /// because the committed trace hashes were pinned as sums. See
    /// `Sim::trace_hash`.
    pub trace_digest: u64,
    pub stats: NetStats,
    pub sched: KernelStats,
    pub panics: Vec<String>,
    pub trace: bool,
    /// Whether a scheduler is currently inside `run_until`.
    in_run: bool,
    /// Last instant of the current run (inclusive): `next_step`
    /// applies nothing due later.
    run_limit: u64,
    /// The inline handler the event just applied queued; `next_step`
    /// hands it out before it applies another.
    inline: Option<InlineRun>,
    /// Idle stacks for the next spawns.
    stacks: StackPool,
    /// The stack of the process that exited last, until the context it
    /// switched to returns it to `stacks`: a process cannot free the
    /// stack it is still running on, and its last `step` may run an
    /// inline handler whose spawn would prime the stack under it.
    dead: Option<Stack>,
    /// Processes whose stacks have been entered and not yet left: while
    /// any are, the kernel may be stepped only from `home`.
    entered: usize,
    /// The OS thread that last drove the simulation (see
    /// `claim_driver`).
    home: Option<std::thread::ThreadId>,
}

/// What an inline handler runs as while it runs: its port's node, and
/// its port's `Served` (task name, group).
struct InlineAs {
    port: Addr,
    served: Arc<Served>,
}

thread_local! {
    static CUR_PID: std::cell::Cell<Option<Pid>> = const { std::cell::Cell::new(None) };
    /// Set while an inline handler runs on this thread (`CUR_PID` is
    /// `None` meanwhile).
    static CUR_INLINE: std::cell::RefCell<Option<InlineAs>> = const { std::cell::RefCell::new(None) };
}

/// The pid of the simulated process running on this thread, if any.
pub(crate) fn cur_pid() -> Option<Pid> {
    CUR_PID.with(|c| c.get())
}

/// Suspends the running context — a process, or the scheduler —
/// in `from` and resumes `to` on this thread. `CUR_PID` travels with the
/// context, as the span context does with every switch: each gets back
/// its own when it resumes, and a fresh process starts with neither.
fn switch(from: Handle, to: Handle) {
    debug_assert!(cur_inline().is_none(), "an inline handler switched");
    let pid = CUR_PID.take();
    coro::switch(from, to);
    CUR_PID.set(pid);
}

/// The node and group of the inline handler running on this thread.
fn cur_inline() -> Option<(NodeId, Option<u64>)> {
    CUR_INLINE.with(|c| c.borrow().as_ref().map(|i| (i.port.node, i.served.group)))
}

/// Panics if an inline handler runs on this thread: it promised not to
/// wait, and has no process to wait in.
pub(crate) fn forbid_inline(what: &str) {
    let running = CUR_INLINE.with(|c| c.borrow().as_ref().map(|i| (i.served.task.clone(), i.port)));
    if let Some((task, port)) = running {
        panic!("inline task '{task}' on {port} may not {what}: it runs with no process of its own");
    }
}

impl Kernel {
    fn new(seed: u64, net_cfg: NetConfig, trace: bool, inner: Weak<SimInner>) -> Kernel {
        Kernel {
            now: 0,
            now_shared: Arc::new(AtomicU64::new(0)),
            inner,
            events: BinaryHeap::new(),
            procs: Tasks::default(),
            next_pid: 1,
            shutdown: false,
            master_seed: seed,
            anon: NodeState::new(seed),
            nodes: Vec::new(),
            ports: PortTable::default(),
            dropped: Vec::new(),
            net_cfg,
            link_overrides: PairTable::new(),
            link_free: PairTable::new(),
            partitions: PairTable::new(),
            impairments: PairTable::new(),
            trace_digest: 0,
            stats: NetStats::default(),
            sched: KernelStats::default(),
            panics: Vec::new(),
            trace,
            in_run: false,
            run_limit: 0,
            inline: None,
            stacks: StackPool::default(),
            dead: None,
            entered: 0,
            home: None,
        }
    }

    /// Parks the exiting process's stack until another context runs.
    fn park_dead(&mut self, stack: Stack) {
        // An earlier one still parked is not running: only the caller is.
        if let Some(old) = self.dead.replace(stack) {
            self.stacks.give(old);
        }
    }

    /// Called by every context that a switch resumes: the stack of the
    /// process that exited before it, if any, is free now.
    fn resumed(&mut self) {
        if let Some(stack) = self.dead.take() {
            self.stacks.give(stack);
        }
    }

    /// The streams of raw node id `key`: its node's, or the anonymous
    /// ones for 0 and for ids no node has (synthetic ids used as data).
    fn streams(&mut self, key: u32) -> &mut NodeState {
        match key.checked_sub(1).and_then(|i| self.nodes.get_mut(i as usize)) {
            Some(node) => node,
            None => &mut self.anon,
        }
    }

    /// Next sequence number from `node`'s event stream (0 = anonymous).
    fn next_sseq(&mut self, node: u32) -> u64 {
        post_inc(&mut self.streams(node).seq)
    }

    /// A draw from `node`'s RNG stream (0 = anonymous).
    pub(crate) fn rand_for_node(&mut self, node: u32) -> u64 {
        self.streams(node).rng.next_u64()
    }

    fn roll_for(&mut self, node: NodeId) -> f64 {
        (self.rand_for_node(node.0) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The key of what is due next, the next event or the next timeout,
    /// and whether it is the timeout. Both keys come from the same
    /// streams, so this is the order one queue holding both would pop.
    fn next_due(&self) -> Option<(TimerKey, bool)> {
        let event = self.events.peek().map(|e| (e.at, e.src, e.sseq));
        match (event, self.procs.first_timer()) {
            (Some(e), Some(t)) if t < e => Some((t, true)),
            (Some(e), _) => Some((e, false)),
            (None, t) => t.map(|t| (t, true)),
        }
    }

    /// Virtual-time delay between a control action's issue and its
    /// cluster-wide application: one default network latency (at least
    /// 1µs).
    pub(crate) fn control_delay(&self) -> u64 {
        (self.net_cfg.default.latency.as_micros() as u64).max(1)
    }

    /// Defers a control op issued by a process on `src`: it lands as a
    /// control event one [`control_delay`] from now, keyed on `src`'s
    /// stream.
    ///
    /// [`control_delay`]: Kernel::control_delay
    fn defer_control(&mut self, src: u32, op: ControlOp) {
        let at = self.now + self.control_delay();
        let sseq = self.next_sseq(src);
        self.events.push(Event {
            at,
            src,
            sseq,
            kind: EventKind::Control(op),
        });
    }

    /// Folds a trace record into the run's event digest. The first word
    /// is a record tag, the rest are record fields.
    pub fn trace_note(&mut self, words: &[u64]) {
        let mut h = FNV_OFFSET;
        for w in words {
            for b in w.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
            }
        }
        self.trace_digest = self.trace_digest.wrapping_add(h);
    }

    /// The impairment installed for a node pair, looked up symmetrically.
    fn impairment(&self, a: NodeId, b: NodeId) -> Option<LinkImpairment> {
        self.impairments
            .get(a, b)
            .or_else(|| self.impairments.get(b, a))
    }

    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.nodes.len() as u32 + 1);
        // Derive the node's RNG from the master seed and its id.
        let h = (self.master_seed
            ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(id.0 as u64 + 1))
        .rotate_left(17);
        self.nodes.push(NodeState::new(h));
        id
    }

    /// Node state by id; `None` for ids this kernel never handed out
    /// (synthetic ids used as data are routinely probed here).
    #[inline]
    pub fn node(&self, id: NodeId) -> Option<&NodeState> {
        match id.0 {
            0 => None,
            n => self.nodes.get(n as usize - 1),
        }
    }

    #[inline]
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut NodeState> {
        match id.0 {
            0 => None,
            n => self.nodes.get_mut(n as usize - 1),
        }
    }

    pub fn link_params(&self, from: NodeId, to: NodeId) -> LinkParams {
        if from == to {
            return self.net_cfg.local;
        }
        self.link_overrides
            .get(from, to)
            .unwrap_or(self.net_cfg.default)
    }

    fn apply(&mut self, kind: EventKind) {
        match kind {
            EventKind::Control(op) => {
                self.apply_control(op);
            }
            EventKind::Deliver { to, landing } => {
                let size = match &landing {
                    Ok((_, m)) => m.len() as u64,
                    Err(_) => 0,
                };
                self.trace_note(&[2, self.now, to.node.0 as u64, to.port as u64, size]);
                let node_up = self.node(to.node).map(|n| n.up).unwrap_or(false);
                if !node_up {
                    self.stats.msgs_dropped += 1;
                    return;
                }
                let Some(port) = self.ports.get_mut(&to) else {
                    // Bounce data messages back to the sender (RST-like);
                    // never bounce a bounce.
                    if let Ok((from, _)) = landing {
                        self.stats.bounces += 1;
                        let lat = self.link_params(to.node, from.node).latency;
                        let mut at = self.now + lat.as_micros() as u64;
                        if to.node != from.node && at <= self.now {
                            at = self.now + 1; // cross-node delay floor
                        }
                        let sseq = self.next_sseq(to.node.0);
                        self.events.push(Event {
                            at,
                            src: to.node.0,
                            sseq,
                            kind: EventKind::Deliver {
                                to: from,
                                landing: Err(RecvError::Unreachable(to)),
                            },
                        });
                    } else {
                        self.stats.msgs_dropped += 1;
                    }
                    return;
                };
                self.stats.msgs_delivered += 1;
                if let Some(served) = &port.served {
                    let served = Arc::clone(served);
                    if served.runs_inline(&landing) {
                        debug_assert!(self.inline.is_none(), "an inline handler left queued");
                        self.inline = Some(InlineRun { port: to, served, landing });
                    } else {
                        self.spawn_handler(to, &served, landing);
                    }
                    return;
                }
                port.rx.queue.push_back(landing);
                // Wake the first receiver still blocked; keep the rest.
                while let Some((pid, gen)) = port.rx.waiters.pop_front() {
                    if self.procs.wake(pid, Some(gen)) {
                        break;
                    }
                }
            }
        }
    }

    /// Starts a served port's handler on one landing as a process of the
    /// port's node, in the port's group.
    pub(crate) fn spawn_handler(&mut self, port: Addr, served: &Served, landing: Landing) {
        let Some(inner) = self.inner.upgrade() else {
            return;
        };
        let job = served.job(landing);
        self.spawn_local(&inner, Some(port.node), Arc::clone(&served.task), served.group, job);
    }

    /// Applies a network control, with its trace note.
    fn apply_net(&mut self, c: NetCtl) {
        let now = self.now;
        match c {
            NetCtl::Crash(n) => self.crash_node(n),
            NetCtl::Restart(n) => {
                self.trace_note(&[4, now, n.0 as u64]);
                if let Some(s) = self.node_mut(n) {
                    s.up = true;
                }
            }
            NetCtl::SetLink(a, b, p) => {
                self.link_overrides.insert(a, b, p);
            }
            NetCtl::SetPartition(a, b, on) => {
                self.trace_note(&[if on { 5 } else { 6 }, now, a.0 as u64, b.0 as u64]);
                if on {
                    self.partitions.insert(a, b, ());
                } else {
                    self.partitions.remove(a, b);
                    self.partitions.remove(b, a);
                }
            }
            NetCtl::SetImpairment(a, b, imp) => {
                self.trace_note(&[
                    7,
                    now,
                    a.0 as u64,
                    b.0 as u64,
                    (imp.loss * 1e6) as u64,
                    (imp.dup * 1e6) as u64,
                    (imp.reorder * 1e6) as u64,
                    imp.extra_latency.as_micros() as u64,
                ]);
                self.impairments.remove(b, a);
                self.impairments.insert(a, b, imp);
            }
            NetCtl::ClearImpairment(a, b) => {
                self.trace_note(&[8, now, a.0 as u64, b.0 as u64]);
                self.impairments.remove(a, b);
                self.impairments.remove(b, a);
            }
        }
    }

    fn apply_control(&mut self, op: ControlOp) {
        match op {
            ControlOp::Net(c) => self.apply_net(c),
            ControlOp::Spawn {
                node,
                name,
                group,
                f,
            } => {
                if let Some(inner) = self.inner.upgrade() {
                    self.spawn_local(&inner, node, name, group, f);
                }
            }
            ControlOp::KillGroup(g) => self.kill_group(g),
            ControlOp::Bump(obj) => obj.bump(&mut self.procs),
            ControlOp::Note { node, detail } => {
                if let Some(inner) = self.inner.upgrade() {
                    let now = self.now;
                    let j = inner
                        .node_extensions(node)
                        .get_or_init(|| crate::journal::Journal::new(node));
                    j.record(SimTime::from_micros(now), "fault", detail);
                }
            }
        }
    }

    /// The scheduler state machine: picks the next process to run, or
    /// applies due events until one becomes runnable, or reports `Done`.
    /// Shared verbatim by the driver loop and the in-process fast path,
    /// so every context makes identical decisions.
    pub(crate) fn next_step(&mut self) -> Step {
        loop {
            if let Some((pid, to)) = self.procs.next_runnable(|p| p.stack.handle()) {
                return Step::Run(pid, to);
            }
            match self.next_due() {
                Some(((at, ..), timer)) if at <= self.run_limit => {
                    debug_assert!(at >= self.now, "event in the past");
                    self.now = at.max(self.now);
                    self.now_shared.store(self.now, Ordering::Release);
                    self.sched.events += 1;
                    // Amortized link_free pruning: entries at or behind
                    // `now` are semantically identical to no entry, so
                    // long runs must not accumulate dead pairs.
                    if self.sched.events & 0xFFF == 0 && !self.link_free.is_empty() {
                        let now = self.now;
                        self.link_free.retain(|&f| f > now);
                    }
                    if timer {
                        self.procs.time_out(|_| true);
                    } else {
                        let ev = self.events.pop().expect("peeked");
                        self.apply(ev.kind);
                    }
                    if let Some(run) = self.inline.take() {
                        self.sched.inline_runs += 1;
                        return Step::Inline(run);
                    }
                }
                _ => return Step::Done,
            }
        }
    }

    /// Whether a blocking process may run the scheduler inline instead of
    /// waking the driver: inside a run, outside shutdown, with no
    /// panic for the scheduler to see (see the module docs).
    #[inline]
    pub(crate) fn can_inline(&self) -> bool {
        self.in_run && !self.shutdown && self.panics.is_empty()
    }

    /// Sends a message into the network model. Called with the kernel
    /// lock held, from the sending process (or the driver). All
    /// randomness is drawn from the *sender node's* stream and the
    /// delivery event is keyed on it.
    pub fn net_send(&mut self, from: Addr, to: Addr, msg: Bytes) {
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += msg.len() as u64;
        self.trace_note(&[
            1,
            self.now,
            from.node.0 as u64,
            from.port as u64,
            to.node.0 as u64,
            to.port as u64,
            msg.len() as u64,
        ]);
        if self.trace {
            eprintln!(
                "[{}] send {} -> {} ({} bytes)",
                SimTime::from_micros(self.now),
                from,
                to,
                msg.len()
            );
        }
        let dest_up = self.node(to.node).map(|n| n.up).unwrap_or(false);
        let partitioned = self.partitions.get(from.node, to.node).is_some()
            || self.partitions.get(to.node, from.node).is_some();
        if !dest_up || partitioned {
            self.stats.msgs_dropped += 1;
            return;
        }
        let params = self.link_params(from.node, to.node);
        if params.loss > 0.0 && self.roll_for(from.node) < params.loss {
            self.stats.msgs_dropped += 1;
            return;
        }
        let imp = self.impairment(from.node, to.node);
        if let Some(imp) = imp {
            if imp.loss > 0.0 && self.roll_for(from.node) < imp.loss {
                self.stats.msgs_dropped += 1;
                return;
            }
        }
        let ser_us = match params.bandwidth {
            Some(bw) if bw > 0 => (msg.len() as u128 * 1_000_000 / bw as u128) as u64,
            _ => 0,
        };
        // A `link_free` entry at or behind `now` means the link is idle —
        // exactly what no entry means — so the unconstrained default
        // (no bandwidth cap, empty table) touches nothing at all, and a
        // stale entry is dropped the next time its pair sends.
        let start = if ser_us == 0 && self.link_free.is_empty() {
            self.now
        } else {
            let free = self.link_free.get(from.node, to.node).unwrap_or(0);
            let start = free.max(self.now);
            let horizon = start + ser_us;
            if horizon > self.now {
                self.link_free.insert(from.node, to.node, horizon);
            } else {
                self.link_free.remove(from.node, to.node);
            }
            start
        };
        let mut at = start + ser_us + params.latency.as_micros() as u64;
        if from.node != to.node && at <= self.now {
            // Cross-node deliveries always take ≥ 1µs, so no frame
            // lands at the instant it left another node. (Serialization
            // delay already clears the floor for bandwidth-limited
            // zero-latency links.)
            at = self.now + 1;
        }
        if let Some(imp) = imp {
            at += imp.extra_latency.as_micros() as u64;
            if imp.reorder > 0.0 && self.roll_for(from.node) < imp.reorder {
                // Hold the message back far enough that later sends on
                // the link can overtake it.
                let span = 4 * params.latency.as_micros() as u64 + 1_000;
                at += 1 + self.rand_for_node(from.node.0) % span;
                self.stats.msgs_reordered += 1;
            }
            if imp.dup > 0.0 && self.roll_for(from.node) < imp.dup {
                let echo = at + 1 + self.rand_for_node(from.node.0) % 1_000;
                self.stats.msgs_duplicated += 1;
                let sseq = self.next_sseq(from.node.0);
                self.events.push(Event {
                    at: echo,
                    src: from.node.0,
                    sseq,
                    kind: EventKind::Deliver {
                        to,
                        landing: Ok((from, msg.clone())),
                    },
                });
            }
        }
        let sseq = self.next_sseq(from.node.0);
        self.events.push(Event {
            at,
            src: from.node.0,
            sseq,
            kind: EventKind::Deliver {
                to,
                landing: Ok((from, msg)),
            },
        });
    }

    /// Opens a port on `node` (`PortTable::open`) for the calling
    /// process's group if that process lives on the node, and for no
    /// group otherwise.
    pub fn open_port(&mut self, node: NodeId, req: PortReq) -> Result<(Addr, u64), NetError> {
        if !self.node(node).is_some_and(|n| n.up) {
            return Err(NetError::NodeDown);
        }
        let group = cur_pid()
            .and_then(|pid| self.procs.get(pid))
            .filter(|p| p.node == Some(node))
            .and_then(|p| p.group);
        self.ports.open(node, req, group, Rx::default())
    }

    /// Lets go of closed ports: wakes their blocked receivers so they
    /// observe `Closed`, drops their queued landings, and keeps a served
    /// one's handler until the lock is released.
    pub fn release(&mut self, closed: impl IntoIterator<Item = SimPort>) {
        for port in closed {
            for (pid, gen) in port.rx.waiters {
                self.procs.wake(pid, Some(gen));
            }
            if let Some(served) = port.served {
                self.dropped.push(Box::new(served));
            }
        }
    }

    /// `pid`'s reply endpoint, if it has one on `node`, emptied of
    /// whatever earlier calls left on it: a reply or a bounce owed to a
    /// call that is over answers no later one.
    pub fn reply_endpoint(&mut self, pid: Pid, node: NodeId) -> Option<Arc<dyn Endpoint>> {
        let ep = self.procs.get(pid)?.reply.as_ref()?;
        if ep.addr.node != node {
            return None;
        }
        self.ports.own(&ep.addr, ep.id)?.rx.queue.clear();
        Some(Arc::clone(ep) as Arc<dyn Endpoint>)
    }

    /// Kills a process group (`PortTable::kill_where`): its members, in pid
    /// order, and its endpoints, before any member has unwound.
    pub fn kill_group(&mut self, group: u64) {
        let (members, closed) = self.ports.kill_where(self.now, |g, _| g == group);
        for pid in members {
            self.kill_proc(pid);
        }
        self.release(closed.into_iter().map(|(_, port)| port));
    }

    /// Kills, in pid order, every process `pick` accepts.
    fn kill_procs(&mut self, pick: impl Fn(Pid, &Proc) -> bool) {
        let pids: Vec<Pid> = (self.procs.iter())
            .filter(|&(pid, p)| pick(pid, p))
            .map(|(pid, _)| pid)
            .collect();
        for pid in pids {
            self.kill_proc(pid);
        }
    }

    /// Marks a process as killed and schedules it to unwind.
    pub fn kill_proc(&mut self, pid: Pid) {
        let Some(p) = self.procs.get_mut(pid).filter(|p| !p.killed) else {
            return;
        };
        p.killed = true;
        // A runnable or running process observes the flag at its next
        // kernel interaction.
        self.procs.wake(pid, None);
    }

    /// Kills all processes and groups on `node` and closes the node's
    /// endpoints. The calling process, if it is on the node, is marked
    /// killed but left as it is, to unwind at its next kernel interaction.
    pub fn crash_node(&mut self, node: NodeId) {
        self.trace_note(&[3, self.now, node.0 as u64]);
        if let Some(n) = self.node_mut(node) {
            n.up = false;
        }
        let closed = self.ports.close_where(|addr, _| addr.node == node);
        // The groups' ports are closed, and their members die below.
        self.ports.kill_where(self.now, |_, home| home == node);
        let me = cur_pid();
        self.kill_procs(|pid, p| p.node == Some(node) && Some(pid) != me);
        self.release(closed.into_iter().map(|(_, port)| port));
        let me = me.and_then(|pid| self.procs.get_mut(pid));
        if let Some(p) = me.filter(|p| p.node == Some(node)) {
            p.killed = true;
        }
    }

    /// Allocates a process-group id from `key`'s stream (0 = anonymous).
    /// The id embeds the allocating node.
    pub fn alloc_group(&mut self, key: u32) -> u64 {
        let ctr = post_inc(&mut self.streams(key).next_group);
        ((key as u64) << 32) | (ctr & 0xFFFF_FFFF)
    }

    /// Inserts a new process: allocates a pid, primes a stack with its
    /// body, and makes it runnable. Nothing runs until the scheduler
    /// first switches to the stack. Group inheritance is resolved by the
    /// *caller*; a killed group takes none.
    pub(crate) fn spawn_local(
        &mut self,
        inner: &Arc<SimInner>,
        node: Option<NodeId>,
        name: Arc<str>,
        group: Option<u64>,
        f: Box<dyn FnOnce() + Send>,
    ) {
        if self.shutdown {
            self.dropped.push(Box::new(f));
            return;
        }
        let pid = self.next_pid;
        if let Some(n) = node {
            let up = self.node(n).map(|s| s.up).unwrap_or(false);
            if !up || group.is_some_and(|g| !self.ports.join(n, g, pid)) {
                if self.trace {
                    eprintln!(
                        "[{}] spawn of '{}' dropped: {} is down or its group killed",
                        SimTime::from_micros(self.now),
                        name,
                        n
                    );
                }
                self.dropped.push(Box::new(f));
                return;
            }
        }
        self.next_pid += 1;
        let (stack, mapped) = self
            .stacks
            .take()
            .expect("failed to map a simulation stack");
        let inner = Arc::clone(inner);
        stack.prime(move || proc_main(inner, pid, f));
        self.sched.stacks_mapped += mapped as u64;
        self.sched.spawns += 1;
        let p = Proc {
            name,
            node,
            group,
            stack,
            killed: false,
            reply: None,
        };
        self.procs.insert(pid, p);
        self.procs.queue(pid);
    }
}

/// Shared simulation state: the kernel, the scheduler's context, and the
/// per-node extensions.
pub(crate) struct SimInner {
    pub kernel: Mutex<Kernel>,
    now_cache: Arc<AtomicU64>,
    /// The scheduler loop's context while a process runs: a process
    /// switches back to it at the run's end, shutdown, or a panic.
    sched: coro::Context,
    /// Per-node extension maps (see [`crate::rt::Extensions`]). Outside
    /// the kernel lock: extensions are touched from running processes
    /// and must not contend with the scheduler.
    ext: Mutex<BTreeMap<NodeId, Arc<crate::rt::Extensions>>>,
}

impl SimInner {
    pub fn new(seed: u64, net_cfg: NetConfig, trace: bool) -> Arc<SimInner> {
        Arc::new_cyclic(|inner| {
            let kernel = Kernel::new(seed, net_cfg, trace, Weak::clone(inner));
            SimInner {
                now_cache: Arc::clone(&kernel.now_shared),
                kernel: Mutex::new(kernel),
                sched: coro::Context::new(),
                ext: Mutex::new(BTreeMap::new()),
            }
        })
    }

    /// The extension map for `node`, shared by every handle to it.
    pub fn node_extensions(&self, node: NodeId) -> Arc<crate::rt::Extensions> {
        Arc::clone(self.ext.lock().entry(node).or_default())
    }

    /// Registers a node; returns its id.
    pub fn add_node(&self) -> NodeId {
        self.kernel.lock().add_node()
    }

    // ---- process-side primitives -------------------------------------

    /// Unwinds the current process with the kill signal.
    fn kill_unwind() -> ! {
        panic::resume_unwind(Box::new(KillSignal))
    }

    /// The kernel, locked, with the node (raw id, 0 = free-floating) and
    /// group the calling context acts for: a process's own, or an inline
    /// handler's port's node and owner group. `None` for the driver.
    fn lock_caller(&self) -> Option<(MutexGuard<'_, Kernel>, u32, Option<u64>)> {
        if let Some(pid) = cur_pid() {
            let k = self.kernel.lock();
            let me = k.procs.get(pid);
            let node = me.and_then(|p| p.node).map_or(0, |n| n.0);
            let group = me.and_then(|p| p.group);
            return Some((k, node, group));
        }
        let (node, group) = cur_inline()?;
        Some((self.kernel.lock(), node.0, group))
    }

    /// [`Kernel::next_step`] for every loop that steps the kernel — a
    /// blocking process, an exiting one, the scheduler. Runs each inline
    /// handler it hands back on this context with the lock released, and
    /// returns the process to switch to next, or `None`: done, or an
    /// inline handler panicked (the scheduler must see it).
    fn step<'a>(
        &'a self,
        mut k: MutexGuard<'a, Kernel>,
    ) -> (MutexGuard<'a, Kernel>, Option<(Pid, Handle)>) {
        loop {
            let step = k.next_step();
            if !k.dropped.is_empty() {
                unlock(k);
                k = self.kernel.lock();
            }
            match step {
                Step::Run(pid, to) => return (k, Some((pid, to))),
                Step::Done => return (k, None),
                Step::Inline(run) => {
                    drop(k);
                    self.run_inline(run);
                    k = self.kernel.lock();
                    if !k.panics.is_empty() {
                        return (k, None);
                    }
                }
            }
        }
    }

    /// Runs one inline handler on the calling thread, as its port's node
    /// (see the module docs): the thread is no process meanwhile and
    /// under no span, and a panic is recorded like a process's.
    fn run_inline(&self, run: InlineRun) {
        let InlineRun {
            port,
            served,
            landing,
        } = run;
        let pid = CUR_PID.with(|c| c.replace(None));
        let span = crate::trace::set_current_ctx(None);
        let me = InlineAs {
            port,
            served: Arc::clone(&served),
        };
        CUR_INLINE.with(|c| *c.borrow_mut() = Some(me));
        let result = panic::catch_unwind(AssertUnwindSafe(|| (served.handler)(landing)));
        CUR_INLINE.with(|c| *c.borrow_mut() = None);
        crate::trace::set_current_ctx(span);
        CUR_PID.with(|c| c.set(pid));
        if let Err(payload) = result {
            self.record_panic("inline task", &served.task, Some(port.node), &*payload);
        }
    }

    /// Records the panic of a process or inline handler for the driver
    /// to re-raise, and dumps its node's journal tail (the black box;
    /// outside the kernel lock — the journal lives in the node's
    /// extension map). A kill's unwind is no panic.
    fn record_panic(
        &self,
        kind: &str,
        name: &str,
        node: Option<NodeId>,
        payload: &(dyn std::any::Any + Send),
    ) {
        if payload.is::<KillSignal>() {
            return;
        }
        let msg = panic_message(payload);
        let now = {
            let mut k = self.kernel.lock();
            k.panics.push(format!("{kind} '{name}': {msg}"));
            k.now
        };
        if let Some(node) = node {
            let j = self
                .node_extensions(node)
                .get_or_init(|| crate::journal::Journal::new(node));
            j.record(
                SimTime::from_micros(now),
                "proc",
                format!("panic in '{name}': {msg}"),
            );
            j.dump_tail(&format!("panic in '{name}'"));
        }
    }

    /// Blocks the current process; returns whether the wait timed out.
    ///
    /// `prepare` runs under the kernel lock after the wait generation has
    /// been bumped; it receives the generation so it can register the
    /// process on wait lists. `wake_at` optionally schedules a timeout.
    ///
    /// Inside a run the caller runs the scheduler itself: if the next
    /// runnable process turns out to be the caller (its own timeout or a
    /// same-instant delivery), it continues with no switch at all;
    /// otherwise it switches to the next process's stack directly.
    fn block_current<F>(&self, wake_at: Option<u64>, prepare: F) -> bool
    where
        F: FnOnce(&mut Kernel, Pid, u64),
    {
        forbid_inline("block");
        let pid = cur_pid().expect("blocking call outside a simulated process");
        let me;
        // Where to switch to: a peer directly, or the scheduler. `None`:
        // the caller runs on.
        let mut to = Some(self.sched.handle());
        {
            let mut k = self.kernel.lock();
            if k.shutdown {
                drop(k);
                Self::kill_unwind();
            }
            let p = k.procs.get(pid).expect("current process missing");
            if p.killed {
                drop(k);
                Self::kill_unwind();
            }
            me = p.stack.handle();
            let src = p.node.map_or(0, |n| n.0);
            let timer = wake_at.map(|at| (at, src, k.next_sseq(src)));
            let gen = k.procs.block(pid, timer);
            prepare(&mut k, pid, gen);
            if k.can_inline() {
                let next;
                (k, next) = self.step(k);
                match next {
                    Some((next, _)) if next == pid => {
                        k.sched.self_continues += 1;
                        to = None;
                    }
                    Some((_, peer)) => {
                        k.sched.direct_handoffs += 1;
                        to = Some(peer);
                    }
                    None => {}
                }
            }
        }
        if let Some(to) = to {
            switch(me, to);
        }
        let mut k = self.kernel.lock();
        k.resumed();
        let (p, timed_out) = k.procs.woken(pid).expect("current process missing");
        if k.shutdown || p.killed {
            drop(k);
            Self::kill_unwind();
        }
        timed_out
    }

    /// Sleeps the current process for `d` of virtual time.
    pub fn sleep(&self, d: Duration) {
        let at = self.now().as_micros() + d.as_micros() as u64;
        self.block_current(Some(at), |_, _, _| {});
    }

    /// Current virtual time, read from the kernel's lock-free mirror:
    /// time advances only in the step loop while every process is
    /// parked, so this is always exact for the caller.
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.now_cache.load(Ordering::Acquire))
    }

    /// Raw id of the calling process's node (0 for the driver and for
    /// free-floating controllers): the home of a
    /// [`SimChan`](crate::sim::SimChan)'s wait object.
    pub(crate) fn cur_node_key(&self) -> u32 {
        self.lock_caller().map_or(0, |(_, node, _)| node)
    }

    /// A draw from `node`'s deterministic RNG stream.
    pub fn rand_for(&self, node: NodeId) -> u64 {
        self.kernel.lock().rand_for_node(node.0)
    }

    /// Blocks until `obj`'s generation exceeds `seen` (or the timeout
    /// elapses); returns the generation observed on wake.
    pub fn wait_newer(&self, obj: &WaitObj, seen: u64, timeout: Option<Duration>) -> u64 {
        /// Takes the process's entry off `obj` when its wait ends without
        /// a bump, which would have taken it: timed out, or killed and
        /// unwinding.
        struct Leave<'a>(&'a WaitObj, Pid);
        impl Drop for Leave<'_> {
            fn drop(&mut self) {
                self.0.state.lock().1.retain(|(pid, _)| *pid != self.1);
            }
        }
        loop {
            let gen = obj.generation();
            if gen > seen {
                return gen;
            }
            let wake_at = timeout.map(|t| self.now().as_micros() + t.as_micros() as u64);
            let leave = cur_pid().map(|pid| Leave(obj, pid));
            let timed_out = self.block_current(wake_at, |_, pid, gen| {
                obj.state.lock().1.push_back((pid, gen));
            });
            if timed_out {
                drop(leave);
            } else {
                // A bump ended the wait, and took the entry.
                std::mem::forget(leave);
            }
            let gen = obj.generation();
            if gen > seen || timed_out {
                return gen;
            }
        }
    }

    /// Bumps `obj`'s generation. Same-node (or driver) callers apply it
    /// at once; a process on another node defers it by one
    /// fault-propagation delay as a control event.
    pub fn bump(&self, obj: &Arc<WaitObj>) {
        match self.lock_caller() {
            None => obj.bump(&mut self.kernel.lock().procs),
            Some((mut k, my_node, _)) if my_node == obj.home => obj.bump(&mut k.procs),
            Some((mut k, my_node, _)) => k.defer_control(my_node, ControlOp::Bump(Arc::clone(obj))),
        }
    }

    /// Receives from an endpoint with an optional timeout. An item
    /// already queued is returned immediately — no switch, no
    /// scheduler involvement (the receive-side half of handoff elision).
    pub fn ep_recv(&self, key: Addr, id: u64, timeout: Option<Duration>) -> Landing {
        forbid_inline("receive");
        let pid = cur_pid().expect("recv outside a simulated process");
        let mut timed_out = false;
        loop {
            let wake_at;
            {
                let mut k = self.kernel.lock();
                if k.shutdown || k.procs.get(pid).is_none_or(|p| p.killed) {
                    drop(k);
                    Self::kill_unwind();
                }
                let Some(port) = k.ports.own(&key, id) else {
                    return Err(RecvError::Closed);
                };
                // A wait that ended leaves its entry if no delivery took it.
                port.rx.waiters.retain(|(p, _)| *p != pid);
                if let Some(landing) = port.rx.queue.pop_front() {
                    return landing;
                }
                if timeout == Some(Duration::ZERO) || timed_out {
                    return Err(RecvError::TimedOut);
                }
                // Woken with nothing queued: block again, for the whole
                // timeout. Such races are rare and deterministic.
                wake_at = timeout.map(|t| k.now + t.as_micros() as u64);
            }
            timed_out = self.block_current(wake_at, |k, pid, gen| {
                if let Some(port) = k.ports.own(&key, id) {
                    port.rx.waiters.push_back((pid, gen));
                }
            });
        }
    }

    // ---- spawning -----------------------------------------------------

    /// Spawns a process. `node` of `None` is a free-floating controller.
    /// The process joins the spawner's process group if it lands on the
    /// spawner's node, and no group otherwise.
    pub fn spawn(self: &Arc<Self>, node: Option<NodeId>, name: &str, f: Box<dyn FnOnce() + Send>) {
        self.spawn_in(node, name, None, f);
    }

    /// Spawns a process into an explicit group (`Some`, whose home is
    /// `node`) or, with `None`, into the current process's group if it
    /// lands on that process's node: a group lives on one node. Same-node
    /// spawns (and any spawn from the driver) start immediately; a
    /// process spawning onto *another* node defers by one
    /// fault-propagation delay, carried as a control event.
    pub fn spawn_in(
        self: &Arc<Self>,
        node: Option<NodeId>,
        name: &str,
        group: Option<u64>,
        f: Box<dyn FnOnce() + Send>,
    ) {
        let target = node.map(|n| n.0).unwrap_or(0);
        match self.lock_caller() {
            None => {
                let mut k = self.kernel.lock();
                k.spawn_local(self, node, Arc::from(name), group, f);
                unlock(k);
            }
            Some((mut k, my_node, my_group)) => {
                if my_node == target {
                    let group = group.or(my_group);
                    k.spawn_local(self, node, Arc::from(name), group, f);
                } else {
                    let op = ControlOp::Spawn {
                        node,
                        name: Arc::from(name),
                        group,
                        f,
                    };
                    k.defer_control(my_node, op);
                }
                unlock(k);
            }
        }
    }

    /// Allocates a process-group id from the caller's node stream.
    pub fn alloc_group(&self) -> u64 {
        match self.lock_caller() {
            None => self.kernel.lock().alloc_group(0),
            Some((mut k, my_node, _)) => k.alloc_group(my_node),
        }
    }

    /// Kills every member of a group whose home is `home`. Same-node and
    /// driver callers apply immediately; a cross-node process defers by
    /// one fault-propagation delay (control event).
    pub fn kill_group(&self, group: u64, home: NodeId) {
        match self.lock_caller() {
            None => {
                let mut k = self.kernel.lock();
                k.kill_group(group);
                unlock(k);
            }
            Some((mut k, my_node, _)) if my_node == home.0 => {
                k.kill_group(group);
                unlock(k);
            }
            Some((mut k, my_node, _)) => k.defer_control(my_node, ControlOp::KillGroup(group)),
        }
    }

    // ---- fault injection ---------------------------------------------

    /// Applies a cluster-wide network control. From the driver it takes
    /// effect immediately; from a process it lands as a control event
    /// one fault-propagation delay later.
    pub(crate) fn net_control(&self, ctl: NetCtl) {
        match self.lock_caller() {
            None => {
                let mut k = self.kernel.lock();
                k.apply_net(ctl);
                unlock(k);
            }
            Some((mut k, my_node, _)) => k.defer_control(my_node, ControlOp::Net(ctl)),
        }
    }

    /// Records a fault-injection note in `node`'s journal. Driver
    /// context records immediately; a process defers it as a control
    /// event, so the record lands at the same virtual instant as the
    /// fault it describes. Notes are issued before their fault's
    /// control, so the per-issuer sequence keeps them ordered first in
    /// the journal.
    pub fn journal_fault(&self, node: NodeId, detail: String) {
        match self.lock_caller() {
            None => {
                let now = self.now();
                let j = self
                    .node_extensions(node)
                    .get_or_init(|| crate::journal::Journal::new(node));
                j.record(now, "fault", detail);
            }
            Some((mut k, my_node, _)) => {
                k.defer_control(my_node, ControlOp::Note { node, detail });
            }
        }
    }

    /// Whether `node` is up.
    pub fn node_up(&self, node: NodeId) -> bool {
        self.kernel.lock().node(node).is_some_and(|n| n.up)
    }

    // ---- aggregate views ---------------------------------------------

    pub fn trace_hash(&self) -> u64 {
        FNV_OFFSET.wrapping_add(self.kernel.lock().trace_digest)
    }

    pub fn net_stats(&self) -> NetStats {
        self.kernel.lock().stats
    }

    pub fn kernel_stats(&self) -> KernelStats {
        let k = self.kernel.lock();
        KernelStats {
            timers: k.procs.timers() as u64,
            ..k.sched
        }
    }

    pub fn live_processes(&self) -> usize {
        self.kernel.lock().procs.len()
    }

    // ---- scheduler ----------------------------------------------------

    /// Runs the simulation until virtual time reaches `limit` (inclusive
    /// of events at `limit`), or until quiescence if `limit` is `None`,
    /// then levels the clock to `limit`. Processes the driver spawned
    /// run at the current instant even when it is past the limit.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic observed in any simulated process.
    pub fn run_until(&self, limit: Option<u64>) {
        self.claim_driver();
        {
            let mut k = self.kernel.lock();
            k.in_run = true;
            k.run_limit = limit.unwrap_or(u64::MAX);
        }
        loop {
            let k = self.kernel.lock();
            if !k.panics.is_empty() {
                break;
            }
            let (mut k, next) = self.step(k);
            let Some((_, to)) = next else { break };
            k.sched.driver_resumes += 1;
            drop(k);
            self.resume_from_scheduler(to);
        }
        self.check_panics();
        let mut k = self.kernel.lock();
        if let Some(end) = limit.filter(|&end| end > k.now) {
            k.now = end;
            k.now_shared.store(end, Ordering::Release);
        }
        k.in_run = false;
    }

    /// Makes the calling thread the one the processes run on.
    ///
    /// # Panics
    ///
    /// If another thread drove the simulation while it started processes
    /// that are suspended now: they stay on the thread they started on.
    fn claim_driver(&self) {
        let me = std::thread::current().id();
        let mut k = self.kernel.lock();
        if k.entered > 0 && k.home != Some(me) {
            let n = k.entered;
            drop(k);
            panic!(
                "a simulation with {n} suspended processes was driven from another OS thread: \
                 a process runs on the thread that started it, so run, shut down and drop \
                 the Sim on the thread that ran it"
            );
        }
        k.home = Some(me);
    }

    /// Switches from the scheduler to a process, and returns once a
    /// process switches back.
    fn resume_from_scheduler(&self, to: Handle) {
        switch(self.sched.handle(), to);
        self.kernel.lock().resumed();
    }

    fn check_panics(&self) {
        let msg = {
            let mut k = self.kernel.lock();
            (!k.panics.is_empty()).then(|| k.panics.remove(0))
        };
        if let Some(m) = msg {
            panic!("simulated process panicked: {m}");
        }
    }

    /// Shuts the simulation down: kills every process, resumes each so it
    /// unwinds — with `shutdown` set every handoff routes through the
    /// scheduler, which sequences the drain — unmaps the idle stacks, and
    /// closes every endpoint still open, so no handler a served port
    /// holds keeps the simulation alive. Driver context only — no run is
    /// open, so all processes are suspended. Ignores panics recorded
    /// during shutdown.
    pub fn shutdown(&self) {
        self.claim_driver();
        {
            let mut k = self.kernel.lock();
            k.shutdown = true;
            k.kill_procs(|_, _| true);
        }
        loop {
            let step = {
                let mut k = self.kernel.lock();
                k.panics.clear();
                k.procs.next_runnable(|p| p.stack.handle())
            };
            match step {
                Some((_, to)) => self.resume_from_scheduler(to),
                None => break,
            }
        }
        let mut k = self.kernel.lock();
        // `kill_proc` made every blocked process runnable, and a process
        // unwinds at shutdown before it would block again, so each exited.
        debug_assert!(k.procs.is_empty(), "a process outlived the shutdown drain");
        // Every process has left its group, and a record goes with the
        // last member out.
        debug_assert_eq!(k.ports.groups(), 0, "a group record outlived its members");
        k.stacks.clear();
        let open = k.ports.close_where(|_, _| true);
        unlock(k);
        drop(open);
    }
}

/// Releases a kernel's lock, then drops what the kernel let go of under
/// it (see the module docs).
pub(crate) fn unlock(mut k: MutexGuard<'_, Kernel>) {
    let dropped = std::mem::take(&mut k.dropped);
    drop(k);
    drop(dropped);
}

/// What a caught panic said, for both runtimes' postmortems.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// The body of every simulated process, run on its stack once the
/// scheduler first switches to it. Returns the context to switch to
/// when it is done; the stack's entry function makes that last switch,
/// from a frame that owns nothing (`inner` is dropped by then).
fn proc_main(inner: Arc<SimInner>, pid: Pid, f: Box<dyn FnOnce() + Send>) -> Handle {
    CUR_PID.set(Some(pid));
    let start_killed = {
        let mut k = inner.kernel.lock();
        k.resumed();
        k.entered += 1;
        k.shutdown || k.procs.get(pid).is_none_or(|p| p.killed)
    };
    if start_killed {
        drop(f);
    } else if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(f)) {
        let (name, node) = {
            let k = inner.kernel.lock();
            let me = k.procs.get(pid);
            (
                me.map_or_else(String::new, |p| p.name.to_string()),
                me.and_then(|p| p.node),
            )
        };
        inner.record_panic("process", &name, node, &*payload);
    }
    // Drop the reply endpoint — outside the lock, which its drop takes —
    // leave the process table — nobody joins a process, so nothing needs
    // its entry once it is done — park the stack for whoever runs next
    // to free, and pass control on: to the next process directly inside
    // a run, else to the scheduler. A recorded panic goes to the
    // scheduler, so it observes it immediately.
    let mut k = inner.kernel.lock();
    if let Some(reply) = k.procs.get_mut(pid).and_then(|p| p.reply.take()) {
        drop(k);
        drop(reply);
        k = inner.kernel.lock();
    }
    if let Some(me) = k.procs.remove(pid) {
        if let Some(g) = me.group {
            k.ports.leave(g, pid);
        }
        k.park_dead(me.stack);
    }
    k.entered -= 1;
    let mut next = inner.sched.handle();
    if k.can_inline() {
        let step;
        (k, step) = inner.step(k);
        if let Some((next_pid, to)) = step {
            debug_assert_ne!(next_pid, pid, "dead process scheduled");
            k.sched.direct_handoffs += 1;
            next = to;
        }
    }
    next
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use parking_lot::Mutex;

    use super::cur_pid;
    use crate::trace::{current_ctx, set_current_ctx, SpanCtx, SpanId, TraceId};
    use crate::{NodeRt, NodeRtExt, Sim, SimTime};

    #[test]
    fn each_process_keeps_its_own_pid_and_span_across_a_switch() {
        let sim = Sim::new(5);
        let node = sim.add_node("n");
        let seen = std::sync::Arc::new(Mutex::new(Vec::new()));
        for i in 1..=2u64 {
            let (rt, seen) = (node.clone(), std::sync::Arc::clone(&seen));
            node.spawn_fn("p", move || {
                // A new process starts under no span.
                let fresh = current_ctx();
                let ctx = SpanCtx {
                    trace: TraceId(i),
                    span: SpanId(10 * i),
                };
                set_current_ctx(Some(ctx));
                let pid = cur_pid();
                // Both block at once, so each wakes after the other ran.
                rt.sleep(Duration::from_micros(i));
                let kept = (pid == cur_pid(), current_ctx() == Some(ctx));
                seen.lock().push((i, fresh, pid, kept));
            });
        }
        let mine = SpanCtx {
            trace: TraceId(9),
            span: SpanId(99),
        };
        set_current_ctx(Some(mine));
        sim.run_until(SimTime::from_millis(1));
        // The driver's own context is untouched by the processes it ran.
        assert_eq!(set_current_ctx(None), Some(mine));
        assert_eq!(cur_pid(), None);
        let seen = seen.lock();
        assert_eq!(seen.len(), 2);
        assert_ne!(seen[0].2, seen[1].2, "two processes, one pid");
        for (i, (n, fresh, pid, kept)) in seen.iter().enumerate() {
            assert_eq!((*n, *fresh, *kept), (i as u64 + 1, None, (true, true)));
            assert!(pid.is_some());
        }
    }
}
