//! The discrete-event kernel: virtual time, processes, endpoints, links.
//!
//! Every simulated *process* runs on a stack of its own (`coro.rs`; the
//! next process re-uses it), and no process owns an OS thread: each
//! **shard** is stepped by one thread — the thread driving the `Sim` for
//! shard 0, a worker thread otherwise — which runs exactly one context
//! at a time, the shard's scheduler or one of its processes, and
//! switches between them in user space. Blocking operations (sleep,
//! receive, wait) switch to whatever runs next; a timed one's timeout
//! waits beside the event queue, keyed like an event, and leaves with
//! the wait however it ends. A process never moves to another OS thread, so a
//! shard 0 with suspended processes may not be driven from another.
//! Events are ordered by `(time, source node, per-source seq)`, a key
//! that is independent of how nodes are packed into shards, so a run is
//! fully deterministic given its seed — with one shard or many.
//!
//! # Sharded execution
//!
//! The node set is partitioned across `SimConfig::shards` kernels, each
//! with its own event heap, process set and network tables, driven by
//! one OS thread each between conservative synchronization horizons
//! (classic Chandy–Misra lookahead). `run_until` is one loop for every
//! shard count:
//!
//! * the coordinator computes `A`, the earliest pending activity across
//!   all shards, and opens a window `[A, A + L)` where `L` is the
//!   minimum cross-node link latency seen so far — the shortest delay
//!   of an event that can cross shards. With one shard no event can, so
//!   `L` is unbounded and the window runs to the run's limit;
//! * every shard runs its events strictly inside the window in
//!   parallel; any event it emits for another shard is at least one
//!   cross-node latency in the future, hence at or beyond the horizon,
//!   so no shard can receive an event in its past;
//! * cross-shard events travel through per-shard inboxes and are merged
//!   into the destination heap at the next horizon; the `(at, src,
//!   sseq)` key makes the merge order — and therefore every RNG draw
//!   and trace record — identical to the 1-shard schedule;
//! * when the run ends, every shard's clock is levelled to its limit.
//!
//! Determinism across shard counts additionally requires that every
//! id-allocation stream is keyed to a node (or to the shard that owns
//! it) rather than to a global counter: pids embed their shard, group
//! and wait-object ids embed their allocating node, and each node owns
//! its RNG and event-sequence stream. Cluster-wide control actions
//! (crash, restart, link changes) issued from inside a process are
//! broadcast as *control events* that every shard applies at the same
//! virtual instant, one fault-propagation delay after issue.
//!
//! # Waiting
//!
//! A process waits in one of two places: on an endpoint, for a delivery,
//! or on a wait object, for its generation to pass one it has seen
//! (`waitobj_wait_newer`; `bump` advances it and wakes every waiter).
//! `SyncObj` and every primitive built on it, `SimChan` included, wait
//! the second way.
//!
//! # Fast path
//!
//! In the default fast mode a blocking process runs the scheduler state
//! machine ([`Kernel::next_step`]) itself, under the kernel lock, instead
//! of switching to the shard's scheduler context:
//!
//! * if the next runnable process is the caller itself (its timeout or a
//!   same-instant delivery woke it), it simply keeps running — zero
//!   switches;
//! * if it is another process, it switches to that process's stack
//!   directly — one switch instead of the two a scheduler round-trip
//!   costs;
//! * only the window's end, shutdown, a recorded panic, or
//!   `fast = false` switch back to the scheduler.
//!
//! The state machine and every data structure consulted are identical in
//! both modes; only the context executing them changes, so virtual-time
//! behaviour (event order, RNG draws, trace hashes) is bit-identical with
//! the fast path on or off. `SimConfig { fast: false, .. }` sends every
//! handoff through the scheduler and is used as the baseline by the E18
//! microbenchmark and the equivalence tests.
//!
//! # Serving a port
//!
//! A port a process [`serve`](crate::rt::Endpoint::serve)s carries its
//! handler (`EpState::served`), and a delivery to it runs the handler
//! at the delivery instant instead of queueing the frame for a receiver:
//!
//! * by default it spawns the handler's process on the port's node, in
//!   the port owner's group — no serving process wakes first;
//! * a frame the port's inline test passes (its handler waits for
//!   nothing) becomes a [`Step::Inline`]: whichever thread is stepping
//!   the shard runs it with the kernel lock released, as the port's node
//!   (its shard, its node's streams, the owner's group), with no process,
//!   no stack and no switch. Anything that would wait — a
//!   blocking call, a receive, opening an endpoint — panics naming the
//!   task, so the simulator enforces the promise TCP can only trust;
//! * a port served with `serve_inline` runs every frame that way, and
//!   every bounce too (a `serve`d port drops bounces, as a receive loop
//!   would).
//!
//! Either way the handler runs before the next event, exactly when the
//! worker the serving process used to spawn for it ran, so events, RNG
//! draws and trace hashes are those of the hand-written receive loop.
//!
//! The kernel also owns the network model: nodes, ports, per-link latency
//! and bandwidth, partitions, message loss, and crash semantics (process
//! death closes its ports and bounces later messages; node death is
//! silence). Node state lives in a dense vector indexed by `NodeId` and
//! link state in flat per-pair tables, so the per-message path does no
//! hashing in the default configuration.

use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use bytes::Bytes;
use parking_lot::{Condvar, Mutex, MutexGuard};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::coro::{self, Handle, Stack, StackPool};
use crate::rt::{Addr, Endpoint, FrameHandler, InlineTest, LandingHandler, NodeId, RecvError};
use crate::time::SimTime;

pub(crate) type Pid = u64;
pub(crate) type EpKey = Addr;

/// Unwind payload used to terminate a killed process quietly.
pub(crate) struct KillSignal;

/// First non-ephemeral port number handed out for `PortReq::Ephemeral`.
pub(crate) const EPHEMERAL_BASE: u16 = 32768;

/// Pids embed their shard in the top bits so any thread can find its
/// kernel without a global map: `pid = shard << SHARD_SHIFT | counter`.
pub(crate) const SHARD_SHIFT: u32 = 48;

/// One-shot-per-handoff wakeup flag between two OS threads: a shard
/// worker and the coordinator. A grant may arrive before the owner
/// starts waiting; the flag absorbs that.
pub(crate) struct Baton {
    ready: AtomicBool,
    m: Mutex<()>,
    cv: Condvar,
}

impl Baton {
    pub(crate) fn new() -> Baton {
        Baton {
            ready: AtomicBool::new(false),
            m: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Makes the owner runnable; callable from any thread.
    pub(crate) fn grant(&self) {
        self.ready.store(true, Ordering::Release);
        // The lock orders this grant against a waiter between its last
        // flag check and `cv.wait`: we can't get the lock until it is
        // inside `cv.wait` (or past it), so the notify always lands.
        drop(self.m.lock());
        self.cv.notify_one();
    }

    /// Owner side: block until granted, consuming the grant.
    pub(crate) fn wait(&self) {
        let mut g = self.m.lock();
        while !self.ready.swap(false, Ordering::Acquire) {
            self.cv.wait(&mut g);
        }
    }
}

/// What the scheduler state machine decided: switch to a process's
/// stack, run a served port's inline handler on the stepping context, or
/// stop (quiescent / past the run limit).
pub(crate) enum Step {
    Run(Pid, Handle),
    Inline(InlineRun),
    Done,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum PState {
    Runnable,
    Running,
    Blocked,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum WakeReason {
    None,
    Timeout,
    Notified,
    Delivered,
    Killed,
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
    pub state: PState,
    pub wait_gen: u64,
    pub killed: bool,
    pub wake_reason: WakeReason,
    /// The pending timeout of the timed wait the process is blocked in.
    pub timer: Option<TimerKey>,
    /// Endpoints opened by this process; closed when it dies.
    pub endpoints: Vec<EpKey>,
    /// The endpoint its calls wait on for their replies
    /// (`NodeRt::reply_endpoint`): one of `endpoints`, and gone when it
    /// closes.
    pub reply: Option<Arc<dyn Endpoint>>,
}

/// A pending timeout's key, `(at, src, sseq)` like an event's: drawn from
/// the same per-source stream, so timeouts and events pop in the order
/// one queue holding both would pop them.
pub(crate) type TimerKey = (u64, u32, u64);

/// Makes a blocked process runnable for `reason`, and withdraws the
/// timeout of its wait, if it had one: a wait that ends takes its timer
/// with it, so no dead timeout is left to pop.
fn unblock(p: &mut Proc, timers: &mut BTreeMap<TimerKey, Pid>, reason: WakeReason) {
    p.wait_gen += 1;
    p.state = PState::Runnable;
    p.wake_reason = reason;
    if let Some(key) = p.timer.take() {
        timers.remove(&key);
    }
}

pub(crate) enum Item {
    Msg(Addr, Bytes),
    Unreach(Addr),
}

impl Item {
    /// What a receive of this item returns.
    pub(crate) fn into_recv(self) -> Result<(Addr, Bytes), RecvError> {
        match self {
            Item::Msg(from, msg) => Ok((from, msg)),
            Item::Unreach(addr) => Err(RecvError::Unreachable(addr)),
        }
    }
}

/// An open endpoint. A closed one has no entry: a delivery to it
/// bounces, a receive returns `Closed`, and its port number is free.
pub(crate) struct EpState {
    pub owner: Pid,
    pub queue: VecDeque<Item>,
    pub waiters: VecDeque<(Pid, u64)>,
    /// Set by `serve`: deliveries run the handler instead of queueing.
    /// Behind a pointer, so an ordinary endpoint does not grow.
    pub served: Option<Arc<Served>>,
}

/// A served port's handler and what it runs as.
pub(crate) struct Served {
    task: Arc<str>,
    serving: Serving,
    /// The group the handler joins: the port owner's when serving began.
    group: Option<u64>,
}

/// How a served port runs what lands on it.
pub(crate) enum Serving {
    /// `Endpoint::serve`: a frame starts `handler`'s process, or runs
    /// inline (`Step::Inline`) if `inline` passes it; bounces are dropped,
    /// as a receive loop would drop them.
    Spawn {
        handler: FrameHandler,
        inline: Option<InlineTest>,
    },
    /// `Endpoint::serve_inline`: frames and bounces alike run inline.
    Inline(LandingHandler),
}

/// One frame or bounce for a served port whose handler runs inline.
pub(crate) struct InlineRun {
    port: Addr,
    served: Arc<Served>,
    item: Item,
}

pub(crate) struct NodeState {
    #[allow(dead_code)] // Diagnostic value, surfaced in future tooling.
    pub name: String,
    pub up: bool,
    pub next_ephemeral: u16,
    /// Per-node deterministic streams. Keying the RNG, the event
    /// sequence, and the group/wait-object id counters to the node (not
    /// the kernel) makes every draw and every allocated id independent
    /// of how nodes are packed into shards — the heart of the 1-shard ==
    /// N-shard determinism argument. Only the node's owning shard ever
    /// touches these; the replicated copies on other shards are inert.
    pub rng: SmallRng,
    pub seq: u64,
    pub next_group: u64,
    pub next_waitobj: u64,
}

/// How nodes are mapped to shards. A pure function of the node id, so
/// every shard (and the driver) can route without coordination.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShardPolicy {
    /// `node % nshards` — spreads consecutively-numbered nodes evenly,
    /// the right default when neighbors talk to everyone (E17's drivers
    /// and CM servers interleave).
    #[default]
    RoundRobin,
}


/// Maps a raw node id to its shard. Node 0 (the anonymous/driver key)
/// always lives on shard 0.
#[inline]
pub(crate) fn shard_index(policy: ShardPolicy, nshards: usize, node: u32) -> usize {
    if nshards <= 1 || node == 0 {
        return 0;
    }
    match policy {
        ShardPolicy::RoundRobin => node as usize % nshards,
    }
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
/// run. In sharded runs the per-shard counters are summed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Events popped off the queue (timeouts that fired, network
    /// deliveries, control events).
    pub events: u64,
    /// Switches from the shard's scheduler to a process (a pair of
    /// switches each: there and back).
    pub driver_resumes: u64,
    /// Process-to-process switches that skipped the scheduler (one
    /// switch each).
    pub direct_handoffs: u64,
    /// Blocking calls where the caller continued inline with zero
    /// switches (its own timeout or a same-instant delivery was next).
    pub self_continues: u64,
    /// Synchronization horizons the sharded coordinator executed
    /// (0 in 1-shard runs).
    pub horizon_syncs: u64,
    /// Events routed to another shard's inbox (counted at the sender).
    pub xshard_msgs: u64,
    /// Windows in which a shard had nothing to do — it advanced only
    /// because the horizon did.
    pub lookahead_stalls: u64,
    /// Times a shard worker parked waiting for the next horizon grant.
    pub idle_parks: u64,
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

/// Directed node-pair membership as a bitset (used for partitions): one
/// lazily-grown bit row per source node, with the same hash spill as
/// [`PairTable`] for out-of-range ids.
pub(crate) struct PairBits {
    rows: Vec<Vec<u64>>,
    spill: std::collections::HashSet<(u32, u32)>,
    count: usize,
}

impl PairBits {
    fn new() -> PairBits {
        PairBits {
            rows: Vec::new(),
            spill: std::collections::HashSet::new(),
            count: 0,
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    #[inline]
    pub fn get(&self, a: NodeId, b: NodeId) -> bool {
        if self.count == 0 {
            return false;
        }
        let (ai, bi) = (a.0 as usize, b.0 as usize);
        if ai < DENSE_NODES && bi < DENSE_NODES {
            self.rows
                .get(ai)
                .and_then(|r| r.get(bi / 64))
                .is_some_and(|w| w & (1u64 << (bi % 64)) != 0)
        } else {
            self.spill.contains(&(a.0, b.0))
        }
    }

    pub fn set(&mut self, a: NodeId, b: NodeId, on: bool) {
        let (ai, bi) = (a.0 as usize, b.0 as usize);
        if ai < DENSE_NODES && bi < DENSE_NODES {
            if !on {
                if let Some(w) = self.rows.get_mut(ai).and_then(|r| r.get_mut(bi / 64)) {
                    if *w & (1u64 << (bi % 64)) != 0 {
                        *w &= !(1u64 << (bi % 64));
                        self.count -= 1;
                    }
                }
                return;
            }
            if self.rows.len() <= ai {
                self.rows.resize_with(ai + 1, Vec::new);
            }
            let row = &mut self.rows[ai];
            if row.len() <= bi / 64 {
                row.resize(bi / 64 + 1, 0);
            }
            if row[bi / 64] & (1u64 << (bi % 64)) == 0 {
                row[bi / 64] |= 1u64 << (bi % 64);
                self.count += 1;
            }
        } else if on {
            if self.spill.insert((a.0, b.0)) {
                self.count += 1;
            }
        } else if self.spill.remove(&(a.0, b.0)) {
            self.count -= 1;
        }
    }
}

/// One-shot multiplicative hasher for [`Addr`] endpoint keys: the
/// delivery path hashes an address per message, so the default SipHash
/// is measurable overhead for zero benefit (keys come from the kernel,
/// not the network).
#[derive(Clone, Copy, Default)]
pub(crate) struct AddrHash(u64);

impl std::hash::Hasher for AddrHash {
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

impl AddrHash {
    #[inline]
    fn mix(&mut self, v: u64) {
        self.0 = (self.0 ^ v)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(23);
    }
}

type AddrBuild = std::hash::BuildHasherDefault<AddrHash>;

/// Cluster-wide network control action. Issued by a fault API; from a
/// process it is broadcast to every shard as a control event so all
/// replicas of the node/link tables change at the same virtual instant.
#[derive(Clone, Copy, Debug)]
pub(crate) enum NetCtl {
    Crash(NodeId),
    Restart(NodeId),
    SetLink(NodeId, NodeId, LinkParams),
    SetPartition(NodeId, NodeId, bool),
    SetImpairment(NodeId, NodeId, LinkImpairment),
    ClearImpairment(NodeId, NodeId),
}

/// A deferred kernel operation carried by a control event. `Net` is
/// broadcast to every shard (each applies its replica share; the owner
/// of the primary node also does the observable part); the rest are
/// delivered to a single home shard.
pub(crate) enum ControlOp {
    Net(NetCtl),
    Spawn {
        node: Option<NodeId>,
        name: Arc<str>,
        group: Option<u64>,
        f: Box<dyn FnOnce() + Send>,
    },
    KillGroup(u64),
    Bump(u64),
    Note { node: NodeId, detail: String },
}

enum EventKind {
    Deliver { to: Addr, item: Item },
    Control(ControlOp),
}

/// An event, keyed `(at, src, sseq)`: `src` is the raw id of the node
/// whose stream produced it (0 for the anonymous/driver stream) and
/// `sseq` the per-source sequence number. Unlike a global counter, the
/// key is identical however nodes are sharded, so heap pop order — and
/// with it every observable — survives re-sharding.
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

pub(crate) struct WaitObjState {
    waiters: VecDeque<(Pid, u64)>,
    generation: u64,
}

/// One shard's kernel: event heap, processes, and a full replica of the
/// small network tables (node up/down, links, partitions, impairments).
/// Replicating the tables lets `net_send` run lock-free with respect to
/// other shards; the control-event broadcast keeps the replicas in sync
/// at identical virtual instants.
pub(crate) struct Kernel {
    pub now: u64,
    /// Lock-free mirror of `now`, shared with [`SimInner`] so the hot
    /// `now()` read path (journal records, deadline checks in running
    /// processes) never contends on the kernel mutex. Virtual time only
    /// advances inside the shard's step loop, while every process of
    /// the shard is parked, so a relaxed-ish read from a running
    /// process is always exact.
    now_shared: Arc<AtomicU64>,
    /// This kernel's shard index and the topology it routes within.
    shard: usize,
    nshards: usize,
    policy: ShardPolicy,
    /// Peer shard inboxes (leaf locks, never held across other locks);
    /// `outboxes[shard]` is this shard's own inbox and is not used from
    /// here.
    outboxes: Vec<Arc<Mutex<Vec<Event>>>>,
    /// Back-reference for control events that need the whole simulation
    /// (spawning a process, journaling a fault note).
    inner: Weak<SimInner>,
    events: BinaryHeap<Event>,
    /// Pending timeouts of blocked processes, beside `events` and popped
    /// in the same key order; a wait that ends early removes its own.
    timers: BTreeMap<TimerKey, Pid>,
    pub procs: BTreeMap<Pid, Proc>,
    /// Local pid counter; issued pids are `shard << SHARD_SHIFT | n` so
    /// they are unique and shard-derivable without coordination.
    next_pid: Pid,
    pub runnable: VecDeque<Pid>,
    pub shutdown: bool,
    /// Seed all per-node RNGs derive from (replicated).
    master_seed: u64,
    /// Streams for the anonymous key (driver context, node-less procs).
    /// Only shard 0 ever draws from these.
    anon_rng: SmallRng,
    anon_seq: u64,
    anon_next_group: u64,
    anon_next_waitobj: u64,
    /// Dense node table indexed by `NodeId - 1` (ids are handed out
    /// sequentially from 1 and never removed). Replicated on every
    /// shard; the per-node streams are only touched by the owner.
    nodes: Vec<NodeState>,
    pub endpoints: HashMap<EpKey, EpState, AddrBuild>,
    pub net_cfg: NetConfig,
    pub link_overrides: PairTable<LinkParams>,
    link_free: PairTable<u64>,
    pub partitions: PairBits,
    pub impairments: PairTable<LinkImpairment>,
    /// Commutative digest of the observable event trace (sends,
    /// deliveries, fault actions): the sum of per-record FNV-1a hashes.
    /// Summing makes the digest independent of how records interleave
    /// across shards within one instant, while each record's own hash
    /// still pins its exact field values. See `Sim::trace_hash`.
    pub trace_digest: u64,
    pub stats: NetStats,
    pub sched: KernelStats,
    pub panics: Vec<String>,
    waitobjs: HashMap<u64, WaitObjState>,
    pub trace: bool,
    /// Fast-path toggle (see the module docs); `false` forces every
    /// handoff through the shard's scheduler.
    pub fast: bool,
    /// Whether a scheduler is currently inside `run_until`.
    in_run: bool,
    /// Last instant of the current window (inclusive): `next_step`
    /// applies nothing due later.
    run_limit: u64,
    /// The inline handler the event just applied queued; `next_step`
    /// hands it out before it applies another.
    inline: Option<InlineRun>,
    /// Idle stacks for this shard's next spawns.
    stacks: StackPool,
    /// The stack of the process that exited last, until the context it
    /// switched to returns it to `stacks`: a process cannot free the
    /// stack it is still running on, and its last `step` may run an
    /// inline handler whose spawn would prime the stack under it.
    dead: Option<Stack>,
    /// Processes whose stacks have been entered and not yet left: while
    /// any are, the shard may be stepped only from `home`.
    entered: usize,
    /// The OS thread that last drove the simulation (shard 0 only: the
    /// workers step the other shards for life; see `claim_driver`).
    home: Option<std::thread::ThreadId>,
}

/// What an inline handler runs as while it runs: its port's node and
/// shard, and its port's `Served` (task name, group).
struct InlineAs {
    port: Addr,
    shard: usize,
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

/// Suspends the running context — a process, or a shard's scheduler —
/// in `from` and resumes `to` on this thread. The per-process
/// thread-locals, `CUR_PID` and the span context, travel with the
/// context: each gets back its own when it resumes, and a fresh process
/// starts with neither.
fn switch(from: Handle, to: Handle) {
    debug_assert!(cur_inline().is_none(), "an inline handler switched");
    let pid = CUR_PID.with(|c| c.replace(None));
    let span = crate::trace::set_current_ctx(None);
    coro::switch(from, to);
    CUR_PID.with(|c| c.set(pid));
    crate::trace::set_current_ctx(span);
}

/// The node, shard and group of the inline handler running on this
/// thread.
fn cur_inline() -> Option<(NodeId, usize, Option<u64>)> {
    CUR_INLINE.with(|c| {
        c.borrow()
            .as_ref()
            .map(|i| (i.port.node, i.shard, i.served.group))
    })
}

/// Panics if an inline handler runs on this thread: it promised not to
/// wait, and has no process to wait in.
pub(crate) fn forbid_inline(what: &str) {
    let running = CUR_INLINE.with(|c| c.borrow().as_ref().map(|i| (i.served.task.clone(), i.port)));
    if let Some((task, port)) = running {
        panic!("inline task '{task}' on {port} may not {what}: it runs with no process of its own");
    }
}

/// The shard whose kernel serves this thread: a process's own shard, an
/// inline handler's port's, or shard 0 for the driver.
#[inline]
pub(crate) fn cur_shard() -> usize {
    match cur_pid() {
        Some(p) => (p >> SHARD_SHIFT) as usize,
        None => cur_inline().map_or(0, |(_, shard, _)| shard),
    }
}

impl Kernel {
    pub fn new(
        seed: u64,
        net_cfg: NetConfig,
        trace: bool,
        fast: bool,
        shard: usize,
        nshards: usize,
        policy: ShardPolicy,
    ) -> Kernel {
        Kernel {
            now: 0,
            now_shared: Arc::new(AtomicU64::new(0)),
            shard,
            nshards,
            policy,
            outboxes: Vec::new(),
            inner: Weak::new(),
            events: BinaryHeap::new(),
            timers: BTreeMap::new(),
            procs: BTreeMap::new(),
            next_pid: 1,
            runnable: VecDeque::new(),
            shutdown: false,
            master_seed: seed,
            anon_rng: SmallRng::seed_from_u64(seed),
            anon_seq: 0,
            anon_next_group: 1,
            anon_next_waitobj: 1,
            nodes: Vec::new(),
            endpoints: HashMap::default(),
            net_cfg,
            link_overrides: PairTable::new(),
            link_free: PairTable::new(),
            partitions: PairBits::new(),
            impairments: PairTable::new(),
            trace_digest: 0,
            stats: NetStats::default(),
            sched: KernelStats::default(),
            panics: Vec::new(),
            waitobjs: HashMap::new(),
            trace,
            fast,
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

    #[inline]
    pub(crate) fn shard_of(&self, node: NodeId) -> usize {
        shard_index(self.policy, self.nshards, node.0)
    }

    /// Whether this kernel owns (schedules) `node`.
    #[inline]
    pub(crate) fn owns(&self, node: NodeId) -> bool {
        self.shard_of(node) == self.shard
    }

    /// Next sequence number from `node`'s event stream (0 = anonymous).
    fn next_sseq(&mut self, node: u32) -> u64 {
        if node == 0 {
            let s = self.anon_seq;
            self.anon_seq += 1;
            return s;
        }
        match self.nodes.get_mut(node as usize - 1) {
            Some(n) => {
                let s = n.seq;
                n.seq += 1;
                s
            }
            None => {
                // Synthetic ids (used as plain data) never source events
                // in practice; fall back to the anonymous stream.
                let s = self.anon_seq;
                self.anon_seq += 1;
                s
            }
        }
    }

    /// A draw from `node`'s RNG stream (0 = anonymous).
    pub(crate) fn rand_for_node(&mut self, node: u32) -> u64 {
        if node == 0 {
            return self.anon_rng.next_u64();
        }
        match self.nodes.get_mut(node as usize - 1) {
            Some(n) => n.rng.next_u64(),
            None => self.anon_rng.next_u64(),
        }
    }

    fn roll_for(&mut self, node: NodeId) -> f64 {
        (self.rand_for_node(node.0) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Routes an already-keyed event: own heap, or a peer shard's inbox.
    fn route(&mut self, dest: usize, ev: Event) {
        if dest == self.shard {
            self.events.push(ev);
        } else {
            self.sched.xshard_msgs += 1;
            self.outboxes[dest].lock().push(ev);
        }
    }

    /// Arms a timeout for the blocked process `pid`, keyed on `src`'s
    /// stream.
    fn arm_timer(&mut self, pid: Pid, at: u64, src: u32) {
        let key = (at, src, self.next_sseq(src));
        self.timers.insert(key, pid);
        if let Some(p) = self.procs.get_mut(&pid) {
            p.timer = Some(key);
        }
    }

    /// The key of what is due next, the next event or the next timeout,
    /// and whether it is the timeout. Both keys come from the same
    /// streams, so this is the order one queue holding both would pop.
    fn next_due(&self) -> Option<(TimerKey, bool)> {
        let event = self.events.peek().map(|e| (e.at, e.src, e.sseq));
        let timer = self.timers.first_key_value().map(|(k, _)| *k);
        match (event, timer) {
            (Some(e), Some(t)) if t < e => Some((t, true)),
            (Some(e), _) => Some((e, false)),
            (None, t) => t.map(|t| (t, true)),
        }
    }

    /// Virtual-time delay between a control action's issue and its
    /// cluster-wide application: one default network latency (at least
    /// 1µs), which also upper-bounds the conservative lookahead so the
    /// broadcast can never land inside an open window.
    pub(crate) fn control_delay(&self) -> u64 {
        (self.net_cfg.default.latency.as_micros() as u64).max(1)
    }

    /// Defers control ops issued by a process on `src`: each goes to its
    /// destination shard as a control event one [`control_delay`] from
    /// now, all under one key from `src`'s stream — the same virtual
    /// timing under every shard count.
    ///
    /// [`control_delay`]: Kernel::control_delay
    fn defer_control(&mut self, src: u32, ops: impl IntoIterator<Item = (usize, ControlOp)>) {
        let at = self.now + self.control_delay();
        let sseq = self.next_sseq(src);
        for (dest, op) in ops {
            let kind = EventKind::Control(op);
            self.route(dest, Event { at, src, sseq, kind });
        }
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

    pub fn add_node(&mut self, name: &str) -> NodeId {
        let id = NodeId(self.nodes.len() as u32 + 1);
        // Derive the node's RNG from the master seed and its id so the
        // stream is identical on every shard layout (and on the inert
        // replicas, which never draw from it).
        let h = (self.master_seed
            ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(id.0 as u64 + 1))
        .rotate_left(17);
        self.nodes.push(NodeState {
            name: name.to_string(),
            up: true,
            next_ephemeral: EPHEMERAL_BASE,
            rng: SmallRng::seed_from_u64(h),
            seq: 0,
            next_group: 1,
            next_waitobj: 1,
        });
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

    /// Wakes a blocked process if its wait generation still matches.
    /// Returns true if the process was actually woken.
    fn wake(&mut self, pid: Pid, gen: u64, reason: WakeReason) -> bool {
        if let Some(p) = self.procs.get_mut(&pid) {
            if p.state == PState::Blocked && p.wait_gen == gen {
                unblock(p, &mut self.timers, reason);
                self.runnable.push_back(pid);
                return true;
            }
        }
        false
    }

    /// Pops the first still-valid waiter off `waiters` and wakes it.
    fn wake_one_waiter(
        &mut self,
        mut waiters: VecDeque<(Pid, u64)>,
        reason: WakeReason,
    ) -> VecDeque<(Pid, u64)> {
        while let Some((pid, gen)) = waiters.pop_front() {
            if self.wake(pid, gen, reason) {
                break;
            }
        }
        waiters
    }

    fn apply(&mut self, kind: EventKind) {
        match kind {
            EventKind::Control(op) => {
                self.apply_control(op);
            }
            EventKind::Deliver { to, item } => {
                let size = match &item {
                    Item::Msg(_, m) => m.len() as u64,
                    Item::Unreach(_) => 0,
                };
                self.trace_note(&[2, self.now, to.node.0 as u64, to.port as u64, size]);
                let node_up = self.node(to.node).map(|n| n.up).unwrap_or(false);
                if !node_up {
                    self.stats.msgs_dropped += 1;
                    return;
                }
                let Some(ep) = self.endpoints.get_mut(&to) else {
                    // Bounce data messages back to the sender (RST-like);
                    // never bounce a bounce.
                    if let Item::Msg(from, _) = item {
                        self.stats.bounces += 1;
                        let lat = self.link_params(to.node, from.node).latency;
                        let mut at = self.now + lat.as_micros() as u64;
                        if to.node != from.node && at <= self.now {
                            at = self.now + 1; // cross-node delay floor
                        }
                        let dest = self.shard_of(from.node);
                        let sseq = self.next_sseq(to.node.0);
                        self.route(
                            dest,
                            Event {
                                at,
                                src: to.node.0,
                                sseq,
                                kind: EventKind::Deliver {
                                    to: from,
                                    item: Item::Unreach(to),
                                },
                            },
                        );
                    } else {
                        self.stats.msgs_dropped += 1;
                    }
                    return;
                };
                self.stats.msgs_delivered += 1;
                if let Some(served) = &ep.served {
                    let served = Arc::clone(served);
                    self.run_served(to, served, item);
                    return;
                }
                ep.queue.push_back(item);
                let waiters = std::mem::take(&mut ep.waiters);
                let rest = self.wake_one_waiter(waiters, WakeReason::Delivered);
                if let Some(ep) = self.endpoints.get_mut(&to) {
                    // Preserve any remaining (possibly stale) waiters.
                    let newly = std::mem::take(&mut ep.waiters);
                    ep.waiters = rest;
                    ep.waiters.extend(newly);
                }
            }
        }
    }

    /// Runs a served port's handler on what was delivered now: queues it
    /// as the next `Step::Inline` if it runs inline, else starts its
    /// process.
    fn run_served(&mut self, port: Addr, served: Arc<Served>, item: Item) {
        let inline = match (&served.serving, &item) {
            (Serving::Inline(_), _) => true,
            (Serving::Spawn { inline, .. }, Item::Msg(_, msg)) => {
                inline.as_ref().is_some_and(|test| test(msg))
            }
            (Serving::Spawn { .. }, Item::Unreach(_)) => return,
        };
        if inline {
            debug_assert!(self.inline.is_none(), "an inline handler left queued");
            self.inline = Some(InlineRun { port, served, item });
        } else if let Item::Msg(from, msg) = item {
            self.spawn_handler(port, &served, from, msg);
        }
    }

    /// Starts a `serve`d port's handler on one frame as a process of the
    /// port's node, in the owner's group.
    fn spawn_handler(&mut self, port: Addr, served: &Served, from: Addr, msg: Bytes) {
        let (Some(inner), Serving::Spawn { handler, .. }) = (self.inner.upgrade(), &served.serving)
        else {
            return;
        };
        let handler = Arc::clone(handler);
        self.spawn_local(
            &inner,
            Some(port.node),
            Arc::clone(&served.task),
            served.group,
            Box::new(move || handler(from, msg)),
        );
    }

    /// Makes `port` a served port: later deliveries run its handler (as
    /// `task`, in the port owner's group). What was queued before is
    /// spawned now, in arrival order, bounces dropped, as the receive
    /// loop `serve` replaces did — or, for `serve_inline`, returned for
    /// the caller to hand to the handler. A closed port stays closed.
    pub fn serve_port(&mut self, port: Addr, task: &str, serving: Serving) -> VecDeque<Item> {
        let Some(owner) = self.endpoints.get(&port).map(|ep| ep.owner) else {
            return VecDeque::new();
        };
        let served = Arc::new(Served {
            task: Arc::from(task),
            serving,
            group: self.procs.get(&owner).and_then(|p| p.group),
        });
        let ep = self
            .endpoints
            .get_mut(&port)
            .expect("endpoint checked open");
        ep.served = Some(Arc::clone(&served));
        let queued = std::mem::take(&mut ep.queue);
        if let Serving::Inline(_) = served.serving {
            return queued;
        }
        for item in queued {
            if let Item::Msg(from, msg) = item {
                self.spawn_handler(port, &served, from, msg);
            }
        }
        VecDeque::new()
    }

    /// Applies the replica share of a network control on this shard; the
    /// shard owning the action's primary node also records the trace
    /// note and does the heavy part (killing processes, closing ports).
    fn apply_net(&mut self, c: NetCtl) {
        match c {
            NetCtl::Crash(n) => {
                if self.owns(n) {
                    self.crash_node(n);
                } else if let Some(s) = self.node_mut(n) {
                    s.up = false;
                }
            }
            NetCtl::Restart(n) => {
                if self.owns(n) {
                    let now = self.now;
                    self.trace_note(&[4, now, n.0 as u64]);
                }
                if let Some(s) = self.node_mut(n) {
                    s.up = true;
                }
            }
            NetCtl::SetLink(a, b, p) => {
                self.link_overrides.insert(a, b, p);
            }
            NetCtl::SetPartition(a, b, on) => {
                if self.owns(a) {
                    let now = self.now;
                    self.trace_note(&[if on { 5 } else { 6 }, now, a.0 as u64, b.0 as u64]);
                }
                if on {
                    self.partitions.set(a, b, true);
                } else {
                    self.partitions.set(a, b, false);
                    self.partitions.set(b, a, false);
                }
            }
            NetCtl::SetImpairment(a, b, imp) => {
                if self.owns(a) {
                    let now = self.now;
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
                }
                self.impairments.remove(b, a);
                self.impairments.insert(a, b, imp);
            }
            NetCtl::ClearImpairment(a, b) => {
                if self.owns(a) {
                    let now = self.now;
                    self.trace_note(&[8, now, a.0 as u64, b.0 as u64]);
                }
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
            ControlOp::Bump(id) => self.waitobj_bump(id),
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
    /// Shared verbatim by the driver loop, the shard workers and the
    /// in-process fast path so every mode makes identical decisions.
    pub(crate) fn next_step(&mut self) -> Step {
        loop {
            while let Some(pid) = self.runnable.pop_front() {
                if let Some(p) = self.procs.get_mut(&pid) {
                    if p.state == PState::Runnable {
                        p.state = PState::Running;
                        return Step::Run(pid, p.stack.handle());
                    }
                }
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
                        self.fire_timer();
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

    /// Wakes the process whose timeout is due first: a pending timeout
    /// always belongs to a process still blocked in its wait.
    fn fire_timer(&mut self) {
        let Some((_, pid)) = self.timers.pop_first() else {
            return;
        };
        let p = self.procs.get_mut(&pid).expect("a timeout outlived its process");
        debug_assert_eq!(p.state, PState::Blocked, "a timeout outlived its wait");
        p.timer = None;
        unblock(p, &mut self.timers, WakeReason::Timeout);
        self.runnable.push_back(pid);
    }

    /// Whether a blocking process may run the scheduler inline instead of
    /// waking the driver. Shutdown drains and recorded panics always
    /// route through the scheduler, as with the fast path off.
    #[inline]
    pub(crate) fn can_inline(&self) -> bool {
        self.fast
            && self.in_run
            && !self.shutdown
            && self.panics.is_empty()
    }

    /// Sends a message into the network model. Called with the kernel
    /// lock held, from the sending process's thread (or the driver). All
    /// randomness is drawn from the *sender node's* stream and the
    /// delivery event is keyed on it, so the receiving shard sees the
    /// same event whether or not it is the sending shard.
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
        let partitioned = !self.partitions.is_empty()
            && (self.partitions.get(from.node, to.node) || self.partitions.get(to.node, from.node));
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
            // Cross-node deliveries always take ≥ 1µs: the conservative
            // window protocol needs a nonzero delay floor, and keeping
            // the clamp in every mode keeps 1-shard and N-shard
            // timelines identical. (Serialization delay already clears
            // the floor for bandwidth-limited zero-latency links.)
            at = self.now + 1;
        }
        let dest = self.shard_of(to.node);
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
                self.route(
                    dest,
                    Event {
                        at: echo,
                        src: from.node.0,
                        sseq,
                        kind: EventKind::Deliver {
                            to,
                            item: Item::Msg(from, msg.clone()),
                        },
                    },
                );
            }
        }
        let sseq = self.next_sseq(from.node.0);
        self.route(
            dest,
            Event {
                at,
                src: from.node.0,
                sseq,
                kind: EventKind::Deliver {
                    to,
                    item: Item::Msg(from, msg),
                },
            },
        );
    }

    /// Closes an endpoint: takes it out of the table, dropping queued
    /// messages, and wakes blocked receivers so they observe `Closed`.
    pub fn close_endpoint(&mut self, key: EpKey) {
        if let Some(ep) = self.endpoints.remove(&key) {
            self.drop_reply(ep.owner, key);
            for (pid, gen) in ep.waiters {
                self.wake(pid, gen, WakeReason::Notified);
            }
        }
    }

    /// `pid`'s reply endpoint, if it has one on `node`, emptied of
    /// whatever earlier calls left on it: a reply or a bounce owed to a
    /// call that is over answers no later one.
    pub fn reply_endpoint(&mut self, pid: Pid, node: NodeId) -> Option<Arc<dyn Endpoint>> {
        let ep = self.procs.get(&pid)?.reply.as_ref()?;
        let addr = ep.local();
        if addr.node != node {
            return None;
        }
        self.endpoints.get_mut(&addr)?.queue.clear();
        Some(Arc::clone(ep))
    }

    /// Forgets `key` as `owner`'s reply endpoint, if it is: the process
    /// no longer has it (closed, or handed on).
    fn drop_reply(&mut self, owner: Pid, key: EpKey) {
        if let Some(p) = self.procs.get_mut(&owner) {
            if p.reply.as_ref().is_some_and(|r| r.local() == key) {
                p.reply = None;
            }
        }
    }

    /// Kills every live member of a process group (this shard's share).
    pub fn kill_group(&mut self, group: u64) {
        let pids: Vec<Pid> = self
            .procs
            .iter()
            .filter(|(_, p)| p.group == Some(group))
            .map(|(pid, _)| *pid)
            .collect();
        for pid in pids {
            self.kill_proc(pid);
        }
    }

    /// Whether any member of a process group is still alive.
    pub fn group_alive(&self, group: u64) -> bool {
        self.procs
            .values()
            .any(|p| p.group == Some(group) && !p.killed)
    }

    /// Reassigns an endpoint's owning process: `None` detaches it (it
    /// survives any process exit), `Some(pid)` ties it to that process.
    pub fn ep_set_owner(&mut self, key: EpKey, new_owner: Option<Pid>) {
        let Some(ep) = self.endpoints.get_mut(&key) else {
            return;
        };
        let old = ep.owner;
        ep.owner = new_owner.unwrap_or(0);
        if old != 0 {
            self.drop_reply(old, key);
            if let Some(p) = self.procs.get_mut(&old) {
                p.endpoints.retain(|k| *k != key);
            }
        }
        if let Some(pid) = new_owner {
            if let Some(p) = self.procs.get_mut(&pid) {
                p.endpoints.push(key);
            }
        }
    }

    /// Marks a process as killed and schedules it to unwind.
    pub fn kill_proc(&mut self, pid: Pid) {
        let Some(p) = self.procs.get_mut(&pid) else {
            return;
        };
        if p.killed {
            return;
        }
        p.killed = true;
        if p.state == PState::Blocked {
            unblock(p, &mut self.timers, WakeReason::Killed);
            self.runnable.push_back(pid);
        }
        // Runnable / Running processes observe the flag at their next
        // kernel interaction.
    }

    /// Kills all processes on `node` and closes the node's endpoints.
    /// Returns whether the calling process itself was on the node (it is
    /// then marked killed but left running so it can unwind at its next
    /// kernel interaction).
    pub fn crash_node(&mut self, node: NodeId) -> bool {
        self.trace_note(&[3, self.now, node.0 as u64]);
        if let Some(n) = self.node_mut(node) {
            n.up = false;
        }
        let pids: Vec<Pid> = self
            .procs
            .iter()
            .filter(|(_, p)| p.node == Some(node))
            .map(|(pid, _)| *pid)
            .collect();
        let me = cur_pid();
        let mut self_on_node = false;
        for pid in pids {
            if Some(pid) == me {
                self_on_node = true;
                continue;
            }
            self.kill_proc(pid);
        }
        // In port order, not the table's: which waiter wakes first must
        // not depend on the table's layout.
        let mut eps: Vec<EpKey> = self
            .endpoints
            .keys()
            .filter(|a| a.node == node)
            .copied()
            .collect();
        eps.sort_unstable();
        for key in eps {
            self.close_endpoint(key);
        }
        if self_on_node {
            if let Some(p) = self.procs.get_mut(&me.expect("checked")) {
                p.killed = true;
            }
        }
        self_on_node
    }

    /// Allocates a wait object homed on `home` (a raw node id; 0 =
    /// anonymous, shard 0). The id embeds the home node so any caller
    /// can derive the owning shard from the id alone.
    pub fn waitobj_create(&mut self, home: u32) -> u64 {
        let ctr = if home == 0 {
            let c = self.anon_next_waitobj;
            self.anon_next_waitobj += 1;
            c
        } else {
            let n = self
                .nodes
                .get_mut(home as usize - 1)
                .expect("wait object homed on unknown node");
            let c = n.next_waitobj;
            n.next_waitobj += 1;
            c
        };
        let id = ((home as u64) << 32) | (ctr & 0xFFFF_FFFF);
        self.waitobjs.insert(
            id,
            WaitObjState {
                waiters: VecDeque::new(),
                generation: 0,
            },
        );
        id
    }

    /// Allocates a process-group id from `key`'s stream (0 = anonymous).
    /// The id embeds the allocating node so values are shard-invariant.
    pub fn alloc_group(&mut self, key: u32) -> u64 {
        let ctr = if key == 0 {
            let c = self.anon_next_group;
            self.anon_next_group += 1;
            c
        } else {
            match self.nodes.get_mut(key as usize - 1) {
                Some(n) => {
                    let c = n.next_group;
                    n.next_group += 1;
                    c
                }
                None => {
                    let c = self.anon_next_group;
                    self.anon_next_group += 1;
                    c
                }
            }
        };
        ((key as u64) << 32) | (ctr & 0xFFFF_FFFF)
    }

    /// Increments a wait object's generation and wakes all its waiters.
    pub fn waitobj_bump(&mut self, id: u64) {
        let Some(w) = self.waitobjs.get_mut(&id) else {
            return;
        };
        w.generation += 1;
        let waiters = std::mem::take(&mut w.waiters);
        for (pid, gen) in waiters {
            self.wake(pid, gen, WakeReason::Notified);
        }
    }

    pub fn waitobj_generation(&self, id: u64) -> u64 {
        self.waitobjs.get(&id).map(|w| w.generation).unwrap_or(0)
    }

    /// Inserts a new process into this shard: allocates a shard-tagged
    /// pid, primes a stack with its body, and makes it runnable. Nothing
    /// runs until the scheduler first switches to the stack. Group
    /// inheritance is resolved by the *caller* before routing (the
    /// spawner may live on another shard).
    pub(crate) fn spawn_local(
        &mut self,
        inner: &Arc<SimInner>,
        node: Option<NodeId>,
        name: Arc<str>,
        group: Option<u64>,
        f: Box<dyn FnOnce() + Send>,
    ) {
        if self.shutdown {
            return;
        }
        if let Some(n) = node {
            debug_assert!(self.owns(n), "spawn routed to wrong shard");
            let up = self.node(n).map(|s| s.up).unwrap_or(false);
            if !up {
                if self.trace {
                    eprintln!(
                        "[{}] spawn of '{}' dropped: {} is down",
                        SimTime::from_micros(self.now),
                        name,
                        n
                    );
                }
                return;
            }
        }
        let pid = ((self.shard as u64) << SHARD_SHIFT) | self.next_pid;
        self.next_pid += 1;
        let (stack, mapped) = self
            .stacks
            .take()
            .expect("failed to map a simulation stack");
        let inner = Arc::clone(inner);
        stack.prime(move || proc_main(inner, pid, f));
        self.sched.stacks_mapped += mapped as u64;
        self.sched.spawns += 1;
        self.procs.insert(
            pid,
            Proc {
                name,
                node,
                group,
                stack,
                state: PState::Runnable,
                wait_gen: 0,
                killed: false,
                wake_reason: WakeReason::None,
                timer: None,
                endpoints: Vec::new(),
                reply: None,
            },
        );
        self.runnable.push_back(pid);
    }
}

/// One shard's scheduling surface: its kernel, its scheduler's context,
/// the coordinator handshake batons, and its cross-shard inbox.
pub(crate) struct ShardSlot {
    pub kernel: Mutex<Kernel>,
    now_cache: Arc<AtomicU64>,
    /// The scheduler loop's context while a process runs: a process
    /// switches back to it at quiescence, shutdown, a panic, or with the
    /// fast path disabled.
    sched: coro::Context,
    /// Coordinator → worker: run one window (or exit if `stop` is set).
    go: Baton,
    /// Worker → coordinator: window complete.
    done: Baton,
    /// Events emitted by other shards, merged into the heap between
    /// windows. A plain Vec under a leaf lock: the heap's
    /// `(at, src, sseq)` order makes the merge deterministic regardless
    /// of push interleaving.
    inbox: Arc<Mutex<Vec<Event>>>,
}

/// Shared simulation state: the shard set plus everything that is global
/// across shards (extensions, counters, the conservative lookahead).
pub(crate) struct SimInner {
    shards: Vec<ShardSlot>,
    nshards: usize,
    policy: ShardPolicy,
    /// Conservative lookahead in µs: the minimum cross-node link latency
    /// seen so far. Only ever decreases (`set_link` narrows it at issue
    /// time — shrinking a window early is always safe).
    lookahead_us: AtomicU64,
    /// Horizon windows executed by sharded runs.
    windows: AtomicU64,
    /// Named counters (`Sim::counter_add`); global across shards, sums
    /// only, so cross-shard add order cannot be observed.
    counters: Mutex<BTreeMap<String, u64>>,
    /// Per-node extension maps (see [`crate::rt::Extensions`]). Outside
    /// the kernel locks: extensions are touched from running processes
    /// and must not contend with the schedulers.
    ext: Mutex<BTreeMap<NodeId, Arc<crate::rt::Extensions>>>,
    /// Shard worker threads (shards 1..n; shard 0 is driven inline by
    /// the coordinator).
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Tells parked workers to drain their shards and exit at the next
    /// `go` grant.
    stop: AtomicBool,
}

impl SimInner {
    pub fn new(
        seed: u64,
        net_cfg: NetConfig,
        trace: bool,
        fast: bool,
        nshards: usize,
        policy: ShardPolicy,
    ) -> Arc<SimInner> {
        let nshards = nshards.max(1);
        let inboxes: Vec<Arc<Mutex<Vec<Event>>>> =
            (0..nshards).map(|_| Arc::new(Mutex::new(Vec::new()))).collect();
        let mut shards = Vec::with_capacity(nshards);
        for ix in 0..nshards {
            let mut kernel = Kernel::new(seed, net_cfg.clone(), trace, fast, ix, nshards, policy);
            kernel.outboxes = inboxes.clone();
            let now_cache = Arc::clone(&kernel.now_shared);
            shards.push(ShardSlot {
                kernel: Mutex::new(kernel),
                now_cache,
                sched: coro::Context::new(),
                go: Baton::new(),
                done: Baton::new(),
                inbox: Arc::clone(&inboxes[ix]),
            });
        }
        let lookahead = (net_cfg.default.latency.as_micros() as u64).max(1);
        let inner = Arc::new(SimInner {
            shards,
            nshards,
            policy,
            lookahead_us: AtomicU64::new(lookahead),
            windows: AtomicU64::new(0),
            counters: Mutex::new(BTreeMap::new()),
            ext: Mutex::new(BTreeMap::new()),
            workers: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
        });
        for s in &inner.shards {
            s.kernel.lock().inner = Arc::downgrade(&inner);
        }
        if nshards > 1 {
            let mut ws = inner.workers.lock();
            for ix in 1..nshards {
                let me = Arc::clone(&inner);
                ws.push(
                    std::thread::Builder::new()
                        .name(format!("sim-shard-{ix}"))
                        .spawn(move || worker_main(me, ix))
                        .expect("failed to spawn shard worker"),
                );
            }
        }
        inner
    }

    #[inline]
    pub(crate) fn shards(&self) -> usize {
        self.nshards
    }

    /// The shard owning a raw node id.
    #[inline]
    pub(crate) fn shard_ix(&self, node: u32) -> usize {
        shard_index(self.policy, self.nshards, node)
    }

    /// The kernel owning `node` — lock this to touch the node's state.
    #[inline]
    pub(crate) fn kernel_for(&self, node: NodeId) -> &Mutex<Kernel> {
        &self.shards[self.shard_ix(node.0)].kernel
    }

    /// The kernel serving the calling thread (a process's own shard, or
    /// shard 0 for the driver).
    #[inline]
    pub(crate) fn kernel_here(&self) -> &Mutex<Kernel> {
        &self.shards[cur_shard()].kernel
    }

    /// The extension map for `node`, shared by every handle to it.
    pub fn node_extensions(&self, node: NodeId) -> Arc<crate::rt::Extensions> {
        Arc::clone(self.ext.lock().entry(node).or_default())
    }

    /// Registers a node on every shard (replicated tables); returns the
    /// id, which is identical on all of them.
    pub fn add_node(&self, name: &str) -> NodeId {
        let mut id = None;
        for s in &self.shards {
            let got = s.kernel.lock().add_node(name);
            debug_assert!(id.is_none() || id == Some(got));
            id = Some(got);
        }
        id.expect("at least one shard")
    }

    pub fn counter_add(&self, name: &str, v: u64) {
        *self.counters.lock().entry(name.to_string()).or_insert(0) += v;
    }

    pub fn counter_get(&self, name: &str) -> u64 {
        self.counters.lock().get(name).copied().unwrap_or(0)
    }

    pub fn counters_snapshot(&self) -> BTreeMap<String, u64> {
        self.counters.lock().clone()
    }

    // ---- process-side primitives -------------------------------------

    /// Unwinds the current process with the kill signal.
    fn kill_unwind() -> ! {
        panic::resume_unwind(Box::new(KillSignal))
    }

    /// The calling thread's kernel, locked, with the node (raw id, 0 =
    /// free-floating) and group it acts for: a process's own, or an
    /// inline handler's port's node and owner group. `None` for the
    /// driver.
    fn lock_caller(&self) -> Option<(MutexGuard<'_, Kernel>, u32, Option<u64>)> {
        if let Some(pid) = cur_pid() {
            let k = self.shards[(pid >> SHARD_SHIFT) as usize].kernel.lock();
            let me = k.procs.get(&pid);
            let node = me.and_then(|p| p.node).map_or(0, |n| n.0);
            let group = me.and_then(|p| p.group);
            return Some((k, node, group));
        }
        let (node, shard, group) = cur_inline()?;
        Some((self.shards[shard].kernel.lock(), node.0, group))
    }

    /// [`Kernel::next_step`] for every loop that steps a shard — a
    /// blocking process, an exiting one, the scheduler. Runs each inline
    /// handler it hands back on this context with the lock released, and
    /// returns the process to switch to next, or `None`: done, or an
    /// inline handler panicked (the scheduler must see it).
    fn step<'a>(
        &'a self,
        shard: usize,
        mut k: MutexGuard<'a, Kernel>,
    ) -> (MutexGuard<'a, Kernel>, Option<(Pid, Handle)>) {
        loop {
            match k.next_step() {
                Step::Run(pid, to) => return (k, Some((pid, to))),
                Step::Done => return (k, None),
                Step::Inline(run) => {
                    drop(k);
                    self.run_inline(shard, run);
                    k = self.shards[shard].kernel.lock();
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
    fn run_inline(&self, shard: usize, run: InlineRun) {
        let InlineRun { port, served, item } = run;
        let pid = CUR_PID.with(|c| c.replace(None));
        let span = crate::trace::set_current_ctx(None);
        let me = InlineAs {
            port,
            shard,
            served: Arc::clone(&served),
        };
        CUR_INLINE.with(|c| *c.borrow_mut() = Some(me));
        let result = panic::catch_unwind(AssertUnwindSafe(|| match (&served.serving, item) {
            (Serving::Spawn { handler, .. }, Item::Msg(from, msg)) => handler(from, msg),
            (Serving::Spawn { .. }, Item::Unreach(_)) => {}
            (Serving::Inline(handler), item) => handler(item.into_recv()),
        }));
        CUR_INLINE.with(|c| *c.borrow_mut() = None);
        crate::trace::set_current_ctx(span);
        CUR_PID.with(|c| c.set(pid));
        if let Err(payload) = result {
            self.record_panic(
                shard,
                "inline task",
                &served.task,
                Some(port.node),
                &*payload,
            );
        }
    }

    /// Records the panic of a process or inline handler for the driver
    /// to re-raise, and dumps its node's journal tail (the black box;
    /// outside the kernel lock — the journal lives in the node's
    /// extension map). A kill's unwind is no panic.
    fn record_panic(
        &self,
        shard: usize,
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
            let mut k = self.shards[shard].kernel.lock();
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

    /// Blocks the current process; returns the wake reason.
    ///
    /// `prepare` runs under the kernel lock after the wait generation has
    /// been bumped; it receives the generation so it can register the
    /// process on wait lists. `wake_at` optionally schedules a timeout.
    ///
    /// On the fast path the caller runs the scheduler itself: if the next
    /// runnable process turns out to be the caller (its own timeout or a
    /// same-instant delivery), it continues with no switch at all;
    /// otherwise it switches to the next process's stack directly.
    fn block_current<F>(&self, wake_at: Option<u64>, prepare: F) -> WakeReason
    where
        F: FnOnce(&mut Kernel, Pid, u64),
    {
        forbid_inline("block");
        let pid = cur_pid().expect("blocking call outside a simulated process");
        let shard = (pid >> SHARD_SHIFT) as usize;
        let slot = &self.shards[shard];
        let me;
        // Where to switch to: a peer directly, or the scheduler. `None`:
        // the caller runs on.
        let mut to = Some(slot.sched.handle());
        {
            let mut k = slot.kernel.lock();
            if k.shutdown {
                drop(k);
                Self::kill_unwind();
            }
            let p = k.procs.get_mut(&pid).expect("current process missing");
            if p.killed {
                drop(k);
                Self::kill_unwind();
            }
            p.wait_gen += 1;
            let gen = p.wait_gen;
            p.state = PState::Blocked;
            p.wake_reason = WakeReason::None;
            me = p.stack.handle();
            let src = p.node.map(|n| n.0).unwrap_or(0);
            if let Some(at) = wake_at {
                k.arm_timer(pid, at, src);
            }
            prepare(&mut k, pid, gen);
            if k.can_inline() {
                let next;
                (k, next) = self.step(shard, k);
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
        let reason = {
            let mut k = slot.kernel.lock();
            k.resumed();
            let p = k.procs.get(&pid).expect("current process missing");
            if k.shutdown || p.killed {
                WakeReason::Killed
            } else {
                p.wake_reason
            }
        };
        if reason == WakeReason::Killed {
            Self::kill_unwind();
        }
        reason
    }

    /// Sleeps the current process for `d` of virtual time.
    pub fn sleep(&self, d: Duration) {
        let at = {
            let k = self.kernel_here().lock();
            k.now + d.as_micros() as u64
        };
        self.block_current(Some(at), |_, _, _| {});
    }

    /// Current virtual time. Reads the calling shard's lock-free mirror:
    /// a shard's time advances only in its step loop while its processes
    /// are parked, so this is always exact for the caller. (The driver
    /// reads shard 0; between runs the coordinator levels all shards to
    /// a common time.)
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.shards[cur_shard()].now_cache.load(Ordering::Acquire))
    }

    /// A draw from `node`'s deterministic RNG stream.
    /// Raw id of the calling process's node (0 for the driver and for
    /// free-floating controllers) — the key for caller-stream resource
    /// allocation such as [`SimChan`](crate::sim::SimChan) wait objects.
    pub(crate) fn cur_node_key(&self) -> u32 {
        self.lock_caller().map_or(0, |(_, node, _)| node)
    }

    pub fn rand_for(&self, node: NodeId) -> u64 {
        self.kernel_for(node).lock().rand_for_node(node.0)
    }

    /// Creates a wait object homed on `home` (0 = anonymous / shard 0).
    pub fn waitobj_create(&self, home: u32) -> u64 {
        self.shards[self.shard_ix(home)].kernel.lock().waitobj_create(home)
    }

    /// The shard owning wait object `id` (encoded in its high bits).
    #[inline]
    fn waitobj_shard(&self, id: u64) -> usize {
        self.shard_ix((id >> 32) as u32)
    }

    /// Blocks until the wait object's generation exceeds `seen` (or the
    /// timeout elapses); returns the generation observed on wake.
    pub fn waitobj_wait_newer(&self, id: u64, seen: u64, timeout: Option<Duration>) -> u64 {
        let home = self.waitobj_shard(id);
        if self.nshards > 1 && cur_pid().is_some() && cur_shard() != home {
            panic!(
                "cross-shard blocking wait: wait object {id:#x} lives on shard {home} \
                 but the waiter runs on shard {}; home the object on the waiting \
                 node (SimNode::make_sync) or run with shards = 1",
                cur_shard()
            );
        }
        loop {
            let wake_at;
            {
                let k = self.shards[home].kernel.lock();
                let gen = k.waitobjs.get(&id).map(|w| w.generation).unwrap_or(0);
                if gen > seen {
                    return gen;
                }
                wake_at = timeout.map(|t| k.now + t.as_micros() as u64);
            }
            let reason = self.block_current(wake_at, |k, pid, gen| {
                if let Some(w) = k.waitobjs.get_mut(&id) {
                    w.waiters.push_back((pid, gen));
                }
            });
            let k = self.shards[home].kernel.lock();
            let gen = k.waitobjs.get(&id).map(|w| w.generation).unwrap_or(0);
            if gen > seen || reason == WakeReason::Timeout {
                return gen;
            }
        }
    }

    /// Bumps a wait object's generation. Same-node (or driver) callers
    /// apply immediately; a process on another node defers it by one
    /// fault-propagation delay as a control event, so the timing is the
    /// same under any shard count.
    pub fn waitobj_bump(&self, id: u64) {
        let op = ControlOp::Bump(id);
        let home_node = (id >> 32) as u32;
        let home = self.shard_ix(home_node);
        match self.lock_caller() {
            None => self.shards[home].kernel.lock().apply_control(op),
            Some((mut k, my_node, _)) if my_node == home_node => k.apply_control(op),
            Some((mut k, my_node, _)) => k.defer_control(my_node, [(home, op)]),
        }
    }

    pub fn waitobj_generation(&self, id: u64) -> u64 {
        let home = self.waitobj_shard(id);
        self.shards[home].kernel.lock().waitobj_generation(id)
    }

    /// Receives from an endpoint with an optional timeout. An item
    /// already queued is returned immediately — no switch, no
    /// scheduler involvement (the receive-side half of handoff elision).
    pub fn ep_recv(
        &self,
        key: EpKey,
        timeout: Option<Duration>,
    ) -> Result<(Addr, Bytes), RecvError> {
        forbid_inline("receive");
        let home = self.shard_ix(key.node.0);
        let pid = cur_pid().expect("recv outside a simulated process");
        if self.nshards > 1 && (pid >> SHARD_SHIFT) as usize != home {
            panic!(
                "cross-shard receive: endpoint {key} lives on shard {home} but the \
                 receiver runs on shard {}; receive from a process on the \
                 endpoint's own node",
                (pid >> SHARD_SHIFT) as usize
            );
        }
        let slot = &self.shards[home];
        loop {
            let wake_at;
            {
                let mut k = slot.kernel.lock();
                if k.shutdown || k.procs.get(&pid).map(|p| p.killed).unwrap_or(true) {
                    drop(k);
                    Self::kill_unwind();
                }
                match k.endpoints.get_mut(&key) {
                    None => return Err(RecvError::Closed),
                    Some(ep) => {
                        if let Some(item) = ep.queue.pop_front() {
                            return item.into_recv();
                        }
                    }
                }
                if timeout == Some(Duration::ZERO) {
                    return Err(RecvError::TimedOut);
                }
                wake_at = timeout.map(|t| k.now + t.as_micros() as u64);
            }
            let reason = self.block_current(wake_at, |k, pid, gen| {
                if let Some(ep) = k.endpoints.get_mut(&key) {
                    ep.waiters.push_back((pid, gen));
                }
            });
            // Re-check the queue under the lock; clean our stale waiter
            // entry if we woke for a timeout.
            let mut k = slot.kernel.lock();
            match k.endpoints.get_mut(&key) {
                None => return Err(RecvError::Closed),
                Some(ep) => {
                    ep.waiters.retain(|(p, _)| *p != pid);
                    if let Some(item) = ep.queue.pop_front() {
                        return item.into_recv();
                    }
                }
            }
            if reason == WakeReason::Timeout {
                return Err(RecvError::TimedOut);
            }
            // Spuriously woken (e.g. message raced away); loop and block
            // again with the remaining... full timeout. Timeout extension
            // on races is acceptable: races are rare and deterministic.
        }
    }

    // ---- spawning -----------------------------------------------------

    /// Spawns a process. `node` of `None` is a free-floating controller.
    /// The process joins the spawner's process group unless `group`
    /// overrides it.
    pub fn spawn(self: &Arc<Self>, node: Option<NodeId>, name: &str, f: Box<dyn FnOnce() + Send>) {
        self.spawn_in(node, name, None, f);
    }

    /// Spawns a process into an explicit group (`Some`) or inheriting the
    /// current process's group (`None`). Same-node spawns (and any spawn
    /// from the driver) start immediately; a process spawning onto
    /// *another* node defers by one fault-propagation delay, carried as
    /// a control event to the target's shard — the same virtual timing
    /// under every shard count.
    pub fn spawn_in(
        self: &Arc<Self>,
        node: Option<NodeId>,
        name: &str,
        group: Option<u64>,
        f: Box<dyn FnOnce() + Send>,
    ) {
        let target = node.map(|n| n.0).unwrap_or(0);
        let ts = self.shard_ix(target);
        match self.lock_caller() {
            None => {
                self.shards[ts]
                    .kernel
                    .lock()
                    .spawn_local(self, node, Arc::from(name), group, f);
            }
            Some((mut k, my_node, my_group)) => {
                let group = group.or(my_group);
                if my_node == target {
                    k.spawn_local(self, node, Arc::from(name), group, f);
                } else {
                    let op = ControlOp::Spawn {
                        node,
                        name: Arc::from(name),
                        group,
                        f,
                    };
                    k.defer_control(my_node, [(ts, op)]);
                }
            }
        }
    }

    /// Allocates a process-group id from the caller's node stream.
    pub fn alloc_group(&self) -> u64 {
        match self.lock_caller() {
            None => self.shards[0].kernel.lock().alloc_group(0),
            Some((mut k, my_node, _)) => k.alloc_group(my_node),
        }
    }

    /// Kills every member of a group living on `home`'s shard. Same-node
    /// and driver callers apply immediately; a cross-node process defers
    /// by one fault-propagation delay (control event).
    pub fn kill_group(&self, group: u64, home: NodeId) {
        let hs = self.shard_ix(home.0);
        match self.lock_caller() {
            None => self.shards[hs].kernel.lock().kill_group(group),
            Some((mut k, my_node, _)) if my_node == home.0 => k.kill_group(group),
            Some((mut k, my_node, _)) => {
                k.defer_control(my_node, [(hs, ControlOp::KillGroup(group))]);
            }
        }
    }

    /// Whether any member of a group on `home`'s shard is alive. From a
    /// foreign-shard process this is a racy read (monitoring only).
    pub fn group_alive(&self, group: u64, home: NodeId) -> bool {
        self.shards[self.shard_ix(home.0)]
            .kernel
            .lock()
            .group_alive(group)
    }

    // ---- fault injection ---------------------------------------------

    /// Applies a cluster-wide network control. From the driver it takes
    /// effect immediately on every shard (everything is parked); from a
    /// process it is broadcast as a control event that every shard
    /// applies one fault-propagation delay later — including the
    /// issuer's own shard, so 1-shard and N-shard timelines agree.
    pub(crate) fn net_control(&self, ctl: NetCtl) {
        if let NetCtl::SetLink(a, b, p) = ctl {
            if a != b {
                let us = (p.latency.as_micros() as u64).max(1);
                // Narrow the lookahead at issue time: the new link can
                // only constrain windows that open after this point.
                self.lookahead_us.fetch_min(us, Ordering::AcqRel);
            }
        }
        match self.lock_caller() {
            None => {
                for s in &self.shards {
                    s.kernel.lock().apply_net(ctl);
                }
            }
            Some((mut k, my_node, _)) => {
                let everywhere = (0..self.nshards).map(|dest| (dest, ControlOp::Net(ctl)));
                k.defer_control(my_node, everywhere);
            }
        }
    }

    /// Records a fault-injection note in `node`'s journal. Driver
    /// context records immediately; a process routes it as a control
    /// event to the node's shard so the record lands at the same
    /// virtual instant as the fault it describes, under any shard
    /// count. Notes are issued before their fault's control, so the
    /// per-issuer sequence keeps them ordered first in the journal.
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
                let hs = self.shard_ix(node.0);
                k.defer_control(my_node, [(hs, ControlOp::Note { node, detail })]);
            }
        }
    }

    /// Whether `node` is up, read from its owning shard.
    pub fn node_up(&self, node: NodeId) -> bool {
        self.kernel_for(node)
            .lock()
            .node(node)
            .map(|n| n.up)
            .unwrap_or(false)
    }

    // ---- aggregate views ---------------------------------------------

    pub fn trace_hash(&self) -> u64 {
        self.shards
            .iter()
            .fold(FNV_OFFSET, |h, s| h.wrapping_add(s.kernel.lock().trace_digest))
    }

    pub fn net_stats(&self) -> NetStats {
        let mut t = NetStats::default();
        for s in &self.shards {
            let k = s.kernel.lock();
            t.msgs_sent += k.stats.msgs_sent;
            t.bytes_sent += k.stats.bytes_sent;
            t.msgs_delivered += k.stats.msgs_delivered;
            t.msgs_dropped += k.stats.msgs_dropped;
            t.bounces += k.stats.bounces;
            t.msgs_duplicated += k.stats.msgs_duplicated;
            t.msgs_reordered += k.stats.msgs_reordered;
        }
        t
    }

    pub fn kernel_stats(&self) -> KernelStats {
        let mut t = KernelStats::default();
        for s in &self.shards {
            let k = s.kernel.lock();
            t.events += k.sched.events;
            t.driver_resumes += k.sched.driver_resumes;
            t.direct_handoffs += k.sched.direct_handoffs;
            t.self_continues += k.sched.self_continues;
            t.xshard_msgs += k.sched.xshard_msgs;
            t.lookahead_stalls += k.sched.lookahead_stalls;
            t.idle_parks += k.sched.idle_parks;
            t.stacks_mapped += k.sched.stacks_mapped;
            t.spawns += k.sched.spawns;
            t.inline_runs += k.sched.inline_runs;
            t.timers += k.timers.len() as u64;
        }
        t.horizon_syncs = self.windows.load(Ordering::Relaxed);
        t
    }

    pub fn live_processes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.kernel
                    .lock()
                    .procs
                    .len()
            })
            .sum()
    }

    // ---- scheduler ----------------------------------------------------

    /// Runs the simulation until virtual time reaches `limit` (inclusive
    /// of events at `limit`), or until quiescence if `limit` is `None`,
    /// in conservative windows between synchronization horizons (see the
    /// module docs). Each iteration merges the cross-shard inboxes,
    /// finds the earliest pending activity `A` over all shards, opens
    /// the window `[A, A + lookahead)`, and lets every shard run it in
    /// parallel (shard 0 inline on this thread, the rest on their
    /// workers). One shard has one window per run.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic observed in any simulated process.
    pub fn run_until(&self, limit: Option<u64>) {
        self.claim_driver();
        let sharded = self.nshards > 1;
        // Exclusive; no window reaches past it.
        let stop = limit.map_or(u64::MAX, |l| l.saturating_add(1));
        for s in &self.shards {
            s.kernel.lock().in_run = true;
        }
        loop {
            // Merge inboxes and find the activity floor. A shard with a
            // runnable process counts at its local clock: driver-spawned
            // processes haven't produced an event yet but will run at
            // their shard's `now`, even past the limit.
            let mut active: Option<u64> = None;
            let mut runnable = false;
            for s in &self.shards {
                let mut k = s.kernel.lock();
                k.events.extend(s.inbox.lock().drain(..));
                let busy = !k.runnable.is_empty();
                runnable |= busy;
                let run_floor = busy.then_some(k.now);
                let due = k.next_due().map(|((at, ..), _)| at);
                for c in [due, run_floor].into_iter().flatten() {
                    active = Some(active.map_or(c, |a| a.min(c)));
                }
            }
            let Some(base) = active else { break };
            if base >= stop && !runnable {
                break;
            }
            // The shortest delay of an event that can cross shards: with
            // one shard none can, and the window runs to the limit.
            let lookahead = if sharded {
                self.lookahead_us.load(Ordering::Acquire).max(1)
            } else {
                u64::MAX
            };
            let horizon = base.saturating_add(lookahead).min(stop);
            for s in &self.shards {
                s.kernel.lock().run_limit = horizon - 1; // inclusive
            }
            if sharded {
                self.windows.fetch_add(1, Ordering::Relaxed);
            }
            for s in &self.shards[1..] {
                s.go.grant();
            }
            self.run_window(0);
            for s in &self.shards[1..] {
                s.done.wait();
            }
            self.check_panics();
        }
        // Level every shard to a common end time so post-run reads and
        // spawns are shard-invariant.
        let end = match limit {
            Some(l) => l,
            None => self
                .shards
                .iter()
                .map(|s| s.kernel.lock().now)
                .max()
                .unwrap_or(0),
        };
        for s in &self.shards {
            let mut k = s.kernel.lock();
            if end > k.now {
                k.now = end;
                k.now_shared.store(end, Ordering::Release);
            }
            k.in_run = false;
        }
        self.check_panics();
    }

    /// Makes the calling thread the one shard 0's processes run on.
    ///
    /// # Panics
    ///
    /// If another thread drove the simulation while it started processes
    /// that are suspended now: they stay on the thread they started on.
    fn claim_driver(&self) {
        let me = std::thread::current().id();
        let mut k = self.shards[0].kernel.lock();
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

    /// Switches from shard `ix`'s scheduler to a process, and returns
    /// once a process switches back.
    fn resume_from_scheduler(&self, ix: usize, to: Handle) {
        let slot = &self.shards[ix];
        switch(slot.sched.handle(), to);
        slot.kernel.lock().resumed();
    }

    /// Runs one shard's share of the current window to completion. Runs
    /// on the coordinator thread for shard 0 and on the shard's worker
    /// otherwise.
    fn run_window(&self, ix: usize) {
        let slot = &self.shards[ix];
        let mut progressed = false;
        loop {
            let next = {
                let k = slot.kernel.lock();
                if !k.panics.is_empty() {
                    break;
                }
                let before = k.sched.events;
                let (mut k, next) = self.step(ix, k);
                if k.sched.events != before {
                    progressed = true;
                }
                if next.is_some() {
                    k.sched.driver_resumes += 1;
                    progressed = true;
                }
                next
            };
            match next {
                Some((_, to)) => self.resume_from_scheduler(ix, to),
                None => break,
            }
        }
        if !progressed && self.nshards > 1 {
            slot.kernel.lock().sched.lookahead_stalls += 1;
        }
    }

    fn check_panics(&self) {
        let msg = self.shards.iter().find_map(|s| {
            let mut k = s.kernel.lock();
            if k.panics.is_empty() {
                None
            } else {
                Some(k.panics.remove(0))
            }
        });
        if let Some(m) = msg {
            panic!("simulated process panicked: {m}");
        }
    }

    /// Shuts the simulation down: kills every process, has each shard
    /// drained on the thread its processes run on — shard 0 here, the
    /// others by their workers, which then exit — and joins the workers.
    /// With `shutdown` set every handoff routes through the scheduler, so
    /// the drain sequencing matches the fast path off exactly. Driver
    /// context only — no window is open, so all processes are suspended.
    pub fn shutdown(&self) {
        self.claim_driver();
        for s in &self.shards {
            let mut k = s.kernel.lock();
            k.shutdown = true;
            let pids: Vec<Pid> = k.procs.keys().copied().collect();
            for pid in pids {
                k.kill_proc(pid);
            }
        }
        self.drain_shard(0);
        if self.nshards > 1 {
            self.stop.store(true, Ordering::Release);
            for s in &self.shards[1..] {
                s.go.grant();
            }
            for j in self.workers.lock().drain(..) {
                let _ = j.join();
            }
        }
    }

    /// Drains one shard's processes after `shutdown` has marked them
    /// killed: resume every runnable process so it unwinds, then wake
    /// and drain any still blocked, and unmap the idle stacks — no
    /// process starts after shutdown. Ignores panics recorded during
    /// shutdown.
    fn drain_shard(&self, ix: usize) {
        let slot = &self.shards[ix];
        loop {
            let step = {
                let mut k = slot.kernel.lock();
                k.panics.clear();
                let mut found = None;
                while let Some(pid) = k.runnable.pop_front() {
                    if let Some(p) = k.procs.get_mut(&pid) {
                        if p.state == PState::Runnable {
                            p.state = PState::Running;
                            found = Some(p.stack.handle());
                            break;
                        }
                    }
                }
                found
            };
            match step {
                Some(to) => self.resume_from_scheduler(ix, to),
                None => break,
            }
        }
        // Any processes still blocked have been marked killed but have no
        // wakeup; wake-and-drain them explicitly.
        loop {
            let step = {
                let mut k = slot.kernel.lock();
                let blocked: Vec<Pid> = k
                    .procs
                    .iter()
                    .filter(|(_, p)| p.state == PState::Blocked)
                    .map(|(pid, _)| *pid)
                    .collect();
                let k = &mut *k;
                for pid in &blocked {
                    if let Some(p) = k.procs.get_mut(pid) {
                        unblock(p, &mut k.timers, WakeReason::Killed);
                    }
                }
                let runnable: Vec<Pid> = k
                    .procs
                    .iter()
                    .filter(|(_, p)| p.state == PState::Runnable)
                    .map(|(pid, _)| *pid)
                    .collect();
                k.runnable.clear();
                k.panics.clear();
                runnable
            };
            if step.is_empty() {
                break;
            }
            for pid in step {
                let to = {
                    let mut k = slot.kernel.lock();
                    match k.procs.get_mut(&pid) {
                        Some(p) if p.state == PState::Runnable => {
                            p.state = PState::Running;
                            p.stack.handle()
                        }
                        _ => continue,
                    }
                };
                self.resume_from_scheduler(ix, to);
            }
        }
        slot.kernel.lock().stacks.clear();
    }
}

/// Shard worker loop (shards 1..n): park until the coordinator opens a
/// window, run the shard's share of it, report done; at shutdown, drain
/// the shard and exit. Workers never panic past this frame — process
/// panics are recorded in the kernel and re-raised on the coordinator.
fn worker_main(inner: Arc<SimInner>, ix: usize) {
    loop {
        inner.shards[ix].go.wait();
        if inner.stop.load(Ordering::Acquire) {
            inner.drain_shard(ix);
            break;
        }
        inner.shards[ix].kernel.lock().sched.idle_parks += 1;
        inner.run_window(ix);
        inner.shards[ix].done.grant();
    }
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
    CUR_PID.with(|c| c.set(Some(pid)));
    crate::trace::set_current_ctx(None);
    let shard = (pid >> SHARD_SHIFT) as usize;
    let slot = &inner.shards[shard];
    let start_killed = {
        let mut k = slot.kernel.lock();
        k.resumed();
        k.entered += 1;
        k.shutdown || k.procs.get(&pid).map(|p| p.killed).unwrap_or(true)
    };
    if !start_killed {
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(f)) {
            let (name, node) = {
                let k = slot.kernel.lock();
                let me = k.procs.get(&pid);
                (
                    me.map_or_else(String::new, |p| p.name.to_string()),
                    me.and_then(|p| p.node),
                )
            };
            inner.record_panic(shard, "process", &name, node, &*payload);
        }
    }
    // Close owned endpoints, leave the process table — nobody joins a
    // process, so nothing needs its entry once it is done — park the
    // stack for whoever runs next to free, and pass control on: to the
    // next process directly on the fast path, else to the shard's
    // scheduler. A recorded panic disables the fast path, so the
    // scheduler observes it immediately.
    let mut k = slot.kernel.lock();
    let eps = k
        .procs
        .get_mut(&pid)
        .map(|p| std::mem::take(&mut p.endpoints))
        .unwrap_or_default();
    for key in eps {
        k.close_endpoint(key);
    }
    if let Some(me) = k.procs.remove(&pid) {
        k.park_dead(me.stack);
    }
    k.entered -= 1;
    let mut next = slot.sched.handle();
    if k.can_inline() {
        let step;
        (k, step) = inner.step(shard, k);
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
