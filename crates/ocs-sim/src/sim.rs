//! Public facade over the discrete-event kernel: building nodes, running
//! the clock, injecting failures, and reading statistics.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use crate::kernel::{
    cur_pid, EpState, KernelStats, LinkImpairment, LinkParams, NetConfig, NetCtl, NetStats,
    Serving, ShardPolicy, SimInner,
};
use crate::rt::{
    Addr, Endpoint, FrameHandler, InlineTest, LandingHandler, NetError, NodeId, NodeRt, PortReq,
    RecvError,
};
use crate::time::SimTime;

/// Configuration for a simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Seed for the deterministic RNG.
    pub seed: u64,
    /// Network model defaults.
    pub net: NetConfig,
    /// Emit a trace line per message send and lifecycle event.
    pub trace: bool,
    /// Scheduler fast path (handoff elision + direct process-to-process
    /// switches). Virtual-time behaviour is identical either way;
    /// `false` sends every handoff through the shard's scheduler and
    /// exists for baseline benchmarking and equivalence tests.
    pub fast: bool,
    /// Number of kernel shards: nodes are partitioned across this many
    /// OS threads that advance in conservative-lookahead windows. With
    /// 1 (the default) no event crosses shards, so each `run_until` is
    /// one window, stepped on the calling thread. Virtual-time behaviour
    /// — including the trace hash — is identical for every value.
    pub shards: usize,
    /// How nodes map to shards when `shards > 1`.
    pub policy: ShardPolicy,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            seed: 0,
            net: NetConfig::default(),
            trace: std::env::var_os("OCS_TRACE").is_some(),
            fast: true,
            shards: 1,
            policy: ShardPolicy::default(),
        }
    }
}

/// A deterministic discrete-event simulation.
///
/// Cloning the handle is cheap; all clones drive the same simulation.
/// Dropping the last handle shuts the simulation down, unwinding every
/// simulated process.
///
/// # Examples
///
/// ```
/// use ocs_sim::{Sim, SimTime, NodeRt, NodeRtExt};
/// use std::time::Duration;
///
/// let sim = Sim::new(42);
/// let node = sim.add_node("server");
/// let rt = node.clone();
/// node.spawn_fn("hello", move || {
///     rt.sleep(Duration::from_secs(1));
/// });
/// sim.run_until(SimTime::from_secs(2));
/// assert_eq!(sim.now(), SimTime::from_secs(2));
/// ```
pub struct Sim {
    inner: Arc<SimInner>,
    /// Only the original handle shuts down on drop.
    owner: bool,
}

impl Clone for Sim {
    fn clone(&self) -> Sim {
        Sim {
            inner: Arc::clone(&self.inner),
            owner: false,
        }
    }
}

impl Sim {
    /// Creates a simulation with default configuration and the given seed.
    pub fn new(seed: u64) -> Sim {
        Sim::with_config(SimConfig {
            seed,
            ..SimConfig::default()
        })
    }

    /// Creates a simulation with explicit configuration.
    pub fn with_config(cfg: SimConfig) -> Sim {
        Sim {
            inner: SimInner::new(
                cfg.seed,
                cfg.net,
                cfg.trace,
                cfg.fast,
                cfg.shards.max(1),
                cfg.policy,
            ),
            owner: true,
        }
    }

    /// Adds a host to the simulated network and returns its runtime.
    pub fn add_node(&self, name: &str) -> Arc<SimNode> {
        let id = self.inner.add_node(name);
        Arc::new(SimNode {
            inner: Arc::clone(&self.inner),
            id,
        })
    }

    /// Returns a runtime handle for an existing node.
    pub fn node_handle(&self, id: NodeId) -> Arc<SimNode> {
        Arc::new(SimNode {
            inner: Arc::clone(&self.inner),
            id,
        })
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.now()
    }

    /// Number of kernel shards this simulation runs on.
    pub fn shard_count(&self) -> usize {
        self.inner.shards()
    }

    /// Runs the simulation until virtual time `t`.
    pub fn run_until(&self, t: SimTime) {
        self.inner.run_until(Some(t.as_micros()));
    }

    /// Runs the simulation for `d` beyond the current time.
    pub fn run_for(&self, d: Duration) {
        let t = self.now() + d;
        self.run_until(t);
    }

    /// Runs until no events remain (quiescence). Periodic services never
    /// quiesce; prefer [`Sim::run_until`] when any are running.
    pub fn run(&self) {
        self.inner.run_until(None);
    }

    /// Spawns a free-floating controller process not tied to any node.
    pub fn spawn_root<F: FnOnce() + Send + 'static>(&self, name: &str, f: F) {
        self.inner.spawn(None, name, Box::new(f));
    }

    /// Sleeps the calling *simulated* process for `d` of virtual time.
    /// Panics if called from outside the simulation (e.g. the driver
    /// thread); root processes spawned with [`Sim::spawn_root`] use this
    /// since they have no node runtime.
    pub fn sleep(&self, d: Duration) {
        crate::kernel::forbid_inline("sleep");
        assert!(
            cur_pid().is_some(),
            "Sim::sleep must be called from a simulated process"
        );
        self.inner.sleep(d);
    }

    /// Crashes a node: kills its processes, closes its endpoints, and
    /// silences its links (messages in flight are dropped).
    ///
    /// From the driver the crash takes effect immediately. From a
    /// simulated process it lands after one fault-propagation delay —
    /// the same virtual timing under every shard count — and a process
    /// whose own node crashes unwinds at its next kernel interaction.
    pub fn crash_node(&self, node: NodeId) {
        self.inner.net_control(NetCtl::Crash(node));
    }

    /// Brings a crashed node back up (with no processes; callers spawn a
    /// fresh init/SSC process afterwards, per the paper's §6.3 sequence).
    pub fn restart_node(&self, node: NodeId) {
        self.inner.net_control(NetCtl::Restart(node));
    }

    /// Whether a node is currently up.
    pub fn node_up(&self, node: NodeId) -> bool {
        self.inner.node_up(node)
    }

    /// Overrides the directed link `from -> to`. Lowering a cross-node
    /// latency also narrows the sharded kernel's conservative lookahead
    /// from this point on.
    pub fn set_link(&self, from: NodeId, to: NodeId, params: LinkParams) {
        self.inner.net_control(NetCtl::SetLink(from, to, params));
    }

    /// Sets or clears a (symmetric) partition between two nodes.
    pub fn set_partitioned(&self, a: NodeId, b: NodeId, partitioned: bool) {
        self.inner
            .net_control(NetCtl::SetPartition(a, b, partitioned));
    }

    /// Installs a fault-injection impairment (extra loss, duplication,
    /// reordering, latency spikes) on the symmetric link between two
    /// nodes, replacing any previous impairment for the pair.
    pub fn set_impairment(&self, a: NodeId, b: NodeId, imp: LinkImpairment) {
        self.inner.net_control(NetCtl::SetImpairment(a, b, imp));
    }

    /// Removes any impairment between two nodes (either direction).
    pub fn clear_impairment(&self, a: NodeId, b: NodeId) {
        self.inner.net_control(NetCtl::ClearImpairment(a, b));
    }

    /// Digest of the run's observable event trace so far (network sends
    /// and deliveries plus fault actions): a commutative fold of
    /// per-record FNV-1a hashes, so the value is independent of how
    /// nodes are sharded. Two runs of the same workload with the same
    /// seed yield identical digests; any divergence in scheduling or
    /// faults changes the value.
    pub fn trace_hash(&self) -> u64 {
        self.inner.trace_hash()
    }

    /// Snapshot of aggregate network statistics.
    pub fn net_stats(&self) -> NetStats {
        self.inner.net_stats()
    }

    /// Snapshot of the scheduler/event-loop counters (events applied,
    /// driver resumes, direct handoffs, zero-switch continues, shard
    /// horizon syncs / cross-shard messages). Used by the E18 kernel
    /// microbenchmark and the telemetry snapshot.
    pub fn kernel_stats(&self) -> KernelStats {
        self.inner.kernel_stats()
    }

    /// Adds to a named counter (shared metric registry).
    pub fn counter_add(&self, name: &str, delta: u64) {
        self.inner.counter_add(name, delta);
    }

    /// Reads a named counter (0 if never written).
    pub fn counter_get(&self, name: &str) -> u64 {
        self.inner.counter_get(name)
    }

    /// Snapshot of all counters.
    pub fn counters(&self) -> std::collections::BTreeMap<String, u64> {
        self.inner.counters_snapshot()
    }

    /// Records a fault-injection note in `node`'s flight-recorder
    /// journal. From the driver the record lands immediately; from a
    /// simulated process it rides the kernel's control stream to the
    /// node's shard (one fault-propagation delay, ordered ahead of any
    /// fault issued by the same caller afterwards).
    pub(crate) fn journal_fault(&self, node: NodeId, detail: String) {
        self.inner.journal_fault(node, detail);
    }

    /// Number of live (non-dead) processes, for tests and diagnostics.
    pub fn live_processes(&self) -> usize {
        self.inner.live_processes()
    }

    pub(crate) fn inner(&self) -> &Arc<SimInner> {
        &self.inner
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        if self.owner {
            self.inner.shutdown();
        }
    }
}

/// The runtime for one simulated host. Implements [`NodeRt`].
pub struct SimNode {
    inner: Arc<SimInner>,
    id: NodeId,
}

impl SimNode {
    /// A simulation handle sharing this node's kernel (for failure
    /// injection from controller processes).
    pub fn sim(&self) -> Sim {
        Sim {
            inner: Arc::clone(&self.inner),
            owner: false,
        }
    }
}

impl NodeRt for SimNode {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn sleep(&self, d: Duration) {
        self.inner.sleep(d);
    }

    fn spawn(&self, name: &str, f: Box<dyn FnOnce() + Send>) {
        self.inner.spawn(Some(self.id), name, f);
    }

    fn spawn_group(
        &self,
        name: &str,
        f: Box<dyn FnOnce() + Send>,
    ) -> Arc<dyn crate::rt::ProcGroup> {
        let gid = self.inner.alloc_group();
        self.inner.spawn_in(Some(self.id), name, Some(gid), f);
        Arc::new(SimProcGroup {
            inner: Arc::clone(&self.inner),
            gid,
            node: self.id,
        })
    }

    fn open(&self, port: PortReq) -> Result<Arc<dyn Endpoint>, NetError> {
        crate::kernel::forbid_inline("open an endpoint");
        let mut k = self.inner.kernel_for(self.id).lock();
        let node_up = k.node(self.id).map(|n| n.up).unwrap_or(false);
        if !node_up {
            return Err(NetError::NodeDown);
        }
        let portno = match port {
            PortReq::Fixed(p) => {
                let key = Addr::new(self.id, p);
                if k.endpoints.contains_key(&key) {
                    return Err(NetError::PortInUse(p));
                }
                p
            }
            PortReq::Ephemeral => {
                // Scan from the node's ephemeral cursor for a free port.
                let mut cand = {
                    let n = k.node_mut(self.id).expect("node exists");
                    n.next_ephemeral
                };
                loop {
                    let key = Addr::new(self.id, cand);
                    if !k.endpoints.contains_key(&key) {
                        break;
                    }
                    cand = cand.checked_add(1).unwrap_or(crate::kernel::EPHEMERAL_BASE);
                }
                let n = k.node_mut(self.id).expect("node exists");
                n.next_ephemeral = cand.checked_add(1).unwrap_or(crate::kernel::EPHEMERAL_BASE);
                cand
            }
        };
        let key = Addr::new(self.id, portno);
        let owner = cur_pid().unwrap_or(0);
        k.endpoints.insert(
            key,
            EpState {
                owner,
                queue: Default::default(),
                waiters: Default::default(),
                served: None,
            },
        );
        if owner != 0 {
            if let Some(p) = k.procs.get_mut(&owner) {
                p.endpoints.push(key);
            }
        }
        drop(k);
        Ok(Arc::new(SimEndpoint {
            inner: Arc::clone(&self.inner),
            addr: key,
        }))
    }

    /// The calling process's own reply endpoint on this node, opened at
    /// its first call there; it closes one the process kept on another
    /// node.
    fn reply_endpoint(&self) -> Result<Arc<dyn Endpoint>, NetError> {
        crate::kernel::forbid_inline("wait for a reply");
        let Some(pid) = cur_pid() else {
            return self.open(PortReq::Ephemeral);
        };
        let kernel = self.inner.kernel_here();
        if let Some(ep) = kernel.lock().reply_endpoint(pid, self.id) {
            return Ok(ep);
        }
        let ep = self.open(PortReq::Ephemeral)?;
        let old = kernel
            .lock()
            .procs
            .get_mut(&pid)
            .and_then(|p| p.reply.replace(Arc::clone(&ep)));
        if let Some(old) = old {
            old.close();
        }
        Ok(ep)
    }

    fn node(&self) -> NodeId {
        self.id
    }

    fn rand_u64(&self) -> u64 {
        self.inner.rand_for(self.id)
    }

    fn trace(&self, msg: &str) {
        let k = self.inner.kernel_here().lock();
        if k.trace {
            eprintln!("[{}] {}: {}", SimTime::from_micros(k.now), self.id, msg);
        }
    }

    fn make_sync(&self) -> Arc<dyn crate::sync::SyncObj> {
        Arc::new(SimSyncObj {
            inner: Arc::clone(&self.inner),
            id: self.inner.waitobj_create(self.id.0),
        })
    }

    fn extensions(&self) -> Arc<crate::rt::Extensions> {
        self.inner.node_extensions(self.id)
    }
}

/// A simulation-backed wait/notify object.
struct SimSyncObj {
    inner: Arc<SimInner>,
    id: u64,
}

impl crate::sync::SyncObj for SimSyncObj {
    fn generation(&self) -> u64 {
        self.inner.waitobj_generation(self.id)
    }

    fn wait_newer(&self, seen: u64, timeout: Option<Duration>) -> u64 {
        self.inner.waitobj_wait_newer(self.id, seen, timeout)
    }

    fn bump(&self) {
        self.inner.waitobj_bump(self.id);
    }
}

/// Handle on a simulated process group.
struct SimProcGroup {
    inner: Arc<SimInner>,
    gid: u64,
    node: NodeId,
}

impl crate::rt::ProcGroup for SimProcGroup {
    fn alive(&self) -> bool {
        self.inner.group_alive(self.gid, self.node)
    }

    fn kill(&self) {
        let was_alive = self.inner.group_alive(self.gid, self.node);
        self.inner.kill_group(self.gid, self.node);
        // Black box: journal the kill and dump the victim node's tail
        // (the journal lives in the node's extension map, outside the
        // kernel locks).
        if was_alive {
            let now = self.inner.now();
            let j = self
                .inner
                .node_extensions(self.node)
                .get_or_init(|| crate::journal::Journal::new(self.node));
            j.record(now, "proc", format!("group {} killed", self.gid));
            j.dump_tail(&format!("group {} kill", self.gid));
        }
    }

    fn id(&self) -> u64 {
        self.gid
    }
}

/// A simulated message endpoint.
pub struct SimEndpoint {
    inner: Arc<SimInner>,
    addr: Addr,
}

impl Endpoint for SimEndpoint {
    fn send(&self, to: Addr, msg: Bytes) -> Result<(), NetError> {
        let mut k = self.inner.kernel_for(self.addr.node).lock();
        let up = k.node(self.addr.node).map(|n| n.up).unwrap_or(false);
        if !up {
            return Err(NetError::NodeDown);
        }
        k.net_send(self.addr, to, msg);
        Ok(())
    }

    fn recv(&self, timeout: Option<Duration>) -> Result<(Addr, Bytes), RecvError> {
        self.inner.ep_recv(self.addr, timeout)
    }

    fn local(&self) -> Addr {
        self.addr
    }

    fn close(&self) {
        let mut k = self.inner.kernel_for(self.addr.node).lock();
        k.ep_set_owner(self.addr, None);
        k.close_endpoint(self.addr);
    }

    fn adopt(&self) {
        if let Some(pid) = cur_pid() {
            self.inner
                .kernel_for(self.addr.node)
                .lock()
                .ep_set_owner(self.addr, Some(pid));
        }
    }

    fn disown(&self) {
        self.inner
            .kernel_for(self.addr.node)
            .lock()
            .ep_set_owner(self.addr, None);
    }

    /// Hands the port to the kernel, which runs each frame's handler at
    /// its delivery — as a process, or inline if `inline` passes it (the
    /// kernel's "Serving a port") — and spawns it now on whatever was
    /// queued before. The calling process only waits for the close.
    fn serve(
        &self,
        _rt: &dyn NodeRt,
        task_name: &str,
        handler: FrameHandler,
        inline: Option<InlineTest>,
    ) {
        let serving = Serving::Spawn { handler, inline };
        self.inner
            .kernel_for(self.addr.node)
            .lock()
            .serve_port(self.addr, task_name, serving);
        // Nothing queues on a served port: this returns at the close.
        while !matches!(self.recv(None), Err(RecvError::Closed)) {}
    }

    fn serve_inline(&self, task_name: &str, handler: LandingHandler) {
        let serving = Serving::Inline(Arc::clone(&handler));
        let queued = self
            .inner
            .kernel_for(self.addr.node)
            .lock()
            .serve_port(self.addr, task_name, serving);
        for item in queued {
            handler(item.into_recv());
        }
    }
}

/// An in-simulation channel for coordinating processes (not part of the
/// modelled network; carries no latency and sends no messages): a
/// [`Queue`](crate::sync::Queue) on the simulation's clock.
///
/// Useful for workload generators and test harnesses that need to hand
/// results between simulated processes. The channel's wait object lives
/// on the creating process's shard; under a sharded kernel, blocking
/// `recv` is only legal from processes on the same node as the creator
/// (`try_recv` works from anywhere, including the driver).
pub struct SimChan<T> {
    inner: Arc<SimInner>,
    queue: Arc<crate::sync::Queue<T>>,
}

impl<T> Clone for SimChan<T> {
    fn clone(&self) -> SimChan<T> {
        SimChan {
            inner: Arc::clone(&self.inner),
            queue: Arc::clone(&self.queue),
        }
    }
}

impl<T: Send + 'static> SimChan<T> {
    /// Creates a channel bound to a simulation.
    pub fn new(sim: &Sim) -> SimChan<T> {
        let inner = Arc::clone(sim.inner());
        let obj = SimSyncObj {
            id: inner.waitobj_create(inner.cur_node_key()),
            inner: Arc::clone(&inner),
        };
        SimChan {
            inner,
            queue: Arc::new(crate::sync::Queue::on(Arc::new(obj))),
        }
    }

    /// Enqueues a value and wakes the waiting receivers.
    pub fn send(&self, v: T) {
        self.queue.push(v);
    }

    /// Dequeues a value, blocking the calling process up to `timeout`
    /// (forever if `None`). Returns `None` on timeout.
    pub fn recv(&self, timeout: Option<Duration>) -> Option<T> {
        self.queue.pop_by(|| self.inner.now(), timeout)
    }

    /// Non-blocking dequeue.
    pub fn try_recv(&self) -> Option<T> {
        self.queue.try_pop()
    }
}
