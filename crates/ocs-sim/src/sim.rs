//! Public facade over the discrete-event kernel: building nodes, running
//! the clock, injecting failures, and reading statistics.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use crate::fault::FaultRt;
use crate::kernel::{
    cur_pid, unlock, KernelStats, LinkImpairment, LinkParams, NetConfig, NetCtl, NetStats,
    SimInner, WaitObj,
};
use crate::rt::{
    Addr, Endpoint, InlineTest, LandingHandler, NetError, NodeId, NodeRt, PortReq, RecvError,
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
    /// Inert: the kernel has one handoff path (the kernel module's "Fast
    /// path" docs), whatever this reads. It stays only so that
    /// configurations that set it keep compiling; it is to be removed, so
    /// set nothing here.
    pub fast: bool,
    /// At most 1: a simulation is one kernel, stepped on the calling
    /// thread (the kernel module's "One kernel, one loop").
    /// [`Sim::with_config`] refuses a larger value. It stays, like
    /// `fast`, only so that configurations that set it keep compiling;
    /// it is to be removed.
    pub shards: usize,
    /// Inert, like `fast`: read by nothing.
    pub policy: ShardPolicy,
}

/// The inert type of [`SimConfig::policy`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShardPolicy {
    /// The only value.
    #[default]
    RoundRobin,
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
    ///
    /// # Panics
    ///
    /// If `cfg.shards` is more than 1: the simulator has one kernel.
    pub fn with_config(cfg: SimConfig) -> Sim {
        assert!(
            cfg.shards <= 1,
            "SimConfig::shards is {}, but the simulator runs one kernel: set shards to 1",
            cfg.shards
        );
        Sim {
            inner: SimInner::new(cfg.seed, cfg.net, cfg.trace),
            owner: true,
        }
    }

    /// Adds a host to the simulated network and returns its runtime. The
    /// name is the caller's label; the kernel knows the node by its id.
    pub fn add_node(&self, _name: &str) -> Arc<SimNode> {
        let id = self.inner.add_node();
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
    /// simulated process it lands after one fault-propagation delay, and
    /// a process whose own node crashes unwinds at its next kernel
    /// interaction.
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

    /// Overrides the directed link `from -> to`.
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
    /// and deliveries plus fault actions): the sum of per-record FNV-1a
    /// hashes. Two runs of the same workload with the same seed yield
    /// identical digests; any divergence in scheduling or faults changes
    /// the value.
    pub fn trace_hash(&self) -> u64 {
        self.inner.trace_hash()
    }

    /// Snapshot of aggregate network statistics.
    pub fn net_stats(&self) -> NetStats {
        self.inner.net_stats()
    }

    /// Snapshot of the scheduler/event-loop counters (events applied,
    /// driver resumes, direct handoffs, zero-switch continues, spawns,
    /// pending timeouts). Used by the E18 kernel microbenchmark and the
    /// telemetry snapshot.
    pub fn kernel_stats(&self) -> KernelStats {
        self.inner.kernel_stats()
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

/// Faults act on the simulator through the methods above. A note is
/// journalled at once from the driver; from a simulated process it rides
/// the kernel's control stream (one fault-propagation delay, ordered
/// ahead of any fault the same caller issues afterwards).
impl FaultRt for Sim {
    fn journal_fault(&self, node: NodeId, detail: String) {
        self.inner.journal_fault(node, detail);
    }

    fn crash_node(&self, node: NodeId) {
        Sim::crash_node(self, node);
    }

    fn restart_node(&self, node: NodeId) {
        Sim::restart_node(self, node);
    }

    fn set_partitioned(&self, a: NodeId, b: NodeId, on: bool) {
        Sim::set_partitioned(self, a, b, on);
    }

    fn set_impairment(&self, a: NodeId, b: NodeId, imp: LinkImpairment) {
        Sim::set_impairment(self, a, b, imp);
    }

    fn clear_impairment(&self, a: NodeId, b: NodeId) {
        Sim::clear_impairment(self, a, b);
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

    /// Opens an endpoint owned by the calling process's group if that
    /// process lives on this node, and by no group otherwise.
    fn open_sim(&self, port: PortReq) -> Result<Arc<SimEndpoint>, NetError> {
        crate::kernel::forbid_inline("open an endpoint");
        let (addr, id) = self.inner.kernel.lock().open_port(self.id, port)?;
        Ok(Arc::new(SimEndpoint {
            inner: Arc::clone(&self.inner),
            addr,
            id,
        }))
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
        Ok(self.open_sim(port)?)
    }

    /// The calling process's own reply endpoint on this node, opened at
    /// its first call there; the one it kept on another node drops, and
    /// so closes, here.
    fn reply_endpoint(&self) -> Result<Arc<dyn Endpoint>, NetError> {
        crate::kernel::forbid_inline("wait for a reply");
        let Some(pid) = cur_pid() else {
            return self.open(PortReq::Ephemeral);
        };
        let kernel = &self.inner.kernel;
        if let Some(ep) = kernel.lock().reply_endpoint(pid, self.id) {
            return Ok(ep);
        }
        let ep = self.open_sim(PortReq::Ephemeral)?;
        let old = kernel
            .lock()
            .procs
            .get_mut(pid)
            .and_then(|p| p.reply.replace(Arc::clone(&ep)));
        drop(old);
        Ok(ep)
    }

    fn node(&self) -> NodeId {
        self.id
    }

    fn rand_u64(&self) -> u64 {
        self.inner.rand_for(self.id)
    }

    fn make_sync(&self) -> Arc<dyn crate::sync::SyncObj> {
        Arc::new(SimSyncObj {
            inner: Arc::clone(&self.inner),
            obj: Arc::new(WaitObj::new(self.id.0)),
        })
    }

    fn extensions(&self) -> Arc<crate::rt::Extensions> {
        self.inner.node_extensions(self.id)
    }
}

/// A simulation-backed wait/notify object: a handle on its record, which
/// goes with the last handle.
struct SimSyncObj {
    inner: Arc<SimInner>,
    obj: Arc<WaitObj>,
}

impl crate::sync::SyncObj for SimSyncObj {
    fn generation(&self) -> u64 {
        self.obj.generation()
    }

    fn wait_newer(&self, seen: u64, timeout: Option<Duration>) -> u64 {
        self.inner.wait_newer(&self.obj, seen, timeout)
    }

    fn bump(&self) {
        self.inner.bump(&self.obj);
    }
}

/// Handle on a simulated process group.
struct SimProcGroup {
    inner: Arc<SimInner>,
    gid: u64,
    node: NodeId,
}

impl crate::rt::ProcGroup for SimProcGroup {
    /// Read from the home node's table.
    fn alive(&self) -> bool {
        self.inner.kernel.lock().ports.alive(self.gid)
    }

    fn kill(&self) {
        let was_alive = self.alive();
        self.inner.kill_group(self.gid, self.node);
        // Black box: journal the kill and dump the victim node's tail
        // (the journal lives in the node's extension map, outside the
        // kernel lock).
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

/// A simulated message endpoint. It closes when its last handle drops.
pub struct SimEndpoint {
    inner: Arc<SimInner>,
    pub(crate) addr: Addr,
    /// Which open of `addr` this handle is (`Port::id`).
    pub(crate) id: u64,
}

impl Endpoint for SimEndpoint {
    fn send(&self, to: Addr, msg: Bytes) -> Result<(), NetError> {
        let mut k = self.inner.kernel.lock();
        let up = k.node(self.addr.node).map(|n| n.up).unwrap_or(false);
        if !up {
            return Err(NetError::NodeDown);
        }
        k.net_send(self.addr, to, msg);
        Ok(())
    }

    fn recv(&self, timeout: Option<Duration>) -> Result<(Addr, Bytes), RecvError> {
        self.inner.ep_recv(self.addr, self.id, timeout)
    }

    fn local(&self) -> Addr {
        self.addr
    }

    fn close(&self) {
        let mut k = self.inner.kernel.lock();
        let closed = k.ports.close(&self.addr, self.id);
        k.release(closed);
        unlock(k);
    }

    /// Serves the port's open (`PortTable::serve`): the kernel runs each
    /// landing's handler at its delivery — inline, or as a process (the
    /// kernel's "Serving a port"). Of what queued before, what does not
    /// run inline is spawned now; the rest runs here.
    fn serve(&self, task_name: &str, handler: LandingHandler, inline: InlineTest) {
        let mut k = self.inner.kernel.lock();
        let serving = Arc::clone(&handler);
        let here = match k.ports.serve(&self.addr, self.id, task_name, serving, inline) {
            Some((served, rx)) => {
                let queued = std::mem::take(&mut rx.queue);
                served.split(queued, |landing| k.spawn_handler(self.addr, &served, landing))
            }
            None => Vec::new(),
        };
        unlock(k);
        for landing in here {
            handler(landing);
        }
    }
}

impl Drop for SimEndpoint {
    fn drop(&mut self) {
        self.close();
    }
}

/// An in-simulation channel for coordinating processes (not part of the
/// modelled network; carries no latency and sends no messages): a
/// [`Queue`](crate::sync::Queue) on the simulation's clock.
///
/// Useful for workload generators and test harnesses that need to hand
/// results between simulated processes. The channel's wait object is
/// homed on the creating process's node, so a send from a process on
/// another node wakes a blocked receiver one control delay later
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
            obj: Arc::new(WaitObj::new(inner.cur_node_key())),
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
