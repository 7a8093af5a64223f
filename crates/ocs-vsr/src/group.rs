//! One replica group on either runtime, and the question the paper asks
//! of every replicated service (§9.7): kill the master under load, over
//! and over — how long is the failure visible, and does the table come
//! back exact?
//!
//! A caller brings what is its own ([`Spec`]): how a member starts on
//! `(Rt, ReplicaConfig)`, its port and node-name prefix, and how to read
//! its [`ReplicaStatus`]. The ops it submits, the sensor and probes of a
//! storm round and the table it audits are closures it hands to
//! [`Group::submit`], [`Group::storm`] and [`Group::audit`]. Everything
//! else is here: build, `masters`/`settled`, waiting, the client-side
//! retry over peers, crash and restart, partitions, and settle → dwell →
//! kill → sensor → restart.
//!
//! The runtime is picked by the constructor, and the two differ only in
//! how time passes and what a crash is:
//!
//! * [`Group::sim`] / [`Group::on_sim`]: virtual time, stepped by the
//!   driver. A member starts from the driver; a crash kills every
//!   process on the node, which comes back bare, so a restart starts the
//!   member afresh.
//! * [`Group::tcp`] / [`Group::on_tcp`]: OS threads and loopback TCP on
//!   the wall clock. Each member runs in a process group of its own, so
//!   a crash is a real kill — its tasks unwind, its sockets close — and
//!   a restart starts it in a fresh group that waits for the old one to
//!   die and retries while the port is still held.
//!
//! Either way a fault is a [`FaultAction`] applied to the runtime's
//! [`FaultRt`], which journals it on the nodes it hits.

use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use ocs_sim::real::{eventually, RealNet, RealNode};
use ocs_sim::{
    Addr, FaultAction, FaultRt, NetError, NodeId, NodeRtExt, ProcGroup, Rt, Sim, SimNode, SimTime,
};
use parking_lot::Mutex;

use crate::{ReplicaConfig, ReplicaStatus};

/// Default granularity of the driver's view of virtual time.
pub const STEP: Duration = Duration::from_millis(20);

/// How long a build, a settle or a client call may take.
const LIMIT: Duration = Duration::from_secs(120);

/// How a member starts on its node, at build and after every restart.
pub type Start<R> = Arc<dyn Fn(Rt, ReplicaConfig) -> Result<Arc<R>, NetError> + Send + Sync>;

/// What a replicated service brings to a group.
pub struct Spec<R> {
    /// Node-name prefix: the nodes [`Group::sim`] and [`Group::tcp`] make
    /// are `<name>0`, `<name>1`, …; on TCP member `i` runs in process
    /// group `<name>-<i>`.
    pub name: &'static str,
    /// The group's request port.
    pub port: u16,
    /// Each member's replication parameters, by replica id and peers.
    pub tuning: fn(u32, Vec<Addr>) -> ReplicaConfig,
    /// Starts a member.
    pub start: Start<R>,
    /// The state of the member's `Replica`, once it runs.
    pub status: fn(&R) -> Option<ReplicaStatus>,
}

/// A crashed master: its member index and the crash time.
pub struct Kill {
    /// The member killed.
    pub victim: usize,
    /// When, on the group's clock.
    pub at: SimTime,
}

enum Runtime {
    Sim(Sim),
    /// `hosts` are torn down with the group; `procs` holds each member's
    /// process group.
    Tcp {
        hosts: Vec<Arc<RealNode>>,
        procs: Mutex<Vec<Option<Arc<dyn ProcGroup>>>>,
    },
}

/// A replica group plus a client node to drive it from.
pub struct Group<R> {
    runtime: Runtime,
    /// What [`Group::fault`] acts on: the simulator or the TCP network.
    faults: Arc<dyn FaultRt + Send + Sync>,
    spec: Spec<R>,
    /// Each member's handle; `None` exactly while it is down.
    members: Arc<Mutex<Vec<Option<Arc<R>>>>>,
    nodes: Vec<Rt>,
    peers: Vec<Addr>,
    client: Rt,
    /// How far [`Group::run_until`] steps virtual time between looks, and
    /// so the granularity of every outage window the driver observes.
    pub step: Duration,
    /// Client-side RPC timeout: a sweep must not stall on the dead
    /// primary longer than the group needs to elect a successor.
    client_timeout: Duration,
}

impl<R: Send + Sync + 'static> Group<R> {
    /// Three members and a client node (`load`) in a fresh simulator.
    pub fn sim(seed: u64, spec: Spec<R>) -> Group<R> {
        let sim = Sim::new(seed);
        let hosts = (0..3)
            .map(|i| sim.add_node(&format!("{}{i}", spec.name)))
            .collect();
        let client = sim.add_node("load");
        Group::on_sim(sim, hosts, client, spec)
    }

    /// One member on each of `hosts` in `sim`, driven from `client`
    /// (which may be one of them). The members start before this
    /// returns, without virtual time passing.
    pub fn on_sim(
        sim: Sim,
        hosts: Vec<Arc<SimNode>>,
        client: Arc<SimNode>,
        spec: Spec<R>,
    ) -> Group<R> {
        let nodes = hosts.into_iter().map(|h| h as Rt).collect();
        let faults = Arc::new(sim.clone());
        Group::build(Runtime::Sim(sim), faults, nodes, client, spec)
    }

    /// Three members and a client node (`load`) on a fresh loopback
    /// network.
    pub fn tcp(spec: Spec<R>) -> Group<R> {
        let net = RealNet::new();
        let host = |name: &str| net.add_node(name).expect("bind loopback");
        let hosts = (0..3).map(|i| host(&format!("{}{i}", spec.name))).collect();
        Group::on_tcp(hosts, host("load"), spec)
    }

    /// One member on each of `hosts`, driven from `client` (which may be
    /// one of them). Dropping the group stops them all.
    pub fn on_tcp(hosts: Vec<Arc<RealNode>>, client: Arc<RealNode>, spec: Spec<R>) -> Group<R> {
        let nodes = hosts.iter().map(|h| h.clone() as Rt).collect();
        let procs = Mutex::new(vec![None; hosts.len()]);
        let mut hosts = hosts;
        hosts.push(Arc::clone(&client));
        let faults = Arc::clone(client.net());
        Group::build(Runtime::Tcp { hosts, procs }, faults, nodes, client, spec)
    }

    fn build(
        runtime: Runtime,
        faults: Arc<dyn FaultRt + Send + Sync>,
        nodes: Vec<Rt>,
        client: Rt,
        spec: Spec<R>,
    ) -> Group<R> {
        let peers: Vec<Addr> = nodes
            .iter()
            .map(|n| Addr::new(n.node(), spec.port))
            .collect();
        let group = Group {
            client_timeout: (spec.tuning)(0, peers.clone()).peer_timeout * 3,
            members: Arc::new(Mutex::new(vec![None; nodes.len()])),
            step: STEP,
            runtime,
            faults,
            spec,
            nodes,
            peers,
            client,
        };
        let n = group.nodes.len();
        for i in 0..n {
            group.start(i);
        }
        group.await_up(0..n);
        group
    }

    /// Starts member `i`: at once in the simulator, on TCP in the
    /// background (see [`Group::await_up`]).
    fn start(&self, i: usize) {
        let cfg = (self.spec.tuning)(i as u32, self.peers.clone());
        let Runtime::Tcp { procs, .. } = &self.runtime else {
            let member = (self.spec.start)(self.nodes[i].clone(), cfg).expect("replica starts");
            self.members.lock()[i] = Some(member);
            return;
        };
        let old = procs.lock()[i].take();
        let (rt, start, slots) = (
            self.nodes[i].clone(),
            Arc::clone(&self.spec.start),
            Arc::clone(&self.members),
        );
        let proc = self.nodes[i].clone().spawn_group(
            &format!("{}-{i}", self.spec.name),
            Box::new(move || {
                let pause = Duration::from_millis(100);
                while old.as_ref().is_some_and(|g| g.alive()) {
                    rt.sleep(pause);
                }
                loop {
                    if let Ok(member) = start(rt.clone(), cfg.clone()) {
                        slots.lock()[i] = Some(member);
                        return;
                    }
                    rt.sleep(pause);
                }
            }),
        );
        procs.lock()[i] = Some(proc);
    }

    /// Waits until members `ids` have published their handles.
    fn await_up(&self, ids: Range<usize>) {
        let up = || ids.clone().all(|i| self.member(i).is_some());
        assert!(
            self.run_until(LIMIT, up),
            "{} members {ids:?} never started",
            self.spec.name
        );
    }

    // ---- members -------------------------------------------------------

    /// The members' nodes, by replica id.
    pub fn nodes(&self) -> &[Rt] {
        &self.nodes
    }

    /// The members' request endpoints, by replica id.
    pub fn peers(&self) -> &[Addr] {
        &self.peers
    }

    /// The node client calls and probes run on.
    pub fn client(&self) -> &Rt {
        &self.client
    }

    /// Member `i`'s handle, unless it is down.
    pub fn member(&self, i: usize) -> Option<Arc<R>> {
        self.members.lock()[i].clone()
    }

    /// The members that are up.
    pub fn live(&self) -> Vec<Arc<R>> {
        self.members.lock().iter().flatten().cloned().collect()
    }

    /// The node member `i` runs on.
    pub fn node(&self, i: usize) -> NodeId {
        self.nodes[i].node()
    }

    /// Whether member `i`'s node (in the simulator) or process group (on
    /// TCP) is running.
    pub fn running(&self, i: usize) -> bool {
        match &self.runtime {
            Runtime::Sim(sim) => sim.node_up(self.node(i)),
            Runtime::Tcp { procs, .. } => procs.lock()[i].as_ref().is_some_and(|g| g.alive()),
        }
    }

    /// The members that believe they are master.
    pub fn masters(&self) -> Vec<usize> {
        let members = self.members.lock();
        (0..members.len())
            .filter(|&i| {
                members[i]
                    .as_ref()
                    .and_then(|m| (self.spec.status)(m))
                    .is_some_and(|s| s.master)
            })
            .collect()
    }

    /// One master, every live replica out of probation (killing a
    /// replica before then would strand the group below its recovery
    /// quorum).
    pub fn settled(&self) -> bool {
        let out_of_probation = |m: &Arc<R>| (self.spec.status)(m).is_some_and(|s| !s.probation);
        self.masters().len() == 1 && self.live().iter().all(out_of_probation)
    }

    /// Each member's engine state, for failure messages.
    pub fn statuses(&self) -> Vec<String> {
        self.members
            .lock()
            .iter()
            .map(|m| match m.as_ref().map(|m| (self.spec.status)(m)) {
                Some(Some(s)) => s.to_string(),
                Some(None) => "starting".into(),
                None => "down".into(),
            })
            .collect()
    }

    /// Waits until [`Group::settled`].
    pub fn settle(&self, when: &str) {
        assert!(
            self.run_until(LIMIT, || self.settled()),
            "{} group failed to settle {when}: {:?}",
            self.spec.name,
            self.statuses()
        );
    }

    // ---- time ----------------------------------------------------------

    /// The group's clock: virtual time, or wall time since the network
    /// came up.
    pub fn now(&self) -> SimTime {
        match &self.runtime {
            Runtime::Sim(sim) => sim.now(),
            Runtime::Tcp { .. } => self.client.now(),
        }
    }

    /// Seconds on the group's clock since `t0`.
    pub fn since(&self, t0: SimTime) -> f64 {
        self.now().saturating_since(t0).as_secs_f64()
    }

    /// Lets `d` pass.
    pub fn run_for(&self, d: Duration) {
        match &self.runtime {
            Runtime::Sim(sim) => sim.run_for(d),
            Runtime::Tcp { .. } => std::thread::sleep(d),
        }
    }

    /// Waits until `cond`, up to `limit`: in virtual time by
    /// [`Group::step`]s, on the wall clock by [`eventually`]'s poll.
    /// Returns whether the condition held.
    pub fn run_until(&self, limit: Duration, cond: impl FnMut() -> bool) -> bool {
        match &self.runtime {
            Runtime::Sim(sim) => run_until(sim, self.step, limit, cond),
            Runtime::Tcp { .. } => eventually(limit, cond),
        }
    }

    // ---- clients -------------------------------------------------------

    /// Runs `f` on `rt`'s node and returns what it returned: as a
    /// simulated process while virtual time steps, or on TCP on the
    /// calling thread.
    pub fn on<T: Send + 'static>(&self, rt: &Rt, f: impl FnOnce(Rt) -> T + Send + 'static) -> T {
        match &self.runtime {
            Runtime::Sim(sim) => call_on(sim, rt, self.step, f),
            Runtime::Tcp { .. } => f(rt.clone()),
        }
    }

    /// Runs `f` on the client node (see [`Group::on`]).
    pub fn on_client<T: Send + 'static>(&self, f: impl FnOnce(Rt) -> T + Send + 'static) -> T {
        self.on(&self.client, f)
    }

    /// One client op from the client node, retried over the peers (see
    /// [`retry_over_peers`]); `attempt` gets the client timeout.
    pub fn submit<T: Send + 'static>(
        &self,
        attempt: impl Fn(&Rt, Addr, Duration) -> Option<T> + Send + 'static,
    ) -> T {
        let peers = self.peers.clone();
        let timeout = self.client_timeout;
        self.on_client(move |rt| {
            retry_over_peers(&rt, &peers, timeout / 4, |rt, peer| {
                attempt(rt, peer, timeout)
            })
        })
    }

    // ---- faults --------------------------------------------------------

    /// Applies `action` to the group's runtime, journalled on the nodes
    /// it hits.
    pub fn fault(&self, action: FaultAction) {
        action.apply(&*self.faults);
    }

    /// Crashes member `i`'s node.
    pub fn kill(&self, i: usize) {
        self.fault(FaultAction::CrashNode(self.node(i)));
        self.members.lock()[i] = None;
    }

    /// Brings member `i`'s node back and starts the member on it, with
    /// an empty log: it walks recovery probation back into the group.
    pub fn restart(&self, i: usize) {
        self.fault(FaultAction::RestartNode(self.node(i)));
        self.start(i);
        self.await_up(i..i + 1);
    }

    /// The kill storm: `rounds` times settle → `dwell` → crash the
    /// master → `round` (the caller's sensor, then whatever it probes
    /// through the new master) → restart the victim, so each kill faces
    /// a full group.
    pub fn storm<T>(
        &self,
        rounds: usize,
        dwell: Duration,
        mut round: impl FnMut(usize, Kill) -> T,
    ) -> Vec<T> {
        let mut outs = Vec::with_capacity(rounds);
        for n in 0..rounds {
            self.settle("between kill rounds");
            self.run_for(dwell);
            let victim = self.masters()[0];
            let at = self.now();
            self.kill(victim);
            outs.push(round(n, Kill { victim, at }));
            self.restart(victim);
        }
        outs
    }

    /// The sensor of a storm that measures the master outage itself:
    /// waits until a replica other than the victim is master.
    pub fn await_successor(&self, victim: usize) {
        assert!(
            self.run_until(LIMIT, || {
                self.masters().first().is_some_and(|m| *m != victim)
            }),
            "no new {} master after killing the primary: {:?}",
            self.spec.name,
            self.statuses()
        );
    }

    /// Post-storm audit: heals fully, then reads every member's table
    /// (`read` returns one member's entries and its self-audit verdict),
    /// for the caller to hold against its record of what committed.
    pub fn audit<T>(&self, read: impl Fn(&R) -> Option<T>) -> Vec<T> {
        self.settle("after the storm");
        self.run_for(Duration::from_secs(5));
        self.live().iter().filter_map(|m| read(m)).collect()
    }
}

/// A TCP group takes its hosts' processes and sockets with it.
impl<R> Drop for Group<R> {
    fn drop(&mut self) {
        if let Runtime::Tcp { hosts, .. } = &self.runtime {
            for host in hosts {
                host.kill_all_groups();
                host.stop();
            }
        }
    }
}

/// The virtual-time wait: steps `sim` by `step` until `cond`, up to
/// `limit`.
fn run_until(sim: &Sim, step: Duration, limit: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = sim.now() + limit;
    while sim.now() < deadline {
        if cond() {
            return true;
        }
        sim.run_for(step);
    }
    cond()
}

/// Runs `f` as a process on `rt`'s node of `sim`, stepping virtual time
/// by `step` until it returns.
pub fn call_on<T: Send + 'static>(
    sim: &Sim,
    rt: &Rt,
    step: Duration,
    f: impl FnOnce(Rt) -> T + Send + 'static,
) -> T {
    let slot: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
    let out = Arc::clone(&slot);
    let node = rt.clone();
    rt.spawn_fn("call", move || {
        let r = f(node);
        *out.lock() = Some(r);
    });
    run_until(sim, step, LIMIT, || slot.lock().is_some());
    let got = slot.lock().take();
    got.expect("client call did not complete")
}

/// The client retry loop in miniature: the same request — same token —
/// on every attempt, against whichever replica answers (backups
/// forward). `attempt` returns `Some` for a committed answer, a grant or
/// a committed refusal alike, and `None` for transport trouble.
pub fn retry_over_peers<T>(
    rt: &Rt,
    peers: &[Addr],
    backoff: Duration,
    attempt: impl Fn(&Rt, Addr) -> Option<T>,
) -> T {
    for _ in 0..600 {
        if let Some(answer) = peers.iter().find_map(|&peer| attempt(rt, peer)) {
            return answer;
        }
        rt.sleep(backoff);
    }
    panic!("no replica answered the op in 600 sweeps");
}
