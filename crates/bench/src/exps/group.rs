//! The replica-group kill-storm harness E20–E23 share: three replicas of
//! one replicated service plus a client node in the simulator, and the
//! question the paper asks of every service (§9.7) — kill the master
//! under load, over and over; how long is the failure visible, and does
//! the table come back exact?
//!
//! An experiment supplies what is its own: how a member starts
//! ([`Member`]), the op it submits ([`SimGroup::submit`]'s attempt), the
//! sensor and probes of one round ([`SimGroup::storm`]'s closure) and
//! the table it audits ([`SimGroup::audit`]'s reader). Everything else
//! — build, `masters`/`settled`, stepping virtual time, the client-side
//! retry over peers, settle → dwell → kill → sensor → heal, the
//! want-vs-have audit, the leg row and its artifact fields — is here.

use std::sync::Arc;
use std::time::Duration;

use ocs_sim::{Addr, FaultAction, Nemesis, NodeRt, NodeRtExt, Rt, Sim, SimNode, SimTime};
use ocs_vsr::{ReplicaConfig, ReplicaStatus};
use parking_lot::Mutex;

use crate::json::Json;
use crate::{f, percentile, report, Stats, Table};

/// What a replicated service brings to the harness.
pub(crate) trait Member: Send + Sync + Sized + 'static {
    /// Node-name prefix: the members run on `<NAME>0`..`<NAME>2`.
    const NAME: &'static str;
    /// The group's request port.
    const PORT: u16;
    /// Starts (or, after a heal, restarts) the member on `rt`.
    fn start(rt: Rt, cfg: ReplicaConfig) -> Arc<Self>;
    /// The state of the member's `Replica`, once it runs.
    fn engine(&self) -> Option<ReplicaStatus>;
}

/// One leg of a fail-over experiment: the group's timeouts, and how long
/// a settled group runs healthy before each kill (so the kill lands
/// mid-load, not at the instant recovery finished).
pub(crate) struct Leg {
    pub(crate) label: &'static str,
    pub(crate) tuning: fn(u32, Vec<Addr>) -> ReplicaConfig,
    pub(crate) dwell: Duration,
}

/// Paper-scale timeouts (2 s heartbeat, 5 s election): the
/// apples-to-apples leg against the paper's 25 s bound.
pub(crate) const PAPER: Leg = Leg {
    label: "paper timeouts",
    tuning: ReplicaConfig::paper_defaults,
    dwell: Duration::from_secs(4),
};

/// The real-cluster deployment tuning (see `RealCluster`): the
/// sub-second claim.
pub(crate) const TUNED: Leg = Leg {
    label: "deployed tuning",
    tuning: tuned,
    dwell: Duration::from_secs(1),
};

pub(crate) fn tuned(i: u32, peers: Vec<Addr>) -> ReplicaConfig {
    ReplicaConfig {
        heartbeat_interval: Duration::from_millis(200),
        election_timeout: Duration::from_millis(600),
        peer_timeout: Duration::from_millis(150),
        ..ReplicaConfig::paper_defaults(i, peers)
    }
}

/// Default granularity of the driver's view of virtual time.
pub(crate) const STEP: Duration = Duration::from_millis(20);

/// A crashed master: its member index and the crash time.
pub(crate) struct Kill {
    pub(crate) victim: usize,
    pub(crate) at: SimTime,
}

/// A 3-replica group in the simulator plus a client node. A member's
/// slot is `None` exactly while its node is down.
pub(crate) struct SimGroup<R: Member> {
    pub(crate) sim: Sim,
    pub(crate) nodes: Vec<Arc<SimNode>>,
    pub(crate) members: Mutex<Vec<Option<Arc<R>>>>,
    pub(crate) peers: Vec<Addr>,
    pub(crate) client: Arc<SimNode>,
    leg: &'static Leg,
    /// Granularity of [`SimGroup::run_until`], and so of every outage
    /// window the driver observes.
    pub(crate) step: Duration,
    /// Client-side RPC timeout: a sweep must not stall on the dead
    /// primary longer than the group needs to elect a successor.
    pub(crate) client_timeout: Duration,
}

impl<R: Member> SimGroup<R> {
    pub(crate) fn build(seed: u64, leg: &'static Leg) -> SimGroup<R> {
        let sim = Sim::new(seed);
        let nodes: Vec<Arc<SimNode>> = (0..3)
            .map(|i| sim.add_node(&format!("{}{i}", R::NAME)))
            .collect();
        let peers: Vec<Addr> = nodes.iter().map(|n| Addr::new(n.node(), R::PORT)).collect();
        let client = sim.add_node("load");
        let group = SimGroup {
            client_timeout: (leg.tuning)(0, peers.clone()).peer_timeout * 3,
            members: Mutex::new(vec![None; 3]),
            step: STEP,
            sim,
            nodes,
            peers,
            client,
            leg,
        };
        for i in 0..3 {
            group.start(i);
        }
        group
    }

    /// Builds the group for `leg`, runs `storm` on it and books the
    /// virtual time it took.
    pub(crate) fn run_leg<T>(
        seed: u64,
        leg: &'static Leg,
        storm: impl FnOnce(&mut SimGroup<R>) -> T,
    ) -> T {
        let mut group = SimGroup::build(seed, leg);
        let out = storm(&mut group);
        report::add_virtual_secs(group.sim.now().as_secs_f64());
        out
    }

    fn start(&self, i: usize) {
        let cfg = (self.leg.tuning)(i as u32, self.peers.clone());
        let member = R::start(self.nodes[i].clone(), cfg);
        self.members.lock()[i] = Some(member);
    }

    pub(crate) fn masters(&self) -> Vec<usize> {
        let members = self.members.lock();
        (0..members.len())
            .filter(|&i| {
                members[i]
                    .as_ref()
                    .and_then(|m| m.engine())
                    .is_some_and(|s| s.master)
            })
            .collect()
    }

    /// One master, every live replica out of probation (killing a
    /// replica before then would strand the group below its recovery
    /// quorum — see the real-cluster launch settle).
    pub(crate) fn settled(&self) -> bool {
        self.masters().len() == 1
            && self
                .members
                .lock()
                .iter()
                .flatten()
                .all(|m| m.engine().is_some_and(|s| !s.probation))
    }

    /// Steps virtual time until `cond`, up to `limit`. Returns whether
    /// the condition held.
    pub(crate) fn run_until(&self, limit: Duration, cond: impl FnMut() -> bool) -> bool {
        run_until(&self.sim, self.step, limit, cond)
    }

    pub(crate) fn settle(&self, when: &str) {
        assert!(
            self.run_until(Duration::from_secs(120), || self.settled()),
            "{} group failed to settle {when}",
            R::NAME
        );
    }

    /// Seconds of virtual time since `t0`.
    pub(crate) fn since(&self, t0: SimTime) -> f64 {
        self.sim.now().saturating_since(t0).as_secs_f64()
    }

    /// Runs `f` on the client node and steps virtual time to completion.
    pub(crate) fn on_client<T: Send + 'static>(
        &self,
        f: impl FnOnce(Rt) -> T + Send + 'static,
    ) -> T {
        call_on(&self.sim, &self.client, self.step, f)
    }

    /// One client op, retried over the peers (see [`retry_over_peers`]).
    pub(crate) fn submit<T: Send + 'static>(
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

    /// The kill storm: `rounds` times settle → dwell → crash the master
    /// → `round` (the experiment's sensor, then whatever it probes
    /// through the new master) → restart the victim, so each kill faces
    /// a full group. Crashes and restarts go through the [`Nemesis`], so
    /// the flight recorder journals each injection.
    pub(crate) fn storm<T>(
        &self,
        rounds: usize,
        mut round: impl FnMut(usize, Kill) -> T,
    ) -> Vec<T> {
        let mut outs = Vec::with_capacity(rounds);
        for n in 0..rounds {
            self.settle("between kill rounds");
            self.sim.run_for(self.leg.dwell);
            let victim = self.masters()[0];
            let node = self.nodes[victim].node();
            let at = self.sim.now();
            Nemesis::apply(&self.sim, &FaultAction::CrashNode(node));
            self.members.lock()[victim] = None;
            outs.push(round(n, Kill { victim, at }));
            Nemesis::apply(&self.sim, &FaultAction::RestartNode(node));
            self.start(victim);
        }
        outs
    }

    /// The sensor of a storm that measures the master outage itself:
    /// runs until a replica other than the victim is master.
    pub(crate) fn await_successor(&self, victim: usize) {
        assert!(
            self.run_until(Duration::from_secs(120), || {
                self.masters().first().is_some_and(|m| *m != victim)
            }),
            "no new master after killing the primary"
        );
    }

    /// Post-storm audit: heal fully, then every replica's table (`table`
    /// reads one member's keys and its self-audit verdict) must be
    /// exactly `want`, the client's record of what committed.
    pub(crate) fn audit<K: Ord>(
        &self,
        want: Vec<K>,
        table: impl Fn(&R) -> Option<(Vec<K>, bool)>,
    ) -> Audit {
        self.settle("after the storm");
        self.sim.run_for(Duration::from_secs(5));
        let members = self.members.lock();
        audit(want, members.iter().flatten().filter_map(|m| table(m)))
    }
}

/// Steps `sim` in `step` increments until `cond`, up to `limit`.
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

/// Runs `f` as a process on `node`, stepping `sim` until it returns.
pub(crate) fn call_on<T: Send + 'static>(
    sim: &Sim,
    node: &Arc<SimNode>,
    step: Duration,
    f: impl FnOnce(Rt) -> T + Send + 'static,
) -> T {
    let slot: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
    let out = Arc::clone(&slot);
    let rt: Rt = node.clone();
    node.spawn_fn("call", move || {
        let r = f(rt);
        *out.lock() = Some(r);
    });
    run_until(sim, step, Duration::from_secs(120), || {
        slot.lock().is_some()
    });
    let got = slot.lock().take();
    got.expect("client call did not complete")
}

/// The client retry loop in miniature: the same request — same token —
/// on every attempt, against whichever replica answers (backups
/// forward). `attempt` returns `Some` for a committed answer, a grant or
/// a committed refusal alike, and `None` for transport trouble.
pub(crate) fn retry_over_peers<T>(
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

/// What a post-storm audit found, worst replica counting.
pub(crate) struct Audit {
    /// Committed entries a replica no longer holds.
    pub(crate) lost: u64,
    /// Entries a replica holds that the client never saw commit.
    pub(crate) doubled: u64,
    /// Every table equal to the client's record and self-consistent.
    pub(crate) exact: bool,
}

/// Compares `want` — the client's record of what committed — against
/// each replica's table and self-audit verdict.
pub(crate) fn audit<K: Ord>(
    mut want: Vec<K>,
    tables: impl IntoIterator<Item = (Vec<K>, bool)>,
) -> Audit {
    want.sort();
    let mut a = Audit {
        lost: 0,
        doubled: 0,
        exact: true,
    };
    for (i, (mut have, self_ok)) in tables.into_iter().enumerate() {
        have.sort();
        a.lost = a
            .lost
            .max(want.iter().filter(|k| !have.contains(k)).count() as u64);
        a.doubled = a
            .doubled
            .max(have.iter().filter(|k| !want.contains(k)).count() as u64);
        if have != want || !self_ok {
            a.exact = false;
            println!(
                "    AUDIT FAIL replica {i}: {} entries vs {} expected (self-audit {self_ok})",
                have.len(),
                want.len()
            );
        }
    }
    a
}

/// One leg's table row — `leg, rounds, p50, p99, extra…` — and its
/// `<key>_p50_s` / `<key>_p99_s` artifact fields.
pub(crate) fn report_leg(t: &mut Table, leg: String, key: &str, samples: &[f64], extra: &[String]) {
    let s = Stats::of(samples);
    let p99 = percentile(samples, 0.99);
    let mut row = vec![leg, s.n.to_string(), f(s.p50, 2), f(p99, 2)];
    row.extend_from_slice(extra);
    t.row(&row);
    report::put(&format!("{key}_p50_s"), Json::F64(s.p50));
    report::put(&format!("{key}_p99_s"), Json::F64(p99));
}
