//! Seeded fault-injection campaigns.
//!
//! A [`FaultPlan`] is a schedule of fault actions — node crashes and
//! restarts, link partitions and heals, and link impairments (loss,
//! duplication, reordering, latency spikes) — pinned to virtual times.
//! Plans are either written by hand or generated from a seed with
//! [`FaultPlan::random`], in which case every injected fault is paired
//! with a recovery action before the plan's horizon, so a run that
//! executes the whole plan always ends with the network healed.
//!
//! Every fault, on either runtime, goes through [`FaultAction::apply`]:
//! it journals the action under `fault` on every node it hits, then acts
//! on the [`FaultRt`] — the simulator or a TCP network. Every plan runs
//! through [`FaultPlan::run`], whoever waits between its actions: a
//! simulated process that sleeps ([`Nemesis`]), a driver that steps
//! virtual time, or a thread on the wall clock. Because the nemesis is
//! scheduled by the same deterministic kernel as the workload, a
//! simulated run under a plan is exactly as reproducible as a fault-free
//! run — `Sim::trace_hash` over two runs with identical seeds and plans
//! yields identical digests.

use std::time::Duration;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::kernel::LinkImpairment;
use crate::rt::NodeId;
use crate::sim::Sim;
use crate::time::SimTime;

/// One fault (or recovery) action.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultAction {
    /// Kill every process on the node and close its endpoints.
    CrashNode(NodeId),
    /// Bring a crashed node back up (bare; re-initialising software on
    /// it is the campaign driver's job, like an operator rebooting init).
    RestartNode(NodeId),
    /// Partition the symmetric link between two nodes.
    Partition(NodeId, NodeId),
    /// Heal the partition between two nodes.
    Heal(NodeId, NodeId),
    /// Install a link impairment between two nodes.
    Impair(NodeId, NodeId, LinkImpairment),
    /// Remove any impairment between two nodes.
    ClearImpair(NodeId, NodeId),
}

impl FaultAction {
    /// The fault class the availability auditor buckets recovery times
    /// by. Recovery actions share their fault's class (a heal belongs to
    /// the partition it ends).
    pub fn class(&self) -> &'static str {
        match self {
            FaultAction::CrashNode(_) | FaultAction::RestartNode(_) => "crash",
            FaultAction::Partition(..) | FaultAction::Heal(..) => "partition",
            FaultAction::Impair(..) | FaultAction::ClearImpair(..) => "impair",
        }
    }

    /// Whether this action injects a fault (vs recovering from one).
    pub fn is_injection(&self) -> bool {
        matches!(
            self,
            FaultAction::CrashNode(_) | FaultAction::Partition(..) | FaultAction::Impair(..)
        )
    }

    /// One-line description for journals and timelines.
    pub fn describe(&self) -> String {
        match *self {
            FaultAction::CrashNode(n) => format!("crash {n}"),
            FaultAction::RestartNode(n) => format!("restart {n}"),
            FaultAction::Partition(a, b) => format!("partition {a}-{b}"),
            FaultAction::Heal(a, b) => format!("heal {a}-{b}"),
            FaultAction::Impair(a, b, _) => format!("impair {a}-{b}"),
            FaultAction::ClearImpair(a, b) => format!("clear impair {a}-{b}"),
        }
    }

    /// The nodes whose flight recorders should log this action.
    fn journal_targets(&self) -> Vec<NodeId> {
        match *self {
            FaultAction::CrashNode(n) | FaultAction::RestartNode(n) => vec![n],
            FaultAction::Partition(a, b)
            | FaultAction::Heal(a, b)
            | FaultAction::Impair(a, b, _)
            | FaultAction::ClearImpair(a, b) => vec![a, b],
        }
    }

    /// Applies the action on `rt`: journals it under `fault` on every
    /// node it hits, *before* acting, so the record lands in the victim's
    /// black box ahead of the fault itself, then acts. The one place a
    /// fault becomes runtime calls. A journal write is trace-invisible:
    /// the simulator's event-trace hash is the same with or without it.
    pub fn apply(&self, rt: &dyn FaultRt) {
        for n in self.journal_targets() {
            rt.journal_fault(n, self.describe());
        }
        match *self {
            FaultAction::CrashNode(n) => rt.crash_node(n),
            FaultAction::RestartNode(n) => rt.restart_node(n),
            FaultAction::Partition(a, b) => rt.set_partitioned(a, b, true),
            FaultAction::Heal(a, b) => rt.set_partitioned(a, b, false),
            FaultAction::Impair(a, b, imp) => rt.set_impairment(a, b, imp),
            FaultAction::ClearImpair(a, b) => rt.clear_impairment(a, b),
        }
    }
}

/// What a [`FaultAction`] acts on: the simulator ([`Sim`]) or a TCP
/// network ([`crate::real::RealNet`]).
pub trait FaultRt {
    /// Appends `detail` to `node`'s journal under `fault`.
    fn journal_fault(&self, node: NodeId, detail: String);
    /// Kills every process on the node and closes its endpoints.
    fn crash_node(&self, node: NodeId);
    /// Brings a crashed node back up, bare.
    fn restart_node(&self, node: NodeId);
    /// Cuts (`true`) or heals the symmetric link between two nodes.
    fn set_partitioned(&self, a: NodeId, b: NodeId, on: bool);
    /// Installs a link impairment between two nodes.
    fn set_impairment(&self, a: NodeId, b: NodeId, imp: LinkImpairment);
    /// Removes any impairment between two nodes.
    fn clear_impairment(&self, a: NodeId, b: NodeId);
}

/// A [`FaultAction`] pinned to a virtual time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    pub at: SimTime,
    pub action: FaultAction,
}

/// A seeded, time-ordered schedule of fault actions.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

/// Knobs for [`FaultPlan::random`].
#[derive(Clone, Debug)]
pub struct FaultPlanSpec {
    /// Nodes eligible for crash/restart faults.
    pub crash_targets: Vec<NodeId>,
    /// Node pairs eligible for partitions and impairments.
    pub link_targets: Vec<(NodeId, NodeId)>,
    /// Earliest fault injection time.
    pub start: SimTime,
    /// All faults are healed by this time (the plan's horizon).
    pub heal_by: SimTime,
    /// Number of fault/recovery pairs to inject.
    pub faults: u32,
    /// Longest a single fault stays active before its recovery.
    pub max_fault_duration: Duration,
    /// Enable node crash faults.
    pub crashes: bool,
    /// Enable partition faults.
    pub partitions: bool,
    /// Enable impairment faults (loss/dup/reorder/latency).
    pub impairments: bool,
}

impl FaultPlanSpec {
    /// A spec over the given targets with everything enabled.
    pub fn new(crash_targets: Vec<NodeId>, link_targets: Vec<(NodeId, NodeId)>) -> FaultPlanSpec {
        FaultPlanSpec {
            crash_targets,
            link_targets,
            start: SimTime::from_secs(1),
            heal_by: SimTime::from_secs(60),
            faults: 4,
            max_fault_duration: Duration::from_secs(15),
            crashes: true,
            partitions: true,
            impairments: true,
        }
    }
}

impl FaultPlan {
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Appends an action at `at` (the plan is re-sorted on execution, so
    /// build order does not matter).
    pub fn at(mut self, at: SimTime, action: FaultAction) -> FaultPlan {
        self.events.push(FaultEvent { at, action });
        self
    }

    /// Crash `node` at `at` and restart it at `until`.
    pub fn crash(self, node: NodeId, at: SimTime, until: SimTime) -> FaultPlan {
        self.at(at, FaultAction::CrashNode(node))
            .at(until, FaultAction::RestartNode(node))
    }

    /// Partition `a — b` at `at` and heal it at `until`.
    pub fn partition(self, a: NodeId, b: NodeId, at: SimTime, until: SimTime) -> FaultPlan {
        self.at(at, FaultAction::Partition(a, b))
            .at(until, FaultAction::Heal(a, b))
    }

    /// Impair `a — b` from `at` until `until`.
    pub fn impair(
        self,
        a: NodeId,
        b: NodeId,
        imp: LinkImpairment,
        at: SimTime,
        until: SimTime,
    ) -> FaultPlan {
        self.at(at, FaultAction::Impair(a, b, imp))
            .at(until, FaultAction::ClearImpair(a, b))
    }

    /// Generates a randomized plan from `seed`. Identical seeds and
    /// specs yield identical plans. Every fault gets a recovery action
    /// strictly before `spec.heal_by`.
    pub fn random(seed: u64, spec: &FaultPlanSpec) -> FaultPlan {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x6e65_6d65_7369_7321);
        let mut plan = FaultPlan::new();
        let start = spec.start.as_micros();
        let horizon = spec.heal_by.as_micros();
        assert!(horizon > start, "heal_by must be after start");
        let mut kinds: Vec<u8> = Vec::new();
        if spec.crashes && !spec.crash_targets.is_empty() {
            kinds.push(0);
        }
        if spec.partitions && !spec.link_targets.is_empty() {
            kinds.push(1);
        }
        if spec.impairments && !spec.link_targets.is_empty() {
            kinds.push(2);
        }
        if kinds.is_empty() {
            return plan;
        }
        for _ in 0..spec.faults {
            let kind = kinds[(rng.next_u64() % kinds.len() as u64) as usize];
            // Leave at least 1ms of healed time before the horizon.
            let latest_start = horizon.saturating_sub(2_000).max(start + 1);
            let t0 = start + rng.next_u64() % (latest_start - start).max(1);
            let max_dur = (spec.max_fault_duration.as_micros() as u64)
                .min(horizon.saturating_sub(t0 + 1_000))
                .max(1);
            let t1 = t0 + 1 + rng.next_u64() % max_dur;
            let (at, until) = (SimTime::from_micros(t0), SimTime::from_micros(t1));
            match kind {
                0 => {
                    let n = spec.crash_targets
                        [(rng.next_u64() % spec.crash_targets.len() as u64) as usize];
                    plan = plan.crash(n, at, until);
                }
                1 => {
                    let (a, b) = spec.link_targets
                        [(rng.next_u64() % spec.link_targets.len() as u64) as usize];
                    plan = plan.partition(a, b, at, until);
                }
                _ => {
                    let (a, b) = spec.link_targets
                        [(rng.next_u64() % spec.link_targets.len() as u64) as usize];
                    let imp = LinkImpairment {
                        loss: (rng.next_u64() % 30) as f64 / 100.0,
                        dup: (rng.next_u64() % 20) as f64 / 100.0,
                        reorder: (rng.next_u64() % 30) as f64 / 100.0,
                        extra_latency: Duration::from_millis(rng.next_u64() % 20),
                    };
                    plan = plan.impair(a, b, imp, at, until);
                }
            }
        }
        plan
    }

    /// The schedule in execution order.
    pub fn sorted_events(&self) -> Vec<FaultEvent> {
        let mut ev = self.events.clone();
        // Stable by insertion order for equal times: recoveries appended
        // after their fault at the same instant still apply second.
        ev.sort_by_key(|e| e.at.as_micros());
        ev
    }

    /// Latest action time in the plan (zero for an empty plan).
    pub fn horizon(&self) -> SimTime {
        self.events
            .iter()
            .map(|e| e.at)
            .max()
            .unwrap_or(SimTime::from_micros(0))
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Runs the plan on `rt`: for each action in time order, `wait`
    /// brings the caller to the action's time (it returns at once for a
    /// time already past), the action is [applied](FaultAction::apply),
    /// and `after` sees it — where a driver re-initialises the software
    /// of a node the plan brought back up.
    pub fn run(
        &self,
        rt: &dyn FaultRt,
        mut wait: impl FnMut(SimTime),
        mut after: impl FnMut(&FaultEvent),
    ) {
        for ev in self.sorted_events() {
            wait(ev.at);
            ev.action.apply(rt);
            after(&ev);
        }
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if every crash/partition/impairment has a matching recovery
    /// action later in the schedule (the invariant `random` maintains).
    pub fn fully_healed(&self) -> bool {
        let mut crashed: Vec<NodeId> = Vec::new();
        let mut cut: Vec<(NodeId, NodeId)> = Vec::new();
        let mut impaired: Vec<(NodeId, NodeId)> = Vec::new();
        for ev in self.sorted_events() {
            match ev.action {
                FaultAction::CrashNode(n) => crashed.push(n),
                FaultAction::RestartNode(n) => crashed.retain(|&x| x != n),
                FaultAction::Partition(a, b) => cut.push((a, b)),
                FaultAction::Heal(a, b) => cut.retain(|&p| p != (a, b) && p != (b, a)),
                FaultAction::Impair(a, b, _) => impaired.push((a, b)),
                FaultAction::ClearImpair(a, b) => {
                    impaired.retain(|&p| p != (a, b) && p != (b, a))
                }
            }
        }
        crashed.is_empty() && cut.is_empty() && impaired.is_empty()
    }
}

/// Executes a [`FaultPlan`] as a simulated process.
pub struct Nemesis;

impl Nemesis {
    /// Spawns the nemesis process: it sleeps to each action's time and
    /// applies it.
    pub fn spawn(sim: &Sim, plan: FaultPlan) {
        let sim = sim.clone();
        sim.clone().spawn_root("nemesis", move || {
            let wait = |at: SimTime| {
                if at > sim.now() {
                    sim.sleep(at - sim.now());
                }
            };
            plan.run(&sim, wait, |_| {});
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<NodeId> {
        (1..=n).map(NodeId).collect()
    }

    #[test]
    fn random_plans_are_deterministic() {
        let spec = FaultPlanSpec::new(nodes(4), vec![(NodeId(1), NodeId(2)), (NodeId(3), NodeId(4))]);
        let a = FaultPlan::random(7, &spec);
        let b = FaultPlan::random(7, &spec);
        assert_eq!(a.sorted_events(), b.sorted_events());
        let c = FaultPlan::random(8, &spec);
        assert_ne!(a.sorted_events(), c.sorted_events());
    }

    #[test]
    fn random_plans_always_heal() {
        let spec = FaultPlanSpec::new(nodes(5), vec![(NodeId(1), NodeId(2))]);
        for seed in 0..50 {
            let plan = FaultPlan::random(seed, &spec);
            assert!(plan.fully_healed(), "seed {seed} left faults active");
            assert!(plan.horizon() < spec.heal_by, "seed {seed} overran horizon");
        }
    }

    #[test]
    fn builder_orders_events() {
        let p = FaultPlan::new()
            .crash(NodeId(2), SimTime::from_secs(5), SimTime::from_secs(9))
            .partition(
                NodeId(1),
                NodeId(2),
                SimTime::from_secs(1),
                SimTime::from_secs(3),
            );
        let ev = p.sorted_events();
        assert_eq!(ev.len(), 4);
        assert_eq!(ev[0].action, FaultAction::Partition(NodeId(1), NodeId(2)));
        assert!(p.fully_healed());
    }
}
