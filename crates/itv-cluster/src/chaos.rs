//! Chaos campaigns over a full cluster: drives a seeded [`FaultPlan`]
//! against the assembled system, mirroring an operator's "init" step for
//! any server the plan reboots (restarting its SSC, §6.3 step 1), so the
//! software stack actually recovers rather than just the bare node.
//!
//! The runner is [`FaultPlan::run`] with the test driver advancing the
//! simulation instead of a nemesis process: a `RestartNode` needs
//! `&Cluster` to re-run init, and the driver is the only place that has
//! it. Because every step is `run_until` on the deterministic kernel, a
//! chaos run is exactly as reproducible as a fault-free one — identical
//! seed and plan yield an identical
//! [`Sim::trace_hash`](ocs_sim::Sim::trace_hash).

use std::collections::BTreeSet;

use ocs_sim::{FaultAction, FaultPlan, FaultPlanSpec, NodeId, NodeRt, SimTime};

use crate::build::Cluster;

/// What a completed fault campaign did.
#[derive(Clone, Copy, Debug)]
pub struct ChaosOutcome {
    /// Fault actions applied (faults and recoveries).
    pub applied: usize,
    /// Virtual time of the last action — the heal point; everything the
    /// plan broke has been recovered (at the hardware level) by now.
    pub healed_at: SimTime,
}

impl Cluster {
    /// Runs `plan` to completion: advances the simulation to each
    /// action's time, applies it, and — like an operator rebooting a
    /// machine — restarts the SSC of any server the plan brings back up.
    /// The workload keeps running between actions.
    pub fn run_fault_plan(&self, plan: &FaultPlan) -> ChaosOutcome {
        self.drive_fault_plan(plan, |t| self.sim.run_until(t))
    }

    /// [`run_fault_plan`](Cluster::run_fault_plan) with `advance` moving
    /// the simulation to each action's time.
    pub(crate) fn drive_fault_plan(
        &self,
        plan: &FaultPlan,
        mut advance: impl FnMut(SimTime),
    ) -> ChaosOutcome {
        let began = self.sim.now();
        // Randomized plans may overlap two crash/recovery pairs on one
        // node; init runs once, on the first restart after a crash.
        let mut downed: BTreeSet<NodeId> = BTreeSet::new();
        let wait = |t: SimTime| {
            if t > self.sim.now() {
                advance(t);
            }
        };
        plan.run(&self.sim, wait, |ev| match ev.action {
            FaultAction::CrashNode(n) => {
                downed.insert(n);
            }
            FaultAction::RestartNode(n) if downed.remove(&n) => {
                if let Some(i) = self.servers.iter().position(|s| s.node.node() == n) {
                    self.start_ssc(i);
                }
            }
            _ => {}
        });
        ChaosOutcome {
            applied: plan.len(),
            healed_at: began.max(plan.horizon()),
        }
    }

    /// A randomized-campaign spec over this cluster's topology between
    /// `start` and `heal_by`: crashes target the non-bootstrap servers
    /// (server 0 holds the single-placement boot/db services, whose loss
    /// is a distinct scenario), partitions and impairments target the
    /// server↔server links.
    pub fn chaos_spec(&self, start: SimTime, heal_by: SimTime) -> FaultPlanSpec {
        let crash_targets: Vec<NodeId> = self
            .servers
            .iter()
            .skip(1)
            .map(|s| s.node.node())
            .collect();
        let mut link_targets = Vec::new();
        for (i, a) in self.servers.iter().enumerate() {
            for b in self.servers.iter().skip(i + 1) {
                link_targets.push((a.node.node(), b.node.node()));
            }
        }
        let mut spec = FaultPlanSpec::new(crash_targets, link_targets);
        spec.start = start;
        spec.heal_by = heal_by;
        spec
    }
}
