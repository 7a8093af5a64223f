//! The replicated service controller: the placement/config table on the
//! same Viewstamped Replication engine the name service and the
//! Connection Manager use, instead of the §6.2
//! primary/backup CSC that recovers by regeneration.
//!
//! Three replicas run [`SscTable`] behind an [`ocs_vsr::VsrCore`]. Every
//! placement decision — define, place, unplace, down report, retire —
//! becomes an [`SscUpdate`] on the replicated log: the view primary
//! stamps it with its clock, sequences it, broadcasts `prepare`, commits
//! at a majority and answers with the viewstamped outcome (the decision
//! epoch). Backups forward decisions to the primary and serve reads from
//! local (possibly marginally stale) state. When the primary dies, a
//! sub-second view change promotes a backup *that already holds the
//! placement table* — services stay placed, and recovery re-hosts the
//! instances that actually died instead of regenerating the whole
//! configuration by querying every SSC.
//!
//! The replication itself — the message loop, view changes, recovery,
//! the peer protocol — is `ocs-vsr`'s [`Replica`] driver, the same one
//! the name service and the Connection Manager run on. This module is
//! what is the controller group's own: the [`Replicated`] hooks of
//! [`SscTable`] (clock stamp, decision feed) and the table's read
//! accessors. The client-facing root servant (the `CscApi`) is supplied
//! by the caller — see [`crate::Csc`] — so the controller logic (SSC
//! side effects, reconcile) stays out of the replication layer.

use std::ops::Deref;
use std::sync::Arc;

use ocs_db::ServicePlacement;
use ocs_orb::Servant;
use ocs_sim::{NetError, NodeId, Rt};
use ocs_telemetry::{Counter, Gauge, Journal, NodeTelemetry};
use ocs_vsr::{Refusal, Replica, Replicated, VsrEvent};

use crate::ssctable::{SscTable, SscUpdate};
use crate::types::SvcError;

/// Configuration of one replicated-controller group member: the
/// replication parameters, nothing more.
pub type SscReplicaConfig = ocs_vsr::ReplicaConfig;

/// The placement table's driver-side companions.
pub struct SscCtx {
    rt: Rt,
    decisions: Arc<Counter>,
    epoch: Arc<Gauge>,
    journal: Arc<Journal>,
}

impl Replicated for SscTable {
    const CHANNEL: &'static str = "ssc-vsr";
    const PEER_INTERFACE: &'static str = "ocs.svc-peer";
    type Ctx = SscCtx;

    fn stamp(op: &mut SscUpdate, now_us: u64) {
        op.stamp(now_us);
    }

    fn refused(why: Refusal) -> Result<u64, SvcError> {
        Err(match why {
            Refusal::Comm { err } => SvcError::Comm { err },
            why => SvcError::Dependency {
                what: format!("ssc: {why}"),
            },
        })
    }

    /// Committed ops may have recorded decisions: journals them and
    /// keeps the epoch gauge current.
    fn post_step(&mut self, ctx: &SscCtx, _events: &[VsrEvent<SscUpdate>]) {
        for d in self.take_decisions() {
            ctx.decisions.inc();
            ctx.journal.record(ctx.rt.now(), Self::CHANNEL, d);
        }
        ctx.epoch.set(self.epoch() as i64);
    }

    fn describe(&self) -> String {
        format!("epoch={} services={}", self.epoch(), self.services_len())
    }
}

/// A running replicated-controller group member. Dereferences to its
/// [`Replica`] for what every group has: `submit`, `view`, `last_seq`,
/// `is_master`, `in_probation`, `root_ref`, `status`.
pub struct SscReplica {
    rep: Arc<Replica<SscTable>>,
}

impl Deref for SscReplica {
    type Target = Replica<SscTable>;

    fn deref(&self) -> &Replica<SscTable> {
        &self.rep
    }
}

impl SscReplica {
    /// Starts the group member with the caller's `CscApi` servant as its
    /// stable root object, so `root_ref` survives replica restarts.
    pub fn start(
        rt: Rt,
        cfg: SscReplicaConfig,
        root: Arc<dyn Servant>,
    ) -> Result<Arc<SscReplica>, NetError> {
        let tel = NodeTelemetry::of(&*rt);
        let ctx = SscCtx {
            decisions: tel.registry.counter("ssc.vsr.decisions"),
            epoch: tel.registry.gauge("ssc.vsr.epoch"),
            journal: Arc::clone(&tel.journal),
            rt: rt.clone(),
        };
        let rep = Replica::new(rt, cfg, SscTable::default(), ctx);
        rep.start(root)?;
        Ok(Arc::new(SscReplica { rep }))
    }

    /// The global decision-epoch counter, as committed locally.
    pub fn epoch(&self) -> u64 {
        self.read(|c| c.state().epoch())
    }

    /// The local replicated placement table, in service-name order (the
    /// E23 post-storm audit compares this across replicas).
    pub fn placements(&self) -> Vec<ServicePlacement> {
        self.read(|c| c.state().placements_list())
    }

    /// Whether `name` is placed on `node`, per local committed state.
    pub fn is_placed(&self, name: &str, node: NodeId) -> bool {
        self.read(|c| c.state().is_placed(name, node))
    }

    /// Services placed on `node`, in name order.
    pub fn services_on(&self, node: NodeId) -> Vec<String> {
        self.read(|c| c.state().services_on(node))
    }

    /// Nodes currently marked down for `name`.
    pub fn down_nodes(&self, name: &str) -> Vec<NodeId> {
        self.read(|c| c.state().down_nodes(name))
    }

    /// Cross-checks the incrementally maintained node index against a
    /// full table rescan.
    pub fn audit_ok(&self) -> bool {
        self.read(|c| c.state().audit_ok())
    }
}
