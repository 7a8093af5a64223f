//! The controllers' service configuration and placement table as a pure,
//! replicated state machine: the SSC configuration, replicated over the
//! shared VSR core.
//!
//! [`SscTable`] implements [`ocs_vsr::Machine`]: every placement decision
//! — define, place, unplace, down report, retire — is an [`SscUpdate`] on
//! the replicated log, applied deterministically on every replica. The
//! same two rules that shaped [`CmTable`](itv-media) apply:
//!
//! * **Time travels in the op, not the replica.** Down reports and
//!   definition stamps use the `now_us` the sequencing primary put into
//!   the op; a promoted backup's table carries the old primary's
//!   timestamps rather than re-deriving them from its own clock.
//! * **Retries must be idempotent.** The CM's double-book lesson applied
//!   to double-*placement*: a controller whose `Place` reply was lost in
//!   a primary crash retries against the new primary with the same
//!   client-chosen `token`, and a token that already produced a decision
//!   returns the original decision epoch instead of bumping the epoch
//!   (and triggering a restart) twice.
//!
//! Every successful mutation returns the **decision epoch** — a global
//! counter bumped once per genuine state change. Re-placing an
//! already-placed service, re-defining a service with the same node set,
//! or re-reporting a node already marked down all return the *existing*
//! epoch without a bump, which is what makes reconcile passes and
//! fail-over retries safe to repeat.

use std::collections::{BTreeMap, BTreeSet};

use ocs_db::ServicePlacement;
use ocs_sim::NodeId;
use ocs_wire::{impl_wire_enum, impl_wire_struct};

use crate::types::SvcError;

/// Retry tokens remembered for deduplication. Old tokens are pruned in
/// log order once the window fills, so every replica forgets the same
/// tokens at the same log positions.
pub const TOKEN_WINDOW: usize = 1024;

/// One replicated service-control operation. Every variant carries the
/// primary's clock reading at sequencing time (`now_us`); replica clocks
/// never touch the table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SscUpdate {
    /// Register (or re-register) a service definition with its desired
    /// node set. Content-idempotent: the same node set returns the
    /// existing definition epoch. `token` is a client-chosen retry key
    /// (0 = no dedup), as on every decision op.
    Define {
        /// Client retry token (0 = no dedup).
        token: u64,
        /// Service name.
        service: String,
        /// Desired placement nodes.
        nodes: Vec<NodeId>,
        /// Primary clock at sequencing (µs).
        now_us: u64,
    },
    /// Add a node to a service's placement (or confirm an existing
    /// placement, clearing its down marker without bumping the epoch —
    /// the double-placement guard).
    Place {
        /// Client retry token (0 = no dedup).
        token: u64,
        /// Service name.
        service: String,
        /// The node to host the service.
        node: NodeId,
        /// Primary clock at sequencing (µs).
        now_us: u64,
    },
    /// Remove a node from a service's placement.
    Unplace {
        /// Client retry token (0 = no dedup).
        token: u64,
        /// Service name.
        service: String,
        /// The node to stop hosting the service.
        node: NodeId,
        /// Primary clock at sequencing (µs).
        now_us: u64,
    },
    /// Record an observation that a placed instance died. Idempotent:
    /// a node already marked down returns the epoch of the original
    /// report. The placement itself survives — recovery is a later
    /// `Place` confirmation, not a regeneration.
    ReportDown {
        /// Service name.
        service: String,
        /// The node whose instance died.
        node: NodeId,
        /// Primary clock at sequencing (µs).
        now_us: u64,
    },
    /// Remove a service definition and all its placements.
    Retire {
        /// Client retry token (0 = no dedup).
        token: u64,
        /// Service name.
        service: String,
        /// Primary clock at sequencing (µs).
        now_us: u64,
    },
}

impl SscUpdate {
    /// The primary-stamped clock reading carried by the op.
    pub fn now_us(&self) -> u64 {
        match self {
            SscUpdate::Define { now_us, .. }
            | SscUpdate::Place { now_us, .. }
            | SscUpdate::Unplace { now_us, .. }
            | SscUpdate::ReportDown { now_us, .. }
            | SscUpdate::Retire { now_us, .. } => *now_us,
        }
    }

    /// Overwrites the op's clock stamp (the sequencing primary re-stamps
    /// forwarded ops so a backup's stale clock never enters the log).
    pub fn stamp(&mut self, us: u64) {
        match self {
            SscUpdate::Define { now_us, .. }
            | SscUpdate::Place { now_us, .. }
            | SscUpdate::Unplace { now_us, .. }
            | SscUpdate::ReportDown { now_us, .. }
            | SscUpdate::Retire { now_us, .. } => *now_us = us,
        }
    }
}

impl_wire_enum!(SscUpdate {
    0 => Define { token, service, nodes, now_us },
    1 => Place { token, service, node, now_us },
    2 => Unplace { token, service, node, now_us },
    3 => ReportDown { service, node, now_us },
    4 => Retire { token, service, now_us },
});

/// A down observation: when it was reported and which decision epoch
/// recorded it (returned verbatim on idempotent re-reports).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DownMark {
    /// Primary-stamped report time (µs).
    pub at_us: u64,
    /// Decision epoch of the original report.
    pub epoch: u64,
}

impl_wire_struct!(DownMark { at_us, epoch });

/// One service's replicated record: desired placements (node → epoch of
/// the placing decision) plus observed down markers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SvcRecord {
    /// Desired placement nodes → epoch of the decision that placed them.
    pub nodes: BTreeMap<NodeId, u64>,
    /// Nodes whose instance was reported down and not yet re-confirmed.
    pub downs: BTreeMap<NodeId, DownMark>,
    /// Epoch of the decision that (re)defined the service.
    pub defined_epoch: u64,
    /// Primary-stamped definition time (µs).
    pub defined_us: u64,
    /// Times the SSCs re-hosted this service (down report → re-place).
    pub rehosts: u64,
}

impl_wire_struct!(SvcRecord {
    nodes,
    downs,
    defined_epoch,
    defined_us,
    rehosts
});

/// A full table snapshot, installed on replicas that fell behind the
/// log-retention window. The per-node reverse index is rebuilt on
/// restore rather than shipped.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SscSnapshot {
    /// Global decision-epoch counter.
    pub epoch: u64,
    /// Service records by name.
    pub services: BTreeMap<String, SvcRecord>,
    /// Retry tokens → decision epoch of the original op.
    pub token_epoch: BTreeMap<u64, u64>,
    /// Token insertion order (applied seq → token), for windowed pruning.
    pub token_order: BTreeMap<u64, u64>,
    /// Services retired since start.
    pub retired: u64,
    /// Sequence number of the last applied update.
    pub last_seq: u64,
}

impl_wire_struct!(SscSnapshot {
    epoch,
    services,
    token_epoch,
    token_order,
    retired,
    last_seq
});

/// The deterministic service configuration/placement table. All
/// iteration-order-sensitive state lives in `BTreeMap`/`BTreeSet` so
/// replicas applying the same log produce byte-identical snapshots.
#[derive(Clone, Debug, Default)]
pub struct SscTable {
    epoch: u64,
    services: BTreeMap<String, SvcRecord>,
    /// Live retry tokens → decision epoch (replicated: a retry must
    /// dedup on the new primary after fail-over).
    token_epoch: BTreeMap<u64, u64>,
    token_order: BTreeMap<u64, u64>,
    retired: u64,
    last_seq: u64,
    /// Node → services placed there; derived, rebuilt on restore.
    by_node: BTreeMap<NodeId, BTreeSet<String>>,
    /// Decisions applied since the last [`SscTable::take_decisions`] —
    /// a driver-side journal feed, not replicated state.
    decision_log: Vec<String>,
}

impl SscTable {
    /// An empty table.
    pub fn new() -> SscTable {
        SscTable::default()
    }

    /// The global decision-epoch counter.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of defined services.
    pub fn services_len(&self) -> usize {
        self.services.len()
    }

    /// Services retired since start.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// One service's record.
    pub fn service(&self, name: &str) -> Option<&SvcRecord> {
        self.services.get(name)
    }

    /// Whether `name` is placed on `node`.
    pub fn is_placed(&self, name: &str, node: NodeId) -> bool {
        self.services
            .get(name)
            .is_some_and(|r| r.nodes.contains_key(&node))
    }

    /// Services placed on `node`, in name order.
    pub fn services_on(&self, node: NodeId) -> Vec<String> {
        self.by_node
            .get(&node)
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// All placements in service-name order (post-storm audits and the
    /// CSC's status reports use this as the authoritative view).
    pub fn placements_list(&self) -> Vec<ServicePlacement> {
        self.services
            .iter()
            .map(|(name, rec)| ServicePlacement {
                service: name.clone(),
                nodes: rec.nodes.keys().copied().collect(),
            })
            .collect()
    }

    /// Nodes currently marked down for `name`, in node order.
    pub fn down_nodes(&self, name: &str) -> Vec<NodeId> {
        self.services
            .get(name)
            .map(|r| r.downs.keys().copied().collect())
            .unwrap_or_default()
    }

    /// Drains the decision journal accumulated since the last call
    /// (driver-side journaling; not replicated state).
    pub fn take_decisions(&mut self) -> Vec<String> {
        std::mem::take(&mut self.decision_log)
    }

    /// Recomputes the node → services reverse index by scanning the
    /// table — the audit cross-check against the incrementally
    /// maintained `by_node` index.
    pub fn audit_by_node(&self) -> BTreeMap<NodeId, BTreeSet<String>> {
        let mut idx: BTreeMap<NodeId, BTreeSet<String>> = BTreeMap::new();
        for (name, rec) in &self.services {
            for node in rec.nodes.keys() {
                idx.entry(*node).or_default().insert(name.clone());
            }
        }
        idx
    }

    /// Whether the incremental reverse index matches a full rescan.
    pub fn audit_ok(&self) -> bool {
        let mut live = self.by_node.clone();
        live.retain(|_, s| !s.is_empty());
        live == self.audit_by_node()
    }

    fn bump(&mut self) -> u64 {
        self.epoch += 1;
        self.epoch
    }

    fn remember_token(&mut self, token: u64, epoch: u64) {
        if token == 0 {
            return;
        }
        self.token_epoch.insert(token, epoch);
        self.token_order.insert(self.last_seq, token);
        while self.token_order.len() > TOKEN_WINDOW {
            if let Some((_, old)) = self.token_order.pop_first() {
                self.token_epoch.remove(&old);
            }
        }
    }

    fn index_add(&mut self, node: NodeId, name: &str) {
        self.by_node.entry(node).or_default().insert(name.to_string());
    }

    fn index_del(&mut self, node: NodeId, name: &str) {
        if let Some(set) = self.by_node.get_mut(&node) {
            set.remove(name);
            if set.is_empty() {
                self.by_node.remove(&node);
            }
        }
    }

    fn do_define(
        &mut self,
        service: &str,
        nodes: &[NodeId],
        now: u64,
    ) -> Result<u64, SvcError> {
        let wanted: BTreeSet<NodeId> = nodes.iter().copied().collect();
        if let Some(rec) = self.services.get(service) {
            let have: BTreeSet<NodeId> = rec.nodes.keys().copied().collect();
            if have == wanted {
                // Content-idempotent: same desired set, no new decision.
                return Ok(rec.defined_epoch);
            }
        }
        let epoch = self.bump();
        let old = self.services.remove(service).unwrap_or_default();
        for node in old.nodes.keys() {
            self.index_del(*node, service);
        }
        let mut rec = SvcRecord {
            defined_epoch: epoch,
            defined_us: now,
            rehosts: old.rehosts,
            ..SvcRecord::default()
        };
        for node in &wanted {
            // Placements carried over keep their placing epoch; new
            // nodes are placed by this definition decision.
            let at = old.nodes.get(node).copied().unwrap_or(epoch);
            rec.nodes.insert(*node, at);
        }
        self.services.insert(service.to_string(), rec);
        for node in &wanted {
            self.index_add(*node, service);
        }
        self.decision_log
            .push(format!("epoch {epoch}: define {service} on {wanted:?}"));
        Ok(epoch)
    }

    fn do_place(&mut self, service: &str, node: NodeId, _now: u64) -> Result<u64, SvcError> {
        let Some(rec) = self.services.get_mut(service) else {
            return Err(SvcError::UnknownService {
                name: service.to_string(),
            });
        };
        if let Some(&at) = rec.nodes.get(&node) {
            // Already placed: confirm, clearing any down marker, without
            // a new decision — the double-placement guard. A retried
            // `Place` (or a reconcile pass re-asserting the placement
            // after a restart) must not bump the epoch and trigger a
            // second restart.
            if rec.downs.remove(&node).is_some() {
                rec.rehosts += 1;
                self.decision_log
                    .push(format!("epoch {at}: re-hosted {service} on {node} (confirm)"));
            }
            return Ok(at);
        }
        let epoch = self.bump();
        let rec = self.services.get_mut(service).expect("checked above");
        rec.nodes.insert(node, epoch);
        rec.downs.remove(&node);
        self.index_add(node, service);
        self.decision_log
            .push(format!("epoch {epoch}: place {service} on {node}"));
        Ok(epoch)
    }

    fn do_unplace(&mut self, service: &str, node: NodeId, _now: u64) -> Result<u64, SvcError> {
        let Some(rec) = self.services.get_mut(service) else {
            return Err(SvcError::UnknownService {
                name: service.to_string(),
            });
        };
        if rec.nodes.remove(&node).is_none() {
            return Err(SvcError::NotPlaced {
                name: service.to_string(),
                node,
            });
        }
        rec.downs.remove(&node);
        let epoch = self.bump();
        self.index_del(node, service);
        self.decision_log
            .push(format!("epoch {epoch}: unplace {service} from {node}"));
        Ok(epoch)
    }

    fn do_report_down(&mut self, service: &str, node: NodeId, now: u64) -> Result<u64, SvcError> {
        let Some(rec) = self.services.get_mut(service) else {
            return Err(SvcError::UnknownService {
                name: service.to_string(),
            });
        };
        if !rec.nodes.contains_key(&node) {
            return Err(SvcError::NotPlaced {
                name: service.to_string(),
                node,
            });
        }
        if let Some(mark) = rec.downs.get(&node) {
            // Already reported: idempotent, original decision stands.
            return Ok(mark.epoch);
        }
        let epoch = self.bump();
        let rec = self.services.get_mut(service).expect("checked above");
        rec.downs.insert(node, DownMark { at_us: now, epoch });
        self.decision_log
            .push(format!("epoch {epoch}: {service} down on {node}"));
        Ok(epoch)
    }

    fn do_retire(&mut self, service: &str, _now: u64) -> Result<u64, SvcError> {
        let Some(rec) = self.services.remove(service) else {
            return Err(SvcError::UnknownService {
                name: service.to_string(),
            });
        };
        for node in rec.nodes.keys() {
            self.index_del(*node, service);
        }
        let epoch = self.bump();
        self.retired += 1;
        self.decision_log
            .push(format!("epoch {epoch}: retire {service}"));
        Ok(epoch)
    }
}

impl ocs_vsr::Machine for SscTable {
    type Op = SscUpdate;
    /// `Ok(epoch)` of the decision — the existing epoch for idempotent
    /// confirmations, a freshly bumped one for genuine state changes.
    type Outcome = Result<u64, SvcError>;
    type Snap = SscSnapshot;

    fn apply(&mut self, seq: u64, op: &SscUpdate) -> Result<u64, SvcError> {
        self.last_seq = seq;
        let token = match *op {
            SscUpdate::Define { token, .. }
            | SscUpdate::Place { token, .. }
            | SscUpdate::Unplace { token, .. }
            | SscUpdate::Retire { token, .. } => token,
            SscUpdate::ReportDown { .. } => 0,
        };
        if token != 0 {
            if let Some(&epoch) = self.token_epoch.get(&token) {
                // A retry of an op that already committed (the reply was
                // lost in a fail-over): the original decision stands.
                return Ok(epoch);
            }
        }
        let out = match op {
            SscUpdate::Define {
                service,
                nodes,
                now_us,
                ..
            } => self.do_define(service, nodes, *now_us),
            SscUpdate::Place {
                service,
                node,
                now_us,
                ..
            } => self.do_place(service, *node, *now_us),
            SscUpdate::Unplace {
                service,
                node,
                now_us,
                ..
            } => self.do_unplace(service, *node, *now_us),
            SscUpdate::ReportDown {
                service,
                node,
                now_us,
            } => self.do_report_down(service, *node, *now_us),
            SscUpdate::Retire {
                service, now_us, ..
            } => self.do_retire(service, *now_us),
        };
        if let Ok(epoch) = out {
            self.remember_token(token, epoch);
        }
        out
    }

    fn snapshot(&self) -> SscSnapshot {
        SscSnapshot {
            epoch: self.epoch,
            services: self.services.clone(),
            token_epoch: self.token_epoch.clone(),
            token_order: self.token_order.clone(),
            retired: self.retired,
            last_seq: self.last_seq,
        }
    }

    fn restore(&mut self, snap: SscSnapshot) {
        self.epoch = snap.epoch;
        self.services = snap.services;
        self.token_epoch = snap.token_epoch;
        self.token_order = snap.token_order;
        self.retired = snap.retired;
        self.last_seq = snap.last_seq;
        self.decision_log.clear();
        // Rebuild the derived reverse index from the replicated tables.
        self.by_node.clear();
        let entries: Vec<(NodeId, String)> = self
            .services
            .iter()
            .flat_map(|(name, rec)| rec.nodes.keys().map(move |n| (*n, name.clone())))
            .collect();
        for (node, name) in entries {
            self.by_node.entry(node).or_default().insert(name);
        }
    }

    fn snap_seq(snap: &SscSnapshot) -> u64 {
        snap.last_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocs_vsr::Machine;
    use ocs_wire::Wire;

    fn place_op(token: u64, service: &str, node: u32, now_us: u64) -> SscUpdate {
        SscUpdate::Place {
            token,
            service: service.into(),
            node: NodeId(node),
            now_us,
        }
    }

    fn define_op(token: u64, service: &str, nodes: &[u32], now_us: u64) -> SscUpdate {
        SscUpdate::Define {
            token,
            service: service.into(),
            nodes: nodes.iter().map(|&n| NodeId(n)).collect(),
            now_us,
        }
    }

    #[test]
    fn tokened_retry_returns_original_decision_epoch() {
        let mut t = SscTable::new();
        t.apply(1, &define_op(0, "mms", &[1], 1_000)).unwrap();
        let a = t.apply(2, &place_op(77, "mms", 2, 2_000)).unwrap();
        // The retry (same token) returns the same epoch and makes no new
        // decision — the placement is booked exactly once.
        let b = t.apply(3, &place_op(77, "mms", 2, 3_000)).unwrap();
        assert_eq!(a, b);
        assert_eq!(t.epoch(), a);
        assert_eq!(t.service("mms").unwrap().nodes.len(), 2);
        // A fresh token for an already-placed node confirms without a
        // bump (the reconcile-pass guard).
        let c = t.apply(4, &place_op(78, "mms", 2, 4_000)).unwrap();
        assert_eq!(c, a);
        assert_eq!(t.epoch(), a);
    }

    #[test]
    fn down_report_and_replace_cycle_is_idempotent() {
        let mut t = SscTable::new();
        t.apply(1, &define_op(0, "shop", &[5], 1_000)).unwrap();
        let down = t
            .apply(
                2,
                &SscUpdate::ReportDown {
                    service: "shop".into(),
                    node: NodeId(5),
                    now_us: 2_000,
                },
            )
            .unwrap();
        // A second observer reporting the same death changes nothing.
        let again = t
            .apply(
                3,
                &SscUpdate::ReportDown {
                    service: "shop".into(),
                    node: NodeId(5),
                    now_us: 2_500,
                },
            )
            .unwrap();
        assert_eq!(down, again);
        assert_eq!(t.down_nodes("shop"), vec![NodeId(5)]);
        assert_eq!(t.service("shop").unwrap().downs[&NodeId(5)].at_us, 2_000);
        // Re-hosting is a Place confirmation: clears the marker, keeps
        // the placement's epoch, counts a rehost — no regeneration.
        let confirm = t.apply(4, &place_op(0, "shop", 5, 3_000)).unwrap();
        assert!(t.down_nodes("shop").is_empty());
        assert_eq!(t.service("shop").unwrap().rehosts, 1);
        assert_eq!(confirm, t.service("shop").unwrap().nodes[&NodeId(5)]);
    }

    #[test]
    fn unplace_of_absent_node_is_refused() {
        let mut t = SscTable::new();
        t.apply(1, &define_op(0, "kbs", &[1], 1_000)).unwrap();
        let err = t
            .apply(
                2,
                &SscUpdate::Unplace {
                    token: 0,
                    service: "kbs".into(),
                    node: NodeId(9),
                    now_us: 2_000,
                },
            )
            .unwrap_err();
        assert_eq!(
            err,
            SvcError::NotPlaced {
                name: "kbs".into(),
                node: NodeId(9)
            }
        );
        assert_eq!(
            t.apply(3, &place_op(0, "nope", 1, 3_000)).unwrap_err(),
            SvcError::UnknownService { name: "nope".into() }
        );
    }

    #[test]
    fn snapshot_restore_rebuilds_derived_indexes() {
        let mut t = SscTable::new();
        t.apply(1, &define_op(7, "mms", &[1, 2], 1_000)).unwrap();
        t.apply(2, &define_op(8, "shop", &[2], 2_000)).unwrap();
        t.apply(3, &place_op(9, "shop", 3, 3_000)).unwrap();
        let snap = t.snapshot();
        assert_eq!(SscSnapshot::from_bytes(&snap.to_bytes()).unwrap(), snap);
        let mut r = SscTable::new();
        r.restore(snap.clone());
        assert_eq!(r.snapshot(), snap, "restore is lossless");
        assert_eq!(r.services_on(NodeId(2)), vec!["mms", "shop"]);
        assert!(r.audit_ok());
        // The restored token index still dedups retries.
        let again = r.apply(4, &place_op(9, "shop", 3, 4_000)).unwrap();
        assert_eq!(again, t.service("shop").unwrap().nodes[&NodeId(3)]);
        assert_eq!(r.epoch(), t.epoch());
    }

    #[test]
    fn replicas_applying_same_log_agree_exactly() {
        let ops: Vec<SscUpdate> = vec![
            define_op(1, "mms", &[1, 2], 1_000),
            place_op(2, "mms", 3, 2_000),
            SscUpdate::ReportDown {
                service: "mms".into(),
                node: NodeId(1),
                now_us: 3_000,
            },
            place_op(3, "mms", 1, 4_000),
            SscUpdate::Unplace {
                token: 4,
                service: "mms".into(),
                node: NodeId(2),
                now_us: 5_000,
            },
            define_op(5, "shop", &[2], 6_000),
            SscUpdate::Retire {
                token: 6,
                service: "shop".into(),
                now_us: 7_000,
            },
        ];
        let mut a = SscTable::new();
        let mut b = SscTable::new();
        for (i, op) in ops.iter().enumerate() {
            let ra = a.apply(i as u64 + 1, op);
            let rb = b.apply(i as u64 + 1, op);
            assert_eq!(ra, rb);
        }
        assert_eq!(a.snapshot(), b.snapshot());
        assert!(a.audit_ok());
        assert_eq!(a.retired(), 1);
        assert_eq!(a.placements_list().len(), 1);
    }

    #[test]
    fn token_window_prunes_in_log_order() {
        let mut t = SscTable::new();
        t.apply(1, &define_op(0, "s", &[], 0)).unwrap();
        for i in 0..(TOKEN_WINDOW as u64 + 10) {
            t.apply(i + 2, &place_op(1_000 + i, "s", i as u32, i)).unwrap();
        }
        // The oldest tokens fell out of the window; the newest survive.
        assert_eq!(t.token_epoch.len(), TOKEN_WINDOW);
        assert!(!t.token_epoch.contains_key(&1_000));
        assert!(t.token_epoch.contains_key(&(1_000 + TOKEN_WINDOW as u64 + 9)));
    }
}
