//! The replicated Connection Manager: the allocation/lease table on the
//! same Viewstamped Replication engine the name service uses, instead of the §5.2 primary/backup pair that starts
//! empty and waits for MMS reassertion.
//!
//! Three replicas run [`CmTable`] behind an [`ocs_vsr::VsrCore`]. Every
//! mutating `CmApi` call — allocate, release, reassert — becomes a
//! [`CmUpdate`] on the replicated log: the view primary stamps it with
//! its clock, sequences it, broadcasts `prepare`, commits at a majority
//! and answers the client with the viewstamped outcome. Backups forward
//! mutations to the primary and serve `usage`/`accounting` from local
//! (possibly marginally stale) state. When the primary dies, a
//! sub-second view change promotes a backup *that already holds the
//! admission table* — no reassertion window during which a retried
//! `allocate` could double-book bandwidth or a release could be lost.
//!
//! The primary also submits periodic [`CmUpdate::Expire`] ticks, so
//! lease expiry happens at deterministic log positions: every replica
//! reclaims the same leases at the same sequence numbers, and a
//! promoted backup inherits lease stamps granted by the old primary
//! rather than re-deriving them from its own clock.
//!
//! The replication itself — the message loop, view changes, recovery,
//! the peer protocol — is `ocs-vsr`'s [`Replica`] driver, the same one
//! the name service and the service controller run on. This module is
//! what is the Connection Manager's own: the configuration, the
//! [`Replicated`] hooks of [`CmTable`] (clock stamp, expiry feed,
//! `Expire` tick) and the `CmApi` root servant.

use std::ops::Deref;
use std::sync::Arc;
use std::time::Duration;

use ocs_orb::{Caller, OrbError};
use ocs_sim::{Addr, NetError, NodeId, Rt, SimTime};
use ocs_vsr::{Refusal, Replica, ReplicaConfig, Replicated, VsrEvent};
use ocs_wire::Wire;
use parking_lot::Mutex;

use crate::cmgr::{CmAccountRow, CmApi, CmApiServant, CmBudgets, CmMetrics};
use crate::cmtable::{CmTable, CmUpdate};
use crate::types::{CmUsage, ConnDesc, MediaError};

/// Configuration of one replicated-CM group member.
#[derive(Clone, Debug)]
pub struct CmReplicaConfig {
    /// This replica's index into `peers`.
    pub replica_id: u32,
    /// The request endpoints of all replicas (including this one).
    pub peers: Vec<Addr>,
    /// Primary → backup heartbeat period.
    pub heartbeat_interval: Duration,
    /// Base primary-suspect timeout (staggered per replica id).
    pub election_timeout: Duration,
    /// Timeout for replica-to-replica calls.
    pub peer_timeout: Duration,
    /// Committed log entries retained for peer catch-up.
    pub log_retention: u64,
    /// Admission-control budgets (identical on every replica).
    pub budgets: CmBudgets,
    /// Lease TTL; `None` disables expiry.
    pub lease_ttl: Option<Duration>,
}

impl CmReplicaConfig {
    /// The deployed parameters: the shared fail-over timeouts with the
    /// trial's budgets and a 20 s lease.
    pub fn paper_defaults(
        replica_id: u32,
        peers: Vec<Addr>,
        budgets: CmBudgets,
    ) -> CmReplicaConfig {
        CmReplicaConfig::with_replication(ReplicaConfig::paper_defaults(replica_id, peers), budgets)
    }

    /// A member replicating under `r`, with `budgets` and a 20 s lease.
    pub fn with_replication(r: ReplicaConfig, budgets: CmBudgets) -> CmReplicaConfig {
        CmReplicaConfig {
            replica_id: r.replica_id,
            peers: r.peers,
            heartbeat_interval: r.heartbeat_interval,
            election_timeout: r.election_timeout,
            peer_timeout: r.peer_timeout,
            log_retention: r.log_retention,
            budgets,
            lease_ttl: Some(Duration::from_secs(20)),
        }
    }

    /// The replication parameters among these.
    fn replication(&self) -> ReplicaConfig {
        ReplicaConfig {
            replica_id: self.replica_id,
            peers: self.peers.clone(),
            heartbeat_interval: self.heartbeat_interval,
            election_timeout: self.election_timeout,
            peer_timeout: self.peer_timeout,
            log_retention: self.log_retention,
        }
    }
}

/// The admission table's driver-side companions.
pub struct CmCtx {
    rt: Rt,
    metrics: CmMetrics,
    /// A quarter of the lease TTL: the period of the master's replicated
    /// `Expire` tick (`None`: leases never expire).
    expire_every: Option<Duration>,
    /// Last `Expire` tick this replica submitted as master.
    last_expire: Mutex<SimTime>,
}

impl Replicated for CmTable {
    const CHANNEL: &'static str = "cm-vsr";
    const PEER_INTERFACE: &'static str = "itv.cm-peer";
    type Ctx = CmCtx;

    fn stamp(op: &mut CmUpdate, now_us: u64) {
        op.stamp(now_us);
    }

    fn refused(why: Refusal) -> Result<u64, MediaError> {
        Err(match why {
            Refusal::Comm { err } => MediaError::Comm { err },
            why => MediaError::Dependency {
                what: format!("cm: {why}"),
            },
        })
    }

    /// Committed ops may have expired leases: journals them and keeps
    /// the live-allocation gauge current.
    fn post_step(&mut self, ctx: &CmCtx, _events: &[VsrEvent<CmUpdate>]) {
        for d in self.take_expired() {
            ctx.metrics.on_expire(ctx.rt.now(), &d);
        }
        ctx.metrics.active_allocs.set(self.allocations_len() as i64);
    }

    /// Submits a lease-expiry tick as the master, a few times per TTL:
    /// replicated expiry means every replica reclaims the same leases at
    /// the same log positions.
    fn master_tick(replica: &Replica<CmTable>) {
        let ctx = replica.ctx();
        let Some(interval) = ctx.expire_every else {
            return;
        };
        if !replica.is_master() {
            return;
        }
        {
            let now = ctx.rt.now();
            let mut last = ctx.last_expire.lock();
            if now.saturating_since(*last) < interval {
                return;
            }
            *last = now;
        }
        let _ = replica.master_submit(CmUpdate::Expire { now_us: 0 });
    }

    fn describe(&self) -> String {
        format!("allocs={}", self.allocations_len())
    }
}

/// A running replicated-CM group member. Dereferences to its
/// [`Replica`] for what every group has: `view`, `last_seq`,
/// `is_master`, `in_probation`, `root_ref`, `status`.
pub struct CmReplica {
    rep: Arc<Replica<CmTable>>,
}

impl Deref for CmReplica {
    type Target = Replica<CmTable>;

    fn deref(&self) -> &Replica<CmTable> {
        &self.rep
    }
}

impl CmReplica {
    /// Starts the group member: the `CmApi` servant is its root object.
    pub fn start(rt: Rt, cfg: CmReplicaConfig) -> Result<Arc<CmReplica>, NetError> {
        let table = CmTable::new(cfg.budgets, cfg.lease_ttl.map(|d| d.as_micros() as u64));
        let ctx = CmCtx {
            metrics: CmMetrics::of(&rt),
            expire_every: cfg.lease_ttl.map(|ttl| ttl / 4),
            last_expire: Mutex::new(rt.now()),
            rt: rt.clone(),
        };
        let rep = Replica::new(rt, cfg.replication(), table, ctx);
        rep.start(Arc::new(CmApiServant(Arc::new(ApiView {
            rep: Arc::clone(&rep),
        }))))?;
        Ok(Arc::new(CmReplica { rep }))
    }

    /// Local utilization snapshot (no lease tick; may trail the primary
    /// by the commit gap).
    pub fn usage(&self) -> CmUsage {
        self.read(|c| c.state().usage())
    }

    /// The live allocation table (for the E22 post-storm audit).
    pub fn allocations(&self) -> Vec<ConnDesc> {
        self.read(|c| c.state().allocations_list())
    }

    /// Cross-checks the incrementally maintained reserved-bandwidth
    /// total against a full table scan; returns `(indexed, scanned)`.
    pub fn audit_reserved_bps(&self) -> (u64, u64) {
        self.read(|c| {
            (
                c.state().usage().reserved_down_bps,
                c.state().audit_reserved_bps(),
            )
        })
    }
}

/// Servant view of the client-facing `CmApi`. All five methods run where
/// the request arrives: the two reads answer at once from local state,
/// and the three updates are answered by the ack that commits them.
struct ApiView {
    rep: Arc<Replica<CmTable>>,
}

impl ApiView {
    /// Submits `op` and, once it is decided, answers the request with
    /// `finish(outcome)` through its reply. The view is only served over
    /// the ORB, so there is always a reply to take.
    fn commit<T: Wire + Default + Send + 'static>(
        &self,
        caller: &Caller,
        op: CmUpdate,
        finish: impl FnOnce(&Replica<CmTable>, CmOutcome) -> Result<T, MediaError> + Send + 'static,
    ) -> Result<T, MediaError> {
        let reply = caller.reply_later().ok_or_else(|| MediaError::Comm {
            err: OrbError::Internal {
                what: "an update needs a request's reply to answer at commit".to_string(),
            },
        })?;
        let done = move |rep: &Replica<CmTable>, out| reply.send(finish(rep, out));
        self.rep.submit_then(op, Box::new(done));
        Ok(T::default()) // Not sent: the commit answers.
    }
}

/// What one committed `CmUpdate` yields.
type CmOutcome = Result<u64, MediaError>;

impl CmApi for ApiView {
    fn runs_inline(&self, _method: u32) -> bool {
        true
    }

    fn allocate(
        &self,
        caller: &Caller,
        token: u64,
        settop: NodeId,
        server: NodeId,
        down_bps: u64,
    ) -> Result<u64, MediaError> {
        let op = CmUpdate::Allocate {
            token,
            settop,
            server,
            down_bps,
            now_us: 0,
        };
        self.commit(caller, op, move |rep, out| {
            let now = rep.rt().now();
            rep.ctx().metrics.on_allocate(now, &out, settop, down_bps);
            out
        })
    }

    fn release(&self, caller: &Caller, conn: u64) -> Result<(), MediaError> {
        self.commit(caller, CmUpdate::Release { conn, now_us: 0 }, |rep, out| {
            rep.ctx().metrics.on_release(&out);
            out.map(|_| ())
        })
    }

    fn reassert(&self, caller: &Caller, desc: ConnDesc) -> Result<(), MediaError> {
        let known = self.rep.read(|c| c.state().allocation(desc.conn).is_some());
        let (conn, settop) = (desc.conn, desc.settop);
        let op = CmUpdate::Reassert { desc, now_us: 0 };
        self.commit(caller, op, move |rep, out| {
            if out.is_ok() && !known {
                rep.ctx().metrics.on_readmit(rep.rt().now(), conn, settop);
            }
            out.map(|_| ())
        })
    }

    fn usage(&self, _caller: &Caller) -> Result<CmUsage, MediaError> {
        Ok(self.rep.read(|c| c.state().usage()))
    }

    fn accounting(&self, _caller: &Caller) -> Result<Vec<CmAccountRow>, MediaError> {
        let now = self.rep.rt().now().as_micros();
        Ok(self.rep.read(|c| c.state().accounting(now)))
    }
}
