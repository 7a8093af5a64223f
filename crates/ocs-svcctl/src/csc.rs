//! The Cluster Service Controller (§6.2), replicated: a VSR group member
//! (see [`SscReplica`]) that keeps the service configuration and
//! placement table on the shared `ocs-vsr` log. The view master pings
//! the SSC on every server, directs SSCs to start (and re-start, after a
//! node recovers) the services assigned to them, and exports the
//! operator tools for stopping, starting and moving services.
//!
//! This replaces the §6.2 regeneration recovery ("the backup discovers
//! the cluster state by querying each SSC"): a promoted backup *already
//! holds the placement table*, so fail-over re-hosts only the instances
//! that actually died, and no placement decision made before the crash
//! is lost or doubled. The database keeps its role as the *static seed*:
//! services found there but not yet in the replicated table are defined
//! (content-idempotently) on the log; from then on the table is the
//! runtime authority.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ocs_db::{DbApiClient, DbTables, ServicePlacement, DB_PATH};
use ocs_name::{advertise, NsHandle, RebindPolicy, Rebinding};
use ocs_orb::{Caller, ObjRef};
use ocs_sim::{Addr, NetError, NodeId, Rt};
use parking_lot::Mutex;

use crate::ssc::SSC_CTX;
use crate::sscrep::{SscReplica, SscReplicaConfig};
use crate::ssctable::SscUpdate;
use crate::types::{CscApi, CscApiServant, NodeServices, SscApiClient, SvcError};

/// Request port of every CSC replica's ORB.
pub const CSC_PORT: u16 = 15;

/// Name under which the group master advertises itself.
pub const CSC_PATH: &str = "svc/csc";

/// How often the master pings SSCs and reconciles placement.
const PING_INTERVAL: Duration = Duration::from_secs(2);

/// CSC tuning knobs.
#[derive(Clone, Debug)]
pub struct CscConfig {
    /// Master-advertisement keeper interval (§9.7: 10 s).
    pub bind_retry: Duration,
    /// The VSR group membership; `None` runs a single-member group on
    /// this node's [`CSC_PORT`] (the small-test configuration).
    pub replica: Option<SscReplicaConfig>,
}

impl Default for CscConfig {
    fn default() -> CscConfig {
        CscConfig {
            bind_retry: Duration::from_secs(10),
            replica: None,
        }
    }
}

struct CscState {
    /// Last observed cluster status, refreshed every reconcile pass.
    status: Vec<NodeServices>,
    /// Nodes whose SSC was unreachable on the previous pass.
    unreachable: Vec<NodeId>,
    /// `(node, service)` pairs the master has observed running: a later
    /// not-running observation for one of these is a death worth a
    /// replicated `ReportDown`, not a boot-time first start. Observed
    /// state, master-local by design — the replicated table carries the
    /// *decisions*, not the ping samples.
    seen_running: std::collections::BTreeSet<(NodeId, String)>,
}

/// The Cluster Service Controller.
pub struct Csc {
    rt: Rt,
    cfg: CscConfig,
    ns: NsHandle,
    db: Rebinding<DbApiClient>,
    rep: Mutex<Option<Arc<SscReplica>>>,
    state: Mutex<CscState>,
    /// Internal retry-token generator for operator-initiated decisions.
    token_seq: AtomicU64,
}

impl Csc {
    /// Creates a CSC replica driver; `run` starts the VSR group member
    /// and the master reconcile loop.
    pub fn new(rt: Rt, cfg: CscConfig, ns: NsHandle) -> Arc<Csc> {
        let db = Rebinding::new(
            ns.clone(),
            DB_PATH,
            RebindPolicy {
                retry_interval: Duration::from_secs(1),
                backoff_cap: Duration::from_secs(4),
                give_up_after: Duration::from_secs(20),
                jitter: false,
            },
        );
        Arc::new(Csc {
            rt,
            cfg,
            ns,
            db,
            rep: Mutex::new(None),
            state: Mutex::new(CscState {
                status: Vec::new(),
                unreachable: Vec::new(),
                seen_running: std::collections::BTreeSet::new(),
            }),
            token_seq: AtomicU64::new(1),
        })
    }

    /// Whether this replica is currently the group master.
    pub fn is_primary(&self) -> bool {
        self.rep
            .lock()
            .as_ref()
            .is_some_and(|r| r.is_master())
    }

    /// The underlying VSR replica handle, once `run` started it.
    pub fn replica(&self) -> Option<Arc<SscReplica>> {
        self.rep.lock().clone()
    }

    /// Latest cluster status snapshot (master only; empty otherwise).
    pub fn status(&self) -> Vec<NodeServices> {
        self.state.lock().status.clone()
    }

    /// The CSC main: starts the VSR group member (exporting this
    /// controller's `CscApi` as the replica's stable root object),
    /// spawns the master-advertisement keeper, then reconciles while
    /// master until killed. Run inside an SSC-managed process group.
    pub fn run(self: &Arc<Self>, notify_ready: impl Fn(Vec<ObjRef>)) -> Result<(), NetError> {
        // The keeper loop sleeps this interval between passes; zero would
        // busy-spin it at one virtual instant (the same no-clock hazard
        // the CM's `with_lease` refuses).
        assert!(
            !self.cfg.bind_retry.is_zero(),
            "csc: bind_retry must be nonzero"
        );
        let rep_cfg = self.cfg.replica.clone().unwrap_or_else(|| {
            SscReplicaConfig::paper_defaults(0, vec![Addr::new(self.rt.node(), CSC_PORT)])
        });
        let rep = SscReplica::start(
            self.rt.clone(),
            rep_cfg,
            Arc::new(CscApiServant(Arc::clone(self))),
        )?;
        *self.rep.lock() = Some(Arc::clone(&rep));
        notify_ready(vec![rep.root_ref()]);
        // The group master holds `svc/csc` (a stable reference, so
        // only it can rewrite the binding); backups forward sequenced
        // ops to the master, so a marginally stale binding keeps working
        // through a fail-over.
        let krep = Arc::clone(&rep);
        advertise(
            &self.ns,
            CSC_PATH,
            rep.root_ref(),
            self.cfg.bind_retry,
            true,
            move || krep.is_master(),
        );
        loop {
            if rep.is_master() && !rep.in_probation() {
                self.seed_from_db(&rep);
                self.reconcile(&rep);
            }
            self.rt.sleep(PING_INTERVAL);
        }
    }

    /// SSC bindings as `(node, client)`, from the name service.
    fn sscs(&self) -> Vec<(NodeId, SscApiClient)> {
        let Ok(bindings) = self.ns.list(SSC_CTX) else {
            return Vec::new();
        };
        bindings
            .into_iter()
            .filter_map(|b| {
                let node = NodeId(b.name.parse().ok()?);
                let ctx = ocs_orb::ClientCtx::new(self.rt.clone())
                    .with_timeout(Duration::from_millis(800));
                SscApiClient::attach(ctx, b.obj).ok().map(|c| (node, c))
            })
            .collect()
    }

    /// Defines any database-seeded service the replicated table doesn't
    /// know yet. Content-idempotent `Define` ops mean repeated passes
    /// (and master changes) are free; once a service is on the log, the
    /// table — not the database — is the placement authority.
    fn seed_from_db(self: &Arc<Self>, rep: &Arc<SscReplica>) {
        let rows: Vec<ServicePlacement> = self.db.call(DbTables::placements).unwrap_or_default();
        if rows.is_empty() {
            return;
        }
        let known: std::collections::BTreeSet<String> =
            rep.placements().into_iter().map(|p| p.service).collect();
        for row in rows {
            if known.contains(&row.service) {
                continue;
            }
            let _ = rep.submit(SscUpdate::Define {
                token: 0,
                service: row.service,
                nodes: row.nodes,
                now_us: 0,
            });
        }
    }

    /// One reconcile pass: ping every SSC, record deaths on the log, and
    /// re-host placed-but-not-running services. No regeneration — the
    /// wanted set comes from the replicated table, never from re-querying
    /// the fleet.
    fn reconcile(self: &Arc<Self>, rep: &Arc<SscReplica>) {
        let mut by_node: BTreeMap<NodeId, Vec<String>> = BTreeMap::new();
        for p in rep.placements() {
            for node in &p.nodes {
                by_node.entry(*node).or_default().push(p.service.clone());
            }
        }
        let mut status = Vec::new();
        let mut unreachable = Vec::new();
        for (node, ssc) in self.sscs() {
            match ssc.running_services() {
                Ok(services) => {
                    let wanted = by_node.get(&node).cloned().unwrap_or_default();
                    for name in wanted {
                        let running = services.iter().any(|s| s.name == name && s.running);
                        if running {
                            self.state.lock().seen_running.insert((node, name.clone()));
                            // Confirm the placement on the log: clears a
                            // pending down marker (counting the re-host)
                            // without bumping the decision epoch.
                            if !rep.down_nodes(&name).is_empty() {
                                let _ = rep.submit(SscUpdate::Place {
                                    token: 0,
                                    service: name,
                                    node,
                                    now_us: 0,
                                });
                            }
                            continue;
                        }
                        let died = self.state.lock().seen_running.contains(&(node, name.clone()));
                        if died {
                            // Sequence the observation: an epoch-stamped
                            // down report, idempotent across masters.
                            let _ = rep.submit(SscUpdate::ReportDown {
                                service: name.clone(),
                                node,
                                now_us: 0,
                            });
                        }
                        let _ = ssc.start_service(name);
                    }
                    status.push(NodeServices {
                        node,
                        reachable: true,
                        services,
                    });
                }
                Err(_) => {
                    unreachable.push(node);
                    status.push(NodeServices {
                        node,
                        reachable: false,
                        services: Vec::new(),
                    });
                }
            }
        }
        let mut st = self.state.lock();
        st.status = status;
        st.unreachable = unreachable;
    }

    fn ssc_for(&self, node: NodeId) -> Result<SscApiClient, SvcError> {
        self.sscs()
            .into_iter()
            .find(|(n, _)| *n == node)
            .map(|(_, c)| c)
            .ok_or(SvcError::NodeUnreachable { node })
    }

    fn rep(&self) -> Result<Arc<SscReplica>, SvcError> {
        self.rep.lock().clone().ok_or(SvcError::Dependency {
            what: "csc: replica not started".into(),
        })
    }

    /// A fresh retry token for an operator-initiated decision, unique
    /// within this replica's lifetime.
    fn next_token(&self) -> u64 {
        let rep_id = self
            .cfg
            .replica
            .as_ref()
            .map(|r| r.replica_id as u64)
            .unwrap_or(0);
        ((rep_id + 1) << 48) | self.token_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Sequences one decision with bounded retries. The token travels
    /// unchanged across attempts, so a retry after a mid-commit
    /// fail-over returns the original decision epoch instead of
    /// deciding twice.
    fn decide(&self, rep: &Arc<SscReplica>, op: SscUpdate) -> Result<u64, SvcError> {
        let mut last = SvcError::Dependency {
            what: "csc: no attempt".into(),
        };
        for _ in 0..8 {
            match rep.submit(op.clone()) {
                Ok(epoch) => return Ok(epoch),
                // Table refusals are committed outcomes, not transport
                // trouble: surface them to the caller unchanged.
                Err(e @ (SvcError::UnknownService { .. } | SvcError::NotPlaced { .. })) => {
                    return Err(e)
                }
                Err(e) => last = e,
            }
            self.rt.sleep(PING_INTERVAL / 4);
        }
        Err(last)
    }
}

impl CscApi for Csc {
    fn cluster_status(&self, _caller: &Caller) -> Result<Vec<NodeServices>, SvcError> {
        Ok(self.state.lock().status.clone())
    }

    fn move_service(
        &self,
        _caller: &Caller,
        name: String,
        from: NodeId,
        to: NodeId,
    ) -> Result<(), SvcError> {
        let rep = self.rep()?;
        match self.decide(
            &rep,
            SscUpdate::Unplace {
                token: self.next_token(),
                service: name.clone(),
                node: from,
                now_us: 0,
            },
        ) {
            // A move away from a node it was never on is just a place.
            Ok(_) | Err(SvcError::NotPlaced { .. }) => {}
            Err(e) => return Err(e),
        }
        self.decide(
            &rep,
            SscUpdate::Place {
                token: self.next_token(),
                service: name.clone(),
                node: to,
                now_us: 0,
            },
        )?;
        if let Ok(ssc) = self.ssc_for(from) {
            let _ = ssc.stop_service(name.clone());
        }
        let ssc = self.ssc_for(to)?;
        ssc.start_service(name)
    }

    fn set_placement(
        &self,
        _caller: &Caller,
        node: NodeId,
        name: String,
        run: bool,
    ) -> Result<(), SvcError> {
        let rep = self.rep()?;
        if run {
            match self.decide(
                &rep,
                SscUpdate::Place {
                    token: self.next_token(),
                    service: name.clone(),
                    node,
                    now_us: 0,
                },
            ) {
                Ok(_) => {}
                // First placement of an undefined service defines it.
                Err(SvcError::UnknownService { .. }) => {
                    self.decide(
                        &rep,
                        SscUpdate::Define {
                            token: self.next_token(),
                            service: name.clone(),
                            nodes: vec![node],
                            now_us: 0,
                        },
                    )?;
                }
                Err(e) => return Err(e),
            }
            let ssc = self.ssc_for(node)?;
            ssc.start_service(name)
        } else {
            match self.decide(
                &rep,
                SscUpdate::Unplace {
                    token: self.next_token(),
                    service: name.clone(),
                    node,
                    now_us: 0,
                },
            ) {
                // Not placed = the desired state already holds (a retry
                // whose first attempt committed lands here too).
                Ok(_) | Err(SvcError::NotPlaced { .. }) => {}
                Err(e) => return Err(e),
            }
            let ssc = self.ssc_for(node)?;
            ssc.stop_service(name)
        }
    }

    fn place_op(
        &self,
        _caller: &Caller,
        token: u64,
        name: String,
        node: NodeId,
        run: bool,
    ) -> Result<u64, SvcError> {
        let rep = self.rep()?;
        let op = if run {
            SscUpdate::Place {
                token,
                service: name,
                node,
                now_us: 0,
            }
        } else {
            SscUpdate::Unplace {
                token,
                service: name,
                node,
                now_us: 0,
            }
        };
        rep.submit(op)
    }

    fn define_service(
        &self,
        _caller: &Caller,
        token: u64,
        name: String,
        nodes: Vec<NodeId>,
    ) -> Result<u64, SvcError> {
        let rep = self.rep()?;
        rep.submit(SscUpdate::Define {
            token,
            service: name,
            nodes,
            now_us: 0,
        })
    }

    fn placements(&self, _caller: &Caller) -> Result<Vec<ServicePlacement>, SvcError> {
        // Local committed state on purpose: the post-storm audit asks
        // every replica for its own view and compares.
        let rep = self.rep()?;
        Ok(rep.placements())
    }
}

/// Convenience: resolve the primary CSC through the name service.
pub fn csc_client(ns: &NsHandle) -> Result<crate::types::CscApiClient, SvcError> {
    ns.resolve_as::<crate::types::CscApiClient>(CSC_PATH)
        .map_err(|e| match e {
            ocs_name::NsError::Comm { err } => SvcError::Comm { err },
            other => SvcError::Dependency {
                what: other.to_string(),
            },
        })
}
