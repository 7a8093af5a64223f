//! The Settop Manager (§3.3): tracks settop up/down status by pinging a
//! tiny agent object on every registered settop.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use ocs_orb::{Caller, ClientCtx, ObjRef, Orb};
use ocs_sim::{Addr, NetError, NodeId, NodeRtExt, PortReq, Rt};
use parking_lot::Mutex;

use crate::types::{
    EntityStatus, RasError, SettopAgent, SettopAgentClient, SettopAgentServant, SettopMgrApi,
    SettopMgrServant,
};

/// Request port of the manager's ORB.
pub const SETTOP_MGR_PORT: u16 = 16;

/// Name the manager is bound at.
pub const SETTOP_MGR_PATH: &str = "svc/settop-mgr";

/// Port of the liveness agent on every settop.
pub const SETTOP_AGENT_PORT: u16 = 99;

/// Ping period per registered settop.
const PING_INTERVAL: Duration = Duration::from_secs(5);

/// Consecutive missed pings before a settop is declared dead.
const PING_FAILURES: u32 = 2;

struct SettopEntry {
    agent_port: u16,
    status: EntityStatus,
    failures: u32,
    seq: u64,
}

/// The Settop Manager service.
pub struct SettopMgr {
    rt: Rt,
    settops: Mutex<HashMap<NodeId, SettopEntry>>,
}

impl SettopMgr {
    /// Starts the manager; returns the instance and its object reference.
    pub fn start(rt: Rt) -> Result<(Arc<SettopMgr>, ObjRef), NetError> {
        let mgr = Arc::new(SettopMgr {
            rt: rt.clone(),
            settops: Mutex::new(HashMap::new()),
        });
        let orb = Orb::new(rt.clone(), PortReq::Fixed(SETTOP_MGR_PORT))?;
        let mgr_ref = orb.export_root(Arc::new(SettopMgrServant(Arc::clone(&mgr))));
        orb.start();
        let m = Arc::clone(&mgr);
        rt.spawn_fn("settop-mgr-ping", move || m.ping_loop());
        Ok((mgr, mgr_ref))
    }

    /// Number of registered settops.
    pub fn registered(&self) -> usize {
        self.settops.lock().len()
    }

    fn ping_loop(self: Arc<Self>) {
        loop {
            self.rt.sleep(PING_INTERVAL);
            let mut targets: Vec<(NodeId, u16, u64)> = {
                let settops = self.settops.lock();
                settops
                    .iter()
                    .map(|(n, e)| (*n, e.agent_port, e.seq))
                    .collect()
            };
            // Ping in node order: the map's iteration order is not
            // deterministic, and ping order shapes the event trace.
            targets.sort_by_key(|(n, _, _)| n.0);
            for (node, port, seq) in targets {
                let agent_ref = ObjRef {
                    addr: Addr::new(node, port),
                    incarnation: ObjRef::STABLE,
                    type_id: SettopAgentClient::TYPE_ID,
                    object_id: 0,
                };
                let ctx = ClientCtx::new(self.rt.clone()).with_timeout(PING_INTERVAL / 2);
                let alive = SettopAgentClient::attach(ctx, agent_ref)
                    .and_then(|a| {
                        a.ping(seq).map_err(|e| match e {
                            RasError::Comm { err } => err,
                        })
                    })
                    .is_ok();
                let mut settops = self.settops.lock();
                if let Some(e) = settops.get_mut(&node) {
                    e.seq += 1;
                    if alive {
                        e.failures = 0;
                        e.status = EntityStatus::Alive;
                    } else {
                        e.failures += 1;
                        if e.failures >= PING_FAILURES {
                            e.status = EntityStatus::Dead;
                        }
                    }
                }
            }
        }
    }
}

impl SettopMgrApi for SettopMgr {
    fn register(&self, _caller: &Caller, settop: NodeId, agent_port: u16) -> Result<(), RasError> {
        self.settops.lock().insert(
            settop,
            SettopEntry {
                agent_port,
                status: EntityStatus::Alive, // It just talked to us.
                failures: 0,
                seq: 0,
            },
        );
        Ok(())
    }

    fn status(
        &self,
        _caller: &Caller,
        settops: Vec<NodeId>,
    ) -> Result<Vec<EntityStatus>, RasError> {
        let map = self.settops.lock();
        Ok(settops
            .into_iter()
            .map(|n| {
                map.get(&n)
                    .map(|e| e.status)
                    .unwrap_or(EntityStatus::Unknown)
            })
            .collect())
    }
}

/// The agent a settop runs so the manager can ping it. Start one per
/// settop at boot; it lives in the Application Manager's process group,
/// so a settop "crash" (group kill) silences it.
pub struct AgentRunner;

impl AgentRunner {
    /// Opens the agent endpoint at [`SETTOP_AGENT_PORT`] and serves pings
    /// where they arrive.
    pub fn start(rt: Rt) -> Result<ObjRef, NetError> {
        struct AgentImpl;
        impl SettopAgent for AgentImpl {
            /// `ping` echoes its argument and holds no state: it never
            /// waits, and there is nothing to serialise.
            fn runs_inline(&self, _method: u32) -> bool {
                true
            }

            fn ping(&self, _caller: &Caller, seq: u64) -> Result<u64, RasError> {
                Ok(seq)
            }
        }
        let orb = Orb::build(
            rt,
            PortReq::Fixed(SETTOP_AGENT_PORT),
            Some(ObjRef::STABLE),
            Arc::new(ocs_orb::NoAuth),
        )?;
        let agent_ref = orb.export_root(Arc::new(SettopAgentServant(Arc::new(AgentImpl))));
        orb.start();
        Ok(agent_ref)
    }
}
