//! The OCS Resource Audit Service (paper §7) and Settop Manager (§3.3).
//!
//! Services must recover resources when the clients holding them crash.
//! The RAS is the centralized tracker the paper chose over duration
//! timeouts, short leases and per-service pinging (§7.1; E3 models all
//! four): each server runs one instance, services call the local
//! `checkStatus`, and liveness knowledge flows in over three paths — SSC
//! callbacks for local objects, peer-RAS polls for remote objects,
//! Settop Manager polls for settops. The RAS holds no durable state:
//! after a restart it relearns its tracking set from the questions
//! clients ask (§7.2).
//!
//! [`RasMonitor`] is the client-side callback library; [`RasOracle`]
//! adapts `checkStatus` into the name service's audit hook (§4.7).

mod monitor;
mod oracle;
mod service;
mod settop_mgr;
mod types;

pub use monitor::{DeathCallback, RasMonitor};
pub use oracle::RasOracle;
pub use service::{Ras, RasConfig, RAS_PORT};
pub use settop_mgr::{AgentRunner, SettopMgr, SETTOP_AGENT_PORT, SETTOP_MGR_PATH, SETTOP_MGR_PORT};
pub use types::{
    EntityId, EntityStatus, RasApi, RasApiClient, RasApiServant, RasError, SettopAgent,
    SettopAgentClient, SettopAgentServant, SettopMgrApi, SettopMgrClient, SettopMgrServant,
};
