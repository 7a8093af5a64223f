//! The OCS service controllers (paper §6).
//!
//! * [`Ssc`] — the Server Service Controller: one per server, started at
//!   node boot ("by init"); starts the basic services, monitors every
//!   managed service's process group, restarts the dead ones, and feeds
//!   object-liveness callbacks to the Resource Audit Service.
//! * [`Csc`] — the Cluster Service Controller: a 3-replica VSR group
//!   (see [`SscReplica`]) whose master pings every SSC, restarts
//!   placement on recovered nodes, and exposes the operator tools
//!   (`move_service`, `set_placement`). The placement/config table is
//!   the replicated [`SscTable`] machine: every placement decision is
//!   an epoch-stamped op on the shared `ocs-vsr` log, so controller
//!   fail-over preserves decisions instead of regenerating them.

mod csc;
mod ssc;
mod sscrep;
mod ssctable;
mod types;

pub use csc::{csc_client, Csc, CscConfig, CSC_PATH, CSC_PORT};
pub use ssc::{ServiceDef, ServiceFactory, ServiceRunCtx, Ssc, SscConfig, SSC_CTX, SSC_PORT};
pub use sscrep::{SscReplica, SscReplicaConfig};
pub use ssctable::{DownMark, SscSnapshot, SscTable, SscUpdate, SvcRecord, TOKEN_WINDOW};
pub use types::{
    CscApi, CscApiClient, CscApiServant, NodeServices, ServiceStatus, SscApi, SscApiClient,
    SscApiServant, SscCallback, SscCallbackClient, SscCallbackServant, SvcError,
};
