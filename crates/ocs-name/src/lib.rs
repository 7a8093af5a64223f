//! The OCS name service (paper §4) and its client library.
//!
//! The name service is the system's fundamental availability tool:
//!
//! * a hierarchical, Unix-like name space of [`NamingContext`] objects,
//!   resolvable and listable at **any** replica (reads are local);
//! * [`ReplicatedContext`](SelectorSpec)s whose *selector objects* choose
//!   one of several bound replicas per resolve — hiding replication from
//!   clients and implementing the paper's per-neighborhood and per-server
//!   load-spreading (§5.1);
//! * replication by Viewstamped Replication (`ocs-vsr`): all mutations
//!   flow through a majority-committed update log sequenced by the view
//!   primary, with sub-second view changes on primary failure and
//!   snapshot-based state transfer for rejoining replicas — replacing
//!   the paper's ~25 s master re-election window (§4.6, ROADMAP item 1);
//! * *auditing*: the master removes bindings whose objects have died,
//!   within seconds, driven by a liveness oracle (the Resource Audit
//!   Service in the full system, §4.7) — which is what lets a §5.2
//!   backup's retried `bind` take over from a dead primary;
//! * the client-side rebind library (§8.2): [`Rebinding`] proxies
//!   re-resolve and retry transparently when a reference dies.

mod cache;
mod client;
mod iface;
mod replica;
mod selector;
mod state;
mod types;

pub use cache::{Cached, ResolveCache};
pub use client::{
    acquire_primary, advertise, Lookup, NsBootstrap, NsHandle, Origin, RebindPolicy, Rebinding,
    SharedRebinding, ADVERTISE_EVERY,
};
pub use iface::{
    NamingContext, NamingContextClient, NamingContextServant, Selector, SelectorClient,
    SelectorServant, NAMING_TYPE_ID, NAMING_TYPE_NAME,
};
pub use replica::{AlwaysAlive, LivenessOracle, NsConfig, NsReplica};
pub use selector::{eval_static, StaticEval};
pub use state::{
    Context, CtxId, Entry, NsState, ResolveOut, SelectorEval, SnapCtx, Snapshot, ROOT_CTX,
};
pub use types::{split_path, Binding, CommitPoint, NsError, NsUpdate, SelectorSpec};
