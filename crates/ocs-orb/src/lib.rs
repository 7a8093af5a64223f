//! The OCS object exchange layer (paper §3.2).
//!
//! Distributed objects over the `ocs-sim` runtime: object references that
//! carry an incarnation timestamp and become invalid when their
//! implementing process dies, a per-process [`Orb`] with an object table
//! and single-threaded or process-per-request dispatch, client proxies
//! with dead-reference detection, pluggable per-call authentication, and
//! the [`declare_interface!`] macro standing in for the IDL compiler.
//!
//! The developer workflow mirrors the paper's §9.1 recipe:
//!
//! 1. Declare the interface with [`declare_interface!`].
//! 2. Implement the generated trait.
//! 3. Export the implementation on an [`Orb`] and start it.
//! 4. Bind the object reference into the name service (crate `ocs-name`).
//! 5. Clients resolve the name and invoke methods through the proxy.

mod auth;
mod client;
mod interface;
mod port;
mod resilience;
mod server;
pub mod telemetry;
mod types;

pub use auth::{ClientAuth, NamedPrincipal, NoAuth, ServerAuth};
pub use client::{CallOpts, ClientCtx};
pub use port::{CallPort, Gather, OnReply};
pub use resilience::{
    Admission, BreakerObserver, BreakerPolicy, BreakerState, CircuitBreaker, RetryPolicy,
};
pub use server::{Orb, Servant};
pub use telemetry::{
    bind_breaker, export_telemetry, telemetry_ref, NodeTelemetryService, TelemetryApi,
    TelemetryClient, TelemetryError, TelemetryServant,
};
pub use types::{Caller, ObjRef, OrbError, Principal, Proxy, ReplyTo, RpcFault};

// Names a `CallPort` call's client span.
pub use ocs_telemetry::OpName;
// Re-exported so generated code can reference them from user crates.
pub use bytes;
pub use ocs_wire;
