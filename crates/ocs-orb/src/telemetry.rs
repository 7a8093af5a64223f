//! The per-node `Telemetry` export surface and breaker→metrics wiring.
//!
//! Every node runs one [`NodeTelemetry`](ocs_telemetry::NodeTelemetry)
//! bundle (tracer + registry). This module gives it an RPC face: a
//! [`TelemetryApi`] servant on a well-known port that RAS-style scrapers
//! and the cluster aggregator poll for a [`MetricsSnapshot`] and the
//! retained span ring. The servant is stateless — it reads whatever the
//! node's services have recorded — so exporting it is one call from any
//! service main ([`export_telemetry`]).
//!
//! The interface declaration lives here rather than in `ocs-telemetry`
//! because stubs need the ORB (and the ORB needs the telemetry types):
//! `ocs-telemetry` stays below `ocs-orb` in the crate DAG.

use std::sync::Arc;

use ocs_sim::{Addr, NetError, PortReq, Rt};
use ocs_telemetry::{MetricsSnapshot, NodeTelemetry, Span};

use crate::auth::NoAuth;
use crate::resilience::{BreakerState, CircuitBreaker};
use crate::server::Orb;
use crate::types::{Caller, ObjRef, OrbError};
use crate::{declare_interface, impl_rpc_fault};
use ocs_wire::impl_wire_enum;

/// Errors from the telemetry interface (communication failures only —
/// a scrape has no application-level failure modes).
#[derive(Clone, Debug, PartialEq)]
pub enum TelemetryError {
    /// Transport/ORB failure.
    Comm {
        /// The underlying error.
        err: OrbError,
    },
}

impl_wire_enum!(TelemetryError {
    0 => Comm { err },
});
impl_rpc_fault!(TelemetryError);

declare_interface! {
    /// Per-node telemetry scrape surface.
    pub interface TelemetryApi [TelemetryClient, TelemetryServant]: "ocs.telemetry" {
        /// A snapshot of the node's metrics registry, plus tracer
        /// book-keeping counters (`trace.spans_dropped`).
        1 => fn metrics(&self) -> Result<MetricsSnapshot, TelemetryError>;
        /// The node's retained finished spans, oldest first.
        2 => fn spans(&self) -> Result<Vec<Span>, TelemetryError>;
    }
}

/// The servant implementation: reads the node's telemetry bundle.
pub struct NodeTelemetryService {
    rt: Rt,
}

impl NodeTelemetryService {
    /// Creates the service for the node behind `rt`.
    pub fn new(rt: Rt) -> NodeTelemetryService {
        NodeTelemetryService { rt }
    }
}

impl TelemetryApi for NodeTelemetryService {
    fn metrics(&self, _caller: &Caller) -> Result<MetricsSnapshot, TelemetryError> {
        let tel = NodeTelemetry::of(&*self.rt);
        let mut snap = tel.registry.snapshot();
        snap.counters
            .insert("trace.spans_dropped".to_string(), tel.tracer.dropped());
        // Flight-recorder evictions, so campaigns notice when a journal
        // wrapped and the postmortem tail is incomplete.
        snap.gauges.insert(
            "telemetry.journal.dropped".to_string(),
            tel.journal.dropped() as i64,
        );
        Ok(snap)
    }

    fn spans(&self, _caller: &Caller) -> Result<Vec<Span>, TelemetryError> {
        Ok(NodeTelemetry::of(&*self.rt).tracer.finished())
    }
}

/// Exports the node's telemetry servant on fixed `port` and starts its
/// ORB (in the calling process's group). The reference uses the STABLE
/// incarnation so scrapers can reconstruct it from the address alone —
/// see [`telemetry_ref`].
pub fn export_telemetry(rt: Rt, port: u16) -> Result<ObjRef, NetError> {
    let orb = Orb::build(
        rt.clone(),
        PortReq::Fixed(port),
        Some(ObjRef::STABLE),
        Arc::new(NoAuth),
    )?;
    let obj = orb.export_root(Arc::new(TelemetryServant(Arc::new(
        NodeTelemetryService::new(rt),
    ))));
    orb.start();
    Ok(obj)
}

/// The telemetry reference for a node known to export on `addr` —
/// scrapers need no name-service round trip.
pub fn telemetry_ref(addr: Addr) -> ObjRef {
    ObjRef {
        addr,
        incarnation: ObjRef::STABLE,
        type_id: TelemetryClient::TYPE_ID,
        object_id: 0,
    }
}

/// Wires `breaker` into `tel`: a per-service state gauge
/// (`orb.breaker.state.<service>`: 0 closed, 1 open, 2 half-open),
/// cluster-aggregatable transition counters (`orb.breaker.opened` /
/// `half_opened` / `closed`), and a flight-recorder entry per
/// transition (`rt` supplies the timestamp).
pub fn bind_breaker(breaker: &CircuitBreaker, rt: &Rt, tel: &NodeTelemetry, service: &str) {
    let gauge = tel.registry.gauge(&format!("orb.breaker.state.{service}"));
    let opened = tel.registry.counter("orb.breaker.opened");
    let half_opened = tel.registry.counter("orb.breaker.half_opened");
    let closed = tel.registry.counter("orb.breaker.closed");
    let journal = Arc::clone(&tel.journal);
    let rt = Arc::clone(rt);
    let service = service.to_string();
    gauge.set(0);
    breaker.set_observer(Box::new(move |from, to| {
        journal.record(
            rt.now(),
            "orb",
            format!("breaker {service}: {from:?} -> {to:?}"),
        );
        match to {
            BreakerState::Closed => {
                gauge.set(0);
                closed.inc();
            }
            BreakerState::Open => {
                gauge.set(1);
                opened.inc();
            }
            BreakerState::HalfOpen => {
                gauge.set(2);
                half_opened.inc();
            }
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::BreakerPolicy;
    use ocs_sim::SimTime;
    use std::time::Duration;

    #[test]
    fn breaker_binding_tracks_state_and_transitions() {
        let sim = ocs_sim::Sim::new(11);
        let node = sim.add_node("n");
        let rt: Rt = node.clone();
        let tel = NodeTelemetry::of(&*node);
        let b = CircuitBreaker::new(BreakerPolicy {
            failure_threshold: 2,
            open_for: Duration::from_secs(1),
        });
        bind_breaker(&b, &rt, &tel, "rds");
        let t = SimTime::from_secs(1);
        b.on_failure(t);
        b.on_failure(t);
        let snap = tel.registry.snapshot();
        assert_eq!(snap.gauge("orb.breaker.state.rds"), 1);
        assert_eq!(snap.counter("orb.breaker.opened"), 1);
        // Probe window elapses → half-open → success closes.
        assert!(matches!(
            b.try_acquire(t + Duration::from_secs(2)),
            crate::resilience::Admission::Admit { probe: true }
        ));
        b.on_success();
        let snap = tel.registry.snapshot();
        assert_eq!(snap.gauge("orb.breaker.state.rds"), 0);
        assert_eq!(snap.counter("orb.breaker.half_opened"), 1);
        assert_eq!(snap.counter("orb.breaker.closed"), 1);
        // Every transition also lands in the flight recorder.
        let journal = tel.journal.events();
        assert!(
            journal
                .iter()
                .any(|e| e.category == "orb" && e.detail.contains("breaker rds")),
            "missing breaker journal entries: {journal:?}"
        );
    }
}
