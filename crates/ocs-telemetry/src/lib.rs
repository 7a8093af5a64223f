//! Causal RPC tracing and deterministic metrics for the OCS stack.
//!
//! The paper's availability machinery (§4, §8) assumes operators can see
//! what the system is doing; this crate is the substrate that makes the
//! reproduction observable. It provides three pieces, all deterministic
//! under the simulated runtime:
//!
//! * **Spans** ([`Span`], [`SpanCtx`], [`Tracer`]): every ORB client call
//!   allocates a span; the (trace, span) pair travels in the request
//!   frame so a settop channel-change fans out into one causally-linked
//!   tree across name service → CM → MMS → MDS. Span/trace identifiers
//!   come from per-node counters (node id in the high bits), never from
//!   the RNG or the wall clock, so two same-seed runs produce identical
//!   trees.
//! * **Metrics** ([`Registry`], [`Counter`], [`Gauge`], [`Histo`]):
//!   lock-cheap atomics behind a name-keyed registry, with fixed-bucket
//!   histograms (virtual microseconds — no wall-clock anywhere).
//! * **Per-node storage** ([`NodeTelemetry`]): one tracer + registry per
//!   node, hung off the runtime's extension map
//!   ([`ocs_sim::Extensions`]), so any service on a node reaches the same
//!   instance via `NodeTelemetry::of(&rt)` without constructor plumbing.
//!
//! Timestamps are [`SimTime`]: virtual time in simulation, relative
//! monotonic time on the real runtime. Nothing in this crate reads the
//! wall clock or draws randomness, which is what lets the chaos tests
//! assert byte-identical span trees across same-seed runs.

mod metrics;
mod span;

pub use metrics::{Counter, Gauge, Histo, HistoSnapshot, MetricsSnapshot, Registry, DUR_BOUNDS_US};
// `RingLog`, the trace-identity types and the flight-recorder journal
// live in `ocs-sim` (below the codec, so the runtime itself can record);
// re-exported here so observability users find them in one place.
pub use ocs_sim::journal::{merge_journals, render_timeline, Journal, JournalEvent};
pub use ocs_sim::ring::RingLog;
pub use span::{
    current_ctx, render_span_trees, set_current_ctx, slowest_traces, span_forest, CallSpan,
    CtxGuard, OpName, Side, Span, SpanCtx, SpanId, TraceId, Tracer,
};

use std::sync::Arc;

use ocs_sim::{NodeId, NodeRt};

/// The per-node telemetry bundle: one [`Tracer`], one [`Registry`] and
/// the node's flight-recorder [`Journal`], shared by every service on
/// the node.
pub struct NodeTelemetry {
    /// The node this bundle belongs to.
    pub node: NodeId,
    /// Finished-span sink and id allocator.
    pub tracer: Tracer,
    /// Name-keyed counters/gauges/histograms.
    pub registry: Registry,
    /// The node's flight recorder (the same instance runtime-level code
    /// reaches via `Journal::of`; pre-resolved here so instrumented
    /// services skip the extensions lookup).
    pub journal: Arc<Journal>,
}

impl NodeTelemetry {
    /// The node's telemetry bundle, installed on first use. Every handle
    /// to the same node — client stubs, servants, controllers — sees the
    /// same instance.
    pub fn of(rt: &dyn NodeRt) -> Arc<NodeTelemetry> {
        let node = rt.node();
        let journal = Journal::of(rt);
        rt.extensions().get_or_init(|| NodeTelemetry {
            node,
            tracer: Tracer::new(node),
            registry: Registry::new(),
            journal,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_telemetry_is_shared_per_node() {
        let sim = ocs_sim::Sim::new(1);
        let a = sim.add_node("a");
        let t1 = NodeTelemetry::of(&*a);
        let t2 = NodeTelemetry::of(&*sim.node_handle(a.node()));
        t1.registry.counter("x").inc();
        assert_eq!(t2.registry.counter("x").get(), 1);
        let b = sim.add_node("b");
        assert_eq!(NodeTelemetry::of(&*b).registry.counter("x").get(), 0);
    }
}
