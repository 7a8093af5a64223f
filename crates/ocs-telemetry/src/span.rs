//! Causal RPC spans.
//!
//! A span covers one RPC from the caller's (client span) or callee's
//! (server span) point of view. The `(trace, span)` pair travels in the
//! ORB request frame; the callee records its server span with the
//! client's span as parent, and any nested calls the servant makes while
//! handling the request become children of the server span — the
//! propagation rides a thread-local, which is sound because the
//! simulator saves and restores it with each process at every switch
//! between process stacks, and a real-runtime task has its thread to
//! itself while it runs (`ocs_sim::trace`).
//!
//! Identifiers embed the allocating node in the high bits and a per-node
//! sequence in the low bits: unique cluster-wide, and — because neither
//! the RNG nor the wall clock is involved — identical across same-seed
//! runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use ocs_sim::{NodeId, RingLog, SimTime};
use ocs_wire::impl_wire_struct;
use parking_lot::Mutex;

// The identity types and the thread-local context moved down to
// `ocs-sim` (the flight-recorder journal stamps records with the active
// trace from below the codec); re-exported here so telemetry users keep
// one import path.
pub use ocs_sim::trace::{current_ctx, set_current_ctx, CtxGuard, SpanCtx, SpanId, TraceId};

/// One finished span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Trace this span belongs to.
    pub trace: TraceId,
    /// This span's id.
    pub span: SpanId,
    /// Parent span id (0 for a root).
    pub parent: SpanId,
    /// Operation name, e.g. `client:itv.mms.open` or `server:itv.mms.open`.
    pub name: String,
    /// Node that recorded the span.
    pub node: NodeId,
    /// Start time (virtual in simulation).
    pub start: SimTime,
    /// End time.
    pub end: SimTime,
    /// Whether the operation returned an error.
    pub err: bool,
}

impl_wire_struct!(Span {
    trace,
    span,
    parent,
    name,
    node,
    start,
    end,
    err,
});

impl Span {
    /// Span duration in microseconds.
    pub fn dur_us(&self) -> u64 {
        self.end.as_micros().saturating_sub(self.start.as_micros())
    }
}

/// How many spans a node retains (ring buffer; older spans are evicted
/// and counted, see [`Tracer::dropped`]).
const SPAN_BUF_CAP: usize = 65_536;

/// Per-node span id allocator and finished-span sink.
pub struct Tracer {
    node: NodeId,
    seq: AtomicU64,
    buf: Mutex<RingLog<Span>>,
}

impl Tracer {
    /// Creates a tracer for `node`.
    pub fn new(node: NodeId) -> Tracer {
        Tracer {
            node,
            seq: AtomicU64::new(1),
            buf: Mutex::new(RingLog::new(SPAN_BUF_CAP)),
        }
    }

    /// The node this tracer allocates ids for.
    pub fn node(&self) -> NodeId {
        self.node
    }

    fn next_id(&self) -> u64 {
        // Node in the high bits (+1 so node 0 still yields nonzero ids),
        // per-node sequence below: unique cluster-wide, deterministic.
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        ((self.node.0 as u64 + 1) << 40) | (seq & ((1 << 40) - 1))
    }

    /// Starts a fresh trace rooted here.
    pub fn new_root(&self) -> SpanCtx {
        let id = self.next_id();
        SpanCtx {
            trace: TraceId(id),
            span: SpanId(id),
        }
    }

    /// Allocates a child span id within `parent`'s trace.
    pub fn child_of(&self, parent: SpanCtx) -> SpanCtx {
        SpanCtx {
            trace: parent.trace,
            span: SpanId(self.next_id()),
        }
    }

    /// Records a finished span.
    pub fn record(&self, span: Span) {
        self.buf.lock().push(span);
    }

    /// Copies out the retained finished spans, oldest first.
    pub fn finished(&self) -> Vec<Span> {
        self.buf.lock().to_vec()
    }

    /// Spans evicted from the ring since creation.
    pub fn dropped(&self) -> u64 {
        self.buf.lock().dropped()
    }
}

/// Groups spans by trace id. Within a trace, spans are ordered by
/// `(start, span id)` — deterministic under the simulated runtime.
pub fn span_forest(spans: &[Span]) -> BTreeMap<TraceId, Vec<Span>> {
    let mut forest: BTreeMap<TraceId, Vec<Span>> = BTreeMap::new();
    for s in spans {
        forest.entry(s.trace).or_default().push(s.clone());
    }
    for trace in forest.values_mut() {
        trace.sort_by_key(|s| (s.start, s.span));
    }
    forest
}

/// Trace ids sorted by total trace duration (max end − min start),
/// slowest first; ties broken by trace id for determinism.
pub fn slowest_traces(forest: &BTreeMap<TraceId, Vec<Span>>) -> Vec<(TraceId, u64)> {
    let mut out: Vec<(TraceId, u64)> = forest
        .iter()
        .map(|(t, spans)| {
            let start = spans.iter().map(|s| s.start).min().unwrap_or_default();
            let end = spans.iter().map(|s| s.end).max().unwrap_or_default();
            (*t, end.as_micros().saturating_sub(start.as_micros()))
        })
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

/// Renders the slowest `top_n` request trees as indented text — the
/// chaos-debugging view: one line per span with node, offset from trace
/// start, and duration.
pub fn render_span_trees(spans: &[Span], top_n: usize) -> String {
    let forest = span_forest(spans);
    let slowest = slowest_traces(&forest);
    let mut out = String::new();
    for (trace, total_us) in slowest.iter().take(top_n) {
        let spans = &forest[trace];
        let t0 = spans.iter().map(|s| s.start).min().unwrap_or_default();
        let root_name = spans
            .iter()
            .find(|s| s.parent.0 == 0)
            .or(spans.first())
            .map(|s| s.name.as_str())
            .unwrap_or("?");
        let _ = writeln!(
            out,
            "trace {:#018x} total {:.3}s root {}",
            trace.0,
            *total_us as f64 / 1e6,
            root_name
        );
        // Index children; orphans (parent not retained) print at depth 1.
        let ids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.span.0).collect();
        let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
        let mut roots: Vec<&Span> = Vec::new();
        for s in spans {
            if s.parent.0 != 0 && ids.contains(&s.parent.0) {
                children.entry(s.parent.0).or_default().push(s);
            } else {
                roots.push(s);
            }
        }
        fn emit(
            out: &mut String,
            s: &Span,
            depth: usize,
            t0: SimTime,
            children: &BTreeMap<u64, Vec<&Span>>,
        ) {
            let off = s.start.as_micros().saturating_sub(t0.as_micros());
            let _ = writeln!(
                out,
                "{}{} {} +{:.3}s [{:.3}s]{}",
                "  ".repeat(depth + 1),
                s.name,
                s.node,
                off as f64 / 1e6,
                s.dur_us() as f64 / 1e6,
                if s.err { " ERR" } else { "" }
            );
            if let Some(kids) = children.get(&s.span.0) {
                for k in kids {
                    emit(out, k, depth + 1, t0, children);
                }
            }
        }
        for r in &roots {
            emit(&mut out, r, 0, t0, &children);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, id: u64, parent: u64, name: &str, start: u64, end: u64) -> Span {
        Span {
            trace: TraceId(trace),
            span: SpanId(id),
            parent: SpanId(parent),
            name: name.to_string(),
            node: NodeId(1),
            start: SimTime::from_micros(start),
            end: SimTime::from_micros(end),
            err: false,
        }
    }

    #[test]
    fn ids_are_per_node_deterministic() {
        let t = Tracer::new(NodeId(3));
        let a = t.new_root();
        let b = t.child_of(a);
        assert_eq!(a.trace.0 >> 40, 4);
        assert_ne!(a.span, b.span);
        assert_eq!(a.trace, b.trace);
        let t2 = Tracer::new(NodeId(3));
        assert_eq!(t2.new_root(), a, "same node, fresh tracer → same ids");
    }

    #[test]
    fn ctx_guard_restores() {
        assert_eq!(current_ctx(), None);
        let outer = SpanCtx {
            trace: TraceId(7),
            span: SpanId(8),
        };
        let _g = CtxGuard::enter(outer);
        assert_eq!(current_ctx(), Some(outer));
        {
            let inner = SpanCtx {
                trace: TraceId(9),
                span: SpanId(10),
            };
            let _g2 = CtxGuard::enter(inner);
            assert_eq!(current_ctx(), Some(inner));
        }
        assert_eq!(current_ctx(), Some(outer));
        drop(_g);
        assert_eq!(current_ctx(), None);
    }

    #[test]
    fn render_orders_slowest_first() {
        let spans = vec![
            span(1, 1, 0, "client:fast.op", 0, 100),
            span(2, 2, 0, "client:slow.op", 0, 5000),
            span(2, 3, 2, "server:slow.op", 10, 4900),
        ];
        let out = render_span_trees(&spans, 10);
        let slow_pos = out.find("slow.op").unwrap();
        let fast_pos = out.find("fast.op").unwrap();
        assert!(slow_pos < fast_pos, "slowest trace renders first:\n{out}");
        assert!(out.contains("server:slow.op"), "{out}");
        // Child is indented deeper than its parent.
        let child_line = out
            .lines()
            .find(|l| l.contains("server:slow.op"))
            .unwrap();
        assert!(child_line.starts_with("    "), "{out}");
    }

    #[test]
    fn span_round_trips_on_wire() {
        use ocs_wire::Wire;
        let s = span(1, 2, 3, "x", 4, 5);
        assert_eq!(Span::from_bytes(&s.to_bytes()).unwrap(), s);
    }
}
