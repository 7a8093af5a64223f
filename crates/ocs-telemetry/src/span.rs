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
//!
//! A call span's name is made of static strings — the side, the
//! interface and the method ([`CallSpan`]). The tracer keeps each span
//! as one fixed-size record of at most 48 bytes ([`SPAN_RECORD_BYTES`]):
//! trace, span and parent ids, start and end, the side and error bits,
//! and a `u16` id of the operation in a per-tracer op table, entered at
//! the operation's first use under the ring's lock
//! ([`ocs_sim::ring::RecordRing`]). An ORB call formats and allocates
//! nothing, and a [`Span`]'s `name` is rendered only when the span is
//! read. A span recorded whole ([`Tracer::record`]: a request for no
//! exported object, a benchmark probe) keeps its [`Span`] in a queue
//! beside the ring.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use ocs_sim::ring::{Record, RecordRing, StaticStr};
use ocs_sim::{NodeId, SimTime};
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

/// Which end of a call a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// The caller's span, `client:<op>`.
    Client,
    /// The callee's span, `server:<op>`.
    Server,
}

/// An operation's name, `<interface>.<method>`, as the static strings it
/// is made of: a generated stub's whole `"itv.mms.open"`, or an
/// interface and a method named apart.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpName {
    iface: &'static str,
    method: Option<&'static str>,
}

impl OpName {
    /// The operation `<iface>.<method>`.
    pub const fn of(iface: &'static str, method: &'static str) -> OpName {
        OpName {
            iface,
            method: Some(method),
        }
    }
}

/// An operation named whole, e.g. `"itv.mms.open"`.
impl From<&'static str> for OpName {
    fn from(op: &'static str) -> OpName {
        OpName {
            iface: op,
            method: None,
        }
    }
}

impl fmt::Display for OpName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.method {
            Some(method) => write!(f, "{}.{method}", self.iface),
            None => f.write_str(self.iface),
        }
    }
}

/// A finished call span as the ORB records it ([`Tracer::record_call`]):
/// a [`Span`] of the tracer's node named `<side>:<op>`.
#[derive(Clone, Copy, Debug)]
pub struct CallSpan {
    /// The span's trace and id.
    pub ctx: SpanCtx,
    /// Parent span id (0 for a root).
    pub parent: SpanId,
    /// Which end of the call.
    pub side: Side,
    /// The operation called.
    pub op: OpName,
    /// Start time.
    pub start: SimTime,
    /// End time.
    pub end: SimTime,
    /// Whether the call failed.
    pub err: bool,
}

/// A retained span: one fixed-size record. A call span keeps its ids,
/// times, side and error bits and the `u16` id of its operation in the
/// tracer's op table; a span recorded whole keeps only its flags here,
/// and the [`Span`] waits in the ring's payload queue.
#[derive(Clone, Copy)]
struct Rec {
    trace: TraceId,
    span: SpanId,
    parent: SpanId,
    start: SimTime,
    end: SimTime,
    op: u16,
    flags: u8,
}

/// [`Rec::flags`]: the server side of a call.
const SERVER: u8 = 1;
/// [`Rec::flags`]: the call failed.
const ERR: u8 = 2;
/// [`Rec::flags`]: the span is the record's payload.
const WHOLE: u8 = 4;

impl Record for Rec {
    fn has_payload(&self) -> bool {
        self.flags & WHOLE != 0
    }
}

impl Rec {
    /// The record of a span kept whole.
    const WHOLE: Rec = Rec {
        trace: TraceId(0),
        span: SpanId(0),
        parent: SpanId(0),
        start: SimTime::ZERO,
        end: SimTime::ZERO,
        op: 0,
        flags: WHOLE,
    };

    /// The call span this record keeps, its operation being `op`.
    fn call(&self, op: OpName) -> CallSpan {
        CallSpan {
            ctx: SpanCtx {
                trace: self.trace,
                span: self.span,
            },
            parent: self.parent,
            side: if self.flags & SERVER != 0 {
                Side::Server
            } else {
                Side::Client
            },
            op,
            start: self.start,
            end: self.end,
            err: self.flags & ERR != 0,
        }
    }
}

/// An op-table key: an [`OpName`]'s strings by address.
#[derive(Clone, Copy, PartialEq, Eq)]
struct OpKey {
    iface: StaticStr,
    method: Option<StaticStr>,
}

impl Hash for OpKey {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.iface.hash(h);
        if let Some(method) = self.method {
            method.hash(h);
        }
    }
}

impl OpName {
    fn key(self) -> OpKey {
        OpKey {
            iface: StaticStr(self.iface),
            method: self.method.map(StaticStr),
        }
    }

    fn of_key(key: OpKey) -> OpName {
        OpName {
            iface: key.iface.0,
            method: key.method.map(|m| m.0),
        }
    }
}

impl CallSpan {
    fn name(&self) -> String {
        match self.side {
            Side::Client => format!("client:{}", self.op),
            Side::Server => format!("server:{}", self.op),
        }
    }

    fn render(&self, node: NodeId) -> Span {
        Span {
            trace: self.ctx.trace,
            span: self.ctx.span,
            parent: self.parent,
            name: self.name(),
            node,
            start: self.start,
            end: self.end,
            err: self.err,
        }
    }
}

/// How many spans a node retains (ring buffer; older spans are evicted
/// and counted, see [`Tracer::dropped`]).
pub const SPAN_BUF_CAP: usize = 65_536;

/// Bytes one retained span takes in the ring.
pub const SPAN_RECORD_BYTES: usize = std::mem::size_of::<Rec>();

const _: () = assert!(SPAN_RECORD_BYTES <= 48);

type Ring = RecordRing<Rec, OpKey, Span>;

/// Per-node span id allocator and finished-span sink.
pub struct Tracer {
    node: NodeId,
    seq: AtomicU64,
    ring: Mutex<Ring>,
}

impl Tracer {
    /// Creates a tracer for `node`.
    pub fn new(node: NodeId) -> Tracer {
        Tracer {
            node,
            seq: AtomicU64::new(1),
            ring: Mutex::new(Ring::new(SPAN_BUF_CAP)),
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

    /// Records a finished span, kept whole.
    pub fn record(&self, span: Span) {
        self.ring.lock().push(Rec::WHOLE, Some(span));
    }

    /// Records a finished call span of this node: one record, its
    /// operation an id in the tracer's op table. Formats nothing, and
    /// allocates nothing once the operation is in the table and the ring
    /// has grown to its capacity.
    pub fn record_call(&self, span: CallSpan) {
        let mut ring = self.ring.lock();
        let Some(op) = ring.names().id(span.op.key()) else {
            // The op table is full: keep this one whole.
            ring.push(Rec::WHOLE, Some(span.render(self.node)));
            return;
        };
        let side = match span.side {
            Side::Client => 0,
            Side::Server => SERVER,
        };
        ring.push(
            Rec {
                trace: span.ctx.trace,
                span: span.ctx.span,
                parent: span.parent,
                start: span.start,
                end: span.end,
                op,
                flags: side | if span.err { ERR } else { 0 },
            },
            None,
        );
    }

    /// Copies out the retained finished spans, oldest first.
    pub fn finished(&self) -> Vec<Span> {
        let ring = self.ring.lock();
        ring.iter()
            .map(|(r, whole)| match whole {
                Some(span) => span.clone(),
                None => r.call(OpName::of_key(ring.name(r.op))).render(self.node),
            })
            .collect()
    }

    /// Spans evicted from the ring since creation.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().dropped()
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
    fn a_call_span_reads_back_under_its_rendered_name() {
        let t = Tracer::new(NodeId(4));
        let ctx = t.new_root();
        let call = |side, op| CallSpan {
            ctx,
            parent: SpanId(0),
            side,
            op,
            start: SimTime::from_micros(1),
            end: SimTime::from_micros(3),
            err: false,
        };
        t.record_call(call(Side::Client, OpName::from("itv.mms.open")));
        t.record_call(call(Side::Server, OpName::of("itv.cm-peer", "prepare")));
        t.record(span(9, 9, 0, "whole", 0, 1));
        let names: Vec<String> = t.finished().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["client:itv.mms.open", "server:itv.cm-peer.prepare", "whole"]);
        let first = &t.finished()[0];
        assert_eq!((first.node, first.trace, first.dur_us()), (NodeId(4), ctx.trace, 2));
    }

    #[test]
    fn a_span_record_is_48_bytes() {
        assert_eq!(SPAN_RECORD_BYTES, 48);
    }

    #[test]
    fn whole_spans_keep_their_place_and_leave_with_their_records() {
        let t = Tracer::new(NodeId(2));
        let call = |n: u64| CallSpan {
            ctx: SpanCtx {
                trace: TraceId(n),
                span: SpanId(n),
            },
            parent: SpanId(0),
            side: Side::Client,
            op: OpName::from("itv.cmgr.allocate"),
            start: SimTime::from_micros(n),
            end: SimTime::from_micros(n + 1),
            err: n % 2 == 1,
        };
        for n in 0..SPAN_BUF_CAP as u64 {
            if n % 1000 == 0 {
                t.record(span(n, n, 0, &format!("whole{n}"), n, n + 1));
            } else {
                t.record_call(call(n));
            }
        }
        for n in 0..1500 {
            t.record_call(call(SPAN_BUF_CAP as u64 + n));
        }
        assert_eq!(t.dropped(), 1500);
        let spans = t.finished();
        assert_eq!(spans.len(), SPAN_BUF_CAP);
        for s in &spans {
            let n = s.trace.0;
            assert_eq!(s.span.0, n);
            if n % 1000 == 0 && n < SPAN_BUF_CAP as u64 {
                assert_eq!((s.name.clone(), s.node), (format!("whole{n}"), NodeId(1)));
            } else {
                assert_eq!(s.name, "client:itv.cmgr.allocate");
                assert_eq!((s.node, s.err, s.dur_us()), (NodeId(2), n % 2 == 1, 1));
            }
        }
        assert_eq!(spans[0].trace.0, 1500);
        assert_eq!(spans[500].name, "whole2000");
    }

    #[test]
    fn a_full_op_table_keeps_spans_whole() {
        let t = Tracer::new(NodeId(5));
        let call = |op: &'static str| CallSpan {
            ctx: SpanCtx {
                trace: TraceId(1),
                span: SpanId(2),
            },
            parent: SpanId(0),
            side: Side::Server,
            op: OpName::from(op),
            start: SimTime::from_micros(1),
            end: SimTime::from_micros(2),
            err: true,
        };
        for i in 0..u16::MAX {
            t.record_call(call(Box::leak(format!("op{i}").into_boxed_str())));
        }
        t.record_call(call("one.more"));
        let last = t.finished().pop().unwrap();
        assert_eq!(
            (last.name.as_str(), last.node, last.err),
            ("server:one.more", NodeId(5), true)
        );
        assert_eq!(t.finished()[u16::MAX as usize - 1].name, "server:op65534");
    }

    #[test]
    fn span_round_trips_on_wire() {
        use ocs_wire::Wire;
        let s = span(1, 2, 3, "x", 4, 5);
        assert_eq!(Span::from_bytes(&s.to_bytes()).unwrap(), s);
    }
}
