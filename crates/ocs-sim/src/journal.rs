//! The flight recorder: an always-on, per-node, bounded journal of
//! failure-relevant events.
//!
//! Counters say *how many* times a breaker opened; after a misbehaving
//! chaos run an operator needs *what happened when*. Every node carries
//! one [`Journal`] — a tail-keeping [`RingLog`] of structured
//! [`JournalEvent`]s — hung off the runtime's per-node
//! [`Extensions`](crate::rt::Extensions) map exactly like the telemetry
//! registry, so the fault injector, the ORB resilience layer, the name
//! service's replication machinery, the connection manager and the real
//! transport can all append without threading a handle anywhere.
//!
//! Rules of the road:
//!
//! * **Trace-invisible.** Recording never touches the kernel (no
//!   `trace_note`, no sends, no sleeps), so same-seed simulations keep
//!   bit-identical event-trace hashes whether or not anyone reads the
//!   journal.
//! * **Deterministic.** Timestamps are the runtime clock (virtual in
//!   simulation), sequence numbers are per-node, and no wall clock or
//!   RNG is involved — two same-seed runs produce byte-identical
//!   journals (asserted by the postmortem tests in `itv-cluster`).
//! * **Cheap.** One short mutex hold and a `String`; the hot message
//!   path writes nothing (guarded by E18's journal-overhead leg).
//!
//! Black-box behaviour: process-group kills and simulated-process panics
//! dump the owning node's journal tail to stderr (see
//! [`Journal::dump_tail`]), the way a flight recorder survives the
//! crash it just witnessed.

use std::borrow::Cow;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::ring::RingLog;
use crate::rt::{NodeId, NodeRt};
use crate::time::SimTime;
use crate::trace::{current_ctx, TraceId};

/// Events one node's journal retains (tail-keeping; older entries are
/// evicted and counted — see [`Journal::dropped`]).
pub const JOURNAL_CAP: usize = 16_384;

/// How many tail entries a black-box dump prints.
pub const DUMP_TAIL: usize = 12;

/// One flight-recorder entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalEvent {
    /// When it happened (virtual time in simulation, monotonic-relative
    /// on the real runtime).
    pub ts: SimTime,
    /// The node whose journal recorded it.
    pub node: NodeId,
    /// Per-node sequence number: breaks timestamp ties so a merged
    /// timeline preserves each node's recording order.
    pub seq: u64,
    /// The trace that was active when the event fired (0 = untraced),
    /// linking journal lines to the span forest.
    pub trace: TraceId,
    /// Subsystem tag, e.g. `fault`, `orb`, `ns.vsr`, `cm.lease`,
    /// `real.net`, `proc`.
    pub category: &'static str,
    /// Human-readable description of the transition. `Cow` so hot
    /// paths can record static literals without allocating.
    pub detail: Cow<'static, str>,
}

impl JournalEvent {
    /// Renders the event as one timeline line. Postmortem merges reuse
    /// this, so a per-node dump and a cluster timeline read identically.
    pub fn render_line(&self) -> String {
        let mut s = format!(
            "[{}] {:>4} {:<9} {}",
            self.ts, self.node, self.category, self.detail
        );
        if self.trace.0 != 0 {
            s.push_str(&format!("  [trace {}]", self.trace.0));
        }
        s
    }
}

struct JournalBuf {
    seq: u64,
    log: RingLog<JournalEvent>,
}

/// A node's flight recorder. Obtain with [`Journal::of`]; hold the
/// `Arc` where the call site is hot (pre-resolved handle, like the
/// metrics registry).
pub struct Journal {
    node: NodeId,
    buf: Mutex<JournalBuf>,
}

impl Journal {
    /// Creates an empty journal for `node`.
    pub fn new(node: NodeId) -> Journal {
        Journal {
            node,
            buf: Mutex::new(JournalBuf {
                seq: 0,
                log: RingLog::new(JOURNAL_CAP),
            }),
        }
    }

    /// The node's journal, installed in its runtime extensions on first
    /// use. Every handle to the same node sees the same journal.
    pub fn of<R: NodeRt + ?Sized>(rt: &R) -> Arc<Journal> {
        let node = rt.node();
        rt.extensions().get_or_init(|| Journal::new(node))
    }

    /// Appends to `rt`'s node journal, stamped with the runtime's clock:
    /// what a service records a transition with.
    pub fn note<R: NodeRt + ?Sized>(
        rt: &R,
        category: &'static str,
        detail: impl Into<Cow<'static, str>>,
    ) {
        Journal::of(rt).record(rt.now(), category, detail);
    }

    /// The node this journal belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Appends an event stamped `ts`, capturing the calling process's
    /// current trace context (if any).
    pub fn record(
        &self,
        ts: SimTime,
        category: &'static str,
        detail: impl Into<Cow<'static, str>>,
    ) {
        let trace = current_ctx().map(|c| c.trace).unwrap_or_default();
        let mut b = self.buf.lock();
        let seq = b.seq;
        b.seq += 1;
        let node = self.node;
        b.log.push(JournalEvent {
            ts,
            node,
            seq,
            trace,
            category,
            detail: detail.into(),
        });
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> Vec<JournalEvent> {
        self.buf.lock().log.to_vec()
    }

    /// The last `n` retained events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<JournalEvent> {
        let b = self.buf.lock();
        let skip = b.log.len().saturating_sub(n);
        b.log.iter().skip(skip).cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.lock().log.len()
    }

    /// Whether the journal is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.lock().log.is_empty()
    }

    /// Events evicted since creation (surfaced cluster-wide as the
    /// `telemetry.journal.dropped` gauge).
    pub fn dropped(&self) -> u64 {
        self.buf.lock().log.dropped()
    }

    /// Black-box dump: prints the journal tail to stderr under a
    /// `reason` header. Called on process-group kills and simulated
    /// panics; stderr so captured experiment stdout stays clean.
    pub fn dump_tail(&self, reason: &str) {
        let tail = self.tail(DUMP_TAIL);
        let mut out = format!(
            "--- flight recorder: {} on {} ({} of {} events) ---\n",
            reason,
            self.node,
            tail.len(),
            self.len()
        );
        for ev in &tail {
            out.push_str(&ev.render_line());
            out.push('\n');
        }
        eprint!("{out}");
    }
}

/// Merges per-node journals into one causally-ordered timeline:
/// timestamp first, then node, then each node's own recording order.
pub fn merge_journals(mut events: Vec<JournalEvent>) -> Vec<JournalEvent> {
    events.sort_by_key(|e| (e.ts, e.node.0, e.seq));
    events
}

/// Renders a merged timeline as text, one line per event.
pub fn render_timeline(events: &[JournalEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&ev.render_line());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{CtxGuard, SpanCtx, SpanId};

    #[test]
    fn records_in_order_with_sequence() {
        let j = Journal::new(NodeId(3));
        j.record(SimTime::from_micros(10), "fault", "crash n1");
        j.record(SimTime::from_micros(10), "fault", "heal n1-n2");
        let evs = j.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].seq, 0);
        assert_eq!(evs[1].seq, 1);
        assert_eq!(evs[0].trace, TraceId(0));
        assert!(evs[0].render_line().contains("crash n1"));
    }

    #[test]
    fn captures_current_trace() {
        let j = Journal::new(NodeId(1));
        {
            let _g = CtxGuard::enter(SpanCtx {
                trace: TraceId(42),
                span: SpanId(7),
            });
            j.record(SimTime::from_micros(5), "orb", "deadline shed");
        }
        let evs = j.events();
        assert_eq!(evs[0].trace, TraceId(42));
        assert!(evs[0].render_line().contains("[trace 42]"));
    }

    #[test]
    fn tail_keeps_newest_and_counts_drops() {
        let j = Journal::new(NodeId(0));
        for i in 0..(JOURNAL_CAP + 5) {
            j.record(SimTime::from_micros(i as u64), "t", format!("e{i}"));
        }
        assert_eq!(j.len(), JOURNAL_CAP);
        assert_eq!(j.dropped(), 5);
        let tail = j.tail(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[1].detail, format!("e{}", JOURNAL_CAP + 4));
    }

    #[test]
    fn merge_orders_by_time_node_seq() {
        let a = Journal::new(NodeId(1));
        let b = Journal::new(NodeId(0));
        a.record(SimTime::from_micros(20), "t", "a-late");
        a.record(SimTime::from_micros(20), "t", "a-late2");
        b.record(SimTime::from_micros(20), "t", "b-late");
        b.record(SimTime::from_micros(10), "t", "b-early");
        let mut all = a.events();
        all.extend(b.events());
        let merged = merge_journals(all);
        let details: Vec<&str> = merged.iter().map(|e| e.detail.as_ref()).collect();
        assert_eq!(details, vec!["b-early", "b-late", "a-late", "a-late2"]);
        let text = render_timeline(&merged);
        assert_eq!(text.lines().count(), 4);
    }
}
