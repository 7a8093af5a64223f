//! The flight recorder: an always-on, per-node, bounded journal of
//! failure-relevant events.
//!
//! Counters say *how many* times a breaker opened; after a misbehaving
//! chaos run an operator needs *what happened when*. Every node carries
//! one [`Journal`] — a tail-keeping ring of fixed-size entries, read out
//! as [`JournalEvent`]s — hung off the runtime's per-node
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
//! * **Cheap.** An entry is 48 bytes: its time, trace, up to three
//!   numeric arguments, and `u16` ids of its category and its text in the
//!   journal's name table ([`crate::ring::RecordRing`]). Neither the node
//!   (the journal's own) nor the sequence number (the ring's position) is
//!   stored. A hot site records a static template and numbers with
//!   [`Journal::record_fmt`], which formats and allocates nothing; the
//!   line is rendered when read. A static text costs the same; only text
//!   formatted by the caller keeps a `String`, in a queue beside the
//!   ring. The hot message path writes nothing (guarded by E18's
//!   journal-overhead leg).
//!
//! Black-box behaviour: process-group kills and simulated-process panics
//! dump the owning node's journal tail to stderr (see
//! [`Journal::dump_tail`]), the way a flight recorder survives the
//! crash it just witnessed.

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::ring::{Names, Record, RecordRing, StaticStr};
use crate::rt::{NodeId, NodeRt};
use crate::time::SimTime;
use crate::trace::{current_ctx, TraceId};

/// Events one node's journal retains (tail-keeping; older entries are
/// evicted and counted — see [`Journal::dropped`]).
pub const JOURNAL_CAP: usize = 16_384;

/// How many tail entries a black-box dump prints.
pub const DUMP_TAIL: usize = 12;

/// Most arguments one [`Journal::record_fmt`] line takes.
pub const MAX_ARGS: usize = 3;

/// Bytes one retained entry takes in the ring.
pub const JOURNAL_ENTRY_BYTES: usize = std::mem::size_of::<Entry>();

const _: () = assert!(JOURNAL_ENTRY_BYTES <= 48);

/// One flight-recorder entry, as read back.
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
    /// Human-readable description of the transition: borrowed when it
    /// was recorded as a static text, rendered when it was a template.
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

/// One argument of a [`Journal::record_fmt`] line, shown with its own
/// `Display`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arg {
    /// A number.
    Num(u64),
    /// A node, shown as `n<id>`.
    Node(NodeId),
}

impl From<u64> for Arg {
    fn from(n: u64) -> Arg {
        Arg::Num(n)
    }
}

impl From<NodeId> for Arg {
    fn from(n: NodeId) -> Arg {
        Arg::Node(n)
    }
}

impl fmt::Display for Arg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Arg::Num(n) => write!(f, "{n}"),
            Arg::Node(n) => write!(f, "{n}"),
        }
    }
}

/// `template` with its first `args.len()` `{}`s replaced by `args`.
fn render(template: &str, args: &[Arg]) -> String {
    let mut out = String::with_capacity(template.len() + 8 * args.len());
    let mut rest = template;
    for arg in args {
        let Some((head, tail)) = rest.split_once("{}") else {
            break;
        };
        out.push_str(head);
        let _ = write!(out, "{arg}");
        rest = tail;
    }
    out.push_str(rest);
    out
}

/// `nargs` of an entry whose text is its payload.
const OWNED: u8 = u8::MAX;

/// The category id of a line whose category the full name table could
/// not take; it reads as `?`.
const UNNAMED: u16 = Names::<StaticStr>::NONE;

/// A retained entry: the detail is the name-table text `text` with its
/// first `nargs` `{}`s taken by `args` (bit `i` of `nodes` set when
/// argument `i` is a node), or the payload when `nargs` is [`OWNED`].
#[derive(Clone, Copy)]
struct Entry {
    ts: SimTime,
    trace: TraceId,
    args: [u64; MAX_ARGS],
    category: u16,
    text: u16,
    nargs: u8,
    nodes: u8,
}

impl Record for Entry {
    fn has_payload(&self) -> bool {
        self.nargs == OWNED
    }
}

impl Entry {
    fn args(&self) -> impl Iterator<Item = Arg> + '_ {
        (0..self.nargs as usize).map(|i| {
            if self.nodes & (1 << i) != 0 {
                Arg::Node(NodeId(self.args[i] as u32))
            } else {
                Arg::Num(self.args[i])
            }
        })
    }
}

type Ring = RecordRing<Entry, StaticStr, String>;

/// A line as a caller hands it over.
enum Line<'a> {
    /// A static template and its arguments.
    Template(&'static str, &'a [Arg]),
    /// Text the caller formatted.
    Text(String),
}

/// A node's flight recorder. Obtain with [`Journal::of`]; hold the
/// `Arc` where the call site is hot (pre-resolved handle, like the
/// metrics registry).
pub struct Journal {
    node: NodeId,
    ring: Mutex<Ring>,
}

impl Journal {
    /// Creates an empty journal for `node`.
    pub fn new(node: NodeId) -> Journal {
        Journal {
            node,
            ring: Mutex::new(Ring::new(JOURNAL_CAP)),
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
    /// current trace context (if any). A static `detail` is kept as a
    /// name-table id; a formatted one keeps its `String`.
    pub fn record(
        &self,
        ts: SimTime,
        category: &'static str,
        detail: impl Into<Cow<'static, str>>,
    ) {
        match detail.into() {
            Cow::Borrowed(text) => self.push(ts, category, Line::Template(text, &[])),
            Cow::Owned(text) => self.push(ts, category, Line::Text(text)),
        }
    }

    /// Appends an event stamped `ts` whose detail is `template` with its
    /// first `args.len()` `{}`s replaced by `args` — rendered when read,
    /// exactly as `format!` would with the arguments' `Display`. Formats
    /// and allocates nothing once `category` and `template` are in the
    /// journal's name table and the ring has grown to its capacity.
    ///
    /// # Panics
    ///
    /// If `args` has more than [`MAX_ARGS`] entries.
    pub fn record_fmt(
        &self,
        ts: SimTime,
        category: &'static str,
        template: &'static str,
        args: &[Arg],
    ) {
        assert!(
            args.len() <= MAX_ARGS,
            "a journal line takes at most {MAX_ARGS} arguments"
        );
        self.push(ts, category, Line::Template(template, args));
    }

    fn push(&self, ts: SimTime, category: &'static str, line: Line<'_>) {
        let mut e = Entry {
            ts,
            trace: current_ctx().map(|c| c.trace).unwrap_or_default(),
            args: [0; MAX_ARGS],
            category: UNNAMED,
            text: 0,
            nargs: OWNED,
            nodes: 0,
        };
        let mut ring = self.ring.lock();
        let names = ring.names();
        e.category = names.id(StaticStr(category)).unwrap_or(UNNAMED);
        let owned = match line {
            Line::Template(template, args) => match names.id(StaticStr(template)) {
                Some(text) => {
                    e.text = text;
                    e.nargs = args.len() as u8;
                    for (i, arg) in args.iter().enumerate() {
                        e.args[i] = match *arg {
                            Arg::Num(n) => n,
                            Arg::Node(n) => {
                                e.nodes |= 1 << i;
                                u64::from(n.0)
                            }
                        };
                    }
                    None
                }
                // The name table is full: keep the line as text.
                None => Some(render(template, args)),
            },
            Line::Text(text) => Some(text),
        };
        ring.push(e, owned);
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> Vec<JournalEvent> {
        self.tail(usize::MAX)
    }

    /// The last `n` retained events, oldest first. Reads only those `n`
    /// (a black-box dump reads 12 of a full journal's 16,384).
    pub fn tail(&self, n: usize) -> Vec<JournalEvent> {
        let ring = self.ring.lock();
        let end = ring.dropped() + ring.len() as u64;
        let mut tail: Vec<JournalEvent> = ring
            .iter()
            .rev()
            .take(n)
            .zip((0..end).rev())
            .map(|((e, owned), seq)| {
                let detail = match owned {
                    Some(text) => Cow::Owned(text.clone()),
                    None if e.nargs == 0 => Cow::Borrowed(ring.name(e.text).0),
                    None => {
                        let args: Vec<Arg> = e.args().collect();
                        Cow::Owned(render(ring.name(e.text).0, &args))
                    }
                };
                JournalEvent {
                    ts: e.ts,
                    node: self.node,
                    seq,
                    trace: e.trace,
                    category: match e.category {
                        UNNAMED => "?",
                        id => ring.name(id).0,
                    },
                    detail,
                }
            })
            .collect();
        tail.reverse();
        tail
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// Whether the journal is empty.
    pub fn is_empty(&self) -> bool {
        self.ring.lock().is_empty()
    }

    /// Events evicted since creation (surfaced cluster-wide as the
    /// `telemetry.journal.dropped` gauge).
    pub fn dropped(&self) -> u64 {
        self.ring.lock().dropped()
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
        assert_eq!(tail[1].seq, JOURNAL_CAP as u64 + 4, "seq counts evictions");
    }

    #[test]
    fn a_template_line_reads_as_its_format() {
        let j = Journal::new(NodeId(2));
        let t = SimTime::from_micros(7);
        let args = [9.into(), NodeId(4).into(), 6.into()];
        j.record_fmt(t, "cm", "conn {} settop {} {} bps", &args);
        j.record(t, "cm", format!("own {}", 1));
        j.record_fmt(t, "cm", "no args {}", &[]);
        let args = [u64::MAX.into(), NodeId(u32::MAX).into()];
        j.record_fmt(t, "x", "{} and {}", &args);
        j.record(t, "cm", "static");
        let details: Vec<String> = j
            .events()
            .into_iter()
            .map(|e| e.detail.into_owned())
            .collect();
        let max = u64::MAX;
        let node = NodeId(u32::MAX);
        assert_eq!(
            details,
            [
                format!("conn {} settop {} {} bps", 9, NodeId(4), 6),
                "own 1".into(),
                "no args {}".into(),
                format!("{max} and {node}"),
                "static".into(),
            ]
        );
        let evs = j.events();
        assert_eq!(
            evs.iter().map(|e| e.seq).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4]
        );
        assert_eq!((evs[3].category, evs[3].node), ("x", NodeId(2)));
        assert!(matches!(evs[4].detail, Cow::Borrowed("static")));
    }

    #[test]
    fn a_full_name_table_keeps_lines_as_text() {
        let j = Journal::new(NodeId(0));
        for i in 0..Names::<StaticStr>::NONE {
            let text: &'static str = Box::leak(format!("t{i}").into_boxed_str());
            j.record(SimTime::ZERO, "fill", text);
        }
        let args = [7.into(), NodeId(3).into()];
        j.record_fmt(SimTime::ZERO, "late", "conn {} settop {}", &args);
        let tail = j.tail(2);
        let read: Vec<(&str, &str)> = tail
            .iter()
            .map(|e| (e.category, e.detail.as_ref()))
            .collect();
        assert_eq!(read, [("fill", "t65534"), ("?", "conn 7 settop n3")]);
    }

    #[test]
    fn an_entry_is_48_bytes() {
        assert_eq!(JOURNAL_ENTRY_BYTES, 48);
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
