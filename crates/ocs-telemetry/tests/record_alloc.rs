//! What writing a telemetry record costs the heap, counted by a global
//! allocator that keeps per-thread tallies (so tests running side by
//! side do not see each other's allocations).
//!
//! Once a tracer's op table holds an operation and its ring has grown to
//! capacity, recording a call span allocates nothing; the same holds for
//! a journal's template and static lines. A full ring's heap is its
//! capacity times the record size, plus the name table.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ocs_sim::journal::Arg;
use ocs_sim::{NodeId, SimTime};
use ocs_telemetry::{
    CallSpan, Journal, OpName, Side, SpanCtx, SpanId, TraceId, Tracer, JOURNAL_CAP,
    JOURNAL_ENTRY_BYTES, SPAN_BUF_CAP, SPAN_RECORD_BYTES,
};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn tally(allocs: u64, bytes: i64) {
    let _ = ALLOCS.try_with(|a| a.set(a.get() + allocs));
    let _ = LIVE.try_with(|l| l.set(l.get() + bytes));
}

/// [`System`], counting this thread's allocation calls and live bytes.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the tallies are plain
// thread-local cells that allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(1, layout.size() as i64);
        // SAFETY: the caller's `layout` obligations pass through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(0, -(layout.size() as i64));
        // SAFETY: `ptr` came from `System` via the methods here.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(1, new_size as i64 - layout.size() as i64);
        // SAFETY: as for `dealloc`; `new_size` passes through as-is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(1, layout.size() as i64);
        // SAFETY: the caller's `layout` obligations pass through as-is.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// What a name table of a handful of entries may hold on the heap.
const TABLE_BYTES: i64 = 4096;

const OPS: [&str; 3] = ["itv.mms.open", "itv.cmgr.allocate", "ocs.naming.resolve"];

fn call(n: u64) -> CallSpan {
    let op = match n % 4 {
        3 => OpName::of("itv.cm-peer", "prepare"),
        i => OpName::from(OPS[i as usize]),
    };
    CallSpan {
        ctx: SpanCtx {
            trace: TraceId(n),
            span: SpanId(n + 1),
        },
        parent: SpanId(n / 2),
        side: if n.is_multiple_of(2) {
            Side::Client
        } else {
            Side::Server
        },
        op,
        start: SimTime::from_micros(n),
        end: SimTime::from_micros(n + 7),
        err: n.is_multiple_of(5),
    }
}

fn line(j: &Journal, n: u64) {
    let t = SimTime::from_micros(n);
    match n % 3 {
        0 => j.record_fmt(
            t,
            "cm",
            "lease granted: conn {} settop {} {} bps",
            &[
                Arg::Num(n),
                Arg::Node(NodeId(n as u32)),
                Arg::Num(6_000_000),
            ],
        ),
        1 => j.record_fmt(t, "cm", "lease expired: conn {}", &[Arg::Num(n)]),
        _ => j.record(t, "fault", "crash"),
    }
}

#[test]
fn a_warm_call_span_allocates_nothing() {
    let tracer = Tracer::new(NodeId(1));
    for n in 0..=SPAN_BUF_CAP as u64 {
        tracer.record_call(call(n));
    }
    let before = allocs();
    for n in 0..10_000 {
        tracer.record_call(call(n));
    }
    assert_eq!(allocs() - before, 0, "record_call allocated");
    assert_eq!(tracer.dropped(), 10_001);
}

#[test]
fn a_template_journal_line_allocates_nothing() {
    let journal = Journal::new(NodeId(1));
    for n in 0..=JOURNAL_CAP as u64 {
        line(&journal, n);
    }
    let before = allocs();
    for n in 0..10_000 {
        line(&journal, n);
    }
    assert_eq!(allocs() - before, 0, "a template or static line allocated");
    assert_eq!(journal.dropped(), 10_001);
}

#[test]
fn a_full_span_ring_holds_its_records_and_table() {
    let start = live();
    let tracer = Tracer::new(NodeId(1));
    for n in 0..(SPAN_BUF_CAP as u64 + 100) {
        tracer.record_call(call(n));
    }
    let heap = live() - start;
    let records = (SPAN_BUF_CAP * SPAN_RECORD_BYTES) as i64;
    assert!(
        (records..=records + TABLE_BYTES).contains(&heap),
        "{heap} bytes for {records} bytes of records"
    );
    drop(tracer);
}

#[test]
fn a_full_journal_holds_its_entries_and_table() {
    let start = live();
    let journal = Journal::new(NodeId(1));
    for n in 0..(JOURNAL_CAP as u64 + 100) {
        line(&journal, n);
    }
    let heap = live() - start;
    let entries = (JOURNAL_CAP * JOURNAL_ENTRY_BYTES) as i64;
    assert!(
        (entries..=entries + TABLE_BYTES).contains(&heap),
        "{heap} bytes for {entries} bytes of entries"
    );
    drop(journal);
}
