//! Benchmark-side spans: one around every call the load generator makes
//! into a layer. Spans inside the program are a later issue; these are
//! recorded from outside, kept in memory, and written out at exit.

use std::cell::RefCell;
use std::time::Instant;

use ocs_sim::Rt;

/// One finished span. `parent` indexes the same log (`NO_SPAN` = root);
/// spans of one request share `req`.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    pub req: u64,
    pub parent: u32,
    /// The runtime's own clock in µs: virtual on `sim_*`, wall-clock
    /// since the network epoch on `tcp_*`.
    pub start_us: u64,
    pub end_us: u64,
    /// Host monotonic clock, ns since the log was created.
    pub host_start_ns: u64,
    pub host_end_ns: u64,
}

impl SpanRec {
    /// Duration in µs on the host clock (`host`) or the runtime's own.
    pub fn dur_us(&self, host: bool) -> f64 {
        if host {
            self.host_end_ns.saturating_sub(self.host_start_ns) as f64 / 1000.0
        } else {
            self.end_us.saturating_sub(self.start_us) as f64
        }
    }
}

pub const NO_SPAN: u32 = u32::MAX;

/// A per-load-generator span log. Each driver, prober or client thread
/// owns one, so recording never takes a lock; a disabled log (the
/// untraced run) makes `begin`/`end` two untaken branches.
pub struct SpanLog {
    on: bool,
    rt: Rt,
    epoch: Instant,
    spans: RefCell<Vec<SpanRec>>,
}

impl SpanLog {
    pub fn new(rt: Rt, on: bool) -> SpanLog {
        SpanLog {
            on,
            rt,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
        }
    }

    pub fn begin(&self, name: &'static str, req: u64, parent: u32) -> u32 {
        if !self.on {
            return NO_SPAN;
        }
        let mut spans = self.spans.borrow_mut();
        spans.push(SpanRec {
            name,
            req,
            parent,
            start_us: self.rt.now().as_micros(),
            end_us: 0,
            host_start_ns: self.epoch.elapsed().as_nanos() as u64,
            host_end_ns: 0,
        });
        (spans.len() - 1) as u32
    }

    pub fn end(&self, id: u32) {
        if id == NO_SPAN {
            return;
        }
        let mut spans = self.spans.borrow_mut();
        let s = &mut spans[id as usize];
        s.end_us = self.rt.now().as_micros();
        s.host_end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &self,
        name: &'static str,
        req: u64,
        parent: u32,
        f: impl FnOnce(u32) -> R,
    ) -> R {
        let id = self.begin(name, req, parent);
        let r = f(id);
        self.end(id);
        r
    }

    /// Hands the finished spans over (see [`append`]).
    pub fn drain_into(self, into: &mut Vec<SpanRec>) {
        append(into, self.spans.into_inner());
    }
}

/// Appends one generator's spans to `into`, re-basing their parent
/// indices so the logs of several generators form one forest.
pub fn append(into: &mut Vec<SpanRec>, spans: Vec<SpanRec>) {
    let base = into.len() as u32;
    into.extend(spans.into_iter().map(|mut s| {
        if s.parent != NO_SPAN {
            s.parent += base;
        }
        s
    }));
}

/// Self time of every span (its duration minus what its children
/// cover), as `(name, self_us)` on the chosen clock.
pub fn self_times(spans: &[SpanRec], host: bool) -> Vec<(&'static str, f64)> {
    let mut child_us = vec![0.0; spans.len()];
    for s in spans {
        if s.parent != NO_SPAN {
            child_us[s.parent as usize] += s.dur_us(host);
        }
    }
    spans
        .iter()
        .zip(child_us)
        .map(|(s, c)| (s.name, (s.dur_us(host) - c).max(0.0)))
        .collect()
}
