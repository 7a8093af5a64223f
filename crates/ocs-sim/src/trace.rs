//! Trace identity and its thread-local propagation.
//!
//! The full span machinery (recording, forests, rendering) lives in
//! `ocs-telemetry`, above the codec; the *identity* types and the
//! current-context thread-local live here, at the bottom of the crate
//! DAG, so runtime-level code — the flight-recorder journal
//! ([`crate::journal`]), fault injection, the real transport — can stamp
//! records with the trace that was active when they fired. The
//! thread-local is sound because every process has an OS thread to
//! itself for as long as it lives — a carrier (`carrier.rs`) that clears
//! the context before the next process starts on it.
//!
//! Identifiers embed the allocating node in the high bits and a per-node
//! sequence in the low bits: unique cluster-wide, and — because neither
//! the RNG nor the wall clock is involved — identical across same-seed
//! runs.

use std::cell::Cell;

/// Identifies one causally-linked request tree. `0` means "untraced".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

/// Identifies one span within a trace. `0` means "none" (root parent).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// The propagated trace context: which trace, and which span is current.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanCtx {
    /// The request tree this work belongs to.
    pub trace: TraceId,
    /// The current span (parent of anything started under it).
    pub span: SpanId,
}

impl SpanCtx {
    /// Whether this context carries a real trace.
    pub fn is_traced(&self) -> bool {
        self.trace.0 != 0
    }
}

thread_local! {
    static CURRENT: Cell<SpanCtx> = const { Cell::new(SpanCtx { trace: TraceId(0), span: SpanId(0) }) };
}

/// The calling thread's (= simulated process's) current trace context,
/// if any.
pub fn current_ctx() -> Option<SpanCtx> {
    let c = CURRENT.get();
    if c.is_traced() {
        Some(c)
    } else {
        None
    }
}

/// Replaces the current context, returning the previous one. Prefer
/// [`CtxGuard`] (via [`CtxGuard::enter`]) for scoped use.
pub fn set_current_ctx(c: Option<SpanCtx>) -> Option<SpanCtx> {
    let prev = CURRENT.replace(c.unwrap_or_default());
    if prev.is_traced() {
        Some(prev)
    } else {
        None
    }
}

/// Scoped trace-context override: restores the previous context on drop.
/// Used by the ORB server path so one worker thread can serve requests
/// from different traces without leaking context between them.
pub struct CtxGuard {
    prev: SpanCtx,
}

impl CtxGuard {
    /// Installs `c` as the current context until the guard drops.
    pub fn enter(c: SpanCtx) -> CtxGuard {
        CtxGuard {
            prev: CURRENT.replace(c),
        }
    }
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CURRENT.set(self.prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_guard_restores() {
        assert_eq!(current_ctx(), None);
        let c = SpanCtx {
            trace: TraceId(7),
            span: SpanId(9),
        };
        {
            let _g = CtxGuard::enter(c);
            assert_eq!(current_ctx(), Some(c));
        }
        assert_eq!(current_ctx(), None);
    }

    #[test]
    fn set_returns_previous() {
        let c = SpanCtx {
            trace: TraceId(1),
            span: SpanId(2),
        };
        assert_eq!(set_current_ctx(Some(c)), None);
        assert_eq!(set_current_ctx(None), Some(c));
        assert_eq!(current_ctx(), None);
    }
}
