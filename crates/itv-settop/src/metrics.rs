//! Per-settop metrics, shared with experiment harnesses.
//!
//! The counters live on the node's telemetry [`Registry`] (under
//! `settop.*` names) so the on-box `Telemetry` servant and the cluster
//! snapshot see the same numbers the experiment harness reads through
//! [`SettopMetrics`].

use std::sync::Arc;

use ocs_sim::SimTime;
use ocs_telemetry::{Counter, Gauge, Registry, RingLog};
use parking_lot::Mutex;

/// How many event-log lines a settop retains (oldest evicted first).
pub const EVENT_LOG_CAP: usize = 256;

/// Counters and timings a settop records as it runs; experiments read
/// these to regenerate the paper's §9 numbers.
pub struct SettopMetrics {
    /// Boot completed (kernel verified, AM started), µs since sim start.
    pub booted_at_us: Arc<Gauge>,
    /// App downloads completed.
    pub app_downloads: Arc<Counter>,
    /// Cumulative app download time, µs.
    pub app_download_us: Arc<Counter>,
    /// Time from channel change to *cover* display, µs, most recent
    /// (§9.3: cover within 0.5 s masks the download).
    pub last_cover_us: Arc<Gauge>,
    /// Time from channel change to the app actually running, µs, most
    /// recent (§9.3: 2–4 s for a rich application).
    pub last_app_start_us: Arc<Gauge>,
    /// Movies opened successfully.
    pub movies_opened: Arc<Counter>,
    /// Movie opens that failed.
    pub movie_failures: Arc<Counter>,
    /// Stream stalls detected (MDS crash or link trouble, §3.5.2).
    pub stalls: Arc<Counter>,
    /// Cumulative playback interruption, µs (stall detection + reopen).
    pub interruption_us: Arc<Counter>,
    /// Segments received.
    pub segments: Arc<Counter>,
    /// Shopping interactions completed.
    pub interactions: Arc<Counter>,
    /// Shopping interactions that failed: each one a client-visible
    /// error (§9.5's rolling upgrade must show none).
    pub shop_failures: Arc<Counter>,
    /// The channel whose application the viewer is still waiting on
    /// (0: none): set by a tune-in, cleared when its application returns
    /// done or the settop powers off, kept while the Application Manager
    /// retries a tune-in that failed.
    pub tuned: Arc<Gauge>,
    /// 1 while segments of the VOD application's current session arrive;
    /// 0 from a stall, or from the session's end, until the next segment.
    pub streaming: Arc<Gauge>,
    /// Times the settop had to rebind a service reference (§8.2).
    pub rebinds: Arc<Counter>,
    /// Times an application fell back to degraded behaviour instead of
    /// failing outright: the navigator serving its stale cached catalog,
    /// or VOD pausing playback while the MMS circuit is open.
    pub degraded: Arc<Counter>,
    /// Most recent playback position, ms.
    pub position_ms: Arc<Gauge>,
    /// Free-form event log (bounded ring; for debugging failed runs).
    /// Once full the oldest line is evicted and [`RingLog::dropped`]
    /// counts the loss instead of silently ignoring new lines.
    pub events: Mutex<RingLog<(SimTime, String)>>,
}

impl SettopMetrics {
    /// Fresh metrics on a private registry (unit tests, tools).
    pub fn new() -> Arc<SettopMetrics> {
        SettopMetrics::registered(&Registry::new())
    }

    /// Metrics whose counters live in `reg` under `settop.*` names, so
    /// a node-level scrape sees them too.
    pub fn registered(reg: &Registry) -> Arc<SettopMetrics> {
        Arc::new(SettopMetrics {
            booted_at_us: reg.gauge("settop.booted_at_us"),
            app_downloads: reg.counter("settop.app_downloads"),
            app_download_us: reg.counter("settop.app_download_us"),
            last_cover_us: reg.gauge("settop.last_cover_us"),
            last_app_start_us: reg.gauge("settop.last_app_start_us"),
            movies_opened: reg.counter("settop.movies_opened"),
            movie_failures: reg.counter("settop.movie_failures"),
            stalls: reg.counter("settop.stalls"),
            interruption_us: reg.counter("settop.interruption_us"),
            segments: reg.counter("settop.segments"),
            interactions: reg.counter("settop.interactions"),
            shop_failures: reg.counter("settop.shop_failures"),
            tuned: reg.gauge("settop.tuned"),
            streaming: reg.gauge("settop.streaming"),
            rebinds: reg.counter("settop.rebinds"),
            degraded: reg.counter("settop.degraded"),
            position_ms: reg.gauge("settop.position_ms"),
            events: Mutex::new(RingLog::new(EVENT_LOG_CAP)),
        })
    }

    /// Appends a log line. The ring keeps the newest `EVENT_LOG_CAP`
    /// lines and counts evictions in `dropped_events`.
    pub fn log(&self, now: SimTime, msg: impl Into<String>) {
        self.events.lock().push((now, msg.into()));
    }

    /// Log lines evicted because the ring was full.
    pub fn dropped_events(&self) -> u64 {
        self.events.lock().dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_log_evicts_oldest_and_counts_drops() {
        let m = SettopMetrics::new();
        for i in 0..(EVENT_LOG_CAP as u64 + 10) {
            m.log(SimTime::from_micros(i), format!("ev{i}"));
        }
        let events = m.events.lock();
        assert_eq!(events.len(), EVENT_LOG_CAP);
        assert_eq!(events.dropped(), 10);
        // Oldest lines went first.
        assert_eq!(events.iter().next().unwrap().1, "ev10");
        drop(events);
        assert_eq!(m.dropped_events(), 10);
    }

    #[test]
    fn counters_are_visible_through_the_registry() {
        let reg = Registry::new();
        let m = SettopMetrics::registered(&reg);
        m.movies_opened.inc();
        m.position_ms.set(1234);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("settop.movies_opened"), 1);
        assert_eq!(snap.gauge("settop.position_ms"), 1234);
    }
}
