//! The availability auditor: turns a stream of client-side request
//! outcomes (and the fault injections that disturbed them) into the
//! numbers the paper argues about — measured availability ("nines"),
//! unavailability windows, and mean-time-to-recovery per fault class.
//!
//! The auditor is deliberately client-sighted: it consumes what a viewer
//! would experience (did my request succeed, and when), not what any
//! server believes about itself. A probe is one bounded-deadline request
//! placed by the campaign driver; a fault mark is one injection the
//! campaign performed. Everything else — windows, MTTR, nines — is
//! derived at report time.
//!
//! Works identically over the simulated and real runtimes: timestamps
//! are [`SimTime`] either way (virtual, or elapsed since process start).

use std::time::Duration;

use ocs_sim::SimTime;
use parking_lot::Mutex;

/// One observed client request outcome.
#[derive(Clone, Copy, Debug)]
struct Probe {
    ts: SimTime,
    ok: bool,
}

/// One fault injection the campaign performed.
#[derive(Clone, Debug)]
struct FaultMark {
    ts: SimTime,
    class: String,
}

/// Collects probe outcomes and fault marks during a chaos campaign.
/// Shared (`Arc`) between the prober process and the fault driver.
#[derive(Default)]
pub struct AvailabilityAuditor {
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    probes: Vec<Probe>,
    faults: Vec<FaultMark>,
}

/// One contiguous unavailability window, bounded by successes: from the
/// last success before the failure run to the first success after it —
/// the client-sighted "blackout" the paper bounds at 25 s.
#[derive(Clone, Copy, Debug)]
pub struct BlackoutWindow {
    /// Last successful probe before the outage (or the first failed
    /// probe, when the campaign opened with failures).
    pub start: SimTime,
    /// First successful probe after the outage (or the last failed
    /// probe, when the campaign ended inside the outage).
    pub end: SimTime,
    /// Whether service was observed to recover (an ending success
    /// exists). Unrecovered windows still count toward the percentiles —
    /// dropping them would make a dead cluster look available.
    pub recovered: bool,
}

impl BlackoutWindow {
    /// The window's length.
    pub fn duration(&self) -> Duration {
        self.end.saturating_since(self.start)
    }
}

/// Recovery statistics for one fault class.
#[derive(Clone, Debug)]
pub struct MttrRow {
    /// Fault class (`crash`, `partition`, `impair`, or a campaign-chosen
    /// label such as `kill-mms`).
    pub class: String,
    /// Injections of this class.
    pub faults: u64,
    /// Injections followed by at least one successful probe.
    pub recovered: u64,
    /// Mean injection → first-subsequent-success time, over recovered
    /// injections.
    pub mean: Duration,
    /// Worst such time.
    pub max: Duration,
}

/// Everything the auditor derived from one campaign.
#[derive(Clone, Debug)]
pub struct AvailabilityReport {
    /// Total probes placed.
    pub probes: u64,
    /// Probes that failed.
    pub failures: u64,
    /// Success fraction (1.0 when no probes were placed — an empty
    /// campaign observed no unavailability).
    pub availability: f64,
    /// Measured nines: `-log10(1 - availability)`. A campaign with zero
    /// failures can only bound this by its own resolution, so it reports
    /// `log10(probes)` — "at least as many nines as we could see".
    pub nines: f64,
    /// Client-sighted unavailability windows, in time order.
    pub blackouts: Vec<BlackoutWindow>,
    /// 99th-percentile blackout (nearest-rank; zero when none).
    pub p99_blackout: Duration,
    /// Longest blackout.
    pub max_blackout: Duration,
    /// Per-fault-class recovery statistics, ordered by class name.
    pub mttr: Vec<MttrRow>,
}

impl AvailabilityAuditor {
    /// Creates an empty auditor.
    pub fn new() -> AvailabilityAuditor {
        AvailabilityAuditor::default()
    }

    /// Records one client request outcome observed at `ts`.
    pub fn record(&self, ts: SimTime, ok: bool) {
        self.inner.lock().probes.push(Probe { ts, ok });
    }

    /// Records one fault injection of `class` performed at `ts`.
    pub fn record_fault(&self, ts: SimTime, class: impl Into<String>) {
        self.inner.lock().faults.push(FaultMark {
            ts,
            class: class.into(),
        });
    }

    /// Derives the campaign report from everything recorded so far.
    pub fn report(&self) -> AvailabilityReport {
        let (mut probes, mut faults) = {
            let inner = self.inner.lock();
            (inner.probes.clone(), inner.faults.clone())
        };
        probes.sort_by_key(|p| p.ts);
        faults.sort_by_key(|f| f.ts);

        let total = probes.len() as u64;
        let failures = probes.iter().filter(|p| !p.ok).count() as u64;
        let availability = if total == 0 {
            1.0
        } else {
            (total - failures) as f64 / total as f64
        };
        let nines = if total == 0 {
            0.0
        } else if failures == 0 {
            (total as f64).log10()
        } else {
            -(failures as f64 / total as f64).log10()
        };

        let blackouts = blackout_windows(&probes);
        let mut durs: Vec<Duration> = blackouts.iter().map(|w| w.duration()).collect();
        durs.sort();
        let p99_blackout = percentile(&durs, 99.0);
        let max_blackout = durs.last().copied().unwrap_or(Duration::ZERO);

        AvailabilityReport {
            probes: total,
            failures,
            availability,
            nines,
            blackouts,
            p99_blackout,
            max_blackout,
            mttr: mttr_rows(&probes, &faults),
        }
    }
}

/// Contiguous failure runs bounded by the successes around them.
fn blackout_windows(probes: &[Probe]) -> Vec<BlackoutWindow> {
    let mut windows = Vec::new();
    let mut last_ok: Option<SimTime> = None;
    let mut open: Option<SimTime> = None; // start of the current window
    for p in probes {
        if p.ok {
            if let Some(start) = open.take() {
                windows.push(BlackoutWindow {
                    start,
                    end: p.ts,
                    recovered: true,
                });
            }
            last_ok = Some(p.ts);
        } else if open.is_none() {
            open = Some(last_ok.unwrap_or(p.ts));
        }
    }
    if let (Some(start), Some(last)) = (open, probes.last()) {
        windows.push(BlackoutWindow {
            start,
            end: last.ts,
            recovered: false,
        });
    }
    windows
}

/// Per-class injection → first-subsequent-success recovery times.
fn mttr_rows(probes: &[Probe], faults: &[FaultMark]) -> Vec<MttrRow> {
    use std::collections::BTreeMap;
    struct Acc {
        faults: u64,
        recovered: u64,
        sum: Duration,
        max: Duration,
    }
    let mut by_class: BTreeMap<String, Acc> = BTreeMap::new();
    for f in faults {
        let acc = by_class.entry(f.class.clone()).or_insert(Acc {
            faults: 0,
            recovered: 0,
            sum: Duration::ZERO,
            max: Duration::ZERO,
        });
        acc.faults += 1;
        // First success at-or-after the injection: binary search on the
        // sorted probe stream, then scan forward to a success.
        let idx = probes.partition_point(|p| p.ts < f.ts);
        if let Some(p) = probes[idx..].iter().find(|p| p.ok) {
            let rec = p.ts.saturating_since(f.ts);
            acc.recovered += 1;
            acc.sum += rec;
            acc.max = acc.max.max(rec);
        }
    }
    by_class
        .into_iter()
        .map(|(class, a)| MttrRow {
            class,
            faults: a.faults,
            recovered: a.recovered,
            mean: if a.recovered == 0 {
                Duration::ZERO
            } else {
                a.sum / a.recovered as u32
            },
            max: a.max,
        })
        .collect()
}

/// Nearest-rank percentile over an already-sorted slice.
fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_micros(ms * 1000)
    }

    #[test]
    fn clean_run_reports_full_availability() {
        let a = AvailabilityAuditor::new();
        for i in 0..1000 {
            a.record(t(i * 10), true);
        }
        let r = a.report();
        assert_eq!(r.probes, 1000);
        assert_eq!(r.failures, 0);
        assert_eq!(r.availability, 1.0);
        assert_eq!(r.nines, 3.0); // bounded by 1000 probes of resolution
        assert!(r.blackouts.is_empty());
        assert_eq!(r.p99_blackout, Duration::ZERO);
    }

    #[test]
    fn blackout_spans_last_success_to_next_success() {
        let a = AvailabilityAuditor::new();
        a.record(t(0), true);
        a.record(t(100), true);
        a.record(t(200), false);
        a.record(t(300), false);
        a.record(t(400), true);
        let r = a.report();
        assert_eq!(r.failures, 2);
        assert_eq!(r.blackouts.len(), 1);
        let w = r.blackouts[0];
        assert!(w.recovered);
        assert_eq!(w.start, t(100));
        assert_eq!(w.end, t(400));
        assert_eq!(r.max_blackout, Duration::from_millis(300));
        assert_eq!(r.p99_blackout, Duration::from_millis(300));
    }

    #[test]
    fn unrecovered_tail_window_still_counts() {
        let a = AvailabilityAuditor::new();
        a.record(t(0), true);
        a.record(t(50), false);
        a.record(t(90), false);
        let r = a.report();
        assert_eq!(r.blackouts.len(), 1);
        assert!(!r.blackouts[0].recovered);
        assert_eq!(r.blackouts[0].duration(), Duration::from_millis(90));
    }

    #[test]
    fn mttr_attributes_recovery_to_fault_class() {
        let a = AvailabilityAuditor::new();
        a.record(t(0), true);
        a.record_fault(t(10), "crash");
        a.record(t(20), false);
        a.record(t(60), true);
        a.record_fault(t(100), "partition");
        a.record(t(110), false);
        a.record(t(150), false);
        a.record(t(250), true);
        let r = a.report();
        assert_eq!(r.mttr.len(), 2);
        let crash = &r.mttr[0];
        assert_eq!(crash.class, "crash");
        assert_eq!((crash.faults, crash.recovered), (1, 1));
        assert_eq!(crash.mean, Duration::from_millis(50));
        let part = &r.mttr[1];
        assert_eq!(part.class, "partition");
        assert_eq!(part.mean, Duration::from_millis(150));
        assert_eq!(part.max, Duration::from_millis(150));
    }

    #[test]
    fn nines_measures_failure_rate() {
        let a = AvailabilityAuditor::new();
        for i in 0..10_000u64 {
            a.record(t(i), i % 1000 != 0); // 10 failures in 10k
        }
        let r = a.report();
        assert_eq!(r.failures, 10);
        assert!((r.availability - 0.999).abs() < 1e-9);
        assert!((r.nines - 3.0).abs() < 1e-9);
    }
}
