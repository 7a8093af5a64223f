//! The Connection Manager (§3.3): allocates (modelled ATM) connections
//! between settops and servers, with admission control against per-settop
//! and per-server bandwidth budgets — the trial's 6 Mbit/s downstream
//! per settop and the server's aggregate egress.
//!
//! The allocation/lease table itself is the pure, deterministic
//! [`CmTable`](crate::cmtable::CmTable) state machine. This module wraps
//! it as the *standalone* manager: one instance, a mutex, and a clock
//! that stamps each operation. It is the paper's §5.2 baseline — each
//! neighborhood's instances race to bind `svc/cmgr/<nbhd>`, the loser
//! waits as backup, and a newly promoted backup starts empty and
//! relearns state from the MMS's periodic `reassert` calls. The
//! replicated deployment ([`crate::CmReplica`]) drives the same table
//! through a VSR log instead, so a fail-over preserves admission state.
//!
//! Reassertion doubles as a *lease*: when a lease TTL is configured,
//! an allocation whose owner has stopped reasserting it (the release
//! RPC was lost in a partition, or the owner died without cleanup) is
//! expired and its bandwidth reclaimed — otherwise a single lost
//! `release` would pin a settop's budget forever. A TTL therefore
//! *requires* a clock: constructing a leasing manager without a runtime
//! is refused loudly rather than silently timestamping every lease 0
//! (which would never expire anything — or expire everything at once).

use std::sync::Arc;
use std::time::Duration;

use ocs_orb::{declare_interface, Caller, ObjRef, Orb};
use ocs_sim::{NetError, NodeId, PortReq, Rt, SimTime};
use ocs_vsr::Machine;
use parking_lot::Mutex;

use crate::cmtable::{CmTable, CmUpdate};
use crate::types::{CmUsage, ConnDesc, MediaError};

declare_interface! {
    /// The Connection Manager interface.
    pub interface CmApi [CmApiClient, CmApiServant]: "itv.cmgr" {
        /// Reserve a downstream path of `down_bps` from `server` to
        /// `settop`. Fails with `NoBandwidth` when either budget is
        /// exhausted. `token` is a client-chosen retry key: a retry
        /// carrying the same nonzero token returns the original conn id
        /// instead of double-reserving (the reply may have been lost in
        /// a fail-over); 0 disables deduplication.
        1 => fn allocate(&self, token: u64, settop: NodeId, server: NodeId, down_bps: u64) -> Result<u64, MediaError>;
        /// Release an allocation.
        2 => fn release(&self, conn: u64) -> Result<(), MediaError>;
        /// Re-register an allocation with a freshly promoted replica
        /// (state recovery after fail-over).
        3 => fn reassert(&self, desc: ConnDesc) -> Result<(), MediaError>;
        /// Utilization snapshot.
        4 => fn usage(&self) -> Result<CmUsage, MediaError>;
        /// Per-settop resource accounting (§7.3's future-work item:
        /// "accounting is needed both for discovering buggy clients and
        /// for charging properly for resource usage"). Returns rows of
        /// `(settop, allocations ever, refusals, bit-seconds consumed)`,
        /// ordered by bit-seconds descending — buggy hoarders float to
        /// the top.
        5 => fn accounting(&self) -> Result<Vec<CmAccountRow>, MediaError>;
    }
}

/// One settop's accounting record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CmAccountRow {
    /// The settop.
    pub settop: NodeId,
    /// Allocations ever granted.
    pub granted: u64,
    /// Allocations refused (budget exhausted — a buggy-client signal).
    pub refused: u64,
    /// Bandwidth-time consumed so far, in bit-seconds (closed
    /// allocations plus the elapsed portion of open ones).
    pub bit_seconds: u64,
}

ocs_wire::impl_wire_struct!(CmAccountRow {
    settop,
    granted,
    refused,
    bit_seconds
});

/// Bandwidth budgets for admission control.
#[derive(Clone, Copy, Debug)]
pub struct CmBudgets {
    /// Per-settop downstream cap (the trial: 6 Mbit/s).
    pub settop_down_bps: u64,
    /// Per-server egress cap.
    pub server_egress_bps: u64,
}

impl Default for CmBudgets {
    fn default() -> CmBudgets {
        CmBudgets {
            settop_down_bps: 6_000_000,
            server_egress_bps: 200_000_000,
        }
    }
}

/// The standalone Connection Manager service: a [`CmTable`] behind a
/// mutex, with the local clock stamping each operation.
pub struct ConnectionManager {
    rt: Option<Rt>,
    /// Metric handles resolved once at construction — the admission hot
    /// path must not take the registry's name-lookup lock per request.
    metrics: Option<CmMetrics>,
    state: Mutex<Baseline>,
}

struct Baseline {
    table: CmTable,
    /// Local op sequence (the standalone manager's stand-in for the
    /// replicated log position).
    seq: u64,
}

/// A Connection Manager's counters and gauge, on its node's registry.
///
/// The registry is per node, not per replica group: a server that hosts
/// members of two groups (on `ClusterConfig::small` both servers host
/// `cmgr-0` and `cmgr-1`) adds both groups' events into one set of
/// counters, and `cm.active_allocs` holds whichever group stepped last.
/// Read a group's allocations from its `CmReplica::usage`; metric names
/// per group wait for the operator surface's naming pass.
///
/// Both drivers, the standalone manager and the replicated one, report
/// an op's effects through the `on_*` methods, so the counters and the
/// journal lines are written once; each keeps `cm.active_allocs` itself.
pub(crate) struct CmMetrics {
    accepted: Arc<ocs_telemetry::Counter>,
    rejected: Arc<ocs_telemetry::Counter>,
    released: Arc<ocs_telemetry::Counter>,
    reasserted: Arc<ocs_telemetry::Counter>,
    expired: Arc<ocs_telemetry::Counter>,
    pub(crate) active_allocs: Arc<ocs_telemetry::Gauge>,
    journal: Arc<ocs_telemetry::Journal>,
}

impl CmMetrics {
    pub(crate) fn of(rt: &Rt) -> CmMetrics {
        let tel = ocs_telemetry::NodeTelemetry::of(&**rt);
        let reg = &tel.registry;
        CmMetrics {
            accepted: reg.counter("cm.admission.accepted"),
            rejected: reg.counter("cm.admission.rejected"),
            released: reg.counter("cm.released"),
            reasserted: reg.counter("cm.reasserted"),
            expired: reg.counter("cm.lease.expired"),
            active_allocs: reg.gauge("cm.active_allocs"),
            journal: Arc::clone(&tel.journal),
        }
    }

    /// An allocate's outcome: a lease granted, or refused for want of
    /// bandwidth (the table's only refusal).
    pub(crate) fn on_allocate(
        &self,
        now: SimTime,
        out: &Result<u64, MediaError>,
        settop: NodeId,
        down_bps: u64,
    ) {
        match out {
            Ok(conn) => {
                self.accepted.inc();
                self.journal.record_fmt(
                    now,
                    "cm",
                    "lease granted: conn {} settop {} {} bps",
                    &[(*conn).into(), settop.into(), down_bps.into()],
                );
            }
            Err(MediaError::NoBandwidth) => self.rejected.inc(),
            Err(_) => {}
        }
    }

    /// A release's outcome.
    pub(crate) fn on_release(&self, out: &Result<u64, MediaError>) {
        if out.is_ok() {
            self.released.inc();
        }
    }

    /// A reassertion that re-admitted a lease the table did not hold.
    pub(crate) fn on_readmit(&self, now: SimTime, conn: u64, settop: NodeId) {
        self.reasserted.inc();
        self.journal.record_fmt(
            now,
            "cm",
            "lease reasserted: conn {} settop {} re-admitted after restart",
            &[conn.into(), settop.into()],
        );
    }

    /// A lease the table reclaimed at its expiry.
    pub(crate) fn on_expire(&self, now: SimTime, d: &ConnDesc) {
        self.expired.inc();
        self.journal.record_fmt(
            now,
            "cm",
            "lease expired: conn {} (settop {}, {} bps reclaimed)",
            &[d.conn.into(), d.settop.into(), d.down_bps.into()],
        );
    }
}

impl ConnectionManager {
    /// Creates the manager with the given budgets. Accounting needs a
    /// clock; without one (unit tests) bit-seconds stay zero.
    pub fn new(budgets: CmBudgets) -> Arc<ConnectionManager> {
        ConnectionManager::with_clock(budgets, None)
    }

    /// Creates the manager with a runtime clock for §7.3 accounting.
    pub fn with_clock(budgets: CmBudgets, rt: Option<Rt>) -> Arc<ConnectionManager> {
        ConnectionManager::with_lease(budgets, rt, None)
    }

    /// Creates the manager with a clock and a lease TTL: allocations the
    /// owner stops reasserting are expired after `lease_ttl` (set it to
    /// several reassert intervals).
    ///
    /// # Panics
    ///
    /// A TTL without a runtime clock is refused: every lease would be
    /// stamped 0, so expiry could never distinguish stale from fresh —
    /// the manager would either never reclaim anything or reclaim
    /// everything on the first request past the TTL.
    pub fn with_lease(
        budgets: CmBudgets,
        rt: Option<Rt>,
        lease_ttl: Option<Duration>,
    ) -> Arc<ConnectionManager> {
        assert!(
            lease_ttl.is_none() || rt.is_some(),
            "ConnectionManager: a lease TTL requires a runtime clock \
             (leases stamped by a clockless manager would all read 0)"
        );
        let metrics = rt.as_ref().map(CmMetrics::of);
        let ttl_us = lease_ttl.map(|d| d.as_micros() as u64);
        Arc::new(ConnectionManager {
            rt,
            metrics,
            state: Mutex::new(Baseline {
                table: CmTable::new(budgets, ttl_us),
                seq: 0,
            }),
        })
    }

    fn now_us(&self) -> u64 {
        self.rt.as_ref().map(|rt| rt.now().as_micros()).unwrap_or(0)
    }

    /// The metrics and the clock to report an op's effects to. Managers
    /// built without a runtime (unit tests) have neither.
    fn observe(&self) -> Option<(&CmMetrics, SimTime)> {
        Some((self.metrics.as_ref()?, self.rt.as_ref()?.now()))
    }

    /// Publishes the current allocation-table size as a gauge.
    fn track_allocs(&self, n: usize) {
        if let Some(m) = &self.metrics {
            m.active_allocs.set(n as i64);
        }
    }

    /// Starts an ORB serving this manager on `port`; returns its
    /// reference (the caller binds it under `svc/cmgr/<nbhd>`).
    pub fn serve(self: &Arc<Self>, rt: Rt, port: u16) -> Result<ObjRef, NetError> {
        let orb = Orb::new(rt, PortReq::Fixed(port))?;
        let obj = orb.export_root(Arc::new(CmApiServant(Arc::clone(self))));
        orb.start();
        Ok(obj)
    }

    /// Applies one op to the table at the next local sequence number and
    /// post-processes expiries (metrics + journal).
    fn apply(&self, op: CmUpdate) -> (Result<u64, MediaError>, usize) {
        let mut st = self.state.lock();
        st.seq += 1;
        let seq = st.seq;
        let out = st.table.apply(seq, &op);
        let expired = st.table.take_expired();
        let live = st.table.allocations_len();
        drop(st);
        if let Some((m, now)) = self.observe() {
            for d in &expired {
                m.on_expire(now, d);
            }
        }
        (out, live)
    }
}

impl CmApi for ConnectionManager {
    /// Every method takes the table mutex — never held across a wait —
    /// computes, journals and returns, so the runtime may run each one
    /// where its request arrives. (So does the replicated manager's:
    /// its updates are answered by the ack that commits them.)
    fn runs_inline(&self, _method: u32) -> bool {
        true
    }

    fn allocate(
        &self,
        _caller: &Caller,
        token: u64,
        settop: NodeId,
        server: NodeId,
        down_bps: u64,
    ) -> Result<u64, MediaError> {
        let (out, live) = self.apply(CmUpdate::Allocate {
            token,
            settop,
            server,
            down_bps,
            now_us: self.now_us(),
        });
        if let Some((m, now)) = self.observe() {
            m.on_allocate(now, &out, settop, down_bps);
        }
        if out.is_ok() {
            self.track_allocs(live);
        }
        out
    }

    fn release(&self, _caller: &Caller, conn: u64) -> Result<(), MediaError> {
        let (out, live) = self.apply(CmUpdate::Release {
            conn,
            now_us: self.now_us(),
        });
        if let Some((m, _)) = self.observe() {
            m.on_release(&out);
        }
        self.track_allocs(live);
        out.map(|_| ())
    }

    fn reassert(&self, _caller: &Caller, desc: ConnDesc) -> Result<(), MediaError> {
        let known = self.state.lock().table.allocation(desc.conn).is_some();
        let (out, live) = self.apply(CmUpdate::Reassert {
            desc,
            now_us: self.now_us(),
        });
        if out.is_ok() && !known {
            if let Some((m, now)) = self.observe() {
                m.on_readmit(now, desc.conn, desc.settop);
            }
            self.track_allocs(live);
        }
        out.map(|_| ())
    }

    fn usage(&self, _caller: &Caller) -> Result<CmUsage, MediaError> {
        // An explicit lease tick, so a quiet manager still reports
        // expiries that are due.
        let _ = self.apply(CmUpdate::Expire {
            now_us: self.now_us(),
        });
        Ok(self.state.lock().table.usage())
    }

    fn accounting(&self, _caller: &Caller) -> Result<Vec<CmAccountRow>, MediaError> {
        Ok(self.state.lock().table.accounting(self.now_us()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caller() -> Caller {
        Caller::local(NodeId(1))
    }

    #[test]
    fn admission_respects_settop_cap() {
        let cm = ConnectionManager::new(CmBudgets {
            settop_down_bps: 6_000_000,
            server_egress_bps: 1_000_000_000,
        });
        let c = caller();
        let settop = NodeId(100);
        let server = NodeId(1);
        let a = cm.allocate(&c, 0, settop, server, 4_000_000).unwrap();
        // Second 4 Mb/s stream to the same settop exceeds 6 Mb/s.
        assert_eq!(
            cm.allocate(&c, 0, settop, server, 4_000_000).unwrap_err(),
            MediaError::NoBandwidth
        );
        // A 2 Mb/s one fits exactly.
        let b = cm.allocate(&c, 0, settop, server, 2_000_000).unwrap();
        assert_ne!(a, b);
        assert_eq!(cm.usage(&c).unwrap().allocations, 2);
        assert_eq!(cm.usage(&c).unwrap().refused, 1);
        // Releasing frees the budget.
        cm.release(&c, a).unwrap();
        cm.allocate(&c, 0, settop, server, 4_000_000).unwrap();
    }

    #[test]
    fn admission_respects_server_cap() {
        let cm = ConnectionManager::new(CmBudgets {
            settop_down_bps: 6_000_000,
            server_egress_bps: 10_000_000,
        });
        let c = caller();
        let server = NodeId(1);
        cm.allocate(&c, 0, NodeId(100), server, 4_000_000).unwrap();
        cm.allocate(&c, 0, NodeId(101), server, 4_000_000).unwrap();
        assert_eq!(
            cm.allocate(&c, 0, NodeId(102), server, 4_000_000)
                .unwrap_err(),
            MediaError::NoBandwidth
        );
    }

    /// The three lease lines are templates rendered on read; they read
    /// exactly as the `format!` strings they replaced.
    #[test]
    fn lease_lines_read_as_before() {
        let sim = ocs_sim::Sim::new(1);
        let rt: Rt = sim.add_node("cm");
        let m = CmMetrics::of(&rt);
        let t = SimTime::from_micros(5);
        let (conn, settop, down_bps) = (17u64, NodeId(4_000_001), 6_000_000u64);
        m.on_allocate(t, &Ok(conn), settop, down_bps);
        m.on_allocate(t, &Err(MediaError::NoBandwidth), settop, down_bps);
        m.on_readmit(t, u64::MAX, NodeId(0));
        let d = ConnDesc {
            conn,
            settop,
            server: NodeId(1),
            down_bps,
        };
        m.on_expire(t, &d);
        let lines: Vec<String> = ocs_telemetry::Journal::of(&*rt)
            .events()
            .into_iter()
            .map(|e| format!("{} {}", e.category, e.detail))
            .collect();
        assert_eq!(
            lines,
            [
                "cm lease granted: conn 17 settop n4000001 6000000 bps",
                "cm lease reasserted: conn 18446744073709551615 settop n0 re-admitted after restart",
                "cm lease expired: conn 17 (settop n4000001, 6000000 bps reclaimed)",
            ]
        );
    }

    #[test]
    fn release_unknown_is_an_error() {
        let cm = ConnectionManager::new(CmBudgets::default());
        assert_eq!(
            cm.release(&caller(), 99).unwrap_err(),
            MediaError::UnknownSession { id: 99 }
        );
    }

    #[test]
    fn retried_allocate_with_token_is_idempotent() {
        let cm = ConnectionManager::new(CmBudgets::default());
        let c = caller();
        let settop = NodeId(100);
        let a = cm.allocate(&c, 42, settop, NodeId(1), 4_000_000).unwrap();
        // The client never saw the reply and retries with the same
        // token: same conn, no second reservation.
        let b = cm.allocate(&c, 42, settop, NodeId(1), 4_000_000).unwrap();
        assert_eq!(a, b);
        let usage = cm.usage(&c).unwrap();
        assert_eq!(usage.allocations, 1);
        assert_eq!(usage.reserved_down_bps, 4_000_000);
    }

    #[test]
    #[should_panic(expected = "lease TTL requires a runtime clock")]
    fn lease_ttl_without_clock_is_refused() {
        // Regression: this used to be accepted and silently stamped
        // every lease with now_us() == 0, so expiry never worked.
        let _ = ConnectionManager::with_lease(
            CmBudgets::default(),
            None,
            Some(Duration::from_secs(10)),
        );
    }

    #[test]
    fn accounting_identifies_heavy_and_refused_settops() {
        let cm = ConnectionManager::new(CmBudgets::default());
        let c = caller();
        let hog = NodeId(100);
        let modest = NodeId(101);
        let server = NodeId(1);
        cm.allocate(&c, 0, hog, server, 4_000_000).unwrap();
        cm.allocate(&c, 0, hog, server, 2_000_000).unwrap();
        assert!(cm.allocate(&c, 0, hog, server, 2_000_000).is_err());
        cm.allocate(&c, 0, modest, server, 2_000_000).unwrap();
        let rows = cm.accounting(&c).unwrap();
        assert_eq!(rows.len(), 2);
        let hog_row = rows.iter().find(|r| r.settop == hog).unwrap();
        assert_eq!(hog_row.granted, 2);
        assert_eq!(hog_row.refused, 1, "refusals flag buggy clients");
        let modest_row = rows.iter().find(|r| r.settop == modest).unwrap();
        assert_eq!(modest_row.refused, 0);
    }

    #[test]
    fn unasserted_allocations_expire_after_lease() {
        let sim = ocs_sim::Sim::new(9);
        let node = sim.add_node("cm");
        let cm = ConnectionManager::with_lease(
            CmBudgets::default(),
            Some(node.clone()),
            Some(Duration::from_secs(10)),
        );
        let c = caller();
        let settop = NodeId(100);
        let a = cm.allocate(&c, 0, settop, NodeId(1), 4_000_000).unwrap();
        let b = cm.allocate(&c, 0, settop, NodeId(1), 2_000_000).unwrap();
        // Keep `b` alive by reasserting; let `a`'s lease run out (its
        // owner lost the release RPC and gave up).
        sim.run_until(ocs_sim::SimTime::from_secs(6));
        let desc_b = ConnDesc {
            conn: b,
            settop,
            server: NodeId(1),
            down_bps: 2_000_000,
        };
        cm.reassert(&c, desc_b).unwrap();
        sim.run_until(ocs_sim::SimTime::from_secs(12));
        let usage = cm.usage(&c).unwrap();
        assert_eq!(usage.allocations, 1, "stale allocation expired: {usage:?}");
        assert_eq!(usage.expired, 1);
        assert!(cm.release(&c, a).is_err(), "a is gone");
        // The freed budget admits a new stream again.
        cm.allocate(&c, 0, settop, NodeId(1), 4_000_000).unwrap();
    }

    #[test]
    fn indexed_bookkeeping_matches_table_state() {
        // The O(1) indexes (running reserved total, lease queue, rate
        // integrals) must agree with what a full scan would report.
        let sim = ocs_sim::Sim::new(21);
        let node = sim.add_node("cm");
        let cm = ConnectionManager::with_lease(
            CmBudgets::default(),
            Some(node.clone()),
            Some(Duration::from_secs(30)),
        );
        let c = caller();
        let a = cm.allocate(&c, 0, NodeId(100), NodeId(1), 4_000_000).unwrap();
        let _b = cm.allocate(&c, 0, NodeId(101), NodeId(1), 2_000_000).unwrap();
        assert_eq!(cm.usage(&c).unwrap().reserved_down_bps, 6_000_000);
        // 10 s at 4 + 2 Mb/s, then close `a` and run 5 more seconds at
        // 2 Mb/s: integrals must match rate × time per settop.
        sim.run_until(ocs_sim::SimTime::from_secs(10));
        cm.release(&c, a).unwrap();
        assert_eq!(cm.usage(&c).unwrap().reserved_down_bps, 2_000_000);
        sim.run_until(ocs_sim::SimTime::from_secs(15));
        let rows = cm.accounting(&c).unwrap();
        let r100 = rows.iter().find(|r| r.settop == NodeId(100)).unwrap();
        let r101 = rows.iter().find(|r| r.settop == NodeId(101)).unwrap();
        assert_eq!(r100.bit_seconds, 40_000_000, "4 Mb/s for 10 s");
        assert_eq!(r101.bit_seconds, 30_000_000, "2 Mb/s for 15 s");
        // Rows come heaviest-first.
        assert_eq!(rows[0].settop, NodeId(100));
    }

    #[test]
    fn reassert_rebuilds_state() {
        let cm = ConnectionManager::new(CmBudgets::default());
        let c = caller();
        let desc = ConnDesc {
            conn: 42,
            settop: NodeId(100),
            server: NodeId(1),
            down_bps: 4_000_000,
        };
        cm.reassert(&c, desc).unwrap();
        // Idempotent.
        cm.reassert(&c, desc).unwrap();
        assert_eq!(cm.usage(&c).unwrap().allocations, 1);
        // Fresh allocations do not collide with reasserted ids.
        let next = cm.allocate(&c, 0, NodeId(101), NodeId(1), 1_000_000).unwrap();
        assert!(next > 42);
        // And the reasserted budget counts.
        assert_eq!(
            cm.allocate(&c, 0, NodeId(100), NodeId(1), 4_000_000)
                .unwrap_err(),
            MediaError::NoBandwidth
        );
    }
}
