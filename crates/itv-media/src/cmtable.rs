//! The Connection Manager's allocation/lease table as a pure, replicated
//! state machine: the CM's lease state, replicated over the NS's VSR
//! core.
//!
//! [`CmTable`] implements [`ocs_vsr::Machine`]: every mutation —
//! allocate, release, reassert, lease expiry — is a [`CmUpdate`] on the
//! replicated log, applied deterministically on every replica. Two
//! consequences shape the design:
//!
//! * **Time travels in the op, not the replica.** Lease stamps and
//!   accounting integrals use the `now_us` the sequencing primary put
//!   into the op — a backup applying the same log at a different wall
//!   moment computes the identical table, and a promoted backup's leases
//!   keep the stamps the old primary granted instead of being re-derived
//!   from the new replica's clock.
//! * **Retries must be idempotent.** A client whose `allocate` reply was
//!   lost in a primary crash retries against the new primary; the op
//!   carries a client-chosen `token`, and a token that already maps to a
//!   live allocation returns the original conn id instead of reserving
//!   the bandwidth twice.
//! * **Order is imposed where it is observed.** An op looks up one
//!   record per allocation and one row per settop and server in maps
//!   hashed by id; nothing reads their iteration order. Order is made
//!   where someone sees it: the snapshot ships `BTreeMap`s (so replicas
//!   produce byte-identical snapshots), the listings sort, and the
//!   `(renewed at, conn)` lease queue decides which lease expires first.
//!
//! The standalone [`crate::ConnectionManager`] wraps this same table
//! behind a mutex (the paper's reassertion-only baseline); the
//! replicated [`crate::CmReplica`] drives it through a
//! [`ocs_vsr::VsrCore`].

use std::collections::{BTreeMap, BTreeSet, HashMap};

use ocs_sim::{IdBuild, NodeId};
use ocs_wire::{impl_wire_enum, impl_wire_struct};

use crate::cmgr::{CmAccountRow, CmBudgets};
use crate::types::{CmUsage, ConnDesc, MediaError};

/// One replicated Connection Manager operation. Every variant carries
/// the primary's clock reading at sequencing time (`now_us`), which is
/// what lease renewal and accounting use on every replica.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CmUpdate {
    /// Reserve a downstream path. `token` is a client-chosen retry key:
    /// nonzero tokens make the op idempotent (a retry returns the
    /// original conn id); zero disables deduplication.
    Allocate {
        /// Client retry token (0 = no dedup).
        token: u64,
        /// The settop endpoint.
        settop: NodeId,
        /// The server endpoint.
        server: NodeId,
        /// Reserved downstream bits per second.
        down_bps: u64,
        /// Primary clock at sequencing (µs).
        now_us: u64,
    },
    /// Release an allocation.
    Release {
        /// The allocation id.
        conn: u64,
        /// Primary clock at sequencing (µs).
        now_us: u64,
    },
    /// Re-register (or lease-renew) an allocation — the MMS reassertion
    /// path, kept for mixed fleets and the E22 baseline.
    Reassert {
        /// The full allocation descriptor.
        desc: ConnDesc,
        /// Primary clock at sequencing (µs).
        now_us: u64,
    },
    /// Advance the lease clock: expire allocations whose owner stopped
    /// renewing. The primary submits these periodically so backups
    /// expire the *same* leases at the *same* log positions.
    Expire {
        /// Primary clock at sequencing (µs).
        now_us: u64,
    },
}

impl CmUpdate {
    /// The primary-stamped clock reading carried by the op.
    pub fn now_us(&self) -> u64 {
        match self {
            CmUpdate::Allocate { now_us, .. }
            | CmUpdate::Release { now_us, .. }
            | CmUpdate::Reassert { now_us, .. }
            | CmUpdate::Expire { now_us } => *now_us,
        }
    }

    /// Overwrites the op's clock stamp (the sequencing primary re-stamps
    /// forwarded ops so a backup's stale clock never enters the log).
    pub fn stamp(&mut self, us: u64) {
        match self {
            CmUpdate::Allocate { now_us, .. }
            | CmUpdate::Release { now_us, .. }
            | CmUpdate::Reassert { now_us, .. }
            | CmUpdate::Expire { now_us } => *now_us = us,
        }
    }
}

impl_wire_enum!(CmUpdate {
    0 => Allocate { token, settop, server, down_bps, now_us },
    1 => Release { conn, now_us },
    2 => Reassert { desc, now_us },
    3 => Expire { now_us },
});

/// Per-settop accounting record (§7.3). Bandwidth-time is a *rate
/// integral*: `bit_us` accumulates closed-out bit·µs, `open_bps` is the
/// currently reserved rate, `open_since_us` when that rate last changed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CmAccount {
    /// Allocations ever granted.
    pub granted: u64,
    /// Allocations refused.
    pub refused: u64,
    /// Closed-out bit·µs.
    pub bit_us: u64,
    /// Currently reserved rate (bits/s).
    pub open_bps: u64,
    /// When the open rate last changed (µs).
    pub open_since_us: u64,
}

impl_wire_struct!(CmAccount {
    granted,
    refused,
    bit_us,
    open_bps,
    open_since_us
});

impl CmAccount {
    /// Closes the open-rate segment at `now` and starts a new one.
    fn fold(&mut self, now: u64) {
        let seg = self.open_bps.saturating_mul(now.saturating_sub(self.open_since_us));
        self.bit_us = self.bit_us.saturating_add(seg);
        self.open_since_us = now;
    }

    /// Bit-seconds consumed up to `now` (closed + open segment).
    pub fn bit_seconds(&self, now: u64) -> u64 {
        let seg = self.open_bps.saturating_mul(now.saturating_sub(self.open_since_us));
        self.bit_us.saturating_add(seg) / 1_000_000
    }
}

/// A full table snapshot, installed on replicas that fell behind the
/// log-retention window. Derived state (budget sums, the lease queue,
/// each allocation's token) is rebuilt on restore rather than shipped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CmSnapshot {
    /// Next allocation id.
    pub next_conn: u64,
    /// Live allocations by conn id.
    pub allocations: BTreeMap<u64, ConnDesc>,
    /// Last lease renewal per conn (µs).
    pub asserted_us: BTreeMap<u64, u64>,
    /// Allocations reclaimed by lease expiry since start.
    pub expired: u64,
    /// Allocations refused since start.
    pub refused: u64,
    /// Per-settop accounting.
    pub accounts: BTreeMap<NodeId, CmAccount>,
    /// Live retry tokens → conn ids.
    pub token_conn: BTreeMap<u64, u64>,
    /// Sequence number of the last applied update.
    pub last_seq: u64,
}

impl_wire_struct!(CmSnapshot {
    next_conn,
    allocations,
    asserted_us,
    expired,
    refused,
    accounts,
    token_conn,
    last_seq
});

/// One live allocation: its descriptor, when its lease was last
/// renewed, and the retry token it was granted under (0 = none).
#[derive(Clone, Copy, Debug)]
struct Live {
    desc: ConnDesc,
    asserted_us: u64,
    token: u64,
}

/// One settop's row: the bandwidth it holds now, and its account.
#[derive(Clone, Copy, Debug, Default)]
struct SettopRow {
    used: u64,
    account: CmAccount,
}

type IdMap<K, V> = HashMap<K, V, IdBuild>;

/// The deterministic CM allocation/lease table (see the module docs for
/// where its order comes from).
#[derive(Clone, Debug)]
pub struct CmTable {
    budgets: CmBudgets,
    /// Lease TTL in µs (`None` disables expiry). Construction config —
    /// identical on every replica — not part of the snapshot.
    lease_ttl_us: Option<u64>,
    next_conn: u64,
    live: IdMap<u64, Live>,
    /// Leases ordered by renewal time (`(asserted_us, conn)`); derived,
    /// and kept only when a TTL is set.
    lease_q: BTreeSet<(u64, u64)>,
    expired: u64,
    refused: u64,
    settops: IdMap<NodeId, SettopRow>,
    /// Per-server budget sums; derived.
    server_used: IdMap<NodeId, u64>,
    /// Running total of reserved downstream bandwidth; derived.
    reserved_down_bps: u64,
    /// Live retry tokens → conn ids (replicated: a retry must dedup on
    /// the new primary after fail-over).
    token_conn: IdMap<u64, u64>,
    last_seq: u64,
    /// Allocations expired since the last [`CmTable::take_expired`] —
    /// a driver-side journal/metrics feed, not replicated state.
    expired_log: Vec<ConnDesc>,
}

impl CmTable {
    /// Creates an empty table with the given budgets and lease TTL.
    pub fn new(budgets: CmBudgets, lease_ttl_us: Option<u64>) -> CmTable {
        CmTable {
            budgets,
            lease_ttl_us,
            next_conn: 1,
            live: IdMap::default(),
            lease_q: BTreeSet::new(),
            expired: 0,
            refused: 0,
            settops: IdMap::default(),
            server_used: IdMap::default(),
            reserved_down_bps: 0,
            token_conn: IdMap::default(),
            last_seq: 0,
            expired_log: Vec::new(),
        }
    }

    /// Live allocation count.
    pub fn allocations_len(&self) -> usize {
        self.live.len()
    }

    /// The utilization snapshot served by `usage`.
    pub fn usage(&self) -> CmUsage {
        CmUsage {
            allocations: self.live.len() as u32,
            reserved_down_bps: self.reserved_down_bps,
            refused: self.refused,
            expired: self.expired,
        }
    }

    /// One live allocation by id.
    pub fn allocation(&self, conn: u64) -> Option<ConnDesc> {
        self.live.get(&conn).map(|l| l.desc)
    }

    /// All live allocations, in conn-id order (post-storm audits).
    pub fn allocations_list(&self) -> Vec<ConnDesc> {
        let mut list: Vec<ConnDesc> = self.live.values().map(|l| l.desc).collect();
        list.sort_unstable_by_key(|d| d.conn);
        list
    }

    /// Accounting rows at `now`, heaviest bit-seconds first.
    pub fn accounting(&self, now: u64) -> Vec<CmAccountRow> {
        let mut rows: Vec<CmAccountRow> = self
            .settops
            .iter()
            .map(|(settop, row)| CmAccountRow {
                settop: *settop,
                granted: row.account.granted,
                refused: row.account.refused,
                bit_seconds: row.account.bit_seconds(now),
            })
            .collect();
        rows.sort_by(|a, b| b.bit_seconds.cmp(&a.bit_seconds).then(a.settop.cmp(&b.settop)));
        rows
    }

    /// Drains the allocations expired since the last call (driver-side
    /// journaling/metrics; not replicated state).
    pub fn take_expired(&mut self) -> Vec<ConnDesc> {
        std::mem::take(&mut self.expired_log)
    }

    /// Recomputes the full reserved total by scanning the table — the
    /// audit cross-check against the incrementally maintained indexes.
    pub fn audit_reserved_bps(&self) -> u64 {
        self.live.values().map(|l| l.desc.down_bps).sum()
    }

    /// Admits `desc` if both budgets allow it, leased from `now`.
    fn admit(&mut self, desc: &ConnDesc, token: u64, now: u64) -> bool {
        let settop_used = self.settops.get(&desc.settop).map_or(0, |row| row.used);
        let server_used = self.server_used.get(&desc.server).copied().unwrap_or(0);
        if settop_used + desc.down_bps > self.budgets.settop_down_bps
            || server_used + desc.down_bps > self.budgets.server_egress_bps
        {
            return false;
        }
        // A refused reassert opens no account: rows appear on a grant.
        let row = self.settops.entry(desc.settop).or_default();
        row.used += desc.down_bps;
        row.account.fold(now);
        row.account.open_bps += desc.down_bps;
        row.account.granted += 1;
        *self.server_used.entry(desc.server).or_insert(0) += desc.down_bps;
        self.reserved_down_bps += desc.down_bps;
        self.live.insert(
            desc.conn,
            Live {
                desc: *desc,
                asserted_us: now,
                token,
            },
        );
        if self.lease_ttl_us.is_some() {
            self.lease_q.insert((now, desc.conn));
        }
        true
    }

    /// Renews a live allocation's lease; false if `conn` is not live.
    fn renew_lease(&mut self, conn: u64, now: u64) -> bool {
        let Some(l) = self.live.get_mut(&conn) else { return false };
        if self.lease_ttl_us.is_some() {
            self.lease_q.remove(&(l.asserted_us, conn));
            self.lease_q.insert((now, conn));
        }
        l.asserted_us = now;
        true
    }

    fn drop_alloc(&mut self, conn: u64, now: u64) -> Option<ConnDesc> {
        let Live { desc, asserted_us, token } = self.live.remove(&conn)?;
        let row = self.settops.entry(desc.settop).or_default();
        row.used = row.used.saturating_sub(desc.down_bps);
        row.account.fold(now);
        row.account.open_bps = row.account.open_bps.saturating_sub(desc.down_bps);
        if let Some(u) = self.server_used.get_mut(&desc.server) {
            *u = u.saturating_sub(desc.down_bps);
        }
        self.reserved_down_bps = self.reserved_down_bps.saturating_sub(desc.down_bps);
        if self.lease_ttl_us.is_some() {
            self.lease_q.remove(&(asserted_us, conn));
        }
        if token != 0 {
            self.token_conn.remove(&token);
        }
        Some(desc)
    }

    /// Expires allocations whose lease ran out at `now`. Runs at the top
    /// of every applied op, so every replica pops the same stale prefix
    /// at the same log position.
    fn expire_stale(&mut self, now: u64) {
        let Some(ttl_us) = self.lease_ttl_us else { return };
        while let Some(&(at, conn)) = self.lease_q.first() {
            if now.saturating_sub(at) <= ttl_us {
                break;
            }
            if let Some(desc) = self.drop_alloc(conn, now) {
                self.expired_log.push(desc);
            }
            self.expired += 1;
        }
    }

    fn do_allocate(
        &mut self,
        token: u64,
        settop: NodeId,
        server: NodeId,
        down_bps: u64,
        now: u64,
    ) -> Result<u64, MediaError> {
        if let Some(&conn) = self.token_conn.get(&token) {
            // A retry of an op that already committed (the reply was
            // lost in a fail-over): renew and return the original
            // grant — the bandwidth is already reserved exactly once.
            if self.renew_lease(conn, now) {
                return Ok(conn);
            }
        }
        let conn = self.next_conn;
        let desc = ConnDesc {
            conn,
            settop,
            server,
            down_bps,
        };
        if !self.admit(&desc, token, now) {
            self.refused += 1;
            self.settops.entry(settop).or_default().account.refused += 1;
            return Err(MediaError::NoBandwidth);
        }
        self.next_conn += 1;
        if token != 0 {
            self.token_conn.insert(token, conn);
        }
        Ok(conn)
    }

    fn do_reassert(&mut self, desc: ConnDesc, now: u64) -> Result<u64, MediaError> {
        // Already known (same incarnation): renew the lease.
        if self.renew_lease(desc.conn, now) {
            return Ok(desc.conn);
        }
        if !self.admit(&desc, 0, now) {
            return Err(MediaError::NoBandwidth);
        }
        // Keep conn ids unique past reasserted ones.
        if desc.conn >= self.next_conn {
            self.next_conn = desc.conn + 1;
        }
        Ok(desc.conn)
    }
}

impl ocs_vsr::Machine for CmTable {
    type Op = CmUpdate;
    /// `Ok(conn)` for allocate/release/reassert; `Ok(total expired)` for
    /// an `Expire` tick.
    type Outcome = Result<u64, MediaError>;
    type Snap = CmSnapshot;

    fn apply(&mut self, seq: u64, op: &CmUpdate) -> Result<u64, MediaError> {
        self.last_seq = seq;
        // Every op advances the lease clock first, so expiry happens at
        // deterministic log positions on every replica.
        self.expire_stale(op.now_us());
        match *op {
            CmUpdate::Allocate {
                token,
                settop,
                server,
                down_bps,
                now_us,
            } => self.do_allocate(token, settop, server, down_bps, now_us),
            CmUpdate::Release { conn, now_us } => self
                .drop_alloc(conn, now_us)
                .map(|d| d.conn)
                .ok_or(MediaError::UnknownSession { id: conn }),
            CmUpdate::Reassert { desc, now_us } => self.do_reassert(desc, now_us),
            CmUpdate::Expire { .. } => Ok(self.expired),
        }
    }

    fn snapshot(&self) -> CmSnapshot {
        CmSnapshot {
            next_conn: self.next_conn,
            allocations: self.live.iter().map(|(&conn, l)| (conn, l.desc)).collect(),
            asserted_us: self.live.iter().map(|(&conn, l)| (conn, l.asserted_us)).collect(),
            expired: self.expired,
            refused: self.refused,
            accounts: self.settops.iter().map(|(&s, row)| (s, row.account)).collect(),
            token_conn: self.token_conn.iter().map(|(&t, &c)| (t, c)).collect(),
            last_seq: self.last_seq,
        }
    }

    fn restore(&mut self, snap: CmSnapshot) {
        self.next_conn = snap.next_conn;
        self.expired = snap.expired;
        self.refused = snap.refused;
        self.last_seq = snap.last_seq;
        self.expired_log.clear();
        self.settops = snap
            .accounts
            .into_iter()
            .map(|(settop, account)| (settop, SettopRow { used: 0, account }))
            .collect();
        self.server_used.clear();
        self.reserved_down_bps = 0;
        self.live.clear();
        for (conn, desc) in snap.allocations {
            self.settops.entry(desc.settop).or_default().used += desc.down_bps;
            *self.server_used.entry(desc.server).or_insert(0) += desc.down_bps;
            self.reserved_down_bps += desc.down_bps;
            let asserted_us = snap.asserted_us.get(&conn).copied().unwrap_or(0);
            self.live.insert(conn, Live { desc, asserted_us, token: 0 });
        }
        self.token_conn = snap.token_conn.into_iter().collect();
        for (&token, conn) in &self.token_conn {
            if let Some(l) = self.live.get_mut(conn) {
                l.token = token;
            }
        }
        self.lease_q = match self.lease_ttl_us {
            Some(_) => self.live.iter().map(|(&conn, l)| (l.asserted_us, conn)).collect(),
            None => BTreeSet::new(),
        };
    }

    fn snap_seq(snap: &CmSnapshot) -> u64 {
        snap.last_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocs_vsr::Machine;
    use ocs_wire::Wire;

    fn table() -> CmTable {
        CmTable::new(CmBudgets::default(), Some(10_000_000))
    }

    fn alloc_op(token: u64, settop: u32, bps: u64, now_us: u64) -> CmUpdate {
        CmUpdate::Allocate {
            token,
            settop: NodeId(settop),
            server: NodeId(1),
            down_bps: bps,
            now_us,
        }
    }

    #[test]
    fn tokened_retry_returns_original_grant() {
        let mut t = table();
        let a = t.apply(1, &alloc_op(77, 100, 4_000_000, 1_000)).unwrap();
        // The retry (same token) returns the same conn and reserves no
        // extra bandwidth.
        let b = t.apply(2, &alloc_op(77, 100, 4_000_000, 2_000)).unwrap();
        assert_eq!(a, b);
        assert_eq!(t.usage().allocations, 1);
        assert_eq!(t.usage().reserved_down_bps, 4_000_000);
        // A different token is a fresh request and hits the budget.
        assert_eq!(
            t.apply(3, &alloc_op(78, 100, 4_000_000, 3_000)).unwrap_err(),
            MediaError::NoBandwidth
        );
        // Releasing retires the token: a later reuse allocates fresh.
        t.apply(4, &CmUpdate::Release { conn: a, now_us: 4_000 }).unwrap();
        let c = t.apply(5, &alloc_op(77, 100, 4_000_000, 5_000)).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn expiry_is_driven_by_op_time_not_wall_time() {
        let mut t = table();
        let a = t.apply(1, &alloc_op(0, 100, 4_000_000, 1_000_000)).unwrap();
        // An op stamped 11 s later expires the stale lease first.
        let err = t
            .apply(2, &CmUpdate::Release { conn: a, now_us: 12_500_000 })
            .unwrap_err();
        assert_eq!(err, MediaError::UnknownSession { id: a });
        assert_eq!(t.usage().expired, 1);
        assert_eq!(t.take_expired().len(), 1);
        assert_eq!(t.usage().reserved_down_bps, 0);
    }

    #[test]
    fn snapshot_restore_rebuilds_derived_indexes() {
        let mut t = table();
        t.apply(1, &alloc_op(7, 100, 4_000_000, 1_000)).unwrap();
        t.apply(2, &alloc_op(8, 101, 2_000_000, 2_000)).unwrap();
        let snap = t.snapshot();
        assert_eq!(CmSnapshot::from_bytes(&snap.to_bytes()).unwrap(), snap);
        let mut r = table();
        r.restore(snap.clone());
        assert_eq!(r.usage(), t.usage());
        assert_eq!(r.audit_reserved_bps(), 6_000_000);
        assert_eq!(r.snapshot(), snap, "restore is lossless");
        // The restored token index still dedups retries.
        let again = r.apply(3, &alloc_op(7, 100, 4_000_000, 3_000)).unwrap();
        assert_eq!(r.usage().allocations, 2);
        assert_eq!(again, t.allocation(again).unwrap().conn);
    }

    #[test]
    fn replicas_applying_same_log_agree_exactly() {
        let ops: Vec<CmUpdate> = vec![
            alloc_op(1, 100, 4_000_000, 1_000),
            alloc_op(2, 101, 2_000_000, 500_000),
            CmUpdate::Reassert {
                desc: ConnDesc {
                    conn: 50,
                    settop: NodeId(102),
                    server: NodeId(2),
                    down_bps: 1_000_000,
                },
                now_us: 1_000_000,
            },
            CmUpdate::Release { conn: 1, now_us: 2_000_000 },
            CmUpdate::Expire { now_us: 14_000_000 },
        ];
        let mut a = table();
        let mut b = table();
        for (i, op) in ops.iter().enumerate() {
            let ra = a.apply(i as u64 + 1, op);
            let rb = b.apply(i as u64 + 1, op);
            assert_eq!(ra, rb);
        }
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.usage(), b.usage());
        assert_eq!(a.reserved_down_bps, a.audit_reserved_bps());
    }

    /// Tight enough that both the settop and the server caps refuse.
    const HISTORY_BUDGETS: CmBudgets = CmBudgets {
        settop_down_bps: 6_000_000,
        server_egress_bps: 30_000_000,
    };
    const HISTORY_TTL_US: u64 = 2_000_000;

    /// A seeded op stream over 24 settops (and a few strays) and 4
    /// servers, its clock advancing 0–40 ms per op: tokened and untokened
    /// allocates,
    /// retries of issued tokens (live or not), releases (some of conns
    /// never granted), reasserts of granted and of unseen conns, and
    /// `Expire` ticks. Ops name the conns and tokens earlier outcomes
    /// handed out, so the stream follows the table it drives.
    struct History {
        rng: proptest::test_runner::TestRng,
        now: u64,
        next_token: u64,
        tokens: Vec<u64>,
        granted: Vec<ConnDesc>,
    }

    impl History {
        fn new(seed: u64) -> History {
            History {
                rng: proptest::test_runner::TestRng::seeded(seed),
                now: 0,
                next_token: 1,
                tokens: Vec::new(),
                granted: Vec::new(),
            }
        }

        /// A uniformly drawn index below `len`, if there is one.
        fn pick(&mut self, len: usize) -> Option<usize> {
            (len > 0).then(|| self.rng.below(len as u64) as usize)
        }

        fn next_op(&mut self) -> CmUpdate {
            self.now += self.rng.below(40_000);
            let now_us = self.now;
            // Now and then a settop never seen before, whose first op
            // may be refused.
            let settop = match self.rng.below(50) {
                0 => NodeId(1_000 + self.rng.below(10_000) as u32),
                _ => NodeId(100 + self.rng.below(24) as u32),
            };
            let server = NodeId(1 + self.rng.below(4) as u32);
            let down_bps = [1_500_000, 2_000_000, 3_000_000, 4_000_000][self.rng.below(4) as usize];
            let allocate = |token| CmUpdate::Allocate { token, settop, server, down_bps, now_us };
            match self.rng.below(20) {
                0..=6 => {
                    let token = self.next_token;
                    self.next_token += 1;
                    self.tokens.push(token);
                    allocate(token)
                }
                7..=8 => match self.pick(self.tokens.len()) {
                    Some(i) => allocate(self.tokens[i]),
                    None => allocate(0),
                },
                9..=10 => allocate(0),
                11..=13 => {
                    let conn = match self.pick(self.granted.len()) {
                        Some(i) if self.rng.below(5) != 0 => self.granted[i].conn,
                        _ => 1_000_000 + self.rng.below(1_000),
                    };
                    CmUpdate::Release { conn, now_us }
                }
                14..=17 => {
                    // A granted allocation (live or not), or a conn id
                    // just past one, which the reassert may mint.
                    let desc = match self.pick(self.granted.len()) {
                        Some(i) if self.rng.below(4) != 0 => self.granted[i],
                        near => ConnDesc {
                            conn: near.map_or(1, |i| self.granted[i].conn) + 1 + self.rng.below(3),
                            settop,
                            server,
                            down_bps,
                        },
                    };
                    CmUpdate::Reassert { desc, now_us }
                }
                _ => CmUpdate::Expire { now_us },
            }
        }

        fn saw(&mut self, op: &CmUpdate, outcome: &Result<u64, MediaError>) {
            if let (CmUpdate::Allocate { settop, server, down_bps, .. }, Ok(conn)) = (op, outcome) {
                self.granted.push(ConnDesc {
                    conn: *conn,
                    settop: *settop,
                    server: *server,
                    down_bps: *down_bps,
                });
            }
        }
    }

    /// FNV-1a over every outcome of a 5,000-op history and, every 250
    /// ops, the snapshot's wire bytes, the usage, the accounting rows
    /// and the allocations expired since the last point.
    fn golden_history(ttl_us: Option<u64>) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bytes: &[u8]| {
            for &b in bytes {
                hash = (hash ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        };
        let mut t = CmTable::new(HISTORY_BUDGETS, ttl_us);
        let mut h = History::new(42);
        for seq in 1..=5_000 {
            let op = h.next_op();
            let outcome = t.apply(seq, &op);
            mix(&outcome.to_bytes());
            h.saw(&op, &outcome);
            if seq % 250 == 0 {
                mix(&t.snapshot().to_bytes());
                mix(&t.usage().to_bytes());
                mix(&t.accounting(h.now).to_bytes());
                mix(&t.take_expired().to_bytes());
                assert_eq!(t.audit_reserved_bps(), t.usage().reserved_down_bps);
            }
        }
        hash
    }

    #[test]
    fn golden_history_with_leases() {
        assert_eq!(golden_history(Some(HISTORY_TTL_US)), 14_429_579_178_683_670_095);
    }

    #[test]
    fn golden_history_without_leases() {
        assert_eq!(golden_history(None), 3_905_164_114_518_877_389);
    }

    proptest::proptest! {
        /// A replica that installs a snapshot taken anywhere in a history
        /// answers the rest of it exactly as the table it was taken from.
        #[test]
        fn a_restored_table_answers_like_its_source(
            seed in proptest::prelude::any::<u64>(),
            cut in 0u64..600,
            leases in proptest::prelude::any::<bool>(),
        ) {
            let ttl_us = leases.then_some(HISTORY_TTL_US);
            let mut h = History::new(seed);
            let mut a = CmTable::new(HISTORY_BUDGETS, ttl_us);
            for seq in 1..=cut {
                let op = h.next_op();
                let outcome = a.apply(seq, &op);
                h.saw(&op, &outcome);
            }
            let mut b = CmTable::new(HISTORY_BUDGETS, ttl_us);
            b.restore(CmSnapshot::from_bytes(&a.snapshot().to_bytes()).unwrap());
            for seq in cut + 1..=cut + 300 {
                let op = h.next_op();
                let outcome = a.apply(seq, &op);
                proptest::prop_assert_eq!(&b.apply(seq, &op), &outcome);
                h.saw(&op, &outcome);
            }
            proptest::prop_assert_eq!(a.snapshot().to_bytes(), b.snapshot().to_bytes());
            proptest::prop_assert_eq!(a.usage(), b.usage());
            proptest::prop_assert_eq!(a.accounting(h.now), b.accounting(h.now));
            proptest::prop_assert_eq!(a.allocations_list(), b.allocations_list());
            for t in [&a, &b] {
                proptest::prop_assert_eq!(t.audit_reserved_bps(), t.usage().reserved_down_bps);
            }
        }
    }
}
