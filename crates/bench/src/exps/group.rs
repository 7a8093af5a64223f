//! What E20–E23 share on top of the replica-group harness
//! (`ocs_vsr::group`, which builds, settles, kills and restarts a group
//! on either runtime): the legs' timeouts, the simulated leg's
//! virtual-time booking, the post-storm audit verdict, and the leg's
//! table row and artifact fields.

use std::time::Duration;

use ocs_sim::Addr;
use ocs_vsr::group::{Group, Spec};
use ocs_vsr::ReplicaConfig;

use crate::json::Json;
use crate::{f, percentile, report, Stats, Table};

/// One leg of a fail-over experiment: the group's timeouts, and how long
/// a settled group runs healthy before each kill (so the kill lands
/// mid-load, not at the instant recovery finished).
pub(crate) struct Leg {
    pub(crate) label: &'static str,
    pub(crate) tuning: fn(u32, Vec<Addr>) -> ReplicaConfig,
    pub(crate) dwell: Duration,
}

/// Paper-scale timeouts (2 s heartbeat, 5 s election): the
/// apples-to-apples leg against the paper's 25 s bound.
pub(crate) const PAPER: Leg = Leg {
    label: "paper timeouts",
    tuning: ReplicaConfig::paper_defaults,
    dwell: Duration::from_secs(4),
};

/// The deployed tuning — 200 ms heartbeat, 600 ms election, 150 ms peer
/// timeout — in the simulator and on TCP: the sub-second claim.
pub(crate) const TUNED: Leg = Leg {
    label: "deployed tuning",
    tuning: tuned,
    dwell: Duration::from_secs(1),
};

pub(crate) fn tuned(i: u32, peers: Vec<Addr>) -> ReplicaConfig {
    ReplicaConfig {
        heartbeat_interval: Duration::from_millis(200),
        election_timeout: Duration::from_millis(600),
        peer_timeout: Duration::from_millis(150),
        ..ReplicaConfig::paper_defaults(i, peers)
    }
}

/// Builds `spec`'s group in a simulator seeded `seed`, runs `storm` on
/// it and books the virtual time it took.
pub(crate) fn sim_leg<R: Send + Sync + 'static, T>(
    seed: u64,
    spec: Spec<R>,
    storm: impl FnOnce(&mut Group<R>) -> T,
) -> T {
    let mut group = Group::sim(seed, spec);
    let out = storm(&mut group);
    report::add_virtual_secs(group.now().as_secs_f64());
    out
}

/// What a post-storm audit found, worst replica counting.
pub(crate) struct Audit {
    /// Committed entries a replica no longer holds.
    pub(crate) lost: u64,
    /// Entries a replica holds that the client never saw commit.
    pub(crate) doubled: u64,
    /// Every table equal to the client's record and self-consistent.
    pub(crate) exact: bool,
}

/// Compares `want` — the client's record of what committed — against
/// each replica's table and self-audit verdict.
pub(crate) fn audit<K: Ord>(
    mut want: Vec<K>,
    tables: impl IntoIterator<Item = (Vec<K>, bool)>,
) -> Audit {
    want.sort();
    let mut a = Audit {
        lost: 0,
        doubled: 0,
        exact: true,
    };
    for (i, (mut have, self_ok)) in tables.into_iter().enumerate() {
        have.sort();
        a.lost = a
            .lost
            .max(want.iter().filter(|k| !have.contains(k)).count() as u64);
        a.doubled = a
            .doubled
            .max(have.iter().filter(|k| !want.contains(k)).count() as u64);
        if have != want || !self_ok {
            a.exact = false;
            println!(
                "    AUDIT FAIL replica {i}: {} entries vs {} expected (self-audit {self_ok})",
                have.len(),
                want.len()
            );
        }
    }
    a
}

/// One leg's table row — `leg, rounds, p50, p99, extra…` — and its
/// `<key>_p50_s` / `<key>_p99_s` artifact fields.
pub(crate) fn report_leg(t: &mut Table, leg: String, key: &str, samples: &[f64], extra: &[String]) {
    let s = Stats::of(samples);
    let p99 = percentile(samples, 0.99);
    let mut row = vec![leg, s.n.to_string(), f(s.p50, 2), f(p99, 2)];
    row.extend_from_slice(extra);
    t.row(&row);
    report::put(&format!("{key}_p50_s"), Json::F64(s.p50));
    report::put(&format!("{key}_p99_s"), Json::F64(p99));
}
