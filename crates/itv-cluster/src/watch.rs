//! The paper's availability promises, as oracles read between
//! simulation slices.
//!
//! The availability claim comes down to a few bounded promises — a name
//! rebinds within 25 s (§9.7), no single failure is visible for longer
//! than that (§7), a dead settop's resources come back (§3.5.1), a
//! rolling upgrade shows clients no error (§9.5) — plus the replica
//! groups' own audits. A [`Promise`] is one of them, with its bound and
//! its section; a [`Watch`] checks a set of them every [`Watch::PERIOD`]
//! of virtual time while it advances the simulation, and records each
//! [`Lapse`]: when the promise broke, when it held again, and the state
//! that broke it.
//!
//! The watch runs on the thread that advances the simulation, between
//! `run_until` slices, and reads node-local state in place: the service
//! objects the cluster's instances started (NS, CM and SSC replicas, the
//! MMS, the MDSs), the SSCs' statuses and the settops' metrics. It spawns no process and
//! makes no call, so it adds no event: a watched run replays the
//! unwatched one's trace hash. Each break and each recovery goes to the
//! `promise` journal channel of server 0, so `postmortem()` shows them
//! among the faults.
//!
//! A recovery the watch measures is late by less than one period: a
//! promise that held again at `t` is seen holding at the first check at
//! or after `t`.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use ocs_name::{Entry, NsState, ROOT_CTX};
use ocs_orb::ObjRef;
use ocs_sim::{FaultPlan, NodeId, NodeRt, SimTime};
use ocs_telemetry::Journal;

use crate::build::Cluster;
use crate::chaos::ChaosOutcome;
use crate::config::ClusterConfig;

/// One of the paper's availability promises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Promise {
    /// The name at the path is bound to an object a running service
    /// instance exported (§9.7: a fail-over rebinds it within 25 s).
    Rebind(&'static str),
    /// Every live settop tuned to video on demand receives a stream (§7:
    /// no single failure is visible for more than 25 s).
    Stream,
    /// No Connection Manager allocation, MDS stream or MMS session is
    /// held for a settop beyond the one stream it wants: none for a dead
    /// settop or one that stopped watching (§3.5.1: reclaimed within
    /// 25 s).
    Reclaim,
    /// No settop application reports a failed request — a shopping
    /// interaction or a movie open — after the watch began (§9.5: "clients
    /// using the service see no disruption").
    Upgrade,
    /// Every live CM and SSC replica's incrementally kept index matches a
    /// rescan of its table (the E22/E23 audits).
    Audit,
}

impl Promise {
    /// How long the promise may stay broken.
    pub fn bound(self) -> Duration {
        match self {
            Promise::Rebind(_) | Promise::Stream | Promise::Reclaim => Duration::from_secs(25),
            Promise::Upgrade | Promise::Audit => Duration::ZERO,
        }
    }

    /// The paper section that makes it.
    pub fn section(self) -> &'static str {
        match self {
            Promise::Rebind(_) => "§9.7",
            Promise::Stream => "§7",
            Promise::Reclaim => "§3.5.1",
            Promise::Upgrade => "§9.5",
            Promise::Audit => "E22, E23",
        }
    }
}

impl fmt::Display for Promise {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Promise::Rebind(path) => write!(f, "rebind {path}"),
            Promise::Stream => f.write_str("stream"),
            Promise::Reclaim => f.write_str("reclaim"),
            Promise::Upgrade => f.write_str("upgrade"),
            Promise::Audit => f.write_str("audit"),
        }
    }
}

/// One stretch of time a promise was broken.
#[derive(Clone, Debug)]
pub struct Lapse {
    /// The promise.
    pub promise: Promise,
    /// The first check that found it broken.
    pub broke: SimTime,
    /// The first check that found it holding again (`None`: still broken).
    pub held: Option<SimTime>,
    /// The state that broke it, as the latest check while broken found it.
    pub cause: String,
}

/// Checks a set of promises every [`Watch::PERIOD`] while it advances
/// the cluster's simulation.
pub struct Watch<'c> {
    cluster: &'c Cluster,
    promises: Vec<Promise>,
    lapses: Vec<Lapse>,
    /// Per promise, the index of its open lapse.
    open: Vec<Option<usize>>,
    /// Settop client errors when the watch began.
    errors_at_start: u64,
    journal: Arc<Journal>,
}

impl<'c> Watch<'c> {
    /// The check period: checks fall on its multiples of virtual time.
    pub const PERIOD: Duration = Duration::from_millis(200);

    /// Starts watching `promises`, checking them once now.
    pub fn new(cluster: &'c Cluster, promises: &[Promise]) -> Watch<'c> {
        let mut w = Watch {
            cluster,
            promises: promises.to_vec(),
            lapses: Vec::new(),
            open: vec![None; promises.len()],
            errors_at_start: cluster.client_errors(),
            journal: Journal::of(&*cluster.servers[0].node),
        };
        w.check();
        w
    }

    /// Advances the simulation to `t`, checking at every multiple of
    /// [`PERIOD`](Watch::PERIOD) on the way and at `t`.
    pub fn run_until(&mut self, t: SimTime) {
        let period = Watch::PERIOD.as_micros() as u64;
        let sim = &self.cluster.sim;
        while sim.now() < t {
            let next = SimTime::from_micros((sim.now().as_micros() / period + 1) * period);
            sim.run_until(next.min(t));
            self.check();
        }
    }

    /// [`run_until`](Watch::run_until) `d` from now.
    pub fn run_for(&mut self, d: Duration) {
        self.run_until(self.cluster.sim.now() + d);
    }

    /// Advances a period at a time while a watched promise is broken, for
    /// at most `limit`.
    pub fn run_while_broken(&mut self, limit: Duration) {
        let end = self.cluster.sim.now() + limit;
        while self.broken().next().is_some() && self.cluster.sim.now() < end {
            self.run_until((self.cluster.sim.now() + Watch::PERIOD).min(end));
        }
    }

    /// [`Cluster::run_fault_plan`], checking between the plan's actions.
    pub fn run_fault_plan(&mut self, plan: &FaultPlan) -> ChaosOutcome {
        let cluster = self.cluster;
        cluster.drive_fault_plan(plan, |t| self.run_until(t))
    }

    /// Checks every promise now, opening and closing lapses.
    fn check(&mut self) {
        let now = self.cluster.sim.now();
        for (i, p) in self.promises.iter().copied().enumerate() {
            match (self.evaluate(p), self.open[i]) {
                (Ok(()), None) => {}
                (Ok(()), Some(at)) => {
                    let lapse = &mut self.lapses[at];
                    lapse.held = Some(now);
                    let secs = now.saturating_since(lapse.broke).as_secs_f64();
                    self.journal.record(
                        now,
                        "promise",
                        format!("holds again: {p} after {secs:.1} s"),
                    );
                    self.open[i] = None;
                }
                (Err(cause), Some(at)) => self.lapses[at].cause = cause,
                (Err(cause), None) => {
                    self.journal.record(
                        now,
                        "promise",
                        format!(
                            "broken: {p} ({}, bound {} s): {cause}",
                            p.section(),
                            p.bound().as_secs()
                        ),
                    );
                    self.open[i] = Some(self.lapses.len());
                    self.lapses.push(Lapse {
                        promise: p,
                        broke: now,
                        held: None,
                        cause,
                    });
                }
            }
        }
    }

    /// Every lapse so far, in the order they began.
    pub fn lapses(&self) -> &[Lapse] {
        &self.lapses
    }

    /// The lapses still open.
    pub fn broken(&self) -> impl Iterator<Item = &Lapse> {
        self.open.iter().flatten().map(|&i| &self.lapses[i])
    }

    /// When `p` last held again after `since`: `since` itself if no
    /// lapse of it ended later, `None` while it is broken.
    pub fn recovered(&self, p: Promise, since: SimTime) -> Option<SimTime> {
        let mut at = since;
        for l in self.lapses.iter().filter(|l| l.promise == p) {
            at = at.max(l.held?);
        }
        Some(at)
    }

    fn evaluate(&self, p: Promise) -> Result<(), String> {
        let c = self.cluster;
        match p {
            Promise::Rebind(path) => c.check_bound(path),
            Promise::Stream => c.check_streams(),
            Promise::Reclaim => c.check_reclaimed(),
            Promise::Upgrade => match c.client_errors() - self.errors_at_start {
                0 => Ok(()),
                n => Err(format!("{n} client errors since the watch began")),
            },
            Promise::Audit => c.check_audits(),
        }
    }
}

/// The object bound at the leaf `path` of `state`.
fn leaf(state: &NsState, path: &str) -> Option<ObjRef> {
    let (parent, name) = path.rsplit_once('/').unwrap_or(("", path));
    let mut ctx = ROOT_CTX;
    for part in parent.split('/').filter(|p| !p.is_empty()) {
        ctx = state.ctx_of_name(ctx, part)?;
    }
    match state.context(ctx)?.bindings.get(name)? {
        Entry::Leaf { obj, .. } => Some(*obj),
        Entry::Ctx { .. } => None,
    }
}

/// What each settop holds, by kind of resource.
#[derive(Default)]
struct Held {
    allocations: u32,
    streams: u32,
    sessions: u32,
}

impl Cluster {
    /// The object bound at `path`, as the committed state of a running
    /// name-service replica has it (the master's when one runs).
    pub fn binding(&self, path: &str) -> Option<ObjRef> {
        let mut replicas: Vec<_> = self
            .servers
            .iter()
            .filter_map(|s| s.started("ns", |st| st.ns.upgrade()))
            .collect();
        replicas.sort_by_key(|r| !r.is_master());
        replicas.first()?.read(|c| leaf(c.state(), path))
    }

    /// Shopping and movie-open failures, summed over the settops.
    pub fn client_errors(&self) -> u64 {
        let m = self.settops.iter().map(|s| &s.handle.metrics);
        m.map(|m| m.shop_failures.get() + m.movie_failures.get())
            .sum()
    }

    fn check_bound(&self, path: &str) -> Result<(), String> {
        let obj = self
            .binding(path)
            .ok_or_else(|| format!("{path} is not bound"))?;
        let exported = self.servers.iter().any(|s| {
            let statuses = s.statuses();
            statuses.iter().any(|st| st.running && st.objects.contains(&obj))
        });
        if exported {
            Ok(())
        } else {
            Err(format!(
                "{path} names an object on {} that no running instance exported",
                obj.addr
            ))
        }
    }

    /// Whether settop `i` is alive and waiting on video on demand.
    fn wants_stream(&self, i: usize) -> bool {
        let h = &self.settops[i].handle;
        h.group.alive() && h.metrics.tuned.get() == ClusterConfig::CHANNEL_VOD as i64
    }

    fn check_streams(&self) -> Result<(), String> {
        let waiting: Vec<String> = (0..self.settops.len())
            .filter(|&i| {
                self.wants_stream(i) && self.settops[i].handle.metrics.streaming.get() == 0
            })
            .map(|i| {
                let events = self.settops[i].handle.metrics.events.lock();
                let last = events.iter().last().map_or("", |(_, e)| e.as_str());
                format!("settop {i} has no stream (last: {last})")
            })
            .collect();
        verdict(waiting)
    }

    fn check_reclaimed(&self) -> Result<(), String> {
        let mut held: BTreeMap<NodeId, Held> = BTreeMap::new();
        for n in 0..self.cfg.neighborhoods() {
            let Some(cm) = self.cm_member(n) else {
                continue;
            };
            for a in cm.allocations() {
                held.entry(a.settop).or_default().allocations += 1;
            }
        }
        for s in &self.servers {
            if let Some(mds) = s.started("mds", |st| st.mds.upgrade()) {
                for session in mds.sessions() {
                    held.entry(session.dest.node).or_default().streams += 1;
                }
            }
            if let Some(mms) = s.started("mms", |st| st.mms.upgrade()) {
                for settop in mms.session_settops() {
                    held.entry(settop).or_default().sessions += 1;
                }
            }
        }
        let mut over = Vec::new();
        for (i, s) in self.settops.iter().enumerate() {
            let Some(h) = held.get(&s.node.node()) else {
                continue;
            };
            let may = self.wants_stream(i) as u32;
            if h.allocations.max(h.streams).max(h.sessions) > may {
                let why = if !s.handle.group.alive() {
                    "dead"
                } else if may == 0 {
                    "not watching"
                } else {
                    "one stream"
                };
                over.push(format!(
                    "settop {i} ({why}) holds {} CM allocations, {} MDS streams, {} MMS sessions",
                    h.allocations, h.streams, h.sessions
                ));
            }
        }
        verdict(over)
    }

    /// A running member of neighborhood `n`'s CM group, its master when
    /// one runs.
    fn cm_member(&self, n: u32) -> Option<Arc<itv_media::CmReplica>> {
        let name = format!("cmgr-{n}");
        let mut members: Vec<_> = self
            .servers
            .iter()
            .filter_map(|s| s.started(&name, |st| st.cm.get(&n)?.upgrade()))
            .collect();
        members.sort_by_key(|m| !m.is_master());
        members.into_iter().next()
    }

    fn check_audits(&self) -> Result<(), String> {
        let mut wrong = Vec::new();
        for (i, s) in self.servers.iter().enumerate() {
            for n in 0..self.cfg.neighborhoods() {
                let name = format!("cmgr-{n}");
                let Some(cm) = s.started(&name, |st| st.cm.get(&n)?.upgrade()) else {
                    continue;
                };
                let (indexed, scanned) = cm.audit_reserved_bps();
                wrong.extend(cm_audit(&name, i, indexed, scanned));
            }
            let csc = s.started("csc", |st| st.csc.upgrade()?.replica());
            if csc.is_some_and(|r| !r.audit_ok()) {
                wrong.push(format!(
                    "csc on server {i}: node index differs from a rescan"
                ));
            }
        }
        verdict(wrong)
    }
}

/// Holds when nothing is wrong; else the wrongs are its cause.
fn verdict(wrong: Vec<String>) -> Result<(), String> {
    if wrong.is_empty() {
        Ok(())
    } else {
        Err(wrong.join("; "))
    }
}

/// What is wrong with CM group `name`'s member on server `i`, whose
/// index says `indexed` bps are reserved and whose rescan says `scanned`.
fn cm_audit(name: &str, i: usize, indexed: u64, scanned: u64) -> Option<String> {
    (indexed != scanned).then(|| {
        format!("{name} on server {i}: {indexed} bps reserved by its index, {scanned} by a rescan")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // No operation a running replica accepts makes its index and its
    // table disagree, so the audit promise's break is fed to its check.
    #[test]
    fn an_index_that_disagrees_with_its_rescan_breaks_the_audit() {
        assert_eq!(cm_audit("cmgr-0", 1, 8_000_000, 8_000_000), None);
        let wrong = cm_audit("cmgr-0", 1, 8_000_000, 4_000_000);
        assert_eq!(
            verdict(wrong.into_iter().collect()),
            Err(
                "cmgr-0 on server 1: 8000000 bps reserved by its index, 4000000 by a rescan".into()
            )
        );
    }
}
