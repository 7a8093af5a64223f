//! Cluster-wide telemetry: scrapes every node's on-box `Telemetry`
//! servant (servers and settops alike) and folds the results into one
//! [`TelemetrySnapshot`] — the operator's single view of ORB resilience
//! counters, service metrics and causal RPC spans across the deployment.

use std::collections::BTreeMap;
use std::time::Duration;

use itv_media::ports;
use ocs_orb::{telemetry_ref, ClientCtx, TelemetryClient};
use ocs_sim::{Addr, NodeId, NodeRt, NodeRtExt, Rt, SimChan};
use ocs_telemetry::{MetricsSnapshot, Span};

use ocs_telemetry::{merge_journals, render_timeline, Journal, JournalEvent};

use crate::build::Cluster;

/// Everything one scrape pass saw, cluster-wide.
#[derive(Clone, Debug, Default)]
pub struct TelemetrySnapshot {
    /// Per-node metric snapshots, for every node that answered.
    pub nodes: BTreeMap<NodeId, MetricsSnapshot>,
    /// All per-node snapshots merged: counters and gauges add, matching
    /// fixed-bucket histograms add bucketwise.
    pub merged: MetricsSnapshot,
    /// Finished spans from every node, in a deterministic order
    /// (trace id, start time, span id).
    pub spans: Vec<Span>,
    /// Nodes whose telemetry servant did not answer (crashed, not yet
    /// booted, or partitioned away at scrape time).
    pub unreachable: Vec<NodeId>,
}

impl TelemetrySnapshot {
    /// Merged-counter lookup (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.merged.counter(name)
    }

    /// Asks the telemetry servant of every node in `targets`, from the
    /// calling process on `probe`'s node, and merges what answered.
    pub(crate) fn scrape(probe: Rt, targets: Vec<NodeId>) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::default();
        for node in targets {
            let ctx = ClientCtx::new(probe.clone()).with_timeout(Duration::from_millis(1500));
            let tele = telemetry_ref(Addr::new(node, ports::TELEMETRY));
            let Ok(client) = TelemetryClient::attach(ctx, tele) else {
                snap.unreachable.push(node);
                continue;
            };
            let (metrics, spans) = (client.metrics(), client.spans());
            match metrics {
                Ok(m) => {
                    snap.merged.merge(&m);
                    snap.nodes.insert(node, m);
                }
                Err(_) => {
                    snap.unreachable.push(node);
                    continue;
                }
            }
            if let Ok(spans) = spans {
                snap.spans.extend(spans);
            }
        }
        snap.spans
            .sort_by_key(|s| (s.trace.0, s.start.as_micros(), s.span.0));
        snap
    }
}

impl Cluster {
    /// Scrapes the telemetry servant of every node in the cluster from a
    /// probe process on server 0, running the simulation until the
    /// scrape completes (at most ~2 s of virtual time per node).
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let mut targets: Vec<NodeId> = self.servers.iter().map(|s| s.node.node()).collect();
        targets.extend(self.settop_nodes.iter().map(|n| n.node()));

        let out: SimChan<TelemetrySnapshot> = SimChan::new(&self.sim);
        let out2 = out.clone();
        let probe = self.servers[0].node.clone();
        let rt = probe.clone();
        probe.spawn_fn("telemetry-scrape", move || {
            out2.send(TelemetrySnapshot::scrape(rt, targets));
        });
        // One RPC pair per node plus slack; virtual time is free.
        self.sim
            .run_for(Duration::from_secs(2) * (self.servers.len() + self.settop_nodes.len()) as u32);
        let mut snap = out.try_recv().expect("telemetry scrape completed");
        // Kernel scheduler health rides along as driver-side gauges: the
        // kernel is not a node, so no servant can export these.
        let ks = self.sim.kernel_stats();
        for (name, v) in [
            ("sim.kernel.events", ks.events),
            ("sim.kernel.driver_resumes", ks.driver_resumes),
            ("sim.kernel.direct_handoffs", ks.direct_handoffs),
            ("sim.kernel.self_continues", ks.self_continues),
        ] {
            snap.merged.gauges.insert(name.to_string(), v as i64);
        }
        snap
    }

    /// Every node's flight-recorder events, unmerged. Reads the journals
    /// directly through the node extensions — no RPC — so crashed or
    /// partitioned nodes still contribute everything they recorded
    /// before dying.
    pub fn journal_events(&self) -> Vec<JournalEvent> {
        let mut events = Vec::new();
        for s in &self.servers {
            events.extend(Journal::of(&*s.node).events());
        }
        for n in &self.settop_nodes {
            events.extend(Journal::of(&**n).events());
        }
        events
    }

    /// The cluster postmortem: every node's journal merged into one
    /// causally-ordered timeline (timestamp, then node, then each node's
    /// recording order), trace ids attached where the event fired inside
    /// a traced request. Deterministic — same seed, same text.
    pub fn postmortem(&self) -> String {
        render_timeline(&merge_journals(self.journal_events()))
    }
}
