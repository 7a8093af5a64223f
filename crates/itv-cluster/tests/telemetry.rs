//! Telemetry tests: a settop movie open yields one connected causal
//! span tree crossing the name service, MMS, CM and MDS; and the span
//! trees are bit-identical across two same-seed runs.

use std::collections::BTreeSet;
use std::time::Duration;

use itv_cluster::{Cluster, ClusterConfig, TelemetrySnapshot};
use ocs_sim::{Sim, SimTime};
use ocs_telemetry::{render_span_trees, span_forest};

/// Boots a small cluster, has settop 0 open and watch `movie-0`, and
/// returns the cluster-wide telemetry snapshot plus the open count.
fn movie_run(seed: u64) -> (TelemetrySnapshot, u64) {
    let sim = Sim::new(seed);
    let cluster = Cluster::ready(&sim, ClusterConfig::small(), SimTime::from_secs(70));
    let settop = &cluster.settops[0];
    settop.watch_movie("movie-0", 10_000);
    sim.run_for(Duration::from_secs(60));
    let opened = settop.handle.metrics.movies_opened.get();
    (cluster.telemetry_snapshot(), opened)
}

/// `"client:itv.mms.open"` → `"itv.mms"`.
fn service_of(span_name: &str) -> Option<&str> {
    let qualified = span_name.split(':').nth(1)?;
    Some(qualified.rsplit_once('.')?.0)
}

#[test]
fn movie_open_produces_connected_span_tree_across_services() {
    let (snap, opened) = movie_run(601);
    assert!(opened >= 1, "movie opened");
    assert!(!snap.spans.is_empty(), "spans were scraped");

    let forest = span_forest(&snap.spans);
    let mut services_seen: Vec<BTreeSet<&str>> = Vec::new();
    for spans in forest.values() {
        // Only traces rooted at a settop's MMS open.
        let Some(root) = spans.iter().find(|s| s.parent.0 == 0) else {
            continue;
        };
        if root.name != "client:itv.mms.open" {
            continue;
        }
        // The tree must be connected: every non-root span's parent is
        // also in the trace (no orphaned spans).
        let ids: BTreeSet<u64> = spans.iter().map(|s| s.span.0).collect();
        assert!(
            spans
                .iter()
                .all(|s| s.parent.0 == 0 || ids.contains(&s.parent.0)),
            "movie-open trace is one connected tree"
        );
        services_seen.push(spans.iter().filter_map(|s| service_of(&s.name)).collect());
    }
    let best = services_seen
        .iter()
        .max_by_key(|s| s.len())
        .expect("at least one MMS-open rooted trace");
    assert!(
        best.len() >= 4,
        "movie open crossed >= 4 services, got {best:?}"
    );
    for svc in ["itv.mms", "itv.cmgr", "itv.mds"] {
        assert!(best.contains(svc), "trace includes {svc}: {best:?}");
    }
}

#[test]
fn shared_resolve_cache_shows_up_in_cluster_metrics() {
    let (snap, opened) = movie_run(603);
    assert!(opened >= 1, "movie opened");
    let m = &snap.merged;
    // Settop rebinding proxies resolve through the node-shared cache:
    // every remote lookup corresponds to a cache miss, never more.
    let misses = m.counter("ns.cache.misses");
    let lookups = m.counter("ns.client.lookups");
    assert!(misses >= 1, "rebinding proxies went through the cache");
    assert!(
        lookups >= misses,
        "each miss resolves remotely at most once (lookups {lookups} < misses {misses})"
    );
    // A healthy run (no fail-overs) never refuses an install as stale.
    assert_eq!(m.counter("ns.cache.stale_installs"), 0);
    // Kernel scheduler health rides along as driver-side gauges.
    assert!(m.gauges.get("sim.kernel.events").copied().unwrap_or(0) > 0);
}

#[test]
fn vsr_replication_shows_up_in_cluster_metrics() {
    let (snap, opened) = movie_run(604);
    assert!(opened >= 1, "movie opened");
    let m = &snap.merged;
    // Cluster bring-up binds every service through the replicated log,
    // so each NS replica applies a healthy stream of commits.
    assert!(
        m.counter("ns.vsr.commits") >= 3,
        "NS mutations went through the VSR log: {:?}",
        m.counters
    );
    // Commits on replicated paths bump the node resolve caches'
    // generation stamp.
    assert!(m.counter("ns.vsr.cache_invalidations") >= 1);
    // A healthy run stays in the cold-start view with no elections.
    assert_eq!(m.counter("ns.vsr.view_changes"), 0);
    assert_eq!(m.counter("ns.vsr.suspects"), 0);
    // And the per-node view gauges agree on that view.
    for (node, metrics) in &snap.nodes {
        if let Some(view) = metrics.gauges.get("ns.vsr.view") {
            assert_eq!(*view, 0, "node {node:?} left view 0 without faults");
        }
    }
    // The Connection Manager sits on its own VSR log: the movie open's
    // allocate, the close's release, and the periodic lease-expiry ticks
    // all commit through it on every replica.
    assert!(
        m.counter("cm.vsr.commits") >= 3,
        "CM mutations went through the VSR log: {:?}",
        m.counters
    );
    assert_eq!(m.counter("cm.vsr.view_changes"), 0);
    assert_eq!(m.counter("cm.vsr.suspects"), 0);
    for (node, metrics) in &snap.nodes {
        if let Some(view) = metrics.gauges.get("cm.vsr.view") {
            assert_eq!(*view, 0, "node {node:?} CM left view 0 without faults");
        }
    }
    // Service control rides the log too: seeding the placement table
    // from the DB commits one `Define` per service on every replica,
    // each a placement decision.
    assert!(
        m.counter("ssc.vsr.commits") >= 3,
        "SSC placement ops went through the VSR log: {:?}",
        m.counters
    );
    assert!(
        m.counter("ssc.vsr.decisions") >= 3,
        "placement decisions were journalled: {:?}",
        m.counters
    );
    assert_eq!(m.counter("ssc.vsr.view_changes"), 0);
    assert_eq!(m.counter("ssc.vsr.suspects"), 0);
    for (node, metrics) in &snap.nodes {
        if let Some(view) = metrics.gauges.get("ssc.vsr.view") {
            assert_eq!(*view, 0, "node {node:?} SSC left view 0 without faults");
        }
        if let Some(epoch) = metrics.gauges.get("ssc.vsr.epoch") {
            assert!(*epoch >= 1, "node {node:?} placement epoch advanced");
        }
    }
}

#[test]
fn same_seed_runs_produce_identical_span_trees() {
    let (a, opened_a) = movie_run(602);
    let (b, opened_b) = movie_run(602);
    assert!(opened_a >= 1);
    assert_eq!(opened_a, opened_b);
    assert_eq!(a.spans, b.spans, "same seed, same spans");
    assert_eq!(
        render_span_trees(&a.spans, 10),
        render_span_trees(&b.spans, 10),
        "rendered span trees identical"
    );
    assert_eq!(a.merged.counters, b.merged.counters);
}
