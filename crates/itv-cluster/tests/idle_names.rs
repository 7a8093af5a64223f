//! What an idle cluster asks of its name service: services hold their
//! names by looking, not by rewriting them, so a fault-free minute
//! commits only what changed (load reports, a backup's §5.2 retries)
//! and no name is ever missing.

use std::sync::Arc;
use std::time::Duration;

use itv_cluster::{Cluster, ClusterConfig};
use ocs_name::{NsError, NsHandle};
use ocs_orb::ClientCtx;
use ocs_sim::{NodeRt, NodeRtExt, Sim, SimNode, SimTime};
use parking_lot::Mutex;

/// Resolves each of `names` every 50 ms until `until`, recording every
/// answer that says the name has no holder.
fn probe(
    node: &Arc<SimNode>,
    ns: NsHandle,
    names: &'static [&'static str],
    until: SimTime,
    missing: &Arc<Mutex<Vec<String>>>,
) {
    let (rt, missing) = (node.clone(), Arc::clone(missing));
    node.spawn_fn("name-probe", move || {
        while rt.now() < until {
            for name in names {
                if let Err(e @ (NsError::NotFound { .. } | NsError::NoReplicaAvailable { .. })) =
                    ns.resolve(name)
                {
                    missing.lock().push(format!("{:?} {name}: {e:?}", rt.now()));
                }
            }
            rt.sleep(Duration::from_millis(50));
        }
    });
}

#[test]
fn an_idle_minute_commits_only_what_changed_and_no_name_goes_missing() {
    let sim = Sim::new(601);
    let cluster = Cluster::ready(&sim, ClusterConfig::small(), SimTime::from_secs(75));
    let before = cluster.telemetry_snapshot();

    // The idle minute starts where the first scrape ended (t = 83 s).
    // The selectors answer by caller: `SameServer` contexts for a server,
    // the neighborhood's RDS for a settop.
    let until = sim.now() + Duration::from_secs(60);
    let missing = Arc::new(Mutex::new(Vec::new()));
    probe(
        &cluster.servers[0].node,
        cluster.ns(0),
        &["svc/mds", "svc/auth", "svc/shop", "svc/mms"],
        until,
        &missing,
    );
    let settop = &cluster.settop_nodes[0];
    probe(
        settop,
        NsHandle::new(ClientCtx::new(settop.clone()), cluster.ns_peers[0]),
        &["svc/rds", "svc/shop", "svc/mms"],
        until,
        &missing,
    );
    sim.run_until(until);
    let after = cluster.telemetry_snapshot();
    assert!(before.unreachable.is_empty() && after.unreachable.is_empty());
    assert_eq!(*missing.lock(), Vec::<String>::new());

    // The minute plus the first scrape's own span (8 s) lies between the
    // two readings. Per replica that is 28 load reports (two MDSs, every 5 s) and 14
    // bind retries of the backup MMS and KBS (every 10 s): 42. Keepers
    // that unbind and re-bind live names every period read 259.
    let rose = |name: &str| -> Vec<u64> {
        let of = |s: &itv_cluster::ServerHandle| {
            let node = s.node.node();
            after.nodes[&node].counter(name) - before.nodes[&node].counter(name)
        };
        cluster.servers.iter().map(of).collect()
    };
    let commits = rose("ns.vsr.commits");
    assert!(
        commits.iter().all(|&c| c <= 50),
        "commits per replica: {commits:?}"
    );
    assert!(commits.iter().sum::<u64>() <= 100, "commits: {commits:?}");
    assert_eq!(
        rose("ns.vsr.unbinds"),
        [0, 0],
        "an idle cluster unbinds nothing"
    );
}
