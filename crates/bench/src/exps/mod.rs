//! The experiment suite regenerating the paper's evaluation (see
//! EXPERIMENTS.md for the experiment ↔ paper-section mapping and the
//! recorded results).

mod availability;
mod cluster_exps;
mod cm_failover;
mod failover;
mod group;
mod kernel_bench;
mod saturation;
mod standalone;
mod svc_failover;

pub use availability::{e19, e21};
pub use cluster_exps::{e1, e13, e14, e15, e16, e2, e4, e7, e8};
pub use cm_failover::e22;
pub use failover::e20;
pub use kernel_bench::e18;
pub use saturation::e17;
pub use standalone::{e10, e11, e12, e3, e5, e6, e9};
pub use svc_failover::e23;

use std::sync::Arc;
use std::time::Duration;

use itv_cluster::{Cluster, ClusterConfig, Promise, Watch};
use itv_media::names;
use ocs_sim::{NodeRt, NodeRtExt, Sim, SimChan, SimTime};

/// What the command line can set for the experiments that take it.
pub struct Args {
    /// How many of the slowest request trees E16's span dump renders.
    pub spans: usize,
    /// E17's simulated settop population (E18: its replay leg's).
    pub settops: usize,
    /// Skip the real-runtime legs of E20, E21 and E23.
    pub sim_only: bool,
}

/// An experiment's name and entry point.
pub type Experiment = (&'static str, fn(&Args));

/// Every experiment by name, in suite order: what `all` runs, what a
/// name on the command line dispatches to, and what `check`'s runs name.
pub const EXPERIMENTS: &[Experiment] = &[
    ("e1", |_| e1()),
    ("e2", |_| e2()),
    ("e3", |_| e3()),
    ("e4", |_| e4()),
    ("e5", |_| e5()),
    ("e6", |_| e6()),
    ("e7", |_| e7()),
    ("e8", |_| e8()),
    ("e9", |_| e9()),
    ("e10", |_| e10()),
    ("e11", |_| e11()),
    ("e12", |_| e12()),
    ("e13", |_| e13()),
    ("e14", |_| e14()),
    ("e15", |_| e15()),
    ("e16", |a| e16(a.spans)),
    ("e17", |a| e17(a.settops)),
    ("e18", |a| e18(a.settops)),
    ("e19", |_| e19()),
    ("e20", |a| e20(a.sim_only)),
    ("e21", |a| e21(a.sim_only)),
    ("e22", |_| e22()),
    ("e23", |a| e23(a.sim_only)),
];
/// Builds a cluster and runs it to the fully-ready state (services
/// placed, settops booted).
pub(crate) fn ready_cluster(seed: u64, cfg: ClusterConfig) -> (Sim, Cluster) {
    let sim = Sim::new(seed);
    let cluster = Cluster::ready(&sim, cfg, SimTime::from_secs(75));
    (sim, cluster)
}

/// Which server a primary/backup service's binding points at, read from
/// the name service's committed state in place.
pub(crate) fn primary_server_of(cluster: &Cluster, path: &str) -> Option<usize> {
    let obj = cluster.binding(path)?;
    cluster
        .servers
        .iter()
        .position(|s| s.node.node() == obj.addr.node)
}

/// [`primary_server_of`] `svc/mms`, after moving the primary off server 0
/// if the start-up bind race left it there (the two instances start
/// milliseconds apart). Server 0 holds the name-service master in a
/// fault-free run, and its audit learns of a death on its own server
/// from the local RAS at once: only a primary elsewhere puts the
/// RAS-to-RAS poll, the third of §9.7's windows, into a fail-over
/// measurement. The instance the SSC restarts can win the name back
/// (with every period at 2 s it always does): after three tries the
/// primary is reported where it is.
pub(crate) fn remote_mms_primary(cluster: &Cluster) -> Option<usize> {
    for _ in 0..3 {
        if primary_server_of(cluster, names::MMS)? != 0 {
            break;
        }
        let mut watch = Watch::new(cluster, &[Promise::Rebind(names::MMS)]);
        cluster.kill_service(0, "mms");
        watch.run_for(Watch::PERIOD);
        watch.run_while_broken(Duration::from_secs(120));
    }
    primary_server_of(cluster, names::MMS)
}

/// Runs `f` inside a fresh process on `node`, returning its result
/// through a channel once the simulation has run `window`.
pub(crate) fn probe<T: Send + 'static>(
    sim: &Sim,
    node: &Arc<ocs_sim::SimNode>,
    window: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> Option<T> {
    let out: SimChan<T> = SimChan::new(sim);
    let out2 = out.clone();
    node.spawn_fn("probe", move || {
        out2.send(f());
    });
    sim.run_for(window);
    out.try_recv()
}
