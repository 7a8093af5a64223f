//! Flight-recorder postmortems: replaying the seeded E15 chaos storm
//! and asserting (a) the merged cluster timeline lists every injected
//! fault, in injection order, and (b) the whole postmortem text is
//! byte-identical across same-seed reruns — the journal is part of the
//! deterministic replay surface, not a best-effort log.

use std::time::Duration;

use itv_cluster::{Cluster, ClusterConfig};
use ocs_sim::{FaultEvent, FaultPlan, Sim, SimTime};

/// One full E15-style storm (same shape and seeds as the chaos-trace
/// regression), returning the merged postmortem timeline and the plan
/// that was injected.
fn storm_postmortem(sim_seed: u64, plan_seed: u64) -> (String, FaultPlan) {
    let sim = Sim::new(sim_seed);
    let mut cfg = ClusterConfig::small();
    cfg.movie_replicas = 2;
    let cluster = Cluster::ready(&sim, cfg, SimTime::from_secs(70));
    for s in &cluster.settops {
        s.watch_movie("movie-0", 10_000);
    }
    sim.run_for(Duration::from_secs(5));
    let spec = cluster.chaos_spec(SimTime::from_secs(77), SimTime::from_secs(100));
    let plan = FaultPlan::random(plan_seed, &spec);
    cluster.run_fault_plan(&plan);
    sim.run_until(SimTime::from_secs(130));
    (cluster.postmortem(), plan)
}

/// The plan's injections (heals excluded), in injection order.
fn injections(plan: &FaultPlan) -> Vec<FaultEvent> {
    plan.sorted_events()
        .into_iter()
        .filter(|e| e.action.is_injection())
        .collect()
}

#[test]
fn postmortem_lists_injected_faults_in_order() {
    let (timeline, plan) = storm_postmortem(305, 7);
    let injected = injections(&plan);
    assert!(
        !injected.is_empty(),
        "the seeded storm should inject at least one fault"
    );
    // Every injection shows up as a `fault` line, and scanning the
    // timeline front-to-back finds them in injection order (the merge
    // sorts by timestamp, so the injected sequence is preserved).
    let mut pos = 0usize;
    for ev in &injected {
        let desc = ev.action.describe();
        let idx = timeline[pos..].find(&desc).unwrap_or_else(|| {
            panic!(
                "injected fault {:?} ({desc}) missing (or out of order) in timeline:\n{timeline}",
                ev.at
            )
        });
        pos += idx;
    }
    // Fault lines carry the `fault` category tag.
    assert!(
        timeline.lines().any(|l| l.contains(" fault ")),
        "timeline should tag fault-injection lines:\n{timeline}"
    );
    // The service-control VSR group journals on its own channel: the
    // merged postmortem interleaves placement decisions (seeding the
    // table commits one `Define` per service) with the faults above.
    assert!(
        timeline.lines().any(|l| l.contains(" ssc-vsr ")),
        "timeline should carry ssc-vsr journal lines:\n{timeline}"
    );
    // And each server's SSC journals the services it starts.
    assert!(
        timeline.contains(" ssc       started mms (group "),
        "timeline should carry the SSCs' service starts:\n{timeline}"
    );
}

#[test]
fn same_seed_postmortem_is_byte_identical() {
    let (t1, _) = storm_postmortem(305, 7);
    let (t2, _) = storm_postmortem(305, 7);
    assert!(
        t1.lines().count() > 10,
        "the storm should leave a substantial journal, got:\n{t1}"
    );
    assert_eq!(
        t1, t2,
        "same-seed reruns must produce byte-identical postmortems"
    );
}
