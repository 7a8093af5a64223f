//! E19 + E21: the measured-availability pair.
//!
//! * E19 distills the PR 5 real-runtime chaos work into a committed
//!   artifact: the process-group kill latency (kill() -> last member
//!   task gone, endpoints closed) as a histogram with p50/p99, on the
//!   real TCP runtime. The chaos-parity *tests* live in
//!   `ocs-sim/tests/real_chaos.rs`; this bench records the numbers.
//!
//! * E21 drives the E19/E20 storm mix (primary kills + primary
//!   partitions) through the availability auditor on both runtimes and
//!   reports what a *client* measured: success-rate nines on the read
//!   path, blackout windows and per-fault-class MTTR on the update
//!   path. The paper's §9.7 bound — fail-over inside 25 s — becomes a
//!   measured p99 blackout window.
//!
//! The two probe streams are deliberately separate, mirroring the
//! paper's availability story: resolves are served locally by any live
//! replica (reads stay up through a primary fail-over, §4.6), while
//! binds must reach the VSR primary (updates black out for exactly the
//! view-change window E20 measures).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use itv_cluster::{AvailabilityAuditor, AvailabilityReport};
use ocs_name::{NsError, NsHandle, NsReplica};
use ocs_orb::{ClientCtx, ObjRef};
use ocs_sim::real::RealNet;
use ocs_sim::{Addr, FaultAction, NodeRt, NodeRtExt, PortReq, Rt, SimTime};
use ocs_vsr::group::Group;

use super::failover::ns_group;
use super::group::{sim_leg, tuned, Leg, TUNED};
use crate::json::Json;
use crate::{f, percentile, report, Table};

// ---------------------------------------------------------------------------
// E19: process-group kill latency histogram (real runtime)
// ---------------------------------------------------------------------------

const E19_KILLS: usize = 40;

/// Cumulative histogram bucket bounds for kill latency, in microseconds.
const KILL_BUCKETS_US: [u64; 9] = [
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 50_000, 250_000,
];

/// E19: how long a `ProcGroup::kill` takes to tear the group down —
/// kill() to the last member task exiting (which closes the group's
/// endpoints and stamps `real.net.kill_latency_us`).
pub fn e19() {
    println!("\nE19. Process-group kill latency on the real runtime (wall clock)");
    println!("    window = kill() -> last member task gone, endpoints closed");
    println!("    each victim group: one blocking-recv member + one sleeping child\n");

    let net = RealNet::new();
    let node = net.add_node("victim").expect("bind loopback");
    for round in 0..E19_KILLS {
        let rt: Arc<dyn NodeRt> = node.clone();
        let ready = Arc::new(AtomicBool::new(false));
        let ready2 = Arc::clone(&ready);
        let group = node.spawn_group(
            &format!("victim-{round}"),
            Box::new(move || {
                // A child process in the group, parked in a cancellable
                // sleep — kill must unwind it too.
                let child_rt = rt.clone();
                rt.spawn_fn("sleeper", move || loop {
                    child_rt.sleep(Duration::from_secs(3600));
                });
                // The main member blocks in recv; kill closes the
                // endpoint out from under it.
                let ep = rt.open(PortReq::Ephemeral).expect("open");
                ready2.store(true, Ordering::SeqCst);
                let _ = ep.recv(None);
            }),
        );
        while !ready.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        group.kill();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while group.alive() {
            assert!(
                std::time::Instant::now() < deadline,
                "killed group still alive after 5s (round {round})"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    // The latency stamp lands just *after* the last member task
    // drops the group's live count, so give the final stamp a beat.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let samples_us = loop {
        let s = net.samples("real.net.kill_latency_us");
        if s.len() >= E19_KILLS || std::time::Instant::now() >= deadline {
            break s;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    assert_eq!(
        samples_us.len(),
        E19_KILLS,
        "every kill should stamp exactly one latency sample"
    );
    let xs: Vec<f64> = samples_us.iter().map(|&v| v as f64).collect();
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let p50 = percentile(&xs, 0.50);
    let p99 = percentile(&xs, 0.99);
    let max = xs.iter().cloned().fold(0.0f64, f64::max);

    let mut t = Table::new(&["kills", "p50 (us)", "p99 (us)", "max (us)", "mean (us)"]);
    t.row(&[
        samples_us.len().to_string(),
        f(p50, 0),
        f(p99, 0),
        f(max, 0),
        f(mean, 0),
    ]);
    t.print();

    println!("    latency histogram (cumulative):");
    let mut hist = Vec::new();
    for le in KILL_BUCKETS_US {
        let count = samples_us.iter().filter(|&&v| v <= le).count() as u64;
        println!("      <= {:>7} us: {count:>3}", le);
        hist.push(Json::obj(vec![
            ("le_us".to_string(), Json::U64(le)),
            ("count".to_string(), Json::U64(count)),
        ]));
    }

    report::put("kills", Json::U64(samples_us.len() as u64));
    report::put("kill_latency_p50_us", Json::F64(p50));
    report::put("kill_latency_p99_us", Json::F64(p99));
    report::put("kill_latency_max_us", Json::F64(max));
    report::put("kill_latency_mean_us", Json::F64(mean));
    report::put("kill_latency_histogram", Json::Arr(hist));
    report::put("table", t.to_json());
}

// ---------------------------------------------------------------------------
// E21: availability audit under the standard storm (sim + real legs)
// ---------------------------------------------------------------------------

/// Read-probe deadline: a resolve is served locally, so a live replica
/// answers in a round trip; a dead one should cost at most this.
const READ_TIMEOUT: Duration = Duration::from_millis(250);
/// Write-probe deadline: a bind commits on the primary's next heartbeat
/// round (200 ms tuned), so this must comfortably exceed one round.
const WRITE_TIMEOUT: Duration = Duration::from_millis(500);
/// How long a write prober shuns a peer whose RPC timed out. Without
/// this, every probe during an outage burns a full WRITE_TIMEOUT on the
/// crashed primary and the measured blackout inflates well past the
/// true view-change window.
const PEER_COOLDOWN: Duration = Duration::from_secs(2);

/// One leg's storm: `kills` primary kills, then `partitions` primary
/// partitions, each `leg.dwell` after the group settled, then a healthy
/// `tail` so the read stream accumulates enough probes to resolve three
/// nines (and the last blackout closes).
struct Storm {
    leg: Leg,
    kills: usize,
    partitions: usize,
    tail: Duration,
}

/// The simulated leg: two healthy seconds before each of 11 faults.
const SIM: Storm = Storm {
    leg: Leg {
        label: "deployed tuning",
        tuning: tuned,
        dwell: Duration::from_secs(2),
    },
    kills: 8,
    partitions: 3,
    tail: Duration::from_secs(75),
};

/// The TCP leg: the same storm, shorter on the wall clock.
const REAL: Storm = Storm {
    leg: TUNED,
    kills: 5,
    partitions: 2,
    tail: Duration::from_secs(15),
};

/// One write-probe round: try each peer (skipping any still in timeout
/// cooldown), counting a committed bind — or a lost-reply `AlreadyBound`
/// — as success. Returns the updated cooldown table.
fn try_bind(
    peers: &[Addr],
    cooldown: &mut [SimTime],
    rt: &Rt,
    name: &str,
    leaf: ObjRef,
) -> bool {
    for (pi, &peer) in peers.iter().enumerate() {
        if rt.now() < cooldown[pi] {
            continue;
        }
        let before = rt.now();
        let ctx = ClientCtx::new(rt.clone()).with_timeout(WRITE_TIMEOUT);
        let ns = NsHandle::new(ctx, peer);
        match ns.bind(name, leaf) {
            Ok(()) | Err(NsError::AlreadyBound { .. }) => return true,
            Err(_) => {
                // Only shun peers that made us wait (dead host); a fast
                // NoMaster from a live backup costs nothing.
                if rt.now().saturating_since(before) >= WRITE_TIMEOUT {
                    cooldown[pi] = rt.now() + PEER_COOLDOWN;
                }
            }
        }
    }
    false
}

/// One read-probe round: does *any* replica resolve the probe name?
fn try_resolve(peers: &[Addr], rt: &Rt, name: &str) -> bool {
    peers.iter().any(|&peer| {
        let ctx = ClientCtx::new(rt.clone()).with_timeout(READ_TIMEOUT);
        NsHandle::new(ctx, peer).resolve(name).is_ok()
    })
}

fn probe_leaf(peers: &[Addr]) -> ObjRef {
    ObjRef {
        addr: peers[0],
        incarnation: 1,
        type_id: 0x21,
        object_id: 0,
    }
}

/// One leg: a 3-replica tuned NS group, both probe streams as processes
/// on the client node, and the standard storm (primary kills, then
/// primary partitions) — in virtual time or on TCP, as `group` runs.
fn storm(group: &Group<NsReplica>, s: &Storm) -> (AvailabilityReport, AvailabilityReport) {
    group.settle("at campaign start");

    let client = group.client();
    let reads = Arc::new(AvailabilityAuditor::new());
    let writes = Arc::new(AvailabilityAuditor::new());
    let stop = Arc::new(AtomicBool::new(false));
    let peers = group.peers().to_vec();
    let leaf = probe_leaf(&peers);

    // Seed the read-probe name before any prober starts, so a read
    // failure always means unavailability, never "not bound yet".
    {
        let peers = peers.clone();
        group.on_client(move |rt| {
            let no_cooldown = || vec![SimTime::ZERO; peers.len()];
            while !try_bind(&peers, &mut no_cooldown(), &rt, "audit-probe", leaf) {
                rt.sleep(Duration::from_millis(200));
            }
        });
    }

    // Read prober: the viewer-facing stream. Resolves are served from
    // any replica's local tree, so this stream measures whole-service
    // availability.
    {
        let reads = Arc::clone(&reads);
        let stop = Arc::clone(&stop);
        let peers = peers.clone();
        let rt: Rt = client.clone();
        client.spawn_fn("read-probe", move || {
            while !stop.load(Ordering::Relaxed) {
                let ok = try_resolve(&peers, &rt, "audit-probe");
                reads.record(rt.now(), ok);
                rt.sleep(Duration::from_millis(100));
            }
        });
    }
    // Write prober: the update stream. Binds commit through the VSR
    // primary, so this stream blacks out for the view-change window.
    {
        let writes = Arc::clone(&writes);
        let stop = Arc::clone(&stop);
        let peers = peers.clone();
        let rt: Rt = client.clone();
        client.spawn_fn("write-probe", move || {
            let mut cooldown = vec![SimTime::ZERO; peers.len()];
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let ok = try_bind(&peers, &mut cooldown, &rt, &format!("audit-w-{i}"), leaf);
                writes.record(rt.now(), ok);
                i += 1;
                rt.sleep(Duration::from_millis(100));
            }
        });
    }

    let mark = |class: &str| {
        let now = group.now();
        reads.record_fault(now, class);
        writes.record_fault(now, class);
    };

    // Storm phase 1: repeated primary kills (E20's storm).
    group.storm(s.kills, s.leg.dwell, |_, kill| {
        mark("crash");
        group.await_successor(kill.victim);
    });

    // Storm phase 2: isolate the primary from both backups (it keeps
    // running but loses its majority; the backups elect).
    for _ in 0..s.partitions {
        group.settle("between partition rounds");
        group.run_for(s.leg.dwell);
        let master = group.masters()[0];
        let m = group.node(master);
        let others: Vec<_> = (0..group.nodes().len())
            .filter(|&i| i != master)
            .map(|i| group.node(i))
            .collect();
        for &o in &others {
            group.fault(FaultAction::Partition(m, o));
        }
        mark("partition");
        assert!(
            group.run_until(Duration::from_secs(120), || {
                group.masters().iter().any(|&x| x != master)
            }),
            "no new master after partitioning the primary away"
        );
        for &o in &others {
            group.fault(FaultAction::Heal(m, o));
        }
        group.run_for(Duration::from_secs(1));
    }

    group.run_for(s.tail);
    stop.store(true, Ordering::Relaxed);
    group.run_for(Duration::from_millis(500));

    (reads.report(), writes.report())
}

fn mttr_json(rows: &[itv_cluster::MttrRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj(vec![
                    ("class".to_string(), Json::Str(r.class.clone())),
                    ("faults".to_string(), Json::U64(r.faults)),
                    ("recovered".to_string(), Json::U64(r.recovered)),
                    ("mean_s".to_string(), Json::F64(r.mean.as_secs_f64())),
                    ("max_s".to_string(), Json::F64(r.max.as_secs_f64())),
                ])
            })
            .collect(),
    )
}

fn mttr_line(leg: &str, rows: &[itv_cluster::MttrRow]) {
    let parts: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{} x{} (mean {} s, max {} s)",
                r.class,
                r.faults,
                f(r.mean.as_secs_f64(), 2),
                f(r.max.as_secs_f64(), 2)
            )
        })
        .collect();
    println!("    {leg} update-path MTTR: {}", parts.join("; "));
}

fn leg_rows(t: &mut Table, leg: &str, reads: &AvailabilityReport, writes: &AvailabilityReport) {
    t.row(&[
        format!("{leg}, reads"),
        reads.probes.to_string(),
        reads.failures.to_string(),
        f(reads.availability * 100.0, 3),
        f(reads.nines, 2),
        reads.blackouts.len().to_string(),
        f(reads.p99_blackout.as_secs_f64(), 2),
        "25.0".into(),
    ]);
    t.row(&[
        format!("{leg}, updates"),
        writes.probes.to_string(),
        writes.failures.to_string(),
        f(writes.availability * 100.0, 3),
        f(writes.nines, 2),
        writes.blackouts.len().to_string(),
        f(writes.p99_blackout.as_secs_f64(), 2),
        "25.0".into(),
    ]);
}

fn put_leg(prefix: &str, reads: &AvailabilityReport, writes: &AvailabilityReport) {
    report::put(&format!("{prefix}_read_probes"), Json::U64(reads.probes));
    report::put(
        &format!("{prefix}_read_failures"),
        Json::U64(reads.failures),
    );
    report::put(
        &format!("{prefix}_availability"),
        Json::F64(reads.availability),
    );
    report::put(&format!("{prefix}_nines"), Json::F64(reads.nines));
    report::put(&format!("{prefix}_write_probes"), Json::U64(writes.probes));
    report::put(
        &format!("{prefix}_write_failures"),
        Json::U64(writes.failures),
    );
    report::put(
        &format!("{prefix}_write_availability"),
        Json::F64(writes.availability),
    );
    report::put(
        &format!("{prefix}_blackouts"),
        Json::U64(writes.blackouts.len() as u64),
    );
    report::put(
        &format!("{prefix}_p99_blackout_s"),
        Json::F64(writes.p99_blackout.as_secs_f64()),
    );
    report::put(
        &format!("{prefix}_max_blackout_s"),
        Json::F64(writes.max_blackout.as_secs_f64()),
    );
    report::put(&format!("{prefix}_mttr"), mttr_json(&writes.mttr));
    report::put(
        &format!("{prefix}_read_mttr"),
        mttr_json(&reads.mttr),
    );
}

/// E21: measured nines, blackout windows, and per-fault-class MTTR
/// under the standard storm, on both runtimes.
pub fn e21(sim_only: bool) {
    println!("\nE21. Availability audit under the standard storm");
    println!("    storm: primary kills + primary partitions (tuned NS group)");
    println!("    reads = resolve at any replica; updates = bind through the primary");
    println!("    blackout = last client success -> next client success");
    println!("    paper: \"maximum fail over time of 25 seconds\" (§9.7)\n");

    let mut t = Table::new(&[
        "leg",
        "probes",
        "fail",
        "avail (%)",
        "nines",
        "blackouts",
        "p99 blk (s)",
        "paper max",
    ]);

    let (sim_reads, sim_writes) = sim_leg(21_001, ns_group(&SIM.leg), |group| storm(group, &SIM));
    leg_rows(&mut t, "sim", &sim_reads, &sim_writes);

    let real = (!sim_only).then(|| storm(&Group::tcp(ns_group(&REAL.leg)), &REAL));
    if let Some((real_reads, real_writes)) = &real {
        leg_rows(&mut t, "real TCP", real_reads, real_writes);
    }
    t.print();
    if sim_only {
        println!("    (--sim-only: skipping the real-runtime leg)");
    }
    mttr_line("sim", &sim_writes.mttr);
    if let Some((_, real_writes)) = &real {
        mttr_line("real", &real_writes.mttr);
    }

    report::put("paper_bound_s", Json::F64(25.0));
    put_leg("sim", &sim_reads, &sim_writes);
    if let Some((real_reads, real_writes)) = &real {
        put_leg("real", real_reads, real_writes);
    }
    report::put("table", t.to_json());
}
