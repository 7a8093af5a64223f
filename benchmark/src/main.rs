//! The repo's benchmark: five workloads over both runtimes, eight
//! end-to-end metrics, and a per-crate latency budget measured from
//! outside the crates. See `README.md` beside this package.
//!
//! ```text
//! itv-benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1 | --traced] [--out FILE]
//! itv-benchmark probe [--seed S]
//! itv-benchmark compare A.jsonl B.jsonl
//! itv-benchmark manifest
//! ```

mod alloc;
mod catalog;
mod probes;
mod report;
mod trace;
mod util;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::Summary;
use util::tw_count;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// The TIME-WAIT gate of a process that could not get a network
/// namespace of its own (README, "Hazards").
const TW_GATE: u64 = 500;
const TW_GATE_MAX_WAIT: Duration = Duration::from_secs(70);

struct RunOpts {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: itv-benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1 | --traced] [--out FILE]\n\
         \x20      itv-benchmark probe [--seed S]\n\
         \x20      itv-benchmark compare A.jsonl B.jsonl\n\
         \x20      itv-benchmark manifest\n\
         workloads: {}",
        workload_names().join(", ")
    );
    ExitCode::from(2)
}

/// The workloads in the order a full run executes them.
fn workload_names() -> Vec<&'static str> {
    catalog::WORKLOADS.iter().map(|w| w.name).collect()
}

fn parse_run(args: &[String]) -> Result<RunOpts, String> {
    let mut o = RunOpts {
        workload: None,
        seed: 1,
        seconds: catalog::RUN_SECONDS,
        traced: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.to_string()),
            "--seed" => o.seed = number(value()?)?,
            "--seconds" => o.seconds = number(value()?)?.clamp(1, 60),
            "--trace" => o.traced = number(value()?)? != 0,
            "--traced" => o.traced = true,
            "--out" => o.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if let Some(w) = &o.workload {
        if !workload_names().contains(&w.as_str()) {
            return Err(format!("unknown workload {w}"));
        }
    }
    Ok(o)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    match cmd.as_str() {
        "run" => match parse_run(rest) {
            Ok(opts) => run(&opts),
            Err(e) => {
                eprintln!("{e}");
                usage()
            }
        },
        "probe" => {
            let seed = match parse_run(rest) {
                Ok(o) => o.seed,
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            };
            let pinned = util::pin_to_quietest(&util::allowed_cpus());
            util::fresh_netns();
            report::probe_all(seed, pinned);
            ExitCode::SUCCESS
        }
        "compare" => match rest {
            [a, b] => report::compare(a.as_ref(), b.as_ref()),
            _ => usage(),
        },
        "manifest" => {
            println!("{}", catalog::manifest().pretty());
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

fn run(opts: &RunOpts) -> ExitCode {
    let Some(name) = opts.workload.as_deref() else {
        return run_each_in_a_child(opts);
    };
    let s = run_workload(name, opts);
    s.print();
    if let Err(e) = s.save(&out_dir(), opts.out.as_deref()) {
        eprintln!("could not write results: {e}");
        return ExitCode::FAILURE;
    }
    // The contract line: the last thing on stdout.
    println!("{}", s.contract_line().render());
    if s.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("a correctness check failed; see the violations above");
        ExitCode::FAILURE
    }
}

/// `run` without `--workload`: every workload in order, each in a child
/// process of its own, so each starts — as under the driver — unpinned,
/// with an empty heap and its own peak-RSS counter.
fn run_each_in_a_child(opts: &RunOpts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find my own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    for name in workload_names() {
        let mut child = std::process::Command::new(&exe);
        child
            .args(["run", "--workload", name])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.traced { "1" } else { "0" }]);
        if let Some(out) = &opts.out {
            child.arg("--out").arg(out);
        }
        // `status` waits for the child to end.
        all_ok &= child.status().is_ok_and(|st| st.success());
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Waits for the TIME-WAIT table the process shares with the rest of
/// the machine to drain. Returns the seconds waited.
fn tw_gate() -> f64 {
    let t = Instant::now();
    while tw_count() > TW_GATE && t.elapsed() < TW_GATE_MAX_WAIT {
        std::thread::sleep(Duration::from_millis(500));
    }
    t.elapsed().as_secs_f64()
}

fn run_workload(name: &str, opts: &RunOpts) -> Summary {
    // Every round runs on one CPU, the quietest at the time, chosen by the
    // main thread before it starts the round's threads.
    let cpus = util::allowed_cpus();
    let mut pinned = util::pin_to_quietest(&cpus).is_some();
    let tcp = name.starts_with("tcp_");
    // A `tcp_*` round starts from an empty TIME-WAIT table: each gets a
    // network namespace of its own or, where the kernel refuses that, the
    // first one waits for the shared table to drain.
    let mut netns = tcp && util::fresh_netns();
    let tw_wait_s = if tcp && !netns { tw_gate() } else { 0.0 };
    // Rounds of fixed work until `--seconds` have passed. Two at least,
    // so same-seed rounds can be compared; four when traced, so each half
    // of the traced/untraced pairing has two.
    let budget = Duration::from_secs(opts.seconds);
    let at_least = if opts.traced { 4 } else { 2 };
    let mut setups = Vec::new();
    let t_run = Instant::now();
    let mut rounds = Vec::new();
    let mut rss_mb = 0.0;
    while rounds.len() < at_least || t_run.elapsed() < budget {
        let i = rounds.len();
        // Traced runs alternate untraced and traced rounds: the pairing
        // gives the tracing overhead and, on `sim_*`, the proof that
        // tracing leaves every virtual-time output unchanged.
        let traced = opts.traced && i % 2 == 1;
        if i > 0 {
            pinned &= util::pin_to_quietest(&cpus).is_some();
            netns = netns && util::fresh_netns();
        }
        setups.extend(workloads::extra_setups(name, opts.seed));
        let r = workloads::run_round(name, opts.seed, traced).expect("workload name was validated");
        if i == 0 {
            // One round's footprint: later rounds only add what the
            // allocator keeps of the clusters already torn down.
            rss_mb = util::peak_rss_mb();
        }
        rounds.push((traced, r));
    }
    let mut s = report::summarize(
        name,
        opts.seed,
        opts.seconds,
        opts.traced,
        rss_mb,
        setups,
        rounds,
    );
    s.layer.insert("bench.pinned", f64::from(u8::from(pinned)));
    s.layer.insert("bench.netns", f64::from(u8::from(netns)));
    s.layer.insert("bench.tw_wait_s", tw_wait_s);
    if opts.traced {
        report::add_probes_and_budget(&mut s);
    }
    s
}
