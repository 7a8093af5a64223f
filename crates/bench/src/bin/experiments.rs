//! Experiment driver: regenerates the paper's evaluation.
//!
//! ```sh
//! cargo run --release -p bench --bin experiments -- all
//! cargo run --release -p bench --bin experiments -- e1 e7
//! cargo run --release -p bench --bin experiments -- e16 --spans 5
//! ```
//!
//! Every experiment writes a machine-readable `BENCH_<exp>.json` with
//! its headline numbers, its results table, a telemetry metrics snapshot
//! where a cluster was involved, and the wall/virtual run times; the
//! runner then prints the table it stored, rendered as markdown.
//! `--spans N` sets how many of the slowest request trees E16's span
//! dump renders; `--settops N` sets E17's
//! simulated settop population; `--cores N` overrides the detected host
//! parallelism that artifacts record; `--sim-only` skips the
//! real-runtime legs of E20, E21 and E23.
//!
//! ```sh
//! cargo run --release -p bench --bin experiments -- check
//! ```
//!
//! answers "do the numbers still hold": it evaluates every row of
//! [`bench::check::GUARDS`] and exits non-zero if one failed. It takes
//! no arguments.
//!
//! ```sh
//! cargo run --release -p bench --bin experiments -- report e2
//! ```
//!
//! prints the table of the committed `BENCH_<exp>.json` as markdown:
//! exactly the block between EXPERIMENTS.md's `<!-- render <exp> -->` and
//! `<!-- end render -->` markers. To refresh a table, run `experiments
//! <exp>` at the repo root, then paste the output of `experiments report
//! <exp>` between its markers: `cargo test -p bench --test renders`
//! fails until every block matches its artifact.
//!
//! ```sh
//! cargo run --release -p bench --bin experiments -- loc --rev HEAD~ crates/ocs-sim/src
//! ```
//!
//! counts production lines ([`bench::loc`]): per file and in total, in
//! the work tree or, with `--rev`, at a git revision.

use bench::exps::{Args, EXPERIMENTS};
use bench::report;

/// Count heap allocations so E18 can report allocations-per-event.
#[global_allocator]
static ALLOC: bench::alloc_track::CountingAlloc = bench::alloc_track::CountingAlloc;

/// The numeric value of `flag`, at least `min`.
fn number(args: &mut impl Iterator<Item = String>, flag: &str, min: usize) -> usize {
    args.next()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= min)
        .unwrap_or_else(|| {
            match min {
                0 => eprintln!("{flag} needs a number"),
                _ => eprintln!("{flag} needs a number >= {min}"),
            }
            std::process::exit(2);
        })
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().is_some_and(|a| a == "check") {
        // Anything after `check` itself is one argument too many.
        if args.nth(1).is_some() {
            eprintln!("check takes no arguments");
            std::process::exit(2);
        }
        std::process::exit(bench::check::run());
    }
    if args.peek().is_some_and(|a| a == "report") {
        let exp = args.nth(1).unwrap_or_default();
        match report::render(&bench::check::repo_root().join(format!("BENCH_{exp}.json"))) {
            Ok(table) => print!("{table}"),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if args.peek().is_some_and(|a| a == "loc") {
        std::process::exit(bench::loc::run(args.skip(1)));
    }
    let mut a = Args {
        spans: 3,
        settops: 50_000,
        sim_only: false,
    };
    let mut cores: Option<usize> = None;
    let mut picked: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sim-only" => a.sim_only = true,
            "--spans" => a.spans = number(&mut args, &arg, 0),
            "--settops" => a.settops = number(&mut args, &arg, 0),
            "--cores" => cores = Some(number(&mut args, &arg, 1)),
            _ => picked.push(arg),
        }
    }
    let which: Vec<&str> = if picked.is_empty() || picked.iter().any(|a| a == "all") {
        EXPERIMENTS.iter().map(|(name, _)| *name).collect()
    } else {
        picked.iter().map(|s| s.as_str()).collect()
    };
    report::set_cores(cores);
    println!("ITV system reproduction — experiment suite (virtual-time simulation)");
    for w in which {
        let Some((_, run)) = EXPERIMENTS.iter().find(|(name, _)| *name == w) else {
            eprintln!("unknown experiment: {w}");
            continue;
        };
        report::begin(w);
        let wall = std::time::Instant::now();
        run(&a);
        if let Some(path) = report::finish(wall.elapsed().as_secs_f64()) {
            print!("{}", report::render(&path).unwrap_or_default());
            println!("    [wrote {}]", path.display());
        }
    }
}
