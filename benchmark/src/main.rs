//! The repo's one benchmark: six named workloads, each run as 1 untimed
//! warm-up rep + R timed reps of the identical seeded job, every metric
//! printed by name and unit, every output checked. See `README.md`.
//!
//! It is a batch simulator's benchmark, not a server's: there is no
//! open or closed loop, each metric is host time or a simulated count
//! for a stated input size.

mod calib;
mod cli;
mod envstamp;
mod json;
mod layers;
mod run;
mod selftest;
mod span;
mod spec;
mod stats;
mod workloads;

use std::process::ExitCode;

use cli::{Args, Command};
use json::Value;
use workloads::{run_rep, Job, Workload, DEFAULT_SEED};

/// Runs every workload, each in its own process (so one workload's heap
/// and peak resident set never leak into the next), traced after
/// untraced when `--trace 1`.
fn run_all(args: &Args) -> bool {
    let mut ok = true;
    for workload in Workload::ALL {
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            let argv = selftest::run_args(workload, args.seed, args.seconds, trace, args.quick);
            // The child's own report goes straight to this terminal;
            // only its verdict is read here.
            let exe = std::env::current_exe().expect("this binary has a path");
            let status = std::process::Command::new(exe)
                .args(&argv)
                .status()
                .expect("this binary can be started again");
            if !status.success() {
                eprintln!("{}: FAILED ({status})", workload.name());
                ok = false;
            }
            println!();
        }
    }
    ok
}

/// The content of `golden.json`: one rep of every workload at the
/// default seed.
fn golden() -> Value {
    Value::Obj(
        Workload::ALL
            .into_iter()
            .map(|w| {
                let rep = run_rep(&Job::new(w, DEFAULT_SEED, false), None);
                assert_eq!(rep.failed, 0, "{}: {:?}", w.name(), rep.failures);
                (
                    w.name().to_string(),
                    Value::obj()
                        .with("nodes", rep.nodes)
                        .with("edges", rep.edges)
                        .with("msgs_total", rep.msgs_total)
                        .with("sim_steps", rep.sim_steps)
                        .with("transmissions", rep.transmissions),
                )
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let ok = match (args.command, args.workload) {
        (Command::List, _) => {
            for w in Workload::ALL {
                println!("{}", w.name());
            }
            true
        }
        (Command::Manifest, _) => {
            print!("{}", spec::manifest().to_pretty());
            true
        }
        (Command::Golden, _) => {
            print!("{}", golden().to_pretty());
            true
        }
        (Command::Selftest, _) => selftest::selftest(&args),
        (Command::Run, None) => run_all(&args),
        (Command::Run, Some(workload)) => {
            let result = run::run(&run::RunConfig {
                job: Job::new(workload, args.seed, args.quick),
                seconds: args.seconds,
                trace: args.trace,
            });
            // The result object is the last line of standard output.
            println!("{}", result.line.to_line());
            result.correct
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
