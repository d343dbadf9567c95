//! Command-line parsing: outside input, checked where it enters.

use crate::spec::RUN_SECONDS;
use crate::workloads::{Workload, DEFAULT_SEED};

pub const USAGE: &str = "\
usage: benchmark [COMMAND] [OPTIONS]

commands:
  (none)      with --workload: run that workload in this process;
              without: run all six, each in its own process
  selftest    two interleaved sets of runs of every workload on this
              binary; fails when they disagree beyond a metric's bound
  golden      print the simulated counts of every workload at the
              default seed (the content of benchmark/golden.json)
  manifest    print BENCHMARK.json
  list        print the workload names

options:
  --workload NAME   one of `benchmark list`
  --seed N          seed of the generated inputs (default 20050610)
  --seconds N       how long the timed reps of a run measure (default 15)
  --trace 0|1       1: add a traced rep and the probes, report the
                    per-layer metrics (default 0: end-to-end metrics)
  --quick           every deployment / 50, one timed rep: a smoke test
  --runs N          selftest: runs per set (default 5, at least 2)
";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Command {
    Run,
    Selftest,
    Golden,
    Manifest,
    List,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    pub command: Command,
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub runs: usize,
}

/// Longest run the contract allows; also keeps `--seconds` far from
/// anything that could overflow a duration.
const MAX_SECONDS: f64 = 60.0;

/// Parses the arguments after the program name.
///
/// # Errors
///
/// One line saying which argument is wrong.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
    let mut out = Args {
        command: Command::Run,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        runs: 5,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("`{flag}` needs a value"));
        match arg.as_str() {
            "selftest" => out.command = Command::Selftest,
            "golden" => out.command = Command::Golden,
            "manifest" => out.command = Command::Manifest,
            "list" => out.command = Command::List,
            "--workload" => {
                let name = value("--workload")?;
                out.workload = Some(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                let text = value("--seed")?;
                out.seed = text
                    .parse()
                    .map_err(|_| format!("`--seed {text}` is not a whole number"))?;
            }
            "--seconds" => {
                let text = value("--seconds")?;
                out.seconds = text
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= MAX_SECONDS)
                    .ok_or_else(|| format!("`--seconds {text}` is not in (0, {MAX_SECONDS}]"))?;
            }
            "--trace" => {
                out.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("`--trace {other}` is neither 0 nor 1")),
                };
            }
            "--runs" => {
                let text = value("--runs")?;
                out.runs = text
                    .parse::<usize>()
                    .ok()
                    .filter(|r| (2..=100).contains(r))
                    .ok_or_else(|| format!("`--runs {text}` is not in 2..=100"))?;
            }
            "--quick" => out.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Args, String> {
        parse(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn the_drivers_invocation_parses() {
        let args = parse_str("--workload traffic_quiet --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(args.command, Command::Run);
        assert_eq!(args.workload, Some(Workload::TrafficQuiet));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, true));
    }

    #[test]
    fn defaults_are_the_committed_configuration() {
        let args = parse_str("").unwrap();
        assert_eq!(args.seed, DEFAULT_SEED);
        assert_eq!(args.seconds, RUN_SECONDS as f64);
        assert!(!args.trace && !args.quick && args.workload.is_none());
        assert_eq!(parse_str("selftest --runs 7").unwrap().runs, 7);
    }

    #[test]
    fn bad_input_is_refused_with_a_reason() {
        for bad in [
            "--workload nope",
            "--workload",
            "--seed -1",
            "--seed x",
            "--seconds 0",
            "--seconds 1e9",
            "--seconds nan",
            "--trace 2",
            "--runs 1",
            "--frobnicate",
        ] {
            assert!(parse_str(bad).is_err(), "`{bad}` must be refused");
        }
    }
}
