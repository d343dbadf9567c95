//! `repro <name>|all|list [--quick|--full] [--runs N]`: regenerates the
//! paper's tables and figures, one [`EXPERIMENTS`] entry per name.
//!
//! The arguments are parsed once, here; anything not understood is an
//! error (usage on stderr, exit 2), never a silently ignored word.

use mwn_bench::{Experiment, ExperimentScale, EXPERIMENTS};

enum Command {
    List,
    Run(&'static [Experiment], ExperimentScale),
}

fn parse(args: &[String]) -> Result<Command, String> {
    let mut target = None;
    let (mut quick, mut full, mut runs) = (false, false, None);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--full" => full = true,
            "--runs" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => runs = Some(n),
                _ => return Err("--runs needs a positive integer".into()),
            },
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            name if target.is_none() => target = Some(name),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    let mut scale = match (quick, full) {
        (true, true) => return Err("--quick and --full exclude each other".into()),
        (true, false) => ExperimentScale::quick(),
        (false, true) => ExperimentScale::full(),
        (false, false) => ExperimentScale::default_scale(),
    };
    if let Some(n) = runs {
        scale.runs = n;
    }
    match target {
        None => Err("no experiment named".into()),
        Some("list") => Ok(Command::List),
        Some("all") => Ok(Command::Run(EXPERIMENTS, scale)),
        Some(name) => EXPERIMENTS
            .iter()
            .find(|e| e.name == name)
            .map(|e| Command::Run(std::slice::from_ref(e), scale))
            .ok_or_else(|| format!("unknown experiment `{name}`")),
    }
}

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    format!(
        "usage: repro <experiment>|all|list [--quick|--full] [--runs N]\n\
         experiments: {}",
        names.join(" ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Command::List) => {
            for e in EXPERIMENTS {
                println!("{:<14} {}", e.name, e.artifact);
            }
        }
        Ok(Command::Run(experiments, scale)) => {
            for e in experiments {
                eprintln!("{}: {}", e.name, e.artifact);
                print!("{}", (e.run)(scale));
            }
        }
        Err(why) => {
            eprintln!("repro: {why}\n{}", usage());
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Command, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn well_formed_lines_select_experiments_and_scale() {
        match parse_str("table4 --quick --runs 7") {
            Ok(Command::Run(experiments, scale)) => {
                assert_eq!(experiments.len(), 1);
                assert_eq!(experiments[0].name, "table4");
                assert_eq!(
                    scale,
                    ExperimentScale {
                        runs: 7,
                        ..ExperimentScale::quick()
                    }
                );
            }
            _ => panic!("table4 --quick --runs 7 must parse"),
        }
        match parse_str("--full all") {
            Ok(Command::Run(experiments, scale)) => {
                assert_eq!(experiments.len(), EXPERIMENTS.len());
                assert_eq!(scale, ExperimentScale::full());
            }
            _ => panic!("--full all must parse"),
        }
        assert!(matches!(
            parse_str("table2"),
            Ok(Command::Run(_, scale)) if scale == ExperimentScale::default_scale()
        ));
        assert!(matches!(parse_str("list"), Ok(Command::List)));
    }

    #[test]
    fn nothing_is_silently_ignored() {
        for bad in [
            "",
            "nope",
            "table4 --runs",
            "table4 --runs 1O00",
            "table4 --runs 0",
            "table4 --quick --full",
            "table4 --qiuck",
            "table4 table5",
            "--quick",
        ] {
            assert!(parse_str(bad).is_err(), "`{bad}` must be rejected");
        }
        assert!(usage().contains("stabilization"), "usage lists the names");
    }
}
