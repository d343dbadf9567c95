//! `selftest`: does the benchmark agree with itself?
//!
//! Two sets of runs of every workload on the same binary, interleaved
//! (A B A B …) so that a drifting host disturbs both alike, each run
//! `k` of either set on seed `base + k` — the acceptance driver's own
//! procedure. For every (metric, workload) it prints both medians, how
//! much worse the second is than the first, each set's spread (inter-
//! quartile range over median) and the bound. It fails exactly where
//! the driver would refuse — a spread or a worsening beyond the bound —
//! and marks `wide` every spread past a *third* of the bound, the
//! margin the benchmark is asked to keep against a worse hour.
//!
//! It also prints, for the two timings, the spread of the raw host
//! seconds beside that of the reference-speed seconds reported
//! (`calib.rs`), from the same runs: the evidence that the scaling
//! earns its keep, renewed every time the self-test is.

use std::process::Command;

use crate::cli::Args;
use crate::envstamp::EnvStamp;
use crate::json::{self, Value};
use crate::run::out_dir;
use crate::spec::{Better, END_TO_END};
use crate::stats::{iqr_share, median};
use crate::workloads::Workload;

/// The scaled timings and, for each, the field of a run's record that
/// holds the host seconds it was scaled from.
const HOST_TIMINGS: [(&str, &str); 2] = [
    ("setup_s", "host_setup_s_samples"),
    ("wall_s", "host_wall_s_samples"),
];

/// Share of its bound a spread may reach: the contract's margin against
/// a worse hour than the one the self-test ran in.
const SPREAD_MARGIN: f64 = 1.0 / 3.0;

/// Runs `exe` with `args` and returns the result object on the last
/// line of its standard output.
///
/// # Errors
///
/// A description of what went wrong: the child could not start, exited
/// non-zero, or printed no result.
pub fn child_result(args: &[String]) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no path to this binary: {e}"))?;
    // `output()` waits for the child: no process outlives its run.
    let out = Command::new(exe)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("could not start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "run `{}` exited with {}:\n{stdout}",
            args.join(" "),
            out.status
        ));
    }
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("the run printed nothing")?;
    json::parse(last).map_err(|e| format!("last line is not a result object ({e}): {last}"))
}

/// The arguments of one run of `workload`.
pub fn run_args(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Vec<String> {
    let mut args = vec![
        "--workload".to_string(),
        workload.name().to_string(),
        "--seed".to_string(),
        seed.to_string(),
        "--seconds".to_string(),
        seconds.to_string(),
        "--trace".to_string(),
        u8::from(trace).to_string(),
    ];
    if quick {
        args.push("--quick".to_string());
    }
    args
}

fn metric_of(result: &Value, name: &str) -> Result<f64, String> {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("result lacks `{name}`"))
}

/// The median host seconds of the run `workload` just finished, one per
/// entry of [`HOST_TIMINGS`], from the record the run left in `out/`.
fn host_medians(workload: Workload) -> Result<Vec<f64>, String> {
    let path = out_dir().join(format!("{}.json", workload.name()));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let record = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    HOST_TIMINGS
        .iter()
        .map(|(_, field)| match record.get(field) {
            Some(Value::Arr(samples)) if !samples.is_empty() => {
                let samples: Vec<f64> = samples.iter().filter_map(Value::as_f64).collect();
                Ok(median(&samples))
            }
            _ => Err(format!("{} lacks `{field}`", path.display())),
        })
        .collect()
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// it is better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        0.0
    } else {
        delta / a.abs()
    }
}

/// One (metric, workload) cell of the report.
struct Cell {
    workload: &'static str,
    metric: &'static str,
    median_a: f64,
    median_b: f64,
    worse: f64,
    spread_a: f64,
    spread_b: f64,
    bound: f64,
}

impl Cell {
    /// `ok`: the second set's median is not worse than the first's by
    /// more than the bound, and neither set's spread passes a third of
    /// it. `wide`: a spread is past the third but inside the bound —
    /// the driver would accept, the margin is gone. `EXCESS`: the
    /// driver would refuse. `setup_s`'s spread is bounded by neither.
    fn verdict(&self) -> &'static str {
        let spread = if self.metric == "setup_s" {
            0.0
        } else {
            self.spread_a.max(self.spread_b)
        };
        if self.worse > self.bound || spread > self.bound {
            "EXCESS"
        } else if spread > self.bound * SPREAD_MARGIN {
            "wide"
        } else {
            "ok"
        }
    }
}

/// Runs the self-test and prints its report (markdown); returns whether
/// the acceptance driver would have accepted: no cell in `EXCESS`, no
/// failed run.
pub fn selftest(args: &Args) -> bool {
    let stamp = EnvStamp::start();
    let runs = args.runs;
    // One series per end-to-end metric, then one per raw host timing.
    let series: Vec<&str> = END_TO_END
        .iter()
        .map(|g| g.metric.name)
        .chain(HOST_TIMINGS.iter().map(|(_, field)| *field))
        .collect();
    let host = END_TO_END.len();
    // samples[workload][set][series] -> one value per run
    let mut samples = vec![
        [
            vec![Vec::new(); series.len()],
            vec![Vec::new(); series.len()]
        ];
        Workload::ALL.len()
    ];
    let mut incorrect = Vec::new();
    for k in 0..runs {
        for set in 0..2 {
            for (w, workload) in Workload::ALL.into_iter().enumerate() {
                let seed = args.seed + k as u64;
                let argv = run_args(workload, seed, args.seconds, false, args.quick);
                eprintln!(
                    "selftest: set {} run {} of {runs}: {}",
                    ["A", "B"][set],
                    k + 1,
                    workload.name()
                );
                let into = &mut samples[w][set];
                let result = child_result(&argv).and_then(|result| {
                    if result.get("correct").and_then(Value::as_bool) != Some(true) {
                        return Err("not correct".to_string());
                    }
                    let mut values = Vec::with_capacity(series.len());
                    for gated in &END_TO_END {
                        values.push(metric_of(&result, gated.metric.name)?);
                    }
                    values.extend(host_medians(workload)?);
                    Ok(values)
                });
                match result {
                    Ok(values) => {
                        for (series, value) in into.iter_mut().zip(values) {
                            series.push(value);
                        }
                    }
                    Err(e) => incorrect.push(format!("{} seed {seed}: {e}", workload.name())),
                }
            }
        }
    }

    let mut cells = Vec::new();
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        for (m, gated) in END_TO_END.iter().enumerate() {
            let (a, b) = (&samples[w][0][m], &samples[w][1][m]);
            if a.len() < 2 || b.len() < 2 {
                continue;
            }
            let (median_a, median_b) = (median(a), median(b));
            cells.push(Cell {
                workload: workload.name(),
                metric: gated.metric.name,
                median_a,
                median_b,
                worse: worse_by(gated.metric.better, median_a, median_b),
                spread_a: iqr_share(a),
                spread_b: iqr_share(b),
                bound: gated.bound,
            });
        }
    }

    println!("# Self-test: two interleaved sets of runs of the same binary");
    println!();
    println!(
        "{runs} runs per set and workload, `--seconds {}`, run *k* of either set on seed {} + *k*{}.",
        args.seconds,
        args.seed,
        if args.quick { ", `--quick`" } else { "" }
    );
    println!("`worse` is by how much set B's median is worse than set A's, as a share of A's;");
    println!("`spread` is the distance between the first and third quartile of a set's values");
    println!("(Python's `statistics.quantiles(values, n=4)`), as a share of their median.");
    println!("A cell is `ok` when `worse` ≤ bound and both spreads ≤ bound/3; `wide` when a");
    println!("spread is past bound/3 but within the bound (the acceptance driver's own limit);");
    println!("`EXCESS` beyond that, which alone fails the self-test. `setup_s` is judged on");
    println!("`worse` alone, as the driver does.");
    println!();
    println!("Environment: `{}`", stamp.finish(args.seed, runs).to_line());
    println!();
    println!("| workload | metric | median A | median B | worse | spread A | spread B | bound | |");
    println!("|---|---|---:|---:|---:|---:|---:|---:|---|");
    for c in &cells {
        println!(
            "| {} | {} | {:.6} | {:.6} | {:+.4} | {:.4} | {:.4} | {:.2} | {} |",
            c.workload,
            c.metric,
            c.median_a,
            c.median_b,
            c.worse,
            c.spread_a,
            c.spread_b,
            c.bound,
            c.verdict()
        );
    }
    println!();
    println!("## What the reference-speed scaling does to the same runs");
    println!();
    println!(
        "`host` is the run's median as the host's clock read it, `scaled` the metric reported"
    );
    println!("(host seconds ÷ the reference kernels' slowdown, `src/calib.rs`).");
    println!();
    println!("| workload | timing | host spread A | host spread B | scaled spread A | scaled spread B | host worse | scaled worse |");
    println!("|---|---|---:|---:|---:|---:|---:|---:|");
    let (mut widest_host, mut widest_scaled) = (0.0f64, 0.0f64);
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        for (t, (metric, _)) in HOST_TIMINGS.iter().enumerate() {
            let (host_a, host_b) = (&samples[w][0][host + t], &samples[w][1][host + t]);
            let Some(cell) = cells
                .iter()
                .find(|c| c.workload == workload.name() && c.metric == *metric)
            else {
                continue;
            };
            let (spread_a, spread_b) = (iqr_share(host_a), iqr_share(host_b));
            println!(
                "| {} | {metric} | {spread_a:.4} | {spread_b:.4} | {:.4} | {:.4} | {:+.4} | {:+.4} |",
                workload.name(),
                cell.spread_a,
                cell.spread_b,
                worse_by(Better::Lower, median(host_a), median(host_b)),
                cell.worse,
            );
            if *metric == "wall_s" {
                widest_host = widest_host.max(spread_a).max(spread_b);
                widest_scaled = widest_scaled.max(cell.spread_a).max(cell.spread_b);
            }
        }
    }
    println!();
    println!("Widest `wall_s` spread: host {widest_host:.4}, scaled {widest_scaled:.4}.");
    println!();
    println!("## Every run made, in order (A1 B1 A2 B2 …)");
    println!();
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        for (i, name) in series.iter().enumerate() {
            let interleaved: Vec<String> = samples[w][0][i]
                .iter()
                .zip(&samples[w][1][i])
                .flat_map(|(a, b)| [a, b])
                .map(|v| format!("{v:.6}"))
                .collect();
            println!("- {} `{name}`: {}", workload.name(), interleaved.join(" "));
        }
    }
    println!();
    let count = |verdict: &str| cells.iter().filter(|c| c.verdict() == verdict).count();
    let expected = Workload::ALL.len() * END_TO_END.len();
    for problem in &incorrect {
        println!("- FAILED: {problem}");
    }
    let pass = count("EXCESS") == 0 && incorrect.is_empty() && cells.len() == expected;
    println!(
        "**{}**: of {expected} cells {} ok, {} wide, {} in excess; {} failed runs.",
        if pass { "PASS" } else { "FAIL" },
        count("ok"),
        count("wide"),
        count("EXCESS"),
        incorrect.len()
    );
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metrics_direction() {
        assert!((worse_by(Better::Lower, 1.0, 1.1) - 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Lower, 1.0, 0.9) + 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert_eq!(worse_by(Better::Lower, 0.0, 5.0), 0.0);
    }

    #[test]
    fn a_cell_is_ok_wide_or_in_excess() {
        let cell = |metric, worse, spread| Cell {
            workload: "w",
            metric,
            median_a: 1.0,
            median_b: 1.0 + worse,
            worse,
            spread_a: spread,
            spread_b: 0.0,
            bound: 0.1,
        };
        assert_eq!(cell("wall_s", 0.05, 0.03).verdict(), "ok");
        assert_eq!(
            cell("wall_s", -0.5, 0.03).verdict(),
            "ok",
            "better is never an excess"
        );
        assert_eq!(cell("wall_s", 0.11, 0.03).verdict(), "EXCESS");
        assert_eq!(cell("wall_s", 0.05, 0.11).verdict(), "EXCESS");
        // Inside the bound the driver enforces, past the third aimed at.
        assert_eq!(cell("wall_s", 0.05, 0.05).verdict(), "wide");
        assert_eq!(
            cell("setup_s", 0.05, 0.5).verdict(),
            "ok",
            "setup_s spread is not bounded"
        );
    }

    #[test]
    fn run_args_are_the_drivers_invocation() {
        let argv = run_args(Workload::RestabChaos, 7, 10.0, true, false);
        assert_eq!(
            argv.join(" "),
            "--workload restab_chaos --seed 7 --seconds 10 --trace 1"
        );
        let parsed = crate::cli::parse(argv).expect("parses");
        assert_eq!(parsed.workload, Some(Workload::RestabChaos));
        assert!(parsed.trace);
    }

    #[test]
    fn metric_lookup_reads_the_result_shape() {
        let result = json::parse(
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"wall_s":{"value":1.5,"unit":"s"}}}"#,
        )
        .unwrap();
        assert_eq!(metric_of(&result, "wall_s"), Ok(1.5));
        assert!(metric_of(&result, "setup_s").is_err());
    }
}
