//! One run of one workload: 1 untimed warm-up rep + R timed reps of the
//! identical seeded job, the output checks, and — with `--trace 1` — one
//! more traced rep and the probes.

use std::path::PathBuf;
use std::time::Instant;

use crate::calib::{Calibrator, Speed};
use crate::envstamp::{peak_rss_mb, rss_bytes, EnvStamp};
use crate::json::{self, Value};
use crate::layers::{self, probes, Layers};
use crate::span::Recorder;
use crate::spec::{Metric, END_TO_END, PER_LAYER};
use crate::stats::{median, min_max};
use crate::workloads::{run_rep, Digest, Job, RepOutcome, DEFAULT_SEED};

/// Fewest timed reps a median is taken over, however short `--seconds`.
const MIN_TIMED_REPS: usize = 3;
/// Timed reps of a traced run: just enough for the baseline the traced
/// rep and the differential probes are compared against.
const TRACED_RUN_TIMED_REPS: usize = 2;

/// The simulated counts of every workload at the default seed, pinned.
const GOLDEN: &str = include_str!("../golden.json");

pub struct RunConfig {
    pub job: Job,
    /// How long the timed reps of a full-size, untraced run measure.
    pub seconds: f64,
    pub trace: bool,
}

/// What a run leaves behind: the line the driver reads, and whether
/// every check passed.
pub struct RunResult {
    pub line: Value,
    pub correct: bool,
}

/// Where records and span files go: `out/` beside the benchmark's
/// manifest, inside the checkout the binary was built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_out(name: &str, value: &Value) {
    let dir = out_dir();
    let path = dir.join(name);
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, value.to_pretty()));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        // A read-only checkout must not fail the measurement.
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// A short stable name for a rep's output, for printing and the record.
fn fingerprint(digest: &str) -> String {
    let mut d = Digest::default();
    d.bytes(digest.as_bytes());
    d.hex()
}

/// The counts a rep must reproduce, as a comparable tuple.
fn counts(rep: &RepOutcome) -> (u64, u64, u64) {
    (rep.msgs_total, rep.sim_steps, rep.transmissions)
}

/// Checks and their failures, counted as operations.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checks {
    fn rep(&mut self, label: &str, rep: &RepOutcome) {
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        self.failures
            .extend(rep.failures.iter().map(|f| format!("{label}: {f}")));
    }

    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(why());
        }
    }

    /// `other` must be the same job's output as `reference`, exactly.
    fn same(&mut self, label: &str, reference: &RepOutcome, other: &RepOutcome) {
        self.check(
            counts(reference) == counts(other) && reference.digest == other.digest,
            || {
                format!(
                    "{label} disagrees with the warm-up rep: (msgs, steps, transmissions) \
                     {:?} vs {:?}, output {} vs {}",
                    counts(other),
                    counts(reference),
                    fingerprint(&other.digest),
                    fingerprint(&reference.digest),
                )
            },
        );
    }

    /// At the default seed and full size, the counts are pinned.
    fn golden(&mut self, job: &Job, rep: &RepOutcome) {
        if job.seed != DEFAULT_SEED || job.quick {
            return;
        }
        let golden = json::parse(GOLDEN).expect("golden.json is JSON");
        let pinned = golden.get(job.workload.name());
        let field = |key: &str| {
            pinned
                .and_then(|p| p.get(key))
                .and_then(Value::as_f64)
                .map(|v| v as u64)
        };
        let expected = (
            field("msgs_total"),
            field("sim_steps"),
            field("transmissions"),
        );
        let got = counts(rep);
        self.check(expected == (Some(got.0), Some(got.1), Some(got.2)), || {
            format!(
                "counts {got:?} differ from golden.json {expected:?}: the simulation \
                     changed (if intended, regenerate with `benchmark golden`)"
            )
        });
    }
}

fn timing_line(name: &str, unit: &str, samples: &[f64]) -> String {
    let (lo, hi) = min_max(samples);
    let listed: Vec<String> = samples.iter().map(|s| format!("{s:.4}")).collect();
    format!(
        "{name:<14} {:>12.6} {unit:<5} median of {:>2}  min {lo:.4}  max {hi:.4}  [{}]",
        median(samples),
        samples.len(),
        listed.join(" ")
    )
}

/// Runs the workload and prints its report; the last line printed is
/// the result object the acceptance driver reads.
pub fn run(cfg: &RunConfig) -> RunResult {
    let job = &cfg.job;
    let stamp = EnvStamp::start();
    let mut checks = Checks::default();

    // The reference kernels' tables are resident from here to the end,
    // so every peak below holds them and subtracting them is exact.
    let mut cal = Calibrator::new();
    let calib_mb = cal.resident_bytes() as f64 / (1024.0 * 1024.0);

    // Warm-up: the identical job, untimed. Its first-touch page faults
    // and cold heap made the first rep ~50 % longer when sizing.
    let rss_before = rss_bytes();
    let t = Instant::now();
    let warm = run_rep(job, None);
    let warmup_s = t.elapsed().as_secs_f64();
    // The first rep grows the heap from nothing, so the peak it leaves
    // is what one job needs: the per-node footprint of a run.
    let bytes_per_node =
        (peak_rss_mb() * 1024.0 * 1024.0 - rss_before as f64).max(0.0) / warm.nodes.max(1) as f64;
    checks.rep("warm-up rep", &warm);
    checks.golden(job, &warm);

    // Every timed rep sits between two samples of the reference
    // kernels and is scaled by their mean: see `calib.rs` for why.
    let mut speeds: Vec<Speed> = Vec::new();
    let mut speed_before = cal.sample();
    let timed_start = Instant::now();
    let mut timed: Vec<RepOutcome> = Vec::new();
    loop {
        let enough = if job.quick {
            // A smoke test: one timed rep.
            !timed.is_empty()
        } else if cfg.trace {
            timed.len() >= TRACED_RUN_TIMED_REPS
        } else {
            timed.len() >= MIN_TIMED_REPS && timed_start.elapsed().as_secs_f64() >= cfg.seconds
        };
        if enough {
            break;
        }
        let rep = run_rep(job, None);
        let speed_after = cal.sample();
        speeds.push(Speed::between(speed_before, speed_after));
        speed_before = speed_after;
        let label = format!("timed rep {}", timed.len() + 1);
        checks.rep(&label, &rep);
        checks.same(&label, &warm, &rep);
        timed.push(rep);
    }
    let host_setup: Vec<f64> = timed.iter().map(|r| r.setup_s).collect();
    let host_wall: Vec<f64> = timed.iter().map(|r| r.wall_s).collect();
    let slowdown: Vec<f64> = speeds.iter().map(|s| s.slowdown()).collect();
    let at_reference =
        |host: &[f64]| -> Vec<f64> { host.iter().zip(&slowdown).map(|(&s, &by)| s / by).collect() };
    let setup = at_reference(&host_setup);
    let wall = at_reference(&host_wall);
    // Read before any traced rep or probe can raise it.
    let peak_rss = peak_rss_mb() - calib_mb;

    println!(
        "== {}  seed {}  {} nodes  {} edges  reps 1 warm-up + {} timed{}",
        job.workload.name(),
        job.seed,
        warm.nodes,
        warm.edges,
        timed.len(),
        if job.quick { "  (quick)" } else { "" }
    );
    println!("{}", timing_line("setup_s", "s", &setup));
    println!("{}", timing_line("wall_s", "s", &wall));
    println!("   (seconds at the reference speed; as the host's clock read them:)");
    println!("{}", timing_line("host_setup_s", "s", &host_setup));
    println!("{}", timing_line("host_wall_s", "s", &host_wall));
    println!("{}", timing_line("host_slowdown", "ratio", &slowdown));
    println!("{:<14} {peak_rss:>12.3} MiB", "peak_rss_mb");
    println!("{:<14} {:>12} count", "transmissions", warm.transmissions);
    println!(
        "msgs_total {}  sim_steps {}  output {}  warmup_s {warmup_s:.4}",
        warm.msgs_total,
        warm.sim_steps,
        fingerprint(&warm.digest)
    );

    let end_to_end = [
        ("setup_s", median(&setup)),
        ("wall_s", median(&wall)),
        ("peak_rss_mb", peak_rss),
        ("transmissions", warm.transmissions as f64),
    ];
    assert!(end_to_end
        .iter()
        .map(|(n, _)| n)
        .eq(END_TO_END.iter().map(|g| &g.metric.name)));

    let layers = cfg.trace.then(|| {
        // Everything a traced run compares is host time of this one
        // process, minutes apart at most: left as the clock read it.
        let mut layers = traced(job, &warm, median(&host_wall), &mut checks);
        layers.set("sim.scenario.bytes_per_node", bytes_per_node);
        layers.set("run.host_wall_s", median(&host_wall));
        layers.set("run.host_slowdown", median(&slowdown));
        layers
    });

    let failed_share = checks.failed as f64 / checks.attempted.max(1) as f64;
    println!(
        "failed_share {failed_share} ({} of {} operations)",
        checks.failed, checks.attempted
    );
    for failure in &checks.failures {
        println!("FAILED {failure}");
    }
    let env = stamp.finish(job.seed, timed.len());
    println!("env {}", env.to_line());

    // `--trace 0` reports the end-to-end metrics, `--trace 1` the
    // per-layer ones.
    let reported: Vec<(&Metric, f64)> = match &layers {
        None => END_TO_END
            .iter()
            .zip(end_to_end)
            .map(|(g, (_, value))| (&g.metric, value))
            .collect(),
        Some(layers) => PER_LAYER
            .iter()
            .zip(layers.iter())
            .map(|(m, (_, value))| (m, value))
            .collect(),
    };
    let metrics = Value::Obj(
        reported
            .into_iter()
            .map(|(m, value)| {
                (
                    m.name.to_string(),
                    Value::obj().with("value", value).with("unit", m.unit),
                )
            })
            .collect(),
    );
    let correct = checks.failed == 0;
    let line = Value::obj()
        .with("correct", correct)
        .with("attempted", checks.attempted)
        .with("failed", checks.failed)
        .with("metrics", metrics);

    let record = Value::obj()
        .with("workload", job.workload.name())
        .with("env", env)
        .with("nodes", warm.nodes)
        .with("edges", warm.edges)
        .with("warmup_s", warmup_s)
        .with("setup_s_samples", &setup[..])
        .with("wall_s_samples", &wall[..])
        .with("host_setup_s_samples", &host_setup[..])
        .with("host_wall_s_samples", &host_wall[..])
        .with("host_slowdown_samples", &slowdown[..])
        .with(
            "calib_compute_s_samples",
            Value::Arr(speeds.iter().map(|s| Value::from(s.compute_s)).collect()),
        )
        .with(
            "calib_walk_s_samples",
            Value::Arr(speeds.iter().map(|s| Value::from(s.walk_s)).collect()),
        )
        .with("msgs_total", warm.msgs_total)
        .with("sim_steps", warm.sim_steps)
        .with("output", fingerprint(&warm.digest))
        .with("failed_share", failed_share)
        .with(
            "failures",
            Value::Arr(
                checks
                    .failures
                    .iter()
                    .map(|f| Value::from(f.as_str()))
                    .collect(),
            ),
        )
        .with("result", line.clone());
    let suffix = if cfg.trace { ".traced" } else { "" };
    write_out(&format!("{}{suffix}.json", job.workload.name()), &record);

    RunResult { line, correct }
}

/// The traced rep and the probes; returns every per-layer metric.
fn traced(job: &Job, warm: &RepOutcome, untraced_wall_s: f64, checks: &mut Checks) -> Layers {
    let mut rec = Recorder::new();
    let root = rec.enter("rep");
    let rep = run_rep(job, Some(&mut rec));
    rec.exit(root);
    checks.rep("traced rep", &rep);
    // Driving the driver one step at a time from outside must be the
    // same simulation as the library's own run loop.
    checks.same("traced rep", warm, &rep);

    let mut layers = Layers::default();
    layers::from_trace(&rec, &rep, untraced_wall_s, &mut layers);
    probes::run(
        job,
        probes::Baseline {
            wall_s: untraced_wall_s,
            rep: warm,
        },
        &mut rec,
        &mut layers,
    );

    println!(
        "-- traced rep: wall_s {:.4}, {} spans",
        rep.wall_s,
        rec.len()
    );
    println!(
        "{:<34} {:>8} {:>12} {:>12}",
        "span", "calls", "total_ms", "self_ms"
    );
    for (name, calls, total_ns, self_ns) in rec.summary() {
        println!(
            "{name:<34} {calls:>8} {:>12.3} {:>12.3}",
            total_ns as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }
    println!("-- per-layer metrics");
    for (m, (_, value)) in PER_LAYER.iter().zip(layers.iter()) {
        println!("{:<40} {value:>16.4} {}", m.name, m.unit);
    }
    write_out(
        &format!("{}.trace.json", job.workload.name()),
        &rec.to_json(),
    );
    layers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn golden_pins_every_workload() {
        let golden = json::parse(GOLDEN).expect("golden.json is JSON");
        for w in Workload::ALL {
            let pinned = golden
                .get(w.name())
                .unwrap_or_else(|| panic!("{} unpinned", w.name()));
            for key in ["msgs_total", "sim_steps", "transmissions"] {
                assert!(pinned.get(key).and_then(Value::as_f64).is_some());
            }
        }
    }

    #[test]
    fn a_disagreeing_rep_is_a_failed_operation() {
        let reference = RepOutcome {
            msgs_total: 10,
            digest: "a".into(),
            attempted: 1,
            ..RepOutcome::default()
        };
        let mut other = reference.clone();
        let mut checks = Checks::default();
        checks.same("rep", &reference, &other);
        assert_eq!((checks.attempted, checks.failed), (1, 0));
        other.msgs_total = 11;
        checks.same("rep", &reference, &other);
        other.msgs_total = 10;
        other.digest = "b".into();
        checks.same("rep", &reference, &other);
        assert_eq!((checks.attempted, checks.failed), (3, 2));
        assert_eq!(checks.failures.len(), 2);
    }

    #[test]
    fn golden_only_binds_the_default_full_size_job() {
        let rep = RepOutcome::default();
        let mut checks = Checks::default();
        checks.golden(
            &Job::new(Workload::ConvergeRounds, DEFAULT_SEED + 1, false),
            &rep,
        );
        checks.golden(
            &Job::new(Workload::ConvergeRounds, DEFAULT_SEED, true),
            &rep,
        );
        assert_eq!(checks.attempted, 0);
        checks.golden(
            &Job::new(Workload::ConvergeRounds, DEFAULT_SEED, false),
            &rep,
        );
        assert_eq!((checks.attempted, checks.failed), (1, 1));
    }

    #[test]
    fn quick_runs_pass_their_checks_traced_and_not() {
        // The smoke test of the whole pipeline on the smallest workload
        // of each kind is `ci.sh`'s job; here one workload proves the
        // plumbing: result line shape, metric sets, traced reproduction.
        let job = Job::new(Workload::ConvergeCsma, 11, true);
        for trace in [false, true] {
            let result = run(&RunConfig {
                job,
                seconds: 0.01,
                trace,
            });
            assert!(result.correct, "{}", result.line.to_line());
            let metrics = result.line.get("metrics").expect("metrics");
            let expected = if trace {
                PER_LAYER.len()
            } else {
                END_TO_END.len()
            };
            assert_eq!(metrics.fields().len(), expected);
            assert_eq!(result.line.fields().len(), 4);
        }
    }
}
