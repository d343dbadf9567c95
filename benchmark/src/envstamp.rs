//! Where and when a record was measured, and how disturbed the box was.
//!
//! Every record carries this stamp so that a number can be traced to a
//! commit and a machine, and so that a run taken while a neighbour was
//! stealing the CPU is recognisable afterwards. Nothing here is gated.

use std::process::Command;

use crate::json::Value;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// First line of a command's standard output, or `"unknown"` — the
/// acceptance driver's checkout is not a git repository, and that must
/// not fail a run.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(|l| l.trim().to_string()))
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A `Key:   123 kB` line of `/proc/self/status`, in bytes.
fn status_bytes(key: &str) -> u64 {
    read("/proc/self/status")
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix(key)?
                    .trim_start_matches(':')
                    .trim()
                    .strip_suffix("kB")?
                    .trim()
                    .parse::<u64>()
                    .ok()
            })
        })
        .map_or(0, |kb| kb * 1024)
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_bytes("VmHWM") as f64 / (1024.0 * 1024.0)
}

/// Current resident set of this process (`VmRSS`), in bytes.
pub fn rss_bytes() -> u64 {
    status_bytes("VmRSS")
}

/// The aggregate `cpu` line of `/proc/stat`: (steal ticks, all ticks).
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = read("/proc/stat")?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user/nice.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Taken when a run starts; [`EnvStamp::finish`] closes it.
#[derive(Debug)]
pub struct EnvStamp {
    git_rev: String,
    rustc: String,
    cpu_model: String,
    nproc: usize,
    loadavg_start: String,
    ticks_start: Option<(u64, u64)>,
}

impl EnvStamp {
    pub fn start() -> Self {
        let cpu_model = read("/proc/cpuinfo")
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        EnvStamp {
            git_rev: first_line_of("git", &["rev-parse", "--short=12", "HEAD"]),
            rustc: first_line_of("rustc", &["-V"]),
            cpu_model,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            loadavg_start: read("/proc/loadavg")
                .map_or_else(|| "unknown".to_string(), |l| l.trim().to_string()),
            ticks_start: cpu_ticks(),
        }
    }

    /// Share of all CPU ticks since [`EnvStamp::start`] that the
    /// hypervisor gave to someone else.
    fn steal_share(&self) -> f64 {
        match (self.ticks_start, cpu_ticks()) {
            (Some((steal0, all0)), Some((steal1, all1))) if all1 > all0 => {
                (steal1 - steal0) as f64 / (all1 - all0) as f64
            }
            _ => 0.0,
        }
    }

    /// The stamp as a JSON object, closed with the steal share over
    /// the run.
    pub fn finish(&self, seed: u64, reps: usize) -> Value {
        Value::obj()
            .with("git_rev", self.git_rev.as_str())
            .with("rustc", self.rustc.as_str())
            .with(
                "profile",
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                },
            )
            .with("nproc", self.nproc)
            .with("cpu_model", self.cpu_model.as_str())
            .with("seed", seed)
            .with("reps", reps)
            .with("loadavg_start", self.loadavg_start.as_str())
            .with("steal_share", self.steal_share())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_has_every_field_and_never_fails() {
        let stamp = EnvStamp::start().finish(7, 3);
        for key in [
            "git_rev",
            "rustc",
            "profile",
            "nproc",
            "cpu_model",
            "seed",
            "reps",
            "loadavg_start",
            "steal_share",
        ] {
            assert!(stamp.get(key).is_some(), "stamp lacks `{key}`");
        }
        let steal = stamp.get("steal_share").and_then(Value::as_f64).unwrap();
        assert!((0.0..=1.0).contains(&steal));
        assert_eq!(first_line_of("definitely-not-a-program", &[]), "unknown");
    }

    #[test]
    fn resident_set_is_readable_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
            assert!(rss_bytes() > 0);
        }
    }
}
