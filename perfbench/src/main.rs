//! End-to-end and per-layer benchmark of the neurosnn workspace on the
//! paper's SHD setting.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train_shd|infer_shd|serve_http> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload runs per process. An untraced run (`--trace 0`) prints
//! every end-to-end metric; a traced run (`--trace 1`) times calls into
//! each layer's public functions with the benchmark's own timers and
//! prints every per-layer metric. Every answer is checked; a wrong or
//! failed operation makes the process exit non-zero. The last line of
//! standard output is the result object; the line before it is a report
//! with provenance, the host-speed calibration and sample counts.

mod catalogue;
mod measure;
mod setting;
mod workloads;

use catalogue::{Catalogue, SHOULD_MOVE};
use measure::Tally;
use snn_json::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (one of `BENCHMARK.json`'s workloads).
    pub workload: String,
    /// Seed for the inputs and the network.
    pub seed: u64,
    /// Nominal length of the measured phase; it sizes a fixed amount of
    /// work, so a run's work never depends on the host's speed.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>, workloads: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !workloads.contains(&workload) {
            return Err(format!("unknown workload {workload}"));
        }
        if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds} out of range (0, 600]"));
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// What a workload reports.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted and failed, checks included.
    pub tally: Tally,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts and other evidence, printed in the report line.
    pub details: Vec<(&'static str, Json)>,
}

impl RunResult {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a report entry.
    pub fn note(&mut self, key: &'static str, value: Json) {
        self.details.push((key, value));
    }
}

/// Worker threads and client connections: one per available core.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Set-ups timed per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Runs `build` `reps` times and returns each run's seconds, as
/// reported by `build` itself, with the last build kept. The previous
/// build is dropped before the next starts, outside the timing.
///
/// # Errors
///
/// The first error a build returns.
pub fn timed_setups<T, E>(
    reps: usize,
    mut build: impl FnMut() -> Result<(T, f64), E>,
) -> Result<(Vec<f64>, T), E> {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps.max(1) {
        drop(kept.take());
        let (value, secs) = build()?;
        times.push(secs);
        kept = Some(value);
    }
    Ok((times, kept.expect("at least one set-up")))
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Operations for a measured phase: `seconds` at a nominal rate, at
/// least `floor`. The nominal rates are constants, so the work is the
/// same on every host and commit.
pub fn work(seconds: f64, nominal_per_s: f64, floor: usize) -> usize {
    ((seconds * nominal_per_s).round() as usize).max(floor)
}

fn usage() -> &'static str {
    "usage: perfbench --workload <train_shd|infer_shd|serve_http> \
     --seed <n> --seconds <s> --trace <0|1>"
}

/// Longest wait for a quiet host before a run, and the busy window of
/// each probe. The host steals CPU time in episodes of up to a few
/// minutes that slow every workload, some by more than half; starting
/// runs outside them keeps one episode from moving many runs.
const QUIET_WAIT_CAP: Duration = Duration::from_secs(15);
const QUIET_PROBE: Duration = Duration::from_secs(1);

/// The host's state over a run: how long the run waited for a quiet
/// host and the last probe's steal share, the calibration loop's time
/// at the start and end, and the share of CPU time the host stole in
/// between.
struct HostReading {
    quiet_wait: (f64, Option<f64>),
    calibration_ms: (f64, f64),
    steal_pct: f64,
}

fn provenance(args: &Args, host_reading: &HostReading) -> Json {
    let host = snn_obs::provenance::host_info();
    let text = |s: &str| Json::Str(s.to_string());
    Json::obj(vec![
        ("workload", text(&args.workload)),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        (
            "git_revision",
            host.git_revision.as_deref().map_or(Json::Null, text),
        ),
        ("hostname", text(&host.hostname)),
        ("os", text(host.os)),
        ("arch", text(host.arch)),
        ("cores", Json::Num(host.cores as f64)),
        ("simd_path", text(snn_tensor::lanes::path_label())),
        (
            "build_profile",
            text(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("quiet_wait_s", Json::Num(host_reading.quiet_wait.0)),
        (
            "quiet_probe_steal_pct",
            host_reading.quiet_wait.1.map_or(Json::Null, Json::Num),
        ),
        (
            "calibration_ms_start",
            Json::Num(host_reading.calibration_ms.0),
        ),
        (
            "calibration_ms_end",
            Json::Num(host_reading.calibration_ms.1),
        ),
        ("host_steal_pct", Json::Num(host_reading.steal_pct)),
    ])
}

/// Which end-to-end metric each per-layer metric should move, on which
/// workloads, and which workloads it should leave alone.
fn should_move() -> Json {
    let text = |s: &str| Json::Str(s.to_string());
    Json::Arr(
        SHOULD_MOVE
            .iter()
            .map(|&(name, moves, on, not_on)| {
                Json::obj(vec![
                    ("name", text(name)),
                    ("moves", text(moves)),
                    ("on", text(on)),
                    ("not_on", text(not_on)),
                ])
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let catalogue = match Catalogue::load() {
        Ok(catalogue) => catalogue,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let args = match Args::parse(std::env::args().skip(1), &catalogue.workloads) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // The program's own span recording stays off; only the benchmark's
    // timers measure.
    snn_obs::set_enabled(false);
    let quiet_wait = measure::wait_for_quiet_host(cores(), QUIET_PROBE, QUIET_WAIT_CAP);
    let jiffies_start = measure::cpu_jiffies();
    let calibration_start = measure::calibration_ms();
    let outcome = match args.workload.as_str() {
        "train_shd" => workloads::train::run(&args),
        "infer_shd" => workloads::infer::run(&args),
        "serve_http" => workloads::http::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let mut result = match outcome {
        Ok(result) => result,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let calibration_end = measure::calibration_ms();
    let steal_pct = match (jiffies_start, measure::cpu_jiffies()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    };
    let host_reading = HostReading {
        quiet_wait,
        calibration_ms: (calibration_start, calibration_end),
        steal_pct,
    };
    if args.trace {
        result.note("should_move", should_move());
    } else {
        let rate = result.tally.success_rate();
        result.set("success_rate", rate);
    }

    let mut metrics = Vec::new();
    for (name, unit) in catalogue.metrics(args.trace) {
        let value = match result.metrics.remove(name.as_str()) {
            Some(v) => v,
            // A layer the workload does not exercise does no work.
            None if args.trace => 0.0,
            None => {
                eprintln!("perfbench: {} did not measure {name}", args.workload);
                return ExitCode::FAILURE;
            }
        };
        if !value.is_finite() {
            eprintln!("perfbench: {name} is not finite ({value})");
            return ExitCode::FAILURE;
        }
        metrics.push((
            name.as_str(),
            Json::obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.clone())),
            ]),
        ));
    }
    if let Some(stray) = result.metrics.keys().next() {
        eprintln!("perfbench: {stray} is not a metric of this mode");
        return ExitCode::FAILURE;
    }

    let tally = result.tally;
    let mut report = vec![("provenance", provenance(&args, &host_reading))];
    report.push((
        "operations",
        Json::obj(vec![
            ("attempted", Json::Num(tally.attempted as f64)),
            ("failed", Json::Num(tally.failed as f64)),
            ("wrong", Json::Num(tally.wrong as f64)),
            ("error_rate", Json::Num(tally.error_rate())),
        ]),
    ));
    report.extend(result.details);
    println!("{}", Json::obj(vec![("perfbench", Json::obj(report))]));

    let correct = tally.wrong == 0;
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(tally.attempted as f64)),
            ("failed", Json::Num(tally.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    );
    if correct && tally.failed == 0 && tally.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} operations failed ({} wrong answers)",
            tally.failed, tally.attempted, tally.wrong
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        let workloads = Catalogue::load().unwrap().workloads;
        Args::parse(args.iter().map(|s| s.to_string()), &workloads)
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse(&[
            "--workload",
            "infer_shd",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("infer_shd", 7, 12.0, true)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse(&["--seed", "1"]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "infer_shd", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "infer_shd", "--seconds", "0"]).is_err());
        assert!(parse(&["--workload", "infer_shd", "--seed"]).is_err());
        assert!(parse(&["--workload", "infer_shd", "--bogus", "1"]).is_err());
    }

    #[test]
    fn fixed_work_ignores_the_host() {
        assert_eq!(work(10.0, 150.0, 1), 1500);
        assert_eq!(work(0.001, 150.0, 20), 20);
    }

    #[test]
    fn setups_keep_the_last_build() {
        let mut n = 0;
        let built = timed_setups(3, || {
            n += 1;
            Ok::<_, ()>((n, n as f64))
        });
        assert_eq!(built, Ok((vec![1.0, 2.0, 3.0], 3)));
        assert_eq!(timed_setups(3, || Err::<(u8, f64), _>("no")), Err("no"));
    }
}
