//! `perfbench` — the OptImatch benchmark.
//!
//! ```text
//! perfbench run --optimatch BIN --workload NAME --seed N --seconds S --trace 0|1
//! perfbench gen --workload NAME --seed N --dir DIR
//! ```
//!
//! `run` generates the workload's inputs in a child `gen` process (so the
//! generator never counts towards the measured process's memory), measures
//! for `--seconds`, checks every output against an oracle outside the timed
//! region, and prints one JSON object as its last stdout line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones of `BENCHMARK.json`; with `--trace 1`
//! they are the per-layer ones, from a run that replays the same work
//! through each layer's public calls with a span around every call.
//!
//! Workload sizes and rationale live in `perfbench/workloads.json`.

mod batch;
mod config;
mod gen;
mod http;
mod layers;
mod service;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// A benchmark failure that prevents a result (bad arguments, a missing
/// input, an I/O or pipeline error) — as opposed to a correctness
/// mismatch, which still prints a result with `"correct": false`.
#[derive(Debug)]
pub struct BenchError(pub String);

impl<E: std::fmt::Display> From<E> for BenchError {
    fn from(e: E) -> BenchError {
        BenchError(e.to_string())
    }
}

pub type Result<T> = std::result::Result<T, BenchError>;

/// Fail with a message (the `?`-friendly form of an early return).
pub fn fail<T>(msg: impl Into<String>) -> Result<T> {
    Err(BenchError(msg.into()))
}

/// What one run produced: operation counts, the correctness verdict with
/// the reasons it failed, and the metrics by name.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
    pub metrics: Vec<(String, f64)>,
}

impl Outcome {
    /// Record a correctness mismatch unless `ok` (the run is then
    /// reported incorrect).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            eprintln!("perfbench: correctness mismatch: {what}");
            self.mismatches.push(what);
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }
}

/// Command-line arguments of `run` and `gen`.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub optimatch: Option<PathBuf>,
    pub dir: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args> {
    let mut out = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        optimatch: None,
        dir: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return fail(format!("{flag}: missing value"));
        };
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => {
                out.seed = value
                    .parse()
                    .map_err(|_| BenchError(format!("--seed: bad value {value:?}")))?
            }
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .map_err(|_| BenchError(format!("--seconds: bad value {value:?}")))?
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return fail(format!("--trace: expected 0 or 1, got {other:?}")),
                }
            }
            "--optimatch" => out.optimatch = Some(PathBuf::from(value)),
            "--dir" => out.dir = Some(PathBuf::from(value)),
            other => return fail(format!("unknown option {other}")),
        }
    }
    config::workload(&out.workload)?;
    Ok(out)
}

/// A per-run working directory under `.perfbench/` in the current
/// directory, removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(workload: &str) -> Result<WorkDir> {
        let dir = Path::new(".perfbench").join(format!("{workload}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too unless it still holds traces or another run.
        let _ = std::fs::remove_dir(".perfbench");
    }
}

fn run(args: &Args) -> Result<Outcome> {
    if args.seconds <= 0.0 {
        return fail("--seconds must be positive");
    }
    let Some(optimatch) = args.optimatch.clone() else {
        return fail("--optimatch BIN is required");
    };
    let expected = config::metric_names(args.trace)?;
    let work = WorkDir::create(&args.workload)?;
    gen::spawn(&args.workload, args.seed, &work.0)?;
    let mut outcome = match (args.workload.as_str(), args.trace) {
        ("service-mix", trace) => service::run(args, &optimatch, &work.0, trace)?,
        (_, false) => batch::run(args, &work.0)?,
        (_, true) => batch::run_traced(args, &work.0)?,
    };
    // Every run reports exactly the metric set BENCHMARK.json declares.
    let got: Vec<&str> = outcome.metrics.iter().map(|(n, _)| n.as_str()).collect();
    for (name, _) in &expected {
        if !got.contains(&name.as_str()) {
            return fail(format!("metric {name} was not measured"));
        }
    }
    outcome
        .metrics
        .retain(|(n, _)| expected.iter().any(|(e, _)| e == n));
    for (_, value) in &mut outcome.metrics {
        if !value.is_finite() {
            *value = stats::MISS_MS;
        }
        // An empty float sum is -0.0; print it as 0.
        *value += 0.0;
    }
    print_result(&outcome, &expected);
    Ok(outcome)
}

fn print_result(outcome: &Outcome, expected: &[(String, String)]) {
    let metrics: Vec<String> = expected
        .iter()
        .filter_map(|(name, unit)| {
            let (_, value) = outcome.metrics.iter().find(|(n, _)| n == name)?;
            Some(format!(
                "{name:?}: {{\"value\": {value}, \"unit\": {unit:?}}}"
            ))
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.mismatches.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("run") => parse_args(&argv[1..]).and_then(|a| run(&a)).map(|o| o.mismatches.is_empty()),
        Some("gen") => parse_args(&argv[1..]).and_then(|a| gen::run(&a)).map(|()| true),
        _ => fail("usage: perfbench run|gen --workload NAME --seed N [--seconds S --trace 0|1 --optimatch BIN] [--dir DIR]"),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(BenchError(msg)) => {
            eprintln!("perfbench: {msg}");
            ExitCode::from(2)
        }
    }
}
