//! `repo_bench` — cold directory load vs. warm repository open.
//!
//! A cold session (`OptImatch::open` on a plan directory) parses every
//! plan file and runs the Algorithm-1 RDF transform; a warm session
//! (`OptImatch::open` on a repository file)
//! deserializes the already-transformed graphs from the checksummed
//! repository. Both must scan to byte-identical reports; the JSON written
//! to `BENCH_repo.json` records the load timings, the one-time build
//! cost, the file size, and the warm-start speedup. The cold and warm
//! times are printed next to those of the `BENCH_repo.json` committed in
//! the checkout, read before anything is written.
//!
//! ```text
//! repo_bench [--quick] [--out FILE.json]
//! ```

use std::path::Path;
use std::time::{Duration, Instant};

use optimatch_bench::paper_workload;
use optimatch_core::{builtin, OpenOptions, OptImatch, ScanOptions, Source};
use serde_json::Value;

/// Best-of-`reps` wall time of a session constructor.
fn time_load(reps: usize, mut load: impl FnMut() -> OptImatch) -> (Duration, OptImatch) {
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        let session = load();
        best = best.min(start.elapsed());
        last = Some(session);
    }
    (best, last.expect("at least one rep"))
}

/// The `BENCH_repo.json` at the root of the checkout this binary was
/// built from: the last committed trajectory point.
const COMMITTED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_repo.json");

/// `(qeps, cold_secs, warm_secs)` of the committed report, if readable.
fn committed_times() -> Option<(u64, f64, f64)> {
    let text = std::fs::read_to_string(COMMITTED).ok()?;
    let v: Value = serde_json::from_str(&text).ok()?;
    Some((
        v.get("qeps")?.as_u64()?,
        v.get("cold_secs")?.as_f64()?,
        v.get("warm_secs")?.as_f64()?,
    ))
}

/// ` [committed: …]` suffix comparing a time with the committed one; the
/// ratio is printed only when both runs loaded the same number of QEPs.
fn versus(committed: Option<(u64, f64)>, n: usize, now: Duration) -> String {
    match committed {
        Some((qeps, secs)) if qeps == n as u64 => format!(
            "  [committed: {:.1} ms, now {:.2}x of it]",
            secs * 1e3,
            now.as_secs_f64() / secs
        ),
        Some((qeps, secs)) => format!("  [committed: {:.1} ms on {qeps} QEPs]", secs * 1e3),
        None => "  [no committed BENCH_repo.json]".to_string(),
    }
}

fn json_f64(x: f64) -> Value {
    Value::Number(serde_json::Number::Float(x))
}

fn json_usize(x: usize) -> Value {
    Value::Number(serde_json::Number::Int(x as i64))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_repo.json");

    let n = if quick { 60 } else { 400 };
    let reps = if quick { 2 } else { 5 };
    let committed = committed_times();

    // Materialize the workload as plan files, the cold path's input.
    let dir = std::env::temp_dir().join(format!("optimatch-repo-bench-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    let workload = paper_workload(n);
    optimatch_workload::write_workload(&workload, &dir).expect("writes the workload");
    let repo_path = dir.join("workload.optirepo");

    println!("# cold from_dir vs. warm open_repo");
    println!("workload: {n} QEPs in {}", dir.display());

    let (cold_time, cold) = time_load(reps, || {
        OptImatch::open(Source::Dir(dir.clone()), OpenOptions::new())
            .expect("plan files parse")
            .session
    });
    println!(
        "cold from_dir:  {cold_time:?}  ({:.1} QEPs/s){}",
        n as f64 / cold_time.as_secs_f64(),
        versus(committed.map(|(q, cold, _)| (q, cold)), n, cold_time)
    );

    let build_start = Instant::now();
    let built = optimatch_core::build_repo(&dir, &repo_path).expect("repository builds");
    let build_time = build_start.elapsed();
    assert_eq!(built.records, n, "every plan must be ingested");
    assert!(built.skipped.is_empty());
    let repo_bytes = std::fs::metadata(&repo_path).expect("repo exists").len();
    println!(
        "repo build:     {build_time:?}  ({} bytes, {:.1} KiB/QEP)",
        repo_bytes,
        repo_bytes as f64 / 1024.0 / n as f64
    );
    assert!(
        optimatch_repo::Repository::verify(&repo_path)
            .expect("verify runs")
            .is_ok(),
        "a freshly built repository must verify clean"
    );

    let (warm_time, warm) = time_load(reps, || {
        OptImatch::open(Source::Repo(repo_path.clone()), OpenOptions::new())
            .expect("repository opens")
            .session
    });
    println!(
        "warm open_repo: {warm_time:?}  ({:.1} QEPs/s){}",
        n as f64 / warm_time.as_secs_f64(),
        versus(committed.map(|(q, _, warm)| (q, warm)), n, warm_time)
    );

    // The warm session must be indistinguishable from the cold one:
    // identical reports (to the byte, via JSON), identical prune counters.
    let kb = builtin::paper_kb();
    let cold_scan = cold
        .scan_with(&kb, ScanOptions::default())
        .expect("cold scan");
    let warm_scan = warm
        .scan_with(&kb, ScanOptions::default())
        .expect("warm scan");
    assert_eq!(
        cold_scan.reports, warm_scan.reports,
        "warm sessions must scan identically"
    );
    assert_eq!(
        serde_json::to_string(&cold_scan.reports).expect("serializable"),
        serde_json::to_string(&warm_scan.reports).expect("serializable"),
        "reports must serialize byte-identically"
    );
    assert_eq!(cold_scan.stats.pruned, warm_scan.stats.pruned);
    assert_eq!(cold_scan.stats.candidates, warm_scan.stats.candidates);

    let speedup = cold_time.as_secs_f64() / warm_time.as_secs_f64();
    println!("speedup: {speedup:.2}x  (scan reports byte-identical)");

    let json = Value::Object(vec![
        ("qeps".to_string(), json_usize(n)),
        ("cold_secs".to_string(), json_f64(cold_time.as_secs_f64())),
        ("build_secs".to_string(), json_f64(build_time.as_secs_f64())),
        ("warm_secs".to_string(), json_f64(warm_time.as_secs_f64())),
        (
            "cold_qeps_per_sec".to_string(),
            json_f64(n as f64 / cold_time.as_secs_f64()),
        ),
        (
            "warm_qeps_per_sec".to_string(),
            json_f64(n as f64 / warm_time.as_secs_f64()),
        ),
        ("speedup".to_string(), json_f64(speedup)),
        ("repo_bytes".to_string(), json_usize(repo_bytes as usize)),
        (
            "bytes_per_qep".to_string(),
            json_f64(repo_bytes as f64 / n as f64),
        ),
        (
            "scan_reports_identical".to_string(),
            Value::Bool(cold_scan.reports == warm_scan.reports),
        ),
        (
            "pruned_matcher_runs".to_string(),
            json_usize(warm_scan.stats.pruned),
        ),
    ]);
    let mut text = serde_json::to_string_pretty(&json).expect("serializable");
    text.push('\n');
    std::fs::write(Path::new(out_path), text).expect("writes the report");
    println!("wrote {out_path}");
    std::fs::remove_dir_all(&dir).ok();
}
