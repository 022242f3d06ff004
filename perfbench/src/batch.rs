//! The batch workloads: `cold-dir` (directory open + builtin-KB scan) and
//! `warm-extended` (repository open + extended-KB scan), each followed by
//! single-plan diagnoses of held-out plans on the path `optimatch scan
//! FILE` takes.

use crate::config::{self, Workload, SCHEDULE_SEED};
use crate::gen::{facts, manifest, plan_files};
use crate::layers::{self, Counters, Pair, ServiceFigures};
use crate::stats::{median, peak_rss_mib, quantile, PoolOrder, SplitMix};
use crate::trace::{self, Tracer};
use crate::{Args, Outcome, Result};
use optimatch_core::{
    KnowledgeBase, OpenOptions, OptImatch, QepReport, ScanOutcome, Source, TransformedQep,
};
use optimatch_qep::parse_qep;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::{Duration, Instant};

/// Diagnoses run between two cycles.
const DIAGNOSE_BATCH: usize = 25;

/// The workload's source: the plan directory, or its repository.
fn source(w: &Workload, dir: &Path) -> Source {
    if w.name == "cold-dir" {
        Source::Dir(dir.join("plans"))
    } else {
        Source::Repo(dir.join("plans.optirepo"))
    }
}

/// One measured cycle: a fresh open, then the first full-KB scan.
fn cycle(
    w: &Workload,
    dir: &Path,
    kb: &KnowledgeBase,
) -> Result<(Duration, Duration, ScanOutcome)> {
    let t0 = Instant::now();
    let opened = OptImatch::open(source(w, dir), OpenOptions::new())?;
    let t1 = Instant::now();
    let outcome = opened.session.scan_with(kb, opened.session.defaults())?;
    let t2 = Instant::now();
    drop(opened);
    Ok((t1 - t0, t2 - t1, outcome))
}

/// Diagnose one plan file: `OptImatch::open(Source::File)`, the full-KB
/// scan, and the JSON rendering — what `optimatch scan FILE --format
/// json` does.
fn diagnose(path: &Path, kb: &KnowledgeBase) -> Result<ScanOutcome> {
    let opened = OptImatch::open(Source::File(path.to_path_buf()), OpenOptions::new())?;
    Ok(opened.session.scan_with(kb, opened.session.defaults())?)
}

/// For every builtin pattern, the QEP ids flagged in `reports` must equal
/// the generator's ground truth.
fn check_truth(
    out: &mut Outcome,
    what: &str,
    reports: &[QepReport],
    truth: &[(String, Vec<String>)],
) {
    for pattern in optimatch_workload::PatternId::ALL {
        let name = pattern.name();
        let flagged: BTreeSet<&str> = reports
            .iter()
            .filter(|r| r.recommendations.iter().any(|rec| rec.entry == name))
            .map(|r| r.qep_id.as_str())
            .collect();
        let expected: BTreeSet<&str> = truth
            .iter()
            .filter(|(_, pats)| pats.iter().any(|p| p == name))
            .map(|(id, _)| id.as_str())
            .collect();
        out.check(flagged == expected, || {
            format!(
                "{what}: {name} flagged {} QEP(s), ground truth has {}",
                flagged.len(),
                expected.len()
            )
        });
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &Args, dir: &Path) -> Result<Outcome> {
    let w = config::workload(&args.workload)?;
    let kb = w.kb();
    let mut out = Outcome::default();
    let start = Instant::now();
    let seconds = Duration::from_secs_f64(args.seconds);

    // Cycles and diagnoses alternate over the whole run, so each
    // metric's samples span the same stretch of time; cycles get
    // `cycle_share` of it.
    let pool = plan_files(&dir.join("pool"))?;
    let mut draws = PoolOrder::new(
        pool.len(),
        SplitMix::new(args.seed.wrapping_add(SCHEDULE_SEED)),
    );
    let (mut setup, mut scan, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cycle_time, mut diagnose_time) = (0.0, 0.0);
    let mut first: Option<ScanOutcome> = None;
    let mut bodies: BTreeMap<usize, String> = BTreeMap::new();
    let mut diagnosed: Vec<QepReport> = Vec::new();
    loop {
        let over = start.elapsed() >= seconds;
        let need_cycles = setup.len() < w.min_cycles;
        let need_diagnoses = latencies.len() < w.min_diagnose;
        if over && !need_cycles && !need_diagnoses {
            break;
        }
        let cycle_turn =
            need_cycles || (!over && cycle_time <= w.cycle_share * (cycle_time + diagnose_time));
        if cycle_turn {
            let (open_t, scan_t, outcome) = cycle(&w, dir, &kb)?;
            setup.push(open_t.as_secs_f64());
            scan.push(scan_t.as_secs_f64());
            cycle_time += (open_t + scan_t).as_secs_f64();
            out.attempted += 1;
            out.failed += u64::from(outcome.is_degraded());
            first.get_or_insert(outcome);
            continue;
        }
        for _ in 0..DIAGNOSE_BATCH {
            let idx = draws.next();
            let t0 = Instant::now();
            let outcome = diagnose(&pool[idx], &kb)?;
            let body = outcome.render_json();
            let dt = t0.elapsed().as_secs_f64();
            latencies.push(dt * 1e3);
            diagnose_time += dt;
            out.attempted += 1;
            out.failed += u64::from(outcome.is_degraded());
            match bodies.get(&idx) {
                Some(seen) => out.check(*seen == body, || {
                    format!("diagnose of {} is not deterministic", pool[idx].display())
                }),
                None => {
                    bodies.insert(idx, body);
                    diagnosed.extend(outcome.reports);
                }
            }
        }
    }

    // Correctness, outside the timed region.
    let first = first.expect("at least one cycle ran");
    check_truth(
        &mut out,
        "scan",
        &first.reports,
        &manifest(&dir.join("plans"))?,
    );
    let pool_truth: Vec<_> = manifest(&dir.join("pool"))?
        .into_iter()
        .filter(|(id, _)| diagnosed.iter().any(|r| r.qep_id == *id))
        .collect();
    check_truth(&mut out, "diagnose", &diagnosed, &pool_truth);
    if w.name != "cold-dir" {
        let reference = std::fs::read_to_string(dir.join("reference.json"))?;
        out.check(first.render_json() == reference, || {
            "warm-open reports differ from a cold open of the same plans".to_string()
        });
    }

    let (plan_bytes, repo_bytes) = facts(dir)?;
    out.metric("setup_s", median(&setup));
    out.metric("scan_s", median(&scan));
    out.metric("diagnose_p50_ms", quantile(&latencies, 0.50));
    out.metric("peak_rss_mb", peak_rss_mib("self")?);
    out.metric("repo_bytes_per_plan_byte", repo_bytes / plan_bytes);
    Ok(out)
}

/// The traced run: untraced cycles (KB build, open, scan) alternate with
/// traced recompositions of the same work from per-layer calls until
/// `--seconds` is spent (at least `min_cycles` pairs). Every metric is
/// the median over the pairs, so a host that speeds up or slows down
/// during the run moves both sides of each pair alike.
pub fn run_traced(args: &Args, dir: &Path) -> Result<Outcome> {
    let w = config::workload(&args.workload)?;
    let mut out = Outcome::default();
    let start = Instant::now();
    let seconds = Duration::from_secs_f64(args.seconds);
    let mut pairs = Vec::new();
    let mut runs = Vec::new();
    while pairs.len() < w.min_cycles.max(1) || start.elapsed() < seconds {
        let t0 = Instant::now();
        let kb = w.kb();
        let kb_t = t0.elapsed();
        let (open_t, scan_t, outcome) = cycle(&w, dir, &kb)?;
        let untraced_s = (kb_t + open_t + scan_t).as_secs_f64();
        out.attempted += 1;
        out.failed += u64::from(outcome.is_degraded());
        drop(kb);

        let mut tr = Tracer::new();
        let mut k = Counters::default();
        let t0 = Instant::now();
        let compiled = layers::compile(w.kb_entries(), &mut tr)?;
        let workload = if w.name == "cold-dir" {
            load_dir(&dir.join("plans"), &mut tr, &mut k)?
        } else {
            load_repo(&dir.join("plans.optirepo"), &mut tr, &mut k)?
        };
        let session = tr.span("core.session", |_| OptImatch::from_transformed(workload));
        let recomposed = layers::scan(
            &compiled,
            session.workload(),
            &session.defaults(),
            &mut tr,
            &mut k,
        )?;
        let traced_s = t0.elapsed().as_secs_f64();
        drop(session);
        out.attempted += 1;

        out.check(recomposed == outcome.reports, || {
            "per-layer recomposition disagrees with scan_with".to_string()
        });
        let times = tr.self_times();
        pairs.push(Pair {
            self_sum_s: layers::attributed_sum(&times),
            untraced_s,
            traced_s,
        });
        let names: Vec<String> = compiled
            .units
            .iter()
            .map(|u| u.entry.name.clone())
            .collect();
        runs.push(layers::metrics(
            &times,
            &k,
            &names,
            untraced_s,
            traced_s,
            &ServiceFigures::default(),
        ));
        if pairs.len() == 1 {
            tr.write(&trace::path(args))?;
        }
    }
    layers::check_faithful(&mut out, &pairs);
    out.metrics = layers::median_metrics(&runs);
    Ok(out)
}

/// The cold open, call by call: read, parse, transform.
fn load_dir(dir: &Path, tr: &mut Tracer, k: &mut Counters) -> Result<Vec<TransformedQep>> {
    let files = tr.span("read", |_| plan_files(dir))?;
    let mut workload = Vec::with_capacity(files.len());
    for path in files {
        let text = tr.span("read", |_| std::fs::read_to_string(&path))?;
        k.read_bytes += text.len() as u64;
        let qep = tr.span("qep.parse", |_| parse_qep(&text))?;
        k.parse_ops += qep.op_count() as u64;
        workload.push(layers::transform(qep, tr, k));
    }
    Ok(workload)
}

/// The warm open, call by call: decode the repository, restore records.
fn load_repo(path: &Path, tr: &mut Tracer, k: &mut Counters) -> Result<Vec<TransformedQep>> {
    let repo = tr.span("repo.decode", |_| optimatch_repo::Repository::open(path))?;
    k.repo_bytes_read += std::fs::metadata(path)?.len();
    let mut workload = Vec::with_capacity(repo.records.len());
    for record in repo.records {
        workload.push(tr.span("core.repo.restore", |_| {
            optimatch_core::repo::restore(record)
        }));
    }
    Ok(workload)
}
