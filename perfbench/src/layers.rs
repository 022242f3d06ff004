//! The traced recomposition of a full-KB scan, and the per-layer metrics.
//!
//! The traced run does not use any timer inside the program. It calls
//! each layer's public function itself, with a span around the call, and
//! checks that the recomposed result equals the untraced one. One
//! (entry × QEP) unit of `scan_with` is `find_traced`, which plans,
//! evaluates and de-transforms in one call, so the traced run also
//! replays the unit's planning and evaluation on their own:
//!
//! | span | call | reported as |
//! |---|---|---|
//! | `sparql.plan.stats` | `Graph::stats` (the lazy statistics build) | part of `sparql.plan.busy_s` |
//! | `sparql.plan` | `Matcher::explain` (replay) | part of `sparql.plan.busy_s` |
//! | `core.matcher` | `Matcher::find_traced` (what `scan_with` runs) | `core.matcher.detransform_s` = matcher − eval |
//! | `sparql.eval` | `execute_parsed_traced` (replay) | `sparql.eval.busy_s` |
//!
//! The planner's greedy loop runs interleaved with evaluation, so
//! `sparql.eval.busy_s` includes in-evaluation planning and the explain
//! replay measures the same decisions again, rendered. Replayed calls are
//! tracing overhead: the attributed self times (all spans but the
//! replays) sum to the work an untraced scan does. `find_traced` runs
//! before its evaluation replay, in the position the untraced scan runs
//! it. Ingest replays work the same way: `core.live.ingest`
//! (`SessionManager::ingest`) minus the replayed transform and append is
//! `core.live.publish`.

use crate::trace::{self, SelfTimes, Tracer};
use crate::{stats, BenchError, Result};
use optimatch_core::tagging::Template;
use optimatch_core::{
    rank, FeatureSummary, KnowledgeBase, KnowledgeBaseEntry, Matcher, PatternMatch, PlanOptions,
    QepReport, Recommendation, ScanOptions, TransformedQep,
};
use optimatch_sparql::{ast::Query, execute_parsed_traced, parse_query, Budget};

/// Span names that replay work another span already covers; they are
/// tracing overhead, not part of the attributed self-time sum.
const REPLAY_SPANS: [&str; 4] = [
    "sparql.plan",
    "sparql.eval",
    "core.transform.ingest",
    "repo.append",
];

/// One KB entry compiled by the traced run itself.
pub struct Unit {
    pub entry: KnowledgeBaseEntry,
    pub matcher: Matcher,
    pub template: Template,
    pub query: Query,
}

/// The workload's KB, as units for the recomposition plus the
/// `KnowledgeBase` whose workload weighting the scan applies.
pub struct Compiled {
    pub units: Vec<Unit>,
    pub kb: KnowledgeBase,
}

/// Compile the KB inside a `core.compile` span.
pub fn compile(entries: Vec<KnowledgeBaseEntry>, tr: &mut Tracer) -> Result<Compiled> {
    tr.span("core.compile", |_| {
        let mut kb = KnowledgeBase::new();
        let mut units = Vec::new();
        for entry in entries {
            let matcher = Matcher::compile(&entry.pattern)?;
            let template = Template::parse(&entry.recommendation)
                .map_err(|e| BenchError(format!("{}: {e}", entry.name)))?;
            let query = parse_query(matcher.sparql())?;
            kb.add(entry.clone())?;
            units.push(Unit {
                entry,
                matcher,
                template,
                query,
            });
        }
        Ok(Compiled { units, kb })
    })
}

/// Work counted at the layer boundaries of the traced run.
#[derive(Debug, Default)]
pub struct Counters {
    pub read_bytes: u64,
    pub parse_ops: u64,
    pub triples: u64,
    pub repo_bytes_read: u64,
    pub candidates: u64,
    pub pruned: u64,
    pub evaluated: u64,
    pub matched: u64,
    pub reorders: u64,
    pub rows: u64,
    pub fuel: u64,
    /// `(entry index, q-error)` per evaluated unit.
    pub q_errors: Vec<(usize, f64)>,
    pub bytes_written: u64,
}

/// The planner's q-error for one unit: the factor by which its summed row
/// estimate missed the rows actually produced (≥ 1).
fn q_error(estimated: u64, actual: u64) -> f64 {
    let (e, a) = (estimated.max(1) as f64, actual.max(1) as f64);
    (e / a).max(a / e)
}

/// Transform one parsed plan the way `TransformedQep::new` does, with the
/// transform and the feature summary in their own spans.
pub fn transform(qep: optimatch_qep::Qep, tr: &mut Tracer, k: &mut Counters) -> TransformedQep {
    let graph = tr.span("core.transform", |_| optimatch_core::transform_qep(&qep));
    k.triples += graph.len() as u64;
    let summary = tr.span("core.features", |_| FeatureSummary::of_graph(&qep, &graph));
    TransformedQep {
        qep,
        graph,
        summary,
    }
}

/// Recompose `scan_with` over `workload` from per-layer calls. The
/// reports must equal `scan_with`'s under the same options.
pub fn scan(
    c: &Compiled,
    workload: &[TransformedQep],
    options: &ScanOptions,
    tr: &mut Tracer,
    k: &mut Counters,
) -> Result<Vec<QepReport>> {
    let plan = PlanOptions::default().optimize(options.optimize);
    let mut reports = Vec::with_capacity(workload.len());
    for t in workload {
        let mut recommendations = Vec::new();
        let mut stats_built = false;
        for (i, u) in c.units.iter().enumerate() {
            k.candidates += 1;
            let could = tr.span_entry("core.features", i, |_| u.matcher.could_match(t));
            if options.prune && !could {
                k.pruned += 1;
                continue;
            }
            k.evaluated += 1;
            if !stats_built {
                tr.span("sparql.plan.stats", |_| t.graph.stats());
                stats_built = true;
            }
            tr.span_entry("sparql.plan", i, |_| u.matcher.explain(t, plan))?;
            let budget = Budget::limited(options.fuel, options.deadline);
            let (matches, planner) = tr.span_entry("core.matcher", i, |_| {
                u.matcher.find_traced(t, &budget, options.optimize)
            })?;
            let budget = Budget::limited(options.fuel, options.deadline);
            tr.span_entry("sparql.eval", i, |_| {
                execute_parsed_traced(&t.graph, &u.query, plan, &budget)
            })?;
            k.fuel += budget.spent();
            k.rows += planner.actual_rows;
            k.reorders += planner.reorders;
            if planner.patterns > 0 {
                k.q_errors
                    .push((i, q_error(planner.estimated_rows, planner.actual_rows)));
            }
            if matches.is_empty() {
                continue;
            }
            k.matched += 1;
            recommendations.push(tr.span_entry("core.rank", i, |_| recommend(u, &matches, t)));
        }
        tr.span("core.rank", |_| {
            recommendations.sort_by(|a: &Recommendation, b| {
                b.confidence
                    .partial_cmp(&a.confidence)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
        });
        reports.push(QepReport {
            qep_id: t.qep.id.clone(),
            recommendations,
        });
    }
    tr.span("core.rank", |_| {
        c.kb.apply_workload_weighting(&mut reports, workload)
    });
    Ok(reports)
}

/// Algorithm 5 for one fired unit: render the template and score the
/// best occurrence.
fn recommend(u: &Unit, matches: &[PatternMatch], t: &TransformedQep) -> Recommendation {
    let confidence = matches
        .iter()
        .filter_map(|m| m.anchor_pop())
        .filter_map(|id| rank::features_for(&t.qep, id))
        .map(|f| rank::confidence(u.entry.prototype, f))
        .fold(0.0, f64::max);
    Recommendation {
        entry: u.entry.name.clone(),
        text: u.template.render(matches, &t.qep),
        confidence,
        occurrences: matches.len(),
    }
}

/// Sum of attributed self times: every span's self time minus the
/// replayed calls (see the module docs).
pub fn attributed_sum(times: &SelfTimes) -> f64 {
    times
        .iter()
        .filter(|((name, _), _)| !REPLAY_SPANS.contains(name))
        .map(|(_, t)| t)
        .sum::<f64>()
}

/// Service-only per-layer figures, measured outside the trace.
#[derive(Debug, Default)]
pub struct ServiceFigures {
    pub overhead_ms: f64,
    pub shed: f64,
    pub diagnose_p99_ms: f64,
    pub ingest_p50_ms: f64,
    pub ingest_p90_ms: f64,
    pub sent: f64,
    pub late_p99_ms: f64,
    pub late_max_ms: f64,
    pub over_limit: f64,
    pub peak_rss_mb: f64,
}

/// Every per-layer metric, by name. `untraced_s` and `traced_s` are the
/// wall times of the same work without and with tracing; `kb_names` maps
/// KB entry index to name (per-entry metrics are reported for every
/// entry of the extended KB, 0 when the workload's KB lacks it).
pub fn metrics(
    times: &SelfTimes,
    k: &Counters,
    kb_names: &[String],
    untraced_s: f64,
    traced_s: f64,
    service: &ServiceFigures,
) -> Vec<(String, f64)> {
    let t = |name: &str| trace::total(times, name);
    let transform = t("core.transform") + t("core.transform.ingest");
    let plan = t("sparql.plan") + t("sparql.plan.stats");
    let q: Vec<f64> = k.q_errors.iter().map(|(_, q)| *q).collect();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let mut out: Vec<(String, f64)> = vec![
        ("read.busy_s".into(), t("read")),
        ("read.bytes".into(), k.read_bytes as f64),
        ("qep.parse.busy_s".into(), t("qep.parse")),
        ("qep.parse.ops".into(), k.parse_ops as f64),
        ("core.transform.busy_s".into(), transform),
        ("core.transform.triples".into(), k.triples as f64),
        (
            "core.transform.ns_per_triple".into(),
            if k.triples == 0 {
                0.0
            } else {
                transform * 1e9 / k.triples as f64
            },
        ),
        ("repo.decode_s".into(), t("repo.decode")),
        ("repo.bytes_read".into(), k.repo_bytes_read as f64),
        ("core.repo.restore_s".into(), t("core.repo.restore")),
        ("core.compile.busy_s".into(), t("core.compile")),
        ("core.features.busy_s".into(), t("core.features")),
        ("core.features.candidates".into(), k.candidates as f64),
        ("core.features.pruned".into(), k.pruned as f64),
        (
            "core.matcher.useful_ratio".into(),
            ratio(k.matched, k.evaluated),
        ),
        ("sparql.plan.busy_s".into(), plan),
        ("sparql.plan.reorders".into(), k.reorders as f64),
        ("sparql.plan.q_error_p50".into(), stats::quantile(&q, 0.5)),
        (
            "sparql.plan.q_error_max".into(),
            q.iter().copied().fold(0.0, f64::max),
        ),
        ("sparql.eval.busy_s".into(), t("sparql.eval")),
        ("sparql.eval.rows".into(), k.rows as f64),
        ("sparql.eval.fuel".into(), k.fuel as f64),
        // Noise can push this small difference below zero; report 0 then.
        (
            "core.matcher.detransform_s".into(),
            (t("core.matcher") - t("sparql.eval")).max(0.0),
        ),
        ("core.rank.busy_s".into(), t("core.rank")),
        ("core.render.busy_s".into(), t("core.render")),
        ("repo.append_s".into(), t("repo.append")),
        ("repo.bytes_written".into(), k.bytes_written as f64),
        (
            "core.live.publish_s".into(),
            t("core.live.ingest") - t("core.transform.ingest") - t("repo.append"),
        ),
        ("serve.overhead_ms".into(), service.overhead_ms),
        ("serve.shed".into(), service.shed),
        ("serve.peak_rss_mb".into(), service.peak_rss_mb),
        ("serve.diagnose_p99_ms".into(), service.diagnose_p99_ms),
        ("serve.ingest_p50_ms".into(), service.ingest_p50_ms),
        ("serve.ingest_p90_ms".into(), service.ingest_p90_ms),
        ("gen.sent".into(), service.sent),
        ("gen.late_p99_ms".into(), service.late_p99_ms),
        ("gen.late_max_ms".into(), service.late_max_ms),
        ("gen.over_limit".into(), service.over_limit),
        ("trace.overhead_s".into(), traced_s - untraced_s),
        ("trace.untraced_s".into(), untraced_s),
        ("trace.self_sum_s".into(), attributed_sum(times)),
    ];
    for entry in optimatch_core::builtin::extended_entries() {
        let idx = kb_names.iter().position(|n| *n == entry.name);
        let eval = idx.map_or(0.0, |i| trace::for_entry(times, "sparql.eval", i));
        let q_max = idx.map_or(0.0, |i| {
            k.q_errors
                .iter()
                .filter(|(e, _)| *e == i)
                .map(|(_, q)| *q)
                .fold(0.0, f64::max)
        });
        out.push((format!("sparql.eval.busy_s.{}", entry.name), eval));
        out.push((format!("sparql.plan.q_error_max.{}", entry.name), q_max));
    }
    out
}

/// One untraced run of some work and one traced recomposition of it.
#[derive(Debug, Clone, Copy)]
pub struct Pair {
    /// Attributed self times of the traced run ([`attributed_sum`]).
    pub self_sum_s: f64,
    pub untraced_s: f64,
    pub traced_s: f64,
}

/// The faithfulness gate: the attributed self times must sum to the
/// untraced time of the same work within the measured tracing overhead.
/// Both sides are medians over `pairs` of per-pair differences, so a
/// change of host speed between pairs cancels out.
pub fn check_faithful(outcome: &mut crate::Outcome, pairs: &[Pair]) {
    let gaps: Vec<f64> = pairs.iter().map(|p| p.self_sum_s - p.untraced_s).collect();
    let overheads: Vec<f64> = pairs.iter().map(|p| p.traced_s - p.untraced_s).collect();
    let (gap, overhead) = (stats::median(&gaps), stats::median(&overheads));
    outcome.check(gap.abs() <= overhead.abs(), || {
        format!(
            "per-layer self times sum to {gap:+.4} s from the untraced time (median of {} \
             pairs), more than the {overhead:.4} s tracing overhead",
            pairs.len()
        )
    });
}

/// The median of each metric over runs that report the same names in the
/// same order.
pub fn median_metrics(runs: &[Vec<(String, f64)>]) -> Vec<(String, f64)> {
    let Some(first) = runs.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            let values: Vec<f64> = runs.iter().map(|r| r[i].1).collect();
            (name.clone(), stats::median(&values))
        })
        .collect()
}
