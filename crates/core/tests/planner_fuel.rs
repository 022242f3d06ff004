//! Planner gates over a generated workload (seed 7, 200 plans), for every
//! builtin and extended knowledge-base entry:
//!
//! * **fuel** — the planner's evaluation steps (`Budget::spent()` summed
//!   over every `find_traced` unit, no pruning) never exceed the
//!   source-order oracle's, and both find the same multiset of matches;
//! * **q-error** — on the builtin KB, each unit's estimated output rows
//!   stay within a bounded factor of the rows its steps actually produced.
//!
//! Fuel is deterministic, so unlike a wall-clock ratio these gates cannot
//! flake on a loaded host.

use std::sync::OnceLock;

use optimatch_core::transform::TransformedQep;
use optimatch_core::{builtin, EvalStats, KnowledgeBaseEntry, Matcher, PatternMatch};
use optimatch_sparql::Budget;
use optimatch_workload::{generate_workload, GeneratorConfig, InjectionConfig, WorkloadConfig};

/// The largest per-unit q-error the builtin KB may show on this workload.
/// Measured maxima: pattern-a 1.15, pattern-b 26.9, pattern-c 3.31,
/// pattern-d 1.00.
const Q_ERROR_BOUND: f64 = 32.0;

fn workload() -> &'static [TransformedQep] {
    static WORKLOAD: OnceLock<Vec<TransformedQep>> = OnceLock::new();
    WORKLOAD.get_or_init(|| {
        generate_workload(&WorkloadConfig {
            seed: 7,
            num_qeps: 200,
            generator: GeneratorConfig::default(),
            injection: InjectionConfig::paper_rates(),
        })
        .qeps
        .into_iter()
        .map(TransformedQep::new)
        .collect()
    })
}

/// Every entry of the extended library (which includes the builtin four).
fn entries() -> Vec<KnowledgeBaseEntry> {
    let entries = builtin::extended_entries();
    assert_eq!(entries.len(), 7, "builtin four + extended three");
    entries
}

/// One unit's result: its matches, the fuel it spent, the planner trace.
fn run(
    matcher: &Matcher,
    t: &TransformedQep,
    optimize: bool,
) -> (Vec<PatternMatch>, u64, EvalStats) {
    let budget = Budget::unlimited();
    let (matches, trace) = matcher
        .find_traced(t, &budget, optimize)
        .unwrap_or_else(|e| panic!("{} on {}: {e}", matcher.pattern().name, t.qep.id));
    (matches, budget.spent(), trace)
}

/// Order-insensitive key for a match list.
fn multiset(matches: &[PatternMatch]) -> Vec<String> {
    let mut keys: Vec<String> = matches.iter().map(|m| format!("{m:?}")).collect();
    keys.sort();
    keys
}

#[test]
fn planner_never_spends_more_fuel_than_source_order() {
    let mut report = Vec::new();
    for entry in entries() {
        let matcher = Matcher::compile(&entry.pattern).expect("builtin patterns compile");
        let (mut planned, mut oracle) = ((Vec::new(), 0u64), (Vec::new(), 0u64));
        for t in workload() {
            let (matches, fuel, _) = run(&matcher, t, true);
            planned.0.extend(matches);
            planned.1 += fuel;
            let (matches, fuel, _) = run(&matcher, t, false);
            oracle.0.extend(matches);
            oracle.1 += fuel;
        }
        assert_eq!(
            multiset(&planned.0),
            multiset(&oracle.0),
            "the planner changed {}'s matches",
            entry.name
        );
        report.push(format!(
            "{}: planner {} vs source order {} ({:.3}x)",
            entry.name,
            planned.1,
            oracle.1,
            planned.1 as f64 / oracle.1 as f64
        ));
        assert!(
            planned.1 <= oracle.1,
            "planner fuel exceeds source order:\n{}",
            report.join("\n")
        );
    }
    println!("{}", report.join("\n"));
}

#[test]
fn builtin_q_error_is_bounded() {
    for entry in builtin::paper_entries() {
        let matcher = Matcher::compile(&entry.pattern).expect("builtin patterns compile");
        let mut worst = (1.0f64, String::new());
        for t in workload() {
            let (_, _, trace) = run(&matcher, t, true);
            assert!(trace.patterns > 0, "{} on {}", entry.name, t.qep.id);
            let (est, act) = (
                trace.estimated_rows.max(1) as f64,
                trace.actual_rows.max(1) as f64,
            );
            let q = (est / act).max(act / est);
            if q > worst.0 {
                worst = (q, t.qep.id.clone());
            }
        }
        println!("{}: max q-error {:.2} on {}", entry.name, worst.0, worst.1);
        assert!(
            worst.0 <= Q_ERROR_BOUND,
            "{}: q-error {:.2} on {} exceeds {Q_ERROR_BOUND}",
            entry.name,
            worst.0,
            worst.1
        );
    }
}
