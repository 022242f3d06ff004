//! Planner equivalence over the real knowledge base: every builtin
//! pattern — the paper's four plus the extended entries — matched against
//! every QEP fixture must produce the same multiset of matches whether
//! the query planner is on (connectivity-first cheapest order) or off
//! (source order, the correctness oracle). The oracle run must also leave
//! an empty planner trace, which is what keeps deterministic
//! whole-outcome comparisons (chaos, crash-sim) meaningful.

use optimatch_core::transform::TransformedQep;
use optimatch_core::{builtin, Matcher, PatternMatch};
use optimatch_qep::fixtures;
use optimatch_sparql::Budget;

/// Order-insensitive key for a match list: matches are compared as
/// multisets because the planner is free to change row order.
fn multiset(matches: &[PatternMatch]) -> Vec<String> {
    let mut keys: Vec<String> = matches.iter().map(|m| format!("{m:?}")).collect();
    keys.sort();
    keys
}

#[test]
fn every_builtin_pattern_is_planner_invariant_on_every_fixture() {
    let entries: Vec<_> = builtin::paper_entries()
        .into_iter()
        .chain(builtin::extended_entries())
        .collect();
    assert!(entries.len() >= 7, "expected paper + extended entries");
    let workload: Vec<TransformedQep> = [
        fixtures::fig1(),
        fixtures::fig1_sort_spill(),
        fixtures::fig7(),
        fixtures::fig8(),
    ]
    .into_iter()
    .map(TransformedQep::new)
    .collect();

    let mut fired = 0usize;
    let mut reorders = 0u64;
    for entry in &entries {
        let matcher = Matcher::compile(&entry.pattern).expect("builtin patterns compile");
        for t in &workload {
            let (optimized, trace) = matcher
                .find_traced(t, &Budget::unlimited(), true)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", entry.name, t.qep.id));
            let (oracle, oracle_trace) = matcher
                .find_traced(t, &Budget::unlimited(), false)
                .unwrap_or_else(|e| panic!("{} oracle on {}: {e}", entry.name, t.qep.id));
            assert_eq!(
                multiset(&optimized),
                multiset(&oracle),
                "planner changed the matches for {} on {}",
                entry.name,
                t.qep.id
            );
            assert!(
                oracle_trace.is_empty(),
                "oracle run must not trace planner work ({} on {}: {oracle_trace:?})",
                entry.name,
                t.qep.id
            );
            assert!(
                trace.patterns > 0,
                "optimized run must estimate at least one pattern ({})",
                entry.name
            );
            fired += optimized.len();
            reorders += trace.reorders;
        }
    }
    // The sweep is not vacuous: builtin patterns fire on the fixtures and
    // the planner exercises its reordering path at least once.
    assert!(fired > 0, "no builtin pattern fired on any fixture");
    assert!(
        reorders > 0,
        "the planner never reordered — sweep is vacuous"
    );
}
