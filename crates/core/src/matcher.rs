//! Algorithm 3: finding matches.
//!
//! A [`Matcher`] holds a pattern compiled to SPARQL, parsed and translated
//! to an algebra plan once — the workload loop re-executes that plan
//! against every QEP's graph. Matched solutions are **de-transformed**:
//! RDF resources are mapped back to plan context — operator numbers with
//! their types, and base objects by name — which is what the paper's step
//! "relates any matched portions of RDF structure back to corresponding
//! query plan" produces.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use optimatch_rdf::Term;
use optimatch_sparql::algebra::{self, Plan};
use optimatch_sparql::{eval, parse_query, plan, Budget, EvalStats, PhysicalPlan, PlanOptions};

use crate::compile::compile_pattern;
use crate::error::Error;
use crate::features::{PruneStats, RequiredFeatures};
use crate::kb::{run_contained, ScanIncident, ScanOptions};
use crate::pattern::Pattern;
use crate::transform::TransformedQep;
use crate::vocab;

/// What a result handler bound to, in plan terms.
#[derive(Debug, Clone, PartialEq)]
pub enum MatchTarget {
    /// A plan operator.
    Pop {
        /// Operator number.
        id: u32,
        /// Operator mnemonic (with modifier prefix, e.g. `>HSJOIN`).
        display: String,
    },
    /// A base object by qualified name.
    Object(String),
    /// A plain value (rare: patterns projecting literals).
    Value(String),
}

impl MatchTarget {
    /// Short human-readable form used in reports and tagging.
    pub fn display(&self) -> String {
        match self {
            MatchTarget::Pop { id, display } => format!("{display} (#{id})"),
            MatchTarget::Object(name) => name.clone(),
            MatchTarget::Value(v) => v.clone(),
        }
    }

    /// The operator number, when the target is an operator.
    pub fn pop_id(&self) -> Option<u32> {
        match self {
            MatchTarget::Pop { id, .. } => Some(*id),
            _ => None,
        }
    }
}

/// One projected column of one match.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchBinding {
    /// The projection name (the alias, or `popN`).
    pub name: String,
    /// The de-transformed target.
    pub target: MatchTarget,
}

/// One occurrence of a pattern in one QEP.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternMatch {
    /// The QEP's id.
    pub qep_id: String,
    /// Bindings in projection order.
    pub bindings: Vec<MatchBinding>,
}

impl PatternMatch {
    /// Look up a binding by name (alias).
    pub fn binding(&self, name: &str) -> Option<&MatchTarget> {
        self.bindings
            .iter()
            .find(|b| b.name == name)
            .map(|b| &b.target)
    }

    /// The first operator binding (the pattern's anchor) — used for
    /// ranking features.
    pub fn anchor_pop(&self) -> Option<u32> {
        self.bindings.iter().find_map(|b| b.target.pop_id())
    }
}

/// A pattern compiled, parsed, and translated, ready to run across a
/// workload.
#[derive(Debug, Clone)]
pub struct Matcher {
    pattern: Pattern,
    sparql: String,
    plan: Plan,
    required: RequiredFeatures,
}

impl Matcher {
    /// Compile a pattern (Algorithm 2), parse the generated SPARQL,
    /// translate it to the algebra plan every unit evaluates, and derive
    /// the required-features set used for workload pruning.
    pub fn compile(pattern: &Pattern) -> Result<Matcher, Error> {
        let sparql = compile_pattern(pattern)?;
        let query = parse_query(&sparql)?;
        let required = RequiredFeatures::of_query(&query);
        Ok(Matcher {
            pattern: pattern.clone(),
            sparql,
            plan: algebra::translate(&query)?,
            required,
        })
    }

    /// The source pattern.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// The generated SPARQL text (the paper's Figure 6 equivalent).
    pub fn sparql(&self) -> &str {
        &self.sparql
    }

    /// The conservative feature set a graph must exhibit to match.
    pub fn required_features(&self) -> &RequiredFeatures {
        &self.required
    }

    /// Cheap pre-check: `false` proves [`Matcher::find`] would return no
    /// matches for this QEP; `true` means the evaluator must decide.
    pub fn could_match(&self, t: &TransformedQep) -> bool {
        self.required.satisfied_by(&t.summary, &t.graph)
    }

    /// Match against one transformed QEP, de-transforming solutions.
    pub fn find(&self, t: &TransformedQep) -> Result<Vec<PatternMatch>, Error> {
        self.find_budgeted(t, &Budget::unlimited())
    }

    /// [`Matcher::find`] under an explicit evaluation [`Budget`]: results
    /// are identical while the budget holds; exhaustion surfaces as
    /// `Error::Sparql(SparqlError::BudgetExceeded)`. This is the unit the
    /// scan pipeline wraps in its containment boundary.
    pub fn find_budgeted(
        &self,
        t: &TransformedQep,
        budget: &Budget,
    ) -> Result<Vec<PatternMatch>, Error> {
        self.find_traced(t, budget, true)
            .map(|(matches, _)| matches)
    }

    /// [`Matcher::find_budgeted`] with explicit planner control, returning
    /// the planner's decision trace alongside the matches. `optimize =
    /// false` is the correctness oracle: source-order evaluation, empty
    /// trace.
    pub fn find_traced(
        &self,
        t: &TransformedQep,
        budget: &Budget,
        optimize: bool,
    ) -> Result<(Vec<PatternMatch>, EvalStats), Error> {
        crate::chaos::trip(&self.pattern.name)?;
        let (table, planner) = eval::evaluate_traced(
            &t.graph,
            &self.plan,
            PlanOptions::default().optimize(optimize),
            budget,
        )?;
        let mut out = Vec::with_capacity(table.len());
        for row in 0..table.len() {
            let mut bindings = Vec::with_capacity(table.vars().len());
            for var in table.vars() {
                let Some(term) = table.get(row, var) else {
                    continue;
                };
                bindings.push(MatchBinding {
                    name: var.clone(),
                    target: detransform(term, t),
                });
            }
            out.push(PatternMatch {
                qep_id: t.qep.id.clone(),
                bindings,
            });
        }
        Ok((out, planner))
    }

    /// The planner's physical plan for this pattern against one QEP's
    /// graph, without evaluating any rows — what `optimatch explain`
    /// renders. It is the order evaluation executes: both come from the
    /// same ordering routine.
    pub fn explain(&self, t: &TransformedQep, options: PlanOptions) -> Result<PhysicalPlan, Error> {
        Ok(plan::explain_plan(&t.graph, &self.plan, options))
    }

    /// Match across a workload, concatenating per-QEP matches
    /// (the loop of Algorithm 3). Prunes via the feature index.
    pub fn find_in_workload(
        &self,
        workload: &[TransformedQep],
    ) -> Result<Vec<PatternMatch>, Error> {
        self.find_in_workload_with(workload, true, &mut PruneStats::default())
    }

    /// [`Matcher::find_in_workload`] with explicit pruning control and
    /// counters: graphs missing a required feature are skipped without
    /// touching the SPARQL evaluator when `prune` is set.
    pub fn find_in_workload_with(
        &self,
        workload: &[TransformedQep],
        prune: bool,
        stats: &mut PruneStats,
    ) -> Result<Vec<PatternMatch>, Error> {
        let mut out = Vec::new();
        for t in workload {
            stats.candidates += 1;
            if prune && !self.could_match(t) {
                stats.pruned += 1;
                continue;
            }
            stats.evaluated += 1;
            let matches = self.find(t)?;
            if !matches.is_empty() {
                stats.matched += 1;
            }
            out.extend(matches);
        }
        Ok(out)
    }

    /// The QEP ids with at least one match — the granularity of the
    /// paper's workload experiments ("N QEP files match the pattern").
    /// Prunes via the feature index.
    pub fn matching_qep_ids(&self, workload: &[TransformedQep]) -> Result<Vec<String>, Error> {
        self.matching_qep_ids_with(workload, true, &mut PruneStats::default())
    }

    /// [`Matcher::matching_qep_ids`] with explicit pruning control and
    /// counters.
    pub fn matching_qep_ids_with(
        &self,
        workload: &[TransformedQep],
        prune: bool,
        stats: &mut PruneStats,
    ) -> Result<Vec<String>, Error> {
        let mut ids = Vec::new();
        for t in workload {
            stats.candidates += 1;
            if prune && !self.could_match(t) {
                stats.pruned += 1;
                continue;
            }
            stats.evaluated += 1;
            if !self.find(t)?.is_empty() {
                stats.matched += 1;
                ids.push(t.qep.id.clone());
            }
        }
        Ok(ids)
    }

    /// [`Matcher::find_in_workload_with`] under the scan containment
    /// boundary: each per-QEP unit is budgeted (`options.fuel` /
    /// `options.deadline`) and panic-contained. Failing units are
    /// recorded as incidents — or abort the search when
    /// `options.fail_fast` is set. `options.threads` is ignored (ad-hoc
    /// searches run one pattern, sequentially).
    pub fn search_workload(
        &self,
        workload: &[TransformedQep],
        options: &ScanOptions,
    ) -> Result<SearchOutcome, Error> {
        let mut out = SearchOutcome::default();
        for t in workload {
            out.stats.candidates += 1;
            if options.prune && !self.could_match(t) {
                out.stats.pruned += 1;
                continue;
            }
            out.stats.evaluated += 1;
            match run_contained(self, &self.pattern.name, t, options) {
                Ok((matches, fuel, trace)) => {
                    if !matches.is_empty() {
                        out.stats.matched += 1;
                    }
                    out.fuel_spent = out.fuel_spent.saturating_add(fuel);
                    out.planner.absorb(&trace);
                    out.matches.extend(matches);
                }
                Err(incident) => {
                    if options.fail_fast {
                        return Err(Error::Incident(Box::new(incident)));
                    }
                    out.fuel_spent = out.fuel_spent.saturating_add(incident.fuel_spent);
                    out.incidents.push(incident);
                }
            }
        }
        Ok(out)
    }
}

/// What [`Matcher::search_workload`] produced: concatenated matches, the
/// pruning counters, and any contained unit failures.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchOutcome {
    /// Matches across the workload, in workload order.
    pub matches: Vec<PatternMatch>,
    /// What the feature index did.
    pub stats: PruneStats,
    /// Contained unit failures, in workload order.
    pub incidents: Vec<ScanIncident>,
    /// Total evaluation steps across every unit (successful and failed);
    /// deterministic for a given workload, pattern, and budget.
    pub fuel_spent: u64,
    /// Aggregated query-planner decision counters across every unit;
    /// all-zero when the search ran with `optimize` off.
    pub planner: EvalStats,
}

/// A concurrency-safe cache of compiled matchers, keyed by pattern
/// *structure* (the `pops`, serialized) — renaming a pattern does not
/// defeat the cache, since only the pops determine the generated SPARQL.
/// Used by [`crate::kb::KnowledgeBase`] so repeated `add`s of structurally
/// identical patterns (and ad-hoc session searches) skip Algorithm 2 and
/// the SPARQL parser entirely.
#[derive(Debug, Default)]
pub struct MatcherCache {
    inner: Mutex<HashMap<String, Arc<Matcher>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl MatcherCache {
    /// An empty cache.
    pub fn new() -> MatcherCache {
        MatcherCache::default()
    }

    fn key(pattern: &Pattern) -> String {
        serde_json::to_string(&pattern.pops).expect("pattern pops serialize")
    }

    /// The cached matcher for a structurally identical pattern, or compile
    /// and cache it. Compilation happens outside the lock, so a slow
    /// compile never blocks concurrent readers. The lock recovers from
    /// poisoning — the map is only ever inserted into, so a panicking
    /// holder cannot leave it half-updated.
    pub fn get_or_compile(&self, pattern: &Pattern) -> Result<Arc<Matcher>, Error> {
        let key = MatcherCache::key(pattern);
        if let Some(hit) = self
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            // relaxed: hit/miss tallies are independent monotonic
            // statistics; nothing is ordered against them and readers
            // tolerate cross-counter skew.
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(hit));
        }
        // relaxed: see `hits` above.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let compiled = Arc::new(Matcher::compile(pattern)?);
        let mut map = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        Ok(Arc::clone(map.entry(key).or_insert(compiled)))
    }

    /// Number of distinct compiled matchers held.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True when nothing has been compiled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits so far.
    pub fn hits(&self) -> usize {
        // relaxed: statistics snapshot; staleness is acceptable.
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (compilations) so far.
    pub fn misses(&self) -> usize {
        // relaxed: statistics snapshot; staleness is acceptable.
        self.misses.load(Ordering::Relaxed)
    }
}

/// Map an RDF term back into plan context.
fn detransform(term: &Term, t: &TransformedQep) -> MatchTarget {
    match term {
        Term::Iri(iri) => {
            if let Some(id) = vocab::iri_to_pop_id(iri) {
                let display = t
                    .qep
                    .op(id)
                    .map(|op| op.display_name())
                    .unwrap_or_else(|| "?".to_string());
                return MatchTarget::Pop { id, display };
            }
            if vocab::is_object_iri(iri) {
                // Recover the qualified name by matching known objects.
                for name in t.qep.base_objects.keys() {
                    if vocab::object_iri(name) == *iri {
                        return MatchTarget::Object(name.clone());
                    }
                }
            }
            MatchTarget::Value(iri.clone())
        }
        other => MatchTarget::Value(other.display_text().into_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin;
    use optimatch_qep::fixtures;

    fn workload() -> Vec<TransformedQep> {
        [fixtures::fig1(), fixtures::fig7(), fixtures::fig8()]
            .into_iter()
            .map(TransformedQep::new)
            .collect()
    }

    #[test]
    fn pattern_a_matches_figure1_only() {
        let m = Matcher::compile(&builtin::pattern_a().pattern).unwrap();
        let w = workload();
        let ids = m.matching_qep_ids(&w).unwrap();
        assert_eq!(ids, vec!["fig1"]);

        let matches = m.find(&w[0]).unwrap();
        assert_eq!(matches.len(), 1);
        let top = matches[0].binding("TOP").unwrap();
        assert_eq!(top.pop_id(), Some(2));
        let base = matches[0].binding("BASE4").unwrap();
        assert_eq!(base, &MatchTarget::Object("BIGD.CUST_DIM".into()));
    }

    #[test]
    fn pattern_b_matches_figure7_through_temp_chain() {
        let m = Matcher::compile(&builtin::pattern_b().pattern).unwrap();
        let w = workload();
        let ids = m.matching_qep_ids(&w).unwrap();
        assert_eq!(ids, vec!["fig7"]);
        // The match anchors at the top NLJOIN(5); the inner-side LOJ is
        // three levels down — only reachable recursively.
        let matches = m.find(&w[1]).unwrap();
        assert!(matches
            .iter()
            .any(|mm| mm.binding("TOP").and_then(|t| t.pop_id()) == Some(5)));
    }

    #[test]
    fn pattern_c_matches_figures7_and_8() {
        // Both contain an IXSCAN with collapsed cardinality over a huge
        // object (fig7 reuses the fig8 scan as its LOJ inner).
        let m = Matcher::compile(&builtin::pattern_c().pattern).unwrap();
        let ids = m.matching_qep_ids(&workload()).unwrap();
        assert!(ids.contains(&"fig8".to_string()));
    }

    #[test]
    fn pattern_d_matches_nothing_in_fixtures() {
        let m = Matcher::compile(&builtin::pattern_d().pattern).unwrap();
        assert!(m.matching_qep_ids(&workload()).unwrap().is_empty());
    }

    #[test]
    fn detransform_names_operators_with_modifiers() {
        let m = Matcher::compile(&builtin::pattern_b().pattern).unwrap();
        let w = workload();
        let matches = m.find(&w[1]).unwrap();
        let any_loj = matches.iter().any(|mm| {
            mm.bindings
                .iter()
                .any(|b| b.target.display().starts_with('>'))
        });
        assert!(any_loj, "expected a >JOIN binding in {matches:?}");
    }

    #[test]
    fn optional_properties_report_when_present() {
        use crate::pattern::{Pattern, PatternPop};
        // Report the MAXPAGES argument of TBSCANs when present.
        let p = Pattern::new("opt", "").with_pop(
            PatternPop::new(1, "TBSCAN")
                .alias("SCAN")
                .optional_prop("hasArgMAXPAGES", "MAXPAGES"),
        );
        let m = Matcher::compile(&p).unwrap();
        let w = workload();
        // fig1's TBSCAN(5) carries MAXPAGES=ALL.
        let hits = m.find(&w[0]).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(
            hits[0].binding("MAXPAGES"),
            Some(&MatchTarget::Value("ALL".into()))
        );
        // fig7's TBSCANs have no arguments: still matched, alias unbound.
        let hits = m.find(&w[1]).unwrap();
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|h| h.binding("MAXPAGES").is_none()));
    }

    #[test]
    fn find_in_workload_concatenates() {
        let m = Matcher::compile(&builtin::pattern_c().pattern).unwrap();
        let w = workload();
        let all = m.find_in_workload(&w).unwrap();
        let per_qep: usize = w.iter().map(|t| m.find(t).unwrap().len()).sum();
        assert_eq!(all.len(), per_qep);
    }

    #[test]
    fn pruning_skips_graphs_without_required_op_type() {
        // Pattern D requires a SORT; no fixture plan has one, so with
        // pruning on, the evaluator never runs at all.
        let m = Matcher::compile(&builtin::pattern_d().pattern).unwrap();
        let w = workload();
        let mut stats = crate::features::PruneStats::default();
        let pruned = m.find_in_workload_with(&w, true, &mut stats).unwrap();
        assert!(pruned.is_empty());
        assert_eq!(stats.candidates, w.len());
        assert_eq!(stats.pruned, w.len());
        assert_eq!(stats.evaluated, 0);

        let mut stats = crate::features::PruneStats::default();
        let unpruned = m.find_in_workload_with(&w, false, &mut stats).unwrap();
        assert_eq!(pruned, unpruned);
        assert_eq!(stats.pruned, 0);
        assert_eq!(stats.evaluated, w.len());
    }

    #[test]
    fn pruned_results_equal_unpruned_on_fixtures() {
        let w = workload();
        for entry in crate::builtin::paper_entries() {
            let m = Matcher::compile(&entry.pattern).unwrap();
            let mut stats = crate::features::PruneStats::default();
            let with = m.find_in_workload_with(&w, true, &mut stats).unwrap();
            let without = m
                .find_in_workload_with(&w, false, &mut crate::features::PruneStats::default())
                .unwrap();
            assert_eq!(with, without, "pattern {}", entry.pattern.name);
            let ids_with = m
                .matching_qep_ids_with(&w, true, &mut crate::features::PruneStats::default())
                .unwrap();
            let ids_without = m
                .matching_qep_ids_with(&w, false, &mut crate::features::PruneStats::default())
                .unwrap();
            assert_eq!(ids_with, ids_without, "pattern {}", entry.pattern.name);
        }
    }

    #[test]
    fn matcher_cache_dedupes_structurally_equal_patterns() {
        let cache = MatcherCache::new();
        let a = builtin::pattern_a().pattern;
        let mut renamed = a.clone();
        renamed.name = "something-else".into();
        let m1 = cache.get_or_compile(&a).unwrap();
        let m2 = cache.get_or_compile(&renamed).unwrap();
        assert!(Arc::ptr_eq(&m1, &m2), "rename must not defeat the cache");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);

        let b = builtin::pattern_b().pattern;
        let m3 = cache.get_or_compile(&b).unwrap();
        assert!(!Arc::ptr_eq(&m1, &m3));
        assert_eq!(cache.len(), 2);
    }
}
