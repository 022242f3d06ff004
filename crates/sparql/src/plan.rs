//! Cost-based query planning: selectivity estimation, connectivity-first
//! join ordering, and guided property-path plans.
//!
//! The estimator turns the per-graph [`GraphStats`] (per-predicate triple
//! counts and distinct subject/object counts, cached on the [`Graph`])
//! into per-binding row estimates per triple pattern. Everything that does
//! not depend on which variables are bound (predicate and constant
//! lookups, path fans) is resolved once per BGP evaluation:
//!
//! * plain predicate with a constant endpoint — the triples matching the
//!   constant, counted exactly in the index (spread over the variable
//!   side's distinct values when that side is bound too);
//! * plain predicate, subject bound — the predicate's average *fan-out*
//!   (`count / distinct_subjects`);
//! * plain predicate, object bound — its average *fan-in*
//!   (`count / distinct_objects`);
//! * both endpoints bound variables — one row: the pattern closes a cycle
//!   along an edge the bindings already walked;
//! * nothing bound — the full predicate cardinality;
//! * a predicate or constant endpoint absent from the graph — zero rows
//!   at zero cost, which proves the BGP empty;
//! * complex paths — fans compose structurally (sequences multiply,
//!   alternatives average over their start nodes, closures sum powers of
//!   the inner fan over `log2(terms)` levels, capped at the term count),
//!   evaluated in whichever direction is cheaper.
//!
//! `order_bgp` is the one ordering routine. Each step takes the cheapest
//! pattern *connected* to the variables bound so far, so a disconnected
//! scan never runs as a cross product while a connecting pattern remains;
//! bound-variable propagation turns later patterns into index probes.
//! Property paths additionally carry a [`PathDirection`]: a pattern whose
//! object is the only bound endpoint is walked *backward* over the
//! reversed path, so recursive closures seed from the smaller frontier.
//! The evaluator executes the steps and [`explain_plan`] renders them as
//! an `EXPLAIN`-style [`PhysicalPlan`], so the explained plan is the
//! executed one by construction.

use std::fmt;

use optimatch_rdf::{Graph, GraphStats, IndexChoice, Term, TermId};

use crate::algebra::{Node, Plan, PlanNodePattern, TriplePlan};
use crate::ast::Path;

/// Evaluation-planning switches, threaded from `ScanOptions` down to the
/// BGP evaluator. `optimize: false` is the correctness oracle: source-order
/// evaluation with no direction guidance, bit-identical to the planner-free
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanOptions {
    /// Reorder BGPs by estimated selectivity and guide path directions.
    pub optimize: bool,
}

impl Default for PlanOptions {
    fn default() -> PlanOptions {
        PlanOptions { optimize: true }
    }
}

impl PlanOptions {
    /// The default (optimizing) options.
    pub fn new() -> PlanOptions {
        PlanOptions::default()
    }

    /// Builder-style switch for the optimizer.
    pub fn optimize(mut self, on: bool) -> PlanOptions {
        self.optimize = on;
        self
    }
}

/// Which direction a property-path pattern is evaluated in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathDirection {
    /// From the subject, over the path as written.
    Forward,
    /// From the object, over the reversed path.
    Backward,
}

/// Planner decision counters, recorded during evaluation and aggregated up
/// through matcher → scan outcome → session timings → `/metrics`. All
/// fields are integral so aggregation is deterministic (scan outcomes are
/// compared whole in the chaos harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Triple patterns executed by the planner.
    pub patterns: u64,
    /// Patterns executed out of source position.
    pub reorders: u64,
    /// Summed rounded output-row estimates of the executed steps: each
    /// step's estimated input rows × its per-binding rows, so the sum is
    /// in the same unit as `actual_rows`.
    pub estimated_rows: u64,
    /// Summed rows actually produced by those steps.
    pub actual_rows: u64,
    /// Patterns resolved through the SPO index.
    pub index_spo: u64,
    /// Patterns resolved through the POS index.
    pub index_pos: u64,
    /// Patterns resolved through the OSP index.
    pub index_osp: u64,
    /// Property-path patterns evaluated backward from the object.
    pub backward_paths: u64,
}

impl EvalStats {
    /// Fold another trace into this one (saturating, field-wise).
    pub fn absorb(&mut self, other: &EvalStats) {
        self.patterns = self.patterns.saturating_add(other.patterns);
        self.reorders = self.reorders.saturating_add(other.reorders);
        self.estimated_rows = self.estimated_rows.saturating_add(other.estimated_rows);
        self.actual_rows = self.actual_rows.saturating_add(other.actual_rows);
        self.index_spo = self.index_spo.saturating_add(other.index_spo);
        self.index_pos = self.index_pos.saturating_add(other.index_pos);
        self.index_osp = self.index_osp.saturating_add(other.index_osp);
        self.backward_paths = self.backward_paths.saturating_add(other.backward_paths);
    }

    /// Record one executed step and the rows it actually produced. Steps
    /// planned without statistics (the source-order oracle) carry no
    /// estimate and are not recorded.
    pub(crate) fn record(&mut self, step: &BgpStep, actual_rows: usize) {
        let Some(est) = &step.estimate else {
            return;
        };
        self.patterns += 1;
        if step.reordered {
            self.reorders += 1;
        }
        self.estimated_rows = self
            .estimated_rows
            .saturating_add(step.estimated_rows().round().max(0.0) as u64);
        self.actual_rows = self.actual_rows.saturating_add(actual_rows as u64);
        match est.index {
            Some(IndexChoice::Spo) => self.index_spo += 1,
            Some(IndexChoice::Pos) => self.index_pos += 1,
            Some(IndexChoice::Osp) => self.index_osp += 1,
            None => {}
        }
        if est.index.is_none() && est.direction == PathDirection::Backward {
            self.backward_paths += 1;
        }
    }

    /// True when no decision was ever recorded.
    pub fn is_empty(&self) -> bool {
        *self == EvalStats::default()
    }
}

/// One triple pattern's estimate under the current bound-variable flags.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Estimated result rows per input row.
    pub rows: f64,
    /// Estimated evaluation cost per input row (what the planner
    /// minimizes among the connected patterns).
    pub cost: f64,
    /// The index a plain-predicate scan will use; `None` for compiled
    /// property paths, which navigate via the path engine instead.
    pub index: Option<IndexChoice>,
    /// Chosen evaluation direction (only meaningful for property paths).
    pub direction: PathDirection,
}

/// How a BGP member's predicate resolved against one graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Predicate {
    /// A variable predicate (`?s ?p ?o`), bound per match into this slot.
    Var(usize),
    /// A plain IRI: its graph id, `None` when the graph never mentions it.
    Iri(Option<TermId>),
    /// A complex property path, navigated by the path engine.
    Path,
}

/// The part of a pattern's estimate that does not depend on which
/// variables are bound, resolved once per BGP evaluation.
#[derive(Debug, Clone, Copy)]
enum Cost {
    /// Variable predicate: only the graph size applies.
    AnyPredicate { triples: f64 },
    /// A plain or variable predicate that cannot match: no triple carries
    /// the predicate, or a constant endpoint is not in the graph. The BGP
    /// is empty.
    Absent,
    /// A plain predicate's cardinalities.
    Predicate {
        count: f64,
        subjects: f64,
        objects: f64,
        /// With a constant endpoint: the triples matching it, counted
        /// exactly in the index (skewed values such as a rare join type
        /// are far from the predicate's average fan), and the distinct
        /// values on the variable side they spread over.
        constant: Option<(f64, f64)>,
    },
    /// A complex path's fans and start-node counts in both directions.
    Path(PathShape),
}

impl Cost {
    fn of(graph: &Graph, stats: &GraphStats, tp: &TriplePlan, predicate: Predicate) -> Cost {
        let iri = match predicate {
            Predicate::Path => return Cost::Path(path_shape(graph, stats, &tp.path)),
            Predicate::Var(_) => None,
            Predicate::Iri(id) => Some(id),
        };
        // A constant endpoint outside the graph matches no triple (only
        // the path engine can match one, over a zero-length path).
        let constant = |n: &PlanNodePattern| match n {
            PlanNodePattern::Term(t) => graph.term_id(t).map(Some).ok_or(()),
            PlanNodePattern::Var(_) => Ok(None),
        };
        let (Ok(s), Ok(o)) = (constant(&tp.subject), constant(&tp.object)) else {
            return Cost::Absent;
        };
        let Some(id) = iri else {
            return Cost::AnyPredicate {
                triples: stats.triples as f64,
            };
        };
        let Some((p, ps)) = id.and_then(|p| stats.predicate(p).map(|ps| (p, ps))) else {
            return Cost::Absent;
        };
        let (subjects, objects) = (
            ps.distinct_subjects.max(1) as f64,
            ps.distinct_objects.max(1) as f64,
        );
        let spread = match (s, o) {
            (None, None) => None,
            (Some(_), Some(_)) => Some(1.0),
            (Some(_), None) => Some(objects),
            (None, Some(_)) => Some(subjects),
        };
        Cost::Predicate {
            count: ps.count as f64,
            subjects,
            objects,
            constant: spread.map(|per| (graph.matching_ids(s, Some(p), o).count() as f64, per)),
        }
    }

    /// Price `tp` under the bound-variable flags.
    ///
    /// A pattern whose subject and object are both variables bound by
    /// earlier steps closes a cycle along an edge the bindings already
    /// walked (a stream's back edge, say), so it is estimated to hold
    /// once; the independence estimate `count / (subjects · objects)`
    /// would price such a probe near zero. Its cost keeps the independence
    /// estimate: one probe either way.
    fn price(&self, tp: &TriplePlan, bound: &[bool]) -> Estimate {
        let is_bound = |v: usize| bound.get(v).copied().unwrap_or(false);
        let endpoint = |n: &PlanNodePattern| match n {
            PlanNodePattern::Term(_) => true,
            PlanNodePattern::Var(v) => is_bound(*v),
        };
        let (s_bound, o_bound) = (endpoint(&tp.subject), endpoint(&tp.object));
        let plain = |rows: f64, index| Estimate {
            rows,
            cost: rows + 1.0,
            index: Some(index),
            direction: PathDirection::Forward,
        };
        match *self {
            Cost::AnyPredicate { triples } => {
                let rows = match (s_bound, o_bound) {
                    (true, true) => 1.0,
                    (true, false) | (false, true) => triples.sqrt().max(1.0),
                    (false, false) => triples,
                };
                let p_bound = tp.path_var.is_some_and(is_bound);
                plain(rows, Graph::index_for(s_bound, p_bound, o_bound))
            }
            // Absent predicate: free to run, proves the BGP empty.
            Cost::Absent => Estimate {
                rows: 0.0,
                cost: 0.0,
                index: Some(Graph::index_for(s_bound, true, o_bound)),
                direction: PathDirection::Forward,
            },
            Cost::Predicate {
                count,
                subjects,
                objects,
                constant,
            } => {
                let index = if s_bound {
                    IndexChoice::Spo
                } else {
                    IndexChoice::Pos
                };
                match (constant, s_bound, o_bound) {
                    (Some((matches, per)), true, true) => plain(matches / per, index),
                    (Some((matches, _)), _, _) => plain(matches, index),
                    (None, true, true) => Estimate {
                        rows: 1.0,
                        ..plain(count / (subjects * objects), index)
                    },
                    (None, true, false) => plain(count / subjects, index),
                    (None, false, true) => plain(count / objects, index),
                    (None, false, false) => plain(count, index),
                }
            }
            Cost::Path(PathShape {
                fan_f,
                fan_b,
                src_f,
                src_b,
            }) => {
                let (rows, cost, direction) = match (s_bound, o_bound) {
                    // Reachability check: walk from the smaller frontier.
                    (true, true) => {
                        let dir = if fan_f <= fan_b {
                            PathDirection::Forward
                        } else {
                            PathDirection::Backward
                        };
                        (1.0, fan_f.min(fan_b) + 1.0, dir)
                    }
                    (true, false) => (fan_f, fan_f + 1.0, PathDirection::Forward),
                    (false, true) => (fan_b, fan_b + 1.0, PathDirection::Backward),
                    (false, false) => {
                        let cost_f = src_f * (fan_f + 1.0);
                        let cost_b = src_b * (fan_b + 1.0);
                        let dir = if cost_f <= cost_b {
                            PathDirection::Forward
                        } else {
                            PathDirection::Backward
                        };
                        ((src_f * fan_f).min(src_b * fan_b), cost_f.min(cost_b), dir)
                    }
                };
                Estimate {
                    rows,
                    cost,
                    index: None,
                    direction,
                }
            }
        }
    }
}

/// Resolve a pattern's predicate against the graph (one term lookup for a
/// plain IRI, none otherwise).
fn resolve_predicate(graph: &Graph, tp: &TriplePlan) -> Predicate {
    match (&tp.path_var, &tp.path) {
        (Some(pv), _) => Predicate::Var(*pv),
        (None, Path::Iri(iri)) => Predicate::Iri(graph.term_id(&Term::iri(iri.clone()))),
        (None, _) => Predicate::Path,
    }
}

/// The variable slots a pattern mentions: subject, object, predicate.
fn pattern_vars(tp: &TriplePlan) -> impl Iterator<Item = usize> + '_ {
    let var = |n: &PlanNodePattern| match n {
        PlanNodePattern::Var(v) => Some(*v),
        PlanNodePattern::Term(_) => None,
    };
    [var(&tp.subject), var(&tp.object), tp.path_var]
        .into_iter()
        .flatten()
}

/// Estimate one triple pattern given which variable slots are bound.
pub fn estimate_pattern(
    graph: &Graph,
    stats: &GraphStats,
    tp: &TriplePlan,
    bound: &[bool],
) -> Estimate {
    Cost::of(graph, stats, tp, resolve_predicate(graph, tp)).price(tp, bound)
}

/// How much cheaper a pattern must be estimated than the source-order
/// first pattern to seed a BGP in its place. The seed step has no
/// connectivity to go by, and a scan that looks a little cheaper can start
/// a long walk through the plan before any filter applies (base objects
/// walked up to their consumers, say), so near-ties keep the order the
/// pattern compiler wrote: anchor operator first. Later steps take the
/// cheapest connected pattern outright.
const SEED_REORDER_MARGIN: f64 = 2.0;

/// One step of a BGP's execution order, as [`order_bgp`] decides it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BgpStep {
    /// The pattern's position in the BGP source (0-based).
    pub(crate) source_pos: usize,
    /// The pattern's predicate, resolved against the graph.
    pub(crate) predicate: Predicate,
    /// The pattern's estimate under the bound flags at this step; `None`
    /// when ordering without statistics (the source-order oracle).
    pub(crate) estimate: Option<Estimate>,
    /// Estimated rows entering this step (1 for the first step).
    pub(crate) input_rows: f64,
    /// True when the step runs ahead of an earlier-source pattern.
    pub(crate) reordered: bool,
    /// True when earlier steps bound rows but this pattern shares no bound
    /// variable with them: the step multiplies the rows (a cross product).
    pub(crate) cartesian: bool,
}

impl BgpStep {
    /// Estimated rows this step produces: input rows × per-binding rows.
    pub(crate) fn estimated_rows(&self) -> f64 {
        self.estimate.map_or(0.0, |e| self.input_rows * e.rows)
    }
}

/// The execution order of one BGP, produced lazily one [`BgpStep`] at a
/// time so an evaluation that empties out early stops planning too. The
/// only ordering routine: `eval_bgp` executes its steps and
/// [`explain_plan`] renders them.
#[derive(Debug)]
pub(crate) struct BgpOrder<'p> {
    patterns: &'p [TriplePlan],
    predicates: Vec<Predicate>,
    /// Per-pattern statistics; empty when ordering without statistics.
    costs: Vec<Cost>,
    /// Source positions not yet taken, in source order.
    remaining: Vec<usize>,
    bound: Vec<bool>,
    optimize: bool,
    rows: f64,
    taken: usize,
    /// Reused per step: `(index into remaining, cost)` of each candidate.
    candidates: Vec<(usize, f64)>,
}

/// Order a BGP's patterns, starting from the seed's bound flags.
///
/// With `options.optimize` and statistics, each step takes the cheapest
/// pattern among those *connected* to the bindings so far — sharing a
/// bound subject, object, or predicate variable, or having no variables
/// at all — and falls back to every remaining pattern only when none
/// connects (the first step, or a genuinely cartesian BGP). Ties keep
/// source order, and the seed step keeps it within
/// `SEED_REORDER_MARGIN`. Otherwise the steps follow source order,
/// priced when statistics are given. Decisions depend only on the
/// statistics and the bound flags, never on row contents.
pub(crate) fn order_bgp<'p>(
    graph: &Graph,
    stats: Option<&GraphStats>,
    patterns: &'p [TriplePlan],
    seed_bound: &[bool],
    options: PlanOptions,
) -> BgpOrder<'p> {
    let predicates: Vec<Predicate> = patterns
        .iter()
        .map(|tp| resolve_predicate(graph, tp))
        .collect();
    let costs = match stats {
        Some(stats) => patterns
            .iter()
            .zip(&predicates)
            .map(|(tp, p)| Cost::of(graph, stats, tp, *p))
            .collect(),
        None => Vec::new(),
    };
    BgpOrder {
        patterns,
        predicates,
        costs,
        remaining: (0..patterns.len()).collect(),
        bound: seed_bound.to_vec(),
        optimize: options.optimize,
        rows: 1.0,
        taken: 0,
        candidates: Vec::with_capacity(patterns.len()),
    }
}

impl BgpOrder<'_> {
    fn connects(&self, pos: usize) -> bool {
        let mut vars = pattern_vars(&self.patterns[pos]).peekable();
        vars.peek().is_none() || vars.any(|v| self.bound.get(v).copied().unwrap_or(false))
    }

    fn estimate(&self, pos: usize) -> Option<Estimate> {
        self.costs
            .get(pos)
            .map(|c| c.price(&self.patterns[pos], &self.bound))
    }
}

impl Iterator for BgpOrder<'_> {
    type Item = BgpStep;

    fn next(&mut self) -> Option<BgpStep> {
        if self.remaining.is_empty() {
            return None;
        }
        let pick = if self.optimize && !self.costs.is_empty() {
            let any_connected = self.remaining.iter().any(|&p| self.connects(p));
            self.candidates.clear();
            for (i, &pos) in self.remaining.iter().enumerate() {
                if !any_connected || self.connects(pos) {
                    let cost = self.costs[pos].price(&self.patterns[pos], &self.bound).cost;
                    self.candidates.push((i, cost));
                }
            }
            let margin = if self.taken == 0 {
                SEED_REORDER_MARGIN
            } else {
                1.0
            };
            let cheapest = self
                .candidates
                .iter()
                .map(|&(_, cost)| cost)
                .fold(f64::INFINITY, f64::min);
            self.candidates
                .iter()
                .find(|&&(_, cost)| cost <= cheapest * margin)
                .map_or(0, |&(i, _)| i)
        } else {
            0
        };
        let estimate = self.estimate(self.remaining[pick]);
        let source_pos = self.remaining.remove(pick);
        let cartesian = self.taken > 0 && !self.connects(source_pos);
        let step = BgpStep {
            source_pos,
            predicate: self.predicates[source_pos],
            estimate,
            input_rows: self.rows,
            reordered: pick != 0,
            cartesian,
        };
        if let Some(est) = &estimate {
            self.rows *= est.rows;
        }
        for v in pattern_vars(&self.patterns[source_pos]) {
            self.bound[v] = true;
        }
        self.taken += 1;
        Some(step)
    }
}

/// A complex path's shape in both directions: the average nodes one
/// application reaches from a single start node (`fan_*`), and the
/// candidate start nodes a fully-unbound pattern must visit (`src_*`).
#[derive(Debug, Clone, Copy, PartialEq)]
struct PathShape {
    fan_f: f64,
    fan_b: f64,
    src_f: f64,
    src_b: f64,
}

impl PathShape {
    /// The same shape walked the other way.
    fn reversed(self) -> PathShape {
        PathShape {
            fan_f: self.fan_b,
            fan_b: self.fan_f,
            src_f: self.src_b,
            src_b: self.src_f,
        }
    }
}

/// Compose a path's [`PathShape`] structurally, one term lookup per IRI
/// leaf. Sequences multiply fans and start from their first (forward) or
/// last (backward) step. Alternatives sum their start nodes and average
/// their fans weighted by them, as if no node starts both branches, so a
/// node with a single stream edge is not priced as having one per branch.
/// Closures sum powers of the inner fan over as many levels as a balanced
/// tree of the graph's size is deep (`log2` of its term count), bounded by
/// that term count. Start-node counts are bounded by it too.
fn path_shape(graph: &Graph, stats: &GraphStats, path: &Path) -> PathShape {
    let cap = (stats.terms as f64).max(1.0);
    match path {
        Path::Iri(iri) => match graph
            .term_id(&Term::iri(iri.clone()))
            .and_then(|p| stats.predicate(p))
        {
            Some(ps) => PathShape {
                fan_f: ps.fan_out(),
                fan_b: ps.fan_in(),
                src_f: (ps.distinct_subjects as f64).min(cap),
                src_b: (ps.distinct_objects as f64).min(cap),
            },
            None => PathShape {
                fan_f: 0.0,
                fan_b: 0.0,
                src_f: 0.0,
                src_b: 0.0,
            },
        },
        Path::Var(_) => PathShape {
            fan_f: stats.triples as f64,
            fan_b: stats.triples as f64,
            src_f: cap,
            src_b: cap,
        },
        Path::Inverse(p) => path_shape(graph, stats, p).reversed(),
        Path::Sequence(a, b) => {
            let (a, b) = (path_shape(graph, stats, a), path_shape(graph, stats, b));
            PathShape {
                fan_f: a.fan_f * b.fan_f,
                fan_b: a.fan_b * b.fan_b,
                src_f: a.src_f,
                src_b: b.src_b,
            }
        }
        Path::Alternative(a, b) => {
            let (a, b) = (path_shape(graph, stats, a), path_shape(graph, stats, b));
            let weighted = |fa: f64, sa: f64, fb: f64, sb: f64| {
                if sa + sb == 0.0 {
                    0.0
                } else {
                    (fa * sa + fb * sb) / (sa + sb)
                }
            };
            PathShape {
                fan_f: weighted(a.fan_f, a.src_f, b.fan_f, b.src_f),
                fan_b: weighted(a.fan_b, a.src_b, b.fan_b, b.src_b),
                src_f: (a.src_f + b.src_f).min(cap),
                src_b: (a.src_b + b.src_b).min(cap),
            }
        }
        // Zero-length-capable paths can start anywhere, but the useful
        // (triple-touching) starts are the inner path's.
        Path::ZeroOrOne(p) => {
            let inner = path_shape(graph, stats, p);
            PathShape {
                fan_f: 1.0 + inner.fan_f,
                fan_b: 1.0 + inner.fan_b,
                ..inner
            }
        }
        Path::ZeroOrMore(p) | Path::OneOrMore(p) => {
            let inner = path_shape(graph, stats, p);
            // Averaged over start nodes, a closure reaches as many nodes
            // forward as backward (each reachable pair counts once from
            // each end), so both directions take the lower inner fan:
            // shared leaves such as base objects inflate the fan in one
            // direction only.
            let f = inner.fan_f.min(inner.fan_b);
            let cap = cap.max(2.0);
            let mut total = 0.0;
            let mut power = 1.0;
            for _ in 0..cap.log2().ceil() as usize {
                power *= f;
                total += power;
                if total >= cap {
                    break;
                }
            }
            let reach = total.min(cap)
                + if matches!(path, Path::ZeroOrMore(_)) {
                    1.0
                } else {
                    0.0
                };
            PathShape {
                fan_f: reach,
                fan_b: reach,
                ..inner
            }
        }
    }
}

/// Structural (graph-free) estimate of a recursive path's per-step
/// closure frontier: the branching factor of the widest closure body
/// (alternatives sum, sequences multiply). `0` when the path has no
/// closure operator at all. This is what lint OL104 thresholds on: a
/// plain `p+` chain has frontier 1; the paper's Pattern-B alternative
/// bundle `(outer|inner|input)+` has frontier 3.
pub fn recursive_frontier_estimate(path: &Path) -> u64 {
    fn branching(p: &Path) -> u64 {
        match p {
            Path::Iri(_) | Path::Var(_) => 1,
            Path::Inverse(p) | Path::ZeroOrOne(p) => branching(p),
            Path::Sequence(a, b) => branching(a).saturating_mul(branching(b)),
            Path::Alternative(a, b) => branching(a).saturating_add(branching(b)),
            Path::ZeroOrMore(p) | Path::OneOrMore(p) => branching(p),
        }
    }
    match path {
        Path::Iri(_) | Path::Var(_) => 0,
        Path::Inverse(p) | Path::ZeroOrOne(p) => recursive_frontier_estimate(p),
        Path::Sequence(a, b) | Path::Alternative(a, b) => {
            recursive_frontier_estimate(a).max(recursive_frontier_estimate(b))
        }
        Path::ZeroOrMore(p) | Path::OneOrMore(p) => {
            branching(p).max(recursive_frontier_estimate(p))
        }
    }
}

/// One executed step of a BGP in the physical plan.
#[derive(Debug, Clone)]
pub struct PlanStep {
    /// The pattern's position in the query source (0-based within its BGP).
    pub source_pos: usize,
    /// Rendered `subject path object` pattern text.
    pub pattern: String,
    /// Index chosen for plain-predicate scans.
    pub index: Option<IndexChoice>,
    /// Direction chosen for property-path patterns.
    pub direction: Option<PathDirection>,
    /// Estimated rows the step produces (input rows × per-binding rows).
    pub estimated_rows: f64,
    /// True when the step runs out of source order.
    pub reordered: bool,
    /// True when the step shares no bound variable with the rows before
    /// it (a cross product).
    pub cartesian: bool,
}

/// An explainable physical plan: the evaluator's ordering and direction
/// decisions, replayed without touching any rows.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// Flattened BGP steps in execution order.
    pub steps: Vec<PlanStep>,
    rendered: String,
}

impl PhysicalPlan {
    /// The human-readable `EXPLAIN` rendering.
    pub fn render(&self) -> &str {
        &self.rendered
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.rendered)
    }
}

/// Render a pattern endpoint: `?name` for variables, the term otherwise.
fn render_node(plan: &Plan, n: &PlanNodePattern) -> String {
    match n {
        PlanNodePattern::Var(v) => match plan.vars.get(*v) {
            Some(name) => format!("?{name}"),
            None => format!("?_{v}"),
        },
        PlanNodePattern::Term(t) => t.to_string(),
    }
}

/// Render a property path in SPARQL surface syntax.
fn render_path(path: &Path) -> String {
    match path {
        Path::Iri(iri) => format!("<{iri}>"),
        Path::Var(v) => format!("?{v}"),
        Path::Inverse(p) => format!("^{}", render_operand(p)),
        Path::Sequence(a, b) => format!("{}/{}", render_path(a), render_path(b)),
        Path::Alternative(a, b) => format!("({}|{})", render_path(a), render_path(b)),
        Path::ZeroOrMore(p) => format!("{}*", render_operand(p)),
        Path::OneOrMore(p) => format!("{}+", render_operand(p)),
        Path::ZeroOrOne(p) => format!("{}?", render_operand(p)),
    }
}

/// Render the operand of `^` or a closure: a sequence binds looser than
/// both, so it needs parentheses.
fn render_operand(path: &Path) -> String {
    match path {
        Path::Sequence(..) => format!("({})", render_path(path)),
        _ => render_path(path),
    }
}

/// Explain a compiled query against a graph: render the steps
/// `order_bgp` yields for every BGP — the same routine `eval_bgp`
/// executes — without evaluating any rows.
pub fn explain_plan(graph: &Graph, plan: &Plan, options: PlanOptions) -> PhysicalPlan {
    let stats = graph.stats();
    let mut explainer = Explainer {
        graph,
        stats: &stats,
        plan,
        options,
        // Every BGP is evaluated from the all-unbound top-level seed (each
        // Join branch starts from the seed too).
        seed_bound: vec![false; plan.vars.len()],
        steps: Vec::new(),
        text: String::new(),
    };
    explainer.walk(&plan.root, 0);
    PhysicalPlan {
        steps: explainer.steps,
        rendered: explainer.text,
    }
}

/// The state of one [`explain_plan`] walk over the pattern tree.
struct Explainer<'a> {
    graph: &'a Graph,
    stats: &'a GraphStats,
    plan: &'a Plan,
    options: PlanOptions,
    seed_bound: Vec<bool>,
    steps: Vec<PlanStep>,
    text: String,
}

impl Explainer<'_> {
    fn walk(&mut self, node: &Node, depth: usize) {
        use std::fmt::Write;
        let indent = "  ".repeat(depth);
        let (label, children): (String, Vec<&Node>) = match node {
            Node::Unit => ("unit".into(), vec![]),
            Node::Bgp(patterns) => {
                self.bgp(patterns, &indent);
                return;
            }
            Node::Join(a, b) => ("join".into(), vec![a, b]),
            Node::LeftJoin(a, b) => ("left-join (optional)".into(), vec![a, b]),
            Node::Union(a, b) => ("union".into(), vec![a, b]),
            Node::Filter(_, inner) => ("filter".into(), vec![inner]),
            Node::Extend(inner, slot, _) => (
                format!(
                    "bind ?{}",
                    self.plan.vars.get(*slot).map(String::as_str).unwrap_or("_")
                ),
                vec![inner],
            ),
        };
        let _ = writeln!(self.text, "{indent}{label}");
        for child in children {
            self.walk(child, depth + 1);
        }
    }

    fn bgp(&mut self, patterns: &[TriplePlan], indent: &str) {
        use std::fmt::Write;
        let _ = writeln!(
            self.text,
            "{indent}bgp ({} pattern{}, {})",
            patterns.len(),
            if patterns.len() == 1 { "" } else { "s" },
            if self.options.optimize {
                "greedy order"
            } else {
                "source order"
            },
        );
        let order = order_bgp(
            self.graph,
            Some(self.stats),
            patterns,
            &self.seed_bound,
            self.options,
        );
        for step in order {
            let tp = &patterns[step.source_pos];
            let est = step.estimate.expect("explain prices with statistics");
            let pattern = format!(
                "{} {} {}",
                render_node(self.plan, &tp.subject),
                render_path(&tp.path),
                render_node(self.plan, &tp.object),
            );
            let _ = write!(
                self.text,
                "{indent}  {} {pattern}  est={:.1} (x{:.2})",
                self.steps.len() + 1,
                step.estimated_rows(),
                est.rows
            );
            match est.index {
                Some(ix) => {
                    let _ = write!(self.text, " index={ix:?}");
                }
                None => {
                    let _ = write!(
                        self.text,
                        " path={}",
                        match est.direction {
                            PathDirection::Forward => "forward",
                            PathDirection::Backward => "backward",
                        }
                    );
                }
            }
            if step.reordered {
                let _ = write!(self.text, " (reordered from #{})", step.source_pos + 1);
            }
            if step.cartesian {
                let _ = write!(self.text, " cartesian");
            }
            let _ = writeln!(self.text);
            self.steps.push(PlanStep {
                source_pos: step.source_pos,
                pattern,
                index: est.index,
                direction: est.index.is_none().then_some(est.direction),
                estimated_rows: step.estimated_rows(),
                reordered: step.reordered,
                cartesian: step.cartesian,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::translate;
    use crate::parser::parse;
    use optimatch_rdf::GraphBuilder;

    /// The Figure-1 style plan graph used across the evaluator tests.
    fn fig1_graph() -> Graph {
        let mut g = GraphBuilder::new();
        let pred = |n: &str| Term::iri(format!("http://optimatch/pred#{n}"));
        let pop = |n: u32| Term::iri(format!("http://optimatch/qep#pop{n}"));
        let t = |s: &str| Term::lit_str(s);
        g.insert(pop(2), pred("hasPopType"), t("NLJOIN"));
        g.insert(pop(2), pred("hasEstimateCardinality"), t("1251.0"));
        g.insert(pop(3), pred("hasPopType"), t("FETCH"));
        g.insert(pop(4), pred("hasPopType"), t("IXSCAN"));
        g.insert(pop(5), pred("hasPopType"), t("TBSCAN"));
        g.insert(pop(5), pred("hasEstimateCardinality"), t("4043.0"));
        g.insert(pop(2), pred("hasOuterInputStream"), pop(3));
        g.insert(pop(2), pred("hasInnerInputStream"), pop(5));
        g.insert(pop(3), pred("hasInputStream"), pop(4));
        g.insert(pop(5), pred("hasInputStream"), pop(7));
        g.insert(pop(7), pred("isABaseObj"), Term::lit_str("CUST_DIM"));
        g.freeze()
    }

    const PFX: &str = "PREFIX p: <http://optimatch/pred#>\n";

    fn compiled(q: &str) -> Plan {
        translate(&parse(q).unwrap()).unwrap()
    }

    #[test]
    fn bound_patterns_estimate_cheaper_than_scans() {
        let g = fig1_graph();
        let stats = g.stats();
        let plan = compiled(&format!(
            "{PFX}SELECT ?a WHERE {{ ?a p:hasPopType ?t . ?a p:hasPopType \"NLJOIN\" . }}"
        ));
        let Node::Bgp(tps) = &plan.root else { panic!() };
        let bound = vec![false; plan.vars.len()];
        let scan = estimate_pattern(&g, &stats, &tps[0], &bound);
        let probe = estimate_pattern(&g, &stats, &tps[1], &bound);
        // Object-bound fan-in (≈1) beats the full predicate scan (4 rows).
        assert!(probe.cost < scan.cost, "{probe:?} !< {scan:?}");
        assert_eq!(scan.index, Some(IndexChoice::Pos));
        assert_eq!(probe.index, Some(IndexChoice::Pos));
        assert_eq!(scan.rows, 4.0);
    }

    #[test]
    fn absent_predicate_is_free() {
        let g = fig1_graph();
        let stats = g.stats();
        let plan = compiled(&format!("{PFX}SELECT ?a WHERE {{ ?a p:neverSeen ?b . }}"));
        let Node::Bgp(tps) = &plan.root else { panic!() };
        let est = estimate_pattern(&g, &stats, &tps[0], &vec![false; plan.vars.len()]);
        assert_eq!(est.rows, 0.0);
        assert_eq!(est.cost, 0.0);
    }

    #[test]
    fn path_direction_follows_bound_endpoint() {
        let g = fig1_graph();
        let stats = g.stats();
        // Object is a constant → backward; subject constant → forward.
        let plan = compiled(&format!(
            "{PFX}SELECT ?a WHERE {{ ?a p:hasInputStream+ <http://optimatch/qep#pop7> . }}"
        ));
        let Node::Bgp(tps) = &plan.root else { panic!() };
        let est = estimate_pattern(&g, &stats, &tps[0], &vec![false; plan.vars.len()]);
        assert_eq!(est.direction, PathDirection::Backward);
        assert!(est.index.is_none());

        let plan = compiled(&format!(
            "{PFX}SELECT ?b WHERE {{ <http://optimatch/qep#pop2> p:hasInputStream+ ?b . }}"
        ));
        let Node::Bgp(tps) = &plan.root else { panic!() };
        let est = estimate_pattern(&g, &stats, &tps[0], &vec![false; plan.vars.len()]);
        assert_eq!(est.direction, PathDirection::Forward);
    }

    #[test]
    fn frontier_estimate_reflects_alternative_branching() {
        let one = parse("SELECT ?a WHERE { ?a <p:in>+ ?b . }").unwrap();
        let three = parse("SELECT ?a WHERE { ?a (<p:a>|<p:b>|<p:c>)+ ?b . }").unwrap();
        let flat = parse("SELECT ?a WHERE { ?a (<p:a>|<p:b>) ?b . }").unwrap();
        let path_of = |q: &crate::ast::Query| match &q.where_clause.elements[0] {
            crate::ast::PatternElement::Triple(t) => t.path.clone(),
            _ => panic!(),
        };
        assert_eq!(recursive_frontier_estimate(&path_of(&one)), 1);
        assert_eq!(recursive_frontier_estimate(&path_of(&three)), 3);
        // No closure operator ⇒ no frontier at all.
        assert_eq!(recursive_frontier_estimate(&path_of(&flat)), 0);
    }

    #[test]
    fn explain_reorders_selective_pattern_first() {
        let g = fig1_graph();
        // Source order starts with the expensive recursive path; the
        // planner must run the bound-object probe first instead.
        let plan = compiled(&format!(
            "{PFX}SELECT ?join ?base WHERE {{
                ?join (p:hasOuterInputStream|p:hasInnerInputStream|p:hasInputStream)+ ?d .
                ?join p:hasPopType \"NLJOIN\" .
                ?d p:isABaseObj ?base .
            }}"
        ));
        let physical = explain_plan(&g, &plan, PlanOptions::default());
        assert_eq!(physical.steps.len(), 3);
        assert_ne!(physical.steps[0].source_pos, 0, "{}", physical.render());
        assert!(physical.steps.iter().any(|s| s.reordered));
        // The recursive path runs with a bound subject → forward.
        let path_step = physical
            .steps
            .iter()
            .find(|s| s.index.is_none())
            .expect("path step present");
        assert_eq!(path_step.direction, Some(PathDirection::Forward));
        let text = physical.render();
        assert!(text.contains("bgp (3 patterns, greedy order)"), "{text}");
        assert!(text.contains("reordered"), "{text}");
        assert!(text.contains("index="), "{text}");

        // The oracle mode replays source order and reorders nothing.
        let unopt = explain_plan(&g, &plan, PlanOptions::default().optimize(false));
        assert!(unopt.steps.iter().all(|s| !s.reordered));
        let order: Vec<usize> = unopt.steps.iter().map(|s| s.source_pos).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn connecting_path_runs_before_cheaper_disconnected_scan() {
        let g = fig1_graph();
        // The mqt shape: after the anchor binds ?agg, the base-object scan
        // (one triple) is cheaper than the closure, but it shares no bound
        // variable — running it next would be a cross product.
        let plan = compiled(&format!(
            "{PFX}SELECT ?agg ?base WHERE {{
                ?agg p:hasPopType \"FETCH\" .
                ?j p:isABaseObj ?base .
                ?agg p:hasInputStream+ ?j .
            }}"
        ));
        let Node::Bgp(tps) = &plan.root else { panic!() };
        let stats = g.stats();
        let mut bound = vec![false; plan.vars.len()];
        if let PlanNodePattern::Var(v) = &tps[0].subject {
            bound[*v] = true;
        }
        let scan = estimate_pattern(&g, &stats, &tps[1], &bound);
        let path = estimate_pattern(&g, &stats, &tps[2], &bound);
        assert!(scan.cost < path.cost, "{scan:?} !< {path:?}");

        let physical = explain_plan(&g, &plan, PlanOptions::default());
        let order: Vec<usize> = physical.steps.iter().map(|s| s.source_pos).collect();
        assert_eq!(order, vec![0, 2, 1], "{}", physical.render());
        assert!(physical.steps.iter().all(|s| !s.cartesian));
        assert!(!physical.render().contains("cartesian"));
    }

    #[test]
    fn disconnected_bgp_marks_its_cartesian_step() {
        let g = fig1_graph();
        let plan = compiled(&format!(
            "{PFX}SELECT ?a ?b WHERE {{
                ?a p:hasPopType \"FETCH\" .
                ?b p:isABaseObj ?base .
            }}"
        ));
        for options in [
            PlanOptions::default(),
            PlanOptions::default().optimize(false),
        ] {
            let physical = explain_plan(&g, &plan, options);
            let marks: Vec<bool> = physical.steps.iter().map(|s| s.cartesian).collect();
            assert_eq!(marks, vec![false, true], "{}", physical.render());
            assert!(physical.render().contains(" cartesian"), "{physical}");
        }
    }

    #[test]
    fn constants_are_counted_exactly_and_absent_ones_prove_emptiness() {
        let g = fig1_graph();
        let stats = g.stats();
        let plan = compiled(&format!(
            "{PFX}SELECT ?a WHERE {{
                ?a p:hasPopType \"TBSCAN\" .
                ?a p:hasPopType \"ZZJOIN\" .
                ?a p:hasOuterInputStream ?b .
            }}"
        ));
        let Node::Bgp(tps) = &plan.root else { panic!() };
        let free = vec![false; plan.vars.len()];
        // One TBSCAN in the graph, whatever the average fan-in (4 / 4).
        assert_eq!(estimate_pattern(&g, &stats, &tps[0], &free).rows, 1.0);
        // A constant the graph never mentions: free, and empty.
        let absent = estimate_pattern(&g, &stats, &tps[1], &free);
        assert_eq!((absent.rows, absent.cost), (0.0, 0.0));
        // With ?a bound the constant keeps its share of the subjects.
        let mut a_bound = free.clone();
        a_bound[0] = true;
        assert_eq!(estimate_pattern(&g, &stats, &tps[0], &a_bound).rows, 0.25);
        // The absent constant runs first and the evaluator stops there.
        let physical = explain_plan(&g, &plan, PlanOptions::default());
        assert_eq!(physical.steps[0].source_pos, 1, "{physical}");
    }

    #[test]
    fn closures_render_with_their_sequence_grouped() {
        let plan = compiled(&format!(
            "{PFX}SELECT ?a WHERE {{ ?a (p:hasInputStream/p:hasInputStream)+ ?b . }}"
        ));
        let physical = explain_plan(&fig1_graph(), &plan, PlanOptions::default());
        assert!(
            physical.steps[0].pattern.contains(
                "(<http://optimatch/pred#hasInputStream>/<http://optimatch/pred#hasInputStream>)+"
            ),
            "{physical}"
        );
    }
}
