//! The in-memory triple store.
//!
//! Graphs are built once and then only read, so the store has two halves.
//! A [`GraphBuilder`] interns terms and appends id triples to a plain
//! vector; [`GraphBuilder::freeze`] sorts that vector into three flat
//! permutations — SPO, POS and OSP — and returns a read-only [`Graph`].
//! Any triple pattern with at least one bound position then resolves to a
//! contiguous slice of one permutation, found by binary search. This is
//! the indexing discipline of RDF stores like Jena TDB and of read-only
//! snapshot stores generally, scaled down to the per-QEP graphs OptImatch
//! works with (hundreds to a few thousand triples each).

use std::sync::{Arc, OnceLock};

use crate::pool::{TermId, TermPool};
use crate::term::Term;

/// A triple of interned term ids `[subject, predicate, object]`.
pub type IdTriple = [TermId; 3];

/// A resolved triple of owned terms.
pub type Triple = (Term, Term, Term);

/// Which index a pattern scan will use; exposed so the SPARQL layer's
/// selectivity heuristics (and the ablation benches) can reason about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexChoice {
    /// Subject-Predicate-Object index.
    Spo,
    /// Predicate-Object-Subject index.
    Pos,
    /// Object-Subject-Predicate index.
    Osp,
}

impl IndexChoice {
    /// Rotate an entry of this index back into `[s, p, o]` order.
    fn to_spo(self, t: IdTriple) -> IdTriple {
        match self {
            IndexChoice::Spo => t,
            IndexChoice::Pos => [t[2], t[0], t[1]],
            IndexChoice::Osp => [t[1], t[2], t[0]],
        }
    }
}

/// Per-predicate cardinality statistics — the selectivity signals the
/// SPARQL planner turns into row estimates. `count / distinct_subjects`
/// is the average fan-out of the predicate (objects per bound subject);
/// `count / distinct_objects` is the average fan-in (subjects per bound
/// object).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredicateStats {
    /// The predicate's interned id.
    pub predicate: TermId,
    /// Total triples carrying this predicate.
    pub count: usize,
    /// Distinct subjects among those triples (≥ 1 when `count` ≥ 1).
    pub distinct_subjects: usize,
    /// Distinct objects among those triples (≥ 1 when `count` ≥ 1).
    pub distinct_objects: usize,
}

impl PredicateStats {
    /// Average objects reached per bound subject (`count / distinct_subjects`).
    pub fn fan_out(&self) -> f64 {
        self.count as f64 / (self.distinct_subjects.max(1)) as f64
    }

    /// Average subjects reached per bound object (`count / distinct_objects`).
    pub fn fan_in(&self) -> f64 {
        self.count as f64 / (self.distinct_objects.max(1)) as f64
    }
}

/// Whole-graph statistics: computed once per graph (two index walks) and
/// cached, so the planner's per-pattern estimates are O(log P) probes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Total triples in the graph.
    pub triples: usize,
    /// Total interned terms (nodes *and* predicates *and* literals).
    pub terms: usize,
    /// Per-predicate statistics, sorted by predicate id.
    pub predicates: Vec<PredicateStats>,
}

impl GraphStats {
    /// Look up one predicate's statistics (binary search by id).
    pub fn predicate(&self, p: TermId) -> Option<&PredicateStats> {
        self.predicates
            .binary_search_by_key(&p, |ps| ps.predicate)
            .ok()
            .map(|i| &self.predicates[i])
    }

    /// Total triples carrying predicate `p` (0 when absent).
    pub fn predicate_count(&self, p: TermId) -> usize {
        self.predicate(p).map_or(0, |ps| ps.count)
    }
}

/// Compute [`GraphStats`] from the indexes: one POS walk yields per-
/// predicate counts and distinct objects (objects are sorted within a
/// predicate, so transitions count them); one SPO walk yields distinct
/// subjects (predicates are sorted within a subject, so each new `(s, p)`
/// pair is one distinct subject for `p`).
fn compute_stats(spo: &[IdTriple], pos: &[IdTriple], terms: usize) -> GraphStats {
    let mut predicates: Vec<PredicateStats> = Vec::new();
    let mut last: Option<[TermId; 2]> = None;
    for &[p, o, _] in pos {
        match predicates.last_mut() {
            Some(ps) if ps.predicate == p => {
                ps.count += 1;
                if last != Some([p, o]) {
                    ps.distinct_objects += 1;
                }
            }
            _ => predicates.push(PredicateStats {
                predicate: p,
                count: 1,
                distinct_subjects: 0,
                distinct_objects: 1,
            }),
        }
        last = Some([p, o]);
    }
    let mut last_sp: Option<[TermId; 2]> = None;
    for &[s, p, _] in spo {
        if last_sp != Some([s, p]) {
            if let Ok(i) = predicates.binary_search_by_key(&p, |ps| ps.predicate) {
                predicates[i].distinct_subjects += 1;
            }
        }
        last_sp = Some([s, p]);
    }
    GraphStats {
        triples: spo.len(),
        terms,
        predicates,
    }
}

/// Bulk-build one index: permute every triple, sort, drop duplicates. When
/// all ids fit in 21 bits (they always do for per-QEP graphs, whose pools
/// hold a few thousand terms), the three ids pack into one `u64` so the
/// sort compares a single word per element instead of three.
fn build_index(
    triples: &[IdTriple],
    limit: u32,
    perm: impl Fn(&IdTriple) -> IdTriple,
) -> Box<[IdTriple]> {
    const PACK_BITS: u32 = 21;
    const PACK_MASK: u64 = (1 << PACK_BITS) - 1;
    if u64::from(limit) <= 1 << PACK_BITS {
        let mut keys: Vec<u64> = triples
            .iter()
            .map(|t| {
                let [a, b, c] = perm(t);
                (u64::from(a.0) << (2 * PACK_BITS)) | (u64::from(b.0) << PACK_BITS) | u64::from(c.0)
            })
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys.into_iter()
            .map(|k| {
                [
                    TermId((k >> (2 * PACK_BITS)) as u32),
                    TermId(((k >> PACK_BITS) & PACK_MASK) as u32),
                    TermId((k & PACK_MASK) as u32),
                ]
            })
            .collect()
    } else {
        let mut v: Vec<IdTriple> = triples.iter().map(perm).collect();
        v.sort_unstable();
        v.dedup();
        v.into_boxed_slice()
    }
}

/// True when `triples` is strictly increasing — already a valid SPO index.
fn is_spo_sorted(triples: &[IdTriple]) -> bool {
    triples.windows(2).all(|w| w[0] < w[1])
}

/// Accumulates the terms and triples of a graph under construction.
///
/// Inserting is an intern plus a vector push: duplicates are kept until
/// [`GraphBuilder::freeze`] sorts and deduplicates them once, in bulk.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    pool: TermPool,
    triples: Vec<IdTriple>,
    next_bnode: u64,
}

impl GraphBuilder {
    /// Start an empty graph.
    pub fn new() -> GraphBuilder {
        GraphBuilder::default()
    }

    /// Intern a term in the graph's pool without asserting any triple.
    /// Ids are dense and assigned in first-use order.
    pub fn intern(&mut self, term: Term) -> TermId {
        self.pool.intern(term)
    }

    /// Assert a triple of terms, interning subject, predicate and object
    /// in that order.
    pub fn insert(&mut self, s: Term, p: Term, o: Term) {
        let s = self.pool.intern(s);
        let p = self.pool.intern(p);
        let o = self.pool.intern(o);
        self.triples.push([s, p, o]);
    }

    /// Assert a triple of ids returned by [`GraphBuilder::intern`].
    pub fn insert_ids(&mut self, t: IdTriple) {
        assert!(
            t.iter().all(|id| (id.0 as usize) < self.pool.len()),
            "id triple {t:?} outside the pool"
        );
        self.triples.push(t);
    }

    /// Mint a fresh blank node unique within this graph.
    pub fn fresh_bnode(&mut self, hint: &str) -> Term {
        let n = self.next_bnode;
        self.next_bnode += 1;
        Term::bnode(format!("{hint}{n}"))
    }

    /// Sort the asserted triples into the three read-only indexes,
    /// dropping duplicates.
    pub fn freeze(self) -> Graph {
        let spo = build_index(&self.triples, self.pool.len() as u32, |&t| t);
        Graph::assemble(self.pool, spo, self.next_bnode)
    }
}

/// The immutable body of a [`Graph`], shared by all of its clones.
#[derive(Debug)]
struct Frozen {
    pool: TermPool,
    spo: Box<[IdTriple]>,
    pos: Box<[IdTriple]>,
    osp: Box<[IdTriple]>,
    next_bnode: u64,
    // Computed on first use. An `Arc` so the planner can hold the
    // snapshot without borrowing the graph.
    stats: OnceLock<Arc<GraphStats>>,
}

/// A read-only RDF graph: a term pool plus SPO/POS/OSP permutations of its
/// triples held as flat sorted arrays.
///
/// Built by [`GraphBuilder::freeze`] or [`Graph::from_parts`]. Cloning is
/// a reference-count bump: clones share the pool, the indexes and the
/// cached statistics.
#[derive(Debug, Clone)]
pub struct Graph {
    inner: Arc<Frozen>,
}

impl Graph {
    /// Wrap a pool and a sorted, duplicate-free SPO index, deriving the
    /// other two permutations from it.
    fn assemble(pool: TermPool, spo: Box<[IdTriple]>, next_bnode: u64) -> Graph {
        let limit = pool.len() as u32;
        let pos = build_index(&spo, limit, |&[s, p, o]| [p, o, s]);
        let osp = build_index(&spo, limit, |&[s, p, o]| [o, s, p]);
        Graph {
            inner: Arc::new(Frozen {
                pool,
                spo,
                pos,
                osp,
                next_bnode,
                stats: OnceLock::new(),
            }),
        }
    }

    /// Rebuild a graph from its serialized parts: the term table in
    /// interning order, the id triples, and the blank-node counter. The
    /// reconstructed graph is indistinguishable from the original — same
    /// dense ids, same index contents, same blank-node counter — which is
    /// what lets a persisted graph evaluate SPARQL identically to a freshly
    /// transformed one. Triples already in strict SPO order (as
    /// [`Graph::iter_ids`] writes them) are adopted as the SPO index after
    /// one linear check; any other order is sorted and deduplicated.
    pub fn from_parts(
        terms: Vec<Term>,
        triples: &[IdTriple],
        next_bnode: u64,
    ) -> Result<Graph, String> {
        let pool = TermPool::from_terms(terms)?;
        let limit = pool.len() as u32;
        for &[s, p, o] in triples {
            for id in [s, p, o] {
                if id.0 >= limit {
                    return Err(format!(
                        "triple references term id {} but the pool holds {limit} term(s)",
                        id.0
                    ));
                }
            }
        }
        let spo = if is_spo_sorted(triples) {
            triples.into()
        } else {
            build_index(triples, limit, |&t| t)
        };
        Ok(Graph::assemble(pool, spo, next_bnode))
    }

    /// The graph's term pool (for resolving [`TermId`]s).
    pub fn pool(&self) -> &TermPool {
        &self.inner.pool
    }

    /// The blank-node counter (how many [`GraphBuilder::fresh_bnode`]
    /// calls built this graph), exposed so serializers can persist it.
    pub fn bnode_counter(&self) -> u64 {
        self.inner.next_bnode
    }

    /// Number of triples stored.
    pub fn len(&self) -> usize {
        self.inner.spo.len()
    }

    /// True when the graph holds no triples.
    pub fn is_empty(&self) -> bool {
        self.inner.spo.is_empty()
    }

    /// Look up a term's id without interning.
    pub fn term_id(&self, term: &Term) -> Option<TermId> {
        self.inner.pool.get(term)
    }

    /// Resolve an id back to its term.
    pub fn term(&self, id: TermId) -> &Term {
        self.inner.pool.resolve(id)
    }

    /// Whole-graph cardinality statistics, computed on first use and
    /// shared by every clone of this graph. Cheap to hand out: the
    /// planner clones the `Arc`, not the stats.
    pub fn stats(&self) -> Arc<GraphStats> {
        let f = &*self.inner;
        f.stats
            .get_or_init(|| Arc::new(compute_stats(&f.spo, &f.pos, f.pool.len())))
            .clone()
    }

    /// True when the graph contains the exact triple.
    pub fn contains(&self, s: &Term, p: &Term, o: &Term) -> bool {
        match (self.term_id(s), self.term_id(p), self.term_id(o)) {
            (Some(s), Some(p), Some(o)) => self.inner.spo.binary_search(&[s, p, o]).is_ok(),
            _ => false,
        }
    }

    /// Iterate over every triple as ids, in SPO order.
    pub fn iter_ids(&self) -> impl Iterator<Item = IdTriple> + '_ {
        self.inner.spo.iter().copied()
    }

    /// Iterate over every triple as resolved terms, in SPO order.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.iter_ids().map(move |t| self.resolve(t))
    }

    fn resolve(&self, [s, p, o]: IdTriple) -> Triple {
        (
            self.term(s).clone(),
            self.term(p).clone(),
            self.term(o).clone(),
        )
    }

    /// Which index [`Graph::matching_ids`] will scan for a given binding
    /// shape (`true` = position bound).
    pub fn index_for(s: bool, p: bool, o: bool) -> IndexChoice {
        match (s, p, o) {
            (true, true, true) => IndexChoice::Spo,
            (true, _, false) => IndexChoice::Spo,
            (true, false, true) => IndexChoice::Osp,
            (false, true, _) => IndexChoice::Pos,
            (false, false, true) => IndexChoice::Osp,
            (false, false, false) => IndexChoice::Spo,
        }
    }

    /// Scan all triples matching the pattern, where `None` is a wildcard.
    /// Ids must come from this graph's pool. The matches are one
    /// contiguous slice of the index [`Graph::index_for`] names, found by
    /// binary search; the iterator yields them in `[s, p, o]` order.
    pub fn matching_ids(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Matches<'_> {
        let f = &*self.inner;
        let index = Graph::index_for(s.is_some(), p.is_some(), o.is_some());
        let slice = match (s, p, o) {
            (Some(s), Some(p), Some(o)) => range(&f.spo, [s, p, o]),
            (Some(s), Some(p), None) => range(&f.spo, [s, p]),
            (Some(s), None, None) => range(&f.spo, [s]),
            (Some(s), None, Some(o)) => range(&f.osp, [o, s]),
            (None, Some(p), Some(o)) => range(&f.pos, [p, o]),
            (None, Some(p), None) => range(&f.pos, [p]),
            (None, None, Some(o)) => range(&f.osp, [o]),
            (None, None, None) => &f.spo[..],
        };
        Matches {
            iter: slice.iter(),
            index,
        }
    }

    /// Scan matching triples by term, resolving results to owned terms.
    /// A pattern term that is not even interned matches nothing.
    pub fn triples_matching<'g>(
        &'g self,
        s: Option<&Term>,
        p: Option<&Term>,
        o: Option<&Term>,
    ) -> impl Iterator<Item = Triple> + 'g {
        // Translate terms to ids; an unknown term ⇒ empty result.
        let id = |t: Option<&Term>| match t {
            None => Some(None),
            Some(t) => self.term_id(t).map(Some),
        };
        let ids = match (id(s), id(p), id(o)) {
            (Some(s), Some(p), Some(o)) => Some([s, p, o]),
            _ => None,
        };
        ids.into_iter()
            .flat_map(move |[s, p, o]| self.matching_ids(s, p, o))
            .map(move |t| self.resolve(t))
    }

    /// The distinct predicates asserted in this graph, in id order (one
    /// POS-index walk). This is the predicate presence set the workload
    /// pruning layer summarizes per QEP.
    pub fn distinct_predicates(&self) -> Vec<TermId> {
        let mut out = Vec::new();
        for &[p, _, _] in self.inner.pos.iter() {
            if out.last() != Some(&p) {
                out.push(p);
            }
        }
        out
    }

    /// True when at least one triple carries predicate `p`. An un-interned
    /// term is trivially absent.
    pub fn has_predicate(&self, p: &Term) -> bool {
        self.term_id(p)
            .is_some_and(|id| !range(&self.inner.pos, [id]).is_empty())
    }

    /// True when at least one triple carries predicate `p` with object `o`
    /// — an O(log n) POS probe, used by the pruning layer to reject graphs
    /// that lack a required concrete property value without running any
    /// SPARQL.
    pub fn has_predicate_object(&self, p: &Term, o: &Term) -> bool {
        match (self.term_id(p), self.term_id(o)) {
            (Some(p), Some(o)) => !range(&self.inner.pos, [p, o]).is_empty(),
            _ => false,
        }
    }

    /// The single object of `(s, p, ?)` if exactly one exists.
    pub fn object_of(&self, s: &Term, p: &Term) -> Option<Term> {
        let mut it = self.triples_matching(Some(s), Some(p), None);
        let first = it.next()?;
        if it.next().is_some() {
            return None;
        }
        Some(first.2)
    }

    /// All objects of `(s, p, ?)`.
    pub fn objects_of(&self, s: &Term, p: &Term) -> Vec<Term> {
        self.triples_matching(Some(s), Some(p), None)
            .map(|t| t.2)
            .collect()
    }
}

/// The entries of a sorted index whose first `N` components equal `key`:
/// two binary searches, so the slice is found in O(log n).
fn range<const N: usize>(idx: &[IdTriple], key: [TermId; N]) -> &[IdTriple] {
    let prefix = |t: &IdTriple| -> [TermId; N] { std::array::from_fn(|i| t[i]) };
    let lo = idx.partition_point(|t| prefix(t) < key);
    let len = idx[lo..].partition_point(|t| prefix(t) == key);
    &idx[lo..lo + len]
}

/// The triples [`Graph::matching_ids`] found: a slice of one index,
/// rotated back to `[s, p, o]` order as it is walked.
#[derive(Debug, Clone)]
pub struct Matches<'g> {
    iter: std::slice::Iter<'g, IdTriple>,
    index: IndexChoice,
}

impl Iterator for Matches<'_> {
    type Item = IdTriple;

    fn next(&mut self) -> Option<IdTriple> {
        self.iter.next().map(|&t| self.index.to_spo(t))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.iter.size_hint()
    }

    fn count(self) -> usize {
        self.iter.len()
    }
}

impl ExactSizeIterator for Matches<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        let mut b = GraphBuilder::new();
        let p_type = Term::iri("p:hasPopType");
        let p_card = Term::iri("p:hasEstimateCardinality");
        let p_in = Term::iri("p:hasInputStream");
        b.insert(Term::iri("q:pop2"), p_type.clone(), Term::lit_str("NLJOIN"));
        b.insert(Term::iri("q:pop3"), p_type.clone(), Term::lit_str("FETCH"));
        b.insert(Term::iri("q:pop5"), p_type.clone(), Term::lit_str("TBSCAN"));
        b.insert(Term::iri("q:pop5"), p_card.clone(), Term::lit_str("4043.0"));
        b.insert(Term::iri("q:pop2"), p_in.clone(), Term::iri("q:pop3"));
        b.insert(Term::iri("q:pop2"), p_in.clone(), Term::iri("q:pop5"));
        b.freeze()
    }

    /// The parts [`Graph::from_parts`] takes, read back out of a graph.
    fn parts(g: &Graph) -> (Vec<Term>, Vec<IdTriple>) {
        let terms = g.pool().iter().map(|(_, t)| t.clone()).collect();
        (terms, g.iter_ids().collect())
    }

    #[test]
    fn freeze_deduplicates() {
        let mut b = GraphBuilder::new();
        b.insert(Term::iri("a"), Term::iri("b"), Term::iri("c"));
        b.insert(Term::iri("a"), Term::iri("b"), Term::iri("c"));
        let g = b.freeze();
        assert_eq!(g.len(), 1);
        assert_eq!(g.pool().len(), 3);
    }

    #[test]
    fn all_binding_shapes_agree() {
        let g = sample();
        let all: Vec<Triple> = g.iter().collect();
        assert_eq!(all.len(), 6);
        // For every stored triple, every partially-bound pattern must find it.
        for (s, p, o) in &all {
            for (bs, bp, bo) in [
                (true, true, true),
                (true, true, false),
                (true, false, true),
                (false, true, true),
                (true, false, false),
                (false, true, false),
                (false, false, true),
                (false, false, false),
            ] {
                let found: Vec<Triple> = g
                    .triples_matching(bs.then_some(s), bp.then_some(p), bo.then_some(o))
                    .collect();
                assert!(
                    found.contains(&(s.clone(), p.clone(), o.clone())),
                    "pattern ({bs},{bp},{bo}) missed {s} {p} {o}"
                );
            }
        }
    }

    #[test]
    fn scans_are_exact_not_superset() {
        let g = sample();
        let pops: Vec<Triple> = g
            .triples_matching(None, Some(&Term::iri("p:hasPopType")), None)
            .collect();
        assert_eq!(pops.len(), 3);
        let tbscans: Vec<Triple> = g
            .triples_matching(
                None,
                Some(&Term::iri("p:hasPopType")),
                Some(&Term::lit_str("TBSCAN")),
            )
            .collect();
        assert_eq!(tbscans.len(), 1);
        assert_eq!(tbscans[0].0, Term::iri("q:pop5"));
    }

    #[test]
    fn unknown_terms_match_nothing() {
        let g = sample();
        assert_eq!(
            g.triples_matching(Some(&Term::iri("q:nope")), None, None)
                .count(),
            0
        );
        assert!(!g.contains(
            &Term::iri("q:pop2"),
            &Term::iri("p:hasPopType"),
            &Term::lit_str("HSJOIN")
        ));
    }

    #[test]
    fn object_helpers() {
        let g = sample();
        assert_eq!(
            g.object_of(&Term::iri("q:pop5"), &Term::iri("p:hasPopType")),
            Some(Term::lit_str("TBSCAN"))
        );
        // Two input streams ⇒ object_of refuses to pick one.
        assert_eq!(
            g.object_of(&Term::iri("q:pop2"), &Term::iri("p:hasInputStream")),
            None
        );
        assert_eq!(
            g.objects_of(&Term::iri("q:pop2"), &Term::iri("p:hasInputStream"))
                .len(),
            2
        );
    }

    #[test]
    fn fresh_bnodes_are_unique_and_counted() {
        let mut b = GraphBuilder::new();
        let x = b.fresh_bnode("b");
        let y = b.fresh_bnode("b");
        assert_ne!(x, y);
        assert_eq!(b.freeze().bnode_counter(), 2);
    }

    #[test]
    fn presence_checks_and_distinct_predicates() {
        let g = sample();
        let preds: Vec<&Term> = g
            .distinct_predicates()
            .into_iter()
            .map(|id| g.term(id))
            .collect();
        assert_eq!(preds.len(), 3);
        assert!(preds.contains(&&Term::iri("p:hasPopType")));

        assert!(g.has_predicate(&Term::iri("p:hasInputStream")));
        assert!(!g.has_predicate(&Term::iri("p:never")));
        // An interned term that never appears in predicate position.
        assert!(!g.has_predicate(&Term::iri("q:pop2")));

        assert!(g.has_predicate_object(&Term::iri("p:hasPopType"), &Term::lit_str("TBSCAN")));
        assert!(!g.has_predicate_object(&Term::iri("p:hasPopType"), &Term::lit_str("HSJOIN")));
        assert!(!g.has_predicate_object(&Term::iri("p:never"), &Term::lit_str("TBSCAN")));
    }

    #[test]
    fn from_parts_reconstructs_an_identical_graph() {
        let mut b = GraphBuilder::new();
        b.insert(
            Term::iri("q:pop2"),
            Term::iri("p:t"),
            Term::lit_str("NLJOIN"),
        );
        let n = b.fresh_bnode("n");
        b.insert(Term::iri("q:pop2"), Term::iri("p:in"), n);
        b.fresh_bnode("n");
        let g = b.freeze();
        let (terms, triples) = parts(&g);
        let rebuilt = Graph::from_parts(terms, &triples, g.bnode_counter()).unwrap();
        assert_eq!(rebuilt.len(), g.len());
        assert_eq!(rebuilt.pool().len(), g.pool().len());
        // Same dense ids for the same terms.
        for (id, term) in g.pool().iter() {
            assert_eq!(rebuilt.pool().get(term), Some(id));
        }
        // Same triples in the same SPO order, and working secondary indexes.
        assert_eq!(
            rebuilt.iter_ids().collect::<Vec<_>>(),
            g.iter_ids().collect::<Vec<_>>()
        );
        assert_eq!(rebuilt.distinct_predicates(), g.distinct_predicates());
        // Blank-node counter carried over.
        assert_eq!(rebuilt.bnode_counter(), 2);
    }

    #[test]
    fn from_parts_adopts_triples_already_in_spo_order() {
        let g = sample();
        let (terms, triples) = parts(&g);
        assert!(is_spo_sorted(&triples));
        let rebuilt = Graph::from_parts(terms, &triples, 0).unwrap();
        assert_eq!(rebuilt.iter_ids().collect::<Vec<_>>(), triples);
        let p_in = g.term_id(&Term::iri("p:hasInputStream")).unwrap();
        assert_eq!(rebuilt.matching_ids(None, Some(p_in), None).count(), 2);
        assert_eq!(*rebuilt.stats(), *g.stats());
    }

    #[test]
    fn from_parts_sorts_and_deduplicates_any_other_order() {
        let g = sample();
        let (terms, sorted) = parts(&g);
        // Reversed, and in order with one triple repeated: neither is
        // strictly increasing.
        let reversed: Vec<IdTriple> = sorted.iter().rev().copied().collect();
        let mut repeated = sorted.clone();
        repeated.insert(1, sorted[1]);
        let p_in = g.term_id(&Term::iri("p:hasInputStream")).unwrap();
        for triples in [reversed, repeated] {
            assert!(!is_spo_sorted(&triples));
            let rebuilt = Graph::from_parts(terms.clone(), &triples, 0).unwrap();
            assert_eq!(rebuilt.iter_ids().collect::<Vec<_>>(), sorted);
            assert_eq!(rebuilt.matching_ids(None, Some(p_in), None).count(), 2);
            assert_eq!(*rebuilt.stats(), *g.stats());
        }
    }

    #[test]
    fn from_parts_rejects_bad_inputs() {
        let dup = Graph::from_parts(vec![Term::iri("a"), Term::iri("a")], &[], 0);
        assert!(dup.is_err());
        let oob = Graph::from_parts(
            vec![Term::iri("a")],
            &[[TermId(0), TermId(0), TermId(1)]],
            0,
        );
        assert!(oob.unwrap_err().contains("term id 1"));
    }

    #[test]
    fn stats_count_per_predicate_cardinalities() {
        let g = sample();
        let stats = g.stats();
        assert_eq!(stats.triples, 6);
        assert_eq!(stats.terms, g.pool().len());
        assert_eq!(stats.predicates.len(), 3);
        // Sorted by predicate id, and equal to a naive count over all triples.
        for w in stats.predicates.windows(2) {
            assert!(w[0].predicate < w[1].predicate);
        }
        for ps in &stats.predicates {
            let naive = g.iter_ids().filter(|t| t[1] == ps.predicate).count();
            assert_eq!(ps.count, naive);
        }

        // p:hasPopType — 3 triples, 3 subjects, 3 objects: fan-out 1.
        let p_type = g.term_id(&Term::iri("p:hasPopType")).unwrap();
        let ps = stats.predicate(p_type).unwrap();
        assert_eq!(
            (ps.count, ps.distinct_subjects, ps.distinct_objects),
            (3, 3, 3)
        );
        assert_eq!(ps.fan_out(), 1.0);
        assert_eq!(ps.fan_in(), 1.0);

        // p:hasInputStream — 2 triples from one subject: fan-out 2, fan-in 1.
        let p_in = g.term_id(&Term::iri("p:hasInputStream")).unwrap();
        let ps = stats.predicate(p_in).unwrap();
        assert_eq!(
            (ps.count, ps.distinct_subjects, ps.distinct_objects),
            (2, 1, 2)
        );
        assert_eq!(ps.fan_out(), 2.0);
        assert_eq!(ps.fan_in(), 1.0);

        // A term that is never a predicate has no stats entry.
        let subj = g.term_id(&Term::iri("q:pop2")).unwrap();
        assert!(stats.predicate(subj).is_none());
        assert_eq!(stats.predicate_count(subj), 0);
    }

    #[test]
    fn stats_are_computed_once_and_shared_by_clones() {
        let g = sample();
        let clone = g.clone();
        let first = clone.stats();
        // The clone computed them; the original sees the same snapshot.
        assert!(Arc::ptr_eq(&first, &g.stats()));
        assert!(Arc::ptr_eq(&first, &clone.stats()));
        // Cloning shares the whole frozen body, not a copy of it.
        assert!(Arc::ptr_eq(&g.inner, &clone.inner));
        assert_eq!(first.triples, 6);
    }

    #[test]
    fn stats_match_between_built_and_reconstructed_graphs() {
        let g = sample();
        let (terms, triples) = parts(&g);
        let rebuilt = Graph::from_parts(terms, &triples, g.bnode_counter()).unwrap();
        assert_eq!(*rebuilt.stats(), *g.stats());
    }
}
