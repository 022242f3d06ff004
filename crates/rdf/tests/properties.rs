//! Property-based tests for the RDF substrate: N-Triples round-trips,
//! index consistency across all binding shapes, the frozen graph against a
//! naive sorted-list model, and numeric lexical laws.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use optimatch_rdf::ntriples::{from_ntriples, to_ntriples};
use optimatch_rdf::numeric::{format_double, parse_numeric};
use optimatch_rdf::{Graph, GraphBuilder, IdTriple, Term, TermId};

/// Strategy for IRI-safe strings (no `>` or control chars).
fn iri_string() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9_/#:.-]{0,24}"
}

/// Strategy for arbitrary literal content, including characters that must be
/// escaped on serialization.
fn literal_string() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~\n\r\tàé]{0,24}").unwrap()
}

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        iri_string().prop_map(Term::iri),
        "[a-zA-Z][a-zA-Z0-9_-]{0,10}".prop_map(Term::bnode),
        literal_string().prop_map(Term::lit_str),
        any::<i64>().prop_map(Term::lit_integer),
        (-1e12..1e12f64).prop_map(Term::lit_double),
    ]
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    proptest::collection::vec(
        (arb_term(), iri_string().prop_map(Term::iri), arb_term()),
        0..40,
    )
    .prop_map(|triples| {
        let mut b = GraphBuilder::new();
        for (s, p, o) in triples {
            b.insert(s, p, o);
        }
        b.freeze()
    })
}

/// Terms in a small id space, so random triples repeat and share ids.
const ID_SPACE: u32 = 8;

/// Random id triples over `ID_SPACE` terms, with duplicates likely.
fn arb_id_triples() -> impl Strategy<Value = Vec<IdTriple>> {
    proptest::collection::vec(
        (0..ID_SPACE, 0..ID_SPACE, 0..ID_SPACE)
            .prop_map(|(s, p, o)| [TermId(s), TermId(p), TermId(o)]),
        0..80,
    )
}

/// The pool every id-triple graph interns first: `ID_SPACE` distinct IRIs.
fn id_space_terms() -> Vec<Term> {
    (0..ID_SPACE).map(|i| Term::iri(format!("t{i}"))).collect()
}

/// Build through the builder: intern the whole id space, then push ids.
fn freeze_ids(triples: &[IdTriple]) -> Graph {
    let mut b = GraphBuilder::new();
    for (i, term) in id_space_terms().into_iter().enumerate() {
        assert_eq!(b.intern(term), TermId(i as u32));
    }
    for &t in triples {
        b.insert_ids(t);
    }
    b.freeze()
}

/// Per-predicate `(count, distinct subjects, distinct objects)`, counted
/// the slow way from a deduplicated triple set.
fn naive_stats(model: &BTreeSet<IdTriple>) -> BTreeMap<TermId, (usize, usize, usize)> {
    let mut per: BTreeMap<TermId, (usize, BTreeSet<TermId>, BTreeSet<TermId>)> = BTreeMap::new();
    for &[s, p, o] in model {
        let e = per.entry(p).or_default();
        e.0 += 1;
        e.1.insert(s);
        e.2.insert(o);
    }
    per.into_iter()
        .map(|(p, (n, subjects, objects))| (p, (n, subjects.len(), objects.len())))
        .collect()
}

/// Every binding shape of `matching_ids` equals a filter over the model,
/// probing both present and absent ids.
fn check_against_model(g: &Graph, model: &BTreeSet<IdTriple>) -> Result<(), TestCaseError> {
    prop_assert_eq!(g.len(), model.len());
    prop_assert_eq!(
        g.iter_ids().collect::<Vec<_>>(),
        model.iter().copied().collect::<Vec<_>>()
    );
    for s in 0..ID_SPACE {
        for p in 0..ID_SPACE {
            for o in 0..ID_SPACE {
                let probe = [TermId(s), TermId(p), TermId(o)];
                for mask in 0u8..8 {
                    let bind = |i: usize| (mask >> i & 1 != 0).then_some(probe[i]);
                    let (bs, bp, bo) = (bind(0), bind(1), bind(2));
                    let mut got: Vec<IdTriple> = g.matching_ids(bs, bp, bo).collect();
                    got.sort_unstable();
                    let want: Vec<IdTriple> = model
                        .iter()
                        .filter(|t| {
                            bs.is_none_or(|x| t[0] == x)
                                && bp.is_none_or(|x| t[1] == x)
                                && bo.is_none_or(|x| t[2] == x)
                        })
                        .copied()
                        .collect();
                    prop_assert_eq!(g.matching_ids(bs, bp, bo).count(), want.len());
                    prop_assert_eq!(got, want, "shape {:03b} probe {:?}", mask, probe);
                }
            }
        }
    }
    let stats = g.stats();
    prop_assert_eq!(stats.triples, model.len());
    prop_assert_eq!(stats.terms, ID_SPACE as usize);
    let got: BTreeMap<TermId, (usize, usize, usize)> = stats
        .predicates
        .iter()
        .map(|ps| {
            (
                ps.predicate,
                (ps.count, ps.distinct_subjects, ps.distinct_objects),
            )
        })
        .collect();
    prop_assert_eq!(got, naive_stats(model));
    Ok(())
}

proptest! {
    /// A frozen graph behaves exactly like its sorted, deduplicated triple
    /// list: all eight binding shapes, the statistics, and a `from_parts`
    /// round trip of its own parts.
    #[test]
    fn frozen_graph_matches_naive_model(triples in arb_id_triples()) {
        let model: BTreeSet<IdTriple> = triples.iter().copied().collect();
        let g = freeze_ids(&triples);
        check_against_model(&g, &model)?;

        let terms: Vec<Term> = g.pool().iter().map(|(_, t)| t.clone()).collect();
        prop_assert_eq!(&terms, &id_space_terms());
        let parts: Vec<IdTriple> = g.iter_ids().collect();
        let rebuilt = Graph::from_parts(terms.clone(), &parts, g.bnode_counter()).unwrap();
        check_against_model(&rebuilt, &model)?;
        // Unsorted parts, and sorted parts with every triple doubled, load
        // to the same graph.
        let raw = Graph::from_parts(terms.clone(), &triples, 0).unwrap();
        check_against_model(&raw, &model)?;
        let mut doubled: Vec<IdTriple> = parts.iter().flat_map(|&t| [t, t]).collect();
        doubled.sort_unstable();
        let doubled = Graph::from_parts(terms, &doubled, 0).unwrap();
        check_against_model(&doubled, &model)?;
    }

    /// Serialize → parse reproduces exactly the same triple set.
    #[test]
    fn ntriples_round_trip(g in arb_graph()) {
        let text = to_ntriples(&g);
        let g2 = from_ntriples(&text).unwrap();
        prop_assert_eq!(g.len(), g2.len());
        for (s, p, o) in g.iter() {
            prop_assert!(g2.contains(&s, &p, &o));
        }
    }

    /// Every triple a full scan sees is also found by each partially-bound
    /// pattern scan, and pattern scans never invent triples.
    #[test]
    fn index_scans_consistent(g in arb_graph()) {
        let all: Vec<_> = g.iter().collect();
        for (s, p, o) in &all {
            for mask in 0u8..8 {
                let qs = (mask & 1 != 0).then_some(s);
                let qp = (mask & 2 != 0).then_some(p);
                let qo = (mask & 4 != 0).then_some(o);
                let hits: Vec<_> = g.triples_matching(qs, qp, qo).collect();
                prop_assert!(hits.contains(&(s.clone(), p.clone(), o.clone())));
                for (hs, hp, ho) in &hits {
                    prop_assert!(g.contains(hs, hp, ho));
                    if let Some(qs) = qs { prop_assert_eq!(hs, qs); }
                    if let Some(qp) = qp { prop_assert_eq!(hp, qp); }
                    if let Some(qo) = qo { prop_assert_eq!(ho, qo); }
                }
            }
        }
    }

    /// Inserting the same triples in any order yields the same graph.
    #[test]
    fn insertion_order_irrelevant(
        triples in proptest::collection::vec(
            (arb_term(), iri_string().prop_map(Term::iri), arb_term()), 1..20),
        seed in any::<u64>(),
    ) {
        let mut b1 = GraphBuilder::new();
        for (s, p, o) in &triples {
            b1.insert(s.clone(), p.clone(), o.clone());
        }
        let g1 = b1.freeze();
        let mut shuffled = triples.clone();
        // Cheap deterministic shuffle.
        let n = shuffled.len();
        for i in 0..n {
            let j = ((seed.wrapping_mul(6364136223846793005).wrapping_add(i as u64)) % n as u64) as usize;
            shuffled.swap(i, j);
        }
        let mut b2 = GraphBuilder::new();
        for (s, p, o) in shuffled {
            b2.insert(s, p, o);
        }
        let g2 = b2.freeze();
        prop_assert_eq!(g1.len(), g2.len());
        for (s, p, o) in g1.iter() {
            prop_assert!(g2.contains(&s, &p, &o));
        }
    }

    /// Formatting a double and parsing it back is value-preserving to within
    /// formatting precision (six significant digits).
    #[test]
    fn numeric_format_parse_inverse(v in prop_oneof![
        -1e15..1e15f64,
        -1.0..1.0f64,
        Just(0.0),
    ]) {
        let s = format_double(v);
        let back = parse_numeric(&s).expect("formatted doubles must parse");
        let tol = if v == 0.0 { 1e-12 } else { v.abs() * 1e-4 };
        prop_assert!((back - v).abs() <= tol, "{} -> {} -> {}", v, s, back);
    }

    /// parse_numeric agrees with Rust's float parser on everything it accepts.
    #[test]
    fn parse_agrees_with_std(s in "[+-]?[0-9]{1,10}(\\.[0-9]{0,8})?([eE][+-]?[0-9]{1,3})?") {
        if let Some(v) = parse_numeric(&s) {
            let std_v: f64 = s.trim().parse().unwrap();
            prop_assert_eq!(v, std_v);
        }
    }
}
