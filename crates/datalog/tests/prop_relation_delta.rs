//! Property test for in-place relation maintenance: random sequences of
//! `insert`, `remove` and `replace` must leave a [`Relation`] — tuples
//! and every hash and ordered index — answering exactly like a relation
//! built fresh from the surviving tuples.

use proptest::prelude::*;
use sqo_datalog::program::{RangeBound, Relation};
use sqo_datalog::term::R64;
use sqo_datalog::Const;
use std::collections::BTreeSet;

/// Column 0: small ints. Column 1: a mix of ints, reals and strings, so
/// the ordered index sees both homogeneous and mixed-type columns.
fn col0() -> impl Strategy<Value = Const> {
    (0i64..5).prop_map(Const::Int)
}

fn col1() -> impl Strategy<Value = Const> {
    prop_oneof![
        4 => (0i64..4).prop_map(Const::Int),
        2 => (0usize..3).prop_map(|i| Const::Real(R64::new([0.5, 2.0, 3.0][i]))),
        1 => (0usize..2).prop_map(|i| Const::Str(["a", "b"][i].into())),
    ]
}

fn tuple() -> impl Strategy<Value = Vec<Const>> {
    (col0(), col1()).prop_map(|(a, b)| vec![a, b])
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<Const>),
    /// Remove the tuple at `index % len` (or an absent tuple when empty).
    RemoveAt(usize),
    /// Remove a random tuple, usually absent.
    RemoveAny(Vec<Const>),
    Replace(usize, Vec<Const>),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => tuple().prop_map(Op::Insert),
        2 => (0usize..64).prop_map(Op::RemoveAt),
        1 => tuple().prop_map(Op::RemoveAny),
        3 => ((0usize..64), tuple()).prop_map(|(i, t)| Op::Replace(i, t)),
    ]
}

/// Every index on both columns; with `keyed` the hash index on column 0
/// also answers membership, without it the dedup set does.
fn indexed(keyed: bool) -> Relation {
    let mut r = Relation::with_arity(2);
    if keyed {
        r.declare_hash_index(0);
    }
    r.declare_hash_index(1);
    r.declare_ordered_index(0);
    r.declare_ordered_index(1);
    r
}

fn tuple_set(rel: &Relation, positions: &[usize]) -> BTreeSet<Vec<Const>> {
    positions
        .iter()
        .map(|&p| rel.tuple_at(p).to_vec())
        .collect()
}

/// Every probe the evaluator and cost model use, compared as tuple sets.
fn assert_same_answers(live: &Relation, fresh: &Relation) {
    assert_eq!(
        live.tuples(),
        fresh.tuples(),
        "insertion order of survivors"
    );
    let keys0: Vec<Const> = (0..5).map(Const::Int).collect();
    let keyed = live.has_hash_index(0);
    let keys1: Vec<Const> = (0..4)
        .map(Const::Int)
        .chain([0.5, 2.0, 3.0].map(|r| Const::Real(R64::new(r))))
        .chain(["a", "b"].map(|s| Const::Str(s.into())))
        .collect();
    for (col, keys) in [(0, &keys0), (1, &keys1)] {
        assert_eq!(live.index_distinct(col), fresh.index_distinct(col));
        for k in keys.iter().filter(|_| col == 1 || keyed) {
            let probe = |r: &Relation| tuple_set(r, r.hash_probe(col, k).unwrap());
            assert_eq!(probe(live), probe(fresh), "hash_probe({col}, {k})");
        }
        let bounds: Vec<Option<RangeBound>> = std::iter::once(None)
            .chain(
                keys.iter()
                    .flat_map(|k| [Some((*k, true)), Some((*k, false))]),
            )
            .collect();
        for lo in &bounds {
            for hi in &bounds {
                if lo.is_none() && hi.is_none() {
                    continue;
                }
                let (lo, hi) = (lo.as_ref(), hi.as_ref());
                let range = |r: &Relation| r.range_probe(col, lo, hi).map(|ps| tuple_set(r, &ps));
                assert_eq!(
                    range(live),
                    range(fresh),
                    "range_probe({col}, {lo:?}, {hi:?})"
                );
                assert_eq!(
                    live.range_count(col, lo, hi),
                    fresh.range_count(col, lo, hi),
                    "range_count({col}, {lo:?}, {hi:?})"
                );
            }
        }
    }
    for a in &keys0 {
        for b in &keys1 {
            let t = [*a, *b];
            assert_eq!(live.contains(&t), fresh.contains(&t), "contains({t:?})");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn maintained_relation_matches_fresh_build(
        ops in prop::collection::vec(op(), 0..40),
        keyed in (0usize..2).prop_map(|k| k == 1),
    ) {
        let mut live = indexed(keyed);
        // The oracle's model: surviving tuples in insertion order.
        let mut model: Vec<Vec<Const>> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(t) => {
                    let new = !model.contains(&t);
                    prop_assert_eq!(live.insert(t.clone()).unwrap(), new);
                    if new {
                        model.push(t);
                    }
                }
                Op::RemoveAt(i) => {
                    if model.is_empty() {
                        prop_assert!(!live.remove(&[Const::Int(9), Const::Int(9)]));
                    } else {
                        let t = model.remove(i % model.len());
                        prop_assert!(live.remove(&t));
                    }
                }
                Op::RemoveAny(t) => {
                    let present = model.contains(&t);
                    prop_assert_eq!(live.remove(&t), present);
                    model.retain(|m| *m != t);
                }
                Op::Replace(i, t) => {
                    if model.is_empty() {
                        continue;
                    }
                    let pos = i % model.len();
                    let landed = model[pos] == t || !model.contains(&t);
                    prop_assert_eq!(live.replace(pos, t.clone()).unwrap(), landed);
                    if landed {
                        model[pos] = t;
                    } else {
                        model.remove(pos);
                    }
                }
            }
        }
        let mut fresh = indexed(keyed);
        for t in &model {
            fresh.insert(t.clone()).unwrap();
        }
        assert_same_answers(&live, &fresh);
    }
}

#[test]
fn clear_keeps_declared_indexes() {
    let mut r = indexed(true);
    r.insert(vec![Const::Int(1), Const::Int(2)]).unwrap();
    r.clear();
    assert!(r.is_empty());
    assert_eq!(r.index_distinct(0), Some(0));
    r.insert(vec![Const::Int(3), Const::Int(4)]).unwrap();
    assert_eq!(r.hash_probe(0, &Const::Int(3)), Some(&[0usize][..]));
    assert_eq!(r.arity(), Some(2));
}

#[test]
fn replace_rejects_wrong_arity() {
    let mut r = indexed(true);
    r.insert(vec![Const::Int(1), Const::Int(2)]).unwrap();
    assert!(r.replace(0, vec![Const::Int(1)]).is_err());
    assert_eq!(r.tuples(), &[vec![Const::Int(1), Const::Int(2)]]);
}
