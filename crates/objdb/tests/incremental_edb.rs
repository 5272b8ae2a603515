//! The maintained EDB against recovery: seeded random sequences of every
//! mutator run on a store-backed database, and at each checkpoint the
//! incrementally maintained EDB must equal the one a fresh
//! `ObjectDb::open` of the same directory builds — relation by relation,
//! index declarations included — and the paper's A1–A4 query shapes must
//! return the same answers on both.

use sqo_datalog::program::{EdbDatabase, Relation};
use sqo_datalog::{Const, PredSym, Query, R64};
use sqo_objdb::{execute, register_university_methods, ObjectDb, Oid, Value};
use sqo_odl::fixtures::university_schema;
use sqo_translate::{translate_query, RelKind};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sqo_incr_{}_{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small deterministic LCG (no external RNG in the oracle's path).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> Option<T> {
        (!xs.is_empty()).then(|| xs[self.below(xs.len())])
    }
}

const CLASSES: [&str; 6] = ["Person", "Student", "Faculty", "TA", "Course", "Section"];
/// (source class, relationship member) pairs the sequences link through.
const RELS: [(&str, &str); 6] = [
    ("Student", "takes"),
    ("Section", "is_section_of"),
    ("Section", "has_ta"),
    ("Faculty", "teaches"),
    ("Course", "has_sections"),
    ("TA", "assists"),
];
/// ASR definitions, installed at fixed steps of every sequence.
const ASRS: [(&str, &str, &[&str]); 3] = [
    ("takes_course", "Student", &["takes", "is_section_of"]),
    (
        "student_ta",
        "Student",
        &["takes", "is_section_of", "has_sections", "has_ta"],
    ),
    ("taught_peer", "Faculty", &["teaches", "taken_by", "takes"]),
];
const RATES: [f64; 2] = [0.1, 0.25];

/// The paper's A1–A4 query shapes, executed unoptimised.
const QUERIES: [&str; 5] = [
    // A1: the IC-refuted shape (methods through a path).
    r#"select z.name from x in Student y in x.takes z in y.is_taught_by
       where z.taxes_withheld(10%) < 1000"#,
    // A2: scope reduction over the Person hierarchy.
    "select x.name from x in Person where x.age < 30",
    // A3: the key-join shape.
    r#"select list(x.student_id, t.employee_id) from x in Student y in x.takes
       z in y.is_taught_by t in TA v in t.takes w in v.is_taught_by
       where z.name = w.name"#,
    // A4: the long path the ASRs fold.
    r#"select w from x in Student y in x.takes z in y.is_section_of
       v in z.has_sections w in v.has_ta"#,
    "select x.name, y.number from x in Student y in x.takes where x.age >= 20",
];

fn live_of(db: &ObjectDb, class: &str) -> Vec<Oid> {
    db.extent(class).to_vec()
}

/// One random mutation. Errors (cardinality, type mismatch) are part of
/// the sequence: a rejected write must leave no trace.
fn step(db: &mut ObjectDb, rng: &mut Lcg, i: usize) {
    match rng.below(20) {
        0..=5 => {
            let class = CLASSES[rng.below(CLASSES.len())];
            let mut attrs: Vec<(&str, Value)> = Vec::new();
            if !matches!(class, "Course" | "Section") {
                attrs.push(("name", format!("n{i}").into()));
                attrs.push(("age", Value::Int(18 + rng.below(50) as i64)));
            }
            if class == "Faculty" {
                attrs.push((
                    "salary",
                    Value::Real(40_000.0 + rng.below(80) as f64 * 1000.0),
                ));
            }
            if matches!(class, "Course" | "Section") {
                attrs.push(("number", format!("c{}", rng.below(40)).into()));
            }
            let _ = db.create(class, attrs);
        }
        6 => {
            let _ = db.create_struct(
                "Address",
                vec![("city", format!("city{}", rng.below(5)).into())],
            );
        }
        7..=8 => {
            let pool = live_of(db, "Person");
            if let Some(p) = rng.pick(&pool) {
                let _ = match rng.below(3) {
                    0 => db.set_attr(p, "age", Value::Int(18 + rng.below(50) as i64)),
                    1 => db.set_attr(p, "name", format!("r{i}").into()),
                    // A type error: must be rejected without a trace.
                    _ => db.set_attr(p, "age", Value::Str("old".into())),
                };
            }
            if let Some(a) = rng.pick(&live_of(db, "Address")) {
                let _ = db.set_attr(a, "city", format!("moved{i}").into());
            }
        }
        9..=13 => {
            let (class, rel) = RELS[rng.below(RELS.len())];
            let from = rng.pick(&live_of(db, class));
            let target = match rel {
                "takes" | "teaches" | "has_sections" | "assists" => "Section",
                "is_section_of" => "Course",
                _ => "TA",
            };
            let to = rng.pick(&live_of(db, target));
            if let (Some(f), Some(t)) = (from, to) {
                let _ = db.link(f, rel, t);
            }
        }
        14..=15 => {
            let (class, rel) = RELS[rng.below(RELS.len())];
            if let Some(f) = rng.pick(&live_of(db, class)) {
                let linked = db.linked(f, rel).unwrap();
                if let Some(t) = rng.pick(&linked) {
                    assert!(db.unlink(f, rel, t).unwrap());
                }
            }
        }
        16 => {
            let class = CLASSES[rng.below(CLASSES.len())];
            if let Some(o) = rng.pick(&live_of(db, class)) {
                db.delete(o).unwrap();
            }
        }
        17 => register_university_methods(db).unwrap(),
        18 => {
            let rate = RATES[rng.below(RATES.len())];
            db.ensure_method_facts("taxes_withheld", &[Const::Real(R64::new(rate))])
                .unwrap();
        }
        _ => {
            if rng.below(4) == 0 {
                db.persist().unwrap();
            }
        }
    }
}

fn sorted(rel: &Relation) -> BTreeSet<Vec<Const>> {
    rel.tuples().iter().cloned().collect()
}

fn index_shape(rel: &Relation) -> (Option<usize>, Vec<usize>, Vec<usize>) {
    let arity = rel.arity().unwrap_or(0);
    (
        rel.arity(),
        rel.hash_indexed_columns().collect(),
        (0..arity).filter(|&c| rel.has_ordered_index(c)).collect(),
    )
}

/// Relation-by-relation equality of the maintained and recovered EDBs.
fn assert_same_edb(live: &ObjectDb, live_edb: &EdbDatabase, back_edb: &EdbDatabase, at: &str) {
    let preds = |e: &EdbDatabase| e.iter().map(|(p, _)| p.name()).collect::<BTreeSet<_>>();
    assert_eq!(preds(live_edb), preds(back_edb), "{at}: relation sets");
    for (pred, rel) in live_edb.iter() {
        let back = back_edb.relation(pred).unwrap();
        assert_eq!(index_shape(rel), index_shape(back), "{at}: {pred} indexes");
        let kind = live
            .catalog()
            .relation_by_pred(pred)
            .map(|d| &d.kind)
            .or_else(|| {
                let base = pred.name().strip_suffix("__extent")?;
                live.catalog()
                    .relation_by_pred(&PredSym::new(base))
                    .map(|d| &d.kind)
            });
        match kind {
            // ASR and method relations: compared as sets.
            Some(RelKind::View { .. } | RelKind::Method { .. }) => {
                assert_eq!(sorted(rel), sorted(back), "{at}: {pred} as a set")
            }
            // Class, extent and relationship relations: in tuple order.
            Some(_) => assert_eq!(rel.tuples(), back.tuples(), "{at}: {pred} in order"),
            None => panic!("{at}: relation {pred} outside the catalog"),
        }
    }
}

fn answers(db: &ObjectDb) -> Vec<BTreeSet<Vec<Const>>> {
    let mut queries: Vec<Query> = QUERIES
        .iter()
        .map(|oql| {
            let parsed = sqo_oql::parse_oql(oql).unwrap();
            translate_query(&parsed, db.schema(), db.catalog())
                .unwrap()
                .query
        })
        .collect();
    for def in db.asrs() {
        queries.push(
            sqo_datalog::parser::parse_query(&format!("q(X, Y) <- {}(X, Y)", def.name)).unwrap(),
        );
    }
    queries
        .iter()
        .map(|q| execute(db, q).unwrap().0.into_iter().collect())
        .collect()
}

fn check_against_recovery(db: &mut ObjectDb, dir: &Path, at: &str) {
    let mut back = ObjectDb::open(university_schema(), dir, 4).unwrap();
    register_university_methods(&mut back).unwrap();
    // Same method facts on both sides: the live database may hold some
    // from before; the recovered one starts with none.
    for rate in RATES {
        let args = [Const::Real(R64::new(rate))];
        db.ensure_method_facts("taxes_withheld", &args).unwrap();
        back.ensure_method_facts("taxes_withheld", &args).unwrap();
    }
    assert_eq!(db.object_count(), back.object_count(), "{at}: objects");
    assert_same_edb(db, &db.edb(), &back.edb(), at);
    assert_eq!(answers(db), answers(&back), "{at}: A1–A4 answers");
    // Both sides share the ASR code, so also check every maintained ASR
    // against its view rule evaluated over the relationship relations.
    for def in db.asrs() {
        let rule = def.rule.to_string();
        let view =
            sqo_datalog::parser::parse_query(&format!("q{}", &rule[rule.find('(').unwrap()..]))
                .unwrap();
        let expected: BTreeSet<Vec<Const>> = execute(db, &view).unwrap().0.into_iter().collect();
        let edb = db.edb();
        let maintained = sorted(edb.relation(&PredSym::new(def.name.as_str())).unwrap());
        assert_eq!(
            maintained, expected,
            "{at}: ASR {} vs its view rule",
            def.name
        );
    }
}

fn run_sequence(seed: u64, steps: usize) {
    let dir = test_dir(&format!("seq{seed}"));
    let mut db = ObjectDb::open(university_schema(), &dir, 4).unwrap();
    register_university_methods(&mut db).unwrap();
    let mut rng = Lcg(seed);
    for i in 0..steps {
        // ASRs arrive mid-sequence, so both their initial
        // materialization and their later maintenance are exercised.
        let every = steps / 4;
        if i % every == every / 2 {
            if let Some(&(name, class, path)) = ASRS.get(i / every) {
                db.define_asr(name, class, path).unwrap();
            }
        }
        step(&mut db, &mut rng, i);
        if i % 40 == 39 {
            check_against_recovery(&mut db, &dir, &format!("seed {seed} step {i}"));
        }
    }
    check_against_recovery(&mut db, &dir, &format!("seed {seed} end"));
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn maintained_edb_matches_recovery_over_random_sequences() {
    for seed in 1..=8 {
        run_sequence(seed, 240);
    }
}

/// With no outstanding pin, writes apply in place: the EDB allocation is
/// the same before and after a `create` and a `link` (no deep copy).
#[test]
fn writes_without_a_pin_do_not_copy_the_edb() {
    let mut db = ObjectDb::new(university_schema());
    let s = db.create("Student", vec![]).unwrap();
    let sec = db.create("Section", vec![]).unwrap();
    let before = Arc::as_ptr(&db.edb_pinned());
    let s2 = db.create("Student", vec![("name", "x".into())]).unwrap();
    db.link(s2, "takes", sec).unwrap();
    db.link(s, "takes", sec).unwrap();
    assert_eq!(Arc::as_ptr(&db.edb_pinned()), before);
    // A held pin forces exactly one copy at the next write.
    let pin = db.edb_pinned();
    db.create("Student", vec![]).unwrap();
    assert_ne!(Arc::as_ptr(&db.edb_pinned()), Arc::as_ptr(&pin));
}
