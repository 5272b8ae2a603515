//! Seeded input generators: the same seed always yields the same
//! requests. Nothing here talks to the server.

use sqo_core::PreparedOptimizer;
use std::collections::HashSet;

/// The integrity constraints every session is prepared with: the
/// paper's IC1 (salary floor), IC3 (taxes floor) and IC4 (age floor).
pub const ICS: &str = "\
ic IC1: Salary > 40000 <- faculty(X, N, A, Salary, R, Ad).
ic IC3: Value > 3000 <- taxes_withheld(X, 0.1, Value), faculty(X, N, A, S, R, Ad).
ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).
";

/// splitmix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi]` (inclusive).
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

// ---------------------------------------------------------------------------
// serve_warm: a fixed template set under a Zipf mix
// ---------------------------------------------------------------------------

/// One warm template: OQL text with `{0}`, `{1}` parameter holes, each
/// drawn from a closed integer range. Every range lies strictly between
/// two adjacent knowledge-base thresholds (0.1, 30, 3000, 40000) and the
/// ranges of one template are disjoint, so a template's parameter
/// signature never changes and every post-warm-up request is a hit.
pub struct WarmTemplate {
    pub name: &'static str,
    pub oql: &'static str,
    pub params: &'static [(i64, i64)],
}

/// The paper's Application 1-4 shapes plus parameterised selections,
/// most popular first (the Zipf rank is the position in this list).
pub const WARM_TEMPLATES: &[WarmTemplate] = &[
    WarmTemplate {
        name: "a2_scope_person_age",
        oql: "select x.name from x in Person where x.age < {0}",
        params: &[(16, 29)],
    },
    WarmTemplate {
        name: "sel_faculty_salary",
        oql: "select x.name from x in Faculty where x.salary > {0}",
        params: &[(40001, 200000)],
    },
    WarmTemplate {
        name: "a1_ic3_taxes",
        oql: "select z.name, w.city from x in Student y in x.takes z in y.is_taught_by \
              w in z.address where z.taxes_withheld(10%) < {0}",
        params: &[(100, 2999)],
    },
    WarmTemplate {
        name: "sel_student_age_band",
        oql: "select x.name from x in Student where x.age > {0} and x.age < {1}",
        params: &[(16, 22), (23, 29)],
    },
    WarmTemplate {
        name: "a3_key_join",
        oql: "select list(x.student_id, t.employee_id) from x in Student y in x.takes \
              z in y.is_taught_by t in TA v in t.takes w in v.is_taught_by \
              where z.name = w.name",
        params: &[],
    },
    WarmTemplate {
        name: "a1_ic1_salary",
        oql: "select x.name from x in Faculty where x.salary < {0}",
        params: &[(3001, 39999)],
    },
    WarmTemplate {
        name: "a4_path",
        oql: "select w from x in Student y in x.takes z in y.is_section_of \
              v in z.has_sections w in v.has_ta",
        params: &[],
    },
    WarmTemplate {
        name: "a2_scope_employee_age",
        oql: "select x.name, x.salary from x in Employee where x.age < {0}",
        params: &[(16, 29)],
    },
    WarmTemplate {
        name: "a1_ic4_age",
        oql: "select x.name from x in Faculty where x.age < {0}",
        params: &[(16, 29)],
    },
    WarmTemplate {
        name: "sel_person_name",
        oql: "select x.age from x in Person where x.name = \"person{0}\"",
        params: &[(0, 999)],
    },
    WarmTemplate {
        name: "sel_faculty_age_salary",
        oql: "select x.name from x in Faculty where x.age > {0} and x.salary < {1}",
        params: &[(31, 70), (40001, 150000)],
    },
    WarmTemplate {
        name: "a1_ic4_teaches",
        oql: "select s.number from x in Faculty s in x.teaches where x.age < {0}",
        params: &[(16, 29)],
    },
    WarmTemplate {
        name: "sel_course_teacher_salary",
        oql: "select c.title from c in Course s in c.has_sections f in s.is_taught_by \
              where f.salary > {0}",
        params: &[(40001, 150000)],
    },
    WarmTemplate {
        name: "a4_path_age",
        oql: "select w from x in Student y in x.takes z in y.is_section_of \
              v in z.has_sections w in v.has_ta where x.age > {0}",
        params: &[(31, 80)],
    },
    WarmTemplate {
        name: "sel_ta_age",
        oql: "select x.name from x in TA where x.age < {0}",
        params: &[(16, 29)],
    },
    WarmTemplate {
        name: "a1_ic4_taught_by",
        oql: "select x.name, y.number from x in Student y in x.takes z in y.is_taught_by \
              where z.age < {0} and x.age > {1}",
        params: &[(16, 29), (31, 80)],
    },
];

/// Renders a template with freshly drawn parameters.
pub fn render_warm(t: &WarmTemplate, rng: &mut Rng) -> String {
    let mut out = t.oql.to_string();
    for (i, &(lo, hi)) in t.params.iter().enumerate() {
        out = out.replace(&format!("{{{i}}}"), &rng.range(lo, hi).to_string());
    }
    out
}

/// Zipf(s = 1) over template ranks.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cumulative = Vec::with_capacity(n);
        for k in 0..n {
            acc += 1.0 / (k + 1) as f64;
            cumulative.push(acc);
        }
        for c in &mut cumulative {
            *c /= acc;
        }
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cumulative
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cumulative.len() - 1)
    }
}

/// The warm request stream of one client: `(template index, OQL)`.
pub fn warm_stream(seed: u64, client: u64) -> impl Iterator<Item = (usize, String)> {
    let zipf = Zipf::new(WARM_TEMPLATES.len());
    let mut rng = Rng::new(seed, 100 + client);
    std::iter::repeat_with(move || {
        let t = zipf.sample(&mut rng);
        (t, render_warm(&WARM_TEMPLATES[t], &mut rng))
    })
}

// ---------------------------------------------------------------------------
// serve_cold: random valid OQL, one request per canonical template
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
enum Attr {
    /// A numeric attribute and the IC threshold its constants straddle
    /// (age: IC4's 30, salary: IC1's 40000), with the half-width of the
    /// range constants are drawn from on either side.
    Num(&'static str, i64, i64),
    /// `taxes_withheld(10%)`, straddling IC3's 3000.
    Taxes,
    /// A string attribute; constants are `<name><n>`.
    Str(&'static str),
}

struct Class {
    name: &'static str,
    attrs: &'static [Attr],
    rels: &'static [(&'static str, usize)],
}

const AGE: Attr = Attr::Num("age", 30, 10);
const SALARY: Attr = Attr::Num("salary", 40000, 10000);

// Indexes into CLASSES for relationship targets.
const FACULTY: usize = 2;
const STUDENT: usize = 3;
const TA: usize = 4;
const COURSE: usize = 5;
const SECTION: usize = 6;

const CLASSES: &[Class] = &[
    Class {
        name: "Person",
        attrs: &[Attr::Str("name"), AGE],
        rels: &[],
    },
    Class {
        name: "Employee",
        attrs: &[Attr::Str("name"), AGE, SALARY, Attr::Taxes],
        rels: &[],
    },
    Class {
        name: "Faculty",
        attrs: &[
            Attr::Str("name"),
            AGE,
            SALARY,
            Attr::Taxes,
            Attr::Str("rank"),
        ],
        rels: &[("teaches", SECTION)],
    },
    Class {
        name: "Student",
        attrs: &[Attr::Str("name"), AGE, Attr::Str("student_id")],
        rels: &[("takes", SECTION)],
    },
    Class {
        name: "TA",
        attrs: &[Attr::Str("name"), AGE, Attr::Str("employee_id")],
        rels: &[("takes", SECTION), ("assists", SECTION)],
    },
    Class {
        name: "Course",
        attrs: &[Attr::Str("number"), Attr::Str("title")],
        rels: &[("has_sections", SECTION)],
    },
    Class {
        name: "Section",
        attrs: &[Attr::Str("number")],
        rels: &[
            ("is_section_of", COURSE),
            ("is_taught_by", FACULTY),
            ("has_ta", TA),
            ("taken_by", STUDENT),
        ],
    },
];

/// Seed of the cold *shape* stream. Shapes (root class, hops, compared
/// attributes, operators, and which side of its threshold each constant
/// falls on) come from this fixed stream; the run's `--seed` draws the
/// constants within their side. Step-3 cost is a function of the shape
/// and the constants' sides, so every seed times the same cost mix —
/// heavy tail included — and runs of different seeds stay comparable.
const COLD_SHAPE_SEED: u64 = 0x5eed_c01d;

/// A constant within `half` of `threshold`, on the side `side` picks
/// (0: below, 1: above, 2: equal).
fn straddle(threshold: i64, half: i64, side: usize, consts: &mut Rng) -> i64 {
    match side {
        0 => consts.range(threshold - half, threshold - 1),
        1 => consts.range(threshold + 1, threshold + half),
        _ => threshold,
    }
}

/// One query: a root class, 0-2 relationship hops, 1-3 comparisons
/// whose constants straddle the IC thresholds.
fn cold_query(shape: &mut Rng, consts: &mut Rng) -> String {
    let mut vars: Vec<(String, usize)> = Vec::new();
    let root = shape.below(CLASSES.len());
    let mut from = format!("x0 in {}", CLASSES[root].name);
    vars.push(("x0".into(), root));
    for hop in 1..=shape.below(3) {
        let (_, cur) = vars[hop - 1];
        let rels = CLASSES[cur].rels;
        if rels.is_empty() {
            break;
        }
        let (rel, target) = rels[shape.below(rels.len())];
        from.push_str(&format!(" x{hop} in x{}.{rel}", hop - 1));
        vars.push((format!("x{hop}"), target));
    }
    let mut conds = Vec::new();
    for _ in 0..1 + shape.below(3) {
        let (v, class) = &vars[shape.below(vars.len())];
        let attrs = CLASSES[*class].attrs;
        // Mostly below or above the threshold, sometimes on it.
        let side = [0, 0, 1, 1, 2][shape.below(5)];
        let cond = match attrs[shape.below(attrs.len())] {
            Attr::Num(name, threshold, half) => {
                let op = ["<", "<=", ">", ">=", "="][shape.below(5)];
                let c = straddle(threshold, half, side, consts);
                format!("{v}.{name} {op} {c}")
            }
            Attr::Taxes => {
                let op = ["<", "<=", ">", ">="][shape.below(4)];
                let c = straddle(3000, 1000, side, consts);
                format!("{v}.taxes_withheld(10%) {op} {c}")
            }
            Attr::Str(name) => format!("{v}.{name} = \"{name}{}\"", consts.below(500)),
        };
        conds.push(cond);
    }
    let (pv, pclass) = &vars[shape.below(vars.len())];
    let proj = match CLASSES[*pclass].attrs[0] {
        Attr::Str(name) | Attr::Num(name, _, _) => name,
        Attr::Taxes => "name",
    };
    format!(
        "select {pv}.{proj} from {from} where {}",
        conds.join(" and ")
    )
}

/// Generates cold queries, keeping only those whose canonical template
/// (Step 2 translation, constants lifted) was never produced before, so
/// none of them can hit the plan cache. Deduplicating by template is
/// stricter than by template and parameter signature: no request can
/// even rebind. Candidates that do not parse or translate are skipped.
pub struct ColdGen {
    shape: Rng,
    consts: Rng,
    seen: HashSet<u64>,
    prep: std::sync::Arc<PreparedOptimizer>,
}

impl ColdGen {
    pub fn new(seed: u64, prep: std::sync::Arc<PreparedOptimizer>) -> ColdGen {
        ColdGen {
            shape: Rng::new(COLD_SHAPE_SEED, 7),
            consts: Rng::new(seed, 8),
            seen: HashSet::new(),
            prep,
        }
    }

    /// Canonical template hash of a query, if it parses and translates.
    fn template_hash(prep: &PreparedOptimizer, oql: &str) -> Option<u64> {
        let parsed = sqo_oql::parse_oql(oql).ok()?;
        let t = sqo_translate::translate_query(&parsed, prep.schema(), prep.catalog()).ok()?;
        Some(t.query.canonical_template().hash)
    }
}

impl Iterator for ColdGen {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        loop {
            let q = cold_query(&mut self.shape, &mut self.consts);
            if let Some(h) = Self::template_hash(&self.prep, &q) {
                if self.seen.insert(h) {
                    return Some(q);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// write_read: the seeded store and the write-then-read cycle
// ---------------------------------------------------------------------------

/// The saved university base the store directory is seeded with (about
/// 3.3k objects including address structures). The base is the same for
/// every `--seed` (the generator's own default seed); the run's seed
/// drives the write-then-read cycle. The EDB rebuild a read after a
/// write pays is a function of the base, so every seed times the same
/// base.
pub fn seed_base(tiny: bool) -> sqo_objdb::UniversityConfig {
    let k = if tiny { 4 } else { 1 };
    sqo_objdb::UniversityConfig {
        persons: 400 / k,
        students: 800 / k,
        faculty: 80 / k,
        courses: 60 / k,
        sections_per_course: 3,
        takes_per_student: 4,
        ..Default::default()
    }
}

/// The requests of one write-then-read cycle.
pub struct Cycle {
    pub name: String,
    pub age: i64,
    pub section: u64,
    /// The path query that must see the new link.
    pub read_after_write: String,
    /// A cached selection with no write since the previous read.
    pub read_cached: String,
}

pub fn cycle(seed: u64, i: u64, sections: &[u64], rng: &mut Rng) -> Cycle {
    let name = format!("bench_{seed}_{i}");
    let age = rng.range(18, 29);
    let section = sections[rng.below(sections.len())];
    Cycle {
        read_after_write: format!(
            "select x.name, y.number from x in Student y in x.takes where x.name = \"{name}\""
        ),
        read_cached: format!(
            "select x.name from x in Student where x.age < {}",
            rng.range(16, 29)
        ),
        name,
        age,
        section,
    }
}

pub fn create_request(c: &Cycle) -> String {
    format!(
        r#"{{"op":"create","class":"Student","attrs":{{"name":"{}","age":{},"student_id":"{}"}}}}"#,
        c.name, c.age, c.name
    )
}

pub fn link_request(student: u64, section: u64) -> String {
    format!(r#"{{"op":"link","from":{student},"rel":"takes","to":{section}}}"#)
}

pub fn query_request(oql: &str, execute: bool) -> String {
    let exec = if execute { r#","execute":true"# } else { "" };
    format!(
        r#"{{"op":"query","oql":{}{exec}}}"#,
        sqo_obs::json_string(oql)
    )
}
