//! Correctness oracles, run after the timed phase so they add no time
//! to the measurement. Every mismatch counts as a failed op.

use crate::{Ctx, Event, Report, SeedStore, STORE_SHARDS};
use sqo_core::PreparedOptimizer;
use sqo_service::json::{self, Json};
use std::collections::HashMap;

/// The comparable part of an explain report: the verdict and the
/// rewritten OQL of every equivalent, in order.
#[derive(Debug, PartialEq, Eq)]
struct Verdict {
    verdict: String,
    rewrites: Vec<String>,
}

fn verdict_of(report: &Json) -> Option<Verdict> {
    let verdict = report.get("verdict")?.as_str()?.to_string();
    let rewrites = match report.get("equivalents").and_then(Json::as_arr) {
        Some(eqs) => eqs
            .iter()
            .map(|e| e.get("oql").and_then(Json::as_str).map(str::to_string))
            .collect::<Option<Vec<_>>>()?,
        None => Vec::new(),
    };
    Some(Verdict { verdict, rewrites })
}

/// Compares one served response against an uncached in-process
/// optimization of the same query; `Err` describes the mismatch.
fn check_one(prep: &PreparedOptimizer, oql: &str, served: &str) -> Result<(), String> {
    let served = json::parse(served).map_err(|e| format!("unparsable response: {e}"))?;
    let got = served
        .get("report")
        .and_then(verdict_of)
        .ok_or("response lacks a report")?;
    let reference = prep
        .optimize(oql)
        .map_err(|e| format!("in-process error: {e}"))?;
    let reference = json::parse(&reference.explain_json())
        .ok()
        .as_ref()
        .and_then(verdict_of)
        .ok_or("in-process explain lacks a verdict")?;
    if got != reference {
        return Err(format!("served {got:?} != in-process {reference:?}"));
    }
    Ok(())
}

/// Checks every `(oql, served response)` pair whose response was ok;
/// returns the number of mismatches. Uses two threads.
pub fn check_served(
    prep: &PreparedOptimizer,
    served: &[(String, String)],
    report: &mut Report,
) -> u64 {
    let ok: Vec<&(String, String)> = served
        .iter()
        .filter(|(_, t)| t.starts_with(r#"{"ok":true"#))
        .collect();
    let problems: Vec<String> = std::thread::scope(|s| {
        let halves: Vec<_> = ok
            .chunks(ok.len().div_ceil(2).max(1))
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .filter_map(|(q, t)| {
                            check_one(prep, q, t).err().map(|e| format!("{q}: {e}"))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|_| vec!["oracle thread panicked".into()])
            })
            .collect()
    });
    for p in &problems {
        report.problem(format!("oracle mismatch: {p}"));
    }
    problems.len() as u64
}

/// Replays the served write history on an in-process mirror of the
/// seeded store and checks that every read's answer count equals the
/// evaluation of the *unoptimised* translation at that point of the
/// history. Returns the number of mismatches.
pub fn check_write_read(
    ctx: &Ctx,
    seed: &SeedStore,
    events: &[Event],
    report: &mut Report,
) -> Result<u64, String> {
    use sqo_objdb::{Oid, Value};
    let dir = ctx.tmp.join("mirror-store");
    let _ = std::fs::remove_dir_all(&dir);
    crate::copy_dir(&seed.dir, &dir)?;
    let mut db =
        sqo_objdb::ObjectDb::open(sqo_odl::fixtures::university_schema(), &dir, STORE_SHARDS)
            .map_err(|e| format!("mirror open: {e}"))?;
    sqo_objdb::register_university_methods(&mut db).map_err(|e| e.to_string())?;
    let mut oids: HashMap<u64, Oid> = HashMap::new();
    let mut mismatches = 0;
    for ev in events {
        match ev {
            Event::Create { name, age, oid } => {
                let mine = db
                    .create(
                        "Student",
                        vec![
                            ("name", Value::Str(name.clone())),
                            ("age", Value::Int(*age)),
                            ("student_id", Value::Str(name.clone())),
                        ],
                    )
                    .map_err(|e| format!("mirror create: {e}"))?;
                oids.insert(*oid, mine);
            }
            Event::Link { from, to } => {
                let from = *oids.get(from).ok_or("link from an unknown object")?;
                db.link(from, "takes", Oid(*to))
                    .map_err(|e| format!("mirror link: {e}"))?;
            }
            Event::Read { oql, answers } => {
                let parsed = sqo_oql::parse_oql(oql).map_err(|e| e.to_string())?;
                let t =
                    sqo_translate::translate_query(&parsed, ctx.prep.schema(), ctx.prep.catalog())
                        .map_err(|e| e.to_string())?;
                let (rows, _) = sqo_objdb::execute(&db, &t.query).map_err(|e| e.to_string())?;
                if rows.len() as u64 != *answers {
                    mismatches += 1;
                    report.problem(format!(
                        "write_read oracle: {oql}: served {answers} answers, unoptimised \
                         translation gives {}",
                        rows.len()
                    ));
                }
            }
        }
    }
    Ok(mismatches)
}
