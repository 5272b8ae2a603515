//! Per-layer probes for traced runs. Each layer is measured from
//! outside, by timing calls into that crate's public functions from
//! this process; nothing in the measured crates changes.
//!
//! The query probes run over the workload's own request shapes; the
//! write probes (`objdb.create_us`, `objdb.link_us`,
//! `objdb.edb_refresh_us`, `store.*`) replay the write_read cycle on an
//! in-process copy of the seeded store for every workload, so each
//! traced run prints every layer metric. On write_read,
//! `store.wal_bytes_per_write` is instead the served store's WAL growth
//! over the timed phase divided by its acknowledged writes.

use crate::gen::{self, Rng};
use crate::stats::Samples;
use crate::{Ctx, Report, Workload, STORE_SHARDS};
use sqo_core::{PlanCache, SemanticOptimizer};
use sqo_datalog::search::{self, Backend, SearchConfig};
use sqo_obs as obs;
use std::time::{Duration, Instant};

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed())
}

/// The workload's query shapes, as the probes see them.
fn probe_queries(ctx: &Ctx) -> Vec<String> {
    let mut rng = Rng::new(ctx.args.seed, 900);
    match ctx.args.workload {
        Workload::ServeWarm => {
            let per = if ctx.args.tiny { 1 } else { 4 };
            (0..per)
                .flat_map(|_| gen::WARM_TEMPLATES.iter())
                .map(|t| gen::render_warm(t, &mut rng))
                .collect()
        }
        Workload::ServeCold => gen::ColdGen::new(ctx.args.seed, ctx.prep.clone())
            .take(if ctx.args.tiny { 8 } else { 400 })
            .collect(),
        Workload::WriteRead => (0..if ctx.args.tiny { 2 } else { 16 })
            .flat_map(|i| {
                let c = gen::cycle(ctx.args.seed, i, &[1], &mut rng);
                [c.read_after_write, c.read_cached]
            })
            .collect(),
    }
}

#[derive(Default)]
struct QueryLayers {
    parse: Samples,
    step2: Samples,
    step3: Samples,
    step4: Samples,
    nodes: Samples,
    residues: Samples,
    subsume: Samples,
    miss: Samples,
    hit: Samples,
    explain: Samples,
    stats_delta: Samples,
    choose_best: Samples,
    execute: Samples,
    tuples: u64,
    answers: u64,
}

/// Runs every query-side probe on one query.
fn probe_query(
    ctx: &Ctx,
    search_ctx: &sqo_datalog::transform::TransformContext,
    db: &sqo_objdb::ObjectDb,
    oql: &str,
    out: &mut QueryLayers,
) -> Result<(), String> {
    let prep = &ctx.prep;
    let (parsed, d) = timed(|| sqo_oql::parse_oql(oql));
    let parsed = parsed.map_err(|e| format!("{oql}: {e}"))?;
    out.parse.push(us(d));
    let (translation, d) =
        timed(|| sqo_translate::translate_query(&parsed, prep.schema(), prep.catalog()));
    let translation = translation.map_err(|e| format!("{oql}: {e}"))?;
    out.step2.push(us(d));
    let cfg = SearchConfig::default();
    let (outcome, d) = timed(|| search::optimize(&translation.query, search_ctx, &cfg));
    out.step3.push(us(d));

    // Exact counter deltas around a single-threaded search.
    let before = obs::snapshot();
    search::optimize_with_backend(&translation.query, search_ctx, &cfg, Backend::Sequential);
    let delta = obs::snapshot().since(&before);
    out.nodes
        .push(delta.counter(obs::Counter::SearchNodesExpanded) as f64);
    out.residues
        .push(delta.counter(obs::Counter::ResiduesApplied) as f64);
    out.subsume
        .push(delta.counter(obs::Counter::SubsumeChecks) as f64);

    let variants = outcome.variants();
    if !variants.is_empty() {
        let mut total = Duration::ZERO;
        for v in variants {
            let delta = search::delta(&translation.query, &v.query);
            let (edit, d) = timed(|| {
                sqo_translate::apply_delta(
                    &translation.normalized,
                    &translation.map,
                    prep.catalog(),
                    &delta,
                )
            });
            edit.map_err(|e| format!("{oql}: {e}"))?;
            total += d;
        }
        out.step4.push(us(total) / variants.len() as f64);
    }

    let cache = PlanCache::new();
    let (miss, d) = timed(|| prep.optimize_query_cached(&cache, &parsed));
    miss.map_err(|e| format!("{oql}: {e}"))?;
    out.miss.push(us(d));
    let (hit, d) = timed(|| prep.optimize_query_cached(&cache, &parsed));
    let (report, outcome) = hit.map_err(|e| format!("{oql}: {e}"))?;
    if outcome != sqo_core::CacheOutcome::Hit {
        return Err(format!(
            "{oql}: second cached optimize was {}",
            outcome.label()
        ));
    }
    out.hit.push(us(d));
    let (_, d) = timed(|| report.explain_json());
    out.explain.push(us(d));
    let (_, d) = timed(|| {
        let a = obs::snapshot();
        let b = obs::snapshot();
        b.since(&a)
    });
    out.stats_delta.push(us(d));

    if !report.is_contradiction() {
        let (best, d) = timed(|| report.best_plan(db));
        out.choose_best.push(us(d));
        if let Some((_, eq, _)) = best {
            let (res, d) = timed(|| sqo_objdb::execute(db, &eq.datalog));
            let (_, cost) = res.map_err(|e| format!("{oql}: execute: {e}"))?;
            out.execute.push(us(d));
            out.tuples += cost.tuples_examined;
            out.answers += cost.answers as u64;
        }
    }
    Ok(())
}

/// Runs all probes for `ctx.args.workload` within the second half of
/// the run's time budget and adds the per-layer metrics to `report`.
pub fn probe(
    ctx: &Ctx,
    served_wal_per_write: Option<f64>,
    report: &mut Report,
) -> Result<(), String> {
    let budget = Duration::from_secs_f64(ctx.args.seconds / 2.0);
    let started = Instant::now();
    let reps = if ctx.args.tiny { 2 } else { 10 };

    // odl: ODL parse plus Step 1 (schema → Datalog catalog).
    let mut schema_ms = Samples::default();
    for _ in 0..reps {
        let (r, d) = timed(|| {
            sqo_odl::Schema::parse(sqo_odl::fixtures::UNIVERSITY_ODL)
                .map(|s| sqo_translate::translate_schema(&s))
        });
        r.map_err(|e| e.to_string())?;
        schema_ms.push(ms(d));
    }

    // datalog: residue compilation of the session's ICs.
    let mut compile_ms = Samples::default();
    let mut opt = SemanticOptimizer::university();
    for _ in 0..reps {
        opt = SemanticOptimizer::university();
        crate::add_ics(&mut opt)?;
        let (_, d) = timed(|| {
            opt.compile();
        });
        compile_ms.push(ms(d));
    }
    let search_ctx = opt.compile();

    // store: recovery of the seeded store, then the write cycle on it.
    let seed = crate::seed_store(ctx, "probe-seed-store")?;
    let mut recover_ms = Samples::default();
    let mut db = None;
    for rep in 0..3 {
        let dir = ctx.tmp.join(format!("probe-store-{rep}"));
        crate::copy_dir(&seed.dir, &dir)?;
        let (opened, d) = timed(|| {
            sqo_objdb::ObjectDb::open(sqo_odl::fixtures::university_schema(), &dir, STORE_SHARDS)
        });
        let mut opened = opened.map_err(|e| format!("open store: {e}"))?;
        recover_ms.push(ms(d));
        sqo_objdb::register_university_methods(&mut opened).map_err(|e| e.to_string())?;
        db = Some((opened, dir));
    }
    let (mut db, dir) = db.expect("three opens");
    db.edb_pinned();

    // Query layers over the workload's shapes, until half the budget.
    let mut q = QueryLayers::default();
    let query_deadline = started + budget.mul_f64(0.5);
    // Every warm template is probed at least once.
    let min_queries = match ctx.args.workload {
        Workload::ServeWarm => gen::WARM_TEMPLATES.len(),
        _ => 1,
    };
    for (i, oql) in probe_queries(ctx).iter().enumerate() {
        if i >= min_queries && Instant::now() >= query_deadline {
            break;
        }
        probe_query(ctx, search_ctx, &db, oql, &mut q)?;
    }

    // objdb/store write layers: the write_read cycle, in process.
    let mut create = Samples::default();
    let mut link = Samples::default();
    let mut refresh = Samples::default();
    let wal_before = crate::wal_bytes(&dir);
    let mut rng = Rng::new(ctx.args.seed, 901);
    let mut writes = 0u64;
    let write_deadline = Instant::now().max(started + budget.mul_f64(0.5)) + budget.mul_f64(0.5);
    let (min_cycles, max_cycles) = if ctx.args.tiny { (3, 3) } else { (10, 200) };
    for i in 0..max_cycles {
        if i >= min_cycles && Instant::now() >= write_deadline {
            break;
        }
        let cy = gen::cycle(ctx.args.seed, 1_000_000 + i, &seed.sections, &mut rng);
        let (oid, d) = timed(|| {
            db.create(
                "Student",
                vec![
                    ("name", sqo_objdb::Value::Str(cy.name.clone())),
                    ("age", sqo_objdb::Value::Int(cy.age)),
                    ("student_id", sqo_objdb::Value::Str(cy.name.clone())),
                ],
            )
        });
        let oid = oid.map_err(|e| format!("create: {e}"))?;
        create.push(us(d));
        let (r, d) = timed(|| db.link(oid, "takes", sqo_objdb::Oid(cy.section)));
        r.map_err(|e| format!("link: {e}"))?;
        link.push(us(d));
        writes += 2;
        let (_, d) = timed(|| db.edb_pinned());
        refresh.push(us(d));
    }
    let wal_per_write = served_wal_per_write
        .unwrap_or((crate::wal_bytes(&dir) - wal_before) as f64 / writes.max(1) as f64);

    let n = |s: &Samples| Some(s.len());
    let med = |s: &mut Samples| s.median();
    report.metric("oql.parse_us", med(&mut q.parse), "us", n(&q.parse));
    report.metric("translate.step2_us", med(&mut q.step2), "us", n(&q.step2));
    report.metric("translate.step4_us", med(&mut q.step4), "us", n(&q.step4));
    let (hit, step2, stats) = (med(&mut q.hit), med(&mut q.step2), med(&mut q.stats_delta));
    report.metric("core.optimize_hit_us", hit, "us", n(&q.hit));
    report.metric("core.optimize_miss_us", med(&mut q.miss), "us", n(&q.miss));
    report.metric(
        "core.cache_hit_self_us",
        hit - step2 - stats,
        "us",
        n(&q.hit),
    );
    report.metric(
        "core.explain_json_us",
        med(&mut q.explain),
        "us",
        n(&q.explain),
    );
    report.metric("obs.stats_delta_us", stats, "us", n(&q.stats_delta));
    report.metric("datalog.step3_us", med(&mut q.step3), "us", n(&q.step3));
    report.metric(
        "datalog.search_nodes_expanded",
        q.nodes.mean(),
        "count",
        n(&q.nodes),
    );
    report.metric(
        "datalog.residues_applied",
        q.residues.mean(),
        "count",
        n(&q.residues),
    );
    report.metric(
        "datalog.subsume_checks",
        q.subsume.mean(),
        "count",
        n(&q.subsume),
    );
    report.metric(
        "datalog.residue_compile_ms",
        med(&mut compile_ms),
        "ms",
        n(&compile_ms),
    );
    report.metric("objdb.create_us", med(&mut create), "us", n(&create));
    report.metric("objdb.link_us", med(&mut link), "us", n(&link));
    report.metric("objdb.edb_refresh_us", med(&mut refresh), "us", n(&refresh));
    report.metric(
        "objdb.choose_best_us",
        med(&mut q.choose_best),
        "us",
        n(&q.choose_best),
    );
    report.metric("objdb.execute_us", med(&mut q.execute), "us", n(&q.execute));
    report.metric(
        "objdb.tuples_examined_per_answer",
        q.tuples as f64 / q.answers.max(1) as f64,
        "count",
        n(&q.execute),
    );
    report.metric(
        "store.wal_bytes_per_write",
        wal_per_write,
        "B",
        Some(writes as usize),
    );
    report.metric(
        "store.recover_ms",
        med(&mut recover_ms),
        "ms",
        n(&recover_ms),
    );
    report.metric("odl.schema_ms", med(&mut schema_ms), "ms", n(&schema_ms));
    Ok(())
}
