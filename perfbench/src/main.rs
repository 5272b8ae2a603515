//! `perfbench` — the served-path benchmark of the SQO pipeline.
//!
//! The paper's bargain is to pay once for semantic compilation and the
//! Step-3 residue search, then answer each query through a cheaper
//! rewrite. A user of this repository sees that bargain as the latency
//! of `sqo serve` over the wire, so this benchmark builds the release
//! `sqo` binary, starts `sqo serve --workers 2` as a separate process,
//! and drives it over loopback from this process (at most two client
//! threads and two connections).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_warm --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run it from the repository root. `--trace 0` runs the timed wire
//! phase and prints the end-to-end metrics; `--trace 1` runs a shorter
//! wire phase plus in-process probes of each crate's public functions
//! and prints the per-layer metrics. `--size tiny` shrinks every input
//! (used by the benchmark's own tests). Every run checks every answer
//! against an oracle after the timed phase, prints one human-readable
//! line per metric (value, unit, sample count), and ends with one JSON
//! line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
//!
//! Workloads, why each was chosen, and which layer metric should move
//! which end-to-end metric, are documented on [`Workload`].

mod gen;
mod layers;
mod oracle;
mod stats;
mod wire;

use stats::Samples;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wire::{Client, ServerProc};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two clients, a Zipf mix over 16 fixed OQL templates (the paper's
    /// Application 1-4 shapes plus parameterised selections) with IC1,
    /// IC3 and IC4 loaded. Constants keep each template's parameter
    /// signature fixed, so after the untimed warm-up every request is a
    /// plan-cache hit; requests are optimize-only.
    ///
    /// *Why:* Step 3 and `objdb` do almost no work, so the cost is the
    /// per-request served path: framing, JSON, admission, Step 2, cache
    /// lookup and retarget, Step 4 mapping, stats snapshots and explain
    /// serialisation.
    ///
    /// *Layers → end to end:* `service.wire_us`, `translate.step2_us`,
    /// `core.cache_hit_self_us`, `obs.stats_delta_us`,
    /// `core.explain_json_us` and `service.response_bytes` move
    /// `query_p50_us` and `throughput_ops_s` here;
    /// `core.plan_cache_hit_ratio` must read 1.
    ServeWarm,
    /// One client sending seeded random OQL over the university schema
    /// (a root class, 0-2 relationship hops, 1-3 comparisons whose
    /// constants straddle the IC thresholds), one request per canonical
    /// template, so every request misses the plan cache. Optimize-only.
    ///
    /// *Why:* `datalog::search` (Step 3) dominates; a Step-3 or
    /// cost-pruning change shows here, a hit-path change should not.
    ///
    /// *Layers → end to end:* `datalog.step3_us` (with
    /// `datalog.search_nodes_expanded`, `datalog.residues_applied`,
    /// `datalog.subsume_checks`) and `core.optimize_miss_us` move
    /// `query_p50_us` and `query_tail_us` here; `translate.step4_us`
    /// moves both serve workloads; `core.plan_cache_hit_ratio` must
    /// read 0.
    ServeCold,
    /// One client on `sqo serve --store-path` over a fresh copy of a
    /// saved university base (~3.3k objects). Each cycle sends `create`
    /// a Student, `link` it `takes` an existing Section, an executed
    /// path query that must see the new link (the read after the
    /// write), and an executed cached selection with no write since the
    /// previous read. The store keeps its own flush policy: every WAL
    /// record is handed to the OS in one `write` before the write is
    /// acknowledged (it survives a process kill); fsync happens only on
    /// snapshot.
    ///
    /// *Why:* it exercises `store` (WAL append), `objdb` (EDB refresh,
    /// `best_plan` costing, execute) and the write ops; the plan cache
    /// is all hits. The two reads separate refresh cost from execute
    /// cost, so trading write cost for read cost shows on both sides.
    ///
    /// Here `query_p50_us` and `query_tail_us` (p90) time the read after
    /// the write; the write and cached-read latencies are printed
    /// beside them.
    ///
    /// *Layers → end to end:* `objdb.edb_refresh_us` moves
    /// `query_p50_us` and `query_tail_us` here (and nothing on
    /// `serve_*`); `objdb.create_us`, `objdb.link_us` and
    /// `store.wal_bytes_per_write` move the write latencies and
    /// `throughput_ops_s`; `store.recover_ms` moves `setup_s`.
    WriteRead,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "serve_warm" => Some(Workload::ServeWarm),
            "serve_cold" => Some(Workload::ServeCold),
            "write_read" => Some(Workload::WriteRead),
            _ => None,
        }
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut tiny = false;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? != "0",
            "--size" => tiny = value()? == "tiny",
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        tiny,
    })
}

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, when it is a statistic of samples.
    pub count: Option<usize>,
    /// Whether the metric belongs in the final JSON line (the names
    /// listed in `BENCHMARK.json` for this trace mode).
    pub json: bool,
}

/// What a run measured and checked.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Report {
    pub fn metric(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        count: Option<usize>,
    ) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            count,
            json: true,
        });
    }

    /// A metric printed for people but left out of the JSON line.
    pub fn info(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        count: Option<usize>,
    ) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            count,
            json: false,
        });
    }

    pub fn problem(&mut self, p: String) {
        eprintln!("perfbench: CHECK FAILED: {p}");
        self.problems.push(p);
    }
}

/// Run-wide context.
pub struct Ctx {
    pub args: Args,
    pub sqo: PathBuf,
    pub tmp: PathBuf,
    pub prep: Arc<sqo_core::PreparedOptimizer>,
    ics_path: PathBuf,
    spawned: usize,
}

impl Ctx {
    /// Spawns a fresh `sqo serve` for this run's session.
    fn spawn(&mut self, store: Option<&Path>) -> Result<ServerProc, String> {
        let mut args: Vec<String> = vec![
            "--university".into(),
            "--ic".into(),
            self.ics_path.display().to_string(),
            "--workers".into(),
            "2".into(),
        ];
        let mut env = Vec::new();
        if let Some(dir) = store {
            args.extend([
                "--store-path".into(),
                dir.display().to_string(),
                "--store-shards".into(),
                STORE_SHARDS.to_string(),
            ]);
            // Each read after a write rebuilds the EDB (~10 MB) on
            // whichever worker serves it. With glibc's per-thread arenas
            // the freed copies land in one or two arenas depending on
            // that scheduling race, so the same run peaks at ~22 or
            // ~32 MB. One arena makes peak RSS a function of the workload.
            env.push(("MALLOC_ARENA_MAX", "1"));
        }
        self.spawned += 1;
        let log = self.tmp.join(format!("server-{}.log", self.spawned));
        ServerProc::spawn(&self.sqo, &args, &env, &log)
    }

    fn setup_reps(&self) -> usize {
        if self.args.tiny {
            2
        } else {
            3
        }
    }

    /// Length of the timed wire phase.
    fn wire_seconds(&self) -> Duration {
        let s = if self.args.trace {
            self.args.seconds / 2.0
        } else {
            self.args.seconds
        };
        Duration::from_secs_f64(s)
    }
}

/// Shard count of the seeded store (passed to the server as well).
pub const STORE_SHARDS: usize = 8;

/// The in-process mirror of the served session: same schema, same ICs.
pub fn prepared_session() -> Result<sqo_core::PreparedOptimizer, String> {
    let mut opt = sqo_core::SemanticOptimizer::university();
    add_ics(&mut opt)?;
    Ok(opt.prepare())
}

/// Adds the session's ICs ([`gen::ICS`], one per line).
pub fn add_ics(opt: &mut sqo_core::SemanticOptimizer) -> Result<(), String> {
    for line in gen::ICS.lines().filter(|l| !l.trim().is_empty()) {
        opt.add_constraint_text(line).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Fields of a response envelope, read without a full JSON parse (the
/// envelope precedes the embedded `report`).
#[derive(Debug, Default, Clone)]
pub struct Envelope {
    pub ok: bool,
    pub cache: Option<String>,
    pub elapsed_us: Option<u64>,
    pub answers: Option<u64>,
    pub oid: Option<u64>,
}

impl Envelope {
    pub fn scan(text: &str) -> Envelope {
        let head = match text.find(r#""report":"#) {
            Some(i) => &text[..i],
            None => text,
        };
        let num = |key: &str| -> Option<u64> {
            let i = head.find(key)? + key.len();
            let digits: String = head[i..].chars().take_while(char::is_ascii_digit).collect();
            digits.parse().ok()
        };
        let cache = head.find(r#""cache":""#).map(|i| {
            let rest = &head[i + 9..];
            rest[..rest.find('"').unwrap_or(0)].to_string()
        });
        Envelope {
            ok: head.starts_with(r#"{"ok":true"#),
            cache,
            elapsed_us: num(r#""elapsed_us":"#),
            answers: num(r#""answers":"#),
            oid: num(r#""oid":"#),
        }
    }
}

/// One timed request as the client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    pub latency_us: f64,
    pub bytes: usize,
    pub env: Envelope,
}

/// The timed phase is cut into this many equal windows by completion
/// time. Each window's quantiles are exact (nearest rank over all of its
/// samples); the reported median latency and throughput are medians over
/// the windows, so a burst of outside load in one window does not move
/// them. Tail quantiles are exact over all samples of the phase.
pub const WINDOWS: usize = 5;

/// Samples gathered during a timed wire phase.
pub struct WireStats {
    start: Instant,
    window: Duration,
    /// When set, every completion lands in this window.
    pinned: Option<usize>,
    /// First and last acknowledged completion, per window.
    span: Vec<Option<(Instant, Instant)>>,
    /// Primary query latency, per window.
    pub latency: Vec<Samples>,
    /// Acknowledged ops, per window.
    pub acked: Vec<u64>,
    pub wire: Samples,
    pub server_elapsed: Samples,
    pub bytes: Samples,
    pub queries: u64,
    pub hits: u64,
    pub ops: u64,
    pub failed: u64,
}

impl WireStats {
    pub fn new(start: Instant, length: Duration) -> WireStats {
        WireStats {
            start,
            window: length.div_f64(WINDOWS as f64),
            pinned: None,
            span: vec![None; WINDOWS],
            latency: vec![Samples::default(); WINDOWS],
            acked: vec![0; WINDOWS],
            wire: Samples::default(),
            server_elapsed: Samples::default(),
            bytes: Samples::default(),
            queries: 0,
            hits: 0,
            ops: 0,
            failed: 0,
        }
    }

    fn window_now(&self) -> usize {
        let i = self.start.elapsed().as_secs_f64() / self.window.as_secs_f64();
        self.pinned.unwrap_or((i as usize).min(WINDOWS - 1))
    }

    /// Sends every later completion to window `w` (for phases that run
    /// each window on its own server).
    pub fn pin_window(&mut self, w: usize) {
        self.pinned = Some(w);
    }

    /// Accounts one op that just completed.
    pub fn op(&mut self, ok: bool) {
        self.ops += 1;
        if ok {
            let w = self.window_now();
            self.acked[w] += 1;
            let now = Instant::now();
            let span = self.span[w].get_or_insert((now, now));
            span.1 = now;
        } else {
            self.failed += 1;
        }
    }

    /// Accounts one query response; `primary` queries feed the
    /// workload's `query_*` latency.
    pub fn query(&mut self, s: &Sample, primary: bool) {
        self.op(s.env.ok);
        self.queries += 1;
        if !s.env.ok {
            return;
        }
        if primary {
            let w = self.window_now();
            self.latency[w].push(s.latency_us);
        }
        self.bytes.push(s.bytes as f64);
        if let Some(e) = s.env.elapsed_us {
            self.server_elapsed.push(e as f64);
            self.wire.push(s.latency_us - e as f64);
        }
        if s.env.cache.as_deref() == Some("hit") {
            self.hits += 1;
        }
    }

    pub fn merge(&mut self, o: WireStats) {
        for (a, b) in self.latency.iter_mut().zip(&o.latency) {
            a.extend(b);
        }
        for (a, b) in self.acked.iter_mut().zip(&o.acked) {
            *a += b;
        }
        for (a, b) in self.span.iter_mut().zip(&o.span) {
            *a = match (*a, *b) {
                (Some((f1, l1)), Some((f2, l2))) => Some((f1.min(f2), l1.max(l2))),
                (x, y) => x.or(y),
            };
        }
        self.wire.extend(&o.wire);
        self.server_elapsed.extend(&o.server_elapsed);
        self.bytes.extend(&o.bytes);
        self.queries += o.queries;
        self.hits += o.hits;
        self.ops += o.ops;
        self.failed += o.failed;
    }

    /// Median over windows of the windows' exact `q` quantiles, and the
    /// total sample count.
    pub fn latency_quantile(&mut self, q: f64) -> (f64, usize) {
        let mut per = Samples::default();
        for w in &mut self.latency {
            if !w.is_empty() {
                per.push(w.quantile(q));
            }
        }
        (per.median(), self.latency.iter().map(Samples::len).sum())
    }

    /// The exact `q` quantile over every window's samples together (for
    /// tails, which a single window holds too few samples to resolve).
    pub fn latency_quantile_all(&self, q: f64) -> (f64, usize) {
        let mut all = Samples::default();
        for w in &self.latency {
            all.extend(w);
        }
        (all.quantile(q), all.len())
    }

    /// Median over windows of acknowledged ops per second, each window's
    /// rate taken between its first and last acknowledgement.
    pub fn throughput(&self) -> f64 {
        let mut per = Samples::default();
        for (&n, span) in self.acked.iter().zip(&self.span) {
            if let Some((first, last)) = span {
                if n > 1 && last > first {
                    per.push((n - 1) as f64 / (*last - *first).as_secs_f64());
                }
            }
        }
        per.median()
    }
}

/// Sends one request and wraps the reply as a [`Sample`].
pub fn send(client: &mut Client, req: &str) -> Result<(Sample, String), String> {
    let (text, latency) = client.request(req)?;
    let sample = Sample {
        latency_us: latency.as_secs_f64() * 1e6,
        bytes: text.len() + 1,
        env: Envelope::scan(&text),
    };
    Ok((sample, text))
}

/// Numbers every workload's wire phase hands back.
pub struct WirePhase {
    pub setups: Samples,
    pub stats: WireStats,
    pub peak_rss_mb: f64,
    pub ping: Samples,
}

/// Pings the server `n` times on one connection (the transport floor).
fn ping_rtts(addr: std::net::SocketAddr, n: usize) -> Result<Samples, String> {
    let mut c = Client::connect(addr)?;
    let mut s = Samples::default();
    for _ in 0..n {
        let (text, lat) = c.request(r#"{"op":"ping"}"#)?;
        if !text.starts_with(r#"{"ok":true"#) {
            return Err(format!("ping failed: {text}"));
        }
        s.push(lat.as_secs_f64() * 1e6);
    }
    Ok(s)
}

/// Ends the timed phase of a server: pings (traced runs), reads the
/// peak RSS, then shuts the server down.
fn finish_server(ctx: &Ctx, server: ServerProc) -> Result<(f64, Samples), String> {
    let ping = if ctx.args.trace {
        ping_rtts(server.addr, if ctx.args.tiny { 20 } else { 500 })?
    } else {
        Samples::default()
    };
    let rss = server.peak_rss_mb()?;
    server.shutdown()?;
    Ok((rss, ping))
}

// ---------------------------------------------------------------------------
// serve_warm
// ---------------------------------------------------------------------------

/// How many served responses per template and client the oracle
/// re-derives. A template's parameter signature is fixed by
/// construction, so each check covers a distinct template and
/// signature, answered through a retargeted cached plan.
const ORACLE_PER_TEMPLATE: usize = 1;

fn run_serve_warm(ctx: &mut Ctx, report: &mut Report) -> Result<WirePhase, String> {
    let n_templates = gen::WARM_TEMPLATES.len();
    let warm_per_client = if ctx.args.tiny { 20 } else { 200 };
    let mut setups = Samples::default();
    let mut server = None;
    for rep in 0..ctx.setup_reps() {
        if let Some(s) = server.take() {
            ServerProc::shutdown(s)?;
        }
        let t0 = Instant::now();
        let s = ctx.spawn(None)?;
        let mut c = Client::connect(s.addr)?;
        let mut rng = gen::Rng::new(ctx.args.seed, 50 + rep as u64);
        for (i, t) in gen::WARM_TEMPLATES.iter().enumerate() {
            let (sample, text) = send(
                &mut c,
                &gen::query_request(&gen::render_warm(t, &mut rng), false),
            )?;
            if !sample.env.ok {
                return Err(format!(
                    "warm-up of template {i} ({}) failed: {text}",
                    t.name
                ));
            }
        }
        for client in 0..2u64 {
            let mut c = Client::connect(s.addr)?;
            for (_, oql) in gen::warm_stream(ctx.args.seed, 10 + client).take(warm_per_client) {
                let (sample, text) = send(&mut c, &gen::query_request(&oql, false))?;
                if !sample.env.ok || sample.env.cache.as_deref() != Some("hit") {
                    return Err(format!("warm-up request was not an ok hit: {text}"));
                }
            }
        }
        setups.push(t0.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one setup");
    let addr = server.addr;
    let seed = ctx.args.seed;
    let deadline_len = ctx.wire_seconds();
    let started = Instant::now();
    let deadline = started + deadline_len;
    let handles: Vec<_> = (0..2u64)
        .map(|client| {
            std::thread::spawn(
                move || -> Result<(WireStats, Vec<(String, String)>), String> {
                    let mut c = Client::connect(addr)?;
                    let mut stats = WireStats::new(started, deadline_len);
                    let mut kept = vec![0usize; n_templates];
                    let mut oracle = Vec::new();
                    for (t, oql) in gen::warm_stream(seed, client) {
                        if Instant::now() >= deadline {
                            break;
                        }
                        let (sample, text) = send(&mut c, &gen::query_request(&oql, false))?;
                        stats.query(&sample, true);
                        if sample.env.ok && kept[t] < ORACLE_PER_TEMPLATE {
                            kept[t] += 1;
                            oracle.push((oql, text));
                        }
                    }
                    Ok((stats, oracle))
                },
            )
        })
        .collect();
    let mut stats = WireStats::new(started, deadline_len);
    let mut served = Vec::new();
    for h in handles {
        let (s, o) = h
            .join()
            .map_err(|_| "client thread panicked".to_string())??;
        stats.merge(s);
        served.extend(o);
    }
    let (peak_rss_mb, ping) = finish_server(ctx, server)?;

    if stats.hits != stats.queries {
        report.problem(format!(
            "serve_warm: {} of {} timed requests were not plan-cache hits",
            stats.queries - stats.hits,
            stats.queries
        ));
    }
    let mismatches = oracle::check_served(&ctx.prep, &served, report);
    stats.failed += mismatches;
    report.info("oracle_checks", served.len() as f64, "count", None);
    Ok(WirePhase {
        setups,
        stats,
        peak_rss_mb,
        ping,
    })
}

// ---------------------------------------------------------------------------
// serve_cold
// ---------------------------------------------------------------------------

fn run_serve_cold(ctx: &mut Ctx, report: &mut Report) -> Result<WirePhase, String> {
    // Inputs first (not part of set-up): enough distinct-template
    // queries for the timed phase, extended on demand if it runs out.
    let mut generator = gen::ColdGen::new(ctx.args.seed, Arc::clone(&ctx.prep));
    let per_second = if ctx.args.tiny { 100.0 } else { 200.0 };
    let pool: Vec<String> = generator
        .by_ref()
        .take((ctx.wire_seconds().as_secs_f64() * per_second) as usize + 16)
        .collect();
    let mut setups = Samples::default();
    let mut server = None;
    for _ in 0..ctx.setup_reps() {
        if let Some(s) = server.take() {
            ServerProc::shutdown(s)?;
        }
        let t0 = Instant::now();
        let s = ctx.spawn(None)?;
        let mut c = Client::connect(s.addr)?;
        let (text, _) = c.request(r#"{"op":"ping"}"#)?;
        if !text.starts_with(r#"{"ok":true"#) {
            return Err(format!("ping failed: {text}"));
        }
        setups.push(t0.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one setup");
    let mut c = Client::connect(server.addr)?;
    let mut served: Vec<(String, String)> = Vec::new();
    let started = Instant::now();
    let deadline = started + ctx.wire_seconds();
    let mut stats = WireStats::new(started, ctx.wire_seconds());
    let mut queries = pool.into_iter().chain(generator);
    while Instant::now() < deadline {
        let oql = queries.next().expect("the generator never ends");
        let (sample, text) = send(&mut c, &gen::query_request(&oql, false))?;
        stats.query(&sample, true);
        if !sample.env.ok {
            report.problem(format!("serve_cold request failed: {oql}: {text}"));
        }
        served.push((oql, text));
    }
    drop(c);
    let (peak_rss_mb, ping) = finish_server(ctx, server)?;
    if stats.hits != 0 {
        report.problem(format!(
            "serve_cold: {} of {} timed requests were plan-cache hits",
            stats.hits, stats.queries
        ));
    }
    let mismatches = oracle::check_served(&ctx.prep, &served, report);
    stats.failed += mismatches;
    report.info("oracle_checks", served.len() as f64, "count", None);
    Ok(WirePhase {
        setups,
        stats,
        peak_rss_mb,
        ping,
    })
}

// ---------------------------------------------------------------------------
// write_read
// ---------------------------------------------------------------------------

/// One acknowledged step of the write-then-read history, replayed by
/// the oracle on an in-process mirror.
#[derive(Debug, Clone)]
pub enum Event {
    Create { name: String, age: i64, oid: u64 },
    Link { from: u64, to: u64 },
    Read { oql: String, answers: u64 },
}

/// Per-op-class samples of the write_read timed phase.
#[derive(Default)]
struct WriteReadStats {
    writes: Samples,
    raw: Samples,
    cached: Samples,
}

/// Runs one cycle, appending its events; returns the four samples.
fn write_read_cycle(
    c: &mut Client,
    cy: &gen::Cycle,
    events: &mut Vec<Event>,
) -> Result<[Sample; 4], String> {
    let (create, text) = send(c, &gen::create_request(cy))?;
    let oid = match (create.env.ok, create.env.oid) {
        (true, Some(oid)) => oid,
        _ => return Err(format!("create failed: {text}")),
    };
    events.push(Event::Create {
        name: cy.name.clone(),
        age: cy.age,
        oid,
    });
    let (link, text) = send(c, &gen::link_request(oid, cy.section))?;
    if !link.env.ok {
        return Err(format!("link failed: {text}"));
    }
    events.push(Event::Link {
        from: oid,
        to: cy.section,
    });
    let mut reads = Vec::with_capacity(2);
    for oql in [&cy.read_after_write, &cy.read_cached] {
        let (s, text) = send(c, &gen::query_request(oql, true))?;
        match (s.env.ok, s.env.answers) {
            (true, Some(answers)) => events.push(Event::Read {
                oql: oql.clone(),
                answers,
            }),
            _ => return Err(format!("read failed: {oql}: {text}")),
        }
        reads.push(s);
    }
    let cached = reads.pop().expect("two reads");
    let raw = reads.pop().expect("two reads");
    Ok([create, link, raw, cached])
}

/// Total size of the store's WAL files.
fn wal_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter(|e| {
                    let n = e.file_name();
                    let n = n.to_string_lossy();
                    n.starts_with("wal-") && n.ends_with(".log")
                })
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("mkdir {}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let target = to.join(entry.file_name());
        if entry.file_type().map_err(|e| e.to_string())?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target).map_err(|e| format!("copy: {e}"))?;
        }
    }
    Ok(())
}

/// The saved university base every write_read server starts from.
pub struct SeedStore {
    pub dir: PathBuf,
    pub sections: Vec<u64>,
    pub objects: usize,
}

pub fn seed_store(ctx: &Ctx, name: &str) -> Result<SeedStore, String> {
    let data = gen::seed_base(ctx.args.tiny)
        .build()
        .map_err(|e| e.to_string())?;
    let dir = ctx.tmp.join(name);
    data.db
        .save_to(&dir, STORE_SHARDS)
        .map_err(|e| format!("save seed store: {e}"))?;
    Ok(SeedStore {
        dir,
        sections: data.sections.iter().map(|o| o.0).collect(),
        objects: data.db.object_count(),
    })
}

/// write_read runs as [`WINDOWS`] episodes, each one window of the timed
/// phase: a fresh server recovers a fresh copy of the seeded store, one
/// untimed warm-up cycle runs, then cycles run for the window. Each
/// episode's set-up is one `setup_s` sample and its peak RSS one
/// `server_peak_rss_mb` sample. Writes make the store grow and later
/// reads slower, so restarting from the same saved state keeps every
/// window's latency comparable across runs.
fn run_write_read(ctx: &mut Ctx, report: &mut Report) -> Result<(WirePhase, f64), String> {
    let seed = seed_store(ctx, "seed-store")?;
    report.info("seed_objects", seed.objects as f64, "count", None);
    let episode_len = ctx.wire_seconds().div_f64(WINDOWS as f64);
    let mut setups = Samples::default();
    let mut rss = Samples::default();
    let mut ping = Samples::default();
    let mut stats = WireStats::new(Instant::now(), ctx.wire_seconds());
    let mut wr = WriteReadStats::default();
    let mut episodes: Vec<Vec<Event>> = Vec::new();
    let (mut writes, mut wal_growth) = (0u64, 0u64);
    for ep in 0..WINDOWS {
        let store_dir = ctx.tmp.join(format!("store-{ep}"));
        copy_dir(&seed.dir, &store_dir)?;
        let mut events = Vec::new();
        let mut rng = gen::Rng::new(ctx.args.seed, 3 + ep as u64);
        let mut next_cycle = 0u64;
        let run_seed = ctx.args.seed;
        let mut cycle = |rng: &mut gen::Rng| {
            next_cycle += 1;
            gen::cycle(
                run_seed,
                ep as u64 * 1_000_000 + next_cycle,
                &seed.sections,
                rng,
            )
        };
        let t0 = Instant::now();
        let server = ctx.spawn(Some(&store_dir))?;
        let mut c = Client::connect(server.addr)?;
        // Warm-up: one full cycle caches both read templates and builds
        // the first EDB after recovery.
        write_read_cycle(&mut c, &cycle(&mut rng), &mut events)?;
        setups.push(t0.elapsed().as_secs_f64());

        stats.pin_window(ep);
        let wal_before = wal_bytes(&store_dir);
        let deadline = Instant::now() + episode_len;
        while Instant::now() < deadline {
            let [create, link, raw, cached] =
                write_read_cycle(&mut c, &cycle(&mut rng), &mut events)?;
            for w in [&create, &link] {
                stats.op(true);
                wr.writes.push(w.latency_us);
            }
            writes += 2;
            // query_* on write_read describe the read after the write.
            stats.query(&raw, true);
            stats.query(&cached, false);
            wr.raw.push(raw.latency_us);
            wr.cached.push(cached.latency_us);
            if raw.env.cache.as_deref() != Some("hit") || cached.env.cache.as_deref() != Some("hit")
            {
                report.problem("write_read: a timed read was not a plan-cache hit".into());
            }
        }
        wal_growth += wal_bytes(&store_dir) - wal_before;
        drop(c);
        let (peak, pings) = finish_server(ctx, server)?;
        rss.push(peak);
        ping.extend(&pings);
        episodes.push(events);
    }

    let mut checks = 0;
    for events in &episodes {
        stats.failed += oracle::check_write_read(ctx, &seed, events, report)?;
        checks += events.len();
    }
    report.info("oracle_checks", checks as f64, "count", None);

    let mut w = wr.writes;
    report.info("write_p50_us", w.quantile(0.5), "us", Some(w.len()));
    report.info("write_p99_us", w.quantile(0.99), "us", Some(w.len()));
    let mut raw = wr.raw;
    report.info(
        "read_after_write_p50_us",
        raw.quantile(0.5),
        "us",
        Some(raw.len()),
    );
    report.info(
        "read_after_write_p90_us",
        raw.quantile(0.9),
        "us",
        Some(raw.len()),
    );
    let mut cached = wr.cached;
    report.info(
        "read_cached_p50_us",
        cached.quantile(0.5),
        "us",
        Some(cached.len()),
    );
    report.info(
        "read_cached_p99_us",
        cached.quantile(0.99),
        "us",
        Some(cached.len()),
    );
    Ok((
        WirePhase {
            setups,
            stats,
            peak_rss_mb: rss.median(),
            ping,
        },
        wal_growth as f64 / writes.max(1) as f64,
    ))
}

// ---------------------------------------------------------------------------
// Running a workload and printing its report
// ---------------------------------------------------------------------------

/// The quantile `query_tail_us` reports: the highest of p99 and p90 with
/// at least ten samples beyond it in a run. The serve workloads time
/// thousands of queries; write_read times one read after a write per
/// cycle, a few hundred per run, so its tail is the p90.
fn tail_quantile(w: Workload) -> f64 {
    match w {
        Workload::ServeWarm | Workload::ServeCold => 0.99,
        Workload::WriteRead => 0.90,
    }
}

fn run(ctx: &mut Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let (mut phase, wal_per_write) = match ctx.args.workload {
        Workload::ServeWarm => (run_serve_warm(ctx, &mut report)?, None),
        Workload::ServeCold => (run_serve_cold(ctx, &mut report)?, None),
        Workload::WriteRead => {
            let (p, w) = run_write_read(ctx, &mut report)?;
            (p, Some(w))
        }
    };
    report.attempted = phase.stats.ops;
    report.failed = phase.stats.failed;
    let failed_ratio = phase.stats.failed as f64 / phase.stats.ops.max(1) as f64;
    let n_setups = phase.setups.len();
    let hit_ratio = phase.stats.hits as f64 / phase.stats.queries.max(1) as f64;
    if ctx.args.trace {
        report.info("setup_s", phase.setups.median(), "s", Some(n_setups));
        let s = &mut phase.stats;
        let (nw, nb) = (s.wire.len(), s.bytes.len());
        report.metric("service.wire_us", s.wire.median(), "us", Some(nw));
        report.metric("service.response_bytes", s.bytes.mean(), "B", Some(nb));
        let np = phase.ping.len();
        report.metric("service.ping_rtt_us", phase.ping.median(), "us", Some(np));
        let ne = s.server_elapsed.len();
        report.metric(
            "service.server_elapsed_us",
            s.server_elapsed.median(),
            "us",
            Some(ne),
        );
        report.metric(
            "core.plan_cache_hit_ratio",
            hit_ratio,
            "ratio",
            Some(s.queries as usize),
        );
        layers::probe(ctx, wal_per_write, &mut report)?;
    } else {
        report.metric("setup_s", phase.setups.median(), "s", Some(n_setups));
        let (p50, n) = phase.stats.latency_quantile(0.5);
        report.metric("query_p50_us", p50, "us", Some(n));
        let (p99, n) = phase.stats.latency_quantile_all(0.99);
        report.info("query_p99_us", p99, "us", Some(n));
        let (tail, n) = phase
            .stats
            .latency_quantile_all(tail_quantile(ctx.args.workload));
        report.metric("query_tail_us", tail, "us", Some(n));
        let throughput = phase.stats.throughput();
        report.metric(
            "throughput_ops_s",
            throughput,
            "1/s",
            Some(phase.stats.ops as usize),
        );
        report.metric("server_peak_rss_mb", phase.peak_rss_mb, "MB", None);
        report.info(
            "failed_ratio",
            failed_ratio,
            "ratio",
            Some(phase.stats.ops as usize),
        );
        report.info(
            "plan_cache_hit_ratio",
            hit_ratio,
            "ratio",
            Some(phase.stats.queries as usize),
        );
    }
    Ok(report)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn print_report(args: &Args, report: &Report) {
    let workload = match args.workload {
        Workload::ServeWarm => "serve_warm",
        Workload::ServeCold => "serve_cold",
        Workload::WriteRead => "write_read",
    };
    for m in &report.metrics {
        let n = m.count.map(|n| format!("  (n={n})")).unwrap_or_default();
        println!(
            "{workload:<11} {:<34} {:>14.4} {:<6}{n}",
            m.name, m.value, m.unit
        );
    }
    let correct = report.failed == 0 && report.problems.is_empty();
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .filter(|m| m.json)
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                sqo_obs::json_string(m.name),
                json_number(m.value),
                sqo_obs::json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload serve_warm|serve_cold|write_read --seed N \
                 --seconds S --trace 0|1 [--size tiny|full]"
            );
            return ExitCode::from(64);
        }
    };
    let root = match std::env::current_dir() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let sqo = match wire::build_sqo(&root) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let tmp = root
        .join(".perfbench_tmp")
        .join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&tmp);
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    let ics_path = tmp.join("ics.dl");
    let outcome = std::fs::write(&ics_path, gen::ICS)
        .map_err(|e| e.to_string())
        .and_then(|_| prepared_session())
        .and_then(|prep| {
            let mut ctx = Ctx {
                args: args.clone(),
                sqo,
                tmp: tmp.clone(),
                prep: Arc::new(prep),
                ics_path,
                spawned: 0,
            };
            run(&mut ctx)
        });
    let _ = std::fs::remove_dir_all(&tmp);
    if let Some(parent) = tmp.parent() {
        // Succeeds only once no concurrent run still uses it.
        let _ = std::fs::remove_dir(parent);
    }
    match outcome {
        Ok(report) => {
            print_report(&args, &report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
