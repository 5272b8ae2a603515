//! Conformance suite: exact per-request stats in served reports.
//!
//! Problem: a report's `stats` block used to be the difference of two
//! process-global snapshots, so under concurrency other requests' work
//! bled into it, and span extremes were cumulative values labelled as
//! per-request ones.
//!
//! Acceptance criteria:
//!
//! - AC-1: Given concurrent clients sending warm hits, when each
//!   response arrives, then its counters describe that request alone.
//! - AC-2: Given any served response, when its spans are read, then
//!   every span has `min_ns <= max_ns <= total_ns`, and a span that
//!   completed once reports one duration for all three.
//! - AC-3: Given a plan-cache miss, when Step 3 runs on parallel
//!   workers, then the report counts the workers' search work exactly
//!   as a sequential run does, and the process totals in `metrics` are
//!   the sums over the responses.
//! - AC-4: Given a served query, when its `report` is parsed, then it
//!   equals the in-process `explain_json` of the same request.
//!
//! Conformance cases:
//!
//! - C-01 (AC-1): `spec_stats_c01_concurrent_warm_hits_count_only_themselves`
//! - C-02 (AC-2): `spec_stats_c02_span_extremes_are_per_request`
//! - C-03 (AC-3): `spec_stats_c03_parallel_miss_counts_like_sequential`,
//!   `spec_stats_c03_metrics_totals_are_sums_of_responses`
//! - C-04 (regression): `spec_stats_c04_served_report_equals_in_process_explain`
//!
//! The tests share one lock: C-03 compares process-global totals.

use sqo_core::Backend;
use sqo_obs as obs;
use sqo_service::json::{self, Json};
use sqo_service::{Server, ServerConfig, SessionRegistry, SessionSpec};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const IC4: &str = "ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).";

/// Application 2's scope reduction, a plain extent scan, and an
/// IC4-refuted query: three templates, each a hit after its first sight.
const WARM: [&str; 3] = [
    "select x.name from x in Person where x.age < 25",
    "select s.name from s in Student",
    "select f.name from f in Faculty where f.age < 20",
];

/// Application 3's key-join elimination: a wide Step-3 search whose
/// levels fan out over the parallel workers.
const KEY_JOIN: &str = "select list(x.student_id, t.employee_id) \
     from x in Student, y in x.takes, z in y.is_taught_by, \
     t in TA, v in t.takes, w in v.is_taught_by \
     where z.name = w.name";

fn start_server(workers: usize) -> SocketAddr {
    let registry = Arc::new(SessionRegistry::new());
    registry
        .prepare("default", SessionSpec::University, Some(IC4))
        .unwrap();
    let server = Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            queue_capacity: 64,
            ..ServerConfig::default()
        },
        registry,
    )
    .unwrap();
    let addr = server.local_addr();
    std::thread::spawn(move || server.run().unwrap());
    addr
}

/// Sends each line on one connection, one at a time; returns the parsed
/// responses.
fn roundtrip(addr: SocketAddr, lines: &[String]) -> Vec<Json> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    lines
        .iter()
        .map(|l| {
            stream.write_all(format!("{l}\n").as_bytes()).unwrap();
            let mut resp = String::new();
            reader.read_line(&mut resp).unwrap();
            json::parse(&resp).unwrap_or_else(|e| panic!("{e}: {resp}"))
        })
        .collect()
}

fn shutdown(addr: SocketAddr) {
    let _ = roundtrip(addr, &[r#"{"op":"shutdown"}"#.to_string()]);
}

fn query_line(oql: &str) -> String {
    format!(r#"{{"op":"query","oql":{}}}"#, obs::json_string(oql))
}

/// Runs `clients` concurrent connections, each sending `lines` in order;
/// returns every response.
fn concurrent(addr: SocketAddr, clients: usize, lines: &[String]) -> Vec<Json> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| s.spawn(|| roundtrip(addr, lines)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    })
}

fn stats(resp: &Json) -> &Json {
    resp.get("report")
        .and_then(|r| r.get("stats"))
        .unwrap_or_else(|| panic!("response without report stats: {resp:?}"))
}

fn counter(resp: &Json, name: &str) -> u64 {
    stats(resp)
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no counter {name}: {resp:?}"))
}

fn metrics_counter(addr: SocketAddr, name: &str) -> u64 {
    roundtrip(addr, &[r#"{"op":"metrics"}"#.to_string()])[0]
        .get("stats")
        .and_then(|s| s.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("metrics lack {name}"))
}

/// Every span's `(count, total, min, max)`, checked for consistency.
fn check_spans(resp: &Json) {
    let Some(Json::Obj(spans)) = stats(resp).get("spans") else {
        panic!("no spans object: {resp:?}");
    };
    for (name, s) in spans {
        let field = |k: &str| s.get(k).and_then(Json::as_u64).unwrap();
        let (count, total, min, max) = (
            field("count"),
            field("total_ns"),
            field("min_ns"),
            field("max_ns"),
        );
        assert!(count >= 1, "{name}: empty span reported");
        assert!(
            min <= max && max <= total,
            "{name}: min {min} / max {max} / total {total} inconsistent"
        );
        if count == 1 {
            assert!(
                min == max && max == total,
                "{name}: one completion but min {min} / max {max} / total {total}"
            );
        }
    }
}

#[test]
fn spec_stats_c01_concurrent_warm_hits_count_only_themselves() {
    let _g = lock();
    let addr = start_server(2);
    let warmup: Vec<String> = WARM.iter().map(|q| query_line(q)).collect();
    roundtrip(addr, &warmup);
    let lines: Vec<String> = (0..1500).map(|i| query_line(WARM[i % 3])).collect();
    let resps = concurrent(addr, 4, &lines);
    shutdown(addr);

    assert_eq!(resps.len(), 6000);
    let mut bled = 0;
    for resp in &resps {
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        assert_eq!(resp.get("cache").and_then(Json::as_str), Some("hit"));
        let exact = counter(resp, "optimizer.queries") == 1
            && counter(resp, "plan_cache.hits") == 1
            && counter(resp, "translate.queries") == 1;
        if !exact {
            bled += 1;
        }
    }
    assert_eq!(
        bled, 0,
        "{bled} of 6000 warm hits carried other requests' counters"
    );
}

#[test]
fn spec_stats_c02_span_extremes_are_per_request() {
    let _g = lock();
    let addr = start_server(2);
    // Parameter variants (each a hit or a rebind), plain hits, and a
    // contradiction.
    let lines: Vec<String> = (0..200)
        .map(|i| match i % 4 {
            0 => query_line(&format!(
                "select x.name from x in Person where x.age < 25 and x.name = \"n{i}\""
            )),
            1 => query_line(WARM[0]),
            2 => query_line(WARM[2]),
            _ => query_line(WARM[1]),
        })
        .collect();
    let resps = concurrent(addr, 4, &lines);
    shutdown(addr);

    assert_eq!(resps.len(), 800);
    for resp in &resps {
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        check_spans(resp);
        assert!(
            stats(resp).get("hists").is_none(),
            "per-request stats carry no histograms"
        );
    }
}

#[test]
fn spec_stats_c03_parallel_miss_counts_like_sequential() {
    let _g = lock();
    let registry = SessionRegistry::new();
    registry
        .prepare("s", SessionSpec::University, Some(IC4))
        .unwrap();
    let prep = registry.get("s").unwrap().prepared();
    let query = sqo_oql::parse_oql(KEY_JOIN).unwrap();

    let before = obs::snapshot();
    let parallel = prep
        .optimize_query_backend(&query, Backend::Parallel)
        .unwrap();
    let global = obs::snapshot().since(&before);
    let sequential = prep
        .optimize_query_backend(&query, Backend::Sequential)
        .unwrap();

    assert!(parallel.equivalents().len() > 2, "the search fans out");
    assert_eq!(parallel.stats.counters, sequential.stats.counters);
    assert_eq!(parallel.stats.counter(obs::Counter::OptimizerQueries), 1);
    assert!(parallel.stats.counter(obs::Counter::UnifyAttempts) > 0);
    // The workers' hand-off lands in the global totals exactly once
    // (nothing else runs while the lock is held).
    for c in [
        obs::Counter::SearchNodesExpanded,
        obs::Counter::UnifyAttempts,
        obs::Counter::SubsumeChecks,
    ] {
        assert_eq!(
            global.counter(c),
            parallel.stats.counter(c),
            "{}: global delta vs the request's own count",
            c.name()
        );
    }
}

#[test]
fn spec_stats_c03_metrics_totals_are_sums_of_responses() {
    let _g = lock();
    let addr = start_server(2);
    let queries_before = metrics_counter(addr, "optimizer.queries");
    let hits_before = metrics_counter(addr, "plan_cache.hits");
    let lines: Vec<String> = (0..60)
        .map(|i| match i % 3 {
            0 => query_line(KEY_JOIN),
            1 => query_line(&format!(
                "select x.name from x in Person where x.age < 25 and x.name = \"m{i}\""
            )),
            _ => query_line(WARM[i % 2]),
        })
        .collect();
    let resps = concurrent(addr, 3, &lines);
    let queries_after = metrics_counter(addr, "optimizer.queries");
    let hits_after = metrics_counter(addr, "plan_cache.hits");
    shutdown(addr);

    let sum = |name: &str| resps.iter().map(|r| counter(r, name)).sum::<u64>();
    assert_eq!(resps.len(), 180);
    assert_eq!(queries_after - queries_before, sum("optimizer.queries"));
    assert_eq!(hits_after - hits_before, sum("plan_cache.hits"));
    assert_eq!(sum("optimizer.queries"), 180);
}

/// Drops span timings (keeping each span's completion count), the only
/// field that legitimately differs between two runs of one request.
fn without_timings(report: &Json) -> Json {
    let Json::Obj(mut top) = report.clone() else {
        panic!("report is not an object: {report:?}");
    };
    let Some(Json::Obj(mut stats)) = top.remove("stats") else {
        panic!("report without stats: {report:?}");
    };
    if let Some(Json::Obj(spans)) = stats.remove("spans") {
        let counts: BTreeMap<String, Json> = spans
            .into_iter()
            .map(|(name, s)| (name, s.get("count").cloned().unwrap_or(Json::Null)))
            .collect();
        stats.insert("span_counts".to_string(), Json::Obj(counts));
    }
    top.insert("stats".to_string(), Json::Obj(stats));
    Json::Obj(top)
}

#[test]
fn spec_stats_c04_served_report_equals_in_process_explain() {
    let _g = lock();
    let sequence: Vec<&str> = [WARM.as_slice(), &[KEY_JOIN], WARM.as_slice(), &[KEY_JOIN]]
        .concat()
        .into_iter()
        .chain(["select x.name from x in Person where x.age < 40"])
        .collect();
    let addr = start_server(2);
    let lines: Vec<String> = sequence.iter().map(|q| query_line(q)).collect();
    let served = roundtrip(addr, &lines);
    shutdown(addr);

    let oracle = SessionRegistry::new();
    oracle
        .prepare("oracle", SessionSpec::University, Some(IC4))
        .unwrap();
    let session = oracle.get("oracle").unwrap();
    let prep = session.prepared();
    for (oql, resp) in sequence.iter().zip(&served) {
        let (report, outcome) = prep.optimize_cached(session.cache(), oql).unwrap();
        assert_eq!(
            resp.get("cache").and_then(Json::as_str),
            Some(outcome.label()),
            "{oql}"
        );
        let local = json::parse(&report.explain_json()).unwrap();
        let wire = resp.get("report").expect("report present");
        assert_eq!(without_timings(wire), without_timings(&local), "{oql}");
    }
}
