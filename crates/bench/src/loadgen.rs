//! The closed-loop load harness for the serving subsystem.
//!
//! Starts an in-process [`sqo_service::Server`] on an ephemeral port and
//! drives it with `clients` closed-loop TCP connections (each sends a
//! request, waits for the response line, repeats). Client-side latency is
//! recorded into one [`obs::Histogram`] per client thread and merged at
//! the end — the same merge discipline the engine's own thread-local
//! counters use, so the harness doubles as an end-to-end exercise of the
//! histogram merge path.
//!
//! Two standard shapes:
//!
//! * [`LoadConfig::warm`] — closed loop at 1x (`clients == workers`, ample
//!   queue): at most `workers` requests are ever outstanding, so nothing
//!   can shed and the measured quantiles are the service's intrinsic
//!   warm-cache latency (`serve/p50`, `serve/p99` in the bench manifest).
//! * [`LoadConfig::overload`] — 10x the server's total capacity
//!   (`clients = 10 * (workers + queue)`) against a deliberately small
//!   queue: admission control must shed, and the interesting numbers are
//!   the shed rate and the p99 of the *accepted* requests, which bounded
//!   admission keeps flat instead of letting queueing delay grow without
//!   bound.
//!
//! [`LoadConfig::pipelined`] makes each client write a whole window of
//! requests before reading, which exercises the event loop's
//! drain-all-complete-frames batching; it widens the queue to fit every
//! window so batching is measured without shedding.

use sqo_obs as obs;
use sqo_service::{Server, ServerConfig, SessionRegistry, SessionSpec};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

/// The constraint every load session is prepared with (the paper's IC4).
pub const LOAD_IC: &str = "ic IC4: Age >= 30 <- faculty(X, N, Age, S, R, Ad).";

/// One load phase: server shape plus client population.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Worker threads in the admission pool.
    pub workers: usize,
    /// Admission queue capacity.
    pub queue_capacity: usize,
    /// Closed-loop client connections.
    pub clients: usize,
    /// Requests each client sends before disconnecting.
    pub requests_per_client: usize,
    /// Execute the chosen plan against the bound university base (makes
    /// each request do real evaluation work instead of pure optimization).
    pub execute: bool,
    /// Requests each client writes back-to-back before reading any
    /// response (1 = strict request/response lock-step). Latency is
    /// measured per response from the batch write, so pipelined numbers
    /// include the wait behind the client's own earlier requests.
    pub pipeline_depth: usize,
}

impl LoadConfig {
    /// The 1x phase: as many clients as workers, so the queue never
    /// fills and nothing sheds.
    pub fn warm(workers: usize, requests_per_client: usize) -> LoadConfig {
        LoadConfig {
            workers,
            queue_capacity: 4 * workers.max(1),
            clients: workers,
            requests_per_client,
            execute: false,
            pipeline_depth: 1,
        }
    }

    /// The same phase with each client pipelining `depth` requests per
    /// window. The queue is widened so a full window from every client
    /// still fits: pipelining measures batching, not shedding.
    pub fn pipelined(mut self, depth: usize) -> LoadConfig {
        self.pipeline_depth = depth.max(1);
        self.queue_capacity = self.queue_capacity.max(self.clients * self.pipeline_depth);
        self
    }

    /// The overload phase: ten clients for every slot the server has
    /// (workers plus queue entries), so at full closed-loop pressure the
    /// queue is saturated and admission control must shed.
    pub fn overload(
        workers: usize,
        queue_capacity: usize,
        requests_per_client: usize,
    ) -> LoadConfig {
        LoadConfig {
            workers,
            queue_capacity,
            clients: 10 * (workers + queue_capacity),
            requests_per_client,
            execute: true,
            pipeline_depth: 1,
        }
    }
}

/// What a load phase measured.
#[derive(Debug)]
pub struct LoadReport {
    /// Requests sent across all clients.
    pub sent: u64,
    /// Requests answered with a result.
    pub ok: u64,
    /// Requests shed by admission control (`overloaded`).
    pub shed: u64,
    /// Requests that failed any other way (should be zero).
    pub other_errors: u64,
    /// Client-observed latency of the *accepted* requests, merged across
    /// all client threads.
    pub hist: obs::Histogram,
}

impl LoadReport {
    /// Median accepted-request latency in nanoseconds.
    pub fn p50_ns(&self) -> Option<u64> {
        self.hist.quantile(0.50)
    }

    /// Tail (p99) accepted-request latency in nanoseconds.
    pub fn p99_ns(&self) -> Option<u64> {
        self.hist.quantile(0.99)
    }

    /// Fraction of requests shed, in `[0, 1]`.
    pub fn shed_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.shed as f64 / self.sent as f64
        }
    }

    /// One human-readable summary line.
    pub fn summary(&self, label: &str) -> String {
        let q = |v: Option<u64>| match v {
            Some(ns) => format!("{:.2} ms", ns as f64 / 1e6),
            None => "-".to_string(),
        };
        format!(
            "{label}: sent {} ok {} shed {} ({:.1}%) p50 {} p99 {}",
            self.sent,
            self.ok,
            self.shed,
            self.shed_rate() * 100.0,
            q(self.p50_ns()),
            q(self.p99_ns()),
        )
    }
}

/// Runs one closed-loop load phase against a fresh in-process server.
///
/// Panics on harness-level failures (bind/connect/protocol errors);
/// request-level sheds are part of the measurement, not failures.
pub fn run(cfg: &LoadConfig) -> LoadReport {
    let registry = Arc::new(SessionRegistry::new());
    registry
        .prepare("default", SessionSpec::University, Some(LOAD_IC))
        .expect("university session prepares");
    if cfg.execute {
        registry
            .get("default")
            .unwrap()
            .attach_university_data()
            .expect("university data attaches");
    }
    let server = Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: cfg.workers,
            queue_capacity: cfg.queue_capacity,
            default_timeout_ms: 60_000,
            ..ServerConfig::default()
        },
        registry,
    )
    .expect("server binds an ephemeral port");
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.run());

    let reports: Vec<LoadReport> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|c| s.spawn(move || client_loop(addr, c, cfg)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    let mut total = LoadReport {
        sent: 0,
        ok: 0,
        shed: 0,
        other_errors: 0,
        hist: obs::Histogram::new(),
    };
    for r in reports {
        total.sent += r.sent;
        total.ok += r.ok;
        total.shed += r.shed;
        total.other_errors += r.other_errors;
        total.hist.merge(&r.hist);
    }

    shutdown(addr);
    let _ = server_thread.join();
    total
}

/// One closed-loop client: a parameterized query family over one shared
/// cached template, so after the first few requests the server runs in
/// its warm steady state.
fn client_loop(addr: SocketAddr, client: usize, cfg: &LoadConfig) -> LoadReport {
    let mut stream = TcpStream::connect(addr).expect("client connects");
    // Without this the measured "latency" is the peer's delayed-ACK
    // timer, not the service: one-line requests sit in Nagle's buffer.
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut report = LoadReport {
        sent: 0,
        ok: 0,
        shed: 0,
        other_errors: 0,
        hist: obs::Histogram::new(),
    };
    let exec = if cfg.execute {
        r#","execute":true"#
    } else {
        ""
    };
    let depth = cfg.pipeline_depth.max(1);
    let mut i = 0;
    while i < cfg.requests_per_client {
        let window = depth.min(cfg.requests_per_client - i);
        // Distinct constants, one canonical template: cache hits after
        // the first sighting, like a parameterized production workload.
        // The whole window goes out in one write, so a depth > 1 client
        // exercises the server's drain-all-complete-frames batching.
        let mut batch = String::new();
        for j in 0..window {
            let age = 20 + (client * 7 + i + j) % 15;
            batch.push_str(&format!(
                r#"{{"op":"query","oql":"select x.name from x in Person where x.age < {age}"{exec}}}"#
            ));
            batch.push('\n');
        }
        let t0 = std::time::Instant::now();
        stream.write_all(batch.as_bytes()).expect("client write");
        stream.flush().expect("client flush");
        for _ in 0..window {
            let mut resp = String::new();
            reader.read_line(&mut resp).expect("client read");
            let elapsed_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            report.sent += 1;
            if resp.contains(r#""ok":true"#) || resp.contains(r#""ok": true"#) {
                report.ok += 1;
                report.hist.record(elapsed_ns);
            } else if resp.contains("overloaded") {
                report.shed += 1;
            } else {
                report.other_errors += 1;
            }
        }
        i += window;
    }
    report
}

fn shutdown(addr: SocketAddr) {
    if let Ok(mut stream) = TcpStream::connect(addr) {
        let _ = writeln!(stream, r#"{{"op":"shutdown"}}"#);
        let _ = stream.flush();
        let mut reader = BufReader::new(stream);
        let mut resp = String::new();
        let _ = reader.read_line(&mut resp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_phase_sheds_nothing_and_reports_quantiles() {
        let report = run(&LoadConfig::warm(2, 20));
        assert_eq!(report.sent, 40);
        assert_eq!(report.ok, 40);
        assert_eq!(report.shed, 0, "1x load cannot fill the queue");
        assert_eq!(report.other_errors, 0);
        assert_eq!(report.hist.count(), 40);
        let p50 = report.p50_ns().expect("quantiles exist");
        let p99 = report.p99_ns().expect("quantiles exist");
        assert!(p50 > 0 && p99 >= p50);
    }

    #[test]
    fn pipelined_windows_never_shed_and_answer_in_full() {
        let report = run(&LoadConfig::warm(2, 24).pipelined(8));
        assert_eq!(report.sent, 48);
        assert_eq!(report.ok, 48);
        assert_eq!(
            report.shed, 0,
            "pipelined() widens the queue to fit every window"
        );
        assert_eq!(report.other_errors, 0);
        assert_eq!(report.hist.count(), 48);
    }

    #[test]
    fn overload_phase_sheds_and_bounds_accepted_tail() {
        let report = run(&LoadConfig::overload(1, 1, 20));
        assert_eq!(report.sent, 20 * 20);
        assert_eq!(report.other_errors, 0);
        assert!(
            report.shed > 0,
            "10x closed-loop pressure against a one-slot queue must shed"
        );
        assert_eq!(report.ok + report.shed, report.sent);
        // Accepted requests still finish: bounded admission keeps the
        // tail to real service time, not unbounded queueing delay.
        assert!(report.p99_ns().is_some());
    }
}
