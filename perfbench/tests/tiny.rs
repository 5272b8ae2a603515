//! Tiny-size runs of every workload, in both trace modes. Each run must
//! pass every oracle check, report `failed_ratio` 0, and print every
//! metric `BENCHMARK.json` names for its mode, with the declared unit.

use sqo_service::json::{self, Json};
use std::path::PathBuf;
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench lives inside the repository")
        .to_path_buf()
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark and returns its standard output lines.
fn run(workload: &str, trace: u8) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--size", "tiny"])
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().map(str::to_string).collect()
}

/// The human-readable line for `metric`: `(value, unit, has_count)`.
fn human(lines: &[String], metric: &str) -> (f64, String, bool) {
    let line = lines
        .iter()
        .find(|l| l.split_whitespace().nth(1) == Some(metric))
        .unwrap_or_else(|| panic!("no line for {metric} in {lines:#?}"));
    let fields: Vec<&str> = line.split_whitespace().collect();
    (
        fields[2].parse().expect("numeric value"),
        fields[3].to_string(),
        line.contains("(n="),
    )
}

fn check(workload: &str, extra_human: &[(&str, &str)]) {
    for (trace, section) in [(0u8, "end_to_end"), (1, "per_layer")] {
        let lines = run(workload, trace);
        let result = json::parse(lines.last().expect("output")).expect("last line is JSON");
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
        assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            panic!("metrics object missing");
        };
        let want = declared(section);
        let got: Vec<&String> = metrics.keys().collect();
        let mut names: Vec<&String> = want.iter().map(|(n, _)| n).collect();
        names.sort();
        assert_eq!(got, names, "{workload} trace={trace}: metric set");
        for (name, unit) in &want {
            let m = &metrics[name];
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(unit.as_str()),
                "{name}"
            );
            let v = m.get("value").and_then(Json::as_f64);
            assert!(v.is_some_and(f64::is_finite), "{workload}: {name} = {m:?}");
            let (hv, hunit, _) = human(&lines, name);
            assert_eq!(&hunit, unit, "{name}");
            assert!(
                (hv - v.unwrap()).abs() <= 1e-3 * v.unwrap().abs().max(1.0),
                "{name}"
            );
        }
        if trace == 0 {
            let (failed, unit, counted) = human(&lines, "failed_ratio");
            assert_eq!((failed, unit.as_str(), counted), (0.0, "ratio", true));
            for name in [
                "query_p50_us",
                "query_p99_us",
                "query_tail_us",
                "setup_s",
                "throughput_ops_s",
            ] {
                assert!(human(&lines, name).2, "{name} lacks its sample count");
            }
            for (name, unit) in extra_human {
                let (v, u, counted) = human(&lines, name);
                assert!(v > 0.0 && u == *unit && counted, "{name}: {v} {u}");
            }
        }
    }
}

#[test]
fn serve_warm_tiny() {
    check("serve_warm", &[]);
}

#[test]
fn serve_cold_tiny() {
    check("serve_cold", &[]);
}

#[test]
fn write_read_tiny() {
    check(
        "write_read",
        &[
            ("write_p50_us", "us"),
            ("write_p99_us", "us"),
            ("read_after_write_p50_us", "us"),
            ("read_after_write_p90_us", "us"),
        ],
    );
}
