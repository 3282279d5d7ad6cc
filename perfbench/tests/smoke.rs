//! The benchmark's own tests, at tiny size: every workload prints every
//! metric `BENCHMARK.json` names, with its unit, and a deliberately wrong
//! expectation comes back as a failed operation, not a crash.

use std::path::PathBuf;
use std::process::Command;

use attila_json::Json;

const WORKLOADS: [&str; 3] = ["doom3", "texture_stream", "serve_ckpt"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let json = attila_json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(metrics)) = json.get(section) else {
        panic!("BENCHMARK.json has no `{section}` list");
    };
    metrics
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

struct Run {
    code: Option<i32>,
    result: Json,
    stderr: String,
}

fn run(workload: &str, trace: bool, extra: &[&str]) -> Run {
    let out_dir: PathBuf = [
        env!("CARGO_TARGET_TMPDIR"),
        "smoke",
        &format!("{workload}-{trace}-{}", extra.len()),
    ]
    .iter()
    .collect();
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0",
            "--size",
            "tiny",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&out_dir)
        .args(extra)
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .unwrap_or_else(|| panic!("{workload}: no output"));
    Run {
        code: output.status.code(),
        result: attila_json::parse(last)
            .unwrap_or_else(|e| panic!("{workload}: bad result line: {e}")),
        stderr: String::from_utf8_lossy(&output.stderr).into_owned(),
    }
}

fn keys(json: &Json) -> Vec<&str> {
    match json {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => Vec::new(),
    }
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    for workload in WORKLOADS {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let run = run(workload, trace, &[]);
            assert_eq!(
                run.code,
                Some(0),
                "{workload} trace={trace}: {}",
                run.stderr
            );
            assert_eq!(
                keys(&run.result),
                ["correct", "attempted", "failed", "metrics"]
            );
            assert_eq!(
                run.result.get("correct"),
                Some(&Json::Bool(true)),
                "{}",
                run.stderr
            );
            assert_eq!(run.result.get("failed").and_then(Json::as_f64), Some(0.0));
            let metrics = run.result.get("metrics").expect("metrics");
            let mut printed: Vec<(String, String)> = keys(metrics)
                .into_iter()
                .map(|name| {
                    let m = metrics.get(name).expect("metric");
                    assert!(
                        m.get("value").and_then(Json::as_f64).is_some(),
                        "{name} has no value"
                    );
                    (
                        name.to_string(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                    )
                })
                .collect();
            let mut want = declared(section);
            printed.sort();
            want.sort();
            assert_eq!(
                printed, want,
                "{workload} trace={trace}: metrics differ from BENCHMARK.json"
            );
        }
    }
}

#[test]
fn wrong_expectation_is_a_failed_operation() {
    for workload in WORKLOADS {
        let run = run(workload, false, &["--wrong-expectation"]);
        assert_eq!(run.code, Some(1), "{workload}: {}", run.stderr);
        assert!(
            !run.stderr.contains("panicked"),
            "{workload} crashed: {}",
            run.stderr
        );
        assert_eq!(run.result.get("correct"), Some(&Json::Bool(false)));
        let attempted = run
            .result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        let failed = run
            .result
            .get("failed")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        assert!(
            failed >= 1.0 && failed <= attempted,
            "{workload}: {failed} of {attempted} failed"
        );
    }
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "quake"])
        .output()
        .expect("perfbench runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
