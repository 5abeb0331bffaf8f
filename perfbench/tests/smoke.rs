//! Short runs of every workload against the metric list in the repository's
//! `BENCHMARK.json`.

use std::process::Command;

use univsa::json::{parse, Json};

const BIN: &str = env!("CARGO_BIN_EXE_univsa-perfbench");

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse(&std::fs::read(path).expect("BENCHMARK.json is readable")).expect("valid JSON");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field = |k: &str| match m.get(k) {
                Some(Json::Str(s)) => s.clone(),
                other => panic!("{section} entry field {k}: {other:?}"),
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark and returns its provenance line and result line.
fn run(workload: &str, seed: u64, seconds: &str, trace: bool) -> (Json, Json) {
    let out = Command::new(BIN)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            seconds,
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .output()
        .expect("benchmark starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let result = parse(lines[lines.len() - 1].as_bytes()).expect("last line is JSON");
    let provenance = lines
        .iter()
        .find_map(|l| parse(l.as_bytes()).ok()?.get("provenance").cloned())
        .expect("a provenance line");
    (provenance, result)
}

/// `(name, unit)` of every metric in a result line.
fn reported(result: &Json) -> Vec<(String, String)> {
    let Some(Json::Obj(fields)) = result.get("metrics") else {
        panic!("metrics object missing: {result:?}");
    };
    fields
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has no value"
            );
            let Some(Json::Str(unit)) = m.get("unit") else {
                panic!("{name} has no unit");
            };
            (name.clone(), unit.clone())
        })
        .collect()
}

fn assert_clean(workload: &str, provenance: &Json, result: &Json) {
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload}: {result:?}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{workload}"
    );
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) > 0);
    assert_eq!(
        provenance.get("error_rate").and_then(Json::as_f64),
        Some(0.0)
    );
    for key in [
        "seed",
        "nproc",
        "pool_width",
        "kernel_tier",
        "git_commit",
        "attempted",
        "failed",
    ] {
        assert!(
            provenance.get(key).is_some(),
            "{workload}: provenance lacks {key}"
        );
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric_without_errors() {
    let expected = declared("end_to_end");
    for workload in ["infer-single", "retrain"] {
        let (provenance, result) = run(workload, 1, "1", false);
        assert_clean(workload, &provenance, &result);
        assert_eq!(reported(&result), expected, "{workload}");
    }
}

#[test]
fn seeds_change_the_request_stream_not_the_metric_names() {
    let (p1, r1) = run("infer-single", 1, "1", false);
    let (p2, r2) = run("infer-single", 2, "1", false);
    assert_clean("infer-single", &p1, &r1);
    assert_clean("infer-single", &p2, &r2);
    assert_ne!(p1.get("request_digest"), p2.get("request_digest"));
    assert_eq!(reported(&r1), reported(&r2));
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    let (provenance, result) = run("infer-single", 3, "2", true);
    assert_clean("infer-single", &provenance, &result);
    assert_eq!(reported(&result), declared("per_layer"));
}
