//! Runs every workload at `--smoke` sizes, untraced and traced, and holds
//! what it prints against `BENCHMARK.json` and the metric registry.

use ledger::json::Json;
use ledger::metrics::{END_TO_END, PER_LAYER};
use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["refine_mc", "walk_cold", "serve_mixed", "build_ingest"];

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

/// `(name, unit)` of every entry of one of BENCHMARK.json's metric lists.
fn declared(doc: &Json, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list} list"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

struct Run {
    stdout: String,
    result: Json,
}

fn ledger(args: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(args)
        .output()
        .expect("the ledger binary starts");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "ledger {args:?} ended with {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).unwrap_or_else(|e| panic!("result line {last:?}: {e}"));
    Run { stdout, result }
}

fn smoke(workload: &str, trace: &str) -> Run {
    smoke_on_seed(workload, trace, "11")
}

fn smoke_on_seed(workload: &str, trace: &str, seed: &str) -> Run {
    ledger(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "0.3",
        "--trace",
        trace,
        "--smoke",
    ])
}

/// The result line has exactly the contract's keys, no operation failed,
/// and the metrics are exactly `want`, each finite and in its unit.
fn assert_result(run: &Run, want: &[(String, String)], positive: bool) {
    let keys: Vec<&str> = run
        .result
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        run.result.get("correct").unwrap().as_bool(),
        Some(true),
        "{}",
        run.stdout
    );
    assert_eq!(run.result.get("failed").unwrap().as_f64(), Some(0.0));
    assert!(run.result.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
    let metrics = run.result.get("metrics").unwrap().as_obj().unwrap();
    let mut got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let mut names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
    got.sort_unstable();
    names.sort_unstable();
    assert_eq!(got, names, "printed metrics differ from BENCHMARK.json");
    for (name, unit) in want {
        let m = run.result.get("metrics").unwrap().get(name).unwrap();
        let value = m.get("value").and_then(Json::as_f64).unwrap();
        assert!(value.is_finite(), "{name} = {value}");
        assert!(!positive || value > 0.0, "end-to-end {name} = {value}");
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
    }
}

#[test]
fn benchmark_json_matches_the_registry() {
    let doc = benchmark_json();
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(declared(&doc, "end_to_end"), e2e);
    for (entry, m) in doc
        .get("end_to_end")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .zip(END_TO_END)
    {
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(
            entry.get("better").and_then(Json::as_str),
            Some(better),
            "{}",
            m.name
        );
        assert_eq!(
            entry.get("bound").and_then(Json::as_f64),
            Some(m.bound),
            "{}",
            m.name
        );
    }
    let layers: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u, _)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared(&doc, "per_layer"), layers);
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, WORKLOADS);
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let want = declared(&benchmark_json(), "end_to_end");
    for workload in WORKLOADS {
        let run = smoke(workload, "0");
        assert_result(&run, &want, true);
        assert!(run.stdout.contains("info: answers_fnv = "), "{workload}");
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric_and_its_identities_hold() {
    let want = declared(&benchmark_json(), "per_layer");
    for workload in WORKLOADS {
        let run = smoke(workload, "1");
        assert_result(&run, &want, false);
        let predictions: Vec<&str> = run
            .stdout
            .lines()
            .filter(|l| l.starts_with("info: predict["))
            .collect();
        assert!(predictions.len() >= 2, "{workload}: {predictions:?}");
        assert!(
            predictions.iter().all(|l| l.ends_with("= true")),
            "{predictions:?}"
        );
    }
}

#[test]
fn answers_repeat_exactly_for_a_seed_and_change_with_it() {
    let fnv = |seed: &str| -> String {
        let run = ledger(&[
            "--workload",
            "refine_mc",
            "--seed",
            seed,
            "--seconds",
            "0.2",
            "--smoke",
        ]);
        let line = run
            .stdout
            .lines()
            .find(|l| l.starts_with("info: answers_fnv = "));
        line.expect("answers_fnv is printed").to_string()
    };
    assert_eq!(fnv("5"), fnv("5"));
    assert_ne!(fnv("5"), fnv("6"));
}

#[test]
fn repeat_prints_a_stability_report() {
    let run = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args([
            "--workload",
            "refine_mc",
            "--seconds",
            "0.2",
            "--smoke",
            "--repeat",
            "3",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8(run.stdout).unwrap();
    assert!(run.status.success(), "{stdout}");
    for needle in [
        "run 3: seed=3",
        "ops_per_s",
        "median",
        "spread",
        "runs=3 failed_ops=0",
    ] {
        assert!(stdout.contains(needle), "no {needle:?} in\n{stdout}");
    }
}

#[test]
fn nothing_is_left_behind() {
    // Each run removes its own directory; the root goes with the last one.
    // A seed no other test uses: their live directories are not leftovers.
    let run = smoke_on_seed("build_ingest", "0", "777");
    assert!(run.stdout.contains("info: recover_ms"));
    let tmp = Path::new(env!("CARGO_MANIFEST_DIR")).join(".bench_tmp");
    let leftovers: Vec<_> = std::fs::read_dir(&tmp)
        .map(|d| {
            d.flatten()
                .filter(|e| {
                    e.file_name()
                        .to_string_lossy()
                        .starts_with("build_ingest-777-")
                })
                .collect()
        })
        .unwrap_or_default();
    assert!(leftovers.is_empty(), "{leftovers:?}");
}
