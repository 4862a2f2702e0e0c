//! Command line, the result line, and `--repeat`.

use crate::env::{commit, nproc, profile};
use crate::json::{quote, Json};
use crate::metrics::{median, quartiles, unit_of, MetricSet, END_TO_END, PER_LAYER};
use crate::run::{RunCfg, RunReport, Workload};
use crate::workloads;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "\
usage: ledger --workload <refine_mc|walk_cold|serve_mixed|build_ingest>
              [--seed <u64>] [--seconds <s>] [--trace [0|1]]
              [--repeat <n>] [--smoke] [--keep-trace]

  --seed        drives every generator (default 1)
  --seconds     length of the measured phase (default 15)
  --trace       record spans and print the per-layer metrics instead of
                the end-to-end ones
  --repeat n    run n fresh processes on seeds seed..seed+n-1 and print
                median, quartiles and spread per metric beside its bound
  --smoke       tiny sizes (what `cargo test` runs)
  --keep-trace  keep trace-<workload>-<seed>.json under .bench_tmp/

The last line of standard output is one JSON object:
  {\"correct\": .., \"attempted\": .., \"failed\": .., \"metrics\": {name: {\"value\": .., \"unit\": ..}}}";

#[derive(Debug)]
struct Args {
    cfg: RunCfg,
    repeat: Option<usize>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 15.0f64;
    let mut trace = false;
    let mut smoke = false;
    let mut keep_trace = false;
    let mut repeat = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                let v = value("--seed")?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v:?} is not a u64"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {v:?} is not a positive number"))?;
            }
            "--repeat" => {
                let v = value("--repeat")?;
                repeat = Some(
                    v.parse()
                        .ok()
                        .filter(|n| *n >= 1)
                        .ok_or_else(|| format!("--repeat {v:?} is not a positive count"))?,
                );
            }
            "--trace" => {
                // `--trace 0|1` as the driver passes it, or bare `--trace`.
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => smoke = true,
            "--keep-trace" => keep_trace = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        cfg: RunCfg {
            workload,
            seed,
            seconds,
            trace,
            smoke,
            keep_trace,
        },
        repeat,
    })
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(report: &RunReport) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.failed == 0,
        report.attempted.max(1),
        report.failed
    );
    for (i, (name, value)) in report.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let unit = unit_of(name).expect("MetricSet only holds registered names");
        let _ = write!(
            out,
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            quote(name),
            quote(unit)
        );
    }
    out.push_str("}}");
    out
}

/// The names a run of this kind must print, all of them.
fn expected_names(trace: bool) -> Vec<&'static str> {
    if trace {
        PER_LAYER.iter().map(|(n, _, _)| *n).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    }
}

fn complete(cfg: &RunCfg, metrics: &MetricSet) -> Result<(), String> {
    for name in expected_names(cfg.trace) {
        match metrics.get(name) {
            None => return Err(format!("metric {name} was not measured")),
            Some(v) if !v.is_finite() => return Err(format!("metric {name} is {v}")),
            Some(v) if !cfg.trace && v <= 0.0 => {
                return Err(format!("end-to-end metric {name} is {v}"))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

fn run_once(cfg: &RunCfg) -> Result<(), String> {
    if cfg!(debug_assertions) && !cfg.smoke {
        return Err("this is a debug build: measure with --release (or pass --smoke)".into());
    }
    println!(
        "ledger: workload={} seed={} seconds={} trace={} smoke={} profile={} nproc={} commit={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.smoke,
        profile(),
        nproc(),
        commit()
    );
    let mut report = workloads::run(cfg).map_err(|e| format!("{}: {e}", cfg.workload.name()))?;
    if cfg.trace {
        // A layer the workload does not cross reads 0.
        let mut all = MetricSet::per_layer_zeroed();
        for (name, value) in report.metrics.iter() {
            all.set(name, value);
        }
        report.metrics = all;
    }
    complete(cfg, &report.metrics)?;
    for (name, value) in &report.info {
        println!("info: {name} = {value}");
    }
    for (name, value) in report.metrics.iter() {
        println!("metric: {name} = {value} {}", unit_of(name).unwrap_or(""));
    }
    println!("{}", result_line(&report));
    Ok(())
}

/// One child's result line and `answers_fnv`.
struct ChildRun {
    seed: u64,
    result: Json,
    fnv: String,
}

fn spawn_child(cfg: &RunCfg, seed: u64) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", cfg.workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if cfg.trace { "1" } else { "0" }]);
    if cfg.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child: no process outlives the report.
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "child run on seed {seed} ended with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("child run printed nothing")?;
    let fnv = stdout
        .lines()
        .find_map(|l| l.strip_prefix("info: answers_fnv = "))
        .unwrap_or("-")
        .to_string();
    Ok(ChildRun {
        seed,
        result: Json::parse(last).map_err(|e| format!("child result line: {e}"))?,
        fnv,
    })
}

/// `--repeat n`: fresh processes on consecutive seeds, then per metric the
/// median, the quartiles, their distance as a share of the median (the
/// spread the acceptance procedure computes) and the largest deviation
/// from the median, beside the metric's bound. Medians, not best-of-n.
fn run_repeat(cfg: &RunCfg, n: usize) -> Result<(), String> {
    let mut runs = Vec::with_capacity(n);
    for k in 0..n as u64 {
        let run = spawn_child(cfg, cfg.seed + k)?;
        let failed = run
            .result
            .get("failed")
            .and_then(Json::as_f64)
            .unwrap_or(-1.0);
        println!(
            "run {}: seed={} failed={failed} answers_fnv={}",
            k + 1,
            run.seed,
            run.fnv
        );
        runs.push(run);
    }
    println!(
        "\n{:<28} {:>14} {:>14} {:>14} {:>9} {:>9} {:>7}  verdict",
        "metric", "median", "q1", "q3", "spread", "max dev", "bound"
    );
    let mut noisy = 0;
    for name in expected_names(cfg.trace) {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.result.get("metrics")?.get(name)?.get("value")?.as_f64())
            .collect();
        if values.len() != runs.len() {
            return Err(format!("a child run did not print {name}"));
        }
        let med = median(&values);
        let (q1, q3) = if values.len() >= 2 {
            quartiles(&values)
        } else {
            (med, med)
        };
        let rel = |x: f64| if med == 0.0 { 0.0 } else { x / med.abs() };
        let spread = rel(q3 - q1);
        let max_dev = values
            .iter()
            .map(|v| rel((v - med).abs()))
            .fold(0.0, f64::max);
        let bound = END_TO_END.iter().find(|m| m.name == name).map(|m| m.bound);
        // The set-up time is gated on its medians only, not on its spread.
        let verdict = match bound {
            None => "",
            Some(_) if name == "setup_s" => "median-gated",
            Some(b) if spread <= b / 3.0 => "steady",
            Some(b) if spread <= b => "within bound",
            Some(_) => {
                noisy += 1;
                "NOISY"
            }
        };
        println!(
            "{name:<28} {med:>14.6} {q1:>14.6} {q3:>14.6} {:>8.2}% {:>8.2}% {:>7}  {verdict}",
            100.0 * spread,
            100.0 * max_dev,
            bound.map_or("-".to_string(), |b| format!("{:.1}%", 100.0 * b)),
        );
    }
    let failed: f64 = runs
        .iter()
        .filter_map(|r| r.result.get("failed").and_then(Json::as_f64))
        .sum();
    println!("\nruns={n} failed_ops={failed} metrics_over_bound={noisy}");
    if failed > 0.0 {
        return Err("operations failed".into());
    }
    Ok(())
}

pub fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse(&args) {
        Ok(p) => p,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("ledger: {msg}\n");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match parsed.repeat {
        Some(n) => run_repeat(&parsed.cfg, n),
        None => run_once(&parsed.cfg),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("ledger: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = parse(&args(
            "--workload walk_cold --seed 42 --seconds 10 --trace 0",
        ))
        .unwrap();
        assert_eq!(a.cfg.workload, Workload::WalkCold);
        assert_eq!((a.cfg.seed, a.cfg.seconds, a.cfg.trace), (42, 10.0, false));
        let a = parse(&args("--workload refine_mc --trace 1 --seed 7")).unwrap();
        assert!(a.cfg.trace && a.cfg.seed == 7);
        let a = parse(&args("--trace --workload refine_mc --smoke --repeat 3")).unwrap();
        assert!(a.cfg.trace && a.cfg.smoke && a.repeat == Some(3));
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        assert!(parse(&args("--seed 1")).is_err(), "workload is required");
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--workload refine_mc --seconds 0")).is_err());
        assert!(parse(&args("--workload refine_mc --seed -1")).is_err());
        assert!(parse(&args("--workload refine_mc --frobnicate")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut report = RunReport {
            attempted: 12,
            ..Default::default()
        };
        report.metrics.set("setup_s", 0.5);
        report.metrics.set("ops_per_s", 1234.5678);
        let v = Json::parse(&result_line(&report)).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
        let m = v.get("metrics").unwrap().get("ops_per_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(1234.5678));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("1/s"));
    }
}
