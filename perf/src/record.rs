//! Parent-side orchestration: one measured run for the acceptance
//! driver ([`driver_run`]) and the full record of every workload plus
//! the probes ([`full_record`]). Both only spawn children and print.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::child::{run_child, ChildError};
use crate::json::{num, obj, text, uint};
use crate::workloads::{self, Workload};
use crate::{probes, spec, stats, Cli};

/// A driver run must exit within 180 s; children share this much.
const DRIVER_DEADLINE: Duration = Duration::from_secs(170);

/// Seconds per probe rep in the full record (three reps per probe).
const FULL_PROBE_REP_SECS: f64 = 0.2;

/// Watchdog for one workload child: ten times what its reps should
/// take on the reference host.
fn watchdog(w: &Workload, seconds: f64, traced: bool) -> Duration {
    let reps = if traced {
        2.0
    } else {
        1.0 + (seconds / w.expected_rep_secs).ceil().max(3.0)
    };
    Duration::from_secs_f64(10.0 * (reps * w.expected_rep_secs).max(1.0))
}

fn workload_args(name: &str, seed: u64, seconds: f64, traced: bool, smoke: bool) -> Vec<String> {
    let mut args = vec![
        "--child-workload".to_string(),
        name.to_string(),
        "--seed".to_string(),
        seed.to_string(),
        "--seconds".to_string(),
        seconds.to_string(),
        "--trace".to_string(),
        (traced as u8).to_string(),
    ];
    if smoke {
        args.push("--smoke".to_string());
    }
    args
}

fn probe_args(rep_secs: f64) -> Vec<String> {
    vec!["--child-probes".to_string(), rep_secs.to_string()]
}

/// Watchdog for the probes child: its measured reps plus warm-up
/// batches, with the same factor ten.
fn probe_watchdog(rep_secs: f64) -> Duration {
    Duration::from_secs_f64(10.0 * (probes::timed_reps() as f64 * rep_secs + 3.0))
}

fn entries(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Object(entries) => entries,
        _ => &[],
    }
}

/// Print `name value unit (min .. max, n reps)` for every metric.
fn print_metrics(metrics: &Value) {
    for (name, m) in entries(metrics) {
        let value = m["value"]
            .as_f64()
            .map_or("null".to_string(), |v| format!("{v:.6}"));
        let unit = m["unit"].as_str().unwrap_or("");
        let reps: Vec<f64> = m["values"]
            .as_array()
            .map_or(Vec::new(), |v| v.iter().filter_map(Value::as_f64).collect());
        if reps.is_empty() {
            println!("  {name:<40} {value:>18} {unit}");
        } else {
            println!(
                "  {name:<40} {value:>18} {unit:<9} (min {:.6}, max {:.6}, {} reps)",
                stats::min(&reps),
                stats::max(&reps),
                reps.len()
            );
        }
    }
}

/// The strict result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`, every metric exactly `value` and `unit`, in spec order.
fn strict_result(result: &Value, names: &[(&str, &str)]) -> Value {
    let metrics = names
        .iter()
        .map(|&(name, unit)| {
            let value = result["metrics"][name]["value"]
                .as_f64()
                .unwrap_or_else(|| {
                    // A report key a refactor renamed: visible here, fixed
                    // in a benchmark-only change, never a build break.
                    eprintln!("perf: {name}: no value, reporting 0");
                    0.0
                });
            (
                name.to_string(),
                obj(vec![("value", num(value)), ("unit", text(unit))]),
            )
        })
        .collect();
    obj(vec![
        (
            "correct",
            Value::Bool(result["correct"].as_bool() == Some(true)),
        ),
        (
            "attempted",
            uint(result["attempted"].as_u64().unwrap_or(0).max(1)),
        ),
        ("failed", uint(result["failed"].as_u64().unwrap_or(0))),
        ("metrics", Value::Object(metrics)),
    ])
}

fn report_errors(name: &str, result: &Value) {
    for e in result["errors"].as_array().into_iter().flatten() {
        eprintln!("perf: {name}: {}", e.as_str().unwrap_or("?"));
    }
}

fn unknown_workload(name: &str) -> ExitCode {
    eprintln!(
        "perf: unknown workload {name:?}; one of {}",
        workloads::NAMES.join(", ")
    );
    ExitCode::from(2)
}

/// `perf --workload W --seed N --seconds S --trace T`.
pub fn driver_run(name: &str, seed: u64, seconds: f64, traced: bool, smoke: bool) -> ExitCode {
    let Some(w) = workloads::build(name, seed, smoke) else {
        return unknown_workload(name);
    };
    let started = Instant::now();
    let left = |want: Duration| want.min(DRIVER_DEADLINE.saturating_sub(started.elapsed()));
    let mut result = match run_child(
        &workload_args(name, seed, seconds, traced, smoke),
        left(watchdog(&w, seconds, traced)),
    ) {
        Ok(r) => r,
        Err(e) => {
            report_dead_child(name, &w, &e);
            return ExitCode::FAILURE;
        }
    };
    if traced {
        // The probes' reps share half the run's seconds.
        let rep_secs = seconds / 2.0 / probes::timed_reps() as f64;
        match run_child(&probe_args(rep_secs), left(probe_watchdog(rep_secs))) {
            Ok(p) => {
                let merged: Vec<(String, Value)> = entries(&result["metrics"])
                    .iter()
                    .chain(entries(&p["metrics"]))
                    .cloned()
                    .collect();
                result["metrics"] = Value::Object(merged);
            }
            Err(e) => {
                report_dead_child("probes", &w, &e);
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "{name}  seed {seed:#x}  {seconds} s  {}",
        if traced { "traced" } else { "untraced" }
    );
    print_metrics(&result["metrics"]);
    report_errors(name, &result);
    let names: Vec<(&str, &str)> = if traced {
        spec::PER_LAYER.iter().map(|l| (l.name, l.unit)).collect()
    } else {
        spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let strict = strict_result(&result, &names);
    println!(
        "{}",
        serde_json::to_string(&strict).expect("result serializes")
    );
    if strict["correct"].as_bool() == Some(true) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// A child that never reported: every delivery it owed counts as
/// failed — never a stuck benchmark.
fn report_dead_child(name: &str, w: &Workload, e: &ChildError) {
    eprintln!(
        "perf: {name}: {e}; {} owed deliveries counted as failed",
        w.owed()
    );
}

fn command_line(program: &str, args: &[&str]) -> Value {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or(Value::Null, |s| text(s.trim()))
}

/// The host a record was measured on.
fn host() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .map_or(Value::Null, |s| text(&s));
    obj(vec![
        (
            "nproc",
            uint(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("cpu", cpu),
        ("rustc", command_line("rustc", &["--version"])),
        ("commit", command_line("git", &["rev-parse", "HEAD"])),
    ])
}

/// One workload's entry in the full record: the untraced child's
/// verdict and end-to-end metrics, the traced child's per-layer metrics.
/// Returns the entry and whether every check passed.
fn workload_record(name: &str, seed: u64, seconds: f64, smoke: bool) -> (Value, bool) {
    let w = workloads::build(name, seed, smoke).expect("caller passes known names");
    let mut record: Vec<(&str, Value)> = Vec::new();
    let mut correct = true;
    for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
        println!(
            "{name}  seed {seed:#x}  {}",
            if traced { "traced" } else { "untraced" }
        );
        let result = run_child(
            &workload_args(name, seed, seconds, traced, smoke),
            watchdog(&w, seconds, traced),
        )
        .unwrap_or_else(|e| {
            report_dead_child(name, &w, &e);
            obj(vec![
                ("correct", Value::Bool(false)),
                ("attempted", uint(w.owed())),
                ("failed", uint(w.owed())),
                ("errors", Value::Array(vec![text(&e.to_string())])),
            ])
        });
        print_metrics(&result["metrics"]);
        report_errors(name, &result);
        correct &= result["correct"].as_bool() == Some(true);
        if traced {
            record.push(("traced_errors", result["errors"].clone()));
        } else {
            for key in [
                "correct",
                "attempted",
                "failed",
                "errors",
                "events",
                "makespan_ns",
                "trajectory_changed",
            ] {
                record.push((key, result[key].clone()));
            }
        }
        record.push((section, result["metrics"].clone()));
    }
    (obj(record), correct)
}

/// `perf [--only W] [--smoke] [--seed N] [--seconds S] [--out FILE]`.
pub fn full_record(cli: &Cli, seed: u64, seconds: f64) -> ExitCode {
    let names: Vec<&str> = match &cli.only {
        Some(only) if workloads::NAMES.contains(&only.as_str()) => vec![only.as_str()],
        Some(only) => return unknown_workload(only),
        None => workloads::NAMES.to_vec(),
    };
    let mut all_correct = true;
    let mut records: Vec<(String, Value)> = Vec::new();
    for name in names {
        let (record, correct) = workload_record(name, seed, seconds, cli.smoke);
        all_correct &= correct;
        records.push((name.to_string(), record));
    }

    println!("probes");
    let rep_secs = if cli.smoke { 0.01 } else { FULL_PROBE_REP_SECS };
    let probes = match run_child(&probe_args(rep_secs), probe_watchdog(rep_secs)) {
        Ok(p) => {
            print_metrics(&p["metrics"]);
            p["metrics"].clone()
        }
        Err(e) => {
            eprintln!("perf: probes: {e}");
            all_correct = false;
            Value::Null
        }
    };

    let moves = spec::PER_LAYER
        .iter()
        .map(|l| {
            obj(vec![
                ("layer", text(l.name)),
                ("metric", text(l.moves_metric)),
                ("workload", text(l.moves_workload)),
            ])
        })
        .collect();
    let record = obj(vec![
        ("schema", uint(1)),
        ("host", host()),
        ("seed", uint(seed)),
        ("seconds", num(seconds)),
        ("smoke", Value::Bool(cli.smoke)),
        ("workloads", Value::Object(records)),
        ("probes", probes),
        ("moves", Value::Array(moves)),
    ]);
    let out = cli.out.as_deref().unwrap_or("target/perf/record.json");
    let written = std::path::Path::new(out)
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| {
            std::fs::write(
                out,
                serde_json::to_string_pretty(&record).expect("record serializes") + "\n",
            )
        });
    if let Err(e) = written {
        eprintln!("perf: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("[saved {out}]");
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perf: output check failed");
        ExitCode::FAILURE
    }
}
