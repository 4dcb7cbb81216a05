//! What a workload child process does: one counted (untimed) rep, then
//! either timed reps for `--seconds` (end-to-end metrics) or one traced
//! rep (per-layer metrics), with the output check over all of them.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use serde_json::Value;

use crate::json::{num, obj, text, uint};
use crate::rep::{counted_rep, timed_rep, CountedRep, TimedRep};
use crate::spec;
use crate::stats;
use crate::workloads::{Workload, DEFAULT_SEED};
use crate::yardstick::{self, Yardstick};

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
}

/// Timed reps never number fewer than this, however short `--seconds`.
const MIN_TIMED_REPS: usize = 3;

/// Peak resident set of this process, MB (`VmHWM`; 0 off Linux).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A metric with the per-rep values behind its median.
fn metric(unit: &str, values: &[f64]) -> Value {
    obj(vec![
        ("value", num(stats::median(values))),
        ("unit", text(unit)),
        (
            "values",
            Value::Array(values.iter().copied().map(num).collect()),
        ),
    ])
}

/// What the reps of one child added up to.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<(String, Value)>,
}

/// Run workload `w` and return the child's result object. Panics inside
/// a rep (the runner's hard-stop assertion among them) are caught and
/// counted: that rep's owed deliveries become `failed`.
pub fn run_workload(w: &Workload, args: &RunArgs) -> Value {
    let owed = w.owed();
    let mut o = Outcome {
        attempted: owed,
        ..Outcome::default()
    };
    let Ok(counted) = catch_unwind(AssertUnwindSafe(|| counted_rep(w, false))) else {
        // Nothing to compare later reps against: give up here.
        o.failed = owed;
        o.errors.push("counted rep panicked".into());
        return result(w, args, None, o);
    };
    if counted.delivered + counted.lost < owed {
        let missing = owed - counted.delivered - counted.lost;
        o.failed += missing;
        o.errors.push(format!(
            "{missing} of {owed} deliveries neither delivered nor typed as lost"
        ));
    }

    if args.traced {
        o.attempted += owed;
        match catch_unwind(AssertUnwindSafe(|| counted_rep(w, true))) {
            Ok(traced) => {
                if traced.reports != counted.reports {
                    o.failed += owed;
                    o.errors
                        .push("traced rep's reports differ from the untraced rep's".into());
                }
                o.metrics = layer_metrics(w, &counted, traced, &mut o.errors);
            }
            Err(_) => {
                o.failed += owed;
                o.errors.push("traced rep panicked".into());
            }
        }
    } else {
        let mut reps: Vec<TimedRep> = Vec::new();
        // Read after the first timed rep, not the last: how many reps fit
        // into `--seconds` depends on the host's speed, and allocator
        // fragmentation grows the high-water mark a little with each.
        let mut peak_rss = 0.0;
        // The host's speed, sampled before the first rep and after each.
        let mut yard = Yardstick::new();
        let mut host = vec![yard.sample()];
        let started = Instant::now();
        let (budget, min_reps) = if args.smoke {
            (0.0, 1)
        } else {
            (args.seconds, MIN_TIMED_REPS)
        };
        while reps.len() < min_reps || started.elapsed().as_secs_f64() < budget {
            o.attempted += owed;
            let rep_no = reps.len() + 1;
            match catch_unwind(AssertUnwindSafe(|| timed_rep(w))) {
                Ok(rep) if rep.reports == counted.reports => {
                    if reps.is_empty() {
                        peak_rss = peak_rss_mb();
                    }
                    reps.push(rep);
                    host.push(yard.sample());
                }
                Ok(_) => {
                    o.failed += owed;
                    o.errors
                        .push(format!("timed rep {rep_no}: reports not byte-identical"));
                    break;
                }
                Err(_) => {
                    o.failed += owed;
                    o.errors.push(format!("timed rep {rep_no} panicked"));
                    break;
                }
            }
        }
        if !reps.is_empty() {
            o.metrics = end_to_end_metrics(&counted, &reps, owed, peak_rss, &host);
        }
    }
    result(w, args, Some(&counted), o)
}

/// The six end-to-end metrics, the three times among them divided by
/// the host's slowdown during the run, followed by what went into them:
/// the slowdown and the raw times, for the reader, not for the driver.
fn end_to_end_metrics(
    counted: &CountedRep,
    reps: &[TimedRep],
    owed: u64,
    peak_rss: f64,
    host: &[f64],
) -> Vec<(String, Value)> {
    let events = counted.events as f64;
    let slow = yardstick::slowdown(host);
    let per_rep = |f: &dyn Fn(&TimedRep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let unit = |name: &str| {
        spec::end_to_end(name)
            .expect("metric in the spec table")
            .unit
    };
    let values: [(&str, Vec<f64>); 6] = [
        ("wall_s", per_rep(&|r| r.wall_s / slow)),
        ("events_per_s", per_rep(&|r| events / r.sim_s * slow)),
        ("setup_s", per_rep(&|r| r.setup_s / slow)),
        ("peak_rss_mb", vec![peak_rss]),
        ("allocs_per_event", per_rep(&|r| r.allocs as f64 / events)),
        (
            "delivered_share",
            vec![counted.delivered as f64 / owed as f64],
        ),
    ];
    let mut metrics: Vec<(String, Value)> = values
        .into_iter()
        .map(|(name, v)| (name.to_string(), metric(unit(name), &v)))
        .collect();
    let per_sample: Vec<f64> = host
        .iter()
        .map(|&s| s / yardstick::NOMINAL_SLICE_SECS)
        .collect();
    metrics.push((
        "host_slowdown".to_string(),
        obj(vec![
            ("value", num(slow)),
            ("unit", text("ratio")),
            (
                "values",
                Value::Array(per_sample.into_iter().map(num).collect()),
            ),
        ]),
    ));
    let raw: [(&str, &str, Vec<f64>); 3] = [
        ("raw_wall_s", "s", per_rep(&|r| r.wall_s)),
        (
            "raw_events_per_s",
            "events/s",
            per_rep(&|r| events / r.sim_s),
        ),
        ("raw_setup_s", "s", per_rep(&|r| r.setup_s)),
    ];
    metrics.extend(
        raw.into_iter()
            .map(|(name, unit, v)| (name.to_string(), metric(unit, &v))),
    );
    metrics
}

fn layer_metrics(
    w: &Workload,
    untraced: &CountedRep,
    mut traced: CountedRep,
    errors: &mut Vec<String>,
) -> Vec<(String, Value)> {
    traced.layers.insert(
        "instrument.trace_overhead_ratio",
        Some(traced.wall_s / untraced.wall_s),
    );
    traced
        .layers
        .insert("host.yardstick_ms", Some(Yardstick::new().sample() * 1e3));
    let path = format!("target/perf/trace-{}.json", w.name);
    let written = std::fs::create_dir_all("target/perf")
        .and_then(|()| std::fs::write(&path, traced.spans.to_chrome_json(&traced.sim_events)));
    if let Err(e) = written {
        errors.push(format!("cannot write {path}: {e}"));
    }
    spec::PER_LAYER
        .iter()
        .filter(|l| l.source == spec::Source::Traced)
        .map(|l| {
            // `None`: a report key this metric is read from by name no
            // longer exists. Reported as null here; the parent decides
            // what the driver line shows.
            let v = match traced.layers.get(l.name).copied().flatten() {
                Some(v) => num(v),
                None => {
                    eprintln!("perf: {}: report key absent, reporting null", l.name);
                    Value::Null
                }
            };
            (
                l.name.to_string(),
                obj(vec![("value", v), ("unit", text(l.unit))]),
            )
        })
        .collect()
}

fn result(w: &Workload, args: &RunArgs, counted: Option<&CountedRep>, o: Outcome) -> Value {
    let (events, makespan_ns) = counted.map_or((0, 0), |c| (c.events, c.makespan_ns));
    // Only the default seed at full size has a pinned trajectory.
    let pinned = args.seed == DEFAULT_SEED && !args.smoke && w.reference != (0, 0);
    let trajectory_changed = pinned && counted.is_some() && (events, makespan_ns) != w.reference;
    if trajectory_changed {
        eprintln!(
            "perf: {}: trajectory changed: {events} events / {makespan_ns} ns, reference {} / {}",
            w.name, w.reference.0, w.reference.1
        );
    }
    obj(vec![
        ("workload", text(w.name)),
        ("correct", Value::Bool(o.errors.is_empty())),
        ("attempted", uint(o.attempted)),
        ("failed", uint(o.failed)),
        (
            "errors",
            Value::Array(o.errors.iter().map(|e| text(e)).collect()),
        ),
        ("events", uint(events)),
        ("makespan_ns", uint(makespan_ns)),
        ("trajectory_changed", Value::Bool(trajectory_changed)),
        ("metrics", Value::Object(o.metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::number_at;
    use mdflow::prelude::*;

    fn tiny(solution: Solution, placement: Placement) -> Workload {
        Workload {
            name: "tiny",
            studies: vec![StudyConfig {
                workflow: WorkflowConfig::new(solution, 2, placement).with_frames(4),
                repetitions: 2,
                seed: 7,
                calibration: Calibration::quiet(),
            }],
            expected_rep_secs: 1.0,
            reference: (0, 0),
        }
    }

    fn args(traced: bool) -> RunArgs {
        RunArgs {
            seed: 7,
            seconds: 0.0,
            traced,
            smoke: true,
        }
    }

    #[test]
    fn untraced_run_reports_every_end_to_end_metric() {
        let w = tiny(Solution::Dyad, Placement::SingleNode);
        let r = run_workload(&w, &args(false));
        assert_eq!(r["correct"].as_bool(), Some(true), "{:?}", r["errors"]);
        // Counted rep + one timed rep, 2 pairs x 4 frames x 2 runs each.
        assert_eq!(r["attempted"].as_u64(), Some(32));
        assert_eq!(r["failed"].as_u64(), Some(0));
        for m in &spec::END_TO_END {
            let v = number_at(&r, &["metrics", m.name, "value"]);
            assert!(v.is_some_and(|v| v > 0.0), "{} = {v:?}", m.name);
        }
        assert_eq!(
            number_at(&r, &["metrics", "delivered_share", "value"]),
            Some(1.0)
        );
    }

    #[test]
    fn traced_run_finds_every_report_key_it_reads() {
        let w = tiny(Solution::Dyad, Placement::SingleNode);
        let r = run_workload(&w, &args(true));
        assert_eq!(r["correct"].as_bool(), Some(true), "{:?}", r["errors"]);
        for l in spec::PER_LAYER
            .iter()
            .filter(|l| l.source == spec::Source::Traced)
        {
            assert!(
                number_at(&r, &["metrics", l.name, "value"]).is_some(),
                "{} is null: a report key was renamed",
                l.name
            );
        }
        assert_eq!(
            number_at(&r, &["metrics", "kvs.commits", "value"]),
            Some(32.0)
        );
        assert!(number_at(&r, &["metrics", "dyad.produce_sim_s", "value"]).unwrap() > 0.0);
    }

    #[test]
    fn a_panicking_rep_is_counted_not_propagated() {
        // XFS cannot move data between nodes: the runner asserts.
        let w = tiny(Solution::Xfs, Placement::Split { pairs_per_node: 8 });
        let r = run_workload(&w, &args(false));
        assert_eq!(r["correct"].as_bool(), Some(false));
        assert_eq!(r["attempted"].as_u64(), Some(16));
        assert_eq!(r["failed"].as_u64(), Some(16));
    }
}
