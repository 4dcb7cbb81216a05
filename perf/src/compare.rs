//! `perf --compare A.json B.json`: per workload and end-to-end metric,
//! both medians, the relative change of B against A, the bound, and a
//! verdict — `ok`, `worse` (B's median is worse than A's by more than
//! the bound), or `unresolved` (either side's own spread, interquartile
//! over median, is wider than the bound, so the bound cannot be held
//! against it).

use std::process::ExitCode;

use serde_json::Value;

use crate::spec::{self, Better};
use crate::stats;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn values(record: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    record["workloads"][workload]["end_to_end"][metric]["values"]
        .as_array()?
        .iter()
        .map(Value::as_f64)
        .collect()
}

#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// How much worse `b` is than `a` as a share of `a` (negative: better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if stats::spread(a) > bound || stats::spread(b) > bound {
        Verdict::Unresolved
    } else if worsening(stats::median(a), stats::median(b), better) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

pub fn compare(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<16} {:<17} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B vs A", "bound"
    );
    let mut any_worse = false;
    for w in &spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let (Some(va), Some(vb)) = (values(&a, w.name, m.name), values(&b, w.name, m.name))
            else {
                continue; // workload not in both records (--only)
            };
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = judge(&va, &vb, m.better, m.bound);
            any_worse |= verdict == Verdict::Worse;
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            println!(
                "{:<16} {:<17} {:>14.6} {:>14.6} {:>+8.2}% {:>6.1}%  {}",
                w.name,
                m.name,
                ma,
                mb,
                (mb - ma) / ma * 100.0,
                m.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(
            judge(&steady, &[10.5, 10.4, 10.6, 10.5], Better::Lower, 0.1),
            Verdict::Ok
        );
        assert_eq!(
            judge(&steady, &[12.0, 12.1, 11.9, 12.0], Better::Lower, 0.1),
            Verdict::Worse
        );
        // Higher-is-better: a drop is the regression, a rise is not.
        assert_eq!(
            judge(&steady, &[8.0, 8.1, 7.9, 8.0], Better::Higher, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            judge(&steady, &[12.0, 12.1, 11.9, 12.0], Better::Higher, 0.1),
            Verdict::Ok
        );
        // A side noisier than the bound cannot be held to it.
        assert_eq!(
            judge(&steady, &[8.0, 14.0, 9.0, 13.0], Better::Lower, 0.1),
            Verdict::Unresolved
        );
        assert!((worsening(10.0, 12.0, Better::Lower) - 0.2).abs() < 1e-12);
        assert!((worsening(10.0, 8.0, Better::Higher) - 0.2).abs() < 1e-12);
    }
}
