//! Shared plumbing for the experiment regenerators. The paper's
//! evaluation is one table ([`experiments::EXPERIMENTS`]) behind one
//! driver (`all`); this crate root holds what the table, the driver and
//! the three binaries that are not "studies in, reports out" share: the
//! experiment scale, flag checking, bar/ratio/chart printing and the
//! JSON record writer. A study runs the `solution` its experiment row
//! scripts; `mdflow-run --solution` is the one ad-hoc way to pick
//! another.

use std::num::{NonZeroU32, NonZeroU64};

pub use mdflow::campaign::env_or;
use mdflow::prelude::*;
use serde::{Content, Serialize};

pub mod experiments;

/// Environment-tunable experiment scale so the full suite can run both
/// at paper fidelity and in quick CI mode.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Repetitions per configuration (paper: 10).
    pub reps: u32,
    /// Frames per pair (paper: 128).
    pub frames: u64,
}

impl Scale {
    /// Read `MDFLOW_REPS` / `MDFLOW_FRAMES` from the environment,
    /// defaulting to the paper's 10 × 128. Both are counts: a value that
    /// is no positive integer ends the process ([`env_or`]).
    pub fn from_env() -> Scale {
        const REPS: NonZeroU32 = NonZeroU32::new(10).expect("positive");
        const FRAMES: NonZeroU64 = NonZeroU64::new(128).expect("positive");
        Scale {
            reps: env_or("MDFLOW_REPS", REPS).get(),
            frames: env_or("MDFLOW_FRAMES", FRAMES).get(),
        }
    }
}

/// The value following `flag` in `args`.
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Walk `args` once against the flags a binary reads — `valued` flags
/// take the argument after them, `bare` ones stand alone — so that a
/// misspelt flag, or a valued one that ends the line, is an error naming
/// it instead of a run of the defaults.
pub fn check_flags(args: &[String], valued: &[&str], bare: &[&str]) -> Result<(), String> {
    let mut it = args.iter().map(String::as_str);
    while let Some(a) = it.next() {
        if valued.contains(&a) {
            it.next().ok_or_else(|| format!("{a} needs a value"))?;
        } else if !bare.contains(&a) {
            return Err(format!("unknown flag {a}"));
        }
    }
    Ok(())
}

/// The paper-calibrated study of `wf` at `scale`. Seeding is
/// `StudyConfig::paper`'s, so a study's report does not depend on which
/// other studies share its executor invocation.
pub(crate) fn study_at(wf: WorkflowConfig, scale: Scale) -> StudyConfig {
    StudyConfig::paper(wf.with_frames(scale.frames)).with_repetitions(scale.reps)
}

/// Format seconds with an appropriate unit.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

/// Print one figure bar: label, movement, idle, total.
pub(crate) fn print_bar(label: &str, r: &StudyReport) {
    println!(
        "  {label:<28} prod: move {:>11} idle {:>11} | cons: move {:>11} idle {:>11} | cons total {:>11}",
        fmt_secs(r.production_movement.mean),
        fmt_secs(r.production_idle.mean),
        fmt_secs(r.consumption_movement.mean),
        fmt_secs(r.consumption_idle.mean),
        fmt_secs(r.consumption_total()),
    );
}

/// Print a paper-vs-measured headline ratio row.
pub fn print_ratio(what: &str, paper: &str, measured: f64) {
    println!("  {what:<58} paper: {paper:<14} measured: {measured:.1}x");
}

/// Where `all` and `mdflow-run --trace` write their records.
pub const EXPERIMENTS_DIR: &str = "target/experiments";

/// Write the record `json` to `dir/<name>.json`, creating `dir`. A
/// record that cannot be written ends the process (exit 1).
pub fn write_record(dir: &str, name: &str, json: &str) {
    let path = std::path::Path::new(dir).join(format!("{name}.json"));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
        eprintln!("error: could not write {}: {e}", path.display());
        std::process::exit(1)
    }
    println!("  [saved {}]", path.display());
}

/// A report with its label appended as the last field.
struct Labelled<'a>(&'a str, &'a StudyReport);

impl Serialize for Labelled<'_> {
    fn to_content(&self) -> Content {
        let Content::Map(mut fields) = self.1.to_content() else {
            unreachable!("a report is a JSON object")
        };
        fields.push(("label".to_string(), self.0.to_content()));
        Content::Map(fields)
    }
}

/// Serialize a list of labelled reports.
pub fn reports_json(rows: &[(String, StudyReport)]) -> String {
    let labelled: Vec<Labelled> = rows.iter().map(|(l, r)| Labelled(l, r)).collect();
    serde_json::to_string_pretty(&labelled).expect("json")
}

/// Render a grouped horizontal bar chart of `(label, movement, idle)`
/// rows (seconds) as ASCII — the reproduced view of the paper's stacked
/// red/blue bar figures. Bars are log-scaled when values span more than
/// two decades so µs-scale movement stays visible next to near-second
/// idle bars.
pub(crate) fn render_bars(title: &str, rows: &[(String, f64, f64)]) -> String {
    const WIDTH: f64 = 56.0;
    let mut out = format!(
        "  {title}
"
    );
    let max = rows
        .iter()
        .map(|(_, m, i)| m + i)
        .fold(f64::MIN_POSITIVE, f64::max);
    let min = rows
        .iter()
        .map(|(_, m, i)| (m + i).max(1e-9))
        .fold(f64::INFINITY, f64::min);
    let log_scale = max / min > 100.0;
    let scale = |v: f64| -> usize {
        if v <= 0.0 {
            return 0;
        }
        let frac = if log_scale {
            ((v.max(1e-9) / min).ln() / (max / min).ln()).clamp(0.0, 1.0)
        } else {
            v / max
        };
        (frac * WIDTH).round() as usize
    };
    for (label, movement, idle) in rows {
        let total = movement + idle;
        let total_w = scale(total).max(1);
        let move_w = ((movement / total.max(1e-12)) * total_w as f64).round() as usize;
        let move_w = move_w.min(total_w);
        out.push_str(&format!(
            "  {label:<26} |{}{}| {}
",
            "#".repeat(move_w),
            "-".repeat(total_w - move_w),
            fmt_secs(total)
        ));
    }
    out.push_str(&format!(
        "  {:<26}  ('#' movement, '-' idle{})
",
        "",
        if log_scale { ", log scale" } else { "" }
    ));
    out
}

/// The stacked-bar chart of labelled reports: the production side's
/// movement and idle per frame, or the consumption side's.
pub(crate) fn chart(title: &str, rows: &[(String, StudyReport)], production: bool) -> String {
    let bars: Vec<(String, f64, f64)> = rows
        .iter()
        .map(|(l, r)| {
            let (movement, idle) = if production {
                (r.production_movement, r.production_idle)
            } else {
                (r.consumption_movement, r.consumption_idle)
            };
            (l.clone(), movement.mean, idle.mean)
        })
        .collect();
    render_bars(title, &bars)
}

// Hand-built `Value` trees for the harness records: the vendored
// serde_json has no `json!`.

/// A JSON object from `(key, value)` fields, in order.
pub fn obj(fields: Vec<(&str, serde_json::Value)>) -> serde_json::Value {
    serde_json::Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A JSON unsigned integer.
pub fn num_u64(v: u64) -> serde_json::Value {
    serde_json::Value::Number(serde_json::Number::U64(v))
}

/// A JSON float.
pub fn num_f64(v: f64) -> serde_json::Value {
    serde_json::Value::Number(serde_json::Number::F64(v))
}

/// Process high-water RSS. `VmHWM` is linux-only; other platforms
/// report 0 rather than lying.
pub fn rss_peak_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<u64>().ok())
            })
        })
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_units() {
        assert_eq!(fmt_secs(2.5), "2.500 s");
        assert_eq!(fmt_secs(0.0025), "2.500 ms");
        assert_eq!(fmt_secs(0.0000025), "2.5 µs");
    }

    #[test]
    fn scale_env_defaults() {
        let s = Scale::from_env();
        assert!(s.reps >= 1);
        assert!(s.frames >= 1);
    }

    #[test]
    fn bars_render_proportionally() {
        let rows = vec![
            ("a".to_string(), 0.001, 0.0),
            ("b".to_string(), 0.001, 0.001),
        ];
        let chart = render_bars("test", &rows);
        assert!(chart.contains("a"));
        assert!(chart.contains('#'));
        // b's bar (2 ms) is longer than a's (1 ms).
        let lens: Vec<usize> = chart
            .lines()
            .filter(|l| l.contains('|'))
            .map(|l| l.matches(['#', '-']).count())
            .collect();
        assert!(lens[1] > lens[0], "{chart}");
    }

    #[test]
    fn log_scale_keeps_small_bars_visible() {
        let rows = vec![
            ("tiny".to_string(), 1e-6, 0.0),
            ("huge".to_string(), 0.0, 1.0),
        ];
        let chart = render_bars("log", &rows);
        assert!(chart.contains("log scale"));
        for line in chart.lines().filter(|l| l.contains('|')) {
            assert!(line.matches(['#', '-']).count() >= 1, "{chart}");
        }
    }
}
