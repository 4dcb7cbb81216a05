//! Shared plumbing for the experiment regenerators. The paper's
//! evaluation is one table ([`experiments::EXPERIMENTS`]) behind one
//! driver (`all`); this crate root holds what the table, the driver and
//! the four binaries that are not "studies in, reports out" share: the
//! experiment scale, flag checking, bar/ratio/chart printing, the JSON
//! record writers and the metadata-plane cell. A study runs the
//! `solution` its experiment row scripts; `mdflow-run --solution` is the
//! one ad-hoc way to pick another.

use std::num::{NonZeroU32, NonZeroU64};

pub use mdflow::campaign::env_or;
use mdflow::prelude::*;
use simcore::SimDuration;

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

/// Append a JSON experiment record to `target/experiments/<name>.json`.
pub fn save_json(name: &str, payload: &str) {
    let dir = std::path::Path::new("target/experiments");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("{name}.json"));
    if let Err(e) = std::fs::write(&path, payload) {
        eprintln!("warning: could not save {path:?}: {e}");
    } else {
        println!("  [saved {path:?}]");
    }
}

/// Serialize a list of labelled reports.
pub fn reports_json(rows: &[(String, StudyReport)]) -> String {
    let objs: Vec<serde_json::Value> = rows
        .iter()
        .map(|(label, r)| {
            let mut v: serde_json::Value = serde_json::from_str(&r.to_json()).expect("report json");
            v["label"] = serde_json::Value::String(label.clone());
            v
        })
        .collect();
    serde_json::to_string_pretty(&objs).expect("json")
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

/// Convenience: chart rows from labelled reports (consumption view).
pub(crate) fn consumption_chart(title: &str, rows: &[(String, StudyReport)]) -> String {
    let bars: Vec<(String, f64, f64)> = rows
        .iter()
        .map(|(l, r)| {
            (
                l.clone(),
                r.consumption_movement.mean,
                r.consumption_idle.mean,
            )
        })
        .collect();
    render_bars(title, &bars)
}

/// Convenience: chart rows from labelled reports (production view).
pub(crate) fn production_chart(title: &str, rows: &[(String, StudyReport)]) -> String {
    let bars: Vec<(String, f64, f64)> = rows
        .iter()
        .map(|(l, r)| {
            (
                l.clone(),
                r.production_movement.mean,
                r.production_idle.mean,
            )
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

/// Write a harness record (`BENCH_PR*.json`) into `--out DIR`, default
/// the current directory.
pub fn write_record(args: &[String], file: &str, record: &serde_json::Value) {
    let dir = flag_value(args, "--out").unwrap_or(".");
    std::fs::create_dir_all(dir).expect("create output directory");
    let out = format!("{dir}/{file}");
    let json = serde_json::to_string_pretty(record).expect("json");
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("  [saved {out}]");
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

/// One measured cell of the metadata-plane shard sweep.
pub struct MetadataCell {
    /// Producer-consumer pairs.
    pub pairs: u32,
    /// KVS shards.
    pub shards: u32,
    /// Replicas per key.
    pub replication: u32,
    /// Mean consumer sync latency per consume, milliseconds (sim time).
    pub sync_ms: f64,
    /// Worst per-shard peak of in-flight broker requests (queued,
    /// in service, or parked server-side watches).
    pub peak_queue: u64,
    /// Server-side watches served across all shards.
    pub waits: u64,
    /// Replication deltas shipped shard→shard.
    pub deltas_sent: u64,
}

/// Run one metadata-plane cell (seed 11): DYAD on a quiet testbed with
/// the metadata plane, not MD compute, bounding the pipeline. The
/// tier-1 shard-sweep test (`tests/experiments.rs`) reads it;
/// EXPERIMENTS.md has the recorded sweep.
pub fn run_cell(pairs: u32, shards: u32, replication: u32, frames: u64) -> MetadataCell {
    let mut cal = Calibration::quiet();
    // The stock flux-broker profile (20 µs/op, 4 service threads), not
    // corona's beefier 8-thread broker: the sweep's variable is the
    // *number* of brokers, so per-broker capacity sits where a single
    // broker saturates inside the measured pair range.
    cal.kvs = kvs::KvsSpec::default();
    let mut wf = WorkflowConfig::new(
        Solution::Dyad,
        pairs,
        Placement::Split { pairs_per_node: 64 },
    )
    .with_frames(frames)
    // 80x the paper's JAC frame rate (the frequency-scaling ablation):
    // at stride 880 the MD phase dominates the consumer's wait and the
    // broker idles between frames; at stride 11 a frame arrives every
    // ~2.5 ms, the per-pair commit + wait + ack RPC stream saturates a
    // single broker past several hundred pairs, and the metadata plane
    // bounds the pipeline. That is the regime a shard sweep is about.
    .with_stride(11)
    .with_kvs_shards(shards)
    .with_kvs_replication(replication);
    // Re-synchronize through the KVS on every frame, not just the first.
    wf.dyad_warm_sync = false;
    let m = run_once(&wf, &cal, 11);

    let mut sync = SimDuration::ZERO;
    let mut consumes = 0u64;
    for p in &m.consumers {
        if let Some(n) = p.node(&["dyad_consume", "dyad_fetch"]) {
            sync += n.inclusive;
            consumes += n.count;
        }
    }
    MetadataCell {
        pairs,
        shards,
        replication,
        sync_ms: sync.as_secs_f64() * 1e3 / consumes.max(1) as f64,
        peak_queue: m.kvs.peak_queue,
        waits: m.kvs.waits,
        deltas_sent: m.kvs.deltas_sent,
    }
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
