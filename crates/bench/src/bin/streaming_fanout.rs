//! `streaming_fanout` — the PR 10 crossover bench: SST-style streaming
//! M:N groups vs the paper's three backends.
//!
//! Two sweeps on an oversubscribed leaf/spine fabric:
//!
//! * **fan-out** K ∈ {1, 2, 4}: streaming runs `STREAM_GROUPS` groups
//!   of 1 publisher → K subscribers; each traditional backend runs
//!   `STREAM_GROUPS × K` independent 1:1 pairs — the only way a
//!   file-per-frame backend delivers every frame to K consumers is K
//!   full pipelines (see EXPERIMENTS.md for the honest-A/B caveats:
//!   this hands the baselines K independent producers, which *favors*
//!   them on the production side).
//! * **fan-in** K = 4: streaming runs K publishers → 1 reducer per
//!   group with a binary reduction tree; the baselines again run K
//!   independent pairs (they have no reduce stage — their consumers
//!   stop at per-leaf analytics).
//!
//! All costs are compared **per delivered frame** (group frames ×
//! fan-out/fan-in), which normalizes away the shape difference.
//!
//! Every point is run at 3 fixed seeds and reduced to one report.
//!
//! Modes / knobs:
//!
//! * `streaming_fanout [--out DIR]` — run both sweeps, print the
//!   crossover table, write `BENCH_PR10.json`.
//! * `--enforce` (or `STREAM_ENFORCE=1`) — additionally gate the
//!   scale-free ratios: streaming(fanout=1) within
//!   `STREAM_DYAD_FACTOR` (default 2.0) of DYAD per delivered frame;
//!   per-delivered-frame consumption at the top fan-out within
//!   `STREAM_K_FACTOR` (default 2.0) of the fanout=1 point; streaming
//!   cheaper than both manual-sync baselines at every K; the fan-in
//!   makespan within `STREAM_FANIN_FACTOR` (default 2.0) of the DYAD
//!   baseline's.
//! * `STREAM_GROUPS` (default 8), `STREAM_FRAMES` (default 12) —
//!   sweep scale (CI runs the defaults).

use bench::{fmt_secs, save_json};
use mdflow::prelude::*;

/// Fixed seeds every point is run at (the chaos suite's three).
const SEEDS: [u64; 3] = [11, 42, 20240807];

/// Fan-out axis of the crossover sweep; the last K is also the fan-in K.
const FANOUTS: [u32; 3] = [1, 2, 4];

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The shared testbed: Corona calibration on a radix-8 leaf/spine at
/// 2:1 oversubscription, 4 processes per node so the M:N groups span
/// leaves.
fn calibration() -> Calibration {
    let mut cal = Calibration::corona();
    cal.fabric = cal.fabric.with_topology(TopologySpec::LeafSpine {
        radix: 8,
        oversubscription: 2.0,
    });
    cal
}

/// One reduced sweep point.
struct Row {
    label: String,
    solution: String,
    /// "fanout" | "fanin" | "baseline".
    shape: &'static str,
    k: u32,
    /// Frames delivered to analytics per repetition.
    delivered: u64,
    report: StudyReport,
    /// Per-delivered-frame consumption total, seconds.
    cons_delivered: f64,
    /// Per-delivered-frame production total, seconds.
    prod_delivered: f64,
}

/// Run `wf` at the 3 seeds and reduce to one report.
fn run_point(wf: &WorkflowConfig, cal: &Calibration) -> StudyReport {
    let runs: Vec<RunMetrics> = SEEDS.iter().map(|&seed| run_once(wf, cal, seed)).collect();
    StudyReport::from_runs(wf, &runs)
}

// Hand-built `Value` trees: the vendored serde_json has no `json!`.
fn obj(fields: Vec<(&str, serde_json::Value)>) -> serde_json::Value {
    serde_json::Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num_u64(v: u64) -> serde_json::Value {
    serde_json::Value::Number(serde_json::Number::U64(v))
}

fn num_f64(v: f64) -> serde_json::Value {
    serde_json::Value::Number(serde_json::Number::F64(v))
}

fn s(v: &str) -> serde_json::Value {
    serde_json::Value::String(v.to_string())
}

fn to_json(rows: &[Row], groups: u64, frames: u64) -> String {
    let points: Vec<serde_json::Value> = rows
        .iter()
        .map(|r| {
            obj(vec![
                ("label", s(&r.label)),
                ("solution", s(&r.solution)),
                ("shape", s(r.shape)),
                ("k", num_u64(r.k as u64)),
                ("delivered_frames", num_u64(r.delivered)),
                ("makespan_mean_s", num_f64(r.report.makespan.mean)),
                ("makespan_std_s", num_f64(r.report.makespan.std)),
                ("prod_per_delivered_s", num_f64(r.prod_delivered)),
                ("cons_per_delivered_s", num_f64(r.cons_delivered)),
                (
                    "cons_idle_per_frame_s",
                    num_f64(r.report.consumption_idle.mean),
                ),
                ("window_stalls", num_f64(r.report.window_stalls.mean)),
                (
                    "window_stall_secs",
                    num_f64(r.report.window_stall_secs.mean),
                ),
                ("group_sync_secs", num_f64(r.report.group_sync_secs.mean)),
            ])
        })
        .collect();
    serde_json::to_string_pretty(&obj(vec![
        ("bench", s("streaming_fanout")),
        ("pr", num_u64(10)),
        ("groups", num_u64(groups)),
        ("frames", num_u64(frames)),
        (
            "seeds",
            serde_json::Value::Array(SEEDS.iter().map(|&x| num_u64(x)).collect()),
        ),
        ("points", serde_json::Value::Array(points)),
    ]))
    .expect("json")
}

/// Scale-free / crossover gates, anchored inside the sweep itself.
fn enforce(rows: &[Row]) -> bool {
    let dyad_factor = env_f64("STREAM_DYAD_FACTOR", 2.0);
    let k_factor = env_f64("STREAM_K_FACTOR", 2.0);
    let fanin_factor = env_f64("STREAM_FANIN_FACTOR", 2.0);
    let find = |shape: &str, sol: &str, k: u32| {
        rows.iter()
            .find(|r| r.shape == shape && r.solution == sol && r.k == k)
            .unwrap_or_else(|| panic!("missing row {shape}/{sol}/{k}"))
    };
    let mut ok = true;
    // Gate 1: fanout=1 stays in DYAD's regime per delivered frame.
    let s1 = find("fanout", "streaming", 1);
    let d1 = find("baseline", "dyad", 1);
    let r = s1.cons_delivered / d1.cons_delivered.max(1e-12);
    if r > dyad_factor {
        eprintln!(
            "streaming_fanout: GATE FAIL fanout=1 consumption {:.2}x DYAD (allowed {dyad_factor})",
            r
        );
        ok = false;
    }
    // Gate 2: per-delivered-frame consumption is scale-free in K.
    let top = find("fanout", "streaming", *FANOUTS.last().unwrap());
    let rk = top.cons_delivered / s1.cons_delivered.max(1e-12);
    if rk > k_factor {
        eprintln!(
            "streaming_fanout: GATE FAIL fanout={} consumption {:.2}x the fanout=1 point \
             (allowed {k_factor})",
            top.k, rk
        );
        ok = false;
    }
    // Gate 3: crossover — streaming beats both manual-sync baselines
    // per delivered frame at every K.
    for &k in &FANOUTS {
        let sk = find("fanout", "streaming", k);
        for sol in ["xfs", "lustre"] {
            let b = find("baseline", sol, k);
            if sk.cons_delivered >= b.cons_delivered {
                eprintln!(
                    "streaming_fanout: GATE FAIL fanout={k}: streaming {} per delivered frame \
                     not below {sol} {}",
                    fmt_secs(sk.cons_delivered),
                    fmt_secs(b.cons_delivered)
                );
                ok = false;
            }
        }
    }
    // Gate 4: the fan-in reduction finishes in DYAD's ballpark.
    let fin = find("fanin", "streaming", *FANOUTS.last().unwrap());
    let base = find("baseline", "dyad", *FANOUTS.last().unwrap());
    let rm = fin.report.makespan.mean / base.report.makespan.mean.max(1e-12);
    if rm > fanin_factor {
        eprintln!(
            "streaming_fanout: GATE FAIL fanin={}: makespan {:.2}x the DYAD baseline \
             (allowed {fanin_factor})",
            fin.k, rm
        );
        ok = false;
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag_value = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let groups = env_u64("STREAM_GROUPS", 8) as u32;
    let frames = env_u64("STREAM_FRAMES", 12);
    let cal = calibration();
    let split = Placement::Split { pairs_per_node: 4 };
    println!(
        "STREAMING FAN-OUT — crossover sweep, {groups} groups × {frames} frames, {} seeds",
        SEEDS.len()
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut push =
        |label: String, solution: &str, shape: &'static str, k: u32, wf: WorkflowConfig| {
            let report = run_point(&wf, &cal);
            let delivered = u64::from(groups) * u64::from(k) * frames;
            // Report normalization is per (wf.pairs × frames); rescale to
            // per *delivered* frame so M:N groups and 1:1 pipelines
            // compare on the same axis.
            let per_frame = wf.pairs as f64 * frames as f64;
            let scale = per_frame / delivered as f64;
            rows.push(Row {
                label,
                solution: solution.to_string(),
                shape,
                k,
                delivered,
                cons_delivered: (report.consumption_movement.mean + report.consumption_idle.mean)
                    * scale,
                prod_delivered: (report.production_movement.mean + report.production_idle.mean)
                    * scale,
                report,
            });
        };

    for &k in &FANOUTS {
        let wf = WorkflowConfig::new(Solution::Streaming, groups, split)
            .with_frames(frames)
            .with_fanout(k);
        push(format!("streaming-1to{k}"), "streaming", "fanout", k, wf);
        for (sol, name) in [
            (Solution::Dyad, "dyad"),
            (Solution::Xfs, "xfs"),
            (Solution::Lustre, "lustre"),
        ] {
            let placement = if sol == Solution::Xfs {
                Placement::SingleNode
            } else {
                split
            };
            let wf = WorkflowConfig::new(sol, groups * k, placement).with_frames(frames);
            push(
                format!("{name}-{}x1to1", groups * k),
                name,
                "baseline",
                k,
                wf,
            );
        }
    }
    // Fan-in leg: K publishers → 1 reducer per group at the top K.
    let k = *FANOUTS.last().unwrap();
    let wf = WorkflowConfig::new(Solution::Streaming, groups, split)
        .with_frames(frames)
        .with_fanin(k);
    push(format!("streaming-{k}to1"), "streaming", "fanin", k, wf);

    println!(
        "\n  {:<22} {:>2} {:>10} {:>14} {:>14} {:>12} {:>8}",
        "point", "K", "delivered", "prod/frame", "cons/frame", "makespan", "stalls"
    );
    for r in &rows {
        println!(
            "  {:<22} {:>2} {:>10} {:>14} {:>14} {:>12} {:>8.1}",
            r.label,
            r.k,
            r.delivered,
            fmt_secs(r.prod_delivered),
            fmt_secs(r.cons_delivered),
            fmt_secs(r.report.makespan.mean),
            r.report.window_stalls.mean,
        );
    }
    // Crossover summary: streaming vs each baseline, per delivered frame.
    println!("\n  consumption per delivered frame, streaming ÷ baseline:");
    for &k in &FANOUTS {
        let sk = rows
            .iter()
            .find(|r| r.shape == "fanout" && r.k == k)
            .expect("streaming row");
        let ratios: Vec<String> = ["dyad", "xfs", "lustre"]
            .iter()
            .map(|sol| {
                let b = rows
                    .iter()
                    .find(|r| r.shape == "baseline" && r.solution == *sol && r.k == k)
                    .expect("baseline row");
                format!(
                    "{sol} {:.3}x",
                    sk.cons_delivered / b.cons_delivered.max(1e-12)
                )
            })
            .collect();
        println!("    fanout={k}: {}", ratios.join(", "));
    }

    let out_dir = flag_value("--out").unwrap_or_else(|| ".".to_string());
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let out = format!("{out_dir}/BENCH_PR10.json");
    std::fs::write(&out, to_json(&rows, groups as u64, frames)).expect("write BENCH_PR10.json");
    println!("  [saved {out}]");
    save_json("streaming_fanout", &to_json(&rows, groups as u64, frames));

    let enforce_requested = args.iter().any(|a| a == "--enforce")
        || std::env::var("STREAM_ENFORCE").is_ok_and(|v| v == "1");
    if enforce_requested {
        if !enforce(&rows) {
            std::process::exit(1);
        }
        println!("  streaming gates: OK");
    }
}
