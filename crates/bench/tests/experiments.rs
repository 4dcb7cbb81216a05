//! The experiment table's shape, and the relations two deterministic
//! sweeps exist to show. Every number below is simulated time or a
//! counter, identical on any host, so the constants are inline: no
//! baseline file, no tolerance knob.

use std::process::Command;

use bench::experiments::{per_delivered, row, EXPERIMENTS, FANOUTS};
use bench::{run_cell, Scale};
use mdflow::prelude::*;

/// Names are what `--only` selects and labels what reports are looked up
/// and saved under, so both are unique; the grid sizes are the 72
/// studies of the paper suite (DESIGN.md §9) plus the three extensions;
/// and every configuration the table builds is one `validate` accepts.
#[test]
fn table_names_are_unique_and_grid_sizes_pinned() {
    let scale = Scale { reps: 1, frames: 2 };
    let grids: Vec<_> = EXPERIMENTS
        .iter()
        .map(|e| (e.name, (e.studies)(scale)))
        .collect();
    let sizes: Vec<(&str, usize)> = grids.iter().map(|(n, g)| (*n, g.len())).collect();
    assert_eq!(
        sizes,
        [
            ("table1", 0),
            ("table2", 0),
            ("fig5", 6),
            ("fig6", 8),
            ("fig7", 12),
            ("fig8", 8),
            ("fig11", 8),
            ("fig12", 8),
            ("capacity", 14),
            ("chaos", 8),
            ("bursty", 8),
            ("ablation", 14),
            ("streaming_fanout", 13),
        ]
    );
    assert_eq!(sizes[2..10].iter().map(|(_, n)| n).sum::<usize>(), 72);
    let unique = |mut names: Vec<&str>| {
        names.sort_unstable();
        names.windows(2).all(|w| w[0] != w[1])
    };
    assert!(unique(grids.iter().map(|(n, _)| *n).collect()));
    for (name, grid) in &grids {
        assert!(
            unique(grid.iter().map(|(l, _)| l.as_str()).collect()),
            "{name}: duplicate label"
        );
        for (label, study) in grid {
            assert_eq!(
                (study.repetitions, study.workflow.frames),
                (1, 2),
                "{name}/{label} ignores the scale"
            );
            assert_eq!(study.workflow.validate(), Ok(()), "{name}/{label}");
        }
    }
}

#[test]
fn only_rejects_an_unknown_experiment_naming_the_valid_ones() {
    let out = Command::new(env!("CARGO_BIN_EXE_all"))
        .args(["--only", "fig5,nosuch"])
        .output()
        .expect("run all");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("nosuch"), "{stderr}");
    for e in EXPERIMENTS {
        assert!(stderr.contains(e.name), "{} missing from: {stderr}", e.name);
    }
}

/// A scale variable that is set to something other than a positive
/// integer ends in exit 2 naming the variable and the value. Each of
/// these ran: the paper-size suite, a saved report of zeros, a panic
/// with a backtrace, every core.
#[test]
fn all_rejects_malformed_scale_variables() {
    let cases = [
        ("MDFLOW_REPS", "1x"),
        ("MDFLOW_REPS", "0"),
        ("MDFLOW_FRAMES", "0"),
        ("MDFLOW_JOBS", "abc"),
    ];
    for (key, value) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_all"))
            .args(["--only", "table1"])
            .env(key, value)
            .output()
            .expect("run all");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{key}={value}: {stderr}");
        let named = format!("error: {key}={value:?}");
        assert!(stderr.contains(&named), "{key}={value}: {stderr}");
        assert!(out.stdout.is_empty(), "{key}={value} printed a report");
    }
}

/// A malformed `mdflow-run` configuration ends in the typed error and
/// exit 2 — each of these was a panic, a `NaN µs` report or a report of
/// zeros.
#[test]
fn mdflow_run_rejects_malformed_configurations_with_a_typed_error() {
    let cases: [(&[&str], &str); 9] = [
        (&["--per-node", "0"], "pairs_per_node must be at least 1"),
        (&["--pairs", "0"], "pairs must be at least 1"),
        (&["--frames", "0"], "frames must be at least 1"),
        (&["--reps", "0"], "--reps must be at least 1"),
        (
            &["--solution", "streaming", "--window", "0"],
            "window must be at least 1",
        ),
        (
            &["--solution", "streaming", "--agg", "0"],
            "agg_frames must be at least 1",
        ),
        (&["--kvs-shards", "0"], "kvs_shards must be at least 1"),
        (
            &["--kvs-shards", "2", "--kvs-replication", "3"],
            "kvs_replication must be at most kvs_shards",
        ),
        (
            &["--solution", "xfs", "--nodes", "split"],
            "XFS cannot move data between nodes",
        ),
    ];
    for (args, message) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_mdflow-run"))
            .args(args)
            .output()
            .expect("run mdflow-run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
    }
}

/// A flag `mdflow-run` does not read, or one that lost its value, ends
/// in exit 2 naming it. `--pair 2` ran the default four pairs.
#[test]
fn mdflow_run_rejects_a_misspelt_flag_and_a_missing_value() {
    let cases: [(&[&str], &str); 2] = [
        (
            &["--pair", "2", "--frames", "4", "--reps", "1"],
            "unknown flag --pair",
        ),
        (
            &["--frames", "4", "--reps", "1", "--pairs"],
            "--pairs needs a value",
        ),
    ];
    for (args, message) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_mdflow-run"))
            .args(args)
            .output()
            .expect("run mdflow-run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
    }
}

/// `fig9_10 --backned streaming` printed the scripted figures.
#[test]
fn fig9_10_rejects_a_misspelt_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig9_10"))
        .args(["--backned", "streaming"])
        .envs([("MDFLOW_REPS", "1"), ("MDFLOW_FRAMES", "4")])
        .output()
        .expect("run fig9_10");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag --backned"), "{stderr}");
    assert!(out.stdout.is_empty(), "printed the figures");
}

/// The four relations the fan-out crossover exists to show, on the
/// entry's own grid at 6 frames × 1 repetition.
#[test]
fn streaming_fanout_crossover_relations_hold() {
    let entry = EXPERIMENTS.iter().find(|e| e.name == "streaming_fanout");
    let grid = (entry.expect("entry").studies)(Scale { reps: 1, frames: 6 });
    let (labels, studies): (Vec<String>, Vec<StudyConfig>) = grid.into_iter().unzip();
    let (reports, _) = run_studies_jobs(&studies, 1);
    let rows: Vec<(String, StudyReport)> = labels.into_iter().zip(reports).collect();
    let cons = |label: &str| per_delivered(row(&rows, label)).1;
    let top = FANOUTS[FANOUTS.len() - 1];

    // Fan-out 1 stays in DYAD's regime per delivered frame.
    let (s1, d1) = (cons("streaming-1to1"), cons("dyad-8x1to1"));
    assert!(s1 <= 2.0 * d1, "fanout=1: {s1} vs DYAD {d1}");
    // Per-delivered-frame consumption is scale-free in K.
    let sk = cons(&format!("streaming-1to{top}"));
    assert!(sk <= 2.0 * s1, "fanout={top}: {sk} vs fanout=1 {s1}");
    // The crossover: cheaper than both manual-sync baselines at every K.
    for k in FANOUTS {
        let streaming = cons(&format!("streaming-1to{k}"));
        for sol in ["xfs", "lustre"] {
            let base = cons(&format!("{sol}-{}x1to1", 8 * k));
            assert!(streaming < base, "fanout={k}: {streaming} vs {sol} {base}");
        }
    }
    // The fan-in reduction finishes in DYAD's ballpark.
    let fanin = row(&rows, &format!("streaming-{top}to1")).makespan.mean;
    let dyad = row(&rows, &format!("dyad-{}x1to1", 8 * top)).makespan.mean;
    assert!(
        fanin <= 2.0 * dyad,
        "fan-in makespan {fanin} vs DYAD {dyad}"
    );
}

/// What sharding the metadata plane buys where one broker saturates, on
/// the recorded sweep's cell (EXPERIMENTS.md "Metadata plane") at 1024
/// pairs × 2 frames.
#[test]
fn metadata_plane_shard_sweep_relations_hold() {
    let cells = [1, 2, 4].map(|shards| run_cell(1024, shards, 1, 2));
    let [s1, s2, s4] = cells.each_ref().map(|c| c.sync_ms);
    assert!(s1 >= s2 && s2 >= s4, "sync latency {s1} -> {s2} -> {s4} ms");
    // Recorded at this grid: 1→4 improvement 1.0176×, R=2 overhead 0.9995×.
    assert!(s1 / s4 >= 0.85 * 1.0176, "1->4 improvement {}", s1 / s4);
    let replicated = run_cell(1024, 4, 2, 2);
    let overhead = replicated.sync_ms / s4;
    assert!(overhead <= 1.15 * 0.9995, "R=2 overhead {overhead}");
    assert!(replicated.deltas_sent > 0);
    assert_eq!(cells.each_ref().map(|c| c.peak_queue), [794, 409, 213]);
}
