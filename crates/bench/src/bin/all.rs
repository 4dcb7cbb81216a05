//! The one driver of the experiment table (`bench::experiments`): every
//! selected entry's studies are collected up front and pushed through
//! one `run_studies_jobs` call, so the whole suite shares one worker
//! pool, one warm arena per worker and one snapshot per sweep point;
//! each entry is then handed its slice of the reports to print and
//! `target/experiments/<name>.json` is written under the entry's labels
//! (Figures 9/10, whose runs are not studies, write their own). A
//! study's seeds are its own, so an entry's numbers do not depend on
//! what else was selected.
//!
//! ```text
//! all [--only a,b] [--list] [--jobs N]
//! ```
//!
//! * `--only a,b` — run these entries (table order); default all 14.
//! * `--list` — print the entries and exit.
//! * `--jobs N` — worker threads (default: all cores, `MDFLOW_JOBS`
//!   overrides).
//! * `MDFLOW_REPS` / `MDFLOW_FRAMES` — experiment scale (default the
//!   paper's 10 × 128; `MDFLOW_REPS=3 all --only fig5,fig6,fig8` is the
//!   quick calibration probe). Like `MDFLOW_JOBS`, a value that is no
//!   positive integer is an error (exit 2), not the default.

use bench::experiments::{Experiment, EXPERIMENTS};
use bench::{check_flags, flag_value, fmt_secs, reports_json, write_record, Scale};
use mdflow::prelude::*;

const JOBS: &str = "--jobs needs a positive integer";
const ONLY: &str = "--only needs a comma-separated list of experiments";

fn usage(problem: &str) -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    eprintln!("error: {problem}");
    eprintln!("usage: all [--only a,b] [--list] [--jobs N]");
    eprintln!("experiments: {}", names.join(", "));
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = check_flags(&args, &["--jobs", "--only"], &["--list"]) {
        // A valued flag that ends the line names what it needs.
        usage(match e.strip_suffix(" needs a value") {
            Some("--jobs") => JOBS,
            Some(_) => ONLY,
            None => &e,
        })
    }
    let jobs = match flag_value(&args, "--jobs") {
        Some(v) => (v.parse().ok())
            .filter(|&n: &usize| n >= 1)
            .unwrap_or_else(|| usage(JOBS)),
        None => default_jobs(),
    };
    if args.iter().any(|a| a == "--list") {
        for e in EXPERIMENTS {
            println!("{:<17} {}", e.name, e.title);
        }
        return;
    }
    let mut selected: Vec<&Experiment> = EXPERIMENTS.iter().collect();
    if let Some(only) = flag_value(&args, "--only") {
        let names: Vec<&str> = only.split(',').collect();
        if let Some(bad) = names
            .iter()
            .find(|n| !EXPERIMENTS.iter().any(|e| e.name == **n))
        {
            usage(&format!("no experiment named {bad}"));
        }
        selected.retain(|e| names.contains(&e.name));
    }
    let scale = Scale::from_env();

    let grids: Vec<Vec<(String, StudyConfig)>> =
        selected.iter().map(|e| (e.studies)(scale)).collect();
    let studies: Vec<StudyConfig> = grids
        .iter()
        .flatten()
        .map(|(_, study)| study.clone())
        .collect();
    println!(
        "EXPERIMENT SUITE — {} experiment(s), {} studies × {} reps at {} frames, {jobs} worker(s)",
        selected.len(),
        studies.len(),
        scale.reps,
        scale.frames
    );
    let (reports, stats) = run_studies_jobs(&studies, jobs);

    let mut reports = reports.into_iter();
    for (e, grid) in selected.iter().zip(grids) {
        let rows: Vec<(String, StudyReport)> = grid
            .into_iter()
            .map(|(label, _)| label)
            .zip(reports.by_ref())
            .collect();
        println!("\n================================================================");
        if rows.is_empty() {
            println!("{}", e.title);
        } else {
            println!("{}, {} frames, {} reps", e.title, scale.frames, scale.reps);
        }
        (e.report)(&rows);
        if !rows.is_empty() {
            write_record(bench::EXPERIMENTS_DIR, e.name, &reports_json(&rows));
        }
    }

    if stats.runs == 0 {
        return;
    }
    println!("\nexecutor accounting:");
    println!(
        "  {} runs in {} wall ({:.0} runs/minute, {} worker(s))",
        stats.runs,
        fmt_secs(stats.wall_secs),
        stats.runs_per_minute(),
        stats.jobs
    );
    println!(
        "  setup {} vs sim {} (setup fraction {:.1}%)",
        fmt_secs(stats.setup_secs),
        fmt_secs(stats.sim_secs),
        stats.setup_fraction() * 100.0
    );
}
