//! Wall-clock perf harness for the campaign executor (PR 6).
//!
//! Measures the same study grid three ways — cold-serial (every run
//! pays full setup, as `run_once` loops did before the executor),
//! warm-serial (one worker, shared snapshots + recycled arena) and
//! warm-parallel (all workers). Emits `BENCH_PR6.json` with runs/minute,
//! the setup-vs-sim split, and the amortization ratio so CI can gate on
//! the warm-start win staying real.
//!
//! Modes:
//!
//! * `campaign` — run the grid, print a table, write `BENCH_PR6.json`
//!   (into `--out DIR`, default the current directory).
//! * `campaign --check BASELINE.json` — additionally fail (exit 1) if
//!   the warm-over-cold ratio or the setup-fraction ceiling regressed
//!   more than `CAMPAIGN_TOLERANCE` (default 0.25) versus the baseline.
//!   Both are ratios of this host against itself; absolute throughput
//!   is `perf`'s to check (`events_per_s` on `paper_suite`, parent
//!   against change with the host-slowdown yardstick).
//!
//! Scale knobs: `CAMPAIGN_REPS` (default 4) and `CAMPAIGN_FRAMES`
//! (default 16). The checked-in baseline is captured at the CI grid
//! (`CAMPAIGN_REPS=3 CAMPAIGN_FRAMES=12`).
//!
//! Note on parallel speedup: the recorded `parallel_speedup` is
//! `min(jobs, cores)`-bound; on a single-core host it is ~1 and only
//! the warm-start ratios are meaningful, which is why the CI gates are
//! ratio-based rather than parallel-speedup-based.

use std::num::{NonZeroU32, NonZeroU64};
use std::time::Instant;

use bench::{env_or, flag_value, num_f64, num_u64, obj, rss_peak_bytes, write_record};
use mdflow::prelude::*;

/// The measured campaign grid: DYAD vs Lustre at two JAC ensemble sizes
/// (the fig6 shape the suite driver spends most of its time in) plus
/// one STMV cell per solution (the largest frames, as in
/// fig8/fig9/fig12).
fn grid(reps: u32, frames: u64) -> Vec<StudyConfig> {
    let split = Placement::Split { pairs_per_node: 8 };
    let mut studies = Vec::new();
    for solution in [Solution::Dyad, Solution::Lustre] {
        for pairs in [4u32, 8] {
            studies.push(
                StudyConfig::paper(WorkflowConfig::new(solution, pairs, split).with_frames(frames))
                    .with_repetitions(reps),
            );
        }
        studies.push(
            StudyConfig::paper(
                WorkflowConfig::new(solution, 4, split)
                    .with_model(Model::Stmv)
                    .with_frames(frames.min(4)),
            )
            .with_repetitions(reps),
        );
    }
    studies
}

struct CampaignNumbers {
    runs: usize,
    events: u64,
    cold_serial_rpm: f64,
    warm_serial_rpm: f64,
    warm_parallel_rpm: f64,
    parallel_jobs: usize,
    setup_fraction_warm: f64,
}

/// Timing rounds per mode; each mode's wall time is the best round, so
/// scheduler interference on a shared host inflates a round, not the
/// recorded number. `CAMPAIGN_ROUNDS` overrides (default 3).
fn rounds() -> u64 {
    env_or("CAMPAIGN_ROUNDS", NonZeroU64::new(3).expect("positive")).get()
}

fn measure_campaign(studies: &[StudyConfig]) -> CampaignNumbers {
    // Untimed warmup: fault in code pages, grow the allocator and warm
    // the thread-local interners before any timed mode.
    let _ = run_once(&studies[0].workflow, &studies[0].calibration, 0x9E37);

    // Cold-serial: the pre-executor behavior — every run rebuilds its
    // snapshot and a fresh executor.
    let mut cold_secs = f64::INFINITY;
    let mut events = 0u64;
    let mut runs = 0usize;
    for _ in 0..rounds() {
        let t0 = Instant::now();
        events = 0;
        runs = 0;
        for study in studies {
            for rep in 0..study.repetitions as u64 {
                let m = run_once(&study.workflow, &study.calibration, study.seed + rep);
                events += m.events;
                runs += 1;
            }
        }
        cold_secs = cold_secs.min(t0.elapsed().as_secs_f64());
    }

    // Warm-serial: one worker, shared snapshots, recycled arena.
    let mut warm_secs = f64::INFINITY;
    let mut setup_fraction_warm = 1.0;
    let mut warm_reports = Vec::new();
    for _ in 0..rounds() {
        let t0 = Instant::now();
        let (reports, stats) = run_studies_jobs(studies, 1);
        let secs = t0.elapsed().as_secs_f64();
        if secs < warm_secs {
            warm_secs = secs;
            setup_fraction_warm = stats.setup_fraction();
        }
        warm_reports = reports;
    }

    // Warm-parallel: every available worker.
    let jobs = default_jobs();
    let mut par_secs = f64::INFINITY;
    let mut par_reports = Vec::new();
    for _ in 0..rounds() {
        let t0 = Instant::now();
        let (reports, _) = run_studies_jobs(studies, jobs);
        par_secs = par_secs.min(t0.elapsed().as_secs_f64());
        par_reports = reports;
    }

    // The executor is supposed to be invisible in the results; a bench
    // run that quietly diverged would gate on garbage.
    for (a, b) in warm_reports.iter().zip(&par_reports) {
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "parallel campaign diverged from serial"
        );
    }

    let rpm = |runs: usize, secs: f64| runs as f64 * 60.0 / secs.max(1e-9);
    CampaignNumbers {
        runs,
        events,
        cold_serial_rpm: rpm(runs, cold_secs),
        warm_serial_rpm: rpm(runs, warm_secs),
        warm_parallel_rpm: rpm(runs, par_secs),
        parallel_jobs: jobs,
        setup_fraction_warm,
    }
}

/// One point of the `--jobs` sweep: the same warm campaign at a fixed
/// worker count.
struct JobsPoint {
    jobs: usize,
    rpm: f64,
}

/// Measure the warm campaign at 1, 2, 4 and `default_jobs()` workers
/// (deduplicated). On a multi-core host this shows the real parallel
/// speedup; on a 1-vCPU host every point lands within noise of jobs=1,
/// which is exactly the honest answer (PR 6's speedup claim is
/// `min(jobs, cores)`-bound and this column proves which regime the
/// recording host was in).
fn measure_jobs_sweep(studies: &[StudyConfig], runs: usize) -> Vec<JobsPoint> {
    let mut list = vec![1usize, 2, 4, default_jobs()];
    list.sort_unstable();
    list.dedup();
    list.into_iter()
        .map(|jobs| {
            let mut secs = f64::INFINITY;
            for _ in 0..rounds() {
                let t0 = Instant::now();
                let _ = run_studies_jobs(studies, jobs);
                secs = secs.min(t0.elapsed().as_secs_f64());
            }
            JobsPoint {
                jobs,
                rpm: runs as f64 * 60.0 / secs.max(1e-9),
            }
        })
        .collect()
}

fn record(c: &CampaignNumbers, sweep: &[JobsPoint], reps: u64, frames: u64) -> serde_json::Value {
    let base_rpm = sweep.first().map(|p| p.rpm).unwrap_or(0.0);
    let sweep_rows: Vec<serde_json::Value> = sweep
        .iter()
        .map(|p| {
            obj(vec![
                ("jobs", num_u64(p.jobs as u64)),
                ("runs_per_min", num_f64(p.rpm)),
                ("speedup_vs_1", num_f64(p.rpm / base_rpm.max(1e-9))),
            ])
        })
        .collect();
    obj(vec![
        ("bench", serde_json::Value::String("campaign".to_string())),
        ("pr", num_u64(6)),
        ("reps", num_u64(reps)),
        ("frames", num_u64(frames)),
        ("cores", num_u64(host_cores() as u64)),
        (
            "campaign",
            obj(vec![
                ("runs", num_u64(c.runs as u64)),
                ("events", num_u64(c.events)),
                ("cold_serial_runs_per_min", num_f64(c.cold_serial_rpm)),
                ("warm_serial_runs_per_min", num_f64(c.warm_serial_rpm)),
                ("warm_parallel_runs_per_min", num_f64(c.warm_parallel_rpm)),
                ("parallel_jobs", num_u64(c.parallel_jobs as u64)),
                (
                    "parallel_speedup",
                    num_f64(c.warm_parallel_rpm / c.warm_serial_rpm.max(1e-9)),
                ),
                (
                    "warm_over_cold",
                    num_f64(c.warm_serial_rpm / c.cold_serial_rpm.max(1e-9)),
                ),
                ("setup_fraction_warm", num_f64(c.setup_fraction_warm)),
            ]),
        ),
        ("jobs_sweep", serde_json::Value::Array(sweep_rows)),
        ("peak_rss_bytes", num_u64(rss_peak_bytes())),
    ])
}

fn check_baseline(c: &CampaignNumbers, baseline_path: &str) -> bool {
    let tolerance: f64 = env_or("CAMPAIGN_TOLERANCE", 0.25);
    let raw = match std::fs::read_to_string(baseline_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("campaign: cannot read baseline {baseline_path}: {e}");
            return false;
        }
    };
    let base: serde_json::Value = serde_json::from_str(&raw).expect("baseline json");
    let mut ok = true;
    // Both gates are machine-independent: they compare this host against
    // itself.
    let ratio = c.warm_serial_rpm / c.cold_serial_rpm.max(1e-9);
    let floor = base["campaign"]["warm_over_cold"].as_f64().unwrap_or(0.0);
    if floor > 0.0 && ratio < floor * (1.0 - tolerance) {
        eprintln!(
            "campaign: REGRESSION warm_over_cold: {ratio:.2} vs baseline {floor:.2} (> {:.0}% below)",
            tolerance * 100.0
        );
        ok = false;
    }
    let base_fraction = base["campaign"]["setup_fraction_warm"]
        .as_f64()
        .unwrap_or(1.0);
    let ceiling = (base_fraction * (1.0 + tolerance)).min(1.0);
    if c.setup_fraction_warm > ceiling {
        eprintln!(
            "campaign: REGRESSION setup_fraction_warm: {:.3} vs ceiling {:.3} (baseline {:.3})",
            c.setup_fraction_warm, ceiling, base_fraction
        );
        ok = false;
    }
    ok
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let reps = env_or("CAMPAIGN_REPS", NonZeroU32::new(4).expect("positive")).get();
    let frames = env_or("CAMPAIGN_FRAMES", NonZeroU64::new(16).expect("positive")).get();
    let studies = grid(reps, frames);
    println!(
        "CAMPAIGN — executor wall-clock benchmark ({} studies × {reps} reps at {frames} frames)",
        studies.len()
    );
    let c = measure_campaign(&studies);
    println!(
        "  cold-serial   {:>10.1} runs/min   (per-run snapshot + fresh executor)",
        c.cold_serial_rpm
    );
    println!(
        "  warm-serial   {:>10.1} runs/min   ({:.1}x cold; setup fraction {:.1}%)",
        c.warm_serial_rpm,
        c.warm_serial_rpm / c.cold_serial_rpm.max(1e-9),
        c.setup_fraction_warm * 100.0
    );
    println!(
        "  warm-parallel {:>10.1} runs/min   ({:.2}x serial on {} worker(s))",
        c.warm_parallel_rpm,
        c.warm_parallel_rpm / c.warm_serial_rpm.max(1e-9),
        c.parallel_jobs
    );
    let sweep = measure_jobs_sweep(&studies, c.runs);
    println!(
        "  jobs sweep ({} core(s)):{}",
        host_cores(),
        if host_cores() == 1 {
            "  [1-vCPU host: speedups are bound to ~1x]"
        } else {
            ""
        }
    );
    let sweep_base = sweep.first().map(|p| p.rpm).unwrap_or(0.0);
    for p in &sweep {
        println!(
            "    --jobs {:<2} {:>10.1} runs/min   ({:.2}x vs --jobs 1)",
            p.jobs,
            p.rpm,
            p.rpm / sweep_base.max(1e-9)
        );
    }
    println!("  peak RSS: {} MiB", rss_peak_bytes() / (1 << 20));

    let dir = flag_value(&args, "--out").unwrap_or(".");
    let json = serde_json::to_string_pretty(&record(&c, &sweep, reps as u64, frames));
    write_record(dir, "BENCH_PR6", &json.expect("json"));
    if let Some(baseline) = flag_value(&args, "--check") {
        if !check_baseline(&c, baseline) {
            std::process::exit(1);
        }
        println!("  perf check vs {baseline}: OK");
    }
}
