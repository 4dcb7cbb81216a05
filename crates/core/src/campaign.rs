//! The study executor: every figure, CLI and benchmark runs its studies
//! through [`run_studies_jobs`] (or [`run_study_jobs`] for one), and
//! each study's repetition `r` runs at seed `study.seed + r`.
//!
//! ## Execution model
//!
//! 1. each study's shareable setup is computed once into a
//!    [`ClusterSnapshot`];
//! 2. the `(study, repetition)` units are flattened into a single work
//!    list and claimed off an atomic cursor by `jobs` worker threads;
//! 3. each worker owns a [`RunArena`] and runs units warm-started
//!    through [`run_once_warm`];
//! 4. the worker reduces each run to its [`RunBreakdown`] and drops the
//!    run's profiles before claiming the next unit, so what a batch
//!    holds does not grow with its length; the breakdowns land in
//!    per-unit slots, so the order a report sees is the input order
//!    regardless of which worker finished which unit when.
//!
//! Determinism: a unit's seed depends only on its study and repetition,
//! the simulation state is rebuilt per run from the read-only snapshot,
//! and arenas reset all executor counters — so `jobs = 1` and
//! `jobs = N` produce byte-identical reports.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::Serialize;

use crate::arena::{ClusterSnapshot, RunArena};
use crate::config::StudyConfig;
use crate::report::{reduce_run, RunBreakdown, StudyReport};
use crate::runner::run_once_warm;

fn cores() -> NonZeroUsize {
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
}

/// Hardware threads available to this process (1 when that cannot be
/// determined).
pub fn host_cores() -> usize {
    cores().get()
}

/// What the environment variable `key` holding `raw` means: `default`
/// when unset, else the text (surrounding whitespace aside) as a `T`.
/// Text that is no `T` is an error naming the variable and the value;
/// read a count as a `NonZero*`, for which `0` is no value either.
pub(crate) fn parse_env<T>(key: &str, raw: Option<&str>, default: T) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let Some(text) = raw else {
        return Ok(default);
    };
    let value = text.trim().parse();
    value.map_err(|e| format!("{key}={text:?}: {e}"))
}

/// `parse_env` on the process environment. A value that does not
/// parse is a usage error like a malformed flag: the message on stderr
/// and exit 2, not a silent fall back to `default`.
pub fn env_or<T>(key: &str, default: T) -> T
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let raw = std::env::var_os(key).map(|v| v.to_string_lossy().into_owned());
    parse_env(key, raw.as_deref(), default).unwrap_or_else(|problem| {
        eprintln!("error: {problem}");
        std::process::exit(2)
    })
}

/// Worker-thread count to use when the caller does not specify one: the
/// `MDFLOW_JOBS` environment variable if set, otherwise every available
/// core.
pub fn default_jobs() -> usize {
    env_or("MDFLOW_JOBS", cores()).get()
}

/// Aggregate wall-clock accounting for one executor invocation.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CampaignStats {
    /// Worker threads used.
    pub jobs: usize,
    /// Total simulation runs executed.
    pub runs: usize,
    /// Wall-clock seconds for the whole campaign.
    pub wall_secs: f64,
    /// CPU seconds spent on setup (snapshot preparation plus per-run
    /// substrate builds), summed across workers.
    pub setup_secs: f64,
    /// CPU seconds spent advancing simulations, summed across workers.
    pub sim_secs: f64,
}

impl CampaignStats {
    /// Campaign throughput in runs per minute of wall-clock time.
    pub fn runs_per_minute(&self) -> f64 {
        if self.wall_secs <= 0.0 {
            0.0
        } else {
            self.runs as f64 * 60.0 / self.wall_secs
        }
    }

    /// Fraction of per-run CPU time spent on setup rather than
    /// simulation — the quantity warm starting exists to shrink.
    pub fn setup_fraction(&self) -> f64 {
        let total = self.setup_secs + self.sim_secs;
        if total <= 0.0 {
            0.0
        } else {
            self.setup_secs / total
        }
    }
}

/// Run a batch of studies through one executor invocation, sharing the
/// worker pool and arenas across all of them; repetition `r` of a study
/// runs at `study.seed + r`. Reports come back in input order; the stats
/// cover the whole batch.
pub fn run_studies_jobs(studies: &[StudyConfig], jobs: usize) -> (Vec<StudyReport>, CampaignStats) {
    let jobs = jobs.max(1);
    let wall_started = Instant::now();
    let snaps: Vec<ClusterSnapshot> = studies
        .iter()
        .map(|study| ClusterSnapshot::new(&study.workflow, &study.calibration))
        .collect();
    let prep_secs = wall_started.elapsed().as_secs_f64();

    // Flatten study-major so reduction can walk units in order.
    let units: Vec<(usize, u64)> = studies
        .iter()
        .enumerate()
        .flat_map(|(p, study)| (0..study.repetitions as u64).map(move |r| (p, r)))
        .collect();
    let results: Vec<Mutex<Option<RunBreakdown>>> =
        units.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let totals = Mutex::new((0.0_f64, 0.0_f64));

    let worker = || {
        let mut arena = RunArena::new();
        let (mut setup, mut sim) = (0.0_f64, 0.0_f64);
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&(p, r)) = units.get(i) else { break };
            let (metrics, timings) = run_once_warm(&snaps[p], studies[p].seed + r, &mut arena);
            let reduced = reduce_run(&studies[p].workflow, &metrics);
            *results[i].lock().unwrap() = Some(reduced);
            setup += timings.setup_secs;
            sim += timings.sim_secs;
        }
        let mut t = totals.lock().unwrap();
        t.0 += setup;
        t.1 += sim;
    };
    if jobs == 1 {
        worker();
    } else {
        // Joins every worker and re-raises a worker's panic.
        std::thread::scope(|s| {
            for _ in 0..jobs {
                s.spawn(worker);
            }
        });
    }

    let mut collected: Vec<Vec<RunBreakdown>> = studies
        .iter()
        .map(|study| Vec::with_capacity(study.repetitions as usize))
        .collect();
    for (slot, &(p, _)) in results.iter().zip(&units) {
        collected[p].push(slot.lock().unwrap().take().expect("every unit ran"));
    }
    let reports = studies
        .iter()
        .zip(collected)
        .map(|(study, runs)| StudyReport::from_breakdowns(&study.workflow, runs))
        .collect();
    let (setup_secs, sim_secs) = *totals.lock().unwrap();
    let stats = CampaignStats {
        jobs,
        runs: units.len(),
        wall_secs: wall_started.elapsed().as_secs_f64(),
        setup_secs: setup_secs + prep_secs,
        sim_secs,
    };
    (reports, stats)
}

/// One study through the campaign executor: repetitions fan out across
/// `jobs` warm-started workers, and the report is byte-identical to a
/// cold [`crate::runner::run_once`] loop over seeds `study.seed + r`.
pub fn run_study_jobs(study: &StudyConfig, jobs: usize) -> StudyReport {
    let (mut reports, _) = run_studies_jobs(std::slice::from_ref(study), jobs);
    reports.pop().expect("one study in, one report out")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unset is the default; set is the value or an error that names
    /// the variable and the text, never the default.
    #[test]
    fn parse_env_defaults_only_when_unset() {
        use std::num::NonZeroU32;
        let ten = NonZeroU32::new(10).unwrap();
        let count = |raw| parse_env("MDFLOW_REPS", raw, ten).map(NonZeroU32::get);
        let cases = [
            (None, Ok(10)),
            (Some("3"), Ok(3)),
            (Some(" 3\n"), Ok(3)),
            (Some("1x"), Err("MDFLOW_REPS=\"1x\": ")),
            (Some("0"), Err("MDFLOW_REPS=\"0\": ")),
            (Some("-2"), Err("MDFLOW_REPS=\"-2\": ")),
            (Some(""), Err("MDFLOW_REPS=\"\": ")),
            (Some("  "), Err("MDFLOW_REPS=\"  \": ")),
        ];
        for (raw, want) in cases {
            match (count(raw), want) {
                (Ok(got), Ok(want)) => assert_eq!(got, want, "{raw:?}"),
                (Err(got), Err(prefix)) => assert!(got.starts_with(prefix), "{raw:?}: {got}"),
                (got, want) => panic!("{raw:?}: got {got:?}, want {want:?}"),
            }
        }
        // A plain number type takes 0: a seed or a tolerance is no count.
        assert_eq!(parse_env("MDFLOW_CHAOS_SEED", Some("0"), 42u64), Ok(0));
        assert_eq!(parse_env("CAMPAIGN_TOLERANCE", Some("0.5"), 0.25), Ok(0.5));
        assert!(parse_env("CAMPAIGN_TOLERANCE", Some("half"), 0.25).is_err());
    }
}
