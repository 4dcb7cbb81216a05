//! Declarative experiment campaigns: the cross-product of solutions ×
//! models × ensemble sizes × strides, run and reduced to a comparison
//! table. This is the downstream-user API for "my workflow looks like
//! X — which data-management solution should I pick?"
//!
//! ## Execution model
//!
//! Every campaign (and every [`run_study_jobs`] /
//! [`run_studies_jobs`] call) goes through one parallel executor:
//!
//! 1. each sweep point's shareable setup is computed once into a
//!    [`ClusterSnapshot`], and points with the same model and template
//!    seed share one frame template;
//! 2. the `(point, repetition)` units are flattened into a single work
//!    list and claimed off an atomic cursor by `jobs` worker threads;
//! 3. each worker owns a [`RunArena`] and runs units warm-started
//!    through [`run_once_warm`];
//! 4. the worker reduces each run to its [`RunBreakdown`] and drops the
//!    run's profiles before claiming the next unit, so what a campaign
//!    holds does not grow with its length; the breakdowns land in
//!    per-unit slots, so the order a report sees is the sweep order
//!    regardless of which worker finished which unit when.
//!
//! Determinism: every unit's seed is a pure function of
//! `(base, point, rep)` (see [`derive_run_seed`]), the simulation state
//! is rebuilt per run from the read-only snapshot, and arenas reset all
//! executor counters — so `jobs = 1` and `jobs = N` produce
//! byte-identical reports.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::Serialize;

use crate::arena::{derive_run_seed, ClusterSnapshot, RunArena};
use crate::calibration::Calibration;
use crate::config::{Placement, Solution, StudyConfig, WorkflowConfig};
use crate::report::{reduce_run, RunBreakdown, StudyReport};
use crate::runner::run_once_warm;
use mdsim::{FrameTemplate, Model};

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
pub fn parse_env<T>(key: &str, raw: Option<&str>, default: T) -> Result<T, String>
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

/// [`parse_env`] on the process environment. A value that does not
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

/// One executable sweep point: the study plus the explicit per-rep run
/// seeds (so legacy `seed + rep` studies and derived-seed campaigns go
/// through one code path).
pub(crate) struct ExecPoint {
    pub(crate) study: StudyConfig,
    pub(crate) seeds: Vec<u64>,
}

impl ExecPoint {
    /// A point using the historical study seeding (`study.seed + rep`).
    fn legacy(study: &StudyConfig) -> ExecPoint {
        ExecPoint {
            study: study.clone(),
            seeds: (0..study.repetitions as u64)
                .map(|rep| study.seed + rep)
                .collect(),
        }
    }
}

/// Shareable setup, once per point. Template seed mirrors the cold
/// path's `seed ^ 0x7E3A` for the first rep; payload bytes never
/// influence timing, so sharing one template across reps is safe. Points
/// that agree on model and template seed share one template: a figure
/// grid — one seed, a handful of models — synthesizes each model once,
/// not once per point.
fn prepare_points(points: &[ExecPoint]) -> Vec<ClusterSnapshot> {
    let mut templates: Vec<(u64, FrameTemplate)> = Vec::new();
    points
        .iter()
        .map(|ep| {
            let wf = &ep.study.workflow;
            let seed = ep.seeds.first().copied().unwrap_or(ep.study.seed) ^ 0x7E3A;
            let shared = templates
                .iter()
                .find(|(s, t)| *s == seed && t.model() == wf.model);
            let template = match shared {
                Some((_, template)) => template.clone(),
                None => {
                    let template = FrameTemplate::generate(wf.model, seed);
                    templates.push((seed, template.clone()));
                    template
                }
            };
            ClusterSnapshot::prepare_with(wf, &ep.study.calibration, template)
        })
        .collect()
}

/// Run each point's repetitions across `jobs` workers and reduce them,
/// in sweep order, to study reports.
pub(crate) fn execute_points(
    points: Vec<ExecPoint>,
    jobs: usize,
) -> (Vec<StudyReport>, CampaignStats) {
    let jobs = jobs.max(1);
    let wall_started = Instant::now();
    let snaps = prepare_points(&points);
    let prep_secs = wall_started.elapsed().as_secs_f64();

    // Flatten point-major so reduction can walk units in order.
    let units: Vec<(usize, usize)> = points
        .iter()
        .enumerate()
        .flat_map(|(p, ep)| (0..ep.seeds.len()).map(move |r| (p, r)))
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
            let (metrics, timings) = run_once_warm(&snaps[p], points[p].seeds[r], &mut arena);
            let reduced = reduce_run(&points[p].study.workflow, &metrics);
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

    let mut collected: Vec<Vec<RunBreakdown>> = points
        .iter()
        .map(|ep| Vec::with_capacity(ep.seeds.len()))
        .collect();
    for (slot, &(p, _)) in results.iter().zip(&units) {
        collected[p].push(slot.lock().unwrap().take().expect("every unit ran"));
    }
    let reports = points
        .iter()
        .zip(collected)
        .map(|(ep, runs)| StudyReport::from_breakdowns(&ep.study.workflow, runs))
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

/// One study through the campaign executor with the historical study
/// seeding (`study.seed + rep`): repetitions fan out across `jobs`
/// warm-started workers, and the report is byte-identical to a cold
/// [`crate::runner::run_once`] loop over the same seeds.
pub fn run_study_jobs(study: &StudyConfig, jobs: usize) -> StudyReport {
    let (mut reports, _) = execute_points(vec![ExecPoint::legacy(study)], jobs);
    reports.pop().expect("one study in, one report out")
}

/// Run a batch of studies through one executor invocation, sharing the
/// worker pool and arenas across all of them. Reports come back in
/// input order; the stats cover the whole batch.
pub fn run_studies_jobs(studies: &[StudyConfig], jobs: usize) -> (Vec<StudyReport>, CampaignStats) {
    execute_points(studies.iter().map(ExecPoint::legacy).collect(), jobs)
}

/// A sweep specification. Every listed axis is crossed with every other;
/// omitted strides fall back to each model's Table II default.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Solutions to compare.
    pub solutions: Vec<Solution>,
    /// Molecular models to cover.
    pub models: Vec<Model>,
    /// Ensemble sizes (producer-consumer pairs).
    pub pairs: Vec<u32>,
    /// Stride overrides (`None` = the model's Table II stride).
    pub strides: Vec<Option<u64>>,
    /// Process placement for every point.
    pub placement: Placement,
    /// Frames per pair.
    pub frames: u64,
    /// Repetitions per point.
    pub repetitions: u32,
    /// Testbed parameters.
    pub calibration: Calibration,
    /// Base seed.
    pub seed: u64,
}

impl Campaign {
    /// A minimal campaign comparing `solutions` on JAC at one ensemble
    /// size.
    pub fn new(solutions: Vec<Solution>, pairs: u32, placement: Placement) -> Campaign {
        Campaign {
            solutions,
            models: vec![Model::Jac],
            pairs: vec![pairs],
            strides: vec![None],
            placement,
            frames: 32,
            repetitions: 3,
            calibration: Calibration::corona(),
            seed: 0xCA3B,
        }
    }

    /// All workflow configurations the campaign will run.
    pub fn points(&self) -> Vec<WorkflowConfig> {
        let mut out = Vec::new();
        for &solution in &self.solutions {
            for &model in &self.models {
                for &pairs in &self.pairs {
                    for &stride in &self.strides {
                        let mut wf = WorkflowConfig::new(solution, pairs, self.placement)
                            .with_model(model)
                            .with_frames(self.frames);
                        if let Some(s) = stride {
                            wf = wf.with_stride(s);
                        }
                        out.push(wf);
                    }
                }
            }
        }
        out
    }

    /// Run every point on all available workers (see [`default_jobs`]).
    pub fn run(&self) -> CampaignResult {
        self.run_with_stats(default_jobs()).0
    }

    /// Run every point across `jobs` workers and report throughput
    /// accounting alongside the results.
    ///
    /// Run seeds are derived per `(point, repetition)` with
    /// [`derive_run_seed`], so every run of the campaign is seed-isolated
    /// and the result is independent of worker count and scheduling.
    pub fn run_with_stats(&self, jobs: usize) -> (CampaignResult, CampaignStats) {
        let points: Vec<ExecPoint> = self
            .points()
            .into_iter()
            .enumerate()
            .map(|(idx, wf)| {
                let mut study = StudyConfig::paper(wf);
                study.repetitions = self.repetitions;
                study.seed = self.seed;
                study.calibration = self.calibration.clone();
                let seeds = (0..self.repetitions as u64)
                    .map(|rep| derive_run_seed(self.seed, idx as u64, rep))
                    .collect();
                ExecPoint { study, seeds }
            })
            .collect();
        let (reports, stats) = execute_points(points, jobs);
        let rows = reports
            .into_iter()
            .map(|report| CampaignRow {
                label: row_label(&report.workflow),
                report,
            })
            .collect();
        (CampaignResult { rows }, stats)
    }
}

fn row_label(wf: &WorkflowConfig) -> String {
    format!(
        "{} / {} / {}p / stride {}",
        wf.solution.label(),
        wf.model.name(),
        wf.pairs,
        wf.stride
    )
}

/// One campaign point's outcome.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignRow {
    /// Human-readable point label.
    pub label: String,
    /// The reduced study.
    pub report: StudyReport,
}

/// All campaign outcomes, with comparison helpers.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignResult {
    /// One row per point, in sweep order.
    pub rows: Vec<CampaignRow>,
}

impl CampaignResult {
    /// Render a fixed-width comparison table.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<38} {:>13} {:>13} {:>13} {:>11}\n",
            "configuration", "prod/frame", "cons move", "cons idle", "makespan"
        );
        for row in &self.rows {
            let r = &row.report;
            out.push_str(&format!(
                "{:<38} {:>10.3} ms {:>10.3} ms {:>10.3} ms {:>9.1} s\n",
                row.label,
                r.production_total() * 1e3,
                r.consumption_movement.mean * 1e3,
                r.consumption_idle.mean * 1e3,
                r.makespan.mean,
            ));
        }
        out
    }

    /// The point with the lowest total consumption time.
    pub fn best_consumption(&self) -> Option<&CampaignRow> {
        self.rows.iter().min_by(|a, b| {
            a.report
                .consumption_total()
                .total_cmp(&b.report.consumption_total())
        })
    }

    /// The point with the shortest makespan.
    pub fn best_makespan(&self) -> Option<&CampaignRow> {
        self.rows
            .iter()
            .min_by(|a, b| a.report.makespan.mean.total_cmp(&b.report.makespan.mean))
    }

    /// JSON for archival.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("campaign serializes")
    }
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

    #[test]
    fn points_cross_all_axes() {
        let mut c = Campaign::new(
            vec![Solution::Dyad, Solution::Lustre],
            4,
            Placement::Split { pairs_per_node: 8 },
        );
        c.models = vec![Model::Jac, Model::Stmv];
        c.pairs = vec![2, 4];
        c.strides = vec![None, Some(10)];
        let pts = c.points();
        assert_eq!(pts.len(), 2 * 2 * 2 * 2);
        // Default strides follow the model.
        assert!(pts
            .iter()
            .any(|p| p.model == Model::Stmv && p.stride == Model::Stmv.stride()));
        assert!(pts.iter().any(|p| p.stride == 10));
    }

    #[test]
    fn points_with_one_model_and_seed_share_one_template() {
        let point = |model, seed| {
            let wf = WorkflowConfig::new(Solution::Dyad, 1, Placement::SingleNode)
                .with_model(model)
                .with_frames(2);
            let mut study = StudyConfig::paper(wf);
            (study.seed, study.repetitions) = (seed, 1);
            ExecPoint::legacy(&study)
        };
        let points = [
            point(Model::Jac, 7),
            point(Model::ApoA1, 7),
            point(Model::Jac, 7),
            point(Model::Jac, 8),
        ];
        let snaps = prepare_points(&points);
        // A frame's body segment is a view of its template's bytes.
        let body = |i: usize| {
            let segments = snaps[i].template.frame_segments(0);
            segments.last().expect("a frame has a body").as_ptr()
        };
        assert_eq!(body(0), body(2), "same model, same seed: one template");
        assert_ne!(body(0), body(1), "another model");
        assert_ne!(body(0), body(3), "another seed");
        assert_eq!(snaps[1].template.model(), Model::ApoA1);
    }

    #[test]
    fn small_campaign_runs_and_ranks() {
        let mut c = Campaign::new(
            vec![Solution::Dyad, Solution::Lustre],
            2,
            Placement::Split { pairs_per_node: 8 },
        );
        c.frames = 6;
        c.repetitions = 1;
        c.calibration = Calibration::quiet();
        let result = c.run();
        assert_eq!(result.rows.len(), 2);
        let table = result.table();
        assert!(table.contains("DYAD"));
        assert!(table.contains("Lustre"));
        // DYAD wins both rankings in this configuration.
        assert!(result.best_consumption().unwrap().label.contains("DYAD"));
        assert!(result.best_makespan().unwrap().label.contains("DYAD"));
        // JSON is valid.
        let v: serde_json::Value = serde_json::from_str(&result.to_json()).unwrap();
        assert_eq!(v["rows"].as_array().unwrap().len(), 2);
    }
}
