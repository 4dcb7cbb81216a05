//! Campaign determinism regression: the parallel executor must be
//! invisible in the results. Serial (`jobs = 1`) and parallel
//! (`jobs ∈ {2, 8}`) execution of the same studies must produce
//! byte-identical JSON reports — which, since a `StudyReport` embeds
//! every repetition's raw run breakdown, also pins the per-seed
//! schedules bit-for-bit. Likewise a warm-started run (snapshot +
//! recycled arena) must match a cold `run_once` exactly.

use mdflow::prelude::*;

/// A 3-solution × 2-model grid, small enough to run three times in a
/// test but crossing every executor-relevant axis: KVS-backed DYAD,
/// PFS-backed Lustre, and the DYAD-over-PFS ablation (which needs both
/// service layers), on two frame sizes. Every study has the same seed.
fn grid() -> Vec<StudyConfig> {
    let mut studies = Vec::new();
    for solution in [Solution::Dyad, Solution::Lustre, Solution::DyadOnPfs] {
        for model in [Model::Jac, Model::ApoA1] {
            let wf = WorkflowConfig::new(solution, 2, Placement::Split { pairs_per_node: 8 })
                .with_model(model)
                .with_frames(6);
            let mut study = StudyConfig::paper(wf);
            study.repetitions = 2;
            study.seed = 0xCA3B;
            study.calibration = Calibration::quiet();
            studies.push(study);
        }
    }
    studies
}

fn run_grid(studies: &[StudyConfig], jobs: usize) -> (String, CampaignStats) {
    let (reports, stats) = run_studies_jobs(studies, jobs);
    (reports.iter().map(StudyReport::to_json).collect(), stats)
}

#[test]
fn parallel_campaign_is_byte_identical_to_serial() {
    let studies = grid();
    let (serial, serial_stats) = run_grid(&studies, 1);
    assert_eq!(serial_stats.runs, 3 * 2 * 2);
    for jobs in [2, 8] {
        let (parallel, stats) = run_grid(&studies, jobs);
        assert_eq!(stats.jobs, jobs);
        assert_eq!(stats.runs, serial_stats.runs);
        assert_eq!(serial, parallel, "campaign diverged at jobs={jobs}");
    }
}

#[test]
fn warm_start_matches_cold_start_per_run() {
    let cal = Calibration::quiet();
    for solution in [Solution::Dyad, Solution::Lustre, Solution::DyadOnPfs] {
        let wf =
            WorkflowConfig::new(solution, 2, Placement::Split { pairs_per_node: 8 }).with_frames(6);
        let seeds = [41u64, 42, 43];
        // Cold: every run pays full setup.
        let cold: Vec<_> = seeds.iter().map(|&s| run_once(&wf, &cal, s)).collect();
        // Warm: one shared snapshot, one recycled arena across runs.
        let snap = ClusterSnapshot::prepare(&wf, &cal, seeds[0] ^ 0x7E3A);
        let mut arena = RunArena::new();
        let warm: Vec<_> = seeds
            .iter()
            .map(|&s| run_once_warm(&snap, s, &mut arena).0)
            .collect();
        assert_eq!(
            StudyReport::from_runs(&wf, &cold).to_json(),
            StudyReport::from_runs(&wf, &warm).to_json(),
            "warm != cold for {solution:?}"
        );
    }
}

#[test]
fn run_study_jobs_matches_legacy_run_study() {
    let wf = WorkflowConfig::new(Solution::Dyad, 2, Placement::Split { pairs_per_node: 8 })
        .with_frames(6);
    let mut study = StudyConfig::paper(wf);
    study.repetitions = 3;
    study.calibration = Calibration::quiet();
    // The legacy seeding, checked against something that shares no code
    // with the campaign executor: a cold `run_once` per repetition.
    let runs: Vec<RunMetrics> = (0..study.repetitions as u64)
        .map(|rep| run_once(&study.workflow, &study.calibration, study.seed + rep))
        .collect();
    let legacy = StudyReport::from_runs(&study.workflow, &runs).to_json();
    for jobs in [1, 4] {
        assert_eq!(
            run_study_jobs(&study, jobs).to_json(),
            legacy,
            "run_study_jobs diverged from the cold run_once loop at jobs={jobs}"
        );
    }
    assert_eq!(run_study(&study).to_json(), legacy);
}
