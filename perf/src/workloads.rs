//! The six workloads. Sizes, seeds and fault plans are pinned by the
//! tests at the bottom: a changed pair count or seed fails a test
//! instead of silently re-baselining the benchmark.
//!
//! Every workload is a list of studies pushed through the campaign
//! executor with one job (closed loop, one process, one thread), so one
//! code path times all six. Which layers each one loads, and which it
//! deliberately leaves idle, is the `why` in `spec.rs` and the README.

use mdflow::prelude::*;
use simcore::SimDuration;

/// Default workload seed (`--seed`), the `scale` bin's.
pub const DEFAULT_SEED: u64 = 0x5CA1E;

/// The chaos bin's CI-proven plan: seed 42, two events per fault class.
const CHAOS_PLAN_SEED: u64 = 42;
const CHAOS_EVENTS_PER_CLASS: u32 = 2;

pub struct Workload {
    pub name: &'static str,
    pub studies: Vec<StudyConfig>,
    /// Host seconds one rep takes on the 2-vCPU reference host; sizes
    /// the watchdog, never a result.
    pub expected_rep_secs: f64,
    /// `(events, makespan_ns)` summed over the rep's runs at the default
    /// seed and full size. A mismatch is reported as
    /// `trajectory_changed`, not as a failure: a later model fix must be
    /// visible, not blocked.
    pub reference: (u64, u64),
}

impl Workload {
    /// Frame deliveries one rep owes: pairs × frames × fan-out × runs.
    pub fn owed(&self) -> u64 {
        self.studies.iter().map(owed_per_run_times_reps).sum()
    }
}

fn owed_per_run_times_reps(s: &StudyConfig) -> u64 {
    owed_per_run(&s.workflow) * s.repetitions as u64
}

/// Frame deliveries one run of `wf` owes.
pub fn owed_per_run(wf: &WorkflowConfig) -> u64 {
    let fanout = if wf.solution == Solution::Streaming {
        wf.streaming.fanout.max(1) as u64
    } else {
        1
    };
    wf.pairs as u64 * wf.frames * fanout
}

pub const NAMES: [&str; 6] = [
    "dyad_scale",
    "lustre_ensemble",
    "stream_fanout",
    "dyad_spill",
    "paper_suite",
    "chaos_matrix",
];

/// Build workload `name` for `seed`. `smoke` divides pair counts (or,
/// for the two campaign workloads, frames and reps) by eight.
pub fn build(name: &str, seed: u64, smoke: bool) -> Option<Workload> {
    let div = if smoke { 8 } else { 1 };
    let split8 = Placement::Split { pairs_per_node: 8 };
    let study =
        |workflow: WorkflowConfig, repetitions: u32, calibration: Calibration| StudyConfig {
            workflow,
            repetitions,
            seed,
            calibration,
        };
    // The scale bin's fabric: quiet testbed, oversubscribed leaf/spine.
    let quiet_leaf_spine = || {
        let mut cal = Calibration::quiet();
        cal.fabric = cal.fabric.with_topology(TopologySpec::LeafSpine {
            radix: 32,
            oversubscription: 2.0,
        });
        cal
    };
    let w = match name {
        "dyad_scale" => Workload {
            name: "dyad_scale",
            studies: vec![study(
                WorkflowConfig::new(
                    Solution::Dyad,
                    16384 / div,
                    Placement::Split { pairs_per_node: 2 },
                )
                .with_frames(3),
                1,
                quiet_leaf_spine(),
            )],
            expected_rep_secs: 4.5,
            reference: (3_816_423, 4_103_084_243),
        },
        "lustre_ensemble" => Workload {
            name: "lustre_ensemble",
            studies: vec![study(
                WorkflowConfig::new(Solution::Lustre, 512 / div, split8).with_frames(128),
                1,
                Calibration::corona(),
            )],
            expected_rep_secs: 2.1,
            reference: (3_345_088, 211_395_593_613),
        },
        "stream_fanout" => Workload {
            name: "stream_fanout",
            studies: vec![study(
                WorkflowConfig::new(Solution::Streaming, 1024 / div, split8)
                    .with_frames(24)
                    .with_fanout(4)
                    .with_stream_window(4),
                1,
                quiet_leaf_spine(),
            )],
            expected_rep_secs: 3.6,
            reference: (5_632_596, 21_345_387_538),
        },
        "dyad_spill" => Workload {
            name: "dyad_spill",
            studies: vec![study(
                WorkflowConfig::new(Solution::Dyad, 512 / div, split8)
                    .with_frames(64)
                    .with_schedule(FrameSchedule::Bursty {
                        burst_gap: SimDuration::from_millis(50),
                        quiet_gap: SimDuration::from_millis(1590),
                        burst_persistence: 0.5,
                        burst_entry: 0.5,
                    })
                    .with_staging_budget(8 * Model::Jac.frame_bytes())
                    .with_spill(true)
                    .with_kvs_shards(4)
                    .with_kvs_replication(2),
                1,
                Calibration::corona(),
            )],
            expected_rep_secs: 3.3,
            reference: (4_389_952, 73_067_937_481),
        },
        "paper_suite" => {
            let frames = 32 / div as u64;
            let reps = 2;
            let mut studies = Vec::new();
            let mut add = |solution, pairs, placement, model| {
                studies.push(study(
                    WorkflowConfig::new(solution, pairs, placement)
                        .with_model(model)
                        .with_frames(frames),
                    reps,
                    Calibration::corona(),
                ));
            };
            // fig5: single node, DYAD vs XFS.
            for pairs in [1, 2, 4] {
                for solution in [Solution::Dyad, Solution::Xfs] {
                    add(solution, pairs, Placement::SingleNode, Model::Jac);
                }
            }
            // fig6/7: multi-node scaling, DYAD vs Lustre.
            for pairs in [1, 2, 4, 8, 16, 32, 64, 128, 256] {
                for solution in [Solution::Dyad, Solution::Lustre] {
                    add(solution, pairs, split8, Model::Jac);
                }
            }
            // fig8: model-size scaling, 16 pairs on two nodes.
            for model in Model::ALL {
                for solution in [Solution::Dyad, Solution::Lustre] {
                    add(solution, 16, Placement::Split { pairs_per_node: 16 }, model);
                }
            }
            Workload {
                name: "paper_suite",
                studies,
                expected_rep_secs: 3.0,
                reference: (7_300_575, 2_610_069_737_045),
            }
        }
        "chaos_matrix" => {
            let reps = 16 / div;
            let mut studies = Vec::new();
            for solution in [Solution::Dyad, Solution::Xfs, Solution::Lustre] {
                // XFS cannot move data between nodes.
                let placement = if solution == Solution::Xfs {
                    Placement::SingleNode
                } else {
                    split8
                };
                for pairs in [4, 8] {
                    studies.push(study(
                        WorkflowConfig::new(solution, pairs, placement)
                            .with_frames(64)
                            .with_faults(FaultConfig::chaos(
                                CHAOS_PLAN_SEED,
                                CHAOS_EVENTS_PER_CLASS,
                            )),
                        reps,
                        Calibration::corona(),
                    ));
                }
            }
            Workload {
                name: "chaos_matrix",
                studies,
                expected_rep_secs: 3.1,
                reference: (11_036_624, 10_108_400_663_775),
            }
        }
        _ => return None,
    };
    Some(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One line per study: everything the trajectory depends on that a
    /// careless edit could change.
    fn digest(w: &Workload) -> Vec<String> {
        w.studies
            .iter()
            .map(|s| {
                let wf = &s.workflow;
                format!(
                    "{} {} {}p {}f {:?} x{} seed={:#x} fanout={} window={} budget={:?} spill={} kvs={}x{} \
                     faults={}x{} bursty={} interference={} jitter={} topo={:?}",
                    wf.solution,
                    wf.model.name(),
                    wf.pairs,
                    wf.frames,
                    wf.placement,
                    s.repetitions,
                    s.seed,
                    wf.streaming.fanout,
                    wf.streaming.window,
                    wf.staging.budget_bytes,
                    wf.staging.spill_to_pfs,
                    wf.kvs_shards,
                    wf.kvs_replication,
                    wf.faults.seed,
                    wf.faults.events_per_class,
                    wf.schedule.is_some(),
                    s.calibration.pfs.interference,
                    s.calibration.md_jitter,
                    s.calibration.fabric.topology,
                )
            })
            .collect()
    }

    fn full(name: &str) -> Workload {
        build(name, DEFAULT_SEED, false).expect("known workload")
    }

    #[test]
    fn single_run_workloads_are_pinned() {
        let leaf = "topo=LeafSpine { radix: 32, oversubscription: 2.0 }";
        assert_eq!(
            digest(&full("dyad_scale")),
            [format!(
                "DYAD JAC 16384p 3f Split {{ pairs_per_node: 2 }} x1 seed=0x5ca1e fanout=1 window=4 \
                 budget=None spill=false kvs=1x1 faults=0x0 bursty=false interference=0 jitter=0 {leaf}"
            )]
        );
        assert_eq!(
            digest(&full("lustre_ensemble")),
            ["Lustre JAC 512p 128f Split { pairs_per_node: 8 } x1 seed=0x5ca1e fanout=1 window=4 \
              budget=None spill=false kvs=1x1 faults=0x0 bursty=false interference=0.25 jitter=0.02 topo=Flat"]
        );
        assert_eq!(
            digest(&full("stream_fanout")),
            [format!(
                "SST JAC 1024p 24f Split {{ pairs_per_node: 8 }} x1 seed=0x5ca1e fanout=4 window=4 \
                 budget=None spill=false kvs=1x1 faults=0x0 bursty=false interference=0 jitter=0 {leaf}"
            )]
        );
        let frame = Model::Jac.frame_bytes();
        assert_eq!(
            digest(&full("dyad_spill")),
            [format!(
                "DYAD JAC 512p 64f Split {{ pairs_per_node: 8 }} x1 seed=0x5ca1e fanout=1 window=4 \
                 budget=Some({}) spill=true kvs=4x2 faults=0x0 bursty=true interference=0.25 jitter=0.02 topo=Flat",
                8 * frame
            )]
        );
        let FrameSchedule::Bursty {
            burst_gap,
            quiet_gap,
            burst_persistence,
            burst_entry,
        } = full("dyad_spill").studies[0]
            .workflow
            .schedule
            .clone()
            .expect("bursty schedule")
        else {
            panic!("dyad_spill must be bursty");
        };
        assert_eq!(
            (burst_gap, quiet_gap, burst_persistence, burst_entry),
            (
                SimDuration::from_millis(50),
                SimDuration::from_millis(1590),
                0.5,
                0.5
            )
        );
        assert_eq!(full("dyad_scale").owed(), 16384 * 3);
        assert_eq!(full("lustre_ensemble").owed(), 512 * 128);
        assert_eq!(full("stream_fanout").owed(), 1024 * 24 * 4);
        assert_eq!(full("dyad_spill").owed(), 512 * 64);
    }

    #[test]
    fn campaign_workloads_are_pinned() {
        let paper = full("paper_suite");
        assert_eq!(paper.studies.len(), 32);
        let d = digest(&paper);
        assert!(d.iter().all(|l| l.contains(" 32f ")
            && l.contains(" x2 seed=0x5ca1e ")
            && l.contains("faults=0x0")
            && l.contains("interference=0.25")));
        let count = |needle: &str| d.iter().filter(|l| l.contains(needle)).count();
        assert_eq!(
            (count("XFS "), count("Lustre "), count("DYAD ")),
            (3, 13, 16)
        );
        assert_eq!(count(" SingleNode "), 6);
        assert_eq!(count("Split { pairs_per_node: 8 }"), 18);
        assert_eq!(count("Split { pairs_per_node: 16 }"), 8);
        assert_eq!(
            (count("STMV"), count("F1 ATPase"), count("ApoA1")),
            (2, 2, 2)
        );
        assert_eq!(count(" 256p "), 2);
        // 2 x (1+2+4) + 2 x (1+..+256) + 8 x 16 pairs, x 32 frames x 2 reps.
        assert_eq!(paper.owed(), (14 + 1022 + 128) * 32 * 2);

        let chaos = full("chaos_matrix");
        let d = digest(&chaos);
        assert_eq!(d.len(), 6);
        assert!(d.iter().all(|l| l.contains(" 64f ")
            && l.contains(" x16 seed=0x5ca1e ")
            && l.contains("faults=42x2")));
        let pairs: Vec<bool> = d.iter().map(|l| l.contains(" 4p ")).collect();
        assert_eq!(pairs, [true, false, true, false, true, false]);
        assert!(d[0].starts_with("DYAD") && d[2].starts_with("XFS") && d[4].starts_with("Lustre"));
        assert!(d[2].contains("SingleNode") && d[0].contains("pairs_per_node: 8"));
        assert_eq!(chaos.owed(), 3 * (4 + 8) * 64 * 16);
    }

    #[test]
    fn seed_reaches_every_study_and_smoke_shrinks_every_workload() {
        for name in NAMES {
            let seeded = build(name, 7, false).expect("known workload");
            assert!(seeded.studies.iter().all(|s| s.seed == 7), "{name}");
            let smoke = build(name, DEFAULT_SEED, true).expect("known workload");
            assert!(smoke.owed() * 8 <= full(name).owed(), "{name}");
            assert!(full(name).reference != (0, 0), "{name}");
        }
        assert!(build("nope", 0, false).is_none());
    }

    #[test]
    fn streaming_owes_one_delivery_per_subscriber() {
        let wf = WorkflowConfig::new(Solution::Streaming, 3, Placement::SingleNode)
            .with_frames(5)
            .with_fanout(4);
        assert_eq!(owed_per_run(&wf), 60);
        assert_eq!(owed_per_run(&wf.clone().with_fanout(1)), 15);
    }
}
