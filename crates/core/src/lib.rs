//! # mdflow — the MD-workflow data-movement study harness
//!
//! The primary contribution of the reproduced paper is an empirical
//! methodology: an MD-inspired point-to-point workflow (producers emulate
//! MD simulation, consumers emulate in situ analytics) whose frames move
//! through one of three data-management solutions — DYAD, node-local XFS,
//! or Lustre — with Caliper/Thicket instrumentation splitting the cost
//! into *data movement* and *idle (synchronization)* time.
//!
//! This crate is that harness, running on simulated substrates:
//!
//! * [`config`] — solutions (one table row of facts per backend),
//!   molecular models, placements and the ensemble shape they resolve
//!   to, strides, and `validate` for shapes no run can execute;
//! * [`calibration`] — every device/protocol constant of the simulated
//!   Corona-like testbed in one place;
//! * [`workflow`] — the producer/consumer process bodies (coarse- and
//!   fine-grained manual sync, the DYAD pipeline, the DYAD-over-PFS
//!   ablation, streaming groups) and the names they write and ack under;
//! * [`runner`] — one repetition in four phases: build the testbed from
//!   a snapshot, spawn the ensemble, drive the simulation, reduce to
//!   per-process call-path profiles and counters;
//! * [`arena`], [`campaign`] — per-point snapshots, per-worker arenas
//!   and the executor that runs studies across threads;
//! * [`report`] — reduces profiles to the paper's movement/idle bars
//!   with mean/std over repetitions;
//! * [`findings`] — programmatic checks of the paper's five findings;
//! * [`schedule`] — variable-rate frame schedules.
//!
//! ```no_run
//! use mdflow::prelude::*;
//!
//! let wf = WorkflowConfig::new(Solution::Dyad, 4, Placement::SingleNode);
//! let report = run_study(&StudyConfig::paper(wf));
//! println!(
//!     "DYAD consumption: {:.3} ms/frame",
//!     report.consumption_total() * 1e3
//! );
//! ```

#![warn(missing_docs)]

pub mod arena;
pub mod calibration;
pub mod campaign;
pub mod config;
pub mod findings;
pub mod report;
pub mod runner;
pub mod schedule;
pub mod workflow;

/// One-stop imports for examples and benches.
pub mod prelude {
    pub use crate::arena::{ClusterSnapshot, RunArena, RunTimings};
    pub use crate::calibration::Calibration;
    pub use crate::campaign::{
        default_jobs, host_cores, run_studies_jobs, run_study_jobs, CampaignStats,
    };
    pub use crate::config::{
        FaultConfig, ManualSync, Placement, Solution, StagingConfig, StreamingConfig, StudyConfig,
        WorkflowConfig,
    };
    pub use crate::report::{speedup, Breakdown, StudyReport};
    pub use crate::runner::{
        run_once, run_once_traced, run_once_traced_snap, run_once_warm, run_study, FaultTotals,
        RunMetrics, StagingTotals, StreamTotals,
    };
    pub use crate::schedule::FrameSchedule;
    pub use cluster::{FabricSpec, TopologySpec};
    pub use faults::{ChaosSpec, FaultEvent, FaultKind, FaultPlan, RetryPolicy};
    pub use mdsim::Model;
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn study(wf: WorkflowConfig, reps: u32) -> StudyReport {
        let mut s = StudyConfig::paper(wf);
        s.repetitions = reps;
        s.calibration = Calibration::quiet();
        run_study(&s)
    }

    #[test]
    fn single_node_dyad_vs_xfs_reproduces_finding1_shape() {
        let frames = 16;
        let dyad = study(
            WorkflowConfig::new(Solution::Dyad, 2, Placement::SingleNode).with_frames(frames),
            2,
        );
        let xfs = study(
            WorkflowConfig::new(Solution::Xfs, 2, Placement::SingleNode).with_frames(frames),
            2,
        );
        // Production: DYAD slower (metadata), but same order of magnitude.
        let prod_ratio = dyad.production_total() / xfs.production_total();
        assert!(
            prod_ratio > 1.05 && prod_ratio < 3.0,
            "production ratio {prod_ratio} (paper: 1.4)"
        );
        // Consumption: XFS idle ≈ frame period, DYAD idle amortized.
        assert!(
            xfs.consumption_idle.mean > 0.5,
            "XFS idle {} should be ~the frame period",
            xfs.consumption_idle.mean
        );
        let cons_speedup = xfs.consumption_total() / dyad.consumption_total();
        assert!(
            cons_speedup > 5.0,
            "consumption speedup {cons_speedup} (paper: 192.9 at 128 frames)"
        );
    }

    #[test]
    fn consumption_speedup_grows_with_frame_count() {
        // The paper's 192.9x depends on amortizing the one cold sync over
        // 128 frames; verify the trend with 8 vs 32 frames.
        let short = study(
            WorkflowConfig::new(Solution::Dyad, 1, Placement::SingleNode).with_frames(8),
            1,
        );
        let long = study(
            WorkflowConfig::new(Solution::Dyad, 1, Placement::SingleNode).with_frames(32),
            1,
        );
        assert!(
            long.consumption_idle.mean < short.consumption_idle.mean,
            "idle/frame should shrink with more frames: {} vs {}",
            long.consumption_idle.mean,
            short.consumption_idle.mean
        );
    }

    #[test]
    fn two_node_dyad_beats_lustre() {
        let frames = 12;
        let dyad = study(
            WorkflowConfig::new(Solution::Dyad, 2, Placement::Split { pairs_per_node: 8 })
                .with_frames(frames),
            2,
        );
        let lustre = study(
            WorkflowConfig::new(Solution::Lustre, 2, Placement::Split { pairs_per_node: 8 })
                .with_frames(frames),
            2,
        );
        let prod = lustre.production_movement.mean / dyad.production_movement.mean;
        assert!(prod > 2.0, "production movement gap {prod} (paper: 7.5)");
        let cons = lustre.consumption_total() / dyad.consumption_total();
        assert!(cons > 3.0, "overall consumption gap {cons} (paper: 197.4)");
    }

    #[test]
    fn fine_grained_sync_ablation_reduces_idle() {
        let frames = 10;
        let mut coarse_wf =
            WorkflowConfig::new(Solution::Xfs, 1, Placement::SingleNode).with_frames(frames);
        coarse_wf.manual_sync = ManualSync::Coarse;
        let mut fine_wf = coarse_wf.clone();
        fine_wf.manual_sync = ManualSync::Fine;
        let coarse = study(coarse_wf, 1);
        let fine = study(fine_wf, 1);
        assert!(
            fine.consumption_idle.mean < coarse.consumption_idle.mean / 2.0,
            "fine {} vs coarse {}",
            fine.consumption_idle.mean,
            coarse.consumption_idle.mean
        );
        assert!(fine.makespan.mean < coarse.makespan.mean);
    }

    #[test]
    fn polling_sync_pipelines_like_dyad_but_pays_polls() {
        let frames = 10;
        let mut coarse_wf =
            WorkflowConfig::new(Solution::Xfs, 1, Placement::SingleNode).with_frames(frames);
        coarse_wf.manual_sync = ManualSync::Coarse;
        let mut poll_wf = coarse_wf.clone();
        poll_wf.manual_sync = ManualSync::Polling;
        let coarse = study(coarse_wf, 1);
        let polling = study(poll_wf, 1);
        // Polling never serializes the pair: makespan ~1 period/frame.
        assert!(
            polling.makespan.mean < coarse.makespan.mean * 0.7,
            "polling {} vs coarse {}",
            polling.makespan.mean,
            coarse.makespan.mean
        );
        // But the consumer still idles waiting for the marker (bounded
        // by the poll interval granularity).
        assert!(polling.consumption_idle.mean > 0.0);
        assert!(
            polling.consumption_idle.mean < coarse.consumption_idle.mean,
            "polling idle {} should beat the coarse barrier {}",
            polling.consumption_idle.mean,
            coarse.consumption_idle.mean
        );
    }

    #[test]
    fn lock_based_sync_pipelines_with_lock_overhead() {
        let frames = 10;
        let split = Placement::Split { pairs_per_node: 8 };
        let mut coarse_wf = WorkflowConfig::new(Solution::Lustre, 1, split).with_frames(frames);
        coarse_wf.manual_sync = ManualSync::Coarse;
        let mut lock_wf = coarse_wf.clone();
        lock_wf.manual_sync = ManualSync::LockBased;
        let coarse = study(coarse_wf, 1);
        let locked = study(lock_wf, 1);
        // Lock-based sync never serializes the pair.
        assert!(
            locked.makespan.mean < coarse.makespan.mean * 0.7,
            "locked {} vs coarse {}",
            locked.makespan.mean,
            coarse.makespan.mean
        );
        // But it pays lock round trips on the producer side too.
        assert!(
            locked.production_idle.mean > 0.0,
            "producer-side lock cost missing"
        );
        assert!(
            locked.consumption_idle.mean < coarse.consumption_idle.mean,
            "locked idle {} should beat the coarse barrier {}",
            locked.consumption_idle.mean,
            coarse.consumption_idle.mean
        );
    }

    #[test]
    fn bursty_schedules_run_and_hurt_manual_sync_more() {
        // §III-A: DYAD is "particularly beneficial in scenarios where
        // the data generation rate varies significantly". Same mean rate,
        // bursty vs periodic, DYAD vs Lustre.
        let frames = 24;
        let split = Placement::Split { pairs_per_node: 8 };
        let bursty = FrameSchedule::Bursty {
            burst_gap: simcore::SimDuration::from_millis(50),
            quiet_gap: simcore::SimDuration::from_millis(1590),
            burst_persistence: 0.5,
            burst_entry: 0.5,
        };
        assert!((bursty.mean_gap().as_secs_f64() - 0.82).abs() < 1e-9);
        let dyad = study(
            WorkflowConfig::new(Solution::Dyad, 2, split)
                .with_frames(frames)
                .with_schedule(bursty.clone()),
            2,
        );
        let lustre = study(
            WorkflowConfig::new(Solution::Lustre, 2, split)
                .with_frames(frames)
                .with_schedule(bursty),
            2,
        );
        // DYAD absorbs bursts (producers never block on consumers);
        // coarse-grained Lustre serializes, so bursts stretch the
        // makespan well past the production timeline.
        assert!(
            lustre.makespan.mean > dyad.makespan.mean * 1.5,
            "bursty: lustre {} vs dyad {}",
            lustre.makespan.mean,
            dyad.makespan.mean
        );
    }

    #[test]
    fn reports_serialize_to_json() {
        let r = study(
            WorkflowConfig::new(Solution::Dyad, 1, Placement::SingleNode).with_frames(3),
            1,
        );
        let json = r.to_json();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["workflow"]["solution"], "Dyad");
        assert!(v["runs"].as_array().unwrap().len() == 1);
    }
}
