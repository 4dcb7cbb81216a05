//! Adaptive workflows: in situ analytics *steering* the simulation.
//!
//! §II-B of the paper motivates in situ analytics with runtime steering —
//! "terminate or fork a trajectory" — and the conclusion lists richer
//! workflows as future work. This module implements the terminate case
//! end to end on the simulated testbed:
//!
//! * the producer runs a **real** [`mdsim::MdEngine`] (not the sleep
//!   emulator): each stride advances actual Lennard-Jones dynamics, and
//!   the published frames carry the true atom positions;
//! * the consumer deserializes each frame, runs the
//!   [`analytics::Pipeline`], and applies a steering rule to the result;
//! * when the rule triggers, the consumer publishes a control record in
//!   the KVS (`steer/p<pair>`), which the producer checks (one cheap
//!   lookup) before computing each stride — trajectory terminated, GPU
//!   hours saved.
//!
//! Data still moves through DYAD; the control plane reuses the same KVS
//! the metadata lives in, exactly how a Flux-hosted steering service
//! would do it.

use analytics::{FrameAnalysis, Pipeline};
use bytes::Bytes;
use instrument::Recorder;
use mdsim::{EngineConfig, Frame, MdEngine, Model};
use simcore::{Sim, SimDuration};

use crate::arena::ClusterSnapshot;
use crate::calibration::Calibration;
use crate::config::{Placement, Solution, WorkflowConfig};
use crate::runner::Testbed;

/// When should a trajectory be terminated?
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SteeringRule {
    /// Stop when the selection's largest contact-matrix eigenvalue drops
    /// below the threshold (the structure "melted" — Figure 1's events).
    EigenvalueBelow(f64),
    /// Stop when the radius of gyration exceeds the threshold (the
    /// structure expanded out of the region of interest).
    RadiusAbove(f64),
    /// Never stop (baseline).
    None,
}

impl SteeringRule {
    /// Does `analysis` trigger termination?
    pub fn triggers(&self, analysis: &FrameAnalysis) -> bool {
        match *self {
            SteeringRule::EigenvalueBelow(t) => analysis.largest_eigenvalue < t,
            SteeringRule::RadiusAbove(t) => analysis.radius_of_gyration > t,
            SteeringRule::None => false,
        }
    }
}

/// Configuration of one steered trajectory ensemble.
#[derive(Debug, Clone)]
pub struct SteeringConfig {
    /// Independent trajectories (producer-consumer pairs).
    pub pairs: u32,
    /// Frame budget per trajectory (upper bound).
    pub max_frames: u64,
    /// Real MD steps between frames (kept small: this runs true MD).
    pub stride: u64,
    /// Atoms in the real engine.
    pub atoms: usize,
    /// The steering rule the analytics applies.
    pub rule: SteeringRule,
    /// Atoms analyzed per frame (selection size) and contact threshold.
    pub selection: usize,
    /// Contact threshold for the analytics pipeline.
    pub contact_threshold: f64,
    /// Emulated wall time an MD step costs in the simulated timeline.
    pub step_cost: SimDuration,
}

impl Default for SteeringConfig {
    fn default() -> Self {
        SteeringConfig {
            pairs: 2,
            max_frames: 24,
            stride: 10,
            atoms: 125,
            rule: SteeringRule::None,
            selection: 40,
            contact_threshold: 1.7,
            step_cost: SimDuration::from_millis(10),
        }
    }
}

/// Outcome of one steered trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryOutcome {
    /// Pair index.
    pub pair: u32,
    /// Frames actually produced.
    pub frames_produced: u64,
    /// Frames analyzed by the consumer.
    pub frames_analyzed: u64,
    /// Frame index at which the rule fired (if it did).
    pub triggered_at: Option<u64>,
    /// Full analytics history of the trajectory.
    pub history: Vec<FrameAnalysis>,
}

impl TrajectoryOutcome {
    /// Was the trajectory cut short by steering?
    pub fn terminated_early(&self, cfg: &SteeringConfig) -> bool {
        self.frames_produced < cfg.max_frames
    }
}

/// Run a steered ensemble on the two-node DYAD testbed of a `pairs`-pair
/// split run (producers on node 0, consumers on node 1, KVS broker on
/// node 0). The roles are this module's own; the substrates under them
/// are the runner's.
pub fn run_steering(cfg: &SteeringConfig, cal: &Calibration, seed: u64) -> Vec<TrajectoryOutcome> {
    let placement = Placement::Split {
        pairs_per_node: cfg.pairs,
    };
    let wf = WorkflowConfig::new(Solution::Dyad, cfg.pairs, placement);
    let snap = ClusterSnapshot::cold(&wf, cal, seed);
    let sim = Sim::new(seed);
    let ctx = sim.ctx();
    let testbed = Testbed::build(&ctx, &snap);
    let (prod_svc, cons_svc) = (testbed.dyad_service(0), testbed.dyad_service(1));
    let control_tx = testbed.kvs_client(1);
    let control_rx = testbed.kvs_client(0);

    let mut handles = Vec::new();
    for pair in 0..cfg.pairs {
        // ---- producer: real MD, steered -------------------------------
        let svc = prod_svc.clone();
        let control = control_rx.clone();
        let pcfg = cfg.clone();
        let pctx = ctx.clone();
        let produced = ctx.spawn(async move {
            let rec = Recorder::new(&pctx);
            let mut engine = MdEngine::new(EngineConfig {
                n_atoms: pcfg.atoms,
                temperature: 1.4, // hot: structures loosen over time
                thermostat_tau: 0.05,
                seed: seed ^ (pair as u64) << 8,
                ..EngineConfig::default()
            });
            let mut frames_produced = 0;
            for frame_idx in 0..pcfg.max_frames {
                // Steering check: one cheap lookup per stride.
                if control.lookup(&steer_key(pair)).await.is_some() {
                    break;
                }
                // Real MD, with its cost charged to the simulated clock.
                engine.run(pcfg.stride);
                pctx.sleep(pcfg.step_cost * pcfg.stride).await;
                let frame = engine.capture(Model::Jac);
                let mut wire = frame;
                wire.step = frame_idx; // frame index, not engine step
                svc.produce(&rec, &traj_key(pair, frame_idx), vec![wire.encode()])
                    .await;
                frames_produced += 1;
            }
            // Publish end-of-trajectory so the consumer can stop waiting.
            svc.produce(&rec, &eot_key(pair), vec![Bytes::from_static(b"eot")])
                .await;
            frames_produced
        });

        // ---- consumer: analyze + steer ---------------------------------
        let svc = cons_svc.clone();
        let control = control_tx.clone();
        let ccfg = cfg.clone();
        let cctx = ctx.clone();
        let analyzed = ctx.spawn(async move {
            let rec = Recorder::new(&cctx);
            let mut session = svc.consumer();
            let mut pipeline = Pipeline::new(ccfg.selection, ccfg.contact_threshold);
            let mut triggered_at = None;
            let mut frames_analyzed = 0;
            for frame_idx in 0..ccfg.max_frames {
                // Race the next frame against end-of-trajectory.
                let frame_key = traj_key(pair, frame_idx);
                let data = {
                    use simcore::{race, Either};
                    // Separate session AND recorder for the racing
                    // end-of-trajectory wait: region stacks are per
                    // recorder and must stay LIFO within each.
                    let eot_rec = Recorder::new(&cctx);
                    let mut eot_session = svc.consumer();
                    match race(
                        session.consume(&rec, &frame_key),
                        eot_session.consume(&eot_rec, &eot_key(pair)),
                    )
                    .await
                    {
                        Either::Left(data) => data,
                        Either::Right(_) => break,
                    }
                };
                let frame = Frame::decode_segments(&data).expect("valid steered frame");
                assert_eq!(frame.step, frame_idx);
                let analysis = pipeline.analyze(&frame);
                frames_analyzed += 1;
                if triggered_at.is_none() && ccfg.rule.triggers(&analysis) {
                    triggered_at = Some(frame_idx);
                    control
                        .commit(&steer_key(pair), Bytes::from_static(b"stop"))
                        .await;
                }
                // Analytics cost.
                cctx.sleep(ccfg.step_cost).await;
            }
            (frames_analyzed, triggered_at, pipeline.history().to_vec())
        });
        handles.push((pair, produced, analyzed));
    }

    let report = sim.run();
    assert!(report.is_clean(), "steering workflow deadlocked");
    handles
        .into_iter()
        .map(|(pair, produced, analyzed)| {
            let frames_produced = produced.try_take().expect("producer finished");
            let (frames_analyzed, triggered_at, history) =
                analyzed.try_take().expect("consumer finished");
            TrajectoryOutcome {
                pair,
                frames_produced,
                frames_analyzed,
                triggered_at,
                history,
            }
        })
        .collect()
}

fn traj_key(pair: u32, frame: u64) -> String {
    format!("steer-run/p{pair:03}/f{frame:05}")
}

fn eot_key(pair: u32) -> String {
    format!("steer-run/p{pair:03}/eot")
}

fn steer_key(pair: u32) -> String {
    format!("control/p{pair:03}/stop")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cal() -> Calibration {
        Calibration::quiet()
    }

    #[test]
    fn unsteered_trajectories_run_to_the_frame_budget() {
        let cfg = SteeringConfig {
            pairs: 2,
            max_frames: 6,
            ..SteeringConfig::default()
        };
        let outcomes = run_steering(&cfg, &cal(), 1);
        assert_eq!(outcomes.len(), 2);
        for o in &outcomes {
            assert_eq!(o.frames_produced, 6);
            assert_eq!(o.frames_analyzed, 6);
            assert_eq!(o.triggered_at, None);
            assert!(!o.terminated_early(&cfg));
            assert_eq!(o.history.len(), 6);
        }
    }

    #[test]
    fn impossible_rule_never_triggers() {
        let cfg = SteeringConfig {
            pairs: 1,
            max_frames: 5,
            rule: SteeringRule::RadiusAbove(1e12),
            ..SteeringConfig::default()
        };
        let outcomes = run_steering(&cfg, &cal(), 2);
        assert_eq!(outcomes[0].triggered_at, None);
        assert_eq!(outcomes[0].frames_produced, 5);
    }

    #[test]
    fn trivial_rule_terminates_immediately() {
        // Rg of any real structure exceeds 0, so the first analyzed frame
        // triggers; the producer must stop well short of the budget.
        let cfg = SteeringConfig {
            pairs: 2,
            max_frames: 20,
            rule: SteeringRule::RadiusAbove(0.0),
            ..SteeringConfig::default()
        };
        let outcomes = run_steering(&cfg, &cal(), 3);
        for o in &outcomes {
            assert_eq!(o.triggered_at, Some(0), "pair {}", o.pair);
            assert!(
                o.terminated_early(&cfg),
                "pair {} produced {} frames",
                o.pair,
                o.frames_produced
            );
            // The control signal needs one producer stride to be seen;
            // termination happens within a few frames of the trigger.
            assert!(o.frames_produced <= 5, "stopped at {}", o.frames_produced);
        }
    }

    #[test]
    fn steering_saves_simulated_compute() {
        let base = SteeringConfig {
            pairs: 1,
            max_frames: 12,
            ..SteeringConfig::default()
        };
        let steered_cfg = SteeringConfig {
            rule: SteeringRule::RadiusAbove(0.0),
            ..base.clone()
        };
        let unsteered = run_steering(&base, &cal(), 4);
        let steered = run_steering(&steered_cfg, &cal(), 4);
        assert!(
            steered[0].frames_produced < unsteered[0].frames_produced,
            "steering produced {} vs {}",
            steered[0].frames_produced,
            unsteered[0].frames_produced
        );
    }

    /// Outcomes recorded on the hand-wired testbed this module had
    /// before it took its substrates from [`Testbed::build`]; the move
    /// changed none, and a seed replays.
    #[test]
    fn outcomes_at_five_seeds_are_the_recorded_ones_and_replay() {
        let cfg = SteeringConfig {
            pairs: 3,
            max_frames: 12,
            rule: SteeringRule::RadiusAbove(2.15),
            ..SteeringConfig::default()
        };
        // Per pair: (frames_produced, frames_analyzed, triggered_at).
        let recorded = [
            [(6, 6, Some(4)), (12, 12, Some(11)), (2, 2, Some(0))],
            [(10, 10, Some(8)), (12, 12, None), (3, 3, Some(1))],
            [(5, 5, Some(3)), (3, 3, Some(1)), (12, 12, Some(10))],
            [(2, 2, Some(0)), (12, 12, None), (7, 7, Some(5))],
            [(7, 7, Some(5)), (3, 3, Some(1)), (12, 12, None)],
        ];
        for (seed, expected) in (1..).zip(recorded) {
            // `run_steering` asserts the run ended clean.
            let outcomes = run_steering(&cfg, &cal(), seed);
            let got: Vec<_> = outcomes
                .iter()
                .map(|o| (o.frames_produced, o.frames_analyzed, o.triggered_at))
                .collect();
            assert_eq!(got, expected, "seed {seed}");
            assert_eq!(run_steering(&cfg, &cal(), seed), outcomes, "seed {seed}");
        }
    }

    #[test]
    fn analytics_history_reflects_real_dynamics() {
        // Real MD at high temperature: positions evolve, so RMSD to the
        // first frame grows and analytics values vary across frames.
        let cfg = SteeringConfig {
            pairs: 1,
            max_frames: 8,
            ..SteeringConfig::default()
        };
        let outcomes = run_steering(&cfg, &cal(), 5);
        let h = &outcomes[0].history;
        assert_eq!(h.len(), 8);
        assert_eq!(h[0].rmsd_to_first, 0.0);
        assert!(
            h.last().unwrap().rmsd_to_first > 0.01,
            "structure did not move: {:?}",
            h.last()
        );
    }
}
