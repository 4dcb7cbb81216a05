//! Reduction of raw profiles into the paper's reporting quantities:
//! per-frame production and consumption time, each split into **data
//! movement** and **idle (synchronization)** time, with mean/std across
//! repetitions — the red-striped and blue-striped bars of Figures 5-8
//! and 11-12.

use instrument::Profile;
use serde::Serialize;
use staging::plane;

use crate::config::WorkflowConfig;
use crate::runner::RunMetrics;
use crate::workflow::MANUAL_REGIONS;

/// Movement/idle split, in seconds per frame per process.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct Breakdown {
    /// Time writing/reading/transferring data.
    pub movement: f64,
    /// Time waiting on synchronization.
    pub idle: f64,
}

impl Breakdown {
    /// movement + idle.
    pub fn total(&self) -> f64 {
        self.movement + self.idle
    }
}

/// One repetition's reduced numbers.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct RunBreakdown {
    /// Producer-side split.
    pub production: Breakdown,
    /// Consumer-side split.
    pub consumption: Breakdown,
    /// Simulated makespan of the repetition, seconds.
    pub makespan: f64,
    /// Staging-lifecycle counters (DYAD/streaming only; zero otherwise).
    pub staging: crate::runner::StagingTotals,
    /// Streaming data-plane counters (zero for the other solutions).
    pub streaming: crate::runner::StreamTotals,
    /// Per-group synchronization latency, s/frame (streaming only): the
    /// subscriber-side `stream_sync` share of consumption.
    pub group_sync_secs: f64,
    /// Fault-injection and recovery counters (zero when disabled).
    pub faults: crate::runner::FaultTotals,
}

/// Sum the inclusive seconds of `path` over a merged profile.
fn secs(profile: &Profile, path: &[&str]) -> f64 {
    profile.inclusive(path).as_secs_f64()
}

/// Reduce one run. `per_frame` = pairs × frames, the normalization the
/// paper applies to its bar charts.
pub fn reduce_run(wf: &WorkflowConfig, run: &RunMetrics) -> RunBreakdown {
    let per_frame = (wf.pairs as f64) * (wf.frames as f64);
    let mut prod = Profile::default();
    for p in &run.producers {
        prod.merge(p);
    }
    let mut cons = Profile::default();
    for c in &run.consumers {
        cons.merge(c);
    }
    let backend = wf.solution.row();
    let (production, consumption) = match backend.plane {
        // The staged plane's regions under the backend's names.
        Some(row) => {
            // Staging backpressure and window stalls are synchronization
            // (the producer waits on the evictor / on subscriber acks),
            // not data movement.
            let waits = || row.put_idle.iter().map(|w| secs(&prod, &[row.put, w]));
            let mut sync = secs(&cons, &[row.get, row.get_sync]);
            if row.get_flock != row.get_sync {
                sync += secs(&cons, &[row.get, row.get_flock]);
            }
            (
                Breakdown {
                    movement: waits().fold(secs(&prod, &[row.put]), |m, w| m - w) / per_frame,
                    idle: waits().sum::<f64>() / per_frame,
                },
                Breakdown {
                    movement: (secs(&cons, &[row.get, row.get_data])
                        + secs(&cons, &[row.get, row.get_store])
                        + secs(&cons, &[row.get, row.get_pfs])
                        + secs(&cons, &[row.get, plane::READ]))
                        / per_frame,
                    idle: sync / per_frame,
                },
            )
        }
        None => {
            let r = &MANUAL_REGIONS;
            (
                Breakdown {
                    movement: secs(&prod, &[r.put, r.write]) / per_frame,
                    idle: secs(&prod, &[r.put, r.announce]) / per_frame,
                },
                Breakdown {
                    movement: secs(&cons, &[r.get, plane::READ]) / per_frame,
                    idle: secs(&cons, &[r.get, r.sync]) / per_frame,
                },
            )
        }
    };
    let group_sync_secs = if backend.groups {
        consumption.idle
    } else {
        0.0
    };
    RunBreakdown {
        production,
        consumption,
        makespan: run.makespan.as_secs_f64(),
        staging: run.staging,
        streaming: run.streaming,
        group_sync_secs,
        faults: run.faults,
    }
}

/// Mean and sample standard deviation of a quantity across repetitions.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct MeanStd {
    /// Mean across repetitions.
    pub mean: f64,
    /// Sample standard deviation across repetitions.
    pub std: f64,
}

impl MeanStd {
    /// Welford's one-pass update. Its rounding differs from a two-pass
    /// sum in the last bits, and every report carries those bits.
    fn from_samples(xs: impl Iterator<Item = f64>) -> MeanStd {
        let (mut n, mut mean, mut m2) = (0u64, 0.0_f64, 0.0_f64);
        for x in xs {
            n += 1;
            let delta = x - mean;
            mean += delta / n as f64;
            m2 += delta * (x - mean);
        }
        let variance = if n < 2 { 0.0 } else { m2 / (n - 1) as f64 };
        MeanStd {
            mean,
            std: variance.sqrt(),
        }
    }
}

/// The reduced study: what one bar group of a paper figure reports.
#[derive(Debug, Clone, Serialize)]
pub struct StudyReport {
    /// Configuration the study ran.
    pub workflow: WorkflowConfig,
    /// Production data-movement time, s/frame.
    pub production_movement: MeanStd,
    /// Production idle time, s/frame.
    pub production_idle: MeanStd,
    /// Consumption data-movement time, s/frame.
    pub consumption_movement: MeanStd,
    /// Consumption idle time, s/frame.
    pub consumption_idle: MeanStd,
    /// Makespan, seconds.
    pub makespan: MeanStd,
    /// Frames retired by the staging evictor (per repetition).
    pub evicted_frames: MeanStd,
    /// Frames spilled from NVMe to the PFS (per repetition).
    pub spilled_frames: MeanStd,
    /// Producer stalls at the staging high watermark (per repetition).
    pub backpressure_stalls: MeanStd,
    /// Seconds producers spent stalled (per repetition).
    pub backpressure_stall_secs: MeanStd,
    /// Consumes served from a spilled PFS copy (per repetition).
    pub pfs_fallbacks: MeanStd,
    /// Streaming window stalls (per repetition; zero for non-streaming).
    pub window_stalls: MeanStd,
    /// Seconds publishers spent stalled on a full window (per
    /// repetition).
    pub window_stall_secs: MeanStd,
    /// Per-group streaming sync latency, s/frame (per repetition).
    pub group_sync_secs: MeanStd,
    /// Window-slot ack entries reclaimed from crashed subscribers (per
    /// repetition).
    pub slots_reclaimed: MeanStd,
    /// Fault windows injected (per repetition; zero when disabled).
    pub fault_injections: MeanStd,
    /// Transport RPC retry attempts (per repetition).
    pub rpc_retries: MeanStd,
    /// Seconds spent in retry backoff — the recovery-time half of the
    /// movement/recovery split for faulted sweeps (per repetition).
    pub recovery_secs: MeanStd,
    /// Staged frames lost to crashes (per repetition).
    pub frames_lost: MeanStd,
    /// Per-repetition numbers (for variability plots).
    pub runs: Vec<RunBreakdown>,
}

impl StudyReport {
    /// Reduce a set of repetitions.
    pub fn from_runs(wf: &WorkflowConfig, runs: &[RunMetrics]) -> StudyReport {
        StudyReport::from_breakdowns(wf, runs.iter().map(|r| reduce_run(wf, r)).collect())
    }

    /// Mean and spread over repetitions already reduced by
    /// [`reduce_run`] — what the campaign executor's workers hand back,
    /// so no run's profiles outlive the worker that ran it.
    pub(crate) fn from_breakdowns(wf: &WorkflowConfig, reduced: Vec<RunBreakdown>) -> StudyReport {
        StudyReport {
            workflow: wf.clone(),
            production_movement: MeanStd::from_samples(
                reduced.iter().map(|r| r.production.movement),
            ),
            production_idle: MeanStd::from_samples(reduced.iter().map(|r| r.production.idle)),
            consumption_movement: MeanStd::from_samples(
                reduced.iter().map(|r| r.consumption.movement),
            ),
            consumption_idle: MeanStd::from_samples(reduced.iter().map(|r| r.consumption.idle)),
            makespan: MeanStd::from_samples(reduced.iter().map(|r| r.makespan)),
            evicted_frames: MeanStd::from_samples(
                reduced.iter().map(|r| r.staging.evicted_frames as f64),
            ),
            spilled_frames: MeanStd::from_samples(
                reduced.iter().map(|r| r.staging.spilled_frames as f64),
            ),
            backpressure_stalls: MeanStd::from_samples(
                reduced.iter().map(|r| r.staging.backpressure_stalls as f64),
            ),
            backpressure_stall_secs: MeanStd::from_samples(
                reduced.iter().map(|r| r.staging.backpressure_stall_secs),
            ),
            pfs_fallbacks: MeanStd::from_samples(
                reduced.iter().map(|r| r.staging.pfs_fallbacks as f64),
            ),
            window_stalls: MeanStd::from_samples(
                reduced.iter().map(|r| r.streaming.window_stalls as f64),
            ),
            window_stall_secs: MeanStd::from_samples(
                reduced.iter().map(|r| r.streaming.window_stall_secs),
            ),
            group_sync_secs: MeanStd::from_samples(reduced.iter().map(|r| r.group_sync_secs)),
            slots_reclaimed: MeanStd::from_samples(
                reduced.iter().map(|r| r.streaming.slots_reclaimed as f64),
            ),
            fault_injections: MeanStd::from_samples(
                reduced.iter().map(|r| r.faults.injected as f64),
            ),
            rpc_retries: MeanStd::from_samples(reduced.iter().map(|r| r.faults.rpc_retries as f64)),
            recovery_secs: MeanStd::from_samples(
                reduced.iter().map(|r| r.faults.retry_backoff_secs),
            ),
            frames_lost: MeanStd::from_samples(reduced.iter().map(|r| r.faults.frames_lost as f64)),
            runs: reduced,
        }
    }

    /// Mean total production time (movement + idle), s/frame.
    pub fn production_total(&self) -> f64 {
        self.production_movement.mean + self.production_idle.mean
    }

    /// Mean total consumption time (movement + idle), s/frame.
    pub fn consumption_total(&self) -> f64 {
        self.consumption_movement.mean + self.consumption_idle.mean
    }

    /// JSON for EXPERIMENTS.md regeneration.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }
}

/// Paper-style comparison: how many times faster is `a` than `b`.
pub(crate) fn speedup(slower: f64, faster: f64) -> f64 {
    if faster <= 0.0 {
        f64::INFINITY
    } else {
        slower / faster
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basic() {
        let m = MeanStd::from_samples([1.0, 2.0, 3.0].into_iter());
        assert!((m.mean - 2.0).abs() < 1e-12);
        assert!((m.std - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mean_std_empty_and_single() {
        let empty = MeanStd::from_samples(std::iter::empty());
        assert_eq!((empty.mean, empty.std), (0.0, 0.0));
        let one = MeanStd::from_samples([4.5].into_iter());
        assert_eq!((one.mean, one.std), (4.5, 0.0));
    }

    /// The bits of the Welford reduction every report carries, and a
    /// two-pass mean/std that rounds differently on the same samples.
    #[test]
    fn mean_std_is_welford_to_the_bit() {
        let xs = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
        let m = MeanStd::from_samples(xs.into_iter());
        assert_eq!(m.mean.to_bits(), 0x3fe1_9999_9999_9999);
        assert_eq!(m.std.to_bits(), 0x3fd3_6080_995d_4206);
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let variance = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        assert!(
            (mean.to_bits(), variance.sqrt().to_bits()) != (m.mean.to_bits(), m.std.to_bits()),
            "the two-pass formula must differ in at least one bit"
        );
    }

    #[test]
    fn speedup_handles_zero() {
        assert_eq!(speedup(10.0, 2.0), 5.0);
        assert!(speedup(1.0, 0.0).is_infinite());
    }
}
