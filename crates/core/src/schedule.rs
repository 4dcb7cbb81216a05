//! Variable-rate frame schedules.
//!
//! §III-A of the paper singles out workflows "where the data generation
//! rate varies significantly" as DYAD's sweet spot — but its evaluation
//! only runs fixed strides. This module adds the missing axis: a
//! [`FrameSchedule`] produces the inter-frame gap for every frame, and
//! the bursty-production experiment (the `bursty` entry of `all`) runs the
//! paper's comparison under realistic non-uniform output rates
//! (adaptive timesteps, event-triggered dumps, replayed traces).

use rand::rngs::StdRng;
use rand::RngExt;
use simcore::SimDuration;

/// How frame production is spaced in time.
#[derive(Debug, Clone)]
pub enum FrameSchedule {
    /// Fixed cadence (the paper's mode): every frame after `period`.
    Periodic {
        /// Inter-frame period.
        period: SimDuration,
    },
    /// Markov burst model: frames alternate between a fast "burst" gap
    /// and a slow "quiet" gap, switching state with the given
    /// probabilities per frame. Mean rate matches `Periodic` with
    /// period = `p_quiet·quiet + p_burst·burst` at stationarity.
    Bursty {
        /// Gap between frames inside a burst.
        burst_gap: SimDuration,
        /// Gap between frames while quiet.
        quiet_gap: SimDuration,
        /// P(stay in burst) per frame.
        burst_persistence: f64,
        /// P(enter burst from quiet) per frame.
        burst_entry: f64,
    },
    /// Replay an explicit trace of inter-frame gaps (cycled if shorter
    /// than the frame count) — for users with measured MD output traces.
    Trace {
        /// Recorded inter-frame gaps.
        gaps: Vec<SimDuration>,
    },
}

impl FrameSchedule {
    /// Instantiate a stateful generator for one producer.
    pub(crate) fn generator(&self, rng: StdRng) -> ScheduleGen<'_> {
        ScheduleGen {
            schedule: self,
            rng,
            in_burst: false,
            idx: 0,
        }
    }

    /// The long-run mean inter-frame gap (used to rate-match consumers).
    pub fn mean_gap(&self) -> SimDuration {
        match self {
            FrameSchedule::Periodic { period } => *period,
            FrameSchedule::Bursty {
                burst_gap,
                quiet_gap,
                burst_persistence,
                burst_entry,
            } => {
                // Stationary distribution of the two-state chain.
                let leave = 1.0 - burst_persistence;
                let p_burst = if burst_entry + leave > 0.0 {
                    burst_entry / (burst_entry + leave)
                } else {
                    0.0
                };
                SimDuration::from_secs_f64(
                    p_burst * burst_gap.as_secs_f64() + (1.0 - p_burst) * quiet_gap.as_secs_f64(),
                )
            }
            FrameSchedule::Trace { gaps } => {
                if gaps.is_empty() {
                    SimDuration::ZERO
                } else {
                    let total: f64 = gaps.iter().map(|g| g.as_secs_f64()).sum();
                    SimDuration::from_secs_f64(total / gaps.len() as f64)
                }
            }
        }
    }
}

/// Stateful per-producer gap generator over a borrowed schedule.
pub(crate) struct ScheduleGen<'a> {
    schedule: &'a FrameSchedule,
    rng: StdRng,
    in_burst: bool,
    idx: usize,
}

impl ScheduleGen<'_> {
    /// The gap to sleep before producing the next frame.
    pub(crate) fn next_gap(&mut self) -> SimDuration {
        match self.schedule {
            FrameSchedule::Periodic { period } => *period,
            FrameSchedule::Bursty {
                burst_gap,
                quiet_gap,
                burst_persistence,
                burst_entry,
            } => {
                let p: f64 = self.rng.random_range(0.0..1.0);
                self.in_burst = if self.in_burst {
                    p < *burst_persistence
                } else {
                    p < *burst_entry
                };
                if self.in_burst {
                    *burst_gap
                } else {
                    *quiet_gap
                }
            }
            FrameSchedule::Trace { gaps } => {
                if gaps.is_empty() {
                    return SimDuration::ZERO;
                }
                let g = gaps[self.idx % gaps.len()];
                self.idx += 1;
                g
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn periodic_is_constant() {
        let s = FrameSchedule::Periodic {
            period: SimDuration::from_secs_f64(0.82),
        };
        let mut g = s.generator(StdRng::seed_from_u64(1));
        for _ in 0..5 {
            assert_eq!(g.next_gap(), SimDuration::from_secs_f64(0.82));
        }
        assert_eq!(s.mean_gap(), SimDuration::from_secs_f64(0.82));
    }

    #[test]
    fn trace_cycles() {
        let gaps = vec![SimDuration::from_millis(10), SimDuration::from_millis(20)];
        let s = FrameSchedule::Trace { gaps };
        let mut g = s.generator(StdRng::seed_from_u64(1));
        assert_eq!(g.next_gap().millis(), 10);
        assert_eq!(g.next_gap().millis(), 20);
        assert_eq!(g.next_gap().millis(), 10);
        assert_eq!(s.mean_gap().millis(), 15);
    }

    #[test]
    fn bursty_mixes_both_gaps_and_mean_matches_stationarity() {
        let s = FrameSchedule::Bursty {
            burst_gap: SimDuration::from_millis(10),
            quiet_gap: SimDuration::from_millis(100),
            burst_persistence: 0.8,
            burst_entry: 0.2,
        };
        let mut g = s.generator(StdRng::seed_from_u64(7));
        let mut fast = 0u32;
        let mut slow = 0u32;
        let mut total = 0.0;
        let n = 20_000;
        for _ in 0..n {
            let gap = g.next_gap();
            total += gap.as_secs_f64();
            if gap.millis() == 10 {
                fast += 1;
            } else {
                slow += 1;
            }
        }
        assert!(fast > 0 && slow > 0, "both states must occur");
        // Stationary P(burst) = 0.2 / (0.2 + 0.2) = 0.5 -> mean 55 ms.
        let mean = total / n as f64;
        assert!((mean - 0.055).abs() < 0.003, "mean gap {mean}");
        assert!((s.mean_gap().as_secs_f64() - 0.055).abs() < 1e-9);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let s = FrameSchedule::Bursty {
            burst_gap: SimDuration::from_millis(1),
            quiet_gap: SimDuration::from_millis(9),
            burst_persistence: 0.7,
            burst_entry: 0.3,
        };
        let seq = |seed| {
            let mut g = s.generator(StdRng::seed_from_u64(seed));
            (0..50).map(|_| g.next_gap().nanos()).collect::<Vec<_>>()
        };
        assert_eq!(seq(5), seq(5));
        assert_ne!(seq(5), seq(6));
    }
}
