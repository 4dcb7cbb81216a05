//! The paper's MD *emulation* mode.
//!
//! §IV-C: "a producer emulates the computation done by an MD simulation
//! using a fixed-duration MD sleep", with the per-step duration taken
//! from Table II. This module provides that emulator for the simulated
//! workflow: per-step durations, with optional jitter. What a producer
//! emits at the end of a stride is [`Model::frame_segments`].

use rand::rngs::StdRng;
use rand::RngExt;

/// Per-step duration source for the sleep-based MD emulator.
#[derive(Debug, Clone, Copy)]
pub struct StepClock {
    /// Mean milliseconds per MD step (Table II).
    pub ms_per_step: f64,
    /// Relative jitter: each stride's duration is drawn uniformly from
    /// `[1-jitter, 1+jitter] × nominal`. Models real step-time variance
    /// and desynchronizes initially aligned producers.
    pub jitter: f64,
}

impl StepClock {
    /// Seconds a run of `stride` steps takes (one draw per stride, as
    /// the paper's emulator sleeps once per stride).
    pub fn stride_secs(&self, stride: u64, rng: &mut StdRng) -> f64 {
        let nominal = stride as f64 * self.ms_per_step / 1000.0;
        if self.jitter <= 0.0 {
            return nominal;
        }
        let k: f64 = rng.random_range(1.0 - self.jitter..1.0 + self.jitter);
        nominal * k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::Model;
    use rand::SeedableRng;

    /// Every emitted frame's body, of every model and step, is a view of
    /// one block; only the header is fresh.
    #[test]
    fn frame_bodies_are_shared_not_copied() {
        let first = Model::Jac.frame_segments(0);
        assert!(first[1].iter().all(|&byte| byte == 0));
        for m in Model::ALL {
            for step in [0, 1, 880, u64::MAX] {
                let frame = m.frame_segments(step);
                assert_eq!(frame[1].as_ptr(), first[1].as_ptr(), "{m} step {step}");
                assert_ne!(frame[0].as_ptr(), first[0].as_ptr(), "{m} step {step}");
            }
        }
    }

    #[test]
    fn step_clock_nominal_and_jitter() {
        let mut rng = StdRng::seed_from_u64(1);
        let c = StepClock {
            ms_per_step: Model::Jac.ms_per_step(),
            jitter: 0.0,
        };
        let s = c.stride_secs(880, &mut rng);
        assert!((s - 0.82).abs() < 0.005, "{s}");
        let c = StepClock {
            ms_per_step: Model::Jac.ms_per_step(),
            jitter: 0.05,
        };
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for _ in 0..200 {
            let s = c.stride_secs(880, &mut rng);
            lo = lo.min(s);
            hi = hi.max(s);
        }
        assert!(lo >= 0.82 * 0.94 && hi <= 0.82 * 1.06);
        assert!(hi - lo > 0.01, "jitter too small: {lo}..{hi}");
    }
}
