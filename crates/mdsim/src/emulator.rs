//! The paper's MD *emulation* mode.
//!
//! §IV-C: "a producer emulates the computation done by an MD simulation
//! using a fixed-duration MD sleep", with the per-step duration taken
//! from Table II. This module provides that emulator for the simulated
//! workflow: per-step durations (with optional jitter) and realistic
//! frame payloads.
//!
//! Payload strategy: one fully populated frame is generated per
//! (model, seed) as an immutable template; each emitted frame is a fresh
//! 48-byte header (carrying the real step number) plus a zero-copy slice
//! of the template body. Frames are therefore bit-exact, validated
//! end-to-end, and emitting them is O(1) regardless of model size —
//! which is what makes the 256-pair and STMV sweeps tractable.

use bytes::{BufMut, Bytes};
use rand::rngs::StdRng;
use rand::RngExt;

use crate::frame::{FrameHeader, MAGIC, VERSION};
use crate::models::{Model, ATOM_BYTES, HEADER_BYTES};

/// An immutable, fully populated frame body for one model.
///
/// Cloning is cheap (the body is a shared [`Bytes`] handle), which is
/// what lets a warm-started campaign generate one template per sweep
/// point and hand every repetition a copy instead of re-synthesizing
/// O(atoms) bytes per run.
#[derive(Clone)]
pub struct FrameTemplate {
    model: Model,
    /// Encoded atom records (28 bytes each), shared by every frame.
    body: Bytes,
    box_lengths: [f32; 3],
}

impl FrameTemplate {
    /// Generate a template with pseudo-random (but deterministic)
    /// positions on a lattice perturbed by `seed`.
    pub fn generate(model: Model, seed: u64) -> Self {
        let n = model.atoms();
        let box_len = (n as f64).cbrt() * 3.0;
        // Cheap deterministic position synthesis (an xorshift stream):
        // full RNG quality is unnecessary, O(n) speed matters for STMV.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * box_len
        };
        let body = Bytes::build((n * ATOM_BYTES) as usize, |body| {
            for i in 0..n {
                body.put_u32_le(i as u32);
                body.put_f64_le(next());
                body.put_f64_le(next());
                body.put_f64_le(next());
            }
        });
        FrameTemplate {
            model,
            body,
            box_lengths: [box_len as f32; 3],
        }
    }

    /// The model this template belongs to.
    pub fn model(&self) -> Model {
        self.model
    }

    /// Emit a frame for `step` as a `[header, body]` rope. The body is a
    /// zero-copy clone of the template; only 48 header bytes are fresh.
    pub fn frame_segments(&self, step: u64) -> Vec<Bytes> {
        let hdr = Bytes::build(HEADER_BYTES as usize, |hdr| {
            hdr.put_u64_le(MAGIC);
            hdr.put_u32_le(VERSION);
            hdr.put_u32_le(self.model.id());
            hdr.put_u64_le(step);
            hdr.put_u64_le(self.model.atoms());
            for b in self.box_lengths {
                hdr.put_f32_le(b);
            }
            hdr.put_u32_le(0);
        });
        vec![hdr, self.body.clone()]
    }

    /// Validate that `segments` is a well-formed frame for this model at
    /// `step`, checking the header fields and total length.
    pub fn validate(&self, segments: &[Bytes], step: u64) -> bool {
        let Ok(h) = FrameHeader::decode_segments(segments) else {
            return false;
        };
        let total: u64 = segments.iter().map(|s| s.len() as u64).sum();
        h.model == self.model
            && h.step == step
            && h.atoms == self.model.atoms()
            && total == self.model.frame_bytes()
    }
}

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
    /// Clock for a model with the given jitter fraction.
    pub fn for_model(model: Model, jitter: f64) -> Self {
        StepClock {
            ms_per_step: model.ms_per_step(),
            jitter,
        }
    }

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
    use rand::SeedableRng;

    #[test]
    fn template_frames_have_exact_size_and_header() {
        let t = FrameTemplate::generate(Model::Jac, 11);
        let segs = t.frame_segments(880);
        let total: u64 = segs.iter().map(|s| s.len() as u64).sum();
        assert_eq!(total, Model::Jac.frame_bytes());
        let h = FrameHeader::decode_segments(&segs).unwrap();
        assert_eq!(h.model, Model::Jac);
        assert_eq!(h.step, 880);
        assert_eq!(h.atoms, Model::Jac.atoms());
    }

    #[test]
    fn frame_bodies_are_shared_not_copied() {
        let t = FrameTemplate::generate(Model::Jac, 11);
        let a = t.frame_segments(1);
        let b = t.frame_segments(2);
        assert_eq!(a[1].as_ptr(), b[1].as_ptr());
        assert_ne!(
            FrameHeader::decode_segments(&a).unwrap().step,
            FrameHeader::decode_segments(&b).unwrap().step
        );
    }

    #[test]
    fn validate_accepts_good_and_rejects_bad() {
        let t = FrameTemplate::generate(Model::Jac, 11);
        let segs = t.frame_segments(5);
        assert!(t.validate(&segs, 5));
        assert!(!t.validate(&segs, 6)); // wrong step
        let truncated = vec![segs[0].clone(), segs[1].slice(..100)];
        assert!(!t.validate(&truncated, 5)); // wrong length
        let other = FrameTemplate::generate(Model::ApoA1, 11);
        assert!(!other.validate(&segs, 5)); // wrong model
    }

    #[test]
    fn full_frames_decode_to_real_positions() {
        let t = FrameTemplate::generate(Model::Jac, 3);
        let segs = t.frame_segments(0);
        let f = crate::frame::Frame::decode_segments(&segs).unwrap();
        assert_eq!(f.positions.len() as u64, Model::Jac.atoms());
        // Positions are inside the synthetic box.
        let l = f.box_lengths[0] as f64;
        for p in f.positions.iter().take(100) {
            for c in p {
                assert!(*c >= 0.0 && *c <= l);
            }
        }
    }

    #[test]
    fn step_clock_nominal_and_jitter() {
        let mut rng = StdRng::seed_from_u64(1);
        let c = StepClock::for_model(Model::Jac, 0.0);
        let s = c.stride_secs(880, &mut rng);
        assert!((s - 0.82).abs() < 0.005, "{s}");
        let c = StepClock::for_model(Model::Jac, 0.05);
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
