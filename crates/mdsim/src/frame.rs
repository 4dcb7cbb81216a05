//! The frame wire format: what producers emit and consumers check.
//!
//! Layout (little-endian):
//!
//! ```text
//! 0   u64  magic  "MDFRAME\0"
//! 8   u32  format version (1)
//! 12  u32  model id
//! 16  u64  MD step the frame was captured at
//! 24  u64  atom count
//! 32  f32  box x, y, z
//! 44  u32  padding / reserved
//! 48  per atom: u32 id, f64 x, f64 y, f64 z   (28 bytes)
//! ```
//!
//! 48 + 28·atoms bytes total, matching Table I's frame sizes.
//!
//! Of a frame the study measures its size and its arrival, never its
//! atoms (the paper's producers emulate MD with a sleep). So a frame is
//! a fresh header plus a view of one zero body that every frame of
//! every model shares ([`Model::frame_segments`]), and the consumer's
//! one check reads the header and the total length
//! ([`Model::check_frame`]).

use std::sync::OnceLock;

use bytes::{BufMut, Bytes};

use crate::models::{Model, ATOM_BYTES, HEADER_BYTES};

/// Magic number identifying a frame ("MDFRAME\0").
pub(crate) const MAGIC: u64 = 0x4D44_4652_414D_4500;
/// Current format version.
pub(crate) const VERSION: u32 = 1;

/// Why a delivered frame was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than a header.
    Truncated,
    /// Bad magic number.
    BadMagic,
    /// Unsupported version.
    BadVersion,
    /// Unknown model id.
    BadModel,
    /// The header names another model than the one expected.
    WrongModel,
    /// The header names another step than the one expected.
    WrongStep,
    /// The atom count or the total length is not the model's.
    WrongLength,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FrameError::Truncated => "frame shorter than its header",
            FrameError::BadMagic => "bad frame magic",
            FrameError::BadVersion => "unsupported frame version",
            FrameError::BadModel => "unknown model id",
            FrameError::WrongModel => "frame of another model",
            FrameError::WrongStep => "frame of another step",
            FrameError::WrongLength => "frame length is not the model's",
        };
        f.write_str(s)
    }
}
impl std::error::Error for FrameError {}

/// The fixed-size frame header.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameHeader {
    /// Which molecular model produced this frame.
    pub model: Model,
    /// MD step at capture time.
    pub step: u64,
    /// Atom count.
    pub atoms: u64,
    /// Simulation box lengths.
    pub box_lengths: [f32; 3],
}

impl FrameHeader {
    /// Decode the header from the first bytes of a frame rope, wherever
    /// the segment boundaries fall.
    pub(crate) fn decode(segments: &[Bytes]) -> Result<FrameHeader, FrameError> {
        const N: usize = HEADER_BYTES as usize;
        let mut head = [0u8; N];
        let mut held = 0;
        for s in segments {
            let n = s.len().min(N - held);
            head[held..held + n].copy_from_slice(&s[..n]);
            held += n;
        }
        if held < N {
            return Err(FrameError::Truncated);
        }
        let u32_at = |at: usize| u32::from_le_bytes(field(&head, at));
        let u64_at = |at: usize| u64::from_le_bytes(field(&head, at));
        let f32_at = |at: usize| f32::from_bits(u32_at(at));
        if u64_at(0) != MAGIC {
            return Err(FrameError::BadMagic);
        }
        if u32_at(8) != VERSION {
            return Err(FrameError::BadVersion);
        }
        Ok(FrameHeader {
            model: Model::from_id(u32_at(12)).ok_or(FrameError::BadModel)?,
            step: u64_at(16),
            atoms: u64_at(24),
            box_lengths: [f32_at(32), f32_at(36), f32_at(40)],
        })
    }
}

/// The `N` header bytes at `at`.
fn field<const N: usize>(head: &[u8; HEADER_BYTES as usize], at: usize) -> [u8; N] {
    head[at..at + N]
        .try_into()
        .expect("a header field lies inside the header")
}

impl Model {
    /// This model's frame for `step` as a `[header, body]` rope: 48
    /// fresh header bytes and a view of the one shared zero body,
    /// [`Model::frame_bytes`] long in total.
    pub fn frame_segments(self, step: u64) -> Vec<Bytes> {
        // Box edge: three length units per cube root of the atom count.
        let box_len = (self.atoms() as f64).cbrt() * 3.0;
        let header = Bytes::build(HEADER_BYTES as usize, |hdr| {
            hdr.put_u64_le(MAGIC);
            hdr.put_u32_le(VERSION);
            hdr.put_u32_le(self.id());
            hdr.put_u64_le(step);
            hdr.put_u64_le(self.atoms());
            for _ in 0..3 {
                hdr.put_f32_le(box_len as f32);
            }
            hdr.put_u32_le(0); // reserved
        });
        vec![header, zero_body((self.atoms() * ATOM_BYTES) as usize)]
    }

    /// Check that `segments` is this model's frame for `step`: a valid
    /// header naming this model, `step` and the model's atom count, and
    /// [`Model::frame_bytes`] in total. What catches a frame delivered
    /// for the wrong step or cut short; the body is not read.
    pub fn check_frame(self, segments: &[Bytes], step: u64) -> Result<(), FrameError> {
        let header = FrameHeader::decode(segments)?;
        let total: u64 = segments.iter().map(|s| s.len() as u64).sum();
        if header.model != self {
            Err(FrameError::WrongModel)
        } else if header.step != step {
            Err(FrameError::WrongStep)
        } else if header.atoms != self.atoms() || total != self.frame_bytes() {
            Err(FrameError::WrongLength)
        } else {
            Ok(())
        }
    }
}

/// `len` bytes of the body every frame shares: one zero block as long as
/// the largest model's body, made once per process and never written.
/// `vec![0; n]` asks the allocator for zeroed memory, which at this size
/// is fresh pages that stay non-resident however often they are read;
/// the block is leaked, so a view of it is a `Bytes::from_static` that
/// counts no references.
fn zero_body(len: usize) -> Bytes {
    static BODY: OnceLock<&'static [u8]> = OnceLock::new();
    let body = BODY.get_or_init(|| {
        let largest = Model::ALL.iter().map(|m| m.atoms() * ATOM_BYTES).max();
        vec![0u8; largest.expect("there are models") as usize].leak()
    });
    Bytes::from_static(&body[..len])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(segments: &[Bytes]) -> u64 {
        segments.iter().map(|s| s.len() as u64).sum()
    }

    #[test]
    fn full_model_frame_has_table_one_size() {
        for m in Model::ALL {
            for step in [0, 1, 880, u64::MAX] {
                assert_eq!(total(&m.frame_segments(step)), m.frame_bytes(), "{m}");
            }
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        for m in Model::ALL {
            for step in [0, 880, u64::MAX] {
                let segs = m.frame_segments(step);
                let h = FrameHeader::decode(&segs).unwrap();
                assert_eq!((h.model, h.step, h.atoms), (m, step, m.atoms()));
                assert_eq!(m.check_frame(&segs, step), Ok(()));
            }
        }
    }

    /// The header decodes from its own segment, without the body.
    #[test]
    fn header_only_decode() {
        let segs = Model::Jac.frame_segments(880);
        let h = FrameHeader::decode(&segs[..1]).unwrap();
        assert_eq!((h.model, h.step, h.atoms), (Model::Jac, 880, 23_558));
        assert_eq!(h.model.frame_bytes(), total(&segs));
    }

    /// Every rejection, each against the one check.
    #[test]
    fn decode_rejects_corruption() {
        let segs = Model::Jac.frame_segments(5);
        let with_header_byte = |at: usize, value: u8| {
            let mut header = segs[0].to_vec();
            header[at] = value;
            vec![Bytes::from(header), segs[1].clone()]
        };
        let check = |s: &[Bytes]| Model::Jac.check_frame(s, 5);
        assert_eq!(check(&with_header_byte(0, 0xFF)), Err(FrameError::BadMagic));
        assert_eq!(
            check(&with_header_byte(8, 0xFF)),
            Err(FrameError::BadVersion)
        );
        assert_eq!(
            check(&with_header_byte(12, 0xEE)),
            Err(FrameError::BadModel)
        );
        assert_eq!(check(&with_header_byte(16, 6)), Err(FrameError::WrongStep));
        assert_eq!(
            check(&with_header_byte(24, 0)),
            Err(FrameError::WrongLength)
        );
        assert_eq!(Model::Jac.check_frame(&segs, 6), Err(FrameError::WrongStep));
        assert_eq!(
            Model::ApoA1.check_frame(&segs, 5),
            Err(FrameError::WrongModel)
        );
        let short = [segs[0].clone(), segs[1].slice(..segs[1].len() - 1)];
        assert_eq!(check(&short), Err(FrameError::WrongLength));
        assert_eq!(check(&[segs[0].slice(..47)]), Err(FrameError::Truncated));
        assert_eq!(check(&[]), Err(FrameError::Truncated));
    }

    #[test]
    fn segment_rope_decoding() {
        let segs = Model::Jac.frame_segments(880);
        let h = FrameHeader::decode(&segs).unwrap();
        let mut tiny: Vec<Bytes> = (0..48)
            .step_by(7)
            .map(|at| segs[0].slice(at..(at + 7).min(48)))
            .collect();
        tiny.push(segs[1].clone());
        assert_eq!(FrameHeader::decode(&tiny).unwrap(), h);
        assert_eq!(Model::Jac.check_frame(&tiny, 880), Ok(()));
        assert_eq!(FrameHeader::decode(&tiny[..3]), Err(FrameError::Truncated));
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            // However the header is cut into segments, the check accepts
            // the frame for its own step, and a flipped bit in any field
            // it reads (magic, version, model, step, atom count) is
            // rejected.
            #[test]
            fn round_trip_arbitrary_frames(
                step in any::<u64>(),
                cut in 1usize..48,
                bit in 0usize..28 * 8,
            ) {
                let segs = Model::ApoA1.frame_segments(step);
                let split = vec![segs[0].slice(..cut), segs[0].slice(cut..), segs[1].clone()];
                prop_assert_eq!(Model::ApoA1.check_frame(&split, step), Ok(()));
                let mut header = segs[0].to_vec();
                header[bit / 8] ^= 1 << (bit % 8);
                let flipped = vec![Bytes::from(header), segs[1].clone()];
                prop_assert!(Model::ApoA1.check_frame(&flipped, step).is_err());
            }
        }
    }
}
