//! The frame wire format: what producers serialize and consumers
//! deserialize.
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

use bytes::{Buf, BufMut, Bytes};

use crate::models::{Model, ATOM_BYTES, HEADER_BYTES};

/// Magic number identifying a frame ("MDFRAME\0").
pub const MAGIC: u64 = 0x4D44_4652_414D_4500;
/// Current format version.
pub const VERSION: u32 = 1;

/// A decoded (or to-be-encoded) MD frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Which molecular model produced this frame.
    pub model: Model,
    /// MD step at capture time.
    pub step: u64,
    /// Simulation box lengths.
    pub box_lengths: [f32; 3],
    /// Atom ids.
    pub ids: Vec<u32>,
    /// Atom positions.
    pub positions: Vec<[f64; 3]>,
}

/// Errors produced while decoding a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Buffer shorter than a header or truncated mid-atom.
    Truncated,
    /// Bad magic number.
    BadMagic,
    /// Unsupported version.
    BadVersion,
    /// Unknown model id.
    BadModel,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FrameError::Truncated => "frame buffer truncated",
            FrameError::BadMagic => "bad frame magic",
            FrameError::BadVersion => "unsupported frame version",
            FrameError::BadModel => "unknown model id",
        };
        f.write_str(s)
    }
}
impl std::error::Error for FrameError {}

impl Frame {
    /// Serialize to wire bytes. The result is exactly
    /// [`Model::frame_bytes`] long.
    pub fn encode(&self) -> Bytes {
        let len = (HEADER_BYTES + ATOM_BYTES * self.ids.len() as u64) as usize;
        Bytes::build(len, |buf| {
            buf.put_u64_le(MAGIC);
            buf.put_u32_le(VERSION);
            buf.put_u32_le(self.model.id());
            buf.put_u64_le(self.step);
            buf.put_u64_le(self.ids.len() as u64);
            for b in self.box_lengths {
                buf.put_f32_le(b);
            }
            buf.put_u32_le(0); // reserved
            for (id, pos) in self.ids.iter().zip(&self.positions) {
                buf.put_u32_le(*id);
                buf.put_f64_le(pos[0]);
                buf.put_f64_le(pos[1]);
                buf.put_f64_le(pos[2]);
            }
        })
    }

    /// Decode from wire bytes.
    pub fn decode(mut raw: Bytes) -> Result<Frame, FrameError> {
        let header = FrameHeader::decode(&raw)?;
        raw.advance(HEADER_BYTES as usize);
        let natoms = header.atoms as usize;
        if (raw.len() as u64) < ATOM_BYTES * header.atoms {
            return Err(FrameError::Truncated);
        }
        let mut ids = Vec::with_capacity(natoms);
        let mut positions = Vec::with_capacity(natoms);
        for _ in 0..natoms {
            ids.push(raw.get_u32_le());
            positions.push([raw.get_f64_le(), raw.get_f64_le(), raw.get_f64_le()]);
        }
        Ok(Frame {
            model: header.model,
            step: header.step,
            box_lengths: header.box_lengths,
            ids,
            positions,
        })
    }

    /// Decode a frame stored as a rope of segments (as returned by the
    /// zero-copy read paths) by concatenating once.
    pub fn decode_segments(segments: &[Bytes]) -> Result<Frame, FrameError> {
        if segments.len() == 1 {
            return Frame::decode(segments[0].clone());
        }
        let total: usize = segments.iter().map(|s| s.len()).sum();
        Frame::decode(Bytes::build(total, |flat| {
            segments.iter().for_each(|s| flat.put_slice(s))
        }))
    }
}

/// The fixed-size frame header, decodable without touching the body —
/// what the consumer-side workflow uses to validate frames cheaply.
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
    /// Decode just the header from the first bytes of a frame.
    pub fn decode(raw: &Bytes) -> Result<FrameHeader, FrameError> {
        if (raw.len() as u64) < HEADER_BYTES {
            return Err(FrameError::Truncated);
        }
        let mut h = raw.slice(..HEADER_BYTES as usize);
        if h.get_u64_le() != MAGIC {
            return Err(FrameError::BadMagic);
        }
        if h.get_u32_le() != VERSION {
            return Err(FrameError::BadVersion);
        }
        let model = Model::from_id(h.get_u32_le()).ok_or(FrameError::BadModel)?;
        let step = h.get_u64_le();
        let atoms = h.get_u64_le();
        let box_lengths = [h.get_f32_le(), h.get_f32_le(), h.get_f32_le()];
        Ok(FrameHeader {
            model,
            step,
            atoms,
            box_lengths,
        })
    }

    /// Decode the header from the first segment of a rope.
    pub fn decode_segments(segments: &[Bytes]) -> Result<FrameHeader, FrameError> {
        match segments.first() {
            Some(first) if first.len() as u64 >= HEADER_BYTES => FrameHeader::decode(first),
            Some(_) | None => {
                // The header straddles segments: gather as much of it as
                // the rope holds.
                let held: usize = segments.iter().map(|s| s.len()).sum();
                let head = Bytes::build(held.min(HEADER_BYTES as usize), |flat| {
                    for s in segments {
                        let n = s.len().min(flat.len());
                        flat.put_slice(&s[..n]);
                    }
                });
                FrameHeader::decode(&head)
            }
        }
    }

    /// Total frame length implied by the header.
    pub fn frame_bytes(&self) -> u64 {
        HEADER_BYTES + ATOM_BYTES * self.atoms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_frame() -> Frame {
        Frame {
            model: Model::Jac,
            step: 880,
            box_lengths: [62.2, 62.2, 62.2],
            ids: (0..100).collect(),
            positions: (0..100)
                .map(|i| [i as f64 * 0.1, i as f64 * 0.2, i as f64 * 0.3])
                .collect(),
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let f = small_frame();
        let wire = f.encode();
        assert_eq!(wire.len() as u64, HEADER_BYTES + 100 * ATOM_BYTES);
        let back = Frame::decode(wire).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn full_model_frame_has_table_one_size() {
        let n = Model::Jac.atoms() as usize;
        let f = Frame {
            model: Model::Jac,
            step: 0,
            box_lengths: [1.0; 3],
            ids: (0..n as u32).collect(),
            positions: vec![[0.0; 3]; n],
        };
        assert_eq!(f.encode().len() as u64, Model::Jac.frame_bytes());
    }

    #[test]
    fn header_only_decode() {
        let wire = small_frame().encode();
        let h = FrameHeader::decode(&wire).unwrap();
        assert_eq!(h.model, Model::Jac);
        assert_eq!(h.step, 880);
        assert_eq!(h.atoms, 100);
        assert_eq!(h.frame_bytes(), wire.len() as u64);
    }

    #[test]
    fn decode_rejects_corruption() {
        let wire = small_frame().encode();
        // Truncated.
        assert_eq!(
            Frame::decode(wire.slice(..20)).unwrap_err(),
            FrameError::Truncated
        );
        // Bad magic.
        let mut bad = wire.to_vec();
        bad[0] ^= 0xFF;
        assert_eq!(
            Frame::decode(Bytes::from(bad)).unwrap_err(),
            FrameError::BadMagic
        );
        // Bad version.
        let mut bad = wire.to_vec();
        bad[8] = 0xFF;
        assert_eq!(
            Frame::decode(Bytes::from(bad)).unwrap_err(),
            FrameError::BadVersion
        );
        // Bad model.
        let mut bad = wire.to_vec();
        bad[12] = 0xEE;
        assert_eq!(
            Frame::decode(Bytes::from(bad)).unwrap_err(),
            FrameError::BadModel
        );
        // Truncated body.
        assert_eq!(
            Frame::decode(wire.slice(..wire.len() - 1)).unwrap_err(),
            FrameError::Truncated
        );
    }

    #[test]
    fn segment_rope_decoding() {
        let f = small_frame();
        let wire = f.encode();
        // Split into header + body segments, as the zero-copy path does.
        let segs = vec![wire.slice(..48), wire.slice(48..)];
        assert_eq!(Frame::decode_segments(&segs).unwrap(), f);
        let h = FrameHeader::decode_segments(&segs).unwrap();
        assert_eq!(h.step, 880);
        // Pathological: header split across tiny segments.
        let segs: Vec<Bytes> = wire.chunks(7).map(Bytes::copy_from_slice).collect();
        assert_eq!(FrameHeader::decode_segments(&segs).unwrap(), h);
    }

    #[cfg(test)]
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            #[test]
            fn round_trip_arbitrary_frames(
                step in any::<u64>(),
                n in 0usize..200,
                seed in any::<u32>(),
            ) {
                let f = Frame {
                    model: Model::ApoA1,
                    step,
                    box_lengths: [seed as f32, 1.0, 2.0],
                    ids: (0..n as u32).map(|i| i ^ seed).collect(),
                    positions: (0..n)
                        .map(|i| {
                            let x = (i as f64 + seed as f64).sin();
                            [x, x * 2.0, x * 3.0]
                        })
                        .collect(),
                };
                prop_assert_eq!(Frame::decode(f.encode()).unwrap(), f);
            }
        }
    }
}
