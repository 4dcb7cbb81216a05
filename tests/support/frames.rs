//! Frames whose bytes say where they came from, for the tests that
//! compare delivered bytes. A simulated frame is a header over one zero
//! body that every frame shares, so a byte comparison of those would
//! pass a shifted, reordered or cross-wired body segment. These keep the
//! model's real header for the step and fill the body with a pattern of
//! `salt` and each word's offset. A test file includes it with
//!
//! ```ignore
//! #[path = "../../../tests/support/frames.rs"]
//! mod frames;
//! ```
//!
//! (the path relative to the including file).

use bytes::{BufMut, Bytes};
use mdsim::Model;

/// `model`'s frame for `step` as a `[header, body]` rope: the header
/// [`Model::frame_segments`] emits, and a body as long as the model's
/// whose every 8-byte word is a mix of `salt` and the word's index.
pub fn patterned_frame(model: Model, step: u64, salt: u64) -> Vec<Bytes> {
    let mut segments = model.frame_segments(step);
    let len = segments[1].len();
    segments[1] = Bytes::build(len, |body| {
        let mut word = 0u64;
        while !body.is_empty() {
            let bytes = splitmix(salt ^ word.wrapping_mul(0x9E37_79B9_7F4A_7C15)).to_le_bytes();
            let n = body.len().min(8);
            body.put_slice(&bytes[..n]);
            word += 1;
        }
    });
    segments
}

/// Whether `got` passes the consumers' check and holds, byte for byte,
/// `patterned_frame(model, step, salt)` — whatever its segment cuts.
#[allow(dead_code)] // not every including test reads it
pub fn is_patterned_frame(got: &[Bytes], model: Model, step: u64, salt: u64) -> bool {
    let want = patterned_frame(model, step, salt);
    let bytes = |rope: &[Bytes]| {
        rope.iter()
            .flat_map(|s| s.iter().copied())
            .collect::<Vec<_>>()
    };
    model.check_frame(got, step).is_ok() && bytes(got) == bytes(&want)
}

/// SplitMix64's finaliser: neighbouring inputs give unrelated words.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
