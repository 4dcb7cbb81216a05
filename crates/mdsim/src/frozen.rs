//! Two names the frozen benchmark package (`perf/`) still calls, kept
//! as thin forwards until its probes move to [`Model::frame_segments`]
//! and [`Model::check_frame`]. Nothing in the simulator calls them;
//! `crates/core/tests/frozen_for_perf.rs` calls them the way `perf/`
//! does.

use bytes::Bytes;

use crate::frame::{FrameError, FrameHeader};
use crate::models::Model;

/// `perf/`'s name for a model's frame source; the seed is ignored.
pub struct FrameTemplate(Model);

impl FrameTemplate {
    /// The frame source of `model`.
    pub fn generate(model: Model, _seed: u64) -> FrameTemplate {
        FrameTemplate(model)
    }

    /// [`Model::frame_segments`].
    pub fn frame_segments(&self, step: u64) -> Vec<Bytes> {
        self.0.frame_segments(step)
    }
}

/// `perf/`'s name for decoding a flat frame.
pub enum Frame {}

impl Frame {
    /// The header of a flat frame whose length is the one it declares.
    pub fn decode(raw: Bytes) -> Result<FrameHeader, FrameError> {
        let raw = std::slice::from_ref(&raw);
        let header = FrameHeader::decode(raw)?;
        header.model.check_frame(raw, header.step).map(|()| header)
    }
}
