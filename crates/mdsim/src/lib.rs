//! # mdsim — molecular models, frames and the sleep-based MD emulator
//!
//! Everything the workflow needs on the *science* side of the paper:
//!
//! * [`Model`] — the four molecular models with Table I/II constants
//!   (atoms, frame bytes, steps/s, stride, frame period);
//! * [`Frame`] / [`FrameHeader`] — the frame wire format (48-byte header
//!   + 28 bytes/atom, reproducing Table I's frame sizes exactly);
//! * [`FrameTemplate`] + [`StepClock`] — the paper's emulation mode
//!   (fixed ms/step sleeps, realistic frame payloads emitted zero-copy)
//!   used inside the discrete-event workflow.

#![warn(missing_docs)]

mod emulator;
mod frame;
mod models;

pub use emulator::{FrameTemplate, StepClock};
pub use frame::{Frame, FrameError, FrameHeader, MAGIC, VERSION};
pub use models::{Model, ATOM_BYTES, HEADER_BYTES};
