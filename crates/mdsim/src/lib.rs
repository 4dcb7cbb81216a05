//! # mdsim — molecular models, frames and the sleep-based MD emulator
//!
//! Everything the workflow needs on the *science* side of the paper:
//!
//! * [`Model`] — the four molecular models with Table I/II constants
//!   (atoms, frame bytes, steps/s, stride, frame period);
//! * `FrameHeader` and [`Model::frame_segments`] /
//!   [`Model::check_frame`] — the frame wire format (48-byte header +
//!   28 bytes/atom, reproducing Table I's frame sizes exactly): a fresh
//!   header per frame over one shared zero body, and the consumer's one
//!   check of header and length;
//! * [`StepClock`] — the paper's emulation mode (fixed ms/step sleeps)
//!   used inside the discrete-event workflow.

#![warn(missing_docs)]

mod emulator;
mod frame;
mod frozen;
mod models;

pub use emulator::StepClock;
pub use frame::FrameError;
#[doc(hidden)]
pub use frozen::{Frame, FrameTemplate};
pub use models::Model;
