//! # mdsim — molecular models, frames, a mini-MD engine, and the
//! sleep-based MD emulator
//!
//! Everything the workflow needs on the *science* side of the paper:
//!
//! * [`Model`] — the four molecular models with Table I/II constants
//!   (atoms, frame bytes, steps/s, stride, frame period);
//! * [`Frame`] / [`FrameHeader`] — the frame wire format (48-byte header
//!   + 28 bytes/atom, reproducing Table I's frame sizes exactly);
//! * [`MdEngine`] + [`CaptureHook`] — a real Lennard-Jones MD engine
//!   with a Plumed-like stride capture hook,
//!   used by the examples and the analytics tests;
//! * [`FrameTemplate`] + [`StepClock`] — the paper's emulation mode
//!   (fixed ms/step sleeps, realistic frame payloads emitted zero-copy)
//!   used inside the discrete-event workflow.

#![warn(missing_docs)]

mod capture;
mod emulator;
mod engine;
mod frame;
mod models;
mod neighbor;

pub use capture::{CaptureHook, FrameSink};
pub use emulator::{FrameTemplate, StepClock};
pub use engine::{EngineConfig, MdEngine};
pub use frame::{Frame, FrameError, FrameHeader, MAGIC, VERSION};
pub use models::{Model, ATOM_BYTES, HEADER_BYTES};
pub use neighbor::VerletList;
