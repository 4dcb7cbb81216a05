//! # simcore — deterministic discrete-event simulation kernel
//!
//! The foundation of the DYAD-vs-traditional-I/O reproduction: a
//! deterministic discrete-event simulator whose processes are plain Rust
//! `async` functions. The executor is single-threaded and its event
//! calendar is one radix heap over the clock, ties in insertion order.
//!
//! * [`Sim`] owns the event calendar and executor; [`Ctx`] is the handle
//!   processes use to sleep, spawn, and draw random numbers.
//! * [`sync`] provides simulation-aware channels, semaphores and
//!   notifies (zero simulated cost; model real costs explicitly).
//! * [`resource`] provides contended resources: FIFO server pools and
//!   processor-sharing bandwidth links — the building blocks for NVMe
//!   devices, NICs, and file-system servers.
//!
//! Determinism: given the same seed and the same program, every run
//! produces the identical event trajectory. All randomness flows through
//! [`Ctx::rng`] streams derived from the simulation seed.
//!
//! ```
//! use simcore::{Sim, SimDuration};
//!
//! let sim = Sim::new(1);
//! let ctx = sim.ctx();
//! let handle = sim.spawn(async move {
//!     ctx.sleep(SimDuration::from_micros(3)).await;
//!     ctx.now().nanos()
//! });
//! sim.run();
//! assert_eq!(handle.try_take(), Some(3_000));
//! ```

#![warn(missing_docs)]

mod combinators;
mod executor;
pub mod intern;
pub mod resource;
pub mod sync;
mod time;
pub mod trace;
pub mod work;

pub use combinators::{race, timeout, Either, Race, TimedOut, Timeout};
pub use executor::{
    splitmix64, CalendarStats, Ctx, JoinHandle, JoinSet, RunReport, Sim, SimArena, SimConfig,
    Sleep, TimerHandle,
};
pub use time::{SimDuration, SimTime};
