//! Task polls and wakes per frame, two work counters.
//!
//! Every poll is a dispatch of a task block through the executor, and
//! every wake a push onto a simulation's wake queue and a pass through
//! its ready queue. A layer that parks once more per frame, or wakes a task that
//! had nothing to do, adds to these counts and to no allocation count.
//! Both are exact and deterministic, so they are pinned, and a change to
//! either reads as a diff of these numbers.
//!
//! As in `intern_probes.rs`, each count is a difference between two run
//! lengths, so set-up cancels.

use mdflow::prelude::*;
use simcore::work::{polls, wakes};

const PAIRS: u32 = 2;
const SEED: u64 = 2024;

/// `(polls, wakes)` of one DYAD run of `frames` frames per pair.
fn run_counts(frames: u64) -> (u64, u64) {
    let placement = Placement::Split { pairs_per_node: 8 };
    let wf = WorkflowConfig::new(Solution::Dyad, PAIRS, placement).with_frames(frames);
    let (polls0, wakes0) = (polls(), wakes());
    let m = run_once(&wf, &Calibration::quiet(), SEED);
    assert_eq!(m.consumers.len(), PAIRS as usize);
    (polls() - polls0, wakes() - wakes0)
}

#[test]
fn a_dyad_frame_polls_and_wakes_a_pinned_number_of_times() {
    let (short, long) = (run_counts(16), run_counts(48));
    let frames = f64::from(PAIRS * 32);
    let per_frame = |a: u64, b: u64| (b - a) as f64 / frames;
    let (polls, wakes) = (per_frame(short.0, long.0), per_frame(short.1, long.1));
    println!("per DYAD frame: {polls:.4} task polls, {wakes:.4} queued wakes");
    assert_eq!(polls, 50.0, "task polls per DYAD frame");
    assert_eq!(wakes, 18.0, "queued wakes per DYAD frame");
}
