//! Interner probes per frame, a work counter.
//!
//! Every `simcore::intern::intern` call hashes its whole string and
//! probes the thread's table. A layer that interns a frame path it
//! already holds a symbol for costs every frame of every run one more
//! probe, and no allocation count shows it: the string is already in the
//! table. The count is exact and deterministic, so it is pinned to the
//! call, and a later re-intern reads as a diff of this number.
//!
//! As in `alloc_budget.rs`, the count is a difference between two run
//! lengths, so set-up cancels.

use mdflow::prelude::*;
use simcore::intern::probes;

const PAIRS: u32 = 2;
const SEED: u64 = 2024;

/// `intern` calls of one DYAD run of `frames` frames per pair.
fn run_probes(frames: u64) -> u64 {
    let placement = Placement::Split { pairs_per_node: 8 };
    let wf = WorkflowConfig::new(Solution::Dyad, PAIRS, placement).with_frames(frames);
    let before = probes();
    let m = run_once(&wf, &Calibration::quiet(), SEED);
    assert_eq!(m.consumers.len(), PAIRS as usize);
    probes() - before
}

#[test]
fn a_dyad_frame_interns_a_pinned_number_of_times() {
    let per_frame = (run_probes(48) - run_probes(16)) as f64 / f64::from(PAIRS * 32);
    println!("intern calls per DYAD frame: {per_frame:.2}");
    assert_eq!(per_frame, 22.0, "intern calls per DYAD frame");
}
