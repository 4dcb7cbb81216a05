//! No snapshot carries a frame body of its own. A frame is a fresh
//! 48-byte header over a view of one process-wide zero body, made by the
//! first frame a process emits, so preparing a study costs its
//! topology and plans, not `atoms × 28` bytes per model: an STMV
//! snapshot once held a 29.9 MB frame template.

use mdflow::prelude::*;

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::live_bytes;

#[test]
fn stmv_snapshots_hold_no_frame_body() {
    // The first frame makes the one body.
    let _ = Model::Jac.frame_segments(0);
    for solution in [Solution::Dyad, Solution::Lustre] {
        let wf = WorkflowConfig::new(solution, 16, Placement::Split { pairs_per_node: 8 })
            .with_model(Model::Stmv);
        let before = live_bytes();
        let snap = ClusterSnapshot::new(&wf, &Calibration::corona());
        let held = live_bytes() - before;
        assert!(
            held < 1 << 20,
            "{solution:?}: an STMV snapshot holds {held} B"
        );
        drop(snap);
    }
}
