//! Per-process memory budget.
//!
//! A run holds one task block per role for the role's whole length, so
//! the size of a role's future is paid `pairs` times over (DESIGN.md §11:
//! at 16k pairs the two DYAD role blocks are 2,408 B a pair, 39 MB of
//! `dyad_scale`'s peak, down from 61 MB). A future
//! is as large as its deepest await chain, and it grows silently: a new
//! local held across an await, one more wrapper layer, a guard that
//! gained a field. PR 12 met that as a +19 % RSS regression at benchmark
//! time; here it is a failing test that names the role, and the
//! `future_sizes.rs` tests of `dyad`, `staging`, `kvs`, `transport` and
//! `pfs` name the layer under it.
//!
//! The budgets are ceilings a little above the sizes measured when they
//! were set (rustc 1.95, x86-64), not exact pins, so a compiler that
//! lays a state machine out differently by a few words does not fail
//! the suite. Raise one only with the bytes-per-pair consequence in the
//! commit message.

use std::future::Future;
use std::mem::size_of;
use std::rc::Rc;

use dyad::{DyadConsumer, DyadService};
use streaming::{StreamAcker, StreamPublisher, StreamSubscriber};

use mdflow::prelude::*;
use mdflow::workflow::*;

/// What `JoinSet::spawn` puts in a role's block beside its future:
/// the block's two reference counts, the set's `Rc` and the member's
/// index, the borrow flag and `Option` tag of the cell the future lies
/// in (pinned by `simcore`'s own
/// `task_block_is_the_process_plus_four_words`). It was 16 while the
/// join state was an allocation of its own, some 130 bytes that no
/// budget here counted; that allocation is gone and the budgets below
/// were not raised.
const TASK_BOX_OVERHEAD: usize = 48;

/// A streaming publisher's end: its session and the acks it waits on.
type StreamEnd = (StreamPublisher, Vec<StreamAcker>);

/// Size of the future a frame loop returns at one instantiation, from
/// its signature alone (no arguments are built).
fn role_size<A, B, C, Fut: Future>(_: impl FnOnce(A, B, C) -> Fut) -> usize {
    size_of::<Fut>()
}

#[test]
fn role_task_boxes_stay_within_budget() {
    let roles = [
        // (role, future, budget) — measured 1112, 1248, 1368, 1248, 1248,
        // 920, 1056, 1232, 1176 as four frame loops; 1088, 1224, 1400,
        // 1240, 1272, 920, 1136, 1216, 1136 as the nine role bodies they
        // replaced, and 1152, 1256, 1528, 1304, 1392, 984, 1184, 1280,
        // 1192 when the budgets were set. Before every async body on the role
        // chains kept each argument once (as a captured upvar, not also as
        // a local) and the run-constant role arguments moved behind one
        // shared `RunShared`, they were 1920, 1816, 2328, 1904, 1984, 1640,
        // 1688, 2224, 1936. The two DYAD roles were 5112 and 5272 before
        // the task box held the process once.
        (
            "producer_dyad",
            role_size(staged_producer::<Rc<DyadService>>),
            1200,
        ),
        (
            "consumer_dyad",
            role_size(staged_consumer::<DyadConsumer>),
            1304,
        ),
        (
            "publisher_stream",
            role_size(staged_producer::<StreamEnd>),
            1576,
        ),
        (
            "subscriber_stream",
            role_size(staged_consumer::<StreamSubscriber>),
            1352,
        ),
        (
            "reducer_stream",
            role_size(staged_consumer::<StreamSubscriber>),
            1440,
        ),
        (
            "producer_manual",
            role_size(file_producer::<ManualEnd>),
            1032,
        ),
        (
            "consumer_manual",
            role_size(file_consumer::<ManualEnd>),
            1232,
        ),
        (
            "producer_dyad_on_pfs",
            role_size(file_producer::<KvsEnd>),
            1328,
        ),
        (
            "consumer_dyad_on_pfs",
            role_size(file_consumer::<KvsEnd>),
            1240,
        ),
    ];
    let mut over = Vec::new();
    for (role, fut, budget) in roles {
        let boxed = fut + TASK_BOX_OVERHEAD;
        println!("{role}: task box {boxed} B (budget {budget} B)");
        if boxed > budget {
            over.push(format!("{role}: task box {boxed} B > budget {budget} B"));
        }
    }
    assert!(over.is_empty(), "role futures grew:\n{}", over.join("\n"));
}

/// Up to three region guards are alive across awaits in the DYAD
/// consume path, the produce path and `simulate_frame`; each is part of
/// the role future above. Three words: recorder, start, optional span.
#[test]
fn region_guard_is_three_words() {
    assert!(size_of::<instrument::RegionGuard>() <= 56);
    assert_eq!(size_of::<instrument::RegionGuard>(), 24);
}

/// A finished process keeps its profile until the run is reduced —
/// 32,768 of them at 16k pairs — and the profile is the recorder's
/// arena as it stood: seven 40-byte nodes in the eight a recorder
/// starts with, no metrics. (As a tree of `String`-keyed maps it was
/// about 2.7 KB.)
#[test]
fn finished_dyad_consumer_profile_stays_within_budget() {
    let wf = WorkflowConfig::new(Solution::Dyad, 2, Placement::Split { pairs_per_node: 8 })
        .with_frames(3);
    let m = run_once(&wf, &Calibration::quiet(), 7);
    for (side, profiles) in [("producer", &m.producers), ("consumer", &m.consumers)] {
        for p in profiles {
            let (regions, bytes) = (p.nodes().len(), p.heap_bytes());
            println!("{side}: {regions} regions, {bytes} B");
            assert!(bytes <= 512, "a finished {side} keeps {bytes} B of profile");
        }
    }
    assert_eq!(m.consumers[0].nodes().len(), 7);
}
