//! Per-process memory budget.
//!
//! A run holds one task box per role for its whole length, so the size
//! of a role's future is paid `pairs` times over (DESIGN.md §11: at 16k
//! pairs the two DYAD role futures are a quarter of peak RSS). A future
//! is as large as its deepest await chain, and it grows silently: a new
//! local held across an await, one more wrapper layer, a guard that
//! gained a field. PR 12 met that as a +19 % RSS regression at benchmark
//! time; here it is a failing test that names the role.
//!
//! The budgets are ceilings a little above the sizes measured when they
//! were set (rustc 1.95, x86-64), not exact pins, so a compiler that
//! lays a state machine out differently by a few words does not fail
//! the suite. Raise one only with the bytes-per-pair consequence in the
//! commit message.

use std::future::Future;
use std::mem::size_of;

use mdflow::workflow::*;

/// What `Ctx::spawn_on` adds to the future it boxes: the join handle's
/// `Rc` and a `Ctx` (pinned by `simcore`'s own
/// `task_box_is_the_process_plus_two_words`).
const TASK_BOX_OVERHEAD: usize = 16;

/// Size of the future a role function returns, from its signature alone
/// (no arguments are built): one helper per arity.
macro_rules! role_size {
    ($name:ident: $($arg:ident),+) => {
        fn $name<$($arg,)+ Fut: Future>(_: impl FnOnce($($arg),+) -> Fut) -> usize {
            size_of::<Fut>()
        }
    };
}
role_size!(size2: A, B);
role_size!(size3: A, B, C);
role_size!(size4: A, B, C, D);
role_size!(size5: A, B, C, D, E);
role_size!(size6: A, B, C, D, E, F);

#[test]
fn role_task_boxes_stay_within_budget() {
    let roles = [
        // (role, future, budget) — measured 2176, 2136, 2664, 2184, 2216,
        // 1680, 1664, 2568, 2176. The two DYAD roles were 5112 and 5272
        // before the task box held the process once; the four roles that
        // write through `pfs` were 2072, 1936, 2952 and 2560 while an
        // owned MDS request and a cloned layout lay across their awaits.
        ("producer_dyad", size3(producer_dyad), 2240),
        ("consumer_dyad", size2(consumer_dyad), 2240),
        ("publisher_stream", size5(publisher_stream), 2688),
        ("subscriber_stream", size4(subscriber_stream), 2240),
        ("reducer_stream", size3(reducer_stream), 2240),
        ("producer_manual", size6(producer_manual), 1728),
        ("consumer_manual", size6(consumer_manual), 1712),
        ("producer_dyad_on_pfs", size5(producer_dyad_on_pfs), 2624),
        ("consumer_dyad_on_pfs", size4(consumer_dyad_on_pfs), 2240),
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
