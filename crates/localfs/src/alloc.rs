//! Extent allocation in the XFS style: the volume is split into
//! allocation groups (AGs), new allocations rotate across AGs so parallel
//! writers rarely contend on the same free-space structures, and a freed
//! extent coalesces with its neighbours inside its own group only.
//!
//! # Layout
//!
//! All groups share **one** free-extent map, keyed by start block. A
//! group is the key range `[g · ag_blocks, (g + 1) · ag_blocks)` (the
//! last group runs to the end of the volume), and because coalescing
//! never crosses a group boundary no free extent ever spans two ranges,
//! so "the free extents of group g" is exactly `free.range(bounds(g))`.
//! XFS keeps a B-tree per AG because AGs are locked independently; the
//! simulator has no such lock, and a map per group costs a B-tree leaf
//! per group per filesystem before the first write — 131,072 leaves and
//! 25 MB at 16,384 filesystems, built and freed on every run. One map
//! per filesystem holds the same 8–16 entries in two or three nodes.
//! The per-group implementation is kept under `#[cfg(test)]` as the
//! reference the single map is checked against, extent by extent.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::error::{FsError, FsResult};

/// A contiguous run of blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// First block of the run (volume-absolute).
    pub start: u64,
    /// Number of blocks.
    pub len: u64,
}

impl Extent {
    /// One past the last block.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }
}

/// The volume-wide extent allocator.
#[derive(Debug, Clone)]
pub struct ExtentAllocator {
    /// start -> len of every free extent of every group.
    free: BTreeMap<u64, u64>,
    free_blocks: u64,
    total_blocks: u64,
    ag_blocks: u64,
    ag_count: usize,
    next_ag: usize,
}

impl ExtentAllocator {
    /// Create an allocator over `total_blocks` split into `ag_count`
    /// allocation groups.
    pub fn new(total_blocks: u64, ag_count: usize) -> Self {
        assert!(ag_count >= 1 && total_blocks >= ag_count as u64);
        let mut a = ExtentAllocator {
            free: BTreeMap::new(),
            free_blocks: total_blocks,
            total_blocks,
            ag_blocks: total_blocks / ag_count as u64,
            ag_count,
            next_ag: 0,
        };
        for ag in 0..ag_count {
            let r = a.bounds(ag);
            a.free.insert(r.start, r.end - r.start);
        }
        a
    }

    /// Block range of group `ag`; the last group takes the remainder.
    fn bounds(&self, ag: usize) -> Range<u64> {
        let start = ag as u64 * self.ag_blocks;
        if ag == self.ag_count - 1 {
            start..self.total_blocks
        } else {
            start..start + self.ag_blocks
        }
    }

    /// Total free blocks across all groups.
    pub fn free_blocks(&self) -> u64 {
        self.free_blocks
    }

    /// First-fit allocation of up to `want` blocks inside group `ag`;
    /// returns the extent carved out, which may be shorter than `want`.
    fn alloc_in(&mut self, ag: usize, want: u64) -> Option<Extent> {
        let (&start, &len) = self.free.range(self.bounds(ag)).find(|(_, &len)| len > 0)?;
        let take = want.min(len);
        self.free.remove(&start);
        if take < len {
            self.free.insert(start + take, len - take);
        }
        self.free_blocks -= take;
        Some(Extent { start, len: take })
    }

    /// Allocate `blocks` blocks, possibly as multiple extents. New
    /// allocations start in the next AG round-robin (XFS-style rotoring),
    /// spilling into other groups when one runs dry.
    pub fn alloc(&mut self, blocks: u64) -> FsResult<Vec<Extent>> {
        if blocks == 0 {
            return Ok(Vec::new());
        }
        if self.free_blocks < blocks {
            return Err(FsError::NoSpace);
        }
        let mut out = Vec::new();
        let mut remaining = blocks;
        let mut ag = self.next_ag;
        self.next_ag = (self.next_ag + 1) % self.ag_count;
        while remaining > 0 {
            if let Some(ext) = self.alloc_in(ag, remaining) {
                remaining -= ext.len;
                out.push(ext);
            } else {
                // Guaranteed to terminate: total free ≥ requested.
                ag = (ag + 1) % self.ag_count;
            }
        }
        Ok(out)
    }

    /// Free the given extents, coalescing each with its neighbours in
    /// the same group.
    pub fn free(&mut self, extents: &[Extent]) {
        for &ext in extents {
            let ag = ((ext.start / self.ag_blocks) as usize).min(self.ag_count - 1);
            let group = self.bounds(ag);
            let mut start = ext.start;
            let mut len = ext.len;
            if let Some((&pstart, &plen)) = self.free.range(group.start..start).next_back() {
                if pstart + plen == start {
                    self.free.remove(&pstart);
                    start = pstart;
                    len += plen;
                }
            }
            if let Some((&nstart, &nlen)) = self.free.range(start + len..group.end).next() {
                if start + len == nstart {
                    self.free.remove(&nstart);
                    len += nlen;
                }
            }
            self.free.insert(start, len);
            self.free_blocks += ext.len;
        }
    }

    /// Number of allocation groups.
    pub fn ag_count(&self) -> usize {
        self.ag_count
    }

    /// Number of free extents (fragmentation indicator).
    pub fn fragments(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_free_round_trip() {
        let mut a = ExtentAllocator::new(1000, 4);
        assert_eq!(a.free_blocks(), 1000);
        let e = a.alloc(100).unwrap();
        assert_eq!(e.iter().map(|x| x.len).sum::<u64>(), 100);
        assert_eq!(a.free_blocks(), 900);
        a.free(&e);
        assert_eq!(a.free_blocks(), 1000);
    }

    #[test]
    fn allocations_rotate_groups() {
        let mut a = ExtentAllocator::new(1000, 4);
        let e1 = a.alloc(10).unwrap();
        let e2 = a.alloc(10).unwrap();
        // Different AGs -> different regions.
        assert_ne!(e1[0].start / 250, e2[0].start / 250);
    }

    #[test]
    fn exhaustion_returns_nospace() {
        let mut a = ExtentAllocator::new(100, 2);
        assert!(a.alloc(101).is_err());
        let _ = a.alloc(100).unwrap();
        assert_eq!(a.free_blocks(), 0);
        assert_eq!(a.alloc(1), Err(FsError::NoSpace));
    }

    #[test]
    fn spill_across_groups() {
        let mut a = ExtentAllocator::new(100, 4); // 25 blocks per AG
        let e = a.alloc(60).unwrap();
        assert!(e.len() >= 3, "spans at least 3 AGs: {e:?}");
        assert_eq!(e.iter().map(|x| x.len).sum::<u64>(), 60);
    }

    #[test]
    fn coalescing_merges_neighbours() {
        let mut a = ExtentAllocator::new(100, 1);
        let e1 = a.alloc(30).unwrap();
        let e2 = a.alloc(30).unwrap();
        let e3 = a.alloc(30).unwrap();
        a.free(&e1);
        a.free(&e3);
        // Free list: [0..30) and [60..100) (e3 coalesced with the tail).
        assert_eq!(a.fragments(), 2);
        a.free(&e2);
        // Everything merges back into one extent.
        assert_eq!(a.fragments(), 1);
        assert_eq!(a.free_blocks(), 100);
    }

    /// The per-group implementation this module used before the single
    /// map: one free-extent B-tree per allocation group. Kept verbatim
    /// as the reference for [`differential`].
    mod reference {
        use super::super::{Extent, FsError, FsResult};
        use std::collections::BTreeMap;

        pub struct AllocGroup {
            /// start -> len of each free extent.
            pub free: BTreeMap<u64, u64>,
            free_blocks: u64,
        }

        impl AllocGroup {
            fn new(start: u64, len: u64) -> Self {
                let mut free = BTreeMap::new();
                free.insert(start, len);
                AllocGroup {
                    free,
                    free_blocks: len,
                }
            }

            fn alloc(&mut self, want: u64) -> Option<Extent> {
                let (&start, &len) = self.free.iter().find(|(_, &len)| len > 0)?;
                let take = want.min(len);
                self.free.remove(&start);
                if take < len {
                    self.free.insert(start + take, len - take);
                }
                self.free_blocks -= take;
                Some(Extent { start, len: take })
            }

            fn free_extent(&mut self, ext: Extent) {
                let mut start = ext.start;
                let mut len = ext.len;
                if let Some((&pstart, &plen)) = self.free.range(..start).next_back() {
                    if pstart + plen == start {
                        self.free.remove(&pstart);
                        start = pstart;
                        len += plen;
                    }
                }
                if let Some((&nstart, &nlen)) = self.free.range(start + len..).next() {
                    if start + len == nstart {
                        self.free.remove(&nstart);
                        len += nlen;
                    }
                }
                self.free.insert(start, len);
                self.free_blocks += ext.len;
            }
        }

        pub struct PerGroupAllocator {
            pub groups: Vec<AllocGroup>,
            ag_blocks: u64,
            next_ag: usize,
        }

        impl PerGroupAllocator {
            pub fn new(total_blocks: u64, ag_count: usize) -> Self {
                assert!(ag_count >= 1 && total_blocks >= ag_count as u64);
                let ag_blocks = total_blocks / ag_count as u64;
                let groups = (0..ag_count)
                    .map(|i| {
                        let start = i as u64 * ag_blocks;
                        let len = if i == ag_count - 1 {
                            total_blocks - start
                        } else {
                            ag_blocks
                        };
                        AllocGroup::new(start, len)
                    })
                    .collect();
                PerGroupAllocator {
                    groups,
                    ag_blocks,
                    next_ag: 0,
                }
            }

            pub fn free_blocks(&self) -> u64 {
                self.groups.iter().map(|g| g.free_blocks).sum()
            }

            pub fn alloc(&mut self, blocks: u64) -> FsResult<Vec<Extent>> {
                if blocks == 0 {
                    return Ok(Vec::new());
                }
                if self.free_blocks() < blocks {
                    return Err(FsError::NoSpace);
                }
                let mut out = Vec::new();
                let mut remaining = blocks;
                let start_ag = self.next_ag;
                self.next_ag = (self.next_ag + 1) % self.groups.len();
                let n = self.groups.len();
                let mut ag = start_ag;
                while remaining > 0 {
                    if let Some(ext) = self.groups[ag].alloc(remaining) {
                        remaining -= ext.len;
                        out.push(ext);
                    } else {
                        ag = (ag + 1) % n;
                    }
                }
                Ok(out)
            }

            pub fn free(&mut self, extents: &[Extent]) {
                for &ext in extents {
                    let ag = ((ext.start / self.ag_blocks) as usize).min(self.groups.len() - 1);
                    self.groups[ag].free_extent(ext);
                }
            }

            pub fn fragments(&self) -> usize {
                self.groups.iter().map(|g| g.free.len()).sum()
            }
        }
    }

    /// Single-map allocator against the per-group reference: the same
    /// trace must return the same extents and leave the same free space,
    /// extent for extent, after every step.
    mod differential {
        use super::reference::PerGroupAllocator;
        use super::*;
        use proptest::prelude::*;

        #[derive(Debug, Clone, Copy)]
        enum Op {
            Alloc(u64),
            /// Free the `n`-th held allocation (modulo how many are held).
            Free(usize),
            /// Free only the tail of one extent of the `n`-th held
            /// allocation, `keep` blocks in: a free that starts mid-extent.
            FreeTail(usize, u64),
        }

        fn run(total: u64, ags: usize, ops: &[Op]) -> Result<(), String> {
            let mut new = ExtentAllocator::new(total, ags);
            let mut old = PerGroupAllocator::new(total, ags);
            let mut held: Vec<Vec<Extent>> = Vec::new();
            for (step, &op) in ops.iter().enumerate() {
                match op {
                    Op::Alloc(want) => {
                        let (a, b) = (new.alloc(want), old.alloc(want));
                        if a != b {
                            return Err(format!("step {step} {op:?}: {a:?} vs reference {b:?}"));
                        }
                        held.extend(a.ok().filter(|e| !e.is_empty()));
                    }
                    Op::Free(n) if !held.is_empty() => {
                        let exts = held.swap_remove(n % held.len());
                        new.free(&exts);
                        old.free(&exts);
                    }
                    Op::FreeTail(n, keep) if !held.is_empty() => {
                        let i = n % held.len();
                        let e = held[i].pop().expect("held allocations are non-empty");
                        let keep = keep % e.len;
                        let tail = Extent {
                            start: e.start + keep,
                            len: e.len - keep,
                        };
                        new.free(&[tail]);
                        old.free(&[tail]);
                        if keep > 0 {
                            held[i].push(Extent {
                                start: e.start,
                                len: keep,
                            });
                        } else if held[i].is_empty() {
                            held.swap_remove(i);
                        }
                    }
                    Op::Free(_) | Op::FreeTail(..) => {}
                }
                let old_map: Vec<(u64, u64)> = old
                    .groups
                    .iter()
                    .flat_map(|g| g.free.iter().map(|(&s, &l)| (s, l)))
                    .collect();
                let new_map: Vec<(u64, u64)> = new.free.iter().map(|(&s, &l)| (s, l)).collect();
                if (new.free_blocks(), new.fragments()) != (old.free_blocks(), old.fragments())
                    || new_map != old_map
                {
                    return Err(format!(
                        "step {step} {op:?}: free map {new_map:?} vs reference {old_map:?}"
                    ));
                }
            }
            Ok(())
        }

        fn op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (1u64..40).prop_map(Op::Alloc),
                (1u64..40).prop_map(Op::Alloc),
                (0usize..64).prop_map(Op::Free),
                (0usize..64, 0u64..40).prop_map(|(n, keep)| Op::FreeTail(n, keep)),
            ]
        }

        proptest! {
            // Volumes of a few dozen blocks, so most traces run a group
            // dry, spill, exhaust the volume and free across boundaries.
            #[test]
            fn single_map_matches_per_group_reference(
                total in 9u64..200,
                ags in 1usize..9,
                ops in proptest::collection::vec(op(), 1..120),
            ) {
                if let Err(e) = run(total, ags, &ops) {
                    return Err(TestCaseError::fail(format!("total {total}, {ags} AGs: {e}")));
                }
            }
        }

        #[test]
        fn exhaustion_and_refill() {
            use Op::*;
            let ops = [
                Alloc(21),
                Alloc(20),
                Alloc(1),
                Free(0),
                Alloc(21),
                Alloc(20),
            ];
            run(20, 4, &ops).unwrap();
        }

        #[test]
        fn spill_wraps_past_the_last_group() {
            use Op::*;
            // The rotor starts the third allocation in group 2 of 4; 12
            // blocks run through group 3 and wrap into groups 0 and 1.
            run(20, 4, &[Alloc(2), Alloc(2), Alloc(12), Free(2), Alloc(16)]).unwrap();
        }

        #[test]
        fn last_group_owns_the_remainder_blocks() {
            use Op::*;
            // 23 blocks in 4 groups of 5: the last group holds 8, and an
            // extent starting at block 20 or later (20 / 5 = "group 4")
            // still belongs to it.
            let ops = [
                Alloc(5),
                Alloc(5),
                Alloc(5),
                Alloc(8),
                FreeTail(3, 6),
                Free(3),
                Alloc(8),
            ];
            run(23, 4, &ops).unwrap();
        }

        #[test]
        fn neighbours_across_a_group_boundary_stay_apart() {
            use Op::*;
            // Blocks 4 and 5 are adjacent but sit in groups 0 and 1 of a
            // 2 x 5 volume; freeing both must leave two free extents.
            let ops = [Alloc(5), Alloc(5), FreeTail(0, 4), FreeTail(1, 0), Alloc(2)];
            run(10, 2, &ops).unwrap();
            let mut a = ExtentAllocator::new(10, 2);
            let (lo, hi) = (a.alloc(5).unwrap(), a.alloc(5).unwrap());
            a.free(&[Extent { start: 4, len: 1 }, hi[0]]);
            assert_eq!(a.fragments(), 2, "{:?}", a.free);
            a.free(&[Extent {
                start: lo[0].start,
                len: 4,
            }]);
            assert_eq!((a.fragments(), a.free_blocks()), (2, 10));
        }
    }

    #[cfg(test)]
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn alloc_free_conserves_blocks(ops in proptest::collection::vec(1u64..50, 1..40)) {
                let total = 2000u64;
                let mut a = ExtentAllocator::new(total, 4);
                let mut held: Vec<Vec<Extent>> = Vec::new();
                for (i, want) in ops.iter().enumerate() {
                    if i % 3 == 2 && !held.is_empty() {
                        let e = held.swap_remove(0);
                        a.free(&e);
                    } else if let Ok(e) = a.alloc(*want) {
                        prop_assert_eq!(e.iter().map(|x| x.len).sum::<u64>(), *want);
                        held.push(e);
                    }
                    let held_blocks: u64 = held.iter().flatten().map(|x| x.len).sum();
                    prop_assert_eq!(a.free_blocks() + held_blocks, total);
                }
                // No overlapping extents among held allocations.
                let mut all: Vec<Extent> = held.into_iter().flatten().collect();
                all.sort_by_key(|e| e.start);
                for w in all.windows(2) {
                    prop_assert!(w[0].end() <= w[1].start,
                        "overlap: {:?} then {:?}", w[0], w[1]);
                }
            }
        }
    }
}
