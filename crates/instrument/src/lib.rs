//! # instrument — Caliper-like performance annotation
//!
//! The paper instruments its workflow with Caliper \[21\]: nested annotated
//! regions whose inclusive times are collected per call path. This crate
//! provides the same model for simulated processes:
//!
//! * a [`Recorder`] per process maintains a region stack;
//! * [`Recorder::region`] returns an RAII guard — the region spans until
//!   the guard drops, across any number of awaits;
//! * the result is a [`Profile`]: a call-path tree with per-node call
//!   counts, inclusive simulated time, and derived exclusive time,
//!   ready for Thicket-style ensemble aggregation.
//!
//! Metric annotations ([`Recorder::annotate`]) attach numeric values
//! (e.g. bytes moved, KVS polls) to the current path.
//!
//! # Profile layout
//!
//! A run ends with one [`Profile`] per process — 32,768 of them at 16k
//! pairs — so a profile is laid out for what a *finished* process costs,
//! not for convenient traversal. It is the recorder's own arena: one
//! `Vec` of [`ProfileNode`]s (name, parent index, count, inclusive time;
//! 40 bytes each, a child always after its parent) and one side list of
//! `(node, key, sum)` metrics. [`Recorder::finish`] moves the two vectors
//! out — no allocator call, about 300 bytes for a DYAD consumer — where
//! a tree of `BTreeMap<String, _>` children cost 44 calls and 2.7 KB per
//! pair. Lookups, [`Profile::merge`] and `thicket`'s aggregation find a
//! child by a linear scan for `(parent, name)`: real region trees are a
//! dozen nodes, so the scan beats a map probe and allocates nothing.
//!
//! Region and metric names are `&'static str`. Every call site passes a
//! literal or a constant of a backend's region table, so nothing is
//! copied or hashed when a region is entered, and two names compare by
//! address before they compare by content.
//!
//! **The thread rule:** a `Profile` is plain owned data plus `'static`
//! borrows, so it is `Send` and reads the same on any thread. Campaign
//! workers finish profiles on their own threads and hand the results to
//! the caller; per-thread state (an interned [`simcore::intern::Symbol`],
//! an `Rc`) must therefore never become part of one.
//!
//! # Guard layout
//!
//! A [`RegionGuard`] lives inside the future of the process that opened
//! it, across every await of the region — up to three nested in the
//! DYAD consume path — and a role future is as large as its largest
//! state, so a guard's bytes are paid once per nesting level by every
//! process of the ensemble whether or not it ever traces. The guard is
//! therefore three words: the recorder (one `Rc`: clock, tracer, track
//! name and tree all sit behind it), the start instant, and an
//! `Option<Box<SpanGuard>>` that is `None` unless a tracer is enabled.
//! The span's two label strings and its own tracer and clock handles —
//! 104 bytes that used to sit inline — are allocated only by traced
//! runs. `crates/core/tests/footprint.rs` pins the size.

#![warn(missing_docs)]

use std::cell::RefCell;
use std::rc::Rc;

use simcore::trace::{SpanGuard, Tracer};
use simcore::{Ctx, SimDuration, SimTime};

/// Parent index of a top-level region (and the node id of the synthetic
/// root, for annotations made outside any region).
const ROOT: u32 = u32::MAX;

/// Two names are the same region if they are the same `static` (the
/// common case: one call site, or one constant) or spell the same word.
fn same_name(a: &str, b: &str) -> bool {
    std::ptr::eq(a, b) || a == b
}

/// One region of a call-path profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileNode {
    /// Region name.
    pub name: &'static str,
    /// Index of the enclosing region in [`Profile::nodes`], or [`ROOT`].
    parent: u32,
    /// Times the region was entered and left.
    pub count: u64,
    /// Total simulated time spent inside the region (inclusive).
    pub inclusive: SimDuration,
}

impl ProfileNode {
    /// Index of the enclosing region in [`Profile::nodes`]; `None` for a
    /// top-level region.
    pub fn parent(&self) -> Option<usize> {
        (self.parent != ROOT).then_some(self.parent as usize)
    }
}

/// A numeric annotation summed at one path.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Metric {
    /// Index in [`Profile::nodes`], or [`ROOT`].
    node: u32,
    key: &'static str,
    sum: f64,
}

/// A per-process call-path profile: the flat arena its [`Recorder`]
/// filled (see "Profile layout" in the crate docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Creation order: a child always follows its parent.
    nodes: Vec<ProfileNode>,
    /// First-use order.
    metrics: Vec<Metric>,
}

impl Profile {
    /// Index of region `name` under `parent`.
    fn find(&self, parent: u32, name: &str) -> Option<u32> {
        let found = self
            .nodes
            .iter()
            .position(|n| n.parent == parent && same_name(n.name, name))?;
        Some(found as u32)
    }

    /// Index of region `name` under `parent`, created on first entry.
    fn child(&mut self, parent: u32, name: &'static str) -> u32 {
        self.find(parent, name).unwrap_or_else(|| {
            let idx = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i != ROOT)
                .expect("region tree fits in u32");
            self.nodes.push(ProfileNode {
                name,
                parent,
                count: 0,
                inclusive: SimDuration::ZERO,
            });
            idx
        })
    }

    /// Add `value` to metric `key` at `node`.
    fn add_metric(&mut self, node: u32, key: &'static str, value: f64) {
        let found = self
            .metrics
            .iter_mut()
            .find(|m| m.node == node && same_name(m.key, key));
        match found {
            Some(m) => m.sum += value,
            None => self.metrics.push(Metric {
                node,
                key,
                sum: value,
            }),
        }
    }

    /// Index of the node at `path` ([`ROOT`] for the empty path).
    fn index(&self, path: &[&str]) -> Option<u32> {
        path.iter()
            .try_fold(ROOT, |parent, name| self.find(parent, name))
    }

    /// Every region, a child always after its parent. Indices into this
    /// slice are what [`ProfileNode::parent`], [`Profile::exclusive_at`]
    /// and [`Profile::metrics`] speak.
    pub fn nodes(&self) -> &[ProfileNode] {
        &self.nodes
    }

    /// Every annotation as `(node, key, sum)`; `node` is `None` for one
    /// made outside any region.
    pub fn metrics(&self) -> impl Iterator<Item = (Option<usize>, &'static str, f64)> + '_ {
        self.metrics.iter().map(|m| {
            let node = (m.node != ROOT).then_some(m.node as usize);
            (node, m.key, m.sum)
        })
    }

    /// Heap bytes this profile holds: what a finished process keeps
    /// until its run is reduced.
    pub fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<ProfileNode>()
            + self.metrics.capacity() * std::mem::size_of::<Metric>()
    }

    /// Look up a node by path, e.g. `&["dyad_consume", "dyad_fetch"]`.
    pub fn node(&self, path: &[&str]) -> Option<&ProfileNode> {
        self.nodes.get(self.index(path)? as usize)
    }

    /// Inclusive time at a path (zero if absent).
    pub fn inclusive(&self, path: &[&str]) -> SimDuration {
        self.node(path).map(|n| n.inclusive).unwrap_or_default()
    }

    /// Inclusive time of node `node` minus that of its direct children.
    pub fn exclusive_at(&self, node: usize) -> SimDuration {
        let children = self
            .nodes
            .iter()
            .filter(|n| n.parent() == Some(node))
            .fold(SimDuration::ZERO, |sum, n| sum + n.inclusive);
        self.nodes[node].inclusive.saturating_sub(children)
    }

    /// Exclusive time at a path (zero if absent).
    pub fn exclusive(&self, path: &[&str]) -> SimDuration {
        match self.index(path) {
            Some(i) if i != ROOT => self.exclusive_at(i as usize),
            _ => SimDuration::ZERO,
        }
    }

    /// Annotation `key` summed at exactly `path` (the empty path names
    /// annotations made outside any region).
    pub fn metric(&self, path: &[&str], key: &str) -> Option<f64> {
        let node = self.index(path)?;
        self.metrics
            .iter()
            .find(|m| m.node == node && same_name(m.key, key))
            .map(|m| m.sum)
    }

    /// Sum a numeric annotation over the whole tree, wherever it was
    /// attached. Used to aggregate sparse counters (retries, fallbacks,
    /// typed failures) without knowing their region paths.
    pub fn sum_metric(&self, key: &str) -> f64 {
        self.metrics
            .iter()
            .filter(|m| same_name(m.key, key))
            .map(|m| m.sum)
            .sum()
    }

    /// This profile's node for `other`'s node `theirs`, created (with
    /// its ancestors) if this profile never entered that path. Walks up
    /// `other` instead of keeping an index map, so a merge allocates
    /// only for a path it has not seen.
    fn adopt(&mut self, other: &Profile, theirs: u32) -> u32 {
        if theirs == ROOT {
            return ROOT;
        }
        let node = &other.nodes[theirs as usize];
        let parent = self.adopt(other, node.parent);
        self.child(parent, node.name)
    }

    /// Merge another profile into this one (summing counts, times and
    /// annotations path by path).
    pub fn merge(&mut self, other: &Profile) {
        for (theirs, node) in (0u32..).zip(&other.nodes) {
            let ours = self.adopt(other, theirs) as usize;
            self.nodes[ours].count += node.count;
            self.nodes[ours].inclusive += node.inclusive;
        }
        for m in &other.metrics {
            let ours = self.adopt(other, m.node);
            self.add_metric(ours, m.key, m.sum);
        }
    }
}

/// Nodes a fresh recorder has room for: the largest production tree (a
/// DYAD consumer's seven regions) fits without growing.
const FIRST_NODES: usize = 8;
/// Open regions a fresh recorder has room for; production guards nest
/// three deep.
const FIRST_DEPTH: usize = 4;

/// What a recorder mutates: the profile it will hand out and the
/// indices of the currently open regions, outermost first.
struct RecState {
    profile: Profile,
    stack: Vec<u32>,
}

impl RecState {
    /// Innermost open region, or [`ROOT`].
    fn current(&self) -> u32 {
        self.stack.last().copied().unwrap_or(ROOT)
    }
}

/// Everything a recorder's clones share, behind one `Rc`.
struct RecShared {
    ctx: Ctx,
    tracer: Tracer,
    /// Timeline name; empty unless the tracer is enabled.
    track: String,
    state: RefCell<RecState>,
}

/// A per-process region recorder.
#[derive(Clone)]
pub struct Recorder {
    shared: Rc<RecShared>,
}

impl Recorder {
    /// Create a recorder bound to the simulation clock.
    pub fn new(ctx: &Ctx) -> Self {
        Recorder::traced(ctx, Tracer::disabled(), "")
    }

    /// Create a recorder that additionally mirrors every region into a
    /// [`Tracer`] as a span on timeline `track` — a Chrome/Perfetto
    /// trace of the run falls out for free. A disabled tracer records
    /// nothing and `track` is not kept.
    pub fn traced(ctx: &Ctx, tracer: Tracer, track: &str) -> Self {
        let track = if tracer.is_enabled() {
            track.to_string()
        } else {
            String::new()
        };
        Recorder {
            shared: Rc::new(RecShared {
                ctx: ctx.clone(),
                tracer,
                track,
                state: RefCell::new(RecState {
                    profile: Profile {
                        nodes: Vec::with_capacity(FIRST_NODES),
                        metrics: Vec::new(),
                    },
                    stack: Vec::with_capacity(FIRST_DEPTH),
                }),
            }),
        }
    }

    /// Enter a region; it closes when the returned guard drops. Regions
    /// must be closed in LIFO order (guards enforce this naturally when
    /// kept in scope).
    pub fn region(&self, name: &'static str) -> RegionGuard {
        let sh = &*self.shared;
        {
            let mut st = sh.state.borrow_mut();
            let parent = st.current();
            let node = st.profile.child(parent, name);
            st.stack.push(node);
        }
        let span = sh
            .tracer
            .is_enabled()
            .then(|| Box::new(sh.tracer.span(&sh.ctx, &sh.track, "region", name)));
        RegionGuard {
            rec: self.clone(),
            start: sh.ctx.now(),
            _span: span,
        }
    }

    /// Run `f` inside a region (synchronous convenience).
    pub fn scope<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _g = self.region(name);
        f()
    }

    /// Attach a numeric metric to the current path (summed across calls).
    pub fn annotate(&self, key: &'static str, value: f64) {
        let mut st = self.shared.state.borrow_mut();
        let node = st.current();
        st.profile.add_metric(node, key, value);
    }

    /// Close the innermost region. A region of a dead simulation — a
    /// parked task's guard dropped while a stalled run unwinds — closes
    /// as a no-op: that profile is never read.
    fn close_region(&self, start: SimTime) {
        let Some(now) = self.shared.ctx.try_now() else {
            return;
        };
        let mut st = self.shared.state.borrow_mut();
        let node = st.stack.pop().expect("region closed with empty stack");
        let node = &mut st.profile.nodes[node as usize];
        node.count += 1;
        node.inclusive += now - start;
    }

    /// Finalize into a [`Profile`]: the recorder's arena, moved out.
    /// Panics if regions are still open.
    pub fn finish(self) -> Profile {
        let mut st = self.shared.state.borrow_mut();
        assert!(
            st.stack.is_empty(),
            "finish() with open regions: {:?}",
            st.stack
                .iter()
                .map(|&n| st.profile.nodes[n as usize].name)
                .collect::<Vec<_>>()
        );
        std::mem::take(&mut st.profile)
    }
}

/// RAII guard returned by [`Recorder::region`]. See "Guard layout" in
/// the crate docs for why it is three words.
pub struct RegionGuard {
    rec: Recorder,
    start: SimTime,
    /// Mirror span, present only while tracing. Dropped after
    /// [`Drop::drop`] has closed the region, so the profile is updated
    /// before the span is recorded.
    _span: Option<Box<SpanGuard>>,
}

impl RegionGuard {
    /// Close the region explicitly (otherwise closes on drop).
    pub fn end(self) {}
}

impl Drop for RegionGuard {
    fn drop(&mut self) {
        self.rec.close_region(self.start);
    }
}

/// Frozen for `perf/` (DESIGN.md §12): the load of a run's one calendar, which is these two values by definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardLoad {
    /// Calendars the run used: 1.
    pub shards: u32,
    /// Busiest calendar's events over the mean per calendar: 1.0.
    pub imbalance: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::Sim;

    #[test]
    fn nested_regions_build_a_tree() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let rec = Recorder::new(&ctx);
        let rec2 = rec.clone();
        let ctx2 = ctx.clone();
        sim.spawn(async move {
            let outer = rec2.region("consume");
            ctx2.sleep(SimDuration::from_micros(10)).await;
            {
                let inner = rec2.region("fetch");
                ctx2.sleep(SimDuration::from_micros(5)).await;
                inner.end();
            }
            {
                let inner = rec2.region("store");
                ctx2.sleep(SimDuration::from_micros(3)).await;
                inner.end();
            }
            outer.end();
        });
        sim.run();
        let p = rec.finish();
        let consume = p.node(&["consume"]).unwrap();
        assert_eq!(consume.count, 1);
        assert_eq!(consume.inclusive, SimDuration::from_micros(18));
        assert_eq!(
            p.inclusive(&["consume", "fetch"]),
            SimDuration::from_micros(5)
        );
        assert_eq!(
            p.inclusive(&["consume", "store"]),
            SimDuration::from_micros(3)
        );
        assert_eq!(p.exclusive(&["consume"]), SimDuration::from_micros(10));
        assert_eq!(
            p.exclusive(&["consume", "fetch"]),
            SimDuration::from_micros(5)
        );
    }

    #[test]
    fn repeated_regions_accumulate() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let rec = Recorder::new(&ctx);
        let rec2 = rec.clone();
        let ctx2 = ctx.clone();
        sim.spawn(async move {
            for _ in 0..4 {
                let g = rec2.region("step");
                ctx2.sleep(SimDuration::from_micros(2)).await;
                g.end();
            }
        });
        sim.run();
        let p = rec.finish();
        let n = p.node(&["step"]).unwrap();
        assert_eq!(n.count, 4);
        assert_eq!(n.inclusive, SimDuration::from_micros(8));
    }

    #[test]
    fn annotations_attach_to_current_path() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let rec = Recorder::new(&ctx);
        let rec2 = rec.clone();
        sim.spawn(async move {
            let g = rec2.region("fetch");
            rec2.annotate("polls", 3.0);
            rec2.annotate("polls", 2.0);
            g.end();
        });
        sim.run();
        let p = rec.finish();
        assert_eq!(p.metric(&["fetch"], "polls"), Some(5.0));
        assert_eq!(p.metric(&["fetch"], "bytes"), None);
        assert_eq!(p.metric(&[], "polls"), None);
        assert_eq!(p.sum_metric("polls"), 5.0);
    }

    #[test]
    fn guard_drop_closes_region() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let rec = Recorder::new(&ctx);
        let rec2 = rec.clone();
        let ctx2 = ctx.clone();
        sim.spawn(async move {
            let _g = rec2.region("auto");
            ctx2.sleep(SimDuration::from_micros(1)).await;
            // dropped here
        });
        sim.run();
        assert_eq!(rec.finish().node(&["auto"]).unwrap().count, 1);
    }

    #[test]
    fn merge_sums_profiles() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let rec1 = Recorder::new(&ctx);
        let rec2 = Recorder::new(&ctx);
        for rec in [&rec1, &rec2] {
            let rec = rec.clone();
            let ctx = ctx.clone();
            sim.spawn(async move {
                let g = rec.region("w");
                ctx.sleep(SimDuration::from_micros(7)).await;
                g.end();
            });
        }
        sim.run();
        let mut p = rec1.finish();
        p.merge(&rec2.finish());
        let n = p.node(&["w"]).unwrap();
        assert_eq!(n.count, 2);
        assert_eq!(n.inclusive, SimDuration::from_micros(14));
    }

    #[test]
    fn nodes_list_every_path_parent_first() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let rec = Recorder::new(&ctx);
        let rec2 = rec.clone();
        sim.spawn(async move {
            let a = rec2.region("a");
            let b = rec2.region("b");
            b.end();
            a.end();
            let c = rec2.region("c");
            c.end();
        });
        sim.run();
        let p = rec.finish();
        let paths: Vec<String> = (p.nodes().iter())
            .map(|n| match n.parent() {
                Some(parent) => format!("{}/{}", p.nodes()[parent].name, n.name),
                None => n.name.to_string(),
            })
            .collect();
        assert_eq!(paths, vec!["a", "a/b", "c"]);
    }

    #[test]
    fn merge_adopts_paths_the_target_never_entered() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let (left, right) = (Recorder::new(&ctx), Recorder::new(&ctx));
        left.scope("a", || left.annotate("n", 1.0));
        right.scope("b", || right.scope("a", || right.annotate("n", 2.0)));
        right.scope("a", || right.annotate("n", 4.0));
        right.annotate("n", 8.0);
        let mut p = left.finish();
        p.merge(&right.finish());
        assert_eq!(p.node(&["a"]).unwrap().count, 2);
        assert_eq!(p.node(&["b", "a"]).unwrap().count, 1);
        assert_eq!(p.metric(&["a"], "n"), Some(5.0));
        assert_eq!(p.metric(&["b", "a"], "n"), Some(2.0));
        assert_eq!(p.metric(&[], "n"), Some(8.0));
        assert_eq!(p.sum_metric("n"), 15.0);
    }

    /// An untraced recorder is its `Rc`, the node arena and the region
    /// stack, and finishing it hands the arena over as it is.
    #[test]
    fn untraced_recorder_keeps_no_track_and_finishes_in_place() {
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let rec = Recorder::traced(&ctx, Tracer::disabled(), "consumer-007");
        assert_eq!(rec.shared.track.capacity(), 0);
        for name in ["a", "b", "c", "d", "e", "f", "g"] {
            rec.scope(name, || ());
        }
        let arena = rec.shared.state.borrow().profile.nodes.as_ptr();
        let p = rec.finish();
        assert_eq!(p.nodes().as_ptr(), arena);
        assert_eq!(p.nodes.capacity(), FIRST_NODES);
        let traced = Recorder::traced(&ctx, Tracer::enabled(), "consumer-007");
        assert_eq!(traced.shared.track, "consumer-007");
    }

    #[test]
    #[should_panic(expected = "open regions")]
    fn finish_with_open_region_panics() {
        let sim = Sim::new(0);
        let rec = Recorder::new(&sim.ctx());
        let g = rec.region("left-open");
        std::mem::forget(g);
        let _ = rec.finish();
    }
}
