//! # instrument — Caliper-like performance annotation
//!
//! The paper instruments its workflow with Caliper [21]: nested annotated
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
use std::collections::BTreeMap;
use std::rc::Rc;

use simcore::intern::{intern, Symbol};
use simcore::trace::{SpanGuard, Tracer};
use simcore::{Ctx, SimDuration, SimTime};

/// A node of the finalized call-path tree.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileNode {
    /// Times the region was entered.
    pub count: u64,
    /// Total simulated time spent inside the region (inclusive).
    pub inclusive: SimDuration,
    /// Numeric annotations attached at this path (summed).
    pub metrics: BTreeMap<String, f64>,
    /// Child regions by name.
    pub children: BTreeMap<String, ProfileNode>,
}

impl ProfileNode {
    /// Inclusive time minus the inclusive time of all children.
    pub fn exclusive(&self) -> SimDuration {
        let child_sum: SimDuration = self
            .children
            .values()
            .map(|c| c.inclusive)
            .fold(SimDuration::ZERO, |a, b| a + b);
        self.inclusive.saturating_sub(child_sum)
    }
}

/// A finalized per-process call-path profile.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Synthetic root; its children are the top-level regions.
    pub root: ProfileNode,
}

impl Profile {
    /// Look up a node by path, e.g. `&["dyad_consume", "dyad_fetch"]`.
    pub fn node(&self, path: &[&str]) -> Option<&ProfileNode> {
        let mut cur = &self.root;
        for comp in path {
            cur = cur.children.get(*comp)?;
        }
        Some(cur)
    }

    /// Inclusive time at a path (zero if absent).
    pub fn inclusive(&self, path: &[&str]) -> SimDuration {
        self.node(path).map(|n| n.inclusive).unwrap_or_default()
    }

    /// Flatten to `(path, node)` pairs in depth-first order.
    pub fn flatten(&self) -> Vec<(Vec<String>, &ProfileNode)> {
        let mut out = Vec::new();
        fn walk<'a>(
            node: &'a ProfileNode,
            path: &mut Vec<String>,
            out: &mut Vec<(Vec<String>, &'a ProfileNode)>,
        ) {
            for (name, child) in &node.children {
                path.push(name.clone());
                out.push((path.clone(), child));
                walk(child, path, out);
                path.pop();
            }
        }
        walk(&self.root, &mut Vec::new(), &mut out);
        out
    }

    /// Sum a numeric annotation over the whole tree, wherever it was
    /// attached. Used to aggregate sparse counters (retries, fallbacks,
    /// typed failures) without knowing their region paths.
    pub fn sum_metric(&self, key: &str) -> f64 {
        fn walk(node: &ProfileNode, key: &str) -> f64 {
            node.metrics.get(key).copied().unwrap_or(0.0)
                + node.children.values().map(|c| walk(c, key)).sum::<f64>()
        }
        walk(&self.root, key)
    }

    /// Merge another profile into this one (summing counts and times).
    pub fn merge(&mut self, other: &Profile) {
        fn merge_node(into: &mut ProfileNode, from: &ProfileNode) {
            into.count += from.count;
            into.inclusive += from.inclusive;
            for (k, v) in &from.metrics {
                *into.metrics.entry(k.clone()).or_insert(0.0) += v;
            }
            for (name, child) in &from.children {
                merge_node(into.children.entry(name.clone()).or_default(), child);
            }
        }
        merge_node(&mut self.root, &other.root);
    }
}

/// Parent index of a top-level region (and the node id of the synthetic
/// root, for annotations made outside any region).
const ROOT: u32 = u32::MAX;

/// One region of the recording tree. Names stay interned while recording
/// so the per-region hot path never allocates; [`Recorder::finish`]
/// resolves symbols back to strings when building the public
/// [`Profile`].
struct RecNode {
    name: Symbol,
    /// Index of the enclosing region in [`RecState::nodes`], or [`ROOT`].
    parent: u32,
    count: u64,
    inclusive: SimDuration,
}

/// The recording tree as one flat arena per recorder: a node names its
/// parent by index, a region is found by a linear scan for `(parent,
/// name)` and metrics sit in one side list. Real region trees are a
/// dozen nodes, so the scan beats a hash probe, and one `Vec` of 24-byte
/// nodes replaces a `Vec` of children in every interior node — at 100k+
/// pairs the recorder trees are a measurable share of peak RSS (see
/// DESIGN.md §11).
#[derive(Default)]
struct RecState {
    /// Creation order: a child always follows its parent.
    nodes: Vec<RecNode>,
    /// `(node, key, sum)` in first-use order.
    metrics: Vec<(u32, Symbol, f64)>,
    /// Indices of the currently open regions, outermost first.
    stack: Vec<u32>,
}

impl RecState {
    /// Node for region `name` under `parent`, created on first entry.
    fn child(&mut self, parent: u32, name: Symbol) -> u32 {
        let found = self
            .nodes
            .iter()
            .position(|n| n.parent == parent && n.name == name);
        let idx = found.unwrap_or_else(|| {
            self.nodes.push(RecNode {
                name,
                parent,
                count: 0,
                inclusive: SimDuration::ZERO,
            });
            self.nodes.len() - 1
        });
        u32::try_from(idx).expect("region tree fits in u32")
    }

    /// Innermost open region, or [`ROOT`].
    fn current(&self) -> u32 {
        self.stack.last().copied().unwrap_or(ROOT)
    }

    fn to_profile(&self, id: u32) -> ProfileNode {
        let (count, inclusive) = match self.nodes.get(id as usize) {
            Some(n) => (n.count, n.inclusive),
            None => (0, SimDuration::ZERO),
        };
        ProfileNode {
            count,
            inclusive,
            metrics: self
                .metrics
                .iter()
                .filter(|(node, ..)| *node == id)
                .map(|(_, k, v)| (k.resolve().to_string(), *v))
                .collect(),
            children: (0u32..)
                .zip(&self.nodes)
                .filter(|(_, n)| n.parent == id)
                .map(|(i, n)| (n.name.resolve().to_string(), self.to_profile(i)))
                .collect(),
        }
    }
}

/// Everything a recorder's clones share, behind one `Rc`.
struct RecShared {
    ctx: Ctx,
    tracer: Tracer,
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
        Recorder::traced(ctx, Tracer::disabled(), "process")
    }

    /// Create a recorder that additionally mirrors every region into a
    /// [`Tracer`] as a span on timeline `track` — a Chrome/Perfetto
    /// trace of the run falls out for free.
    pub fn traced(ctx: &Ctx, tracer: Tracer, track: &str) -> Self {
        Recorder {
            shared: Rc::new(RecShared {
                ctx: ctx.clone(),
                tracer,
                track: track.to_string(),
                state: RefCell::default(),
            }),
        }
    }

    /// Enter a region; it closes when the returned guard drops. Regions
    /// must be closed in LIFO order (guards enforce this naturally when
    /// kept in scope).
    pub fn region(&self, name: &str) -> RegionGuard {
        let sh = &*self.shared;
        {
            let mut st = sh.state.borrow_mut();
            let parent = st.current();
            let node = st.child(parent, intern(name));
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
    pub fn scope<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let _g = self.region(name);
        f()
    }

    /// Attach a numeric metric to the current path (summed across calls).
    pub fn annotate(&self, key: &str, value: f64) {
        let mut st = self.shared.state.borrow_mut();
        let (node, key) = (st.current(), intern(key));
        match st
            .metrics
            .iter_mut()
            .find(|(n, k, _)| *n == node && *k == key)
        {
            Some((.., sum)) => *sum += value,
            None => st.metrics.push((node, key, value)),
        }
    }

    fn close_region(&self, start: SimTime) {
        let now = self.shared.ctx.now();
        let mut st = self.shared.state.borrow_mut();
        let node = st.stack.pop().expect("region closed with empty stack");
        let node = &mut st.nodes[node as usize];
        node.count += 1;
        node.inclusive += now - start;
    }

    /// Finalize into a [`Profile`]. Panics if regions are still open.
    pub fn finish(self) -> Profile {
        let st = self.shared.state.borrow();
        assert!(
            st.stack.is_empty(),
            "finish() with open regions: {:?}",
            st.stack
                .iter()
                .map(|&n| st.nodes[n as usize].name.resolve())
                .collect::<Vec<_>>()
        );
        Profile {
            root: st.to_profile(ROOT),
        }
    }

    /// Snapshot without consuming. A region that is still open shows the
    /// visits completed so far (none, on its first).
    pub fn snapshot(&self) -> Profile {
        Profile {
            root: self.shared.state.borrow().to_profile(ROOT),
        }
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

/// Calendar-shard load summary distilled from [`simcore::ShardStats`]
/// (events fired per shard).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardLoad {
    /// Number of calendar shards the run was configured with.
    pub shards: u32,
    /// Events fired across all shards.
    pub fired_total: u64,
    /// Events fired by the busiest shard.
    pub fired_max: u64,
    /// `fired_max / (fired_total / shards)`: 1.0 is perfectly balanced,
    /// `shards` means one shard did everything. 0.0 when nothing fired.
    pub imbalance: f64,
}

impl ShardLoad {
    /// Summarize a run's per-shard counters.
    pub fn from_stats(stats: &[simcore::ShardStats]) -> ShardLoad {
        let shards = stats.len() as u32;
        let fired_total: u64 = stats.iter().map(|s| s.fired).sum();
        let fired_max = stats.iter().map(|s| s.fired).max().unwrap_or(0);
        let imbalance = if fired_total == 0 || shards == 0 {
            0.0
        } else {
            fired_max as f64 / (fired_total as f64 / shards as f64)
        };
        ShardLoad {
            shards,
            fired_total,
            fired_max,
            imbalance,
        }
    }
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
        assert_eq!(consume.exclusive(), SimDuration::from_micros(10));
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
        assert_eq!(p.node(&["fetch"]).unwrap().metrics["polls"], 5.0);
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
    fn flatten_lists_all_paths() {
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
        let paths: Vec<String> = p.flatten().iter().map(|(p, _)| p.join("/")).collect();
        assert_eq!(paths, vec!["a", "a/b", "c"]);
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
