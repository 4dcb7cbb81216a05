//! The flat `Profile` against the tree it replaced.
//!
//! A profile used to be a tree of `BTreeMap<String, Node>` children with
//! a `BTreeMap<String, f64>` of metrics per node; it is now the
//! recorder's flat arena (crate docs, "Profile layout"). The tree lives
//! on here as the reference: a model fed the same random region /
//! annotate / sleep sequence as a real `Recorder`, never the recorder's
//! output, so the two can only agree by both being right. Checked
//! against it: `node`, `inclusive`, `exclusive`, `metric`, `sum_metric`,
//! `merge`, and `thicket`'s per-path statistics (computed from the trees
//! the way `thicket` did before the layout changed: every sample kept,
//! sums in profile order, two-pass variance).
//!
//! The second test is the thread rule: a profile finished on one thread
//! reads the same on another.

use std::collections::BTreeMap;

use instrument::{Profile, Recorder, RegionGuard};
use proptest::prelude::*;
use simcore::{Sim, SimDuration};
use thicket::Ensemble;

const NAMES: [&str; 4] = ["fetch", "store", "sync", "io"];
const KEYS: [&str; 3] = ["bytes", "polls", "retries"];
/// Deeper than the recorder's first stack capacity, so growth is driven.
const MAX_DEPTH: usize = 6;

/// One step of a process: `(kind, which, amount)`.
type Op = (u8, usize, u64);

/// The reference call-path tree (times in nanoseconds).
#[derive(Debug, Clone, Default)]
struct Tree {
    count: u64,
    inclusive: u64,
    metrics: BTreeMap<&'static str, f64>,
    children: BTreeMap<&'static str, Tree>,
}

impl Tree {
    fn at(&self, path: &[&'static str]) -> Option<&Tree> {
        path.iter().try_fold(self, |t, name| t.children.get(name))
    }

    fn at_mut(&mut self, path: &[&'static str]) -> &mut Tree {
        path.iter()
            .fold(self, |t, name| t.children.entry(name).or_default())
    }

    fn exclusive(&self) -> u64 {
        let children: u64 = self.children.values().map(|c| c.inclusive).sum();
        self.inclusive.saturating_sub(children)
    }

    fn merge(&mut self, other: &Tree) {
        self.count += other.count;
        self.inclusive += other.inclusive;
        for (k, v) in &other.metrics {
            *self.metrics.entry(k).or_insert(0.0) += v;
        }
        for (name, child) in &other.children {
            self.children.entry(name).or_default().merge(child);
        }
    }

    fn sum_metric(&self, key: &str) -> f64 {
        let here = self.metrics.get(key).copied().unwrap_or(0.0);
        here + (self.children.values())
            .map(|c| c.sum_metric(key))
            .sum::<f64>()
    }

    /// Every path below this node, depth first, with its node.
    fn paths(&self) -> Vec<(Vec<&'static str>, &Tree)> {
        fn walk<'a>(
            t: &'a Tree,
            path: &mut Vec<&'static str>,
            out: &mut Vec<(Vec<&'static str>, &'a Tree)>,
        ) {
            for (name, child) in &t.children {
                path.push(name);
                out.push((path.clone(), child));
                walk(child, path, out);
                path.pop();
            }
        }
        let mut out = Vec::new();
        walk(self, &mut Vec::new(), &mut out);
        out
    }
}

/// Run `ops` through a real recorder on a simulated clock and through
/// the tree model; every region left open at the end is closed.
fn record(ops: &[Op]) -> (Profile, Tree) {
    let sim = Sim::new(0);
    let ctx = sim.ctx();
    let rec = Recorder::new(&ctx);
    let task = sim.spawn({
        let (rec, ops) = (rec.clone(), ops.to_vec());
        async move {
            let mut tree = Tree::default();
            // The open regions: guard, name, entry instant.
            let mut open: Vec<(RegionGuard, &'static str, u64)> = Vec::new();
            let close = |tree: &mut Tree, open: &mut Vec<(RegionGuard, &'static str, u64)>| {
                let path: Vec<&'static str> = open.iter().map(|o| o.1).collect();
                let (guard, _, since) = open.pop().expect("an open region");
                guard.end();
                let node = tree.at_mut(&path);
                node.count += 1;
                node.inclusive += ctx.now().nanos() - since;
            };
            for &(kind, which, amount) in &ops {
                match kind {
                    0..=3 if open.len() < MAX_DEPTH => {
                        let name = NAMES[which % NAMES.len()];
                        open.push((rec.region(name), name, ctx.now().nanos()));
                    }
                    4..=6 if !open.is_empty() => close(&mut tree, &mut open),
                    7..=8 => {
                        let key = KEYS[which % KEYS.len()];
                        rec.annotate(key, amount as f64);
                        let path: Vec<&'static str> = open.iter().map(|o| o.1).collect();
                        *tree.at_mut(&path).metrics.entry(key).or_insert(0.0) += amount as f64;
                    }
                    _ => ctx.sleep(SimDuration::from_nanos(amount)).await,
                }
            }
            while !open.is_empty() {
                close(&mut tree, &mut open);
            }
            tree
        }
    });
    assert!(sim.run().is_clean());
    (rec.finish(), task.try_take().expect("the process finished"))
}

/// Every lookup of `profile` against `tree`.
fn check(profile: &Profile, tree: &Tree) -> Result<(), TestCaseError> {
    let paths = tree.paths();
    prop_assert_eq!(profile.nodes().len(), paths.len());
    for (path, node) in &paths {
        let flat = profile.node(path);
        prop_assert!(flat.is_some(), "{path:?} is missing");
        let flat = flat.unwrap();
        prop_assert_eq!(flat.name, *path.last().unwrap());
        prop_assert_eq!(flat.count, node.count);
        prop_assert_eq!(flat.inclusive.nanos(), node.inclusive);
        prop_assert_eq!(profile.inclusive(path).nanos(), node.inclusive);
        prop_assert_eq!(profile.exclusive(path).nanos(), node.exclusive());
        // A path the tree does not have, one level further down.
        for name in NAMES {
            let mut deeper = path.clone();
            deeper.push(name);
            prop_assert_eq!(profile.node(&deeper).is_some(), tree.at(&deeper).is_some());
        }
    }
    for key in KEYS {
        prop_assert_eq!(profile.sum_metric(key), tree.sum_metric(key));
        prop_assert_eq!(profile.metric(&[], key), tree.metrics.get(key).copied());
        for (path, node) in &paths {
            prop_assert_eq!(profile.metric(path, key), node.metrics.get(key).copied());
        }
    }
    prop_assert_eq!(profile.sum_metric("absent"), 0.0);
    prop_assert!(profile.node(&["absent"]).is_none());
    prop_assert_eq!(profile.inclusive(&["absent"]), SimDuration::ZERO);
    Ok(())
}

/// `thicket`'s statistics of `profiles` against the same statistics of
/// `trees`, computed from every kept sample.
fn check_aggregate(profiles: Vec<Profile>, trees: &[Tree]) -> Result<(), TestCaseError> {
    #[derive(Default)]
    struct Samples {
        counts: Vec<f64>,
        inclusive: Vec<f64>,
        exclusive: Vec<f64>,
        metrics: BTreeMap<&'static str, Vec<f64>>,
    }
    let secs = |nanos: u64| SimDuration::from_nanos(nanos).as_secs_f64();
    let mut expect: BTreeMap<Vec<String>, Samples> = BTreeMap::new();
    for tree in trees {
        for (path, node) in tree.paths() {
            let path = path.iter().map(|s| s.to_string()).collect();
            let s = expect.entry(path).or_default();
            s.counts.push(node.count as f64);
            s.inclusive.push(secs(node.inclusive));
            s.exclusive.push(secs(node.exclusive()));
            for (k, v) in &node.metrics {
                s.metrics.entry(k).or_default().push(*v);
            }
        }
    }
    let agg = Ensemble::from_profiles(profiles).aggregate();
    prop_assert_eq!(
        agg.nodes.keys().collect::<Vec<_>>(),
        expect.keys().collect::<Vec<_>>()
    );
    for (path, s) in &expect {
        let got = &agg.nodes[path];
        let n = s.inclusive.len() as f64;
        let mean = s.inclusive.iter().sum::<f64>() / n;
        let var = if s.inclusive.len() < 2 {
            0.0
        } else {
            s.inclusive.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0)
        };
        prop_assert_eq!(got.appearances, s.inclusive.len() as u64);
        prop_assert_eq!(got.mean_count, s.counts.iter().sum::<f64>() / n);
        prop_assert_eq!(got.mean_inclusive, mean);
        prop_assert_eq!(got.std_inclusive, var.sqrt());
        let min = s.inclusive.iter().copied().fold(f64::INFINITY, f64::min);
        let max = (s.inclusive.iter().copied()).fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!((got.min_inclusive, got.max_inclusive), (min, max));
        prop_assert_eq!(got.mean_exclusive, s.exclusive.iter().sum::<f64>() / n);
        let metrics: BTreeMap<String, f64> = (s.metrics.iter())
            .map(|(k, vs)| (k.to_string(), vs.iter().sum::<f64>() / vs.len() as f64))
            .collect();
        prop_assert_eq!(&got.metrics, &metrics);
    }
    Ok(())
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..10, 0usize..12, 0u64..5_000), 0..60)
}

proptest! {
    #[test]
    fn flat_profile_matches_the_tree_reference(first in arb_ops(), second in arb_ops()) {
        let (p1, t1) = record(&first);
        let (p2, t2) = record(&second);
        check(&p1, &t1)?;
        check(&p2, &t2)?;

        let (mut merged, mut merged_tree) = (p1.clone(), t1.clone());
        merged.merge(&p2);
        merged_tree.merge(&t2);
        check(&merged, &merged_tree)?;
        // Into an empty profile, as `reduce_run` starts; twice over.
        let (mut sum, mut sum_tree) = (Profile::default(), Tree::default());
        for (p, t) in [(&p2, &t2), (&merged, &merged_tree), (&p2, &t2)] {
            sum.merge(p);
            sum_tree.merge(t);
        }
        check(&sum, &sum_tree)?;

        check_aggregate(vec![p1, p2, merged, sum], &[t1, t2, merged_tree, sum_tree])?;
    }
}

/// What one process of [`a_profile_reads_the_same_on_another_thread`]
/// records.
fn consumer_profile() -> Profile {
    let sim = Sim::new(0);
    let ctx = sim.ctx();
    let rec = Recorder::new(&ctx);
    sim.spawn({
        let rec = rec.clone();
        async move {
            for _ in 0..3 {
                let consume = rec.region("dyad_consume");
                let fetch = rec.region("dyad_fetch");
                rec.annotate("kvs_polls", 2.0);
                ctx.sleep(SimDuration::from_micros(7)).await;
                fetch.end();
                consume.end();
                let _g = rec.region("analytics");
                ctx.sleep(SimDuration::from_millis(1)).await;
            }
        }
    });
    assert!(sim.run().is_clean());
    rec.finish()
}

/// Campaign workers finish profiles on their own threads and the caller
/// reduces them on its own: names and numbers must not depend on the
/// thread that reads them (an interned symbol would).
#[test]
fn a_profile_reads_the_same_on_another_thread() {
    let remote = std::thread::spawn(consumer_profile)
        .join()
        .expect("the worker finished");
    let local = consumer_profile();
    assert_eq!(remote, local);
    let names: Vec<&str> = remote.nodes().iter().map(|n| n.name).collect();
    assert_eq!(names, ["dyad_consume", "dyad_fetch", "analytics"]);
    let fetch = remote.node(&["dyad_consume", "dyad_fetch"]).unwrap();
    assert_eq!((fetch.count, fetch.inclusive.nanos()), (3, 21_000));
    assert_eq!(
        remote.metric(&["dyad_consume", "dyad_fetch"], "kvs_polls"),
        Some(6.0)
    );
    // Merged across the thread boundary, then read by `thicket`.
    let mut sum = local;
    sum.merge(&remote);
    assert_eq!(sum.node(&["analytics"]).unwrap().count, 6);
    assert_eq!(sum.sum_metric("kvs_polls"), 12.0);
    let agg = Ensemble::from_profiles(vec![remote, sum]).aggregate();
    assert_eq!(agg.get(&["analytics"]).unwrap().appearances, 2);
}
