//! # thicket — ensemble aggregation and call-path querying
//!
//! The paper analyzes its Caliper data with Thicket \[22\] and the Hatchet
//! call-path query language \[23\]: profiles from 10 repetitions are
//! aggregated per call-tree node, and queries isolate regions such as
//! `dyad_fetch` to attribute time to data movement vs synchronization.
//! This crate reimplements that layer over [`instrument::Profile`]s:
//!
//! * [`Ensemble`] — N profiles (one per run/process) aggregated into
//!   per-path statistics (mean/std/min/max of inclusive and exclusive
//!   time, mean call count, summed metrics);
//! * [`Query`] — a call-path pattern language: exact names, `*` (one
//!   level), `**` (any depth);
//! * a text call-tree renderer used to regenerate Figures 9 and 10.

#![warn(missing_docs)]

use std::collections::BTreeMap;

use instrument::Profile;
use serde::Serialize;

/// Aggregated statistics for one call path across an ensemble.
#[derive(Debug, Clone, Default, Serialize)]
pub struct PathStats {
    /// Number of profiles in which the path appears.
    pub appearances: u64,
    /// Mean call count per appearance.
    pub mean_count: f64,
    /// Mean inclusive time, seconds.
    pub mean_inclusive: f64,
    /// Standard deviation of inclusive time, seconds.
    pub std_inclusive: f64,
    /// Minimum inclusive time, seconds.
    pub min_inclusive: f64,
    /// Maximum inclusive time, seconds.
    pub max_inclusive: f64,
    /// Mean exclusive time, seconds.
    pub mean_exclusive: f64,
    /// Mean of each numeric metric.
    pub metrics: BTreeMap<String, f64>,
}

/// An ensemble of profiles (runs and/or processes).
#[derive(Debug, Clone, Default)]
pub struct Ensemble {
    profiles: Vec<Profile>,
}

impl Ensemble {
    /// Empty ensemble.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a vector of profiles.
    pub fn from_profiles(profiles: Vec<Profile>) -> Self {
        Ensemble { profiles }
    }

    /// Add one profile.
    pub fn push(&mut self, p: Profile) {
        self.profiles.push(p);
    }

    /// Aggregate into per-path statistics.
    ///
    /// Profiles are flat arenas (`instrument`'s "Profile layout"), and so
    /// is the union tree built here: each profile's nodes are matched
    /// into it by `(parent, name)` through one index map reused across
    /// profiles, so a profile costs no allocation and no path is cloned.
    /// Sums accumulate in profile order; the variance is the two-pass
    /// form, which walks the profiles a second time instead of keeping
    /// every sample.
    pub fn aggregate(&self) -> AggProfile {
        /// One call path of the union tree and what accumulates there.
        struct Acc {
            name: &'static str,
            parent: Option<usize>,
            appearances: u64,
            count: f64,
            inclusive: f64,
            exclusive: f64,
            min: f64,
            max: f64,
            sq_dev: f64,
            /// `(key, sum, profiles carrying it)`.
            metrics: Vec<(&'static str, f64, u64)>,
        }
        fn locate(accs: &[Acc], parent: Option<usize>, name: &str) -> Option<usize> {
            accs.iter()
                .position(|a| a.parent == parent && a.name == name)
        }
        let mut accs: Vec<Acc> = Vec::new();
        // Profile node index → `accs` index, refilled per profile; a
        // child follows its parent, so the parent's entry is there.
        let mut map: Vec<usize> = Vec::new();
        for p in &self.profiles {
            map.clear();
            for (i, node) in p.nodes().iter().enumerate() {
                let parent = node.parent().map(|j| map[j]);
                let at = locate(&accs, parent, node.name).unwrap_or_else(|| {
                    accs.push(Acc {
                        name: node.name,
                        parent,
                        appearances: 0,
                        count: 0.0,
                        inclusive: 0.0,
                        exclusive: 0.0,
                        min: f64::INFINITY,
                        max: f64::NEG_INFINITY,
                        sq_dev: 0.0,
                        metrics: Vec::new(),
                    });
                    accs.len() - 1
                });
                map.push(at);
                let (acc, inclusive) = (&mut accs[at], node.inclusive.as_secs_f64());
                acc.appearances += 1;
                acc.count += node.count as f64;
                acc.inclusive += inclusive;
                acc.exclusive += p.exclusive_at(i).as_secs_f64();
                acc.min = acc.min.min(inclusive);
                acc.max = acc.max.max(inclusive);
            }
            // Annotations made outside any region have no call path.
            for (node, key, sum) in p.metrics() {
                let Some(node) = node else { continue };
                let metrics = &mut accs[map[node]].metrics;
                match metrics.iter_mut().find(|(k, ..)| *k == key) {
                    Some((_, total, n)) => (*total, *n) = (*total + sum, *n + 1),
                    None => metrics.push((key, sum, 1)),
                }
            }
        }
        for p in &self.profiles {
            map.clear();
            for node in p.nodes() {
                let parent = node.parent().map(|j| map[j]);
                let at = locate(&accs, parent, node.name).expect("path seen in the first pass");
                map.push(at);
                let acc = &mut accs[at];
                let mean = acc.inclusive / acc.appearances as f64;
                acc.sq_dev += (node.inclusive.as_secs_f64() - mean).powi(2);
            }
        }
        let nodes = (accs.iter())
            .map(|acc| {
                let mut path = vec![acc.name.to_string()];
                let mut up = acc.parent;
                while let Some(i) = up {
                    path.push(accs[i].name.to_string());
                    up = accs[i].parent;
                }
                path.reverse();
                let n = acc.appearances as f64;
                let var = if acc.appearances < 2 {
                    0.0
                } else {
                    acc.sq_dev / (n - 1.0)
                };
                let stats = PathStats {
                    appearances: acc.appearances,
                    mean_count: acc.count / n,
                    mean_inclusive: acc.inclusive / n,
                    std_inclusive: var.sqrt(),
                    min_inclusive: acc.min,
                    max_inclusive: acc.max,
                    mean_exclusive: acc.exclusive / n,
                    metrics: (acc.metrics.iter())
                        .map(|&(k, sum, n)| (k.to_string(), sum / n as f64))
                        .collect(),
                };
                (path, stats)
            })
            .collect();
        AggProfile { nodes }
    }
}

/// The aggregated view: statistics per call path.
#[derive(Debug, Clone, Default, Serialize)]
pub struct AggProfile {
    /// Path → statistics, ordered by path.
    pub nodes: BTreeMap<Vec<String>, PathStats>,
}

impl AggProfile {
    /// Statistics for an exact path.
    pub fn get(&self, path: &[&str]) -> Option<&PathStats> {
        let key: Vec<String> = path.iter().map(|s| s.to_string()).collect();
        self.nodes.get(&key)
    }

    /// All paths matching `query`.
    pub fn query(&self, query: &Query) -> Vec<(&Vec<String>, &PathStats)> {
        self.nodes
            .iter()
            .filter(|(path, _)| query.matches(path))
            .collect()
    }

    /// Sum of mean inclusive time over every match of `query`.
    pub fn query_time(&self, query: &Query) -> f64 {
        self.query(query)
            .iter()
            .map(|(_, s)| s.mean_inclusive)
            .sum()
    }

    /// Render the call tree as indented text, one line per path:
    /// `name  count  mean±std  [exclusive]` — the Figure 9/10 view.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        for (path, st) in &self.nodes {
            let depth = path.len() - 1;
            let name = path.last().unwrap();
            out.push_str(&"  ".repeat(depth));
            out.push_str(&format!(
                "{name}: n={:.0} incl={:.6}s (±{:.6}) excl={:.6}s\n",
                st.mean_count, st.mean_inclusive, st.std_inclusive, st.mean_exclusive
            ));
        }
        out
    }

    /// Serialize to JSON (for EXPERIMENTS.md regeneration).
    pub fn to_json(&self) -> String {
        #[derive(Serialize)]
        struct Row<'a> {
            path: String,
            stats: &'a PathStats,
        }
        let rows: Vec<Row> = self
            .nodes
            .iter()
            .map(|(p, s)| Row {
                path: p.join("/"),
                stats: s,
            })
            .collect();
        serde_json::to_string_pretty(&rows).expect("serialization cannot fail")
    }
}

/// A side-by-side comparison row from [`AggProfile::compare`].
#[derive(Debug, Clone, Serialize)]
pub(crate) struct CompareRow {
    /// Call path (joined with `/`).
    pub path: String,
    /// Mean inclusive seconds in `self`.
    pub left: f64,
    /// Mean inclusive seconds in `other` (0 when absent).
    pub right: f64,
    /// `right / left` (∞ when `left` is 0 and `right` is not).
    pub ratio: f64,
}

impl AggProfile {
    /// Compare two aggregated profiles path by path — the Figure 9-vs-10
    /// view ("how does each region scale between runs?"). Rows follow
    /// `self`'s path order; paths only in `other` are appended.
    pub(crate) fn compare(&self, other: &AggProfile) -> Vec<CompareRow> {
        let mut rows: Vec<CompareRow> = self
            .nodes
            .iter()
            .map(|(path, st)| {
                let right = other
                    .nodes
                    .get(path)
                    .map(|o| o.mean_inclusive)
                    .unwrap_or(0.0);
                CompareRow {
                    path: path.join("/"),
                    left: st.mean_inclusive,
                    right,
                    ratio: if st.mean_inclusive > 0.0 {
                        right / st.mean_inclusive
                    } else if right > 0.0 {
                        f64::INFINITY
                    } else {
                        1.0
                    },
                }
            })
            .collect();
        for (path, st) in &other.nodes {
            if !self.nodes.contains_key(path) {
                rows.push(CompareRow {
                    path: path.join("/"),
                    left: 0.0,
                    right: st.mean_inclusive,
                    ratio: f64::INFINITY,
                });
            }
        }
        rows
    }

    /// Render a comparison as fixed-width text.
    pub fn compare_table(&self, other: &AggProfile) -> String {
        let mut out = format!(
            "{:<44} {:>12} {:>12} {:>8}
",
            "path", "left (s)", "right (s)", "ratio"
        );
        for row in self.compare(other) {
            out.push_str(&format!(
                "{:<44} {:>12.6} {:>12.6} {:>7.2}x
",
                row.path, row.left, row.right, row.ratio
            ));
        }
        out
    }
}

/// One component of a call-path pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Matcher {
    /// Exact region name.
    Name(String),
    /// Exactly one level, any name (`*`).
    AnyOne,
    /// Zero or more levels (`**`).
    AnyDepth,
}

/// A call-path query in the Hatchet style.
///
/// ```
/// use thicket::Query;
/// let q = Query::parse("dyad_consume/**/dyad_fetch");
/// assert!(q.matches(&["dyad_consume".into(), "dyad_fetch".into()]));
/// assert!(q.matches(&["dyad_consume".into(), "x".into(), "dyad_fetch".into()]));
/// assert!(!q.matches(&["dyad_fetch".into()]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    parts: Vec<Matcher>,
}

impl Query {
    /// Parse a `/`-separated pattern: names, `*`, `**`.
    pub fn parse(pattern: &str) -> Query {
        let parts = pattern
            .split('/')
            .filter(|p| !p.is_empty())
            .map(|p| match p {
                "*" => Matcher::AnyOne,
                "**" => Matcher::AnyDepth,
                name => Matcher::Name(name.to_string()),
            })
            .collect();
        Query { parts }
    }

    /// Does `path` match this query exactly (anchored both ends)?
    pub fn matches(&self, path: &[String]) -> bool {
        fn rec(parts: &[Matcher], path: &[String]) -> bool {
            match parts.split_first() {
                None => path.is_empty(),
                Some((Matcher::Name(n), rest)) => {
                    path.first().is_some_and(|p| p == n) && rec(rest, &path[1..])
                }
                Some((Matcher::AnyOne, rest)) => !path.is_empty() && rec(rest, &path[1..]),
                Some((Matcher::AnyDepth, rest)) => {
                    (0..=path.len()).any(|skip| rec(rest, &path[skip..]))
                }
            }
        }
        rec(&self.parts, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use instrument::Recorder;
    use simcore::{Sim, SimDuration};

    fn profile_with(regions: &[(&'static str, u64)]) -> Profile {
        // Build a flat profile where region `name` sleeps `us` micros.
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let rec = Recorder::new(&ctx);
        let rec2 = rec.clone();
        let regions = regions.to_vec();
        let ctx2 = ctx.clone();
        sim.spawn(async move {
            for (name, us) in regions {
                let g = rec2.region(name);
                ctx2.sleep(SimDuration::from_micros(us)).await;
                g.end();
            }
        });
        sim.run();
        rec.finish()
    }

    #[test]
    fn aggregate_means_and_std() {
        let e = Ensemble::from_profiles(vec![
            profile_with(&[("io", 10)]),
            profile_with(&[("io", 20)]),
            profile_with(&[("io", 30)]),
        ]);
        let agg = e.aggregate();
        let st = agg.get(&["io"]).unwrap();
        assert_eq!(st.appearances, 3);
        assert!((st.mean_inclusive - 20e-6).abs() < 1e-12);
        assert!((st.std_inclusive - 10e-6).abs() < 1e-10);
        assert!((st.min_inclusive - 10e-6).abs() < 1e-12);
        assert!((st.max_inclusive - 30e-6).abs() < 1e-12);
    }

    #[test]
    fn paths_absent_in_some_profiles_still_aggregate() {
        let e = Ensemble::from_profiles(vec![
            profile_with(&[("a", 10), ("b", 5)]),
            profile_with(&[("a", 30)]),
        ]);
        let agg = e.aggregate();
        assert_eq!(agg.get(&["a"]).unwrap().appearances, 2);
        assert_eq!(agg.get(&["b"]).unwrap().appearances, 1);
    }

    #[test]
    fn query_exact_and_wildcards() {
        let q = Query::parse("a/b/c");
        assert!(q.matches(&["a".into(), "b".into(), "c".into()]));
        assert!(!q.matches(&["a".into(), "b".into()]));

        let q = Query::parse("a/*/c");
        assert!(q.matches(&["a".into(), "x".into(), "c".into()]));
        assert!(!q.matches(&["a".into(), "c".into()]));

        let q = Query::parse("**/c");
        assert!(q.matches(&["c".into()]));
        assert!(q.matches(&["a".into(), "b".into(), "c".into()]));
        assert!(!q.matches(&["a".into(), "c".into(), "d".into()]));
    }

    #[test]
    fn query_any_depth_middle() {
        let q = Query::parse("root/**/leaf");
        assert!(q.matches(&["root".into(), "leaf".into()]));
        assert!(q.matches(&["root".into(), "m1".into(), "m2".into(), "leaf".into()]));
        assert!(!q.matches(&["other".into(), "leaf".into()]));
    }

    #[test]
    fn query_time_sums_matches() {
        let e = Ensemble::from_profiles(vec![profile_with(&[("x", 10), ("y", 20)])]);
        let agg = e.aggregate();
        let t = agg.query_time(&Query::parse("**"));
        assert!((t - 30e-6).abs() < 1e-12);
    }

    #[test]
    fn render_tree_is_indented() {
        // Build a nested profile.
        let sim = Sim::new(0);
        let ctx = sim.ctx();
        let rec = Recorder::new(&ctx);
        let rec2 = rec.clone();
        let ctx2 = ctx.clone();
        sim.spawn(async move {
            let outer = rec2.region("dyad_consume");
            let inner = rec2.region("dyad_fetch");
            ctx2.sleep(SimDuration::from_micros(5)).await;
            inner.end();
            outer.end();
        });
        sim.run();
        let agg = Ensemble::from_profiles(vec![rec.finish()]).aggregate();
        let tree = agg.render_tree();
        assert!(tree.contains("dyad_consume"));
        assert!(tree.contains("  dyad_fetch"));
    }

    #[test]
    fn compare_aligns_paths_and_computes_ratios() {
        let a = Ensemble::from_profiles(vec![profile_with(&[("io", 10), ("sync", 5)])]).aggregate();
        let b =
            Ensemble::from_profiles(vec![profile_with(&[("io", 30), ("extra", 1)])]).aggregate();
        let rows = a.compare(&b);
        let io = rows.iter().find(|r| r.path == "io").unwrap();
        assert!((io.ratio - 3.0).abs() < 1e-9);
        let sync = rows.iter().find(|r| r.path == "sync").unwrap();
        assert_eq!(sync.right, 0.0);
        let extra = rows.iter().find(|r| r.path == "extra").unwrap();
        assert!(extra.ratio.is_infinite());
        let table = a.compare_table(&b);
        assert!(table.contains("io"));
        assert!(table.contains("3.00x"));
    }

    #[test]
    fn json_round_trips_paths() {
        let e = Ensemble::from_profiles(vec![profile_with(&[("io", 10)])]);
        let json = e.aggregate().to_json();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v[0]["path"], "io");
    }

    #[cfg(test)]
    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_path() -> impl Strategy<Value = Vec<String>> {
            proptest::collection::vec("[a-c]{1,2}", 1..5)
        }

        proptest! {
            #[test]
            fn any_depth_is_superset_of_exact(path in arb_path()) {
                // "**" matches everything.
                prop_assert!(Query::parse("**").matches(&path));
                // The exact pattern always matches its own path.
                let exact = path.join("/");
                prop_assert!(Query::parse(&exact).matches(&path));
            }

            #[test]
            fn star_matches_iff_same_len(path in arb_path()) {
                let stars = vec!["*"; path.len()].join("/");
                prop_assert!(Query::parse(&stars).matches(&path));
                let fewer = vec!["*"; path.len() - 1].join("/");
                if !fewer.is_empty() {
                    prop_assert!(!Query::parse(&fewer).matches(&path));
                }
            }
        }
    }
}
