//! # analytics — in situ analysis of MD frames
//!
//! The consumer side of the paper's workflows (Figure 1): frames are
//! deserialized and analyzed as they arrive, without a post-processing
//! pass. Implemented kernels:
//!
//! * **contact matrix** over a selection of atoms (pairwise distance
//!   threshold, minimum-image convention);
//! * **largest eigenvalue** of the contact matrix by power iteration —
//!   Figure 1's per-helix eigenvalue traces that flag conformational
//!   events;
//! * **radius of gyration**;
//! * **RMSD** against a reference frame (translation-removed);
//! * a [`Pipeline`] tying these together per frame.
//!
//! All kernels operate on real [`mdsim::Frame`] data.

#![warn(missing_docs)]

mod structure;

pub use structure::{Msd, Rdf};

use mdsim::Frame;

/// A dense symmetric contact matrix over `n` selected atoms.
#[derive(Debug, Clone, PartialEq)]
pub struct ContactMatrix {
    n: usize,
    data: Vec<f64>,
}

impl ContactMatrix {
    /// Build from `positions` (already selected), marking pairs closer
    /// than `threshold` (minimum-image over `box_lengths`). The diagonal
    /// is 1.
    pub fn build(positions: &[[f64; 3]], box_lengths: [f32; 3], threshold: f64) -> Self {
        let n = positions.len();
        let t2 = threshold * threshold;
        let bl = [
            box_lengths[0] as f64,
            box_lengths[1] as f64,
            box_lengths[2] as f64,
        ];
        let data: Vec<f64> = (0..n * n)
            .map(|idx| {
                let (i, j) = (idx / n, idx % n);
                if i == j {
                    return 1.0;
                }
                let mut r2 = 0.0;
                for k in 0..3 {
                    let mut d = positions[i][k] - positions[j][k];
                    if bl[k] > 0.0 {
                        d -= bl[k] * (d / bl[k]).round();
                    }
                    r2 += d * d;
                }
                if r2 < t2 {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        ContactMatrix { n, data }
    }

    /// Matrix dimension.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the empty matrix.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Entry (i, j).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Number of contacts (off-diagonal 1s, counted once per pair).
    pub fn contact_count(&self) -> usize {
        let mut c = 0;
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if self.get(i, j) > 0.5 {
                    c += 1;
                }
            }
        }
        c
    }

    /// Largest eigenvalue by power iteration (the matrix is symmetric
    /// non-negative, so the dominant eigenvalue is real and the
    /// iteration converges). Returns 0 for the empty matrix.
    pub fn largest_eigenvalue(&self, iterations: usize) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let n = self.n;
        let mut v = vec![1.0f64 / (n as f64).sqrt(); n];
        let mut lambda = 0.0;
        for _ in 0..iterations {
            let w: Vec<f64> = (0..n)
                .map(|i| {
                    let row = &self.data[i * n..(i + 1) * n];
                    row.iter().zip(&v).map(|(a, b)| a * b).sum::<f64>()
                })
                .collect();
            let norm = w.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm < 1e-300 {
                return 0.0;
            }
            lambda = norm;
            v = w.into_iter().map(|x| x / norm).collect();
        }
        lambda
    }
}

/// Radius of gyration of a set of positions (no periodic wrapping; use a
/// compact selection).
pub fn radius_of_gyration(positions: &[[f64; 3]]) -> f64 {
    if positions.is_empty() {
        return 0.0;
    }
    let n = positions.len() as f64;
    let mut com = [0.0f64; 3];
    for p in positions {
        for k in 0..3 {
            com[k] += p[k];
        }
    }
    for c in &mut com {
        *c /= n;
    }
    let sum: f64 = positions
        .iter()
        .map(|p| {
            let mut r2 = 0.0;
            for k in 0..3 {
                let d = p[k] - com[k];
                r2 += d * d;
            }
            r2
        })
        .sum();
    (sum / n).sqrt()
}

/// Root-mean-square deviation between two equal-length position sets
/// after removing the translation between their centroids.
pub fn rmsd(a: &[[f64; 3]], b: &[[f64; 3]]) -> f64 {
    assert_eq!(a.len(), b.len(), "rmsd requires equal selections");
    if a.is_empty() {
        return 0.0;
    }
    let n = a.len() as f64;
    let mut ca = [0.0f64; 3];
    let mut cb = [0.0f64; 3];
    for (pa, pb) in a.iter().zip(b) {
        for k in 0..3 {
            ca[k] += pa[k];
            cb[k] += pb[k];
        }
    }
    for k in 0..3 {
        ca[k] /= n;
        cb[k] /= n;
    }
    let sum: f64 = a
        .iter()
        .zip(b.iter())
        .map(|(pa, pb)| {
            let mut r2 = 0.0;
            for k in 0..3 {
                let d = (pa[k] - ca[k]) - (pb[k] - cb[k]);
                r2 += d * d;
            }
            r2
        })
        .sum();
    (sum / n).sqrt()
}

/// Result of analyzing one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameAnalysis {
    /// MD step of the analyzed frame.
    pub step: u64,
    /// Largest eigenvalue of the selection's contact matrix.
    pub largest_eigenvalue: f64,
    /// Number of contacts in the selection.
    pub contacts: usize,
    /// Radius of gyration of the selection.
    pub radius_of_gyration: f64,
    /// RMSD vs the first frame seen (0 for the first frame).
    pub rmsd_to_first: f64,
}

/// A per-consumer analysis pipeline: selects the first `selection` atoms
/// of each frame (a "helix" stand-in), tracks the largest eigenvalue of
/// their contact matrix over time — the quantity Figure 1 plots — plus
/// Rg and RMSD against the first frame.
pub struct Pipeline {
    selection: usize,
    contact_threshold: f64,
    power_iterations: usize,
    reference: Option<Vec<[f64; 3]>>,
    history: Vec<FrameAnalysis>,
}

impl Pipeline {
    /// Analyze the first `selection` atoms with the given contact
    /// threshold.
    pub fn new(selection: usize, contact_threshold: f64) -> Self {
        Pipeline {
            selection,
            contact_threshold,
            power_iterations: 50,
            reference: None,
            history: Vec::new(),
        }
    }

    /// Analyze one frame, returning and recording the result.
    pub fn analyze(&mut self, frame: &Frame) -> FrameAnalysis {
        let sel = frame.positions.len().min(self.selection);
        let pos = &frame.positions[..sel];
        let cm = ContactMatrix::build(pos, frame.box_lengths, self.contact_threshold);
        let reference = self.reference.get_or_insert_with(|| pos.to_vec());
        let result = FrameAnalysis {
            step: frame.step,
            largest_eigenvalue: cm.largest_eigenvalue(self.power_iterations),
            contacts: cm.contact_count(),
            radius_of_gyration: radius_of_gyration(pos),
            rmsd_to_first: rmsd(pos, reference),
        };
        self.history.push(result.clone());
        result
    }

    /// Everything analyzed so far, in arrival order.
    pub fn history(&self) -> &[FrameAnalysis] {
        &self.history
    }

    /// Detect sudden eigenvalue changes (the events Figure 1's arrows
    /// mark): indices where |λ(t) − λ(t−1)| exceeds `jump`.
    pub fn eigenvalue_events(&self, jump: f64) -> Vec<usize> {
        self.history
            .windows(2)
            .enumerate()
            .filter(|(_, w)| (w[1].largest_eigenvalue - w[0].largest_eigenvalue).abs() > jump)
            .map(|(i, _)| i + 1)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdsim::Model;

    fn frame_with(positions: Vec<[f64; 3]>) -> Frame {
        Frame {
            model: Model::Jac,
            step: 1,
            box_lengths: [100.0; 3],
            ids: (0..positions.len() as u32).collect(),
            positions,
        }
    }

    #[test]
    fn contact_matrix_flags_close_pairs() {
        let pos = vec![[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [10.0, 0.0, 0.0]];
        let cm = ContactMatrix::build(&pos, [100.0; 3], 2.0);
        assert_eq!(cm.get(0, 1), 1.0);
        assert_eq!(cm.get(1, 0), 1.0);
        assert_eq!(cm.get(0, 2), 0.0);
        assert_eq!(cm.get(0, 0), 1.0);
        assert_eq!(cm.contact_count(), 1);
    }

    #[test]
    fn contact_matrix_respects_periodicity() {
        // Two atoms separated by 9.5 in a 10-box are 0.5 apart.
        let pos = vec![[0.25, 0.0, 0.0], [9.75, 0.0, 0.0]];
        let cm = ContactMatrix::build(&pos, [10.0; 3], 1.0);
        assert_eq!(cm.get(0, 1), 1.0);
    }

    #[test]
    fn eigenvalue_of_all_ones_matrix_is_n() {
        // All atoms mutually in contact -> matrix of ones -> λmax = n.
        let pos = vec![[0.0; 3]; 6];
        let cm = ContactMatrix::build(&pos, [100.0; 3], 1.0);
        let l = cm.largest_eigenvalue(100);
        assert!((l - 6.0).abs() < 1e-9, "λ = {l}");
    }

    #[test]
    fn eigenvalue_of_identity_is_one() {
        // No contacts -> identity matrix -> λmax = 1.
        let pos: Vec<[f64; 3]> = (0..5).map(|i| [i as f64 * 10.0, 0.0, 0.0]).collect();
        let cm = ContactMatrix::build(&pos, [1000.0; 3], 1.0);
        let l = cm.largest_eigenvalue(100);
        assert!((l - 1.0).abs() < 1e-9, "λ = {l}");
    }

    #[test]
    fn rg_of_known_configuration() {
        // Two points 2 apart: Rg = 1.
        let pos = vec![[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]];
        assert!((radius_of_gyration(&pos) - 1.0).abs() < 1e-12);
        assert_eq!(radius_of_gyration(&[]), 0.0);
    }

    #[test]
    fn rmsd_is_translation_invariant_and_zero_on_self() {
        let a = vec![[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [4.0, 5.0, 6.0]];
        let b: Vec<[f64; 3]> = a.iter().map(|p| [p[0] + 7.0, p[1] - 2.0, p[2]]).collect();
        assert!(rmsd(&a, &a) < 1e-12);
        assert!(rmsd(&a, &b) < 1e-12, "translation should not count");
        let c: Vec<[f64; 3]> = a
            .iter()
            .enumerate()
            .map(|(i, p)| [p[0] + i as f64, p[1], p[2]])
            .collect();
        assert!(rmsd(&a, &c) > 0.1);
    }

    #[test]
    fn pipeline_tracks_history_and_reference() {
        let mut pl = Pipeline::new(10, 1.5);
        let f1 = frame_with((0..10).map(|i| [i as f64, 0.0, 0.0]).collect());
        let f2 = frame_with((0..10).map(|i| [i as f64 * 1.5, 0.0, 0.0]).collect());
        let r1 = pl.analyze(&f1);
        let r2 = pl.analyze(&f2);
        assert_eq!(r1.rmsd_to_first, 0.0);
        assert!(r2.rmsd_to_first > 0.0);
        assert_eq!(pl.history().len(), 2);
        // Chain of contacts in f1 (spacing 1 < 1.5); none in f2.
        assert!(r1.contacts >= 9);
        assert_eq!(r2.contacts, 0);
        assert!(r1.largest_eigenvalue > r2.largest_eigenvalue);
    }

    #[test]
    fn eigenvalue_events_detects_jumps() {
        let mut pl = Pipeline::new(8, 1.5);
        // 3 frames tightly packed, then an expanded one.
        for _ in 0..3 {
            pl.analyze(&frame_with((0..8).map(|i| [i as f64, 0.0, 0.0]).collect()));
        }
        pl.analyze(&frame_with(
            (0..8).map(|i| [i as f64 * 5.0, 0.0, 0.0]).collect(),
        ));
        let events = pl.eigenvalue_events(0.5);
        assert_eq!(events, vec![3]);
    }

    #[test]
    fn pipeline_on_real_md_trajectory() {
        use mdsim::{CaptureHook, EngineConfig, MdEngine};
        let mut engine = MdEngine::new(EngineConfig {
            n_atoms: 125,
            ..EngineConfig::default()
        });
        let mut hook = CaptureHook::new(Model::Jac, 5);
        let mut pl = Pipeline::new(30, 1.6);
        let mut frames = Vec::new();
        hook.run(&mut engine, 25, &mut |f: Frame| frames.push(f));
        for f in &frames {
            pl.analyze(f);
        }
        assert_eq!(pl.history().len(), 5);
        for h in pl.history() {
            assert!(h.largest_eigenvalue >= 1.0);
            assert!(h.radius_of_gyration > 0.0);
        }
    }

    #[cfg(test)]
    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_positions(n: usize) -> impl Strategy<Value = Vec<[f64; 3]>> {
            proptest::collection::vec(
                (0.0f64..50.0, 0.0f64..50.0, 0.0f64..50.0).prop_map(|(x, y, z)| [x, y, z]),
                1..n,
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            #[test]
            fn eigenvalue_bounded_by_matrix_size(pos in arb_positions(20)) {
                let cm = ContactMatrix::build(&pos, [50.0; 3], 3.0);
                let l = cm.largest_eigenvalue(60);
                // Row sums bound the spectral radius; diagonal gives >= ~1.
                prop_assert!(l <= pos.len() as f64 + 1e-9);
                prop_assert!(l >= 1.0 - 1e-9);
            }

            #[test]
            fn rmsd_symmetry(pos in arb_positions(20)) {
                let shifted: Vec<[f64;3]> =
                    pos.iter().map(|p| [p[0] + 1.0, p[1], p[2] - 3.0]).collect();
                let d1 = rmsd(&pos, &shifted);
                let d2 = rmsd(&shifted, &pos);
                prop_assert!((d1 - d2).abs() < 1e-9);
                prop_assert!(d1 < 1e-9); // pure translation
            }

            #[test]
            fn rg_scales_linearly(pos in arb_positions(20), k in 0.1f64..10.0) {
                let scaled: Vec<[f64;3]> =
                    pos.iter().map(|p| [p[0] * k, p[1] * k, p[2] * k]).collect();
                let r1 = radius_of_gyration(&pos);
                let r2 = radius_of_gyration(&scaled);
                prop_assert!((r2 - r1 * k).abs() < 1e-6 * (1.0 + r2));
            }
        }
    }
}
