//! # analytics — the in situ contact-matrix kernel
//!
//! The consumer side of the paper's workflows (Figure 1) analyzes frames
//! as they arrive. The study emulates that analysis with a sleep of one
//! frame period (`mdflow::workflow`); this crate keeps the one kernel
//! whose cost is measured on its own: a [`ContactMatrix`] over a
//! selection of atoms (pairwise distance threshold, minimum-image
//! convention), Figure 1's per-helix quantity.

#![warn(missing_docs)]

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
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
