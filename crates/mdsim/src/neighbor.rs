//! Verlet neighbour lists — the classic MD optimization (and the
//! counterpart of the engine's cell list): pair candidates within
//! `cutoff + skin` are cached and only rebuilt once any atom has moved
//! half the skin, amortizing the neighbour search over many steps.

/// A cached neighbour list with a skin buffer.
#[derive(Debug, Clone)]
pub struct VerletList {
    cutoff: f64,
    skin: f64,
    box_len: f64,
    /// Flattened neighbour indices per atom.
    neighbors: Vec<Vec<u32>>,
    /// Positions at build time (for displacement tracking).
    built_at: Vec<[f64; 3]>,
    /// Rebuild count (diagnostics).
    rebuilds: u64,
}

impl VerletList {
    /// Build a list for `positions` in a cubic periodic box.
    pub fn build(positions: &[[f64; 3]], box_len: f64, cutoff: f64, skin: f64) -> VerletList {
        assert!(cutoff > 0.0 && skin >= 0.0 && box_len > 0.0);
        let mut list = VerletList {
            cutoff,
            skin,
            box_len,
            neighbors: Vec::new(),
            built_at: Vec::new(),
            rebuilds: 0,
        };
        list.rebuild(positions);
        list
    }

    /// Recompute the candidate pairs (O(n²) search with minimum image;
    /// the point of the list is how rarely this runs).
    pub fn rebuild(&mut self, positions: &[[f64; 3]]) {
        let r_list = self.cutoff + self.skin;
        let r2 = r_list * r_list;
        let box_len = self.box_len;
        self.neighbors = (0..positions.len())
            .map(|i| {
                let mut n = Vec::new();
                for (j, pj) in positions.iter().enumerate() {
                    if j == i {
                        continue;
                    }
                    let mut d2 = 0.0;
                    for k in 0..3 {
                        let mut d = positions[i][k] - pj[k];
                        d -= box_len * (d / box_len).round();
                        d2 += d * d;
                    }
                    if d2 < r2 {
                        n.push(j as u32);
                    }
                }
                n
            })
            .collect();
        self.built_at = positions.to_vec();
        self.rebuilds += 1;
    }

    /// Has any atom moved more than half the skin since the last build?
    pub fn needs_rebuild(&self, positions: &[[f64; 3]]) -> bool {
        let limit = (self.skin / 2.0) * (self.skin / 2.0);
        positions.iter().zip(self.built_at.iter()).any(|(p, b)| {
            let mut d2 = 0.0;
            for k in 0..3 {
                let mut d = p[k] - b[k];
                d -= self.box_len * (d / self.box_len).round();
                d2 += d * d;
            }
            d2 > limit
        })
    }

    /// Ensure the list is valid for `positions`, rebuilding if needed.
    /// Returns whether a rebuild happened.
    pub fn refresh(&mut self, positions: &[[f64; 3]]) -> bool {
        if self.needs_rebuild(positions) {
            self.rebuild(positions);
            true
        } else {
            false
        }
    }

    /// Times the list has been (re)built.
    pub fn rebuild_count(&self) -> u64 {
        self.rebuilds
    }

    /// Neighbours of atom `i` (candidates within cutoff + skin).
    pub fn neighbors_of(&self, i: usize) -> &[u32] {
        &self.neighbors[i]
    }

    /// Lennard-Jones forces using the cached list (one pass per atom).
    /// Exactly matches the engine's cell-list forces as long as the list
    /// is fresh (every true pair within the cutoff is a candidate).
    pub fn lj_forces(&self, positions: &[[f64; 3]]) -> Vec<[f64; 3]> {
        let rc2 = self.cutoff * self.cutoff;
        let box_len = self.box_len;
        (0..positions.len())
            .map(|i| {
                let pi = positions[i];
                let mut f = [0.0f64; 3];
                for &j in &self.neighbors[i] {
                    let pj = positions[j as usize];
                    let mut r = [0.0f64; 3];
                    let mut r2 = 0.0;
                    for k in 0..3 {
                        let mut d = pi[k] - pj[k];
                        d -= box_len * (d / box_len).round();
                        r[k] = d;
                        r2 += d * d;
                    }
                    if r2 < rc2 && r2 > 1e-12 {
                        let inv2 = 1.0 / r2;
                        let inv6 = inv2 * inv2 * inv2;
                        let fmag = 24.0 * inv2 * inv6 * (2.0 * inv6 - 1.0);
                        for k in 0..3 {
                            f[k] += fmag * r[k];
                        }
                    }
                }
                f
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, MdEngine};

    fn engine() -> MdEngine {
        MdEngine::new(EngineConfig {
            n_atoms: 216,
            density: 0.7,
            thermostat_tau: 0.0,
            ..EngineConfig::default()
        })
    }

    #[test]
    fn verlet_forces_match_cell_list_forces() {
        let mut e = engine();
        e.run(25);
        let list = VerletList::build(e.positions(), e.box_len(), 2.5, 0.4);
        let verlet = list.lj_forces(e.positions());
        let cell = e.current_forces();
        assert_eq!(verlet.len(), cell.len());
        for (i, (a, b)) in verlet.iter().zip(cell).enumerate() {
            for k in 0..3 {
                assert!(
                    (a[k] - b[k]).abs() < 1e-9,
                    "atom {i} axis {k}: {} vs {}",
                    a[k],
                    b[k]
                );
            }
        }
    }

    #[test]
    fn list_stays_valid_within_skin() {
        let mut e = engine();
        e.run(5);
        let mut list = VerletList::build(e.positions(), e.box_len(), 2.5, 0.8);
        let mut rebuilds = 0;
        for _ in 0..20 {
            e.step();
            if list.refresh(e.positions()) {
                rebuilds += 1;
            }
            // Whether rebuilt or not, forces must match the exact ones.
            let verlet = list.lj_forces(e.positions());
            let exact = e.current_forces();
            for (a, b) in verlet.iter().zip(exact) {
                for k in 0..3 {
                    assert!((a[k] - b[k]).abs() < 1e-9);
                }
            }
        }
        // The skin must have amortized at least some rebuilds.
        assert!(rebuilds < 20, "rebuilt every step: skin has no effect");
    }

    #[test]
    fn zero_skin_requires_constant_rebuilds() {
        let mut e = engine();
        e.run(5);
        let mut list = VerletList::build(e.positions(), e.box_len(), 2.5, 0.0);
        e.step();
        assert!(list.needs_rebuild(e.positions()));
        assert!(list.refresh(e.positions()));
        assert_eq!(list.rebuild_count(), 2);
    }

    #[test]
    fn neighbors_are_symmetric() {
        let e = engine();
        let list = VerletList::build(e.positions(), e.box_len(), 2.5, 0.3);
        for i in 0..e.positions().len() {
            for &j in list.neighbors_of(i) {
                assert!(
                    list.neighbors_of(j as usize).contains(&(i as u32)),
                    "asymmetric pair ({i}, {j})"
                );
            }
        }
    }
}
