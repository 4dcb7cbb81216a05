//! A miniature molecular-dynamics engine.
//!
//! The paper's workflows capture frames from full MD codes (GROMACS,
//! NAMD, LAMMPS). For the reproduction we implement a compact but real
//! engine — a Lennard-Jones fluid in reduced units with cell-list
//! neighbour search, velocity-Verlet integration and a Berendsen
//! thermostat — so the examples and analytics operate on genuine
//! trajectories. The force loop is one independent pass per atom.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::frame::Frame;
use crate::models::Model;

/// Engine configuration, in reduced Lennard-Jones units.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Number of atoms.
    pub n_atoms: usize,
    /// Number density (atoms per unit volume).
    pub density: f64,
    /// Integration timestep.
    pub dt: f64,
    /// Interaction cutoff radius.
    pub cutoff: f64,
    /// Target reduced temperature.
    pub temperature: f64,
    /// Berendsen coupling constant (0 disables the thermostat).
    pub thermostat_tau: f64,
    /// RNG seed for initial velocities.
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            n_atoms: 864,
            density: 0.8,
            dt: 0.002,
            cutoff: 2.5,
            temperature: 1.0,
            thermostat_tau: 0.1,
            seed: 42,
        }
    }
}

/// The MD engine state.
pub struct MdEngine {
    cfg: EngineConfig,
    box_len: f64,
    pos: Vec<[f64; 3]>,
    vel: Vec<[f64; 3]>,
    forces: Vec<[f64; 3]>,
    step_count: u64,
    // Cell list scratch.
    cells_per_side: usize,
    cell_of: Vec<usize>,
    cells: Vec<Vec<u32>>,
}

impl MdEngine {
    /// Initialize atoms on a cubic lattice with Maxwell-Boltzmann
    /// velocities (zero net momentum).
    pub fn new(cfg: EngineConfig) -> Self {
        assert!(cfg.n_atoms > 0 && cfg.density > 0.0);
        let box_len = (cfg.n_atoms as f64 / cfg.density).cbrt();
        let per_side = (cfg.n_atoms as f64).cbrt().ceil() as usize;
        let spacing = box_len / per_side as f64;
        let mut pos = Vec::with_capacity(cfg.n_atoms);
        'fill: for x in 0..per_side {
            for y in 0..per_side {
                for z in 0..per_side {
                    if pos.len() == cfg.n_atoms {
                        break 'fill;
                    }
                    pos.push([
                        (x as f64 + 0.5) * spacing,
                        (y as f64 + 0.5) * spacing,
                        (z as f64 + 0.5) * spacing,
                    ]);
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let scale = cfg.temperature.sqrt();
        let mut vel: Vec<[f64; 3]> = (0..cfg.n_atoms)
            .map(|_| {
                [
                    gaussian(&mut rng) * scale,
                    gaussian(&mut rng) * scale,
                    gaussian(&mut rng) * scale,
                ]
            })
            .collect();
        // Remove centre-of-mass drift.
        let mut com = [0.0f64; 3];
        for v in &vel {
            for k in 0..3 {
                com[k] += v[k];
            }
        }
        for c in &mut com {
            *c /= cfg.n_atoms as f64;
        }
        for v in &mut vel {
            for k in 0..3 {
                v[k] -= com[k];
            }
        }
        let cells_per_side = ((box_len / cfg.cutoff).floor() as usize).max(1);
        let mut engine = MdEngine {
            cfg,
            box_len,
            pos,
            vel,
            forces: vec![[0.0; 3]; cfg.n_atoms],
            step_count: 0,
            cells_per_side,
            cell_of: vec![0; cfg.n_atoms],
            cells: vec![Vec::new(); cells_per_side.pow(3)],
        };
        engine.rebuild_cells();
        engine.forces = engine.compute_forces();
        engine
    }

    /// Simulation box length.
    pub fn box_len(&self) -> f64 {
        self.box_len
    }

    /// Steps taken so far.
    pub fn step_count(&self) -> u64 {
        self.step_count
    }

    /// Atom positions.
    pub fn positions(&self) -> &[[f64; 3]] {
        &self.pos
    }

    /// The forces of the current configuration (as used for the next
    /// half-kick). Exposed for cross-validation against alternative
    /// neighbour-search strategies.
    pub fn current_forces(&self) -> &[[f64; 3]] {
        &self.forces
    }

    fn cell_index(&self, p: &[f64; 3]) -> usize {
        let n = self.cells_per_side;
        let mut idx = 0usize;
        for coord in p {
            let mut c = ((coord / self.box_len) * n as f64).floor() as isize;
            c = c.rem_euclid(n as isize);
            idx = idx * n + c as usize;
        }
        idx
    }

    fn rebuild_cells(&mut self) {
        for c in &mut self.cells {
            c.clear();
        }
        let indices: Vec<usize> = self.pos.iter().map(|p| self.cell_index(p)).collect();
        for (i, ci) in indices.into_iter().enumerate() {
            self.cell_of[i] = ci;
            self.cells[ci].push(i as u32);
        }
    }

    /// Lennard-Jones forces via the cell list, one pass per atom.
    fn compute_forces(&self) -> Vec<[f64; 3]> {
        let n = self.cells_per_side as isize;
        let rc2 = self.cfg.cutoff * self.cfg.cutoff;
        let box_len = self.box_len;
        let pos = &self.pos;
        let cells = &self.cells;
        let cell_of = &self.cell_of;
        (0..self.pos.len())
            .map(|i| {
                let pi = pos[i];
                let ci = cell_of[i] as isize;
                let (cx, cy, cz) = (ci / (n * n), (ci / n) % n, ci % n);
                let mut f = [0.0f64; 3];
                // Unique neighbour cells: with fewer than 3 cells per
                // side the ±1 offsets alias, which would double-count
                // pairs and break energy conservation.
                let mut neigh: [usize; 27] = [usize::MAX; 27];
                let mut n_neigh = 0;
                for dx in -1..=1 {
                    for dy in -1..=1 {
                        for dz in -1..=1 {
                            let nx = (cx + dx).rem_euclid(n);
                            let ny = (cy + dy).rem_euclid(n);
                            let nz = (cz + dz).rem_euclid(n);
                            let idx = (nx * n * n + ny * n + nz) as usize;
                            if !neigh[..n_neigh].contains(&idx) {
                                neigh[n_neigh] = idx;
                                n_neigh += 1;
                            }
                        }
                    }
                }
                for &idx in &neigh[..n_neigh] {
                    {
                        {
                            let cell = &cells[idx];
                            for &j in cell {
                                let j = j as usize;
                                if j == i {
                                    continue;
                                }
                                let pj = pos[j];
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
                                    // F = 24ε(2(σ/r)^12 − (σ/r)^6)/r² · r
                                    let fmag = 24.0 * inv2 * inv6 * (2.0 * inv6 - 1.0);
                                    for k in 0..3 {
                                        f[k] += fmag * r[k];
                                    }
                                }
                            }
                        }
                    }
                }
                f
            })
            .collect()
    }

    /// Advance one velocity-Verlet step (with optional thermostat).
    pub fn step(&mut self) {
        let dt = self.cfg.dt;
        let half = 0.5 * dt;
        // First half-kick + drift.
        for i in 0..self.pos.len() {
            for k in 0..3 {
                self.vel[i][k] += half * self.forces[i][k];
                self.pos[i][k] += dt * self.vel[i][k];
                self.pos[i][k] = self.pos[i][k].rem_euclid(self.box_len);
            }
        }
        self.rebuild_cells();
        self.forces = self.compute_forces();
        // Second half-kick.
        for i in 0..self.pos.len() {
            for k in 0..3 {
                self.vel[i][k] += half * self.forces[i][k];
            }
        }
        // Berendsen thermostat.
        if self.cfg.thermostat_tau > 0.0 {
            let t_now = self.temperature();
            if t_now > 1e-12 {
                let lambda = (1.0
                    + dt / self.cfg.thermostat_tau * (self.cfg.temperature / t_now - 1.0))
                    .max(0.0)
                    .sqrt();
                for v in &mut self.vel {
                    for vk in v {
                        *vk *= lambda;
                    }
                }
            }
        }
        self.step_count += 1;
    }

    /// Run `n` steps.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Instantaneous reduced temperature (2·KE / 3N).
    pub fn temperature(&self) -> f64 {
        let ke: f64 = self
            .vel
            .iter()
            .map(|v| 0.5 * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]))
            .sum();
        2.0 * ke / (3.0 * self.pos.len() as f64)
    }

    /// Total kinetic + potential energy (potential via the cell list,
    /// counted once per pair).
    pub fn total_energy(&self) -> f64 {
        let ke: f64 = self
            .vel
            .iter()
            .map(|v| 0.5 * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]))
            .sum();
        let rc2 = self.cfg.cutoff * self.cfg.cutoff;
        let box_len = self.box_len;
        let pos = &self.pos;
        let pe: f64 = (0..pos.len())
            .map(|i| {
                let mut e = 0.0;
                for j in 0..pos.len() {
                    if j <= i {
                        continue;
                    }
                    let mut r2 = 0.0;
                    for (a, b) in pos[i].iter().zip(&pos[j]) {
                        let mut d = a - b;
                        d -= box_len * (d / box_len).round();
                        r2 += d * d;
                    }
                    if r2 < rc2 {
                        let inv6 = 1.0 / (r2 * r2 * r2);
                        e += 4.0 * inv6 * (inv6 - 1.0);
                    }
                }
                e
            })
            .sum();
        ke + pe
    }

    /// Net momentum (should stay ~0 without a thermostat).
    pub fn momentum(&self) -> [f64; 3] {
        let mut p = [0.0f64; 3];
        for v in &self.vel {
            for k in 0..3 {
                p[k] += v[k];
            }
        }
        p
    }

    /// Capture the current state as a serializable frame, labelled as
    /// belonging to `model`.
    pub fn capture(&self, model: Model) -> Frame {
        Frame {
            model,
            step: self.step_count,
            box_lengths: [self.box_len as f32; 3],
            ids: (0..self.pos.len() as u32).collect(),
            positions: self.pos.clone(),
        }
    }
}

/// Box-Muller standard normal.
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random_range(1e-12..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> EngineConfig {
        EngineConfig {
            n_atoms: 125,
            density: 0.7,
            dt: 0.001,
            cutoff: 2.5,
            temperature: 0.8,
            thermostat_tau: 0.0, // NVE for conservation tests
            seed: 7,
        }
    }

    #[test]
    fn atoms_stay_in_box() {
        let mut e = MdEngine::new(small());
        e.run(50);
        let l = e.box_len();
        for p in e.positions() {
            for k in 0..3 {
                assert!(p[k] >= 0.0 && p[k] < l, "escaped: {p:?}");
            }
        }
    }

    #[test]
    fn momentum_is_conserved_without_thermostat() {
        let mut e = MdEngine::new(small());
        let p0 = e.momentum();
        e.run(100);
        let p1 = e.momentum();
        for k in 0..3 {
            assert!(p0[k].abs() < 1e-9);
            assert!(p1[k].abs() < 1e-6, "momentum drifted: {p1:?}");
        }
    }

    #[test]
    fn energy_roughly_conserved_in_nve() {
        let mut e = MdEngine::new(small());
        // Equilibrate a little first so the lattice relaxes.
        e.run(20);
        let e0 = e.total_energy();
        e.run(200);
        let e1 = e.total_energy();
        let drift = ((e1 - e0) / e0.abs()).abs();
        assert!(drift < 0.05, "energy drifted {drift} ({e0} -> {e1})");
    }

    #[test]
    fn thermostat_pulls_temperature_to_target() {
        let cfg = EngineConfig {
            thermostat_tau: 0.05,
            temperature: 1.2,
            n_atoms: 216,
            ..small()
        };
        let mut e = MdEngine::new(cfg);
        e.run(300);
        let t = e.temperature();
        assert!((t - 1.2).abs() < 0.15, "temperature {t}");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = MdEngine::new(small());
        let mut b = MdEngine::new(small());
        a.run(50);
        b.run(50);
        assert_eq!(a.positions(), b.positions());
    }

    #[test]
    fn captured_frames_round_trip() {
        let mut e = MdEngine::new(small());
        e.run(10);
        let f = e.capture(Model::Jac);
        assert_eq!(f.step, 10);
        let back = crate::frame::Frame::decode(f.encode()).unwrap();
        assert_eq!(back.positions.len(), 125);
        assert_eq!(back, f);
    }
}
