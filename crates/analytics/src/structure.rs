//! Structural and dynamical observables beyond the contact analysis:
//! radial distribution functions and mean-squared displacement — the
//! standard "is this trajectory physical?" kernels an in situ pipeline
//! runs alongside the event detectors.

/// The radial distribution function g(r) of a configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Rdf {
    /// Bin width (Δr).
    pub dr: f64,
    /// g(r) values at `r = (i + 0.5)·dr`.
    pub g: Vec<f64>,
}

impl Rdf {
    /// Compute g(r) up to `r_max` in `bins` bins under periodic
    /// boundary conditions (minimum image; `r_max` should be at most
    /// half the box).
    pub fn compute(positions: &[[f64; 3]], box_lengths: [f32; 3], r_max: f64, bins: usize) -> Rdf {
        assert!(bins > 0 && r_max > 0.0);
        let n = positions.len();
        let dr = r_max / bins as f64;
        let bl = [
            box_lengths[0] as f64,
            box_lengths[1] as f64,
            box_lengths[2] as f64,
        ];
        // Histogram pair distances: one partial histogram per i, merged.
        let hist: Vec<u64> = (0..n)
            .map(|i| {
                let mut h = vec![0u64; bins];
                for j in (i + 1)..n {
                    let mut r2 = 0.0;
                    for k in 0..3 {
                        let mut d = positions[i][k] - positions[j][k];
                        if bl[k] > 0.0 {
                            d -= bl[k] * (d / bl[k]).round();
                        }
                        r2 += d * d;
                    }
                    let r = r2.sqrt();
                    if r < r_max {
                        h[(r / dr) as usize] += 1;
                    }
                }
                h
            })
            .fold(vec![0u64; bins], |mut a, b| {
                for (x, y) in a.iter_mut().zip(b) {
                    *x += y;
                }
                a
            });
        // Normalize by the ideal-gas shell count.
        let volume = bl[0] * bl[1] * bl[2];
        let density = n as f64 / volume;
        let mut g = Vec::with_capacity(bins);
        for (i, &count) in hist.iter().enumerate() {
            let r_lo = i as f64 * dr;
            let r_hi = r_lo + dr;
            let shell = 4.0 / 3.0 * std::f64::consts::PI * (r_hi.powi(3) - r_lo.powi(3));
            let ideal_pairs = 0.5 * n as f64 * density * shell;
            g.push(if ideal_pairs > 0.0 {
                count as f64 / ideal_pairs
            } else {
                0.0
            });
        }
        Rdf { dr, g }
    }

    /// The location of the first peak of g(r) (the nearest-neighbour
    /// shell): the first local maximum rising above 1.5. `None` for
    /// structureless (ideal-gas-like) input.
    pub fn first_peak(&self) -> Option<f64> {
        let start = self.g.iter().position(|&v| v > 1.5)?;
        let mut idx = start;
        while idx + 1 < self.g.len() && self.g[idx + 1] > self.g[idx] {
            idx += 1;
        }
        Some((idx as f64 + 0.5) * self.dr)
    }
}

/// Mean-squared-displacement accumulator: feed frames in order, read
/// MSD(t) relative to the first frame. Unwraps periodic boundary
/// crossings so diffusion is measured correctly.
#[derive(Debug, Clone, Default)]
pub struct Msd {
    reference: Vec<[f64; 3]>,
    unwrapped: Vec<[f64; 3]>,
    previous: Vec<[f64; 3]>,
    /// MSD value per recorded frame (first frame = 0).
    pub series: Vec<f64>,
}

impl Msd {
    /// Empty accumulator.
    pub fn new() -> Msd {
        Msd::default()
    }

    /// Add the next frame (positions wrapped into the box).
    pub fn push(&mut self, positions: &[[f64; 3]], box_lengths: [f32; 3]) {
        let bl = [
            box_lengths[0] as f64,
            box_lengths[1] as f64,
            box_lengths[2] as f64,
        ];
        if self.reference.is_empty() {
            self.reference = positions.to_vec();
            self.unwrapped = positions.to_vec();
            self.previous = positions.to_vec();
            self.series.push(0.0);
            return;
        }
        assert_eq!(
            positions.len(),
            self.reference.len(),
            "MSD frames must have a fixed atom count"
        );
        // Unwrap: the true displacement this step is the minimum-image
        // displacement from the previous wrapped position.
        for (i, p) in positions.iter().enumerate() {
            for k in 0..3 {
                let mut d = p[k] - self.previous[i][k];
                if bl[k] > 0.0 {
                    d -= bl[k] * (d / bl[k]).round();
                }
                self.unwrapped[i][k] += d;
            }
        }
        self.previous = positions.to_vec();
        let msd = self
            .unwrapped
            .iter()
            .zip(self.reference.iter())
            .map(|(u, r)| {
                let mut s = 0.0;
                for k in 0..3 {
                    let d = u[k] - r[k];
                    s += d * d;
                }
                s
            })
            .sum::<f64>()
            / positions.len() as f64;
        self.series.push(msd);
    }

    /// Estimated diffusion coefficient from the last half of the series
    /// (Einstein relation, `MSD = 6·D·t` with `dt` between frames).
    pub fn diffusion_coefficient(&self, dt: f64) -> Option<f64> {
        if self.series.len() < 4 || dt <= 0.0 {
            return None;
        }
        let half = self.series.len() / 2;
        // Least-squares slope of MSD vs t over the tail.
        let pts: Vec<(f64, f64)> = self.series[half..]
            .iter()
            .enumerate()
            .map(|(i, &m)| (((half + i) as f64) * dt, m))
            .collect();
        let n = pts.len() as f64;
        let sx: f64 = pts.iter().map(|p| p.0).sum();
        let sy: f64 = pts.iter().map(|p| p.1).sum();
        let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
        let denom = n * sxx - sx * sx;
        if denom.abs() < 1e-12 {
            return None;
        }
        let slope = (n * sxy - sx * sy) / denom;
        Some(slope / 6.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rdf_of_ideal_gas_is_flat_around_one() {
        // Uniform random points: g(r) ≈ 1 away from r = 0.
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        let box_len = 20.0f32;
        let positions: Vec<[f64; 3]> = (0..2000)
            .map(|_| {
                [
                    rng.random_range(0.0..box_len as f64),
                    rng.random_range(0.0..box_len as f64),
                    rng.random_range(0.0..box_len as f64),
                ]
            })
            .collect();
        let rdf = Rdf::compute(&positions, [box_len; 3], 8.0, 40);
        // Skip the first couple of noisy near-zero bins.
        for (i, &g) in rdf.g.iter().enumerate().skip(4) {
            assert!((g - 1.0).abs() < 0.25, "bin {i}: g = {g}");
        }
        assert_eq!(rdf.first_peak(), None);
    }

    #[test]
    fn rdf_of_a_lattice_peaks_at_the_spacing() {
        // Simple cubic lattice, spacing 2: strong peak at r = 2.
        let mut positions = Vec::new();
        for x in 0..6 {
            for y in 0..6 {
                for z in 0..6 {
                    positions.push([x as f64 * 2.0, y as f64 * 2.0, z as f64 * 2.0]);
                }
            }
        }
        let rdf = Rdf::compute(&positions, [12.0; 3], 3.5, 35);
        let peak = rdf.first_peak().expect("lattice has structure");
        assert!((peak - 2.0).abs() < 0.15, "first peak at {peak}");
    }

    #[test]
    fn msd_of_static_positions_is_zero() {
        let pos = vec![[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]];
        let mut msd = Msd::new();
        for _ in 0..5 {
            msd.push(&pos, [10.0; 3]);
        }
        assert_eq!(msd.series.len(), 5);
        assert!(msd.series.iter().all(|&m| m == 0.0));
    }

    #[test]
    fn msd_of_ballistic_motion_is_quadratic() {
        // Every atom moves +0.1 in x per frame: MSD(t) = (0.1 t)^2.
        let mut msd = Msd::new();
        for t in 0..10 {
            let pos: Vec<[f64; 3]> = (0..4)
                .map(|i| {
                    let x: f64 = i as f64 * 3.0 + 0.1 * t as f64;
                    [x.rem_euclid(12.0), 1.0, 1.0]
                })
                .collect();
            msd.push(&pos, [12.0; 3]);
        }
        for (t, &m) in msd.series.iter().enumerate() {
            let expect = (0.1 * t as f64).powi(2);
            assert!((m - expect).abs() < 1e-9, "t={t}: {m} vs {expect}");
        }
    }

    #[test]
    fn msd_unwraps_periodic_crossings() {
        // An atom marching +0.4/frame through a 2.0 box: wrapped
        // positions jump, unwrapped displacement must keep growing.
        let mut msd = Msd::new();
        for t in 0..12 {
            let x: f64 = (0.4 * t as f64).rem_euclid(2.0);
            msd.push(&[[x, 0.5, 0.5]], [2.0; 3]);
        }
        let expect = (0.4 * 11.0f64).powi(2);
        let last = *msd.series.last().unwrap();
        assert!((last - expect).abs() < 1e-9, "{last} vs {expect}");
    }

    #[test]
    fn diffusion_coefficient_from_linear_msd() {
        // Construct MSD = 6 D t exactly with D = 0.5, dt = 0.1.
        let mut msd = Msd::new();
        msd.series = (0..20).map(|t| 6.0 * 0.5 * (t as f64) * 0.1).collect();
        let d = msd.diffusion_coefficient(0.1).unwrap();
        assert!((d - 0.5).abs() < 1e-9, "D = {d}");
    }

    #[test]
    fn rdf_on_real_md_configuration() {
        use mdsim::{EngineConfig, MdEngine};
        let mut e = MdEngine::new(EngineConfig {
            n_atoms: 343,
            density: 0.8,
            ..EngineConfig::default()
        });
        e.run(100);
        let rdf = Rdf::compute(e.positions(), [e.box_len() as f32; 3], 3.0, 60);
        // A Lennard-Jones liquid has its first shell near r ≈ 1.1 σ.
        let peak = rdf.first_peak().expect("LJ liquid is structured");
        assert!((0.95..1.35).contains(&peak), "first peak at {peak}");
    }
}
