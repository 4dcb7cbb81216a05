//! The paper's molecular models (Tables I and II).
//!
//! Frame sizes follow from the frame wire format (48-byte header +
//! 28 bytes per atom: a `u32` atom id plus three `f64` coordinates) and
//! match Table I's estimates to within the header: JAC = 644.2 KiB,
//! ApoA1 = 2.46 MiB, F1 ATPase = 8.75 MiB, STMV = 28.48 MiB.
//!
//! Steps/second values are Table I's (derived by the authors from the
//! NAMD benchmark suite); strides are Table II's, chosen so every model
//! emits a frame every ~0.82 s.

/// Bytes per atom on the wire: `u32` id + 3 × `f64` position.
pub(crate) const ATOM_BYTES: u64 = 28;
/// Frame header bytes (magic, version, model, step, atom count, box).
pub(crate) const HEADER_BYTES: u64 = 48;

/// The four molecular models of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Model {
    /// Joint Amber-CHARMM benchmark (DHFR), 23,558 atoms.
    Jac,
    /// Apolipoprotein A1, 92,224 atoms.
    ApoA1,
    /// F1 ATPase, 327,506 atoms.
    F1Atpase,
    /// Satellite tobacco mosaic virus, 1,066,628 atoms.
    Stmv,
}

impl Model {
    /// All four models, smallest first (Table I order).
    pub const ALL: [Model; 4] = [Model::Jac, Model::ApoA1, Model::F1Atpase, Model::Stmv];

    /// Display name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Model::Jac => "JAC",
            Model::ApoA1 => "ApoA1",
            Model::F1Atpase => "F1 ATPase",
            Model::Stmv => "STMV",
        }
    }

    /// Stable numeric id used in the frame header.
    pub(crate) fn id(self) -> u32 {
        match self {
            Model::Jac => 1,
            Model::ApoA1 => 2,
            Model::F1Atpase => 3,
            Model::Stmv => 4,
        }
    }

    /// Model from its numeric id.
    pub(crate) fn from_id(id: u32) -> Option<Model> {
        Model::ALL.into_iter().find(|m| m.id() == id)
    }

    /// Number of atoms (Table I).
    pub fn atoms(self) -> u64 {
        match self {
            Model::Jac => 23_558,
            Model::ApoA1 => 92_224,
            Model::F1Atpase => 327_506,
            Model::Stmv => 1_066_628,
        }
    }

    /// Bytes of one serialized frame.
    pub fn frame_bytes(self) -> u64 {
        HEADER_BYTES + self.atoms() * ATOM_BYTES
    }

    /// MD throughput in steps per second (Table I).
    pub fn steps_per_second(self) -> f64 {
        match self {
            Model::Jac => 1072.92,
            Model::ApoA1 => 358.22,
            Model::F1Atpase => 115.74,
            Model::Stmv => 34.14,
        }
    }

    /// Milliseconds per MD step (Table II).
    pub fn ms_per_step(self) -> f64 {
        1000.0 / self.steps_per_second()
    }

    /// Stride (steps between frames) equalizing output frequency across
    /// models (Table II).
    pub fn stride(self) -> u64 {
        match self {
            Model::Jac => 880,
            Model::ApoA1 => 294,
            Model::F1Atpase => 92,
            Model::Stmv => 28,
        }
    }

    /// Seconds between frames at the Table II stride (~0.82 s for every
    /// model).
    pub fn frame_period_secs(self) -> f64 {
        self.stride() as f64 * self.ms_per_step() / 1000.0
    }

    /// Seconds between frames for an arbitrary stride.
    pub fn period_for_stride(self, stride: u64) -> f64 {
        stride as f64 * self.ms_per_step() / 1000.0
    }
}

impl std::fmt::Display for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_sizes_match_table_one() {
        // Table I: 644.21 KiB, 2.46 MiB, 8.75 MiB, 28.48 MiB.
        let kib = Model::Jac.frame_bytes() as f64 / 1024.0;
        assert!((kib - 644.21).abs() < 0.1, "JAC {kib} KiB");
        let mib = Model::ApoA1.frame_bytes() as f64 / (1024.0 * 1024.0);
        assert!((mib - 2.46).abs() < 0.01, "ApoA1 {mib} MiB");
        let mib = Model::F1Atpase.frame_bytes() as f64 / (1024.0 * 1024.0);
        assert!((mib - 8.75).abs() < 0.01, "F1 {mib} MiB");
        let mib = Model::Stmv.frame_bytes() as f64 / (1024.0 * 1024.0);
        assert!((mib - 28.48).abs() < 0.01, "STMV {mib} MiB");
    }

    #[test]
    fn ms_per_step_matches_table_two() {
        assert!((Model::Jac.ms_per_step() - 0.93).abs() < 0.01);
        assert!((Model::ApoA1.ms_per_step() - 2.79).abs() < 0.01);
        assert!((Model::F1Atpase.ms_per_step() - 8.64).abs() < 0.01);
        assert!((Model::Stmv.ms_per_step() - 29.29).abs() < 0.01);
    }

    #[test]
    fn frame_periods_are_equalized_at_082s() {
        // Table II lists 0.82 s for every model. Recomputing from its own
        // steps/second and stride columns gives 0.79-0.82 s (F1 ATPase's
        // 92 × 8.64 ms = 0.795 s; the paper rounds). Accept that window.
        for m in Model::ALL {
            let p = m.frame_period_secs();
            assert!((0.79..=0.825).contains(&p), "{m}: {p}");
        }
    }

    #[test]
    fn stmv_to_jac_data_ratio_is_45x() {
        // The paper: "we move 45.3 times more data with STMV than JAC".
        let ratio = Model::Stmv.frame_bytes() as f64 / Model::Jac.frame_bytes() as f64;
        assert!((ratio - 45.3).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn ids_round_trip() {
        for m in Model::ALL {
            assert_eq!(Model::from_id(m.id()), Some(m));
        }
        assert_eq!(Model::from_id(99), None);
    }
}
