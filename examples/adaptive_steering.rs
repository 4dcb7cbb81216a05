//! Adaptive steering (§II-B): in situ analytics terminate trajectories
//! that wander out of the region of interest, saving the simulated GPU
//! time the remaining strides would have burned — the "steer the
//! simulation" use case that motivates low-latency data movement.
//!
//! Two ensembles run back to back: one free-running, one steered by a
//! radius-of-gyration rule. Both use real Lennard-Jones MD inside the
//! simulated workflow.
//!
//! ```sh
//! cargo run --release --example adaptive_steering
//! ```

use mdflow::calibration::Calibration;
use mdflow::steering::{run_steering, SteeringConfig, SteeringRule};

fn main() {
    let cal = Calibration::quiet();
    let base = SteeringConfig {
        pairs: 4,
        max_frames: 20,
        stride: 10,
        atoms: 216,
        rule: SteeringRule::None,
        ..SteeringConfig::default()
    };

    println!(
        "running {} free trajectories ({} frames max)...",
        base.pairs, base.max_frames
    );
    let free = run_steering(&base, &cal, 11);

    // Pick a mid-distribution threshold from the free run so trajectories
    // trigger at different points in their lifetime.
    let mut rgs: Vec<f64> = free
        .iter()
        .flat_map(|o| o.history.iter().map(|a| a.radius_of_gyration))
        .collect();
    rgs.sort_by(f64::total_cmp);
    let threshold = rgs[rgs.len() * 6 / 10];
    println!(
        "Rg range {:.4}..{:.4}; steering rule: terminate when Rg > {threshold:.4}\n",
        rgs[0],
        rgs[rgs.len() - 1]
    );

    let steered_cfg = SteeringConfig {
        rule: SteeringRule::RadiusAbove(threshold),
        ..base.clone()
    };
    let steered = run_steering(&steered_cfg, &cal, 11);

    println!(
        "{:<6} {:>12} {:>12} {:>12}",
        "pair", "free frames", "steered", "trigger@"
    );
    let mut saved = 0u64;
    for (f, s) in free.iter().zip(&steered) {
        println!(
            "{:<6} {:>12} {:>12} {:>12}",
            f.pair,
            f.frames_produced,
            s.frames_produced,
            s.triggered_at
                .map(|t| t.to_string())
                .unwrap_or_else(|| "-".into()),
        );
        saved += f.frames_produced - s.frames_produced;
    }
    let total: u64 = free.iter().map(|o| o.frames_produced).sum();
    assert!(saved > 0, "a mid-distribution threshold terminated nothing");
    println!(
        "\nsteering saved {saved} of {total} frame computations ({:.0}%) across the ensemble —",
        100.0 * saved as f64 / total as f64
    );
    println!("the adaptive-simulation payoff that in situ analytics buys (paper §II-B).");
}
