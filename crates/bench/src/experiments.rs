//! The experiment table. Every experiment of the evaluation that is
//! "studies in, reports out" — Tables I–II, Figures 5–8 and 11–12, and
//! the capacity, chaos, bursty, ablation and streaming fan-out
//! extensions — is one [`Experiment`] row: its grid of studies, written
//! once, and what the paper's figure shows of the reports. The `all`
//! binary is the only driver.

use mdflow::findings::{self, FindingCheck};
use mdflow::prelude::*;
use mdflow::report::MeanStd;
use simcore::SimDuration;

use crate::{
    consumption_chart, fmt_secs, print_bar, print_ratio, production_chart, render_bars, study_at,
    Scale,
};

/// An experiment's labelled reports, in the order of its grid.
pub(crate) type Rows = [(String, StudyReport)];

/// One row of the experiment table.
pub struct Experiment {
    /// What `all --only` selects, and the stem of
    /// `target/experiments/<name>.json`.
    pub name: &'static str,
    /// Header line; the driver appends the scale when there are studies.
    pub title: &'static str,
    /// The grid: labelled studies at a scale, in print and JSON order.
    pub studies: fn(Scale) -> Vec<(String, StudyConfig)>,
    /// What the figure shows of the grid's reports: bars, headline
    /// ratios, the finding, the charts.
    pub report: fn(&Rows),
}

/// Every experiment, in the paper's order, extensions last.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        title: "TABLE I: Targeted molecular models",
        studies: |_| Vec::new(),
        report: table1_report,
    },
    Experiment {
        name: "table2",
        title: "TABLE II: Stride for each molecular model",
        studies: |_| Vec::new(),
        report: table2_report,
    },
    Experiment {
        name: "fig5",
        title: "FIGURE 5 — single node, JAC, stride 880",
        studies: |s| pairs_grid(s, Solution::Xfs, Placement::SingleNode, &[1, 2, 4]),
        report: fig5_report,
    },
    Experiment {
        name: "fig6",
        title: "FIGURE 6 — two nodes, JAC, stride 880",
        studies: |s| pairs_grid(s, Solution::Lustre, SPLIT8, &[1, 2, 4, 8]),
        report: fig6_report,
    },
    Experiment {
        name: "fig7",
        title: "FIGURE 7 — 2..64 nodes, 8..256 pairs, JAC",
        studies: |s| pairs_grid(s, Solution::Lustre, SPLIT8, &[8u32, 16, 32, 64, 128, 256]),
        report: fig7_report,
    },
    Experiment {
        name: "fig8",
        title: "FIGURE 8 — 2 nodes, 16 pairs, model scaling",
        studies: |s| {
            versus(s, Solution::Lustre, &Model::ALL, |sol, m| {
                let wf = WorkflowConfig::new(sol, 16, SPLIT16).with_model(m);
                (m.name().to_string(), wf)
            })
        },
        report: fig8_report,
    },
    Experiment {
        name: "fig11",
        title: "FIGURE 11 — 2 nodes, 16 pairs, JAC, strides 1/5/10/50",
        studies: |s| stride_grid(s, Model::Jac),
        report: fig11_report,
    },
    Experiment {
        name: "fig12",
        title: "FIGURE 12 — 2 nodes, 16 pairs, STMV, strides 1/5/10/50",
        studies: |s| stride_grid(s, Model::Stmv),
        report: fig12_report,
    },
    Experiment {
        name: "capacity",
        title: "CAPACITY SWEEP — 2 nodes, JAC, 8 pairs",
        studies: capacity_studies,
        report: capacity_report,
    },
    Experiment {
        name: "chaos",
        title: "CHAOS — two nodes, JAC, stride 880",
        studies: chaos_studies,
        report: chaos_report,
    },
    Experiment {
        name: "bursty",
        title: "BURSTY PRODUCTION (extension) — 2 nodes, 8 pairs, JAC-size frames, \
                mean cadence 0.82 s",
        studies: bursty_studies,
        report: bursty_report,
    },
    Experiment {
        name: "ablation",
        title: "ABLATIONS — the design choices of DESIGN.md §6, 2 nodes, 8 pairs",
        studies: ablation_studies,
        report: ablation_report,
    },
    Experiment {
        name: "streaming_fanout",
        title: "STREAMING FAN-OUT — crossover sweep, 8 groups, 2:1 leaf/spine",
        studies: fanout_studies,
        report: fanout_report,
    },
];

const SPLIT8: Placement = Placement::Split { pairs_per_node: 8 };
const SPLIT16: Placement = Placement::Split { pairs_per_node: 16 };

// ---- shared shapes ------------------------------------------------------

/// DYAD against `baseline` at every point of `axis` — the grid of
/// Figures 5–8, 11 and 12. `point` gives a solution's workflow at an
/// axis value and the value's tag; rows come out as (DYAD, baseline)
/// pairs labelled `<solution>-<tag>`.
fn versus<T: Copy>(
    scale: Scale,
    baseline: Solution,
    axis: &[T],
    point: impl Fn(Solution, T) -> (String, WorkflowConfig),
) -> Vec<(String, StudyConfig)> {
    let mut grid = Vec::new();
    for &x in axis {
        for solution in [Solution::Dyad, baseline] {
            let (tag, wf) = point(solution, x);
            grid.push((format!("{}-{tag}", solution.name()), study_at(wf, scale)));
        }
    }
    grid
}

/// The ensemble-size grids of Figures 5, 6 and 7.
fn pairs_grid(
    scale: Scale,
    baseline: Solution,
    placement: Placement,
    pairs: &[u32],
) -> Vec<(String, StudyConfig)> {
    versus(scale, baseline, pairs, |sol, p| {
        (format!("{p}p"), WorkflowConfig::new(sol, p, placement))
    })
}

/// The frame-frequency grids of Figures 11 and 12.
fn stride_grid(scale: Scale, model: Model) -> Vec<(String, StudyConfig)> {
    versus(
        scale,
        Solution::Lustre,
        &[1u64, 5, 10, 50],
        |sol, stride| {
            let wf = WorkflowConfig::new(sol, 16, SPLIT16)
                .with_model(model)
                .with_stride(stride);
            (format!("s{stride}"), wf)
        },
    )
}

/// A two-state bursty schedule with even odds of either gap.
fn bursts(burst_ms: u64, quiet_ms: u64) -> FrameSchedule {
    FrameSchedule::Bursty {
        burst_gap: SimDuration::from_millis(burst_ms),
        quiet_gap: SimDuration::from_millis(quiet_ms),
        burst_persistence: 0.5,
        burst_entry: 0.5,
    }
}

/// The report labelled `label`.
pub fn row<'a>(rows: &'a Rows, label: &str) -> &'a StudyReport {
    let found = rows.iter().find(|(l, _)| l == label);
    &found.unwrap_or_else(|| panic!("no row {label}")).1
}

/// The last (DYAD, baseline) pair of a `versus` grid: the largest
/// ensemble, where the paper reads its headline ratios.
fn last_pair(rows: &Rows) -> (&StudyReport, &StudyReport) {
    (&rows[rows.len() - 2].1, &rows[rows.len() - 1].1)
}

/// A `versus` grid's (DYAD, baseline) pairs in axis order, as the
/// finding checks take them.
fn by_axis(rows: &Rows) -> Vec<(StudyReport, StudyReport)> {
    rows.chunks(2)
        .map(|p| (p[0].1.clone(), p[1].1.clone()))
        .collect()
}

/// Walk a `versus` grid: a heading per axis point, one bar per solution
/// labelled `bar(workflow)`, then whatever the figure adds per point.
fn print_pairs(
    rows: &Rows,
    heading: impl Fn(&WorkflowConfig) -> String,
    bar: impl Fn(&WorkflowConfig) -> String,
    per_point: impl Fn(&StudyReport, &StudyReport),
) {
    for pair in rows.chunks(2) {
        let (dyad, other) = (&pair[0].1, &pair[1].1);
        println!("\n{}", heading(&dyad.workflow));
        print_bar(&bar(&dyad.workflow), dyad);
        print_bar(&bar(&other.workflow), other);
        per_point(dyad, other);
    }
}

fn pairs_bar(w: &WorkflowConfig) -> String {
    format!("{:<6} ({} pairs)", w.solution.label(), w.pairs)
}

fn stride_bar(w: &WorkflowConfig) -> String {
    format!("{:<6} (stride {})", w.solution.label(), w.stride)
}

/// How every figure ends: its finding, then the two stacked-bar charts.
fn finding_and_charts(check: FindingCheck, rows: &Rows) {
    println!(
        "\nFinding {} ({}) holds: {} — {}",
        check.number, check.statement, check.holds, check.evidence
    );
    println!();
    print!("{}", production_chart("production time per frame", rows));
    println!();
    print!("{}", consumption_chart("consumption time per frame", rows));
}

/// The movement and overall-consumption headlines Figures 6 and 7 share.
fn movement_and_overall(dyad: &StudyReport, lustre: &StudyReport, movement: &str, overall: &str) {
    print_ratio(
        "DYAD consumer data movement faster",
        movement,
        lustre.consumption_movement.mean / dyad.consumption_movement.mean,
    );
    print_ratio(
        "DYAD overall consumption faster",
        overall,
        lustre.consumption_total() / dyad.consumption_total(),
    );
}

/// Production gap averaged over strides (the headline of Figures 11/12).
fn mean_production_gap(by_stride: &[(StudyReport, StudyReport)], paper: &str) {
    let mean_gap = by_stride
        .iter()
        .map(|(d, l)| l.production_total() / d.production_total())
        .sum::<f64>()
        / by_stride.len() as f64;
    println!("\nheadline:");
    print_ratio("DYAD production faster than Lustre (mean)", paper, mean_gap);
}

// ---- Tables I and II ----------------------------------------------------

/// Table I from `mdsim::Model`, then the Figure 3 series (frame bytes vs
/// atom count) from the frames producers emit, each passing the
/// consumers' check.
fn table1_report(_: &Rows) {
    println!(
        "{:<11} {:>10} {:>14} {:>13}",
        "Name", "Num Atoms", "Frame size", "Steps/second"
    );
    for m in Model::ALL {
        let bytes = m.frame_bytes();
        let size = if bytes < 1 << 20 {
            format!("{:.2} KiB", bytes as f64 / 1024.0)
        } else {
            format!("{:.2} MiB", bytes as f64 / (1024.0 * 1024.0))
        };
        println!(
            "{:<11} {:>10} {:>14} {:>13.2}",
            m.name(),
            m.atoms(),
            size,
            m.steps_per_second()
        );
    }
    println!();
    println!("paper Table I: JAC 23,558 / 644.21 KiB / 1072.92; ApoA1 92,224 / 2.46 MiB / 358.22;");
    println!("               F1 327,506 / 8.75 MiB / 115.74; STMV 1,066,628 / 28.48 MiB / 34.14");

    println!("\nFigure 3 series (emitted frame bytes, checked as consumers check them):");
    for m in Model::ALL {
        let segs = m.frame_segments(0);
        let emitted: u64 = segs.iter().map(|s| s.len() as u64).sum();
        assert_eq!(emitted, m.frame_bytes());
        m.check_frame(&segs, 0)
            .expect("an emitted frame passes the check");
        println!(
            "  {:<10} atoms={:>9}  frame={:>10} B",
            m.name(),
            m.atoms(),
            emitted
        );
    }
}

/// Table II: every model emits a frame at (approximately) the same
/// 0.82 s cadence.
fn table2_report(_: &Rows) {
    println!(
        "{:<11} {:>13} {:>9} {:>8} {:>14}",
        "Name", "Steps/second", "ms/step", "Stride", "Frequency (s)"
    );
    for m in Model::ALL {
        println!(
            "{:<11} {:>13.2} {:>9.2} {:>8} {:>14.2}",
            m.name(),
            m.steps_per_second(),
            m.ms_per_step(),
            m.stride(),
            m.frame_period_secs()
        );
    }
    println!();
    println!("paper Table II: strides 880/294/92/28, frequency 0.82 s for every model");
    println!(
        "(F1 ATPase recomputes to 0.79 s from the paper's own steps/s column; the paper rounds)"
    );
}

// ---- Figures 5–8, 11, 12 ------------------------------------------------

/// Figure 5: DYAD produces 1.4× slower than XFS (namespace management)
/// and consumes 192.9× faster overall (adaptive synchronization).
fn fig5_report(rows: &Rows) {
    print_pairs(
        rows,
        |w| format!("{} pair(s):", w.pairs),
        |w| format!("{:<5} ({} pairs)", w.solution.label(), w.pairs),
        |_, _| {},
    );
    let (dyad, xfs) = last_pair(rows);
    println!("\nheadline (4 pairs):");
    print_ratio(
        "DYAD production slower than XFS",
        "1.4x",
        dyad.production_total() / xfs.production_total(),
    );
    print_ratio(
        "DYAD overall consumption faster than XFS",
        "192.9x",
        xfs.consumption_total() / dyad.consumption_total(),
    );
    finding_and_charts(findings::finding1(dyad, xfs), rows);
}

/// Figure 6: producers on one node, consumers on the other. DYAD's
/// producer movement is 7.5× faster (node-local storage), consumer
/// movement 6.9×, overall consumption 197.4×.
fn fig6_report(rows: &Rows) {
    print_pairs(
        rows,
        |w| format!("{} pair(s):", w.pairs),
        pairs_bar,
        |_, _| {},
    );
    let (dyad, lustre) = last_pair(rows);
    println!("\nheadline (8 pairs):");
    print_ratio(
        "DYAD production faster than Lustre",
        "7.5x",
        lustre.production_total() / dyad.production_total(),
    );
    movement_and_overall(dyad, lustre, "6.9x", "197.4x");
    // Finding 2 needs the single-node DYAD baseline, which is not a bar
    // of this figure: the 4-pair row's own workflow on one node (what
    // fig5 runs as `dyad-4p`), run here at the row's scale.
    let two_node = row(rows, "dyad-4p");
    let mut wf = two_node.workflow.clone();
    wf.placement = Placement::SingleNode;
    let study = StudyConfig::paper(wf).with_repetitions(two_node.runs.len() as u32);
    let one_node = run_study_jobs(&study, default_jobs());
    finding_and_charts(findings::finding2(&one_node, two_node), rows);
}

/// Figure 7: 8 pairs per node up to 64 nodes. DYAD's producer movement
/// is 5.3× faster, consumer movement 5.8×, overall consumption 192.0×;
/// Lustre varies more at 128/256 pairs (background interference).
fn fig7_report(rows: &Rows) {
    let variability =
        |r: &StudyReport| 100.0 * r.production_movement.std / r.production_movement.mean.max(1e-12);
    print_pairs(
        rows,
        |w| format!("{} pairs ({} nodes):", w.pairs, w.pairs / 8 * 2),
        pairs_bar,
        |dyad, lustre| {
            println!(
                "  variability (std/mean of production movement): DYAD {:.1}%  Lustre {:.1}%",
                variability(dyad),
                variability(lustre),
            )
        },
    );
    let (dyad, lustre) = last_pair(rows);
    println!("\nheadline (256 pairs):");
    print_ratio(
        "DYAD producer data movement faster",
        "5.3x",
        lustre.production_movement.mean / dyad.production_movement.mean,
    );
    movement_and_overall(dyad, lustre, "5.8x", "192.0x");
    finding_and_charts(findings::finding3(dyad, lustre), rows);
}

/// Figure 8: JAC → STMV at Table II's strides (equal frame cadence).
/// DYAD's producer movement is 2.1–6.3× faster, consumer movement
/// 1.6–6.0×, overall consumption 121.0–333.8×.
fn fig8_report(rows: &Rows) {
    print_pairs(
        rows,
        |w| format!("{} ({} B/frame):", w.model, w.model.frame_bytes()),
        |w| format!("{:<6} ({})", w.solution.label(), w.model),
        |dyad, lustre| {
            print_ratio(
                "  production movement gap",
                "2.1x..6.3x",
                lustre.production_movement.mean / dyad.production_movement.mean,
            );
            print_ratio(
                "  consumption movement gap",
                "1.6x..6.0x",
                lustre.consumption_movement.mean / dyad.consumption_movement.mean,
            );
            print_ratio(
                "  overall consumption gap",
                "121.0x..333.8x",
                lustre.consumption_total() / dyad.consumption_total(),
            );
        },
    );
    finding_and_charts(findings::finding4(&by_axis(rows)), rows);
}

/// Figure 11: DYAD's production is 4.8× faster than Lustre across
/// strides; idle grows with the stride for both, DYAD's far less.
fn fig11_report(rows: &Rows) {
    print_pairs(
        rows,
        |w| {
            let period = w.model.period_for_stride(w.stride) * 1e3;
            format!("stride {} (period {period:.2} ms):", w.stride)
        },
        stride_bar,
        |_, _| {},
    );
    let by_stride = by_axis(rows);
    mean_production_gap(&by_stride, "4.8x");
    let (first, last) = (&by_stride[0], &by_stride[by_stride.len() - 1]);
    println!(
        "  idle growth stride 1 → 50: DYAD {:.3} → {:.3} ms | Lustre {:.1} → {:.1} ms",
        first.0.consumption_idle.mean * 1e3,
        last.0.consumption_idle.mean * 1e3,
        first.1.consumption_idle.mean * 1e3,
        last.1.consumption_idle.mean * 1e3,
    );
    finding_and_charts(findings::finding5(&by_stride), rows);
}

/// Figure 12: DYAD's production is 2.0× faster; its movement improves
/// with stride (less network contention) and overall consumption is
/// 13.0–192.2× faster, the gap widening as the stride grows.
fn fig12_report(rows: &Rows) {
    print_pairs(
        rows,
        |w| {
            let period = w.model.period_for_stride(w.stride) * 1e3;
            format!("stride {} (period {period:.1} ms):", w.stride)
        },
        stride_bar,
        |dyad, lustre| {
            print_ratio(
                "  overall consumption gap",
                "13.0x..192.2x",
                lustre.consumption_total() / dyad.consumption_total(),
            )
        },
    );
    let by_stride = by_axis(rows);
    mean_production_gap(&by_stride, "2.0x");
    let move_s1 = by_stride[0].0.consumption_movement.mean;
    let move_s50 = by_stride[by_stride.len() - 1].0.consumption_movement.mean;
    print_ratio(
        "DYAD movement improves stride 1 → 50",
        "up to 1.4x",
        move_s1 / move_s50.max(1e-12),
    );
    finding_and_charts(findings::finding5(&by_stride), rows);
}

// ---- capacity -----------------------------------------------------------

/// Per-node staging budgets swept, in HALF-frames per pair (the
/// producer node stages 8 streams, so the node budget is
/// (halves/2) × frame_bytes × 8). `None` = unlimited.
const BUDGET_HALVES: [Option<u64>; 6] = [None, Some(128), Some(8), Some(4), Some(2), Some(1)];

/// How small can DYAD's node-local staging area get before its
/// advantage over Lustre disappears? The Figure 6 configuration at 8
/// pairs with the budget swept from unlimited (the paper's setup) down
/// to half a frame per pair, bounded rows spilling to the PFS, under two
/// workload shapes: the paper's periodic stride, where consumers ack
/// almost as soon as a frame is published and retirement keeps up, and a
/// bursty schedule at the same 0.82 s mean (§III-A's variable-generation
/// regime), where producers sprint ahead during 50 ms bursts, unacked
/// frames pile up on NVMe and tight budgets force spills that consumers
/// later read back from Lustre. Each shape ends with its Lustre baseline.
fn capacity_studies(scale: Scale) -> Vec<(String, StudyConfig)> {
    let mut grid = Vec::new();
    for (shape, schedule) in [("periodic", None), ("bursty", Some(bursts(50, 1590)))] {
        let mut push = |label: String, wf: WorkflowConfig| {
            let wf = match &schedule {
                Some(s) => wf.with_schedule(s.clone()),
                None => wf,
            };
            grid.push((format!("{shape} {label}"), study_at(wf, scale)));
        };
        for halves in BUDGET_HALVES {
            let wf = WorkflowConfig::new(Solution::Dyad, 8, SPLIT8);
            match halves {
                None => push("unlimited".to_string(), wf),
                Some(h) => push(
                    format!("{} frames/pair", h as f64 / 2.0),
                    wf.with_staging_budget(h * Model::Jac.frame_bytes() * 8 / 2)
                        .with_spill(true),
                ),
            }
        }
        push(
            "lustre".to_string(),
            WorkflowConfig::new(Solution::Lustre, 8, SPLIT8),
        );
    }
    grid
}

/// A capacity row's budget: its label without the shape prefix.
fn budget(label: &str) -> &str {
    label.split_once(' ').expect("shape prefix").1
}

/// One shape's table. The Lustre baseline stages nothing, so its
/// lifecycle columns are blank.
fn capacity_table(shape: &Rows) {
    println!(
        "  {:<16} {:>12} {:>12} {:>11} {:>8} {:>8} {:>8} {:>10} {:>9}",
        "budget",
        "cons move",
        "cons idle",
        "makespan",
        "evicted",
        "spilled",
        "stalls",
        "stall s",
        "pfs reads"
    );
    for (label, r) in shape {
        let staged = budget(label) != "lustre";
        let or_blank = |cell: String| if staged { cell } else { "-".to_string() };
        let count = |m: MeanStd| or_blank(format!("{:.0}", m.mean));
        println!(
            "  {:<16} {:>12} {:>12} {:>11} {:>8} {:>8} {:>8} {:>10} {:>9}",
            if staged { budget(label) } else { "Lustre" },
            fmt_secs(r.consumption_movement.mean),
            fmt_secs(r.consumption_idle.mean),
            fmt_secs(r.makespan.mean),
            count(r.evicted_frames),
            count(r.spilled_frames),
            count(r.backpressure_stalls),
            or_blank(fmt_secs(r.backpressure_stall_secs.mean)),
            count(r.pfs_fallbacks),
        );
    }
}

fn capacity_report(rows: &Rows) {
    let yes = |ok: bool, no: &'static str| if ok { "yes" } else { no };
    println!("per-node staging budget: unlimited → 0.5 frames/pair (bounded rows spill to PFS)\n");
    let (periodic, bursty) = rows.split_at(rows.len() / 2);
    println!("[periodic stride — the paper's Figure 6 configuration]");
    capacity_table(periodic);
    println!("\n[bursty stride — same 0.82 s mean rate, §III-A's variable-generation regime]");
    capacity_table(bursty);

    // Each shape is its budget rows, widest first, then its baseline.
    let (lustre, budgets) = periodic.split_last().expect("baseline row");
    let (blustre, bbudgets) = bursty.split_last().expect("baseline row");
    let (lustre, blustre) = (&lustre.1, &blustre.1);
    let unlimited = &budgets[0].1;
    let bursty_gap =
        |r: &StudyReport| blustre.consumption_movement.mean / r.consumption_movement.mean;
    println!("\nheadlines:");
    print_ratio(
        "DYAD (unlimited) consumption faster than Lustre",
        "~197x (Fig 6)",
        lustre.consumption_total() / unlimited.consumption_total(),
    );
    // Under bursts, total consumption is dominated by idling out the
    // producers' quiet gaps on both systems; the budget's effect shows
    // in the data-movement component (the paper's red bars): every
    // spilled frame turns a node-local RDMA fetch into a Lustre read.
    print_ratio(
        "bursty DYAD (unlimited) data movement faster than Lustre",
        "gap holds",
        bursty_gap(&bbudgets[0].1),
    );
    print_ratio(
        "bursty DYAD (0.5 frames/pair) data movement faster than Lustre",
        "gap closes",
        bursty_gap(&bbudgets[bbudgets.len() - 1].1),
    );

    // Shape checks read off this output.
    let unlimited_clean = unlimited.evicted_frames.mean == 0.0
        && unlimited.spilled_frames.mean == 0.0
        && unlimited.backpressure_stalls.mean == 0.0;
    println!(
        "  unlimited row reproduces the paper's DYAD (no evictions/stalls): {}",
        yes(unlimited_clean, "NO")
    );
    let moves: Vec<f64> = bbudgets
        .iter()
        .map(|(_, r)| r.consumption_movement.mean)
        .collect();
    println!(
        "  bursty data movement degrades monotonically as the budget shrinks: {}",
        yes(
            moves.windows(2).all(|w| w[1] >= w[0] * 0.95),
            "NO (within-noise inversions)"
        )
    );
    let pressured = bbudgets
        .iter()
        .any(|(_, r)| r.spilled_frames.mean > 0.0 && r.pfs_fallbacks.mean > 0.0);
    println!(
        "  tight bursty budgets spill to PFS and consumers fall back to it: {}",
        yes(pressured, "NO")
    );
    let stalled = budgets
        .iter()
        .chain(bbudgets)
        .any(|(_, r)| r.backpressure_stalls.mean > 0.0);
    println!(
        "  tight budgets trigger producer backpressure stalls: {}",
        yes(stalled, "NO")
    );

    println!();
    let bars: Vec<(String, f64, f64)> = bbudgets
        .iter()
        .map(|(l, r)| (budget(l), r))
        .chain([("Lustre", blustre)])
        .map(|(l, r)| (l.to_string(), r.consumption_movement.mean, 0.0))
        .collect();
    print!(
        "{}",
        render_bars("bursty consumption data movement per frame", &bars)
    );
}

// ---- chaos --------------------------------------------------------------

/// The Figure 6 shape, clean and under a deterministic chaos plan
/// (`MDFLOW_CHAOS_SEED` / `MDFLOW_CHAOS_EVENTS`, default 42 / 2 events
/// per fault class). One plan is replayed across all repetitions, so
/// mean/std reflect workload seeds, not schedule luck.
fn chaos_studies(scale: Scale) -> Vec<(String, StudyConfig)> {
    let plan = FaultConfig::chaos(
        crate::env_or("MDFLOW_CHAOS_SEED", 42),
        crate::env_or("MDFLOW_CHAOS_EVENTS", 2),
    );
    let mut grid = Vec::new();
    for pairs in [4u32, 8] {
        for solution in [Solution::Dyad, Solution::Lustre] {
            let tag = format!("{}-{pairs}p", solution.name());
            let wf = WorkflowConfig::new(solution, pairs, SPLIT8);
            grid.push((format!("{tag}-clean"), study_at(wf.clone(), scale)));
            let faulted = wf.with_faults(plan.clone());
            grid.push((format!("{tag}-chaos"), study_at(faulted, scale)));
        }
    }
    grid
}

/// The usual movement/idle bars next to the recovery-time split the
/// fault layer separates out — retry backoff is *recovery*, not data
/// movement — plus the typed-loss accounting.
fn chaos_report(rows: &Rows) {
    let plan = &rows[1].1.workflow.faults;
    println!(
        "plan seed {}, {} events/class",
        plan.seed, plan.events_per_class
    );
    for pair in rows.chunks(2) {
        let (clean, faulted) = (&pair[0].1, &pair[1].1);
        let wf = &clean.workflow;
        println!("\n{} {} pairs:", wf.solution.name(), wf.pairs);
        print_bar("fault-free", clean);
        print_bar("chaos", faulted);
        println!(
            "  {:<28} injected {:>5.1} | rpc retries {:>7.1} | recovery {:>11} | frames lost {:>4.1}",
            "recovery split",
            faulted.fault_injections.mean,
            faulted.rpc_retries.mean,
            fmt_secs(faulted.recovery_secs.mean),
            faulted.frames_lost.mean,
        );
        println!(
            "  {:<28} {} -> {} ({:+.1}%)",
            "makespan",
            fmt_secs(clean.makespan.mean),
            fmt_secs(faulted.makespan.mean),
            (faulted.makespan.mean / clean.makespan.mean - 1.0) * 100.0
        );
    }
}

// ---- bursty -------------------------------------------------------------

/// Burstiness ladder: the same 0.82 s mean gap (Table II's cadence) as
/// an increasingly extreme mix of fast and slow gaps, in milliseconds.
const LADDER: [(&str, Option<(u64, u64)>); 4] = [
    ("periodic (paper)", None),
    ("mild bursts (0.41s/1.23s)", Some((410, 1230))),
    ("strong bursts (0.1s/1.54s)", Some((100, 1540))),
    ("extreme bursts (0.02s/1.62s)", Some((20, 1620))),
];

/// §III-A claims DYAD is "particularly beneficial in scenarios where the
/// data generation rate varies significantly", but the paper only runs
/// fixed strides: DYAD vs Lustre at one mean rate up the ladder.
fn bursty_studies(scale: Scale) -> Vec<(String, StudyConfig)> {
    let mut grid = Vec::new();
    for (label, gaps) in LADDER {
        let schedule = gaps.map(|(burst, quiet)| bursts(burst, quiet));
        if let Some(s) = &schedule {
            assert!(
                (s.mean_gap().as_secs_f64() - 0.82).abs() < 1e-9,
                "ladder must hold the mean rate fixed"
            );
        }
        for solution in [Solution::Dyad, Solution::Lustre] {
            let mut wf = WorkflowConfig::new(solution, 8, SPLIT8);
            if let Some(s) = &schedule {
                wf = wf.with_schedule(s.clone());
            }
            grid.push((format!("{}-{label}", solution.name()), study_at(wf, scale)));
        }
    }
    grid
}

fn bursty_report(rows: &Rows) {
    for (pair, (label, _)) in rows.chunks(2).zip(LADDER) {
        let (dyad, lustre) = (&pair[0].1, &pair[1].1);
        println!("\n{label}:");
        print_bar("DYAD", dyad);
        print_bar("Lustre", lustre);
        println!(
            "  makespan: DYAD {:7.1} s | Lustre {:7.1} s ({:.2}x longer)",
            dyad.makespan.mean,
            lustre.makespan.mean,
            lustre.makespan.mean / dyad.makespan.mean
        );
    }
    println!(
        "\nmeasured story: DYAD producers never block, so frames reach storage at\n\
         burst speed and the workflow stays ~1.7-1.9x faster end to end at every\n\
         burstiness level, with 9-80x less consumer idle. But DYAD's own idle\n\
         grows with burstiness (consumers still drain at their fixed analytics\n\
         rate, so quiet gaps become waits) — §III-A's claim holds end to end\n\
         while being bounded by the consumer's processing rate."
    );
}

// ---- ablation -----------------------------------------------------------

/// The four design choices DESIGN.md §6 calls out. An arm is a study
/// like any other: where it differs from the paper's testbed it edits
/// the `Calibration` its `StudyConfig` carries.
fn ablation_studies(scale: Scale) -> Vec<(String, StudyConfig)> {
    let wf = |solution| WorkflowConfig::new(solution, 8, SPLIT8);
    let stmv = |solution| wf(solution).with_model(Model::Stmv);
    let mut grid = Vec::new();
    let mut push = |label: &str, study: StudyConfig| grid.push((label.to_string(), study));

    // 1. DYAD sync protocol: multi-protocol, KVS watch or coarse KVS
    // poll on every frame, consumers launched in phase with producers.
    for (label, warm, poll) in [
        ("dyad-warm", true, false),
        ("dyad-watch", false, false),
        ("dyad-poll", false, true),
    ] {
        let mut wf = wf(Solution::Dyad);
        wf.dyad_warm_sync = warm;
        let mut study = study_at(wf, scale);
        // In phase: whether a frame is ready when the consumer asks is a
        // coin flip, so the poll arm pays interval-rounding every miss.
        study.calibration.consumer_launch_delay = 0.0;
        study.calibration.dyad.cold_sync_poll = poll;
        study.calibration.kvs.poll_interval = SimDuration::from_millis(100);
        push(label, study);
    }
    // 2. DYAD sync over PFS storage vs full DYAD.
    push("dyad-full-stmv", study_at(stmv(Solution::Dyad), scale));
    push(
        "dyad-on-pfs-stmv",
        study_at(stmv(Solution::DyadOnPfs), scale),
    );
    push("lustre-stmv", study_at(stmv(Solution::Lustre), scale));
    // 3. Lustre stripe count.
    for stripes in [1usize, 4, 8] {
        let mut study = study_at(stmv(Solution::Lustre), scale);
        study.calibration.pfs.default_stripe_count = stripes;
        push(&format!("lustre-stripes-{stripes}"), study);
    }
    // 4. The manual sync protocol ladder, with DYAD for reference.
    for (label, sync) in [
        ("lustre-coarse", ManualSync::Coarse),
        ("lustre-fine", ManualSync::Fine),
        ("lustre-polling", ManualSync::Polling),
        ("lustre-lockbased", ManualSync::LockBased),
    ] {
        let mut wf = wf(Solution::Lustre);
        wf.manual_sync = sync;
        push(label, study_at(wf, scale));
    }
    push("dyad-ref", study_at(wf(Solution::Dyad), scale));
    grid
}

fn ablation_report(rows: &Rows) {
    let bar = |label: &str, name: &str| print_bar(label, row(rows, name));
    let idle = |name: &str| row(rows, name).consumption_idle.mean;
    let movement = |name: &str| row(rows, name).consumption_movement.mean;

    println!("\nABLATION 1 — DYAD sync protocol (2 nodes, 8 pairs, JAC)");
    println!("(consumers launched in phase with producers; the poll arm uses a");
    println!(" coarse 100 ms interval, as file-polling workflow managers do)");
    bar("multi-protocol (paper)", "dyad-warm");
    bar("KVS watch every frame", "dyad-watch");
    bar("KVS poll every frame", "dyad-poll");
    print_ratio(
        "multi-protocol vs per-frame KVS polling (idle)",
        "(mechanism behind Findings 1/5)",
        idle("dyad-poll") / idle("dyad-warm").max(1e-12),
    );

    println!("\nABLATION 2 — DYAD sync over PFS storage vs full DYAD (2 nodes, 8 pairs, STMV)");
    bar("DYAD (node-local + RDMA)", "dyad-full-stmv");
    bar("DYAD sync on PFS storage", "dyad-on-pfs-stmv");
    bar("Lustre (manual sync)", "lustre-stmv");
    print_ratio(
        "node-local+RDMA beats PFS staging (movement)",
        "(Figure 2's storage claim)",
        movement("dyad-on-pfs-stmv") / movement("dyad-full-stmv").max(1e-12),
    );
    print_ratio(
        "DYAD sync alone still beats manual sync (idle)",
        "(sync and storage are separable wins)",
        idle("lustre-stmv") / idle("dyad-on-pfs-stmv").max(1e-12),
    );

    println!("\nABLATION 3 — Lustre stripe count (2 nodes, 8 pairs, STMV)");
    for stripes in [1, 4, 8] {
        bar(
            &format!("stripe_count = {stripes}"),
            &format!("lustre-stripes-{stripes}"),
        );
    }

    println!("\nABLATION 4 — manual sync protocol ladder (2 nodes, 8 pairs, JAC, Lustre)");
    println!("(paper §III: MPI barriers, Pegasus-style polling, or middleware sync)");
    bar("coarse barrier (paper)", "lustre-coarse");
    bar("fine barrier", "lustre-fine");
    bar("marker polling (Pegasus)", "lustre-polling");
    bar("DLM lock-based", "lustre-lockbased");
    bar("DYAD automatic sync", "dyad-ref");
    print_ratio(
        "fine-grained sync reduces consumption idle",
        "(the cost of the coarse barrier)",
        idle("lustre-coarse") / idle("lustre-fine").max(1e-12),
    );
    print_ratio(
        "DYAD sync beats even marker polling (idle)",
        "(automatic, no polling cost)",
        idle("lustre-polling") / idle("dyad-ref").max(1e-12),
    );
    let makespan = |name: &str| row(rows, name).makespan.mean;
    println!(
        "  makespan: coarse {:.1}s | fine {:.1}s | polling {:.1}s | DYAD {:.1}s",
        makespan("lustre-coarse"),
        makespan("lustre-fine"),
        makespan("lustre-polling"),
        makespan("dyad-ref")
    );
}

// ---- streaming fan-out --------------------------------------------------

/// Groups in the fan-out sweep.
const GROUPS: u32 = 8;

/// Fan-out axis of the crossover sweep; the last K is also the fan-in K.
pub const FANOUTS: [u32; 3] = [1, 2, 4];

/// The PR 10 crossover: SST-style streaming M:N groups against the
/// paper's three backends on a radix-8 leaf/spine at 2:1
/// oversubscription, 4 processes per node so groups span leaves, every
/// study seeded from 11. At fan-out K streaming runs `GROUPS` groups of
/// 1 publisher → K subscribers and each baseline `GROUPS × K`
/// independent 1:1 pairs — the only way a file-per-frame backend
/// delivers every frame to K consumers is K full pipelines, which hands
/// the baselines K producers and *favors* them on the production side
/// (EXPERIMENTS.md has the caveats). The last row is the fan-in leg: K
/// publishers → 1 reducer per group at the top K, against the same
/// baselines (which have no reduce stage).
fn fanout_studies(scale: Scale) -> Vec<(String, StudyConfig)> {
    let split = Placement::Split { pairs_per_node: 4 };
    let mut grid = Vec::new();
    let mut push = |label: String, wf: WorkflowConfig| {
        let mut study = study_at(wf, scale);
        study.seed = 11;
        study.calibration.fabric =
            study
                .calibration
                .fabric
                .with_topology(TopologySpec::LeafSpine {
                    radix: 8,
                    oversubscription: 2.0,
                });
        grid.push((label, study));
    };
    let streaming = || WorkflowConfig::new(Solution::Streaming, GROUPS, split);
    for k in FANOUTS {
        push(format!("streaming-1to{k}"), streaming().with_fanout(k));
        for solution in [Solution::Dyad, Solution::Xfs, Solution::Lustre] {
            let placement = match solution {
                Solution::Xfs => Placement::SingleNode,
                _ => split,
            };
            push(
                format!("{}-{}x1to1", solution.name(), GROUPS * k),
                WorkflowConfig::new(solution, GROUPS * k, placement),
            );
        }
    }
    let k = FANOUTS[FANOUTS.len() - 1];
    push(format!("streaming-{k}to1"), streaming().with_fanin(k));
    grid
}

/// The K of a sweep row: a streaming group's fan-out or fan-in, or the K
/// whose delivery a baseline's `GROUPS × K` pairs match.
fn fanout_k(wf: &WorkflowConfig) -> u32 {
    match wf.solution {
        Solution::Streaming => wf.streaming.fanout.max(wf.streaming.fanin),
        _ => wf.pairs / GROUPS,
    }
}

/// (production, consumption) seconds per *delivered* frame. Reports
/// normalize per `pairs × frames`; rescaling to `GROUPS × K × frames`
/// puts M:N groups and 1:1 pipelines on one axis.
pub fn per_delivered(r: &StudyReport) -> (f64, f64) {
    let share = r.workflow.pairs as f64 / (GROUPS * fanout_k(&r.workflow)) as f64;
    (r.production_total() * share, r.consumption_total() * share)
}

fn fanout_report(rows: &Rows) {
    println!(
        "\n  {:<22} {:>2} {:>10} {:>14} {:>14} {:>12} {:>8}",
        "point", "K", "delivered", "prod/frame", "cons/frame", "makespan", "stalls"
    );
    for (label, r) in rows {
        let k = fanout_k(&r.workflow);
        let (prod, cons) = per_delivered(r);
        println!(
            "  {:<22} {:>2} {:>10} {:>14} {:>14} {:>12} {:>8.1}",
            label,
            k,
            u64::from(GROUPS * k) * r.workflow.frames,
            fmt_secs(prod),
            fmt_secs(cons),
            fmt_secs(r.makespan.mean),
            r.window_stalls.mean,
        );
    }
    println!("\n  consumption per delivered frame, streaming ÷ baseline:");
    for k in FANOUTS {
        let streaming = per_delivered(row(rows, &format!("streaming-1to{k}"))).1;
        let ratios: Vec<String> = ["dyad", "xfs", "lustre"]
            .iter()
            .map(|sol| {
                let base = per_delivered(row(rows, &format!("{sol}-{}x1to1", GROUPS * k))).1;
                format!("{sol} {:.3}x", streaming / base.max(1e-12))
            })
            .collect();
        println!("    fanout={k}: {}", ratios.join(", "));
    }
}
