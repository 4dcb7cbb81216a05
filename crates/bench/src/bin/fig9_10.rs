//! Figures 9 and 10: Thicket call-tree analysis of the consumer side for
//! JAC vs STMV (2 nodes, 16 pairs, Table II strides).
//!
//! Figure 9 (DYAD): moving 45.3× more data (STMV vs JAC) costs only
//! ~33.6× more data-movement time, and the KVS synchronization
//! (`dyad_fetch`) gets ~2.1× cheaper per call for STMV (fewer, larger
//! transfers stress the KVS less).
//!
//! Figure 10 (Lustre): data movement (`consume/read_single_buf`)
//! grows ~12.3× for the 45.3× larger model, while `explicit_sync` stays
//! roughly constant — synchronization, not movement, limits Lustre.
//!
//! The binary takes no flags; `MDFLOW_REPS` / `MDFLOW_FRAMES` set the
//! scale.

use bench::{print_ratio, save_json, Scale};
use mdflow::prelude::*;
use thicket::{AggProfile, Ensemble, Query};

fn consumer_ensemble(solution: Solution, model: Model, scale: Scale) -> AggProfile {
    let wf = WorkflowConfig::new(solution, 16, Placement::Split { pairs_per_node: 16 })
        .with_model(model)
        .with_frames(scale.frames);
    let cal = Calibration::corona();
    // Repetitions share one snapshot and recycle one arena: the STMV
    // template (~30 MB) is synthesized once per figure cell, not per rep.
    let snap = ClusterSnapshot::prepare(&wf, &cal, 0xF1905u64 ^ 0x7E3A);
    let mut arena = RunArena::new();
    let mut ens = Ensemble::new();
    for rep in 0..scale.reps {
        let (run, _) = run_once_warm(&snap, 0xF1905 + rep as u64, &mut arena);
        for p in run.consumers {
            ens.push(p);
        }
    }
    ens.aggregate()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = bench::check_flags(&args, &[], &[]) {
        eprintln!("error: {e}");
        std::process::exit(2)
    }
    let scale = Scale::from_env();
    println!(
        "FIGURES 9 & 10 — Thicket call trees, 2 nodes, 16 pairs, {} frames, {} reps",
        scale.frames, scale.reps
    );

    // ---- Figure 9: DYAD -------------------------------------------------
    let dyad_jac = consumer_ensemble(Solution::Dyad, Model::Jac, scale);
    let dyad_stmv = consumer_ensemble(Solution::Dyad, Model::Stmv, scale);
    println!("\n[Figure 9a] DYAD consumer call tree, JAC:");
    print!("{}", dyad_jac.render_tree());
    println!("\n[Figure 9b] DYAD consumer call tree, STMV:");
    print!("{}", dyad_stmv.render_tree());

    let movement = Query::parse("dyad_consume/dyad_get_data");
    let store = Query::parse("dyad_consume/dyad_cons_store");
    let read = Query::parse("dyad_consume/read_single_buf");
    let fetch = Query::parse("dyad_consume/dyad_fetch");
    let move_jac =
        dyad_jac.query_time(&movement) + dyad_jac.query_time(&store) + dyad_jac.query_time(&read);
    let move_stmv = dyad_stmv.query_time(&movement)
        + dyad_stmv.query_time(&store)
        + dyad_stmv.query_time(&read);
    let data_ratio = Model::Stmv.frame_bytes() as f64 / Model::Jac.frame_bytes() as f64;
    println!("\nFigure 9 analysis:");
    print_ratio("data moved, STMV vs JAC", "45.3x", data_ratio);
    print_ratio(
        "DYAD data-movement time, STMV vs JAC",
        "33.6x",
        move_stmv / move_jac,
    );
    // Total KVS sync time under `dyad_fetch`, the one cold wait included:
    // the paper reports 2.1x cheaper for STMV.
    let fetch_jac = dyad_jac.query_time(&fetch);
    let fetch_stmv = dyad_stmv.query_time(&fetch);
    print_ratio(
        "KVS sync (dyad_fetch) cheaper for STMV",
        "2.1x",
        fetch_jac / fetch_stmv.max(1e-12),
    );

    // ---- Figure 10: Lustre ----------------------------------------------
    let lus_jac = consumer_ensemble(Solution::Lustre, Model::Jac, scale);
    let lus_stmv = consumer_ensemble(Solution::Lustre, Model::Stmv, scale);
    println!("\n[Figure 10a] Lustre consumer call tree, JAC:");
    print!("{}", lus_jac.render_tree());
    println!("\n[Figure 10b] Lustre consumer call tree, STMV:");
    print!("{}", lus_stmv.render_tree());

    let lread = Query::parse("consume/read_single_buf");
    let lsync = Query::parse("consume/explicit_sync");
    println!("\nFigure 10 analysis:");
    print_ratio(
        "Lustre data-movement time, STMV vs JAC",
        "12.3x",
        lus_stmv.query_time(&lread) / lus_jac.query_time(&lread).max(1e-12),
    );
    let sync_ratio = lus_stmv.query_time(&lsync) / lus_jac.query_time(&lsync).max(1e-12);
    print_ratio(
        "Lustre explicit_sync, STMV vs JAC (≈constant)",
        "~1x",
        sync_ratio,
    );

    println!("\nregion-by-region scaling, JAC → STMV (Thicket compare):");
    println!("[DYAD]");
    print!("{}", dyad_jac.compare_table(&dyad_stmv));
    println!("[Lustre]");
    print!("{}", lus_jac.compare_table(&lus_stmv));

    save_json(
        "fig9_10",
        &format!(
            "{{\"dyad_jac\":{},\"dyad_stmv\":{},\"lustre_jac\":{},\"lustre_stmv\":{}}}",
            dyad_jac.to_json(),
            dyad_stmv.to_json(),
            lus_jac.to_json(),
            lus_stmv.to_json()
        ),
    );
}
