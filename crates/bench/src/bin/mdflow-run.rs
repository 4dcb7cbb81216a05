//! `mdflow-run` — run a custom workflow configuration from the command
//! line (the downstream-user entry point for one-off experiments).
//!
//! ```text
//! mdflow-run [--solution dyad|xfs|lustre|dyad-on-pfs|streaming]
//!            [--model jac|apoa1|f1|stmv]
//!            [--pairs N] [--nodes single|split] [--per-node N]
//!            [--stride N] [--frames N] [--reps N] [--seed N]
//!            [--sync coarse|fine|polling|lock] [--no-warm-sync]
//!            [--fanout K] [--fanin K] [--window W] [--no-reclaim]
//!            [--kvs-shards N] [--kvs-replication R]
//!            [--topology flat|leaf-spine] [--radix N] [--oversubscription X]
//!            [--quiet-testbed] [--json] [--trace]
//! ```
//!
//! `--trace` runs one repetition (at `--seed`) with the tracer on and
//! writes a Chrome/Perfetto timeline — every producer and consumer a
//! track, every Caliper region a span — to
//! `target/experiments/trace_<solution>.json`; open it in
//! <https://ui.perfetto.dev> to watch the pipeline breathe.

use bench::fmt_secs;
use mdflow::prelude::*;

/// The flags that take a value, and the ones that stand alone: what
/// [`Args::value`] and [`Args::flag`] may be asked for, and all a
/// command line may hold.
const VALUED: [&str; 18] = [
    "--solution",
    "--model",
    "--pairs",
    "--nodes",
    "--per-node",
    "--stride",
    "--frames",
    "--reps",
    "--seed",
    "--sync",
    "--fanout",
    "--fanin",
    "--window",
    "--kvs-shards",
    "--kvs-replication",
    "--topology",
    "--radix",
    "--oversubscription",
];
const BARE: [&str; 7] = [
    "--help",
    "-h",
    "--no-warm-sync",
    "--no-reclaim",
    "--quiet-testbed",
    "--json",
    "--trace",
];

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        debug_assert!(BARE.contains(&name), "{name} is not in the flag table");
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        debug_assert!(VALUED.contains(&name), "{name} is not in the flag table");
        bench::flag_value(&self.0, name)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.value(name) {
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| die(&format!("bad value for {name}: {v}"))),
            None => default,
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("run with --help for usage");
    std::process::exit(2)
}

const HELP: &str = "\
mdflow-run — run one MD-workflow data-movement experiment

options:
  --solution dyad|xfs|lustre|dyad-on-pfs|streaming
                                           data-management solution [dyad]
  --model    jac|apoa1|f1|stmv             molecular model [jac]
  --pairs    N                             producer-consumer pairs [4]
  --nodes    single|split                  placement [split; xfs forces single]
  --per-node N                             pairs per node when split [8]
  --stride   N                             steps between frames [model default]
  --frames   N                             frames per pair [128]
  --reps     N                             repetitions [10]
  --seed     N                             base seed [0xD1AD]
  --sync     coarse|fine|polling|lock      manual sync protocol [coarse]
  --no-warm-sync                           disable DYAD's warm fast path
  --fanout   K                             streaming: 1 pub -> K subs per group [1]
  --fanin    K                             streaming: K pubs -> 1 reducer per group [1]
  --window   W                             streaming: max unacked in-flight steps [4]
  --no-reclaim                             streaming: head-of-line stall on subscriber
                                           crash instead of reclaiming window slots
  --kvs-shards N                           KVS metadata-plane shards [1]
  --kvs-replication R                      replicas per key (<= shards) [1]
  --topology flat|leaf-spine               switch topology [flat]
  --radix N                                nodes per leaf switch [16]
  --oversubscription X                     leaf uplink oversubscription [1.0]
  --quiet-testbed                          no PFS interference / jitter
  --json                                   print the full report as JSON
  --trace                                  trace one repetition into
                                           target/experiments/trace_<solution>.json
";

fn main() {
    let args = Args(std::env::args().skip(1).collect());
    if args.flag("--help") || args.flag("-h") {
        print!("{HELP}");
        return;
    }
    if let Err(e) = bench::check_flags(&args.0, &VALUED, &BARE) {
        die(&e);
    }
    let solution: Solution = args
        .value("--solution")
        .unwrap_or("dyad")
        .parse()
        .unwrap_or_else(|e: String| die(&e));
    let model = match args.value("--model").unwrap_or("jac") {
        "jac" => Model::Jac,
        "apoa1" => Model::ApoA1,
        "f1" => Model::F1Atpase,
        "stmv" => Model::Stmv,
        other => die(&format!("unknown model {other}")),
    };
    let pairs: u32 = args.num("--pairs", 4);
    let per_node: u32 = args.num("--per-node", 8);
    let placement = match args.value("--nodes") {
        Some("single") => Placement::SingleNode,
        None if solution.row().single_node_only => Placement::SingleNode,
        Some("split") | None => Placement::Split {
            pairs_per_node: per_node,
        },
        Some(other) => die(&format!("unknown placement {other}")),
    };
    let mut wf = WorkflowConfig::new(solution, pairs, placement).with_model(model);
    if let Some(stride) = args.value("--stride") {
        wf = wf.with_stride(stride.parse().unwrap_or_else(|_| die("bad --stride")));
    }
    wf = wf.with_frames(args.num("--frames", 128));
    wf.manual_sync = args
        .value("--sync")
        .unwrap_or("coarse")
        .parse()
        .unwrap_or_else(|e: String| die(&e));
    wf.dyad_warm_sync = !args.flag("--no-warm-sync");
    let fanout: u32 = args.num("--fanout", 1);
    let fanin: u32 = args.num("--fanin", 1);
    let window = args.value("--window").is_some();
    if (fanout > 1 || fanin > 1 || window) && !solution.row().groups {
        die("--fanout/--fanin/--window require --solution streaming");
    }
    wf = wf
        .with_fanout(fanout)
        .with_fanin(fanin)
        .with_stream_window(args.num("--window", 4));
    wf = wf.with_window_reclaim(!args.flag("--no-reclaim"));
    wf = wf
        .with_kvs_shards(args.num("--kvs-shards", 1))
        .with_kvs_replication(args.num("--kvs-replication", 1));
    // Every count of zero and every shape no run can execute, by the
    // name of the `WorkflowConfig` field.
    if let Err(e) = wf.validate() {
        die(&e.to_string());
    }

    let mut study = StudyConfig::paper(wf);
    study.repetitions = args.num("--reps", 10);
    if study.repetitions < 1 {
        die("--reps must be at least 1");
    }
    study.seed = args.num("--seed", 0xD1ADu64);
    if args.flag("--quiet-testbed") {
        study.calibration = Calibration::quiet();
    }
    match args.value("--topology").unwrap_or("flat") {
        "flat" => {}
        "leaf-spine" => {
            let radix: u32 = args.num("--radix", 16);
            let oversubscription: f64 = args.num("--oversubscription", 1.0);
            if radix < 1 {
                die("--radix must be at least 1");
            }
            if !(oversubscription > 0.0 && oversubscription.is_finite()) {
                die("--oversubscription must be positive and finite");
            }
            study.calibration.fabric =
                study
                    .calibration
                    .fabric
                    .with_topology(mdflow::prelude::TopologySpec::LeafSpine {
                        radix,
                        oversubscription,
                    });
        }
        other => die(&format!("unknown topology {other}")),
    }

    if args.flag("--trace") {
        trace(&study);
        return;
    }
    eprintln!(
        "running {} × {} pairs × {} frames × {} reps ({} / stride {})...",
        study.workflow.solution,
        study.workflow.pairs,
        study.workflow.frames,
        study.repetitions,
        study.workflow.model,
        study.workflow.stride,
    );
    let report = run_study_jobs(&study, default_jobs());
    if args.flag("--json") {
        println!("{}", report.to_json());
        return;
    }
    println!(
        "production:  {:>12} movement + {:>12} idle = {:>12} per frame",
        fmt_secs(report.production_movement.mean),
        fmt_secs(report.production_idle.mean),
        fmt_secs(report.production_total()),
    );
    println!(
        "consumption: {:>12} movement + {:>12} idle = {:>12} per frame",
        fmt_secs(report.consumption_movement.mean),
        fmt_secs(report.consumption_idle.mean),
        fmt_secs(report.consumption_total()),
    );
    println!(
        "makespan:    {:.2} s (±{:.2})",
        report.makespan.mean, report.makespan.std
    );
    if solution.row().groups {
        println!(
            "streaming:   group sync {:>12}/frame | {:.1} window stalls ({:.3} s stalled)",
            fmt_secs(report.group_sync_secs.mean),
            report.window_stalls.mean,
            report.window_stall_secs.mean,
        );
    }
}

/// One traced repetition of `study` at its base seed.
fn trace(study: &StudyConfig) {
    let wf = &study.workflow;
    eprintln!(
        "tracing one repetition: {} × {} pairs × {} frames...",
        wf.solution, wf.pairs, wf.frames
    );
    let (metrics, tracer) = run_once_traced(wf, &study.calibration, study.seed);
    let name = format!("trace_{}", wf.solution.name());
    bench::write_record(bench::EXPERIMENTS_DIR, &name, &tracer.to_chrome_json());
    println!(
        "  {} trace events over {:.2} simulated s ({} discrete events)",
        tracer.len(),
        metrics.makespan.as_secs_f64(),
        metrics.events
    );
    println!("open it at https://ui.perfetto.dev or chrome://tracing");
}
