//! `perf` — the repo's one benchmark. See `perf/README.md`.
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1   one measured run (what BENCHMARK.json's command runs)
//! perf [--only W] [--smoke] [--seed N] [--seconds S] [--out FILE]
//!                                                      every workload, untraced and traced, plus the probes
//! perf --compare A.json B.json                         judge two records against the bounds
//! perf --print-spec                                    the content of BENCHMARK.json
//! ```
//!
//! The benchmark measures the simulator from outside: workloads go
//! through `mdflow::prelude` only, probes through constructor-level
//! APIs of each layer crate, one probe per file.

mod alloc;
mod child;
mod compare;
mod json;
mod probes;
mod record;
mod rep;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;
mod yardstick;

use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Command line, parsed. No environment-variable knobs.
#[derive(Default)]
pub struct Cli {
    pub workload: Option<String>,
    pub only: Option<String>,
    pub seed: Option<u64>,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
    pub out: Option<String>,
    pub compare: Option<(String, String)>,
    pub print_spec: bool,
    /// Internal: this process is a workload child.
    pub child_workload: Option<String>,
    /// Internal: this process is the probes child; seconds per probe rep.
    pub child_probes: Option<f64>,
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|e| format!("bad integer {s:?}: {e}"))
}

fn parse_secs(s: &str) -> Result<f64, String> {
    match s.parse::<f64>() {
        Ok(v) if v.is_finite() && v >= 0.0 => Ok(v),
        _ => Err(format!("bad seconds {s:?}")),
    }
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--only" => cli.only = Some(value()?),
            "--seed" => cli.seed = Some(parse_u64(&value()?)?),
            "--seconds" => cli.seconds = Some(parse_secs(&value()?)?),
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => cli.smoke = true,
            "--out" => cli.out = Some(value()?),
            "--compare" => cli.compare = Some((value()?, value()?)),
            "--print-spec" => cli.print_spec = true,
            "--child-workload" => cli.child_workload = Some(value()?),
            "--child-probes" => cli.child_probes = Some(parse_secs(&value()?)?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    let seed = cli.seed.unwrap_or(workloads::DEFAULT_SEED);
    let seconds = cli.seconds.unwrap_or(spec::RUN_SECONDS as f64);

    if cli.print_spec {
        let spec = serde_json::to_string_pretty(&spec::benchmark_json()).expect("spec serializes");
        println!("{spec}");
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &cli.compare {
        return compare::compare(a, b);
    }
    if let Some(rep_secs) = cli.child_probes {
        let metrics = probes::run_all(rep_secs);
        let line = json::obj(vec![("metrics", serde_json::Value::Object(metrics))]);
        println!(
            "{}",
            serde_json::to_string(&line).expect("result serializes")
        );
        return ExitCode::SUCCESS;
    }
    if let Some(name) = &cli.child_workload {
        let Some(w) = workloads::build(name, seed, cli.smoke) else {
            eprintln!("perf: unknown workload {name:?}");
            return ExitCode::from(2);
        };
        let args = run::RunArgs {
            seed,
            seconds,
            traced: cli.trace,
            smoke: cli.smoke,
        };
        let result = run::run_workload(&w, &args);
        println!(
            "{}",
            serde_json::to_string(&result).expect("result serializes")
        );
        return ExitCode::SUCCESS;
    }
    match &cli.workload {
        Some(name) => record::driver_run(name, seed, seconds, cli.trace, cli.smoke),
        None => record::full_record(&cli, seed, seconds),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let cli = parse_cli(&args(
            "--workload dyad_spill --seed 0x5CA1E --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("dyad_spill"));
        assert_eq!(cli.seed, Some(workloads::DEFAULT_SEED));
        assert_eq!(cli.seconds, Some(10.0));
        assert!(cli.trace && !cli.smoke);
        assert_eq!(parse_cli(&args("--seed 7")).unwrap().seed, Some(7));
    }

    #[test]
    fn malformed_arguments_are_errors_not_panics() {
        for bad in [
            "--seed",
            "--seed x",
            "--seconds -1",
            "--seconds nan",
            "--trace 2",
            "--compare a.json",
            "--frobnicate",
        ] {
            assert!(parse_cli(&args(bad)).is_err(), "{bad}");
        }
    }
}
