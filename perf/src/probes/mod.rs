//! Isolated probes: one closed loop per layer operation, each batch
//! inside one `Sim`, reported as host time per operation. One probe per
//! file, so an API change in one layer breaks (and a later benchmark
//! issue fixes) one file. Probes call constructor-level public APIs of
//! the layer crates only.

use std::time::Instant;

use serde_json::Value;

use crate::json::{num, obj, text};
use crate::{spec, stats};

mod analytics_contact_matrix;
mod cluster_fabric_flat;
mod cluster_fabric_leafspine;
mod cluster_nvme;
mod dyad_produce_consume;
mod faults_board_probe;
mod faults_plan_generate;
mod instrument_region;
mod kvs_codec;
mod kvs_commit_lookup;
mod kvs_mesh_commit_lookup;
mod kvs_wait_wake;
mod localfs_meta;
mod localfs_write_read;
mod mdsim_frame_decode;
mod mdsim_frame_segments;
mod mdsim_template_generate;
mod pfs_codec;
mod pfs_write_read;
mod simcore_bandwidth;
mod simcore_spawn;
mod simcore_sync;
mod simcore_timer;
mod simcore_timer_cancel;
mod staging_admit_ack;
mod streaming_publish_consume;
mod thicket_aggregate;
mod transport_eager;
mod transport_rendezvous;
mod transport_rpc;

/// What one batch of a probe measured.
pub struct Sample {
    /// Operations completed (the metric's denominator).
    pub ops: f64,
    /// Host seconds the operations took; set-up of the batch excluded.
    pub secs: f64,
    /// Simulated events the batch processed (0 where meaningless).
    pub events: u64,
}

pub struct Probe {
    /// Metric fed by host time per operation.
    pub metric: &'static str,
    /// Units of `metric` per second: 1e9 for ns, 1e6 for us, 1e3 for ms.
    pub per_sec: f64,
    /// Metric fed by simulated events per operation, for the two
    /// protocol probes that report one.
    pub events_metric: Option<&'static str>,
    pub batch: fn() -> Sample,
}

const PROBES: [&Probe; 30] = [
    &simcore_timer::PROBE,
    &simcore_timer_cancel::PROBE,
    &simcore_bandwidth::PROBE,
    &simcore_spawn::PROBE,
    &simcore_sync::PROBE,
    &cluster_fabric_flat::PROBE,
    &cluster_fabric_leafspine::PROBE,
    &cluster_nvme::PROBE,
    &transport_eager::PROBE,
    &transport_rendezvous::PROBE,
    &transport_rpc::PROBE,
    &kvs_codec::PROBE,
    &kvs_commit_lookup::PROBE,
    &kvs_mesh_commit_lookup::PROBE,
    &kvs_wait_wake::PROBE,
    &localfs_write_read::PROBE,
    &localfs_meta::PROBE,
    &pfs_codec::PROBE,
    &pfs_write_read::PROBE,
    &staging_admit_ack::PROBE,
    &dyad_produce_consume::PROBE,
    &streaming_publish_consume::PROBE,
    &faults_plan_generate::PROBE,
    &faults_board_probe::PROBE,
    &instrument_region::PROBE,
    &thicket_aggregate::PROBE,
    &mdsim_template_generate::PROBE,
    &mdsim_frame_segments::PROBE,
    &mdsim_frame_decode::PROBE,
    &analytics_contact_matrix::PROBE,
];

/// Reps per probe; the reported value is their median.
const REPS: usize = 3;

/// Measured reps one `run_all` makes, for sizing its time budget.
pub fn timed_reps() -> usize {
    PROBES.len() * REPS
}

/// Run every probe, `rep_secs` of measured host time per rep, and
/// return `(metric name, {value, unit})` pairs.
pub fn run_all(rep_secs: f64) -> Vec<(String, Value)> {
    let mut out = Vec::new();
    for probe in PROBES {
        let mut per_op = Vec::with_capacity(REPS);
        let mut events_per_op = 0.0;
        (probe.batch)(); // untimed: interner tables, lazy statics, page faults
        for _ in 0..REPS {
            let (mut ops, mut secs, mut events) = (0.0, 0.0, 0u64);
            // Wall guard: a probe whose timed part is a sliver of its
            // batch must not stretch a rep without bound.
            let started = Instant::now();
            while secs < rep_secs && started.elapsed().as_secs_f64() < 20.0 * rep_secs {
                let s = (probe.batch)();
                ops += s.ops;
                secs += s.secs;
                events += s.events;
            }
            per_op.push(secs / ops * probe.per_sec);
            events_per_op = events as f64 / ops;
        }
        out.push(entry(probe.metric, stats::median(&per_op)));
        if let Some(name) = probe.events_metric {
            out.push(entry(name, events_per_op));
        }
    }
    out
}

fn entry(name: &str, value: f64) -> (String, Value) {
    let unit = spec::layer(name)
        .expect("probe metric in the spec table")
        .unit;
    (
        name.to_string(),
        obj(vec![("value", num(value)), ("unit", text(unit))]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_cover_exactly_the_probe_metrics_of_the_spec() {
        let mut have: Vec<&str> = PROBES
            .iter()
            .flat_map(|p| std::iter::once(p.metric).chain(p.events_metric))
            .collect();
        let mut want: Vec<&str> = spec::PER_LAYER
            .iter()
            .filter(|l| l.source == spec::Source::Probe)
            .map(|l| l.name)
            .collect();
        have.sort_unstable();
        want.sort_unstable();
        assert_eq!(have, want);
    }
}
