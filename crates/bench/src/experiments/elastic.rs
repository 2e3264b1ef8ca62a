//! [extension] Elastic membership: churn plans (permanent worker/shard
//! failures + admissions) judged by the chaos oracle, with recovery cost
//! accounting per scheduler and a threaded-runtime determinism leg.

use super::{lineup_sweep, median, ChaosCell};
use crate::output::ExperimentOutput;
use prophet::core::SchedulerKind;
use prophet::ps::check_threaded_bit_identity;
use prophet::ps::threaded::{run_threaded_training, ThreadedConfig};
use prophet::sim::{FaultPlan, FaultSpec, KindMask};

/// Transient and permanent plans on 3 workers and 2 shards, 6 iterations
/// per run: room for a mid-run epoch and the post-epoch re-plan to land.
const CELL: ChaosCell = ChaosCell {
    workers: 3,
    shards: 2,
    iters: 6,
    kinds: KindMask::EVERYTHING,
};

/// Registry entry: a small fixed-seed sweep so `repro all` stays fast.
/// `repro ext_elastic <seed> [budget]` runs the same sweep at any scale.
pub fn ext_elastic() -> ExperimentOutput {
    run_elastic(42, 8)
}

/// The elastic sweep: per scheduler in the paper lineup,
/// [`prophet::ps::sweep`] `budget` churn plans (transient and permanent
/// kinds) through the simulator, and aggregate the recovery cost the
/// elastic layer accounted: time from shard death to re-homed state served,
/// bytes of in-flight work lost at the death, bytes restored from
/// checkpoint + ledger, and scheduler re-plans forced by membership epochs.
/// A threaded leg replays a fixed churn plan and requires bit-identical
/// parameters across reruns.
pub fn run_elastic(seed: u64, budget: usize) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "ext_elastic",
        "Elastic membership: ResNet18 bs16, 3 workers, 2 PS shards, 10 Gb/s",
        "The paper assumes a fixed worker set for the lifetime of a job. \
         This sweeps permanent churn — worker evictions, PS shard deaths \
         with checkpoint/restore re-homing, and mid-run worker admissions — \
         sampled from a seeded generator, and holds every run to the \
         deterministic recovery contract: bounded slowdown, internally \
         consistent recovery accounting, and a bit-identical replay. The \
         cost columns are medians over the plans that exercised each path.",
        &[
            "strategy",
            "plans",
            "violations",
            "recovery_ms_med",
            "lost_work_kb_med",
            "restore_kb_med",
            "replans_total",
            "threaded_reruns",
            "threaded_bit_identical",
        ],
    );

    lineup_sweep(&mut out, &CELL, seed, budget, |kind, records| {
        let mut recovery_ns: Vec<u64> = Vec::new();
        let mut lost_work: Vec<u64> = Vec::new();
        let mut restored: Vec<u64> = Vec::new();
        let mut replans_total = 0u64;
        for (_, e) in records.iter().filter_map(|r| r.counters.as_ref()) {
            if e.failed_shards > 0 {
                recovery_ns.push(e.recovery_ns);
                lost_work.push(e.lost_work_bytes);
                restored.push(e.restore_bytes);
            }
            replans_total += e.replans;
        }
        let (reruns, identical) = threaded_determinism(kind);
        vec![
            median(&mut recovery_ns, |ns| format!("{:.2}", ns as f64 / 1e6)),
            median(&mut lost_work, |b| format!("{:.1}", b as f64 / 1024.0)),
            median(&mut restored, |b| format!("{:.1}", b as f64 / 1024.0)),
            replans_total.to_string(),
            reruns.to_string(),
            identical.to_string(),
        ]
    });
    out.notes = format!(
        "Seed {seed}, {budget} churn plans per strategy, each run twice (the \
         second run is the recovery-contract replay; any divergence is a \
         violation). recovery_ms is simulated time from shard death to the \
         re-homed tensors being served again; lost_work is in-flight \
         transfer bytes discarded at the death; restore is checkpoint + \
         ledger bytes read back. The threaded columns rerun one fixed \
         eviction+death+join plan on the real threaded PS per strategy and \
         count bit-identical parameter sets.",
    );
    out
}

/// Rerun one fixed churn plan on the threaded runtime and count bitwise
/// agreement — the threaded half of the recovery contract.
fn threaded_determinism(kind: SchedulerKind) -> (usize, usize) {
    const RERUNS: usize = 3;
    let mut cfg = ThreadedConfig::small(3, kind);
    cfg.ps_shards = 2;
    cfg.global_batch = 48;
    cfg.iterations = 8;
    cfg.fault_plan = FaultPlan::new(vec![
        FaultSpec::WorkerFail {
            worker: 0,
            at_iter: 5,
        },
        FaultSpec::ShardFail {
            shard: 1,
            at_iter: 3,
        },
        FaultSpec::WorkerJoin {
            worker: 3,
            at_iter: 2,
        },
    ]);
    let first = run_threaded_training(&cfg);
    let identical = (0..RERUNS)
        .filter(|_| check_threaded_bit_identity(&first, &run_threaded_training(&cfg)).is_empty())
        .count();
    (RERUNS, identical)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "release-tier: runs many simulations")]
    fn small_sweep_is_violation_free() {
        let out = run_elastic(42, 4);
        assert_eq!(out.rows.len(), 4, "one row per lineup strategy");
        for row in &out.rows {
            assert_eq!(row[2], "0", "{}: contract violations in {row:?}", row[0]);
            assert_eq!(row[7], row[8], "{}: threaded rerun diverged", row[0]);
        }
    }
}
