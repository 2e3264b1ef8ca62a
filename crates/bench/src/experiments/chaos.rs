//! [extension] Chaos search: randomized fault plans judged by the chaos
//! oracle, with automatic shrinking of any failure and a threaded-runtime
//! parity leg.

use super::{lineup_sweep, ChaosCell};
use crate::output::ExperimentOutput;
use prophet::core::SchedulerKind;
use prophet::net::RetryPolicy;
use prophet::ps::threaded::{run_threaded_training, ThreadedConfig};
use prophet::ps::{check_threaded_bit_identity, OracleBudget};
use prophet::sim::{ChaosGen, ChaosProfile, Duration, KindMask};

/// Transient plans on 2 workers and one shard, 3 iterations per run: the
/// pinned golden cell, so fault-free durations are known-good.
const CELL: ChaosCell = ChaosCell {
    workers: 2,
    shards: 1,
    iters: 3,
    kinds: KindMask::ALL,
};

/// Plans replayed on the threaded runtime per scheduler: enough to exercise
/// every fault kind across the lineup without dominating wall clock.
const THREADED_REPLAYS: usize = 3;

/// Registry entry: a small fixed-seed search so `repro all` stays fast.
/// `repro ext_chaos <seed> [budget]` runs the same search at any scale.
pub fn ext_chaos() -> ExperimentOutput {
    run_chaos(42, 8)
}

/// The chaos search: per scheduler in the paper lineup,
/// [`prophet::ps::sweep`] `budget` transient plans through the simulator
/// (violations are shrunk to minimal reproducers and printed as
/// copy-pasteable pinned tests); then replay a fixed sample of generated
/// plans on the threaded runtime and require bit-identical final
/// parameters.
pub fn run_chaos(seed: u64, budget: usize) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "ext_chaos",
        "Chaos search: ResNet18 bs16, 2 workers, 10 Gb/s",
        "The paper argues robustness qualitatively (§5.3 varies bandwidth by \
         hand). This samples whole fault schedules from a seeded generator \
         and checks every run against safety (no invariant panic), liveness \
         (bounded slowdown, all iterations complete), the wire-byte ledger, \
         and Prophet's degraded-mode recovery — then replays plans on the \
         real threaded PS and requires a bit-identical model.",
        &[
            "strategy",
            "plans",
            "violations",
            "slowdown_min",
            "slowdown_med",
            "slowdown_max",
            "threaded_replays",
            "threaded_bit_identical",
        ],
    );

    lineup_sweep(&mut out, &CELL, seed, budget, |kind, records| {
        // Threaded parity leg: the same seeded generator (scaled to the
        // threaded run's wall clock) must not change what is computed.
        let (replayed, identical) = threaded_parity(seed, kind);
        let mut sorted: Vec<f64> = records
            .iter()
            .map(|r| r.verdict.slowdown)
            .filter(|s| s.is_finite())
            .collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite slowdowns"));
        let fmt = |x: Option<&f64>| x.map_or("-".to_string(), |v| format!("{v:.2}"));
        vec![
            fmt(sorted.first()),
            fmt(sorted.get(sorted.len() / 2)),
            fmt(sorted.last()),
            replayed.to_string(),
            identical.to_string(),
        ]
    });
    let oracle = OracleBudget::paper_default();
    out.notes = format!(
        "Seed {seed}, {budget} plans per strategy, each run twice (the second \
         run is the replay), oracle budget: {:.1}x liveness, {:?} degraded \
         grace. `slowdown` is faulted over fault-free simulated duration. The \
         threaded column counts replayed plans whose final parameters were \
         bit-identical to a fault-free threaded run — loss, crash, stall and \
         link faults may cost time, never correctness. Violations (if any) \
         are shrunk to minimal plans and printed as pinned-test source on \
         stderr.",
        oracle.liveness_multiple, oracle.degraded_grace
    );
    out
}

/// Replay [`THREADED_REPLAYS`] generated plans on the threaded runtime and
/// count how many produced a model bit-identical to the fault-free run.
fn threaded_parity(seed: u64, kind: SchedulerKind) -> (usize, usize) {
    let mk = |plan| {
        let mut cfg = ThreadedConfig::small(2, kind.clone());
        cfg.iterations = 8;
        // Losses must be detected in milliseconds, not the production 5 s.
        cfg.retry = RetryPolicy {
            base: Duration::from_millis(2),
            cap: Duration::from_millis(10),
            timeout: Duration::from_millis(40),
        };
        cfg.fault_plan = plan;
        cfg
    };
    let clean = run_threaded_training(&mk(Default::default()));
    // Horizon sized to the threaded run's wall clock so windows land mid-run.
    let profile = ChaosProfile::new(KindMask::ALL, 2, 1, Duration::from_millis(60), 0);
    let mut gen = ChaosGen::new(seed);
    let identical = (0..THREADED_REPLAYS)
        .filter(|_| {
            let faulted = run_threaded_training(&mk(gen.next_plan(&profile)));
            check_threaded_bit_identity(&clean, &faulted).is_empty()
        })
        .count();
    (THREADED_REPLAYS, identical)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "release-tier: runs many simulations")]
    fn small_search_is_violation_free() {
        let out = run_chaos(42, 4);
        assert_eq!(out.rows.len(), 4, "one row per lineup strategy");
        for row in &out.rows {
            assert_eq!(row[2], "0", "{}: oracle violations in {row:?}", row[0]);
            assert_eq!(row[6], row[7], "{}: threaded replay diverged", row[0]);
        }
    }
}
