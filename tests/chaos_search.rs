//! Chaos search end-to-end: every seeded plan sweep — transient, churn,
//! corruption, and all ten kinds mixed — through the one `sweep`, the
//! shrinker on a deliberately broken budget, plus the two crafted-plan
//! directions the oracle deliberately leaves to dedicated tests —
//! "Prophet's degraded mode actually engages" and "the adapted retry
//! timeout prevents degrade-induced retry thrash".

use prophet::core::SchedulerKind;
use prophet::dnn::TrainingJob;
use prophet::ps::sim::{run_cluster, ClusterConfig};
use prophet::ps::{check_plan, run_sim_checked, sweep, OracleBudget};
use prophet::sim::{
    plan_to_rust, shrink, ChaosGen, ChaosProfile, Duration, FaultKind, FaultPlan, FaultSpec,
    KindMask, SimTime,
};

/// ResNet18 bs16 at 10 Gb/s with one warm-up iteration, checked.
fn cell(workers: usize, shards: usize, kind: SchedulerKind) -> ClusterConfig {
    let mut c = ClusterConfig::paper_cell(
        workers,
        10.0,
        TrainingJob::paper_setup("resnet18", 16),
        kind,
    );
    c.ps_shards = shards;
    c.warmup_iters = 1;
    c.check_invariants = true;
    c
}

/// The pinned 2-worker golden cell, 3 iterations per run.
const TRANSIENT: (usize, usize, u64) = (2, 1, 3);
/// 3 workers and 2 shards, 6 iterations per run: room for a mid-run epoch,
/// a poisoned snapshot and the shard death that exposes it.
const SHARDED: (usize, usize, u64) = (3, 2, 6);

/// Sweep `plans` plans drawn from `kinds` on the `(workers, shards, iters)`
/// cell of every strategy in `lineup`, and require every plan to pass the
/// oracle. Returns, per strategy, how many plans mixed a corruption kind
/// with a transient or permanent one.
fn clean_sweep(
    lineup: Vec<SchedulerKind>,
    (workers, shards, iters): (usize, usize, u64),
    kinds: KindMask,
    seed: u64,
    plans: usize,
) -> Vec<usize> {
    let corrupt = |f: &FaultSpec| {
        matches!(
            f.kind(),
            FaultKind::PayloadCorrupt | FaultKind::CheckpointCorrupt
        )
    };
    let budget = OracleBudget::paper_default();
    lineup
        .into_iter()
        .map(|kind| {
            let label = kind.label().to_string();
            let records = sweep(
                &cell(workers, shards, kind),
                iters,
                kinds,
                seed,
                plans,
                &budget,
            );
            assert_eq!(records.len(), plans);
            for (i, r) in records.iter().enumerate() {
                assert!(
                    r.verdict.ok(),
                    "{label}: plan {i} violated the oracle: {}",
                    r.report()
                );
            }
            records
                .iter()
                .filter(|r| r.plan.faults.iter().any(corrupt) && !r.plan.faults.iter().all(corrupt))
                .count()
        })
        .collect()
}

fn lineup() -> Vec<SchedulerKind> {
    SchedulerKind::paper_lineup(1.25e9)
}

#[test]
fn chaos_smoke_is_violation_free() {
    // The debug-tier smoke: a handful of transient plans on FIFO. The
    // release-tier sweep covers the whole lineup.
    clean_sweep(vec![SchedulerKind::Fifo], TRANSIENT, KindMask::ALL, 42, 4);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-tier: full lineup x 25 plans")]
fn chaos_sweep_full_lineup_is_violation_free() {
    clean_sweep(lineup(), TRANSIENT, KindMask::ALL, 42, 25);
}

#[test]
fn churn_sweep_smoke() {
    clean_sweep(lineup(), SHARDED, KindMask::EVERYTHING, 0xE1A5, 5);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-tier: 200 plans x 4 schedulers x 2 runs"
)]
fn churn_sweep_full() {
    clean_sweep(lineup(), SHARDED, KindMask::EVERYTHING, 0xE1A5, 200);
}

#[test]
fn corruption_sweep_smoke() {
    clean_sweep(lineup(), SHARDED, KindMask::CORRUPTION, 0xC0DE, 5);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-tier: 200 plans x 4 schedulers x 2 runs"
)]
fn corruption_sweep_full() {
    clean_sweep(lineup(), SHARDED, KindMask::CORRUPTION, 0xC0DE, 200);
}

/// Every fault kind at once: transient, permanent and corruption.
fn all_ten_kinds() -> KindMask {
    KindMask::EVERYTHING
        .with(FaultKind::PayloadCorrupt)
        .with(FaultKind::CheckpointCorrupt)
}

#[test]
fn all_ten_kinds_smoke() {
    clean_sweep(
        vec![SchedulerKind::Fifo],
        SHARDED,
        all_ten_kinds(),
        0xA11,
        5,
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-tier: 200 plans x 4 schedulers x 2 runs"
)]
fn all_ten_kinds_sweep_full() {
    let mixed = clean_sweep(lineup(), SHARDED, all_ten_kinds(), 0xA11, 200);
    eprintln!("plans (of 200) mixing corruption with transient or permanent kinds: {mixed:?}");
    assert!(
        mixed.iter().all(|&m| m > 0),
        "corruption never mixed: {mixed:?}"
    );
}

#[test]
fn deliberately_broken_budget_demonstrates_the_shrinker() {
    // Tighten liveness to 1.0x — any slowdown at all is now a "violation" —
    // and feed the first multi-fault plan that trips it to the shrinker.
    // This is the end-to-end path a real chaos finding takes.
    let base = cell(TRANSIENT.0, TRANSIENT.1, SchedulerKind::Fifo);
    let golden = run_cluster(&base, 3);
    let horizon = Duration::from_nanos(golden.duration.as_nanos());
    let profile = ChaosProfile::new(KindMask::ALL, base.workers, base.ps_shards, horizon, 3);
    let broken = OracleBudget {
        liveness_multiple: 1.0,
        ..OracleBudget::paper_default()
    };
    let fails = |plan: &FaultPlan| {
        let mut faulted = base.clone();
        faulted.fault_plan = plan.clone();
        let outcome = run_sim_checked(&faulted, 3);
        let rerun = run_sim_checked(&faulted, 3);
        !check_plan(&golden, &outcome, &rerun, plan, &broken).ok()
    };
    let mut gen = ChaosGen::new(42);
    let plan = (0..64)
        .map(|_| gen.next_plan(&profile))
        .find(|p| p.faults.len() >= 2 && fails(p))
        .expect("no multi-fault plan tripped a 1.0x liveness budget in 64 draws");

    let small = shrink(&plan, fails);
    assert!(
        small.faults.len() < plan.faults.len(),
        "shrinker failed to drop any of {} specs: {small:?}",
        plan.faults.len()
    );
    assert!(fails(&small), "shrunk plan no longer reproduces");
    // Deterministic: the same plan and predicate shrink to the same output.
    assert_eq!(small, shrink(&plan, fails));
    // And the reproducer renders as pinned-test source.
    let src = plan_to_rust(&small);
    assert!(src.contains("FaultSpec::"), "not copy-pasteable: {src}");
}

#[test]
fn prophet_enters_and_exits_degraded_mode_under_a_fault_burst() {
    // The oracle only rejects *stuck* degraded mode — a gentle plan that
    // never trips it also passes. This crafted plan checks the other
    // direction: killed transfers during planned mode must put Prophet into
    // degraded mode, and stable post-fault bandwidth estimates must bring
    // it back out.
    // prophet-oracle is the last lineup entry. One monitor window ≈ one
    // iteration (~112 ms), so each estimate averages a full push phase.
    // Shorter windows beat against the iteration period and the estimates
    // never stabilize within the 10% re-plan tolerance — by design, that
    // keeps Prophet degraded.
    let lineup = SchedulerKind::paper_lineup(1.25e9);
    let mut cfg = cell(2, 1, lineup.into_iter().last().unwrap());
    cfg.monitor_period = Duration::from_millis(115);
    cfg.fault_plan = FaultPlan::new(vec![FaultSpec::LinkDown {
        // Worker 0's link (the transition log samples worker 0's scheduler).
        node: 1,
        at: SimTime::ZERO + Duration::from_millis(150),
        dur: Duration::from_millis(60),
    }]);
    let r = run_cluster(&cfg, 10);
    assert!(
        r.degraded_transitions.iter().any(|&(_, d)| d),
        "killed transfers never put Prophet in degraded mode: {:?}",
        r.degraded_transitions
    );
    assert_eq!(
        r.degraded_transitions.last().map(|&(_, d)| d),
        Some(false),
        "Prophet never recovered planned mode: {:?}",
        r.degraded_transitions
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-tier: ~30 simulated seconds of VGG19"
)]
fn adapted_retry_timeout_prevents_degrade_induced_thrash() {
    // VGG19's fc6 is ~411 MB; at 10 Gb/s x a 0.02 degrade factor the push
    // takes ~16 s — far past the flat 5 s ack deadline. Without adaptation
    // every send times out, is killed, and retries against the same slow
    // link: pure thrash with the wire never at fault. The link-adapted
    // deadline (satellite of the chaos PR) sizes itself to the worst-case
    // whole-tensor transfer and rides the window out.
    let mk = |adapt: bool| {
        let mut c = ClusterConfig::paper_cell(
            2,
            10.0,
            TrainingJob::paper_setup("vgg19", 16),
            SchedulerKind::Fifo,
        );
        c.warmup_iters = 1;
        c.adapt_retry_timeout = adapt;
        c.fault_plan = FaultPlan::new(vec![FaultSpec::LinkDegrade {
            node: 2,
            at: SimTime::ZERO + Duration::from_millis(100),
            factor: 0.02,
            dur: Duration::from_secs(30),
        }]);
        c
    };
    let thrash = run_cluster(&mk(false), 2);
    assert!(
        thrash.fault_stats.retries > 0,
        "flat 5 s timeout should thrash on a 16 s transfer: {:?}",
        thrash.fault_stats
    );
    let adapted = run_cluster(&mk(true), 2);
    assert_eq!(
        adapted.fault_stats.retries, 0,
        "adapted deadline still killed healthy-but-slow transfers: {:?}",
        adapted.fault_stats
    );
    assert!(
        adapted.duration < thrash.duration,
        "not thrashing should finish sooner: {:?} vs {:?}",
        adapted.duration,
        thrash.duration
    );
}
