//! The chaos oracle and plan sweep.
//!
//! A chaos run plays a [`FaultPlan`] sampled by `prophet_sim::ChaosGen`
//! through the discrete-event cluster twice. [`check_plan`] judges both
//! runs against the fault-free golden with one rule set for every fault
//! profile, each rule switched on by the plan's content. [`sweep`] is the
//! one sample-run-judge-shrink loop behind every chaos search.
//!
//! The oracle never inspects the plan's *intent* — any valid plan must pass.
//! "Degraded mode actually engages under sustained faults" is therefore not
//! checked here (a gentle plan legitimately never trips it); a dedicated
//! crafted-plan test covers that direction.

use crate::sim::{run_cluster, ClusterConfig, ElasticStats, FaultStats, RunResult};
use prophet_sim::{
    plan_to_rust, shrink, ChaosGen, ChaosProfile, Duration, FaultPlan, KindMask, SimTime,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Budgets the oracle judges a chaos run against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleBudget {
    /// Liveness bound: the faulted run must finish within this multiple of
    /// the fault-free golden duration.
    pub liveness_multiple: f64,
    /// How long after the last fault window closes Prophet may legitimately
    /// still be degraded (it needs `recover_updates` consecutive stable
    /// monitor ticks — 5 s each in the paper cell — to re-arm).
    pub degraded_grace: Duration,
}

impl OracleBudget {
    /// Defaults sized for the paper cell: generous liveness (faults repeat
    /// whole barriers, and small cells amplify relative cost) and a grace
    /// window covering `recover_updates` monitor ticks.
    pub fn paper_default() -> Self {
        OracleBudget {
            liveness_multiple: 5.0,
            degraded_grace: Duration::from_secs(16),
        }
    }
}

impl Default for OracleBudget {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The oracle's judgement of one plan's run.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanVerdict {
    /// Human-readable oracle violations; empty means the plan passed.
    pub violations: Vec<String>,
    /// Simulated duration relative to the fault-free golden (1.0 = no
    /// slowdown; `INFINITY` when the run panicked).
    pub slowdown: f64,
}

impl PlanVerdict {
    /// True when no oracle fired.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Run the cluster, converting any panic (invariant violation, internal
/// assertion) into an `Err` carrying the panic message, so a chaos sweep
/// survives its own findings.
pub fn run_sim_checked(cfg: &ClusterConfig, iters: u64) -> Result<RunResult, String> {
    let cfg = cfg.clone();
    catch_unwind(AssertUnwindSafe(move || run_cluster(&cfg, iters))).map_err(|e| {
        if let Some(s) = e.downcast_ref::<String>() {
            s.clone()
        } else if let Some(s) = e.downcast_ref::<&str>() {
            (*s).to_string()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// Judge one chaos run against its fault-free golden.
///
/// `golden` is the same configuration run with an empty [`FaultPlan`];
/// `outcome` and `rerun` are two runs under `plan`, as produced by
/// [`run_sim_checked`]. Every message starts with its rule's name:
///
/// | rule | fires when | active |
/// |------|------------|--------|
/// | safety | the run panicked (every invariant violation is a panic) | always |
/// | liveness | slowdown over `liveness_multiple`, or iterations short | always |
/// | accounting | epochs ≠ evictions + joins + shard deaths; a shard death with no restore bytes or recovery time; an epoch with no re-plan; a join with no bootstrap bytes | always |
/// | integrity | corrupt frames with no retry; a fallback restore with no corrupt snapshot; fallback depth below the fallback count | always |
/// | recovery-contract | the replay's `duration`, `iter_times`, `fault_stats` or `elastic` differ | always |
/// | ledger | extra wire bytes outside `[wasted, wasted + retried]`, exact with no replays | transient plans |
/// | stuck-degraded | Prophet still degraded `degraded_grace` after the last window | transient plans |
///
/// Accounting and integrity hold trivially on plans without permanent or
/// corruption faults. The last two rules are off for such plans: lost work,
/// restores, bootstraps and whole-slice retransmits move bytes the
/// transient sandwich cannot reconcile, and a membership epoch taints
/// Prophet's estimates at an iteration boundary, not inside a window.
///
/// That no corrupt byte reaches the model is checked on the threaded
/// engine, where real bytes flow, by [`check_threaded_bit_identity`].
pub fn check_plan(
    golden: &RunResult,
    outcome: &Result<RunResult, String>,
    rerun: &Result<RunResult, String>,
    plan: &FaultPlan,
    budget: &OracleBudget,
) -> PlanVerdict {
    let r = match outcome {
        Err(msg) => {
            return PlanVerdict {
                violations: vec![format!("safety: run panicked: {msg}")],
                slowdown: f64::INFINITY,
            }
        }
        Ok(r) => r,
    };
    let mut violations = Vec::new();
    macro_rules! rule {
        ($fired:expr, $($msg:tt)+) => {
            if $fired {
                violations.push(format!($($msg)+));
            }
        };
    }
    let (s, e) = (&r.fault_stats, &r.elastic);

    let slowdown = r.duration.as_nanos() as f64 / (golden.duration.as_nanos().max(1)) as f64;
    rule!(
        slowdown > budget.liveness_multiple,
        "liveness: faulted run took {slowdown:.2}x the fault-free duration (budget {:.2}x)",
        budget.liveness_multiple
    );
    rule!(
        r.iterations != golden.iterations,
        "liveness: completed {} iterations, golden completed {}",
        r.iterations,
        golden.iterations
    );

    rule!(
        e.epochs != e.evicted_workers + e.joined_workers + e.failed_shards,
        "accounting: {} epochs != {} evictions + {} joins + {} shard deaths",
        e.epochs,
        e.evicted_workers,
        e.joined_workers,
        e.failed_shards
    );
    let dead = e.failed_shards;
    rule!(
        dead > 0 && e.restore_bytes == 0,
        "accounting: {dead} shard deaths restored zero bytes"
    );
    rule!(
        dead > 0 && e.recovery_ns == 0,
        "accounting: {dead} shard deaths with zero measured recovery time"
    );
    rule!(
        e.epochs > 0 && e.replans == 0,
        "accounting: {} membership epochs forced zero re-plans",
        e.epochs
    );
    rule!(
        e.joined_workers > 0 && e.bootstrap_bytes == 0,
        "accounting: {} joins moved zero bootstrap bytes",
        e.joined_workers
    );

    rule!(
        s.frames_corrupted > 0 && s.retries == 0,
        "integrity: {} corrupt frames detected but zero retransmissions",
        s.frames_corrupted
    );
    rule!(
        e.restore_fallbacks > 0 && e.corrupt_snapshots == 0,
        "integrity: {} fallback restores with zero corrupt snapshots on record",
        e.restore_fallbacks
    );
    rule!(
        e.fallback_depth < e.restore_fallbacks,
        "integrity: fallback depth {} below fallback count {}",
        e.fallback_depth,
        e.restore_fallbacks
    );

    if !plan.has_permanent() && !plan.has_corruption() {
        // Extra wire volume = recorded waste + replayed slices, a subset of
        // `retried_bytes`; the slop absorbs sub-message rounding.
        const SLOP: f64 = 64.0;
        let extra = s.wire_bytes - golden.fault_stats.wire_bytes;
        let waste = s.wasted_bytes;
        rule!(
            extra < waste - SLOP,
            "ledger: extra wire bytes {extra:.1} below recorded waste {waste:.1}"
        );
        rule!(
            extra > waste + s.retried_bytes as f64 + SLOP,
            "ledger: extra wire bytes {extra:.1} exceed waste {waste:.1} + retransmissions {}",
            s.retried_bytes
        );
        rule!(
            s.replays == 0 && (extra - waste).abs() > SLOP,
            "ledger: no replays, yet extra wire bytes {extra:.1} != waste {waste:.1}"
        );
        let last_fault_end = plan.faults.iter().map(|f| f.until()).max();
        let last_fault_end = last_fault_end.unwrap_or(SimTime::ZERO);
        rule!(
            r.degraded_transitions.last().is_some_and(|&(_, d)| d)
                && last_fault_end + budget.degraded_grace < r.duration,
            "stuck-degraded: still degraded at end of run ({:?}), last fault cleared at {:?}",
            r.duration,
            last_fault_end
        );
    }

    match rerun {
        Err(msg) => violations.push(format!("recovery-contract: replay panicked: {msg}")),
        Ok(r2) => {
            rule!(
                r2.duration != r.duration,
                "recovery-contract: replay duration {:?} != {:?}",
                r2.duration,
                r.duration
            );
            rule!(
                r2.iter_times != r.iter_times,
                "recovery-contract: replay iteration times diverged"
            );
            rule!(
                r2.fault_stats != *s,
                "recovery-contract: replay fault counters diverged: {:?} != {s:?}",
                r2.fault_stats
            );
            rule!(
                r2.elastic != *e,
                "recovery-contract: replay elastic counters diverged: {:?} != {e:?}",
                r2.elastic
            );
        }
    }

    PlanVerdict {
        violations,
        slowdown,
    }
}

/// One sampled plan of a [`sweep`] and how it fared.
#[derive(Debug, Clone)]
pub struct PlanRecord {
    /// The plan as sampled.
    pub plan: FaultPlan,
    /// The oracle's judgement of the plan's run and replay.
    pub verdict: PlanVerdict,
    /// The faulted run's fault and elastic counters; `None` when it panicked.
    pub counters: Option<(FaultStats, ElasticStats)>,
    /// On a violation, the minimal plan [`shrink`] found that still violates.
    pub shrunk: Option<FaultPlan>,
}

impl PlanRecord {
    /// The violations, the plan, and the shrunk reproducer rendered as
    /// pinned-test source, for a failure message.
    pub fn report(&self) -> String {
        let mut msg = format!("{:?}\nplan: {:?}", self.verdict.violations, self.plan);
        if let Some(small) = &self.shrunk {
            msg += &format!("\nshrunk reproducer:\n{}", plan_to_rust(small));
        }
        msg
    }
}

/// Run `base` under `plan` twice and judge the pair against `golden`.
fn judge(
    base: &ClusterConfig,
    golden: &RunResult,
    iters: u64,
    plan: &FaultPlan,
    budget: &OracleBudget,
) -> (Result<RunResult, String>, PlanVerdict) {
    let mut cfg = base.clone();
    cfg.fault_plan = plan.clone();
    let outcome = run_sim_checked(&cfg, iters);
    let rerun = run_sim_checked(&cfg, iters);
    let verdict = check_plan(golden, &outcome, &rerun, plan, budget);
    (outcome, verdict)
}

/// The chaos search: run `base` fault-free for the golden, then sample
/// `plans` plans from `kinds` with a [`ChaosGen`] seeded by `seed`, judge
/// each one's run and replay with [`check_plan`], and [`shrink`] every
/// violating plan to a minimal reproducer. The profile's horizon is the
/// golden's duration, so every generated window can land mid-run.
pub fn sweep(
    base: &ClusterConfig,
    iters: u64,
    kinds: KindMask,
    seed: u64,
    plans: usize,
    budget: &OracleBudget,
) -> Vec<PlanRecord> {
    let golden = run_cluster(base, iters);
    let horizon = Duration::from_nanos(golden.duration.as_nanos());
    let profile = ChaosProfile::new(kinds, base.workers, base.ps_shards, horizon, iters);
    let mut gen = ChaosGen::new(seed);
    (0..plans)
        .map(|_| {
            let plan = gen.next_plan(&profile);
            let (outcome, verdict) = judge(base, &golden, iters, &plan, budget);
            let shrunk = (!verdict.ok()).then(|| {
                shrink(&plan, |cand| {
                    !judge(base, &golden, iters, cand, budget).1.ok()
                })
            });
            PlanRecord {
                counters: outcome.ok().map(|r| (r.fault_stats, r.elastic)),
                plan,
                verdict,
                shrunk,
            }
        })
        .collect()
}

/// The byte-level integrity oracle, threaded engine: under *any*
/// corruption plan the final model must be **bit-identical** to its
/// fault-free twin — detection plus targeted retransmit plus verified
/// restore means no corrupt byte ever reaches the accumulator or the
/// restored parameters. Returns human-readable violations (empty = pass).
pub fn check_threaded_bit_identity(
    clean: &crate::threaded::ThreadedResult,
    corrupted: &crate::threaded::ThreadedResult,
) -> Vec<String> {
    let mut violations = Vec::new();
    if clean.final_params.len() != corrupted.final_params.len() {
        violations.push(format!(
            "bit-identity: {} tensors vs {} in the fault-free twin",
            corrupted.final_params.len(),
            clean.final_params.len()
        ));
        return violations;
    }
    for (g, (a, b)) in clean
        .final_params
        .iter()
        .zip(&corrupted.final_params)
        .enumerate()
    {
        if a.len() != b.len() {
            violations.push(format!(
                "bit-identity: tensor {g} has {} elements, twin has {}",
                b.len(),
                a.len()
            ));
            continue;
        }
        let diverged = a
            .iter()
            .zip(b)
            .filter(|(x, y)| x.to_bits() != y.to_bits())
            .count();
        if diverged > 0 {
            violations.push(format!(
                "bit-identity: tensor {g} diverges in {diverged}/{} elements",
                a.len()
            ));
        }
    }
    if clean.losses.len() != corrupted.losses.len()
        || clean
            .losses
            .iter()
            .zip(&corrupted.losses)
            .any(|(x, y)| x.to_bits() != y.to_bits())
    {
        violations.push("bit-identity: per-iteration losses diverged".to_string());
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet_core::SchedulerKind;
    use prophet_dnn::TrainingJob;
    use prophet_sim::{FaultSpec, TraceRecorder};

    fn cell(kind: SchedulerKind) -> ClusterConfig {
        let mut cfg =
            ClusterConfig::paper_cell(2, 10.0, TrainingJob::paper_setup("resnet18", 16), kind);
        cfg.warmup_iters = 1;
        cfg.check_invariants = true;
        cfg
    }

    fn storm() -> FaultPlan {
        FaultPlan::new(vec![
            FaultSpec::MsgLoss {
                rate: 0.10,
                at: SimTime::ZERO + Duration::from_millis(20),
                dur: Duration::from_millis(40),
            },
            FaultSpec::ShardCrash {
                shard: 0,
                at: SimTime::ZERO + Duration::from_millis(120),
                restart_after: Duration::from_millis(25),
            },
        ])
    }

    /// Run `plan` twice on the FIFO cell with `shards` PS shards and judge
    /// the pair against the cell's fault-free golden.
    fn judge_cell(
        shards: usize,
        iters: u64,
        plan: FaultPlan,
        budget: &OracleBudget,
    ) -> (Result<RunResult, String>, PlanVerdict) {
        let mut base = cell(SchedulerKind::Fifo);
        base.ps_shards = shards;
        judge(&base, &run_cluster(&base, iters), iters, &plan, budget)
    }

    /// Judge a synthetic run and replay against a synthetic 1 s golden,
    /// with liveness headroom so the synthetic durations never trip it.
    fn judge_synthetic(run: &RunResult, rerun: &RunResult, plan: &FaultPlan) -> PlanVerdict {
        let budget = OracleBudget {
            liveness_multiple: 1e9,
            ..OracleBudget::paper_default()
        };
        let golden = synthetic(1_000, vec![]);
        check_plan(&golden, &Ok(run.clone()), &Ok(rerun.clone()), plan, &budget)
    }

    /// How many of the verdict's violations mention `rule`.
    fn fired(verdict: &PlanVerdict, rule: &str) -> usize {
        verdict
            .violations
            .iter()
            .filter(|v| v.contains(rule))
            .count()
    }

    #[test]
    fn clean_plan_passes_every_oracle() {
        let (_, verdict) = judge_cell(1, 3, storm(), &OracleBudget::paper_default());
        assert!(verdict.ok(), "violations: {:?}", verdict.violations);
        assert!(verdict.slowdown >= 1.0, "slowdown {}", verdict.slowdown);
    }

    #[test]
    fn broken_liveness_budget_fires() {
        let budget = OracleBudget {
            liveness_multiple: 1.0,
            ..OracleBudget::paper_default()
        };
        let (_, verdict) = judge_cell(1, 3, storm(), &budget);
        assert!(
            fired(&verdict, "liveness") > 0,
            "expected a liveness violation: {:?}",
            verdict.violations
        );
    }

    #[test]
    fn panicking_run_is_a_safety_violation() {
        let mut bad = cell(SchedulerKind::Fifo);
        bad.workers = 0; // validate() panics
        let outcome = run_sim_checked(&bad, 1);
        assert!(outcome.is_err());
        let golden = run_cluster(&cell(SchedulerKind::Fifo), 3);
        let verdict = check_plan(
            &golden,
            &outcome,
            &outcome,
            &FaultPlan::empty(),
            &OracleBudget::paper_default(),
        );
        assert_eq!(verdict.violations.len(), 1);
        assert!(verdict.violations[0].starts_with("safety:"));
        assert!(verdict.slowdown.is_infinite());
    }

    fn synthetic(duration_ms: u64, degraded_transitions: Vec<(SimTime, bool)>) -> RunResult {
        RunResult {
            scheduler: "test".into(),
            iterations: 3,
            duration: SimTime::ZERO + Duration::from_millis(duration_ms),
            rate: 0.0,
            rate_with_warmup: 0.0,
            iter_times: vec![],
            gpu_util: vec![],
            avg_gpu_util: 0.0,
            net_throughput: vec![],
            avg_net_throughput: 0.0,
            transfer_logs: vec![vec![]],
            iter_starts: vec![SimTime::ZERO],
            trace: TraceRecorder::disabled(),
            credit_trace: vec![],
            bandwidth_estimates: vec![],
            degraded_transitions,
            grad_spans: vec![],
            fault_stats: FaultStats::default(),
            shard_spans: vec![],
            elastic: ElasticStats::default(),
        }
    }

    fn churn() -> FaultPlan {
        FaultPlan::new(vec![
            FaultSpec::WorkerFail {
                worker: 1,
                at_iter: 3,
            },
            FaultSpec::WorkerJoin {
                worker: 2,
                at_iter: 2,
            },
            FaultSpec::ShardFail {
                shard: 1,
                at_iter: 2,
            },
        ])
    }

    #[test]
    fn clean_churn_plan_passes_every_oracle() {
        let (_, verdict) = judge_cell(2, 6, churn(), &OracleBudget::paper_default());
        assert!(verdict.ok(), "violations: {:?}", verdict.violations);
        assert!(verdict.slowdown.is_finite());
    }

    #[test]
    fn churn_oracle_catches_nondeterministic_replay() {
        let mut base = cell(SchedulerKind::Fifo);
        base.ps_shards = 2;
        let golden = run_cluster(&base, 6);
        base.fault_plan = churn();
        let outcome = run_sim_checked(&base, 6);
        // A replay from a *different* seed is a stand-in for a
        // nondeterministic recovery path: timings diverge.
        base.seed ^= 0xDEAD;
        let rerun = run_sim_checked(&base, 6);
        let budget = OracleBudget::paper_default();
        let verdict = check_plan(&golden, &outcome, &rerun, &churn(), &budget);
        assert!(
            fired(&verdict, "recovery-contract") > 0,
            "{:?}",
            verdict.violations
        );
    }

    #[test]
    fn churn_oracle_catches_inconsistent_accounting() {
        let mut broken = synthetic(1_000, vec![]);
        broken.elastic.failed_shards = 1;
        broken.elastic.epochs = 1;
        broken.elastic.replans = 2;
        // A shard died but nothing was restored and no recovery time was
        // measured: two accounting violations.
        let verdict = judge_synthetic(&broken, &broken, &churn());
        assert_eq!(fired(&verdict, "accounting"), 2, "{:?}", verdict.violations);
    }

    fn corruption() -> FaultPlan {
        FaultPlan::new(vec![
            FaultSpec::PayloadCorrupt {
                rate: 0.25,
                at: SimTime::ZERO + Duration::from_millis(5),
                dur: Duration::from_millis(400),
            },
            FaultSpec::CheckpointCorrupt {
                shard: 0,
                at_iter: 2,
            },
            FaultSpec::ShardFail {
                shard: 0,
                at_iter: 4,
            },
        ])
    }

    #[test]
    fn clean_corruption_plan_passes_every_oracle() {
        let (outcome, verdict) = judge_cell(2, 6, corruption(), &OracleBudget::paper_default());
        assert!(verdict.ok(), "violations: {:?}", verdict.violations);
        let r = outcome.unwrap();
        assert!(
            r.fault_stats.frames_corrupted > 0,
            "plan never corrupted a frame — the oracle ran on a vacuous case"
        );
        assert_eq!(r.elastic.corrupt_snapshots, 1);
    }

    #[test]
    fn corruption_oracle_catches_inconsistent_accounting() {
        let mut broken = synthetic(1_000, vec![]);
        // Detected frames with no retransmission, and a fallback restore
        // with no corrupt snapshot on record: two integrity violations.
        broken.fault_stats.frames_corrupted = 3;
        broken.elastic.restore_fallbacks = 1;
        broken.elastic.fallback_depth = 1;
        let verdict = judge_synthetic(&broken, &broken, &corruption());
        assert_eq!(fired(&verdict, "integrity"), 2, "{:?}", verdict.violations);
        // A replay whose detection counters drift is a contract violation.
        let mut drifted = broken.clone();
        drifted.fault_stats.frames_corrupted = 4;
        let verdict = judge_synthetic(&broken, &drifted, &corruption());
        assert!(
            fired(&verdict, "recovery-contract") > 0,
            "{:?}",
            verdict.violations
        );
    }

    #[test]
    fn bit_identity_oracle_spots_a_single_flipped_bit() {
        use crate::threaded::{run_threaded_training, ThreadedConfig};
        let cfg = ThreadedConfig::small(2, SchedulerKind::Fifo);
        let clean = run_threaded_training(&cfg);
        assert!(check_threaded_bit_identity(&clean, &clean).is_empty());
        let mut tampered = clean.clone();
        let v = tampered.final_params[0][0];
        tampered.final_params[0][0] = f32::from_bits(v.to_bits() ^ 1);
        let violations = check_threaded_bit_identity(&clean, &tampered);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("tensor 0"));
    }

    #[test]
    fn stuck_degraded_after_grace_fires() {
        let at = SimTime::ZERO + Duration::from_millis(50);
        let plan = FaultPlan::new(vec![FaultSpec::LinkDown {
            node: 1,
            at,
            dur: Duration::from_millis(20),
        }]);
        // Still degraded 30 s after the fault cleared: stuck.
        let stuck = synthetic(30_000, vec![(at, true)]);
        let verdict = judge_synthetic(&stuck, &stuck, &plan);
        assert!(
            fired(&verdict, "stuck-degraded") > 0,
            "{:?}",
            verdict.violations
        );
        // Degraded at end but within grace of the fault window: fine.
        let recovering = synthetic(10_000, vec![(at, true)]);
        let verdict = judge_synthetic(&recovering, &recovering, &plan);
        assert_eq!(fired(&verdict, "degraded"), 0, "{:?}", verdict.violations);
        // Recovered before the end: fine at any duration.
        let t2 = at + Duration::from_millis(500);
        let healthy = synthetic(30_000, vec![(at, true), (t2, false)]);
        let verdict = judge_synthetic(&healthy, &healthy, &plan);
        assert!(verdict.ok(), "{:?}", verdict.violations);
        // A churn plan switches the rule off: membership epochs leave no
        // wall-clock window for the grace clock to anchor to.
        let verdict = judge_synthetic(&stuck, &stuck, &churn());
        assert!(verdict.ok(), "{:?}", verdict.violations);
    }

    #[test]
    fn ledger_rule_fires_for_transient_plans_only() {
        // 10 kB of extra wire volume with no waste or retransmission on
        // record: the transient sandwich cannot reconcile it.
        let mut unledgered = synthetic(1_000, vec![]);
        unledgered.fault_stats.wire_bytes = 10_000.0;
        let verdict = judge_synthetic(&unledgered, &unledgered, &storm());
        assert!(fired(&verdict, "ledger:") > 0, "{:?}", verdict.violations);
        // Restores and bootstraps move bytes the sandwich does not model,
        // so a churn plan leaves the ledger unjudged.
        let verdict = judge_synthetic(&unledgered, &unledgered, &churn());
        assert!(verdict.ok(), "{:?}", verdict.violations);
    }

    #[test]
    fn replay_fault_counter_drift_fires_under_every_profile() {
        // Replay determinism covers the fault counters whatever kinds the
        // plan holds, not only under corruption.
        let mut first = synthetic(1_000, vec![]);
        first.fault_stats.retries = 1;
        let mut drifted = first.clone();
        drifted.fault_stats.retries = 2;
        for plan in [storm(), churn(), corruption()] {
            let verdict = judge_synthetic(&first, &drifted, &plan);
            assert_eq!(
                fired(&verdict, "replay fault counters diverged"),
                1,
                "{plan:?}: {:?}",
                verdict.violations
            );
        }
    }
}
