//! Elastic membership end to end: permanent worker/shard failures, worker
//! admission, checkpoint/restore and live re-sharding — under the
//! **deterministic recovery contract**: a run under any permanent-fault
//! plan computes exactly the model that membership timetable prescribes,
//! bit for bit, on both the discrete-event simulator and the real threaded
//! runtime.

use prophet::core::SchedulerKind;
use prophet::dnn::TrainingJob;
use prophet::minidnn::{Adam, Dataset, Mlp, Sgd};
use prophet::ps::sim::{run_cluster, ClusterConfig};
use prophet::ps::threaded::{run_threaded_training, PsOptimizer, ThreadedConfig};
use prophet::sim::{FaultPlan, FaultSpec};

// ---------------------------------------------------------------------------
// Threaded runtime: bit-exact parity with a membership-aware reference
// ---------------------------------------------------------------------------

/// The permanent-plan matrix. Node ids: shard `s < ps_shards`, worker
/// `ps_shards + w`; joiners take dense ids from `workers`.
fn permanent_plans(workers: usize, shards: usize) -> Vec<(&'static str, FaultPlan)> {
    let mut plans = vec![
        (
            "worker_fail",
            FaultPlan::new(vec![FaultSpec::WorkerFail {
                worker: workers - 1,
                at_iter: 4,
            }]),
        ),
        (
            "worker_join",
            FaultPlan::new(vec![FaultSpec::WorkerJoin {
                worker: workers,
                at_iter: 3,
            }]),
        ),
        (
            "churn_swap",
            FaultPlan::new(vec![
                FaultSpec::WorkerFail {
                    worker: 0,
                    at_iter: 6,
                },
                FaultSpec::WorkerJoin {
                    worker: workers,
                    at_iter: 2,
                },
            ]),
        ),
    ];
    if shards >= 2 {
        plans.push((
            "shard_fail",
            FaultPlan::new(vec![FaultSpec::ShardFail {
                shard: shards - 1,
                at_iter: 5,
            }]),
        ));
        plans.push((
            "full_churn",
            FaultPlan::new(vec![
                FaultSpec::WorkerFail {
                    worker: 0,
                    at_iter: 6,
                },
                FaultSpec::ShardFail {
                    shard: 0,
                    at_iter: 4,
                },
                FaultSpec::WorkerJoin {
                    worker: workers,
                    at_iter: 2,
                },
            ]),
        ));
    }
    if shards >= 3 {
        // Two shards dying at the same boundary: the re-balance must fold
        // both evictions into one epoch and re-home every tensor in a
        // single hop.
        plans.push((
            "double_shard_fail",
            FaultPlan::new(vec![
                FaultSpec::ShardFail {
                    shard: 0,
                    at_iter: 4,
                },
                FaultSpec::ShardFail {
                    shard: 2,
                    at_iter: 4,
                },
            ]),
        ));
    }
    plans
}

/// Membership-aware single-process reference: per iteration, average the
/// gradients of exactly the member workers (ascending id, matching the
/// PS's fixed fold order), step per-tensor optimisers. Shard deaths are
/// invisible here — that is the point: checkpoint restore is bit-exact, so
/// re-sharding must never change the computation.
fn elastic_reference(cfg: &ThreadedConfig) -> Vec<Vec<f32>> {
    let features = cfg.widths[0];
    let classes = *cfg.widths.last().unwrap();
    let data = Dataset::blobs(cfg.samples, features, classes, cfg.noise, cfg.seed);
    let model = Mlp::new(&cfg.widths, cfg.seed ^ 0xABCD);
    enum Opt {
        Sgd(Sgd),
        Adam(Adam),
    }
    let mut opt = match cfg.optimizer {
        PsOptimizer::Sgd { momentum } => {
            Opt::Sgd(Sgd::new(cfg.lr, momentum, &model.tensor_sizes()))
        }
        PsOptimizer::Adam => Opt::Adam(Adam::new(cfg.lr, &model.tensor_sizes())),
    };
    let mut params: Vec<Vec<f32>> = model.param_slices().iter().map(|p| p.to_vec()).collect();
    let total = cfg.workers + cfg.fault_plan.joined_workers();
    let per = cfg.global_batch / cfg.workers;
    for iter in 0..cfg.iterations {
        let members: Vec<usize> = (0..total)
            .filter(|&w| {
                let from = if w < cfg.workers {
                    0
                } else {
                    cfg.fault_plan.worker_join_at(w).expect("dense joiner ids")
                };
                let until = cfg.fault_plan.worker_fail_at(w).unwrap_or(u64::MAX);
                from <= iter && iter < until
            })
            .collect();
        let mut acc: Vec<Vec<f32>> = model.tensor_sizes().iter().map(|&n| vec![0.0; n]).collect();
        for &w in &members {
            // Data windows are a pure function of (absolute id, iter) —
            // identical to the runtime's, membership notwithstanding.
            let lo = ((iter as usize * cfg.global_batch) + w * per) % data.len();
            let hi = (lo + per).min(data.len()).max(lo + 1);
            let (x, labels) = data.batch(lo, hi);
            let mut replica = Mlp::new(&cfg.widths, cfg.seed ^ 0xABCD);
            for (id, p) in params.iter().enumerate() {
                replica.set_param(id, p);
            }
            replica.zero_grads();
            let _ = replica.forward_backward(&x, &labels);
            for (a, g) in acc.iter_mut().zip(replica.grad_slices()) {
                for (av, &gv) in a.iter_mut().zip(g) {
                    *av += gv;
                }
            }
        }
        let inv = 1.0 / members.len() as f32;
        for (id, a) in acc.iter_mut().enumerate() {
            for v in a.iter_mut() {
                *v *= inv;
            }
            match &mut opt {
                Opt::Sgd(o) => o.step(id, &mut params[id], a),
                Opt::Adam(o) => o.step(id, &mut params[id], a),
            }
        }
    }
    params
}

fn elastic_cfg(shards: usize, kind: SchedulerKind) -> ThreadedConfig {
    let mut cfg = ThreadedConfig::small(3, kind);
    cfg.ps_shards = shards;
    cfg.global_batch = 48;
    cfg.iterations = 10;
    cfg
}

#[test]
fn threaded_permanent_plans_match_membership_reference_bitwise() {
    // {plan kind} x {shard count} under FIFO: every cell's final model must
    // equal the membership-aware reference bit for bit. Checkpoint periods
    // of 1, 3 and 4 exercise restore-from-snapshot, snapshot+ledger replay
    // and the default cadence.
    for shards in [1usize, 2, 4] {
        for (label, plan) in permanent_plans(3, shards) {
            for period in [1u64, 3] {
                let mut cfg = elastic_cfg(shards, SchedulerKind::Fifo);
                cfg.checkpoint_period = period;
                cfg.fault_plan = plan.clone();
                let r = run_threaded_training(&cfg);
                assert!(
                    r.events_checked > 0,
                    "{label}/{shards} shards: checker not wired"
                );
                assert_eq!(
                    r.membership_epochs,
                    plan.faults.len() as u64,
                    "{label}/{shards} shards: wrong epoch count"
                );
                assert_eq!(
                    r.final_params,
                    elastic_reference(&cfg),
                    "{label}/{shards} shards/period {period}: \
                     permanent plan changed the computed model"
                );
            }
        }
    }
}

#[test]
fn threaded_permanent_plans_hold_across_the_scheduler_lineup() {
    // The full churn plan against every scheduling strategy: membership
    // reconfiguration is transport-level, schedulers must be oblivious.
    for kind in SchedulerKind::paper_lineup(100e6) {
        let label = kind.label();
        let mut cfg = elastic_cfg(2, kind.clone());
        cfg.fault_plan = FaultPlan::new(vec![
            FaultSpec::WorkerFail {
                worker: 0,
                at_iter: 6,
            },
            FaultSpec::ShardFail {
                shard: 0,
                at_iter: 4,
            },
            FaultSpec::WorkerJoin {
                worker: 3,
                at_iter: 2,
            },
        ]);
        let r = run_threaded_training(&cfg);
        assert!(r.events_checked > 0, "{label}: checker not wired");
        assert!(r.restore_bytes > 0, "{label}: shard death restored nothing");
        assert_eq!(
            r.final_params,
            elastic_reference(&cfg),
            "{label}: churn changed the computed model"
        );
    }
}

#[test]
fn threaded_elastic_runs_are_deterministic() {
    // Two runs of the same churned configuration must agree bitwise —
    // params, losses, and the recovery accounting.
    let mut cfg = elastic_cfg(2, SchedulerKind::Fifo);
    cfg.fault_plan = FaultPlan::new(vec![
        FaultSpec::ShardFail {
            shard: 1,
            at_iter: 3,
        },
        FaultSpec::WorkerFail {
            worker: 2,
            at_iter: 7,
        },
        FaultSpec::WorkerJoin {
            worker: 3,
            at_iter: 4,
        },
    ]);
    let a = run_threaded_training(&cfg);
    let b = run_threaded_training(&cfg);
    assert_eq!(a.final_params, b.final_params, "nondeterministic params");
    assert_eq!(a.losses, b.losses, "loss traces differ");
    assert_eq!(a.restore_bytes, b.restore_bytes, "restore cost differs");
    assert_eq!(a.membership_epochs, b.membership_epochs);
}

#[test]
fn threaded_joiner_past_horizon_stays_silent() {
    // A join scheduled at/after the horizon never fires: the run must be
    // bit-identical to its fault-free twin with zero epochs.
    let clean = run_threaded_training(&elastic_cfg(2, SchedulerKind::Fifo));
    let mut cfg = elastic_cfg(2, SchedulerKind::Fifo);
    cfg.fault_plan = FaultPlan::new(vec![FaultSpec::WorkerJoin {
        worker: 3,
        at_iter: cfg.iterations + 5,
    }]);
    let r = run_threaded_training(&cfg);
    assert_eq!(r.membership_epochs, 0, "phantom epoch opened");
    assert_eq!(
        r.final_params, clean.final_params,
        "phantom joiner changed the model"
    );
    assert_eq!(r.losses, clean.losses);
}

#[test]
fn threaded_checkpoint_cadence_trades_restore_bytes() {
    // A tighter checkpoint period must not change the model, and must not
    // read back MORE bytes at restore (shorter ledgers to replay).
    let plan = FaultPlan::new(vec![FaultSpec::ShardFail {
        shard: 1,
        at_iter: 7,
    }]);
    let run = |period: u64| {
        let mut cfg = elastic_cfg(2, SchedulerKind::Fifo);
        cfg.checkpoint_period = period;
        cfg.fault_plan = plan.clone();
        run_threaded_training(&cfg)
    };
    let tight = run(1);
    let loose = run(8);
    assert_eq!(
        tight.final_params, loose.final_params,
        "cadence changed the model"
    );
    assert!(tight.restore_bytes > 0 && loose.restore_bytes > 0);
    assert!(
        tight.restore_bytes <= loose.restore_bytes,
        "period 1 restored {} bytes, period 8 restored {}",
        tight.restore_bytes,
        loose.restore_bytes
    );
}

// ---------------------------------------------------------------------------
// Simulator: completion and determinism (the churn sweep lives with the
// other chaos sweeps in `chaos_search.rs`)
// ---------------------------------------------------------------------------

fn sim_cell(kind: SchedulerKind) -> ClusterConfig {
    let mut cfg =
        ClusterConfig::paper_cell(3, 10.0, TrainingJob::paper_setup("resnet18", 16), kind);
    cfg.ps_shards = 2;
    cfg.warmup_iters = 1;
    cfg.check_invariants = true;
    cfg
}

#[test]
fn sim_every_permanent_kind_completes_for_every_strategy() {
    let plans = [
        FaultPlan::new(vec![FaultSpec::WorkerFail {
            worker: 2,
            at_iter: 3,
        }]),
        FaultPlan::new(vec![FaultSpec::ShardFail {
            shard: 1,
            at_iter: 2,
        }]),
        FaultPlan::new(vec![FaultSpec::WorkerJoin {
            worker: 3,
            at_iter: 2,
        }]),
    ];
    for kind in SchedulerKind::paper_lineup(1.25e9) {
        let label = kind.label();
        for (i, plan) in plans.iter().enumerate() {
            let mut cfg = sim_cell(kind.clone());
            cfg.fault_plan = plan.clone();
            let r = run_cluster(&cfg, 6);
            assert_eq!(r.iterations, 6, "{label}/plan {i}: incomplete run");
            assert_eq!(r.elastic.epochs, 1, "{label}/plan {i}: wrong epoch count");
            if plan.has_shard_fail() {
                assert!(
                    r.elastic.restore_bytes > 0,
                    "{label}/plan {i}: restore moved no bytes"
                );
                assert!(
                    r.elastic.recovery_ns > 0,
                    "{label}/plan {i}: zero recovery time"
                );
            }
            assert!(
                r.elastic.replans >= 1,
                "{label}/plan {i}: no re-plan after the epoch"
            );
        }
    }
}

#[test]
fn sim_churn_replays_bit_identically() {
    let plan = FaultPlan::new(vec![
        FaultSpec::ShardFail {
            shard: 0,
            at_iter: 2,
        },
        FaultSpec::WorkerFail {
            worker: 0,
            at_iter: 4,
        },
        FaultSpec::WorkerJoin {
            worker: 3,
            at_iter: 3,
        },
    ]);
    for kind in SchedulerKind::paper_lineup(1.25e9) {
        let label = kind.label();
        let mut cfg = sim_cell(kind);
        cfg.fault_plan = plan.clone();
        let a = run_cluster(&cfg, 6);
        let b = run_cluster(&cfg, 6);
        assert_eq!(a.duration, b.duration, "{label}: durations diverged");
        assert_eq!(
            a.iter_times, b.iter_times,
            "{label}: iteration times diverged"
        );
        assert_eq!(a.elastic, b.elastic, "{label}: elastic counters diverged");
    }
}
