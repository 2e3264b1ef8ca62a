//! The fault layer's two determinism contracts.
//!
//! 1. **An empty `FaultPlan` is inert**: the durations and iteration times
//!    below were captured on the commit *before* the fault layer landed —
//!    this file asserts the instrumented engine reproduces them to the
//!    nanosecond, for every scheduler in the paper lineup.
//! 2. **A non-empty plan is replayable**: the same plan plus the same seed
//!    reproduces the same run bit-for-bit, and every scheduler completes
//!    all iterations (no hang, no dropped gradient) under each fault class.

use prophet::core::SchedulerKind;
use prophet::dnn::TrainingJob;
use prophet::ps::sim::{run_cluster, ClusterConfig};
use prophet::sim::{Duration, FaultPlan, FaultSpec, SimTime};

fn cell(kind: SchedulerKind) -> ClusterConfig {
    let mut c = ClusterConfig::paper_cell(2, 10.0, TrainingJob::paper_setup("resnet18", 16), kind);
    c.warmup_iters = 1;
    c
}

fn ms(v: u64) -> SimTime {
    SimTime::ZERO + Duration::from_millis(v)
}

/// `(label, total duration ns, per-iteration ns)` captured on a
/// fault-free engine build. Floats in the simulator are
/// IEEE-deterministic across debug and release, so exact equality is the
/// right assertion.
///
/// Provenance: originally captured on the commit before the fault layer
/// landed; re-captured (shifts of tens of ns per iteration) when the fluid
/// engine moved to fractional-residual completion predictions — the old
/// `remaining.ceil()` rounding quantised completions up to a whole byte.
/// The inertness contract is unchanged: both tests below compare
/// plan-free, empty-plan, and intensity-0 runs against this same table,
/// so they must all agree with each other to the nanosecond.
const GOLDEN: &[(&str, u64, [u64; 3])] = &[
    (
        "mxnet-fifo",
        426_122_152,
        [132_616_298, 131_769_018, 131_736_836],
    ),
    ("p3", 635_785_127, [201_428_944, 201_863_257, 202_492_529]),
    (
        "bytescheduler",
        361_216_402,
        [111_092_508, 109_969_958, 110_153_936],
    ),
    (
        "prophet-oracle",
        366_815_320,
        [112_979_927, 111_832_524, 112_002_869],
    ),
];

#[test]
fn empty_fault_plan_reproduces_pre_fault_layer_goldens() {
    for kind in SchedulerKind::paper_lineup(1.25e9) {
        let label = kind.label().to_string();
        let Some(&(_, duration, iters)) = GOLDEN.iter().find(|(l, _, _)| *l == label) else {
            panic!("no golden for scheduler {label}");
        };
        let r = run_cluster(&cell(kind), 3);
        assert_eq!(
            r.duration,
            SimTime::ZERO + Duration::from_nanos(duration),
            "{label}: total duration drifted — the fault layer is not inert"
        );
        let got: Vec<u64> = r.iter_times.iter().map(|d| d.as_nanos()).collect();
        assert_eq!(got, iters.to_vec(), "{label}: iteration times drifted");
        assert_eq!(r.fault_stats.retries, 0, "{label}");
        assert_eq!(r.fault_stats.flows_killed, 0, "{label}");
    }
}

#[test]
fn intensity_zero_chaos_profile_is_provably_inert() {
    // An intensity-0 profile generates `FaultPlan::empty()` without a single
    // RNG draw, so a chaos run configured with it must hit the engine's
    // fault-free fast path and reproduce the pre-fault-layer goldens to the
    // nanosecond — not merely "be statistically similar".
    use prophet::sim::{ChaosGen, ChaosProfile, KindMask};
    let mut profile = ChaosProfile::new(KindMask::ALL, 2, 1, Duration::from_millis(500), 0);
    profile.intensity = 0.0;
    let plan = ChaosGen::new(42).next_plan(&profile);
    assert_eq!(plan, FaultPlan::empty());
    for kind in SchedulerKind::paper_lineup(1.25e9) {
        let label = kind.label().to_string();
        let Some(&(_, duration, _)) = GOLDEN.iter().find(|(l, _, _)| *l == label) else {
            panic!("no golden for scheduler {label}");
        };
        let mut cfg = cell(kind);
        cfg.fault_plan = plan.clone();
        let r = run_cluster(&cfg, 3);
        assert_eq!(
            r.duration,
            SimTime::ZERO + Duration::from_nanos(duration),
            "{label}: an intensity-0 chaos plan perturbed the simulation"
        );
    }
}

fn storm() -> FaultPlan {
    FaultPlan::new(vec![
        FaultSpec::LinkDown {
            node: 2,
            at: ms(30),
            dur: Duration::from_millis(50),
        },
        FaultSpec::MsgLoss {
            rate: 0.15,
            at: ms(100),
            dur: Duration::from_millis(120),
        },
        FaultSpec::ShardCrash {
            shard: 0,
            at: ms(290),
            restart_after: Duration::from_millis(40),
        },
        FaultSpec::WorkerStall {
            worker: 0,
            at: ms(420),
            dur: Duration::from_millis(60),
        },
    ])
}

#[test]
fn same_plan_same_seed_same_trace() {
    for kind in SchedulerKind::paper_lineup(1.25e9) {
        let label = kind.label();
        let mut cfg = cell(kind.clone());
        cfg.fault_plan = storm();
        cfg.typed_trace = true;
        let a = run_cluster(&cfg, 4);
        let b = run_cluster(&cfg, 4);
        assert_eq!(a.iter_times, b.iter_times, "{label}: iteration times");
        assert_eq!(a.duration, b.duration, "{label}: duration");
        assert_eq!(a.fault_stats, b.fault_stats, "{label}: fault stats");
        assert_eq!(a.grad_spans, b.grad_spans, "{label}: typed spans");
    }
}

#[test]
fn every_scheduler_completes_under_each_fault_class() {
    let classes: Vec<(&str, FaultPlan)> = vec![
        (
            "link_down",
            FaultPlan::new(vec![FaultSpec::LinkDown {
                node: 2,
                at: ms(40),
                dur: Duration::from_millis(60),
            }]),
        ),
        (
            "link_degrade",
            FaultPlan::new(vec![FaultSpec::LinkDegrade {
                node: 0,
                at: ms(20),
                factor: 0.2,
                dur: Duration::from_millis(300),
            }]),
        ),
        (
            "msg_loss",
            FaultPlan::new(vec![FaultSpec::MsgLoss {
                rate: 0.2,
                at: ms(0),
                dur: Duration::from_millis(200),
            }]),
        ),
        (
            "shard_crash",
            FaultPlan::new(vec![FaultSpec::ShardCrash {
                shard: 0,
                at: ms(45),
                restart_after: Duration::from_millis(50),
            }]),
        ),
        (
            "worker_stall",
            FaultPlan::new(vec![FaultSpec::WorkerStall {
                worker: 1,
                at: ms(15),
                dur: Duration::from_millis(120),
            }]),
        ),
    ];
    for (class, plan) in &classes {
        for kind in SchedulerKind::paper_lineup(1.25e9) {
            let label = kind.label().to_string();
            let mut cfg = cell(kind);
            cfg.fault_plan = plan.clone();
            let r = run_cluster(&cfg, 3);
            assert_eq!(
                r.iter_times.len(),
                3,
                "{label} under {class}: incomplete run"
            );
            assert!(
                r.fault_stats.retries == 0 || r.fault_stats.recoveries > 0,
                "{label} under {class}: retried but never recovered: {:?}",
                r.fault_stats
            );
        }
    }
}
