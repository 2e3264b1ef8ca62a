//! The three workloads, the output checks every engine run must pass, and
//! the count of attempted and failed operations.
//!
//! Why each workload was chosen is written down in `perfbench/README.md`.

use crate::layers::MlpShape;
use prophet::core::{ProphetConfig, SchedulerKind};
use prophet::dnn::TrainingJob;
use prophet::net::RetryPolicy;
use prophet::ps::sim::{ClusterConfig, RunResult};
use prophet::ps::threaded::{PsOptimizer, ThreadedConfig, ThreadedResult};
use prophet::sim::FaultPlan;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

pub const NAMES: [&str; 3] = ["threaded_vgg", "threaded_deep", "sim_paper"];

/// A threaded-PS workload: the model, the topology and the iteration
/// counts of the short and the long run of the difference quotient.
#[derive(Clone)]
pub struct ThreadedShape {
    pub mlp: MlpShape,
    pub workers: usize,
    pub shards: usize,
    pub scheduler: SchedulerKind,
    pub lo: u64,
    pub hi: u64,
}

impl ThreadedShape {
    pub fn global_batch(&self) -> usize {
        self.mlp.batch * self.workers
    }

    /// The engine's input for `seed`: the seed generates the dataset and
    /// the initial model; everything else is fixed by the workload.
    pub fn config(&self, seed: u64, iterations: u64) -> ThreadedConfig {
        ThreadedConfig {
            workers: self.workers,
            ps_shards: self.shards,
            widths: self.mlp.widths.clone(),
            samples: 64,
            noise: 0.8,
            seed,
            global_batch: self.global_batch(),
            iterations,
            lr: 0.01,
            optimizer: PsOptimizer::Sgd { momentum: 0.9 },
            scheduler: self.scheduler.clone(),
            link_bps: None,
            check_invariants: false,
            ps_restart_at_iter: None,
            fault_plan: FaultPlan::empty(),
            retry: RetryPolicy::paper_default(),
            checkpoint_period: 4,
            checkpoint_retention: 2,
            agg_threads: 0,
        }
    }
}

/// A simulator workload: one cluster cell per scheduler of the lineup.
#[derive(Clone)]
pub struct SimShape {
    pub model: &'static str,
    pub batch: u32,
    pub workers: usize,
    pub shards: usize,
    pub gbps: f64,
    pub lineup: Vec<SchedulerKind>,
    pub warmup_iters: u64,
    /// Simulated iterations per engine run.
    pub iters: u64,
}

impl SimShape {
    pub fn bps(&self) -> f64 {
        self.gbps * 1e9 / 8.0
    }

    pub fn job(&self) -> TrainingJob {
        TrainingJob::paper_setup(self.model, self.batch)
    }

    /// The engine's input for `seed` (which drives the compute jitter):
    /// one config per scheduler of the lineup.
    pub fn configs(&self, job: &TrainingJob, seed: u64) -> Vec<ClusterConfig> {
        self.lineup
            .iter()
            .map(|kind| {
                let mut c =
                    ClusterConfig::paper_cell(self.workers, self.gbps, job.clone(), kind.clone());
                c.ps_shards = self.shards;
                c.warmup_iters = self.warmup_iters;
                c.seed = seed;
                c.check_invariants = false;
                c
            })
            .collect()
    }
}

pub enum Shape {
    Threaded(ThreadedShape),
    Sim(SimShape),
}

/// Prophet as the repo's experiments configure it for a 10 Gb/s link.
fn prophet_10g() -> ProphetConfig {
    ProphetConfig::paper_default(1.25e9)
}

/// The workload called `name`; `smoke` shrinks it to a toy size that
/// checks the pipeline in seconds.
pub fn shape(name: &str, smoke: bool) -> Option<Shape> {
    let deep_widths = |layers: usize| {
        let mut w = vec![64; layers + 1];
        w.push(10);
        w
    };
    Some(match (name, smoke) {
        ("threaded_vgg", false) => Shape::Threaded(ThreadedShape {
            mlp: MlpShape {
                widths: vec![512, 2048, 2048, 512, 10],
                batch: 4,
            },
            workers: 4,
            shards: 2,
            scheduler: SchedulerKind::Fifo,
            lo: 2,
            hi: 12,
        }),
        ("threaded_vgg", true) => Shape::Threaded(ThreadedShape {
            mlp: MlpShape {
                widths: vec![32, 64, 10],
                batch: 4,
            },
            workers: 4,
            shards: 2,
            scheduler: SchedulerKind::Fifo,
            lo: 2,
            hi: 6,
        }),
        ("threaded_deep", _) => Shape::Threaded(ThreadedShape {
            mlp: MlpShape {
                widths: deep_widths(if smoke { 4 } else { 32 }),
                batch: 4,
            },
            workers: 4,
            shards: 2,
            scheduler: SchedulerKind::Prophet(prophet_10g()),
            lo: if smoke { 2 } else { 60 },
            hi: if smoke { 6 } else { 200 },
        }),
        ("sim_paper", _) => Shape::Sim(SimShape {
            model: if smoke { "resnet18" } else { "resnet50" },
            batch: 64,
            workers: 3,
            shards: 1,
            gbps: 4.0,
            lineup: SchedulerKind::paper_lineup(4e9 / 8.0),
            warmup_iters: 3,
            iters: if smoke { 5 } else { 12 },
        }),
        _ => return None,
    })
}

/// FNV-1a over the bits of every parameter: equal fingerprints mean
/// bit-identical models (up to a 2^-64 collision).
pub fn fingerprint(params: &[Vec<f32>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in params.iter().flatten() {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The checks one threaded run must pass. `must_learn` also demands that
/// the model learned: the mean loss of the run's last tenth below that of
/// its first tenth (single iterations, for runs under 20). Single
/// mini-batch losses are too noisy to compare on long runs: a run whose
/// windowed loss halves can still end on a batch above its first.
/// `must_learn` is set for the long run of each pair; a two-iteration run
/// under momentum need not have descended yet.
pub fn check_threaded(cfg: &ThreadedConfig, r: &ThreadedResult, must_learn: bool) -> Vec<String> {
    let mut bad = Vec::new();
    if r.losses.len() as u64 != cfg.iterations {
        bad.push(format!(
            "finished {} of {} iterations",
            r.losses.len(),
            cfg.iterations
        ));
    }
    if r.losses.iter().any(|l| !l.is_finite()) {
        bad.push("non-finite loss".into());
    }
    if must_learn {
        let k = (r.losses.len() / 10).max(1);
        let mean = |w: &[f32]| w.iter().sum::<f32>() / w.len().max(1) as f32;
        let first = mean(&r.losses[..k.min(r.losses.len())]);
        let last = mean(&r.losses[r.losses.len().saturating_sub(k)..]);
        if last >= first {
            bad.push(format!(
                "loss did not fall: mean of the first {k} iterations {first}, of the last {k} {last}"
            ));
        }
    }
    for (what, n) in [
        ("retries", r.retries),
        ("messages_lost", r.messages_lost),
        ("corrupt_frames_detected", r.corrupt_frames_detected),
    ] {
        if n != 0 {
            bad.push(format!("{what} = {n} on a fault-free run"));
        }
    }
    bad
}

/// The checks one simulator run must pass.
pub fn check_sim(cfg: &ClusterConfig, iters: u64, r: &RunResult) -> Vec<String> {
    let mut bad = Vec::new();
    if r.iterations != iters || r.iter_times.len() as u64 != iters {
        bad.push(format!(
            "finished {} of {iters} iterations",
            r.iter_times.len()
        ));
    }
    // The steady rate is measured after the warm-up; a run no longer than
    // the warm-up (the set-up intercept's short run) reports none.
    if !(r.rate.is_finite() && (r.rate > 0.0 || iters <= cfg.warmup_iters)) {
        bad.push(format!(
            "rate {} after {} warm-up iterations",
            r.rate, cfg.warmup_iters
        ));
    }
    if !(r.fault_stats.wire_bytes.is_finite() && r.fault_stats.wire_bytes > 0.0) {
        bad.push("no bytes crossed the wire".into());
    }
    if r.fault_stats.retries != 0 || r.fault_stats.messages_lost != 0 {
        bad.push("retries or lost messages on a fault-free run".into());
    }
    bad
}

/// What a simulator run must reproduce bit for bit on every repeat.
pub fn sim_outputs(r: &RunResult) -> [u64; 3] {
    [
        r.rate.to_bits(),
        r.duration.0,
        r.fault_stats.wire_bytes.to_bits(),
    ]
}

/// First-seen output per input key; later repeats must match it.
pub struct Repeats<K, V> {
    first: HashMap<K, V>,
}

impl<K: std::hash::Hash + Eq + std::fmt::Debug, V: PartialEq + std::fmt::Debug> Repeats<K, V> {
    pub fn new() -> Self {
        Repeats {
            first: HashMap::new(),
        }
    }

    /// `None` when `value` matches the first value seen for `key`.
    pub fn check(&mut self, key: K, value: V) -> Option<String> {
        match self.first.get(&key) {
            Some(v) if *v != value => Some(format!(
                "repeat of {key:?} differs: {value:?} vs first {v:?}"
            )),
            Some(_) => None,
            None => {
                self.first.insert(key, value);
                None
            }
        }
    }
}

/// Attempted and failed operations; one engine run is one operation.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    /// Run one engine call as an operation. A panic is caught and the
    /// operation counts as failed; so does any problem `check` reports.
    /// Returns the result unless the call panicked.
    pub fn run<T>(
        &mut self,
        what: &str,
        call: impl FnOnce() -> T,
        check: impl FnOnce(&T) -> Vec<String>,
    ) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(call)) {
            Ok(out) => {
                let problems = check(&out);
                if !problems.is_empty() {
                    self.failed += 1;
                    self.failures
                        .extend(problems.into_iter().map(|p| format!("{what}: {p}")));
                }
                Some(out)
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "panic".into());
                self.failed += 1;
                self.failures.push(format!("{what}: panicked: {msg}"));
                None
            }
        }
    }

    /// Record a problem found across runs (a repeat that differs, a
    /// counter that disagrees with the config) without a new operation.
    pub fn flag(&mut self, problem: String) {
        self.failures.push(problem);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet::ps::sim::run_cluster;
    use prophet::ps::threaded::run_threaded_training;

    fn toy_threaded() -> (ThreadedConfig, ThreadedShape) {
        let Some(Shape::Threaded(shape)) = shape("threaded_vgg", true) else {
            panic!("threaded_vgg is threaded");
        };
        (shape.config(3, shape.hi), shape)
    }

    #[test]
    fn every_workload_has_a_full_and_a_smoke_shape() {
        for name in NAMES {
            assert!(
                shape(name, false).is_some() && shape(name, true).is_some(),
                "{name}"
            );
        }
        assert!(shape("nope", false).is_none());
    }

    #[test]
    fn threaded_checks_pass_a_clean_run_and_reject_a_tampered_one() {
        let (cfg, _) = toy_threaded();
        let r = run_threaded_training(&cfg);
        assert_eq!(check_threaded(&cfg, &r, true), Vec::<String>::new());

        let mut short = r.clone();
        short.losses.pop();
        assert!(!check_threaded(&cfg, &short, true).is_empty());

        let mut nan = r.clone();
        nan.losses[1] = f32::NAN;
        assert!(!check_threaded(&cfg, &nan, false).is_empty());

        let mut diverged = r.clone();
        *diverged.losses.last_mut().unwrap() = diverged.losses[0] + 1.0;
        assert!(!check_threaded(&cfg, &diverged, true).is_empty());
        assert!(check_threaded(&cfg, &diverged, false).is_empty());

        // On long runs the windows, not single batches, decide.
        let mut long_cfg = cfg.clone();
        long_cfg.iterations = 200;
        let mut noisy = r.clone();
        noisy.losses = (0..200).map(|i| 2.0 - i as f32 / 200.0).collect();
        noisy.losses[199] = 3.0;
        assert!(check_threaded(&long_cfg, &noisy, true).is_empty());
        noisy.losses = vec![2.0; 200];
        assert!(!check_threaded(&long_cfg, &noisy, true).is_empty());

        let mut retried = r.clone();
        retried.retries = 1;
        assert!(!check_threaded(&cfg, &retried, true).is_empty());

        let mut tampered = r.clone();
        tampered.final_params[0][0] += 1.0;
        let mut repeats = Repeats::new();
        assert!(repeats
            .check(cfg.iterations, fingerprint(&r.final_params))
            .is_none());
        assert!(repeats
            .check(cfg.iterations, fingerprint(&tampered.final_params))
            .is_some());
    }

    #[test]
    fn sim_checks_pass_a_clean_run_and_reject_a_tampered_one() {
        let Some(Shape::Sim(shape)) = shape("sim_paper", true) else {
            panic!("sim_paper is a simulator workload");
        };
        let cfg = shape.configs(&shape.job(), 5).remove(0);
        let r = run_cluster(&cfg, shape.iters);
        assert_eq!(check_sim(&cfg, shape.iters, &r), Vec::<String>::new());
        let mut repeats = Repeats::new();
        assert!(repeats.check(0, sim_outputs(&r)).is_none());
        assert!(repeats
            .check(0, sim_outputs(&run_cluster(&cfg, shape.iters)))
            .is_none());

        let mut tampered = r.clone();
        tampered.rate *= 1.0 + f64::EPSILON;
        assert!(repeats.check(0, sim_outputs(&tampered)).is_some());
        tampered.rate = 0.0;
        assert!(!check_sim(&cfg, shape.iters, &tampered).is_empty());
    }

    #[test]
    fn ops_count_panics_and_failed_checks() {
        let mut ops = Ops::default();
        assert_eq!(ops.run("ok", || 1, |_| vec![]), Some(1));
        assert_eq!(ops.run("bad", || 2, |_| vec!["wrong".into()]), Some(2));
        assert_eq!(
            ops.run("boom", || -> i32 { panic!("kaboom") }, |_| vec![]),
            None
        );
        assert_eq!((ops.attempted, ops.failed), (3, 2));
        assert!(ops.failures[1].contains("kaboom"));
    }
}
