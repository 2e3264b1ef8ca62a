//! One module per section of the paper's evaluation.

pub mod chaos;
pub mod effectiveness;
pub mod elastic;
pub mod extensions;
pub mod faults;
pub mod integrity;
pub mod motivation;
pub mod overhead;
pub mod robustness;
pub mod scale;
pub mod threaded;

use crate::output::ExperimentOutput;
use prophet::core::{ProphetConfig, SchedulerKind};
use prophet::dnn::TrainingJob;
use prophet::ps::sim::{run_cluster, ClusterConfig, RunResult};
use prophet::ps::{sweep, OracleBudget, PlanRecord};
use prophet::sim::KindMask;

/// The standard testbed cell used across experiments: 1 PS + `workers`
/// nodes at `gbps`, paper defaults otherwise.
pub fn cell(
    model: &str,
    batch: u32,
    workers: usize,
    gbps: f64,
    kind: SchedulerKind,
) -> ClusterConfig {
    ClusterConfig::paper_cell(workers, gbps, TrainingJob::paper_setup(model, batch), kind)
}

/// The cell and plan space of one `ext_*` chaos sweep.
pub struct ChaosCell {
    /// Workers in the ResNet18 bs16 10 Gb/s cell.
    pub workers: usize,
    /// PS shards in the cell.
    pub shards: usize,
    /// Iterations per simulated run (plus one warm-up).
    pub iters: u64,
    /// The fault kinds plans are drawn from.
    pub kinds: KindMask,
}

/// For every paper-lineup strategy, [`sweep`] `budget` plans seeded by
/// `seed` on `cell` (invariant checking on even in release), print each
/// violation with its shrunk reproducer to stderr, and append the row
/// `strategy, plans, violations` followed by `columns(strategy, records)`.
pub fn lineup_sweep(
    out: &mut ExperimentOutput,
    cell: &ChaosCell,
    seed: u64,
    budget: usize,
    mut columns: impl FnMut(SchedulerKind, &[PlanRecord]) -> Vec<String>,
) {
    let oracle = OracleBudget::paper_default();
    for kind in SchedulerKind::paper_lineup(1.25e9) {
        let label = kind.label().to_string();
        let mut base = self::cell("resnet18", 16, cell.workers, 10.0, kind.clone());
        base.ps_shards = cell.shards;
        base.warmup_iters = 1;
        base.check_invariants = true;
        let records = sweep(&base, cell.iters, cell.kinds, seed, budget, &oracle);
        let bad: Vec<&PlanRecord> = records.iter().filter(|r| !r.verdict.ok()).collect();
        for r in &bad {
            eprintln!("[{}] {label}: oracle violation: {}", out.id, r.report());
        }
        let mut row = vec![label, budget.to_string(), bad.len().to_string()];
        row.extend(columns(kind, &records));
        out.row(row);
    }
}

/// Median of a sample, rendered with `fmt` (`-` when empty).
pub fn median<T: Copy + Ord>(xs: &mut [T], fmt: impl Fn(T) -> String) -> String {
    if xs.is_empty() {
        return "-".to_string();
    }
    xs.sort_unstable();
    fmt(xs[xs.len() / 2])
}

/// Steady-state run with enough warm-up for the monitor to settle.
pub fn steady(cfg: &mut ClusterConfig, iters: u64) -> RunResult {
    cfg.warmup_iters = (iters / 3).max(2);
    run_cluster(cfg, iters)
}

/// The steady-state Prophet configuration for a `gbps` network.
pub fn prophet(gbps: f64) -> SchedulerKind {
    SchedulerKind::ProphetOracle(ProphetConfig::paper_default(gbps * 1e9 / 8.0))
}

/// ByteScheduler at the paper's default credit.
pub fn bytescheduler() -> SchedulerKind {
    SchedulerKind::ByteScheduler(Default::default())
}

/// P3 with the paper's 4 MB partitions.
pub fn p3() -> SchedulerKind {
    SchedulerKind::P3 {
        partition_bytes: 4 << 20,
    }
}

/// Format samples/sec.
pub fn r1(x: f64) -> String {
    format!("{x:.1}")
}

/// Format a ratio as a percentage improvement.
pub fn pct(new: f64, old: f64) -> String {
    format!("{:+.1}%", (new / old - 1.0) * 100.0)
}
