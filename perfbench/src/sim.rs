//! The simulator workload: `run_cluster` timed from outside.

use crate::host::{self, Usage};
use crate::probes::{ProbeShape, Probes};
use crate::report::Report;
use crate::stats::{difference_quotient, median, relative_spread};
use crate::trace::Tracer;
use crate::workload::{check_sim, sim_outputs, Ops, Repeats, SimShape};
use prophet::core::SchedulerKind;
use prophet::dnn::TrainingJob;
use prophet::ps::sim::{run_cluster, ClusterConfig, RunResult};
use std::hint::black_box;
use std::time::Instant;

/// Fewest rounds (a short and a long lineup pass) a run measures,
/// however long they take.
const MIN_ROUNDS: usize = 3;

/// Iterations of the smallest run `run_cluster` accepts (it rejects 0):
/// the run `setup_s` times, and the short run of the set-up intercept.
const SHORT_ITERS: u64 = 1;

/// Typed spans the simulator records per (worker, gradient, iteration):
/// queue-wait, push, aggregate, pull and compute.
const SPAN_KINDS: u64 = 5;

/// Lanes of the span trace (`ClusterConfig::trace`) that hold one record
/// per push and per pull task of worker 0.
const TASK_LANES: [&str; 2] = ["w0.up", "w0.down"];

/// One timed engine run and the process resources it used.
struct Timed {
    r: RunResult,
    wall_s: f64,
    usage: Usage,
}

/// The harness around every engine call: times it, checks its output and
/// requires rate, duration and wire bytes to repeat bit for bit per cell
/// and iteration count, traced or not.
struct Runner<'a> {
    configs: Vec<ClusterConfig>,
    ops: &'a mut Ops,
    outputs: Repeats<(usize, u64), [u64; 3]>,
}

impl<'a> Runner<'a> {
    fn new(shape: &SimShape, job: &TrainingJob, seed: u64, ops: &'a mut Ops) -> Self {
        Runner {
            configs: shape.configs(job, seed),
            ops,
            outputs: Repeats::new(),
        }
    }

    /// `traced` turns on both the typed spans and the span trace whose
    /// task records the ledger counts.
    fn run(
        &mut self,
        cell: usize,
        iters: u64,
        traced: bool,
        tracer: &Tracer,
        run_id: u64,
    ) -> Option<Timed> {
        let mut cfg = self.configs[cell].clone();
        cfg.typed_trace = traced;
        cfg.trace = traced;
        let u0 = host::usage();
        let t = Instant::now();
        let r = self.ops.run(
            &format!("run_cluster({}, iters={iters})", cfg.scheduler.label()),
            || tracer.span("ps_sim.run_cluster", run_id, || run_cluster(&cfg, iters)),
            |r| check_sim(&cfg, iters, r),
        )?;
        let wall_s = t.elapsed().as_secs_f64();
        let usage = host::usage() - u0;
        if let Some(p) = self.outputs.check((cell, iters), sim_outputs(&r)) {
            self.ops.flag(format!("rate/duration/wire_bytes: {p}"));
        }
        Some(Timed { r, wall_s, usage })
    }

    /// Every cell of the lineup once.
    fn pass(
        &mut self,
        iters: u64,
        traced: bool,
        tracer: &Tracer,
        run_id: u64,
    ) -> Option<Vec<Timed>> {
        let cells: Vec<Option<Timed>> = (0..self.configs.len())
            .map(|c| self.run(c, iters, traced, tracer, run_id))
            .collect();
        cells.into_iter().collect()
    }
}

fn host_ms_per_iter(shape: &SimShape, cells: &[Timed]) -> f64 {
    let secs: f64 = cells.iter().map(|c| c.wall_s).sum();
    1e3 * secs / (cells.len() as u64 * shape.iters) as f64
}

/// `TrainingJob::paper_setup` and the lineup's config build, seconds.
fn job_setup_s(shape: &SimShape, seed: u64) -> f64 {
    let t = Instant::now();
    black_box(shape.configs(&shape.job(), seed));
    t.elapsed().as_secs_f64()
}

/// Host time `run_cluster` spends outside its iterations: a short and a
/// long run of the same cell, back to back, extrapolated to zero
/// iterations.
fn intercept_s(shape: &SimShape, t_short: f64, t_long: f64) -> f64 {
    let per_iter = difference_quotient(SHORT_ITERS, t_short, shape.iters, t_long);
    t_short - SHORT_ITERS as f64 * per_iter
}

/// The untraced run: `setup_s`, `train_samples_per_s`, `peak_rss_mib`.
pub fn measure(shape: &SimShape, seed: u64, deadline: Instant, ops: &mut Ops, out: &mut Report) {
    let off = Tracer::off();
    host::reset_peak_rss();
    let job = shape.job();
    let mut runner = Runner::new(shape, &job, seed, ops);
    let cells = runner.configs.len();
    // Each round times the job and config build and a lineup pass in which
    // every cell runs short then long, so every metric samples the whole
    // measuring window and each intercept compares two runs made under
    // the same machine state.
    let mut setup = Vec::new();
    let mut intercepts = Vec::new();
    let mut host_ms = Vec::new();
    let mut rates = Vec::new();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || Instant::now() < deadline {
        let job_s = job_setup_s(shape, seed);
        let pairs: Option<Vec<(Timed, Timed)>> = (0..cells)
            .map(|c| {
                let short = runner.run(c, SHORT_ITERS, false, &off, 0)?;
                Some((short, runner.run(c, shape.iters, false, &off, 0)?))
            })
            .collect();
        if let Some(pairs) = pairs {
            setup.push(job_s + pairs.iter().map(|(s, _)| s.wall_s).sum::<f64>());
            intercepts.push(
                pairs
                    .iter()
                    .map(|(s, l)| intercept_s(shape, s.wall_s, l.wall_s))
                    .sum::<f64>(),
            );
            let long: Vec<Timed> = pairs.into_iter().map(|(_, l)| l).collect();
            host_ms.push(host_ms_per_iter(shape, &long));
            rates = long
                .iter()
                .map(|c| (c.r.scheduler.clone(), c.r.rate))
                .collect();
        }
        rounds += 1;
    }
    let peak = host::peak_rss_mib();
    let intercept = median(&intercepts);
    let setup_s = median(&setup);
    let ms = median(&host_ms);
    let samples_per_iter = (shape.workers as u64 * u64::from(shape.batch)) as f64;
    out.metric("setup_s", setup_s, "s");
    out.metric("train_samples_per_s", samples_per_iter * 1e3 / ms, "1/s");
    out.metric("peak_rss_mib", peak, "MiB");
    out.line(format!(
        "setup_s {setup_s:.6} s: job and config build plus run_cluster at {SHORT_ITERS} iteration for every cell (median of {} rounds, spread {:.3})",
        setup.len(),
        relative_spread(&setup)
    ));
    out.line(format!(
        "setup_s.intercept {intercept:.6} s: run_cluster's fixed cost at zero iterations, from the {SHORT_ITERS}- and {}-iteration runs, summed over the lineup (median of {} rounds, spread {:.3}; not gated: below the run-to-run noise)",
        shape.iters,
        intercepts.len(),
        relative_spread(&intercepts)
    ));
    out.line(format!(
        "sim_host_ms_per_iter {ms:.3} ms (median of {} lineup passes of {} iterations per cell, spread {:.3}); train_samples_per_s counts {} simulated samples per iteration",
        host_ms.len(),
        shape.iters,
        relative_spread(&host_ms),
        samples_per_iter
    ));
    for (label, rate) in &rates {
        out.line(format!(
            "sim_rate_samples_per_s.{label} {rate} 1/s (per worker, simulated, bit-identical across repeats)"
        ));
    }
    if let Some((_, rate)) = rates.last() {
        out.line(format!("sim_rate_samples_per_s {rate} 1/s (Prophet)"));
    }
}

/// Whether a scheduler's tasks depend on when transfers finish. Prophet
/// groups and splits gradients by the transfer times it observes, so its
/// task count in the engine differs from the probe's synthetic clock;
/// FIFO, P3 and ByteScheduler emit a fixed task set per iteration.
fn timing_dependent(kind: &SchedulerKind) -> bool {
    matches!(
        kind,
        SchedulerKind::Prophet(_) | SchedulerKind::ProphetOracle(_)
    )
}

/// Worker 0's push and pull tasks in a traced run, from the span trace.
fn engine_tasks(r: &RunResult) -> u64 {
    TASK_LANES
        .iter()
        .map(|lane| r.trace.lane(lane).count() as u64)
        .sum()
}

/// Matches one traced run's counters against what the config implies
/// before any ledger uses them: typed spans, wire bytes and, for the
/// schedulers whose tasks do not depend on timing, worker 0's tasks.
fn cross_check(
    shape: &SimShape,
    job: &TrainingJob,
    cfg: &ClusterConfig,
    cycle_tasks: u64,
    t: &Timed,
    ops: &mut Ops,
) {
    let (iters, workers) = (shape.iters, shape.workers as u64);
    let label = cfg.scheduler.label();
    let want_spans = SPAN_KINDS * workers * job.num_gradients() as u64 * iters;
    if t.r.grad_spans.len() as u64 != want_spans {
        ops.flag(format!(
            "ledger cross-check ({label}): {} grad spans, config implies {want_spans}",
            t.r.grad_spans.len()
        ));
    }
    let want_wire = 2.0 * (workers * job.total_bytes() * iters) as f64;
    let got_wire = t.r.fault_stats.wire_bytes;
    if (got_wire - want_wire).abs() > 1e-9 * want_wire {
        ops.flag(format!(
            "ledger cross-check ({label}): wire_bytes {got_wire}, config implies {want_wire}"
        ));
    }
    let want_tasks = cycle_tasks * iters;
    if !timing_dependent(&cfg.scheduler) && engine_tasks(&t.r) != want_tasks {
        ops.flag(format!(
            "ledger cross-check ({label}): worker 0 ran {} tasks, the scheduler's cycle implies {want_tasks}",
            engine_tasks(&t.r)
        ));
    }
}

/// The traced run: typed spans and engine counters, the cross-check of
/// those counters against the config, and the host-time ledger.
pub fn trace(
    shape: &SimShape,
    seed: u64,
    deadline: Instant,
    ops: &mut Ops,
    tracer: &Tracer,
    probe_shape: &ProbeShape,
    out: &mut Report,
) {
    let job = shape.job();
    let mut runner = Runner::new(shape, &job, seed, ops);
    let off = Tracer::off();
    let iters = shape.iters;
    // Each round runs the probe suite, an untraced and a traced lineup
    // pass, so the ledger's per-call costs and the tracing overhead are
    // read against the same stretch of machine time as the engine.
    // `untraced` and `traced` hold every cell of every pass, in lineup order.
    let mut probe_runs = Vec::new();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut run_id = 1;
    loop {
        probe_runs.push(tracer.span("probes", run_id, || probe_shape.run(seed, tracer, run_id)));
        untraced.extend(runner.pass(iters, false, &off, 0).into_iter().flatten());
        let pass = tracer.span("pass", run_id, || runner.pass(iters, true, tracer, run_id));
        traced.extend(pass.into_iter().flatten());
        run_id += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    if traced.is_empty() {
        runner.ops.flag("no traced lineup pass completed".into());
        return;
    }

    let probes = Probes::median(&probe_runs);
    probes.emit(out);
    for (cfg, cell) in runner.configs.iter().cycle().zip(&traced) {
        let tasks = probes.cycle_for(&cfg.scheduler).count.tasks;
        cross_check(shape, &job, cfg, tasks, cell, runner.ops);
    }
    let workers = shape.workers as u64;
    // Messages are flows: one per task, worker 0's count times the workers.
    let flows: u64 = traced.iter().map(|c| workers * engine_tasks(&c.r)).sum();
    let spans: u64 = traced.iter().map(|c| c.r.grad_spans.len() as u64).sum();
    let wire: f64 = traced.iter().map(|c| c.r.fault_stats.wire_bytes).sum();
    let runs = traced.len() as f64;
    let total_iters = runs * iters as f64;
    let cpu_s: f64 = traced.iter().map(|c| c.usage.cpu_s).sum();
    let wall_s: f64 = traced.iter().map(|c| c.wall_s).sum();
    let untraced_s: f64 = untraced.iter().map(|c| c.wall_s).sum();
    let ctx: u64 = traced.iter().map(|c| c.usage.ctx_switches).sum();
    let lost: u64 = traced
        .iter()
        .map(|c| c.r.fault_stats.retries + c.r.fault_stats.messages_lost)
        .sum();
    out.metric(
        "engine.cpu_busy_frac",
        cpu_s / (wall_s * host::nproc() as f64),
        "frac",
    );
    out.metric(
        "engine.ctx_switches_per_iter",
        ctx as f64 / total_iters,
        "count",
    );
    out.metric("engine.msgs_per_iter", flows as f64 / total_iters, "count");
    out.metric(
        "engine.push_mb_per_iter",
        wire / 2.0 / total_iters / 1e6,
        "MB",
    );
    out.metric("engine.cpu_us_per_msg", 1e6 * cpu_s / flows as f64, "us");
    out.metric(
        "engine.useful_msg_frac",
        1.0 - lost as f64 / flows as f64,
        "frac",
    );
    out.metric(
        "engine.trace_overhead_frac",
        wall_s / runs / (untraced_s / untraced.len() as f64) - 1.0,
        "frac",
    );
    for (cfg, cell) in runner.configs.iter().zip(&traced) {
        let count = probes.cycle_for(&cfg.scheduler).count;
        out.line(format!(
            "ps_sim.tasks_per_iter.{} {} (worker 0, span trace; the probe's synthetic cycle emits {})",
            cfg.scheduler.label(),
            engine_tasks(&cell.r) as f64 / iters as f64,
            count.tasks
        ));
    }
    out.line(format!(
        "ps_sim.grad_spans_per_iter {} (typed_trace = true; {SPAN_KINDS} kinds per worker and gradient)",
        spans as f64 / total_iters
    ));
    out.line(format!(
        "ps_sim.wire_mb_per_iter {} (FaultStats::wire_bytes, both directions)",
        wire / total_iters / 1e6
    ));
    out.line(format!(
        "ps_sim.host_us_per_grad_span {} (traced host time per typed span)",
        1e6 * wall_s / spans as f64
    ));

    ledger(
        shape,
        &job,
        &runner.configs,
        &untraced,
        &traced,
        &probes,
        out,
    );
}

/// Σ(calls per iteration × replayed cost per call) against the host time
/// one untraced simulated iteration takes, summed over the lineup's cells
/// and averaged over the passes. Call counts are the engine's own: worker
/// 0's tasks from the span trace of the traced twin of each run (the same
/// cell and seed, so the same tasks), times the workers.
fn ledger(
    shape: &SimShape,
    job: &TrainingJob,
    configs: &[ClusterConfig],
    untraced: &[Timed],
    traced: &[Timed],
    probes: &Probes,
    out: &mut Report,
) {
    let w = shape.workers as f64;
    let iters = shape.iters as f64;
    let grads = job.num_gradients() as f64;
    let passes = untraced.len().min(traced.len()) as f64 / configs.len() as f64;
    let (mut measured, mut core, mut net, mut queue) = (0.0, 0.0, 0.0, 0.0);
    for (cfg, (run, twin)) in configs.iter().cycle().zip(untraced.iter().zip(traced)) {
        let cost = probes.cycle_for(&cfg.scheduler);
        let tasks = engine_tasks(&twin.r) as f64 / iters;
        // One scheduler build per worker and run; the cycle's cost scales
        // with the tasks the engine ran against those the probe's cycle
        // emitted (equal, but for Prophet).
        let sched_us =
            w * (cost.build_us / iters + cost.cycle_us * tasks / cost.count.tasks as f64);
        // One flow per task; the queue holds a start and an end per flow
        // plus a release and a forward step per worker and gradient (an
        // estimate: the engine does not export its event count).
        let flows = w * tasks;
        let events = 2.0 * flows + 2.0 * w * grads;
        measured += run.wall_s / iters / passes;
        core += sched_us * 1e-6 / passes;
        net += flows * probes.flow_event_us * 1e-6 / passes;
        queue += events * probes.queue_op_ns * 1e-9 / passes;
    }
    let explained = core + net + queue;
    let residual = measured - explained;
    out.line(format!(
        "ledger: measured host {:.3} ms per simulated iteration (untraced runs), summed over {} cell(s)",
        measured * 1e3,
        configs.len()
    ));
    for (name, secs) in [
        ("core: workers x (build / iters + cycle)", core),
        ("net: flows x (start_flow + advance_to)", net),
        ("sim: events x (schedule + pop), estimated count", queue),
    ] {
        out.line(format!("ledger:   {name:<48} {:>9.3} ms", secs * 1e3));
    }
    out.line(format!(
        "ledger:   residual (cluster bookkeeping, sinks, metrics) {:.3} ms = {:.1}% of measured",
        residual * 1e3,
        100.0 * residual / measured
    ));
    out.metric("engine.explained_frac", explained / measured, "frac");
    out.metric("engine.residual_ms_per_iter", residual * 1e3, "ms");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers;
    use crate::workload::{shape, Shape};

    #[test]
    fn engine_tasks_match_the_cycle_and_a_wrong_count_is_flagged() {
        let Some(Shape::Sim(s)) = shape("sim_paper", true) else {
            panic!("sim_paper is a simulator workload");
        };
        let job = s.job();
        let mut ops = Ops::default();
        let mut runner = Runner::new(&s, &job, 5, &mut ops);
        let cells: Vec<(ClusterConfig, Timed)> = (0..runner.configs.len())
            .map(|c| {
                let t = runner
                    .run(c, s.iters, true, &Tracer::off(), 0)
                    .expect("run");
                (runner.configs[c].clone(), t)
            })
            .collect();
        for (cfg, t) in &cells {
            let cycle = layers::one_cycle(cfg.scheduler.build(&job).as_mut(), &job.sizes());
            let mut clean = Ops::default();
            cross_check(&s, &job, cfg, cycle.tasks, t, &mut clean);
            assert!(clean.failures.is_empty(), "{:?}", clean.failures);
            let mut tampered = Ops::default();
            cross_check(&s, &job, cfg, cycle.tasks + 1, t, &mut tampered);
            assert_eq!(
                tampered.failures.is_empty(),
                timing_dependent(&cfg.scheduler),
                "{}",
                cfg.scheduler.label()
            );
        }
    }

    #[test]
    fn intercept_recovers_the_fixed_cost_of_a_linear_run() {
        let Some(Shape::Sim(s)) = shape("sim_paper", false) else {
            panic!("sim_paper is a simulator workload");
        };
        let run = |iters: u64| 0.25 + 0.5 * iters as f64;
        let b = intercept_s(&s, run(SHORT_ITERS), run(s.iters));
        assert!((b - 0.25).abs() < 1e-12, "{b}");
    }
}
