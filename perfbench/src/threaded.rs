//! The threaded-PS workloads: `run_threaded_training` timed from outside.

use crate::host::{self, Usage};
use crate::layers::{BytePasses, CycleCount};
use crate::probes::{ProbeShape, Probes};
use crate::report::Report;
use crate::stats::{difference_quotient, median, relative_spread};
use crate::trace::Tracer;
use crate::workload::{check_threaded, fingerprint, Ops, Repeats, ThreadedShape};
use prophet::ps::threaded::{run_threaded_training, ThreadedResult};
use std::time::Instant;

/// Fewest rounds (a set-up run and a short/long pair) a run measures,
/// however long they take.
const MIN_ROUNDS: usize = 3;

/// The per-phase keys `BENCH_threaded.json` uses, in `phases` order.
const PHASE_KEYS: [&str; 11] = [
    "shard_verify",
    "shard_accumulate",
    "shard_optimizer",
    "shard_encode",
    "shard_ack",
    "shard_sweep",
    "shard_idle",
    "worker_compute",
    "worker_encode",
    "worker_apply",
    "worker_wait",
];

fn phases(r: &ThreadedResult) -> [u64; 11] {
    let mut v = [0u64; 11];
    for p in &r.shard_phases {
        for (slot, ns) in v.iter_mut().zip([
            p.verify_ns,
            p.accumulate_ns,
            p.optimizer_ns,
            p.encode_ns,
            p.ack_ns,
            p.sweep_ns,
            p.idle_ns,
        ]) {
            *slot += ns;
        }
    }
    let w = &r.worker_phases;
    v[7..].copy_from_slice(&[w.compute_ns, w.encode_ns, w.apply_ns, w.wait_ns]);
    v
}

/// One timed engine run and the process resources it used.
struct Timed {
    r: ThreadedResult,
    wall_s: f64,
    usage: Usage,
}

/// The harness around every engine call: times it, checks its output and
/// requires its final model to repeat bit for bit per iteration count.
struct Runner<'a> {
    shape: &'a ThreadedShape,
    seed: u64,
    ops: &'a mut Ops,
    models: Repeats<u64, u64>,
}

impl Runner<'_> {
    fn run(&mut self, iterations: u64, tracer: &Tracer, run_id: u64) -> Option<Timed> {
        let cfg = self.shape.config(self.seed, iterations);
        let must_learn = iterations >= self.shape.hi;
        let u0 = host::usage();
        let t = Instant::now();
        let r = self.ops.run(
            &format!("run_threaded_training(iterations={iterations})"),
            || {
                tracer.span("threaded.run_threaded_training", run_id, || {
                    run_threaded_training(&cfg)
                })
            },
            |r| check_threaded(&cfg, r, must_learn),
        )?;
        let wall_s = t.elapsed().as_secs_f64();
        let usage = host::usage() - u0;
        if let Some(p) = self.models.check(iterations, fingerprint(&r.final_params)) {
            self.ops.flag(format!("final_params: {p}"));
        }
        Some(Timed { r, wall_s, usage })
    }

    /// A short and a long run, in the given order.
    fn pair(&mut self, lo_first: bool, tracer: &Tracer, run_id: u64) -> Option<(Timed, Timed)> {
        let (lo, hi) = (self.shape.lo, self.shape.hi);
        if lo_first {
            let a = self.run(lo, tracer, run_id);
            let b = self.run(hi, tracer, run_id);
            Some((a?, b?))
        } else {
            let b = self.run(hi, tracer, run_id);
            let a = self.run(lo, tracer, run_id);
            Some((a?, b?))
        }
    }
}

/// A steady-state quantity per iteration: the difference quotient of
/// each short/long pair, median over the pairs.
fn steady(shape: &ThreadedShape, pairs: &[(Timed, Timed)], f: fn(&Timed) -> f64) -> f64 {
    let per_pair: Vec<f64> = pairs
        .iter()
        .map(|(lo, hi)| difference_quotient(shape.lo, f(lo), shape.hi, f(hi)))
        .collect();
    median(&per_pair)
}

/// The untraced run: `setup_s`, `train_samples_per_s`, `peak_rss_mib`.
pub fn measure(
    shape: &ThreadedShape,
    seed: u64,
    deadline: Instant,
    ops: &mut Ops,
    out: &mut Report,
) {
    let off = Tracer::off();
    host::reset_peak_rss();
    let mut runner = Runner {
        shape,
        seed,
        ops,
        models: Repeats::new(),
    };
    // Each round is a set-up run and a short/long pair, so both metrics
    // sample the whole measuring window rather than one end of it.
    let mut setup = Vec::new();
    let mut rates = Vec::new();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || Instant::now() < deadline {
        setup.extend(runner.run(0, &off, 0).map(|t| t.wall_s));
        if let Some((lo, hi)) = runner.pair(rounds % 2 == 0, &off, 0) {
            let s_per_iter = difference_quotient(shape.lo, lo.wall_s, shape.hi, hi.wall_s);
            rates.push(shape.global_batch() as f64 / s_per_iter);
        }
        rounds += 1;
    }
    let peak = host::peak_rss_mib();
    let setup_s = median(&setup);
    let rate = median(&rates);
    out.metric("setup_s", setup_s, "s");
    out.metric("train_samples_per_s", rate, "1/s");
    out.metric("peak_rss_mib", peak, "MiB");
    out.line(format!(
        "setup_s {setup_s:.4} s (median of {} runs with iterations = 0)",
        setup.len()
    ));
    out.line(format!(
        "train_samples_per_s {rate:.2} 1/s = {:.3} iters/s at global batch {} (median of {} pairs of {}/{} iterations, spread {:.3})",
        rate / shape.global_batch() as f64,
        shape.global_batch(),
        rates.len(),
        shape.lo,
        shape.hi,
        relative_spread(&rates)
    ));
}

/// Per-iteration counts the config implies, to be matched against the
/// runtime's own counters before any ledger is computed.
struct Derived {
    msgs: u64,
    barriers: u64,
    bytes_pushed: u64,
}

fn derive(shape: &ThreadedShape, cycle: CycleCount) -> Derived {
    let tensors = shape.mlp.tensors();
    Derived {
        msgs: shape.workers as u64 * (cycle.push_pieces + cycle.pull_pieces),
        barriers: tensors.len() as u64,
        bytes_pushed: shape.workers as u64 * tensors.iter().sum::<usize>() as u64 * 4,
    }
}

fn cross_check(d: &Derived, t: &Timed, iterations: u64, ops: &mut Ops) {
    let msgs: u64 = t.r.shard_phases.iter().map(|p| p.msgs).sum();
    let barriers: u64 = t.r.shard_phases.iter().map(|p| p.barriers).sum();
    for (what, runtime, derived) in [
        ("ShardPhases::msgs", msgs, d.msgs * iterations),
        ("ShardPhases::barriers", barriers, d.barriers * iterations),
        (
            "bytes_pushed",
            t.r.bytes_pushed,
            d.bytes_pushed * iterations,
        ),
    ] {
        if runtime != derived {
            ops.flag(format!(
                "ledger cross-check at {iterations} iterations: {what} = {runtime}, config implies {derived}"
            ));
        }
    }
}

/// The traced run: engine counters, the layer probes at this workload's
/// sizes, and the CPU ledger.
pub fn trace(
    shape: &ThreadedShape,
    seed: u64,
    deadline: Instant,
    ops: &mut Ops,
    tracer: &Tracer,
    probe_shape: &ProbeShape,
    out: &mut Report,
) {
    let mut runner = Runner {
        shape,
        seed,
        ops,
        models: Repeats::new(),
    };
    let off = Tracer::off();
    // Each round runs the probe suite, an untraced pair and a traced
    // pair, so the ledger's per-call costs and the tracing overhead are
    // read against the same stretch of machine time as the engine.
    let mut probe_runs = Vec::new();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut run_id = 1;
    loop {
        probe_runs.push(tracer.span("probes", run_id, || probe_shape.run(seed, tracer, run_id)));
        untraced.extend(runner.pair(run_id % 2 == 0, &off, 0));
        let pair = tracer.span("pass", run_id, || {
            runner.pair(run_id % 2 == 1, tracer, run_id)
        });
        traced.extend(pair);
        run_id += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    let probes = Probes::median(&probe_runs);
    probes.emit(out);
    let cycle = probes.cycle_for(&shape.scheduler);
    let derived = derive(shape, cycle.count);
    for (lo, hi) in &traced {
        cross_check(&derived, lo, shape.lo, runner.ops);
        cross_check(&derived, hi, shape.hi, runner.ops);
    }
    let (Some((lo, hi)), false) = (traced.last(), untraced.is_empty()) else {
        runner
            .ops
            .flag("no traced and untraced pair completed".into());
        return;
    };
    let iters = (shape.hi - shape.lo) as f64;
    let wall_s = steady(shape, &traced, |t| t.wall_s);
    let cpu_s = steady(shape, &traced, |t| t.usage.cpu_s);
    let ctx = steady(shape, &traced, |t| t.usage.ctx_switches as f64);
    let useful =
        1.0 - (hi.r.retries + hi.r.messages_lost) as f64 / (derived.msgs as f64 * shape.hi as f64);
    out.metric(
        "engine.cpu_busy_frac",
        cpu_s / (wall_s * host::nproc() as f64),
        "frac",
    );
    out.metric("engine.ctx_switches_per_iter", ctx, "count");
    out.metric("engine.msgs_per_iter", derived.msgs as f64, "count");
    out.metric(
        "engine.push_mb_per_iter",
        derived.bytes_pushed as f64 / 1e6,
        "MB",
    );
    out.metric(
        "engine.cpu_us_per_msg",
        1e6 * cpu_s / derived.msgs as f64,
        "us",
    );
    out.metric("engine.useful_msg_frac", useful, "frac");
    let untraced_s = steady(shape, &untraced, |t| t.wall_s);
    out.metric(
        "engine.trace_overhead_frac",
        wall_s / untraced_s - 1.0,
        "frac",
    );

    let steady_allocs = hi.r.arena_allocs as i64 - lo.r.arena_allocs as i64;
    out.line(format!(
        "threaded.steady_arena_allocs {steady_allocs} (arena allocations of the {}-iteration run minus the {}-iteration run)",
        shape.hi, shape.lo
    ));
    let (p_lo, p_hi) = (phases(&lo.r), phases(&hi.r));
    for (i, key) in PHASE_KEYS.iter().enumerate() {
        out.line(format!(
            "threaded.phase.{key}_ms_per_iter {:.3} (program-reported, summed over threads; cross-check only)",
            (p_hi[i] as f64 - p_lo[i] as f64) / iters / 1e6
        ));
    }

    ledger(shape, &probes, cycle.cycle_us, cpu_s, out);
}

/// Σ(calls per iteration × replayed cost per call) against the CPU one
/// iteration measurably burns.
fn ledger(shape: &ThreadedShape, probes: &Probes, cycle_us: f64, cpu_s: f64, out: &mut Report) {
    let w = shape.workers as f64;
    let p: &BytePasses = &probes.passes;
    let rows = [
        ("minidnn.forward_backward", w, probes.fwd_bwd_ms / 1e3),
        ("wire.encode_f32_into_crc (worker push)", w, p.encode_s),
        ("wire.fused_crc_accumulate (shard fold)", w, p.fold_s),
        ("minidnn.Sgd::step (shard optimizer)", 1.0, p.sgd_s),
        (
            "wire.encode_f32_into_crc (shard pull reply)",
            1.0,
            p.encode_s,
        ),
        ("wire.fused_crc_apply (worker apply)", w, p.apply_s),
        ("core scheduler cycle", w, cycle_us / 1e6),
    ];
    let explained: f64 = rows.iter().map(|(_, n, s)| n * s).sum();
    out.line(format!(
        "ledger: measured CPU {:.3} ms per iteration (getrusage, all threads)",
        cpu_s * 1e3
    ));
    for (name, n, s) in rows {
        out.line(format!(
            "ledger:   {name:<46} {n:>4} calls x {:>9.3} ms = {:>9.3} ms",
            s * 1e3,
            n * s * 1e3
        ));
    }
    let residual = cpu_s - explained;
    out.line(format!(
        "ledger:   residual (channels, barriers, waking threads, batch assembly) {:.3} ms = {:.1}% of measured",
        residual * 1e3,
        100.0 * residual / cpu_s
    ));
    out.metric("engine.explained_frac", explained / cpu_s, "frac");
    out.metric("engine.residual_ms_per_iter", residual * 1e3, "ms");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers;
    use crate::workload::{shape, Shape};

    #[test]
    fn derived_counts_match_the_runtime_at_toy_size() {
        for name in ["threaded_vgg", "threaded_deep"] {
            let Some(Shape::Threaded(s)) = shape(name, true) else {
                panic!("{name} is threaded");
            };
            let sizes: Vec<u64> = s.mlp.tensors().iter().map(|&n| n as u64 * 4).collect();
            let mut sched = layers::build_scheduler(&s.scheduler, None, &sizes);
            let d = derive(&s, layers::one_cycle(sched.as_mut(), &sizes));
            let mut ops = Ops::default();
            let mut runner = Runner {
                shape: &s,
                seed: 9,
                ops: &mut ops,
                models: Repeats::new(),
            };
            let t = runner.run(s.hi, &Tracer::off(), 0).expect("run");
            cross_check(&d, &t, s.hi, &mut ops);
            assert!(ops.failures.is_empty(), "{name}: {:?}", ops.failures);
        }
    }
}
