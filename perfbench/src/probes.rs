//! The per-layer probe suite a traced run replays at its workload's
//! sizes, once per round between engine runs, so per-call costs and the
//! engine time they are set against come from the same stretch of
//! machine time. Every traced run reports every probe metric: where the
//! workload's engine does not go through a layer, the probe runs at the
//! reference shape named in `perfbench/README.md`.

use crate::layers::{self, BytePasses, CycleCost, MlpShape, NetShape};
use crate::report::Report;
use crate::stats;
use crate::trace::Tracer;
use crate::workload::{shape, Shape, SimShape, ThreadedShape};
use prophet::core::SchedulerKind;
use prophet::dnn::TrainingJob;
use prophet::sim::Duration;

/// Metric key of each scheduler of the paper lineup, in lineup order.
const SCHED_KEYS: [&str; 4] = ["fifo", "p3", "bytescheduler", "prophet"];

/// Scheduler bandwidth the threaded workloads' Prophet is configured for.
const THREADED_BPS: f64 = 1.25e9;

/// Repetitions per probe (each reports the median).
const REPS: usize = 9;

/// Where each probe gets its sizes.
pub struct ProbeShape {
    /// Model of the minidnn and wire probes.
    mlp: MlpShape,
    /// The job the simulator builds schedulers from (`None`: the threaded
    /// runtime builds them from tensor sizes alone).
    job: Option<TrainingJob>,
    sizes: Vec<u64>,
    /// Release offsets; `None` derives them from the measured
    /// forward/backward time.
    release: Option<Vec<Duration>>,
    bps: f64,
    workers: usize,
    shards: usize,
    /// Model and batch of the `TrainingJob::paper_setup` probe.
    dnn: (&'static str, u32),
}

fn reference_sim() -> SimShape {
    match shape("sim_paper", false) {
        Some(Shape::Sim(s)) => s,
        _ => unreachable!("sim_paper is a simulator workload"),
    }
}

fn reference_mlp() -> MlpShape {
    match shape("threaded_vgg", false) {
        Some(Shape::Threaded(s)) => s.mlp,
        _ => unreachable!("threaded_vgg is a threaded workload"),
    }
}

impl ProbeShape {
    pub fn threaded(t: &ThreadedShape) -> Self {
        let reference = reference_sim();
        ProbeShape {
            mlp: t.mlp.clone(),
            job: None,
            sizes: t.mlp.tensors().iter().map(|&n| n as u64 * 4).collect(),
            release: None,
            bps: THREADED_BPS,
            workers: t.workers,
            shards: t.shards,
            dnn: (reference.model, reference.batch),
        }
    }

    pub fn sim(s: &SimShape, job: &TrainingJob) -> Self {
        ProbeShape {
            mlp: reference_mlp(),
            job: Some(job.clone()),
            sizes: job.sizes(),
            release: Some(job.c_offsets()),
            bps: s.bps(),
            workers: s.workers,
            shards: s.shards,
            dnn: (s.model, s.batch),
        }
    }

    /// Run every probe once, each inside a span.
    pub fn run(&self, seed: u64, tracer: &Tracer, run_id: u64) -> Probes {
        let memcpy_gbps = tracer.span("host.memcpy", run_id, || crate::host::memcpy_gbps(REPS));
        let fwd_bwd_ms = tracer.span("minidnn.forward_backward", run_id, || {
            layers::fwd_bwd_ms(&self.mlp, seed, REPS)
        });
        let passes = tracer.span("minidnn+wire.byte_passes", run_id, || {
            layers::byte_passes(&self.mlp.tensors(), REPS)
        });
        let release = self.release.clone().unwrap_or_else(|| {
            // Gradients appear last-layer-first, evenly over the backward
            // half of the measured forward/backward time.
            let n = self.sizes.len() as u64;
            let step = ((fwd_bwd_ms * 1e6 / 2.0) as u64 / n).max(1);
            (0..n).map(|g| Duration((n - g) * step)).collect()
        });
        let lineup = SchedulerKind::paper_lineup(self.bps);
        let cycles: Vec<CycleCost> = lineup
            .iter()
            .zip(SCHED_KEYS)
            .map(|(kind, key)| {
                tracer.span(&format!("core.cycle.{key}"), run_id, || {
                    layers::cycle_cost(kind, self.job.as_ref(), &self.sizes, REPS)
                })
            })
            .collect();
        let plan_us = tracer.span("core.prophet_plan", run_id, || {
            layers::plan_us(&release, &self.sizes, self.bps, REPS)
        });
        let net = NetShape {
            workers: self.workers,
            shards: self.shards,
            bps: self.bps,
            sizes: self.sizes.clone(),
            release: release.clone(),
        };
        let maxmin_us = tracer.span("net.maxmin_allocate", run_id, || {
            layers::maxmin_alloc_us(&net, 3)
        });
        let (flow_event_us, flow_events) =
            tracer.span("net.flow_replay", run_id, || layers::flow_event_us(&net));
        let queue_depth = self.workers * self.sizes.len();
        let queue_op_ns = tracer.span("sim.event_queue", run_id, || {
            layers::queue_op_ns(queue_depth, seed)
        });
        let job_setup_us = tracer.span("dnn.paper_setup", run_id, || {
            layers::job_setup_us(self.dnn.0, self.dnn.1, REPS)
        });
        Probes {
            memcpy_gbps,
            fwd_bwd_ms,
            passes,
            cycles,
            plan_us,
            maxmin_us,
            flow_event_us,
            flow_events,
            queue_op_ns,
            job_setup_us,
        }
    }
}

/// Lineup members are matched by label: the lineup's Prophet is the
/// oracle-profiled one, which the threaded runtime builds as the online
/// Prophet it runs.
fn same_kind(a: &SchedulerKind, b: &SchedulerKind) -> bool {
    let family = |k: &SchedulerKind| match k {
        SchedulerKind::ProphetOracle(_) => "prophet",
        other => other.label(),
    };
    family(a) == family(b)
}

/// Per-call costs measured by the probe suite.
pub struct Probes {
    pub memcpy_gbps: f64,
    pub fwd_bwd_ms: f64,
    pub passes: BytePasses,
    /// Per-worker build and cycle cost and emitted work, lineup order.
    pub cycles: Vec<CycleCost>,
    pub plan_us: f64,
    pub maxmin_us: f64,
    pub flow_event_us: f64,
    pub flow_events: u64,
    pub queue_op_ns: f64,
    pub job_setup_us: f64,
}

impl Probes {
    /// Per-field median over several runs of the suite (emitted counts are
    /// the same in every run). Panics on no runs.
    pub fn median(runs: &[Probes]) -> Probes {
        let m = |f: &dyn Fn(&Probes) -> f64| stats::median(&runs.iter().map(f).collect::<Vec<_>>());
        let first = &runs[0];
        Probes {
            memcpy_gbps: m(&|p| p.memcpy_gbps),
            fwd_bwd_ms: m(&|p| p.fwd_bwd_ms),
            passes: BytePasses {
                sgd_s: m(&|p| p.passes.sgd_s),
                encode_s: m(&|p| p.passes.encode_s),
                fold_s: m(&|p| p.passes.fold_s),
                apply_s: m(&|p| p.passes.apply_s),
                bytes: first.passes.bytes,
            },
            cycles: (0..first.cycles.len())
                .map(|i| CycleCost {
                    build_us: m(&|p| p.cycles[i].build_us),
                    cycle_us: m(&|p| p.cycles[i].cycle_us),
                    count: first.cycles[i].count,
                })
                .collect(),
            plan_us: m(&|p| p.plan_us),
            maxmin_us: m(&|p| p.maxmin_us),
            flow_event_us: m(&|p| p.flow_event_us),
            flow_events: first.flow_events,
            queue_op_ns: m(&|p| p.queue_op_ns),
            job_setup_us: m(&|p| p.job_setup_us),
        }
    }

    /// Cost and emitted work of one cycle of `kind`.
    pub fn cycle_for(&self, kind: &SchedulerKind) -> CycleCost {
        let i = SchedulerKind::paper_lineup(1.0)
            .iter()
            .position(|k| same_kind(k, kind))
            .expect("a lineup scheduler");
        self.cycles[i]
    }

    pub fn emit(&self, out: &mut Report) {
        let p = &self.passes;
        out.metric("host.memcpy_gbps", self.memcpy_gbps, "GB/s");
        out.metric("minidnn.fwd_bwd_ms", self.fwd_bwd_ms, "ms");
        out.metric("minidnn.sgd_step_gbps", p.gbps(p.sgd_s), "GB/s");
        out.metric("wire.encode_crc_gbps", p.gbps(p.encode_s), "GB/s");
        out.metric("wire.fold_crc_gbps", p.gbps(p.fold_s), "GB/s");
        out.metric("wire.apply_crc_gbps", p.gbps(p.apply_s), "GB/s");
        for (c, key) in self.cycles.iter().zip(SCHED_KEYS) {
            out.metric(format!("core.cycle_us.{key}"), c.cycle_us, "us");
            out.metric(
                format!("core.tasks_per_cycle.{key}"),
                c.count.tasks as f64,
                "count",
            );
            out.line(format!(
                "core.build_us.{key} {:.3} us (SchedulerKind::build, once per worker and run)",
                c.build_us
            ));
        }
        out.metric("core.plan_us", self.plan_us, "us");
        out.metric("net.maxmin_alloc_us", self.maxmin_us, "us");
        out.metric("net.flow_event_us", self.flow_event_us, "us");
        out.metric("sim.queue_op_ns", self.queue_op_ns, "ns");
        out.metric("dnn.job_setup_us", self.job_setup_us, "us");
        out.line(format!(
            "byte kernels over {:.1} MB: sgd {:.2}, encode {:.2}, fold {:.2}, apply {:.2} GB/s against memcpy {:.2} GB/s",
            p.bytes as f64 / 1e6,
            p.gbps(p.sgd_s),
            p.gbps(p.encode_s),
            p.gbps(p.fold_s),
            p.gbps(p.apply_s),
            self.memcpy_gbps
        ));
        out.line(format!(
            "net.flow_event_us over {} flow events of one iteration's push fan-in and pull fan-out",
            self.flow_events
        ));
    }
}
