//! Per-layer probes: each one times calls into one crate's public
//! functions at a workload's own sizes, outside any engine run. The
//! ledger multiplies these per-call costs by the calls an iteration makes.

use crate::stats::median;
use bytes::BytesMut;
use prophet::core::{prophet_plan, CommScheduler, Dir, PlanInput, SchedulerKind};
use prophet::dnn::TrainingJob;
use prophet::minidnn::{Dataset, Mlp, Sgd};
use prophet::net::maxmin::{allocate, FlowDemand};
use prophet::net::{Network, NodeId, NodeSpec, TcpModel, Topology};
use prophet::ps::threaded::wire::{
    crc32, encode_f32_into_crc, fused_crc_accumulate, fused_crc_apply,
};
use prophet::sim::{Duration, EventQueue, SimTime, Xoshiro256StarStar};
use std::hint::black_box;
use std::time::Instant;

/// Median wall seconds of `reps` calls of `f`, after one untimed warm-up
/// call that faults in buffers and fills caches.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// The model a minidnn/wire probe runs: MLP widths and per-worker batch.
#[derive(Clone)]
pub struct MlpShape {
    pub widths: Vec<usize>,
    pub batch: usize,
}

impl MlpShape {
    /// Element count of every parameter tensor, in the runtime's order
    /// (per layer: weight, then bias).
    pub fn tensors(&self) -> Vec<usize> {
        self.widths
            .windows(2)
            .flat_map(|w| [w[0] * w[1], w[1]])
            .collect()
    }
}

/// `Mlp::forward_backward` at the per-worker batch, milliseconds.
pub fn fwd_bwd_ms(shape: &MlpShape, seed: u64, reps: usize) -> f64 {
    let classes = *shape.widths.last().expect("widths");
    let data = Dataset::blobs(
        shape.batch.max(classes),
        shape.widths[0],
        classes,
        0.8,
        seed,
    );
    let (x, labels) = data.batch(0, shape.batch);
    let mut model = Mlp::new(&shape.widths, seed);
    1e3 * time_median(reps, || {
        model.zero_grads();
        black_box(model.forward_backward(black_box(&x), &labels));
    })
}

/// Seconds per pass of each byte kernel over all tensors: one call per
/// tensor, as the runtime makes them.
#[derive(Debug, Clone, Copy)]
pub struct BytePasses {
    pub sgd_s: f64,
    pub encode_s: f64,
    pub fold_s: f64,
    pub apply_s: f64,
    pub bytes: usize,
}

impl BytePasses {
    pub fn gbps(&self, secs: f64) -> f64 {
        self.bytes as f64 / secs / 1e9
    }
}

/// `Sgd::step`, `encode_f32_into_crc`, `fused_crc_accumulate` and
/// `fused_crc_apply` over every tensor of `tensors` (element counts).
pub fn byte_passes(tensors: &[usize], reps: usize) -> BytePasses {
    let mut params: Vec<Vec<f32>> = tensors
        .iter()
        .map(|&n| (0..n).map(|i| (i % 97) as f32 * 1e-3).collect())
        .collect();
    let grads: Vec<Vec<f32>> = tensors
        .iter()
        .map(|&n| (0..n).map(|i| (i % 89) as f32 * 1e-4).collect())
        .collect();
    let mut sgd = Sgd::new(0.01, 0.9, tensors);
    let sgd_s = time_median(reps, || {
        for (id, (p, g)) in params.iter_mut().zip(&grads).enumerate() {
            sgd.step(id, p, black_box(g));
        }
    });
    let mut frames: Vec<BytesMut> = tensors
        .iter()
        .map(|&n| BytesMut::with_capacity(n * 4))
        .collect();
    let encode_s = time_median(reps, || {
        for (buf, g) in frames.iter_mut().zip(&grads) {
            buf.clear();
            black_box(encode_f32_into_crc(black_box(g), buf));
        }
    });
    let fold_s = time_median(reps, || {
        for (buf, p) in frames.iter().zip(params.iter_mut()) {
            black_box(fused_crc_accumulate(crc32::begin(), black_box(buf), p));
        }
    });
    let apply_s = time_median(reps, || {
        for (buf, p) in frames.iter().zip(params.iter_mut()) {
            black_box(fused_crc_apply(crc32::begin(), black_box(buf), p));
        }
    });
    BytePasses {
        sgd_s,
        encode_s,
        fold_s,
        apply_s,
        bytes: tensors.iter().sum::<usize>() * 4,
    }
}

/// Build a scheduler the way the engine the workload runs builds it.
pub fn build_scheduler(
    kind: &SchedulerKind,
    job: Option<&TrainingJob>,
    sizes: &[u64],
) -> Box<dyn CommScheduler> {
    match job {
        Some(job) => kind.build(job),
        None => kind.build_from_sizes(sizes.to_vec()),
    }
}

/// What one scheduler emits in one full cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleCount {
    pub tasks: u64,
    pub push_pieces: u64,
    pub pull_pieces: u64,
}

/// Synthetic clock steps of `one_cycle`, simulated nanoseconds:
/// gap between gradient releases, advance per poll, and the wire time a
/// task occupies before `task_done`.
const RELEASE_STEP: u64 = 1_000;
const POLL_STEP: u64 = 100_000;
const WIRE_STEP: u64 = 50_000;
/// Consecutive empty polls after which a drain gives up.
const MAX_IDLE_POLLS: u64 = 10_000;

/// Drive one scheduler through one iteration: `iteration_begin`,
/// backward-order `gradient_ready`, push drain, `param_ready`, pull
/// drain, `iteration_end`.
pub fn one_cycle(sched: &mut dyn CommScheduler, sizes: &[u64]) -> CycleCount {
    let n = sizes.len();
    let mut now = 0u64;
    let mut count = CycleCount {
        tasks: 0,
        push_pieces: 0,
        pull_pieces: 0,
    };
    let mut drain = |sched: &mut dyn CommScheduler, now: &mut u64, dir: Dir| {
        let mut done = vec![0u64; n];
        let mut idle = 0u64;
        while done.iter().zip(sizes).any(|(d, s)| d < s) && idle <= MAX_IDLE_POLLS {
            *now += POLL_STEP;
            let Some(task) = sched.next_task(SimTime(*now)) else {
                idle += 1;
                continue;
            };
            idle = 0;
            count.tasks += 1;
            for &(g, b) in &task.pieces {
                match task.dir {
                    Dir::Push => count.push_pieces += 1,
                    Dir::Pull => count.pull_pieces += 1,
                }
                if task.dir == dir {
                    done[g] += b;
                }
            }
            *now += WIRE_STEP;
            sched.task_done(SimTime(*now), &task);
        }
    };
    sched.iteration_begin(SimTime(now), 0);
    for g in (0..n).rev() {
        now += RELEASE_STEP;
        sched.gradient_ready(SimTime(now), g);
    }
    drain(sched, &mut now, Dir::Push);
    for g in 0..n {
        now += RELEASE_STEP;
        sched.param_ready(SimTime(now), g);
    }
    drain(sched, &mut now, Dir::Pull);
    sched.iteration_end(SimTime(now), 0, Duration(now));
    count
}

/// What building one scheduler and driving it through one cycle cost.
#[derive(Debug, Clone, Copy)]
pub struct CycleCost {
    /// `SchedulerKind::build`, microseconds: once per worker and run.
    pub build_us: f64,
    /// One full cycle, microseconds: once per worker and iteration.
    pub cycle_us: f64,
    pub count: CycleCount,
}

/// Build a scheduler and run one cycle, `reps` times on fresh schedulers,
/// timing the two apart (medians), plus what the cycle emitted.
pub fn cycle_cost(
    kind: &SchedulerKind,
    job: Option<&TrainingJob>,
    sizes: &[u64],
    reps: usize,
) -> CycleCost {
    let count = one_cycle(build_scheduler(kind, job, sizes).as_mut(), sizes);
    let (mut build, mut cycle) = (Vec::new(), Vec::new());
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let mut s = build_scheduler(kind, job, sizes);
        build.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        black_box(one_cycle(s.as_mut(), sizes));
        cycle.push(t.elapsed().as_secs_f64());
    }
    CycleCost {
        build_us: 1e6 * median(&build),
        cycle_us: 1e6 * median(&cycle),
        count,
    }
}

/// `prophet_plan` on a release profile, microseconds.
pub fn plan_us(c: &[Duration], sizes: &[u64], bandwidth_bps: f64, reps: usize) -> f64 {
    let input = PlanInput {
        c: c.to_vec(),
        s: sizes.to_vec(),
        bandwidth_bps,
        tcp: TcpModel::EC2,
    };
    1e6 * time_median(reps, || {
        black_box(prophet_plan(black_box(&input)));
    })
}

/// The PS topology of a workload: shard nodes first, then workers, all
/// at `bps` bytes/sec; gradient `g` lives on shard `g % shards`.
pub struct NetShape {
    pub workers: usize,
    pub shards: usize,
    pub bps: f64,
    pub sizes: Vec<u64>,
    /// Release offset of each gradient within the backward pass.
    pub release: Vec<Duration>,
}

impl NetShape {
    fn topology(&self) -> Topology {
        let mut topo = Topology::new();
        for _ in 0..self.shards + self.workers {
            topo.add_node(NodeSpec::symmetric(self.bps));
        }
        topo
    }

    /// One iteration's push flows `(worker node, shard node, gradient)`.
    fn push_flows(&self) -> Vec<(NodeId, NodeId, usize)> {
        (0..self.workers)
            .flat_map(|w| {
                (0..self.sizes.len())
                    .map(move |g| (NodeId(self.shards + w), NodeId(g % self.shards), g))
            })
            .collect()
    }
}

/// `maxmin::allocate` over one iteration's push flow set, microseconds.
pub fn maxmin_alloc_us(shape: &NetShape, reps: usize) -> f64 {
    let topo = shape.topology();
    let demands: Vec<FlowDemand> = shape
        .push_flows()
        .into_iter()
        .map(|(src, dst, _)| FlowDemand {
            src,
            dst,
            cap_bps: f64::INFINITY,
        })
        .collect();
    1e6 * time_median(reps, || {
        black_box(allocate(&topo, black_box(&demands)));
    })
}

/// Replay one iteration's traffic through `Network`: every push flow
/// starts at its gradient's release offset (`start_flow`); when the last
/// push of a gradient has arrived (the BSP barrier) its shard starts one
/// pull flow to every worker; the clock advances event by event
/// (`advance_to`) until all flows have ended. Returns microseconds per
/// flow event (a start or an end) and the event count.
pub fn flow_event_us(shape: &NetShape) -> (f64, u64) {
    const PULL: u64 = 1 << 63;
    let mut pushes = shape.push_flows();
    pushes.sort_by_key(|&(_, _, g)| (shape.release[g], g));
    let mut pending = vec![shape.workers; shape.sizes.len()];
    let t = Instant::now();
    let mut net = Network::new(shape.topology(), TcpModel::EC2);
    let (mut started, mut ended) = (0u64, 0u64);
    let mut next = pushes.iter().peekable();
    loop {
        let start_at = next
            .peek()
            .map(|&&(_, _, g)| SimTime::ZERO + shape.release[g]);
        let end_at = net.next_event_time();
        let (now, ends) = match (start_at, end_at) {
            (Some(s), e) if e.is_none_or(|e| s <= e) => {
                let &(src, dst, g) = next.next().expect("peeked");
                let ends = net.advance_to(s);
                net.start_flow(s, src, dst, shape.sizes[g], g as u64);
                started += 1;
                (s, ends)
            }
            (_, Some(e)) => (e, net.advance_to(e)),
            _ => break,
        };
        for end in ends {
            ended += 1;
            if end.tag & PULL != 0 {
                continue;
            }
            let g = end.tag as usize;
            pending[g] -= 1;
            if pending[g] == 0 {
                for w in 0..shape.workers {
                    let worker = NodeId(shape.shards + w);
                    net.start_flow(now, end.dst, worker, shape.sizes[g], PULL | g as u64);
                    started += 1;
                }
            }
        }
    }
    let secs = t.elapsed().as_secs_f64();
    assert_eq!(started, ended, "every started flow must end");
    let events = started + ended;
    (1e6 * secs / events as f64, events)
}

/// `EventQueue::schedule` + `pop` at a standing depth of `depth` events,
/// nanoseconds per pair.
pub fn queue_op_ns(depth: usize, seed: u64) -> f64 {
    const OPS: usize = 200_000;
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..depth.max(1) {
        q.schedule(SimTime(rng.next_u64() % 1_000_000), i as u64);
    }
    let deltas: Vec<u64> = (0..OPS).map(|_| 1 + rng.next_u64() % 1_000_000).collect();
    let t = Instant::now();
    for &d in &deltas {
        let (at, e) = q.pop().expect("queue holds `depth` events");
        q.schedule(SimTime(at.0 + d), black_box(e));
    }
    1e9 * t.elapsed().as_secs_f64() / OPS as f64
}

/// `TrainingJob::paper_setup`, microseconds.
pub fn job_setup_us(model: &str, batch: u32, reps: usize) -> f64 {
    1e6 * time_median(reps, || {
        black_box(TrainingJob::paper_setup(black_box(model), batch));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prophet::core::ProphetConfig;

    #[test]
    fn fifo_cycle_moves_every_tensor_once_each_way() {
        let sizes = vec![4096u64, 1024, 64];
        let mut s = build_scheduler(&SchedulerKind::Fifo, None, &sizes);
        let c = one_cycle(s.as_mut(), &sizes);
        assert_eq!(c.push_pieces, 3);
        assert_eq!(c.pull_pieces, 3);
        assert_eq!(c.tasks, 6);
    }

    #[test]
    fn flow_replay_ends_every_flow() {
        let shape = NetShape {
            workers: 3,
            shards: 2,
            bps: 1.25e9,
            sizes: vec![1 << 20, 1 << 16, 1 << 10],
            release: vec![
                Duration::from_millis(2),
                Duration::from_millis(1),
                Duration::ZERO,
            ],
        };
        let (us, events) = flow_event_us(&shape);
        // 9 pushes and 9 pulls, each a start and an end.
        assert_eq!(events, 4 * 3 * 3);
        assert!(us > 0.0);
    }

    #[test]
    fn probes_return_positive_costs() {
        let shape = MlpShape {
            widths: vec![8, 16, 4],
            batch: 2,
        };
        assert_eq!(shape.tensors(), vec![128, 16, 64, 4]);
        assert!(fwd_bwd_ms(&shape, 1, 2) > 0.0);
        let p = byte_passes(&shape.tensors(), 2);
        assert!(p.encode_s > 0.0 && p.fold_s > 0.0 && p.apply_s > 0.0 && p.sgd_s > 0.0);
        assert!(queue_op_ns(64, 1) > 0.0);
        let job = TrainingJob::paper_setup("resnet18", 16);
        let kind = SchedulerKind::ProphetOracle(ProphetConfig::paper_default(1.25e9));
        let c = cycle_cost(&kind, Some(&job), &job.sizes(), 2);
        assert!(c.build_us > 0.0 && c.cycle_us > 0.0);
        assert!(c.count.push_pieces >= job.num_gradients() as u64);
        assert!(plan_us(&job.c_offsets(), &job.sizes(), 1.25e9, 2) > 0.0);
    }
}
