//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <threaded_vgg|threaded_deep|sim_paper> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! separate traced run that gives the per-layer metrics. Human-readable
//! lines start with `#`; the last line is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--smoke` runs every
//! workload at a toy size, untraced and traced, and fails unless all of
//! them pass their checks. See `perfbench/README.md` for the workloads,
//! the metrics and how the two relate.

mod host;
mod layers;
mod probes;
mod report;
mod sim;
mod stats;
mod threaded;
mod trace;
mod workload;

use probes::ProbeShape;
use report::Report;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Ops, Shape};

/// Where traced runs write their spans, relative to the working directory.
const SPAN_DIR: &str = ".bench_out";

const USAGE: &str = "usage: perfbench --workload <threaded_vgg|threaded_deep|sim_paper> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --smoke";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            out.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = num()?,
            "--seconds" => out.seconds = num()?,
            "--trace" => match value.as_str() {
                "0" => out.trace = false,
                "1" => out.trace = true,
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !out.smoke && out.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(out)
}

/// One invocation's measurement of one workload.
fn run_one(name: &str, shape: &Shape, seed: u64, seconds: u64, traced: bool) -> (Report, Ops) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let mut out = Report::default();
    let mut ops = Ops::default();
    out.line(format!("host {}", host::metadata_json(seed)));
    out.line(format!(
        "workload {name} seed {seed} seconds {seconds} trace {}",
        u8::from(traced)
    ));
    if traced {
        let tracer = Tracer::on();
        let probe_shape = match shape {
            Shape::Threaded(t) => ProbeShape::threaded(t),
            Shape::Sim(s) => ProbeShape::sim(s, &s.job()),
        };
        match shape {
            Shape::Threaded(t) => {
                threaded::trace(t, seed, deadline, &mut ops, &tracer, &probe_shape, &mut out)
            }
            Shape::Sim(s) => {
                sim::trace(s, seed, deadline, &mut ops, &tracer, &probe_shape, &mut out)
            }
        }
        let spans = tracer.spans();
        for (name, (total, own, calls)) in trace::summary(&spans) {
            out.line(format!(
                "span {name:<34} calls {calls:>4}  total {:>10.3} ms  self {:>10.3} ms",
                total as f64 / 1e6,
                own as f64 / 1e6
            ));
        }
        let path = format!("{SPAN_DIR}/spans-{name}-seed{seed}.json");
        match std::fs::create_dir_all(SPAN_DIR)
            .and_then(|()| std::fs::write(&path, trace::to_json(&spans)))
        {
            Ok(()) => out.line(format!("spans written to {path}")),
            Err(e) => out.line(format!("spans not written to {path}: {e}")),
        }
    } else {
        match shape {
            Shape::Threaded(t) => threaded::measure(t, seed, deadline, &mut ops, &mut out),
            Shape::Sim(s) => sim::measure(s, seed, deadline, &mut ops, &mut out),
        }
        out.line(format!(
            "host.memcpy_gbps {:.3} GB/s ({} MiB copy_from_slice, the roofline for kernel GB/s)",
            host::memcpy_gbps(9),
            host::MEMCPY_BYTES >> 20
        ));
    }
    out.line(format!(
        "operations: {} attempted, {} failed; elapsed {:.2} s",
        ops.attempted,
        ops.failed,
        start.elapsed().as_secs_f64()
    ));
    for f in &ops.failures {
        out.line(format!("FAILED {f}"));
    }
    (out, ops)
}

fn print(out: &Report, ops: &Ops) {
    for l in &out.lines {
        println!("# {l}");
    }
    for m in &out.metrics {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", out.result_json(ops));
}

/// Every workload at toy size, untraced then traced.
fn smoke(seed: u64) -> bool {
    let mut all_ok = true;
    for name in workload::NAMES {
        let shape = workload::shape(name, true).expect("every workload has a smoke shape");
        for traced in [false, true] {
            let (out, ops) = run_one(name, &shape, seed, 1, traced);
            print(&out, &ops);
            all_ok &= out.result_json(&ops).starts_with("{\"correct\": true");
        }
    }
    all_ok
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        return if smoke(args.seed) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let Some(shape) = workload::shape(&args.workload, false) else {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let (out, ops) = run_one(&args.workload, &shape, args.seed, args.seconds, args.trace);
    print(&out, &ops);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload sim_paper --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sim_paper", 7, 10, true)
        );
        assert!(parse_args(&argv("--workload x --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 3")).is_err());
        assert!(parse_args(&argv("--workload x --bogus 1")).is_err());
        assert!(parse_args(&argv("--smoke")).unwrap().smoke);
    }

    #[test]
    fn smoke_runs_every_workload_and_passes_its_checks() {
        assert!(smoke(11));
    }
}
