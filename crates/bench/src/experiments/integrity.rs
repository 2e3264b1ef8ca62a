//! [extension] End-to-end data integrity: silent-corruption plans
//! (bit-flipped/truncated wire frames, NaN-poisoned gradients, corrupted
//! checkpoint snapshots) judged by the chaos oracle, with detection
//! and recovery cost accounting per scheduler and threaded-runtime
//! bit-identity legs.

use super::{lineup_sweep, median, ChaosCell};
use crate::output::ExperimentOutput;
use prophet::core::SchedulerKind;
use prophet::ps::check_threaded_bit_identity;
use prophet::ps::threaded::{run_threaded_training, ThreadedConfig, ThreadedResult};
use prophet::sim::{Duration, FaultPlan, FaultSpec, KindMask, SimTime};

/// Corruption plans on 3 workers and 2 shards, 6 iterations per run: enough
/// checkpoint cadence rounds for a poisoned snapshot and the shard death
/// that exposes it to both land.
const CELL: ChaosCell = ChaosCell {
    workers: 3,
    shards: 2,
    iters: 6,
    kinds: KindMask::CORRUPTION,
};

/// Registry entry: a small fixed-seed sweep so `repro all` stays fast.
/// `repro ext_integrity <seed> [budget]` runs the same sweep at any scale.
pub fn ext_integrity() -> ExperimentOutput {
    run_integrity(42, 8)
}

/// The integrity sweep: per scheduler in the paper lineup,
/// [`prophet::ps::sweep`] `budget` corruption plans through the simulator,
/// and aggregate what the integrity layer accounted: frames caught by
/// checksum verify, snapshots written corrupt, restores that fell back past
/// them, and generations skipped. Two threaded legs per scheduler replay a
/// wire-corruption plan and a forced-fallback plan on the real runtime and
/// hold the final model to **bit-identity** with its fault-free twin — the
/// "no corrupt byte ever reaches the accumulator or restored params" oracle
/// on real bytes.
pub fn run_integrity(seed: u64, budget: usize) -> ExperimentOutput {
    let mut out = ExperimentOutput::new(
        "ext_integrity",
        "Data integrity: ResNet18 bs16, 3 workers, 2 PS shards, 10 Gb/s",
        "The paper assumes the transport delivers gradients intact. This \
         sweeps silent-corruption plans — in-flight frame damage, NaN \
         poison, corrupted checkpoint generations — sampled from a seeded \
         generator, and holds every run to the integrity contract: \
         checksummed frames detected and retransmitted, corrupt snapshots \
         detected at restore with deterministic fallback to an older intact \
         generation, bounded slowdown, and replay-stable detection \
         counters. The threaded legs rerun fixed corruption plans on the \
         real PS runtime and require the final model bit-identical to a \
         fault-free twin.",
        &[
            "strategy",
            "plans",
            "violations",
            "frames_corrupted_med",
            "fallbacks_total",
            "fallback_depth_total",
            "thr_detections",
            "thr_nack_kb",
            "thr_fallback_depth",
            "thr_bit_identical",
        ],
    );

    lineup_sweep(&mut out, &CELL, seed, budget, |kind, records| {
        let mut frames: Vec<u64> = Vec::new();
        let mut fallbacks_total = 0u64;
        let mut depth_total = 0u64;
        for (s, e) in records.iter().filter_map(|r| r.counters.as_ref()) {
            frames.push(s.frames_corrupted);
            fallbacks_total += e.restore_fallbacks;
            depth_total += e.fallback_depth;
        }
        let legs = threaded_legs(kind);
        vec![
            median(&mut frames, |f| f.to_string()),
            fallbacks_total.to_string(),
            depth_total.to_string(),
            legs.detections.to_string(),
            format!("{:.1}", legs.nack_bytes as f64 / 1024.0),
            legs.fallback_depth.to_string(),
            format!("{}/2", legs.bit_identical),
        ]
    });
    out.notes = format!(
        "Seed {seed}, {budget} corruption plans per strategy, each run twice \
         (the second run is the deterministic-detection replay; any counter \
         drift is a violation). frames_corrupted is the per-plan median of \
         frames a receiver's CRC verify rejected; fallbacks/depth count \
         restores that skipped corrupted snapshot generations. The thr_* \
         columns run two fixed plans on the real threaded PS per strategy — \
         a wire-corruption window and a poisoned-newest-snapshot shard \
         death — and count final models bit-identical to the fault-free \
         twin (2/2 = the integrity contract held on real bytes).",
    );
    out
}

/// Aggregates from the two threaded bit-identity legs.
struct ThreadedLegs {
    /// Corrupt frames rejected + NaN pushes quarantined, both legs.
    detections: u64,
    /// Bytes retransmitted in response to NACKs, both legs.
    nack_bytes: u64,
    /// Corrupted generations skipped by the forced-fallback restore.
    fallback_depth: u64,
    /// Legs (of 2) whose final model matched the fault-free twin bitwise.
    bit_identical: usize,
}

/// Run one corruption plan on the threaded runtime next to its fault-free
/// twin; count it bit-identical when the byte-level oracle is silent.
fn bit_identity_leg(cfg: &ThreadedConfig) -> (ThreadedResult, bool) {
    let corrupted = run_threaded_training(cfg);
    let mut clean_cfg = cfg.clone();
    clean_cfg.fault_plan = FaultPlan::empty();
    let clean = run_threaded_training(&clean_cfg);
    let ok = check_threaded_bit_identity(&clean, &corrupted).is_empty();
    (corrupted, ok)
}

/// The two fixed threaded plans: a sustained wire-corruption window
/// (detection + NACK retransmit across pushes, pulls and acks), and a
/// poisoned newest snapshot exposed by a shard death (verified restore
/// falling back a generation).
fn threaded_legs(kind: SchedulerKind) -> ThreadedLegs {
    let mut wire = ThreadedConfig::small(3, kind.clone());
    wire.global_batch = 48;
    wire.iterations = 8;
    wire.fault_plan = FaultPlan::new(vec![FaultSpec::PayloadCorrupt {
        rate: 0.10,
        at: SimTime::ZERO,
        dur: Duration::from_secs(60),
    }]);
    let (wire_r, wire_ok) = bit_identity_leg(&wire);

    let mut fallback = ThreadedConfig::small(3, kind);
    fallback.ps_shards = 2;
    fallback.global_batch = 48;
    fallback.iterations = 8;
    fallback.checkpoint_period = 4; // snapshots close iters 3 and 7
    fallback.fault_plan = FaultPlan::new(vec![
        FaultSpec::CheckpointCorrupt {
            shard: 0,
            at_iter: 2, // fires at the iter-3 snapshot: newest before death
        },
        FaultSpec::ShardFail {
            shard: 0,
            at_iter: 6,
        },
    ]);
    let (fb_r, fb_ok) = bit_identity_leg(&fallback);

    ThreadedLegs {
        detections: wire_r.corrupt_frames_detected
            + wire_r.nan_quarantined
            + fb_r.corrupt_frames_detected
            + fb_r.nan_quarantined,
        nack_bytes: wire_r.nack_retransmit_bytes + fb_r.nack_retransmit_bytes,
        fallback_depth: fb_r.fallback_depth,
        bit_identical: usize::from(wire_ok) + usize::from(fb_ok),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, ignore = "release-tier: runs many simulations")]
    fn small_sweep_is_violation_free() {
        let out = run_integrity(42, 4);
        assert_eq!(out.rows.len(), 4, "one row per lineup strategy");
        for row in &out.rows {
            assert_eq!(row[2], "0", "{}: contract violations in {row:?}", row[0]);
            assert_eq!(row[9], "2/2", "{}: threaded leg lost bit-identity", row[0]);
            assert_ne!(
                row[8], "0",
                "{}: forced-fallback leg never fell back",
                row[0]
            );
        }
    }
}
