//! The distributed-replay acceptance criterion: running the whole
//! 18-workload suite across N **worker processes** (the real
//! `dist_run` binary, spawned and fed frames over pipes) must produce
//! per-lane reports and serialized final sink state **byte-identical**
//! to the single-pass in-process `Session` — for N ∈ {2, 4}, and
//! again after a worker is killed mid-shard (the coordinator requeues
//! the lost job from its last good snapshot).
//!
//! The worker processes are the `dist_run` binary in `--worker` mode
//! (`CARGO_BIN_EXE_dist_run`), so this suite exercises the exact
//! production path: process spawn, stdio pipe transport, frame
//! protocol, snapshot chaining, crash recovery.

use std::collections::HashMap;
use std::process::Command;

use loopspec::dist::worker::CRASH_AFTER_ENV;
use loopspec::dist::{single_pass_outcome, WorkloadOutcome};
use loopspec::prelude::*;

/// Lanes for the comparison: one per policy family (the full 20-lane
/// grid is priced by the bench; equivalence only needs coverage).
fn lanes() -> Vec<LaneSpec> {
    vec![
        LaneSpec {
            policy: Policy::Idle,
            tus: 4,
        },
        LaneSpec {
            policy: Policy::Str,
            tus: 4,
        },
        LaneSpec {
            policy: Policy::StrNested(3),
            tus: 4,
        },
    ]
}

/// Fixed fuel per shard — small enough that every workload crosses
/// several snapshot boundaries at `Scale::Test`.
const SHARD_FUEL: u64 = 30_000;

fn spec() -> SuiteSpec {
    SuiteSpec::new(
        all_workloads().iter().map(|w| w.name),
        Scale::Test,
        lanes(),
        Plan::sliced(SHARD_FUEL),
    )
}

/// A worker-process command for the real `dist_run` binary.
fn worker_command() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_dist_run"));
    cmd.arg("--worker");
    cmd
}

/// The single-pass references, computed once and shared by every
/// distributed configuration under test.
fn references(spec: &SuiteSpec) -> HashMap<String, WorkloadOutcome> {
    spec.workloads
        .iter()
        .map(|name| {
            let r = single_pass_outcome(name, spec.scale, &spec.lanes, spec.total_fuel)
                .expect("reference run succeeds");
            (name.clone(), r)
        })
        .collect()
}

fn assert_byte_identical(
    outcome: &loopspec::dist::DistOutcome,
    references: &HashMap<String, WorkloadOutcome>,
    ctx: &str,
) {
    assert_eq!(outcome.outcomes.len(), references.len(), "{ctx}");
    for o in &outcome.outcomes {
        let r = &references[&o.workload];
        assert_eq!(
            o.instructions, r.instructions,
            "{ctx}: {} instruction count",
            o.workload
        );
        assert_eq!(
            o.lanes, r.lanes,
            "{ctx}: {} lane reports must be byte-identical",
            o.workload
        );
        assert_eq!(
            o.state, r.state,
            "{ctx}: {} serialized sink state must be byte-identical",
            o.workload
        );
        if r.instructions > SHARD_FUEL {
            assert!(
                o.shards_run > 1,
                "{ctx}: {} is longer than one slice and must cross shard \
                 boundaries (ran {})",
                o.workload,
                o.shards_run
            );
        }
    }
}

#[test]
fn multi_process_suite_matches_single_pass_for_2_and_4_workers() {
    let spec = spec();
    let references = references(&spec);
    for workers in [2usize, 4] {
        let coordinator =
            Coordinator::spawn_with(workers, |_| worker_command()).expect("workers spawn");
        let outcome = coordinator
            .run_suite(&spec)
            .unwrap_or_else(|e| panic!("N={workers}: {e}"));
        assert_eq!(outcome.workers_lost, 0, "N={workers}");
        assert_eq!(outcome.workers_respawned, 0, "N={workers}");
        assert!(outcome.handoff_bytes > 0, "N={workers}: snapshots crossed");
        assert!(
            outcome.jobs_dispatched > spec.workloads.len() as u64,
            "N={workers}: chains took multiple jobs"
        );
        assert_byte_identical(&outcome, &references, &format!("N={workers}"));
    }
}

#[test]
fn killed_worker_mid_shard_replenishes_the_pool_and_stays_byte_identical() {
    let spec = spec();
    let references = references(&spec);
    for workers in [2usize, 4] {
        // Worker 0 is rigged to vanish (no reply, exit 3) upon
        // receiving its 4th job — after real work has flowed through
        // it, mid-suite. The coordinator must requeue its in-flight
        // chain from the last good snapshot AND spawn a replacement
        // process so the pool stays at `workers` strong.
        let coordinator = Coordinator::spawn_with(workers, |i| {
            let mut cmd = worker_command();
            if i == 0 {
                cmd.env(CRASH_AFTER_ENV, "3");
            }
            cmd
        })
        .expect("workers spawn");
        let outcome = coordinator
            .run_suite(&spec)
            .unwrap_or_else(|e| panic!("N={workers} with crash: {e}"));
        assert_eq!(outcome.workers_lost, 1, "N={workers}: one worker died");
        assert_eq!(
            outcome.workers_respawned, 1,
            "N={workers}: the pool was replenished to full strength"
        );
        let retries: u32 = outcome.outcomes.iter().map(|o| o.retries).sum();
        assert_eq!(
            retries, 1,
            "N={workers}: exactly the in-flight chain was requeued"
        );
        assert_byte_identical(&outcome, &references, &format!("N={workers} crash"));
    }
}

#[test]
fn poison_chain_fails_instead_of_grinding_through_replacements() {
    // Every worker — initial and replacement alike — crashes on its
    // first job. The first deaths are absorbed by respawns; as soon as
    // a replacement dies on the same chain, the run must fail with the
    // workload named, not keep burning fresh processes.
    let spec = spec();
    let coordinator = Coordinator::spawn_with(2, |_| {
        let mut cmd = worker_command();
        cmd.env(CRASH_AFTER_ENV, "0");
        cmd
    })
    .expect("workers spawn");
    let err = coordinator.run_suite(&spec).expect_err("must fail");
    assert!(
        matches!(err, DistError::Failed { ref workload, .. } if !workload.is_empty()),
        "got: {err}"
    );
}

#[test]
fn losing_every_worker_fails_instead_of_hanging() {
    // Both workers are rigged to crash and respawn is disabled: 18
    // chains cannot finish on 6 jobs, so the run must end in
    // AllWorkersDied — promptly and with all children reaped, not a
    // hang. (With respawn left on, the pool would be replenished; the
    // strict path is what this test pins down.)
    let spec = spec();
    let coordinator = Coordinator::spawn_with(2, |_| {
        let mut cmd = worker_command();
        cmd.env(CRASH_AFTER_ENV, "3");
        cmd
    })
    .expect("workers spawn")
    .no_respawn();
    let err = coordinator.run_suite(&spec).expect_err("must fail");
    assert!(
        matches!(err, DistError::AllWorkersDied { .. }),
        "got: {err}"
    );
}
