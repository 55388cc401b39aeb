//! The multi-tenant acceptance criterion: 3 concurrent clients
//! submitting 12 jobs each (36 submissions over 6 distinct specs)
//! against one persistent service must yield, for every spec, at least
//! one answer straight from the content-addressed cache, with **every**
//! report — fresh, coalesced, or cached — byte-identical to a
//! single-pass in-process reference, and with the metrics invariants
//! (`submitted == accepted + rejected`,
//! `accepted == completed + failed + in_flight`) holding at the end.
//! The same bar must hold with a worker rigged to die mid-run: the
//! scheduler requeues from the last good snapshot, respawns under the
//! pool budget, and no client observes the loss. A third scenario walks
//! the failure model: a poison job and a fully dead pool each fail
//! only their own job, and the cache outlives the pool.
//!
//! The worker processes are the `svc_run` binary in `--worker` mode
//! (`CARGO_BIN_EXE_svc_run`) — the production path end to end.

use std::collections::HashMap;
use std::process::Command;

use loopspec::dist::worker::CRASH_AFTER_ENV;
use loopspec::dist::{single_pass_outcome, JobSpec, Policy, Report, WorkloadOutcome};
use loopspec::obs::{journal, EventKind};
use loopspec::prelude::*;

const CLIENTS: usize = 3;
const JOBS_PER_CLIENT: usize = 12;
const WORKERS: usize = 4;

/// Fixed fuel per shard — small enough that every workload crosses
/// several snapshot boundaries at `Scale::Test`.
const SHARD_FUEL: u64 = 30_000;

/// The 6 distinct specs of the traffic mix. 36 submissions over 6
/// specs guarantee every spec repeats across clients.
fn specs() -> Vec<JobSpec> {
    ["compress", "go", "li", "ijpeg", "perl", "vortex"]
        .iter()
        .map(|w| {
            JobSpec::new(*w)
                .policies([Policy::Idle, Policy::Str, Policy::StrNested(3)])
                .tus([4])
                .plan(Plan::sliced(SHARD_FUEL))
        })
        .collect()
}

fn worker_command() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_svc_run"));
    cmd.arg("--worker");
    cmd
}

/// Single-pass in-process references, one per spec, keyed by workload.
fn references(specs: &[JobSpec]) -> HashMap<String, WorkloadOutcome> {
    specs
        .iter()
        .map(|s| {
            let r = single_pass_outcome(&s.workload, s.scale, &s.lane_specs(), s.total_fuel)
                .expect("reference run succeeds");
            (s.workload.clone(), r)
        })
        .collect()
}

fn assert_matches_reference(report: &Report, reference: &WorkloadOutcome, ctx: &str) {
    assert_eq!(
        report.instructions, reference.instructions,
        "{ctx}: instruction count"
    );
    assert_eq!(report.lanes, reference.lanes, "{ctx}: lane reports");
    assert_eq!(
        report.state, reference.state,
        "{ctx}: serialized sink state"
    );
}

/// Drives the full mixed-traffic scenario against `service` and checks
/// every acceptance clause. Consumes and shuts the service down,
/// returning the final stats snapshot.
fn run_mixed_traffic(service: Service, ctx: &str) -> SvcStats {
    let specs = specs();
    let references = references(&specs);

    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let client = service.client();
            let specs = specs.clone();
            std::thread::spawn(move || {
                let mut answers = Vec::with_capacity(JOBS_PER_CLIENT);
                for j in 0..JOBS_PER_CLIENT {
                    let spec = specs[(c + j) % specs.len()].clone();
                    let completion = client
                        .run(spec.clone())
                        .unwrap_or_else(|e| panic!("client {c} job {j}: {e}"));
                    answers.push((spec.workload.clone(), completion));
                }
                answers
            })
        })
        .collect();

    let mut per_spec_hits: HashMap<String, u64> = HashMap::new();
    let mut completions = 0u64;
    for handle in handles {
        for (workload, completion) in handle.join().expect("client thread") {
            completions += 1;
            if completion.cached {
                *per_spec_hits.entry(workload.clone()).or_default() += 1;
            }
            assert_matches_reference(
                &completion.report,
                &references[&workload],
                &format!("{ctx}: {workload}"),
            );
        }
    }
    assert_eq!(completions, (CLIENTS * JOBS_PER_CLIENT) as u64, "{ctx}");

    // The concurrent phase may coalesce instead of hitting; one more
    // sequential round against the now-warm cache must be pure hits —
    // at least one per repeated spec, deterministically.
    let client = service.client();
    for spec in &specs {
        let completion = client.run(spec.clone()).expect("warm query succeeds");
        assert!(
            completion.cached,
            "{ctx}: {} must be answered from the cache",
            spec.workload
        );
        *per_spec_hits.entry(spec.workload.clone()).or_default() += 1;
        assert_matches_reference(
            &completion.report,
            &references[&spec.workload],
            &format!("{ctx}: {} warm", spec.workload),
        );
    }
    for spec in &specs {
        assert!(
            per_spec_hits.get(&spec.workload).copied().unwrap_or(0) >= 1,
            "{ctx}: {} repeated but never hit the cache",
            spec.workload
        );
    }

    let stats = service.stats();
    let total = (CLIENTS * JOBS_PER_CLIENT + specs.len()) as u64;
    assert_eq!(stats.submitted, total, "{ctx}");
    assert_eq!(stats.rejected, 0, "{ctx}: queue 64 never pushes back");
    assert_eq!(stats.failed, 0, "{ctx}: every job answered");
    assert_eq!(stats.in_flight, 0, "{ctx}: nothing left running");
    assert_eq!(stats.queue_depth, 0, "{ctx}");
    assert_eq!(stats.submitted, stats.accepted + stats.rejected, "{ctx}");
    assert_eq!(
        stats.accepted,
        stats.completed + stats.failed + stats.in_flight,
        "{ctx}"
    );
    assert_eq!(
        stats.cache_hits + stats.cache_misses + stats.coalesced,
        total,
        "{ctx}: every submission is a hit, a miss, or a coalesce"
    );
    assert_eq!(
        stats.cache_misses,
        specs.len() as u64,
        "{ctx}: each distinct spec computes exactly once"
    );
    assert!(
        stats.cache_hits >= specs.len() as u64,
        "{ctx}: at least the warm round hit"
    );
    service.shutdown();
    stats
}

#[test]
fn mixed_traffic_is_cached_coalesced_and_byte_identical() {
    let service = Service::spawn_with(
        SvcConfig {
            workers: WORKERS,
            ..SvcConfig::default()
        },
        |_| worker_command(),
    )
    .expect("workers spawn");
    let stats = run_mixed_traffic(service, "healthy pool");
    assert_eq!(stats.workers_lost, 0, "no worker should die");
    assert_eq!(stats.workers_respawned, 0);
}

#[test]
fn mixed_traffic_survives_a_worker_killed_mid_run() {
    // Worker 0 vanishes (no reply, exit 3) on its 3rd job — after real
    // work has flowed through it. The scheduler must requeue its
    // in-flight job from the last good snapshot and respawn a
    // replacement (which gets a fresh slot index, so it is NOT
    // re-rigged); clients see completed, byte-identical answers and
    // the metrics still balance.
    let service = Service::spawn_with(
        SvcConfig {
            workers: WORKERS,
            ..SvcConfig::default()
        },
        |i| {
            let mut cmd = worker_command();
            if i == 0 {
                cmd.env(CRASH_AFTER_ENV, "2");
            }
            cmd
        },
    )
    .expect("workers spawn");
    let probe = service.client();
    let stats = run_mixed_traffic(service, "killed worker");
    assert_eq!(stats.workers_lost, 1, "exactly the rigged worker died");
    assert_eq!(stats.workers_respawned, 1, "the pool was replenished");
    // The shared scheduler journals the loss like a coordinator run.
    let records = journal::snapshot();
    for kind in [
        EventKind::WorkerDeath,
        EventKind::Requeue,
        EventKind::WorkerRespawn,
    ] {
        assert!(
            records.iter().any(|r| r.kind == kind),
            "journal lacks a {} record",
            kind.name()
        );
    }
    // The service is gone; the stats query through a stale client
    // proves disconnection is an error, not a hang.
    assert!(
        probe.stats().is_err(),
        "clients outliving the service error"
    );
}

fn assert_invariants(s: &SvcStats, ctx: &str) {
    assert_eq!(s.submitted, s.accepted + s.rejected, "{ctx}: {s:?}");
    assert_eq!(
        s.accepted,
        s.completed + s.failed + s.in_flight,
        "{ctx}: {s:?}"
    );
}

fn expect_failure(result: Result<Completion, SvcError>, needle: &str, ctx: &str) {
    match result {
        Err(SvcError::Failed { message }) => {
            assert!(message.contains(needle), "{ctx}: {message}");
        }
        other => panic!("{ctx}: expected a failure naming {needle:?}, got {other:?}"),
    }
}

#[test]
fn poison_and_dead_pool_fail_only_their_own_jobs_and_the_cache_outlives_the_pool() {
    // One worker. Slot 0 serves one job and dies on its second; every
    // replacement (slots 1 and 2 — the respawn budget is 2x the pool)
    // dies on its first.
    let service = Service::spawn_with(
        SvcConfig {
            workers: 1,
            ..SvcConfig::default()
        },
        |i| {
            let mut cmd = worker_command();
            cmd.env(CRASH_AFTER_ENV, if i == 0 { "1" } else { "0" });
            cmd
        },
    )
    .expect("workers spawn");
    let client = service.client();
    // One-shard specs: each computation is exactly one job.
    let spec = |workload: &str| {
        JobSpec::new(workload)
            .policies([Policy::Str])
            .tus([4])
            .plan(Plan::split(1))
    };

    let a = client.run(spec("compress")).expect("A completes on slot 0");
    assert!(!a.cached, "A computes");
    assert_invariants(&service.stats(), "after A");

    // B kills slot 0, is requeued, then kills its replacement: poison.
    expect_failure(client.run(spec("go")), "poison", "B");
    assert_invariants(&service.stats(), "after B");

    // C kills the last replacement; the budget is spent, so the pool
    // is dead and C fails.
    expect_failure(client.run(spec("li")), "all workers died", "C");
    assert_invariants(&service.stats(), "after C");

    let again = client.run(spec("compress")).expect("A is still served");
    assert!(again.cached, "A is answered from the cache");
    assert_eq!(again.report, a.report);
    assert_invariants(&service.stats(), "after A again");

    expect_failure(client.run(spec("ijpeg")), "no workers left alive", "miss");
    let stats = service.stats();
    assert_invariants(&stats, "after the last miss");
    assert_eq!((stats.completed, stats.failed), (2, 3), "{stats:?}");
    assert_eq!(
        (stats.workers_lost, stats.workers_respawned),
        (3, 2),
        "{stats:?}"
    );
    assert_eq!(stats.workers_dead, 3, "{stats:?}");
    service.shutdown();
}
