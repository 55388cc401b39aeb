//! The replay-service cache acceptance criterion: for **every** one of
//! the 18 workloads, a repeated submission must be answered from the
//! content-addressed cache, and the cached report must be
//! **byte-identical** — lane reports and serialized sink state — both
//! to the fresh service computation and to a single-pass in-process
//! `Session` over the same spec. The cache must also degrade safely:
//! entries evicted under capacity pressure recompute (still
//! byte-identical), and a corrupted entry is detected by its seal,
//! evicted, and recomputed — never served.
//!
//! The worker processes are the `svc_run` binary in `--worker` mode
//! (`CARGO_BIN_EXE_svc_run`), so this suite exercises the production
//! path: process spawn, stdio pipe transport, frame protocol, snapshot
//! chaining.

use std::process::Command;

use loopspec::dist::{single_pass_outcome, JobSpec, Policy, Report};
use loopspec::prelude::*;

/// Fixed fuel per shard — small enough that every workload crosses
/// several snapshot boundaries at `Scale::Test`.
const SHARD_FUEL: u64 = 30_000;

/// One policy per family (the full 20-lane grid is priced by the
/// bench; cache correctness only needs coverage).
fn spec_for(name: &str) -> JobSpec {
    JobSpec::new(name)
        .policies([Policy::Idle, Policy::Str, Policy::StrNested(3)])
        .tus([4])
        .plan(Plan::sliced(SHARD_FUEL))
}

/// A worker-process command for the real `svc_run` binary.
fn worker_command() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_svc_run"));
    cmd.arg("--worker");
    cmd
}

fn service(workers: usize, cache_capacity: usize) -> Service {
    Service::spawn_with(
        SvcConfig {
            workers,
            cache_capacity,
            ..SvcConfig::default()
        },
        |_| worker_command(),
    )
    .expect("workers spawn")
}

/// The report must match the single-pass in-process reference byte for
/// byte: instruction count, every lane report, and the full serialized
/// sink state.
fn assert_matches_reference(report: &Report, spec: &JobSpec, ctx: &str) {
    let r = single_pass_outcome(
        &spec.workload,
        spec.scale,
        &spec.lane_specs(),
        spec.total_fuel,
    )
    .expect("reference run succeeds");
    assert_eq!(
        report.instructions, r.instructions,
        "{ctx}: {} instruction count",
        spec.workload
    );
    assert_eq!(
        report.lanes, r.lanes,
        "{ctx}: {} lane reports must be byte-identical",
        spec.workload
    );
    assert_eq!(
        report.state, r.state,
        "{ctx}: {} serialized sink state must be byte-identical",
        spec.workload
    );
}

#[test]
fn every_workload_caches_and_stays_byte_identical() {
    let service = service(4, 64);
    let client = service.client();
    for w in all_workloads() {
        let spec = spec_for(w.name);
        let fresh = client.run(spec.clone()).expect("fresh run succeeds");
        assert!(!fresh.cached, "{}: first submission computes", w.name);
        let again = client.run(spec.clone()).expect("repeat succeeds");
        assert!(again.cached, "{}: repeat must be a cache hit", w.name);
        assert_eq!(
            fresh.report, again.report,
            "{}: cached report must equal the fresh one byte for byte",
            w.name
        );
        assert_matches_reference(&fresh.report, &spec, "fresh");
        assert_matches_reference(&again.report, &spec, "cached");
    }
    let stats = service.stats();
    let n = all_workloads().len() as u64;
    assert_eq!(stats.cache_hits, n, "one hit per workload");
    assert_eq!(stats.cache_misses, n, "one miss per workload");
    assert_eq!(stats.evictions, 0, "capacity 64 holds all 18 entries");
    assert_eq!(stats.submitted, 2 * n);
    assert_eq!(stats.submitted, stats.accepted + stats.rejected);
    assert_eq!(
        stats.accepted,
        stats.completed + stats.failed + stats.in_flight
    );
    service.shutdown();
}

#[test]
fn evicted_entries_recompute_byte_identically() {
    // Capacity 1: B's insertion evicts A, so A's second submission is
    // a miss again — recomputed, not wrongly served from a stale or
    // missing slot — and still byte-identical to its first answer.
    let service = service(2, 1);
    let client = service.client();
    let a = spec_for("compress");
    let b = spec_for("go");

    let a1 = client.run(a.clone()).expect("a computes");
    let b1 = client.run(b.clone()).expect("b computes, evicting a");
    let a2 = client.run(a.clone()).expect("a recomputes");
    assert!(!a2.cached, "a was evicted and must recompute");
    assert_eq!(a1.report, a2.report, "recomputed a is byte-identical");
    let b2 = client.run(b.clone()).expect("b recomputes");
    assert!(!b2.cached, "a's recompute evicted b in turn");
    assert_eq!(b1.report, b2.report, "recomputed b is byte-identical");

    let stats = service.stats();
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.cache_misses, 4);
    assert!(stats.evictions >= 2, "capacity pressure evicted twice");
    service.shutdown();
}

#[test]
fn corrupted_cache_entries_are_evicted_and_recomputed() {
    let service = service(2, 64);
    let client = service.client();
    let spec = spec_for("li");

    let fresh = client.run(spec.clone()).expect("computes");
    assert!(!fresh.cached);
    assert!(
        service.corrupt_cache_entry(spec.fingerprint()),
        "the entry exists to be corrupted"
    );
    let again = client.run(spec.clone()).expect("recomputes");
    assert!(!again.cached, "the seal must reject the corrupted entry");
    assert_eq!(
        fresh.report, again.report,
        "recomputed report is byte-identical"
    );
    assert_matches_reference(&again.report, &spec, "recomputed");

    // The recompute repopulated the cache; the third query hits.
    let third = client.run(spec.clone()).expect("hits");
    assert!(third.cached, "the repaired entry serves again");
    assert_eq!(fresh.report, third.report);

    let stats = service.stats();
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 2);
    assert!(stats.evictions >= 1, "corruption counts as an eviction");
    service.shutdown();
}
