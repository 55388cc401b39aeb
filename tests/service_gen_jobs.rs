//! Generated-scenario jobs through the persistent service: valid
//! `gen:<family>:<seed>` specs must complete with reports byte-identical
//! to the in-process single-pass reference (and hit the
//! content-addressed cache on resubmission), while malformed gen tokens
//! must be turned away at admission control with the `SvcStats`
//! counters still satisfying their invariants —
//! `submitted == accepted + rejected` and
//! `accepted == completed + failed + in_flight` — with every rejected
//! submission accounted for in `failed`.
//!
//! Workers are real `svc_run --worker` processes, so this exercises the
//! same wire path production traffic takes.

use std::process::Command;

use loopspec::dist::{single_pass_outcome, JobSpec, Policy};
use loopspec::gen::families;
use loopspec::prelude::*;

fn worker_command() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_svc_run"));
    cmd.arg("--worker");
    cmd
}

fn spawn_service() -> Service {
    Service::spawn_with(
        SvcConfig {
            workers: 2,
            ..SvcConfig::default()
        },
        |_| worker_command(),
    )
    .expect("service starts")
}

fn gen_spec(name: &str) -> JobSpec {
    JobSpec::new(name)
        .policies([Policy::Str, Policy::StrNested(2)])
        .tus([4])
}

#[test]
fn generated_jobs_complete_and_cache_like_named_workloads() {
    let service = spawn_service();
    let client = service.client();

    let mut submitted = 0u64;
    for family in families().iter().take(3) {
        let name = loopspec::workloads::families::name_of(family.name, 5);
        let spec = gen_spec(&name);
        let reference = single_pass_outcome(&name, spec.scale, &spec.lane_specs(), spec.total_fuel)
            .expect("reference run succeeds");

        let fresh = client.run(spec.clone()).expect("gen job completes");
        submitted += 1;
        assert_eq!(fresh.report.instructions, reference.instructions, "{name}");
        assert_eq!(fresh.report.lanes, reference.lanes, "{name}");
        assert_eq!(fresh.report.state, reference.state, "{name}");

        let again = client.run(spec).expect("resubmission completes");
        submitted += 1;
        assert!(again.cached, "{name}: identical spec should hit the cache");
        assert_eq!(again.report, fresh.report, "{name}: cache altered report");
    }

    let stats = service.stats();
    service.shutdown();
    assert_eq!(stats.submitted, submitted);
    assert_eq!(stats.submitted, stats.accepted + stats.rejected);
    assert_eq!(
        stats.accepted,
        stats.completed + stats.failed + stats.in_flight
    );
    assert_eq!(stats.failed, 0);
    assert_eq!(stats.in_flight, 0);
    assert!(stats.cache_hits >= 3, "expected cache hits, got {stats:?}");
}

#[test]
fn malformed_gen_jobs_are_refused_at_admission_with_consistent_counters() {
    let service = spawn_service();
    let client = service.client();

    // One good job first, so the counters mix completed and failed work.
    let good = loopspec::workloads::families::name_of("chase", 0);
    client
        .run(gen_spec(&good))
        .expect("valid gen job completes");

    let bad_names = [
        "gen:",
        "gen:chase",
        "gen:chase:",
        "gen:chase:seed",
        "gen:chase:-1",
        "gen::7",
        "gen:unknownfamily:7",
        "gen:CHASE:7",
    ];
    for name in bad_names {
        match client.run(gen_spec(name)) {
            Err(SvcError::Failed { message }) => assert!(
                message.contains("invalid job spec"),
                "{name}: unexpected refusal text: {message}"
            ),
            other => panic!("{name}: admission control let it through: {other:?}"),
        }
    }

    // A structurally valid gen name with a bad lane list must also be
    // refused — gen jobs get no special pass on the rest of validation.
    let no_lanes = JobSpec::new(good.clone()).policies([]).tus([]);
    assert!(matches!(
        client.run(no_lanes),
        Err(SvcError::Failed { message }) if message.contains("invalid job spec")
    ));

    let stats = service.stats();
    service.shutdown();
    let refused = bad_names.len() as u64 + 1;
    assert_eq!(stats.submitted, refused + 1);
    assert_eq!(stats.submitted, stats.accepted + stats.rejected);
    assert_eq!(
        stats.accepted,
        stats.completed + stats.failed + stats.in_flight
    );
    assert_eq!(stats.failed, refused, "every bad spec lands in failed");
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.in_flight, 0);
    // Refused specs never reach the cache layer.
    assert_eq!(stats.cache_hits + stats.cache_misses + stats.coalesced, 1);
}
