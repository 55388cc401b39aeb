//! Golden values for the bytes the `dist` layer puts on the wire.
//!
//! The report cache is addressed by `JobSpec::fingerprint`, and workers
//! of one build must decode the frames of another build of the same
//! `PROTOCOL`. Neither may drift by accident: a changed fingerprint
//! silently orphans every cached report, and changed frame bytes break
//! mixed deployments without a protocol bump. This suite pins absolute
//! values; re-record them only for a change that also bumps `PROTOCOL`
//! or is meant to invalidate cached reports.

use loopspec::dist::{default_lanes, Frame, Job, JobSpec, Policy, PROTOCOL};
use loopspec::isa::snap::fnv1a;
use loopspec::workloads::Scale;

#[test]
fn protocol_version_is_pinned() {
    assert_eq!(PROTOCOL, 3);
}

#[test]
fn default_spec_fingerprint_is_pinned() {
    let got = JobSpec::new("compress").fingerprint();
    assert_eq!(got, 0x63847467419e2f7e, "got {got:#018x}");
}

#[test]
fn policy_cross_product_fingerprint_is_pinned() {
    let got = JobSpec::new("compress")
        .policies([Policy::Str, Policy::StrNested(3)])
        .tus([2, 16])
        .fingerprint();
    assert_eq!(got, 0xf735a17c147d47a8, "got {got:#018x}");
}

#[test]
fn job_frame_bytes_are_pinned() {
    let frame = Frame::Job(Job {
        id: 7,
        workload: "compress".into(),
        scale: Scale::Test,
        lanes: default_lanes(),
        shard: 2,
        budget: 25_000,
        total_fuel: 1_000_000,
        last: false,
        snapshot: Some(vec![1, 2, 3]),
    });
    let bytes = frame.encode();
    let got = (bytes.len(), fnv1a(&bytes));
    assert_eq!(
        got,
        (215, 0xe0ae16fcafce25e8),
        "got ({}, {:#018x})",
        got.0,
        got.1
    );
    assert_eq!(Frame::decode(&bytes).expect("round-trips"), frame);
}
