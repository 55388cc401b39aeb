//! Golden values for the speculation engine's decision core.
//!
//! The grid-vs-batch equivalence suites cannot catch a regression in
//! the decision core itself: both drivers share it, so a wrong spawn,
//! verify or squash shows up identically on both sides. This suite pins
//! what the core produces instead:
//!
//! * a digest of every lane's `EngineReport` for the paper's 20-lane
//!   grid, and of the unbounded phase-2 oracle lane behind `ideal_tpc`,
//!   on six representative workloads at `Scale::Test` (li and m88ksim
//!   exercise live sets with holes left by the run-ahead skip);
//! * the length and checksum of a 20-lane grid's snapshot at several
//!   mid-stream cut points, so the engine's snapshot layout (container
//!   v3) cannot drift silently.
//!
//! A mismatch prints the freshly computed table. Only re-record it for a
//! change that is meant to alter what is simulated or how it is stored.

use loopspec::dist::{default_lanes, LaneSpec};
use loopspec::isa::snap::{fnv1a, Enc};
use loopspec::prelude::*;

/// Workload → per-lane report digests of the 20-lane grid (lane order
/// of `default_lanes`), then the unbounded oracle lane's digest.
const REPORT_DIGESTS: [(&str, [u32; 20], u32); 6] = [
    (
        "compress",
        [
            0x9cb64267, 0xc7ff0079, 0x3e74ddcd, 0xa9c02aba, 0x82bcf673, 0xd2fa8900, 0x2eb7194c,
            0x96d159b6, 0x7bac136f, 0xf1ebef9e, 0xaacee0c7, 0x26404e99, 0x3a1c7780, 0x943e4f08,
            0x6c0751d6, 0x9eaa0778, 0xab749034, 0x4cdbbfb0, 0x97fa4e42, 0x44346a80,
        ],
        0x6d520cc3,
    ),
    (
        "go",
        [
            0x2aebca2b, 0x4dfd2ff8, 0x6997a7f3, 0x64e40933, 0x523c5525, 0x5296ff63, 0x41fc1a95,
            0x3bea5689, 0x9fdb6953, 0x36f0d841, 0xdc71f387, 0x46071859, 0x7a769d79, 0xb0beb39a,
            0xe3dacb19, 0x8cc7c15c, 0xe6fc4d88, 0x4ffd76f1, 0xd80fdd0a, 0x3a543d00,
        ],
        0x615e4611,
    ),
    (
        "swim",
        [
            0xed429370, 0xf31d613c, 0xb127a92e, 0x3b4cf4e4, 0x4387f9ae, 0x3325e22a, 0x57901be6,
            0x3f1154dd, 0x6376cc47, 0xac4acb2c, 0x2c50e85e, 0xb99e638a, 0x64bdd0f8, 0xfdf5134d,
            0x1c48d609, 0xe384c199, 0x1d59b193, 0x155994bc, 0xa4314a90, 0x6a0cf64c,
        ],
        0xcd884788,
    ),
    (
        "li",
        [
            0x89791516, 0x93bbd2ee, 0x2b178237, 0x6efbb2b9, 0xa9058867, 0x9ad40f91, 0xf4169a3b,
            0x7aee04db, 0x545c77c4, 0x7b602960, 0x4f6565f6, 0x8fafc7f2, 0x7467ecf0, 0x1463c442,
            0x866c78aa, 0x8bf77f8f, 0x1e6e1c91, 0x7156a56c, 0x6bfeefc9, 0x7c5117fc,
        ],
        0x34a06443,
    ),
    (
        "m88ksim",
        [
            0x421f4f91, 0x61e60440, 0x30683da6, 0x45169ca2, 0x145d9d8c, 0x2ec4cac5, 0x78c06e86,
            0xf463dce9, 0xe55500b5, 0xeab40be5, 0x96e1cb59, 0xf838cb53, 0xe4e3755f, 0xfab6a0e1,
            0x49eb8219, 0x88fc939e, 0x8f6416ca, 0x2f7754fb, 0x74e81fbf, 0x05aecbab,
        ],
        0x426a7991,
    ),
    (
        "ijpeg",
        [
            0xdeb40b42, 0x8d59684e, 0xc822e25b, 0x5298ab18, 0xeff431c3, 0xb47a1db4, 0xed4cb7f0,
            0x8a0fae74, 0x3da76056, 0x012476b6, 0x024fb9ea, 0xcdbf37a6, 0xea137eb4, 0x6c67ffdb,
            0xcc63c916, 0x30295bc8, 0xdf3986c4, 0x3db0333c, 0xbe80822b, 0x89c97b8d,
        ],
        0x44a0529d,
    ),
];

/// Workload → (byte length, FNV-1a) of the 20-lane grid's saved state
/// after each `CUTS` fraction of the loop-event stream.
const SNAPSHOT_PINS: [(&str, [(usize, u64); 4]); 2] = [
    (
        "ijpeg",
        [
            (12558, 0x8c645e89fcfe0fbe),
            (14457, 0x6c430bf91575b4a6),
            (17601, 0x5e35697311088ed5),
            (931382, 0x42bf0f836dd6613c),
        ],
    ),
    (
        "m88ksim",
        [
            (12222, 0xca9498633d008598),
            (12046, 0x9766e7c29ebdc4c4),
            (12961, 0xa5462652cdd6e819),
            (11782, 0x5a06114d8c79fb64),
        ],
    ),
];

/// Mid-stream cut points, as fractions of the event count.
const CUTS: [(usize, usize); 4] = [(1, 5), (2, 5), (3, 5), (4, 5)];

/// The workload's loop events and instruction count at `Scale::Test`.
fn events_of(name: &str) -> (Vec<LoopEvent>, u64) {
    let program = workload_by_name(name)
        .expect("workload exists")
        .build(Scale::Test)
        .expect("assembles");
    let mut collector = EventCollector::default();
    let mut session = Session::new();
    session.observe_loops(&mut collector);
    let out = session
        .run(&program, RunLimits::default())
        .expect("workload runs");
    assert!(out.halted(), "{name} must halt");
    collector.into_parts()
}

fn paper_grid() -> EngineGrid {
    LaneSpec::build_grid(&default_lanes()).expect("paper lanes are valid")
}

/// Folds every field of `report` into a 32-bit digest.
fn digest(report: &EngineReport) -> u32 {
    let s = &report.spec;
    let mut enc = Enc::new();
    for v in [
        report.instructions,
        report.cycles,
        s.spec_actions,
        s.threads_spawned,
        s.verified,
        s.squashed_misspec,
        s.squashed_policy,
        s.squashed_stale,
        s.instr_to_outcome_sum,
        report.tus.map_or(u64::MAX, |t| t as u64),
    ] {
        enc.u64(v);
    }
    enc.bytes(report.policy.as_bytes());
    fnv1a(enc.as_slice()) as u32
}

/// The grid's lane digests and the unbounded oracle lane's digest.
fn report_digests(events: &[LoopEvent], instructions: u64) -> ([u32; 20], u32) {
    let mut grid = paper_grid();
    grid.on_loop_events(events);
    grid.on_stream_end(instructions);
    let lanes: Vec<u32> = grid
        .reports()
        .expect("stream ended")
        .iter()
        .map(digest)
        .collect();

    let mut log = IterationCountLog::new();
    log.on_loop_events(events);
    log.on_stream_end(instructions);
    let mut oracle = EngineGrid::new();
    oracle.push_oracle_unbounded(log.into_feed());
    oracle.on_loop_events(events);
    oracle.on_stream_end(instructions);
    let ideal = oracle.report(0).expect("stream ended");
    assert_eq!(
        ideal.cycles,
        ideal_tpc_streaming(events, instructions).cycles,
        "the oracle lane is the one ideal_tpc runs"
    );

    (lanes.try_into().expect("20 lanes"), digest(ideal))
}

#[test]
fn engine_reports_match_the_golden_digests() {
    let mut actual = Vec::new();
    for (name, _, _) in REPORT_DIGESTS {
        let (events, n) = events_of(name);
        actual.push((name, report_digests(&events, n)));
    }
    let expected: Vec<_> = REPORT_DIGESTS
        .iter()
        .map(|&(name, lanes, ideal)| (name, (lanes, ideal)))
        .collect();
    if actual != expected {
        let mut table = String::new();
        for (name, (lanes, ideal)) in &actual {
            let lanes: Vec<String> = lanes.iter().map(|d| format!("{d:#010x}")).collect();
            table += &format!("(\"{name}\", [{}], {ideal:#010x}),\n", lanes.join(", "));
        }
        for ((name, got), (_, want)) in actual.iter().zip(&expected) {
            for (lane, (g, w)) in got.0.iter().zip(&want.0).enumerate() {
                if g != w {
                    eprintln!("{name}: lane {lane} ({:?}) differs", default_lanes()[lane]);
                }
            }
            if got.1 != want.1 {
                eprintln!("{name}: unbounded oracle lane differs");
            }
        }
        panic!("engine reports drifted from the golden digests; computed:\n{table}");
    }
}

#[test]
fn grid_snapshot_bytes_match_the_pins() {
    let mut actual = Vec::new();
    for (name, _) in SNAPSHOT_PINS {
        let (events, _) = events_of(name);
        let mut grid = paper_grid();
        let mut fed = 0;
        let mut pins = [(0usize, 0u64); 4];
        for (pin, (num, den)) in pins.iter_mut().zip(CUTS) {
            let cut = events.len() * num / den;
            grid.on_loop_events(&events[fed..cut]);
            fed = cut;
            let mut enc = Enc::new();
            grid.save_state(&mut enc);
            *pin = (enc.len(), fnv1a(enc.as_slice()));

            let mut resumed = paper_grid();
            resumed
                .load_state(&mut loopspec::isa::snap::Dec::new(enc.as_slice()))
                .expect("a saved grid loads");
        }
        actual.push((name, pins));
    }
    if actual[..] != SNAPSHOT_PINS[..] {
        let mut table = String::new();
        for (name, pins) in &actual {
            let pins: Vec<String> = pins
                .iter()
                .map(|(len, sum)| format!("({len}, {sum:#018x})"))
                .collect();
            table += &format!("(\"{name}\", [{}]),\n", pins.join(", "));
        }
        panic!("grid snapshot bytes drifted from the pins; computed:\n{table}");
    }
}
