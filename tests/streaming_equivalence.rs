//! The streaming `Session` path must produce **identical**
//! `EngineReport`s (TPC, per-policy speculation statistics) to the legacy
//! collect-then-replay path, on every workload and every history-based
//! policy. One CPU pass per workload drives both: the session feeds the
//! streaming engines live while an `EventCollector` captures the same
//! event stream for the batch replay.

use loopspec::prelude::*;

/// The policies the acceptance criteria name: IDLE, STR, STR(i).
const POLICIES: [Policy; 3] = [Policy::Idle, Policy::Str, Policy::StrNested(3)];

/// Runs one workload once; checks every policy at `tus` thread units,
/// through both fan-out shapes: one single-lane grid per policy, each
/// its own session sink, and one shared-annotation grid holding every
/// policy as a lane.
fn check_workload(name: &str, tus: usize) {
    let w = workload_by_name(name).expect("workload exists");
    let program = w.build(Scale::Test).expect("assembles");

    let mut collector = EventCollector::default();
    let mut engines: Vec<EngineGrid> = POLICIES
        .iter()
        .map(|policy| {
            let mut single = EngineGrid::new();
            policy.add_to_grid(&mut single, tus);
            single
        })
        .collect();
    let mut grid = EngineGrid::new();
    for policy in POLICIES {
        policy.add_to_grid(&mut grid, tus);
    }
    let mut session = Session::new();
    session.observe_loops(&mut collector);
    for engine in engines.iter_mut() {
        session.observe_loops(engine);
    }
    session.observe_loops(&mut grid);
    let out = session
        .run(&program, RunLimits::default())
        .expect("workload runs");
    assert!(out.halted(), "{name} must halt");

    let (events, n) = collector.into_parts();
    assert_eq!(n, out.instructions);
    let trace = AnnotatedTrace::build(&events, n);

    for (lane, (&policy, engine)) in POLICIES.iter().zip(&engines).enumerate() {
        let streamed = engine
            .report(0)
            .unwrap_or_else(|| panic!("{name}/{policy:?}: stream did not end"));
        let batch = Engine::new(&trace, policy, tus).run();
        assert_eq!(
            *streamed, batch,
            "{name}: streaming vs batch diverged for {policy:?} @ {tus} TUs"
        );
        assert_eq!(
            grid.report(lane).expect("grid finished"),
            &batch,
            "{name}: grid lane vs batch diverged for {policy:?} @ {tus} TUs"
        );
    }
}

#[test]
fn all_workloads_idle_str_strnested_at_4_tus() {
    for w in all_workloads() {
        check_workload(w.name, 4);
    }
}

#[test]
fn tu_sweep_on_representative_workloads() {
    // Deep nesting (go), recursion (li), interpreter dispatch (perl),
    // regular FP loops (swim): sweep the TU axis too.
    for name in ["go", "li", "perl", "swim"] {
        for tus in [2usize, 8, 16] {
            check_workload(name, tus);
        }
    }
}
