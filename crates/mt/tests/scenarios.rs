//! Engine scenarios on assembled programs: predictor warm-up, STR(i)
//! rescue of inner loops, and stale-thread handling.

use loopspec_asm::ProgramBuilder;
use loopspec_core::EventCollector;
use loopspec_cpu::{Cpu, RunLimits};
use loopspec_mt::{AnnotatedTrace, Engine, Policy};

fn trace_of(build: impl FnOnce(&mut ProgramBuilder)) -> AnnotatedTrace {
    let mut b = ProgramBuilder::new();
    build(&mut b);
    let p = b.finish().expect("assembles");
    let mut c = EventCollector::default();
    let summary = Cpu::new()
        .run(&p, &mut c, RunLimits::default())
        .expect("runs");
    assert!(summary.halted());
    let (events, n) = c.into_parts();
    AnnotatedTrace::build(&events, n)
}

/// Repeated executions of one fixed-trip loop via straight-line calls —
/// the cleanest predictor-training scenario.
fn repeated_kernel(reps: usize, trips: i64) -> AnnotatedTrace {
    trace_of(move |b| {
        b.define_func("kernel", move |b| {
            b.counted_loop(trips, |b, _| b.work(10));
        });
        for _ in 0..reps {
            b.call_func("kernel");
        }
    })
}

#[test]
fn predictor_eliminates_phantoms_after_warmup() {
    let trace = repeated_kernel(10, 20);
    let idle = Engine::new(&trace, Policy::Idle, 8).run();
    let strp = Engine::new(&trace, Policy::Str, 8).run();
    // IDLE overshoots every execution's end; STR only the first
    // (untrained) one.
    assert!(idle.spec.squashed_misspec >= 9 * 2);
    assert!(
        strp.spec.squashed_misspec < idle.spec.squashed_misspec / 2,
        "STR {} vs IDLE {}",
        strp.spec.squashed_misspec,
        idle.spec.squashed_misspec
    );
}

#[test]
fn str_nested_rescues_inner_loops_from_a_hoarding_outer() {
    // One long outer loop with three sequential inner loops per
    // iteration: with 4 TUs the outer hoards everything; STR(1) frees
    // TUs for inner loops after one non-speculated inner execution.
    let build = |b: &mut ProgramBuilder| {
        b.counted_loop(8, |b, _| {
            for _ in 0..3 {
                b.counted_loop(15, |b, _| b.work(6));
            }
        });
    };
    let trace = trace_of(build);
    let plain = Engine::new(&trace, Policy::Str, 4).run();
    let nested = Engine::new(&trace, Policy::StrNested(1), 4).run();
    assert_eq!(plain.spec.squashed_policy, 0);
    assert!(nested.spec.squashed_policy > 0, "{:?}", nested.spec);
    // The inner loops got speculation opportunities under STR(1): more
    // speculation actions happened overall.
    assert!(
        nested.spec.spec_actions > plain.spec.spec_actions,
        "STR(1) {} vs STR {}",
        nested.spec.spec_actions,
        plain.spec.spec_actions
    );
}

#[test]
fn stale_threads_are_counted_not_handed_off() {
    // Nested fixed loops where the outer is speculated far ahead: inner
    // iterations detected in a run-ahead backlog may produce stale
    // segments in corner cases; the engine must never lose cycles to
    // them (TPC with speculation >= 1 and <= ideal is covered elsewhere;
    // here we check the accounting field is wired).
    let trace = trace_of(|b| {
        b.counted_loop(12, |b, _| {
            b.counted_loop(12, |b, _| b.work(8));
        });
    });
    let r = Engine::new(&trace, Policy::Idle, 16).run();
    assert_eq!(
        r.spec.threads_spawned,
        r.spec.verified + r.spec.squashed_misspec + r.spec.squashed_policy + r.spec.squashed_stale,
        "{:?}",
        r.spec
    );
}

#[test]
fn prefix_traces_report_lower_or_equal_instructions() {
    let trace = repeated_kernel(6, 30);
    let r_full = Engine::new(&trace, Policy::Str, 4).run();
    // Rebuild a half trace through the public API.
    let half_events: Vec<_> = trace.events.clone();
    let _ = half_events; // events themselves are not re-consumable here;
                         // the Figure 5 prefix path (two-phase oracle
                         // over the event prefix) is exercised in
                         // loopspec-bench tests.
    assert!(r_full.instructions == trace.instructions);
}

#[test]
fn engine_handles_truncated_traces() {
    // A trace cut mid-execution (no halt): open executions close at the
    // end and the engine still satisfies its conservation laws.
    let mut b = ProgramBuilder::new();
    b.loop_forever(|b| b.work(5));
    let p = b.finish().unwrap();
    let mut c = EventCollector::default();
    let summary = Cpu::new()
        .run(&p, &mut c, RunLimits::with_fuel(5_000))
        .unwrap();
    assert!(!summary.halted());
    let (events, n) = c.into_parts();
    let trace = AnnotatedTrace::build(&events, n);
    assert!(!trace.execs.is_empty());
    assert!(!trace.execs[0].closed);
    let r = Engine::new(&trace, Policy::Str, 4).run();
    assert_eq!(r.spec.threads_spawned, r.spec.resolved());
    assert!(r.cycles <= n);
}

#[test]
fn sixteen_tus_saturate_a_sixteen_iteration_loop() {
    // A loop with exactly 17 iterations and uniform bodies: 16 TUs can
    // overlap essentially all of it after detection.
    let trace = trace_of(|b| {
        b.define_func("k", |b| {
            b.counted_loop(17, |b, _| b.work(50));
        });
        for _ in 0..6 {
            b.call_func("k");
        }
    });
    let r = Engine::new(&trace, Policy::Str, 16).run();
    assert!(r.tpc() > 5.0, "tpc = {}", r.tpc());
}

#[test]
fn policies_report_their_names() {
    let trace = repeated_kernel(2, 5);
    assert_eq!(Engine::new(&trace, Policy::Idle, 2).run().policy, "IDLE");
    assert_eq!(Engine::new(&trace, Policy::Str, 2).run().policy, "STR");
    assert_eq!(
        Engine::new(&trace, Policy::StrNested(2), 2).run().policy,
        "STR(2)"
    );
}
