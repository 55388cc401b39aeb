//! Bounded-memory regression: a scaled-up workload through the pure
//! streaming path must retain O(CLS-depth + run-ahead window) events, not
//! O(instructions). This is the property that lets the pipeline process
//! arbitrarily long runs — the ROADMAP's "as fast and as big as the
//! hardware allows" — without the three full-trace materializations the
//! legacy path performs.

use loopspec::prelude::*;

#[test]
fn streaming_engine_buffering_is_bounded_on_a_large_run() {
    // `compress` at Full scale: millions of instructions, hundreds of
    // thousands of loop events.
    let w = workload_by_name("compress").expect("workload exists");
    let program = w.build(Scale::Full).expect("assembles");

    let mut engine = EngineGrid::new();
    let str4 = engine.push_str(4);
    let mut counter = CountingSink::default();
    let mut session = Session::new();
    session
        .observe_loops(&mut engine)
        .observe_loops(&mut counter);
    let out = session
        .run(&program, RunLimits::default())
        .expect("workload runs");
    assert!(out.halted());

    assert!(
        out.instructions > 1_000_000,
        "scaled run too small to be meaningful: {} instructions",
        out.instructions
    );
    assert!(
        counter.events > 50_000,
        "event stream too small to be meaningful: {} events",
        counter.events
    );

    let peak = engine.peak_buffered();
    // The CLS holds at most 16 live loops; the run-ahead window adds the
    // events of roughly one iteration body; chunked fan-out adds at most
    // one undrained chunk (DEFAULT_EVENT_CHUNK = 256 events, counted
    // once in the shared queue and once in the retained iteration
    // starts).
    // 1024 bounds all three while staying two orders of magnitude below
    // the stream — O(instructions) retention would blow through it
    // immediately.
    assert!(
        peak <= 1024,
        "peak buffered events {peak} is not O(CLS depth + chunk); {} events total",
        counter.events
    );
    assert!(
        (peak as u64) < counter.events / 100,
        "peak buffered events {peak} scales with the stream ({} events)",
        counter.events
    );

    // And the report is still exactly right: cross-check against a
    // second, materialized run.
    let mut collector = EventCollector::default();
    Cpu::new()
        .run(&program, &mut collector, RunLimits::default())
        .expect("runs");
    let (events, n) = collector.into_parts();
    assert_eq!(n, out.instructions);
    assert_eq!(events.len() as u64, counter.events);
    let batch = Engine::new(&AnnotatedTrace::build(&events, n), StrPolicy::new(), 4).run();
    assert_eq!(engine.report(str4).unwrap(), &batch);
}

#[test]
fn deep_nesting_bounds_track_cls_depth() {
    // A 5-deep nest (the builder's register pool caps structured
    // nesting): live annotation state tracks the nesting depth, pending
    // never grows with total iteration count.
    let mut b = ProgramBuilder::new();
    fn nest(b: &mut ProgramBuilder, depth: u32) {
        if depth == 0 {
            b.work(2);
        } else {
            b.counted_loop(6, |b, _| nest(b, depth - 1));
        }
    }
    nest(&mut b, 5);
    let program = b.finish().expect("assembles");

    let mut engine = EngineGrid::new();
    engine.push_str_nested(2, 8);
    let mut counter = CountingSink::default();
    let mut session = Session::new();
    session
        .observe_loops(&mut engine)
        .observe_loops(&mut counter);
    session.run(&program, RunLimits::default()).expect("runs");

    assert!(counter.events > 5_000, "events: {}", counter.events);
    // Live annotation state tracks the nesting depth; the shared queue
    // adds at most one event chunk (256) before the per-chunk drain.
    assert!(
        engine.peak_buffered() <= 640,
        "peak {} for a 5-deep nest",
        engine.peak_buffered()
    );
}
