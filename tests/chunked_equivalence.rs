//! Property test for the batching contract (`core::sink`): **chunked
//! delivery is bit-identical to per-event delivery** — for arbitrary
//! chunk sizes, on arbitrary structured programs, including final
//! partial chunks that straddle `on_stream_end` (both from a clean halt
//! and from fuel exhaustion, where the trailing CLS flush lands in the
//! last chunk).
//!
//! The generators run off the shared seeded xorshift RNG
//! (`loopspec-testutil`), as the build environment has no `proptest`.

use loopspec::mt::EngineGrid;
use loopspec::prelude::*;
use loopspec_testutil::Rng;

/// A random structured program: nested counted loops with filler work.
/// Loop bounds include 1 (one-shot events) and the builder seed varies
/// the RNG-driven instruction mix.
fn random_program(r: &mut Rng) -> Program {
    fn block(b: &mut ProgramBuilder, r: &mut Rng, depth: u32) {
        for _ in 0..r.range(1, 4) {
            if depth < 3 && r.below(2) == 0 {
                let n = r.range(1, 9) as i64;
                b.counted_loop(n, |b, _| block(b, r, depth + 1));
            } else {
                b.work(r.range(1, 10) as u32);
            }
        }
    }
    let mut b = ProgramBuilder::with_seed(r.below(1_000_000) as i64);
    block(&mut b, r, 0);
    // Guarantee at least one loop so every case exercises the detector.
    let n = r.range(2, 7) as i64;
    b.counted_loop(n, |b, _| b.work(2));
    b.finish().expect("generated program assembles")
}

/// Everything a session run produces that equivalence must preserve.
#[derive(Debug, PartialEq)]
struct Outcome {
    events: Vec<LoopEvent>,
    instructions: u64,
    str4: EngineReport,
    idle2: EngineReport,
    grid: Vec<EngineReport>,
}

/// A grid holding the single lane `push` adds.
fn one_lane(push: impl FnOnce(&mut EngineGrid) -> usize) -> EngineGrid {
    let mut grid = EngineGrid::new();
    push(&mut grid);
    grid
}

/// Runs one session with the given CLS chunk capacity: an event
/// collector, two single-lane grids and a two-lane grid all observe the
/// same pass.
fn run_with_chunk(program: &Program, chunk: usize, limits: RunLimits) -> Outcome {
    let mut collected = EventCollector::default();
    let mut str4 = one_lane(|g| g.push_str(4));
    let mut idle2 = one_lane(|g| g.push_idle(2));
    let mut grid = EngineGrid::new();
    grid.push_str(8);
    grid.push_str_nested(2, 4);

    let mut session = Session::with_cls(Cls::default().with_chunk_capacity(chunk));
    session
        .observe_loops(&mut collected)
        .observe_loops(&mut str4)
        .observe_loops(&mut idle2)
        .observe_loops(&mut grid);
    let out = session.run(program, limits).expect("program runs");

    let (events, instructions) = collected.into_parts();
    assert_eq!(instructions, out.instructions);
    Outcome {
        events,
        instructions,
        str4: str4.report(0).expect("finished").clone(),
        idle2: idle2.report(0).expect("finished").clone(),
        grid: grid.reports().expect("grid finished").to_vec(),
    }
}

/// The per-event reference: feed the recorded stream one event at a
/// time (chunk size 1 *at the sink boundary*, not just in the session)
/// and close it, then compare against a batch replay too.
fn check_against_reference(o: &Outcome, seed: u64) {
    let mut str4 = one_lane(|g| g.push_str(4));
    for ev in &o.events {
        str4.on_loop_event(ev);
    }
    str4.on_stream_end(o.instructions);
    assert_eq!(
        str4.report(0),
        Some(&o.str4),
        "seed {seed}: per-event STR@4"
    );

    let trace = AnnotatedTrace::build(&o.events, o.instructions);
    assert_eq!(
        Engine::new(&trace, StrPolicy::new(), 4).run(),
        o.str4,
        "seed {seed}: batch STR@4"
    );
    assert_eq!(
        Engine::new(&trace, IdlePolicy::new(), 2).run(),
        o.idle2,
        "seed {seed}: batch IDLE@2"
    );
    assert_eq!(
        Engine::new(&trace, StrPolicy::new(), 8).run(),
        o.grid[0],
        "seed {seed}: batch STR@8 (grid lane 0)"
    );
    assert_eq!(
        Engine::new(&trace, StrNestedPolicy::new(2), 4).run(),
        o.grid[1],
        "seed {seed}: batch STR(2)@4 (grid lane 1)"
    );
}

const CASES: u64 = 24;

#[test]
fn chunked_sessions_match_per_event_delivery() {
    for seed in 0..CASES {
        let mut r = Rng::new(seed);
        let program = random_program(&mut r);

        // Chunk capacity 1 degenerates to per-instruction delivery: the
        // reference outcome.
        let reference = run_with_chunk(&program, 1, RunLimits::default());
        assert!(
            !reference.events.is_empty(),
            "seed {seed}: generator produced no loops"
        );
        check_against_reference(&reference, seed);

        // Arbitrary chunk sizes, including one drawn from the RNG and
        // one larger than any stream (the whole run becomes a single
        // partial chunk flushed at on_stream_end).
        let drawn = r.range(2, 512) as usize;
        for chunk in [2usize, 3, 7, 64, 256, drawn, 1 << 20] {
            let outcome = run_with_chunk(&program, chunk, RunLimits::default());
            assert_eq!(outcome, reference, "seed {seed}: chunk {chunk}");
        }
    }
}

#[test]
fn chunks_straddling_stream_end_match_on_truncated_runs() {
    // Fuel exhaustion cuts the stream mid-loop: the detector flush at
    // the cut appends trailing ExecutionEnd events *after* the last
    // instruction, so the final chunk straddles on_stream_end. Every
    // chunk size must agree on those trailing events and on the
    // engines' truncated-stream closes.
    for seed in 0..CASES {
        let mut r = Rng::new(0x5eed ^ seed);
        let program = random_program(&mut r);
        let fuel = r.range(150, 2500);
        let limits = RunLimits::with_fuel(fuel);

        let reference = run_with_chunk(&program, 1, limits);
        check_against_reference(&reference, seed);
        for chunk in [2usize, 5, 37, 256, 1 << 20] {
            let outcome = run_with_chunk(&program, chunk, limits);
            assert_eq!(outcome, reference, "seed {seed}: fuel {fuel} chunk {chunk}");
        }
    }
}

#[test]
fn raw_sink_chunking_matches_for_any_split() {
    // Below the session: slicing one recorded stream into arbitrary
    // chunk runs and feeding them straight to the sinks must also be
    // invariant (this is the contract every `on_loop_events` override
    // promises).
    for seed in 0..CASES {
        let mut r = Rng::new(0xc4a1 ^ seed);
        let program = random_program(&mut r);
        let mut c = EventCollector::default();
        Cpu::new()
            .run(&program, &mut c, RunLimits::default())
            .expect("runs");
        let (events, n) = c.into_parts();

        let str1 = || one_lane(|g| g.push_str_nested(1, 4));
        let reference = {
            let mut e = str1();
            for ev in &events {
                e.on_loop_event(ev);
            }
            e.on_stream_end(n);
            e.report(0).expect("finished").clone()
        };

        // Random split points, fresh per attempt.
        for attempt in 0..3 {
            let mut engine = str1();
            let mut collected: Vec<LoopEvent> = Vec::new();
            let mut counter = CountingSink::default();
            let mut rest = &events[..];
            while !rest.is_empty() {
                let take = (r.range(1, 40) as usize).min(rest.len());
                let (chunk, tail) = rest.split_at(take);
                engine.on_loop_events(chunk);
                collected.on_loop_events(chunk);
                counter.on_loop_events(chunk);
                rest = tail;
            }
            engine.on_stream_end(n);
            collected.on_stream_end(n);
            counter.on_stream_end(n);
            assert_eq!(collected, events, "seed {seed} attempt {attempt}");
            assert_eq!(counter.events, events.len() as u64);
            assert_eq!(counter.instructions, n);
            assert_eq!(
                engine.report(0),
                Some(&reference),
                "seed {seed} attempt {attempt}"
            );
        }
    }
}
