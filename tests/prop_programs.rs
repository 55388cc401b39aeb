//! Property-style tests over *randomly generated structured programs*:
//! for any terminating program the generator can express, the detector
//! must emit a well-formed event stream, detection must be
//! deterministic, and the speculation engine must obey its conservation
//! laws.
//!
//! The statement tree, generator and lowering live in `loopspec-gen`
//! (`arb_program` + `compile`); this suite drives them off a
//! deterministic xorshift RNG — the original used `proptest`, but the
//! build environment is offline. With [`ArbConfig::default`] the
//! generator mixes calls, dispatch tables and memory traffic into the
//! historical loop/branch shape distribution, so these laws now cover
//! every AST node the compiler can emit.

use loopspec::gen::{check_events, Rng};
use loopspec::prelude::*;

fn build_and_run(ast: &AstProgram) -> (Vec<LoopEvent>, u64) {
    let program = compile_ast(ast).expect("generated program compiles");
    let mut c = EventCollector::default();
    let summary = Cpu::new()
        .run(&program, &mut c, RunLimits::with_fuel(2_000_000))
        .expect("generated program executes");
    assert!(
        summary.halted(),
        "generated programs must terminate (ran {} instrs)",
        summary.retired
    );
    c.into_parts()
}

const CASES: u64 = 48;

fn case(seed: u64) -> AstProgram {
    let mut r = Rng::new(seed);
    arb_program(&mut r, ArbConfig::default())
}

#[test]
fn random_programs_produce_well_formed_events() {
    for seed in 0..CASES {
        let ast = case(seed);
        let (events, _) = build_and_run(&ast);
        check_events(&events).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn generation_and_detection_are_deterministic() {
    for seed in 0..CASES {
        let x = case(seed);
        let y = case(seed);
        assert_eq!(
            x.stmt_count(),
            y.stmt_count(),
            "seed {seed}: generator not deterministic"
        );
        let (a, na) = build_and_run(&x);
        let (b, nb) = build_and_run(&y);
        assert_eq!(na, nb, "seed {seed}");
        assert_eq!(a, b, "seed {seed}");
    }
}

#[test]
fn engine_laws_hold_on_random_programs() {
    for seed in 0..CASES {
        let ast = case(seed);
        let (events, n) = build_and_run(&ast);
        let trace = AnnotatedTrace::build(&events, n);
        let ideal = ideal_tpc(&trace);
        assert!(ideal.tpc >= 1.0 - 1e-9);
        for tus in [2usize, 4] {
            let r = Engine::new(&trace, Policy::Str, tus).run();
            assert_eq!(r.spec.threads_spawned, r.spec.resolved());
            assert!(r.cycles <= n);
            assert!(r.tpc() >= 1.0 - 1e-9);
            assert!(
                r.tpc() <= ideal.tpc + 1e-9,
                "seed {seed}: STR@{tus} tpc {} beats oracle {}",
                r.tpc(),
                ideal.tpc
            );
        }
    }
}

#[test]
fn streaming_engine_matches_batch_on_random_programs() {
    for seed in 0..CASES {
        let ast = case(seed);
        let (events, n) = build_and_run(&ast);
        let trace = AnnotatedTrace::build(&events, n);
        for tus in [2usize, 4] {
            let mut streaming = EngineGrid::new();
            let lane = Policy::StrNested(2).add_to_grid(&mut streaming, tus);
            for e in &events {
                streaming.on_loop_event(e);
            }
            streaming.on_stream_end(n);
            let batch = Engine::new(&trace, Policy::StrNested(2), tus).run();
            assert_eq!(
                streaming.report(lane),
                Some(&batch),
                "seed {seed}: streaming vs batch diverged at {tus} TUs"
            );
        }
    }
}

#[test]
fn loop_stats_are_internally_consistent() {
    for seed in 0..CASES {
        let ast = case(seed);
        let (events, n) = build_and_run(&ast);
        let mut stats = LoopStats::new();
        stats.observe_all(&events);
        let r = stats.report(n);
        assert!(r.iterations >= r.executions, "seed {seed}");
        assert!(r.max_nesting as f64 >= r.avg_nesting, "seed {seed}");
        assert!(r.static_loops as u64 <= r.executions, "seed {seed}");
        if r.executions > 0 {
            assert!(r.iter_per_exec >= 1.0, "seed {seed}");
        }
    }
}

#[test]
fn hit_ratio_monotone_in_table_size() {
    for seed in 0..CASES {
        let ast = case(seed);
        let (events, _) = build_and_run(&ast);
        for kind in [TableKind::Let, TableKind::Lit] {
            let mut prev = -1.0f64;
            for entries in [2usize, 4, 8, 16] {
                let mut sim = TableHitSim::new(kind, entries);
                sim.observe_all(&events);
                let pct = sim.ratio().percent();
                assert!(
                    pct >= prev - 1e-9,
                    "seed {seed}: {kind:?} hit ratio fell from {prev} to {pct} at {entries} entries"
                );
                prev = pct;
            }
        }
    }
}
