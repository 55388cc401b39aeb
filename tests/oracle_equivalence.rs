//! The two-phase streaming oracle acceptance criterion: Figure 5 rows
//! and oracle lane reports must be **bit-identical** between the legacy
//! materialized path (`AnnotatedTrace` + batch `Engine`) and the
//! two-phase streaming path (phase 1: `IterationCountLog` in the normal
//! fan-out; phase 2: oracle lanes fed the recorded counts) — on all 18
//! workloads, through checkpoints cutting mid-chunk through an oracle
//! lane, and across a sharded (K=4) replay.

use loopspec::prelude::*;
use loopspec_testutil::Rng;

/// Figure 5's "reduced part" fraction (mirrors
/// `loopspec_bench::experiments::FIG5_PREFIX_FRACTION`; the bench crate
/// is not a dependency of the root tests).
const FIG5_PREFIX_FRACTION: f64 = 0.25;

/// One CPU pass over `name`: the event stream, the instruction count,
/// and the phase-1 count-log feed recorded live in the session fan-out.
fn run_phase1(name: &str) -> (Program, Vec<LoopEvent>, u64, OracleFeed) {
    let w = workload_by_name(name).expect("workload exists");
    let program = w.build(Scale::Test).expect("assembles");
    let mut collector = EventCollector::default();
    let mut log = IterationCountLog::new();
    let mut session = Session::new();
    session
        .observe_loops(&mut collector)
        .observe_loops(&mut log);
    let out = session
        .run(&program, RunLimits::default())
        .expect("workload runs");
    assert!(out.halted(), "{name} must halt");
    let (events, n) = collector.into_parts();
    (program, events, n, log.into_feed())
}

/// The event prefix the Figure 5 "reduced part" studies, plus its cut
/// — through the same [`prefix_split`] the figure harness uses, so the
/// cut rule cannot diverge between them.
fn fig5_prefix(events: &[LoopEvent], instructions: u64) -> (usize, u64) {
    prefix_split(events, instructions, FIG5_PREFIX_FRACTION)
}

#[test]
fn fig5_rows_bit_identical_on_all_18_workloads() {
    for w in all_workloads() {
        let (_, events, n, feed) = run_phase1(w.name);

        // Legacy: materialize the trace, replay the batch oracle.
        let trace = AnnotatedTrace::build(&events, n);
        let legacy_all = ideal_tpc(&trace);
        let (split, cut) = fig5_prefix(&events, n);
        let legacy_prefix = ideal_tpc(&AnnotatedTrace::build(&events[..split], cut));

        // Two-phase: the session-recorded feed drives the full run; the
        // prefix is its own two-phase run over the event prefix.
        let streaming_all = ideal_tpc_with_feed(&events, n, &feed);
        let streaming_prefix = ideal_tpc_streaming(&events[..split], cut);

        assert_eq!(streaming_all, legacy_all, "{}: full-run row", w.name);
        assert_eq!(streaming_prefix, legacy_prefix, "{}: prefix row", w.name);
    }
}

#[test]
fn oracle_lane_reports_bit_identical_on_all_18_workloads() {
    for w in all_workloads() {
        let (_, events, n, feed) = run_phase1(w.name);
        let trace = AnnotatedTrace::build(&events, n);

        // Bounded and unbounded oracle lanes in an EngineGrid, beside a
        // history lane, all over one phase-2 pass.
        let mut grid = EngineGrid::new();
        let o4 = grid.push_oracle(4, feed.clone());
        let ideal = grid.push_oracle_unbounded(feed.clone());
        let str4 = grid.push_str(4);
        grid.on_loop_events(&events);
        grid.on_stream_end(n);
        assert_eq!(
            grid.report(o4).unwrap(),
            &Engine::new(&trace, OraclePolicy::new(), 4).run(),
            "{}: grid ORACLE@4",
            w.name
        );
        assert_eq!(
            grid.report(ideal).unwrap(),
            &Engine::unbounded(&trace, OraclePolicy::new()).run(),
            "{}: grid unbounded oracle",
            w.name
        );
        assert_eq!(
            grid.report(str4).unwrap(),
            &Engine::new(&trace, StrPolicy::new(), 4).run(),
            "{}: STR lane beside oracle lanes",
            w.name
        );

        // A standalone one-lane oracle grid agrees too.
        let mut single = EngineGrid::new();
        let o8 = single.push_oracle(8, feed);
        single.on_loop_events(&events);
        single.on_stream_end(n);
        assert_eq!(
            single.report(o8).unwrap(),
            &Engine::new(&trace, OraclePolicy::new(), 8).run(),
            "{}: one-lane ORACLE@8",
            w.name
        );
    }
}

/// Phase 2 as a *session* over the program: checkpoint at an arbitrary
/// (often mid-chunk) boundary, serialize, resume into a fresh oracle
/// lane built with the same feed, finish — the report must equal an
/// uninterrupted phase 2.
#[test]
fn checkpoint_resume_cuts_mid_chunk_through_an_oracle_lane() {
    let mut rng = Rng::new(0x0_0ac1e ^ 0xD15C0);
    for name in ["compress", "li", "swim"] {
        let (program, _, n, feed) = run_phase1(name);
        let oracle4 = || {
            let mut grid = EngineGrid::new();
            grid.push_oracle(4, feed.clone());
            grid
        };

        // Uninterrupted phase 2 over a re-execution of the program.
        let mut reference = oracle4();
        let mut session = Session::new();
        session.observe_checkpointable(&mut reference);
        let single = session
            .run(&program, RunLimits::default())
            .expect("phase 2 runs");
        assert_eq!(single.instructions, n);

        for _ in 0..4 {
            // Odd cuts land inside the detector's 256-event chunk with
            // high probability; the buffered events travel with the
            // snapshot.
            let cut = rng.range(1, n.max(2));
            let mut first = oracle4();
            let mut session_a = Session::new();
            session_a.observe_checkpointable(&mut first);
            let s = session_a
                .advance(&program, RunLimits::with_fuel(cut))
                .expect("first segment");
            if s.halted() {
                continue; // cut landed at the very end; nothing to resume
            }
            let bytes = session_a.checkpoint().expect("checkpointable").to_bytes();

            let mut second = oracle4();
            let mut session_b = Session::new();
            session_b.observe_checkpointable(&mut second);
            session_b
                .resume(&Snapshot::from_bytes(&bytes).expect("container decodes"))
                .expect("resumes");
            let out = session_b
                .advance(&program, RunLimits::default())
                .expect("second segment");
            assert!(out.halted(), "{name}: resumed run must finish");
            assert_eq!(
                second.reports(),
                reference.reports(),
                "{name}: oracle lane resumed at {cut} diverged"
            );
        }
    }
}

/// Phase 2 split into K=4 snapshot-linked shards must merge to the same
/// oracle report as one uninterrupted pass; phase 1 itself (the count
/// log) shards the same way.
#[test]
fn sharded_oracle_run_matches_single_pass() {
    for name in ["compress", "go"] {
        let (program, _, n, feed) = run_phase1(name);

        // Reference phase 2: one pass, one oracle grid.
        let make_grid = {
            let feed = feed.clone();
            move || {
                let mut g = EngineGrid::new();
                g.push_oracle(4, feed.clone());
                g.push_oracle_unbounded(feed.clone());
                g.push_str(4);
                g
            }
        };
        let mut reference = make_grid();
        let mut session = Session::new();
        session.observe_checkpointable(&mut reference);
        let single = session
            .run(&program, RunLimits::default())
            .expect("phase 2 runs");
        assert_eq!(single.instructions, n);

        let out = ShardedRun::new(4)
            .run(&program, RunLimits::with_fuel(n), make_grid)
            .expect("sharded phase 2 runs");
        assert_eq!(out.shards_run, 4, "{name}: all shards executed");
        assert_eq!(
            out.sink.reports(),
            reference.reports(),
            "{name}: sharded oracle grid diverged"
        );

        // Phase 1 shards too: a sharded count log records the same
        // future as the single-pass one.
        let sharded_log = ShardedRun::new(4)
            .run(&program, RunLimits::with_fuel(n), IterationCountLog::new)
            .expect("sharded phase 1 runs");
        assert_eq!(
            sharded_log.sink.into_feed().fingerprint(),
            feed.fingerprint(),
            "{name}: sharded count log diverged"
        );
    }
}
