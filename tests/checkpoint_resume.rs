//! Snapshot round-trip property: checkpointing a session at an
//! *arbitrary* retired-instruction boundary, serializing the snapshot to
//! bytes, and resuming it into fresh sinks must be indistinguishable
//! from never having stopped — same event stream, same engine reports,
//! bit for bit.
//!
//! Cut positions are chosen by the seeded testutil RNG (the offline
//! substitute for `proptest`), so checkpoints land everywhere the
//! mechanism has interesting state: mid-chunk (events buffered in the
//! detector but not yet delivered to loop sinks), inside open —
//! still-undetected-end — loop executions, between executions of the
//! same static loop (predictor history live), and immediately before
//! the halt.

use loopspec::prelude::*;
use loopspec_testutil::Rng;

/// A compact random structured program: nested counted loops (some with
/// RNG trip counts), straight-line work, early breaks.
fn random_program(r: &mut Rng) -> Program {
    fn body(b: &mut ProgramBuilder, r: &mut Rng, depth: u32) {
        let stmts = r.range(1, 4);
        for _ in 0..stmts {
            if depth >= 3 || r.below(2) == 0 {
                b.work(r.range(1, 12) as u32);
            } else if r.below(4) == 0 {
                let n = r.range(1, 6) as i32;
                let reg = b.alloc_reg();
                b.rng_below(reg, n);
                b.addi(reg, reg, 1);
                b.counted_loop(reg, |b, _| body(b, r, depth + 1));
                b.free_reg(reg);
            } else {
                let trips = r.range(1, 9) as i64;
                let brk = r.below(3) == 0;
                b.counted_loop(trips, |b, i| {
                    body(b, r, depth + 1);
                    if brk {
                        b.with_reg(|b, lim| {
                            b.li(lim, 5);
                            b.break_if(Cond::GeS, i, lim);
                        });
                    }
                });
            }
        }
    }
    let mut b = ProgramBuilder::with_seed(r.next() as i64);
    body(&mut b, r, 0);
    b.finish().expect("random program assembles")
}

fn make_grid() -> EngineGrid {
    let mut g = EngineGrid::new();
    Policy::Idle.add_to_grid(&mut g, 4);
    Policy::Str.add_to_grid(&mut g, 4);
    Policy::StrNested(1).add_to_grid(&mut g, 2);
    g
}

struct Sinks {
    events: EventCollector,
    engine: EngineGrid,
    grid: EngineGrid,
}

impl Sinks {
    fn new() -> Self {
        let mut engine = EngineGrid::new();
        Policy::Str.add_to_grid(&mut engine, 4);
        Sinks {
            events: EventCollector::default(),
            engine,
            grid: make_grid(),
        }
    }
}

/// Runs `program` uninterrupted; returns the sinks and instruction count.
fn uninterrupted(program: &Program) -> (Sinks, u64) {
    let mut s = Sinks::new();
    let mut session = Session::new();
    session
        .observe_checkpointable(&mut s.events)
        .observe_checkpointable(&mut s.engine)
        .observe_checkpointable(&mut s.grid);
    let out = session.run(program, RunLimits::default()).expect("runs");
    assert!(out.halted(), "random programs must halt");
    (s, out.instructions)
}

/// Runs `program` in segments cut at the (sorted, strictly increasing)
/// positions in `cuts`, crossing a serialized snapshot and fresh sinks
/// at every cut.
fn segmented(program: &Program, cuts: &[u64]) -> Sinks {
    let mut handoff: Option<Vec<u8>> = None;
    let mut executed = 0u64;
    for &cut in cuts {
        assert!(cut > executed);
        let mut s = Sinks::new();
        let mut session = Session::new();
        session
            .observe_checkpointable(&mut s.events)
            .observe_checkpointable(&mut s.engine)
            .observe_checkpointable(&mut s.grid);
        if let Some(bytes) = handoff.take() {
            let snap = Snapshot::from_bytes(&bytes).expect("container decodes");
            session.resume(&snap).expect("resumes");
        }
        let out = session
            .advance(program, RunLimits::with_fuel(cut - executed))
            .expect("advances");
        assert!(!out.halted(), "cuts are strictly before the halt");
        executed = out.instructions;
        assert_eq!(executed, cut);
        let snap = session.checkpoint().expect("checkpointable");
        assert_eq!(snap.instructions(), cut);
        let bytes = snap.to_bytes();
        assert_eq!(
            bytes,
            session.checkpoint().unwrap().to_bytes(),
            "snapshot bytes are deterministic"
        );
        handoff = Some(bytes);
    }
    // Final segment to completion.
    let mut s = Sinks::new();
    let mut session = Session::new();
    session
        .observe_checkpointable(&mut s.events)
        .observe_checkpointable(&mut s.engine)
        .observe_checkpointable(&mut s.grid);
    if let Some(bytes) = handoff {
        let snap = Snapshot::from_bytes(&bytes).expect("container decodes");
        session.resume(&snap).expect("resumes");
    }
    let out = session
        .advance(program, RunLimits::default())
        .expect("advances");
    assert!(out.halted());
    s
}

fn assert_identical(split: &Sinks, reference: &Sinks, ctx: &str) {
    assert_eq!(split.events.events(), reference.events.events(), "{ctx}");
    assert_eq!(
        split.events.instructions(),
        reference.events.instructions(),
        "{ctx}"
    );
    assert_eq!(split.engine.reports(), reference.engine.reports(), "{ctx}");
    assert_eq!(split.grid.reports(), reference.grid.reports(), "{ctx}");
}

#[test]
fn random_programs_checkpoint_anywhere() {
    let mut rng = Rng::new(0x10_05_ec);
    for case in 0..16 {
        let program = random_program(&mut rng);
        let (reference, n) = uninterrupted(&program);
        if n < 4 {
            continue;
        }
        // 1 to 3 random cuts, strictly increasing, strictly inside the
        // run — landing mid-chunk and inside open loops by construction
        // (events only flush at chunk boundaries and the halt).
        let mut cuts: Vec<u64> = (0..rng.range(1, 4)).map(|_| rng.range(1, n)).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let split = segmented(&program, &cuts);
        assert_identical(&split, &reference, &format!("case {case}, cuts {cuts:?}"));
    }
}

#[test]
fn exhaustive_cut_sweep_on_a_nested_loop() {
    // Every single retirement boundary of a doubly nested program with a
    // trailing second execution (live predictor history): the checkpoint
    // must be exact no matter where it lands — mid-chunk, inside the
    // inner loop, between the two executions of the kernel.
    let mut b = ProgramBuilder::new();
    b.define_func("kernel", |b| {
        b.counted_loop(6, |b, _| {
            b.counted_loop(4, |b, _| b.work(2));
        });
    });
    b.call_func("kernel");
    b.call_func("kernel");
    let program = b.finish().unwrap();

    let (reference, n) = uninterrupted(&program);
    for cut in 1..n {
        let split = segmented(&program, &[cut]);
        assert_identical(&split, &reference, &format!("cut {cut}"));
    }
}

#[test]
fn checkpoint_mid_chunk_carries_undelivered_events() {
    // With the default 256-event chunk, a cut after a few iterations is
    // guaranteed to land mid-chunk: the detector has emitted events that
    // no loop sink has seen yet. The snapshot must carry them.
    let mut b = ProgramBuilder::new();
    b.counted_loop(100, |b, _| b.work(3));
    let program = b.finish().unwrap();

    let mut probe = EventCollector::default();
    let mut session = Session::new();
    session.observe_checkpointable(&mut probe);
    session.advance(&program, RunLimits::with_fuel(40)).unwrap();
    // A handful of iterations have retired...
    let snap = session.checkpoint().unwrap();
    drop(session);
    // ...but none of their events were delivered (chunk not full).
    assert!(probe.events().is_empty(), "cut landed mid-chunk");
    assert!(
        !snap.to_bytes().is_empty() && snap.instructions() == 40,
        "snapshot captured the boundary"
    );

    let (reference, _) = uninterrupted(&program);
    let split = segmented(&program, &[40]);
    assert_identical(&split, &reference, "mid-chunk cut");
}
