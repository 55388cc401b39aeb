//! Sharded replay: checkpoint → serialize → resume → merged report,
//! bit-identical to a single uninterrupted pass.
//!
//! ```text
//! cargo run --example sharded_replay
//! ```
//!
//! The session's state at any retired-instruction boundary — CPU
//! cursor, CLS detector (including its undelivered event chunk), and
//! every registered engine's annotation + decision-core state — fits in
//! a small snapshot with a deterministic byte form. This example runs
//! the `compress` workload three ways and shows all of them agree:
//!
//! 1. one uninterrupted streaming pass (the reference);
//! 2. a manual checkpoint/resume: run half, serialize the snapshot,
//!    restore it into *fresh* sinks (as another process would), finish;
//! 3. `ShardedRun`: the same trace as 4 checkpoint-linked shards, each
//!    handing serialized snapshot bytes to the next.

use loopspec::prelude::*;

fn engines() -> EngineGrid {
    let mut grid = EngineGrid::new();
    grid.push_idle(4);
    grid.push_str(4);
    grid.push_str_nested(3, 4);
    grid
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = workload_by_name("compress").expect("workload exists");
    let program = workload.build(Scale::Test)?;

    // 1. The reference: one uninterrupted pass.
    let mut reference = engines();
    let mut session = Session::new();
    session.observe_checkpointable(&mut reference);
    let single = session.run(&program, RunLimits::default())?;
    println!(
        "single pass      : {} instructions, TPC(STR@4) = {:.2}",
        single.instructions,
        reference.report(1).unwrap().tpc()
    );

    // 2. Manual checkpoint at the halfway boundary.
    let mut first_half = engines();
    let mut session = Session::new();
    session.observe_checkpointable(&mut first_half);
    session.advance(&program, RunLimits::with_fuel(single.instructions / 2))?;
    let bytes = session.checkpoint()?.to_bytes();
    drop(session);
    println!(
        "checkpoint       : {} bytes at instruction {}",
        bytes.len(),
        single.instructions / 2
    );

    // A fresh session with fresh sinks — nothing survives but the bytes
    // (exactly what crossing a process boundary looks like).
    let mut second_half = engines();
    let mut session = Session::new();
    session.observe_checkpointable(&mut second_half);
    session.resume(&Snapshot::from_bytes(&bytes)?)?;
    let resumed = session.advance(&program, RunLimits::default())?;
    assert!(resumed.halted());
    println!(
        "resume + finish  : {} instructions, TPC(STR@4) = {:.2}",
        resumed.instructions,
        second_half.report(1).unwrap().tpc()
    );

    // 3. The same run as 4 checkpoint-linked shards.
    let sharded =
        ShardedRun::new(4).run(&program, RunLimits::with_fuel(single.instructions), engines)?;
    println!(
        "4 shards         : {} instructions, {} handoff bytes across {} boundaries",
        sharded.summary.instructions,
        sharded.handoff_bytes,
        sharded.shards_run - 1
    );

    // All three agree, engine for engine, bit for bit.
    for i in 0..reference.len() {
        let expected = reference.report(i);
        assert_eq!(expected, second_half.report(i), "engine {i}: manual resume");
        assert_eq!(expected, sharded.sink.report(i), "engine {i}: sharded run");
    }
    println!(
        "all {} engine reports bit-identical across the three runs ✓",
        reference.len()
    );
    Ok(())
}
