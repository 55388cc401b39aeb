//! Quickstart: detect the loops of a small program and measure the
//! thread-level parallelism a 4-context machine would extract from it.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use loopspec::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A miniature "image filter": 40 rows x 60 columns with a small
    // per-pixel kernel, followed by a histogram pass.
    let mut b = ProgramBuilder::new();
    let image = b.alloc_static(40 * 60);
    let hist = b.alloc_static(16);
    b.counted_loop(40, |b, row| {
        b.counted_loop(60, |b, col| {
            b.with_reg(|b, off| {
                b.op_imm(AluOp::Mul, off, row, 60);
                b.op(AluOp::Add, off, off, col);
                b.with_reg(|b, px| {
                    b.load_idx(px, image, off);
                    b.addi(px, px, 1);
                    b.store_idx(px, image, off);
                });
            });
            b.work(6);
        });
    });
    b.counted_loop(16, |b, bin| {
        b.with_reg(|b, v| {
            b.load_idx(v, hist, bin);
            b.addi(v, v, 1);
            b.store_idx(v, hist, bin);
        });
    });
    let program = b.finish()?;
    println!("program: {} static instructions", program.len());

    // Execute once; the detector watches every retired instruction.
    let mut collector = EventCollector::default();
    let summary = Cpu::new().run(&program, &mut collector, RunLimits::default())?;
    println!("executed: {} instructions", summary.retired);

    // Loop statistics (the paper's Table 1 for this program).
    let (events, instructions) = collector.into_parts();
    let mut stats = LoopStats::new();
    stats.observe_all(&events);
    let report = stats.report(instructions);
    println!(
        "loops: {} static, {} executions, {:.1} iterations/execution, max nesting {}",
        report.static_loops, report.executions, report.iter_per_exec, report.max_nesting
    );

    // Thread-level parallelism under the paper's STR policy.
    let trace = AnnotatedTrace::build(&events, instructions);
    for tus in [2, 4, 8] {
        let engine = Engine::new(&trace, Policy::Str, tus).run();
        println!(
            "{tus} thread units: TPC = {:.2} ({} threads verified, {} squashed)",
            engine.tpc(),
            engine.spec.verified,
            engine.spec.squashed_misspec
        );
    }
    // The ideal machine streams too: a forward pass records iteration
    // counts, a second streaming pass replays them into the oracle.
    let ideal = ideal_tpc_streaming(&events, instructions);
    println!("infinite thread units (oracle): TPC = {:.1}", ideal.tpc);
    Ok(())
}
