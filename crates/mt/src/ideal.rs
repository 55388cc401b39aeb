//! The infinite-TU potential study (paper Figure 5).
//!
//! The production entry point is the **two-phase streaming** pair
//! [`ideal_tpc_streaming`] / [`ideal_tpc_with_feed`]: a forward pass
//! records per-execution iteration counts
//! ([`IterationCountLog`](crate::IterationCountLog)), and a second
//! streaming pass consumes them through a one-lane
//! [`EngineGrid`](crate::EngineGrid) holding an unbounded-TU oracle
//! lane. The materialized
//! [`ideal_tpc`] remains as the legacy reference the equivalence tests
//! cross-check against.

use loopspec_core::{LoopEvent, LoopEventSink, DEFAULT_EVENT_CHUNK};

use crate::annotate::AnnotatedTrace;
use crate::engine::Engine;
use crate::grid::EngineGrid;
use crate::oracle::{IterationCountLog, OracleFeed};

/// Result of the ideal-machine experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdealReport {
    /// Committed instructions.
    pub instructions: u64,
    /// Critical-path cycles with every future iteration speculated at
    /// loop-detection time.
    pub cycles: u64,
    /// Threads per cycle.
    pub tpc: f64,
}

impl From<crate::engine::EngineReport> for IdealReport {
    fn from(report: crate::engine::EngineReport) -> Self {
        IdealReport {
            instructions: report.instructions,
            cycles: report.cycles,
            tpc: report.tpc(),
        }
    }
}

/// Computes the TPC an ideal machine with infinite thread units achieves
/// when every detected loop execution speculates all of its remaining
/// iterations (paper Figure 5) — **legacy materialized path**: replays a
/// prebuilt [`AnnotatedTrace`] through the batch engine. Kept as the
/// cross-check reference for the streaming pair below (the
/// `oracle_equivalence` suite proves them bit-identical); production
/// flows use [`ideal_tpc_streaming`].
///
/// ```
/// use loopspec_asm::ProgramBuilder;
/// use loopspec_cpu::{Cpu, RunLimits};
/// use loopspec_core::EventCollector;
/// use loopspec_mt::{ideal_tpc, AnnotatedTrace};
///
/// let mut b = ProgramBuilder::new();
/// b.counted_loop(100, |b, _| b.work(20));
/// let program = b.finish()?;
/// let mut c = EventCollector::default();
/// Cpu::new().run(&program, &mut c, RunLimits::default())?;
/// let (events, n) = c.into_parts();
/// let trace = AnnotatedTrace::build(&events, n);
///
/// let ideal = ideal_tpc(&trace);
/// assert!(ideal.tpc > 10.0, "a 100-iteration loop has huge potential TLP");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn ideal_tpc(trace: &AnnotatedTrace) -> IdealReport {
    Engine::oracle_unbounded(trace).run().into()
}

/// The two-phase streaming Figure 5: phase 1 streams `events` through an
/// [`IterationCountLog`](crate::IterationCountLog) (O(executions)
/// state), phase 2 streams them again through an unbounded-TU oracle
/// lane of an [`EngineGrid`](crate::EngineGrid) fed the recorded
/// counts. No
/// [`AnnotatedTrace`] is ever materialized; the result is bit-identical
/// to [`ideal_tpc`].
///
/// ```
/// use loopspec_asm::ProgramBuilder;
/// use loopspec_cpu::{Cpu, RunLimits};
/// use loopspec_core::EventCollector;
/// use loopspec_mt::ideal_tpc_streaming;
///
/// let mut b = ProgramBuilder::new();
/// b.counted_loop(100, |b, _| b.work(20));
/// let program = b.finish()?;
/// let mut c = EventCollector::default();
/// Cpu::new().run(&program, &mut c, RunLimits::default())?;
/// let (events, n) = c.into_parts();
///
/// let ideal = ideal_tpc_streaming(&events, n);
/// assert!(ideal.tpc > 10.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn ideal_tpc_streaming(events: &[LoopEvent], instructions: u64) -> IdealReport {
    let mut log = IterationCountLog::new();
    log.on_loop_events(events);
    log.on_stream_end(instructions);
    ideal_tpc_with_feed(events, instructions, &log.into_feed())
}

/// The event-stream split a fractional cut of a run studies (the
/// paper's Figure 5 "reduced part"): returns the index of the first
/// event past the cut and the cut itself in committed instructions,
/// so `&events[..split]` with `cut` instructions is the prefix run.
/// Events are emitted by a single forward pass, so positions are
/// non-decreasing and the split is a binary search. Every consumer of
/// the prefix study (the figure harness, the oracle benches, the
/// equivalence suite) must cut through this one function so the rule
/// cannot silently diverge between them.
///
/// # Panics
///
/// Panics unless `0.0 < fraction <= 1.0` — a typo'd fraction must not
/// produce a plausible-looking but wrong "reduced part".
pub fn prefix_split(events: &[LoopEvent], instructions: u64, fraction: f64) -> (usize, u64) {
    assert!(
        fraction > 0.0 && fraction <= 1.0,
        "bad prefix fraction {fraction}"
    );
    let cut = (instructions as f64 * fraction) as u64;
    (events.partition_point(|e| e.pos() <= cut), cut)
}

/// Phase 2 of [`ideal_tpc_streaming`] alone, for callers that already
/// hold a phase-1 [`OracleFeed`] of the same stream (e.g. a count log
/// that rode the main session's fan-out).
pub fn ideal_tpc_with_feed(
    events: &[LoopEvent],
    instructions: u64,
    feed: &OracleFeed,
) -> IdealReport {
    let mut grid = EngineGrid::new();
    let lane = grid.push_oracle_unbounded(feed.clone());
    // Session-sized chunks keep the grid's buffering at one chunk plus
    // the run-ahead window instead of the whole retained stream.
    for chunk in events.chunks(DEFAULT_EVENT_CHUNK) {
        grid.on_loop_events(chunk);
    }
    grid.on_stream_end(instructions);
    grid.report(lane).expect("the stream ended").clone().into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopspec_asm::ProgramBuilder;
    use loopspec_core::EventCollector;
    use loopspec_cpu::{Cpu, RunLimits};

    fn events_of(build: impl FnOnce(&mut ProgramBuilder)) -> (Vec<LoopEvent>, u64) {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        let p = b.finish().unwrap();
        let mut c = EventCollector::default();
        Cpu::new().run(&p, &mut c, RunLimits::default()).unwrap();
        c.into_parts()
    }

    fn trace_of(build: impl FnOnce(&mut ProgramBuilder)) -> AnnotatedTrace {
        let (events, n) = events_of(build);
        AnnotatedTrace::build(&events, n)
    }

    #[test]
    fn ideal_tpc_scales_with_iteration_count() {
        let small = ideal_tpc(&trace_of(|b| b.counted_loop(10, |b, _| b.work(20))));
        let large = ideal_tpc(&trace_of(|b| b.counted_loop(1000, |b, _| b.work(20))));
        assert!(large.tpc > small.tpc * 10.0);
    }

    #[test]
    fn nested_loops_multiply_potential() {
        let flat = ideal_tpc(&trace_of(|b| b.counted_loop(30, |b, _| b.work(20))));
        let nested = ideal_tpc(&trace_of(|b| {
            b.counted_loop(30, |b, _| {
                b.counted_loop(30, |b, _| b.work(20));
            })
        }));
        assert!(nested.tpc > flat.tpc, "outer iterations also overlap");
    }

    #[test]
    fn no_loops_means_no_potential() {
        let r = ideal_tpc(&trace_of(|b| b.work(100)));
        assert!((r.tpc - 1.0).abs() < 1e-12);
    }

    #[test]
    fn streaming_pair_matches_the_materialized_reference() {
        let (events, n) = events_of(|b| {
            b.counted_loop(12, |b, _| {
                b.counted_loop(25, |b, _| b.work(9));
            })
        });
        let legacy = ideal_tpc(&AnnotatedTrace::build(&events, n));
        let streaming = ideal_tpc_streaming(&events, n);
        assert_eq!(streaming, legacy);

        // The phase-2-only entry point agrees when handed the phase-1
        // feed explicitly.
        let mut log = IterationCountLog::new();
        log.on_loop_events(&events);
        log.on_stream_end(n);
        assert_eq!(ideal_tpc_with_feed(&events, n, &log.into_feed()), legacy);
    }
}
