//! # loopspec-pipeline — the single-pass streaming session
//!
//! The paper's mechanism is inherently streaming: the CLS watches the
//! committed instruction stream once, and the LET/LIT, the speculation
//! engine and the live-in profiler all hang off that single observation
//! point. This crate reproduces that shape in software. A [`Session`]
//! drives the [`Cpu`](loopspec_cpu::Cpu) instruction by instruction,
//! feeds every retired instruction through **one shared**
//! [`Cls`](loopspec_core::Cls), and fans the
//! resulting [`LoopEvent`](loopspec_core::LoopEvent)s out to any number
//! of registered [`LoopEventSink`]s — all in a single pass, with memory
//! bounded by the sinks themselves (the engine grid retains
//! O(live-loops + run-ahead window), not O(trace)).
//!
//! Compare the two shapes:
//!
//! ```text
//! legacy (three passes over the run):
//!   Cpu ──▶ EventCollector ──▶ Vec<LoopEvent> ──▶ AnnotatedTrace ──▶ Engine
//!
//! streaming (one pass, many consumers):
//!             ┌▶ EngineGrid ─┬ lane STR, 4 TUs  ─▶ EngineReport
//!             │              └ lane IDLE, 8 TUs ─▶ EngineReport
//!   Cpu ─▶ CLS┼▶ LoopStats / TableHitSim       ─▶ Table 1 / Figure 4
//!             └▶ LiveInProfiler                ─▶ Figure 8
//! ```
//!
//! The session's sink list is the only fan-out: each registered sink
//! receives every event chunk in registration order.
//!
//! ## Checkpoint, resume, shard
//!
//! Because the CLS and the engines are small fixed state machines, a
//! session is snapshotable at any retired-instruction boundary:
//!
//! * [`Session::advance`] runs fuel-bounded segments instead of the
//!   whole program;
//! * [`Session::checkpoint`] captures CPU cursor + detector + sink
//!   state as a [`Snapshot`] with a deterministic, checksummed byte
//!   form ([`Snapshot::to_bytes`]) that crosses process boundaries;
//! * [`Session::resume`] restores a snapshot into a fresh session;
//! * [`ShardedRun`] chains the two into K contiguous shards of one
//!   trace — each shard a fresh sink restored from the predecessor's
//!   snapshot bytes — with results **bit-identical** to a single pass
//!   (`examples/sharded_replay.rs` demonstrates; the
//!   `sharded_equivalence` suite proves it on all 18 workloads).
//!
//! ## Example
//!
//! ```
//! use loopspec_asm::ProgramBuilder;
//! use loopspec_core::LoopStats;
//! use loopspec_cpu::RunLimits;
//! use loopspec_mt::{EngineGrid, Policy};
//! use loopspec_pipeline::Session;
//!
//! let mut b = ProgramBuilder::new();
//! b.counted_loop(100, |b, _| b.work(20));
//! let program = b.finish()?;
//!
//! let mut stats = LoopStats::new();
//! let mut grid = EngineGrid::new();
//! let str4 = Policy::Str.add_to_grid(&mut grid, 4);
//!
//! let mut session = Session::new();
//! session.observe_loops(&mut stats).observe_loops(&mut grid);
//! let out = session.run(&program, RunLimits::default())?;
//!
//! assert!(out.halted());
//! let report = grid.report(str4).expect("stream ended");
//! assert_eq!(report.instructions, out.instructions);
//! assert!(report.tpc() > 2.0, "4 TUs should overlap iterations");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod session;
mod shard;
mod snapshot;

// Re-exported so downstream code can name the whole streaming surface
// through one crate.
pub use loopspec_core::{LoopEventSink, SnapshotState};

pub use session::{DualSink, Interp, Session, SessionSummary};
pub use shard::{run_shard, Plan, ShardStep, ShardedOutcome, ShardedRun};
pub use snapshot::{CheckpointSink, Snapshot, SnapshotError};

#[cfg(test)]
mod tests {
    use super::*;
    use loopspec_asm::ProgramBuilder;
    use loopspec_core::{Cls, CountingSink, EventCollector, LoopEvent, LoopStats};
    use loopspec_cpu::{CountingTracer, Cpu, InstrEvent, RunLimits, Tracer};
    use loopspec_dataspec::{DataSpecProfiler, LiveInProfiler};
    use loopspec_mt::{AnnotatedTrace, Engine, EngineGrid, Policy};

    /// A one-lane grid: STR at 4 TUs.
    fn str4() -> EngineGrid {
        let mut g = EngineGrid::new();
        Policy::Str.add_to_grid(&mut g, 4);
        g
    }

    fn program(build: impl FnOnce(&mut ProgramBuilder)) -> loopspec_asm::Program {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        b.finish().expect("assembles")
    }

    #[test]
    fn sessions_default_to_the_decoded_interpreter() {
        // The decoded front end is the production path; the legacy
        // loop is reached only by pinning it per session.
        assert_eq!(Session::new().interp(), Interp::Decoded);
        let mut session = Session::with_cls(Cls::new(1));
        assert_eq!(session.interp(), Interp::Decoded);
        assert_eq!(session.set_interp(Interp::Legacy).interp(), Interp::Legacy);
    }

    #[test]
    fn single_pass_matches_collect_then_replay() {
        let p = program(|b| {
            b.counted_loop(20, |b, _| {
                b.counted_loop(6, |b, _| b.work(5));
            });
        });

        // Legacy: dedicated collector run, then annotate + engine.
        let mut legacy = EventCollector::default();
        Cpu::new()
            .run(&p, &mut legacy, RunLimits::default())
            .unwrap();
        let (events, n) = legacy.into_parts();
        let batch = Engine::new(&AnnotatedTrace::build(&events, n), Policy::Str, 4).run();

        // Streaming: everything in one pass.
        let mut collected = EventCollector::default();
        let mut engine = str4();
        let mut session = Session::new();
        session
            .observe_loops(&mut collected)
            .observe_loops(&mut engine);
        let out = session.run(&p, RunLimits::default()).unwrap();

        assert!(out.halted());
        assert_eq!(out.instructions, n);
        assert_eq!(collected.events(), &events[..]);
        assert_eq!(collected.instructions(), n);
        assert_eq!(engine.report(0).unwrap(), &batch);
    }

    #[test]
    fn dual_sink_profiler_matches_bundled_profiler() {
        let p = program(|b| {
            let acc = b.alloc_reg();
            b.li(acc, 0);
            b.counted_loop(40, |b, i| {
                b.op(loopspec_isa::AluOp::Add, acc, acc, i);
                b.work(5);
            });
        });

        let mut bundled = DataSpecProfiler::new();
        Cpu::new()
            .run(&p, &mut bundled, RunLimits::default())
            .unwrap();

        let mut shared = LiveInProfiler::new();
        let mut session = Session::new();
        session.observe_both(&mut shared);
        session.run(&p, RunLimits::default()).unwrap();

        assert_eq!(shared.records(), bundled.records());
        assert_eq!(shared.report(), bundled.report());
    }

    #[test]
    fn instruction_tracers_see_every_retirement() {
        let p = program(|b| b.counted_loop(10, |b, _| b.work(3)));
        // An instruction-only observer is a dual sink whose loop side
        // ignores events.
        #[derive(Default)]
        struct Counter(CountingTracer);
        impl Tracer for Counter {
            fn on_retire(&mut self, ev: &InstrEvent) {
                self.0.on_retire(ev);
            }
        }
        impl LoopEventSink for Counter {
            fn on_loop_event(&mut self, _: &LoopEvent) {}
        }
        let mut counter = Counter::default();
        let mut counting = CountingSink::default();
        let mut session = Session::new();
        session
            .observe_both(&mut counter)
            .observe_loops(&mut counting);
        let out = session.run(&p, RunLimits::default()).unwrap();
        assert_eq!(counter.0.retired, out.instructions);
        assert!(counting.events > 0);
        assert_eq!(counting.instructions, out.instructions);
    }

    #[test]
    fn fuel_exhaustion_flushes_open_executions() {
        let p = program(|b| b.loop_forever(|b| b.work(5)));
        let mut stats = LoopStats::new();
        let mut counting = CountingSink::default();
        let mut session = Session::new();
        session
            .observe_loops(&mut stats)
            .observe_loops(&mut counting);
        let out = session.run(&p, RunLimits::with_fuel(1000)).unwrap();
        assert!(!out.halted());
        assert_eq!(out.instructions, 1000);
        assert_eq!(counting.instructions, 1000);
        // The infinite loop's execution was closed by the session flush.
        let report = stats.report(out.instructions);
        assert_eq!(report.executions, 1);
    }

    #[test]
    fn empty_session_is_fine() {
        let p = program(|b| b.work(10));
        let out = Session::new().run(&p, RunLimits::default()).unwrap();
        assert!(out.halted());
        assert_eq!(out.instructions, 13); // 2 startup + 10 work + halt
    }

    #[test]
    fn chunk_capacity_does_not_change_results() {
        // Any chunk size — including 1 (per-instruction delivery) and one
        // larger than the whole stream (a single flush straddling
        // on_stream_end) — must produce identical events and reports.
        let p = program(|b| {
            b.counted_loop(15, |b, _| {
                b.counted_loop(4, |b, _| b.work(3));
            });
        });

        let mut reference = EventCollector::default();
        let mut ref_engine = str4();
        let mut session = Session::new();
        session
            .observe_loops(&mut reference)
            .observe_loops(&mut ref_engine);
        session.run(&p, RunLimits::default()).unwrap();

        for cap in [1usize, 2, 3, 7, 1_000_000] {
            let mut collected = EventCollector::default();
            let mut engine = str4();
            let mut session = Session::with_cls(Cls::default().with_chunk_capacity(cap));
            session
                .observe_loops(&mut collected)
                .observe_loops(&mut engine);
            session.run(&p, RunLimits::default()).unwrap();
            assert_eq!(collected.events(), reference.events(), "chunk {cap}");
            assert_eq!(
                engine.reports().unwrap(),
                ref_engine.reports().unwrap(),
                "chunk {cap}"
            );
        }
    }

    #[test]
    fn custom_cls_capacity_is_respected() {
        // A 3-deep nest through a 1-entry CLS: evictions must occur.
        let p = program(|b| {
            b.counted_loop(4, |b, _| {
                b.counted_loop(4, |b, _| {
                    b.counted_loop(4, |b, _| b.work(2));
                });
            });
        });
        let mut v: Vec<loopspec_core::LoopEvent> = Vec::new();
        let mut session = Session::with_cls(Cls::new(1));
        session.observe_loops(&mut v);
        session.run(&p, RunLimits::default()).unwrap();
        assert!(v
            .iter()
            .any(|e| matches!(e, loopspec_core::LoopEvent::Evicted { .. })));
    }

    // ------------------------------------------------------------------
    // Segmented execution, checkpoints, sharding.

    #[test]
    fn advance_in_segments_matches_one_shot_run() {
        let p = program(|b| {
            b.counted_loop(30, |b, _| {
                b.counted_loop(7, |b, _| b.work(4));
            });
        });

        let mut reference = EventCollector::default();
        let mut session = Session::new();
        session.observe_loops(&mut reference);
        let single = session.run(&p, RunLimits::default()).unwrap();

        let mut collected = EventCollector::default();
        let mut session = Session::new();
        session.observe_loops(&mut collected);
        let last = loop {
            let s = session.advance(&p, RunLimits::with_fuel(500)).unwrap();
            assert_eq!(s.instructions, session.position());
            if s.halted() {
                break s;
            }
        };
        assert!(session.is_ended());
        assert_eq!(last.instructions, single.instructions);
        assert_eq!(collected.events(), reference.events());
        assert_eq!(collected.instructions(), reference.instructions());
    }

    #[test]
    fn checkpoint_resume_round_trip_is_exact() {
        let p = program(|b| {
            b.counted_loop(25, |b, _| {
                b.counted_loop(9, |b, _| b.work(6));
            });
        });

        let mut reference = str4();
        let mut ref_events = EventCollector::default();
        let mut session = Session::new();
        session
            .observe_checkpointable(&mut reference)
            .observe_checkpointable(&mut ref_events);
        let single = session.run(&p, RunLimits::default()).unwrap();

        // Segment 1 in "process A".
        let mut engine_a = str4();
        let mut events_a = EventCollector::default();
        let mut session_a = Session::new();
        session_a
            .observe_checkpointable(&mut engine_a)
            .observe_checkpointable(&mut events_a);
        let s = session_a.advance(&p, RunLimits::with_fuel(777)).unwrap();
        assert!(!s.halted());
        let snap = session_a.checkpoint().unwrap();
        assert_eq!(snap.instructions(), 777);
        assert_eq!(snap.sink_sections(), 2);
        let bytes = snap.to_bytes();
        // Determinism: checkpointing the same state twice → same bytes.
        assert_eq!(bytes, session_a.checkpoint().unwrap().to_bytes());

        // Segment 2 in "process B": fresh sinks, state from bytes only.
        let mut engine_b = str4();
        let mut events_b = EventCollector::default();
        let mut session_b = Session::new();
        session_b
            .observe_checkpointable(&mut engine_b)
            .observe_checkpointable(&mut events_b);
        session_b
            .resume(&Snapshot::from_bytes(&bytes).unwrap())
            .unwrap();
        assert_eq!(session_b.position(), 777);
        let out = session_b.advance(&p, RunLimits::default()).unwrap();
        assert!(out.halted());
        assert_eq!(out.instructions, single.instructions);

        assert_eq!(engine_b.reports(), reference.reports());
        assert_eq!(events_b.events(), ref_events.events());
    }

    #[test]
    fn checkpoint_requires_checkpointable_sinks() {
        let p = program(|b| b.counted_loop(10, |b, _| b.work(3)));
        let mut counting = CountingSink::default();
        let mut session = Session::new();
        session.observe_loops(&mut counting);
        session.advance(&p, RunLimits::with_fuel(10)).unwrap();
        assert_eq!(
            session.checkpoint().unwrap_err(),
            SnapshotError::NotCheckpointable
        );
    }

    #[test]
    fn checkpoint_after_stream_end_is_rejected() {
        let p = program(|b| b.work(5));
        let mut events = EventCollector::default();
        let mut session = Session::new();
        session.observe_checkpointable(&mut events);
        session.advance(&p, RunLimits::default()).unwrap();
        assert!(session.is_ended());
        assert_eq!(
            session.checkpoint().unwrap_err(),
            SnapshotError::StreamEnded
        );
    }

    #[test]
    fn resume_validates_session_state_and_sink_count() {
        let p = program(|b| b.counted_loop(20, |b, _| b.work(5)));
        let mut events = EventCollector::default();
        let mut session = Session::new();
        session.observe_checkpointable(&mut events);
        session.advance(&p, RunLimits::with_fuel(30)).unwrap();
        let snap = session.checkpoint().unwrap();

        // Started sessions refuse to resume.
        assert_eq!(
            session.resume(&snap).unwrap_err(),
            SnapshotError::AlreadyStarted
        );

        // Wrong sink count.
        let mut a = EventCollector::default();
        let mut b2 = EventCollector::default();
        let mut fresh = Session::new();
        fresh
            .observe_checkpointable(&mut a)
            .observe_checkpointable(&mut b2);
        assert_eq!(
            fresh.resume(&snap).unwrap_err(),
            SnapshotError::SinkCountMismatch {
                snapshot: 1,
                session: 2
            }
        );

        // Differently configured sink: a grid where a collector was.
        let mut grid = EngineGrid::new();
        Policy::Str.add_to_grid(&mut grid, 4);
        let mut fresh = Session::new();
        fresh.observe_checkpointable(&mut grid);
        assert!(matches!(
            fresh.resume(&snap).unwrap_err(),
            SnapshotError::Codec(_)
        ));
    }

    #[test]
    fn finish_ends_a_paused_stream_like_a_truncated_run() {
        let p = program(|b| b.loop_forever(|b| b.work(4)));

        let mut reference = LoopStats::new();
        let mut session = Session::new();
        session.observe_loops(&mut reference);
        let single = session.run(&p, RunLimits::with_fuel(900)).unwrap();

        let mut stats = LoopStats::new();
        let mut session = Session::new();
        session.observe_checkpointable(&mut stats);
        for _ in 0..3 {
            session.advance(&p, RunLimits::with_fuel(300)).unwrap();
        }
        assert!(!session.is_ended());
        assert_eq!(session.finish(), 900);
        assert!(session.is_ended());
        assert_eq!(session.finish(), 900, "finish is idempotent");
        assert_eq!(
            stats.report(900),
            reference.report(single.instructions),
            "explicit finish == fuel-truncated run"
        );
    }

    #[test]
    fn sharded_run_matches_single_pass_grid() {
        let p = program(|b| {
            b.counted_loop(40, |b, _| {
                b.counted_loop(8, |b, _| b.work(5));
            });
        });
        let make_grid = || {
            let mut g = EngineGrid::new();
            Policy::Idle.add_to_grid(&mut g, 4);
            Policy::Str.add_to_grid(&mut g, 4);
            Policy::StrNested(2).add_to_grid(&mut g, 4);
            g
        };

        let mut reference = make_grid();
        let mut session = Session::new();
        session.observe_checkpointable(&mut reference);
        let single = session.run(&p, RunLimits::default()).unwrap();

        for shards in [1usize, 2, 3, 8] {
            let out = ShardedRun::new(shards)
                .run(&p, RunLimits::with_fuel(single.instructions), make_grid)
                .unwrap();
            assert_eq!(out.summary.instructions, single.instructions);
            assert_eq!(out.sink.reports(), reference.reports(), "K={shards}");
            if shards > 1 {
                assert_eq!(out.shards_run, shards);
                assert!(out.handoff_bytes > 0);
            }
        }
    }

    #[test]
    fn sharded_run_handles_early_halt_and_tiny_budgets() {
        let p = program(|b| b.work(20)); // halts after 23 instructions
        let out = ShardedRun::new(8)
            .run(&p, RunLimits::default(), EventCollector::default)
            .unwrap();
        assert_eq!(out.shards_run, 1, "halt in shard 0 short-circuits");
        assert!(out.summary.halted());

        // A budget smaller than the shard count still terminates.
        let p = program(|b| b.loop_forever(|b| b.work(2)));
        let out = ShardedRun::new(8)
            .run(&p, RunLimits::with_fuel(3), EventCollector::default)
            .unwrap();
        assert_eq!(out.summary.instructions, 3);
        assert_eq!(out.sink.instructions(), 3);
    }
}
