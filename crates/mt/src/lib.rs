//! # loopspec-mt — thread-level control speculation (paper §3)
//!
//! This crate implements the multithreaded-processor side of Tubella &
//! González (HPCA 1998): a machine with several **thread units (TUs)** —
//! one non-speculative, the rest idle or speculative — where, every time a
//! loop iteration starts in the non-speculative thread, idle TUs are
//! assigned to *future iterations of the same loop*. Verification happens
//! when the non-speculative thread reaches the next iteration start
//! (handoff) and squash happens when the loop execution ends (further
//! iterations never existed).
//!
//! The model is trace-driven and event-driven:
//!
//! * [`AnnotatedTrace`] — turns the loop-event stream of `loopspec-core`
//!   into per-execution iteration-start positions plus a commit-ordered
//!   event list;
//! * [`IterPredictor`] — the LET-backed iteration-count stride predictor
//!   with a two-bit confidence counter (the paper's STR machinery). Its
//!   [`predict`](IterPredictor::predict) is the total an execution is
//!   believed to run, or `None` before the loop's first closed
//!   execution;
//! * [`Policy`] — IDLE, STR and STR(i) from §3.1.2, the one policy
//!   type from the engine to the wire. Every policy and the oracle size
//!   a burst with one rule, min(idle TUs, iterations believed to remain
//!   that are not yet speculated); they differ only in the belief (IDLE:
//!   unbounded, STR and STR(i): the predictor, the oracle: the actual
//!   count). The oracle of the infinite-TU
//!   potential study (Figure 5) is not a `Policy`: it is built only by
//!   constructors that supply its future knowledge
//!   ([`Engine::oracle`], [`EngineGrid::push_oracle`]), and it runs
//!   streaming through the **two-phase oracle** ([`IterationCountLog`]
//!   records per-execution iteration counts in a forward pass, an
//!   [`OracleFeed`] replays them into oracle lanes in a second
//!   streaming pass);
//! * [`Engine`] — computes **TPC** (average number of active and
//!   correctly-speculated threads per cycle) under the timing model
//!   described in `DESIGN.md`: every TU retires one instruction per
//!   cycle, so TPC equals committed instructions divided by total cycles,
//!   and a purely sequential run has TPC exactly 1.
//!
//! The decision core runs behind two drivers: the batch [`Engine`]
//! replays a materialized [`AnnotatedTrace`] (the reference oracle), and
//! the streaming [`EngineGrid`] consumes raw loop events for any number
//! of (policy × TU-count) lanes in one pass. The grid is
//! **checkpointable**: it implements
//! [`SnapshotState`](loopspec_core::SnapshotState), serializing its full
//! mid-stream state (annotation windows, per-lane decision cores,
//! predictor history) so a `loopspec_pipeline::Session` can capture a
//! run at any retired-instruction boundary and resume it elsewhere
//! bit-identically.
//!
//! ## Example
//!
//! ```
//! use loopspec_asm::ProgramBuilder;
//! use loopspec_cpu::{Cpu, RunLimits};
//! use loopspec_core::EventCollector;
//! use loopspec_mt::{AnnotatedTrace, Engine, Policy};
//!
//! let mut b = ProgramBuilder::new();
//! b.counted_loop(50, |b, _| b.work(20));
//! let program = b.finish()?;
//!
//! let mut c = EventCollector::default();
//! Cpu::new().run(&program, &mut c, RunLimits::default())?;
//! let (events, n) = c.into_parts();
//! let trace = AnnotatedTrace::build(&events, n);
//!
//! let report = Engine::new(&trace, Policy::Str, 4).run();
//! assert!(report.tpc() > 1.5, "4 TUs should overlap iterations");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod annotate;
mod engine;
mod grid;
mod ideal;
mod oracle;
mod policy;
mod predictor;
mod stats;

pub use annotate::{AnnotatedTrace, ExecId, ExecInfo, TraceEvent, TraceEventKind};
pub use engine::{Engine, EngineReport};
pub use grid::{validate_tus, EngineGrid, StreamError};
pub use ideal::{ideal_tpc, ideal_tpc_streaming, ideal_tpc_with_feed, prefix_split, IdealReport};
pub use oracle::{IterationCountLog, OracleFeed};
pub use policy::{Policy, StrPolicy};
pub use predictor::IterPredictor;
pub use stats::SpecStats;
