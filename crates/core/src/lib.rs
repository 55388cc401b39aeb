//! # loopspec-core — dynamic loop detection (Tubella & González, HPCA 1998)
//!
//! This crate implements the paper's primary hardware mechanism:
//!
//! * the **Current Loop Stack** ([`Cls`]) — detects loop *executions* and
//!   loop *iterations* in the committed instruction stream with no
//!   compiler or ISA support (paper §2.2);
//! * the **loop-information tables** ([`LoopTable`], with the LET/LIT
//!   hit-ratio experiment in [`TableHitSim`]) — associative LRU tables
//!   gathering per-execution and per-iteration history (paper §2.3);
//! * the **loop statistics collector** ([`LoopStats`]) — reproduces the
//!   Table 1 characterisation (#loops, iterations/execution,
//!   instructions/iteration, nesting levels).
//!
//! A loop is identified by its target address `T` (the [`LoopId`]); its
//! body is the static range `[T, B]` where `B` is the highest address of a
//! backward transfer to `T` observed so far. The CLS tracks all loops
//! currently executing, innermost on top, and emits a stream of
//! [`LoopEvent`]s consumed by everything downstream (thread speculation in
//! `loopspec-mt`, value profiling in `loopspec-dataspec`).
//!
//! ## Example
//!
//! ```
//! use loopspec_asm::ProgramBuilder;
//! use loopspec_cpu::{Cpu, RunLimits};
//! use loopspec_core::{EventCollector, LoopEvent};
//!
//! let mut b = ProgramBuilder::new();
//! b.counted_loop(10, |b, _| b.work(4));
//! let program = b.finish()?;
//!
//! let mut collector = EventCollector::default();
//! Cpu::new().run(&program, &mut collector, RunLimits::default())?;
//! let events = collector.into_events();
//!
//! // One execution of one loop, detected from its second iteration on.
//! assert!(matches!(events.first(), Some(LoopEvent::ExecutionStart { .. })));
//! assert!(matches!(
//!     events.last(),
//!     Some(LoopEvent::ExecutionEnd { iterations: 10, .. })
//! ));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod cls;
mod detector;
mod event;
mod hitratio;
pub mod sink;
pub mod snap;
mod stats;
mod tables;

pub use cls::Cls;
pub use detector::EventCollector;
pub use event::{LoopEvent, LoopId};
pub use hitratio::{HitRatio, Replacement, TableHitSim, TableKind};
pub use sink::{CountingSink, LoopEventSink};
pub use snap::SnapshotState;
pub use stats::{LoopStats, LoopStatsReport};
pub use tables::LoopTable;

/// Default Current Loop Stack capacity used throughout the experiments.
///
/// The paper uses 16 entries, "enough to store the maximum number of
/// current loops" given that the maximum observed nesting level in SPEC95
/// is 11 (Table 1).
pub const DEFAULT_CLS_CAPACITY: usize = 16;

/// Default number of events per [`Cls`] event chunk (see
/// [`Cls::buffered`] and the [`sink`] batching contract).
///
/// Large enough to amortize one virtual dispatch per sink over many
/// events, small enough that a chunk stays cache-resident (256 events ×
/// 24 bytes ≈ 6 KiB) and that the streaming engine's bounded lookahead
/// buffer stays O(chunk + run-ahead window).
pub const DEFAULT_EVENT_CHUNK: usize = 256;
