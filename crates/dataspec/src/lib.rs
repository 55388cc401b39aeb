//! # loopspec-dataspec — data-speculation predictability (paper §4)
//!
//! The paper's §4 measures how *predictable* the data flowing into
//! speculative loop-iteration threads is — if live-in values can be
//! stride-predicted, dependent iterations can run in parallel without
//! synchronisation. This crate reproduces those statistics (Figure 8):
//!
//! * **paths** — each iteration's control flow is summarised as a hash of
//!   its conditional-branch outcomes; the *most frequent path* of each
//!   loop covers ~85 % of SPEC95 iterations in the paper;
//! * **live-ins** — a register read before it is written inside an
//!   iteration, or a memory word loaded before it is stored, is live-in
//!   to that iteration;
//! * **stride prediction** — per (loop, register) the value at the start
//!   of the last iteration plus the last stride; per (loop, load slot)
//!   the last effective address and value with their strides (the paper
//!   stores exactly these fields in the LIT).
//!
//! The profiler is an ATOM-style [`Tracer`](loopspec_cpu::Tracer) with
//! its own CLS: run it over a program once and ask for the
//! [`DataSpecReport`]. It reads every retired instruction's register and
//! memory operands, so it is a CPU pass of its own, not a loop-event
//! sink of the shared `loopspec_pipeline::Session` (which carries only
//! the control-speculation analyses and never assembles those operands).
//! A loop's most frequent path breaks count ties on the lowest path
//! hash, so the report is deterministic.
//!
//! ## Example
//!
//! ```
//! use loopspec_asm::ProgramBuilder;
//! use loopspec_cpu::{Cpu, RunLimits};
//! use loopspec_dataspec::DataSpecProfiler;
//!
//! let mut b = ProgramBuilder::new();
//! let acc = b.alloc_reg();
//! b.li(acc, 0);
//! b.counted_loop(100, |b, i| {
//!     b.op(loopspec_isa::AluOp::Add, acc, acc, i);
//!     b.work(5);
//! });
//! let program = b.finish()?;
//!
//! let mut prof = DataSpecProfiler::default();
//! Cpu::new().run(&program, &mut prof, RunLimits::default())?;
//! let report = prof.report();
//! assert!(report.same_path_percent > 95.0, "single-path loop");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod frame;
mod profile;
mod value_pred;

pub use profile::{DataSpecProfiler, DataSpecReport, IterRecord};
pub use value_pred::{PredOutcome, StridePredictor};

/// Maximum live-in memory slots tracked per iteration; iterations with
/// more live-in loads have the excess ignored (counted in
/// [`DataSpecReport::mem_slot_overflow`]).
pub const MAX_MEM_SLOTS: usize = 64;
