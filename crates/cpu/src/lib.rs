//! # loopspec-cpu — functional SLA simulator with instrumentation hooks
//!
//! This crate is the execution substrate of the reproduction: a functional
//! (instruction-at-a-time) interpreter for [`loopspec_isa`] programs with
//! an *ATOM-style* instrumentation interface. In Tubella & González
//! (HPCA 1998) the SPEC95 binaries were instrumented with ATOM [Srivastava
//! & Eustace 1994], which invokes analysis callbacks on every executed
//! instruction; the [`Tracer`] trait is exactly that callback surface —
//! per retired instruction it reports the PC, the control-flow outcome
//! (kind, taken, target) and the architectural register/memory reads and
//! writes.
//!
//! Everything downstream (the loop detector in `loopspec-core`, the
//! multithreading engine in `loopspec-mt`, the data-speculation profiler
//! in `loopspec-dataspec`) consumes only [`InstrEvent`]s, never internal
//! CPU state.
//!
//! ## Example
//!
//! ```
//! use loopspec_asm::ProgramBuilder;
//! use loopspec_cpu::{Cpu, CountingTracer, RunLimits};
//!
//! let mut b = ProgramBuilder::new();
//! b.counted_loop(10, |b, _| b.work(4));
//! let program = b.finish()?;
//!
//! let mut tracer = CountingTracer::default();
//! let summary = Cpu::new().run(&program, &mut tracer, RunLimits::default())?;
//! assert!(summary.halted());
//! assert_eq!(summary.retired, tracer.retired);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod cpu;
mod decoded;
mod kernel;
mod mem;
mod telemetry;
mod tracer;

pub use cpu::{Completion, Cpu, CpuError, RunLimits, RunSummary};
pub use decoded::DecodedProgram;
pub use kernel::KernelMode;
pub use mem::Memory;
pub use telemetry::DecodedTelemetry;
pub use tracer::{
    ArchReg, ControlOutcome, CountingTracer, Demand, InstrEvent, MemAccess, NullTracer, RegRead,
    RegWrite, Tracer,
};
