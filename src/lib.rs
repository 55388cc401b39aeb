//! # loopspec — dynamic loop detection and thread-level control speculation
//!
//! A from-scratch Rust reproduction of **Tubella & González, "Control
//! Speculation in Multithreaded Processors through Dynamic Loop
//! Detection" (HPCA 1998)**: a hardware mechanism that discovers loops in
//! the committed instruction stream (no compiler/ISA support), gathers
//! per-loop history in small associative tables, and uses it to run
//! *future loop iterations* speculatively on idle thread units.
//!
//! This facade re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`isa`] | `loopspec-isa` | The SLA RISC instruction set |
//! | [`asm`] | `loopspec-asm` | Assembler + structured program builder |
//! | [`cpu`] | `loopspec-cpu` | Functional simulator with ATOM-style tracing |
//! | [`core`] | `loopspec-core` | CLS loop detector, LET/LIT tables, statistics |
//! | [`mt`] | `loopspec-mt` | Thread-speculation engine (TPC, IDLE/STR/STR(i)) |
//! | [`dataspec`] | `loopspec-dataspec` | Live-in value predictability (paper §4) |
//! | [`obs`] | `loopspec-obs` | Out-of-band telemetry: metric registry, spans, event journal |
//! | [`pipeline`] | `loopspec-pipeline` | Single-pass streaming `Session` |
//! | [`dist`] | `loopspec-dist` | Multi-process distributed replay (coordinator/workers) |
//! | [`svc`] | `loopspec-svc` | Persistent replay service with a content-addressed report cache |
//! | [`gen`] | `loopspec-gen` | Structured-program compiler, seeded scenario families, differential harness |
//! | [`workloads`] | `loopspec-workloads` | 18 SPEC95-shaped synthetic programs + `gen:` scenario names |
//!
//! Failures from any layer unify into [`enum@Error`], so application
//! code can `?` across assembler, CPU, session, wire, distributed and
//! service calls with one error type.
//!
//! ## Quickstart
//!
//! One pass over the program drives detection, statistics and the
//! speculation engine simultaneously — the streaming pipeline mirrors
//! the paper's hardware, where everything watches the commit stream
//! live:
//!
//! ```
//! use loopspec::prelude::*;
//!
//! // 1. Write a program (or pick a workload from `loopspec::workloads`).
//! let mut b = ProgramBuilder::new();
//! b.counted_loop(100, |b, _i| b.work(20));
//! let program = b.finish()?;
//!
//! // 2. Run it once; every analysis taps the same committed stream.
//! let mut grid = EngineGrid::new();
//! let str4 = Policy::Str.add_to_grid(&mut grid, 4);
//! let mut stats = LoopStats::new();
//! let mut session = Session::new();
//! session.observe_loops(&mut grid).observe_loops(&mut stats);
//! let out = session.run(&program, RunLimits::default())?;
//!
//! // 3. What does a 4-context machine get?
//! let report = grid.report(str4).expect("stream ended");
//! assert_eq!(report.instructions, out.instructions);
//! assert!(report.tpc() > 2.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The legacy two-pass shape (collect a `Vec<LoopEvent>`, then replay it
//! through [`mt::AnnotatedTrace`] and [`mt::Engine`]) remains available
//! and produces identical reports — it is the cross-check reference the
//! equivalence suites compare against. Oracle studies stream too: a
//! phase-1 [`mt::IterationCountLog`] records per-execution iteration
//! counts, and a second streaming pass replays them into oracle lanes
//! through an [`mt::OracleFeed`] ([`mt::ideal_tpc_streaming`] packages
//! the pair for Figure 5).
//!
//! See `DESIGN.md` at the repository root for the architecture and
//! `cargo run --release -p loopspec-bench --bin repro -- all` to
//! regenerate every table and figure of the paper.

#![deny(missing_docs)]

mod error;

pub use error::Error;

pub use loopspec_asm as asm;
pub use loopspec_core as core;
pub use loopspec_cpu as cpu;
pub use loopspec_dataspec as dataspec;
pub use loopspec_dist as dist;
pub use loopspec_gen as gen;
pub use loopspec_isa as isa;
pub use loopspec_mt as mt;
pub use loopspec_obs as obs;
pub use loopspec_pipeline as pipeline;
pub use loopspec_svc as svc;
pub use loopspec_workloads as workloads;

/// The most common types, importable in one line.
pub mod prelude {
    pub use loopspec_asm::{Operand, Program, ProgramBuilder};
    pub use loopspec_core::{
        Cls, CountingSink, EventCollector, LoopEvent, LoopEventSink, LoopId, LoopStats,
        TableHitSim, TableKind,
    };
    pub use loopspec_cpu::{Cpu, DecodedProgram, Demand, InstrEvent, RunLimits, Tracer};
    pub use loopspec_dataspec::DataSpecProfiler;
    pub use loopspec_dist::{
        Coordinator, DistError, DistOutcome, JobSpec, LaneReport, LaneSpec, SuiteSpec, SvcStats,
        WorkerLink,
    };
    pub use loopspec_gen::{
        arb_program, compile as compile_ast, families, family_by_name, ArbConfig, AstProgram,
        Family, ReplayToken,
    };
    pub use loopspec_isa::{Addr, AluOp, Cond, Instruction, Reg};
    pub use loopspec_mt::{
        ideal_tpc, ideal_tpc_streaming, ideal_tpc_with_feed, prefix_split, AnnotatedTrace, Engine,
        EngineGrid, EngineReport, IterationCountLog, OracleFeed, Policy, StreamError,
    };
    pub use loopspec_pipeline::{
        CheckpointSink, Interp, Plan, Session, SessionSummary, ShardedRun, Snapshot, SnapshotState,
    };
    pub use loopspec_svc::{Client, Completion, Service, SvcConfig, SvcError};
    pub use loopspec_workloads::{
        all as all_workloads, build_named, by_name as workload_by_name, known_name, Scale,
    };

    pub use crate::Error;
}
