//! # loopspec-dist — multi-process distributed replay
//!
//! The checkpoint subsystem made a [`Session`](loopspec_pipeline::Session)
//! portable: everything a run needs lives in a deterministic byte
//! [`Snapshot`](loopspec_pipeline::Snapshot), and
//! [`ShardedRun`](loopspec_pipeline::ShardedRun) proved that a trace
//! split into snapshot-linked shards replays **bit-identically** to a
//! single pass. This crate puts a process boundary (and, by extension,
//! a machine boundary) under that proof — the software analogue of
//! Prophet-style CMP speculation, where loop-level work units ship to
//! independent execution contexts with only small state handoffs:
//!
//! * [`wire`] — a std-only, length-prefixed, FNV-checksummed frame
//!   protocol (`Hello`/`Job`/`Snapshot`/`Report`/`Error`, with a
//!   protocol-version echo) over any byte stream: the stdio pipes of a
//!   spawned worker, or a Unix socket.
//! * [`worker`] — the serve loop: receive a workload + lane
//!   configuration + fuel budget + optional predecessor snapshot,
//!   resume a fresh `Session`, run one shard through the shared
//!   [`run_shard`](loopspec_pipeline::run_shard) scheduling core, and
//!   answer with the next checkpoint or the final per-lane reports.
//! * [`pool`] — worker links and the one spawn path ([`Workers`]):
//!   re-invoke the current binary with `--worker`, or use per-worker
//!   commands, or wrap already-connected links.
//! * [`scheduler`] — the one shard scheduler: a job queue of
//!   snapshot-linked chains over the pool, requeue from the last good
//!   snapshot when a worker dies, respawn, the poison-shard rule, and
//!   typed per-chain and per-worker [`Outcome`]s. Both front ends
//!   drive it.
//! * [`coordinator`] — the one-suite front end: submit every workload
//!   as a chain, drain the outcomes, fail the run on the first
//!   failure, and merge reports with a bit-identical check against the
//!   single-pass result. The persistent replay service
//!   (`loopspec-svc`) is the other front end.
//!
//! ```no_run
//! use loopspec_dist::{Coordinator, SuiteSpec};
//! use loopspec_workloads::Scale;
//!
//! // In main(), before anything else — the spawned workers re-enter
//! // this same binary with `--worker`:
//! loopspec_dist::worker::maybe_serve_stdio();
//!
//! let spec = SuiteSpec::full_grid(Scale::Test, 25_000);
//! let outcome = Coordinator::spawn(4)?.run_suite(&spec)?;
//! outcome.verify_single_pass(&spec)?; // byte-identical, or an error
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The `distributed_equivalence` suite at the repo root holds this to
//! the same standard as every other driver: all 18 workloads, N ∈
//! {2, 4} worker processes, byte-identical lane reports *and* final
//! sink state — including after an injected worker crash.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod coordinator;
pub mod job;
pub mod pool;
pub mod scheduler;
pub mod wire;
pub mod worker;

pub use coordinator::{
    default_lanes, single_pass_outcome, Coordinator, DistError, DistOutcome, SuiteSpec, WorkerLink,
    WorkloadOutcome,
};
pub use job::{JobError, JobSpec};
pub use loopspec_mt::Policy;
pub use pool::{PoolEvent, Workers};
pub use scheduler::{ChainSpec, Failure, Outcome, Scheduler, SchedulerStats};
pub use wire::{
    Frame, Job, LaneReport, LaneSpec, Report, SvcStats, WireError, MAX_FRAME, PROTOCOL,
};
pub use worker::Worker;
