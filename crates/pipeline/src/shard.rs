//! Sharded replay: one workload trace split into contiguous,
//! checkpoint-linked shards.
//!
//! This is the distribution story the checkpoint subsystem exists for
//! (and the shape of Prophet-style CMP execution: one speculative
//! instruction stream split across cores with small per-core state
//! handoffs). The module has two layers:
//!
//! * [`Plan`] — the **driver-agnostic scheduling core**: how a run's
//!   instruction budget is cut into shard fuel slices ([`Plan::split`]
//!   into K equal slices, or [`Plan::sliced`] fixed-fuel slices until
//!   the program halts), and [`Plan::step`] — execute exactly one shard
//!   inside a [`Session`]: restore the predecessor's snapshot *from
//!   bytes* (so nothing survives a shard except the serialized handoff
//!   — exactly what crossing a process boundary requires), advance one
//!   slice, and either hand a new snapshot to the successor or end the
//!   stream. Both shard drivers in the workspace — [`ShardedRun::run`]
//!   in-thread and the multi-process `loopspec-dist` coordinator/worker
//!   pair — run shards through this one implementation.
//! * [`ShardedRun`] — the packaged single-machine driver over a `Plan`.
//!
//! The merged result is **bit-identical** to a single-pass
//! [`Session::run`] — the `sharded_equivalence` suite proves it for
//! K ∈ {2, 4, 8} and the `distributed_equivalence` suite for worker
//! *processes*, over all 18 workloads. What sharding buys is not speed
//! on one machine (shards are serially dependent) but the ability to
//! distribute one huge trace across workers — bounded per-worker
//! runtime, restartable segments, and a snapshot trail for free.

use loopspec_asm::Program;
use loopspec_core::snap::{Dec, Enc, SnapError};
use loopspec_cpu::RunLimits;

use crate::session::{Session, SessionSummary};
use crate::snapshot::{CheckpointSink, Snapshot, SnapshotError};

/// Result of a sharded run.
#[derive(Debug)]
pub struct ShardedOutcome<S> {
    /// The final shard's sink, after end-of-stream — holds the merged
    /// result (reports, statistics) of the whole run.
    pub sink: S,
    /// The final shard's session summary (`instructions` is the whole
    /// run's count).
    pub summary: SessionSummary,
    /// Shards actually executed (fewer than configured when the program
    /// halts early).
    pub shards_run: usize,
    /// Total serialized snapshot bytes handed between shards.
    pub handoff_bytes: u64,
}

/// One shard's outcome: the segment summary plus either the serialized
/// snapshot for the successor shard or — when the stream ended inside
/// this shard — nothing.
#[derive(Debug)]
pub struct ShardStep {
    /// The shard's session summary (`instructions` is cumulative).
    pub summary: SessionSummary,
    /// Snapshot bytes for the next shard; `None` when the stream ended
    /// (the program halted, or this was the final shard and the budget
    /// was exhausted).
    pub handoff: Option<Vec<u8>>,
}

impl ShardStep {
    /// `true` when the stream ended inside this shard.
    pub fn done(&self) -> bool {
        self.handoff.is_none()
    }
}

/// How a run's instruction budget is cut into shard fuel slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slicing {
    /// K equal contiguous slices of the total budget (the last possibly
    /// short); shard K−1 ends the stream explicitly.
    Split { shards: usize },
    /// Fixed fuel per shard; the chain continues until the program
    /// halts (or the total budget runs out). The shard count is
    /// emergent — the shape a job queue wants when the trace length is
    /// not known up front.
    Sliced { fuel: u64 },
}

/// The driver-agnostic shard scheduling core: budget slicing plus the
/// single-shard execution step shared by every shard driver (the
/// module-level comments above describe the execution model).
///
/// A `Plan` is pure scheduling state — `Copy`, no I/O — so in-thread
/// loops, worker threads, and a multi-process coordinator can all
/// consult the same instance (or equal copies) of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    slicing: Slicing,
}

impl Plan {
    /// A plan cutting the total budget into `shards` equal contiguous
    /// fuel slices.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn split(shards: usize) -> Self {
        assert!(shards > 0, "a run needs at least one shard");
        Plan {
            slicing: Slicing::Split { shards },
        }
    }

    /// A plan giving every shard a fixed `fuel` slice, chaining until
    /// the program halts (or the total budget is exhausted).
    ///
    /// # Panics
    ///
    /// Panics if `fuel == 0`.
    pub fn sliced(fuel: u64) -> Self {
        assert!(fuel > 0, "a shard needs at least one instruction of fuel");
        Plan {
            slicing: Slicing::Sliced { fuel },
        }
    }

    /// Appends the plan's deterministic wire form to `out` — so a job
    /// spec carrying a `Plan` can cross a process boundary (and join a
    /// cache key) like every other snapshot section.
    pub fn save(&self, out: &mut Enc) {
        match self.slicing {
            Slicing::Split { shards } => {
                out.u8(0);
                out.u64(shards as u64);
            }
            Slicing::Sliced { fuel } => {
                out.u8(1);
                out.u64(fuel);
            }
        }
    }

    /// Reads a plan written by [`Plan::save`].
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncated input, an unknown slicing tag, or a
    /// zero shard count / fuel slice (which the constructors forbid).
    pub fn load(src: &mut Dec<'_>) -> Result<Plan, SnapError> {
        let tag = src.u8()?;
        let value = src.u64()?;
        match tag {
            0 if value > 0 => Ok(Plan::split(value as usize)),
            1 if value > 0 => Ok(Plan::sliced(value)),
            0 | 1 => Err(SnapError::Corrupt {
                what: "zero plan slicing value",
            }),
            _ => Err(SnapError::Corrupt {
                what: "plan slicing tag",
            }),
        }
    }

    /// Configured shard count, when fixed ([`Plan::split`]); `None` for
    /// a [`Plan::sliced`] plan, whose shard count is emergent.
    pub fn shards(&self) -> Option<usize> {
        match self.slicing {
            Slicing::Split { shards } => Some(shards),
            Slicing::Sliced { .. } => None,
        }
    }

    /// The fuel budget of the next shard when `executed` of the
    /// `total` instruction budget has already retired: one slice,
    /// clamped to what remains.
    pub fn budget(&self, total: u64, executed: u64) -> u64 {
        let slice = match self.slicing {
            Slicing::Split { shards } => total.div_ceil(shards as u64),
            Slicing::Sliced { fuel } => fuel,
        };
        slice.min(total.saturating_sub(executed))
    }

    /// `true` when shard `shard` must end the stream even if the
    /// program is still running after its slice (the final slice of a
    /// [`Plan::split`] — exactly like a fuel-truncated
    /// [`Session::run`]).
    pub fn is_last(&self, shard: usize) -> bool {
        match self.slicing {
            Slicing::Split { shards } => shard + 1 == shards,
            Slicing::Sliced { .. } => false,
        }
    }

    /// Executes one shard inside `session` (fresh, with its sinks
    /// registered): resume from `handoff` (if not the first shard),
    /// advance this shard's fuel slice, then halt-end / finish /
    /// checkpoint as appropriate. `limits.max_instrs` is the **total**
    /// budget of the whole run.
    ///
    /// # Errors
    ///
    /// Propagates CPU faults ([`SnapshotError::Cpu`]) and
    /// checkpoint/restore failures.
    pub fn step(
        &self,
        program: &Program,
        limits: RunLimits,
        shard: usize,
        handoff: Option<&[u8]>,
        session: &mut Session<'_>,
    ) -> Result<ShardStep, SnapshotError> {
        let executed = match handoff {
            Some(bytes) => {
                let snapshot = Snapshot::from_bytes(bytes)?;
                session.resume(&snapshot)?;
                snapshot.instructions()
            }
            None => 0,
        };
        run_shard(
            program,
            limits,
            self.budget(limits.max_instrs, executed),
            self.is_last(shard),
            session,
        )
    }
}

/// The single-shard execution primitive beneath [`Plan::step`], for
/// drivers that receive an already-resolved budget instead of a `Plan`
/// (a worker process is told its slice by the coordinator): advance
/// `budget` instructions in `session` (already resumed, if resuming),
/// then end the stream if the program halted, the total budget
/// (`limits.max_instrs`) is spent, or `last` forces an explicit finish
/// — otherwise checkpoint for the successor.
///
/// # Errors
///
/// Propagates CPU faults ([`SnapshotError::Cpu`]) and checkpoint
/// failures.
pub fn run_shard(
    program: &Program,
    limits: RunLimits,
    budget: u64,
    last: bool,
    session: &mut Session<'_>,
) -> Result<ShardStep, SnapshotError> {
    let summary = session.advance(
        program,
        RunLimits {
            max_instrs: budget,
            ..limits
        },
    )?;
    if session.is_ended() {
        // The program halted inside this shard.
        Ok(ShardStep {
            summary,
            handoff: None,
        })
    } else if last || summary.instructions >= limits.max_instrs {
        session.finish();
        Ok(ShardStep {
            summary,
            handoff: None,
        })
    } else {
        let bytes = session.checkpoint()?.to_bytes();
        Ok(ShardStep {
            summary,
            handoff: Some(bytes),
        })
    }
}

/// Splits one run into K contiguous shards linked by serialized
/// [`Snapshot`]s; the module-level comments above describe the
/// execution model.
///
/// `limits.max_instrs` is the **total** instruction budget; it is cut
/// into K equal fuel slices (the last one possibly short). A program
/// that halts before the budget simply ends in an earlier shard; a
/// program still running when the budget is exhausted is finished
/// explicitly, exactly like a fuel-truncated [`Session::run`].
///
/// ```
/// use loopspec_asm::ProgramBuilder;
/// use loopspec_cpu::RunLimits;
/// use loopspec_mt::{EngineGrid, Policy};
/// use loopspec_pipeline::{Session, ShardedRun};
///
/// let mut b = ProgramBuilder::new();
/// b.counted_loop(300, |b, _| b.work(15));
/// let program = b.finish()?;
/// let str4 = || {
///     let mut grid = EngineGrid::new();
///     Policy::Str.add_to_grid(&mut grid, 4);
///     grid
/// };
///
/// // Reference: one uninterrupted pass.
/// let mut reference = str4();
/// let mut session = Session::new();
/// session.observe_checkpointable(&mut reference);
/// let single = session.run(&program, RunLimits::default())?;
///
/// // The same run as 4 checkpoint-linked shards.
/// let sharded = ShardedRun::new(4).run(&program, RunLimits::with_fuel(single.instructions), str4)?;
/// assert_eq!(sharded.shards_run, 4);
/// assert_eq!(sharded.sink.reports(), reference.reports());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ShardedRun {
    plan: Plan,
}

impl ShardedRun {
    /// A run split into `shards` contiguous slices.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(shards: usize) -> Self {
        ShardedRun {
            plan: Plan::split(shards),
        }
    }

    /// The configured shard count.
    pub fn shards(&self) -> usize {
        self.plan.shards().expect("ShardedRun always splits")
    }

    /// The scheduling core this driver executes.
    pub fn plan(&self) -> Plan {
        self.plan
    }

    /// Executes `program` shard by shard **in this thread**, handing
    /// serialized snapshots between shards. `make_sink` constructs each
    /// shard's fresh sink (same configuration every time — snapshot
    /// loading verifies this).
    ///
    /// # Errors
    ///
    /// Propagates CPU faults ([`SnapshotError::Cpu`]) and
    /// checkpoint/restore failures.
    pub fn run<S, F>(
        &self,
        program: &Program,
        limits: RunLimits,
        mut make_sink: F,
    ) -> Result<ShardedOutcome<S>, SnapshotError>
    where
        S: CheckpointSink + Send,
        F: FnMut() -> S,
    {
        let mut handoff: Option<Vec<u8>> = None;
        let mut handoff_bytes = 0u64;
        for shard in 0..self.shards() {
            let mut sink = make_sink();
            let step = {
                let mut session = Session::new();
                session.observe_checkpointable(&mut sink);
                self.plan.step(
                    program,
                    limits,
                    shard,
                    handoff.take().as_deref(),
                    &mut session,
                )?
            };
            match step.handoff {
                Some(bytes) => {
                    handoff_bytes += bytes.len() as u64;
                    handoff = Some(bytes);
                }
                None => {
                    return Ok(ShardedOutcome {
                        sink,
                        summary: step.summary,
                        shards_run: shard + 1,
                        handoff_bytes,
                    });
                }
            }
        }
        unreachable!("the final shard always ends the stream")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopspec_asm::ProgramBuilder;
    use loopspec_core::EventCollector;

    fn program(build: impl FnOnce(&mut ProgramBuilder)) -> Program {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        b.finish().expect("assembles")
    }

    #[test]
    fn split_plan_budgets_cover_the_total_exactly() {
        let plan = Plan::split(4);
        assert_eq!(plan.shards(), Some(4));
        // 10 instructions over 4 shards: slices 3,3,3,1.
        let mut executed = 0;
        let mut slices = Vec::new();
        for shard in 0..4 {
            let b = plan.budget(10, executed);
            slices.push(b);
            executed += b;
            if plan.is_last(shard) {
                break;
            }
        }
        assert_eq!(slices, [3, 3, 3, 1]);
        assert_eq!(executed, 10);
        assert!(plan.is_last(3) && !plan.is_last(2));
    }

    #[test]
    fn sliced_plan_never_forces_an_end() {
        let plan = Plan::sliced(25);
        assert_eq!(plan.shards(), None);
        assert_eq!(plan.budget(1000, 0), 25);
        assert_eq!(plan.budget(1000, 990), 10, "clamped to the total");
        assert!(!plan.is_last(0) && !plan.is_last(1_000_000));
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_is_rejected() {
        let _ = Plan::split(0);
    }

    #[test]
    #[should_panic(expected = "at least one instruction")]
    fn zero_fuel_is_rejected() {
        let _ = Plan::sliced(0);
    }

    #[test]
    fn sliced_plan_chains_until_halt_and_matches_split() {
        let p = program(|b| b.counted_loop(100, |b, _| b.work(7)));

        let mut reference = EventCollector::default();
        let mut session = Session::new();
        session.observe_checkpointable(&mut reference);
        let single = session.run(&p, RunLimits::default()).unwrap();

        // Drive a sliced plan by hand, the way a job queue would: fixed
        // fuel per shard, chain until a step reports done.
        let plan = Plan::sliced(200);
        let mut handoff: Option<Vec<u8>> = None;
        let mut shard = 0;
        let sink = loop {
            let mut sink = EventCollector::default();
            let mut session = Session::new();
            session.observe_checkpointable(&mut sink);
            let step = plan
                .step(
                    &p,
                    RunLimits::default(),
                    shard,
                    handoff.take().as_deref(),
                    &mut session,
                )
                .unwrap();
            shard += 1;
            match step.handoff {
                Some(bytes) => handoff = Some(bytes),
                None => {
                    assert_eq!(step.summary.instructions, single.instructions);
                    break sink;
                }
            }
        };
        assert_eq!(shard as u64, single.instructions.div_ceil(200));
        assert_eq!(sink.events(), reference.events());
        assert_eq!(sink.instructions(), reference.instructions());
    }
}
