//! The coordinator: N worker processes running one workload suite,
//! bit-identical merged results.
//!
//! [`Coordinator::run_suite`] submits every workload to the shared
//! [`Scheduler`] as one snapshot-linked chain and drains the outcomes;
//! see the [scheduler docs](crate::scheduler) for the scheduling and
//! failure model. The coordinator's reaction to a failure is to end the
//! run: the first failed chain or protocol violation becomes the
//! [`DistError`] it returns — [`DistError::Failed`] (deterministic job
//! failure, poison shard), [`DistError::AllWorkersDied`] (always
//! reachable for pre-connected pools, which cannot respawn, and for
//! [`Coordinator::no_respawn`]) or [`DistError::Protocol`]. A worker
//! that cannot be spawned is [`DistError::Spawn`] up front.
//!
//! ## Bit-identity
//!
//! A worker's [`Report`](crate::wire::Report) carries both the
//! integer-exact per-lane reports and the final sink's deterministic
//! `save_state` bytes. [`DistOutcome::verify_single_pass`] recomputes
//! each workload in-process with one uninterrupted [`Session`] and
//! compares **bytes**, not summaries — the distributed grid must be
//! indistinguishable from the single-pass grid down to its serialized
//! state.

use std::fmt;
use std::io;
use std::process::Command;
use std::sync::mpsc;

use loopspec_core::snap::Enc;
use loopspec_core::SnapshotState;
use loopspec_cpu::RunLimits;
use loopspec_mt::Policy;
use loopspec_pipeline::{Plan, Session};
use loopspec_workloads::Scale;

use crate::pool::{PoolEvent, Workers};
use crate::scheduler::{ChainSpec, Failure, Outcome, Scheduler};
use crate::wire::{LaneReport, LaneSpec};

pub use crate::pool::WorkerLink;

/// Why a distributed run failed.
#[derive(Debug)]
pub enum DistError {
    /// Transport-level failure outside any worker conversation.
    Io(io::Error),
    /// A worker process could not be spawned or wired up (misconfigured
    /// binary path, missing stdio pipes).
    Spawn {
        /// Human-readable cause.
        message: String,
    },
    /// A job failed deterministically — on a worker
    /// ([`Frame::Error`](crate::wire::Frame::Error)) or locally while
    /// verifying.
    Failed {
        /// The workload involved.
        workload: String,
        /// Human-readable cause.
        message: String,
    },
    /// Every worker died with work remaining; nothing left to
    /// reassign jobs to.
    AllWorkersDied {
        /// Workload chains that did complete.
        completed: usize,
        /// Total chains in the suite.
        total: usize,
    },
    /// A worker violated the protocol (wrong or refused handshake, a
    /// reply for a job it was never given, a malformed frame stream).
    Protocol(String),
    /// The bit-identity check failed: a distributed result differs
    /// from the single-pass reference.
    Mismatch {
        /// The differing workload.
        workload: String,
        /// Which comparison differed.
        what: &'static str,
    },
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Io(e) => write!(f, "distributed run i/o error: {e}"),
            DistError::Spawn { message } => {
                write!(f, "failed to spawn a worker process: {message}")
            }
            DistError::Failed { workload, message } => {
                write!(f, "workload '{workload}' failed: {message}")
            }
            DistError::AllWorkersDied { completed, total } => write!(
                f,
                "all workers died with {completed}/{total} workloads complete"
            ),
            DistError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            DistError::Mismatch { workload, what } => write!(
                f,
                "bit-identity violation on '{workload}': {what} differs from the single pass"
            ),
        }
    }
}

impl std::error::Error for DistError {}

impl From<io::Error> for DistError {
    fn from(e: io::Error) -> Self {
        DistError::Io(e)
    }
}

/// The 20-lane experiment grid — every (policy × TU-count) point of the
/// paper's evaluation, as wire lane specs, TU-major.
pub fn default_lanes() -> Vec<LaneSpec> {
    [2u32, 4, 8, 16]
        .into_iter()
        .flat_map(|tus| Policy::ALL.map(|policy| LaneSpec { policy, tus }))
        .collect()
}

/// What to replay, how to slice it, and through which lanes.
#[derive(Debug, Clone)]
pub struct SuiteSpec {
    /// Workload names, scheduled as independent chains.
    pub workloads: Vec<String>,
    /// Scale every workload is built at.
    pub scale: Scale,
    /// Engine lanes each chain fans its events into.
    pub lanes: Vec<LaneSpec>,
    /// How each chain is sliced into shards (shared with the
    /// in-thread drivers).
    pub plan: Plan,
    /// Total instruction budget per workload (the default
    /// [`RunLimits`] fuel — workloads halt long before it).
    pub total_fuel: u64,
}

impl SuiteSpec {
    /// A spec over the named workloads.
    pub fn new<S: Into<String>>(
        workloads: impl IntoIterator<Item = S>,
        scale: Scale,
        lanes: Vec<LaneSpec>,
        plan: Plan,
    ) -> Self {
        SuiteSpec {
            workloads: workloads.into_iter().map(Into::into).collect(),
            scale,
            lanes,
            plan,
            total_fuel: RunLimits::default().max_instrs,
        }
    }

    /// The full 18-workload suite through the 20-lane grid, sliced
    /// into fixed `shard_fuel` checkpoints.
    pub fn full_grid(scale: Scale, shard_fuel: u64) -> Self {
        SuiteSpec::new(
            loopspec_workloads::all().iter().map(|w| w.name),
            scale,
            default_lanes(),
            Plan::sliced(shard_fuel),
        )
    }
}

/// One workload chain's merged result.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadOutcome {
    /// Workload name.
    pub workload: String,
    /// Total instructions replayed.
    pub instructions: u64,
    /// Shards the chain actually ran (requeued shards count once).
    pub shards_run: u32,
    /// Times the chain was requeued after losing a worker mid-shard.
    pub retries: u32,
    /// Per-lane final reports, in lane order.
    pub lanes: Vec<LaneReport>,
    /// The final sink grid's deterministic `save_state` bytes.
    pub state: Vec<u8>,
}

/// A completed distributed run.
#[derive(Debug, Clone)]
pub struct DistOutcome {
    /// Per-workload results, in suite order.
    pub outcomes: Vec<WorkloadOutcome>,
    /// Worker connections lost during the run.
    pub workers_lost: u32,
    /// Replacement worker processes spawned to keep the pool at full
    /// strength after losses (0 for coordinators that cannot respawn).
    pub workers_respawned: u32,
    /// Jobs dispatched (including requeued re-dispatches).
    pub jobs_dispatched: u64,
    /// Total snapshot bytes shipped back from workers at shard
    /// boundaries.
    pub handoff_bytes: u64,
}

impl DistOutcome {
    /// Recomputes every workload with one uninterrupted in-process
    /// [`Session`] and requires the distributed results to be
    /// **byte-identical**: same instruction counts, same integer-exact
    /// lane reports, same serialized final sink state.
    ///
    /// # Errors
    ///
    /// [`DistError::Mismatch`] naming the first differing workload and
    /// comparison; [`DistError::Failed`] if a reference run itself
    /// fails.
    pub fn verify_single_pass(&self, spec: &SuiteSpec) -> Result<(), DistError> {
        for outcome in &self.outcomes {
            let reference =
                single_pass_outcome(&outcome.workload, spec.scale, &spec.lanes, spec.total_fuel)?;
            let what = if outcome.instructions != reference.instructions {
                Some("instruction count")
            } else if outcome.lanes != reference.lanes {
                Some("lane reports")
            } else if outcome.state != reference.state {
                Some("serialized sink state")
            } else {
                None
            };
            if let Some(what) = what {
                return Err(DistError::Mismatch {
                    workload: outcome.workload.clone(),
                    what,
                });
            }
        }
        Ok(())
    }
}

/// The single-pass reference for one workload: the same lanes, one
/// uninterrupted [`Session`], packaged as a [`WorkloadOutcome`]
/// (`shards_run = 1`, `retries = 0`) so distributed results can be
/// compared field for field.
///
/// # Errors
///
/// [`DistError::Failed`] when the workload is unknown, fails to
/// assemble, or faults while running.
pub fn single_pass_outcome(
    workload: &str,
    scale: Scale,
    lanes: &[LaneSpec],
    total_fuel: u64,
) -> Result<WorkloadOutcome, DistError> {
    let fail = |message: String| DistError::Failed {
        workload: workload.to_string(),
        message,
    };
    let program = loopspec_workloads::build_named(workload, scale)
        .ok_or_else(|| fail(format!("unknown workload '{workload}'")))?
        .map_err(|e| fail(format!("failed to assemble: {e}")))?;
    let mut grid = LaneSpec::build_grid(lanes).map_err(|e| fail(format!("bad lane spec: {e}")))?;
    let summary = {
        let mut session = Session::new();
        session.observe_checkpointable(&mut grid);
        session
            .run(&program, RunLimits::with_fuel(total_fuel))
            .map_err(|e| fail(format!("cpu fault: {e}")))?
    };
    let lanes = grid
        .reports()
        .expect("stream ended")
        .iter()
        .map(Into::into)
        .collect();
    let mut enc = Enc::new();
    grid.save_state(&mut enc);
    Ok(WorkloadOutcome {
        workload: workload.to_string(),
        instructions: summary.instructions,
        shards_run: 1,
        retries: 0,
        lanes,
        state: enc.into_bytes(),
    })
}

/// The multi-process suite runner. Construct with connected
/// [`WorkerLink`]s ([`Coordinator::spawn`] for the common
/// re-invoke-current-binary case) and call [`Coordinator::run_suite`].
///
/// Coordinators built via [`Coordinator::spawn`] /
/// [`Coordinator::spawn_with`] **replenish the pool**: a worker lost
/// mid-shard is replaced the same way the initial pool was spawned
/// (bounded by a 2×-pool respawn budget per run), so the worker count
/// stays constant. Coordinators over pre-connected links
/// ([`Coordinator::new`]) cannot respawn and simply shrink to the
/// survivors — [`Coordinator::no_respawn`] opts a spawned pool into
/// the same behavior.
#[derive(Debug)]
pub struct Coordinator {
    workers: Workers,
}

impl Coordinator {
    /// A coordinator over already-connected workers. Such a pool cannot
    /// be replenished (the coordinator does not know how its links were
    /// made): worker deaths shrink it to the survivors.
    ///
    /// # Panics
    ///
    /// Panics if `links` is empty.
    pub fn new(links: Vec<WorkerLink>) -> Self {
        Coordinator {
            workers: Workers::connected(links),
        }
    }

    /// Spawns `workers` processes by re-invoking the current executable
    /// with `--worker`; see [`Workers::spawn`] (the `dist_run` binary
    /// and the `distributed_run` example both serve that way).
    ///
    /// # Errors
    ///
    /// [`DistError::Spawn`] when a worker cannot be started.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn spawn(workers: usize) -> Result<Self, DistError> {
        Ok(Coordinator {
            workers: Workers::spawn(workers)?,
        })
    }

    /// Spawns `workers` processes from per-worker commands; see
    /// [`Workers::spawn_with`].
    ///
    /// # Errors
    ///
    /// [`DistError::Spawn`] when a worker cannot be started.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn spawn_with(
        workers: usize,
        command: impl FnMut(usize) -> Command + Send + 'static,
    ) -> Result<Self, DistError> {
        Ok(Coordinator {
            workers: Workers::spawn_with(workers, command)?,
        })
    }

    /// Disables pool replenishment: worker deaths shrink the pool to
    /// the survivors even for a spawned coordinator (the strict mode
    /// the all-workers-dead tests pin down).
    pub fn no_respawn(self) -> Self {
        Coordinator {
            workers: self.workers.no_respawn(),
        }
    }

    /// Runs the whole suite across the worker pool and merges the
    /// results; see the [module docs](self) for the failure mapping.
    /// Consumes the coordinator: workers are shut down (EOF on their
    /// job streams) and reaped before this returns, success or
    /// failure.
    ///
    /// # Errors
    ///
    /// See [`DistError`].
    pub fn run_suite(self, spec: &SuiteSpec) -> Result<DistOutcome, DistError> {
        let (tx, rx) = mpsc::channel::<PoolEvent>();
        let mut scheduler = Scheduler::start(self.workers, tx);
        for (key, workload) in spec.workloads.iter().enumerate() {
            let chain = ChainSpec {
                workload: workload.clone(),
                scale: spec.scale,
                lanes: spec.lanes.clone(),
                plan: spec.plan,
                total_fuel: spec.total_fuel,
            };
            scheduler.submit(key as u64, chain);
        }
        let result = drain(spec, &rx, &mut scheduler);
        // Shutdown: EOF the job streams, reap children, join readers;
        // then drain the final Closed events the reader guards sent.
        scheduler.shutdown();
        while rx.try_recv().is_ok() {}
        result
    }
}

/// Feeds pool events to the scheduler until every chain is done; the
/// first failure or protocol violation ends the run.
fn drain(
    spec: &SuiteSpec,
    rx: &mpsc::Receiver<PoolEvent>,
    scheduler: &mut Scheduler<PoolEvent>,
) -> Result<DistOutcome, DistError> {
    let total = spec.workloads.len();
    let mut outcomes: Vec<Option<WorkloadOutcome>> = vec![None; total];
    let mut completed = 0usize;
    loop {
        while let Some(outcome) = scheduler.next_outcome() {
            match outcome {
                Outcome::Done {
                    key,
                    report,
                    shards_run,
                    retries,
                } => {
                    outcomes[key as usize] = Some(WorkloadOutcome {
                        workload: spec.workloads[key as usize].clone(),
                        instructions: report.instructions,
                        shards_run,
                        retries,
                        lanes: report.lanes,
                        state: report.state,
                    });
                    completed += 1;
                }
                Outcome::Failed {
                    cause: Failure::AllWorkersDied,
                    ..
                } => return Err(DistError::AllWorkersDied { completed, total }),
                Outcome::Failed { key, cause } => {
                    return Err(DistError::Failed {
                        workload: spec.workloads[key as usize].clone(),
                        message: cause.to_string(),
                    })
                }
                Outcome::Violation { message, .. } => return Err(DistError::Protocol(message)),
            }
        }
        if completed == total {
            break;
        }
        let event = rx
            .recv()
            .map_err(|_| DistError::AllWorkersDied { completed, total })?;
        scheduler.on_event(event);
    }
    let stats = scheduler.stats();
    Ok(DistOutcome {
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("all chains completed"))
            .collect(),
        workers_lost: stats.workers_lost as u32,
        workers_respawned: stats.workers_respawned as u32,
        jobs_dispatched: stats.jobs_dispatched,
        handoff_bytes: stats.handoff_bytes,
    })
}

// The socket-pair transport these tests drive is Unix-only (process
// pipes, the production transport, are portable and covered by the
// root-level `distributed_equivalence` suite); the portable tests
// below the gated block run everywhere.
#[cfg(all(test, unix))]
mod unix_tests {
    use super::*;
    use crate::wire::{write_frame, Frame, FrameReader, PROTOCOL};
    use crate::worker::Worker;
    use std::os::unix::net::UnixStream;

    /// A coordinator over `n` worker *threads* connected by Unix socket
    /// pairs — the transport without the process spawn, so the unit
    /// tests stay fast and hermetic. (Real process spawning is covered
    /// by `tests/distributed_equivalence.rs` at the repo root and the
    /// `distributed_run` example.)
    fn thread_coordinator(n: usize) -> (Coordinator, Vec<std::thread::JoinHandle<()>>) {
        let mut links = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..n {
            let (ours, theirs) = UnixStream::pair().expect("socketpair");
            links.push(WorkerLink::from_unix(ours).expect("clone"));
            handles.push(std::thread::spawn(move || {
                let reader = theirs.try_clone().expect("clone");
                let _ = Worker::new().serve(reader, theirs);
            }));
        }
        (Coordinator::new(links), handles)
    }

    fn small_spec() -> SuiteSpec {
        SuiteSpec::new(
            ["compress", "li"],
            Scale::Test,
            vec![
                LaneSpec {
                    policy: Policy::Str,
                    tus: 4,
                },
                LaneSpec {
                    policy: Policy::Idle,
                    tus: 4,
                },
            ],
            Plan::sliced(20_000),
        )
    }

    #[test]
    fn socketpair_suite_is_bit_identical_to_single_pass() {
        let spec = small_spec();
        let (coordinator, handles) = thread_coordinator(2);
        let outcome = coordinator.run_suite(&spec).expect("suite runs");
        assert_eq!(outcome.outcomes.len(), 2);
        assert_eq!(outcome.workers_lost, 0);
        assert!(outcome.handoff_bytes > 0, "chains crossed checkpoints");
        for o in &outcome.outcomes {
            assert!(
                o.shards_run > 1,
                "{} ran {} shards",
                o.workload,
                o.shards_run
            );
            assert_eq!(o.retries, 0);
        }
        outcome.verify_single_pass(&spec).expect("bit-identical");
        for h in handles {
            h.join().expect("worker thread exits cleanly");
        }
    }

    #[test]
    fn one_worker_is_enough() {
        let spec = small_spec();
        let (coordinator, handles) = thread_coordinator(1);
        let outcome = coordinator.run_suite(&spec).expect("suite runs");
        outcome.verify_single_pass(&spec).expect("bit-identical");
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn unknown_workload_fails_the_run() {
        let spec = SuiteSpec::new(
            ["specmark"],
            Scale::Test,
            vec![LaneSpec {
                policy: Policy::Str,
                tus: 4,
            }],
            Plan::sliced(10_000),
        );
        let (coordinator, handles) = thread_coordinator(1);
        let err = coordinator.run_suite(&spec).expect_err("must fail");
        assert!(matches!(
            err,
            DistError::Failed { ref workload, .. } if workload == "specmark"
        ));
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn dead_on_arrival_workers_fail_cleanly() {
        // Workers whose far end is closed before the handshake: the
        // run reports AllWorkersDied instead of hanging.
        let mut links = Vec::new();
        for _ in 0..2 {
            let (ours, theirs) = UnixStream::pair().expect("socketpair");
            drop(theirs);
            links.push(WorkerLink::from_unix(ours).expect("clone"));
        }
        let err = Coordinator::new(links)
            .run_suite(&small_spec())
            .expect_err("must fail");
        assert!(matches!(
            err,
            DistError::AllWorkersDied { completed: 0, .. }
        ));
    }

    #[test]
    fn mid_run_worker_loss_requeues_from_the_last_snapshot() {
        // Two workers; one serves exactly one job then drops the
        // connection. The suite still completes bit-identically.
        let spec = small_spec();
        let mut links = Vec::new();
        let mut handles = Vec::new();
        for flaky in [true, false] {
            let (ours, theirs) = UnixStream::pair().expect("socketpair");
            links.push(WorkerLink::from_unix(ours).expect("clone"));
            handles.push(std::thread::spawn(move || {
                let reader = theirs.try_clone().expect("clone");
                if flaky {
                    // Serve the handshake plus one job by hand, then
                    // vanish (drop both halves).
                    let mut frames = FrameReader::new(reader);
                    let mut writer = theirs;
                    let Ok(Some(Frame::Hello { protocol, worker })) = frames.read_frame() else {
                        return;
                    };
                    write_frame(&mut writer, &Frame::Hello { protocol, worker }).unwrap();
                    // Receive a job and answer nothing: simulated loss
                    // mid-shard.
                    let _ = frames.read_frame();
                } else {
                    let _ = Worker::new().serve(reader, theirs);
                }
            }));
        }
        let outcome = Coordinator::new(links).run_suite(&spec).expect("completes");
        assert_eq!(outcome.workers_lost, 1);
        assert_eq!(
            outcome.outcomes.iter().map(|o| o.retries).sum::<u32>(),
            1,
            "exactly one chain was requeued"
        );
        outcome.verify_single_pass(&spec).expect("bit-identical");
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn wrong_handshake_echo_is_a_protocol_error() {
        // A "worker" that echoes the handshake under another worker id.
        let (ours, theirs) = UnixStream::pair().expect("socketpair");
        let links = vec![WorkerLink::from_unix(ours).expect("clone")];
        let handle = std::thread::spawn(move || {
            let mut frames = FrameReader::new(theirs.try_clone().expect("clone"));
            let mut writer = theirs;
            if let Ok(Some(Frame::Hello { protocol, worker })) = frames.read_frame() {
                let wrong = Frame::Hello {
                    protocol,
                    worker: worker + 7,
                };
                write_frame(&mut writer, &wrong).unwrap();
            }
            while let Ok(Some(_)) = frames.read_frame() {}
        });
        let err = Coordinator::new(links)
            .run_suite(&small_spec())
            .expect_err("must fail");
        assert!(
            matches!(err, DistError::Protocol(ref m) if m.contains(&format!("v{PROTOCOL} id 0"))),
            "got: {err}"
        );
        handle.join().unwrap();
    }

    #[test]
    fn garbled_worker_stream_is_a_protocol_error_not_worker_death() {
        // A "worker" that answers the handshake with garbage bytes: the
        // run must fail fast with Protocol (a deterministic peer bug),
        // not tear the link down as retryable death and end in a
        // misleading AllWorkersDied.
        let (ours, theirs) = UnixStream::pair().expect("socketpair");
        let links = vec![WorkerLink::from_unix(ours).expect("clone")];
        let handle = std::thread::spawn(move || {
            use std::io::{Read, Write};
            let mut theirs = theirs;
            let mut sink = [0u8; 256];
            let _ = theirs.read(&mut sink); // swallow the Hello
            let _ = theirs.write_all(&[0xde, 0xad, 0xbe, 0xef].repeat(16));
            let _ = theirs.shutdown(std::net::Shutdown::Both);
        });
        let err = Coordinator::new(links)
            .run_suite(&small_spec())
            .expect_err("must fail");
        assert!(matches!(err, DistError::Protocol(_)), "got: {err}");
        handle.join().unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_lanes_are_the_20_point_grid() {
        let lanes = default_lanes();
        assert_eq!(lanes.len(), 20);
        assert!(lanes.iter().all(|l| l.validate().is_ok()));
    }

    #[test]
    fn misconfigured_binary_is_a_clean_spawn_error() {
        let err =
            Coordinator::spawn_with(1, |_| Command::new("/nonexistent/loopspec-worker-binary"))
                .expect_err("must fail");
        assert!(matches!(err, DistError::Spawn { .. }), "got: {err}");
        assert!(err.to_string().contains("spawn"), "{err}");
    }

    #[test]
    fn errors_display_their_cause() {
        for (e, needle) in [
            (
                DistError::Failed {
                    workload: "go".into(),
                    message: "boom".into(),
                },
                "go",
            ),
            (
                DistError::Failed {
                    workload: String::new(),
                    message: "handshake".into(),
                },
                "handshake",
            ),
            (
                DistError::AllWorkersDied {
                    completed: 3,
                    total: 18,
                },
                "3/18",
            ),
            (DistError::Protocol("bad echo".into()), "bad echo"),
            (
                DistError::Spawn {
                    message: "no such file".into(),
                },
                "spawn",
            ),
            (
                DistError::Mismatch {
                    workload: "li".into(),
                    what: "lane reports",
                },
                "lane reports",
            ),
            (DistError::Io(io::Error::other("io")), "i/o"),
        ] {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }
}
