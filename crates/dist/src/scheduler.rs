//! The one shard scheduler: the one-suite
//! [`Coordinator`](crate::Coordinator) and the persistent replay
//! service (`loopspec-svc`) both submit chains here and react to the
//! [`Outcome`]s it hands back.
//!
//! Each submitted [`ChainSpec`] is a chain of snapshot-linked shards,
//! sliced by the same [`Plan`] the in-thread drivers use. Chains are
//! independent, so every chain's head shard waits in one ready queue;
//! within a chain, shards stay serial. A worker keeps the last snapshot
//! it wrote, so a ready chain whose snapshot's writer is idle goes back
//! to it with a job that names the held snapshot ([`Resume::Held`]);
//! the remaining heads go to the remaining idle workers in queue order,
//! carrying their snapshot ([`Resume::Bytes`]). The scheduler still
//! receives and keeps every snapshot, so a lost holder costs nothing
//! extra: the chain's next job carries the kept copy.
//!
//! Failure rules (DESIGN §7):
//!
//! * a worker that dies mid-shard has its chain requeued from the last
//!   good snapshot (still held here) and, for spawned pools, is
//!   replaced under the pool's 2×-pool respawn budget; a job write that
//!   hits a broken pipe requeues the same way without counting against
//!   the chain;
//! * a shard that kills two workers in a row while respawn is active
//!   fails its chain ([`Failure::Poison`]);
//! * a worker's [`Frame::Error`] for its job, or a job too large to
//!   frame, fails the chain ([`Failure::Job`]);
//! * with every worker dead, every unfinished chain fails
//!   ([`Failure::AllWorkersDied`]);
//! * a protocol violation (wrong handshake echo, a reply for a job the
//!   worker was not given, an unexpected or malformed frame) is
//!   reported as [`Outcome::Violation`] and the slot is left as it is:
//!   the coordinator fails its run, the service calls
//!   [`Scheduler::quarantine`], which handles the slot as a death.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::mpsc;
use std::time::Instant;

use loopspec_obs::{self as obs, journal, EventKind};
use loopspec_pipeline::Plan;
use loopspec_workloads::Scale;

use crate::pool::{PoolEvent, WorkerPool, Workers};
use crate::wire::{Frame, Job, LaneSpec, Report, Resume, WireError, PROTOCOL};

/// One snapshot-linked shard chain to schedule: what to replay,
/// through which lanes, sliced how.
#[derive(Debug, Clone)]
pub struct ChainSpec {
    /// Workload name.
    pub workload: String,
    /// Scale the workload is built at.
    pub scale: Scale,
    /// Engine lanes the chain fans its events into.
    pub lanes: Vec<LaneSpec>,
    /// How the chain is sliced into shards.
    pub plan: Plan,
    /// Total instruction budget.
    pub total_fuel: u64,
}

/// Why a chain failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The job failed deterministically: a worker answered it with
    /// [`Frame::Error`], or it could not be framed.
    Job(String),
    /// The chain's current shard killed `deaths` workers in a row.
    Poison {
        /// The shard index.
        shard: u32,
        /// Workers it killed with no completed shard in between.
        deaths: u32,
    },
    /// Every worker died with the chain unfinished.
    AllWorkersDied,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Job(message) => f.write_str(message),
            Failure::Poison { shard, deaths } => write!(
                f,
                "shard {shard} killed {deaths} workers in a row (no \
                 completed shard in between): poison shard"
            ),
            Failure::AllWorkersDied => f.write_str("all workers died"),
        }
    }
}

/// What the scheduler hands back to its front end.
#[derive(Debug)]
pub enum Outcome {
    /// Chain `key` completed.
    Done {
        /// The key the chain was submitted under.
        key: u64,
        /// The final shard's report (its `job` is the wire job id).
        report: Report,
        /// Shards the chain ran (requeued shards count once).
        shards_run: u32,
        /// Times the chain was requeued after losing a worker.
        retries: u32,
    },
    /// Chain `key` failed and was dropped.
    Failed {
        /// The key the chain was submitted under.
        key: u64,
        /// Why.
        cause: Failure,
    },
    /// Worker `worker` violated the protocol. Its slot is left as it
    /// is; see the [module docs](self).
    Violation {
        /// The offending worker slot.
        worker: usize,
        /// Human-readable cause.
        message: String,
    },
}

/// Scheduler totals and live worker-state counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Jobs written to workers (including requeued re-dispatches).
    pub jobs_dispatched: u64,
    /// Snapshot bytes shipped back from workers at shard boundaries.
    pub handoff_bytes: u64,
    /// Chains with a shard ready to dispatch.
    pub queue_depth: u64,
    /// Worker connections lost so far.
    pub workers_lost: u64,
    /// Replacement processes spawned so far.
    pub workers_respawned: u64,
    /// Workers ready for a job.
    pub idle: u64,
    /// Workers running a job or still handshaking.
    pub busy: u64,
    /// Dead worker slots (a dead slot stays dead).
    pub dead: u64,
}

/// Per-worker scheduling state (the pool only knows transport).
enum WorkerState {
    /// Hello sent, echo not yet received.
    Connecting,
    /// Ready for a job, holding the snapshot of job `held` if its last
    /// answer was a snapshot.
    Idle {
        held: Option<u64>,
    },
    /// Executing job `job` for chain `key`, dispatched at `since`
    /// (shard wall clock — observational only).
    Busy {
        job: u64,
        key: u64,
        since: Instant,
    },
    Dead,
}

impl WorkerState {
    /// A new slot: handshaking, or dead if its handshake write failed.
    fn new(alive: bool) -> Self {
        if alive {
            WorkerState::Connecting
        } else {
            WorkerState::Dead
        }
    }
}

/// One chain's progress through the job queue.
struct Chain {
    spec: ChainSpec,
    shard: u32,
    executed: u64,
    /// Last good snapshot — input of the next (or in-flight) shard.
    /// Retained until the *next* snapshot arrives, so a lost worker
    /// only loses work, never state.
    snapshot: Option<Vec<u8>>,
    /// The worker slot and job whose answer wrote `snapshot`.
    holder: Option<(usize, u64)>,
    retries: u32,
    /// Workers that died while executing the chain's *current* shard
    /// (reset whenever a shard completes) — the poison detector.
    deaths: u32,
}

/// The shard scheduler over one worker pool. `E` is the front end's
/// channel event type: the pool's reader threads deliver
/// `E::from(PoolEvent)` into the sender given to [`Scheduler::start`],
/// and the front end passes each [`PoolEvent`] back in through
/// [`Scheduler::on_event`].
pub struct Scheduler<E> {
    pool: WorkerPool<E>,
    workers: Vec<WorkerState>,
    chains: BTreeMap<u64, Chain>,
    ready: VecDeque<u64>,
    outcomes: VecDeque<Outcome>,
    next_job: u64,
    jobs_dispatched: u64,
    handoff_bytes: u64,
}

impl<E> fmt::Debug for Scheduler<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scheduler")
            .field("pool", &self.pool)
            .field("chains", &self.chains.len())
            .field("ready", &self.ready.len())
            .finish()
    }
}

impl<E: From<PoolEvent> + Send + 'static> Scheduler<E> {
    /// Brings the pool up (reader threads delivering into `tx`,
    /// handshakes sent) and replaces any initial worker that died
    /// before its handshake.
    pub fn start(workers: Workers, tx: mpsc::Sender<E>) -> Self {
        let (pool, alive) = WorkerPool::start(workers, tx);
        let mut scheduler = Scheduler {
            pool,
            workers: alive.iter().map(|&ok| WorkerState::new(ok)).collect(),
            chains: BTreeMap::new(),
            ready: VecDeque::new(),
            outcomes: VecDeque::new(),
            next_job: 1,
            jobs_dispatched: 0,
            handoff_bytes: 0,
        };
        for _ in alive.iter().filter(|ok| !**ok) {
            scheduler.respawn();
        }
        scheduler
    }

    /// Queues a chain under `key`, which must not name a chain still
    /// in flight.
    pub fn submit(&mut self, key: u64, spec: ChainSpec) {
        let chain = Chain {
            spec,
            shard: 0,
            executed: 0,
            snapshot: None,
            holder: None,
            retries: 0,
            deaths: 0,
        };
        let previous = self.chains.insert(key, chain);
        assert!(previous.is_none(), "chain {key} submitted twice");
        self.ready.push_back(key);
        self.settle();
    }

    /// Reacts to one pool event.
    pub fn on_event(&mut self, event: PoolEvent) {
        match event {
            PoolEvent::Frame(w, frame) => self.on_frame(w, frame),
            PoolEvent::Closed(w) => self.lose(w, "connection closed"),
            PoolEvent::Garbled(w, e) => self.violation(
                w,
                format!("worker {w} produced a malformed frame stream: {e}"),
            ),
        }
        self.settle();
    }

    /// Takes worker `w` out of service as if it had died: its shard is
    /// requeued (or its chain fails as poison) and a replacement is
    /// spawned.
    pub fn quarantine(&mut self, w: usize) {
        self.lose(w, "quarantined after a protocol violation");
        self.settle();
    }

    /// The next outcome, oldest first.
    pub fn next_outcome(&mut self) -> Option<Outcome> {
        self.outcomes.pop_front()
    }

    /// `true` when no worker is left alive (connecting, idle or busy).
    pub fn all_workers_dead(&self) -> bool {
        self.workers.iter().all(|s| matches!(s, WorkerState::Dead))
    }

    /// Totals so far and the live worker-state counts.
    pub fn stats(&self) -> SchedulerStats {
        let mut stats = SchedulerStats {
            jobs_dispatched: self.jobs_dispatched,
            handoff_bytes: self.handoff_bytes,
            queue_depth: self.ready.len() as u64,
            workers_lost: u64::from(self.pool.lost()),
            workers_respawned: u64::from(self.pool.respawned()),
            ..SchedulerStats::default()
        };
        for state in &self.workers {
            match state {
                WorkerState::Idle { .. } => stats.idle += 1,
                WorkerState::Busy { .. } | WorkerState::Connecting => stats.busy += 1,
                WorkerState::Dead => stats.dead += 1,
            }
        }
        stats
    }

    /// Tears the pool down: EOFs every job stream, reaps spawned
    /// children, joins the reader threads. Callers should drain their
    /// event receiver afterwards (each reader delivers a final
    /// `Closed`).
    pub fn shutdown(self) {
        self.pool.shutdown();
    }

    fn on_frame(&mut self, w: usize, frame: Frame) {
        let connecting = matches!(self.workers[w], WorkerState::Connecting);
        match frame {
            Frame::Hello { protocol, worker } if connecting => {
                if protocol == PROTOCOL && worker == w as u32 {
                    self.workers[w] = WorkerState::Idle { held: None };
                } else {
                    self.violation(
                        w,
                        format!(
                            "worker {w} echoed protocol v{protocol} id {worker}, \
                             expected v{PROTOCOL} id {w}"
                        ),
                    );
                }
            }
            Frame::Error { message, .. } if connecting => {
                self.violation(w, format!("worker {w} refused the handshake: {message}"));
            }
            Frame::Snapshot {
                job,
                instructions,
                bytes,
            } => {
                let Some(key) = self.reply(w, job) else {
                    return;
                };
                self.handoff_bytes += bytes.len() as u64;
                obs::counter("dist_handoff_bytes").add(bytes.len() as u64);
                let chain = self.chains.get_mut(&key).expect("busy chain exists");
                chain.executed = instructions;
                chain.shard += 1;
                chain.snapshot = Some(bytes);
                chain.holder = Some((w, job));
                self.workers[w] = WorkerState::Idle { held: Some(job) };
                // Progress clears the poison-shard suspicion: only
                // deaths on the *same* shard count together.
                chain.deaths = 0;
                self.ready.push_back(key);
            }
            Frame::Report(report) => {
                let Some(key) = self.reply(w, report.job) else {
                    return;
                };
                let chain = self.chains.remove(&key).expect("busy chain exists");
                self.outcomes.push_back(Outcome::Done {
                    key,
                    report,
                    shards_run: chain.shard + 1,
                    retries: chain.retries,
                });
            }
            Frame::Error { job, message } => {
                if let Some(key) = self.reply(w, job) {
                    self.fail(key, Failure::Job(message));
                }
            }
            frame => self.violation(w, format!("worker {w} sent an unexpected frame: {frame:?}")),
        }
    }

    /// The chain a busy worker's reply belongs to, freeing the worker.
    /// A reply from a worker that is not busy, or for the wrong job,
    /// is a violation.
    fn reply(&mut self, w: usize, job: u64) -> Option<u64> {
        match self.workers[w] {
            WorkerState::Busy {
                job: expect,
                key,
                since,
            } if expect == job => {
                obs::histogram("dist_shard_wall_us").observe(since.elapsed().as_micros() as u64);
                self.workers[w] = WorkerState::Idle { held: None };
                Some(key)
            }
            WorkerState::Busy { job: expect, .. } => {
                self.violation(
                    w,
                    format!("worker {w} answered job {job}, expected {expect}"),
                );
                None
            }
            _ => {
                self.violation(w, format!("worker {w} answered job {job} while not busy"));
                None
            }
        }
    }

    fn violation(&mut self, worker: usize, message: String) {
        self.outcomes
            .push_back(Outcome::Violation { worker, message });
    }

    fn fail(&mut self, key: u64, cause: Failure) {
        self.chains.remove(&key);
        self.outcomes.push_back(Outcome::Failed { key, cause });
    }

    /// Worker `w` is gone: requeue its shard from the last good
    /// snapshot (or fail the chain as poison) and spawn a replacement.
    /// Only the first observation of a death counts — a failed job
    /// write, a quarantine and the reader's `Closed` may all report
    /// the same slot.
    fn lose(&mut self, w: usize, why: &str) {
        let busy = match std::mem::replace(&mut self.workers[w], WorkerState::Dead) {
            WorkerState::Dead => return,
            WorkerState::Busy { job, key, .. } => Some((job, key)),
            WorkerState::Connecting | WorkerState::Idle { .. } => None,
        };
        self.pool.note_lost();
        let (job, shard) = busy.map_or((0, 0), |(job, key)| (job, self.chains[&key].shard));
        journal::record(
            EventKind::WorkerDeath,
            job,
            shard,
            format!("worker {w} {why}"),
        );
        if let Some((job, key)) = busy {
            let chain = self.chains.get_mut(&key).expect("busy chain exists");
            chain.deaths += 1;
            if chain.deaths >= 2 && self.pool.can_respawn() {
                // The replacement died on the same shard: a poison shard
                // would grind through fresh processes forever.
                let cause = Failure::Poison {
                    shard: chain.shard,
                    deaths: chain.deaths,
                };
                journal::record(
                    EventKind::PoisonShard,
                    job,
                    chain.shard,
                    format!(
                        "workload '{}' killed {} workers",
                        chain.spec.workload, chain.deaths
                    ),
                );
                self.fail(key, cause);
            } else {
                self.requeue(key, job, format!("worker {w} died mid-shard"));
            }
        }
        self.respawn();
    }

    fn requeue(&mut self, key: u64, job: u64, why: String) {
        let chain = self.chains.get_mut(&key).expect("requeued chain exists");
        chain.retries += 1;
        obs::counter("dist_requeues").inc();
        journal::record(
            EventKind::Requeue,
            job,
            chain.shard,
            format!("{why}; requeued '{}'", chain.spec.workload),
        );
        self.ready.push_front(key);
    }

    /// Asks the pool for a replacement worker and mirrors the new slots
    /// into the state table.
    fn respawn(&mut self) {
        for (slot, ok) in self.pool.respawn_worker() {
            journal::record(
                EventKind::WorkerRespawn,
                0,
                slot as u32,
                if ok {
                    "replacement worker spawned"
                } else {
                    "replacement worker failed to spawn"
                },
            );
            self.workers.push(WorkerState::new(ok));
        }
    }

    /// Dispatches what can run; with no worker left alive, fails every
    /// unfinished chain.
    fn settle(&mut self) {
        self.dispatch();
        if self.all_workers_dead() {
            self.ready.clear();
            while let Some((key, _)) = self.chains.pop_first() {
                self.outcomes.push_back(Outcome::Failed {
                    key,
                    cause: Failure::AllWorkersDied,
                });
            }
        }
    }

    /// Hands ready chains to idle workers: first every chain whose
    /// snapshot's writer is idle, to that writer as [`Resume::Held`];
    /// then the remaining heads, in queue order, to the remaining idle
    /// workers, carrying their snapshot.
    fn dispatch(&mut self) {
        let held: Vec<(u64, usize, u64)> = self
            .ready
            .iter()
            .filter_map(|&key| {
                let (w, job) = self.chains[&key].holder?;
                matches!(self.workers[w], WorkerState::Idle { held: Some(h) } if h == job)
                    .then_some((key, w, job))
            })
            .collect();
        self.ready
            .retain(|key| !held.iter().any(|&(k, ..)| k == *key));
        for (key, w, job) in held {
            self.send_job(w, key, Some(job));
        }
        while let Some(&key) = self.ready.front() {
            let Some(w) = self
                .workers
                .iter()
                .position(|s| matches!(s, WorkerState::Idle { .. }))
            else {
                return;
            };
            self.ready.pop_front();
            self.send_job(w, key, None);
        }
    }

    /// Writes chain `key`'s next job to idle worker `w`. The job resumes
    /// from the snapshot of job `held` that `w` holds, or else carries
    /// the chain's snapshot (its start when it has none yet).
    fn send_job(&mut self, w: usize, key: u64, held: Option<u64>) {
        let job_id = self.next_job;
        self.next_job += 1;
        let chain = self.chains.get_mut(&key).expect("queued chain exists");
        let spec = &chain.spec;
        // The snapshot is *moved* into a carrying job (it is the largest
        // object in the system — no clone on the dispatch hot path) and
        // restored right after the write, so the chain still holds its
        // last good snapshot if this worker is later lost mid-shard.
        let resume = match held {
            Some(job) => Resume::Held { job },
            None => chain.snapshot.take().map_or(Resume::Start, Resume::Bytes),
        };
        let job = Frame::Job(Job {
            id: job_id,
            workload: spec.workload.clone(),
            scale: spec.scale,
            lanes: spec.lanes.clone(),
            shard: chain.shard,
            budget: spec.plan.budget(spec.total_fuel, chain.executed),
            total_fuel: spec.total_fuel,
            last: spec.plan.is_last(chain.shard as usize),
            resume,
        });
        let wrote = self.pool.send(w, &job);
        let Frame::Job(job) = job else { unreachable!() };
        if let Resume::Bytes(bytes) = job.resume {
            chain.snapshot = Some(bytes);
        }
        match wrote {
            Ok(()) => {
                self.jobs_dispatched += 1;
                obs::counter("dist_jobs_dispatched").inc();
                if held.is_some() {
                    obs::counter("dist_held_resumes").inc();
                }
                self.workers[w] = WorkerState::Busy {
                    job: job_id,
                    key,
                    since: Instant::now(),
                };
            }
            Err(WireError::Codec(e)) => {
                self.fail(key, Failure::Job(format!("job could not be framed: {e}")));
            }
            Err(WireError::Io(_)) => {
                // The worker died between frames (its `Closed` will
                // find the slot already dead). The job never reached
                // it, so this death does not count against the
                // chain's poison detector.
                self.workers[w] = WorkerState::Dead;
                self.pool.note_lost();
                self.requeue(key, job_id, format!("job write to worker {w} failed"));
                self.respawn();
            }
        }
    }
}
