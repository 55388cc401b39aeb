//! The persistent replay service: one thread multiplexing many
//! concurrent [`JobSpec`] submissions over the shared shard
//! [`Scheduler`], fronted by the content-addressed [`ReportCache`].
//!
//! ## Job lifecycle
//!
//! A submission is first validated and fingerprinted **on the caller's
//! thread**, which also looks the fingerprint up in the cache it shares
//! with the service thread. An invalid spec fails and a cache hit
//! answers right there: no channel, no worker, no service-thread wake-up.
//! Only a miss travels to the service thread, which re-checks the cache
//! (a report may have landed since the caller's lookup) through the same
//! hit path. A fingerprint already being computed attaches the
//! submission as an extra waiter (*coalescing* — one computation, N
//! answers). Otherwise admission control applies: if the number of
//! distinct in-flight computations has reached the configured queue
//! limit, the submission is rejected (backpressure — the client backs
//! off and retries); else a new snapshot-linked chain is submitted to
//! the scheduler, which dispatches it shard by shard exactly as it does
//! for the one-suite coordinator.
//!
//! ## Failure model
//!
//! The scheduler owns worker death, requeue, respawn and the poison
//! rule (see [`loopspec_dist::scheduler`]). The service's reaction
//! differs from the coordinator's because it serves many jobs at once:
//! a failed chain (poison shard, deterministic job error, every worker
//! dead) fails **that job's waiters only**, and a protocol violation
//! quarantines the offending worker instead of failing anything. Even
//! with every worker dead the service keeps serving cache hits; misses
//! fail fast with an explanatory error.

use std::collections::HashMap;
use std::fmt;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use loopspec_dist::{
    ChainSpec, DistError, JobSpec, Outcome, PoolEvent, Report, Scheduler, SvcStats, WorkerLink,
    Workers,
};
use loopspec_obs::{self as obs, journal, EventKind};

use crate::cache::ReportCache;

/// Service tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct SvcConfig {
    /// Worker processes (or pre-connected links) in the pool.
    pub workers: usize,
    /// Admission limit: maximum distinct in-flight computations before
    /// new (uncached, uncoalesced) submissions are rejected.
    pub queue_limit: usize,
    /// Report-cache capacity in entries; `0` disables caching.
    pub cache_capacity: usize,
}

impl Default for SvcConfig {
    /// Two workers, 64 queued computations, 256 cached reports.
    fn default() -> Self {
        SvcConfig {
            workers: 2,
            queue_limit: 64,
            cache_capacity: 256,
        }
    }
}

/// Why a submission did not produce a report.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SvcError {
    /// Admission control refused the job — the service is at its
    /// in-flight limit. Back off and resubmit.
    Rejected {
        /// Distinct computations in flight when the job was refused.
        queue_depth: u64,
    },
    /// The job failed (deterministic worker error, poison shard, or no
    /// workers left alive).
    Failed {
        /// Human-readable cause.
        message: String,
    },
    /// The service is gone (shut down, or its scheduler thread died).
    Disconnected,
}

impl fmt::Display for SvcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SvcError::Rejected { queue_depth } => {
                write!(f, "rejected by admission control ({queue_depth} in flight)")
            }
            SvcError::Failed { message } => write!(f, "job failed: {message}"),
            SvcError::Disconnected => write!(f, "replay service is gone"),
        }
    }
}

impl std::error::Error for SvcError {}

/// A finished submission: the report grid, and whether it came from
/// the cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The full report — byte-identical to what a single-pass run of
    /// the same spec produces.
    pub report: Report,
    /// `true` when answered from the content-addressed cache.
    pub cached: bool,
}

type Reply = Result<Completion, SvcError>;

/// Everything the scheduler thread reacts to: pool traffic plus client
/// requests, merged on one channel.
#[derive(Debug)]
enum SvcEvent {
    Pool(PoolEvent),
    /// A validated spec whose cache lookup missed on the caller's thread.
    Submit {
        spec: JobSpec,
        fingerprint: u64,
        arrived: Instant,
        reply: mpsc::Sender<Reply>,
    },
    Stats {
        reply: mpsc::Sender<SvcStats>,
    },
    MetricsText {
        reply: mpsc::Sender<String>,
    },
    Shutdown,
}

impl From<PoolEvent> for SvcEvent {
    fn from(ev: PoolEvent) -> Self {
        SvcEvent::Pool(ev)
    }
}

/// A submission's handle; blocks on [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket(Answer);

/// A submission answered on the caller's thread, or one the service
/// thread will answer.
#[derive(Debug)]
enum Answer {
    Ready(Reply),
    Pending(mpsc::Receiver<Reply>),
}

impl Ticket {
    /// Blocks until the service answers.
    ///
    /// # Errors
    ///
    /// [`SvcError`] when the job was rejected, failed, or the service
    /// went away.
    pub fn wait(self) -> Reply {
        match self.0 {
            Answer::Ready(reply) => reply,
            Answer::Pending(rx) => rx.recv().unwrap_or(Err(SvcError::Disconnected)),
        }
    }
}

/// A cheap, cloneable, thread-safe handle for submitting jobs.
#[derive(Debug, Clone)]
pub struct Client {
    tx: mpsc::Sender<SvcEvent>,
    shared: Arc<Shared>,
}

impl Client {
    /// Submits `spec` without blocking. An invalid spec or a cache hit
    /// is answered on this thread, so its [`Ticket`] is already
    /// resolved; a miss resolves when the service thread answers.
    pub fn submit(&self, spec: JobSpec) -> Ticket {
        let arrived = Instant::now();
        if self.shared.closed.load(Ordering::Acquire) {
            return Ticket(Answer::Ready(Err(SvcError::Disconnected)));
        }
        if let Err(e) = spec.validate() {
            self.shared.metrics.invalid.inc();
            return Ticket(Answer::Ready(Err(SvcError::Failed {
                message: format!("invalid job spec: {e}"),
            })));
        }
        let fingerprint = spec.fingerprint();
        if let Some(done) = self.shared.hit(fingerprint, arrived) {
            return Ticket(Answer::Ready(Ok(done)));
        }
        let (reply, rx) = mpsc::channel();
        let _ = self.tx.send(SvcEvent::Submit {
            spec,
            fingerprint,
            arrived,
            reply,
        });
        Ticket(Answer::Pending(rx))
    }

    /// Submits `spec` and blocks for the answer.
    ///
    /// # Errors
    ///
    /// [`SvcError`] when the job was rejected, failed, or the service
    /// went away.
    pub fn run(&self, spec: JobSpec) -> Reply {
        self.submit(spec).wait()
    }

    /// A snapshot of the service's metrics counters.
    ///
    /// # Errors
    ///
    /// [`SvcError::Disconnected`] when the service is gone.
    pub fn stats(&self) -> Result<SvcStats, SvcError> {
        let (reply, rx) = mpsc::channel();
        self.tx
            .send(SvcEvent::Stats { reply })
            .map_err(|_| SvcError::Disconnected)?;
        rx.recv().map_err(|_| SvcError::Disconnected)
    }

    /// The service's metrics surface as exposition text: the
    /// byte-stable `svc_<counter> <value>` lines of [`render_metrics`]
    /// followed by the scheduler's latency histograms.
    ///
    /// # Errors
    ///
    /// [`SvcError::Disconnected`] when the service is gone.
    pub fn metrics_text(&self) -> Result<String, SvcError> {
        let (reply, rx) = mpsc::channel();
        self.tx
            .send(SvcEvent::MetricsText { reply })
            .map_err(|_| SvcError::Disconnected)?;
        rx.recv().map_err(|_| SvcError::Disconnected)
    }
}

/// The persistent replay service; owns the scheduler thread and,
/// transitively, the worker pool. See the [module docs](self).
#[derive(Debug)]
pub struct Service {
    tx: mpsc::Sender<SvcEvent>,
    shared: Arc<Shared>,
    scheduler: Option<std::thread::JoinHandle<()>>,
}

impl Service {
    /// Starts a service over `config.workers` processes re-invoking the
    /// current executable; see [`Workers::spawn`].
    ///
    /// # Errors
    ///
    /// [`DistError::Spawn`] when a worker cannot be started.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers == 0`.
    pub fn spawn(config: SvcConfig) -> Result<Self, DistError> {
        Ok(Self::start(config, Workers::spawn(config.workers)?))
    }

    /// Starts a service over `config.workers` processes from
    /// per-worker commands; see [`Workers::spawn_with`].
    ///
    /// # Errors
    ///
    /// [`DistError::Spawn`] when a worker cannot be started.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers == 0`.
    pub fn spawn_with(
        config: SvcConfig,
        command: impl FnMut(usize) -> Command + Send + 'static,
    ) -> Result<Self, DistError> {
        let workers = Workers::spawn_with(config.workers, command)?;
        Ok(Self::start(config, workers))
    }

    /// Starts a service over already-connected links, which cannot be
    /// replenished; see [`Workers::connected`].
    ///
    /// # Panics
    ///
    /// Panics if `links` is empty.
    pub fn with_links(config: SvcConfig, links: Vec<WorkerLink>) -> Self {
        Self::start(config, Workers::connected(links))
    }

    fn start(config: SvcConfig, workers: Workers) -> Self {
        let (tx, rx) = mpsc::channel();
        let pool_tx = tx.clone();
        let shared = Arc::new(Shared {
            cache: Mutex::new(ReportCache::new(config.cache_capacity)),
            metrics: SvcMetrics::new(),
            closed: AtomicBool::new(false),
        });
        let loop_shared = Arc::clone(&shared);
        let scheduler = std::thread::spawn(move || {
            let scheduler = Scheduler::start(workers, pool_tx);
            ServiceLoop::new(config, scheduler, rx, loop_shared).run();
        });
        Service {
            tx,
            shared,
            scheduler: Some(scheduler),
        }
    }

    /// A cloneable submission handle.
    pub fn client(&self) -> Client {
        Client {
            tx: self.tx.clone(),
            shared: Arc::clone(&self.shared),
        }
    }

    /// A snapshot of the service's metrics counters.
    pub fn stats(&self) -> SvcStats {
        self.client().stats().unwrap_or_default()
    }

    /// The metrics surface in plain-text exposition format: one
    /// `svc_<counter> <value>` line per [`SvcStats`] field (byte-stable
    /// since the counters first shipped), followed by the scheduler's
    /// cache-latency histograms in Prometheus `_bucket`/`_sum`/`_count`
    /// form. Suitable for scraping or for a human terminal.
    pub fn metrics_text(&self) -> String {
        self.client()
            .metrics_text()
            .unwrap_or_else(|_| render_metrics(&SvcStats::default()))
    }

    /// Fault-injection hook: flips one byte of the cached report for
    /// `fingerprint` so the next lookup detects corruption, evicts the
    /// entry, and recomputes. Returns whether an entry existed.
    pub fn corrupt_cache_entry(&self, fingerprint: u64) -> bool {
        self.shared.cache().corrupt(fingerprint)
    }

    /// Stops the scheduler, fails any jobs still in flight with
    /// [`SvcError::Disconnected`], and tears the worker pool down.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.closed.store(true, Ordering::Release);
        let _ = self.tx.send(SvcEvent::Shutdown);
        if let Some(handle) = self.scheduler.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Renders a stats snapshot as `svc_<counter> <value>` lines, through
/// the byte-stable [`obs::render`] line helpers — the output for these
/// eighteen counters (and the `svc_cache_hit_rate` ratio) is preserved
/// verbatim from before the telemetry substrate existed.
pub fn render_metrics(stats: &SvcStats) -> String {
    let mut out = String::new();
    let total_lookups = stats.cache_hits + stats.cache_misses;
    let hit_rate = if total_lookups == 0 {
        0.0
    } else {
        stats.cache_hits as f64 / total_lookups as f64
    };
    for (name, value) in [
        ("svc_submitted", stats.submitted),
        ("svc_accepted", stats.accepted),
        ("svc_rejected", stats.rejected),
        ("svc_completed", stats.completed),
        ("svc_failed", stats.failed),
        ("svc_in_flight", stats.in_flight),
        ("svc_cache_hits", stats.cache_hits),
        ("svc_cache_misses", stats.cache_misses),
        ("svc_coalesced", stats.coalesced),
        ("svc_evictions", stats.evictions),
        ("svc_queue_depth", stats.queue_depth),
        ("svc_workers_idle", stats.workers_idle),
        ("svc_workers_busy", stats.workers_busy),
        ("svc_workers_dead", stats.workers_dead),
        ("svc_workers_lost", stats.workers_lost),
        ("svc_workers_respawned", stats.workers_respawned),
        ("svc_jobs_dispatched", stats.jobs_dispatched),
        ("svc_handoff_bytes", stats.handoff_bytes),
    ] {
        obs::render::counter_line(&mut out, name, value);
    }
    obs::render::float_line(&mut out, "svc_cache_hit_rate", hit_rate);
    out
}

/// One in-flight computation: every submission waiting on the chain
/// the scheduler runs under the spec's fingerprint.
#[derive(Debug)]
struct Run {
    /// Submission time of the miss that started this computation —
    /// telemetry only (the miss-latency histogram), never serialized.
    started: Instant,
    waiters: Vec<mpsc::Sender<Reply>>,
}

/// The service's metric cells: a per-service [`obs::Registry`] (two
/// services in one process never mix numbers) with every handle cached
/// at startup, so each bookkeeping bump is one relaxed atomic add.
///
/// Only the service thread bumps `submitted`, `accepted`, `rejected`,
/// `completed`, `failed`, `in_flight`, `cache_misses` and `coalesced`,
/// and only for the submissions it decides. A submission answered
/// without it bumps exactly one cell — `cache_hits` for a hit (on either
/// thread), `invalid` for a spec the caller refused — and
/// [`ServiceLoop::snapshot`] folds those two into the totals. Worker
/// states, dispatch and handoff totals, queue depth and cache evictions
/// are read from the scheduler and the cache at snapshot time.
#[derive(Debug)]
struct SvcMetrics {
    registry: obs::Registry,
    submitted: obs::Counter,
    accepted: obs::Counter,
    rejected: obs::Counter,
    completed: obs::Counter,
    failed: obs::Counter,
    in_flight: obs::Gauge,
    cache_hits: obs::Counter,
    cache_misses: obs::Counter,
    coalesced: obs::Counter,
    invalid: obs::Counter,
    hit_latency: obs::Histogram,
    miss_latency: obs::Histogram,
}

impl SvcMetrics {
    fn new() -> Self {
        let registry = obs::Registry::new();
        SvcMetrics {
            submitted: registry.counter("svc_submitted"),
            accepted: registry.counter("svc_accepted"),
            rejected: registry.counter("svc_rejected"),
            completed: registry.counter("svc_completed"),
            failed: registry.counter("svc_failed"),
            in_flight: registry.gauge("svc_in_flight"),
            cache_hits: registry.counter("svc_cache_hits"),
            cache_misses: registry.counter("svc_cache_misses"),
            coalesced: registry.counter("svc_coalesced"),
            invalid: registry.counter("svc_invalid_specs"),
            hit_latency: registry.histogram("svc_cache_hit_latency_us"),
            miss_latency: registry.histogram("svc_cache_miss_latency_us"),
            registry,
        }
    }
}

/// What every [`Client`] shares with the service thread: the report
/// cache and the metric cells.
#[derive(Debug)]
struct Shared {
    cache: Mutex<ReportCache>,
    metrics: SvcMetrics,
    /// Set when the service stops, so a client outliving it is told so
    /// even for a submission it could answer itself.
    closed: AtomicBool,
}

impl Shared {
    /// The cache. Every stored entry stays sealed whatever a panicking
    /// lock holder left half-done, so a poisoned lock is still used.
    fn cache(&self) -> MutexGuard<'_, ReportCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The one cache-hit path, taken by the caller's thread and by the
    /// service thread's re-check: looks `fingerprint` up and, on a hit,
    /// counts, journals and times it from the submission at `arrived`.
    fn hit(&self, fingerprint: u64, arrived: Instant) -> Option<Completion> {
        let report = self.cache().get(fingerprint)?;
        self.metrics.cache_hits.inc();
        journal::record(
            EventKind::CacheHit,
            fingerprint,
            0,
            "served from the report cache",
        );
        self.metrics
            .hit_latency
            .observe(arrived.elapsed().as_micros() as u64);
        Some(Completion {
            report,
            cached: true,
        })
    }
}

/// The service thread's state: what is specific to the service —
/// coalescing, admission, waiters — over the shared shard
/// [`Scheduler`], plus the cache and metrics it shares with clients.
struct ServiceLoop {
    rx: mpsc::Receiver<SvcEvent>,
    scheduler: Scheduler<SvcEvent>,
    /// In-flight computations by fingerprint (also their chain key).
    runs: HashMap<u64, Run>,
    shared: Arc<Shared>,
    queue_limit: usize,
}

impl ServiceLoop {
    fn new(
        config: SvcConfig,
        scheduler: Scheduler<SvcEvent>,
        rx: mpsc::Receiver<SvcEvent>,
        shared: Arc<Shared>,
    ) -> Self {
        ServiceLoop {
            rx,
            scheduler,
            runs: HashMap::new(),
            shared,
            queue_limit: config.queue_limit,
        }
    }

    fn run(mut self) {
        loop {
            let Ok(event) = self.rx.recv() else {
                // Every sender gone (service handle dropped without a
                // shutdown, pool already down): nothing can ever
                // arrive again.
                break;
            };
            match event {
                SvcEvent::Submit {
                    spec,
                    fingerprint,
                    arrived,
                    reply,
                } => self.on_submit(spec, fingerprint, arrived, reply),
                SvcEvent::Stats { reply } => {
                    let _ = reply.send(self.snapshot());
                }
                SvcEvent::MetricsText { reply } => {
                    let mut text = render_metrics(&self.snapshot());
                    let registry = &self.shared.metrics.registry;
                    obs::render::histograms_with_prefix(&mut text, registry, "svc_");
                    let _ = reply.send(text);
                }
                SvcEvent::Shutdown => break,
                SvcEvent::Pool(ev) => {
                    self.scheduler.on_event(ev);
                    self.drain();
                }
            }
        }
        // Fail whatever is still waiting, then tear the pool down.
        let fingerprints: Vec<u64> = self.runs.keys().copied().collect();
        for fp in fingerprints {
            self.finish_run(fp, &Err(SvcError::Disconnected));
        }
        self.scheduler.shutdown();
        while self.rx.try_recv().is_ok() {}
    }

    // ---- client events ------------------------------------------------

    fn on_submit(
        &mut self,
        spec: JobSpec,
        fingerprint: u64,
        arrived: Instant,
        reply: mpsc::Sender<Reply>,
    ) {
        // A report may have landed between the caller's miss and now.
        if let Some(done) = self.shared.hit(fingerprint, arrived) {
            let _ = reply.send(Ok(done));
            return;
        }
        let m = &self.shared.metrics;
        m.submitted.inc();
        if let Some(run) = self.runs.get_mut(&fingerprint) {
            // Identical job already computing: one computation, one
            // more answer.
            m.accepted.inc();
            m.in_flight.add(1);
            m.coalesced.inc();
            run.waiters.push(reply);
            return;
        }
        if self.runs.len() >= self.queue_limit {
            m.rejected.inc();
            journal::record(
                EventKind::AdmissionReject,
                fingerprint,
                0,
                format!("{} computations in flight", self.runs.len()),
            );
            let _ = reply.send(Err(SvcError::Rejected {
                queue_depth: self.runs.len() as u64,
            }));
            return;
        }
        if self.scheduler.all_workers_dead() {
            // The cache outlives the pool, but a miss cannot compute.
            m.accepted.inc();
            m.failed.inc();
            let _ = reply.send(Err(SvcError::Failed {
                message: "no workers left alive".into(),
            }));
            return;
        }
        m.accepted.inc();
        m.in_flight.add(1);
        m.cache_misses.inc();
        journal::record(
            EventKind::CacheMiss,
            fingerprint,
            0,
            "queued for computation",
        );
        self.runs.insert(
            fingerprint,
            Run {
                started: arrived,
                waiters: vec![reply],
            },
        );
        let chain = ChainSpec {
            lanes: spec.lane_specs(),
            workload: spec.workload,
            scale: spec.scale,
            plan: spec.plan,
            total_fuel: spec.total_fuel,
        };
        self.scheduler.submit(fingerprint, chain);
        self.drain();
    }

    /// Answers the scheduler's outcomes: a finished chain answers its
    /// waiters (and fills the cache), a failed one fails only its own
    /// waiters, and a protocol violation quarantines the worker.
    fn drain(&mut self) {
        while let Some(outcome) = self.scheduler.next_outcome() {
            match outcome {
                Outcome::Done {
                    key, mut report, ..
                } => {
                    // The echoed wire job id is scheduler state, not
                    // report content: zero it so a cached answer is
                    // byte-identical to a fresh recompute of the spec.
                    report.job = 0;
                    self.shared.cache().insert(key, &report);
                    let done = Completion {
                        report,
                        cached: false,
                    };
                    self.finish_run(key, &Ok(done));
                }
                Outcome::Failed { key, cause } => {
                    let message = cause.to_string();
                    self.finish_run(key, &Err(SvcError::Failed { message }));
                }
                Outcome::Violation { worker, .. } => self.scheduler.quarantine(worker),
            }
        }
    }

    /// Answers every waiter of `fp` and removes the run, keeping the
    /// accepted = completed + failed + in_flight invariant.
    fn finish_run(&mut self, fp: u64, reply: &Reply) {
        let Some(run) = self.runs.remove(&fp) else {
            return;
        };
        let n = run.waiters.len() as u64;
        let m = &self.shared.metrics;
        m.in_flight.sub(n);
        match reply {
            Ok(_) => {
                m.completed.add(n);
                m.miss_latency
                    .observe(run.started.elapsed().as_micros() as u64);
            }
            Err(_) => m.failed.add(n),
        }
        for waiter in run.waiters {
            let _ = waiter.send(reply.clone());
        }
    }

    /// A consistent stats snapshot: the monotonic counters read back
    /// out of the metric cells, plus the live values (queue depth,
    /// worker states, dispatch and pool totals, cache evictions) read
    /// from the scheduler and the cache.
    ///
    /// Only this thread moves the cells it decides, so they agree with
    /// each other here. Clients move `cache_hits` and `invalid`
    /// concurrently, one cell per answer; each is read once and added
    /// into every total it belongs to, so both invariants hold in every
    /// snapshot, not only once traffic stops.
    fn snapshot(&self) -> SvcStats {
        let m = &self.shared.metrics;
        let hits = m.cache_hits.get();
        let invalid = m.invalid.get();
        let pool = self.scheduler.stats();
        SvcStats {
            submitted: m.submitted.get() + hits + invalid,
            accepted: m.accepted.get() + hits + invalid,
            rejected: m.rejected.get(),
            completed: m.completed.get() + hits,
            failed: m.failed.get() + invalid,
            in_flight: m.in_flight.get(),
            cache_hits: hits,
            cache_misses: m.cache_misses.get(),
            coalesced: m.coalesced.get(),
            evictions: self.shared.cache().evictions(),
            queue_depth: pool.queue_depth,
            workers_idle: pool.idle,
            workers_busy: pool.busy,
            workers_dead: pool.dead,
            workers_lost: pool.workers_lost,
            workers_respawned: pool.workers_respawned,
            jobs_dispatched: pool.jobs_dispatched,
            handoff_bytes: pool.handoff_bytes,
        }
    }
}

#[cfg(test)]
mod render_compat {
    use super::*;

    /// The pre-telemetry renderer, kept verbatim as the byte-compat
    /// oracle for [`render_metrics`]'s migration onto the shared
    /// `obs::render` line helpers.
    fn legacy_render(stats: &SvcStats) -> String {
        let mut out = String::new();
        let total_lookups = stats.cache_hits + stats.cache_misses;
        let hit_rate = if total_lookups == 0 {
            0.0
        } else {
            stats.cache_hits as f64 / total_lookups as f64
        };
        for (name, value) in [
            ("submitted", stats.submitted),
            ("accepted", stats.accepted),
            ("rejected", stats.rejected),
            ("completed", stats.completed),
            ("failed", stats.failed),
            ("in_flight", stats.in_flight),
            ("cache_hits", stats.cache_hits),
            ("cache_misses", stats.cache_misses),
            ("coalesced", stats.coalesced),
            ("evictions", stats.evictions),
            ("queue_depth", stats.queue_depth),
            ("workers_idle", stats.workers_idle),
            ("workers_busy", stats.workers_busy),
            ("workers_dead", stats.workers_dead),
            ("workers_lost", stats.workers_lost),
            ("workers_respawned", stats.workers_respawned),
            ("jobs_dispatched", stats.jobs_dispatched),
            ("handoff_bytes", stats.handoff_bytes),
        ] {
            out.push_str(&format!("svc_{name} {value}\n"));
        }
        out.push_str(&format!("svc_cache_hit_rate {hit_rate:.3}\n"));
        out
    }

    #[test]
    fn render_metrics_matches_the_legacy_renderer_byte_for_byte() {
        let zero = SvcStats::default();
        assert_eq!(render_metrics(&zero), legacy_render(&zero));
        let busy = SvcStats {
            submitted: 101,
            accepted: 90,
            rejected: 11,
            completed: 70,
            failed: 5,
            in_flight: 15,
            cache_hits: 40,
            cache_misses: 33,
            coalesced: 17,
            evictions: 3,
            queue_depth: 7,
            workers_idle: 1,
            workers_busy: 2,
            workers_dead: 4,
            workers_lost: 6,
            workers_respawned: 2,
            jobs_dispatched: 55,
            handoff_bytes: 123_456,
        };
        assert_eq!(render_metrics(&busy), legacy_render(&busy));
        assert_eq!(
            render_metrics(&busy).lines().count(),
            19,
            "eighteen counters plus the hit-rate ratio"
        );
    }
}

// The socket-pair transport these tests drive is Unix-only; the
// process-spawning production path is covered by the root-level
// `service_cache` / `service_traffic` suites and the `replay_service`
// example.
#[cfg(all(test, unix))]
mod unix_tests {
    use super::*;
    use loopspec_dist::wire::{write_frame, Frame, FrameReader};
    use loopspec_dist::worker::Worker;
    use loopspec_dist::Policy;
    use std::os::unix::net::UnixStream;

    /// A service over `n` worker *threads* connected by Unix socket
    /// pairs — the transport without the process spawn, so the unit
    /// tests stay fast and hermetic.
    fn thread_service(n: usize, config: SvcConfig) -> Service {
        let mut links = Vec::new();
        for _ in 0..n {
            let (ours, theirs) = UnixStream::pair().expect("socketpair");
            links.push(WorkerLink::from_unix(ours).expect("clone"));
            std::thread::spawn(move || {
                let reader = theirs.try_clone().expect("clone");
                let _ = Worker::new().serve(reader, theirs);
            });
        }
        Service::with_links(config, links)
    }

    fn small_spec(workload: &str) -> JobSpec {
        JobSpec::new(workload)
            .policies([Policy::Str])
            .tus([2])
            .total_fuel(200_000)
    }

    fn assert_invariants(s: &SvcStats) {
        assert_eq!(s.submitted, s.accepted + s.rejected, "{s:?}");
        assert_eq!(s.accepted, s.completed + s.failed + s.in_flight, "{s:?}");
    }

    #[test]
    fn repeat_submission_hits_the_cache() {
        let service = thread_service(2, SvcConfig::default());
        let client = service.client();
        let first = client.run(small_spec("compress")).expect("first run");
        let again = client.run(small_spec("compress")).expect("second run");
        assert!(!first.cached, "first submission must compute");
        assert!(again.cached, "repeat submission must hit the cache");
        assert_eq!(first.report, again.report, "cache answers byte-identically");

        // Re-slicing the same study is still the same cache line.
        let resliced = client
            .run(small_spec("compress").plan(loopspec_pipeline::Plan::split(3)))
            .expect("resliced run");
        assert!(resliced.cached, "slicing is excluded from the fingerprint");
        assert_eq!(resliced.report, first.report);

        let stats = service.stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.cache_misses, 1);
        assert_invariants(&stats);
        let text = service.metrics_text();
        assert!(text.contains("svc_cache_hits 2"), "{text}");
        assert!(
            text.starts_with(&render_metrics(&stats)),
            "counter lines precede the appended histograms: {text}"
        );
        assert!(
            text.contains("svc_cache_hit_latency_us_count 2"),
            "hit latency histogram rendered: {text}"
        );
        assert!(
            text.contains("svc_cache_miss_latency_us_count 1"),
            "miss latency histogram rendered: {text}"
        );
        service.shutdown();
        // The cache outlives the service in the client's hands, but a
        // stopped service answers nothing.
        assert_eq!(
            client.run(small_spec("compress")),
            Err(SvcError::Disconnected)
        );
    }

    #[test]
    fn identical_inflight_submissions_coalesce() {
        let service = thread_service(1, SvcConfig::default());
        let client = service.client();
        let a = client.submit(small_spec("compress"));
        let b = client.submit(small_spec("compress"));
        let (a, b) = (a.wait().expect("a"), b.wait().expect("b"));
        assert_eq!(a.report, b.report);
        let stats = service.stats();
        // Depending on timing the second submission either coalesced
        // onto the running computation or hit the freshly filled
        // cache; exactly one worker computation happened either way.
        assert_eq!(stats.cache_misses, 1, "{stats:?}");
        assert_eq!(stats.coalesced + stats.cache_hits, 1, "{stats:?}");
        assert_invariants(&stats);
        service.shutdown();
    }

    #[test]
    fn admission_control_rejects_beyond_the_queue_limit() {
        let service = thread_service(
            1,
            SvcConfig {
                workers: 1,
                queue_limit: 1,
                cache_capacity: 16,
            },
        );
        let client = service.client();
        // Distinct specs so neither coalesces with the other; the
        // second is submitted while the first still occupies the one
        // admission slot.
        let slow = client.submit(small_spec("compress").total_fuel(2_000_000));
        let refused = client.submit(small_spec("go"));
        match refused.wait() {
            Err(SvcError::Rejected { queue_depth }) => assert_eq!(queue_depth, 1),
            other => panic!("expected rejection, got {other:?}"),
        }
        slow.wait().expect("admitted job completes");
        let stats = service.stats();
        assert_eq!(stats.rejected, 1);
        assert_invariants(&stats);
        service.shutdown();
    }

    #[test]
    fn invalid_specs_fail_without_touching_workers() {
        let service = thread_service(1, SvcConfig::default());
        let client = service.client();
        match client.run(JobSpec::new("specmark")) {
            Err(SvcError::Failed { message }) => assert!(message.contains("invalid")),
            other => panic!("expected failure, got {other:?}"),
        }
        let stats = service.stats();
        assert_eq!((stats.failed, stats.jobs_dispatched), (1, 0));
        assert_invariants(&stats);
        service.shutdown();
    }

    #[test]
    fn corrupted_cache_entries_recompute() {
        let service = thread_service(1, SvcConfig::default());
        let client = service.client();
        let spec = small_spec("compress");
        let fingerprint = spec.fingerprint();
        let first = client.run(spec.clone()).expect("first run");
        assert!(service.corrupt_cache_entry(fingerprint));
        let recomputed = client.run(spec.clone()).expect("recompute");
        assert!(!recomputed.cached, "corrupt entry must not serve");
        assert_eq!(recomputed.report, first.report);
        let healed = client.run(spec).expect("healed");
        assert!(healed.cached, "recompute re-fills the cache line");
        let stats = service.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.cache_misses, 2);
        assert_invariants(&stats);
        service.shutdown();
    }

    #[test]
    fn a_wrong_handshake_echo_quarantines_only_that_worker() {
        // Slot 0 echoes the handshake under another worker id; slot 1 is
        // a real worker. The impostor is quarantined, never given a
        // job, and the job completes on the good worker.
        let (bad, theirs) = UnixStream::pair().expect("socketpair");
        let impostor = std::thread::spawn(move || {
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
        let (good, theirs) = UnixStream::pair().expect("socketpair");
        let worker = std::thread::spawn(move || {
            let reader = theirs.try_clone().expect("clone");
            let _ = Worker::new().serve(reader, theirs);
        });
        let links = vec![
            WorkerLink::from_unix(bad).expect("clone"),
            WorkerLink::from_unix(good).expect("clone"),
        ];
        let service = Service::with_links(SvcConfig::default(), links);
        let done = service
            .client()
            .run(small_spec("compress"))
            .expect("the job completes on the good worker");
        assert!(!done.cached);
        // The bad echo may be handled after the job finished.
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        let mut stats = service.stats();
        while stats.workers_lost == 0 && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
            stats = service.stats();
        }
        assert_eq!(stats.workers_lost, 1, "{stats:?}");
        assert_eq!((stats.workers_dead, stats.completed), (1, 1), "{stats:?}");
        assert_invariants(&stats);
        service.shutdown();
        impostor.join().unwrap();
        worker.join().unwrap();
    }

    #[test]
    fn warm_hits_are_answered_while_the_service_thread_is_stalled() {
        use std::io::Read;
        use std::time::Duration;

        // A scripted worker: it answers the first job with a report,
        // then answers the second with a checkpoint far larger than a
        // socket buffer and stops reading, so the service thread blocks
        // writing that checkpoint into the successor job.
        let (ours, theirs) = UnixStream::pair().expect("socketpair");
        let (stalled_tx, stalled) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        let scripted = std::thread::spawn(move || {
            let mut frames = FrameReader::new(theirs.try_clone().expect("clone"));
            let mut writer = theirs.try_clone().expect("clone");
            let Ok(Some(hello)) = frames.read_frame() else {
                panic!("no handshake");
            };
            write_frame(&mut writer, &hello).unwrap();
            let mut next_job = || match frames.read_frame() {
                Ok(Some(Frame::Job(job))) => job.id,
                other => panic!("expected a job, got {other:?}"),
            };
            let report = Report {
                job: next_job(),
                instructions: 7,
                lanes: vec![],
                state: vec![1, 2, 3],
            };
            write_frame(&mut writer, &Frame::Report(report)).unwrap();
            let checkpoint = Frame::Snapshot {
                job: next_job(),
                instructions: 1,
                bytes: vec![0; 8 << 20],
            };
            write_frame(&mut writer, &checkpoint).unwrap();
            // The successor job's first bytes: its writer is now inside
            // a write that cannot finish until this end reads.
            let mut head = [0u8; 4];
            (&theirs).read_exact(&mut head).unwrap();
            stalled_tx.send(()).unwrap();
            let _ = release_rx.recv();
            let _ = std::io::copy(&mut &theirs, &mut std::io::sink());
        });
        let links = vec![WorkerLink::from_unix(ours).expect("clone")];
        let service = Service::with_links(SvcConfig::default(), links);
        let client = service.client();
        let warm = small_spec("compress");
        let first = client.run(warm.clone()).expect("the scripted report");
        assert!(!first.cached);
        let stuck = client.submit(small_spec("go"));
        stalled.recv().expect("the service thread stalls");

        let (tx, rx) = mpsc::channel();
        let hitter = client.clone();
        std::thread::spawn(move || tx.send(hitter.run(warm)));
        let hit = rx.recv_timeout(Duration::from_secs(10));
        // Unstall before asserting, so a failure cannot leave the
        // service's shutdown waiting on the scripted worker.
        drop(release);
        let hit = hit
            .expect("a warm hit needs no service thread")
            .expect("the hit succeeds");
        assert!(hit.cached);
        assert_eq!(hit.report, first.report);
        // Stats are taken on the service thread, so only once it runs.
        let s = service.stats();
        assert_eq!((s.cache_hits, s.cache_misses, s.in_flight), (1, 2, 1));
        assert_invariants(&s);
        service.shutdown();
        assert_eq!(stuck.wait(), Err(SvcError::Disconnected));
        scripted.join().unwrap();
    }

    #[test]
    fn errors_display_their_cause() {
        assert!(SvcError::Rejected { queue_depth: 3 }
            .to_string()
            .contains("admission"));
        assert!(SvcError::Failed {
            message: "poison".into()
        }
        .to_string()
        .contains("poison"));
        assert!(SvcError::Disconnected.to_string().contains("gone"));
    }
}
