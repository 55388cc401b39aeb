//! # loopspec-svc — replay as a service
//!
//! The distributed layer made one replay suite cheap to run across a
//! worker pool; this crate makes *many* of them cheap to run
//! **concurrently and repeatedly**. A [`Service`] is a persistent front
//! end over the same shard [`Scheduler`](loopspec_dist::Scheduler) the
//! one-suite coordinator drives, accepting typed
//! [`JobSpec`](loopspec_dist::JobSpec) submissions from any number of
//! clients and answering each with a full report grid. The service
//! adds only what is specific to serving many jobs:
//!
//! * **Content-addressed cache** — reports are stored under the spec's
//!   FNV fingerprint (which deliberately ignores shard slicing: the
//!   bit-identity proof makes slicing report-invariant). A repeated
//!   query is O(1), answered on the caller's thread without waking the
//!   service thread or touching a worker; entries are sealed with
//!   the XXH64 integrity checksum, so a corrupted entry is detected,
//!   evicted, and recomputed — never served.
//! * **Coalescing** — identical jobs submitted while the first is
//!   computing share one computation and all get the same answer.
//! * **Backpressure** — a bounded in-flight limit; beyond it,
//!   submissions are rejected with an explicit retry signal instead of
//!   queueing unboundedly.
//! * **Fault isolation** — the scheduler requeues a dead worker's
//!   shard from its last good snapshot and respawns under the pool's
//!   bounded budget; a failed chain (poison shard, every worker dead)
//!   fails only its own job, a protocol violation quarantines only its
//!   worker, and a fully dead pool still serves cache hits.
//! * **Metrics** — a [`SvcStats`](loopspec_dist::SvcStats) snapshot
//!   and a plain-text exposition endpoint, [`Service::metrics_text`],
//!   both read on the caller's thread.
//!
//! ```no_run
//! use loopspec_dist::JobSpec;
//! use loopspec_svc::{Service, SvcConfig};
//!
//! // In main(), before anything else — spawned workers re-enter this
//! // same binary with `--worker`:
//! loopspec_dist::worker::maybe_serve_stdio();
//!
//! let service = Service::spawn(SvcConfig::default())?;
//! let client = service.client();
//! let first = client.run(JobSpec::new("compress"))?;
//! let again = client.run(JobSpec::new("compress"))?;
//! assert!(!first.cached && again.cached);
//! assert_eq!(first.report, again.report);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod cache;
pub mod service;

pub use cache::ReportCache;
pub use service::{render_metrics, Client, Completion, Service, SvcConfig, SvcError, Ticket};
