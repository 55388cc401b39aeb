//! # loopspec-obs — zero-dependency telemetry
//!
//! The measurement substrate for every other crate in the workspace: a
//! [`Registry`] of named counters, gauges and log2-bucketed histograms
//! (lock-free `AtomicU64` fast paths behind cheap cloneable handles), a
//! lightweight span API ([`span!`] → monotonic-clock start/stop
//! aggregated into per-span count/total/max), and a bounded structured
//! [event journal](journal) (a ring buffer of typed records — worker
//! lifecycle, cache traffic, admission decisions — each stamped with a
//! job fingerprint and shard index, dumpable as JSON lines).
//!
//! Telemetry is strictly **out-of-band**: nothing here ever feeds back
//! into simulation state, snapshots, or report fingerprints, so an
//! instrumented run is byte-identical to a telemetry-disabled one.
//! Recording is process-wide on by default; [`set_enabled`] turns the
//! span clock and the journal into no-ops while counters stay at their
//! (already ~1 ns) unconditional atomic adds.
//!
//! ```
//! use loopspec_obs as obs;
//!
//! let delivered = obs::counter("chunks_delivered");
//! delivered.add(3);
//! {
//!     let _guard = obs::span!("doc.example");
//!     // ... timed work ...
//! }
//! let text = obs::global().render_text();
//! assert!(text.contains("chunks_delivered"));
//! ```
//!
//! Exports come three ways: a Prometheus-style text rendering
//! ([`Registry::render_text`], with [`render`] helpers so other crates
//! can emit byte-stable custom lines), a JSON snapshot
//! ([`Registry::snapshot_json`]), and the journal dump
//! ([`journal::lines`] / [`journal::dump_to`]).

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod journal;
pub mod registry;
pub mod render;
pub mod span;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

pub use journal::EventKind;
pub use registry::{Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, Registry};
pub use span::{SpanGuard, SpanStat};

/// The process-wide enabled flag. It publishes no other data, so
/// relaxed loads and stores suffice.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether span timing and journal recording are active (on until
/// [`set_enabled`] turns them off). Counter/gauge/histogram writes are
/// *not* gated — they are single relaxed atomic adds and never
/// influence outputs.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span timing and journal recording on or off process-wide.
/// Counters keep counting either way; disabling only removes the clock
/// reads and journal pushes (the equivalence tests run both ways and
/// require byte-identical simulation output — which holds by
/// construction, because telemetry never feeds back).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-wide registry every layer records into. Scoped
/// registries (e.g. one per service instance) can be created with
/// [`Registry::new`]; the global one exists so hot layers don't have to
/// thread a handle through every call.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// A counter handle from the [`global`] registry (registered on first
/// use; subsequent calls with the same name return a handle to the same
/// cell).
pub fn counter(name: &str) -> Counter {
    global().counter(name)
}

/// A gauge handle from the [`global`] registry.
pub fn gauge(name: &str) -> Gauge {
    global().gauge(name)
}

/// A histogram handle from the [`global`] registry.
pub fn histogram(name: &str) -> Histogram {
    global().histogram(name)
}

/// Well-known metric names shared across crates.
///
/// Most counters are named ad hoc at their single recording site;
/// these constants exist for names that are *read* elsewhere — smoke
/// scripts grep them out of `--metrics` output, so recording sites and
/// consumers must agree on the exact spelling.
pub mod names {
    /// Native kernel dispatches: one per `KernelCall` entered fresh
    /// (resuming a parked mid-body kernel does not re-count).
    pub const CPU_KERNEL_CALLS: &str = "cpu_kernel_calls";
    /// Kernel-body instructions retired through native dispatch (these
    /// also count toward the ordinary retired-instruction totals).
    pub const CPU_KERNEL_INSTRS: &str = "cpu_kernel_instrs";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_handles_share_cells() {
        let a = counter("lib_test_counter");
        let b = counter("lib_test_counter");
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(b.get(), 3);
    }

    #[test]
    fn enable_toggle_round_trips() {
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
    }
}
