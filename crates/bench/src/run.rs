//! Workload execution and artifact caching.
//!
//! Every experiment consumes the same per-workload artifact, produced by
//! **one streaming pass** over the program: a single [`Session`] drives
//! the CPU and the shared CLS detector, and fans the live event stream
//! out to
//!
//! * one [`EngineGrid`] lane per (policy × TU-count) grid point — so
//!   every TPC figure/table reads from reports computed *during*
//!   execution, with the annotation bookkeeping shared across all 20
//!   lanes,
//! * an [`IterationCountLog`] — phase 1 of the two-phase streaming
//!   oracle: per-execution iteration counts for the Figure 5 potential
//!   study, replayed through unbounded-TU oracle lanes in a second
//!   streaming pass over the retained event stream (no
//!   [`AnnotatedTrace`] is materialized),
//! * the live-in profiler (when requested — only Figure 8 needs it),
//! * an [`EventCollector`] that retains the compact event stream for the
//!   replay-style analyses (Table 1 statistics, LET/LIT sweeps, and the
//!   phase-2 oracle replay).
//!
//! Workloads run in parallel on a work-queue sized to the machine.

use std::sync::atomic::{AtomicUsize, Ordering};

use loopspec_core::{EventCollector, LoopEvent, LoopStats, LoopStatsReport};
use loopspec_cpu::RunLimits;
use loopspec_dataspec::{DataSpecReport, LiveInProfiler};
use loopspec_mt::{
    ideal_tpc_streaming, ideal_tpc_with_feed, prefix_split, AnnotatedTrace, EngineGrid,
    EngineReport, IdealReport, IterationCountLog, Policy,
};
use loopspec_pipeline::Session;
use loopspec_workloads::{Scale, Workload};

use crate::experiments::{grid_points, FIG5_PREFIX_FRACTION};

/// One workload's Figure 5 data points, computed by the two-phase
/// streaming oracle (no materialized trace).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IdealPair {
    /// The ideal machine over the whole run.
    pub all: IdealReport,
    /// The ideal machine over the first
    /// [`FIG5_PREFIX_FRACTION`] of the run.
    pub prefix: IdealReport,
}

/// The reusable result of executing one workload once.
#[derive(Debug)]
pub struct WorkloadRun {
    /// Which SPEC95-shaped workload this is.
    pub workload: Workload,
    /// The loop-event stream of the full run.
    pub events: Vec<LoopEvent>,
    /// Committed instructions.
    pub instructions: u64,
    /// Figure 8 statistics, if data-speculation profiling was enabled.
    pub dataspec: Option<DataSpecReport>,
    /// Streaming engine reports for every (policy, TUs) grid point,
    /// computed in the same pass as the event stream.
    reports: Vec<(Policy, usize, EngineReport)>,
    /// Figure 5 ideal-machine reports (two-phase streaming oracle), if
    /// the oracle study was enabled.
    ideal: Option<IdealPair>,
}

/// What a [`WorkloadRun::execute_with`] pass should compute alongside
/// the event stream.
#[derive(Debug, Clone, Copy)]
pub struct ExecuteOptions {
    /// Run the live-in profiler (noticeably more expensive — only
    /// Figure 8 needs it).
    pub dataspec: bool,
    /// Fan out to the full (policy × TU) streaming engine grid. Callers
    /// that only want the event stream (table/detector sweeps) can turn
    /// this off and skip the 20-sink overhead.
    pub engine_grid: bool,
    /// Run the two-phase streaming oracle for the Figure 5 potential
    /// study: an [`IterationCountLog`] rides the main fan-out (phase
    /// 1), then unbounded-TU oracle lanes replay the retained event
    /// stream (phase 2) for the full run and its prefix.
    pub oracle: bool,
}

impl Default for ExecuteOptions {
    /// Engine grid and oracle on, dataspec off — what the figure
    /// harness wants.
    fn default() -> Self {
        ExecuteOptions {
            dataspec: false,
            engine_grid: true,
            oracle: true,
        }
    }
}

impl WorkloadRun {
    /// Executes `workload` at `scale` in a single streaming pass.
    /// `with_dataspec` additionally runs the live-in profiler; the full
    /// engine grid is always computed (see [`WorkloadRun::execute_with`]
    /// to opt out).
    ///
    /// # Panics
    ///
    /// Panics if the workload fails to assemble, run, or halt — these are
    /// suite bugs, not user conditions.
    pub fn execute(workload: Workload, scale: Scale, with_dataspec: bool) -> Self {
        Self::execute_with(
            workload,
            scale,
            ExecuteOptions {
                dataspec: with_dataspec,
                ..ExecuteOptions::default()
            },
        )
    }

    /// Executes `workload` at `scale`, computing exactly the artifacts
    /// `opts` asks for.
    ///
    /// # Panics
    ///
    /// Panics if the workload fails to assemble, run, or halt — these are
    /// suite bugs, not user conditions.
    pub fn execute_with(workload: Workload, scale: Scale, opts: ExecuteOptions) -> Self {
        let program = workload
            .build(scale)
            .unwrap_or_else(|e| panic!("{}: assembly failed: {e}", workload.name));
        let limits = RunLimits {
            max_instrs: 1_000_000_000,
            ..RunLimits::default()
        };

        let mut collector = EventCollector::default();
        // The grid runs as ONE registered sink: a shared-annotation
        // EngineGrid, so the session pays one virtual call per event
        // chunk for all 20 grid points, the annotation bookkeeping runs
        // once instead of per engine, and the per-lane fan-out
        // dispatches statically.
        let points: Vec<(Policy, usize)> = if opts.engine_grid {
            grid_points().collect()
        } else {
            Vec::new()
        };
        let mut grid = EngineGrid::new();
        for &(p, tus) in &points {
            p.add_to_grid(&mut grid, tus);
        }
        let mut profiler = opts.dataspec.then(LiveInProfiler::new);
        // Phase 1 of the two-phase oracle: the count log rides the same
        // fan-out as every other sink.
        let mut count_log = opts.oracle.then(IterationCountLog::new);

        let mut session = Session::new();
        session.observe_loops(&mut collector);
        if !grid.is_empty() {
            session.observe_loops(&mut grid);
        }
        if let Some(log) = count_log.as_mut() {
            session.observe_loops(log);
        }
        if let Some(p) = profiler.as_mut() {
            session.observe_both(p);
        }

        let out = session
            .run(&program, limits)
            .unwrap_or_else(|e| panic!("{}: run failed: {e}", workload.name));
        assert!(out.halted(), "{}: did not halt", workload.name);

        let lane_reports = if grid.is_empty() {
            &[][..]
        } else {
            grid.reports()
                .unwrap_or_else(|| panic!("{}: engine grid did not finish", workload.name))
        };
        let reports = points
            .into_iter()
            .zip(lane_reports.iter())
            .map(|((p, tus), report)| (p, tus, report.clone()))
            .collect();

        let dataspec = profiler.map(|p| p.report());
        let (events, instructions) = collector.into_parts();

        // Phase 2: replay the retained event stream through unbounded
        // oracle lanes. The full run consumes the counts the session
        // already recorded; the prefix study is its own two-phase run
        // over the event prefix (the truncated future differs from the
        // full run's, exactly as the paper's reduced-input bars do).
        let ideal = count_log.map(|log| {
            let feed = log.into_feed();
            let all = ideal_tpc_with_feed(&events, instructions, &feed);
            let (split, cut) = prefix_split(&events, instructions, FIG5_PREFIX_FRACTION);
            let prefix = ideal_tpc_streaming(&events[..split], cut);
            IdealPair { all, prefix }
        });

        WorkloadRun {
            workload,
            events,
            instructions,
            dataspec,
            reports,
            ideal,
        }
    }

    /// The streaming engine report for a (policy, TUs) grid point.
    ///
    /// # Panics
    ///
    /// Panics when the point is outside the precomputed grid
    /// ([`Policy::ALL`] × [`TU_COUNTS`](crate::experiments::TU_COUNTS),
    /// empty when the run was executed with
    /// [`ExecuteOptions::engine_grid`] off).
    pub fn report(&self, policy: Policy, tus: usize) -> &EngineReport {
        self.reports
            .iter()
            .find(|(p, t, _)| *p == policy && *t == tus)
            .map(|(_, _, r)| r)
            .unwrap_or_else(|| panic!("no precomputed report for {policy:?} @ {tus} TUs"))
    }

    /// All precomputed (policy, TUs, report) grid points.
    pub fn reports(&self) -> impl Iterator<Item = (Policy, usize, &EngineReport)> {
        self.reports.iter().map(|(p, t, r)| (*p, *t, r))
    }

    /// Loop statistics (Table 1 row) of this run.
    pub fn loop_stats(&self) -> LoopStatsReport {
        let mut s = LoopStats::new();
        s.observe_all(&self.events);
        s.report(self.instructions)
    }

    /// Figure 5 ideal-machine report over the whole run, from the
    /// two-phase streaming oracle.
    ///
    /// # Panics
    ///
    /// Panics when the run was executed with
    /// [`ExecuteOptions::oracle`] off.
    pub fn ideal_all(&self) -> &IdealReport {
        &self
            .ideal
            .as_ref()
            .expect("run executed without the oracle study")
            .all
    }

    /// Figure 5 ideal-machine report over the first
    /// [`FIG5_PREFIX_FRACTION`] of the run, from the two-phase
    /// streaming oracle.
    ///
    /// # Panics
    ///
    /// Panics when the run was executed with
    /// [`ExecuteOptions::oracle`] off.
    pub fn ideal_prefix(&self) -> &IdealReport {
        &self
            .ideal
            .as_ref()
            .expect("run executed without the oracle study")
            .prefix
    }

    /// Annotated trace for the **legacy** batch engine — kept as the
    /// cross-check reference for equivalence tests and the
    /// `materialized` benchmark groups; no production figure reads it
    /// (the grid and the Figure 5 oracle both stream).
    pub fn annotate(&self) -> AnnotatedTrace {
        AnnotatedTrace::build(&self.events, self.instructions)
    }
}

/// Executes all `workloads` in parallel and returns the runs in the same
/// order, computing the artifacts `opts` asks for (callers that never
/// render Figure 5 or Figure 8 should turn `oracle` / `dataspec` off
/// and skip those passes entirely). A shared work-queue feeds up to
/// `available_parallelism` worker threads, so an 18-workload batch
/// saturates the machine without spawning 18 threads on a 4-core box.
pub fn execute_all(workloads: &[Workload], scale: Scale, opts: ExecuteOptions) -> Vec<WorkloadRun> {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(1, workloads.len().max(1));
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<WorkloadRun>> = Vec::new();
    results.resize_with(workloads.len(), || None);

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(w) = workloads.get(i) else { break };
                        local.push((i, WorkloadRun::execute_with(*w, scale, opts)));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            for (i, run) in h.join().expect("workload worker panicked") {
                results[i] = Some(run);
            }
        }
    });

    results
        .into_iter()
        .map(|r| r.expect("work queue covered every index"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{run_engine, TU_COUNTS};
    use loopspec_workloads::by_name;

    #[test]
    fn execute_produces_consistent_artifacts() {
        let run = WorkloadRun::execute(by_name("compress").unwrap(), Scale::Test, false);
        assert!(run.instructions > 10_000);
        assert!(!run.events.is_empty());
        assert!(run.dataspec.is_none());
        let stats = run.loop_stats();
        assert_eq!(stats.instructions, run.instructions);
        let trace = run.annotate();
        assert_eq!(trace.instructions, run.instructions);
        assert_eq!(run.ideal_all().instructions, run.instructions);
        assert!(run.ideal_prefix().instructions < run.instructions);
    }

    #[test]
    fn streaming_grid_matches_batch_replay() {
        // The precomputed single-pass reports must be identical to what
        // the batch engine derives from the collected events.
        let run = WorkloadRun::execute(by_name("li").unwrap(), Scale::Test, false);
        let trace = run.annotate();
        let mut checked = 0;
        for (policy, tus, streamed) in run.reports() {
            assert_eq!(
                streamed,
                &run_engine(&trace, policy, tus),
                "{policy:?} @ {tus}"
            );
            checked += 1;
        }
        assert_eq!(checked, Policy::ALL.len() * TU_COUNTS.len());
    }

    #[test]
    fn dataspec_flag_populates_report() {
        let run = WorkloadRun::execute(by_name("perl").unwrap(), Scale::Test, true);
        let ds = run.dataspec.expect("requested dataspec");
        assert!(ds.iterations > 0);
    }

    #[test]
    fn two_phase_ideal_matches_the_legacy_materialized_path() {
        use crate::experiments::FIG5_PREFIX_FRACTION;
        use loopspec_core::LoopEvent;
        use loopspec_mt::ideal_tpc;

        let run = WorkloadRun::execute(by_name("swim").unwrap(), Scale::Test, false);
        // Full run: the streaming pair must equal the batch oracle on
        // the materialized trace.
        assert_eq!(*run.ideal_all(), ideal_tpc(&run.annotate()));
        // Prefix: same comparison against an annotated event prefix.
        let cut = (run.instructions as f64 * FIG5_PREFIX_FRACTION) as u64;
        let prefix: Vec<LoopEvent> = run
            .events
            .iter()
            .filter(|e| e.pos() <= cut)
            .copied()
            .collect();
        let legacy = ideal_tpc(&loopspec_mt::AnnotatedTrace::build(&prefix, cut));
        assert_eq!(*run.ideal_prefix(), legacy);
        assert!(run.ideal_prefix().instructions < run.ideal_all().instructions);
    }

    #[test]
    #[should_panic(expected = "without the oracle study")]
    fn ideal_reports_require_the_oracle_option() {
        let run = WorkloadRun::execute_with(
            by_name("compress").unwrap(),
            Scale::Test,
            ExecuteOptions {
                oracle: false,
                engine_grid: false,
                ..ExecuteOptions::default()
            },
        );
        let _ = run.ideal_all();
    }

    #[test]
    fn parallel_execution_preserves_order() {
        let ws: Vec<_> = ["gcc", "li"].iter().map(|n| by_name(n).unwrap()).collect();
        let runs = execute_all(&ws, Scale::Test, ExecuteOptions::default());
        assert_eq!(runs[0].workload.name, "gcc");
        assert_eq!(runs[1].workload.name, "li");
    }

    #[test]
    #[should_panic(expected = "no precomputed report")]
    fn off_grid_report_panics() {
        let run = WorkloadRun::execute(by_name("compress").unwrap(), Scale::Test, false);
        let _ = run.report(Policy::Str, 3);
    }

    #[test]
    fn grid_can_be_disabled() {
        let run = WorkloadRun::execute_with(
            by_name("compress").unwrap(),
            Scale::Test,
            ExecuteOptions {
                engine_grid: false,
                ..ExecuteOptions::default()
            },
        );
        assert_eq!(run.reports().count(), 0);
        assert!(!run.events.is_empty(), "event stream still collected");
    }
}
