//! One function per paper artefact (tables and figures).

use loopspec_core::{Cls, EventCollector, LoopStatsReport, Replacement, TableHitSim, TableKind};
use loopspec_cpu::{Cpu, RunLimits};
use loopspec_dataspec::DataSpecReport;
use loopspec_mt::{AnnotatedTrace, Engine, EngineReport, Policy};
use loopspec_workloads::{PaperRow, Scale, Workload};

use crate::run::WorkloadRun;

/// Table sizes swept in Figure 4.
pub const TABLE_SIZES: [usize; 4] = [2, 4, 8, 16];

/// TU counts swept in Figures 6 and 7.
pub const TU_COUNTS: [usize; 4] = [2, 4, 8, 16];

/// The policy type of the experiments, under its earlier name. Kept
/// because the benchmark crate names its reports with it; it is
/// [`Policy`] itself.
pub type PolicyKind = Policy;

/// The full experiment grid, in report order: every policy of
/// [`Policy::ALL`] at every TU count of [`TU_COUNTS`].
pub fn grid_points() -> impl Iterator<Item = (Policy, usize)> {
    Policy::ALL
        .iter()
        .flat_map(|&p| TU_COUNTS.iter().map(move |&tus| (p, tus)))
}

/// Runs the batch speculation engine — the reference the streaming
/// grid is checked against; the figures themselves read
/// `WorkloadRun::report`. Kept because the benchmark crate calls it.
pub fn run_engine(trace: &AnnotatedTrace, policy: Policy, tus: usize) -> EngineReport {
    Engine::new(trace, policy, tus).run()
}

// ---------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------

/// One Table 1 row: measured loop statistics next to the paper's.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Workload name.
    pub name: &'static str,
    /// Our measurements.
    pub ours: LoopStatsReport,
    /// The paper's SPEC95 values.
    pub paper: PaperRow,
}

/// Reproduces Table 1: loop statistics for every workload.
pub fn table1(runs: &[WorkloadRun]) -> Vec<Table1Row> {
    runs.iter()
        .map(|r| Table1Row {
            name: r.workload.name,
            ours: r.loop_stats(),
            paper: r.workload.paper,
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 4
// ---------------------------------------------------------------------

/// One bar of Figure 4: a table kind and size with the suite-average hit
/// ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig4Point {
    /// LET or LIT.
    pub kind: TableKind,
    /// Number of entries.
    pub entries: usize,
    /// Hit ratio averaged over the workloads (percent).
    pub avg_hit_percent: f64,
}

/// Reproduces Figure 4: average LET and LIT hit ratios for 2–16 entries.
pub fn fig4(runs: &[WorkloadRun]) -> Vec<Fig4Point> {
    fig4_with_replacement(runs, Replacement::Lru)
}

/// Figure 4 under a chosen replacement policy (the §2.3.2 ablation).
pub fn fig4_with_replacement(runs: &[WorkloadRun], replacement: Replacement) -> Vec<Fig4Point> {
    let mut out = Vec::new();
    for kind in [TableKind::Let, TableKind::Lit] {
        for entries in TABLE_SIZES {
            let mut sum = 0.0;
            for r in runs {
                let mut sim = TableHitSim::with_replacement(kind, entries, replacement);
                sim.observe_all(&r.events);
                sum += sim.ratio().percent();
            }
            out.push(Fig4Point {
                kind,
                entries,
                avg_hit_percent: sum / runs.len() as f64,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// Figure 5
// ---------------------------------------------------------------------

/// One pair of Figure 5 bars: ideal-machine TPC on the whole run and on
/// a prefix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig5Row {
    /// Workload name.
    pub name: &'static str,
    /// TPC over all instructions.
    pub tpc_all: f64,
    /// TPC over the prefix (the paper uses the first 10⁹ instructions;
    /// we use the first quarter of the scaled run).
    pub tpc_prefix: f64,
}

/// Fraction of the run used as the Figure 5 "reduced part".
pub const FIG5_PREFIX_FRACTION: f64 = 0.25;

/// Reproduces Figure 5: potential TPC with infinite thread units, read
/// from the two-phase streaming oracle computed by
/// [`WorkloadRun::execute`] — phase 1 (the iteration-count log) rides
/// the shared single pass, phase 2 streams the retained events through
/// unbounded oracle lanes. No trace is materialized.
///
/// # Panics
///
/// Panics if the runs were executed with
/// [`ExecuteOptions::oracle`](crate::run::ExecuteOptions) off.
pub fn fig5(runs: &[WorkloadRun]) -> Vec<Fig5Row> {
    runs.iter()
        .map(|r| Fig5Row {
            name: r.workload.name,
            tpc_all: r.ideal_all().tpc,
            tpc_prefix: r.ideal_prefix().tpc,
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 6
// ---------------------------------------------------------------------

/// One Figure 6 group: per-workload TPC with the STR policy across TU
/// counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig6Row {
    /// Workload name.
    pub name: &'static str,
    /// TPC at 2, 4, 8 and 16 TUs.
    pub tpc: [f64; 4],
}

/// Reproduces Figure 6: STR TPC for every workload and TU count, read
/// from the streaming grid computed during the shared single pass.
pub fn fig6(runs: &[WorkloadRun]) -> Vec<Fig6Row> {
    runs.iter()
        .map(|r| {
            let mut tpc = [0.0; 4];
            for (k, tus) in TU_COUNTS.iter().enumerate() {
                tpc[k] = r.report(Policy::Str, *tus).tpc();
            }
            Fig6Row {
                name: r.workload.name,
                tpc,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 6 by loop shape (generated scenario families)
// ---------------------------------------------------------------------

/// One "Figure 6 by loop shape" row: a generated scenario family's
/// STR TPC across TU counts, averaged over its seed corpus, plus the
/// differential-harness verdict for those seeds.
#[derive(Debug, Clone)]
pub struct GenFig6Row {
    /// Family name (see `loopspec_gen::families`).
    pub family: &'static str,
    /// Seeds swept (`0..seeds`).
    pub seeds: u64,
    /// Seeds that passed the full differential harness.
    pub passed: u64,
    /// Committed instructions across the corpus.
    pub instructions: u64,
    /// Loop events across the corpus.
    pub loop_events: u64,
    /// Corpus-average STR TPC at 2, 4, 8 and 16 TUs.
    pub tpc: [f64; 4],
}

/// The generated-scenario companion to Figure 6: the STR TPC sweep of
/// the paper, broken down *by loop shape* instead of by SPEC program.
/// Every seed is first pushed through the full differential harness
/// (legacy vs decoded, batch vs streaming vs sharded), so a row's TPC
/// numbers are only reported for programs whose reports were proven
/// byte-identical on every execution path.
pub fn gen_fig6(seeds: u64, scale: Scale) -> Vec<GenFig6Row> {
    let size = scale.factor() as u32;
    loopspec_gen::families()
        .iter()
        .map(|family| {
            let verdict = loopspec_gen::run_family(family, seeds, size);
            let mut tpc = [0.0f64; 4];
            for seed in 0..seeds {
                let program = loopspec_gen::compile(&family.generate(seed, size))
                    .expect("family programs compile");
                let mut collector = EventCollector::default();
                Cpu::new()
                    .run(&program, &mut collector, RunLimits::default())
                    .expect("family programs execute");
                let (events, n) = collector.into_parts();
                let trace = AnnotatedTrace::build(&events, n);
                for (k, tus) in TU_COUNTS.iter().enumerate() {
                    tpc[k] += Engine::new(&trace, Policy::Str, *tus).run().tpc() / seeds as f64;
                }
            }
            GenFig6Row {
                family: family.name,
                seeds,
                passed: verdict.passed,
                instructions: verdict.instructions,
                loop_events: verdict.loop_events,
                tpc,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 7
// ---------------------------------------------------------------------

/// One Figure 7 bar group: a policy's suite-average TPC per TU count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig7Row {
    /// The policy.
    pub policy: Policy,
    /// Average TPC at 2, 4, 8 and 16 TUs.
    pub avg_tpc: [f64; 4],
}

/// Reproduces Figure 7: average TPC for IDLE, STR, STR(1..3), read from
/// the streaming grid computed during the shared single pass.
pub fn fig7(runs: &[WorkloadRun]) -> Vec<Fig7Row> {
    Policy::ALL
        .iter()
        .map(|&policy| {
            let mut avg_tpc = [0.0; 4];
            for (k, tus) in TU_COUNTS.iter().enumerate() {
                let sum: f64 = runs.iter().map(|r| r.report(policy, *tus).tpc()).sum();
                avg_tpc[k] = sum / runs.len() as f64;
            }
            Fig7Row { policy, avg_tpc }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------

/// One Table 2 row: STR(3), 4 TUs speculation statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2Row {
    /// Workload name.
    pub name: &'static str,
    /// Control speculations performed.
    pub spec: u64,
    /// Average threads per speculation.
    pub threads_per_spec: f64,
    /// Thread hit ratio (percent).
    pub hit_ratio: f64,
    /// Average committed instructions from spawn to verification/squash.
    pub instr_to_verif: f64,
    /// Threads per cycle.
    pub tpc: f64,
}

/// Reproduces Table 2: STR(3) with 4 TUs, per workload, read from the
/// streaming grid computed during the shared single pass.
pub fn table2(runs: &[WorkloadRun]) -> Vec<Table2Row> {
    runs.iter()
        .map(|r| {
            let report = r.report(Policy::StrNested(3), 4);
            Table2Row {
                name: r.workload.name,
                spec: report.spec.spec_actions,
                threads_per_spec: report.spec.threads_per_spec(),
                hit_ratio: report.spec.hit_ratio_percent(),
                instr_to_verif: report.spec.instr_to_verif(),
                tpc: report.tpc(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 8
// ---------------------------------------------------------------------

/// One Figure 8 row: a workload's data-speculation statistics.
#[derive(Debug, Clone, Copy)]
pub struct Fig8Row {
    /// Workload name.
    pub name: &'static str,
    /// The six percentages of Figure 8.
    pub report: DataSpecReport,
}

/// Reproduces Figure 8: per-workload and suite-average data-speculation
/// predictability.
///
/// # Panics
///
/// Panics if the runs were executed without data-speculation profiling.
pub fn fig8(runs: &[WorkloadRun]) -> (Vec<Fig8Row>, [f64; 6]) {
    let rows: Vec<Fig8Row> = runs
        .iter()
        .map(|r| Fig8Row {
            name: r.workload.name,
            report: r
                .dataspec
                .expect("fig8 requires runs executed with_dataspec"),
        })
        .collect();
    // Average each percentage only over workloads where it is
    // non-vacuous (a workload with no live-in memory contributes nothing
    // to the memory columns).
    let mut avg = [0.0; 6];
    let mut den = [0.0; 6];
    for row in &rows {
        let d = row.report;
        let lm_valid = d.lm_seen > 0;
        let cols = [
            (d.same_path_percent, true),
            (d.lr_pred_percent, d.lr_seen > 0),
            (d.lm_pred_percent, lm_valid),
            (d.all_lr_percent, d.lr_seen > 0),
            (d.all_lm_percent, lm_valid),
            (d.all_data_percent, true),
        ];
        for (slot, (v, valid)) in cols.iter().enumerate() {
            if *valid {
                avg[slot] += v;
                den[slot] += 1.0;
            }
        }
    }
    for slot in 0..6 {
        if den[slot] > 0.0 {
            avg[slot] /= den[slot];
        }
    }
    (rows, avg)
}

// ---------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------

/// CLS-capacity ablation data point (suite averages).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClsAblationPoint {
    /// CLS entries.
    pub capacity: usize,
    /// Total evictions across the suite.
    pub evictions: u64,
    /// Total detected executions across the suite.
    pub executions: u64,
    /// Maximum nesting observed anywhere.
    pub max_nesting: u32,
}

/// CLS capacities swept by [`cls_ablation`].
pub const CLS_CAPACITIES: [usize; 4] = [4, 8, 16, 32];

/// Ablates the CLS capacity (paper §2.2: "a few entries are enough to
/// guarantee no overflow for most programs"). Re-runs detection — the
/// event stream itself depends on the capacity.
pub fn cls_ablation(workloads: &[Workload], scale: Scale) -> Vec<ClsAblationPoint> {
    CLS_CAPACITIES
        .iter()
        .map(|&capacity| {
            let (mut evictions, mut executions, mut max_nesting) = (0u64, 0u64, 0u32);
            for w in workloads {
                let program = w.build(scale).expect("workload assembles");
                let mut c = EventCollector::new(Cls::new(capacity));
                Cpu::new()
                    .run(&program, &mut c, RunLimits::default())
                    .expect("workload runs");
                let (events, n) = c.into_parts();
                let mut stats = loopspec_core::LoopStats::new();
                stats.observe_all(&events);
                let rep = stats.report(n);
                evictions += events
                    .iter()
                    .filter(|e| matches!(e, loopspec_core::LoopEvent::Evicted { .. }))
                    .count() as u64;
                executions += rep.executions;
                max_nesting = max_nesting.max(rep.max_nesting);
            }
            ClsAblationPoint {
                capacity,
                evictions,
                executions,
                max_nesting,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{execute_all, ExecuteOptions};
    use loopspec_workloads::by_name;

    fn small_runs(with_ds: bool) -> Vec<WorkloadRun> {
        let ws: Vec<_> = ["compress", "perl", "swim"]
            .iter()
            .map(|n| by_name(n).unwrap())
            .collect();
        execute_all(
            &ws,
            Scale::Test,
            ExecuteOptions {
                dataspec: with_ds,
                ..ExecuteOptions::default()
            },
        )
    }

    #[test]
    fn bench_and_dist_grids_hold_the_same_points() {
        // The bench grid is policy-major and the wire grid TU-major;
        // both orders are pinned elsewhere, the point sets must agree.
        use std::collections::HashSet;
        let bench: HashSet<(Policy, u32)> = grid_points().map(|(p, tus)| (p, tus as u32)).collect();
        let dist: HashSet<(Policy, u32)> = loopspec_dist::default_lanes()
            .iter()
            .map(|l| (l.policy, l.tus))
            .collect();
        assert_eq!(bench.len(), 20);
        assert_eq!(dist.len(), 20);
        assert_eq!(bench, dist);
    }

    #[test]
    fn table1_rows_pair_measured_and_paper() {
        let rows = table1(&small_runs(false));
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].name, "compress");
        assert!(rows[0].ours.instructions > 0);
        assert_eq!(rows[0].paper.loops, 45);
    }

    #[test]
    fn fig4_larger_tables_hit_at_least_as_often() {
        let runs = small_runs(false);
        let points = fig4(&runs);
        assert_eq!(points.len(), 8);
        for kind in [TableKind::Let, TableKind::Lit] {
            let series: Vec<f64> = points
                .iter()
                .filter(|p| p.kind == kind)
                .map(|p| p.avg_hit_percent)
                .collect();
            for w in series.windows(2) {
                assert!(w[1] >= w[0] - 1e-9, "{kind:?} not monotone: {series:?}");
            }
        }
    }

    #[test]
    fn fig5_prefix_behaves_like_full() {
        let runs = small_runs(false);
        for row in fig5(&runs) {
            assert!(row.tpc_all >= 1.0);
            assert!(row.tpc_prefix >= 1.0);
        }
    }

    #[test]
    fn fig6_tpc_monotone_in_tus() {
        let runs = small_runs(false);
        for row in fig6(&runs) {
            for w in row.tpc.windows(2) {
                assert!(
                    w[1] >= w[0] - 0.05,
                    "{}: TPC should not collapse with more TUs: {:?}",
                    row.name,
                    row.tpc
                );
            }
        }
    }

    #[test]
    fn fig7_produces_all_policies() {
        let runs = small_runs(false);
        let rows = fig7(&runs);
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].policy.name(), "IDLE");
        // Every policy exploits some parallelism at 16 TUs on these
        // loop-heavy workloads.
        for r in &rows {
            assert!(r.avg_tpc[3] > 1.1, "{:?}", r);
        }
    }

    #[test]
    fn table2_hit_ratios_are_percentages() {
        let runs = small_runs(false);
        for row in table2(&runs) {
            assert!(
                (0.0..=100.0).contains(&row.hit_ratio),
                "{}: {row:?}",
                row.name
            );
            assert!(row.tpc >= 1.0 && row.tpc <= 4.0);
        }
    }

    #[test]
    fn fig8_averages_six_percentages() {
        let runs = small_runs(true);
        let (rows, avg) = fig8(&runs);
        assert_eq!(rows.len(), 3);
        for v in avg {
            assert!((0.0..=100.0).contains(&v), "{avg:?}");
        }
    }

    #[test]
    fn gen_fig6_verifies_and_reports_every_family() {
        let rows = gen_fig6(2, Scale::Test);
        assert_eq!(rows.len(), loopspec_gen::families().len());
        for r in &rows {
            assert_eq!(r.passed, r.seeds, "{}: harness failures", r.family);
            assert!(r.instructions > 0);
            for (k, tpc) in r.tpc.iter().enumerate() {
                assert!(
                    *tpc >= 1.0 - 1e-9 && *tpc <= TU_COUNTS[k] as f64 + 1e-9,
                    "{}: TPC {tpc} out of range at {} TUs",
                    r.family,
                    TU_COUNTS[k]
                );
            }
        }
    }

    #[test]
    fn cls_ablation_eviction_free_at_paper_capacity() {
        let ws = vec![by_name("compress").unwrap(), by_name("swim").unwrap()];
        let points = cls_ablation(&ws, Scale::Test);
        let cap16 = points.iter().find(|p| p.capacity == 16).unwrap();
        assert_eq!(
            cap16.evictions, 0,
            "16 entries suffice for shallow workloads"
        );
    }
}
