//! Fidelity scoring against the paper's reference values
//! (`loopspec_bench::paper`).

use loopspec_bench::experiments::{self, Fig6Row, Table2Row, TU_COUNTS};
use loopspec_bench::paper::{STR_AVG_TPC, TABLE2};
use loopspec_bench::run::{execute_all, ExecuteOptions};
use loopspec_workloads::Scale;

use crate::common::Outcome;
use crate::stats::mean_log_error;

/// Scores Figure 6 (STR suite-average TPC per TU count) and Table 2
/// (threads/spec, hit ratio and TPC per program; `#spec` scales with
/// run length and is left out), emitting `fidelity.*` and the ratios
/// behind each number.
fn emit(fig6: &[Fig6Row], table2: &[Table2Row], label: &str, out: &mut Outcome) {
    let mut pairs = Vec::new();
    let mut line = format!("fidelity ({label}) Fig 6 STR avg ours/paper:");
    for (k, &(tus, paper)) in STR_AVG_TPC.iter().enumerate() {
        debug_assert_eq!(TU_COUNTS[k], tus);
        let ours = fig6.iter().map(|r| r.tpc[k]).sum::<f64>() / fig6.len().max(1) as f64;
        pairs.push((ours, paper));
        line.push_str(&format!(" {tus}TU {ours:.2}/{paper:.2}"));
    }
    out.note(line);
    out.metric(
        "fidelity.fig6_logerr",
        mean_log_error(&pairs).unwrap_or(0.0),
        "ln",
    );

    let mut pairs = Vec::new();
    out.note(format!(
        "fidelity ({label}) Table 2 ours/paper: program thr/spec hit% TPC"
    ));
    for row in table2 {
        let Some(paper) = TABLE2.iter().find(|p| p.name == row.name) else {
            continue;
        };
        let three = [
            (row.threads_per_spec, paper.threads_per_spec),
            (row.hit_ratio, paper.hit_ratio),
            (row.tpc, paper.tpc),
        ];
        out.note(format!(
            "  {:>8} {:.2}/{:.2} {:.1}/{:.1} {:.2}/{:.2}",
            row.name, three[0].0, three[0].1, three[1].0, three[1].1, three[2].0, three[2].1
        ));
        pairs.extend(three);
    }
    out.metric(
        "fidelity.table2_logerr",
        mean_log_error(&pairs).unwrap_or(0.0),
        "ln",
    );
}

/// Scores an untimed production pass of the 18 paper programs at
/// `scale` (20-lane grid, no oracle) — run after a workload's window.
pub fn emit_suite(scale: Scale, out: &mut Outcome) {
    let runs = execute_all(
        &loopspec_workloads::all(),
        scale,
        ExecuteOptions {
            oracle: false,
            ..ExecuteOptions::default()
        },
    );
    emit(
        &experiments::fig6(&runs),
        &experiments::table2(&runs),
        &format!("paper suite, {scale:?} scale"),
        out,
    );
}
