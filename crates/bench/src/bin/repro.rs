//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [EXPERIMENT ...] [--scale test|small|full] [--metrics]
//!
//! EXPERIMENT: table1 fig4 fig5 fig6 genfig6 fig7 table2 fig8 ablation all
//! ```
//!
//! `--metrics` appends the process-wide telemetry registry (counters,
//! histograms, span aggregates) as exposition text plus a one-line
//! JSON snapshot after the experiment output.

use std::process::ExitCode;
use std::time::Instant;

use loopspec_bench::experiments::{self, cls_ablation};
use loopspec_bench::report;
use loopspec_bench::run::{execute_all, ExecuteOptions, WorkloadRun};
use loopspec_core::Replacement;
use loopspec_workloads::{all, Scale};

const USAGE: &str =
    "usage: repro [table1|fig4|fig5|fig6|genfig6|fig7|table2|fig8|ablation|all ...] \
                     [--scale test|small|full|huge] [--workload NAME ...] [--metrics]";

const ALL_EXPERIMENTS: [&str; 9] = [
    "table1", "fig4", "fig5", "fig6", "genfig6", "fig7", "table2", "fig8", "ablation",
];

/// Seeds per generated family in the `genfig6` sweep.
const GEN_SEEDS: u64 = 4;

fn main() -> ExitCode {
    let mut scale = Scale::Full;
    let mut metrics = false;
    let mut wanted: Vec<String> = Vec::new();
    let mut only: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--metrics" => metrics = true,
            "--scale" => {
                let Some(v) = args.next() else {
                    eprintln!("{USAGE}");
                    return ExitCode::FAILURE;
                };
                scale = match v.as_str() {
                    "test" => Scale::Test,
                    "small" => Scale::Small,
                    "full" => Scale::Full,
                    "huge" => Scale::Huge,
                    other => {
                        eprintln!("unknown scale `{other}`\n{USAGE}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--workload" => {
                let Some(v) = args.next() else {
                    eprintln!("{USAGE}");
                    return ExitCode::FAILURE;
                };
                only.push(v);
            }
            "all" => wanted.extend(ALL_EXPERIMENTS.iter().map(|s| s.to_string())),
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            exp if ALL_EXPERIMENTS.contains(&exp) => wanted.push(exp.to_string()),
            other => {
                eprintln!("unknown experiment `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    if wanted.is_empty() {
        wanted.extend(ALL_EXPERIMENTS.iter().map(|s| s.to_string()));
    }
    wanted.dedup();

    // `--workload` narrows the suite; names may be the 18 SPEC95
    // selectors or `kern:<kernel>` native drivers (the usual pick for
    // `--scale huge`, where the interpreted suite would take minutes
    // per workload).
    let workloads = if only.is_empty() {
        all()
    } else {
        let mut picked = Vec::with_capacity(only.len());
        for name in &only {
            let w = loopspec_workloads::by_name(name)
                .or_else(|| loopspec_workloads::native::workload_by_name(name));
            match w {
                Some(w) => picked.push(w),
                None => {
                    eprintln!("unknown workload `{name}`\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            }
        }
        picked
    };
    let need_dataspec = wanted.iter().any(|w| w == "fig8");
    let need_oracle = wanted.iter().any(|w| w == "fig5");

    eprintln!(
        "repro: executing {} workloads at {scale:?} scale \
         (dataspec: {need_dataspec}, oracle: {need_oracle}) ...",
        workloads.len(),
    );
    let t0 = Instant::now();
    let runs: Vec<WorkloadRun> = execute_all(
        &workloads,
        scale,
        ExecuteOptions {
            dataspec: need_dataspec,
            oracle: need_oracle,
            ..ExecuteOptions::default()
        },
    );
    let elapsed = t0.elapsed().as_secs_f64();
    let total: u64 = runs.iter().map(|r| r.instructions).sum();
    eprintln!(
        "repro: {total} instructions across the suite in {elapsed:.1}s \
         ({:.2} M retired instrs/sec)\n",
        total as f64 / elapsed.max(1e-9) / 1e6
    );

    for exp in &wanted {
        let t = Instant::now();
        let text = match exp.as_str() {
            "table1" => report::render_table1(&experiments::table1(&runs)),
            "fig4" => report::render_fig4(&experiments::fig4(&runs)),
            "fig5" => report::render_fig5(&experiments::fig5(&runs)),
            "fig6" => report::render_fig6(&experiments::fig6(&runs)),
            "genfig6" => report::render_gen_fig6(&experiments::gen_fig6(GEN_SEEDS, scale)),
            "fig7" => report::render_fig7(&experiments::fig7(&runs)),
            "table2" => report::render_table2(&experiments::table2(&runs)),
            "fig8" => {
                let (rows, avg) = experiments::fig8(&runs);
                report::render_fig8(&rows, &avg)
            }
            "ablation" => {
                let mut s = report::render_cls_ablation(&cls_ablation(&workloads, Scale::Test));
                s.push('\n');
                s.push_str("Ablation: LET/LIT replacement (paper §2.3.2, LRU vs nest-inhibit)\n");
                let lru = experiments::fig4(&runs);
                let nest = experiments::fig4_with_replacement(&runs, Replacement::NestInhibit);
                let mut t = report::TextTable::new(["table", "entries", "LRU %", "nest-inhibit %"]);
                for (a, b) in lru.iter().zip(nest.iter()) {
                    t.row([
                        format!("{:?}", a.kind),
                        a.entries.to_string(),
                        format!("{:.2}", a.avg_hit_percent),
                        format!("{:.2}", b.avg_hit_percent),
                    ]);
                }
                s.push_str(&t.render());
                s
            }
            _ => unreachable!("validated above"),
        };
        println!("{text}");
        eprintln!("({exp} in {:.1}s)\n", t.elapsed().as_secs_f64());
    }

    if metrics {
        // Everything the suite's pipeline runs recorded out-of-band:
        // CPU front-end counters, chunk fan-out, span aggregates.
        println!("== metrics ==");
        print!("{}", loopspec_obs::global().render_text());
        println!("== metrics json ==");
        println!("{}", loopspec_obs::global().snapshot_json());
    }
    ExitCode::SUCCESS
}
