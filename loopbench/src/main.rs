//! `loopbench` — the loopspec benchmark.
//!
//! ```text
//! loopbench --workload NAME --seed N --seconds S --trace 0|1
//! loopbench --workload all  [--seed N] [--seconds S]
//! ```
//!
//! Runs one workload for about `S` seconds of measured time, checks
//! every output, prints each metric with its unit and, as the last
//! line, one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! is the separate traced run that reports the per-layer ladder. See
//! `README.md` beside this crate for the workloads and metrics.

mod common;
mod fidelity;
mod kernel_stream;
mod ladder;
mod long_shard;
mod stats;
mod suite_full;
mod svc_mix;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use common::{Ctx, EndToEnd, Outcome};
use trace::Trace;

const WORKLOADS: [&str; 4] = ["suite-full", "svc-mix", "long-shard", "kernel-stream"];
const USAGE: &str = "usage: loopbench --workload suite-full|svc-mix|long-shard|kernel-stream|all \
                     --seed N --seconds S --trace 0|1";

fn parse() -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut ctx = Ctx {
        seconds: 10.0,
        seed: 1,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => ctx.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                ctx.seconds = value.parse().map_err(|_| bad("duration"))?;
                if !(ctx.seconds > 0.0 && ctx.seconds <= 600.0) {
                    return Err(bad("duration"));
                }
            }
            "--trace" => {
                ctx.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok((workload, ctx))
}

fn main() -> ExitCode {
    // Worker processes of the dist and svc workloads re-enter here.
    loopspec_dist::worker::maybe_serve_stdio();
    let (workload, ctx) = match parse() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("loopbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if workload == "all" {
        return run_all(&ctx);
    }
    let mut out = Outcome::default();
    match workload.as_str() {
        "suite-full" => suite_full::run(&ctx, &mut out),
        "svc-mix" => svc_mix::run(&ctx, &mut out),
        "long-shard" => long_shard::run(&ctx, &mut out),
        _ => kernel_stream::run(&ctx, &mut out),
    }
    if ctx.trace {
        guard_exact_counts(&workload, &mut out);
    }
    print_result(&workload, &out);
    ExitCode::SUCCESS
}

/// Runs every workload in its own process, one after the other.
fn run_all(ctx: &Ctx) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable");
    let mut ok = true;
    for w in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w, "--seed", &ctx.seed.to_string()])
            .args(["--seconds", &ctx.seconds.to_string()])
            .args(["--trace", if ctx.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_result(workload: &str, out: &Outcome) {
    let mut failed = out.failed;
    println!("== {workload} ==");
    for line in &out.notes {
        println!("{line}");
    }
    println!(
        "error_rate = {:.6} ({} of {} operations failed)",
        out.error_rate(),
        out.failed,
        out.attempted
    );
    let mut json = String::new();
    for (name, value, unit) in &out.metrics {
        println!("{name} = {value} {unit}");
        if !stats::valid_metric_name(name) || !value.is_finite() {
            println!("CHECK FAILED: metric {name} is invalid ({value})");
            failed += 1;
            continue;
        }
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        failed == 0,
        out.attempted.max(1),
    );
}

/// Where traces go: beside the build output.
fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("own executable");
    let target = exe
        .parent()
        .and_then(|p| p.parent())
        .map_or_else(|| PathBuf::from("."), PathBuf::from);
    target.join("loopbench-out")
}

/// Writes the run's spans, one JSON object per line.
pub fn write_trace(ctx: &Ctx, workload: &str, trace: &Trace, out: &mut Outcome) {
    let dir = out_dir();
    let path = dir.join(format!("trace-{workload}-{}.jsonl", ctx.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, trace.to_json_lines()))
    {
        Ok(()) => out.note(format!(
            "{} spans written to {}",
            trace.spans().len(),
            path.display()
        )),
        Err(e) => out.note(format!("could not write {}: {e}", path.display())),
    }
}

/// States the traced window next to the untraced one, and the tracing
/// overhead: spans recorded times the measured cost of one span.
pub fn report_tracing(untraced: &EndToEnd, traced: &EndToEnd, trace: &Trace, out: &mut Outcome) {
    let rate = |e: &EndToEnd| e.instructions as f64 / e.busy_s.max(1e-9);
    let spans = trace.spans().len() as f64;
    let overhead_s = spans * trace::span_cost_ns() / 1e9;
    out.note(format!(
        "untraced window: {:.4e} instr/s, {} jobs in {:.3} s",
        rate(untraced),
        untraced.jobs,
        untraced.busy_s
    ));
    out.note(format!(
        "traced window:   {:.4e} instr/s, {} jobs in {:.3} s ({:+.2} % vs untraced)",
        rate(traced),
        traced.jobs,
        traced.busy_s,
        (rate(traced) / rate(untraced).max(1e-9) - 1.0) * 100.0
    ));
    out.note(format!(
        "tracing overhead: {spans} spans x {:.0} ns = {:.3} ms ({:.4} % of the traced window)",
        overhead_s * 1e9 / spans.max(1.0),
        overhead_s * 1e3,
        overhead_s / traced.busy_s.max(1e-9) * 100.0
    ));
}

/// The exact simulated counts every traced run must reproduce, as
/// `<workload> <metric>=<value>` lines. They do not depend on the seed.
/// A change that moves one of them changes what is simulated, and must
/// update the file on purpose.
const EXPECTED_COUNTS: &str = include_str!("../expected_counts.txt");

/// This run's exact counts, as lines of [`EXPECTED_COUNTS`].
fn count_lines(workload: &str, out: &Outcome) -> Vec<String> {
    out.metrics
        .iter()
        .filter(|(name, _, _)| ladder::EXACT.contains(&name.as_str()))
        .map(|(name, value, _)| format!("{workload} {name}={value:?}"))
        .collect()
}

/// The lines of [`EXPECTED_COUNTS`] that belong to `workload`.
fn expected_lines(workload: &str) -> Vec<&'static str> {
    EXPECTED_COUNTS
        .lines()
        .filter(|l| l.split_whitespace().next() == Some(workload))
        .collect()
}

/// Fails the run when its exact simulated counts differ from the
/// checked-in expectation.
fn guard_exact_counts(workload: &str, out: &mut Outcome) {
    let got = count_lines(workload, out);
    let want = expected_lines(workload);
    out.check(got == want, || {
        format!(
            "exact counts differ from expected_counts.txt; this run's lines:\n{}",
            got.join("\n")
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_counts_cover_every_workload_and_count() {
        for w in WORKLOADS {
            let names: Vec<&str> = expected_lines(w)
                .iter()
                .map(|l| l.split_whitespace().nth(1).unwrap().split('=').next().unwrap())
                .collect();
            assert_eq!(names, ladder::EXACT, "{w}");
        }
    }
}
