//! `suite-full`: the artifact pass behind `repro fig5 fig6 fig7 table2`
//! — every paper program through the 20-lane grid and the phase-2
//! oracle, dataspec off, on the two-thread `execute_all` work queue —
//! checked against the legacy interpreter with the batch engine and
//! `ideal_tpc`.
//!
//! The window runs at `Scale::Test` (a pass takes ~0.4 s): a Full-scale
//! pass takes 7–10 s, so a 20 s window would hold only two or three
//! repetitions per program, too few to see past the host's slow
//! phases. Fidelity is still scored on a Full-scale pass, after the
//! window.

use std::time::Instant;

use loopspec_bench::experiments::{self, run_engine, PolicyKind, FIG5_PREFIX_FRACTION};
use loopspec_bench::report;
use loopspec_bench::run::{ExecuteOptions, WorkloadRun};
use loopspec_core::{EventCollector, LoopEvent};
use loopspec_cpu::{Cpu, DecodedProgram, RunLimits};
use loopspec_mt::{ideal_tpc, AnnotatedTrace, EngineReport};
use loopspec_workloads::{Scale, Workload};

use crate::common::{par_map, peak_rss_mb, repeated_setup, Ctx, EndToEnd, Outcome};
use crate::fidelity;
use crate::ladder::{self, Rungs};
use crate::trace::Trace;

const SCALE: Scale = Scale::Test;

/// What one program's artifact pass must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
struct Answer {
    instructions: u64,
    reports: Vec<(PolicyKind, usize, EngineReport)>,
    ideal: (loopspec_mt::IdealReport, loopspec_mt::IdealReport),
}

impl Answer {
    fn of(run: &WorkloadRun) -> Self {
        Answer {
            instructions: run.instructions,
            reports: run.reports().map(|(p, t, r)| (p, t, r.clone())).collect(),
            ideal: (*run.ideal_all(), *run.ideal_prefix()),
        }
    }
}

/// One experiment (fig5, fig6, fig7 or table2) answered and rendered
/// from retained artifacts, as `repro` does after its pass.
fn answer(k: usize, runs: &[WorkloadRun]) -> String {
    match k % 4 {
        0 => report::render_fig5(&experiments::fig5(runs)),
        1 => report::render_fig6(&experiments::fig6(runs)),
        2 => report::render_fig7(&experiments::fig7(runs)),
        _ => report::render_table2(&experiments::table2(runs)),
    }
}

/// One pass over the suite on the `execute_all` work queue, timing
/// each program. After each program a client also answers the four
/// experiments from `retained` (the previous pass's artifacts), so the
/// answers are sampled across the whole window. Returns the runs in
/// suite order with their latencies, and the answer latencies.
fn pass(
    suite: &[Workload],
    retained: &[WorkloadRun],
    trace: &mut Trace,
) -> (Vec<(WorkloadRun, f64)>, Vec<f64>) {
    let (epoch, traced) = (trace.epoch(), trace.enabled());
    let done = par_map(suite, |w| {
        let mut t = Trace::with_epoch(traced, epoch);
        let (run, ns) = t.timed("bench::WorkloadRun::execute_with", |_| {
            WorkloadRun::execute_with(*w, SCALE, ExecuteOptions::default())
        });
        let hits: Vec<f64> = (0..4)
            .filter(|_| !retained.is_empty())
            .map(|k| {
                let (text, ns) = t.timed("bench::experiments+report", |_| answer(k, retained));
                std::hint::black_box(text);
                ns / 1e9
            })
            .collect();
        ((run, ns / 1e9), hits, t)
    });
    let (mut runs, mut hits) = (Vec::new(), Vec::new());
    for (run, h, t) in done {
        trace.absorb(t);
        runs.push(run);
        hits.extend(h);
    }
    (runs, hits)
}

/// The named oracles for one program (built and decoded here): the
/// legacy interpreter into a collector, the batch engine per grid
/// point, `ideal_tpc` over the whole trace and over the Figure 5
/// prefix.
fn oracle(w: Workload) -> Answer {
    let program = w.build(SCALE).expect("suite programs assemble");
    std::hint::black_box(DecodedProgram::new(&program));
    let mut collector = EventCollector::default();
    Cpu::new()
        .run(&program, &mut collector, RunLimits::default())
        .expect("suite programs run");
    let (events, n) = collector.into_parts();
    let trace = AnnotatedTrace::build(&events, n);
    let reports = experiments::grid_points()
        .map(|(p, tus)| (p, tus, run_engine(&trace, p, tus)))
        .collect();
    let cut = (n as f64 * FIG5_PREFIX_FRACTION) as u64;
    let prefix: Vec<LoopEvent> = events.iter().filter(|e| e.pos() <= cut).copied().collect();
    let ideal = (
        ideal_tpc(&trace),
        ideal_tpc(&AnnotatedTrace::build(&prefix, cut)),
    );
    Answer {
        instructions: n,
        reports,
        ideal,
    }
}

/// Runs passes until the window is used (at least two, so the second
/// can answer from the first's artifacts), returning the first pass's
/// answers.
fn measure(
    seconds: f64,
    suite: &[Workload],
    trace: &mut Trace,
    e2e: &mut EndToEnd,
    out: &mut Outcome,
) -> Vec<Answer> {
    let mut first: Option<Vec<Answer>> = None;
    let mut retained: Vec<WorkloadRun> = Vec::new();
    let mut passes = 0;
    let mut last_pass = 0.0;
    while passes < 2 || e2e.busy_s + last_pass <= seconds {
        let t = Instant::now();
        let (timed, hits) = pass(suite, &retained, trace);
        last_pass = t.elapsed().as_secs_f64();
        e2e.busy_s += last_pass;
        passes += 1;
        let runs: Vec<WorkloadRun> = timed
            .into_iter()
            .map(|(run, lat)| {
                e2e.job(run.workload.name, run.instructions, lat);
                run
            })
            .collect();
        let instructions = runs.iter().map(|r| r.instructions).sum();
        e2e.pass(instructions, runs.len() as u64, last_pass, &hits);
        let answers: Vec<Answer> = runs.iter().map(Answer::of).collect();
        match &first {
            None => first = Some(answers),
            Some(f) => {
                for (a, b) in answers.iter().zip(f) {
                    out.check(a == b, || "a later pass answered differently".into());
                }
            }
        }
        // The experiments read reports only; the event streams go.
        retained = runs;
        for run in &mut retained {
            run.events = Vec::new();
        }
    }
    first.expect("at least one pass")
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let suite = loopspec_workloads::all();
    let mut e2e = EndToEnd::default();
    // Set-up: build and decode every program and its reference outputs.
    let setup = || par_map(&suite, |w| oracle(*w));
    let (references, times) = repeated_setup(setup);
    e2e.setup = times;

    let window = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let answers = measure(window, &suite, &mut Trace::new(false), &mut e2e, out);
    e2e.peak_rss_mb = peak_rss_mb();
    e2e.setup.extend(repeated_setup(setup).1);
    for (w, (got, want)) in suite.iter().zip(answers.iter().zip(&references)) {
        out.check(got == want, || {
            format!("{}: artifacts differ from the oracles", w.name)
        });
    }

    if ctx.trace {
        let mut traced = EndToEnd::default();
        let mut trace = Trace::new(true);
        measure(window, &suite, &mut trace, &mut traced, out);
        crate::report_tracing(&e2e, &traced, &trace, out);
        let rungs = Rungs {
            programs: ["compress", "go", "swim"]
                .iter()
                .map(|n| (n.to_string(), Scale::Full))
                .collect(),
            grid: true,
            oracle: true,
            dist: false,
            svc: false,
            kernel: false,
        };
        ladder::run(&rungs, &mut trace, None, out);
        crate::write_trace(ctx, "suite-full", &trace, out);
    } else {
        e2e.emit(out);
        fidelity::emit_suite(Scale::Full, out);
    }
}
