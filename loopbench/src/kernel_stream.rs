//! `kernel-stream`: the four `kern:*` native-kernel drivers streamed
//! through a `Session` (the CLS plus one STR/4-TU lane), cycling in a
//! seeded order. Each report must equal the reference: the legacy
//! interpreter with the independent `interp` kernel implementation into
//! a collector, replayed by the batch engine.

use std::collections::BTreeMap;

use loopspec_asm::Program;
use loopspec_core::snap::Enc;
use loopspec_core::{EventCollector, SnapshotState};
use loopspec_cpu::{Cpu, DecodedProgram, KernelMode, RunLimits};
use loopspec_dist::{JobSpec, LaneReport, Report};
use loopspec_mt::{AnnotatedTrace, Engine, EngineGrid, EngineReport, StrPolicy};
use loopspec_pipeline::Session;
use loopspec_svc::ReportCache;
use loopspec_workloads::Scale;

use crate::common::{peak_rss_mb, repeated_setup, Ctx, EndToEnd, Outcome, Rng};
use crate::fidelity;
use crate::ladder::{self, Rungs};
use crate::trace::Trace;

const SCALE: Scale = Scale::Full;
/// Report-cache lookups timed after each job for `hit_p50_us`.
const HIT_REPS: usize = 10;

fn kernels() -> Vec<String> {
    loopspec_isa::kernel::all()
        .iter()
        .map(|k| format!("kern:{}", k.name))
        .collect()
}

fn build(name: &str) -> Program {
    loopspec_workloads::build_named(name, SCALE)
        .expect("kernel drivers exist")
        .expect("kernel drivers assemble")
}

/// One streaming job: the report and the lane grid's final state.
fn stream(program: &Program) -> (EngineReport, Vec<u8>) {
    let mut grid = EngineGrid::new();
    grid.push_str(4);
    let mut session = Session::new();
    session.observe_loops(&mut grid);
    session
        .run(program, RunLimits::default())
        .expect("kernel drivers run");
    let mut enc = Enc::new();
    grid.save_state(&mut enc);
    (
        grid.reports().expect("stream ended")[0].clone(),
        enc.into_bytes(),
    )
}

/// The reference: legacy interpreter, `interp` kernel mode, batch
/// engine.
fn reference(program: &Program) -> EngineReport {
    let mut cpu = Cpu::new();
    cpu.set_kernel_mode(KernelMode::Interp);
    let mut collector = EventCollector::default();
    cpu.run(program, &mut collector, RunLimits::default())
        .expect("kernel drivers run");
    let (events, n) = collector.into_parts();
    Engine::new(&AnnotatedTrace::build(&events, n), StrPolicy::new(), 4).run()
}

/// Streams the drivers in turn until the window is used, checking each
/// report against its reference and each lane state against the first
/// one. After each job, a repeat of it is answered from the replay
/// service's report cache (`hit_p50_us`), so those samples spread over
/// the window too.
fn measure(
    seconds: f64,
    order: &[(String, Program, EngineReport)],
    trace: &mut Trace,
    e2e: &mut EndToEnd,
    out: &mut Outcome,
) {
    let mut first_state: BTreeMap<&str, Vec<u8>> = BTreeMap::new();
    let mut cache = ReportCache::new(order.len());
    let mut i = 0;
    while i < order.len() || e2e.busy_s < seconds {
        let (name, program, want) = &order[i % order.len()];
        let ((report, state), ns) =
            trace.timed("pipeline::Session::run(lane)", |_| stream(program));
        e2e.busy_s += ns / 1e9;
        e2e.job(name, report.instructions, ns / 1e9);
        out.check(report == *want, || {
            format!("{name}: streamed report differs")
        });
        let first = first_state.entry(name).or_insert_with(|| state.clone());
        out.check(state == *first, || {
            format!("{name}: lane state differs between runs")
        });

        let wire = Report {
            job: 0,
            instructions: report.instructions,
            lanes: vec![LaneReport::from(&report)],
            state,
        };
        let fp = JobSpec::new(name.clone()).scale(SCALE).fingerprint();
        cache.insert(fp, &wire);
        for _ in 0..HIT_REPS {
            let (hit, ns) = trace.timed("svc::ReportCache::get", |_| cache.get(fp));
            out.check(hit.as_ref() == Some(&wire), || {
                "report cache lost a report".into()
            });
            e2e.hit.push(ns / 1e9);
        }
        i += 1;
    }
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let mut e2e = EndToEnd::default();
    let mut names = kernels();
    Rng::new(ctx.seed).shuffle(&mut names);
    // Set-up: build and decode the four drivers and their references.
    let setup = || {
        names
            .iter()
            .map(|n| {
                let p = build(n);
                std::hint::black_box(DecodedProgram::new(&p));
                let want = reference(&p);
                (n.clone(), p, want)
            })
            .collect::<Vec<_>>()
    };
    let (order, times) = repeated_setup(setup);
    e2e.setup = times;
    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };

    measure(seconds, &order, &mut Trace::new(false), &mut e2e, out);
    e2e.peak_rss_mb = peak_rss_mb();
    e2e.setup.extend(repeated_setup(setup).1);

    if ctx.trace {
        let mut traced = EndToEnd::default();
        let mut trace = Trace::new(true);
        measure(seconds, &order, &mut trace, &mut traced, out);
        crate::report_tracing(&e2e, &traced, &trace, out);
        let rungs = Rungs {
            programs: names.iter().map(|n| (n.clone(), SCALE)).collect(),
            grid: false,
            oracle: false,
            dist: false,
            svc: false,
            kernel: true,
        };
        ladder::run(&rungs, &mut trace, None, out);
        crate::write_trace(ctx, "kernel-stream", &trace, out);
    } else {
        e2e.emit(out);
        fidelity::emit_suite(Scale::Test, out);
    }
}
