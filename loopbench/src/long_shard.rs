//! `long-shard`: one long interpreted program (ijpeg) replayed again and
//! again through a one-shot 2-worker `dist::Coordinator` with the
//! production 25 k-instruction shard plan — shard snapshots and wire
//! frames do most of the work. Every outcome must equal the
//! single-pass reference (the `DistOutcome::verify_single_pass`
//! comparison, against a reference built once in set-up).

use loopspec_dist::{
    default_lanes, single_pass_outcome, Coordinator, JobSpec, Report, SuiteSpec, WorkloadOutcome,
};
use loopspec_pipeline::Plan;
use loopspec_svc::ReportCache;
use loopspec_workloads::Scale;

use crate::common::{peak_rss_mb, repeated_setup, Ctx, EndToEnd, Outcome};
use crate::fidelity;
use crate::ladder::{self, Rungs, SHARD_FUEL};
use crate::trace::Trace;

const PROGRAM: &str = "ijpeg";
const SCALE: Scale = Scale::Test;
const WORKERS: usize = 2;
/// Report-cache lookups timed after each job for `hit_p50_us`.
const HIT_REPS: usize = 20;

/// Runs the job until the window is used, checking each outcome. After
/// each job, a repeat of it is answered from the replay service's
/// report cache (`hit_p50_us`: seal check and decode of this report),
/// so those samples spread over the window too.
fn measure(
    seconds: f64,
    spec: &SuiteSpec,
    reference: &WorkloadOutcome,
    trace: &mut Trace,
    e2e: &mut EndToEnd,
    out: &mut Outcome,
) {
    let fingerprint = JobSpec::new(PROGRAM).scale(SCALE).fingerprint();
    let mut cache = ReportCache::new(1);
    while e2e.jobs == 0 || e2e.busy_s < seconds {
        let (outcome, ns) = trace.timed("dist::Coordinator::spawn+run_suite", |_| {
            Coordinator::spawn(WORKERS).and_then(|c| c.run_suite(spec))
        });
        e2e.busy_s += ns / 1e9;
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                out.check(false, || format!("{PROGRAM}: job failed: {e}"));
                continue;
            }
        };
        let got = outcome.outcomes.into_iter().next().expect("one chain");
        e2e.job(PROGRAM, got.instructions, ns / 1e9);
        out.check(
            got.instructions == reference.instructions
                && got.lanes == reference.lanes
                && got.state == reference.state,
            || format!("{PROGRAM}: distributed outcome differs from the single pass"),
        );

        let report = Report {
            job: 0,
            instructions: got.instructions,
            lanes: got.lanes,
            state: got.state,
        };
        cache.insert(fingerprint, &report);
        for _ in 0..HIT_REPS {
            let (hit, ns) = trace.timed("svc::ReportCache::get", |_| cache.get(fingerprint));
            out.check(hit.as_ref() == Some(&report), || {
                "report cache lost the report".into()
            });
            e2e.hit.push(ns / 1e9);
        }
    }
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let mut e2e = EndToEnd::default();
    let lanes = default_lanes();
    let spec = SuiteSpec::new([PROGRAM], SCALE, lanes.clone(), Plan::sliced(SHARD_FUEL));
    // Set-up: build the program and its single-pass reference.
    let setup =
        || single_pass_outcome(PROGRAM, SCALE, &lanes, spec.total_fuel).expect("reference run");
    let (reference, times) = repeated_setup(setup);
    e2e.setup = times;
    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };

    let mut trace = Trace::new(false);
    measure(seconds, &spec, &reference, &mut trace, &mut e2e, out);
    e2e.peak_rss_mb = peak_rss_mb();
    e2e.setup.extend(repeated_setup(setup).1);

    if ctx.trace {
        let mut traced = EndToEnd::default();
        let mut trace = Trace::new(true);
        measure(seconds, &spec, &reference, &mut trace, &mut traced, out);
        crate::report_tracing(&e2e, &traced, &trace, out);
        let rungs = Rungs {
            programs: vec![(PROGRAM.to_string(), SCALE)],
            grid: true,
            oracle: false,
            dist: true,
            svc: false,
            kernel: false,
        };
        ladder::run(&rungs, &mut trace, None, out);
        crate::write_trace(ctx, "long-shard", &trace, out);
    } else {
        e2e.emit(out);
        fidelity::emit_suite(Scale::Test, out);
    }
}
