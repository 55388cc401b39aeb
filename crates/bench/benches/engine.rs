//! Throughput of the speculation engine across policies and TU counts.

use loopspec_bench::experiments::run_engine;
use loopspec_bench::run::{ExecuteOptions, WorkloadRun};
use loopspec_bench::timing::Suite;
use loopspec_mt::ideal_tpc;
use loopspec_mt::Policy;
use loopspec_workloads::{by_name, Scale};

fn bench_policies(s: &mut Suite) {
    let run = WorkloadRun::execute_with(
        by_name("hydro2d").unwrap(),
        Scale::Test,
        ExecuteOptions {
            engine_grid: false,
            oracle: false,
            ..ExecuteOptions::default()
        },
    );
    let trace = run.annotate();
    let events = trace.events.len() as u64;

    for policy in Policy::ALL {
        s.bench(
            "engine",
            &format!("policy/{}", policy.name()),
            Some(events),
            || std::hint::black_box(run_engine(&trace, policy, 4).tpc()),
        );
    }
    for tus in [2usize, 16, 256] {
        s.bench("engine", &format!("tus/{tus}"), Some(events), || {
            std::hint::black_box(run_engine(&trace, Policy::Str, tus).tpc())
        });
    }
    s.bench("engine", "ideal", Some(events), || {
        std::hint::black_box(ideal_tpc(&trace).tpc)
    });
}

fn bench_annotate(s: &mut Suite) {
    let run = WorkloadRun::execute_with(
        by_name("su2cor").unwrap(),
        Scale::Test,
        ExecuteOptions {
            engine_grid: false,
            oracle: false,
            ..ExecuteOptions::default()
        },
    );
    s.bench("annotate", "build", Some(run.events.len() as u64), || {
        std::hint::black_box(run.annotate().events.len())
    });
}

fn main() {
    let mut s = Suite::new("engine");
    bench_policies(&mut s);
    bench_annotate(&mut s);
}
