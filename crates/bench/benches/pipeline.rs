//! Streaming vs. materialized pipeline: the cost of the two shapes on
//! real workloads, snapshotted to `BENCH_pipeline.json` at the repo root
//! so future PRs have a perf trajectory.
//!
//! * `materialized/*` — the legacy three-pass shape: run the CPU into an
//!   `EventCollector`, build an `AnnotatedTrace`, replay it through the
//!   batch `Engine`.
//! * `streaming/*` — the single-pass shape: a `Session` feeds one shared
//!   detector into a one-lane `EngineGrid` as the program executes.
//! * `*_grid/*` — the experiment-harness case: all 20 (policy × TU)
//!   engine configurations, either replayed from the materialized trace
//!   or fanned out in the single streaming pass.
//! * `dist_grid/*` — the same 20-lane pass scheduled by the
//!   `loopspec-dist` coordinator across two protocol-speaking workers
//!   over Unix socket pairs (worker threads, so the gate prices the
//!   frame protocol + snapshot chaining + scheduling, not process
//!   spawn noise).
//! * `svc_grid/*` — the same job submitted to a persistent
//!   `loopspec-svc` replay service (cache disabled): the distributed
//!   pass plus submission, admission control, and the report round
//!   trip (gated against `streaming_grid`).
//! * `oracle_grid/*` vs `oracle_materialized/*` — the Figure 5 oracle
//!   study both ways: the two-phase streaming pair (count log in the
//!   CPU pass, oracle replay over the retained events) against the
//!   legacy annotate-then-batch-replay shape it retired.
//! * `cpu_only/*` vs `cpu_only_legacy/*` — raw interpreter throughput
//!   into a null sink: the pre-decoded threaded-code front-end against
//!   the legacy fetch/decode loop (gated: decoded must stay faster).

use loopspec_bench::experiments::{grid_points, run_engine, FIG5_PREFIX_FRACTION, TU_COUNTS};
use loopspec_bench::timing::Suite;
use loopspec_core::EventCollector;
use loopspec_cpu::{Cpu, DecodedProgram, NullTracer, RunLimits};
use loopspec_mt::{
    ideal_tpc, ideal_tpc_streaming, ideal_tpc_with_feed, prefix_split, AnnotatedTrace, EngineGrid,
    IterationCountLog, Policy,
};
use loopspec_pipeline::{Session, ShardedRun};
use loopspec_workloads::{by_name, Scale};

/// Shard count for the `sharded_grid` and `dist_grid` benchmarks (and
/// their gate metrics).
const SHARDS: usize = 4;

/// A one-lane grid: STR at 4 TUs, the single-engine streaming case.
fn str4_grid() -> EngineGrid {
    let mut grid = EngineGrid::new();
    Policy::Str.add_to_grid(&mut grid, 4);
    grid
}

/// Worker count for the `dist_grid` benchmark.
#[cfg(unix)]
const WORKERS: usize = 2;

/// One replay-service job for `name` over the full 20-lane grid,
/// submitted to a persistent [`loopspec_svc::Service`] running with
/// the cache disabled — so every iteration prices the whole service
/// path (submission, admission, scheduling over the worker pool,
/// report handoff) and never a cache hit. Unix-only, like
/// [`dist_grid_run`].
#[cfg(unix)]
fn svc_grid_run(service: &loopspec_svc::Service, name: &str, shard_fuel: u64) -> f64 {
    use loopspec_dist::JobSpec;
    use loopspec_pipeline::Plan;

    let completion = service
        .client()
        .run(JobSpec::new(name).plan(Plan::sliced(shard_fuel)))
        .expect("service job succeeds");
    assert!(!completion.cached, "the bench service runs cache-disabled");
    completion.report.lanes.iter().map(|l| l.tpc()).sum()
}

/// A persistent replay service over `WORKERS` protocol-speaking
/// worker threads on Unix socket pairs, cache disabled. The joiner
/// reaps the worker threads after the service shuts down.
#[cfg(unix)]
fn svc_start() -> (loopspec_svc::Service, impl FnOnce()) {
    use loopspec_dist::{Worker, WorkerLink};
    use loopspec_svc::{Service, SvcConfig};

    let mut links = Vec::with_capacity(WORKERS);
    let mut handles = Vec::with_capacity(WORKERS);
    for _ in 0..WORKERS {
        let (ours, theirs) = std::os::unix::net::UnixStream::pair().expect("socketpair");
        links.push(WorkerLink::from_unix(ours).expect("clone"));
        handles.push(std::thread::spawn(move || {
            let reader = theirs.try_clone().expect("clone");
            let _ = Worker::new().serve(reader, theirs);
        }));
    }
    let config = SvcConfig {
        workers: WORKERS,
        cache_capacity: 0,
        ..SvcConfig::default()
    };
    let service = Service::with_links(config, links);
    (service, move || {
        for h in handles {
            h.join().expect("worker thread exits");
        }
    })
}

/// One distributed replay of `name` over the full 20-lane grid:
/// `WORKERS` protocol-speaking worker threads on Unix socket pairs,
/// the chain sliced into ~`SHARDS` snapshot-linked shards. Unix-only
/// (the socket-pair transport); on other hosts the group is absent and
/// the gate skips its metric.
#[cfg(unix)]
fn dist_grid_run(name: &str, shard_fuel: u64) -> f64 {
    use loopspec_dist::default_lanes;

    dist_run(name, Scale::Test, default_lanes(), shard_fuel, None)
}

/// One distributed replay of `name` at `scale` through `lanes`:
/// `WORKERS` protocol-speaking worker threads on Unix socket pairs.
/// `total_fuel` overrides the default 100 M-instruction budget for
/// runs (the `Scale::Huge` tier) that retire more.
#[cfg(unix)]
fn dist_run(
    name: &str,
    scale: Scale,
    lanes: Vec<loopspec_dist::LaneSpec>,
    shard_fuel: u64,
    total_fuel: Option<u64>,
) -> f64 {
    use loopspec_dist::{Coordinator, SuiteSpec, Worker, WorkerLink};
    use loopspec_pipeline::Plan;

    let mut links = Vec::with_capacity(WORKERS);
    let mut handles = Vec::with_capacity(WORKERS);
    for _ in 0..WORKERS {
        let (ours, theirs) = std::os::unix::net::UnixStream::pair().expect("socketpair");
        links.push(WorkerLink::from_unix(ours).expect("clone"));
        handles.push(std::thread::spawn(move || {
            let reader = theirs.try_clone().expect("clone");
            let _ = Worker::new().serve(reader, theirs);
        }));
    }
    let mut spec = SuiteSpec::new([name], scale, lanes, Plan::sliced(shard_fuel));
    if let Some(fuel) = total_fuel {
        spec.total_fuel = fuel;
    }
    let outcome = Coordinator::new(links)
        .run_suite(&spec)
        .expect("distributed run succeeds");
    for h in handles {
        h.join().expect("worker thread exits");
    }
    outcome.outcomes[0].lanes.iter().map(|l| l.tpc()).sum()
}

fn main() {
    let mut s = Suite::new("pipeline");

    // One persistent service for the whole suite — that is the shape
    // being priced: a long-lived scheduler answering many submissions,
    // not a service spawned per job.
    #[cfg(unix)]
    let (service, join_workers) = svc_start();

    for name in ["compress", "go"] {
        let w = by_name(name).expect("workload exists");
        let program = w.build(Scale::Test).expect("assembles");

        // Instruction count for throughput annotation.
        let mut probe = EventCollector::default();
        Cpu::new()
            .run(&program, &mut probe, RunLimits::default())
            .expect("runs");
        let instructions = probe.instructions();

        // Raw interpreter throughput, no detector and no sinks: the
        // pre-decoded threaded-code front-end vs. the legacy
        // fetch/decode loop, both into a `NullTracer` (whose demand
        // mask lets both paths skip event assembly). The gate tracks
        // the `cpu_only / cpu_only_legacy` ratio so the decoded path's
        // advantage can't silently erode.
        let decoded = DecodedProgram::new(&program);
        s.bench(
            "cpu_only",
            &format!("decoded-null-tracer/{name}"),
            Some(instructions),
            || {
                let out = Cpu::new()
                    .run_decoded(&decoded, &mut NullTracer, RunLimits::default())
                    .expect("runs");
                std::hint::black_box(out.retired)
            },
        );

        s.bench(
            "cpu_only_legacy",
            &format!("legacy-null-tracer/{name}"),
            Some(instructions),
            || {
                let out = Cpu::new()
                    .run(&program, &mut NullTracer, RunLimits::default())
                    .expect("runs");
                std::hint::black_box(out.retired)
            },
        );

        s.bench(
            "materialized",
            &format!("cpu+collect+annotate+engine/{name}"),
            Some(instructions),
            || {
                let mut collector = EventCollector::default();
                Cpu::new()
                    .run(&program, &mut collector, RunLimits::default())
                    .expect("runs");
                let (events, n) = collector.into_parts();
                let trace = AnnotatedTrace::build(&events, n);
                std::hint::black_box(run_engine(&trace, Policy::Str, 4).tpc())
            },
        );

        s.bench(
            "streaming",
            &format!("session+one-lane-grid/{name}"),
            Some(instructions),
            || {
                let mut grid = str4_grid();
                let mut session = Session::new();
                session.observe_loops(&mut grid);
                session.run(&program, RunLimits::default()).expect("runs");
                std::hint::black_box(grid.report(0).expect("finished").tpc())
            },
        );

        s.bench(
            "materialized_grid",
            &format!("20-replays/{name}"),
            Some(instructions),
            || {
                let mut collector = EventCollector::default();
                Cpu::new()
                    .run(&program, &mut collector, RunLimits::default())
                    .expect("runs");
                let (events, n) = collector.into_parts();
                let trace = AnnotatedTrace::build(&events, n);
                let mut acc = 0.0;
                for policy in Policy::ALL {
                    for tus in TU_COUNTS {
                        acc += run_engine(&trace, policy, tus).tpc();
                    }
                }
                std::hint::black_box(acc)
            },
        );

        s.bench(
            "streaming_grid",
            &format!("20-sinks-one-pass/{name}"),
            Some(instructions),
            || {
                let mut grid = EngineGrid::new();
                for (p, tus) in grid_points() {
                    p.add_to_grid(&mut grid, tus);
                }
                let mut session = Session::new();
                session.observe_loops(&mut grid);
                session.run(&program, RunLimits::default()).expect("runs");
                let acc: f64 = grid
                    .reports()
                    .expect("finished")
                    .iter()
                    .map(|r| r.tpc())
                    .sum();
                std::hint::black_box(acc)
            },
        );

        // The streaming-grid pass split into checkpoint-linked shards:
        // same 20-lane grid, same single logical pass, plus a full
        // snapshot serialize → checksum → deserialize → restore cycle
        // at every shard boundary. The gate tracks this against
        // `streaming_grid` so checkpoint overhead regressions fail CI.
        s.bench(
            "sharded_grid",
            &format!("{SHARDS}-shards-one-pass/{name}"),
            Some(instructions),
            || {
                let out = ShardedRun::new(SHARDS)
                    .run(&program, RunLimits::with_fuel(instructions), || {
                        let mut grid = EngineGrid::new();
                        for (p, tus) in grid_points() {
                            p.add_to_grid(&mut grid, tus);
                        }
                        grid
                    })
                    .expect("sharded run succeeds");
                let acc: f64 = out
                    .sink
                    .reports()
                    .expect("finished")
                    .iter()
                    .map(|r| r.tpc())
                    .sum();
                std::hint::black_box(acc)
            },
        );

        // The Figure 5 oracle study, two-phase: the count log rides
        // the CPU pass (phase 1), then the retained event stream is
        // replayed through unbounded oracle lanes for the full run and
        // the prefix (phase 2). The gate tracks this against
        // `streaming_grid` so oracle-path regressions fail CI.
        s.bench(
            "oracle_grid",
            &format!("two-phase-fig5/{name}"),
            Some(instructions),
            || {
                let mut collector = EventCollector::default();
                let mut log = IterationCountLog::new();
                let mut session = Session::new();
                session
                    .observe_loops(&mut collector)
                    .observe_loops(&mut log);
                session.run(&program, RunLimits::default()).expect("runs");
                let (events, n) = collector.into_parts();
                let feed = log.into_feed();
                let all = ideal_tpc_with_feed(&events, n, &feed);
                let (split, cut) = prefix_split(&events, n, FIG5_PREFIX_FRACTION);
                let prefix = ideal_tpc_streaming(&events[..split], cut);
                std::hint::black_box(all.tpc + prefix.tpc)
            },
        );

        // The legacy materialized fig5 shape this PR retired from
        // production: collect, build an AnnotatedTrace (twice — full
        // and prefix), replay the batch oracle. Informational — it
        // prices what the two-phase path saves.
        s.bench(
            "oracle_materialized",
            &format!("annotate-fig5/{name}"),
            Some(instructions),
            || {
                let mut collector = EventCollector::default();
                Cpu::new()
                    .run(&program, &mut collector, RunLimits::default())
                    .expect("runs");
                let (events, n) = collector.into_parts();
                let all = ideal_tpc(&AnnotatedTrace::build(&events, n));
                let (split, cut) = prefix_split(&events, n, FIG5_PREFIX_FRACTION);
                let prefix = ideal_tpc(&AnnotatedTrace::build(&events[..split], cut));
                std::hint::black_box(all.tpc + prefix.tpc)
            },
        );

        // The same logical pass again, but scheduled by the dist
        // coordinator across two protocol-speaking workers: every
        // shard boundary is a snapshot serialize → frame → socket →
        // decode → restore round trip. The gate tracks this against
        // `streaming_grid` so wire-protocol overhead regressions fail
        // CI.
        #[cfg(unix)]
        {
            let shard_fuel = instructions.div_ceil(SHARDS as u64);
            s.bench(
                "dist_grid",
                &format!("{WORKERS}-workers-{SHARDS}-shards/{name}"),
                Some(instructions),
                || std::hint::black_box(dist_grid_run(name, shard_fuel)),
            );

            // The same job again, but submitted to the persistent
            // replay service (cache disabled): submission, admission
            // control, scheduling, and the report round trip on top of
            // the distributed pass. The gate tracks this against
            // `streaming_grid` so service-path regressions fail CI.
            s.bench(
                "svc_grid",
                &format!("service-{WORKERS}-workers/{name}"),
                Some(instructions),
                || std::hint::black_box(svc_grid_run(&service, name, shard_fuel)),
            );
        }
    }

    // `Scale::Huge` through the kernel-backed tier: one pure-register
    // kernel workload (~0.8 G retired instructions) measured raw
    // (decoded interpreter into a null tracer), streaming (a one-lane
    // Str/4-TU grid fed by a `Session`), and distributed (2 workers,
    // 50 M-instruction shards, the same single lane). Single-sample
    // (`bench_heavy`): each call is tens of seconds, so the standard
    // calibrate-then-sample protocol would cost minutes per entry.
    // The dist/streaming ratio is the number this group exists to
    // record — at Huge the checkpoint + frame overhead is amortised,
    // unlike at the Test scale `dist_grid` prices.
    {
        const HUGE_FUEL: u64 = 2_000_000_000;
        #[cfg(unix)]
        const HUGE_SHARD_FUEL: u64 = 50_000_000;
        let name = "kern:khash";
        let w = loopspec_workloads::native::workload_by_name(name).expect("kernel workload");
        let program = w.build(Scale::Huge).expect("assembles");
        let decoded = DecodedProgram::new(&program);
        let limits = RunLimits {
            max_instrs: HUGE_FUEL,
            ..RunLimits::default()
        };

        let mut retired = 0u64;
        s.bench_heavy("huge_grid", &format!("cpu-native/{name}"), None, || {
            let out = Cpu::new()
                .run_decoded(&decoded, &mut NullTracer, limits)
                .expect("runs");
            retired = out.retired;
            std::hint::black_box(out.retired)
        });

        s.bench_heavy(
            "huge_grid",
            &format!("streaming/{name}"),
            Some(retired),
            || {
                let mut grid = str4_grid();
                let mut session = Session::new();
                session.observe_loops(&mut grid);
                session.run(&program, limits).expect("runs");
                std::hint::black_box(grid.report(0).expect("finished").tpc())
            },
        );

        #[cfg(unix)]
        s.bench_heavy(
            "huge_grid",
            &format!("dist-{WORKERS}-workers/{name}"),
            Some(retired),
            || {
                std::hint::black_box(dist_run(
                    name,
                    Scale::Huge,
                    vec![loopspec_dist::LaneSpec {
                        policy: Policy::Str,
                        tus: 4,
                    }],
                    HUGE_SHARD_FUEL,
                    Some(HUGE_FUEL),
                ))
            },
        );
    }

    #[cfg(unix)]
    {
        service.shutdown();
        join_workers();
    }

    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    s.write_json(out);
}
