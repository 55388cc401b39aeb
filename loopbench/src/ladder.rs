//! The per-layer ladder of the traced run: the same programs run again
//! and again, each rung adding exactly one layer, every call wrapped in
//! a span. A rung's cost is its median call time; its marginal is the
//! difference to the rung below, per guest instruction.
//!
//! decoded CPU → tracer boundary → CLS → session → 1 engine lane →
//! 20-lane grid → phase-2 oracle, then (on a 20-lane checkpointable
//! grid) single pass → in-process shards → 2-worker dist → svc; the
//! batch engine and native kernel retirement are side references.

use std::process::Command;
use std::time::{Duration, Instant};

use loopspec_asm::Program;
use loopspec_bench::experiments::{grid_points, FIG5_PREFIX_FRACTION};
use loopspec_core::EventCollector;
use loopspec_cpu::{Cpu, DecodedProgram, InstrEvent, NullTracer, RunLimits, Tracer};
use loopspec_dist::{
    default_lanes, Coordinator, JobSpec, LaneSpec, SuiteSpec, SvcStats, WorkerLink,
};
use loopspec_isa::ControlKind;
use loopspec_mt::{
    ideal_tpc_streaming, ideal_tpc_with_feed, prefix_split, AnnotatedTrace, Engine, EngineGrid,
    EngineReport, IterationCountLog, StrPolicy,
};
use loopspec_pipeline::{Plan, Session, ShardedRun, Snapshot};
use loopspec_svc::{Service, SvcConfig};
use loopspec_workloads::Scale;

use crate::common::Outcome;
use crate::stats::{marginal, median};
use crate::trace::Trace;

/// The production shard slice (`JobSpec::new`'s default plan).
pub const SHARD_FUEL: u64 = 25_000;

/// Which layers a workload exercises; the rest report 0.
#[derive(Debug, Clone)]
pub struct Rungs {
    pub programs: Vec<(String, Scale)>,
    /// The 20-lane grid rung.
    pub grid: bool,
    /// The phase-2 oracle rung.
    pub oracle: bool,
    /// The snapshot, in-process shard and 2-worker dist rungs.
    pub dist: bool,
    /// The svc rungs (needs `dist`).
    pub svc: bool,
    /// Native kernel retirement and the streaming marginal over it.
    pub kernel: bool,
}

/// A full-demand tracer that only counts control transfers: the cost
/// of the per-instruction tracer boundary with nothing behind it.
#[derive(Debug, Default)]
struct ControlCounter {
    controls: u64,
}

impl Tracer for ControlCounter {
    fn on_retire(&mut self, ev: &InstrEvent) {
        if !matches!(ev.control.kind, ControlKind::None) {
            self.controls += 1;
        }
    }
}

/// Repeats `f` (each call one span) until it has run at least
/// `min_reps` times and `min_total` has passed, or `max_reps` times;
/// returns the median call time in ns and the last result.
fn measure<R>(
    trace: &mut Trace,
    name: &'static str,
    (min_reps, max_reps): (usize, usize),
    mut f: impl FnMut() -> R,
) -> (f64, R) {
    let min_total = Duration::from_millis(300);
    let start = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < max_reps && (times.len() < min_reps || start.elapsed() < min_total) {
        drop(last.take());
        let (r, ns) = trace.timed(name, |_| f());
        times.push(ns);
        last = Some(r);
    }
    (
        median(&times).expect("at least one rep"),
        last.expect("at least one rep"),
    )
}

const FAST: (usize, usize) = (5, 40);
const SLOW: (usize, usize) = (3, 3);

fn limits() -> RunLimits {
    RunLimits::default()
}

fn grid20() -> EngineGrid {
    let mut grid = EngineGrid::new();
    for (p, tus) in grid_points() {
        p.add_to_grid(&mut grid, tus);
    }
    grid
}

fn grid1() -> EngineGrid {
    let mut grid = EngineGrid::new();
    grid.push_str(4);
    grid
}

fn dist_grid() -> EngineGrid {
    LaneSpec::build_grid(&default_lanes()).expect("default lanes are valid")
}

/// Sums of per-program rung times (ns) and exact counts.
#[derive(Debug, Default)]
struct Sums {
    instructions: u64,
    programs: usize,
    decode: f64,
    cpu: f64,
    tracer: f64,
    cls: f64,
    session: f64,
    lane: f64,
    grid: f64,
    batch: f64,
    oracle: f64,
    single: f64,
    shard: f64,
    dist: f64,
    svc_cold: f64,
    stream: f64,
    hits: Vec<f64>,
    controls: u64,
    loop_events: u64,
    engine: [u64; 4],
    encode: Vec<f64>,
    decode_snap: Vec<f64>,
    snap_bytes: Vec<f64>,
    snap_last: Vec<f64>,
    handoff_bytes: u64,
    jobs_dispatched: u64,
    retries: u64,
}

/// Runs the ladder described by `plan`, checking every rung's output
/// against the rung below, and emits every per-layer metric. `svc`
/// supplies the service counters of a workload that runs the service.
pub fn run(plan: &Rungs, trace: &mut Trace, svc: Option<SvcStats>, out: &mut Outcome) {
    let mut s = Sums::default();
    for (name, scale) in &plan.programs {
        let program = loopspec_workloads::build_named(name, *scale)
            .expect("ladder programs exist")
            .expect("ladder programs assemble");
        program_rungs(plan, name, *scale, &program, trace, &mut s, out);
    }
    emit(plan, &s, svc, out);
}

fn program_rungs(
    plan: &Rungs,
    name: &str,
    scale: Scale,
    program: &Program,
    trace: &mut Trace,
    s: &mut Sums,
    out: &mut Outcome,
) {
    let (t, decoded) = measure(trace, "cpu::DecodedProgram::new", FAST, || {
        DecodedProgram::new(program)
    });
    s.decode += t;

    let (t, n) = measure(trace, "cpu::Cpu::run_decoded(NullTracer)", FAST, || {
        Cpu::new()
            .run_decoded(&decoded, &mut NullTracer, limits())
            .expect("ladder programs run")
            .retired
    });
    s.cpu += t;
    s.instructions += n;
    s.programs += 1;

    let (t, controls) = measure(trace, "cpu::Cpu::run_decoded(ControlCounter)", FAST, || {
        let mut c = ControlCounter::default();
        Cpu::new()
            .run_decoded(&decoded, &mut c, limits())
            .expect("ladder programs run");
        c.controls
    });
    s.tracer += t;
    s.controls += controls;

    let (t, (events, cls_n)) =
        measure(trace, "cpu::Cpu::run_decoded(EventCollector)", FAST, || {
            let mut c = EventCollector::default();
            Cpu::new()
                .run_decoded(&decoded, &mut c, limits())
                .expect("ladder programs run");
            c.into_parts()
        });
    s.cls += t;
    s.loop_events += events.len() as u64;
    out.check(cls_n == n, || {
        format!("{name}: CLS saw {cls_n} of {n} instructions")
    });

    let (t, session_events) = measure(trace, "pipeline::Session::run(collector)", FAST, || {
        let mut c = EventCollector::default();
        let mut session = Session::new();
        session.observe_loops(&mut c);
        session.run(program, limits()).expect("ladder programs run");
        c.into_events()
    });
    s.session += t;
    out.check(session_events == events, || {
        format!("{name}: session events differ from the bare CPU's")
    });

    let (t, lane) = measure(
        trace,
        "pipeline::Session::run(collector+lane)",
        FAST,
        || {
            let mut c = EventCollector::default();
            let mut grid = grid1();
            let mut session = Session::new();
            session.observe_loops(&mut c).observe_loops(&mut grid);
            session.run(program, limits()).expect("ladder programs run");
            grid.reports().expect("stream ended")[0].clone()
        },
    );
    s.lane += t;

    let (t, batch) = measure(trace, "mt::Engine::run(STR@4, batch)", FAST, || {
        let annotated = AnnotatedTrace::build(&events, n);
        Engine::new(&annotated, StrPolicy::new(), 4).run()
    });
    s.batch += t;
    out.check(batch == lane, || {
        format!("{name}: STR@4 lane differs from the batch engine")
    });
    add_engine(s, &batch);

    if plan.grid {
        let (t, _) = measure(
            trace,
            "pipeline::Session::run(collector+grid20)",
            FAST,
            || {
                let mut c = EventCollector::default();
                let mut grid = grid20();
                let mut session = Session::new();
                session.observe_loops(&mut c).observe_loops(&mut grid);
                session.run(program, limits()).expect("ladder programs run");
                grid.reports().map(<[EngineReport]>::len)
            },
        );
        s.grid += t;
    }

    if plan.oracle {
        let (t, _) = measure(trace, "mt::ideal_tpc(two-phase)", FAST, || {
            let mut c = EventCollector::default();
            let mut grid = grid20();
            let mut log = IterationCountLog::new();
            let mut session = Session::new();
            session
                .observe_loops(&mut c)
                .observe_loops(&mut grid)
                .observe_loops(&mut log);
            session.run(program, limits()).expect("ladder programs run");
            let (events, n) = c.into_parts();
            let all = ideal_tpc_with_feed(&events, n, &log.into_feed());
            let (split, cut) = prefix_split(&events, n, FIG5_PREFIX_FRACTION);
            let prefix = ideal_tpc_streaming(&events[..split], cut);
            all.tpc + prefix.tpc
        });
        s.oracle += t;
    }

    if plan.dist {
        shard_rungs(plan, name, scale, program, n, trace, s, out);
    }

    if plan.kernel {
        let (t, _) = measure(trace, "pipeline::Session::run(lane)", FAST, || {
            let mut grid = grid1();
            let mut session = Session::new();
            session.observe_loops(&mut grid);
            session.run(program, limits()).expect("ladder programs run");
            grid.reports().map(<[EngineReport]>::len)
        });
        s.stream += t;
    }
}

fn add_engine(s: &mut Sums, r: &EngineReport) {
    let spec = &r.spec;
    s.engine[0] += spec.threads_spawned;
    s.engine[1] += spec.verified;
    s.engine[2] += spec.squashed_misspec + spec.squashed_policy + spec.squashed_stale;
    s.engine[3] += r.cycles;
}

/// The checkpointable 20-lane rungs: single pass, snapshot cuts,
/// in-process shards, 2-worker dist, svc.
#[allow(clippy::too_many_arguments)]
fn shard_rungs(
    plan: &Rungs,
    name: &str,
    scale: Scale,
    program: &Program,
    n: u64,
    trace: &mut Trace,
    s: &mut Sums,
    out: &mut Outcome,
) {
    let (t, single) = measure(trace, "pipeline::Session::run(grid20)", FAST, || {
        let mut grid = dist_grid();
        let mut session = Session::new();
        session.observe_checkpointable(&mut grid);
        session.run(program, limits()).expect("ladder programs run");
        grid.reports().expect("stream ended").to_vec()
    });
    s.single += t;

    // Snapshot cuts of the production plan, encode and decode timed at
    // every cut.
    let mut handoff: Option<Vec<u8>> = None;
    let mut sizes = Vec::new();
    let final_reports = loop {
        let mut grid = dist_grid();
        let mut session = Session::new();
        session.observe_checkpointable(&mut grid);
        if let Some(bytes) = handoff.take() {
            let (_, ns) = trace.timed("pipeline::Snapshot::from_bytes+Session::resume", |_| {
                let snap = Snapshot::from_bytes(&bytes).expect("own snapshot decodes");
                session.resume(&snap).expect("own snapshot resumes");
            });
            s.decode_snap.push(ns);
        }
        trace.span("pipeline::Session::advance", |_| {
            session
                .advance(program, RunLimits::with_fuel(SHARD_FUEL))
                .expect("ladder programs run")
        });
        if session.is_ended() {
            drop(session);
            break grid.reports().expect("stream ended").to_vec();
        }
        let (bytes, ns) = trace.timed("pipeline::Session::checkpoint+Snapshot::to_bytes", |_| {
            session.checkpoint().expect("checkpointable").to_bytes()
        });
        s.encode.push(ns);
        sizes.push(bytes.len() as f64);
        handoff = Some(bytes);
    };
    out.check(final_reports == single, || {
        format!("{name}: snapshot chain differs from the single pass")
    });
    if let Some(&last) = sizes.last() {
        s.snap_last.push(last);
    }
    s.snap_bytes.extend(sizes);

    let shards = n.div_ceil(SHARD_FUEL).max(1) as usize;
    let (t, sharded) = measure(trace, "pipeline::ShardedRun::run", FAST, || {
        ShardedRun::new(shards)
            .run(program, RunLimits::with_fuel(n), dist_grid)
            .expect("sharded run succeeds")
            .sink
            .reports()
            .expect("stream ended")
            .to_vec()
    });
    s.shard += t;
    out.check(sharded == single, || {
        format!("{name}: sharded run differs from the single pass")
    });

    let spec = SuiteSpec::new([name], scale, default_lanes(), Plan::sliced(SHARD_FUEL));
    let exe = std::env::current_exe().expect("own executable");
    let mut times = Vec::new();
    let mut outcome = None;
    for _ in 0..SLOW.0 {
        // Worker processes start outside the timed call, so the rung
        // prices the frames and the scheduling, not process spawn.
        let links: Vec<WorkerLink> = (0..2)
            .map(|_| WorkerLink::spawn(Command::new(&exe).arg("--worker")))
            .collect::<Result<_, _>>()
            .expect("workers spawn");
        let (o, ns) = trace.timed("dist::Coordinator::run_suite", |_| {
            Coordinator::new(links).run_suite(&spec)
        });
        outcome = Some(o.expect("distributed run succeeds"));
        times.push(ns);
    }
    let (t, outcome) = (
        median(&times).expect("at least one rep"),
        outcome.expect("at least one rep"),
    );
    s.dist += t;
    let lanes: Vec<loopspec_dist::LaneReport> = single.iter().map(Into::into).collect();
    out.check(outcome.outcomes[0].lanes == lanes, || {
        format!("{name}: distributed lanes differ from the single pass")
    });
    s.handoff_bytes += outcome.handoff_bytes;
    s.jobs_dispatched += outcome.jobs_dispatched;
    s.retries += outcome
        .outcomes
        .iter()
        .map(|o| u64::from(o.retries))
        .sum::<u64>();

    if !plan.svc {
        return;
    }
    let job = JobSpec::new(name).scale(scale);
    // Cold: a cache-less service computes every submission.
    let cold = Service::spawn(SvcConfig {
        cache_capacity: 0,
        ..SvcConfig::default()
    })
    .expect("service spawns");
    let client = cold.client();
    let (t, done) = measure(trace, "svc::Client::run(cold)", SLOW, || {
        client.run(job.clone()).expect("service job succeeds")
    });
    cold.shutdown();
    s.svc_cold += t;
    out.check(done.report.lanes == lanes, || {
        format!("{name}: service answer differs from the single pass")
    });
    // Hits: the production cache, primed by one cold submission.
    let warm = Service::spawn(SvcConfig::default()).expect("service spawns");
    let client = warm.client();
    client.run(job.clone()).expect("service job succeeds");
    for _ in 0..50 {
        let (done, ns) = trace.timed("svc::Client::run(hit)", |_| {
            client.run(job.clone()).expect("service job succeeds")
        });
        out.check(done.cached, || {
            format!("{name}: repeat was not a cache hit")
        });
        s.hits.push(ns);
    }
    warm.shutdown();
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn emit(plan: &Rungs, s: &Sums, svc: Option<SvcStats>, out: &mut Outcome) {
    let n = s.instructions;
    let per = |t: f64| t / n.max(1) as f64;
    let on = |enabled: bool, v: f64| if enabled { v } else { 0.0 };
    let rows: Vec<(&str, f64, f64)> = vec![
        ("cpu (decoded, NullTracer)", s.cpu, s.cpu),
        ("+ tracer boundary", s.tracer, s.tracer - s.cpu),
        ("+ CLS (EventCollector)", s.cls, s.cls - s.tracer),
        ("+ Session", s.session, s.session - s.cls),
        ("+ 1 STR@4 lane", s.lane, s.lane - s.session),
        ("+ 20-lane grid", s.grid, s.grid - s.lane),
        ("+ phase-2 oracle", s.oracle, s.oracle - s.grid),
        ("20-lane checkpointable single pass", s.single, s.single),
        ("+ in-process shards", s.shard, s.shard - s.single),
        ("+ 2-worker dist", s.dist, s.dist - s.shard),
        ("+ svc cold", s.svc_cold, s.svc_cold - s.dist),
        ("batch Engine STR@4 (reference)", s.batch, s.batch),
        ("1-lane stream (kernel path)", s.stream, s.stream - s.cpu),
    ];
    out.note(format!(
        "ladder over {} program(s), {n} guest instructions per pass:",
        s.programs
    ));
    out.note(format!(
        "  {:<36} {:>12} {:>12}",
        "rung", "ns/instr", "marginal"
    ));
    for (rung, total, marg) in rows {
        if total > 0.0 {
            out.note(format!(
                "  {rung:<36} {:>12.3} {:>12.3}",
                per(total),
                per(marg)
            ));
        }
    }

    out.metric("cpu.ns_per_instr", per(s.cpu), "ns/instr");
    out.metric(
        "cpu.decode_us",
        s.decode / s.programs.max(1) as f64 / 1e3,
        "us",
    );
    out.metric(
        "tracer.ns_per_instr",
        marginal(s.tracer, s.cpu, n),
        "ns/instr",
    );
    out.metric("cls.ns_per_instr", marginal(s.cls, s.tracer, n), "ns/instr");
    out.metric(
        "cls.control_per_kinstr",
        s.controls as f64 * 1e3 / n.max(1) as f64,
        "1/kinstr",
    );
    out.metric("cls.loop_events", s.loop_events as f64, "count");
    out.metric(
        "session.ns_per_instr",
        marginal(s.session, s.cls, n),
        "ns/instr",
    );
    out.metric(
        "lane.ns_per_instr",
        marginal(s.lane, s.session, n),
        "ns/instr",
    );
    out.metric(
        "grid.ns_per_lane_instr",
        on(plan.grid, marginal(s.grid, s.lane, n) / 19.0),
        "ns/instr",
    );
    out.metric("engine.batch_ns_per_instr", per(s.batch), "ns/instr");
    for (i, name) in [
        "engine.threads_spawned",
        "engine.verified",
        "engine.squashed",
        "engine.cycles",
    ]
    .iter()
    .enumerate()
    {
        out.metric(name, s.engine[i] as f64, "count");
    }
    out.metric(
        "oracle.ns_per_instr",
        on(plan.oracle, marginal(s.oracle, s.grid, n)),
        "ns/instr",
    );
    out.metric("snapshot.encode_us", mean(&s.encode) / 1e3, "us");
    out.metric("snapshot.decode_us", mean(&s.decode_snap) / 1e3, "us");
    out.metric("snapshot.bytes_mean", mean(&s.snap_bytes), "bytes");
    out.metric("snapshot.bytes_last", mean(&s.snap_last), "bytes");
    out.metric(
        "shard.ns_per_instr",
        on(plan.dist, marginal(s.shard, s.single, n)),
        "ns/instr",
    );
    out.metric(
        "dist.ns_per_instr",
        on(plan.dist, marginal(s.dist, s.shard, n)),
        "ns/instr",
    );
    out.metric("dist.handoff_bytes", s.handoff_bytes as f64, "bytes");
    out.metric("dist.jobs_dispatched", s.jobs_dispatched as f64, "count");
    out.metric("dist.retries", s.retries as f64, "count");
    out.metric(
        "svc.cold_overhead_ms",
        on(
            plan.svc,
            (s.svc_cold - s.dist) / s.programs.max(1) as f64 / 1e6,
        ),
        "ms",
    );
    out.metric(
        "svc.hit_us",
        median(&s.hits).map_or(0.0, |ns| ns / 1e3),
        "us",
    );
    let st = svc.unwrap_or_default();
    out.metric("svc.cache_hits", st.cache_hits as f64, "count");
    out.metric("svc.cache_misses", st.cache_misses as f64, "count");
    out.metric("svc.coalesced", st.coalesced as f64, "count");
    out.metric("svc.rejected", st.rejected as f64, "count");
    out.metric("svc.failed", st.failed as f64, "count");
    out.metric(
        "kernel.ns_per_instr",
        on(plan.kernel, per(s.cpu)),
        "ns/instr",
    );
    out.metric(
        "kernel.stream_ns_per_instr",
        on(plan.kernel, marginal(s.stream, s.cpu, n)),
        "ns/instr",
    );
}

/// The exact simulated counts a speed-only change must leave identical.
pub const EXACT: [&str; 11] = [
    "cls.control_per_kinstr",
    "cls.loop_events",
    "engine.threads_spawned",
    "engine.verified",
    "engine.squashed",
    "engine.cycles",
    "snapshot.bytes_mean",
    "snapshot.bytes_last",
    "dist.handoff_bytes",
    "dist.jobs_dispatched",
    "dist.retries",
];
