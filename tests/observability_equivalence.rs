//! Telemetry must be strictly out-of-band: a run with span timing and
//! journal recording enabled must produce **byte-identical** simulation
//! artifacts — engine reports, session summaries, serialized snapshot
//! bytes — to a telemetry-disabled run. That property is the license
//! for instrumenting the hot paths at all, so it is checked here over
//! the full 18-program workload suite and the generated scenario
//! families, on a run shape that crosses a mid-stream checkpoint.
//!
//! The second half stresses the registry itself: one shared counter
//! hammered concurrently from several sink threads must conserve counts
//! exactly (no lost increments, no double counts).

use std::sync::{Mutex, MutexGuard, OnceLock};

use loopspec::gen::families;
use loopspec::prelude::*;

/// `obs::set_enabled` is process-global state; tests that toggle it
/// must not interleave.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn make_grid() -> EngineGrid {
    let mut g = EngineGrid::new();
    Policy::Idle.add_to_grid(&mut g, 4);
    Policy::Str.add_to_grid(&mut g, 4);
    Policy::StrNested(3).add_to_grid(&mut g, 4);
    g
}

/// Everything a run produces that the paper's numbers depend on.
#[derive(Debug, PartialEq)]
struct Artifacts {
    instructions: u64,
    snapshot: Vec<u8>,
    reports: Vec<EngineReport>,
}

/// Total committed instructions of one uninterrupted pass (used to
/// place the mid-stream checkpoint).
fn instruction_count(program: &Program) -> u64 {
    let session = Session::new();
    let out = session.run(program, RunLimits::default()).expect("runs");
    assert!(out.halted(), "suite programs must halt");
    out.instructions
}

/// Runs `program` with a serialized checkpoint taken at `cut`, then to
/// completion; captures every output telemetry could conceivably have
/// perturbed.
fn run_artifacts(program: &Program, cut: u64) -> Artifacts {
    let mut grid = make_grid();
    let mut session = Session::new();
    session.observe_checkpointable(&mut grid);
    let mid = session
        .advance(program, RunLimits::with_fuel(cut))
        .expect("advances to the cut");
    assert_eq!(mid.instructions, cut);
    let snapshot = session.checkpoint().expect("checkpointable").to_bytes();
    let out = session
        .advance(program, RunLimits::default())
        .expect("runs to completion");
    assert!(out.halted());
    drop(session);
    let reports = (0..grid.len())
        .map(|lane| grid.report(lane).expect("grid finished").clone())
        .collect();
    Artifacts {
        instructions: out.instructions,
        snapshot,
        reports,
    }
}

/// Same program, telemetry on vs off: the artifacts must match bit for
/// bit.
fn check_program(label: &str, program: &Program) {
    let total = instruction_count(program);
    let cut = (total / 2).max(1);
    loopspec::obs::set_enabled(true);
    let instrumented = run_artifacts(program, cut);
    loopspec::obs::set_enabled(false);
    let silent = run_artifacts(program, cut);
    loopspec::obs::set_enabled(true);
    assert_eq!(
        instrumented, silent,
        "{label}: telemetry perturbed the simulation"
    );
}

#[test]
fn all_workloads_run_byte_identical_with_telemetry_on_and_off() {
    let _serial = obs_lock();
    for w in all_workloads() {
        let program = w.build(Scale::Test).expect("assembles");
        check_program(w.name, &program);
    }
}

#[test]
fn generated_families_run_byte_identical_with_telemetry_on_and_off() {
    let _serial = obs_lock();
    for family in families() {
        for seed in [0u64, 1] {
            let ast = family.generate(seed, 1);
            let program = compile_ast(&ast).expect("family compiles");
            check_program(&format!("{}:{seed}", family.name), &program);
        }
    }
}

/// A loop-event sink that bumps a shared registry counter for every
/// event it absorbs, and keeps a thread-local tally as the oracle.
struct HammerSink {
    shared: loopspec::obs::Counter,
    local: u64,
}

impl LoopEventSink for HammerSink {
    fn on_loop_event(&mut self, _ev: &LoopEvent) {
        self.shared.inc();
        self.local += 1;
    }

    fn on_loop_events(&mut self, events: &[LoopEvent]) {
        self.shared.add(events.len() as u64);
        self.local += events.len() as u64;
    }

    fn on_stream_end(&mut self, _instructions: u64) {}
}

#[test]
fn concurrent_sink_threads_conserve_counter_increments() {
    const WORKERS: usize = 8;
    let registry = loopspec::obs::Registry::new();
    let shared = registry.counter("hammer_events");

    let w = workload_by_name("go").expect("workload exists");
    let program = w.build(Scale::Test).expect("assembles");
    let mut collector = EventCollector::default();
    let mut session = Session::new();
    session.observe_loops(&mut collector);
    session
        .run(&program, RunLimits::default())
        .expect("workload runs");
    let (events, n) = collector.into_parts();

    // Every thread drives its own sink through the whole stream, all
    // bumping the one shared counter: the first chunk event by event
    // (`inc`), the rest in session-sized chunks (`add`). The barrier
    // releases them together so their writes overlap.
    let start = std::sync::Barrier::new(WORKERS);
    let locals: Vec<u64> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                let mut sink = HammerSink {
                    shared: shared.clone(),
                    local: 0,
                };
                let (events, start) = (&events, &start);
                scope.spawn(move || {
                    start.wait();
                    let mut chunks = events.chunks(256);
                    for ev in chunks.next().unwrap_or_default() {
                        sink.on_loop_event(ev);
                    }
                    for chunk in chunks {
                        sink.on_loop_events(chunk);
                    }
                    sink.on_stream_end(n);
                    sink.local
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|h| h.join().expect("sink thread"))
            .collect()
    });

    let expected = events.len() as u64 * WORKERS as u64;
    assert!(expected > 0, "the workload must produce loop events");
    assert_eq!(
        locals.iter().sum::<u64>(),
        expected,
        "every thread sees the full event stream"
    );
    assert_eq!(
        shared.get(),
        expected,
        "concurrent increments from {WORKERS} sink threads must conserve counts"
    );
}
