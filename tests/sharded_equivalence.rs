//! The sharded-replay acceptance criterion: splitting one workload
//! trace into K contiguous, checkpoint-linked shards (each shard a
//! fresh process-shaped worker: new sinks, state restored from
//! serialized snapshot bytes) must produce **bit-identical** policy
//! reports and event streams to the single-pass `Session`, for
//! K ∈ {2, 4, 8}, on all 18 workloads.

use loopspec::prelude::*;

/// The policy lanes every comparison checks: one per policy family.
fn make_grid() -> EngineGrid {
    let mut g = EngineGrid::new();
    Policy::Idle.add_to_grid(&mut g, 4);
    Policy::Str.add_to_grid(&mut g, 4);
    Policy::StrNested(3).add_to_grid(&mut g, 4);
    g
}

struct Sinks {
    events: EventCollector,
    grid: EngineGrid,
}

impl Sinks {
    fn new() -> Self {
        Sinks {
            events: EventCollector::default(),
            grid: make_grid(),
        }
    }
}

impl LoopEventSink for Sinks {
    fn on_loop_event(&mut self, ev: &LoopEvent) {
        self.events.on_loop_event(ev);
        self.grid.on_loop_event(ev);
    }

    fn on_loop_events(&mut self, events: &[LoopEvent]) {
        self.events.on_loop_events(events);
        self.grid.on_loop_events(events);
    }

    fn on_stream_end(&mut self, instructions: u64) {
        self.events.on_stream_end(instructions);
        self.grid.on_stream_end(instructions);
    }
}

impl SnapshotState for Sinks {
    fn save_state(&self, out: &mut loopspec::core::snap::Enc) {
        self.events.save_state(out);
        self.grid.save_state(out);
    }

    fn load_state(
        &mut self,
        src: &mut loopspec::core::snap::Dec<'_>,
    ) -> Result<(), loopspec::core::snap::SnapError> {
        self.events.load_state(src)?;
        self.grid.load_state(src)
    }
}

fn check_workload(name: &str) {
    let w = workload_by_name(name).expect("workload exists");
    let program = w.build(Scale::Test).expect("assembles");

    // Reference: one uninterrupted streaming pass.
    let mut reference = Sinks::new();
    let mut session = Session::new();
    session.observe_checkpointable(&mut reference);
    let single = session.run(&program, RunLimits::default()).expect("runs");
    assert!(single.halted(), "{name} must halt");

    for shards in [2usize, 4, 8] {
        let out = ShardedRun::new(shards)
            .run(
                &program,
                RunLimits::with_fuel(single.instructions),
                Sinks::new,
            )
            .unwrap_or_else(|e| panic!("{name} K={shards}: {e}"));
        assert_eq!(
            out.summary.instructions, single.instructions,
            "{name} K={shards}: instruction count"
        );
        assert_eq!(
            out.sink.grid.reports(),
            reference.grid.reports(),
            "{name} K={shards}: policy reports must be bit-identical"
        );
        assert_eq!(
            out.sink.events.events(),
            reference.events.events(),
            "{name} K={shards}: event stream must be bit-identical"
        );
        assert_eq!(out.shards_run, shards, "{name} K={shards}: all shards ran");
        assert!(
            out.handoff_bytes > 0,
            "{name} K={shards}: snapshots crossed"
        );
    }
}

#[test]
fn sharded_replay_matches_single_pass_on_all_workloads() {
    for w in all_workloads() {
        check_workload(w.name);
    }
}

#[test]
fn worker_thread_handoff_matches_in_thread_sharding() {
    // Each shard on its own thread, with only the snapshot bytes
    // crossing between threads, is the same computation as the
    // in-thread loop.
    for name in ["compress", "li"] {
        let w = workload_by_name(name).unwrap();
        let program = w.build(Scale::Test).unwrap();
        let n = {
            let mut probe = loopspec_core::CountingSink::default();
            let mut session = Session::new();
            session.observe_loops(&mut probe);
            session
                .run(&program, RunLimits::default())
                .unwrap()
                .instructions
        };
        let seq = ShardedRun::new(4)
            .run(&program, RunLimits::with_fuel(n), Sinks::new)
            .unwrap();
        let plan = ShardedRun::new(4).plan();
        let (mut handoff, mut handoff_bytes, mut shard) = (None::<Vec<u8>>, 0, 0);
        let par = loop {
            let bytes = handoff.take();
            let (sink, step) = std::thread::scope(|s| {
                s.spawn(|| {
                    let mut sink = Sinks::new();
                    let mut session = Session::new();
                    session.observe_checkpointable(&mut sink);
                    let limits = RunLimits::with_fuel(n);
                    let step = plan.step(&program, limits, shard, bytes.as_deref(), &mut session);
                    drop(session);
                    (sink, step.unwrap())
                })
                .join()
                .unwrap()
            });
            match step.handoff {
                Some(bytes) => {
                    handoff_bytes += bytes.len() as u64;
                    handoff = Some(bytes);
                    shard += 1;
                }
                None => break sink,
            }
        };
        assert_eq!(seq.sink.grid.reports(), par.grid.reports(), "{name}");
        assert_eq!(seq.sink.events.events(), par.events.events(), "{name}");
        assert_eq!(seq.shards_run, shard + 1, "{name}");
        assert_eq!(seq.handoff_bytes, handoff_bytes, "{name}");
    }
}
