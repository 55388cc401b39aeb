//! The kernel-extension acceptance criterion: a registered kernel
//! executing natively must be **observably indistinguishable** from
//! instruction-by-instruction execution of its body — for every
//! registered kernel and for generated programs that interleave
//! kernel calls with ordinary code.
//!
//! Four execution paths are held to byte-identity per workload:
//!
//! 1. the legacy interpreter (`Interp::Legacy`),
//! 2. the pre-decoded interpreter (the production default),
//! 3. an in-process sharded run (K = 4 snapshot-linked shards),
//! 4. a 2-worker-process distributed run (the real `dist_run` binary
//!    over stdio pipes).
//!
//! Compared artifacts: per-lane engine reports, serialized final sink
//! state, total instruction counts, and — for the two interpreters —
//! the **mid-stream snapshot bytes** of a checkpoint taken halfway
//! through the run (which lands inside a kernel body for the `kern:`
//! drivers, exercising the v3 pause cursor).
//!
//! All four retire kernel bodies natively (`KernelMode::Native`). A
//! fifth path is the instruction-by-instruction reference itself: a
//! bare legacy `Cpu` in `KernelMode::Interp` into an `EventCollector`,
//! replayed by the batch `Engine`. Its loop events, instruction count
//! and reports must equal the decoded session's.

use std::process::Command;

use loopspec::core::SnapshotState;
use loopspec::cpu::KernelMode;
use loopspec::dist::single_pass_outcome;
use loopspec::isa::kernel;
use loopspec::prelude::*;

/// Engine lanes: one per policy family (coverage, not the full grid).
fn lanes() -> Vec<LaneSpec> {
    vec![
        LaneSpec {
            policy: Policy::Idle,
            tus: 4,
        },
        LaneSpec {
            policy: Policy::Str,
            tus: 4,
        },
        LaneSpec {
            policy: Policy::StrNested(3),
            tus: 4,
        },
    ]
}

fn grid() -> EngineGrid {
    let mut g = EngineGrid::new();
    Policy::Idle.add_to_grid(&mut g, 4);
    Policy::Str.add_to_grid(&mut g, 4);
    Policy::StrNested(3).add_to_grid(&mut g, 4);
    g
}

/// Every workload under test: each registered kernel through its
/// calibrated `kern:` driver, plus generated `kernels`-family programs
/// (kernel calls interleaved with ordinary statements) for five seeds.
fn workload_names() -> Vec<String> {
    let mut names: Vec<String> = kernel::all()
        .iter()
        .map(|def| format!("kern:{}", def.name))
        .collect();
    assert!(names.len() >= 4, "the builtin registry shrank");
    names.extend((0..5).map(|seed| format!("gen:kernels:{seed}")));
    names
}

/// One in-process pass: checkpoint at `cut` instructions, run to the
/// end, return everything the equivalence compares.
struct PassResult {
    snapshot: Vec<u8>,
    reports: Vec<EngineReport>,
    state: Vec<u8>,
    instructions: u64,
}

fn in_process(program: &Program, interp: Interp, cut: u64) -> PassResult {
    let mut g = grid();
    let mut session = Session::new();
    session.set_interp(interp);
    session.observe_checkpointable(&mut g);
    let mut summary = session
        .advance(program, RunLimits::with_fuel(cut))
        .expect("advances to the cut");
    assert!(!session.is_ended(), "the cut must land mid-stream");
    let snapshot = session.checkpoint().expect("checkpointable").to_bytes();
    while !session.is_ended() {
        summary = session
            .advance(program, RunLimits::with_fuel(cut))
            .expect("advances");
    }
    let reports = g.reports().expect("stream ended").to_vec();
    let mut enc = loopspec::isa::snap::Enc::new();
    g.save_state(&mut enc);
    PassResult {
        snapshot,
        reports,
        state: enc.into_bytes(),
        instructions: summary.instructions,
    }
}

/// Total retired instructions of `program`, measured raw.
fn instruction_count(program: &Program) -> u64 {
    let decoded = DecodedProgram::new(program);
    let mut tracer = loopspec::cpu::NullTracer;
    let out = Cpu::new()
        .run_decoded(&decoded, &mut tracer, RunLimits::with_fuel(2_000_000_000))
        .expect("runs");
    assert!(out.halted(), "workload must halt");
    out.retired
}

#[test]
fn legacy_decoded_and_sharded_paths_are_byte_identical() {
    for name in workload_names() {
        let program = build_named(&name, Scale::Test)
            .expect("known name")
            .expect("assembles");
        let total = instruction_count(&program);
        let cut = (total / 2).max(1);

        let legacy = in_process(&program, Interp::Legacy, cut);
        let decoded = in_process(&program, Interp::Decoded, cut);

        assert_eq!(legacy.instructions, total, "{name}: stream length");
        assert_eq!(
            legacy.instructions, decoded.instructions,
            "{name}: instruction count"
        );
        assert_eq!(
            legacy.snapshot, decoded.snapshot,
            "{name}: mid-stream snapshot bytes must be interpreter-independent"
        );
        assert_eq!(legacy.reports, decoded.reports, "{name}: lane reports");
        assert_eq!(legacy.state, decoded.state, "{name}: final sink state");

        // Sharded K=4: the same grid fed across snapshot-linked shards.
        let sharded = ShardedRun::new(4)
            .run(&program, RunLimits::with_fuel(total), grid)
            .expect("sharded run succeeds");
        assert!(
            sharded.shards_run > 1,
            "{name}: must cross shard boundaries"
        );
        let shard_reports = sharded.sink.reports().expect("stream ended");
        assert_eq!(decoded.reports, shard_reports, "{name}: sharded reports");
        let mut enc = loopspec::isa::snap::Enc::new();
        sharded.sink.save_state(&mut enc);
        assert_eq!(
            decoded.state,
            enc.into_bytes(),
            "{name}: sharded sink state"
        );
    }
}

#[test]
fn the_interp_kernel_reference_matches_the_decoded_session() {
    let limits = RunLimits::with_fuel(2_000_000_000);
    for name in workload_names() {
        let program = build_named(&name, Scale::Test)
            .expect("known name")
            .expect("assembles");

        let mut events = EventCollector::default();
        let mut g = grid();
        let mut session = Session::new();
        session.set_interp(Interp::Decoded);
        session.observe_loops(&mut events).observe_loops(&mut g);
        session.run(&program, limits).expect("runs");
        let reports = g.reports().expect("stream ended").to_vec();
        let (events, instructions) = events.into_parts();

        let mut cpu = Cpu::new();
        cpu.set_kernel_mode(KernelMode::Interp);
        let mut reference = EventCollector::default();
        let out = cpu.run(&program, &mut reference, limits).expect("runs");
        assert!(out.halted(), "{name}: workload must halt");
        let (ref_events, ref_instructions) = reference.into_parts();
        assert_eq!(ref_instructions, instructions, "{name}: instruction count");
        assert_eq!(ref_events, events, "{name}: loop events");
        let trace = AnnotatedTrace::build(&ref_events, ref_instructions);
        let ref_reports: Vec<EngineReport> = lanes()
            .iter()
            .map(|lane| Engine::new(&trace, lane.policy, lane.tus as usize).run())
            .collect();
        assert_eq!(ref_reports, reports, "{name}: batch engine reports");
    }
}

#[test]
fn two_worker_distributed_runs_match_the_single_pass() {
    let spec = SuiteSpec::new(workload_names(), Scale::Test, lanes(), Plan::sliced(30_000));
    let coordinator = Coordinator::spawn_with(2, |_| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_dist_run"));
        cmd.arg("--worker");
        cmd
    })
    .expect("workers spawn");
    let outcome = coordinator.run_suite(&spec).expect("suite succeeds");
    assert_eq!(outcome.workers_lost, 0);
    for o in &outcome.outcomes {
        let reference = single_pass_outcome(&o.workload, spec.scale, &spec.lanes, spec.total_fuel)
            .expect("reference run succeeds");
        assert_eq!(
            o.instructions, reference.instructions,
            "{}: instruction count",
            o.workload
        );
        assert_eq!(
            o.lanes, reference.lanes,
            "{}: lane reports must be byte-identical",
            o.workload
        );
        assert_eq!(
            o.state, reference.state,
            "{}: serialized sink state must be byte-identical",
            o.workload
        );
        // Short generated programs can fit one slice; longer ones must
        // really cross checkpoint boundaries.
        if reference.instructions > 30_000 {
            assert!(o.shards_run > 1, "{}: crossed shard boundaries", o.workload);
        }
    }
}
