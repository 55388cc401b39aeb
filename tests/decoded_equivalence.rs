//! The decoded front-end's bit-identity contract: the pre-decoded
//! threaded-code interpreter (one dispatch per instruction over
//! straight-line runs) must be indistinguishable from the legacy
//! fetch/decode loop — same [`InstrEvent`] streams under a full-demand
//! tracer, same loop events and engine reports, and byte-identical
//! snapshots across checkpoint cuts that land mid-block and mid-chunk —
//! on all 18 workloads and on randomly generated structured programs.

use loopspec::prelude::*;
use loopspec_testutil::Rng;

// ---------------------------------------------------------------------
// Raw-CPU equivalence on random programs.

/// Full-demand tracer: records every event verbatim, so any divergence
/// in reads, writes, memory accesses or control outcomes is caught.
#[derive(Debug, Default)]
struct Recorder {
    events: Vec<InstrEvent>,
}

impl Tracer for Recorder {
    fn on_retire(&mut self, ev: &InstrEvent) {
        self.events.push(*ev);
    }
}

fn arch_state(cpu: &Cpu) -> Vec<u8> {
    let mut enc = loopspec::isa::snap::Enc::new();
    cpu.save_state(&mut enc);
    enc.into_bytes()
}

/// A compact random structured program: nested counted loops, two-sided
/// conditionals, static loads/stores, float work and calls — enough
/// variety to exercise every flat opcode class and straight-line run
/// shape the decoder emits.
fn random_program(seed: u64) -> Program {
    let mut r = Rng::new(seed);
    let mut b = ProgramBuilder::with_seed(seed as i64);
    let slot = b.alloc_static(8);
    let acc = b.alloc_reg();
    b.li(acc, 0);
    for _ in 0..r.range(1, 4) {
        let trip = r.range(2, 9) as i64;
        let inner = r.range(2, 6) as i64;
        let work = r.range(1, 7) as u32;
        match r.below(4) {
            0 => b.counted_loop(trip, |b, i| {
                b.work(work);
                b.op(AluOp::Add, acc, acc, i);
            }),
            1 => b.counted_loop(trip, |b, i| {
                b.counted_loop(inner, |b, j| {
                    b.work(work);
                    b.op(AluOp::Xor, acc, acc, j);
                });
                b.op(AluOp::Add, acc, acc, i);
            }),
            2 => b.counted_loop(trip, |b, i| {
                b.if_else(
                    Cond::Eq,
                    i,
                    Reg::R0,
                    |b| b.work(work),
                    |b| {
                        b.store_idx(i, slot, i);
                        b.load_idx(acc, slot, i);
                    },
                );
            }),
            _ => b.counted_loop(trip, |b, i| {
                b.fwork(work.min(3));
                let t = b.alloc_reg();
                b.rng_below(t, 6);
                b.break_if(Cond::Eq, t, Reg::R0);
                b.free_reg(t);
                b.op(AluOp::Sub, acc, acc, i);
            }),
        }
    }
    b.store_static(acc, slot);
    b.free_reg(acc);
    b.finish().expect("generated program assembles")
}

#[test]
fn random_programs_match_legacy_events_and_state() {
    for seed in 0..32u64 {
        let p = random_program(seed);
        let decoded = DecodedProgram::new(&p);

        let mut legacy_cpu = Cpu::new();
        let mut legacy = Recorder::default();
        let a = legacy_cpu
            .run(&p, &mut legacy, RunLimits::with_fuel(200_000))
            .expect("legacy runs");

        let mut decoded_cpu = Cpu::new();
        let mut traced = Recorder::default();
        let b = decoded_cpu
            .run_decoded(&decoded, &mut traced, RunLimits::with_fuel(200_000))
            .expect("decoded runs");

        assert_eq!(a.retired, b.retired, "seed {seed}");
        assert_eq!(a.completion, b.completion, "seed {seed}");
        assert_eq!(legacy.events, traced.events, "seed {seed}");
        assert_eq!(
            arch_state(&legacy_cpu),
            arch_state(&decoded_cpu),
            "seed {seed}"
        );
    }
}

#[test]
fn random_programs_survive_odd_fuel_slices() {
    // Resume the decoded interpreter in fuel slices chosen to land
    // inside straight-line runs and before branches; every pause must sit
    // on an instruction boundary with state equal to the legacy
    // interpreter paused at the same count.
    for seed in 0..12u64 {
        let p = random_program(seed);
        let decoded = DecodedProgram::new(&p);
        let fuel = 7 + seed % 5;

        let mut legacy_cpu = Cpu::new();
        let mut decoded_cpu = Cpu::new();
        let mut legacy = Recorder::default();
        let mut traced = Recorder::default();
        let mut first = true;
        loop {
            let (a, b) = if first {
                first = false;
                (
                    legacy_cpu
                        .run(&p, &mut legacy, RunLimits::with_fuel(fuel))
                        .expect("legacy runs"),
                    decoded_cpu
                        .run_decoded(&decoded, &mut traced, RunLimits::with_fuel(fuel))
                        .expect("decoded runs"),
                )
            } else {
                (
                    legacy_cpu
                        .resume(&p, &mut legacy, RunLimits::with_fuel(fuel))
                        .expect("legacy resumes"),
                    decoded_cpu
                        .resume_decoded(&decoded, &mut traced, RunLimits::with_fuel(fuel))
                        .expect("decoded resumes"),
                )
            };
            assert_eq!(a.completion, b.completion, "seed {seed}");
            assert_eq!(
                arch_state(&legacy_cpu),
                arch_state(&decoded_cpu),
                "seed {seed} pause"
            );
            if a.halted() {
                break;
            }
        }
        assert_eq!(legacy.events, traced.events, "seed {seed}");
    }
}

// ---------------------------------------------------------------------
// Session-level equivalence on the paper's workload suite.

fn session_pass(p: &Program, interp: Interp) -> (Vec<LoopEvent>, u64, Vec<EngineReport>) {
    let mut events = EventCollector::default();
    let mut grid = EngineGrid::new();
    grid.push_idle(4);
    grid.push_str(4);
    grid.push_str_nested(2, 4);
    let mut session = Session::new();
    session.set_interp(interp);
    session.observe_loops(&mut events).observe_loops(&mut grid);
    session.run(p, RunLimits::default()).expect("runs");
    let reports = grid.reports().expect("finished").to_vec();
    let (evs, n) = events.into_parts();
    (evs, n, reports)
}

#[test]
fn all_workloads_match_legacy_sessions() {
    for w in all_workloads() {
        let p = w.build(Scale::Test).expect("assembles");
        let (ea, na, ra) = session_pass(&p, Interp::Legacy);
        let (eb, nb, rb) = session_pass(&p, Interp::Decoded);
        assert_eq!(na, nb, "{}", w.name);
        assert_eq!(ea, eb, "{}", w.name);
        assert_eq!(ra, rb, "{}", w.name);
    }
}

// ---------------------------------------------------------------------
// Snapshot bytes across checkpoint cuts.

fn make_engine() -> EngineGrid {
    let mut grid = EngineGrid::new();
    grid.push_str(4);
    grid
}

/// Advances in `fuel`-sized slices, checkpointing at every pause, and
/// returns (snapshot byte blobs, final report).
fn checkpoint_chain(p: &Program, interp: Interp, fuel: u64) -> (Vec<Vec<u8>>, EngineReport) {
    let mut engine = make_engine();
    let mut session = Session::new();
    session.set_interp(interp);
    session.observe_checkpointable(&mut engine);
    let mut snaps = Vec::new();
    loop {
        let s = session
            .advance(p, RunLimits::with_fuel(fuel))
            .expect("advances");
        if s.halted() {
            break;
        }
        snaps.push(session.checkpoint().expect("checkpointable").to_bytes());
    }
    (snaps, engine.report(0).expect("finished").clone())
}

#[test]
fn checkpoint_bytes_match_at_mid_block_and_mid_chunk_cuts() {
    let w = workload_by_name("compress").expect("exists");
    let p = w.build(Scale::Test).expect("assembles");
    // 997 is odd and coprime to the 256-event chunk size, so cuts land
    // mid-chunk; and it is not a multiple of any basic-block length, so
    // the decoded interpreter is forced to pause inside straight-line
    // runs.
    let (snaps_legacy, report_legacy) = checkpoint_chain(&p, Interp::Legacy, 997);
    let (snaps_decoded, report_decoded) = checkpoint_chain(&p, Interp::Decoded, 997);
    assert_eq!(snaps_legacy.len(), snaps_decoded.len());
    assert!(!snaps_legacy.is_empty(), "the run must pause at least once");
    for (k, (a, b)) in snaps_legacy.iter().zip(&snaps_decoded).enumerate() {
        assert_eq!(a, b, "snapshot bytes diverge at cut {k}");
    }
    assert_eq!(report_legacy, report_decoded);
}

#[test]
fn snapshots_resume_across_interpreters() {
    let w = workload_by_name("go").expect("exists");
    let p = w.build(Scale::Test).expect("assembles");

    let mut reference = make_engine();
    let mut session = Session::new();
    session.set_interp(Interp::Legacy);
    session.observe_checkpointable(&mut reference);
    session.run(&p, RunLimits::default()).expect("runs");
    let expected = reference.report(0).expect("finished").clone();

    for (from, to) in [
        (Interp::Legacy, Interp::Decoded),
        (Interp::Decoded, Interp::Legacy),
    ] {
        let mut engine_a = make_engine();
        let mut session_a = Session::new();
        session_a.set_interp(from);
        session_a.observe_checkpointable(&mut engine_a);
        let s = session_a
            .advance(&p, RunLimits::with_fuel(12_345))
            .expect("advances");
        assert!(!s.halted(), "go must outlive the first slice");
        let bytes = session_a.checkpoint().expect("checkpointable").to_bytes();

        let mut engine_b = make_engine();
        let mut session_b = Session::new();
        session_b.set_interp(to);
        session_b.observe_checkpointable(&mut engine_b);
        session_b
            .resume(&Snapshot::from_bytes(&bytes).expect("decodes"))
            .expect("resumes");
        session_b
            .advance(&p, RunLimits::default())
            .expect("finishes");
        assert_eq!(
            engine_b.report(0).expect("finished"),
            &expected,
            "{from}->{to}"
        );
    }
}

#[test]
fn sharded_runs_match_across_interpreters() {
    let w = workload_by_name("compress").expect("exists");
    let p = w.build(Scale::Test).expect("assembles");
    let make_grid = || {
        let mut g = EngineGrid::new();
        g.push_idle(4);
        g.push_str(4);
        g
    };

    let mut reference = make_grid();
    let mut session = Session::new();
    session.set_interp(Interp::Legacy);
    session.observe_checkpointable(&mut reference);
    let single = session.run(&p, RunLimits::default()).expect("runs");

    // ShardedRun builds its sessions internally, which default to the
    // decoded interpreter: K=4 decoded shards must reproduce the legacy
    // single pass bit for bit.
    let out = ShardedRun::new(4)
        .run(&p, RunLimits::with_fuel(single.instructions), make_grid)
        .expect("sharded run succeeds");
    assert_eq!(out.shards_run, 4);
    assert_eq!(out.sink.reports(), reference.reports());
}
