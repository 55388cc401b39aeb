//! Cross-crate integration: the full paper pipeline on real workloads,
//! with structural invariants checked at every stage.

use loopspec::prelude::*;
use std::collections::HashMap;

/// Replays an event stream through a stack machine and checks
/// well-formedness: starts before iterations, matched ends, monotone
/// positions, dense iteration indices.
fn check_event_stream(events: &[LoopEvent]) {
    let mut open: HashMap<LoopId, u32> = HashMap::new(); // loop -> last iter index
    let mut last_pos = 0u64;
    for e in events {
        assert!(e.pos() >= last_pos, "positions must be monotone: {e}");
        last_pos = e.pos();
        match *e {
            LoopEvent::ExecutionStart { loop_id, .. } => {
                let prev = open.insert(loop_id, 1);
                assert!(prev.is_none(), "{loop_id} double-opened");
            }
            LoopEvent::IterationStart { loop_id, iter, .. } => {
                let last = open
                    .get_mut(&loop_id)
                    .unwrap_or_else(|| panic!("iteration of closed {loop_id}"));
                assert_eq!(iter, *last + 1, "iteration indices must be dense");
                *last = iter;
            }
            LoopEvent::ExecutionEnd {
                loop_id,
                iterations,
                ..
            }
            | LoopEvent::Evicted {
                loop_id,
                iterations,
                ..
            } => {
                let last = open
                    .remove(&loop_id)
                    .unwrap_or_else(|| panic!("end of closed {loop_id}"));
                assert_eq!(iterations, last, "end must report the latest iteration");
            }
            LoopEvent::OneShot { .. } => {}
        }
        assert!(
            open.len() <= 16,
            "open loops cannot exceed the CLS capacity"
        );
    }
    assert!(open.is_empty(), "halt must flush the CLS: {open:?}");
}

fn run_workload(name: &str) -> (Vec<LoopEvent>, u64) {
    let w = workload_by_name(name).expect("workload exists");
    let program = w.build(Scale::Test).expect("assembles");
    let mut c = EventCollector::default();
    let summary = Cpu::new()
        .run(&program, &mut c, RunLimits::default())
        .expect("runs");
    assert!(summary.halted());
    c.into_parts()
}

#[test]
fn event_streams_are_well_formed_for_every_workload() {
    for w in all_workloads() {
        let (events, _) = run_workload(w.name);
        check_event_stream(&events);
    }
}

#[test]
fn engine_conservation_laws_hold_across_policies() {
    for name in ["compress", "go", "mgrid", "perl"] {
        let (events, n) = run_workload(name);
        let trace = AnnotatedTrace::build(&events, n);
        let ideal = ideal_tpc(&trace);
        for tus in [2usize, 4, 16] {
            for report in [
                Engine::new(&trace, Policy::Idle, tus).run(),
                Engine::new(&trace, Policy::Str, tus).run(),
                Engine::new(&trace, Policy::StrNested(2), tus).run(),
            ] {
                // Every launched thread resolves exactly once.
                assert_eq!(
                    report.spec.threads_spawned,
                    report.spec.resolved(),
                    "{name}/{tus}: {:?}",
                    report.spec
                );
                // Time can only shrink vs sequential execution.
                assert!(report.cycles <= n, "{name}/{tus}");
                assert!(report.tpc() >= 1.0 - 1e-9, "{name}/{tus}");
                // And never beat the oracle with infinite resources.
                assert!(
                    report.tpc() <= ideal.tpc + 1e-9,
                    "{name}/{tus}: {} > ideal {}",
                    report.tpc(),
                    ideal.tpc
                );
            }
        }
    }
}

#[test]
fn str_tpc_is_monotone_in_thread_units() {
    for name in ["swim", "hydro2d", "vortex"] {
        let (events, n) = run_workload(name);
        let trace = AnnotatedTrace::build(&events, n);
        let mut prev = 0.0;
        for tus in [2usize, 4, 8, 16] {
            let tpc = Engine::new(&trace, Policy::Str, tus).run().tpc();
            assert!(
                tpc >= prev - 0.05,
                "{name}: TPC fell from {prev} to {tpc} at {tus} TUs"
            );
            prev = tpc;
        }
    }
}

#[test]
fn stats_and_annotation_agree_on_totals() {
    for name in ["li", "turb3d"] {
        let (events, n) = run_workload(name);
        let mut stats = LoopStats::new();
        stats.observe_all(&events);
        let report = stats.report(n);
        let trace = AnnotatedTrace::build(&events, n);
        let one_shots = events
            .iter()
            .filter(|e| matches!(e, LoopEvent::OneShot { .. }))
            .count() as u64;
        // The annotator drops one-shots; stats count them as executions.
        assert_eq!(
            report.executions,
            trace.execs.len() as u64 + one_shots,
            "{name}"
        );
        // Detected iterations = total iterations minus the undetected
        // first iteration of every multi-iteration execution.
        let multi = trace.execs.len() as u64;
        assert_eq!(
            trace.detected_iterations(),
            report.iterations - one_shots - multi,
            "{name}"
        );
    }
}

#[test]
fn table_hit_sims_are_bounded_by_unbounded_tables() {
    let (events, _) = run_workload("gcc");
    for kind in [TableKind::Let, TableKind::Lit] {
        let mut best = TableHitSim::unbounded(kind);
        best.observe_all(&events);
        for entries in [2usize, 8] {
            let mut sim = TableHitSim::new(kind, entries);
            sim.observe_all(&events);
            assert!(
                sim.ratio().percent() <= best.ratio().percent() + 1e-9,
                "{kind:?}[{entries}] beats unbounded"
            );
        }
    }
}

#[test]
fn dataspec_profile_is_sane_on_a_workload() {
    let w = workload_by_name("m88ksim").unwrap();
    let program = w.build(Scale::Test).unwrap();
    let mut prof = DataSpecProfiler::new();
    Cpu::new()
        .run(&program, &mut prof, RunLimits::default())
        .unwrap();
    let r = prof.report();
    assert!(r.iterations > 100);
    for v in [
        r.same_path_percent,
        r.lr_pred_percent,
        r.lm_pred_percent,
        r.all_lr_percent,
        r.all_lm_percent,
        r.all_data_percent,
    ] {
        assert!((0.0..=100.0).contains(&v), "{r:?}");
    }
    // all-data is the conjunction: can't beat its components.
    assert!(r.all_data_percent <= r.all_lr_percent + 1e-9);
    assert!(r.all_data_percent <= r.all_lm_percent + 1e-9);
}

#[test]
fn overlapped_loops_are_tracked() {
    // Hand-assembled overlapped loops (paper Figure 2c/2d):
    // T1 < T2 <= B1 < B2. Flow: run [T1,B1] twice, fall through into
    // [T2,B2] twice, exit.
    use loopspec::asm::Assembler;
    use loopspec::isa::Instruction;

    let mut a = Assembler::new();
    let (x, y) = (Reg::R8, Reg::R9);
    a.emit(Instruction::LoadImm { rd: x, imm: 2 }); // loop-1 counter
    a.emit(Instruction::LoadImm { rd: y, imm: 2 }); // loop-2 counter
    let t1 = a.label_here();
    a.emit(Instruction::AluImm {
        op: AluOp::Add,
        rd: x,
        ra: x,
        imm: -1,
    });
    let t2 = a.label_here();
    a.emit(Instruction::Nop);
    a.branch(Cond::GtS, x, Reg::R0, t1); // B1: closes loop 1
    a.emit(Instruction::AluImm {
        op: AluOp::Add,
        rd: y,
        ra: y,
        imm: -1,
    });
    a.branch(Cond::GtS, y, Reg::R0, t2); // B2: closes loop 2
    a.emit(Instruction::Halt);
    let program = a.finish().unwrap();

    let mut c = EventCollector::default();
    Cpu::new()
        .run(&program, &mut c, RunLimits::default())
        .unwrap();
    let (events, _) = c.into_parts();
    check_event_stream(&events);
    let starts: Vec<LoopId> = events
        .iter()
        .filter_map(|e| match e {
            LoopEvent::ExecutionStart { loop_id, .. } => Some(*loop_id),
            _ => None,
        })
        .collect();
    // Both loops detected; loop 2's first iteration overlaps loop 1's
    // last (they coexist on the CLS).
    assert_eq!(starts.len(), 2, "{events:?}");
}
