//! The differential property harness.
//!
//! For one generated program, [`check_program`] drives every execution
//! path the repo has and cross-checks them:
//!
//! 1. **Legacy CPU** — runs to halt under an [`EventCollector`]; the
//!    loop-event stream must be well-formed ([`check_events`]).
//! 2. **Decoded CPU** — same program through the pre-decoded
//!    threaded-code front-end: identical events, retired count and
//!    serialized architectural state, including under an odd,
//!    seed-derived fuel slice with pause/resume.
//! 3. **Speculation engines** — batch [`Engine`] runs at 2/4/8/16 TUs
//!    must obey the conservation laws (spawned == resolved, TPC within
//!    `[1, ideal]`), and the streaming engine must match batch reports
//!    bit for bit.
//! 4. **Streaming vs sharded** — a single-pass [`Session`] with an
//!    [`EngineGrid`] must equal `K ∈ {2, 4}` checkpoint-linked
//!    [`ShardedRun`]s, byte-identical reports, on both interpreters.
//!
//! Failures carry a self-contained replay line
//! (`genfuzz --replay family:seed`) so any CI failure reproduces
//! locally with one command.

use std::collections::HashMap;
use std::fmt;

use loopspec_core::{EventCollector, LoopEvent, LoopId};
use loopspec_cpu::{Cpu, DecodedProgram, RunLimits};
use loopspec_mt::{ideal_tpc, AnnotatedTrace, Engine, EngineGrid, Policy};
use loopspec_pipeline::{Interp, Session, ShardedRun};

use crate::family::{families, Family};

/// Fuel per unit of size — generous: generated programs are built to
/// terminate well below this, so hitting the cap is itself a failure.
const FUEL_PER_SIZE: u64 = 4_000_000;

/// One harness failure, carrying everything needed to reproduce it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// Family name.
    pub family: String,
    /// Generator seed.
    pub seed: u64,
    /// What diverged or broke.
    pub what: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "gen harness failure in {}:{} — {}",
            self.family, self.seed, self.what
        )?;
        write!(
            f,
            "    reproduce with: genfuzz --replay {}:{}",
            self.family, self.seed
        )
    }
}

impl std::error::Error for Failure {}

/// Cheap summary of one checked program, aggregated per family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramCheck {
    /// Instructions the program retired.
    pub instructions: u64,
    /// Loop events the detector emitted.
    pub loop_events: u64,
}

/// Event-stream well-formedness: monotone positions, dense iteration
/// indices, matched open/close, nothing left open at halt. (The checker
/// the property suite has always used, now shared library code.)
///
/// # Errors
///
/// Returns a description of the first malformation found.
pub fn check_events(events: &[LoopEvent]) -> Result<(), String> {
    let mut open: HashMap<LoopId, u32> = HashMap::new();
    let mut last_pos = 0u64;
    for e in events {
        if e.pos() < last_pos {
            return Err(format!("position went backwards at {e}"));
        }
        last_pos = e.pos();
        match *e {
            LoopEvent::ExecutionStart { loop_id, .. } => {
                if open.insert(loop_id, 1).is_some() {
                    return Err(format!("double open {loop_id}"));
                }
            }
            LoopEvent::IterationStart { loop_id, iter, .. } => {
                let last = open
                    .get_mut(&loop_id)
                    .ok_or_else(|| format!("iteration of closed {loop_id}"))?;
                if iter != *last + 1 {
                    return Err(format!(
                        "non-dense iteration index on {loop_id}: {iter} after {last}"
                    ));
                }
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
                    .ok_or_else(|| format!("close of unopened {loop_id}"))?;
                if iterations != last {
                    return Err(format!(
                        "{loop_id} closed with {iterations} iterations, saw {last}"
                    ));
                }
            }
            LoopEvent::OneShot { .. } => {}
        }
    }
    if !open.is_empty() {
        return Err(format!("{} loops left open at halt", open.len()));
    }
    Ok(())
}

/// The lane set every streaming/sharded comparison runs: an idle
/// baseline, STR at two TU counts, and nested STR.
fn make_grid() -> EngineGrid {
    let mut g = EngineGrid::new();
    Policy::Idle.add_to_grid(&mut g, 4);
    Policy::Str.add_to_grid(&mut g, 2);
    Policy::Str.add_to_grid(&mut g, 4);
    Policy::StrNested(2).add_to_grid(&mut g, 4);
    g
}

/// Runs `(family, seed, size)` through every execution path and
/// cross-checks them.
///
/// # Errors
///
/// Returns a [`Failure`] naming the first divergence, with a replay
/// line embedded in its `Display`.
pub fn check_program(family: &Family, seed: u64, size: u32) -> Result<ProgramCheck, Failure> {
    let fail = |what: String| Failure {
        family: family.name.to_string(),
        seed,
        what,
    };
    let ast = family.generate(seed, size);
    let program = crate::compile(&ast).map_err(|e| fail(format!("failed to assemble: {e}")))?;
    let fuel = FUEL_PER_SIZE * size.max(1) as u64;
    let limits = RunLimits::with_fuel(fuel);

    // 1. Legacy CPU + event stream.
    let mut legacy_cpu = Cpu::new();
    let mut collector = EventCollector::default();
    let summary = legacy_cpu
        .run(&program, &mut collector, limits)
        .map_err(|e| fail(format!("legacy cpu fault: {e}")))?;
    if !summary.halted() {
        return Err(fail(format!(
            "did not halt within {fuel} instructions (retired {})",
            summary.retired
        )));
    }
    let (events, n) = collector.into_parts();
    check_events(&events).map_err(|e| fail(format!("malformed event stream: {e}")))?;

    // 2. Decoded CPU: identical events, retirement count and state.
    let decoded = DecodedProgram::new(&program);
    let mut decoded_cpu = Cpu::new();
    let mut decoded_collector = EventCollector::default();
    let dsummary = decoded_cpu
        .run_decoded(&decoded, &mut decoded_collector, limits)
        .map_err(|e| fail(format!("decoded cpu fault: {e}")))?;
    if dsummary.retired != summary.retired {
        return Err(fail(format!(
            "decoded retired {} vs legacy {}",
            dsummary.retired, summary.retired
        )));
    }
    let (devents, dn) = decoded_collector.into_parts();
    if dn != n || devents != events {
        return Err(fail("decoded loop events diverge from legacy".into()));
    }
    if arch_state(&legacy_cpu) != arch_state(&decoded_cpu) {
        return Err(fail("decoded final state diverges from legacy".into()));
    }

    // 2b. Decoded under an odd seed-derived fuel slice, pause/resume.
    let slice = 11 + seed.wrapping_mul(7919) % 97;
    let mut sliced_cpu = Cpu::new();
    let mut sliced_collector = EventCollector::default();
    let mut first = true;
    loop {
        let s = if first {
            first = false;
            sliced_cpu.run_decoded(&decoded, &mut sliced_collector, RunLimits::with_fuel(slice))
        } else {
            sliced_cpu.resume_decoded(&decoded, &mut sliced_collector, RunLimits::with_fuel(slice))
        }
        .map_err(|e| fail(format!("decoded cpu fault mid-slice: {e}")))?;
        if s.halted() {
            break;
        }
        if sliced_cpu.retired() >= fuel {
            return Err(fail("sliced decoded run overran the fuel cap".into()));
        }
    }
    let (sevents, sn) = sliced_collector.into_parts();
    if sn != n || sevents != events {
        return Err(fail(format!(
            "decoded events diverge under fuel slices of {slice}"
        )));
    }
    if arch_state(&sliced_cpu) != arch_state(&legacy_cpu) {
        return Err(fail(format!(
            "decoded state diverges under fuel slices of {slice}"
        )));
    }

    // 3. Batch engine conservation laws at every TU count.
    let trace = AnnotatedTrace::build(&events, n);
    let ideal = ideal_tpc(&trace);
    if ideal.tpc < 1.0 - 1e-9 {
        return Err(fail(format!("ideal TPC {} below 1", ideal.tpc)));
    }
    for tus in [2usize, 4, 8, 16] {
        let r = Engine::new(&trace, Policy::Str, tus).run();
        if r.spec.threads_spawned != r.spec.resolved() {
            return Err(fail(format!(
                "STR@{tus}: {} spawned vs {} resolved",
                r.spec.threads_spawned,
                r.spec.resolved()
            )));
        }
        if r.cycles > n {
            return Err(fail(format!("STR@{tus}: {} cycles > {n} instrs", r.cycles)));
        }
        if r.tpc() < 1.0 - 1e-9 || r.tpc() > ideal.tpc + 1e-9 {
            return Err(fail(format!(
                "STR@{tus}: TPC {} outside [1, {}]",
                r.tpc(),
                ideal.tpc
            )));
        }
    }
    {
        let r = Engine::new(&trace, Policy::StrNested(2), 4).run();
        if r.spec.threads_spawned != r.spec.resolved() {
            return Err(fail("STR-nested@4: spawned != resolved".into()));
        }
    }

    // 4. Streaming session (both interpreters) vs K-sharded runs.
    let stream_reports = |interp: Interp| -> Result<Vec<loopspec_mt::EngineReport>, Failure> {
        let mut grid = make_grid();
        let mut session = Session::new();
        session.set_interp(interp);
        session.observe_checkpointable(&mut grid);
        let s = session
            .run(&program, limits)
            .map_err(|e| fail(format!("{interp:?} session fault: {e}")))?;
        if s.instructions != n {
            return Err(fail(format!(
                "{interp:?} session retired {} vs cpu {n}",
                s.instructions
            )));
        }
        Ok(grid.reports().expect("stream ended").to_vec())
    };
    let reference = stream_reports(Interp::Legacy)?;
    let decoded_reports = stream_reports(Interp::Decoded)?;
    if decoded_reports != reference {
        return Err(fail("decoded session reports diverge from legacy".into()));
    }
    for k in [2usize, 4] {
        let out = ShardedRun::new(k)
            .run(&program, RunLimits::with_fuel(n), make_grid)
            .map_err(|e| fail(format!("{k}-sharded run failed: {e}")))?;
        if out.sink.reports() != Some(&reference[..]) {
            return Err(fail(format!(
                "{k}-sharded reports diverge from the single pass"
            )));
        }
    }

    Ok(ProgramCheck {
        instructions: n,
        loop_events: events.len() as u64,
    })
}

fn arch_state(cpu: &Cpu) -> Vec<u8> {
    let mut enc = loopspec_isa::snap::Enc::new();
    cpu.save_state(&mut enc);
    enc.into_bytes()
}

/// Aggregated harness results for one family — the per-family row of
/// the "fig6 by loop shape" table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyReport {
    /// Family name.
    pub family: &'static str,
    /// Seeds checked.
    pub seeds: u64,
    /// Seeds that passed every cross-check.
    pub passed: u64,
    /// Failures, one per failing seed.
    pub failures: Vec<Failure>,
    /// Total instructions retired across passing seeds.
    pub instructions: u64,
    /// Total loop events across passing seeds.
    pub loop_events: u64,
}

impl FamilyReport {
    /// `true` when every seed passed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs `seeds` consecutive seeds (from 0) of one family.
pub fn run_family(family: &Family, seeds: u64, size: u32) -> FamilyReport {
    let mut report = FamilyReport {
        family: family.name,
        seeds,
        passed: 0,
        failures: Vec::new(),
        instructions: 0,
        loop_events: 0,
    };
    for seed in 0..seeds {
        match check_program(family, seed, size) {
            Ok(c) => {
                report.passed += 1;
                report.instructions += c.instructions;
                report.loop_events += c.loop_events;
            }
            Err(f) => report.failures.push(f),
        }
    }
    report
}

/// Runs the whole registry — the fixed-seed corpus CI executes on
/// every push.
pub fn run_corpus(seeds_per_family: u64, size: u32) -> Vec<FamilyReport> {
    families()
        .iter()
        .map(|f| run_family(f, seeds_per_family, size))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::family_by_name;

    #[test]
    fn failure_display_carries_a_replay_line() {
        let f = Failure {
            family: "nest".into(),
            seed: 77,
            what: "synthetic".into(),
        };
        let text = f.to_string();
        assert!(text.contains("genfuzz --replay nest:77"), "{text}");
        assert!(text.contains("synthetic"), "{text}");
    }

    #[test]
    fn check_events_rejects_malformed_streams() {
        // A lone iteration without an open execution must be rejected.
        let bad = vec![LoopEvent::IterationStart {
            loop_id: LoopId::from(loopspec_isa::Addr::new(7)),
            iter: 2,
            pos: 10,
        }];
        assert!(check_events(&bad).is_err());
        assert!(check_events(&[]).is_ok());
    }

    #[test]
    fn one_program_passes_end_to_end() {
        let f = family_by_name("trips").expect("registered");
        let c = check_program(f, 0, 1).unwrap_or_else(|e| panic!("{e}"));
        assert!(c.instructions > 0);
    }
}
