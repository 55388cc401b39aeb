//! The §4 profiler: paths, live-ins and their predictability.

use std::cmp::Reverse;
use std::collections::HashMap;

use loopspec_core::{Cls, LoopEvent, LoopId};
use loopspec_cpu::{InstrEvent, Tracer};
use loopspec_isa::ControlKind;

use crate::frame::{reg_slot, IterFrame};
use crate::value_pred::StridePredictor;

/// Per-iteration profiling record: which path the iteration took and how
/// many of its live-ins were stride-predicted correctly.
///
/// Records are kept so the most-frequent-path filter can be applied *post
/// hoc*, exactly like the paper's two-phase measurement ("we have first
/// identified for each loop the different control flows…; for these
/// iterations we have measured…").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterRecord {
    /// The loop this iteration belongs to.
    pub loop_id: LoopId,
    /// Path signature (hash of conditional-branch outcomes).
    pub path: u64,
    /// Live-in registers observed.
    pub lr_seen: u16,
    /// ... of which correctly predicted.
    pub lr_correct: u16,
    /// Live-in memory locations observed.
    pub lm_seen: u16,
    /// ... of which correctly predicted (address *and* value).
    pub lm_correct: u16,
}

impl IterRecord {
    /// All live-in registers predicted correctly (vacuously true with no
    /// live-ins).
    pub fn all_lr(&self) -> bool {
        self.lr_correct == self.lr_seen
    }

    /// All live-in memory locations predicted correctly.
    pub fn all_lm(&self) -> bool {
        self.lm_correct == self.lm_seen
    }

    /// All live-in values (registers and memory) predicted correctly.
    pub fn all_data(&self) -> bool {
        self.all_lr() && self.all_lm()
    }
}

/// The Figure 8 statistics, as percentages over iterations of each loop's
/// most frequent path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataSpecReport {
    /// Profiled iterations (detected iterations of multi-iteration
    /// loops).
    pub iterations: u64,
    /// Distinct loops profiled.
    pub loops: usize,
    /// `same path`: % of iterations covered by their loop's most frequent
    /// path.
    pub same_path_percent: f64,
    /// `lr pred`: % of live-in registers correctly predicted.
    pub lr_pred_percent: f64,
    /// `lm pred`: % of live-in memory locations correctly predicted.
    pub lm_pred_percent: f64,
    /// `all lr`: % of iterations with *all* live-in registers correct.
    pub all_lr_percent: f64,
    /// `all lm`: % of iterations with *all* live-in memory locations
    /// correct.
    pub all_lm_percent: f64,
    /// `all data`: % of iterations with every live-in value correct.
    pub all_data_percent: f64,
    /// Live-in loads dropped by the per-iteration slot cap.
    pub mem_slot_overflow: u64,
    /// Live-in registers observed on most-frequent-path iterations
    /// (denominator of `lr_pred_percent`).
    pub lr_seen: u64,
    /// Live-in memory locations observed on most-frequent-path
    /// iterations (denominator of `lm_pred_percent`; `0` means the
    /// memory percentages are vacuous).
    pub lm_seen: u64,
}

/// ATOM-style tracer computing the paper's data-speculation statistics.
///
/// Per retired instruction it first charges the instruction to every
/// open iteration frame, then feeds it to its own [`Cls`] and rolls the
/// frames at the iteration boundaries that CLS reports — so a closing
/// branch belongs to the iteration it ends. The profiler reads every
/// event field, so it runs as a CPU tracer of its own rather than as a
/// loop-event sink of a shared session.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug, Default)]
pub struct DataSpecProfiler {
    cls: Cls,
    frames: Vec<IterFrame>,
    reg_pred: StridePredictor<(LoopId, u8)>,
    mem_addr_pred: StridePredictor<(LoopId, u16)>,
    mem_val_pred: StridePredictor<(LoopId, u16)>,
    records: Vec<IterRecord>,
    mem_overflow: u64,
}

impl DataSpecProfiler {
    /// Creates a profiler with the default 16-entry CLS.
    pub fn new() -> Self {
        Self::default()
    }

    /// The per-iteration records collected so far.
    pub fn records(&self) -> &[IterRecord] {
        &self.records
    }

    /// Finalises nothing (frames still open are discarded — they belong
    /// to iterations whose end was never observed) and aggregates the
    /// Figure 8 report.
    pub fn report(&self) -> DataSpecReport {
        aggregate(&self.records, self.mem_overflow)
    }

    /// Charges one retired instruction to every open iteration frame.
    fn observe_instr(&mut self, ev: &InstrEvent) {
        // Charge the instruction to every open iteration (instructions
        // of nested loops and called subroutines belong to all
        // enclosing executions). The path signature covers every
        // *dynamically divergent* control transfer: conditional
        // branches by outcome, indirect jumps/calls and returns by
        // target (a "path" is the exact instruction sequence of the
        // iteration, paper §4).
        if self.frames.is_empty() {
            return;
        }
        let divergence = match ev.control.kind {
            ControlKind::CondBranch { .. } => Some(ev.control.taken as u32),
            ControlKind::IndirectJump | ControlKind::IndirectCall | ControlKind::Ret => {
                Some(ev.control.target.index())
            }
            _ => None,
        };
        for frame in &mut self.frames {
            for read in ev.reads.iter().flatten() {
                frame.note_reg_read(read.reg, read.value);
            }
            if let Some(w) = ev.write {
                frame.note_reg_write(w.reg);
            }
            if let Some(m) = ev.mem_read {
                frame.note_load(m.addr, m.value);
            }
            if let Some(m) = ev.mem_write {
                frame.note_store(m.addr);
            }
            if let Some(d) = divergence {
                frame.note_divergence(ev.pc.index(), d);
            }
        }
    }

    /// Iteration starts and ends roll the live-in frames.
    fn roll_frames(&mut self, ev: LoopEvent) {
        match ev {
            LoopEvent::IterationStart { loop_id, .. } => {
                self.close_frame(loop_id);
                self.frames.push(IterFrame::new(loop_id));
            }
            LoopEvent::ExecutionEnd { loop_id, .. } | LoopEvent::Evicted { loop_id, .. } => {
                self.close_frame(loop_id);
            }
            LoopEvent::ExecutionStart { .. } | LoopEvent::OneShot { .. } => {}
        }
    }

    fn close_frame(&mut self, loop_id: LoopId) {
        let Some(idx) = self.frames.iter().rposition(|f| f.loop_id == loop_id) else {
            return;
        };
        let frame = self.frames.remove(idx);
        self.mem_overflow += frame.mem_overflow;

        let mut rec = IterRecord {
            loop_id,
            path: frame.path_hash,
            lr_seen: 0,
            lr_correct: 0,
            lm_seen: 0,
            lm_correct: 0,
        };
        for (reg, value) in frame.livein_regs_iter() {
            rec.lr_seen += 1;
            let out = self.reg_pred.observe((loop_id, reg_slot(reg) as u8), value);
            if out.is_correct() {
                rec.lr_correct += 1;
            }
        }
        for (slot, &(addr, value)) in frame.livein_mem.iter().enumerate() {
            rec.lm_seen += 1;
            // Both predictors train even when the other missed; a cold
            // observation counts as not-predicted.
            let a = self.mem_addr_pred.observe((loop_id, slot as u16), addr);
            let v = self.mem_val_pred.observe((loop_id, slot as u16), value);
            if a.is_correct() && v.is_correct() {
                rec.lm_correct += 1;
            }
        }
        self.records.push(rec);
    }
}

impl Tracer for DataSpecProfiler {
    fn on_retire(&mut self, ev: &InstrEvent) {
        // 1. Charge the instruction to every open iteration.
        self.observe_instr(ev);

        // 2. Roll the iteration boundaries it produced.
        if !matches!(ev.control.kind, ControlKind::None) {
            self.cls.on_retire(ev);
            // The chunk and the frames both live in `self`: walk the
            // chunk by index and copy each event out.
            for i in 0..self.cls.buffered().len() {
                let ev = self.cls.buffered()[i];
                self.roll_frames(ev);
            }
            self.cls.clear_buffered();
        }
    }
}

fn percent(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

fn aggregate(records: &[IterRecord], mem_overflow: u64) -> DataSpecReport {
    // Pass 1: most frequent path per loop.
    let mut paths: HashMap<LoopId, HashMap<u64, u64>> = HashMap::new();
    for r in records {
        *paths
            .entry(r.loop_id)
            .or_default()
            .entry(r.path)
            .or_insert(0) += 1;
    }
    let mfp: HashMap<LoopId, u64> = paths
        .iter()
        .map(|(l, m)| {
            // Ties go to the lowest path hash, so the report never
            // depends on the map's iteration order.
            let best = m
                .iter()
                .max_by_key(|(&p, &c)| (c, Reverse(p)))
                .map(|(&p, _)| p)
                .expect("non-empty path map");
            (*l, best)
        })
        .collect();

    // Pass 2: aggregate over most-frequent-path iterations.
    let mut on_path = 0u64;
    let (mut lr_seen, mut lr_ok, mut lm_seen, mut lm_ok) = (0u64, 0u64, 0u64, 0u64);
    let (mut all_lr, mut all_lm, mut all_data) = (0u64, 0u64, 0u64);
    for r in records {
        if mfp.get(&r.loop_id) != Some(&r.path) {
            continue;
        }
        on_path += 1;
        lr_seen += r.lr_seen as u64;
        lr_ok += r.lr_correct as u64;
        lm_seen += r.lm_seen as u64;
        lm_ok += r.lm_correct as u64;
        all_lr += r.all_lr() as u64;
        all_lm += r.all_lm() as u64;
        all_data += r.all_data() as u64;
    }

    DataSpecReport {
        iterations: records.len() as u64,
        loops: paths.len(),
        same_path_percent: percent(on_path, records.len() as u64),
        lr_pred_percent: percent(lr_ok, lr_seen),
        lm_pred_percent: percent(lm_ok, lm_seen),
        all_lr_percent: percent(all_lr, on_path),
        all_lm_percent: percent(all_lm, on_path),
        all_data_percent: percent(all_data, on_path),
        mem_slot_overflow: mem_overflow,
        lr_seen,
        lm_seen,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopspec_asm::ProgramBuilder;
    use loopspec_cpu::{Cpu, RunLimits};
    use loopspec_isa::{AluOp, Cond, Reg};

    fn profile(build: impl FnOnce(&mut ProgramBuilder)) -> DataSpecReport {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        let p = b.finish().expect("assembles");
        let mut prof = DataSpecProfiler::new();
        Cpu::new()
            .run(&p, &mut prof, RunLimits::default())
            .expect("runs");
        prof.report()
    }

    #[test]
    fn induction_variables_are_predictable() {
        // Live-ins of a bare counted loop: the induction register
        // (stride 1) and the bound (stride 0) — both predictable once the
        // predictors warm up. (The final iteration takes a different path
        // — its closing branch falls through — so same-path is 58/59.)
        let r = profile(|b| b.counted_loop(60, |_b, _| {}));
        assert_eq!(r.loops, 1);
        assert!(r.same_path_percent > 95.0, "{r:?}");
        assert!(r.lr_pred_percent > 85.0, "{r:?}");
        assert!(r.all_lr_percent > 85.0, "{r:?}");
    }

    #[test]
    fn work_filler_is_not_live_in() {
        // `work` starts with a fresh constant load, so the scratch
        // accumulator is written before read — the loop's live-ins stay
        // the (predictable) induction registers.
        let r = profile(|b| b.counted_loop(60, |b, _| b.work(4)));
        assert!(r.lr_pred_percent > 85.0, "{r:?}");
        assert!(r.all_lr_percent > 85.0, "{r:?}");
    }

    #[test]
    fn loop_carried_computed_values_dilute_predictability() {
        // A register that carries a non-linear recurrence across
        // iterations is live-in every iteration and never predicts.
        let r = profile(|b| {
            let acc = b.alloc_reg();
            b.li(acc, 7);
            b.counted_loop(60, |b, _| {
                b.op_imm(AluOp::Xor, acc, acc, 0x5a);
                b.op_imm(AluOp::Mul, acc, acc, 3);
            });
        });
        assert!(
            r.lr_pred_percent > 40.0 && r.lr_pred_percent < 90.0,
            "mixed live-ins: {r:?}"
        );
        assert!(r.all_lr_percent < 10.0, "{r:?}");
    }

    #[test]
    fn memory_accumulator_is_predictable() {
        // g starts at 0 and grows by 3 per iteration: constant address,
        // strided value.
        let r = profile(|b| {
            let g = b.alloc_static(1);
            let x = b.alloc_reg();
            b.counted_loop(60, |b, _| {
                b.load_static(x, g);
                b.addi(x, x, 3);
                b.store_static(x, g);
            });
        });
        assert!(r.lm_pred_percent > 85.0, "{r:?}");
        assert!(r.all_lm_percent > 85.0, "{r:?}");
    }

    #[test]
    fn random_values_are_not_predictable() {
        // The LCG state register is live-in every iteration but its
        // values follow no linear stride.
        let r = profile(|b| {
            let x = b.alloc_reg();
            b.counted_loop(60, |b, _| {
                b.rng_below(x, 1000);
            });
        });
        // r6 (rng state) is live-in and wrong; induction + bound right:
        // per-register accuracy must sit strictly between.
        assert!(r.lr_pred_percent < 90.0, "{r:?}");
        assert!(r.all_lr_percent < 10.0, "rng state spoils all-lr: {r:?}");
    }

    #[test]
    fn alternating_branch_splits_paths() {
        let r = profile(|b| {
            let parity = b.alloc_reg();
            b.counted_loop(61, |b, i| {
                b.op_imm(AluOp::Rem, parity, i, 2);
                b.if_else(Cond::Eq, parity, Reg::ZERO, |b| b.work(2), |b| b.work(6));
            });
        });
        assert!(
            r.same_path_percent > 35.0 && r.same_path_percent < 65.0,
            "two alternating paths: {r:?}"
        );
    }

    #[test]
    fn nested_loops_profile_both_levels() {
        let r = profile(|b| {
            b.counted_loop(10, |b, _| {
                b.counted_loop(10, |b, _| b.work(2));
            });
        });
        assert_eq!(r.loops, 2);
        assert!(r.iterations > 80);
    }

    #[test]
    fn no_loops_no_records() {
        let r = profile(|b| b.work(50));
        assert_eq!(r.iterations, 0);
        assert_eq!(r.loops, 0);
        assert_eq!(r.same_path_percent, 0.0);
    }

    #[test]
    fn strided_array_walk_memory_is_address_predictable() {
        // a[i] = a[i] (+ values pre-initialised to 7*i): address strides
        // by 1, value strides by 7 → predictable.
        let r = profile(|b| {
            let base = b.alloc_static(128);
            let x = b.alloc_reg();
            // init: a[i] = 7*i (one-shot-ish loop noise is fine)
            b.counted_loop(100, |b, i| {
                b.op_imm(AluOp::Mul, x, i, 7);
                b.store_idx(x, base, i);
            });
            // walk: read a[i]
            b.counted_loop(100, |b, i| {
                b.load_idx(x, base, i);
            });
        });
        // The walking loop's loads: addr stride 1, value stride 7.
        assert!(r.lm_pred_percent > 80.0, "{r:?}");
    }

    #[test]
    fn tied_paths_go_to_the_lowest_path_hash() {
        // One loop, two paths taken twice each: the path hashed 3 wins
        // the tie over 7 whatever order the records (or the path map)
        // come in, so its unpredicted live-in sets every percentage.
        let rec = |path, lr_correct| IterRecord {
            loop_id: LoopId(loopspec_isa::Addr::new(4)),
            path,
            lr_seen: 1,
            lr_correct,
            lm_seen: 0,
            lm_correct: 0,
        };
        let mut records = vec![rec(7, 1), rec(3, 0), rec(7, 1), rec(3, 0)];
        let expected = DataSpecReport {
            iterations: 4,
            loops: 1,
            same_path_percent: 50.0,
            lr_pred_percent: 0.0,
            lm_pred_percent: 0.0,
            all_lr_percent: 0.0,
            all_lm_percent: 100.0,
            all_data_percent: 0.0,
            mem_slot_overflow: 0,
            lr_seen: 2,
            lm_seen: 0,
        };
        for _ in 0..16 {
            assert_eq!(aggregate(&records, 0), expected);
            records.reverse();
        }
    }

    #[test]
    fn record_helpers() {
        let mut r = IterRecord {
            loop_id: LoopId(loopspec_isa::Addr::new(1)),
            path: 0,
            lr_seen: 2,
            lr_correct: 2,
            lm_seen: 1,
            lm_correct: 0,
        };
        assert!(r.all_lr());
        assert!(!r.all_lm());
        assert!(!r.all_data());
        r.lm_correct = 1;
        assert!(r.all_data());
    }
}
