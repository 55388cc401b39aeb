//! The Current Loop Stack (paper §2.2).

use loopspec_cpu::{ControlOutcome, InstrEvent};
use loopspec_isa::{Addr, ControlKind};

use crate::{LoopEvent, LoopId};

/// One CLS entry: a loop currently executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ClsEntry {
    /// Loop target address `T` (the identifier).
    t: Addr,
    /// Highest address of a backward transfer to `T` seen so far.
    b: Addr,
    /// Index of the iteration currently executing (≥ 2 once in the CLS:
    /// the entry is created when iteration 2 starts). Doubles as "total
    /// iterations so far" when the execution ends.
    iter: u32,
}

impl ClsEntry {
    #[inline]
    fn body_contains(&self, addr: Addr) -> bool {
        self.t <= addr && addr <= self.b
    }
}

/// The **Current Loop Stack**: all loops currently executing, innermost on
/// top, with the update rules of paper §2.2.
///
/// Feed it every retired instruction via [`Cls::on_retire`] (or every
/// committed control transfer via [`Cls::on_control`]); the
/// [`LoopEvent`]s it produces accumulate in its event chunk.
///
/// The five update rules (§2.2, implemented verbatim):
///
/// 1. backward transfer to unknown `T`, taken → push `(T, pc)`: a new
///    execution (detected at its 2nd iteration);
/// 2. backward branch to unknown `T`, not taken → a one-iteration
///    execution ([`LoopEvent::OneShot`]);
/// 3. backward transfer to `T` at entry `i`, taken → pop everything above
///    `i` (inner executions end), new iteration of `T`, `B := max(B, pc)`;
/// 4. backward branch to `T` at entry `i`, not taken, `B ≤ pc` → the
///    iteration *and execution* of `T` end: pop `[top..=i]`;
/// 5. any taken branch/jump at `pc` inside a body `[T,B]` targeting
///    outside it → that execution ends; a `ret` at `pc` ends every
///    execution whose body contains `pc`. Calls never touch the CLS.
///
/// On overflow the deepest (outermost) entry is discarded
/// ([`LoopEvent::Evicted`]).
///
/// ## Chunked emission
///
/// Events are appended, in commit order, to an internal chunk of up to
/// [`chunk_capacity`](Cls::chunk_capacity) events (default
/// [`DEFAULT_EVENT_CHUNK`](crate::DEFAULT_EVENT_CHUNK)); every entry
/// point reports when the chunk is full. The driver reads the chunk with
/// [`buffered`](Cls::buffered) and empties it with
/// [`clear_buffered`](Cls::clear_buffered) — whenever it likes: the
/// streaming `Session` fans whole chunks out to many sinks with one
/// [`LoopEventSink::on_loop_events`](crate::LoopEventSink::on_loop_events)
/// call each, while a bare tracer such as
/// [`EventCollector`](crate::EventCollector) drains it after every
/// instruction. See the [batching contract](crate::sink) for the
/// semantics chunked delivery must (and does) preserve.
///
/// ```
/// use loopspec_asm::ProgramBuilder;
/// use loopspec_cpu::{Cpu, RunLimits, Tracer};
/// use loopspec_core::{Cls, LoopEvent};
///
/// struct IterationCounter {
///     cls: Cls,
///     iterations: u64,
/// }
/// impl Tracer for IterationCounter {
///     fn on_retire(&mut self, ev: &loopspec_cpu::InstrEvent) {
///         self.cls.on_retire(ev);
///         for e in self.cls.buffered() {
///             if matches!(e, LoopEvent::IterationStart { .. }) {
///                 self.iterations += 1;
///             }
///         }
///         self.cls.clear_buffered();
///     }
/// }
///
/// let mut b = ProgramBuilder::new();
/// b.counted_loop(5, |b, _| b.work(1));
/// let program = b.finish()?;
/// let mut t = IterationCounter { cls: Cls::default(), iterations: 0 };
/// Cpu::new().run(&program, &mut t, RunLimits::default())?;
/// assert_eq!(t.iterations, 4); // iterations 2..=5 (the 1st is undetectable)
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Cls {
    entries: Vec<ClsEntry>,
    capacity: usize,
    /// Events awaiting delivery, in commit order.
    chunk: Vec<LoopEvent>,
    chunk_capacity: usize,
}

impl Cls {
    /// Creates a CLS with the given capacity and the default event-chunk
    /// size.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "CLS capacity must be positive");
        Cls {
            entries: Vec::with_capacity(capacity),
            capacity,
            chunk: Vec::new(),
            chunk_capacity: crate::DEFAULT_EVENT_CHUNK,
        }
    }

    /// Sets the event-chunk size (builder style). Chunk size 1
    /// degenerates to per-event delivery; larger chunks amortize
    /// fan-out cost. Results are identical for any size (the
    /// `chunked_equivalence` property test).
    ///
    /// # Panics
    ///
    /// Panics if `events == 0`.
    pub fn with_chunk_capacity(mut self, events: usize) -> Self {
        assert!(events > 0, "chunk capacity must be positive");
        self.chunk_capacity = events;
        self
    }

    /// Events per chunk.
    #[inline]
    pub fn chunk_capacity(&self) -> usize {
        self.chunk_capacity
    }

    /// The events produced since the chunk was last cleared, in commit
    /// order.
    #[inline]
    pub fn buffered(&self) -> &[LoopEvent] {
        &self.chunk
    }

    /// Discards the chunk (after the driver has delivered it).
    #[inline]
    pub fn clear_buffered(&mut self) {
        self.chunk.clear();
    }

    /// `true` when the chunk has reached capacity and should be
    /// delivered (the chunk may exceed capacity by the handful of events
    /// one instruction produces; it is never split mid-instruction).
    #[inline]
    fn chunk_full(&self) -> bool {
        self.chunk.len() >= self.chunk_capacity
    }

    /// Current number of loops on the stack (the nesting depth).
    #[inline]
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    /// Maximum number of simultaneously tracked loops.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns `true` if the loop identified by `t` is currently on the
    /// stack.
    pub fn contains(&self, id: LoopId) -> bool {
        self.entries.iter().any(|e| e.t == id.0)
    }

    /// The innermost loop currently executing, if any.
    pub fn innermost(&self) -> Option<LoopId> {
        self.entries.last().map(|e| LoopId(e.t))
    }

    /// Processes one retired instruction: a control transfer goes to
    /// [`Cls::on_control`], a [`ControlKind::Halt`] closes every open
    /// execution ([`Cls::flush`]), anything else is ignored. Returns
    /// `true` when the chunk is full.
    #[inline]
    pub fn on_retire(&mut self, ev: &InstrEvent) -> bool {
        match ev.control.kind {
            ControlKind::None => self.chunk_full(),
            ControlKind::Halt => self.flush(ev.next_pos()),
            _ => self.on_control(ev.pc, &ev.control, ev.next_pos()),
        }
    }

    /// Processes one committed control-transfer instruction and returns
    /// `true` when the chunk is full.
    ///
    /// `pc` is the instruction's address, `outcome` its dynamic result and
    /// `pos` the stream position *after* it commits (see
    /// [`LoopEvent`](crate::LoopEvent) for the position convention).
    /// Events are appended in commit order: inner executions end before
    /// outer events at the same instruction.
    pub fn on_control(&mut self, pc: Addr, outcome: &ControlOutcome, pos: u64) -> bool {
        match outcome.kind {
            ControlKind::None | ControlKind::Halt => {}
            // Calls do not affect the CLS: subroutine activations belong
            // to the surrounding loop execution.
            ControlKind::Call { .. } | ControlKind::IndirectCall => {}
            // A `ret` ends every execution whose static body contains
            // it: those loops were entered inside the returning
            // activation and their closing branches can no longer
            // execute.
            ControlKind::Ret => self.remove_where(|e| e.body_contains(pc), pos),
            ControlKind::CondBranch { target } if !outcome.taken => {
                self.on_not_taken_branch(pc, target, pos);
            }
            ControlKind::CondBranch { .. }
            | ControlKind::Jump { .. }
            | ControlKind::IndirectJump => {
                // Taken transfer; use the *dynamic* target so indirect
                // jumps are handled uniformly.
                self.on_taken_transfer(pc, outcome.target, pos);
            }
        }
        self.chunk_full()
    }

    /// Closes every open execution at stream position `pos` and returns
    /// `true` when the chunk is full (used at program end; the paper
    /// notes the CLS "is always empty at the end" for SPEC95, and
    /// suggests periodic flushing for the pathological cases).
    pub fn flush(&mut self, pos: u64) -> bool {
        while let Some(e) = self.entries.pop() {
            self.end(e, pos);
        }
        self.chunk_full()
    }

    // ------------------------------------------------------------------

    fn find(&self, t: Addr) -> Option<usize> {
        self.entries.iter().rposition(|e| e.t == t)
    }

    /// Pops entries with index > `i`, ending their executions
    /// (innermost first).
    fn pop_above(&mut self, i: usize, pos: u64) {
        while self.entries.len() > i + 1 {
            let e = self.entries.pop().expect("len > i+1 >= 1");
            self.end(e, pos);
        }
    }

    /// Emits the `ExecutionEnd` of a popped entry.
    #[inline]
    fn end(&mut self, e: ClsEntry, pos: u64) {
        self.chunk.push(LoopEvent::ExecutionEnd {
            loop_id: LoopId(e.t),
            iterations: e.iter,
            pos,
        });
    }

    fn on_not_taken_branch(&mut self, pc: Addr, target: Addr, pos: u64) {
        if !pc.is_backward_to(target) {
            return; // forward not-taken branch: no loop significance
        }
        match self.find(target) {
            None => {
                // Rule 2: a loop with exactly one iteration executed.
                self.chunk.push(LoopEvent::OneShot {
                    loop_id: LoopId(target),
                    pos,
                    depth: self.depth() as u32 + 1,
                });
            }
            Some(i) => {
                if self.entries[i].b <= pc {
                    // Rule 4: the closing branch fell through — iteration
                    // and execution of T finish; inner loops end too.
                    self.pop_above(i, pos);
                    let e = self.entries.pop().expect("entry i exists");
                    self.end(e, pos);
                }
                // else: an internal backward branch before B fell
                // through — the loop merely continues.
            }
        }
    }

    fn on_taken_transfer(&mut self, pc: Addr, target: Addr, pos: u64) {
        if pc.is_backward_to(target) {
            if let Some(i) = self.find(target) {
                // Rule 3: new iteration of the loop at entry i.
                self.pop_above(i, pos);
                let e = &mut self.entries[i];
                if pc > e.b {
                    e.b = pc;
                }
                e.iter += 1;
                let ev = LoopEvent::IterationStart {
                    loop_id: LoopId(e.t),
                    iter: e.iter,
                    pos,
                };
                self.chunk.push(ev);
                return;
            }
            // Rule 1 (with the rule-5 exit check first): a backward
            // transfer out of enclosing bodies ends them, then a new
            // execution is pushed.
            self.remove_where(|e| e.body_contains(pc) && !e.body_contains(target), pos);
            self.push_new(target, pc, pos);
        } else {
            // Rule 5: a forward taken transfer leaving a body ends that
            // execution.
            self.remove_where(|e| e.body_contains(pc) && !e.body_contains(target), pos);
        }
    }

    fn push_new(&mut self, t: Addr, b: Addr, pos: u64) {
        if self.entries.len() == self.capacity {
            // Overflow: sacrifice the deepest (outermost) entry.
            let e = self.entries.remove(0);
            self.chunk.push(LoopEvent::Evicted {
                loop_id: LoopId(e.t),
                iterations: e.iter,
                pos,
            });
        }
        self.entries.push(ClsEntry { t, b, iter: 2 });
        self.chunk.push(LoopEvent::ExecutionStart {
            loop_id: LoopId(t),
            pos,
            depth: self.entries.len() as u32,
        });
        self.chunk.push(LoopEvent::IterationStart {
            loop_id: LoopId(t),
            iter: 2,
            pos,
        });
    }

    /// Removes all entries matching `pred`, emitting `ExecutionEnd`s
    /// innermost-first.
    fn remove_where(&mut self, pred: impl Fn(&ClsEntry) -> bool, pos: u64) {
        // Collect from the top down so events come innermost-first.
        let mut idx = self.entries.len();
        while idx > 0 {
            idx -= 1;
            if pred(&self.entries[idx]) {
                let e = self.entries.remove(idx);
                self.end(e, pos);
            }
        }
    }
}

impl Default for Cls {
    /// A CLS with the paper's 16 entries.
    fn default() -> Self {
        Cls::new(crate::DEFAULT_CLS_CAPACITY)
    }
}

/// The CLS is a fixed hardware structure — a handful of `(T, B, iter)`
/// entries plus the not-yet-delivered event chunk — so its exact state
/// at any retirement boundary serializes in a few dozen bytes. The
/// capacity and chunk capacity are configuration and are echoed into the
/// snapshot: loading verifies they match the receiving CLS (a snapshot
/// of a 16-entry CLS must not restore into a 1-entry ablation).
impl crate::SnapshotState for Cls {
    fn save_state(&self, out: &mut crate::snap::Enc) {
        out.u64(self.capacity as u64);
        out.u64(self.chunk_capacity as u64);
        out.u64(self.entries.len() as u64);
        for e in &self.entries {
            out.u32(e.t.index());
            out.u32(e.b.index());
            out.u32(e.iter);
        }
        crate::snap::write_events(out, &self.chunk);
    }

    fn load_state(&mut self, src: &mut crate::snap::Dec<'_>) -> Result<(), crate::snap::SnapError> {
        if src.u64()? != self.capacity as u64 {
            return Err(crate::snap::SnapError::Mismatch {
                what: "CLS capacity",
            });
        }
        if src.u64()? != self.chunk_capacity as u64 {
            return Err(crate::snap::SnapError::Mismatch {
                what: "CLS chunk capacity",
            });
        }
        let n = src.count()?;
        if n > self.capacity {
            return Err(crate::snap::SnapError::Corrupt { what: "CLS depth" });
        }
        self.entries.clear();
        for _ in 0..n {
            let t = Addr::new(src.u32()?);
            let b = Addr::new(src.u32()?);
            let iter = src.u32()?;
            self.entries.push(ClsEntry { t, b, iter });
        }
        self.chunk = crate::snap::read_events(src)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopspec_isa::ControlKind as CK;

    fn taken_branch(target: u32) -> ControlOutcome {
        ControlOutcome {
            kind: CK::CondBranch {
                target: Addr::new(target),
            },
            taken: true,
            target: Addr::new(target),
        }
    }

    fn not_taken_branch(target: u32, pc: u32) -> ControlOutcome {
        ControlOutcome {
            kind: CK::CondBranch {
                target: Addr::new(target),
            },
            taken: false,
            target: Addr::new(pc + 1),
        }
    }

    fn jump(target: u32) -> ControlOutcome {
        ControlOutcome {
            kind: CK::Jump {
                target: Addr::new(target),
            },
            taken: true,
            target: Addr::new(target),
        }
    }

    fn ret(target: u32) -> ControlOutcome {
        ControlOutcome {
            kind: CK::Ret,
            taken: true,
            target: Addr::new(target),
        }
    }

    /// Drives [`Cls::on_control`] and drains the chunk into `out`.
    fn control(cls: &mut Cls, pc: u32, o: &ControlOutcome, pos: u64, out: &mut Vec<LoopEvent>) {
        cls.on_control(Addr::new(pc), o, pos);
        out.extend_from_slice(cls.buffered());
        cls.clear_buffered();
    }

    /// Drives [`Cls::flush`] and drains the chunk into `out`.
    fn flush(cls: &mut Cls, pos: u64, out: &mut Vec<LoopEvent>) {
        cls.flush(pos);
        out.extend_from_slice(cls.buffered());
        cls.clear_buffered();
    }

    #[test]
    fn simple_loop_lifecycle() {
        // Loop body [10, 20]; 3 iterations: taken, taken, not-taken.
        let mut cls = Cls::default();
        let mut out = Vec::new();
        control(&mut cls, 20, &taken_branch(10), 100, &mut out);
        assert_eq!(cls.depth(), 1);
        assert!(matches!(out[0], LoopEvent::ExecutionStart { depth: 1, .. }));
        assert!(matches!(out[1], LoopEvent::IterationStart { iter: 2, .. }));

        out.clear();
        control(&mut cls, 20, &taken_branch(10), 200, &mut out);
        assert!(matches!(out[0], LoopEvent::IterationStart { iter: 3, .. }));

        out.clear();
        control(&mut cls, 20, &not_taken_branch(10, 20), 300, &mut out);
        assert_eq!(cls.depth(), 0);
        assert!(matches!(
            out[0],
            LoopEvent::ExecutionEnd {
                iterations: 3,
                pos: 300,
                ..
            }
        ));
    }

    #[test]
    fn one_shot_loop() {
        let mut cls = Cls::default();
        let mut out = Vec::new();
        control(&mut cls, 20, &not_taken_branch(10, 20), 50, &mut out);
        assert_eq!(cls.depth(), 0);
        assert!(matches!(out[0], LoopEvent::OneShot { depth: 1, .. }));
    }

    #[test]
    fn nested_loops_pop_inner_on_outer_iteration() {
        // Outer [10, 30], inner [15, 25].
        let mut cls = Cls::default();
        let mut out = Vec::new();
        control(&mut cls, 30, &taken_branch(10), 1, &mut out); // outer detected
        control(&mut cls, 25, &taken_branch(15), 2, &mut out); // inner detected
        assert_eq!(cls.depth(), 2);
        assert_eq!(cls.innermost(), Some(LoopId(Addr::new(15))));

        // Outer closing branch taken while inner still on the stack:
        // inner execution must end first, then the outer iteration starts.
        out.clear();
        control(&mut cls, 30, &taken_branch(10), 3, &mut out);
        assert_eq!(cls.depth(), 1);
        assert!(
            matches!(out[0], LoopEvent::ExecutionEnd { loop_id, iterations: 2, .. }
                if loop_id == LoopId(Addr::new(15)))
        );
        assert!(
            matches!(out[1], LoopEvent::IterationStart { loop_id, iter: 3, .. }
                if loop_id == LoopId(Addr::new(10)))
        );
    }

    #[test]
    fn inner_not_taken_closing_pops_only_inner() {
        let mut cls = Cls::default();
        let mut out = Vec::new();
        control(&mut cls, 30, &taken_branch(10), 1, &mut out);
        control(&mut cls, 25, &taken_branch(15), 2, &mut out);
        out.clear();
        control(&mut cls, 25, &not_taken_branch(15, 25), 3, &mut out);
        assert_eq!(cls.depth(), 1);
        assert_eq!(cls.innermost(), Some(LoopId(Addr::new(10))));
    }

    #[test]
    fn taken_exit_branch_ends_execution() {
        // Loop [10, 20]; a `break`-style forward branch from 15 to 40.
        let mut cls = Cls::default();
        let mut out = Vec::new();
        control(&mut cls, 20, &taken_branch(10), 1, &mut out);
        out.clear();
        control(&mut cls, 15, &taken_branch(40), 2, &mut out);
        assert_eq!(cls.depth(), 0);
        assert!(matches!(
            out[0],
            LoopEvent::ExecutionEnd { iterations: 2, .. }
        ));
    }

    #[test]
    fn taken_branch_within_body_does_not_exit() {
        let mut cls = Cls::default();
        let mut out = Vec::new();
        control(&mut cls, 20, &taken_branch(10), 1, &mut out);
        out.clear();
        // if/else inside the body: forward taken branch 12 -> 18.
        control(&mut cls, 12, &taken_branch(18), 2, &mut out);
        assert_eq!(cls.depth(), 1);
        assert!(out.is_empty());
    }

    #[test]
    fn internal_backward_not_taken_branch_is_ignored() {
        // Loop [10, 20] with an extra backward branch at 15 to 10 —
        // since B(=20) > 15, a fall-through at 15 does not end the loop.
        let mut cls = Cls::default();
        let mut out = Vec::new();
        control(&mut cls, 20, &taken_branch(10), 1, &mut out);
        out.clear();
        control(&mut cls, 15, &not_taken_branch(10, 15), 2, &mut out);
        assert_eq!(cls.depth(), 1);
        assert!(out.is_empty());
    }

    #[test]
    fn b_field_grows_to_highest_backward_branch() {
        // Two closing branches: at 20 and at 25 (e.g. loop with `continue`).
        let mut cls = Cls::default();
        let mut out = Vec::new();
        control(&mut cls, 20, &taken_branch(10), 1, &mut out);
        control(&mut cls, 25, &taken_branch(10), 2, &mut out);
        out.clear();
        // Now a not-taken at 20 must NOT end the loop (B=25 > 20)...
        control(&mut cls, 20, &not_taken_branch(10, 20), 3, &mut out);
        assert_eq!(cls.depth(), 1);
        // ...but a not-taken at 25 does.
        control(&mut cls, 25, &not_taken_branch(10, 25), 4, &mut out);
        assert_eq!(cls.depth(), 0);
    }

    #[test]
    fn return_pops_loops_containing_it() {
        // Loop [10, 20] inside a subroutine; `ret` at 15.
        let mut cls = Cls::default();
        let mut out = Vec::new();
        control(&mut cls, 20, &taken_branch(10), 1, &mut out);
        // An unrelated caller loop [100, 200] is NOT popped (its body does
        // not contain the ret at 15) — push it first to check.
        control(&mut cls, 200, &taken_branch(100), 2, &mut out);
        out.clear();
        // Note: [100,200] was pushed after [10,20]; the ret at 15 is only
        // inside [10,20].
        control(&mut cls, 15, &ret(21), 3, &mut out);
        assert_eq!(cls.depth(), 1);
        assert!(cls.contains(LoopId(Addr::new(100))));
        assert!(!cls.contains(LoopId(Addr::new(10))));
    }

    #[test]
    fn backward_jump_detects_loop_too() {
        // while-style loop closed by an unconditional backward jump.
        let mut cls = Cls::default();
        let mut out = Vec::new();
        control(&mut cls, 20, &jump(10), 1, &mut out);
        assert_eq!(cls.depth(), 1);
        assert!(matches!(out[0], LoopEvent::ExecutionStart { .. }));
    }

    #[test]
    fn overflow_evicts_outermost() {
        let mut cls = Cls::new(2);
        let mut out = Vec::new();
        control(&mut cls, 100, &taken_branch(90), 1, &mut out); // L90
        control(&mut cls, 80, &taken_branch(70), 2, &mut out); // L70
        out.clear();
        control(&mut cls, 60, &taken_branch(50), 3, &mut out); // L50 evicts L90
        assert_eq!(cls.depth(), 2);
        assert!(matches!(out[0], LoopEvent::Evicted { loop_id, .. }
            if loop_id == LoopId(Addr::new(90))));
        assert!(cls.contains(LoopId(Addr::new(70))));
        assert!(cls.contains(LoopId(Addr::new(50))));
        assert!(!cls.contains(LoopId(Addr::new(90))));
    }

    #[test]
    fn flush_closes_everything() {
        let mut cls = Cls::default();
        let mut out = Vec::new();
        control(&mut cls, 30, &taken_branch(10), 1, &mut out);
        control(&mut cls, 25, &taken_branch(15), 2, &mut out);
        out.clear();
        flush(&mut cls, 99, &mut out);
        assert_eq!(cls.depth(), 0);
        assert_eq!(out.len(), 2);
        // Innermost first.
        assert_eq!(out[0].loop_id(), LoopId(Addr::new(15)));
        assert_eq!(out[1].loop_id(), LoopId(Addr::new(10)));
    }

    #[test]
    fn recursion_alternation_pops_sibling_instance() {
        // The paper's recursive-subroutine example: loops T1 and T2 in
        // different branches of a recursive function. When T1 is found in
        // the CLS while T2 sits above it, a new T1 iteration pops T2.
        let mut cls = Cls::default();
        let mut out = Vec::new();
        control(&mut cls, 20, &taken_branch(10), 1, &mut out); // T1=[10,20]
        control(&mut cls, 40, &taken_branch(30), 2, &mut out); // T2=[30,40]
        out.clear();
        control(&mut cls, 20, &taken_branch(10), 3, &mut out); // T1 again
        assert!(matches!(out[0], LoopEvent::ExecutionEnd { loop_id, .. }
            if loop_id == LoopId(Addr::new(30))));
        assert!(
            matches!(out[1], LoopEvent::IterationStart { loop_id, iter: 3, .. }
            if loop_id == LoopId(Addr::new(10)))
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Cls::new(0);
    }

    #[test]
    #[should_panic(expected = "chunk capacity must be positive")]
    fn zero_chunk_capacity_rejected() {
        let _ = Cls::default().with_chunk_capacity(0);
    }

    #[test]
    fn buffered_reports_full_at_chunk_capacity() {
        let mut cls = Cls::default().with_chunk_capacity(2);
        assert_eq!(cls.chunk_capacity(), 2);
        // First detection emits ExecutionStart + IterationStart: the
        // 2-event chunk fills in one call and is never split
        // mid-instruction.
        let full = cls.on_control(Addr::new(20), &taken_branch(10), 1);
        assert!(full);
        assert_eq!(cls.buffered().len(), 2);
        cls.clear_buffered();
        assert!(cls.buffered().is_empty());
        // A mere iteration adds one event: not full yet.
        let full = cls.on_control(Addr::new(20), &taken_branch(10), 2);
        assert!(!full);
        assert_eq!(cls.buffered().len(), 1);
    }

    #[test]
    fn flush_appends_to_chunk() {
        let mut cls = Cls::default();
        cls.on_control(Addr::new(30), &taken_branch(10), 1);
        cls.on_control(Addr::new(25), &taken_branch(15), 2);
        let before = cls.buffered().len();
        cls.flush(99);
        assert_eq!(cls.depth(), 0);
        assert_eq!(cls.buffered().len(), before + 2);
        // Innermost first.
        assert_eq!(cls.buffered()[before].loop_id(), LoopId(Addr::new(15)));
        assert_eq!(cls.buffered()[before + 1].loop_id(), LoopId(Addr::new(10)));
    }

    #[test]
    fn overlapped_loops_coexist() {
        // Overlapped: T1=10, B1=30; T2=20, B2=40 (T2>T1, B2>B1).
        let mut cls = Cls::default();
        let mut out = Vec::new();
        control(&mut cls, 30, &taken_branch(10), 1, &mut out);
        control(&mut cls, 40, &taken_branch(20), 2, &mut out);
        assert_eq!(cls.depth(), 2);
        out.clear();
        // Closing branch of T1 at 30: inside T2's body [20,40] and its
        // target 10 is outside T2 — T2's execution ends (rule 5 does not
        // fire here because T1 is *found*; the paper pops [top, i+1]).
        control(&mut cls, 30, &taken_branch(10), 3, &mut out);
        assert_eq!(cls.depth(), 1);
        assert!(cls.contains(LoopId(Addr::new(10))));
    }
}
