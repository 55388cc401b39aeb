//! The event-collecting tracer: a [`Cls`] plus the event stream it
//! produced.

use loopspec_cpu::{Demand, InstrEvent, Tracer};
use loopspec_isa::ControlKind;

use crate::{Cls, LoopEvent, LoopEventSink};

/// A [`Tracer`] that runs a [`Cls`] over the instruction stream and
/// collects every [`LoopEvent`] plus the total instruction count.
///
/// This is the one-pass front-end of all experiments: run the CPU once,
/// then replay the (much smaller) event stream into any number of
/// analyses — table-size sweeps, statistics, the thread-speculation
/// annotator.
#[derive(Debug, Default, Clone)]
pub struct EventCollector {
    cls: Cls,
    events: Vec<LoopEvent>,
    instructions: u64,
}

impl EventCollector {
    /// Creates a collector with a custom CLS.
    pub fn new(cls: Cls) -> Self {
        EventCollector {
            cls,
            events: Vec::new(),
            instructions: 0,
        }
    }

    /// Total instructions observed.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// The events collected so far.
    pub fn events(&self) -> &[LoopEvent] {
        &self.events
    }

    /// Consumes the collector, returning the event stream.
    pub fn into_events(self) -> Vec<LoopEvent> {
        self.events
    }

    /// Consumes the collector, returning `(events, instruction_count)`.
    pub fn into_parts(self) -> (Vec<LoopEvent>, u64) {
        (self.events, self.instructions)
    }
}

impl Tracer for EventCollector {
    fn on_retire(&mut self, ev: &InstrEvent) {
        self.instructions += 1;
        if !matches!(ev.control.kind, ControlKind::None) {
            self.cls.on_retire(ev);
            self.events.extend_from_slice(self.cls.buffered());
            self.cls.clear_buffered();
        }
    }

    fn demand(&self) -> Demand {
        // Loop detection consumes only pc, seq and the control
        // outcome, all of which are always populated.
        Demand::NONE
    }
}

/// As a [`LoopEventSink`] the collector records events pushed by an
/// *external* CLS (e.g. a streaming `Session` that runs one shared CLS
/// for many sinks); its own CLS is bypassed and the instruction count
/// is taken from the end-of-stream callback.
impl LoopEventSink for EventCollector {
    #[inline]
    fn on_loop_event(&mut self, ev: &LoopEvent) {
        self.events.push(*ev);
    }

    fn on_stream_end(&mut self, instructions: u64) {
        self.instructions = instructions;
    }
}

/// Snapshots the collected events, the instruction count, **and** the
/// collector's own CLS. In a streaming `Session` (where the collector is
/// a sink and the session's shared CLS owns detection) the collector's
/// CLS is idle and its section is a few fixed bytes; on
/// the [`Tracer`] path the collector owns detection, and carrying the
/// CLS state is what makes a `save_state` →
/// [`Cpu::resume`](loopspec_cpu::Cpu::resume) → `load_state` round
/// trip continue the event stream exactly.
impl crate::SnapshotState for EventCollector {
    fn save_state(&self, out: &mut crate::snap::Enc) {
        out.u64(self.instructions);
        crate::snap::write_events(out, &self.events);
        self.cls.save_state(out);
    }

    fn load_state(&mut self, src: &mut crate::snap::Dec<'_>) -> Result<(), crate::snap::SnapError> {
        self.instructions = src.u64()?;
        self.events = crate::snap::read_events(src)?;
        self.cls.load_state(src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopspec_asm::ProgramBuilder;
    use loopspec_cpu::{Cpu, RunLimits};

    fn collect(p: &loopspec_asm::Program) -> (Vec<LoopEvent>, u64) {
        let mut c = EventCollector::default();
        Cpu::new()
            .run(p, &mut c, RunLimits::default())
            .expect("run ok");
        c.into_parts()
    }

    #[test]
    fn counted_loop_event_sequence() {
        let mut b = ProgramBuilder::new();
        b.counted_loop(4, |b, _| b.work(2));
        let p = b.finish().unwrap();
        let (events, _) = collect(&p);
        let kinds: Vec<&'static str> = events
            .iter()
            .map(|e| match e {
                LoopEvent::ExecutionStart { .. } => "ES",
                LoopEvent::IterationStart { .. } => "IS",
                LoopEvent::ExecutionEnd { .. } => "EE",
                LoopEvent::Evicted { .. } => "EV",
                LoopEvent::OneShot { .. } => "1S",
            })
            .collect();
        // 4 iterations: detected at iter 2,3,4 then end.
        assert_eq!(kinds, vec!["ES", "IS", "IS", "IS", "EE"]);
        if let LoopEvent::ExecutionEnd { iterations, .. } = events.last().unwrap() {
            assert_eq!(*iterations, 4);
        }
    }

    #[test]
    fn single_iteration_is_one_shot() {
        let mut b = ProgramBuilder::new();
        b.counted_loop(1, |b, _| b.work(2));
        let p = b.finish().unwrap();
        let (events, _) = collect(&p);
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], LoopEvent::OneShot { .. }));
    }

    #[test]
    fn nested_loop_executions_counted_per_outer_iteration() {
        let mut b = ProgramBuilder::new();
        b.counted_loop(3, |b, _| {
            b.counted_loop(4, |b, _| b.work(1));
        });
        let p = b.finish().unwrap();
        let (events, _) = collect(&p);
        let inner_id = events
            .iter()
            .find_map(|e| match e {
                LoopEvent::ExecutionStart {
                    loop_id, depth: 2, ..
                } => Some(*loop_id),
                _ => None,
            })
            .expect("inner loop detected at depth 2");
        let inner_execs = events
            .iter()
            .filter(
                |e| matches!(e, LoopEvent::ExecutionEnd { loop_id, .. } if *loop_id == inner_id),
            )
            .count();
        assert_eq!(inner_execs, 3, "one inner execution per outer iteration");
        let outer_ends: Vec<u32> = events
            .iter()
            .filter_map(|e| match e {
                LoopEvent::ExecutionEnd {
                    loop_id,
                    iterations,
                    ..
                } if *loop_id != inner_id => Some(*iterations),
                _ => None,
            })
            .collect();
        assert_eq!(outer_ends, vec![3]);
    }

    #[test]
    fn while_loop_counts_trailing_partial_iteration() {
        // A while loop with 5 body trips has 6 iterations per the paper's
        // definition (the last iteration is the final condition check).
        let mut b = ProgramBuilder::new();
        let x = b.alloc_reg();
        let n = b.alloc_reg();
        b.li(x, 0);
        b.li(n, 5);
        b.while_loop(
            |_| (loopspec_isa::Cond::LtS, x, n),
            |b| {
                b.addi(x, x, 1);
                b.work(1);
            },
        );
        let p = b.finish().unwrap();
        let (events, _) = collect(&p);
        let iters: Vec<u32> = events
            .iter()
            .filter_map(|e| match e {
                LoopEvent::ExecutionEnd { iterations, .. } => Some(*iterations),
                _ => None,
            })
            .collect();
        assert_eq!(iters, vec![6]);
    }

    #[test]
    fn break_ends_execution_early() {
        use loopspec_isa::Cond;
        let mut b = ProgramBuilder::new();
        b.counted_loop(100, |b, i| {
            b.work(2);
            b.with_reg(|b, lim| {
                b.li(lim, 6);
                b.break_if(Cond::GeS, i, lim);
            });
        });
        let p = b.finish().unwrap();
        let (events, _) = collect(&p);
        let iters: Vec<u32> = events
            .iter()
            .filter_map(|e| match e {
                LoopEvent::ExecutionEnd { iterations, .. } => Some(*iterations),
                _ => None,
            })
            .collect();
        // Breaks at i == 6, i.e. during iteration 7.
        assert_eq!(iters, vec![7]);
    }

    #[test]
    fn loop_in_function_called_from_loop_nests() {
        let mut b = ProgramBuilder::new();
        b.define_func("inner", |b| {
            b.counted_loop(3, |b, _| b.work(1));
        });
        b.counted_loop(2, |b, _| {
            b.call_func("inner");
        });
        let p = b.finish().unwrap();
        let (events, _) = collect(&p);
        // The function's loop runs at depth 2: its execution is nested in
        // the caller's (subroutine bodies belong to the loop execution).
        let depths: Vec<u32> = events
            .iter()
            .filter_map(|e| match e {
                LoopEvent::ExecutionStart { depth, .. } => Some(*depth),
                _ => None,
            })
            .collect();
        assert!(depths.contains(&2), "function loop nested: {depths:?}");
    }

    #[test]
    fn collector_counts_instructions() {
        let mut b = ProgramBuilder::new();
        b.work(10);
        let p = b.finish().unwrap();
        let (_, n) = collect(&p);
        // 2 startup + 10 work + halt
        assert_eq!(n, 13);
    }

    #[test]
    fn tracer_path_collector_round_trips_mid_loop() {
        // The collector as a *Tracer* owns detection: a snapshot taken
        // mid-loop must carry the internal CLS so a restored collector
        // continues the event stream exactly.
        use crate::SnapshotState;
        let mut b = ProgramBuilder::new();
        b.counted_loop(12, |b, _| {
            b.counted_loop(5, |b, _| b.work(3));
        });
        let p = b.finish().unwrap();

        let mut reference = EventCollector::default();
        let mut cpu = Cpu::new();
        cpu.run(&p, &mut reference, RunLimits::default()).unwrap();

        // Interrupted run: cut mid-loop, round-trip through bytes.
        let mut first = EventCollector::default();
        let mut cpu = Cpu::new();
        cpu.run(&p, &mut first, RunLimits::with_fuel(50)).unwrap();
        let mut enc = crate::snap::Enc::new();
        first.save_state(&mut enc);
        let bytes = enc.into_bytes();

        // A dirty target collector must be fully overwritten.
        let mut second = EventCollector::default();
        Cpu::new()
            .run(&p, &mut second, RunLimits::with_fuel(30))
            .unwrap();
        let mut dec = crate::snap::Dec::new(&bytes);
        second.load_state(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(second.cls.depth(), first.cls.depth());

        cpu.resume(&p, &mut second, RunLimits::default()).unwrap();
        assert_eq!(second.events(), reference.events());
        assert_eq!(second.instructions(), reference.instructions());
    }

    #[test]
    fn events_positions_are_monotone() {
        let mut b = ProgramBuilder::new();
        b.counted_loop(3, |b, _| {
            b.counted_loop(2, |b, _| b.work(1));
            b.work(1);
        });
        let p = b.finish().unwrap();
        let (events, n) = collect(&p);
        let mut last = 0;
        for e in &events {
            assert!(e.pos() >= last, "positions must be non-decreasing");
            assert!(e.pos() <= n);
            last = e.pos();
        }
    }
}
