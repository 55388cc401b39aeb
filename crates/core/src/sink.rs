//! The streaming consumer interface for loop events.
//!
//! The CLS observes the committed instruction stream once and pushes
//! [`LoopEvent`]s into a [`LoopEventSink`] as it goes — exactly the shape
//! of the paper's hardware, where the LET/LIT and the speculation engine
//! watch the detector live rather than replaying a recorded trace.
//! Everything downstream of detection implements this trait:
//!
//! * [`EventCollector`](crate::EventCollector) and `Vec<LoopEvent>` —
//!   materialize the stream (the legacy collect-then-replay path);
//! * [`LoopStats`](crate::LoopStats) and
//!   [`TableHitSim`](crate::TableHitSim) — incremental statistics;
//! * `loopspec_mt::EngineGrid` — the single-pass speculation engines,
//!   one lane per (policy × TU-count) configuration;
//! * `loopspec_dataspec::LiveInProfiler` — live-in value profiling;
//! * `&mut S`, so a borrowed sink is a sink too. One detector feeds
//!   many analyses in the same pass through the sink list of a
//!   `loopspec_pipeline::Session`, the only fan-out.
//!
//! ## The batching contract
//!
//! Producers may deliver events either one at a time
//! ([`LoopEventSink::on_loop_event`]) or in chunks
//! ([`LoopEventSink::on_loop_events`]). The two forms are
//! interchangeable views of the *same* stream, and every implementation
//! must treat them so:
//!
//! * **Ordering.** Concatenating the chunks (and single events) in
//!   delivery order yields the commit-ordered event stream, with
//!   non-decreasing stream positions. Chunk boundaries are arbitrary —
//!   they carry no semantic meaning, and a sink must produce identical
//!   results for any chunking of the same stream (the
//!   `chunked_equivalence` property test pins this down).
//! * **Default.** The default [`on_loop_events`] loops over
//!   [`on_loop_event`], so implementing the per-event method alone is
//!   always correct. Sinks override the batch method only to amortize
//!   per-delivery work (one virtual call, one drain pass per chunk).
//! * **Flush on stream end.** [`on_stream_end`] is called once, after
//!   the last event. A producer that buffers events into chunks (the
//!   CLS's internal chunk, `loopspec_pipeline::Session`) must flush its
//!   partial final chunk *before* ending the stream, so a sink never
//!   observes events after `on_stream_end`. A final chunk may therefore
//!   be any length in `1..=chunk_capacity`, including one that
//!   straddles what would otherwise be a chunk boundary.
//!
//! [`on_loop_events`]: LoopEventSink::on_loop_events
//! [`on_loop_event`]: LoopEventSink::on_loop_event
//! [`on_stream_end`]: LoopEventSink::on_stream_end

use crate::LoopEvent;

/// A consumer of the detector's loop-event stream.
///
/// Events arrive in commit order with non-decreasing stream positions,
/// either singly or in chunks (see the [module docs](self) for the
/// batching contract). [`LoopEventSink::on_stream_end`] is called once,
/// after the last event, with the final instruction count; sinks that
/// need to close open state (e.g. the streaming engine) finalize there.
pub trait LoopEventSink {
    /// Called for every loop event, in commit order.
    fn on_loop_event(&mut self, ev: &LoopEvent);

    /// Called with a chunk of consecutive loop events, in commit order.
    ///
    /// Semantically identical to calling
    /// [`on_loop_event`](LoopEventSink::on_loop_event) for each element;
    /// the default implementation does exactly that. Batch-aware sinks
    /// override it to pay their per-delivery bookkeeping once per chunk
    /// instead of once per event.
    fn on_loop_events(&mut self, events: &[LoopEvent]) {
        for ev in events {
            self.on_loop_event(ev);
        }
    }

    /// Called once when the instruction stream ends. `instructions` is
    /// the total number of committed instructions.
    fn on_stream_end(&mut self, instructions: u64) {
        let _ = instructions;
    }
}

impl LoopEventSink for Vec<LoopEvent> {
    #[inline]
    fn on_loop_event(&mut self, ev: &LoopEvent) {
        self.push(*ev);
    }

    #[inline]
    fn on_loop_events(&mut self, events: &[LoopEvent]) {
        self.extend_from_slice(events);
    }
}

impl<S: LoopEventSink + ?Sized> LoopEventSink for &mut S {
    #[inline]
    fn on_loop_event(&mut self, ev: &LoopEvent) {
        (**self).on_loop_event(ev);
    }

    #[inline]
    fn on_loop_events(&mut self, events: &[LoopEvent]) {
        (**self).on_loop_events(events);
    }

    #[inline]
    fn on_stream_end(&mut self, instructions: u64) {
        (**self).on_stream_end(instructions);
    }
}

impl<S: LoopEventSink + ?Sized> LoopEventSink for Box<S> {
    #[inline]
    fn on_loop_event(&mut self, ev: &LoopEvent) {
        (**self).on_loop_event(ev);
    }

    #[inline]
    fn on_loop_events(&mut self, events: &[LoopEvent]) {
        (**self).on_loop_events(events);
    }

    #[inline]
    fn on_stream_end(&mut self, instructions: u64) {
        (**self).on_stream_end(instructions);
    }
}

/// A sink that only counts events — useful for throughput measurements
/// and as the cheapest possible pipeline endpoint.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingSink {
    /// Events observed.
    pub events: u64,
    /// Instruction count reported at stream end (0 until then).
    pub instructions: u64,
}

impl LoopEventSink for CountingSink {
    #[inline]
    fn on_loop_event(&mut self, _ev: &LoopEvent) {
        self.events += 1;
    }

    #[inline]
    fn on_loop_events(&mut self, events: &[LoopEvent]) {
        self.events += events.len() as u64;
    }

    fn on_stream_end(&mut self, instructions: u64) {
        self.instructions = instructions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LoopId;
    use loopspec_isa::Addr;

    fn ev(pos: u64) -> LoopEvent {
        LoopEvent::OneShot {
            loop_id: LoopId(Addr::new(1)),
            pos,
            depth: 1,
        }
    }

    #[test]
    fn vec_sink_collects() {
        let mut v: Vec<LoopEvent> = Vec::new();
        v.on_loop_event(&ev(1));
        v.on_loop_event(&ev(2));
        assert_eq!(v.len(), 2);
        v.on_stream_end(10); // no-op for Vec
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn vec_sink_batches() {
        let mut v: Vec<LoopEvent> = Vec::new();
        v.on_loop_events(&[ev(1), ev(2), ev(3)]);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn default_batch_loops_over_single() {
        // A sink that only implements the per-event method still sees the
        // whole chunk through the default on_loop_events.
        struct Last(Option<u64>, usize);
        impl LoopEventSink for Last {
            fn on_loop_event(&mut self, ev: &LoopEvent) {
                self.0 = Some(ev.pos());
                self.1 += 1;
            }
        }
        let mut s = Last(None, 0);
        s.on_loop_events(&[ev(4), ev(9)]);
        assert_eq!(s.0, Some(9));
        assert_eq!(s.1, 2);
    }

    #[test]
    fn counting_sink_batch_counts() {
        let mut c = CountingSink::default();
        c.on_loop_events(&[ev(1), ev(2), ev(3)]);
        c.on_loop_event(&ev(4));
        assert_eq!(c.events, 4);
    }

    #[test]
    fn mut_ref_delegates() {
        let mut c = CountingSink::default();
        {
            let mut r = &mut c;
            LoopEventSink::on_loop_event(&mut r, &ev(3));
            LoopEventSink::on_loop_events(&mut r, &[ev(4), ev(5)]);
            LoopEventSink::on_stream_end(&mut r, 9);
        }
        assert_eq!(c.events, 3);
        assert_eq!(c.instructions, 9);
    }
}
