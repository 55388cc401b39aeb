//! The two-phase streaming oracle (paper Figure 5 without a
//! materialized trace).
//!
//! The oracle consults the *future*: when an iteration starts, it
//! spawns exactly the actual remaining iterations of that execution. The batch
//! [`Engine`](crate::Engine) answers that question from a fully built
//! [`AnnotatedTrace`](crate::AnnotatedTrace) — O(trace) memory, a
//! second materialized pass. This module replaces that with the shape
//! Prophet-style speculation uses: **pre-compute the future inputs,
//! then stream**.
//!
//! * **Phase 1** — an [`IterationCountLog`] runs as an ordinary sink in
//!   the normal streaming fan-out. It records, per detected loop
//!   execution in program order, the execution's *final* iteration
//!   count — a few bytes per execution, nothing per iteration or per
//!   instruction.
//! * **Phase 2** — the log freezes into an [`OracleFeed`], and a second
//!   streaming pass (over the retained event stream, a re-execution, or
//!   a sharded/distributed replay) hosts [`EngineGrid`](crate::EngineGrid)
//!   oracle lanes, added with
//!   [`push_oracle`](crate::EngineGrid::push_oracle) /
//!   [`push_oracle_unbounded`](crate::EngineGrid::push_oracle_unbounded).
//!   At every
//!   iteration start the driver looks the execution's total up in the
//!   feed and hands the oracle its ground truth.
//!
//! Reports are **bit-identical** to the batch oracle (the
//! `oracle_equivalence` suite proves it on all 18 workloads): the feed
//! answers exactly the question `ExecInfo::remaining_after` answered,
//! and execution ordinals are assigned in detection order by both the
//! streaming annotator and the batch trace builder.
//!
//! The log is a first-class [`SnapshotState`] citizen — a checkpoint
//! may cut mid-chunk through phase 1 and the restored log finishes with
//! identical counts — so phase 1 checkpoints, resumes and shards like
//! every other sink.
//!
//! ## Example
//!
//! ```
//! use loopspec_asm::ProgramBuilder;
//! use loopspec_core::{EventCollector, LoopEventSink};
//! use loopspec_cpu::{Cpu, RunLimits};
//! use loopspec_mt::{EngineGrid, IterationCountLog};
//!
//! let mut b = ProgramBuilder::new();
//! b.counted_loop(50, |b, _| b.work(20));
//! let program = b.finish()?;
//! let mut c = EventCollector::default();
//! Cpu::new().run(&program, &mut c, RunLimits::default())?;
//! let (events, n) = c.into_parts();
//!
//! // Phase 1: record per-execution iteration counts.
//! let mut log = IterationCountLog::new();
//! log.on_loop_events(&events);
//! log.on_stream_end(n);
//! let feed = log.into_feed();
//!
//! // Phase 2: stream the oracle with the feed as its future knowledge.
//! let mut grid = EngineGrid::new();
//! let oracle = grid.push_oracle_unbounded(feed);
//! grid.on_loop_events(&events);
//! grid.on_stream_end(n);
//! assert!(grid.report(oracle).unwrap().tpc() > 10.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::sync::Arc;

use loopspec_core::snap::{fnv1a_update, Dec, Enc, SnapError, FNV1A_INIT};
use loopspec_core::{LoopEvent, LoopEventSink, LoopId, SnapshotState};

/// Phase 1 of the two-phase streaming oracle: a cheap
/// [`LoopEventSink`] that records, per detected loop execution in
/// program order, the actual (final) iteration count.
///
/// Execution ordinals are assigned in detection order — the same order
/// the streaming annotator and
/// [`AnnotatedTrace`](crate::AnnotatedTrace) use — so a phase-2 pass
/// over the same stream looks its executions up by ordinal. Memory is
/// O(detected executions): one `u32` per execution plus the open-loop
/// bindings (bounded by the CLS nesting depth).
///
/// Executions still open when the stream ends (truncated runs) keep
/// their last observed iteration index as the count, exactly like the
/// batch annotator's trailing closes.
#[derive(Debug, Default, Clone)]
pub struct IterationCountLog {
    /// Final iteration count per execution ordinal. While an execution
    /// is open the slot holds its highest observed iteration index.
    counts: Vec<u32>,
    /// Loop id → ordinal of its open execution (at most the CLS
    /// nesting depth entries — a linear scan beats any hash).
    open: Vec<(LoopId, u32)>,
    /// `true` once the stream ended (the log is ready to feed).
    finished: bool,
}

impl IterationCountLog {
    /// An empty log.
    pub fn new() -> Self {
        IterationCountLog::default()
    }

    /// Number of executions recorded so far.
    pub fn executions(&self) -> usize {
        self.counts.len()
    }

    /// `true` once [`on_stream_end`](LoopEventSink::on_stream_end) was
    /// delivered.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Freezes the recorded counts into a shareable [`OracleFeed`]
    /// without consuming the log.
    pub fn feed(&self) -> OracleFeed {
        OracleFeed::new(self.counts.clone())
    }

    /// Consumes the log into its [`OracleFeed`].
    pub fn into_feed(self) -> OracleFeed {
        OracleFeed::new(self.counts)
    }
}

impl LoopEventSink for IterationCountLog {
    fn on_loop_event(&mut self, ev: &LoopEvent) {
        match *ev {
            LoopEvent::ExecutionStart { loop_id, .. } => {
                debug_assert!(
                    self.open.iter().all(|&(l, _)| l != loop_id),
                    "loop {loop_id} already open"
                );
                self.open.push((loop_id, self.counts.len() as u32));
                // Iteration 1 is undetectable; an execution exists
                // because its second iteration started.
                self.counts.push(1);
            }
            LoopEvent::IterationStart { loop_id, iter, .. } => {
                if let Some(&(_, exec)) = self.open.iter().find(|&&(l, _)| l == loop_id) {
                    self.counts[exec as usize] = iter;
                }
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
                if let Some(i) = self.open.iter().position(|&(l, _)| l == loop_id) {
                    let (_, exec) = self.open.swap_remove(i);
                    self.counts[exec as usize] = iterations;
                }
            }
            LoopEvent::OneShot { .. } => {}
        }
    }

    fn on_stream_end(&mut self, _instructions: u64) {
        // Executions left open keep their last observed iteration
        // index — the same total the batch annotator assigns to
        // trailing closes.
        self.open.clear();
        self.finished = true;
    }
}

/// Serializes the log's counts and open-loop bindings so phase 1 can
/// checkpoint mid-stream (including mid-chunk) and resume with
/// identical final counts.
impl SnapshotState for IterationCountLog {
    fn save_state(&self, out: &mut Enc) {
        out.u64(self.counts.len() as u64);
        for &c in &self.counts {
            out.u32(c);
        }
        out.u64(self.open.len() as u64);
        for &(l, e) in &self.open {
            out.u32(l.0.index());
            out.u32(e);
        }
        out.bool(self.finished);
    }

    fn load_state(&mut self, src: &mut Dec<'_>) -> Result<(), SnapError> {
        let n = src.count_elems(4)?;
        self.counts.clear();
        self.counts.reserve(n);
        for _ in 0..n {
            self.counts.push(src.u32()?);
        }
        let n = src.count()?;
        self.open.clear();
        for _ in 0..n {
            let l = LoopId(loopspec_isa::Addr::new(src.u32()?));
            let e = src.u32()?;
            // The loop's next event indexes `counts` by the ordinal.
            if e as usize >= self.counts.len() {
                return Err(SnapError::Corrupt {
                    what: "open binding without a count",
                });
            }
            self.open.push((l, e));
        }
        self.finished = src.bool()?;
        Ok(())
    }
}

/// Phase 2 of the two-phase streaming oracle: the frozen per-execution
/// iteration counts, shared (cheaply clonable) across any number of
/// oracle lanes.
///
/// The feed answers the one question an oracle policy asks — "how many
/// iterations of execution `exec` remain after iteration `iter`?" —
/// which is exactly what
/// [`ExecInfo::remaining_after`](crate::ExecInfo::remaining_after)
/// answered on the materialized path. An execution ordinal beyond the
/// log (possible only when phase 2 streams *more* than phase 1 saw)
/// yields 0 remaining: the oracle speculates nothing rather than
/// guessing.
#[derive(Debug, Clone)]
pub struct OracleFeed {
    counts: Arc<[u32]>,
    /// FNV-1a over the counts — echoed into engine snapshots so a lane
    /// can never silently resume against a different future.
    fingerprint: u64,
}

impl OracleFeed {
    fn new(counts: Vec<u32>) -> Self {
        // FNV-1a over the counts' little-endian bytes — the same
        // digest as hashing their `Enc` serialization, without an
        // O(executions) scratch buffer per feed.
        let fingerprint = counts
            .iter()
            .fold(FNV1A_INIT, |h, c| fnv1a_update(h, &c.to_le_bytes()));
        OracleFeed {
            counts: counts.into(),
            fingerprint,
        }
    }

    /// Ground truth: iterations of execution `exec` remaining after
    /// iteration `iter` (0 for unknown executions).
    #[inline]
    pub fn remaining_after(&self, exec: u32, iter: u32) -> u32 {
        self.counts
            .get(exec as usize)
            .map_or(0, |&total| total.saturating_sub(iter))
    }

    /// The total iteration count of execution `exec`, if recorded.
    pub fn total_iters(&self, exec: u32) -> Option<u32> {
        self.counts.get(exec as usize).copied()
    }

    /// Number of recorded executions.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// `true` when no executions were recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// A deterministic digest of the counts, echoed in engine
    /// snapshots ([`SnapError::Mismatch`] on resume against a
    /// different feed).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::AnnotatedTrace;
    use loopspec_asm::ProgramBuilder;
    use loopspec_core::EventCollector;
    use loopspec_cpu::{Cpu, RunLimits};

    fn events_of(build: impl FnOnce(&mut ProgramBuilder)) -> (Vec<LoopEvent>, u64) {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        let p = b.finish().expect("assembles");
        let mut c = EventCollector::default();
        Cpu::new()
            .run(&p, &mut c, RunLimits::default())
            .expect("runs");
        c.into_parts()
    }

    fn log_of(events: &[LoopEvent], n: u64) -> IterationCountLog {
        let mut log = IterationCountLog::new();
        log.on_loop_events(events);
        log.on_stream_end(n);
        log
    }

    #[test]
    fn counts_match_the_annotated_trace() {
        let (events, n) = events_of(|b| {
            b.counted_loop(6, |b, _| {
                for _ in 0..2 {
                    b.counted_loop(11, |b, _| b.work(7));
                }
            });
        });
        let trace = AnnotatedTrace::build(&events, n);
        let log = log_of(&events, n);
        assert!(log.is_finished());
        assert_eq!(log.executions(), trace.execs.len());
        let feed = log.into_feed();
        for (exec, info) in trace.execs.iter().enumerate() {
            assert_eq!(feed.total_iters(exec as u32), Some(info.total_iters));
            for iter in 2..=info.total_iters + 2 {
                assert_eq!(
                    feed.remaining_after(exec as u32, iter),
                    info.remaining_after(iter),
                    "exec {exec} iter {iter}"
                );
            }
        }
    }

    #[test]
    fn truncated_streams_keep_the_last_observed_iteration() {
        let (mut events, _) = events_of(|b| {
            b.counted_loop(30, |b, _| {
                b.counted_loop(5, |b, _| b.work(6));
            });
        });
        events.truncate(events.len() / 2);
        let n = events.last().map_or(0, |e| e.pos()) + 10;
        let trace = AnnotatedTrace::build(&events, n);
        let feed = log_of(&events, n).into_feed();
        for (exec, info) in trace.execs.iter().enumerate() {
            assert_eq!(
                feed.total_iters(exec as u32),
                Some(info.total_iters),
                "exec {exec}"
            );
        }
    }

    #[test]
    fn unknown_executions_yield_zero_remaining() {
        let feed = IterationCountLog::new().into_feed();
        assert!(feed.is_empty());
        assert_eq!(feed.len(), 0);
        assert_eq!(feed.remaining_after(0, 2), 0);
        assert_eq!(feed.total_iters(7), None);
    }

    #[test]
    fn chunked_delivery_matches_per_event() {
        let (events, n) = events_of(|b| {
            b.counted_loop(9, |b, _| {
                b.counted_loop(14, |b, _| b.work(5));
            });
        });
        let per_event = {
            let mut log = IterationCountLog::new();
            for ev in &events {
                log.on_loop_event(ev);
            }
            log.on_stream_end(n);
            log.into_feed()
        };
        for chunk in [1usize, 3, 64, events.len().max(1)] {
            let mut log = IterationCountLog::new();
            for c in events.chunks(chunk) {
                log.on_loop_events(c);
            }
            log.on_stream_end(n);
            let feed = log.into_feed();
            assert_eq!(feed.fingerprint(), per_event.fingerprint(), "chunk {chunk}");
        }
    }

    #[test]
    fn snapshot_round_trip_is_exact_at_every_cut() {
        let (events, n) = events_of(|b| {
            b.counted_loop(8, |b, _| {
                b.counted_loop(6, |b, _| b.work(4));
            });
        });
        let reference = log_of(&events, n).into_feed();
        for cut in 0..=events.len() {
            let mut first = IterationCountLog::new();
            first.on_loop_events(&events[..cut]);
            let mut enc = Enc::new();
            first.save_state(&mut enc);
            let bytes = enc.into_bytes();

            let mut second = IterationCountLog::new();
            second.load_state(&mut Dec::new(&bytes)).expect("loads");
            second.on_loop_events(&events[cut..]);
            second.on_stream_end(n);
            assert_eq!(
                second.into_feed().fingerprint(),
                reference.fingerprint(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn corrupt_snapshot_is_rejected() {
        let mut dec = Dec::new(&[0xff; 3]);
        assert!(IterationCountLog::new().load_state(&mut dec).is_err());
    }

    #[test]
    fn snapshots_refuse_an_open_binding_without_a_count() {
        let (events, _) = events_of(|b| b.counted_loop(10, |b, _| b.work(5)));
        let mut log = IterationCountLog::new();
        log.on_loop_events(&events[..events.len() / 2]);
        let (l, exec) = log.open[0];
        for dangling in [log.counts.len() as u32, exec + 7] {
            log.open[0] = (l, dangling);
            let mut enc = Enc::new();
            log.save_state(&mut enc);
            assert_eq!(
                IterationCountLog::new().load_state(&mut Dec::new(&enc.into_bytes())),
                Err(SnapError::Corrupt {
                    what: "open binding without a count"
                })
            );
        }
    }

    #[test]
    fn fingerprints_distinguish_different_futures() {
        let (a, n) = events_of(|b| b.counted_loop(10, |b, _| b.work(5)));
        let (b_ev, m) = events_of(|b| b.counted_loop(11, |b, _| b.work(5)));
        let fa = log_of(&a, n).into_feed();
        let fb = log_of(&b_ev, m).into_feed();
        assert_ne!(fa.fingerprint(), fb.fingerprint());
    }
}
