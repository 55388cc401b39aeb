//! The event-driven multithreading engine.
//!
//! Timing model (see `DESIGN.md` §4.3): every thread unit retires one
//! instruction per cycle. A speculative thread spawned at time `s` for a
//! stream region starting at `a` executes self-paced; the commit frontier
//! inside the thread that is currently non-speculative advances as
//! `time(p) = max(h, s + (p - a))` where `h` is the handoff time at which
//! it became non-speculative. Verification (handoff) happens when the
//! frontier reaches a speculated iteration's start; squash happens when a
//! loop execution ends with phantom iterations outstanding, or when the
//! STR(i) nesting rule fires.
//!
//! Because each correctly-speculated thread is active for exactly the
//! cycles it takes to execute its committed region, the sum of
//! active-and-correct thread-cycles equals the trace's instruction count,
//! and **TPC = instructions / total cycles**. A run without speculation
//! therefore has TPC exactly 1.
//!
//! The decision logic lives in [`EngineCore`], which is driven by two
//! front ends that produce bit-identical [`EngineReport`]s:
//!
//! * [`Engine`] — the batch driver: replays a fully built
//!   [`AnnotatedTrace`], which also answers the oracle's questions about
//!   future iteration counts;
//! * [`EngineGrid`](crate::EngineGrid) — the streaming driver: consumes
//!   raw `LoopEvent`s as the detector emits them for any number of
//!   (policy × TU-count) lanes, buffering only a bounded run-ahead
//!   window.

use std::collections::VecDeque;

use loopspec_core::LoopId;

use crate::annotate::{AnnotatedTrace, TraceEventKind};
use crate::grid::check_tus;
use crate::policy::{burst, Policy};
use crate::predictor::IterPredictor;
use crate::stats::SpecStats;

/// Result of an [`Engine`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport {
    /// Committed instructions (= the trace length).
    pub instructions: u64,
    /// Total cycles until the last instruction committed.
    pub cycles: u64,
    /// Speculation counters (Table 2 columns).
    pub spec: SpecStats,
    /// Name of the policy that produced this report.
    pub policy: &'static str,
    /// Thread units used (`None` = unbounded).
    pub tus: Option<usize>,
}

impl EngineReport {
    /// Threads per cycle: the paper's headline metric.
    pub fn tpc(&self) -> f64 {
        if self.cycles == 0 {
            1.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// The current non-speculative thread: the region it started at, when it
/// began executing, and when it became non-speculative.
#[derive(Debug, Clone, Copy)]
struct CurThread {
    start_pos: u64,
    spawn_time: u64,
    handoff_time: u64,
}

impl CurThread {
    /// Commit time of stream position `pos` (≥ `start_pos`).
    #[inline]
    fn time_at(&self, pos: u64) -> u64 {
        self.handoff_time
            .max(self.spawn_time + (pos - self.start_pos))
    }
}

/// A live speculative thread for one future iteration.
#[derive(Debug, Clone, Copy)]
struct Segment {
    spawn_time: u64,
    spawn_pos: u64,
}

/// One open loop execution and its speculation bookkeeping.
#[derive(Debug)]
struct OpenExec {
    exec: u32,
    /// Live speculated iterations with their threads, in ascending
    /// iteration order. All lie in the future; the run-ahead skip can
    /// leave holes between them. The front is the next to verify.
    live: VecDeque<(u32, Segment)>,
    /// Non-speculated loop executions detected nested inside this one
    /// while it had live threads (the STR(i) counter).
    nested_nonspec: u32,
    /// Set once the policy first asked to speculate for this execution:
    /// such executions carry a `spec` entry in the snapshot, live
    /// threads or not.
    spec: bool,
}

/// The driver-independent speculation state machine.
///
/// Consumes execution/iteration boundary events keyed by a dense
/// execution ordinal (assigned in detection order by the driver) and
/// makes every spawn / verify / squash decision. Front ends only differ
/// in *when* they can afford to deliver an event:
///
/// * the batch [`Engine`] has the whole trace, so it feeds events
///   eagerly and answers iteration-position lookups from the
///   [`AnnotatedTrace`];
/// * the streaming driver must delay an iteration event until the stream
///   frontier passes [`EngineCore::iter_start_horizon`], the highest
///   position the spawn decision can consult.
///
/// `policy` is a history policy, or `None` for the Figure 5 oracle. It
/// only decides how many iterations the core believes remain when it
/// sizes a burst (see `burst`) and whether the STR(i) nesting rule
/// applies. All per-execution state lives on one stack of open
/// executions in detection order. Nesting is shallow (the CLS holds 16
/// loops) and the execution an event names is almost always the top, so
/// every lookup scans from the top.
#[derive(Debug)]
pub(crate) struct EngineCore {
    policy: Option<Policy>,
    total_tus: u64,
    tus_label: Option<usize>,
    cur: CurThread,
    open: Vec<OpenExec>,
    /// Emptied live sets of ended executions, reused by the next
    /// `exec_start` so a lane does not allocate per execution.
    spare: Vec<VecDeque<(u32, Segment)>>,
    live_total: u64,
    predictor: IterPredictor,
    stats: SpecStats,
}

impl EngineCore {
    /// A core running `policy` (`None` = the oracle) on `total_tus`
    /// thread units, reported as `tus_label`.
    pub(crate) fn new(policy: Option<Policy>, total_tus: u64, tus_label: Option<usize>) -> Self {
        EngineCore {
            policy,
            total_tus,
            tus_label,
            cur: CurThread {
                start_pos: 0,
                spawn_time: 0,
                handoff_time: 0,
            },
            open: Vec::new(),
            spare: Vec::new(),
            live_total: 0,
            predictor: IterPredictor::new(),
            stats: SpecStats::default(),
        }
    }

    /// The core's history policy; `None` for the oracle.
    pub(crate) fn policy(&self) -> Option<Policy> {
        self.policy
    }

    /// STR(i)'s nesting limit, if this core runs STR(i).
    #[inline]
    fn nesting_limit(&self) -> Option<u32> {
        self.policy.and_then(Policy::nesting_limit)
    }

    #[inline]
    fn idle(&self) -> u64 {
        self.total_tus.saturating_sub(1 + self.live_total)
    }

    /// Stack index of open execution `exec`.
    #[inline]
    fn find(&self, exec: u32) -> Option<usize> {
        self.open.iter().rposition(|o| o.exec == exec)
    }

    /// A new loop execution was detected.
    pub(crate) fn exec_start(&mut self, exec: u32) {
        self.open.push(OpenExec {
            exec,
            live: self.spare.pop().unwrap_or_default(),
            nested_nonspec: 0,
            spec: false,
        });
    }

    /// The highest stream position the decision at an
    /// `iter_start(exec, iter, pos)` event may consult: the self-paced
    /// run-ahead of the thread that will be non-speculative after
    /// verification. A streaming driver must not deliver the event before
    /// it has observed the stream up to this position (events with
    /// positions `< horizon` must all be known).
    pub(crate) fn iter_start_horizon(&self, exec: u32, iter: u32, pos: u64) -> u64 {
        let t = self.cur.time_at(pos);
        let front = self.find(exec).and_then(|k| self.open[k].live.front());
        if let Some(&(_, seg)) = front.filter(|&&(j, _)| j == iter) {
            let seg_virtual = seg.spawn_time as i128 - pos as i128;
            let cur_virtual = self.cur.spawn_time as i128 - self.cur.start_pos as i128;
            if seg_virtual <= cur_virtual {
                // Verification will hand off to this segment.
                return pos + (t - seg.spawn_time);
            }
        }
        self.cur.start_pos + (t - self.cur.spawn_time)
    }

    /// Iteration `iter` (≥ 2) of execution `exec` starts at `pos`.
    ///
    /// `iter_pos` answers "at which stream position does iteration `j` of
    /// this execution start?" for any `j` up to the horizon (`None` when
    /// the iteration does not exist or starts at/after the horizon).
    /// `remaining_from_feed` is ground truth for the oracle — the batch
    /// driver reads it off the annotated trace, streaming oracle lanes
    /// off an [`OracleFeed`](crate::OracleFeed); history policies never
    /// read it, and their lanes pass 0.
    /// `iter_pos` is generic, not `&dyn`: the spawn decision's binary
    /// search calls it per probe, and each driver's lookup must inline.
    pub(crate) fn iter_start(
        &mut self,
        exec: u32,
        loop_id: LoopId,
        iter: u32,
        pos: u64,
        iter_pos: &impl Fn(u32) -> Option<u64>,
        remaining_from_feed: u32,
    ) {
        // Drivers only deliver iterations of open executions.
        let Some(k) = self.find(exec) else {
            return;
        };
        let t = self.cur.time_at(pos);

        // --- Verification: handoff to the speculated thread for this
        // iteration, if one exists. Iterations arrive in order, so no
        // live one lies below `iter` and only the front can match. A
        // segment whose self-paced progress lags the current thread's
        // run-ahead is *stale* (its work is redundant) and is discarded
        // instead of taking over the frontier.
        let live = &mut self.open[k].live;
        if let Some(&(_, seg)) = live.front().filter(|&&(j, _)| j == iter) {
            live.pop_front();
            self.live_total -= 1;
            self.stats.instr_to_outcome_sum += pos - seg.spawn_pos;
            let seg_virtual = seg.spawn_time as i128 - pos as i128;
            let cur_virtual = self.cur.spawn_time as i128 - self.cur.start_pos as i128;
            if seg_virtual <= cur_virtual {
                self.stats.verified += 1;
                self.cur = CurThread {
                    start_pos: pos,
                    spawn_time: seg.spawn_time,
                    handoff_time: t,
                };
            } else {
                self.stats.squashed_stale += 1;
            }
        }

        // --- Speculation attempt.
        let spawned = self.attempt_spawn(k, loop_id, iter, pos, t, iter_pos, remaining_from_feed);

        // --- STR(i): a newly detected execution that could not speculate
        // counts against enclosing speculated loops; exceeding the limit
        // squashes the outermost one and retries.
        if spawned == 0 && iter == 2 {
            if let Some(limit) = self.nesting_limit() {
                let mut victim: Option<usize> = None;
                for (g, o) in self.open.iter_mut().enumerate() {
                    if g == k || o.live.is_empty() {
                        continue;
                    }
                    o.nested_nonspec += 1;
                    if o.nested_nonspec > limit && victim.is_none() {
                        victim = Some(g);
                    }
                }
                if let Some(g) = victim {
                    self.squash(g, pos, false);
                    let _ =
                        self.attempt_spawn(k, loop_id, iter, pos, t, iter_pos, remaining_from_feed);
                }
            }
        }
    }

    /// Execution `exec` ended at `pos`. `closed` is `false` for
    /// evictions and truncated traces; `total_iters` is the execution's
    /// final iteration count.
    pub(crate) fn exec_end(
        &mut self,
        exec: u32,
        loop_id: LoopId,
        pos: u64,
        closed: bool,
        total_iters: u32,
    ) {
        if let Some(k) = self.find(exec) {
            self.squash(k, pos, true);
            let ended = self.open.remove(k);
            self.spare.push(ended.live);
        }
        if closed {
            self.predictor.record_execution(loop_id, total_iters);
        }
    }

    /// Serializes the decision-machine state: the current thread's
    /// timing cursor, every live speculative segment, per-execution
    /// speculation bookkeeping, the open-execution stack, the iteration
    /// predictor (LET) and the statistics counters. The policy is
    /// configuration, set by the owner, not serialized. Segments are
    /// written sorted by `(exec, iter)` and speculation entries by
    /// `exec`, so equal state yields equal bytes. The configuration (TU count, nesting limit) is
    /// echoed for verification at load time.
    pub(crate) fn save_state(&self, out: &mut loopspec_core::snap::Enc) {
        out.u64(self.total_tus);
        out.u64(self.tus_label.map_or(u64::MAX, |t| t as u64));
        out.u32(self.nesting_limit().unwrap_or(u32::MAX));
        out.u64(self.cur.start_pos);
        out.u64(self.cur.spawn_time);
        out.u64(self.cur.handoff_time);

        let mut segments: Vec<(u32, u32, Segment)> = self
            .open
            .iter()
            .flat_map(|o| o.live.iter().map(|&(iter, seg)| (o.exec, iter, seg)))
            .collect();
        segments.sort_unstable_by_key(|&(exec, iter, _)| (exec, iter));
        out.u64(segments.len() as u64);
        for (exec, iter, seg) in segments {
            out.u32(exec);
            out.u32(iter);
            out.u64(seg.spawn_time);
            out.u64(seg.spawn_pos);
        }

        let mut spec: Vec<&OpenExec> = self.open.iter().filter(|o| o.spec).collect();
        spec.sort_unstable_by_key(|o| o.exec);
        out.u64(spec.len() as u64);
        for o in spec {
            out.u32(o.exec);
            out.u64(o.live.len() as u64);
            for &(iter, _) in &o.live {
                out.u32(iter);
            }
            out.u32(o.nested_nonspec);
        }

        out.u64(self.open.len() as u64);
        for o in &self.open {
            out.u32(o.exec);
        }
        out.u64(self.live_total);
        loopspec_core::SnapshotState::save_state(&self.predictor, out);
        out.u64(self.stats.spec_actions);
        out.u64(self.stats.threads_spawned);
        out.u64(self.stats.verified);
        out.u64(self.stats.squashed_misspec);
        out.u64(self.stats.squashed_policy);
        out.u64(self.stats.squashed_stale);
        out.u64(self.stats.instr_to_outcome_sum);
    }

    /// Restores state written by [`EngineCore::save_state`] into a core
    /// constructed with the **same configuration** (policy, TU count).
    ///
    /// Refuses, as [`SnapError::Corrupt`](loopspec_core::snap::SnapError),
    /// any state the open-execution stack cannot hold: duplicate open
    /// executions or segments, segments or speculation entries of
    /// executions that are not open, live sets out of order or at odds
    /// with the segments, and a wrong live-thread count.
    pub(crate) fn load_state(
        &mut self,
        src: &mut loopspec_core::snap::Dec<'_>,
    ) -> Result<(), loopspec_core::snap::SnapError> {
        use loopspec_core::snap::SnapError;
        let corrupt = |what| Err(SnapError::Corrupt { what });
        if src.u64()? != self.total_tus {
            return Err(SnapError::Mismatch { what: "TU count" });
        }
        if src.u64()? != self.tus_label.map_or(u64::MAX, |t| t as u64) {
            return Err(SnapError::Mismatch { what: "TU label" });
        }
        if src.u32()? != self.nesting_limit().unwrap_or(u32::MAX) {
            return Err(SnapError::Mismatch {
                what: "nesting limit",
            });
        }
        self.cur = CurThread {
            start_pos: src.u64()?,
            spawn_time: src.u64()?,
            handoff_time: src.u64()?,
        };

        let mut segments = Vec::new();
        for _ in 0..src.count()? {
            let key = (src.u32()?, src.u32()?);
            let seg = Segment {
                spawn_time: src.u64()?,
                spawn_pos: src.u64()?,
            };
            segments.push((key, seg));
        }
        let mut spec = Vec::new();
        for _ in 0..src.count()? {
            let exec = src.u32()?;
            let mut live = Vec::new();
            for _ in 0..src.count()? {
                live.push(src.u32()?);
            }
            spec.push((exec, live, src.u32()?));
        }
        self.open.clear();
        for _ in 0..src.count()? {
            self.exec_start(src.u32()?);
        }
        self.live_total = src.u64()?;

        // Stack index of every open execution, sorted for lookups.
        let mut index: Vec<(u32, usize)> = self
            .open
            .iter()
            .enumerate()
            .map(|(k, o)| (o.exec, k))
            .collect();
        index.sort_unstable();
        if index.windows(2).any(|w| w[0].0 == w[1].0) {
            return corrupt("duplicate open execution");
        }
        let stack_index = |exec: u32| -> Option<usize> {
            let i = index.binary_search_by_key(&exec, |&(e, _)| e).ok()?;
            Some(index[i].1)
        };
        segments.sort_unstable_by_key(|&(key, _)| key);
        if segments.windows(2).any(|w| w[0].0 == w[1].0) {
            return corrupt("duplicate segment");
        }
        if segments
            .iter()
            .any(|&((exec, _), _)| stack_index(exec).is_none())
        {
            return corrupt("segment of an execution that is not open");
        }
        // Every live iteration takes its segment; together with the
        // count check below, each segment belongs to exactly one live
        // set.
        let mut claimed = 0usize;
        for (exec, live, nested_nonspec) in spec {
            let Some(k) = stack_index(exec) else {
                return corrupt("speculation entry of an execution that is not open");
            };
            let o = &mut self.open[k];
            if o.spec {
                return corrupt("duplicate speculation entry");
            }
            o.spec = true;
            o.nested_nonspec = nested_nonspec;
            if live.windows(2).any(|w| w[0] >= w[1]) {
                return corrupt("live set order");
            }
            for iter in live {
                let Ok(i) = segments.binary_search_by_key(&(exec, iter), |&(key, _)| key) else {
                    return corrupt("live sets and segment map disagree");
                };
                o.live.push_back((iter, segments[i].1));
                claimed += 1;
            }
        }
        if claimed != segments.len() {
            return corrupt("live sets and segment map disagree");
        }
        // `idle` trusts the count.
        if self.live_total != segments.len() as u64 {
            return corrupt("live thread count");
        }
        loopspec_core::SnapshotState::load_state(&mut self.predictor, src)?;
        self.stats = SpecStats {
            spec_actions: src.u64()?,
            threads_spawned: src.u64()?,
            verified: src.u64()?,
            squashed_misspec: src.u64()?,
            squashed_policy: src.u64()?,
            squashed_stale: src.u64()?,
            instr_to_outcome_sum: src.u64()?,
        };
        Ok(())
    }

    /// Produces the report once the stream has ended.
    pub(crate) fn report(&self, instructions: u64) -> EngineReport {
        EngineReport {
            instructions,
            cycles: self.cur.time_at(instructions),
            spec: self.stats,
            policy: self.policy.map_or("ORACLE", Policy::name),
            tus: self.tus_label,
        }
    }

    /// Launches a [`burst`] of new speculative threads for the execution
    /// at stack index `k`; returns how many.
    ///
    /// Iterations whose start the current thread's speculative run-ahead
    /// has already executed are not spawned — a TU pointed at work the
    /// non-speculative thread has already done contributes nothing (it
    /// would be discarded as stale at verification).
    #[allow(clippy::too_many_arguments)]
    fn attempt_spawn(
        &mut self,
        k: usize,
        loop_id: LoopId,
        iter: u32,
        pos: u64,
        t: u64,
        iter_pos: &impl Fn(u32) -> Option<u64>,
        remaining_from_feed: u32,
    ) -> u64 {
        let idle = self.idle();
        if idle == 0 {
            return 0;
        }
        let remaining = match self.policy {
            Some(policy) => policy.believed_remaining(&self.predictor, loop_id, iter),
            None => Some(remaining_from_feed),
        };
        let o = &mut self.open[k];
        let n = burst(remaining, o.live.len() as u32, idle);
        if n == 0 {
            return 0;
        }
        o.spec = true;
        // Self-paced position the current thread has reached by time t.
        let covered = self.cur.start_pos + (t - self.cur.spawn_time);
        let next = o.live.back().map_or(iter, |&(j, _)| j) + 1;
        let end = next + n as u32;
        // Iteration starts ascend, so the candidates the run-ahead has
        // already executed form a prefix: search for its end.
        let (mut first, mut hi) = (next, end);
        while first < hi {
            let mid = first + (hi - first) / 2;
            if iter_pos(mid).is_some_and(|p| p < covered) {
                first = mid + 1;
            } else {
                hi = mid;
            }
        }
        if first == end {
            return 0;
        }
        let seg = Segment {
            spawn_time: t,
            spawn_pos: pos,
        };
        o.live.extend((first..end).map(|j| (j, seg)));
        let spawned = u64::from(end - first);
        // Speculating resets the exec's STR(i) pressure counter.
        o.nested_nonspec = 0;
        self.live_total += spawned;
        self.stats.spec_actions += 1;
        self.stats.threads_spawned += spawned;
        spawned
    }

    /// Squashes every live thread of the execution at stack index `k`,
    /// freeing its TUs. `misspec = true` for loop-end squashes (phantom
    /// iterations), `false` for STR(i) policy squashes (correct work
    /// sacrificed).
    fn squash(&mut self, k: usize, pos: u64, misspec: bool) {
        let o = &mut self.open[k];
        let squashed = o.live.len() as u64;
        for (_, seg) in o.live.drain(..) {
            self.stats.instr_to_outcome_sum += pos - seg.spawn_pos;
        }
        o.nested_nonspec = 0;
        self.live_total -= squashed;
        if misspec {
            self.stats.squashed_misspec += squashed;
        } else {
            self.stats.squashed_policy += squashed;
        }
    }
}

/// The multithreaded control-speculation engine (paper §3.1), batch
/// driver: replays a prebuilt [`AnnotatedTrace`].
///
/// Build it with [`Engine::new`] for a history [`Policy`], or with
/// [`Engine::oracle`] / [`Engine::oracle_unbounded`] for the Figure 5
/// oracle, whose future knowledge the trace supplies. Drive it with
/// [`Engine::run`]; it never mutates the trace and can be re-created
/// cheaply for policy/TU sweeps. See the [crate docs](crate) for an
/// end-to-end example and the module docs for the timing model. For
/// single-pass processing without a materialized trace, use
/// [`EngineGrid`](crate::EngineGrid) — both drivers produce identical
/// reports.
#[derive(Debug)]
pub struct Engine<'a> {
    trace: &'a AnnotatedTrace,
    core: EngineCore,
}

impl<'a> Engine<'a> {
    /// Creates an engine running `policy` with `num_tus` thread units
    /// (one of which is always the non-speculative one).
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= num_tus <= 4096`.
    pub fn new(trace: &'a AnnotatedTrace, policy: impl Into<Policy>, num_tus: usize) -> Self {
        Engine::bounded(trace, Some(policy.into()), num_tus)
    }

    /// Creates an oracle engine with `num_tus` thread units: at every
    /// iteration start it spawns exactly the execution's actual
    /// remaining iterations, read off the trace.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= num_tus <= 4096`.
    pub fn oracle(trace: &'a AnnotatedTrace, num_tus: usize) -> Self {
        Engine::bounded(trace, None, num_tus)
    }

    /// Creates an oracle engine with an unbounded TU pool — the ideal
    /// machine of the paper's Figure 5.
    pub fn oracle_unbounded(trace: &'a AnnotatedTrace) -> Self {
        Engine {
            trace,
            core: EngineCore::new(None, u64::MAX, None),
        }
    }

    fn bounded(trace: &'a AnnotatedTrace, policy: Option<Policy>, num_tus: usize) -> Self {
        check_tus(num_tus);
        Engine {
            trace,
            core: EngineCore::new(policy, num_tus as u64, Some(num_tus)),
        }
    }

    /// Runs the engine over the whole trace.
    pub fn run(self) -> EngineReport {
        let Engine { trace, mut core } = self;

        for ev in &trace.events {
            let exec = ev.exec.0;
            match ev.kind {
                TraceEventKind::ExecStart => core.exec_start(exec),
                TraceEventKind::IterStart { iter } => {
                    let info = trace.exec(ev.exec);
                    core.iter_start(
                        exec,
                        info.loop_id,
                        iter,
                        ev.pos,
                        &|j| info.iter_pos(j),
                        info.remaining_after(iter),
                    );
                }
                TraceEventKind::ExecEnd => {
                    let info = trace.exec(ev.exec);
                    core.exec_end(exec, info.loop_id, ev.pos, info.closed, info.total_iters);
                }
            }
        }

        core.report(trace.instructions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use loopspec_asm::ProgramBuilder;
    use loopspec_core::snap::{Dec, Enc, SnapError};
    use loopspec_core::EventCollector;
    use loopspec_cpu::{Cpu, RunLimits};

    fn trace_of(build: impl FnOnce(&mut ProgramBuilder)) -> AnnotatedTrace {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        let p = b.finish().expect("assembles");
        let mut c = EventCollector::default();
        Cpu::new()
            .run(&p, &mut c, RunLimits::default())
            .expect("runs");
        let (events, n) = c.into_parts();
        AnnotatedTrace::build(&events, n)
    }

    #[test]
    fn sequential_trace_has_tpc_one() {
        let trace = trace_of(|b| b.work(50));
        let r = Engine::new(&trace, Policy::Str, 4).run();
        assert_eq!(r.cycles, r.instructions);
        assert!((r.tpc() - 1.0).abs() < 1e-12);
        assert_eq!(r.spec.threads_spawned, 0);
    }

    #[test]
    fn ideal_oracle_matches_hand_analysis() {
        // Hand-built trace: 100 instructions, one 10-iteration loop with
        // iteration starts every 10 instructions from 10 to 90.
        use loopspec_core::{LoopEvent, LoopId};
        use loopspec_isa::Addr;
        let lid = LoopId(Addr::new(1));
        let mut ev = vec![LoopEvent::ExecutionStart {
            loop_id: lid,
            pos: 10,
            depth: 1,
        }];
        for k in 2..=10u32 {
            ev.push(LoopEvent::IterationStart {
                loop_id: lid,
                iter: k,
                pos: (k as u64 - 1) * 10,
            });
        }
        ev.push(LoopEvent::ExecutionEnd {
            loop_id: lid,
            iterations: 10,
            pos: 100,
        });
        let trace = AnnotatedTrace::build(&ev, 100);
        let r = Engine::oracle_unbounded(&trace).run();
        // Critical path: 10 cycles to reach the loop detection point plus
        // 10 cycles for every thread to finish its 10-instruction
        // iteration — all iterations overlap.
        assert_eq!(r.cycles, 20);
        assert!((r.tpc() - 5.0).abs() < 1e-12);
        assert_eq!(r.spec.verified, 8); // iterations 3..=10
        assert_eq!(r.spec.squashed_misspec, 0);
    }

    #[test]
    fn two_tus_cap_tpc_at_two() {
        let trace = trace_of(|b| b.counted_loop(200, |b, _| b.work(30)));
        let r = Engine::new(&trace, Policy::Idle, 2).run();
        assert!(r.tpc() > 1.4, "tpc = {}", r.tpc());
        assert!(r.tpc() <= 2.0 + 1e-9);
    }

    #[test]
    fn more_tus_do_not_hurt_a_simple_loop() {
        let trace = trace_of(|b| b.counted_loop(100, |b, _| b.work(25)));
        let r2 = Engine::new(&trace, Policy::Str, 2).run();
        let r4 = Engine::new(&trace, Policy::Str, 4).run();
        let r8 = Engine::new(&trace, Policy::Str, 8).run();
        assert!(r4.tpc() >= r2.tpc() - 1e-9);
        assert!(r8.tpc() >= r4.tpc() - 1e-9);
        assert!(r8.tpc() > 3.0, "single hot loop should scale: {}", r8.tpc());
    }

    #[test]
    fn idle_policy_misspeculates_at_loop_ends() {
        // Two executions of the same loop: IDLE always grabs all TUs, so
        // it runs past the end of each execution.
        let trace = trace_of(|b| {
            b.counted_loop(2, |b, _| {
                b.counted_loop(20, |b, _| b.work(10));
            });
        });
        let r = Engine::new(&trace, Policy::Idle, 8).run();
        assert!(
            r.spec.squashed_misspec > 0,
            "IDLE should overshoot: {:?}",
            r.spec
        );
    }

    #[test]
    fn str_avoids_misspeculation_on_regular_loops() {
        // Ten executions of the *same static loop*, reached through
        // straight-line calls (no enclosing loop to hoard TUs): after a
        // warm-up execution the stride predictor sizes bursts exactly,
        // while IDLE keeps grabbing TUs past each execution's end.
        let trace = trace_of(|b| {
            b.define_func("kernel", |b| {
                b.counted_loop(20, |b, _| b.work(10));
            });
            for _ in 0..10 {
                b.call_func("kernel");
            }
        });
        let idle = Engine::new(&trace, Policy::Idle, 8).run();
        let strp = Engine::new(&trace, Policy::Str, 8).run();
        assert!(
            strp.spec.squashed_misspec < idle.spec.squashed_misspec,
            "STR {:?} vs IDLE {:?}",
            strp.spec,
            idle.spec
        );
        assert!(strp.spec.hit_ratio_percent() > 90.0);
    }

    #[test]
    fn str_nested_squashes_outer_threads_for_inner_loops() {
        // An outer loop whose iterations each contain several sequential
        // inner loops: with few TUs the outer loop hoards them, and
        // STR(1) must squash it.
        let trace = trace_of(|b| {
            b.counted_loop(6, |b, _| {
                for _ in 0..3 {
                    b.counted_loop(12, |b, _| b.work(8));
                }
            });
        });
        let str_plain = Engine::new(&trace, Policy::Str, 4).run();
        let str1 = Engine::new(&trace, Policy::StrNested(1), 4).run();
        assert_eq!(str_plain.spec.squashed_policy, 0);
        assert!(
            str1.spec.squashed_policy > 0,
            "STR(1) must fire: {:?}",
            str1.spec
        );
    }

    #[test]
    fn report_bookkeeping_is_consistent() {
        let trace = trace_of(|b| {
            b.counted_loop(5, |b, _| {
                b.counted_loop(10, |b, _| b.work(5));
            });
        });
        let r = Engine::new(&trace, Policy::Str, 4).run();
        assert_eq!(
            r.spec.threads_spawned,
            r.spec.resolved(),
            "every thread resolves by trace end"
        );
        assert!(r.cycles <= r.instructions);
        assert_eq!(r.policy, "STR");
        assert_eq!(r.tus, Some(4));
    }

    /// A STR@4 core driven through a loop nest until it holds live
    /// speculative threads with two executions open.
    fn core_with_live_threads() -> EngineCore {
        let trace = trace_of(|b| b.counted_loop(3, |b, _| b.counted_loop(50, |b, _| b.work(10))));
        let mut core = EngineCore::new(Some(Policy::Str), 4, Some(4));
        for ev in &trace.events {
            let info = trace.exec(ev.exec);
            match ev.kind {
                TraceEventKind::ExecStart => core.exec_start(ev.exec.0),
                TraceEventKind::IterStart { iter } => core.iter_start(
                    ev.exec.0,
                    info.loop_id,
                    iter,
                    ev.pos,
                    &|j| info.iter_pos(j),
                    0,
                ),
                TraceEventKind::ExecEnd => core.exec_end(
                    ev.exec.0,
                    info.loop_id,
                    ev.pos,
                    info.closed,
                    info.total_iters,
                ),
            }
            if core.live_total > 0 && core.open.len() >= 2 {
                return core;
            }
        }
        panic!("STR@4 never speculated inside a nest");
    }

    /// The engine's snapshot section, decoded field by field so a test
    /// can corrupt it and encode the result in the same (v3) layout.
    #[derive(Debug, Clone)]
    struct Section {
        /// Configuration echo and the current thread's cursor.
        head: Vec<u8>,
        /// `(exec, iter, spawn_time, spawn_pos)`.
        segments: Vec<(u32, u32, u64, u64)>,
        /// `(exec, live iterations, nested_nonspec)`.
        spec: Vec<(u32, Vec<u32>, u32)>,
        open: Vec<u32>,
        live_total: u64,
        /// Predictor and statistics.
        tail: Vec<u8>,
    }

    impl Section {
        fn of(core: &EngineCore) -> Section {
            let mut enc = Enc::new();
            core.save_state(&mut enc);
            let bytes = enc.into_bytes();
            let mut src = Dec::new(&bytes);
            let head_len = 8 + 8 + 4 + 3 * 8;
            for _ in 0..head_len {
                src.u8().unwrap();
            }
            let segments = (0..src.count().unwrap())
                .map(|_| {
                    let (exec, iter) = (src.u32().unwrap(), src.u32().unwrap());
                    (exec, iter, src.u64().unwrap(), src.u64().unwrap())
                })
                .collect();
            let spec = (0..src.count().unwrap())
                .map(|_| {
                    let exec = src.u32().unwrap();
                    let live = (0..src.count().unwrap())
                        .map(|_| src.u32().unwrap())
                        .collect();
                    (exec, live, src.u32().unwrap())
                })
                .collect();
            let open = (0..src.count().unwrap())
                .map(|_| src.u32().unwrap())
                .collect();
            let live_total = src.u64().unwrap();
            let tail = bytes[bytes.len() - src.remaining()..].to_vec();
            let section = Section {
                head: bytes[..head_len].to_vec(),
                segments,
                spec,
                open,
                live_total,
                tail,
            };
            assert_eq!(section.encode(), bytes, "the test decoder is faithful");
            section
        }

        fn encode(&self) -> Vec<u8> {
            let mut out = Enc::new();
            for &b in &self.head {
                out.u8(b);
            }
            out.u64(self.segments.len() as u64);
            for &(exec, iter, spawn_time, spawn_pos) in &self.segments {
                out.u32(exec);
                out.u32(iter);
                out.u64(spawn_time);
                out.u64(spawn_pos);
            }
            out.u64(self.spec.len() as u64);
            for (exec, live, nested_nonspec) in &self.spec {
                out.u32(*exec);
                out.u64(live.len() as u64);
                for &iter in live {
                    out.u32(iter);
                }
                out.u32(*nested_nonspec);
            }
            out.u64(self.open.len() as u64);
            for &exec in &self.open {
                out.u32(exec);
            }
            out.u64(self.live_total);
            let mut bytes = out.into_bytes();
            bytes.extend_from_slice(&self.tail);
            bytes
        }

        /// Loads the encoded section into a fresh STR@4 core; a load
        /// that succeeds must round-trip to the same bytes.
        fn load(&self) -> Result<(), SnapError> {
            let bytes = self.encode();
            let mut fresh = EngineCore::new(Some(Policy::Str), 4, Some(4));
            let mut src = Dec::new(&bytes);
            fresh.load_state(&mut src)?;
            src.finish()?;
            let mut again = Enc::new();
            fresh.save_state(&mut again);
            assert_eq!(
                again.into_bytes(),
                bytes,
                "loaded state re-saves identically"
            );
            Ok(())
        }

        /// The first live segment and the execution owning it.
        fn live_segment(&self) -> (u32, u32) {
            let (exec, iter, _, _) = self.segments[0];
            (exec, iter)
        }
    }

    fn corrupt(what: &'static str) -> Result<(), SnapError> {
        Err(SnapError::Corrupt { what })
    }

    #[test]
    fn snapshots_round_trip_the_open_stack() {
        let core = core_with_live_threads();
        let section = Section::of(&core);
        assert_eq!(section.load(), Ok(()));
        assert!(section.open.len() >= 2 && !section.segments.is_empty());
        // Empty speculation entries survive too.
        let mut section = Section::of(&core);
        let idle = *section
            .open
            .iter()
            .find(|e| section.spec.iter().all(|s| s.0 != **e))
            .expect("an open execution without a speculation entry");
        section.spec.push((idle, Vec::new(), 0));
        section.spec.sort_by_key(|s| s.0);
        assert_eq!(section.load(), Ok(()));
    }

    #[test]
    fn snapshots_refuse_live_sets_that_disagree_with_the_segment_map() {
        let pristine = Section::of(&core_with_live_threads());
        assert_eq!(pristine.load(), Ok(()));
        let (exec, iter) = pristine.live_segment();
        // A live thread with no segment (the count kept consistent).
        let mut section = pristine.clone();
        section.segments.remove(0);
        section.live_total -= 1;
        assert_eq!(
            section.load(),
            corrupt("live sets and segment map disagree")
        );
        // A segment no live set names.
        let mut section = pristine.clone();
        let st = section.spec.iter_mut().find(|s| s.0 == exec).unwrap();
        st.1.retain(|&j| j != iter);
        assert_eq!(
            section.load(),
            corrupt("live sets and segment map disagree")
        );
    }

    #[test]
    fn snapshots_refuse_a_wrong_live_thread_count() {
        let mut section = Section::of(&core_with_live_threads());
        section.live_total += 1;
        assert_eq!(section.load(), corrupt("live thread count"));
    }

    #[test]
    fn snapshots_refuse_state_outside_the_open_stack() {
        let pristine = Section::of(&core_with_live_threads());
        let stranger = pristine.open.iter().max().unwrap() + 1;
        // A segment of an execution that is not open (counted, but no
        // live set names it).
        let mut section = pristine.clone();
        section.segments.push((stranger, 3, 0, 0));
        section.live_total += 1;
        assert_eq!(
            section.load(),
            corrupt("segment of an execution that is not open")
        );
        // A speculation entry of an execution that is not open.
        let mut section = pristine.clone();
        section.spec.push((stranger, Vec::new(), 0));
        assert_eq!(
            section.load(),
            corrupt("speculation entry of an execution that is not open")
        );
    }

    #[test]
    fn snapshots_refuse_duplicates_the_stack_cannot_hold() {
        let pristine = Section::of(&core_with_live_threads());
        // The same execution open twice.
        let mut section = pristine.clone();
        section.open.push(section.open[0]);
        assert_eq!(section.load(), corrupt("duplicate open execution"));
        // The same `(exec, iter)` segment twice.
        let mut section = pristine.clone();
        section.segments.insert(0, section.segments[0]);
        section.live_total += 1;
        assert_eq!(section.load(), corrupt("duplicate segment"));
        // Two speculation entries for one execution.
        let mut section = pristine.clone();
        let (exec, _) = section.live_segment();
        section.spec.push((exec, Vec::new(), 0));
        assert_eq!(section.load(), corrupt("duplicate speculation entry"));
    }

    #[test]
    fn snapshots_refuse_live_sets_out_of_order() {
        let mut section = Section::of(&core_with_live_threads());
        let st = section
            .spec
            .iter_mut()
            .find(|s| s.1.len() >= 2)
            .expect("an execution with two live threads");
        st.1.reverse();
        assert_eq!(section.load(), corrupt("live set order"));
    }

    #[test]
    #[should_panic(expected = "num_tus must be in 2..=4096")]
    fn rejects_one_tu() {
        let trace = trace_of(|b| b.work(1));
        let _ = Engine::new(&trace, Policy::Str, 1);
    }

    #[test]
    fn empty_trace_reports_tpc_one() {
        let trace = AnnotatedTrace::build(&[], 0);
        let r = Engine::new(&trace, Policy::Str, 4).run();
        assert_eq!(r.cycles, 0);
        assert_eq!(r.tpc(), 1.0);
    }
}
