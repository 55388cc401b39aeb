//! The streaming engine driver: single-pass speculation for a whole
//! grid of engine configurations, with O(live-loops + run-ahead window)
//! memory.
//!
//! [`EngineGrid`] consumes raw [`LoopEvent`]s exactly as the CLS emits
//! them — no [`AnnotatedTrace`](crate::AnnotatedTrace), no `Vec` of the
//! whole run — and produces one [`EngineReport`] per configured lane,
//! each **bit-identical** to the batch [`Engine`](crate::Engine) with
//! the same policy and TU count. This is the shape of the paper's
//! hardware: the speculation logic watches the committed stream once
//! and decides on the fly. A one-lane grid is the single-engine case.
//!
//! One shared ingest pass per event chunk (the [`Annotator`]) builds a
//! single queue of annotated boundary events, and each engine
//! configuration becomes a **lane** — an
//! [`EngineCore`](crate::Engine) plus a cursor into the shared queue —
//! so the annotation bookkeeping is paid once, not once per lane.
//!
//! ## Why a bounded buffer is needed at all
//!
//! One decision consults the *near future*: when a burst is launched,
//! the engine skips iterations whose start the current thread's
//! speculative run-ahead has already executed (they would be discarded
//! as stale at verification). The run-ahead extends at most
//! `horizon - pos` instructions past the current position — the
//! distance the verified thread ran ahead, bounded by one iteration
//! body. A lane therefore may not consume an iteration event until the
//! stream frontier passes *its own* `iter_start_horizon` for it; lanes
//! advance independently because the speculation timing differs per
//! configuration. Entries are dropped once the slowest lane has passed
//! them, so retention stays O(live nesting + slowest lane's run-ahead
//! window + one chunk), never O(trace) — the `bounded_memory` suite
//! pins this down.
//!
//! Chunked delivery is bit-identical to per-event delivery: a lane
//! consults iteration-start positions only below its horizon, and every
//! position below the horizon is known by the time the gate opens — the
//! `streaming_equivalence` and `chunked_equivalence` suites enforce
//! this.

use std::collections::VecDeque;
use std::fmt;

use loopspec_core::snap::{Dec, Enc, SnapError};
use loopspec_core::{LoopEvent, LoopEventSink, LoopId};

use crate::engine::{EngineCore, EngineReport};
use crate::oracle::OracleFeed;
use crate::policy::{IdleRule, OracleRule, Policy, StrNestedRule, StrRule};

/// Why a lane configuration was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamError {
    /// The TU count is outside the supported `2..=4096` range.
    BadTus {
        /// The rejected count.
        got: usize,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::BadTus { got } => {
                write!(f, "num_tus must be in 2..=4096 (got {got})")
            }
        }
    }
}

impl std::error::Error for StreamError {}

/// Validates a finite TU count — the single source of the supported
/// range and of the [`StreamError::BadTus`] error, shared by the
/// grid's lane constructors, the batch [`Engine`](crate::Engine) and
/// the `dist` layer's job admission, so a bad TU count reads
/// identically wherever it is rejected.
pub fn validate_tus(num_tus: usize) -> Result<(), StreamError> {
    if (2..=4096).contains(&num_tus) {
        Ok(())
    } else {
        Err(StreamError::BadTus { got: num_tus })
    }
}

/// Panicking form of [`validate_tus`] for the engine constructors.
///
/// # Panics
///
/// Panics unless `2 <= num_tus <= 4096`.
pub(crate) fn check_tus(num_tus: usize) {
    if let Err(e) = validate_tus(num_tus) {
        panic!("{e}");
    }
}

/// Incremental annotation of one live (or end-pending) loop execution —
/// the streaming replacement for [`ExecInfo`](crate::ExecInfo).
#[derive(Debug)]
struct ExecAnn {
    loop_id: LoopId,
    /// Known iteration starts `(iter, pos)` some lane may still consult —
    /// the lookahead the spawn decision reads. Pruned once every lane has
    /// passed them, so it holds the run-ahead window, not the
    /// execution's history.
    iters: VecDeque<(u32, u64)>,
    /// Highest iteration index observed (1 before any detected start, as
    /// the first iteration is undetectable).
    last_iter: u32,
    /// The end event has been observed (all iteration starts are known).
    ended: bool,
}

/// Per-execution annotations in a dense slab keyed by execution
/// ordinal.
///
/// Execution ordinals are assigned in detection order, so new entries
/// always append; entries die when their end event is delivered, in
/// roughly stack order, so the slab stays as small as the live window.
/// This is the lane pass's hottest lookup (twice per iteration event
/// per lane) — an index subtraction instead of a `HashMap` probe.
#[derive(Debug, Default)]
struct ExecSlab {
    /// Ordinal of `slots[0]`.
    base: u32,
    slots: VecDeque<Option<ExecAnn>>,
    live: usize,
}

impl ExecSlab {
    /// Appends the annotation for the next execution ordinal.
    fn push(&mut self, ann: ExecAnn) {
        self.slots.push_back(Some(ann));
        self.live += 1;
    }

    /// The slab as `(base_ordinal, contiguous_slots)` — the lane pass
    /// indexes a plain slice instead of paying the ring-buffer wrap check
    /// per access.
    fn contiguous(&mut self) -> (u32, &[Option<ExecAnn>]) {
        (self.base, self.slots.make_contiguous())
    }

    #[inline]
    fn get_mut(&mut self, exec: u32) -> Option<&mut ExecAnn> {
        let i = exec.checked_sub(self.base)? as usize;
        self.slots.get_mut(i)?.as_mut()
    }

    /// `true` when `exec` has a live annotation.
    fn contains(&self, exec: u32) -> bool {
        exec.checked_sub(self.base)
            .and_then(|i| self.slots.get(i as usize))
            .is_some_and(Option::is_some)
    }

    fn remove(&mut self, exec: u32) -> Option<ExecAnn> {
        let i = exec.checked_sub(self.base)? as usize;
        let ann = self.slots.get_mut(i)?.take();
        if ann.is_some() {
            self.live -= 1;
        }
        // Reclaim the dead prefix so `slots` tracks the live window.
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
        ann
    }

    #[inline]
    fn len(&self) -> usize {
        self.live
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.live == 0
    }
}

/// A buffered boundary event awaiting delivery to the engine core.
#[derive(Debug, Clone, Copy)]
enum Pending {
    Start {
        exec: u32,
    },
    Iter {
        exec: u32,
        iter: u32,
        pos: u64,
    },
    End {
        exec: u32,
        pos: u64,
        closed: bool,
        iterations: u32,
    },
}

impl Pending {
    /// The execution ordinal the entry belongs to.
    fn exec(&self) -> u32 {
        match *self {
            Pending::Start { exec } | Pending::Iter { exec, .. } | Pending::End { exec, .. } => {
                exec
            }
        }
    }
}

/// Appends one [`Pending`] entry (tag byte + fields).
fn write_pending(out: &mut Enc, p: &Pending) {
    match *p {
        Pending::Start { exec } => {
            out.u8(0);
            out.u32(exec);
        }
        Pending::Iter { exec, iter, pos } => {
            out.u8(1);
            out.u32(exec);
            out.u32(iter);
            out.u64(pos);
        }
        Pending::End {
            exec,
            pos,
            closed,
            iterations,
        } => {
            out.u8(2);
            out.u32(exec);
            out.u64(pos);
            out.bool(closed);
            out.u32(iterations);
        }
    }
}

/// Reads one [`Pending`] entry written by [`write_pending`].
fn read_pending(src: &mut Dec<'_>) -> Result<Pending, SnapError> {
    Ok(match src.u8()? {
        0 => Pending::Start { exec: src.u32()? },
        1 => Pending::Iter {
            exec: src.u32()?,
            iter: src.u32()?,
            pos: src.u64()?,
        },
        2 => Pending::End {
            exec: src.u32()?,
            pos: src.u64()?,
            closed: src.bool()?,
            iterations: src.u32()?,
        },
        _ => {
            return Err(SnapError::Corrupt {
                what: "pending entry tag",
            })
        }
    })
}

/// The streaming annotator: turns raw [`LoopEvent`]s into the
/// [`Pending`] boundary entries an [`EngineCore`] consumes, assigning
/// dense execution ordinals in detection order and maintaining the
/// per-execution iteration-start windows.
///
/// This is the **single copy** of the annotation rules: every lane of an
/// [`EngineGrid`] reads the entries it produces, so lanes differ only in
/// when they *consume* an entry, never in how the stream is annotated.
#[derive(Debug, Default)]
struct Annotator {
    /// Loop id → ordinal of its open execution. At most the CLS nesting
    /// depth entries (16 in the paper), so a linear scan beats any
    /// hash.
    open_by_loop: Vec<(LoopId, u32)>,
    /// Per-execution annotation, alive until every lane has consumed its
    /// end entry.
    execs: ExecSlab,
    next_exec: u32,
    /// Highest event position observed; all events at positions `<`
    /// frontier are known.
    frontier: u64,
    /// Iteration starts currently retained across all windows (the grid
    /// decrements as it prunes).
    buffered_iters: usize,
    /// Total loop events observed.
    events_seen: u64,
}

impl Annotator {
    /// Annotates one event, appending boundary entries to `out`.
    fn ingest(&mut self, ev: &LoopEvent, out: &mut VecDeque<Pending>) {
        self.events_seen += 1;
        debug_assert!(ev.pos() >= self.frontier, "event positions regressed");
        self.frontier = ev.pos();
        match *ev {
            LoopEvent::ExecutionStart { loop_id, .. } => {
                let exec = self.next_exec;
                self.next_exec += 1;
                debug_assert!(
                    self.open_by_loop.iter().all(|&(l, _)| l != loop_id),
                    "loop {loop_id} already open"
                );
                self.open_by_loop.push((loop_id, exec));
                self.execs.push(ExecAnn {
                    loop_id,
                    iters: VecDeque::new(),
                    last_iter: 1,
                    ended: false,
                });
                out.push_back(Pending::Start { exec });
            }
            LoopEvent::IterationStart { loop_id, iter, pos } => {
                // Iterations of evicted executions are ignored, exactly
                // like the batch annotator.
                if let Some(&(_, exec)) = self.open_by_loop.iter().find(|&&(l, _)| l == loop_id) {
                    let ann = self.execs.get_mut(exec).expect("open exec has annotation");
                    debug_assert_eq!(ann.last_iter + 1, iter);
                    ann.last_iter = iter;
                    ann.iters.push_back((iter, pos));
                    self.buffered_iters += 1;
                    out.push_back(Pending::Iter { exec, iter, pos });
                }
            }
            LoopEvent::ExecutionEnd {
                loop_id,
                iterations,
                pos,
            }
            | LoopEvent::Evicted {
                loop_id,
                iterations,
                pos,
            } => {
                if let Some(i) = self.open_by_loop.iter().position(|&(l, _)| l == loop_id) {
                    let (_, exec) = self.open_by_loop.swap_remove(i);
                    let closed = matches!(ev, LoopEvent::ExecutionEnd { .. });
                    self.execs
                        .get_mut(exec)
                        .expect("open exec has annotation")
                        .ended = true;
                    out.push_back(Pending::End {
                        exec,
                        pos,
                        closed,
                        iterations,
                    });
                }
            }
            LoopEvent::OneShot { .. } => {}
        }
    }

    /// Serializes the annotation state: open-execution bindings (in
    /// insertion order — it is scanned linearly, so order is part of the
    /// state), the per-execution slab with its iteration-start windows,
    /// and the stream cursors.
    fn save_state(&self, out: &mut Enc) {
        out.u64(self.open_by_loop.len() as u64);
        for &(l, e) in &self.open_by_loop {
            out.u32(l.0.index());
            out.u32(e);
        }
        out.u32(self.execs.base);
        out.u64(self.execs.slots.len() as u64);
        for slot in &self.execs.slots {
            match slot {
                None => out.bool(false),
                Some(ann) => {
                    out.bool(true);
                    out.u32(ann.loop_id.0.index());
                    out.u64(ann.iters.len() as u64);
                    for &(iter, pos) in &ann.iters {
                        out.u32(iter);
                        out.u64(pos);
                    }
                    out.u32(ann.last_iter);
                    out.bool(ann.ended);
                }
            }
        }
        out.u32(self.next_exec);
        out.u64(self.frontier);
        out.u64(self.buffered_iters as u64);
        out.u64(self.events_seen);
    }

    /// Restores state written by [`Annotator::save_state`].
    fn load_state(&mut self, src: &mut Dec<'_>) -> Result<(), SnapError> {
        let n = src.count()?;
        self.open_by_loop.clear();
        for _ in 0..n {
            let l = LoopId(loopspec_isa::Addr::new(src.u32()?));
            let e = src.u32()?;
            self.open_by_loop.push((l, e));
        }
        self.execs.base = src.u32()?;
        let n = src.count()?;
        self.execs.slots.clear();
        self.execs.live = 0;
        for _ in 0..n {
            if !src.bool()? {
                self.execs.slots.push_back(None);
                continue;
            }
            let loop_id = LoopId(loopspec_isa::Addr::new(src.u32()?));
            // 12 encoded bytes per retained iteration start (u32 + u64).
            let iters_n = src.count_elems(12)?;
            let mut iters = VecDeque::with_capacity(iters_n);
            for _ in 0..iters_n {
                let iter = src.u32()?;
                let pos = src.u64()?;
                iters.push_back((iter, pos));
            }
            let last_iter = src.u32()?;
            let ended = src.bool()?;
            self.execs.slots.push_back(Some(ExecAnn {
                loop_id,
                iters,
                last_iter,
                ended,
            }));
            self.execs.live += 1;
        }
        self.next_exec = src.u32()?;
        self.frontier = src.u64()?;
        self.buffered_iters = src.u64()? as usize;
        self.events_seen = src.u64()?;
        // `ingest` and `close_leftovers` look open executions up in the
        // slab, and pruning subtracts from `buffered_iters`.
        if !self
            .open_by_loop
            .iter()
            .all(|&(_, e)| self.execs.contains(e))
        {
            return Err(SnapError::Corrupt {
                what: "open execution without annotation",
            });
        }
        let retained: usize = self
            .execs
            .slots
            .iter()
            .flatten()
            .map(|a| a.iters.len())
            .sum();
        if self.buffered_iters != retained {
            return Err(SnapError::Corrupt {
                what: "retained iteration count",
            });
        }
        Ok(())
    }

    /// Closes executions left open by a truncated stream, in detection
    /// order — mirroring the batch annotator's trailing closes.
    fn close_leftovers(&mut self, instructions: u64, out: &mut VecDeque<Pending>) {
        let mut leftovers: Vec<u32> = self.open_by_loop.iter().map(|&(_, e)| e).collect();
        leftovers.sort_unstable();
        for exec in leftovers {
            let ann = self.execs.get_mut(exec).expect("open exec has annotation");
            ann.ended = true;
            out.push_back(Pending::End {
                exec,
                pos: instructions,
                closed: false,
                iterations: ann.last_iter,
            });
        }
        self.open_by_loop.clear();
    }
}

/// One engine configuration: a monomorphized decision core plus this
/// lane's read cursor into the shared annotated-event queue.
#[derive(Debug)]
struct Lane {
    core: LaneCore,
    /// Absolute sequence number of the next shared entry to consume.
    cursor: u64,
}

/// The paper's three history-based policy families plus the two-phase
/// oracle, one monomorphized core each. An oracle lane carries its own
/// [`OracleFeed`] — the phase-1 recording it answers future-knowledge
/// questions from.
#[derive(Debug)]
enum LaneCore {
    Idle(EngineCore<IdleRule>),
    Str(EngineCore<StrRule>),
    StrNested(EngineCore<StrNestedRule>),
    Oracle(EngineCore<OracleRule>, OracleFeed),
}

impl LaneCore {
    fn exec_start(&mut self, exec: u32) {
        match self {
            LaneCore::Idle(c) => c.exec_start(exec),
            LaneCore::Str(c) => c.exec_start(exec),
            LaneCore::StrNested(c) => c.exec_start(exec),
            LaneCore::Oracle(c, _) => c.exec_start(exec),
        }
    }

    #[inline]
    fn iter_start_horizon(&self, exec: u32, iter: u32, pos: u64) -> u64 {
        match self {
            LaneCore::Idle(c) => c.iter_start_horizon(exec, iter, pos),
            LaneCore::Str(c) => c.iter_start_horizon(exec, iter, pos),
            LaneCore::StrNested(c) => c.iter_start_horizon(exec, iter, pos),
            LaneCore::Oracle(c, _) => c.iter_start_horizon(exec, iter, pos),
        }
    }

    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn iter_start(
        &mut self,
        exec: u32,
        loop_id: LoopId,
        iter: u32,
        pos: u64,
        iter_pos: &impl Fn(u32) -> Option<u64>,
    ) {
        match self {
            LaneCore::Idle(c) => c.iter_start(exec, loop_id, iter, pos, iter_pos, 0),
            LaneCore::Str(c) => c.iter_start(exec, loop_id, iter, pos, iter_pos, 0),
            LaneCore::StrNested(c) => c.iter_start(exec, loop_id, iter, pos, iter_pos, 0),
            LaneCore::Oracle(c, feed) => {
                let remaining = feed.remaining_after(exec, iter);
                c.iter_start(exec, loop_id, iter, pos, iter_pos, remaining);
            }
        }
    }

    fn exec_end(&mut self, exec: u32, loop_id: LoopId, pos: u64, closed: bool, iters: u32) {
        match self {
            LaneCore::Idle(c) => c.exec_end(exec, loop_id, pos, closed, iters),
            LaneCore::Str(c) => c.exec_end(exec, loop_id, pos, closed, iters),
            LaneCore::StrNested(c) => c.exec_end(exec, loop_id, pos, closed, iters),
            LaneCore::Oracle(c, _) => c.exec_end(exec, loop_id, pos, closed, iters),
        }
    }

    fn report(&self, instructions: u64) -> EngineReport {
        match self {
            LaneCore::Idle(c) => c.report(instructions),
            LaneCore::Str(c) => c.report(instructions),
            LaneCore::StrNested(c) => c.report(instructions),
            LaneCore::Oracle(c, _) => c.report(instructions),
        }
    }

    /// Policy-family tag for the snapshot's configuration echo.
    fn family_tag(&self) -> u8 {
        match self {
            LaneCore::Idle(_) => 0,
            LaneCore::Str(_) => 1,
            LaneCore::StrNested(_) => 2,
            LaneCore::Oracle(..) => 3,
        }
    }

    fn save_state(&self, out: &mut Enc) {
        match self {
            LaneCore::Idle(c) => c.save_state(out),
            LaneCore::Str(c) => c.save_state(out),
            LaneCore::StrNested(c) => c.save_state(out),
            LaneCore::Oracle(c, feed) => {
                // Configuration echo: an oracle lane must resume
                // against the same future it was speculating from.
                out.u64(feed.fingerprint());
                c.save_state(out);
            }
        }
    }

    fn load_state(&mut self, src: &mut Dec<'_>) -> Result<(), SnapError> {
        match self {
            LaneCore::Idle(c) => c.load_state(src),
            LaneCore::Str(c) => c.load_state(src),
            LaneCore::StrNested(c) => c.load_state(src),
            LaneCore::Oracle(c, feed) => {
                if src.u64()? != feed.fingerprint() {
                    return Err(SnapError::Mismatch {
                        what: "oracle feed",
                    });
                }
                c.load_state(src)
            }
        }
    }
}

/// A set of streaming speculation engines sharing one annotation pass —
/// the experiment grid (or a single engine) as one [`LoopEventSink`].
///
/// Add lanes with [`Policy::add_to_grid`], [`EngineGrid::push_oracle`]
/// and [`EngineGrid::push_oracle_unbounded`] (each returns the lane's
/// index), register the grid in a `loopspec_pipeline::Session` (or feed
/// it events directly), and read the per-lane reports after the stream
/// ends.
///
/// ```
/// use loopspec_core::LoopEventSink;
/// use loopspec_mt::{EngineGrid, Policy};
/// # use loopspec_asm::ProgramBuilder;
/// # use loopspec_core::EventCollector;
/// # use loopspec_cpu::{Cpu, RunLimits};
///
/// # let mut b = ProgramBuilder::new();
/// # b.counted_loop(40, |b, _| b.work(10));
/// # let program = b.finish()?;
/// # let mut c = EventCollector::default();
/// # Cpu::new().run(&program, &mut c, RunLimits::default())?;
/// # let (events, n) = c.into_parts();
/// let mut grid = EngineGrid::new();
/// let str4 = Policy::Str.add_to_grid(&mut grid, 4);
/// let idle8 = Policy::Idle.add_to_grid(&mut grid, 8);
/// grid.on_loop_events(&events);
/// grid.on_stream_end(n);
/// assert!(grid.report(str4).unwrap().tpc() > 1.0);
/// assert_eq!(grid.report(idle8).unwrap().instructions, n);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct EngineGrid {
    lanes: Vec<Lane>,
    /// The shared annotation rules — one copy for all lanes (see
    /// [`Annotator`]).
    ann: Annotator,
    /// Annotated boundary events not yet consumed by every lane.
    /// `shared[0]` has absolute sequence number `base_seq`.
    shared: VecDeque<Pending>,
    base_seq: u64,
    peak_buffered: usize,
    reports: Option<Vec<EngineReport>>,
}

impl EngineGrid {
    /// An empty grid.
    pub fn new() -> Self {
        EngineGrid::default()
    }

    fn push_lane(&mut self, core: LaneCore) -> usize {
        assert!(
            self.ann.events_seen == 0 && self.reports.is_none(),
            "lanes must be added before the stream starts"
        );
        self.lanes.push(Lane { core, cursor: 0 });
        self.lanes.len() - 1
    }

    /// Adds an STR lane with `tus` thread units; returns its lane index.
    /// A forward to [`Policy::add_to_grid`], kept because the benchmark
    /// crate builds its one-lane grids with it.
    ///
    /// # Panics
    ///
    /// As [`Policy::add_to_grid`].
    pub fn push_str(&mut self, tus: usize) -> usize {
        Policy::Str.add_to_grid(self, tus)
    }

    /// Adds a two-phase-oracle lane with `tus` thread units, answering
    /// future-knowledge questions from `feed` (a phase-1
    /// [`IterationCountLog`](crate::IterationCountLog) recording of the
    /// same stream); returns its lane index.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= tus <= 4096`, or if events were already
    /// delivered.
    pub fn push_oracle(&mut self, tus: usize, feed: OracleFeed) -> usize {
        check_tus(tus);
        self.push_lane(LaneCore::Oracle(
            EngineCore::new(OracleRule, tus as u64, Some(tus)),
            feed,
        ))
    }

    /// Adds a two-phase-oracle lane with an **unbounded** TU pool —
    /// the ideal machine of the paper's Figure 5 — answering
    /// future-knowledge questions from `feed`; returns its lane index.
    ///
    /// # Panics
    ///
    /// Panics if events were already delivered.
    pub fn push_oracle_unbounded(&mut self, feed: OracleFeed) -> usize {
        self.push_lane(LaneCore::Oracle(
            EngineCore::new(OracleRule, u64::MAX, None),
            feed,
        ))
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// `true` when the grid has no lanes.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// The report of lane `lane`, once the stream has ended (`None`
    /// before, or for an out-of-range index).
    pub fn report(&self, lane: usize) -> Option<&EngineReport> {
        self.reports.as_ref()?.get(lane)
    }

    /// All lane reports in lane order, once the stream has ended.
    pub fn reports(&self) -> Option<&[EngineReport]> {
        self.reports.as_deref()
    }

    /// Total loop events observed.
    pub fn events_seen(&self) -> u64 {
        self.ann.events_seen
    }

    /// Peak number of simultaneously buffered items (shared queue
    /// entries plus retained iteration starts plus live execution
    /// annotations) — O(live nesting + slowest lane's run-ahead window
    /// + one chunk), never O(trace).
    pub fn peak_buffered(&self) -> usize {
        self.peak_buffered
    }

    /// Advances every lane as far as its horizon allows, then drops the
    /// shared prefix every lane has consumed.
    fn advance_lanes(&mut self, finished: bool) {
        let base_seq = self.base_seq;
        let frontier = self.ann.frontier;
        // Straighten both ring buffers once per chunk so the 20-lane
        // pass reads plain slices (no wrap check per entry per lane).
        let shared: &[Pending] = self.shared.make_contiguous();
        let (exec_base, exec_slots) = self.ann.execs.contiguous();
        let ann_of = |exec: u32| -> &ExecAnn {
            exec_slots[(exec - exec_base) as usize]
                .as_ref()
                .expect("pending entry has annotation")
        };
        for lane in &mut self.lanes {
            while let Some(&entry) = shared.get((lane.cursor - base_seq) as usize) {
                match entry {
                    Pending::Start { exec } => lane.core.exec_start(exec),
                    Pending::End {
                        exec,
                        pos,
                        closed,
                        iterations,
                    } => {
                        let loop_id = ann_of(exec).loop_id;
                        lane.core.exec_end(exec, loop_id, pos, closed, iterations);
                    }
                    Pending::Iter { exec, iter, pos } => {
                        let ann = ann_of(exec);
                        // The spawn decision may consult iteration starts
                        // up to the horizon; deliver only once every event
                        // below it is known (the frontier passed it, the
                        // execution ended, or the stream is over).
                        if !(finished || ann.ended) {
                            let horizon = lane.core.iter_start_horizon(exec, iter, pos);
                            if frontier < horizon {
                                break;
                            }
                        }
                        // The shared window is pruned at the *slowest*
                        // lane, so it can still hold starts at or before
                        // this iteration; spawn lookups only ask about
                        // j > iter, answered in O(1) because detected
                        // iteration indices are consecutive.
                        let iters = &ann.iters;
                        let lookup = move |j: u32| -> Option<u64> {
                            let &(front, _) = iters.front()?;
                            let idx = j.checked_sub(front)? as usize;
                            iters.get(idx).map(|&(_, p)| p)
                        };
                        lane.core.iter_start(exec, ann.loop_id, iter, pos, &lookup);
                    }
                }
                lane.cursor += 1;
            }
        }

        // Compact: drop entries every lane has passed, pruning the
        // per-execution iteration windows as their consumers disappear.
        let min_cursor = self
            .lanes
            .iter()
            .map(|l| l.cursor)
            .min()
            .unwrap_or(self.base_seq + self.shared.len() as u64);
        while self.base_seq < min_cursor {
            let entry = self.shared.pop_front().expect("cursors within queue");
            self.base_seq += 1;
            match entry {
                Pending::Start { .. } => {}
                Pending::Iter { exec, iter, .. } => {
                    let ann = self.ann.execs.get_mut(exec).expect("iter before its end");
                    while ann.iters.front().is_some_and(|&(j, _)| j <= iter) {
                        ann.iters.pop_front();
                        self.ann.buffered_iters -= 1;
                    }
                }
                Pending::End { exec, .. } => {
                    let ann = self.ann.execs.remove(exec).expect("end has annotation");
                    self.ann.buffered_iters -= ann.iters.len();
                }
            }
        }
    }

    fn note_peak(&mut self) {
        let now = self.shared.len() + self.ann.buffered_iters + self.ann.execs.len();
        if now > self.peak_buffered {
            self.peak_buffered = now;
        }
    }
}

impl Policy {
    /// Adds a lane running this policy with `tus` thread units to
    /// `grid`; returns its lane index. The one constructor of
    /// history-policy lanes.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= tus <= 4096`, or if events were already
    /// delivered.
    pub fn add_to_grid(self, grid: &mut EngineGrid, tus: usize) -> usize {
        check_tus(tus);
        let (total, label) = (tus as u64, Some(tus));
        grid.push_lane(match self {
            Policy::Idle => LaneCore::Idle(EngineCore::new(IdleRule, total, label)),
            Policy::Str => LaneCore::Str(EngineCore::new(StrRule, total, label)),
            Policy::StrNested(i) => {
                LaneCore::StrNested(EngineCore::new(StrNestedRule(i), total, label))
            }
        })
    }
}

/// Serializes the whole grid: the shared annotation state, the shared
/// annotated-event queue, and each lane's read cursor plus decision-core
/// state. The lane list itself (policy families, TU counts) is
/// configuration: the loader verifies that the receiving grid was built
/// with the same lanes, in the same order, and refuses mismatches
/// instead of silently relabelling reports. A finished grid stores only
/// the final instruction count — lane reports are recomputed from the
/// restored cores.
///
/// ```
/// use loopspec_core::snap::{Dec, Enc};
/// use loopspec_core::{LoopEventSink, SnapshotState};
/// use loopspec_mt::{EngineGrid, Policy};
/// # use loopspec_asm::ProgramBuilder;
/// # use loopspec_core::EventCollector;
/// # use loopspec_cpu::{Cpu, RunLimits};
///
/// # let mut b = ProgramBuilder::new();
/// # b.counted_loop(40, |b, _| b.work(10));
/// # let program = b.finish()?;
/// # let mut c = EventCollector::default();
/// # Cpu::new().run(&program, &mut c, RunLimits::default())?;
/// # let (events, n) = c.into_parts();
/// let make = || {
///     let mut g = EngineGrid::new();
///     Policy::Str.add_to_grid(&mut g, 4);
///     g
/// };
/// let mut grid = make();
/// grid.on_loop_events(&events[..events.len() / 2]);
///
/// // Capture mid-stream, restore into a fresh same-configured grid.
/// let mut enc = Enc::new();
/// grid.save_state(&mut enc);
/// let bytes = enc.into_bytes();
/// let mut restored = make();
/// restored.load_state(&mut Dec::new(&bytes))?;
///
/// // Both halves of the stream land in the same report.
/// for g in [&mut grid, &mut restored] {
///     g.on_loop_events(&events[events.len() / 2..]);
///     g.on_stream_end(n);
/// }
/// assert_eq!(grid.reports(), restored.reports());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
impl loopspec_core::SnapshotState for EngineGrid {
    fn save_state(&self, out: &mut Enc) {
        out.u64(self.lanes.len() as u64);
        for lane in &self.lanes {
            out.u8(lane.core.family_tag());
            out.u64(lane.cursor);
            lane.core.save_state(out);
        }
        self.ann.save_state(out);
        out.u64(self.shared.len() as u64);
        for p in &self.shared {
            write_pending(out, p);
        }
        out.u64(self.base_seq);
        out.u64(self.peak_buffered as u64);
        match &self.reports {
            None => out.bool(false),
            Some(reports) => {
                out.bool(true);
                out.u64(reports.first().map_or(0, |r| r.instructions));
            }
        }
    }

    fn load_state(&mut self, src: &mut Dec<'_>) -> Result<(), SnapError> {
        if src.count()? != self.lanes.len() {
            return Err(SnapError::Mismatch { what: "lane count" });
        }
        for lane in &mut self.lanes {
            if src.u8()? != lane.core.family_tag() {
                return Err(SnapError::Mismatch {
                    what: "lane policy family",
                });
            }
            lane.cursor = src.u64()?;
            lane.core.load_state(src)?;
        }
        self.ann.load_state(src)?;
        let n = src.count()?;
        self.shared.clear();
        for _ in 0..n {
            self.shared.push_back(read_pending(src)?);
        }
        self.base_seq = src.u64()?;
        // The lane pass indexes the queue by cursor and the annotation
        // slab by each entry's ordinal: refuse what it would trip on.
        let end = self.base_seq.checked_add(self.shared.len() as u64);
        let in_queue = |c: u64| self.base_seq <= c && end.is_some_and(|end| c <= end);
        if !self.lanes.iter().all(|l| in_queue(l.cursor)) {
            return Err(SnapError::Corrupt {
                what: "lane cursor outside the queue",
            });
        }
        if !self
            .shared
            .iter()
            .all(|p| self.ann.execs.contains(p.exec()))
        {
            return Err(SnapError::Corrupt {
                what: "pending entry without annotation",
            });
        }
        self.peak_buffered = src.u64()? as usize;
        self.reports = if src.bool()? {
            let instructions = src.u64()?;
            Some(
                self.lanes
                    .iter()
                    .map(|l| l.core.report(instructions))
                    .collect(),
            )
        } else {
            None
        };
        Ok(())
    }
}

impl LoopEventSink for EngineGrid {
    fn on_loop_event(&mut self, ev: &LoopEvent) {
        debug_assert!(self.reports.is_none(), "event after stream end");
        self.ann.ingest(ev, &mut self.shared);
        self.note_peak();
        self.advance_lanes(false);
    }

    fn on_loop_events(&mut self, events: &[LoopEvent]) {
        debug_assert!(self.reports.is_none(), "events after stream end");
        for ev in events {
            self.ann.ingest(ev, &mut self.shared);
        }
        self.note_peak();
        self.advance_lanes(false);
    }

    fn on_stream_end(&mut self, instructions: u64) {
        if self.reports.is_some() {
            return;
        }
        self.ann.close_leftovers(instructions, &mut self.shared);
        self.note_peak();
        self.advance_lanes(true);
        debug_assert!(self.shared.is_empty());
        debug_assert!(self.ann.execs.is_empty());
        self.reports = Some(
            self.lanes
                .iter()
                .map(|l| l.core.report(instructions))
                .collect(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::AnnotatedTrace;
    use crate::engine::Engine;
    use loopspec_core::EventCollector;
    use loopspec_cpu::{Cpu, RunLimits};

    fn events_of(build: impl FnOnce(&mut loopspec_asm::ProgramBuilder)) -> (Vec<LoopEvent>, u64) {
        let mut b = loopspec_asm::ProgramBuilder::new();
        build(&mut b);
        let p = b.finish().expect("assembles");
        let mut c = EventCollector::default();
        Cpu::new()
            .run(&p, &mut c, RunLimits::default())
            .expect("runs");
        c.into_parts()
    }

    /// The paper's 20-lane grid and its `(policy, tus)` points.
    fn full_grid() -> (EngineGrid, Vec<(Policy, usize)>) {
        let mut grid = EngineGrid::new();
        let mut points = Vec::new();
        for tus in [2usize, 4, 8, 16] {
            for p in Policy::ALL {
                p.add_to_grid(&mut grid, tus);
                points.push((p, tus));
            }
        }
        (grid, points)
    }

    #[test]
    fn grid_matches_batch_on_every_lane() {
        let (events, n) = events_of(|b| {
            b.counted_loop(6, |b, _| {
                for _ in 0..3 {
                    b.counted_loop(12, |b, _| b.work(8));
                }
            });
        });
        let trace = AnnotatedTrace::build(&events, n);
        for chunk in [1usize, 7, 256, events.len()] {
            let (mut grid, points) = full_grid();
            assert_eq!(grid.len(), 20);
            for c in events.chunks(chunk) {
                grid.on_loop_events(c);
            }
            grid.on_stream_end(n);
            assert_eq!(grid.events_seen(), events.len() as u64);
            for (lane, &(p, tus)) in points.iter().enumerate() {
                assert_eq!(
                    grid.report(lane).unwrap(),
                    &Engine::new(&trace, p, tus).run(),
                    "lane {lane} ({}) @ chunk {chunk}",
                    p.name()
                );
            }
        }
    }

    #[test]
    fn grid_matches_batch_on_repeated_executions() {
        // Repeated executions warm the predictor: exercises verification
        // handoffs, stale segments and the run-ahead skip.
        let (events, n) = events_of(|b| {
            b.define_func("kernel", |b| {
                b.counted_loop(20, |b, _| b.work(10));
            });
            for _ in 0..10 {
                b.call_func("kernel");
            }
        });
        let trace = AnnotatedTrace::build(&events, n);
        let mut grid = EngineGrid::new();
        let lane = Policy::Str.add_to_grid(&mut grid, 8);
        assert!(grid.report(lane).is_none(), "no report before stream end");
        grid.on_loop_events(&events);
        grid.on_stream_end(n);
        let report = grid.report(lane).unwrap();
        assert_eq!(report, &Engine::new(&trace, Policy::Str, 8).run());
        assert!(report.spec.verified > 0);
    }

    #[test]
    fn sequential_stream_has_tpc_one() {
        let (events, n) = events_of(|b| b.work(50));
        let mut grid = EngineGrid::new();
        let lane = Policy::Str.add_to_grid(&mut grid, 4);
        grid.on_loop_events(&events);
        grid.on_stream_end(n);
        let report = grid.report(lane).unwrap();
        assert_eq!(report.cycles, n);
        assert_eq!(report.spec.threads_spawned, 0);
    }

    #[test]
    fn grid_matches_batch_on_truncated_stream() {
        let (mut events, _) = events_of(|b| {
            b.counted_loop(30, |b, _| {
                b.counted_loop(5, |b, _| b.work(6));
            });
        });
        events.truncate(events.len() / 2);
        let n = events.last().map_or(0, |e| e.pos()) + 10;
        let trace = AnnotatedTrace::build(&events, n);

        let mut grid = EngineGrid::new();
        let lane = Policy::Str.add_to_grid(&mut grid, 4);
        grid.on_loop_events(&events);
        grid.on_stream_end(n);
        assert_eq!(
            grid.report(lane).unwrap(),
            &Engine::new(&trace, Policy::Str, 4).run()
        );
    }

    #[test]
    fn grid_buffering_stays_bounded() {
        let (events, n) = events_of(|b| {
            b.counted_loop(2000, |b, _| b.work(12));
        });
        let (mut grid, _) = full_grid();
        for c in events.chunks(256) {
            grid.on_loop_events(c);
        }
        grid.on_stream_end(n);
        assert!(grid.events_seen() > 2000);
        assert!(
            grid.peak_buffered() < 1024,
            "peak {} should be O(window + chunk), events {}",
            grid.peak_buffered(),
            grid.events_seen()
        );
    }

    #[test]
    fn empty_grid_is_fine() {
        let (events, n) = events_of(|b| b.counted_loop(5, |b, _| b.work(3)));
        let mut grid = EngineGrid::new();
        assert!(grid.is_empty());
        grid.on_loop_events(&events);
        grid.on_stream_end(n);
        assert_eq!(grid.reports(), Some(&[][..]));
        assert!(grid.report(0).is_none());
    }

    #[test]
    fn oracle_lanes_match_batch_oracle() {
        use crate::oracle::IterationCountLog;

        let (events, n) = events_of(|b| {
            b.counted_loop(8, |b, _| {
                for _ in 0..2 {
                    b.counted_loop(10, |b, _| b.work(7));
                }
            });
        });
        // Phase 1: record the counts.
        let mut log = IterationCountLog::new();
        log.on_loop_events(&events);
        log.on_stream_end(n);
        let feed = log.into_feed();
        let trace = AnnotatedTrace::build(&events, n);

        // Phase 2: oracle lanes beside a history lane in one grid.
        for chunk in [1usize, 7, 256] {
            let mut grid = EngineGrid::new();
            let o4 = grid.push_oracle(4, feed.clone());
            let ideal = grid.push_oracle_unbounded(feed.clone());
            let str4 = Policy::Str.add_to_grid(&mut grid, 4);
            for c in events.chunks(chunk) {
                grid.on_loop_events(c);
            }
            grid.on_stream_end(n);
            assert_eq!(
                grid.report(o4).unwrap(),
                &Engine::oracle(&trace, 4).run(),
                "ORACLE@4 chunk {chunk}"
            );
            assert_eq!(
                grid.report(ideal).unwrap(),
                &Engine::oracle_unbounded(&trace).run(),
                "ideal chunk {chunk}"
            );
            assert_eq!(
                grid.report(str4).unwrap(),
                &Engine::new(&trace, Policy::Str, 4).run(),
                "STR@4 beside oracle lanes, chunk {chunk}"
            );
        }
    }

    /// A grid fed half of `events`, then serialized.
    fn snapshot_of(mut grid: EngineGrid, events: &[LoopEvent]) -> Vec<u8> {
        use loopspec_core::SnapshotState;
        grid.on_loop_events(&events[..events.len() / 2]);
        let mut enc = Enc::new();
        grid.save_state(&mut enc);
        enc.into_bytes()
    }

    fn load_into(mut grid: EngineGrid, bytes: &[u8]) -> Result<(), SnapError> {
        loopspec_core::SnapshotState::load_state(&mut grid, &mut Dec::new(bytes))
    }

    #[test]
    fn snapshots_refuse_a_differently_configured_grid() {
        let (events, _) = events_of(|b| b.counted_loop(20, |b, _| b.work(8)));
        let idle_str = || {
            let mut g = EngineGrid::new();
            Policy::Idle.add_to_grid(&mut g, 4);
            Policy::Str.add_to_grid(&mut g, 4);
            g
        };
        let bytes = snapshot_of(idle_str(), &events);
        load_into(idle_str(), &bytes).expect("same lanes restore");

        let mut one_lane = EngineGrid::new();
        Policy::Idle.add_to_grid(&mut one_lane, 4);
        assert_eq!(
            load_into(one_lane, &bytes),
            Err(SnapError::Mismatch { what: "lane count" })
        );

        let mut reordered = EngineGrid::new();
        Policy::Str.add_to_grid(&mut reordered, 4);
        Policy::Idle.add_to_grid(&mut reordered, 4);
        assert_eq!(
            load_into(reordered, &bytes),
            Err(SnapError::Mismatch {
                what: "lane policy family"
            })
        );
    }

    #[test]
    fn oracle_snapshots_refuse_a_different_feed() {
        use crate::oracle::IterationCountLog;

        let (events, n) = events_of(|b| b.counted_loop(20, |b, _| b.work(8)));
        let mut log = IterationCountLog::new();
        log.on_loop_events(&events);
        log.on_stream_end(n);
        let feed = log.into_feed();
        let oracle_grid = |feed: OracleFeed| {
            let mut g = EngineGrid::new();
            g.push_oracle(4, feed);
            g
        };
        let bytes = snapshot_of(oracle_grid(feed.clone()), &events);
        load_into(oracle_grid(feed), &bytes).expect("same feed restores");

        // A different future (an empty log) is refused.
        let other = IterationCountLog::new().into_feed();
        assert_eq!(
            load_into(oracle_grid(other), &bytes),
            Err(SnapError::Mismatch {
                what: "oracle feed"
            })
        );
    }

    /// Feeds an IDLE@4 + STR@4 grid half of a nested-loop stream,
    /// applies `tamper` to its state, and loads the resulting snapshot
    /// bytes into a fresh grid.
    fn load_tampered(tamper: impl FnOnce(&mut EngineGrid)) -> Result<(), SnapError> {
        use loopspec_core::SnapshotState;
        let (events, _) = events_of(|b| {
            b.counted_loop(12, |b, _| {
                b.counted_loop(30, |b, _| b.work(6));
            })
        });
        let make = || {
            let mut g = EngineGrid::new();
            Policy::Idle.add_to_grid(&mut g, 4);
            Policy::Str.add_to_grid(&mut g, 4);
            g
        };
        let mut grid = make();
        grid.on_loop_events(&events[..events.len() / 2]);
        tamper(&mut grid);
        let mut enc = Enc::new();
        grid.save_state(&mut enc);
        load_into(make(), &enc.into_bytes())
    }

    #[test]
    fn snapshots_refuse_lane_cursors_outside_the_queue() {
        assert_eq!(load_tampered(|_| {}), Ok(()));
        let past_end = |g: &mut EngineGrid| {
            g.lanes[0].cursor = g.base_seq + g.shared.len() as u64 + 1;
        };
        // The slowest lane's cursor sits at `base_seq` after every chunk.
        let before_base = |g: &mut EngineGrid| g.base_seq += 1;
        let corrupt = Err(SnapError::Corrupt {
            what: "lane cursor outside the queue",
        });
        assert_eq!(load_tampered(past_end), corrupt);
        assert_eq!(load_tampered(before_base), corrupt);
    }

    #[test]
    fn snapshots_refuse_pending_entries_without_annotation() {
        let dangling = |g: &mut EngineGrid| {
            let exec = g.ann.next_exec + 7;
            g.shared.push_back(Pending::Start { exec });
        };
        assert_eq!(
            load_tampered(dangling),
            Err(SnapError::Corrupt {
                what: "pending entry without annotation"
            })
        );
    }

    #[test]
    fn snapshots_refuse_open_executions_without_annotation() {
        let dangling = |g: &mut EngineGrid| {
            let exec = g.ann.next_exec + 7;
            g.ann
                .open_by_loop
                .push((LoopId(loopspec_isa::Addr::new(3)), exec));
        };
        assert_eq!(
            load_tampered(dangling),
            Err(SnapError::Corrupt {
                what: "open execution without annotation"
            })
        );
    }

    #[test]
    fn snapshots_refuse_a_wrong_retained_iteration_count() {
        assert_eq!(
            load_tampered(|g| g.ann.buffered_iters += 1),
            Err(SnapError::Corrupt {
                what: "retained iteration count"
            })
        );
    }

    #[test]
    fn bad_tu_counts_are_typed_errors() {
        assert_eq!(validate_tus(1), Err(StreamError::BadTus { got: 1 }));
        assert_eq!(validate_tus(4097), Err(StreamError::BadTus { got: 4097 }));
        assert_eq!(validate_tus(2), Ok(()));
        assert_eq!(validate_tus(4096), Ok(()));
    }

    #[test]
    #[should_panic(expected = "num_tus must be in 2..=4096")]
    fn rejects_one_tu() {
        let _ = Policy::Str.add_to_grid(&mut EngineGrid::new(), 1);
    }

    #[test]
    #[should_panic(expected = "before the stream starts")]
    fn rejects_late_lanes() {
        let (events, _) = events_of(|b| b.counted_loop(5, |b, _| b.work(3)));
        let mut grid = EngineGrid::new();
        Policy::Str.add_to_grid(&mut grid, 4);
        grid.on_loop_events(&events);
        Policy::Idle.add_to_grid(&mut grid, 4);
    }
}
