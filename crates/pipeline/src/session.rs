//! The single-pass streaming session: one CPU run, one shared detector,
//! fan-out to any number of consumers — now resumable at any
//! retired-instruction boundary.

use std::any::Any;
use std::fmt;

use loopspec_core::snap::Enc;
use loopspec_core::{Cls, LoopDetector, SnapshotState};
use loopspec_cpu::{Cpu, DecodedProgram, Demand, InstrEvent, RunLimits, RunSummary, Tracer};
use loopspec_isa::ControlKind;

use loopspec_obs as obs;

use crate::snapshot::{CheckpointSink, Snapshot, SnapshotError};
use crate::LoopEventSink;

/// Drains the CPU's out-of-band execution telemetry (page-table MRU
/// hits, decoded-dispatch counters) into the global metrics registry.
/// Called at end of stream so steady-state retirement pays nothing; the
/// counters it feeds are purely observational and never loop back into
/// simulation state.
fn flush_cpu_telemetry(cpu: &mut Cpu) {
    let (mru_hits, mru_misses) = cpu.mem().take_mru_telemetry();
    if mru_hits > 0 {
        obs::counter("cpu_mru_hits").add(mru_hits);
    }
    if mru_misses > 0 {
        obs::counter("cpu_mru_misses").add(mru_misses);
    }
    let t = cpu.take_decoded_telemetry();
    if !t.is_empty() {
        obs::counter("cpu_superblock_runs").add(t.superblock_runs);
        obs::counter("cpu_superblock_instrs").add(t.superblock_instrs);
        if t.kernel_calls > 0 {
            obs::counter(obs::names::CPU_KERNEL_CALLS).add(t.kernel_calls);
            obs::counter(obs::names::CPU_KERNEL_INSTRS).add(t.kernel_instrs);
        }
        obs::histogram("cpu_superblock_len")
            .merge_prebucketed(&t.superblock_len_buckets, t.superblock_instrs);
    }
}

/// A consumer of both the instruction stream and the loop-event stream —
/// e.g. [`loopspec_dataspec::LiveInProfiler`], which charges live-ins per
/// instruction and rolls frames at iteration boundaries.
///
/// Blanket-implemented for everything that is both a [`Tracer`] and a
/// [`LoopEventSink`]; register with [`Session::observe_both`].
pub trait DualSink: Tracer + LoopEventSink {}

impl<T: Tracer + LoopEventSink> DualSink for T {}

/// An owned, checkpointable sink stored inside the session (no borrow,
/// no `'a`): the object-safe shape behind [`Session::add_sink`].
///
/// The `Any` hooks let callers recover the concrete sink afterwards via
/// [`Session::sink`] / [`Session::sink_mut`] / [`Session::into_sink`].
/// Blanket-implemented for every `CheckpointSink + Send + 'static` —
/// including `Box<dyn CheckpointSink + Send>` itself, so type-erased
/// sinks can be registered too.
trait OwnedSink: Send {
    fn ckpt(&self) -> &dyn CheckpointSink;
    fn ckpt_mut(&mut self) -> &mut dyn CheckpointSink;
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<S: CheckpointSink + Send + 'static> OwnedSink for S {
    fn ckpt(&self) -> &dyn CheckpointSink {
        self
    }
    fn ckpt_mut(&mut self) -> &mut dyn CheckpointSink {
        self
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

enum Slot<'a> {
    Loops(&'a mut (dyn LoopEventSink + Send)),
    Instrs(&'a mut (dyn Tracer + Send)),
    Both(&'a mut (dyn DualSink + Send)),
    /// A loop sink whose state travels in session checkpoints. Delivery
    /// is identical to [`Slot::Loops`].
    Ckpt(&'a mut (dyn CheckpointSink + Send)),
    /// An owned checkpointable sink ([`Session::add_sink`]). Delivery
    /// and snapshot treatment are identical to [`Slot::Ckpt`].
    Owned(Box<dyn OwnedSink>),
}

/// Which CPU front-end a [`Session`] drives.
///
/// The decoded interpreter is the default: it lowers the program to
/// threaded code once per session (see
/// [`DecodedProgram`]) and is observably identical to the legacy
/// fetch-decode-execute loop — same events, same faults, same snapshot
/// bytes. The legacy interpreter stays available as a cross-check
/// oracle, selected per session with [`Session::set_interp`] or
/// globally with the `LOOPSPEC_INTERP=legacy` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Interp {
    /// Pre-decoded threaded-code dispatch over straight-line runs (the
    /// default).
    #[default]
    Decoded,
    /// The legacy per-instruction fetch-decode-execute loop.
    Legacy,
}

impl Interp {
    /// The interpreter selected by the `LOOPSPEC_INTERP` environment
    /// variable: `legacy` picks [`Interp::Legacy`], anything else (or
    /// unset) the default [`Interp::Decoded`].
    pub fn from_env() -> Interp {
        match std::env::var("LOOPSPEC_INTERP") {
            Ok(v) if v.eq_ignore_ascii_case("legacy") => Interp::Legacy,
            _ => Interp::Decoded,
        }
    }
}

impl fmt::Display for Interp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interp::Decoded => f.write_str("decoded"),
            Interp::Legacy => f.write_str("legacy"),
        }
    }
}

/// Result of a [`Session::run`] or [`Session::advance`].
#[derive(Debug, Clone, Copy)]
pub struct SessionSummary {
    /// The session's cumulative stream position: total committed
    /// instructions across all segments, including those executed
    /// before a checkpoint this session was resumed from. This is the
    /// stream length every sink is told at end-of-stream.
    pub instructions: u64,
    /// The CPU's summary of the **most recent** segment (its `retired`
    /// counts this segment only).
    pub run: RunSummary,
}

impl SessionSummary {
    /// `true` when the program halted of its own accord.
    pub fn halted(&self) -> bool {
        self.run.halted()
    }
}

/// A single-pass execution session: one CPU run, one shared loop
/// detector, any number of streaming consumers.
///
/// Register consumers with [`Session::observe_loops`] (loop events only),
/// [`Session::observe_instrs`] (retired instructions only),
/// [`Session::observe_both`], [`Session::observe_checkpointable`]
/// (loop events, with state captured by [`Session::checkpoint`]), or
/// [`Session::add_sink`] (like `observe_checkpointable` but **owned**:
/// the session holds the sink itself, so it is `'static + Send` when
/// all of its sinks are owned and can live in a job table); then
/// call [`Session::run`]. Per retired instruction the dispatch order is
/// fixed: first every instruction observer (in registration order), then
/// the loop events that instruction produced — so a [`DualSink`] sees a
/// closing branch *before* the iteration-end event it causes, matching
/// the bundled [`DataSpecProfiler`](loopspec_dataspec::DataSpecProfiler)
/// semantics.
///
/// **Chunked fan-out.** Pure loop sinks do not receive events one at a
/// time: the detector buffers them into fixed-size chunks (the session's
/// [`Cls`] chunk capacity, default
/// [`DEFAULT_EVENT_CHUNK`](loopspec_core::DEFAULT_EVENT_CHUNK) events)
/// and each full chunk is delivered with one
/// [`on_loop_events`](LoopEventSink::on_loop_events) call per sink, in
/// registration order. Within every sink the stream is identical —
/// same events, same order, positions non-decreasing — only the call
/// granularity changes (see the batching contract in
/// [`loopspec_core::sink`]). [`DualSink`]s still see each instruction's
/// events before the next retirement, as their analyses require.
///
/// At end of stream (halt, or [`Session::finish`] after fuel-bounded
/// segments) the detector is flushed, the final partial chunk is
/// delivered, and every loop/dual sink receives
/// [`on_stream_end`](LoopEventSink::on_stream_end) with the final
/// instruction count.
///
/// ## Segmented execution and checkpoints
///
/// [`Session::run`] executes a whole program in one call. The segmented
/// API splits the same stream across calls — and, via [`Snapshot`],
/// across *processes*:
///
/// * [`Session::advance`] runs up to `limits.max_instrs` further
///   instructions. A `halt` ends the stream exactly like `run`; fuel
///   exhaustion leaves the session paused at a retired-instruction
///   boundary.
/// * [`Session::checkpoint`] captures a paused session — CPU cursor,
///   detector (including the undelivered event chunk), and the state of
///   every checkpointable sink — as a [`Snapshot`].
/// * [`Session::resume`] restores a snapshot into a **fresh** session
///   with the same sinks registered in the same order.
/// * [`Session::finish`] ends the stream explicitly when no more
///   segments will run (fuel-truncated studies).
///
/// The `checkpoint → resume` round trip is exact: the resumed session's
/// sinks end the stream bit-identical to an uninterrupted run (enforced
/// by the `checkpoint_resume` and `sharded_equivalence` suites).
///
/// ```
/// use loopspec_asm::ProgramBuilder;
/// use loopspec_cpu::RunLimits;
/// use loopspec_mt::EngineGrid;
/// use loopspec_pipeline::{Session, Snapshot};
///
/// let mut b = ProgramBuilder::new();
/// b.counted_loop(200, |b, _| b.work(20));
/// let program = b.finish()?;
/// let str4 = || {
///     let mut grid = EngineGrid::new();
///     grid.push_str(4);
///     grid
/// };
///
/// // First worker: run half the stream, checkpoint, serialize.
/// let mut engine = str4();
/// let mut session = Session::new();
/// session.observe_checkpointable(&mut engine);
/// session.advance(&program, RunLimits::with_fuel(2_000))?;
/// let bytes = session.checkpoint()?.to_bytes();
///
/// // Second worker (possibly another process): resume and finish.
/// let mut engine2 = str4();
/// let mut session2 = Session::new();
/// session2.observe_checkpointable(&mut engine2);
/// session2.resume(&Snapshot::from_bytes(&bytes)?)?;
/// let out = session2.advance(&program, RunLimits::default())?;
/// assert!(out.halted());
///
/// // Same report as one uninterrupted pass.
/// let mut reference = str4();
/// let mut single = Session::new();
/// single.observe_checkpointable(&mut reference);
/// single.run(&program, RunLimits::default())?;
/// assert_eq!(engine2.reports(), reference.reports());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Session<'a> {
    cpu: Cpu,
    detector: LoopDetector,
    slots: Vec<Slot<'a>>,
    started: bool,
    ended: bool,
    interp: Interp,
    /// The threaded-code lowering of the last program this session
    /// advanced, rebuilt whenever the program changes.
    decoded: Option<DecodedProgram>,
}

impl fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("detector", &self.detector)
            .field("sinks", &self.slots.len())
            .field("position", &self.cpu.retired())
            .field("started", &self.started)
            .field("ended", &self.ended)
            .field("interp", &self.interp)
            .finish()
    }
}

impl Default for Session<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> Session<'a> {
    /// A session with the paper's 16-entry CLS.
    pub fn new() -> Self {
        Session::with_cls(Cls::default())
    }

    /// A session detecting loops with a custom CLS (capacity ablations).
    pub fn with_cls(cls: Cls) -> Self {
        Session {
            cpu: Cpu::new(),
            detector: LoopDetector::new(cls),
            slots: Vec::new(),
            started: false,
            ended: false,
            interp: Interp::from_env(),
            decoded: None,
        }
    }

    /// The CPU front-end this session drives (see [`Interp`]).
    pub fn interp(&self) -> Interp {
        self.interp
    }

    /// Overrides the CPU front-end for this session — e.g. pinning
    /// [`Interp::Legacy`] to cross-check the decoded path.
    pub fn set_interp(&mut self, interp: Interp) -> &mut Self {
        self.interp = interp;
        self
    }

    /// Registers a loop-event consumer borrowed for the session's
    /// lifetime. Thin wrapper over the slot table shared with
    /// [`Session::add_sink`].
    pub fn observe_loops(&mut self, sink: &'a mut (dyn LoopEventSink + Send)) -> &mut Self {
        self.register(Slot::Loops(sink))
    }

    /// Registers a per-instruction consumer (borrowed).
    pub fn observe_instrs(&mut self, tracer: &'a mut (dyn Tracer + Send)) -> &mut Self {
        self.register(Slot::Instrs(tracer))
    }

    /// Registers a consumer of both streams (see [`DualSink`]; borrowed).
    pub fn observe_both(&mut self, sink: &'a mut (dyn DualSink + Send)) -> &mut Self {
        self.register(Slot::Both(sink))
    }

    /// Registers a loop-event consumer whose state is captured by
    /// [`Session::checkpoint`] and restored by [`Session::resume`].
    ///
    /// Event delivery is identical to [`Session::observe_loops`]; the
    /// only difference is that the sink contributes a state section to
    /// snapshots. A session can only be checkpointed when **every**
    /// registered sink was registered this way or via
    /// [`Session::add_sink`] — a snapshot missing one sink's state
    /// could not resume faithfully.
    pub fn observe_checkpointable(
        &mut self,
        sink: &'a mut (dyn CheckpointSink + Send),
    ) -> &mut Self {
        self.register(Slot::Ckpt(sink))
    }

    /// Registers an **owned** checkpointable sink: the session takes the
    /// sink by value, so a fully owned session is `'static`, [`Send`],
    /// and can live in a job table or move across threads — no borrow
    /// ties it to the caller's stack frame.
    ///
    /// Delivery and snapshot treatment are identical to
    /// [`Session::observe_checkpointable`] (which, like every
    /// `observe_*` method, is now a thin wrapper over the same slot
    /// table). `Box<dyn CheckpointSink + Send>` works as `S` too, for
    /// callers assembling sinks dynamically.
    ///
    /// Read the sink back with [`Session::sink`] / [`Session::sink_mut`]
    /// while the session lives, or [`Session::into_sink`] to take it out
    /// at the end.
    ///
    /// ```
    /// use loopspec_asm::ProgramBuilder;
    /// use loopspec_cpu::RunLimits;
    /// use loopspec_mt::EngineGrid;
    /// use loopspec_pipeline::Session;
    ///
    /// let mut b = ProgramBuilder::new();
    /// b.counted_loop(100, |b, _| b.work(10));
    /// let program = b.finish()?;
    ///
    /// let mut grid = EngineGrid::new();
    /// grid.push_str(4);
    /// let mut session = Session::new();
    /// session.add_sink(grid);
    /// session.advance(&program, RunLimits::default())?;
    /// let grid: EngineGrid = session.into_sink(0).expect("slot 0");
    /// assert!(grid.reports().is_some());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn add_sink<S: CheckpointSink + Send + 'static>(&mut self, sink: S) -> &mut Self {
        self.register(Slot::Owned(Box::new(sink)))
    }

    fn register(&mut self, slot: Slot<'a>) -> &mut Self {
        self.slots.push(slot);
        self
    }

    /// The owned sink registered at `index` (registration order, shared
    /// with the `observe_*` methods), if that slot is owned and of
    /// concrete type `S`. Borrowed slots return `None` — the caller
    /// still holds those.
    pub fn sink<S: 'static>(&self, index: usize) -> Option<&S> {
        match self.slots.get(index)? {
            Slot::Owned(s) => s.as_any().downcast_ref(),
            _ => None,
        }
    }

    /// Mutable twin of [`Session::sink`].
    pub fn sink_mut<S: 'static>(&mut self, index: usize) -> Option<&mut S> {
        match self.slots.get_mut(index)? {
            Slot::Owned(s) => s.as_any_mut().downcast_mut(),
            _ => None,
        }
    }

    /// Consumes the session and takes back the owned sink at `index`
    /// (`None` when the slot is borrowed or a different type). Usually
    /// called after the stream ended to extract results.
    pub fn into_sink<S: 'static>(self, index: usize) -> Option<S> {
        match self.slots.into_iter().nth(index)? {
            Slot::Owned(s) => s.into_any().downcast().ok().map(|b| *b),
            _ => None,
        }
    }

    /// Number of registered consumers.
    pub fn sinks(&self) -> usize {
        self.slots.len()
    }

    /// The session's stream position: committed instructions so far
    /// (including segments executed before a resumed checkpoint).
    pub fn position(&self) -> u64 {
        self.cpu.retired()
    }

    /// `true` once the stream has ended (halt or [`Session::finish`]):
    /// sinks have received their end-of-stream callback and no further
    /// segments or checkpoints are possible.
    pub fn is_ended(&self) -> bool {
        self.ended
    }

    /// Executes `program` to completion in one pass — convenience for
    /// [`Session::advance`] + [`Session::finish`].
    ///
    /// Consumes the session: the sinks have received their end-of-stream
    /// callback and the borrows are released, so results can be read
    /// directly from the sink objects afterwards. Fuel exhaustion ends
    /// the stream too (open loop executions are closed at the cut,
    /// exactly like the batch annotator does for truncated traces); use
    /// the segmented API when the run should instead pause.
    ///
    /// # Errors
    ///
    /// Propagates any CPU fault as [`SnapshotError::Cpu`] — every
    /// session entry point ([`run`](Session::run),
    /// [`advance`](Session::advance), [`checkpoint`](Session::checkpoint),
    /// [`resume`](Session::resume)) shares the one [`SnapshotError`]
    /// type, which the `loopspec` facade absorbs into `loopspec::Error`.
    /// Sinks see the partial stream but no end-of-stream callback in
    /// that case.
    ///
    /// # Panics
    ///
    /// Panics if the stream has already ended (a session that halted
    /// during an earlier [`Session::advance`] cannot run again).
    pub fn run(
        mut self,
        program: &loopspec_asm::Program,
        limits: RunLimits,
    ) -> Result<SessionSummary, SnapshotError> {
        let summary = self.advance(program, limits)?;
        if !self.ended {
            self.end_stream();
        }
        Ok(summary)
    }

    /// Runs up to `limits.max_instrs` further instructions of `program`,
    /// feeding every registered consumer.
    ///
    /// The first call starts at the program's entry point; later calls
    /// (or calls after [`Session::resume`]) continue where the previous
    /// segment stopped. If the program halts, the stream ends (detector
    /// flushed, final chunk delivered,
    /// [`on_stream_end`](LoopEventSink::on_stream_end) fired). If the
    /// fuel runs out first, the session pauses at a retirement boundary
    /// — ready for another `advance`, or for [`Session::checkpoint`].
    ///
    /// # Errors
    ///
    /// Propagates any [`CpuError`](loopspec_cpu::CpuError) as
    /// [`SnapshotError::Cpu`].
    ///
    /// # Panics
    ///
    /// Panics if the stream has already ended.
    pub fn advance(
        &mut self,
        program: &loopspec_asm::Program,
        limits: RunLimits,
    ) -> Result<SessionSummary, SnapshotError> {
        assert!(!self.ended, "Session::advance after the stream ended");
        let _span = obs::span!("session.advance");
        if self.interp == Interp::Decoded && !matches!(&self.decoded, Some(d) if d.matches(program))
        {
            self.decoded = Some(DecodedProgram::new(program));
        }
        let fresh = !self.started;
        self.started = true;
        let run = {
            let Session {
                cpu,
                detector,
                slots,
                interp,
                decoded,
                ..
            } = self;
            let instr_observers = slots
                .iter()
                .any(|s| matches!(s, Slot::Instrs(_) | Slot::Both(_)));
            let mut dispatch = Dispatch {
                detector,
                slots,
                instr_observers,
                chunks: obs::counter("pipeline_chunks_delivered"),
            };
            match (*interp, decoded.as_ref()) {
                (Interp::Decoded, Some(dp)) => {
                    if fresh {
                        cpu.run_decoded(dp, &mut dispatch, limits)?
                    } else {
                        cpu.resume_decoded(dp, &mut dispatch, limits)?
                    }
                }
                _ => {
                    if fresh {
                        cpu.run(program, &mut dispatch, limits)?
                    } else {
                        cpu.resume(program, &mut dispatch, limits)?
                    }
                }
            }
        };
        if run.halted() {
            self.end_stream();
        }
        Ok(SessionSummary {
            instructions: self.cpu.retired(),
            run,
        })
    }

    /// Ends the stream without executing further instructions: closes
    /// still-open loop executions at the current position, delivers the
    /// final partial chunk, and fires
    /// [`on_stream_end`](LoopEventSink::on_stream_end) on every
    /// loop/dual sink. Idempotent. Returns the final instruction count.
    pub fn finish(&mut self) -> u64 {
        if !self.ended {
            self.end_stream();
        }
        self.cpu.retired()
    }

    /// Flush + final chunk + end-of-stream callbacks (halt or explicit
    /// finish). A fuel-exhausted `advance` deliberately does **not**
    /// call this: the partial chunk stays buffered in the detector,
    /// which is what lets a checkpoint land mid-chunk.
    fn end_stream(&mut self) {
        let instructions = self.cpu.retired();
        flush_cpu_telemetry(&mut self.cpu);
        // Dual sinks have already seen every currently buffered event
        // live (they get each instruction's fresh events immediately);
        // loop sinks have not. Flush-produced closes are new to both.
        let seen = self.detector.buffered().len();
        self.detector.flush_buffered(instructions);
        let chunk = self.detector.buffered();
        let trailing = &chunk[seen..];
        if !chunk.is_empty() {
            obs::counter("pipeline_chunks_delivered").inc();
        }
        for slot in self.slots.iter_mut() {
            match slot {
                Slot::Loops(s) => {
                    if !chunk.is_empty() {
                        s.on_loop_events(chunk);
                    }
                    s.on_stream_end(instructions);
                }
                Slot::Ckpt(s) => {
                    if !chunk.is_empty() {
                        s.on_loop_events(chunk);
                    }
                    s.on_stream_end(instructions);
                }
                Slot::Owned(s) => {
                    let s = s.ckpt_mut();
                    if !chunk.is_empty() {
                        s.on_loop_events(chunk);
                    }
                    s.on_stream_end(instructions);
                }
                Slot::Both(d) => {
                    if !trailing.is_empty() {
                        d.on_loop_events(trailing);
                    }
                    d.on_stream_end(instructions);
                }
                Slot::Instrs(_) => {}
            }
        }
        self.detector.clear_buffered();
        self.ended = true;
    }

    /// Captures the session at the current retired-instruction boundary
    /// as a [`Snapshot`]: CPU cursor, detector state (CLS entries plus
    /// the not-yet-delivered event chunk), and one state section per
    /// registered sink.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::StreamEnded`] after the stream ended;
    /// [`SnapshotError::NotCheckpointable`] when any sink was registered
    /// via a non-checkpointable `observe_*` method (dual and
    /// instruction sinks interleave with the instruction stream and do
    /// not currently serialize).
    pub fn checkpoint(&self) -> Result<Snapshot, SnapshotError> {
        if self.ended {
            return Err(SnapshotError::StreamEnded);
        }
        let mut sinks = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            match slot {
                Slot::Ckpt(s) => sinks.push(Snapshot::section(|enc| s.save_state(enc))),
                Slot::Owned(s) => sinks.push(Snapshot::section(|enc| s.ckpt().save_state(enc))),
                _ => return Err(SnapshotError::NotCheckpointable),
            }
        }
        let mut cpu = Enc::new();
        self.cpu.save_state(&mut cpu);
        let mut detector = Enc::new();
        self.detector.save_state(&mut detector);
        Ok(Snapshot {
            started: self.started,
            instructions: self.cpu.retired(),
            cpu: cpu.into_bytes(),
            detector: detector.into_bytes(),
            sinks,
        })
    }

    /// Restores `snapshot` into this session, which must not have run
    /// yet and must have the same checkpointable sinks registered, in
    /// the same order and configuration, as the session the snapshot was
    /// taken from. A following [`Session::advance`] continues the
    /// stream at instruction `snapshot.instructions() + 1`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::AlreadyStarted`] when this session has executed
    /// instructions; [`SnapshotError::NotCheckpointable`] /
    /// [`SnapshotError::SinkCountMismatch`] when the registered sinks
    /// cannot absorb the snapshot's sections;
    /// [`SnapshotError::Codec`] when a section fails to decode (e.g. a
    /// sink was reconstructed with a different configuration).
    pub fn resume(&mut self, snapshot: &Snapshot) -> Result<(), SnapshotError> {
        if self.started || self.ended {
            return Err(SnapshotError::AlreadyStarted);
        }
        let ckpt = self
            .slots
            .iter()
            .filter(|s| matches!(s, Slot::Ckpt(_) | Slot::Owned(_)))
            .count();
        if ckpt != self.slots.len() {
            return Err(SnapshotError::NotCheckpointable);
        }
        if ckpt != snapshot.sinks.len() {
            return Err(SnapshotError::SinkCountMismatch {
                snapshot: snapshot.sinks.len(),
                session: ckpt,
            });
        }
        Snapshot::load_section(&snapshot.cpu, |dec| self.cpu.load_state(dec))?;
        Snapshot::load_section(&snapshot.detector, |dec| self.detector.load_state(dec))?;
        for (slot, bytes) in self.slots.iter_mut().zip(&snapshot.sinks) {
            match slot {
                Slot::Ckpt(s) => Snapshot::load_section(bytes, |dec| s.load_state(dec))?,
                Slot::Owned(s) => {
                    Snapshot::load_section(bytes, |dec| s.ckpt_mut().load_state(dec))?
                }
                _ => unreachable!(),
            }
        }
        self.started = snapshot.started;
        Ok(())
    }
}

/// The internal fan-out tracer: one detector, many consumers.
///
/// Loop events are delivered on the **chunked** path: the detector
/// buffers them into its internal chunk (capacity from the session's
/// [`Cls`], default
/// [`DEFAULT_EVENT_CHUNK`](loopspec_core::DEFAULT_EVENT_CHUNK)) and each
/// full chunk is fanned out with a single
/// [`on_loop_events`](LoopEventSink::on_loop_events) call per loop sink
/// — one virtual call per chunk per sink instead of one per event per
/// sink. [`DualSink`]s are the exception: their analysis interleaves the
/// instruction and event streams (an instruction must be charged to the
/// iteration that was open when it retired), so they receive each
/// instruction's fresh events immediately, before the next retirement.
struct Dispatch<'s, 'a> {
    detector: &'s mut LoopDetector,
    slots: &'s mut Vec<Slot<'a>>,
    /// Whether any slot observes the instruction stream — when false
    /// (the common grid case: loop sinks only) the per-retirement slot
    /// walk is skipped entirely.
    instr_observers: bool,
    /// Full event chunks fanned out so far (out-of-band telemetry; the
    /// handle is cached here so the hot path never touches the registry
    /// lock).
    chunks: obs::Counter,
}

impl Tracer for Dispatch<'_, '_> {
    /// The detector itself reads only always-populated event fields
    /// (pc, seq, control outcome), so the session's demand is exactly
    /// the union of its instruction observers' demands — an all-loop
    /// grid session lets the interpreter skip event payload assembly
    /// entirely.
    fn demand(&self) -> Demand {
        self.slots.iter().fold(Demand::NONE, |d, slot| match slot {
            Slot::Instrs(t) => d.union(t.demand()),
            Slot::Both(b) => d.union(b.demand()),
            Slot::Loops(_) | Slot::Ckpt(_) | Slot::Owned(_) => d,
        })
    }

    fn on_retire(&mut self, ev: &InstrEvent) {
        if self.instr_observers {
            for slot in self.slots.iter_mut() {
                match slot {
                    Slot::Instrs(t) => t.on_retire(ev),
                    Slot::Both(d) => d.on_retire(ev),
                    Slot::Loops(_) | Slot::Ckpt(_) | Slot::Owned(_) => {}
                }
            }
        }
        if matches!(ev.control.kind, ControlKind::None) {
            return;
        }
        let before = self.detector.buffered().len();
        let full = self.detector.process_buffered(ev);
        if self.instr_observers {
            let fresh = &self.detector.buffered()[before..];
            if !fresh.is_empty() {
                for slot in self.slots.iter_mut() {
                    if let Slot::Both(d) = slot {
                        d.on_loop_events(fresh);
                    }
                }
            }
        }
        if full {
            self.chunks.inc();
            let chunk = self.detector.buffered();
            for slot in self.slots.iter_mut() {
                match slot {
                    Slot::Loops(s) => s.on_loop_events(chunk),
                    Slot::Ckpt(s) => s.on_loop_events(chunk),
                    Slot::Owned(s) => s.ckpt_mut().on_loop_events(chunk),
                    Slot::Instrs(_) | Slot::Both(_) => {}
                }
            }
            self.detector.clear_buffered();
        }
    }
}
