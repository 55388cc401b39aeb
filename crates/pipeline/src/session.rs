//! The single-pass streaming session: one CPU run, one shared CLS,
//! fan-out to any number of consumers — now resumable at any
//! retired-instruction boundary.

use std::fmt;

use loopspec_core::snap::Enc;
use loopspec_core::{Cls, LoopEvent, SnapshotState};
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

enum Slot<'a> {
    Loops(&'a mut (dyn LoopEventSink + Send)),
    Both(&'a mut (dyn DualSink + Send)),
    /// A loop sink whose state travels in session checkpoints. Delivery
    /// is identical to [`Slot::Loops`].
    Ckpt(&'a mut (dyn CheckpointSink + Send)),
}

/// Which CPU front-end a [`Session`] drives.
///
/// The decoded interpreter is the default: it lowers the program to
/// threaded code once per session (see
/// [`DecodedProgram`]) and is observably identical to the legacy
/// fetch-decode-execute loop — same events, same faults, same snapshot
/// bytes. The legacy interpreter stays available as a cross-check
/// oracle, selected per session with [`Session::set_interp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Interp {
    /// Pre-decoded threaded-code dispatch over straight-line runs (the
    /// default).
    #[default]
    Decoded,
    /// The legacy per-instruction fetch-decode-execute loop.
    Legacy,
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

/// A single-pass execution session: one CPU run, one shared [`Cls`],
/// any number of streaming consumers.
///
/// Register consumers — three kinds — with [`Session::observe_loops`]
/// (loop events only), [`Session::observe_checkpointable`] (loop events,
/// with state captured by [`Session::checkpoint`]) or
/// [`Session::observe_both`] (instructions and loop events, see
/// [`DualSink`]; an instruction-only observer is a `DualSink` whose loop
/// side does nothing); then call [`Session::run`]. Per retired
/// instruction the dispatch order is fixed: first every dual sink's
/// [`on_retire`](Tracer::on_retire) (in registration order), then the
/// loop events that instruction produced — so a [`DualSink`] sees a
/// closing branch *before* the iteration-end event it causes, matching
/// the bundled [`DataSpecProfiler`](loopspec_dataspec::DataSpecProfiler)
/// semantics.
///
/// **Chunked fan-out.** Pure loop sinks do not receive events one at a
/// time: the CLS buffers them into fixed-size chunks (the session's
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
/// segments) the CLS is flushed, the final partial chunk is
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
///   CLS (including the undelivered event chunk), and the state of
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
/// use loopspec_mt::{EngineGrid, Policy};
/// use loopspec_pipeline::{Session, Snapshot};
///
/// let mut b = ProgramBuilder::new();
/// b.counted_loop(200, |b, _| b.work(20));
/// let program = b.finish()?;
/// let str4 = || {
///     let mut grid = EngineGrid::new();
///     Policy::Str.add_to_grid(&mut grid, 4);
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
    cls: Cls,
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
            .field("cls", &self.cls)
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
            cls,
            slots: Vec::new(),
            started: false,
            ended: false,
            interp: Interp::Decoded,
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
    /// lifetime.
    pub fn observe_loops(&mut self, sink: &'a mut (dyn LoopEventSink + Send)) -> &mut Self {
        self.slots.push(Slot::Loops(sink));
        self
    }

    /// Registers a consumer of both streams (see [`DualSink`]; borrowed).
    pub fn observe_both(&mut self, sink: &'a mut (dyn DualSink + Send)) -> &mut Self {
        self.slots.push(Slot::Both(sink));
        self
    }

    /// Registers a loop-event consumer whose state is captured by
    /// [`Session::checkpoint`] and restored by [`Session::resume`].
    ///
    /// Event delivery is identical to [`Session::observe_loops`]; the
    /// only difference is that the sink contributes a state section to
    /// snapshots. A session can only be checkpointed when **every**
    /// registered sink was registered this way — a snapshot missing one
    /// sink's state could not resume faithfully.
    pub fn observe_checkpointable(
        &mut self,
        sink: &'a mut (dyn CheckpointSink + Send),
    ) -> &mut Self {
        self.slots.push(Slot::Ckpt(sink));
        self
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
    /// segment stopped. If the program halts, the stream ends (CLS
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
                cls,
                slots,
                interp,
                decoded,
                ..
            } = self;
            let dual_sinks = slots.iter().any(|s| matches!(s, Slot::Both(_)));
            let mut dispatch = Dispatch {
                cls,
                slots,
                dual_sinks,
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
    /// call this: the partial chunk stays buffered in the CLS,
    /// which is what lets a checkpoint land mid-chunk.
    fn end_stream(&mut self) {
        let instructions = self.cpu.retired();
        flush_cpu_telemetry(&mut self.cpu);
        // Dual sinks have already seen every currently buffered event
        // live (they get each instruction's fresh events immediately);
        // loop sinks have not. Flush-produced closes are new to both.
        let seen = self.cls.buffered().len();
        self.cls.flush(instructions);
        let chunk = self.cls.buffered();
        let trailing = &chunk[seen..];
        if !chunk.is_empty() {
            obs::counter("pipeline_chunks_delivered").inc();
        }
        for slot in self.slots.iter_mut() {
            match slot {
                Slot::Loops(s) => end_loop_sink(&mut **s, chunk, instructions),
                Slot::Ckpt(s) => end_loop_sink(&mut **s, chunk, instructions),
                Slot::Both(d) => end_loop_sink(&mut **d, trailing, instructions),
            }
        }
        self.cls.clear_buffered();
        self.ended = true;
    }

    /// Captures the session at the current retired-instruction boundary
    /// as a [`Snapshot`]: CPU cursor, CLS state (entries plus the
    /// not-yet-delivered event chunk), and one state section per
    /// registered sink.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::StreamEnded`] after the stream ended;
    /// [`SnapshotError::NotCheckpointable`] when any sink was registered
    /// via a non-checkpointable `observe_*` method (dual sinks
    /// interleave with the instruction stream and do not currently
    /// serialize).
    pub fn checkpoint(&self) -> Result<Snapshot, SnapshotError> {
        if self.ended {
            return Err(SnapshotError::StreamEnded);
        }
        let mut sinks = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            match slot {
                Slot::Ckpt(s) => sinks.push(Snapshot::section(|enc| s.save_state(enc))),
                _ => return Err(SnapshotError::NotCheckpointable),
            }
        }
        let mut cpu = Enc::new();
        self.cpu.save_state(&mut cpu);
        let mut detector = Enc::new();
        self.cls.save_state(&mut detector);
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
            .filter(|s| matches!(s, Slot::Ckpt(_)))
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
        Snapshot::load_section(&snapshot.detector, |dec| self.cls.load_state(dec))?;
        for (slot, bytes) in self.slots.iter_mut().zip(&snapshot.sinks) {
            let Slot::Ckpt(s) = slot else { unreachable!() };
            Snapshot::load_section(bytes, |dec| s.load_state(dec))?;
        }
        self.started = snapshot.started;
        Ok(())
    }
}

/// Delivers the final chunk (if any) and the end-of-stream callback.
fn end_loop_sink<S: LoopEventSink + ?Sized>(sink: &mut S, chunk: &[LoopEvent], instructions: u64) {
    if !chunk.is_empty() {
        sink.on_loop_events(chunk);
    }
    sink.on_stream_end(instructions);
}

/// The internal fan-out tracer: one CLS, many consumers.
///
/// Loop events are delivered in **chunks**: the CLS buffers them into
/// its internal chunk (capacity from the session's
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
    cls: &'s mut Cls,
    slots: &'s mut Vec<Slot<'a>>,
    /// Whether any slot is a [`DualSink`] — when false (the common grid
    /// case: loop sinks only) the per-retirement slot walk is skipped
    /// entirely.
    dual_sinks: bool,
    /// Full event chunks fanned out so far (out-of-band telemetry; the
    /// handle is cached here so the hot path never touches the registry
    /// lock).
    chunks: obs::Counter,
}

impl Tracer for Dispatch<'_, '_> {
    /// The CLS itself reads only always-populated event fields (pc, seq,
    /// control outcome), so the session's demand is exactly the union of
    /// its dual sinks' demands — an all-loop grid session lets the
    /// interpreter skip event payload assembly entirely.
    fn demand(&self) -> Demand {
        self.slots.iter().fold(Demand::NONE, |d, slot| match slot {
            Slot::Both(b) => d.union(b.demand()),
            Slot::Loops(_) | Slot::Ckpt(_) => d,
        })
    }

    fn on_retire(&mut self, ev: &InstrEvent) {
        if self.dual_sinks {
            for slot in self.slots.iter_mut() {
                if let Slot::Both(d) = slot {
                    d.on_retire(ev);
                }
            }
        }
        if matches!(ev.control.kind, ControlKind::None) {
            return;
        }
        let before = self.cls.buffered().len();
        let full = self.cls.on_retire(ev);
        if self.dual_sinks {
            let fresh = &self.cls.buffered()[before..];
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
            let chunk = self.cls.buffered();
            for slot in self.slots.iter_mut() {
                match slot {
                    Slot::Loops(s) => s.on_loop_events(chunk),
                    Slot::Ckpt(s) => s.on_loop_events(chunk),
                    Slot::Both(_) => {}
                }
            }
            self.cls.clear_buffered();
        }
    }
}
