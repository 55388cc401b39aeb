//! The coordinator ↔ worker frame protocol.
//!
//! Everything that crosses a worker boundary is a [`Frame`]: a tagged
//! payload encoded with the `isa::snap` [`Enc`]/[`Dec`] primitives and
//! wrapped in the length-prefixed, checksummed frame container
//! (`len: u32 | payload | checksum(payload): u64`, written by
//! [`write_frame`]), so the byte stream (a pipe to a spawned process,
//! or a Unix socket) is self-delimiting and self-checking. The trailer
//! is the XXH64 integrity [`checksum`]; FNV-1a stays the identity hash
//! behind [`JobSpec::fingerprint`](crate::JobSpec::fingerprint), so
//! cache keys do not depend on the frame container. This module is the
//! container's one owner: [`write_frame`] writes it and
//! [`FrameReader::read_frame`] reads it, asking the transport for
//! exactly the bytes the current frame still needs. The reader checks
//! the declared length against [`MAX_FRAME`] *before* allocating, so a
//! corrupt or hostile length prefix can never trigger an OOM-sized
//! reservation.
//!
//! The conversation (see [`Frame`] for each frame's fields):
//!
//! | direction | frame | meaning |
//! |---|---|---|
//! | C → W | [`Frame::Hello`] | protocol version + assigned worker id |
//! | W → C | [`Frame::Hello`] | the same values echoed back (version handshake) |
//! | C → W | [`Frame::Job`] | run one shard: workload + lanes + fuel budget + where to resume from ([`Resume`]: the start, carried snapshot bytes, or the snapshot this worker holds) |
//! | W → C | [`Frame::Snapshot`] | shard paused at a checkpoint: serialized [`Snapshot`](loopspec_pipeline::Snapshot) bytes for the successor shard |
//! | W → C | [`Frame::Report`] | stream ended in this shard: per-lane reports + final sink state bytes |
//! | W → C | [`Frame::Error`] | the job failed deterministically (unknown workload, bad lane, snapshot mismatch) |
//!
//! ```
//! use loopspec_dist::wire::{Frame, PROTOCOL};
//!
//! let hello = Frame::Hello { protocol: PROTOCOL, worker: 3 };
//! let bytes = hello.encode();
//! assert_eq!(Frame::decode(&bytes)?, hello);
//! # Ok::<(), loopspec_core::snap::SnapError>(())
//! ```

use std::fmt;
use std::io::{self, Read, Write};

use loopspec_core::snap::{checksum, Dec, Enc, SnapError, FRAME_TRAILER};
use loopspec_mt::{EngineGrid, EngineReport, Policy, StreamError};
use loopspec_workloads::Scale;

/// Protocol version. The coordinator sends it in its [`Frame::Hello`];
/// the worker echoes it back, and either side drops the connection on a
/// mismatch — a worker from another build can never silently compute
/// with different semantics.
///
/// v2 added five replay-service frames (tags 6–10: submit, done, stats
/// request, stats, rejected). No binary ever sent them, so they were
/// retired without a version change; their tags now decode as corrupt.
///
/// v3 added `Scale::Huge` (wire tag 3) and the kernel-registry
/// fingerprint to the [`JobSpec`](crate::JobSpec) encoding (today the
/// [`fingerprint`](crate::JobSpec::fingerprint) domain) — a coordinator
/// and a worker built with different kernel registries must never
/// exchange jobs, because their "identical" workloads would retire
/// different instruction streams.
///
/// v4 closes every frame with the XXH64 [`checksum`] instead of FNV-1a;
/// payload encodings are unchanged.
///
/// v5 replaces the job's optional snapshot with a [`Resume`] (a tag
/// byte, then its field), so a job can resume from the snapshot the
/// worker wrote in its previous answer instead of carrying it.
pub const PROTOCOL: u32 = 5;

/// The largest payload a frame may declare: large enough for any
/// snapshot a workload produces (CPU memory pages dominate), small
/// enough that a corrupt length prefix cannot balloon memory.
pub const MAX_FRAME: usize = 64 << 20;

/// Bytes a frame carries in front of the payload (the `u32` length).
const FRAME_HEADER: usize = 4;

/// The largest transport read [`FrameReader::read_frame`] issues: one
/// pipe buffer.
const READ_CHUNK: usize = 64 << 10;

/// One engine-lane configuration inside a [`Frame::Job`]: a
/// [`Policy`] at a thread-unit count, the wire twin of
/// [`Policy::add_to_grid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneSpec {
    /// The speculation policy.
    pub policy: Policy,
    /// Thread units.
    pub tus: u32,
}

impl LaneSpec {
    /// Checks the invariants `EngineGrid` would otherwise panic on, so
    /// a worker can reject a malformed job with a [`Frame::Error`]
    /// instead of dying.
    pub fn validate(&self) -> Result<(), StreamError> {
        // Route through the grid's single TU-range check so admission
        // control and `EngineGrid`'s lane constructors reject the same
        // input with the same message.
        loopspec_mt::validate_tus(self.tus as usize)
    }

    /// Builds an [`EngineGrid`] with one lane per spec, in order.
    ///
    /// # Errors
    ///
    /// Rejects any lane [`LaneSpec::validate`] rejects.
    pub fn build_grid(lanes: &[LaneSpec]) -> Result<EngineGrid, StreamError> {
        let mut grid = EngineGrid::new();
        for lane in lanes {
            lane.validate()?;
            lane.policy.add_to_grid(&mut grid, lane.tus as usize);
        }
        Ok(grid)
    }

    /// Appends the lane: a family tag (0 IDLE, 1 STR, 2 STR(i)), the
    /// STR(i) limit, then the TU count.
    pub(crate) fn save(&self, enc: &mut Enc) {
        match self.policy {
            Policy::Idle => enc.u8(0),
            Policy::Str => enc.u8(1),
            Policy::StrNested(limit) => {
                enc.u8(2);
                enc.u32(limit);
            }
        }
        enc.u32(self.tus);
    }

    pub(crate) fn load(dec: &mut Dec<'_>) -> Result<Self, SnapError> {
        let policy = match dec.u8()? {
            0 => Policy::Idle,
            1 => Policy::Str,
            2 => Policy::StrNested(dec.u32()?),
            _ => {
                return Err(SnapError::Corrupt {
                    what: "lane spec tag",
                })
            }
        };
        Ok(LaneSpec {
            policy,
            tus: dec.u32()?,
        })
    }
}

/// One shard of one workload's replay — the unit the coordinator's job
/// queue schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// Coordinator-assigned id, echoed in every response frame.
    pub id: u64,
    /// Workload name (`loopspec_workloads::by_name`).
    pub workload: String,
    /// Workload scale.
    pub scale: Scale,
    /// Engine lanes to fan the shard's events into (the sink
    /// configuration — snapshots carry only mutable state, so every
    /// shard of a chain must name the same lanes).
    pub lanes: Vec<LaneSpec>,
    /// Shard index within the chain (0-based; diagnostic).
    pub shard: u32,
    /// Fuel for **this shard** (already clamped by the scheduler).
    pub budget: u64,
    /// Total instruction budget of the whole run — reaching it ends
    /// the stream like a fuel-truncated single pass.
    pub total_fuel: u64,
    /// Force an explicit end-of-stream when the budget is exhausted
    /// (the final slice of a split plan).
    pub last: bool,
    /// Where the shard resumes from.
    pub resume: Resume,
}

/// Where a [`Job`] resumes from: the start of its chain, or its
/// predecessor shard's serialized
/// [`Snapshot`](loopspec_pipeline::Snapshot), carried in the job or
/// held by the worker that wrote it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resume {
    /// The first shard of a chain.
    Start,
    /// The predecessor snapshot, carried in the job (a chain that moves
    /// to another worker, or is requeued after losing one).
    Bytes(Vec<u8>),
    /// The snapshot this worker wrote in its answer to job `job`, which
    /// was its last job.
    Held {
        /// The job whose [`Frame::Snapshot`] answer the worker holds.
        job: u64,
    },
}

impl Resume {
    /// Appends a tag (0 start, 1 bytes, 2 held), then the field.
    fn save(&self, enc: &mut Enc) {
        match self {
            Resume::Start => enc.u8(0),
            Resume::Bytes(bytes) => {
                enc.u8(1);
                enc.bytes(bytes);
            }
            Resume::Held { job } => {
                enc.u8(2);
                enc.u64(*job);
            }
        }
    }

    fn load(dec: &mut Dec<'_>) -> Result<Self, SnapError> {
        Ok(match dec.u8()? {
            0 => Resume::Start,
            1 => Resume::Bytes(dec.bytes()?.to_vec()),
            2 => Resume::Held { job: dec.u64()? },
            _ => {
                return Err(SnapError::Corrupt {
                    what: "job resume tag",
                })
            }
        })
    }
}

/// One lane's final engine report in wire form — a field-for-field,
/// integer-exact copy of [`EngineReport`], so two reports are equal
/// *iff* their encodings are byte-identical. This is the unit the
/// distributed-equivalence check compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneReport {
    /// Policy name (e.g. `"STR"`).
    pub policy: String,
    /// Thread units (`0` = unbounded).
    pub tus: u64,
    /// Committed instructions.
    pub instructions: u64,
    /// Total cycles.
    pub cycles: u64,
    /// The seven speculation counters, in `SpecStats` field order.
    pub spec: [u64; 7],
}

impl LaneReport {
    /// Threads per cycle — same definition as [`EngineReport::tpc`].
    pub fn tpc(&self) -> f64 {
        if self.cycles == 0 {
            1.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    fn save(&self, enc: &mut Enc) {
        save_str(enc, &self.policy);
        enc.u64(self.tus);
        enc.u64(self.instructions);
        enc.u64(self.cycles);
        for v in self.spec {
            enc.u64(v);
        }
    }

    fn load(dec: &mut Dec<'_>) -> Result<Self, SnapError> {
        let policy = load_str(dec)?;
        let tus = dec.u64()?;
        let instructions = dec.u64()?;
        let cycles = dec.u64()?;
        let mut spec = [0u64; 7];
        for v in &mut spec {
            *v = dec.u64()?;
        }
        Ok(LaneReport {
            policy,
            tus,
            instructions,
            cycles,
            spec,
        })
    }
}

impl From<&EngineReport> for LaneReport {
    fn from(r: &EngineReport) -> Self {
        LaneReport {
            policy: r.policy.to_string(),
            tus: r.tus.map_or(0, |t| t as u64),
            instructions: r.instructions,
            cycles: r.cycles,
            spec: [
                r.spec.spec_actions,
                r.spec.threads_spawned,
                r.spec.verified,
                r.spec.squashed_misspec,
                r.spec.squashed_policy,
                r.spec.squashed_stale,
                r.spec.instr_to_outcome_sum,
            ],
        }
    }
}

/// A worker's final answer for one workload chain: the stream ended in
/// its shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// The finishing job's id.
    pub job: u64,
    /// Total instructions of the whole run.
    pub instructions: u64,
    /// One report per lane, in lane order.
    pub lanes: Vec<LaneReport>,
    /// The final grid's full `save_state` bytes — deterministic (equal
    /// state ⇒ equal bytes), so the coordinator's bit-identity check
    /// can compare entire sink states, not just reports.
    pub state: Vec<u8>,
}

impl Report {
    /// Appends the report body — the payload of [`Frame::Report`], and
    /// the blob the replay service's cache seals.
    pub fn save(&self, enc: &mut Enc) {
        enc.u64(self.job);
        enc.u64(self.instructions);
        enc.u64(self.lanes.len() as u64);
        for lane in &self.lanes {
            lane.save(enc);
        }
        enc.bytes(&self.state);
    }

    /// Reads a body written by [`Report::save`].
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncation or a malformed field.
    pub fn load(dec: &mut Dec<'_>) -> Result<Report, SnapError> {
        let job = dec.u64()?;
        let instructions = dec.u64()?;
        // A lane report is at least 88 encoded bytes (string length
        // prefix + ten u64 counters) — a wire-controlled count can
        // never reserve more than ~the frame's size.
        let n = dec.count_elems(88)?;
        let mut lanes = Vec::with_capacity(n);
        for _ in 0..n {
            lanes.push(LaneReport::load(dec)?);
        }
        let state = dec.bytes()?.to_vec();
        Ok(Report {
            job,
            instructions,
            lanes,
            state,
        })
    }

    /// The exact length of [`Report::save`]'s output, so a buffer can
    /// be sized once for a body that carries megabytes of sink state.
    pub fn encoded_len(&self) -> usize {
        let lanes: usize = self.lanes.iter().map(|l| 88 + l.policy.len()).sum();
        32 + lanes + self.state.len()
    }
}

/// The replay service's metrics counters, one flat struct of `u64`s.
/// The service guarantees two invariants at every observation point:
/// `submitted == accepted + rejected` and
/// `accepted == completed + failed + in_flight`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SvcStats {
    /// Jobs submitted through a service client.
    pub submitted: u64,
    /// Jobs admitted past backpressure control.
    pub accepted: u64,
    /// Jobs refused by admission control (queue full).
    pub rejected: u64,
    /// Accepted jobs answered with a report.
    pub completed: u64,
    /// Accepted jobs answered with an error.
    pub failed: u64,
    /// Accepted jobs not yet answered.
    pub in_flight: u64,
    /// Submissions answered straight from the report cache.
    pub cache_hits: u64,
    /// Submissions that had to compute (includes coalesced waiters'
    /// leaders).
    pub cache_misses: u64,
    /// Submissions attached to an already-running identical job
    /// (counted as neither hit nor miss).
    pub coalesced: u64,
    /// Cache entries evicted (capacity pressure or corruption).
    pub evictions: u64,
    /// Jobs waiting for a worker right now.
    pub queue_depth: u64,
    /// Workers currently idle.
    pub workers_idle: u64,
    /// Workers currently running a shard.
    pub workers_busy: u64,
    /// Workers currently dead (lost and not yet replaced).
    pub workers_dead: u64,
    /// Worker processes lost over the service's lifetime.
    pub workers_lost: u64,
    /// Replacement workers spawned over the service's lifetime.
    pub workers_respawned: u64,
    /// Shard jobs dispatched to workers.
    pub jobs_dispatched: u64,
    /// Snapshot bytes that crossed a worker boundary.
    pub handoff_bytes: u64,
}

/// Everything that crosses the coordinator ↔ worker byte stream. See
/// the [module docs](self) for the conversation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Version handshake; sent by the coordinator, echoed by the worker.
    Hello {
        /// Protocol version ([`PROTOCOL`]).
        protocol: u32,
        /// Coordinator-assigned worker id (echoed back verbatim).
        worker: u32,
    },
    /// Run one shard, resuming from the start of its chain, from the
    /// snapshot bytes it carries, or from the snapshot the worker holds
    /// (see [`Resume`]).
    Job(Job),
    /// The shard paused at a checkpoint; bytes for the successor.
    Snapshot {
        /// The paused job's id.
        job: u64,
        /// Cumulative instructions retired so far (lets the scheduler
        /// compute the next budget without decoding the snapshot).
        instructions: u64,
        /// Serialized [`Snapshot`](loopspec_pipeline::Snapshot).
        bytes: Vec<u8>,
    },
    /// The stream ended in this shard; the chain is complete.
    Report(Report),
    /// The job failed deterministically; retrying elsewhere would fail
    /// the same way.
    Error {
        /// The failing job's id (`0` when no job context exists).
        job: u64,
        /// Human-readable cause.
        message: String,
    },
}

pub(crate) fn save_str(enc: &mut Enc, s: &str) {
    enc.bytes(s.as_bytes());
}

fn load_str(dec: &mut Dec<'_>) -> Result<String, SnapError> {
    std::str::from_utf8(dec.bytes()?)
        .map(str::to_owned)
        .map_err(|_| SnapError::Corrupt {
            what: "utf-8 string",
        })
}

pub(crate) fn save_scale(enc: &mut Enc, scale: Scale) {
    enc.u8(match scale {
        Scale::Test => 0,
        Scale::Small => 1,
        Scale::Full => 2,
        Scale::Huge => 3,
    });
}

fn load_scale(dec: &mut Dec<'_>) -> Result<Scale, SnapError> {
    Ok(match dec.u8()? {
        0 => Scale::Test,
        1 => Scale::Small,
        2 => Scale::Full,
        3 => Scale::Huge,
        _ => return Err(SnapError::Corrupt { what: "scale tag" }),
    })
}

impl Frame {
    /// Encodes the frame payload (tag + body); [`write_frame`] puts it
    /// on a stream. The buffer is sized once for the payload plus an
    /// 8-byte trailer, so [`seal`](loopspec_core::snap::seal)ing it
    /// does not reallocate.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Enc::with_capacity(self.size_hint() + FRAME_TRAILER);
        self.encode_into(&mut enc);
        enc.into_bytes()
    }

    /// An upper bound on the encoded payload size for the frames that
    /// carry megabytes (snapshots and sink state); a small guess for
    /// the rest, which grow like any `Vec`.
    fn size_hint(&self) -> usize {
        const SMALL: usize = 64;
        SMALL
            + match self {
                Frame::Job(job) => {
                    let carried = match &job.resume {
                        Resume::Bytes(bytes) => bytes.len(),
                        Resume::Start | Resume::Held { .. } => 0,
                    };
                    job.workload.len() + 9 * job.lanes.len() + carried
                }
                Frame::Snapshot { bytes, .. } => bytes.len(),
                Frame::Report(report) => report.encoded_len(),
                Frame::Error { message, .. } => message.len(),
                _ => 0,
            }
    }

    /// Appends the frame payload to `enc`.
    fn encode_into(&self, enc: &mut Enc) {
        match self {
            Frame::Hello { protocol, worker } => {
                enc.u8(1);
                enc.u32(*protocol);
                enc.u32(*worker);
            }
            Frame::Job(job) => {
                enc.u8(2);
                enc.u64(job.id);
                save_str(enc, &job.workload);
                save_scale(enc, job.scale);
                enc.u64(job.lanes.len() as u64);
                for lane in &job.lanes {
                    lane.save(enc);
                }
                enc.u32(job.shard);
                enc.u64(job.budget);
                enc.u64(job.total_fuel);
                enc.bool(job.last);
                job.resume.save(enc);
            }
            Frame::Snapshot {
                job,
                instructions,
                bytes,
            } => {
                enc.u8(3);
                enc.u64(*job);
                enc.u64(*instructions);
                enc.bytes(bytes);
            }
            Frame::Report(report) => {
                enc.u8(4);
                report.save(enc);
            }
            Frame::Error { job, message } => {
                enc.u8(5);
                enc.u64(*job);
                save_str(enc, message);
            }
        }
    }

    /// Decodes a payload written by [`Frame::encode`].
    ///
    /// # Errors
    ///
    /// [`SnapError`] on a bad tag, truncation, or malformed field.
    pub fn decode(payload: &[u8]) -> Result<Frame, SnapError> {
        let mut dec = Dec::new(payload);
        let frame = match dec.u8()? {
            1 => Frame::Hello {
                protocol: dec.u32()?,
                worker: dec.u32()?,
            },
            2 => {
                let id = dec.u64()?;
                let workload = load_str(&mut dec)?;
                let scale = load_scale(&mut dec)?;
                // A lane spec is at least 5 encoded bytes (tag + tus).
                let n = dec.count_elems(5)?;
                let mut lanes = Vec::with_capacity(n);
                for _ in 0..n {
                    lanes.push(LaneSpec::load(&mut dec)?);
                }
                let shard = dec.u32()?;
                let budget = dec.u64()?;
                let total_fuel = dec.u64()?;
                let last = dec.bool()?;
                let resume = Resume::load(&mut dec)?;
                Frame::Job(Job {
                    id,
                    workload,
                    scale,
                    lanes,
                    shard,
                    budget,
                    total_fuel,
                    last,
                    resume,
                })
            }
            3 => Frame::Snapshot {
                job: dec.u64()?,
                instructions: dec.u64()?,
                bytes: dec.bytes()?.to_vec(),
            },
            4 => Frame::Report(Report::load(&mut dec)?),
            5 => Frame::Error {
                job: dec.u64()?,
                message: load_str(&mut dec)?,
            },
            _ => return Err(SnapError::Corrupt { what: "frame tag" }),
        };
        dec.finish()?;
        Ok(frame)
    }
}

/// Why reading or writing a frame stream failed.
#[derive(Debug)]
pub enum WireError {
    /// The transport failed (broken pipe, reset socket).
    Io(io::Error),
    /// The stream decoded to garbage (bad checksum, bad tag, truncated
    /// field) — framing is lost; drop the connection.
    Codec(SnapError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport error: {e}"),
            WireError::Codec(e) => write!(f, "malformed frame stream: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<SnapError> for WireError {
    fn from(e: SnapError) -> Self {
        WireError::Codec(e)
    }
}

/// Writes one frame (container + payload) and flushes — a frame is a
/// message, and the peer blocks until it arrives whole.
///
/// # Errors
///
/// [`WireError::Io`] on transport failure; [`WireError::Codec`] when
/// the payload exceeds [`MAX_FRAME`] — the receiver would reject it
/// unread, so the send side refuses up front (a *deterministic*
/// failure, distinguishable from a dead peer: a coordinator must fail
/// the job instead of requeueing it into the same wall).
pub fn write_frame(w: &mut impl Write, f: &Frame) -> Result<(), WireError> {
    // The whole frame is encoded into one buffer, sized once for
    // header, payload and trailer: encoding copies the snapshot bytes
    // anyway, and one buffer makes that the only copy and the frame one
    // write.
    let mut enc = Enc::with_capacity(FRAME_HEADER + f.size_hint() + FRAME_TRAILER);
    enc.u32(0);
    f.encode_into(&mut enc);
    let mut frame = enc.into_bytes();
    let len = frame.len() - FRAME_HEADER;
    if len > MAX_FRAME {
        return Err(WireError::Codec(SnapError::Corrupt {
            what: "frame length",
        }));
    }
    frame[..FRAME_HEADER].copy_from_slice(&(len as u32).to_le_bytes());
    let sum = checksum(&frame[FRAME_HEADER..]);
    frame.extend_from_slice(&sum.to_le_bytes());
    w.write_all(&frame)?;
    w.flush()?;
    // Out-of-band transport telemetry (payload + trailer); once per
    // frame, never on the retirement path.
    loopspec_obs::counter("dist_frame_bytes_out").add(len as u64 + 8);
    Ok(())
}

/// Blocking frame reader over any [`Read`] transport, returning one
/// decoded [`Frame`] at a time.
///
/// No read asks for more than the rest of the current frame, so the
/// reader keeps no bytes between frames: several readers may take
/// turns on one stream.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
}

impl<R: Read> FrameReader<R> {
    /// A reader over `inner` accepting frames up to [`MAX_FRAME`].
    pub fn new(inner: R) -> Self {
        FrameReader { inner }
    }

    /// Reads one whole frame and returns it; `None` on a clean
    /// end-of-stream (the peer closed between frames).
    ///
    /// The payload and trailer land straight in the frame's own buffer,
    /// in reads of at most 64 KiB that take whatever the transport has
    /// ready. The buffer grows by doubling as the bytes arrive, never
    /// past the declared frame.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] on transport failure — including an EOF that
    /// cuts a frame, or its header, short — and [`WireError::Codec`]
    /// when the declared length exceeds [`MAX_FRAME`], the checksum
    /// does not match or the payload decodes to garbage.
    pub fn read_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let mut head = [0u8; FRAME_HEADER];
        let first = read_some(&mut self.inner, &mut head)?;
        if first == 0 {
            return Ok(None);
        }
        self.inner.read_exact(&mut head[first..])?;
        let len = u32::from_le_bytes(head) as usize;
        if len > MAX_FRAME {
            return Err(WireError::Codec(SnapError::Corrupt {
                what: "frame length",
            }));
        }
        let frame = len + FRAME_TRAILER;
        // `body[..rcvd]` has arrived; the rest is initialized room for
        // the next read. Each read takes what the transport has ready:
        // filling whole chunks with `read_exact` adds a second, blocking
        // read whenever the writer trails the reader.
        let mut body = Vec::new();
        let mut rcvd = 0;
        while rcvd < frame {
            let need = (rcvd + READ_CHUNK).min(frame);
            if need > body.len() {
                if need > body.capacity() {
                    let cap = (body.capacity() * 2).max(need).min(frame);
                    body.reserve_exact(cap - body.len());
                }
                body.resize(need, 0);
            }
            match read_some(&mut self.inner, &mut body[rcvd..need])? {
                0 => {
                    return Err(WireError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "stream ended mid-frame",
                    )))
                }
                got => rcvd += got,
            }
        }
        let trailer = u64::from_le_bytes(body[len..].try_into().expect("8 bytes"));
        if checksum(&body[..len]) != trailer {
            return Err(WireError::Codec(SnapError::Corrupt {
                what: "frame checksum",
            }));
        }
        loopspec_obs::counter("dist_frame_bytes_in").add(frame as u64);
        body.truncate(len);
        Ok(Some(Frame::decode(&body)?))
    }
}

/// One `read`, retried while it is interrupted.
fn read_some(r: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    loop {
        match r.read(buf) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            got => return got,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Frame> {
        vec![
            Frame::Hello {
                protocol: PROTOCOL,
                worker: 7,
            },
            Frame::Job(Job {
                id: 42,
                workload: "compress".into(),
                scale: Scale::Test,
                lanes: vec![
                    LaneSpec {
                        policy: Policy::Idle,
                        tus: 4,
                    },
                    LaneSpec {
                        policy: Policy::Str,
                        tus: 8,
                    },
                    LaneSpec {
                        policy: Policy::StrNested(3),
                        tus: 2,
                    },
                ],
                shard: 2,
                budget: 25_000,
                total_fuel: 100_000_000,
                last: false,
                resume: Resume::Bytes(vec![9, 8, 7]),
            }),
            Frame::Job(Job {
                id: 43,
                workload: "go".into(),
                scale: Scale::Full,
                lanes: vec![],
                shard: 0,
                budget: 1,
                total_fuel: 1,
                last: true,
                resume: Resume::Start,
            }),
            Frame::Job(Job {
                id: 44,
                workload: "li".into(),
                scale: Scale::Small,
                lanes: vec![LaneSpec {
                    policy: Policy::Str,
                    tus: 16,
                }],
                shard: 5,
                budget: 25_000,
                total_fuel: 100_000_000,
                last: false,
                resume: Resume::Held { job: 43 },
            }),
            Frame::Snapshot {
                job: 42,
                instructions: 50_000,
                bytes: vec![1; 300],
            },
            Frame::Report(Report {
                job: 42,
                instructions: 123_456,
                lanes: vec![LaneReport {
                    policy: "STR".into(),
                    tus: 4,
                    instructions: 123_456,
                    cycles: 45_678,
                    spec: [1, 2, 3, 4, 5, 6, 7],
                }],
                state: vec![0xaa; 64],
            }),
            Frame::Error {
                job: 9,
                message: "unknown workload 'specmark'".into(),
            },
        ]
    }

    #[test]
    fn every_frame_round_trips() {
        for f in samples() {
            let payload = f.encode();
            assert_eq!(Frame::decode(&payload).unwrap(), f);
            // Encoding is deterministic.
            assert_eq!(payload, f.encode());
            // Sealing the payload appends its trailer in place.
            assert!(payload.capacity() >= payload.len() + FRAME_TRAILER, "{f:?}");
            // A report body's length is known before it is written.
            if let Frame::Report(report) = &f {
                assert_eq!(payload.len(), 1 + report.encoded_len());
            }
        }
    }

    #[test]
    fn truncated_payloads_error_instead_of_panicking() {
        for f in samples() {
            let payload = f.encode();
            for cut in 0..payload.len() {
                assert!(
                    Frame::decode(&payload[..cut]).is_err(),
                    "{f:?} cut at {cut} must not decode"
                );
            }
        }
    }

    /// Hostile bytes never panic the decoder: every single-bit flip of
    /// every sample payload, and a `u64::MAX` written over the 8 bytes
    /// at every offset — all lengths and counts are fixed 8-byte
    /// `u64`s, so this hits each prefix with the largest value it can
    /// hold. Any outcome but a panic (or an oversized allocation) is
    /// fine.
    #[test]
    fn hostile_payloads_decode_or_error_without_panicking() {
        for f in samples() {
            let payload = f.encode();
            for bit in 0..payload.len() * 8 {
                let mut p = payload.clone();
                p[bit / 8] ^= 1 << (bit % 8);
                let _ = Frame::decode(&p);
            }
            for at in 0..payload.len() {
                let mut p = payload.clone();
                let end = (at + 8).min(p.len());
                p[at..end].fill(0xff);
                let _ = Frame::decode(&p);
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = samples()[0].encode();
        payload.push(0);
        assert_eq!(
            Frame::decode(&payload),
            Err(SnapError::Trailing { bytes: 1 })
        );
    }

    /// Unknown tags — including 0 and the retired service tags 6–10 —
    /// are refused as corrupt, not read as a truncated body.
    #[test]
    fn bad_tags_are_corrupt() {
        for tag in [0, 6, 7, 8, 9, 10, 0xee] {
            assert_eq!(
                Frame::decode(&[tag]),
                Err(SnapError::Corrupt { what: "frame tag" }),
                "tag {tag}"
            );
        }
        // A held job ends in its resume tag and the 8-byte held job id.
        let sample = &samples()[3];
        assert!(matches!(sample, Frame::Job(j) if j.resume == Resume::Held { job: 43 }));
        let mut held = sample.encode();
        let tag = held.len() - 9;
        assert_eq!(held[tag], 2);
        for bad in [3, 0xff] {
            held[tag] = bad;
            assert_eq!(
                Frame::decode(&held),
                Err(SnapError::Corrupt {
                    what: "job resume tag"
                }),
                "resume tag {bad}"
            );
        }
    }

    /// `frames` written back to back, as one stream.
    fn stream_of(frames: &[Frame]) -> Vec<u8> {
        let mut stream = Vec::new();
        for f in frames {
            write_frame(&mut stream, f).unwrap();
        }
        stream
    }

    /// A transport that delivers at most `max` bytes per read.
    struct Trickle<'a> {
        bytes: &'a [u8],
        max: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.max.min(out.len()).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Reads frames until a clean end of stream.
    fn read_all(reader: &mut FrameReader<impl Read>) -> Vec<Frame> {
        std::iter::from_fn(|| reader.read_frame().unwrap()).collect()
    }

    #[test]
    fn frames_cross_a_stream() {
        // A frame several 64 KiB reads long beside the small ones.
        let mut frames = samples();
        frames.push(Frame::Snapshot {
            job: 44,
            instructions: 75_000,
            bytes: vec![0x5a; 200_000],
        });
        let wire = stream_of(&frames);
        for max in [1, 5, 4096, READ_CHUNK, usize::MAX] {
            let mut reader = FrameReader::new(Trickle { bytes: &wire, max });
            assert_eq!(read_all(&mut reader), frames, "max {max}");
        }
        // Every two-piece split of the small frames' stream.
        let frames = samples();
        let wire = stream_of(&frames);
        for split in 0..wire.len() {
            let mut reader = FrameReader::new(wire[..split].chain(&wire[split..]));
            assert_eq!(read_all(&mut reader), frames, "split {split}");
        }
    }

    #[test]
    fn a_fresh_reader_per_frame_reads_every_frame_of_one_stream() {
        // No reader takes bytes of the frame after its own.
        let wire = stream_of(&samples());
        let mut src = &wire[..];
        for f in samples() {
            assert_eq!(FrameReader::new(&mut src).read_frame().unwrap(), Some(f));
        }
        assert!(src.is_empty());
    }

    #[test]
    fn every_cut_mid_frame_is_an_unexpected_eof() {
        let wire = stream_of(&samples()[..1]);
        assert!(FrameReader::new(&wire[..0]).read_frame().unwrap().is_none());
        for cut in 1..wire.len() {
            assert!(
                matches!(
                    FrameReader::new(&wire[..cut]).read_frame(),
                    Err(WireError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof
                ),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn every_flipped_bit_after_the_header_fails_the_checksum() {
        let wire = stream_of(&samples()[..1]);
        for bit in FRAME_HEADER * 8..wire.len() * 8 {
            let mut bad = wire.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(
                matches!(
                    FrameReader::new(&bad[..]).read_frame(),
                    Err(WireError::Codec(SnapError::Corrupt {
                        what: "frame checksum"
                    }))
                ),
                "bit {bit}"
            );
        }
    }

    #[test]
    fn oversized_lengths_are_refused_before_the_payload_is_read() {
        // A hostile length prefix must fail at the header, not wait for
        // (or reserve) 4 GiB.
        for len in [u32::MAX, MAX_FRAME as u32 + 1] {
            let mut wire = len.to_le_bytes().to_vec();
            wire.extend_from_slice(&[1, 2, 3]);
            let mut src = &wire[..];
            assert!(matches!(
                FrameReader::new(&mut src).read_frame(),
                Err(WireError::Codec(SnapError::Corrupt {
                    what: "frame length"
                }))
            ));
            assert_eq!(src, [1, 2, 3], "length {len}: nothing past the header read");
        }
    }

    #[test]
    fn oversized_payloads_are_refused_at_the_send_side() {
        // A reply the receiver would reject unread must fail on write
        // as a *codec* error (deterministic), not reach the stream.
        let huge = Frame::Snapshot {
            job: 1,
            instructions: 0,
            bytes: vec![0u8; MAX_FRAME],
        };
        let mut stream = Vec::new();
        assert!(matches!(
            write_frame(&mut stream, &huge),
            Err(WireError::Codec(SnapError::Corrupt {
                what: "frame length"
            }))
        ));
        assert!(stream.is_empty(), "nothing half-written");
    }

    #[test]
    fn lane_spec_validation_and_grid_building() {
        assert!(LaneSpec {
            policy: Policy::Str,
            tus: 4
        }
        .validate()
        .is_ok());
        assert!(LaneSpec {
            policy: Policy::Str,
            tus: 1
        }
        .validate()
        .is_err());
        assert!(LaneSpec {
            policy: Policy::Idle,
            tus: 5000
        }
        .validate()
        .is_err());
        let grid = LaneSpec::build_grid(&[
            LaneSpec {
                policy: Policy::Idle,
                tus: 4,
            },
            LaneSpec {
                policy: Policy::StrNested(2),
                tus: 4,
            },
        ])
        .unwrap();
        assert_eq!(grid.len(), 2);
        assert!(LaneSpec::build_grid(&[LaneSpec {
            policy: Policy::Str,
            tus: 0
        }])
        .is_err());
    }

    #[test]
    fn lane_report_mirrors_engine_report() {
        let report = LaneReport {
            policy: "IDLE".into(),
            tus: 0,
            instructions: 10,
            cycles: 0,
            spec: [0; 7],
        };
        assert_eq!(report.tpc(), 1.0);
    }

    #[test]
    fn errors_display_their_cause() {
        let io: WireError = io::Error::new(io::ErrorKind::BrokenPipe, "gone").into();
        assert!(io.to_string().contains("transport"));
        let codec: WireError = SnapError::Corrupt { what: "frame tag" }.into();
        assert!(codec.to_string().contains("malformed"));
    }
}
