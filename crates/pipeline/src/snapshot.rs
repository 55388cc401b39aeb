//! Process-portable session snapshots.
//!
//! A [`Snapshot`] captures everything a
//! [`Session`](crate::Session) needs to continue a run at a
//! retired-instruction boundary:
//!
//! * the **CPU cursor** — pc, register files, retired count, and the
//!   materialised data-memory pages;
//! * the **detector** — the CLS entries (loop table) *and* the
//!   not-yet-delivered event chunk (a checkpoint may land mid-chunk;
//!   the buffered events travel with the snapshot so loop sinks receive
//!   them after resume exactly as they would have uninterrupted);
//! * one section per registered **checkpointable sink** — e.g. an
//!   [`EngineGrid`](loopspec_mt::EngineGrid)'s annotation state and
//!   shared queue plus per-lane engine-core state.
//!
//! What a snapshot deliberately does **not** contain: the program (the
//! caller re-provides it — a snapshot is only meaningful against the
//! program it was taken from), sink *configuration* (policies, TU
//! counts, CLS capacity — reconstructed by the caller and verified via
//! configuration echoes), and per-instruction transients (a checkpoint
//! only lands between retirements, where none exist).
//!
//! [`Snapshot::to_bytes`] / [`Snapshot::from_bytes`] give a
//! deterministic, checksummed, std-only byte form, so snapshots can be
//! written to disk, shipped to another worker process, and compared
//! byte-for-byte (equal state ⇒ equal bytes).

use std::fmt;

use loopspec_core::snap::{checksum, Dec, Enc, SnapError, FRAME_TRAILER};
use loopspec_core::{LoopEventSink, SnapshotState};
use loopspec_cpu::CpuError;

/// A sink that can be checkpointed by a [`Session`](crate::Session):
/// any [`LoopEventSink`] that also implements
/// [`SnapshotState`]. Blanket-implemented — implementing the two base
/// traits is enough.
///
/// In-tree implementors include
/// [`EngineGrid`](loopspec_mt::EngineGrid),
/// [`IterationCountLog`](loopspec_mt::IterationCountLog),
/// [`EventCollector`](loopspec_core::EventCollector) and
/// [`LoopStats`](loopspec_core::LoopStats).
pub trait CheckpointSink: LoopEventSink + SnapshotState {}

impl<T: LoopEventSink + SnapshotState + ?Sized> CheckpointSink for T {}

/// Why a session operation failed: the one error type shared by every
/// [`Session`](crate::Session) entry point
/// (`run`/`advance`/`checkpoint`/`resume`) and the sharded drivers
/// built on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// A snapshot section failed to decode (truncated, corrupt, or
    /// taken from a differently configured object).
    Codec(SnapError),
    /// The CPU faulted while executing a session segment.
    Cpu(CpuError),
    /// The session's stream has already ended — there is nothing left
    /// to checkpoint.
    StreamEnded,
    /// [`Session::resume`](crate::Session::resume) was called on a
    /// session that has already executed instructions.
    AlreadyStarted,
    /// A registered sink was not checkpointable (registered via
    /// [`observe_loops`](crate::Session::observe_loops) instead of
    /// [`observe_checkpointable`](crate::Session::observe_checkpointable)).
    NotCheckpointable,
    /// The snapshot holds a different number of sink sections than the
    /// session has checkpointable sinks registered.
    SinkCountMismatch {
        /// Sink sections in the snapshot.
        snapshot: usize,
        /// Checkpointable sinks registered in the session.
        session: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Codec(e) => write!(f, "snapshot codec error: {e}"),
            SnapshotError::Cpu(e) => write!(f, "cpu fault during session segment: {e}"),
            SnapshotError::StreamEnded => {
                write!(f, "the session's stream has already ended")
            }
            SnapshotError::AlreadyStarted => {
                write!(f, "resume requires a session that has not run yet")
            }
            SnapshotError::NotCheckpointable => write!(
                f,
                "every sink must be registered with observe_checkpointable"
            ),
            SnapshotError::SinkCountMismatch { snapshot, session } => write!(
                f,
                "snapshot has {snapshot} sink sections, session has {session} \
                 checkpointable sinks"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<SnapError> for SnapshotError {
    fn from(e: SnapError) -> Self {
        SnapshotError::Codec(e)
    }
}

impl From<CpuError> for SnapshotError {
    fn from(e: CpuError) -> Self {
        SnapshotError::Cpu(e)
    }
}

/// A point-in-time capture of a [`Session`](crate::Session) at a
/// retired-instruction boundary. The module-level comments above
/// describe what is (and deliberately is not) inside.
///
/// Obtained from [`Session::checkpoint`](crate::Session::checkpoint);
/// consumed by [`Session::resume`](crate::Session::resume). Use
/// [`to_bytes`](Snapshot::to_bytes) /
/// [`from_bytes`](Snapshot::from_bytes) to cross a process boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    pub(crate) started: bool,
    pub(crate) instructions: u64,
    pub(crate) cpu: Vec<u8>,
    pub(crate) detector: Vec<u8>,
    pub(crate) sinks: Vec<Vec<u8>>,
}

/// Container magic: `LSNP` (loopspec snapshot).
const MAGIC: u32 = 0x4c53_4e50;
/// Container format version. v2: streaming-engine sink state gained the
/// oracle-feed fingerprint echo, so v1 checkpoints no longer decode —
/// reject them cleanly here instead of misparsing the sink bytes.
/// v3: the CPU cursor section grew a kernel pause cursor and the
/// container gained a kernel-registry echo (ids + body fingerprints),
/// so a checkpoint taken mid-`KernelCall` resumes only against the
/// same registered kernel bodies; v2 containers are rejected cleanly.
/// v4: the trailer is the XXH64 integrity [`checksum`] instead of
/// FNV-1a; the magic and version words are read before the trailer is
/// verified, so a v3 container is refused as a version mismatch.
const VERSION: u32 = 4;

impl Snapshot {
    /// Stream position of the checkpoint: instructions retired before
    /// it. Resuming continues with instruction `instructions() + 1`.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Number of per-sink state sections (one per checkpointable sink
    /// registered when the checkpoint was taken; a resuming session
    /// must register the same number, in the same order).
    pub fn sink_sections(&self) -> usize {
        self.sinks.len()
    }

    /// Serializes the snapshot into a self-contained, checksummed byte
    /// container. The encoding is deterministic: checkpointing equal
    /// state twice yields equal bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        // Sized once, trailer included: the CPU pages make this
        // megabytes, and a doubling for the last 8 bytes would copy
        // them all again.
        let sections = [&self.cpu, &self.detector]
            .into_iter()
            .chain(&self.sinks)
            .map(|s| 8 + s.len())
            .sum::<usize>();
        let mut enc = Enc::with_capacity(
            8 + loopspec_isa::kernel::state_len() + 1 + 8 + sections + 8 + FRAME_TRAILER,
        );
        enc.u32(MAGIC);
        enc.u32(VERSION);
        // Registry echo: a snapshot taken mid-kernel references body
        // instructions by (id, body pc) only, so decode refuses to
        // resume against a registry whose bodies differ.
        loopspec_isa::kernel::save_state(&mut enc);
        enc.bool(self.started);
        enc.u64(self.instructions);
        enc.bytes(&self.cpu);
        enc.bytes(&self.detector);
        enc.u64(self.sinks.len() as u64);
        for s in &self.sinks {
            enc.bytes(s);
        }
        let sum = checksum(enc.as_slice());
        enc.u64(sum);
        enc.into_bytes()
    }

    /// Decodes a container written by [`Snapshot::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Codec`] when the magic, version or checksum do
    /// not match, or the container is truncated/corrupt. Magic and
    /// version are compared first, so a container of another version
    /// (whose trailer is another hash) is refused as a version
    /// mismatch; no section byte is decoded before the trailer
    /// verifies.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        if bytes.len() < FRAME_TRAILER {
            return Err(SnapError::Truncated { at: 0 }.into());
        }
        let (payload, sum) = bytes.split_at(bytes.len() - FRAME_TRAILER);
        let mut dec = Dec::new(payload);
        if dec.u32()? != MAGIC {
            return Err(SnapError::Corrupt {
                what: "snapshot magic",
            }
            .into());
        }
        if dec.u32()? != VERSION {
            return Err(SnapError::Mismatch {
                what: "snapshot version",
            }
            .into());
        }
        let expect = u64::from_le_bytes(sum.try_into().expect("8 bytes"));
        if checksum(payload) != expect {
            return Err(SnapError::Corrupt {
                what: "snapshot checksum",
            }
            .into());
        }
        loopspec_isa::kernel::check_state(&mut dec)?;
        let started = dec.bool()?;
        let instructions = dec.u64()?;
        let cpu = dec.bytes()?.to_vec();
        let detector = dec.bytes()?.to_vec();
        // Each sink section carries at least its 8-byte length prefix.
        let n = dec.count_elems(8)?;
        let mut sinks = Vec::with_capacity(n);
        for _ in 0..n {
            sinks.push(dec.bytes()?.to_vec());
        }
        dec.finish()?;
        Ok(Snapshot {
            started,
            instructions,
            cpu,
            detector,
            sinks,
        })
    }

    /// Writes one section with `save` and stores it.
    pub(crate) fn section(save: impl FnOnce(&mut Enc)) -> Vec<u8> {
        let mut enc = Enc::new();
        save(&mut enc);
        enc.into_bytes()
    }

    /// Decodes one section with `load`, requiring it to consume the
    /// section exactly.
    pub(crate) fn load_section(
        bytes: &[u8],
        load: impl FnOnce(&mut Dec<'_>) -> Result<(), SnapError>,
    ) -> Result<(), SnapshotError> {
        let mut dec = Dec::new(bytes);
        load(&mut dec)?;
        dec.finish()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            started: true,
            instructions: 12345,
            cpu: vec![1, 2, 3],
            detector: vec![4, 5],
            sinks: vec![vec![6], vec![], vec![7, 8, 9]],
        }
    }

    #[test]
    fn container_round_trips_and_is_deterministic() {
        let snap = sample();
        let bytes = snap.to_bytes();
        assert_eq!(bytes, snap.to_bytes(), "deterministic encoding");
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.instructions(), 12345);
        assert_eq!(back.sink_sections(), 3);
    }

    #[test]
    fn corruption_and_truncation_are_detected() {
        let mut bytes = sample().to_bytes();
        assert!(Snapshot::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(Snapshot::from_bytes(&bytes[..4]).is_err());
        bytes[10] ^= 0xff;
        assert_eq!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::Codec(SnapError::Corrupt {
                what: "snapshot checksum"
            }))
        );
    }

    #[test]
    fn one_flipped_trailer_bit_fails_the_checksum() {
        let bytes = sample().to_bytes();
        let trailer = bytes.len() - FRAME_TRAILER;
        for bit in 0..FRAME_TRAILER * 8 {
            let mut bad = bytes.clone();
            bad[trailer + bit / 8] ^= 1 << (bit % 8);
            assert_eq!(
                Snapshot::from_bytes(&bad),
                Err(SnapshotError::Codec(SnapError::Corrupt {
                    what: "snapshot checksum"
                })),
                "trailer bit {bit}"
            );
        }
    }

    #[test]
    fn container_buffer_is_sized_once() {
        let bytes = sample().to_bytes();
        assert_eq!(bytes.capacity(), bytes.len());
    }

    #[test]
    fn wrong_magic_is_rejected_even_with_valid_checksum() {
        let mut enc = Enc::new();
        enc.u32(0x1234_5678);
        let sum = checksum(enc.as_slice());
        enc.u64(sum);
        let bytes = enc.into_bytes();
        assert_eq!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::Codec(SnapError::Corrupt {
                what: "snapshot magic"
            }))
        );
    }

    #[test]
    fn errors_display_their_cause() {
        for (e, needle) in [
            (SnapshotError::StreamEnded, "ended"),
            (SnapshotError::AlreadyStarted, "has not run"),
            (SnapshotError::NotCheckpointable, "observe_checkpointable"),
            (
                SnapshotError::SinkCountMismatch {
                    snapshot: 2,
                    session: 3,
                },
                "2 sink sections",
            ),
            (
                SnapshotError::Codec(SnapError::Truncated { at: 0 }),
                "codec",
            ),
            (
                SnapshotError::Cpu(CpuError::MemoryLimit { pages: 1 }),
                "cpu fault",
            ),
        ] {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }
}
