//! Checkpointable state: the [`SnapshotState`] trait and the
//! [`LoopEvent`] wire codec.
//!
//! The CLS and everything downstream of it are small state machines
//! driven one retired instruction at a time, so their exact state at any
//! retirement boundary fits in a handful of bytes. Types that can be
//! captured and restored implement [`SnapshotState`]; the streaming
//! `Session` (in `loopspec-pipeline`) composes those sections — CPU
//! cursor, detector, registered sinks — into one process-portable
//! snapshot.
//!
//! ## Invariants every implementation upholds
//!
//! * **Determinism** — equal state produces equal bytes (unordered
//!   containers are written in sorted order), so snapshot bytes can be
//!   compared, hashed and deduplicated.
//! * **Mutable state only** — configuration that the owner re-creates
//!   (policy kind, TU count, table capacity) is *echoed* and verified
//!   on load ([`SnapError::Mismatch`]) rather than blindly restored, so
//!   a snapshot can never silently turn one experiment into another.
//! * **Exactness** — `save_state` then `load_state` into a freshly
//!   configured twin reproduces *bit-identical* downstream results; the
//!   `checkpoint_resume` and `sharded_equivalence` suites at the repo
//!   root enforce this end to end.
//!
//! The byte codec itself ([`Enc`], [`Dec`], the [`checksum`] trailer,
//! [`seal`]/[`unseal`]) is re-exported from `loopspec_isa::snap`. The
//! stream frame container is not: `loopspec_dist::wire` is its one
//! writer and its one reader.

pub use loopspec_isa::snap::{
    checksum, fnv1a, fnv1a_update, seal, unseal, Dec, Enc, SnapError, FNV1A_INIT, FRAME_TRAILER,
};

use crate::{LoopEvent, LoopId};
use loopspec_isa::Addr;

/// A type whose mutable state can be serialized into a snapshot section
/// and restored into a same-configured instance.
///
/// See the [module docs](self) for the invariants. `load_state` reads
/// exactly the bytes `save_state` wrote, so sections compose by simple
/// concatenation.
pub trait SnapshotState {
    /// Appends this object's state to `out`.
    fn save_state(&self, out: &mut Enc);

    /// Restores state written by [`save_state`](SnapshotState::save_state).
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncated/corrupt input or when the snapshot was
    /// taken from a differently configured object. State is unspecified
    /// (but memory-safe) after an error.
    fn load_state(&mut self, src: &mut Dec<'_>) -> Result<(), SnapError>;
}

impl<S: SnapshotState + ?Sized> SnapshotState for Box<S> {
    fn save_state(&self, out: &mut Enc) {
        (**self).save_state(out);
    }

    fn load_state(&mut self, src: &mut Dec<'_>) -> Result<(), SnapError> {
        (**self).load_state(src)
    }
}

const EV_EXEC_START: u8 = 0;
const EV_ITER_START: u8 = 1;
const EV_EXEC_END: u8 = 2;
const EV_EVICTED: u8 = 3;
const EV_ONE_SHOT: u8 = 4;

/// Appends one [`LoopEvent`] to `out` (tag byte + fields).
pub fn write_event(out: &mut Enc, ev: &LoopEvent) {
    match *ev {
        LoopEvent::ExecutionStart {
            loop_id,
            pos,
            depth,
        } => {
            out.u8(EV_EXEC_START);
            out.u32(loop_id.0.index());
            out.u64(pos);
            out.u32(depth);
        }
        LoopEvent::IterationStart { loop_id, iter, pos } => {
            out.u8(EV_ITER_START);
            out.u32(loop_id.0.index());
            out.u64(pos);
            out.u32(iter);
        }
        LoopEvent::ExecutionEnd {
            loop_id,
            iterations,
            pos,
        } => {
            out.u8(EV_EXEC_END);
            out.u32(loop_id.0.index());
            out.u64(pos);
            out.u32(iterations);
        }
        LoopEvent::Evicted {
            loop_id,
            iterations,
            pos,
        } => {
            out.u8(EV_EVICTED);
            out.u32(loop_id.0.index());
            out.u64(pos);
            out.u32(iterations);
        }
        LoopEvent::OneShot {
            loop_id,
            pos,
            depth,
        } => {
            out.u8(EV_ONE_SHOT);
            out.u32(loop_id.0.index());
            out.u64(pos);
            out.u32(depth);
        }
    }
}

/// Reads one [`LoopEvent`] written by [`write_event`].
///
/// # Errors
///
/// [`SnapError`] on truncated input or an unknown tag.
pub fn read_event(src: &mut Dec<'_>) -> Result<LoopEvent, SnapError> {
    let tag = src.u8()?;
    let loop_id = LoopId(Addr::new(src.u32()?));
    let pos = src.u64()?;
    let arg = src.u32()?;
    Ok(match tag {
        EV_EXEC_START => LoopEvent::ExecutionStart {
            loop_id,
            pos,
            depth: arg,
        },
        EV_ITER_START => LoopEvent::IterationStart {
            loop_id,
            iter: arg,
            pos,
        },
        EV_EXEC_END => LoopEvent::ExecutionEnd {
            loop_id,
            iterations: arg,
            pos,
        },
        EV_EVICTED => LoopEvent::Evicted {
            loop_id,
            iterations: arg,
            pos,
        },
        EV_ONE_SHOT => LoopEvent::OneShot {
            loop_id,
            pos,
            depth: arg,
        },
        _ => {
            return Err(SnapError::Corrupt {
                what: "loop event tag",
            })
        }
    })
}

/// Appends a length-prefixed event sequence.
pub fn write_events(out: &mut Enc, events: &[LoopEvent]) {
    out.u64(events.len() as u64);
    for ev in events {
        write_event(out, ev);
    }
}

/// Reads an event sequence written by [`write_events`].
///
/// # Errors
///
/// [`SnapError`] on truncated/corrupt input.
pub fn read_events(src: &mut Dec<'_>) -> Result<Vec<LoopEvent>, SnapError> {
    // Every event encodes to exactly 17 bytes (tag + id + pos + arg);
    // sizing the count check to that keeps a corrupt count from
    // reserving 17x the input in `LoopEvent`s.
    let n = src.count_elems(17)?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        events.push(read_event(src)?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u32) -> LoopId {
        LoopId(Addr::new(n))
    }

    #[test]
    fn every_event_variant_round_trips() {
        let events = vec![
            LoopEvent::ExecutionStart {
                loop_id: id(1),
                pos: 10,
                depth: 2,
            },
            LoopEvent::IterationStart {
                loop_id: id(1),
                iter: 3,
                pos: 20,
            },
            LoopEvent::ExecutionEnd {
                loop_id: id(1),
                iterations: 7,
                pos: 30,
            },
            LoopEvent::Evicted {
                loop_id: id(9),
                iterations: 2,
                pos: 40,
            },
            LoopEvent::OneShot {
                loop_id: id(5),
                pos: 50,
                depth: 1,
            },
        ];
        let mut enc = Enc::new();
        write_events(&mut enc, &events);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert_eq!(read_events(&mut dec).unwrap(), events);
        dec.finish().unwrap();
    }

    #[test]
    fn unknown_tag_is_corrupt() {
        let mut enc = Enc::new();
        enc.u8(99);
        enc.u32(0);
        enc.u64(0);
        enc.u32(0);
        let bytes = enc.into_bytes();
        assert_eq!(
            read_event(&mut Dec::new(&bytes)),
            Err(SnapError::Corrupt {
                what: "loop event tag"
            })
        );
    }
}
