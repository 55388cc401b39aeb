//! The workspace-wide error type.
//!
//! Every layer of the stack has its own precise error enum — assembly
//! ([`AsmError`]), execution ([`CpuError`]), codecs ([`SnapError`]),
//! sessions ([`SnapshotError`]), engine-grid lanes ([`StreamError`]),
//! the wire protocol ([`WireError`]), distributed runs ([`DistError`]),
//! and the replay service ([`SvcError`]). Application code that drives
//! several layers at once used to juggle all of them; [`enum@Error`]
//! absorbs each via `From`, so `?` works across the whole workspace:
//!
//! ```
//! use loopspec::prelude::*;
//!
//! fn assemble_and_run() -> Result<u64, loopspec::Error> {
//!     let mut b = ProgramBuilder::new();
//!     b.counted_loop(10, |b, _i| b.work(5));
//!     let program = b.finish()?; // AsmError
//!     let mut stats = LoopStats::new();
//!     let mut session = Session::new();
//!     session.observe_loops(&mut stats);
//!     let out = session.run(&program, RunLimits::default())?; // SnapshotError
//!     Ok(out.instructions)
//! }
//! assert!(assemble_and_run().unwrap() > 0);
//! ```

use std::fmt;

use loopspec_asm::AsmError;
use loopspec_core::snap::SnapError;
use loopspec_cpu::CpuError;
use loopspec_dist::{DistError, JobError, WireError};
use loopspec_mt::StreamError;
use loopspec_pipeline::SnapshotError;
use loopspec_svc::SvcError;

/// Any failure the workspace can produce, one layer per variant: each
/// layer's precise error converts in via `From`, so `?` works across
/// assembly, execution, codecs, sessions, streaming, the wire
/// protocol, distributed runs, and the replay service at once.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// Program assembly failed.
    Asm(AsmError),
    /// The simulated CPU faulted.
    Cpu(CpuError),
    /// A byte codec rejected its input (snapshot, frame, cache entry).
    Codec(SnapError),
    /// A streaming session failed (run, advance, checkpoint, resume).
    Session(SnapshotError),
    /// An engine-grid lane was misconfigured (TU count out of range).
    Stream(StreamError),
    /// A frame transport failed or decoded to garbage.
    Wire(WireError),
    /// A distributed run failed.
    Dist(DistError),
    /// The replay service refused or failed a job.
    Svc(SvcError),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Asm(e) => write!(f, "assembly: {e}"),
            Error::Cpu(e) => write!(f, "cpu: {e}"),
            Error::Codec(e) => write!(f, "codec: {e}"),
            Error::Session(e) => write!(f, "session: {e}"),
            Error::Stream(e) => write!(f, "stream: {e}"),
            Error::Wire(e) => write!(f, "wire: {e}"),
            Error::Dist(e) => write!(f, "distributed run: {e}"),
            Error::Svc(e) => write!(f, "replay service: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Asm(e) => Some(e),
            Error::Cpu(e) => Some(e),
            Error::Codec(e) => Some(e),
            Error::Session(e) => Some(e),
            Error::Stream(e) => Some(e),
            Error::Wire(e) => Some(e),
            Error::Dist(e) => Some(e),
            Error::Svc(e) => Some(e),
        }
    }
}

impl From<AsmError> for Error {
    fn from(e: AsmError) -> Self {
        Error::Asm(e)
    }
}

impl From<CpuError> for Error {
    fn from(e: CpuError) -> Self {
        Error::Cpu(e)
    }
}

impl From<SnapError> for Error {
    fn from(e: SnapError) -> Self {
        Error::Codec(e)
    }
}

impl From<SnapshotError> for Error {
    fn from(e: SnapshotError) -> Self {
        Error::Session(e)
    }
}

impl From<StreamError> for Error {
    fn from(e: StreamError) -> Self {
        Error::Stream(e)
    }
}

impl From<WireError> for Error {
    fn from(e: WireError) -> Self {
        Error::Wire(e)
    }
}

impl From<DistError> for Error {
    fn from(e: DistError) -> Self {
        Error::Dist(e)
    }
}

impl From<JobError> for Error {
    /// Job-admission failures unwrap to the layer that produced them:
    /// lane errors are [`StreamError`]s (constructed by
    /// [`loopspec_mt::validate_tus`], so a bad TU count reads the same
    /// here as from an `EngineGrid` lane constructor), the rest are
    /// codec errors.
    fn from(e: JobError) -> Self {
        match e {
            JobError::Spec(e) => Error::Codec(e),
            JobError::Lanes(e) => Error::Stream(e),
        }
    }
}

impl From<SvcError> for Error {
    fn from(e: SvcError) -> Self {
        Error::Svc(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn every_layer_converts_and_displays() {
        let cases: Vec<(Error, &str)> = vec![
            (SnapError::Corrupt { what: "frame tag" }.into(), "codec:"),
            (CpuError::MemoryLimit { pages: 9 }.into(), "cpu:"),
            (StreamError::BadTus { got: 1 }.into(), "stream:"),
            (
                JobError::Lanes(StreamError::BadTus { got: 1 }).into(),
                "stream:",
            ),
            (
                JobError::Spec(SnapError::Corrupt { what: "frame tag" }).into(),
                "codec:",
            ),
            (
                DistError::AllWorkersDied {
                    completed: 1,
                    total: 2,
                }
                .into(),
                "distributed run:",
            ),
            (
                WireError::Codec(SnapError::Corrupt { what: "frame tag" }).into(),
                "wire:",
            ),
            (SvcError::Disconnected.into(), "replay service:"),
            (SnapshotError::StreamEnded.into(), "session:"),
        ];
        for (err, prefix) in cases {
            assert!(err.to_string().starts_with(prefix), "{err}");
            assert!(err.source().is_some(), "{err} must expose its cause");
        }
    }
}
