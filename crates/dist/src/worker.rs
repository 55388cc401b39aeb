//! The worker side of the protocol: a loop that turns [`Job`] frames
//! into [`Frame::Snapshot`] / [`Frame::Report`] answers.
//!
//! Between jobs a worker owns a program cache and the bytes of the last
//! [`Frame::Snapshot`] it wrote, tagged with that answer's job id. Every
//! shard starts from a fresh [`Session`] and fresh sinks, restored
//! entirely from snapshot bytes — the same "nothing survives but the
//! bytes" discipline [`ShardedRun`](loopspec_pipeline::ShardedRun)
//! enforces in-thread, now with a process boundary underneath it. The
//! bytes come from the job ([`Resume::Bytes`]) or, when the job names
//! the held snapshot ([`Resume::Held`]), from the worker's own copy, so
//! a chain that stays on one worker crosses the pipe once per shard.
//! Both go through the same trailer check and resume. Every job takes
//! the held bytes, so a worker holds at most one snapshot. Shard
//! execution itself is [`run_shard`], the same scheduling-core
//! primitive every other driver uses, so a worker process cannot drift
//! from the in-thread semantics.
//!
//! Deterministic failures (unknown workload, invalid lane, snapshot
//! that does not decode, a held snapshot the worker does not hold) are
//! answered with [`Frame::Error`] — retrying them elsewhere would fail
//! identically, so the coordinator fails the run instead of requeueing.
//! Transport loss (the coordinator sees EOF) is the *retryable* failure
//! mode; the coordinator requeues the lost job from its last good
//! snapshot, which it keeps.

use std::collections::HashMap;
use std::io::{self, Read, Write};

use loopspec_asm::Program;
use loopspec_cpu::RunLimits;
use loopspec_pipeline::{run_shard, Session, Snapshot};
use loopspec_workloads::Scale;

use crate::wire::{
    write_frame, Frame, FrameReader, Job, LaneSpec, Report, Resume, WireError, PROTOCOL,
};

/// Environment variable enabling the crash-injection test hook: a
/// worker with `LOOPSPEC_DIST_CRASH_AFTER=n` exits abruptly (no reply,
/// exit code 3) upon receiving its (n+1)-th job — from the
/// coordinator's side, a worker dying mid-shard.
pub const CRASH_AFTER_ENV: &str = "LOOPSPEC_DIST_CRASH_AFTER";

/// The worker loop configuration. See the [module docs](self).
#[derive(Debug, Default)]
pub struct Worker {
    /// Crash-injection hook: abruptly exit the process upon receiving
    /// job number `n` (0-based) instead of answering it.
    crash_after_jobs: Option<u32>,
}

impl Worker {
    /// A well-behaved worker.
    pub fn new() -> Self {
        Worker::default()
    }

    /// Test hook: the worker will `process::exit(3)` — no reply, no
    /// cleanup — upon receiving its `jobs`-th job (0-based), simulating
    /// a machine lost mid-shard.
    pub fn crash_after_jobs(mut self, jobs: u32) -> Self {
        self.crash_after_jobs = Some(jobs);
        self
    }

    /// Serves jobs from `reader`/`writer` until the coordinator closes
    /// the stream: handshake (read the coordinator's
    /// [`Frame::Hello`], echo it), then answer [`Job`]s one at a time.
    ///
    /// # Errors
    ///
    /// [`WireError`] when the transport fails or the stream decodes to
    /// garbage; a protocol-version mismatch is also a [`WireError`]
    /// (after answering with a [`Frame::Error`] so the coordinator can
    /// log the cause).
    pub fn serve(self, reader: impl Read, mut writer: impl Write) -> Result<(), WireError> {
        let mut reader = FrameReader::new(reader);
        match reader.read_frame()? {
            Some(Frame::Hello { protocol, worker }) if protocol == PROTOCOL => {
                write_frame(&mut writer, &Frame::Hello { protocol, worker })?;
            }
            Some(Frame::Hello { protocol, .. }) => {
                write_frame(
                    &mut writer,
                    &Frame::Error {
                        job: 0,
                        message: format!(
                            "protocol mismatch: coordinator speaks v{protocol}, worker v{PROTOCOL}"
                        ),
                    },
                )?;
                return Err(WireError::Io(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "protocol version mismatch",
                )));
            }
            Some(_) => {
                return Err(WireError::Io(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "expected Hello as the first frame",
                )));
            }
            None => return Ok(()),
        }

        let mut programs: HashMap<(String, Scale), Program> = HashMap::new();
        // The last snapshot this worker wrote, and the job it answered.
        let mut held: Option<(u64, Vec<u8>)> = None;
        let mut jobs_served = 0u32;
        while let Some(frame) = reader.read_frame()? {
            let Frame::Job(job) = frame else {
                return Err(WireError::Io(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "worker expected a Job frame",
                )));
            };
            if self.crash_after_jobs == Some(jobs_served) {
                // Simulated machine loss: vanish without a reply.
                std::process::exit(3);
            }
            jobs_served += 1;
            let job_id = job.id;
            let answer = execute_job(&job, held.take(), &mut programs).unwrap_or_else(|message| {
                Frame::Error {
                    job: job_id,
                    message,
                }
            });
            match write_frame(&mut writer, &answer) {
                Ok(()) => {
                    if let Frame::Snapshot { job, bytes, .. } = answer {
                        held = Some((job, bytes));
                    }
                }
                // An unframeable reply (e.g. a snapshot over the frame
                // limit) is deterministic: report it as a job error so
                // the coordinator fails the run with the cause instead
                // of requeueing into the same wall.
                Err(WireError::Codec(e)) => write_frame(
                    &mut writer,
                    &Frame::Error {
                        job: job_id,
                        message: format!("reply could not be framed: {e}"),
                    },
                )?,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Runs one shard and builds the answer frame; a `String` error becomes
/// a [`Frame::Error`] (deterministic failure). `held` is the snapshot
/// this worker wrote last, with the job it answered.
fn execute_job(
    job: &Job,
    held: Option<(u64, Vec<u8>)>,
    programs: &mut HashMap<(String, Scale), Program>,
) -> Result<Frame, String> {
    let snapshot = match (&job.resume, &held) {
        (Resume::Start, _) => None,
        (Resume::Bytes(bytes), _) => Some(bytes),
        (Resume::Held { job: want }, Some((have, bytes))) if have == want => Some(bytes),
        (Resume::Held { job: want }, held) => {
            let holds = match held {
                Some((have, _)) => format!("the snapshot of job {have}"),
                None => "no snapshot".to_string(),
            };
            return Err(format!(
                "job {} resumes from the snapshot of job {want}, but this worker holds {holds}",
                job.id
            ));
        }
    };
    let key = (job.workload.clone(), job.scale);
    let program = match programs.entry(key) {
        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
        std::collections::hash_map::Entry::Vacant(e) => {
            let program = loopspec_workloads::build_named(&job.workload, job.scale)
                .ok_or_else(|| format!("unknown workload '{}'", job.workload))?
                .map_err(|e| format!("workload '{}' failed to assemble: {e}", job.workload))?;
            e.insert(program)
        }
    };

    let mut grid = LaneSpec::build_grid(&job.lanes).map_err(|e| format!("bad lane spec: {e}"))?;
    // The session borrows the grid only for this shard.
    let step = {
        let mut session = Session::new();
        session.observe_checkpointable(&mut grid);
        if let Some(bytes) = snapshot {
            let snapshot =
                Snapshot::from_bytes(bytes).map_err(|e| format!("snapshot rejected: {e}"))?;
            session
                .resume(&snapshot)
                .map_err(|e| format!("resume failed: {e}"))?;
        }
        run_shard(
            program,
            RunLimits::with_fuel(job.total_fuel),
            job.budget,
            job.last,
            &mut session,
        )
        .map_err(|e| format!("shard execution failed: {e}"))?
    };

    Ok(match step.handoff {
        Some(bytes) => Frame::Snapshot {
            job: job.id,
            instructions: step.summary.instructions,
            bytes,
        },
        None => {
            let lanes = grid
                .reports()
                .expect("stream ended in this shard")
                .iter()
                .map(Into::into)
                .collect();
            let mut enc = loopspec_core::snap::Enc::new();
            loopspec_core::SnapshotState::save_state(&grid, &mut enc);
            Frame::Report(Report {
                job: job.id,
                instructions: step.summary.instructions,
                lanes,
                state: enc.into_bytes(),
            })
        }
    })
}

/// If the process was invoked as a worker (`--worker` anywhere in its
/// arguments), serve jobs on stdin/stdout and **exit the process** —
/// never returns in that case. Call this first in `main` of any binary
/// a coordinator re-invokes (the `dist_run` binary and the
/// `distributed_run` example both do).
///
/// Honors the [`CRASH_AFTER_ENV`] crash-injection hook.
pub fn maybe_serve_stdio() {
    if std::env::args().any(|a| a == "--worker") {
        let mut worker = Worker::new();
        if let Some(n) = std::env::var(CRASH_AFTER_ENV)
            .ok()
            .and_then(|v| v.parse().ok())
        {
            worker = worker.crash_after_jobs(n);
        }
        let code = match worker.serve(io::stdin().lock(), io::stdout().lock()) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("worker: {e}");
                1
            }
        };
        std::process::exit(code);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::LaneSpec;
    use loopspec_mt::Policy;

    /// Drives a worker over in-memory byte streams: scripted
    /// coordinator frames in, worker answers out.
    fn converse(frames: &[Frame]) -> Vec<Frame> {
        let mut input = Vec::new();
        for f in frames {
            write_frame(&mut input, f).unwrap();
        }
        let mut output = Vec::new();
        Worker::new().serve(&input[..], &mut output).unwrap();
        let mut reader = FrameReader::new(&output[..]);
        let mut answers = Vec::new();
        while let Some(f) = reader.read_frame().unwrap() {
            answers.push(f);
        }
        answers
    }

    fn hello() -> Frame {
        Frame::Hello {
            protocol: PROTOCOL,
            worker: 5,
        }
    }

    fn job(id: u64, budget: u64, resume: Resume) -> Frame {
        Frame::Job(Job {
            id,
            workload: "compress".into(),
            scale: Scale::Test,
            lanes: vec![LaneSpec {
                policy: Policy::Str,
                tus: 4,
            }],
            shard: 0,
            budget,
            total_fuel: RunLimits::default().max_instrs,
            last: false,
            resume,
        })
    }

    #[test]
    fn handshake_echoes_the_hello() {
        let answers = converse(&[hello()]);
        assert_eq!(answers, vec![hello()]);
    }

    #[test]
    fn protocol_mismatch_is_refused() {
        let mut input = Vec::new();
        write_frame(
            &mut input,
            &Frame::Hello {
                protocol: PROTOCOL + 1,
                worker: 0,
            },
        )
        .unwrap();
        let mut output = Vec::new();
        assert!(Worker::new().serve(&input[..], &mut output).is_err());
        let mut reader = FrameReader::new(&output[..]);
        assert!(matches!(
            reader.read_frame().unwrap(),
            Some(Frame::Error { job: 0, .. })
        ));
    }

    #[test]
    fn a_chain_of_jobs_reaches_a_report() {
        // First job pauses at a checkpoint; feeding the snapshot back
        // in a fresh job finishes the workload.
        let answers = converse(&[hello(), job(1, 10_000, Resume::Start)]);
        let Frame::Snapshot {
            job: 1,
            instructions,
            bytes,
        } = &answers[1]
        else {
            panic!("expected a snapshot, got {:?}", answers[1]);
        };
        assert_eq!(*instructions, 10_000);

        let answers = converse(&[hello(), {
            let Frame::Job(mut j) = job(2, u64::MAX, Resume::Bytes(bytes.clone())) else {
                unreachable!()
            };
            j.shard = 1;
            Frame::Job(j)
        }]);
        let Frame::Report(report) = &answers[1] else {
            panic!("expected a report, got {:?}", answers[1]);
        };
        assert_eq!(report.job, 2);
        assert!(report.instructions > 10_000);
        assert_eq!(report.lanes.len(), 1);
        assert_eq!(report.lanes[0].policy, "STR");
        assert!(!report.state.is_empty());
    }

    #[test]
    fn deterministic_failures_answer_with_error_frames() {
        // Unknown workload.
        let mut bad = job(7, 100, Resume::Start);
        if let Frame::Job(j) = &mut bad {
            j.workload = "specmark".into();
        }
        let answers = converse(&[hello(), bad, job(8, 100_000_000, Resume::Start)]);
        assert!(matches!(&answers[1], Frame::Error { job: 7, .. }));
        // The worker survives and serves the next job.
        assert!(matches!(&answers[2], Frame::Report(r) if r.job == 8));

        // Corrupt snapshot bytes.
        let answers = converse(&[hello(), job(9, 100, Resume::Bytes(vec![1, 2, 3]))]);
        assert!(
            matches!(&answers[1], Frame::Error { job: 9, message } if message.contains("snapshot"))
        );

        // Invalid lane.
        let mut bad = job(10, 100, Resume::Start);
        if let Frame::Job(j) = &mut bad {
            j.lanes = vec![LaneSpec {
                policy: Policy::Str,
                tus: 1,
            }];
        }
        let answers = converse(&[hello(), bad]);
        assert!(
            matches!(&answers[1], Frame::Error { job: 10, message } if message.contains("lane"))
        );
    }

    /// Job `id` of a compress chain: shard `shard`, `budget` fuel.
    fn shard_job(id: u64, shard: u32, budget: u64, resume: Resume) -> Frame {
        let Frame::Job(mut j) = job(id, budget, resume) else {
            unreachable!()
        };
        j.shard = shard;
        Frame::Job(j)
    }

    #[test]
    fn a_held_snapshot_resumes_like_carried_bytes() {
        let answers = converse(&[hello(), shard_job(1, 0, 10_000, Resume::Start)]);
        let Frame::Snapshot { bytes, .. } = &answers[1] else {
            panic!("expected a snapshot, got {:?}", answers[1]);
        };
        let carried = converse(&[
            hello(),
            shard_job(2, 1, u64::MAX, Resume::Bytes(bytes.clone())),
        ]);
        let held = converse(&[
            hello(),
            shard_job(1, 0, 10_000, Resume::Start),
            shard_job(2, 1, u64::MAX, Resume::Held { job: 1 }),
        ]);
        assert_eq!(held[1], answers[1]);
        assert!(
            matches!(&held[2], Frame::Report(r) if r.job == 2),
            "{:?}",
            held[2]
        );
        assert_eq!(held[2], carried[1]);
    }

    #[test]
    fn a_held_job_naming_another_snapshot_is_an_error_and_the_worker_serves_on() {
        let answers = converse(&[
            hello(),
            shard_job(1, 0, 10_000, Resume::Start),
            // Job 1 wrote the held snapshot, not job 7.
            shard_job(2, 1, 10_000, Resume::Held { job: 7 }),
            // Job 2 took the held snapshot, so none is left for job 1.
            shard_job(3, 1, 10_000, Resume::Held { job: 1 }),
            job(4, 100_000_000, Resume::Start),
        ]);
        assert!(
            matches!(&answers[2], Frame::Error { job: 2, message }
                if message.contains("holds the snapshot of job 1")),
            "{:?}",
            answers[2]
        );
        assert!(
            matches!(&answers[3], Frame::Error { job: 3, message }
                if message.contains("holds no snapshot")),
            "{:?}",
            answers[3]
        );
        assert!(matches!(&answers[4], Frame::Report(r) if r.job == 4));
    }

    #[test]
    fn empty_stream_is_a_clean_exit() {
        let mut output = Vec::new();
        Worker::new().serve(&[][..], &mut output).unwrap();
        assert!(output.is_empty());
    }
}
