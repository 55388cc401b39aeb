//! The worker-pool transport beneath the shard
//! [`Scheduler`](crate::Scheduler): connected [`WorkerLink`]s, one
//! reader thread per worker draining frames into the scheduler's event
//! channel, and the bounded respawn machinery that keeps a spawned
//! pool at full strength. [`Workers`] is the one spawn path both front
//! ends — the one-suite [`Coordinator`](crate::Coordinator) and the
//! persistent replay service (`loopspec-svc`) — build their pool from.
//!
//! Reader threads deliver [`PoolEvent`]s. The service merges them with
//! client events on one channel, which is why the pool is generic over
//! the channel's event type (`E: From<PoolEvent>`).

use std::fmt;
use std::io::{self, Read, Write};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;

use crate::coordinator::DistError;
use crate::wire::{write_frame, Frame, FrameReader, WireError, PROTOCOL};

/// One connected worker: a writable half the scheduler sends jobs on,
/// a readable half a reader thread drains, and — for spawned workers —
/// the child process handle.
pub struct WorkerLink {
    pub(crate) writer: LinkWriter,
    /// Taken by the reader thread once the link joins a pool.
    pub(crate) reader: Option<Box<dyn Read + Send>>,
    pub(crate) child: Option<Child>,
}

impl fmt::Debug for WorkerLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerLink")
            .field("writer", &self.writer)
            .field("child", &self.child)
            .finish_non_exhaustive()
    }
}

#[derive(Debug)]
pub(crate) enum LinkWriter {
    Pipe(Option<std::process::ChildStdin>),
    #[cfg(unix)]
    Unix(std::os::unix::net::UnixStream),
}

impl Write for LinkWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            LinkWriter::Pipe(Some(w)) => w.write(buf),
            LinkWriter::Pipe(None) => Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "worker stdin already closed",
            )),
            #[cfg(unix)]
            LinkWriter::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            LinkWriter::Pipe(Some(w)) => w.flush(),
            LinkWriter::Pipe(None) => Ok(()),
            #[cfg(unix)]
            LinkWriter::Unix(s) => s.flush(),
        }
    }
}

impl LinkWriter {
    /// Signals end-of-jobs to the worker (EOF on its reading side).
    pub(crate) fn close(&mut self) {
        match self {
            LinkWriter::Pipe(w) => drop(w.take()),
            #[cfg(unix)]
            LinkWriter::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Write);
            }
        }
    }
}

impl WorkerLink {
    /// Spawns `cmd` as a worker process talking frames on its
    /// stdin/stdout (stderr is inherited, so worker diagnostics land in
    /// the coordinator's stderr).
    ///
    /// # Errors
    ///
    /// [`DistError::Spawn`] when the process cannot be started or its
    /// stdio pipes cannot be wired up (a misconfigured binary path
    /// fails the suite cleanly instead of panicking).
    pub fn spawn(cmd: &mut Command) -> Result<Self, DistError> {
        let program = format!("{:?}", cmd.get_program());
        let spawn_err = |what: &str| DistError::Spawn {
            message: format!("{what} for worker command {program}"),
        };
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| spawn_err(&e.to_string()))?;
        let Some(stdin) = child.stdin.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(spawn_err("no piped stdin"));
        };
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(spawn_err("no piped stdout"));
        };
        Ok(WorkerLink {
            writer: LinkWriter::Pipe(Some(stdin)),
            reader: Some(Box::new(stdout)),
            child: Some(child),
        })
    }

    /// Wraps one end of a Unix socket pair whose other end a worker is
    /// serving (e.g. a worker thread in the same process — the
    /// transport the `dist_grid` bench uses, and the remote-host shape
    /// a future TCP transport would generalize).
    ///
    /// # Errors
    ///
    /// Propagates `try_clone` failure.
    #[cfg(unix)]
    pub fn from_unix(stream: std::os::unix::net::UnixStream) -> io::Result<Self> {
        let reader = stream.try_clone()?;
        Ok(WorkerLink {
            writer: LinkWriter::Unix(stream),
            reader: Some(Box::new(reader)),
            child: None,
        })
    }
}

/// What a reader thread reports back to the scheduling loop.
#[derive(Debug)]
pub enum PoolEvent {
    /// A frame arrived from worker `i`.
    Frame(usize, Frame),
    /// The worker's stream closed or broke mid-frame (EOF, transport
    /// error): the worker is gone and its in-flight job is retryable.
    Closed(usize),
    /// The worker's stream decoded to garbage (bad checksum, bad tag,
    /// oversized length). Unlike [`PoolEvent::Closed`], this is *not*
    /// treated as retryable worker death: a worker that deterministically
    /// produces malformed frames would tear down every link in turn and
    /// surface as a misleading `AllWorkersDied`.
    Garbled(usize, WireError),
}

/// How replacement worker processes are spawned after a worker death.
/// The argument is the replacement's fresh slot index.
type RespawnFn = Box<dyn FnMut(usize) -> Command + Send>;

/// The workers a pool starts with: connected links plus, for a spawned
/// pool, the command hook that spawns replacements.
pub struct Workers {
    links: Vec<WorkerLink>,
    respawn: Option<RespawnFn>,
}

impl fmt::Debug for Workers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workers")
            .field("links", &self.links.len())
            .field("respawn", &self.respawn.is_some())
            .finish()
    }
}

impl Workers {
    /// Already-connected links (worker threads on socket pairs,
    /// pre-spawned processes). Such a pool cannot be replenished:
    /// worker deaths shrink it to the survivors.
    ///
    /// # Panics
    ///
    /// Panics if `links` is empty.
    pub fn connected(links: Vec<WorkerLink>) -> Self {
        assert!(!links.is_empty(), "a pool needs at least one worker");
        Workers {
            links,
            respawn: None,
        }
    }

    /// Spawns `n` processes by re-invoking the current executable with
    /// `--worker` — the binary must call
    /// [`maybe_serve_stdio`](crate::worker::maybe_serve_stdio) first
    /// thing in `main`. Workers lost later are replaced the same way.
    ///
    /// # Errors
    ///
    /// [`DistError::Spawn`] when a worker cannot be started.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn spawn(n: usize) -> Result<Self, DistError> {
        let exe = std::env::current_exe().map_err(|e| DistError::Spawn {
            message: format!("cannot resolve the current executable: {e}"),
        })?;
        Self::spawn_with(n, move |_| {
            let mut cmd = Command::new(&exe);
            cmd.arg("--worker");
            cmd
        })
    }

    /// Spawns `n` processes from per-worker commands — the hook for
    /// custom binaries, per-worker environment (the crash-injection
    /// tests use it), or remote-execution wrappers. A replacement for a
    /// lost worker is spawned with `command(i)`, where `i` is its fresh
    /// slot index (≥ `n`).
    ///
    /// # Errors
    ///
    /// [`DistError::Spawn`] when a worker cannot be started.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn spawn_with(
        n: usize,
        mut command: impl FnMut(usize) -> Command + Send + 'static,
    ) -> Result<Self, DistError> {
        let links = (0..n)
            .map(|i| WorkerLink::spawn(&mut command(i)))
            .collect::<Result<Vec<_>, _>>()?;
        let mut workers = Self::connected(links);
        workers.respawn = Some(Box::new(command));
        Ok(workers)
    }

    /// Disables replenishment: worker deaths shrink the pool to the
    /// survivors even for spawned workers.
    pub fn no_respawn(mut self) -> Self {
        self.respawn = None;
        self
    }
}

/// The pool proper: links, reader threads, respawn budget, loss
/// counters. Scheduling state (which worker is busy with what) stays
/// with the [`Scheduler`](crate::Scheduler) on top — the pool only
/// knows transport.
///
/// `E` is the scheduler's channel event type; reader threads deliver
/// `E::from(PoolEvent)`.
pub(crate) struct WorkerPool<E> {
    links: Vec<WorkerLink>,
    readers: Vec<std::thread::JoinHandle<()>>,
    tx: mpsc::Sender<E>,
    respawn: Option<RespawnFn>,
    /// Remaining respawn budget (starts at 2× the initial pool):
    /// replacement processes per pool lifetime are bounded, so a binary
    /// that handshakes and then exits (or workers dying faster than
    /// they serve) cannot respawn forever. Exhausting the budget
    /// degrades to shrink-to-survivors behavior.
    budget: u32,
    lost: u32,
    respawned: u32,
}

impl<E> fmt::Debug for WorkerPool<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.links.len())
            .field("respawn", &self.respawn.is_some())
            .field("budget", &self.budget)
            .field("lost", &self.lost)
            .field("respawned", &self.respawned)
            .finish()
    }
}

impl<E: From<PoolEvent> + Send + 'static> WorkerPool<E> {
    /// Brings the pool up: attaches one reader thread per link
    /// (delivering into `tx`) and writes the protocol handshake to
    /// every worker. Returns the pool plus one aliveness flag per
    /// initial slot — `false` means the handshake write already failed
    /// (counted as a loss) and the scheduler should treat that slot as
    /// dead from the start.
    pub(crate) fn start(workers: Workers, tx: mpsc::Sender<E>) -> (Self, Vec<bool>) {
        let budget = 2 * workers.links.len() as u32;
        let mut pool = WorkerPool {
            links: workers.links,
            readers: Vec::new(),
            tx,
            respawn: workers.respawn,
            budget,
            lost: 0,
            respawned: 0,
        };
        for i in 0..pool.links.len() {
            let handle = Self::attach_reader(&mut pool.links[i], i, &pool.tx);
            pool.readers.push(handle);
        }
        let alive = (0..pool.links.len())
            .map(|i| {
                let hello = Frame::Hello {
                    protocol: PROTOCOL,
                    worker: i as u32,
                };
                let ok = write_frame(&mut pool.links[i].writer, &hello).is_ok();
                if !ok {
                    pool.lost += 1;
                }
                loopspec_obs::journal::record(
                    loopspec_obs::EventKind::WorkerSpawn,
                    0,
                    i as u32,
                    if ok {
                        "worker connected"
                    } else {
                        "worker handshake write failed"
                    },
                );
                ok
            })
            .collect();
        (pool, alive)
    }

    /// Worker connections lost so far (initial handshake failures,
    /// observed deaths, failed replacement handshakes).
    pub(crate) fn lost(&self) -> u32 {
        self.lost
    }

    /// Replacement processes spawned so far.
    pub(crate) fn respawned(&self) -> u32 {
        self.respawned
    }

    /// Records a worker death the *scheduler* observed (a `Closed`
    /// event for a live slot, a job write that hit a broken pipe).
    pub(crate) fn note_lost(&mut self) {
        self.lost += 1;
    }

    /// `true` when the pool knows how to spawn replacements.
    pub(crate) fn can_respawn(&self) -> bool {
        self.respawn.is_some()
    }

    /// Writes `frame` to worker `w`.
    ///
    /// # Errors
    ///
    /// [`WireError::Io`] when the worker is gone (broken pipe) —
    /// retryable; [`WireError::Codec`] when the frame itself cannot be
    /// encoded (oversized) — deterministic, not retryable.
    pub(crate) fn send(&mut self, w: usize, frame: &Frame) -> Result<(), WireError> {
        write_frame(&mut self.links[w].writer, frame)
    }

    /// Spawns a replacement worker into a fresh pool slot (reader
    /// attached, handshake sent), consuming respawn budget. Returns
    /// the slots created, each with its handshake aliveness — the
    /// scheduler mirrors them into its own state table. A replacement
    /// whose handshake write fails counts as a loss (same as an initial
    /// worker that dies during the handshake) and is itself replaced
    /// while budget remains, so a single flaky handshake does not
    /// shrink the pool. A pool that cannot respawn, a failed spawn, or
    /// an exhausted budget returns what it managed (possibly nothing),
    /// preserving the all-workers-dead error path.
    pub(crate) fn respawn_worker(&mut self) -> Vec<(usize, bool)> {
        let mut created = Vec::new();
        // `make` is moved out and restored so the loop can push onto
        // `self.links` while holding it.
        let Some(mut make) = self.respawn.take() else {
            return created;
        };
        while self.budget > 0 {
            let idx = self.links.len();
            let Ok(mut link) = WorkerLink::spawn(&mut make(idx)) else {
                break;
            };
            self.readers
                .push(Self::attach_reader(&mut link, idx, &self.tx));
            let hello = Frame::Hello {
                protocol: PROTOCOL,
                worker: idx as u32,
            };
            let alive = write_frame(&mut link.writer, &hello).is_ok();
            self.links.push(link);
            self.budget -= 1;
            self.respawned += 1;
            if alive {
                created.push((idx, true));
                break;
            }
            self.lost += 1;
            created.push((idx, false));
        }
        self.respawn = Some(make);
        created
    }

    /// Tears the pool down: EOFs every worker's job stream, kills and
    /// reaps spawned children, joins the reader threads. The event
    /// sender is dropped with the pool — callers should drain their
    /// receiver afterwards (reader drop-guards deliver a final
    /// `Closed` per worker).
    pub(crate) fn shutdown(mut self) {
        for link in &mut self.links {
            link.writer.close();
        }
        for link in &mut self.links {
            if let Some(child) = &mut link.child {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        for handle in self.readers.drain(..) {
            let _ = handle.join();
        }
    }

    /// Spawns the reader thread draining worker `i`'s frames into the
    /// scheduler's event channel. The thread *always* reports the
    /// worker as closed when it exits — a drop guard delivers the
    /// `Closed` event even if the read loop panics, so the scheduler
    /// (which holds a live sender and can therefore never see the
    /// channel disconnect) cannot block forever on a silently vanished
    /// reader. A duplicate `Closed` after a normal exit is harmless:
    /// schedulers ignore deaths of already-dead workers.
    fn attach_reader(
        link: &mut WorkerLink,
        i: usize,
        tx: &mpsc::Sender<E>,
    ) -> std::thread::JoinHandle<()> {
        let reader = link.reader.take().expect("fresh link has a reader");
        let tx = tx.clone();
        std::thread::spawn(move || {
            struct ClosedOnExit<E: From<PoolEvent>>(mpsc::Sender<E>, usize);
            impl<E: From<PoolEvent>> Drop for ClosedOnExit<E> {
                fn drop(&mut self) {
                    let _ = self.0.send(E::from(PoolEvent::Closed(self.1)));
                }
            }
            let guard = ClosedOnExit(tx.clone(), i);
            let mut frames = FrameReader::new(reader);
            loop {
                match frames.read_frame() {
                    Ok(Some(frame)) => {
                        if tx.send(E::from(PoolEvent::Frame(i, frame))).is_err() {
                            break;
                        }
                    }
                    Ok(None) | Err(WireError::Io(_)) => break,
                    Err(e @ WireError::Codec(_)) => {
                        let _ = tx.send(E::from(PoolEvent::Garbled(i, e)));
                        break;
                    }
                }
            }
            drop(guard);
        })
    }
}
