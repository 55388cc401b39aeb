//! Shared plumbing: run settings, the seeded generator, the result
//! record every workload fills in, and small measurement helpers.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::stats;

/// Settings of one benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// How long the measured window lasts.
    pub seconds: f64,
    /// Workload seed.
    pub seed: u64,
    /// `true` for the separate traced run that reports the layer ladder.
    pub trace: bool,
}

/// Set-up repeats at least this many times before the window and as
/// many after it, and on until [`SETUP_MIN_TOTAL`] has passed (at most
/// [`SETUP_MAX_REPS`] times); `setup_s` is the fastest repetition.
pub const SETUP_MIN_REPS: usize = 5;
pub const SETUP_MAX_REPS: usize = 50;
pub const SETUP_MIN_TOTAL: Duration = Duration::from_millis(1000);

/// SplitMix64: a tiny, well-mixed, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (jobs submitted plus output checks).
    pub attempted: u64,
    /// Operations whose output check failed, plus failed or rejected
    /// jobs.
    pub failed: u64,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts one checked operation, failing it (with a note) unless
    /// `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Runs the set-up `f` repeatedly (see [`SETUP_MIN_REPS`]) and
/// returns the last result with every repetition's wall time in
/// seconds. Workloads set up once more after the window, so `setup_s`
/// (the fastest of both batches) samples two moments of the run.
pub fn repeated_setup<T>(mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MAX_REPS
        && (times.len() < SETUP_MIN_REPS || start.elapsed() < SETUP_MIN_TOTAL)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one repetition"), times)
}

/// Maps `f` over `items` on `execute_all`'s work queue: one thread per
/// available core (at most one per item), each taking the next
/// unclaimed index. Results come back in item order.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = std::thread::available_parallelism()
        .map_or(2, |n| n.get())
        .clamp(1, items.len().max(1));
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        local.push((i, f(item)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("work-queue thread panicked"))
            .collect()
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Latencies of one class of operations, in seconds.
#[derive(Debug, Default, Clone)]
pub struct Latencies(pub Vec<f64>);

impl Latencies {
    pub fn push(&mut self, seconds: f64) {
        self.0.push(seconds);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile in seconds (0 when empty).
    pub fn pct(&self, p: f64) -> f64 {
        stats::percentile(&self.0, p).unwrap_or(0.0)
    }

    /// A note stating the percentile and how many samples lie beyond
    /// it.
    pub fn describe(&self, what: &str, p: f64, scale: f64, unit: &str) -> String {
        format!(
            "{what}: p{p:.0} = {:.3} {unit} over {} samples ({} beyond it)",
            self.pct(p) * scale,
            self.len(),
            stats::samples_beyond(self.len(), p)
        )
    }
}

/// The end-to-end figures every workload reports, before fidelity.
///
/// The host's speed swings in phases of a few seconds, so a plain mean
/// or median over one window depends on how much of it ran slow. Where
/// a workload repeats the same job, throughput and the cold
/// percentiles are therefore taken from each distinct job's fastest
/// repetition ([`EndToEnd::best`]), and throughput and the hit median
/// from the best whole pass ([`EndToEnd::best_pass`],
/// [`EndToEnd::best_pass_hit`]) when jobs run concurrently in passes.
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub instructions: u64,
    pub busy_s: f64,
    pub jobs: u64,
    pub cold: Latencies,
    /// Distinct job → (instructions, fastest latency in seconds).
    pub best: BTreeMap<String, (u64, f64)>,
    /// The fastest pass: (instructions, jobs, wall seconds).
    pub best_pass: Option<(u64, u64, f64)>,
    pub hit: Latencies,
    /// The lowest per-pass median hit latency, for workloads that
    /// answer hits in passes.
    pub best_pass_hit: Option<f64>,
    /// Wall time of every set-up repetition, in seconds.
    pub setup: Vec<f64>,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// Records one completed cold job.
    pub fn job(&mut self, key: &str, instructions: u64, seconds: f64) {
        self.jobs += 1;
        self.instructions += instructions;
        self.cold.push(seconds);
        let best = self
            .best
            .entry(key.to_string())
            .or_insert((instructions, seconds));
        best.1 = best.1.min(seconds);
    }

    /// Records one whole pass of concurrently run jobs and the hits
    /// answered during it.
    pub fn pass(&mut self, instructions: u64, jobs: u64, seconds: f64, hits: &[f64]) {
        if self.best_pass.is_none_or(|(_, _, s)| seconds < s) {
            self.best_pass = Some((instructions, jobs, seconds));
        }
        if let Some(m) = stats::median(hits) {
            self.best_pass_hit = Some(self.best_pass_hit.map_or(m, |b| b.min(m)));
        }
        self.hit.0.extend_from_slice(hits);
    }

    /// `(instr_per_s, jobs_per_s)`.
    pub fn throughput(&self) -> (f64, f64) {
        let (instructions, jobs, secs) = match self.best_pass {
            Some(pass) => pass,
            None if self.repeats() => {
                let secs: f64 = self.best.values().map(|b| b.1).sum();
                let instructions: u64 = self.best.values().map(|b| b.0).sum();
                (instructions, self.best.len() as u64, secs)
            }
            None => (self.instructions, self.jobs, self.busy_s),
        };
        let secs = secs.max(1e-9);
        (instructions as f64 / secs, jobs as f64 / secs)
    }

    /// `true` when some distinct job ran more than once.
    fn repeats(&self) -> bool {
        !self.best.is_empty() && self.best.len() < self.cold.len()
    }

    /// The latencies the cold percentiles are taken over: each distinct
    /// job's fastest repetition when jobs repeat, else every cold job.
    fn cold_basis(&self) -> Latencies {
        if self.repeats() {
            Latencies(self.best.values().map(|b| b.1).collect())
        } else {
            self.cold.clone()
        }
    }

    /// The fastest set-up repetition: like throughput, set-up time is
    /// read from the fastest repetition, since the host's slow phases
    /// and the first repetition's cold caches only ever add time.
    pub fn setup_s(&self) -> f64 {
        self.setup.iter().copied().reduce(f64::min).unwrap_or(0.0)
    }

    /// Emits the throughput, latency, set-up and memory metrics.
    pub fn emit(&self, out: &mut Outcome) {
        let (instr_per_s, jobs_per_s) = self.throughput();
        let cold = self.cold_basis();
        out.metric("instr_per_s", instr_per_s, "1/s");
        out.metric("jobs_per_s", jobs_per_s, "1/s");
        out.metric("cold_p50_ms", cold.pct(50.0) * 1e3, "ms");
        out.metric("cold_p90_ms", cold.pct(90.0) * 1e3, "ms");
        let hit_p50 = self.best_pass_hit.unwrap_or_else(|| self.hit.pct(50.0));
        out.metric("hit_p50_us", hit_p50 * 1e6, "us");
        out.metric("setup_s", self.setup_s(), "s");
        out.metric("peak_rss_mb", self.peak_rss_mb, "MB");
        out.note(format!(
            "{} jobs ({} distinct), {} guest instructions in {:.3} s of measured time ({:.4e} instr/s overall)",
            self.jobs,
            self.best.len(),
            self.instructions,
            self.busy_s,
            self.instructions as f64 / self.busy_s.max(1e-9)
        ));
        let basis = match (self.best_pass, self.repeats()) {
            (Some((_, _, s)), _) => format!(
                "throughput from the fastest pass ({s:.3} s), hit_p50 from the pass with the lowest hit median"
            ),
            (None, true) => "throughput from each distinct job's fastest repetition".into(),
            (None, false) => "throughput over the whole window".into(),
        };
        out.note(basis);
        let what = if self.repeats() {
            "cold latency (fastest repetition per distinct job)"
        } else {
            "cold latency"
        };
        out.note(cold.describe(what, 50.0, 1e3, "ms"));
        out.note(cold.describe(what, 90.0, 1e3, "ms"));
        out.note(
            self.cold
                .describe("cold latency (every job)", 50.0, 1e3, "ms"),
        );
        out.note(self.hit.describe("hit latency", 50.0, 1e6, "us"));
        out.note(format!(
            "set-up: fastest of {} repetitions (median {:.4} s)",
            self.setup.len(),
            stats::median(&self.setup).unwrap_or(0.0)
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_deterministic() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut r = Rng::new(7);
        let mut s = Rng::new(8);
        assert_ne!(r.next_u64(), s.next_u64());
        let mut v: Vec<u32> = (0..10).collect();
        Rng::new(1).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        assert!((0..1000).all(|_| r.below(3) < 3));
    }

    #[test]
    fn repeated_jobs_report_their_fastest_repetition() {
        let mut e = EndToEnd::default();
        e.job("a", 100, 2.0);
        e.job("a", 100, 1.0);
        e.job("b", 300, 3.0);
        e.job("a", 100, 4.0);
        assert_eq!(e.throughput(), (400.0 / 4.0, 2.0 / 4.0));
        assert_eq!(e.cold_basis().0, vec![1.0, 3.0]);
        // Distinct jobs only: every job counts.
        let mut f = EndToEnd::default();
        f.job("a", 10, 2.0);
        f.job("b", 10, 1.0);
        assert_eq!(f.cold_basis().0, vec![2.0, 1.0]);
        // A pass overrides: the fastest one sets throughput, the pass
        // with the lowest hit median sets the hit figure.
        f.pass(20, 2, 4.0, &[5.0, 1.0, 3.0]);
        f.pass(20, 2, 2.0, &[4.0, 4.0]);
        f.pass(20, 2, 3.0, &[]);
        assert_eq!(f.throughput(), (10.0, 1.0));
        assert_eq!(f.best_pass_hit, Some(3.0));
        assert_eq!(f.hit.len(), 5);
    }

    #[test]
    fn setup_time_is_the_fastest_repetition() {
        let mut e = EndToEnd::default();
        assert_eq!(e.setup_s(), 0.0);
        e.setup = vec![0.4, 0.25, 0.3];
        assert_eq!(e.setup_s(), 0.25);
    }

    #[test]
    fn par_map_keeps_item_order() {
        let items: Vec<u64> = (0..100).collect();
        assert_eq!(
            par_map(&items, |x| x * 2),
            (0..100).map(|x| x * 2).collect::<Vec<_>>()
        );
        assert!(par_map(&[] as &[u64], |x| *x).is_empty());
    }

    #[test]
    fn check_counts_attempts_and_failures() {
        let mut o = Outcome::default();
        o.check(true, || unreachable!());
        o.check(false, || "boom".into());
        assert_eq!((o.attempted, o.failed), (2, 1));
        assert_eq!(o.error_rate(), 0.5);
        assert!(o.notes[0].contains("boom"));
    }
}
