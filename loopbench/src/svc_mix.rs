//! `svc-mix`: the traffic shape of `svc_run`'s defaults, block after
//! block. Two client threads run a closed loop against one persistent
//! replay service (two worker processes, cache on, the production 25 k
//! shard plan). Within a block of six fresh specs both clients walk the
//! same round-robin twice, from the same start, as `svc_run`'s clients
//! do with its defaults (12 jobs each over 6 specs, every client's
//! offset `c * 12 % 6` being 0). So in the first round the clients
//! submit each spec at about the same time (one cold job, one coalesced
//! into it), and the second round is answered from the cache. Specs are
//! the 18 paper programs in a seeded order, then fresh seeded
//! `gen:<family>:<seed>` names, all at Test scale. Every answer is
//! checked byte for byte against a single-pass reference.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;
use std::time::Instant;

use loopspec_dist::{default_lanes, single_pass_outcome, JobSpec, LaneReport, SvcStats};
use loopspec_svc::{Client, Completion, Service, SvcConfig};
use loopspec_workloads::Scale;

use crate::common::{
    par_map, peak_rss_mb, repeated_setup, Ctx, EndToEnd, Latencies, Outcome, Rng,
};
use crate::fidelity;
use crate::ladder::{self, Rungs};
use crate::stats::{fnv1a, samples_beyond, FNV_OFFSET};
use crate::trace::Trace;

const CLIENTS: usize = 2;
/// Distinct specs per block: `svc_run`'s default workload list
/// (compress, go, li, ijpeg, perl, vortex).
const BLOCK: usize = 6;
/// Rounds each client makes over a block: `svc_run`'s default 12 jobs
/// per client over its 6 specs.
const ROUNDS: usize = 2;

/// The seeded spec sequence: the 18 paper programs in a seeded order,
/// then fresh `gen:<family>:<seed>` names without end.
#[derive(Debug)]
pub struct Mix {
    seed: u64,
    suite: Vec<&'static str>,
    families: Vec<&'static str>,
}

impl Mix {
    pub fn new(seed: u64) -> Self {
        let mut suite: Vec<&'static str> =
            loopspec_workloads::all().iter().map(|w| w.name).collect();
        Rng::new(seed).shuffle(&mut suite);
        let families = loopspec_gen::families().iter().map(|f| f.name).collect();
        Mix {
            seed,
            suite,
            families,
        }
    }

    /// The name of the `k`-th distinct spec.
    fn name(&self, k: usize) -> String {
        if let Some(name) = self.suite.get(k) {
            return name.to_string();
        }
        let h = fnv1a(fnv1a(FNV_OFFSET, &self.seed.to_le_bytes()), &k.to_le_bytes());
        let mut rng = Rng::new(h);
        let family = self.families[rng.below(self.families.len() as u64) as usize];
        format!("gen:{family}:{}", rng.next_u64() >> 20)
    }

    fn spec(&self, k: usize) -> JobSpec {
        JobSpec::new(self.name(k)).scale(Scale::Test)
    }
}

/// The distinct spec of a client's `j`-th request in a window that
/// starts at block `first`.
fn spec_of(first: usize, j: usize) -> usize {
    (first + j / (BLOCK * ROUNDS)) * BLOCK + j % BLOCK
}

#[derive(Debug)]
struct Done {
    spec: usize,
    /// Submission time, in seconds since the window started.
    submitted: f64,
    cached: bool,
    seconds: f64,
    instructions: u64,
    digest: u64,
}

/// FNV digest of everything a report carries.
pub fn digest(instructions: u64, lanes: &[LaneReport], state: &[u8]) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, &instructions.to_le_bytes());
    for l in lanes {
        h = fnv1a(h, l.policy.as_bytes());
        for v in [l.tus, l.instructions, l.cycles].iter().chain(&l.spec) {
            h = fnv1a(h, &v.to_le_bytes());
        }
    }
    fnv1a(h, state)
}

fn record(
    spec: usize,
    submitted: f64,
    reply: Result<Completion, loopspec_svc::SvcError>,
    seconds: f64,
    done: &Mutex<Vec<Done>>,
    errors: &Mutex<Vec<String>>,
) {
    match reply {
        Ok(c) => {
            let r = &c.report;
            done.lock().expect("no client panicked").push(Done {
                spec,
                submitted,
                cached: c.cached,
                seconds,
                instructions: r.instructions,
                digest: digest(r.instructions, &r.lanes, &r.state),
            });
        }
        Err(e) => errors
            .lock()
            .expect("no client panicked")
            .push(e.to_string()),
    }
}

/// One closed-loop window starting at block `first`; returns its wall
/// time and the first block it left untouched.
fn window(
    mix: &Mix,
    first: usize,
    client: &Client,
    seconds: f64,
    trace: &mut Trace,
    done: &Mutex<Vec<Done>>,
    errors: &Mutex<Vec<String>>,
) -> (f64, usize) {
    let start = Instant::now();
    let (epoch, traced) = (trace.epoch(), trace.enabled());
    let ends: Vec<(Trace, usize)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let client = client.clone();
                s.spawn(move || {
                    let mut t = Trace::with_epoch(traced, epoch);
                    let mut j = 0;
                    while start.elapsed().as_secs_f64() < seconds {
                        let k = spec_of(first, j);
                        let submitted = start.elapsed().as_secs_f64();
                        let (reply, ns) =
                            t.timed("svc::Client::run", |_| client.run(mix.spec(k)));
                        record(k, submitted, reply, ns / 1e9, done, errors);
                        j += 1;
                    }
                    (t, j)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut requests = 0;
    for (t, j) in ends {
        trace.absorb(t);
        requests = requests.max(j);
    }
    let next = first + requests.div_ceil(BLOCK * ROUNDS);
    (start.elapsed().as_secs_f64(), next)
}

/// Sorts the answers into hits, cold jobs and coalesced submissions: a
/// spec's first uncached answer by submission time is its cold job, a
/// later uncached one was coalesced into it.
fn summarize(done: &[Done], busy_s: f64, e2e: &mut EndToEnd, out: &mut Outcome) {
    let mut by_time: Vec<&Done> = done.iter().collect();
    by_time.sort_by(|a, b| a.submitted.total_cmp(&b.submitted));
    let mut computed = BTreeSet::new();
    let mut coalesced = Latencies::default();
    for d in by_time {
        if d.cached {
            e2e.hit.push(d.seconds);
        } else if computed.insert(d.spec) {
            e2e.cold.push(d.seconds);
            e2e.instructions += d.instructions;
        } else {
            coalesced.push(d.seconds);
        }
    }
    e2e.jobs = done.len() as u64;
    e2e.busy_s = busy_s;
    out.note(format!(
        "svc-mix realised mix: {} cold, {} hit, {} coalesced",
        e2e.cold.len(),
        e2e.hit.len(),
        coalesced.len()
    ));
    out.note(coalesced.describe("coalesced latency", 50.0, 1e3, "ms"));
    let beyond = samples_beyond(e2e.cold.len(), 90.0);
    out.check(beyond >= 10, || {
        format!(
            "{} cold jobs leave {beyond} samples beyond p90 (10 needed)",
            e2e.cold.len()
        )
    });
}

/// Single-pass reference digests of `names`.
fn references(names: &[String]) -> BTreeMap<String, Option<u64>> {
    let lanes = default_lanes();
    let fuel = JobSpec::new("compress").total_fuel;
    let digests = par_map(names, |name| {
        single_pass_outcome(name, Scale::Test, &lanes, fuel)
            .ok()
            .map(|o| digest(o.instructions, &o.lanes, &o.state))
    });
    names.iter().cloned().zip(digests).collect()
}

/// Checks every answer against the single-pass reference of its spec
/// (`known` holds the references built in set-up).
fn check(mix: &Mix, done: &[Done], known: &BTreeMap<String, Option<u64>>, out: &mut Outcome) {
    let mut by_spec: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for d in done {
        by_spec.entry(mix.name(d.spec)).or_default().push(d.digest);
    }
    let missing: Vec<String> = by_spec
        .keys()
        .filter(|n| !known.contains_key(*n))
        .cloned()
        .collect();
    let computed = references(&missing);
    for (name, digests) in by_spec {
        let want = known
            .get(&name)
            .or_else(|| computed.get(&name))
            .copied()
            .flatten();
        for got in digests {
            out.check(want == Some(got), || {
                format!("{name}: answer differs from the single pass")
            });
        }
    }
}

fn describe_stats(st: &SvcStats, out: &mut Outcome) {
    out.note(format!(
        "service counters: {} submitted, {} hits, {} misses, {} coalesced, {} rejected, {} failed, {} shards dispatched, {} snapshot bytes",
        st.submitted, st.cache_hits, st.cache_misses, st.coalesced, st.rejected, st.failed,
        st.jobs_dispatched, st.handoff_bytes
    ));
}

pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let mut e2e = EndToEnd::default();
    // Set-up: seed the spec sequence, spawn the service and its
    // two workers, wait for the worker handshakes, and build the
    // references of the paper programs.
    let suite: Vec<String> = loopspec_workloads::all()
        .iter()
        .map(|w| w.name.to_string())
        .collect();
    let setup = || {
        let mix = Mix::new(ctx.seed);
        let service = Service::spawn(SvcConfig::default()).expect("service spawns");
        service.client().stats().expect("service answers");
        (mix, service, references(&suite))
    };
    let ((mix, service, known), times) = repeated_setup(setup);
    e2e.setup = times;
    let client = service.client();
    let (done, errors) = (Mutex::new(Vec::new()), Mutex::new(Vec::new()));
    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };

    let mut trace = Trace::new(false);
    let (busy, next) = window(&mix, 0, &client, seconds, &mut trace, &done, &errors);
    e2e.peak_rss_mb = peak_rss_mb();
    let done_untraced = std::mem::take(&mut *done.lock().expect("clients joined"));
    summarize(&done_untraced, busy, &mut e2e, out);

    let mut traced = EndToEnd::default();
    let mut trace = Trace::new(true);
    let done_traced = if ctx.trace {
        let (busy, _) = window(&mix, next, &client, seconds, &mut trace, &done, &errors);
        let d = std::mem::take(&mut *done.lock().expect("clients joined"));
        summarize(&d, busy, &mut traced, out);
        d
    } else {
        Vec::new()
    };
    let stats = client.stats().expect("service answers");
    describe_stats(&stats, out);
    service.shutdown();
    e2e.setup.extend(repeated_setup(setup).1);

    let errors = errors.into_inner().expect("clients joined");
    out.attempted += errors.len() as u64;
    out.failed += errors.len() as u64;
    for e in errors.iter().take(5) {
        out.note(format!("JOB FAILED: {e}"));
    }
    check(&mix, &done_untraced, &known, out);
    check(&mix, &done_traced, &known, out);

    if ctx.trace {
        crate::report_tracing(&e2e, &traced, &trace, out);
        let rungs = Rungs {
            programs: ["compress", "go", "swim"]
                .iter()
                .map(|n| (n.to_string(), Scale::Test))
                .collect(),
            grid: true,
            oracle: false,
            dist: true,
            svc: true,
            kernel: false,
        };
        ladder::run(&rungs, &mut trace, Some(stats), out);
        crate::write_trace(ctx, "svc-mix", &trace, out);
    } else {
        e2e.emit(out);
        fidelity::emit_suite(Scale::Test, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_seeded_and_walks_each_block_in_rounds() {
        let names = |m: &Mix| (0..60).map(|k| m.name(k)).collect::<Vec<_>>();
        let a = Mix::new(3);
        assert_eq!(names(&a), names(&Mix::new(3)));
        assert_ne!(names(&a), names(&Mix::new(4)));
        // The 18 paper programs first, each once, then fresh gen names.
        let mut first: Vec<String> = names(&a)[..18].to_vec();
        first.sort();
        let mut suite: Vec<String> = loopspec_workloads::all()
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        suite.sort();
        assert_eq!(first, suite);
        let rest = &names(&a)[18..];
        assert!(rest.iter().all(|n| n.starts_with("gen:")));
        assert_eq!(rest.iter().collect::<BTreeSet<_>>().len(), rest.len());
        assert!(names(&a).iter().all(|n| loopspec_workloads::known_name(n)));
        // A client walks block 2 twice round-robin, then moves on.
        let walk: Vec<usize> = (0..2 * BLOCK * ROUNDS).map(|j| spec_of(2, j)).collect();
        let block2: Vec<usize> = (12..18).collect();
        assert_eq!(walk[..6], block2[..]);
        assert_eq!(walk[6..12], block2[..]);
        assert_eq!(walk[12..18], (18..24).collect::<Vec<_>>()[..]);
    }
}
