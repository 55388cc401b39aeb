//! `svc_run` — the persistent replay service driver.
//!
//! ```text
//! svc_run [--workers N] [--clients C] [--jobs J] [--queue Q]
//!         [--cache E] [--scale test|small|full] [--metrics] [WORKLOAD...]
//! svc_run --worker            # internal: serve jobs on stdin/stdout
//! ```
//!
//! Starts a [`Service`] over N spawned worker processes (copies of
//! this binary with `--worker`), then drives it with C concurrent
//! client threads submitting J jobs each, drawn round-robin from the
//! requested workloads — so repeated specs exercise the
//! content-addressed report cache and concurrent distinct specs
//! exercise the multi-tenant scheduler. Prints one row per submission
//! outcome class and the full plain-text metrics surface at the end.

use loopspec::dist::{worker, JobSpec, Policy};
use loopspec::svc::{Service, SvcConfig, SvcError};
use loopspec::workloads::Scale;

fn usage() -> ! {
    eprintln!(
        "usage: svc_run [--workers N] [--clients C] [--jobs J] [--queue Q] \
         [--cache E] [--scale test|small|full|huge] [--metrics] [WORKLOAD...]"
    );
    std::process::exit(2);
}

fn main() {
    // Spawned workers re-enter here; this serves and never returns.
    worker::maybe_serve_stdio();

    let mut workers = 4usize;
    let mut clients = 3usize;
    let mut jobs = 12usize;
    let mut queue_limit = 64usize;
    let mut cache_capacity = 256usize;
    let mut scale = Scale::Test;
    let mut metrics = false;
    let mut workloads: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut numeric = |target: &mut usize| {
            *target = args
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage());
        };
        match arg.as_str() {
            "--workers" => numeric(&mut workers),
            "--clients" => numeric(&mut clients),
            "--jobs" => numeric(&mut jobs),
            "--queue" => numeric(&mut queue_limit),
            "--cache" => numeric(&mut cache_capacity),
            "--scale" => {
                scale = match args.next().as_deref() {
                    Some("test") => Scale::Test,
                    Some("small") => Scale::Small,
                    Some("full") => Scale::Full,
                    Some("huge") => Scale::Huge,
                    _ => usage(),
                };
            }
            "--metrics" => metrics = true,
            "--help" | "-h" => usage(),
            w if !w.starts_with('-') => workloads.push(w.to_string()),
            _ => usage(),
        }
    }
    if workers == 0 || clients == 0 || jobs == 0 || queue_limit == 0 {
        usage();
    }
    if workloads.is_empty() {
        workloads = ["compress", "go", "li", "ijpeg", "perl", "vortex"]
            .iter()
            .map(|w| w.to_string())
            .collect();
    }

    // The traffic mix: one spec per requested workload, submitted
    // round-robin — with more submissions than distinct specs, repeats
    // are guaranteed and the cache must earn its keep.
    let specs: Vec<JobSpec> = workloads
        .iter()
        .map(|w| {
            let mut spec = JobSpec::new(w.clone())
                .scale(scale)
                .policies([Policy::Idle, Policy::Str])
                .tus([2, 4]);
            if scale == Scale::Huge {
                // ~10⁴× the Test instruction count: widen the shards so
                // the shard count stays sane, and the fuel budget so
                // the run completes.
                spec = spec
                    .plan(loopspec::pipeline::Plan::sliced(50_000_000))
                    .total_fuel(2_000_000_000);
            }
            spec
        })
        .collect();

    let service = match Service::spawn(SvcConfig {
        workers,
        queue_limit,
        cache_capacity,
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("svc_run: failed to start the service: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "svc_run: {clients} clients x {jobs} jobs over {} distinct specs, \
         {workers} workers, queue {queue_limit}, cache {cache_capacity}",
        specs.len()
    );

    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let client = service.client();
            let specs = specs.clone();
            std::thread::spawn(move || {
                let (mut done, mut cached, mut rejected, mut failed) = (0u64, 0u64, 0u64, 0u64);
                for j in 0..jobs {
                    let spec = specs[(c * jobs + j) % specs.len()].clone();
                    match client.run(spec) {
                        Ok(completion) => {
                            done += 1;
                            if completion.cached {
                                cached += 1;
                            }
                        }
                        Err(SvcError::Rejected { .. }) => rejected += 1,
                        Err(_) => failed += 1,
                    }
                }
                (c, done, cached, rejected, failed)
            })
        })
        .collect();

    println!(
        "{:>8} {:>6} {:>7} {:>9} {:>7}",
        "client", "done", "cached", "rejected", "failed"
    );
    let mut any_failed = false;
    for handle in handles {
        let (c, done, cached, rejected, failed) = handle.join().expect("client thread");
        any_failed |= failed > 0;
        println!("{c:>8} {done:>6} {cached:>7} {rejected:>9} {failed:>7}");
    }

    println!("\n{}", service.metrics_text());
    let stats = service.stats();
    service.shutdown();

    if metrics {
        // The process-wide registry (pipeline/dist layers record here;
        // the service's own counters and latency histograms were
        // printed above from the service's shared state and its
        // per-instance registry), then a one-line JSON snapshot and
        // the structured event journal.
        println!("== metrics ==");
        print!("{}", loopspec::obs::global().render_text());
        println!("== metrics json ==");
        println!("{}", loopspec::obs::global().snapshot_json());
        println!("== journal ==");
        print!("{}", loopspec::obs::journal::lines());
    }

    let consistent = stats.submitted == stats.accepted + stats.rejected
        && stats.accepted == stats.completed + stats.failed + stats.in_flight;
    if !consistent {
        eprintln!("svc_run: metrics invariants violated: {stats:?}");
        std::process::exit(1);
    }
    if any_failed {
        eprintln!("svc_run: some jobs failed");
        std::process::exit(1);
    }
}
