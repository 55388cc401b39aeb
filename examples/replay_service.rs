//! Replay as a service: one persistent scheduler, many clients, a
//! content-addressed report cache.
//!
//! ```text
//! cargo run --example replay_service
//! ```
//!
//! The service re-invokes this same executable with `--worker` to
//! spawn its pool (which is why `maybe_serve_stdio` is the first line
//! of `main`), then two concurrent clients submit overlapping
//! [`JobSpec`]s. The first submission of each spec computes over the
//! worker pool; every repeat is answered from the cache in O(1) —
//! byte-identical by construction, which the example checks — and the
//! plain-text metrics endpoint accounts for every submission.

use loopspec::dist::{worker, JobSpec, Policy};
use loopspec::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Spawned workers re-enter here; this serves jobs and never returns.
    worker::maybe_serve_stdio();

    let service = Service::spawn(SvcConfig {
        workers: 2,
        ..SvcConfig::default()
    })?;

    // Two tenants, overlapping studies: each submits the same three
    // specs, so three compute and three hit the cache (or coalesce,
    // when both ask while the first is still computing).
    let specs: Vec<JobSpec> = ["compress", "go", "li"]
        .iter()
        .map(|w| {
            JobSpec::new(*w)
                .policies([Policy::Str, Policy::StrNested(3)])
                .tus([4, 16])
        })
        .collect();

    let clients: Vec<_> = (0..2)
        .map(|tenant| {
            let client = service.client();
            let specs = specs.clone();
            std::thread::spawn(move || {
                specs
                    .into_iter()
                    .map(|spec| {
                        let name = spec.workload.clone();
                        let completion = client.run(spec).expect("job succeeds");
                        (tenant, name, completion)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    let mut answers: Vec<(usize, String, Completion)> = Vec::new();
    for handle in clients {
        answers.extend(handle.join().expect("client thread"));
    }
    for (tenant, name, completion) in &answers {
        println!(
            "tenant {tenant}: {name:>10} {:>7} instructions, {} lanes{}",
            completion.report.instructions,
            completion.report.lanes.len(),
            if completion.cached {
                "  (cache hit)"
            } else {
                ""
            },
        );
    }

    // Identical specs must get identical bytes, cached or not.
    for (tenant, name, completion) in &answers {
        let twin = answers
            .iter()
            .find(|(t, n, _)| t != tenant && n == name)
            .expect("both tenants ran every spec");
        assert_eq!(
            completion.report, twin.2.report,
            "{name}: the two tenants' reports must be byte-identical"
        );
    }

    // A warm repeat is a guaranteed cache hit — no worker touched.
    let warm = service.client().run(specs[0].clone())?;
    assert!(warm.cached, "the warm repeat must hit the cache");
    println!("\nwarm repeat answered from the cache ✓\n");

    println!("{}", service.metrics_text());
    let stats = service.stats();
    assert_eq!(stats.submitted, stats.accepted + stats.rejected);
    assert_eq!(
        stats.accepted,
        stats.completed + stats.failed + stats.in_flight
    );
    service.shutdown();
    Ok(())
}
