//! Distributed replay: N worker *processes*, one job queue of
//! snapshot-linked shards, results byte-identical to a single pass.
//!
//! ```text
//! cargo run --example distributed_run
//! ```
//!
//! The coordinator re-invokes this same executable with `--worker` to
//! spawn its pool (which is why `maybe_serve_stdio` is the first line
//! of `main`), slices each workload into fixed-fuel shards, and chains
//! the shards across whichever workers are free — every handoff is a
//! serialized [`Snapshot`](loopspec::pipeline::Snapshot) crossing a
//! pipe. At the end, every workload is recomputed in-process with one
//! uninterrupted `Session` and the distributed lane reports *and*
//! final sink state are required to match byte for byte.

use loopspec::dist::worker;
use loopspec::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Spawned workers re-enter here; this serves jobs and never returns.
    worker::maybe_serve_stdio();

    let spec = SuiteSpec::new(
        ["compress", "go", "li", "swim"],
        Scale::Test,
        vec![
            LaneSpec {
                policy: Policy::Idle,
                tus: 4,
            },
            LaneSpec {
                policy: Policy::Str,
                tus: 4,
            },
            LaneSpec {
                policy: Policy::StrNested(3),
                tus: 4,
            },
        ],
        Plan::sliced(20_000),
    );

    let workers = 2;
    let coordinator = Coordinator::spawn(workers)?;
    println!(
        "{} workloads x {} lanes across {workers} worker processes",
        spec.workloads.len(),
        spec.lanes.len()
    );

    let outcome = coordinator.run_suite(&spec)?;
    for o in &outcome.outcomes {
        println!(
            "{:>10}: {:>7} instructions in {} shards, TPC(STR@4) = {:.2}",
            o.workload,
            o.instructions,
            o.shards_run,
            o.lanes[1].tpc()
        );
    }
    println!(
        "{} jobs, {} snapshot bytes shipped between processes",
        outcome.jobs_dispatched, outcome.handoff_bytes
    );

    // The acceptance bar: reports and serialized sink state must be
    // indistinguishable from one uninterrupted in-process pass.
    outcome.verify_single_pass(&spec)?;
    println!("all workloads byte-identical to the single pass ✓");
    Ok(())
}
