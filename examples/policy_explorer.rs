//! Speculation-policy explorer: sweep IDLE / STR / STR(1..3) across
//! thread-unit counts for one workload and print the TPC matrix plus
//! hit-ratio details — an interactive version of the paper's Figures 6-7
//! and Table 2.
//!
//! ```text
//! cargo run --release --example policy_explorer -- hydro2d
//! cargo run --release --example policy_explorer -- perl small
//! ```

use loopspec::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "hydro2d".to_string());
    let scale = match args.next().as_deref() {
        None | Some("test") => Scale::Test,
        Some("small") => Scale::Small,
        Some("full") => Scale::Full,
        Some(other) => return Err(format!("unknown scale `{other}`").into()),
    };
    let workload = workload_by_name(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;

    let program = workload.build(scale)?;
    let mut collector = EventCollector::default();
    Cpu::new().run(
        &program,
        &mut collector,
        RunLimits::with_fuel(1_000_000_000),
    )?;
    let (events, instructions) = collector.into_parts();
    let trace = AnnotatedTrace::build(&events, instructions);

    println!(
        "== {} at {scale:?} scale: {} instructions, {} detected executions ==\n",
        workload.name,
        instructions,
        trace.execs.len()
    );

    // Sanity anchor: the ideal machine, via the two-phase streaming
    // oracle (count-log forward pass + fed oracle replay).
    println!(
        "ideal (infinite TUs, oracle): TPC {:.1}\n",
        ideal_tpc_streaming(&events, instructions).tpc
    );

    println!(
        "{:>8} {:>8} {:>8} {:>8} {:>8}",
        "policy", "2 TUs", "4 TUs", "8 TUs", "16 TUs"
    );
    for p in Policy::ALL {
        print!("{:>8}", p.name());
        for tus in [2, 4, 8, 16] {
            print!(" {:>8.3}", Engine::new(&trace, p, tus).run().tpc());
        }
        println!();
    }

    println!("\nSTR(3) @ 4 TUs detail (the paper's Table 2 view):");
    let r = Engine::new(&trace, Policy::StrNested(3), 4).run();
    println!(
        "  speculations        {:>10}\n  threads/speculation {:>10.2}\n  hit ratio           {:>9.2}%\n  instr to verify     {:>10.1}\n  TPC                 {:>10.2}",
        r.spec.spec_actions,
        r.spec.threads_per_spec(),
        r.spec.hit_ratio_percent(),
        r.spec.instr_to_verif(),
        r.tpc()
    );
    assert_eq!(r.policy, Policy::StrNested(3).name());
    Ok(())
}
