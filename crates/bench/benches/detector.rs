//! Throughput of the loop-detection front end: the CLS update rules and
//! the full CPU + detector pipeline.

use loopspec_bench::timing::Suite;
use loopspec_core::{Cls, EventCollector};
use loopspec_cpu::{ControlOutcome, Cpu, RunLimits};
use loopspec_isa::{Addr, ControlKind};
use loopspec_workloads::{by_name, Scale};

/// Raw CLS update-rule throughput on a synthetic nested-loop control
/// stream (no CPU in the way).
fn bench_cls(s: &mut Suite) {
    // Pre-generate a control stream: 3-deep nest, 10 x 10 x 10.
    let mut stream: Vec<(Addr, ControlOutcome)> = Vec::new();
    let branch = |t: u32, pc: u32, taken: bool| {
        (
            Addr::new(pc),
            ControlOutcome {
                kind: ControlKind::CondBranch {
                    target: Addr::new(t),
                },
                taken,
                target: Addr::new(if taken { t } else { pc + 1 }),
            },
        )
    };
    for _ in 0..10 {
        for _ in 0..10 {
            for k in 0..10 {
                stream.push(branch(30, 40, k != 9));
            }
            stream.push(branch(20, 50, true));
        }
        stream.push(branch(20, 50, false));
        stream.push(branch(10, 60, true));
    }
    stream.push(branch(10, 60, false));

    s.bench(
        "cls",
        "on_control/nest10x10x10",
        Some(stream.len() as u64),
        || {
            let mut cls = Cls::default();
            for (k, (pc, outcome)) in stream.iter().enumerate() {
                if cls.on_control(*pc, outcome, k as u64) {
                    std::hint::black_box(cls.buffered());
                    cls.clear_buffered();
                }
            }
            std::hint::black_box(cls.buffered());
        },
    );
}

/// End-to-end front end: interpret a workload and detect its loops.
fn bench_frontend(s: &mut Suite) {
    for name in ["compress", "swim", "go"] {
        let w = by_name(name).expect("workload exists");
        let program = w.build(Scale::Test).expect("assembles");
        // Measure instructions once for throughput annotation.
        let mut probe = EventCollector::default();
        Cpu::new()
            .run(&program, &mut probe, RunLimits::default())
            .expect("runs");
        let instructions = probe.instructions();
        s.bench(
            "frontend",
            &format!("cpu+detector/{name}"),
            Some(instructions),
            || {
                let mut collector = EventCollector::default();
                Cpu::new()
                    .run(&program, &mut collector, RunLimits::default())
                    .expect("runs");
                std::hint::black_box(collector.events().len())
            },
        );
    }
}

fn main() {
    let mut s = Suite::new("detector");
    bench_cls(&mut s);
    bench_frontend(&mut s);
}
