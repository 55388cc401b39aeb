//! Suite-wide invariants: determinism, scale behaviour, CLS adequacy,
//! and — most importantly — that the *relative personalities* the paper
//! reports survive in the synthetic suite (hit-ratio ordering, nesting
//! ordering, body-size ordering).

use loopspec_core::{EventCollector, LoopEvent, LoopStats};
use loopspec_cpu::{Cpu, RunLimits};
use loopspec_workloads::{all, by_name, Scale, Workload};

fn events_of(w: &Workload, scale: Scale) -> (Vec<LoopEvent>, u64) {
    let p = w.build(scale).expect("assembles");
    let mut c = EventCollector::default();
    let s = Cpu::new()
        .run(&p, &mut c, RunLimits::with_fuel(1_000_000_000))
        .expect("runs");
    assert!(s.halted(), "{} must halt", w.name);
    c.into_parts()
}

#[test]
fn builds_are_deterministic() {
    for w in all() {
        let a = w.build(Scale::Test).unwrap();
        let b = w.build(Scale::Test).unwrap();
        assert_eq!(a.code(), b.code(), "{} build must be reproducible", w.name);
    }
}

#[test]
fn scaling_multiplies_instructions_roughly_linearly() {
    for name in ["swim", "gcc", "m88ksim"] {
        let w = by_name(name).unwrap();
        let (_, n_test) = events_of(&w, Scale::Test);
        let (_, n_small) = events_of(&w, Scale::Small);
        let ratio = n_small as f64 / n_test as f64;
        let expect = Scale::Small.factor() as f64 / Scale::Test.factor() as f64;
        assert!(
            ratio > expect * 0.5 && ratio < expect * 1.6,
            "{name}: scaling ratio {ratio:.2}, expected ≈{expect}"
        );
    }
}

#[test]
fn sixteen_entry_cls_never_overflows_on_the_suite() {
    // The paper: "a few entries are enough to guarantee no overflow for
    // most programs" — with max nesting 11 in SPEC95 and 10 in our
    // suite, 16 entries must never evict.
    for w in all() {
        let (events, _) = events_of(&w, Scale::Test);
        let evictions = events
            .iter()
            .filter(|e| matches!(e, LoopEvent::Evicted { .. }))
            .count();
        assert_eq!(evictions, 0, "{} evicted with a 16-entry CLS", w.name);
    }
}

#[test]
fn nesting_orderings_match_the_paper() {
    let report = |name: &str| {
        let w = by_name(name).unwrap();
        let (events, n) = events_of(&w, Scale::Test);
        let mut s = LoopStats::new();
        s.observe_all(&events);
        s.report(n)
    };
    // go and li are the deepest (paper: 11 and 10); perl and m88ksim the
    // flattest (1.35 and 1.98); swim maxes at 3.
    let go = report("go");
    let li = report("li");
    let perl = report("perl");
    let m88 = report("m88ksim");
    let swim = report("swim");
    assert!(go.max_nesting >= 9, "go: {:?}", go.max_nesting);
    assert!(li.max_nesting >= 7, "li: {:?}", li.max_nesting);
    assert!(swim.max_nesting <= 4, "swim: {:?}", swim.max_nesting);
    assert!(perl.avg_nesting < swim.avg_nesting + 1.0);
    assert!(perl.avg_nesting < go.avg_nesting);
    assert!(m88.avg_nesting < go.avg_nesting);
}

#[test]
fn body_size_ordering_fpppp_dominates() {
    // fpppp's 3217 instructions/iteration is 6-80x everything else in
    // the paper; in our suite it must be the largest by a wide margin.
    let mut sizes: Vec<(String, f64)> = all()
        .iter()
        .map(|w| {
            let (events, n) = events_of(w, Scale::Test);
            let mut s = LoopStats::new();
            s.observe_all(&events);
            (w.name.to_string(), s.report(n).instr_per_iter)
        })
        .collect();
    sizes.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    assert_eq!(sizes[0].0, "fpppp", "{sizes:?}");
    assert!(sizes[0].1 > 3.0 * sizes[1].1, "{sizes:?}");
}

#[test]
fn iteration_richness_ordering_swim_leads() {
    // swim has the most iterations/execution in the paper (188.5),
    // roughly 3x the median; the suite must preserve "swim leads".
    let mut iters: Vec<(String, f64)> = all()
        .iter()
        .map(|w| {
            let (events, n) = events_of(w, Scale::Test);
            let mut s = LoopStats::new();
            s.observe_all(&events);
            (w.name.to_string(), s.report(n).iter_per_exec)
        })
        .collect();
    iters.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    assert_eq!(iters[0].0, "swim", "{iters:?}");
}

#[test]
fn hit_ratio_personality_survives_speculation() {
    // The paper's Table 2 splits the suite into regular (hit > 95%) and
    // irregular (hit < 80%) programs. Run STR(3) at 4 TUs and check the
    // groups keep their order (group means, not individual values).
    use loopspec_mt::{AnnotatedTrace, Engine, Policy};
    let hit = |name: &str| {
        let w = by_name(name).unwrap();
        let (events, n) = events_of(&w, Scale::Test);
        let trace = AnnotatedTrace::build(&events, n);
        Engine::new(&trace, Policy::StrNested(3), 4)
            .run()
            .spec
            .hit_ratio_percent()
    };
    let regular = ["compress", "hydro2d", "su2cor", "swim", "wave5"];
    let irregular = ["applu", "perl", "go", "li"];
    let avg = |names: &[&str]| names.iter().map(|n| hit(n)).sum::<f64>() / names.len() as f64;
    let (r, i) = (avg(&regular), avg(&irregular));
    assert!(
        r > i + 15.0,
        "regular group ({r:.1}%) must clearly beat irregular ({i:.1}%)"
    );
    assert!(r > 85.0, "regular group too low: {r:.1}%");
    assert!(i < 75.0, "irregular group too high: {i:.1}%");
}

#[test]
fn one_shot_share_is_highest_for_perl() {
    // perl's throwaway RNG loops frequently run a single iteration —
    // its one-shot share should be the suite's highest (its avg nl of
    // 1.35 in the paper reflects the same degeneracy).
    let one_shot_share = |name: &str| {
        let w = by_name(name).unwrap();
        let (events, _) = events_of(&w, Scale::Test);
        let one = events
            .iter()
            .filter(|e| matches!(e, LoopEvent::OneShot { .. }))
            .count() as f64;
        let ends = events
            .iter()
            .filter(|e| matches!(e, LoopEvent::ExecutionEnd { .. }))
            .count() as f64;
        one / (one + ends)
    };
    let perl = one_shot_share("perl");
    for other in ["swim", "hydro2d", "compress", "mgrid"] {
        assert!(
            perl > one_shot_share(other),
            "perl's one-shot share must exceed {other}'s"
        );
    }
}
