//! Speculation policies: how many future iterations to launch (paper
//! §3.1.2).

use loopspec_core::LoopId;

use crate::{IterPrediction, IterPredictor};

/// Everything a policy may consult when an iteration starts in the
/// non-speculative thread.
#[derive(Debug, Clone, Copy)]
pub struct SpecContext<'a> {
    /// The loop whose iteration just started.
    pub loop_id: LoopId,
    /// The iteration index that just started (≥ 2).
    pub current_iter: u32,
    /// Idle thread units available right now.
    pub idle_tus: u64,
    /// Future iterations of this execution that already hold live
    /// speculative threads.
    pub already_speculated: u32,
    /// The shared iteration-count predictor (the LET).
    pub predictor: &'a IterPredictor,
    /// Ground truth: actual iterations remaining after the current one,
    /// supplied by whichever future-knowledge channel the driver has —
    /// the batch engine's [`AnnotatedTrace`](crate::AnnotatedTrace), or
    /// a grid oracle lane's [`OracleFeed`](crate::OracleFeed) recorded
    /// by a phase-1 [`IterationCountLog`](crate::IterationCountLog)
    /// pass. Only the oracle may look at this; history lanes pass 0.
    pub remaining_from_feed: u32,
}

/// A thread-count speculation policy.
///
/// Returns how many *new* speculative threads to launch for future
/// iterations of `ctx.loop_id`, given `ctx.idle_tus` free TUs. The engine
/// clamps the request to `idle_tus`, and it skips candidate iterations
/// the non-speculative thread's run-ahead has already executed, so fewer
/// threads may launch than requested.
pub trait SpeculationPolicy {
    /// Display name (used in reports).
    fn name(&self) -> &'static str;

    /// Number of new threads to spawn.
    fn threads_to_spawn(&self, ctx: &SpecContext<'_>) -> u64;

    /// `Some(i)` enables the STR(i) rule: at most `i` non-speculated loop
    /// executions may be nested inside a speculated loop before its
    /// speculative threads are squashed to free TUs for the inner loops.
    fn max_nonspec_nested(&self) -> Option<u32> {
        None
    }

    /// Whether the policy is safe to run with an unbounded TU pool (only
    /// oracle-style policies that never over-speculate are).
    fn supports_unbounded_tus(&self) -> bool {
        false
    }

    /// Whether the policy consults ground truth about the future
    /// ([`SpecContext::remaining_from_feed`]). Such policies run on the
    /// batch [`Engine`](crate::Engine) (which has the whole trace) or as
    /// an [`EngineGrid`](crate::EngineGrid) oracle lane carrying an
    /// [`OracleFeed`](crate::OracleFeed).
    fn requires_future_knowledge(&self) -> bool {
        false
    }

    /// Feedback from the engine: a thread speculated for `loop_id`
    /// resolved (`correct = false` only for control misspeculation, i.e.
    /// the iteration never existed). Default: ignored.
    fn on_thread_outcome(&mut self, _loop_id: LoopId, _correct: bool) {}
}

/// **IDLE**: "the number of speculated threads is equal to the number of
/// idle TUs existing in that moment."
#[derive(Debug, Clone, Copy, Default)]
pub struct IdlePolicy;

impl IdlePolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        IdlePolicy
    }
}

impl SpeculationPolicy for IdlePolicy {
    fn name(&self) -> &'static str {
        "IDLE"
    }

    fn threads_to_spawn(&self, ctx: &SpecContext<'_>) -> u64 {
        ctx.idle_tus
    }
}

/// Shared STR sizing: min(idle, predicted remaining), falling back to the
/// last count, then to "all idle TUs".
fn str_spawn(ctx: &SpecContext<'_>) -> u64 {
    let committed_through = ctx.current_iter as u64 + ctx.already_speculated as u64;
    match ctx.predictor.predict(ctx.loop_id) {
        IterPrediction::Stride { total } | IterPrediction::LastCount { total } => {
            let remaining = (total as u64).saturating_sub(committed_through);
            remaining.min(ctx.idle_tus)
        }
        IterPrediction::Unknown => ctx.idle_tus,
    }
}

/// **STR**: size the burst with the stride-predicted remaining iteration
/// count when the stride is reliable, else with the last execution's
/// count, else grab all idle TUs.
#[derive(Debug, Clone, Copy, Default)]
pub struct StrPolicy;

impl StrPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        StrPolicy
    }
}

impl SpeculationPolicy for StrPolicy {
    fn name(&self) -> &'static str {
        "STR"
    }

    fn threads_to_spawn(&self, ctx: &SpecContext<'_>) -> u64 {
        str_spawn(ctx)
    }
}

/// **STR(i)**: STR sizing plus the nesting rule — when more than `i`
/// non-speculated loops pile up inside a speculated loop, the outermost
/// speculated loop's threads are squashed so inner loops can speculate.
#[derive(Debug, Clone, Copy)]
pub struct StrNestedPolicy {
    i: u32,
}

impl StrNestedPolicy {
    /// Creates STR(i).
    pub fn new(i: u32) -> Self {
        StrNestedPolicy { i }
    }

    /// The nesting limit `i`.
    pub fn limit(&self) -> u32 {
        self.i
    }
}

impl SpeculationPolicy for StrNestedPolicy {
    fn name(&self) -> &'static str {
        match self.i {
            1 => "STR(1)",
            2 => "STR(2)",
            3 => "STR(3)",
            _ => "STR(i)",
        }
    }

    fn threads_to_spawn(&self, ctx: &SpecContext<'_>) -> u64 {
        str_spawn(ctx)
    }

    fn max_nonspec_nested(&self) -> Option<u32> {
        Some(self.i)
    }
}

/// **Oracle**: spawns exactly the actual remaining iterations — no
/// misspeculation, no under-speculation. Used for the infinite-TU
/// potential study (the paper's Figure 5 "mechanism that speculates when
/// the non-speculative thread detects a loop execution" on an ideal
/// machine).
#[derive(Debug, Clone, Copy, Default)]
pub struct OraclePolicy;

impl OraclePolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        OraclePolicy
    }
}

impl SpeculationPolicy for OraclePolicy {
    fn name(&self) -> &'static str {
        "ORACLE"
    }

    fn threads_to_spawn(&self, ctx: &SpecContext<'_>) -> u64 {
        (ctx.remaining_from_feed as u64)
            .saturating_sub(ctx.already_speculated as u64)
            .min(ctx.idle_tus)
    }

    fn supports_unbounded_tus(&self) -> bool {
        true
    }

    fn requires_future_knowledge(&self) -> bool {
        true
    }
}

/// The §2.3.2 extension: a table of loops "not suitable for speculation".
///
/// "It may be convenient to disable the recognition of some loops by
/// introducing a new table containing those potential loops that are not
/// suitable for speculation … those loops with a poor prediction rate may
/// be good candidates." This wrapper tracks per-loop misspeculation rates
/// and suppresses speculation for loops whose observed rate exceeds a
/// threshold, delegating everything else to the inner policy.
///
/// ```
/// use loopspec_mt::{SuitabilityFilter, StrPolicy, SpeculationPolicy};
/// use loopspec_core::LoopId;
/// use loopspec_isa::Addr;
///
/// let mut p = SuitabilityFilter::new(StrPolicy::new(), 8, 0.5);
/// let l = LoopId(Addr::new(1));
/// for _ in 0..8 {
///     p.on_thread_outcome(l, false); // chronic misspeculation
/// }
/// assert!(p.is_suppressed(l));
/// ```
#[derive(Debug, Clone)]
pub struct SuitabilityFilter<P> {
    inner: P,
    stats: std::collections::HashMap<LoopId, (u32, u32)>, // (correct, wrong)
    min_samples: u32,
    max_wrong_rate: f64,
}

impl<P> SuitabilityFilter<P> {
    /// Wraps `inner`; a loop is suppressed once it has `min_samples`
    /// resolved threads with a misspeculation rate above
    /// `max_wrong_rate`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < max_wrong_rate < 1.0` and `min_samples > 0`.
    pub fn new(inner: P, min_samples: u32, max_wrong_rate: f64) -> Self {
        assert!(min_samples > 0, "min_samples must be positive");
        assert!(
            (0.0..1.0).contains(&max_wrong_rate) && max_wrong_rate > 0.0,
            "max_wrong_rate must be in (0, 1)"
        );
        SuitabilityFilter {
            inner,
            stats: std::collections::HashMap::new(),
            min_samples,
            max_wrong_rate,
        }
    }

    /// Whether `loop_id` is currently on the not-suitable list.
    pub fn is_suppressed(&self, loop_id: LoopId) -> bool {
        match self.stats.get(&loop_id) {
            Some(&(correct, wrong)) if correct + wrong >= self.min_samples => {
                wrong as f64 / (correct + wrong) as f64 > self.max_wrong_rate
            }
            _ => false,
        }
    }

    /// Number of loops currently suppressed.
    pub fn suppressed_count(&self) -> usize {
        self.stats
            .keys()
            .filter(|&&l| self.is_suppressed(l))
            .count()
    }
}

impl<P: SpeculationPolicy> SpeculationPolicy for SuitabilityFilter<P> {
    fn name(&self) -> &'static str {
        "STR+FILT"
    }

    fn threads_to_spawn(&self, ctx: &SpecContext<'_>) -> u64 {
        if self.is_suppressed(ctx.loop_id) {
            0
        } else {
            self.inner.threads_to_spawn(ctx)
        }
    }

    fn max_nonspec_nested(&self) -> Option<u32> {
        self.inner.max_nonspec_nested()
    }

    fn requires_future_knowledge(&self) -> bool {
        self.inner.requires_future_knowledge()
    }

    fn on_thread_outcome(&mut self, loop_id: LoopId, correct: bool) {
        let e = self.stats.entry(loop_id).or_insert((0, 0));
        if correct {
            e.0 += 1;
        } else {
            e.1 += 1;
        }
        self.inner.on_thread_outcome(loop_id, correct);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopspec_isa::Addr;

    fn lid(n: u32) -> LoopId {
        LoopId(Addr::new(n))
    }

    fn ctx<'a>(
        predictor: &'a IterPredictor,
        current_iter: u32,
        idle: u64,
        already: u32,
        remaining_from_feed: u32,
    ) -> SpecContext<'a> {
        SpecContext {
            loop_id: lid(1),
            current_iter,
            idle_tus: idle,
            already_speculated: already,
            predictor,
            remaining_from_feed,
        }
    }

    #[test]
    fn idle_takes_everything() {
        let p = IterPredictor::new();
        assert_eq!(
            IdlePolicy::new().threads_to_spawn(&ctx(&p, 2, 3, 0, 100)),
            3
        );
        assert_eq!(
            IdlePolicy::new().threads_to_spawn(&ctx(&p, 2, 0, 0, 100)),
            0
        );
    }

    #[test]
    fn str_unknown_behaves_like_idle() {
        let p = IterPredictor::new();
        assert_eq!(StrPolicy::new().threads_to_spawn(&ctx(&p, 2, 3, 0, 9)), 3);
    }

    #[test]
    fn str_caps_at_predicted_remaining() {
        let mut p = IterPredictor::new();
        for _ in 0..3 {
            p.record_execution(lid(1), 10); // reliable total = 10
        }
        // current iter 8, so 2 remaining; 5 idle.
        assert_eq!(StrPolicy::new().threads_to_spawn(&ctx(&p, 8, 5, 0, 2)), 2);
        // already 1 speculated: only 1 more.
        assert_eq!(StrPolicy::new().threads_to_spawn(&ctx(&p, 8, 5, 1, 2)), 1);
        // past the predicted end: nothing.
        assert_eq!(StrPolicy::new().threads_to_spawn(&ctx(&p, 11, 5, 0, 0)), 0);
    }

    #[test]
    fn str_uses_last_count_when_unreliable() {
        let mut p = IterPredictor::new();
        p.record_execution(lid(1), 6); // one observation: LastCount
        assert_eq!(StrPolicy::new().threads_to_spawn(&ctx(&p, 2, 10, 0, 4)), 4);
    }

    #[test]
    fn str_nested_carries_its_limit() {
        let p3 = StrNestedPolicy::new(3);
        assert_eq!(p3.max_nonspec_nested(), Some(3));
        assert_eq!(p3.name(), "STR(3)");
        assert_eq!(p3.limit(), 3);
        assert_eq!(StrPolicy::new().max_nonspec_nested(), None);
    }

    #[test]
    fn suitability_filter_suppresses_bad_loops_only() {
        let mut f = SuitabilityFilter::new(StrPolicy::new(), 4, 0.5);
        // Loop 1: mostly wrong; loop 2: mostly right.
        for _ in 0..6 {
            f.on_thread_outcome(lid(1), false);
            f.on_thread_outcome(lid(2), true);
        }
        f.on_thread_outcome(lid(1), true);
        f.on_thread_outcome(lid(2), false);
        assert!(f.is_suppressed(lid(1)));
        assert!(!f.is_suppressed(lid(2)));
        assert_eq!(f.suppressed_count(), 1);

        let p = IterPredictor::new();
        let mut c = ctx(&p, 2, 5, 0, 9);
        c.loop_id = lid(1);
        assert_eq!(f.threads_to_spawn(&c), 0, "suppressed loop spawns nothing");
        c.loop_id = lid(2);
        assert!(f.threads_to_spawn(&c) > 0);
    }

    #[test]
    fn suitability_filter_needs_min_samples() {
        let mut f = SuitabilityFilter::new(IdlePolicy::new(), 10, 0.25);
        for _ in 0..9 {
            f.on_thread_outcome(lid(1), false);
        }
        assert!(!f.is_suppressed(lid(1)), "below the sample floor");
        f.on_thread_outcome(lid(1), false);
        assert!(f.is_suppressed(lid(1)));
    }

    #[test]
    #[should_panic(expected = "max_wrong_rate")]
    fn suitability_filter_validates_rate() {
        let _ = SuitabilityFilter::new(StrPolicy::new(), 1, 1.5);
    }

    #[test]
    fn oracle_spawns_exact_remainder() {
        let p = IterPredictor::new();
        let o = OraclePolicy::new();
        assert_eq!(o.threads_to_spawn(&ctx(&p, 2, u64::MAX, 0, 7)), 7);
        assert_eq!(o.threads_to_spawn(&ctx(&p, 2, u64::MAX, 5, 7)), 2);
        assert_eq!(o.threads_to_spawn(&ctx(&p, 2, 1, 0, 7)), 1);
        assert!(o.supports_unbounded_tus());
        assert!(!StrPolicy::new().supports_unbounded_tus());
    }
}
