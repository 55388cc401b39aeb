//! Speculation policies: how many future iterations to launch (paper
//! §3.1.2).
//!
//! [`Policy`] is the one public policy type, from the engine to the
//! wire. Inside the crate each family is its own rule type, so every
//! engine core is monomorphized: the spawn decision runs on every
//! iteration of every lane and must not dispatch at run time.

use loopspec_core::LoopId;

use crate::{IterPrediction, IterPredictor};

/// A history-based thread-count speculation policy of the paper
/// (§3.1.2).
///
/// The Figure 5 oracle is not a `Policy`: it needs future knowledge,
/// so it is built only through the constructors that supply it —
/// [`Engine::oracle`](crate::Engine::oracle),
/// [`Engine::oracle_unbounded`](crate::Engine::oracle_unbounded),
/// [`EngineGrid::push_oracle`](crate::EngineGrid::push_oracle) and
/// [`EngineGrid::push_oracle_unbounded`](crate::EngineGrid::push_oracle_unbounded).
///
/// ```
/// use loopspec_mt::{Policy, StrPolicy};
///
/// let names: Vec<_> = Policy::ALL.iter().map(|p| p.name()).collect();
/// assert_eq!(names, ["IDLE", "STR", "STR(1)", "STR(2)", "STR(3)"]);
/// assert_eq!(Policy::StrNested(7).name(), "STR(i)");
/// assert_eq!(Policy::StrNested(0).name(), "STR(i)");
/// assert_eq!(Policy::from(StrPolicy::new()), Policy::Str);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// **IDLE**: "the number of speculated threads is equal to the
    /// number of idle TUs existing in that moment."
    Idle,
    /// **STR**: size the burst with the stride-predicted remaining
    /// iteration count when the stride is reliable, else with the last
    /// execution's count, else grab all idle TUs.
    Str,
    /// **STR(i)**: STR sizing plus the nesting rule — when more than
    /// `i` non-speculated loops pile up inside a speculated loop, the
    /// outermost speculated loop's threads are squashed so inner loops
    /// can speculate.
    StrNested(u32),
}

impl Policy {
    /// All policies of Figure 7, in the paper's bar order.
    pub const ALL: [Policy; 5] = [
        Policy::Idle,
        Policy::Str,
        Policy::StrNested(1),
        Policy::StrNested(2),
        Policy::StrNested(3),
    ];

    /// Display name matching the paper (used in reports).
    pub fn name(self) -> &'static str {
        match self {
            Policy::Idle => "IDLE",
            Policy::Str => "STR",
            Policy::StrNested(1) => "STR(1)",
            Policy::StrNested(2) => "STR(2)",
            Policy::StrNested(3) => "STR(3)",
            Policy::StrNested(_) => "STR(i)",
        }
    }
}

/// [`Policy::Str`] under its earlier type name, kept because the
/// benchmark crate builds its STR engine with
/// `Engine::new(_, StrPolicy::new(), _)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StrPolicy;

impl StrPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        StrPolicy
    }
}

impl From<StrPolicy> for Policy {
    fn from(_: StrPolicy) -> Policy {
        Policy::Str
    }
}

/// Everything a rule may consult when an iteration starts in the
/// non-speculative thread.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpecContext<'a> {
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
    /// from the batch engine's [`AnnotatedTrace`](crate::AnnotatedTrace)
    /// or an oracle lane's [`OracleFeed`](crate::OracleFeed). Only the
    /// oracle reads it; history lanes pass 0.
    pub remaining_from_feed: u32,
}

/// One policy family's spawn rule, monomorphized into the engine core.
///
/// Returns how many *new* speculative threads to launch for future
/// iterations of `ctx.loop_id`. The engine clamps the request to
/// `ctx.idle_tus`, and it skips candidate iterations the
/// non-speculative thread's run-ahead has already executed, so fewer
/// threads may launch than requested.
pub(crate) trait Rule {
    /// Report name.
    fn name(&self) -> &'static str;

    /// Number of new threads to spawn.
    fn threads_to_spawn(&self, ctx: &SpecContext<'_>) -> u64;

    /// `Some(i)` enables the STR(i) nesting rule.
    fn nesting_limit(&self) -> Option<u32> {
        None
    }
}

/// [`Policy::Idle`]'s rule.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IdleRule;

/// [`Policy::Str`]'s rule.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StrRule;

/// [`Policy::StrNested`]'s rule, carrying the nesting limit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StrNestedRule(pub u32);

/// The Figure 5 oracle: spawns exactly the actual remaining iterations
/// — no misspeculation, no under-speculation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OracleRule;

impl Rule for IdleRule {
    fn name(&self) -> &'static str {
        Policy::Idle.name()
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

impl Rule for StrRule {
    fn name(&self) -> &'static str {
        Policy::Str.name()
    }

    fn threads_to_spawn(&self, ctx: &SpecContext<'_>) -> u64 {
        str_spawn(ctx)
    }
}

impl Rule for StrNestedRule {
    fn name(&self) -> &'static str {
        Policy::StrNested(self.0).name()
    }

    fn threads_to_spawn(&self, ctx: &SpecContext<'_>) -> u64 {
        str_spawn(ctx)
    }

    fn nesting_limit(&self) -> Option<u32> {
        Some(self.0)
    }
}

impl Rule for OracleRule {
    fn name(&self) -> &'static str {
        "ORACLE"
    }

    fn threads_to_spawn(&self, ctx: &SpecContext<'_>) -> u64 {
        (ctx.remaining_from_feed as u64)
            .saturating_sub(ctx.already_speculated as u64)
            .min(ctx.idle_tus)
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
        assert_eq!(IdleRule.threads_to_spawn(&ctx(&p, 2, 3, 0, 100)), 3);
        assert_eq!(IdleRule.threads_to_spawn(&ctx(&p, 2, 0, 0, 100)), 0);
    }

    #[test]
    fn str_unknown_behaves_like_idle() {
        let p = IterPredictor::new();
        assert_eq!(StrRule.threads_to_spawn(&ctx(&p, 2, 3, 0, 9)), 3);
    }

    #[test]
    fn str_caps_at_predicted_remaining() {
        let mut p = IterPredictor::new();
        for _ in 0..3 {
            p.record_execution(lid(1), 10); // reliable total = 10
        }
        // current iter 8, so 2 remaining; 5 idle.
        assert_eq!(StrRule.threads_to_spawn(&ctx(&p, 8, 5, 0, 2)), 2);
        // already 1 speculated: only 1 more.
        assert_eq!(StrRule.threads_to_spawn(&ctx(&p, 8, 5, 1, 2)), 1);
        // past the predicted end: nothing.
        assert_eq!(StrRule.threads_to_spawn(&ctx(&p, 11, 5, 0, 0)), 0);
    }

    #[test]
    fn str_uses_last_count_when_unreliable() {
        let mut p = IterPredictor::new();
        p.record_execution(lid(1), 6); // one observation: LastCount
        assert_eq!(StrRule.threads_to_spawn(&ctx(&p, 2, 10, 0, 4)), 4);
    }

    #[test]
    fn str_nested_carries_its_limit() {
        let p3 = StrNestedRule(3);
        assert_eq!(p3.nesting_limit(), Some(3));
        assert_eq!(p3.name(), "STR(3)");
        assert_eq!(StrRule.nesting_limit(), None);
    }

    #[test]
    fn oracle_spawns_exact_remainder() {
        let p = IterPredictor::new();
        let o = OracleRule;
        assert_eq!(o.threads_to_spawn(&ctx(&p, 2, u64::MAX, 0, 7)), 7);
        assert_eq!(o.threads_to_spawn(&ctx(&p, 2, u64::MAX, 5, 7)), 2);
        assert_eq!(o.threads_to_spawn(&ctx(&p, 2, 1, 0, 7)), 1);
    }
}
