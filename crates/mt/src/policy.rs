//! Speculation policies: how many future iterations to launch (paper
//! §3.1.2).
//!
//! [`Policy`] is the one public policy type, from the engine to the
//! wire. Every policy and the Figure 5 oracle make the same decision at
//! an iteration start, `burst`: launch min(idle TUs, iterations
//! believed to remain that are not yet speculated). They differ only in
//! the belief: IDLE assumes nothing bounds the loop, STR and STR(i)
//! read the LET stride predictor (`Policy::believed_remaining`), and
//! the oracle knows the count.

use loopspec_core::LoopId;

use crate::IterPredictor;

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

    /// Iterations after `current_iter` of the current execution of
    /// `loop_id` that this policy believes remain: `None` (nothing
    /// bounds the loop) for IDLE, and for STR and STR(i) the LET's
    /// predicted total minus `current_iter`, or `None` before the loop's
    /// first closed execution.
    #[inline]
    pub(crate) fn believed_remaining(
        self,
        predictor: &IterPredictor,
        loop_id: LoopId,
        current_iter: u32,
    ) -> Option<u32> {
        match self {
            Policy::Idle => None,
            Policy::Str | Policy::StrNested(_) => predictor
                .predict(loop_id)
                .map(|total| total.saturating_sub(current_iter)),
        }
    }

    /// `Some(i)` for STR(i), whose nesting rule squashes an enclosing
    /// speculated loop once more than `i` non-speculated loops pile up
    /// inside it.
    pub(crate) fn nesting_limit(self) -> Option<u32> {
        match self {
            Policy::StrNested(i) => Some(i),
            Policy::Idle | Policy::Str => None,
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

/// The one spawn rule: how many new speculative threads an iteration
/// start launches. Every idle TU when nothing bounds the loop
/// (`remaining` is `None`), else the iterations believed to remain that
/// hold no live thread yet, capped at the idle TUs.
///
/// The engine skips candidate iterations the non-speculative thread's
/// run-ahead has already executed, so fewer threads may launch.
#[inline]
pub(crate) fn burst(remaining: Option<u32>, already_speculated: u32, idle_tus: u64) -> u64 {
    match remaining {
        None => idle_tus,
        Some(r) => u64::from(r.saturating_sub(already_speculated)).min(idle_tus),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopspec_isa::Addr;

    fn lid(n: u32) -> LoopId {
        LoopId(Addr::new(n))
    }

    /// STR's burst at iteration `current_iter` of loop 1.
    fn str_burst(p: &IterPredictor, current_iter: u32, idle: u64, already: u32) -> u64 {
        burst(
            Policy::Str.believed_remaining(p, lid(1), current_iter),
            already,
            idle,
        )
    }

    #[test]
    fn idle_takes_everything() {
        let p = IterPredictor::new();
        assert_eq!(Policy::Idle.believed_remaining(&p, lid(1), 2), None);
        assert_eq!(burst(None, 0, 3), 3);
        assert_eq!(burst(None, 0, 0), 0);
    }

    #[test]
    fn str_unknown_behaves_like_idle() {
        let p = IterPredictor::new();
        assert_eq!(str_burst(&p, 2, 3, 0), 3);
    }

    #[test]
    fn str_caps_at_predicted_remaining() {
        let mut p = IterPredictor::new();
        for _ in 0..3 {
            p.record_execution(lid(1), 10); // reliable total = 10
        }
        // current iter 8, so 2 remaining; 5 idle.
        assert_eq!(str_burst(&p, 8, 5, 0), 2);
        // already 1 speculated: only 1 more.
        assert_eq!(str_burst(&p, 8, 5, 1), 1);
        // past the predicted end: nothing.
        assert_eq!(str_burst(&p, 11, 5, 0), 0);
    }

    #[test]
    fn str_uses_last_count_when_unreliable() {
        let mut p = IterPredictor::new();
        p.record_execution(lid(1), 6); // one observation: last count
        assert_eq!(str_burst(&p, 2, 10, 0), 4);
    }

    #[test]
    fn str_nested_carries_its_limit() {
        let p3 = Policy::StrNested(3);
        assert_eq!(p3.nesting_limit(), Some(3));
        assert_eq!(p3.name(), "STR(3)");
        assert_eq!(Policy::Str.nesting_limit(), None);
    }

    #[test]
    fn oracle_spawns_exact_remainder() {
        assert_eq!(burst(Some(7), 0, u64::MAX), 7);
        assert_eq!(burst(Some(7), 5, u64::MAX), 2);
        assert_eq!(burst(Some(7), 0, 1), 1);
    }
}
